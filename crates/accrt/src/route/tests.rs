//! Property tests of the transfer planners on a `Topology` alone: the
//! replica-sync all-gather, the reduction merge tree and range cover.

use std::collections::BTreeSet;

use acc_gpusim::Topology;
use proptest::prelude::*;

use super::{cover, reduce_tree, sync_schedule, Chain, Chunk, Step};
use crate::ranges::RangeSet;

/// splitmix64: the schedule inputs are derived from one seed.
fn mix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let z = (*x ^ (*x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A cluster-shaped bus: `width`-GPU islands, `islands` of them a node.
fn hierarchy(width: usize, islands: usize) -> Topology {
    Topology::hierarchical(5.0, 2.6, 8.0, 12.0, 50.0, 1.0, 10.0, 40.0, 25.0, width, width * islands)
}

/// Whether `g` is the lowest of `members` within distance `l` of it:
/// the leader of its island (`l = 0`) or its node (`l = 1`).
fn leads(bus: &Topology, mut members: impl Iterator<Item = usize>, g: usize, l: u32) -> bool {
    members.find(|&h| bus.distance(g, h) <= l) == Some(g)
}

/// The paper's schedule: every dirty GPU ships its own chunks to every
/// other holder, nearest first.
fn all_to_all(bus: &Topology, dirty: &[Vec<Chunk>], has_replica: &[bool]) -> Vec<Step> {
    let n = dirty.len();
    let dirty_gpus = (0..n).filter(|&g| !dirty[g].is_empty());
    dirty_gpus
        .flat_map(|g| {
            let peers = bus.peer_order(g, n).into_iter().filter(|&h| has_replica[h]);
            peers.map(move |h| Step { src: g, dst: h, set: g })
        })
        .collect()
}

/// The paper's stride-doubling pair list over GPUs `0..k`, round by
/// round: at stride `s`, GPU `i + s` folds into `i` for every `i` a
/// multiple of `2s`.
fn stride_doubling(k: usize) -> Vec<Vec<(usize, usize)>> {
    let strides = std::iter::successors(Some(1), |s| Some(s * 2)).take_while(|&s| s < k);
    let round = |s| (0..k).step_by(2 * s).filter(|i| i + s < k).map(|i| (i + s, i)).collect();
    strides.map(round).collect()
}

/// A random subset of `[0, 64)`.
fn random_set(rng: &mut u64) -> RangeSet {
    let bits = mix(rng);
    (0..64i64).filter(|&i| bits >> i & 1 == 1).map(|i| (i, i + 1)).collect()
}

proptest! {
    /// Replay the step list as set propagation. A level's steps all
    /// leave at the level's barrier, so a step forwards only what its
    /// source held when the level began.
    #[test]
    fn sync_schedule_is_a_union_all_gather(
        width in 1usize..=8,
        islands_per_node in 1usize..=4,
        ngpus in 1usize..=64,
        nchunks in 1usize..=6,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = seed;
        // A dirty GPU wrote through its replica, so it holds one; some
        // clean GPUs hold one too, some never did.
        let dirty: Vec<Vec<Chunk>> = (0..ngpus)
            .map(|_| {
                let (mask, clean) = (mix(&mut rng), mix(&mut rng).is_multiple_of(3));
                let picked = (0..nchunks).filter(|c| !clean && mask >> c & 1 == 1);
                picked.map(|c| (c, 1000 + 8 * c as u64)).collect()
            })
            .collect();
        let has_replica: Vec<bool> =
            dirty.iter().map(|d| !d.is_empty() || !mix(&mut rng).is_multiple_of(4)).collect();
        let bus = hierarchy(width, islands_per_node);
        let sched = sync_schedule(&bus, dirty.clone(), &has_replica);

        // (chunk, GPU that dirtied it): a chunk two GPUs wrote to must
        // arrive with both contributions.
        let mut have: Vec<BTreeSet<(usize, usize)>> = (0..ngpus)
            .map(|g| dirty[g].iter().map(|c| (c.0, g)).collect())
            .collect();
        let everything: BTreeSet<(usize, usize)> = have.iter().flatten().copied().collect();
        for steps in &sched.levels {
            prop_assert!(!steps.is_empty(), "an empty level survived");
            let before = have.clone();
            for s in steps {
                let set = &sched.sets[s.set];
                prop_assert!(!set.is_empty(), "{s:?} ships nothing");
                prop_assert!(s.src != s.dst && has_replica[s.src] && has_replica[s.dst], "{s:?}");
                prop_assert!(set.windows(2).all(|w| w[0] < w[1]), "{s:?}: {set:?} not ascending");
                for c in set {
                    prop_assert!(before[s.src].iter().any(|p| p.0 == c.0), "{s:?} ships chunk {} it lacks", c.0);
                }
                let moved = before[s.src].iter().filter(|p| set.iter().any(|c| c.0 == p.0));
                have[s.dst].extend(moved.copied());
            }
        }
        for h in (0..ngpus).filter(|&h| has_replica[h]) {
            prop_assert_eq!(&have[h], &everything, "holder {} is incomplete", h);
        }

        // A step that leaves an island (a node) joins the lowest holders
        // of both islands (nodes): an island's chunks cross the root
        // complex once, a node's the fabric once.
        let holders = || (0..ngpus).filter(|&h| has_replica[h]);
        for s in sched.levels.iter().flatten() {
            for l in 0..bus.distance(s.src, s.dst) {
                let lead = |g| leads(&bus, holders(), g, l);
                let (src, dst) = (lead(s.src), lead(s.dst));
                prop_assert!(src && dst, "{s:?} crosses level {l} off its leaders");
            }
        }

        // One island — the paper's platforms, or a hierarchy's first
        // island — is the all-to-all in peer order, pair for pair.
        let flat = Topology::supercomputer_node();
        let mut one_island = vec![(sync_schedule(&flat, dirty.clone(), &has_replica), flat)];
        if ngpus <= width {
            one_island.push((sched, bus));
        }
        for (sched, bus) in one_island {
            let want = all_to_all(&bus, &dirty, &has_replica);
            prop_assert_eq!(sched.levels.concat(), want);
            prop_assert_eq!(&sched.sets[..ngpus], &dirty[..]);
        }
    }

    /// Replay the merge tree as set propagation: the folds of a round
    /// leave together, so each forwards what its source held when the
    /// round began.
    #[test]
    fn reduce_tree_folds_every_copy_into_gpu_0_once(
        width in 1usize..=8,
        islands_per_node in 1usize..=4,
        k in 0usize..=64,
    ) {
        let bus = hierarchy(width, islands_per_node);
        let chains = reduce_tree(&bus, k);
        prop_assert!(chains.windows(2).all(|w| w[0].0 <= w[1].0), "chains out of level order");
        let folds: Vec<(usize, (usize, usize))> =
            chains.iter().flat_map(|c| c.1.iter().flatten().map(move |&f| (c.0, f))).collect();
        let mut sources: Vec<usize> = folds.iter().map(|(_, (src, _))| *src).collect();
        sources.sort_unstable();
        prop_assert_eq!(sources, (1..k).collect::<Vec<_>>(), "not every copy but 0 folds once");
        for &(l, (src, dst)) in &folds {
            let d = bus.distance(src, dst);
            prop_assert!(dst < src && d as usize <= l, "fold {src} -> {dst} at level {l}");
            for below in 0..d {
                let (s, t) = (leads(&bus, 0..k, src, below), leads(&bus, 0..k, dst, below));
                prop_assert!(s && t, "fold {src} -> {dst} crosses level {below} off its leaders");
            }
        }
        let mut have: Vec<BTreeSet<usize>> = (0..k).map(|g| BTreeSet::from([g])).collect();
        for round in chains.iter().flat_map(|c| &c.1) {
            let before = have.clone();
            for &(src, dst) in round {
                have[dst].extend(&before[src]);
            }
        }
        if k > 0 {
            prop_assert_eq!(&have[0], &(0..k).collect::<BTreeSet<_>>());
        }

        // One island — the paper's platforms, or a hierarchy's first
        // island — is the paper's single stride-doubling tree.
        let folding = |chains: Vec<Chain>| chains.into_iter().filter(|c| !c.1.is_empty());
        let paper: Vec<Chain> = folding(vec![(0, stride_doubling(k))]).collect();
        let flat = reduce_tree(&Topology::supercomputer_node(), k);
        prop_assert_eq!(folding(flat).collect::<Vec<_>>(), paper.clone());
        if k <= width {
            prop_assert_eq!(folding(chains).collect::<Vec<_>>(), paper);
        }
    }

    /// Each source gives what it holds of what is still wanted, in order.
    #[test]
    fn cover_takes_each_range_from_the_first_source_holding_it(
        nsources in 0usize..=6,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = seed;
        let want = random_set(&mut rng);
        let sources: Vec<RangeSet> = (0..nsources).map(|_| random_set(&mut rng)).collect();
        let (moves, left) = cover(want.clone(), usize::MAX, sources.iter().enumerate());
        let mut got = RangeSet::new();
        prop_assert!(moves.windows(2).all(|w| w[0].0 <= w[1].0), "sources out of order");
        for &(src, dst, (lo, hi)) in &moves {
            prop_assert!(dst == usize::MAX && lo < hi);
            prop_assert!(sources[src].contains_range(lo, hi), "{src} lacks [{lo}, {hi})");
            prop_assert!(want.contains_range(lo, hi), "[{lo}, {hi}) was not wanted");
            prop_assert!(got.intersect_range(lo, hi).is_empty(), "[{lo}, {hi}) moves twice");
            for (h, earlier) in sources[..src].iter().enumerate() {
                let first = earlier.intersect_range(lo, hi).is_empty();
                prop_assert!(first, "{h} held [{lo}, {hi}) first");
            }
            got.insert(lo, hi);
        }
        for (lo, hi) in left.iter() {
            prop_assert!(got.intersect_range(lo, hi).is_empty(), "[{lo}, {hi}) moved, left over");
            prop_assert!(sources.iter().all(|s| s.intersect_range(lo, hi).is_empty()));
        }
        got.union(&left);
        prop_assert_eq!(got, want);
    }
}
