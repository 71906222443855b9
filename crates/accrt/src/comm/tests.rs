//! Unit tests of the communication manager's pure parts: write-miss
//! owner routing (`plan::owner_of`) and the replica-sync schedule.

use std::collections::BTreeSet;

use acc_gpusim::Topology;
use proptest::prelude::*;

use super::{sync_schedule, Chunk, Step};
use crate::plan::owner_of;

/// Route over the non-empty prefix, as `replay_misses` does over the
/// plan's `own[..active]`.
fn route(own: &[(i64, i64)], idx: i64) -> Option<usize> {
    let active = own.iter().take_while(|r| r.0 < r.1).count();
    owner_of(&own[..active], idx)
}

#[test]
fn router_routes_contiguous_partitions() {
    // Uneven but contiguous: the `plan::build` shape.
    let own = [(0i64, 34), (34, 67), (67, 100)];
    for idx in 0..100 {
        let want = own.iter().position(|w| w.0 <= idx && idx < w.1);
        assert_eq!(route(&own, idx), want, "idx {idx}");
    }
    assert_eq!(route(&own, -1), None);
    assert_eq!(route(&own, 100), None);
}

#[test]
fn router_handles_empty_suffix() {
    // ngpus > iterations: trailing GPUs own nothing.
    let own = [(0i64, 2), (2, 3), (0, 0), (0, 0)];
    assert_eq!(route(&own, 0), Some(0));
    assert_eq!(route(&own, 2), Some(1));
    assert_eq!(route(&own, 3), None);
}

#[test]
fn router_falls_back_on_gaps() {
    let own = [(0i64, 2), (5, 9)];
    assert_eq!(route(&own, 1), Some(0));
    assert_eq!(route(&own, 3), None);
    assert_eq!(route(&own, 6), Some(1));
}

#[test]
fn router_handles_all_empty() {
    let own = [(0i64, 0), (0, 0)];
    assert_eq!(route(&own, 0), None);
}

/// splitmix64: the schedule inputs are derived from one seed.
fn mix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let z = (*x ^ (*x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
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
        let node = width * islands_per_node;
        let bus = Topology::hierarchical(5.0, 2.6, 8.0, 12.0, 50.0, 1.0, 10.0, 40.0, 25.0, width, node);
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
}
