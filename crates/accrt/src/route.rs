//! The transfer planners: pure functions of a [`Topology`] and of who
//! holds what, which decide every fill, flush, feed, replica sync and
//! reduction merge before anything moves; `Run::transfer` and
//! `Run::price_steps` land and price what they return. [`cover`] takes
//! each range from the first source holding it. A level-`l` group is a
//! run of GPUs at [`Topology::distance`] `≤ l` from each other.
//!
//! The §IV-D1 replica sync ([`sync_schedule`]) is a union all-gather
//! over the levels (island, node, machine), each starting at the barrier
//! that ends the one before. Up-sweep: dirty GPUs ship their chunks to
//! every replica holder of their own island, island leaders (the lowest
//! holder) exchange the *union* of their island's dirty chunks inside the
//! node, node leaders exchange node unions across the fabric. Down-sweep:
//! each leader hands its group the chunks dirtied outside it. A chunk
//! dirtied by every GPU of an island therefore crosses the root complex
//! once, not once per writer and reader. The reduction merge
//! ([`reduce_tree`]) walks the same levels as a stride-doubling tree per
//! group. The paper's flat platforms are the one-island instance: the
//! first level is the paper's all-to-all in [`Topology::peer_order`]
//! (plain ascending index), the tree has a single group, and every other
//! level is empty.

use std::borrow::Borrow;

use acc_gpusim::{Endpoint, Topology};

use crate::ranges::RangeSet;

/// A dirty chunk on the wire: `(chunk index, payload bytes)`. The
/// mechanism moves whole chunks plus their first-level bits — however
/// many GPUs dirtied the chunk — and receivers apply per element.
pub(crate) type Chunk = (usize, u64);

/// One hop of a priced schedule: `src` ships every chunk of set `set`
/// (an index into the schedule's set table) to `dst`, each chunk its
/// own asynchronous transfer. The comm manager's schedules name GPUs by
/// index; the steps of `Run::transfer` name an [`Endpoint`] or a GPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Step<E = usize> {
    pub src: E,
    pub dst: E,
    pub set: usize,
}

/// The priced schedule of one replica sync.
#[derive(Debug)]
pub(crate) struct SyncSchedule {
    /// Ascending chunk sets the steps refer to; set `g` is what GPU `g`
    /// dirtied itself.
    pub sets: Vec<Vec<Chunk>>,
    /// Non-empty step lists in pricing order, one per topology level of
    /// the up- and the down-sweep.
    pub levels: Vec<Vec<Step>>,
}

/// One range of an array moving between two endpoints: `(src, dst,
/// [lo, hi))`, global elements.
pub(crate) type Move<E = Endpoint> = (E, E, (i64, i64));

/// One group's merge at topology level `.0` (an index into [`LEVELS`]):
/// its stride-doubling rounds of `(src, dst)` folds.
pub(crate) type Chain = (usize, Vec<Vec<(usize, usize)>>);

/// The topology levels, finest first, as merge events name them.
pub(crate) const LEVELS: [&str; 3] = ["intra-island", "inter-island", "inter-node"];

/// Whether GPUs `a` and `b` share a level-`l` group.
fn grouped(bus: &Topology, l: usize, a: usize, b: usize) -> bool {
    bus.distance(a, b) as usize <= l
}

/// Cover `want` from `sources`, in order: each source gives `dst` what
/// it holds of what is still wanted. Returns the moves, ascending within
/// a source, and what no source held.
pub(crate) fn cover<E: Copy>(
    mut want: RangeSet,
    dst: E,
    sources: impl IntoIterator<Item = (E, impl Borrow<RangeSet>)>,
) -> (Vec<Move<E>>, RangeSet) {
    let mut moves = Vec::new();
    for (src, held) in sources {
        if want.is_empty() {
            break;
        }
        let mut take = held.borrow().clone();
        take.intersect(&want);
        for (lo, hi) in take.iter() {
            moves.push((src, dst, (lo, hi)));
            want.remove(lo, hi);
        }
    }
    (moves, want)
}

fn union<'s>(parts: impl Iterator<Item = &'s Vec<Chunk>>) -> Vec<Chunk> {
    let mut all: Vec<Chunk> = parts.flatten().copied().collect();
    all.sort_unstable();
    all.dedup();
    all
}

/// Build the union all-gather (module docs) that makes the chunks in
/// `dirty[g]` of every GPU `g` reach every GPU with `has_replica` set.
/// Members of a group are all at the same distance from each other, so
/// visiting them in ascending index is `peer_order` restricted to the
/// group. No step ships an empty set.
pub(crate) fn sync_schedule(
    bus: &Topology,
    dirty: Vec<Vec<Chunk>>,
    has_replica: &[bool],
) -> SyncSchedule {
    let same_group = |l| move |a: &(usize, usize), b: &(usize, usize)| grouped(bus, l, a.0, b.0);
    let mut sets = dirty;
    let mut levels = Vec::new();
    // Up-sweep. `tiers[l]` lists level `l`'s participants as `(GPU, set
    // it carries)`: every holder with its own chunks, then the leader of
    // each group with the union of the group's.
    let holders = (0..has_replica.len()).filter(|&g| has_replica[g]);
    let mut tiers: Vec<Vec<(usize, usize)>> = vec![holders.map(|g| (g, g)).collect()];
    for l in 0..LEVELS.len() {
        let (mut steps, mut leaders) = (Vec::new(), Vec::new());
        for group in tiers[l].chunk_by(same_group(l)) {
            for &(src, set) in group.iter().filter(|m| !sets[m.1].is_empty()) {
                let peers = group.iter().filter(|m| m.0 != src);
                steps.extend(peers.map(|m| Step { src, dst: m.0, set }));
            }
            sets.push(union(group.iter().map(|m| &sets[m.1])));
            leaders.push((group[0].0, sets.len() - 1));
        }
        levels.push(steps);
        tiers.push(leaders);
    }
    // Down-sweep. `outside[i]` is the set of chunks dirtied outside the
    // `i`-th group of the level — nothing, for the whole machine. A
    // member already holds its siblings' unions from the up-sweep.
    sets.push(Vec::new());
    let mut outside = vec![sets.len() - 1];
    for l in (0..LEVELS.len()).rev() {
        let (mut steps, mut below) = (Vec::new(), Vec::new());
        for (group, &out) in tiers[l].chunk_by(same_group(l)).zip(&outside) {
            if !sets[out].is_empty() {
                let (src, set) = (group[0].0, out);
                steps.extend(group[1..].iter().map(|m| Step { src, dst: m.0, set }));
            }
            // Each member leads a group one level down; GPUs lead none.
            if l > 0 {
                for m in group {
                    let siblings = group.iter().filter(|o| o.0 != m.0).map(|o| &sets[o.1]);
                    sets.push(union(siblings.chain([&sets[out]])));
                    below.push(sets.len() - 1);
                }
            }
        }
        levels.push(steps);
        outside = below;
    }
    levels.retain(|steps| !steps.is_empty());
    SyncSchedule { sets, levels }
}

/// The merge tree that folds the private copies of GPUs `0..k` into
/// GPU 0: one [`Chain`] per group, level by level, groups ascending (a
/// lone GPU's has no rounds). Leaders surviving one level fold onto the
/// leader (lowest GPU) of the next-coarser group, so only one transfer
/// per island crosses the root complex and only one per node crosses
/// the fabric. The chains of a level occupy disjoint GPUs.
pub(crate) fn reduce_tree(bus: &Topology, k: usize) -> Vec<Chain> {
    let (mut leaders, mut chains): (Vec<usize>, _) = ((0..k).collect(), Vec::new());
    for l in 0..LEVELS.len() {
        let mut next = Vec::new();
        for group in leaders.chunk_by(|&a, &b| grouped(bus, l, a, b)) {
            next.push(group[0]);
            let round = |s: usize| -> Vec<_> {
                group.chunks(2 * s).filter(|c| c.len() > s).map(|c| (c[s], c[0])).collect()
            };
            let strides = std::iter::successors(Some(1), |s| Some(s * 2));
            chains.push((l, strides.take_while(|&s| s < group.len()).map(round).collect()));
        }
        leaders = next;
    }
    chains
}

#[cfg(test)]
mod tests;
