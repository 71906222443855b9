//! Device-residency state the data loader maintains per array.
//!
//! OpenACC keeps two logical copies of every array inside a data region:
//! the host copy (always directly accessible to host code) and the device
//! copy (here: spread or replicated over the simulated GPUs). The loader
//! tracks, per GPU, which global element ranges of the device copy are
//! materialised and current (`valid`); the communication manager updates
//! these sets after every kernel wave. `update` directives and region-exit
//! copy-outs move data between the two logical copies explicitly.
//!
//! Regions are structured `HostOp::DataRegion`s of the translated host
//! program, and every launch sits inside regions covering each array it
//! uses (the translator adds the implicit per-launch one), so an array's
//! state only counts how deep it is nested; each open region's copy-out
//! list lives with the executor frame that entered it.

use acc_gpusim::BufferHandle;
use acc_kernel_ir::{DirtyMap, Ty};

use crate::ranges::RangeSet;

/// Per-GPU residency state of one array.
#[derive(Debug, Default)]
pub(crate) struct GpuArr {
    /// Device allocation holding `window`, if materialised.
    pub handle: Option<BufferHandle>,
    /// Global element range the allocation covers `[lo, hi)`.
    pub window: (i64, i64),
    /// Ranges whose device-copy content this GPU holds (coherence
    /// metadata: a valid range can serve as a transfer source).
    pub valid: RangeSet,
    /// Two-level dirty bits for replicated arrays the current kernel
    /// writes (lives host-side; its footprint is charged to the GPU via
    /// `dirty_acct`).
    pub dirty: Option<DirtyMap>,
    /// Device "System" allocation accounting for the dirty-bit arrays.
    pub dirty_acct: Option<BufferHandle>,
    /// Device "System" allocation accounting for the write-miss buffer.
    pub miss_acct: Option<BufferHandle>,
    /// This GPU holds an identity-initialised reduction-private copy (not
    /// a coherence source).
    pub red_private: bool,
}

/// Residency state of one program array.
#[derive(Debug)]
pub(crate) struct ArrayState {
    pub ty: Ty,
    pub len: usize,
    /// Number of open region clause sections naming the array; 0 = not
    /// device-resident.
    pub region_depth: u32,
    /// Whether missing device ranges may be faulted in from the host copy
    /// (`copy`/`copyin`) or must materialise as zeros (`create`/`copyout`).
    pub init_from_host: bool,
    /// Set once a kernel has written the array on the device: the host
    /// copy no longer reflects the device copy, so the loader must source
    /// missing ranges from peer GPUs (the paper's loader otherwise always
    /// loads from CPU memory, §IV-C).
    pub host_stale: bool,
    /// Set when a replica sync was elided on a static comm-elision fact:
    /// the replicas are mutually stale outside each GPU's own partition
    /// and the accumulated dirty bits are still armed. Any operation that
    /// could observe the divergence (host flush, `update`, loader fill
    /// from peers) must reconcile first (`Run::ensure_synced`).
    pub sync_pending: bool,
    pub gpu: Vec<GpuArr>,
}

impl ArrayState {
    pub fn new(ty: Ty, len: usize, ngpus: usize) -> ArrayState {
        ArrayState {
            ty,
            len,
            region_depth: 0,
            init_from_host: true,
            host_stale: false,
            sync_pending: false,
            gpu: (0..ngpus).map(|_| GpuArr::default()).collect(),
        }
    }

    /// Element size in bytes.
    pub fn elem(&self) -> usize {
        self.ty.size_bytes()
    }

}

/// Equal static division of the iteration space `[lo, hi)` over `n` GPUs
/// (paper §IV-B2: "the tasks in the parallel loop are equally divided
/// among the GPUs"). Returns per-GPU `[lo_g, hi_g)`.
pub fn split_tasks(lo: i64, hi: i64, n: usize) -> Vec<(i64, i64)> {
    let total = (hi - lo).max(0);
    let n_i = n as i64;
    let chunk = total / n_i;
    let rem = total % n_i;
    let mut out = Vec::with_capacity(n);
    let mut cur = lo;
    for g in 0..n_i {
        let sz = chunk + if g < rem { 1 } else { 0 };
        out.push((cur, cur + sz));
        cur += sz;
    }
    out
}

/// Piecewise-constant per-iteration cost density over `[lo, hi)` built
/// from a previous launch's `(range, measured seconds)` history. Returns
/// `(seg_lo, seg_hi, seconds-per-iteration)` segments exactly covering
/// `[lo, hi)`; iterations no history range covers are priced at the
/// average density, so a moved or grown iteration space stays covered.
///
/// Returns `None` when the history is unusable — empty, zero or
/// non-finite total cost, no overlap with `[lo, hi)`, or overlapping
/// ranges — in which case callers fall back to [`split_tasks`].
pub fn cost_segments(lo: i64, hi: i64, hist: &[((i64, i64), f64)]) -> Option<Vec<(i64, i64, f64)>> {
    if hi <= lo {
        return None;
    }
    let mut segs: Vec<(i64, i64, f64)> = Vec::new();
    let mut covered = 0i64;
    let mut cost_sum = 0.0f64;
    for &((a, b), c) in hist {
        if !c.is_finite() || c < 0.0 {
            return None;
        }
        let (a, b) = (a.max(lo), b.min(hi));
        if a >= b {
            continue;
        }
        segs.push((a, b, c / (b - a) as f64));
        covered += b - a;
        cost_sum += c;
    }
    if covered == 0 || cost_sum <= 0.0 || !cost_sum.is_finite() {
        return None;
    }
    segs.sort_by_key(|s| s.0);
    if segs.windows(2).any(|w| w[0].1 > w[1].0) {
        return None;
    }
    let avg = cost_sum / covered as f64;
    let mut full = Vec::with_capacity(segs.len() * 2 + 1);
    let mut cur = lo;
    for (a, b, d) in segs {
        if cur < a {
            full.push((cur, a, avg));
        }
        full.push((a, b, d));
        cur = b;
    }
    if cur < hi {
        full.push((cur, hi, avg));
    }
    Some(full)
}

/// Predicted cost of `[rlo, rhi)` under a density from [`cost_segments`].
pub fn integrate_cost(segs: &[(i64, i64, f64)], rlo: i64, rhi: i64) -> f64 {
    let mut acc = 0.0;
    for &(a, b, d) in segs {
        let (a, b) = (a.max(rlo), b.min(rhi));
        if a < b {
            acc += (b - a) as f64 * d;
        }
    }
    acc
}

/// Cost-proportional division of `[lo, hi)` over `n` GPUs: boundaries
/// sit at the cost quantiles of the density [`cost_segments`] builds
/// from `hist`, each rounded up to a whole iteration. Like
/// [`split_tasks`], the result is a contiguous covering partition whose
/// empty ranges (more GPUs than distinguishable work) occupy the tail —
/// under a uniform density the two splitters agree exactly.
///
/// Falls back to [`split_tasks`] when the history is unusable.
pub fn split_tasks_weighted(lo: i64, hi: i64, n: usize, hist: &[((i64, i64), f64)]) -> Vec<(i64, i64)> {
    let Some(segs) = cost_segments(lo, hi, hist) else {
        return split_tasks(lo, hi, n);
    };
    let w_total = integrate_cost(&segs, lo, hi);
    if w_total <= 0.0 || !w_total.is_finite() {
        return split_tasks(lo, hi, n);
    }
    let mut bounds = Vec::with_capacity(n + 1);
    bounds.push(lo);
    let mut seg_idx = 0usize;
    let mut cum = 0.0f64; // cost integral up to segs[seg_idx].0
    for g in 0..n.saturating_sub(1) {
        let target = w_total * (g + 1) as f64 / n as f64;
        loop {
            let (a, b, d) = segs[seg_idx];
            let seg_cost = (b - a) as f64 * d;
            if cum + seg_cost < target && seg_idx + 1 < segs.len() {
                cum += seg_cost;
                seg_idx += 1;
            } else {
                break;
            }
        }
        let (a, b, d) = segs[seg_idx];
        let x = if d > 0.0 {
            // Shave a relative epsilon before rounding up so a quantile
            // that is mathematically a whole iteration count does not
            // ceil past it on accumulated float error.
            let v = (target - cum) / d;
            a + ((v - v.abs() * 1e-12 - 1e-12).ceil() as i64).max(0)
        } else {
            b
        };
        let prev = *bounds.last().unwrap();
        bounds.push(x.clamp(prev, hi));
    }
    bounds.push(hi);
    // Compact empty ranges to the tail so the partition keeps the
    // non-empty-prefix shape `split_tasks` guarantees (ownership routing
    // and the reduction-merge tree rely on it).
    let mut out: Vec<(i64, i64)> = bounds
        .windows(2)
        .filter(|w| w[0] < w[1])
        .map(|w| (w[0], w[1]))
        .collect();
    out.resize(n, (hi, hi));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_even() {
        assert_eq!(split_tasks(0, 12, 3), vec![(0, 4), (4, 8), (8, 12)]);
    }

    #[test]
    fn split_with_remainder() {
        assert_eq!(split_tasks(0, 10, 3), vec![(0, 4), (4, 7), (7, 10)]);
        let s = split_tasks(5, 12, 2);
        assert_eq!(s, vec![(5, 9), (9, 12)]);
    }

    #[test]
    fn split_fewer_tasks_than_gpus() {
        assert_eq!(split_tasks(0, 2, 4), vec![(0, 1), (1, 2), (2, 2), (2, 2)]);
    }

    #[test]
    fn split_empty() {
        assert_eq!(split_tasks(3, 3, 2), vec![(3, 3), (3, 3)]);
    }

    #[test]
    fn weighted_matches_equal_on_uniform_history() {
        for (lo, hi, n) in [(0, 12, 3), (0, 10, 3), (5, 12, 2), (0, 2, 4), (0, 100, 3)] {
            let hist: Vec<((i64, i64), f64)> = split_tasks(lo, hi, n)
                .into_iter()
                .filter(|r| r.0 < r.1)
                .map(|r| (r, (r.1 - r.0) as f64 * 1e-6))
                .collect();
            assert_eq!(
                split_tasks_weighted(lo, hi, n, &hist),
                split_tasks(lo, hi, n),
                "lo={lo} hi={hi} n={n}"
            );
        }
    }

    #[test]
    fn weighted_shifts_work_toward_cheap_iterations() {
        // First half of the space cost 4x the second half: the first GPU
        // should take far fewer iterations than the equal split's 50.
        let hist = [((0i64, 50i64), 4.0), ((50, 100), 1.0)];
        let s = split_tasks_weighted(0, 100, 2, &hist);
        assert_eq!(s[0].0, 0);
        assert_eq!(s[1].1, 100);
        assert_eq!(s[0].1, s[1].0, "contiguous");
        // Half the total cost (2.5) sits at iteration 31.25 → ceil 32.
        assert_eq!(s[0].1, 32);
    }

    #[test]
    fn weighted_falls_back_without_usable_history() {
        assert_eq!(split_tasks_weighted(0, 10, 3, &[]), split_tasks(0, 10, 3));
        // Zero-cost history is unusable.
        let zero = [((0i64, 10i64), 0.0)];
        assert_eq!(split_tasks_weighted(0, 10, 3, &zero), split_tasks(0, 10, 3));
        // History from a disjoint iteration space is unusable.
        let off = [((100i64, 200i64), 1.0)];
        assert_eq!(split_tasks_weighted(0, 10, 3, &off), split_tasks(0, 10, 3));
    }

    #[test]
    fn weighted_covers_gaps_at_average_density() {
        // History covers only the middle; the gaps get the average
        // density, and the result still exactly covers [0, 90).
        let hist = [((30i64, 60i64), 3.0)];
        let s = split_tasks_weighted(0, 90, 3, &hist);
        assert_eq!(s.first().unwrap().0, 0);
        assert_eq!(s.last().unwrap().1, 90);
        for w in s.windows(2) {
            assert_eq!(w[0].1, w[1].0);
        }
        // Uniform average everywhere → equal thirds.
        assert_eq!(s, vec![(0, 30), (30, 60), (60, 90)]);
    }

    #[test]
    fn weighted_pushes_empty_ranges_to_the_tail() {
        // One iteration holds nearly all the cost: GPUs beyond the
        // distinguishable work get empty tail ranges at `hi`.
        let hist = [((0i64, 1i64), 100.0), ((1, 4), 0.003)];
        let s = split_tasks_weighted(0, 4, 4, &hist);
        assert_eq!(s.iter().map(|r| (r.1 - r.0).max(0)).sum::<i64>(), 4);
        let first_empty = s.iter().position(|r| r.0 >= r.1);
        if let Some(k) = first_empty {
            assert!(s[k..].iter().all(|r| r.0 >= r.1), "empties form the tail");
            assert!(s[k..].iter().all(|&r| r == (4, 4)));
        }
    }
}
