//! The cost-model-driven task mapper.
//!
//! The paper's runtime always divides a parallel loop's iteration space
//! equally among the GPUs (§IV-B2) — which loses badly when per-iteration
//! cost is skewed (irregular BFS frontiers, power-law SPMV rows). Under
//! [`Schedule::CostModel`](crate::Schedule) the mapper keeps, per kernel,
//! the previous launch's per-GPU iteration ranges together with the
//! kernel seconds each range *measured* (the interpreter's work counters
//! priced through the device model, minus the fixed launch overhead).
//! The next launch of the same kernel treats that history as a
//! piecewise-constant cost density and cuts the new iteration space at
//! equal-cost quantiles — StarPU-style history-based feedback, without
//! user annotations. A kernel's first launch (or a launch whose history
//! is unusable) falls back to the equal division.
//!
//! Ownership follows the split: the ranges the mapper returns feed the
//! same `plan::build` the equal division does — windows, owned ranges,
//! owner routing — so replica sync, miss replay and reductions see the
//! actual per-launch partition.

use crate::state::{cost_segments, integrate_cost, split_tasks, split_tasks_weighted};

/// One launch's feedback: per-GPU `(range, measured kernel seconds)`.
type LaunchHistory = Vec<((i64, i64), f64)>;

/// The mapper's verdict for one launch.
pub(crate) struct MapperPlan {
    /// Per-GPU `[lo, hi)` iteration ranges (covering partition of the
    /// launch's iteration space; empty ranges occupy the tail).
    pub tasks: Vec<(i64, i64)>,
    /// Predicted kernel seconds per GPU under the history density (all
    /// zeros on the equal-split fallback).
    pub predicted_s: Vec<f64>,
    /// Whether measured history drove the cut.
    pub from_history: bool,
}

/// Per-kernel launch history and split planning.
#[derive(Debug, Default)]
pub(crate) struct TaskMapper {
    /// Indexed by kernel: the previous launch's `(range, seconds)` pairs
    /// (only GPUs that ran are recorded).
    hist: Vec<Option<LaunchHistory>>,
}

impl TaskMapper {
    pub fn new(nkernels: usize) -> TaskMapper {
        TaskMapper {
            hist: vec![None; nkernels],
        }
    }

    /// Plan the split of `[lo, hi)` over `n` GPUs for kernel `kidx`.
    pub fn plan(&self, kidx: usize, lo: i64, hi: i64, n: usize) -> MapperPlan {
        let Some(hist) = self.hist.get(kidx).and_then(|h| h.as_ref()) else {
            return MapperPlan {
                tasks: split_tasks(lo, hi, n),
                predicted_s: vec![0.0; n],
                from_history: false,
            };
        };
        let tasks = split_tasks_weighted(lo, hi, n, hist);
        let predicted_s = match cost_segments(lo, hi, hist) {
            Some(segs) => tasks
                .iter()
                .map(|&(a, b)| integrate_cost(&segs, a, b))
                .collect(),
            None => vec![0.0; n],
        };
        MapperPlan {
            tasks,
            predicted_s,
            from_history: true,
        }
    }

    /// Feed back the launch's measured per-GPU kernel seconds.
    /// `overhead_s` (the device's fixed launch overhead) is removed so
    /// the density reflects per-iteration work; GPUs that ran nothing
    /// are skipped.
    pub fn record(
        &mut self,
        kidx: usize,
        tasks: &[(i64, i64)],
        measured_s: &[f64],
        overhead_s: f64,
    ) {
        let pairs: LaunchHistory = tasks
            .iter()
            .zip(measured_s)
            .filter(|(&(a, b), _)| a < b)
            .map(|(&r, &t)| (r, (t - overhead_s).max(0.0)))
            .collect();
        if kidx >= self.hist.len() {
            self.hist.resize_with(kidx + 1, || None);
        }
        self.hist[kidx] = if pairs.is_empty() { None } else { Some(pairs) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_launch_is_the_equal_split() {
        let m = TaskMapper::new(1);
        let p = m.plan(0, 0, 9, 3);
        assert_eq!(p.tasks, split_tasks(0, 9, 3));
        assert!(!p.from_history);
        assert_eq!(p.predicted_s, vec![0.0; 3]);
    }

    #[test]
    fn feedback_rebalances_toward_measured_cost() {
        let mut m = TaskMapper::new(1);
        let equal = split_tasks(0, 90, 3);
        // GPU 0's third was 4x as expensive per iteration.
        m.record(0, &equal, &[4.0 + 8e-6, 1.0 + 8e-6, 1.0 + 8e-6], 8e-6);
        let p = m.plan(0, 0, 90, 3);
        assert!(p.from_history);
        assert!(
            p.tasks[0].1 - p.tasks[0].0 < 30,
            "expensive region shrinks: {:?}",
            p.tasks
        );
        // Predicted shares are equal thirds of the total cost.
        let total: f64 = p.predicted_s.iter().sum();
        assert!((total - 6.0).abs() < 1e-9);
        for s in &p.predicted_s {
            assert!((s - 2.0).abs() < 0.15, "balanced prediction: {:?}", p.predicted_s);
        }
    }

    #[test]
    fn degenerate_history_falls_back() {
        let mut m = TaskMapper::new(1);
        // All-idle launch records nothing.
        m.record(0, &[(0, 0), (0, 0)], &[0.0, 0.0], 8e-6);
        let p = m.plan(0, 0, 10, 2);
        assert!(!p.from_history);
        assert_eq!(p.tasks, split_tasks(0, 10, 2));
    }
}
