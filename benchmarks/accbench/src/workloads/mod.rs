//! The six workloads. Each is chosen so that one layer of the pipeline
//! does most of the work; `benchmarks/README.md` records why.

use std::time::{Duration, Instant};

use crate::spans::Spans;
use crate::spec::Metrics;
use crate::stats;

pub mod app;
pub mod compile;
pub mod serve;

/// Input sizes: the measured ones, or the minimum that still drives every
/// code path (the smoke test).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub seed: u64,
    /// Length of the measuring window; 0 measures each loop's minimum
    /// number of operations and stops.
    pub seconds: f64,
    /// Off: the end-to-end metrics. On: the per-layer metrics and spans.
    pub trace: bool,
    pub size: Size,
}

impl RunArgs {
    /// Set the workload up several times, so `setup_s` is not one draw;
    /// returns the last set-up and the seconds each took. Each
    /// earlier set-up is retired *before* the next starts, or two of them
    /// are resident at once and `peak_rss_mb` reports the benchmark, not
    /// the workload.
    fn set_up<T>(
        &self,
        mut setup: impl FnMut() -> Result<T, String>,
        mut retire: impl FnMut(T) -> Result<(), String>,
    ) -> Result<(T, Vec<f64>), String> {
        let reps = match self.size {
            Size::Full => 5,
            Size::Smoke => 1,
        };
        let mut seconds = Vec::with_capacity(reps);
        let mut last = None;
        for _ in 0..reps {
            if let Some(prev) = last.take() {
                retire(prev)?;
            }
            let (ready, t) = timed(&mut setup);
            last = Some(ready?);
            seconds.push(t);
        }
        Ok((last.expect("at least one set-up"), seconds))
    }

    /// The span recorder of a run: live for the traced pass, inert
    /// otherwise, because end-to-end numbers are measured with tracing off.
    fn spans(&self, epoch: Instant) -> Spans {
        if self.trace {
            Spans::new(epoch)
        } else {
            Spans::disabled()
        }
    }
}

#[derive(Debug)]
pub struct RunOutput {
    /// Operations timed, and how many of them errored, were refused or
    /// failed the oracle.
    pub attempted: u64,
    pub failed: u64,
    /// Every output checked was right and set-up's determinism check held.
    pub correct: bool,
    pub metrics: Metrics,
    /// The traced run's host-wall spans.
    pub spans: Option<Spans>,
}

impl RunOutput {
    fn new(correct: bool) -> RunOutput {
        RunOutput {
            attempted: 0,
            failed: 0,
            correct,
            metrics: Metrics::default(),
            spans: None,
        }
    }
}

pub fn run(workload: &str, args: &RunArgs) -> Result<RunOutput, String> {
    match workload {
        "compile-cold" => compile::run(args),
        "serve-mix" => serve::run(args),
        name => match app::Kind::from_name(name) {
            Some(kind) => app::run(kind, args),
            None => Err(format!("unknown workload {name:?}")),
        },
    }
}

/// A share of the measuring window: loops run until their slice is used
/// up, but never fewer than their minimum number of operations.
#[derive(Debug, Clone, Copy)]
struct Window {
    deadline: Instant,
}

impl Window {
    fn of(seconds: f64) -> Window {
        Window {
            deadline: Instant::now() + Duration::from_secs_f64(seconds.max(0.0)),
        }
    }

    fn open(&self, done: usize, min_ops: usize) -> bool {
        done < min_ops || Instant::now() < self.deadline
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Time `f` once, in seconds.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, secs(t0.elapsed()))
}

/// Median seconds of `reps` calls of `f` — for layer functions that take
/// microseconds, where one call is below the clock's useful resolution
/// only in the sense of noise, not of ticks.
fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1)).map(|_| timed(&mut f).1).collect();
    stats::median(&samples).unwrap_or(0.0)
}

/// The end-to-end metrics every workload reports the same way. The samples
/// of `op_walls` time the same work, and so do those of `setups`; see
/// [`stats::lower_decile`] for why that quantile and not the median.
fn put_end_to_end(m: &mut Metrics, op_walls: &[f64], setups: &[f64]) {
    m.put("wall_s", stats::lower_decile(op_walls).unwrap_or(0.0));
    m.put("setup_s", stats::lower_decile(setups).unwrap_or(0.0));
    m.put("peak_rss_mb", crate::util::peak_rss_mb().unwrap_or(0.0));
}
