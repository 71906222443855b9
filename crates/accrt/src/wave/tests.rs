//! The fan-out itself, and the property it exists to keep: a run's
//! arrays, simulated clock, transfer bytes and event stream do not depend
//! on how many host threads carried its waves.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

use acc_compiler::{compile_source, CompileOptions, CompiledProgram};
use acc_gpusim::{Gpu, Machine};
use acc_kernel_ir::{Buffer, Value};

use super::*;
use crate::comm::StagingPool;
use crate::exec::Run;
use crate::program::ProgramState;
use crate::{ExecConfig, RunError, RunReport, SanitizeLevel, TraceLevel};

/// `n` busy GPUs, each with the unit item.
fn units(n: usize) -> Vec<Option<()>> {
    vec![Some(()); n]
}

#[test]
fn results_come_back_by_gpu_index_each_item_once() {
    for workers in [1, 2, 3, 8, 64] {
        let mut m = Machine::cluster(8);
        let visits = AtomicUsize::new(0);
        // GPUs 2 and 5 are idle: no call, no result.
        let items = (0..8).map(|g| (g != 2 && g != 5).then_some(10 * g));
        let out = for_each_gpu(workers, &mut m.gpus, items.collect(), |gpu, item| {
            visits.fetch_add(1, Ordering::Relaxed);
            (gpu.id, item)
        });
        let want: Vec<_> = (0..8)
            .map(|g| (g != 2 && g != 5).then_some((g, 10 * g)))
            .collect();
        assert_eq!(out, want, "workers = {workers}");
        assert_eq!(visits.load(Ordering::Relaxed), 6, "workers = {workers}");
    }
}

#[test]
fn completion_order_does_not_leak_into_the_result() {
    // Every item waits for its neighbour, so the two workers each take
    // one of (0, 1), then one of (2, 3), …: neither holds a run of
    // consecutive GPUs, and joining their lists in arrival order would
    // show.
    let pair = Barrier::new(2);
    let mut m = Machine::cluster(8);
    let out = for_each_gpu(2, &mut m.gpus, units(8), |gpu, ()| {
        pair.wait();
        gpu.id
    });
    assert_eq!(out, (0..8).map(Some).collect::<Vec<_>>());
}

#[test]
fn one_worker_or_one_busy_gpu_stays_on_the_calling_thread() {
    let me = std::thread::current().id();
    let here = |_: &mut Gpu, ()| std::thread::current().id() == me;
    let mut m = Machine::cluster(8);
    let one_worker = for_each_gpu(1, &mut m.gpus, units(8), here);
    assert_eq!(one_worker, vec![Some(true); 8]);
    let mut one_busy = vec![None; 8];
    one_busy[6] = Some(());
    let out = for_each_gpu(8, &mut m.gpus, one_busy, here);
    assert_eq!(out[6], Some(true));
    assert_eq!(out.iter().flatten().count(), 1);
}

#[test]
fn first_error_is_the_lowest_failing_gpu() {
    for workers in [1, 2, 8] {
        let mut m = Machine::cluster(8);
        let out = for_each_gpu(workers, &mut m.gpus, units(8), |gpu, ()| {
            if gpu.id == 2 || gpu.id == 5 {
                Err(gpu.id)
            } else {
                Ok(())
            }
        });
        let first: Result<(), usize> = out.into_iter().flatten().collect();
        assert_eq!(first, Err(2), "workers = {workers}");
    }
}

#[test]
fn empty_and_short_waves() {
    let mut m = Machine::cluster(8);
    let none = for_each_gpu(4, &mut m.gpus[..0], units(0), |gpu, ()| gpu.id);
    assert!(none.is_empty());
    // Fewer GPUs than workers: every GPU still runs exactly once.
    let two = for_each_gpu(16, &mut m.gpus[..2], units(2), |gpu, ()| gpu.id);
    assert_eq!(two, vec![Some(0), Some(1)]);
}

#[test]
fn a_worker_panic_resumes_with_its_own_payload() {
    for workers in [1, 4] {
        let caught = std::panic::catch_unwind(|| {
            let mut m = Machine::cluster(8);
            for_each_gpu(workers, &mut m.gpus, units(8), |gpu, ()| {
                if gpu.id == 3 {
                    std::panic::panic_any(gpu.id);
                }
            })
        });
        let payload = caught
            .err()
            .and_then(|p| p.downcast_ref::<usize>().copied());
        assert_eq!(payload, Some(3), "workers = {workers}");
    }
}

/// PAGERANK (the `acc_apps` source): `msg` is replicated and written by
/// every GPU (replica sync), `newrank` is a `reductiontoarray` target
/// (reduction tree).
const PAGERANK: &str = r#"
void pagerank(int n, int nnz, int iters, int *row_ptr, int *col_idx,
              double *outdeg_inv, double *rank, double *newrank, double *msg) {
#pragma acc data copyin(row_ptr[0:n+1], col_idx[0:nnz], outdeg_inv[0:n], newrank[0:n], msg[0:nnz]) copy(rank[0:n])
{
  int it = 0;
  while (it < iters) {
#pragma acc localaccess(row_ptr) stride(1) right(1)
#pragma acc localaccess(outdeg_inv) stride(1)
#pragma acc localaccess(rank) stride(1)
#pragma acc parallel loop
    for (int i = 0; i < n; i++) {
      double contrib = rank[i] * outdeg_inv[i];
      for (int k = row_ptr[i]; k < row_ptr[i + 1]; k = k + 1) msg[k] = contrib;
    }
#pragma acc localaccess(newrank) stride(1)
#pragma acc parallel loop
    for (int i = 0; i < n; i++) newrank[i] = 0.0;
#pragma acc localaccess(col_idx) stride(1)
#pragma acc localaccess(msg) stride(1)
#pragma acc parallel loop
    for (int k = 0; k < nnz; k++) {
#pragma acc reductiontoarray(+: newrank)
      newrank[col_idx[k]] = newrank[col_idx[k]] + msg[k];
    }
#pragma acc localaccess(rank) stride(1)
#pragma acc localaccess(newrank) stride(1)
#pragma acc parallel loop
    for (int i = 0; i < n; i++) rank[i] = 0.15 / (double)n + 0.85 * newrank[i];
    it = it + 1;
  }
}
}
"#;

/// BFS (the `acc_apps` source): irregular writes to the replicated
/// `levels` plus a scalar reduction, relaunched until no level changes.
const BFS: &str = r#"
void bfs(int nedges, int nnodes, int maxlevel, int changed, int *src, int *dst, int *levels) {
#pragma acc data copyin(src[0:nedges], dst[0:nedges]) copy(levels[0:nnodes])
{
  int level = 0;
  changed = 1;
  while (changed > 0 && level < maxlevel) {
    changed = 0;
#pragma acc localaccess(src) stride(1)
#pragma acc localaccess(dst) stride(1)
#pragma acc parallel loop reduction(+:changed)
    for (int e = 0; e < nedges; e++) {
      int u = src[e];
      if (levels[u] == level) {
        int v = dst[e];
        if (levels[v] < 0) { levels[v] = level + 1; changed += 1; }
      }
    }
    level = level + 1;
  }
}
}
"#;

/// A rotated copy between distributed arrays: every store past a
/// partition's end is a buffered write miss, replayed on its owner.
const SHIFT: &str = r#"
void shift(int n, int off, double *src, double *dst) {
#pragma acc data copyin(src[0:n]) copy(dst[0:n])
{
#pragma acc localaccess(src) stride(1)
#pragma acc localaccess(dst) stride(1)
#pragma acc parallel loop
  for (int i = 0; i < n; i++) {
    int j = i + off;
    if (j >= n) j = j - n;
    dst[j] = src[i];
  }
}
}
"#;

/// HEAT2D, one sweep each way per iteration: distributed rows with a
/// one-row halo the loader fills from the neighbours (overlapped with
/// the kernel when the knob is on).
const HEAT2D: &str = r#"
void heat2d(int rows, int cols, int iters, double *a, double *b) {
#pragma acc data copy(a[0:rows*cols]) copyin(b[0:rows*cols])
{
  int t = 0;
  while (t < iters) {
#pragma acc localaccess(a) stride(cols) left(cols) right(cols)
#pragma acc localaccess(b) stride(cols)
#pragma acc parallel loop
    for (int i = 0; i < rows; i++) {
      for (int j = 0; j < cols; j++) {
        double c = a[i*cols + j];
        double up = c;
        double dn = c;
        if (i > 0) up = a[(i-1)*cols + j];
        if (i < rows - 1) dn = a[(i+1)*cols + j];
        b[i*cols + j] = c + 0.25 * (up + dn - 2.0 * c);
      }
    }
#pragma acc localaccess(b) stride(cols) left(cols) right(cols)
#pragma acc localaccess(a) stride(cols)
#pragma acc parallel loop
    for (int i = 0; i < rows; i++) {
      for (int j = 0; j < cols; j++) {
        double c = b[i*cols + j];
        double up = c;
        double dn = c;
        if (i > 0) up = b[(i-1)*cols + j];
        if (i < rows - 1) dn = b[(i+1)*cols + j];
        a[i*cols + j] = c + 0.25 * (up + dn - 2.0 * c);
      }
    }
    t = t + 1;
  }
}
}
"#;

struct Case {
    name: &'static str,
    prog: CompiledProgram,
    scalars: Vec<Value>,
    arrays: Vec<Buffer>,
    overlap: bool,
    /// Whether a run on the 8-GPU cluster went through the per-GPU path
    /// the case is here for.
    exercised: fn(&RunReport) -> bool,
}

fn case(
    name: &'static str,
    src: &str,
    scalars: &[i32],
    arrays: Vec<Buffer>,
    exercised: fn(&RunReport) -> bool,
) -> Result<Case, RunError> {
    Ok(Case {
        name,
        prog: compile_source(src, name, &CompileOptions::proposal()).map_err(RunError::Compile)?,
        scalars: scalars.iter().map(|&v| Value::I32(v)).collect(),
        arrays,
        overlap: name == "heat2d",
        exercised,
    })
}

fn cases() -> Result<Vec<Case>, RunError> {
    // Page i links to 1 + i % 3 pages at fixed strides.
    let n = 240usize;
    let mut row_ptr = vec![0i32];
    let mut col_idx = Vec::new();
    for i in 0..n {
        col_idx.extend((0..1 + i % 3).map(|d| ((i * 7 + d * 31 + 1) % n) as i32));
        row_ptr.push(col_idx.len() as i32);
    }
    let nnz = col_idx.len();
    let outdeg_inv: Vec<f64> = (0..n).map(|i| 1.0 / (1 + i % 3) as f64).collect();
    let pagerank = case(
        "pagerank",
        PAGERANK,
        &[n as i32, nnz as i32, 3],
        vec![
            Buffer::from_i32(&row_ptr),
            Buffer::from_i32(&col_idx),
            Buffer::from_f64(&outdeg_inv),
            Buffer::from_f64(&vec![1.0 / n as f64; n]),
            Buffer::from_f64(&vec![0.0; n]),
            Buffer::from_f64(&vec![0.0; nnz]),
        ],
        |r| r.profile.dirty_chunks_sent > 0 && r.trace.counters().collective_rounds > 0,
    )?;

    // Node v reaches 2v+1 and 2v+2 (a binary tree) plus one cross edge.
    let nodes = 255usize;
    let (mut src, mut dst) = (Vec::new(), Vec::new());
    for v in 0..nodes {
        for w in [2 * v + 1, 2 * v + 2, (v * 5 + 3) % nodes] {
            if w < nodes {
                src.push(v as i32);
                dst.push(w as i32);
            }
        }
    }
    let mut levels = vec![-1i32; nodes];
    levels[0] = 0;
    let bfs = case(
        "bfs",
        BFS,
        &[src.len() as i32, nodes as i32, 20, 0],
        vec![
            Buffer::from_i32(&src),
            Buffer::from_i32(&dst),
            Buffer::from_i32(&levels),
        ],
        |r| r.profile.dirty_chunks_sent > 0 && r.profile.kernel_launches > 3,
    )?;

    let ramp: Vec<f64> = (0..400).map(|i| i as f64 * 0.5).collect();
    let shift = case(
        "shift",
        SHIFT,
        &[400, 37],
        vec![Buffer::from_f64(&ramp), Buffer::from_f64(&vec![0.0; 400])],
        |r| r.profile.miss_records > 0,
    )?;

    let (rows, cols) = (48usize, 8usize);
    let plate: Vec<f64> = (0..rows * cols).map(|i| ((i * 13) % 17) as f64).collect();
    let heat2d = case(
        "heat2d",
        HEAT2D,
        &[rows as i32, cols as i32, 2],
        vec![
            Buffer::from_f64(&plate),
            Buffer::from_f64(&vec![0.0; rows * cols]),
        ],
        |r| r.trace.counters().overlap_windows > 0,
    )?;
    Ok(vec![pagerank, bfs, shift, heat2d])
}

/// One run with the wave width forced to `workers` (`None`: whatever
/// this host resolves to, as in production).
fn run(
    case: &Case,
    mut machine: Machine,
    cfg: &ExecConfig,
    workers: Option<usize>,
) -> Result<RunReport, RunError> {
    let mut pool = StagingPool::default();
    let shared = ProgramState::new(case.prog.kernels.len());
    let (scalars, arrays) = (case.scalars.clone(), case.arrays.clone());
    let mut run = Run::new(
        &mut machine,
        cfg,
        &case.prog,
        scalars,
        arrays,
        &shared,
        &mut pool,
    );
    if let Some(w) = workers {
        run.workers = w;
    }
    run.run()
}

/// Everything the worker count must not reach.
fn assert_same_run(r: &RunReport, base: &RunReport, what: &str) {
    let moved = |r: &RunReport| {
        let p = &r.profile;
        (p.h2d_bytes, p.d2h_bytes, p.p2p_bytes)
    };
    for (a, b) in r.arrays.iter().zip(&base.arrays) {
        assert_eq!(a.bytes(), b.bytes(), "{what}: arrays");
    }
    assert_eq!(r.locals, base.locals, "{what}: host scalars");
    assert_eq!(r.profile.time, base.profile.time, "{what}: simulated time");
    assert_eq!(moved(r), moved(base), "{what}: transfer bytes");
    assert_eq!(r.trace.events(), base.trace.events(), "{what}: events");
}

#[test]
fn worker_count_determinism() -> Result<(), RunError> {
    for case in cases()? {
        for (ngpus, machine) in [
            (8, Machine::cluster as fn(usize) -> Machine),
            (3, |_| Machine::supercomputer_node()),
        ] {
            for sanitize in [SanitizeLevel::Off, SanitizeLevel::Full] {
                let cfg = ExecConfig::gpus(ngpus)
                    .sanitize(sanitize)
                    .overlap(case.overlap)
                    .tracing(TraceLevel::Spans);
                let what = format!("{} on {ngpus} GPUs, {sanitize:?}", case.name);
                let base = run(&case, machine(ngpus), &cfg, Some(1))?;
                if ngpus == 8 && sanitize == SanitizeLevel::Off {
                    assert!((case.exercised)(&base), "{what}: mechanism not exercised");
                }
                for workers in [None, Some(2), Some(3), Some(ngpus)] {
                    let r = run(&case, machine(ngpus), &cfg, workers)?;
                    assert_same_run(&r, &base, &format!("{what}, workers {workers:?}"));
                }
            }
        }
    }
    Ok(())
}

/// Colliding scatter into a replicated array: iterations `i`,
/// `i + n/3` and `i + 2n/3` store different values to one element from
/// different GPUs, so replica sync has conflicts to resolve.
const CLASH: &str = r#"
void clash(int n, int *flags) {
#pragma acc data copy(flags[0:n])
{
#pragma acc parallel loop
  for (int i = 0; i < n; i++) flags[(i * 7) % (n / 3)] = i;
}
}
"#;

/// Above one island replica sync relays unions through leaders and the
/// reduction tree has three levels: none of it may see the worker count
/// either.
#[test]
fn worker_count_determinism_above_one_island() -> Result<(), RunError> {
    let clash = case(
        "clash",
        CLASH,
        &[6000],
        vec![Buffer::from_i32(&vec![-1; 6000])],
        |r| r.profile.dirty_chunks_sent > 0,
    )?;
    let pagerank = cases()?.remove(0);
    for case in [clash, pagerank] {
        for ngpus in [16, 64] {
            let cfg = ExecConfig::gpus(ngpus)
                .chunk_bytes(256)
                .tracing(TraceLevel::Spans);
            let what = format!("{} on {ngpus} GPUs", case.name);
            let base = run(&case, Machine::cluster(ngpus), &cfg, Some(1))?;
            assert!((case.exercised)(&base), "{what}: mechanism not exercised");
            for workers in [2, 8] {
                let r = run(&case, Machine::cluster(ngpus), &cfg, Some(workers))?;
                assert_same_run(&r, &base, &format!("{what}, workers {workers}"));
            }
        }
    }
    Ok(())
}
