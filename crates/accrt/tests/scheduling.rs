//! Task-mapper scheduling tests: the splitter invariants both schedules
//! rely on, the bit-identity guarantee of the default `Schedule::Equal`,
//! the cost model's convergence on uniform work, and the idle-GPU edge
//! cases (more GPUs than iterations) in the loader and the
//! communication manager.

use acc_compiler::{compile_source, CompileOptions};
use acc_gpusim::Machine;
use acc_kernel_ir::{Buffer, Ty, Value};
use acc_obs::{Event, TraceLevel};
use acc_runtime::state::{split_tasks, split_tasks_weighted};
use acc_runtime::{run_program, ExecConfig, RunReport, Schedule};
use proptest::prelude::*;
use std::collections::HashMap;

/// A partition of `[lo, hi)` into `n` ranges must be contiguous and
/// monotone, cover exactly `[lo, hi)`, contain no negative-length
/// ranges, and keep every empty range after the last non-empty one
/// (`LaunchPlan::active`: owner routing and the reduction merge tree index active GPUs as a
/// prefix).
fn assert_partition(tasks: &[(i64, i64)], lo: i64, hi: i64, n: usize, what: &str) {
    assert_eq!(tasks.len(), n, "{what}: wrong arity");
    let mut cursor = lo;
    for (g, &(a, b)) in tasks.iter().enumerate() {
        assert!(a <= b, "{what}: negative-length range {g}: ({a}, {b})");
        if a < b {
            assert_eq!(a, cursor, "{what}: gap or overlap before range {g}");
            cursor = b;
        }
    }
    assert_eq!(cursor, hi, "{what}: partition does not reach hi");
    let first_empty = tasks.iter().position(|&(a, b)| a >= b);
    if let Some(k) = first_empty {
        assert!(
            tasks[k..].iter().all(|&(a, b)| a >= b),
            "{what}: empty range at {k} precedes a non-empty one"
        );
    }
}

// ---------------------------------------------------------------------
// Kernels.
// ---------------------------------------------------------------------

/// Uniform per-iteration work, iterated: the cost model has nothing to
/// gain and must converge to (and stay at) the equal division.
const UNIFORM: &str = "void uni(int n, int iters, double *a) {\n\
#pragma acc data copy(a[0:n])\n\
{\n\
int t = 0;\n\
while (t < iters) {\n\
#pragma acc localaccess(a) stride(1)\n\
#pragma acc parallel loop\n\
for (int i = 0; i < n; i++) a[i] = a[i] * 0.5 + 1.0;\n\
t = t + 1;\n\
}\n\
}\n\
}";

/// One kernel touching all three placements: `src` distributed
/// (`localaccess`), `flags` replicated (data-dependent write), `bins`
/// reduction-private. Exercises every loader path at once.
const MIXED: &str = "void mixed(int n, int k, int iters, int *idx, int *keys, double *src, double *flags, double *bins) {\n\
#pragma acc data copyin(idx[0:n], keys[0:n], src[0:n]) copy(flags[0:n], bins[0:k])\n\
{\n\
int t = 0;\n\
while (t < iters) {\n\
#pragma acc localaccess(idx) stride(1)\n\
#pragma acc localaccess(keys) stride(1)\n\
#pragma acc localaccess(src) stride(1)\n\
#pragma acc parallel loop\n\
for (int i = 0; i < n; i++) {\n\
flags[idx[i]] = flags[idx[i]] + src[i];\n\
#pragma acc reductiontoarray(+: bins[k])\n\
bins[keys[i]] += src[i];\n\
}\n\
t = t + 1;\n\
}\n\
}\n\
}";

fn mixed_data(n: usize, k: usize) -> (Vec<i32>, Vec<i32>, Vec<f64>) {
    let idx: Vec<i32> = (0..n)
        .map(|i| ((i as u64).wrapping_mul(2654435761) % n as u64) as i32)
        .collect();
    let keys: Vec<i32> = idx.iter().map(|&v| v % k as i32).collect();
    let src: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64).collect();
    (idx, keys, src)
}

fn run_mixed(ngpus: usize, machine_gpus: usize, n: usize, k: usize, iters: i32, sched: Schedule) -> RunReport {
    let prog = compile_source(MIXED, "mixed", &CompileOptions::proposal()).unwrap();
    let (idx, keys, src) = mixed_data(n, k);
    let mut m = Machine::supercomputer_node_with_gpus(machine_gpus);
    run_program(
        &mut m,
        &ExecConfig::gpus(ngpus).schedule(sched).tracing(TraceLevel::Spans),
        &prog,
        vec![Value::I32(n as i32), Value::I32(k as i32), Value::I32(iters)],
        vec![
            Buffer::from_i32(&idx),
            Buffer::from_i32(&keys),
            Buffer::from_f64(&src),
            Buffer::zeroed(Ty::F64, n),
            Buffer::zeroed(Ty::F64, k),
        ],
    )
    .unwrap()
}

/// Oracle for [`MIXED`].
fn mixed_expect(n: usize, k: usize, iters: i32) -> (Vec<f64>, Vec<f64>) {
    let (idx, keys, src) = mixed_data(n, k);
    let mut flags = vec![0.0f64; n];
    let mut bins = vec![0.0f64; k];
    for _ in 0..iters {
        for i in 0..n {
            flags[idx[i] as usize] += src[i];
            bins[keys[i] as usize] += src[i];
        }
    }
    (flags, bins)
}

// ---------------------------------------------------------------------
// Idle-GPU edge cases (more GPUs than iterations).
// ---------------------------------------------------------------------

/// 4 GPUs, 2 iterations, all three placements: the two idle GPUs must be
/// invisible — no loader decisions, no transfers, no comm rounds, no
/// launch spans — while the active pair still produces correct results.
#[test]
fn four_gpus_two_iterations_keeps_idle_gpus_silent() {
    let (n, k, iters) = (2usize, 2usize, 3i32);
    let r = run_mixed(4, 4, n, k, iters, Schedule::Equal);
    let (eflags, ebins) = mixed_expect(n, k, iters);
    assert_eq!(r.arrays[3].to_f64_vec(), eflags, "flags wrong");
    assert_eq!(r.arrays[4].to_f64_vec(), ebins, "bins wrong");

    for ev in r.trace.events() {
        match ev {
            Event::Loader(d) => {
                assert!(d.gpu < n, "loader decision on idle GPU {}: {d:?}", d.gpu)
            }
            Event::Transfer(t) => {
                for g in [t.src, t.dst].into_iter().flatten() {
                    assert!(g < n, "transfer touches idle GPU {g}: {t:?}");
                }
            }
            Event::Comm(c) => {
                assert!(
                    c.src < n && c.dst < n,
                    "comm round touches idle GPU: {c:?}"
                );
            }
            Event::Launch(l) => {
                assert!(l.gpu < n, "launch span on idle GPU {}: {l:?}", l.gpu)
            }
            _ => {}
        }
    }
    // The idle GPUs also hold no memory at the end of the run.
    for g in 2..4 {
        assert_eq!(r.mem[g].user_peak, 0, "idle GPU {g} allocated user memory");
    }
}

/// The same program must agree with the oracle for every GPU count
/// around the iteration count, under both schedules.
#[test]
fn more_gpus_than_iterations_is_correct_under_both_schedules() {
    let (n, k, iters) = (3usize, 2usize, 2i32);
    let (eflags, ebins) = mixed_expect(n, k, iters);
    for ngpus in 1..=5 {
        for sched in [Schedule::Equal, Schedule::CostModel] {
            let r = run_mixed(ngpus, 5, n, k, iters, sched);
            assert_eq!(r.arrays[3].to_f64_vec(), eflags, "ngpus={ngpus} {sched:?}");
            assert_eq!(r.arrays[4].to_f64_vec(), ebins, "ngpus={ngpus} {sched:?}");
        }
    }
}

// ---------------------------------------------------------------------
// Loader decision accounting.
// ---------------------------------------------------------------------

/// Every launch × kernel array × GPU with a non-empty required range
/// produces exactly one `LoaderDecision` — reuse, peer fill, host load
/// and identity fill included — and GPUs with an empty range produce
/// none, so decisions per (launch, array) always cover a dense GPU
/// prefix.
fn assert_one_decision_per_active_gpu(r: &RunReport, what: &str) {
    let mut per: HashMap<(u64, &str), Vec<usize>> = HashMap::new();
    for ev in r.trace.events() {
        if let Event::Loader(d) = ev {
            per.entry((d.launch, d.array.as_str())).or_default().push(d.gpu);
        }
    }
    assert!(!per.is_empty(), "{what}: no loader decisions at all");
    for ((launch, array), mut gpus) in per {
        gpus.sort_unstable();
        let expect: Vec<usize> = (0..gpus.len()).collect();
        assert_eq!(
            gpus, expect,
            "{what}: launch {launch} array {array}: decisions must be \
             exactly one per active GPU (a dense prefix)"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn split_tasks_invariants(lo in -1000i64..1000, len in 0i64..5000, n in 1usize..=8) {
        let hi = lo + len;
        assert_partition(&split_tasks(lo, hi, n), lo, hi, n, "split_tasks");
    }

    #[test]
    fn split_tasks_weighted_invariants(
        lo in -1000i64..1000,
        len in 0i64..5000,
        n in 1usize..=8,
        seed in 0u64..u64::MAX,
        segs in 1usize..=6,
    ) {
        let hi = lo + len;
        // Random piecewise history over some sub-partition of [lo, hi),
        // with arbitrary non-negative costs (zeros included).
        let mut cuts: Vec<i64> = (0..segs - 1)
            .map(|i| {
                let h = (i as u64 + 1).wrapping_mul(seed | 1).wrapping_mul(0x9e3779b97f4a7c15);
                lo + (h % (len.max(1) as u64)) as i64
            })
            .collect();
        cuts.push(lo);
        cuts.push(hi);
        cuts.sort_unstable();
        let hist: Vec<((i64, i64), f64)> = cuts
            .windows(2)
            .map(|w| {
                let c = ((w[0] as u64 ^ seed).wrapping_mul(0x2545f4914f6cdd1d) % 1000) as f64 / 250.0;
                ((w[0], w[1]), c)
            })
            .collect();
        assert_partition(
            &split_tasks_weighted(lo, hi, n, &hist),
            lo, hi, n,
            "split_tasks_weighted",
        );
    }

    /// A uniform history must reproduce the equal split exactly: the
    /// weighted cut of a constant density lands on the same integer
    /// boundaries as `split_tasks`.
    #[test]
    fn split_tasks_weighted_matches_equal_on_flat_history(
        lo in -1000i64..1000,
        len in 1i64..5000,
        n in 1usize..=8,
    ) {
        let hi = lo + len;
        let hist = vec![((lo, hi), 1.0)];
        let w = split_tasks_weighted(lo, hi, n, &hist);
        let e = split_tasks(lo, hi, n);
        for (g, (a, b)) in w.iter().zip(&e).enumerate() {
            let drift = (a.0 - b.0).abs().max((a.1 - b.1).abs());
            prop_assert!(
                drift <= 1,
                "flat-history cut {g} drifted {drift} elements: weighted {a:?} vs equal {b:?}"
            );
        }
    }

    /// `Schedule::Equal` is the default and must be bit-identical to a
    /// config that never mentions scheduling: same arrays, same scalars,
    /// same simulated times, same event stream, same memory peaks — and
    /// no mapper events anywhere.
    #[test]
    fn equal_schedule_is_bit_identical_to_default(
        n in 2usize..600,
        k in 1usize..16,
        iters in 1i32..4,
        ngpus in 1usize..=3,
    ) {
        let prog = compile_source(MIXED, "mixed", &CompileOptions::proposal()).unwrap();
        let (idx, keys, src) = mixed_data(n, k);
        let scalars = vec![Value::I32(n as i32), Value::I32(k as i32), Value::I32(iters)];
        let arrays = || vec![
            Buffer::from_i32(&idx),
            Buffer::from_i32(&keys),
            Buffer::from_f64(&src),
            Buffer::zeroed(Ty::F64, n),
            Buffer::zeroed(Ty::F64, k),
        ];
        let run = |cfg: ExecConfig| {
            let mut m = Machine::supercomputer_node();
            run_program(&mut m, &cfg, &prog, scalars.clone(), arrays()).unwrap()
        };
        let default = run(ExecConfig::gpus(ngpus).tracing(TraceLevel::Spans));
        let equal = run(
            ExecConfig::gpus(ngpus)
                .schedule(Schedule::Equal)
                .tracing(TraceLevel::Spans),
        );
        for (i, (a, b)) in default.arrays.iter().zip(&equal.arrays).enumerate() {
            prop_assert_eq!(a.bytes(), b.bytes(), "array {} differs", i);
        }
        prop_assert_eq!(&default.locals, &equal.locals);
        prop_assert_eq!(&default.profile.time, &equal.profile.time);
        prop_assert_eq!(default.trace.events(), equal.trace.events());
        for (a, b) in default.mem.iter().zip(&equal.mem) {
            prop_assert_eq!(a.user_peak, b.user_peak);
            prop_assert_eq!(a.system_peak, b.system_peak);
        }
        prop_assert!(
            !default.trace.events().iter().any(|e| matches!(e, Event::Mapper(_))),
            "Schedule::Equal must never consult the mapper"
        );
    }

    /// Loader decision accounting holds on every path: reuse, peer
    /// fill, host load, identity fill, idle GPUs, both schedules.
    #[test]
    fn exactly_one_loader_decision_per_launch_array_active_gpu(
        n in 1usize..400,
        k in 1usize..8,
        iters in 1i32..4,
        ngpus in 1usize..=4,
        sched_pick in 0usize..2,
    ) {
        let sched = if sched_pick == 1 { Schedule::CostModel } else { Schedule::Equal };
        let r = run_mixed(ngpus, 4, n, k, iters, sched);
        assert_one_decision_per_active_gpu(&r, "mixed");
    }
}

// ---------------------------------------------------------------------
// Cost-model convergence.
// ---------------------------------------------------------------------

/// On uniform per-iteration work the cost model has nothing to exploit:
/// after the first (equal) launch its measured densities are flat, so
/// every subsequent cut must sit within a few elements of the equal
/// division.
#[test]
fn cost_model_converges_to_equal_split_on_uniform_work() {
    let n = 30_000i64;
    let iters = 6;
    let prog = compile_source(UNIFORM, "uni", &CompileOptions::proposal()).unwrap();
    let mut m = Machine::supercomputer_node();
    let r = run_program(
        &mut m,
        &ExecConfig::gpus(3)
            .schedule(Schedule::CostModel)
            .tracing(TraceLevel::Spans),
        &prog,
        vec![Value::I32(n as i32), Value::I32(iters)],
        vec![Buffer::from_f64(&vec![1.0; n as usize])],
    )
    .unwrap();

    let equal = split_tasks(0, n, 3);
    let decisions: Vec<_> = r
        .trace
        .events()
        .iter()
        .filter_map(|e| match e {
            Event::Mapper(d) => Some(d.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(decisions.len(), iters as usize, "one decision per launch");
    assert!(!decisions[0].from_history, "first launch has no history");
    // Allow a sliver of drift: measured cost includes the constant
    // launch overhead, and the quantile cut rounds to whole iterations.
    let tol = (n / 100).max(2);
    for d in &decisions[1..] {
        assert!(d.from_history);
        for (g, (w, e)) in d.ranges.iter().zip(&equal).enumerate() {
            let drift = (w.0 - e.0).abs().max((w.1 - e.1).abs());
            assert!(
                drift <= tol,
                "launch {}: GPU {g} range {w:?} drifted {drift} from equal {e:?}",
                d.launch
            );
        }
    }
}
