//! `plan::build` as a pure function: no machine, no run — a compiled
//! kernel (its configuration records mutated at will), a task cut and
//! evaluated inputs go in, and the shape of what comes out is checked
//! against the invariants the loader, the wave and the comm manager rely
//! on, and against the guard ladder `comm_phase` spelled out before the
//! plan existed.

use acc_compiler::analysis::AccessMode;
use acc_compiler::dataflow::{ElideFact, OverlapFact};
use acc_compiler::{compile_source, CompileOptions, CompiledProgram, Placement};
use acc_kernel_ir::{Expr, RmwOp, Value};
use proptest::prelude::*;

use super::*;
use crate::state::{split_tasks, split_tasks_weighted};

/// One kernel over a distributed read (`x`, kbuf 1), a distributed write
/// (`y`), a replicated scatter (`z`) and a reduction destination (`e`).
fn program() -> CompiledProgram {
    let src = "void f(int n, int *m, double *x, double *y, double *z, double *e) {\n\
#pragma acc localaccess(x) stride(1) left(1) right(1)\n\
#pragma acc localaccess(y) stride(1)\n\
#pragma acc parallel loop copyin(m[0:n], x[0:n]) copy(y[0:n], z[0:n], e[0:8])\n\
for (int i = 0; i < n; i++) {\n\
y[i] = x[i];\n\
z[m[i]] = x[i];\n\
#pragma acc reductiontoarray(+: e[8])\n\
e[m[i]] += x[i];\n\
}\n\
}";
    let mut prog = compile_source(src, "f", &CompileOptions::proposal()).unwrap();
    let placements: Vec<_> = prog.kernels[0].configs.iter().map(|c| c.placement.clone()).collect();
    use Placement::*;
    let want = [Replicated, Distributed, Distributed, Replicated, ReductionPrivate(RmwOp::Add)];
    assert_eq!(placements, want, "the translator's verdicts this file builds on");
    // Every buffer gets both facts; whether a plan may act on one is
    // `build`'s decision.
    for kbuf in 0..want.len() {
        let stride = Expr::Imm(Value::I32(1));
        prog.comm_plan.kernels[0][kbuf] = Some(ElideFact { stride, reason: "test".into() });
        prog.overlap_plan.kernels[0][kbuf] = Some(OverlapFact { reason: "test".into() });
    }
    prog
}

fn nonempty(r: &(i64, i64)) -> bool {
    r.0 < r.1
}

proptest! {
    #[test]
    fn a_plan_partitions_covers_and_idles(
        ngpus in 1usize..=64,
        lo in -4i64..=4,
        iters in 0i64..=200,
        // A skewed history (first part `skew` × the cost of the rest)
        // makes the weighted splitter compact empty ranges to the tail;
        // 0 takes the equal splitter.
        history in (0i64..=200, 0u32..=1000),
        localaccess in (1i64..=5, 0i64..=7, 0i64..=7),
        knobs in (0usize..=1, 0usize..=1, 0usize..=1, 0usize..=1),
        // Lengths incl. 0 and shorter than the iteration space.
        lens in proptest::collection::vec(0i64..=400, 5),
        bus_product in 0u64..4096,
    ) {
        let prog = program();
        let ck = &prog.kernels[0];
        let ((cut, skew), (cost_model, sanitize, elision, overlap)) = (history, knobs);
        let hi = lo + iters;
        let tasks = if skew > 0 {
            let cut = lo + cut.min(iters);
            split_tasks_weighted(lo, hi, ngpus, &[((lo, cut), skew as f64), ((cut, hi), 1.0)])
        } else {
            split_tasks(lo, hi, ngpus)
        };
        let sanitize = [SanitizeLevel::Off, SanitizeLevel::Full][sanitize];
        let cfg = ExecConfig::gpus(ngpus)
            .schedule([Schedule::Equal, Schedule::CostModel][cost_model])
            .sanitize(sanitize)
            .comm_elision(elision == 1)
            .overlap(overlap == 1);
        let inputs: Vec<ArrInputs> = ck
            .configs
            .iter()
            .enumerate()
            .map(|(kbuf, ac)| ArrInputs {
                len: if lens[kbuf] % 3 == 0 { 0 } else { lens[kbuf] },
                elem: 8,
                localaccess: matches!(ac.placement, Placement::Distributed)
                    .then_some(localaccess),
                elide_stride: elision_stride(0, kbuf, ck, &prog, &cfg).map(|_| localaccess.0),
            })
            .collect();
        let plan = build(0, ck, &prog, &cfg, tasks.clone(), None, &inputs, bus_product);

        let active = tasks.iter().filter(|t| nonempty(t)).count();
        prop_assert_eq!(plan.active, active);
        prop_assert!(tasks[..active].iter().all(nonempty), "{tasks:?}: the active GPUs are a prefix");
        prop_assert_eq!(plan.sanitize.len(), if sanitize == SanitizeLevel::Off { 0 } else { 5 });
        for (ap, inp) in plan.arrays.iter().zip(&inputs) {
            let n = inp.len;
            for g in 0..ngpus {
                let (req, own, win) = (ap.required[g], ap.own[g], ap.window[g]);
                if g >= active {
                    prop_assert_eq!((req, own, win), ((0, 0), (0, 0), (0, 0)), "idle GPU {}", g);
                    continue;
                }
                for r in [req, own, win] {
                    prop_assert!(0 <= r.0 && r.0 <= r.1 && r.1 <= n, "{r:?} outside [0, {n}]");
                }
                for part in [req, own].into_iter().filter(nonempty) {
                    prop_assert!(win.0 <= part.0 && part.1 <= win.1, "{win:?} misses {part:?}");
                }
                if inp.localaccess.is_none() {
                    // Whole exactly on active GPUs; a zero-length array
                    // has no holder (the reduction merge's `k == 0` exit).
                    prop_assert_eq!((req, own, win), ((0, n), (0, n), (0, n)));
                    prop_assert_eq!(nonempty(&win), n > 0);
                }
            }
            if inp.localaccess.is_some() && active > 0 {
                let own = &ap.own[..active];
                prop_assert_eq!((own[0].0, own[active - 1].1), (0, n), "{own:?} covers [0, {n})");
                prop_assert!(own.windows(2).all(|w| w[0].1 == w[1].0), "{own:?} has a gap");
                for idx in -1..=n {
                    let scan = own.iter().position(|r| r.0 <= idx && idx < r.1);
                    prop_assert_eq!(owner_of(own, idx), scan, "owner of {} in {:?}", idx, own);
                }
            }
            prop_assert!(!(ap.needs_dirty || ap.needs_miss_buf) || ngpus > 1);
            prop_assert!(!ap.overlap || cfg.overlap);
            if let CommStep::Elide(claims) = &ap.comm {
                prop_assert!(cfg.schedule == Schedule::Equal && cfg.comm_elision && ap.needs_dirty);
                prop_assert_eq!(claims.len(), ngpus);
                prop_assert!(claims.iter().all(|c| 0 <= c.0 && c.0 <= c.1 && c.1 <= n), "{claims:?}");
            }
        }
    }
}

/// The comm phase's guard ladder as `comm.rs` spelled it before the plan
/// existed, `elide` being "a fact was materialised for this launch".
fn ladder(p: &Placement, writes: bool, ngpus: usize, elide: bool) -> &'static str {
    match p {
        Placement::Replicated if writes && ngpus > 1 && elide => "elide",
        Placement::Replicated if writes && ngpus > 1 => "sync",
        Placement::Replicated | Placement::Distributed if writes && ngpus == 1 => "none",
        Placement::Distributed if writes => "replay",
        Placement::ReductionPrivate(_) if ngpus > 1 => "merge",
        Placement::ReductionPrivate(_) => "clear",
        _ => "none",
    }
}

#[test]
fn comm_step_equals_the_guard_ladder() {
    let base = program();
    let modes = [AccessMode::Read, AccessMode::Write, AccessMode::ReadWrite];
    let placements =
        [Placement::Replicated, Placement::Distributed, Placement::ReductionPrivate(RmwOp::Max)];
    let levels = [SanitizeLevel::Off, SanitizeLevel::Full];
    let mut seen = std::collections::BTreeSet::new();
    for (placement, mode) in placements.iter().flat_map(|p| modes.iter().map(move |m| (p, *m))) {
        for (ngpus, knob, fact, instrument) in
            [1, 2].into_iter().flat_map(|n| (0..8).map(move |b| (n, b & 1 > 0, b & 2 > 0, b & 4 > 0)))
        {
            for (sanitize, schedule) in
                levels.iter().flat_map(|l| [(*l, Schedule::Equal), (*l, Schedule::CostModel)])
            {
                let mut prog = base.clone();
                prog.options.instrument = instrument;
                if !fact {
                    prog.comm_plan.kernels[0][3] = None;
                }
                let ac = &mut prog.kernels[0].configs[3];
                (ac.placement, ac.mode) = (placement.clone(), mode);
                let cfg = ExecConfig::gpus(ngpus)
                    .sanitize(sanitize)
                    .schedule(schedule)
                    .comm_elision(knob);
                let ck = &prog.kernels[0];
                let inputs: Vec<ArrInputs> = (0..ck.configs.len())
                    .map(|kbuf| ArrInputs {
                        len: 40,
                        elem: 8,
                        localaccess: matches!(ck.configs[kbuf].placement, Placement::Distributed)
                            .then_some((1, 0, 0)),
                        elide_stride: elision_stride(0, kbuf, ck, &prog, &cfg).map(|_| 1),
                    })
                    .collect();
                let tasks = split_tasks(0, 40, ngpus);
                let plan = build(0, ck, &prog, &cfg, tasks, None, &inputs, 0);
                let writes = mode.writes();
                // When the runtime materialised a claim before the plan.
                let elide = knob
                    && fact
                    && schedule == Schedule::Equal
                    && (instrument && ngpus > 1 && writes && *placement == Placement::Replicated);
                let got = match &plan.arrays[3].comm {
                    CommStep::None => "none",
                    CommStep::Sync => "sync",
                    CommStep::Elide(_) => "elide",
                    CommStep::ReplayMisses => "replay",
                    CommStep::MergeReduction(RmwOp::Max) => "merge",
                    CommStep::MergeReduction(_) => "merge with the wrong operator",
                    CommStep::ClearPrivate => "clear",
                };
                let what = format!("{placement:?} {mode:?} x{ngpus} knob={knob} fact={fact} {sanitize:?} {schedule:?}");
                assert_eq!(got, ladder(placement, writes, ngpus, elide), "{what}");
                seen.insert(got);
            }
        }
    }
    assert_eq!(seen.len(), 6, "every step was exercised: {seen:?}");
}
