//! Runtime cross-validation of the distance/direction-vector analysis:
//! every `CarriedLocal { distance }` claim is audited by
//! `SanitizeLevel::Full` (each load of the array must stay within the
//! claimed distance of the iteration's own partition window), and a
//! mislabeled distance — injected with
//! [`acc_compiler::force_carried_local`] — is refused with the stable
//! `ACC-R012` code *before* any corrupted array state escapes the
//! devices. The positive half (honest claims run clean and the
//! wavefront the proof licenses is bit-identical to the sequential loop) rides
//! along, plus a property test that affine pairs with a constant
//! distance get exactly `Distance::Exact(d)`.

use acc_compiler::{
    compile_source, CompileOptions, CompiledProgram, DependVerdict, Distance,
};
use acc_gpusim::Machine;
use acc_kernel_ir::{Buffer, SanitizeKind, Value};
use acc_runtime::{run_program, ExecConfig, RunError, RunReport, SanitizeLevel};
use proptest::prelude::*;

const N: i32 = 96;

/// A genuinely distance-{1,2} carried recurrence: `y[i] = y[i-2] + y[i-1]`.
/// Both reads land in rewritten iterations, so the carried interval is
/// `[1, 2]` and the declared `left(2)` halo proves it local (ACC-I003).
const SCAN2: &str = "void scan2(int n, double *y) {\n\
#pragma acc data copy(y[0:n])\n\
{\n\
#pragma acc localaccess(y) stride(1) left(2)\n\
#pragma acc parallel loop\n\
for (int i = 2; i < n; i++) {\n\
  y[i] = y[i - 2] + y[i - 1];\n\
}\n\
}\n\
}";

fn verdict_of(prog: &CompiledProgram, array: &str) -> DependVerdict {
    let arr = prog.array_index(array).unwrap();
    prog.kernels
        .iter()
        .flat_map(|k| &k.configs)
        .find(|c| c.array == arr)
        .expect("array used in a kernel")
        .lint
        .verdict
}

fn input() -> Vec<f64> {
    (0..N).map(|i| ((i * 7 + 3) % 13) as f64 * 0.5).collect()
}

/// The sequential semantics: ascending i, in place.
fn oracle(y: &mut [f64]) {
    for i in 2..y.len() {
        y[i] = y[i - 2] + y[i - 1];
    }
}

fn run(prog: &CompiledProgram, cfg: &ExecConfig, y: &[f64]) -> Result<RunReport, RunError> {
    let mut m = Machine::supercomputer_node();
    run_program(
        &mut m,
        cfg,
        prog,
        vec![Value::I32(N)],
        vec![Buffer::from_f64(y)],
    )
}

#[test]
fn honest_distance_claim_runs_clean_and_wavefront_is_exact() {
    let prog = compile_source(SCAN2, "scan2", &CompileOptions::proposal()).unwrap();
    assert_eq!(
        verdict_of(&prog, "y"),
        DependVerdict::CarriedLocal {
            distance: Distance::Bounded { lo: 1, hi: 2 }
        }
    );
    let y = input();
    let mut expect = y.clone();
    oracle(&mut expect);
    for ngpus in 1..=3 {
        let cfg = ExecConfig::gpus(ngpus).sanitize(SanitizeLevel::Full);
        let r = run(&prog, &cfg, &y).unwrap();
        assert_eq!(r.trace.counters().sanitize_violations, 0, "ngpus={ngpus}");
        // Bit-identical to the sequential recurrence on any GPU count.
        assert_eq!(r.arrays[0].to_f64_vec(), expect, "ngpus={ngpus}");
    }
}

#[test]
fn mislabeled_distance_is_refused_with_acc_r012() {
    let prog = compile_source(SCAN2, "scan2", &CompileOptions::proposal()).unwrap();
    let mut forged = prog.clone();
    acc_compiler::force_carried_local(&mut forged);
    // The injected claim shrank [1, 2] to exactly 1; the kernel's real
    // `y[i-2]` loads are untouched.
    assert_eq!(
        verdict_of(&forged, "y"),
        DependVerdict::CarriedLocal {
            distance: Distance::Exact(1)
        }
    );
    let y = input();
    for ngpus in 2..=3 {
        let cfg = ExecConfig::gpus(ngpus).sanitize(SanitizeLevel::Full);
        let err = run(&forged, &cfg, &y).unwrap_err();
        assert_eq!(err.code(), "ACC-R012", "ngpus={ngpus}");
        match err {
            RunError::CarriedDistanceViolated {
                array,
                record,
                hits,
                ..
            } => {
                assert_eq!(array, "y");
                assert_eq!(record.kind, SanitizeKind::CarriedDistanceEscape);
                // Thread 2's y[0] read is the first distance-2 load.
                assert_eq!((record.tid, record.idx), (2, 0));
                // One escaping load per iteration past the claim.
                assert_eq!(hits, (N - 2) as u64, "ngpus={ngpus}");
            }
            other => panic!("expected CarriedDistanceViolated, got {other}"),
        }
    }
    // The unsanitized run trusts the (wrong) claim, like every audit —
    // the refusal above is what stands between the mislabel and silently
    // corrupted results.
    run(&forged, &ExecConfig::gpus(2), &y).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A first-order affine pair `y[i] = y[i-d] + c` with constant
    /// distance `d` gets *exactly* `Distance::Exact(d)` — not a bound,
    /// not a direction — and the declared `left(d)` halo proves it
    /// local.
    #[test]
    fn constant_distance_pairs_are_exact(d in 1i64..=6, c in -4i32..=4) {
        let src = format!(
            "void f(int n, double *y) {{\n\
             #pragma acc localaccess(y) stride(1) left({d})\n\
             #pragma acc parallel loop copy(y[0:n])\n\
             for (int i = {d}; i < n; i++) y[i] = y[i - {d}] + {c}.0;\n\
             }}"
        );
        let prog = compile_source(&src, "f", &CompileOptions::proposal()).unwrap();
        prop_assert_eq!(
            verdict_of(&prog, "y"),
            DependVerdict::CarriedLocal {
                distance: Distance::Exact(d)
            }
        );
    }
}
