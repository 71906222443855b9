//! Runtime-sanitizer audits (`SanitizeLevel`): seeded fault injection
//! showing that deliberately wrong multi-GPU consistency metadata — a
//! `localaccess` window that under-declares the read footprint, or a
//! write-miss check the prover supposedly proved away — runs *silently*
//! without the sanitizer and is caught with it.

use acc_compiler::{compile_source, CompileOptions};
use acc_gpusim::Machine;
use acc_kernel_ir::{Buffer, SanitizeKind, Value};
use acc_runtime::{run_program, ExecConfig, RunError, SanitizeLevel};

const N: i32 = 96;

fn run(
    prog: &acc_compiler::CompiledProgram,
    cfg: &ExecConfig,
    a: &[f64],
) -> Result<acc_runtime::RunReport, RunError> {
    let mut m = Machine::supercomputer_node();
    run_program(
        &mut m,
        cfg,
        prog,
        vec![Value::I32(N)],
        vec![Buffer::from_f64(a), Buffer::zeroed(acc_kernel_ir::Ty::F64, N as usize)],
    )
}

fn input() -> Vec<f64> {
    (0..N).map(|i| (i * i % 37) as f64 + 0.25).collect()
}

/// `out[i] = a[i] + a[i+1]`: reads one element past the thread's slot,
/// so `a` needs `right(1)`. `DECLARED` has it; `UNDER_DECLARED` omits it
/// — the wrong annotation every GPU count ≤ the array keeps resident
/// accepts silently.
const STENCIL_DECLARED: &str = "void stencil(int n, double *a, double *out) {\n\
#pragma acc data copyin(a[0:n]) copyout(out[0:n])\n\
{\n\
#pragma acc localaccess(a) stride(1) right(1)\n\
#pragma acc localaccess(out) stride(1)\n\
#pragma acc parallel loop\n\
for (int i = 0; i < n; i++) {\n\
  double r = a[i];\n\
  if (i < n - 1) r = r + a[i+1];\n\
  out[i] = r;\n\
}\n\
}\n\
}";

const STENCIL_UNDER_DECLARED: &str = "void stencil(int n, double *a, double *out) {\n\
#pragma acc data copyin(a[0:n]) copyout(out[0:n])\n\
{\n\
#pragma acc localaccess(a) stride(1)\n\
#pragma acc localaccess(out) stride(1)\n\
#pragma acc parallel loop\n\
for (int i = 0; i < n; i++) {\n\
  double r = a[i];\n\
  if (i < n - 1) r = r + a[i+1];\n\
  out[i] = r;\n\
}\n\
}\n\
}";

fn stencil_reference(a: &[f64]) -> Vec<f64> {
    let n = a.len();
    (0..n)
        .map(|i| if i < n - 1 { a[i] + a[i + 1] } else { a[i] })
        .collect()
}

#[test]
fn full_sanitize_catches_under_declared_localaccess_window() {
    let a = input();
    let prog = compile_source(STENCIL_UNDER_DECLARED, "stencil", &CompileOptions::proposal())
        .unwrap();

    // One GPU keeps the whole array resident, so the unsanitized run
    // accepts the wrong annotation silently — and is even correct.
    let r = run(&prog, &ExecConfig::gpus(1), &a).unwrap();
    assert_eq!(r.arrays[1].to_f64_vec(), stencil_reference(&a));

    // The sanitizer audits each load against the *declared* per-thread
    // window and catches the lie on the same single-GPU run.
    let err = run(&prog, &ExecConfig::gpus(1).sanitize(SanitizeLevel::Full), &a).unwrap_err();
    match err {
        RunError::SanitizeViolation {
            array,
            record,
            hits,
            ..
        } => {
            assert_eq!(array, "a");
            assert_eq!(record.kind, SanitizeKind::LoadOutsideWindow);
            // Thread 0 reads a[1], one past its declared [0, 1) window.
            assert_eq!((record.tid, record.idx, record.window), (0, 1, (0, 1)));
            assert_eq!(hits, (N - 1) as u64, "every non-edge thread violates");
        }
        other => panic!("expected SanitizeViolation, got {other}"),
    }

    // On two GPUs the lie stops being silent even unsanitized — the halo
    // was never materialised, so the boundary read is a hard fault. The
    // sanitizer's value is catching that before the multi-GPU deploy.
    assert!(matches!(
        run(&prog, &ExecConfig::gpus(2), &a),
        Err(RunError::Exec(_))
    ));
}

#[test]
fn full_sanitize_passes_correct_annotations_without_perturbing_results() {
    let a = input();
    let prog = compile_source(STENCIL_DECLARED, "stencil", &CompileOptions::proposal()).unwrap();
    for ngpus in 1..=3 {
        let plain = run(&prog, &ExecConfig::gpus(ngpus), &a).unwrap();
        let audited = run(
            &prog,
            &ExecConfig::gpus(ngpus).sanitize(SanitizeLevel::Full),
            &a,
        )
        .unwrap();
        assert_eq!(audited.arrays[1].to_f64_vec(), stencil_reference(&a));
        // A pure observer: same results, same simulated time.
        assert_eq!(plain.arrays[1].to_f64_vec(), audited.arrays[1].to_f64_vec());
        assert_eq!(plain.profile.time.total(), audited.profile.time.total());
        assert_eq!(audited.trace.counters().sanitize_violations, 0);
    }
}

/// `out[i+1] = 2 a[i]`: the store leaves the thread's own slot, so the
/// prover keeps the write-miss check and the comm phase replays the
/// misses to their owners. `force_elide_checks` fault-injects the wrong
/// verdict (as if the prover had claimed locality).
const SHIFT_STORE: &str = "void shift(int n, double *a, double *out) {\n\
#pragma acc data copyin(a[0:n]) copyout(out[0:n])\n\
{\n\
#pragma acc localaccess(a) stride(1)\n\
#pragma acc localaccess(out) stride(1) right(1)\n\
#pragma acc parallel loop\n\
for (int i = 0; i < n; i++) {\n\
  if (i + 1 < n) out[i+1] = 2.0 * a[i];\n\
}\n\
}\n\
}";

fn shift_reference(a: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; a.len()];
    for i in 0..a.len() - 1 {
        out[i + 1] = 2.0 * a[i];
    }
    out
}

#[test]
fn store_sanitize_catches_fault_injected_elision() {
    let a = input();
    let sound = compile_source(SHIFT_STORE, "shift", &CompileOptions::proposal()).unwrap();
    // The honest program keeps its checked stores and is correct.
    assert!(sound.kernels[0]
        .configs
        .iter()
        .any(|c| c.name == "out" && !c.miss_check_elided));
    for ngpus in 1..=3 {
        let r = run(&sound, &ExecConfig::gpus(ngpus), &a).unwrap();
        assert_eq!(r.arrays[1].to_f64_vec(), shift_reference(&a), "ngpus={ngpus}");
    }

    let mut forged = sound.clone();
    acc_compiler::force_elide_checks(&mut forged);

    // One GPU owns everything: the forged elision is silently fine.
    let r = run(&forged, &ExecConfig::gpus(1), &a).unwrap();
    assert_eq!(r.arrays[1].to_f64_vec(), shift_reference(&a));

    // Two GPUs, unsanitized: the run *succeeds* but the store at the
    // partition boundary lands in the non-owner's replica and is lost —
    // silent corruption, the failure mode the sanitizer exists for.
    let r = run(&forged, &ExecConfig::gpus(2), &a).unwrap();
    assert_ne!(r.arrays[1].to_f64_vec(), shift_reference(&a));

    // Two GPUs, sanitized: caught and attributed.
    let err = run(&forged, &ExecConfig::gpus(2).sanitize(SanitizeLevel::Full), &a)
        .unwrap_err();
    match err {
        RunError::SanitizeViolation { array, record, .. } => {
            assert_eq!(array, "out");
            assert_eq!(record.kind, SanitizeKind::StoreOutsideOwn);
        }
        other => panic!("expected SanitizeViolation, got {other}"),
    }
}
