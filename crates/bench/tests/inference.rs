//! Golden and property tests for automatic `localaccess` inference.
//!
//! The whole-program analysis must reproduce every hand-written
//! annotation of the paper's applications *exactly* — same stride, left
//! and right expressions — and consuming the inferred annotations on an
//! annotation-stripped source must produce a bit-identical run (arrays
//! and simulated times). The property test drives randomly generated
//! affine kernels through a fully sanitized run: an inferred window
//! narrower than any loaded address would under-allocate the partition
//! and fail the run.

use acc_apps::{app_inputs, App, Scale};
use acc_bench::strip_localaccess;
use acc_compiler::{compile_source, CompileOptions};
use acc_gpusim::Machine;
use acc_runtime::{run_program, ExecConfig, SanitizeLevel};
use proptest::prelude::*;

fn infer_opts() -> CompileOptions {
    CompileOptions {
        infer_localaccess: true,
        ..CompileOptions::proposal()
    }
}

#[test]
fn golden_inference_reproduces_hand_annotations_exactly() {
    for app in App::ALL {
        let p = compile_source(app.source(), app.function(), &infer_opts()).unwrap();
        for k in &p.kernels {
            for cfg in &k.configs {
                // Every app array is either hand-annotated or genuinely
                // un-inferable; nothing is left for inference to add.
                assert!(
                    !cfg.inferred_used,
                    "{}: kernel `{}` array `{}` should carry a hand annotation",
                    app.name(),
                    k.kernel.name,
                    cfg.name
                );
                match &cfg.localaccess {
                    Some(hand) => assert_eq!(
                        cfg.inferred.as_ref(),
                        Some(hand),
                        "{}: kernel `{}` array `{}`: inference must reproduce \
                         the hand-written localaccess exactly",
                        app.name(),
                        k.kernel.name,
                        cfg.name
                    ),
                    None => assert!(
                        cfg.inferred.is_none(),
                        "{}: kernel `{}` array `{}`: unannotated array suddenly \
                         inferable — annotate the source (ACC-I001)",
                        app.name(),
                        k.kernel.name,
                        cfg.name
                    ),
                }
            }
        }
    }
}

#[test]
fn stripped_sources_with_inference_run_bit_identical() {
    for app in App::ALL {
        let hand = compile_source(app.source(), app.function(), &CompileOptions::proposal())
            .unwrap();
        let stripped = strip_localaccess(app.source());
        assert!(!stripped.contains("#pragma acc localaccess"),
            "{}: strip must remove every annotation line", app.name());
        let inferred = compile_source(&stripped, app.function(), &infer_opts()).unwrap();
        // The inferred program consumed an annotation for exactly the
        // arrays the hand-written source annotates.
        for (kh, ki) in hand.kernels.iter().zip(&inferred.kernels) {
            for (ch, ci) in kh.configs.iter().zip(&ki.configs) {
                assert_eq!(ch.localaccess, ci.localaccess,
                    "{}: kernel `{}` array `{}`", app.name(), kh.kernel.name, ch.name);
                assert_eq!(ch.placement, ci.placement);
                assert_eq!(ci.inferred_used, ch.localaccess.is_some(),
                    "{}: `{}` must come from inference in the stripped build",
                    app.name(), ch.name);
            }
        }
        // And the runs are bit-identical: same arrays, same simulated
        // phase times, same traffic.
        let ngpus = 3;
        let (scalars, arrays) = app_inputs(app, Scale::Small, 42);
        let mut m = Machine::supercomputer_node();
        let rh = run_program(&mut m, &ExecConfig::gpus(ngpus), &hand, scalars.clone(), arrays.clone())
            .unwrap();
        let mut m = Machine::supercomputer_node();
        let ri = run_program(&mut m, &ExecConfig::gpus(ngpus), &inferred, scalars, arrays).unwrap();
        assert_eq!(rh.arrays, ri.arrays, "{}: arrays differ", app.name());
        assert_eq!(rh.profile.time, ri.profile.time, "{}: times differ", app.name());
        assert_eq!(rh.profile.h2d_bytes, ri.profile.h2d_bytes);
        assert_eq!(rh.profile.p2p_bytes, ri.profile.p2p_bytes);
        assert_eq!(
            ri.profile.inferred_annotations as usize,
            inferred
                .kernels
                .iter()
                .flat_map(|k| &k.configs)
                .filter(|c| c.inferred_used)
                .count(),
            "{}: every consumed inference surfaces as an event",
            app.name()
        );
    }
}

/// Render `a*i + b` / `a*i - |b|` without relying on unary-minus parsing.
fn affine_term(a: i64, b: i64) -> String {
    if b >= 0 {
        format!("{a} * i + {b}")
    } else {
        format!("{a} * i - {}", -b)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random two-term affine reads: the inferred window (when the
    /// analysis produces one) must cover every loaded address. The
    /// fully sanitized run rejects any load outside the declared
    /// window, and the replicated (no-inference) build is the oracle.
    #[test]
    fn inferred_windows_cover_every_load(
        a1 in 1i64..4,
        b1 in -1i64..5,
        a2 in 1i64..4,
        b2 in -1i64..5,
        n in 50i64..160,
    ) {
        let m = a1.max(a2) * (n + 1) + 8;
        let src = format!(
            "void f(int n, int m, double *x, double *y) {{\n\
             #pragma acc data copyin(x[0:m]) copy(y[0:n])\n\
             {{\n\
             #pragma acc parallel loop\n\
             for (int i = 1; i < n; i++) y[i] = x[{t1}] + x[{t2}] * 0.5;\n\
             }}\n\
             }}",
            t1 = affine_term(a1, b1),
            t2 = affine_term(a2, b2),
        );
        let x: Vec<f64> = (0..m).map(|i| (i % 31) as f64 - 7.0).collect();
        let run = |opts: &CompileOptions, sanitize| {
            let prog = compile_source(&src, "f", opts)?;
            let mut mach = Machine::supercomputer_node();
            run_program(
                &mut mach,
                &ExecConfig::gpus(3).sanitize(sanitize),
                &prog,
                vec![
                    acc_kernel_ir::Value::I32(n as i32),
                    acc_kernel_ir::Value::I32(m as i32),
                ],
                vec![
                    acc_kernel_ir::Buffer::from_f64(&x),
                    acc_kernel_ir::Buffer::zeroed(acc_kernel_ir::Ty::F64, n as usize),
                ],
            )
            .map_err(|e| e.to_string())
        };
        let reference = run(&CompileOptions::proposal(), SanitizeLevel::Off)
            .expect("replicated reference run");
        // Inference on, fully sanitized: a too-narrow window would fail
        // the run (under-allocated partition / out-of-window load).
        let inferred = run(&infer_opts(), SanitizeLevel::Full)
            .map_err(|e| TestCaseError::fail(format!("sanitized inferred run failed: {e}")))?;
        prop_assert_eq!(&reference.arrays[1], &inferred.arrays[1]);
    }
}
