//! Every shipped kernel types for the register tier, and a run on it is
//! indistinguishable from a run on the stack bytecode.
//!
//! The runtime refuses a program with a kernel `regvm::compile` cannot
//! type, so a typing rule (or a translator change) that rejected a
//! shipped kernel would break that app outright; the first test names
//! the kernel, across every preset and every example source. The second
//! test is the apps-level form of `kernel-ir`'s differential suites: the
//! default configuration against `KernelVm::Bytecode` on everything a
//! `RunReport` carries.

use acc_apps::{bfs, heat2d, heat2d_halo2, kmeans, md, pagerank, spmv, App, Scale};
use acc_compiler::{compile, compile_source, CompileOptions};
use acc_gpusim::Machine;
use acc_kernel_ir::{regvm, Buffer, Value};
use acc_runtime::prelude::*;
use acc_runtime::KernelVm;

mod common;
use common::embedded_sources;

#[test]
fn every_shipped_kernel_takes_the_register_tier() {
    let presets = [
        ("proposal", CompileOptions::proposal()),
        ("pgi_like", CompileOptions::pgi_like()),
        ("cuda_expert", CompileOptions::cuda_expert()),
    ];
    let mut sources: Vec<(String, String)> = App::ALL
        .iter()
        .map(|a| (a.name().to_string(), a.source().to_string()))
        .collect();
    let examples = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples");
    for entry in std::fs::read_dir(examples).expect("examples directory") {
        let path = entry.expect("directory entry").path();
        if path.extension().is_some_and(|x| x == "rs") {
            let content = std::fs::read_to_string(&path).expect("readable example");
            for src in embedded_sources(&content) {
                sources.push((path.display().to_string(), src));
            }
        }
    }
    assert!(sources.len() > App::ALL.len(), "no example source found");
    let mut kernels = 0;
    for (name, src) in &sources {
        let typed = acc_minic::frontend(src).expect("shipped source passes the frontend");
        for (preset, options) in &presets {
            for f in &typed.functions {
                let prog = compile(&typed, &f.name, options).expect("shipped source compiles");
                for ck in &prog.kernels {
                    kernels += 1;
                    if let Err(e) = regvm::compile(&ck.kernel) {
                        panic!("{name} ({preset}): {e}");
                    }
                }
            }
        }
    }
    assert!(kernels >= 36, "only {kernels} kernels seen");
}

fn inputs(app: App) -> (Vec<Value>, Vec<Buffer>) {
    let (scale, seed) = (Scale::Small, 7);
    match app {
        App::Md => md::inputs(&md::generate(&scale.md(), seed)),
        App::Kmeans => kmeans::inputs(&kmeans::generate(&scale.kmeans(), seed)),
        App::Bfs => bfs::inputs(&bfs::generate(&scale.bfs(), seed)),
        App::Spmv => spmv::inputs(&spmv::generate(&scale.spmv(), seed)),
        App::Heat2d => heat2d::inputs(&heat2d::generate(&scale.heat2d(), seed)),
        App::Pagerank => pagerank::inputs(&pagerank::generate(&scale.pagerank(), seed)),
        App::Heat2dHalo2 => {
            heat2d_halo2::inputs(&heat2d_halo2::generate(&scale.heat2d_halo2(), seed))
        }
    }
}

#[test]
fn default_tier_equals_the_bytecode_on_every_app() {
    for app in App::ALL {
        let prog = compile_source(app.source(), app.function(), &CompileOptions::proposal())
            .expect("app compiles");
        for ngpus in 1..=3 {
            for sanitize in [SanitizeLevel::Off, SanitizeLevel::Full] {
                let what = format!("{} on {ngpus} GPUs, {sanitize:?}", app.name());
                let base = ExecConfig::gpus(ngpus)
                    .sanitize(sanitize)
                    .tracing(TraceLevel::Spans);
                assert_eq!(base.kernel_vm, KernelVm::Register, "the default tier");
                let run = |cfg: &ExecConfig| {
                    let (scalars, arrays) = inputs(app);
                    let mut machine = Machine::supercomputer_node();
                    run_program(&mut machine, cfg, &prog, scalars, arrays)
                        .unwrap_or_else(|e| panic!("{what}: {e}"))
                };
                let reg = run(&base);
                let stack = run(&base.clone().kernel_vm(KernelVm::Bytecode));
                assert_eq!(reg.arrays.len(), stack.arrays.len());
                for (a, b) in reg.arrays.iter().zip(&stack.arrays) {
                    assert_eq!(a.bytes(), b.bytes(), "{what}: output arrays");
                }
                assert_eq!(reg.locals, stack.locals, "{what}: host scalars");
                let (p, q) = (&reg.profile, &stack.profile);
                assert_eq!(p.time, q.time, "{what}: simulated time");
                assert_eq!(p.kernel_counters, q.kernel_counters, "{what}: counters");
                assert_eq!(
                    (p.h2d_bytes, p.d2h_bytes, p.p2p_bytes, p.miss_records),
                    (q.h2d_bytes, q.d2h_bytes, q.p2p_bytes, q.miss_records),
                    "{what}: traffic"
                );
                assert_eq!(
                    reg.trace.events(),
                    stack.trace.events(),
                    "{what}: event stream"
                );
            }
        }
    }
}
