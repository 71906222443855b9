//! Whole-run goldens for the launch path: one line per run carrying the
//! event count, FNV-1a-64 hashes of the full `Spans` event stream, of
//! every output array's bytes and of the host scalar frame, and the bit
//! pattern of the total simulated time. `golden/launch_golden.txt` was
//! generated at the commit before a launch became a `LaunchPlan`
//! (`ba73ccd`); a refactor of `accrt`'s loader / kernel wave / comm
//! manager that moves one byte, one event or one simulated nanosecond
//! shows up here as a diff.

use acc_apps::{bfs, heat2d, heat2d_halo2, kmeans, md, pagerank, spmv, App, Scale};
use acc_compiler::{compile_source, CompileOptions};
use acc_gpusim::Machine;
use acc_kernel_ir::{Buffer, Value};
use acc_runtime::prelude::*;

const GOLDEN: &str = include_str!("golden/launch_golden.txt");

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
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

/// `(label, machine, configuration)` of every run of one app.
fn runs(app: App) -> Vec<(String, Machine, ExecConfig)> {
    let mut out = Vec::new();
    for ngpus in 1..=3 {
        for schedule in [Schedule::Equal, Schedule::CostModel] {
            let cfg = ExecConfig::gpus(ngpus).schedule(schedule);
            out.push((format!("node{ngpus} {schedule:?}"), Machine::supercomputer_node(), cfg));
        }
    }
    let three = ExecConfig::gpus(3);
    for (knob, cfg) in [
        ("overlap", three.clone().overlap(true)),
        ("comm_elision", three.clone().comm_elision(true)),
        ("sanitize_full", three.clone().sanitize(SanitizeLevel::Full)),
        ("serial_comm", three.clone().parallel_comm(false)),
    ] {
        out.push((format!("node3 {knob}"), Machine::supercomputer_node(), cfg));
    }
    match app {
        App::Heat2d => out.push((
            "cluster16 overlap".into(),
            Machine::cluster(16),
            ExecConfig::gpus(16).overlap(true),
        )),
        App::Pagerank => {
            out.push(("cluster16 Equal".into(), Machine::cluster(16), ExecConfig::gpus(16)))
        }
        _ => {}
    }
    out
}

fn render() -> String {
    let mut out = String::new();
    for app in App::ALL {
        let prog = compile_source(app.source(), app.function(), &CompileOptions::proposal())
            .expect("app compiles");
        for (label, mut machine, cfg) in runs(app) {
            let (scalars, arrays) = inputs(app);
            let cfg = cfg.tracing(TraceLevel::Spans);
            let r = run_program(&mut machine, &cfg, &prog, scalars, arrays)
                .unwrap_or_else(|e| panic!("{} {label}: {e}", app.name()));
            let events = r.trace.events();
            out.push_str(&format!(
                "{} {label}: events {} stream {:016x} arrays {:016x} locals {:016x} time {:016x}\n",
                app.name(),
                events.len(),
                fnv1a(format!("{events:?}").bytes()),
                fnv1a(r.arrays.iter().flat_map(|b| b.bytes().iter().copied())),
                fnv1a(format!("{:?}", r.locals).bytes()),
                r.total_time().to_bits(),
            ));
        }
    }
    out
}

#[test]
fn every_run_matches_the_golden() {
    let got = render();
    if got != GOLDEN {
        // Keep what this build produced next to the other test outputs,
        // so a deliberate move is reviewed as a diff of two files.
        let actual = concat!(env!("CARGO_TARGET_TMPDIR"), "/launch_golden.actual.txt");
        std::fs::write(actual, &got).expect("writable target tmpdir");
        for (i, (g, w)) in got.lines().zip(GOLDEN.lines()).enumerate() {
            assert_eq!(g, w, "first difference at golden line {} (see {actual})", i + 1);
        }
        assert_eq!(got.lines().count(), GOLDEN.lines().count(), "line count (see {actual})");
    }
}
