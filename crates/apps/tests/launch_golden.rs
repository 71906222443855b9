//! Whole-run goldens for the launch path: one line per run carrying the
//! event count, FNV-1a-64 hashes of the full `Spans` event stream, of
//! every output array's bytes and of the host scalar frame, and the bit
//! pattern of the total simulated time. The `App::ALL` lines of
//! `golden/launch_golden.txt` were generated at the commit before a
//! launch became a `LaunchPlan` (`ba73ccd`), the write-miss replay lines
//! (`shift`, `rotate`) at the commit before miss replay was priced as a
//! step list (`8f69fde`). The 14 heat2d / pagerank / heat2d-halo2 lines
//! that moved when a device window stopped evicting into the host copy
//! and the wavefront licence stopped reading the schedule were
//! regenerated on top of `fc05c29`. The four overlap lines that moved
//! when a background fill outlasting its kernels became loader time on
//! the clock (heat2d node3 and cluster16, pagerank node3: five more
//! phase spans each; heat2d-halo2 node3: the stream only, as
//! `OverlapWindow` lost `hidden_s`) were regenerated on top of
//! `9f02190`. The 14 kmeans / pagerank node2 and node3 lines whose
//! stream moved when every reduction-merge hop became a
//! `CollectiveRound` (the event kind no longer depends on the machine)
//! were regenerated on top of `0badfc4`. The four kmeans / pagerank
//! `cluster12` / `cluster24` lines (islands of 8 + 4, a node next to a
//! lone island) were rendered at `17a4a5e`, before the transfer planners
//! moved into `route.rs`. A refactor of `accrt`'s loader /
//! kernel wave / comm manager that moves one byte, one event or one
//! simulated nanosecond shows up here as a diff.

use acc_apps::{app_inputs, App, Scale};
use acc_compiler::{compile_source, CompileOptions, CompiledProgram};
use acc_gpusim::Machine;
use acc_kernel_ir::{Buffer, Value};
use acc_runtime::prelude::*;

const GOLDEN: &str = include_str!("golden/launch_golden.txt");

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
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
    ] {
        out.push((format!("node3 {knob}"), Machine::supercomputer_node(), cfg));
    }
    // 12 GPUs are islands of 8 + 4; 24 put a node next to a lone island.
    let clusters: &[usize] = match app {
        App::Heat2d => {
            let cfg = ExecConfig::gpus(16).overlap(true);
            out.push(("cluster16 overlap".into(), Machine::cluster(16), cfg));
            &[]
        }
        App::Pagerank => &[16, 12, 24],
        App::Kmeans => &[12, 24],
        _ => &[],
    };
    for &n in clusters {
        out.push((format!("cluster{n} Equal"), Machine::cluster(n), ExecConfig::gpus(n)));
    }
    out
}

/// Distributed shifted write: every store past the GPU's own partition
/// is buffered as a write-miss record and replayed on its owner.
const SHIFT: &str = "void shift(int n, int off, double *src, double *dst) {\n\
#pragma acc data copyin(src[0:n]) copy(dst[0:n])\n\
{\n\
#pragma acc localaccess(src) stride(1)\n\
#pragma acc localaccess(dst) stride(1)\n\
#pragma acc parallel loop\n\
for (int i = 0; i < n; i++) {\n\
int j = i + off;\n\
if (j >= n) j = j - n;\n\
dst[j] = src[i];\n\
}\n\
}\n\
}";

/// The i32 counterpart, iterated so the cost model re-cuts the owned
/// ranges between launches: two rotated copies per step.
const ROTATE: &str = "void rotate(int n, int off, int iters, int *a, int *b) {\n\
#pragma acc data copy(a[0:n], b[0:n])\n\
{\n\
int t = 0;\n\
while (t < iters) {\n\
#pragma acc localaccess(a) stride(1)\n\
#pragma acc localaccess(b) stride(1)\n\
#pragma acc parallel loop\n\
for (int i = 0; i < n; i++) b[(i + off) % n] = a[i] + t;\n\
#pragma acc localaccess(a) stride(1)\n\
#pragma acc localaccess(b) stride(1)\n\
#pragma acc parallel loop\n\
for (int i = 0; i < n; i++) a[(i + off) % n] = b[i] * 3;\n\
t = t + 1;\n\
}\n\
}\n\
}";

/// `(label, machine, configuration)` of every write-miss replay run.
fn miss_runs() -> Vec<(String, Machine, ExecConfig)> {
    let mut out = Vec::new();
    for ngpus in 2..=3 {
        for schedule in [Schedule::Equal, Schedule::CostModel] {
            let cfg = ExecConfig::gpus(ngpus).schedule(schedule);
            out.push((
                format!("node{ngpus} {schedule:?}"),
                Machine::supercomputer_node(),
                cfg,
            ));
        }
    }
    out.push((
        "cluster16 Equal".into(),
        Machine::cluster(16),
        ExecConfig::gpus(16),
    ));
    out
}

/// One golden line: run `prog` and fingerprint everything it exposes.
/// A write-miss row that buffered no miss would pin nothing it is for.
fn line(
    (name, label): (&str, &str),
    (mut machine, cfg): (Machine, ExecConfig),
    prog: &CompiledProgram,
    (scalars, arrays): (Vec<Value>, Vec<Buffer>),
    misses: bool,
) -> String {
    let cfg = cfg.tracing(TraceLevel::Spans);
    let r = run_program(&mut machine, &cfg, prog, scalars, arrays)
        .unwrap_or_else(|e| panic!("{name} {label}: {e}"));
    assert!(
        !misses || r.profile.miss_records > 0,
        "{name} {label}: no write miss"
    );
    let events = r.trace.events();
    format!(
        "{name} {label}: events {} stream {:016x} arrays {:016x} locals {:016x} time {:016x}\n",
        events.len(),
        fnv1a(format!("{events:?}").bytes()),
        fnv1a(r.arrays.iter().flat_map(|b| b.bytes().iter().copied())),
        fnv1a(format!("{:?}", r.locals).bytes()),
        r.total_time().to_bits(),
    )
}

fn render() -> String {
    let mut out = String::new();
    for app in App::ALL {
        let prog = compile_source(app.source(), app.function(), &CompileOptions::proposal())
            .expect("app compiles");
        for (label, machine, cfg) in runs(app) {
            let (run, inputs) = ((machine, cfg), app_inputs(app, Scale::Small, 7));
            out.push_str(&line((app.name(), &label), run, &prog, inputs, false));
        }
    }
    let n = 1000;
    let ramp: Vec<f64> = (0..n).map(|i| i as f64 * 0.5).collect();
    let ids: Vec<i32> = (0..n).map(|i| (i * 7919) % 1009).collect();
    let shift = || {
        let scalars = vec![Value::I32(n), Value::I32(137)];
        (
            scalars,
            vec![
                Buffer::from_f64(&ramp),
                Buffer::from_f64(&vec![0.0; n as usize]),
            ],
        )
    };
    let rotate = || {
        let scalars = vec![Value::I32(n), Value::I32(263), Value::I32(3)];
        (
            scalars,
            vec![
                Buffer::from_i32(&ids),
                Buffer::from_i32(&vec![0; n as usize]),
            ],
        )
    };
    let kernels: [(&str, &str, &dyn Fn() -> _); 2] =
        [(SHIFT, "shift", &shift), (ROTATE, "rotate", &rotate)];
    for (src, name, inputs) in kernels {
        let prog = compile_source(src, name, &CompileOptions::proposal()).expect("kernel compiles");
        for (label, machine, cfg) in miss_runs() {
            out.push_str(&line((name, &label), (machine, cfg), &prog, inputs(), true));
        }
    }
    out
}

/// Every run of one program returns the arrays of its first run
/// (`node1 Equal` for the apps, `node2 Equal` for the write-miss
/// kernels): the GPU count and the schedule only cut the loops. KMEANS
/// and PAGERANK are exempt — their `reductiontoarray` merge order
/// follows the topology, so their sums round differently.
fn assert_arrays_ignore_the_cut(rendered: &str) {
    let mut first: Option<(&str, &str)> = None;
    for line in rendered.lines() {
        let name = line.split(' ').next().unwrap_or_default();
        let arrays = line
            .split(" arrays ")
            .nth(1)
            .and_then(|s| s.split(' ').next());
        let arrays = arrays.unwrap_or_default();
        match first {
            Some((n, want)) if n == name => {
                if name != "kmeans" && name != "pagerank" {
                    assert_eq!(
                        arrays, want,
                        "{line}: arrays differ from the first {name} run"
                    );
                }
            }
            _ => first = Some((name, arrays)),
        }
    }
}

#[test]
fn every_run_matches_the_golden() {
    let got = render();
    assert_arrays_ignore_the_cut(&got);
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
