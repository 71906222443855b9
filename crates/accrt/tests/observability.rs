//! Invariants of the structured observability subsystem: the typed event
//! stream is the single source of truth for the profiler, per-GPU
//! timelines are physically consistent, the recorder agrees with the bus
//! it claims to describe, and the Chrome trace export is valid JSON that
//! survives a round trip through the in-repo parser.

use acc_compiler::{compile_source, CompileOptions};
use acc_gpusim::{Endpoint, Machine};
use acc_kernel_ir::{Buffer, Value};
use acc_obs::{json, Event, PhaseKind, TraceLevel, TransferKind};
use acc_runtime::prelude::*;

/// Iterative scatter-increment: `flags` is replicated (no `localaccess`),
/// so every launch dirties chunks on every GPU and the communication
/// manager runs replica-sync rounds over the P2P links; the `while` loop
/// relaunches the kernel so the loader faces reuse decisions.
const SCATTER: &str = "void scatter(int n, int iters, int *idx, int *flags) {\n\
#pragma acc data copyin(idx[0:n]) copy(flags[0:n])\n\
{\n\
int t = 0;\n\
while (t < iters) {\n\
#pragma acc localaccess(idx) stride(1)\n\
#pragma acc parallel loop\n\
for (int i = 0; i < n; i++) flags[idx[i]] = flags[idx[i]] + 1;\n\
t = t + 1;\n\
}\n\
}\n\
}";

fn scatter_inputs(n: usize) -> (Vec<Value>, Vec<Buffer>) {
    let idx: Vec<i32> = (0..n)
        .map(|i| ((i as u64).wrapping_mul(2654435761) % n as u64) as i32)
        .collect();
    (
        vec![Value::I32(n as i32), Value::I32(3)],
        vec![
            Buffer::from_i32(&idx),
            Buffer::zeroed(acc_kernel_ir::Ty::I32, n),
        ],
    )
}

fn run_scatter(level: TraceLevel) -> (RunReport, Machine) {
    let prog = compile_source(SCATTER, "scatter", &CompileOptions::proposal()).unwrap();
    let mut m = Machine::supercomputer_node(); // 3 GPUs
    let (scalars, arrays) = scatter_inputs(30_000);
    let r = run_program(
        &mut m,
        &ExecConfig::gpus(3).tracing(level),
        &prog,
        scalars,
        arrays,
    )
    .unwrap();
    (r, m)
}

/// The recorder's phase totals equal the profile's `TimeBreakdown`
/// (which `Profiler::from_trace` takes from the same stream) — and,
/// independently, re-summing the retained `Phase` spans reproduces each
/// bucket within 1e-9.
#[test]
fn phase_events_reproduce_time_breakdown() {
    let (r, _) = run_scatter(TraceLevel::Spans);
    let t = r.trace.totals();
    let time = r.profile.time;
    assert!((t.kernels - time.kernels).abs() < 1e-9);
    assert!((t.cpu_gpu - time.cpu_gpu).abs() < 1e-9);
    assert!((t.gpu_gpu - time.gpu_gpu).abs() < 1e-9);
    assert!((t.host - time.host).abs() < 1e-9);
    assert!((t.total() - time.total()).abs() < 1e-9);

    let (mut kernels, mut cpu_gpu, mut gpu_gpu, mut host) = (0.0, 0.0, 0.0, 0.0);
    for ev in r.trace.events() {
        if let Event::Phase(p) = ev {
            let dt = p.end - p.start;
            match p.phase {
                PhaseKind::Kernel => kernels += dt,
                PhaseKind::Loader | PhaseKind::Data => cpu_gpu += dt,
                PhaseKind::Comm => gpu_gpu += dt,
                PhaseKind::Host => host += dt,
            }
        }
    }
    assert!((kernels - time.kernels).abs() < 1e-9, "kernels {kernels} vs {}", time.kernels);
    assert!((cpu_gpu - time.cpu_gpu).abs() < 1e-9, "cpu_gpu {cpu_gpu} vs {}", time.cpu_gpu);
    assert!((gpu_gpu - time.gpu_gpu).abs() < 1e-9, "gpu_gpu {gpu_gpu} vs {}", time.gpu_gpu);
    assert!((host - time.host).abs() < 1e-9, "host {host} vs {}", time.host);
}

/// Spans attributed to one GPU (kernel executions and the transfers
/// occupying its PCIe link) never overlap: the simulated machine runs
/// one thing at a time per GPU and serializes each link.
#[test]
fn per_gpu_timelines_never_overlap() {
    let (r, _) = run_scatter(TraceLevel::Spans);
    let gpus = r.trace.gpus();
    assert_eq!(gpus, vec![0, 1, 2], "all three GPUs appear in the trace");
    let mut checked = 0usize;
    for g in gpus {
        let tl = r.trace.gpu_timeline(g);
        assert!(!tl.is_empty(), "GPU {g} has spans");
        for w in tl.windows(2) {
            let (_, prev_end, ref prev_label) = w[0];
            let (next_start, _, ref next_label) = w[1];
            assert!(
                next_start >= prev_end - 1e-12,
                "GPU {g}: {next_label:?} starts at {next_start} before {prev_label:?} ends at {prev_end}"
            );
            checked += 1;
        }
    }
    assert!(checked > 10, "enough adjacent pairs to make the check meaningful");
}

/// At `Spans` level the bus keeps its own journal; every journalled
/// transfer must correspond 1:1, in order, to a `TransferSpan` with the
/// same endpoints, bytes and scheduled interval.
#[test]
fn recorder_transfers_match_bus_journal() {
    let (r, m) = run_scatter(TraceLevel::Spans);
    let journal = m.bus.journal().expect("journal enabled at Spans level");
    let spans: Vec<_> = r
        .trace
        .events()
        .iter()
        .filter_map(|e| match e {
            Event::Transfer(t) => Some(t),
            _ => None,
        })
        .collect();
    assert_eq!(spans.len(), journal.len(), "one span per journalled transfer");
    for (s, j) in spans.iter().zip(journal) {
        let (src, dst) = match s.kind {
            TransferKind::H2D => (Endpoint::Host, Endpoint::Gpu(s.dst.unwrap())),
            TransferKind::D2H => (Endpoint::Gpu(s.src.unwrap()), Endpoint::Host),
            TransferKind::P2P => (Endpoint::Gpu(s.src.unwrap()), Endpoint::Gpu(s.dst.unwrap())),
        };
        assert_eq!((src, dst, s.bytes), (j.src, j.dst, j.bytes));
        assert!((s.start - j.start).abs() < 1e-12);
        assert!((s.end - j.end).abs() < 1e-12);
    }
    // And the byte counters agree with the bus's own accounting.
    let c = r.trace.counters();
    assert_eq!(c.h2d_bytes, m.bus.h2d_bytes);
    assert_eq!(c.d2h_bytes, m.bus.d2h_bytes);
    assert_eq!(c.p2p_bytes, m.bus.p2p_bytes);
    assert!(c.p2p_bytes > 0, "replica sync actually moved bytes");
}

/// The Chrome trace export parses as JSON, has the documented shape, and
/// survives a serialize → parse → serialize round trip unchanged.
#[test]
fn chrome_trace_round_trips() {
    let (r, _) = run_scatter(TraceLevel::Spans);
    let text = r.trace.chrome_trace();
    let v = json::parse(&text).expect("chrome trace is valid JSON");
    let events = v
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .expect("traceEvents array");
    assert!(!events.is_empty());
    for e in events {
        let ph = e.get("ph").and_then(|p| p.as_str()).expect("ph field");
        assert!(matches!(ph, "X" | "M" | "i"), "known event type, got {ph}");
        if ph == "X" {
            let ts = e.get("ts").and_then(|t| t.as_f64()).expect("ts");
            let dur = e.get("dur").and_then(|d| d.as_f64()).expect("dur");
            assert!(ts >= 0.0 && dur >= 0.0);
        }
    }
    let reparsed = json::parse(&v.to_string_pretty()).unwrap();
    assert_eq!(v, reparsed, "round trip is lossless");
}

/// Lower trace levels drop event detail but never the accounting: phase
/// totals and counters are identical at `Off`, `Summary` and `Spans`.
#[test]
fn trace_level_changes_detail_not_accounting() {
    let (off, _) = run_scatter(TraceLevel::Off);
    let (summary, _) = run_scatter(TraceLevel::Summary);
    let (spans, _) = run_scatter(TraceLevel::Spans);

    assert_eq!(off.trace.totals(), summary.trace.totals());
    assert_eq!(off.trace.totals(), spans.trace.totals());
    assert_eq!(off.trace.counters(), summary.trace.counters());
    assert_eq!(off.trace.counters(), spans.trace.counters());

    assert!(off.trace.events().is_empty(), "Off retains nothing");
    let has = |r: &RunReport, f: fn(&Event) -> bool| r.trace.events().iter().any(f);
    assert!(has(&summary, |e| matches!(e, Event::Phase(_))));
    assert!(has(&summary, |e| matches!(e, Event::Launch(_))));
    assert!(has(&summary, |e| matches!(e, Event::Comm(_))));
    assert!(has(&summary, |e| matches!(e, Event::Loader(_))));
    assert!(
        !has(&summary, |e| matches!(e, Event::Transfer(_))),
        "Summary drops per-transfer spans"
    );
    assert!(has(&spans, |e| matches!(e, Event::Transfer(_))));

    // The profiler numbers the runner prints are level-independent too.
    assert_eq!(off.profile.time, spans.profile.time);
    assert_eq!(off.profile.kernel_launches, spans.profile.kernel_launches);
}

/// The simulated clock has one entry point, so the retained `Phase`
/// spans tile a run: each starts where the previous one ended, and the
/// phase totals add up to the last end. Held for every app with overlap
/// armed on three GPUs and on `cluster(16)` — where a background halo
/// fill may outlast the kernels it hides under — under the cost-model
/// schedule, as the OpenMP baseline, and over HEAT2D-HALO2's wavefront.
#[test]
fn phases_tile_the_clock() {
    use acc_apps::{run_app_with_config, App, Scale, Version};
    let node = Machine::supercomputer_node;
    for app in App::ALL {
        let (p3, p16, three) = (Version::Proposal(3), Version::Proposal(16), ExecConfig::gpus(3));
        let mut runs = vec![
            ("node3 overlap", p3, node(), three.clone().overlap(true)),
            ("cluster16 overlap", p16, Machine::cluster(16), ExecConfig::gpus(16).overlap(true)),
            ("node3 CostModel", p3, node(), three.clone().schedule(Schedule::CostModel)),
            ("OpenMP", Version::OpenMP, node(), ExecConfig::openmp()),
        ];
        if app == App::Heat2dHalo2 {
            runs.push(("node3 wavefront", p3, node(), three));
        }
        for (label, version, mut machine, cfg) in runs {
            let cfg = cfg.tracing(TraceLevel::Summary);
            let r = run_app_with_config(app, version, &mut machine, Scale::Small, 42, &cfg)
                .unwrap_or_else(|e| panic!("{} {label}: {e}", app.name()));
            if label == "node3 wavefront" {
                assert!(r.trace.counters().wavefront_rounds > 0, "{label}: no wavefront");
            }
            let mut end = 0.0;
            for ev in r.trace.events() {
                if let Event::Phase(p) = ev {
                    assert_eq!(p.start, end, "{} {label}: {p:?} leaves a gap", app.name());
                    end = p.end;
                }
            }
            let total = r.trace.totals().total();
            assert!(
                (total - end).abs() <= 1e-12 * end,
                "{} {label}: phases sum to {total}, the clock reads {end}",
                app.name()
            );
        }
    }
}
