//! Smoke coverage, so the benchmark cannot rot: every workload's code
//! path at minimum size — set-up, timed loop, oracle, traced pass, result
//! line — with no assertion about time.

use std::collections::BTreeSet;

use acc_serve::{Server, ServerConfig};

use crate::result_line;
use crate::results::RunLine;
use crate::spec::Spec;
use crate::workloads::serve::every_job;
use crate::workloads::{self, RunArgs, Size};

/// Tails need a thousand samples (ten beyond the 99th percentile); the
/// smoke runs take twenty, so these are rightly absent from them.
const NEEDS_A_THOUSAND_SAMPLES: &[&str] = &[
    "bench.wall_p99_s",
    "serve.run_ms_p99",
    "serve.queue_wait_ms_p99",
];

fn smoke(trace: bool) -> RunArgs {
    RunArgs {
        seed: 42,
        seconds: 0.0,
        trace,
        size: Size::Smoke,
    }
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    let spec = Spec::load();
    for w in &spec.workloads {
        let args = smoke(false);
        let out = workloads::run(w, &args).unwrap_or_else(|e| panic!("{w}: {e}"));
        assert!(out.correct, "{w}: outputs or determinism check failed");
        assert_eq!(out.failed, 0, "{w}");
        assert!(out.attempted >= 1, "{w}");
        assert!(
            out.spans.is_none(),
            "{w}: tracing is off for end-to-end numbers"
        );
        let line = result_line(&spec, w, &args, &out, true).unwrap();
        let parsed = RunLine::parse(&line).unwrap();
        assert_eq!(parsed.metrics.len(), spec.end_to_end.len(), "{w}");
        for d in &spec.end_to_end {
            let (_, value, unit) = parsed
                .metrics
                .iter()
                .find(|(n, _, _)| *n == d.name)
                .unwrap_or_else(|| panic!("{w}: {} missing", d.name));
            assert_eq!(unit, &d.unit, "{w}: {}", d.name);
            assert!(*value > 0.0, "{w}: {} must never read 0", d.name);
        }
    }
}

#[test]
fn traced_passes_cover_every_per_layer_metric() {
    let spec = Spec::load();
    let mut emitted = BTreeSet::new();
    for w in &spec.workloads {
        let args = smoke(true);
        let out = workloads::run(w, &args).unwrap_or_else(|e| panic!("{w}: {e}"));
        assert!(
            out.correct,
            "{w}: outputs, determinism or tier agreement failed"
        );
        assert_eq!(out.failed, 0, "{w}");
        let spans = out.spans.as_ref().expect("the traced pass records spans");
        assert!(!spans.spans().is_empty(), "{w}");
        emitted.extend(out.metrics.names());

        // Unfilled, the line holds what the workload exercises; filled,
        // every registered name, as the driver expects.
        let sparse = RunLine::parse(&result_line(&spec, w, &args, &out, false).unwrap()).unwrap();
        assert_eq!(sparse.metrics.len(), out.metrics.names().count(), "{w}");
        let filled = RunLine::parse(&result_line(&spec, w, &args, &out, true).unwrap()).unwrap();
        assert_eq!(filled.metrics.len(), spec.per_layer.len(), "{w}");
        for (name, _, unit) in &filled.metrics {
            assert_eq!(Some(unit), spec.def(name).map(|d| &d.unit), "{w}: {name}");
        }
    }
    let missing: Vec<_> = spec
        .per_layer
        .iter()
        .map(|d| d.name.as_str())
        .filter(|n| !emitted.contains(n) && !NEEDS_A_THOUSAND_SAMPLES.contains(n))
        .collect();
    assert!(missing.is_empty(), "no workload emitted {missing:?}");
}

#[test]
fn traced_app_passes_record_the_layer_spans() {
    let out = workloads::run("stencil-2gpu", &smoke(true)).unwrap();
    let spans = out.spans.unwrap();
    let names: BTreeSet<_> = spans.spans().iter().map(|s| s.name).collect();
    for want in [
        "apps.generate",
        "apps.reference",
        "accrt.engine.compile",
        "op",
        "apps.inputs",
        "accrt.engine.launch",
        "oracle.check",
        "gpusim.replay",
    ] {
        assert!(names.contains(want), "{want} missing from {names:?}");
    }
    let launch = spans
        .spans()
        .iter()
        .position(|s| s.name == "accrt.engine.launch")
        .unwrap();
    let parent = spans.spans()[launch].parent.expect("launch has a parent");
    assert_eq!(spans.spans()[parent].name, "op");
}

/// `serve-mix` draws from 7 apps × 1–3 GPUs × 5 input seeds; "choose
/// workloads on which no operation fails" means each must pass its oracle.
#[test]
fn every_job_the_serve_mix_can_draw_passes_its_oracle() {
    let server = Server::new(ServerConfig::default());
    for req in every_job() {
        let what = format!("{} x{} seed {}", req.app.name(), req.ngpus, req.seed);
        let summary = server
            .execute(&req)
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        assert!(summary.correct, "{what}");
    }
}

#[test]
fn unknown_workloads_are_refused() {
    assert!(workloads::run("no-such-workload", &smoke(false)).is_err());
}
