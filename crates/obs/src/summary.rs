//! Plain-text renderings of a [`Trace`]: the per-phase/per-GPU summary
//! table used by the figures binary, and the line-per-event log.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::Value;
use crate::{Description, Event, Trace, TransferKind};

fn ms(t: f64) -> f64 {
    t * 1e3
}

/// Per-GPU aggregates for the table.
#[derive(Default, Clone, Copy)]
struct GpuAgg {
    kernel_s: f64,
    kernels: u64,
    h2d_bytes: u64,
    d2h_bytes: u64,
    p2p_in_bytes: u64,
    busy_s: f64,
}

/// Render the summary table: phase totals, counters, and (when events
/// were retained) a per-GPU breakdown.
pub fn table(trace: &Trace) -> String {
    let totals = trace.totals();
    let c = trace.counters();
    let mut out = String::new();

    out.push_str("phase totals (simulated)\n");
    out.push_str("  phase        time [ms]    share\n");
    let total = totals.total();
    let share = |t: f64| if total > 0.0 { 100.0 * t / total } else { 0.0 };
    for (name, t) in [
        ("KERNELS", totals.kernels),
        ("CPU-GPU", totals.cpu_gpu),
        ("GPU-GPU", totals.gpu_gpu),
        ("host", totals.host),
    ] {
        out.push_str(&format!(
            "  {name:<10} {:>12.3} {:>7.1}%\n",
            ms(t),
            share(t)
        ));
    }
    out.push_str(&format!("  {:<10} {:>12.3}\n", "total", ms(total)));

    out.push_str("\ncounters\n");
    for (name, v) in [
        ("kernel launches", c.kernel_launches),
        ("H2D bytes", c.h2d_bytes),
        ("D2H bytes", c.d2h_bytes),
        ("P2P bytes", c.p2p_bytes),
        ("miss records", c.miss_records),
        ("dirty chunks sent", c.dirty_chunks_sent),
        ("loader reuses", c.loader_reuses),
        ("loader loads", c.loader_loads),
        ("mapper model splits", c.mapper_model_splits),
        ("sanitize violations", c.sanitize_violations),
        ("comm elisions", c.comm_elisions),
        ("comm elided bytes", c.comm_elided_bytes),
        ("inferred localaccess", c.inferred_annotations),
        ("collective rounds", c.collective_rounds),
        ("overlap windows", c.overlap_windows),
        ("overlap hidden ns", c.overlap_hidden_ns),
        ("wavefront rounds", c.wavefront_rounds),
    ] {
        out.push_str(&format!("  {name:<18} {v}\n"));
    }

    let mut per_gpu: BTreeMap<usize, GpuAgg> = BTreeMap::new();
    for ev in trace.events() {
        match ev {
            Event::Launch(e) => {
                let a = per_gpu.entry(e.gpu).or_default();
                a.kernel_s += e.end - e.start;
                a.kernels += 1;
                a.busy_s += e.end - e.start;
            }
            Event::Transfer(e) => {
                let a = per_gpu.entry(e.gpu()).or_default();
                match e.kind {
                    TransferKind::H2D => a.h2d_bytes += e.bytes,
                    TransferKind::D2H => a.d2h_bytes += e.bytes,
                    TransferKind::P2P => a.p2p_in_bytes += e.bytes,
                }
                a.busy_s += e.end - e.start;
            }
            _ => {}
        }
    }
    if !per_gpu.is_empty() {
        out.push_str("\nper-GPU (from retained events)\n");
        out.push_str(
            "  gpu   kernels   kernel [ms]    busy [ms]     H2D [B]     D2H [B]  P2P-in [B]\n",
        );
        for (gpu, a) in &per_gpu {
            out.push_str(&format!(
                "  {gpu:<4} {:>9} {:>13.3} {:>12.3} {:>11} {:>11} {:>11}\n",
                a.kernels,
                ms(a.kernel_s),
                ms(a.busy_s),
                a.h2d_bytes,
                a.d2h_bytes,
                a.p2p_in_bytes,
            ));
        }
    }

    out
}

/// Render one line per event from its [`Description`]: its start, name
/// and fields, then its length unless it is an instant, e.g.
/// `[0.000100s] sync a g0→g1 launch=0 array=a chunks=2 bytes=512 src=0 dst=1 dur=0.000020s`.
pub fn render_text(trace: &Trace) -> Vec<String> {
    let line = |d: Description| {
        let mut line = format!("[{:.6}s] {}", d.start, d.name);
        for (key, value) in &d.fields {
            let _ = match value {
                Value::Str(s) => write!(line, " {key}={s}"),
                v => write!(line, " {key}={}", v.to_string_compact()),
            };
        }
        if let Some(end) = d.end {
            let _ = write!(line, " dur={:.6}s", end - d.start);
        }
        line
    };
    trace
        .events()
        .iter()
        .map(|ev| line(ev.describe()))
        .collect()
}

#[cfg(test)]
mod tests {
    use crate::{Event, PhaseKind, PhaseSpan, Recorder, TraceLevel};

    #[test]
    fn table_mentions_all_buckets() {
        let mut rec = Recorder::new(TraceLevel::Summary);
        let l = rec.launch_begin();
        rec.record(Event::Phase(PhaseSpan {
            launch: Some(l),
            phase: PhaseKind::Kernel,
            start: 0.0,
            end: 1.0,
        }));
        rec.record(Event::Phase(PhaseSpan {
            launch: Some(l),
            phase: PhaseKind::Comm,
            start: 1.0,
            end: 1.5,
        }));
        let text = rec.finish().summary_table();
        for needle in ["KERNELS", "CPU-GPU", "GPU-GPU", "host", "kernel launches"] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    #[test]
    fn render_text_is_one_line_per_event() {
        let mut rec = Recorder::new(TraceLevel::Summary);
        let l = rec.launch_begin();
        rec.record(Event::Phase(PhaseSpan {
            launch: Some(l),
            phase: PhaseKind::Kernel,
            start: 0.0,
            end: 1.0,
        }));
        let t = rec.finish();
        assert_eq!(t.render_text().len(), t.events().len());
    }
}
