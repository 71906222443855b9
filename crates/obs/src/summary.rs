//! Plain-text renderings of a [`Trace`]: the per-phase/per-GPU summary
//! table used by the figures binary, and the legacy line-per-event trace.

use std::collections::BTreeMap;

use crate::{Event, Trace, TransferKind};

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
        out.push_str(&format!("  {name:<10} {:>12.3} {:>7.1}%\n", ms(t), share(t)));
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

/// Render the legacy one-line-per-event textual trace (what the runtime's
/// old `Profiler::trace` strings looked like).
pub fn render_text(trace: &Trace) -> Vec<String> {
    let mut lines = Vec::new();
    for ev in trace.events() {
        let line = match ev {
            Event::Phase(e) => match e.launch {
                Some(l) => format!(
                    "[{:.6}s] phase {} launch={l} dur={:.6}s",
                    e.start,
                    e.phase.name(),
                    e.end - e.start
                ),
                None => format!(
                    "[{:.6}s] phase {} dur={:.6}s",
                    e.start,
                    e.phase.name(),
                    e.end - e.start
                ),
            },
            Event::Launch(e) => format!(
                "[{:.6}s] launch {} kernel={} gpu={} rows={}..{} dur={:.6}s",
                e.start,
                e.launch,
                e.kernel,
                e.gpu,
                e.rows.0,
                e.rows.1,
                e.end - e.start
            ),
            Event::Transfer(e) => {
                let ep = |g: &Option<usize>| match g {
                    Some(g) => format!("gpu{g}"),
                    None => "host".to_string(),
                };
                format!(
                    "[{:.6}s] {} {} {}→{} {}B ({}) dur={:.6}s",
                    e.start,
                    e.kind.name(),
                    e.array,
                    ep(&e.src),
                    ep(&e.dst),
                    e.bytes,
                    e.why,
                    e.end - e.start
                )
            }
            Event::Comm(e) => format!(
                "[{:.6}s] sync {} gpu{}→gpu{} chunks={} {}B dur={:.6}s",
                e.start,
                e.array,
                e.src,
                e.dst,
                e.chunks,
                e.bytes,
                e.end - e.start
            ),
            Event::Loader(e) => format!(
                "[{:.6}s] loader {} {} gpu={} moved={}B",
                e.at,
                if e.reused { "reuse" } else { "load" },
                e.array,
                e.gpu,
                e.bytes_moved
            ),
            Event::Mapper(e) => format!(
                "[{:.6}s] mapper {} kernel={} ranges={:?}",
                e.at,
                if e.from_history { "cost-model" } else { "equal" },
                e.kernel,
                e.ranges
            ),
            Event::Miss(e) => format!(
                "[{:.6}s] miss-replay {} gpu{}→gpu{} records={} {}B dur={:.6}s",
                e.start,
                e.array,
                e.src,
                e.dst,
                e.records,
                e.bytes,
                e.end - e.start
            ),
            Event::Collective(e) => format!(
                "[{:.6}s] collective {} {} gpu{}→gpu{} {}B dur={:.6}s",
                e.start,
                e.level,
                e.array,
                e.src,
                e.dst,
                e.bytes,
                e.end - e.start
            ),
            Event::Overlap(e) => format!(
                "[{:.6}s] overlap {} gpu={} {}B dur={:.6}s",
                e.start,
                e.array,
                e.gpu,
                e.bytes,
                e.end - e.start
            ),
            Event::Wavefront(e) => format!(
                "[{:.6}s] wavefront {} gpu={} round={} fed={}B dur={:.6}s",
                e.start,
                e.kernel,
                e.gpu,
                e.round,
                e.fed_bytes,
                e.end - e.start
            ),
            Event::Sanitize(e) => format!(
                "[{:.6}s] SANITIZE {} {} gpu={} tid={} idx={} window=[{}, {})",
                e.at, e.kind, e.array, e.gpu, e.tid, e.idx, e.window.0, e.window.1
            ),
            Event::Elided(e) => format!(
                "[{:.6}s] comm-elided {} launch={} skipped={}B",
                e.at, e.array, e.launch, e.skipped_bytes
            ),
            Event::Inferred(e) => format!(
                "[{:.6}s] inferred {} kernel={} `{}`",
                e.at, e.array, e.kernel, e.pragma
            ),
        };
        lines.push(line);
    }
    lines
}

#[cfg(test)]
mod tests {
    use crate::{PhaseKind, Recorder, TraceLevel};

    #[test]
    fn table_mentions_all_buckets() {
        let mut rec = Recorder::new(TraceLevel::Summary);
        let l = rec.launch_begin();
        rec.phase(Some(l), PhaseKind::Kernel, 0.0, 1.0);
        rec.phase(Some(l), PhaseKind::Comm, 1.0, 1.5);
        let text = rec.finish().summary_table();
        for needle in ["KERNELS", "CPU-GPU", "GPU-GPU", "host", "kernel launches"] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    #[test]
    fn render_text_is_one_line_per_event() {
        let mut rec = Recorder::new(TraceLevel::Summary);
        let l = rec.launch_begin();
        rec.phase(Some(l), PhaseKind::Kernel, 0.0, 1.0);
        let t = rec.finish();
        assert_eq!(t.render_text().len(), t.events().len());
    }
}
