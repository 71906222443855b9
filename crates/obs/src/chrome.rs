//! Chrome trace-event JSON export.
//!
//! The produced document follows the trace-event format's "JSON object"
//! flavor: `{"traceEvents": [...], "displayTimeUnit": "ms"}` with `"X"`
//! (complete) events for spans and `"M"` (metadata) events naming the
//! tracks. Load the file in `chrome://tracing` or
//! <https://ui.perfetto.dev>.
//!
//! Track layout: one process (`pid: 0`), one thread per GPU (`tid: gpu`)
//! plus a host track (`tid: HOST_TID`). Simulated seconds are converted
//! to the format's microseconds.

use crate::json::Value;
use crate::{Event, Trace, TransferKind};

/// Thread id used for the host/phase track (GPUs use their own ids).
pub const HOST_TID: usize = 1000;

/// Simulated seconds → trace microseconds.
fn us(t: f64) -> f64 {
    t * 1e6
}

fn span(
    name: &str,
    cat: &str,
    tid: usize,
    start: f64,
    end: f64,
    args: Vec<(&'static str, Value)>,
) -> Value {
    Value::obj([
        ("name", Value::str(name)),
        ("cat", Value::str(cat)),
        ("ph", Value::str("X")),
        ("ts", Value::Num(us(start))),
        ("dur", Value::Num(us(end - start))),
        ("pid", Value::num(0.0)),
        ("tid", Value::num(tid as f64)),
        ("args", Value::obj(args)),
    ])
}

fn instant(name: &str, cat: &str, tid: usize, at: f64, args: Vec<(&'static str, Value)>) -> Value {
    Value::obj([
        ("name", Value::str(name)),
        ("cat", Value::str(cat)),
        ("ph", Value::str("i")),
        ("ts", Value::Num(us(at))),
        ("s", Value::str("t")),
        ("pid", Value::num(0.0)),
        ("tid", Value::num(tid as f64)),
        ("args", Value::obj(args)),
    ])
}

fn thread_name(tid: usize, name: &str) -> Value {
    Value::obj([
        ("name", Value::str("thread_name")),
        ("ph", Value::str("M")),
        ("pid", Value::num(0.0)),
        ("tid", Value::num(tid as f64)),
        (
            "args",
            Value::obj([("name", Value::str(name))]),
        ),
    ])
}

/// Build the Chrome trace-event document for `trace`.
pub fn export(trace: &Trace) -> String {
    let mut events: Vec<Value> = Vec::new();

    events.push(Value::obj([
        ("name", Value::str("process_name")),
        ("ph", Value::str("M")),
        ("pid", Value::num(0.0)),
        (
            "args",
            Value::obj([("name", Value::str("simulated multi-GPU machine"))]),
        ),
    ]));
    events.push(thread_name(HOST_TID, "host / phases"));
    for gpu in trace.gpus() {
        events.push(thread_name(gpu, &format!("GPU {gpu}")));
    }

    for ev in trace.events() {
        match ev {
            Event::Phase(e) => {
                let name = match e.launch {
                    Some(l) => format!("{} (launch {l})", e.phase.name()),
                    None => e.phase.name().to_string(),
                };
                events.push(span(
                    &name,
                    "phase",
                    HOST_TID,
                    e.start,
                    e.end,
                    vec![("phase", Value::str(e.phase.name()))],
                ));
            }
            Event::Launch(e) => {
                events.push(span(
                    &format!("kernel {}", e.kernel),
                    "kernel",
                    e.gpu,
                    e.start,
                    e.end,
                    vec![
                        ("launch", Value::num(e.launch as f64)),
                        ("rows_begin", Value::num(e.rows.0 as f64)),
                        ("rows_end", Value::num(e.rows.1 as f64)),
                    ],
                ));
            }
            Event::Transfer(e) => {
                let cat = match e.kind {
                    TransferKind::H2D => "h2d",
                    TransferKind::D2H => "d2h",
                    TransferKind::P2P => "p2p",
                };
                let endpoint = |g: &Option<usize>| match g {
                    Some(g) => Value::str(format!("gpu{g}")),
                    None => Value::str("host"),
                };
                events.push(span(
                    &format!("{} {} ({})", e.kind.name(), e.array, e.why),
                    cat,
                    e.gpu(),
                    e.start,
                    e.end,
                    vec![
                        ("array", Value::str(&e.array)),
                        ("bytes", Value::num(e.bytes as f64)),
                        ("src", endpoint(&e.src)),
                        ("dst", endpoint(&e.dst)),
                        ("why", Value::str(e.why)),
                    ],
                ));
            }
            Event::Comm(e) => {
                events.push(span(
                    &format!("sync {} g{}→g{}", e.array, e.src, e.dst),
                    "comm",
                    e.dst,
                    e.start,
                    e.end,
                    vec![
                        ("launch", Value::num(e.launch as f64)),
                        ("array", Value::str(&e.array)),
                        ("chunks", Value::num(e.chunks as f64)),
                        ("bytes", Value::num(e.bytes as f64)),
                        ("src", Value::num(e.src as f64)),
                        ("dst", Value::num(e.dst as f64)),
                    ],
                ));
            }
            Event::Loader(e) => {
                events.push(instant(
                    &format!(
                        "loader {} {}",
                        if e.reused { "reuse" } else { "load" },
                        e.array
                    ),
                    "loader",
                    e.gpu,
                    e.at,
                    vec![
                        ("launch", Value::num(e.launch as f64)),
                        ("array", Value::str(&e.array)),
                        ("reused", Value::Bool(e.reused)),
                        ("bytes_moved", Value::num(e.bytes_moved as f64)),
                    ],
                ));
            }
            Event::Mapper(e) => {
                let pair = |&(a, b): &(i64, i64)| {
                    Value::Arr(vec![Value::num(a as f64), Value::num(b as f64)])
                };
                events.push(instant(
                    &format!(
                        "mapper {} {}",
                        if e.from_history { "cost-model" } else { "equal" },
                        e.kernel
                    ),
                    "mapper",
                    HOST_TID,
                    e.at,
                    vec![
                        ("launch", Value::num(e.launch as f64)),
                        ("kernel", Value::str(&e.kernel)),
                        ("from_history", Value::Bool(e.from_history)),
                        ("ranges", Value::Arr(e.ranges.iter().map(pair).collect())),
                        (
                            "predicted_s",
                            Value::Arr(e.predicted_s.iter().map(|&t| Value::Num(t)).collect()),
                        ),
                        (
                            "measured_s",
                            Value::Arr(e.measured_s.iter().map(|&t| Value::Num(t)).collect()),
                        ),
                    ],
                ));
            }
            Event::Miss(e) => {
                events.push(span(
                    &format!("miss-replay {} g{}→g{}", e.array, e.src, e.dst),
                    "miss",
                    e.dst,
                    e.start,
                    e.end,
                    vec![
                        ("launch", Value::num(e.launch as f64)),
                        ("array", Value::str(&e.array)),
                        ("records", Value::num(e.records as f64)),
                        ("bytes", Value::num(e.bytes as f64)),
                        ("src", Value::num(e.src as f64)),
                        ("dst", Value::num(e.dst as f64)),
                    ],
                ));
            }
            Event::Collective(e) => {
                events.push(span(
                    &format!("collective {} {} g{}→g{}", e.level, e.array, e.src, e.dst),
                    "collective",
                    e.dst,
                    e.start,
                    e.end,
                    vec![
                        ("launch", Value::num(e.launch as f64)),
                        ("array", Value::str(&e.array)),
                        ("level", Value::str(e.level)),
                        ("bytes", Value::num(e.bytes as f64)),
                        ("src", Value::num(e.src as f64)),
                        ("dst", Value::num(e.dst as f64)),
                    ],
                ));
            }
            Event::Overlap(e) => {
                events.push(span(
                    &format!("overlap {} g{}", e.array, e.gpu),
                    "overlap",
                    e.gpu,
                    e.start,
                    e.end,
                    vec![
                        ("launch", Value::num(e.launch as f64)),
                        ("array", Value::str(&e.array)),
                        ("bytes", Value::num(e.bytes as f64)),
                    ],
                ));
            }
            Event::Wavefront(e) => {
                events.push(span(
                    &format!("wavefront {} g{}", e.kernel, e.gpu),
                    "wavefront",
                    e.gpu,
                    e.start,
                    e.end,
                    vec![
                        ("launch", Value::num(e.launch as f64)),
                        ("kernel", Value::str(&e.kernel)),
                        ("round", Value::num(e.round as f64)),
                        ("fed_bytes", Value::num(e.fed_bytes as f64)),
                    ],
                ));
            }
            Event::Sanitize(e) => {
                events.push(instant(
                    &format!("SANITIZE {} {}", e.kind, e.array),
                    "sanitize",
                    e.gpu,
                    e.at,
                    vec![
                        ("launch", Value::num(e.launch as f64)),
                        ("array", Value::str(&e.array)),
                        ("kind", Value::str(e.kind)),
                        ("tid", Value::num(e.tid as f64)),
                        ("idx", Value::num(e.idx as f64)),
                        ("window_lo", Value::num(e.window.0 as f64)),
                        ("window_hi", Value::num(e.window.1 as f64)),
                    ],
                ));
            }
            Event::Elided(e) => {
                events.push(instant(
                    &format!("comm-elided {}", e.array),
                    "comm",
                    HOST_TID,
                    e.at,
                    vec![
                        ("launch", Value::num(e.launch as f64)),
                        ("array", Value::str(&e.array)),
                        ("skipped_bytes", Value::num(e.skipped_bytes as f64)),
                    ],
                ));
            }
            Event::Inferred(e) => {
                events.push(instant(
                    &format!("inferred localaccess {}", e.array),
                    "infer",
                    HOST_TID,
                    e.at,
                    vec![
                        ("kernel", Value::str(&e.kernel)),
                        ("array", Value::str(&e.array)),
                        ("pragma", Value::str(&e.pragma)),
                    ],
                ));
            }
        }
    }

    Value::obj([
        ("traceEvents", Value::Arr(events)),
        ("displayTimeUnit", Value::str("ms")),
    ])
    .to_string_pretty()
}

#[cfg(test)]
mod tests {
    use crate::json;
    use crate::{
        LaunchSpan, PhaseKind, Recorder, TraceLevel, TransferKind, TransferSpan,
    };

    #[test]
    fn export_is_valid_json_with_expected_tracks() {
        let mut rec = Recorder::new(TraceLevel::Spans);
        let launch = rec.launch_begin();
        rec.phase(Some(launch), PhaseKind::Kernel, 0.0, 2.0);
        rec.launch_span(LaunchSpan {
            launch,
            kernel: "saxpy".into(),
            gpu: 1,
            rows: (0, 64),
            start: 0.0,
            end: 2.0,
        });
        rec.transfer(TransferSpan {
            kind: TransferKind::P2P,
            array: "x".into(),
            bytes: 256,
            src: Some(0),
            dst: Some(1),
            why: "fill",
            start: 2.0,
            end: 2.5,
        });
        let doc = rec.finish().chrome_trace();
        let v = json::parse(&doc).expect("exporter must emit valid JSON");
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        assert!(events
            .iter()
            .any(|e| e.get("ph").unwrap().as_str() == Some("M")));
        let kernel = events
            .iter()
            .find(|e| e.get("cat").and_then(|c| c.as_str()) == Some("kernel"))
            .expect("kernel span present");
        assert_eq!(kernel.get("dur").unwrap().as_f64().unwrap(), 2e6);
        assert_eq!(kernel.get("tid").unwrap().as_f64().unwrap(), 1.0);
    }
}
