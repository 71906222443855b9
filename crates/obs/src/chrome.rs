//! Chrome trace-event JSON export.
//!
//! The produced document follows the trace-event format's "JSON object"
//! flavor: `{"traceEvents": [...], "displayTimeUnit": "ms"}` with `"X"`
//! (complete) events for spans, `"i"` events for instants and `"M"`
//! (metadata) events naming the tracks. Every event is drawn from its
//! [`Description`]. Load the file in `chrome://tracing` or
//! <https://ui.perfetto.dev>.
//!
//! Track layout: one process (`pid: 0`), one thread per GPU (`tid: gpu`)
//! plus a host track (`tid: HOST_TID`). Simulated seconds are converted
//! to the format's microseconds.

use crate::json::Value;
use crate::{gpu_ids, Description, Trace};

/// Thread id used for the host/phase track (GPUs use their own ids).
pub const HOST_TID: usize = 1000;

/// Simulated seconds → trace microseconds.
fn us(t: f64) -> f64 {
    t * 1e6
}

/// One trace event: an `"X"` span, or an `"i"` instant when the
/// description has no end.
fn trace_event(d: Description) -> Value {
    let tid = d.track.unwrap_or(HOST_TID);
    let timing = match d.end {
        Some(end) => [
            ("ph", Value::str("X")),
            ("dur", Value::Num(us(end - d.start))),
        ],
        None => [("ph", Value::str("i")), ("s", Value::str("t"))],
    };
    Value::obj(
        [
            ("name", Value::Str(d.name)),
            ("cat", Value::str(d.cat)),
            ("ts", Value::Num(us(d.start))),
            ("pid", Value::num(0.0)),
            ("tid", Value::num(tid as f64)),
            ("args", Value::obj(d.fields)),
        ]
        .into_iter()
        .chain(timing),
    )
}

fn thread_name(tid: usize, name: &str) -> Value {
    Value::obj([
        ("name", Value::str("thread_name")),
        ("ph", Value::str("M")),
        ("pid", Value::num(0.0)),
        ("tid", Value::num(tid as f64)),
        ("args", Value::obj([("name", Value::str(name))])),
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
    let mut gpus: Vec<usize> = Vec::new();
    let body: Vec<Value> = trace
        .events()
        .iter()
        .map(|ev| {
            let d = ev.describe();
            gpus.extend(d.gpus());
            trace_event(d)
        })
        .collect();
    for gpu in gpu_ids(gpus) {
        events.push(thread_name(gpu, &format!("GPU {gpu}")));
    }
    events.extend(body);

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
        CollectiveRound, CommElided, CommRound, Event, InferredAnnotation, LaunchSpan,
        LoaderDecision, MapperDecision, MissReplay, OverlapWindow, PhaseKind, PhaseSpan, Recorder,
        SanitizeEvent, TraceLevel, TransferKind, TransferSpan, WavefrontRound,
    };

    #[test]
    fn export_is_valid_json_with_expected_tracks() {
        let mut rec = Recorder::new(TraceLevel::Spans);
        let launch = rec.launch_begin();
        rec.record(Event::Phase(PhaseSpan {
            launch: Some(launch),
            phase: PhaseKind::Kernel,
            start: 0.0,
            end: 2.0,
        }));
        rec.record(Event::Launch(LaunchSpan {
            launch,
            kernel: "saxpy".into(),
            gpu: 1,
            rows: (0, 64),
            start: 0.0,
            end: 2.0,
        }));
        rec.record(Event::Transfer(TransferSpan {
            kind: TransferKind::P2P,
            array: "x".into(),
            bytes: 256,
            src: Some(0),
            dst: Some(1),
            why: "fill",
            start: 2.0,
            end: 2.5,
        }));
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

    fn fnv1a64(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// One event of each of the 13 kinds, with fixed values. The hash
    /// was taken from the exporter at commit `eac1a24`, before the
    /// exporter read a per-kind description; it pins every name,
    /// category, track, thread-name entry and argument order.
    #[test]
    fn every_kind_exports_the_pinned_bytes() {
        let mut rec = Recorder::new(TraceLevel::Spans);
        let launch = rec.launch_begin();
        rec.record(Event::Phase(PhaseSpan {
            launch: Some(launch),
            phase: PhaseKind::Loader,
            start: 0.0,
            end: 1.0,
        }));
        rec.record(Event::Phase(PhaseSpan {
            launch: None,
            phase: PhaseKind::Host,
            start: 1.0,
            end: 1.25,
        }));
        rec.record(Event::Launch(LaunchSpan {
            launch,
            kernel: "k".into(),
            gpu: 0,
            rows: (0, 128),
            start: 1.0,
            end: 3.0,
        }));
        for (kind, src, dst) in [
            (TransferKind::H2D, None, Some(1)),
            (TransferKind::D2H, Some(2), None),
            (TransferKind::P2P, Some(0), Some(3)),
        ] {
            rec.record(Event::Transfer(TransferSpan {
                kind,
                array: "a".into(),
                bytes: 4096,
                src,
                dst,
                why: "fill",
                start: 0.5,
                end: 0.75,
            }));
        }
        rec.record(Event::Comm(CommRound {
            launch,
            array: "a".into(),
            src: 0,
            dst: 1,
            chunks: 2,
            bytes: 512,
            start: 3.0,
            end: 3.25,
        }));
        rec.record(Event::Loader(LoaderDecision {
            launch,
            array: "b".into(),
            gpu: 1,
            reused: true,
            bytes_moved: 0,
            at: 1.0,
        }));
        rec.record(Event::Mapper(MapperDecision {
            launch,
            kernel: "k".into(),
            ranges: vec![(0, 64), (64, 128)],
            predicted_s: vec![1e-3, 2e-3],
            measured_s: vec![1.5e-3, 0.5e-3],
            from_history: true,
            at: 1.0,
        }));
        rec.record(Event::Miss(MissReplay {
            launch,
            array: "y".into(),
            src: 1,
            dst: 0,
            records: 3,
            bytes: 48,
            start: 3.25,
            end: 3.5,
        }));
        rec.record(Event::Collective(CollectiveRound {
            launch,
            array: "r".into(),
            level: "inter-island",
            src: 8,
            dst: 0,
            bytes: 3200,
            start: 3.5,
            end: 4.0,
        }));
        rec.record(Event::Overlap(OverlapWindow {
            launch,
            array: "src".into(),
            gpu: 3,
            bytes: 1024,
            start: 1.0,
            end: 1.5,
        }));
        rec.record(Event::Wavefront(WavefrontRound {
            launch,
            kernel: "heat".into(),
            gpu: 1,
            round: 1,
            fed_bytes: 2048,
            start: 2.0,
            end: 3.0,
        }));
        rec.record(Event::Sanitize(SanitizeEvent {
            launch,
            array: "a".into(),
            gpu: 2,
            kind: "load-outside-window",
            tid: 7,
            idx: 9,
            window: (6, 8),
            at: 1.5,
        }));
        rec.record(Event::Elided(CommElided {
            launch,
            array: "t".into(),
            skipped_bytes: 2048,
            at: 3.0,
        }));
        rec.record(Event::Inferred(InferredAnnotation {
            kernel: "heat".into(),
            array: "src".into(),
            pragma: "#pragma acc localaccess(src) stride(cols)".into(),
            at: 0.0,
        }));
        let doc = rec.finish().chrome_trace();
        assert_eq!(fnv1a64(doc.as_bytes()), 13_390_830_783_716_572_921, "{doc}");
    }
}
