//! Host-wall spans recorded by the benchmark around its calls into each
//! layer (choosing-metrics §4). Spans stay in memory; the traced run
//! writes them out once, at its end.

use std::collections::BTreeMap;
use std::time::Instant;

use acc_obs::json::Value;

/// One timed interval. `parent` indexes the enclosing span in the same
/// recorder; spans of one operation share `op_id`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op_id: u64,
}

/// Span recorder for one thread of the benchmark.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    enabled: bool,
}

impl Spans {
    /// A recorder whose timestamps count from `epoch`, so recorders of
    /// several threads share one time base.
    pub fn new(epoch: Instant) -> Spans {
        Spans {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            enabled: true,
        }
    }

    /// A recorder that records nothing: end-to-end numbers are measured
    /// with tracing off.
    pub fn disabled() -> Spans {
        Spans {
            enabled: false,
            ..Spans::new(Instant::now())
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Time `f` as a span named `name`, child of the span open around it.
    pub fn scope<R>(
        &mut self,
        name: &'static str,
        op_id: u64,
        f: impl FnOnce(&mut Spans) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op_id,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Record a child of the most recently *closed* top-level span from a
    /// duration reported by the program (e.g. the server-side run time in
    /// a job summary), anchored at the end of its parent.
    pub fn child_of_last(&mut self, name: &'static str, dur_ns: u64) {
        let Some(parent) = self.spans.iter().rposition(|s| s.parent.is_none()) else {
            return;
        };
        let p = &self.spans[parent];
        let end_ns = p.end_ns;
        let start_ns = end_ns.saturating_sub(dur_ns).max(p.start_ns);
        let op_id = p.op_id;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: Some(parent),
            op_id,
        });
    }

    /// Append another recorder's spans (same epoch), re-basing their
    /// parent links.
    pub fn merge(&mut self, other: Spans) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name, ns: each span's duration minus the part
    /// of it its direct children cover.
    pub fn self_ns_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(covered);
        }
        out
    }

    /// Total duration per span name, ns.
    pub fn total_ns_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_insert(0) += s.end_ns - s.start_ns;
        }
        out
    }

    /// `{"spans": [...], "self_ns": {...}}` — see `benchmarks/README.md`.
    pub fn to_json(&self) -> Value {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Value::obj([
                    ("name", Value::str(s.name)),
                    ("start_ns", Value::num(s.start_ns as f64)),
                    ("end_ns", Value::num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::num(p as f64)),
                    ),
                    ("op_id", Value::num(s.op_id as f64)),
                ])
            })
            .collect();
        let self_ns = self
            .self_ns_by_name()
            .into_iter()
            .map(|(k, v)| (k.to_string(), Value::num(v as f64)))
            .collect();
        Value::obj([
            ("spans", Value::Arr(spans)),
            ("self_ns", Value::Obj(self_ns)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed(spans: Vec<Span>) -> Spans {
        Spans {
            epoch: Instant::now(),
            spans,
            open: Vec::new(),
            enabled: true,
        }
    }

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op_id: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        let s = fixed(vec![
            span("op", 0, 100, None),
            span("launch", 10, 70, Some(0)),
            span("check", 70, 90, Some(0)),
            span("inner", 20, 30, Some(1)),
        ]);
        let self_ns = s.self_ns_by_name();
        assert_eq!(self_ns["op"], 100 - 60 - 20);
        assert_eq!(self_ns["launch"], 60 - 10);
        assert_eq!(self_ns["check"], 20);
        assert_eq!(self_ns["inner"], 10);
        // Self times partition the root span.
        assert_eq!(self_ns.values().sum::<u64>(), 100);
        assert_eq!(s.total_ns_by_name()["launch"], 60);
    }

    #[test]
    fn scopes_nest_and_merge_rebases_parents() {
        let epoch = Instant::now();
        let mut a = Spans::new(epoch);
        a.scope("outer", 1, |s| s.scope("inner", 1, |_| ()));
        assert_eq!(a.spans()[1].parent, Some(0));
        assert!(a.spans()[0].end_ns >= a.spans()[1].end_ns);

        let mut b = Spans::new(epoch);
        b.scope("req", 2, |_| ());
        b.child_of_last("run", 1);
        a.merge(b);
        let names: Vec<_> = a.spans().iter().map(|s| s.name).collect();
        assert_eq!(names, ["outer", "inner", "req", "run"]);
        assert_eq!(a.spans()[3].parent, Some(2));
        assert_eq!(a.spans()[3].op_id, 2);
    }

    #[test]
    fn json_carries_every_field() {
        let s = fixed(vec![span("op", 5, 9, None), span("k", 6, 8, Some(0))]);
        let v = acc_obs::json::parse(&s.to_json().to_string_pretty()).unwrap();
        let spans = v.get("spans").and_then(Value::as_arr).unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].get("parent").and_then(Value::as_f64), Some(0.0));
        assert_eq!(spans[0].get("parent"), Some(&Value::Null));
        assert_eq!(
            v.get("self_ns")
                .and_then(|m| m.get("op"))
                .and_then(Value::as_f64),
            Some(2.0)
        );
    }
}
