//! `BENCHMARK.json` as the single registry of workloads and metrics: the
//! file is embedded at build time, so the names, units, directions and
//! bounds the benchmark prints and `compare` applies cannot drift from
//! the ones the PR driver reads.

use std::collections::BTreeMap;

use acc_obs::json::{self, Value};

const BENCHMARK_JSON: &str = include_str!("../../../BENCHMARK.json");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the baseline median an end-to-end metric may worsen by;
    /// `None` for per-layer metrics.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

impl Spec {
    /// Parse the embedded `BENCHMARK.json`. Panics on a malformed file:
    /// it is part of this program's source.
    pub fn load() -> Spec {
        let v = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let list = |key: &str| {
            v.get(key)
                .and_then(Value::as_arr)
                .expect("BENCHMARK.json list")
        };
        let text = |m: &Value, key: &str| {
            m.get(key)
                .and_then(Value::as_str)
                .expect("BENCHMARK.json string field")
                .to_string()
        };
        let defs = |key: &str| -> Vec<MetricDef> {
            list(key)
                .iter()
                .map(|m| MetricDef {
                    name: text(m, "name"),
                    unit: text(m, "unit"),
                    better: match text(m, "better").as_str() {
                        "lower" => Better::Lower,
                        "higher" => Better::Higher,
                        other => panic!("BENCHMARK.json: better = {other:?}"),
                    },
                    bound: m.get("bound").and_then(Value::as_f64),
                })
                .collect()
        };
        Spec {
            run_seconds: v
                .get("run_seconds")
                .and_then(Value::as_f64)
                .expect("BENCHMARK.json run_seconds") as u64,
            workloads: list("workloads").iter().map(|w| text(w, "name")).collect(),
            end_to_end: defs("end_to_end"),
            per_layer: defs("per_layer"),
        }
    }

    pub fn def(&self, name: &str) -> Option<&MetricDef> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|d| d.name == name)
    }
}

/// The metrics one run produced, by registered name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.0.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The limits the PR driver enforces before a single run.
    #[test]
    fn benchmark_json_meets_the_driver_contract() {
        let spec = Spec::load();
        let name_ok = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        assert!((1..=60).contains(&spec.run_seconds));
        assert!((2..=8).contains(&spec.workloads.len()));
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        let mut seen = std::collections::BTreeSet::new();
        for w in &spec.workloads {
            assert!(name_ok(w) && seen.insert(w.clone()), "{w}");
        }
        for d in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(
                name_ok(&d.name) && seen.insert(d.name.clone()),
                "{}",
                d.name
            );
            assert!(unit_ok(&d.unit), "{}: unit {:?}", d.name, d.unit);
        }
        for d in &spec.end_to_end {
            assert!(d.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{}", d.name);
        }
        assert!(spec.per_layer.iter().all(|d| d.bound.is_none()));
        let setup = spec.def("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);
        // 4 + 22 × workloads runs of run_seconds, each with up to 5 s of
        // set-ups (five of at most 0.7 s, twice that in a slow spell), and
        // two builds, must fit the driver's 3420 s.
        let runs = 4 + 22 * spec.workloads.len() as u64;
        assert!(runs * (spec.run_seconds + 5) + 300 <= 3420);
    }
}
