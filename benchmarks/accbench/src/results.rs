//! `results.json`: what `accbench all` writes and `accbench compare`
//! reads — per workload, every metric with the values of all its runs.

use std::collections::BTreeMap;
use std::path::Path;

use acc_obs::json::{self, Value};

/// One metric of one workload: a value per run (end-to-end metrics), or
/// the single value of the traced run (per-layer metrics).
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    pub unit: String,
    pub values: Vec<f64>,
}

#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorkloadResult {
    /// Operations attempted and failed, summed over the runs.
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub metrics: BTreeMap<String, Series>,
}

impl WorkloadResult {
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Fold in one run's result line.
    pub fn absorb(&mut self, run: &RunLine) {
        self.attempted += run.attempted;
        self.failed += run.failed;
        self.correct &= run.correct;
        for (name, value, unit) in &run.metrics {
            self.metrics
                .entry(name.clone())
                .or_insert_with(|| Series {
                    unit: unit.clone(),
                    values: Vec::new(),
                })
                .values
                .push(*value);
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Results {
    pub seed: u64,
    pub seconds: f64,
    pub runs: u64,
    /// `available_parallelism` of the machine that measured: host-wall
    /// numbers of different machines do not compare.
    pub host_cpus: u64,
    pub workloads: BTreeMap<String, WorkloadResult>,
}

/// The last line a `run` prints.
#[derive(Debug, Clone, PartialEq)]
pub struct RunLine {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)`.
    pub metrics: Vec<(String, f64, String)>,
}

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

fn number(v: &Value, key: &str) -> Result<f64, String> {
    field(v, key)?
        .as_f64()
        .ok_or_else(|| format!("field {key:?} is not a number"))
}

fn members<'a>(v: &'a Value, key: &str) -> Result<&'a BTreeMap<String, Value>, String> {
    match field(v, key)? {
        Value::Obj(m) => Ok(m),
        _ => Err(format!("field {key:?} is not an object")),
    }
}

fn flag(v: &Value, key: &str) -> Result<bool, String> {
    match field(v, key)? {
        Value::Bool(b) => Ok(*b),
        _ => Err(format!("field {key:?} is not a boolean")),
    }
}

impl RunLine {
    pub fn parse(line: &str) -> Result<RunLine, String> {
        let v = json::parse(line).map_err(|e| format!("result line is not JSON: {e}"))?;
        let mut metrics = Vec::new();
        for (name, m) in members(&v, "metrics")? {
            let unit = field(m, "unit")?.as_str().ok_or("unit is not a string")?;
            metrics.push((name.clone(), number(m, "value")?, unit.to_string()));
        }
        Ok(RunLine {
            correct: flag(&v, "correct")?,
            attempted: number(&v, "attempted")? as u64,
            failed: number(&v, "failed")? as u64,
            metrics,
        })
    }
}

impl Results {
    pub fn to_json(&self) -> Value {
        let workloads = self
            .workloads
            .iter()
            .map(|(name, w)| {
                let metrics = w
                    .metrics
                    .iter()
                    .map(|(m, s)| {
                        let values = s.values.iter().map(|&x| Value::num(x)).collect();
                        (
                            m.clone(),
                            Value::obj([
                                ("unit", Value::str(s.unit.clone())),
                                ("values", Value::Arr(values)),
                            ]),
                        )
                    })
                    .collect();
                (
                    name.clone(),
                    Value::obj([
                        ("attempted", Value::num(w.attempted as f64)),
                        ("failed", Value::num(w.failed as f64)),
                        ("correct", Value::Bool(w.correct)),
                        ("metrics", Value::Obj(metrics)),
                    ]),
                )
            })
            .collect();
        Value::obj([
            ("schema", Value::num(1)),
            ("seed", Value::num(self.seed as f64)),
            ("seconds", Value::num(self.seconds)),
            ("runs", Value::num(self.runs as f64)),
            ("host_cpus", Value::num(self.host_cpus as f64)),
            ("workloads", Value::Obj(workloads)),
        ])
    }

    pub fn from_json(v: &Value) -> Result<Results, String> {
        if number(v, "schema")? != 1.0 {
            return Err("unknown results schema".into());
        }
        let mut workloads = BTreeMap::new();
        for (name, w) in members(v, "workloads")? {
            let mut metrics = BTreeMap::new();
            for (m, s) in members(w, "metrics")? {
                let values = field(s, "values")?
                    .as_arr()
                    .ok_or("values is not an array")?
                    .iter()
                    .map(|x| x.as_f64().ok_or("a value is not a number"))
                    .collect::<Result<Vec<f64>, _>>()?;
                let unit = field(s, "unit")?.as_str().ok_or("unit is not a string")?;
                metrics.insert(
                    m.clone(),
                    Series {
                        unit: unit.to_string(),
                        values,
                    },
                );
            }
            workloads.insert(
                name.clone(),
                WorkloadResult {
                    attempted: number(w, "attempted")? as u64,
                    failed: number(w, "failed")? as u64,
                    correct: flag(w, "correct")?,
                    metrics,
                },
            );
        }
        Ok(Results {
            seed: number(v, "seed")? as u64,
            seconds: number(v, "seconds")?,
            runs: number(v, "runs")? as u64,
            host_cpus: number(v, "host_cpus")? as u64,
            workloads,
        })
    }

    pub fn read(path: &Path) -> Result<Results, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let v = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        Results::from_json(&v).map_err(|e| format!("{}: {e}", path.display()))
    }

    pub fn write(&self, path: &Path) -> Result<(), String> {
        std::fs::write(path, self.to_json().to_string_pretty())
            .map_err(|e| format!("{}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_round_trip_through_acc_obs_json() {
        let mut w = WorkloadResult {
            correct: true,
            ..WorkloadResult::default()
        };
        for wall in [0.251_003_7, 0.249_9, 1.0 / 3.0] {
            w.absorb(&RunLine {
                correct: true,
                attempted: 40,
                failed: 0,
                metrics: vec![
                    ("wall_s".into(), wall, "s".into()),
                    ("kernel-ir.ops".into(), 123_456_789_012.0, "count".into()),
                ],
            });
        }
        let r = Results {
            seed: 42,
            seconds: 10.0,
            runs: 3,
            host_cpus: 2,
            workloads: BTreeMap::from([("stencil-2gpu".to_string(), w)]),
        };
        let text = r.to_json().to_string_pretty();
        let back = Results::from_json(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r, "every digit survives");
        assert_eq!(back.workloads["stencil-2gpu"].attempted, 120);
        assert_eq!(
            back.workloads["stencil-2gpu"].metrics["wall_s"]
                .values
                .len(),
            3
        );
    }

    #[test]
    fn run_line_parses_the_driver_contract_shape() {
        let line = r#"{"correct": true, "attempted": 1000, "failed": 2, "metrics": {"latency_ms": {"value": 1.2034, "unit": "ms"}}}"#;
        let r = RunLine::parse(line).unwrap();
        assert_eq!((r.correct, r.attempted, r.failed), (true, 1000, 2));
        assert_eq!(r.metrics, vec![("latency_ms".into(), 1.2034, "ms".into())]);
        assert!(RunLine::parse("{}").is_err());
        assert!(RunLine::parse("not json").is_err());
    }
}
