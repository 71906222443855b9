//! The pinned artifact (`BENCH_runtime.json`, `BENCH_runtime_scaled.json`;
//! see [`crate::bench_runtime`]): its JSON form, and `bench-diff`, the
//! exact comparison of two of them.
//!
//! Every value in the artifact is simulated and therefore deterministic,
//! so the contract across commits has no tolerance:
//!
//! * both artifacts must come from the same configuration (`scale` and
//!   `seed` equal);
//! * every row of the old artifact — matrix point, scheduler row, comm
//!   experiment, scaling point — must still exist in the new one;
//! * every field of such a row but its text fields, which name it, and
//!   `correct` must match to 1e-9 relative (slack for the decimal round
//!   trip through the JSON writer only): any drift means the runtime
//!   changed observable semantics;
//! * every row of the new artifact must be `correct`.
//!
//! [`bench_diff`] returns `Err` only for malformed input — a missing
//! section included; comparison failures are collected in
//! [`DiffReport::problems`] so the CLI can print the full table before
//! exiting non-zero.

use std::collections::BTreeMap;

use acc_obs::json::{self, Value};

use crate::row::{self, section, Kind, Read, Row, Visit};
use crate::{BenchPoint, CommPoint, ScalingPoint, SchedulePoint};

/// Relative slack of the equality check — covers only decimal
/// round-tripping through the JSON writer, not real drift.
const SIM_REL_EPS: f64 = 1e-9;

/// One pinned artifact, produced by [`crate::bench_runtime`] and read
/// back by [`parse_bench_file`].
#[derive(Debug, Clone, PartialEq)]
pub struct BenchFile {
    pub scale: String,
    pub seed: u64,
    /// The evaluation matrix: machine × app × version.
    pub points: Vec<BenchPoint>,
    pub schedules: Vec<SchedulePoint>,
    pub comm_experiments: Vec<CommPoint>,
    pub scaling: Vec<ScalingPoint>,
}

/// A row of a pinned section.
trait Keyed: Row + Default {
    /// The row's identity within its section.
    fn key(&self) -> String;
}

impl Keyed for BenchPoint {
    fn key(&self) -> String {
        format!("{} / {} / {}", self.machine, self.app, self.version)
    }
}

impl Keyed for SchedulePoint {
    fn key(&self) -> String {
        format!("{} x{}", self.app, self.ngpus)
    }
}

impl Keyed for CommPoint {
    fn key(&self) -> String {
        format!("{}/{} x{}", self.app, self.mode, self.ngpus)
    }
}

impl Keyed for ScalingPoint {
    fn key(&self) -> String {
        let overlap = if self.overlap { "+overlap" } else { "" };
        format!("{} x{} {}{overlap}", self.app, self.ngpus, self.topo)
    }
}

/// What `bench-diff` compares of one row: every field but text and
/// `correct`, which the new row must hold. The number fields of a key
/// (`ngpus`, `overlap`) are compared too, and agree on every matched row.
#[derive(Default)]
struct Pins {
    values: Vec<(&'static str, f64)>,
    correct: bool,
}

impl Visit for Pins {
    fn field<K: Kind>(&mut self, name: &'static str, value: &mut K) {
        match value.number() {
            Some(n) if name == "correct" => self.correct = n == 1.0,
            Some(n) => self.values.push((name, n)),
            None => {}
        }
    }
}

fn pins<T: Row>(row: &T) -> Pins {
    let mut p = Pins::default();
    row.clone().fields(&mut p);
    p
}

/// Every section is required: both committed baselines carry all four.
fn parse_section<T: Keyed>(doc: &Value, which: &str) -> Result<Vec<T>, String> {
    let name = T::SECTION;
    let rows = doc
        .get(name)
        .ok_or_else(|| format!("{which}: missing section `{name}`"))?
        .as_arr()
        .ok_or_else(|| format!("{which}: `{name}` is not an array"))?;
    rows.iter().enumerate().map(|(i, obj)| row::read(obj, format!("{which}: {name}[{i}]"))).collect()
}

impl BenchFile {
    /// The artifact as `figures bench` writes it.
    pub fn to_json(&self) -> Value {
        Value::Obj(BTreeMap::from([
            ("scale".to_string(), Value::str(&self.scale)),
            ("seed".to_string(), Value::num(self.seed as f64)),
            section(&self.points),
            section(&self.schedules),
            section(&self.comm_experiments),
            section(&self.scaling),
        ]))
    }
}

/// Parse a pinned artifact; `which` names it in error messages.
pub fn parse_bench_file(src: &str, which: &str) -> Result<BenchFile, String> {
    let doc = json::parse(src).map_err(|e| format!("{which}: {e}"))?;
    let (mut scale, mut seed) = (String::new(), 0);
    let mut head = Read { obj: &doc, path: which.to_string(), err: None };
    head.field("scale", &mut scale);
    head.field("seed", &mut seed);
    if let Some(e) = head.err {
        return Err(e);
    }
    Ok(BenchFile {
        scale,
        seed,
        points: parse_section(&doc, which)?,
        schedules: parse_section(&doc, which)?,
        comm_experiments: parse_section(&doc, which)?,
        scaling: parse_section(&doc, which)?,
    })
}

/// One compared row of the old artifact.
#[derive(Debug, Clone)]
pub struct DiffLine {
    pub section: &'static str,
    pub key: String,
    /// The recorded values that differ between old and new.
    pub moved: Vec<&'static str>,
    /// The new row's oracle verdict.
    pub correct: bool,
}

/// The full comparison result.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// One line per row present in both artifacts.
    pub lines: Vec<DiffLine>,
    /// Human-readable failures; non-empty means the diff should fail.
    pub problems: Vec<String>,
}

impl DiffReport {
    /// True when the new artifact must be rejected.
    pub fn failed(&self) -> bool {
        !self.problems.is_empty()
    }

    /// Render the per-row table plus any problems.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "  {:<17} {:<50} verdict", "Section", "Row");
        for l in &self.lines {
            let verdict = if !l.moved.is_empty() {
                format!("SIM MISMATCH ({})", l.moved.join(", "))
            } else if !l.correct {
                "WRONG RESULT".to_string()
            } else {
                "ok".to_string()
            };
            let _ = writeln!(out, "  {:<17} {:<50} {verdict}", l.section, l.key);
        }
        for p in &self.problems {
            let _ = writeln!(out, "FAIL: {p}");
        }
        if !self.failed() {
            let _ = writeln!(out, "OK: {} rows, simulated values unchanged", self.lines.len());
        }
        out
    }
}

/// Compare one section: old rows must persist with every value in
/// place, new rows must be correct.
fn diff_section<T: Keyed>(old: &[T], new: &[T], r: &mut DiffReport) {
    let section = T::SECTION;
    let new: Vec<(String, Pins)> = new.iter().map(|n| (n.key(), pins(n))).collect();
    for (key, _) in new.iter().filter(|(_, np)| !np.correct) {
        r.problems.push(format!("{section}: new row {key} reports correct=false"));
    }
    for row in old {
        let (key, op) = (row.key(), pins(row));
        let Some((_, np)) = new.iter().find(|(k, _)| *k == key) else {
            r.problems.push(format!("{section}: row {key} present in old but missing from new"));
            continue;
        };
        let mut moved = Vec::new();
        for (&(name, o), &(_, n)) in op.values.iter().zip(&np.values) {
            if (n - o).abs() > SIM_REL_EPS * o.abs().max(n.abs()) {
                r.problems.push(format!(
                    "{section}: row {key}: simulated `{name}` moved: {o} -> {n} (pinned exactly; \
                     a move needs a named model or algorithm change and a regenerated baseline)"
                ));
                moved.push(name);
            }
        }
        r.lines.push(DiffLine { section, key, moved, correct: np.correct });
    }
}

/// Compare two parsed artifacts.
pub fn diff_bench(old: &BenchFile, new: &BenchFile) -> DiffReport {
    let mut r = DiffReport::default();
    if old.scale != new.scale {
        r.problems.push(format!(
            "scale mismatch: old `{}` vs new `{}` (rows are only comparable at a fixed scale)",
            old.scale, new.scale
        ));
    }
    if old.seed != new.seed {
        r.problems
            .push(format!("seed mismatch: old {} vs new {}", old.seed, new.seed));
    }
    diff_section(&old.points, &new.points, &mut r);
    diff_section(&old.schedules, &new.schedules, &mut r);
    diff_section(&old.comm_experiments, &new.comm_experiments, &mut r);
    diff_section(&old.scaling, &new.scaling, &mut r);
    r
}

/// End-to-end entry used by `figures -- bench-diff`: parse both
/// documents and compare. `Err` means malformed input (exit 2 in the
/// CLI); a returned report with [`DiffReport::failed`] means drift, a
/// lost row, a wrong result or a configuration mismatch (exit 1).
pub fn bench_diff(old_src: &str, new_src: &str) -> Result<DiffReport, String> {
    let old = parse_bench_file(old_src, "old")?;
    let new = parse_bench_file(new_src, "new")?;
    Ok(diff_bench(&old, &new))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(app: &str, ngpus: usize, sim_s: f64, correct: bool) -> BenchPoint {
        BenchPoint {
            machine: "Supercomputer Node".to_string(),
            app: app.to_string(),
            version: format!("Proposal({ngpus}GPU)"),
            sim_s,
            kernels_s: sim_s * 0.5,
            cpu_gpu_s: sim_s * 0.25,
            gpu_gpu_s: sim_s * 0.25,
            user_peak: 4096,
            system_peak: 64,
            correct,
        }
    }

    fn scaling(app: &str, ngpus: usize, topo: &str, overlap: bool, sim_s: f64, correct: bool) -> ScalingPoint {
        ScalingPoint {
            app: app.to_string(),
            ngpus,
            topo: topo.to_string(),
            overlap,
            sim_s,
            comm_sim_s: sim_s / 4.0,
            cpu_gpu_s: sim_s / 2.0,
            overlap_hidden_s: 0.001,
            p2p_mb: 1.5,
            correct,
        }
    }

    fn comm(mode: &str, comm_sim_s: f64, comm_elisions: u64, matches_annotated: bool) -> CommPoint {
        CommPoint {
            app: "spmv".to_string(),
            mode: mode.to_string(),
            ngpus: 3,
            sim_s: 2.0 * comm_sim_s,
            comm_sim_s,
            p2p_bytes: 4096,
            comm_elisions,
            matches_annotated,
            correct: true,
        }
    }

    fn base() -> BenchFile {
        BenchFile {
            scale: "scaled".to_string(),
            seed: 42,
            points: vec![point("md", 1, 0.5, true), point("md", 2, 0.3, true), point("bfs", 3, 0.2, true)],
            schedules: vec![SchedulePoint {
                app: "bfs-skew".to_string(),
                ngpus: 3,
                sim_s: 0.125,
                comm_sim_s: 0.0625,
                correct: true,
            }],
            comm_experiments: vec![comm("stripped", 0.5, 10, true), comm("stripped-elide", 0.5, 10, true)],
            scaling: vec![
                scaling("heat2d", 16, "flat", false, 0.4, true),
                scaling("heat2d", 16, "cluster", false, 0.3, true),
                scaling("heat2d", 16, "cluster", true, 0.25, true),
            ],
        }
    }

    fn diff(old: &BenchFile, new: &BenchFile) -> DiffReport {
        bench_diff(&old.to_json().to_string_pretty(), &new.to_json().to_string_pretty()).unwrap()
    }

    #[test]
    fn identical_artifacts_pass() {
        let r = diff(&base(), &base());
        assert!(!r.failed(), "{:?}", r.problems);
        assert_eq!(r.lines.len(), 3 + 1 + 2 + 3);
        assert!(r.render().contains("OK: 9 rows"));
    }

    #[test]
    fn sim_time_drift_fails_even_when_faster() {
        let mut new = base();
        new.points[0].sim_s = 0.499999;
        new.points[1].system_peak = 65;
        let r = diff(&base(), &new);
        assert_eq!(r.problems.len(), 2, "{:?}", r.problems);
        assert!(r.problems[0]
            .contains("points: row Supercomputer Node / md / Proposal(1GPU): simulated `sim_s` moved"));
        assert!(r.problems[1].contains("`system_peak` moved: 64 -> 65"));
        assert!(r.render().contains("SIM MISMATCH (sim_s)"));
    }

    #[test]
    fn missing_point_and_wrong_result_fail() {
        let mut new = base();
        new.points.pop();
        new.points[1].correct = false;
        new.schedules[0].correct = false;
        let r = diff(&base(), &new);
        let all = r.problems.join("\n");
        assert!(all.contains("bfs / Proposal(3GPU) present in old but missing"), "{all}");
        assert!(all.contains("md / Proposal(2GPU) reports correct=false"), "{all}");
        assert!(all.contains("schedules: new row bfs-skew x3 reports correct=false"), "{all}");
        assert!(r.render().contains("WRONG RESULT"));
    }

    #[test]
    fn scale_and_seed_mismatch_fail() {
        let mut new = base();
        new.scale = "small".to_string();
        new.seed = 7;
        let r = diff(&base(), &new);
        assert!(r.problems.iter().any(|p| p.contains("scale mismatch")));
        assert!(r.problems.iter().any(|p| p.contains("seed mismatch")));
    }

    #[test]
    fn scaling_sim_drift_missing_point_and_wrong_result_fail() {
        // Cluster point's sim time drifts, overlap point vanishes.
        let mut new = base();
        new.scaling.pop();
        new.scaling[1].sim_s = 0.31;
        let r = diff(&base(), &new);
        let all = r.problems.join("\n");
        assert!(all.contains("scaling: row heat2d x16 cluster: simulated `sim_s` moved"), "{all}");
        assert!(all.contains("heat2d x16 cluster+overlap present in old but missing"), "{all}");

        // A wrong result fails even without a baseline for the point.
        let mut bad = base();
        bad.scaling.push(scaling("pagerank", 64, "cluster", true, 0.2, false));
        let r = diff(&base(), &bad);
        assert_eq!(r.problems.len(), 1, "{:?}", r.problems);
        assert!(r.problems[0].contains("pagerank x64 cluster+overlap reports correct=false"));
    }

    #[test]
    fn comm_experiment_regressions_fail() {
        // Sim drift + lost elisions + lost bit-identity, and one mode gone.
        let mut new = base();
        new.comm_experiments.pop();
        new.comm_experiments[0] = comm("stripped", 0.6, 4, false);
        let r = diff(&base(), &new);
        let all = r.problems.join("\n");
        assert!(all.contains("spmv/stripped x3: simulated `comm_sim_s` moved"), "{all}");
        assert!(all.contains("`comm_elisions` moved: 10 -> 4"), "{all}");
        assert!(all.contains("`matches_annotated` moved: 1 -> 0"), "{all}");
        assert!(all.contains("spmv/stripped-elide x3 present in old but missing"), "{all}");
    }

    #[test]
    fn malformed_input_is_an_error_not_a_report() {
        let good = base().to_json().to_string_pretty();
        assert!(bench_diff("{", &good).is_err());
        assert!(bench_diff("{\"scale\": \"s\"}", &good).unwrap_err().contains("old: bad `seed`"));
        let bad_field = good.replace("\"sim_s\": 0.125", "\"sim_s\": \"fast\"");
        assert_eq!(bench_diff(&good, &bad_field).unwrap_err(), "new: schedules[0]: bad `sim_s`");
        let negative = good.replace("\"user_peak\": 4096", "\"user_peak\": -1");
        assert!(bench_diff(&negative, &good).unwrap_err().contains("old: points[0]: bad `user_peak`"));
    }

    #[test]
    fn a_baseline_without_scaling_or_comm_experiments_is_malformed() {
        let good = base().to_json();
        for section in ["points", "schedules", "comm_experiments", "scaling"] {
            let Value::Obj(mut fields) = good.clone() else { unreachable!() };
            fields.remove(section);
            let cut = Value::Obj(fields).to_string_pretty();
            assert_eq!(
                bench_diff(&cut, &good.to_string_pretty()).unwrap_err(),
                format!("old: missing section `{section}`")
            );
        }
    }

    #[test]
    fn real_bench_runtime_artifact_round_trips() {
        // What `figures bench` writes is what the parser reads back,
        // field for field.
        let file = base();
        let doc = file.to_json().to_string_pretty();
        assert_eq!(parse_bench_file(&doc, "artifact").unwrap(), file);
    }
}
