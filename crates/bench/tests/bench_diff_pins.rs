//! `bench-diff` pins every recorded field of the four pinned sections:
//! on the committed `BENCH_runtime.json`, changing any one field that is
//! neither text, `correct` nor part of the row's key fails the diff with
//! that field's name, and changing a key field loses the row. The lists
//! below are the fields each section records; a field added to a row
//! must be added here, and so be shown pinned.

use acc_bench::bench_diff;
use acc_obs::json::{self, Value};
use std::collections::BTreeMap;

/// Per section: the number and flag fields of its key, then its pinned
/// fields.
const SECTIONS: [(&str, &[&str], &[&str]); 4] = [
    ("points", &[], &["sim_s", "kernels_s", "cpu_gpu_s", "gpu_gpu_s", "user_peak", "system_peak"]),
    ("schedules", &["ngpus"], &["sim_s", "comm_sim_s"]),
    (
        "comm_experiments",
        &["ngpus"],
        &["sim_s", "comm_sim_s", "p2p_bytes", "comm_elisions", "matches_annotated"],
    ),
    ("scaling", &["ngpus", "overlap"], &["sim_s", "comm_sim_s", "cpu_gpu_s", "overlap_hidden_s", "p2p_mb"]),
];

fn committed() -> Value {
    let path = format!("{}/../../BENCH_runtime.json", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    json::parse(&src).unwrap()
}

/// The first row of `section`, mutably.
fn first_row<'a>(doc: &'a mut Value, section: &str) -> &'a mut BTreeMap<String, Value> {
    let Value::Obj(top) = doc else { panic!("the artifact is not an object") };
    let Some(Value::Arr(rows)) = top.get_mut(section) else { panic!("no section `{section}`") };
    let Some(Value::Obj(row)) = rows.first_mut() else { panic!("`{section}` has no object row") };
    row
}

/// `doc` with one field of the first row of `section` changed.
fn changed(doc: &Value, section: &str, field: &str) -> String {
    let mut doc = doc.clone();
    let value = first_row(&mut doc, section).get_mut(field).unwrap();
    *value = match value {
        Value::Num(n) => Value::Num(*n + 1.0),
        Value::Bool(b) => Value::Bool(!*b),
        other => panic!("{section}.{field} is {other:?}"),
    };
    doc.to_string_pretty()
}

#[test]
fn a_change_to_any_recorded_field_fails_with_its_name() {
    let good = committed();
    let good_src = good.to_string_pretty();
    for (section, key, pinned) in SECTIONS {
        let mut doc = good.clone();
        let mut recorded: Vec<&str> = first_row(&mut doc, section)
            .iter()
            .filter(|(name, v)| *name != "correct" && !matches!(v, Value::Str(_)))
            .map(|(name, _)| name.as_str())
            .collect();
        let mut listed = [key, pinned].concat();
        recorded.sort_unstable();
        listed.sort_unstable();
        assert_eq!(recorded, listed, "{section}: recorded numbers and flags");

        for &field in pinned {
            let r = bench_diff(&good_src, &changed(&good, section, field)).unwrap();
            let moved = format!("simulated `{field}` moved");
            assert!(
                r.failed() && r.problems.iter().any(|p| p.starts_with(section) && p.contains(&moved)),
                "{section}.{field}: {:?}",
                r.problems
            );
        }
        for &field in key {
            let r = bench_diff(&good_src, &changed(&good, section, field)).unwrap();
            assert!(
                r.problems.iter().any(|p| p.starts_with(section) && p.contains("missing from new")),
                "{section}.{field}: {:?}",
                r.problems
            );
        }
    }
}
