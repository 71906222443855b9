//! The `figures` command line refuses what it cannot run: an unknown
//! target, a seed that is not a number or a `--json` without a path
//! exits 2 with the usage text, instead of printing nothing, running
//! another seed or writing no file.

use std::process::{Command, Output};

fn figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("figures starts")
}

fn assert_refused(args: &[&str]) {
    let out = figures(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains("usage: figures"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed a result");
}

#[test]
fn an_unknown_target_exits_2_with_the_usage_text() {
    assert_refused(&["fig77", "--scale", "small"]);
}

#[test]
fn a_seed_that_is_not_a_number_exits_2_with_the_usage_text() {
    assert_refused(&["table1", "--seed", "abc"]);
    assert_refused(&["table1", "--seed"]);
}

#[test]
fn an_unknown_scale_exits_2_with_the_usage_text() {
    assert_refused(&["table1", "--scale", "huge"]);
}

#[test]
fn a_json_flag_without_a_path_exits_2_with_the_usage_text() {
    assert_refused(&["table1", "--scale", "small", "--json"]);
    assert_refused(&["table1", "--json"]);
}

#[test]
fn a_known_target_and_seed_still_run() {
    let out = figures(&["table1", "--scale", "small", "--seed", "7"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("Table I"));
    assert_eq!(figures(&["--help"]).status.code(), Some(0));
}
