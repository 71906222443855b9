//! `accbench` — the two-clock benchmark of the OpenACC multi-GPU
//! pipeline (`minic` → `accc` → `kernel-ir` → `accrt` → `gpusim` → `obs` /
//! `serve`). See `benchmarks/README.md`.
//!
//! ```text
//! accbench run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! accbench all [--seed 42] [--seconds S] [--runs 5] [--out benchmarks/out] [--versus <accbench>]
//! accbench compare <a/results.json> <b/results.json>
//! ```
//!
//! `run` measures one workload in this process and prints, as its last
//! line, the JSON object the PR driver reads. `all` runs every workload
//! in child processes of its own and writes `results.json` (with
//! `--versus`, interleaved with another build's runs, whose results go to
//! `<out>/versus/`); `compare` applies the bounds of `BENCHMARK.json` to
//! two such files.

mod compare;
mod results;
mod spans;
mod spec;
mod stats;
mod suite;
mod util;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use acc_obs::json::Value;

use spec::Spec;
use workloads::{RunArgs, RunOutput, Size};

const USAGE: &str = "usage:
  accbench run --workload <name> --seed <n> --seconds <s> --trace <0|1> [--fill <0|1>] [--out <dir>]
  accbench all [--seed <n>] [--seconds <s>] [--runs <n>] [--out <dir>] [--versus <other accbench>]
  accbench compare <a/results.json> <b/results.json>";

/// `--key value` pairs after the subcommand.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let name = key
                .strip_prefix("--")
                .ok_or_else(|| format!("expected a --flag, got {key:?}"))?;
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            pairs.push((name.to_string(), value.clone()));
        }
        Ok(Flags(pairs))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot read {v:?}")),
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let words: Vec<&str> = args.iter().map(String::as_str).collect();
    let outcome = match words.as_slice() {
        ["run", ..] => Flags::parse(&args[1..]).and_then(|f| run(&f)),
        ["all", ..] => Flags::parse(&args[1..]).and_then(|f| suite::all(&f)),
        ["compare", a, b] => compare::files(a.as_ref(), b.as_ref()),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("accbench: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run(flags: &Flags) -> Result<ExitCode, String> {
    let spec = Spec::load();
    let workload = flags.get("workload").ok_or("--workload is required")?;
    if !spec.workloads.iter().any(|w| w == workload) {
        return Err(format!(
            "unknown workload {workload:?} (expected one of {})",
            spec.workloads.join(", ")
        ));
    }
    let seconds: f64 = flags.num("seconds", spec.run_seconds as f64)?;
    if !(0.0..=60.0).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 0..=60"));
    }
    let args = RunArgs {
        seed: flags.num("seed", 42)?,
        seconds,
        trace: flags.num::<u8>("trace", 0)? != 0,
        size: Size::Full,
    };
    let fill = flags.num::<u8>("fill", 1)? != 0;
    let out = workloads::run(workload, &args)?;
    if let (Some(dir), Some(spans)) = (flags.get("out"), &out.spans) {
        let dir = PathBuf::from(dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("{workload}.spans.json"));
        std::fs::write(&path, spans.to_json().to_string_pretty())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let line = result_line(&spec, workload, &args, &out, fill)?;
    println!("{line}");
    Ok(ExitCode::SUCCESS)
}

/// Print every metric as `workload metric value unit`, and build the
/// result object: every end-to-end metric of `BENCHMARK.json` for an
/// untraced run, every per-layer metric for a traced one. With `fill`, a
/// per-layer metric the workload does not exercise reads 0, because the
/// driver expects every name on every workload.
fn result_line(
    spec: &Spec,
    workload: &str,
    args: &RunArgs,
    out: &RunOutput,
    fill: bool,
) -> Result<String, String> {
    let defs = if args.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    if let Some(stray) = out
        .metrics
        .names()
        .find(|n| !defs.iter().any(|d| d.name == *n))
    {
        return Err(format!(
            "metric {stray:?} is not registered in BENCHMARK.json"
        ));
    }
    let mut metrics = std::collections::BTreeMap::new();
    for d in defs {
        let value = match out.metrics.get(&d.name) {
            Some(v) => v,
            None if args.trace && fill => 0.0,
            None if args.trace => continue,
            None => {
                return Err(format!(
                    "{workload}: end-to-end metric {} is missing",
                    d.name
                ))
            }
        };
        println!("{workload} {} {value} {}", d.name, d.unit);
        metrics.insert(
            d.name.clone(),
            Value::obj([
                ("value", Value::num(value)),
                ("unit", Value::str(d.unit.clone())),
            ]),
        );
    }
    Ok(Value::obj([
        ("correct", Value::Bool(out.correct)),
        ("attempted", Value::num(out.attempted as f64)),
        ("failed", Value::num(out.failed as f64)),
        ("metrics", Value::Obj(metrics)),
    ])
    .to_string_compact())
}

#[cfg(test)]
mod smoke;
