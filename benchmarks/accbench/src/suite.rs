//! `accbench all`: every workload, each run in a child process of its own
//! (so `peak_rss_mb` and caches belong to one workload), `--runs` untraced
//! runs for the end-to-end metrics and then one traced run for the
//! per-layer metrics and the spans.
//!
//! With `--versus <other accbench>` the untraced runs alternate between
//! this build and the other, swapping which goes first each round
//! (choosing-metrics §8): this box has minutes-long episodes in which
//! two-thread work runs 20–30 % slower, and two suites run one after the
//! other put such an episode on one side only.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use crate::results::{Results, RunLine, WorkloadResult};
use crate::spec::Spec;
use crate::{stats, Flags};

/// One build under measurement and where its results go.
struct Side {
    exe: PathBuf,
    out: PathBuf,
    results: Results,
}

impl Side {
    /// Run `accbench run …` as a child and parse its last line. The
    /// child's own rows are dropped; the suite prints medians instead.
    fn run(&self, workload: &str, trace: bool) -> Result<RunLine, String> {
        let mut cmd = Command::new(&self.exe);
        cmd.args(["run", "--workload", workload, "--fill", "0"])
            .args(["--seed", &self.results.seed.to_string()])
            .args(["--seconds", &self.results.seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit());
        if trace {
            cmd.arg("--out").arg(&self.out);
        }
        // `output` waits for the child to end.
        let output = cmd
            .output()
            .map_err(|e| format!("{}: {e}", self.exe.display()))?;
        if !output.status.success() {
            return Err(format!("{workload}: child exited with {}", output.status));
        }
        let stdout = String::from_utf8_lossy(&output.stdout);
        let last = stdout
            .lines()
            .last()
            .ok_or_else(|| format!("{workload}: child printed nothing"))?;
        RunLine::parse(last).map_err(|e| format!("{workload}: {e}"))
    }
}

fn print_rows(exe: &Path, workload: &str, w: &WorkloadResult) {
    println!("# {workload} on {}", exe.display());
    for (name, s) in &w.metrics {
        let median = stats::median(&s.values).unwrap_or(0.0);
        match stats::quartiles(&s.values) {
            Some((q1, q3)) => println!(
                "{workload} {name} {median} {} q1={q1} q3={q3} n={}",
                s.unit,
                s.values.len()
            ),
            None => println!("{workload} {name} {median} {}", s.unit),
        }
    }
    println!("{workload} failed_share {} ratio", w.failed_share());
}

pub fn all(flags: &Flags) -> Result<ExitCode, String> {
    let spec = Spec::load();
    let runs: u64 = flags.num("runs", 5)?;
    if runs == 0 {
        return Err("--runs must be at least 1".into());
    }
    let settings = Results {
        seed: flags.num("seed", 42)?,
        seconds: flags.num("seconds", spec.run_seconds as f64)?,
        runs,
        host_cpus: std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
        workloads: BTreeMap::new(),
    };
    let out = PathBuf::from(flags.get("out").unwrap_or("benchmarks/out"));
    let mut sides = vec![Side {
        exe: std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?,
        out: out.clone(),
        results: settings.clone(),
    }];
    if let Some(other) = flags.get("versus") {
        sides.push(Side {
            exe: PathBuf::from(other),
            out: out.join("versus"),
            results: settings.clone(),
        });
    }
    for side in &sides {
        std::fs::create_dir_all(&side.out).map_err(|e| format!("{}: {e}", side.out.display()))?;
    }
    println!(
        "# accbench all: seed {}, {runs} runs x {} s per workload, {} host cpus",
        settings.seed, settings.seconds, settings.host_cpus
    );

    for workload in &spec.workloads {
        let mut acc: Vec<WorkloadResult> = sides
            .iter()
            .map(|_| WorkloadResult {
                correct: true,
                ..WorkloadResult::default()
            })
            .collect();
        for round in 0..runs {
            let mut order: Vec<usize> = (0..sides.len()).collect();
            if round % 2 == 1 {
                order.reverse();
            }
            for i in order {
                acc[i].absorb(&sides[i].run(workload, false)?);
            }
        }
        for (side, mut w) in sides.iter_mut().zip(acc) {
            w.absorb(&side.run(workload, true)?);
            print_rows(&side.exe, workload, &w);
            side.results.workloads.insert(workload.clone(), w);
        }
    }

    let mut clean = true;
    for side in &sides {
        let path = side.out.join("results.json");
        side.results.write(&path)?;
        println!("# wrote {}", path.display());
        clean &= side
            .results
            .workloads
            .values()
            .all(|w| w.correct && w.failed == 0);
    }
    Ok(if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
