//! `figures` — regenerate the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p acc-bench --bin figures -- all
//! cargo run --release -p acc-bench --bin figures -- fig7 --scale scaled
//! cargo run --release -p acc-bench --bin figures -- table2 --scale paper --json out.json
//! cargo run --release -p acc-bench --bin figures -- trace --json heat2d.trace.json
//! ```
//!
//! Targets: `table1`, `table2`, `fig7`, `fig8`, `fig9`, `ablation-chunk`,
//! `ablation-layout`, `ablation-placement`, `ablation-loader-reuse`,
//! `extension-stencil`, `trace`, `bench`, `bench-diff`, `all`.
//! Scales: `small` (seconds), `scaled` (default; structure-preserving
//! reductions of the paper inputs), `paper` (full published sizes).
//!
//! The `trace` target runs the heat2d stencil on 3 simulated GPUs with
//! full span tracing and writes a Chrome trace-event file (open it in
//! `chrome://tracing` or <https://ui.perfetto.dev>) next to the phase
//! summary table.
//!
//! The `bench` target runs the evaluation matrix behind Figs. 7–9 plus
//! the scheduler, comm-experiment and scaling rows and writes every
//! simulated value as `BENCH_runtime.json` (see `docs/benchmarks.md`;
//! the committed baselines are `BENCH_runtime.json` at `small` and
//! `BENCH_runtime_scaled.json` at `scaled`). `bench-diff <old.json>
//! <new.json>` compares two such artifacts exactly and exits 1 on any
//! drift, lost row, wrong result or scale/seed mismatch, 2 on malformed
//! input. Host wall-clock is not measured here: that is `accbench`
//! (`benchmarks/`).

use acc_apps::Scale;
use acc_bench::*;
use acc_obs::json::Value;
use std::fmt::Write as _;

struct Args {
    target: String,
    scale: Scale,
    json: Option<String>,
    seed: u64,
    /// Positional arguments after the target (`bench-diff` file paths).
    free: Vec<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        target: "all".to_string(),
        scale: Scale::Scaled,
        json: None,
        seed: 42,
        free: Vec::new(),
    };
    let mut have_target = false;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                args.scale = match it.next().as_deref() {
                    Some("small") => Scale::Small,
                    Some("scaled") => Scale::Scaled,
                    Some("paper") => Scale::Paper,
                    other => {
                        eprintln!("unknown scale {other:?}");
                        std::process::exit(2);
                    }
                }
            }
            "--json" => args.json = it.next(),
            "--seed" => args.seed = it.next().and_then(|s| s.parse().ok()).unwrap_or(42),
            "--help" | "-h" => {
                eprintln!(
                    "usage: figures [table1|table2|fig7|fig8|fig9|ablation-chunk|\
                     ablation-layout|ablation-placement|ablation-loader-reuse|\
                     extension-stencil|trace|bench|all] [--scale small|scaled|paper] \
                     [--json FILE] [--seed N]\n\
                     \x20      figures bench-diff <old.json> <new.json>"
                );
                std::process::exit(0);
            }
            t if !have_target => {
                args.target = t.to_string();
                have_target = true;
            }
            t => args.free.push(t.to_string()),
        }
    }
    args
}

/// The `bench-diff` target: compare two `BENCH_runtime.json` artifacts.
/// Exit 0 when clean, 1 on a failed comparison (simulated-value drift,
/// missing row, scale/seed mismatch, wrong result), 2 on malformed
/// input.
fn run_bench_diff_target(args: &Args) -> ! {
    let [old_path, new_path] = args.free.as_slice() else {
        eprintln!("usage: figures bench-diff <old.json> <new.json>");
        std::process::exit(2);
    };
    let read = |p: &str| {
        std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("bench-diff: cannot read {p}: {e}");
            std::process::exit(2);
        })
    };
    let (old_doc, new_doc) = (read(old_path), read(new_path));
    match bench_diff(&old_doc, &new_doc) {
        Ok(report) => {
            print!("{}", report.render());
            std::process::exit(if report.failed() { 1 } else { 0 });
        }
        Err(e) => {
            eprintln!("bench-diff: {e}");
            std::process::exit(2);
        }
    }
}

/// The `trace` target: heat2d on 3 simulated GPUs with span-level
/// tracing; prints the summary table and writes the Chrome trace.
fn run_trace_target(args: &Args) {
    use acc_compiler::CompileOptions;
    use acc_gpusim::Machine;
    use acc_runtime::prelude::*;

    let cfg = match args.scale {
        Scale::Small => acc_apps::heat2d::Heat2dConfig::small(),
        _ => acc_apps::heat2d::Heat2dConfig::scaled(),
    };
    let input = acc_apps::heat2d::generate(&cfg, args.seed);
    let prog = acc_compiler::compile_source(
        acc_apps::heat2d::SOURCE,
        acc_apps::heat2d::FUNCTION,
        &CompileOptions::proposal(),
    )
    .unwrap();
    let mut m = Machine::supercomputer_node();
    let (scalars, arrays) = acc_apps::heat2d::inputs(&input);
    let ec = ExecConfig::gpus(3).tracing(TraceLevel::Spans);
    let r = match run_program(&mut m, &ec, &prog, scalars, arrays) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("figures: trace run failed: [{}] {e}", e.code());
            std::process::exit(1);
        }
    };
    print!("{}", r.trace.summary_table());
    let path = args
        .json
        .clone()
        .unwrap_or_else(|| "heat2d.trace.json".to_string());
    std::fs::write(&path, r.trace.chrome_trace()).expect("write trace");
    eprintln!("wrote Chrome trace to {path} (open in chrome://tracing or ui.perfetto.dev)");
}

/// The `bench` target: every pinned simulated value at one scale and
/// seed, printed as tables and written as `BENCH_runtime.json`.
fn run_bench_target(args: &Args) {
    let file = bench_runtime(args.scale, args.seed, true);
    println!(
        "  {:<20} {:<13} {:<15} {:>12} {:>12} {:>12} {:>12} {:>10} {:>10} {:>8}",
        "Machine", "App", "Version", "sim time", "kernels", "cpu-gpu", "gpu-gpu", "user MB",
        "system MB", "correct"
    );
    for p in &file.points {
        println!(
            "  {:<20} {:<13} {:<15} {:>11.6}s {:>11.6}s {:>11.6}s {:>11.6}s {:>10.2} {:>10.3} {:>8}",
            p.machine,
            p.app,
            p.version,
            p.sim_s,
            p.kernels_s,
            p.cpu_gpu_s,
            p.gpu_gpu_s,
            p.user_peak as f64 / 1e6,
            p.system_peak as f64 / 1e6,
            p.correct
        );
    }
    println!(
        "  {:<13} {:>5} {:>12} {:>12} {:>8}",
        "Schedule", "GPUs", "sim time", "comm sim", "correct"
    );
    for p in &file.schedules {
        println!(
            "  {:<13} {:>5} {:>11.6}s {:>11.6}s {:>8}",
            p.app, p.ngpus, p.sim_s, p.comm_sim_s, p.correct
        );
    }
    println!(
        "  {:<8} {:<15} {:>5} {:>12} {:>12} {:>10} {:>8} {:>8} {:>8}",
        "App", "Mode", "GPUs", "sim time", "comm sim", "p2p MB", "elided", "matches", "correct"
    );
    for c in &file.comm_experiments {
        println!(
            "  {:<8} {:<15} {:>5} {:>11.6}s {:>11.6}s {:>10.2} {:>8} {:>8} {:>8}",
            c.app,
            c.mode,
            c.ngpus,
            c.sim_s,
            c.comm_sim_s,
            c.p2p_bytes as f64 / 1e6,
            c.comm_elisions,
            c.matches_annotated,
            c.correct
        );
    }
    println!(
        "  {:<8} {:>5} {:<8} {:>8} {:>12} {:>12} {:>12} {:>12} {:>10} {:>8}",
        "App", "GPUs", "Topo", "overlap", "sim time", "comm sim", "cpu-gpu", "hidden", "p2p MB",
        "correct"
    );
    for s in &file.scaling {
        println!(
            "  {:<8} {:>5} {:<8} {:>8} {:>11.6}s {:>11.6}s {:>11.6}s {:>11.6}s {:>10.2} {:>8}",
            s.app,
            s.ngpus,
            s.topo,
            s.overlap,
            s.sim_s,
            s.comm_sim_s,
            s.cpu_gpu_s,
            s.overlap_hidden_s,
            s.p2p_mb,
            s.correct
        );
    }
    let path = args
        .json
        .clone()
        .unwrap_or_else(|| "BENCH_runtime.json".to_string());
    std::fs::write(&path, file.to_json().to_string_pretty()).expect("write bench json");
    eprintln!("wrote {path}");
}

fn main() {
    let args = parse_args();
    if args.target == "trace" {
        run_trace_target(&args);
        return;
    }
    if args.target == "bench" {
        run_bench_target(&args);
        return;
    }
    if args.target == "bench-diff" {
        run_bench_diff_target(&args);
    }
    let mut out: Vec<(&'static str, Value)> = Vec::new();
    let all = args.target == "all";
    let mut text = String::new();

    if all || args.target == "table1" {
        let t = table1();
        let _ = writeln!(text, "== Table I: machine settings ==");
        for r in &t {
            let _ = writeln!(
                text,
                "  {:<20} CPU: {:<28} OMP threads: {:<3} GPUs: {:<18} {:>4.1} GB each  \
                 PCIe {:.1}/{:.1} GB/s (h2d/p2p)",
                r.machine, r.cpu, r.omp_threads, r.gpus, r.gpu_mem_gb, r.h2d_gbs, r.p2p_gbs
            );
        }
        out.push((
            "table1",
            Value::Arr(
                t.iter()
                    .map(|r| {
                        Value::obj([
                            ("machine", Value::str(&r.machine)),
                            ("cpu", Value::str(&r.cpu)),
                            ("omp_threads", Value::num(r.omp_threads as f64)),
                            ("gpus", Value::str(&r.gpus)),
                            ("gpu_mem_gb", Value::num(r.gpu_mem_gb)),
                            ("h2d_gbs", Value::num(r.h2d_gbs)),
                            ("p2p_gbs", Value::num(r.p2p_gbs)),
                        ])
                    })
                    .collect(),
            ),
        ));
    }

    if all || args.target == "table2" {
        let t = table2(args.scale);
        let _ = writeln!(text, "\n== Table II: application characteristics ==");
        let _ = writeln!(
            text,
            "  {:<8} {:<16} {:<28} {:>10} {:>3} {:>4} {:>6} {:>8}",
            "App", "Description", "Input", "A(MB)", "B", "C", "D", "correct"
        );
        for r in &t {
            let _ = writeln!(
                text,
                "  {:<8} {:<16} {:<28} {:>10.1} {:>3} {:>4} {:>6} {:>8}",
                r.app,
                r.description,
                r.input,
                r.device_mb,
                r.parallel_loops,
                r.kernel_execs,
                r.localaccess,
                r.correct
            );
        }
        out.push((
            "table2",
            Value::Arr(
                t.iter()
                    .map(|r| {
                        Value::obj([
                            ("app", Value::str(&r.app)),
                            ("description", Value::str(&r.description)),
                            ("input", Value::str(&r.input)),
                            ("device_mb", Value::num(r.device_mb)),
                            ("parallel_loops", Value::num(r.parallel_loops as f64)),
                            ("kernel_execs", Value::num(r.kernel_execs as f64)),
                            ("localaccess", Value::str(&r.localaccess)),
                            ("correct", Value::Bool(r.correct)),
                        ])
                    })
                    .collect(),
            ),
        ));
    }

    // Figs. 7–9 share one evaluation matrix (every machine × app ×
    // version run exactly once).
    let matrix = if all || ["fig7", "fig8", "fig9"].contains(&args.target.as_str()) {
        Some(run_matrix(args.scale, args.seed, true))
    } else {
        None
    };

    if all || args.target == "fig7" {
        let t = fig7_from(matrix.as_deref().unwrap());
        let _ = writeln!(
            text,
            "\n== Fig. 7: relative performance (normalised to OpenMP) =="
        );
        let mut cur = String::new();
        for b in &t {
            let hdr = format!("{} / {}", b.machine, b.app);
            if hdr != cur {
                let _ = writeln!(text, "  -- {hdr} --");
                cur = hdr;
            }
            let _ = writeln!(
                text,
                "    {:<18} {:>6.2}x {}",
                b.version,
                b.relative_perf,
                if b.correct { "" } else { "  !! WRONG RESULT" }
            );
        }
        out.push((
            "fig7",
            Value::Arr(
                t.iter()
                    .map(|b| {
                        Value::obj([
                            ("machine", Value::str(&b.machine)),
                            ("app", Value::str(&b.app)),
                            ("version", Value::str(&b.version)),
                            ("relative_perf", Value::num(b.relative_perf)),
                            ("correct", Value::Bool(b.correct)),
                        ])
                    })
                    .collect(),
            ),
        ));
    }

    if all || args.target == "fig8" {
        let t = fig8_from(matrix.as_deref().unwrap());
        let _ = writeln!(
            text,
            "\n== Fig. 8: execution-time breakdown (normalised to 1-GPU total) =="
        );
        let mut cur = String::new();
        for b in &t {
            let hdr = format!("{} / {}", b.machine, b.app);
            if hdr != cur {
                let _ = writeln!(text, "  -- {hdr} --");
                cur = hdr;
            }
            let _ = writeln!(
                text,
                "    {} GPU: KERNELS {:>5.2}  CPU-GPU {:>5.2}  GPU-GPU {:>5.2}  | total {:>5.2}",
                b.ngpus,
                b.kernels,
                b.cpu_gpu,
                b.gpu_gpu,
                b.kernels + b.cpu_gpu + b.gpu_gpu
            );
        }
        out.push((
            "fig8",
            Value::Arr(
                t.iter()
                    .map(|b| {
                        Value::obj([
                            ("machine", Value::str(&b.machine)),
                            ("app", Value::str(&b.app)),
                            ("ngpus", Value::num(b.ngpus as f64)),
                            ("kernels", Value::num(b.kernels)),
                            ("cpu_gpu", Value::num(b.cpu_gpu)),
                            ("gpu_gpu", Value::num(b.gpu_gpu)),
                        ])
                    })
                    .collect(),
            ),
        ));
    }

    if all || args.target == "fig9" {
        let t = fig9_from(matrix.as_deref().unwrap());
        let _ = writeln!(
            text,
            "\n== Fig. 9: device memory usage (normalised to 1-GPU user data) =="
        );
        let mut cur = String::new();
        for b in &t {
            let hdr = format!("{} / {}", b.machine, b.app);
            if hdr != cur {
                let _ = writeln!(text, "  -- {hdr} --");
                cur = hdr;
            }
            let _ = writeln!(
                text,
                "    {} GPU: User {:>6.3}  System {:>7.4} ({:.2}% of 1-GPU user data)",
                b.ngpus,
                b.user,
                b.system,
                b.system * 100.0
            );
        }
        out.push((
            "fig9",
            Value::Arr(
                t.iter()
                    .map(|b| {
                        Value::obj([
                            ("machine", Value::str(&b.machine)),
                            ("app", Value::str(&b.app)),
                            ("ngpus", Value::num(b.ngpus as f64)),
                            ("user", Value::num(b.user)),
                            ("system", Value::num(b.system)),
                        ])
                    })
                    .collect(),
            ),
        ));
    }

    if all || args.target == "ablation-chunk" {
        let t = ablation_chunk(args.scale, args.seed);
        let _ = writeln!(
            text,
            "\n== Ablation §IV-D1: dirty-bit chunk size (BFS, node, 3 GPUs) =="
        );
        let mut cur = String::new();
        for p in &t {
            if p.workload != cur {
                let _ = writeln!(text, "  -- {} --", p.workload);
                cur = p.workload.clone();
            }
            let _ = writeln!(
                text,
                "    chunk {:>6} KB: GPU-GPU {:>9.5}s  total {:>9.4}s  chunks sent {:>8}  p2p {:>8.2} MB",
                p.chunk_kb, p.gpu_gpu_time, p.total_time, p.dirty_chunks_sent, p.p2p_mb
            );
        }
        out.push((
            "ablation_chunk",
            Value::Arr(
                t.iter()
                    .map(|p| {
                        Value::obj([
                            ("workload", Value::str(&p.workload)),
                            ("chunk_kb", Value::num(p.chunk_kb as f64)),
                            ("gpu_gpu_time", Value::num(p.gpu_gpu_time)),
                            ("total_time", Value::num(p.total_time)),
                            ("dirty_chunks_sent", Value::num(p.dirty_chunks_sent as f64)),
                            ("p2p_mb", Value::num(p.p2p_mb)),
                        ])
                    })
                    .collect(),
            ),
        ));
    }

    if all || args.target == "ablation-layout" {
        let t = ablation_layout(args.scale, args.seed);
        let _ = writeln!(
            text,
            "\n== Ablation §IV-B4: 2-D layout transform (desktop, 2 GPUs) =="
        );
        for p in &t {
            let _ = writeln!(
                text,
                "  {:<8} transform={:<5}  kernels {:>9.4}s  total {:>9.4}s  correct {}",
                p.app, p.transform, p.kernels_time, p.total_time, p.correct
            );
        }
        out.push((
            "ablation_layout",
            Value::Arr(
                t.iter()
                    .map(|p| {
                        Value::obj([
                            ("app", Value::str(&p.app)),
                            ("transform", Value::Bool(p.transform)),
                            ("kernels_time", Value::num(p.kernels_time)),
                            ("total_time", Value::num(p.total_time)),
                            ("correct", Value::Bool(p.correct)),
                        ])
                    })
                    .collect(),
            ),
        ));
    }

    if all || args.target == "ablation-placement" {
        let t = ablation_placement(args.scale, args.seed);
        let _ = writeln!(
            text,
            "\n== Ablation §IV-C: distribution vs replica placement (desktop, 2 GPUs) =="
        );
        for p in &t {
            let _ = writeln!(
                text,
                "  {:<8} distribution={:<5}  h2d {:>8.1} MB  user mem {:>8.1} MB  total {:>9.4}s  \
                 correct {}",
                p.app, p.distribution, p.h2d_mb, p.user_mem_mb, p.total_time, p.correct
            );
        }
        out.push((
            "ablation_placement",
            Value::Arr(
                t.iter()
                    .map(|p| {
                        Value::obj([
                            ("app", Value::str(&p.app)),
                            ("distribution", Value::Bool(p.distribution)),
                            ("h2d_mb", Value::num(p.h2d_mb)),
                            ("total_time", Value::num(p.total_time)),
                            ("user_mem_mb", Value::num(p.user_mem_mb)),
                            ("correct", Value::Bool(p.correct)),
                        ])
                    })
                    .collect(),
            ),
        ));
    }

    if all || args.target == "ablation-loader-reuse" {
        let t = ablation_loader_reuse(args.scale, args.seed);
        let _ = writeln!(
            text,
            "\n== Ablation §IV-C: loader reload-skipping (desktop, 2 GPUs) =="
        );
        for p in &t {
            let _ = writeln!(
                text,
                "  {:<8} reuse={:<5}  h2d {:>8.1} MB  cpu-gpu {:>9.4}s  total {:>9.4}s  correct {}",
                p.app, p.reuse, p.h2d_mb, p.cpu_gpu_time, p.total_time, p.correct
            );
        }
        out.push((
            "ablation_loader_reuse",
            Value::Arr(
                t.iter()
                    .map(|p| {
                        Value::obj([
                            ("app", Value::str(&p.app)),
                            ("reuse", Value::Bool(p.reuse)),
                            ("h2d_mb", Value::num(p.h2d_mb)),
                            ("cpu_gpu_time", Value::num(p.cpu_gpu_time)),
                            ("total_time", Value::num(p.total_time)),
                            ("correct", Value::Bool(p.correct)),
                        ])
                    })
                    .collect(),
            ),
        ));
    }

    if all || args.target == "extension-stencil" {
        let t = extension_stencil(args.scale, args.seed);
        let _ = writeln!(
            text,
            "\n== Extension §VI: 2-D heat stencil via 1-D row distribution =="
        );
        let mut cur = String::new();
        for p in &t {
            if p.machine != cur {
                let _ = writeln!(text, "  -- {} --", p.machine);
                cur = p.machine.clone();
            }
            let _ = writeln!(
                text,
                "    {} GPU: {:>5.2}x vs 1 GPU | kernels {:>8.4}s cpu-gpu {:>8.4}s \
                 gpu-gpu {:>8.4}s | halo p2p {:>7.1} MB | miss checks {:>9}{}",
                p.ngpus,
                p.relative_perf_vs_1gpu,
                p.kernels_time,
                p.cpu_gpu_time,
                p.gpu_gpu_time,
                p.p2p_mb,
                p.miss_checks,
                if p.correct { "" } else { "  !! WRONG" }
            );
        }
        out.push((
            "extension_stencil",
            Value::Arr(
                t.iter()
                    .map(|p| {
                        Value::obj([
                            ("machine", Value::str(&p.machine)),
                            ("ngpus", Value::num(p.ngpus as f64)),
                            ("relative_perf_vs_1gpu", Value::num(p.relative_perf_vs_1gpu)),
                            ("kernels_time", Value::num(p.kernels_time)),
                            ("cpu_gpu_time", Value::num(p.cpu_gpu_time)),
                            ("gpu_gpu_time", Value::num(p.gpu_gpu_time)),
                            ("p2p_mb", Value::num(p.p2p_mb)),
                            ("miss_checks", Value::num(p.miss_checks as f64)),
                            ("correct", Value::Bool(p.correct)),
                        ])
                    })
                    .collect(),
            ),
        ));
    }

    print!("{text}");
    if let Some(path) = args.json {
        let json = Value::obj(out).to_string_pretty();
        std::fs::write(&path, json).expect("write json");
        eprintln!("wrote {path}");
    }
}
