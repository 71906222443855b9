//! Counters that add up, asserted as pure functions of the committed
//! `BENCH_runtime.json` and `BENCH_runtime_scaled.json`: the Fig. 8
//! phases of a row are its simulated time, the phases of a `scaling`
//! row fit inside it, and what an overlap row reports as hidden is what
//! it saves against its no-overlap twin. No app runs here; a pricing or
//! counter change that breaks the ledger shows when the files are
//! regenerated for it.

use acc_bench::{parse_bench_file, BenchFile, ScalingPoint};

const FILES: [&str; 2] = ["BENCH_runtime.json", "BENCH_runtime_scaled.json"];

fn committed(name: &str) -> BenchFile {
    let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    parse_bench_file(&src, name).unwrap()
}

/// Fig. 8: KERNELS + CPU-GPU + GPU-GPU is the row's parallel-region time.
#[test]
fn fig8_phases_sum_to_sim_s() {
    for name in FILES {
        for p in &committed(name).points {
            let sum = p.kernels_s + p.cpu_gpu_s + p.gpu_gpu_s;
            assert!(
                (sum - p.sim_s).abs() <= 1e-12 * p.sim_s,
                "{name}: {} / {} / {}: phases {sum} against sim_s {}",
                p.machine,
                p.app,
                p.version,
                p.sim_s
            );
        }
    }
}

/// A `scaling` row's GPU-GPU and CPU-GPU phases are parts of its time,
/// and overlap hides at most what is left: the kernel phases.
#[test]
fn scaling_phases_fit_in_sim_s() {
    for name in FILES {
        for p in &committed(name).scaling {
            let kernels = p.sim_s - p.comm_sim_s - p.cpu_gpu_s;
            assert!(
                p.overlap_hidden_s <= kernels + 2e-8,
                "{name}: {} x{} {}: {} s hidden, kernels {kernels} s",
                p.app,
                p.ngpus,
                p.topo,
                p.overlap_hidden_s
            );
            assert!(
                p.comm_sim_s + p.cpu_gpu_s <= p.sim_s * (1.0 + 1e-12),
                "{name}: {} x{} {} overlap={}: comm {} + cpu-gpu {} > sim_s {}",
                p.app,
                p.ngpus,
                p.topo,
                p.overlap,
                p.comm_sim_s,
                p.cpu_gpu_s,
                p.sim_s
            );
        }
    }
}

/// Overlap hides what it saves, and no more: an overlap row's
/// `overlap_hidden_s` is its no-overlap twin's `sim_s` minus its own,
/// up to the counter's per-launch nanosecond rounding.
#[test]
fn overlap_hidden_is_the_twin_difference() {
    for name in FILES {
        let file = committed(name);
        let mut twins = 0;
        for p in file.scaling.iter().filter(|p| p.overlap) {
            let key = |q: &&ScalingPoint| (q.app.clone(), q.ngpus, q.topo.clone());
            let twin = file.scaling.iter().find(|q| !q.overlap && key(q) == key(&p));
            let twin = twin.unwrap_or_else(|| panic!("{name}: {} x{} has no twin", p.app, p.ngpus));
            let saved = twin.sim_s - p.sim_s;
            assert!(
                (p.overlap_hidden_s - saved).abs() <= 2e-8,
                "{name}: {} x{} {}: reports {} s hidden, saves {saved} s",
                p.app,
                p.ngpus,
                p.topo,
                p.overlap_hidden_s
            );
            twins += 1;
        }
        assert_eq!(twins, 6, "{name}: overlap rows");
    }
}
