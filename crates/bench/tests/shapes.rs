//! The paper's evaluation shapes (§V, Figs. 7–9), asserted as pure
//! functions of the committed `scaled` artifact: no app runs here, so
//! the assertions hold in every tier-1 run, and a pricing change that
//! bends a shape shows up when `BENCH_runtime_scaled.json` is
//! regenerated for it. `small` inputs are launch-latency dominated (the
//! GPU rightly loses there, on real hardware too), so only coverage and
//! correctness are asserted of `BENCH_runtime.json`.

use acc_apps::App;
use acc_bench::{fig7_from, fig8_from, fig9_from, parse_bench_file, versions_for, BenchFile};
use acc_gpusim::MachineKind;

const MACHINES: [MachineKind; 2] = [MachineKind::Desktop, MachineKind::SupercomputerNode];

fn committed(name: &str) -> BenchFile {
    let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    parse_bench_file(&src, name).unwrap()
}

fn scaled() -> BenchFile {
    committed("BENCH_runtime_scaled.json")
}

/// Both baselines hold the whole evaluation matrix — an app added to
/// `App::ALL` cannot be left out of either — and nothing but passed
/// oracles.
#[test]
fn committed_artifacts_cover_the_matrix_and_every_row_is_correct() {
    for (name, scale) in [("BENCH_runtime.json", "small"), ("BENCH_runtime_scaled.json", "scaled")] {
        let file = committed(name);
        assert_eq!((file.scale.as_str(), file.seed), (scale, 42), "{name}");
        let mut rows = 0;
        for kind in MACHINES {
            for app in App::ALL {
                for v in versions_for(kind) {
                    let found = file.points.iter().any(|p| {
                        p.machine == kind.label() && p.app == app.name() && p.version == v.label()
                    });
                    assert!(found, "{name}: no {} / {} / {} row", kind.label(), app.name(), v.label());
                    rows += 1;
                }
            }
        }
        assert_eq!(file.points.len(), rows, "{name}: rows outside the matrix");
        assert!(file.points.iter().all(|p| p.correct), "{name}: points");
        assert!(file.schedules.iter().all(|p| p.correct), "{name}: schedules");
        assert!(file.scaling.iter().all(|p| p.correct), "{name}: scaling");
        assert!(file.comm_experiments.iter().all(|p| p.correct), "{name}: comm");
        assert_eq!((file.comm_experiments.len(), file.scaling.len()), (48, 18), "{name}");
    }
}

/// Fig. 7: the compute-bound apps gain from every added GPU on both
/// machines and beat OpenMP, and the proposal's single-GPU run costs
/// what hand-written CUDA costs.
#[test]
fn fig7_md_and_kmeans_scale_and_one_gpu_matches_cuda() {
    let bars = fig7_from(&scaled().points);
    for kind in MACHINES {
        for app in ["md", "kmeans"] {
            let perf = |version: &str| {
                bars.iter()
                    .find(|b| b.machine == kind.label() && b.app == app && b.version == version)
                    .unwrap_or_else(|| panic!("{} / {app} / {version}", kind.label()))
                    .relative_perf
            };
            let (cuda, one) = (perf("CUDA(1GPU)"), perf("Proposal(1GPU)"));
            assert!((one / cuda - 1.0).abs() < 0.01, "{} {app}: {one} vs CUDA {cuda}", kind.label());
            for n in 2..=kind.max_gpus() {
                let (fewer, more) = (perf(&format!("Proposal({}GPU)", n - 1)), perf(&format!("Proposal({n}GPU)")));
                assert!(more > fewer, "{} {app}: {n} GPUs {more} vs {} GPUs {fewer}", kind.label(), n - 1);
                assert!(more > 1.0, "{} {app}: {n} GPUs lose to OpenMP ({more})", kind.label());
            }
        }
    }
}

/// Fig. 8: BFS pays for its replicated frontier in GPU-GPU time that
/// grows with every GPU; MD's distributed arrays never need a sync.
#[test]
fn fig8_bfs_communication_grows_and_md_has_none() {
    let bars = fig8_from(&scaled().points);
    for kind in MACHINES {
        let gpu_gpu = |app: &str| -> Vec<f64> {
            let mut of_app: Vec<_> =
                bars.iter().filter(|b| b.machine == kind.label() && b.app == app).collect();
            of_app.sort_by_key(|b| b.ngpus);
            assert_eq!(of_app.len(), kind.max_gpus());
            of_app.iter().map(|b| b.gpu_gpu).collect()
        };
        let bfs = gpu_gpu("bfs");
        assert_eq!(bfs[0], 0.0, "{}: one GPU has no peer", kind.label());
        assert!(bfs.windows(2).all(|w| w[1] > w[0]), "{}: bfs GPU-GPU {bfs:?}", kind.label());
        assert!(gpu_gpu("md").iter().all(|&t| t == 0.0), "{}: md", kind.label());
    }
    // One GPU's bar is the normalisation base.
    for b in bars.iter().filter(|b| b.ngpus == 1) {
        assert!((b.kernels + b.cpu_gpu + b.gpu_gpu - 1.0).abs() < 1e-9, "{b:?}");
    }
}

/// Fig. 9: the runtime's own device memory (dirty bits, miss buffers)
/// exists only with a peer to talk to and stays under 1 % of the user
/// data for the paper's three applications.
#[test]
fn fig9_system_memory_is_negligible() {
    for b in fig9_from(&scaled().points) {
        if b.ngpus == 1 {
            assert_eq!((b.user, b.system), (1.0, 0.0), "{b:?}");
        } else if ["md", "kmeans", "bfs"].contains(&b.app.as_str()) {
            assert!(b.system < 0.01, "{b:?}");
        }
    }
}

/// The cost-model mapper beats the equal split on the skewed BFS.
#[test]
fn cost_model_schedule_beats_the_equal_split_on_skewed_bfs() {
    let file = scaled();
    let sim_s = |app: &str| file.schedules.iter().find(|p| p.app == app).expect(app).sim_s;
    assert!(sim_s("bfs-skew-cm") < sim_s("bfs-skew"));
}
