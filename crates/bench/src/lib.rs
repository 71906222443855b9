//! # acc-bench — the evaluation harness
//!
//! Regenerates every table and figure of the paper's evaluation (§V) from
//! the simulated system, plus the ablations DESIGN.md calls out:
//!
//! * [`table1`] — the machine settings (Table I);
//! * [`table2`] — application characteristics (Table II): device-memory
//!   footprint, parallel loops, kernel executions, `localaccess` ratio;
//! * [`fig7_from`] — relative performance normalised to OpenMP, all program
//!   versions on both machines;
//! * [`fig8_from`] — execution-time breakdown (KERNELS / CPU-GPU / GPU-GPU)
//!   normalised to the single-GPU total;
//! * [`fig9_from`] — per-GPU device-memory usage (User / System) normalised to
//!   the single-GPU usage;
//! * [`ablation_chunk`] — second-level dirty-bit chunk-size sweep
//!   (§IV-D1 fixes 1 MB experimentally);
//! * [`ablation_layout`] — the 2-D layout transform on/off (§IV-B4);
//! * [`ablation_placement`] — distribution-based placement vs
//!   replica-everything (§IV-C);
//! * [`bench_runtime`] — the pinned artifact (`BENCH_runtime.json` at
//!   `small`, `BENCH_runtime_scaled.json` at `scaled`): the evaluation
//!   matrix behind Figs. 7–9 plus the scheduler, comm-experiment and
//!   scaling rows, simulated values only, compared exactly by
//!   [`bench_diff`].
//!
//! Everything here reads the *simulated* clock. The host clock belongs
//! to `accbench` (`benchmarks/`, `BENCHMARK.json`); see
//! `docs/benchmarks.md`.
//!
//! All entry points return plain data; the `figures` binary renders them
//! as text tables and optionally JSON (via `acc_obs::json`). Each row
//! type lists its fields once ([`row`]): the JSON writer, the pinned
//! artifact's reader and `bench-diff`'s comparison walk that list.

#[macro_use]
pub mod row;
pub mod diff;

use acc_apps::{run_app, App, Scale, Version};
use acc_compiler::CompileOptions;
use acc_gpusim::{Machine, MachineKind};
use acc_runtime::{run_program, ExecConfig, Schedule};

pub use diff::{bench_diff, parse_bench_file, BenchFile, DiffReport};

/// Compile-checks (and runs) the code examples embedded in the README.
#[doc = include_str!("../../../README.md")]
#[cfg(doctest)]
pub struct ReadmeDoctests;

/// Versions evaluated on a machine (paper Fig. 7 legend).
pub fn versions_for(kind: MachineKind) -> Vec<Version> {
    let mut v = vec![
        Version::OpenMP,
        Version::PgiAcc,
        Version::Cuda,
        Version::Proposal(1),
        Version::Proposal(2),
    ];
    if kind.max_gpus() >= 3 {
        v.push(Version::Proposal(3));
    }
    v
}

/// One Table I column.
#[derive(Debug, Clone)]
pub struct MachineRow {
    pub machine: String,
    pub cpu: String,
    pub omp_threads: u32,
    pub gpus: String,
    pub gpu_mem_gb: f64,
    pub h2d_gbs: f64,
    pub p2p_gbs: f64,
}

row!(MachineRow, "table1", machine, cpu, omp_threads, gpus, gpu_mem_gb, h2d_gbs, p2p_gbs);

/// Table I: the machine settings.
pub fn table1() -> Vec<MachineRow> {
    [MachineKind::Desktop, MachineKind::SupercomputerNode]
        .into_iter()
        .map(|k| {
            let m = Machine::with_kind(k);
            MachineRow {
                machine: k.label().to_string(),
                cpu: m.cpu.name.clone(),
                omp_threads: m.cpu.omp_threads,
                gpus: format!("{} x{}", m.gpus[0].spec.name, m.n_gpus()),
                gpu_mem_gb: m.gpus[0].spec.mem_bytes as f64 / (1u64 << 30) as f64,
                h2d_gbs: m.bus.h2d_bw / 1e9,
                p2p_gbs: m.bus.p2p_bw / 1e9,
            }
        })
        .collect()
}

/// One Table II row.
#[derive(Debug, Clone)]
pub struct AppRow {
    pub app: String,
    pub description: String,
    pub input: String,
    /// A: total device memory in single-GPU execution, MB.
    pub device_mb: f64,
    /// B: number of parallel loops.
    pub parallel_loops: usize,
    /// C: number of kernel executions.
    pub kernel_execs: usize,
    /// D: arrays with localaccess / arrays used in parallel loops.
    pub localaccess: String,
    pub correct: bool,
}

row!(AppRow, "table2", app, description, input, device_mb, parallel_loops, kernel_execs,
    localaccess, correct);

/// Table II: application characteristics, measured on single-GPU runs.
pub fn table2(scale: Scale) -> Vec<AppRow> {
    App::ALL
        .iter()
        .map(|&app| {
            let mut m = Machine::desktop();
            let r = run_app(app, Version::Proposal(1), &mut m, scale, 42).expect("run");
            let prog = acc_apps::runner::compile_app(app, Version::Proposal(1)).unwrap();
            let desc = match app {
                App::Md => "Simulation",
                App::Kmeans => "Clustering",
                App::Bfs => "Graph Traversal",
                App::Spmv => "Sparse Linear Algebra",
                App::Heat2d => "Stencil",
                App::Pagerank => "Graph Ranking",
                App::Heat2dHalo2 => "Stencil (deep)",
            };
            AppRow {
                app: app.name().to_uppercase(),
                description: desc.to_string(),
                input: input_label(app, scale),
                device_mb: r.mem[0].user_peak as f64 / 1e6,
                parallel_loops: prog.n_parallel_loops(),
                kernel_execs: r.kernel_launches,
                localaccess: format!("{}/{}", r.localaccess_ratio.0, r.localaccess_ratio.1),
                correct: r.correct,
            }
        })
        .collect()
}

fn input_label(app: App, scale: Scale) -> String {
    match app {
        App::Md => {
            let c = scale.md();
            format!("{} Atom", c.natoms())
        }
        App::Kmeans => match scale {
            Scale::Paper => "kddcup".into(),
            _ => "kddcup-shaped (scaled)".into(),
        },
        App::Bfs => {
            let c = scale.bfs();
            format!("{} node / {} edge", c.nnodes(), c.nedges())
        }
        App::Spmv => {
            let c = scale.spmv();
            format!("{} row / ~{} nnz/row", c.nrows, c.nnz_per_row)
        }
        App::Heat2d => {
            let c = scale.heat2d();
            format!("{}x{} plate / {} iter", c.rows, c.cols, c.iters)
        }
        App::Pagerank => {
            let c = scale.pagerank();
            format!("{} page / {} iter", c.n, c.iters)
        }
        App::Heat2dHalo2 => {
            let c = scale.heat2d_halo2();
            format!("{}x{} plate / {} iter", c.rows, c.cols, c.iters)
        }
    }
}

/// One run of the evaluation matrix (machine × app × version): a row of
/// the pinned artifact's `points` section and the input of Figs. 7, 8
/// and 9. Every value is simulated, hence deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchPoint {
    /// [`MachineKind::label`].
    pub machine: String,
    /// [`App::name`].
    pub app: String,
    /// [`Version::label`].
    pub version: String,
    /// Simulated parallel-region seconds: the sum of the three phases.
    pub sim_s: f64,
    pub kernels_s: f64,
    pub cpu_gpu_s: f64,
    pub gpu_gpu_s: f64,
    /// Peak user / system device bytes, summed over the GPUs.
    pub user_peak: u64,
    pub system_peak: u64,
    pub correct: bool,
}

row!(BenchPoint, "points", machine, app, version, sim_s, kernels_s, cpu_gpu_s, gpu_gpu_s,
    user_peak, system_peak, correct);

impl BenchPoint {
    /// `n` for a `Proposal(nGPU)` row, `None` for the other versions.
    pub fn proposal_gpus(&self) -> Option<usize> {
        self.version.strip_prefix("Proposal(")?.strip_suffix("GPU)")?.parse().ok()
    }

    /// The row of `matrix` on this row's machine and app at `version`
    /// (the normalisation base of a figure).
    fn sibling<'a>(&self, matrix: &'a [BenchPoint], version: Version) -> &'a BenchPoint {
        let label = version.label();
        matrix
            .iter()
            .find(|b| b.machine == self.machine && b.app == self.app && b.version == label)
            .unwrap_or_else(|| panic!("no {label} row for {} / {}", self.machine, self.app))
    }
}

/// Execute the evaluation matrix: every (machine × app × version)
/// combination once, shared by Figs. 7, 8 and 9 and by [`bench_runtime`].
/// With `progress`, prints one line per configuration to stderr (runs
/// take a while at paper scale).
pub fn run_matrix(scale: Scale, seed: u64, progress: bool) -> Vec<BenchPoint> {
    let mut out = Vec::new();
    for kind in [MachineKind::Desktop, MachineKind::SupercomputerNode] {
        for &app in &App::ALL {
            for v in versions_for(kind) {
                if progress {
                    eprintln!("running {} / {} / {} ...", kind.label(), app.name(), v.label());
                }
                let mut m = Machine::with_kind(kind);
                let r = run_app(app, v, &mut m, scale, seed).expect("run");
                out.push(BenchPoint {
                    machine: kind.label().to_string(),
                    app: app.name().to_string(),
                    version: v.label(),
                    sim_s: r.time.parallel_region(),
                    kernels_s: r.time.kernels,
                    cpu_gpu_s: r.time.cpu_gpu,
                    gpu_gpu_s: r.time.gpu_gpu,
                    user_peak: r.mem.iter().map(|g| g.user_peak).sum(),
                    system_peak: r.mem.iter().map(|g| g.system_peak).sum(),
                    correct: r.correct,
                });
            }
        }
    }
    out
}

/// One Fig. 7 bar: relative performance vs OpenMP (higher = faster).
#[derive(Debug, Clone)]
pub struct Fig7Bar {
    pub machine: String,
    pub app: String,
    pub version: String,
    pub relative_perf: f64,
    pub correct: bool,
}

row!(Fig7Bar, "fig7", machine, app, version, relative_perf, correct);

/// Fig. 7 from a computed matrix: every version normalised to OpenMP.
pub fn fig7_from(matrix: &[BenchPoint]) -> Vec<Fig7Bar> {
    matrix
        .iter()
        .map(|e| Fig7Bar {
            machine: e.machine.clone(),
            app: e.app.clone(),
            version: e.version.clone(),
            relative_perf: e.sibling(matrix, Version::OpenMP).sim_s / e.sim_s,
            correct: e.correct,
        })
        .collect()
}

/// One Fig. 8 stacked bar: phase times normalised to the 1-GPU total.
#[derive(Debug, Clone)]
pub struct Fig8Bar {
    pub machine: String,
    pub app: String,
    pub ngpus: usize,
    pub kernels: f64,
    pub cpu_gpu: f64,
    pub gpu_gpu: f64,
}

row!(Fig8Bar, "fig8", machine, app, ngpus, kernels, cpu_gpu, gpu_gpu);

/// Fig. 8 from a computed matrix: proposal breakdown on 1..max GPUs.
pub fn fig8_from(matrix: &[BenchPoint]) -> Vec<Fig8Bar> {
    let mut out = Vec::new();
    for e in matrix {
        let Some(ngpus) = e.proposal_gpus() else {
            continue;
        };
        let base = e.sibling(matrix, Version::Proposal(1)).sim_s;
        out.push(Fig8Bar {
            machine: e.machine.clone(),
            app: e.app.clone(),
            ngpus,
            kernels: e.kernels_s / base,
            cpu_gpu: e.cpu_gpu_s / base,
            gpu_gpu: e.gpu_gpu_s / base,
        });
    }
    out
}

/// One Fig. 9 stacked bar: summed per-GPU peak memory normalised to the
/// 1-GPU usage.
#[derive(Debug, Clone)]
pub struct Fig9Bar {
    pub machine: String,
    pub app: String,
    pub ngpus: usize,
    pub user: f64,
    pub system: f64,
}

row!(Fig9Bar, "fig9", machine, app, ngpus, user, system);

/// Fig. 9 from a computed matrix.
pub fn fig9_from(matrix: &[BenchPoint]) -> Vec<Fig9Bar> {
    let mut out = Vec::new();
    for e in matrix {
        let Some(ngpus) = e.proposal_gpus() else {
            continue;
        };
        let base = e.sibling(matrix, Version::Proposal(1)).user_peak.max(1);
        out.push(Fig9Bar {
            machine: e.machine.clone(),
            app: e.app.clone(),
            ngpus,
            user: e.user_peak as f64 / base as f64,
            system: e.system_peak as f64 / base as f64,
        });
    }
    out
}

/// One chunk-size ablation point.
#[derive(Debug, Clone)]
pub struct ChunkPoint {
    pub workload: String,
    pub chunk_kb: usize,
    pub gpu_gpu_time: f64,
    pub total_time: f64,
    pub dirty_chunks_sent: u64,
    pub p2p_mb: f64,
    /// BFS: the app oracle passed; clustered: every element of `flags`
    /// holds its host count of `idx`.
    pub correct: bool,
}

row!(ChunkPoint, "ablation_chunk", workload, chunk_kb, gpu_gpu_time, total_time, dirty_chunks_sent,
    p2p_mb, correct);

/// Synthetic replica-sync workload with *clustered* writes: each GPU's
/// iterations scatter into a small window near its own block of a
/// replicated array. Small chunks ship only the written windows; large
/// chunks ship mostly-clean data — the case the two-level scheme's
/// chunking exists for.
const CLUSTERED_SRC: &str = "void clustered(int n, int *idx, int *flags) {\n\
#pragma acc data copyin(idx[0:n]) copy(flags[0:n])\n\
{\n\
#pragma acc localaccess(idx) stride(1)\n\
#pragma acc parallel loop\n\
for (int i = 0; i < n; i++) flags[idx[i]] = flags[idx[i]] + 1;\n\
}\n\
}";

/// §IV-D1 ablation: sweep the second-level dirty-bit chunk size.
///
/// Two workloads with opposite write distributions:
/// * **bfs** (scattered) — frontier writes land everywhere, so nearly
///   every chunk is dirty and chunking cannot reduce the shipped bytes;
///   small chunks only add per-transfer overhead;
/// * **clustered** — writes are dense in small windows, so small chunks
///   cut the traffic dramatically.
///
/// The paper's 1 MB is the compromise between the two regimes.
pub fn ablation_chunk(scale: Scale, seed: u64) -> Vec<ChunkPoint> {
    let mut out = Vec::new();
    let sizes = [64usize, 256, 1024, 4096, 16384];

    // Scattered: BFS on the node with all three GPUs.
    let prog = acc_apps::runner::compile_app(App::Bfs, Version::Proposal(3)).unwrap();
    for &kb in &sizes {
        let mut m = Machine::supercomputer_node();
        let ec = ExecConfig::gpus(3).chunk_bytes(kb * 1024);
        let (r, correct, _) = acc_apps::runner::run_checked(App::Bfs, scale, seed, |s, a| {
            run_program(&mut m, &ec, &prog, s, a)
        })
        .expect("run");
        out.push(ChunkPoint {
            workload: "bfs (scattered)".into(),
            chunk_kb: kb,
            gpu_gpu_time: r.profile.time.gpu_gpu,
            total_time: r.profile.time.parallel_region(),
            dirty_chunks_sent: r.profile.dirty_chunks_sent,
            p2p_mb: r.profile.p2p_bytes as f64 / 1e6,
            correct,
        });
    }

    // Clustered: synthetic, 16 MB replicated array, writes confined to a
    // 64 KB window per GPU block.
    let n: usize = match scale {
        Scale::Small => 1 << 18,
        _ => 4 << 20,
    };
    // Each GPU's block of iterations (the runtime's equal split) scatters
    // into one 16K-element window at the start of its own block: per GPU
    // only ~64 KB of the replicated array is ever dirty, and no element
    // is written by two GPUs.
    let window = (16 * 1024usize).min(n / 4);
    let idx: Vec<i32> = acc_runtime::state::split_tasks(0, n as i64, 3)
        .into_iter()
        .flat_map(|(lo, hi)| {
            (lo..hi).map(move |i| {
                let off = (i as u64).wrapping_mul(2654435761) as usize % window;
                (lo as usize + off) as i32
            })
        })
        .collect();
    let mut expect = vec![0i32; n];
    for &j in &idx {
        expect[j as usize] += 1;
    }
    let prog = acc_compiler::compile_source(CLUSTERED_SRC, "clustered", &CompileOptions::proposal())
        .unwrap();
    for &kb in &sizes {
        let mut m = Machine::supercomputer_node();
        let ec = ExecConfig::gpus(3).chunk_bytes(kb * 1024);
        let arrays = vec![
            acc_kernel_ir::Buffer::from_i32(&idx),
            acc_kernel_ir::Buffer::zeroed(acc_kernel_ir::Ty::I32, n),
        ];
        let r = run_program(
            &mut m,
            &ec,
            &prog,
            vec![acc_kernel_ir::Value::I32(n as i32)],
            arrays,
        )
        .expect("run");
        out.push(ChunkPoint {
            workload: "clustered".into(),
            chunk_kb: kb,
            gpu_gpu_time: r.profile.time.gpu_gpu,
            total_time: r.profile.time.parallel_region(),
            dirty_chunks_sent: r.profile.dirty_chunks_sent,
            p2p_mb: r.profile.p2p_bytes as f64 / 1e6,
            correct: r.arrays[1].to_i32_vec() == expect,
        });
    }
    out
}

/// Compile `src` (an `app` source, possibly edited) under `opts` and run
/// it on the desktop through the app harness: the app's own inputs and
/// oracle, so every ablation row says whether its variant is correct.
fn run_variant(
    app: App,
    src: &str,
    opts: &CompileOptions,
    ec: &ExecConfig,
    scale: Scale,
    seed: u64,
) -> acc_apps::runner::AppResult {
    let engine = acc_apps::runner::engine();
    let prog = engine.compile(src, app.function(), opts).expect("ablation variant compiles");
    let mut m = Machine::desktop();
    acc_apps::runner::run_compiled(engine, &prog, app, Version::Proposal(2), &mut m, scale, seed, ec)
        .expect("ablation run")
}

/// One layout-transform ablation point.
#[derive(Debug, Clone)]
pub struct LayoutPoint {
    pub app: String,
    pub transform: bool,
    pub kernels_time: f64,
    pub total_time: f64,
    pub correct: bool,
}

row!(LayoutPoint, "ablation_layout", app, transform, kernels_time, total_time, correct);

/// §IV-B4 ablation: the 2-D layout transform on/off, for the two apps
/// with strided `localaccess` reads.
pub fn ablation_layout(scale: Scale, seed: u64) -> Vec<LayoutPoint> {
    let mut out = Vec::new();
    for app in [App::Md, App::Kmeans] {
        for transform in [true, false] {
            let opts = CompileOptions {
                layout_transform: transform,
                ..CompileOptions::proposal()
            };
            let r = run_variant(app, app.source(), &opts, &ExecConfig::gpus(2), scale, seed);
            out.push(LayoutPoint {
                app: app.name().to_string(),
                transform,
                kernels_time: r.time.kernels,
                total_time: r.time.parallel_region(),
                correct: r.correct,
            });
        }
    }
    out
}

/// One placement ablation point.
#[derive(Debug, Clone)]
pub struct PlacementPoint {
    pub app: String,
    pub distribution: bool,
    pub h2d_mb: f64,
    pub total_time: f64,
    pub user_mem_mb: f64,
    pub correct: bool,
}

row!(PlacementPoint, "ablation_placement", app, distribution, h2d_mb, total_time, user_mem_mb,
    correct);

/// §IV-C ablation: distribution-based placement (the app's
/// `localaccess` pragmas) vs replica-everything (the same source with
/// them stripped, `reductiontoarray` kept), on 2 GPUs. HEAT2D-HALO2 is
/// left out: its carried dependence is only correct under the
/// distributed wavefront.
pub fn ablation_placement(scale: Scale, seed: u64) -> Vec<PlacementPoint> {
    let mut out = Vec::new();
    for app in App::ALL.into_iter().filter(|&a| a != App::Heat2dHalo2) {
        for dist in [true, false] {
            let src = if dist {
                app.source().to_string()
            } else {
                strip_localaccess(app.source())
            };
            let ec = ExecConfig::gpus(2);
            let r = run_variant(app, &src, &CompileOptions::proposal(), &ec, scale, seed);
            out.push(PlacementPoint {
                app: app.name().to_string(),
                distribution: dist,
                h2d_mb: r.h2d_bytes as f64 / 1e6,
                total_time: r.time.parallel_region(),
                user_mem_mb: r.mem.iter().map(|g| g.user_peak).sum::<u64>() as f64 / 1e6,
                correct: r.correct,
            });
        }
    }
    out
}

/// One loader-reuse ablation point.
#[derive(Debug, Clone)]
pub struct ReusePoint {
    pub app: String,
    pub reuse: bool,
    pub h2d_mb: f64,
    pub cpu_gpu_time: f64,
    pub total_time: f64,
    pub correct: bool,
}

row!(ReusePoint, "ablation_loader_reuse", app, reuse, h2d_mb, cpu_gpu_time, total_time, correct);

/// §IV-C ablation: the loader's reload-skipping for iterative kernels,
/// on the two iterative apps (KMEANS relaunches 74 times, BFS ~10).
pub fn ablation_loader_reuse(scale: Scale, seed: u64) -> Vec<ReusePoint> {
    let mut out = Vec::new();
    for app in [App::Kmeans, App::Bfs] {
        for reuse in [true, false] {
            let ec = ExecConfig::gpus(2).loader_reuse(reuse);
            let r = run_variant(app, app.source(), &CompileOptions::proposal(), &ec, scale, seed);
            out.push(ReusePoint {
                app: app.name().to_string(),
                reuse,
                h2d_mb: r.h2d_bytes as f64 / 1e6,
                cpu_gpu_time: r.time.cpu_gpu,
                total_time: r.time.parallel_region(),
                correct: r.correct,
            });
        }
    }
    out
}

/// One stencil-extension point (paper §VI future work).
#[derive(Debug, Clone)]
pub struct StencilPoint {
    pub machine: String,
    pub ngpus: usize,
    pub relative_perf_vs_1gpu: f64,
    pub kernels_time: f64,
    pub cpu_gpu_time: f64,
    pub gpu_gpu_time: f64,
    pub p2p_mb: f64,
    pub miss_checks: u64,
    pub correct: bool,
}

row!(StencilPoint, "extension_stencil", machine, ngpus, relative_perf_vs_1gpu, kernels_time,
    cpu_gpu_time, gpu_gpu_time, p2p_mb, miss_checks, correct);

/// §VI extension experiment: the 2-D heat stencil run through the 1-D
/// `localaccess` row distribution. Demonstrates (a) that the system runs
/// stencils correctly on any GPU count via halo rows, and (b) the paper's
/// stated limitation — per-iteration halo refresh plus unelidable miss
/// checks keep multi-GPU gains modest.
pub fn extension_stencil(scale: Scale, seed: u64) -> Vec<StencilPoint> {
    use acc_apps::heat2d;
    let input = heat2d::generate(&scale.heat2d(), seed);
    let expect = heat2d::reference(&input);
    let prog = acc_compiler::compile_source(
        heat2d::SOURCE,
        heat2d::FUNCTION,
        &CompileOptions::proposal(),
    )
    .unwrap();
    let mut out = Vec::new();
    for kind in [MachineKind::Desktop, MachineKind::SupercomputerNode] {
        let mut base = None;
        for n in 1..=kind.max_gpus() {
            let mut m = Machine::with_kind(kind);
            let (scalars, arrays) = heat2d::inputs(&input);
            let r = run_program(&mut m, &ExecConfig::gpus(n), &prog, scalars, arrays).unwrap();
            let t = r.profile.time.parallel_region();
            let base1 = *base.get_or_insert(t);
            let err =
                heat2d::max_error(&r.arrays[heat2d::PLATE_ARRAY].to_f64_vec(), &expect);
            out.push(StencilPoint {
                machine: kind.label().to_string(),
                ngpus: n,
                relative_perf_vs_1gpu: base1 / t,
                kernels_time: r.profile.time.kernels,
                cpu_gpu_time: r.profile.time.cpu_gpu,
                gpu_gpu_time: r.profile.time.gpu_gpu,
                p2p_mb: r.profile.p2p_bytes as f64 / 1e6,
                miss_checks: r.profile.kernel_counters.miss_checks,
                correct: err < heat2d::TOLERANCE,
            });
        }
    }
    out
}

/// Everything the `bench` target pins, at one scale and seed: the
/// evaluation matrix ([`run_matrix`]; the `heat2d-halo2` rows double as
/// the wavefront's pricing pins — its carried dependence is proved
/// halo-local, so the runtime pipelines it), the two scheduler rows, the
/// comm experiments and the scaling section.
pub fn bench_runtime(scale: Scale, seed: u64, progress: bool) -> BenchFile {
    BenchFile {
        scale: scale.name().to_string(),
        seed,
        points: run_matrix(scale, seed, progress),
        schedules: bench_schedules(scale, seed, progress),
        comm_experiments: bench_comm(scale, seed, progress),
        scaling: bench_scaling(scale, seed, progress),
    }
}

/// One row of the `bench` target's `schedules` section: the skewed
/// power-law BFS on the node's three GPUs under one task schedule.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SchedulePoint {
    /// `bfs-skew` (equal static division) or `bfs-skew-cm` (the
    /// cost-model mapper) on the same input.
    pub app: String,
    pub ngpus: usize,
    /// Simulated parallel-region seconds.
    pub sim_s: f64,
    /// Simulated GPU-GPU communication-phase seconds (a component of
    /// `sim_s`).
    pub comm_sim_s: f64,
    pub correct: bool,
}

row!(SchedulePoint, "schedules", app, ngpus, sim_s, comm_sim_s, correct);

/// The skewed BFS is not part of `App::ALL` (that list reproduces the
/// paper's Table II); these two rows exist so the artifact records the
/// mapper's simulated-time margin, and `bench-diff` notices if the win
/// erodes.
pub fn bench_schedules(scale: Scale, seed: u64, progress: bool) -> Vec<SchedulePoint> {
    use acc_apps::bfs_skew;
    let input = bfs_skew::generate(&bfs_skew_config(scale), seed);
    let expect = bfs_skew::reference(&input);
    let prog =
        acc_compiler::compile_source(bfs_skew::SOURCE, bfs_skew::FUNCTION, &CompileOptions::proposal())
            .expect("bfs_skew compiles");
    [("bfs-skew", Schedule::Equal), ("bfs-skew-cm", Schedule::CostModel)]
        .into_iter()
        .map(|(label, sched)| {
            if progress {
                eprintln!("  bench: {label} x3");
            }
            let mut m = Machine::supercomputer_node();
            let (scalars, arrays) = bfs_skew::inputs(&input);
            let r = run_program(&mut m, &ExecConfig::gpus(3).schedule(sched), &prog, scalars, arrays)
                .expect("bfs_skew run");
            SchedulePoint {
                app: label.to_string(),
                ngpus: 3,
                sim_s: r.profile.time.parallel_region(),
                comm_sim_s: r.profile.time.gpu_gpu,
                correct: r.arrays[bfs_skew::LEVELS_ARRAY].to_i32_vec() == expect,
            }
        })
        .collect()
}

/// The skewed-BFS input behind the `bfs-skew` bench rows.
pub fn bfs_skew_config(scale: Scale) -> acc_apps::bfs_skew::BfsSkewConfig {
    match scale {
        Scale::Small => acc_apps::bfs_skew::BfsSkewConfig::stress(),
        _ => acc_apps::bfs_skew::BfsSkewConfig::scaled(),
    }
}

/// Drop every hand-written `localaccess` pragma line from a source.
/// Shared by the golden inference tests and [`bench_comm`], which both
/// need the "programmer forgot to annotate" variant of an app.
pub fn strip_localaccess(src: &str) -> String {
    src.lines()
        .filter(|l| !l.contains("#pragma acc localaccess"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// One comm-phase measurement of the `bench` target's
/// `comm_experiments` section: an app × compile/run mode × machine, at
/// the machine's full GPU count.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CommPoint {
    pub app: String,
    /// `annotated` (hand pragmas, the baseline), `stripped` (pragmas
    /// removed → replica placement everywhere), `stripped-elide`
    /// (stripped + runtime comm elision), `inferred` (stripped +
    /// whole-program `localaccess` inference).
    pub mode: String,
    /// 3: the supercomputer node; 16: `Machine::cluster(16)`.
    pub ngpus: usize,
    /// Simulated parallel-region seconds: what the modes are judged
    /// on, since a sync elision defers is paid later, in the loader
    /// (CPU-GPU) phase.
    pub sim_s: f64,
    /// Simulated GPU-GPU communication-phase seconds (a component of
    /// `sim_s`).
    pub comm_sim_s: f64,
    pub p2p_bytes: u64,
    /// Replica syncs the runtime skipped on static facts.
    pub comm_elisions: u64,
    /// Final arrays bit-identical to the annotated baseline run. This
    /// is a strict all-arrays comparison: scratch arrays (e.g. the
    /// heat2d ping-pong buffer) can legitimately hold different
    /// copy-out content across placements even when every output array
    /// is bit-exact, so `false` here is only meaningful per mode — what
    /// `bench-diff` guards is that the flag does not change.
    pub matches_annotated: bool,
    /// The app's oracle passed.
    pub correct: bool,
}

row!(CommPoint, "comm_experiments", app, mode, ngpus, sim_s, comm_sim_s, p2p_bytes, comm_elisions,
    matches_annotated, correct);

/// Measure the communication phase across the annotation/inference/
/// elision modes. This is the artifact section behind the claim that
/// inference and static elision reduce the comm phase: `stripped` is
/// what a lazy port costs, `inferred` recovers the hand-annotated
/// distribution, and `stripped-elide` shows what the runtime can still
/// skip when distribution is impossible. HEAT2D-HALO2 sits out: its
/// stripped rows fail its oracle.
pub fn bench_comm(scale: Scale, seed: u64, progress: bool) -> Vec<CommPoint> {
    let infer_opts = CompileOptions {
        infer_localaccess: true,
        ..CompileOptions::proposal()
    };
    let mut out = Vec::new();
    for app in App::ALL.into_iter().filter(|&a| a != App::Heat2dHalo2) {
        let stripped_src = strip_localaccess(app.source());
        let annotated =
            acc_compiler::compile_source(app.source(), app.function(), &CompileOptions::proposal())
                .expect("annotated source compiles");
        let stripped =
            acc_compiler::compile_source(&stripped_src, app.function(), &CompileOptions::proposal())
                .expect("stripped source compiles");
        let inferred = acc_compiler::compile_source(&stripped_src, app.function(), &infer_opts)
            .expect("stripped source compiles under inference");
        for ngpus in [3, 16] {
            let base = ExecConfig::gpus(ngpus);
            let runs = [
                ("annotated", &annotated, base.clone()),
                ("stripped", &stripped, base.clone()),
                ("stripped-elide", &stripped, base.clone().comm_elision(true)),
                ("inferred", &inferred, base),
            ];
            let mut baseline_arrays = None;
            for (mode, prog, cfg) in runs {
                if progress {
                    eprintln!("  bench: comm {} {} x{}", app.name(), mode, ngpus);
                }
                let mut m = match ngpus {
                    3 => Machine::supercomputer_node(),
                    n => Machine::cluster(n),
                };
                let (r, correct, _) = acc_apps::runner::run_checked(app, scale, seed, |s, a| {
                    run_program(&mut m, &cfg, prog, s, a)
                })
                .expect("comm bench run");
                let matches_annotated = match &baseline_arrays {
                    None => {
                        baseline_arrays = Some(r.arrays.clone());
                        true
                    }
                    Some(b) => *b == r.arrays,
                };
                out.push(CommPoint {
                    app: app.name().to_string(),
                    mode: mode.to_string(),
                    ngpus,
                    sim_s: r.profile.time.parallel_region(),
                    comm_sim_s: r.profile.time.gpu_gpu,
                    p2p_bytes: r.profile.p2p_bytes,
                    comm_elisions: r.profile.comm_elisions,
                    matches_annotated,
                    correct,
                });
            }
        }
    }
    out
}

/// One simulated-time measurement of the `bench` target's `scaling`
/// section: a halo/reduction-heavy app at a GPU count well past one
/// PCIe bus, on one interconnect model. The section is the artifact
/// behind the claim that the hierarchical topology (island
/// links + per-node roots + inter-node fabric), the topology-aware
/// reduction tree and the double-buffered halo overlap reduce
/// communication cost at 8/16/64 GPUs — `bench-diff` pins every value.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScalingPoint {
    pub app: String,
    pub ngpus: usize,
    /// `flat` = the seed's single-root PCIe model
    /// (`Machine::supercomputer_node_with_gpus`); `cluster` = 8-GPU
    /// islands, 16-GPU nodes, inter-node fabric (`Machine::cluster`).
    pub topo: String,
    /// Double-buffered halo overlap armed (`ExecConfig::overlap`).
    pub overlap: bool,
    /// Simulated parallel-region seconds.
    pub sim_s: f64,
    /// Simulated GPU-GPU communication-phase seconds (a component of
    /// `sim_s`; reduction merges and replica syncs).
    pub comm_sim_s: f64,
    /// Simulated loader (CPU-GPU) phase seconds (a component of
    /// `sim_s`; halo fills land here, so this is what overlap shrinks).
    pub cpu_gpu_s: f64,
    /// Loader seconds hidden behind the kernel phase by overlap
    /// windows (from the `overlap_hidden_ns` counter).
    pub overlap_hidden_s: f64,
    pub p2p_mb: f64,
    pub correct: bool,
}

row!(ScalingPoint, "scaling", app, ngpus, topo, overlap, sim_s, comm_sim_s, cpu_gpu_s,
    overlap_hidden_s, p2p_mb, correct);

/// The scaling section's workload configs. At 64-way row distribution
/// the plain `small` inputs are too thin (48 heat2d rows, a 400-node
/// graph), so `Scale::Small` gets dedicated minimum sizes that still
/// run in well under a second; larger scales reuse the shared configs.
pub fn scaling_heat2d_config(scale: Scale) -> acc_apps::heat2d::Heat2dConfig {
    match scale {
        Scale::Small => acc_apps::heat2d::Heat2dConfig { rows: 256, cols: 64, iters: 3 },
        _ => scale.heat2d(),
    }
}

/// See [`scaling_heat2d_config`].
pub fn scaling_pagerank_config(scale: Scale) -> acc_apps::pagerank::PagerankConfig {
    match scale {
        Scale::Small => acc_apps::pagerank::PagerankConfig {
            n: 4096,
            min_degree: 2,
            max_degree: 40,
            iters: 5,
        },
        _ => scale.pagerank(),
    }
}

/// Measure simulated communication cost for the scaling apps at 8, 16
/// and 64 GPUs on the flat bus, the cluster topology, and the cluster
/// topology with halo overlap armed.
pub fn bench_scaling(scale: Scale, seed: u64, progress: bool) -> Vec<ScalingPoint> {
    use acc_apps::{heat2d, pagerank};
    const GPU_COUNTS: [usize; 3] = [8, 16, 64];
    const MODES: [(&str, bool); 3] = [("flat", false), ("cluster", false), ("cluster", true)];

    let heat_in = heat2d::generate(&scaling_heat2d_config(scale), seed);
    let heat_ref = heat2d::reference(&heat_in);
    let heat_prog = acc_compiler::compile_source(
        heat2d::SOURCE,
        heat2d::FUNCTION,
        &CompileOptions::proposal(),
    )
    .expect("heat2d compiles");
    let pr_in = pagerank::generate(&scaling_pagerank_config(scale), seed);
    let pr_ref = pagerank::reference(&pr_in);
    let pr_prog = acc_compiler::compile_source(
        pagerank::SOURCE,
        pagerank::FUNCTION,
        &CompileOptions::proposal(),
    )
    .expect("pagerank compiles");

    let mut out = Vec::new();
    for app in ["heat2d", "pagerank"] {
        for &ngpus in &GPU_COUNTS {
            for (topo, overlap) in MODES {
                if progress {
                    eprintln!(
                        "  bench: scaling {app} x{ngpus} {topo}{}",
                        if overlap { "+overlap" } else { "" }
                    );
                }
                let mut m = match topo {
                    "cluster" => Machine::cluster(ngpus),
                    _ => Machine::supercomputer_node_with_gpus(ngpus),
                };
                let cfg = ExecConfig::gpus(ngpus).overlap(overlap);
                let (prog, scalars, arrays) = if app == "heat2d" {
                    let (s, a) = heat2d::inputs(&heat_in);
                    (&heat_prog, s, a)
                } else {
                    let (s, a) = pagerank::inputs(&pr_in);
                    (&pr_prog, s, a)
                };
                let r = run_program(&mut m, &cfg, prog, scalars, arrays)
                    .expect("scaling bench run");
                let correct = if app == "heat2d" {
                    heat2d::max_error(&r.arrays[heat2d::PLATE_ARRAY].to_f64_vec(), &heat_ref)
                        < heat2d::TOLERANCE
                } else {
                    pagerank::max_error(&r.arrays[pagerank::RANK_ARRAY].to_f64_vec(), &pr_ref)
                        < pagerank::TOLERANCE
                };
                out.push(ScalingPoint {
                    app: app.to_string(),
                    ngpus,
                    topo: topo.to_string(),
                    overlap,
                    sim_s: r.profile.time.parallel_region(),
                    comm_sim_s: r.profile.time.gpu_gpu,
                    cpu_gpu_s: r.profile.time.cpu_gpu,
                    overlap_hidden_s: r.trace.counters().overlap_hidden_ns as f64 / 1e9,
                    p2p_mb: r.profile.p2p_bytes as f64 / 1e6,
                    correct,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_both_machines() {
        let t = table1();
        assert_eq!(t.len(), 2);
        assert!(t[0].machine.contains("Desktop"));
        assert_eq!(t[1].gpus, "Tesla M2050 x3");
    }

    #[test]
    fn versions_per_machine() {
        assert_eq!(versions_for(MachineKind::Desktop).len(), 5);
        assert_eq!(versions_for(MachineKind::SupercomputerNode).len(), 6);
    }

    #[test]
    fn figure_extractors_normalise_correctly() {
        // A 3-row matrix by hand (OpenMP + proposal on 1/2 GPUs for one
        // app): the normalisations, and which rows each figure keeps.
        let row = |version: Version, sim_s: f64, user_peak: u64, system_peak: u64| BenchPoint {
            machine: "Desktop Machine".to_string(),
            app: "md".to_string(),
            version: version.label(),
            sim_s,
            kernels_s: sim_s * 0.5,
            cpu_gpu_s: sim_s * 0.25,
            gpu_gpu_s: sim_s * 0.25,
            user_peak,
            system_peak,
            correct: true,
        };
        let matrix = [
            row(Version::OpenMP, 8.0, 0, 0),
            row(Version::Proposal(1), 4.0, 1000, 0),
            row(Version::Proposal(2), 2.0, 1200, 30),
        ];
        assert_eq!(matrix[0].proposal_gpus(), None);
        assert_eq!(matrix[2].proposal_gpus(), Some(2));
        let f7 = fig7_from(&matrix);
        assert_eq!(f7.iter().map(|b| b.relative_perf).collect::<Vec<_>>(), [1.0, 2.0, 4.0]);
        let f8 = fig8_from(&matrix);
        assert_eq!(f8.len(), 2); // proposal entries only
        assert_eq!((f8[0].kernels, f8[0].cpu_gpu, f8[0].gpu_gpu), (0.5, 0.25, 0.25));
        assert_eq!((f8[1].ngpus, f8[1].kernels), (2, 0.25));
        let f9 = fig9_from(&matrix);
        assert_eq!((f9[0].user, f9[0].system), (1.0, 0.0));
        assert_eq!((f9[1].user, f9[1].system), (1.2, 0.03));
    }

    #[test]
    fn table2_small_scale_runs() {
        let rows = table2(Scale::Small);
        assert_eq!(rows.len(), 7);
        assert!(rows.iter().all(|r| r.correct));
        assert_eq!(rows[0].parallel_loops, 1); // MD
        assert_eq!(rows[1].parallel_loops, 2); // KMEANS
        assert_eq!(rows[2].parallel_loops, 1); // BFS
        assert_eq!(rows[3].parallel_loops, 1); // SPMV
        assert_eq!(rows[4].parallel_loops, 2); // HEAT2D
        assert_eq!(rows[5].parallel_loops, 4); // PAGERANK
        assert_eq!(rows[6].parallel_loops, 1); // HEAT2D-HALO2
        assert_eq!(rows[0].localaccess, "2/3");
        assert_eq!(rows[1].localaccess, "2/5");
        assert_eq!(rows[2].localaccess, "2/3");
        assert_eq!(rows[3].localaccess, "2/5");
        assert_eq!(rows[4].localaccess, "2/2");
        assert_eq!(rows[5].localaccess, "6/6");
        assert_eq!(rows[6].localaccess, "1/1");
    }
}
