//! The four application workloads: one compiled program, one generated
//! input, and an operation that is one `Engine::launch_on` on a fresh
//! simulated machine.
//!
//! * `stencil-2gpu` and `kmeans-2gpu` spend nearly all host time in
//!   `kernel-ir` (regular f64 stencil vs f32 arg-min with array
//!   reductions), so a kernel-tier change shows on both and a comm change
//!   on neither.
//! * `pagerank-64gpu` and `halo-64gpu` spend it in `accrt` + `gpusim`
//!   (replica sync and reduction merge vs loader halo fills with overlap
//!   pricing), so a collective-layer change shows there.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use acc_apps::{heat2d, kmeans, pagerank};
use acc_compiler::CompileOptions;
use acc_gpusim::{Endpoint, Machine, MachineKind};
use acc_kernel_ir::{bytecode, regvm, Buffer, OpCounters, Value};
use acc_obs::{Counters, Event, TraceLevel};
use acc_runtime::{
    CompiledKernel, Engine, ExecConfig, KernelVm, RunError, RunReport, TimeBreakdown,
};

use super::{median_secs, put_end_to_end, timed, RunArgs, RunOutput, Size, Window};
use crate::spans::Spans;
use crate::stats;
use crate::util::Fnv1a;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Stencil2,
    Kmeans2,
    Pagerank64,
    Halo64,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::Stencil2,
        Kind::Kmeans2,
        Kind::Pagerank64,
        Kind::Halo64,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Stencil2 => "stencil-2gpu",
            Kind::Kmeans2 => "kmeans-2gpu",
            Kind::Pagerank64 => "pagerank-64gpu",
            Kind::Halo64 => "halo-64gpu",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    fn ngpus(self) -> usize {
        match self {
            Kind::Stencil2 | Kind::Kmeans2 => 2,
            Kind::Pagerank64 | Kind::Halo64 => 64,
        }
    }

    fn machine(self) -> Machine {
        match self {
            Kind::Stencil2 | Kind::Kmeans2 => Machine::supercomputer_node(),
            Kind::Pagerank64 | Kind::Halo64 => Machine::cluster(64),
        }
    }

    fn exec_config(self, ngpus: usize) -> ExecConfig {
        ExecConfig::gpus(ngpus).overlap(self == Kind::Halo64)
    }

    fn source(self) -> (&'static str, &'static str) {
        match self {
            Kind::Stencil2 | Kind::Halo64 => (heat2d::SOURCE, heat2d::FUNCTION),
            Kind::Kmeans2 => (kmeans::SOURCE, kmeans::FUNCTION),
            Kind::Pagerank64 => (pagerank::SOURCE, pagerank::FUNCTION),
        }
    }

    /// The benchmark's own input sizes: an operation takes 0.1–0.35 s of
    /// host time on two cores, so a 15 s window holds 45–140 of them. The
    /// halo plate is narrow so that the 64-thread launch waves and loader
    /// fills, not the stencil arithmetic, are ~40 % of its host time.
    fn generate(self, size: Size, seed: u64) -> Input {
        let smoke = size == Size::Smoke;
        match self {
            Kind::Stencil2 => Input::Heat(heat2d::generate(
                &heat2d::Heat2dConfig {
                    rows: if smoke { 48 } else { 512 },
                    cols: if smoke { 32 } else { 512 },
                    iters: 2,
                },
                seed,
            )),
            Kind::Halo64 => Input::Heat(heat2d::generate(
                &heat2d::Heat2dConfig {
                    rows: if smoke { 128 } else { 1024 },
                    cols: if smoke { 16 } else { 32 },
                    iters: if smoke { 2 } else { 4 },
                },
                seed,
            )),
            Kind::Kmeans2 => Input::Kmeans(kmeans::generate(
                &kmeans::KmeansConfig {
                    npoints: if smoke { 600 } else { 8_000 },
                    nfeatures: if smoke { 8 } else { 34 },
                    nclusters: 5,
                    iters: if smoke { 2 } else { 3 },
                },
                seed,
            )),
            Kind::Pagerank64 => Input::Pagerank(pagerank::generate(
                &pagerank::PagerankConfig {
                    n: if smoke { 400 } else { 16_384 },
                    min_degree: 2,
                    max_degree: 40,
                    iters: if smoke { 2 } else { 5 },
                },
                seed,
            )),
        }
    }
}

enum Input {
    Heat(heat2d::Heat2dInput),
    Kmeans(kmeans::KmeansInput),
    Pagerank(pagerank::PagerankInput),
}

enum Expected {
    Heat(Vec<f64>),
    Kmeans(kmeans::KmeansResult),
    Pagerank(Vec<f64>),
}

impl Input {
    fn program_inputs(&self) -> (Vec<Value>, Vec<Buffer>) {
        match self {
            Input::Heat(i) => heat2d::inputs(i),
            Input::Kmeans(i) => kmeans::inputs(i),
            Input::Pagerank(i) => pagerank::inputs(i),
        }
    }

    /// The `acc_apps` pure-Rust oracle.
    fn reference(&self) -> Expected {
        match self {
            Input::Heat(i) => Expected::Heat(heat2d::reference(i)),
            Input::Kmeans(i) => Expected::Kmeans(kmeans::reference(i)),
            Input::Pagerank(i) => Expected::Pagerank(pagerank::reference(i)),
        }
    }
}

impl Expected {
    /// Tolerances follow `acc_apps::runner` and `bench_scaling`: halo
    /// copies are exact, while reduction merges reorder float sums across
    /// GPUs.
    fn matches(&self, r: &RunReport) -> bool {
        match self {
            Expected::Heat(want) => {
                heat2d::max_error(&r.arrays[heat2d::PLATE_ARRAY].to_f64_vec(), want) < 1e-9
            }
            Expected::Pagerank(want) => {
                pagerank::max_error(&r.arrays[pagerank::RANK_ARRAY].to_f64_vec(), want) < 1e-6
            }
            Expected::Kmeans(want) => {
                let clusters = r.arrays[kmeans::CLUSTERS_ARRAY].to_f32_vec();
                let membership = r.arrays[kmeans::MEMBERSHIP_ARRAY].to_i32_vec();
                let err = clusters
                    .iter()
                    .zip(&want.clusters)
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0, f32::max);
                let flipped = membership
                    .iter()
                    .zip(&want.membership)
                    .filter(|(a, b)| a != b)
                    .count();
                clusters.len() == want.clusters.len()
                    && membership.len() == want.membership.len()
                    && err < 1e-2
                    && (flipped as f64) < 0.001 * membership.len() as f64
            }
        }
    }
}

/// Everything about a run that must repeat exactly: the simulated clock,
/// simulated memory, and every count.
#[derive(Debug, Clone, Default, PartialEq)]
struct Exact {
    time: TimeBreakdown,
    mem: Vec<(u64, u64)>,
    kernel: OpCounters,
    events: Counters,
}

impl Exact {
    fn of(r: &RunReport) -> Exact {
        Exact {
            time: r.profile.time,
            mem: r.mem.iter().map(|m| (m.user_peak, m.system_peak)).collect(),
            kernel: r.profile.kernel_counters,
            events: r.trace.counters(),
        }
    }
}

/// A workload after set-up: compiled, input generated, oracle computed,
/// caches warm.
struct Ready {
    kind: Kind,
    engine: Engine,
    kernel: Arc<CompiledKernel>,
    input: Input,
    expected: Expected,
    exact: Exact,
    /// The two set-up operations agreed on every exact quantity and both
    /// passed the oracle.
    sound: bool,
    generate_s: f64,
    reference_s: f64,
}

struct OpOutcome {
    wall_s: f64,
    report: Option<RunReport>,
    ok: bool,
}

impl RunOutput {
    fn tally(&mut self, o: &OpOutcome) {
        self.attempted += 1;
        self.failed += u64::from(!o.ok);
    }
}

fn setup(kind: Kind, args: &RunArgs, spans: &mut Spans) -> Result<Ready, String> {
    let (input, generate_s) = spans.scope("apps.generate", 0, |_| {
        timed(|| kind.generate(args.size, args.seed))
    });
    let (expected, reference_s) = spans.scope("apps.reference", 0, |_| timed(|| input.reference()));
    let engine = Engine::new(
        MachineKind::SupercomputerNode,
        kind.exec_config(kind.ngpus()),
    );
    let (source, function) = kind.source();
    let kernel = spans
        .scope("accrt.engine.compile", 0, |_| {
            engine.compile(source, function, &CompileOptions::proposal())
        })
        .map_err(|e| format!("{}: {e}", kind.name()))?;
    let mut ready = Ready {
        kind,
        engine,
        kernel,
        input,
        expected,
        exact: Exact::default(),
        sound: false,
        generate_s,
        reference_s,
    };
    // Twice: the first warms the engine's scratch pools, and the pair is
    // the determinism check.
    let cfg = kind.exec_config(kind.ngpus());
    let first = ready.op(&cfg, 0, spans);
    let second = ready.op(&cfg, 0, spans);
    let (Some(a), Some(b)) = (&first.report, &second.report) else {
        return Err(format!("{}: the set-up operation failed", kind.name()));
    };
    ready.exact = Exact::of(a);
    ready.sound = first.ok && second.ok && ready.exact == Exact::of(b);
    Ok(ready)
}

impl Ready {
    /// One operation: fresh machine, fresh copies of the input arrays, one
    /// launch; the oracle check runs after the timer has stopped.
    fn op(&self, cfg: &ExecConfig, op_id: u64, spans: &mut Spans) -> OpOutcome {
        spans.scope("op", op_id, |s| {
            let (scalars, arrays) = s.scope("apps.inputs", op_id, |_| self.input.program_inputs());
            let mut machine = self.kind.machine();
            let (result, wall_s): (Result<RunReport, RunError>, f64) =
                s.scope("accrt.engine.launch", op_id, |_| {
                    timed(|| {
                        self.engine
                            .launch_on(&self.kernel, &mut machine, cfg, scalars, arrays)
                    })
                });
            let report = result.ok();
            let ok = s.scope("oracle.check", op_id, |_| {
                report.as_ref().is_some_and(|r| self.expected.matches(r))
            });
            OpOutcome { wall_s, report, ok }
        })
    }

    fn fingerprint(&self) -> f64 {
        let mut h = Fnv1a::default();
        h.write(self.kind.source().0.as_bytes());
        let (scalars, arrays) = self.input.program_inputs();
        for v in &scalars {
            h.write(v.to_string().as_bytes());
        }
        for a in &arrays {
            h.write(a.bytes());
        }
        h.finish48()
    }
}

pub fn run(kind: Kind, args: &RunArgs) -> Result<RunOutput, String> {
    let mut spans = args.spans(Instant::now());
    let (ready, setups) = args.set_up(|| setup(kind, args, &mut spans), |_| Ok(()))?;
    let mut out = RunOutput::new(ready.sound);
    if args.trace {
        layers(&ready, args, &mut spans, &mut out);
        out.spans = Some(spans);
    } else {
        let cfg = kind.exec_config(kind.ngpus());
        let window = Window::of(args.seconds);
        let mut walls = Vec::new();
        while window.open(walls.len(), 3) {
            let o = ready.op(&cfg, walls.len() as u64 + 1, &mut spans);
            walls.push(o.wall_s);
            out.tally(&o);
        }
        put_end_to_end(&mut out.metrics, &walls, &setups);
    }
    out.correct &= out.failed == 0;
    Ok(out)
}

const MB: f64 = 1e6;

/// The traced pass: the same operation with and without `TraceLevel::Spans`
/// and under the register VM, a 1-GPU run of the same input, and the layer
/// functions timed on their own.
fn layers(ready: &Ready, args: &RunArgs, spans: &mut Spans, out: &mut RunOutput) {
    let kind = ready.kind;
    let cfg = kind.exec_config(kind.ngpus());
    let traced_cfg = cfg.clone().tracing(TraceLevel::Spans);
    let regvm_cfg = cfg.clone().kernel_vm(KernelVm::Register);

    let (mut plain, mut traced, mut reg, mut comm_walls) = (vec![], vec![], vec![], vec![]);
    let mut last_traced = None;
    let window = Window::of(args.seconds * 0.6);
    let mut op_id = 0;
    while window.open(plain.len(), 3) {
        op_id += 1;
        let p = ready.op(&cfg, op_id, spans);
        out.tally(&p);
        plain.push(p.wall_s);
        let t = ready.op(&traced_cfg, op_id, &mut Spans::disabled());
        out.tally(&t);
        traced.push(t.wall_s);
        let r = ready.op(&regvm_cfg, op_id, &mut Spans::disabled());
        out.tally(&r);
        reg.push(r.wall_s);
        // The tiers must agree on the arrays and on the simulated clock.
        let same = match (&p.report, &r.report) {
            (Some(a), Some(b)) => {
                Exact::of(a) == Exact::of(b)
                    && a.arrays
                        .iter()
                        .zip(&b.arrays)
                        .all(|(x, y)| x.bytes() == y.bytes())
            }
            _ => false,
        };
        out.correct &= same;
        if let Some(rep) = &p.report {
            comm_walls.push(rep.profile.comm_wall_s);
            out.correct &= Exact::of(rep) == ready.exact;
        }
        last_traced = t.report.or(last_traced);
    }
    let Some(tr) = last_traced else {
        out.correct = false;
        return;
    };
    let wall_s = stats::median(&plain).unwrap_or(0.0);
    let comm_wall_s = stats::median(&comm_walls).unwrap_or(0.0);
    let p = &tr.profile;
    let c = tr.trace.counters();
    let sim_s = p.time.parallel_region();

    // Fig. 7's shape: the same input on one GPU of the same machine.
    let one = spans.scope("accrt.one_gpu", 0, |_| {
        ready.op(&kind.exec_config(1), 0, &mut Spans::disabled())
    });
    out.tally(&one);
    let m = &mut out.metrics;
    if let Some(r1) = &one.report {
        m.put(
            "accrt.sim_speedup_vs_1gpu",
            r1.profile.time.parallel_region() / sim_s,
        );
    }

    // How much of the plain operations' span trees the launch covers: the
    // rest is input copies, machine construction and the oracle.
    let totals = spans.total_ns_by_name();
    if let (Some(&launch), Some(&op)) = (totals.get("accrt.engine.launch"), totals.get("op")) {
        m.put("bench.launch_span_share", launch as f64 / op.max(1) as f64);
    }

    m.put(
        "bench.ops_per_s",
        plain.len() as f64 / plain.iter().sum::<f64>(),
    );
    m.put("bench.wall_p50_s", wall_s);
    m.put("apps.generate_s", ready.generate_s);
    m.put("apps.reference_s", ready.reference_s);
    m.put("apps.input_fingerprint48", ready.fingerprint());

    let prog = ready.kernel.program();
    let configs = || prog.kernels.iter().flat_map(|k| &k.configs);
    m.put("accc.kernels", prog.kernels.len() as f64);
    m.put(
        "accc.miss_checks_elided",
        configs().filter(|c| c.miss_check_elided).count() as f64,
    );
    m.put("accc.comm_elide_facts", prog.comm_plan.n_facts() as f64);
    m.put("accc.overlap_facts", prog.overlap_plan.n_facts() as f64);

    let k = &p.kernel_counters;
    let ops = k.total_ops();
    m.put("kernel-ir.ops", ops as f64);
    m.put("kernel-ir.threads", k.threads as f64);
    m.put("kernel-ir.dirty_marks", k.dirty_marks as f64);
    m.put("kernel-ir.miss_checks", k.miss_checks as f64);
    m.put("kernel-ir.misses", k.misses as f64);
    m.put(
        "kernel-ir.host_ns_per_op",
        (wall_s - comm_wall_s) * 1e9 / ops.max(1) as f64,
    );
    m.put(
        "kernel-ir.regvm_wall_ratio",
        stats::median(&reg).unwrap_or(0.0) / wall_s,
    );
    m.put(
        "kernel-ir.bytecode_compile_us",
        1e6 * median_secs(20, || {
            for k in &prog.kernels {
                black_box(bytecode::compile(black_box(&k.kernel.body)));
            }
        }),
    );
    m.put(
        "kernel-ir.regvm_compile_us",
        1e6 * median_secs(20, || {
            for k in &prog.kernels {
                black_box(regvm::compile(black_box(&k.kernel)));
            }
        }),
    );

    m.put("accrt.sim_s", sim_s);
    m.put("accrt.sim_kernels_s", p.time.kernels);
    m.put("accrt.sim_cpu_gpu_s", p.time.cpu_gpu);
    m.put("accrt.sim_gpu_gpu_s", p.time.gpu_gpu);
    m.put("accrt.p2p_mb", p.p2p_bytes as f64 / MB);
    m.put("accrt.h2d_mb", p.h2d_bytes as f64 / MB);
    m.put("accrt.d2h_mb", p.d2h_bytes as f64 / MB);
    m.put("accrt.kernel_launches", p.kernel_launches as f64);
    m.put("accrt.dirty_chunks_sent", p.dirty_chunks_sent as f64);
    m.put("accrt.miss_records", p.miss_records as f64);
    let events = tr.trace.events();
    m.put(
        "accrt.comm_rounds",
        events
            .iter()
            .filter(|e| matches!(e, Event::Comm(_)))
            .count() as f64,
    );
    m.put("accrt.collective_rounds", c.collective_rounds as f64);
    m.put("accrt.loader_loads", c.loader_loads as f64);
    m.put("accrt.loader_reuses", c.loader_reuses as f64);
    m.put(
        "accrt.loader_reuse_ratio",
        c.loader_reuses as f64 / (c.loader_loads + c.loader_reuses).max(1) as f64,
    );
    m.put("accrt.overlap_hidden_s", c.overlap_hidden_ns as f64 / 1e9);
    m.put("accrt.comm_wall_s", comm_wall_s);
    m.put(
        "accrt.noncomm_wall_per_launch_us",
        (wall_s - comm_wall_s) * 1e6 / p.kernel_launches.max(1) as f64,
    );
    m.put("accrt.staging_allocs", p.staging_allocs as f64);
    m.put("accrt.scratch_allocs", p.scratch_allocs as f64);

    // Read the engine's counters before the probes below add to them.
    let es = ready.engine.stats();
    m.put("accrt.engine.cache_hit_rate", es.cache_hit_rate());
    m.put("accrt.engine.pool_reuses", es.pool_reuses as f64);
    m.put("accrt.engine.evictions", es.evictions as f64);
    let (hit_us, miss_us) = engine_probe(&ready.engine, kind.source(), args.seed);
    m.put("accrt.engine.hit_us", hit_us);
    m.put("accrt.engine.miss_us", miss_us);

    // Replay the traced operation's transfers through a fresh topology:
    // what pricing alone costs the host, and where the bytes went.
    let mut topo = kind.machine().bus;
    let end = |g: Option<usize>| g.map_or(Endpoint::Host, Endpoint::Gpu);
    let mut by_distance = [0u64; 3];
    let transfers: Vec<(Endpoint, Endpoint, u64, f64)> = events
        .iter()
        .filter_map(|e| match e {
            Event::Transfer(t) => {
                if let (Some(a), Some(b)) = (t.src, t.dst) {
                    by_distance[topo.distance(a, b) as usize] += t.bytes;
                }
                Some((end(t.src), end(t.dst), t.bytes, t.start))
            }
            _ => None,
        })
        .collect();
    let replay_s = spans.scope("gpusim.replay", 0, |_| {
        median_secs(10, || {
            topo.reset();
            for &(src, dst, bytes, ready_at) in &transfers {
                black_box(topo.transfer(src, dst, bytes, ready_at));
            }
        })
    });
    m.put("gpusim.transfers", transfers.len() as f64);
    m.put(
        "gpusim.price_ns_per_transfer",
        replay_s * 1e9 / transfers.len().max(1) as f64,
    );
    m.put("gpusim.island_mb", by_distance[0] as f64 / MB);
    m.put("gpusim.node_mb", by_distance[1] as f64 / MB);
    m.put("gpusim.fabric_mb", by_distance[2] as f64 / MB);
    let peak = |f: fn(&acc_runtime::GpuMemReport) -> u64| {
        tr.mem.iter().map(f).max().unwrap_or(0) as f64 / MB
    };
    m.put("gpusim.sim_mem_user_mb", peak(|g| g.user_peak));
    m.put("gpusim.sim_mem_system_mb", peak(|g| g.system_peak));
    m.put(
        "gpusim.sim_mem_peak_mb",
        peak(|g| g.user_peak + g.system_peak),
    );

    m.put("obs.events", events.len() as f64);
    m.put(
        "obs.trace_overhead_share",
        (stats::median(&traced).unwrap_or(0.0) - wall_s) / wall_s,
    );
    m.put(
        "obs.chrome_export_ms",
        1e3 * median_secs(3, || {
            black_box(tr.trace.chrome_trace());
        }),
    );
}

/// `Engine::compile_entry` on a cached request, and on one made unique by
/// a seeded trailing comment (which compiles, then deduplicates on the IR
/// hash). Microseconds.
pub(super) fn engine_probe(engine: &Engine, source: (&str, &str), seed: u64) -> (f64, f64) {
    let opts = CompileOptions::proposal();
    let (src, function) = source;
    let hit = median_secs(200, || {
        black_box(engine.compile_entry(src, function, &opts).is_ok());
    });
    let mut i = 0;
    let miss = median_secs(5, || {
        i += 1;
        let unique = format!("{src}\n// accbench {seed}-{i}\n");
        black_box(engine.compile_entry(&unique, function, &opts).is_ok());
    });
    (hit * 1e6, miss * 1e6)
}
