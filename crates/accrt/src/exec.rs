//! The host-program executor: walks the translated [`HostOp`] tree — the
//! frontend's host tree with each parallel loop replaced by its kernel
//! index — interprets sequential host code, and orchestrates BSP kernel
//! launches (loader phase → parallel kernel phase → communication phase
//! → barrier, paper §III-A Fig. 3).
//!
//! Data regions are structured: `HostOp::DataRegion` enters per its clauses,
//! runs its body and exits — copy-out, then free at depth zero — on every
//! flow out of the body (`break`, `continue` and `return` included). The
//! translator already wrapped each launch in the implicit region for its
//! uncovered arrays, so a launch itself decides nothing about regions.
//!
//! A GPU launch first becomes a `LaunchPlan`: `launch_gpu` evaluates
//! the host expressions it depends on and calls the pure `plan::build`
//! once; the loader, the kernel wave, the sanitizer verdict and the comm
//! manager are then methods that read it.

use acc_compiler::{ArrayConfig, CompiledKernel, CompiledProgram, HostOp, Placement};
use acc_compiler::affine::AccessPattern;
use acc_compiler::analysis::pattern_efficiency;
use acc_gpusim::{Endpoint, Gpu, Machine};
use acc_kernel_ir as ir;
use acc_minic::hir::{TypedDataClause, TypedSection};
use acc_obs::{
    Event, InferredAnnotation, LaunchSpan, MapperDecision, PhaseKind, PhaseSpan, Recorder,
    SanitizeEvent, WavefrontRound,
};
use ir::interp::{eval_host_expr, rmw_apply, run_host_block};
use ir::{
    Buffer, BufSlot, DirtyMap, ExecCtx, MissRecord, OpCounters, SanitizeKind,
    SanitizeRecord, Value,
};

use crate::plan::{self, ArrInputs, ArrPlan, LaunchPlan};
use crate::program::{KernelCode, ProgramState};
use crate::profiler::Profiler;
use crate::ranges::RangeSet;
use crate::route;
use crate::state::{split_tasks, ArrayState};
use crate::{
    ExecConfig, ExecMode, GpuMemReport, RunError, RunReport, Schedule,
};

/// Host-level control flow signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flow {
    Normal,
    Break,
    Continue,
    Return,
}

/// One exit obligation of an open data region: the array and, for a
/// `copy`/`copyout` section, the range flushed back to the host.
type Exit = (usize, Option<(i64, i64)>);

/// What one GPU returns from its kernel job.
#[derive(Default)]
struct JobOut {
    counters: OpCounters,
    per_buf_bytes: Vec<(u64, u64)>,
    partials: Vec<Value>,
    misses: Vec<MissRecord>,
    dirty_back: Vec<Option<DirtyMap>>,
    sanitize_log: Vec<SanitizeRecord>,
    sanitize_hits: u64,
    ran: bool,
    /// Simulated kernel start and duration on this GPU (set by the wave).
    start: f64,
    tg: f64,
}

/// What the wave moves onto one GPU for its share of a launch; tasks,
/// owned ranges, miss capacity and sanitizer table are read from the plan.
struct Job {
    binds: Vec<JobBind>,
    /// Pooled write-miss buffer (capacity recycled across launches).
    miss_buf: Vec<MissRecord>,
}

/// One kernel buffer as resident on the job's GPU, its dirty map
/// temporarily moved out of the engine state.
struct JobBind {
    handle: acc_gpusim::BufferHandle,
    window_lo: i64,
    dirty: Option<DirtyMap>,
}

/// One program execution in flight. Short-lived: borrows the machine,
/// the config and (since the [`Engine`](crate::Engine) redesign) the
/// scratch pool and the per-program [`ProgramState`] from its caller —
/// [`run_program`](crate::run_program) lends fresh ones per call, a
/// long-lived `Engine` lends pooled/shared ones across jobs.
pub(crate) struct Run<'a> {
    pub machine: &'a mut Machine,
    pub cfg: &'a ExecConfig,
    pub prog: &'a CompiledProgram,
    pub locals: Vec<Value>,
    pub host_arrays: Vec<Buffer>,
    pub arrays: Vec<ArrayState>,
    /// The structured event stream; times and event counters are derived
    /// from it at the end of the run.
    pub rec: Recorder,
    /// Aggregated interpreter work counters (not part of the stream).
    pub kernel_counters: OpCounters,
    pub host_counters: OpCounters,
    /// Id of the launch currently executing (valid inside `launch`).
    pub cur_launch: u64,
    /// The simulated clock. Only [`Run::advance`] moves it.
    now: f64,
    /// The program's mapper history and compiled kernels.
    shared: &'a ProgramState,
    /// Reusable staging/scratch/miss buffers, lent by the caller (the
    /// replica-staging allocation count surfaces as
    /// `Profiler::staging_allocs`).
    pub(crate) staging: &'a mut crate::comm::StagingPool,
    /// Pool counter values at run start, so the profile reports this
    /// run's allocations even when the pool is warm from earlier jobs.
    base_staging_allocs: u64,
    base_scratch_allocs: u64,
    /// Host wall-clock seconds spent inside communication phases
    /// (including deferred elided syncs).
    pub(crate) comm_wall_s: f64,
    /// Host threads a per-GPU wave may occupy
    /// ([`wave::host_workers`](crate::wave::host_workers)). Simulated
    /// results do not depend on it; only in-crate tests set it.
    pub(crate) workers: usize,
}

impl<'a> Run<'a> {
    pub fn new(
        machine: &'a mut Machine,
        cfg: &'a ExecConfig,
        prog: &'a CompiledProgram,
        scalars: Vec<Value>,
        host_arrays: Vec<Buffer>,
        shared: &'a ProgramState,
        staging: &'a mut crate::comm::StagingPool,
    ) -> Run<'a> {
        let ngpus = if cfg.mode == ExecMode::Gpu {
            cfg.ngpus
        } else {
            0
        };
        let arrays = host_arrays
            .iter()
            .map(|b| ArrayState::new(b.ty(), b.len(), ngpus))
            .collect();
        let mut locals: Vec<Value> = prog.locals.iter().map(|(_, t)| t.zero()).collect();
        for (i, v) in scalars.into_iter().enumerate() {
            locals[i] = v;
        }
        let (base_staging_allocs, base_scratch_allocs) = (staging.allocs, staging.scratch_allocs);
        Run {
            machine,
            cfg,
            prog,
            locals,
            host_arrays,
            arrays,
            rec: Recorder::new(cfg.tracing),
            kernel_counters: OpCounters::default(),
            host_counters: OpCounters::default(),
            cur_launch: 0,
            now: 0.0,
            shared,
            staging,
            base_staging_allocs,
            base_scratch_allocs,
            comm_wall_s: 0.0,
            workers: crate::wave::host_workers(),
        }
    }

    pub fn run(mut self) -> Result<RunReport, RunError> {
        let prog = self.prog;
        // Surface every inferred-and-consumed `localaccess` annotation as
        // a typed event up front: placement is a compile-time fact.
        for ck in &prog.kernels {
            for cfg in &ck.configs {
                if cfg.inferred_used {
                    let la = cfg
                        .localaccess
                        .as_ref()
                        .expect("inferred_used implies a localaccess");
                    self.rec.record(Event::Inferred(InferredAnnotation {
                        kernel: ck.kernel.name.clone(),
                        array: cfg.name.clone(),
                        pragma: acc_compiler::render_annotation(&cfg.name, la, &prog.locals),
                        at: 0.0,
                    }));
                }
            }
        }
        self.exec_ops(&prog.host)?;
        // Sequential host time from the aggregate host counters, appended
        // to the timeline as one phase span (host statements interleave
        // with the simulated phases but are priced in aggregate).
        let host_time = self.machine.cpu.serial_time(&self.host_counters);
        self.advance(PhaseKind::Host, self.now + host_time);
        let trace = self.rec.finish();
        let mut profile = Profiler::from_trace(&trace);
        profile.kernel_counters = self.kernel_counters;
        profile.host_counters = self.host_counters;
        profile.staging_allocs = self.staging.allocs - self.base_staging_allocs;
        profile.scratch_allocs = self.staging.scratch_allocs - self.base_scratch_allocs;
        profile.comm_wall_s = self.comm_wall_s;
        debug_assert_eq!(profile.h2d_bytes, self.machine.bus.h2d_bytes);
        debug_assert_eq!(profile.d2h_bytes, self.machine.bus.d2h_bytes);
        debug_assert_eq!(profile.p2p_bytes, self.machine.bus.p2p_bytes);
        let mem = self
            .machine
            .gpus
            .iter()
            .map(|g| {
                let (user_peak, system_peak) = g.memory.peak_by_class();
                GpuMemReport {
                    user_peak,
                    system_peak,
                }
            })
            .collect();
        Ok(RunReport {
            arrays: self.host_arrays,
            locals: self.locals,
            profile,
            mem,
            trace,
        })
    }

    /// Move the simulated clock to `to`, recording `[now, to]` as a
    /// `phase` span — of the current launch, unless it is host or data
    /// time. Nothing else moves the clock, so the phase spans tile the
    /// run and their totals add up to it.
    fn advance(&mut self, phase: PhaseKind, to: f64) {
        let launch = match phase {
            PhaseKind::Host | PhaseKind::Data => None,
            PhaseKind::Loader | PhaseKind::Kernel | PhaseKind::Comm => Some(self.cur_launch),
        };
        self.rec.record(Event::Phase(PhaseSpan { launch, phase, start: self.now, end: to }));
        self.now = to;
    }

    // ---------------- host interpretation ----------------

    fn host_ctx<'b>(host_arrays: &'b mut [Buffer]) -> ExecCtx<'b> {
        let bufs: Vec<BufSlot<'b>> = host_arrays.iter_mut().map(BufSlot::whole).collect();
        let n = bufs.len();
        ExecCtx {
            params: Vec::new(),
            bufs,
            reduction_partials: Vec::new(),
            miss_buf: Vec::new(),
            miss_capacity: usize::MAX,
            counters: OpCounters::default(),
            per_buf_bytes: vec![(0, 0); n],
            sanitize: Vec::new(),
            sanitize_log: Vec::new(),
            sanitize_hits: 0,
        }
    }

    pub(crate) fn eval_host(&mut self, e: &ir::Expr) -> Result<Value, RunError> {
        let mut ctx = Self::host_ctx(&mut self.host_arrays);
        let v = eval_host_expr(e, &mut self.locals, &mut ctx)?;
        self.host_counters.merge(&ctx.counters);
        Ok(v)
    }

    pub(crate) fn eval_host_i64(&mut self, e: &ir::Expr) -> Result<i64, RunError> {
        self.eval_host(e)?
            .as_index()
            .ok_or_else(|| RunError::BadInputs("non-integer bound expression".into()))
    }

    fn eval_host_bool(&mut self, e: &ir::Expr) -> Result<bool, RunError> {
        self.eval_host(e)?
            .as_bool()
            .ok_or_else(|| RunError::BadInputs("non-boolean condition".into()))
    }

    fn exec_plain(&mut self, s: &ir::Stmt) -> Result<(), RunError> {
        let mut ctx = Self::host_ctx(&mut self.host_arrays);
        run_host_block(std::slice::from_ref(s), &mut self.locals, &mut ctx)?;
        self.host_counters.merge(&ctx.counters);
        Ok(())
    }

    fn exec_ops(&mut self, ops: &[HostOp]) -> Result<Flow, RunError> {
        for op in ops {
            match op {
                HostOp::Plain(ir::Stmt::Break) => return Ok(Flow::Break),
                HostOp::Plain(ir::Stmt::Continue) => return Ok(Flow::Continue),
                HostOp::Plain(s) => self.exec_plain(s)?,
                HostOp::If { cond, then_, else_ } => {
                    let c = self.eval_host_bool(cond)?;
                    let f = self.exec_ops(if c { then_ } else { else_ })?;
                    if f != Flow::Normal {
                        return Ok(f);
                    }
                }
                HostOp::While { cond, body } => loop {
                    if !self.eval_host_bool(cond)? {
                        break;
                    }
                    match self.exec_ops(body)? {
                        Flow::Normal | Flow::Continue => {}
                        Flow::Break => break,
                        Flow::Return => return Ok(Flow::Return),
                    }
                },
                HostOp::DataRegion { clauses, body } => {
                    let exits = self.data_enter(clauses)?;
                    // Every flow out of the body exits the region; an
                    // error propagates without one.
                    let f = self.exec_ops(body)?;
                    self.data_exit(exits)?;
                    if f != Flow::Normal {
                        return Ok(f);
                    }
                }
                HostOp::ParallelLoop(kernel) => self.launch(*kernel)?,
                HostOp::Update { host, device } => self.update(host, device)?,
                HostOp::Return => return Ok(Flow::Return),
            }
        }
        Ok(Flow::Normal)
    }

    // ---------------- data regions / update ----------------

    /// Enter a data region: count each clause section into its array's
    /// nesting depth. Returns the region's exit obligations, one per
    /// section: `(array, copy-out range)` — `copy`/`copyout` sections
    /// flush their range back to the host at exit, the others only
    /// balance the depth.
    fn data_enter(&mut self, clauses: &[TypedDataClause]) -> Result<Vec<Exit>, RunError> {
        let mut exits = Vec::new();
        if self.cfg.mode == ExecMode::CpuParallel {
            return Ok(exits);
        }
        use acc_minic::directive::DataClauseKind as K;
        for c in clauses {
            for s in &c.sections {
                let (arr, range) = self.resolve_section(s)?;
                let st = &mut self.arrays[arr];
                if c.kind == K::Present && st.region_depth == 0 {
                    return Err(RunError::NotPresent(self.prog.array_params[arr].0.clone()));
                }
                if st.region_depth == 0 {
                    st.init_from_host = matches!(c.kind, K::Copy | K::CopyIn | K::Present);
                }
                st.region_depth += 1;
                exits.push((arr, matches!(c.kind, K::Copy | K::CopyOut).then_some(range)));
            }
        }
        Ok(exits)
    }

    /// Exit a data region: flush its copy-outs (all starting at once, in
    /// array order, each array's sections last-entered first) and free
    /// the arrays whose depth reaches zero.
    fn data_exit(&mut self, mut exits: Vec<Exit>) -> Result<(), RunError> {
        exits.reverse();
        exits.sort_by_key(|&(arr, _)| arr);
        let t0 = self.now;
        let mut end = t0;
        for (arr, copyout) in exits {
            if let Some((lo, hi)) = copyout {
                end = end.max(self.flush_to_host(arr, lo, hi, t0)?);
            }
            let st = &mut self.arrays[arr];
            st.region_depth -= 1;
            if st.region_depth == 0 {
                self.free_array_devices(arr)?;
            }
        }
        self.advance(PhaseKind::Data, end);
        Ok(())
    }

    fn update(&mut self, host: &[TypedSection], device: &[TypedSection]) -> Result<(), RunError> {
        if self.cfg.mode == ExecMode::CpuParallel {
            return Ok(());
        }
        let t0 = self.now;
        let mut end = t0;
        for s in host {
            let (arr, (lo, hi)) = self.resolve_section(s)?;
            end = end.max(self.flush_to_host(arr, lo, hi, t0)?);
        }
        for s in device {
            let (arr, (lo, hi)) = self.resolve_section(s)?;
            end = end.max(self.push_to_device(arr, lo, hi, t0)?);
        }
        self.advance(PhaseKind::Data, end);
        Ok(())
    }

    /// `s`'s program array and its `[lo, hi)` element range.
    fn resolve_section(&mut self, s: &TypedSection) -> Result<(usize, (i64, i64)), RunError> {
        let arr = s.buf.0 as usize;
        let range = match &s.range {
            None => (0, self.arrays[arr].len as i64),
            Some((a, b)) => {
                let lo = self.eval_host_i64(a)?;
                (lo, lo + self.eval_host_i64(b)?)
            }
        };
        Ok((arr, range))
    }

    // ---------------- kernel launch ----------------

    /// Kernel `kidx` in the form this run executes. The borrow is of the
    /// lent cache, not of `self`.
    fn kernel_code(&self, kidx: usize) -> Result<KernelCode<'a>, RunError> {
        self.shared.code(self.prog, kidx, self.cfg.kernel_vm)
    }

    fn launch(&mut self, kidx: usize) -> Result<(), RunError> {
        let prog = self.prog;
        let ck = &prog.kernels[kidx];
        self.cur_launch = self.rec.launch_begin();
        match self.cfg.mode {
            ExecMode::CpuParallel => self.launch_cpu(kidx, ck),
            ExecMode::Gpu => self.launch_gpu(kidx, ck),
        }
    }

    /// OpenMP-baseline execution: the whole iteration space runs as one
    /// CPU parallel region over the host arrays.
    fn launch_cpu(&mut self, kidx: usize, ck: &CompiledKernel) -> Result<(), RunError> {
        let lo = self.eval_host_i64(&ck.lo)?;
        let hi = self.eval_host_i64(&ck.hi)?;
        let params = self.gather_params(ck);
        let code = self.kernel_code(kidx)?;

        let mut hosts: Vec<_> = self.host_arrays.iter_mut().map(Some).collect();
        let bind = |c: &ArrayConfig| BufSlot::whole(hosts[c.array].take().expect("bound once"));
        let mut ctx = ExecCtx::new(code.kernel, params, ck.configs.iter().map(bind).collect());
        ctx.miss_capacity = self.cfg.miss_capacity;
        code.run(&mut ctx, lo, hi)?;
        let counters = ctx.counters;
        let per_buf_bytes = std::mem::take(&mut ctx.per_buf_bytes);
        let partials = std::mem::take(&mut ctx.reduction_partials);
        drop(ctx);

        // Memory pricing: per-buffer efficiency from the translator's
        // classification against the CPU cache.
        let cpu = &self.machine.cpu;
        let terms = mem_terms(
            ck,
            &per_buf_bytes,
            false,
            |_, cfg| self.host_arrays[cfg.array].size_bytes() as u64,
            |resident| cpu.gather_efficiency(resident),
        );
        let t = cpu.parallel_region_time(&counters, &terms);
        self.advance(PhaseKind::Kernel, self.now + t);
        self.kernel_counters.merge(&counters);
        self.apply_scalar_reductions(ck, &[partials])?;
        Ok(())
    }

    /// Multi-GPU BSP launch: decide the [`LaunchPlan`], then loader phase,
    /// kernel wave, communication phase, barrier — each a reader of it.
    fn launch_gpu(&mut self, kidx: usize, ck: &CompiledKernel) -> Result<(), RunError> {
        let ngpus = self.cfg.ngpus;
        let lo = self.eval_host_i64(&ck.lo)?;
        let hi = self.eval_host_i64(&ck.hi)?;
        // Task mapping. `Schedule::Equal` takes the paper's static
        // division directly — the mapper is never consulted and no
        // mapper events are emitted, keeping the default bit-identical
        // to a runtime without the cost model.
        let (tasks, predicted) = if self.cfg.schedule == Schedule::CostModel {
            let mapper = self.shared.mapper.lock().expect("mapper lock poisoned");
            let cut = mapper.plan(kidx, lo, hi, ngpus);
            (cut.tasks, Some((cut.predicted_s, cut.from_history)))
        } else {
            (split_tasks(lo, hi, ngpus), None)
        };
        let params = self.gather_params(ck);

        let inputs = self.eval_plan_inputs(kidx, ck)?;
        let bus = &self.machine.bus;
        let bus_product = (bus.h2d_bw * bus.latency) as u64;
        let plan = plan::build(kidx, ck, self.prog, self.cfg, tasks, predicted, &inputs, bus_product);

        // ---- loader phase ----
        let t0 = self.now;
        let (t1, bg_end) = self.loader_phase(&plan, t0)?;
        self.advance(PhaseKind::Loader, t1);

        // ---- kernel phase ----
        let outs = self.kernel_wave(kidx, ck, &plan, &params, t1)?;
        self.sanitizer_verdict(&plan, &outs, t1)?;
        let tk = self.close_kernel_phase(kidx, ck, &plan, &outs, t1);
        // Background halo fills that the loader priced past the barrier
        // run under the kernel phase; the wave cannot advance until both
        // the slowest kernel and the last in-flight fill are done. A fill
        // that outlasts the kernels is loader time again. Overlap saved
        // what waiting for every fill before the kernels would have cost.
        let t2 = (t1 + tk).max(bg_end);
        self.advance(PhaseKind::Loader, t2);
        self.rec.overlap_saved(t1.max(bg_end) + tk - t2);

        // Scalar reductions merge back into host locals.
        let partials: Vec<Vec<Value>> = outs
            .iter()
            .filter(|o| o.ran)
            .map(|o| o.partials.clone())
            .collect();
        self.apply_scalar_reductions(ck, &partials)?;

        // Device writes make the host copy stale until flushed.
        for ap in plan.arrays.iter().filter(|ap| ap.writes) {
            self.arrays[ap.arr].host_stale = true;
        }

        // ---- communication phase ----
        let misses: Vec<Vec<MissRecord>> = outs.into_iter().map(|o| o.misses).collect();
        let wall = std::time::Instant::now();
        let t3 = self.comm_phase(ck, &plan, &misses, t2)?;
        self.comm_wall_s += wall.elapsed().as_secs_f64();
        // The replay only reads the records; reclaim the buffers so the
        // next launch (or the pool's next job) skips the allocation.
        self.staging.put_back_misses(misses);
        self.advance(PhaseKind::Comm, t3);
        Ok(())
    }

    /// Evaluate, in kernel-buffer order, the host expressions
    /// [`plan::build`] needs: per distributed array its validated
    /// `localaccess` parameters, then the comm-elision stride where
    /// [`plan::elision_stride`] asks for one. Each evaluation is charged
    /// to `host_counters`, hence to the simulated clock.
    fn eval_plan_inputs(
        &mut self,
        kidx: usize,
        ck: &CompiledKernel,
    ) -> Result<Vec<ArrInputs>, RunError> {
        let mut out = Vec::with_capacity(ck.configs.len());
        for (kbuf, cfg) in ck.configs.iter().enumerate() {
            let bad = |what: String| RunError::BadLocalAccess(format!("`{}`: {what}", cfg.name));
            let localaccess = match (&cfg.placement, &cfg.localaccess) {
                (Placement::Distributed, Some(la)) => {
                    let stride = self.eval_host_i64(&la.stride)?;
                    let left = self.eval_host_i64(&la.left)?;
                    let right = self.eval_host_i64(&la.right)?;
                    if stride < 1 || left < 0 || right < 0 {
                        return Err(bad(format!("stride({stride}) left({left}) right({right})")));
                    }
                    Some((stride, left, right))
                }
                (Placement::Distributed, None) => {
                    return Err(bad("distributed placement without a localaccess window".into()))
                }
                _ => None,
            };
            let elide_stride = plan::elision_stride(kidx, kbuf, ck, self.prog, self.cfg)
                .map(|stride| self.eval_host_i64(stride))
                .transpose()?;
            let st = &self.arrays[cfg.array];
            out.push(ArrInputs { len: st.len as i64, elem: st.elem(), localaccess, elide_stride });
        }
        Ok(out)
    }

    /// The kernel phase's functional half: move each active GPU's windows
    /// and dirty maps into a [`Job`], run the wave — in parallel, or as
    /// the pipelined wavefront the plan licensed — and hand the dirty maps
    /// back. Every output carries its GPU's simulated start and duration.
    fn kernel_wave(
        &mut self,
        kidx: usize,
        ck: &CompiledKernel,
        plan: &LaunchPlan,
        params: &[Value],
        t1: f64,
    ) -> Result<Vec<JobOut>, RunError> {
        let ngpus = self.cfg.ngpus;
        let mut jobs: Vec<Option<Job>> = Vec::with_capacity(ngpus);
        for g in 0..ngpus {
            jobs.push((g < plan.active).then(|| Job {
                binds: plan
                    .arrays
                    .iter()
                    .map(|ap| {
                        let ga = &mut self.arrays[ap.arr].gpu[g];
                        JobBind {
                            handle: ga.handle.expect("loader materialised the window"),
                            window_lo: ga.window.0,
                            dirty: ga.dirty.take(),
                        }
                    })
                    .collect(),
                miss_buf: self.staging.take_misses(),
            }));
        }
        let code = self.kernel_code(kidx)?;
        let miss_capacity = self.cfg.miss_capacity;
        let run = |gpu: &mut Gpu, job| run_gpu_job(gpu, code, plan, params, miss_capacity, job);
        let mut outs: Vec<JobOut> = if plan.wavefront {
            self.wavefront(ck, plan, jobs, run, t1)?
        } else {
            // A GPU with an empty partition runs nothing and reports
            // zeros; the first error by ascending GPU is the run's.
            let gpus = &mut self.machine.gpus[..ngpus];
            let outs = crate::wave::for_each_gpu(self.workers, gpus, jobs, run);
            let outs = outs.into_iter().map(|out| out.unwrap_or_else(|| Ok(JobOut::default())));
            outs.collect::<Result<_, _>>()?
        };
        // Return dirty maps to the state, price the parallel path's
        // durations (the wavefront needed them to schedule its feeds).
        for (g, out) in outs.iter_mut().enumerate() {
            for (ap, dm) in plan.arrays.iter().zip(out.dirty_back.drain(..)) {
                self.arrays[ap.arr].gpu[g].dirty = dm;
            }
            if out.ran && !plan.wavefront {
                (out.start, out.tg) = (t1, self.gpu_kernel_time(ck, plan, g, out));
            }
        }
        Ok(outs)
    }

    /// Wavefront: when the compiler proved every carried dependence of
    /// this launch *local* (distance inside the declared halo), the cut
    /// — equal or cost-model — runs the GPUs sequentially in partition
    /// order, each fed its left halo with the rows its predecessors just
    /// wrote, so dependent outer iterations pipeline across the GPUs with
    /// the exact semantics of the sequential loop. Pricing is an honest
    /// pipeline: GPU g starts once GPU g-1 finished *and* g's halo feed
    /// landed.
    fn wavefront(
        &mut self,
        ck: &CompiledKernel,
        plan: &LaunchPlan,
        jobs: Vec<Option<Job>>,
        run: impl Fn(&mut Gpu, Job) -> Result<JobOut, RunError>,
        t1: f64,
    ) -> Result<Vec<JobOut>, RunError> {
        let mut outs = Vec::with_capacity(jobs.len());
        let mut cursor = t1;
        for (g, job) in jobs.into_iter().enumerate() {
            let (mut start_g, mut fed) = (cursor, 0u64);
            // Refresh this GPU's left halo — [required.0, own.0) of every
            // written distributed array — from the predecessors that own
            // those rows, nearest first, one step list per array, ready
            // when the previous GPU's turn ended.
            let written = |ap: &&ArrPlan| ap.writes && ap.placement == Placement::Distributed;
            for ap in plan.arrays.iter().filter(written) {
                let halo = RangeSet::of(ap.required[g].0, ap.own[g].0);
                let own = |h: usize| RangeSet::of(ap.own[h].0, ap.own[h].1);
                let owners = (0..g).rev().map(|h| (Endpoint::Gpu(h), own(h)));
                let (feeds, _) = route::cover(halo, Endpoint::Gpu(g), owners);
                let fed_at = |_: &mut Self, _, bytes, _, end| {
                    fed += bytes;
                    end
                };
                let landed = self.transfer(ap.arr, &feeds, None, cursor, "wavefront", fed_at)?;
                start_g = start_g.max(landed);
            }
            let Some(job) = job else {
                outs.push(JobOut::default());
                continue;
            };
            let mut out = run(&mut self.machine.gpus[g], job)?;
            (out.start, out.tg) = (start_g, self.gpu_kernel_time(ck, plan, g, &out));
            cursor = start_g + out.tg;
            self.rec.record(Event::Wavefront(WavefrontRound {
                launch: self.cur_launch,
                kernel: ck.kernel.name.clone(),
                gpu: g,
                round: g,
                fed_bytes: fed,
                start: start_g,
                end: cursor,
            }));
            outs.push(out);
        }
        Ok(outs)
    }

    /// Sanitizer verdicts: every retained violation becomes a typed
    /// observability event, then the run fails on the first one (the
    /// results would be silently wrong without the audit).
    fn sanitizer_verdict(
        &mut self,
        plan: &LaunchPlan,
        outs: &[JobOut],
        t1: f64,
    ) -> Result<(), RunError> {
        let name = |r: &SanitizeRecord| self.prog.array_params[plan.arrays[r.buf as usize].arr].0.clone();
        let mut first_violation: Option<(usize, SanitizeRecord)> = None;
        let mut total_hits = 0u64;
        for (g, out) in outs.iter().enumerate() {
            total_hits += out.sanitize_hits;
            for r in &out.sanitize_log {
                self.rec.record(Event::Sanitize(SanitizeEvent {
                    launch: self.cur_launch,
                    array: name(r),
                    gpu: g,
                    kind: match r.kind {
                        SanitizeKind::LoadOutsideWindow => "load-outside-window",
                        SanitizeKind::StoreOutsideOwn => "store-outside-own",
                        SanitizeKind::CarriedDistanceEscape => "carried-distance-escape",
                    },
                    tid: r.tid,
                    idx: r.idx,
                    window: r.window,
                    at: t1,
                }));
            }
            if first_violation.is_none() {
                first_violation = out.sanitize_log.first().map(|r| (g, *r));
            }
        }
        let Some((gpu, record)) = first_violation else {
            return Ok(());
        };
        let (array, hits) = (name(&record), total_hits);
        // Refusing here — before the communication phase and before any
        // flush — means no array state the violation may have corrupted
        // ever escapes the devices.
        Err(match record.kind {
            SanitizeKind::CarriedDistanceEscape => {
                RunError::CarriedDistanceViolated { array, gpu, record, hits }
            }
            _ => RunError::SanitizeViolation { array, gpu, record, hits },
        })
    }

    /// The kernel phase's account: a launch span per GPU that ran, the
    /// mapper's decision and feedback, the phase itself (the clock moves
    /// to its end). Returns the phase duration — to the last finisher,
    /// which under the wavefront's staggered starts is the final GPU.
    fn close_kernel_phase(
        &mut self,
        kidx: usize,
        ck: &CompiledKernel,
        plan: &LaunchPlan,
        outs: &[JobOut],
        t1: f64,
    ) -> f64 {
        let mut tk = 0.0f64;
        for (g, out) in outs.iter().enumerate().filter(|(_, o)| o.ran) {
            tk = tk.max(out.start + out.tg - t1);
            self.kernel_counters.merge(&out.counters);
            self.rec.record(Event::Launch(LaunchSpan {
                launch: self.cur_launch,
                kernel: ck.kernel.name.clone(),
                gpu: g,
                rows: plan.tasks[g],
                start: out.start,
                end: out.start + out.tg,
            }));
        }
        let overhead = self.machine.gpus[0].spec.launch_overhead_s;
        if outs.iter().all(|o| !o.ran) {
            // Degenerate empty launch still pays one launch overhead.
            tk = overhead;
        }
        if let Some((predicted_s, from_history)) = &plan.predicted {
            // One decision per launch: the ranges this launch actually
            // used, the history's prediction, and the measured cost the
            // next launch of this kernel will be cut from.
            let measured_s: Vec<f64> = outs.iter().map(|o| o.tg).collect();
            self.rec.record(Event::Mapper(MapperDecision {
                launch: self.cur_launch,
                kernel: ck.kernel.name.clone(),
                ranges: plan.tasks.clone(),
                predicted_s: predicted_s.clone(),
                measured_s: measured_s.clone(),
                from_history: *from_history,
                at: t1,
            }));
            let mut mapper = self.shared.mapper.lock().expect("mapper lock poisoned");
            mapper.record(kidx, &plan.tasks, &measured_s, overhead);
        }
        self.advance(PhaseKind::Kernel, t1 + tk);
        tk
    }

    /// Simulated duration of GPU `g`'s share of a launch: its work
    /// counters through the device model, memory traffic priced per
    /// buffer against the window resident on that GPU.
    fn gpu_kernel_time(
        &self,
        ck: &CompiledKernel,
        plan: &LaunchPlan,
        g: usize,
        out: &JobOut,
    ) -> f64 {
        let spec = &self.machine.gpus[g].spec;
        let terms = mem_terms(
            ck,
            &out.per_buf_bytes,
            true,
            |kbuf, cfg| {
                let w = plan.arrays[kbuf].window[g];
                ((w.1 - w.0).max(0) as u64) * self.arrays[cfg.array].elem() as u64
            },
            |resident| spec.gather_efficiency(resident),
        );
        spec.kernel_time(&out.counters, &terms)
    }

    fn gather_params(&self, ck: &CompiledKernel) -> Vec<Value> {
        ck.param_src.iter().map(|l| self.locals[l.0 as usize]).collect()
    }

    fn apply_scalar_reductions(
        &mut self,
        ck: &CompiledKernel,
        partials_per_gpu: &[Vec<Value>],
    ) -> Result<(), RunError> {
        for (slot, target) in ck.red_targets.iter().enumerate() {
            let op = ck.kernel.reductions[slot].op;
            let mut acc = self.locals[target.0 as usize];
            for partials in partials_per_gpu {
                acc = rmw_apply(op, acc, partials[slot])?;
            }
            self.locals[target.0 as usize] = acc;
        }
        Ok(())
    }
}

/// Execute one GPU's portion of a kernel, with exclusive access to that
/// GPU (any thread of the wave may run it).
fn run_gpu_job(
    gpu: &mut Gpu,
    code: KernelCode<'_>,
    plan: &LaunchPlan,
    params: &[Value],
    miss_capacity: usize,
    mut job: Job,
) -> Result<JobOut, RunError> {
    let g = gpu.id;
    let handles: Vec<_> = job.binds.iter().map(|b| b.handle).collect();
    let bufs = gpu
        .memory
        .get_many_mut(&handles)
        .expect("loader materialised all windows");
    let slots = (bufs.into_iter().zip(&mut job.binds).zip(&plan.arrays))
        .map(|((data, bind), ap)| BufSlot {
            data,
            window_lo: bind.window_lo,
            own: ap.own[g],
            dirty: bind.dirty.as_mut(),
        })
        .collect();
    let mut ctx = ExecCtx::new(code.kernel, params.to_vec(), slots);
    ctx.miss_buf = std::mem::take(&mut job.miss_buf);
    ctx.miss_capacity = miss_capacity;
    ctx.sanitize = plan.sanitize.clone();
    code.run(&mut ctx, plan.tasks[g].0, plan.tasks[g].1)?;
    let mut out = JobOut {
        counters: ctx.counters,
        per_buf_bytes: std::mem::take(&mut ctx.per_buf_bytes),
        partials: std::mem::take(&mut ctx.reduction_partials),
        misses: std::mem::take(&mut ctx.miss_buf),
        sanitize_log: std::mem::take(&mut ctx.sanitize_log),
        sanitize_hits: ctx.sanitize_hits,
        ran: true,
        ..JobOut::default()
    };
    drop(ctx);
    out.dirty_back = job.binds.into_iter().map(|b| b.dirty).collect();
    Ok(out)
}

/// `(bytes, efficiency)` memory-pricing terms for one device's share of
/// a launch: per kernel buffer a read and a write term, the efficiency
/// the translator's [`pattern_efficiency`] gives its access class.
/// `resident` is the buffer's footprint on the device and `gather` prices
/// an irregular access to it against the device's cache instead. On a
/// GPU a stride costs coalescing (and the §IV-B4 layout transform
/// restores it for reads); CPU caches absorb most of it.
fn mem_terms(
    ck: &CompiledKernel,
    per_buf_bytes: &[(u64, u64)],
    gpu: bool,
    resident: impl Fn(usize, &ArrayConfig) -> u64,
    gather: impl Fn(u64) -> f64,
) -> Vec<(u64, f64)> {
    let eff = |pattern: AccessPattern, resident: u64| match pattern {
        AccessPattern::Irregular => gather(resident),
        AccessPattern::Strided(_) | AccessPattern::StridedDyn if !gpu => 0.8,
        p => pattern_efficiency(p),
    };
    let mut terms = Vec::with_capacity(2 * ck.configs.len());
    for (kbuf, cfg) in ck.configs.iter().enumerate() {
        let resident = resident(kbuf, cfg);
        let (lb, sb) = per_buf_bytes[kbuf];
        let read = if gpu && cfg.layout_transformed {
            1.0
        } else {
            eff(cfg.read_pattern, resident)
        };
        terms.push((lb, read));
        terms.push((sb, eff(cfg.write_pattern, resident)));
    }
    terms
}
