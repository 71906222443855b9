//! A launch is a plan.
//!
//! The paper's loader (§IV-C) and communication manager (§IV-D) both
//! consult one datum around every kernel call — the translator's
//! per-loop, per-array *array configuration information* (§IV-A Fig. 5).
//! [`LaunchPlan`] is that datum's per-launch instance: what every GPU
//! runs, holds, owns and owes, decided once by the pure [`build`] and
//! then only *read* — by the loader (windows, allocation class, dirty
//! maps, miss buffers, overlap licence), the kernel wave (tasks, owned
//! ranges, sanitizer table, wavefront licence) and the comm manager
//! (the active prefix and one [`CommStep`] per array).
//!
//! `build` sees no `Run`, no `Machine` and no recorder:
//! `Run::launch_gpu` evaluates the host expressions it needs
//! ([`ArrInputs`]) first, and the plan is rebuilt every launch — it
//! costs ≈ 3 µs at 64 GPUs, and a cache would have to skip host
//! evaluations that are priced into the simulated clock.

use acc_compiler::{CompiledKernel, CompiledProgram, Placement};
use acc_gpusim::memory::AllocClass;
use acc_kernel_ir::{BufSanitize, Expr, RmwOp};

use crate::{ExecConfig, SanitizeLevel, Schedule};

/// What the communication phase owes one array after the kernel wave.
/// The claims of the two elision variants are the per-GPU element
/// partitions a static comm-elision fact asserts every write of this
/// launch stays inside.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum CommStep {
    /// Nothing to reconcile (read-only, or a single GPU).
    None,
    /// §IV-D1 replica sync over the dirty bits.
    Sync,
    /// `SanitizeLevel::Full` re-arms an elided sync: audit the dirty
    /// runs against the claims, then sync — bit-identical to elision off.
    AuditedSync(Vec<(i64, i64)>),
    /// Skip the sync; dirty bits keep accumulating until something can
    /// observe another GPU's partition (`Run::ensure_synced`).
    Elide(Vec<(i64, i64)>),
    /// §IV-D2 write-miss replay on the owners, then drop stale halos.
    ReplayMisses,
    /// Inter-GPU level of the §IV-B4 hierarchical reduction.
    MergeReduction(RmwOp),
    /// Reduction destination on one GPU: atomics accumulated in place.
    ClearPrivate,
}

/// The host-evaluated facts about one kernel buffer's array.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ArrInputs {
    /// Array length in elements, and element size in bytes.
    pub len: i64,
    pub elem: usize,
    /// Validated `(stride, left, right)`; `Some` exactly for
    /// distributed arrays.
    pub localaccess: Option<(i64, i64, i64)>,
    /// The comm-elision fact's partition stride, when [`elision_stride`]
    /// asked for it.
    pub elide_stride: Option<i64>,
}

/// One array of one launch.
#[derive(Debug)]
pub(crate) struct ArrPlan {
    /// Program array index.
    pub arr: usize,
    pub placement: Placement,
    /// Per-GPU global ranges: to load, owned (a covering partition of
    /// the array — checked stores and write-miss routing), and to
    /// materialise (`window ⊇ required ∪ own`). All empty on idle GPUs.
    pub required: Vec<(i64, i64)>,
    pub own: Vec<(i64, i64)>,
    pub window: Vec<(i64, i64)>,
    pub writes: bool,
    /// Replica-sync dirty maps / write-miss system buffers are needed
    /// (on the GPUs with a window).
    pub needs_dirty: bool,
    pub needs_miss_buf: bool,
    /// The loader's peer halo fills are priced under the kernel phase:
    /// the knob is on, `SanitizeLevel::Full` is not re-arming the
    /// synchronous path, and an `OverlapFact` licensed it.
    pub overlap: bool,
    pub comm: CommStep,
}

impl ArrPlan {
    /// Reduction-private scratch copies (every GPU but the first) are
    /// runtime-created, so they count as System memory in Fig. 9.
    pub fn alloc_class(&self, g: usize) -> AllocClass {
        match self.placement {
            Placement::ReductionPrivate(_) if g > 0 => AllocClass::System,
            _ => AllocClass::User,
        }
    }
}

/// Everything one launch decided before it touches a device.
#[derive(Debug)]
pub(crate) struct LaunchPlan {
    /// Per-GPU `[lo, hi)` iteration ranges.
    pub tasks: Vec<(i64, i64)>,
    /// Length of the non-empty GPU prefix (both splitters compact empty
    /// ranges to the tail). Idle GPUs run nothing and hold nothing.
    pub active: usize,
    /// Every carried dependence was proved halo-local, so the cut runs
    /// as a pipelined wavefront in partition order (under either
    /// schedule: the licence rests on the dependence proof alone).
    pub wavefront: bool,
    /// Under `Schedule::CostModel`: the mapper's predicted seconds per
    /// GPU and whether measured history drove the cut.
    pub predicted: Option<(Vec<f64>, bool)>,
    /// Per-buffer sanitizer checks, the same on every GPU; empty under
    /// `SanitizeLevel::Off`.
    pub sanitize: Vec<BufSanitize>,
    /// Indexed by kernel buffer.
    pub arrays: Vec<ArrPlan>,
}

/// Whether replica-sync dirty maps track this kernel buffer's writes.
fn needs_dirty(prog: &CompiledProgram, cfg: &acc_compiler::ArrayConfig, ngpus: usize) -> bool {
    prog.options.instrument
        && ngpus > 1
        && cfg.mode.writes()
        && matches!(cfg.placement, Placement::Replicated)
}

/// The partition stride `launch_gpu` must evaluate for [`build`] to act
/// on a comm-elision fact. Only asked for when the runtime could act on
/// it: the facts assume the equal schedule's launch-invariant partitions,
/// and without dirty maps there is no sync to skip.
pub(crate) fn elision_stride<'p>(
    kidx: usize,
    kbuf: usize,
    ck: &CompiledKernel,
    prog: &'p CompiledProgram,
    cfg: &ExecConfig,
) -> Option<&'p Expr> {
    let licensed = cfg.comm_elision
        && cfg.schedule == Schedule::Equal
        && needs_dirty(prog, &ck.configs[kbuf], cfg.ngpus);
    prog.comm_plan.fact(kidx, kbuf).filter(|_| licensed).map(|f| &f.stride)
}

/// The GPU owning element `idx` under `own[..active]` — ascending by
/// construction, gaps and empty ranges included.
pub(crate) fn owner_of(own: &[(i64, i64)], idx: i64) -> Option<usize> {
    let g = own.partition_point(|r| r.1 <= idx);
    (g < own.len() && own[g].0 <= idx).then_some(g)
}

/// Decide one launch. `tasks` is the splitter's cut (`cfg.ngpus` ranges,
/// non-empty ones first), `inputs` is indexed by kernel buffer, and
/// `bus_product` is the interconnect's bandwidth·latency product in
/// bytes.
#[allow(clippy::too_many_arguments)]
pub(crate) fn build(
    kidx: usize,
    ck: &CompiledKernel,
    prog: &CompiledProgram,
    cfg: &ExecConfig,
    tasks: Vec<(i64, i64)>,
    predicted: Option<(Vec<f64>, bool)>,
    inputs: &[ArrInputs],
    bus_product: u64,
) -> LaunchPlan {
    let ngpus = tasks.len();
    let active = tasks.iter().take_while(|t| t.0 < t.1).count();
    debug_assert!(tasks[active..].iter().all(|t| t.0 >= t.1), "empty ranges form the tail");
    let cost_model = cfg.schedule == Schedule::CostModel;
    let mut arrays = Vec::with_capacity(ck.configs.len());
    let mut sanitize = Vec::new();
    for (kbuf, (ac, inp)) in ck.configs.iter().zip(inputs).enumerate() {
        let n = inp.len;
        let clamp = |x: i64| x.clamp(0, n);
        let mut required = vec![(0, 0); ngpus];
        let mut own = required.clone();
        if let Some((stride, left, right)) = inp.localaccess {
            // Under the cost model the cut points move between launches,
            // so a tight window would pay one transfer-latency round for
            // every few-element boundary shift. Padding the read range
            // by a slice of its own length keeps small shifts inside
            // already-valid data; the extra bytes are cheap next to the
            // per-transfer latency they avoid.
            let slack = |len: i64| (len / 8).max(left.max(right)).max(1);
            // A distributed array whose whole footprint is below the
            // bus's bandwidth·latency product is latency-dominated:
            // re-slicing it every launch costs more in transfer rounds
            // than replicating it once. Under the cost model, read such
            // arrays in full.
            let whole_read = cost_model && n as u64 * inp.elem as u64 <= bus_product;
            for g in 0..active {
                let (tlo, thi) = tasks[g];
                let pad = if cost_model { slack(stride * (thi - tlo)) } else { 0 };
                required[g] = if whole_read {
                    (0, n)
                } else {
                    (clamp(stride * tlo - left - pad), clamp(stride * thi + right + pad))
                };
                // Covering partition: the first owner reaches down to 0,
                // the last up to n, the others up to their successor.
                let own_lo = if g == 0 { 0 } else { clamp(stride * tlo) };
                let own_hi = if g + 1 < active { clamp(stride * tasks[g + 1].0) } else { n };
                own[g] = (own_lo, own_hi.max(own_lo));
            }
        } else {
            // Replicated / reduction-private: active GPUs hold the whole
            // array. Materialising (or syncing) a replica on a GPU that
            // runs no kernel would only fabricate allocations and comm
            // traffic.
            required[..active].fill((0, n));
            own[..active].fill((0, n));
        }
        let window = required.iter().zip(&own).map(|(r, o)| (r.0.min(o.0), r.1.max(o.1)));
        let window: Vec<_> = window.collect();
        let writes = ac.mode.writes();
        let distributed = matches!(ac.placement, Placement::Distributed);
        let needs_dirty = needs_dirty(prog, ac, ngpus);
        if cfg.sanitize != SanitizeLevel::Off {
            // The audits only make sense on distributed arrays: checked
            // stores handle their own misses, and replicated arrays own
            // (and keep resident) the whole window.
            let loads = cfg.sanitize.checks_loads();
            // Carried-distance audit: a load must stay within the proved
            // distance of the loading thread's own stride window, or the
            // `CarriedLocal` verdict (and everything it licensed) was
            // mislabeled.
            let carried = ac.lint.verdict.carried_distance().and_then(|d| d.halo_need());
            sanitize.push(BufSanitize {
                load_window: inp.localaccess.filter(|_| loads),
                carried_window: carried
                    .and_then(|(lw, rw)| inp.localaccess.map(|(s, _, _)| (s, lw * s, rw * s)))
                    .filter(|_| loads),
                check_stores: writes && ac.miss_check_elided && distributed,
            });
        }
        let claims = elision_stride(kidx, kbuf, ck, prog, cfg)
            .and(inp.elide_stride)
            .filter(|&s| s >= 1)
            .map(|s| tasks.iter().map(|&(a, b)| (clamp(s * a), clamp(s * b.max(a)))).collect());
        let comm = match (&ac.placement, claims) {
            (Placement::ReductionPrivate(op), _) if ngpus > 1 => CommStep::MergeReduction(*op),
            (Placement::ReductionPrivate(_), _) => CommStep::ClearPrivate,
            _ if !writes || ngpus == 1 => CommStep::None,
            (Placement::Distributed, _) => CommStep::ReplayMisses,
            (_, Some(claims)) if cfg.sanitize == SanitizeLevel::Full => CommStep::AuditedSync(claims),
            (_, Some(claims)) => CommStep::Elide(claims),
            (_, None) => CommStep::Sync,
        };
        arrays.push(ArrPlan {
            arr: ac.array,
            placement: ac.placement.clone(),
            required,
            own,
            window,
            writes,
            needs_dirty,
            needs_miss_buf: prog.options.instrument
                && ngpus > 1
                && writes
                && distributed
                && !ac.miss_check_elided,
            overlap: cfg.overlap
                && cfg.sanitize != SanitizeLevel::Full
                && distributed
                && prog.overlap_plan.fact(kidx, kbuf).is_some(),
            comm,
        });
    }
    LaunchPlan {
        wavefront: ngpus > 1 && acc_compiler::wavefront_eligible(ck),
        tasks,
        active,
        predicted,
        sanitize,
        arrays,
    }
}

#[cfg(test)]
mod tests;
