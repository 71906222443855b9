//! The inter-GPU communication manager (paper §IV-D).
//!
//! Called "just after the kernel functions executed on the GPUs", it
//! performs, per array, the one `CommStep` the launch's `LaunchPlan`
//! decided (`plan.rs`) — three reconciliations:
//!
//! 1. **replicated arrays** — using the two-level dirty bits, only the
//!    chunks whose second-level bit is set move, and receivers apply the
//!    dirty element runs. Clean chunks move no bytes — the point of the
//!    two-level scheme (§IV-D1). The chunks travel as the union
//!    all-gather `route::sync_schedule` plans;
//! 2. **distributed arrays** — buffered write-miss records are routed to
//!    the GPU owning the destination element and replayed there
//!    (§IV-D2); halo copies are invalidated so the loader refreshes them;
//! 3. **reduction-private arrays** — the per-GPU private copies are
//!    folded along the merge tree `route::reduce_tree` plans (island,
//!    node, machine — the inter-GPU level of the §IV-B4 hierarchical
//!    reduction); GPU 0 ends up with the result.
//!
//! This module lands and prices the routes `route.rs` planned: every
//! transfer is a `Step` priced by `Run::price_steps`, every merge fold
//! lands through `Run::transfer`, and a miss replay is one step per
//! (source, owner) pair, carrying that pair's records.
//!
//! Each reconciliation has two independent halves:
//!
//! * the **functional half** mutates simulated device buffers. Replica
//!   sync and miss replay share the destination GPUs out over the host's
//!   cores through the same bounded fan-out as the kernel wave
//!   (`wave::for_each_gpu`) — destinations touch disjoint buffers, so
//!   this is safe — and data moves as typed byte windows
//!   (`copy_from_slice` / [`acc_kernel_ir::rmw_apply_slice`]) rather
//!   than element-at-a-time `get`/`set`;
//! * the **pricing half** walks the per-segment interconnect timelines
//!   and emits [`TransferSpan`]/[`CommRound`]/…​
//!   events. The timelines are order-dependent, so this half always runs
//!   serially, in a fixed order, on the coordinating thread — which is
//!   why *simulated* times never depend on the host's core count.

use acc_compiler::CompiledKernel;
use acc_gpusim::{BufferHandle, Endpoint, Gpu};
use acc_kernel_ir::{DirtyMap, MissRecord, RmwOp, Value};
use acc_obs::{
    CollectiveRound, CommElided, CommRound, Event, MissReplay, TransferKind, TransferSpan,
};

use crate::exec::Run;
use crate::plan::{owner_of, CommStep, LaunchPlan};
use crate::ranges::RangeSet;
use crate::route::{self, Chunk, Move, Step, SyncSchedule, LEVELS};
use crate::RunError;

/// Reusable scratch buffers for the runtime's functional halves.
///
/// Every sync round used to allocate one fresh `Vec<u8>` per dirty
/// source; iterative programs re-stage nearly identical footprints each
/// launch, so the pool hands back the previous round's buffers instead.
/// `allocs` counts the times a replica-sync staging buffer actually had
/// to be created or grown — for a steady-state iterative run it stays
/// near the GPU count.
///
/// The pool outlives a single run: [`run_program`](crate::run_program)
/// creates a fresh one per call, while a long-lived
/// [`Engine`](crate::Engine) checks pools out per job and
/// back in afterwards, so a busy server stops allocating once warm.
/// Three buffer classes are kept apart so their reuse patterns (and
/// counters) don't interfere:
///
/// * `bufs` — replica-sync staging ([`Run::apply_replica_runs`]),
///   counted in `allocs` / `Profiler::staging_allocs`;
/// * `scratch` — loader window-grow staging, counted in
///   `scratch_allocs` / `Profiler::scratch_allocs`;
/// * `miss_bufs` — per-GPU write-miss record buffers, reclaimed after
///   every communication phase (BFS-style apps fill these every launch).
#[derive(Debug, Default)]
pub(crate) struct StagingPool {
    bufs: Vec<Vec<u8>>,
    pub allocs: u64,
    scratch: Vec<Vec<u8>>,
    pub scratch_allocs: u64,
    miss_bufs: Vec<Vec<acc_kernel_ir::MissRecord>>,
}

impl StagingPool {
    /// Hand out a cleared replica-staging buffer with at least `cap`
    /// bytes of capacity.
    pub(crate) fn take(&mut self, cap: usize) -> Vec<u8> {
        let mut b = self.bufs.pop().unwrap_or_default();
        b.clear();
        if b.capacity() < cap {
            self.allocs += 1;
            b.reserve_exact(cap);
        }
        b
    }

    /// Return used replica-staging buffers to the pool (empty
    /// placeholders are dropped).
    pub(crate) fn put_back(&mut self, bufs: impl IntoIterator<Item = Vec<u8>>) {
        self.bufs.extend(bufs.into_iter().filter(|b| b.capacity() > 0));
    }

    /// Hand out a cleared loader/copy scratch buffer with at least `cap`
    /// bytes of capacity.
    pub(crate) fn take_scratch(&mut self, cap: usize) -> Vec<u8> {
        let mut b = self.scratch.pop().unwrap_or_default();
        b.clear();
        if b.capacity() < cap {
            self.scratch_allocs += 1;
            b.reserve_exact(cap);
        }
        b
    }

    /// Return a scratch buffer to the pool.
    pub(crate) fn put_back_scratch(&mut self, buf: Vec<u8>) {
        if buf.capacity() > 0 {
            self.scratch.push(buf);
        }
    }

    /// Hand out a cleared write-miss record buffer.
    pub(crate) fn take_misses(&mut self) -> Vec<acc_kernel_ir::MissRecord> {
        let mut b = self.miss_bufs.pop().unwrap_or_default();
        b.clear();
        b
    }

    /// Reclaim per-GPU miss buffers after the communication phase.
    pub(crate) fn put_back_misses(
        &mut self,
        bufs: impl IntoIterator<Item = Vec<acc_kernel_ir::MissRecord>>,
    ) {
        self.miss_bufs
            .extend(bufs.into_iter().filter(|b| b.capacity() > 0));
    }
}

fn chunk_payload(dm: &DirtyMap, c: usize) -> Chunk {
    let (clo, chi) = dm.chunk_range(c);
    (c, ((chi - clo) * dm.elem_bytes()) as u64 + ((chi - clo) as u64).div_ceil(8))
}

impl<'a> Run<'a> {
    /// Run the communication phase — one [`CommStep`] per array, as the
    /// plan decided; transfers are scheduled from `t2`. Returns the phase
    /// end time.
    pub(crate) fn comm_phase(
        &mut self,
        ck: &CompiledKernel,
        plan: &LaunchPlan,
        misses: &[Vec<MissRecord>],
        t2: f64,
    ) -> Result<f64, RunError> {
        let mut end = t2;
        for (kbuf, ap) in plan.arrays.iter().enumerate() {
            let e = match &ap.comm {
                // Nothing to reconcile; the host copy is refreshed on
                // demand by update/copy-out.
                CommStep::None => t2,
                CommStep::Sync => self.sync_replicas(ap.arr, t2)?,
                CommStep::Elide(claims) => {
                    // A sanitized run audits the claims first. Keep the
                    // dirty maps armed and accumulating, and defer
                    // reconciliation to the first operation that can
                    // observe another GPU's partition (ensure_synced).
                    if !plan.sanitize.is_empty() {
                        self.audit_elision(ap.arr, claims)?;
                    }
                    let skipped = self.pending_sync_bytes(ap.arr);
                    self.arrays[ap.arr].sync_pending = true;
                    self.rec.record(Event::Elided(CommElided {
                        launch: self.cur_launch,
                        array: self.prog.array_params[ap.arr].0.clone(),
                        skipped_bytes: skipped,
                        at: t2,
                    }));
                    t2
                }
                CommStep::ReplayMisses => {
                    let e = self.replay_misses(&ck.configs[kbuf].name, kbuf, plan, misses, t2)?;
                    // Halos are stale now; keep only owned ranges valid.
                    for (ga, own) in self.arrays[ap.arr].gpu.iter_mut().zip(&ap.own) {
                        ga.valid.intersect(&RangeSet::of(own.0, own.1));
                    }
                    e
                }
                CommStep::MergeReduction(op) => {
                    self.merge_reduction_copies(ap.arr, plan.active, *op, t2)?
                }
                CommStep::ClearPrivate => {
                    self.arrays[ap.arr].gpu[0].red_private = false;
                    t2
                }
            };
            end = end.max(e);
        }
        Ok(end)
    }

    /// Reconcile an array whose replica sync was elided earlier: run the
    /// deferred sync over the accumulated dirty runs, charging its cost
    /// to the caller's phase (the operation that forced the observation).
    /// Cheap no-op when nothing is pending. Returns the time the caller
    /// should continue from.
    pub(crate) fn ensure_synced(&mut self, arr: usize, t: f64) -> Result<f64, RunError> {
        if !self.arrays[arr].sync_pending {
            return Ok(t);
        }
        self.arrays[arr].sync_pending = false;
        let wall = std::time::Instant::now();
        let e = self.sync_replicas(arr, t)?;
        self.comm_wall_s += wall.elapsed().as_secs_f64();
        Ok(e)
    }

    /// `SanitizeLevel::Full` audit of a comm-elision fact: every GPU's
    /// accumulated dirty runs must lie inside the per-GPU partition the
    /// fact claimed; an escaping run proves the static analysis (or a
    /// fault-injected fact) unsound.
    fn audit_elision(&self, arr: usize, claims: &[(i64, i64)]) -> Result<(), RunError> {
        for (g, &claim) in claims.iter().enumerate() {
            let Some(dm) = self.arrays[arr].gpu[g].dirty.as_ref() else {
                continue;
            };
            if dm.is_clean() {
                continue;
            }
            for c in dm.dirty_chunks() {
                for (lo, hi) in dm.dirty_runs_in_chunk(c) {
                    if (lo as i64) < claim.0 || (hi as i64) > claim.1 {
                        return Err(RunError::ElisionUnsound {
                            array: self.prog.array_params[arr].0.clone(),
                            gpu: g,
                            run: (lo as i64, hi as i64),
                            claim,
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Bytes a replica sync of `arr` would price right now: the steps of
    /// its schedule summed (the `CommElided` event's saving estimate).
    fn pending_sync_bytes(&self, arr: usize) -> u64 {
        let SyncSchedule { sets, levels } = self.replica_schedule(arr);
        let bytes = |s: &Step| sets[s.set].iter().map(|c| c.1).sum::<u64>();
        levels.iter().flatten().map(bytes).sum()
    }

    /// The schedule that reconciles `arr`'s replicas over the dirty bits
    /// as they stand.
    fn replica_schedule(&self, arr: usize) -> SyncSchedule {
        let gpus = &self.arrays[arr].gpu[..self.cfg.ngpus];
        // A GPU idle for this launch (empty partition) that never held a
        // replica has nothing to reconcile: it must receive no transfers
        // and appear in no comm rounds. A GPU that *does* still hold a
        // replica from an earlier launch stays a destination — its valid
        // set claims the data, so it has to keep tracking updates.
        let has_replica: Vec<bool> = gpus.iter().map(|ga| ga.handle.is_some()).collect();
        let chunks = |dm: &DirtyMap| dm.dirty_chunks().map(|c| chunk_payload(dm, c)).collect();
        let dirty = gpus.iter().map(|ga| ga.dirty.as_ref().map_or_else(Vec::new, chunks));
        route::sync_schedule(&self.machine.bus, dirty.collect(), &has_replica)
    }

    /// Price one step list — a schedule level, a miss replay, a merge
    /// round, a loader fill, a flush, an `update` or a wavefront feed —
    /// from its ready time `t`: every chunk of every step is its own
    /// asynchronous transfer (per-chunk latency is the cost of choosing
    /// small chunks — the other side of the §IV-D1 trade-off). Serial, in
    /// list order: the interconnect timelines are order-dependent.
    /// `landed(run, step, bytes, start, end)` reports each step as its
    /// last transfer is priced and returns when the step is complete at
    /// its destination; the latest of those is the list's end.
    pub(crate) fn price_steps<E: Copy + Into<Endpoint>>(
        &mut self,
        arr: usize,
        steps: &[Step<E>],
        sets: &[Vec<Chunk>],
        t: f64,
        why: &'static str,
        mut landed: impl FnMut(&mut Self, Step<E>, u64, f64, f64) -> f64,
    ) -> f64 {
        let mut level_end = t;
        for &step in steps {
            let (mut start, mut end, mut bytes) = (f64::INFINITY, t, 0u64);
            for &(_, payload) in &sets[step.set] {
                let (src, dst) = (step.src.into(), step.dst.into());
                let (s, e) = self.price_transfer(arr, src, dst, payload, t, why);
                start = start.min(s);
                end = end.max(e);
                bytes += payload;
            }
            level_end = level_end.max(landed(self, step, bytes, start, end));
        }
        level_end
    }

    /// Price one transfer on the interconnect from `ready` and record its
    /// [`TransferSpan`]; returns `(start, end)`. Only
    /// [`Run::price_steps`] calls it, so the recorder's spans and the
    /// topology's timelines cannot disagree.
    fn price_transfer(
        &mut self,
        arr: usize,
        src: Endpoint,
        dst: Endpoint,
        bytes: u64,
        ready: f64,
        why: &'static str,
    ) -> (f64, f64) {
        let (start, end) = self.machine.bus.transfer(src, dst, bytes, ready);
        let gpu = |e| match e {
            Endpoint::Gpu(g) => Some(g),
            Endpoint::Host => None,
        };
        self.rec.record(Event::Transfer(TransferSpan {
            kind: match (src, dst) {
                (Endpoint::Host, _) => TransferKind::H2D,
                (_, Endpoint::Host) => TransferKind::D2H,
                _ => TransferKind::P2P,
            },
            array: self.prog.array_params[arr].0.clone(),
            bytes,
            src: gpu(src),
            dst: gpu(dst),
            why,
            start,
            end,
        }));
        (start, end)
    }

    /// §IV-D1: replica reconciliation via two-level dirty bits.
    fn sync_replicas(&mut self, arr: usize, t2: f64) -> Result<f64, RunError> {
        let ngpus = self.cfg.ngpus;
        let SyncSchedule { sets, levels } = self.replica_schedule(arr);

        // Functional half: land every dirty run on every other replica.
        // Final contents do not depend on the priced schedule.
        let gpus = &self.arrays[arr].gpu[..ngpus];
        let runs = |dm: &DirtyMap| -> Vec<(usize, usize)> {
            dm.dirty_chunks().flat_map(|c| dm.dirty_runs_in_chunk(c)).collect()
        };
        let per_gpu_runs: Vec<_> = gpus
            .iter()
            .map(|ga| ga.dirty.as_ref().map_or_else(Vec::new, runs))
            .collect();
        if per_gpu_runs.iter().any(|r| !r.is_empty()) {
            self.apply_replica_runs(arr, &per_gpu_runs)?;
        }

        // Pricing half: the level walk, one `CommRound` per step. On a
        // relay hop `src` is the forwarding leader and the chunks are a
        // group's union, not `src`'s own.
        let mut end = t2;
        for steps in &levels {
            end = self.price_steps(arr, steps, &sets, end, "sync", |run, step, bytes, start, end| {
                run.rec.record(Event::Comm(CommRound {
                    launch: run.cur_launch,
                    array: run.prog.array_params[arr].0.clone(),
                    src: step.src,
                    dst: step.dst,
                    chunks: sets[step.set].len() as u64,
                    bytes,
                    start,
                    end,
                }));
                end
            });
        }

        // All replicas are consistent again; clear the bits.
        for g in 0..ngpus {
            if let Some(dm) = self.arrays[arr].gpu[g].dirty.as_mut() {
                dm.clear();
            }
        }
        Ok(end)
    }

    /// Per GPU, the `(window start, buffer)` of `arr` — what a destination
    /// needs to address its own replica.
    fn window_views(&self, arr: usize) -> Vec<(i64, Option<BufferHandle>)> {
        let gpus = &self.arrays[arr].gpu[..self.cfg.ngpus];
        gpus.iter().map(|ga| (ga.window.0, ga.handle)).collect()
    }

    /// The functional half of [`Run::sync_replicas`]: stage every dirty
    /// source's run bytes (pre-sync values), then let every destination
    /// apply all sources' runs to its own replica, in *descending* source
    /// order, destinations shared out over the host's cores.
    ///
    /// Conflicting writes (a program-level race under BSP) resolve
    /// deterministically: applying the staged runs from source
    /// `ngpus-1` down to `0` (a destination's own runs included,
    /// restoring its values at its turn) leaves the lowest-indexed dirty
    /// source's value last on every replica.
    fn apply_replica_runs(
        &mut self,
        arr: usize,
        runs: &[Vec<(usize, usize)>],
    ) -> Result<(), RunError> {
        let ngpus = self.cfg.ngpus;
        let elem = self.arrays[arr].elem();
        // Staging buffers come from the pool the caller lent the run
        // (engine-lifetime under `Engine`): iterative programs reconcile
        // the same arrays every superstep, and reusing capacity keeps
        // the per-launch allocation count flat.
        let mut pool = std::mem::take(self.staging);
        let mut staged: Vec<Vec<u8>> = vec![Vec::new(); ngpus];
        for g in 0..ngpus {
            if runs[g].is_empty() {
                continue;
            }
            let ga = &self.arrays[arr].gpu[g];
            let wlo = ga.window.0;
            let sb = self.machine.gpus[g]
                .memory
                .get(ga.handle.expect("dirty source window"))?;
            let bytes = sb.bytes();
            let total: usize = runs[g].iter().map(|&(lo, hi)| (hi - lo) * elem).sum();
            let mut buf = pool.take(total);
            for &(lo, hi) in &runs[g] {
                let off = (lo as i64 - wlo) as usize * elem;
                buf.extend_from_slice(&bytes[off..off + (hi - lo) * elem]);
            }
            staged[g] = buf;
        }

        // Idle GPUs without a replica receive nothing.
        let dsts = self.window_views(arr).into_iter();
        let dsts = dsts.map(|(wlo, h)| Some((wlo, h?))).collect();
        let gpus = &mut self.machine.gpus[..ngpus];
        let apply = |gpu: &mut Gpu, (wlo, handle): (i64, BufferHandle)| {
            let dbytes = gpu.memory.get_mut(handle)?.bytes_mut();
            for g in (0..ngpus).rev() {
                let mut cursor = 0usize;
                for &(lo, hi) in &runs[g] {
                    let nb = (hi - lo) * elem;
                    let off = (lo as i64 - wlo) as usize * elem;
                    dbytes[off..off + nb].copy_from_slice(&staged[g][cursor..cursor + nb]);
                    cursor += nb;
                }
            }
            Ok(())
        };
        let results = crate::wave::for_each_gpu(self.workers, gpus, dsts, apply);
        pool.put_back(staged);
        *self.staging = pool;
        results.into_iter().flatten().collect()
    }

    /// §IV-D2: route buffered write-miss records to their owners and
    /// replay them there. One routing pass yields one [`Step`] per
    /// (source, owner) pair, sources then owners ascending, whose single
    /// payload is the pair's records; the owners apply their records in
    /// one wave, each in ascending source order.
    fn replay_misses(
        &mut self,
        name: &str,
        kbuf: usize,
        plan: &LaunchPlan,
        misses: &[Vec<MissRecord>],
        t2: f64,
    ) -> Result<f64, RunError> {
        let ngpus = self.cfg.ngpus;
        let (arr, own) = (plan.arrays[kbuf].arr, &plan.arrays[kbuf].own[..plan.active]);
        let elem = self.arrays[arr].elem();
        let mut by_owner: Vec<Vec<&MissRecord>> = vec![Vec::new(); ngpus];
        let (mut steps, mut sets) = (Vec::new(), Vec::new());
        for (g, recs) in misses.iter().enumerate() {
            let mut from_g = vec![0usize; ngpus];
            for r in recs.iter().filter(|r| r.buf as usize == kbuf) {
                let owner = owner_of(own, r.idx).ok_or_else(|| RunError::MissOutsideCoverage {
                    array: name.to_string(),
                    idx: r.idx,
                })?;
                by_owner[owner].push(r);
                from_g[owner] += 1;
            }
            // A kernel buffers a miss only for a store outside its own
            // partition, and `owner_of` reads the same table, so no
            // record routes back to its source: such a pair is never
            // priced as a self-transfer.
            for (dst, &n) in from_g.iter().enumerate().filter(|&(h, &n)| n > 0 && h != g) {
                let set = sets.len();
                steps.push(Step { src: g, dst, set });
                sets.push(vec![(0, (n * (8 + elem)) as u64)]);
            }
        }
        if by_owner.iter().all(Vec::is_empty) {
            return Ok(t2);
        }
        self.apply_miss_batches(name, arr, &by_owner)?;
        let replayed = |run: &mut Self, step: Step, bytes: u64, start, arrived: f64| {
            let Step { src, dst, .. } = step;
            let records = bytes / (8 + elem) as u64;
            // Completing the writes is a small kernel on the owner.
            let spec = &run.machine.gpus[dst].spec;
            let end = arrived + spec.local_copy_time(records * elem as u64);
            run.rec.record(Event::Miss(MissReplay {
                launch: run.cur_launch,
                array: name.to_string(),
                src,
                dst,
                records,
                bytes,
                start,
                end,
            }));
            end
        };
        Ok(self.price_steps(arr, &steps, &sets, t2, "miss", replayed))
    }

    /// Apply per-owner miss batches to their owning GPUs, in parallel:
    /// owners are distinct GPUs, so their buffers are disjoint. Within an
    /// owner, records apply in batch order, and the first failing owner
    /// in ascending order is the one reported.
    fn apply_miss_batches(
        &mut self,
        array_name: &str,
        arr: usize,
        by_owner: &[Vec<&MissRecord>],
    ) -> Result<(), RunError> {
        let views = self.window_views(arr);
        type Batch<'r> = ((i64, Option<BufferHandle>), &'r Vec<&'r MissRecord>);
        let replay = |gpu: &mut Gpu, ((wlo, handle), recs): Batch<'_>| {
            let buf = gpu.memory.get_mut(handle.expect("owner window"))?;
            for r in recs {
                let local = r.idx - wlo;
                if local < 0 || local as usize >= buf.len() {
                    return Err(RunError::MissOutsideCoverage {
                        array: array_name.to_string(),
                        idx: r.idx,
                    });
                }
                let v: Value = r.value.cast(buf.ty());
                buf.set(local as usize, v);
            }
            Ok(())
        };
        let gpus = &mut self.machine.gpus[..self.cfg.ngpus];
        let batches = views.into_iter().zip(by_owner);
        let batches = batches.map(|b| (!b.1.is_empty()).then_some(b)).collect();
        crate::wave::for_each_gpu(self.workers, gpus, batches, replay)
            .into_iter()
            .flatten()
            .collect()
    }

    /// Inter-GPU level of the hierarchical reduction: fold the private
    /// copies into GPU 0 along [`route::reduce_tree`], each level's chains
    /// from the level's barrier, each round one [`Run::transfer`] of
    /// whole-array folds, each fold a [`CollectiveRound`]. The combine
    /// order follows the topology, observable only as rounding.
    fn merge_reduction_copies(
        &mut self,
        arr: usize,
        active: usize,
        op: RmwOp,
        t2: f64,
    ) -> Result<f64, RunError> {
        let n = self.arrays[arr].len;
        // Only GPUs that actually ran iterations hold a private copy
        // (GPU 0's live value or an identity fill). When the launch has
        // fewer iterations than GPUs the idle tail has neither — merging
        // it would fold never-initialised buffers into the result and
        // price transfers that never happen. The active GPUs are the
        // plan's prefix; a zero-length array has no holder even there.
        let k = if n == 0 { 0 } else { active };
        if k == 0 {
            return Ok(t2);
        }
        let (mut end, mut barrier, mut at, whole) = (t2, t2, 0, (0, n as i64));
        for (level, rounds) in route::reduce_tree(&self.machine.bus, k) {
            if level > at {
                (at, barrier) = (level, end);
            }
            let (mut t, level) = (barrier, LEVELS[level]);
            let mut merged = |run: &mut Self, step: Step, bytes, start, arrived: f64| {
                let Step { src, dst, .. } = step;
                let end = arrived + run.machine.gpus[dst].spec.local_copy_time(bytes);
                let (launch, array) = (run.cur_launch, run.prog.array_params[arr].0.clone());
                let round = CollectiveRound { launch, array, level, src, dst, bytes, start, end };
                run.rec.record(Event::Collective(round));
                end
            };
            for round in rounds {
                let folds: Vec<Move<usize>> = round.iter().map(|&(s, d)| (s, d, whole)).collect();
                t = self.transfer(arr, &folds, Some(op), t, "reduce", &mut merged)?;
            }
            end = end.max(t);
        }
        // GPU 0 now holds the merged result; other copies are garbage.
        for (g, ga) in self.arrays[arr].gpu.iter_mut().enumerate() {
            ga.red_private = false;
            ga.valid = RangeSet::of(0, if g == 0 { n as i64 } else { 0 });
        }
        Ok(end)
    }
}

#[cfg(test)]
mod tests;
