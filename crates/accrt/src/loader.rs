//! The data loader (paper §IV-C).
//!
//! Before every kernel launch the loader guarantees that "all the data
//! which are potentially read by the kernel running on each GPU \[are\]
//! loaded into the corresponding GPU memory". It reads the launch's
//! `LaunchPlan` — windows, allocation class, which GPUs need dirty maps
//! or write-miss buffers, which fills may overlap the kernel — and
//! decides none of that itself. Placement follows the translator's array
//! configuration information:
//!
//! * **replica-based** — the whole array is materialised on every GPU
//!   (the default policy);
//! * **distribution-based** — only the `localaccess`-derived sub-array of
//!   the GPU's assigned iterations is materialised;
//! * **reduction-private** — GPU 0 holds the live content, every other
//!   GPU an identity-filled private copy to accumulate into.
//!
//! Reloads are skipped when the resident ranges already cover the
//! requirement — "this is common in iterative algorithms" and is the
//! reason iterative kernels only pay the CPU→GPU transfer once.
//!
//! Every load, peer fill, flush and `update` is a list of `Move`s (peer
//! fills and flushes as `route::cover` plans them) that `Run::transfer`
//! lands through the one functional copy, `Run::move_range`, and prices
//! with `Run::price_steps`, the comm manager's pricing loop too.

use acc_compiler::Placement;
use acc_gpusim::memory::AllocClass;
use acc_gpusim::Endpoint;
use acc_kernel_ir::interp::{rmw_apply_slice, rmw_identity};
use acc_kernel_ir::{DirtyMap, RmwOp, Ty, Value};
use acc_obs::{Event, LoaderDecision, OverlapWindow};

use crate::exec::Run;
use crate::plan::LaunchPlan;
use crate::ranges::RangeSet;
use crate::route::{self, Move, Step};
use crate::RunError;

/// One peer halo fill the loader priced in the background (double-
/// buffered overlap): emitted as an [`OverlapWindow`] when the loader
/// phase closes.
struct BgFill {
    arr: usize,
    gpu: usize,
    bytes: u64,
    start: f64,
    end: f64,
}

impl<'a> Run<'a> {
    /// Run the loader for one launch. Returns `(t1, bg_end)`: the
    /// simulated end of the synchronous phase (transfers priced from
    /// `t0`), and the end of the last background halo fill the overlap
    /// knob licensed out of the critical path (`bg_end == t1` when
    /// nothing overlapped). The caller's barrier waits on
    /// `max(t1 + kernel, bg_end)`.
    pub(crate) fn loader_phase(
        &mut self,
        plan: &LaunchPlan,
        t0: f64,
    ) -> Result<(f64, f64), RunError> {
        let ngpus = self.cfg.ngpus;
        let mut end = t0;
        let mut bg: Vec<BgFill> = Vec::new();

        // Pass 1: windows, then the System-memory metadata (Fig. 9) of
        // the GPUs that hold one: replica-sync dirty maps and write-miss
        // buffers. An idle GPU runs no kernel, so it writes nothing and
        // buffers no misses.
        for ap in &plan.arrays {
            for g in 0..ngpus {
                let e = self.ensure_window(ap.arr, g, ap.window[g], ap.alloc_class(g), t0)?;
                end = end.max(e);
            }
            for g in (0..ngpus).filter(|&g| ap.window[g].0 < ap.window[g].1) {
                if ap.needs_dirty {
                    self.ensure_dirty_map(ap.arr, g)?;
                }
                if ap.needs_miss_buf {
                    self.ensure_miss_acct(ap.arr, g)?;
                }
            }
        }

        // Pass 2: contents. Of a reduction-private array GPU 0 carries
        // the live value; the rest are identity.
        for ap in &plan.arrays {
            for g in (0..ngpus).filter(|&g| ap.required[g].0 < ap.required[g].1) {
                let e = match ap.placement {
                    Placement::ReductionPrivate(op) if g > 0 => {
                        let identity = rmw_identity(op, self.arrays[ap.arr].ty);
                        self.fill_identity(ap.arr, g, identity, t0)?
                    }
                    _ => self.fill_required(ap.arr, g, ap.required[g], t0, ap.overlap, &mut bg)?,
                };
                end = end.max(e);
            }
        }
        // Background fills were priced on the bus like any other
        // loader-phase transfer (contention with the synchronous
        // traffic preserved); only their ends left the critical path.
        // Each becomes one `OverlapWindow`.
        let mut bg_end = end;
        for f in bg {
            bg_end = bg_end.max(f.end);
            self.rec.record(Event::Overlap(OverlapWindow {
                launch: self.cur_launch,
                array: self.prog.array_params[f.arr].0.clone(),
                gpu: f.gpu,
                bytes: f.bytes,
                start: f.start,
                end: f.end,
            }));
        }
        Ok((end, bg_end))
    }

    /// Make sure GPU `g` holds array `arr` over at least `want`. A
    /// window only grows: resident bytes are never dropped or parked on
    /// the host, so no cut of the loop, on any GPU count, changes
    /// what a run returns.
    fn ensure_window(
        &mut self,
        arr: usize,
        g: usize,
        want: (i64, i64),
        class: AllocClass,
        t0: f64,
    ) -> Result<f64, RunError> {
        if want.0 >= want.1 {
            return Ok(t0);
        }
        let ty = self.arrays[arr].ty;
        let Some(old_handle) = self.arrays[arr].gpu[g].handle else {
            let handle =
                self.machine.gpus[g]
                    .memory
                    .alloc(ty, (want.1 - want.0) as usize, class)?;
            let ga = &mut self.arrays[arr].gpu[g];
            ga.handle = Some(handle);
            ga.window = want;
            return Ok(t0);
        };
        let owin = self.arrays[arr].gpu[g].window;
        if owin.0 <= want.0 && owin.1 >= want.1 {
            return Ok(t0);
        }
        // Grow to the union of the old and wanted windows: stage the
        // resident bytes, free the old allocation before taking the new
        // one (the device peak is max(old, union), not their sum), copy
        // the bytes back at their offset and keep the valid set.
        let union = (owin.0.min(want.0), owin.1.max(want.1));
        let staged = {
            let bytes = self.machine.gpus[g].memory.get(old_handle)?.bytes();
            let mut buf = self.staging.take_scratch(bytes.len());
            buf.extend_from_slice(bytes);
            buf
        };
        self.machine.gpus[g].memory.free(old_handle)?;
        let new_handle =
            self.machine.gpus[g]
                .memory
                .alloc(ty, (union.1 - union.0) as usize, class)?;
        let db = self.machine.gpus[g].memory.get_mut(new_handle)?;
        let off = (owin.0 - union.0) as usize * self.arrays[arr].elem();
        db.bytes_mut()[off..off + staged.len()].copy_from_slice(&staged);
        let cost = self.machine.gpus[g]
            .spec
            .local_copy_time(staged.len() as u64);
        self.staging.put_back_scratch(staged);
        let ga = &mut self.arrays[arr].gpu[g];
        ga.handle = Some(new_handle);
        ga.window = union;
        Ok(t0 + cost)
    }

    fn ensure_dirty_map(&mut self, arr: usize, g: usize) -> Result<(), RunError> {
        let (len, elem) = {
            let st = &self.arrays[arr];
            (st.len, st.elem())
        };
        if self.arrays[arr].gpu[g].dirty.is_none() {
            let dm = DirtyMap::new(len, elem, self.cfg.chunk_bytes);
            let meta = dm.metadata_bytes();
            let acct = self.machine.gpus[g].memory.alloc(
                Ty::I32,
                meta.div_ceil(4),
                AllocClass::System,
            )?;
            let ga = &mut self.arrays[arr].gpu[g];
            ga.dirty = Some(dm);
            ga.dirty_acct = Some(acct);
        }
        Ok(())
    }

    fn ensure_miss_acct(&mut self, arr: usize, g: usize) -> Result<(), RunError> {
        if self.arrays[arr].gpu[g].miss_acct.is_none() {
            let rec = 8 + self.arrays[arr].elem();
            let bytes = self.cfg.miss_capacity * rec;
            let acct =
                self.machine.gpus[g]
                    .memory
                    .alloc(Ty::I32, bytes.div_ceil(4), AllocClass::System)?;
            self.arrays[arr].gpu[g].miss_acct = Some(acct);
        }
        Ok(())
    }

    /// Load the missing parts of `req` onto GPU `g`: peer GPUs that hold
    /// current device data are preferred; otherwise the host copy is the
    /// source (`copyin` semantics); what is left of a `create`-style
    /// array materialises as zeros without traffic.
    ///
    /// With `overlap` set, peer halo fills are priced in the background:
    /// the functional copy still happens here (program order — array
    /// contents never depend on the knob), the transfer is still
    /// priced on the bus from the same ready time (contention with
    /// synchronous traffic preserved), but its end is pushed to `bg`
    /// instead of extending the returned synchronous end. Host loads
    /// stay synchronous either way — only the peer refills the
    /// `OverlapFact` proved unobservable may hide under compute.
    fn fill_required(
        &mut self,
        arr: usize,
        g: usize,
        req: (i64, i64),
        t0: f64,
        overlap: bool,
        bg: &mut Vec<BgFill>,
    ) -> Result<f64, RunError> {
        if req.0 >= req.1 {
            return Ok(t0);
        }
        // Ablation (`loader_reuse` off): no reuse — treat everything as
        // missing, except data that exists nowhere else (dropping the
        // reuse of device-written data would change semantics, not just
        // performance).
        let st = &self.arrays[arr];
        let missing = if self.cfg.loader_reuse || st.host_stale {
            st.gpu[g].valid.missing_in(req.0, req.1)
        } else {
            RangeSet::of(req.0, req.1)
        };
        if missing.is_empty() {
            // Clean reuse of the resident window — the §IV-C fast path.
            self.rec.record(Event::Loader(LoaderDecision {
                launch: self.cur_launch,
                array: self.prog.array_params[arr].0.clone(),
                gpu: g,
                reused: true,
                bytes_moved: 0,
                at: t0,
            }));
            return Ok(t0);
        }
        // Data is about to move: a pending (elided) replica sync must
        // land before any peer or host copy of this array is treated as
        // a fill source. The sync changes no GPU's valid set, so
        // `missing` stays what was computed above. The clean-reuse fast
        // path never observes another GPU's data, so it stays elided.
        let t0 = self.ensure_synced(arr, t0)?;
        let mut bytes_moved = 0u64;
        // While the host copy is current, the loader always loads from CPU
        // memory (paper §IV-C). Once device writes have made it stale,
        // peer GPUs holding current device data become the sources,
        // nearest first. Valid ranges shared by several peers hold
        // identical bytes — reconciliation preceded this fill — so source
        // choice only moves the transfer onto cheaper segments.
        let (st, bus) = (&self.arrays[arr], &self.machine.bus);
        let peers = if st.host_stale { bus.peer_order(g, self.cfg.ngpus) } else { Vec::new() };
        let peers = peers.into_iter().filter(|&h| !st.gpu[h].red_private);
        let peers = peers.map(|h| (Endpoint::Gpu(h), &st.gpu[h].valid));
        let (peers, missing) = route::cover(missing, Endpoint::Gpu(g), peers);
        // An overlapped fill still lands in program order and is priced
        // from the same ready time; only its end leaves the phase.
        let fill = |_: &mut Self, _, bytes, _, end| {
            bytes_moved += bytes;
            if !overlap {
                return end;
            }
            bg.push(BgFill { arr, gpu: g, bytes, start: t0, end });
            t0
        };
        let end = self.transfer(arr, &peers, None, t0, "fill", fill)?;
        // Host source: everything still missing under `copy`/`copyin`.
        // The rest of a `create`/`copyout` array was never written: the
        // zeroed allocation already matches, with no traffic.
        let mut loads = Vec::new();
        for (lo, hi) in missing.iter() {
            if self.arrays[arr].init_from_host {
                loads.push((Endpoint::Host, Endpoint::Gpu(g), (lo, hi)));
            } else {
                self.arrays[arr].gpu[g].valid.insert(lo, hi);
            }
        }
        let load = |_: &mut Self, _, bytes, _, end| {
            bytes_moved += bytes;
            end
        };
        let end = end.max(self.transfer(arr, &loads, None, t0, "load", load)?);
        self.rec.record(Event::Loader(LoaderDecision {
            launch: self.cur_launch,
            array: self.prog.array_params[arr].0.clone(),
            gpu: g,
            reused: false,
            bytes_moved,
            at: end,
        }));
        Ok(end)
    }

    /// Fill a reduction-private copy with the operator identity. Emits
    /// the GPU's `LoaderDecision` for this launch×array — the identity
    /// fill is a device-local materialisation, so it moves zero bus
    /// bytes, but skipping the event would leave reduction-private GPUs
    /// unaccounted in the per-launch decision stream.
    fn fill_identity(
        &mut self,
        arr: usize,
        g: usize,
        identity: Value,
        t0: f64,
    ) -> Result<f64, RunError> {
        let handle = self.arrays[arr].gpu[g].handle.expect("window ensured");
        let bytes = {
            let buf = self.machine.gpus[g].memory.get_mut(handle)?;
            buf.fill(identity);
            buf.size_bytes() as u64
        };
        let cost = self.machine.gpus[g].spec.local_copy_time(bytes / 2);
        let ga = &mut self.arrays[arr].gpu[g];
        ga.valid.clear();
        ga.red_private = true;
        self.rec.record(Event::Loader(LoaderDecision {
            launch: self.cur_launch,
            array: self.prog.array_params[arr].0.clone(),
            gpu: g,
            reused: false,
            bytes_moved: 0,
            at: t0 + cost,
        }));
        Ok(t0 + cost)
    }

    // ---------------- transfers ----------------

    /// Move ranges of `arr` as one step list: land each
    /// `(src, dst, [lo, hi))` through [`Run::move_range`] — a GPU
    /// destination then holds it as valid, unless it was folded in with
    /// `combine` (the reduction merge resets `valid` itself) — and price
    /// the list from `t`, one single-chunk step per range, in order.
    pub(crate) fn transfer<E: Copy + Into<Endpoint>>(
        &mut self,
        arr: usize,
        moves: &[Move<E>],
        combine: Option<RmwOp>,
        t: f64,
        why: &'static str,
        landed: impl FnMut(&mut Self, Step<E>, u64, f64, f64) -> f64,
    ) -> Result<f64, RunError> {
        let elem = self.arrays[arr].elem() as u64;
        let (mut steps, mut sets) = (Vec::with_capacity(moves.len()), Vec::new());
        for &(src, dst, (lo, hi)) in moves {
            self.move_range(arr, src.into(), dst.into(), (lo, hi), combine)?;
            if let (None, Endpoint::Gpu(d)) = (combine, dst.into()) {
                self.arrays[arr].gpu[d].valid.insert(lo, hi);
            }
            steps.push(Step { src, dst, set: sets.len() });
            sets.push(vec![(0, (hi - lo) as u64 * elem)]);
        }
        Ok(self.price_steps(arr, &steps, &sets, t, why, landed))
    }

    /// The functional half of every transfer: land elements `[lo, hi)`
    /// (global) of `arr` from `src`'s copy — the host array or a device
    /// window — on the same elements of `dst`'s, overwriting them, or
    /// folding them in with `combine` (reduction merge) as one typed pass
    /// over the byte window ([`rmw_apply_slice`]).
    fn move_range(
        &mut self,
        arr: usize,
        src: Endpoint,
        dst: Endpoint,
        (lo, hi): (i64, i64),
        combine: Option<RmwOp>,
    ) -> Result<(), RunError> {
        let st = &self.arrays[arr];
        let elem = st.elem();
        let at = |e| match e {
            Endpoint::Host => lo as usize * elem,
            Endpoint::Gpu(g) => (lo - st.gpu[g].window.0) as usize * elem,
        };
        let (soff, doff, nbytes) = (at(src), at(dst), (hi - lo) as usize * elem);
        let window = |g: usize| st.gpu[g].handle.expect("window materialised");
        let (gpus, host) = (&mut self.machine.gpus, &mut self.host_arrays[arr]);
        let (from, to) = match (src, dst) {
            (Endpoint::Gpu(s), Endpoint::Gpu(d)) => {
                let pair = gpus.get_disjoint_mut([s, d]);
                let [sgpu, dgpu] = pair.expect("a self-transfer is a device-local copy");
                (sgpu.memory.get(window(s))?, dgpu.memory.get_mut(window(d))?)
            }
            (Endpoint::Gpu(s), Endpoint::Host) => (gpus[s].memory.get(window(s))?, host),
            (Endpoint::Host, Endpoint::Gpu(d)) => (&*host, gpus[d].memory.get_mut(window(d))?),
            // The host copy is one buffer: nothing to move.
            (Endpoint::Host, Endpoint::Host) => return Ok(()),
        };
        let ty = to.ty();
        let moved = &from.bytes()[soff..soff + nbytes];
        let landing = &mut to.bytes_mut()[doff..doff + nbytes];
        match combine {
            None => landing.copy_from_slice(moved),
            Some(op) => rmw_apply_slice(op, ty, landing, moved),
        }
        Ok(())
    }

    /// Copy device-authoritative data for `[lo, hi)` back into the host
    /// copy (`update host` / region-exit copy-out).
    pub(crate) fn flush_to_host(
        &mut self,
        arr: usize,
        lo: i64,
        hi: i64,
        t0: f64,
    ) -> Result<f64, RunError> {
        // Flush takes ranges from the first GPU whose valid set covers
        // them, so an elided replica sync must be reconciled first.
        let t0 = self.ensure_synced(arr, t0)?;
        let st = &self.arrays[arr];
        let want = RangeSet::of(lo.max(0), hi.min(st.len as i64));
        let gpus = st.gpu.iter().enumerate().filter(|(_, ga)| !ga.red_private);
        let gpus = gpus.map(|(g, ga)| (Endpoint::Gpu(g), &ga.valid));
        let (moves, _) = route::cover(want, Endpoint::Host, gpus);
        // Ranges valid nowhere were never materialised on the device; the
        // host copy is already the logical content.
        self.transfer(arr, &moves, None, t0, "flush", |_, _, _, _, end| end)
    }

    /// Push host data for `[lo, hi)` into every materialised device window
    /// (`update device`).
    pub(crate) fn push_to_device(
        &mut self,
        arr: usize,
        lo: i64,
        hi: i64,
        t0: f64,
    ) -> Result<f64, RunError> {
        // Host data overwrites device replicas below; reconcile any
        // deferred sync first so dirty bits don't survive the overwrite.
        let t0 = self.ensure_synced(arr, t0)?;
        let gpus = self.arrays[arr].gpu.iter().enumerate().filter(|(_, ga)| ga.handle.is_some());
        let moves: Vec<Move> = gpus
            .map(|(g, ga)| (g, lo.max(ga.window.0), hi.min(ga.window.1)))
            .filter(|&(_, a, b)| a < b)
            .map(|(g, a, b)| (Endpoint::Host, Endpoint::Gpu(g), (a, b)))
            .collect();
        self.transfer(arr, &moves, None, t0, "update", |_, _, _, _, end| end)
    }

    /// Free all device allocations for an array (region fully exited).
    pub(crate) fn free_array_devices(&mut self, arr: usize) -> Result<(), RunError> {
        // With no device copies left, the host copy is authoritative again.
        self.arrays[arr].host_stale = false;
        self.arrays[arr].sync_pending = false;
        let ngpus = self.arrays[arr].gpu.len();
        for g in 0..ngpus {
            let ga = &mut self.arrays[arr].gpu[g];
            let handles = [ga.handle.take(), ga.dirty_acct.take(), ga.miss_acct.take()];
            ga.valid.clear();
            ga.dirty = None;
            ga.red_private = false;
            ga.window = (0, 0);
            for h in handles.into_iter().flatten() {
                self.machine.gpus[g].memory.free(h)?;
            }
        }
        Ok(())
    }
}
