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

use acc_compiler::Placement;
use acc_gpusim::memory::AllocClass;
use acc_gpusim::Endpoint;
use acc_kernel_ir::interp::{rmw_apply_slice, rmw_identity};
use acc_kernel_ir::{DirtyMap, RmwOp, Ty, Value};
use acc_obs::{LoaderDecision, OverlapWindow, TransferKind, TransferSpan};

use crate::exec::Run;
use crate::plan::LaunchPlan;
use crate::ranges::RangeSet;
use crate::RunError;

/// One peer halo fill the loader priced in the background (double-
/// buffered overlap): emitted as an [`OverlapWindow`] once the
/// synchronous loader end is known.
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
        // With `t1` now known, each becomes an `OverlapWindow`:
        // `hidden_s` is what the fill would have added to the
        // synchronous phase end.
        let mut bg_end = end;
        for f in bg {
            bg_end = bg_end.max(f.end);
            self.rec.overlap_window(OverlapWindow {
                launch: self.cur_launch,
                array: self.prog.array_params[f.arr].0.clone(),
                gpu: f.gpu,
                bytes: f.bytes,
                hidden_s: (f.end - end).max(0.0),
                start: f.start,
                end: f.end,
            });
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
    #[allow(clippy::too_many_arguments)]
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
        let mut end = t0;
        let elem = self.arrays[arr].elem() as u64;
        let mut missing = if self.cfg.loader_reuse {
            let ga = &self.arrays[arr].gpu[g];
            ga.valid.missing_in(req.0, req.1)
        } else {
            // Ablation: no reuse — treat everything as missing, except
            // data that exists nowhere else (dropping the reuse of
            // device-written data would change semantics, not just
            // performance).
            let ga = &self.arrays[arr].gpu[g];
            if self.arrays[arr].host_stale {
                ga.valid.missing_in(req.0, req.1)
            } else {
                crate::ranges::RangeSet::of(req.0, req.1)
            }
        };
        if missing.is_empty() {
            // Clean reuse of the resident window — the §IV-C fast path.
            self.rec.loader_decision(LoaderDecision {
                launch: self.cur_launch,
                array: self.prog.array_params[arr].0.clone(),
                gpu: g,
                reused: true,
                bytes_moved: 0,
                at: t0,
            });
            return Ok(end);
        }
        // Data is about to move: a pending (elided) replica sync must
        // land before any peer or host copy of this array is treated as
        // a fill source. The sync changes no GPU's valid set, so
        // `missing` stays what was computed above. The clean-reuse fast
        // path never observes another GPU's data, so it stays elided.
        let t0 = self.ensure_synced(arr, t0)?;
        end = end.max(t0);
        let mut bytes_moved = 0u64;
        // While the host copy is current, the loader always loads from CPU
        // memory (paper §IV-C). Once device writes have made it stale,
        // peer GPUs holding current device data become the sources.
        if self.arrays[arr].host_stale {
            // Nearest-neighbour halo routing: peers reached over
            // intra-island links before peers behind the root complex or
            // the inter-node fabric. Valid ranges shared by several peers
            // hold identical bytes — reconciliation preceded this fill —
            // so source choice only moves the transfer onto cheaper
            // segments.
            for h in self.machine.bus.peer_order(g, self.cfg.ngpus) {
                if missing.is_empty() {
                    break;
                }
                let avail = {
                    let other = &self.arrays[arr].gpu[h];
                    if other.red_private {
                        RangeSet::new()
                    } else {
                        let mut a = other.valid.clone();
                        a.intersect(&missing);
                        a
                    }
                };
                for (lo, hi) in avail.iter().collect::<Vec<_>>() {
                    let e = self.xfer_p2p(arr, h, g, lo, hi, t0, "fill")?;
                    if overlap {
                        bg.push(BgFill {
                            arr,
                            gpu: g,
                            bytes: (hi - lo) as u64 * elem,
                            start: t0,
                            end: e,
                        });
                    } else {
                        end = end.max(e);
                    }
                    missing.remove(lo, hi);
                    bytes_moved += (hi - lo) as u64 * elem;
                }
            }
        }
        // Host source: everything still missing under `copy`/`copyin`.
        // The rest of a `create`/`copyout` array was never written: the
        // zeroed allocation already matches, with no traffic.
        for (lo, hi) in missing.iter() {
            if self.arrays[arr].init_from_host {
                end = end.max(self.xfer_h2d(arr, g, lo, hi, t0, "load")?);
                bytes_moved += (hi - lo) as u64 * elem;
            } else {
                self.arrays[arr].gpu[g].valid.insert(lo, hi);
            }
        }
        self.rec.loader_decision(LoaderDecision {
            launch: self.cur_launch,
            array: self.prog.array_params[arr].0.clone(),
            gpu: g,
            reused: false,
            bytes_moved,
            at: end,
        });
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
        self.rec.loader_decision(LoaderDecision {
            launch: self.cur_launch,
            array: self.prog.array_params[arr].0.clone(),
            gpu: g,
            reused: false,
            bytes_moved: 0,
            at: t0 + cost,
        });
        Ok(t0 + cost)
    }

    // ---------------- transfers ----------------

    /// Price one transfer on the interconnect from `ready` and record its
    /// [`TransferSpan`]; returns `(start, end)`. Every byte the runtime
    /// moves — loads, flushes, halo fills, wavefront feeds, replica
    /// syncs, miss replays, reduction merges — is priced here and nowhere
    /// else, so the recorder's spans and the topology's timelines cannot
    /// disagree.
    pub(crate) fn price_transfer(
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
        self.rec.transfer(TransferSpan {
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
        });
        (start, end)
    }

    /// The functional half of every GPU→GPU movement: land elements
    /// `[lo, hi)` (global) of `arr` straight from `src`'s window on the
    /// same elements of `dst`'s — overwriting them, or folding them in
    /// with `combine` (reduction merge) as one typed pass over the byte
    /// window ([`rmw_apply_slice`]).
    pub(crate) fn move_p2p(
        &mut self,
        arr: usize,
        src: usize,
        dst: usize,
        (lo, hi): (i64, i64),
        combine: Option<RmwOp>,
    ) -> Result<(), RunError> {
        let elem = self.arrays[arr].elem();
        let (sa, da) = (&self.arrays[arr].gpu[src], &self.arrays[arr].gpu[dst]);
        let first = (lo - da.window.0) as usize;
        let soff = (lo - sa.window.0) as usize * elem;
        let nbytes = (hi - lo) as usize * elem;
        let pair = self.machine.gpus.get_disjoint_mut([src, dst]);
        let [sgpu, dgpu] = pair.expect("a self-transfer is a device-local copy");
        let sb = sgpu.memory.get(sa.handle.expect("src window"))?;
        let moved = &sb.bytes()[soff..soff + nbytes];
        let db = dgpu.memory.get_mut(da.handle.expect("dst window"))?;
        let ty = db.ty();
        let window = &mut db.bytes_mut()[first * elem..first * elem + nbytes];
        match combine {
            None => window.copy_from_slice(moved),
            Some(op) => rmw_apply_slice(op, ty, window, moved),
        }
        Ok(())
    }

    /// Host → device `[lo, hi)` (global elements): functional copy plus
    /// the priced transfer.
    pub(crate) fn xfer_h2d(
        &mut self,
        arr: usize,
        g: usize,
        lo: i64,
        hi: i64,
        ready: f64,
        why: &'static str,
    ) -> Result<f64, RunError> {
        if lo >= hi {
            return Ok(ready);
        }
        let ga = &self.arrays[arr].gpu[g];
        let dev = self.machine.gpus[g]
            .memory
            .get_mut(ga.handle.expect("window ensured"))?;
        let bytes = dev.copy_range_from(
            (lo - ga.window.0) as usize,
            &self.host_arrays[arr],
            lo as usize,
            (hi - lo) as usize,
        ) as u64;
        let (_, end) = self.price_transfer(arr, Endpoint::Host, Endpoint::Gpu(g), bytes, ready, why);
        self.arrays[arr].gpu[g].valid.insert(lo, hi);
        Ok(end)
    }

    /// Device → host `[lo, hi)`.
    pub(crate) fn xfer_d2h(
        &mut self,
        arr: usize,
        g: usize,
        lo: i64,
        hi: i64,
        ready: f64,
        why: &'static str,
    ) -> Result<f64, RunError> {
        if lo >= hi {
            return Ok(ready);
        }
        let ga = &self.arrays[arr].gpu[g];
        let dev = self.machine.gpus[g]
            .memory
            .get(ga.handle.expect("window materialised"))?;
        let bytes = self.host_arrays[arr].copy_range_from(
            lo as usize,
            dev,
            (lo - ga.window.0) as usize,
            (hi - lo) as usize,
        ) as u64;
        let (_, end) = self.price_transfer(arr, Endpoint::Gpu(g), Endpoint::Host, bytes, ready, why);
        Ok(end)
    }

    /// Device → device `[lo, hi)`: functional copy plus the priced peer
    /// transfer.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn xfer_p2p(
        &mut self,
        arr: usize,
        src: usize,
        dst: usize,
        lo: i64,
        hi: i64,
        ready: f64,
        why: &'static str,
    ) -> Result<f64, RunError> {
        if lo >= hi {
            return Ok(ready);
        }
        self.move_p2p(arr, src, dst, (lo, hi), None)?;
        let bytes = ((hi - lo) as usize * self.arrays[arr].elem()) as u64;
        let (_, end) =
            self.price_transfer(arr, Endpoint::Gpu(src), Endpoint::Gpu(dst), bytes, ready, why);
        self.arrays[arr].gpu[dst].valid.insert(lo, hi);
        Ok(end)
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
        let mut end = t0;
        let mut remaining = RangeSet::of(lo.max(0), hi.min(self.arrays[arr].len as i64));
        let ngpus = self.arrays[arr].gpu.len();
        for g in 0..ngpus {
            if remaining.is_empty() {
                break;
            }
            let take = {
                let ga = &self.arrays[arr].gpu[g];
                if ga.red_private {
                    RangeSet::new()
                } else {
                    let mut t = ga.valid.clone();
                    t.intersect(&remaining);
                    t
                }
            };
            for (a, b) in take.iter().collect::<Vec<_>>() {
                let e = self.xfer_d2h(arr, g, a, b, t0, "flush")?;
                end = end.max(e);
                remaining.remove(a, b);
            }
        }
        // Ranges valid nowhere were never materialised on the device; the
        // host copy is already the logical content.
        Ok(end)
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
        let mut end = t0;
        let ngpus = self.arrays[arr].gpu.len();
        for g in 0..ngpus {
            let (wlo, whi, have) = {
                let ga = &self.arrays[arr].gpu[g];
                (ga.window.0, ga.window.1, ga.handle.is_some())
            };
            if !have {
                continue;
            }
            let a = lo.max(wlo);
            let b = hi.min(whi);
            if a < b {
                let e = self.xfer_h2d(arr, g, a, b, t0, "update")?;
                end = end.max(e);
            }
        }
        Ok(end)
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
