//! The runtime's one per-GPU fan-out.
//!
//! The kernel wave, the replica-sync apply and the miss replay all do
//! the same thing: run independent work on each simulated GPU's private
//! state. The simulated machine may have 64 GPUs; the host running the
//! simulation usually has a handful of cores, and a kernel share at that
//! scale is shorter than a thread spawn. So the fan-out is sized to the
//! *host*: at most `workers` threads pull GPUs from a shared queue until
//! it is empty.

use std::sync::{Mutex, PoisonError};

use acc_gpusim::Gpu;

/// How many host threads a wave may occupy: the cores this process may
/// run on. Read once per run — on Linux it parses cgroup files.
pub(crate) fn host_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run `f(&mut gpus[g], item)` for every GPU `g` whose `items[g]` is
/// `Some(item)` and return the results **by GPU index** (`None` where
/// there was no item), whichever thread produced them — so the
/// first-error-by-ascending-GPU rule and the serial pricing that consumes
/// the results cannot depend on `workers`. A panic in `f` resumes on the
/// caller with its own payload.
///
/// With `k = min(workers, busy GPUs) <= 1` the caller runs the work
/// itself, in ascending order, and nothing is spawned. Otherwise `k`
/// scoped threads share it and the caller only waits: a caller that took
/// a share would, on waves shorter than a thread start, empty the queue
/// alone and then still have to wait for helpers to be scheduled just to
/// exit — multi-millisecond stalls when another job keeps the other
/// cores busy (`acc-serve`).
pub(crate) fn for_each_gpu<I, R, F>(
    workers: usize,
    gpus: &mut [Gpu],
    items: Vec<Option<I>>,
    f: F,
) -> Vec<Option<R>>
where
    I: Send,
    R: Send,
    F: Fn(&mut Gpu, I) -> R + Sync,
{
    let mut out: Vec<Option<R>> = items.iter().map(|_| None).collect();
    let k = workers.min(items.iter().flatten().count());
    let busy = gpus.iter_mut().zip(items).enumerate();
    let queue = Mutex::new(busy.filter_map(|(g, (gpu, item))| Some((g, gpu, item?))));
    let drain = || {
        let mut done = Vec::new();
        loop {
            // The lock covers only the hand-off (`f` runs outside it), so
            // a panicking worker cannot leave the queue half-advanced.
            let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
            let Some((g, gpu, item)) = next else {
                return done;
            };
            done.push((g, f(gpu, item)));
        }
    };
    let done = if k <= 1 {
        drain()
    } else {
        std::thread::scope(|s| {
            let threads: Vec<_> = (0..k).map(|_| s.spawn(drain)).collect();
            let mut done = Vec::new();
            for t in threads {
                done.extend(t.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
            }
            done
        })
    };
    for (g, r) in done {
        out[g] = Some(r);
    }
    out
}

#[cfg(test)]
mod tests;
