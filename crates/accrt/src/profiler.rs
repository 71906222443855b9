//! The run-wide profiler: the phase-time breakdown (paper Fig. 8's
//! categories) and counters of one run.
//!
//! "Each execution time is divided into the time spent on the data
//! transfer between GPUs and GPUs (GPU-GPU), the time spent on the data
//! transfer between CPU and GPUs (CPU-GPU), and the actual execution time
//! of the GPU kernels (KERNELS)."

use acc_kernel_ir::OpCounters;
use acc_obs::TimeBreakdown;

/// Run-wide profiler: phase times, work counters, transfer volumes.
///
/// Times and event counters are **derived** from the run's structured
/// event stream (`acc_obs::Trace`) by [`Profiler::from_trace`] — the
/// event stream is the single source of truth; this struct is the
/// convenient scalar view of it. The `OpCounters` work totals come from
/// the interpreter and are merged in by the engine.
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    pub time: TimeBreakdown,
    /// Aggregated kernel work counters over all launches and GPUs.
    pub kernel_counters: OpCounters,
    /// Aggregated host work counters.
    pub host_counters: OpCounters,
    /// Number of kernel launches (one per GPU per superstep counts once —
    /// this is the paper's Table II column C, "# of kernel executions").
    pub kernel_launches: usize,
    /// Bytes moved host→device and device→host by the data loader.
    pub h2d_bytes: u64,
    pub d2h_bytes: u64,
    /// Bytes moved GPU→GPU by the communication manager.
    pub p2p_bytes: u64,
    /// Total write-miss records routed between GPUs.
    pub miss_records: u64,
    /// Dirty chunks shipped by the replica-sync path.
    pub dirty_chunks_sent: u64,
    /// Replica syncs skipped on static comm-elision facts.
    pub comm_elisions: u64,
    /// Estimated bytes those skipped syncs would have shipped.
    pub comm_elided_bytes: u64,
    /// `localaccess` annotations the compiler inferred and this run
    /// consumed in place of missing source annotations.
    pub inferred_annotations: u64,
    /// Staging buffers the replica-sync pool actually allocated (or
    /// grew); reuse keeps this near the GPU count for iterative programs.
    pub staging_allocs: u64,
    /// Loader scratch buffers the pool actually allocated (or grew)
    /// during this run. Only a device window's grow (the resident
    /// bytes' device-local move, under either schedule) draws from it.
    pub scratch_allocs: u64,
    /// Host wall-clock seconds spent inside the communication phase
    /// (functional work + pricing), as opposed to the *simulated*
    /// `time.gpu_gpu`. Filled by the engine, not derived from the trace.
    pub comm_wall_s: f64,
}

impl Profiler {
    /// Derive the time breakdown and event counters from a finished
    /// event stream. Work counters (`kernel_counters`/`host_counters`)
    /// are not in the stream and start at their defaults.
    pub fn from_trace(trace: &acc_obs::Trace) -> Profiler {
        let c = trace.counters();
        Profiler {
            time: trace.totals(),
            kernel_counters: OpCounters::default(),
            host_counters: OpCounters::default(),
            kernel_launches: c.kernel_launches as usize,
            h2d_bytes: c.h2d_bytes,
            d2h_bytes: c.d2h_bytes,
            p2p_bytes: c.p2p_bytes,
            miss_records: c.miss_records,
            dirty_chunks_sent: c.dirty_chunks_sent,
            comm_elisions: c.comm_elisions,
            comm_elided_bytes: c.comm_elided_bytes,
            inferred_annotations: c.inferred_annotations,
            staging_allocs: 0,
            scratch_allocs: 0,
            comm_wall_s: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_add_up() {
        let t = TimeBreakdown {
            kernels: 1.0,
            cpu_gpu: 2.0,
            gpu_gpu: 3.0,
            host: 0.5,
        };
        assert_eq!(t.total(), 6.5);
        assert_eq!(t.parallel_region(), 6.0);
    }
}
