//! Analytic device models.
//!
//! A device model turns the [`OpCounters`] the interpreter produced for a
//! kernel (or a CPU-parallel region) into simulated seconds with a simple
//! roofline: the kernel takes `max(compute time, memory time)` plus a fixed
//! launch overhead. The per-class throughputs are *effective* numbers —
//! peak hardware throughput scaled by an achievable-utilization factor —
//! calibrated once against the published characteristics of the Table I
//! devices and then left alone; the benchmark harness never tunes them per
//! application.

use acc_kernel_ir::OpCounters;

use crate::SimTime;

/// Model of one GPU.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpec {
    /// Marketing name, e.g. `"Tesla C2075"`.
    pub name: String,
    /// CUDA cores.
    pub cores: u32,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Effective integer operations per core per cycle.
    pub eff_int_per_cycle: f64,
    /// Effective f32 FLOPs per core per cycle.
    pub eff_f32_per_cycle: f64,
    /// Effective f64 FLOPs per core per cycle (Fermi: half rate on Tesla).
    pub eff_f64_per_cycle: f64,
    /// Effective special-function ops per core per cycle (SFUs are 1:8).
    pub eff_special_per_cycle: f64,
    /// Aggregate atomic-RMW throughput in Gops/s (atomics serialize per
    /// cache line on Fermi, far below ALU throughput).
    pub atomic_gops: f64,
    /// Effective global-memory bandwidth, GB/s.
    pub mem_bw_gbs: f64,
    /// Device memory capacity in bytes.
    pub mem_bytes: u64,
    /// Fixed kernel-launch overhead in seconds (driver + runtime).
    pub launch_overhead_s: f64,
    /// Effective on-chip cache capacity for gather reuse (L2 + texture
    /// caches). Irregular reads of arrays that fit here approach full
    /// bandwidth — e.g. the MD position array hammered through the
    /// neighbor list.
    pub cache_bytes: u64,
}

impl GpuSpec {
    /// NVIDIA Tesla C2075 (desktop machine in Table I): 448 cores @
    /// 1.15 GHz, 6 GB GDDR5 @ 144 GB/s.
    pub fn tesla_c2075() -> GpuSpec {
        GpuSpec {
            name: "Tesla C2075".into(),
            cores: 448,
            clock_ghz: 1.15,
            eff_int_per_cycle: 0.8,
            eff_f32_per_cycle: 1.0,
            eff_f64_per_cycle: 0.5,
            eff_special_per_cycle: 0.125,
            atomic_gops: 4.0,
            mem_bw_gbs: 144.0 * 0.75, // ECC + achievable fraction
            mem_bytes: 6 * (1 << 30),
            launch_overhead_s: 8e-6,
            cache_bytes: 2 << 20,
        }
    }

    /// NVIDIA Tesla M2050 (TSUBAME2.0 thin node in Table I): 448 cores @
    /// 1.15 GHz, 3 GB GDDR5 @ 148 GB/s.
    pub fn tesla_m2050() -> GpuSpec {
        GpuSpec {
            name: "Tesla M2050".into(),
            cores: 448,
            clock_ghz: 1.15,
            eff_int_per_cycle: 0.8,
            eff_f32_per_cycle: 1.0,
            eff_f64_per_cycle: 0.5,
            eff_special_per_cycle: 0.125,
            atomic_gops: 4.0,
            mem_bw_gbs: 148.0 * 0.75,
            mem_bytes: 3 * (1 << 30),
            launch_overhead_s: 8e-6,
            cache_bytes: 2 << 20,
        }
    }

    /// Aggregate throughput of one op class, ops/second.
    fn tput(&self, per_cycle: f64) -> f64 {
        self.cores as f64 * self.clock_ghz * 1e9 * per_cycle
    }

    /// Arithmetic-side time of the roofline.
    pub fn compute_time(&self, c: &OpCounters) -> SimTime {
        c.int_ops as f64 / self.tput(self.eff_int_per_cycle)
            + c.branches as f64 / self.tput(self.eff_int_per_cycle)
            + c.dirty_marks as f64 / self.tput(self.eff_int_per_cycle)
            + c.miss_checks as f64 / self.tput(self.eff_int_per_cycle)
            + c.f32_ops as f64 / self.tput(self.eff_f32_per_cycle)
            + c.f64_ops as f64 / self.tput(self.eff_f64_per_cycle)
            + c.special_ops as f64 / self.tput(self.eff_special_per_cycle)
            + c.atomics as f64 / (self.atomic_gops * 1e9)
    }

    /// Simulated execution time of a kernel that performed the counted
    /// work, with per-array memory terms: each term is `(bytes,
    /// efficiency)` — the byte traffic one buffer generated and the
    /// effective-bandwidth fraction in `(0, 1]` its access pattern
    /// achieves (the runtime derives the efficiency from the translator's
    /// access classification plus residency vs `cache_bytes`; the
    /// §IV-B4 layout transform raises a strided read's to 1.0).
    pub fn kernel_time(&self, c: &OpCounters, mem_terms: &[(u64, f64)]) -> SimTime {
        let memory: f64 = mem_terms
            .iter()
            .map(|(bytes, eff)| *bytes as f64 / (self.mem_bw_gbs * 1e9 * eff.clamp(1e-3, 1.0)))
            .sum();
        self.compute_time(c).max(memory) + self.launch_overhead_s
    }

    /// Effective-bandwidth fraction for an irregular (gather) access to an
    /// array with `resident_bytes` on this device: cache-resident gathers
    /// approach full bandwidth, cold gathers pay the transaction waste.
    pub fn gather_efficiency(&self, resident_bytes: u64) -> f64 {
        let fit = (self.cache_bytes as f64 / resident_bytes.max(1) as f64).min(1.0);
        0.125 + 0.875 * fit
    }

    /// Time for a device-local memory move of `bytes` (e.g. applying
    /// buffered remote writes), bandwidth-bound at full efficiency.
    pub fn local_copy_time(&self, bytes: u64) -> SimTime {
        // Read + write traffic.
        (2 * bytes) as f64 / (self.mem_bw_gbs * 1e9)
    }
}

/// Model of the host CPU(s) running the OpenMP baseline and the host side
/// of the translated programs.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuSpec {
    /// Marketing name.
    pub name: String,
    /// Number of sockets.
    pub sockets: u32,
    /// Physical cores per socket.
    pub cores_per_socket: u32,
    /// Hardware threads the OpenMP runtime uses (paper: 12 on the desktop,
    /// 24 on the node — i.e. hyperthreads).
    pub omp_threads: u32,
    /// Clock in GHz.
    pub clock_ghz: f64,
    /// Effective scalar ops per core per cycle (gcc -O2, no aggressive
    /// vectorization for these irregular kernels).
    pub eff_int_per_cycle: f64,
    pub eff_f32_per_cycle: f64,
    pub eff_f64_per_cycle: f64,
    /// Special functions (libm calls) per core per cycle.
    pub eff_special_per_cycle: f64,
    /// Aggregate memory bandwidth, GB/s (all sockets).
    pub mem_bw_gbs: f64,
    /// Per-parallel-region overhead (fork/join barrier), seconds.
    pub region_overhead_s: f64,
    /// Last-level cache capacity (all sockets), for gather pricing.
    pub cache_bytes: u64,
}

impl CpuSpec {
    /// Intel Core i7 (6 cores, HT) of the desktop machine.
    pub fn core_i7_desktop() -> CpuSpec {
        CpuSpec {
            name: "Intel Core i7 (6c/12t)".into(),
            sockets: 1,
            cores_per_socket: 6,
            omp_threads: 12,
            clock_ghz: 3.33,
            eff_int_per_cycle: 1.2,
            eff_f32_per_cycle: 1.0,
            eff_f64_per_cycle: 0.8,
            eff_special_per_cycle: 0.05,
            mem_bw_gbs: 20.0,
            region_overhead_s: 5e-6,
            cache_bytes: 12 << 20,
        }
    }

    /// Dual Intel Xeon (2 × 6 cores, HT) of the TSUBAME2.0 thin node.
    pub fn dual_xeon_node() -> CpuSpec {
        CpuSpec {
            name: "2x Intel Xeon X5670 (12c/24t)".into(),
            sockets: 2,
            cores_per_socket: 6,
            omp_threads: 24,
            clock_ghz: 2.93,
            eff_int_per_cycle: 1.2,
            // The dual-socket node sustains noticeably better FP
            // throughput per core than the desktop part (bigger caches,
            // two memory controllers); this is what keeps the node's
            // OpenMP baseline strong in the paper (max 2.95x there vs
            // 6.75x on the desktop).
            eff_f32_per_cycle: 1.9,
            eff_f64_per_cycle: 1.1,
            eff_special_per_cycle: 0.05,
            mem_bw_gbs: 40.0,
            region_overhead_s: 8e-6,
            cache_bytes: 24 << 20,
        }
    }

    /// Total physical cores.
    pub fn total_cores(&self) -> u32 {
        self.sockets * self.cores_per_socket
    }

    /// Aggregate throughput of one op class across all physical cores.
    /// Hyperthreads add a modest 25% on these memory-heavy kernels.
    fn tput(&self, per_cycle: f64) -> f64 {
        let ht_boost = if self.omp_threads > self.total_cores() {
            1.25
        } else {
            1.0
        };
        self.total_cores() as f64 * self.clock_ghz * 1e9 * per_cycle * ht_boost
    }

    /// Arithmetic-side time of an all-threads parallel region.
    pub fn region_compute_time(&self, c: &OpCounters) -> SimTime {
        (c.int_ops + c.branches + c.dirty_marks + c.miss_checks) as f64
            / self.tput(self.eff_int_per_cycle)
            + c.f32_ops as f64 / self.tput(self.eff_f32_per_cycle)
            + c.f64_ops as f64 / self.tput(self.eff_f64_per_cycle)
            + c.special_ops as f64 / self.tput(self.eff_special_per_cycle)
            // CPU atomics are cheap relative to GPU but still serialize.
            + c.atomics as f64 / (self.tput(self.eff_int_per_cycle) * 0.1)
    }

    /// Simulated time of an OpenMP parallel region that performed the
    /// counted work across `omp_threads`, with per-array memory terms
    /// `(bytes, efficiency)` like [`GpuSpec::kernel_time`].
    pub fn parallel_region_time(&self, c: &OpCounters, mem_terms: &[(u64, f64)]) -> SimTime {
        let memory: f64 = mem_terms
            .iter()
            .map(|(bytes, eff)| *bytes as f64 / (self.mem_bw_gbs * 1e9 * eff.clamp(1e-3, 1.0)))
            .sum();
        self.region_compute_time(c).max(memory) + self.region_overhead_s
    }

    /// Gather efficiency against the CPU's last-level cache.
    pub fn gather_efficiency(&self, resident_bytes: u64) -> f64 {
        let fit = (self.cache_bytes as f64 / resident_bytes.max(1) as f64).min(1.0);
        0.25 + 0.75 * fit
    }

    /// Simulated time of sequential host code (single thread, one core).
    pub fn serial_time(&self, c: &OpCounters) -> SimTime {
        let one_core = 1.0 / self.total_cores() as f64;
        let compute = (c.int_ops + c.branches) as f64
            / (self.tput(self.eff_int_per_cycle) * one_core)
            + c.f32_ops as f64 / (self.tput(self.eff_f32_per_cycle) * one_core)
            + c.f64_ops as f64 / (self.tput(self.eff_f64_per_cycle) * one_core)
            + c.special_ops as f64 / (self.tput(self.eff_special_per_cycle) * one_core)
            + c.atomics as f64 / (self.tput(self.eff_int_per_cycle) * one_core);
        let memory = c.total_bytes() as f64 / (self.mem_bw_gbs * 1e9 * 0.5);
        compute.max(memory)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn work(f64_ops: u64, bytes: u64) -> OpCounters {
        OpCounters {
            f64_ops,
            load_bytes: bytes,
            ..Default::default()
        }
    }

    #[test]
    fn gpu_compute_bound_scales_with_ops() {
        let g = GpuSpec::tesla_c2075();
        let (w1, w2) = (work(1_000_000_000, 0), work(2_000_000_000, 0));
        let t1 = g.kernel_time(&w1, &[(w1.total_bytes(), 1.0)]);
        let t2 = g.kernel_time(&w2, &[(w2.total_bytes(), 1.0)]);
        assert!(t2 > t1 * 1.9 && t2 < t1 * 2.1);
    }

    #[test]
    fn gpu_memory_bound_scales_with_bytes() {
        let g = GpuSpec::tesla_c2075();
        let (w1, w2) = (work(0, 1 << 30), work(0, 2 << 30));
        let t1 = g.kernel_time(&w1, &[(w1.total_bytes(), 1.0)]);
        let t2 = g.kernel_time(&w2, &[(w2.total_bytes(), 1.0)]);
        assert!(t2 > t1 * 1.8);
    }

    #[test]
    fn coalescing_efficiency_matters() {
        let g = GpuSpec::tesla_c2075();
        let w = work(0, 1 << 30);
        let fast = g.kernel_time(&w, &[(w.total_bytes(), 1.0)]);
        let slow = g.kernel_time(&w, &[(w.total_bytes(), 0.25)]);
        assert!(slow > fast * 3.0);
    }

    #[test]
    fn launch_overhead_floors_empty_kernels() {
        let g = GpuSpec::tesla_c2075();
        let w = OpCounters::default();
        let t = g.kernel_time(&w, &[(w.total_bytes(), 1.0)]);
        assert!((t - g.launch_overhead_s).abs() < 1e-12);
    }

    #[test]
    fn gpu_beats_cpu_on_f64_throughput() {
        // The premise of the paper: the GPU wins on data-parallel FLOPs.
        let g = GpuSpec::tesla_c2075();
        let c = CpuSpec::core_i7_desktop();
        let w = work(10_000_000_000, 0);
        let terms = [(w.total_bytes(), 1.0)];
        assert!(g.kernel_time(&w, &terms) < c.parallel_region_time(&w, &terms) / 4.0);
    }

    #[test]
    fn node_cpu_faster_than_desktop_cpu() {
        // 2 sockets with more aggregate bandwidth.
        let d = CpuSpec::core_i7_desktop();
        let n = CpuSpec::dual_xeon_node();
        let w = work(10_000_000_000, 40 << 30);
        let terms = [(w.total_bytes(), 1.0)];
        assert!(n.parallel_region_time(&w, &terms) < d.parallel_region_time(&w, &terms));
    }

    #[test]
    fn serial_slower_than_parallel() {
        let c = CpuSpec::core_i7_desktop();
        let w = work(1_000_000_000, 0);
        assert!(c.serial_time(&w) > c.parallel_region_time(&w, &[(w.total_bytes(), 1.0)]) * 3.0);
    }

    #[test]
    fn atomic_heavy_kernels_penalized_on_gpu() {
        let g = GpuSpec::tesla_c2075();
        let w = OpCounters {
            atomics: 100_000_000,
            ..Default::default()
        };
        let w2 = OpCounters {
            int_ops: 100_000_000,
            ..Default::default()
        };
        assert!(
            g.kernel_time(&w, &[(w.total_bytes(), 1.0)])
                > g.kernel_time(&w2, &[(w2.total_bytes(), 1.0)]) * 10.0
        );
    }

    #[test]
    fn split_memory_terms_sum() {
        let g = GpuSpec::tesla_c2075();
        let c = OpCounters::default();
        // Two equal terms at efficiency 1.0 and 0.5: the second costs 2x.
        let t1 = g.kernel_time(&c, &[(1 << 30, 1.0)]);
        let t2 = g.kernel_time(&c, &[(1 << 30, 1.0), (1 << 30, 0.5)]);
        let base = g.launch_overhead_s;
        assert!(((t2 - base) / (t1 - base) - 3.0).abs() < 0.01);
    }

    #[test]
    fn gather_efficiency_scales_with_residency() {
        let g = GpuSpec::tesla_c2075();
        // Fits in cache: full bandwidth.
        assert!((g.gather_efficiency(1 << 20) - 1.0).abs() < 1e-9);
        // Far larger than cache: floor efficiency.
        assert!(g.gather_efficiency(1 << 34) < 0.14);
        // CPU has a larger cache and a higher floor.
        let c = CpuSpec::core_i7_desktop();
        assert!(c.gather_efficiency(8 << 20) > 0.9);
        assert!(c.gather_efficiency(1 << 34) < 0.3);
    }

    #[test]
    fn division_priced_as_special() {
        // The Table-II-relevant property: an LJ-style kernel with one div
        // per interaction is much slower on the CPU than the flop count
        // alone suggests.
        let c = CpuSpec::core_i7_desktop();
        let divs = OpCounters {
            special_ops: 10_000_000,
            ..Default::default()
        };
        let muls = OpCounters {
            f64_ops: 10_000_000,
            ..Default::default()
        };
        let time = |w: &OpCounters| c.parallel_region_time(w, &[(w.total_bytes(), 1.0)]);
        assert!(time(&divs) > 5.0 * time(&muls));
    }

    #[test]
    fn table1_capacities() {
        assert_eq!(GpuSpec::tesla_c2075().mem_bytes, 6 * (1 << 30));
        assert_eq!(GpuSpec::tesla_m2050().mem_bytes, 3 * (1 << 30));
        assert_eq!(CpuSpec::core_i7_desktop().omp_threads, 12);
        assert_eq!(CpuSpec::dual_xeon_node().omp_threads, 24);
    }
}
