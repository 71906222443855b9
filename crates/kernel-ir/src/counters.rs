//! Dynamic operation counters.
//!
//! The simulated machine has no cycle-accurate pipeline; instead, the
//! interpreter counts the work a kernel performs and the device model in
//! `acc-gpusim` converts those counts into simulated seconds. The counter
//! categories are chosen so the conversion can distinguish the quantities
//! that drive the paper's results: arithmetic throughput, global-memory
//! traffic, atomics, and the extra instructions added by the dirty-bit and
//! write-miss instrumentation.

/// Work performed by a (partial) kernel execution or host code region.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounters {
    /// Integer ALU operations.
    pub int_ops: u64,
    /// Single-precision floating point operations.
    pub f32_ops: u64,
    /// Double-precision floating point operations.
    pub f64_ops: u64,
    /// Transcendental / special-function operations (sqrt, exp, ...),
    /// which run on dedicated SFUs on real GPUs and are far slower on CPUs.
    pub special_ops: u64,
    /// Global-memory loads (element granularity).
    pub loads: u64,
    /// Global-memory stores (element granularity).
    pub stores: u64,
    /// Bytes read from global memory.
    pub load_bytes: u64,
    /// Bytes written to global memory.
    pub store_bytes: u64,
    /// Atomic read-modify-write operations.
    pub atomics: u64,
    /// Branch / control-flow operations.
    pub branches: u64,
    /// Dirty-bit update operations inserted by the translator for writes to
    /// replicated arrays (first- and second-level bits together count as
    /// one mark; the byte traffic is accounted separately by the runtime).
    pub dirty_marks: u64,
    /// Write-miss checks executed for stores to distributed arrays.
    pub miss_checks: u64,
    /// Checks that actually missed and buffered a remote-write record.
    pub misses: u64,
    /// Number of threads (loop iterations) executed.
    pub threads: u64,
}

impl OpCounters {
    /// Accumulate another counter set into this one.
    pub fn merge(&mut self, other: &OpCounters) {
        self.int_ops += other.int_ops;
        self.f32_ops += other.f32_ops;
        self.f64_ops += other.f64_ops;
        self.special_ops += other.special_ops;
        self.loads += other.loads;
        self.stores += other.stores;
        self.load_bytes += other.load_bytes;
        self.store_bytes += other.store_bytes;
        self.atomics += other.atomics;
        self.branches += other.branches;
        self.dirty_marks += other.dirty_marks;
        self.miss_checks += other.miss_checks;
        self.misses += other.misses;
        self.threads += other.threads;
    }

    /// Total dynamic instruction estimate (everything except byte counts).
    pub fn total_ops(&self) -> u64 {
        self.int_ops
            + self.f32_ops
            + self.f64_ops
            + self.special_ops
            + self.loads
            + self.stores
            + self.atomics
            + self.branches
            + self.dirty_marks
            + self.miss_checks
    }

    /// Total global-memory byte traffic.
    pub fn total_bytes(&self) -> u64 {
        self.load_bytes + self.store_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_fields() {
        let mut a = OpCounters {
            int_ops: 1,
            loads: 2,
            load_bytes: 8,
            ..Default::default()
        };
        let b = OpCounters {
            int_ops: 10,
            f64_ops: 5,
            loads: 1,
            load_bytes: 4,
            misses: 3,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.int_ops, 11);
        assert_eq!(a.f64_ops, 5);
        assert_eq!(a.loads, 3);
        assert_eq!(a.load_bytes, 12);
        assert_eq!(a.misses, 3);
    }

    #[test]
    fn totals() {
        let c = OpCounters {
            int_ops: 1,
            f32_ops: 2,
            f64_ops: 3,
            special_ops: 4,
            loads: 5,
            stores: 6,
            atomics: 7,
            branches: 8,
            dirty_marks: 9,
            miss_checks: 10,
            load_bytes: 100,
            store_bytes: 200,
            ..Default::default()
        };
        assert_eq!(c.total_ops(), 55);
        assert_eq!(c.total_bytes(), 300);
    }
}
