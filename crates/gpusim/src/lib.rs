//! # acc-gpusim — a software model of a single-node multi-GPU machine
//!
//! The paper evaluates on real hardware (Table I: a desktop with two Tesla
//! C2075 cards and a TSUBAME2.0 thin node with three Tesla M2050 cards).
//! This reproduction has no GPUs, so this crate supplies the machine:
//!
//! * [`GpuSpec`] / [`CpuSpec`] — analytic device models that convert the
//!   dynamic work counters produced by the `acc-kernel-ir` interpreter
//!   into simulated seconds (throughput-bound roofline: compute vs
//!   memory-bandwidth, plus launch overhead and atomic serialization);
//! * [`DeviceMemory`] — a bounded, handle-based device memory with an
//!   allocator, so out-of-memory behaviour and per-GPU footprints
//!   (Fig. 9) are observable;
//! * [`Topology`] — a hierarchical interconnect
//!   model (intra-island NVLink-class links, per-node PCIe root
//!   complexes, an inter-node fabric) with latency, bandwidth and FCFS
//!   contention on shared segments, pricing CPU↔GPU and GPU↔GPU
//!   transfers (the two communication categories in Fig. 8); the
//!   paper's platforms are its one-island instances;
//! * [`Machine`] — presets reproducing the paper's two platforms.
//!
//! Functional behaviour (what values kernels compute) is bit-exact because
//! kernels really execute; *performance* is the analytic model. That split
//! is what lets the benchmark harness reproduce the shape of the paper's
//! figures without the authors' testbed.

pub mod machine;
pub mod memory;
pub mod spec;
pub mod topology;

pub use machine::{Gpu, Machine, MachineKind};
pub use topology::{Endpoint, Segment, SegmentUse, Topology, TransferRec};
pub use memory::{AllocClass, BufferHandle, DeviceMemory, MemError};
pub use spec::{CpuSpec, GpuSpec};

/// Simulated time in seconds.
pub type SimTime = f64;
