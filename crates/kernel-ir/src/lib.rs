//! # acc-kernel-ir — typed kernel intermediate representation
//!
//! This crate defines the intermediate representation that the OpenACC
//! translator (`acc-compiler`) lowers parallel-loop bodies into, together
//! with a reference interpreter and the operation counters consumed by the
//! simulated machine's timing model (`acc-gpusim`).
//!
//! In the paper, parallel loops annotated with `#pragma acc loop` are
//! translated into CUDA kernel functions compiled by `nvcc`. We have no GPU
//! hardware in this reproduction, so the "generated CUDA" is represented by
//! [`Kernel`] values: a typed statement tree executed once per loop
//! iteration (one simulated GPU thread per iteration). The IR deliberately
//! preserves the structural artifacts the paper's translator introduces:
//!
//! * **partition-relative index rewriting** — buffer indices are rewritten
//!   against per-launch scalar parameters describing the local data layout
//!   (paper §IV-B3);
//! * **dirty-bit instrumentation** — stores to replicated arrays carry a
//!   `dirty` flag that updates the two-level dirty-bit sidecar
//!   (paper §IV-D1);
//! * **write-miss checks** — stores to distributed arrays carry a `checked`
//!   flag that routes out-of-partition writes into a miss buffer
//!   (paper §IV-D2), and the flag is absent when the compiler statically
//!   proved locality;
//! * **hierarchical reductions** — scalar reductions accumulate into
//!   per-launch reduction slots, array reductions into atomic RMW ops
//!   (paper §III-C `reductiontoarray`, §IV-B4).
//!
//! The same statement language doubles as the host IR for the sequential
//! parts of a translated program (see `acc-compiler`).

pub mod buffer;
pub mod bytecode;
pub mod counters;
pub mod dirty;
pub mod display;
pub mod expr;
pub mod fold;
pub mod interp;
pub mod kernel;
pub mod regvm;
pub mod stmt;
pub mod ty;

pub use buffer::Buffer;
pub use counters::OpCounters;
pub use dirty::DirtyMap;
pub use expr::{BinOp, Builtin, Expr, UnOp};
pub use interp::{
    rmw_apply_slice, run_kernel_range, run_kernel_range_ast, run_kernel_range_compiled,
    BufSanitize, BufSlot, ExecCtx, ExecError, MissRecord, SanitizeKind, SanitizeRecord,
    SANITIZE_LOG_CAP,
};
pub use kernel::{BufAccess, BufParam, Kernel, ScalarParam, ScalarReduction};
pub use regvm::RegCompiled;
pub use stmt::{RmwOp, Stmt};
pub use ty::{Ty, Value};

/// Index of a per-thread mutable local variable within a kernel or host
/// frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LocalId(pub u32);

/// Index of a read-only scalar launch parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ParamId(pub u32);

/// Index of a buffer (array) parameter of a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BufId(pub u32);

impl From<u32> for LocalId {
    fn from(v: u32) -> Self {
        LocalId(v)
    }
}
impl From<u32> for ParamId {
    fn from(v: u32) -> Self {
        ParamId(v)
    }
}
impl From<u32> for BufId {
    fn from(v: u32) -> Self {
        BufId(v)
    }
}
