//! The typed, resolved program representation produced by [`crate::sema`].
//!
//! Scalar code is lowered straight into `acc-kernel-ir` statements so the
//! translator and the host interpreter share one expression language.
//! OpenACC constructs stay structured: data regions, updates and parallel
//! loops are explicit nodes the translator in `acc-compiler` consumes.
//!
//! Conventions:
//!
//! * all scalars of a function (by-value parameters first, then every
//!   declared local, including kernel-side temporaries) live in one flat
//!   slot space indexed by [`ir::LocalId`];
//! * every pointer parameter is an array; arrays are indexed by position
//!   ([`ir::BufId`]) in declaration order;
//! * non-parallel `for` loops are desugared to `While`; parallel loops
//!   keep their canonical `for (v = lo; v < hi; v++)` structure.

use acc_kernel_ir as ir;

use crate::diag::Span;
use crate::directive::{DataClauseKind, ParallelKind};

/// A type-checked translation unit.
#[derive(Debug, Clone)]
pub struct TypedProgram {
    pub functions: Vec<TypedFunction>,
}

impl TypedProgram {
    /// Find a function by name.
    pub fn function(&self, name: &str) -> Option<&TypedFunction> {
        self.functions.iter().find(|f| f.name == name)
    }
}

/// A type-checked function.
#[derive(Debug, Clone)]
pub struct TypedFunction {
    pub name: String,
    /// By-value scalar parameters `(name, ty)`; they occupy local slots
    /// `0..scalar_params.len()` and are initialised from caller inputs.
    pub scalar_params: Vec<(String, ir::Ty)>,
    /// Pointer parameters `(name, element ty)`; `BufId(i)` is the i-th.
    pub array_params: Vec<(String, ir::Ty)>,
    /// All scalar slots: parameters first, then declared locals.
    pub locals: Vec<(String, ir::Ty)>,
    pub body: Vec<HostStmt>,
    pub span: Span,
}

/// A host-side statement. `L` stands for a parallel loop: the frontend
/// keeps the loop itself; the translator's host program keeps the index
/// of the kernel it became.
#[derive(Debug, Clone)]
pub enum HostStmt<L = Box<ParallelLoopNode>> {
    /// Plain scalar/array code with no OpenACC constructs inside.
    Plain(ir::Stmt),
    /// Host `if` that may contain OpenACC constructs in its branches.
    If {
        cond: ir::Expr,
        then_: Vec<Self>,
        else_: Vec<Self>,
    },
    /// Host `while` (or desugared `for`) that may contain OpenACC
    /// constructs in its body.
    While { cond: ir::Expr, body: Vec<Self> },
    /// `#pragma acc data ...` region.
    DataRegion {
        clauses: Vec<TypedDataClause>,
        body: Vec<Self>,
    },
    /// A combined parallel/kernels loop.
    ParallelLoop(L),
    /// `#pragma acc update`.
    Update {
        host: Vec<TypedSection>,
        device: Vec<TypedSection>,
    },
    /// `return;` — stops host execution of the function.
    Return,
}

/// A resolved array (sub)section. `range` expressions are evaluated on the
/// host frame; `None` means the whole array.
#[derive(Debug, Clone)]
pub struct TypedSection {
    pub buf: ir::BufId,
    pub range: Option<(ir::Expr, ir::Expr)>,
}

/// A resolved data clause.
#[derive(Debug, Clone)]
pub struct TypedDataClause {
    pub kind: DataClauseKind,
    pub sections: Vec<TypedSection>,
}

/// A scalar reduction of a parallel loop.
#[derive(Debug, Clone)]
pub struct ScalarRed {
    /// The host local the result merges back into.
    pub local: ir::LocalId,
    pub name: String,
    pub ty: ir::Ty,
    pub op: ir::RmwOp,
}

/// A `reductiontoarray` destination of a parallel loop.
#[derive(Debug, Clone)]
pub struct ArrayRed {
    pub buf: ir::BufId,
    pub op: ir::RmwOp,
    /// Host-evaluated index range `(start, len)`; `None` = whole array.
    pub range: Option<(ir::Expr, ir::Expr)>,
}

/// A resolved `localaccess` annotation: iteration `i` reads
/// `buf[stride*i - left ..= stride*(i+1) - 1 + right]`.
#[derive(Debug, Clone)]
pub struct TypedLocalAccess {
    pub buf: ir::BufId,
    /// Host-evaluated at kernel launch (may reference host scalars, e.g.
    /// `stride(nfeatures)` in KMEANS).
    pub stride: ir::Expr,
    pub left: ir::Expr,
    pub right: ir::Expr,
}

/// A type-checked combined parallel loop — the unit the translator turns
/// into a kernel.
#[derive(Debug, Clone)]
pub struct ParallelLoopNode {
    /// Synthesised kernel name, `<function>_k<ordinal>`.
    pub name: String,
    pub kind: ParallelKind,
    /// The induction variable's local slot (type `int`).
    pub var: ir::LocalId,
    /// Inclusive lower bound, host-evaluated at launch.
    pub lo: ir::Expr,
    /// Exclusive upper bound, host-evaluated at launch.
    pub hi: ir::Expr,
    /// Kernel body in function-local terms: the induction variable still
    /// appears as `Local(var)`; the translator substitutes `ThreadIdx`.
    pub body: Vec<ir::Stmt>,
    pub reductions: Vec<ScalarRed>,
    pub array_reductions: Vec<ArrayRed>,
    pub localaccess: Vec<TypedLocalAccess>,
    pub data_clauses: Vec<TypedDataClause>,
    pub span: Span,
}
