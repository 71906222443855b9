//! Array configuration information (paper §IV-B5).
//!
//! "The translator generates the array configuration information, which is
//! used by the data loader and the inter-GPU communication manager. [...]
//! It is generated for every parallel loops and for every device arrays
//! used in the loop."

use acc_kernel_ir as ir;

use crate::affine::AccessPattern;
use crate::analysis::AccessMode;
use crate::depend::DependVerdict;

/// Placement policy the data loader will use for one array in one kernel
/// (paper §IV-C).
#[derive(Debug, Clone, PartialEq)]
pub enum Placement {
    /// Replica-based policy: every GPU holds the whole array. Default for
    /// arrays without `localaccess`. Writes are tracked with two-level
    /// dirty bits and reconciled by the communication manager.
    Replicated,
    /// Distribution-based policy: each GPU holds only the sub-array its
    /// assigned iterations access, per the `localaccess` parameters.
    /// Writes outside the owned partition go through the write-miss path.
    Distributed,
    /// Destination of a `reductiontoarray`: each GPU accumulates into a
    /// private full copy; the communication manager merges the copies
    /// with the operator after the kernel wave (paper §IV-B4 hierarchical
    /// reduction, final inter-GPU level).
    ReductionPrivate(ir::RmwOp),
}

/// Host-evaluated `localaccess` parameters: iteration `i` reads
/// `[stride*i - left, stride*(i+1) - 1 + right]`.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalAccessParams {
    pub stride: ir::Expr,
    pub left: ir::Expr,
    pub right: ir::Expr,
}

/// Outcome of the §IV-D2 write-locality proof for one array in one
/// kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElisionProof {
    /// The array is not distributed: no per-store miss check exists.
    NotApplicable,
    /// Distributed but never stored to by this kernel.
    NoStores,
    /// Proved by the interval/symbolic prover ([`crate::range`]): every
    /// store lands in `[S*tid, S*(tid+1) - 1]` for the literal or
    /// runtime stride `S`, constant and loop-bounded offsets alike.
    Interval,
    /// Not provable: the runtime miss check stays on every store.
    Unproven,
}

/// Static linter verdicts recorded per array per kernel; materialized
/// into `ACC-W00x` diagnostics by [`crate::lint`] and audited at runtime
/// by the sanitizer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrayLint {
    /// How (whether) the write-miss check was elided.
    pub elision: ElisionProof,
    /// Load sites whose index was comparable against the declared
    /// `localaccess` window.
    pub window_checked: usize,
    /// Load sites provably outside the declared window for every
    /// admissible stride (`ACC-W003`).
    pub window_violations: usize,
    /// Stores with thread-variant values at overlapping (broadcast or
    /// irregular) indices (`ACC-W001`).
    pub overlap_stores: usize,
    /// Read-modify-write stores at overlapping indices missing a
    /// `reductiontoarray` annotation (`ACC-W002`).
    pub unannotated_rmw: usize,
    /// Cross-GPU dependence verdict from [`crate::depend`]: the basis of
    /// `ACC-W005` (definite race) and `ACC-W006` (loop-carried
    /// dependence), and — when the verdict is a monotone-window proof —
    /// the *suppressor* of the heuristic `ACC-W001`/`ACC-W002` counts.
    pub verdict: DependVerdict,
    /// Whole stride windows the declared (or inferred) `localaccess`
    /// halo spans on each side (`left`, `right`), per
    /// [`crate::range::halo_windows`] — the currency
    /// [`crate::depend::Distance`] is measured in. `(0, 0)` when no
    /// halo is declared or it is not expressible over the stride.
    pub halo_windows: (i64, i64),
}

impl ArrayLint {
    /// True when the verdict is `CarriedLocal` with a bounded distance
    /// that fits entirely inside the declared halo — the premise of the
    /// `ACC-W006 → ACC-I003` downgrade and of wavefront scheduling.
    pub fn carried_fits_halo(&self) -> bool {
        self.verdict
            .carried_distance()
            .is_some_and(|d| d.fits_halo(self.halo_windows.0, self.halo_windows.1))
    }
}

impl Default for ArrayLint {
    fn default() -> ArrayLint {
        ArrayLint {
            elision: ElisionProof::NotApplicable,
            window_checked: 0,
            window_violations: 0,
            overlap_stores: 0,
            unannotated_rmw: 0,
            verdict: DependVerdict::Unknown,
            halo_windows: (0, 0),
        }
    }
}

/// Per-kernel, per-array configuration record.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayConfig {
    /// Program array index.
    pub array: usize,
    /// Source-level array name (diagnostics / reports).
    pub name: String,
    /// Whether the kernel reads and/or writes the array.
    pub mode: AccessMode,
    /// Placement policy chosen by the translator.
    pub placement: Placement,
    /// The `localaccess` annotation, when present and honored. With
    /// `CompileOptions::infer_localaccess` this may be an inferred
    /// annotation (then `inferred_used` is set).
    pub localaccess: Option<LocalAccessParams>,
    /// The annotation the whole-program analysis *inferred* for this
    /// array (computed whenever extensions are honored, independent of
    /// whether a hand-written annotation exists). Basis of the
    /// `ACC-I001` diagnostic and the `--infer` golden checks.
    pub inferred: Option<LocalAccessParams>,
    /// True when `localaccess` was filled in from `inferred` because the
    /// source had no annotation and inference was enabled.
    pub inferred_used: bool,
    /// Host-frame stride expressions under which *every* access of this
    /// array provably stays inside the iteration's own partition
    /// `[S*i, S*(i+1) - 1]` — the partition keys the inter-launch
    /// comm-elision analysis may rely on.
    pub own_strides: Vec<ir::Expr>,
    /// True when every store to this (distributed) array was statically
    /// proven to land in the local partition, so the generated code
    /// carries no miss checks (paper §IV-D2).
    pub miss_check_elided: bool,
    /// True when the 2-D layout transform was applied to this array's
    /// accesses in this kernel (paper §IV-B4).
    pub layout_transformed: bool,
    /// Worst (least-coalesced) read-site pattern, for the runtime's
    /// per-array memory pricing. `Coalesced` when the array is not read.
    pub read_pattern: AccessPattern,
    /// Worst write-site pattern. `Coalesced` when not written.
    pub write_pattern: AccessPattern,
    /// The `reductiontoarray` operator the dependence analysis inferred
    /// and applied for this array (only set when
    /// `CompileOptions::infer_reductions` rewrote the kernel; basis of
    /// the `ACC-I002` diagnostic).
    pub inferred_reduction: Option<ir::RmwOp>,
    /// The monotone indirect window confining this array's accesses,
    /// when one was recognized (`row_ptr[i]`-bounded inner loops). For
    /// written arrays this window is what the
    /// `DependVerdict::Disjoint(MonotoneWindow)` verdict rests on.
    pub monotone_window: Option<MonotoneWindowInfo>,
    /// Static linter verdicts for this array in this kernel.
    pub lint: ArrayLint,
}

/// A recognized monotone indirect window, with the bound array resolved
/// to its *program* array index: iteration `t` touches exactly
/// `[p[coeff*t + lo_off], p[coeff*t + lo_off + span])`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonotoneWindowInfo {
    /// Program array index of the bound array `p`.
    pub ptr_array: usize,
    pub coeff: i64,
    pub lo_off: i64,
    pub span: i64,
}

impl ArrayConfig {
    /// True when the communication manager must reconcile replicas of
    /// this array after the kernel (replicated and written).
    pub fn needs_replica_sync(&self) -> bool {
        self.placement == Placement::Replicated && self.mode.writes()
    }
}
