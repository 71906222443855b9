//! # acc-compiler — the multi-GPU OpenACC translator
//!
//! This crate is the paper's *translator* (§IV-B): it consumes the typed
//! HIR produced by the `acc-minic` frontend and emits, per function,
//!
//! 1. one [`CompiledKernel`] per combined parallel loop — the "generated
//!    CUDA kernel": extracted body with the induction variable replaced by
//!    the thread index, captured host scalars turned into launch
//!    parameters, and dirty-bit / write-miss instrumentation applied per
//!    the placement decisions;
//! 2. the *array configuration information* (§IV-B5): per kernel × array,
//!    the access mode, placement policy (replica vs distribution vs
//!    reduction-private), `localaccess` parameters, whether the
//!    write-miss check could be statically elided (§IV-D2), and the
//!    worst read and write coalescing class the runtime prices memory
//!    traffic with (reads count as coalesced once the 2-D layout
//!    transform of §IV-B4 applies);
//! 3. the host program ([`HostOp`] tree): the original sequential control
//!    flow with parallel loops replaced by launch operations and data
//!    directives replaced by runtime calls — "the translator just inserts
//!    the statements to call the runtime functions" (§IV-B1).
//!
//! The runtime in `acc-runtime` executes the host program against the
//! simulated machine of `acc-gpusim`.

pub mod affine;
pub mod analysis;
pub mod config;
pub mod dataflow;
pub mod depend;
pub mod extract;
pub mod hostgen;
pub mod infer;
pub mod lint;
pub mod range;

use acc_kernel_ir as ir;
use acc_minic::hir;

pub use analysis::AccessMode;
pub use config::{
    ArrayConfig, ArrayLint, ElisionProof, LocalAccessParams, MonotoneWindowInfo, Placement,
};
pub use dataflow::{wavefront_eligible, CommPlan, ElideFact, OverlapFact, OverlapPlan};
pub use depend::{BufDepend, DependVerdict, Direction, DisjointProof, Distance};
pub use hostgen::HostOp;
pub use infer::{render_annotation, render_reduction};
pub use lint::{lint_function, lint_program, lint_source, lint_source_with};

/// Compiler options selecting which paper features are active. The
/// evaluation's program versions map to:
///
/// * **Proposal** — `CompileOptions::proposal()` (everything on);
/// * **PGI OpenACC baseline** — `CompileOptions::pgi_like()` (extensions
///   ignored, single-GPU replica semantics);
/// * **hand-written CUDA** — `CompileOptions::cuda_expert()` (no runtime
///   instrumentation at all; only valid for single-GPU execution).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CompileOptions {
    /// Honor the `localaccess` / `reductiontoarray` extensions. When off,
    /// every array is placed replica-style and array reductions fall back
    /// to plain device atomics (single-GPU only).
    pub honor_extensions: bool,
    /// Apply the 2-D data-layout transform for coalescing (§IV-B4) to
    /// read-only affine `localaccess` arrays.
    pub layout_transform: bool,
    /// Insert dirty-bit marks and write-miss checks. Off for the expert
    /// single-GPU CUDA baseline.
    pub instrument: bool,
    /// Consume *inferred* `localaccess` annotations for arrays the
    /// source does not annotate (the whole-program dataflow analysis of
    /// [`infer`]). Off by default so unannotated sources keep the
    /// paper's replica semantics unless explicitly opted in.
    pub infer_localaccess: bool,
    /// Consume *inferred* `reductiontoarray` annotations: rewrite
    /// unannotated read-modify-write scatters into the exact atomic-RMW
    /// form the annotated source lowers to (the [`depend`] matcher,
    /// diagnostic `ACC-I002`). Off by default for the same reason as
    /// `infer_localaccess`.
    pub infer_reductions: bool,
}

impl CompileOptions {
    /// The proposed system, all features enabled.
    pub fn proposal() -> CompileOptions {
        CompileOptions {
            honor_extensions: true,
            layout_transform: true,
            instrument: true,
            infer_localaccess: false,
            infer_reductions: false,
        }
    }

    /// A stand-in for the commercial single-GPU OpenACC compiler the paper
    /// compares against: extensions parsed but ignored.
    pub fn pgi_like() -> CompileOptions {
        CompileOptions {
            honor_extensions: false,
            layout_transform: false,
            instrument: false,
            infer_localaccess: false,
            infer_reductions: false,
        }
    }

    /// Hand-written CUDA: no translator-added overhead (single GPU only).
    pub fn cuda_expert() -> CompileOptions {
        CompileOptions {
            honor_extensions: true,
            layout_transform: true,
            instrument: false,
            infer_localaccess: false,
            infer_reductions: false,
        }
    }
}

/// Compilation errors (frontend diagnostics are reported earlier; these
/// are translator-level).
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// The requested entry function does not exist.
    NoSuchFunction(String),
    /// A parallel loop translated to a kernel the IR validator rejects.
    InvalidKernel {
        kernel: String,
        /// Source span of the parallel loop.
        span: acc_minic::diag::Span,
        reason: String,
    },
}

impl CompileError {
    /// The error as a frontend-style diagnostic (the linter's error path).
    pub(crate) fn diagnostic(&self) -> acc_minic::diag::Diagnostic {
        let span = match self {
            CompileError::NoSuchFunction(_) => Default::default(),
            CompileError::InvalidKernel { span, .. } => *span,
        };
        acc_minic::diag::Diagnostic::error(span, self.to_string())
    }
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::NoSuchFunction(n) => write!(f, "no function named `{n}`"),
            CompileError::InvalidKernel { kernel, reason, .. } => {
                write!(f, "translator produced invalid kernel {kernel}: {reason}")
            }
        }
    }
}
impl std::error::Error for CompileError {}

/// Where a kernel scalar parameter's value comes from at launch time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamSrc {
    /// Captured from a host local (includes scalar function parameters).
    HostLocal(ir::LocalId),
}

/// One translated parallel loop.
#[derive(Debug, Clone)]
pub struct CompiledKernel {
    /// The generated kernel.
    pub kernel: ir::Kernel,
    /// Array configuration information, one entry per kernel buffer
    /// parameter (same order as `kernel.bufs`).
    pub configs: Vec<ArrayConfig>,
    /// Kernel buffer parameter index → program array index.
    pub buf_map: Vec<usize>,
    /// Kernel scalar parameter index → host value source.
    pub param_src: Vec<ParamSrc>,
    /// Host-evaluated iteration bounds (inclusive `lo`, exclusive `hi`).
    pub lo: ir::Expr,
    pub hi: ir::Expr,
    /// Host locals each scalar-reduction result merges back into
    /// (parallel to `kernel.reductions`).
    pub red_targets: Vec<ir::LocalId>,
    /// Source span of the originating parallel loop (diagnostics).
    pub span: acc_minic::diag::Span,
}

/// A fully translated function: kernels + host program.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    pub name: String,
    /// By-value inputs, in order (host local slots `0..n`).
    pub scalar_params: Vec<(String, ir::Ty)>,
    /// Array inputs/outputs, in order (program array indices).
    pub array_params: Vec<(String, ir::Ty)>,
    /// The host frame layout (scalar params first).
    pub locals: Vec<(String, ir::Ty)>,
    pub kernels: Vec<CompiledKernel>,
    pub host: Vec<HostOp>,
    /// Per-launch comm-elision facts from the whole-program dataflow
    /// analysis ([`dataflow`]). The runtime consults it (when its
    /// `comm_elision` knob is on) to skip provably unobservable replica
    /// syncs.
    pub comm_plan: CommPlan,
    /// Per-launch halo-overlap safety facts ([`dataflow::overlap_plan`]).
    /// The runtime consults it (when its `overlap` knob is on and
    /// sanitize is not `Full`) to price double-buffered halo fills
    /// concurrently with the same wave's compute.
    pub overlap_plan: OverlapPlan,
    /// Program array indices whose elementwise monotonicity (values
    /// non-decreasing with the index) is a *load-bearing premise* of
    /// some kernel's `Disjoint(MonotoneWindow)` dependence verdict. The
    /// runtime validates each at launch when sanitizing and rejects
    /// violating inputs with `ACC-R011` ([`depend`]).
    pub monotone_premises: Vec<usize>,
    /// Options the program was compiled with.
    pub options: CompileOptions,
}

impl CompiledProgram {
    /// Number of parallel loops (Table II column B).
    pub fn n_parallel_loops(&self) -> usize {
        self.kernels.len()
    }

    /// `(#arrays with localaccess, #arrays used in parallel loops)` —
    /// Table II column D.
    pub fn localaccess_ratio(&self) -> (usize, usize) {
        let mut used = std::collections::BTreeSet::new();
        let mut with_la = std::collections::BTreeSet::new();
        for k in &self.kernels {
            for c in &k.configs {
                used.insert(c.array);
                if c.localaccess.is_some() {
                    with_la.insert(c.array);
                }
            }
        }
        (with_la.len(), used.len())
    }

    /// Look up a program array index by name.
    pub fn array_index(&self, name: &str) -> Option<usize> {
        self.array_params.iter().position(|(n, _)| n == name)
    }
}

/// Translate one function of a type-checked program.
pub fn compile(
    program: &hir::TypedProgram,
    function: &str,
    options: &CompileOptions,
) -> Result<CompiledProgram, CompileError> {
    let f = program
        .function(function)
        .ok_or_else(|| CompileError::NoSuchFunction(function.to_string()))?;
    compile_function(f, options)
}

/// Translate one type-checked function: the single place kernels are
/// extracted, shared by [`compile`] and the linter.
pub(crate) fn compile_function(
    f: &hir::TypedFunction,
    options: &CompileOptions,
) -> Result<CompiledProgram, CompileError> {
    let (host, kernels) = hostgen::lower_host(f, options)?;
    let comm_plan = dataflow::comm_plan(&kernels, &host);
    let overlap_plan = dataflow::overlap_plan(&kernels);

    // Premises the runtime must discharge: bound arrays of every
    // verdict that *rests* on a monotone window.
    let mut monotone_premises: Vec<usize> = Vec::new();
    for k in &kernels {
        for cfg in &k.configs {
            if cfg.lint.verdict == DependVerdict::Disjoint(DisjointProof::MonotoneWindow) {
                if let Some(w) = cfg.monotone_window {
                    if !monotone_premises.contains(&w.ptr_array) {
                        monotone_premises.push(w.ptr_array);
                    }
                }
            }
        }
    }

    Ok(CompiledProgram {
        name: f.name.clone(),
        scalar_params: f.scalar_params.clone(),
        array_params: f.array_params.clone(),
        locals: f.locals.clone(),
        kernels,
        host,
        comm_plan,
        overlap_plan,
        monotone_premises,
        options: options.clone(),
    })
}

/// Re-arm the runtime write-miss check on every distributed array whose
/// check the prover elided. Used by audit tooling and the property tests
/// to cross-check static elision verdicts against observed miss records:
/// a correct proof implies a forced-checked run records zero misses and
/// identical results.
pub fn force_miss_checks(p: &mut CompiledProgram) {
    for k in &mut p.kernels {
        for (kbuf, cfg) in k.configs.iter_mut().enumerate() {
            if cfg.placement == Placement::Distributed
                && cfg.mode.writes()
                && cfg.miss_check_elided
            {
                cfg.miss_check_elided = false;
                extract::set_store_flags(&mut k.kernel.body, kbuf as u32, false, true);
            }
        }
    }
}

/// Fault injection — the dual of [`force_miss_checks`]: drop the runtime
/// write-miss check from every distributed array, as if the prover had
/// (wrongly) elided it. Stores that leave the owner partition then land
/// in the local replica and are silently lost at flush time. Exists to
/// audit the runtime sanitizer: a `SanitizeLevel::Stores` run must catch
/// exactly the programs this function breaks.
pub fn force_elide_checks(p: &mut CompiledProgram) {
    for k in &mut p.kernels {
        for (kbuf, cfg) in k.configs.iter_mut().enumerate() {
            if cfg.placement == Placement::Distributed
                && cfg.mode.writes()
                && !cfg.miss_check_elided
            {
                cfg.miss_check_elided = true;
                extract::set_store_flags(&mut k.kernel.body, kbuf as u32, false, false);
            }
        }
    }
}

/// Fault injection for the comm-elision audit: claim a unit-stride
/// elision fact for every replicated written buffer the analysis did
/// *not* prove safe. GPUs then keep mutually stale replicas whose dirty
/// runs escape the claimed partitions; a `SanitizeLevel::Full` run must
/// reject exactly the programs this function breaks.
pub fn force_comm_elision(p: &mut CompiledProgram) {
    for (ki, k) in p.kernels.iter().enumerate() {
        for (kbuf, cfg) in k.configs.iter().enumerate() {
            if cfg.needs_replica_sync() && p.comm_plan.kernels[ki][kbuf].is_none() {
                p.comm_plan.kernels[ki][kbuf] = Some(dataflow::ElideFact {
                    stride: ir::Expr::imm_i32(1),
                    reason: "forced (fault injection)".to_string(),
                });
            }
        }
    }
}

/// Fault injection for the dependence audit: strip the declared halo
/// from every distributed `localaccess` array, as if the programmer had
/// declared a zero-width window. Legitimate neighbor loads — exactly the
/// loads a loop-carried dependence (`ACC-W006`) reads other iterations'
/// elements through — then escape the declared window, and a
/// `SanitizeLevel::Full` run must reject the program with a
/// `LoadOutsideWindow` violation. Together with [`force_elide_checks`]
/// this is the dynamic half of the static/dynamic correspondence
/// protocol in `docs/analysis.md`.
pub fn force_local_windows(p: &mut CompiledProgram) {
    for k in &mut p.kernels {
        for cfg in &mut k.configs {
            if cfg.placement == Placement::Distributed {
                if let Some(la) = &mut cfg.localaccess {
                    la.left = ir::Expr::imm_i32(0);
                    la.right = ir::Expr::imm_i32(0);
                }
            }
        }
    }
}

/// Fault injection for the carried-distance audit: shrink every proved
/// `CarriedLocal` distance to at most one window in either direction,
/// mislabeling deep carried reads (`y[i] = y[i-2]` claims distance 1).
/// The kernel's actual loads are untouched, so they escape the shrunken
/// claim, and a `SanitizeLevel::Full` run must reject the program with
/// `CarriedDistanceViolated` (`ACC-R012`) before any corrupted array
/// escapes — the wavefront half of the static/dynamic correspondence
/// protocol in `docs/analysis.md`.
pub fn force_carried_local(p: &mut CompiledProgram) {
    for k in &mut p.kernels {
        for cfg in &mut k.configs {
            if let Some((lo, hi)) = cfg.lint.verdict.carried_distance().and_then(|d| d.bounds())
            {
                if hi > 1 || lo < -1 {
                    cfg.lint.verdict = DependVerdict::CarriedLocal {
                        distance: Distance::of_range(lo.clamp(-1, 1), hi.clamp(-1, 1)),
                    };
                }
            }
        }
    }
}

/// Convenience: frontend + translate in one call.
pub fn compile_source(
    src: &str,
    function: &str,
    options: &CompileOptions,
) -> Result<CompiledProgram, String> {
    let typed = acc_minic::frontend(src).map_err(|ds| {
        ds.iter()
            .map(|d| d.render_verbose(src))
            .collect::<Vec<_>>()
            .join("\n")
    })?;
    compile(&typed, function, options).map_err(|e| e.to_string())
}
