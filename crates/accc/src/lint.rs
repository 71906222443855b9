//! `acc-lint`: the static multi-GPU consistency linter.
//!
//! The linter is a *reader* of [`CompiledProgram`]: it runs no analysis
//! of its own. [`lint_program`] formats the per-array verdicts the
//! translator recorded in [`crate::config::ArrayLint`] and walks the
//! compiled host program ([`HostOp`]) for staleness, producing
//! structured [`Diagnostic`]s with stable codes; [`lint_function`] and
//! [`lint_source`] compile first and then read.
//!
//! The codes:
//!
//! * **ACC-W001 overlapping-stores** — a kernel stores thread-dependent
//!   values at overlapping (broadcast or irregular) indices; with the
//!   array on several GPUs the replica reconciliation order decides which
//!   value survives.
//! * **ACC-W002 unannotated-rmw** — a read-modify-write of an array
//!   element at an overlapping index without `reductiontoarray`; per-GPU
//!   partial updates are lost instead of merged.
//! * **ACC-W003 localaccess-range-mismatch** — the declared `localaccess`
//!   window is provably narrower than the per-iteration read range the
//!   interval analysis infers; the data loader will under-allocate.
//! * **ACC-W004 stale-replica-read** — host code reads an array a prior
//!   kernel wrote on the device, with no intervening `update host` or
//!   flushing region exit; the host silently sees pre-kernel data.
//! * **ACC-W005 cross-gpu-race** — the dependence analysis
//!   ([`crate::depend`]) *proved* that distinct iterations write
//!   diverging values to the same element of a distributed array; the
//!   result depends on the partition boundary. Subsumes W001/W002 for
//!   that array.
//! * **ACC-W006 loop-carried-dependence** — the dependence analysis
//!   proved some iteration reads an element another iteration writes;
//!   distributing (or reordering) the loop changes which value is seen.
//!   When the distance analysis bounded the carried distance but the
//!   declared halo is too narrow, the message reports the shortfall.
//! * **ACC-I003 carried-dependence-local** — the distance/direction
//!   analysis *bounded* the carried dependence and the bound fits inside
//!   the declared (or inferred) `localaccess` halo: every carried value
//!   a GPU needs already lands in its halo exchange. The dependence is
//!   real — sequential-semantics users still must opt in — but the
//!   runtime can license a wavefront schedule and double-buffered
//!   overlap instead of refusing to distribute.
//! * **ACC-I001 inferable-annotation** — (only with
//!   `CompileOptions::infer_localaccess`) the whole-program analysis
//!   derived a sound `localaccess` window for an unannotated array; the
//!   diagnostic carries the machine-applyable pragma line.
//! * **ACC-I002 inferable-reduction** — (only with
//!   `CompileOptions::infer_reductions`) every write of an unannotated
//!   array is a uniform read-modify-write; the diagnostic carries the
//!   machine-applyable `reductiontoarray` pragma, and the compiled
//!   program already uses the exact atomic-RMW IR the annotation would
//!   produce.
//!
//! Parse-time `localaccess` validation (`ACC-E001`/`ACC-E002`) lives in
//! the frontend (`acc_minic::directive`); the runtime sanitizer
//! (`SanitizeLevel` in `acc-runtime`) audits these verdicts dynamically.

use std::collections::{BTreeMap, BTreeSet};

use acc_kernel_ir as ir;
use acc_minic::diag::Diagnostic;
use acc_minic::directive::DataClauseKind;
use acc_minic::hir;

use crate::affine::{classify, AccessPattern};
use crate::hostgen::{clause_arrays, CompiledClause};
use crate::{CompileOptions, CompiledProgram, DependVerdict, HostOp, Placement};

/// Count the store-hazard sites for one buffer of a (remapped) kernel
/// body: `(overlapping-stores, unannotated-rmw)`. A store is hazardous
/// when its index is not thread-disjoint (broadcast or irregular) and its
/// value is thread-dependent; a self-load of the same buffer at the same
/// index makes it an unannotated RMW instead (ACC-W002 subsumes W001).
pub(crate) fn store_hazards(
    body: &[ir::Stmt],
    buf: ir::BufId,
    assigned: &BTreeSet<ir::LocalId>,
) -> (usize, usize) {
    let mut overlap = 0;
    let mut rmw = 0;
    for s in body {
        s.visit(&mut |s| {
            if let ir::Stmt::Store {
                buf: b, idx, value, ..
            } = s
            {
                if *b != buf
                    || !matches!(
                        classify(idx),
                        AccessPattern::Broadcast | AccessPattern::Irregular
                    )
                {
                    return;
                }
                let mut self_rmw = false;
                value.visit(&mut |e| {
                    if let ir::Expr::Load { buf: lb, idx: lidx } = e {
                        if *lb == buf && **lidx == *idx {
                            self_rmw = true;
                        }
                    }
                });
                if self_rmw {
                    rmw += 1;
                    return;
                }
                if !crate::depend::value_uniform(value, assigned) {
                    overlap += 1;
                }
            }
        });
    }
    (overlap, rmw)
}

/// Materialize the diagnostics of a compiled function: the per-array
/// verdicts its kernels recorded, in launch order, plus the host
/// staleness walk over its host program.
pub fn lint_program(prog: &CompiledProgram) -> Vec<Diagnostic> {
    let mut l = HostLint {
        prog,
        regions: Vec::new(),
        stale: BTreeMap::new(),
        emitted: BTreeSet::new(),
        kernel_seen: vec![false; prog.kernels.len()],
        diags: Vec::new(),
    };
    l.walk_block(&prog.host);
    l.diags
}

/// Lint one function: compile it (with the given options) and read the
/// result. A translator failure becomes the single error diagnostic.
pub fn lint_function(f: &hir::TypedFunction, options: &CompileOptions) -> Vec<Diagnostic> {
    match crate::compile_function(f, options) {
        Ok(prog) => lint_program(&prog),
        Err(e) => vec![e.diagnostic()],
    }
}

/// Lint every function of a source file with the full proposal options.
/// `Err` carries frontend diagnostics (the program did not compile).
pub fn lint_source(src: &str) -> Result<Vec<Diagnostic>, Vec<Diagnostic>> {
    lint_source_with(src, &CompileOptions::proposal())
}

/// Like [`lint_source`] but with explicit compile options; the `--infer`
/// mode of `acc-lint` enables `infer_localaccess` here to surface
/// `ACC-I001` inferable-annotation diagnostics.
pub fn lint_source_with(
    src: &str,
    options: &CompileOptions,
) -> Result<Vec<Diagnostic>, Vec<Diagnostic>> {
    let typed = acc_minic::frontend(src)?;
    let mut diags = Vec::new();
    for f in &typed.functions {
        let prog = crate::compile_function(f, options).map_err(|e| vec![e.diagnostic()])?;
        diags.extend(lint_program(&prog));
    }
    Ok(diags)
}

struct HostLint<'a> {
    prog: &'a CompiledProgram,
    /// Clauses of the open data regions, innermost last. Their arrays are
    /// device-present (a nested `copy` clause on a present array is a
    /// no-op, so it does not flush at the inner exit).
    regions: Vec<&'a [CompiledClause]>,
    /// Device-written arrays whose host copy is stale, with the index of
    /// the writing kernel.
    stale: BTreeMap<usize, usize>,
    /// `(array, kernel)` of already-emitted W004s (the while-body double
    /// walk would otherwise duplicate them).
    emitted: BTreeSet<(usize, usize)>,
    /// Kernels whose per-array verdict diagnostics were already emitted —
    /// the double walk of host loop bodies (see [`HostLint::walk_op`])
    /// revisits each launch site, but the dependence verdicts are
    /// per-kernel statics and must not repeat.
    kernel_seen: Vec<bool>,
    diags: Vec<Diagnostic>,
}

impl<'a> HostLint<'a> {
    fn walk_block(&mut self, ops: &'a [HostOp]) {
        for op in ops {
            self.walk_op(op);
        }
    }

    fn walk_op(&mut self, op: &'a HostOp) {
        match op {
            HostOp::Plain(stmt) => stmt.visit_exprs(&mut |e| self.check_host_read(e)),
            HostOp::If { cond, then_, else_ } => {
                cond.visit(&mut |e| self.check_host_read(e));
                let entry = self.stale.clone();
                self.walk_block(then_);
                let after_then = std::mem::replace(&mut self.stale, entry);
                self.walk_block(else_);
                // Either branch may have run: union of staleness.
                self.stale.extend(after_then);
            }
            HostOp::While { cond, body } => {
                cond.visit(&mut |e| self.check_host_read(e));
                // Walk twice so a kernel write late in the body is seen
                // by host reads early in the next iteration; `emitted`
                // dedups the repeated sites.
                let entry = self.stale.clone();
                self.walk_block(body);
                cond.visit(&mut |e| self.check_host_read(e));
                self.walk_block(body);
                // The loop may have run zero times.
                self.stale.extend(entry);
            }
            HostOp::Region { clauses, body } => {
                self.regions.push(clauses);
                self.walk_block(body);
                self.regions.pop();
                // The exit flushes the copy/copyout sections unless an
                // enclosing region keeps the array present.
                for c in clauses {
                    if matches!(c.kind, DataClauseKind::Copy | DataClauseKind::CopyOut) {
                        for sec in &c.sections {
                            if !self.present(sec.array) {
                                self.stale.remove(&sec.array);
                            }
                        }
                    }
                }
            }
            HostOp::Launch { kernel } => self.visit_kernel(*kernel),
            HostOp::Update { to_host, .. } => {
                for sec in to_host {
                    self.stale.remove(&sec.array);
                }
            }
            HostOp::Return => {}
        }
    }

    fn present(&self, array: usize) -> bool {
        self.regions
            .iter()
            .any(|clauses| clause_arrays(clauses).any(|a| a == array))
    }

    fn visit_kernel(&mut self, kidx: usize) {
        let prog = self.prog;
        let ck = &prog.kernels[kidx];
        let fresh = !std::mem::replace(&mut self.kernel_seen[kidx], true);
        let span = ck.span;
        let kname = &ck.kernel.name;
        for cfg in &ck.configs {
            if cfg.mode.writes() {
                self.stale.insert(cfg.array, kidx);
            }
            if !fresh {
                // Revisit from an enclosing host loop's second walk:
                // only the staleness tracking repeats.
                continue;
            }
            let aname = &prog.array_params[cfg.array].0;
            let pragma = |la: &crate::LocalAccessParams| {
                crate::infer::render_annotation(aname, la, &prog.locals)
            };
            let mut emit = |code: &'static str, message: String| {
                self.diags
                    .push(Diagnostic::warning(span, message).with_code(code));
            };
            // Definite dependence verdicts first: a proven race subsumes
            // the heuristic overlap counts (W001/W002) for this array.
            let race_reported =
                cfg.lint.verdict == DependVerdict::Race && cfg.placement == Placement::Distributed;
            if race_reported {
                emit(
                    "ACC-W005",
                    format!(
                        "kernel `{kname}`: cross-GPU race on distributed \
                         `{aname}` — distinct iterations provably write \
                         diverging values to the same element, so the \
                         result depends on the partition boundary"
                    ),
                );
            }
            match cfg.lint.verdict {
                DependVerdict::LoopCarried => emit(
                    "ACC-W006",
                    format!(
                        "kernel `{kname}`: loop-carried dependence on \
                         `{aname}` — some iteration reads an element \
                         another iteration writes; distributed (or even \
                         reordered) execution changes which value is seen"
                    ),
                ),
                DependVerdict::CarriedLocal { distance } if cfg.lint.carried_fits_halo() => {
                    let pragma = cfg.localaccess.as_ref().map(pragma).unwrap_or_default();
                    emit(
                        "ACC-I003",
                        format!(
                            "kernel `{kname}`: loop-carried dependence on \
                             `{aname}` proved local — carried distance \
                             {distance} window(s) fits the declared halo \
                             ({} left, {} right); `{pragma}` licenses a \
                             wavefront schedule with halo-overlapped \
                             transfers",
                            cfg.lint.halo_windows.0, cfg.lint.halo_windows.1
                        ),
                    );
                }
                DependVerdict::CarriedLocal { distance } => {
                    let shortfall = match distance.halo_need() {
                        Some((need_l, need_r)) => format!(
                            "the declared halo spans only ({} left, {} right) of \
                             the ({need_l} left, {need_r} right) window(s) the \
                             distance needs; widen the halo to prove the \
                             dependence local",
                            cfg.lint.halo_windows.0, cfg.lint.halo_windows.1
                        ),
                        None => "only its direction is known, so no finite halo \
                                 can prove it local"
                            .to_string(),
                    };
                    emit(
                        "ACC-W006",
                        format!(
                            "kernel `{kname}`: loop-carried dependence on \
                             `{aname}` with carried distance {distance} \
                             window(s), but {shortfall}"
                        ),
                    );
                }
                _ => {}
            }
            if cfg.lint.unannotated_rmw > 0 && !race_reported {
                emit(
                    "ACC-W002",
                    format!(
                        "kernel `{kname}`: read-modify-write of `{aname}` at \
                         overlapping indices without `reductiontoarray`; \
                         per-GPU partial updates would be lost \
                         ({} site(s))",
                        cfg.lint.unannotated_rmw
                    ),
                );
            }
            if cfg.lint.overlap_stores > 0 && !race_reported {
                emit(
                    "ACC-W001",
                    format!(
                        "kernel `{kname}`: stores thread-dependent values to \
                         `{aname}` at overlapping indices; replica \
                         reconciliation order decides which value survives \
                         ({} site(s))",
                        cfg.lint.overlap_stores
                    ),
                );
            }
            if cfg.lint.window_violations > 0 {
                emit(
                    "ACC-W003",
                    format!(
                        "kernel `{kname}`: loads of `{aname}` provably escape \
                         the declared localaccess window for every stride \
                         ({} of {} comparable site(s)); the data loader \
                         will under-allocate",
                        cfg.lint.window_violations, cfg.lint.window_checked
                    ),
                );
            }
            if prog.options.infer_localaccess && cfg.inferred_used {
                if let Some(la) = &cfg.localaccess {
                    let pragma = pragma(la);
                    emit(
                        "ACC-I001",
                        format!(
                            "kernel `{kname}`: every access of `{aname}` fits a \
                             provable localaccess window; add `{pragma}` to \
                             distribute the array instead of replicating it"
                        ),
                    );
                }
            }
            if let Some(op) = cfg.inferred_reduction.filter(|_| prog.options.infer_reductions) {
                let pragma = crate::infer::render_reduction(aname, op);
                emit(
                    "ACC-I002",
                    format!(
                        "kernel `{kname}`: every write of `{aname}` is a \
                         uniform read-modify-write; add `{pragma}` inside \
                         the loop to merge per-GPU partials instead of \
                         racing on replicas"
                    ),
                );
            }
        }
    }

    /// Report `e`, if it is a host load of an array whose host copy is
    /// stale (ACC-W004, once per array × writing kernel).
    fn check_host_read(&mut self, e: &ir::Expr) {
        let ir::Expr::Load { buf, .. } = e else { return };
        let arr = buf.0 as usize;
        let Some(&kidx) = self.stale.get(&arr) else { return };
        if self.emitted.insert((arr, kidx)) {
            let ck = &self.prog.kernels[kidx];
            let aname = &self.prog.array_params[arr].0;
            let kname = &ck.kernel.name;
            self.diags.push(
                Diagnostic::warning(
                    ck.span,
                    format!(
                        "host code reads `{aname}` after kernel `{kname}` \
                         wrote it on the device, with no intervening \
                         `update host` or flushing region exit; the host \
                         sees pre-kernel data"
                    ),
                )
                .with_code("ACC-W004"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(src: &str) -> Vec<Diagnostic> {
        lint_source(src).expect("source must compile")
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().filter_map(|d| d.code).collect()
    }

    #[test]
    fn w001_fires_on_scatter_of_thread_dependent_values() {
        let d = lint(
            "void f(int n, int *m, double *x, double *y) {\n\
             #pragma acc parallel loop copyin(m[0:n], x[0:n]) copy(y[0:n])\n\
             for (int i = 0; i < n; i++) y[m[i]] = x[i];\n\
             }",
        );
        assert_eq!(codes(&d), vec!["ACC-W001"], "{d:?}");
        assert!(d[0].message.contains("`y`"), "{}", d[0].message);
    }

    #[test]
    fn w001_quiet_on_thread_invariant_scatter_value() {
        // BFS-style: every GPU that writes an element writes the same value.
        let d = lint(
            "void f(int n, int level, int *m, int *y) {\n\
             #pragma acc parallel loop copyin(m[0:n]) copy(y[0:n])\n\
             for (int i = 0; i < n; i++) y[m[i]] = level + 1;\n\
             }",
        );
        assert!(codes(&d).is_empty(), "{d:?}");
    }

    #[test]
    fn w002_fires_on_unannotated_rmw_and_suppresses_w001() {
        let d = lint(
            "void f(int n, int *m, double *v, double *e) {\n\
             #pragma acc parallel loop copyin(m[0:n], v[0:n]) copy(e[0:8])\n\
             for (int i = 0; i < n; i++) e[m[i]] = e[m[i]] + v[i];\n\
             }",
        );
        assert_eq!(codes(&d), vec!["ACC-W002"], "{d:?}");
    }

    #[test]
    fn w002_quiet_with_reductiontoarray() {
        let d = lint(
            "void f(int n, int *m, double *v, double *e) {\n\
             #pragma acc parallel loop copyin(m[0:n], v[0:n]) copy(e[0:8])\n\
             for (int i = 0; i < n; i++) {\n\
             #pragma acc reductiontoarray(+: e[8])\n\
             e[m[i]] += v[i];\n\
             }\n\
             }",
        );
        assert!(codes(&d).is_empty(), "{d:?}");
    }

    #[test]
    fn w005_fires_on_distributed_race_and_suppresses_w001() {
        let src = "void f(int n, double *v, double *y) {\n\
             #pragma acc localaccess(y) stride(1)\n\
             #pragma acc parallel loop copyin(v[0:n]) copy(y[0:n])\n\
             for (int i = 0; i < n; i++) { y[i] = v[i]; y[0] = v[i]; }\n\
             }";
        let d = lint(src);
        assert_eq!(codes(&d), vec!["ACC-W005"], "{d:?}");
        assert!(d[0].message.contains("`y`"), "{}", d[0].message);
    }

    #[test]
    fn i003_downgrades_w006_when_distance_fits_halo() {
        // Carried distance exactly 1 window; the declared left(1) halo
        // covers it, so the dependence is proved local (ACC-I003).
        let d = lint(
            "void f(int n, double *y) {\n\
             #pragma acc localaccess(y) stride(1) left(1)\n\
             #pragma acc parallel loop copy(y[0:n])\n\
             for (int i = 1; i < n; i++) y[i] = y[i - 1] + 1.0;\n\
             }",
        );
        assert_eq!(codes(&d), vec!["ACC-I003"], "{d:?}");
        assert!(d[0].message.contains("`y`"), "{}", d[0].message);
        assert!(d[0].message.contains("distance 1"), "{}", d[0].message);
        assert!(d[0].message.contains("wavefront"), "{}", d[0].message);
    }

    #[test]
    fn infer_surfaces_halo_pragma_for_carried_local_array() {
        // Unannotated first-order recurrence: inference derives the
        // `left(1)` window, the distance analysis proves the carried
        // dependence fits it, and both the I001 and I003 diagnostics
        // carry the machine-applyable pragma.
        let src = "void f(int n, double *y) {\n\
             #pragma acc parallel loop copy(y[0:n])\n\
             for (int i = 1; i < n; i++) y[i] = y[i - 1] + 1.0;\n\
             }";
        let opts = CompileOptions {
            infer_localaccess: true,
            ..CompileOptions::proposal()
        };
        let d = lint_source_with(src, &opts).unwrap();
        let c = codes(&d);
        assert!(c.contains(&"ACC-I001"), "{d:?}");
        assert!(c.contains(&"ACC-I003"), "{d:?}");
        let i003 = d.iter().find(|d| d.code == Some("ACC-I003")).unwrap();
        assert!(
            i003.message
                .contains("#pragma acc localaccess(y) stride(1) left(1)"),
            "{}",
            i003.message
        );
    }

    #[test]
    fn w006_reports_shortfall_when_halo_too_narrow() {
        // Distance 2 but only one halo window declared: still W006, with
        // the shortfall spelled out (plus W003: the loads escape the
        // declared window).
        let d = lint(
            "void f(int n, double *y) {\n\
             #pragma acc localaccess(y) stride(1) left(1)\n\
             #pragma acc parallel loop copy(y[0:n])\n\
             for (int i = 2; i < n; i++) y[i] = y[i - 2] + 1.0;\n\
             }",
        );
        let c = codes(&d);
        assert!(c.contains(&"ACC-W006"), "{d:?}");
        assert!(c.contains(&"ACC-W003"), "{d:?}");
        let w006 = d.iter().find(|d| d.code == Some("ACC-W006")).unwrap();
        assert!(w006.message.contains("distance 2"), "{}", w006.message);
        assert!(
            w006.message.contains("(2 left, 0 right)"),
            "{}",
            w006.message
        );
    }

    #[test]
    fn w006_unchanged_for_unbounded_carried_dependence() {
        // Broadcast read of a written element: no distance bound exists,
        // so the classic W006 message stays.
        let d = lint(
            "void f(int n, double *y) {\n\
             #pragma acc localaccess(y) stride(1)\n\
             #pragma acc parallel loop copy(y[0:n])\n\
             for (int i = 1; i < n; i++) y[i] = y[0] + 1.0;\n\
             }",
        );
        let c = codes(&d);
        assert!(c.contains(&"ACC-W006"), "{d:?}");
        let w006 = d.iter().find(|d| d.code == Some("ACC-W006")).unwrap();
        assert!(
            w006.message.contains("distributed (or even"),
            "{}",
            w006.message
        );
    }

    #[test]
    fn i002_fires_only_with_reduction_inference_enabled() {
        let src = "void f(int n, int *m, double *v, double *e) {\n\
             #pragma acc parallel loop copyin(m[0:n], v[0:n]) copy(e[0:8])\n\
             for (int i = 0; i < n; i++) e[m[i]] = e[m[i]] + v[i];\n\
             }";
        // Default options: the heuristic W002 nudge.
        let d = lint(src);
        assert_eq!(codes(&d), vec!["ACC-W002"], "{d:?}");
        // With inference on, the rewrite is applied and announced instead.
        let mut opts = CompileOptions::proposal();
        opts.infer_reductions = true;
        let d = lint_source_with(src, &opts).unwrap();
        assert_eq!(codes(&d), vec!["ACC-I002"], "{d:?}");
        assert!(
            d[0].message.contains("#pragma acc reductiontoarray(+: e)"),
            "{}",
            d[0].message
        );
    }

    #[test]
    fn w003_fires_on_window_narrower_than_reads() {
        let d = lint(
            "void f(int n, double *x, double *y) {\n\
             #pragma acc localaccess(x) stride(1)\n\
             #pragma acc localaccess(y) stride(1)\n\
             #pragma acc parallel loop copyin(x[0:n]) copy(y[0:n])\n\
             for (int i = 0; i < n - 1; i++) y[i] = x[i] + x[i + 1];\n\
             }",
        );
        assert_eq!(codes(&d), vec!["ACC-W003"], "{d:?}");
        assert!(d[0].message.contains("`x`"), "{}", d[0].message);
    }

    #[test]
    fn w003_quiet_with_sufficient_halo() {
        let d = lint(
            "void f(int n, double *x, double *y) {\n\
             #pragma acc localaccess(x) stride(1) right(1)\n\
             #pragma acc localaccess(y) stride(1)\n\
             #pragma acc parallel loop copyin(x[0:n]) copy(y[0:n])\n\
             for (int i = 0; i < n - 1; i++) y[i] = x[i] + x[i + 1];\n\
             }",
        );
        assert!(codes(&d).is_empty(), "{d:?}");
    }

    #[test]
    fn w004_fires_on_host_read_of_device_written_array() {
        let d = lint(
            "void f(int n, double *x, double *y) {\n\
             double t;\n\
             #pragma acc data copyin(x[0:n]) copy(y[0:n])\n\
             {\n\
             #pragma acc parallel loop\n\
             for (int i = 0; i < n; i++) y[i] = x[i];\n\
             t = y[0];\n\
             }\n\
             }",
        );
        assert_eq!(codes(&d), vec!["ACC-W004"], "{d:?}");
        assert!(d[0].message.contains("`y`"), "{}", d[0].message);
    }

    #[test]
    fn w004_quiet_with_update_host_or_after_region_exit() {
        let d = lint(
            "void f(int n, double *x, double *y) {\n\
             double t;\n\
             double u;\n\
             #pragma acc data copyin(x[0:n]) copy(y[0:n])\n\
             {\n\
             #pragma acc parallel loop\n\
             for (int i = 0; i < n; i++) y[i] = x[i];\n\
             #pragma acc update host(y[0:n])\n\
             t = y[0];\n\
             }\n\
             u = y[1];\n\
             }",
        );
        assert!(codes(&d).is_empty(), "{d:?}");
    }

    #[test]
    fn w004_fires_across_host_loop_iterations() {
        // The read precedes the kernel textually but follows it in
        // iteration order; the implicit flush never happens because the
        // outer data region keeps `y` present.
        let d = lint(
            "void f(int n, int iters, double *x, double *y) {\n\
             int t;\n\
             double acc;\n\
             t = 0;\n\
             acc = 0.0;\n\
             #pragma acc data copy(y[0:n]) copyin(x[0:n])\n\
             {\n\
             while (t < iters) {\n\
             acc = acc + y[0];\n\
             #pragma acc parallel loop\n\
             for (int i = 0; i < n; i++) y[i] = y[i] + x[i];\n\
             t = t + 1;\n\
             }\n\
             }\n\
             }",
        );
        assert_eq!(codes(&d), vec!["ACC-W004"], "{d:?}");
    }

    #[test]
    fn implicit_region_flush_clears_staleness() {
        // The region around the launch flushes `y` before the host reads
        // it: the combined directive's `copy`, or the translator's
        // implicit `copy` for an array no region names (none at all, or
        // an enclosing region that covers only `x`).
        for src in [
            "void f(int n, double *x, double *y) {\n\
             double t;\n\
             #pragma acc parallel loop copyin(x[0:n]) copy(y[0:n])\n\
             for (int i = 0; i < n; i++) y[i] = x[i];\n\
             t = y[0];\n\
             }",
            "void f(int n, double *x, double *y) {\n\
             double t;\n\
             #pragma acc parallel loop\n\
             for (int i = 0; i < n; i++) y[i] = x[i];\n\
             t = y[0];\n\
             }",
            "void f(int n, double *x, double *y) {\n\
             double t;\n\
             #pragma acc data copyin(x[0:n])\n\
             {\n\
             #pragma acc parallel loop\n\
             for (int i = 0; i < n; i++) y[i] = x[i];\n\
             t = y[0];\n\
             }\n\
             }",
        ] {
            let d = lint(src);
            assert!(codes(&d).is_empty(), "{src}: {d:?}");
        }
    }

    #[test]
    fn i001_fires_only_with_inference_enabled() {
        let src = "void f(int n, double *x, double *y) {\n\
             #pragma acc parallel loop copyin(x[0:n]) copy(y[0:n])\n\
             for (int i = 0; i < n; i++) y[i] = x[i] + x[i + 1];\n\
             }";
        // Default options: inference is not consumed, no I001.
        assert!(codes(&lint(src)).is_empty());
        let opts = CompileOptions {
            infer_localaccess: true,
            ..CompileOptions::proposal()
        };
        let d = lint_source_with(src, &opts).unwrap();
        assert_eq!(codes(&d), vec!["ACC-I001", "ACC-I001"], "{d:?}");
        let msg_x = d.iter().find(|d| d.message.contains("`x`")).unwrap();
        assert!(
            msg_x
                .message
                .contains("#pragma acc localaccess(x) stride(1) right(1)"),
            "{}",
            msg_x.message
        );
    }

    #[test]
    fn i001_quiet_when_annotation_present() {
        let src = "void f(int n, double *x, double *y) {\n\
             #pragma acc localaccess(x) stride(1) right(1)\n\
             #pragma acc localaccess(y) stride(1)\n\
             #pragma acc parallel loop copyin(x[0:n]) copy(y[0:n])\n\
             for (int i = 0; i < n; i++) y[i] = x[i] + x[i + 1];\n\
             }";
        let opts = CompileOptions {
            infer_localaccess: true,
            ..CompileOptions::proposal()
        };
        let d = lint_source_with(src, &opts).unwrap();
        assert!(codes(&d).is_empty(), "{d:?}");
    }

    #[test]
    fn diagnostics_carry_spans_and_render() {
        let src = "void f(int n, int *m, double *x, double *y) {\n\
             #pragma acc parallel loop copyin(m[0:n], x[0:n]) copy(y[0:n])\n\
             for (int i = 0; i < n; i++) y[m[i]] = x[i];\n\
             }";
        let d = lint(src);
        assert_eq!(d.len(), 1);
        let rendered = d[0].render(src);
        assert!(rendered.starts_with("warning[ACC-W001] at 2:"), "{rendered}");
    }
}
