//! `acc-lint`: the static multi-GPU consistency linter.
//!
//! Materializes the per-array verdicts the translator records in
//! [`crate::config::ArrayLint`] — plus a host-side staleness walk — into
//! structured [`Diagnostic`]s with stable codes:
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
use acc_minic::diag::{Diagnostic, Span};
use acc_minic::directive::DataClauseKind;
use acc_minic::hir::{self, HostStmt, TypedDataClause};

use crate::affine::{classify, AccessPattern};
use crate::{extract, range, CompileOptions};

/// Count the store-hazard sites for one buffer of a (remapped) kernel
/// body: `(overlapping-stores, unannotated-rmw)`. A store is hazardous
/// when its index is not thread-disjoint (broadcast or irregular) and its
/// value is thread-dependent; a self-load of the same buffer at the same
/// index makes it an unannotated RMW instead (ACC-W002 subsumes W001).
pub(crate) fn store_hazards(body: &[ir::Stmt], buf: ir::BufId) -> (usize, usize) {
    let assigned = range::assigned_locals(body);
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
                let mut variant = false;
                value.visit(&mut |e| match e {
                    ir::Expr::ThreadIdx | ir::Expr::Load { .. } => variant = true,
                    ir::Expr::Local(l) if assigned.contains(l) => variant = true,
                    _ => {}
                });
                if variant {
                    overlap += 1;
                }
            }
        });
    }
    (overlap, rmw)
}

/// Lint one function: extract every kernel (with the given options),
/// materialize the per-array verdicts, and run the host staleness walk.
pub fn lint_function(f: &hir::TypedFunction, options: &CompileOptions) -> Vec<Diagnostic> {
    let mut l = HostLint {
        f,
        options,
        present: Vec::new(),
        stale: BTreeMap::new(),
        emitted: BTreeSet::new(),
        kernel_seen: BTreeSet::new(),
        diags: Vec::new(),
    };
    l.walk_block(&f.body);
    l.diags
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
    Ok(typed
        .functions
        .iter()
        .flat_map(|f| lint_function(f, options))
        .collect())
}

struct HostLint<'a> {
    f: &'a hir::TypedFunction,
    options: &'a CompileOptions,
    /// Arrays made device-present by enclosing data regions (a nested
    /// `copy` clause on a present array is a no-op, so it does not flush
    /// at the inner exit).
    present: Vec<BTreeSet<usize>>,
    /// Device-written arrays whose host copy is stale, with the writing
    /// kernel's span and name.
    stale: BTreeMap<usize, (Span, String)>,
    /// `(array, span.start, span.end)` of already-emitted W004s (the
    /// while-body double walk would otherwise duplicate them).
    emitted: BTreeSet<(usize, usize, usize)>,
    /// Kernel spans whose per-array verdict diagnostics were already
    /// emitted — the double walk of host loop bodies (see
    /// [`HostLint::walk_stmt`]) revisits each launch site, but the
    /// dependence verdicts are per-kernel statics and must not repeat.
    kernel_seen: BTreeSet<(usize, usize)>,
    diags: Vec<Diagnostic>,
}

impl HostLint<'_> {
    fn walk_block(&mut self, stmts: &[HostStmt]) {
        for s in stmts {
            self.walk_stmt(s);
        }
    }

    fn walk_stmt(&mut self, s: &HostStmt) {
        match s {
            HostStmt::Plain(stmt) => self.check_host_reads_stmt(stmt),
            HostStmt::If { cond, then_, else_ } => {
                self.check_host_reads_expr(cond);
                let entry = self.stale.clone();
                self.walk_block(then_);
                let after_then = std::mem::replace(&mut self.stale, entry);
                self.walk_block(else_);
                // Either branch may have run: union of staleness.
                self.stale.extend(after_then);
            }
            HostStmt::While { cond, body } => {
                self.check_host_reads_expr(cond);
                // Walk twice so a kernel write late in the body is seen
                // by host reads early in the next iteration; `emitted`
                // dedups the repeated sites.
                let entry = self.stale.clone();
                self.walk_block(body);
                self.check_host_reads_expr(cond);
                self.walk_block(body);
                // The loop may have run zero times.
                self.stale.extend(entry);
            }
            HostStmt::DataRegion { clauses, body } => {
                self.present.push(clause_arrays(clauses));
                self.walk_block(body);
                self.present.pop();
                self.flush_on_exit(clauses);
            }
            HostStmt::ParallelLoop(node) => self.visit_kernel(node),
            HostStmt::Update { host, .. } => {
                for sec in host {
                    self.stale.remove(&(sec.buf.0 as usize));
                }
            }
            HostStmt::Return => {}
        }
    }

    fn visit_kernel(&mut self, node: &hir::ParallelLoopNode) {
        let ck = extract::extract_kernel(node, self.f, self.options);
        let fresh = self.kernel_seen.insert((node.span.start, node.span.end));
        for cfg in &ck.configs {
            let kname = &ck.kernel.name;
            let aname = &cfg.name;
            if !fresh {
                // Revisit from an enclosing host loop's second walk:
                // only the staleness tracking repeats.
                if cfg.mode.writes() {
                    self.stale
                        .insert(cfg.array, (node.span, ck.kernel.name.clone()));
                }
                continue;
            }
            // Definite dependence verdicts first: a proven race subsumes
            // the heuristic overlap counts (W001/W002) for this array.
            let mut race_reported = false;
            if cfg.lint.verdict == crate::depend::DependVerdict::Race
                && cfg.placement == crate::config::Placement::Distributed
            {
                race_reported = true;
                self.diags.push(
                    Diagnostic::warning(
                        node.span,
                        format!(
                            "kernel `{kname}`: cross-GPU race on distributed \
                             `{aname}` — distinct iterations provably write \
                             diverging values to the same element, so the \
                             result depends on the partition boundary"
                        ),
                    )
                    .with_code("ACC-W005"),
                );
            }
            match cfg.lint.verdict {
                crate::depend::DependVerdict::LoopCarried => {
                    self.diags.push(
                        Diagnostic::warning(
                            node.span,
                            format!(
                                "kernel `{kname}`: loop-carried dependence on \
                                 `{aname}` — some iteration reads an element \
                                 another iteration writes; distributed (or even \
                                 reordered) execution changes which value is seen"
                            ),
                        )
                        .with_code("ACC-W006"),
                    );
                }
                crate::depend::DependVerdict::CarriedLocal { distance }
                    if cfg.lint.carried_fits_halo() =>
                {
                    let pragma = cfg
                        .localaccess
                        .as_ref()
                        .map(|la| crate::infer::render_annotation(aname, la, &self.f.locals))
                        .unwrap_or_default();
                    self.diags.push(
                        Diagnostic::warning(
                            node.span,
                            format!(
                                "kernel `{kname}`: loop-carried dependence on \
                                 `{aname}` proved local — carried distance \
                                 {distance} window(s) fits the declared halo \
                                 ({} left, {} right); `{pragma}` licenses a \
                                 wavefront schedule with halo-overlapped \
                                 transfers",
                                cfg.lint.halo_windows.0, cfg.lint.halo_windows.1
                            ),
                        )
                        .with_code("ACC-I003"),
                    );
                }
                crate::depend::DependVerdict::CarriedLocal { distance } => {
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
                    self.diags.push(
                        Diagnostic::warning(
                            node.span,
                            format!(
                                "kernel `{kname}`: loop-carried dependence on \
                                 `{aname}` with carried distance {distance} \
                                 window(s), but {shortfall}"
                            ),
                        )
                        .with_code("ACC-W006"),
                    );
                }
                _ => {}
            }
            if cfg.lint.unannotated_rmw > 0 && !race_reported {
                self.diags.push(
                    Diagnostic::warning(
                        node.span,
                        format!(
                            "kernel `{kname}`: read-modify-write of `{aname}` at \
                             overlapping indices without `reductiontoarray`; \
                             per-GPU partial updates would be lost \
                             ({} site(s))",
                            cfg.lint.unannotated_rmw
                        ),
                    )
                    .with_code("ACC-W002"),
                );
            }
            if cfg.lint.overlap_stores > 0 && !race_reported {
                self.diags.push(
                    Diagnostic::warning(
                        node.span,
                        format!(
                            "kernel `{kname}`: stores thread-dependent values to \
                             `{aname}` at overlapping indices; replica \
                             reconciliation order decides which value survives \
                             ({} site(s))",
                            cfg.lint.overlap_stores
                        ),
                    )
                    .with_code("ACC-W001"),
                );
            }
            if cfg.lint.window_violations > 0 {
                self.diags.push(
                    Diagnostic::warning(
                        node.span,
                        format!(
                            "kernel `{kname}`: loads of `{aname}` provably escape \
                             the declared localaccess window for every stride \
                             ({} of {} comparable site(s)); the data loader \
                             will under-allocate",
                            cfg.lint.window_violations, cfg.lint.window_checked
                        ),
                    )
                    .with_code("ACC-W003"),
                );
            }
            if self.options.infer_localaccess && cfg.inferred_used {
                let la = cfg.localaccess.as_ref().unwrap();
                let pragma = crate::infer::render_annotation(aname, la, &self.f.locals);
                self.diags.push(
                    Diagnostic::warning(
                        node.span,
                        format!(
                            "kernel `{kname}`: every access of `{aname}` fits a \
                             provable localaccess window; add `{pragma}` to \
                             distribute the array instead of replicating it"
                        ),
                    )
                    .with_code("ACC-I001"),
                );
            }
            if self.options.infer_reductions {
                if let Some(op) = cfg.inferred_reduction {
                    let pragma = crate::infer::render_reduction(aname, op);
                    self.diags.push(
                        Diagnostic::warning(
                            node.span,
                            format!(
                                "kernel `{kname}`: every write of `{aname}` is a \
                                 uniform read-modify-write; add `{pragma}` inside \
                                 the loop to merge per-GPU partials instead of \
                                 racing on replicas"
                            ),
                        )
                        .with_code("ACC-I002"),
                    );
                }
            }
            if cfg.mode.writes() {
                self.stale
                    .insert(cfg.array, (node.span, ck.kernel.name.clone()));
            }
        }
        // A combined directive's data clauses form an implicit region
        // around the single launch: copy/copyout flush at its exit.
        self.flush_on_exit(&node.data_clauses);
    }

    fn flush_on_exit(&mut self, clauses: &[TypedDataClause]) {
        let outer: BTreeSet<usize> = self.present.iter().flatten().copied().collect();
        for c in clauses {
            if matches!(c.kind, DataClauseKind::Copy | DataClauseKind::CopyOut) {
                for sec in &c.sections {
                    let arr = sec.buf.0 as usize;
                    if !outer.contains(&arr) {
                        self.stale.remove(&arr);
                    }
                }
            }
        }
    }

    fn check_host_reads_stmt(&mut self, stmt: &ir::Stmt) {
        let mut reads = Vec::new();
        stmt.visit_exprs(&mut |e| collect_reads(e, &mut reads));
        self.report_stale_reads(&reads);
    }

    fn check_host_reads_expr(&mut self, e: &ir::Expr) {
        let mut reads = Vec::new();
        collect_reads(e, &mut reads);
        self.report_stale_reads(&reads);
    }

    fn report_stale_reads(&mut self, reads: &[usize]) {
        for &arr in reads {
            if let Some((span, kname)) = self.stale.get(&arr).cloned() {
                if self.emitted.insert((arr, span.start, span.end)) {
                    let aname = &self.f.array_params[arr].0;
                    self.diags.push(
                        Diagnostic::warning(
                            span,
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
    }
}

fn collect_reads(e: &ir::Expr, out: &mut Vec<usize>) {
    e.visit(&mut |e| {
        if let ir::Expr::Load { buf, .. } = e {
            out.push(buf.0 as usize);
        }
    });
}

fn clause_arrays(clauses: &[TypedDataClause]) -> BTreeSet<usize> {
    clauses
        .iter()
        .flat_map(|c| c.sections.iter().map(|s| s.buf.0 as usize))
        .collect()
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
        // Combined-directive copy clause flushes at the implicit region
        // exit: the later host read is fine.
        let d = lint(
            "void f(int n, double *x, double *y) {\n\
             double t;\n\
             #pragma acc parallel loop copyin(x[0:n]) copy(y[0:n])\n\
             for (int i = 0; i < n; i++) y[i] = x[i];\n\
             t = y[0];\n\
             }",
        );
        assert!(codes(&d).is_empty(), "{d:?}");
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
