//! Automatic `localaccess` inference (the static half of the
//! whole-program dataflow analysis).
//!
//! For one kernel × array, the goal is a *sound* `localaccess`
//! annotation: stride `S` and halos `left`/`right` such that iteration
//! `i` only touches `[S*i - left, S*(i+1) - 1 + right]`. The algorithm:
//!
//! 1. **Candidate strides** are harvested from the array's own index
//!    expressions: a `c*tid` term with constant `c > 0` suggests
//!    `Const(c)`; a `local * (linear-in-tid)` term whose local is never
//!    assigned in the body suggests the symbolic stride `Sym(local)`
//!    (e.g. `features[i*nfeatures + j]` suggests `nfeatures`).
//! 2. Each candidate is **validated** against the buffer's access sites
//!    decomposed under it by the interval prover of [`crate::range`]
//!    (`extract` collects each `(buffer, stride)` once and hands this
//!    module the [`BufSites`]; nothing here walks the kernel body
//!    again): *every* load and store site must decompose with the
//!    candidate as its effective thread coefficient, and stores (if
//!    any) must be provably inside the iteration's own partition —
//!    distribution is only proposed when the write-miss path would stay
//!    silent.
//! 3. The **window** is the union of the per-iteration read intervals:
//!    `left = max(-offset.lo)`, `right = max(offset.hi - (S-1))` over
//!    the load sites, each rounded *up* into the annotation vocabulary
//!    `{0, positive constant, m*S}` with `m` a positive integer
//!    (rounding up preserves soundness; the loader may over-fetch but
//!    never under-allocate).
//!
//! The result is expressed in the host frame — exactly the expressions
//! the frontend would have produced for a hand-written pragma — so
//! inference can be compared against (and substituted for) source
//! annotations structurally.

use std::collections::{BTreeMap, BTreeSet};

use acc_kernel_ir as ir;

use crate::affine::linear_in_tid;
use crate::config::LocalAccessParams;
use crate::range::{self, BufSites, StrideRef, SymBound};

/// A halo bound rounded into the annotation vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Halo {
    Zero,
    Const(i64),
    /// A positive multiple of the stride expression: `left(cols)` (1)
    /// or `left(2*cols)` (2) with `stride(cols)`.
    Strides(i64),
}

/// Infer a sound `localaccess` annotation for one kernel buffer from its
/// access sites collected under each candidate stride (in candidate
/// order), or `None` when no candidate admits one. `local_map` is the
/// host-local → kernel-local remap used to express the result in the
/// host frame.
pub(crate) fn infer_window(
    candidates: &[(StrideRef, BufSites)],
    local_map: &BTreeMap<u32, u32>,
) -> Option<LocalAccessParams> {
    candidates.iter().find_map(|(sr, sites)| {
        let (left, right) = try_window(sites, *sr)?;
        to_params(*sr, left, right, local_map)
    })
}

/// Every candidate stride under which *all* accesses to the buffer
/// provably stay inside the iteration's own partition `[S*i, S*(i+1) - 1]`
/// (no halo), expressed in the host frame. These are the strides the
/// inter-launch comm-elision analysis may treat as partition keys: a GPU
/// running iteration range `[lo, hi)` touches exactly `[S*lo, S*hi)`.
pub(crate) fn own_partition_strides(
    candidates: &[(StrideRef, BufSites)],
    local_map: &BTreeMap<u32, u32>,
) -> Vec<ir::Expr> {
    let mut out = Vec::new();
    for (sr, sites) in candidates {
        if range::accesses_proved_local(sites, *sr) {
            if let Some(e) = stride_expr(*sr, local_map) {
                if !out.contains(&e) {
                    out.push(e);
                }
            }
        }
    }
    out
}

/// Render an inferred annotation as the machine-applyable pragma line
/// `#pragma acc localaccess(name) stride(..) [left(..)] [right(..)]`.
/// Zero halos are omitted (they are the parse-time defaults, so the
/// rendered line round-trips to the same [`LocalAccessParams`]).
pub fn render_annotation(
    name: &str,
    p: &LocalAccessParams,
    locals: &[(String, ir::Ty)],
) -> String {
    let mut s = format!(
        "#pragma acc localaccess({name}) stride({})",
        render_expr(&p.stride, locals)
    );
    if !is_zero(&p.left) {
        s.push_str(&format!(" left({})", render_expr(&p.left, locals)));
    }
    if !is_zero(&p.right) {
        s.push_str(&format!(" right({})", render_expr(&p.right, locals)));
    }
    s
}

/// Render an inferred `reductiontoarray` annotation (from the
/// [`crate::depend`] matcher) as the machine-applyable pragma line. No
/// element range is emitted: the rangeless form covers the whole array,
/// exactly what the inferred rewrite assumes, so the line round-trips to
/// the identical compiled program.
pub fn render_reduction(name: &str, op: ir::RmwOp) -> String {
    let op = match op {
        ir::RmwOp::Add => "+",
        ir::RmwOp::Mul => "*",
        ir::RmwOp::Min => "min",
        ir::RmwOp::Max => "max",
    };
    format!("#pragma acc reductiontoarray({op}: {name})")
}

fn is_zero(e: &ir::Expr) -> bool {
    matches!(e, ir::Expr::Imm(ir::Value::I32(0)))
}

/// Render a host-frame annotation expression (an immediate or a named
/// host scalar — the only forms inference produces) as source text.
fn render_expr(e: &ir::Expr, locals: &[(String, ir::Ty)]) -> String {
    match e {
        ir::Expr::Imm(ir::Value::I32(v)) => v.to_string(),
        ir::Expr::Local(l) => locals
            .get(l.0 as usize)
            .map(|(n, _)| n.clone())
            .unwrap_or_else(|| format!("<local{}>", l.0)),
        // Halo expressions like `left(2*cols)` must round-trip to a
        // machine-applyable pragma.
        ir::Expr::Binary { op, a, b } => {
            let sym = match op {
                ir::BinOp::Add => "+",
                ir::BinOp::Sub => "-",
                ir::BinOp::Mul => "*",
                other => return format!("<{other:?}>"),
            };
            format!(
                "{}{sym}{}",
                render_expr(a, locals),
                render_expr(b, locals)
            )
        }
        ir::Expr::Cast { a, .. } => render_expr(a, locals),
        other => format!("<{other:?}>"),
    }
}

// ---------- candidate discovery ----------

/// Harvest candidate strides from the index expressions of every access
/// to `buf`, in deterministic traversal order.
pub(crate) fn candidate_strides(
    body: &[ir::Stmt],
    buf: ir::BufId,
    assigned: &BTreeSet<ir::LocalId>,
) -> Vec<StrideRef> {
    let mut out: Vec<StrideRef> = Vec::new();
    let mut push = |sr: StrideRef| {
        if !out.contains(&sr) {
            out.push(sr);
        }
    };
    for idx in index_exprs(body, buf) {
        let mut terms = Vec::new();
        range::flatten(idx, 1, &mut terms);
        for (_, t) in terms {
            if !range::contains_tid(t) {
                continue;
            }
            if let Some(lin) = linear_in_tid(t) {
                if lin.coeff > 0 {
                    push(StrideRef::Const(lin.coeff));
                }
            } else if let ir::Expr::Binary {
                op: ir::BinOp::Mul,
                a,
                b,
            } = range::strip_cast(t)
            {
                for (x, y) in [(a, b), (b, a)] {
                    if let ir::Expr::Local(l) = range::strip_cast(x) {
                        if !assigned.contains(l) && range::contains_tid(y) && linear_in_tid(y).is_some() {
                            push(StrideRef::Sym(*l));
                        }
                    }
                }
            }
        }
    }
    out
}

/// All load, store, and atomic index expressions targeting `buf`.
fn index_exprs(body: &[ir::Stmt], buf: ir::BufId) -> Vec<&ir::Expr> {
    let mut out = Vec::new();
    for s in body {
        s.visit(&mut |s| match s {
            ir::Stmt::Store { buf: b, idx, .. } | ir::Stmt::AtomicRmw { buf: b, idx, .. }
                if *b == buf =>
            {
                out.push(idx)
            }
            _ => {}
        });
        s.visit_exprs(&mut |e| {
            if let ir::Expr::Load { buf: b, idx } = e {
                if *b == buf {
                    out.push(idx);
                }
            }
        });
    }
    out
}

// ---------- validation & window derivation ----------

/// Validate candidate `sr` against the sites collected under it and
/// derive the rounded halos.
fn try_window(sites: &BufSites, sr: StrideRef) -> Option<(Halo, Halo)> {
    if sites.loads.is_empty() && sites.stores.is_empty() {
        return None;
    }
    // Every access site must decompose with the candidate as its
    // effective thread coefficient — a single opaque site (gather,
    // unbounded loop offset) sinks the candidate.
    for f in sites.stores.iter().chain(sites.loads.iter()) {
        if !f.as_ref()?.coeff_is_stride(sr) {
            return None;
        }
    }
    // Stores must stay inside the iteration's own partition: inference
    // only proposes distribution when the write-miss path stays silent.
    if !sites.stores.is_empty() && !range::stores_proved_local(sites, sr) {
        return None;
    }
    let mut left = SymBound::konst(0);
    let mut right = SymBound::konst(0);
    for f in sites.loads.iter().flatten() {
        left = sym_max(left, -f.offset.lo, sr)?;
        right = sym_max(right, f.offset.hi + SymBound { a: -1, k: 1 }, sr)?;
    }
    Some((round_halo(left, sr)?, round_halo(right, sr)?))
}

/// Least upper bound of two symbolic bounds, `None` when incomparable.
fn sym_max(a: SymBound, b: SymBound, sr: StrideRef) -> Option<SymBound> {
    if a.le(b, sr) {
        Some(b)
    } else if b.le(a, sr) {
        Some(a)
    } else {
        None
    }
}

/// Round a required halo *up* into the annotation vocabulary. With a
/// constant stride the bound is evaluated exactly; with a symbolic
/// stride it is a non-positive bound (`0`), a positive constant, or
/// rounded up to the least whole number of strides that covers it for
/// every `S >= 1`: `a*S + k <= m*S` needs `m >= a` and, at `S = 1`,
/// `m >= a + k`.
fn round_halo(b: SymBound, sr: StrideRef) -> Option<Halo> {
    match sr {
        StrideRef::Const(s) => {
            let v = b.a * s + b.k;
            Some(if v <= 0 { Halo::Zero } else { Halo::Const(v) })
        }
        StrideRef::Sym(_) => {
            if b.le(SymBound::konst(0), sr) {
                Some(Halo::Zero)
            } else if b.a == 0 {
                Some(Halo::Const(b.k))
            } else {
                Some(Halo::Strides(b.a.max(b.a.checked_add(b.k)?).max(1)))
            }
        }
    }
}

// ---------- host-frame expression assembly ----------

fn stride_expr(sr: StrideRef, local_map: &BTreeMap<u32, u32>) -> Option<ir::Expr> {
    match sr {
        StrideRef::Const(s) => {
            let v: i32 = s.try_into().ok()?;
            (v > 0).then(|| ir::Expr::imm_i32(v))
        }
        StrideRef::Sym(kid) => {
            // Invert the host-local → kernel-local remap.
            let fid = local_map
                .iter()
                .find(|(_, &k)| k == kid.0)
                .map(|(&f, _)| f)?;
            Some(ir::Expr::Local(ir::LocalId(fid)))
        }
    }
}

fn halo_expr(h: Halo, stride: &ir::Expr) -> Option<ir::Expr> {
    match h {
        Halo::Zero => Some(ir::Expr::imm_i32(0)),
        Halo::Const(k) => {
            let v: i32 = k.try_into().ok()?;
            Some(ir::Expr::imm_i32(v))
        }
        Halo::Strides(1) => Some(stride.clone()),
        // `m*S`, as the frontend lowers a hand-written `left(2*cols)`.
        Halo::Strides(m) => {
            let m: i32 = m.try_into().ok()?;
            Some(ir::Expr::mul(ir::Expr::imm_i32(m), stride.clone()))
        }
    }
}

fn to_params(
    sr: StrideRef,
    left: Halo,
    right: Halo,
    local_map: &BTreeMap<u32, u32>,
) -> Option<LocalAccessParams> {
    let stride = stride_expr(sr, local_map)?;
    let left = halo_expr(left, &stride)?;
    let right = halo_expr(right, &stride)?;
    Some(LocalAccessParams {
        stride,
        left,
        right,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Placement;
    use crate::{compile_source, CompileOptions};

    fn infer_opts() -> CompileOptions {
        CompileOptions {
            infer_localaccess: true,
            ..CompileOptions::proposal()
        }
    }

    fn cfg<'a>(
        p: &'a crate::CompiledProgram,
        k: usize,
        name: &str,
    ) -> &'a crate::ArrayConfig {
        p.kernels[k].configs.iter().find(|c| c.name == name).unwrap()
    }

    #[test]
    fn index_exprs_yields_each_site_once() -> Result<(), String> {
        let p = compile_source(
            "void f(int n, double *x, double *y) {\n\
             #pragma acc parallel loop copyin(x[0:n]) copy(y[0:n])\n\
             for (int i = 0; i < n - 1; i++) y[i] = x[i] + x[i + 1];\n\
             }",
            "f",
            &CompileOptions::proposal(),
        )?;
        let k = &p.kernels[0];
        let x = k.configs.iter().position(|c| c.name == "x").ok_or("no `x`")?;
        let sites = index_exprs(&k.kernel.body, ir::BufId(x as u32));
        assert_eq!(sites.len(), 2, "{sites:?}");
        Ok(())
    }

    #[test]
    fn infers_unit_stride_and_distributes() {
        let p = compile_source(
            "void f(int n, double *x, double *y) {\n\
             #pragma acc parallel loop copyin(x[0:n]) copy(y[0:n])\n\
             for (int i = 0; i < n; i++) y[i] = x[i] * 2.0;\n\
             }",
            "f",
            &infer_opts(),
        )
        .unwrap();
        for name in ["x", "y"] {
            let c = cfg(&p, 0, name);
            assert_eq!(c.placement, Placement::Distributed, "{name}");
            assert!(c.inferred_used, "{name}");
            let la = c.localaccess.as_ref().unwrap();
            assert_eq!(la.stride, ir::Expr::imm_i32(1));
            assert_eq!(la.left, ir::Expr::imm_i32(0));
            assert_eq!(la.right, ir::Expr::imm_i32(0));
        }
        assert!(cfg(&p, 0, "y").miss_check_elided);
    }

    #[test]
    fn infers_halo_from_stencil_reads() {
        let p = compile_source(
            "void f(int n, double *x, double *y) {\n\
             #pragma acc parallel loop copyin(x[0:n]) copy(y[0:n])\n\
             for (int i = 1; i < n - 1; i++) y[i] = x[i - 1] + x[i + 1];\n\
             }",
            "f",
            &infer_opts(),
        )
        .unwrap();
        let la = cfg(&p, 0, "x").localaccess.clone().unwrap();
        assert_eq!(la.stride, ir::Expr::imm_i32(1));
        assert_eq!(la.left, ir::Expr::imm_i32(1));
        assert_eq!(la.right, ir::Expr::imm_i32(1));
    }

    #[test]
    fn infers_symbolic_stride_from_inner_loop() {
        let p = compile_source(
            "void f(int n, int nf, double *x, double *y) {\n\
             #pragma acc parallel loop copyin(x[0:n]) copy(y[0:n])\n\
             for (int i = 0; i < n; i++) {\n\
             double s = 0.0;\n\
             for (int j = 0; j < nf; j++) s += x[i*nf + j];\n\
             y[i] = s;\n\
             }\n\
             }",
            "f",
            &infer_opts(),
        )
        .unwrap();
        let la = cfg(&p, 0, "x").localaccess.clone().unwrap();
        // `nf` is host local slot 1.
        assert_eq!(la.stride, ir::Expr::Local(ir::LocalId(1)));
        assert_eq!(la.left, ir::Expr::imm_i32(0));
        assert_eq!(la.right, ir::Expr::imm_i32(0));
    }

    #[test]
    fn rounds_symbolic_halo_up_to_stride() {
        // Row stencil: reads of rows i-1 and i+1 need left/right of one
        // whole stride, expressed as the stride symbol itself.
        let p = compile_source(
            "void f(int rows, int cols, double *a, double *b) {\n\
             #pragma acc parallel loop copyin(a[0:rows*cols]) copy(b[0:rows*cols])\n\
             for (int i = 1; i < rows - 1; i++) {\n\
             for (int j = 0; j < cols; j++) {\n\
             b[i*cols + j] = a[(i-1)*cols + j] + a[(i+1)*cols + j];\n\
             }\n\
             }\n\
             }",
            "f",
            &infer_opts(),
        )
        .unwrap();
        let la = cfg(&p, 0, "a").localaccess.clone().unwrap();
        // `cols` is host local slot 1.
        assert_eq!(la.stride, ir::Expr::Local(ir::LocalId(1)));
        assert_eq!(la.left, ir::Expr::Local(ir::LocalId(1)));
        assert_eq!(la.right, ir::Expr::Local(ir::LocalId(1)));
        let lb = cfg(&p, 0, "b").localaccess.clone().unwrap();
        assert_eq!(lb.stride, ir::Expr::Local(ir::LocalId(1)));
        assert_eq!(lb.left, ir::Expr::imm_i32(0));
    }

    #[test]
    fn rounds_symbolic_halo_up_to_whole_strides() {
        let sym = StrideRef::Sym(ir::LocalId(0));
        let strides = |a, k| round_halo(SymBound { a, k }, sym);
        assert_eq!(strides(2, 0), Some(Halo::Strides(2)));
        assert_eq!(strides(3, 0), Some(Halo::Strides(3)));
        // Not a multiple: `S + 1` exceeds one stride and, at `S = 1`,
        // equals two; `2*S - 1` fits two.
        assert_eq!(strides(1, 1), Some(Halo::Strides(2)));
        assert_eq!(strides(2, -1), Some(Halo::Strides(2)));
        assert_eq!(strides(2, 3), Some(Halo::Strides(5)));
        let cols = ir::Expr::Local(ir::LocalId(1));
        assert_eq!(halo_expr(Halo::Strides(1), &cols), Some(cols.clone()));
        assert_eq!(
            halo_expr(Halo::Strides(2), &cols),
            Some(ir::Expr::mul(ir::Expr::imm_i32(2), cols.clone()))
        );

        // End to end: a sweep reading two rows back derives the deep
        // stencil's hand annotation, `left(2*cols) right(cols)`.
        let p = compile_source(
            "void f(int rows, int cols, double *a, double *b) {\n\
             #pragma acc parallel loop copyin(a[0:rows*cols]) copy(b[0:rows*cols])\n\
             for (int i = 2; i < rows - 1; i++) {\n\
             for (int j = 0; j < cols; j++) {\n\
             b[i*cols + j] = a[(i-2)*cols + j] + a[(i+1)*cols + j];\n\
             }\n\
             }\n\
             }",
            "f",
            &infer_opts(),
        )
        .unwrap();
        let la = cfg(&p, 0, "a").localaccess.clone().unwrap();
        assert_eq!(la.stride, cols);
        assert_eq!(la.left, ir::Expr::mul(ir::Expr::imm_i32(2), cols.clone()));
        assert_eq!(la.right, cols);
    }

    #[test]
    fn gather_defeats_inference_for_target_only() {
        let p = compile_source(
            "void f(int n, int *m, double *y) {\n\
             #pragma acc parallel loop copyin(m[0:n]) copy(y[0:n])\n\
             for (int i = 0; i < n; i++) y[m[i]] = 1.0;\n\
             }",
            "f",
            &infer_opts(),
        )
        .unwrap();
        // `y` is scattered through `m`: no annotation, stays replicated.
        let cy = cfg(&p, 0, "y");
        assert!(cy.inferred.is_none());
        assert_eq!(cy.placement, Placement::Replicated);
        // `m` itself is read coalesced: inference distributes it.
        assert!(cfg(&p, 0, "m").inferred.is_some());
    }

    #[test]
    fn broadcast_reads_are_not_annotated() {
        let p = compile_source(
            "void f(int n, double *c, double *y) {\n\
             #pragma acc parallel loop copyin(c[0:4]) copy(y[0:n])\n\
             for (int i = 0; i < n; i++) y[i] = c[0] + c[3];\n\
             }",
            "f",
            &infer_opts(),
        )
        .unwrap();
        assert!(cfg(&p, 0, "c").inferred.is_none());
    }

    #[test]
    fn hand_annotation_wins_over_inference() {
        // Hand window is wider than needed; with inference on, the hand
        // annotation must still be honored verbatim.
        let p = compile_source(
            "void f(int n, double *x, double *y) {\n\
             #pragma acc localaccess(x) stride(1) left(2) right(2)\n\
             #pragma acc parallel loop copyin(x[0:n]) copy(y[0:n])\n\
             for (int i = 0; i < n; i++) y[i] = x[i];\n\
             }",
            "f",
            &infer_opts(),
        )
        .unwrap();
        let cx = cfg(&p, 0, "x");
        assert!(!cx.inferred_used);
        assert_eq!(cx.localaccess.as_ref().unwrap().left, ir::Expr::imm_i32(2));
        // Inference still ran and derived the tight window.
        assert_eq!(
            cx.inferred.as_ref().unwrap().left,
            ir::Expr::imm_i32(0)
        );
    }

    #[test]
    fn inference_off_by_default_keeps_replication() {
        let p = compile_source(
            "void f(int n, double *x, double *y) {\n\
             #pragma acc parallel loop copyin(x[0:n]) copy(y[0:n])\n\
             for (int i = 0; i < n; i++) y[i] = x[i];\n\
             }",
            "f",
            &CompileOptions::proposal(),
        )
        .unwrap();
        let cy = cfg(&p, 0, "y");
        assert_eq!(cy.placement, Placement::Replicated);
        assert!(!cy.inferred_used);
        // ... but the inferred parameters are still recorded for lint.
        assert!(cy.inferred.is_some());
    }

    #[test]
    fn strided_const_reads_get_wide_stride() {
        let p = compile_source(
            "void f(int n, double *x, double *y) {\n\
             #pragma acc parallel loop copyin(x[0:3*n]) copy(y[0:n])\n\
             for (int i = 0; i < n; i++) y[i] = x[3*i] + x[3*i + 2];\n\
             }",
            "f",
            &infer_opts(),
        )
        .unwrap();
        let la = cfg(&p, 0, "x").localaccess.clone().unwrap();
        assert_eq!(la.stride, ir::Expr::imm_i32(3));
        assert_eq!(la.left, ir::Expr::imm_i32(0));
        assert_eq!(la.right, ir::Expr::imm_i32(0));
    }

    #[test]
    fn renders_round_trippable_pragma() {
        let locals = vec![
            ("n".to_string(), ir::Ty::I32),
            ("cols".to_string(), ir::Ty::I32),
        ];
        let p = LocalAccessParams {
            stride: ir::Expr::Local(ir::LocalId(1)),
            left: ir::Expr::Local(ir::LocalId(1)),
            right: ir::Expr::imm_i32(0),
        };
        assert_eq!(
            render_annotation("a", &p, &locals),
            "#pragma acc localaccess(a) stride(cols) left(cols)"
        );
        let q = LocalAccessParams {
            stride: ir::Expr::imm_i32(1),
            left: ir::Expr::imm_i32(0),
            right: ir::Expr::imm_i32(1),
        };
        assert_eq!(
            render_annotation("row_ptr", &q, &locals),
            "#pragma acc localaccess(row_ptr) stride(1) right(1)"
        );
    }
}
