//! Kernel extraction: turn one [`ParallelLoopNode`] into a
//! [`CompiledKernel`].
//!
//! This is §IV-B2/B3/B4 of the paper in one pass:
//!
//! * the loop body becomes the kernel body, with the induction variable
//!   replaced by the thread index;
//! * host scalars the body reads are captured as launch parameters
//!   (OpenACC firstprivate semantics) and copied into kernel locals in a
//!   generated prologue;
//! * per-array placement is decided (replica / distribution /
//!   reduction-private) and the matching instrumentation is applied to
//!   stores: dirty-bit marks on replicated arrays, miss checks on
//!   distributed arrays unless statically elided;
//! * each array's worst read and write access class is recorded for the
//!   runtime's memory pricing, and the 2-D layout transform is applied
//!   where legal (read-only, all-affine, `localaccess` arrays).

use std::collections::{BTreeMap, BTreeSet};

use acc_kernel_ir as ir;
use acc_minic::hir::{ParallelLoopNode, TypedFunction};

use crate::analysis::{self, AccessMode};
use crate::config::{ArrayConfig, ArrayLint, ElisionProof, LocalAccessParams, Placement};
use crate::{depend, infer, lint, range, CompileError, CompileOptions, CompiledKernel};

/// The decomposed access sites of one kernel buffer, collected at most
/// once per stride domain and read by every analysis of that buffer:
/// inference, the elision prover, the window check and the dependence
/// verdict.
struct SiteCache<'a> {
    body: &'a [ir::Stmt],
    n_locals: usize,
    buf: ir::BufId,
    by_stride: Vec<(range::StrideRef, range::BufSites)>,
}

impl SiteCache<'_> {
    fn get(&mut self, sr: range::StrideRef) -> &range::BufSites {
        let at = match self.by_stride.iter().position(|(s, _)| *s == sr) {
            Some(at) => at,
            None => {
                let sites = range::collect(self.body, self.n_locals, self.buf, sr);
                self.by_stride.push((sr, sites));
                self.by_stride.len() - 1
            }
        };
        &self.by_stride[at].1
    }
}

/// Extract and instrument the kernel for one parallel loop.
/// `written[a]` says whether the enclosing function writes program array
/// `a` anywhere ([`depend::arrays_written_in_function`]).
pub fn extract_kernel(
    node: &ParallelLoopNode,
    f: &TypedFunction,
    options: &CompileOptions,
    written: &[bool],
) -> Result<CompiledKernel, CompileError> {
    // ---- discover used locals and buffers ----
    let mut used_locals: BTreeMap<u32, bool> = BTreeMap::new(); // id -> is_read
    let mut used_bufs: BTreeMap<u32, ()> = BTreeMap::new();
    scan_block(&node.body, node.var, &mut used_locals, &mut used_bufs);

    // ---- dense remaps ----
    let local_map: BTreeMap<u32, u32> = used_locals
        .keys()
        .enumerate()
        .map(|(i, id)| (*id, i as u32))
        .collect();
    let buf_map_fwd: BTreeMap<u32, u32> = used_bufs
        .keys()
        .enumerate()
        .map(|(i, id)| (*id, i as u32))
        .collect();
    let buf_map: Vec<usize> = used_bufs.keys().map(|id| *id as usize).collect();

    // ---- captured scalar params (locals read anywhere in the body) ----
    let mut params = Vec::new();
    let mut param_src = Vec::new();
    let mut prologue = Vec::new();
    for (&fid, &is_read) in &used_locals {
        if !is_read {
            continue;
        }
        let (name, ty) = &f.locals[fid as usize];
        let pid = ir::ParamId(params.len() as u32);
        // Sibling scopes may declare the same name twice; only the later
        // of two colliding captures is renamed, so kernels without a
        // collision keep their parameter names (and IR hashes).
        let mut cap = format!("{name}$cap");
        if params.iter().any(|p: &ir::ScalarParam| p.name == cap) {
            cap = format!("{name}$cap{fid}");
        }
        params.push(ir::ScalarParam { name: cap, ty: *ty });
        param_src.push(ir::LocalId(fid));
        prologue.push(ir::Stmt::Assign {
            local: ir::LocalId(local_map[&fid]),
            value: ir::Expr::Param(pid),
        });
    }

    // ---- remap body ----
    let mut body: Vec<ir::Stmt> = node
        .body
        .iter()
        .map(|s| remap_stmt(s, node.var, &local_map, &buf_map_fwd))
        .collect();

    // ---- reductiontoarray inference (rewrites matched stores into the
    // exact atomic-RMW form the annotated source lowers to, *before* the
    // access analysis so every downstream decision sees reduction IR) ----
    let mut inferred_reds: Vec<Option<ir::RmwOp>> = vec![None; buf_map.len()];
    if options.honor_extensions && options.infer_reductions {
        for (kbuf, &arr) in buf_map.iter().enumerate() {
            let annotated = node
                .array_reductions
                .iter()
                .any(|r| r.buf.0 as usize == arr)
                || node.localaccess.iter().any(|l| l.buf.0 as usize == arr);
            if !annotated {
                inferred_reds[kbuf] = depend::infer_reduction(&mut body, ir::BufId(kbuf as u32));
            }
        }
    }

    // ---- access analysis (on the remapped body) ----
    let usage = analysis::analyze_body(&body, buf_map.len());
    let assigned = range::assigned_locals(&body);
    // A monotone bound array is only trusted when the function never
    // writes it.
    let ptr_unwritten: Vec<bool> = buf_map.iter().map(|&arr| !written[arr]).collect();

    // ---- placement decisions & array configs ----
    let honor = options.honor_extensions;
    let mut configs = Vec::new();
    for (kbuf, &arr) in buf_map.iter().enumerate() {
        let kb = ir::BufId(kbuf as u32);
        let u = &usage[kbuf];
        let mode = u.mode().unwrap_or(AccessMode::Read);
        let la = if honor {
            node.localaccess
                .iter()
                .find(|l| l.buf.0 as usize == arr)
                .map(|l| LocalAccessParams {
                    stride: l.stride.clone(),
                    left: l.left.clone(),
                    right: l.right.clone(),
                })
        } else {
            None
        };
        let reduction_op = node
            .array_reductions
            .iter()
            .find(|r| r.buf.0 as usize == arr)
            .map(|r| r.op)
            .or(inferred_reds[kbuf])
            .filter(|_| honor);
        let mut sites = SiteCache {
            body: &body,
            n_locals: local_map.len(),
            buf: kb,
            by_stride: Vec::new(),
        };
        // Whole-program dataflow, static half: always derive what the
        // analysis *would* annotate (feeds ACC-I001 and the `--infer`
        // golden checks), and the partition-key strides the comm-elision
        // analysis may rely on. Consume the inferred annotation only
        // when asked and the source has none.
        if honor && reduction_op.is_none() && !u.atomics {
            for sr in infer::candidate_strides(&body, kb, &assigned) {
                sites.get(sr);
            }
        }
        let inferred = infer::infer_window(&sites.by_stride, &local_map);
        let own_strides = infer::own_partition_strides(&sites.by_stride, &local_map);
        let inferred_used = options.infer_localaccess && la.is_none() && inferred.is_some();
        let la = if inferred_used { inferred.clone() } else { la };
        let placement = match reduction_op {
            Some(op) => Placement::ReductionPrivate(op),
            None if la.is_some() => Placement::Distributed,
            None => Placement::Replicated,
        };

        // Miss-check elision (§IV-D2): the interval/symbolic prover, for
        // literal and runtime strides and nested-loop offsets alike. The
        // same decomposition feeds the `localaccess` window check
        // (ACC-W003).
        let declared = la.as_ref().and_then(|p| {
            let sr = stride_ref(&p.stride, &local_map, &assigned)?;
            Some((p, sr))
        });
        let mut miss_check_elided = !u.writes; // nothing to check
        let mut elision = ElisionProof::NotApplicable;
        let mut window = range::WindowCheck::default();
        let mut halo_windows = (0, 0);
        if placement == Placement::Distributed {
            (miss_check_elided, elision) = if !u.writes {
                (false, ElisionProof::NoStores)
            } else if declared.is_some_and(|(_, sr)| range::stores_proved_local(sites.get(sr), sr))
            {
                (true, ElisionProof::Interval)
            } else {
                (false, ElisionProof::Unproven)
            };
        }
        if let Some((p, sr)) = declared {
            let left = range::window_bound(&p.left, &p.stride);
            let right = range::window_bound(&p.right, &p.stride);
            // Declared-window audit of the loads (ACC-W003).
            window = range::check_load_windows(sites.get(sr), sr, left, right);
            // The declared halo measured in stride windows: the currency
            // the carried-distance verdict is compared against (ACC-I003
            // vs ACC-W006, wavefront eligibility, the Full-sanitize claim).
            halo_windows = (range::halo_windows(left, sr), range::halo_windows(right, sr));
        }
        // Cross-GPU dependence verdict (ACC-W005/W006, and the monotone
        // indirect-window proof), in the array's own stride domain.
        let dom = declared.map_or(range::StrideRef::Const(1), |(_, sr)| sr);
        let dep = depend::analyze_buf(&body, kb, dom, sites.get(dom), &assigned, &ptr_unwritten);
        let monotone_proof =
            dep.verdict == depend::DependVerdict::Disjoint(depend::DisjointProof::MonotoneWindow);
        // The store-hazard scan (ACC-W001 / ACC-W002).
        let (overlap_stores, unannotated_rmw) =
            if matches!(placement, Placement::ReductionPrivate(_)) || monotone_proof {
                // Reduction placement and a monotone disjointness proof
                // both subsume the heuristic overlap counts.
                (0, 0)
            } else {
                lint::store_hazards(&body, kb, &assigned)
            };
        let alint = ArrayLint {
            elision,
            window_checked: window.checked,
            window_violations: window.violations,
            overlap_stores,
            unannotated_rmw,
            verdict: dep.verdict,
            halo_windows,
        };

        // Layout transform: read-only + localaccess + all loads affine.
        let layout_transformed = options.layout_transform
            && la.is_some()
            && mode == AccessMode::Read
            && u.all_loads_affine()
            && u.load_sites.iter().any(|p| {
                matches!(
                    p,
                    crate::affine::AccessPattern::Strided(_)
                        | crate::affine::AccessPattern::StridedDyn
                )
            });

        configs.push(ArrayConfig {
            array: arr,
            name: f.array_params[arr].0.clone(),
            mode,
            placement,
            localaccess: la,
            inferred,
            inferred_used,
            own_strides,
            miss_check_elided,
            layout_transformed,
            read_pattern: u.read_pattern(),
            write_pattern: u.write_pattern(),
            inferred_reduction: inferred_reds[kbuf],
            monotone_window: dep.monotone.map(|m| crate::config::MonotoneWindowInfo {
                ptr_array: buf_map[m.ptr.0 as usize],
                coeff: m.coeff,
                lo_off: m.lo_off,
                span: m.span,
            }),
            lint: alint,
        });
    }

    // ---- instrumentation ----
    if options.instrument {
        for (kbuf, cfg) in configs.iter().enumerate() {
            let kbuf = kbuf as u32;
            match cfg.placement {
                Placement::Replicated if cfg.mode.writes() => {
                    set_store_flags(&mut body, kbuf, true, false);
                }
                Placement::Distributed if cfg.mode.writes() && !cfg.miss_check_elided => {
                    set_store_flags(&mut body, kbuf, false, true);
                }
                _ => {}
            }
        }
    }

    // ---- assemble ----
    let kernel_locals: Vec<ir::Ty> = used_locals
        .keys()
        .map(|id| f.locals[*id as usize].1)
        .collect();
    let bufs: Vec<ir::BufParam> = buf_map
        .iter()
        .enumerate()
        .map(|(kbuf, &arr)| {
            let u = &usage[kbuf];
            let access = if u.atomics {
                ir::BufAccess::Reduction(
                    node.array_reductions
                        .iter()
                        .find(|r| r.buf.0 as usize == arr)
                        .map(|r| r.op)
                        .or(inferred_reds[kbuf])
                        .unwrap_or(ir::RmwOp::Add),
                )
            } else {
                match u.mode().unwrap_or(AccessMode::Read) {
                    AccessMode::Read => ir::BufAccess::Read,
                    AccessMode::Write => ir::BufAccess::Write,
                    AccessMode::ReadWrite => ir::BufAccess::ReadWrite,
                }
            };
            ir::BufParam {
                name: f.array_params[arr].0.clone(),
                ty: f.array_params[arr].1,
                access,
            }
        })
        .collect();

    let reductions: Vec<ir::ScalarReduction> = node
        .reductions
        .iter()
        .map(|r| ir::ScalarReduction {
            var: r.name.clone(),
            ty: r.ty,
            op: r.op,
        })
        .collect();
    let red_targets: Vec<ir::LocalId> = node.reductions.iter().map(|r| r.local).collect();

    let mut full_body = prologue;
    full_body.extend(body);

    let kernel = ir::Kernel {
        name: node.name.clone(),
        params,
        bufs,
        locals: kernel_locals,
        reductions,
        body: full_body,
    };
    kernel.validate().map_err(|e| CompileError::InvalidKernel {
        kernel: node.name.clone(),
        span: node.span,
        reason: e.to_string(),
    })?;

    Ok(CompiledKernel {
        kernel,
        configs,
        param_src,
        lo: node.lo.clone(),
        hi: node.hi.clone(),
        red_targets,
        span: node.span,
    })
}

fn const_i32(e: &ir::Expr) -> Option<i32> {
    match ir::fold::fold_expr(e.clone()) {
        ir::Expr::Imm(ir::Value::I32(v)) => Some(v),
        _ => None,
    }
}

/// Resolve the `localaccess` stride (a host-frame expression) to a stride
/// reference usable inside the remapped kernel body: a positive constant,
/// or a kernel local that is never assigned in the body (so its symbolic
/// identity is stable).
fn stride_ref(
    stride: &ir::Expr,
    local_map: &BTreeMap<u32, u32>,
    assigned: &BTreeSet<ir::LocalId>,
) -> Option<range::StrideRef> {
    if let Some(s) = const_i32(stride) {
        return (s > 0).then_some(range::StrideRef::Const(s as i64));
    }
    let mut e = stride;
    while let ir::Expr::Cast { ty: ir::Ty::I32, a } = e {
        e = a;
    }
    if let ir::Expr::Local(fid) = e {
        let kid = ir::LocalId(*local_map.get(&fid.0)?);
        if !assigned.contains(&kid) {
            return Some(range::StrideRef::Sym(kid));
        }
    }
    None
}

// ---------- body scanning and remapping ----------

fn scan_block(
    stmts: &[ir::Stmt],
    loop_var: ir::LocalId,
    locals: &mut BTreeMap<u32, bool>,
    bufs: &mut BTreeMap<u32, ()>,
) {
    for s in stmts {
        // Reads (all expressions).
        s.visit_exprs(&mut |e| match e {
            ir::Expr::Local(l) if *l != loop_var => {
                locals.insert(l.0, true);
            }
            ir::Expr::Load { buf, .. } => {
                bufs.insert(buf.0, ());
            }
            _ => {}
        });
        // Writes.
        s.visit(&mut |s| match s {
            ir::Stmt::Assign { local, .. } if *local != loop_var => {
                locals.entry(local.0).or_insert(false);
            }
            ir::Stmt::Store { buf, .. } | ir::Stmt::AtomicRmw { buf, .. } => {
                bufs.insert(buf.0, ());
            }
            _ => {}
        });
    }
}

fn remap_expr(
    e: &ir::Expr,
    loop_var: ir::LocalId,
    locals: &BTreeMap<u32, u32>,
    bufs: &BTreeMap<u32, u32>,
) -> ir::Expr {
    e.clone().map(&mut |e| match e {
        ir::Expr::Local(l) if l == loop_var => ir::Expr::ThreadIdx,
        ir::Expr::Local(l) => ir::Expr::Local(ir::LocalId(locals[&l.0])),
        ir::Expr::Load { buf, idx } => ir::Expr::Load {
            buf: ir::BufId(bufs[&buf.0]),
            idx,
        },
        other => other,
    })
}

fn remap_stmt(
    s: &ir::Stmt,
    loop_var: ir::LocalId,
    locals: &BTreeMap<u32, u32>,
    bufs: &BTreeMap<u32, u32>,
) -> ir::Stmt {
    let re = |e: &ir::Expr| remap_expr(e, loop_var, locals, bufs);
    match s {
        ir::Stmt::Assign { local, value } => ir::Stmt::Assign {
            local: ir::LocalId(locals[&local.0]),
            value: re(value),
        },
        ir::Stmt::Store {
            buf,
            idx,
            value,
            dirty,
            checked,
        } => ir::Stmt::Store {
            buf: ir::BufId(bufs[&buf.0]),
            idx: re(idx),
            value: re(value),
            dirty: *dirty,
            checked: *checked,
        },
        ir::Stmt::AtomicRmw {
            buf,
            idx,
            op,
            value,
        } => ir::Stmt::AtomicRmw {
            buf: ir::BufId(bufs[&buf.0]),
            idx: re(idx),
            op: *op,
            value: re(value),
        },
        ir::Stmt::ReduceScalar { slot, op, value } => ir::Stmt::ReduceScalar {
            slot: *slot,
            op: *op,
            value: re(value),
        },
        ir::Stmt::If { cond, then_, else_ } => ir::Stmt::If {
            cond: re(cond),
            then_: then_
                .iter()
                .map(|s| remap_stmt(s, loop_var, locals, bufs))
                .collect(),
            else_: else_
                .iter()
                .map(|s| remap_stmt(s, loop_var, locals, bufs))
                .collect(),
        },
        ir::Stmt::While { cond, body } => ir::Stmt::While {
            cond: re(cond),
            body: body
                .iter()
                .map(|s| remap_stmt(s, loop_var, locals, bufs))
                .collect(),
        },
        ir::Stmt::Break => ir::Stmt::Break,
        ir::Stmt::Continue => ir::Stmt::Continue,
    }
}

/// Set the instrumentation flags on every store to kernel buffer `kbuf`.
pub(crate) fn set_store_flags(stmts: &mut [ir::Stmt], kbuf: u32, dirty: bool, checked: bool) {
    for s in stmts {
        match s {
            ir::Stmt::Store {
                buf,
                dirty: d,
                checked: c,
                ..
            } if buf.0 == kbuf => {
                *d = dirty;
                *c = checked;
            }
            ir::Stmt::If { then_, else_, .. } => {
                set_store_flags(then_, kbuf, dirty, checked);
                set_store_flags(else_, kbuf, dirty, checked);
            }
            ir::Stmt::While { body, .. } => set_store_flags(body, kbuf, dirty, checked),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affine::AccessPattern;
    use crate::compile_source;

    #[test]
    fn extracts_saxpy_kernel() {
        let p = compile_source(
            "void saxpy(int n, float a, float *x, float *y) {\n\
             #pragma acc parallel loop copyin(x[0:n]) copy(y[0:n])\n\
             for (int i = 0; i < n; i++) y[i] = a * x[i] + y[i];\n\
             }",
            "saxpy",
            &CompileOptions::proposal(),
        )
        .unwrap();
        assert_eq!(p.kernels.len(), 1);
        let k = &p.kernels[0];
        // `a` is captured (`n` only appears in the bound, not the body).
        assert_eq!(k.kernel.params.len(), 1);
        assert_eq!(k.kernel.params[0].name, "a$cap");
        assert_eq!(k.kernel.bufs.len(), 2);
        assert_eq!(k.configs.iter().map(|c| c.array).collect::<Vec<_>>(), vec![0, 1]);
        // No localaccess → both replicated; y written → dirty-marked.
        assert!(matches!(k.configs[1].placement, Placement::Replicated));
        let mut saw_dirty = false;
        for s in &k.kernel.body {
            s.visit(&mut |s| {
                if let ir::Stmt::Store { dirty, .. } = s {
                    saw_dirty |= dirty;
                }
            });
        }
        assert!(saw_dirty);
    }

    #[test]
    fn localaccess_makes_distribution_and_elides_checks() {
        let p = compile_source(
            "void f(int n, double *x, double *y) {\n\
             #pragma acc localaccess(x) stride(1)\n\
             #pragma acc localaccess(y) stride(1)\n\
             #pragma acc parallel loop\n\
             for (int i = 0; i < n; i++) y[i] = x[i] * 2.0;\n\
             }",
            "f",
            &CompileOptions::proposal(),
        )
        .unwrap();
        let k = &p.kernels[0];
        let cy = k.configs.iter().find(|c| c.name == "y").unwrap();
        assert!(matches!(cy.placement, Placement::Distributed));
        assert!(cy.miss_check_elided);
        // No checked stores in the body.
        let mut saw_checked = false;
        for s in &k.kernel.body {
            s.visit(&mut |s| {
                if let ir::Stmt::Store { checked, .. } = s {
                    saw_checked |= checked;
                }
            });
        }
        assert!(!saw_checked);
    }

    #[test]
    fn irregular_write_to_distributed_gets_checked() {
        let p = compile_source(
            "void f(int n, int *m, double *y) {\n\
             #pragma acc localaccess(y) stride(1)\n\
             #pragma acc parallel loop\n\
             for (int i = 0; i < n; i++) y[m[i]] = 1.0;\n\
             }",
            "f",
            &CompileOptions::proposal(),
        )
        .unwrap();
        let k = &p.kernels[0];
        let cy = k.configs.iter().find(|c| c.name == "y").unwrap();
        assert!(!cy.miss_check_elided);
        let mut saw_checked = false;
        for s in &k.kernel.body {
            s.visit(&mut |s| {
                if let ir::Stmt::Store { checked, .. } = s {
                    saw_checked |= checked;
                }
            });
        }
        assert!(saw_checked);
    }

    #[test]
    fn pgi_mode_ignores_extensions() {
        let p = compile_source(
            "void f(int n, double *x, double *y) {\n\
             #pragma acc localaccess(x) stride(1)\n\
             #pragma acc parallel loop\n\
             for (int i = 0; i < n; i++) y[i] = x[i];\n\
             }",
            "f",
            &CompileOptions::pgi_like(),
        )
        .unwrap();
        for c in &p.kernels[0].configs {
            assert!(matches!(c.placement, Placement::Replicated));
            assert!(c.localaccess.is_none());
        }
        assert_eq!(p.localaccess_ratio(), (0, 2));
    }

    #[test]
    fn cuda_expert_mode_has_no_instrumentation() {
        let p = compile_source(
            "void f(int n, int *m, double *y) {\n\
             #pragma acc parallel loop\n\
             for (int i = 0; i < n; i++) y[m[i]] = 1.0;\n\
             }",
            "f",
            &CompileOptions::cuda_expert(),
        )
        .unwrap();
        for s in &p.kernels[0].kernel.body {
            s.visit(&mut |s| {
                if let ir::Stmt::Store { dirty, checked, .. } = s {
                    assert!(!dirty && !checked);
                }
            });
        }
    }

    #[test]
    fn layout_transform_applies_to_strided_readonly() {
        let src = "void f(int n, double *x, double *y) {\n\
             #pragma acc localaccess(x) stride(8)\n\
             #pragma acc localaccess(y) stride(1)\n\
             #pragma acc parallel loop\n\
             for (int i = 0; i < n; i++) {\n\
             double s = 0.0;\n\
             for (int j = 0; j < 8; j++) s += x[i*8+j];\n\
             y[i] = s;\n\
             }\n\
             }";
        let with = compile_source(src, "f", &CompileOptions::proposal()).unwrap();
        let without = compile_source(
            src,
            "f",
            &CompileOptions {
                layout_transform: false,
                ..CompileOptions::proposal()
            },
        )
        .unwrap();
        // `x` is the first array the kernel uses.
        let x = |p: &crate::CompiledProgram| p.kernels[0].configs[0].clone();
        assert_eq!(x(&with).name, "x");
        assert!(x(&with).layout_transformed);
        assert!(!x(&without).layout_transformed);
        // The class the runtime prices when the transform is off.
        assert_eq!(x(&with).read_pattern, AccessPattern::Strided(8));
        assert_eq!(x(&without).read_pattern, x(&with).read_pattern);
    }

    #[test]
    fn reduction_kernel_carries_slots_and_targets() {
        let p = compile_source(
            "void f(int n, double *x, double s) {\n\
             #pragma acc parallel loop reduction(+:s)\n\
             for (int i = 0; i < n; i++) s += x[i];\n\
             }",
            "f",
            &CompileOptions::proposal(),
        )
        .unwrap();
        let k = &p.kernels[0];
        assert_eq!(k.kernel.reductions.len(), 1);
        assert_eq!(k.red_targets.len(), 1);
        // `s` is the reduction accumulator, not a captured parameter.
        assert!(k.kernel.params.iter().all(|p| p.name != "s$cap"));
    }

    #[test]
    fn reductiontoarray_buffer_is_reduction_private() {
        let p = compile_source(
            "void f(int n, int *m, double *e, double *v) {\n\
             #pragma acc parallel loop\n\
             for (int i = 0; i < n; i++) {\n\
             #pragma acc reductiontoarray(+: e[8])\n\
             e[m[i]] += v[i];\n\
             }\n\
             }",
            "f",
            &CompileOptions::proposal(),
        )
        .unwrap();
        let ce = p.kernels[0].configs.iter().find(|c| c.name == "e").unwrap();
        assert!(matches!(
            ce.placement,
            Placement::ReductionPrivate(ir::RmwOp::Add)
        ));
        assert_eq!(
            p.kernels[0]
                .kernel
                .bufs
                .iter()
                .find(|b| b.name == "e")
                .unwrap()
                .access,
            ir::BufAccess::Reduction(ir::RmwOp::Add)
        );
    }

    #[test]
    fn captured_params_map_to_host_locals() {
        let p = compile_source(
            "void f(int n, int k, double *x) {\n\
             #pragma acc parallel loop\n\
             for (int i = 0; i < n; i++) x[i] = (double)(i + k);\n\
             }",
            "f",
            &CompileOptions::proposal(),
        )
        .unwrap();
        let k = &p.kernels[0];
        assert_eq!(k.param_src.len(), 1);
        // `k` is host local slot 1 (after `n`).
        assert_eq!(k.param_src[0], ir::LocalId(1));
    }

    #[test]
    fn gathered_reads_are_irregular() {
        let p = compile_source(
            "void f(int n, int *m, double *y) {\n\
             #pragma acc parallel loop\n\
             for (int i = 0; i < n; i++) y[i] = (double)m[m[i]];\n\
             }",
            "f",
            &CompileOptions::proposal(),
        )
        .unwrap();
        let cm = &p.kernels[0].configs[0];
        assert_eq!(cm.name, "m");
        assert_eq!(cm.read_pattern, AccessPattern::Irregular);
    }
}
