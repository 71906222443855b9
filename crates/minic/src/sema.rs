//! Semantic analysis: name resolution, type checking, directive
//! validation, and lowering to the typed HIR of [`crate::hir`].
//!
//! Everything scalar is lowered into `acc-kernel-ir` expressions and
//! statements with C's usual arithmetic conversions applied explicitly
//! (inserted `Cast` nodes). OpenACC constructs are validated here:
//!
//! * combined parallel loops must be in canonical form
//!   `for (i = lo; i < hi; i++)` (also `<=`, `++i`, `i += 1`,
//!   `i = i + 1`);
//! * `reduction(op:var)` bodies may only update the reduction variable
//!   through the declared operator, and may not otherwise read it;
//! * `reductiontoarray` must annotate a statement of shape
//!   `arr[idx] op= e` (or the explicit `arr[idx] = arr[idx] op e` /
//!   `arr[idx] = min(arr[idx], e)` forms) matching the declared operator;
//! * nested parallel loops, `data`/`update` inside kernels, `continue`
//!   inside desugared `for` bodies, and multi-dimensional indexing are
//!   rejected with diagnostics (the last mirroring the paper's §VI
//!   1-D limitation).

use std::collections::HashMap;

use acc_kernel_ir as ir;
use ir::{BufId, LocalId, RmwOp, Ty, Value};

use crate::ast::{self, AssignOp, BinaryOp, CType, PostfixOp, UnaryOp};
use crate::diag::{Diagnostic, Span};
use crate::directive;
pub use crate::hir::*;

/// Type-check and lower a parsed program.
pub fn check(p: &ast::Program) -> Result<TypedProgram, Vec<Diagnostic>> {
    let mut functions = Vec::new();
    let mut diags = Vec::new();
    for f in &p.functions {
        match FnChecker::run(f) {
            Ok(tf) => functions.push(tf),
            Err(mut d) => diags.append(&mut d),
        }
    }
    if diags.is_empty() {
        Ok(TypedProgram { functions })
    } else {
        Err(diags)
    }
}

#[derive(Debug, Clone, Copy)]
enum Binding {
    Scalar(LocalId, Ty),
    Array(BufId, Ty),
}

fn ctype_to_ty(t: &CType) -> Option<Ty> {
    match t {
        CType::Int => Some(Ty::I32),
        CType::Float => Some(Ty::F32),
        CType::Double => Some(Ty::F64),
        _ => None,
    }
}

/// Rank for C usual arithmetic conversions.
fn rank(t: Ty) -> u8 {
    match t {
        Ty::Bool => 0,
        Ty::I32 => 1,
        Ty::F32 => 2,
        Ty::F64 => 3,
    }
}

fn common_ty(a: Ty, b: Ty) -> Ty {
    let t = if rank(a) >= rank(b) { a } else { b };
    if t == Ty::Bool {
        Ty::I32
    } else {
        t
    }
}

fn cast_to(e: ir::Expr, from: Ty, to: Ty) -> ir::Expr {
    if from == to {
        e
    } else {
        ir::Expr::Cast {
            ty: to,
            a: Box::new(e),
        }
    }
}

/// Per-kernel lowering context.
struct KernelCtx {
    reductions: Vec<ScalarRed>,
    array_reductions: Vec<ArrayRed>,
    loop_var: LocalId,
}

struct FnChecker<'a> {
    func: &'a ast::Function,
    diags: Vec<Diagnostic>,
    scopes: Vec<HashMap<String, Binding>>,
    locals: Vec<(String, Ty)>,
    arrays: Vec<(String, Ty)>,
    kernel_count: usize,
}

/// Statement-lowering abort marker (diagnostic already recorded).
struct Abort;

type EResult = Result<(ir::Expr, Ty), Abort>;

impl<'a> FnChecker<'a> {
    fn run(func: &'a ast::Function) -> Result<TypedFunction, Vec<Diagnostic>> {
        let mut c = FnChecker {
            func,
            diags: Vec::new(),
            scopes: vec![HashMap::new()],
            locals: Vec::new(),
            arrays: Vec::new(),
            kernel_count: 0,
        };
        let tf = c.check_fn();
        if c.diags
            .iter()
            .any(|d| d.severity == crate::diag::Severity::Error)
        {
            Err(c.diags)
        } else {
            Ok(tf)
        }
    }

    fn err(&mut self, span: Span, msg: impl Into<String>) -> Abort {
        self.diags.push(Diagnostic::error(span, msg));
        Abort
    }

    fn check_fn(&mut self) -> TypedFunction {
        let mut scalar_params = Vec::new();
        let mut array_params = Vec::new();
        if self.func.ret != CType::Void {
            self.diags.push(Diagnostic::error(
                self.func.span,
                "only void functions are supported (outputs flow through array parameters)",
            ));
        }
        for p in &self.func.params.to_vec() {
            match &p.ty {
                CType::Ptr(inner) => match ctype_to_ty(inner) {
                    Some(ty) => {
                        let id = BufId(self.arrays.len() as u32);
                        self.arrays.push((p.name.clone(), ty));
                        array_params.push((p.name.clone(), ty));
                        self.bind(p.name.clone(), Binding::Array(id, ty), p.span);
                    }
                    None => {
                        self.diags.push(Diagnostic::error(
                            p.span,
                            format!("unsupported pointer element type in `{}`", p.name),
                        ));
                    }
                },
                t => match ctype_to_ty(t) {
                    Some(ty) => {
                        let id = self.new_local(p.name.clone(), ty);
                        scalar_params.push((p.name.clone(), ty));
                        self.bind(p.name.clone(), Binding::Scalar(id, ty), p.span);
                    }
                    None => {
                        self.diags.push(Diagnostic::error(
                            p.span,
                            format!("unsupported parameter type for `{}`", p.name),
                        ));
                    }
                },
            }
        }
        let stmts = self.func.body.stmts.to_vec();
        let body = self.lower_host_block(&stmts);
        TypedFunction {
            name: self.func.name.clone(),
            scalar_params,
            array_params,
            locals: self.locals.clone(),
            body,
            span: self.func.span,
        }
    }

    fn new_local(&mut self, name: String, ty: Ty) -> LocalId {
        let id = LocalId(self.locals.len() as u32);
        self.locals.push((name, ty));
        id
    }

    fn bind(&mut self, name: String, b: Binding, span: Span) {
        let top = self.scopes.last_mut().unwrap();
        if top.contains_key(&name) {
            self.diags.push(Diagnostic::error(
                span,
                format!("`{name}` redeclared in the same scope"),
            ));
        }
        top.insert(name, b);
    }

    fn lookup(&self, name: &str) -> Option<Binding> {
        self.scopes.iter().rev().find_map(|s| s.get(name).copied())
    }

    fn resolve_scalar(&mut self, name: &str, span: Span) -> Result<(LocalId, Ty), Abort> {
        match self.lookup(name) {
            Some(Binding::Scalar(id, ty)) => Ok((id, ty)),
            Some(Binding::Array(..)) => {
                Err(self.err(span, format!("`{name}` is an array, expected a scalar")))
            }
            None => Err(self.err(span, format!("unknown variable `{name}`"))),
        }
    }

    fn resolve_array(&mut self, name: &str, span: Span) -> Result<(BufId, Ty), Abort> {
        match self.lookup(name) {
            Some(Binding::Array(id, ty)) => Ok((id, ty)),
            Some(Binding::Scalar(..)) => {
                Err(self.err(span, format!("`{name}` is a scalar, expected an array")))
            }
            None => Err(self.err(span, format!("unknown array `{name}`"))),
        }
    }

    /// Does `e` name exactly the local `id`?
    fn expr_is_local(&self, e: &ast::Expr, id: LocalId) -> bool {
        matches!(e, ast::Expr::Ident(n, _)
            if matches!(self.lookup(n), Some(Binding::Scalar(i, _)) if i == id))
    }

    // ================= expressions =================

    /// Lower an expression in value position. `kc` carries kernel-side
    /// restrictions (reduction variables may not be read).
    fn lower_expr(&mut self, e: &ast::Expr, kc: Option<&KernelCtx>) -> EResult {
        match e {
            ast::Expr::IntLit(v, span) => {
                if *v > i32::MAX as i64 || *v < i32::MIN as i64 {
                    return Err(
                        self.err(*span, format!("integer literal {v} does not fit in int"))
                    );
                }
                Ok((ir::Expr::Imm(Value::I32(*v as i32)), Ty::I32))
            }
            ast::Expr::F64Lit(v, _) => Ok((ir::Expr::Imm(Value::F64(*v)), Ty::F64)),
            ast::Expr::F32Lit(v, _) => Ok((ir::Expr::Imm(Value::F32(*v)), Ty::F32)),
            ast::Expr::Ident(name, span) => {
                let (id, ty) = self.resolve_scalar(name, *span)?;
                if let Some(kc) = kc {
                    if kc.reductions.iter().any(|r| r.local == id) {
                        return Err(self.err(
                            *span,
                            format!(
                                "reduction variable `{name}` may only be updated via its \
                                 reduction operator inside the parallel loop"
                            ),
                        ));
                    }
                }
                Ok((ir::Expr::Local(id), ty))
            }
            ast::Expr::Index { base, idx, span } => {
                let ast::Expr::Ident(name, bspan) = base.as_ref() else {
                    return Err(self.err(
                        *span,
                        "only 1-D indexing of named arrays is supported \
                         (the paper's prototype shares this limitation, §VI)",
                    ));
                };
                let (buf, ty) = self.resolve_array(name, *bspan)?;
                let idx = self.lower_index(idx, kc)?;
                Ok((
                    ir::Expr::Load {
                        buf,
                        idx: Box::new(idx),
                    },
                    ty,
                ))
            }
            ast::Expr::Call { name, args, span } => self.lower_call(name, args, *span, kc),
            ast::Expr::Unary { op, expr, span } => match op {
                UnaryOp::PreInc | UnaryOp::PreDec => Err(self.err(
                    *span,
                    "++/-- may only be used as a statement or for-loop step",
                )),
                UnaryOp::Neg => {
                    let (a, ty) = self.lower_expr(expr, kc)?;
                    let oty = if ty == Ty::Bool { Ty::I32 } else { ty };
                    Ok((
                        ir::Expr::Unary {
                            op: ir::UnOp::Neg,
                            a: Box::new(cast_to(a, ty, oty)),
                        },
                        oty,
                    ))
                }
                UnaryOp::Not => {
                    let (a, ty) = self.lower_expr(expr, kc)?;
                    let c = self.to_cond(a, ty);
                    Ok((
                        ir::Expr::Unary {
                            op: ir::UnOp::Not,
                            a: Box::new(c),
                        },
                        Ty::Bool,
                    ))
                }
                UnaryOp::BitNot => {
                    let (a, ty) = self.lower_expr(expr, kc)?;
                    if ty != Ty::I32 {
                        return Err(self.err(*span, "~ requires an integer operand"));
                    }
                    Ok((
                        ir::Expr::Unary {
                            op: ir::UnOp::BitNot,
                            a: Box::new(a),
                        },
                        Ty::I32,
                    ))
                }
            },
            ast::Expr::Postfix { span, .. } => Err(self.err(
                *span,
                "++/-- may only be used as a statement or for-loop step",
            )),
            ast::Expr::Binary { op, lhs, rhs, span } => {
                self.lower_binary(*op, lhs, rhs, *span, kc)
            }
            ast::Expr::Assign { span, .. } => Err(self.err(
                *span,
                "assignment may not be used as an expression value",
            )),
            ast::Expr::Ternary {
                cond,
                then_,
                else_,
                ..
            } => {
                let (c, cty) = self.lower_expr(cond, kc)?;
                let c = self.to_cond(c, cty);
                let (t, tty) = self.lower_expr(then_, kc)?;
                let (f, fty) = self.lower_expr(else_, kc)?;
                let ty = common_ty(tty, fty);
                Ok((
                    ir::Expr::Select {
                        c: Box::new(c),
                        t: Box::new(cast_to(t, tty, ty)),
                        f: Box::new(cast_to(f, fty, ty)),
                    },
                    ty,
                ))
            }
            ast::Expr::Cast { ty, expr, span } => {
                let Some(to) = ctype_to_ty(ty) else {
                    return Err(self.err(*span, "unsupported cast target type"));
                };
                let (a, from) = self.lower_expr(expr, kc)?;
                Ok((cast_to(a, from, to), to))
            }
        }
    }

    /// Lower an array index expression; must be integer-typed.
    fn lower_index(&mut self, e: &ast::Expr, kc: Option<&KernelCtx>) -> Result<ir::Expr, Abort> {
        let span = e.span();
        let (idx, ty) = self.lower_expr(e, kc)?;
        match ty {
            Ty::I32 => Ok(idx),
            Ty::Bool => Ok(cast_to(idx, Ty::Bool, Ty::I32)),
            _ => Err(self.err(span, "array index must be an integer")),
        }
    }

    /// Coerce a value into a branch condition.
    #[allow(clippy::wrong_self_convention)]
    fn to_cond(&mut self, e: ir::Expr, ty: Ty) -> ir::Expr {
        match ty {
            Ty::Bool | Ty::I32 => e,
            Ty::F32 => ir::Expr::bin(ir::BinOp::Ne, e, ir::Expr::Imm(Value::F32(0.0))),
            Ty::F64 => ir::Expr::bin(ir::BinOp::Ne, e, ir::Expr::Imm(Value::F64(0.0))),
        }
    }

    fn lower_binary(
        &mut self,
        op: BinaryOp,
        lhs: &ast::Expr,
        rhs: &ast::Expr,
        span: Span,
        kc: Option<&KernelCtx>,
    ) -> EResult {
        let (a, aty) = self.lower_expr(lhs, kc)?;
        let (b, bty) = self.lower_expr(rhs, kc)?;
        let iop = ast_bin_to_ir(op);
        if iop.is_logical() {
            let a = self.to_cond(a, aty);
            let b = self.to_cond(b, bty);
            return Ok((ir::Expr::bin(iop, a, b), Ty::Bool));
        }
        if iop.is_integer_only() {
            if rank(aty) > rank(Ty::I32) || rank(bty) > rank(Ty::I32) {
                return Err(self.err(span, "operator requires integer operands"));
            }
            let a = cast_to(a, aty, Ty::I32);
            let b = cast_to(b, bty, Ty::I32);
            return Ok((ir::Expr::bin(iop, a, b), Ty::I32));
        }
        let ty = common_ty(aty, bty);
        let a = cast_to(a, aty, ty);
        let b = cast_to(b, bty, ty);
        let rty = if iop.is_comparison() { Ty::Bool } else { ty };
        Ok((ir::Expr::bin(iop, a, b), rty))
    }

    fn lower_call(
        &mut self,
        name: &str,
        args: &[ast::Expr],
        span: Span,
        kc: Option<&KernelCtx>,
    ) -> EResult {
        let Some(f) = ir::Builtin::from_name(name) else {
            return Err(self.err(
                span,
                format!(
                    "unknown function `{name}` (user-defined calls are not supported; \
                     only math builtins)"
                ),
            ));
        };
        if args.len() != f.arity() {
            return Err(self.err(
                span,
                format!(
                    "`{name}` expects {} argument(s), got {}",
                    f.arity(),
                    args.len()
                ),
            ));
        }
        let mut lowered = Vec::new();
        for a in args {
            lowered.push(self.lower_expr(a, kc)?);
        }
        match f {
            ir::Builtin::Abs => {
                let (a, ty) = lowered.pop().unwrap();
                if ty != Ty::I32 {
                    return Err(self.err(span, "abs() takes an int; use fabs() for floats"));
                }
                Ok((ir::Expr::Call { f, args: vec![a] }, Ty::I32))
            }
            ir::Builtin::Min | ir::Builtin::Max => {
                let (b, bty) = lowered.pop().unwrap();
                let (a, aty) = lowered.pop().unwrap();
                let ty = common_ty(aty, bty);
                Ok((
                    ir::Expr::Call {
                        f,
                        args: vec![cast_to(a, aty, ty), cast_to(b, bty, ty)],
                    },
                    ty,
                ))
            }
            ir::Builtin::Pow => {
                let (b, bty) = lowered.pop().unwrap();
                let (a, aty) = lowered.pop().unwrap();
                let ty = if common_ty(aty, bty) == Ty::F32 {
                    Ty::F32
                } else {
                    Ty::F64
                };
                Ok((
                    ir::Expr::Call {
                        f,
                        args: vec![cast_to(a, aty, ty), cast_to(b, bty, ty)],
                    },
                    ty,
                ))
            }
            _ => {
                // Unary math: int promotes to double; f32 stays f32.
                let (a, aty) = lowered.pop().unwrap();
                let ty = match aty {
                    Ty::F32 => Ty::F32,
                    _ => Ty::F64,
                };
                Ok((
                    ir::Expr::Call {
                        f,
                        args: vec![cast_to(a, aty, ty)],
                    },
                    ty,
                ))
            }
        }
    }

    // ================= host statements =================

    fn lower_host_block(&mut self, stmts: &[ast::Stmt]) -> Vec<HostStmt> {
        self.scopes.push(HashMap::new());
        let mut out = Vec::new();
        for s in stmts {
            self.lower_host_stmt(s, &mut out);
        }
        self.scopes.pop();
        out
    }

    fn lower_host_stmt(&mut self, s: &ast::Stmt, out: &mut Vec<HostStmt>) {
        match s {
            ast::Stmt::Empty(_) => {}
            ast::Stmt::Block(b) => out.extend(self.lower_host_block(&b.stmts)),
            ast::Stmt::Decl { ty, decls, span } => {
                let Some(ty) = ctype_to_ty(ty) else {
                    self.diags
                        .push(Diagnostic::error(*span, "unsupported declaration type"));
                    return;
                };
                for d in decls {
                    let id = self.new_local(d.name.clone(), ty);
                    self.bind(d.name.clone(), Binding::Scalar(id, ty), d.span);
                    if let Some(init) = &d.init {
                        if let Ok((e, ety)) = self.lower_expr(init, None) {
                            out.push(HostStmt::Plain(ir::Stmt::Assign {
                                local: id,
                                value: cast_to(e, ety, ty),
                            }));
                        }
                    }
                }
            }
            ast::Stmt::Expr(e) => {
                if let Ok(stmts) = self.lower_stmt_expr(e, None) {
                    out.extend(stmts.into_iter().map(HostStmt::Plain));
                }
            }
            ast::Stmt::If {
                cond, then_, else_, ..
            } => {
                let Ok((c, cty)) = self.lower_expr(cond, None) else {
                    return;
                };
                let c = self.to_cond(c, cty);
                let then_ = self.lower_host_block(std::slice::from_ref(then_.as_ref()));
                let else_ = match else_ {
                    Some(e) => self.lower_host_block(std::slice::from_ref(e.as_ref())),
                    None => vec![],
                };
                out.push(HostStmt::If {
                    cond: c,
                    then_,
                    else_,
                });
            }
            ast::Stmt::While { cond, body, .. } => {
                let Ok((c, cty)) = self.lower_expr(cond, None) else {
                    return;
                };
                let c = self.to_cond(c, cty);
                let body = self.lower_host_block(std::slice::from_ref(body.as_ref()));
                out.push(HostStmt::While { cond: c, body });
            }
            ast::Stmt::For {
                init,
                cond,
                step,
                body,
                span,
            } => {
                // Desugar: { init; while (cond) { body; step; } }
                self.scopes.push(HashMap::new());
                if let Some(init) = init {
                    self.lower_host_stmt(init, out);
                }
                let c = match cond {
                    Some(c) => match self.lower_expr(c, None) {
                        Ok((e, ty)) => self.to_cond(e, ty),
                        Err(Abort) => {
                            self.scopes.pop();
                            return;
                        }
                    },
                    None => ir::Expr::Imm(Value::Bool(true)),
                };
                let mut wbody = self.lower_host_block(std::slice::from_ref(body.as_ref()));
                if block_contains_continue(body) {
                    self.diags.push(Diagnostic::error(
                        *span,
                        "`continue` inside a `for` body is not supported (the step \
                         expression would be skipped); rewrite as `while`",
                    ));
                }
                if let Some(step) = step {
                    if let Ok(stmts) = self.lower_stmt_expr(step, None) {
                        wbody.extend(stmts.into_iter().map(HostStmt::Plain));
                    }
                }
                out.push(HostStmt::While {
                    cond: c,
                    body: wbody,
                });
                self.scopes.pop();
            }
            ast::Stmt::Return(v, span) => {
                if v.is_some() {
                    self.diags.push(Diagnostic::error(
                        *span,
                        "return with a value in a void function",
                    ));
                }
                out.push(HostStmt::Return);
            }
            ast::Stmt::Break(_) => out.push(HostStmt::Plain(ir::Stmt::Break)),
            ast::Stmt::Continue(_) => out.push(HostStmt::Plain(ir::Stmt::Continue)),
            ast::Stmt::DataRegion { dir, body, .. } => {
                let clauses = self.lower_data_clauses(&dir.clauses);
                let body = self.lower_host_block(std::slice::from_ref(body.as_ref()));
                out.push(HostStmt::DataRegion { clauses, body });
            }
            ast::Stmt::Update { dir, .. } => {
                let host = self.lower_sections(&dir.host);
                let device = self.lower_sections(&dir.device);
                out.push(HostStmt::Update { host, device });
            }
            ast::Stmt::ParallelLoop {
                dir,
                localaccess,
                loop_,
                span,
            } => {
                if let Ok(node) = self.lower_parallel_loop(dir, localaccess, loop_, *span) {
                    out.push(HostStmt::ParallelLoop(Box::new(node)));
                }
            }
            ast::Stmt::ReductionToArray { span, .. } => {
                self.diags.push(Diagnostic::error(
                    *span,
                    "reductiontoarray is only meaningful inside a parallel loop",
                ));
            }
        }
    }

    /// Lower an expression used in statement position (assignments and
    /// increments). Returns the statements it expands to.
    fn lower_stmt_expr(
        &mut self,
        e: &ast::Expr,
        kc: Option<&mut KernelCtx>,
    ) -> Result<Vec<ir::Stmt>, Abort> {
        match e {
            ast::Expr::Assign { op, lhs, rhs, span } => {
                self.lower_assign(*op, lhs, rhs, *span, kc)
            }
            ast::Expr::Postfix { op, expr, span } => {
                self.lower_incdec(*op == PostfixOp::PostInc, expr, *span, kc)
            }
            ast::Expr::Unary {
                op: op @ (UnaryOp::PreInc | UnaryOp::PreDec),
                expr,
                span,
            } => self.lower_incdec(*op == UnaryOp::PreInc, expr, *span, kc),
            other => Err(self.err(
                other.span(),
                "expression statement has no effect (only assignments and ++/-- are allowed)",
            )),
        }
    }

    fn lower_incdec(
        &mut self,
        inc: bool,
        expr: &ast::Expr,
        span: Span,
        kc: Option<&mut KernelCtx>,
    ) -> Result<Vec<ir::Stmt>, Abort> {
        let ast::Expr::Ident(name, ispan) = expr else {
            return Err(self.err(span, "++/-- target must be a scalar variable"));
        };
        let (id, ty) = self.resolve_scalar(name, *ispan)?;
        if let Some(kc) = &kc {
            if kc.reductions.iter().any(|r| r.local == id) {
                return Err(self.err(span, "cannot ++/-- a reduction variable"));
            }
            if kc.loop_var == id {
                return Err(self.err(
                    span,
                    "the parallel loop variable may not be modified in the loop body",
                ));
            }
        }
        if ty != Ty::I32 {
            return Err(self.err(span, "++/-- requires an int variable"));
        }
        let op = if inc { ir::BinOp::Add } else { ir::BinOp::Sub };
        Ok(vec![ir::Stmt::Assign {
            local: id,
            value: ir::Expr::bin(op, ir::Expr::Local(id), ir::Expr::imm_i32(1)),
        }])
    }

    fn lower_assign(
        &mut self,
        op: AssignOp,
        lhs: &ast::Expr,
        rhs: &ast::Expr,
        span: Span,
        mut kc: Option<&mut KernelCtx>,
    ) -> Result<Vec<ir::Stmt>, Abort> {
        match lhs {
            ast::Expr::Ident(name, ispan) => {
                let (id, ty) = self.resolve_scalar(name, *ispan)?;
                // Scalar reduction pattern?
                if let Some(kc) = kc.as_deref_mut() {
                    if kc.loop_var == id {
                        return Err(self.err(
                            span,
                            "the parallel loop variable may not be modified in the loop body",
                        ));
                    }
                    if let Some(slot) = kc.reductions.iter().position(|r| r.local == id) {
                        return self.lower_scalar_reduction(slot, id, ty, op, rhs, span, kc);
                    }
                }
                let kcr = kc.as_deref();
                let (value, vty) = match op.binary() {
                    None => self.lower_expr(rhs, kcr)?,
                    Some(bop) => {
                        let (r, rty) = self.lower_expr(rhs, kcr)?;
                        let cty = common_ty(ty, rty);
                        let l = cast_to(ir::Expr::Local(id), ty, cty);
                        let r = cast_to(r, rty, cty);
                        (ir::Expr::bin(ast_bin_to_ir(bop), l, r), cty)
                    }
                };
                Ok(vec![ir::Stmt::Assign {
                    local: id,
                    value: cast_to(value, vty, ty),
                }])
            }
            ast::Expr::Index {
                base,
                idx,
                span: ispan,
            } => {
                let ast::Expr::Ident(name, bspan) = base.as_ref() else {
                    return Err(
                        self.err(*ispan, "only 1-D indexing of named arrays is supported")
                    );
                };
                let (buf, ty) = self.resolve_array(name, *bspan)?;
                let kcr = kc.as_deref();
                let idx = self.lower_index(idx, kcr)?;
                let (value, vty) = match op.binary() {
                    None => self.lower_expr(rhs, kcr)?,
                    Some(bop) => {
                        let (r, rty) = self.lower_expr(rhs, kcr)?;
                        let cty = common_ty(ty, rty);
                        let l = cast_to(
                            ir::Expr::Load {
                                buf,
                                idx: Box::new(idx.clone()),
                            },
                            ty,
                            cty,
                        );
                        let r = cast_to(r, rty, cty);
                        (ir::Expr::bin(ast_bin_to_ir(bop), l, r), cty)
                    }
                };
                Ok(vec![ir::Stmt::Store {
                    buf,
                    idx,
                    value: cast_to(value, vty, ty),
                    dirty: false,
                    checked: false,
                }])
            }
            other => Err(self.err(other.span(), "invalid assignment target")),
        }
    }

    /// Lower an update of scalar reduction `slot`, in one of the shapes
    /// [`reduction_contribution`] accepts.
    #[allow(clippy::too_many_arguments)]
    fn lower_scalar_reduction(
        &mut self,
        slot: usize,
        id: LocalId,
        ty: Ty,
        op: AssignOp,
        rhs: &ast::Expr,
        span: Span,
        kc: &mut KernelCtx,
    ) -> Result<Vec<ir::Stmt>, Abort> {
        let red_op = kc.reductions[slot].op;
        let contribution =
            match reduction_contribution(op, rhs, red_op, |e| Ok(self.expr_is_local(e, id)))? {
                Ok(e) => e,
                Err(_) => {
                    let msg = format!(
                        "update of reduction variable `{}` does not match its \
                         declared `{red_op:?}` operator",
                        kc.reductions[slot].name
                    );
                    return Err(self.err(span, msg));
                }
            };
        let (value, vty) = self.lower_expr(contribution, Some(kc))?;
        Ok(vec![ir::Stmt::ReduceScalar {
            slot: slot as u32,
            op: red_op,
            value: cast_to(value, vty, ty),
        }])
    }

    fn lower_sections(&mut self, secs: &[directive::ArraySection]) -> Vec<TypedSection> {
        let mut out = Vec::new();
        for s in secs {
            let Ok((buf, _)) = self.resolve_array(&s.name, s.span) else {
                continue;
            };
            let range = match &s.range {
                None => None,
                Some((a, b)) => {
                    let Ok(a) = self.lower_index(a, None) else {
                        continue;
                    };
                    let Ok(b) = self.lower_index(b, None) else {
                        continue;
                    };
                    Some((a, b))
                }
            };
            out.push(TypedSection { buf, range });
        }
        out
    }

    fn lower_data_clauses(&mut self, clauses: &[directive::DataClause]) -> Vec<TypedDataClause> {
        clauses
            .iter()
            .map(|c| TypedDataClause {
                kind: c.kind,
                sections: self.lower_sections(&c.sections),
            })
            .collect()
    }

    // ================= parallel loops =================

    fn lower_parallel_loop(
        &mut self,
        dir: &directive::ParallelDirective,
        localaccess: &[directive::LocalAccess],
        loop_: &ast::Stmt,
        span: Span,
    ) -> Result<ParallelLoopNode, Abort> {
        let ast::Stmt::For {
            init,
            cond,
            step,
            body,
            span: fspan,
        } = loop_
        else {
            return Err(self.err(span, "parallel loop must annotate a for statement"));
        };

        self.scopes.push(HashMap::new());
        let result = self.lower_parallel_loop_inner(
            dir,
            localaccess,
            init.as_deref(),
            cond.as_ref(),
            step.as_ref(),
            body,
            *fspan,
            span,
        );
        self.scopes.pop();
        result
    }

    #[allow(clippy::too_many_arguments)]
    fn lower_parallel_loop_inner(
        &mut self,
        dir: &directive::ParallelDirective,
        localaccess: &[directive::LocalAccess],
        init: Option<&ast::Stmt>,
        cond: Option<&ast::Expr>,
        step: Option<&ast::Expr>,
        body: &ast::Stmt,
        fspan: Span,
        span: Span,
    ) -> Result<ParallelLoopNode, Abort> {
        // --- canonical induction structure ---
        let (var, lo) = match init {
            Some(ast::Stmt::Decl {
                ty,
                decls,
                span: dspan,
            }) => {
                if *ty != CType::Int || decls.len() != 1 {
                    return Err(self.err(*dspan, "parallel loop variable must be a single int"));
                }
                let d = &decls[0];
                let Some(initial) = &d.init else {
                    return Err(self.err(*dspan, "parallel loop variable must be initialised"));
                };
                let (lo, loty) = self.lower_expr(initial, None)?;
                if loty != Ty::I32 {
                    return Err(self.err(*dspan, "parallel loop bounds must be int"));
                }
                let id = self.new_local(d.name.clone(), Ty::I32);
                self.bind(d.name.clone(), Binding::Scalar(id, Ty::I32), d.span);
                (id, lo)
            }
            Some(ast::Stmt::Expr(ast::Expr::Assign {
                op: AssignOp::Assign,
                lhs,
                rhs,
                span: aspan,
            })) => {
                let ast::Expr::Ident(name, ispan) = lhs.as_ref() else {
                    return Err(
                        self.err(*aspan, "parallel loop init must assign the loop variable")
                    );
                };
                let (id, ty) = self.resolve_scalar(name, *ispan)?;
                if ty != Ty::I32 {
                    return Err(self.err(*ispan, "parallel loop variable must be int"));
                }
                let (lo, loty) = self.lower_expr(rhs, None)?;
                if loty != Ty::I32 {
                    return Err(self.err(*aspan, "parallel loop bounds must be int"));
                }
                (id, lo)
            }
            _ => {
                return Err(self.err(
                    fspan,
                    "parallel loop must have the canonical form `for (i = lo; i < hi; i++)`",
                ))
            }
        };

        let hi = match cond {
            Some(ast::Expr::Binary {
                op: op @ (BinaryOp::Lt | BinaryOp::Le),
                lhs,
                rhs,
                span: cspan,
            }) => {
                if !self.expr_is_local(lhs, var) {
                    return Err(self.err(
                        *cspan,
                        "parallel loop condition must test the loop variable",
                    ));
                }
                let (hi, hty) = self.lower_expr(rhs, None)?;
                if hty != Ty::I32 {
                    return Err(self.err(*cspan, "parallel loop bounds must be int"));
                }
                if *op == BinaryOp::Le {
                    ir::Expr::add(hi, ir::Expr::imm_i32(1))
                } else {
                    hi
                }
            }
            _ => {
                return Err(self.err(
                    fspan,
                    "parallel loop condition must be `i < hi` or `i <= hi`",
                ))
            }
        };

        let step_ok = match step {
            Some(ast::Expr::Postfix {
                op: PostfixOp::PostInc,
                expr,
                ..
            })
            | Some(ast::Expr::Unary {
                op: UnaryOp::PreInc,
                expr,
                ..
            }) => self.expr_is_local(expr, var),
            Some(ast::Expr::Assign {
                op: AssignOp::AddAssign,
                lhs,
                rhs,
                ..
            }) => {
                self.expr_is_local(lhs, var) && matches!(rhs.as_ref(), ast::Expr::IntLit(1, _))
            }
            Some(ast::Expr::Assign {
                op: AssignOp::Assign,
                lhs,
                rhs,
                ..
            }) => {
                self.expr_is_local(lhs, var)
                    && matches!(rhs.as_ref(), ast::Expr::Binary {
                        op: BinaryOp::Add,
                        lhs: l2,
                        rhs: r2,
                        ..
                    } if self.expr_is_local(l2, var)
                        && matches!(r2.as_ref(), ast::Expr::IntLit(1, _)))
            }
            _ => false,
        };
        if !step_ok {
            return Err(self.err(fspan, "parallel loop step must increment by 1"));
        }

        // --- reduction clauses ---
        let mut reductions = Vec::new();
        for r in &dir.reductions {
            let (local, ty) = self.resolve_scalar(&r.var, r.span)?;
            let Some(op) = RmwOp::from_clause(&r.op) else {
                return Err(self.err(r.span, format!("unknown reduction operator `{}`", r.op)));
            };
            reductions.push(ScalarRed {
                local,
                name: r.var.clone(),
                ty,
                op,
            });
        }

        // --- kernel body ---
        let mut kc = KernelCtx {
            reductions,
            array_reductions: Vec::new(),
            loop_var: var,
        };
        let body_stmts = self.lower_kernel_stmt(body, &mut kc)?;

        // --- localaccess ---
        let mut typed_la: Vec<TypedLocalAccess> = Vec::new();
        for la in localaccess {
            let (buf, _) = self.resolve_array(&la.array, la.span)?;
            let stride = match &la.stride {
                Some(e) => self.lower_index(e, None)?,
                None => ir::Expr::imm_i32(1),
            };
            let left = match &la.left {
                Some(e) => self.lower_index(e, None)?,
                None => ir::Expr::imm_i32(0),
            };
            let right = match &la.right {
                Some(e) => self.lower_index(e, None)?,
                None => ir::Expr::imm_i32(0),
            };
            if typed_la.iter().any(|t| t.buf == buf) {
                return Err(self.err(
                    la.span,
                    format!("duplicate localaccess for `{}`", la.array),
                ));
            }
            typed_la.push(TypedLocalAccess {
                buf,
                stride,
                left,
                right,
            });
        }

        let data_clauses = self.lower_data_clauses(&dir.data_clauses);

        let name = format!("{}_k{}", self.func.name, self.kernel_count);
        self.kernel_count += 1;
        Ok(ParallelLoopNode {
            name,
            kind: dir.kind,
            var,
            lo,
            hi,
            body: body_stmts,
            reductions: kc.reductions,
            array_reductions: kc.array_reductions,
            localaccess: typed_la,
            data_clauses,
            span,
        })
    }

    // ================= kernel statements =================

    fn lower_kernel_block(
        &mut self,
        stmts: &[ast::Stmt],
        kc: &mut KernelCtx,
    ) -> Result<Vec<ir::Stmt>, Abort> {
        self.scopes.push(HashMap::new());
        let mut out = Vec::new();
        let mut failed = false;
        for s in stmts {
            match self.lower_kernel_stmt(s, kc) {
                Ok(ss) => out.extend(ss),
                Err(Abort) => failed = true,
            }
        }
        self.scopes.pop();
        if failed {
            Err(Abort)
        } else {
            Ok(out)
        }
    }

    fn lower_kernel_stmt(
        &mut self,
        s: &ast::Stmt,
        kc: &mut KernelCtx,
    ) -> Result<Vec<ir::Stmt>, Abort> {
        match s {
            ast::Stmt::Empty(_) => Ok(vec![]),
            ast::Stmt::Block(b) => self.lower_kernel_block(&b.stmts, kc),
            ast::Stmt::Decl { ty, decls, span } => {
                let Some(ty) = ctype_to_ty(ty) else {
                    return Err(self.err(*span, "unsupported declaration type"));
                };
                let mut out = Vec::new();
                for d in decls {
                    let id = self.new_local(d.name.clone(), ty);
                    self.bind(d.name.clone(), Binding::Scalar(id, ty), d.span);
                    if let Some(init) = &d.init {
                        let (e, ety) = self.lower_expr(init, Some(kc))?;
                        out.push(ir::Stmt::Assign {
                            local: id,
                            value: cast_to(e, ety, ty),
                        });
                    }
                }
                Ok(out)
            }
            ast::Stmt::Expr(e) => self.lower_stmt_expr(e, Some(kc)),
            ast::Stmt::If {
                cond, then_, else_, ..
            } => {
                let (c, cty) = self.lower_expr(cond, Some(kc))?;
                let c = self.to_cond(c, cty);
                let then_ = self.lower_kernel_block(std::slice::from_ref(then_.as_ref()), kc)?;
                let else_ = match else_ {
                    Some(e) => self.lower_kernel_block(std::slice::from_ref(e.as_ref()), kc)?,
                    None => vec![],
                };
                Ok(vec![ir::Stmt::If {
                    cond: c,
                    then_,
                    else_,
                }])
            }
            ast::Stmt::While { cond, body, .. } => {
                let (c, cty) = self.lower_expr(cond, Some(kc))?;
                let c = self.to_cond(c, cty);
                let body = self.lower_kernel_block(std::slice::from_ref(body.as_ref()), kc)?;
                Ok(vec![ir::Stmt::While { cond: c, body }])
            }
            ast::Stmt::For {
                init,
                cond,
                step,
                body,
                span,
            } => {
                // Sequential loop inside the kernel: desugar to while.
                self.scopes.push(HashMap::new());
                let mut out = Vec::new();
                let r = (|| -> Result<(), Abort> {
                    if let Some(init) = init {
                        out.extend(self.lower_kernel_stmt(init, kc)?);
                    }
                    let c = match cond {
                        Some(c) => {
                            let (e, ty) = self.lower_expr(c, Some(kc))?;
                            self.to_cond(e, ty)
                        }
                        None => ir::Expr::Imm(Value::Bool(true)),
                    };
                    if block_contains_continue(body) {
                        return Err(self.err(
                            *span,
                            "`continue` inside a `for` body is not supported; rewrite as `while`",
                        ));
                    }
                    let mut wbody = self.lower_kernel_stmt(body, kc)?;
                    if let Some(step) = step {
                        wbody.extend(self.lower_stmt_expr(step, Some(kc))?);
                    }
                    out.push(ir::Stmt::While {
                        cond: c,
                        body: wbody,
                    });
                    Ok(())
                })();
                self.scopes.pop();
                r.map(|_| out)
            }
            ast::Stmt::Break(_) => Ok(vec![ir::Stmt::Break]),
            ast::Stmt::Continue(_) => Ok(vec![ir::Stmt::Continue]),
            ast::Stmt::Return(_, span) => {
                Err(self.err(*span, "return inside a parallel loop is not supported"))
            }
            ast::Stmt::ParallelLoop { span, .. } => Err(self.err(
                *span,
                "nested parallel loops are not supported (the paper's prototype is \
                 limited to one level of parallelism, §VI)",
            )),
            ast::Stmt::DataRegion { span, .. } | ast::Stmt::Update { span, .. } => Err(self.err(
                *span,
                "data/update directives may not appear inside a parallel loop",
            )),
            ast::Stmt::ReductionToArray { dir, stmt, span } => {
                self.lower_reduction_to_array(dir, stmt, *span, kc)
            }
        }
    }

    fn lower_reduction_to_array(
        &mut self,
        dir: &directive::ReductionToArrayDirective,
        stmt: &ast::Stmt,
        span: Span,
        kc: &mut KernelCtx,
    ) -> Result<Vec<ir::Stmt>, Abort> {
        let Some(op) = RmwOp::from_clause(&dir.op) else {
            return Err(self.err(span, format!("unknown reduction operator `{}`", dir.op)));
        };
        let (buf, ty) = self.resolve_array(&dir.array, span)?;

        let ast::Stmt::Expr(ast::Expr::Assign {
            op: aop,
            lhs,
            rhs,
            span: aspan,
        }) = stmt
        else {
            return Err(self.err(
                span,
                "reductiontoarray must annotate an assignment statement",
            ));
        };
        let ast::Expr::Index { base, idx, .. } = lhs.as_ref() else {
            return Err(self.err(*aspan, "reductiontoarray target must be an array element"));
        };
        let ast::Expr::Ident(name, _) = base.as_ref() else {
            return Err(self.err(*aspan, "reductiontoarray target must be a named array"));
        };
        if name != &dir.array {
            return Err(self.err(
                *aspan,
                format!(
                    "reductiontoarray names `{}` but the statement updates `{name}`",
                    dir.array
                ),
            ));
        }
        let idx_ir = self.lower_index(idx, Some(kc))?;

        // Structural "same element" comparison is done on the lowered IR
        // (the AST carries spans that would never compare equal).
        let target_load = ir::Expr::Load {
            buf,
            idx: Box::new(idx_ir.clone()),
        };
        let same_elem = |e: &ast::Expr| -> Result<bool, Abort> {
            let (lowered, _) = self.lower_expr(e, Some(kc))?;
            Ok(lowered == target_load)
        };
        let contribution = match reduction_contribution(*aop, rhs, op, same_elem)? {
            Ok(e) => e,
            Err(miss) => {
                let msg = match miss {
                    ShapeMiss::WrongOperator => {
                        "reductiontoarray statement does not match its declared operator"
                    }
                    ShapeMiss::NoReadBack => {
                        "reductiontoarray statement must read back the same element"
                    }
                };
                return Err(self.err(*aspan, msg));
            }
        };
        let (value, vty) = self.lower_expr(contribution, Some(kc))?;

        let range = match &dir.range {
            None => None,
            Some((a, b)) => {
                let a = self.lower_index(a, None)?;
                let b = self.lower_index(b, None)?;
                Some((a, b))
            }
        };
        kc.array_reductions.push(ArrayRed { buf, op, range });

        Ok(vec![ir::Stmt::AtomicRmw {
            buf,
            idx: idx_ir,
            op,
            value: cast_to(value, vty, ty),
        }])
    }
}

/// Which rule a reduction update breaks, from [`reduction_contribution`].
enum ShapeMiss {
    /// The assignment operator or the value's form is not one the
    /// declared operator accepts.
    WrongOperator,
    /// An accepted form, but neither operand is the target.
    NoReadBack,
}

/// The contribution `e` of an update of reduction target `t` under the
/// declared operator `op`: `t op= e`, `t = t op e`, `t = e op t`,
/// `t = min/max(t, e)` or `t = min/max(e, t)`. `is_target` recognises
/// `t`; it is asked about the left operand first and the right only if
/// the left is not `t`.
fn reduction_contribution(
    aop: AssignOp,
    rhs: &ast::Expr,
    op: RmwOp,
    mut is_target: impl FnMut(&ast::Expr) -> Result<bool, Abort>,
) -> Result<Result<&ast::Expr, ShapeMiss>, Abort> {
    let (a, b): (&ast::Expr, &ast::Expr) = match (aop, rhs) {
        (AssignOp::AddAssign, _) if op == RmwOp::Add => return Ok(Ok(rhs)),
        (AssignOp::MulAssign, _) if op == RmwOp::Mul => return Ok(Ok(rhs)),
        (
            AssignOp::Assign,
            ast::Expr::Binary {
                op: bop, lhs, rhs, ..
            },
        ) if matches!(
            (bop, op),
            (BinaryOp::Add, RmwOp::Add) | (BinaryOp::Mul, RmwOp::Mul)
        ) =>
        {
            (lhs, rhs)
        }
        (AssignOp::Assign, ast::Expr::Call { name, args, .. })
            if args.len() == 2
                && matches!(
                    (ir::Builtin::from_name(name), op),
                    (Some(ir::Builtin::Min), RmwOp::Min) | (Some(ir::Builtin::Max), RmwOp::Max)
                ) =>
        {
            (&args[0], &args[1])
        }
        _ => return Ok(Err(ShapeMiss::WrongOperator)),
    };
    Ok(if is_target(a)? {
        Ok(b)
    } else if is_target(b)? {
        Ok(a)
    } else {
        Err(ShapeMiss::NoReadBack)
    })
}

/// Shallow scan for `continue` that does not descend into nested loops
/// (their `continue` targets the inner loop).
fn block_contains_continue(s: &ast::Stmt) -> bool {
    match s {
        ast::Stmt::Continue(_) => true,
        ast::Stmt::Block(b) => b.stmts.iter().any(block_contains_continue),
        ast::Stmt::If { then_, else_, .. } => {
            block_contains_continue(then_)
                || else_.as_deref().is_some_and(block_contains_continue)
        }
        ast::Stmt::ReductionToArray { stmt, .. } => block_contains_continue(stmt),
        _ => false,
    }
}

fn ast_bin_to_ir(op: BinaryOp) -> ir::BinOp {
    match op {
        BinaryOp::Add => ir::BinOp::Add,
        BinaryOp::Sub => ir::BinOp::Sub,
        BinaryOp::Mul => ir::BinOp::Mul,
        BinaryOp::Div => ir::BinOp::Div,
        BinaryOp::Rem => ir::BinOp::Rem,
        BinaryOp::Shl => ir::BinOp::Shl,
        BinaryOp::Shr => ir::BinOp::Shr,
        BinaryOp::Lt => ir::BinOp::Lt,
        BinaryOp::Le => ir::BinOp::Le,
        BinaryOp::Gt => ir::BinOp::Gt,
        BinaryOp::Ge => ir::BinOp::Ge,
        BinaryOp::Eq => ir::BinOp::Eq,
        BinaryOp::Ne => ir::BinOp::Ne,
        BinaryOp::BitAnd => ir::BinOp::And,
        BinaryOp::BitOr => ir::BinOp::Or,
        BinaryOp::BitXor => ir::BinOp::Xor,
        BinaryOp::LAnd => ir::BinOp::LAnd,
        BinaryOp::LOr => ir::BinOp::LOr,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend;

    fn ok(src: &str) -> TypedProgram {
        frontend(src).unwrap_or_else(|d| {
            panic!(
                "frontend failed: {}",
                d.iter()
                    .map(|d| d.render(src))
                    .collect::<Vec<_>>()
                    .join("; ")
            )
        })
    }

    fn err_containing(src: &str, needle: &str) {
        match frontend(src) {
            Ok(_) => panic!("expected error containing `{needle}`"),
            Err(ds) => assert!(
                ds.iter().any(|d| d.message.contains(needle)),
                "no diagnostic contains `{needle}`: {ds:?}"
            ),
        }
    }

    #[test]
    fn simple_function_checks() {
        let p = ok("void f(int n, double *x) { int i = 0; x[i] = (double)n; }");
        let f = &p.functions[0];
        assert_eq!(f.scalar_params, vec![("n".to_string(), Ty::I32)]);
        assert_eq!(f.array_params, vec![("x".to_string(), Ty::F64)]);
        assert_eq!(f.locals.len(), 2); // n, i
        assert_eq!(f.body.len(), 2);
    }

    #[test]
    fn usual_conversions_inserted() {
        let p = ok("void f(int n, double d) { d = d + n; }");
        let HostStmt::Plain(ir::Stmt::Assign { value, .. }) = &p.functions[0].body[0] else {
            panic!()
        };
        let ir::Expr::Binary { b, .. } = value else {
            panic!("{value:?}")
        };
        assert!(matches!(b.as_ref(), ir::Expr::Cast { ty: Ty::F64, .. }));
    }

    #[test]
    fn parallel_loop_canonicalized() {
        let p = ok("void f(int n, double *x) {\n\
             #pragma acc parallel loop\n\
             for (int i = 0; i < n; i++) x[i] = 1.0;\n\
             }");
        let HostStmt::ParallelLoop(node) = &p.functions[0].body[0] else {
            panic!()
        };
        assert_eq!(node.name, "f_k0");
        assert!(matches!(node.lo, ir::Expr::Imm(Value::I32(0))));
        assert!(matches!(node.hi, ir::Expr::Local(_)));
        assert_eq!(node.body.len(), 1);
    }

    #[test]
    fn le_bound_becomes_exclusive() {
        let p = ok("void f(int n, double *x) {\n\
             #pragma acc parallel loop\n\
             for (int i = 0; i <= n; i++) x[i] = 1.0;\n\
             }");
        let HostStmt::ParallelLoop(node) = &p.functions[0].body[0] else {
            panic!()
        };
        assert!(matches!(
            &node.hi,
            ir::Expr::Binary {
                op: ir::BinOp::Add,
                ..
            }
        ));
    }

    #[test]
    fn non_canonical_loops_rejected() {
        err_containing(
            "void f(int n, double *x) {\n\
             #pragma acc parallel loop\n\
             for (int i = 0; i < n; i += 2) x[i] = 1.0;\n\
             }",
            "increment by 1",
        );
        err_containing(
            "void f(int n, double *x) {\n\
             #pragma acc parallel loop\n\
             for (int i = n; i > 0; i++) x[i] = 1.0;\n\
             }",
            "i < hi",
        );
    }

    #[test]
    fn loop_var_write_rejected() {
        err_containing(
            "void f(int n, double *x) {\n\
             #pragma acc parallel loop\n\
             for (int i = 0; i < n; i++) { i = 3; x[i] = 1.0; }\n\
             }",
            "loop variable",
        );
    }

    #[test]
    fn scalar_reduction_lowered() {
        let p = ok("void f(int n, double *x, double s) {\n\
             #pragma acc parallel loop reduction(+:s)\n\
             for (int i = 0; i < n; i++) s += x[i];\n\
             }");
        let HostStmt::ParallelLoop(node) = &p.functions[0].body[0] else {
            panic!()
        };
        assert_eq!(node.reductions.len(), 1);
        assert_eq!(node.reductions[0].op, RmwOp::Add);
        assert!(matches!(
            node.body[0],
            ir::Stmt::ReduceScalar { slot: 0, .. }
        ));
    }

    #[test]
    fn reduction_explicit_form_lowered() {
        let p = ok("void f(int n, double *x, double s) {\n\
             #pragma acc parallel loop reduction(+:s)\n\
             for (int i = 0; i < n; i++) s = s + x[i];\n\
             }");
        let HostStmt::ParallelLoop(node) = &p.functions[0].body[0] else {
            panic!()
        };
        assert!(matches!(node.body[0], ir::Stmt::ReduceScalar { .. }));
    }

    #[test]
    fn reduction_min_via_call() {
        let p = ok("void f(int n, double *x, double s) {\n\
             #pragma acc parallel loop reduction(min:s)\n\
             for (int i = 0; i < n; i++) s = fmin(s, x[i]);\n\
             }");
        let HostStmt::ParallelLoop(node) = &p.functions[0].body[0] else {
            panic!()
        };
        assert!(matches!(
            node.body[0],
            ir::Stmt::ReduceScalar {
                op: RmwOp::Min,
                ..
            }
        ));
    }

    #[test]
    fn reduction_var_read_rejected() {
        err_containing(
            "void f(int n, double *x, double s) {\n\
             #pragma acc parallel loop reduction(+:s)\n\
             for (int i = 0; i < n; i++) x[i] = s;\n\
             }",
            "reduction variable",
        );
    }

    #[test]
    fn reduction_wrong_op_rejected() {
        err_containing(
            "void f(int n, double *x, double s) {\n\
             #pragma acc parallel loop reduction(+:s)\n\
             for (int i = 0; i < n; i++) s *= x[i];\n\
             }",
            "does not match",
        );
    }

    #[test]
    fn reductiontoarray_lowered_to_atomic() {
        let p = ok("void f(int n, int *m, double *e, double *v) {\n\
             #pragma acc parallel loop\n\
             for (int i = 0; i < n; i++) {\n\
             #pragma acc reductiontoarray(+: e[8])\n\
             e[m[i]] += v[i];\n\
             }\n\
             }");
        let HostStmt::ParallelLoop(node) = &p.functions[0].body[0] else {
            panic!()
        };
        assert_eq!(node.array_reductions.len(), 1);
        assert_eq!(node.array_reductions[0].op, RmwOp::Add);
        assert!(matches!(
            node.body[0],
            ir::Stmt::AtomicRmw {
                op: RmwOp::Add,
                ..
            }
        ));
    }

    #[test]
    fn reductiontoarray_explicit_form() {
        let p = ok("void f(int n, int *m, double *e, double *v) {\n\
             #pragma acc parallel loop\n\
             for (int i = 0; i < n; i++) {\n\
             #pragma acc reductiontoarray(min: e[8])\n\
             e[m[i]] = fmin(e[m[i]], v[i]);\n\
             }\n\
             }");
        let HostStmt::ParallelLoop(node) = &p.functions[0].body[0] else {
            panic!()
        };
        assert!(matches!(
            node.body[0],
            ir::Stmt::AtomicRmw {
                op: RmwOp::Min,
                ..
            }
        ));
    }

    #[test]
    fn reductiontoarray_wrong_array_rejected() {
        err_containing(
            "void f(int n, int *m, double *e, double *v) {\n\
             #pragma acc parallel loop\n\
             for (int i = 0; i < n; i++) {\n\
             #pragma acc reductiontoarray(+: v[8])\n\
             e[m[i]] += v[i];\n\
             }\n\
             }",
            "updates `e`",
        );
    }

    /// `f` with a `reduction(op:s)` loop whose body is `update`.
    fn scalar_reduction(op: &str, update: &str) -> String {
        format!(
            "void f(int n, double *x, double s) {{\n\
             #pragma acc parallel loop reduction({op}:s)\n\
             for (int i = 0; i < n; i++) {update};\n\
             }}"
        )
    }

    /// `f` with a loop whose body is `update` under `reductiontoarray(op: e[8])`.
    fn array_reduction(op: &str, update: &str) -> String {
        format!(
            "void f(int n, int *m, double *e, double *v) {{\n\
             #pragma acc parallel loop\n\
             for (int i = 0; i < n; i++) {{\n\
             #pragma acc reductiontoarray({op}: e[8])\n\
             {update};\n\
             }}\n\
             }}"
        )
    }

    /// The first statement of the first parallel loop's kernel body.
    fn first_kernel_stmt(src: &str) -> Option<ir::Stmt> {
        match &ok(src).functions[0].body[0] {
            HostStmt::ParallelLoop(node) => node.body.first().cloned(),
            _ => None,
        }
    }

    /// A lowered reduction update with its operator replaced by `op`.
    fn with_op(s: ir::Stmt, op: RmwOp) -> ir::Stmt {
        match s {
            ir::Stmt::ReduceScalar { slot, value, .. } => {
                ir::Stmt::ReduceScalar { slot, op, value }
            }
            ir::Stmt::AtomicRmw {
                buf, idx, value, ..
            } => ir::Stmt::AtomicRmw {
                buf,
                idx,
                op,
                value,
            },
            other => other,
        }
    }

    /// The frontend refuses `src` with exactly the one diagnostic `msg`.
    fn err_exactly(src: &str, msg: &str) {
        let ds = frontend(src).err().unwrap_or_default();
        let msgs: Vec<&str> = ds.iter().map(|d| d.message.as_str()).collect();
        assert_eq!(msgs, [msg], "{src}");
    }

    #[test]
    fn reduction_shapes_accepted_either_way_round() {
        let reference = first_kernel_stmt(&scalar_reduction("+", "s += x[i]"));
        assert!(matches!(
            reference,
            Some(ir::Stmt::ReduceScalar {
                slot: 0,
                op: RmwOp::Add,
                value: ir::Expr::Load { .. },
            })
        ));
        for (op, rmw, update) in [
            ("+", RmwOp::Add, "s = s + x[i]"),
            ("+", RmwOp::Add, "s = x[i] + s"),
            ("*", RmwOp::Mul, "s *= x[i]"),
            ("*", RmwOp::Mul, "s = x[i] * s"),
            ("min", RmwOp::Min, "s = fmin(x[i], s)"),
            ("max", RmwOp::Max, "s = fmax(s, x[i])"),
            ("max", RmwOp::Max, "s = fmax(x[i], s)"),
        ] {
            assert_eq!(
                first_kernel_stmt(&scalar_reduction(op, update)),
                reference.clone().map(|s| with_op(s, rmw)),
                "{update}"
            );
        }
    }

    #[test]
    fn reduction_shapes_refused() {
        let mismatch = |op| {
            format!("update of reduction variable `s` does not match its declared `{op}` operator")
        };
        for (op, rmw, update) in [
            ("+", "Add", "s -= x[i]"),
            ("+", "Add", "s = x[i] + x[i]"),
            ("+", "Add", "s = s * x[i]"),
            ("min", "Min", "s = fmax(s, x[i])"),
            ("min", "Min", "s = fmin(x[i], x[i])"),
        ] {
            err_exactly(&scalar_reduction(op, update), &mismatch(rmw));
        }
    }

    #[test]
    fn reductiontoarray_shapes_accepted_either_way_round() {
        let reference = first_kernel_stmt(&array_reduction("+", "e[m[i]] += v[i]"));
        assert!(matches!(
            reference,
            Some(ir::Stmt::AtomicRmw {
                idx: ir::Expr::Load { .. },
                op: RmwOp::Add,
                value: ir::Expr::Load { .. },
                ..
            })
        ));
        for (op, rmw, update) in [
            ("+", RmwOp::Add, "e[m[i]] = e[m[i]] + v[i]"),
            ("+", RmwOp::Add, "e[m[i]] = v[i] + e[m[i]]"),
            ("*", RmwOp::Mul, "e[m[i]] *= v[i]"),
            ("*", RmwOp::Mul, "e[m[i]] = v[i] * e[m[i]]"),
            ("min", RmwOp::Min, "e[m[i]] = fmin(v[i], e[m[i]])"),
            ("max", RmwOp::Max, "e[m[i]] = fmax(e[m[i]], v[i])"),
            ("max", RmwOp::Max, "e[m[i]] = fmax(v[i], e[m[i]])"),
        ] {
            assert_eq!(
                first_kernel_stmt(&array_reduction(op, update)),
                reference.clone().map(|s| with_op(s, rmw)),
                "{update}"
            );
        }
    }

    #[test]
    fn reductiontoarray_shapes_refused() {
        let wrong_op = "reductiontoarray statement does not match its declared operator";
        let no_read_back = "reductiontoarray statement must read back the same element";
        for (op, update, msg) in [
            ("+", "e[m[i]] -= v[i]", wrong_op),
            ("+", "e[m[i]] = e[m[i]] * v[i]", wrong_op),
            ("min", "e[m[i]] = fmax(e[m[i]], v[i])", wrong_op),
            ("+", "e[m[i]] = e[m[i] + 1] + v[i]", no_read_back),
            ("*", "e[m[i]] = v[i] * e[i]", no_read_back),
            ("min", "e[m[i]] = fmin(v[i], e[m[i] + 1])", no_read_back),
        ] {
            err_exactly(&array_reduction(op, update), msg);
        }
    }

    #[test]
    fn localaccess_resolved() {
        let p = ok("void f(int n, int s, double *x, double *y) {\n\
             #pragma acc localaccess(x) stride(s) left(1)\n\
             #pragma acc parallel loop\n\
             for (int i = 0; i < n; i++) y[i] = x[i*s];\n\
             }");
        let HostStmt::ParallelLoop(node) = &p.functions[0].body[0] else {
            panic!()
        };
        assert_eq!(node.localaccess.len(), 1);
        assert!(matches!(node.localaccess[0].stride, ir::Expr::Local(_)));
    }

    #[test]
    fn duplicate_localaccess_rejected() {
        err_containing(
            "void f(int n, double *x, double *y) {\n\
             #pragma acc localaccess(x)\n\
             #pragma acc localaccess(x) stride(2)\n\
             #pragma acc parallel loop\n\
             for (int i = 0; i < n; i++) y[i] = x[i];\n\
             }",
            "duplicate localaccess",
        );
    }

    #[test]
    fn nested_parallel_rejected() {
        err_containing(
            "void f(int n, double *x) {\n\
             #pragma acc parallel loop\n\
             for (int i = 0; i < n; i++) {\n\
             #pragma acc parallel loop\n\
             for (int j = 0; j < n; j++) x[j] = 1.0;\n\
             }\n\
             }",
            "nested parallel loops",
        );
    }

    #[test]
    fn host_for_desugars_to_while() {
        let p = ok("void f(int n, int a) { for (int k = 0; k < n; k++) a += 1; }");
        assert!(matches!(p.functions[0].body[1], HostStmt::While { .. }));
    }

    #[test]
    fn kernel_inner_for_desugars() {
        let p = ok("void f(int n, double *x) {\n\
             #pragma acc parallel loop\n\
             for (int i = 0; i < n; i++) {\n\
             double s = 0.0;\n\
             for (int j = 0; j < 4; j++) s += x[i*4+j];\n\
             x[i] = s;\n\
             }\n\
             }");
        let HostStmt::ParallelLoop(node) = &p.functions[0].body[0] else {
            panic!()
        };
        assert!(node
            .body
            .iter()
            .any(|s| matches!(s, ir::Stmt::While { .. })));
    }

    #[test]
    fn unknown_variable_reported() {
        err_containing("void f() { x = 1; }", "unknown variable");
    }

    #[test]
    fn unknown_function_reported() {
        err_containing("void f(double d) { d = mystery(d); }", "unknown function");
    }

    #[test]
    fn multidim_index_rejected() {
        err_containing(
            "void f(int n, double *x) { x[0][1] = 2.0; }",
            "1-D indexing",
        );
    }

    #[test]
    fn data_region_sections_resolved() {
        let p = ok("void f(int n, double *x) {\n\
             #pragma acc data copy(x[0:n])\n\
             {\n\
             #pragma acc parallel loop\n\
             for (int i = 0; i < n; i++) x[i] = 0.0;\n\
             }\n\
             }");
        let HostStmt::DataRegion { clauses, body } = &p.functions[0].body[0] else {
            panic!()
        };
        assert_eq!(clauses.len(), 1);
        assert_eq!(clauses[0].sections.len(), 1);
        assert_eq!(body.len(), 1);
    }

    #[test]
    fn update_resolved() {
        let p = ok("void f(int n, double *x) {\n\
             #pragma acc update host(x[0:n])\n\
             }");
        assert!(
            matches!(&p.functions[0].body[0], HostStmt::Update { host, .. } if host.len() == 1)
        );
    }

    #[test]
    fn return_value_rejected() {
        err_containing("void f(int a) { return a; }", "return with a value");
    }

    #[test]
    fn nonvoid_function_rejected() {
        err_containing("int f() { return 0; }", "only void functions");
    }

    #[test]
    fn assignment_as_value_rejected() {
        err_containing("void f(int a, int b) { a = b = 1; }", "assignment may not");
    }

    #[test]
    fn continue_in_for_rejected() {
        err_containing(
            "void f(int n, int a) { for (int i = 0; i < n; i++) { if (i) continue; a += 1; } }",
            "continue",
        );
    }

    #[test]
    fn shadowing_allowed_across_scopes() {
        ok("void f(int n) { int i = 0; { int i = 1; n = i; } n = i; }");
    }

    #[test]
    fn redeclaration_in_scope_rejected() {
        err_containing("void f() { int i; int i; }", "redeclared");
    }

    #[test]
    fn bool_condition_contexts() {
        ok("void f(int n, double d) { if (d) n = 1; while (n && d > 0.0) n = n - 1; }");
    }

    #[test]
    fn locals_include_kernel_temporaries() {
        let p = ok("void f(int n, double *x) {\n\
             #pragma acc parallel loop\n\
             for (int i = 0; i < n; i++) { double t = x[i]; x[i] = t * t; }\n\
             }");
        // n, i, t
        assert_eq!(p.functions[0].locals.len(), 3);
    }

    #[test]
    fn reductiontoarray_outside_loop_rejected() {
        err_containing(
            "void f(int n, double *e, double *v) {\n\
             #pragma acc reductiontoarray(+: e[8])\n\
             e[0] += v[0];\n\
             }",
            "inside a parallel loop",
        );
    }
}
