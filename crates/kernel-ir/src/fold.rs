//! Constant folding and algebraic simplification.
//!
//! The translator runs this after index rewriting so that e.g.
//! `i * 1 + 0` collapses back to `i`, keeping the instrumentation cost
//! model honest (a folded expression costs what the generated CUDA would).

use crate::interp::{rmw_apply, ExecError};
use crate::{BinOp, Expr, UnOp, Value};

/// Fold constants and apply simple identities throughout `e`.
pub fn fold_expr(e: Expr) -> Expr {
    e.map(&mut fold_node)
}

fn fold_node(e: Expr) -> Expr {
    match e {
        Expr::Unary { op, a } => match (&op, a.as_ref()) {
            (UnOp::Neg, Expr::Imm(v)) => match v {
                Value::I32(x) => Expr::Imm(Value::I32(x.wrapping_neg())),
                Value::F32(x) => Expr::Imm(Value::F32(-x)),
                Value::F64(x) => Expr::Imm(Value::F64(-x)),
                _ => Expr::Unary { op, a },
            },
            (UnOp::Not, Expr::Imm(v)) => match v.as_bool() {
                Some(b) => Expr::Imm(Value::Bool(!b)),
                None => Expr::Unary { op, a },
            },
            _ => Expr::Unary { op, a },
        },
        Expr::Binary { op, a, b } => fold_binary(op, *a, *b),
        Expr::Cast { ty, a } => match a.as_ref() {
            Expr::Imm(v) => Expr::Imm(v.cast(ty)),
            // A same-type cast of a non-constant operand is NOT elided:
            // the interpreter charges one int op per executed `Cast`, so
            // dropping the node would change a kernel's priced cost
            // depending on whether folding ran.
            _ => Expr::Cast { ty, a },
        },
        Expr::Select { c, t, f } => match c.as_ref() {
            Expr::Imm(v) => match v.as_bool() {
                Some(true) => *t,
                Some(false) => *f,
                None => Expr::Select { c, t, f },
            },
            _ => Expr::Select { c, t, f },
        },
        other => other,
    }
}

fn fold_binary(op: BinOp, a: Expr, b: Expr) -> Expr {
    use BinOp::*;
    // Constant-constant folding (reusing the interpreter's arithmetic so
    // the semantics stay identical); skip on errors (e.g. divide by zero —
    // leave those for runtime reporting).
    if let (Expr::Imm(x), Expr::Imm(y)) = (&a, &b) {
        if let Ok(v) = const_binary(op, *x, *y) {
            return Expr::Imm(v);
        }
    }
    // Algebraic identities on integer/float zero and one. Only identities
    // valid for IEEE floats too are applied (x*1, x+0, x-0, 0+x, 1*x),
    // and only when the immediate's type is compatible with the other
    // operand's (statically derivable) type — folding must never turn an
    // ill-typed expression into a value.
    let is_zero = |e: &Expr| matches!(e, Expr::Imm(v) if matches!(v, Value::I32(0)) || matches!(v, Value::F32(x) if *x == 0.0) || matches!(v, Value::F64(x) if *x == 0.0));
    let is_one = |e: &Expr| matches!(e, Expr::Imm(v) if matches!(v, Value::I32(1)) || matches!(v, Value::F32(x) if *x == 1.0) || matches!(v, Value::F64(x) if *x == 1.0));
    let compatible = |imm: &Expr, other: &Expr| -> bool {
        match (imm, expr_static_ty(other)) {
            (Expr::Imm(v), Some(t)) => v.ty() == t,
            (_, None) => true,
            _ => false,
        }
    };
    match op {
        Add if is_zero(&a) && compatible(&a, &b) => return b,
        Add | Sub if is_zero(&b) && compatible(&b, &a) => return a,
        Mul if is_one(&a) && compatible(&a, &b) => return b,
        Mul | Div if is_one(&b) && compatible(&b, &a) => return a,
        _ => {}
    }
    Expr::bin(op, a, b)
}

fn const_binary(op: BinOp, a: Value, b: Value) -> Result<Value, ExecError> {
    // Reuse rmw for the overlapping ops; otherwise inline the same logic the
    // interpreter uses via a tiny local evaluation.
    match op {
        BinOp::Add => rmw_apply(crate::RmwOp::Add, a, b),
        BinOp::Mul => rmw_apply(crate::RmwOp::Mul, a, b),
        BinOp::Sub => match (a, b) {
            (Value::I32(x), Value::I32(y)) => Ok(Value::I32(x.wrapping_sub(y))),
            (Value::F32(x), Value::F32(y)) => Ok(Value::F32(x - y)),
            (Value::F64(x), Value::F64(y)) => Ok(Value::F64(x - y)),
            _ => Err(ExecError::TypeError("const sub".into())),
        },
        BinOp::Div => match (a, b) {
            (Value::I32(x), Value::I32(y)) if y != 0 => Ok(Value::I32(x.wrapping_div(y))),
            (Value::F32(x), Value::F32(y)) => Ok(Value::F32(x / y)),
            (Value::F64(x), Value::F64(y)) => Ok(Value::F64(x / y)),
            _ => Err(ExecError::DivByZero),
        },
        BinOp::Rem => match (a, b) {
            (Value::I32(x), Value::I32(y)) if y != 0 => Ok(Value::I32(x.wrapping_rem(y))),
            _ => Err(ExecError::DivByZero),
        },
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne => {
            match (a, b) {
                (Value::I32(x), Value::I32(y)) => Ok(Value::Bool(int_cmp(op, x, y))),
                _ => Err(ExecError::TypeError("const cmp".into())),
            }
        }
        _ => Err(ExecError::TypeError("unfoldable".into())),
    }
}

fn int_cmp(op: BinOp, x: i32, y: i32) -> bool {
    match op {
        BinOp::Lt => x < y,
        BinOp::Le => x <= y,
        BinOp::Gt => x > y,
        BinOp::Ge => x >= y,
        BinOp::Eq => x == y,
        BinOp::Ne => x != y,
        _ => unreachable!(),
    }
}

/// Best-effort static type of an expression when derivable without context
/// (immediates and casts only). Used to guard the algebraic identities
/// against mixed-type operands.
fn expr_static_ty(e: &Expr) -> Option<crate::Ty> {
    match e {
        Expr::Imm(v) => Some(v.ty()),
        Expr::Cast { ty, .. } => Some(*ty),
        Expr::ThreadIdx => Some(crate::Ty::I32),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Expr;

    #[test]
    fn folds_constants() {
        let e = Expr::add(Expr::imm_i32(2), Expr::mul(Expr::imm_i32(3), Expr::imm_i32(4)));
        assert_eq!(fold_expr(e), Expr::imm_i32(14));
    }

    #[test]
    fn folds_identities() {
        let e = Expr::add(Expr::mul(Expr::ThreadIdx, Expr::imm_i32(1)), Expr::imm_i32(0));
        assert_eq!(fold_expr(e), Expr::ThreadIdx);
    }

    #[test]
    fn keeps_div_by_zero_for_runtime() {
        let e = Expr::bin(BinOp::Div, Expr::imm_i32(1), Expr::imm_i32(0));
        // Must not fold away — runtime reports the error.
        assert!(matches!(fold_expr(e), Expr::Binary { .. }));
    }

    #[test]
    fn folds_select() {
        let e = Expr::Select {
            c: Box::new(Expr::bin(BinOp::Lt, Expr::imm_i32(1), Expr::imm_i32(2))),
            t: Box::new(Expr::imm_i32(10)),
            f: Box::new(Expr::imm_i32(20)),
        };
        assert_eq!(fold_expr(e), Expr::imm_i32(10));
    }

    #[test]
    fn folds_cast_of_const() {
        let e = Expr::Cast {
            ty: crate::Ty::F64,
            a: Box::new(Expr::imm_i32(3)),
        };
        assert_eq!(fold_expr(e), Expr::imm_f64(3.0));
    }

    #[test]
    fn keeps_redundant_cast_for_pricing() {
        // `(int)threadIdx` is a no-op value-wise, but the interpreter
        // charges an int op per executed cast; folding must not change
        // what a kernel is priced at.
        let e = Expr::Cast {
            ty: crate::Ty::I32,
            a: Box::new(Expr::ThreadIdx),
        };
        assert_eq!(
            fold_expr(e.clone()),
            e,
            "redundant cast of a non-constant operand must survive folding"
        );
    }

    #[test]
    fn folding_preserves_executed_counters() {
        // Regression test for the cast-elision counter bug: run the same
        // kernel body folded and unfolded through the walker and require
        // identical `OpCounters`. (Constant subtrees are excluded — those
        // fold at translation time in real compilers too.)
        use crate::interp::run_kernel_range_ast;
        use crate::kernel::{BufAccess, BufParam, Kernel};
        use crate::{BufId, Buffer, BufSlot, ExecCtx, Stmt, Ty};

        let body = |value: Expr| {
            vec![Stmt::Store {
                buf: BufId(0),
                idx: Expr::ThreadIdx,
                value,
                dirty: false,
                checked: false,
            }]
        };
        // (int)tid + (double->int of a same-type-cast chain): every cast
        // here is redundant value-wise but costs one int op when executed.
        let e = Expr::add(
            Expr::Cast {
                ty: Ty::I32,
                a: Box::new(Expr::ThreadIdx),
            },
            Expr::Cast {
                ty: Ty::I32,
                a: Box::new(Expr::Cast {
                    ty: Ty::I32,
                    a: Box::new(Expr::ThreadIdx),
                }),
            },
        );
        let run = |value: Expr| {
            let k = Kernel {
                name: "cast_price".into(),
                params: vec![],
                bufs: vec![BufParam {
                    name: "o".into(),
                    ty: Ty::I32,
                    access: BufAccess::Write,
                }],
                locals: vec![],
                reductions: vec![],
                body: body(value),
            };
            let mut o = Buffer::zeroed(Ty::I32, 8);
            let mut ctx = ExecCtx::new(&k, vec![], vec![BufSlot::whole(&mut o)]);
            run_kernel_range_ast(&k, &mut ctx, 0, 8).unwrap();
            (ctx.counters, o.bytes().to_vec())
        };
        let (c_raw, b_raw) = run(e.clone());
        let (c_folded, b_folded) = run(fold_expr(e));
        assert_eq!(b_raw, b_folded);
        assert_eq!(c_raw, c_folded, "folding changed executed counters");
        assert_eq!(c_raw.int_ops, 8 * (3 + 1 + 1)); // per thread: 3 casts + add + store
    }

    #[test]
    fn float_zero_add_identity_safe() {
        // x + 0.0 -> x is IEEE-safe for the values our programs produce
        // (we accept the -0.0 + 0.0 edge case as the paper's compilers do
        // under fast-math-free -O2 with constant RHS zero elision).
        let e = Expr::add(Expr::Local(crate::LocalId(0)), Expr::imm_f64(0.0));
        assert_eq!(fold_expr(e), Expr::Local(crate::LocalId(0)));
    }
}
