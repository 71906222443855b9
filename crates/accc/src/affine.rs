//! Affine (linear-in-thread-index) analysis of index expressions.
//!
//! The translator needs to know, per buffer access site, the shape of the
//! index as a function of the thread index `tid`:
//!
//! * stores of the strict form `s*tid + c` (both constant) are coalesced
//!   when `|s| <= 1` and stride-`|s|` otherwise — the write class the
//!   runtime prices;
//! * loads of the loose form `A*tid + B` — where `A`/`B` may be
//!   thread-invariant runtime values such as `i*nfeatures + j` in KMEANS —
//!   are *affine*: coalesced when `|A| == 1`, strided otherwise; these are
//!   exactly the accesses the 2-D layout transform (§IV-B4) can fix;
//! * anything involving a memory load in the index (`a[idx[i]]`) is
//!   irregular/gather.

use acc_kernel_ir::{BinOp, Expr, Ty, UnOp, Value};

/// A coefficient or offset in a linear form: a compile-time constant or a
/// thread-invariant runtime value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Coef {
    Const(i64),
    /// Thread-invariant but not known at compile time (locals, params).
    Dyn,
}

impl Coef {
    fn add(self, o: Coef) -> Option<Coef> {
        match (self, o) {
            (Coef::Const(a), Coef::Const(b)) => Some(Coef::Const(a + b)),
            (Coef::Const(0), d) | (d, Coef::Const(0)) => Some(d),
            // Dyn + Dyn or Dyn + nonzero-const is still thread-invariant
            // for offsets, but ambiguous for coefficients; callers decide.
            _ => Some(Coef::Dyn),
        }
    }

    fn neg(self) -> Coef {
        match self {
            Coef::Const(v) => Coef::Const(-v),
            Coef::Dyn => Coef::Dyn,
        }
    }

    fn mul(self, o: Coef) -> Coef {
        match (self, o) {
            (Coef::Const(a), Coef::Const(b)) => Coef::Const(a * b),
            (Coef::Const(0), _) | (_, Coef::Const(0)) => Coef::Const(0),
            _ => Coef::Dyn,
        }
    }

    fn is_zero(self) -> bool {
        self == Coef::Const(0)
    }
}

/// `coeff * tid + offset`, where each part is constant or thread-invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinForm {
    pub coeff: Coef,
    pub offset: Coef,
}

/// Strict linear form with compile-time-constant coefficients.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Linear {
    pub coeff: i64,
    pub offset: i64,
}

/// Try to express `e` as `A*tid + B` with thread-invariant `A`, `B`.
/// Returns `None` when the index involves memory loads, calls, or
/// non-linear uses of `tid`.
pub fn linear_form(e: &Expr) -> Option<LinForm> {
    match e {
        Expr::Imm(Value::I32(v)) => Some(LinForm {
            coeff: Coef::Const(0),
            offset: Coef::Const(*v as i64),
        }),
        Expr::Imm(_) => None,
        Expr::Local(_) | Expr::Param(_) => Some(LinForm {
            coeff: Coef::Const(0),
            offset: Coef::Dyn,
        }),
        Expr::ThreadIdx => Some(LinForm {
            coeff: Coef::Const(1),
            offset: Coef::Const(0),
        }),
        Expr::Cast { ty: Ty::I32, a } => linear_form(a),
        Expr::Cast { .. } => None,
        Expr::Unary { op: UnOp::Neg, a } => {
            let l = linear_form(a)?;
            Some(LinForm {
                coeff: l.coeff.neg(),
                offset: l.offset.neg(),
            })
        }
        Expr::Unary { .. } => None,
        Expr::Binary { op, a, b } => {
            let la = linear_form(a)?;
            let lb = linear_form(b)?;
            match op {
                BinOp::Add => Some(LinForm {
                    coeff: la.coeff.add(lb.coeff)?,
                    offset: la.offset.add(lb.offset)?,
                }),
                BinOp::Sub => Some(LinForm {
                    coeff: la.coeff.add(lb.coeff.neg())?,
                    offset: la.offset.add(lb.offset.neg())?,
                }),
                BinOp::Mul => {
                    // Linear only when at least one side is tid-free.
                    if la.coeff.is_zero() {
                        multiply(la, lb)
                    } else if lb.coeff.is_zero() {
                        multiply(lb, la)
                    } else {
                        None
                    }
                }
                // Other integer ops on tid-free operands are still
                // thread-invariant; with tid involved they are non-linear.
                _ => {
                    if la.coeff.is_zero() && lb.coeff.is_zero() {
                        Some(LinForm {
                            coeff: Coef::Const(0),
                            offset: Coef::Dyn,
                        })
                    } else {
                        None
                    }
                }
            }
        }
        _ => None,
    }
}

/// `factor` is tid-free; multiply it into `lin`.
fn multiply(factor: LinForm, lin: LinForm) -> Option<LinForm> {
    Some(LinForm {
        coeff: factor.offset.mul(lin.coeff),
        offset: factor.offset.mul(lin.offset),
    })
}

/// Strict constant linear form: the store classes of
/// [`crate::analysis::BufUsage`] and the constant pieces of
/// [`crate::range`] and [`crate::infer`].
pub fn linear_in_tid(e: &Expr) -> Option<Linear> {
    match linear_form(e)? {
        LinForm {
            coeff: Coef::Const(a),
            offset: Coef::Const(b),
        } => Some(Linear { coeff: a, offset: b }),
        _ => None,
    }
}

/// Classification of one buffer-access site for the coalescing model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPattern {
    /// `A == 0`: every thread touches the same (or a thread-invariant)
    /// element; served from cache.
    Broadcast,
    /// `|A| == 1`: fully coalesced.
    Coalesced,
    /// Constant `|A| > 1`: strided with that stride.
    Strided(u64),
    /// Affine with a runtime stride (e.g. `i*nfeatures + j`).
    StridedDyn,
    /// Not affine in the thread index: random/gather.
    Irregular,
}

impl AccessPattern {
    /// Affine patterns are eligible for the 2-D layout transform.
    pub fn is_affine(self) -> bool {
        !matches!(self, AccessPattern::Irregular)
    }
}

/// Classify an index expression.
pub fn classify(e: &Expr) -> AccessPattern {
    match linear_form(e) {
        Some(l) => match l.coeff {
            Coef::Const(0) => AccessPattern::Broadcast,
            Coef::Const(a) if a.unsigned_abs() == 1 => AccessPattern::Coalesced,
            Coef::Const(a) => AccessPattern::Strided(a.unsigned_abs()),
            Coef::Dyn => AccessPattern::StridedDyn,
        },
        None => AccessPattern::Irregular,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acc_kernel_ir::{BufId, Expr, LocalId};

    #[test]
    fn recognizes_plain_tid() {
        assert_eq!(
            linear_in_tid(&Expr::ThreadIdx),
            Some(Linear { coeff: 1, offset: 0 })
        );
    }

    #[test]
    fn recognizes_affine_combinations() {
        // 3*tid + 2
        let e = Expr::add(
            Expr::mul(Expr::imm_i32(3), Expr::ThreadIdx),
            Expr::imm_i32(2),
        );
        assert_eq!(linear_in_tid(&e), Some(Linear { coeff: 3, offset: 2 }));
        // tid*4 - 1
        let e = Expr::sub(
            Expr::mul(Expr::ThreadIdx, Expr::imm_i32(4)),
            Expr::imm_i32(1),
        );
        assert_eq!(linear_in_tid(&e), Some(Linear { coeff: 4, offset: -1 }));
        // (tid + 1) * 2
        let e = Expr::mul(
            Expr::add(Expr::ThreadIdx, Expr::imm_i32(1)),
            Expr::imm_i32(2),
        );
        assert_eq!(linear_in_tid(&e), Some(Linear { coeff: 2, offset: 2 }));
    }

    #[test]
    fn dynamic_offset_is_still_affine() {
        // tid*8 + j  (j a local) — the 2-D access pattern.
        let e = Expr::add(
            Expr::mul(Expr::ThreadIdx, Expr::imm_i32(8)),
            Expr::Local(LocalId(3)),
        );
        assert_eq!(linear_in_tid(&e), None); // not strictly constant
        assert_eq!(classify(&e), AccessPattern::Strided(8));
    }

    #[test]
    fn dynamic_stride_detected() {
        // tid*nf + j  (nf, j locals) — KMEANS features.
        let e = Expr::add(
            Expr::mul(Expr::ThreadIdx, Expr::Local(LocalId(1))),
            Expr::Local(LocalId(3)),
        );
        assert_eq!(classify(&e), AccessPattern::StridedDyn);
        assert!(classify(&e).is_affine());
    }

    #[test]
    fn rejects_nonlinear_and_loads() {
        // tid * tid
        let e = Expr::mul(Expr::ThreadIdx, Expr::ThreadIdx);
        assert_eq!(classify(&e), AccessPattern::Irregular);
        // a[idx[tid]]
        let e = Expr::load(BufId(0), Expr::ThreadIdx);
        assert_eq!(classify(&e), AccessPattern::Irregular);
    }

    #[test]
    fn thread_invariant_is_broadcast() {
        assert_eq!(classify(&Expr::imm_i32(7)), AccessPattern::Broadcast);
        assert_eq!(
            classify(&Expr::Local(LocalId(0))),
            AccessPattern::Broadcast
        );
        // j % 4 — nonlinear but tid-free.
        let e = Expr::bin(
            acc_kernel_ir::BinOp::Rem,
            Expr::Local(LocalId(0)),
            Expr::imm_i32(4),
        );
        assert_eq!(classify(&e), AccessPattern::Broadcast);
    }

    #[test]
    fn negation_flips_sign() {
        let e = Expr::Unary {
            op: UnOp::Neg,
            a: Box::new(Expr::ThreadIdx),
        };
        assert_eq!(linear_in_tid(&e), Some(Linear { coeff: -1, offset: 0 }));
        assert_eq!(classify(&e), AccessPattern::Coalesced);
    }

    #[test]
    fn rem_of_tid_is_irregular() {
        let e = Expr::bin(
            acc_kernel_ir::BinOp::Rem,
            Expr::ThreadIdx,
            Expr::imm_i32(4),
        );
        assert_eq!(classify(&e), AccessPattern::Irregular);
    }

    #[test]
    fn cast_to_i32_is_transparent() {
        let e = Expr::Cast {
            ty: Ty::I32,
            a: Box::new(Expr::ThreadIdx),
        };
        assert_eq!(linear_in_tid(&e), Some(Linear { coeff: 1, offset: 0 }));
    }
}
