//! The statically typed register tier: a tree-to-register VM on an
//! untagged frame.
//!
//! A [`Kernel`] declares the type of every local, parameter, buffer and
//! reduction, so the type of every expression node is known before the
//! first thread runs. [`compile`] walks the statement tree once,
//! computing each node's [`Ty`] bottom-up, and emits one
//! type-specialised three-address `Op` per *interior* node. It is the
//! one place a kernel is typed, and it refuses — with a
//! [`ValidationError`] naming the kernel and the rule — any kernel the
//! AST walker could answer with a dynamic `TypeError`: operand types
//! that differ, a non-`I32` index, an `Assign` whose value type is not
//! the local's declared type, `Select` arms of different types, an
//! `AtomicRmw` / `ReduceScalar` value that is not the buffer's /
//! reduction's type, float `Rem` or bitwise ops, `Neg` on `Bool`, `Abs`
//! on non-`I32`, a `Bool` builtin argument, a condition that is neither
//! `Bool` nor `I32` — and a kernel that fails [`Kernel::validate`] or
//! whose frame is wider than `u16` slots. A launch must bind values of
//! the declared types ([`launch_types_match`]); the runtime refuses one
//! that does not.
//!
//! **Frame.** One `[[u64; N]]` per launch share, a row per slot and a
//! column per lane, laid out `[locals | tid | params | consts | temps]`,
//! holding raw bits: `i32` zero-extended, `f32` / `f64` bit patterns,
//! `bool` 0/1. Params and consts are broadcast once per [`run_compiled`];
//! locals are zeroed and `tid` set once per thread or batch. Every *leaf*
//! (`Local`, `Param`, `Imm`, `ThreadIdx`) therefore already is a slot
//! and costs no instruction. Temps are handed out by expression depth
//! and released by the parent node.
//!
//! **Fused `Assign`.** The root op of an `Assign`'s value writes the
//! local directly and carries the `Assign`'s own `int_ops` charge (the
//! `x` of `R2` / `R3`), applied after the op's last fault point.
//! This is safe although the local may occur in its own value
//! (`x = x * 2 + x`, `x = a[x]`): expressions are pure, inner nodes
//! write temps, and only the root — for `Select` / `&&` / `||` the last
//! op of the taken arm — writes the destination, after every read.
//!
//! **Counters.** Each op charges [`OpCounters`] inline, in the walker's
//! post-order, with the increment chosen at compile time from the static
//! type, times the lanes that ran it. A failing run has therefore
//! tallied exactly what the walker tallied when it stopped. Every check
//! of the walker stays where the walker has it: window bounds, the
//! checked-store miss path (whose `MissRecord` keeps the uncast value),
//! dirty marks, the sanitizer audits, `DivByZero` after `special_ops`.
//!
//! **Lane batches.** A kernel that [may batch](RegCompiled::may_batch)
//! runs an unsanitized launch [`LANES`] threads per dispatch, and splits
//! into one-lane threads, in tid order, at the first op a lane could
//! fault on, the lanes disagree on, or a batch does not run; see
//! `docs/kernel-ir.md` for the store buffer and the counter rollback.
//! Lanes that disagree at an `If` whose arms hold only pure ops (no
//! fault point, no buffer access, no branch) stay together: each arm
//! runs in every lane, the locals it writes are put back in the lanes
//! that did not take it, and its charge goes to those that did and to
//! their per-lane ledger, which a later split hands back lane by lane.

use crate::expr::{BinOp, Builtin, Expr, UnOp};
use crate::interp::{
    eval_builtin, rmw_apply, sanitize_load, sanitize_store, BufSlot, ExecCtx, ExecError, MissRecord,
};
use crate::kernel::{Kernel, ValidationError};
use crate::stmt::{RmwOp, Stmt};
use crate::ty::{Ty, Value};
use crate::OpCounters;

/// `frame[d] = ∘ frame[a]`, then `x` more `int_ops`: the charge of the
/// `Assign` this op is the root of (0 for an inner node).
#[derive(Debug, Clone, Copy)]
struct R2 {
    d: u16,
    a: u16,
    x: u8,
}

/// `frame[d] = frame[a] ∘ frame[b]`; `x` as in [`R2`].
#[derive(Debug, Clone, Copy)]
struct R3 {
    d: u16,
    a: u16,
    b: u16,
    x: u8,
}

/// One instruction. Suffixes name the static operand type: `I` = `i32`,
/// `S` = `f32`, `D` = `f64`. Jump targets are absolute indices.
#[derive(Debug, Clone, Copy)]
enum Op {
    AddI(R3),
    SubI(R3),
    MulI(R3),
    DivI(R3),
    RemI(R3),
    AndI(R3),
    OrI(R3),
    XorI(R3),
    ShlI(R3),
    ShrI(R3),
    AddS(R3),
    SubS(R3),
    MulS(R3),
    DivS(R3),
    AddD(R3),
    SubD(R3),
    MulD(R3),
    DivD(R3),
    /// Comparisons produce 0/1. `CmpI` also serves `Bool` operands,
    /// whose 0/1 bits order like the walker's `false < true`.
    CmpI(BinOp, R3),
    CmpS(BinOp, R3),
    CmpD(BinOp, R3),
    NegI(R2),
    NegS(R2),
    NegD(R2),
    /// Logical not of an `I32` or a `Bool`: `d = (a == 0)`.
    Not(R2),
    BitNot(R2),
    /// Copy a leaf; charges `x` only (a same-type `Cast` is a `Mov`
    /// whose `x` includes the cast's own charge).
    Mov(R2),
    /// Normalise an `I32` right-hand side of `&&` / `||` in place.
    Truth(u16),
    Cast {
        from: Ty,
        to: Ty,
        r: R2,
    },
    Call1 {
        f: Builtin,
        ta: Ty,
        r: R2,
    },
    Call2 {
        f: Builtin,
        ta: Ty,
        tb: Ty,
        r: R3,
    },
    /// 4- / 8-byte little-endian load; `r.a` is the index slot.
    Load4 {
        buf: u16,
        r: R2,
    },
    Load8 {
        buf: u16,
        r: R2,
    },
    Store {
        buf: u16,
        idx: u16,
        val: u16,
        vty: Ty,
        bty: Ty,
        dirty: bool,
        checked: bool,
    },
    Atomic {
        buf: u16,
        idx: u16,
        val: u16,
        ty: Ty,
        op: RmwOp,
    },
    Reduce {
        slot: u16,
        val: u16,
        ty: Ty,
        op: RmwOp,
    },
    Jump(u32),
    /// Count a branch; jump when `a` (a `Bool` or an `I32`) is zero.
    BrZero {
        a: u16,
        t: u32,
    },
    /// A comparison fused with the branch on it: charge the compare by
    /// type, count a branch, jump when the comparison is false.
    BrCmpI {
        cmp: BinOp,
        a: u16,
        b: u16,
        t: u32,
    },
    BrCmpS {
        cmp: BinOp,
        a: u16,
        b: u16,
        t: u32,
    },
    BrCmpD {
        cmp: BinOp,
        a: u16,
        b: u16,
        t: u32,
    },
    Ret,
}

impl Op {
    /// The slot a pure op writes: one that cannot fault, touches no
    /// buffer and does not branch. `None` for any other op.
    fn pure_dest(&self) -> Option<u16> {
        use Op::*;
        match *self {
            AddI(r) | SubI(r) | MulI(r) | AndI(r) | OrI(r) | XorI(r) | ShlI(r) => Some(r.d),
            ShrI(r) | AddS(r) | SubS(r) | MulS(r) | DivS(r) | AddD(r) | SubD(r) => Some(r.d),
            MulD(r) | DivD(r) | CmpI(_, r) | CmpS(_, r) | CmpD(_, r) => Some(r.d),
            NegI(r) | NegS(r) | NegD(r) | Not(r) | BitNot(r) | Mov(r) | Cast { r, .. } => Some(r.d),
            Truth(d) => Some(d),
            _ => None,
        }
    }

    fn target_mut(&mut self) -> Option<&mut u32> {
        match self {
            Op::Jump(t)
            | Op::BrZero { t, .. }
            | Op::BrCmpI { t, .. }
            | Op::BrCmpS { t, .. }
            | Op::BrCmpD { t, .. } => Some(t),
            _ => None,
        }
    }
}

/// An `If` whose arms a batch runs masked rather than splitting on.
#[derive(Debug, Clone)]
struct Mask {
    /// The `If`'s branch.
    br: u32,
    /// The then-arm's and the else-arm's ops, each followed by `Ret`;
    /// `None` for an empty arm.
    arms: [Option<Vec<Op>>; 2],
    /// The locals either arm writes (its temps die with the `If`).
    writes: Vec<u16>,
    /// The first op after the `If`.
    join: u32,
}

/// A kernel compiled for the register tier.
#[derive(Debug, Clone)]
pub struct RegCompiled {
    code: Vec<Op>,
    /// The maskable `If`s, by branch.
    masks: Vec<Mask>,
    /// Bit patterns of the frame's constant section, sorted.
    consts: Vec<u64>,
    nlocals: usize,
    nslots: usize,
    /// Whether threads may run in lane batches: no thread can observe
    /// another inside a launch (see [`compile`]).
    batch: bool,
}

impl RegCompiled {
    /// Whether [`run_compiled`] may run this kernel's threads in lane
    /// batches (it does when the launch is also unsanitized).
    pub fn may_batch(&self) -> bool {
        self.batch
    }
}

#[inline]
fn geti(x: u64) -> i32 {
    x as u32 as i32
}
#[inline]
fn puti(v: i32) -> u64 {
    v as u32 as u64
}
#[inline]
fn gets(x: u64) -> f32 {
    f32::from_bits(x as u32)
}
#[inline]
fn puts(v: f32) -> u64 {
    v.to_bits() as u64
}

/// The frame representation of a value: its little-endian bytes, as a
/// buffer holds them, zero-extended to a word.
fn bits(v: Value) -> u64 {
    let mut word = [0u8; 8];
    v.write_le(&mut word);
    u64::from_le_bytes(word)
}

/// The value a frame word of static type `ty` stands for.
fn value(ty: Ty, x: u64) -> Value {
    Value::read_le(ty, &x.to_le_bytes())
}

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

/// A typing step's result; `Err` names the rule the kernel breaks.
type Typed<T> = Result<T, String>;

struct LoopFrame {
    head: u32,
    breaks: Vec<usize>,
}

struct Compiler<'k> {
    k: &'k Kernel,
    code: Vec<Op>,
    consts: Vec<u64>,
    tid: u16,
    param0: u16,
    const0: u16,
    temp0: usize,
    /// Temps in use by the expression being compiled, and the most any
    /// expression used.
    temps: usize,
    max_temps: usize,
    loops: Vec<LoopFrame>,
    masks: Vec<Mask>,
}

/// Compile a kernel for the register tier, or refuse it when it fails
/// [`Kernel::validate`] or cannot be statically typed (see the module
/// docs). The error names the kernel and the rule it breaks.
pub fn compile(k: &Kernel) -> Result<RegCompiled, ValidationError> {
    let refuse = |why: String| ValidationError(format!("kernel `{}`: {why}", k.name));
    k.validate().map_err(|e| refuse(e.0))?;
    // 0 and 1 are always present: the results of a short-circuit.
    let mut consts = vec![0, 1];
    for s in &k.body {
        s.visit_exprs(&mut |e| {
            if let Expr::Imm(v) = e {
                consts.push(bits(*v));
            }
        });
    }
    consts.sort_unstable();
    consts.dedup();
    let nlocals = k.locals.len();
    let temp0 = nlocals + 1 + k.params.len() + consts.len();
    // Every fixed slot, buffer and reduction index must fit an operand.
    let widest = temp0.max(k.bufs.len()).max(k.reductions.len());
    u16::try_from(widest).map_err(|_| refuse(format!("{widest} frame slots exceed u16")))?;
    let mut c = Compiler {
        k,
        code: Vec::new(),
        tid: nlocals as u16,
        param0: nlocals as u16 + 1,
        const0: (temp0 - consts.len()) as u16,
        consts,
        temp0,
        temps: 0,
        max_temps: 0,
        loops: Vec::new(),
        masks: Vec::new(),
    };
    c.block(&k.body).map_err(refuse)?;
    c.emit(Op::Ret);
    // Lanes may batch when no thread can observe another: no atomics, no
    // scalar reductions, and no buffer both loaded and stored.
    let mut loaded = vec![false; k.bufs.len()];
    for op in &c.code {
        if let Op::Load4 { buf, .. } | Op::Load8 { buf, .. } = op {
            loaded[*buf as usize] = true;
        }
    }
    let batch = c.code.iter().all(|op| match op {
        Op::Atomic { .. } | Op::Reduce { .. } => false,
        Op::Store { buf, .. } => !loaded[*buf as usize],
        _ => true,
    });
    // Maskable arms hold no branch, so their `If`s do not nest and are
    // recorded in branch order.
    Ok(RegCompiled {
        batch,
        masks: c.masks,
        code: c.code,
        consts: c.consts,
        nlocals,
        nslots: temp0 + c.max_temps,
    })
}

/// The result type of `f` on arguments of types `args`, mirroring
/// `eval_builtin`'s dynamic rules.
fn builtin_ty(f: Builtin, args: &[Ty]) -> Typed<Ty> {
    Ok(match (f, args) {
        _ if args.contains(&Ty::Bool) => return Err(format!("{f:?} of a bool")),
        (Builtin::Abs, [Ty::I32]) => Ty::I32,
        (Builtin::Abs, _) => return Err(format!("Abs of {}", args[0])),
        (Builtin::Min | Builtin::Max, [Ty::I32, Ty::I32]) => Ty::I32,
        // Everything else computes in f64 and returns at the first
        // argument's precision.
        (_, [Ty::F32, ..]) => Ty::F32,
        _ => Ty::F64,
    })
}

fn arith(op: BinOp, ty: Ty, r: R3) -> Typed<Op> {
    use BinOp::*;
    Ok(match (op, ty) {
        (Add, Ty::I32) => Op::AddI(r),
        (Sub, Ty::I32) => Op::SubI(r),
        (Mul, Ty::I32) => Op::MulI(r),
        (Div, Ty::I32) => Op::DivI(r),
        (Rem, Ty::I32) => Op::RemI(r),
        (And, Ty::I32) => Op::AndI(r),
        (Or, Ty::I32) => Op::OrI(r),
        (Xor, Ty::I32) => Op::XorI(r),
        (Shl, Ty::I32) => Op::ShlI(r),
        (Shr, Ty::I32) => Op::ShrI(r),
        (Add, Ty::F32) => Op::AddS(r),
        (Sub, Ty::F32) => Op::SubS(r),
        (Mul, Ty::F32) => Op::MulS(r),
        (Div, Ty::F32) => Op::DivS(r),
        (Add, Ty::F64) => Op::AddD(r),
        (Sub, Ty::F64) => Op::SubD(r),
        (Mul, Ty::F64) => Op::MulD(r),
        (Div, Ty::F64) => Op::DivD(r),
        _ => return Err(format!("{op:?} on {ty}")),
    })
}

impl Compiler<'_> {
    fn emit(&mut self, op: Op) -> usize {
        self.code.push(op);
        self.code.len() - 1
    }

    /// Point the branch at `at` to the next instruction emitted.
    fn patch(&mut self, at: usize) {
        let here = self.code.len() as u32;
        if let Some(t) = self.code[at].target_mut() {
            *t = here;
        }
    }

    /// The slot holding `e`'s value and its type: the leaf's own slot,
    /// or a fresh temp the caller releases.
    fn operand(&mut self, e: &Expr) -> Typed<(u16, Ty)> {
        Ok(match e {
            Expr::Imm(v) => {
                let i = (self.consts.binary_search(&bits(*v)))
                    .map_err(|_| "immediate missing from the constant pool")?;
                (self.const0 + i as u16, v.ty())
            }
            Expr::Local(l) => (l.0 as u16, self.k.locals[l.0 as usize]),
            Expr::Param(p) => (self.param0 + p.0 as u16, self.k.params[p.0 as usize].ty),
            Expr::ThreadIdx => (self.tid, Ty::I32),
            _ => {
                let d = u16::try_from(self.temp0 + self.temps)
                    .map_err(|_| "temps exceed u16 frame slots")?;
                self.temps += 1;
                self.max_temps = self.max_temps.max(self.temps);
                (d, self.into(e, d, 0)?)
            }
        })
    }

    fn index(&mut self, e: &Expr) -> Typed<u16> {
        let (s, ty) = self.operand(e)?;
        if ty != Ty::I32 {
            return Err(format!("index of type {ty}"));
        }
        Ok(s)
    }

    /// Compile `e` so that the last op executed writes its value to `d`
    /// and charges `x` further `int_ops`. Returns `e`'s type.
    fn into(&mut self, e: &Expr, d: u16, x: u8) -> Typed<Ty> {
        let mark = self.temps;
        let ty = match e {
            Expr::Imm(_) | Expr::Local(_) | Expr::Param(_) | Expr::ThreadIdx => {
                let (a, ty) = self.operand(e)?;
                self.emit(Op::Mov(R2 { d, a, x }));
                ty
            }
            Expr::Load { buf, idx } => {
                let r = R2 {
                    d,
                    a: self.index(idx)?,
                    x,
                };
                let ty = self.k.bufs[buf.0 as usize].ty;
                let buf = buf.0 as u16;
                self.emit(if ty == Ty::F64 {
                    Op::Load8 { buf, r }
                } else {
                    Op::Load4 { buf, r }
                });
                ty
            }
            Expr::Unary { op, a } => {
                let (a, ty) = self.operand(a)?;
                let r = R2 { d, a, x };
                let (op, ty) = match (op, ty) {
                    (UnOp::Neg, Ty::I32) => (Op::NegI(r), ty),
                    (UnOp::Neg, Ty::F32) => (Op::NegS(r), ty),
                    (UnOp::Neg, Ty::F64) => (Op::NegD(r), ty),
                    (UnOp::Not, Ty::I32 | Ty::Bool) => (Op::Not(r), Ty::Bool),
                    (UnOp::BitNot, Ty::I32) => (Op::BitNot(r), ty),
                    _ => return Err(format!("{op:?} on {ty}")),
                };
                self.emit(op);
                ty
            }
            Expr::Binary { op, a, b } if op.is_logical() => {
                // consts[0] = 0 and consts[1] = 1, the smallest bit patterns.
                let (and, zero, one) = (*op == BinOp::LAnd, self.const0, self.const0 + 1);
                let lhs_false = self.branch_if_false(a)?;
                // A true lhs decides `||` and leaves `&&` to the rhs ...
                if and {
                    self.truth_into(b, d, x)?;
                } else {
                    self.emit(Op::Mov(R2 { d, a: one, x }));
                }
                let done = self.emit(Op::Jump(0));
                self.patch(lhs_false);
                // ... a false lhs decides `&&` and leaves `||` to the rhs.
                if and {
                    self.emit(Op::Mov(R2 { d, a: zero, x }));
                } else {
                    self.truth_into(b, d, x)?;
                }
                self.patch(done);
                Ty::Bool
            }
            Expr::Binary { op, a, b } => {
                let (a, ta) = self.operand(a)?;
                let (b, tb) = self.operand(b)?;
                same(ta, tb)?;
                let r = R3 { d, a, b, x };
                if op.is_comparison() {
                    self.emit(match ta {
                        Ty::I32 | Ty::Bool => Op::CmpI(*op, r),
                        Ty::F32 => Op::CmpS(*op, r),
                        Ty::F64 => Op::CmpD(*op, r),
                    });
                    Ty::Bool
                } else {
                    self.emit(arith(*op, ta, r)?);
                    ta
                }
            }
            Expr::Cast { ty, a } => {
                let (a, from) = self.operand(a)?;
                self.emit(if from == *ty {
                    Op::Mov(R2 { d, a, x: x + 1 })
                } else {
                    Op::Cast {
                        from,
                        to: *ty,
                        r: R2 { d, a, x },
                    }
                });
                *ty
            }
            Expr::Call { f, args } => {
                // `validate` pinned the arity to the builtin's: 1 or 2.
                let (mut slots, mut tys) = ([0; 2], [Ty::I32; 2]);
                for (i, arg) in args.iter().enumerate() {
                    (slots[i], tys[i]) = self.operand(arg)?;
                }
                let ([a, b], [ta, tb], f) = (slots, tys, *f);
                let ty = builtin_ty(f, &tys[..args.len()])?;
                self.emit(if args.len() == 2 {
                    Op::Call2 {
                        f,
                        ta,
                        tb,
                        r: R3 { d, a, b, x },
                    }
                } else {
                    Op::Call1 {
                        f,
                        ta,
                        r: R2 { d, a, x },
                    }
                });
                ty
            }
            Expr::Select { c, t, f } => {
                let cond_false = self.branch_if_false(c)?;
                let tt = self.into(t, d, x)?;
                let done = self.emit(Op::Jump(0));
                self.patch(cond_false);
                let tf = self.into(f, d, x)?;
                self.patch(done);
                if tt != tf {
                    return Err(format!("select arms of types {tt} and {tf}"));
                }
                tt
            }
        };
        self.temps = mark;
        Ok(ty)
    }

    /// The truth value of `rhs`, the right-hand side of a `&&` / `||`,
    /// into `d`.
    fn truth_into(&mut self, rhs: &Expr, d: u16, x: u8) -> Typed<()> {
        match self.into(rhs, d, x)? {
            Ty::Bool => {}
            // No fault point and no charge between the rhs's last op
            // and this one, so where `x` was charged is unobservable.
            Ty::I32 => {
                self.emit(Op::Truth(d));
            }
            ty => return Err(format!("condition of type {ty}")),
        }
        Ok(())
    }

    /// Evaluate `cond` and branch when it is false. Returns the branch
    /// for [`patch`](Self::patch).
    fn branch_if_false(&mut self, cond: &Expr) -> Typed<usize> {
        let mark = self.temps;
        let at = match cond {
            Expr::Binary { op, a, b } if op.is_comparison() => {
                let (a, ta) = self.operand(a)?;
                let (b, tb) = self.operand(b)?;
                same(ta, tb)?;
                let (cmp, t) = (*op, 0);
                self.emit(match ta {
                    Ty::I32 | Ty::Bool => Op::BrCmpI { cmp, a, b, t },
                    Ty::F32 => Op::BrCmpS { cmp, a, b, t },
                    Ty::F64 => Op::BrCmpD { cmp, a, b, t },
                })
            }
            _ => {
                let (a, ty) = self.operand(cond)?;
                if !matches!(ty, Ty::Bool | Ty::I32) {
                    return Err(format!("condition of type {ty}"));
                }
                self.emit(Op::BrZero { a, t: 0 })
            }
        };
        self.temps = mark;
        Ok(at)
    }

    /// Record the `If` branching at `br` as maskable when every op of its
    /// `arms` (ranges of the code) is pure.
    fn mask(&mut self, br: usize, arms: [std::ops::Range<usize>; 2]) {
        let mut writes = Vec::new();
        for op in arms.iter().flat_map(|a| &self.code[a.clone()]) {
            match op.pure_dest() {
                Some(d) if usize::from(d) < self.k.locals.len() => writes.push(d),
                Some(_) => {}
                None => return,
            }
        }
        writes.sort_unstable();
        writes.dedup();
        let code = &self.code;
        let arm = |a: std::ops::Range<usize>| {
            (!a.is_empty()).then(|| code[a].iter().copied().chain([Op::Ret]).collect())
        };
        let (br, join, arms) = (br as u32, code.len() as u32, arms.map(arm));
        self.masks.push(Mask {
            br,
            arms,
            writes,
            join,
        });
    }

    fn block(&mut self, stmts: &[Stmt]) -> Typed<()> {
        stmts.iter().try_for_each(|s| self.stmt(s))
    }

    fn stmt(&mut self, s: &Stmt) -> Typed<()> {
        match s {
            Stmt::Assign { local, value } => {
                let ty = self.into(value, local.0 as u16, 1)?;
                let declared = self.k.locals[local.0 as usize];
                if ty != declared {
                    return Err(format!("{ty} value assigned to {declared} local"));
                }
            }
            Stmt::Store {
                buf,
                idx,
                value,
                dirty,
                checked,
            } => {
                // The index temp stays allocated while the value is
                // evaluated: temps are released per statement here.
                let idx = self.index(idx)?;
                let (val, vty) = self.operand(value)?;
                let bty = self.k.bufs[buf.0 as usize].ty;
                let (buf, dirty, checked) = (buf.0 as u16, *dirty, *checked);
                self.emit(Op::Store {
                    buf,
                    idx,
                    val,
                    vty,
                    bty,
                    dirty,
                    checked,
                });
            }
            Stmt::AtomicRmw {
                buf,
                idx,
                op,
                value,
            } => {
                let idx = self.index(idx)?;
                let (val, ty) = self.operand(value)?;
                same(ty, self.k.bufs[buf.0 as usize].ty)?;
                self.emit(Op::Atomic {
                    buf: buf.0 as u16,
                    idx,
                    val,
                    ty,
                    op: *op,
                });
            }
            Stmt::ReduceScalar { slot, op, value } => {
                let (val, ty) = self.operand(value)?;
                same(ty, self.k.reductions[*slot as usize].ty)?;
                if ty == Ty::Bool {
                    return Err("bool reduction".into());
                }
                self.emit(Op::Reduce {
                    slot: *slot as u16,
                    val,
                    ty,
                    op: *op,
                });
            }
            Stmt::If { cond, then_, else_ } => {
                let cond_false = self.branch_if_false(cond)?;
                self.block(then_)?;
                let mut arms = [cond_false + 1..self.code.len(), 0..0];
                if else_.is_empty() {
                    self.patch(cond_false);
                } else {
                    let done = self.emit(Op::Jump(0));
                    self.patch(cond_false);
                    self.block(else_)?;
                    self.patch(done);
                    arms = [cond_false + 1..done, done + 1..self.code.len()];
                }
                self.mask(cond_false, arms);
            }
            Stmt::While { cond, body } => {
                let head = self.code.len() as u32;
                let exit = self.branch_if_false(cond)?;
                self.loops.push(LoopFrame {
                    head,
                    breaks: vec![exit],
                });
                self.block(body)?;
                self.emit(Op::Jump(head));
                for at in self.loops.pop().ok_or("loop frame missing")?.breaks {
                    self.patch(at);
                }
            }
            Stmt::Break => {
                let at = self.emit(Op::Jump(0));
                let inner = self.loops.last_mut().ok_or("break outside a loop")?;
                inner.breaks.push(at);
            }
            Stmt::Continue => {
                let head = self.loops.last().ok_or("continue outside a loop")?.head;
                self.emit(Op::Jump(head));
            }
        }
        self.temps = 0;
        Ok(())
    }
}

/// Operands, or a value and its destination, must have one type.
fn same(a: Ty, b: Ty) -> Typed<()> {
    if a != b {
        return Err(format!("operand types {a} and {b} differ"));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// Do the launch context's dynamic value types match the kernel's
/// declarations? Typing assumed they do, so [`run_compiled`] may only
/// run a launch for which this holds; a caller refuses any other.
pub fn launch_types_match(k: &Kernel, ctx: &ExecCtx<'_>) -> bool {
    ctx.params.len() == k.params.len()
        && ctx
            .params
            .iter()
            .zip(&k.params)
            .all(|(v, p)| v.ty() == p.ty)
        && ctx.bufs.len() == k.bufs.len()
        && ctx
            .bufs
            .iter()
            .zip(&k.bufs)
            .all(|(s, b)| s.data.ty() == b.ty)
        && ctx.reduction_partials.len() == k.reductions.len()
        && ctx
            .reduction_partials
            .iter()
            .zip(&k.reductions)
            .all(|(v, r)| v.ty() == r.ty)
}

/// Threads a batch runs in lock step: one dispatch per op for all of
/// them. 8 lanes measured slower than 16 on `kmeans-2gpu` and
/// `stencil-2gpu`, and 32 slower on the latter (see `docs/kernel-ir.md`).
pub const LANES: usize = 16;
/// Stores a lane may queue before its batch splits: a 512-cell row fits,
/// and a batch's buffer stays under 300 KB whatever a thread stores.
const MAX_PENDING: usize = 1024;

/// One batched store: each lane's element and bits, held until the lane
/// commits.
struct Pending<const N: usize> {
    buf: u16,
    dirty: bool,
    at: [usize; N],
    bits: [u64; N],
}

/// What [`run_lanes`] keeps for `N` lanes besides their frame.
struct Lanes<const N: usize> {
    /// Queued stores.
    pending: Vec<Pending<N>>,
    /// What masked arms charged each lane alone, valid while `masked`.
    ledger: [OpCounters; N],
    masked: bool,
    /// The slots a masked arm writes, as they were before it ran.
    keep: Vec<[u64; N]>,
}

impl<const N: usize> Lanes<N> {
    fn new() -> Self {
        Lanes {
            pending: Vec::new(),
            ledger: [OpCounters::default(); N],
            masked: false,
            keep: Vec::new(),
        }
    }
}

/// The lane batches' scratch, allocated once per [`run_compiled`].
struct Batch {
    f: Vec<[u64; LANES]>,
    lanes: Lanes<LANES>,
    /// `per_buf_bytes` as the batch began; after a split, one lane's share
    /// of what the batch moved.
    bytes: Vec<(u64, u64)>,
}

/// A frame of `N` lanes with the params and consts broadcast; locals and
/// the tid are set per thread.
fn frame<const N: usize>(rc: &RegCompiled, ctx: &ExecCtx<'_>) -> Vec<[u64; N]> {
    let mut f = vec![[0; N]; rc.nslots];
    let consts = rc.consts.iter().copied();
    let fixed = ctx.params.iter().map(|v| bits(*v)).chain(consts);
    for (s, v) in f[rc.nlocals + 1..].iter_mut().zip(fixed) {
        *s = [v; N];
    }
    f
}

/// Execute a [`compile`]d kernel over `[lo, hi)`, bit-identical to the
/// AST walker. The caller must have checked [`launch_types_match`] for
/// this context. A kernel that may batch, run unsanitized, takes its
/// threads [`LANES`] at a time; the tail of the range runs one-lane.
pub fn run_compiled(
    rc: &RegCompiled,
    ctx: &mut ExecCtx<'_>,
    lo: i64,
    hi: i64,
) -> Result<(), ExecError> {
    let mut one = frame::<1>(rc, ctx);
    let mut tid = lo;
    if rc.batch && ctx.sanitize.is_empty() && hi - lo >= LANES as i64 {
        let mut b = Batch {
            f: frame(rc, ctx),
            lanes: Lanes::new(),
            bytes: Vec::new(),
        };
        while hi - tid >= LANES as i64 {
            run_batch(rc, ctx, &mut b, &mut one, tid)?;
            tid += LANES as i64;
        }
    }
    let mut solo = Lanes::new();
    for tid in tid..hi {
        debug_assert!(tid <= i32::MAX as i64);
        one[..rc.nlocals].fill([0]);
        one[rc.nlocals] = [puti(tid as i32)];
        run_lanes(&rc.code, &[], ctx, &mut one, 0, tid, &mut solo)?;
        ctx.counters.threads += 1;
    }
    Ok(())
}

/// Run threads `[tid, tid + LANES)` as one batch until it returns or
/// splits; then each lane, in tid order, commits its stores and finishes
/// alone from the op the batch stopped at.
fn run_batch(
    rc: &RegCompiled,
    ctx: &mut ExecCtx<'_>,
    b: &mut Batch,
    one: &mut [[u64; 1]],
    tid: i64,
) -> Result<(), ExecError> {
    b.f[..rc.nlocals].fill([0; LANES]);
    b.f[rc.nlocals] = std::array::from_fn(|l| puti((tid + l as i64) as i32));
    b.lanes.pending.clear();
    if std::mem::take(&mut b.lanes.masked) {
        b.lanes.ledger = [OpCounters::default(); LANES];
    }
    let before = ctx.counters;
    b.bytes.clone_from(&ctx.per_buf_bytes);
    let Some(pc) = run_lanes(&rc.code, &rc.masks, ctx, &mut b.f, 0, tid, &mut b.lanes)? else {
        for l in 0..LANES {
            commit(ctx, &b.lanes.pending, l);
        }
        ctx.counters.threads += LANES as u64;
        return Ok(());
    };
    // Up to `pc` the lanes ran the same ops but for masked arms, so each
    // moved the counters by an equal share of what the batch moved besides
    // its ledger. Undo the batch and hand each lane its share and ledger
    // as it resumes: a lane that faults leaves the later lanes unrun,
    // charges and stores included, as on the walker.
    let lanes = LANES as u64;
    let mut alone = OpCounters::default();
    b.lanes.ledger.iter().for_each(|c| alone.merge(c));
    let moved = OpCounters::zip_with(&ctx.counters, &before, |now, was| now - was);
    let share = moved.zip_with(&alone, |moved, alone| (moved - alone) / lanes);
    ctx.counters = before;
    for (now, was) in ctx.per_buf_bytes.iter_mut().zip(&mut b.bytes) {
        let moved = ((now.0 - was.0) / lanes, (now.1 - was.1) / lanes);
        (*now, *was) = (*was, moved);
    }
    let solo = &mut Lanes::new();
    for l in 0..LANES {
        ctx.counters.merge(&share);
        ctx.counters.merge(&b.lanes.ledger[l]);
        for (now, lane) in ctx.per_buf_bytes.iter_mut().zip(&b.bytes) {
            (now.0, now.1) = (now.0 + lane.0, now.1 + lane.1);
        }
        commit(ctx, &b.lanes.pending, l);
        for (s, w) in one.iter_mut().zip(&b.f) {
            *s = [w[l]];
        }
        run_lanes(&rc.code, &[], ctx, one, pc, tid + l as i64, solo)?;
        ctx.counters.threads += 1;
    }
    Ok(())
}

/// Land lane `l`'s queued stores, in the order it made them.
fn commit(ctx: &mut ExecCtx<'_>, pending: &[Pending<LANES>], l: usize) {
    for p in pending {
        put(&mut ctx.bufs[p.buf as usize], p.at[l], p.bits[l], p.dirty);
    }
}

/// Write the low bytes of `v` to element `at`, marking it dirty for a
/// dirty store.
#[inline]
fn put(slot: &mut BufSlot<'_>, at: usize, v: u64, dirty: bool) {
    let n = slot.data.ty().size_bytes();
    slot.data.bytes_mut()[at * n..(at + 1) * n].copy_from_slice(&v.to_le_bytes()[..n]);
    if dirty {
        if let Some(dm) = slot.dirty.as_deref_mut() {
            dm.mark(at);
        }
    }
}

#[cold]
fn oob(buf: u16, slot: &BufSlot<'_>, gidx: i64) -> ExecError {
    ExecError::OutOfBounds {
        buf: format!("buf#{buf}"),
        idx: gidx,
        window: (slot.window_lo, slot.window_lo + slot.data.len() as i64),
    }
}

/// The element of `slot` each lane's global index names, or the first
/// index outside the window.
#[inline]
fn elements<const N: usize>(slot: &BufSlot<'_>, gidx: &[i64; N]) -> Result<[usize; N], i64> {
    let mut at = [0; N];
    for (a, &g) in at.iter_mut().zip(gidx) {
        let local = g - slot.window_lo;
        if local < 0 || local as usize >= slot.data.len() {
            return Err(g);
        }
        *a = local as usize;
    }
    Ok(at)
}

/// `Expr::Load` of an `M`-byte element in every lane, zero-extended into
/// the frame; `Ok(false)` when a lane's index leaves the window of a
/// batch, which must split.
#[inline]
fn load<const M: usize, const N: usize>(
    ctx: &mut ExecCtx<'_>,
    f: &mut [[u64; N]],
    buf: u16,
    r: R2,
    tid: i64,
) -> Result<bool, ExecError> {
    let gidx = f[r.a as usize].map(|x| geti(x) as i64);
    let slot = &ctx.bufs[buf as usize];
    let at = match elements(slot, &gidx) {
        Ok(at) => at,
        Err(_) if N > 1 => return Ok(false),
        Err(g) => return Err(oob(buf, slot, g)),
    };
    let bytes = slot.data.bytes();
    f[r.d as usize] = at.map(|i| {
        let mut word = [0u8; 8];
        word[..M].copy_from_slice(&bytes[i * M..(i + 1) * M]);
        u64::from_le_bytes(word)
    });
    let (c, n) = (&mut ctx.counters, N as u64);
    c.loads += n;
    c.load_bytes += M as u64 * n;
    c.int_ops += (1 + r.x as u64) * n; // index translation
    ctx.per_buf_bytes[buf as usize].0 += M as u64 * n;
    if !ctx.sanitize.is_empty() {
        for (l, g) in gidx.into_iter().enumerate() {
            sanitize_load(ctx, buf as u32, tid + l as i64, g);
        }
    }
    Ok(true)
}

/// `a cmp b` in every lane, with the comparison chosen once.
#[inline]
fn test<T: PartialOrd, const N: usize>(cmp: BinOp, a: [T; N], b: [T; N]) -> [bool; N] {
    macro_rules! each {
        ($op:tt) => {
            std::array::from_fn(|l| a[l] $op b[l])
        };
    }
    // On floats these are C's semantics for NaN: only `!=` holds.
    match cmp {
        BinOp::Lt => each!(<),
        BinOp::Le => each!(<=),
        BinOp::Gt => each!(>),
        BinOp::Ge => each!(>=),
        BinOp::Eq => each!(==),
        _ => each!(!=),
    }
}

/// Run `code` from `pc` for `N` lanes in lock step, lane `l` being thread
/// `tid + l`; every op charges `N` times its static charge. With `N = 1`
/// this is the one-lane path: it runs to `Ret` and faults where the
/// walker does. A batch (`N > 1`) checks every lane before any effect of
/// an op, and returns the op's index, unrun, when a lane could fault on
/// it, the lanes' branches disagree outside the `masks`, or the batch
/// does not run it. Its stores queue in `lanes`.
// Out of line on purpose: inlined into the thread loop, the dispatch
// loop spills `pc` and the frame pointer to the stack.
#[inline(never)]
fn run_lanes<const N: usize>(
    code: &[Op],
    masks: &[Mask],
    ctx: &mut ExecCtx<'_>,
    f: &mut [[u64; N]],
    mut pc: usize,
    tid: i64,
    lanes: &mut Lanes<N>,
) -> Result<Option<usize>, ExecError> {
    let n = N as u64;
    // Leave the current op to the one-lane path (a no-op there).
    macro_rules! split {
        () => {
            if N > 1 {
                return Ok(Some(pc - 1));
            }
        };
    }
    // `$r` is an `R3`; `$e` computes the result from operands `$p`, `$q`
    // decoded by `$get`, and `$n` is the counter the op's own charge
    // goes to.
    macro_rules! bin {
        ($r:ident, $get:expr, $put:expr, $n:ident, |$p:ident, $q:ident| $e:expr) => {{
            let (a, b) = (f[$r.a as usize], f[$r.b as usize]);
            f[$r.d as usize] = std::array::from_fn(|l| {
                let ($p, $q) = ($get(a[l]), $get(b[l]));
                $put($e)
            });
            ctx.counters.$n += n;
            ctx.counters.int_ops += $r.x as u64 * n;
        }};
    }
    macro_rules! un {
        ($r:ident, $n:ident, |$p:ident| $e:expr) => {{
            f[$r.d as usize] = f[$r.a as usize].map(|$p| $e);
            ctx.counters.$n += n;
            ctx.counters.int_ops += $r.x as u64 * n;
        }};
    }
    // Integer `/` and `%`: the charge precedes the fault, like the walker.
    macro_rules! div {
        ($r:ident, |$p:ident, $q:ident| $e:expr) => {{
            if f[$r.b as usize].iter().any(|&q| geti(q) == 0) {
                split!();
                ctx.counters.special_ops += 1;
                return Err(ExecError::DivByZero);
            }
            bin!($r, geti, puti, special_ops, |$p, $q| $e)
        }};
    }
    // A builtin per lane; `$e` is lane `$l`'s `eval_builtin`.
    macro_rules! call {
        ($r:ident, |$l:ident| $e:expr) => {{
            let mut out = [0; N];
            for ($l, o) in out.iter_mut().enumerate() {
                match $e {
                    Ok(v) => *o = bits(v),
                    Err(e) => {
                        split!();
                        ctx.counters.special_ops += 1;
                        return Err(e);
                    }
                }
            }
            f[$r.d as usize] = out;
            ctx.counters.special_ops += n;
            ctx.counters.int_ops += $r.x as u64 * n;
        }};
    }
    // A comparison of operands decoded by `$get` into `$r.d` as 0/1.
    macro_rules! cmp {
        ($cmp:ident, $r:ident, $get:expr, $n:ident) => {{
            let holds = test($cmp, f[$r.a as usize].map($get), f[$r.b as usize].map($get));
            f[$r.d as usize] = holds.map(u64::from);
            ctx.counters.$n += n;
            ctx.counters.int_ops += $r.x as u64 * n;
        }};
    }
    // Jump to `$t` where the condition `$holds` is false, charging the
    // `$n`s; lanes that disagree run a maskable `If`'s arms masked.
    macro_rules! br {
        ($t:ident, [$($n:ident),*], $holds:expr) => {{
            let holds: [bool; N] = $holds;
            if holds.contains(&!holds[0]) {
                let m = masks.binary_search_by_key(&(pc as u32 - 1), |m| m.br);
                let Ok(m) = m.map(|m| &masks[m]) else {
                    return Ok(Some(pc - 1));
                };
                $(ctx.counters.$n += n;)*
                masked(ctx, f, m, holds, tid, lanes)?;
                pc = m.join as usize;
                continue;
            }
            $(ctx.counters.$n += n;)*
            if !holds[0] {
                pc = $t as usize;
            }
        }};
    }
    let getd = f64::from_bits;
    let putd = f64::to_bits;
    let flag = |b: bool| b as u64;

    loop {
        let op = code[pc];
        pc += 1;
        match op {
            Op::AddI(r) => bin!(r, geti, puti, int_ops, |p, q| p.wrapping_add(q)),
            Op::SubI(r) => bin!(r, geti, puti, int_ops, |p, q| p.wrapping_sub(q)),
            Op::MulI(r) => bin!(r, geti, puti, int_ops, |p, q| p.wrapping_mul(q)),
            Op::DivI(r) => div!(r, |p, q| p.wrapping_div(q)),
            Op::RemI(r) => div!(r, |p, q| p.wrapping_rem(q)),
            Op::AndI(r) => bin!(r, geti, puti, int_ops, |p, q| p & q),
            Op::OrI(r) => bin!(r, geti, puti, int_ops, |p, q| p | q),
            Op::XorI(r) => bin!(r, geti, puti, int_ops, |p, q| p ^ q),
            Op::ShlI(r) => bin!(r, geti, puti, int_ops, |p, q| p.wrapping_shl(q as u32)),
            Op::ShrI(r) => bin!(r, geti, puti, int_ops, |p, q| p.wrapping_shr(q as u32)),
            Op::AddS(r) => bin!(r, gets, puts, f32_ops, |p, q| p + q),
            Op::SubS(r) => bin!(r, gets, puts, f32_ops, |p, q| p - q),
            Op::MulS(r) => bin!(r, gets, puts, f32_ops, |p, q| p * q),
            Op::DivS(r) => bin!(r, gets, puts, special_ops, |p, q| p / q),
            Op::AddD(r) => bin!(r, getd, putd, f64_ops, |p, q| p + q),
            Op::SubD(r) => bin!(r, getd, putd, f64_ops, |p, q| p - q),
            Op::MulD(r) => bin!(r, getd, putd, f64_ops, |p, q| p * q),
            Op::DivD(r) => bin!(r, getd, putd, special_ops, |p, q| p / q),
            Op::CmpI(c, r) => cmp!(c, r, geti, int_ops),
            Op::CmpS(c, r) => cmp!(c, r, gets, f32_ops),
            Op::CmpD(c, r) => cmp!(c, r, getd, f64_ops),
            Op::NegI(r) => un!(r, int_ops, |p| puti(geti(p).wrapping_neg())),
            Op::NegS(r) => un!(r, f32_ops, |p| puts(-gets(p))),
            Op::NegD(r) => un!(r, f64_ops, |p| putd(-getd(p))),
            Op::Not(r) => un!(r, int_ops, |p| flag(p == 0)),
            Op::BitNot(r) => un!(r, int_ops, |p| puti(!geti(p))),
            Op::Mov(r) => {
                f[r.d as usize] = f[r.a as usize];
                ctx.counters.int_ops += r.x as u64 * n;
            }
            Op::Truth(d) => f[d as usize] = f[d as usize].map(|x| flag(x != 0)),
            Op::Cast { from, to, r } => un!(r, int_ops, |p| bits(value(from, p).cast(to))),
            Op::Call1 { f: fun, ta, r } => {
                let a = f[r.a as usize];
                call!(r, |l| eval_builtin(fun, &[value(ta, a[l])]))
            }
            Op::Call2 { f: fun, ta, tb, r } => {
                let (a, b) = (f[r.a as usize], f[r.b as usize]);
                call!(r, |l| eval_builtin(
                    fun,
                    &[value(ta, a[l]), value(tb, b[l])]
                ))
            }
            Op::Load4 { buf, r } => {
                if !load::<4, N>(ctx, f, buf, r, tid)? {
                    split!();
                }
            }
            Op::Load8 { buf, r } => {
                if !load::<8, N>(ctx, f, buf, r, tid)? {
                    split!();
                }
            }
            Op::Store {
                buf,
                idx,
                val,
                vty,
                bty,
                dirty,
                checked,
            } => {
                let gidx = f[idx as usize].map(|x| geti(x) as i64);
                let v = f[val as usize];
                let b = buf as usize;
                let own = ctx.bufs[b].own;
                let miss = checked && gidx.iter().any(|&g| g < own.0 || g >= own.1);
                let at = elements(&ctx.bufs[b], &gidx);
                if miss || at.is_err() || lanes.pending.len() == MAX_PENDING {
                    split!();
                }
                if checked {
                    ctx.counters.miss_checks += n;
                    if miss {
                        // Write miss (one lane): stage (destination, uncast value).
                        ctx.counters.misses += 1;
                        if ctx.miss_buf.len() >= ctx.miss_capacity {
                            return Err(ExecError::MissBufferOverflow {
                                capacity: ctx.miss_capacity,
                            });
                        }
                        ctx.counters.stores += 1;
                        ctx.counters.store_bytes += (8 + vty.size_bytes()) as u64;
                        ctx.miss_buf.push(MissRecord {
                            buf: buf as u32,
                            idx: gidx[0],
                            value: value(vty, v[0]),
                        });
                        continue;
                    }
                } else if !ctx.sanitize.is_empty() {
                    for (l, &g) in gidx.iter().enumerate() {
                        sanitize_store(ctx, buf as u32, tid + l as i64, g);
                    }
                }
                let at = at.map_err(|g| oob(buf, &ctx.bufs[b], g))?;
                let v = if vty == bty {
                    v
                } else {
                    v.map(|x| bits(value(vty, x).cast(bty)))
                };
                if N == 1 {
                    put(&mut ctx.bufs[b], at[0], v[0], dirty);
                } else {
                    lanes.pending.push(Pending {
                        buf,
                        dirty,
                        at,
                        bits: v,
                    });
                }
                let size = bty.size_bytes() as u64;
                let c = &mut ctx.counters;
                c.stores += n;
                c.store_bytes += size * n;
                c.int_ops += n; // index translation
                ctx.per_buf_bytes[b].1 += size * n;
                if dirty {
                    c.dirty_marks += n;
                }
            }
            Op::Atomic {
                buf,
                idx,
                val,
                ty,
                op,
            } => {
                split!();
                let gidx = geti(f[idx as usize][0]) as i64;
                let slot = &mut ctx.bufs[buf as usize];
                let [at] = elements(slot, &[gidx]).map_err(|g| oob(buf, slot, g))?;
                let new = rmw_apply(op, slot.data.get(at), value(ty, f[val as usize][0]))?;
                slot.data.set(at, new);
                let n = ty.size_bytes() as u64;
                let c = &mut ctx.counters;
                c.loads += 1;
                c.load_bytes += n;
                c.stores += 1;
                c.store_bytes += n;
                c.int_ops += 1; // index translation
                c.atomics += 1;
                let pb = &mut ctx.per_buf_bytes[buf as usize];
                pb.0 += n;
                pb.1 += n;
            }
            Op::Reduce { slot, val, ty, op } => {
                split!();
                let p = &mut ctx.reduction_partials[slot as usize];
                *p = rmw_apply(op, *p, value(ty, f[val as usize][0]))?;
                let c = &mut ctx.counters;
                match ty {
                    Ty::F32 => c.f32_ops += 1,
                    Ty::F64 => c.f64_ops += 1,
                    _ => c.int_ops += 1,
                }
            }
            Op::Jump(t) => pc = t as usize,
            Op::BrZero { a, t } => br!(t, [branches], f[a as usize].map(|x| x != 0)),
            Op::BrCmpI { cmp, a, b, t } => {
                let (a, b) = (f[a as usize].map(geti), f[b as usize].map(geti));
                br!(t, [int_ops, branches], test(cmp, a, b))
            }
            Op::BrCmpS { cmp, a, b, t } => {
                let (a, b) = (f[a as usize].map(gets), f[b as usize].map(gets));
                br!(t, [f32_ops, branches], test(cmp, a, b))
            }
            Op::BrCmpD { cmp, a, b, t } => {
                let (a, b) = (f[a as usize].map(getd), f[b as usize].map(getd));
                br!(t, [f64_ops, branches], test(cmp, a, b))
            }
            Op::Ret => return Ok(None),
        }
    }
}

/// Run the arms of the maskable `If` `m` in all `N` lanes, the then-arm
/// for the lanes where `then` holds and the else-arm for the others. Each
/// arm's writes are put back in the lanes that did not take it, and its
/// charge goes to the lanes that did, in the batch's counters and in
/// their ledger.
#[inline(never)]
fn masked<const N: usize>(
    ctx: &mut ExecCtx<'_>,
    f: &mut [[u64; N]],
    m: &Mask,
    then: [bool; N],
    tid: i64,
    lanes: &mut Lanes<N>,
) -> Result<(), ExecError> {
    lanes.masked = true;
    for (arm, took) in m.arms.iter().zip([then, then.map(|t| !t)]) {
        let Some(arm) = arm else { continue };
        lanes.keep.clear();
        lanes.keep.extend(m.writes.iter().map(|&s| f[s as usize]));
        let before = ctx.counters;
        run_lanes(arm, &[], ctx, f, 0, tid, lanes)?;
        let each = OpCounters::zip_with(&ctx.counters, &before, |now, was| (now - was) / N as u64);
        ctx.counters = before;
        for (ledger, _) in lanes.ledger.iter_mut().zip(took).filter(|t| t.1) {
            ctx.counters.merge(&each);
            ledger.merge(&each);
        }
        for (&s, kept) in m.writes.iter().zip(&lanes.keep) {
            let row = &mut f[s as usize];
            *row = std::array::from_fn(|l| if took[l] { row[l] } else { kept[l] });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::Buffer;
    use crate::interp::run_kernel_range_ast;
    use crate::kernel::{BufAccess, BufParam};
    use crate::{BufId, LocalId, OpCounters};

    fn i32_bufs() -> Vec<BufParam> {
        ["a", "out"]
            .iter()
            .zip([BufAccess::Read, BufAccess::Write])
            .map(|(name, access)| BufParam {
                name: (*name).into(),
                ty: Ty::I32,
                access,
            })
            .collect()
    }

    /// Run `k` over `a` on the register tier's `rc`, or on the walker.
    fn run(
        k: &Kernel,
        a: &[i32],
        rc: Option<&RegCompiled>,
    ) -> (Result<(), ExecError>, Vec<i32>, OpCounters) {
        let mut a = Buffer::from_i32(a);
        let n = a.len();
        let mut out = Buffer::zeroed(Ty::I32, n);
        let bufs = vec![BufSlot::whole(&mut a), BufSlot::whole(&mut out)];
        let mut ctx = ExecCtx::new(k, vec![], bufs);
        let r = match rc {
            None => run_kernel_range_ast(k, &mut ctx, 0, n as i64),
            Some(rc) => run_compiled(rc, &mut ctx, 0, n as i64),
        };
        let c = ctx.counters;
        drop(ctx);
        (r, out.to_i32_vec(), c)
    }

    #[test]
    fn loop_kernel_compiles_and_matches_walker() -> Result<(), ValidationError> {
        // j = 0; while (j < 8) { s = s + a[tid]; j = j + 1; } out[tid] = s;
        let (s, j) = (LocalId(0), LocalId(1));
        let k = Kernel {
            name: "loopy".into(),
            params: vec![],
            bufs: i32_bufs(),
            locals: vec![Ty::I32, Ty::I32],
            reductions: vec![],
            body: vec![
                Stmt::While {
                    cond: Expr::bin(BinOp::Lt, Expr::Local(j), Expr::imm_i32(8)),
                    body: vec![
                        Stmt::Assign {
                            local: s,
                            value: Expr::add(Expr::Local(s), Expr::load(BufId(0), Expr::ThreadIdx)),
                        },
                        Stmt::Assign {
                            local: j,
                            value: Expr::add(Expr::Local(j), Expr::imm_i32(1)),
                        },
                    ],
                },
                Stmt::Store {
                    buf: BufId(1),
                    idx: Expr::ThreadIdx,
                    value: Expr::Local(s),
                    dirty: false,
                    checked: false,
                },
            ],
        };
        let rc = compile(&k)?;
        // One op per interior node, a fused compare-and-branch, the back
        // edge, the store and the return: leaves cost nothing.
        assert_eq!(rc.code.len(), 7, "{:?}", rc.code);
        let a: Vec<i32> = (0..16).collect();
        assert_eq!(run(&k, &a, None), run(&k, &a, Some(&rc)));
        Ok(())
    }

    #[test]
    fn disagreeing_arg_min_lanes_reach_ret_as_one_batch() -> Result<(), ValidationError> {
        // The nearest of 4 points 0, 10, 20, 30 to `a[tid]`:
        // bestd = 1 << 30; while (c < 4) { d = (a[tid] - 10c)^2;
        //   if (d < bestd) { bestd = d; best = c; } c = c + 1; } out[tid] = best;
        let (best, bestd, c, d) = (LocalId(0), LocalId(1), LocalId(2), LocalId(3));
        let gap = || {
            Expr::sub(
                Expr::load(BufId(0), Expr::ThreadIdx),
                Expr::mul(Expr::Local(c), Expr::imm_i32(10)),
            )
        };
        let arg_min = |then_: Vec<Stmt>| Kernel {
            name: "arg_min".into(),
            params: vec![],
            bufs: i32_bufs(),
            locals: vec![Ty::I32; 4],
            reductions: vec![],
            body: vec![
                Stmt::Assign {
                    local: bestd,
                    value: Expr::imm_i32(1 << 30),
                },
                Stmt::While {
                    cond: Expr::bin(BinOp::Lt, Expr::Local(c), Expr::imm_i32(4)),
                    body: vec![
                        Stmt::Assign {
                            local: d,
                            value: Expr::mul(gap(), gap()),
                        },
                        Stmt::If {
                            cond: Expr::bin(BinOp::Lt, Expr::Local(d), Expr::Local(bestd)),
                            then_,
                            else_: vec![],
                        },
                        Stmt::Assign {
                            local: c,
                            value: Expr::add(Expr::Local(c), Expr::imm_i32(1)),
                        },
                    ],
                },
                Stmt::Store {
                    buf: BufId(1),
                    idx: Expr::ThreadIdx,
                    value: Expr::Local(best),
                    dirty: false,
                    checked: false,
                },
            ],
        };
        let k = arg_min(vec![
            Stmt::Assign {
                local: bestd,
                value: Expr::Local(d),
            },
            Stmt::Assign {
                local: best,
                value: Expr::Local(c),
            },
        ]);
        let rc = compile(&k)?;
        assert_eq!(rc.masks.len(), 1);
        assert_eq!(rc.masks[0].writes, [0, 1]);
        // Lane `l` lies at 10 * (l % 4) + 1: the lanes disagree at c >= 1.
        let a: Vec<i32> = (0..LANES as i32).map(|l| 10 * (l % 4) + 1).collect();
        let (mut a_buf, mut out) = (Buffer::from_i32(&a), Buffer::zeroed(Ty::I32, LANES));
        let bufs = vec![BufSlot::whole(&mut a_buf), BufSlot::whole(&mut out)];
        let mut ctx = ExecCtx::new(&k, vec![], bufs);
        let mut f = frame::<LANES>(&rc, &ctx);
        f[rc.nlocals] = std::array::from_fn(|l| puti(l as i32));
        let mut lanes = Lanes::new();
        let stopped = run_lanes(&rc.code, &rc.masks, &mut ctx, &mut f, 0, 0, &mut lanes);
        assert_eq!(stopped, Ok(None), "the batch must not split");
        for l in 0..LANES {
            commit(&mut ctx, &lanes.pending, l);
        }
        ctx.counters.threads += LANES as u64;
        let c = ctx.counters;
        drop(ctx);
        assert_eq!(run(&k, &a, None), (Ok(()), out.to_i32_vec(), c));
        // An arm that loads is not maskable.
        let load = Expr::load(BufId(0), Expr::ThreadIdx);
        let k = arg_min(vec![Stmt::Assign {
            local: best,
            value: load,
        }]);
        assert!(compile(&k)?.masks.is_empty());
        Ok(())
    }

    #[test]
    fn div_by_zero_settles_identical_counters() -> Result<(), ValidationError> {
        // out[tid] = 100 / (a[tid] - 2): faults at tid == 2.
        let k = Kernel {
            name: "divk".into(),
            params: vec![],
            bufs: i32_bufs(),
            locals: vec![],
            reductions: vec![],
            body: vec![Stmt::Store {
                buf: BufId(1),
                idx: Expr::ThreadIdx,
                value: Expr::bin(
                    BinOp::Div,
                    Expr::imm_i32(100),
                    Expr::sub(Expr::load(BufId(0), Expr::ThreadIdx), Expr::imm_i32(2)),
                ),
                dirty: false,
                checked: false,
            }],
        };
        let rc = compile(&k)?;
        let walker = run(&k, &[0, 1, 2, 3], None);
        let vm = run(&k, &[0, 1, 2, 3], Some(&rc));
        assert_eq!(walker.0, Err(ExecError::DivByZero));
        assert_eq!(
            walker, vm,
            "error-path state and counters must be bit-identical"
        );
        Ok(())
    }
}
