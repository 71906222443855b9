//! The dynamically typed stack bytecode: the comparison tier.
//!
//! Kernels run on the statically typed register tier ([`crate::regvm`]),
//! which refuses any kernel it cannot type, so this is not the hot path:
//! it executes whole runs under `KernelVm::Bytecode`, and on hand-built
//! IR it reproduces the walker's dynamic `TypeError`s, which only a
//! tagged-`Value` machine can. It stays for that whole-run parity with
//! the walker until the benchmark stops importing [`compile`] and
//! `KernelVm`, which deleting the tier waits for (ROADMAP item 3).
//!
//! It is a plain stack machine: [`compile`] walks a kernel body once
//! into a flat op vector (control flow becomes jumps; there is no
//! peephole pass), and [`run_iteration`] runs one match arm per op.
//! Fused ops that cut dispatch belong to the tier that runs: the
//! register tier keeps its compare-and-branch and `Assign` fusions.
//!
//! The compiled path is an *implementation detail*, not a semantic one:
//! it must produce exactly the results of the AST walker — the same
//! buffer contents, locals, reduction partials, miss records, dirty bits,
//! `OpCounters`, per-buffer byte tallies, and the same [`ExecError`]
//! values on failure. The timing model prices runs from the counters, so
//! any drift here would change *simulated* results, which is forbidden.
//! `interp::run_kernel_range_ast` keeps the walker alive as the reference
//! implementation, and `tests/bytecode_differential.rs` holds the two
//! paths equal.

use crate::interp::{rmw_apply, ExecCtx, ExecError};
use crate::{BinOp, Builtin, Expr, RmwOp, Stmt, Ty, UnOp, Value};

/// Which non-bool error message a conditional branch reports, mirroring
/// the distinct strings the AST walker produces per context.
#[derive(Debug, Clone, Copy)]
enum BoolCtx {
    If,
    While,
    Ternary,
    Logic,
}

impl BoolCtx {
    fn err(self) -> ExecError {
        ExecError::TypeError(
            match self {
                BoolCtx::If => "non-bool if condition",
                BoolCtx::While => "non-bool while condition",
                BoolCtx::Ternary => "non-bool ternary condition",
                BoolCtx::Logic => "non-bool in && / ||",
            }
            .into(),
        )
    }
}

/// One flat instruction. Operands are inline; jump targets are absolute
/// instruction indices patched during compilation.
#[derive(Debug)]
enum Op {
    PushImm(Value),
    PushLocal(u32),
    PushParam(u32),
    PushTid,
    /// `Stmt::Assign`: pop value into a local (one integer op).
    SetLocal(u32),
    /// Pop a value, coerce to an index, push onto the index stack.
    ToIndex,
    /// Pop an index; load from the buffer with bounds check + counters.
    BufLoad(u32),
    /// Pop value then index; store with optional miss check / dirty mark.
    BufStore {
        buf: u32,
        dirty: bool,
        checked: bool,
    },
    /// Pop value then index; load-modify-store atomically (one thread at
    /// a time per GPU, so plain read-modify-write).
    AtomicRmw { buf: u32, op: RmwOp },
    /// Pop value; fold into a scalar-reduction partial.
    ReduceScalar { slot: u32, op: RmwOp },
    Unary(UnOp),
    Binary(BinOp),
    Cast(Ty),
    Call { f: Builtin, argc: u32 },
    Jump(u32),
    /// Pop a bool; count a branch; jump when false.
    BrFalse { target: u32, ctx: BoolCtx },
    /// Short-circuit `&&` / `||`: pop the lhs bool, count a branch; on
    /// short-circuit push the decided result and jump past the rhs.
    BrShortCircuit { target: u32, is_and: bool },
    /// Coerce the top of stack to bool (rhs of `&&` / `||`).
    ToBool,
    Halt,
}

/// A kernel body compiled to bytecode. Build once per kernel with
/// [`compile`] (it is immutable and `Sync`: every GPU of every launch can
/// share it), execute per iteration with [`run_iteration`].
#[derive(Debug)]
pub struct CompiledBody {
    ops: Vec<Op>,
}

/// Compile a statement block (a kernel body) into bytecode.
pub fn compile(body: &[Stmt]) -> CompiledBody {
    let mut c = Compiler {
        ops: Vec::with_capacity(body.len() * 8),
        loops: Vec::new(),
    };
    c.block(body);
    c.ops.push(Op::Halt);
    CompiledBody { ops: c.ops }
}

/// Patch bookkeeping for the innermost loops (`break` / `continue`).
struct LoopFrame {
    start: u32,
    breaks: Vec<usize>,
}

struct Compiler {
    ops: Vec<Op>,
    loops: Vec<LoopFrame>,
}

impl Compiler {
    fn here(&self) -> u32 {
        self.ops.len() as u32
    }

    /// Emit a placeholder jump; returns its index for later patching.
    fn emit_patch(&mut self, op: Op) -> usize {
        self.ops.push(op);
        self.ops.len() - 1
    }

    fn patch(&mut self, at: usize, target: u32) {
        match &mut self.ops[at] {
            Op::Jump(t) | Op::BrFalse { target: t, .. } | Op::BrShortCircuit { target: t, .. } => {
                *t = target
            }
            other => unreachable!("patching non-jump {other:?}"),
        }
    }

    fn block(&mut self, stmts: &[Stmt]) {
        for s in stmts {
            self.stmt(s);
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Assign { local, value } => {
                self.expr(value);
                self.ops.push(Op::SetLocal(local.0));
            }
            Stmt::Store {
                buf,
                idx,
                value,
                dirty,
                checked,
            } => {
                // The walker resolves the index before evaluating the
                // value; `ToIndex` sits between the two sub-expressions
                // so a bad index fails at the same point.
                self.expr(idx);
                self.ops.push(Op::ToIndex);
                self.expr(value);
                self.ops.push(Op::BufStore {
                    buf: buf.0,
                    dirty: *dirty,
                    checked: *checked,
                });
            }
            Stmt::AtomicRmw {
                buf,
                idx,
                op,
                value,
            } => {
                self.expr(idx);
                self.ops.push(Op::ToIndex);
                self.expr(value);
                self.ops.push(Op::AtomicRmw {
                    buf: buf.0,
                    op: *op,
                });
            }
            Stmt::ReduceScalar { slot, op, value } => {
                self.expr(value);
                self.ops.push(Op::ReduceScalar {
                    slot: *slot,
                    op: *op,
                });
            }
            Stmt::If { cond, then_, else_ } => {
                self.expr(cond);
                let br = self.emit_patch(Op::BrFalse {
                    target: 0,
                    ctx: BoolCtx::If,
                });
                self.block(then_);
                if else_.is_empty() {
                    let t = self.here();
                    self.patch(br, t);
                } else {
                    let skip = self.emit_patch(Op::Jump(0));
                    let t = self.here();
                    self.patch(br, t);
                    self.block(else_);
                    let end = self.here();
                    self.patch(skip, end);
                }
            }
            Stmt::While { cond, body } => {
                let start = self.here();
                self.expr(cond);
                let exit = self.emit_patch(Op::BrFalse {
                    target: 0,
                    ctx: BoolCtx::While,
                });
                self.loops.push(LoopFrame {
                    start,
                    breaks: vec![exit],
                });
                self.block(body);
                self.ops.push(Op::Jump(start));
                let end = self.here();
                let frame = self.loops.pop().expect("loop frame");
                for at in frame.breaks {
                    self.patch(at, end);
                }
            }
            Stmt::Break => {
                let at = self.emit_patch(Op::Jump(0));
                self.loops
                    .last_mut()
                    .expect("break outside loop rejected by validate()")
                    .breaks
                    .push(at);
            }
            Stmt::Continue => {
                let start = self
                    .loops
                    .last()
                    .expect("continue outside loop rejected by validate()")
                    .start;
                self.ops.push(Op::Jump(start));
            }
        }
    }

    fn expr(&mut self, e: &Expr) {
        match e {
            Expr::Imm(v) => self.ops.push(Op::PushImm(*v)),
            Expr::Local(l) => self.ops.push(Op::PushLocal(l.0)),
            Expr::Param(p) => self.ops.push(Op::PushParam(p.0)),
            Expr::ThreadIdx => self.ops.push(Op::PushTid),
            Expr::Load { buf, idx } => {
                self.expr(idx);
                self.ops.push(Op::ToIndex);
                self.ops.push(Op::BufLoad(buf.0));
            }
            Expr::Unary { op, a } => {
                self.expr(a);
                self.ops.push(Op::Unary(*op));
            }
            Expr::Binary { op, a, b } if op.is_logical() => {
                self.expr(a);
                let br = self.emit_patch(Op::BrShortCircuit {
                    target: 0,
                    is_and: *op == BinOp::LAnd,
                });
                self.expr(b);
                self.ops.push(Op::ToBool);
                let end = self.here();
                self.patch(br, end);
            }
            Expr::Binary { op, a, b } => {
                self.expr(a);
                self.expr(b);
                self.ops.push(Op::Binary(*op));
            }
            Expr::Cast { ty, a } => {
                self.expr(a);
                self.ops.push(Op::Cast(*ty));
            }
            Expr::Call { f, args } => {
                for a in args {
                    self.expr(a);
                }
                self.ops.push(Op::Call {
                    f: *f,
                    argc: args.len() as u32,
                });
            }
            Expr::Select { c, t, f } => {
                self.expr(c);
                let br = self.emit_patch(Op::BrFalse {
                    target: 0,
                    ctx: BoolCtx::Ternary,
                });
                self.expr(t);
                let skip = self.emit_patch(Op::Jump(0));
                let fstart = self.here();
                self.patch(br, fstart);
                self.expr(f);
                let end = self.here();
                self.patch(skip, end);
            }
        }
    }
}

/// Reusable execution scratch: the value and index stacks, kept across
/// iterations so the hot loop never allocates.
#[derive(Debug, Default)]
pub struct Scratch {
    stack: Vec<Value>,
    istack: Vec<i64>,
}

#[inline]
fn oob(buf: u32, gidx: i64, window_lo: i64, len: usize) -> ExecError {
    ExecError::OutOfBounds {
        buf: format!("buf#{buf}"),
        idx: gidx,
        window: (window_lo, window_lo + len as i64),
    }
}

/// Execute one compiled iteration (one simulated GPU thread) against a
/// context. Counters, buffers, miss records and dirty bits mutate exactly
/// as the AST walker would.
pub fn run_iteration(
    code: &CompiledBody,
    ctx: &mut ExecCtx<'_>,
    locals: &mut [Value],
    tid: i64,
    scratch: &mut Scratch,
) -> Result<(), ExecError> {
    let ops = &code.ops[..];
    let stack = &mut scratch.stack;
    let istack = &mut scratch.istack;
    stack.clear();
    istack.clear();
    let mut pc = 0usize;
    loop {
        match &ops[pc] {
            Op::PushImm(v) => stack.push(*v),
            Op::PushLocal(l) => stack.push(locals[*l as usize]),
            Op::PushParam(p) => stack.push(ctx.params[*p as usize]),
            Op::PushTid => {
                debug_assert!(tid <= i32::MAX as i64);
                stack.push(Value::I32(tid as i32));
            }
            Op::SetLocal(l) => {
                let v = stack.pop().expect("stack underflow");
                ctx.counters.int_ops += 1;
                locals[*l as usize] = v;
            }
            Op::ToIndex => {
                let v = stack.pop().expect("stack underflow");
                let i = v
                    .as_index()
                    .ok_or_else(|| ExecError::TypeError("non-integer buffer index".into()))?;
                istack.push(i);
            }
            Op::BufLoad(buf) => {
                let gidx = istack.pop().expect("index stack underflow");
                let bslot = *buf as usize;
                let slot = &mut ctx.bufs[bslot];
                let local = gidx - slot.window_lo;
                if local < 0 || local as usize >= slot.data.len() {
                    return Err(oob(*buf, gidx, slot.window_lo, slot.data.len()));
                }
                let v = slot.data.get(local as usize);
                let nbytes = slot.data.ty().size_bytes() as u64;
                let c = &mut ctx.counters;
                c.loads += 1;
                c.load_bytes += nbytes;
                c.int_ops += 1; // index translation
                ctx.per_buf_bytes[bslot].0 += nbytes;
                // `tid` only feeds the sanitizer, which never touches
                // counters.
                crate::interp::sanitize_load(ctx, *buf, tid, gidx);
                stack.push(v);
            }
            Op::BufStore {
                buf,
                dirty,
                checked,
            } => {
                let v = stack.pop().expect("stack underflow");
                let gidx = istack.pop().expect("index stack underflow");
                let bslot = *buf as usize;
                if *checked {
                    ctx.counters.miss_checks += 1;
                    let own = ctx.bufs[bslot].own;
                    if gidx < own.0 || gidx >= own.1 {
                        ctx.counters.misses += 1;
                        if ctx.miss_buf.len() >= ctx.miss_capacity {
                            return Err(ExecError::MissBufferOverflow {
                                capacity: ctx.miss_capacity,
                            });
                        }
                        let c = &mut ctx.counters;
                        c.stores += 1;
                        c.store_bytes += (8 + v.ty().size_bytes()) as u64;
                        ctx.miss_buf.push(crate::MissRecord {
                            buf: *buf,
                            idx: gidx,
                            value: v,
                        });
                        pc += 1;
                        continue;
                    }
                } else {
                    // Mirror the walker: audit unchecked stores before
                    // the write (the record must survive a later OOB).
                    crate::interp::sanitize_store(ctx, *buf, tid, gidx);
                }
                let slot = &mut ctx.bufs[bslot];
                let local = gidx - slot.window_lo;
                if local < 0 || local as usize >= slot.data.len() {
                    return Err(oob(*buf, gidx, slot.window_lo, slot.data.len()));
                }
                let vv = v.cast(slot.data.ty());
                slot.data.set(local as usize, vv);
                let nbytes = slot.data.ty().size_bytes() as u64;
                let c = &mut ctx.counters;
                c.stores += 1;
                c.store_bytes += nbytes;
                c.int_ops += 1; // index translation
                ctx.per_buf_bytes[bslot].1 += nbytes;
                if *dirty {
                    let slot = &mut ctx.bufs[bslot];
                    if let Some(d) = slot.dirty.as_deref_mut() {
                        d.mark(local as usize);
                    }
                    ctx.counters.dirty_marks += 1;
                }
            }
            Op::AtomicRmw { buf, op } => {
                let v = stack.pop().expect("stack underflow");
                let gidx = istack.pop().expect("index stack underflow");
                let bslot = *buf as usize;
                let slot = &mut ctx.bufs[bslot];
                let local = gidx - slot.window_lo;
                if local < 0 || local as usize >= slot.data.len() {
                    return Err(oob(*buf, gidx, slot.window_lo, slot.data.len()));
                }
                // Counter order matches the walker's raw_load → rmw →
                // raw_store sequence so even failing runs tally alike.
                let nbytes = slot.data.ty().size_bytes() as u64;
                let old = slot.data.get(local as usize);
                let c = &mut ctx.counters;
                c.loads += 1;
                c.load_bytes += nbytes;
                ctx.per_buf_bytes[bslot].0 += nbytes;
                let new = rmw_apply(*op, old, v)?;
                let slot = &mut ctx.bufs[bslot];
                slot.data.set(local as usize, new.cast(slot.data.ty()));
                let c = &mut ctx.counters;
                c.stores += 1;
                c.store_bytes += nbytes;
                c.int_ops += 1; // index translation (store side)
                c.atomics += 1;
                ctx.per_buf_bytes[bslot].1 += nbytes;
            }
            Op::ReduceScalar { slot, op } => {
                let v = stack.pop().expect("stack underflow");
                let cur = ctx.reduction_partials[*slot as usize];
                ctx.reduction_partials[*slot as usize] = rmw_apply(*op, cur, v)?;
                count_arith(ctx, v.ty());
            }
            Op::Unary(op) => {
                let a = stack.pop().expect("stack underflow");
                count_arith(ctx, a.ty());
                stack.push(crate::interp::eval_unary(*op, a)?);
            }
            Op::Binary(op) => {
                let b = stack.pop().expect("stack underflow");
                let a = stack.pop().expect("stack underflow");
                if matches!(op, BinOp::Div | BinOp::Rem) {
                    ctx.counters.special_ops += 1;
                } else {
                    count_arith(ctx, a.ty());
                }
                stack.push(crate::interp::eval_binary(*op, a, b)?);
            }
            Op::Cast(ty) => {
                let a = stack.pop().expect("stack underflow");
                ctx.counters.int_ops += 1;
                stack.push(a.cast(*ty));
            }
            Op::Call { f, argc } => {
                let base = stack.len() - *argc as usize;
                ctx.counters.special_ops += 1;
                let v = crate::interp::eval_builtin(*f, &stack[base..])?;
                stack.truncate(base);
                stack.push(v);
            }
            Op::Jump(t) => {
                pc = *t as usize;
                continue;
            }
            Op::BrFalse { target, ctx: bc } => {
                let v = stack.pop().expect("stack underflow");
                let b = v.as_bool().ok_or_else(|| bc.err())?;
                ctx.counters.branches += 1;
                if !b {
                    pc = *target as usize;
                    continue;
                }
            }
            Op::BrShortCircuit { target, is_and } => {
                let v = stack.pop().expect("stack underflow");
                let b = v.as_bool().ok_or_else(|| BoolCtx::Logic.err())?;
                ctx.counters.branches += 1;
                if b != *is_and {
                    // `false && _` or `true || _`: decided without rhs.
                    stack.push(Value::Bool(b));
                    pc = *target as usize;
                    continue;
                }
            }
            Op::ToBool => {
                let v = stack.pop().expect("stack underflow");
                let b = v.as_bool().ok_or_else(|| BoolCtx::Logic.err())?;
                stack.push(Value::Bool(b));
            }
            Op::Halt => return Ok(()),
        }
        pc += 1;
    }
}

#[inline]
fn count_arith(ctx: &mut ExecCtx<'_>, ty: Ty) {
    let c = &mut ctx.counters;
    match ty {
        Ty::F32 => c.f32_ops += 1,
        Ty::F64 => c.f64_ops += 1,
        _ => c.int_ops += 1,
    }
}
