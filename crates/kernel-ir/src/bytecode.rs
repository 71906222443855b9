//! The dynamically typed stack bytecode: the comparison tier.
//!
//! Kernels run on the statically typed register tier ([`crate::regvm`]),
//! which refuses any kernel it cannot type, so this is not the hot path:
//! it executes whole runs under `KernelVm::Bytecode`, and on hand-built
//! IR it reproduces the walker's dynamic `TypeError`s, which only a
//! tagged-`Value` machine can. A kernel body
//! is compiled once into a flat instruction vector executed by a small
//! stack machine: the instruction stream is contiguous in memory,
//! control flow becomes jumps, and the AST walker's per-node `Result`
//! plumbing collapses into one dispatch loop.
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
#[derive(Debug, Clone)]
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

    // ---- fused superinstructions ------------------------------------
    //
    // Produced by the peephole pass in [`fuse`], never by the code
    // generator. Each is the exact concatenation of the two ops it
    // replaces: same counter updates, in the same order, failing with
    // the same `ExecError` at the same point. They exist purely to cut
    // dispatch and stack traffic on the per-iteration hot path.
    /// `PushTid` + `ToIndex`.
    TidIndex,
    /// `PushLocal` + `ToIndex`.
    LocalIndex(u32),
    /// `PushParam` + `ToIndex`.
    ParamIndex(u32),
    /// `PushImm` + `ToIndex` (index coercion done at compile time; only
    /// emitted when the immediate is a valid index).
    ImmIndex(i64),
    /// `TidIndex` + `BufLoad`.
    LoadTid(u32),
    /// `LocalIndex` + `BufLoad`.
    LoadAtLocal { buf: u32, l: u32 },
    /// `ParamIndex` + `BufLoad`.
    LoadAtParam { buf: u32, p: u32 },
    /// `ImmIndex` + `BufLoad`.
    LoadAtImm { buf: u32, idx: i64 },
    /// `BufLoad` + `SetLocal`.
    LoadToLocal { buf: u32, dst: u32 },
    /// `LoadTid` + `SetLocal`.
    LoadTidToLocal { buf: u32, dst: u32 },
    /// `LoadAtLocal` + `SetLocal`.
    LoadAtLocalToLocal { buf: u32, l: u32, dst: u32 },
    /// `PushParam` + `SetLocal`.
    ParamToLocal { p: u32, dst: u32 },
    /// Two consecutive `ParamToLocal`s (kernel preambles copy several
    /// launch parameters into locals back to back).
    Param2ToLocal { p: [u32; 2], dst: [u32; 2] },
    /// Three consecutive `ParamToLocal`s.
    Param3ToLocal { p: [u32; 3], dst: [u32; 3] },
    /// `PushImm` + `SetLocal`.
    ImmToLocal { v: Value, dst: u32 },
    /// `PushLocal` + `SetLocal`.
    LocalToLocal { src: u32, dst: u32 },
    /// `PushLocal` (the rhs) + `Binary`.
    BinOpLocal { op: BinOp, l: u32 },
    /// `PushImm` (the rhs) + `Binary`.
    BinOpImm { op: BinOp, v: Value },
    /// `PushParam` (the rhs) + `Binary`.
    BinOpParam { op: BinOp, p: u32 },
    /// `Binary` + `BrFalse`.
    BinBr { op: BinOp, target: u32, ctx: BoolCtx },
    /// `BinOpLocal` + `BrFalse`.
    BinLocalBr { op: BinOp, l: u32, target: u32, ctx: BoolCtx },
    /// `BinOpImm` + `BrFalse`.
    BinImmBr { op: BinOp, v: Value, target: u32, ctx: BoolCtx },
    /// `BinOpParam` + `BrFalse`.
    BinParamBr { op: BinOp, p: u32, target: u32, ctx: BoolCtx },
    /// `Binary` + `ToIndex`.
    BinToIndex { op: BinOp },
    /// `BinOpLocal` + `ToIndex`.
    BinLocalToIndex { op: BinOp, l: u32 },
    /// `BinOpImm` + `ToIndex`.
    BinImmToIndex { op: BinOp, v: Value },
    /// `LoadAtLocal` + `BinLocalBr`: load at a local-valued index,
    /// compare against another local, branch — the scan-reject shape of
    /// sparse-graph kernels.
    LoadLocalBinLocalBr {
        buf: u32,
        il: u32,
        op: BinOp,
        rl: u32,
        target: u32,
        ctx: BoolCtx,
    },
    /// `LoadAtLocal` + `BinImmBr`.
    LoadLocalBinImmBr {
        buf: u32,
        il: u32,
        op: BinOp,
        v: Value,
        target: u32,
        ctx: BoolCtx,
    },
    /// `Binary` + `SetLocal`.
    BinToLocal { op: BinOp, dst: u32 },
    /// `BinOpLocal` + `SetLocal`.
    BinLocalToLocal { op: BinOp, l: u32, dst: u32 },
    /// `BinOpImm` + `SetLocal`.
    BinImmToLocal { op: BinOp, v: Value, dst: u32 },
}

/// The absolute jump target carried by an op, if any.
fn jump_target(op: &Op) -> Option<u32> {
    match op {
        Op::Jump(t)
        | Op::BrFalse { target: t, .. }
        | Op::BrShortCircuit { target: t, .. }
        | Op::BinBr { target: t, .. }
        | Op::BinLocalBr { target: t, .. }
        | Op::BinImmBr { target: t, .. }
        | Op::BinParamBr { target: t, .. }
        | Op::LoadLocalBinLocalBr { target: t, .. }
        | Op::LoadLocalBinImmBr { target: t, .. } => Some(*t),
        _ => None,
    }
}

fn jump_target_mut(op: &mut Op) -> Option<&mut u32> {
    match op {
        Op::Jump(t)
        | Op::BrFalse { target: t, .. }
        | Op::BrShortCircuit { target: t, .. }
        | Op::BinBr { target: t, .. }
        | Op::BinLocalBr { target: t, .. }
        | Op::BinImmBr { target: t, .. }
        | Op::BinParamBr { target: t, .. }
        | Op::LoadLocalBinLocalBr { target: t, .. }
        | Op::LoadLocalBinImmBr { target: t, .. } => Some(t),
        _ => None,
    }
}

/// Try to fuse two adjacent ops into one superinstruction. `None` means
/// "leave the pair alone" — including the `PushImm`+`ToIndex` case where
/// the immediate is not a valid index, so the runtime error path of
/// `ToIndex` is preserved.
fn fuse2(a: &Op, b: &Op) -> Option<Op> {
    Some(match (a, b) {
        (Op::PushTid, Op::ToIndex) => Op::TidIndex,
        (Op::PushLocal(l), Op::ToIndex) => Op::LocalIndex(*l),
        (Op::PushParam(p), Op::ToIndex) => Op::ParamIndex(*p),
        (Op::PushImm(v), Op::ToIndex) => Op::ImmIndex(v.as_index()?),
        (Op::TidIndex, Op::BufLoad(buf)) => Op::LoadTid(*buf),
        (Op::LocalIndex(l), Op::BufLoad(buf)) => Op::LoadAtLocal { buf: *buf, l: *l },
        (Op::ParamIndex(p), Op::BufLoad(buf)) => Op::LoadAtParam { buf: *buf, p: *p },
        (Op::ImmIndex(i), Op::BufLoad(buf)) => Op::LoadAtImm { buf: *buf, idx: *i },
        (Op::BufLoad(buf), Op::SetLocal(d)) => Op::LoadToLocal { buf: *buf, dst: *d },
        (Op::LoadTid(buf), Op::SetLocal(d)) => Op::LoadTidToLocal { buf: *buf, dst: *d },
        (Op::LoadAtLocal { buf, l }, Op::SetLocal(d)) => Op::LoadAtLocalToLocal {
            buf: *buf,
            l: *l,
            dst: *d,
        },
        (Op::PushParam(p), Op::SetLocal(d)) => Op::ParamToLocal { p: *p, dst: *d },
        (
            Op::ParamToLocal { p: p0, dst: d0 },
            Op::ParamToLocal { p: p1, dst: d1 },
        ) => Op::Param2ToLocal {
            p: [*p0, *p1],
            dst: [*d0, *d1],
        },
        (
            Op::Param2ToLocal { p, dst },
            Op::ParamToLocal { p: p2, dst: d2 },
        ) => Op::Param3ToLocal {
            p: [p[0], p[1], *p2],
            dst: [dst[0], dst[1], *d2],
        },
        (Op::PushImm(v), Op::SetLocal(d)) => Op::ImmToLocal { v: *v, dst: *d },
        (Op::PushLocal(s), Op::SetLocal(d)) => Op::LocalToLocal { src: *s, dst: *d },
        (Op::PushLocal(l), Op::Binary(op)) => Op::BinOpLocal { op: *op, l: *l },
        (Op::PushImm(v), Op::Binary(op)) => Op::BinOpImm { op: *op, v: *v },
        (Op::PushParam(p), Op::Binary(op)) => Op::BinOpParam { op: *op, p: *p },
        (Op::Binary(op), Op::BrFalse { target, ctx }) => Op::BinBr {
            op: *op,
            target: *target,
            ctx: *ctx,
        },
        (Op::BinOpLocal { op, l }, Op::BrFalse { target, ctx }) => Op::BinLocalBr {
            op: *op,
            l: *l,
            target: *target,
            ctx: *ctx,
        },
        (Op::BinOpImm { op, v }, Op::BrFalse { target, ctx }) => Op::BinImmBr {
            op: *op,
            v: *v,
            target: *target,
            ctx: *ctx,
        },
        (Op::BinOpParam { op, p }, Op::BrFalse { target, ctx }) => Op::BinParamBr {
            op: *op,
            p: *p,
            target: *target,
            ctx: *ctx,
        },
        (
            Op::LoadAtLocal { buf, l },
            Op::BinLocalBr {
                op,
                l: rl,
                target,
                ctx,
            },
        ) => Op::LoadLocalBinLocalBr {
            buf: *buf,
            il: *l,
            op: *op,
            rl: *rl,
            target: *target,
            ctx: *ctx,
        },
        (
            Op::LoadAtLocal { buf, l },
            Op::BinImmBr {
                op,
                v,
                target,
                ctx,
            },
        ) => Op::LoadLocalBinImmBr {
            buf: *buf,
            il: *l,
            op: *op,
            v: *v,
            target: *target,
            ctx: *ctx,
        },
        (Op::Binary(op), Op::ToIndex) => Op::BinToIndex { op: *op },
        (Op::BinOpLocal { op, l }, Op::ToIndex) => Op::BinLocalToIndex { op: *op, l: *l },
        (Op::BinOpImm { op, v }, Op::ToIndex) => Op::BinImmToIndex { op: *op, v: *v },
        (Op::Binary(op), Op::SetLocal(d)) => Op::BinToLocal { op: *op, dst: *d },
        (Op::BinOpLocal { op, l }, Op::SetLocal(d)) => Op::BinLocalToLocal {
            op: *op,
            l: *l,
            dst: *d,
        },
        (Op::BinOpImm { op, v }, Op::SetLocal(d)) => Op::BinImmToLocal {
            op: *op,
            v: *v,
            dst: *d,
        },
        _ => return None,
    })
}

/// Peephole-fuse adjacent op pairs into superinstructions, repeating
/// until a fixpoint so chains collapse (`PushTid`+`ToIndex`+`BufLoad`+
/// `SetLocal` becomes one `LoadTidToLocal` over three passes).
///
/// A pair is only fused when its *second* op is not a jump target:
/// an op reachable by jump must stay an instruction boundary. (This
/// also guards semantic validity — e.g. a `Binary` that merges two
/// `Select` arms is a jump target, so it never fuses with whichever
/// push happens to sit before it.) All jump targets are remapped after
/// each pass.
fn fuse(mut ops: Vec<Op>) -> Vec<Op> {
    loop {
        let mut is_target = vec![false; ops.len() + 1];
        for op in &ops {
            if let Some(t) = jump_target(op) {
                is_target[t as usize] = true;
            }
        }
        let mut out: Vec<Op> = Vec::with_capacity(ops.len());
        let mut map = vec![0u32; ops.len() + 1];
        let mut changed = false;
        let mut i = 0usize;
        while i < ops.len() {
            map[i] = out.len() as u32;
            if i + 1 < ops.len() && !is_target[i + 1] {
                if let Some(f) = fuse2(&ops[i], &ops[i + 1]) {
                    map[i + 1] = out.len() as u32;
                    out.push(f);
                    changed = true;
                    i += 2;
                    continue;
                }
            }
            out.push(ops[i].clone());
            i += 1;
        }
        map[ops.len()] = out.len() as u32;
        for op in &mut out {
            if let Some(t) = jump_target_mut(op) {
                *t = map[*t as usize];
            }
        }
        ops = out;
        if !changed {
            return ops;
        }
    }
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
    CompiledBody { ops: fuse(c.ops) }
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

/// The `ToIndex` coercion, shared by the fused index ops.
#[inline(always)]
fn index_of(v: Value) -> Result<i64, ExecError> {
    v.as_index()
        .ok_or_else(|| ExecError::TypeError("non-integer buffer index".into()))
}

/// The `BufLoad` body (bounds check, then counters, then the value),
/// shared by the fused load ops. `tid` only feeds the sanitizer, which
/// never touches counters — the VM stays bit-identical to the walker.
#[inline(always)]
fn load(ctx: &mut ExecCtx<'_>, buf: u32, tid: i64, gidx: i64) -> Result<Value, ExecError> {
    let slot = &mut ctx.bufs[buf as usize];
    let local = gidx - slot.window_lo;
    if local < 0 || local as usize >= slot.data.len() {
        return Err(oob(buf, gidx, slot.window_lo, slot.data.len()));
    }
    let v = slot.data.get(local as usize);
    let nbytes = slot.data.ty().size_bytes() as u64;
    let c = &mut ctx.counters;
    c.loads += 1;
    c.load_bytes += nbytes;
    c.int_ops += 1; // index translation
    ctx.per_buf_bytes[buf as usize].0 += nbytes;
    crate::interp::sanitize_load(ctx, buf, tid, gidx);
    Ok(v)
}

/// The `Binary` body (operand-typed counting, then evaluation), shared
/// by the fused binary ops.
#[inline(always)]
fn binary(ctx: &mut ExecCtx<'_>, op: BinOp, a: Value, b: Value) -> Result<Value, ExecError> {
    if matches!(op, BinOp::Div | BinOp::Rem) {
        ctx.counters.special_ops += 1;
    } else {
        count_arith(ctx, a.ty());
    }
    crate::interp::eval_binary(op, a, b)
}

/// The `BrFalse` condition handling (bool coercion with the context's
/// error string, then the branch counter), shared by the fused
/// compare-and-branch ops.
#[inline(always)]
fn branch_cond(ctx: &mut ExecCtx<'_>, v: Value, bc: BoolCtx) -> Result<bool, ExecError> {
    let b = v.as_bool().ok_or_else(|| bc.err())?;
    ctx.counters.branches += 1;
    Ok(b)
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
                let v = load(ctx, *buf, tid, gidx)?;
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
                stack.push(binary(ctx, *op, a, b)?);
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
                if !branch_cond(ctx, v, *bc)? {
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

            // Fused superinstructions: each arm is the two component
            // arms back to back, with the intermediate stack push/pop
            // elided.
            Op::TidIndex => {
                debug_assert!(tid <= i32::MAX as i64);
                istack.push(tid);
            }
            Op::LocalIndex(l) => {
                let i = index_of(locals[*l as usize])?;
                istack.push(i);
            }
            Op::ParamIndex(p) => {
                let i = index_of(ctx.params[*p as usize])?;
                istack.push(i);
            }
            Op::ImmIndex(i) => istack.push(*i),
            Op::LoadTid(buf) => {
                debug_assert!(tid <= i32::MAX as i64);
                let v = load(ctx, *buf, tid, tid)?;
                stack.push(v);
            }
            Op::LoadAtLocal { buf, l } => {
                let gidx = index_of(locals[*l as usize])?;
                let v = load(ctx, *buf, tid, gidx)?;
                stack.push(v);
            }
            Op::LoadAtParam { buf, p } => {
                let gidx = index_of(ctx.params[*p as usize])?;
                let v = load(ctx, *buf, tid, gidx)?;
                stack.push(v);
            }
            Op::LoadAtImm { buf, idx } => {
                let v = load(ctx, *buf, tid, *idx)?;
                stack.push(v);
            }
            Op::LoadToLocal { buf, dst } => {
                let gidx = istack.pop().expect("index stack underflow");
                let v = load(ctx, *buf, tid, gidx)?;
                ctx.counters.int_ops += 1;
                locals[*dst as usize] = v;
            }
            Op::LoadTidToLocal { buf, dst } => {
                debug_assert!(tid <= i32::MAX as i64);
                let v = load(ctx, *buf, tid, tid)?;
                ctx.counters.int_ops += 1;
                locals[*dst as usize] = v;
            }
            Op::LoadAtLocalToLocal { buf, l, dst } => {
                let gidx = index_of(locals[*l as usize])?;
                let v = load(ctx, *buf, tid, gidx)?;
                ctx.counters.int_ops += 1;
                locals[*dst as usize] = v;
            }
            Op::ParamToLocal { p, dst } => {
                ctx.counters.int_ops += 1;
                locals[*dst as usize] = ctx.params[*p as usize];
            }
            Op::Param2ToLocal { p, dst } => {
                ctx.counters.int_ops += 2;
                locals[dst[0] as usize] = ctx.params[p[0] as usize];
                locals[dst[1] as usize] = ctx.params[p[1] as usize];
            }
            Op::Param3ToLocal { p, dst } => {
                ctx.counters.int_ops += 3;
                locals[dst[0] as usize] = ctx.params[p[0] as usize];
                locals[dst[1] as usize] = ctx.params[p[1] as usize];
                locals[dst[2] as usize] = ctx.params[p[2] as usize];
            }
            Op::ImmToLocal { v, dst } => {
                ctx.counters.int_ops += 1;
                locals[*dst as usize] = *v;
            }
            Op::LocalToLocal { src, dst } => {
                ctx.counters.int_ops += 1;
                locals[*dst as usize] = locals[*src as usize];
            }
            Op::BinOpLocal { op, l } => {
                let b = locals[*l as usize];
                let a = stack.pop().expect("stack underflow");
                stack.push(binary(ctx, *op, a, b)?);
            }
            Op::BinOpImm { op, v } => {
                let a = stack.pop().expect("stack underflow");
                stack.push(binary(ctx, *op, a, *v)?);
            }
            Op::BinOpParam { op, p } => {
                let b = ctx.params[*p as usize];
                let a = stack.pop().expect("stack underflow");
                stack.push(binary(ctx, *op, a, b)?);
            }
            Op::BinBr { op, target, ctx: bc } => {
                let b = stack.pop().expect("stack underflow");
                let a = stack.pop().expect("stack underflow");
                let v = binary(ctx, *op, a, b)?;
                if !branch_cond(ctx, v, *bc)? {
                    pc = *target as usize;
                    continue;
                }
            }
            Op::BinLocalBr {
                op,
                l,
                target,
                ctx: bc,
            } => {
                let b = locals[*l as usize];
                let a = stack.pop().expect("stack underflow");
                let v = binary(ctx, *op, a, b)?;
                if !branch_cond(ctx, v, *bc)? {
                    pc = *target as usize;
                    continue;
                }
            }
            Op::BinImmBr {
                op,
                v,
                target,
                ctx: bc,
            } => {
                let a = stack.pop().expect("stack underflow");
                let r = binary(ctx, *op, a, *v)?;
                if !branch_cond(ctx, r, *bc)? {
                    pc = *target as usize;
                    continue;
                }
            }
            Op::BinParamBr {
                op,
                p,
                target,
                ctx: bc,
            } => {
                let b = ctx.params[*p as usize];
                let a = stack.pop().expect("stack underflow");
                let v = binary(ctx, *op, a, b)?;
                if !branch_cond(ctx, v, *bc)? {
                    pc = *target as usize;
                    continue;
                }
            }
            Op::LoadLocalBinLocalBr {
                buf,
                il,
                op,
                rl,
                target,
                ctx: bc,
            } => {
                let gidx = index_of(locals[*il as usize])?;
                let a = load(ctx, *buf, tid, gidx)?;
                let b = locals[*rl as usize];
                let v = binary(ctx, *op, a, b)?;
                if !branch_cond(ctx, v, *bc)? {
                    pc = *target as usize;
                    continue;
                }
            }
            Op::LoadLocalBinImmBr {
                buf,
                il,
                op,
                v,
                target,
                ctx: bc,
            } => {
                let gidx = index_of(locals[*il as usize])?;
                let a = load(ctx, *buf, tid, gidx)?;
                let r = binary(ctx, *op, a, *v)?;
                if !branch_cond(ctx, r, *bc)? {
                    pc = *target as usize;
                    continue;
                }
            }
            Op::BinToIndex { op } => {
                let b = stack.pop().expect("stack underflow");
                let a = stack.pop().expect("stack underflow");
                let v = binary(ctx, *op, a, b)?;
                istack.push(index_of(v)?);
            }
            Op::BinLocalToIndex { op, l } => {
                let b = locals[*l as usize];
                let a = stack.pop().expect("stack underflow");
                let v = binary(ctx, *op, a, b)?;
                istack.push(index_of(v)?);
            }
            Op::BinImmToIndex { op, v } => {
                let a = stack.pop().expect("stack underflow");
                let r = binary(ctx, *op, a, *v)?;
                istack.push(index_of(r)?);
            }
            Op::BinToLocal { op, dst } => {
                let b = stack.pop().expect("stack underflow");
                let a = stack.pop().expect("stack underflow");
                let v = binary(ctx, *op, a, b)?;
                ctx.counters.int_ops += 1;
                locals[*dst as usize] = v;
            }
            Op::BinLocalToLocal { op, l, dst } => {
                let b = locals[*l as usize];
                let a = stack.pop().expect("stack underflow");
                let v = binary(ctx, *op, a, b)?;
                ctx.counters.int_ops += 1;
                locals[*dst as usize] = v;
            }
            Op::BinImmToLocal { op, v, dst } => {
                let a = stack.pop().expect("stack underflow");
                let r = binary(ctx, *op, a, *v)?;
                ctx.counters.int_ops += 1;
                locals[*dst as usize] = r;
            }
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
