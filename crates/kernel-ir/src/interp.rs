//! The kernel IR interpreter.
//!
//! One simulated GPU executes the iteration sub-range assigned to it by
//! running [`run_kernel_range`] — or one of the faster tiers held equal
//! to it — over an [`ExecCtx`] built from its device memory. The
//! interpreter is single-threaded per GPU (multi-GPU parallelism happens
//! one level up, in `acc-runtime`, which runs the GPUs' shares of a
//! launch on as many host threads as the host has cores); within a GPU,
//! hardware parallelism is captured by the timing model in `acc-gpusim`,
//! not by host threads — this keeps irregular-write kernels
//! deterministic.
//!
//! The AST walker here ([`run_kernel_range_ast`]) is the reference
//! semantics: the stack bytecode ([`crate::bytecode`]) and the register
//! tier ([`crate::regvm`]) are differential-tested against it.

use crate::dirty::DirtyMap;
use crate::{
    BinOp, Buffer, Builtin, Expr, Kernel, OpCounters, RmwOp, Stmt, Ty, UnOp, Value,
};

/// A buffered remote-write record: a write to a distributed array that
/// missed the local partition (paper §IV-D2). The pair of destination
/// address and value is staged in a system buffer on the local GPU and
/// later replayed on the owning GPU by the communication manager.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MissRecord {
    /// Buffer parameter index within the kernel.
    pub buf: u32,
    /// Global element index of the destination.
    pub idx: i64,
    /// The value written.
    pub value: Value,
}

/// What a sanitizer check observed going wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SanitizeKind {
    /// A load read outside the thread's declared `localaccess` window
    /// `[stride*tid - left, stride*(tid+1) + right)`: the annotation
    /// under-declares the kernel's true read footprint.
    LoadOutsideWindow,
    /// An unchecked (miss-check-elided) store landed outside the owned
    /// partition: the static write-locality proof was unsound for this
    /// input.
    StoreOutsideOwn,
    /// A load escaped the *carried-distance* claim
    /// `[stride*tid - left, stride*(tid+1) + right)` derived from the
    /// compiler's `CarriedLocal { distance }` verdict: the proved
    /// distance interval was too narrow for this input, so wavefront
    /// scheduling and halo-overlap decisions licensed by it are unsound.
    CarriedDistanceEscape,
}

/// One sanitizer violation, recorded during interpretation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SanitizeRecord {
    /// Buffer parameter index within the kernel.
    pub buf: u32,
    /// Global iteration index of the offending thread.
    pub tid: i64,
    /// The global element index accessed.
    pub idx: i64,
    /// The window the access had to stay inside (exclusive upper bound).
    pub window: (i64, i64),
    /// Which check fired.
    pub kind: SanitizeKind,
}

/// Per-buffer sanitizer configuration. An empty `ExecCtx::sanitize`
/// vector disables sanitizing entirely (the default).
#[derive(Debug, Clone, Copy, Default)]
pub struct BufSanitize {
    /// `(stride, left, right)` of the declared `localaccess` window; a
    /// load by thread `t` must hit `[stride*t - left, stride*(t+1) + right)`.
    /// `None` leaves loads unchecked.
    pub load_window: Option<(i64, i64, i64)>,
    /// `(stride, left, right)` in **elements** of the carried-distance
    /// claim proved by the dependence analysis: a load by thread `t`
    /// must hit `[stride*t - left, stride*(t+1) + right)` or the
    /// `CarriedLocal` verdict was mislabeled. Checked independently of
    /// (and usually tighter than or equal to) `load_window`. `None`
    /// leaves the claim unchecked.
    pub carried_window: Option<(i64, i64, i64)>,
    /// Audit unchecked stores against the slot's owned range.
    pub check_stores: bool,
}

/// Cap on retained [`SanitizeRecord`]s per launch; `sanitize_hits` keeps
/// counting past it.
pub const SANITIZE_LOG_CAP: usize = 64;

/// Runtime execution error.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// Out-of-bounds buffer access. Carries buffer name, global index, and
    /// the valid global window.
    OutOfBounds {
        buf: String,
        idx: i64,
        window: (i64, i64),
    },
    /// Integer division or remainder by zero.
    DivByZero,
    /// An expression evaluated to a type the operation cannot accept; this
    /// indicates a frontend bug (sema should have rejected the program).
    TypeError(String),
    /// The write-miss system buffer overflowed its configured capacity.
    MissBufferOverflow { capacity: usize },
    /// `ThreadIdx` evaluated outside a kernel (host-side interpretation).
    ThreadIdxOnHost,
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::OutOfBounds { buf, idx, window } => write!(
                f,
                "out-of-bounds access to `{buf}`: global index {idx} outside resident window [{}, {})",
                window.0, window.1
            ),
            ExecError::DivByZero => write!(f, "integer division by zero"),
            ExecError::TypeError(m) => write!(f, "type error during execution: {m}"),
            ExecError::MissBufferOverflow { capacity } => {
                write!(f, "write-miss buffer overflow (capacity {capacity} records)")
            }
            ExecError::ThreadIdxOnHost => write!(f, "thread index used in host code"),
        }
    }
}
impl std::error::Error for ExecError {}

/// One bound buffer inside an [`ExecCtx`].
///
/// `window_lo` implements the paper's index rewriting (§IV-B3): the device
/// buffer holds global elements `[window_lo, window_lo + data.len())`, and
/// every access translates its global index by subtracting `window_lo`
/// (the interpreter charges one integer op per access for the translation,
/// matching the arithmetic the generated CUDA would perform).
///
/// `own` is the owned global range used by checked stores on distributed
/// arrays: a store inside `own` lands locally, a store outside is recorded
/// as a write miss. For replicated arrays `own` covers the whole window.
#[derive(Debug)]
pub struct BufSlot<'a> {
    pub data: &'a mut Buffer,
    pub window_lo: i64,
    pub own: (i64, i64),
    pub dirty: Option<&'a mut DirtyMap>,
}

impl<'a> BufSlot<'a> {
    /// A slot whose window covers the full array starting at 0 and that
    /// owns everything — the single-GPU / host configuration.
    pub fn whole(data: &'a mut Buffer) -> BufSlot<'a> {
        let n = data.len() as i64;
        BufSlot {
            data,
            window_lo: 0,
            own: (0, n),
            dirty: None,
        }
    }
}

/// Mutable execution context for one kernel launch (or host region) on one
/// device.
#[derive(Debug)]
pub struct ExecCtx<'a> {
    /// Values of the scalar launch parameters, in declaration order.
    pub params: Vec<Value>,
    /// Bound buffers, in kernel buffer-parameter order.
    pub bufs: Vec<BufSlot<'a>>,
    /// Per-launch scalar-reduction partials; initialised to the identity
    /// of each reduction before the launch.
    pub reduction_partials: Vec<Value>,
    /// Write-miss records staged during this launch.
    pub miss_buf: Vec<MissRecord>,
    /// Capacity of the miss buffer; exceeding it is an execution error
    /// (the runtime sizes it from the array configuration information).
    pub miss_capacity: usize,
    /// Dynamic work counters.
    pub counters: OpCounters,
    /// Per-buffer `(load_bytes, store_bytes)`, parallel to `bufs`. The
    /// runtime combines these with each buffer's access-pattern class to
    /// price memory time per array (gathers from cache-resident arrays
    /// are much cheaper than cold gathers).
    pub per_buf_bytes: Vec<(u64, u64)>,
    /// Sanitizer configuration, parallel to `bufs`; empty disables all
    /// sanitizer checks. Sanitizing never touches `counters` — a
    /// sanitized run is bit-identical (buffers, counters, misses) to an
    /// unsanitized one, it only *observes*.
    pub sanitize: Vec<BufSanitize>,
    /// Violations observed, capped at [`SANITIZE_LOG_CAP`] records.
    pub sanitize_log: Vec<SanitizeRecord>,
    /// Total violations observed (uncapped).
    pub sanitize_hits: u64,
}

impl<'a> ExecCtx<'a> {
    /// Build a context for `kernel` with the given parameter values and
    /// buffer slots. Reduction partials are set to identities.
    pub fn new(kernel: &Kernel, params: Vec<Value>, bufs: Vec<BufSlot<'a>>) -> ExecCtx<'a> {
        let reduction_partials = kernel
            .reductions
            .iter()
            .map(|r| rmw_identity(r.op, r.ty))
            .collect();
        let n_bufs = bufs.len();
        ExecCtx {
            params,
            bufs,
            reduction_partials,
            miss_buf: Vec::new(),
            miss_capacity: usize::MAX,
            counters: OpCounters::default(),
            per_buf_bytes: vec![(0, 0); n_bufs],
            sanitize: Vec::new(),
            sanitize_log: Vec::new(),
            sanitize_hits: 0,
        }
    }
}

/// Audit a load against the buffer's declared `localaccess` window for
/// thread `tid`. Shared by the AST walker and the bytecode VM; never
/// touches counters or buffers.
pub(crate) fn sanitize_load(ctx: &mut ExecCtx<'_>, buf: u32, tid: i64, gidx: i64) {
    let Some(cfg) = ctx.sanitize.get(buf as usize) else {
        return;
    };
    if let Some((stride, left, right)) = cfg.load_window {
        let lo = stride * tid - left;
        let hi = stride * (tid + 1) + right;
        if gidx < lo || gidx >= hi {
            ctx.sanitize_hits += 1;
            if ctx.sanitize_log.len() < SANITIZE_LOG_CAP {
                ctx.sanitize_log.push(SanitizeRecord {
                    buf,
                    tid,
                    idx: gidx,
                    window: (lo, hi),
                    kind: SanitizeKind::LoadOutsideWindow,
                });
            }
        }
    }
    if let Some((stride, left, right)) = cfg.carried_window {
        let lo = stride * tid - left;
        let hi = stride * (tid + 1) + right;
        if gidx < lo || gidx >= hi {
            ctx.sanitize_hits += 1;
            if ctx.sanitize_log.len() < SANITIZE_LOG_CAP {
                ctx.sanitize_log.push(SanitizeRecord {
                    buf,
                    tid,
                    idx: gidx,
                    window: (lo, hi),
                    kind: SanitizeKind::CarriedDistanceEscape,
                });
            }
        }
    }
}

/// Audit an unchecked store against the buffer's owned partition. Shared
/// by the AST walker and the bytecode VM; never touches counters or
/// buffers.
pub(crate) fn sanitize_store(ctx: &mut ExecCtx<'_>, buf: u32, tid: i64, gidx: i64) {
    let Some(cfg) = ctx.sanitize.get(buf as usize) else {
        return;
    };
    if !cfg.check_stores {
        return;
    }
    let own = ctx.bufs[buf as usize].own;
    if gidx < own.0 || gidx >= own.1 {
        ctx.sanitize_hits += 1;
        if ctx.sanitize_log.len() < SANITIZE_LOG_CAP {
            ctx.sanitize_log.push(SanitizeRecord {
                buf,
                tid,
                idx: gidx,
                window: own,
                kind: SanitizeKind::StoreOutsideOwn,
            });
        }
    }
}

/// The identity element of a reduction operator at a given type.
pub fn rmw_identity(op: RmwOp, ty: Ty) -> Value {
    match (op, ty) {
        (RmwOp::Add, t) => t.zero(),
        (RmwOp::Mul, Ty::I32) => Value::I32(1),
        (RmwOp::Mul, Ty::F32) => Value::F32(1.0),
        (RmwOp::Mul, Ty::F64) => Value::F64(1.0),
        (RmwOp::Min, Ty::I32) => Value::I32(i32::MAX),
        (RmwOp::Min, Ty::F32) => Value::F32(f32::INFINITY),
        (RmwOp::Min, Ty::F64) => Value::F64(f64::INFINITY),
        (RmwOp::Max, Ty::I32) => Value::I32(i32::MIN),
        (RmwOp::Max, Ty::F32) => Value::F32(f32::NEG_INFINITY),
        (RmwOp::Max, Ty::F64) => Value::F64(f64::NEG_INFINITY),
        (op, ty) => panic!("no identity for {op:?} at {ty}"),
    }
}

/// Apply a reduction operator.
pub fn rmw_apply(op: RmwOp, a: Value, b: Value) -> Result<Value, ExecError> {
    let err = || ExecError::TypeError(format!("rmw {op:?} on {a:?}, {b:?}"));
    Ok(match (a, b) {
        (Value::I32(x), Value::I32(y)) => Value::I32(match op {
            RmwOp::Add => x.wrapping_add(y),
            RmwOp::Mul => x.wrapping_mul(y),
            RmwOp::Min => x.min(y),
            RmwOp::Max => x.max(y),
        }),
        (Value::F32(x), Value::F32(y)) => Value::F32(match op {
            RmwOp::Add => x + y,
            RmwOp::Mul => x * y,
            RmwOp::Min => x.min(y),
            RmwOp::Max => x.max(y),
        }),
        (Value::F64(x), Value::F64(y)) => Value::F64(match op {
            RmwOp::Add => x + y,
            RmwOp::Mul => x * y,
            RmwOp::Min => x.min(y),
            RmwOp::Max => x.max(y),
        }),
        _ => return Err(err()),
    })
}

/// Apply a reduction operator element-wise over raw little-endian byte
/// windows of type `ty`: `dst[i] = op(dst[i], src[i])`.
///
/// This is the slice form of [`rmw_apply`] used by the communication
/// manager's reduction merge: one typed pass over contiguous bytes
/// instead of a `get`/`rmw_apply`/`set` round trip per element. Each
/// lane computes exactly what `rmw_apply` computes for two values of
/// the same type (same wrapping integer ops, same IEEE `min`/`max`
/// semantics), so results are bit-identical to the per-element path.
///
/// # Panics
/// Panics if the slice lengths differ, are not a multiple of the
/// element size, or `ty` is not storable.
pub fn rmw_apply_slice(op: RmwOp, ty: Ty, dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "rmw_apply_slice length mismatch");
    let sz = ty.size_bytes();
    assert!(ty.is_storable() && dst.len().is_multiple_of(sz), "bad rmw_apply_slice window");
    match ty {
        Ty::I32 => {
            for (d, s) in dst.chunks_exact_mut(4).zip(src.chunks_exact(4)) {
                let x = i32::from_le_bytes(d.try_into().unwrap());
                let y = i32::from_le_bytes(s.try_into().unwrap());
                let r = match op {
                    RmwOp::Add => x.wrapping_add(y),
                    RmwOp::Mul => x.wrapping_mul(y),
                    RmwOp::Min => x.min(y),
                    RmwOp::Max => x.max(y),
                };
                d.copy_from_slice(&r.to_le_bytes());
            }
        }
        Ty::F32 => {
            for (d, s) in dst.chunks_exact_mut(4).zip(src.chunks_exact(4)) {
                let x = f32::from_le_bytes(d.try_into().unwrap());
                let y = f32::from_le_bytes(s.try_into().unwrap());
                let r = match op {
                    RmwOp::Add => x + y,
                    RmwOp::Mul => x * y,
                    RmwOp::Min => x.min(y),
                    RmwOp::Max => x.max(y),
                };
                d.copy_from_slice(&r.to_le_bytes());
            }
        }
        Ty::F64 => {
            for (d, s) in dst.chunks_exact_mut(8).zip(src.chunks_exact(8)) {
                let x = f64::from_le_bytes(d.try_into().unwrap());
                let y = f64::from_le_bytes(s.try_into().unwrap());
                let r = match op {
                    RmwOp::Add => x + y,
                    RmwOp::Mul => x * y,
                    RmwOp::Min => x.min(y),
                    RmwOp::Max => x.max(y),
                };
                d.copy_from_slice(&r.to_le_bytes());
            }
        }
        Ty::Bool => unreachable!("buffers of Bool are rejected at allocation"),
    }
}

/// Control-flow signal from statement execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flow {
    Normal,
    Break,
    Continue,
}

/// Interpreter state for one device: local variables plus the shared
/// context.
struct Machine<'a, 'b> {
    locals: &'b mut [Value],
    ctx: &'b mut ExecCtx<'a>,
    /// Current thread's global iteration index, or `None` on the host.
    tid: Option<i64>,
}

impl<'a, 'b> Machine<'a, 'b> {
    fn eval(&mut self, e: &Expr) -> Result<Value, ExecError> {
        match e {
            Expr::Imm(v) => Ok(*v),
            Expr::Local(l) => Ok(self.locals[l.0 as usize]),
            Expr::Param(p) => Ok(self.ctx.params[p.0 as usize]),
            Expr::ThreadIdx => match self.tid {
                Some(t) => {
                    debug_assert!(t <= i32::MAX as i64);
                    Ok(Value::I32(t as i32))
                }
                None => Err(ExecError::ThreadIdxOnHost),
            },
            Expr::Load { buf, idx } => {
                let gidx = self.eval_index(idx)?;
                let slot = &mut self.ctx.bufs[buf.0 as usize];
                let local = gidx - slot.window_lo;
                if local < 0 || local as usize >= slot.data.len() {
                    return Err(ExecError::OutOfBounds {
                        buf: format!("buf#{}", buf.0),
                        idx: gidx,
                        window: (slot.window_lo, slot.window_lo + slot.data.len() as i64),
                    });
                }
                let v = slot.data.get(local as usize);
                let nbytes = slot.data.ty().size_bytes() as u64;
                let c = &mut self.ctx.counters;
                c.loads += 1;
                c.load_bytes += nbytes;
                c.int_ops += 1; // index translation
                self.ctx.per_buf_bytes[buf.0 as usize].0 += nbytes;
                if let Some(t) = self.tid {
                    sanitize_load(self.ctx, buf.0, t, gidx);
                }
                Ok(v)
            }
            Expr::Unary { op, a } => {
                let av = self.eval(a)?;
                self.count_arith(av.ty());
                eval_unary(*op, av)
            }
            Expr::Binary { op, a, b } => {
                if op.is_logical() {
                    // Short-circuit evaluation.
                    let av = self
                        .eval(a)?
                        .as_bool()
                        .ok_or_else(|| ExecError::TypeError("non-bool in && / ||".into()))?;
                    self.ctx.counters.branches += 1;
                    let out = match (op, av) {
                        (BinOp::LAnd, false) => false,
                        (BinOp::LOr, true) => true,
                        _ => self
                            .eval(b)?
                            .as_bool()
                            .ok_or_else(|| ExecError::TypeError("non-bool in && / ||".into()))?,
                    };
                    return Ok(Value::Bool(out));
                }
                let av = self.eval(a)?;
                let bv = self.eval(b)?;
                // Division/remainder are multi-cycle on every device
                // (SFU-rated on GPUs, unpipelined on CPUs): count them
                // with the special-function ops, everything else by
                // operand type.
                if matches!(op, BinOp::Div | BinOp::Rem) {
                    self.ctx.counters.special_ops += 1;
                } else {
                    self.count_arith(av.ty());
                }
                eval_binary(*op, av, bv)
            }
            Expr::Cast { ty, a } => {
                let av = self.eval(a)?;
                self.ctx.counters.int_ops += 1;
                Ok(av.cast(*ty))
            }
            Expr::Call { f, args } => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a)?);
                }
                self.ctx.counters.special_ops += 1;
                eval_builtin(*f, &vals)
            }
            Expr::Select { c, t, f } => {
                let cv = self
                    .eval(c)?
                    .as_bool()
                    .ok_or_else(|| ExecError::TypeError("non-bool ternary condition".into()))?;
                self.ctx.counters.branches += 1;
                if cv {
                    self.eval(t)
                } else {
                    self.eval(f)
                }
            }
        }
    }

    fn eval_index(&mut self, e: &Expr) -> Result<i64, ExecError> {
        self.eval(e)?
            .as_index()
            .ok_or_else(|| ExecError::TypeError("non-integer buffer index".into()))
    }

    fn count_arith(&mut self, ty: Ty) {
        let c = &mut self.ctx.counters;
        match ty {
            Ty::F32 => c.f32_ops += 1,
            Ty::F64 => c.f64_ops += 1,
            _ => c.int_ops += 1,
        }
    }

    fn exec_block(&mut self, stmts: &[Stmt]) -> Result<Flow, ExecError> {
        for s in stmts {
            match self.exec(s)? {
                Flow::Normal => {}
                f => return Ok(f),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec(&mut self, s: &Stmt) -> Result<Flow, ExecError> {
        match s {
            Stmt::Assign { local, value } => {
                let v = self.eval(value)?;
                self.ctx.counters.int_ops += 1;
                self.locals[local.0 as usize] = v;
                Ok(Flow::Normal)
            }
            Stmt::Store {
                buf,
                idx,
                value,
                dirty,
                checked,
            } => {
                let gidx = self.eval_index(idx)?;
                let v = self.eval(value)?;
                let bslot = buf.0 as usize;
                if *checked {
                    self.ctx.counters.miss_checks += 1;
                    let own = self.ctx.bufs[bslot].own;
                    if gidx < own.0 || gidx >= own.1 {
                        // Write miss: stage (destination, value) in the
                        // system buffer instead of writing locally.
                        self.ctx.counters.misses += 1;
                        if self.ctx.miss_buf.len() >= self.ctx.miss_capacity {
                            return Err(ExecError::MissBufferOverflow {
                                capacity: self.ctx.miss_capacity,
                            });
                        }
                        // A staged record costs a store's worth of traffic.
                        let c = &mut self.ctx.counters;
                        c.stores += 1;
                        c.store_bytes += (8 + v.ty().size_bytes()) as u64;
                        self.ctx.miss_buf.push(MissRecord {
                            buf: buf.0,
                            idx: gidx,
                            value: v,
                        });
                        return Ok(Flow::Normal);
                    }
                } else if let Some(t) = self.tid {
                    // Only unchecked stores are audited: a checked store
                    // that misses is *handled* (staged and replayed), an
                    // unchecked one that misses silently corrupts.
                    sanitize_store(self.ctx, buf.0, t, gidx);
                }
                self.raw_store(bslot, gidx, v)?;
                if *dirty {
                    let slot = &mut self.ctx.bufs[bslot];
                    let local = (gidx - slot.window_lo) as usize;
                    if let Some(d) = slot.dirty.as_deref_mut() {
                        d.mark(local);
                    }
                    self.ctx.counters.dirty_marks += 1;
                }
                Ok(Flow::Normal)
            }
            Stmt::AtomicRmw {
                buf,
                idx,
                op,
                value,
            } => {
                let gidx = self.eval_index(idx)?;
                let v = self.eval(value)?;
                let bslot = buf.0 as usize;
                let old = self.raw_load(bslot, gidx)?;
                let new = rmw_apply(*op, old, v)?;
                self.raw_store(bslot, gidx, new)?;
                let c = &mut self.ctx.counters;
                c.atomics += 1;
                Ok(Flow::Normal)
            }
            Stmt::ReduceScalar { slot, op, value } => {
                let v = self.eval(value)?;
                let cur = self.ctx.reduction_partials[*slot as usize];
                self.ctx.reduction_partials[*slot as usize] = rmw_apply(*op, cur, v)?;
                self.count_arith(v.ty());
                Ok(Flow::Normal)
            }
            Stmt::If { cond, then_, else_ } => {
                let c = self
                    .eval(cond)?
                    .as_bool()
                    .ok_or_else(|| ExecError::TypeError("non-bool if condition".into()))?;
                self.ctx.counters.branches += 1;
                if c {
                    self.exec_block(then_)
                } else {
                    self.exec_block(else_)
                }
            }
            Stmt::While { cond, body } => {
                loop {
                    let c = self
                        .eval(cond)?
                        .as_bool()
                        .ok_or_else(|| ExecError::TypeError("non-bool while condition".into()))?;
                    self.ctx.counters.branches += 1;
                    if !c {
                        break;
                    }
                    match self.exec_block(body)? {
                        Flow::Normal | Flow::Continue => {}
                        Flow::Break => break,
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Break => Ok(Flow::Break),
            Stmt::Continue => Ok(Flow::Continue),
        }
    }

    fn raw_load(&mut self, bslot: usize, gidx: i64) -> Result<Value, ExecError> {
        let slot = &self.ctx.bufs[bslot];
        let local = gidx - slot.window_lo;
        if local < 0 || local as usize >= slot.data.len() {
            return Err(ExecError::OutOfBounds {
                buf: format!("buf#{bslot}"),
                idx: gidx,
                window: (slot.window_lo, slot.window_lo + slot.data.len() as i64),
            });
        }
        let v = slot.data.get(local as usize);
        let nbytes = slot.data.ty().size_bytes() as u64;
        let c = &mut self.ctx.counters;
        c.loads += 1;
        c.load_bytes += nbytes;
        self.ctx.per_buf_bytes[bslot].0 += nbytes;
        Ok(v)
    }

    fn raw_store(&mut self, bslot: usize, gidx: i64, v: Value) -> Result<(), ExecError> {
        let slot = &mut self.ctx.bufs[bslot];
        let local = gidx - slot.window_lo;
        if local < 0 || local as usize >= slot.data.len() {
            return Err(ExecError::OutOfBounds {
                buf: format!("buf#{bslot}"),
                idx: gidx,
                window: (slot.window_lo, slot.window_lo + slot.data.len() as i64),
            });
        }
        let vv = v.cast(slot.data.ty());
        slot.data.set(local as usize, vv);
        let nbytes = slot.data.ty().size_bytes() as u64;
        let c = &mut self.ctx.counters;
        c.stores += 1;
        c.store_bytes += nbytes;
        c.int_ops += 1; // index translation
        self.ctx.per_buf_bytes[bslot].1 += nbytes;
        Ok(())
    }
}

/// Execute kernel `k` for every global iteration index in `[lo, hi)`,
/// accumulating into `ctx`. This is what one simulated GPU runs for its
/// assigned task range in a BSP superstep.
///
/// The body is compiled into the flat bytecode of [`crate::bytecode`]
/// and executed per iteration by its stack machine — results, counters
/// and errors are identical to the AST walker ([`run_kernel_range_ast`]),
/// which is kept as the reference implementation and held equal by
/// differential tests. This form compiles on every call; a caller that
/// launches the same kernel repeatedly keeps the
/// [`CompiledBody`](crate::bytecode::CompiledBody) and calls
/// [`run_kernel_range_compiled`].
pub fn run_kernel_range(
    k: &Kernel,
    ctx: &mut ExecCtx<'_>,
    lo: i64,
    hi: i64,
) -> Result<(), ExecError> {
    run_kernel_range_compiled(k, &crate::bytecode::compile(&k.body), ctx, lo, hi)
}

/// [`run_kernel_range`] from an already-compiled body: `code` must be
/// [`bytecode::compile`](crate::bytecode::compile) of `k.body`.
pub fn run_kernel_range_compiled(
    k: &Kernel,
    code: &crate::bytecode::CompiledBody,
    ctx: &mut ExecCtx<'_>,
    lo: i64,
    hi: i64,
) -> Result<(), ExecError> {
    let mut scratch = crate::bytecode::Scratch::default();
    let mut locals: Vec<Value> = k.locals.iter().map(|t| t.zero()).collect();
    for tid in lo..hi {
        // Fresh locals per thread (cheap memset for the usual small count).
        for (slot, ty) in locals.iter_mut().zip(&k.locals) {
            *slot = ty.zero();
        }
        crate::bytecode::run_iteration(code, ctx, &mut locals, tid, &mut scratch)?;
        ctx.counters.threads += 1;
    }
    Ok(())
}

/// The reference AST-walking implementation of [`run_kernel_range`].
/// Slower but structurally obvious; the bytecode path must match it
/// bit-for-bit (buffers, counters, misses, errors).
pub fn run_kernel_range_ast(
    k: &Kernel,
    ctx: &mut ExecCtx<'_>,
    lo: i64,
    hi: i64,
) -> Result<(), ExecError> {
    let mut locals: Vec<Value> = k.locals.iter().map(|t| t.zero()).collect();
    for tid in lo..hi {
        for (slot, ty) in locals.iter_mut().zip(&k.locals) {
            *slot = ty.zero();
        }
        let mut m = Machine {
            locals: &mut locals,
            ctx,
            tid: Some(tid),
        };
        m.exec_block(&k.body)?;
        ctx.counters.threads += 1;
    }
    Ok(())
}

/// Execute a statement block on the host (no thread index). `locals` is the
/// host frame. Used by the host-program interpreter in `acc-runtime`.
pub fn run_host_block(
    stmts: &[Stmt],
    locals: &mut [Value],
    ctx: &mut ExecCtx<'_>,
) -> Result<(), ExecError> {
    let mut m = Machine {
        locals,
        ctx,
        tid: None,
    };
    m.exec_block(stmts)?;
    Ok(())
}

/// Evaluate a single expression on the host against a frame. Used for host
/// control-flow conditions and launch-bound expressions.
pub fn eval_host_expr(
    e: &Expr,
    locals: &mut [Value],
    ctx: &mut ExecCtx<'_>,
) -> Result<Value, ExecError> {
    let mut m = Machine {
        locals,
        ctx,
        tid: None,
    };
    m.eval(e)
}

pub(crate) fn eval_unary(op: UnOp, a: Value) -> Result<Value, ExecError> {
    let err = || ExecError::TypeError(format!("unary {op:?} on {a:?}"));
    Ok(match (op, a) {
        (UnOp::Neg, Value::I32(v)) => Value::I32(v.wrapping_neg()),
        (UnOp::Neg, Value::F32(v)) => Value::F32(-v),
        (UnOp::Neg, Value::F64(v)) => Value::F64(-v),
        (UnOp::Not, v) => Value::Bool(!v.as_bool().ok_or_else(err)?),
        (UnOp::BitNot, Value::I32(v)) => Value::I32(!v),
        _ => return Err(err()),
    })
}

pub(crate) fn eval_binary(op: BinOp, a: Value, b: Value) -> Result<Value, ExecError> {
    use BinOp::*;
    let err = || ExecError::TypeError(format!("binary {op:?} on {a:?}, {b:?}"));
    if op.is_comparison() {
        let out = match (a, b) {
            (Value::I32(x), Value::I32(y)) => compare(op, x.partial_cmp(&y)),
            (Value::F32(x), Value::F32(y)) => float_compare(op, x.partial_cmp(&y)),
            (Value::F64(x), Value::F64(y)) => float_compare(op, x.partial_cmp(&y)),
            (Value::Bool(x), Value::Bool(y)) => compare(op, x.partial_cmp(&y)),
            _ => return Err(err()),
        };
        return Ok(Value::Bool(out));
    }
    Ok(match (a, b) {
        (Value::I32(x), Value::I32(y)) => Value::I32(match op {
            Add => x.wrapping_add(y),
            Sub => x.wrapping_sub(y),
            Mul => x.wrapping_mul(y),
            Div => {
                if y == 0 {
                    return Err(ExecError::DivByZero);
                }
                x.wrapping_div(y)
            }
            Rem => {
                if y == 0 {
                    return Err(ExecError::DivByZero);
                }
                x.wrapping_rem(y)
            }
            And => x & y,
            Or => x | y,
            Xor => x ^ y,
            Shl => x.wrapping_shl(y as u32),
            Shr => x.wrapping_shr(y as u32),
            _ => return Err(err()),
        }),
        (Value::F32(x), Value::F32(y)) => Value::F32(match op {
            Add => x + y,
            Sub => x - y,
            Mul => x * y,
            Div => x / y,
            _ => return Err(err()),
        }),
        (Value::F64(x), Value::F64(y)) => Value::F64(match op {
            Add => x + y,
            Sub => x - y,
            Mul => x * y,
            Div => x / y,
            _ => return Err(err()),
        }),
        _ => return Err(err()),
    })
}

fn compare<T: Into<Option<std::cmp::Ordering>>>(op: BinOp, ord: T) -> bool {
    use std::cmp::Ordering::*;
    matches!(
        (op, ord.into()),
        (BinOp::Lt, Some(Less))
            | (BinOp::Le, Some(Less | Equal))
            | (BinOp::Gt, Some(Greater))
            | (BinOp::Ge, Some(Greater | Equal))
            | (BinOp::Eq, Some(Equal))
            | (BinOp::Ne, Some(Less | Greater))
    )
}

/// C semantics for NaN: every comparison except `!=` is false.
fn float_compare(op: BinOp, ord: Option<std::cmp::Ordering>) -> bool {
    match ord {
        Some(o) => compare(op, o),
        None => matches!(op, BinOp::Ne),
    }
}

pub(crate) fn eval_builtin(f: Builtin, args: &[Value]) -> Result<Value, ExecError> {
    let err = || ExecError::TypeError(format!("builtin {f:?} on {args:?}"));
    // Unary float builtins promote per argument type; integer args are
    // promoted to f64 like C's math.h.
    let as_f64 = |v: Value| -> Option<f64> {
        match v {
            Value::F64(x) => Some(x),
            Value::F32(x) => Some(x as f64),
            Value::I32(x) => Some(x as f64),
            Value::Bool(_) => None,
        }
    };
    let ret = |input: Value, x: f64| -> Value {
        match input {
            Value::F32(_) => Value::F32(x as f32),
            _ => Value::F64(x),
        }
    };
    Ok(match f {
        Builtin::Abs => match args[0] {
            Value::I32(v) => Value::I32(v.wrapping_abs()),
            _ => return Err(err()),
        },
        Builtin::Min | Builtin::Max => {
            let (a, b) = (args[0], args[1]);
            match (a, b) {
                (Value::I32(x), Value::I32(y)) => {
                    if f == Builtin::Min {
                        Value::I32(x.min(y))
                    } else {
                        Value::I32(x.max(y))
                    }
                }
                _ => {
                    let x = as_f64(a).ok_or_else(err)?;
                    let y = as_f64(b).ok_or_else(err)?;
                    let r = if f == Builtin::Min { x.min(y) } else { x.max(y) };
                    ret(a, r)
                }
            }
        }
        Builtin::Pow => {
            let x = as_f64(args[0]).ok_or_else(err)?;
            let y = as_f64(args[1]).ok_or_else(err)?;
            ret(args[0], x.powf(y))
        }
        _ => {
            let x = as_f64(args[0]).ok_or_else(err)?;
            let r = match f {
                Builtin::Sqrt => x.sqrt(),
                Builtin::Fabs => x.abs(),
                Builtin::Exp => x.exp(),
                Builtin::Log => x.ln(),
                Builtin::Sin => x.sin(),
                Builtin::Cos => x.cos(),
                Builtin::Floor => x.floor(),
                Builtin::Ceil => x.ceil(),
                _ => unreachable!(),
            };
            ret(args[0], r)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BufId, BufParam, Expr, LocalId, ScalarParam, ScalarReduction};

    /// Build the kernel `out[i] = a[i] * a[i] + c` over f64 buffers.
    fn square_add_kernel() -> Kernel {
        let a = BufId(0);
        let out = BufId(1);
        Kernel {
            name: "square_add".into(),
            params: vec![ScalarParam {
                name: "c".into(),
                ty: Ty::F64,
            }],
            bufs: vec![
                BufParam {
                    name: "a".into(),
                    ty: Ty::F64,
                    access: BufAccess::Read,
                },
                BufParam {
                    name: "out".into(),
                    ty: Ty::F64,
                    access: BufAccess::Write,
                },
            ],
            locals: vec![Ty::F64],
            reductions: vec![],
            body: vec![
                Stmt::Assign {
                    local: LocalId(0),
                    value: Expr::load(a, Expr::Cast {
                        ty: Ty::I32,
                        a: Box::new(Expr::ThreadIdx),
                    }),
                },
                Stmt::Store {
                    buf: out,
                    idx: Expr::ThreadIdx,
                    value: Expr::add(
                        Expr::mul(Expr::Local(LocalId(0)), Expr::Local(LocalId(0))),
                        Expr::Param(crate::ParamId(0)),
                    ),
                    dirty: false,
                    checked: false,
                },
            ],
        }
    }

    use crate::kernel::BufAccess;

    #[test]
    fn square_add_executes() {
        let k = square_add_kernel();
        k.validate().unwrap();
        let mut a = Buffer::from_f64(&[1.0, 2.0, 3.0, 4.0]);
        let mut out = Buffer::zeroed(Ty::F64, 4);
        let mut ctx = ExecCtx::new(
            &k,
            vec![Value::F64(0.5)],
            vec![BufSlot::whole(&mut a), BufSlot::whole(&mut out)],
        );
        run_kernel_range(&k, &mut ctx, 0, 4).unwrap();
        let c = ctx.counters;
        drop(ctx);
        assert_eq!(out.to_f64_vec(), vec![1.5, 4.5, 9.5, 16.5]);
        assert_eq!(c.threads, 4);
        assert_eq!(c.loads, 4);
        assert_eq!(c.stores, 4);
        assert_eq!(c.load_bytes, 32);
        assert!(c.f64_ops >= 8);
    }

    #[test]
    fn one_compiled_body_serves_every_share_of_a_launch() {
        let k = square_add_kernel();
        let code = crate::bytecode::compile(&k.body);
        let mut a = Buffer::from_f64(&[1.0, 2.0, 3.0, 4.0]);
        let mut out = Buffer::zeroed(Ty::F64, 4);
        let mut counters = OpCounters::default();
        // Two "GPUs" take half the iteration space each from one body.
        for (lo, hi) in [(0, 2), (2, 4)] {
            let bufs = vec![BufSlot::whole(&mut a), BufSlot::whole(&mut out)];
            let mut ctx = ExecCtx::new(&k, vec![Value::F64(0.5)], bufs);
            run_kernel_range_compiled(&k, &code, &mut ctx, lo, hi).unwrap();
            counters.merge(&ctx.counters);
        }
        let mut want = Buffer::zeroed(Ty::F64, 4);
        let bufs = vec![BufSlot::whole(&mut a), BufSlot::whole(&mut want)];
        let mut ctx = ExecCtx::new(&k, vec![Value::F64(0.5)], bufs);
        run_kernel_range_ast(&k, &mut ctx, 0, 4).unwrap();
        assert_eq!(counters, ctx.counters);
        drop(ctx);
        assert_eq!(out.bytes(), want.bytes());
    }

    #[test]
    fn windowed_execution_translates_indices() {
        let k = square_add_kernel();
        // GPU owns global elements [2, 4): its buffers hold only 2 elems.
        let mut a = Buffer::from_f64(&[3.0, 4.0]);
        let mut out = Buffer::zeroed(Ty::F64, 2);
        fn mk(b: &mut Buffer) -> BufSlot<'_> {
            BufSlot {
                data: b,
                window_lo: 2,
                own: (2, 4),
                dirty: None,
            }
        }
        let slot_a = mk(&mut a);
        let slot_o = mk(&mut out);
        let mut ctx = ExecCtx::new(&k, vec![Value::F64(0.0)], vec![slot_a, slot_o]);
        run_kernel_range(&k, &mut ctx, 2, 4).unwrap();
        drop(ctx);
        assert_eq!(out.to_f64_vec(), vec![9.0, 16.0]);
    }

    #[test]
    fn out_of_window_access_reported() {
        let k = square_add_kernel();
        let mut a = Buffer::from_f64(&[1.0]);
        let mut out = Buffer::zeroed(Ty::F64, 1);
        let mut ctx = ExecCtx::new(
            &k,
            vec![Value::F64(0.0)],
            vec![BufSlot::whole(&mut a), BufSlot::whole(&mut out)],
        );
        let err = run_kernel_range(&k, &mut ctx, 0, 2).unwrap_err();
        assert!(matches!(err, ExecError::OutOfBounds { .. }));
    }

    #[test]
    fn scalar_reduction_accumulates() {
        // sum += i for i in 0..10
        let k = Kernel {
            name: "sum".into(),
            params: vec![],
            bufs: vec![],
            locals: vec![],
            reductions: vec![ScalarReduction {
                var: "sum".into(),
                ty: Ty::I32,
                op: RmwOp::Add,
            }],
            body: vec![Stmt::ReduceScalar {
                slot: 0,
                op: RmwOp::Add,
                value: Expr::ThreadIdx,
            }],
        };
        k.validate().unwrap();
        let mut ctx = ExecCtx::new(&k, vec![], vec![]);
        run_kernel_range(&k, &mut ctx, 0, 10).unwrap();
        assert_eq!(ctx.reduction_partials[0], Value::I32(45));
    }

    #[test]
    fn checked_store_records_miss() {
        // out[(i * 2) % 4] = i — with own range [0,2), half the writes miss.
        let k = Kernel {
            name: "scatter".into(),
            params: vec![],
            bufs: vec![BufParam {
                name: "out".into(),
                ty: Ty::I32,
                access: BufAccess::Write,
            }],
            locals: vec![],
            reductions: vec![],
            body: vec![Stmt::Store {
                buf: BufId(0),
                idx: Expr::bin(
                    BinOp::Rem,
                    Expr::mul(Expr::ThreadIdx, Expr::imm_i32(2)),
                    Expr::imm_i32(4),
                ),
                value: Expr::ThreadIdx,
                dirty: false,
                checked: true,
            }],
        };
        let mut out = Buffer::zeroed(Ty::I32, 2);
        let slot = BufSlot {
            data: &mut out,
            window_lo: 0,
            own: (0, 2),
            dirty: None,
        };
        let mut ctx = ExecCtx::new(&k, vec![], vec![slot]);
        run_kernel_range(&k, &mut ctx, 0, 4).unwrap();
        // i=0 -> idx 0 (local), i=1 -> idx 2 (miss), i=2 -> idx 0 (local), i=3 -> idx 2 (miss)
        assert_eq!(ctx.counters.miss_checks, 4);
        assert_eq!(ctx.counters.misses, 2);
        assert_eq!(ctx.miss_buf.len(), 2);
        assert_eq!(ctx.miss_buf[0].idx, 2);
        assert_eq!(ctx.miss_buf[0].value, Value::I32(1));
        assert_eq!(out.to_i32_vec(), vec![2, 0]);
    }

    #[test]
    fn miss_buffer_overflow_detected() {
        let k = Kernel {
            name: "scatter".into(),
            params: vec![],
            bufs: vec![BufParam {
                name: "out".into(),
                ty: Ty::I32,
                access: BufAccess::Write,
            }],
            locals: vec![],
            reductions: vec![],
            body: vec![Stmt::Store {
                buf: BufId(0),
                idx: Expr::imm_i32(100),
                value: Expr::ThreadIdx,
                dirty: false,
                checked: true,
            }],
        };
        let mut out = Buffer::zeroed(Ty::I32, 2);
        let slot = BufSlot {
            data: &mut out,
            window_lo: 0,
            own: (0, 2),
            dirty: None,
        };
        let mut ctx = ExecCtx::new(&k, vec![], vec![slot]);
        ctx.miss_capacity = 3;
        let err = run_kernel_range(&k, &mut ctx, 0, 10).unwrap_err();
        assert_eq!(err, ExecError::MissBufferOverflow { capacity: 3 });
    }

    #[test]
    fn dirty_store_marks_map() {
        let k = Kernel {
            name: "write".into(),
            params: vec![],
            bufs: vec![BufParam {
                name: "out".into(),
                ty: Ty::I32,
                access: BufAccess::Write,
            }],
            locals: vec![],
            reductions: vec![],
            body: vec![Stmt::Store {
                buf: BufId(0),
                idx: Expr::ThreadIdx,
                value: Expr::imm_i32(1),
                dirty: true,
                checked: false,
            }],
        };
        let mut out = Buffer::zeroed(Ty::I32, 8);
        let mut dm = DirtyMap::new(8, 4, 16);
        let slot = BufSlot {
            data: &mut out,
            window_lo: 0,
            own: (0, 8),
            dirty: Some(&mut dm),
        };
        let mut ctx = ExecCtx::new(&k, vec![], vec![slot]);
        run_kernel_range(&k, &mut ctx, 2, 5).unwrap();
        assert_eq!(ctx.counters.dirty_marks, 3);
        assert!(dm.is_dirty(2) && dm.is_dirty(3) && dm.is_dirty(4));
        assert!(!dm.is_dirty(1) && !dm.is_dirty(5));
    }

    #[test]
    fn atomic_rmw_accumulates() {
        // hist[i % 2] += 1 atomically.
        let k = Kernel {
            name: "hist".into(),
            params: vec![],
            bufs: vec![BufParam {
                name: "hist".into(),
                ty: Ty::I32,
                access: BufAccess::Reduction(RmwOp::Add),
            }],
            locals: vec![],
            reductions: vec![],
            body: vec![Stmt::AtomicRmw {
                buf: BufId(0),
                idx: Expr::bin(BinOp::Rem, Expr::ThreadIdx, Expr::imm_i32(2)),
                op: RmwOp::Add,
                value: Expr::imm_i32(1),
            }],
        };
        let mut hist = Buffer::zeroed(Ty::I32, 2);
        let mut ctx = ExecCtx::new(&k, vec![], vec![BufSlot::whole(&mut hist)]);
        run_kernel_range(&k, &mut ctx, 0, 9).unwrap();
        let atomics = ctx.counters.atomics;
        drop(ctx);
        assert_eq!(hist.to_i32_vec(), vec![5, 4]);
        assert_eq!(atomics, 9);
    }

    #[test]
    fn while_break_continue() {
        // local0 = 0; j = 0; while (1) { j++; if (j > 10) break; if (j % 2) continue; local0 += j; }
        // sums even numbers 2..=10 -> 30
        let l0 = LocalId(0);
        let j = LocalId(1);
        let k = Kernel {
            name: "loop".into(),
            params: vec![],
            bufs: vec![BufParam {
                name: "out".into(),
                ty: Ty::I32,
                access: BufAccess::Write,
            }],
            locals: vec![Ty::I32, Ty::I32],
            reductions: vec![],
            body: vec![
                Stmt::While {
                    cond: Expr::Imm(Value::Bool(true)),
                    body: vec![
                        Stmt::Assign {
                            local: j,
                            value: Expr::add(Expr::Local(j), Expr::imm_i32(1)),
                        },
                        Stmt::If {
                            cond: Expr::bin(BinOp::Gt, Expr::Local(j), Expr::imm_i32(10)),
                            then_: vec![Stmt::Break],
                            else_: vec![],
                        },
                        Stmt::If {
                            cond: Expr::bin(
                                BinOp::Ne,
                                Expr::bin(BinOp::Rem, Expr::Local(j), Expr::imm_i32(2)),
                                Expr::imm_i32(0),
                            ),
                            then_: vec![Stmt::Continue],
                            else_: vec![],
                        },
                        Stmt::Assign {
                            local: l0,
                            value: Expr::add(Expr::Local(l0), Expr::Local(j)),
                        },
                    ],
                },
                Stmt::Store {
                    buf: BufId(0),
                    idx: Expr::imm_i32(0),
                    value: Expr::Local(l0),
                    dirty: false,
                    checked: false,
                },
            ],
        };
        k.validate().unwrap();
        let mut out = Buffer::zeroed(Ty::I32, 1);
        let mut ctx = ExecCtx::new(&k, vec![], vec![BufSlot::whole(&mut out)]);
        run_kernel_range(&k, &mut ctx, 0, 1).unwrap();
        assert_eq!(out.to_i32_vec(), vec![30]);
    }

    #[test]
    fn short_circuit_logical() {
        // local = (0 != 0) && (1/0 ...) would trap if not short-circuit; we
        // encode the divide so evaluation would error.
        let k = Kernel {
            name: "sc".into(),
            params: vec![],
            bufs: vec![BufParam {
                name: "out".into(),
                ty: Ty::I32,
                access: BufAccess::Write,
            }],
            locals: vec![],
            reductions: vec![],
            body: vec![Stmt::Store {
                buf: BufId(0),
                idx: Expr::imm_i32(0),
                value: Expr::Cast {
                    ty: Ty::I32,
                    a: Box::new(Expr::bin(
                        BinOp::LAnd,
                        Expr::bin(BinOp::Ne, Expr::imm_i32(0), Expr::imm_i32(0)),
                        Expr::bin(
                            BinOp::Ne,
                            Expr::bin(BinOp::Div, Expr::imm_i32(1), Expr::imm_i32(0)),
                            Expr::imm_i32(0),
                        ),
                    )),
                },
                dirty: false,
                checked: false,
            }],
        };
        let mut out = Buffer::from_i32(&[9]);
        let mut ctx = ExecCtx::new(&k, vec![], vec![BufSlot::whole(&mut out)]);
        run_kernel_range(&k, &mut ctx, 0, 1).unwrap();
        assert_eq!(out.to_i32_vec(), vec![0]);
    }

    #[test]
    fn int_div_by_zero_reported() {
        let k = Kernel {
            name: "div".into(),
            params: vec![],
            bufs: vec![BufParam {
                name: "out".into(),
                ty: Ty::I32,
                access: BufAccess::Write,
            }],
            locals: vec![],
            reductions: vec![],
            body: vec![Stmt::Store {
                buf: BufId(0),
                idx: Expr::imm_i32(0),
                value: Expr::bin(BinOp::Div, Expr::imm_i32(1), Expr::imm_i32(0)),
                dirty: false,
                checked: false,
            }],
        };
        let mut out = Buffer::zeroed(Ty::I32, 1);
        let mut ctx = ExecCtx::new(&k, vec![], vec![BufSlot::whole(&mut out)]);
        assert_eq!(
            run_kernel_range(&k, &mut ctx, 0, 1).unwrap_err(),
            ExecError::DivByZero
        );
    }

    #[test]
    fn builtins_eval() {
        assert_eq!(
            eval_builtin(Builtin::Sqrt, &[Value::F64(9.0)]).unwrap(),
            Value::F64(3.0)
        );
        assert_eq!(
            eval_builtin(Builtin::Min, &[Value::I32(3), Value::I32(5)]).unwrap(),
            Value::I32(3)
        );
        assert_eq!(
            eval_builtin(Builtin::Max, &[Value::F32(3.0), Value::F32(5.0)]).unwrap(),
            Value::F32(5.0)
        );
        assert_eq!(
            eval_builtin(Builtin::Abs, &[Value::I32(-4)]).unwrap(),
            Value::I32(4)
        );
        assert_eq!(
            eval_builtin(Builtin::Pow, &[Value::F64(2.0), Value::F64(10.0)]).unwrap(),
            Value::F64(1024.0)
        );
    }

    #[test]
    fn rmw_identities() {
        assert_eq!(rmw_identity(RmwOp::Add, Ty::F64), Value::F64(0.0));
        assert_eq!(rmw_identity(RmwOp::Mul, Ty::I32), Value::I32(1));
        assert_eq!(rmw_identity(RmwOp::Min, Ty::I32), Value::I32(i32::MAX));
        assert_eq!(
            rmw_identity(RmwOp::Max, Ty::F64),
            Value::F64(f64::NEG_INFINITY)
        );
    }

    #[test]
    fn float_nan_compare_c_semantics() {
        let nan = Value::F64(f64::NAN);
        let one = Value::F64(1.0);
        assert_eq!(eval_binary(BinOp::Lt, nan, one).unwrap(), Value::Bool(false));
        assert_eq!(eval_binary(BinOp::Eq, nan, nan).unwrap(), Value::Bool(false));
        assert_eq!(eval_binary(BinOp::Ne, nan, nan).unwrap(), Value::Bool(true));
    }

    /// `out[t] = a[t + 1]` — a shifted read that needs `right(1)`.
    fn shift_load_kernel() -> Kernel {
        Kernel {
            name: "shift_load".into(),
            params: vec![],
            bufs: vec![
                BufParam {
                    name: "a".into(),
                    ty: Ty::F64,
                    access: BufAccess::Read,
                },
                BufParam {
                    name: "out".into(),
                    ty: Ty::F64,
                    access: BufAccess::Write,
                },
            ],
            locals: vec![],
            reductions: vec![],
            body: vec![Stmt::Store {
                buf: BufId(1),
                idx: Expr::ThreadIdx,
                value: Expr::load(
                    BufId(0),
                    Expr::add(Expr::ThreadIdx, Expr::Imm(Value::I32(1))),
                ),
                dirty: false,
                checked: false,
            }],
        }
    }

    /// `out[t + 1] = a[t]` — an unchecked scatter that breaks ownership.
    fn shift_store_kernel() -> Kernel {
        Kernel {
            name: "shift_store".into(),
            params: vec![],
            bufs: vec![
                BufParam {
                    name: "a".into(),
                    ty: Ty::F64,
                    access: BufAccess::Read,
                },
                BufParam {
                    name: "out".into(),
                    ty: Ty::F64,
                    access: BufAccess::Write,
                },
            ],
            locals: vec![],
            reductions: vec![],
            body: vec![Stmt::Store {
                buf: BufId(1),
                idx: Expr::add(Expr::ThreadIdx, Expr::Imm(Value::I32(1))),
                value: Expr::load(BufId(0), Expr::ThreadIdx),
                dirty: false,
                checked: false,
            }],
        }
    }

    fn shift_ctx<'a>(
        k: &Kernel,
        a: &'a mut Buffer,
        out: &'a mut Buffer,
        sanitize: Vec<BufSanitize>,
    ) -> ExecCtx<'a> {
        let mut ctx = ExecCtx::new(k, vec![], vec![BufSlot::whole(a), BufSlot::whole(out)]);
        ctx.sanitize = sanitize;
        ctx
    }

    #[test]
    fn sanitize_load_flags_out_of_window_reads() {
        let k = shift_load_kernel();
        let too_narrow = BufSanitize {
            load_window: Some((1, 0, 0)),
            carried_window: None,
            check_stores: false,
        };
        let mut a = Buffer::from_f64(&[0.0, 1.0, 2.0, 3.0, 4.0]);
        let mut out = Buffer::zeroed(Ty::F64, 4);
        let mut ctx = shift_ctx(&k, &mut a, &mut out, vec![too_narrow, BufSanitize::default()]);
        run_kernel_range(&k, &mut ctx, 0, 4).unwrap();
        // Every thread reads a[t+1], one past its declared [t, t+1) window.
        assert_eq!(ctx.sanitize_hits, 4);
        assert_eq!(ctx.sanitize_log.len(), 4);
        let r = ctx.sanitize_log[0];
        assert_eq!(r.kind, SanitizeKind::LoadOutsideWindow);
        assert_eq!((r.buf, r.tid, r.idx, r.window), (0, 0, 1, (0, 1)));

        // The correct annotation — right(1) — is violation-free.
        let declared = BufSanitize {
            load_window: Some((1, 0, 1)),
            carried_window: None,
            check_stores: false,
        };
        let mut a = Buffer::from_f64(&[0.0, 1.0, 2.0, 3.0, 4.0]);
        let mut out = Buffer::zeroed(Ty::F64, 4);
        let mut ctx = shift_ctx(&k, &mut a, &mut out, vec![declared, BufSanitize::default()]);
        run_kernel_range(&k, &mut ctx, 0, 4).unwrap();
        assert_eq!(ctx.sanitize_hits, 0);
        assert!(ctx.sanitize_log.is_empty());
    }

    #[test]
    fn sanitize_load_flags_carried_distance_escapes() {
        // The declared window is wide enough — only the (narrower)
        // carried-distance claim is violated, so the record kind must
        // distinguish the mislabeled `CarriedLocal` verdict from a
        // plain window under-declaration.
        let k = shift_load_kernel();
        let mislabeled = BufSanitize {
            load_window: Some((1, 0, 1)),
            carried_window: Some((1, 0, 0)),
            check_stores: false,
        };
        let mut a = Buffer::from_f64(&[0.0, 1.0, 2.0, 3.0, 4.0]);
        let mut out = Buffer::zeroed(Ty::F64, 4);
        let mut ctx = shift_ctx(&k, &mut a, &mut out, vec![mislabeled, BufSanitize::default()]);
        run_kernel_range(&k, &mut ctx, 0, 4).unwrap();
        assert_eq!(ctx.sanitize_hits, 4);
        let r = ctx.sanitize_log[0];
        assert_eq!(r.kind, SanitizeKind::CarriedDistanceEscape);
        assert_eq!((r.buf, r.tid, r.idx, r.window), (0, 0, 1, (0, 1)));

        // A claim matching the true distance is violation-free.
        let honest = BufSanitize {
            load_window: Some((1, 0, 1)),
            carried_window: Some((1, 0, 1)),
            check_stores: false,
        };
        let mut a = Buffer::from_f64(&[0.0, 1.0, 2.0, 3.0, 4.0]);
        let mut out = Buffer::zeroed(Ty::F64, 4);
        let mut ctx = shift_ctx(&k, &mut a, &mut out, vec![honest, BufSanitize::default()]);
        run_kernel_range(&k, &mut ctx, 0, 4).unwrap();
        assert_eq!(ctx.sanitize_hits, 0);
    }

    #[test]
    fn sanitize_store_flags_out_of_own_writes() {
        let k = shift_store_kernel();
        let audit = BufSanitize {
            load_window: None,
            carried_window: None,
            check_stores: true,
        };
        let mut a = Buffer::from_f64(&[1.0, 2.0, 3.0, 4.0]);
        let mut out = Buffer::zeroed(Ty::F64, 5);
        let mut ctx = ExecCtx::new(
            &k,
            vec![],
            vec![
                BufSlot::whole(&mut a),
                // Whole window resident, but this GPU only *owns* [0, 2).
                BufSlot {
                    data: &mut out,
                    window_lo: 0,
                    own: (0, 2),
                    dirty: None,
                },
            ],
        );
        ctx.sanitize = vec![BufSanitize::default(), audit];
        run_kernel_range(&k, &mut ctx, 0, 4).unwrap();
        // Threads 1..4 store to indices 2..5, outside own = [0, 2).
        assert_eq!(ctx.sanitize_hits, 3);
        let r = ctx.sanitize_log[0];
        assert_eq!(r.kind, SanitizeKind::StoreOutsideOwn);
        assert_eq!((r.buf, r.tid, r.idx, r.window), (1, 1, 2, (0, 2)));
    }

    #[test]
    fn sanitizing_never_perturbs_execution_and_paths_agree() {
        let k = shift_load_kernel();
        let cfg = BufSanitize {
            load_window: Some((1, 0, 0)),
            carried_window: None,
            check_stores: true,
        };
        let run = |sanitize: Vec<BufSanitize>, ast: bool| {
            let mut a = Buffer::from_f64(&[0.0, 1.0, 2.0, 3.0, 4.0]);
            let mut out = Buffer::zeroed(Ty::F64, 4);
            let mut ctx = shift_ctx(&k, &mut a, &mut out, sanitize);
            if ast {
                run_kernel_range_ast(&k, &mut ctx, 0, 4).unwrap();
            } else {
                run_kernel_range(&k, &mut ctx, 0, 4).unwrap();
            }
            let (c, log, hits) = (ctx.counters, ctx.sanitize_log.clone(), ctx.sanitize_hits);
            drop(ctx);
            (out.to_f64_vec(), c, log, hits)
        };
        let plain = run(vec![], false);
        let vm = run(vec![cfg, cfg], false);
        let walker = run(vec![cfg, cfg], true);
        // Same results and same counters with or without the sanitizer...
        assert_eq!(plain.0, vm.0);
        assert_eq!(plain.1, vm.1);
        // ...and the bytecode VM and AST walker observe identical logs.
        assert_eq!(vm.0, walker.0);
        assert_eq!(vm.1, walker.1);
        assert_eq!(vm.2, walker.2);
        assert_eq!(vm.3, walker.3);
        assert_eq!(vm.3, 4);
    }

    #[test]
    fn sanitize_log_caps_but_hits_keep_counting() {
        let k = shift_load_kernel();
        let cfg = BufSanitize {
            load_window: Some((1, 0, 0)),
            carried_window: None,
            check_stores: false,
        };
        let n = SANITIZE_LOG_CAP + 36;
        let mut a = Buffer::zeroed(Ty::F64, n + 1);
        let mut out = Buffer::zeroed(Ty::F64, n);
        let mut ctx = shift_ctx(&k, &mut a, &mut out, vec![cfg, BufSanitize::default()]);
        run_kernel_range(&k, &mut ctx, 0, n as i64).unwrap();
        assert_eq!(ctx.sanitize_log.len(), SANITIZE_LOG_CAP);
        assert_eq!(ctx.sanitize_hits, n as u64);
    }
}
