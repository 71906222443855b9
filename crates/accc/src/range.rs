//! Interval/range reasoning over loop bounds and the `localaccess` stride
//! symbol: the translator's one §IV-D2 write-locality prover.
//!
//! Stores of the literal form `s*tid + c` are the easy case. Real stencil
//! kernels index as `tid*S + j` where `S` is a *runtime* stride (a
//! captured host scalar such as `cols`) and `j` runs over a desugared
//! inner loop `0 <= j < S`. This module proves both kinds of store local by
//!
//! * tracking every kernel local as an inclusive interval of *symbolic
//!   bounds* `a*S + k` (with the runtime guarantee `S >= 1`, enforced by
//!   `ACC-E001` at parse time and `BadLocalAccess` at launch time),
//! * recovering loop bounds from desugared `while (v < ub)` loops whose
//!   induction variable only grows by positive constants,
//! * decomposing each store/load index into
//!   `tid_s*(S*tid) + tid_c*tid + offset-interval`.
//!
//! A store is provably inside the iteration's own partition
//! `[S*tid, S*(tid+1) - 1]` when the effective thread coefficient equals
//! the stride and the offset interval fits `[0, S-1]`; a load of a
//! `localaccess` array provably escapes the declared window
//! `[S*tid - left, S*(tid+1) - 1 + right]` when its offset interval lies
//! outside for *every* admissible `S` (diagnostic `ACC-W003`).

use std::collections::BTreeSet;

use acc_kernel_ir::{self as ir, BinOp, Expr, Stmt, Ty, UnOp, Value};

use crate::affine::linear_in_tid;

/// The distribution stride `S`, as seen from inside the kernel body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrideRef {
    /// Compile-time constant stride.
    Const(i64),
    /// A kernel local holding the stride; must never be assigned in the
    /// analyzed body so its symbolic identity is stable.
    Sym(ir::LocalId),
}

impl StrideRef {
    fn exact(self) -> Option<i64> {
        match self {
            StrideRef::Const(s) => Some(s),
            StrideRef::Sym(_) => None,
        }
    }
}

/// A symbolic bound `a*S + k` over the stride symbol `S >= 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SymBound {
    pub a: i64,
    pub k: i64,
}

impl SymBound {
    /// The constant `k`.
    pub fn konst(k: i64) -> SymBound {
        SymBound { a: 0, k }
    }

    /// The stride symbol `S` itself.
    pub fn stride() -> SymBound {
        SymBound { a: 1, k: 0 }
    }

    pub fn scale(self, c: i64) -> SymBound {
        SymBound {
            a: self.a * c,
            k: self.k * c,
        }
    }

    /// `self <= other` for every admissible stride value: exactly `s`
    /// when known, otherwise all `S >= 1`. With `d = self - other`, the
    /// symbolic case needs `d.a <= 0` (or the gap grows with `S`) and the
    /// worst case at `S = 1` non-positive.
    pub fn le(self, other: SymBound, stride: StrideRef) -> bool {
        let da = self.a - other.a;
        let dk = self.k - other.k;
        match stride.exact() {
            Some(s) => da * s + dk <= 0,
            None => da <= 0 && da + dk <= 0,
        }
    }

    /// Strict `self < other` for every admissible stride value.
    pub fn lt(self, other: SymBound, stride: StrideRef) -> bool {
        (self + SymBound::konst(1)).le(other, stride)
    }
}

impl std::ops::Add for SymBound {
    type Output = SymBound;
    fn add(self, o: SymBound) -> SymBound {
        SymBound {
            a: self.a + o.a,
            k: self.k + o.k,
        }
    }
}

impl std::ops::Neg for SymBound {
    type Output = SymBound;
    fn neg(self) -> SymBound {
        SymBound {
            a: -self.a,
            k: -self.k,
        }
    }
}

/// An inclusive interval of symbolic bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SymRange {
    pub lo: SymBound,
    pub hi: SymBound,
}

impl SymRange {
    pub fn point(b: SymBound) -> SymRange {
        SymRange { lo: b, hi: b }
    }

    fn add(self, o: SymRange) -> SymRange {
        SymRange {
            lo: self.lo + o.lo,
            hi: self.hi + o.hi,
        }
    }

    fn neg(self) -> SymRange {
        SymRange {
            lo: -self.hi,
            hi: -self.lo,
        }
    }

    fn scale(self, c: i64) -> SymRange {
        if c >= 0 {
            SymRange {
                lo: self.lo.scale(c),
                hi: self.hi.scale(c),
            }
        } else {
            SymRange {
                lo: self.hi.scale(c),
                hi: self.lo.scale(c),
            }
        }
    }

    /// Smallest interval covering both, or `None` when the symbolic
    /// bounds are incomparable.
    fn union(self, o: SymRange, stride: StrideRef) -> Option<SymRange> {
        let lo = if self.lo.le(o.lo, stride) {
            self.lo
        } else if o.lo.le(self.lo, stride) {
            o.lo
        } else {
            return None;
        };
        let hi = if o.hi.le(self.hi, stride) {
            self.hi
        } else if self.hi.le(o.hi, stride) {
            o.hi
        } else {
            return None;
        };
        Some(SymRange { lo, hi })
    }
}

/// One decomposed index: `tid_s*(S*tid) + tid_c*tid + offset`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexForm {
    /// Coefficient of `S*tid`.
    pub tid_s: i64,
    /// Coefficient of bare `tid`.
    pub tid_c: i64,
    /// Interval of the thread-invariant remainder.
    pub offset: SymRange,
}

impl IndexForm {
    /// The effective thread coefficient equals the stride: the access
    /// walks one partition per iteration, so offsets are comparable
    /// against partition-relative windows.
    pub(crate) fn coeff_is_stride(&self, stride: StrideRef) -> bool {
        match stride {
            StrideRef::Const(s) => self.tid_s * s + self.tid_c == s,
            StrideRef::Sym(_) => self.tid_s == 1 && self.tid_c == 0,
        }
    }
}

/// Signature of a *monotone indirect window*: per iteration `t`, the
/// half-open element range `[p[c*t + o], p[c*t + o + d])` of some bound
/// array `p` (`row_ptr` in CSR codes). Provided `p` is elementwise
/// non-decreasing, windows of distinct iterations with the same
/// signature are pairwise disjoint whenever `1 <= d <= c` — the lattice
/// [`crate::depend`] uses for SPMV/pagerank-style inner loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct MonoSig {
    /// The bound array (kernel buffer id of `p`).
    pub ptr: ir::BufId,
    /// Thread coefficient `c >= 1` of both bound subscripts.
    pub coeff: i64,
    /// Subscript offset `o` of the lower bound `p[c*t + o]`.
    pub lo_off: i64,
    /// Subscript span `d` (`1 <= d <= c`): the window ends at
    /// `p[c*t + o + d]`.
    pub span: i64,
}

/// Decomposed access sites of one buffer; `None` entries are sites whose
/// index the analysis could not decompose. `store_mono`/`load_mono` run
/// parallel to `stores`/`loads`: a `Some(sig)` entry marks a site whose
/// index is exactly the induction variable of a recognized monotone
/// indirect-window loop (such sites always decompose to `None` — the
/// bound is data-dependent).
#[derive(Debug, Clone, Default)]
pub struct BufSites {
    pub stores: Vec<Option<IndexForm>>,
    pub loads: Vec<Option<IndexForm>>,
    pub store_mono: Vec<Option<MonoSig>>,
    pub load_mono: Vec<Option<MonoSig>>,
}

/// Every local assigned (via `Assign`) anywhere in `stmts`, recursively.
pub fn assigned_locals(stmts: &[Stmt]) -> BTreeSet<ir::LocalId> {
    let mut out = BTreeSet::new();
    for s in stmts {
        s.visit(&mut |s| {
            if let Stmt::Assign { local, .. } = s {
                out.insert(*local);
            }
        });
    }
    out
}

/// Collect and decompose every access to `buf` in `body`, tracking local
/// intervals along the way. `n_locals` sizes the environment.
pub fn collect(body: &[Stmt], n_locals: usize, buf: ir::BufId, stride: StrideRef) -> BufSites {
    let mut w = Walker {
        buf,
        stride,
        out: BufSites::default(),
        mono: Vec::new(),
    };
    let mut env: Env = vec![None; n_locals];
    if let StrideRef::Sym(l) = stride {
        // The stride symbol is, by definition, exactly S.
        if (l.0 as usize) < n_locals {
            env[l.0 as usize] = Some(SymRange::point(SymBound::stride()));
        }
    }
    w.walk_block(body, &mut env);
    w.out
}

/// The site decomposed and provably inside `[S*tid, S*(tid+1) - 1]`.
fn within_own_partition(f: &Option<IndexForm>, stride: StrideRef) -> bool {
    f.is_some_and(|f| {
        f.coeff_is_stride(stride)
            && SymBound::konst(0).le(f.offset.lo, stride)
            && f.offset.hi.le(SymBound { a: 1, k: -1 }, stride)
    })
}

/// Every store decomposed and provably inside `[S*tid, S*(tid+1) - 1]`;
/// false when the buffer has no stores (there is no check to elide).
pub fn stores_proved_local(sites: &BufSites, stride: StrideRef) -> bool {
    !sites.stores.is_empty() && sites.stores.iter().all(|f| within_own_partition(f, stride))
}

/// Every access — loads and stores — provably inside the iteration's own
/// partition (false when the buffer is not accessed at all).
pub(crate) fn accesses_proved_local(sites: &BufSites, stride: StrideRef) -> bool {
    !(sites.loads.is_empty() && sites.stores.is_empty())
        && sites
            .loads
            .iter()
            .chain(&sites.stores)
            .all(|f| within_own_partition(f, stride))
}

/// Result of checking decomposed loads against a declared window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowCheck {
    /// Sites whose index was comparable against the window.
    pub checked: usize,
    /// Sites provably outside `[-left, S-1+right]` for every admissible
    /// stride — definite `ACC-W003` hits.
    pub violations: usize,
}

/// Check decomposed loads against the declared per-iteration window
/// `[S*tid - left, S*(tid+1) - 1 + right]`. A `None` halo bound means
/// that side could not be expressed over `S` and is treated as
/// unbounded (no violation provable on that side).
pub fn check_load_windows(
    sites: &BufSites,
    stride: StrideRef,
    left: Option<SymBound>,
    right: Option<SymBound>,
) -> WindowCheck {
    let mut out = WindowCheck::default();
    for f in sites.loads.iter().flatten() {
        if !f.coeff_is_stride(stride) {
            continue;
        }
        out.checked += 1;
        let low_escape = match left {
            Some(l) => f.offset.lo.lt(-l, stride),
            None => false,
        };
        let high_escape = match right {
            Some(r) => (SymBound { a: 1, k: -1 } + r).lt(f.offset.hi, stride),
            None => false,
        };
        if low_escape || high_escape {
            out.violations += 1;
        }
    }
    out
}

/// Express a host-side `localaccess` halo expression as a bound over the
/// stride symbol: any linear combination `c*S + k` built from foldable
/// constants and the stride expression itself — `left(cols)`,
/// `left(2*cols)`, `left(cols + 1)` with `stride(cols)` all resolve.
pub fn window_bound(e: &ir::Expr, stride_expr: &ir::Expr) -> Option<SymBound> {
    if let ir::Expr::Imm(Value::I32(v)) = ir::fold::fold_expr(e.clone()) {
        return Some(SymBound::konst(v as i64));
    }
    if e == stride_expr {
        return Some(SymBound::stride());
    }
    if let ir::Expr::Binary { op, a, b } = e {
        let (wa, wb) = (window_bound(a, stride_expr), window_bound(b, stride_expr));
        match (op, wa, wb) {
            (ir::BinOp::Add, Some(x), Some(y)) => return Some(x + y),
            (ir::BinOp::Sub, Some(x), Some(y)) => return Some(x + -y),
            (ir::BinOp::Mul, Some(x), Some(y)) => {
                // Linear result only: one factor must be constant.
                if x.a == 0 {
                    return Some(y.scale(x.k));
                }
                if y.a == 0 {
                    return Some(x.scale(y.k));
                }
            }
            _ => {}
        }
    }
    None
}

/// How many whole stride windows a halo bound spans: the largest `d`
/// with `(d-1)*S + 1 <= halo` for every admissible stride (0 when the
/// halo covers no full neighbor window, capped at 16). This is the
/// currency carried distances are measured in: a halo of `d` windows
/// reaches the `d` nearest neighbor partitions on that side.
pub fn halo_windows(halo: Option<SymBound>, stride: StrideRef) -> i64 {
    let Some(h) = halo else { return 0 };
    let mut d = 0;
    while d < 16 {
        let need = SymBound { a: d, k: 1 };
        if !need.le(h, stride) {
            break;
        }
        d += 1;
    }
    d
}

// ---------- the environment-tracking walker ----------

type Env = Vec<Option<SymRange>>;

struct Walker {
    buf: ir::BufId,
    stride: StrideRef,
    out: BufSites,
    /// Stack of active monotone-window loop contexts: the induction
    /// variable and the window signature its value is confined to.
    mono: Vec<(ir::LocalId, MonoSig)>,
}

impl Walker {
    fn walk_block(&mut self, stmts: &[Stmt], env: &mut Env) {
        for (i, s) in stmts.iter().enumerate() {
            let prev = if i > 0 { Some(&stmts[i - 1]) } else { None };
            self.walk_stmt(s, prev, env);
        }
    }

    fn walk_stmt(&mut self, s: &Stmt, prev: Option<&Stmt>, env: &mut Env) {
        match s {
            Stmt::Assign { local, value } => {
                self.visit_loads(value, env);
                let r = eval(value, env, self.stride);
                env[local.0 as usize] = r;
            }
            Stmt::Store { buf, idx, value, .. } => {
                self.visit_loads(idx, env);
                self.visit_loads(value, env);
                if *buf == self.buf {
                    self.out.stores.push(decompose(idx, env, self.stride));
                    self.out.store_mono.push(self.claim_for(idx));
                }
            }
            Stmt::AtomicRmw { idx, value, .. } => {
                // Atomic destinations are reduction-private, never
                // distributed; only their embedded loads matter here.
                self.visit_loads(idx, env);
                self.visit_loads(value, env);
            }
            Stmt::ReduceScalar { value, .. } => self.visit_loads(value, env),
            Stmt::If { cond, then_, else_ } => {
                self.visit_loads(cond, env);
                let mut e1 = env.clone();
                let mut e2 = env.clone();
                self.walk_block(then_, &mut e1);
                self.walk_block(else_, &mut e2);
                for (dst, (a, b)) in env.iter_mut().zip(e1.into_iter().zip(e2)) {
                    *dst = match (a, b) {
                        (Some(a), Some(b)) => a.union(b, self.stride),
                        _ => None,
                    };
                }
            }
            Stmt::While { cond, body } => {
                let assigned = assigned_locals(body);
                let mut inner = env.clone();
                for l in &assigned {
                    inner[l.0 as usize] = None;
                }
                if let Some((v, range)) = recover_loop_bounds(cond, body, env, self.stride) {
                    inner[v.0 as usize] = Some(range);
                }
                let ctx = mono_context(prev, cond, body);
                if let Some(c) = ctx {
                    self.mono.push(c);
                }
                self.visit_loads(cond, &inner);
                self.walk_block(body, &mut inner);
                if ctx.is_some() {
                    self.mono.pop();
                }
                // Nothing assigned in the body has a known value after
                // the loop (it may run zero or many times).
                for l in assigned {
                    env[l.0 as usize] = None;
                }
            }
            Stmt::Break | Stmt::Continue => {}
        }
    }

    fn visit_loads(&mut self, e: &Expr, env: &Env) {
        let mut found = Vec::new();
        e.visit(&mut |e| {
            if let Expr::Load { buf, idx } = e {
                if *buf == self.buf {
                    found.push(idx.as_ref());
                }
            }
        });
        for idx in found {
            self.out.loads.push(decompose(idx, env, self.stride));
            self.out.load_mono.push(self.claim_for(idx));
        }
    }

    /// The monotone signature claiming this index, if the index is
    /// exactly an active monotone induction variable (innermost wins).
    fn claim_for(&self, idx: &Expr) -> Option<MonoSig> {
        if let Expr::Local(l) = strip_cast(idx) {
            return self
                .mono
                .iter()
                .rev()
                .find(|(k, _)| k == l)
                .map(|&(_, sig)| sig);
        }
        None
    }
}

/// Recognize a monotone indirect-window loop: the statement pair
///
/// ```text
/// k = p[c*tid + o];
/// while (k < p[c*tid + o + d]) { ...; k = k + positive-const; }
/// ```
///
/// with `c >= 1` and `1 <= d <= c`, where the only reassignment of `k`
/// inside the loop is the final top-level increment and `p` is never
/// written inside the loop body. `k` then stays inside the half-open
/// window `[p[c*tid + o], p[c*tid + o + d])` — the per-iteration windows
/// are pairwise disjoint provided `p` is elementwise non-decreasing (a
/// premise the caller must discharge; see [`crate::depend`]).
fn mono_context(prev: Option<&Stmt>, cond: &Expr, body: &[Stmt]) -> Option<(ir::LocalId, MonoSig)> {
    let (k, ptr, lo_idx) = match prev? {
        Stmt::Assign { local, value } => match strip_cast(value) {
            Expr::Load { buf, idx } => (*local, *buf, idx.as_ref()),
            _ => return None,
        },
        _ => return None,
    };
    let ub = match strip_cast(cond) {
        Expr::Binary { op: BinOp::Lt, a, b } => match strip_cast(a) {
            Expr::Local(v) if *v == k => strip_cast(b),
            _ => return None,
        },
        _ => return None,
    };
    let hi_idx = match ub {
        Expr::Load { buf, idx } if *buf == ptr => idx.as_ref(),
        _ => return None,
    };
    let lo = linear_in_tid(lo_idx)?;
    let hi = linear_in_tid(hi_idx)?;
    if lo.coeff != hi.coeff || lo.coeff < 1 {
        return None;
    }
    let span = hi.offset - lo.offset;
    if span < 1 || span > lo.coeff {
        return None;
    }
    // `k` must only be reassigned by the final top-level increment, and
    // the bound array must stay constant inside the loop.
    let mut k_assigns = 0usize;
    let mut ptr_written = false;
    for s in body {
        s.visit(&mut |s| match s {
            Stmt::Assign { local, .. } if *local == k => k_assigns += 1,
            Stmt::Store { buf, .. } | Stmt::AtomicRmw { buf, .. } if *buf == ptr => {
                ptr_written = true;
            }
            _ => {}
        });
    }
    if ptr_written || k_assigns != 1 {
        return None;
    }
    match body.last()? {
        Stmt::Assign { local, value } if *local == k && is_positive_increment(value, k) => {}
        _ => return None,
    }
    Some((
        k,
        MonoSig {
            ptr,
            coeff: lo.coeff,
            lo_off: lo.offset,
            span,
        },
    ))
}

/// Recover `v in [pre(v).lo, ub - 1]` from a desugared counting loop
/// `while (v < ub) { ...; v = v + c; }`:
///
/// * the condition compares a local against a loop-invariant bound,
/// * every assignment to `v` in the body adds a positive constant,
/// * the bound expression references no local assigned in the body.
fn recover_loop_bounds(
    cond: &Expr,
    body: &[Stmt],
    env: &Env,
    stride: StrideRef,
) -> Option<(ir::LocalId, SymRange)> {
    let (v, ub, inclusive) = match strip_cast(cond) {
        Expr::Binary { op, a, b } => match (op, strip_cast(a), strip_cast(b)) {
            (BinOp::Lt, Expr::Local(v), ub) => (*v, ub, false),
            (BinOp::Le, Expr::Local(v), ub) => (*v, ub, true),
            (BinOp::Gt, ub, Expr::Local(v)) => (*v, ub, false),
            (BinOp::Ge, ub, Expr::Local(v)) => (*v, ub, true),
            _ => return None,
        },
        _ => return None,
    };
    let pre = env[v.0 as usize]?;
    let ubr = eval_at(ub, env, stride)?;
    let assigned = assigned_locals(body);
    // The bound must be loop-invariant (the stride symbol is known
    // unassigned — the caller guarantees it before using `Sym`).
    let mut invariant = true;
    ub.visit(&mut |e| {
        if let Expr::Local(l) = e {
            if assigned.contains(l) && !is_stride_local(l, stride) {
                invariant = false;
            }
        }
    });
    if !invariant {
        return None;
    }
    // Every assignment to v must be `v = v + positive-const`.
    let mut monotone = true;
    for s in body {
        s.visit(&mut |s| {
            if let Stmt::Assign { local, value } = s {
                if *local == v && !is_positive_increment(value, v) {
                    monotone = false;
                }
            }
        });
    }
    if !monotone {
        return None;
    }
    let hi = if inclusive {
        ubr.hi
    } else {
        ubr.hi + SymBound::konst(-1)
    };
    Some((v, SymRange { lo: pre.lo, hi }))
}

fn is_positive_increment(value: &Expr, v: ir::LocalId) -> bool {
    match strip_cast(value) {
        Expr::Binary { op: BinOp::Add, a, b } => {
            matches!(
                (strip_cast(a), strip_cast(b)),
                (Expr::Local(l), Expr::Imm(Value::I32(c))) if *l == v && *c > 0
            ) || matches!(
                (strip_cast(a), strip_cast(b)),
                (Expr::Imm(Value::I32(c)), Expr::Local(l)) if *l == v && *c > 0
            )
        }
        _ => false,
    }
}

fn is_stride_local(l: &ir::LocalId, stride: StrideRef) -> bool {
    matches!(stride, StrideRef::Sym(sl) if sl == *l)
}

pub(crate) fn strip_cast(mut e: &Expr) -> &Expr {
    while let Expr::Cast { ty: Ty::I32, a } = e {
        e = a;
    }
    e
}

/// Evaluate a thread-invariant expression to a symbolic interval.
fn eval(e: &Expr, env: &Env, stride: StrideRef) -> Option<SymRange> {
    if contains_tid(e) {
        return None;
    }
    eval_at(e, env, stride)
}

fn eval_at(e: &Expr, env: &Env, stride: StrideRef) -> Option<SymRange> {
    match e {
        Expr::Imm(Value::I32(v)) => Some(SymRange::point(SymBound::konst(*v as i64))),
        Expr::Local(l) if is_stride_local(l, stride) => {
            Some(SymRange::point(SymBound::stride()))
        }
        Expr::Local(l) => env.get(l.0 as usize).copied().flatten(),
        Expr::Cast { ty: Ty::I32, a } => eval_at(a, env, stride),
        Expr::Unary { op: UnOp::Neg, a } => Some(eval_at(a, env, stride)?.neg()),
        Expr::Binary { op, a, b } => {
            let ra = eval_at(a, env, stride);
            let rb = eval_at(b, env, stride);
            match op {
                BinOp::Add => Some(ra?.add(rb?)),
                BinOp::Sub => Some(ra?.add(rb?.neg())),
                BinOp::Mul => {
                    // One side must be a known constant to stay within
                    // the `a*S + k` domain (S*S is not representable).
                    if let Some(c) = ra.and_then(const_point) {
                        Some(rb?.scale(c))
                    } else if let Some(c) = rb.and_then(const_point) {
                        Some(ra?.scale(c))
                    } else {
                        None
                    }
                }
                _ => None,
            }
        }
        _ => None,
    }
}

fn const_point(r: SymRange) -> Option<i64> {
    if r.lo == r.hi && r.lo.a == 0 {
        Some(r.lo.k)
    } else {
        None
    }
}

/// Does `e` read the thread index anywhere?
pub(crate) fn contains_tid(e: &Expr) -> bool {
    let mut found = false;
    e.visit(&mut |e| {
        if matches!(e, Expr::ThreadIdx) {
            found = true;
        }
    });
    found
}

/// Decompose an index into `tid_s*(S*tid) + tid_c*tid + offset-interval`
/// by flattening its top-level `+`/`-` terms.
fn decompose(idx: &Expr, env: &Env, stride: StrideRef) -> Option<IndexForm> {
    let mut terms = Vec::new();
    flatten(idx, 1, &mut terms);
    let mut form = IndexForm {
        tid_s: 0,
        tid_c: 0,
        offset: SymRange::point(SymBound::konst(0)),
    };
    for (sign, t) in terms {
        if contains_tid(t) {
            if let Some(lin) = linear_in_tid(t) {
                form.tid_c += sign * lin.coeff;
                form.offset = form
                    .offset
                    .add(SymRange::point(SymBound::konst(sign * lin.offset)));
            } else if let Expr::Binary {
                op: BinOp::Mul,
                a,
                b,
            } = strip_cast(t)
            {
                // `(c1*tid + c2) * S` (either operand order): contributes
                // c1 to the S*tid coefficient and c2*S to the offset.
                let lin = if is_stride_expr(a, stride) {
                    linear_in_tid(b)?
                } else if is_stride_expr(b, stride) {
                    linear_in_tid(a)?
                } else {
                    return None;
                };
                form.tid_s += sign * lin.coeff;
                form.offset = form.offset.add(SymRange::point(SymBound {
                    a: sign * lin.offset,
                    k: 0,
                }));
            } else {
                return None;
            }
        } else {
            let r = eval_at(t, env, stride)?;
            form.offset = form.offset.add(if sign < 0 { r.neg() } else { r });
        }
    }
    Some(form)
}

fn is_stride_expr(e: &Expr, stride: StrideRef) -> bool {
    match (strip_cast(e), stride) {
        (Expr::Local(l), StrideRef::Sym(sl)) => *l == sl,
        (Expr::Imm(Value::I32(v)), StrideRef::Const(s)) => *v as i64 == s,
        _ => false,
    }
}

pub(crate) fn flatten<'a>(e: &'a Expr, sign: i64, out: &mut Vec<(i64, &'a Expr)>) {
    match e {
        Expr::Binary { op: BinOp::Add, a, b } => {
            flatten(a, sign, out);
            flatten(b, sign, out);
        }
        Expr::Binary { op: BinOp::Sub, a, b } => {
            flatten(a, sign, out);
            flatten(b, -sign, out);
        }
        Expr::Unary { op: UnOp::Neg, a } => flatten(a, -sign, out),
        Expr::Cast { ty: Ty::I32, a } => flatten(a, sign, out),
        _ => out.push((sign, e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acc_kernel_ir::{BufId, LocalId};

    const S: StrideRef = StrideRef::Sym(LocalId(0));

    fn sb(a: i64, k: i64) -> SymBound {
        SymBound { a, k }
    }

    #[test]
    fn symbolic_ordering_uses_stride_lower_bound() {
        // 0 <= S-1 for all S >= 1; S-1 < S; 1 <= S-1 NOT provable (S=1).
        assert!(sb(0, 0).le(sb(1, -1), S));
        assert!(sb(1, -1).lt(sb(1, 0), S));
        assert!(!sb(0, 1).le(sb(1, -1), S));
        // Exact stride settles it: with S = 4, 1 <= S-1.
        assert!(sb(0, 1).le(sb(1, -1), StrideRef::Const(4)));
        // Growing gap never provable symbolically: S <= 5 fails for S=6.
        assert!(!sb(1, 0).le(sb(0, 5), S));
    }

    // Build `tid*S + j` style indices against buf 0, stride local 0.
    fn tid_s_plus(extra: Expr) -> Expr {
        Expr::add(Expr::mul(Expr::ThreadIdx, Expr::Local(LocalId(0))), extra)
    }

    #[test]
    fn proves_symbolic_stride_with_inner_loop() {
        // j = 0; while (j < S) { b[tid*S + j] = 0; j = j + 1; }
        let body = vec![
            Stmt::Assign {
                local: LocalId(1),
                value: Expr::imm_i32(0),
            },
            Stmt::While {
                cond: Expr::bin(BinOp::Lt, Expr::Local(LocalId(1)), Expr::Local(LocalId(0))),
                body: vec![
                    Stmt::Store {
                        buf: BufId(0),
                        idx: tid_s_plus(Expr::Local(LocalId(1))),
                        value: Expr::imm_i32(0),
                        dirty: false,
                        checked: false,
                    },
                    Stmt::Assign {
                        local: LocalId(1),
                        value: Expr::add(Expr::Local(LocalId(1)), Expr::imm_i32(1)),
                    },
                ],
            },
        ];
        let sites = collect(&body, 2, BufId(0), S);
        assert_eq!(sites.stores.len(), 1);
        assert!(stores_proved_local(&sites, S));
    }

    #[test]
    fn escaping_offset_not_proved() {
        // b[tid*S + j] with j in [0, S]  (loop `j <= S`): j == S escapes.
        let body = vec![
            Stmt::Assign {
                local: LocalId(1),
                value: Expr::imm_i32(0),
            },
            Stmt::While {
                cond: Expr::bin(BinOp::Le, Expr::Local(LocalId(1)), Expr::Local(LocalId(0))),
                body: vec![
                    Stmt::Store {
                        buf: BufId(0),
                        idx: tid_s_plus(Expr::Local(LocalId(1))),
                        value: Expr::imm_i32(0),
                        dirty: false,
                        checked: false,
                    },
                    Stmt::Assign {
                        local: LocalId(1),
                        value: Expr::add(Expr::Local(LocalId(1)), Expr::imm_i32(1)),
                    },
                ],
            },
        ];
        let sites = collect(&body, 2, BufId(0), S);
        assert!(!stores_proved_local(&sites, S));
    }

    #[test]
    fn non_monotone_induction_is_rejected() {
        // j reassigned arbitrarily inside the loop: range unknown.
        let body = vec![
            Stmt::Assign {
                local: LocalId(1),
                value: Expr::imm_i32(0),
            },
            Stmt::While {
                cond: Expr::bin(BinOp::Lt, Expr::Local(LocalId(1)), Expr::Local(LocalId(0))),
                body: vec![
                    Stmt::Assign {
                        local: LocalId(1),
                        value: Expr::mul(Expr::Local(LocalId(1)), Expr::imm_i32(2)),
                    },
                    Stmt::Store {
                        buf: BufId(0),
                        idx: tid_s_plus(Expr::Local(LocalId(1))),
                        value: Expr::imm_i32(0),
                        dirty: false,
                        checked: false,
                    },
                ],
            },
        ];
        let sites = collect(&body, 2, BufId(0), S);
        assert!(!stores_proved_local(&sites, S));
    }

    #[test]
    fn literal_stride_store_is_proved_for_its_own_stride_only() {
        // out[3*tid + 1]: provable for stride 3, not 2.
        let body = vec![Stmt::Store {
            buf: BufId(0),
            idx: Expr::add(Expr::mul(Expr::imm_i32(3), Expr::ThreadIdx), Expr::imm_i32(1)),
            value: Expr::imm_i32(0),
            dirty: false,
            checked: false,
        }];
        let sites = collect(&body, 1, BufId(0), StrideRef::Const(3));
        assert!(stores_proved_local(&sites, StrideRef::Const(3)));
        let sites = collect(&body, 1, BufId(0), StrideRef::Const(2));
        assert!(!stores_proved_local(&sites, StrideRef::Const(2)));
    }

    #[test]
    fn branch_merge_unions_ranges() {
        // if (c) j = 1; else j = 3;  b[tid*S + j] — j in [1,3] escapes
        // [0, S-1] symbolically (S could be 2).
        let body = vec![
            Stmt::If {
                cond: Expr::Imm(Value::Bool(true)),
                then_: vec![Stmt::Assign {
                    local: LocalId(1),
                    value: Expr::imm_i32(1),
                }],
                else_: vec![Stmt::Assign {
                    local: LocalId(1),
                    value: Expr::imm_i32(3),
                }],
            },
            Stmt::Store {
                buf: BufId(0),
                idx: tid_s_plus(Expr::Local(LocalId(1))),
                value: Expr::imm_i32(0),
                dirty: false,
                checked: false,
            },
        ];
        let sites = collect(&body, 2, BufId(0), S);
        assert!(!stores_proved_local(&sites, S));
        // With a constant stride of 8 the union [1,3] fits [0,7].
        let sites = collect(&body, 2, BufId(0), StrideRef::Const(8));
        // (stride local slot unused in const mode; idx has S=Local(0)...)
        // Local(0) is not the stride here, so decomposition fails — and
        // that is the correct conservative answer.
        assert!(!stores_proved_local(&sites, StrideRef::Const(8)));
    }

    #[test]
    fn halo_reads_checked_against_window() {
        // loads at tid*S + j and (tid-1)*S + j, j in [0, S-1].
        let body = vec![
            Stmt::Assign {
                local: LocalId(1),
                value: Expr::imm_i32(0),
            },
            Stmt::While {
                cond: Expr::bin(BinOp::Lt, Expr::Local(LocalId(1)), Expr::Local(LocalId(0))),
                body: vec![
                    Stmt::Assign {
                        local: LocalId(2),
                        value: Expr::add(
                            Expr::load(BufId(0), tid_s_plus(Expr::Local(LocalId(1)))),
                            Expr::load(
                                BufId(0),
                                Expr::add(
                                    Expr::mul(
                                        Expr::sub(Expr::ThreadIdx, Expr::imm_i32(1)),
                                        Expr::Local(LocalId(0)),
                                    ),
                                    Expr::Local(LocalId(1)),
                                ),
                            ),
                        ),
                    },
                    Stmt::Assign {
                        local: LocalId(1),
                        value: Expr::add(Expr::Local(LocalId(1)), Expr::imm_i32(1)),
                    },
                ],
            },
        ];
        let sites = collect(&body, 3, BufId(0), S);
        assert_eq!(sites.loads.len(), 2);
        // left(S) covers the previous row: no violations.
        let ok = check_load_windows(&sites, S, Some(SymBound::stride()), Some(SymBound::konst(0)));
        assert_eq!(ok, WindowCheck { checked: 2, violations: 0 });
        // left(0): the (tid-1)*S read provably escapes.
        let bad = check_load_windows(&sites, S, Some(SymBound::konst(0)), Some(SymBound::konst(0)));
        assert_eq!(bad, WindowCheck { checked: 2, violations: 1 });
        // Unknown left bound: nothing provable on that side.
        let unk = check_load_windows(&sites, S, None, Some(SymBound::konst(0)));
        assert_eq!(unk.violations, 0);
    }

    #[test]
    fn window_bounds_from_host_exprs() {
        let stride = Expr::Local(LocalId(4));
        assert_eq!(window_bound(&Expr::imm_i32(2), &stride), Some(SymBound::konst(2)));
        assert_eq!(window_bound(&stride.clone(), &stride), Some(SymBound::stride()));
        assert_eq!(window_bound(&Expr::Local(LocalId(5)), &stride), None);
    }
}
