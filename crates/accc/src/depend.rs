//! Cross-GPU dependence analysis (the static half of §IV-D's
//! correctness story).
//!
//! The paper distributes a kernel's iteration space across GPUs and
//! reconciles memory afterwards, which is only sound when, per array,
//! cross-iteration accesses are *disjoint*, *convergent* (every
//! conflicting write stores the same thread-invariant value), or
//! *reduction-shaped*. The existing analyses check annotations; this
//! module proves (or refutes) the property itself, per kernel × array:
//!
//! 1. every access site is summarized into a symbolic access relation
//!    (the [`crate::range`] decomposition `tid_s*(S*tid) + tid_c*tid +
//!    offset-interval`, plus *monotone indirect-window* claims for
//!    `row_ptr[i]`-bounded inner loops);
//! 2. a GCD/interval hybrid pair test decides, for every pair of sites,
//!    whether two distinct iterations can touch the same element — and,
//!    when they can, *how far apart* those iterations are: each conflict
//!    carries a [`Distance`] (exact constant, bounded interval,
//!    direction-only, or unknown), measured in stride windows;
//! 3. the verdict lattice below folds the pair results, separating
//!    cross-partition races ([`DependVerdict::Race`], diagnostic
//!    `ACC-W005`) from loop-carried flow dependences. Carried
//!    dependences whose distance vector is known land in
//!    [`DependVerdict::CarriedLocal`]; only a distance the analysis
//!    cannot describe at all degrades to
//!    [`DependVerdict::LoopCarried`] (`ACC-W006`). Bounded carried
//!    distances that fit the declared halo downgrade the diagnostic to
//!    `ACC-I003` and license the runtime's wavefront schedule (see
//!    `docs/analysis.md`, "Distance & direction vectors").
//!
//! The same access summary drives `reductiontoarray` *inference*
//! ([`infer_reduction`]): a scatter whose every store is
//! `a[i] = a[i] op v` with no other reads of `a` is rewritten to the
//! exact atomic-RMW IR the annotated source would lower to, so inferred
//! and hand-annotated programs are bit-identical (diagnostic
//! `ACC-I002`, applied under `acc-lint --infer`).
//!
//! Verdicts are *cross-validated dynamically*: every statically flagged
//! race must reproduce as a `SanitizeLevel::Full` violation under fault
//! injection, and every proved-race-free app kernel must run clean (see
//! `docs/analysis.md` and the `acc-apps` dependence tests). The one
//! premise the monotone lattice leaves open — the bound array is
//! elementwise non-decreasing — is discharged at launch time by the
//! runtime (`ACC-R011`).

use std::collections::BTreeSet;

use acc_kernel_ir::{self as ir, BinOp, Builtin, Expr, Stmt};
use acc_minic::hir;

use crate::range::{BufSites, IndexForm, MonoSig, StrideRef, SymBound};

/// Per kernel × array dependence verdict, ordered from strongest
/// guarantee to definite hazard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DependVerdict {
    /// The kernel never writes the array.
    ReadOnly,
    /// Distinct iterations touch provably disjoint elements.
    Disjoint(DisjointProof),
    /// Iterations may write the same element, but every such write
    /// stores the same thread-invariant value — any interleaving and any
    /// replica-merge order converges.
    ConvergentWrites,
    /// All writes are atomic read-modify-writes with one associative
    /// operator and the array is not otherwise read: safe under
    /// reduction-private placement.
    Reduction(ir::RmwOp),
    /// The analysis could not decide.
    #[default]
    Unknown,
    /// A definite cross-iteration flow dependence whose distance vector
    /// is known: every conflicting (writer, reader) iteration pair is
    /// separated by a distance inside `distance` (in stride windows).
    /// Bounded distances that fit the declared halo downgrade `ACC-W006`
    /// to `ACC-I003` and license the runtime's wavefront.
    CarriedLocal { distance: Distance },
    /// A definite cross-iteration flow dependence the analysis cannot
    /// bound or orient: some iteration reads an element another
    /// iteration writes, arbitrarily far away (diagnostic `ACC-W006`).
    LoopCarried,
    /// A definite write-write conflict with diverging values: under
    /// distribution the result depends on the partition (diagnostic
    /// `ACC-W005`).
    Race,
}

impl DependVerdict {
    /// Verdicts that prove the kernel safe to distribute for this array.
    pub fn race_free(self) -> bool {
        matches!(
            self,
            DependVerdict::ReadOnly
                | DependVerdict::Disjoint(_)
                | DependVerdict::ConvergentWrites
                | DependVerdict::Reduction(_)
        )
    }

    /// The carried distance vector, when the verdict carries one.
    pub fn carried_distance(self) -> Option<Distance> {
        match self {
            DependVerdict::CarriedLocal { distance } => Some(distance),
            _ => None,
        }
    }
}

/// Sign of a direction-only carried distance (`<` / `>` in classic
/// direction-vector notation; `=` never reaches a verdict — same-iteration
/// accesses are not carried).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Every carried distance is positive: the reading iteration runs
    /// after the writing one (`<`, flow-shaped).
    Forward,
    /// Every carried distance is negative: the reading iteration runs
    /// before the writing one (`>`, anti-shaped).
    Backward,
}

/// Carried dependence distance, measured in *stride windows* of the
/// array's distribution stride (plain iterations for `stride(1)`
/// arrays). Positive distances are flow-shaped: the reading iteration
/// runs after the writing one (`y[i] = y[i-1]` is `Exact(1)`;
/// `y[i] = y[i+1]` is `Exact(-1)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Distance {
    /// Every conflicting pair is exactly this many windows apart.
    Exact(i64),
    /// Every conflicting pair is `lo..=hi` windows apart.
    Bounded { lo: i64, hi: i64 },
    /// Only the sign of the distance is known.
    Dir(Direction),
    /// Nothing is known about the separation.
    #[default]
    Unknown,
}

impl Distance {
    /// The bounding interval, when the distance is bounded.
    pub fn bounds(self) -> Option<(i64, i64)> {
        match self {
            Distance::Exact(d) => Some((d, d)),
            Distance::Bounded { lo, hi } => Some((lo, hi)),
            Distance::Dir(_) | Distance::Unknown => None,
        }
    }

    /// The interval `[lo, hi]` as a `Distance`, collapsing to `Exact`.
    pub fn of_range(lo: i64, hi: i64) -> Distance {
        if lo == hi {
            Distance::Exact(lo)
        } else {
            Distance::Bounded { lo, hi }
        }
    }

    /// The sign of the distance, when determinate.
    pub fn direction(self) -> Option<Direction> {
        match self {
            Distance::Dir(d) => Some(d),
            _ => match self.bounds()? {
                (lo, _) if lo > 0 => Some(Direction::Forward),
                (_, hi) if hi < 0 => Some(Direction::Backward),
                _ => None,
            },
        }
    }

    /// Least upper bound in the distance lattice: interval hull of
    /// bounded distances, common sign of directional ones, `Unknown`
    /// otherwise.
    pub fn join(self, other: Distance) -> Distance {
        match (self.bounds(), other.bounds()) {
            (Some((a, b)), Some((c, d))) => Distance::of_range(a.min(c), b.max(d)),
            _ => match (self.direction(), other.direction()) {
                (Some(x), Some(y)) if x == y => Distance::Dir(x),
                _ => Distance::Unknown,
            },
        }
    }

    /// The halo each side must span to cover every carried distance:
    /// `(left, right)` in stride windows. `None` when unbounded.
    pub fn halo_need(self) -> Option<(i64, i64)> {
        let (lo, hi) = self.bounds()?;
        Some((hi.max(0), (-lo).max(0)))
    }

    /// Does every carried distance fit inside a halo of `left` /
    /// `right` stride windows? Forward distances read *leftward* (the
    /// reader trails the writer, so the read lands below the reader's
    /// own window — covered by the left halo); backward distances read
    /// rightward. Unbounded distances never fit.
    pub fn fits_halo(self, left_windows: i64, right_windows: i64) -> bool {
        match self.bounds() {
            Some((lo, hi)) => hi.max(0) <= left_windows && (-lo).max(0) <= right_windows,
            None => false,
        }
    }
}

/// How disjointness was established.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DisjointProof {
    /// All sites affine in `tid` with point offsets; the GCD test
    /// excludes every cross-iteration collision.
    Affine,
    /// Sites carry symbolic per-partition offset intervals that fit
    /// strictly inside one stride window.
    StrideWindow,
    /// All sites are confined to a monotone indirect window
    /// `[p[c*t+o], p[c*t+o+d])` — disjoint across iterations provided
    /// the bound array `p` is elementwise non-decreasing (validated at
    /// launch, `ACC-R011`).
    MonotoneWindow,
}

impl std::fmt::Display for Distance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Distance::Exact(d) => write!(f, "{d}"),
            Distance::Bounded { lo, hi } => write!(f, "[{lo}, {hi}]"),
            Distance::Dir(Direction::Forward) => write!(f, ">0 (direction-only)"),
            Distance::Dir(Direction::Backward) => write!(f, "<0 (direction-only)"),
            Distance::Unknown => write!(f, "unknown"),
        }
    }
}

/// Result of [`analyze_buf`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufDepend {
    pub verdict: DependVerdict,
    /// The monotone window confining this array's accesses, when every
    /// claimed site shares one signature (also set for read-only arrays
    /// whose loads ride a monotone loop — the "inferred indirect
    /// window" of CSR traversals).
    pub monotone: Option<MonoSig>,
}

/// Per-site classification after folding monotone claims into the
/// decomposed forms.
#[derive(Clone, Copy)]
enum Site {
    Claim(MonoSig),
    Form(IndexForm),
    Opaque,
}

/// Outcome of the pairwise cross-iteration collision test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PairRes {
    /// Two distinct iterations definitely can touch the same element;
    /// the payload bounds how many stride windows apart they can be
    /// (positive: the `b` site's iteration runs after the `a` site's).
    Conflict(Distance),
    /// They provably cannot.
    Clean,
    /// Undecided.
    Unknown,
}

/// Fold the access sites of `buf` into a [`DependVerdict`]. `sites` are
/// the buffer's accesses decomposed under `dom` — the array's own
/// declared (or resolved) distribution stride, or the trivial `Const(1)`
/// domain for unannotated arrays. `assigned` are the locals the kernel
/// assigns. `ptr_unwritten[p]` says whether kernel buffer `p`, a
/// candidate monotone bound array, is never written anywhere in the
/// enclosing function — the host-side construction fact the monotone
/// lattice builds on.
pub fn analyze_buf(
    body: &[Stmt],
    buf: ir::BufId,
    dom: StrideRef,
    sites: &BufSites,
    assigned: &BTreeSet<ir::LocalId>,
    ptr_unwritten: &[bool],
) -> BufDepend {
    let unknown = BufDepend {
        verdict: DependVerdict::Unknown,
        monotone: None,
    };

    // -- 1. Atomic-RMW-only buffers are reduction-shaped. --------------
    let mut atomic_ops: Vec<ir::RmwOp> = Vec::new();
    let mut store_values: Vec<&Expr> = Vec::new();
    scan(body, &mut |s| match s {
        Stmt::AtomicRmw { buf: b, op, .. } if *b == buf => atomic_ops.push(*op),
        Stmt::Store { buf: b, value, .. } if *b == buf => store_values.push(value),
        _ => {}
    });
    if let Some(&op) = atomic_ops.first() {
        if atomic_ops.iter().all(|&o| o == op) && store_values.is_empty() && sites.loads.is_empty()
        {
            return BufDepend {
                verdict: DependVerdict::Reduction(op),
                monotone: None,
            };
        }
        // Mixed atomic/plain access: beyond this lattice.
        return unknown;
    }

    // -- 2. Summarize every site. ---------------------------------------
    if sites.stores.len() != store_values.len() || sites.store_mono.len() != sites.stores.len() {
        return unknown; // traversal mismatch — refuse to reason
    }
    let uniform: Vec<bool> = store_values
        .iter()
        .map(|v| value_uniform(v, assigned))
        .collect();

    let fold = |form: &Option<IndexForm>, claim: &Option<MonoSig>| -> Site {
        if let Some(sig) = claim {
            if ptr_unwritten.get(sig.ptr.0 as usize) == Some(&true) {
                return Site::Claim(*sig);
            }
        }
        match form {
            Some(f) => Site::Form(*f),
            None => Site::Opaque,
        }
    };
    let stores: Vec<Site> = sites
        .stores
        .iter()
        .zip(&sites.store_mono)
        .map(|(f, c)| fold(f, c))
        .collect();
    let loads: Vec<Site> = sites
        .loads
        .iter()
        .zip(&sites.load_mono)
        .map(|(f, c)| fold(f, c))
        .collect();

    // -- 3. Read-only arrays: record the window metadata and stop. ------
    if stores.is_empty() {
        return BufDepend {
            verdict: DependVerdict::ReadOnly,
            monotone: common_claim(&loads),
        };
    }

    // -- 4. Monotone-confined writes. -----------------------------------
    if stores.iter().any(|s| matches!(s, Site::Claim(_))) {
        // Mixing monotone claims with other site kinds (or with claims
        // of a different signature) defeats the window argument.
        let sig = match common_claim(&stores) {
            Some(sig) => sig,
            None => return unknown,
        };
        if loads
            .iter()
            .all(|l| matches!(l, Site::Claim(s) if *s == sig))
        {
            return BufDepend {
                verdict: DependVerdict::Disjoint(DisjointProof::MonotoneWindow),
                monotone: Some(sig),
            };
        }
        return unknown;
    }

    // -- 5. Pairwise collision tests over the decomposed forms. ---------
    let mut race = false;
    let mut loop_carried = false;
    let mut carried: Option<Distance> = None;
    let mut convergent = false;
    let mut undecided = false;

    for (i, a) in stores.iter().enumerate() {
        // store × store (including the self pair: a broadcast store
        // conflicts with itself across iterations).
        for (j, b) in stores.iter().enumerate().skip(i) {
            let (fa, fb) = match (a, b) {
                (Site::Form(fa), Site::Form(fb)) => (fa, fb),
                _ => continue,
            };
            let both_uniform = uniform[i] && uniform[j];
            match pair_test(fa, fb, dom) {
                PairRes::Conflict(_) if both_uniform => convergent = true,
                PairRes::Conflict(_) => race = true,
                PairRes::Unknown if both_uniform => convergent = true,
                PairRes::Unknown => undecided = true,
                PairRes::Clean => {}
            }
        }
        // store × load: a cross-iteration read of a written element.
        // The conflict distance is writer-to-reader: positive when the
        // reading iteration runs after the writing one.
        for l in &loads {
            let (fa, fl) = match (a, l) {
                (Site::Form(fa), Site::Form(fl)) => (fa, fl),
                _ => continue,
            };
            match pair_test(fa, fl, dom) {
                PairRes::Conflict(_) if uniform[i] => convergent = true,
                PairRes::Conflict(d) => {
                    loop_carried = true;
                    carried = Some(match carried {
                        None => d,
                        Some(prev) => prev.join(d),
                    });
                }
                PairRes::Unknown if uniform[i] => convergent = true,
                PairRes::Unknown => undecided = true,
                PairRes::Clean => {}
            }
        }
    }

    // Opaque sites: writes of a thread-invariant value stay convergent
    // no matter where they land; anything else is beyond the lattice.
    let all_uniform = uniform.iter().all(|&u| u);
    for (i, s) in stores.iter().enumerate() {
        if matches!(s, Site::Opaque) {
            if uniform[i] && all_uniform {
                convergent = true;
            } else {
                undecided = true;
            }
        }
    }
    if loads.iter().any(|l| matches!(l, Site::Opaque)) {
        if all_uniform {
            convergent = true;
        } else {
            undecided = true;
        }
    }

    let verdict = if race {
        DependVerdict::Race
    } else if loop_carried {
        // An undecided pair could hide a conflict at arbitrary distance,
        // so it poisons any bounded claim from the decided pairs.
        match (undecided, carried.unwrap_or_default()) {
            (true, _) | (false, Distance::Unknown) => DependVerdict::LoopCarried,
            (false, distance) => DependVerdict::CarriedLocal { distance },
        }
    } else if undecided {
        DependVerdict::Unknown
    } else if convergent {
        DependVerdict::ConvergentWrites
    } else {
        let points = stores.iter().chain(&loads).all(|s| match s {
            Site::Form(f) => f.offset.lo == f.offset.hi,
            _ => true,
        });
        let proof = if matches!(dom, StrideRef::Const(_)) && points {
            DisjointProof::Affine
        } else {
            DisjointProof::StrideWindow
        };
        DependVerdict::Disjoint(proof)
    };
    BufDepend {
        verdict,
        monotone: None,
    }
}

/// The single monotone signature shared by a non-empty all-claims site
/// list, else `None`.
fn common_claim(sites: &[Site]) -> Option<MonoSig> {
    let mut sig = None;
    for s in sites {
        match (s, sig) {
            (Site::Claim(c), None) => sig = Some(*c),
            (Site::Claim(c), Some(prev)) if *c == prev => {}
            _ => return None,
        }
    }
    sig
}

/// An expression is *uniform* when it cannot diverge across the
/// executions that evaluate it: no thread index, no memory loads, no
/// local from `assigned` (the locals that may change between them). The
/// one store-value test of the dependence verdicts and of `ACC-W001`
/// (`assigned` = locals the kernel assigns), and the launch-invariance
/// test of comm elision (`assigned` = locals the host assigns).
pub(crate) fn value_uniform(e: &Expr, assigned: &BTreeSet<ir::LocalId>) -> bool {
    let mut uni = true;
    e.visit(&mut |e| match e {
        Expr::ThreadIdx | Expr::Load { .. } => uni = false,
        Expr::Local(l) if assigned.contains(l) => uni = false,
        _ => {}
    });
    uni
}

// ---------- the GCD/interval pair test ----------

/// Can two *distinct* iterations `t1 != t2 >= 0` touch the same element
/// through sites `a` and `b`? Decomposed indices are
/// `c*t + [lo, hi]`; the test solves `c_a*t1 - c_b*t2 ∈ D` with
/// `D = [b.lo - a.hi, b.hi - a.lo]` (every value of `D` is attained —
/// offsets range over their whole intervals).
fn pair_test(a: &IndexForm, b: &IndexForm, dom: StrideRef) -> PairRes {
    match dom {
        StrideRef::Const(s) => pair_const(a, b, s),
        StrideRef::Sym(_) => pair_sym(a, b, dom),
    }
}

fn pair_const(a: &IndexForm, b: &IndexForm, s: i64) -> PairRes {
    let ca = a.tid_s * s + a.tid_c;
    let cb = b.tid_s * s + b.tid_c;
    let (alo, ahi) = (
        a.offset.lo.a * s + a.offset.lo.k,
        a.offset.hi.a * s + a.offset.hi.k,
    );
    let (blo, bhi) = (
        b.offset.lo.a * s + b.offset.lo.k,
        b.offset.hi.a * s + b.offset.hi.k,
    );
    if alo > ahi || blo > bhi {
        return PairRes::Unknown;
    }
    let (dlo, dhi) = (blo - ahi, bhi - alo);
    match (ca, cb) {
        // Both broadcast: constant in `t`, conflict iff intervals meet —
        // between *any* two iterations, so the distance is unbounded.
        (0, 0) => {
            if dlo <= 0 && 0 <= dhi {
                PairRes::Conflict(Distance::Unknown)
            } else {
                PairRes::Clean
            }
        }
        // One side broadcast: need a non-negative multiple of the other
        // coefficient inside the difference interval (the broadcast side
        // supplies the distinct iteration for free — at any separation,
        // so no distance bound exists).
        (c, 0) => nonneg_multiple_in(c, dlo, dhi),
        (0, c) => nonneg_multiple_in(c, -dhi, -dlo),
        // Equal coefficients: `c*(t1 - t2) ∈ D` with `t1 != t2` — a
        // *non-zero* multiple of `c` inside `D`. The solutions
        // `k = t1 - t2 ∈ [kmin, kmax]` bound the distance exactly:
        // `b`'s iteration minus `a`'s is `-k` (sign-flipped again when
        // the shared coefficient is negative).
        (c1, c2) if c1 == c2 => {
            let c = c1.abs();
            let kmin = div_ceil(dlo, c);
            let kmax = div_floor(dhi, c);
            if kmin <= kmax && !(kmin == 0 && kmax == 0) {
                let (mut lo, mut hi) = if c1 > 0 {
                    (-kmax, -kmin)
                } else {
                    (kmin, kmax)
                };
                // Zero separation is not a carried conflict; trim it
                // off the interval endpoints.
                if lo == 0 {
                    lo = 1;
                }
                if hi == 0 {
                    hi = -1;
                }
                PairRes::Conflict(Distance::of_range(lo, hi))
            } else {
                PairRes::Clean
            }
        }
        // Distinct same-sign coefficients: `{c_a*t1 - c_b*t2}` over
        // unbounded `t >= 0` is exactly the multiples of `gcd`; a
        // witness with `t1 != t2` always exists (shift by `c_b/g, c_a/g`)
        // at every sufficiently large separation — no bound.
        (c1, c2) if (c1 > 0) == (c2 > 0) => {
            let g = gcd(c1.unsigned_abs(), c2.unsigned_abs()) as i64;
            if div_ceil(dlo, g) <= div_floor(dhi, g) {
                PairRes::Conflict(Distance::Unknown)
            } else {
                PairRes::Clean
            }
        }
        // Opposite signs: the attainable set is a numerical semigroup
        // (Frobenius gaps) — only the empty case is decidable cheaply.
        (c1, c2) => {
            let g = gcd(c1.unsigned_abs(), c2.unsigned_abs()) as i64;
            if div_ceil(dlo, g) > div_floor(dhi, g) {
                PairRes::Clean
            } else {
                PairRes::Unknown
            }
        }
    }
}

/// Is some `c*t`, `t >= 0`, inside `[dlo, dhi]`?
fn nonneg_multiple_in(c: i64, dlo: i64, dhi: i64) -> PairRes {
    let (c, dlo, dhi) = if c < 0 { (-c, -dhi, -dlo) } else { (c, dlo, dhi) };
    let tmin = div_ceil(dlo, c).max(0);
    let tmax = div_floor(dhi, c);
    if tmin <= tmax {
        PairRes::Conflict(Distance::Unknown)
    } else {
        PairRes::Clean
    }
}

fn pair_sym(a: &IndexForm, b: &IndexForm, dom: StrideRef) -> PairRes {
    let kind = |f: &IndexForm| -> Option<bool> {
        // true: stride-coefficient site `S*t + off`; false: broadcast.
        if f.tid_s == 1 && f.tid_c == 0 {
            Some(true)
        } else if f.tid_s == 0 && f.tid_c == 0 {
            Some(false)
        } else {
            None
        }
    };
    let (ka, kb) = match (kind(a), kind(b)) {
        (Some(ka), Some(kb)) => (ka, kb),
        _ => return PairRes::Unknown,
    };
    let dlo = b.offset.lo + (-a.offset.hi);
    let dhi = b.offset.hi + (-a.offset.lo);
    match (ka, kb) {
        (false, false) => {
            if dlo.le(SymBound::konst(0), dom) && SymBound::konst(0).le(dhi, dom) {
                // Broadcast sites conflict at any separation.
                PairRes::Conflict(Distance::Unknown)
            } else if dhi.lt(SymBound::konst(0), dom) || SymBound::konst(0).lt(dlo, dom) {
                PairRes::Clean
            } else {
                PairRes::Unknown
            }
        }
        (true, true) => {
            // Need a non-zero multiple of `S` in `[dlo, dhi]`. Classify
            // each candidate multiplier `k` (so `t1 - t2 = k`, distance
            // `-k`) as a definite hit, definitely excluded, or open;
            // `|k| > K` is settled wholesale by the boundedness probes.
            const K: i64 = 8;
            let mult = |k: i64| SymBound::stride().scale(k);
            let hit = |m: SymBound| dlo.le(m, dom) && m.le(dhi, dom);
            let excluded = |m: SymBound| dhi.lt(m, dom) || m.lt(dlo, dom);
            let mut any_hit = false;
            let mut any_open = false;
            // Multipliers not provably excluded, as distances `-k`.
            let mut dists: Vec<i64> = Vec::new();
            for k in -K..=K {
                if k == 0 {
                    continue;
                }
                let m = mult(k);
                if hit(m) {
                    any_hit = true;
                    dists.push(-k);
                } else if !excluded(m) {
                    any_open = true;
                    dists.push(-k);
                }
            }
            // `S >= 1`, so excluding `±(K+1)·S` excludes everything
            // further out on that side.
            let lo_bounded = mult(-(K + 1)).lt(dlo, dom);
            let hi_bounded = dhi.lt(mult(K + 1), dom);
            if any_hit {
                let dist = if lo_bounded && hi_bounded {
                    let lo = *dists.iter().min().unwrap();
                    let hi = *dists.iter().max().unwrap();
                    Distance::of_range(lo, hi)
                } else if hi_bounded && dists.iter().all(|&d| d > 0) {
                    // Positive-`k` multipliers may run unboundedly low,
                    // i.e. distances unboundedly positive — and dually.
                    Distance::Dir(Direction::Forward)
                } else if lo_bounded && dists.iter().all(|&d| d < 0) {
                    Distance::Dir(Direction::Backward)
                } else {
                    Distance::Unknown
                };
                PairRes::Conflict(dist)
            } else if !any_open && lo_bounded && hi_bounded {
                // Every multiple of `S` is provably outside `[dlo, dhi]`.
                PairRes::Clean
            } else {
                PairRes::Unknown
            }
        }
        _ => PairRes::Unknown,
    }
}

fn div_floor(a: i64, b: i64) -> i64 {
    a.div_euclid(b)
}

fn div_ceil(a: i64, b: i64) -> i64 {
    -(-a).div_euclid(b)
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    if a == 0 {
        1
    } else {
        a
    }
}

// ---------- reductiontoarray inference ----------

/// Infer a `reductiontoarray` annotation for `buf` and, on success,
/// rewrite every matched store into the *exact* atomic-RMW statement the
/// hand-annotated source would lower to (so inferred and annotated
/// programs compile to bit-identical IR). Matches when
///
/// * every store to `buf` is `buf[i] = buf[i] op v` (or `min`/`max`
///   calls) with one operand exactly the read-back of the stored
///   element, all stores agreeing on `op`;
/// * `buf` is not otherwise read anywhere in the kernel;
/// * at least one store index is non-affine or broadcast — coalesced
///   self-updates need no reduction placement and are left alone.
///
/// Returns the inferred operator, surfaced as diagnostic `ACC-I002`.
pub fn infer_reduction(body: &mut [Stmt], buf: ir::BufId) -> Option<ir::RmwOp> {
    // Validation pass (immutable).
    let mut ops: Vec<ir::RmwOp> = Vec::new();
    let mut shape_ok = true;
    let mut needs_reduction = false;
    scan(body, &mut |s| {
        if let Stmt::Store { buf: b, idx, value, .. } = s {
            if *b == buf {
                match split_rmw(value, buf, idx) {
                    Some((op, _)) => ops.push(op),
                    None => shape_ok = false,
                }
                if !matches!(
                    crate::affine::classify(idx),
                    crate::affine::AccessPattern::Coalesced | crate::affine::AccessPattern::Strided(_)
                ) {
                    needs_reduction = true;
                }
            }
        }
    });
    let op = *ops.first()?;
    if !shape_ok || !needs_reduction || ops.iter().any(|&o| o != op) {
        return None;
    }
    // No reads of `buf` beyond the per-store read-backs (one each, plus
    // any loads inside the indices of the read-backs themselves).
    let mut n_loads = 0usize;
    for_each_expr(body, &mut |e| {
        if matches!(e, Expr::Load { buf: b, .. } if *b == buf) {
            n_loads += 1;
        }
    });
    if n_loads != ops.len() {
        return None;
    }
    rewrite_rmw(body, buf, op);
    Some(op)
}

/// If `value` is `self op v` / `op(self, v)` where `self` reads
/// `buf[idx]` back, return the operator and a reference to `v`.
fn split_rmw<'a>(value: &'a Expr, buf: ir::BufId, idx: &Expr) -> Option<(ir::RmwOp, &'a Expr)> {
    let is_self =
        |e: &Expr| matches!(e, Expr::Load { buf: b, idx: i } if *b == buf && **i == *idx);
    match value {
        Expr::Binary { op, a, b } => {
            let rop = match op {
                BinOp::Add => ir::RmwOp::Add,
                BinOp::Mul => ir::RmwOp::Mul,
                _ => return None,
            };
            if is_self(a) {
                Some((rop, b))
            } else if is_self(b) {
                Some((rop, a))
            } else {
                None
            }
        }
        Expr::Call { f, args } if args.len() == 2 => {
            let rop = match f {
                Builtin::Min => ir::RmwOp::Min,
                Builtin::Max => ir::RmwOp::Max,
                _ => return None,
            };
            if is_self(&args[0]) {
                Some((rop, &args[1]))
            } else if is_self(&args[1]) {
                Some((rop, &args[0]))
            } else {
                None
            }
        }
        _ => None,
    }
}

/// Rewrite every store to `buf` into its atomic-RMW form (the stores
/// were validated by [`infer_reduction`]).
fn rewrite_rmw(stmts: &mut [Stmt], buf: ir::BufId, op: ir::RmwOp) {
    for s in stmts {
        match s {
            Stmt::Store { buf: b, .. } if *b == buf => {
                if let Stmt::Store { buf: b, idx, value, .. } = std::mem::replace(s, Stmt::Break) {
                    let rhs = match split_rmw(&value, b, &idx) {
                        Some((_, v)) => v.clone(),
                        None => value, // unreachable post-validation
                    };
                    *s = Stmt::AtomicRmw {
                        buf: b,
                        idx,
                        op,
                        value: rhs,
                    };
                }
            }
            Stmt::If { then_, else_, .. } => {
                rewrite_rmw(then_, buf, op);
                rewrite_rmw(else_, buf, op);
            }
            Stmt::While { body, .. } => rewrite_rmw(body, buf, op),
            _ => {}
        }
    }
}

// ---------- host-side construction facts ----------

/// Per program array: is it written anywhere in `f` — host statements
/// or any kernel body? The monotone lattice may only trust a bound
/// array (`row_ptr`) that the function never mutates; its runtime
/// monotonicity is then a property of the caller-supplied input,
/// validated at launch (`ACC-R011`).
pub fn arrays_written_in_function(f: &hir::TypedFunction) -> Vec<bool> {
    fn walk(body: &[hir::HostStmt], mark: &mut impl FnMut(&Stmt)) {
        for s in body {
            match s {
                hir::HostStmt::Plain(p) => p.visit(mark),
                hir::HostStmt::ParallelLoop(n) => n.body.iter().for_each(|s| s.visit(mark)),
                hir::HostStmt::If { then_, else_, .. } => {
                    walk(then_, mark);
                    walk(else_, mark);
                }
                hir::HostStmt::While { body, .. } | hir::HostStmt::DataRegion { body, .. } => {
                    walk(body, mark)
                }
                hir::HostStmt::Update { .. } | hir::HostStmt::Return => {}
            }
        }
    }
    let mut written = vec![false; f.array_params.len()];
    walk(&f.body, &mut |s| {
        if let Stmt::Store { buf, .. } | Stmt::AtomicRmw { buf, .. } = s {
            written[buf.0 as usize] = true;
        }
    });
    written
}

// ---------- traversal helpers ----------

/// Pre-order statement visit over a block (including nested blocks).
fn scan<'a>(body: &'a [Stmt], f: &mut impl FnMut(&'a Stmt)) {
    for s in body {
        s.visit(f);
    }
}

/// Visit every expression (recursively) in every statement of `body`.
fn for_each_expr<'a>(body: &'a [Stmt], f: &mut impl FnMut(&'a Expr)) {
    for s in body {
        s.visit_exprs(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::range::SymRange;
    use crate::{compile_source, CompileOptions, DisjointProof as DP, Placement};

    fn verdict(src: &str, f: &str, array: &str) -> DependVerdict {
        let p = compile_source(src, f, &CompileOptions::proposal()).unwrap();
        let arr = p.array_index(array).unwrap();
        for k in &p.kernels {
            for c in &k.configs {
                if c.array == arr {
                    return c.lint.verdict;
                }
            }
        }
        panic!("array `{array}` not used in any kernel");
    }

    #[test]
    fn affine_stores_are_disjoint_and_pure_reads_read_only() {
        let src = "void saxpy(int n, double *x, double *y) {\n\
             #pragma acc parallel loop copyin(x[0:n]) copy(y[0:n])\n\
             for (int i = 0; i < n; i++) y[i] = 2.0 * x[i] + y[i];\n\
             }";
        assert_eq!(
            verdict(src, "saxpy", "y"),
            DependVerdict::Disjoint(DP::Affine)
        );
        assert_eq!(verdict(src, "saxpy", "x"), DependVerdict::ReadOnly);
    }

    #[test]
    fn broadcast_store_of_variant_value_is_a_race() {
        let src = "void k(int n, double *v, double *y) {\n\
             #pragma acc localaccess(y) stride(1)\n\
             #pragma acc parallel loop copyin(v[0:n]) copy(y[0:n])\n\
             for (int i = 0; i < n; i++) { y[i] = v[i]; y[0] = v[i]; }\n\
             }";
        assert_eq!(verdict(src, "k", "y"), DependVerdict::Race);
    }

    #[test]
    fn backward_shift_read_is_carried_local_distance_one() {
        let src = "void k(int n, double *y) {\n\
             #pragma acc localaccess(y) stride(1) left(1)\n\
             #pragma acc parallel loop copy(y[0:n])\n\
             for (int i = 1; i < n; i++) y[i] = y[i - 1] + 1.0;\n\
             }";
        assert_eq!(
            verdict(src, "k", "y"),
            DependVerdict::CarriedLocal {
                distance: Distance::Exact(1)
            }
        );
    }

    #[test]
    fn deep_backward_shift_gets_exact_distance() {
        let src = "void k(int n, double *y) {\n\
             #pragma acc localaccess(y) stride(1) left(3)\n\
             #pragma acc parallel loop copy(y[0:n])\n\
             for (int i = 3; i < n; i++) y[i] = y[i - 3] + 1.0;\n\
             }";
        assert_eq!(
            verdict(src, "k", "y"),
            DependVerdict::CarriedLocal {
                distance: Distance::Exact(3)
            }
        );
    }

    #[test]
    fn forward_shift_read_is_carried_local_negative_distance() {
        // `y[i] = y[i+1]`: the reader runs *before* the writer — an
        // anti-shaped carried dependence at distance -1.
        let src = "void k(int n, double *y) {\n\
             #pragma acc localaccess(y) stride(1) right(1)\n\
             #pragma acc parallel loop copy(y[0:n])\n\
             for (int i = 0; i < n - 1; i++) y[i] = y[i + 1] + 1.0;\n\
             }";
        assert_eq!(
            verdict(src, "k", "y"),
            DependVerdict::CarriedLocal {
                distance: Distance::Exact(-1)
            }
        );
    }

    #[test]
    fn broadcast_read_of_written_array_stays_loop_carried() {
        // Every iteration reads `y[0]`, which iteration 0 writes: the
        // separation is unbounded, so no distance vector exists and the
        // verdict stays at the unbounded `LoopCarried`.
        let src = "void k(int n, double *y) {\n\
             #pragma acc localaccess(y) stride(1)\n\
             #pragma acc parallel loop copy(y[0:n])\n\
             for (int i = 1; i < n; i++) y[i] = y[0] + 1.0;\n\
             }";
        assert_eq!(verdict(src, "k", "y"), DependVerdict::LoopCarried);
    }

    #[test]
    fn uniform_scatter_converges_variant_scatter_is_unknown() {
        let conv = "void k(int n, int *m, double *y) {\n\
             #pragma acc parallel loop copyin(m[0:n]) copy(y[0:n])\n\
             for (int i = 0; i < n; i++) y[m[i]] = 5.0;\n\
             }";
        assert_eq!(verdict(conv, "k", "y"), DependVerdict::ConvergentWrites);
        let unk = "void k(int n, int *m, double *x, double *y) {\n\
             #pragma acc parallel loop copyin(m[0:n], x[0:n]) copy(y[0:n])\n\
             for (int i = 0; i < n; i++) y[m[i]] = x[i];\n\
             }";
        assert_eq!(verdict(unk, "k", "y"), DependVerdict::Unknown);
    }

    #[test]
    fn annotated_reduction_is_reduction_shaped() {
        let src = "void k(int n, int *m, double *v, double *e) {\n\
             #pragma acc parallel loop copyin(m[0:n], v[0:n]) copy(e[0:8])\n\
             for (int i = 0; i < n; i++) {\n\
             #pragma acc reductiontoarray(+: e)\n\
             e[m[i]] = e[m[i]] + v[i];\n\
             }\n\
             }";
        assert_eq!(
            verdict(src, "k", "e"),
            DependVerdict::Reduction(ir::RmwOp::Add)
        );
    }

    const PUSH: &str = "void push(int n, int nnz, int *row_ptr, double *w, double *msg) {\n\
         #pragma acc localaccess(row_ptr) stride(1) right(1)\n\
         #pragma acc parallel loop copyin(row_ptr[0:n+1], w[0:n]) copy(msg[0:nnz])\n\
         for (int i = 0; i < n; i++) {\n\
             double c = w[i] * 2.0;\n\
             for (int k = row_ptr[i]; k < row_ptr[i + 1]; k = k + 1) {\n\
                 msg[k] = c;\n\
             }\n\
         }\n\
         }";

    #[test]
    fn monotone_window_proves_indirect_push_disjoint() {
        let p = compile_source(PUSH, "push", &CompileOptions::proposal()).unwrap();
        let k = &p.kernels[0];
        let msg = k
            .configs
            .iter()
            .find(|c| c.name == "msg")
            .expect("msg config");
        assert_eq!(
            msg.lint.verdict,
            DependVerdict::Disjoint(DP::MonotoneWindow)
        );
        let w = msg.monotone_window.expect("window recorded");
        assert_eq!(w.ptr_array, p.array_index("row_ptr").unwrap());
        assert_eq!((w.coeff, w.lo_off, w.span), (1, 0, 1));
        // The heuristic W001 counter would have fired on `msg[k] = c`
        // (broadcast-classified index, thread-variant value); the proof
        // suppresses it.
        assert_eq!(msg.lint.overlap_stores, 0);
        // The bound array's monotonicity is registered as a runtime
        // premise of the program.
        assert_eq!(
            p.monotone_premises,
            vec![p.array_index("row_ptr").unwrap()]
        );
    }

    #[test]
    fn monotone_window_needs_an_unwritten_bound_array() {
        // Same loop, but the function itself writes `row_ptr` first: the
        // host-side construction fact is gone, so no window is claimed.
        let src = "void push(int n, int nnz, int *row_ptr, double *w, double *msg) {\n\
             row_ptr[0] = 0;\n\
             #pragma acc localaccess(row_ptr) stride(1) right(1)\n\
             #pragma acc parallel loop copyin(row_ptr[0:n+1], w[0:n]) copy(msg[0:nnz])\n\
             for (int i = 0; i < n; i++) {\n\
                 double c = w[i] * 2.0;\n\
                 for (int k = row_ptr[i]; k < row_ptr[i + 1]; k = k + 1) {\n\
                     msg[k] = c;\n\
                 }\n\
             }\n\
             }";
        let p = compile_source(src, "push", &CompileOptions::proposal()).unwrap();
        let msg = p.kernels[0]
            .configs
            .iter()
            .find(|c| c.name == "msg")
            .unwrap();
        assert_eq!(msg.lint.verdict, DependVerdict::Unknown);
        assert!(msg.monotone_window.is_none());
        assert!(p.monotone_premises.is_empty());
    }

    #[test]
    fn monotone_loads_decorate_read_only_arrays() {
        let src = "void spmv(int n, int nnz, int *row_ptr, double *vals, double *y) {\n\
             #pragma acc localaccess(row_ptr) stride(1) right(1)\n\
             #pragma acc localaccess(y) stride(1)\n\
             #pragma acc parallel loop copyin(row_ptr[0:n+1], vals[0:nnz]) copy(y[0:n])\n\
             for (int i = 0; i < n; i++) {\n\
                 double s = 0.0;\n\
                 for (int k = row_ptr[i]; k < row_ptr[i + 1]; k = k + 1) {\n\
                     s = s + vals[k];\n\
                 }\n\
                 y[i] = s;\n\
             }\n\
             }";
        let p = compile_source(src, "spmv", &CompileOptions::proposal()).unwrap();
        let vals = p.kernels[0]
            .configs
            .iter()
            .find(|c| c.name == "vals")
            .unwrap();
        assert_eq!(vals.lint.verdict, DependVerdict::ReadOnly);
        assert!(vals.monotone_window.is_some());
        // A read-only window is metadata, not a load-bearing premise.
        assert!(p.monotone_premises.is_empty());
    }

    #[test]
    fn inferred_reduction_matches_annotated_compilation() {
        let annotated = "void k(int n, int *m, double *v, double *e) {\n\
             #pragma acc parallel loop copyin(m[0:n], v[0:n]) copy(e[0:8])\n\
             for (int i = 0; i < n; i++) {\n\
             #pragma acc reductiontoarray(+: e)\n\
             e[m[i]] = e[m[i]] + v[i];\n\
             }\n\
             }";
        let stripped = "void k(int n, int *m, double *v, double *e) {\n\
             #pragma acc parallel loop copyin(m[0:n], v[0:n]) copy(e[0:8])\n\
             for (int i = 0; i < n; i++) {\n\
             e[m[i]] = e[m[i]] + v[i];\n\
             }\n\
             }";
        let mut opts = CompileOptions::proposal();
        opts.infer_reductions = true;
        let pa = compile_source(annotated, "k", &CompileOptions::proposal()).unwrap();
        let pi = compile_source(stripped, "k", &opts).unwrap();
        let (ka, ki) = (&pa.kernels[0], &pi.kernels[0]);
        // The rewrite reproduces the annotated lowering exactly.
        assert_eq!(ka.kernel.body, ki.kernel.body);
        let ea = ka.configs.iter().find(|c| c.name == "e").unwrap();
        let ei = ki.configs.iter().find(|c| c.name == "e").unwrap();
        assert_eq!(ea.placement, Placement::ReductionPrivate(ir::RmwOp::Add));
        assert_eq!(ei.placement, ea.placement);
        assert_eq!(ei.inferred_reduction, Some(ir::RmwOp::Add));
        assert_eq!(ea.inferred_reduction, None);
        // Without the opt-in, nothing is rewritten.
        let off = compile_source(stripped, "k", &CompileOptions::proposal()).unwrap();
        let eo = off.kernels[0].configs.iter().find(|c| c.name == "e").unwrap();
        assert_eq!(eo.placement, Placement::Replicated);
        assert!(eo.lint.unannotated_rmw > 0);
    }

    #[test]
    fn coalesced_self_update_is_not_rewritten() {
        // `y[i] = y[i] + x[i]` needs no reduction placement; inference
        // must leave the coalesced store alone.
        let src = "void k(int n, double *x, double *y) {\n\
             #pragma acc parallel loop copyin(x[0:n]) copy(y[0:n])\n\
             for (int i = 0; i < n; i++) y[i] = y[i] + x[i];\n\
             }";
        let mut opts = CompileOptions::proposal();
        opts.infer_reductions = true;
        let p = compile_source(src, "k", &opts).unwrap();
        let y = p.kernels[0].configs.iter().find(|c| c.name == "y").unwrap();
        assert_eq!(y.inferred_reduction, None);
        assert_eq!(y.placement, Placement::Replicated);
        assert_eq!(y.lint.verdict, DependVerdict::Disjoint(DP::Affine));
    }

    // ---------- pair-test unit coverage ----------

    fn form(tid_s: i64, tid_c: i64, lo: i64, hi: i64) -> IndexForm {
        IndexForm {
            tid_s,
            tid_c,
            offset: SymRange {
                lo: SymBound::konst(lo),
                hi: SymBound::konst(hi),
            },
        }
    }

    #[test]
    fn pair_const_equal_coeff_gcd() {
        let d = StrideRef::Const(1);
        // y[2i] vs y[2i]: point offsets, no nonzero multiple of 2 in [0,0].
        assert_eq!(
            pair_test(&form(0, 2, 0, 0), &form(0, 2, 0, 0), d),
            PairRes::Clean
        );
        // y[2i] vs y[2i+2]: element 2t1 = 2t2+2 forces t1 = t2 + 1, so
        // the `b` iteration trails by exactly one.
        assert_eq!(
            pair_test(&form(0, 2, 0, 0), &form(0, 2, 2, 2), d),
            PairRes::Conflict(Distance::Exact(-1))
        );
        // y[2i] vs y[2i+1]: parity keeps them apart.
        assert_eq!(
            pair_test(&form(0, 2, 0, 0), &form(0, 2, 1, 1), d),
            PairRes::Clean
        );
        // Offset interval wider than the coefficient: windows overlap,
        // one iteration in either direction.
        assert_eq!(
            pair_test(&form(0, 2, 0, 2), &form(0, 2, 0, 2), d),
            PairRes::Conflict(Distance::Bounded { lo: -1, hi: 1 })
        );
    }

    #[test]
    fn pair_const_distance_is_exact_for_constant_shifts() {
        let dom = StrideRef::Const(1);
        // Store y[i], load y[i-d]: flow distance exactly d.
        for dist in 1..=8 {
            assert_eq!(
                pair_test(&form(0, 1, 0, 0), &form(0, 1, -dist, -dist), dom),
                PairRes::Conflict(Distance::Exact(dist)),
                "shift {dist}"
            );
        }
        // Store y[i], load y[i+d]: anti distance exactly -d.
        for dist in 1..=8 {
            assert_eq!(
                pair_test(&form(0, 1, 0, 0), &form(0, 1, dist, dist), dom),
                PairRes::Conflict(Distance::Exact(-dist)),
                "shift {dist}"
            );
        }
    }

    #[test]
    fn pair_const_mixed_coeffs() {
        let d = StrideRef::Const(1);
        // Broadcast vs broadcast at distinct constants.
        assert_eq!(
            pair_test(&form(0, 0, 3, 3), &form(0, 0, 4, 4), d),
            PairRes::Clean
        );
        assert_eq!(
            pair_test(&form(0, 0, 3, 3), &form(0, 0, 3, 3), d),
            PairRes::Conflict(Distance::Unknown)
        );
        // y[i] vs y[0]: iteration 0 collides with the broadcast.
        assert_eq!(
            pair_test(&form(0, 1, 0, 0), &form(0, 0, 0, 0), d),
            PairRes::Conflict(Distance::Unknown)
        );
        // y[i+1] vs y[0]: the affine site never reaches element 0.
        assert_eq!(
            pair_test(&form(0, 1, 1, 1), &form(0, 0, 0, 0), d),
            PairRes::Clean
        );
        // y[4i] vs y[6i+3]: gcd 2 never hits the odd offset difference.
        assert_eq!(
            pair_test(&form(0, 4, 0, 0), &form(0, 6, 3, 3), d),
            PairRes::Clean
        );
        // y[4i] vs y[6i+2]: 4*2 = 6*1 + 2.
        assert_eq!(
            pair_test(&form(0, 4, 0, 0), &form(0, 6, 2, 2), d),
            PairRes::Conflict(Distance::Unknown)
        );
    }

    #[test]
    fn pair_sym_stride_windows() {
        let dom = StrideRef::Sym(ir::LocalId(0));
        let sw = |lo: SymBound, hi: SymBound| IndexForm {
            tid_s: 1,
            tid_c: 0,
            offset: SymRange { lo, hi },
        };
        // Offsets within [0, S-1]: strictly inside one stride window.
        let own = sw(SymBound::konst(0), SymBound { a: 1, k: -1 });
        assert_eq!(pair_test(&own, &own, dom), PairRes::Clean);
        // A halo reaching S collides with the next iteration's window —
        // the reader runs one window *before* the writer (anti).
        let halo = sw(SymBound::konst(0), SymBound { a: 1, k: 0 });
        assert_eq!(
            pair_test(&own, &halo, dom),
            PairRes::Conflict(Distance::Exact(-1))
        );
        // A two-window backward halo [-2S, S-1] reaches the previous
        // two writers' windows: flow distances 1..=2.
        let deep = sw(SymBound { a: -2, k: 0 }, SymBound { a: 1, k: -1 });
        assert_eq!(
            pair_test(&own, &deep, dom),
            PairRes::Conflict(Distance::Bounded { lo: 1, hi: 2 })
        );
    }

    #[test]
    fn distance_lattice_join_and_fit() {
        use Distance as D;
        assert_eq!(D::Exact(1).join(D::Exact(2)), D::Bounded { lo: 1, hi: 2 });
        assert_eq!(D::Exact(2).join(D::Exact(2)), D::Exact(2));
        assert_eq!(
            D::Exact(-1).join(D::Bounded { lo: 1, hi: 2 }),
            D::Bounded { lo: -1, hi: 2 }
        );
        assert_eq!(
            D::Exact(3).join(D::Dir(Direction::Forward)),
            D::Dir(Direction::Forward)
        );
        assert_eq!(D::Exact(3).join(D::Dir(Direction::Backward)), D::Unknown);
        assert_eq!(D::Unknown.join(D::Exact(1)), D::Unknown);
        assert!(D::Exact(2).fits_halo(2, 0));
        assert!(!D::Exact(2).fits_halo(1, 4));
        assert!(D::Bounded { lo: -1, hi: 2 }.fits_halo(2, 1));
        assert!(!D::Bounded { lo: -1, hi: 2 }.fits_halo(2, 0));
        assert!(!D::Dir(Direction::Forward).fits_halo(8, 8));
        assert_eq!(D::Bounded { lo: 1, hi: 2 }.direction(), Some(Direction::Forward));
        assert_eq!(D::Bounded { lo: -1, hi: 2 }.direction(), None);
    }
}
