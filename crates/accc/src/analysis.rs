//! Kernel-body array-access analysis.
//!
//! For every buffer parameter of a kernel the translator records how it is
//! accessed: read/write mode and the coalescing class of every load, store
//! and atomic site. The worst class per direction ([`BufUsage::read_pattern`],
//! [`BufUsage::write_pattern`]) is what the runtime prices each array's
//! memory traffic with, through [`pattern_efficiency`]; the load classes
//! also decide the §IV-B4 layout transform. The §IV-D2 write-locality
//! proof lives in [`crate::range`].

use acc_kernel_ir::{Expr, Stmt};

use crate::affine::{classify, linear_in_tid, AccessPattern};

/// Read/write mode of one array in one kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessMode {
    Read,
    Write,
    ReadWrite,
}

impl AccessMode {
    /// Whether the kernel may read the array.
    pub fn reads(self) -> bool {
        matches!(self, AccessMode::Read | AccessMode::ReadWrite)
    }

    /// Whether the kernel may write the array.
    pub fn writes(self) -> bool {
        matches!(self, AccessMode::Write | AccessMode::ReadWrite)
    }
}

/// Per-buffer usage facts collected from a kernel body.
#[derive(Debug, Clone, Default)]
pub struct BufUsage {
    pub reads: bool,
    pub writes: bool,
    /// The buffer is the target of atomic RMW (reductiontoarray lowering).
    pub atomics: bool,
    /// One entry per textual store site: a constant-coefficient affine
    /// index `c*tid + o` is `Coalesced` when `|c| <= 1`, else
    /// `Strided(|c|)`; anything else is `Irregular`.
    pub store_sites: Vec<AccessPattern>,
    /// One entry per textual load site: its coalescing class.
    pub load_sites: Vec<AccessPattern>,
    /// One entry per atomic site.
    pub atomic_sites: Vec<AccessPattern>,
}

impl BufUsage {
    /// The combined access mode, or `None` if the array is unused.
    pub fn mode(&self) -> Option<AccessMode> {
        match (self.reads, self.writes || self.atomics) {
            (false, false) => None,
            (true, false) => Some(AccessMode::Read),
            (false, true) => Some(AccessMode::Write),
            (true, true) => Some(AccessMode::ReadWrite),
        }
    }

    /// All load sites are affine in the thread index (the precondition for
    /// the layout transform).
    pub fn all_loads_affine(&self) -> bool {
        self.load_sites.iter().all(|p| p.is_affine())
    }

    /// The least efficient load site (`Coalesced` when the buffer is not
    /// read).
    pub fn read_pattern(&self) -> AccessPattern {
        worst(&self.load_sites)
    }

    /// The least efficient store or atomic site, stores first
    /// (`Coalesced` when the buffer is not written).
    pub fn write_pattern(&self) -> AccessPattern {
        worst(self.store_sites.iter().chain(&self.atomic_sites))
    }
}

/// The site with the lowest [`pattern_efficiency`]; ties go to the first.
fn worst<'a>(sites: impl IntoIterator<Item = &'a AccessPattern>) -> AccessPattern {
    sites
        .into_iter()
        .copied()
        .min_by(|a, b| pattern_efficiency(*a).total_cmp(&pattern_efficiency(*b)))
        .unwrap_or(AccessPattern::Coalesced)
}

/// The coalescing class of a store index.
fn store_pattern(idx: &Expr) -> AccessPattern {
    match linear_in_tid(idx) {
        Some(l) if l.coeff.unsigned_abs() <= 1 => AccessPattern::Coalesced,
        Some(l) => AccessPattern::Strided(l.coeff.unsigned_abs()),
        None => AccessPattern::Irregular,
    }
}

/// Analyze a kernel body over `n_bufs` buffer parameters.
pub fn analyze_body(body: &[Stmt], n_bufs: usize) -> Vec<BufUsage> {
    let mut usage = vec![BufUsage::default(); n_bufs];
    walk_block(body, &mut usage);
    usage
}

fn walk_block(stmts: &[Stmt], usage: &mut [BufUsage]) {
    for s in stmts {
        walk_stmt(s, usage);
    }
}

fn walk_stmt(s: &Stmt, usage: &mut [BufUsage]) {
    match s {
        Stmt::Assign { value, .. } => walk_expr(value, usage),
        Stmt::Store { buf, idx, value, .. } => {
            walk_expr(idx, usage);
            walk_expr(value, usage);
            let u = &mut usage[buf.0 as usize];
            u.writes = true;
            u.store_sites.push(store_pattern(idx));
        }
        Stmt::AtomicRmw {
            buf, idx, value, ..
        } => {
            walk_expr(idx, usage);
            walk_expr(value, usage);
            let u = &mut usage[buf.0 as usize];
            u.atomics = true;
            u.atomic_sites.push(classify(idx));
        }
        Stmt::ReduceScalar { value, .. } => walk_expr(value, usage),
        Stmt::If { cond, then_, else_ } => {
            walk_expr(cond, usage);
            walk_block(then_, usage);
            walk_block(else_, usage);
        }
        Stmt::While { cond, body } => {
            walk_expr(cond, usage);
            walk_block(body, usage);
        }
        Stmt::Break | Stmt::Continue => {}
    }
}

fn walk_expr(e: &Expr, usage: &mut [BufUsage]) {
    e.visit(&mut |e| {
        if let Expr::Load { buf, idx } = e {
            let u = &mut usage[buf.0 as usize];
            u.reads = true;
            u.load_sites.push(classify(idx));
        }
    });
}

/// Per-site effective-bandwidth fraction for the roofline model. These are
/// calibration constants for Fermi-class GPUs: coalesced/broadcast
/// accesses reach full effective bandwidth; a stride-`s` access wastes all
/// but one of the `s` words a transaction fetches; irregular gathers reach
/// roughly 1/8 of peak.
pub fn pattern_efficiency(p: AccessPattern) -> f64 {
    match p {
        AccessPattern::Broadcast | AccessPattern::Coalesced => 1.0,
        AccessPattern::Strided(s) => 1.0 / (s.min(32) as f64),
        // Runtime stride: assume a moderate stride (the KMEANS feature
        // matrix has nfeatures ≈ 34, i.e. far from coalesced).
        AccessPattern::StridedDyn => 1.0 / 8.0,
        AccessPattern::Irregular => 0.125,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acc_kernel_ir::{BufId, Expr, LocalId, RmwOp, Stmt};

    #[test]
    fn classifies_read_write_modes() {
        // buf0: read; buf1: written; buf2: read+write; buf3: atomic
        let body = vec![
            Stmt::Assign {
                local: LocalId(0),
                value: Expr::load(BufId(0), Expr::ThreadIdx),
            },
            Stmt::Store {
                buf: BufId(1),
                idx: Expr::ThreadIdx,
                value: Expr::load(BufId(2), Expr::ThreadIdx),
                dirty: false,
                checked: false,
            },
            Stmt::Store {
                buf: BufId(2),
                idx: Expr::ThreadIdx,
                value: Expr::imm_i32(0),
                dirty: false,
                checked: false,
            },
            Stmt::AtomicRmw {
                buf: BufId(3),
                idx: Expr::imm_i32(0),
                op: RmwOp::Add,
                value: Expr::imm_i32(1),
            },
        ];
        let u = analyze_body(&body, 4);
        assert_eq!(u[0].mode(), Some(AccessMode::Read));
        assert_eq!(u[1].mode(), Some(AccessMode::Write));
        assert_eq!(u[2].mode(), Some(AccessMode::ReadWrite));
        assert_eq!(u[3].mode(), Some(AccessMode::Write));
        assert!(u[3].atomics);
    }

    #[test]
    fn unused_buffer_has_no_mode() {
        let u = analyze_body(&[], 1);
        assert_eq!(u[0].mode(), None);
    }

    #[test]
    fn store_affinity_detected() {
        // out[3*tid + 1] = 0; out[1 - tid] = 0
        let store = |idx| Stmt::Store {
            buf: BufId(0),
            idx,
            value: Expr::imm_i32(0),
            dirty: false,
            checked: false,
        };
        let body = vec![
            store(Expr::add(
                Expr::mul(Expr::imm_i32(3), Expr::ThreadIdx),
                Expr::imm_i32(1),
            )),
            store(Expr::sub(Expr::imm_i32(1), Expr::ThreadIdx)),
        ];
        let u = analyze_body(&body, 1);
        assert_eq!(
            u[0].store_sites,
            [AccessPattern::Strided(3), AccessPattern::Coalesced]
        );
        assert_eq!(u[0].write_pattern(), AccessPattern::Strided(3));
        assert_eq!(u[0].read_pattern(), AccessPattern::Coalesced);
    }

    #[test]
    fn irregular_store_not_provable() {
        let body = vec![Stmt::Store {
            buf: BufId(0),
            idx: Expr::load(BufId(1), Expr::ThreadIdx),
            value: Expr::imm_i32(0),
            dirty: false,
            checked: false,
        }];
        let u = analyze_body(&body, 2);
        assert_eq!(u[0].write_pattern(), AccessPattern::Irregular);
        assert_eq!(u[1].read_pattern(), AccessPattern::Coalesced);
    }

    #[test]
    fn equally_slow_sites_resolve_to_the_first() {
        // `Irregular` and `StridedDyn` price alike: the store comes first.
        let u = BufUsage {
            store_sites: vec![AccessPattern::Coalesced, AccessPattern::Irregular],
            atomic_sites: vec![AccessPattern::StridedDyn],
            load_sites: vec![AccessPattern::StridedDyn, AccessPattern::Irregular],
            ..BufUsage::default()
        };
        assert_eq!(u.write_pattern(), AccessPattern::Irregular);
        assert_eq!(u.read_pattern(), AccessPattern::StridedDyn);
    }

    #[test]
    fn loads_inside_loops_are_classified() {
        // while (...) { t = x[tid*8]; }
        let body = vec![Stmt::While {
            cond: Expr::Imm(acc_kernel_ir::Value::Bool(false)),
            body: vec![Stmt::Assign {
                local: LocalId(0),
                value: Expr::load(BufId(0), Expr::mul(Expr::ThreadIdx, Expr::imm_i32(8))),
            }],
        }];
        let u = analyze_body(&body, 1);
        assert_eq!(u[0].load_sites, [AccessPattern::Strided(8)]);
        assert_eq!(u[0].read_pattern(), AccessPattern::Strided(8));
        assert!(u[0].all_loads_affine());
    }

    #[test]
    fn efficiency_constants_ordered() {
        assert!(pattern_efficiency(AccessPattern::Coalesced) > pattern_efficiency(AccessPattern::Strided(4)));
        assert!(
            pattern_efficiency(AccessPattern::Strided(4))
                > pattern_efficiency(AccessPattern::Strided(32))
        );
        assert_eq!(
            pattern_efficiency(AccessPattern::Strided(64)),
            pattern_efficiency(AccessPattern::Strided(32))
        );
        assert!(pattern_efficiency(AccessPattern::Irregular) <= 0.25);
    }
}
