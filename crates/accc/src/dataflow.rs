//! Inter-launch communication elision (the whole-program half of the
//! dataflow analysis).
//!
//! After every kernel wave the runtime reconciles the replicas of each
//! replicated, written array (the comm phase). That sync is *observable*
//! only if some GPU later reads bytes another GPU wrote. This module
//! proves, per array, that no GPU can ever observe a peer's write
//! before the next host-visible synchronization point, and records the
//! proof as a per-launch [`ElideFact`] the runtime uses to skip the
//! replica sync and dirty-bit scan.
//!
//! The predicate is whole-program and per-array. Array `a` is elidable
//! when:
//!
//! 1. every kernel accessing `a` keeps it **replicated** (distributed
//!    arrays have no replica sync to elide);
//! 2. some kernel writes it (otherwise there is nothing to skip);
//! 3. every accessing launch has **syntactically identical** iteration
//!    bounds, built only from host locals that are never reassigned —
//!    so with the default equal-split schedule every launch partitions
//!    the iteration space identically;
//! 4. a **common partition stride** `S` exists (from
//!    [`crate::config::ArrayConfig::own_strides`]) under which *every*
//!    access of `a`, in *every* accessing kernel, provably stays inside
//!    the iteration's own partition `[S*i, S*(i+1) - 1]` — so GPU `g`
//!    only ever touches `[S*lo_g, S*hi_g)`, which holds its own writes
//!    and otherwise the initial load;
//! 5. `a` is never the target of an `update device` and is never stored
//!    by host code while device-present (either would make the host the
//!    writer of record mid-region, invalidating the replica-divergence
//!    bookkeeping the runtime's deferred-sync paths rely on).
//!
//! Host-visible sync points (region exit copy-out, `update host`) are
//! *not* analyzed away: the runtime keeps per-GPU dirty runs armed and
//! materializes the merged image lazily there (see `acc-runtime`).
//! Under `SanitizeLevel::Full` the runtime re-arms the skipped sync and
//! audits every dirty run against the static claim `[S*lo_g, S*hi_g)`.

use std::collections::{BTreeMap, BTreeSet};

use acc_kernel_ir as ir;

use crate::config::Placement;
use crate::depend::value_uniform;
use crate::hostgen::{clause_arrays, HostOp};
use crate::CompiledKernel;

/// The static proof that one launch's replica sync for one buffer may
/// be skipped.
#[derive(Debug, Clone, PartialEq)]
pub struct ElideFact {
    /// Host-frame partition stride: GPU `g` running iterations
    /// `[lo_g, hi_g)` claims exactly elements `[S*lo_g, S*hi_g)`.
    pub stride: ir::Expr,
    /// Human-readable proof summary (reports, `--explain`).
    pub reason: String,
}

/// Per-launch, per-buffer comm-elision facts for one compiled program;
/// `kernels[k][kbuf]` is `Some` when the replica sync of kernel `k`'s
/// buffer `kbuf` is statically proven unobservable.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CommPlan {
    pub kernels: Vec<Vec<Option<ElideFact>>>,
}

impl CommPlan {
    /// An all-`None` plan shaped like `kernels`.
    pub fn empty(kernels: &[CompiledKernel]) -> CommPlan {
        CommPlan {
            kernels: kernels.iter().map(|k| vec![None; k.configs.len()]).collect(),
        }
    }

    /// The fact for one launch × kernel-buffer, if any.
    pub fn fact(&self, kernel: usize, kbuf: usize) -> Option<&ElideFact> {
        self.kernels.get(kernel)?.get(kbuf)?.as_ref()
    }

    /// Total number of elision facts in the plan.
    pub fn n_facts(&self) -> usize {
        self.kernels
            .iter()
            .map(|k| k.iter().filter(|f| f.is_some()).count())
            .sum()
    }
}

/// The static proof that one launch's halo fill for one distributed
/// buffer may be double-buffered: priced concurrently with the same
/// launch's compute instead of on the loader critical path.
///
/// The premise is the boundary-last schedule: each GPU's interior
/// iterations touch only its own partition, so while the freshly
/// fetched halo is in flight the GPU has interior work to run, and the
/// halo bytes are only needed by the boundary iterations scheduled
/// last. That is performance-realistic exactly when
///
/// 1. the array is **distributed** with a declared (or inferred)
///    `localaccess` halo window — so the halo region is statically
///    known and the fill is a bounded edge exchange, not a gather;
/// 2. every kernel×array verdict in the launch is **race-free**
///    ([`crate::DependVerdict::race_free`]) *or* a carried dependence
///    the distance analysis proved local
///    ([`crate::config::ArrayLint::carried_fits_halo`]) — no cross-GPU
///    write conflict can force an early synchronization, and every
///    carried value lands inside the halo exchange;
/// 3. the kernel does **not write** the array, *or* writes it under a
///    halo-fitting `CarriedLocal` verdict — then the double-buffered
///    halo holds exactly the carried values, so the fill still commutes
///    with interior compute under the wavefront GPU order.
///
/// Functionally nothing moves: the runtime still performs the fill
/// before the kernel's functional execution, so arrays are
/// unconditionally bit-identical; the fact only licenses the pricing
/// overlap, and `SanitizeLevel::Full` re-arms the synchronous path.
#[derive(Debug, Clone, PartialEq)]
pub struct OverlapFact {
    /// Human-readable proof summary (reports, traces).
    pub reason: String,
}

/// Per-launch, per-buffer overlap-safety facts; `kernels[k][kbuf]` is
/// `Some` when kernel `k`'s halo fill of buffer `kbuf` may overlap the
/// same wave's compute.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OverlapPlan {
    pub kernels: Vec<Vec<Option<OverlapFact>>>,
}

impl OverlapPlan {
    /// An all-`None` plan shaped like `kernels`.
    pub fn empty(kernels: &[CompiledKernel]) -> OverlapPlan {
        OverlapPlan {
            kernels: kernels.iter().map(|k| vec![None; k.configs.len()]).collect(),
        }
    }

    /// The fact for one launch × kernel-buffer, if any.
    pub fn fact(&self, kernel: usize, kbuf: usize) -> Option<&OverlapFact> {
        self.kernels.get(kernel)?.get(kbuf)?.as_ref()
    }

    /// Total number of overlap facts in the plan.
    pub fn n_facts(&self) -> usize {
        self.kernels
            .iter()
            .map(|k| k.iter().filter(|f| f.is_some()).count())
            .sum()
    }
}

/// True when this kernel×array's verdict cannot force an early
/// cross-GPU synchronization: race-free, or a carried dependence whose
/// proved distance fits the declared halo (and no load escapes the
/// declared window, which would invalidate the halo claim).
fn overlap_benign(cfg: &crate::config::ArrayConfig) -> bool {
    cfg.lint.verdict.race_free()
        || (cfg.lint.carried_fits_halo() && cfg.lint.window_violations == 0)
}

/// Derive the overlap-safety facts for every launch.
pub fn overlap_plan(kernels: &[CompiledKernel]) -> OverlapPlan {
    let mut plan = OverlapPlan::empty(kernels);
    for (ki, k) in kernels.iter().enumerate() {
        // Any racy verdict in the launch defeats overlap for the whole
        // wave: the scheduler can no longer reorder boundary work last.
        // A halo-fitting CarriedLocal verdict is benign — the wavefront
        // GPU order serializes exactly the carried values.
        if !k.configs.iter().all(overlap_benign) {
            continue;
        }
        for (kbuf, cfg) in k.configs.iter().enumerate() {
            if cfg.placement != Placement::Distributed || cfg.localaccess.is_none() {
                continue;
            }
            let carried_fits =
                cfg.lint.carried_fits_halo() && cfg.lint.window_violations == 0;
            if cfg.mode.writes() && !carried_fits {
                continue;
            }
            let basis = if cfg.mode.writes() {
                "written under a carried dependence proved to fit the \
                 double-buffered halo (wavefront GPU order)"
            } else {
                "read-only in this launch"
            };
            plan.kernels[ki][kbuf] = Some(OverlapFact {
                reason: format!(
                    "halo fill of `{}` may overlap kernel `{}`'s compute: \
                     distributed with a declared halo window, {basis}, every \
                     verdict race-free or carried-local (boundary-last \
                     schedule)",
                    cfg.name, k.kernel.name
                ),
            });
        }
    }
    plan
}

/// True when every written, distributed array of the kernel carries a
/// halo-fitting [`crate::DependVerdict::CarriedLocal`] verdict and
/// nothing else in the wave is racy: the premise under which the
/// runtime may pick a [`wavefront`] schedule (sequential GPU order with
/// predecessor boundary forwarding) and still produce arrays
/// bit-identical to the 1-GPU run.
///
/// [`wavefront`]: https://en.wikipedia.org/wiki/Wavefront_parallelism
pub fn wavefront_eligible(k: &CompiledKernel) -> bool {
    let mut any_carried = false;
    for cfg in &k.configs {
        if !overlap_benign(cfg) {
            return false;
        }
        if cfg.lint.verdict.carried_distance().is_some() {
            // Carried arrays must be distributed with the halo declared:
            // the forwarding region is the halo itself.
            if cfg.placement != Placement::Distributed || cfg.localaccess.is_none() {
                return false;
            }
            any_carried = true;
        }
    }
    any_carried
}

/// Run the whole-program analysis over the launch sequence.
pub fn comm_plan(kernels: &[CompiledKernel], host: &[HostOp]) -> CommPlan {
    let mut plan = CommPlan::empty(kernels);
    if kernels.is_empty() {
        return plan;
    }
    let assigned = host_assigned_locals(host, kernels);
    let mut walk = HostWalk {
        present: Vec::new(),
        update_device: BTreeSet::new(),
        host_stored_present: BTreeSet::new(),
    };
    walk.walk(host);

    // Program array -> accessing (kernel, kbuf) sites.
    let mut by_array: BTreeMap<usize, Vec<(usize, usize)>> = BTreeMap::new();
    for (ki, k) in kernels.iter().enumerate() {
        for (kbuf, &arr) in k.buf_map.iter().enumerate() {
            by_array.entry(arr).or_default().push((ki, kbuf));
        }
    }

    'arrays: for (arr, uses) in &by_array {
        if walk.update_device.contains(arr) || walk.host_stored_present.contains(arr) {
            continue;
        }
        let mut any_writer = false;
        for &(ki, kbuf) in uses {
            let cfg = &kernels[ki].configs[kbuf];
            if cfg.placement != Placement::Replicated {
                continue 'arrays;
            }
            any_writer |= cfg.mode.writes();
        }
        if !any_writer {
            continue;
        }
        // Identical, stable iteration bounds across every accessing launch.
        let (lo0, hi0) = (&kernels[uses[0].0].lo, &kernels[uses[0].0].hi);
        if !value_uniform(lo0, &assigned) || !value_uniform(hi0, &assigned) {
            continue;
        }
        for &(ki, _) in uses {
            if kernels[ki].lo != *lo0 || kernels[ki].hi != *hi0 {
                continue 'arrays;
            }
        }
        // A common, stable own-partition stride across every accessing kernel.
        let mut common: Option<Vec<ir::Expr>> = None;
        for &(ki, kbuf) in uses {
            let own = &kernels[ki].configs[kbuf].own_strides;
            common = Some(match common {
                None => own.clone(),
                Some(c) => c.into_iter().filter(|e| own.contains(e)).collect(),
            });
        }
        let Some(stride) = common
            .unwrap_or_default()
            .into_iter()
            .find(|e| value_uniform(e, &assigned))
        else {
            continue;
        };
        let name = &kernels[uses[0].0].configs[uses[0].1].name;
        let reason = format!(
            "every access of `{name}` stays in the owner partition in all \
             {} accessing launch(es) (common stride, identical bounds); \
             no update-device or device-present host store"
        , uses.len());
        for &(ki, kbuf) in uses {
            if kernels[ki].configs[kbuf].needs_replica_sync() {
                plan.kernels[ki][kbuf] = Some(ElideFact {
                    stride: stride.clone(),
                    reason: reason.clone(),
                });
            }
        }
    }
    plan
}

/// Every host local that can change between launches: targets of host
/// `Assign` statements plus scalar-reduction merge targets.
fn host_assigned_locals(host: &[HostOp], kernels: &[CompiledKernel]) -> BTreeSet<ir::LocalId> {
    let mut out = BTreeSet::new();
    fn walk(ops: &[HostOp], out: &mut BTreeSet<ir::LocalId>) {
        for op in ops {
            match op {
                HostOp::Plain(stmt) => {
                    stmt.visit(&mut |s| {
                        if let ir::Stmt::Assign { local, .. } = s {
                            out.insert(*local);
                        }
                    });
                }
                HostOp::If { then_, else_, .. } => {
                    walk(then_, out);
                    walk(else_, out);
                }
                HostOp::While { body, .. } | HostOp::Region { body, .. } => walk(body, out),
                _ => {}
            }
        }
    }
    walk(host, &mut out);
    for k in kernels {
        out.extend(k.red_targets.iter().copied());
    }
    out
}

/// Walk collecting `update device` targets and arrays stored by host
/// code while device-present.
struct HostWalk {
    /// Arrays of the enclosing data regions, innermost last.
    present: Vec<BTreeSet<usize>>,
    update_device: BTreeSet<usize>,
    host_stored_present: BTreeSet<usize>,
}

impl HostWalk {
    fn walk(&mut self, ops: &[HostOp]) {
        for op in ops {
            match op {
                HostOp::Region { clauses, body } => {
                    self.present.push(clause_arrays(clauses).collect());
                    self.walk(body);
                    self.present.pop();
                }
                HostOp::Update { to_device, .. } => {
                    self.update_device.extend(to_device.iter().map(|s| s.array));
                }
                HostOp::Plain(stmt) => {
                    stmt.visit(&mut |s| {
                        if let ir::Stmt::Store { buf, .. } | ir::Stmt::AtomicRmw { buf, .. } = s {
                            let arr = buf.0 as usize;
                            if self.present.iter().any(|a| a.contains(&arr)) {
                                self.host_stored_present.insert(arr);
                            }
                        }
                    });
                }
                HostOp::If { then_, else_, .. } => {
                    self.walk(then_);
                    self.walk(else_);
                }
                HostOp::While { body, .. } => self.walk(body),
                HostOp::Launch { .. } | HostOp::Return => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile_source, CompileOptions};

    fn plan_of(src: &str) -> (crate::CompiledProgram, CommPlan) {
        let p = compile_source(src, "f", &CompileOptions::proposal()).unwrap();
        let plan = p.comm_plan.clone();
        (p, plan)
    }

    #[test]
    fn own_partition_writes_and_reads_are_elided() {
        // Two launches; `y` is written then read, both strictly at `[i]`.
        let (p, plan) = plan_of(
            "void f(int n, int iters, double *x, double *y, double *z) {\n\
             int t;\n\
             t = 0;\n\
             #pragma acc data copyin(x[0:n]) copy(y[0:n], z[0:n])\n\
             {\n\
             while (t < iters) {\n\
             #pragma acc parallel loop\n\
             for (int i = 0; i < n; i++) y[i] = x[i] + 1.0;\n\
             #pragma acc parallel loop\n\
             for (int i = 0; i < n; i++) z[i] = y[i] * 2.0;\n\
             t = t + 1;\n\
             }\n\
             }\n\
             }",
        );
        let y = p.array_index("y").unwrap();
        let z = p.array_index("z").unwrap();
        // y written by kernel 0 (kbuf of y in kernel 0).
        let ky = p.kernels[0].buf_map.iter().position(|&a| a == y).unwrap();
        let kz = p.kernels[1].buf_map.iter().position(|&a| a == z).unwrap();
        assert!(plan.fact(0, ky).is_some(), "{plan:?}");
        assert!(plan.fact(1, kz).is_some(), "{plan:?}");
        assert_eq!(
            plan.fact(0, ky).unwrap().stride,
            acc_kernel_ir::Expr::imm_i32(1)
        );
        assert_eq!(plan.n_facts(), 2);
    }

    #[test]
    fn halo_read_defeats_elision() {
        // The second launch reads y[i+1]: GPU g observes GPU g+1's write.
        let (_, plan) = plan_of(
            "void f(int n, double *x, double *y) {\n\
             #pragma acc data copyin(x[0:n]) copy(y[0:n])\n\
             {\n\
             #pragma acc parallel loop\n\
             for (int i = 0; i < n - 1; i++) y[i] = x[i];\n\
             #pragma acc parallel loop\n\
             for (int i = 0; i < n - 1; i++) y[i] = y[i] + y[i + 1];\n\
             }\n\
             }",
        );
        assert_eq!(plan.n_facts(), 0, "{plan:?}");
    }

    #[test]
    fn differing_bounds_defeat_elision() {
        let (_, plan) = plan_of(
            "void f(int n, double *y) {\n\
             #pragma acc data copy(y[0:n])\n\
             {\n\
             #pragma acc parallel loop\n\
             for (int i = 0; i < n; i++) y[i] = 1.0;\n\
             #pragma acc parallel loop\n\
             for (int i = 0; i < n - 1; i++) y[i] = y[i] * 2.0;\n\
             }\n\
             }",
        );
        assert_eq!(plan.n_facts(), 0, "{plan:?}");
    }

    #[test]
    fn update_device_defeats_elision() {
        let (_, plan) = plan_of(
            "void f(int n, double *y) {\n\
             #pragma acc data copy(y[0:n])\n\
             {\n\
             #pragma acc parallel loop\n\
             for (int i = 0; i < n; i++) y[i] = 1.0;\n\
             #pragma acc update device(y[0:n])\n\
             }\n\
             }",
        );
        assert_eq!(plan.n_facts(), 0, "{plan:?}");
    }

    #[test]
    fn device_present_host_store_defeats_elision() {
        let (_, plan) = plan_of(
            "void f(int n, double *y) {\n\
             #pragma acc data copy(y[0:n])\n\
             {\n\
             #pragma acc parallel loop\n\
             for (int i = 0; i < n; i++) y[i] = 1.0;\n\
             y[0] = 7.0;\n\
             }\n\
             }",
        );
        assert_eq!(plan.n_facts(), 0, "{plan:?}");
    }

    #[test]
    fn scatter_write_defeats_elision() {
        let (_, plan) = plan_of(
            "void f(int n, int *m, int *y) {\n\
             #pragma acc parallel loop copyin(m[0:n]) copy(y[0:n])\n\
             for (int i = 0; i < n; i++) y[m[i]] = 1;\n\
             }",
        );
        assert_eq!(plan.n_facts(), 0, "{plan:?}");
    }

    #[test]
    fn unstable_bound_defeats_elision() {
        // `n` is reassigned between launches: partitions may differ.
        let (_, plan) = plan_of(
            "void f(int n, double *y) {\n\
             #pragma acc data copy(y[0:n])\n\
             {\n\
             #pragma acc parallel loop\n\
             for (int i = 0; i < n; i++) y[i] = 1.0;\n\
             n = n - 1;\n\
             #pragma acc parallel loop\n\
             for (int i = 0; i < n; i++) y[i] = y[i] + 1.0;\n\
             }\n\
             }",
        );
        assert_eq!(plan.n_facts(), 0, "{plan:?}");
    }

    #[test]
    fn overlap_fact_for_read_only_distributed_halo() {
        // A 1-D stencil: `a` is distributed with a declared halo and
        // only read — its halo fill may overlap the wave's compute.
        // `b` is written, so it gets no fact.
        let p = compile_source(
            "void f(int n, double *a, double *b) {\n\
             #pragma acc data copyin(a[0:n]) copy(b[0:n])\n\
             {\n\
             #pragma acc localaccess(a) stride(1) left(1) right(1)\n\
             #pragma acc localaccess(b) stride(1)\n\
             #pragma acc parallel loop\n\
             for (int i = 1; i < n - 1; i++) b[i] = a[i - 1] + a[i + 1];\n\
             }\n\
             }",
            "f",
            &CompileOptions::proposal(),
        )
        .unwrap();
        let plan = &p.overlap_plan;
        assert_eq!(plan.n_facts(), 1, "{plan:?}");
        let a = p.array_index("a").unwrap();
        let ka = p.kernels[0].buf_map.iter().position(|&x| x == a).unwrap();
        let fact = plan.fact(0, ka).unwrap();
        assert!(fact.reason.contains("halo fill of `a`"), "{}", fact.reason);
    }

    #[test]
    fn racy_wave_defeats_overlap() {
        // The scatter write `y[m[i]]` has an Unknown verdict, which
        // defeats overlap for every array in the wave — including the
        // distributed read-only `a`.
        let p = compile_source(
            "void f(int n, int *m, int *a, int *y) {\n\
             #pragma acc localaccess(a) stride(1) left(1) right(1)\n\
             #pragma acc parallel loop copyin(m[0:n], a[0:n]) copy(y[0:n])\n\
             for (int i = 1; i < n - 1; i++) y[m[i]] = a[i - 1] + a[i + 1];\n\
             }",
            "f",
            &CompileOptions::proposal(),
        )
        .unwrap();
        assert_eq!(p.overlap_plan.n_facts(), 0, "{:?}", p.overlap_plan);
    }

    #[test]
    fn carried_local_written_array_gets_overlap_fact() {
        // In-place first-order recurrence: `y` is written AND read at
        // distance 1, which fits the declared left(1) halo — the
        // CarriedLocal verdict now licenses overlap and wavefront.
        let p = compile_source(
            "void f(int n, double *y) {\n\
             #pragma acc localaccess(y) stride(1) left(1)\n\
             #pragma acc parallel loop copy(y[0:n])\n\
             for (int i = 1; i < n; i++) y[i] = y[i - 1] + 1.0;\n\
             }",
            "f",
            &CompileOptions::proposal(),
        )
        .unwrap();
        let plan = &p.overlap_plan;
        assert_eq!(plan.n_facts(), 1, "{plan:?}");
        let y = p.array_index("y").unwrap();
        let ky = p.kernels[0].buf_map.iter().position(|&x| x == y).unwrap();
        let fact = plan.fact(0, ky).unwrap();
        assert!(fact.reason.contains("wavefront"), "{}", fact.reason);
        assert!(wavefront_eligible(&p.kernels[0]), "{:?}", p.kernels[0].configs);
    }

    #[test]
    fn carried_distance_exceeding_halo_defeats_overlap_and_wavefront() {
        // Distance 2 against a 1-window halo: the carried value never
        // reaches the neighbor's halo, so neither overlap nor wavefront
        // is licensed.
        let p = compile_source(
            "void f(int n, double *y) {\n\
             #pragma acc localaccess(y) stride(1) left(1)\n\
             #pragma acc parallel loop copy(y[0:n])\n\
             for (int i = 2; i < n; i++) y[i] = y[i - 2] + 1.0;\n\
             }",
            "f",
            &CompileOptions::proposal(),
        )
        .unwrap();
        assert_eq!(p.overlap_plan.n_facts(), 0, "{:?}", p.overlap_plan);
        assert!(!wavefront_eligible(&p.kernels[0]));
    }

    #[test]
    fn race_free_kernels_are_not_wavefront_eligible() {
        // No carried dependence at all → nothing to pipeline; the plain
        // parallel schedule is strictly better.
        let p = compile_source(
            "void f(int n, double *a, double *b) {\n\
             #pragma acc localaccess(a) stride(1) left(1) right(1)\n\
             #pragma acc localaccess(b) stride(1)\n\
             #pragma acc parallel loop copyin(a[0:n]) copy(b[0:n])\n\
             for (int i = 1; i < n - 1; i++) b[i] = a[i - 1] + a[i + 1];\n\
             }",
            "f",
            &CompileOptions::proposal(),
        )
        .unwrap();
        assert!(!wavefront_eligible(&p.kernels[0]));
    }

    #[test]
    fn replicated_arrays_get_no_overlap_facts() {
        // No localaccess → replicated → loads are whole-array, not a
        // bounded halo exchange.
        let p = compile_source(
            "void f(int n, double *a, double *b) {\n\
             #pragma acc parallel loop copyin(a[0:n]) copy(b[0:n])\n\
             for (int i = 0; i < n; i++) b[i] = a[i];\n\
             }",
            "f",
            &CompileOptions::proposal(),
        )
        .unwrap();
        assert_eq!(p.overlap_plan.n_facts(), 0, "{:?}", p.overlap_plan);
    }

    #[test]
    fn distributed_arrays_have_no_facts() {
        let (_, plan) = plan_of(
            "void f(int n, double *y) {\n\
             #pragma acc localaccess(y) stride(1)\n\
             #pragma acc parallel loop copy(y[0:n])\n\
             for (int i = 0; i < n; i++) y[i] = 1.0;\n\
             }",
        );
        assert_eq!(plan.n_facts(), 0, "{plan:?}");
    }
}
