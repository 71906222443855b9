//! The communication manager's one functional path — host-parallel,
//! slice-based replica sync, miss replay and reduction merge — held
//! against pure-Rust oracles that share no code with it: the BSP rule
//! for replica sync (every GPU runs its equal-division range on its own
//! replica; the lowest-indexed GPU that wrote an element wins), the
//! sequential loop for miss replay, and the sequential histogram for
//! the reduction merges. Fixed regressions and randomized dirty
//! patterns, miss shapes and reduction inputs.

use acc_compiler::{compile_source, CompileOptions};
use acc_gpusim::Machine;
use acc_kernel_ir::{Buffer, Ty, Value};
use acc_obs::{Event, TraceLevel};
use acc_runtime::{run_program, ExecConfig, RunError, RunReport, SanitizeLevel};
use proptest::prelude::*;

fn run_with(
    src: &str,
    func: &str,
    ngpus: usize,
    scalars: Vec<Value>,
    arrays: Vec<Buffer>,
) -> RunReport {
    // 3 GPUs
    run_on(
        Machine::supercomputer_node(),
        src,
        func,
        ngpus,
        scalars,
        arrays,
    )
}

fn run_on(
    mut m: Machine,
    src: &str,
    func: &str,
    ngpus: usize,
    scalars: Vec<Value>,
    arrays: Vec<Buffer>,
) -> RunReport {
    let prog = compile_source(src, func, &CompileOptions::proposal()).unwrap();
    let cfg = ExecConfig::gpus(ngpus).tracing(TraceLevel::Spans);
    run_program(&mut m, &cfg, &prog, scalars, arrays).unwrap()
}

/// One launch under the BSP rule replica sync must implement: GPU `g`
/// runs its share of the equal division of `0..iters` (the first
/// `iters % ngpus` GPUs one iteration more) sequentially on its own
/// replica of `a`; iteration `i` stores `store(replica, i) = (element,
/// value)`. Afterwards every element holds the value of the
/// lowest-indexed GPU that wrote it, or its old value.
fn bsp_launch(
    a: &mut [i32],
    iters: usize,
    ngpus: usize,
    store: impl Fn(&[i32], usize) -> (usize, i32),
) {
    let mut synced = a.to_vec();
    let mut won = vec![false; a.len()];
    let mut lo = 0;
    for g in 0..ngpus {
        let hi = lo + iters / ngpus + usize::from(g < iters % ngpus);
        let mut replica = a.to_vec();
        let mut wrote = vec![false; a.len()];
        for i in lo..hi {
            let (e, v) = store(&replica, i);
            replica[e] = v;
            wrote[e] = true;
        }
        for e in 0..a.len() {
            if wrote[e] && !won[e] {
                synced[e] = replica[e];
                won[e] = true;
            }
        }
        lo = hi;
    }
    a.copy_from_slice(&synced);
}

/// The sequential loop of [`SHIFT`]: `dst[(i + off) % n] = src[i]`.
fn shifted(src: &[f64], off: usize) -> Vec<f64> {
    let mut dst = vec![0.0; src.len()];
    for (i, &v) in src.iter().enumerate() {
        dst[(i + off) % src.len()] = v;
    }
    dst
}

/// The sequential loop of [`HIST_ADD`] / [`HIST_MIN`] over `base`.
fn histogram(base: &[f64], keys: &[i32], w: &[f64], op: fn(f64, f64) -> f64) -> Vec<f64> {
    let mut bins = base.to_vec();
    for (&k, &x) in keys.iter().zip(w) {
        bins[k as usize] = op(bins[k as usize], x);
    }
    bins
}

/// Replicated scatter: every GPU dirties chunks, replica sync reconciles.
const SCATTER: &str = "void scat(int n, int iters, int *idx, int *flags) {\n\
#pragma acc data copyin(idx[0:n]) copy(flags[0:n])\n\
{\n\
int t = 0;\n\
while (t < iters) {\n\
#pragma acc localaccess(idx) stride(1)\n\
#pragma acc parallel loop\n\
for (int i = 0; i < n; i++) flags[idx[i]] = flags[idx[i]] + 1;\n\
t = t + 1;\n\
}\n\
}\n\
}";

/// Distributed shifted write: out-of-partition stores buffer miss records.
const SHIFT: &str = "void shift(int n, int off, double *src, double *dst) {\n\
#pragma acc data copyin(src[0:n]) copy(dst[0:n])\n\
{\n\
#pragma acc localaccess(src) stride(1)\n\
#pragma acc localaccess(dst) stride(1)\n\
#pragma acc parallel loop\n\
for (int i = 0; i < n; i++) {\n\
int j = i + off;\n\
if (j >= n) j = j - n;\n\
dst[j] = src[i];\n\
}\n\
}\n\
}";

/// Histogram into a reduction-private array: binary-tree merge on +.
const HIST_ADD: &str = "void hist(int n, int k, int *keys, double *w, double *bins) {\n\
#pragma acc data copyin(keys[0:n], w[0:n]) copy(bins[0:k])\n\
{\n\
#pragma acc localaccess(keys) stride(1)\n\
#pragma acc localaccess(w) stride(1)\n\
#pragma acc parallel loop\n\
for (int i = 0; i < n; i++) {\n\
#pragma acc reductiontoarray(+: bins[k])\n\
bins[keys[i]] += w[i];\n\
}\n\
}\n\
}";

/// Same shape on min, exercising the float compare lanes of the slice merge.
const HIST_MIN: &str = "void hmin(int n, int k, int *keys, double *w, double *bins) {\n\
#pragma acc data copyin(keys[0:n], w[0:n]) copy(bins[0:k])\n\
{\n\
#pragma acc localaccess(keys) stride(1)\n\
#pragma acc localaccess(w) stride(1)\n\
#pragma acc parallel loop\n\
for (int i = 0; i < n; i++) {\n\
#pragma acc reductiontoarray(min: bins[k])\n\
bins[keys[i]] = fmin(bins[keys[i]], w[i]);\n\
}\n\
}\n\
}";

// ---------------------------------------------------------------------
// Fixed regressions.
// ---------------------------------------------------------------------

/// The `CommRound::start` timestamp used to be `pair_start.min(pair_end)`
/// — with `pair_start` initialised to +INFINITY, a round that somehow
/// priced no transfers would get a fabricated start instead of failing
/// loudly. Now every emitted round carries the true start of its first
/// transfer: finite, equal to the earliest matching sync span, and never
/// with zero chunks.
#[test]
fn comm_rounds_report_true_transfer_starts() {
    let n = 30_000usize;
    let idx: Vec<i32> = (0..n)
        .map(|i| ((i as u64).wrapping_mul(2654435761) % n as u64) as i32)
        .collect();
    let r = run_with(
        SCATTER,
        "scat",
        3,
        vec![Value::I32(n as i32), Value::I32(3)],
        vec![Buffer::from_i32(&idx), Buffer::zeroed(Ty::I32, n)],
    );
    let mut rounds = 0usize;
    for ev in r.trace.events() {
        if let Event::Comm(round) = ev {
            rounds += 1;
            assert!(round.chunks > 0, "round with no chunks was emitted");
            assert!(round.start.is_finite(), "round start is not a real time");
            assert!(round.start <= round.end);
            // The round's start is the start of its earliest sync
            // transfer between the same pair in the same launch.
            let earliest = r
                .trace
                .events()
                .iter()
                .filter_map(|e| match e {
                    Event::Transfer(t)
                        if t.why == "sync"
                            && t.src == Some(round.src)
                            && t.dst == Some(round.dst) =>
                    {
                        Some(t.start)
                    }
                    _ => None,
                })
                .filter(|&s| s >= round.start - 1e-12 && s <= round.end)
                .fold(f64::INFINITY, f64::min);
            assert_eq!(
                round.start, earliest,
                "round {}->{} start is not its first transfer's start",
                round.src, round.dst
            );
        }
    }
    assert!(rounds > 0, "scatter on 3 GPUs must produce comm rounds");
}

/// More GPUs than iterations: trailing GPUs own an empty `(lo, lo)`
/// partition. Routing must skip them — both when they could never own a
/// missed element and when a GPU with zero iterations produces no
/// records at all.
#[test]
fn replay_with_more_gpus_than_iterations() {
    let n = 2i32; // 3 GPUs, 2 iterations: GPU 2 owns nothing
    let src = vec![10.0f64, 20.0];
    let expect = vec![20.0f64, 10.0]; // shift by 1, wrap
    let r = run_with(
        SHIFT,
        "shift",
        3,
        vec![Value::I32(n), Value::I32(1)],
        vec![Buffer::from_f64(&src), Buffer::zeroed(Ty::F64, 2)],
    );
    assert_eq!(r.arrays[1].to_f64_vec(), expect);
    assert_eq!(expect, shifted(&src, 1));
    assert!(r.profile.miss_records > 0, "cross-partition writes missed");
}

/// A write-miss record whose destination index is outside every GPU's
/// owned range must surface as `MissOutsideCoverage`.
#[test]
fn miss_outside_coverage_is_reported() {
    // dst[2*i] for i < n runs past the end of dst for i >= (n+1)/2.
    let src = "void f(int n, double *a, double *dst) {\n\
#pragma acc data copyin(a[0:n]) copy(dst[0:n])\n\
{\n\
#pragma acc localaccess(a) stride(1)\n\
#pragma acc localaccess(dst) stride(1)\n\
#pragma acc parallel loop\n\
for (int i = 0; i < n; i++) dst[2*i] = a[i];\n\
}\n\
}";
    let prog = compile_source(src, "f", &CompileOptions::proposal()).unwrap();
    let mut m = Machine::supercomputer_node();
    let err = run_program(
        &mut m,
        &ExecConfig::gpus(2),
        &prog,
        vec![Value::I32(8)],
        vec![Buffer::from_f64(&[1.0; 8]), Buffer::zeroed(Ty::F64, 8)],
    )
    .unwrap_err();
    assert!(
        matches!(err, RunError::MissOutsideCoverage { .. }),
        "got {err}"
    );
}

/// Every GPU loads the whole of `a` but writes only its own rows, so the
/// second launch refills each GPU from every peer.
const REFILL: &str = "void refill(int n, double *a, double *b) {\n\
#pragma acc data copy(a[0:n]) copyout(b[0:n])\n\
{\n\
#pragma acc localaccess(a) stride(1) left(n) right(n)\n\
#pragma acc parallel loop\n\
for (int i = 0; i < n; i++) a[i] = a[i] + 1.0;\n\
#pragma acc localaccess(a) stride(1) left(n) right(n)\n\
#pragma acc localaccess(b) stride(1)\n\
#pragma acc parallel loop\n\
for (int i = 0; i < n; i++) b[i] = a[n - 1 - i];\n\
}\n\
}";

/// `(src, dst)` of every transfer tagged `why`, in emission order.
fn transfer_pairs(r: &RunReport, why: &str) -> Vec<(usize, usize)> {
    r.trace
        .events()
        .iter()
        .filter_map(|e| match e {
            Event::Transfer(t) if t.why == why => Some((t.src.unwrap(), t.dst.unwrap())),
            _ => None,
        })
        .collect()
}

/// The one-island contract. There is one communication path for every
/// topology, so nothing in the code says "flat" any more — but on a
/// one-island machine it must still produce the seed's schedule: the
/// stride-doubling reduction pairs reported as `ReductionMerge`, and
/// peers visited in ascending index.
#[test]
fn one_island_topology_keeps_the_flat_schedule() {
    let node8 = || Machine::supercomputer_node_with_gpus(8);
    let n = 4096i32;
    // Reduction tree: (1→0),(3→2),(5→4),(7→6), then (2→0),(6→4), then (4→0).
    let keys: Vec<i32> = (0..n).map(|i| i % 7).collect();
    let w = vec![1.0f64; n as usize];
    let r = run_on(
        node8(),
        HIST_ADD,
        "hist",
        8,
        vec![Value::I32(n), Value::I32(7)],
        vec![
            Buffer::from_i32(&keys),
            Buffer::from_f64(&w),
            Buffer::zeroed(Ty::F64, 7),
        ],
    );
    assert_eq!(
        transfer_pairs(&r, "reduce"),
        [(1, 0), (3, 2), (5, 4), (7, 6), (2, 0), (6, 4), (4, 0)]
    );
    let merges = |f: fn(&Event) -> bool| r.trace.events().iter().filter(|e| f(e)).count();
    assert_eq!(merges(|e| matches!(e, Event::Reduction(_))), 7);
    assert_eq!(merges(|e| matches!(e, Event::Collective(_))), 0);

    // Replica sync: every source ships to its destinations in
    // ascending index, sources in ascending index.
    let idx: Vec<i32> = (0..n)
        .map(|i| ((i as u64).wrapping_mul(2654435761) % n as u64) as i32)
        .collect();
    let r = run_on(
        node8(),
        SCATTER,
        "scat",
        8,
        vec![Value::I32(n), Value::I32(1)],
        vec![Buffer::from_i32(&idx), Buffer::zeroed(Ty::I32, n as usize)],
    );
    let mut rounds = transfer_pairs(&r, "sync");
    rounds.dedup();
    let all_pairs: Vec<(usize, usize)> = (0..8)
        .flat_map(|g| (0..8).filter(move |&h| h != g).map(move |h| (g, h)))
        .collect();
    assert_eq!(rounds, all_pairs);

    // Halo fill: peers are tried in ascending index. GPU 0 is
    // refilled first and pulls one partition from each peer; it then
    // holds everything, so every later GPU finds it first.
    let r = run_on(
        node8(),
        REFILL,
        "refill",
        8,
        vec![Value::I32(n)],
        vec![Buffer::from_f64(&w), Buffer::zeroed(Ty::F64, n as usize)],
    );
    let fills = transfer_pairs(&r, "fill");
    let sources = |g| -> Vec<usize> {
        let mut s: Vec<usize> = fills.iter().filter(|p| p.1 == g).map(|p| p.0).collect();
        s.dedup();
        s
    };
    assert_eq!(sources(0), [1, 2, 3, 4, 5, 6, 7]);
    for g in 1..8 {
        assert_eq!(sources(g), [0], "fill sources of GPU {g}");
    }
}

/// Colliding scatter: `idx` maps many iterations — on different GPUs —
/// to one element, and every iteration stores a different value.
const CLASH: &str = "void clash(int n, int iters, int *idx, int *flags) {\n\
#pragma acc data copyin(idx[0:n]) copy(flags[0:n])\n\
{\n\
int t = 0;\n\
while (t < iters) {\n\
#pragma acc localaccess(idx) stride(1)\n\
#pragma acc parallel loop\n\
for (int i = 0; i < n; i++) flags[idx[i]] = i + t;\n\
t = t + 1;\n\
}\n\
}\n\
}";

/// Above one island the priced schedule is the level walk, with relay
/// hops. Final replica contents must not notice: with deliberately
/// conflicting writes (the lowest dirty GPU wins) and small chunks (so
/// islands and nodes carry different unions), the plain and the fully
/// sanitized run both equal the BSP oracle.
#[test]
fn cluster_sync_with_conflicting_writes_is_schedule_independent() {
    let n = 6_000usize;
    let idx: Vec<i32> = (0..n)
        .map(|i| ((i as u64).wrapping_mul(2654435761) % (n as u64 / 3)) as i32)
        .collect();
    // Iterations i, i + n/3 and i + 2n/3 — on three different GPUs — hit
    // the same element.
    assert!(idx[0] == idx[n / 3] && idx[0] == idx[2 * n / 3]);
    let prog = compile_source(CLASH, "clash", &CompileOptions::proposal()).unwrap();
    for ngpus in [16usize, 64] {
        let run = |cfg: ExecConfig| {
            run_program(
                &mut Machine::cluster(ngpus),
                &cfg.chunk_bytes(256).tracing(TraceLevel::Spans),
                &prog,
                vec![Value::I32(n as i32), Value::I32(2)],
                vec![Buffer::from_i32(&idx), Buffer::zeroed(Ty::I32, n)],
            )
            .unwrap()
        };
        let mut expect = vec![0i32; n];
        for t in 0..2 {
            bsp_launch(&mut expect, n, ngpus, |_, i| {
                (idx[i] as usize, i as i32 + t)
            });
        }
        let par = run(ExecConfig::gpus(ngpus));
        assert_eq!(par.arrays[1].to_i32_vec(), expect, "x{ngpus}: BSP oracle");
        let full = run(ExecConfig::gpus(ngpus).sanitize(SanitizeLevel::Full));
        assert_eq!(
            full.arrays[1].to_i32_vec(),
            expect,
            "x{ngpus}: Full sanitize"
        );

        // Relay hops exist: a round between islands (8 GPUs each) is
        // leader to leader.
        let rounds = par.trace.events().iter().filter_map(|e| match e {
            Event::Comm(r) => Some(r),
            _ => None,
        });
        let islands = ngpus / 8;
        let relayed = rounds.filter(|r| r.src / 8 != r.dst / 8).count();
        // Per sync: island leaders exchange inside each node, node
        // leaders across the fabric, node leaders hand down.
        let per_sync = if islands == 2 { 2 } else { 4 * 2 + 4 * 3 + 4 };
        assert_eq!(relayed, 2 * per_sync, "x{ngpus}: cross-island rounds");
    }
}

// ---------------------------------------------------------------------
// Randomized: the one path against its oracle.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Replica sync on random scatter patterns: multiple GPUs write
    /// overlapping random index sets (conflicts included), repeatedly.
    #[test]
    fn replica_sync_paths_agree(
        n in 64usize..2048,
        iters in 1i32..4,
        seed in 0u64..u64::MAX,
        ngpus in 2usize..=3,
    ) {
        let idx: Vec<i32> = (0..n)
            .map(|i| {
                let h = (i as u64)
                    .wrapping_mul(seed | 1)
                    .wrapping_add(seed >> 7)
                    .wrapping_mul(2654435761);
                (h % n as u64) as i32
            })
            .collect();
        let scalars = vec![Value::I32(n as i32), Value::I32(iters)];
        let arrays = vec![Buffer::from_i32(&idx), Buffer::zeroed(Ty::I32, n)];
        let r = run_with(SCATTER, "scat", ngpus, scalars, arrays);
        let mut expect = vec![0i32; n];
        for _ in 0..iters {
            bsp_launch(&mut expect, n, ngpus, |a, i| (idx[i] as usize, a[idx[i] as usize] + 1));
        }
        prop_assert_eq!(r.arrays[1].to_i32_vec(), expect);
    }

    /// Miss replay on random shift distances (including 0 and wrap-heavy
    /// shifts that cross several partitions).
    #[test]
    fn miss_replay_paths_agree(
        n in 8i32..1500,
        off in 0i32..1500,
        ngpus in 2usize..=3,
    ) {
        let off = off % n;
        let src: Vec<f64> = (0..n).map(|i| i as f64 * 1.5).collect();
        let scalars = vec![Value::I32(n), Value::I32(off)];
        let arrays = vec![Buffer::from_f64(&src), Buffer::zeroed(Ty::F64, n as usize)];
        let r = run_with(SHIFT, "shift", ngpus, scalars, arrays);
        prop_assert_eq!(r.arrays[1].to_f64_vec(), shifted(&src, off as usize));
        // A non-trivial rotation maps no proper partition onto itself.
        prop_assert_eq!(r.profile.miss_records > 0, off != 0);
    }

    /// Reduction merge on random keys/weights, for an integer-insensitive
    /// (+) and an order-sensitive comparison (min) operator — on the
    /// one-island node and across two islands of the cluster. Weights
    /// are integer-valued, so every combine order sums exactly.
    #[test]
    fn reduction_merge_paths_agree(
        n in 16i32..2000,
        k in 1i32..32,
        seed in 0u64..u64::MAX,
        ngpus in 2usize..=3,
        cluster_gpus in 9usize..=16,
    ) {
        let keys: Vec<i32> = (0..n)
            .map(|i| ((i as u64).wrapping_mul(seed | 3) % k as u64) as i32)
            .collect();
        let w: Vec<f64> = (0..n)
            .map(|i| (((i as u64).wrapping_mul(seed ^ 0x9e3779b9) % 2001) as f64) - 1000.0)
            .collect();
        let base: Vec<f64> = (0..k).map(|i| 100.0 + i as f64).collect();
        let add: fn(f64, f64) -> f64 = |a, b| a + b;
        for (src, func, op) in [(HIST_ADD, "hist", add), (HIST_MIN, "hmin", f64::min)] {
            let expect = histogram(&base, &keys, &w, op);
            let scalars = vec![Value::I32(n), Value::I32(k)];
            let arrays = || vec![
                Buffer::from_i32(&keys),
                Buffer::from_f64(&w),
                Buffer::from_f64(&base),
            ];
            let r = run_with(src, func, ngpus, scalars.clone(), arrays());
            prop_assert_eq!(r.arrays[2].to_f64_vec(), expect.clone(), "{} on {} GPUs", func, ngpus);
            // Two islands of one node: the level-structured tree.
            let r = run_on(Machine::cluster(16), src, func, cluster_gpus, scalars, arrays());
            let what = format!("{func} on cluster x{cluster_gpus}");
            prop_assert_eq!(r.arrays[2].to_f64_vec(), expect, "{}", what);
            let collectives = r
                .trace
                .events()
                .iter()
                .filter(|e| matches!(e, Event::Collective(_)))
                .count();
            prop_assert_eq!(collectives, cluster_gpus.min(n as usize) - 1);
        }
    }
}
