//! Inter-launch communication elision: runtime behaviour of the
//! compiler's static `CommPlan` facts.
//!
//! The whole-program dataflow analysis proves, per kernel×array, that a
//! replica sync is unobservable (every GPU writes and later reads only
//! its own partition, partitions are launch-invariant, and no host
//! access intervenes). With `ExecConfig::comm_elision(true)` the runtime
//! consumes those facts: the per-launch sync is skipped, dirty bits keep
//! accumulating, and reconciliation is deferred to the first operation
//! that can observe another GPU's partition. These tests pin the three
//! contracts: elision never changes results, `SanitizeLevel::Full`
//! re-arms the sync bit-identically while auditing the claims, and an
//! unsound (fault-injected) fact is rejected.

use acc_compiler::{compile_source, force_comm_elision, CompileOptions};
use acc_gpusim::Machine;
use acc_kernel_ir::{Buffer, Value};
use acc_obs::{Event, TraceLevel};
use acc_runtime::{run_program, ExecConfig, RunError, SanitizeLevel};

/// Two launches per iteration; `y` and `z` are written then read
/// strictly at `[i]`, so both earn elision facts (the same program the
/// compiler's dataflow tests prove facts for).
const ELIDABLE: &str = "void f(int n, int iters, double *x, double *y, double *z) {\n\
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
}";

const N: usize = 10_000;
const ITERS: i32 = 5;

fn run_elidable(ngpus: usize, cfg: ExecConfig) -> acc_runtime::RunReport {
    let m = Machine::supercomputer_node();
    assert!(ngpus <= m.gpus.len());
    run_elidable_on(m, cfg)
}

fn run_elidable_on(mut m: Machine, cfg: ExecConfig) -> acc_runtime::RunReport {
    let prog = compile_source(ELIDABLE, "f", &CompileOptions::proposal()).unwrap();
    assert!(prog.comm_plan.n_facts() > 0, "test program must earn facts");
    let x: Vec<f64> = (0..N).map(|i| (i % 97) as f64).collect();
    run_program(
        &mut m,
        &cfg,
        &prog,
        vec![Value::I32(N as i32), Value::I32(ITERS)],
        vec![
            Buffer::from_f64(&x),
            Buffer::zeroed(acc_kernel_ir::Ty::F64, N),
            Buffer::zeroed(acc_kernel_ir::Ty::F64, N),
        ],
    )
    .unwrap()
}

#[test]
fn elision_skips_syncs_and_preserves_results() {
    for ngpus in [2usize, 3] {
        let off = run_elidable(ngpus, ExecConfig::gpus(ngpus));
        let on = run_elidable(ngpus, ExecConfig::gpus(ngpus).comm_elision(true));
        // Bit-identical final arrays: the deferred sync at copy-out
        // reconciles exactly what the per-launch syncs would have.
        assert_eq!(off.arrays[1].to_f64_vec(), on.arrays[1].to_f64_vec());
        assert_eq!(off.arrays[2].to_f64_vec(), on.arrays[2].to_f64_vec());
        // Both written arrays elided on every launch (2 kernels × ITERS).
        assert_eq!(
            on.profile.comm_elisions,
            2 * ITERS as u64,
            "ngpus={ngpus}"
        );
        assert!(on.profile.comm_elided_bytes > 0);
        assert_eq!(off.profile.comm_elisions, 0);
        // ITERS per-launch syncs collapse into one deferred sync per
        // array, so GPU-GPU traffic drops.
        assert!(
            on.profile.p2p_bytes < off.profile.p2p_bytes,
            "ngpus={ngpus}: on={} off={}",
            on.profile.p2p_bytes,
            off.profile.p2p_bytes
        );
        assert!(on.profile.time.parallel_region() <= off.profile.time.parallel_region());
    }
}

/// `CommElided::skipped_bytes` is what the skipped sync would have
/// priced — above one island that is the level walk's relayed unions,
/// not payload × (holders − 1). The first launch starts from clean
/// dirty bits either way, so its estimate must equal the bytes the
/// un-elided run's first sync moved.
#[test]
fn an_elided_sync_reports_the_bytes_its_schedule_would_price() {
    for ngpus in [3usize, 16, 64] {
        let cfg = ExecConfig::gpus(ngpus).chunk_bytes(512).tracing(TraceLevel::Summary);
        let off = run_elidable_on(Machine::cluster(ngpus), cfg.clone());
        let on = run_elidable_on(Machine::cluster(ngpus), cfg.comm_elision(true));
        let priced: u64 = off.trace.events().iter().filter_map(|e| match e {
            Event::Comm(r) if r.launch == 0 => Some(r.bytes),
            _ => None,
        }).sum();
        let skipped: Vec<u64> = on.trace.events().iter().filter_map(|e| match e {
            Event::Elided(e) if e.launch == 0 => Some(e.skipped_bytes),
            _ => None,
        }).collect();
        assert!(priced > 0, "ngpus={ngpus}");
        assert_eq!(skipped, [priced], "ngpus={ngpus}");
    }
}

#[test]
fn full_sanitize_rearms_elision_bit_identically() {
    for ngpus in [2usize, 3] {
        let off = run_elidable(ngpus, ExecConfig::gpus(ngpus).sanitize(SanitizeLevel::Full));
        let on = run_elidable(
            ngpus,
            ExecConfig::gpus(ngpus)
                .comm_elision(true)
                .sanitize(SanitizeLevel::Full),
        );
        // Re-armed: the sync runs normally after the audit, so there is
        // zero observable difference — arrays AND simulated times.
        assert_eq!(off.arrays[1].to_f64_vec(), on.arrays[1].to_f64_vec());
        assert_eq!(off.arrays[2].to_f64_vec(), on.arrays[2].to_f64_vec());
        assert_eq!(off.profile.time, on.profile.time, "ngpus={ngpus}");
        assert_eq!(off.profile.p2p_bytes, on.profile.p2p_bytes);
        assert_eq!(on.profile.comm_elisions, 0, "Full sanitize re-arms syncs");
    }
}

/// Permutation scatter: every GPU writes far outside its own partition,
/// so no honest fact exists. Fault-inject one and the Full-sanitize
/// audit must reject the run.
const SCATTER: &str = "void scat(int n, int *idx, int *flags) {\n\
#pragma acc data copyin(idx[0:n]) copy(flags[0:n])\n\
{\n\
#pragma acc localaccess(idx) stride(1)\n\
#pragma acc parallel loop\n\
for (int i = 0; i < n; i++) flags[idx[i]] = 1;\n\
}\n\
}";

#[test]
fn forced_elision_on_unsound_program_is_caught_by_audit() {
    let n = 4096i64;
    let idx: Vec<i32> = (0..n).map(|i| ((i * 2654435761u64 as i64) % n) as i32).collect();
    let mut prog = compile_source(SCATTER, "scat", &CompileOptions::proposal()).unwrap();
    // The analysis proves nothing here...
    assert_eq!(prog.comm_plan.n_facts(), 0);
    // ...so inject a bogus unit-stride fact and let the audit catch it.
    force_comm_elision(&mut prog);
    assert!(prog.comm_plan.n_facts() > 0);
    let mut m = Machine::supercomputer_node();
    let err = run_program(
        &mut m,
        &ExecConfig::gpus(2)
            .comm_elision(true)
            .sanitize(SanitizeLevel::Full),
        &prog,
        vec![Value::I32(n as i32)],
        vec![
            Buffer::from_i32(&idx),
            Buffer::zeroed(acc_kernel_ir::Ty::I32, n as usize),
        ],
    )
    .unwrap_err();
    assert!(
        matches!(err, RunError::ElisionUnsound { .. }),
        "expected ElisionUnsound, got: {err}"
    );
    let msg = err.to_string();
    assert!(msg.contains("flags"), "{msg}");
}

#[test]
fn staging_pool_reuses_buffers_across_syncs() {
    // Elision off: every one of the 2×ITERS launches runs a replica sync
    // through the parallel path, each staging one buffer per dirty GPU.
    // The pool must hold allocations at the first launch's count.
    let ngpus = 2usize;
    let r = run_elidable(ngpus, ExecConfig::gpus(ngpus));
    assert!(r.profile.dirty_chunks_sent > 0, "sync path exercised");
    assert!(
        r.profile.staging_allocs <= ngpus as u64,
        "staging pool must reuse buffers: {} allocs over {} elided-off syncs",
        r.profile.staging_allocs,
        2 * ITERS
    );
    assert!(r.profile.staging_allocs > 0);
}
