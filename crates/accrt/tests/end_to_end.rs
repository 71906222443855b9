//! End-to-end tests: OpenACC mini-C source → translator → runtime on the
//! simulated machine. Multi-GPU results must equal single-GPU and
//! OpenMP-mode results bit-for-bit (integers) / exactly (doubles, since
//! the operations are order-preserving per element).

use std::sync::Arc;

use acc_compiler::{compile_source, CompileOptions};
use acc_gpusim::Machine;
use acc_kernel_ir::{Buffer, Value};
use acc_runtime::{
    run_program, CompiledKernel, Engine, ExecConfig, KernelVm, RunError, SanitizeLevel,
};

fn machine() -> Machine {
    Machine::supercomputer_node() // 3 GPUs
}

fn run_gpu(
    src: &str,
    func: &str,
    ngpus: usize,
    scalars: Vec<Value>,
    arrays: Vec<Buffer>,
) -> acc_runtime::RunReport {
    let prog = compile_source(src, func, &CompileOptions::proposal()).unwrap();
    let mut m = machine();
    run_program(&mut m, &ExecConfig::gpus(ngpus), &prog, scalars, arrays).unwrap()
}

fn run_omp(
    src: &str,
    func: &str,
    scalars: Vec<Value>,
    arrays: Vec<Buffer>,
) -> acc_runtime::RunReport {
    let prog = compile_source(src, func, &CompileOptions::pgi_like()).unwrap();
    let mut m = machine();
    run_program(&mut m, &ExecConfig::openmp(), &prog, scalars, arrays).unwrap()
}

const SAXPY: &str = "void saxpy(int n, float a, float *x, float *y) {\n\
#pragma acc data copyin(x[0:n]) copy(y[0:n])\n\
{\n\
#pragma acc localaccess(x) stride(1)\n\
#pragma acc localaccess(y) stride(1)\n\
#pragma acc parallel loop\n\
for (int i = 0; i < n; i++) y[i] = a * x[i] + y[i];\n\
}\n\
}";

#[test]
fn saxpy_matches_reference_on_1_2_3_gpus() {
    let n = 1000;
    let x: Vec<f32> = (0..n).map(|i| i as f32).collect();
    let y: Vec<f32> = (0..n).map(|i| (i * 2) as f32).collect();
    let expect: Vec<f32> = (0..n).map(|i| 1.5 * i as f32 + (i * 2) as f32).collect();
    for ngpus in 1..=3 {
        let r = run_gpu(
            SAXPY,
            "saxpy",
            ngpus,
            vec![Value::I32(n), Value::F32(1.5)],
            vec![Buffer::from_f32(&x), Buffer::from_f32(&y)],
        );
        assert_eq!(r.arrays[1].to_f32_vec(), expect, "ngpus={ngpus}");
        // x is copyin-only: unchanged.
        assert_eq!(r.arrays[0].to_f32_vec(), x);
    }
}

#[test]
fn saxpy_openmp_mode_matches() {
    let n = 257;
    let x: Vec<f32> = (0..n).map(|i| (i % 7) as f32).collect();
    let y: Vec<f32> = vec![1.0; n as usize];
    let r = run_omp(
        SAXPY,
        "saxpy",
        vec![Value::I32(n), Value::F32(2.0)],
        vec![Buffer::from_f32(&x), Buffer::from_f32(&y)],
    );
    let expect: Vec<f32> = (0..n).map(|i| 2.0 * (i % 7) as f32 + 1.0).collect();
    assert_eq!(r.arrays[1].to_f32_vec(), expect);
    // OpenMP mode moves no data.
    assert_eq!(r.profile.h2d_bytes, 0);
    assert_eq!(r.profile.p2p_bytes, 0);
}

#[test]
fn distributed_arrays_move_less_data_than_replicated() {
    let n = 100_000;
    let x: Vec<f32> = vec![1.0; n];
    let y: Vec<f32> = vec![0.0; n];
    let with_la = run_gpu(
        SAXPY,
        "saxpy",
        2,
        vec![Value::I32(n as i32), Value::F32(1.0)],
        vec![Buffer::from_f32(&x), Buffer::from_f32(&y)],
    );
    // Same program with extensions ignored → replica everywhere (the
    // placement ablation: instrumentation stays on so multi-GPU replicas
    // are still reconciled correctly).
    let no_ext = CompileOptions {
        honor_extensions: false,
        layout_transform: false,
        instrument: true,
        infer_localaccess: false,
        infer_reductions: false,
    };
    let prog = compile_source(SAXPY, "saxpy", &no_ext).unwrap();
    let mut m = machine();
    let repl = run_program(
        &mut m,
        &ExecConfig::gpus(2),
        &prog,
        vec![Value::I32(n as i32), Value::F32(1.0)],
        vec![Buffer::from_f32(&x), Buffer::from_f32(&y)],
    )
    .unwrap();
    assert_eq!(repl.arrays[1].to_f32_vec(), with_la.arrays[1].to_f32_vec());
    // Distribution loads each element once in total; replication loads
    // every element on both GPUs.
    assert!(with_la.profile.h2d_bytes < repl.profile.h2d_bytes);
}

const SCALAR_RED: &str = "void dot(int n, double *x, double *y, double s, double *out) {\n\
#pragma acc data copyin(x[0:n], y[0:n]) copyout(out[0:1])\n\
{\n\
#pragma acc localaccess(x) stride(1)\n\
#pragma acc localaccess(y) stride(1)\n\
#pragma acc parallel loop reduction(+:s)\n\
for (int i = 0; i < n; i++) s += x[i] * y[i];\n\
#pragma acc parallel loop\n\
for (int i = 0; i < 1; i++) out[i] = s;\n\
}\n\
}";

#[test]
fn scalar_reduction_across_gpus() {
    let n = 10_001;
    let x: Vec<f64> = (0..n).map(|i| (i % 10) as f64).collect();
    let y: Vec<f64> = vec![2.0; n as usize];
    let expect: f64 = x.iter().map(|v| v * 2.0).sum();
    for ngpus in 1..=3 {
        let r = run_gpu(
            SCALAR_RED,
            "dot",
            ngpus,
            vec![Value::I32(n), Value::F64(0.0)],
            vec![
                Buffer::from_f64(&x),
                Buffer::from_f64(&y),
                Buffer::zeroed(acc_kernel_ir::Ty::F64, 1),
            ],
        );
        assert_eq!(r.arrays[2].to_f64_vec()[0], expect, "ngpus={ngpus}");
    }
}

const HISTOGRAM: &str = "void hist(int n, int k, int *keys, double *w, double *bins) {\n\
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

#[test]
fn reductiontoarray_merges_private_copies() {
    let n = 5000;
    let k = 8;
    let keys: Vec<i32> = (0..n).map(|i| (i * 7) % k).collect();
    let w: Vec<f64> = vec![1.0; n as usize];
    let mut expect = vec![0.0f64; k as usize];
    for i in 0..n as usize {
        expect[keys[i] as usize] += 1.0;
    }
    // Base content must be preserved: bins start at 100.
    let base = vec![100.0f64; k as usize];
    let expect: Vec<f64> = expect.iter().zip(&base).map(|(a, b)| a + b).collect();
    for ngpus in 1..=3 {
        let r = run_gpu(
            HISTOGRAM,
            "hist",
            ngpus,
            vec![Value::I32(n), Value::I32(k)],
            vec![
                Buffer::from_i32(&keys),
                Buffer::from_f64(&w),
                Buffer::from_f64(&base),
            ],
        );
        assert_eq!(r.arrays[2].to_f64_vec(), expect, "ngpus={ngpus}");
    }
}

/// Replicated array with scattered writes → two-level dirty-bit sync.
const SCATTER_REPL: &str = "void scat(int n, int *idx, int *flags) {\n\
#pragma acc data copyin(idx[0:n]) copy(flags[0:n])\n\
{\n\
#pragma acc localaccess(idx) stride(1)\n\
#pragma acc parallel loop\n\
for (int i = 0; i < n; i++) flags[idx[i]] = 1;\n\
}\n\
}";

#[test]
fn replicated_scatter_syncs_with_dirty_bits() {
    let n = 4096;
    // Permutation scatter: every GPU writes far-away elements.
    let idx: Vec<i32> = (0..n).map(|i| ((i * 2654435761u64 as i64) % n) as i32).collect();
    let mut expect = vec![0i32; n as usize];
    for &i in &idx {
        expect[i as usize] = 1;
    }
    for ngpus in [1usize, 2, 3] {
        let r = run_gpu(
            SCATTER_REPL,
            "scat",
            ngpus,
            vec![Value::I32(n as i32)],
            vec![Buffer::from_i32(&idx), Buffer::zeroed(acc_kernel_ir::Ty::I32, n as usize)],
        );
        assert_eq!(r.arrays[1].to_i32_vec(), expect, "ngpus={ngpus}");
        if ngpus > 1 {
            assert!(r.profile.dirty_chunks_sent > 0, "dirty path used");
            assert!(r.profile.p2p_bytes > 0);
            // Dirty maps cost System device memory (Fig. 9).
            assert!(r.mem[0].system_peak > 0);
        } else {
            assert_eq!(r.mem[0].system_peak, 0, "single GPU has no system memory");
        }
    }
}

/// Distributed array with out-of-partition writes → write-miss replay.
const SHIFT_WRITE: &str = "void shift(int n, double *src, double *dst) {\n\
#pragma acc data copyin(src[0:n]) copy(dst[0:n])\n\
{\n\
#pragma acc localaccess(src) stride(1)\n\
#pragma acc localaccess(dst) stride(1)\n\
#pragma acc parallel loop\n\
for (int i = 0; i < n; i++) {\n\
int j = i + 100;\n\
if (j >= n) j = j - n;\n\
dst[j] = src[i];\n\
}\n\
}\n\
}";

#[test]
fn write_misses_replayed_on_owner_gpus() {
    let n = 1000;
    let src: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let mut expect = vec![0.0f64; n as usize];
    for i in 0..n as usize {
        expect[(i + 100) % n as usize] = i as f64;
    }
    for ngpus in 1..=3 {
        let r = run_gpu(
            SHIFT_WRITE,
            "shift",
            ngpus,
            vec![Value::I32(n)],
            vec![
                Buffer::from_f64(&src),
                Buffer::zeroed(acc_kernel_ir::Ty::F64, n as usize),
            ],
        );
        assert_eq!(r.arrays[1].to_f64_vec(), expect, "ngpus={ngpus}");
        if ngpus > 1 {
            assert!(r.profile.miss_records > 0, "miss path used (ngpus={ngpus})");
        }
    }
}

/// Iterative kernel: the loader must skip reloads after the first launch.
const ITERATIVE: &str = "void iterate(int n, int iters, double *x) {\n\
#pragma acc data copy(x[0:n])\n\
{\n\
int t = 0;\n\
while (t < iters) {\n\
#pragma acc localaccess(x) stride(1)\n\
#pragma acc parallel loop\n\
for (int i = 0; i < n; i++) x[i] = x[i] + 1.0;\n\
t = t + 1;\n\
}\n\
}\n\
}";

#[test]
fn loader_skips_reloads_for_iterative_kernels() {
    let n = 50_000;
    let x = vec![0.0f64; n];
    let r = run_gpu(
        ITERATIVE,
        "iterate",
        2,
        vec![Value::I32(n as i32), Value::I32(10)],
        vec![Buffer::from_f64(&x)],
    );
    assert!(r.arrays[0].to_f64_vec().iter().all(|&v| v == 10.0));
    // Distribution: each GPU loads its half exactly once; copy-out reads
    // it back once. 10 iterations must not multiply the traffic.
    let bytes = (n * 8) as u64;
    assert_eq!(r.profile.h2d_bytes, bytes);
    assert_eq!(r.profile.d2h_bytes, bytes);
    assert_eq!(r.profile.kernel_launches, 10);
}

const UPDATE_PROG: &str = "void upd(int n, double *x, double *y) {\n\
#pragma acc data copy(x[0:n]) copyin(y[0:n])\n\
{\n\
#pragma acc parallel loop\n\
for (int i = 0; i < n; i++) x[i] = y[i] * 2.0;\n\
#pragma acc update host(x[0:n])\n\
}\n\
}";

#[test]
fn update_host_flushes_mid_region() {
    let n = 100;
    let y: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let r = run_gpu(
        UPDATE_PROG,
        "upd",
        2,
        vec![Value::I32(n)],
        vec![Buffer::zeroed(acc_kernel_ir::Ty::F64, n as usize), Buffer::from_f64(&y)],
    );
    let expect: Vec<f64> = y.iter().map(|v| v * 2.0).collect();
    assert_eq!(r.arrays[0].to_f64_vec(), expect);
}

#[test]
fn implicit_region_when_no_data_directive() {
    let src = "void f(int n, double *x) {\n\
#pragma acc parallel loop\n\
for (int i = 0; i < n; i++) x[i] = 3.0;\n\
}";
    let r = run_gpu(src, "f", 2, vec![Value::I32(64)], vec![Buffer::zeroed(
        acc_kernel_ir::Ty::F64,
        64,
    )]);
    assert!(r.arrays[0].to_f64_vec().iter().all(|&v| v == 3.0));
    // Implicit copy region: data went up and came back.
    assert!(r.profile.h2d_bytes > 0);
    assert!(r.profile.d2h_bytes > 0);
}

#[test]
fn kernel_inside_host_control_flow() {
    // BFS-like shape: launch in a while loop controlled by a reduction.
    let src = "void levels(int n, int iters, int *x, int changed) {\n\
#pragma acc data copy(x[0:n])\n\
{\n\
int t = 0;\n\
changed = 1;\n\
while (changed > 0 && t < iters) {\n\
changed = 0;\n\
#pragma acc localaccess(x) stride(1)\n\
#pragma acc parallel loop reduction(+:changed)\n\
for (int i = 0; i < n; i++) {\n\
if (x[i] < 5) { x[i] = x[i] + 1; changed += 1; }\n\
}\n\
t = t + 1;\n\
}\n\
}\n\
}";
    let n = 1024;
    let r = run_gpu(
        src,
        "levels",
        3,
        vec![Value::I32(n), Value::I32(100), Value::I32(0)],
        vec![Buffer::zeroed(acc_kernel_ir::Ty::I32, n as usize)],
    );
    assert!(r.arrays[0].to_i32_vec().iter().all(|&v| v == 5));
    // 5 productive launches + 1 that sees no change.
    assert_eq!(r.profile.kernel_launches, 6);
}

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

#[test]
fn min_reduction_to_array_across_gpus() {
    let n = 3000;
    let k = 6;
    let keys: Vec<i32> = (0..n).map(|i| (i * 11) % k).collect();
    let w: Vec<f64> = (0..n).map(|i| ((i * 37) % 1000) as f64).collect();
    let mut expect = vec![f64::INFINITY; k as usize];
    for i in 0..n as usize {
        expect[keys[i] as usize] = expect[keys[i] as usize].min(w[i]);
    }
    let base = vec![1e18f64; k as usize]; // initial content preserved
    for ngpus in 1..=3 {
        let r = run_gpu(
            HIST_MIN,
            "hmin",
            ngpus,
            vec![Value::I32(n), Value::I32(k)],
            vec![
                Buffer::from_i32(&keys),
                Buffer::from_f64(&w),
                Buffer::from_f64(&base),
            ],
        );
        assert_eq!(r.arrays[2].to_f64_vec(), expect, "ngpus={ngpus}");
    }
}

#[test]
fn max_scalar_reduction_across_gpus() {
    let src = "void m(int n, double *x, double best) {\n\
#pragma acc data copyin(x[0:n])\n\
{\n\
#pragma acc localaccess(x) stride(1)\n\
#pragma acc parallel loop reduction(max:best)\n\
for (int i = 0; i < n; i++) best = fmax(best, x[i]);\n\
#pragma acc update device(x[0:1])\n\
}\n\
}";
    let n = 4001;
    let x: Vec<f64> = (0..n).map(|i| ((i * 2654435761u64 as i64) % 100000) as f64).collect();
    let expect = x.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    for ngpus in 1..=3 {
        let prog = compile_source(src, "m", &CompileOptions::proposal()).unwrap();
        let mut m = machine();
        let r = run_program(
            &mut m,
            &ExecConfig::gpus(ngpus),
            &prog,
            vec![Value::I32(n as i32), Value::F64(f64::NEG_INFINITY)],
            vec![Buffer::from_f64(&x)],
        )
        .unwrap();
        // `best` is host local slot 1 (after n).
        assert_eq!(r.locals[1], Value::F64(expect), "ngpus={ngpus}");
    }
}

#[test]
fn loader_reuse_ablation_increases_traffic() {
    // Iterative kernel with a read-only input array (the case §IV-C's
    // reload-skipping optimises: same access pattern every launch).
    let src = "void f(int n, int iters, double *x, double *y) {\n\
#pragma acc data copyin(x[0:n]) copy(y[0:n])\n\
{\n\
int t = 0;\n\
while (t < iters) {\n\
#pragma acc localaccess(x) stride(1)\n\
#pragma acc localaccess(y) stride(1)\n\
#pragma acc parallel loop\n\
for (int i = 0; i < n; i++) y[i] = y[i] + x[i];\n\
t = t + 1;\n\
}\n\
}\n\
}";
    let n = 50_000;
    let x = vec![2.0f64; n];
    let prog = compile_source(src, "f", &CompileOptions::proposal()).unwrap();
    let run = |reuse: bool| {
        let mut m = machine();
        let ec = ExecConfig::gpus(2).loader_reuse(reuse);
        run_program(
            &mut m,
            &ec,
            &prog,
            vec![Value::I32(n as i32), Value::I32(10)],
            vec![Buffer::from_f64(&x), Buffer::zeroed(acc_kernel_ir::Ty::F64, n)],
        )
        .unwrap()
    };
    let with = run(true);
    let without = run(false);
    // Same results...
    assert!(with.arrays[1].to_f64_vec().iter().all(|&v| v == 20.0));
    assert_eq!(
        with.arrays[1].to_f64_vec(),
        without.arrays[1].to_f64_vec()
    );
    // ...but several times the host->device traffic without skipping
    // (the read-only x reloads on all 10 launches).
    assert!(
        without.profile.h2d_bytes >= 5 * with.profile.h2d_bytes,
        "with={} without={}",
        with.profile.h2d_bytes,
        without.profile.h2d_bytes
    );
}

#[test]
fn too_many_gpus_rejected() {
    let prog = compile_source(SAXPY, "saxpy", &CompileOptions::proposal()).unwrap();
    let mut m = machine();
    let err = run_program(
        &mut m,
        &ExecConfig::gpus(4),
        &prog,
        vec![Value::I32(1), Value::F32(1.0)],
        vec![Buffer::zeroed(acc_kernel_ir::Ty::F32, 1), Buffer::zeroed(acc_kernel_ir::Ty::F32, 1)],
    )
    .unwrap_err();
    assert!(matches!(err, RunError::TooManyGpus { .. }));
}

#[test]
fn bad_inputs_rejected() {
    let prog = compile_source(SAXPY, "saxpy", &CompileOptions::proposal()).unwrap();
    let mut m = machine();
    // Wrong scalar type.
    let err = run_program(
        &mut m,
        &ExecConfig::gpus(1),
        &prog,
        vec![Value::I32(1), Value::F64(1.0)],
        vec![Buffer::zeroed(acc_kernel_ir::Ty::F32, 1), Buffer::zeroed(acc_kernel_ir::Ty::F32, 1)],
    )
    .unwrap_err();
    assert!(matches!(err, RunError::BadInputs(_)));
    // Wrong array count.
    let err = run_program(
        &mut m,
        &ExecConfig::gpus(1),
        &prog,
        vec![Value::I32(1), Value::F32(1.0)],
        vec![Buffer::zeroed(acc_kernel_ir::Ty::F32, 1)],
    )
    .unwrap_err();
    assert!(matches!(err, RunError::BadInputs(_)));
}

/// Every field of a `CompiledProgram` is `pub`, so a caller can hand
/// `run_program` or an `Engine` a program the compiler would never
/// emit. Distribution without a `localaccess` window must surface as the
/// stable ACC-R004, not a panic.
#[test]
fn distributed_placement_without_localaccess_is_a_typed_error() {
    let mut prog = compile_source(SAXPY, "saxpy", &CompileOptions::proposal()).unwrap();
    let cfg = prog.kernels[0]
        .configs
        .iter_mut()
        .find(|c| c.placement == acc_compiler::Placement::Distributed)
        .expect("saxpy distributes its localaccess arrays");
    cfg.localaccess = None;
    let inputs = || {
        (
            vec![Value::I32(8), Value::F32(1.0)],
            vec![Buffer::from_f32(&[1.0; 8]), Buffer::from_f32(&[2.0; 8])],
        )
    };
    let (scalars, arrays) = inputs();
    let err = run_program(&mut machine(), &ExecConfig::gpus(2), &prog, scalars, arrays)
        .unwrap_err();
    assert!(matches!(err, RunError::BadLocalAccess(_)), "got {err}");
    assert_eq!(err.code(), "ACC-R004");
    // Same program launched through the engine.
    let engine = Engine::new(acc_gpusim::MachineKind::SupercomputerNode, ExecConfig::gpus(2));
    let kernel = Arc::new(CompiledKernel::from_program(prog));
    let (scalars, arrays) = inputs();
    let err = engine.launch(&kernel, scalars, arrays).unwrap_err();
    assert_eq!(err.code(), "ACC-R004");
}

/// The same door for malformed kernels: `Kernel::validate` runs where a
/// program enters the runtime, so neither tier compiler nor interpreter
/// ever indexes an unresolvable slot or unwinds a `break` with no loop.
#[test]
fn forged_kernels_are_typed_errors_from_both_entry_points() {
    use acc_kernel_ir::{BufId, Builtin, Expr, LocalId, ParamId, RmwOp, Stmt};
    let store = |idx: Expr, value: Expr| Stmt::Store {
        buf: BufId(0),
        idx,
        value,
        dirty: false,
        checked: false,
    };
    let forgeries: Vec<(&str, Stmt)> = vec![
        ("break outside a loop", Stmt::Break),
        (
            "local slot",
            Stmt::Assign {
                local: LocalId(999),
                value: Expr::imm_i32(0),
            },
        ),
        ("param slot", store(Expr::ThreadIdx, Expr::Param(ParamId(999)))),
        (
            "buffer slot",
            Stmt::Store {
                buf: BufId(999),
                idx: Expr::ThreadIdx,
                value: Expr::imm_i32(0),
                dirty: false,
                checked: false,
            },
        ),
        (
            "reduction slot",
            Stmt::ReduceScalar {
                slot: 999,
                op: RmwOp::Add,
                value: Expr::imm_i32(1),
            },
        ),
        (
            "builtin arity",
            store(
                Expr::ThreadIdx,
                Expr::Call {
                    f: Builtin::Sqrt,
                    args: vec![],
                },
            ),
        ),
    ];
    let engine = Engine::new(acc_gpusim::MachineKind::SupercomputerNode, ExecConfig::gpus(2));
    for (what, stmt) in forgeries {
        let mut prog = compile_source(SAXPY, "saxpy", &CompileOptions::proposal()).unwrap();
        prog.kernels[0].kernel.body.push(stmt);
        let inputs = || {
            (
                vec![Value::I32(8), Value::F32(1.0)],
                vec![Buffer::from_f32(&[1.0; 8]), Buffer::from_f32(&[2.0; 8])],
            )
        };
        for vm in [KernelVm::Register, KernelVm::Bytecode] {
            let cfg = ExecConfig::gpus(2).kernel_vm(vm);
            let (scalars, arrays) = inputs();
            let err = run_program(&mut machine(), &cfg, &prog, scalars, arrays).unwrap_err();
            assert!(matches!(&err, RunError::Compile(m) if m.contains("saxpy")), "{what}: {err}");
            assert_eq!(err.code(), "ACC-R010");
        }
        let kernel = Arc::new(CompiledKernel::from_program(prog));
        for _ in 0..2 {
            let (scalars, arrays) = inputs();
            let err = engine.launch(&kernel, scalars, arrays).unwrap_err();
            assert!(matches!(err, RunError::Compile(_)), "{what}: {err}");
        }
    }
}

/// Kernels are typed once, where a program enters the runtime: a kernel
/// the register tier cannot type is refused there, under either tier,
/// even when no launch would ever reach it — nothing falls back to the
/// bytecode at launch.
#[test]
fn untypeable_kernels_are_refused_at_admission_under_both_tiers() {
    use acc_kernel_ir::{BufId, Expr, Stmt};
    let mut prog = compile_source(SAXPY, "saxpy", &CompileOptions::proposal()).unwrap();
    // An f64 buffer index: valid IR, but a dynamic `TypeError` to the
    // walker. The copy is a second kernel no host op launches.
    let mut untypeable = prog.kernels[0].clone();
    untypeable.kernel.name = "badidx".into();
    untypeable.kernel.body.push(Stmt::Store {
        buf: BufId(0),
        idx: Expr::imm_f64(1.5),
        value: Expr::Imm(Value::F32(0.0)),
        dirty: false,
        checked: false,
    });
    assert!(untypeable.kernel.validate().is_ok());
    prog.kernels.push(untypeable);
    let inputs = || {
        (
            vec![Value::I32(8), Value::F32(1.0)],
            vec![Buffer::from_f32(&[1.0; 8]), Buffer::from_f32(&[2.0; 8])],
        )
    };
    for vm in [KernelVm::Register, KernelVm::Bytecode] {
        let cfg = ExecConfig::gpus(2).kernel_vm(vm);
        let (scalars, arrays) = inputs();
        let err = run_program(&mut machine(), &cfg, &prog, scalars, arrays).unwrap_err();
        assert_eq!(err.code(), "ACC-R010", "{vm:?}: {err}");
        let msg = err.to_string();
        assert!(
            msg.contains("`badidx`") && msg.contains("index of type f64"),
            "{msg}"
        );
    }
    let engine = Engine::new(
        acc_gpusim::MachineKind::SupercomputerNode,
        ExecConfig::gpus(2),
    );
    let kernel = Arc::new(CompiledKernel::from_program(prog));
    for _ in 0..2 {
        let (scalars, arrays) = inputs();
        let err = engine.launch(&kernel, scalars, arrays).unwrap_err();
        assert_eq!(err.code(), "ACC-R010", "{err}");
    }
}

/// A launch binds the values its kernel was typed against, or it is
/// refused: a forged launch that passes an `int` host local where the
/// kernel declares a `float` parameter runs on neither tier.
#[test]
fn a_launch_binding_other_types_than_declared_is_refused() {
    use acc_compiler::ParamSrc;
    let mut prog = compile_source(SAXPY, "saxpy", &CompileOptions::proposal()).unwrap();
    let n = prog
        .locals
        .iter()
        .position(|(name, _)| name == "n")
        .unwrap();
    let ck = &mut prog.kernels[0];
    let a = ck
        .kernel
        .params
        .iter()
        .position(|p| p.name.starts_with("a$"))
        .unwrap();
    assert_eq!(ck.kernel.params[a].ty, acc_kernel_ir::Ty::F32);
    ck.param_src[a] = ParamSrc::HostLocal(acc_kernel_ir::LocalId(n as u32));
    for vm in [KernelVm::Register, KernelVm::Bytecode] {
        let cfg = ExecConfig::gpus(2).kernel_vm(vm);
        let (scalars, arrays) = (
            vec![Value::I32(8), Value::F32(1.0)],
            vec![Buffer::from_f32(&[1.0; 8]), Buffer::from_f32(&[2.0; 8])],
        );
        let err = run_program(&mut machine(), &cfg, &prog, scalars, arrays).unwrap_err();
        assert!(
            matches!(&err, RunError::BadInputs(m) if m.contains("`saxpy")),
            "{vm:?}: {err}"
        );
        assert_eq!(err.code(), "ACC-R003");
    }
}

/// A machine whose GPUs have tiny memories, to exercise capacity limits
/// without allocating gigabytes for real.
fn tiny_machine() -> Machine {
    let mut m = machine();
    for g in &mut m.gpus {
        g.spec.mem_bytes = 64 * 1024; // 64 KiB per GPU
        g.memory = acc_gpusim::DeviceMemory::new(g.spec.mem_bytes);
    }
    m
}

#[test]
fn device_out_of_memory_reported() {
    // 10000 f64 = 80 KB does not fit a 64 KiB GPU when replicated.
    let src = "void f(int n, double *x) {\n\
#pragma acc parallel loop\n\
for (int i = 0; i < n; i++) x[i] = 0.0;\n\
}";
    let prog = compile_source(src, "f", &CompileOptions::proposal()).unwrap();
    let mut m = tiny_machine();
    let n = 10_000usize;
    let err = run_program(
        &mut m,
        &ExecConfig::gpus(1),
        &prog,
        vec![Value::I32(n as i32)],
        vec![Buffer::zeroed(acc_kernel_ir::Ty::F64, n)],
    )
    .unwrap_err();
    assert!(matches!(err, RunError::Mem(_)), "{err}");
}

#[test]
fn multi_gpu_distribution_fits_where_one_gpu_cannot() {
    // 80 KB distributed over 3 tiny GPUs fits; replicated on 1 it cannot.
    // (The paper §I: "some applications which have large input data are
    // benefited by utilizing multiple GPUs".)
    let src = "void f(int n, double *x) {\n\
#pragma acc data copy(x[0:n])\n\
{\n\
#pragma acc localaccess(x) stride(1)\n\
#pragma acc parallel loop\n\
for (int i = 0; i < n; i++) x[i] = 1.0;\n\
}\n\
}";
    let prog = compile_source(src, "f", &CompileOptions::proposal()).unwrap();
    let n = 10_000usize;
    let mut m = tiny_machine();
    let err = run_program(
        &mut m,
        &ExecConfig::gpus(1),
        &prog,
        vec![Value::I32(n as i32)],
        vec![Buffer::zeroed(acc_kernel_ir::Ty::F64, n)],
    );
    assert!(err.is_err(), "80 KB cannot fit one 64 KiB GPU");
    let mut m = tiny_machine();
    let ok = run_program(
        &mut m,
        &ExecConfig::gpus(3),
        &prog,
        vec![Value::I32(n as i32)],
        vec![Buffer::zeroed(acc_kernel_ir::Ty::F64, n)],
    );
    assert!(ok.is_ok(), "distribution over 3 GPUs fits: {:?}", ok.err());
}

#[test]
fn time_breakdown_is_populated() {
    let n = 200_000;
    let x = vec![1.0f64; n];
    let r = run_gpu(
        ITERATIVE,
        "iterate",
        2,
        vec![Value::I32(n as i32), Value::I32(5)],
        vec![Buffer::from_f64(&x)],
    );
    let t = r.profile.time;
    assert!(t.kernels > 0.0);
    assert!(t.cpu_gpu > 0.0);
    assert!(t.total() >= t.parallel_region());
}

#[test]
fn register_vm_is_observationally_identical_end_to_end() {
    // Both tiers charge the walker's counters in the walker's order, so
    // a whole program run must produce the same arrays, scalar frame,
    // work counters, traffic statistics, and *simulated time* under
    // either — on every GPU count, with the sanitizer fully on. Two
    // programs: a scalar reduction, and an iterative one that relaunches
    // its kernel (the cached register form is hit from the second
    // launch on).
    let n = 5_000i32;
    let x: Vec<f64> = (0..n).map(|i| (i % 23) as f64 * 0.5).collect();
    let y: Vec<f64> = (0..n).map(|i| ((i * 7) % 11) as f64).collect();
    let out = vec![0.0f64; 1];
    type Inputs = (Vec<Value>, Vec<Buffer>);
    let cases: [(&str, &str, &dyn Fn() -> Inputs); 2] = [
        (SCALAR_RED, "dot", &|| {
            (
                vec![Value::I32(n), Value::F64(0.25)],
                vec![
                    Buffer::from_f64(&x),
                    Buffer::from_f64(&y),
                    Buffer::from_f64(&out),
                ],
            )
        }),
        (ITERATIVE, "iterate", &|| {
            (vec![Value::I32(n), Value::I32(4)], vec![Buffer::from_f64(&x)])
        }),
    ];
    for (src, func, inputs) in cases {
        let prog = compile_source(src, func, &CompileOptions::proposal()).unwrap();
        for ngpus in 1..=3 {
            let run = |vm: KernelVm| {
                let mut m = machine();
                let cfg = ExecConfig::gpus(ngpus)
                    .sanitize(SanitizeLevel::Full)
                    .kernel_vm(vm);
                let (scalars, arrays) = inputs();
                run_program(&mut m, &cfg, &prog, scalars, arrays).unwrap()
            };
            let byte = run(KernelVm::Bytecode);
            let reg = run(KernelVm::Register);
            for (a, b) in byte.arrays.iter().zip(reg.arrays.iter()) {
                assert_eq!(a.bytes(), b.bytes(), "{func}: array mismatch (ngpus={ngpus})");
            }
            assert_eq!(byte.locals, reg.locals, "{func}: ngpus={ngpus}");
            assert_eq!(
                byte.profile.kernel_counters, reg.profile.kernel_counters,
                "{func}: counter drift (ngpus={ngpus})"
            );
            assert_eq!(byte.profile.h2d_bytes, reg.profile.h2d_bytes);
            assert_eq!(byte.profile.p2p_bytes, reg.profile.p2p_bytes);
            assert_eq!(byte.profile.miss_records, reg.profile.miss_records);
            assert_eq!(
                byte.total_time(),
                reg.total_time(),
                "{func}: simulated time drift (ngpus={ngpus})"
            );
        }
    }
}

/// The translator's hostile corpus (`accc/tests/corpus`): loops that
/// declare one name in two sibling scopes capture both locals, and the
/// kernels compute the right thing on every GPU count.
#[test]
fn sibling_scope_redeclarations_run_correctly_on_1_2_3_gpus() {
    let (n, m) = (60usize, 5usize);
    let xm: Vec<f64> = (0..n * m).map(|i| (i % 11) as f64 * 0.25).collect();
    let xf: Vec<f32> = (0..n).map(|i| (i % 4) as f32 * 0.25).collect();
    let xd: Vec<f64> = (0..n).map(|i| (i % 9) as f64 - 4.0).collect();
    let expect_for: Vec<f64> = (0..n)
        .map(|i| 3.0 * xm[i * m..(i + 1) * m].iter().sum::<f64>())
        .collect();
    let expect_if: Vec<f32> = xf
        .iter()
        .map(|&v| if v > 0.5 { v * 2.0 + 1.0 } else { v * 0.5 - 1.0 })
        .collect();
    let expect_blocks: Vec<f64> = (0..n)
        .map(|i| (i + 1) as f64 + xd[i] * xd[i] + (3 * i) as f64)
        .collect();
    for ngpus in 1..=3 {
        let r = run_gpu(
            include_str!("../../accc/tests/corpus/sibling_for.c"),
            "sibling_for",
            ngpus,
            vec![Value::I32(n as i32), Value::I32(m as i32)],
            vec![Buffer::from_f64(&xm), Buffer::from_f64(&vec![0.0; n])],
        );
        assert_eq!(r.arrays[1].to_f64_vec(), expect_for, "ngpus={ngpus}");
        let r = run_gpu(
            include_str!("../../accc/tests/corpus/sibling_if.c"),
            "sibling_if",
            ngpus,
            vec![Value::I32(n as i32)],
            vec![Buffer::from_f32(&xf), Buffer::from_f32(&vec![0.0; n])],
        );
        assert_eq!(r.arrays[1].to_f32_vec(), expect_if, "ngpus={ngpus}");
        let r = run_gpu(
            include_str!("../../accc/tests/corpus/sibling_blocks.c"),
            "sibling_blocks",
            ngpus,
            vec![Value::I32(n as i32)],
            vec![Buffer::from_f64(&xd), Buffer::from_f64(&vec![0.0; n])],
        );
        assert_eq!(r.arrays[1].to_f64_vec(), expect_blocks, "ngpus={ngpus}");
    }
}
