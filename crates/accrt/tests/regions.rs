//! Data-region and launch edge cases: nesting, `present`, the `kernels`
//! spelling, empty iteration spaces, and `update device` on distributed
//! windows.

use acc_compiler::{compile_source, CompileOptions};
use acc_gpusim::Machine;
use acc_kernel_ir::{Buffer, Ty, Value};
use acc_runtime::{run_program, ExecConfig, RunError, Schedule};

fn machine() -> Machine {
    Machine::supercomputer_node()
}

#[test]
fn nested_data_regions_balance() {
    let src = "void f(int n, double *x, double *y) {\n\
#pragma acc data copyin(x[0:n])\n\
{\n\
#pragma acc data copy(y[0:n])\n\
{\n\
#pragma acc localaccess(x) stride(1)\n\
#pragma acc localaccess(y) stride(1)\n\
#pragma acc parallel loop\n\
for (int i = 0; i < n; i++) y[i] = x[i] * 2.0;\n\
}\n\
#pragma acc parallel loop\n\
for (int i = 0; i < n; i++) { double t = x[i]; if (t < 0.0) { } }\n\
}\n\
}";
    let prog = compile_source(src, "f", &CompileOptions::proposal()).unwrap();
    let n = 100;
    let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let mut m = machine();
    let r = run_program(
        &mut m,
        &ExecConfig::gpus(2),
        &prog,
        vec![Value::I32(n as i32)],
        vec![Buffer::from_f64(&x), Buffer::zeroed(Ty::F64, n)],
    )
    .unwrap();
    let expect: Vec<f64> = x.iter().map(|v| v * 2.0).collect();
    assert_eq!(r.arrays[1].to_f64_vec(), expect);
    // All regions closed: no leaked device allocations.
    for g in &m.gpus {
        assert_eq!(g.memory.in_use(), 0, "leaked device memory");
        assert_eq!(g.memory.live_allocations(), 0);
    }
}

#[test]
fn same_array_in_nested_regions() {
    // The inner region redeclares x; OpenACC present-or semantics: depth
    // balances, a single copy-out at the end.
    let src = "void f(int n, double *x) {\n\
#pragma acc data copy(x[0:n])\n\
{\n\
#pragma acc data copyin(x[0:n])\n\
{\n\
#pragma acc localaccess(x) stride(1)\n\
#pragma acc parallel loop\n\
for (int i = 0; i < n; i++) x[i] = x[i] + 1.0;\n\
}\n\
}\n\
}";
    let prog = compile_source(src, "f", &CompileOptions::proposal()).unwrap();
    let n = 64;
    let mut m = machine();
    let r = run_program(
        &mut m,
        &ExecConfig::gpus(3),
        &prog,
        vec![Value::I32(n as i32)],
        vec![Buffer::zeroed(Ty::F64, n)],
    )
    .unwrap();
    assert!(r.arrays[0].to_f64_vec().iter().all(|&v| v == 1.0));
}

#[test]
fn present_clause_succeeds_inside_enclosing_region() {
    let src = "void f(int n, double *x) {\n\
#pragma acc data copy(x[0:n])\n\
{\n\
#pragma acc data present(x)\n\
{\n\
#pragma acc parallel loop\n\
for (int i = 0; i < n; i++) x[i] = 5.0;\n\
}\n\
}\n\
}";
    let prog = compile_source(src, "f", &CompileOptions::proposal()).unwrap();
    let mut m = machine();
    let r = run_program(
        &mut m,
        &ExecConfig::gpus(2),
        &prog,
        vec![Value::I32(32)],
        vec![Buffer::zeroed(Ty::F64, 32)],
    )
    .unwrap();
    assert!(r.arrays[0].to_f64_vec().iter().all(|&v| v == 5.0));
}

#[test]
fn present_clause_fails_when_absent() {
    let src = "void f(int n, double *x) {\n\
#pragma acc data present(x)\n\
{\n\
#pragma acc parallel loop\n\
for (int i = 0; i < n; i++) x[i] = 5.0;\n\
}\n\
}";
    let prog = compile_source(src, "f", &CompileOptions::proposal()).unwrap();
    let mut m = machine();
    let err = run_program(
        &mut m,
        &ExecConfig::gpus(1),
        &prog,
        vec![Value::I32(8)],
        vec![Buffer::zeroed(Ty::F64, 8)],
    )
    .unwrap_err();
    assert!(matches!(err, RunError::NotPresent(_)), "{err}");
}

#[test]
fn kernels_loop_spelling_works() {
    let src = "void f(int n, double *x) {\n\
#pragma acc kernels loop copy(x[0:n])\n\
for (int i = 0; i < n; i++) x[i] = 7.0;\n\
}";
    let prog = compile_source(src, "f", &CompileOptions::proposal()).unwrap();
    let mut m = machine();
    let r = run_program(
        &mut m,
        &ExecConfig::gpus(2),
        &prog,
        vec![Value::I32(16)],
        vec![Buffer::zeroed(Ty::F64, 16)],
    )
    .unwrap();
    assert!(r.arrays[0].to_f64_vec().iter().all(|&v| v == 7.0));
}

#[test]
fn empty_iteration_space_is_a_no_op_launch() {
    let src = "void f(int n, double *x) {\n\
#pragma acc data copy(x[0:4])\n\
{\n\
#pragma acc parallel loop\n\
for (int i = 0; i < n; i++) x[i] = 1.0;\n\
}\n\
}";
    let prog = compile_source(src, "f", &CompileOptions::proposal()).unwrap();
    let mut m = machine();
    let r = run_program(
        &mut m,
        &ExecConfig::gpus(3),
        &prog,
        vec![Value::I32(0)], // zero iterations
        vec![Buffer::from_f64(&[9.0, 9.0, 9.0, 9.0])],
    )
    .unwrap();
    assert_eq!(r.arrays[0].to_f64_vec(), vec![9.0; 4]);
    assert_eq!(r.profile.kernel_launches, 1);
    assert_eq!(r.profile.kernel_counters.threads, 0);
}

#[test]
fn fewer_iterations_than_gpus() {
    let src = "void f(int n, double *x) {\n\
#pragma acc data copy(x[0:n])\n\
{\n\
#pragma acc localaccess(x) stride(1)\n\
#pragma acc parallel loop\n\
for (int i = 0; i < n; i++) x[i] = (double)i;\n\
}\n\
}";
    let prog = compile_source(src, "f", &CompileOptions::proposal()).unwrap();
    let mut m = machine();
    let r = run_program(
        &mut m,
        &ExecConfig::gpus(3),
        &prog,
        vec![Value::I32(2)], // 2 iterations, 3 GPUs
        vec![Buffer::zeroed(Ty::F64, 2)],
    )
    .unwrap();
    assert_eq!(r.arrays[0].to_f64_vec(), vec![0.0, 1.0]);
}

#[test]
fn update_device_reaches_distributed_windows() {
    // Host rewrites the array mid-region; update device must land in each
    // GPU's partition window.
    let src = "void f(int n, double *x, double *y) {\n\
#pragma acc data copyin(x[0:n]) copy(y[0:n])\n\
{\n\
#pragma acc localaccess(x) stride(1)\n\
#pragma acc localaccess(y) stride(1)\n\
#pragma acc parallel loop\n\
for (int i = 0; i < n; i++) y[i] = x[i];\n\
int j = 0;\n\
while (j < n) { x[j] = 100.0; j = j + 1; }\n\
#pragma acc update device(x[0:n])\n\
#pragma acc localaccess(x) stride(1)\n\
#pragma acc localaccess(y) stride(1)\n\
#pragma acc parallel loop\n\
for (int i = 0; i < n; i++) y[i] = y[i] + x[i];\n\
}\n\
}";
    let prog = compile_source(src, "f", &CompileOptions::proposal()).unwrap();
    let n = 96;
    let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let mut m = machine();
    let r = run_program(
        &mut m,
        &ExecConfig::gpus(3),
        &prog,
        vec![Value::I32(n as i32)],
        vec![Buffer::from_f64(&x), Buffer::zeroed(Ty::F64, n)],
    )
    .unwrap();
    let expect: Vec<f64> = (0..n).map(|i| i as f64 + 100.0).collect();
    assert_eq!(r.arrays[1].to_f64_vec(), expect);
}

#[test]
fn float_scalar_params_capture() {
    let src = "void f(int n, float a, double b, float *x) {\n\
#pragma acc parallel loop copy(x[0:n])\n\
for (int i = 0; i < n; i++) x[i] = a + (float)b;\n\
}";
    let prog = compile_source(src, "f", &CompileOptions::proposal()).unwrap();
    let mut m = machine();
    let r = run_program(
        &mut m,
        &ExecConfig::gpus(2),
        &prog,
        vec![Value::I32(8), Value::F32(1.5), Value::F64(2.25)],
        vec![Buffer::zeroed(Ty::F32, 8)],
    )
    .unwrap();
    assert!(r.arrays[0].to_f32_vec().iter().all(|&v| v == 3.75));
}

#[test]
fn a_reallocated_window_keeps_what_the_device_wrote() {
    // Kernel B reads `t` one element past kernel A's window, so every
    // GPU but the last grows its `t` window. What the device wrote must
    // survive the move whatever `t`'s clause says, and the host copy of
    // a `copyin` / `create` array must come back as the program left it:
    // no GPU count or schedule may park device data there.
    for clause in ["copy", "copyin", "create", "copyout"] {
        let src = format!(
            "void f(int n, double *x, double *t, double *y) {{\n\
#pragma acc data copyin(x[0:n]) {clause}(t[0:n]) copyout(y[0:n])\n\
{{\n\
#pragma acc localaccess(x) stride(1)\n\
#pragma acc localaccess(t) stride(1)\n\
#pragma acc parallel loop\n\
for (int i = 0; i < n; i++) t[i] = x[i] * 2.0;\n\
#pragma acc localaccess(t) stride(1) right(1)\n\
#pragma acc localaccess(y) stride(1)\n\
#pragma acc parallel loop\n\
for (int i = 0; i < n - 1; i++) y[i] = t[i] + t[i + 1];\n\
}}\n\
}}"
        );
        let prog = compile_source(&src, "f", &CompileOptions::proposal()).unwrap();
        let n = 24;
        let x: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
        let run = |m: &mut Machine, cfg: &ExecConfig| {
            let arrays = vec![
                Buffer::from_f64(&x),
                Buffer::zeroed(Ty::F64, n),
                Buffer::zeroed(Ty::F64, n),
            ];
            let r = run_program(m, cfg, &prog, vec![Value::I32(n as i32)], arrays).unwrap();
            r.arrays.iter().map(Buffer::to_f64_vec).collect::<Vec<_>>()
        };
        let want = run(&mut machine(), &ExecConfig::gpus(1));
        assert_eq!(want.last().unwrap()[0], 2.0 * x[0] + 2.0 * x[1]);
        for schedule in [Schedule::Equal, Schedule::CostModel] {
            for (ngpus, mut m) in [(2, machine()), (3, machine()), (16, Machine::cluster(16))] {
                let got = run(&mut m, &ExecConfig::gpus(ngpus).schedule(schedule));
                assert_eq!(got, want, "{clause}(t), {ngpus} GPUs, {schedule:?}");
            }
        }
    }
}

/// Run `src` (function `f`, one `int` parameter `iters` after `n`, one
/// `double` array) under `cfg`. Returns the array and the number of
/// device allocations that outlived the run (regions left open).
fn run_counting_leaks(src: &str, n: usize, iters: i32, cfg: &ExecConfig) -> (Vec<f64>, usize) {
    let opts = if cfg.mode == acc_runtime::ExecMode::CpuParallel {
        CompileOptions::pgi_like()
    } else {
        CompileOptions::proposal()
    };
    let prog = compile_source(src, "f", &opts).unwrap();
    let mut m = machine();
    let r = run_program(
        &mut m,
        cfg,
        &prog,
        vec![Value::I32(n as i32), Value::I32(iters)],
        vec![Buffer::zeroed(Ty::F64, n)],
    )
    .unwrap();
    let leaks = m.gpus.iter().map(|g| g.memory.live_allocations()).sum();
    (r.arrays[0].to_f64_vec(), leaks)
}

/// Leaving a `copy` region inside a host loop by `break`, `return` or
/// `continue` performs its exit: every GPU count and schedule returns
/// the OpenMP baseline's array.
#[test]
fn early_exits_from_a_data_region_copy_out() {
    let shape = |exit: &str| {
        format!(
            "void f(int n, int iters, double *a) {{\n\
int t;\n\
t = 0;\n\
while (t < iters) {{\n\
#pragma acc data copy(a[0:n])\n\
{{\n\
#pragma acc parallel loop\n\
for (int i = 0; i < n; i++) a[i] = a[i] + 1.0;\n\
t = t + 1;\n\
{exit}\n\
}}\n\
}}\n\
}}"
        )
    };
    let cases = [
        // Breaks on the second pass: a = 2.
        ("break", shape("if (t >= 2) break;"), 2.0),
        // Returns on the first pass: a = 1.
        ("return", shape("if (t >= 1) return;"), 1.0),
        // Odd passes continue past the region's end: a = 3, and the
        // last pass is one of them.
        ("continue", shape("if (t % 2 == 1) continue;"), 3.0),
    ];
    let n = 48;
    for (what, src, want) in cases {
        let (omp, _) = run_counting_leaks(&src, n, 3, &ExecConfig::openmp());
        assert_eq!(omp, vec![want; n], "{what}: OpenMP baseline");
        for schedule in [Schedule::Equal, Schedule::CostModel] {
            for ngpus in 1..=3 {
                let cfg = ExecConfig::gpus(ngpus).schedule(schedule);
                let (got, leaks) = run_counting_leaks(&src, n, 3, &cfg);
                assert_eq!(got, omp, "{what}, {ngpus} GPUs, {schedule:?}");
                assert_eq!(leaks, 0, "{what}: a region was left open");
            }
        }
    }
}

/// A launch with no `data` directive sits in the translator's implicit
/// `copy` region, so the host read after it sees the kernel's values —
/// and the linter, reading the same region tree, does not warn.
#[test]
fn implicit_region_flushes_before_the_host_reads() {
    let src = "void f(int n, double *x, double *y) {\n\
double t;\n\
#pragma acc parallel loop\n\
for (int i = 0; i < n; i++) y[i] = x[i] * 2.0;\n\
t = y[1];\n\
x[0] = t;\n\
}";
    let diags = acc_compiler::lint_source(src).unwrap();
    assert!(diags.iter().all(|d| d.code != Some("ACC-W004")), "{diags:?}");
    let prog = compile_source(src, "f", &CompileOptions::proposal()).unwrap();
    let n = 16;
    let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
    for ngpus in 1..=3 {
        let mut m = machine();
        let r = run_program(
            &mut m,
            &ExecConfig::gpus(ngpus),
            &prog,
            vec![Value::I32(n as i32)],
            vec![Buffer::from_f64(&x), Buffer::zeroed(Ty::F64, n)],
        )
        .unwrap();
        let want: Vec<f64> = x.iter().map(|v| v * 2.0).collect();
        assert_eq!(r.arrays[1].to_f64_vec(), want, "{ngpus} GPUs");
        // The host read `y[1]` after the kernel wrote it.
        assert_eq!(r.arrays[0].to_f64_vec()[0], 2.0, "{ngpus} GPUs");
    }
}
