//! Resource exhaustion at every GPU count: an overflowing write-miss
//! buffer is `ACC-R001`, an exhausted device memory budget is `ACC-R002`
//! — never a panic — and the early exit leaves nothing behind that the
//! same [`Engine`] trips over on its next job (its scratch pool went
//! through the failed run, miss buffers checked out and not returned).

use acc_compiler::{compile_source, CompileOptions};
use acc_gpusim::{Machine, MachineKind};
use acc_kernel_ir::{Buffer, Ty, Value};
use acc_runtime::{CompiledKernel, Engine, ExecConfig, RunError};

/// Every store lands in the mirror-image partition: on more than one GPU
/// almost all of them miss.
const REVERSE: &str = "void rev(int n, double *x, double *y) {\n\
#pragma acc data copyin(x[0:n]) copy(y[0:n])\n\
{\n\
#pragma acc localaccess(x) stride(1)\n\
#pragma acc localaccess(y) stride(1)\n\
#pragma acc parallel loop\n\
for (int i = 0; i < n; i++) y[n - 1 - i] = x[i];\n\
}\n\
}";

const N: usize = 64;

fn inputs() -> (Vec<Value>, Vec<Buffer>) {
    let x: Vec<f64> = (0..N).map(|i| i as f64).collect();
    (vec![Value::I32(N as i32)], vec![Buffer::from_f64(&x), Buffer::zeroed(Ty::F64, N)])
}

fn machines() -> Vec<(usize, Machine)> {
    let node = Machine::supercomputer_node;
    vec![(1, node()), (2, node()), (3, node()), (16, Machine::cluster(16))]
}

fn engine() -> (Engine, std::sync::Arc<CompiledKernel>) {
    let engine = Engine::new(MachineKind::SupercomputerNode, ExecConfig::gpus(1));
    let prog = compile_source(REVERSE, "rev", &CompileOptions::proposal()).unwrap();
    let kernel = std::sync::Arc::new(CompiledKernel::from_program(prog));
    (engine, kernel)
}

/// A well-formed job on the engine that just failed one.
fn assert_runs_clean(engine: &Engine, kernel: &CompiledKernel, m: &mut Machine, ngpus: usize) {
    let (scalars, arrays) = inputs();
    let r = engine
        .launch_on(kernel, m, &ExecConfig::gpus(ngpus), scalars, arrays)
        .unwrap_or_else(|e| panic!("{ngpus} GPUs after the failed job: {e}"));
    let want: Vec<f64> = (0..N).rev().map(|i| i as f64).collect();
    assert_eq!(r.arrays[1].to_f64_vec(), want, "{ngpus} GPUs after the failed job");
}

#[test]
fn an_overflowing_miss_buffer_is_acc_r001_and_poisons_nothing() {
    let (engine, kernel) = engine();
    for (ngpus, mut m) in machines() {
        let cfg = ExecConfig::gpus(ngpus).miss_capacity(3);
        let (scalars, arrays) = inputs();
        let result = engine.launch_on(&kernel, &mut m, &cfg, scalars, arrays);
        if ngpus == 1 {
            // One GPU owns everything: nothing misses, nothing overflows.
            let want: Vec<f64> = (0..N).rev().map(|i| i as f64).collect();
            assert_eq!(result.unwrap().arrays[1].to_f64_vec(), want);
            continue;
        }
        let err = result.expect_err("a 3-record buffer cannot hold the misses");
        assert!(matches!(err, RunError::Exec(_)), "{ngpus} GPUs: {err}");
        assert_eq!(err.code(), "ACC-R001", "{ngpus} GPUs: {err}");
        assert_runs_clean(&engine, &kernel, &mut m, ngpus);
    }
}

#[test]
fn an_exhausted_memory_budget_is_acc_r002_and_poisons_nothing() {
    let (engine, kernel) = engine();
    for (ngpus, mut m) in machines().into_iter().take(3) {
        // 256 B a GPU: less than any share of two 512-byte arrays.
        let budgets: Vec<u64> = m.gpus.iter().map(|g| g.spec.mem_bytes).collect();
        for g in &mut m.gpus {
            g.spec.mem_bytes = 256;
        }
        let (scalars, arrays) = inputs();
        let err = engine
            .launch_on(&kernel, &mut m, &ExecConfig::gpus(ngpus), scalars, arrays)
            .expect_err("the windows cannot fit");
        assert!(matches!(err, RunError::Mem(_)), "{ngpus} GPUs: {err}");
        assert_eq!(err.code(), "ACC-R002", "{ngpus} GPUs: {err}");
        for (g, bytes) in m.gpus.iter_mut().zip(budgets) {
            g.spec.mem_bytes = bytes;
        }
        assert_runs_clean(&engine, &kernel, &mut m, ngpus);
    }
}
