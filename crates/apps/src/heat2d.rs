//! HEAT2D — a 2-D Jacobi heat-diffusion stencil, the paper's declared
//! *future work* case (§VI: "the performance improvement from the current
//! system is not large for some important applications, e.g. stencil
//! computations").
//!
//! This module demonstrates both halves of that statement:
//!
//! * the existing 1-D `localaccess` machinery *can* run a 2-D stencil by
//!   distributing rows — `stride(cols) left(cols) right(cols)` gives each
//!   GPU its row block plus one halo row on each side, and the loader
//!   refreshes the halos between launches (correctness holds on any GPU
//!   count, which the tests verify);
//! * the strict §IV-D2 prover cannot prove the column-offset writes
//!   local (`b[i*cols + j]` has a runtime row stride and a dynamic
//!   offset), but the interval/symbolic prover (`acc_compiler::range`)
//!   can: `cols` is the stride symbol `S`, the inner loop bounds
//!   `j ∈ [0, S-1]`, so every store lands in `[S*i, S*(i+1)-1]` and the
//!   write-miss check is elided — the per-iteration halo refresh is what
//!   remains of the §VI "not large" improvement, regenerated by
//!   `figures -- extension-stencil`.
//!
//! Not part of the paper's published Table II, but promoted into
//! `App::ALL` (with [`crate::spmv`]) for workload breadth: the linter,
//! sanitizer and bench matrix cover it in CI.

use acc_kernel_ir::{Buffer, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The OpenACC source: two Jacobi sweeps (a→b, b→a) per iteration so the
/// result lands back in `a`.
pub const SOURCE: &str = r#"
void heat2d(int rows, int cols, int iters, double *a, double *b) {
#pragma acc data copy(a[0:rows*cols]) copyin(b[0:rows*cols])
{
  int t = 0;
  while (t < iters) {
#pragma acc localaccess(a) stride(cols) left(cols) right(cols)
#pragma acc localaccess(b) stride(cols)
#pragma acc parallel loop
    for (int i = 0; i < rows; i++) {
      for (int j = 0; j < cols; j++) {
        double c = a[i*cols + j];
        double up = c;
        double dn = c;
        double lf = c;
        double rt = c;
        if (i > 0) up = a[(i-1)*cols + j];
        if (i < rows - 1) dn = a[(i+1)*cols + j];
        if (j > 0) lf = a[i*cols + j - 1];
        if (j < cols - 1) rt = a[i*cols + j + 1];
        b[i*cols + j] = c + 0.2 * (up + dn + lf + rt - 4.0 * c);
      }
    }
#pragma acc localaccess(b) stride(cols) left(cols) right(cols)
#pragma acc localaccess(a) stride(cols)
#pragma acc parallel loop
    for (int i = 0; i < rows; i++) {
      for (int j = 0; j < cols; j++) {
        double c = b[i*cols + j];
        double up = c;
        double dn = c;
        double lf = c;
        double rt = c;
        if (i > 0) up = b[(i-1)*cols + j];
        if (i < rows - 1) dn = b[(i+1)*cols + j];
        if (j > 0) lf = b[i*cols + j - 1];
        if (j < cols - 1) rt = b[i*cols + j + 1];
        a[i*cols + j] = c + 0.2 * (up + dn + lf + rt - 4.0 * c);
      }
    }
    t = t + 1;
  }
}
}
"#;

/// Entry function name.
pub const FUNCTION: &str = "heat2d";

/// Workload configuration.
#[derive(Debug, Clone)]
pub struct Heat2dConfig {
    pub rows: usize,
    pub cols: usize,
    /// Outer iterations (each runs two Jacobi sweeps → 2 kernel launches).
    pub iters: usize,
}

impl Heat2dConfig {
    /// A plate large enough that halo traffic is visible against compute.
    pub fn scaled() -> Heat2dConfig {
        Heat2dConfig {
            rows: 1024,
            cols: 1024,
            iters: 10,
        }
    }

    /// A reduced size for unit tests.
    pub fn small() -> Heat2dConfig {
        Heat2dConfig {
            rows: 48,
            cols: 32,
            iters: 3,
        }
    }

    /// Total cells.
    pub fn cells(&self) -> usize {
        self.rows * self.cols
    }
}

/// Generated input plate.
#[derive(Debug, Clone)]
pub struct Heat2dInput {
    pub cfg: Heat2dConfig,
    pub plate: Vec<f64>,
}

/// Random hot spots on a cold plate.
pub fn generate(cfg: &Heat2dConfig, seed: u64) -> Heat2dInput {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut plate = vec![0.0f64; cfg.cells()];
    for _ in 0..(cfg.cells() / 64).max(1) {
        let i = rng.gen_range(0..cfg.rows);
        let j = rng.gen_range(0..cfg.cols);
        plate[i * cfg.cols + j] = rng.gen_range(100.0..1000.0);
    }
    Heat2dInput {
        cfg: cfg.clone(),
        plate,
    }
}

/// Program inputs `(scalars, arrays)` in parameter order.
pub fn inputs(input: &Heat2dInput) -> (Vec<Value>, Vec<Buffer>) {
    let cfg = &input.cfg;
    (
        vec![
            Value::I32(cfg.rows as i32),
            Value::I32(cfg.cols as i32),
            Value::I32(cfg.iters as i32),
        ],
        vec![
            Buffer::from_f64(&input.plate),
            Buffer::zeroed(acc_kernel_ir::Ty::F64, cfg.cells()),
        ],
    )
}

/// Index of the result array (`a`).
pub const PLATE_ARRAY: usize = 0;

/// Pure-Rust oracle.
pub fn reference(input: &Heat2dInput) -> Vec<f64> {
    let cfg = &input.cfg;
    let (rows, cols) = (cfg.rows, cfg.cols);
    let mut a = input.plate.clone();
    let mut b = vec![0.0f64; cfg.cells()];
    let sweep = |src: &[f64], dst: &mut [f64]| {
        for i in 0..rows {
            for j in 0..cols {
                let c = src[i * cols + j];
                let up = if i > 0 { src[(i - 1) * cols + j] } else { c };
                let dn = if i < rows - 1 { src[(i + 1) * cols + j] } else { c };
                let lf = if j > 0 { src[i * cols + j - 1] } else { c };
                let rt = if j < cols - 1 { src[i * cols + j + 1] } else { c };
                dst[i * cols + j] = c + 0.2 * (up + dn + lf + rt - 4.0 * c);
            }
        }
    };
    for _ in 0..cfg.iters {
        sweep(&a, &mut b);
        sweep(&b, &mut a);
    }
    a
}

/// The largest [`max_error`] a correct run may show: the halo copies
/// are exact, so only the oracle's own rounding remains.
pub const TOLERANCE: f64 = 1e-12;

/// Maximum absolute element difference against the oracle.
pub fn max_error(got: &[f64], reference: &[f64]) -> f64 {
    got.iter()
        .zip(reference)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use acc_compiler::{compile_source, CompileOptions, Placement};
    use acc_gpusim::Machine;
    use acc_runtime::{run_program, ExecConfig};

    #[test]
    fn reference_conserves_heat() {
        // Jacobi with reflective edges conserves total heat.
        let cfg = Heat2dConfig::small();
        let input = generate(&cfg, 3);
        let before: f64 = input.plate.iter().sum();
        let after: f64 = reference(&input).iter().sum();
        assert!((before - after).abs() < 1e-6 * before.abs().max(1.0));
    }

    #[test]
    fn rows_distribute_with_halo_rows() {
        let prog = compile_source(SOURCE, FUNCTION, &CompileOptions::proposal()).unwrap();
        assert_eq!(prog.kernels.len(), 2);
        for k in &prog.kernels {
            for c in &k.configs {
                assert_eq!(c.placement, Placement::Distributed, "{}", c.name);
            }
            // The dynamic column offset defeats the strict §IV-D2 proof,
            // but the interval prover shows `j ∈ [0, cols-1]` and elides
            // the write-miss check symbolically.
            let written = k.configs.iter().find(|c| c.mode.writes()).unwrap();
            assert!(written.miss_check_elided);
            assert_eq!(written.lint.elision, acc_compiler::ElisionProof::Interval);
            // All halo reads fit the declared window: no ACC-W003.
            for c in &k.configs {
                assert_eq!(c.lint.window_violations, 0, "{}", c.name);
            }
        }
        // No checked stores remain anywhere in the generated kernels.
        for k in &prog.kernels {
            for s in &k.kernel.body {
                s.visit(&mut |s| {
                    if let acc_kernel_ir::Stmt::Store { checked, .. } = s {
                        assert!(!checked);
                    }
                });
            }
        }
    }

    #[test]
    fn elided_run_matches_forced_checked_serial_reference() {
        // Cross-check the static elision verdict: re-arming the miss
        // checks and running the serial reference comm path must produce
        // identical simulated results and array contents, with zero
        // observed misses (every store really was local).
        let cfg = Heat2dConfig::small();
        let input = generate(&cfg, 11);
        let elided = compile_source(SOURCE, FUNCTION, &CompileOptions::proposal()).unwrap();
        let mut forced = elided.clone();
        acc_compiler::force_miss_checks(&mut forced);
        assert!(forced.kernels.iter().any(|k| k
            .configs
            .iter()
            .any(|c| !c.miss_check_elided && c.mode.writes())));
        for ngpus in 1..=3 {
            let run = |prog| {
                let mut m = Machine::supercomputer_node();
                let (scalars, arrays) = inputs(&input);
                run_program(&mut m, &ExecConfig::gpus(ngpus), prog, scalars, arrays).unwrap()
            };
            let re = run(&elided);
            let rf = run(&forced);
            assert_eq!(
                re.arrays[PLATE_ARRAY].to_f64_vec(),
                rf.arrays[PLATE_ARRAY].to_f64_vec(),
                "ngpus={ngpus}"
            );
            // The forced-checked run observes zero misses: the proof held.
            assert_eq!(rf.profile.miss_records, 0, "ngpus={ngpus}");
        }
    }

    #[test]
    fn matches_oracle_on_1_2_3_gpus() {
        let cfg = Heat2dConfig::small();
        let input = generate(&cfg, 9);
        let expect = reference(&input);
        let prog = compile_source(SOURCE, FUNCTION, &CompileOptions::proposal()).unwrap();
        for ngpus in 1..=3 {
            let mut m = Machine::supercomputer_node();
            let (scalars, arrays) = inputs(&input);
            let r = run_program(&mut m, &ExecConfig::gpus(ngpus), &prog, scalars, arrays)
                .unwrap();
            let err = max_error(&r.arrays[PLATE_ARRAY].to_f64_vec(), &expect);
            assert!(err < TOLERANCE, "ngpus={ngpus} err={err}");
        }
    }

    #[test]
    fn fully_sanitized_run_confirms_static_verdicts() {
        // The dynamic cross-check of the linter's verdicts: auditing
        // every elided store against ownership and every load against
        // its declared window observes zero violations on 1..3 GPUs.
        let cfg = Heat2dConfig::small();
        let input = generate(&cfg, 7);
        let prog = compile_source(SOURCE, FUNCTION, &CompileOptions::proposal()).unwrap();
        for ngpus in 1..=3 {
            let mut m = Machine::supercomputer_node();
            let (scalars, arrays) = inputs(&input);
            let ecfg = ExecConfig::gpus(ngpus).sanitize(acc_runtime::SanitizeLevel::Full);
            let r = run_program(&mut m, &ecfg, &prog, scalars, arrays).unwrap();
            assert_eq!(r.trace.counters().sanitize_violations, 0, "ngpus={ngpus}");
        }
    }

    #[test]
    fn halo_refresh_generates_p2p_traffic() {
        let cfg = Heat2dConfig::small();
        let input = generate(&cfg, 9);
        let prog = compile_source(SOURCE, FUNCTION, &CompileOptions::proposal()).unwrap();
        let mut m = Machine::supercomputer_node();
        let (scalars, arrays) = inputs(&input);
        let r = run_program(&mut m, &ExecConfig::gpus(3), &prog, scalars, arrays).unwrap();
        // Halo rows are re-fetched from their owner GPUs between sweeps.
        assert!(r.profile.p2p_bytes > 0);
    }
}
