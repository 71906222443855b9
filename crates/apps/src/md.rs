//! MD — the SHOC Lennard-Jones pairwise-force benchmark (Table II row 1).
//!
//! One parallel loop over atoms; each iteration walks the atom's neighbor
//! list and accumulates the LJ force. Access characteristics that drive
//! the paper's results:
//!
//! * `neigh` (the neighbor list, ~95% of the footprint) is read with a
//!   constant per-iteration stride → `localaccess(neigh) stride(maxneigh)`
//!   → distribution-based placement, and the strided reads are fixed by
//!   the 2-D layout transform;
//! * `force` is written affinely (`3*i + {0,1,2}`) →
//!   `localaccess(force) stride(3)`, distribution with the write-miss
//!   check statically elided;
//! * `pos` is read through the neighbor indices (gather) → no
//!   `localaccess`, replica-based placement; it is small and cache-
//!   resident, which is why real MD kernels survive the gather.
//!
//! Hence Table II column D: 2 of 3 arrays carry `localaccess`, and MD
//! needs no inter-GPU communication at all.
//!
//! The paper's input is 73728 atoms (SHOC default). We generate the same
//! shape synthetically: a jittered 48×48×32 lattice with the 124
//! lattice-nearest neighbors per atom (SHOC uses up to 128 with padding;
//! we keep the list full instead of padding — same traffic pattern).

use acc_kernel_ir::{Buffer, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The OpenACC source of the MD benchmark.
pub const SOURCE: &str = r#"
void md(int natoms, int maxneigh, double cutsq, double lj1, double lj2,
        double *pos, int *neigh, double *force) {
#pragma acc data copyin(pos[0:natoms*3], neigh[0:natoms*maxneigh]) copyout(force[0:natoms*3])
{
#pragma acc localaccess(neigh) stride(maxneigh)
#pragma acc localaccess(force) stride(3)
#pragma acc parallel loop
  for (int i = 0; i < natoms; i++) {
    double xi = pos[i*3];
    double yi = pos[i*3+1];
    double zi = pos[i*3+2];
    double fx = 0.0;
    double fy = 0.0;
    double fz = 0.0;
    for (int k = 0; k < maxneigh; k++) {
      int j = neigh[i*maxneigh + k];
      double dx = pos[j*3] - xi;
      double dy = pos[j*3+1] - yi;
      double dz = pos[j*3+2] - zi;
      double r2 = dx*dx + dy*dy + dz*dz;
      if (r2 < cutsq) {
        double r2inv = 1.0 / r2;
        double r6inv = r2inv * r2inv * r2inv;
        double fc = r2inv * r6inv * (lj1 * r6inv - lj2);
        fx += fc * dx;
        fy += fc * dy;
        fz += fc * dz;
      }
    }
    force[i*3] = fx;
    force[i*3+1] = fy;
    force[i*3+2] = fz;
  }
}
}
"#;

/// Entry function name.
pub const FUNCTION: &str = "md";

/// Workload configuration.
#[derive(Debug, Clone)]
pub struct MdConfig {
    /// Lattice dimensions; `natoms = nx * ny * nz`.
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
    /// Neighbors per atom (a 5×5×5 lattice ball minus self = 124).
    pub maxneigh: usize,
    pub cutsq: f64,
    pub lj1: f64,
    pub lj2: f64,
}

impl MdConfig {
    /// The paper's input size: 73728 atoms (48×48×32), 124 neighbors.
    pub fn paper() -> MdConfig {
        MdConfig {
            nx: 48,
            ny: 48,
            nz: 32,
            maxneigh: 124,
            cutsq: 13.0,
            lj1: 1.5,
            lj2: 2.0,
        }
    }

    /// A reduced size for unit tests / quick runs.
    pub fn small() -> MdConfig {
        MdConfig {
            nx: 12,
            ny: 8,
            nz: 8,
            maxneigh: 26, // 3x3x3 ball minus self
            cutsq: 13.0,
            lj1: 1.5,
            lj2: 2.0,
        }
    }

    /// Total atom count.
    pub fn natoms(&self) -> usize {
        self.nx * self.ny * self.nz
    }
}

/// Generated inputs for one MD run.
#[derive(Debug, Clone)]
pub struct MdInput {
    pub cfg: MdConfig,
    pub pos: Vec<f64>,
    pub neigh: Vec<i32>,
}

/// Generate a jittered-lattice workload with lattice-ball neighbor lists
/// (the access pattern of a sorted SHOC neighbor list).
pub fn generate(cfg: &MdConfig, seed: u64) -> MdInput {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = cfg.natoms();
    let mut pos = Vec::with_capacity(n * 3);
    for _ in 0..cfg.nz {
        for _ in 0..cfg.ny {
            for _ in 0..cfg.nx {
                // Jitter is applied around the lattice point below; the
                // lattice coordinate itself is reconstructed in the loop.
                pos.push(rng.gen_range(-0.2..0.2));
                pos.push(rng.gen_range(-0.2..0.2));
                pos.push(rng.gen_range(-0.2..0.2));
            }
        }
    }
    // Add the lattice coordinates.
    let mut idx = 0usize;
    for z in 0..cfg.nz {
        for y in 0..cfg.ny {
            for x in 0..cfg.nx {
                pos[idx] += x as f64;
                pos[idx + 1] += y as f64;
                pos[idx + 2] += z as f64;
                idx += 3;
            }
        }
    }

    // Neighbor offsets: lattice ball sorted by distance, nearest first.
    let r = ball_radius_for(cfg.maxneigh);
    let mut offsets: Vec<(i64, i64, i64)> = Vec::new();
    for dz in -r..=r {
        for dy in -r..=r {
            for dx in -r..=r {
                if dx == 0 && dy == 0 && dz == 0 {
                    continue;
                }
                offsets.push((dx, dy, dz));
            }
        }
    }
    offsets.sort_by_key(|&(x, y, z)| x * x + y * y + z * z);
    offsets.truncate(cfg.maxneigh);
    assert_eq!(
        offsets.len(),
        cfg.maxneigh,
        "maxneigh must be ≤ the lattice ball size"
    );

    let (nx, ny, nz) = (cfg.nx as i64, cfg.ny as i64, cfg.nz as i64);
    let mut neigh = Vec::with_capacity(n * cfg.maxneigh);
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                for &(dx, dy, dz) in &offsets {
                    // Periodic wraparound keeps every list full.
                    let xx = (x + dx).rem_euclid(nx);
                    let yy = (y + dy).rem_euclid(ny);
                    let zz = (z + dz).rem_euclid(nz);
                    neigh.push((zz * ny * nx + yy * nx + xx) as i32);
                }
            }
        }
    }
    MdInput {
        cfg: cfg.clone(),
        pos,
        neigh,
    }
}

fn ball_radius_for(maxneigh: usize) -> i64 {
    let mut r = 1i64;
    while ((2 * r + 1).pow(3) - 1) < maxneigh as i64 {
        r += 1;
    }
    r
}

/// Program inputs: `(scalars, arrays)` in parameter order.
pub fn inputs(input: &MdInput) -> (Vec<Value>, Vec<Buffer>) {
    let cfg = &input.cfg;
    (
        vec![
            Value::I32(cfg.natoms() as i32),
            Value::I32(cfg.maxneigh as i32),
            Value::F64(cfg.cutsq),
            Value::F64(cfg.lj1),
            Value::F64(cfg.lj2),
        ],
        vec![
            Buffer::from_f64(&input.pos),
            Buffer::from_i32(&input.neigh),
            Buffer::zeroed(acc_kernel_ir::Ty::F64, cfg.natoms() * 3),
        ],
    )
}

/// Index of the `force` output array in the program's array parameters.
pub const FORCE_ARRAY: usize = 2;

/// Pure-Rust reference implementation (the correctness oracle).
pub fn reference(input: &MdInput) -> Vec<f64> {
    let cfg = &input.cfg;
    let n = cfg.natoms();
    let mut force = vec![0.0f64; n * 3];
    for i in 0..n {
        let (xi, yi, zi) = (
            input.pos[i * 3],
            input.pos[i * 3 + 1],
            input.pos[i * 3 + 2],
        );
        let (mut fx, mut fy, mut fz) = (0.0, 0.0, 0.0);
        for k in 0..cfg.maxneigh {
            let j = input.neigh[i * cfg.maxneigh + k] as usize;
            let dx = input.pos[j * 3] - xi;
            let dy = input.pos[j * 3 + 1] - yi;
            let dz = input.pos[j * 3 + 2] - zi;
            let r2 = dx * dx + dy * dy + dz * dz;
            if r2 < cfg.cutsq {
                let r2inv = 1.0 / r2;
                let r6inv = r2inv * r2inv * r2inv;
                let fc = r2inv * r6inv * (cfg.lj1 * r6inv - cfg.lj2);
                fx += fc * dx;
                fy += fc * dy;
                fz += fc * dz;
            }
        }
        force[i * 3] = fx;
        force[i * 3 + 1] = fy;
        force[i * 3 + 2] = fz;
    }
    force
}

/// The largest [`max_error`] a correct run may show.
pub const TOLERANCE: f64 = 1e-9;

/// Maximum absolute element difference against the oracle.
pub fn max_error(force: &[f64], reference: &[f64]) -> f64 {
    force
        .iter()
        .zip(reference)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_table2() {
        let cfg = MdConfig::paper();
        assert_eq!(cfg.natoms(), 73728);
        // Table II: 39.8 MB of device data in single-GPU execution.
        let bytes = cfg.natoms() * 3 * 8   // pos
            + cfg.natoms() * cfg.maxneigh * 4 // neigh
            + cfg.natoms() * 3 * 8; // force
        let mb = bytes as f64 / 1e6;
        assert!((38.0..44.0).contains(&mb), "footprint {mb} MB");
    }

    #[test]
    fn generator_is_deterministic() {
        let cfg = MdConfig::small();
        let a = generate(&cfg, 7);
        let b = generate(&cfg, 7);
        assert_eq!(a.pos, b.pos);
        assert_eq!(a.neigh, b.neigh);
        let c = generate(&cfg, 8);
        assert_ne!(a.pos, c.pos);
    }

    #[test]
    fn neighbor_lists_are_valid() {
        let cfg = MdConfig::small();
        let input = generate(&cfg, 1);
        let n = cfg.natoms() as i32;
        assert_eq!(input.neigh.len(), cfg.natoms() * cfg.maxneigh);
        assert!(input.neigh.iter().all(|&j| j >= 0 && j < n));
        // No self-neighbors.
        for i in 0..cfg.natoms() {
            for k in 0..cfg.maxneigh {
                assert_ne!(input.neigh[i * cfg.maxneigh + k], i as i32);
            }
        }
    }

    #[test]
    fn reference_produces_finite_nonzero_forces() {
        let cfg = MdConfig::small();
        let input = generate(&cfg, 2);
        let f = reference(&input);
        assert!(f.iter().all(|v| v.is_finite()));
        assert!(f.iter().any(|&v| v != 0.0));
    }
}
