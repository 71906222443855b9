//! Machine presets reproducing the paper's Table I platforms.

use crate::memory::DeviceMemory;
use crate::{CpuSpec, GpuSpec, Topology};

/// Which Table I platform a [`Machine`] models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineKind {
    /// 1× Intel Core i7 (6c/HT) + 2× Tesla C2075.
    Desktop,
    /// TSUBAME2.0 thin node: 2× Intel Xeon (12c/HT) + 3× Tesla M2050.
    SupercomputerNode,
}

impl MachineKind {
    /// Human-readable platform name as used in the paper.
    pub fn label(self) -> &'static str {
        match self {
            MachineKind::Desktop => "Desktop Machine",
            MachineKind::SupercomputerNode => "Supercomputer Node",
        }
    }

    /// Number of GPUs installed on this platform.
    pub fn max_gpus(self) -> usize {
        match self {
            MachineKind::Desktop => 2,
            MachineKind::SupercomputerNode => 3,
        }
    }
}

/// One simulated GPU: its model plus its private memory.
#[derive(Debug)]
pub struct Gpu {
    /// GPU index on the machine.
    pub id: usize,
    /// Device model.
    pub spec: GpuSpec,
    /// The GPU's physically separate device memory.
    pub memory: DeviceMemory,
}

/// A single compute node with CPUs, GPUs and the PCIe bus — the system of
/// paper Fig. 2.
#[derive(Debug)]
pub struct Machine {
    pub kind: MachineKind,
    pub cpu: CpuSpec,
    pub gpus: Vec<Gpu>,
    pub bus: Topology,
}

impl Machine {
    /// Build the desktop machine (Table I, left column).
    pub fn desktop() -> Machine {
        Machine::with_kind(MachineKind::Desktop)
    }

    /// Build the supercomputer node (Table I, right column).
    pub fn supercomputer_node() -> Machine {
        Machine::with_kind(MachineKind::SupercomputerNode)
    }

    /// Build either preset.
    pub fn with_kind(kind: MachineKind) -> Machine {
        match kind {
            MachineKind::Desktop => {
                let spec = GpuSpec::tesla_c2075();
                Machine {
                    kind,
                    cpu: CpuSpec::core_i7_desktop(),
                    gpus: (0..2)
                        .map(|id| Gpu {
                            id,
                            memory: DeviceMemory::new(spec.mem_bytes),
                            spec: spec.clone(),
                        })
                        .collect(),
                    bus: Topology::desktop(),
                }
            }
            MachineKind::SupercomputerNode => {
                let spec = GpuSpec::tesla_m2050();
                Machine {
                    kind,
                    cpu: CpuSpec::dual_xeon_node(),
                    gpus: (0..3)
                        .map(|id| Gpu {
                            id,
                            memory: DeviceMemory::new(spec.mem_bytes),
                            spec: spec.clone(),
                        })
                        .collect(),
                    bus: Topology::supercomputer_node(),
                }
            }
        }
    }

    /// Build a supercomputer-node variant with `n` GPUs instead of the
    /// installed 3 — the same Tesla M2050s on the same PCIe fabric. The
    /// paper's platforms stop at 3 GPUs; this widened node exists to
    /// exercise runtime edge cases (e.g. more GPUs than loop
    /// iterations) that the presets cannot reach.
    pub fn supercomputer_node_with_gpus(n: usize) -> Machine {
        let spec = GpuSpec::tesla_m2050();
        Machine {
            kind: MachineKind::SupercomputerNode,
            cpu: CpuSpec::dual_xeon_node(),
            gpus: (0..n)
                .map(|id| Gpu {
                    id,
                    memory: DeviceMemory::new(spec.mem_bytes),
                    spec: spec.clone(),
                })
                .collect(),
            bus: Topology::supercomputer_node(),
        }
    }

    /// Build a hierarchical cluster of `n` Tesla M2050s on the
    /// [`Topology::cluster`] topology: 8-GPU
    /// NVLink islands, two islands per node behind the TSUBAME-class
    /// PCIe root complex, nodes joined by an inter-node fabric. The
    /// `kind` stays [`MachineKind::SupercomputerNode`] — this is the
    /// scaled-out sequel to that platform, not a new Table I column —
    /// so every existing per-kind pricing path applies unchanged.
    pub fn cluster(n: usize) -> Machine {
        let spec = GpuSpec::tesla_m2050();
        Machine {
            kind: MachineKind::SupercomputerNode,
            cpu: CpuSpec::dual_xeon_node(),
            gpus: (0..n)
                .map(|id| Gpu {
                    id,
                    memory: DeviceMemory::new(spec.mem_bytes),
                    spec: spec.clone(),
                })
                .collect(),
            bus: Topology::cluster(),
        }
    }

    /// Number of GPUs installed.
    pub fn n_gpus(&self) -> usize {
        self.gpus.len()
    }

    /// Reset the bus timelines and every GPU's memory (fresh run).
    pub fn reset(&mut self) {
        self.bus.reset();
        for g in &mut self.gpus {
            g.memory = DeviceMemory::new(g.spec.mem_bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn desktop_matches_table1() {
        let m = Machine::desktop();
        assert_eq!(m.n_gpus(), 2);
        assert_eq!(m.gpus[0].spec.name, "Tesla C2075");
        assert_eq!(m.cpu.omp_threads, 12);
        assert_eq!(m.kind.max_gpus(), 2);
    }

    #[test]
    fn node_matches_table1() {
        let m = Machine::supercomputer_node();
        assert_eq!(m.n_gpus(), 3);
        assert_eq!(m.gpus[0].spec.name, "Tesla M2050");
        assert_eq!(m.cpu.omp_threads, 24);
        // M2050 has half the memory of C2075.
        assert!(m.gpus[0].spec.mem_bytes < Machine::desktop().gpus[0].spec.mem_bytes);
    }

    #[test]
    fn gpus_have_private_memories() {
        let mut m = Machine::desktop();
        let h = m.gpus[0]
            .memory
            .alloc(acc_kernel_ir::Ty::F64, 100, crate::memory::AllocClass::User)
            .unwrap();
        assert!(m.gpus[0].memory.get(h).is_ok());
        // Handle from GPU 0 means nothing to GPU 1.
        assert!(m.gpus[1].memory.get(h).is_err());
    }

    #[test]
    fn cluster_is_hierarchical() {
        let m = Machine::cluster(64);
        assert_eq!(m.n_gpus(), 64);
        assert_eq!(m.kind, MachineKind::SupercomputerNode);
        assert!(m.bus.is_hierarchical());
        // 64 GPUs = 4 nodes of 2 islands each.
        assert_eq!(m.bus.node(63), 3);
        assert_eq!(m.bus.island(63), 7);
    }

    #[test]
    fn reset_restores_memory() {
        let mut m = Machine::desktop();
        m.gpus[0]
            .memory
            .alloc(acc_kernel_ir::Ty::F64, 100, crate::memory::AllocClass::User)
            .unwrap();
        m.reset();
        assert_eq!(m.gpus[0].memory.in_use(), 0);
    }
}
