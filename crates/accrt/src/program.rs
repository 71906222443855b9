//! Per-program runtime state: what outlives one run of a compiled
//! program when an [`Engine`](crate::Engine) caches it.

use std::sync::{Mutex, OnceLock};

use acc_kernel_ir as ir;
use ir::bytecode::CompiledBody;
use ir::regvm::{launch_types_match, run_compiled, RegCompiled};
use ir::{run_kernel_range_compiled, ExecCtx, Kernel};

use crate::mapper::TaskMapper;
use crate::KernelVm;

/// The state that rides with a compiled program rather than with one
/// run of it. [`run_program`](crate::run_program) lends each run a fresh
/// one, so the one-shot path is independent of earlier calls; an
/// [`Engine`](crate::Engine) keeps one per cached `CompiledKernel` and
/// lends it to every job running that program.
#[derive(Debug)]
pub(crate) struct ProgramState {
    /// Per-kernel split history for
    /// [`Schedule::CostModel`](crate::Schedule): the costs one job
    /// measures feed the split of the next job running the same program.
    /// Never consulted under [`Schedule::Equal`](crate::Schedule), so
    /// sharing it cannot change results there.
    pub(crate) mapper: Mutex<TaskMapper>,
    /// The kernels' executable forms, compiled by the first launch that
    /// needs them and immutable afterwards — once per program however
    /// many GPUs, launches and jobs run it.
    forms: Vec<KernelForms>,
}

#[derive(Debug, Default)]
struct KernelForms {
    body: OnceLock<CompiledBody>,
    /// Holds `None` when the optimizer declined the kernel.
    reg: OnceLock<Option<RegCompiled>>,
}

impl ProgramState {
    pub(crate) fn new(nkernels: usize) -> ProgramState {
        ProgramState {
            mapper: Mutex::new(TaskMapper::new(nkernels)),
            forms: (0..nkernels).map(|_| KernelForms::default()).collect(),
        }
    }

    /// What a launch of kernel `kidx` (`kernel`) executes under `vm`.
    pub(crate) fn code<'f>(
        &'f self,
        kidx: usize,
        kernel: &'f Kernel,
        vm: KernelVm,
    ) -> KernelCode<'f> {
        let forms = &self.forms[kidx];
        KernelCode {
            kernel,
            body: forms
                .body
                .get_or_init(|| ir::bytecode::compile(&kernel.body)),
            reg: match vm {
                KernelVm::Bytecode => None,
                KernelVm::Register => forms
                    .reg
                    .get_or_init(|| ir::regvm::compile(kernel))
                    .as_ref(),
            },
        }
    }

    /// The cached bytecode of kernel `kidx`, if a launch compiled it.
    #[cfg(test)]
    pub(crate) fn body(&self, kidx: usize) -> Option<&CompiledBody> {
        self.forms[kidx].body.get()
    }
}

/// One kernel as a launch runs it: shared by every GPU of the wave.
#[derive(Clone, Copy)]
pub(crate) struct KernelCode<'f> {
    pub(crate) kernel: &'f Kernel,
    body: &'f CompiledBody,
    /// Register-VM code, when the run selected [`KernelVm::Register`]
    /// and the optimizer accepted the kernel.
    reg: Option<&'f RegCompiled>,
}

impl KernelCode<'_> {
    /// Execute iterations `[lo, hi)`. The register VM is statically
    /// typed, so a launch whose dynamic types differ from the kernel's
    /// declarations takes the bytecode.
    pub(crate) fn run(&self, ctx: &mut ExecCtx<'_>, lo: i64, hi: i64) -> Result<(), ir::ExecError> {
        match self.reg {
            Some(rc) if launch_types_match(self.kernel, ctx) => run_compiled(rc, ctx, lo, hi),
            _ => run_kernel_range_compiled(self.kernel, self.body, ctx, lo, hi),
        }
    }
}
