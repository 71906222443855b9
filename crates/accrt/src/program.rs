//! Per-program runtime state: what outlives one run of a compiled
//! program when an [`Engine`](crate::Engine) caches it.

use std::sync::{Mutex, OnceLock};

use acc_kernel_ir as ir;
use ir::regvm::{launch_types_match, run_compiled, RegCompiled};
use ir::{ExecCtx, Kernel};

use acc_compiler::CompiledProgram;

use crate::mapper::TaskMapper;
use crate::{KernelVm, RunError};

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
    /// Every kernel's register-tier code, typed and compiled by the first
    /// run's admission ([`ProgramState::check`]) and immutable afterwards
    /// — once per program however many GPUs, launches and jobs run it —
    /// or the refusal of the first kernel that cannot be typed.
    pub(crate) compiled: OnceLock<Result<Vec<RegCompiled>, String>>,
}

impl ProgramState {
    pub(crate) fn new(nkernels: usize) -> ProgramState {
        ProgramState {
            mapper: Mutex::new(TaskMapper::new(nkernels)),
            compiled: OnceLock::new(),
        }
    }

    /// Admit `prog`, the program this state rides with: type every
    /// kernel once, and refuse the program when one is malformed or
    /// cannot be typed. Every run passes through here, so a hand-built
    /// `CompiledProgram` with an unresolvable slot, a stray `break` or
    /// an ill-typed expression reaches no interpreter, under either
    /// [`KernelVm`].
    pub(crate) fn check(&self, prog: &CompiledProgram) -> Result<&[RegCompiled], RunError> {
        let compiled = self.compiled.get_or_init(|| {
            let kernels = prog.kernels.iter();
            kernels
                .map(|ck| ir::regvm::compile(&ck.kernel).map_err(|e| e.to_string()))
                .collect()
        });
        compiled
            .as_deref()
            .map_err(|m| RunError::Compile(m.clone()))
    }

    /// What a launch of kernel `kidx` of `prog` executes under `vm`.
    pub(crate) fn code<'f>(
        &'f self,
        prog: &'f CompiledProgram,
        kidx: usize,
        vm: KernelVm,
    ) -> Result<KernelCode<'f>, RunError> {
        Ok(KernelCode {
            kernel: &prog.kernels[kidx].kernel,
            reg: &self.check(prog)?[kidx],
            vm,
        })
    }
}

/// One kernel as a launch runs it: shared by every GPU of the wave.
#[derive(Clone, Copy)]
pub(crate) struct KernelCode<'f> {
    pub(crate) kernel: &'f Kernel,
    reg: &'f RegCompiled,
    vm: KernelVm,
}

impl KernelCode<'_> {
    /// Execute iterations `[lo, hi)` on the run's tier. The kernel was
    /// typed against its declarations, so a launch that binds values of
    /// other types is refused rather than run another way.
    pub(crate) fn run(&self, ctx: &mut ExecCtx<'_>, lo: i64, hi: i64) -> Result<(), RunError> {
        if !launch_types_match(self.kernel, ctx) {
            return Err(RunError::BadInputs(format!(
                "kernel `{}`: launch binds values of other types than it declares",
                self.kernel.name
            )));
        }
        match self.vm {
            KernelVm::Register => run_compiled(self.reg, ctx, lo, hi)?,
            KernelVm::Bytecode => ir::run_kernel_range(self.kernel, ctx, lo, hi)?,
        }
        Ok(())
    }
}
