//! Per-program runtime state: what outlives one run of a compiled
//! program when an [`Engine`](crate::Engine) caches it.

use std::sync::{Mutex, OnceLock};

use acc_kernel_ir as ir;
use ir::bytecode::CompiledBody;
use ir::regvm::{launch_types_match, run_compiled, RegCompiled};
use ir::{run_kernel_range_compiled, ExecCtx, Kernel};

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
    /// The kernels' executable forms, compiled by the first launch that
    /// needs them and immutable afterwards — once per program however
    /// many GPUs, launches and jobs run it.
    forms: Vec<KernelForms>,
    /// The first kernel that fails [`Kernel::validate`], looked for once,
    /// by the first run: see [`ProgramState::check`].
    invalid: OnceLock<Option<String>>,
}

#[derive(Debug, Default)]
struct KernelForms {
    /// Holds `None` when the kernel cannot be statically typed.
    reg: OnceLock<Option<RegCompiled>>,
    /// The stack bytecode, built by the first launch that runs it: every
    /// launch under [`KernelVm::Bytecode`], otherwise only one that fell
    /// back from the register tier.
    body: OnceLock<CompiledBody>,
}

impl ProgramState {
    pub(crate) fn new(nkernels: usize) -> ProgramState {
        ProgramState {
            mapper: Mutex::new(TaskMapper::new(nkernels)),
            forms: (0..nkernels).map(|_| KernelForms::default()).collect(),
            invalid: OnceLock::new(),
        }
    }

    /// Refuse `prog`, the program this state rides with, when one of its
    /// kernels is malformed. Every run passes through here, so a
    /// hand-built `CompiledProgram` with an unresolvable slot or a stray
    /// `break` reaches neither a tier compiler nor an interpreter.
    pub(crate) fn check(&self, prog: &CompiledProgram) -> Result<(), RunError> {
        let invalid = self.invalid.get_or_init(|| {
            let mut kernels = prog.kernels.iter().map(|ck| &ck.kernel);
            kernels.find_map(|k| Some(format!("kernel `{}`: {}", k.name, k.validate().err()?)))
        });
        invalid
            .clone()
            .map_or(Ok(()), |m| Err(RunError::Compile(m)))
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
            reg: match vm {
                KernelVm::Bytecode => None,
                KernelVm::Register => forms
                    .reg
                    .get_or_init(|| ir::regvm::compile(kernel))
                    .as_ref(),
            },
            body: &forms.body,
        }
    }

    /// The cached forms of kernel `kidx`, where a launch compiled them.
    #[cfg(test)]
    pub(crate) fn forms(&self, kidx: usize) -> (Option<&RegCompiled>, Option<&CompiledBody>) {
        let forms = &self.forms[kidx];
        (forms.reg.get().and_then(Option::as_ref), forms.body.get())
    }
}

/// One kernel as a launch runs it: shared by every GPU of the wave.
#[derive(Clone, Copy)]
pub(crate) struct KernelCode<'f> {
    pub(crate) kernel: &'f Kernel,
    /// Register-tier code, when the run selected [`KernelVm::Register`]
    /// and the kernel is statically typed.
    reg: Option<&'f RegCompiled>,
    body: &'f OnceLock<CompiledBody>,
}

impl KernelCode<'_> {
    /// Execute iterations `[lo, hi)`. The register tier is statically
    /// typed, so a launch whose dynamic types differ from the kernel's
    /// declarations takes the bytecode.
    pub(crate) fn run(&self, ctx: &mut ExecCtx<'_>, lo: i64, hi: i64) -> Result<(), ir::ExecError> {
        match self.reg {
            Some(rc) if launch_types_match(self.kernel, ctx) => run_compiled(rc, ctx, lo, hi),
            _ => {
                let body = self
                    .body
                    .get_or_init(|| ir::bytecode::compile(&self.kernel.body));
                run_kernel_range_compiled(self.kernel, body, ctx, lo, hi)
            }
        }
    }
}
