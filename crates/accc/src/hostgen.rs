//! Host-program generation.
//!
//! "The translator replaces the original loop with the call statement for
//! the kernel function \[and\] generates the CUDA host code which includes
//! the control codes to initialize the devices, to call the kernel
//! functions, and to control the data movement among the distributed
//! memories" (§IV-B). Here the host program is a small op tree the
//! `acc-runtime` executor walks; data movement is delegated to the runtime
//! (§IV-B1) through the `Region` and `Update` ops. Regions are structured:
//! every launch sits inside regions covering each array it uses, because
//! hostgen wraps it in an innermost region for the arrays no enclosing
//! one covers (OpenACC's implicit per-launch `copy`).

use acc_kernel_ir as ir;
use acc_minic::directive::DataClauseKind;
use acc_minic::hir::{HostStmt, TypedDataClause, TypedFunction, TypedSection};

use crate::extract::extract_kernel;
use crate::{depend, CompileError, CompileOptions, CompiledKernel};

/// A resolved array (sub)section in a host op. Ranges are host-evaluated
/// `(start, len)` expressions; `None` = whole array.
#[derive(Debug, Clone)]
pub struct Section {
    pub array: usize,
    pub range: Option<(ir::Expr, ir::Expr)>,
}

/// A compiled data clause.
#[derive(Debug, Clone)]
pub struct CompiledClause {
    pub kind: DataClauseKind,
    pub sections: Vec<Section>,
}

/// One host operation.
#[derive(Debug, Clone)]
pub enum HostOp {
    /// Plain scalar/array statement executed on the (simulated) CPU.
    Plain(ir::Stmt),
    If {
        cond: ir::Expr,
        then_: Vec<HostOp>,
        else_: Vec<HostOp>,
    },
    While {
        cond: ir::Expr,
        body: Vec<HostOp>,
    },
    /// A data region: the runtime enters it per the clauses, runs the
    /// body, and exits it (copy-out and free) on every flow out of the
    /// body — fall-through, `break`, `continue` and `return` alike.
    Region {
        clauses: Vec<CompiledClause>,
        body: Vec<HostOp>,
    },
    /// Launch compiled kernel `kernels[idx]` as one BSP superstep.
    Launch { kernel: usize },
    /// `#pragma acc update`.
    Update {
        to_host: Vec<Section>,
        to_device: Vec<Section>,
    },
    /// Stop executing the host program.
    Return,
}

fn lower_sections(secs: &[TypedSection]) -> Vec<Section> {
    secs.iter()
        .map(|s| Section {
            array: s.buf.0 as usize,
            range: s.range.clone(),
        })
        .collect()
}

fn lower_clauses(clauses: &[TypedDataClause]) -> Vec<CompiledClause> {
    clauses
        .iter()
        .map(|c| CompiledClause {
            kind: c.kind,
            sections: lower_sections(&c.sections),
        })
        .collect()
}

/// The program arrays `clauses` name, one per section.
pub(crate) fn clause_arrays(clauses: &[CompiledClause]) -> impl Iterator<Item = usize> + '_ {
    clauses.iter().flat_map(|c| c.sections.iter().map(|s| s.array))
}

/// OpenACC's implicit per-launch region: the arrays of `ck` that no
/// enclosing region covers, `copy` if the kernel writes them and
/// `copyin` otherwise (a whole-array flush at exit only when written).
fn implicit_clauses(ck: &CompiledKernel, present: &[usize]) -> Vec<CompiledClause> {
    let uncovered = |writes: bool| -> Vec<Section> {
        ck.configs
            .iter()
            .filter(|c| c.mode.writes() == writes && !present.contains(&c.array))
            .map(|c| Section {
                array: c.array,
                range: None,
            })
            .collect()
    };
    [(DataClauseKind::Copy, true), (DataClauseKind::CopyIn, false)]
        .into_iter()
        .map(|(kind, writes)| CompiledClause {
            kind,
            sections: uncovered(writes),
        })
        .filter(|c| !c.sections.is_empty())
        .collect()
}

/// Lower a function's host body, extracting kernels as they are found
/// (`HostOp::Launch` indexes the returned kernel list).
pub fn lower_host(
    f: &TypedFunction,
    options: &CompileOptions,
) -> Result<(Vec<HostOp>, Vec<CompiledKernel>), CompileError> {
    let mut l = Lowering {
        f,
        options,
        written: depend::arrays_written_in_function(f),
        kernels: Vec::new(),
        present: Vec::new(),
    };
    let host = l.lower_block(&f.body)?;
    Ok((host, l.kernels))
}

struct Lowering<'a> {
    f: &'a TypedFunction,
    options: &'a CompileOptions,
    /// Per program array: does the function write it anywhere?
    written: Vec<bool>,
    kernels: Vec<CompiledKernel>,
    /// [`clause_arrays`] of the enclosing data regions.
    present: Vec<usize>,
}

impl Lowering<'_> {
    fn lower_block(&mut self, body: &[HostStmt]) -> Result<Vec<HostOp>, CompileError> {
        let mut out = Vec::new();
        for s in body {
            match s {
                HostStmt::Plain(st) => out.push(HostOp::Plain(st.clone())),
                HostStmt::If {
                    cond,
                    then_,
                    else_,
                } => {
                    let then_ = self.lower_block(then_)?;
                    let else_ = self.lower_block(else_)?;
                    out.push(HostOp::If {
                        cond: cond.clone(),
                        then_,
                        else_,
                    });
                }
                HostStmt::While { cond, body } => {
                    let body = self.lower_block(body)?;
                    out.push(HostOp::While {
                        cond: cond.clone(),
                        body,
                    });
                }
                HostStmt::DataRegion { clauses, body } => {
                    let clauses = lower_clauses(clauses);
                    let body = self.covered(&clauses, |l| l.lower_block(body))?;
                    out.push(HostOp::Region { clauses, body });
                }
                HostStmt::ParallelLoop(node) => {
                    let ck = extract_kernel(node, self.f, self.options, &self.written)?;
                    let clauses = lower_clauses(&node.data_clauses);
                    let implicit = self.covered(&clauses, |l| implicit_clauses(&ck, &l.present));
                    let mut op = HostOp::Launch {
                        kernel: self.kernels.len(),
                    };
                    self.kernels.push(ck);
                    for clauses in [implicit, clauses] {
                        if !clauses.is_empty() {
                            op = HostOp::Region {
                                clauses,
                                body: vec![op],
                            };
                        }
                    }
                    out.push(op);
                }
                HostStmt::Update { host, device } => out.push(HostOp::Update {
                    to_host: lower_sections(host),
                    to_device: lower_sections(device),
                }),
                HostStmt::Return => out.push(HostOp::Return),
            }
        }
        Ok(out)
    }

    /// Run `f` with the arrays of `clauses` marked present.
    fn covered<T>(&mut self, clauses: &[CompiledClause], f: impl FnOnce(&mut Self) -> T) -> T {
        let depth = self.present.len();
        self.present.extend(clause_arrays(clauses));
        let out = f(self);
        self.present.truncate(depth);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile_source;

    fn compile(src: &str) -> crate::CompiledProgram {
        compile_source(src, "f", &CompileOptions::proposal()).unwrap()
    }

    /// `(kind, arrays)` of each clause of a `Region` op.
    fn clauses_of(op: &HostOp) -> (Vec<(DataClauseKind, Vec<usize>)>, &[HostOp]) {
        let HostOp::Region { clauses, body } = op else {
            panic!("not a region: {op:?}")
        };
        let clauses = clauses
            .iter()
            .map(|c| (c.kind, c.sections.iter().map(|s| s.array).collect()))
            .collect();
        (clauses, body)
    }

    #[test]
    fn data_region_brackets_launch() {
        let p = compile(
            "void f(int n, double *x) {\n\
             #pragma acc data copy(x[0:n])\n\
             {\n\
             #pragma acc parallel loop\n\
             for (int i = 0; i < n; i++) x[i] = 0.0;\n\
             }\n\
             }",
        );
        assert_eq!(p.host.len(), 1);
        let (clauses, body) = clauses_of(&p.host[0]);
        assert_eq!(clauses, vec![(DataClauseKind::Copy, vec![0])]);
        assert!(matches!(body, [HostOp::Launch { kernel: 0 }]));
    }

    #[test]
    fn directive_clauses_make_implicit_region() {
        let p = compile(
            "void f(int n, double *x) {\n\
             #pragma acc parallel loop copy(x[0:n])\n\
             for (int i = 0; i < n; i++) x[i] = 0.0;\n\
             }",
        );
        assert_eq!(p.host.len(), 1);
        let (clauses, body) = clauses_of(&p.host[0]);
        assert_eq!(clauses, vec![(DataClauseKind::Copy, vec![0])]);
        assert!(matches!(body, [HostOp::Launch { kernel: 0 }]));
    }

    #[test]
    fn uncovered_arrays_get_an_innermost_implicit_region() {
        // `x` is covered by the data region; `y` (written) and `z` (read)
        // by nothing, so they get `copy` and `copyin` around the launch.
        let p = compile(
            "void f(int n, double *x, double *y, double *z) {\n\
             #pragma acc data copyin(x[0:n])\n\
             {\n\
             #pragma acc parallel loop\n\
             for (int i = 0; i < n; i++) y[i] = x[i] + z[i];\n\
             }\n\
             }",
        );
        let (outer, body) = clauses_of(&p.host[0]);
        assert_eq!(outer, vec![(DataClauseKind::CopyIn, vec![0])]);
        let (inner, body) = clauses_of(&body[0]);
        assert_eq!(
            inner,
            vec![(DataClauseKind::Copy, vec![1]), (DataClauseKind::CopyIn, vec![2])]
        );
        assert!(matches!(body, [HostOp::Launch { kernel: 0 }]));
    }

    #[test]
    fn implicit_region_nests_inside_the_directive_region() {
        let p = compile(
            "void f(int n, double *x, double *y) {\n\
             #pragma acc parallel loop copyin(x[0:n])\n\
             for (int i = 0; i < n; i++) y[i] = x[i];\n\
             }",
        );
        let (outer, body) = clauses_of(&p.host[0]);
        assert_eq!(outer, vec![(DataClauseKind::CopyIn, vec![0])]);
        let (inner, body) = clauses_of(&body[0]);
        assert_eq!(inner, vec![(DataClauseKind::Copy, vec![1])]);
        assert!(matches!(body, [HostOp::Launch { kernel: 0 }]));
    }

    #[test]
    fn launches_inside_host_loop() {
        let p = compile(
            "void f(int n, int iters, double *x) {\n\
             #pragma acc data copy(x[0:n])\n\
             {\n\
             int t = 0;\n\
             while (t < iters) {\n\
             #pragma acc parallel loop\n\
             for (int i = 0; i < n; i++) x[i] = x[i] + 1.0;\n\
             t = t + 1;\n\
             }\n\
             }\n\
             }",
        );
        assert_eq!(p.kernels.len(), 1);
        let (_, region) = clauses_of(&p.host[0]);
        let HostOp::While { body, .. } = &region[1] else {
            panic!("{:?}", p.host)
        };
        assert!(body.iter().any(|op| matches!(op, HostOp::Launch { .. })));
    }

    #[test]
    fn two_loops_two_kernels() {
        let p = compile(
            "void f(int n, double *x, double *y) {\n\
             #pragma acc parallel loop\n\
             for (int i = 0; i < n; i++) x[i] = 1.0;\n\
             #pragma acc parallel loop\n\
             for (int i = 0; i < n; i++) y[i] = x[i];\n\
             }",
        );
        assert_eq!(p.kernels.len(), 2);
        assert_eq!(p.kernels[0].kernel.name, "f_k0");
        assert_eq!(p.kernels[1].kernel.name, "f_k1");
        assert_eq!(p.n_parallel_loops(), 2);
    }

    #[test]
    fn update_lowered() {
        let p = compile(
            "void f(int n, double *x) {\n\
             #pragma acc update host(x[0:n])\n\
             }",
        );
        let HostOp::Update { to_host, to_device } = &p.host[0] else {
            panic!()
        };
        assert_eq!(to_host.len(), 1);
        assert!(to_device.is_empty());
        assert_eq!(to_host[0].array, 0);
    }
}
