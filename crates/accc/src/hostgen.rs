//! Host-program generation.
//!
//! "The translator replaces the original loop with the call statement for
//! the kernel function \[and\] generates the CUDA host code which includes
//! the control codes to initialize the devices, to call the kernel
//! functions, and to control the data movement among the distributed
//! memories" (§IV-B). Here the host program is a small op tree the
//! `acc-runtime` executor walks; data movement is delegated to the runtime
//! (§IV-B1) through the `DataEnter`/`DataExit`/`Update` ops.

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
    /// Enter a data region: the runtime allocates/loads per the clauses.
    DataEnter {
        region: usize,
        clauses: Vec<CompiledClause>,
    },
    /// Exit the region opened with the same id: copy-out and free.
    DataExit { region: usize },
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
        region_counter: 0,
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
    region_counter: usize,
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
                    let region = self.open_region(clauses, &mut out);
                    out.extend(self.lower_block(body)?);
                    out.push(HostOp::DataExit { region });
                }
                HostStmt::ParallelLoop(node) => {
                    let ck = extract_kernel(node, self.f, self.options, &self.written)?;
                    let launch = HostOp::Launch {
                        kernel: self.kernels.len(),
                    };
                    self.kernels.push(ck);
                    // Data clauses on the combined directive form an implicit
                    // region around the single launch.
                    if node.data_clauses.is_empty() {
                        out.push(launch);
                    } else {
                        let region = self.open_region(&node.data_clauses, &mut out);
                        out.push(launch);
                        out.push(HostOp::DataExit { region });
                    }
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

    fn open_region(&mut self, clauses: &[TypedDataClause], out: &mut Vec<HostOp>) -> usize {
        let region = self.region_counter;
        self.region_counter += 1;
        out.push(HostOp::DataEnter {
            region,
            clauses: lower_clauses(clauses),
        });
        region
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile_source;

    #[test]
    fn data_region_brackets_launch() {
        let p = compile_source(
            "void f(int n, double *x) {\n\
             #pragma acc data copy(x[0:n])\n\
             {\n\
             #pragma acc parallel loop\n\
             for (int i = 0; i < n; i++) x[i] = 0.0;\n\
             }\n\
             }",
            "f",
            &CompileOptions::proposal(),
        )
        .unwrap();
        assert!(matches!(p.host[0], HostOp::DataEnter { .. }));
        assert!(matches!(p.host[1], HostOp::Launch { kernel: 0 }));
        assert!(matches!(p.host[2], HostOp::DataExit { .. }));
    }

    #[test]
    fn directive_clauses_make_implicit_region() {
        let p = compile_source(
            "void f(int n, double *x) {\n\
             #pragma acc parallel loop copy(x[0:n])\n\
             for (int i = 0; i < n; i++) x[i] = 0.0;\n\
             }",
            "f",
            &CompileOptions::proposal(),
        )
        .unwrap();
        assert_eq!(p.host.len(), 3);
        assert!(matches!(p.host[0], HostOp::DataEnter { .. }));
        assert!(matches!(p.host[1], HostOp::Launch { .. }));
        assert!(matches!(p.host[2], HostOp::DataExit { .. }));
    }

    #[test]
    fn launches_inside_host_loop() {
        let p = compile_source(
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
            "f",
            &CompileOptions::proposal(),
        )
        .unwrap();
        assert_eq!(p.kernels.len(), 1);
        let HostOp::While { body, .. } = &p.host[2] else {
            panic!("{:?}", p.host)
        };
        assert!(body.iter().any(|op| matches!(op, HostOp::Launch { .. })));
    }

    #[test]
    fn two_loops_two_kernels() {
        let p = compile_source(
            "void f(int n, double *x, double *y) {\n\
             #pragma acc parallel loop\n\
             for (int i = 0; i < n; i++) x[i] = 1.0;\n\
             #pragma acc parallel loop\n\
             for (int i = 0; i < n; i++) y[i] = x[i];\n\
             }",
            "f",
            &CompileOptions::proposal(),
        )
        .unwrap();
        assert_eq!(p.kernels.len(), 2);
        assert_eq!(p.kernels[0].kernel.name, "f_k0");
        assert_eq!(p.kernels[1].kernel.name, "f_k1");
        assert_eq!(p.n_parallel_loops(), 2);
    }

    #[test]
    fn update_lowered() {
        let p = compile_source(
            "void f(int n, double *x) {\n\
             #pragma acc update host(x[0:n])\n\
             }",
            "f",
            &CompileOptions::proposal(),
        )
        .unwrap();
        let HostOp::Update { to_host, to_device } = &p.host[0] else {
            panic!()
        };
        assert_eq!(to_host.len(), 1);
        assert!(to_device.is_empty());
        assert_eq!(to_host[0].array, 0);
    }
}
