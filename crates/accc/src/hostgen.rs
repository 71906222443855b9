//! Host-program generation.
//!
//! "The translator replaces the original loop with the call statement for
//! the kernel function \[and\] generates the CUDA host code which includes
//! the control codes to initialize the devices, to call the kernel
//! functions, and to control the data movement among the distributed
//! memories" (§IV-B). There is one host tree: the frontend's
//! [`HostStmt`], which the `acc-runtime` executor walks once each parallel
//! loop is replaced by the index of its kernel ([`HostOp`] is
//! `HostStmt<usize>`). Data movement is delegated to the runtime (§IV-B1)
//! through the `DataRegion` and `Update` statements. Regions are
//! structured: every launch sits inside regions covering each array it
//! uses, because hostgen wraps it in an innermost region for the arrays no
//! enclosing one covers (OpenACC's implicit per-launch `copy`).

use acc_kernel_ir as ir;
use acc_minic::directive::DataClauseKind;
use acc_minic::hir::{HostStmt, TypedDataClause, TypedFunction, TypedSection};

use crate::extract::extract_kernel;
use crate::{depend, CompileError, CompileOptions, CompiledKernel, HostOp};

/// The program arrays `clauses` name, one per section.
pub(crate) fn clause_arrays(clauses: &[TypedDataClause]) -> impl Iterator<Item = usize> + '_ {
    clauses
        .iter()
        .flat_map(|c| c.sections.iter().map(|s| s.buf.0 as usize))
}

/// OpenACC's implicit per-launch region: the arrays of `ck` that no
/// enclosing region covers, `copy` if the kernel writes them and
/// `copyin` otherwise (a whole-array flush at exit only when written).
fn implicit_clauses(ck: &CompiledKernel, present: &[usize]) -> Vec<TypedDataClause> {
    let uncovered = |writes: bool| -> Vec<TypedSection> {
        ck.configs
            .iter()
            .filter(|c| c.mode.writes() == writes && !present.contains(&c.array))
            .map(|c| TypedSection {
                buf: ir::BufId(c.array as u32),
                range: None,
            })
            .collect()
    };
    [(DataClauseKind::Copy, true), (DataClauseKind::CopyIn, false)]
        .into_iter()
        .map(|(kind, writes)| TypedDataClause {
            kind,
            sections: uncovered(writes),
        })
        .filter(|c| !c.sections.is_empty())
        .collect()
}

/// Lower a function's host body, extracting kernels as they are found
/// (`HostOp::ParallelLoop` indexes the returned kernel list).
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
        body.iter().map(|s| self.lower_stmt(s)).collect()
    }

    /// `s` with each parallel loop in it replaced by its kernel's index,
    /// inside the loop's directive and implicit regions.
    fn lower_stmt(&mut self, s: &HostStmt) -> Result<HostOp, CompileError> {
        Ok(match s {
            HostStmt::Plain(st) => HostOp::Plain(st.clone()),
            HostStmt::If { cond, then_, else_ } => HostOp::If {
                cond: cond.clone(),
                then_: self.lower_block(then_)?,
                else_: self.lower_block(else_)?,
            },
            HostStmt::While { cond, body } => HostOp::While {
                cond: cond.clone(),
                body: self.lower_block(body)?,
            },
            HostStmt::DataRegion { clauses, body } => HostOp::DataRegion {
                clauses: clauses.clone(),
                body: self.covered(clauses, |l| l.lower_block(body))?,
            },
            HostStmt::ParallelLoop(node) => {
                let ck = extract_kernel(node, self.f, self.options, &self.written)?;
                let clauses = &node.data_clauses;
                let implicit = self.covered(clauses, |l| implicit_clauses(&ck, &l.present));
                let mut op = HostOp::ParallelLoop(self.kernels.len());
                self.kernels.push(ck);
                for clauses in [implicit, clauses.clone()] {
                    if !clauses.is_empty() {
                        op = HostOp::DataRegion {
                            clauses,
                            body: vec![op],
                        };
                    }
                }
                op
            }
            HostStmt::Update { host, device } => HostOp::Update {
                host: host.clone(),
                device: device.clone(),
            },
            HostStmt::Return => HostOp::Return,
        })
    }

    /// Run `f` with the arrays of `clauses` marked present.
    fn covered<T>(&mut self, clauses: &[TypedDataClause], f: impl FnOnce(&mut Self) -> T) -> T {
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

    /// `(kind, arrays)` of each clause of a `DataRegion` op.
    fn clauses_of(op: &HostOp) -> (Vec<(DataClauseKind, Vec<usize>)>, &[HostOp]) {
        let HostOp::DataRegion { clauses, body } = op else {
            panic!("not a region: {op:?}")
        };
        let clauses = clauses
            .iter()
            .map(|c| {
                let arrays = c.sections.iter().map(|s| s.buf.0 as usize).collect();
                (c.kind, arrays)
            })
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
        assert!(matches!(body, [HostOp::ParallelLoop(0)]));
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
        assert!(matches!(body, [HostOp::ParallelLoop(0)]));
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
        assert!(matches!(body, [HostOp::ParallelLoop(0)]));
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
        assert!(matches!(body, [HostOp::ParallelLoop(0)]));
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
        assert!(body.iter().any(|op| matches!(op, HostOp::ParallelLoop(_))));
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

    /// A one-line outline of a host tree: `launch` renders each parallel
    /// loop, plain statements show as `plain`, sections as array indices.
    fn outline<L>(body: &[HostStmt<L>], launch: &dyn Fn(&L) -> String) -> String {
        let arrays = |secs: &[TypedSection]| {
            let ids: Vec<String> = secs.iter().map(|s| s.buf.0.to_string()).collect();
            ids.join(",")
        };
        let items: Vec<String> = body
            .iter()
            .map(|s| match s {
                HostStmt::Plain(_) => "plain".to_string(),
                HostStmt::If { then_, else_, .. } => {
                    let (then_, else_) = (outline(then_, launch), outline(else_, launch));
                    format!("if{{{then_}}}else{{{else_}}}")
                }
                HostStmt::While { body, .. } => format!("while{{{}}}", outline(body, launch)),
                HostStmt::DataRegion { clauses, body } => {
                    let clauses: Vec<String> = clauses
                        .iter()
                        .map(|c| format!("{:?} {}", c.kind, arrays(&c.sections)))
                        .collect();
                    let (clauses, body) = (clauses.join("; "), outline(body, launch));
                    format!("region[{clauses}]{{{body}}}")
                }
                HostStmt::ParallelLoop(l) => launch(l),
                HostStmt::Update { host, device } => {
                    format!("update[{}; {}]", arrays(host), arrays(device))
                }
                HostStmt::Return => "return".to_string(),
            })
            .collect();
        items.join(" ")
    }

    #[test]
    fn translated_tree_is_the_frontends_with_loops_replaced() {
        // A launch in each arm of a host `if`, an `update` inside a
        // `while` and an early `return`: hostgen keeps every node and
        // swaps each loop for its kernel index in its implicit region.
        let src = "void f(int n, int k, double *x, double *y) {\n\
                   if (k > 0) {\n\
                   #pragma acc parallel loop\n\
                   for (int i = 0; i < n; i++) x[i] = 1.0;\n\
                   } else {\n\
                   #pragma acc parallel loop\n\
                   for (int i = 0; i < n; i++) y[i] = 2.0;\n\
                   }\n\
                   int t = 0;\n\
                   while (t < k) {\n\
                   #pragma acc update host(x[0:n]) device(y[0:n])\n\
                   t = t + 1;\n\
                   }\n\
                   if (t > 3) { return; }\n\
                   t = 0;\n\
                   }";
        let hir = acc_minic::frontend(src)
            .map(|t| outline(&t.functions[0].body, &|l| format!("loop {}", l.name)));
        assert_eq!(
            hir.ok().as_deref(),
            Some(
                "if{loop f_k0}else{loop f_k1} plain while{update[0; 1] plain} \
                 if{return}else{} plain"
            )
        );
        let p = compile(src);
        let host = outline(&p.host, &|k| format!("launch {k}"));
        assert_eq!(
            host,
            "if{region[Copy 0]{launch 0}}else{region[Copy 1]{launch 1}} plain \
             while{update[0; 1] plain} if{return}else{} plain"
        );
    }

    #[test]
    fn update_lowered() {
        let p = compile(
            "void f(int n, double *x) {\n\
             #pragma acc update host(x[0:n])\n\
             }",
        );
        let HostOp::Update { host, device } = &p.host[0] else {
            panic!()
        };
        assert_eq!(host.len(), 1);
        assert!(device.is_empty());
        assert_eq!(host[0].buf.0 as usize, 0);
    }
}
