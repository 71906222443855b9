//! Whole-compile goldens for the translator: the IR hash of every app
//! source under every option set the harnesses use (kernels, configs and
//! plans — the host program is emptied before hashing), an outline of
//! its host program's region/launch/update tree, and the full rendered
//! diagnostic stream (code, span, message, order) of the linter over the
//! apps, every `examples/*.rs` embedded source and the linter's own unit
//! sources. The diagnostic lines of `golden/accc_golden.txt` date from the
//! commit before the linter became a reader of `CompiledProgram`; its
//! header names the commit its `ir` rows were computed at. A refactor of
//! `accc` that changes compiled output or diagnostics shows up here as a
//! diff. Lines starting with `#` are the header, not compared.

use acc_apps::App;
use acc_compiler::{
    compile, compile_source, lint_function, lint_program, lint_source_with, CompileOptions,
    CompiledProgram, HostOp,
};

mod common;
use common::embedded_sources;

const GOLDEN: &str = include_str!("golden/accc_golden.txt");

/// 64-bit FNV-1a over `parts`, each followed by a `0xff` separator step:
/// the stable hash the `ir` rows were recorded with.
fn fnv1a64(parts: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &b in *part {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^= 0xff;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The sources of `accc/src/lint.rs`'s unit tests, by test name.
const LINT_UNIT_SOURCES: &[(&str, &str)] = &[
    (
        "w001_scatter",
        "void f(int n, int *m, double *x, double *y) {\n\
         #pragma acc parallel loop copyin(m[0:n], x[0:n]) copy(y[0:n])\n\
         for (int i = 0; i < n; i++) y[m[i]] = x[i];\n\
         }",
    ),
    (
        "w001_quiet_invariant_value",
        "void f(int n, int level, int *m, int *y) {\n\
         #pragma acc parallel loop copyin(m[0:n]) copy(y[0:n])\n\
         for (int i = 0; i < n; i++) y[m[i]] = level + 1;\n\
         }",
    ),
    (
        "w002_unannotated_rmw",
        "void f(int n, int *m, double *v, double *e) {\n\
         #pragma acc parallel loop copyin(m[0:n], v[0:n]) copy(e[0:8])\n\
         for (int i = 0; i < n; i++) e[m[i]] = e[m[i]] + v[i];\n\
         }",
    ),
    (
        "w002_quiet_reductiontoarray",
        "void f(int n, int *m, double *v, double *e) {\n\
         #pragma acc parallel loop copyin(m[0:n], v[0:n]) copy(e[0:8])\n\
         for (int i = 0; i < n; i++) {\n\
         #pragma acc reductiontoarray(+: e[8])\n\
         e[m[i]] += v[i];\n\
         }\n\
         }",
    ),
    (
        "w005_distributed_race",
        "void f(int n, double *v, double *y) {\n\
         #pragma acc localaccess(y) stride(1)\n\
         #pragma acc parallel loop copyin(v[0:n]) copy(y[0:n])\n\
         for (int i = 0; i < n; i++) { y[i] = v[i]; y[0] = v[i]; }\n\
         }",
    ),
    (
        "i003_distance_fits_halo",
        "void f(int n, double *y) {\n\
         #pragma acc localaccess(y) stride(1) left(1)\n\
         #pragma acc parallel loop copy(y[0:n])\n\
         for (int i = 1; i < n; i++) y[i] = y[i - 1] + 1.0;\n\
         }",
    ),
    (
        "infer_halo_for_carried_local",
        "void f(int n, double *y) {\n\
         #pragma acc parallel loop copy(y[0:n])\n\
         for (int i = 1; i < n; i++) y[i] = y[i - 1] + 1.0;\n\
         }",
    ),
    (
        "w006_halo_too_narrow",
        "void f(int n, double *y) {\n\
         #pragma acc localaccess(y) stride(1) left(1)\n\
         #pragma acc parallel loop copy(y[0:n])\n\
         for (int i = 2; i < n; i++) y[i] = y[i - 2] + 1.0;\n\
         }",
    ),
    (
        "w006_unbounded",
        "void f(int n, double *y) {\n\
         #pragma acc localaccess(y) stride(1)\n\
         #pragma acc parallel loop copy(y[0:n])\n\
         for (int i = 1; i < n; i++) y[i] = y[0] + 1.0;\n\
         }",
    ),
    (
        "w003_window_narrower_than_reads",
        "void f(int n, double *x, double *y) {\n\
         #pragma acc localaccess(x) stride(1)\n\
         #pragma acc localaccess(y) stride(1)\n\
         #pragma acc parallel loop copyin(x[0:n]) copy(y[0:n])\n\
         for (int i = 0; i < n - 1; i++) y[i] = x[i] + x[i + 1];\n\
         }",
    ),
    (
        "w003_quiet_sufficient_halo",
        "void f(int n, double *x, double *y) {\n\
         #pragma acc localaccess(x) stride(1) right(1)\n\
         #pragma acc localaccess(y) stride(1)\n\
         #pragma acc parallel loop copyin(x[0:n]) copy(y[0:n])\n\
         for (int i = 0; i < n - 1; i++) y[i] = x[i] + x[i + 1];\n\
         }",
    ),
    (
        "w004_host_read_of_device_written",
        "void f(int n, double *x, double *y) {\n\
         double t;\n\
         #pragma acc data copyin(x[0:n]) copy(y[0:n])\n\
         {\n\
         #pragma acc parallel loop\n\
         for (int i = 0; i < n; i++) y[i] = x[i];\n\
         t = y[0];\n\
         }\n\
         }",
    ),
    (
        "w004_quiet_update_host",
        "void f(int n, double *x, double *y) {\n\
         double t;\n\
         double u;\n\
         #pragma acc data copyin(x[0:n]) copy(y[0:n])\n\
         {\n\
         #pragma acc parallel loop\n\
         for (int i = 0; i < n; i++) y[i] = x[i];\n\
         #pragma acc update host(y[0:n])\n\
         t = y[0];\n\
         }\n\
         u = y[1];\n\
         }",
    ),
    (
        "w004_across_host_loop_iterations",
        "void f(int n, int iters, double *x, double *y) {\n\
         int t;\n\
         double acc;\n\
         t = 0;\n\
         acc = 0.0;\n\
         #pragma acc data copy(y[0:n]) copyin(x[0:n])\n\
         {\n\
         while (t < iters) {\n\
         acc = acc + y[0];\n\
         #pragma acc parallel loop\n\
         for (int i = 0; i < n; i++) y[i] = y[i] + x[i];\n\
         t = t + 1;\n\
         }\n\
         }\n\
         }",
    ),
    (
        "implicit_region_flush",
        "void f(int n, double *x, double *y) {\n\
         double t;\n\
         #pragma acc parallel loop copyin(x[0:n]) copy(y[0:n])\n\
         for (int i = 0; i < n; i++) y[i] = x[i];\n\
         t = y[0];\n\
         }",
    ),
    (
        "i001_stencil_reads",
        "void f(int n, double *x, double *y) {\n\
         #pragma acc parallel loop copyin(x[0:n]) copy(y[0:n])\n\
         for (int i = 0; i < n; i++) y[i] = x[i] + x[i + 1];\n\
         }",
    ),
    (
        "i001_quiet_annotation_present",
        "void f(int n, double *x, double *y) {\n\
         #pragma acc localaccess(x) stride(1) right(1)\n\
         #pragma acc localaccess(y) stride(1)\n\
         #pragma acc parallel loop copyin(x[0:n]) copy(y[0:n])\n\
         for (int i = 0; i < n; i++) y[i] = x[i] + x[i + 1];\n\
         }",
    ),
];

/// A one-line outline of a host program: regions with their clauses,
/// launches, updates, loops, branches and returns; plain host
/// statements are left out. E.g.
/// `region[copyin pos,neigh; copyout force]{launch 0}`.
fn outline(prog: &CompiledProgram, ops: &[HostOp]) -> String {
    let name = |a: usize| prog.array_params[a].0.as_str();
    let names = |secs: &[acc_compiler::hostgen::Section]| {
        secs.iter().map(|s| name(s.array)).collect::<Vec<_>>().join(",")
    };
    let items: Vec<String> = ops
        .iter()
        .filter_map(|op| match op {
            HostOp::Plain(_) => None,
            HostOp::If { then_, else_, .. } if else_.is_empty() => {
                Some(format!("if{{{}}}", outline(prog, then_)))
            }
            HostOp::If { then_, else_, .. } => Some(format!(
                "if{{{}}}else{{{}}}",
                outline(prog, then_),
                outline(prog, else_)
            )),
            HostOp::While { body, .. } => Some(format!("while{{{}}}", outline(prog, body))),
            HostOp::Region { clauses, body } => {
                let clauses: Vec<String> = clauses
                    .iter()
                    .map(|c| format!("{:?}", c.kind).to_lowercase() + " " + &names(&c.sections))
                    .collect();
                Some(format!("region[{}]{{{}}}", clauses.join("; "), outline(prog, body)))
            }
            HostOp::Launch { kernel } => Some(format!("launch {kernel}")),
            HostOp::Update { to_host, to_device } => {
                let sides: Vec<String> = [("host", to_host), ("device", to_device)]
                    .into_iter()
                    .filter(|(_, secs)| !secs.is_empty())
                    .map(|(side, secs)| format!("{side} {}", names(secs)))
                    .collect();
                Some(format!("update[{}]", sides.join("; ")))
            }
            HostOp::Return => Some("return".to_string()),
        })
        .collect();
    items.join(" ")
}

fn app_sources() -> Vec<(&'static str, &'static str, &'static str)> {
    let mut v: Vec<_> = App::ALL
        .iter()
        .map(|a| (a.name(), a.source(), a.function()))
        .collect();
    v.push((
        "bfs-skew",
        acc_apps::bfs_skew::SOURCE,
        acc_apps::bfs_skew::FUNCTION,
    ));
    v
}

fn infer_options() -> CompileOptions {
    CompileOptions {
        infer_localaccess: true,
        infer_reductions: true,
        ..CompileOptions::proposal()
    }
}

fn render() -> String {
    let mut out = String::new();
    let presets = [
        ("proposal", CompileOptions::proposal()),
        ("pgi_like", CompileOptions::pgi_like()),
        ("cuda_expert", CompileOptions::cuda_expert()),
        (
            "proposal+infer_localaccess",
            CompileOptions {
                infer_localaccess: true,
                ..CompileOptions::proposal()
            },
        ),
        (
            "proposal+infer_localaccess+infer_reductions",
            infer_options(),
        ),
    ];
    for (name, src, function) in app_sources() {
        for (preset, opts) in &presets {
            let p = compile_source(src, function, opts).expect("app compiles");
            let host = outline(&p, &p.host);
            let p = CompiledProgram {
                host: Vec::new(),
                ..p
            };
            let hash = fnv1a64(&[format!("{p:?}").as_bytes()]);
            out.push_str(&format!("ir {name} {preset} {hash:016x}\n"));
            out.push_str(&format!("host {name} {preset} {host}\n"));
        }
    }

    let mut corpus: Vec<(String, String)> = app_sources()
        .into_iter()
        .map(|(n, s, _)| (n.to_string(), s.to_string()))
        .collect();
    let examples = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples");
    let mut files: Vec<_> = std::fs::read_dir(examples)
        .expect("examples directory")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .collect();
    files.sort();
    for f in files {
        let stem = f.file_name().unwrap().to_string_lossy().into_owned();
        let content = std::fs::read_to_string(&f).expect("readable example");
        for (i, src) in embedded_sources(&content).into_iter().enumerate() {
            corpus.push((format!("examples/{stem}#{i}"), src));
        }
    }
    for (name, src) in LINT_UNIT_SOURCES {
        corpus.push((format!("lint/{name}"), src.to_string()));
    }
    for (label, src) in &corpus {
        for (mode, opts) in [
            ("default", CompileOptions::proposal()),
            ("infer", infer_options()),
        ] {
            let diags = lint_source_with(src, &opts)
                .unwrap_or_else(|e| panic!("{label} fails to compile: {e:?}"));
            out.push_str(&format!("lint {label} {mode} {}\n", diags.len()));
            for d in &diags {
                out.push_str(&format!(
                    "  {}..{} {}\n",
                    d.span.start,
                    d.span.end,
                    d.render(src)
                ));
            }
        }
    }
    out
}

#[test]
fn compiled_ir_and_diagnostics_match_the_golden() {
    let got = render();
    let header = GOLDEN.lines().take_while(|l| l.starts_with('#')).count();
    let want: Vec<&str> = GOLDEN.lines().skip(header).collect();
    for (i, (g, w)) in got.lines().zip(&want).enumerate() {
        assert_eq!(g, *w, "first difference at golden line {}", header + i + 1);
    }
    assert_eq!(got.lines().count(), want.len(), "line count");
}

/// The two front doors are one: linting a function is compiling it and
/// reading the result — also for a kernel nested in `while` inside `if`
/// inside a data region, where the staleness walk revisits the launch.
#[test]
fn lint_program_of_compile_equals_lint_function() {
    let src = "void f(int n, int iters, int flag, double *x, double *y) {\n\
         int t;\n\
         double acc;\n\
         t = 0;\n\
         acc = 0.0;\n\
         #pragma acc data copy(y[0:n]) copyin(x[0:n])\n\
         {\n\
         if (flag > 0) {\n\
         while (t < iters) {\n\
         acc = acc + y[0];\n\
         #pragma acc localaccess(y) stride(1) left(1)\n\
         #pragma acc parallel loop\n\
         for (int i = 1; i < n; i++) y[i] = y[i - 1] + x[i];\n\
         t = t + 1;\n\
         }\n\
         } else {\n\
         acc = y[1];\n\
         }\n\
         }\n\
         }";
    let typed = acc_minic::frontend(src).expect("source compiles");
    for opts in [CompileOptions::proposal(), infer_options()] {
        let prog = compile(&typed, "f", &opts).unwrap();
        let via_program = lint_program(&prog);
        let via_function = lint_function(typed.function("f").unwrap(), &opts);
        assert_eq!(via_program, via_function);
        // The second walk of the `while` body finds the stale read but
        // does not repeat the kernel's verdict.
        let count = |code| via_program.iter().filter(|d| d.code == Some(code)).count();
        assert_eq!(
            (count("ACC-I003"), count("ACC-W004")),
            (1, 1),
            "{via_program:?}"
        );
    }
}
