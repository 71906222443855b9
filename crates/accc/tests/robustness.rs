//! Translator robustness: whatever the frontend accepts, `compile_source`
//! and `lint_source` turn into a program, diagnostics or a typed error —
//! never a panic. The hostile corpus under `tests/corpus/` is also what
//! CI feeds `acc-lint` (exit status 101 there is a red check).

use acc_compiler::{
    compile_source, lint_source, lint_source_with, CompileOptions, CompiledProgram, DependVerdict,
    ElisionProof,
};
use proptest::prelude::*;

const SIBLING_FOR: &str = include_str!("corpus/sibling_for.c");
const SIBLING_IF: &str = include_str!("corpus/sibling_if.c");
const SIBLING_BLOCKS: &str = include_str!("corpus/sibling_blocks.c");
const EMPTY_BODY: &str = include_str!("corpus/empty_body.c");
const HUGE_WINDOW: &str = include_str!("corpus/huge_window.c");
const STRIDE_REASSIGNED: &str = include_str!("corpus/stride_reassigned.c");
const TWO_MONOTONE_WINDOWS: &str = include_str!("corpus/two_monotone_windows.c");
const WHILE_RETURN: &str = include_str!("corpus/while_return.c");

const CORPUS: &[(&str, &str)] = &[
    ("sibling_for", SIBLING_FOR),
    ("sibling_if", SIBLING_IF),
    ("sibling_blocks", SIBLING_BLOCKS),
    ("empty_body", EMPTY_BODY),
    ("huge_window", HUGE_WINDOW),
    ("stride_reassigned", STRIDE_REASSIGNED),
    ("two_monotone_windows", TWO_MONOTONE_WINDOWS),
    ("while_return", WHILE_RETURN),
];

fn infer_options() -> CompileOptions {
    CompileOptions {
        infer_localaccess: true,
        infer_reductions: true,
        ..CompileOptions::proposal()
    }
}

fn compiled(function: &str, src: &str) -> CompiledProgram {
    compile_source(src, function, &CompileOptions::proposal())
        .unwrap_or_else(|e| panic!("{function} fails to compile: {e}"))
}

/// Every corpus file (the function is named after the file) compiles and
/// lints under every option set.
#[test]
fn hostile_corpus_compiles_and_lints() {
    for (function, src) in CORPUS {
        for opts in [
            CompileOptions::proposal(),
            CompileOptions::pgi_like(),
            CompileOptions::cuda_expert(),
            infer_options(),
        ] {
            compile_source(src, function, &opts)
                .unwrap_or_else(|e| panic!("{function} under {opts:?}: {e}"));
            lint_source_with(src, &opts)
                .unwrap_or_else(|e| panic!("{function} lint under {opts:?}: {e:?}"));
        }
    }
}

/// Regression: two locals of one name in sibling scopes are both captured
/// as `{name}$cap`; the translator used to panic on the duplicate
/// parameter. Only the colliding capture is renamed.
#[test]
fn sibling_scope_redeclarations_get_distinct_parameters() {
    for (function, src, name) in [
        ("sibling_for", SIBLING_FOR, "j"),
        ("sibling_if", SIBLING_IF, "t"),
        ("sibling_blocks", SIBLING_BLOCKS, "k"),
    ] {
        let prog = compiled(function, src);
        let params: Vec<&str> = prog.kernels[0]
            .kernel
            .params
            .iter()
            .map(|p| p.name.as_str())
            .collect();
        let mut unique = params.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), params.len(), "{function}: {params:?}");
        // The first capture keeps the plain name every existing kernel has.
        assert!(
            params.contains(&format!("{name}$cap").as_str()),
            "{params:?}"
        );
        let renamed = params
            .iter()
            .filter(|p| p.starts_with(&format!("{name}$cap")))
            .count();
        assert!(renamed >= 2, "{function}: {params:?}");
        assert!(lint_source(src).is_ok(), "{function}");
    }
}

#[test]
fn empty_loop_body_is_a_kernel_without_buffers() {
    let prog = compiled("empty_body", EMPTY_BODY);
    assert_eq!(prog.kernels.len(), 1);
    assert!(prog.kernels[0].kernel.bufs.is_empty());
    assert!(prog.kernels[0].configs.is_empty());
}

#[test]
fn window_parameters_at_int_max_prove_nothing_wrong() {
    let prog = compiled("huge_window", HUGE_WINDOW);
    let x = &prog.kernels[0].configs[0];
    assert_eq!(x.name, "x");
    // `x[i]` walks one element per iteration, not 2^31-1: no load is
    // comparable against the declared window, so none can violate it.
    assert_eq!((x.lint.window_checked, x.lint.window_violations), (0, 0));
    assert_eq!(x.lint.elision, ElisionProof::NoStores);
}

#[test]
fn reassigned_stride_local_proves_no_store_local() {
    let prog = compiled("stride_reassigned", STRIDE_REASSIGNED);
    let b = prog.kernels[0]
        .configs
        .iter()
        .find(|c| c.name == "b")
        .expect("b config");
    assert_eq!(b.lint.elision, ElisionProof::Unproven);
    assert!(!b.miss_check_elided);
    assert_eq!(b.lint.halo_windows, (0, 0));
}

#[test]
fn two_monotone_windows_over_one_bound_array_are_not_a_proof() {
    let prog = compiled("two_monotone_windows", TWO_MONOTONE_WINDOWS);
    let msg = prog.kernels[0]
        .configs
        .iter()
        .find(|c| c.name == "msg")
        .expect("msg config");
    // Stores claimed by two different window signatures: the
    // single-window disjointness argument does not apply.
    assert_eq!(msg.lint.verdict, DependVerdict::Unknown);
    assert!(msg.monotone_window.is_none());
    assert!(prog.monotone_premises.is_empty());
}

#[test]
fn early_return_inside_host_loop_keeps_the_staleness_walk_going() {
    let codes: Vec<_> = lint_source(WHILE_RETURN)
        .expect("compiles")
        .iter()
        .filter_map(|d| d.code)
        .collect();
    assert_eq!(codes, vec!["ACC-W004"]);
}

/// Statement shapes the structured generator draws from: sibling-scope
/// declarations, nested loops, scatters, read-modify-writes, halo reads,
/// conditionals, reassigned captures.
const STATEMENTS: &[&str] = &[
    "for (int j = 0; j < m; j++) { y[i] = y[i] + x[i*m + j]; }",
    "for (int j = 0; j < 4; j++) { x[i*4 + j] = (double)j; }",
    "if (x[i] > 0.0) { double t = x[i]; y[i] = t; } else { double t = 1.0; y[i] = t; }",
    "{ int k = i; y[k] = 1.0; }",
    "{ double k = x[i]; y[i] = k; }",
    "y[idx[i]] = x[i];",
    "y[idx[i]] = y[idx[i]] + x[i];",
    "y[i] = y[i - 1] + x[i + 1];",
    "y[0] = x[i];",
    "m = m + 1;",
    "for (int k = idx[i]; k < idx[i + 1]; k = k + 1) { y[k] = x[i]; }",
    "x[i*m] = y[i*m + m - 1];",
    "while (m > 0) { m = m - 1; if (m == 2) { break; } }",
    ";",
];

/// A literal in C source: negative values are parenthesised, so `-` never
/// meets another `-` or an operator.
fn lit(v: i64) -> String {
    if v < 0 {
        format!("({v})")
    } else {
        v.to_string()
    }
}

/// One store `y[a*i + c] = 1.0;` to an array declared `localaccess(y)
/// stride(s)`, with the index spelled five ways the write-locality proof
/// must see through alike.
fn literal_stride_stores(s: i64, a: i64, c: i64) -> Vec<String> {
    let (a, c, neg_c) = (lit(a), lit(c), lit(-c));
    [
        format!("y[{a}*i + {c}] = 1.0;"),
        format!("y[{c} + i*{a}] = 1.0;"),
        format!("y[(i*{a}) - {neg_c}] = 1.0;"),
        format!("y[(int)({a}*i) + {c}] = 1.0;"),
        format!("int k = {c}; y[{a}*i + k] = 1.0;"),
    ]
    .into_iter()
    .map(|store| {
        format!(
            "void f(int n, double *y) {{\n\
             #pragma acc localaccess(y) stride({s})\n\
             #pragma acc parallel loop copy(y[0:n])\n\
             for (int i = 0; i < n; i++) {{ {store} }}\n}}"
        )
    })
    .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The miss-check elision on literal strides: a store `a*i + c` stays
    /// in iteration `i`'s partition `[s*i, s*(i+1) - 1]` exactly when
    /// `a == s` and `0 <= c < s`, however the index is spelled, and the
    /// interval prover is the one that proves it.
    #[test]
    fn literal_stride_stores_are_proved_local_exactly_when_inside_the_partition(
        s in 1i64..=64,
        a_raw in 0i64..=1024,
        c_raw in 0i64..=1024,
        pick in 0usize..4,
    ) {
        // One draw in four pins `a == s`, the only coefficient that can
        // prove; the rest cover `[-2s, 2s]`.
        let a = if pick == 0 { s } else { a_raw % (4 * s + 1) - 2 * s };
        let c = c_raw % (4 * s + 1) - 2 * s;
        let local = a == s && (0..s).contains(&c);
        for src in literal_stride_stores(s, a, c) {
            let prog = compile_source(&src, "f", &CompileOptions::proposal())
                .map_err(|e| TestCaseError::fail(format!("{src}: {e}")))?;
            let y = &prog.kernels[0].configs[0];
            prop_assert_eq!(y.miss_check_elided, local, "{}", src);
            let want = if local { ElisionProof::Interval } else { ElisionProof::Unproven };
            prop_assert_eq!(y.lint.elision, want, "{}", src);
        }
    }

    /// C-looking soup as the body of a parallel loop: most of it dies in
    /// the frontend (an `Err`), the rest must translate or fail typed.
    #[test]
    fn translator_total_on_c_fragments(
        body in "[a-z0-9 =+\\-*/;(){}\\[\\]<>!&|,.]{0,120}"
    ) {
        let src = format!(
            "void f(int n, double *x) {{\n#pragma acc parallel loop\n\
             for (int i = 0; i < n; i++) {{ {body} }}\n}}"
        );
        let _ = compile_source(&src, "f", &CompileOptions::proposal());
        let _ = lint_source(&src);
    }

    /// Well-formed statement mixes, optionally annotated, under every
    /// option set: these reach extraction, inference and the dependence
    /// analysis, and must come back as `Ok`/`Err`.
    #[test]
    fn translator_total_on_statement_mixes(
        picks in proptest::collection::vec(0usize..STATEMENTS.len(), 0..6),
        annotate in 0usize..4,
        in_loop in 0usize..2,
    ) {
        let body: String = picks.iter().map(|&p| STATEMENTS[p]).collect::<Vec<_>>().join("\n");
        let pragma = [
            "",
            "#pragma acc localaccess(y) stride(1) left(1)\n",
            "#pragma acc localaccess(x) stride(m)\n#pragma acc localaccess(y) stride(1)\n",
            "#pragma acc localaccess(x) stride(2147483647) right(2147483647)\n",
        ][annotate];
        let kernel = format!(
            "{pragma}#pragma acc parallel loop\nfor (int i = 1; i < n; i++) {{\n{body}\n}}\n"
        );
        let host = if in_loop == 1 {
            format!("int t = 0;\nwhile (t < 2) {{\n{kernel}t = t + 1;\n}}\n")
        } else {
            kernel
        };
        let src = format!(
            "void f(int n, int m, int *idx, double *x, double *y) {{\n\
             #pragma acc data copy(x[0:n*m], y[0:n]) copyin(idx[0:n+1])\n{{\n{host}}}\n}}"
        );
        for opts in [CompileOptions::proposal(), CompileOptions::pgi_like(), infer_options()] {
            let _ = compile_source(&src, "f", &opts);
            let _ = lint_source_with(&src, &opts);
        }
    }
}
