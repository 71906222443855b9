//! `acc-lint` — the multi-GPU consistency linter CLI.
//!
//! ```text
//! # Lint the built-in applications (CI runs this warnings-as-errors):
//! cargo run -p acc-apps --bin acc-lint -- --deny-warnings
//!
//! # Lint OpenACC sources, or .rs files with embedded `r#"..."#` sources:
//! cargo run -p acc-apps --bin acc-lint -- examples/quickstart.rs mykernel.c
//!
//! # Surface inferable localaccess annotations (ACC-I001) and fail if the
//! # inference diverges from any hand-written annotation:
//! cargo run -p acc-apps --bin acc-lint -- --infer --deny-divergence
//!
//! # Explain a diagnostic code:
//! cargo run -p acc-apps --bin acc-lint -- --explain ACC-I001
//!
//! # Dynamically audit one app's static verdicts with the sanitizer:
//! cargo run --release -p acc-apps --bin acc-lint -- --audit bfs --gpus 3
//! ```
//!
//! Static mode prints every `ACC-W00x` diagnostic (see `docs/analysis.md`)
//! and exits 1 under `--deny-warnings` if any fired, 2 if a source failed
//! to compile. Audit mode runs the app under `SanitizeLevel::Full`, which
//! turns any store outside the owner partition or load outside the
//! declared `localaccess` window into a hard error.

use acc_apps::{run_app_with_config, App, Scale, Version};
use acc_compiler::{lint_program, CompileOptions, CompiledProgram};
use acc_gpusim::Machine;
use acc_runtime::SanitizeLevel;

struct Args {
    deny_warnings: bool,
    infer: bool,
    deny_divergence: bool,
    audit: Option<String>,
    elide: bool,
    gpus: usize,
    scale: Scale,
    seed: u64,
    files: Vec<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        deny_warnings: false,
        infer: false,
        deny_divergence: false,
        audit: None,
        elide: false,
        gpus: 3,
        scale: Scale::Small,
        seed: 42,
        files: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--deny-warnings" => args.deny_warnings = true,
            "--infer" => args.infer = true,
            "--deny-divergence" => args.deny_divergence = true,
            "--explain" => match it.next() {
                Some(code) => run_explain(&code),
                None => {
                    eprintln!("acc-lint: --explain needs a code (e.g. ACC-W001)");
                    std::process::exit(2);
                }
            },
            "--audit" => args.audit = it.next(),
            "--elide" => args.elide = true,
            "--gpus" => args.gpus = it.next().and_then(|s| s.parse().ok()).unwrap_or(3),
            "--seed" => args.seed = it.next().and_then(|s| s.parse().ok()).unwrap_or(42),
            "--scale" => {
                args.scale = match it.next().as_deref() {
                    Some("small") => Scale::Small,
                    Some("scaled") => Scale::Scaled,
                    Some("paper") => Scale::Paper,
                    other => {
                        eprintln!("unknown scale {other:?}");
                        std::process::exit(2);
                    }
                }
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: acc-lint [--deny-warnings] [--infer] [--deny-divergence] [FILE.c|FILE.rs ...]\n\
                     \x20      acc-lint --explain ACC-XNNN\n\
                     \x20      acc-lint --audit APP [--elide] [--gpus N] [--scale small|scaled|paper] [--seed N]\n\
                     With no files, lints every built-in application kernel."
                );
                std::process::exit(0);
            }
            f => args.files.push(f.to_string()),
        }
    }
    args
}

/// `--explain ACC-XNNN`: the long-form description, an example that
/// triggers the diagnostic, and how to fix it. The texts live in
/// [`acc_apps::explain`], whose exhaustiveness test keeps them in sync
/// with every code the workspace can emit.
fn run_explain(code: &str) -> ! {
    match acc_apps::explain::explain(code) {
        Some(text) => {
            println!("{text}");
            std::process::exit(0);
        }
        None => {
            let shape = if acc_minic::diag::is_stable_code(&code.to_ascii_uppercase()) {
                "well-formed, but nothing emits it"
            } else {
                "not of the form ACC-XNNN"
            };
            eprintln!(
                "acc-lint: unknown diagnostic code `{code}` ({shape}); known codes: {}",
                acc_apps::explain::KNOWN_CODES.join(", ")
            );
            std::process::exit(2);
        }
    }
}

/// Extract `r#"..."#` raw-string literals that contain OpenACC pragmas
/// from a Rust source file (the examples and app modules embed their
/// kernels this way).
fn embedded_sources(rs: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = rs;
    while let Some(start) = rest.find("r#\"") {
        let body = &rest[start + 3..];
        let Some(end) = body.find("\"#") else { break };
        let src = &body[..end];
        if src.contains("#pragma acc") {
            out.push(src.to_string());
        }
        rest = &body[end + 2..];
    }
    out
}

/// Run the frontend once and translate every function of one OpenACC
/// source once; `None` (diagnostics printed) if it failed to compile.
/// The compiled programs feed both the diagnostics and
/// `--deny-divergence`.
fn compile_functions(label: &str, src: &str, opts: &CompileOptions) -> Option<Vec<CompiledProgram>> {
    let typed = match acc_minic::frontend(src) {
        Ok(typed) => typed,
        Err(diags) => {
            for d in &diags {
                eprintln!("{label}: {}", d.render_verbose(src));
            }
            return None;
        }
    };
    let mut progs = Vec::new();
    for f in &typed.functions {
        match acc_compiler::compile(&typed, &f.name, opts) {
            Ok(p) => progs.push(p),
            Err(e) => {
                eprintln!("{label}: error: {e}");
                return None;
            }
        }
    }
    Some(progs)
}

/// `--deny-divergence`: cross-check each hand-written annotation of a
/// compiled function against what the analysis derives — `localaccess`
/// windows against the whole-program dataflow (the translator records
/// the inferred window whether or not it is consumed), and
/// `reductiontoarray` operators against the dependence analysis (the
/// source is re-compiled with the reduction pragmas stripped, so
/// inference sees the bare RMW pattern). A hand annotation the inference
/// cannot reproduce exactly (differs, or derives nothing) is a
/// divergence — either the annotation is wrong or the analysis lost
/// precision; both deserve a failing CI signal. Returns the number of
/// divergent kernel×array sites.
fn check_divergence(label: &str, src: &str, p: &CompiledProgram) -> usize {
    let mut n = check_reduction_divergence(label, src, p);
    for k in &p.kernels {
        for cfg in &k.configs {
            // `inferred_used` means there was no hand annotation.
            let Some(hand) = (!cfg.inferred_used).then_some(cfg.localaccess.as_ref()).flatten()
            else {
                continue;
            };
            if cfg.inferred.as_ref() == Some(hand) {
                continue;
            }
            let pragma = |la| acc_compiler::render_annotation(&cfg.name, la, &p.locals);
            println!(
                "{label}: divergence: kernel `{}` array `{}`: hand-written `{}` but inference derives {}",
                k.kernel.name,
                cfg.name,
                pragma(hand),
                cfg.inferred.as_ref().map_or("nothing".to_string(), |inf| format!("`{}`", pragma(inf)))
            );
            n += 1;
        }
    }
    n
}

/// Reduction half of `--deny-divergence`: strip every hand-written
/// `reductiontoarray` pragma, recompile with
/// `CompileOptions::infer_reductions`, and demand that the dependence
/// analysis re-derives exactly the operator each hand annotation
/// declared, for each annotated kernel×array.
fn check_reduction_divergence(label: &str, src: &str, annotated: &CompiledProgram) -> usize {
    use acc_compiler::Placement;
    let function = &annotated.name;
    // Under `--infer` the program also carries reductions the analysis
    // applied itself; those are not hand annotations.
    let hand: Vec<(usize, usize, acc_kernel_ir::RmwOp)> = annotated
        .kernels
        .iter()
        .enumerate()
        .flat_map(|(ki, k)| {
            k.configs.iter().filter_map(move |c| match c.placement {
                Placement::ReductionPrivate(op) if c.inferred_reduction.is_none() => {
                    Some((ki, c.array, op))
                }
                _ => None,
            })
        })
        .collect();
    if hand.is_empty() {
        return 0;
    }
    let stripped: String = src
        .lines()
        .filter(|l| !l.contains("#pragma acc reductiontoarray"))
        .collect::<Vec<_>>()
        .join("\n");
    let opts = CompileOptions {
        infer_reductions: true,
        ..CompileOptions::proposal()
    };
    let Ok(inferred) = acc_compiler::compile_source(&stripped, function, &opts) else {
        println!("{label}: divergence: `{function}` fails to compile with reductiontoarray stripped");
        return hand.len();
    };
    let mut n = 0;
    for (ki, array, op) in hand {
        let kernel = &annotated.kernels[ki].kernel.name;
        let derived = inferred
            .kernels
            .get(ki)
            .and_then(|k| k.configs.iter().find(|c| c.array == array))
            .and_then(|c| c.inferred_reduction);
        if derived != Some(op) {
            let name = &annotated.array_params[array].0;
            println!(
                "{label}: divergence: kernel `{kernel}` array `{name}`: hand-written \
                 reductiontoarray({op:?}) but inference derives {derived:?}"
            );
            n += 1;
        }
    }
    n
}

fn run_static(args: &Args) -> ! {
    let opts = CompileOptions {
        infer_localaccess: args.infer,
        infer_reductions: args.infer,
        ..CompileOptions::proposal()
    };
    let mut warnings = 0usize;
    let mut infos = 0usize;
    let mut divergences = 0usize;
    let mut broken = 0usize;
    let mut targets = 0usize;
    let mut lint = |label: &str, src: &str| {
        targets += 1;
        let Some(progs) = compile_functions(label, src, &opts) else {
            broken += 1;
            return;
        };
        // Informational `ACC-I*` diagnostics (inference suggestions, the
        // ACC-I003 halo-local dependence downgrade) are counted
        // separately so `--deny-warnings` does not deny them.
        for d in progs.iter().flat_map(lint_program) {
            println!("{label}: {}", d.render(src));
            if d.code.is_some_and(|c| c.starts_with("ACC-I")) {
                infos += 1;
            } else {
                warnings += 1;
            }
        }
        if args.deny_divergence {
            for p in &progs {
                divergences += check_divergence(label, src, p);
            }
        }
    };
    if args.files.is_empty() {
        for app in App::ALL {
            lint(app.name(), app.source());
        }
        // Bench-only kernels outside the paper's Table II ride along —
        // they must stay as lint-clean as the published apps.
        lint("bfs-skew", acc_apps::bfs_skew::SOURCE);
    } else {
        for f in &args.files {
            let content = match std::fs::read_to_string(f) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("acc-lint: cannot read {f}: {e}");
                    std::process::exit(2);
                }
            };
            if f.ends_with(".rs") {
                for (i, src) in embedded_sources(&content).iter().enumerate() {
                    lint(&format!("{f}#{i}"), src);
                }
            } else {
                lint(f, &content);
            }
        }
    }
    eprintln!(
        "acc-lint: {targets} kernel source(s), {warnings} warning(s), {infos} info(s), \
         {broken} compile failure(s){}",
        if args.deny_divergence {
            format!(", {divergences} annotation divergence(s)")
        } else {
            String::new()
        }
    );
    if broken > 0 {
        std::process::exit(2);
    }
    if divergences > 0 || (args.deny_warnings && warnings > 0) {
        std::process::exit(1);
    }
    std::process::exit(0);
}

fn run_audit(args: &Args, name: &str) -> ! {
    let Some(app) = App::ALL.into_iter().find(|a| a.name() == name) else {
        eprintln!(
            "acc-lint: unknown app `{name}` (have: {})",
            App::ALL.map(|a| a.name()).join(", ")
        );
        std::process::exit(2);
    };
    let version = Version::Proposal(args.gpus);
    let mut cfg = version.exec_config().sanitize(SanitizeLevel::Full);
    if args.elide {
        // Full sanitize re-arms every statically elided sync and audits
        // the claimed partitions first — the combination is exactly the
        // comm-elision soundness check, on a real app.
        cfg = cfg.comm_elision(true);
    }
    let mut m = Machine::supercomputer_node();
    eprintln!(
        "acc-lint: auditing {name} on {} GPU(s), fully sanitized{}...",
        args.gpus,
        if args.elide { ", comm elision armed" } else { "" }
    );
    match run_app_with_config(app, version, &mut m, args.scale, args.seed, &cfg) {
        Ok(r) if r.correct => {
            eprintln!(
                "acc-lint: clean — no sanitize violations, result correct (max err {:.3e})",
                r.max_err
            );
            std::process::exit(0);
        }
        Ok(r) => {
            eprintln!("acc-lint: WRONG RESULT (max err {:.3e})", r.max_err);
            std::process::exit(1);
        }
        Err(e) => {
            // Typed failure: stable `[ACC-XNNN]` code first, prose after,
            // so scripts match the code and humans read the message.
            eprintln!("acc-lint: [{}] {e}", e.code());
            std::process::exit(1);
        }
    }
}

fn main() {
    let args = parse_args();
    if let Some(name) = args.audit.clone() {
        run_audit(&args, &name);
    }
    run_static(&args);
}
