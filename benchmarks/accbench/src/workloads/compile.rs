//! `compile-cold`: the only workload where `minic` and `accc` do all the
//! work and the runtime none. Every other workload compiles once in
//! set-up (and serves it from the `Engine` cache afterwards), so they
//! predict no change from a compiler-side edit; this one must hold it.
//!
//! An operation is one uncached sweep: every application source through
//! `compile_source` under the three option presets of the paper's program
//! versions, plus `lint_source` on each.

use std::hint::black_box;
use std::time::Instant;

use acc_apps::{bfs_skew, App};
use acc_compiler::{compile, compile_source, lint_function, lint_source, CompileOptions};
use acc_minic::{lexer, parser, sema};

use super::{median_secs, put_end_to_end, timed, RunArgs, RunOutput, Size, Window};
use crate::spans::Spans;
use crate::stats;
use crate::util::{Fnv1a, SplitMix64};

fn presets() -> [CompileOptions; 3] {
    [
        CompileOptions::proposal(),
        CompileOptions::pgi_like(),
        CompileOptions::cuda_expert(),
    ]
}

/// `(source, entry function)` of the seven applications and `bfs_skew`,
/// in an order drawn from the seed.
fn sources(seed: u64) -> Vec<(&'static str, &'static str)> {
    let mut all: Vec<_> = App::ALL
        .iter()
        .map(|a| (a.source(), a.function()))
        .collect();
    all.push((bfs_skew::SOURCE, bfs_skew::FUNCTION));
    SplitMix64::new(seed).shuffle(&mut all);
    all
}

/// What one sweep produced, reduced to what the oracle compares: kernels
/// per compiled program and diagnostics per linted source. A failed
/// compile or lint is `None`.
type SweepShape = Vec<Option<usize>>;

fn sweep(sources: &[(&str, &str)], op_id: u64, spans: &mut Spans) -> SweepShape {
    let presets = presets();
    let mut shape = Vec::with_capacity(sources.len() * (presets.len() + 1));
    spans.scope("op", op_id, |s| {
        for &(src, function) in sources {
            for opts in &presets {
                let prog = s.scope("accc.compile_source", op_id, |_| {
                    compile_source(black_box(src), function, opts)
                });
                shape.push(prog.ok().map(|p| p.kernels.len()));
            }
            let diags = s.scope("accc.lint_source", op_id, |_| lint_source(black_box(src)));
            shape.push(diags.ok().map(|d| d.len()));
        }
    });
    shape
}

/// The oracle, independent of the compiler: a program has one kernel per
/// `parallel loop` / `kernels loop` / region-inner `loop` directive in its
/// source text, and the applications are lint-clean up to `ACC-I*` notes,
/// whose count set-up pins by running the sweep twice.
fn expected_kernels(src: &str) -> usize {
    src.lines()
        .map(str::trim)
        .filter(|l| l.starts_with("#pragma acc") && l.split_whitespace().any(|w| w == "loop"))
        .count()
}

struct Ready {
    sources: Vec<(&'static str, &'static str)>,
    want: SweepShape,
    sound: bool,
}

fn setup(args: &RunArgs, spans: &mut Spans) -> Ready {
    let sources = sources(args.seed);
    // The first sweep sets the expectation; the rest warm the allocator
    // and are the determinism check (and make set-up long enough to time).
    let want = sweep(&sources, 0, spans);
    let warm = if args.size == Size::Full { 20 } else { 1 };
    let repeats = (0..warm).all(|_| sweep(&sources, 0, spans) == want);
    let per_source = presets().len() + 1;
    let kernels_ok = sources
        .iter()
        .zip(want.chunks(per_source))
        .all(|(&(src, _), got)| {
            got[..per_source - 1]
                .iter()
                .all(|k| *k == Some(expected_kernels(src)))
                && got[per_source - 1].is_some()
        });
    Ready {
        sound: kernels_ok && repeats,
        sources,
        want,
    }
}

pub fn run(args: &RunArgs) -> Result<RunOutput, String> {
    let mut spans = args.spans(Instant::now());
    let (ready, setups) = args.set_up(|| Ok(setup(args, &mut spans)), |_| Ok(()))?;
    let mut out = RunOutput::new(ready.sound);
    // The traced pass spends half its window on plain sweeps (the tail
    // needs a thousand of them), the rest on spans and on the layers one
    // by one.
    let window = Window::of(if args.trace {
        args.seconds * 0.5
    } else {
        args.seconds
    });
    let mut walls = Vec::new();
    while window.open(walls.len(), 5) {
        let (shape, wall) = timed(|| sweep(&ready.sources, 0, &mut Spans::disabled()));
        walls.push(wall);
        out.failed += u64::from(shape != ready.want);
    }
    out.attempted = walls.len() as u64;
    if args.trace {
        layers(&ready, args, &walls, &mut spans, &mut out);
        out.spans = Some(spans);
    } else {
        put_end_to_end(&mut out.metrics, &walls, &setups);
    }
    out.correct &= out.failed == 0;
    Ok(out)
}

fn layers(ready: &Ready, args: &RunArgs, walls: &[f64], spans: &mut Spans, out: &mut RunOutput) {
    let window = Window::of(args.seconds * 0.1);
    let mut n = 0;
    while window.open(n, 2) {
        n += 1;
        let shape = sweep(&ready.sources, n as u64, spans);
        out.attempted += 1;
        out.failed += u64::from(shape != ready.want);
    }

    let m = &mut out.metrics;
    m.put(
        "bench.ops_per_s",
        walls.len() as f64 / walls.iter().sum::<f64>(),
    );
    m.put("bench.wall_p50_s", stats::median(walls).unwrap_or(0.0));
    if let Some(p99) = stats::tail_percentile(walls, 99.0) {
        m.put("bench.wall_p99_s", p99);
    }
    let mut h = Fnv1a::default();
    ready
        .sources
        .iter()
        .for_each(|(src, _)| h.write(src.as_bytes()));
    m.put("apps.input_fingerprint48", h.finish48());

    // Each layer on its own, per source, medians summed over the sources.
    let reps = if args.seconds > 0.0 { 30 } else { 3 };
    let presets = presets();
    let (mut lex_s, mut parse_s, mut sema_s, mut compile_s, mut lint_s) = (0.0, 0.0, 0.0, 0.0, 0.0);
    let (mut tokens, mut kernels, mut elided, mut comm_facts, mut overlap_facts) = (0, 0, 0, 0, 0);
    for &(src, function) in &ready.sources {
        let Ok(toks) = lexer::lex(src) else { continue };
        let Ok(ast) = parser::parse(&toks) else {
            continue;
        };
        let Ok(typed) = sema::check(&ast) else {
            continue;
        };
        tokens += toks.len();
        lex_s += spans.scope("minic.lex", 0, |_| {
            median_secs(reps, || {
                black_box(lexer::lex(black_box(src)).is_ok());
            })
        });
        parse_s += spans.scope("minic.parse", 0, |_| {
            median_secs(reps, || {
                black_box(parser::parse(black_box(&toks)).is_ok());
            })
        });
        sema_s += spans.scope("minic.sema", 0, |_| {
            median_secs(reps, || {
                black_box(sema::check(black_box(&ast)).is_ok());
            })
        });
        for opts in &presets {
            compile_s += spans.scope("accc.compile", 0, |_| {
                median_secs(reps, || {
                    black_box(compile(black_box(&typed), function, opts).is_ok());
                })
            });
            if let Ok(prog) = compile(&typed, function, opts) {
                kernels += prog.kernels.len();
                elided += prog
                    .kernels
                    .iter()
                    .flat_map(|k| &k.configs)
                    .filter(|c| c.miss_check_elided)
                    .count();
                comm_facts += prog.comm_plan.n_facts();
                overlap_facts += prog.overlap_plan.n_facts();
            }
        }
        lint_s += spans.scope("accc.lint", 0, |_| {
            median_secs(reps, || {
                for f in &typed.functions {
                    black_box(lint_function(black_box(f), &presets[0]));
                }
            })
        });
    }
    m.put("minic.lex_us", lex_s * 1e6);
    m.put("minic.parse_us", parse_s * 1e6);
    m.put("minic.sema_us", sema_s * 1e6);
    m.put("minic.tokens", tokens as f64);
    m.put("accc.compile_us", compile_s * 1e6);
    m.put("accc.lint_us", lint_s * 1e6);
    m.put("accc.kernels", kernels as f64);
    m.put("accc.miss_checks_elided", elided as f64);
    m.put("accc.comm_elide_facts", comm_facts as f64);
    m.put("accc.overlap_facts", overlap_facts as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_order_is_seeded() {
        assert_eq!(sources(42), sources(42));
        assert!((0..16).any(|s| sources(s) != sources(42)));
        let mut a = sources(7);
        let mut b = sources(8);
        a.sort();
        b.sort();
        assert_eq!(a, b, "every seed sweeps the same eight sources");
        assert_eq!(a.len(), 8);
    }

    #[test]
    fn the_text_oracle_counts_loop_directives() {
        let src = "#pragma acc data copy(a)\n  #pragma acc parallel loop\n#pragma acc kernels\n#pragma acc loop gang\n";
        assert_eq!(expected_kernels(src), 2);
    }
}
