//! The runtime sanitizer only observes. Schedule, overlap, comm elision
//! and sanitize are independent axes: for every app, annotated and with
//! its `localaccess` pragmas stripped, on 2 and 3 node GPUs under both
//! schedules and on 16 cluster GPUs, with each pricing knob on and off,
//! a `SanitizeLevel::Full` run reports exactly what the unsanitized run
//! does — the `Spans` event stream, the total simulated time to the
//! bit, every trace counter and every output array's bytes.

use acc_apps::{app_inputs, App, Scale};
use acc_compiler::{compile_source, CompileOptions, CompiledProgram};
use acc_gpusim::Machine;
use acc_kernel_ir::{Buffer, Value};
use acc_runtime::prelude::*;

/// Drop every hand-written `localaccess` pragma line (replica placement
/// everywhere, so elision facts apply to the written arrays).
fn strip_localaccess(src: &str) -> String {
    src.lines()
        .filter(|l| !l.contains("#pragma acc localaccess"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Everything a run exposes, in comparable form.
struct Observed {
    events: Vec<acc_obs::Event>,
    time_bits: u64,
    counters: acc_obs::Counters,
    arrays: Vec<Vec<u8>>,
}

fn observe(
    prog: &CompiledProgram,
    input: &(Vec<Value>, Vec<Buffer>),
    cfg: &ExecConfig,
) -> Observed {
    let mut machine = match cfg.ngpus {
        n if n > 3 => Machine::cluster(n),
        _ => Machine::supercomputer_node(),
    };
    let (scalars, arrays) = input.clone();
    let r = run_program(&mut machine, cfg, prog, scalars, arrays)
        .unwrap_or_else(|e| panic!("{cfg:?}: {e}"));
    Observed {
        events: r.trace.events().to_vec(),
        time_bits: r.total_time().to_bits(),
        counters: r.trace.counters(),
        arrays: r.arrays.iter().map(|b| b.bytes().to_vec()).collect(),
    }
}

#[test]
fn full_sanitize_observes_every_schedule_and_knob() {
    let machines = [2, 3]
        .into_iter()
        .flat_map(|n| [(n, Schedule::Equal), (n, Schedule::CostModel)])
        .chain([(16, Schedule::Equal)]);
    let machines: Vec<_> = machines.collect();
    let (mut elided, mut overlapped) = (0, 0);
    for app in App::ALL {
        let input = app_inputs(app, Scale::Small, 7);
        let mut sources = vec![("annotated", app.source().to_string())];
        if app != App::Heat2dHalo2 {
            // Its carried dependence is only correct distributed.
            sources.push(("stripped", strip_localaccess(app.source())));
        }
        for (variant, src) in sources {
            let prog = compile_source(&src, app.function(), &CompileOptions::proposal())
                .unwrap_or_else(|e| panic!("{} {variant}: {e:?}", app.name()));
            for &(ngpus, schedule) in &machines {
                for (overlap, elision) in
                    [(false, false), (true, false), (false, true), (true, true)]
                {
                    let cfg = ExecConfig::gpus(ngpus)
                        .schedule(schedule)
                        .overlap(overlap)
                        .comm_elision(elision)
                        .tracing(TraceLevel::Spans);
                    let off = observe(&prog, &input, &cfg);
                    let full = observe(&prog, &input, &cfg.clone().sanitize(SanitizeLevel::Full));
                    let what = format!(
                        "{} {variant} x{ngpus} {schedule:?} overlap={overlap} elision={elision}",
                        app.name()
                    );
                    assert!(off.events == full.events, "{what}: event streams differ");
                    assert_eq!(off.time_bits, full.time_bits, "{what}: total time");
                    assert_eq!(off.counters, full.counters, "{what}: counters");
                    assert!(off.arrays == full.arrays, "{what}: arrays differ");
                    elided += usize::from(off.counters.comm_elisions > 0);
                    overlapped += usize::from(off.counters.overlap_windows > 0);
                }
            }
        }
    }
    // The grid must exercise both knobs, or it proves nothing.
    assert!(elided > 0, "no pair elided a sync");
    assert!(overlapped > 0, "no pair recorded an overlap window");
}
