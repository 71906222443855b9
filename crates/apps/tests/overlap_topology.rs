//! Acceptance tests for the hierarchical-topology runtime features:
//! double-buffered halo overlap (pricing-only, `SanitizeLevel::Full`
//! re-arms the synchronous path bit-identically) and topology-aware
//! reduction collectives, on real apps at 16–64 simulated GPUs.

use acc_apps::{heat2d, pagerank};
use acc_compiler::{compile_source, CompileOptions};
use acc_gpusim::Machine;
use acc_obs::Event;
use acc_runtime::prelude::*;

fn run_heat2d(machine: &mut Machine, ecfg: &ExecConfig, seed: u64) -> RunReport {
    let cfg = heat2d::Heat2dConfig::small();
    let input = heat2d::generate(&cfg, seed);
    let prog =
        compile_source(heat2d::SOURCE, heat2d::FUNCTION, &CompileOptions::proposal()).unwrap();
    let (scalars, arrays) = heat2d::inputs(&input);
    run_program(machine, ecfg, &prog, scalars, arrays).unwrap()
}

fn run_pagerank(machine: &mut Machine, ecfg: &ExecConfig, seed: u64) -> RunReport {
    let cfg = pagerank::PagerankConfig::small();
    let input = pagerank::generate(&cfg, seed);
    let prog = compile_source(
        pagerank::SOURCE,
        pagerank::FUNCTION,
        &CompileOptions::proposal(),
    )
    .unwrap();
    let (scalars, arrays) = pagerank::inputs(&input);
    run_program(machine, ecfg, &prog, scalars, arrays).unwrap()
}

#[test]
fn overlap_is_pricing_only_and_hides_loader_time() {
    // The knob must never change array contents — the functional halo
    // copies stay in program order — and on a hierarchical machine with
    // halo traffic it must actually hide loader-critical-path seconds.
    let base = ExecConfig::gpus(16);
    let on = ExecConfig::gpus(16).overlap(true);
    let r_off = run_heat2d(&mut Machine::cluster(16), &base, 5);
    let r_on = run_heat2d(&mut Machine::cluster(16), &on, 5);
    assert_eq!(
        r_off.arrays[heat2d::PLATE_ARRAY].to_f64_vec(),
        r_on.arrays[heat2d::PLATE_ARRAY].to_f64_vec(),
        "overlap changed array contents"
    );
    let c = r_on.trace.counters();
    assert!(c.overlap_windows > 0, "no overlap windows recorded");
    assert!(c.overlap_hidden_ns > 0, "overlap hid no loader time");
    assert_eq!(r_off.trace.counters().overlap_windows, 0);
    // Hiding halo fills under compute can only shorten the total.
    assert!(
        r_on.total_time() <= r_off.total_time() + 1e-12,
        "overlap lengthened the run: {} > {}",
        r_on.total_time(),
        r_off.total_time()
    );
    assert!(
        r_on.profile.time.cpu_gpu < r_off.profile.time.cpu_gpu,
        "overlap did not shrink the synchronous loader share"
    );
}

#[test]
fn full_sanitize_rearms_the_synchronous_path_bit_identically() {
    // Under SanitizeLevel::Full the overlap knob must be inert: arrays
    // AND the full event stream (all simulated times included) match a
    // run with the knob off.
    let off = ExecConfig::gpus(16)
        .sanitize(SanitizeLevel::Full)
        .tracing(TraceLevel::Spans);
    let on = off.clone().overlap(true);
    let r_off = run_heat2d(&mut Machine::cluster(16), &off, 11);
    let r_on = run_heat2d(&mut Machine::cluster(16), &on, 11);
    assert_eq!(
        r_off.arrays[heat2d::PLATE_ARRAY].to_f64_vec(),
        r_on.arrays[heat2d::PLATE_ARRAY].to_f64_vec()
    );
    assert_eq!(r_on.trace.counters().overlap_windows, 0);
    assert_eq!(
        r_off.trace.render_text(),
        r_on.trace.render_text(),
        "event streams diverged under Full re-arming"
    );
}

#[test]
fn heat2d_comm_time_shrinks_on_cluster_with_overlap_at_16_gpus() {
    let cfg = heat2d::Heat2dConfig::small();
    let input = heat2d::generate(&cfg, 9);
    let expect = heat2d::reference(&input);
    let prog =
        compile_source(heat2d::SOURCE, heat2d::FUNCTION, &CompileOptions::proposal()).unwrap();
    let comm = |machine: &mut Machine, ecfg: &ExecConfig| {
        let (scalars, arrays) = heat2d::inputs(&input);
        let r = run_program(machine, ecfg, &prog, scalars, arrays).unwrap();
        let err = heat2d::max_error(&r.arrays[heat2d::PLATE_ARRAY].to_f64_vec(), &expect);
        assert!(err < 1e-12, "err={err}");
        r.profile.time.cpu_gpu + r.profile.time.gpu_gpu
    };
    let flat = comm(
        &mut Machine::supercomputer_node_with_gpus(16),
        &ExecConfig::gpus(16),
    );
    let clustered = comm(
        &mut Machine::cluster(16),
        &ExecConfig::gpus(16).overlap(true),
    );
    assert!(
        clustered < flat,
        "topology-aware + overlap comm not cheaper: cluster={clustered} flat={flat}"
    );
}

#[test]
fn pagerank_comm_time_shrinks_on_cluster_at_16_gpus() {
    let cfg = pagerank::PagerankConfig::small();
    let input = pagerank::generate(&cfg, 13);
    let expect = pagerank::reference(&input);
    let prog = compile_source(
        pagerank::SOURCE,
        pagerank::FUNCTION,
        &CompileOptions::proposal(),
    )
    .unwrap();
    let comm = |machine: &mut Machine, ecfg: &ExecConfig| {
        let (scalars, arrays) = pagerank::inputs(&input);
        let r = run_program(machine, ecfg, &prog, scalars, arrays).unwrap();
        let err = pagerank::max_error(&r.arrays[pagerank::RANK_ARRAY].to_f64_vec(), &expect);
        assert!(err < 1e-9, "err={err}");
        r.profile.time.cpu_gpu + r.profile.time.gpu_gpu
    };
    let flat = comm(
        &mut Machine::supercomputer_node_with_gpus(16),
        &ExecConfig::gpus(16),
    );
    let clustered = comm(
        &mut Machine::cluster(16),
        &ExecConfig::gpus(16).overlap(true),
    );
    assert!(
        clustered < flat,
        "hierarchical collectives not cheaper: cluster={clustered} flat={flat}"
    );
}

#[test]
fn hierarchical_reduction_emits_leveled_collective_rounds() {
    // 64 cluster GPUs = 8 islands × 8 over 4 nodes: the reduction tree
    // must produce rounds at all three levels, and the flat preset none.
    let ecfg = ExecConfig::gpus(64).tracing(TraceLevel::Summary);
    let r = run_pagerank(&mut Machine::cluster(64), &ecfg, 17);
    assert!(r.trace.counters().collective_rounds > 0);
    let levels: std::collections::BTreeSet<&str> = r
        .trace
        .events()
        .iter()
        .filter_map(|e| match e {
            Event::Collective(c) => Some(c.level),
            _ => None,
        })
        .collect();
    for want in ["intra-island", "inter-island", "inter-node"] {
        assert!(levels.contains(want), "missing level {want}: {levels:?}");
    }

    let flat_cfg = ExecConfig::gpus(16).tracing(TraceLevel::Summary);
    let r = run_pagerank(
        &mut Machine::supercomputer_node_with_gpus(16),
        &flat_cfg,
        17,
    );
    assert_eq!(
        r.trace.counters().collective_rounds,
        0,
        "flat topology must keep the seed's single-level tree"
    );
}

#[test]
fn pagerank_sync_traffic_grows_with_the_topology_not_with_gpu_pairs() {
    // Replica sync relays island and node unions through leaders, so
    // going from two islands to eight (16 → 64 GPUs) must not cost the
    // 16× an all-to-all would. One island (8 GPUs) is the paper's
    // all-to-all: its numbers are pinned to that schedule's. The input
    // has `pagerank-64gpu`'s shape.
    let cfg = pagerank::PagerankConfig { n: 16_384, ..pagerank::PagerankConfig::small() };
    let input = pagerank::generate(&cfg, 42);
    let expect = pagerank::reference(&input);
    let prog = compile_source(
        pagerank::SOURCE,
        pagerank::FUNCTION,
        &CompileOptions::proposal(),
    )
    .unwrap();
    let comm = |ngpus: usize| {
        let (scalars, arrays) = pagerank::inputs(&input);
        let r = run_program(
            &mut Machine::cluster(ngpus),
            &ExecConfig::gpus(ngpus),
            &prog,
            scalars,
            arrays,
        )
        .unwrap();
        let err = pagerank::max_error(&r.arrays[pagerank::RANK_ARRAY].to_f64_vec(), &expect);
        assert!(err < 1e-9, "x{ngpus}: err={err}");
        (r.profile.p2p_bytes, r.profile.time.gpu_gpu)
    };
    let (b8, t8) = comm(8);
    let (b16, t16) = comm(16);
    let (b64, t64) = comm(64);
    // Of these bytes, 114 688 (7/8 of `newrank`) are not sync: GPU 0's
    // reduction-private live copy gathers the other partitions from its
    // island peers once, because no window is ever evicted to the host.
    assert_eq!(b8, 135_880_360, "one-island sync volume moved");
    assert!((t8 - 2.509339364864892e-3).abs() < 1e-12, "one-island GPU-GPU time moved: {t8:e}");
    // 4.1× and 2.0× here; the all-to-all read 16.6× and 12.6×.
    assert!(b64 < 6 * b16, "p2p bytes: {b16} at 16 GPUs, {b64} at 64");
    assert!(t64 < 4.0 * t16, "GPU-GPU time: {t16:e} s at 16 GPUs, {t64:e} s at 64");
}

#[test]
#[ignore = "release-mode CI smoke: full sanitize at 8, 16 and 64 cluster GPUs"]
fn scaling_smoke_full_sanitize_cluster_with_overlap_armed() {
    // The CI scaling job: both scaling apps on the cluster topology at
    // 8, 16 and 64 GPUs (one island, one node, four nodes), fully
    // sanitized, with the overlap knob armed (Full re-arms the
    // synchronous schedule, so this also exercises the re-arming path
    // at scale). Everything must pass its oracle.
    for ngpus in [8usize, 16, 64] {
        let ecfg = ExecConfig::gpus(ngpus)
            .sanitize(SanitizeLevel::Full)
            .overlap(true);

        let input = heat2d::generate(&heat2d::Heat2dConfig::small(), 42);
        let expect = heat2d::reference(&input);
        let prog =
            compile_source(heat2d::SOURCE, heat2d::FUNCTION, &CompileOptions::proposal()).unwrap();
        let (scalars, arrays) = heat2d::inputs(&input);
        let r = run_program(&mut Machine::cluster(ngpus), &ecfg, &prog, scalars, arrays).unwrap();
        let err = heat2d::max_error(&r.arrays[heat2d::PLATE_ARRAY].to_f64_vec(), &expect);
        assert!(err < 1e-12, "heat2d x{ngpus}: err={err}");

        let input = pagerank::generate(&pagerank::PagerankConfig::small(), 42);
        let expect = pagerank::reference(&input);
        let prog = compile_source(
            pagerank::SOURCE,
            pagerank::FUNCTION,
            &CompileOptions::proposal(),
        )
        .unwrap();
        let (scalars, arrays) = pagerank::inputs(&input);
        let r = run_program(&mut Machine::cluster(ngpus), &ecfg, &prog, scalars, arrays).unwrap();
        let err = pagerank::max_error(&r.arrays[pagerank::RANK_ARRAY].to_f64_vec(), &expect);
        assert!(err < 1e-9, "pagerank x{ngpus}: err={err}");
    }
}

#[test]
fn overlap_on_flat_topology_keeps_results_and_stays_armed() {
    // The overlap gate is the compiler fact, not the topology: a flat
    // bus still benefits (halo fills exist there too), and results stay
    // identical to the synchronous schedule.
    let mut m1 = Machine::supercomputer_node_with_gpus(8);
    let mut m2 = Machine::supercomputer_node_with_gpus(8);
    let r_off = run_heat2d(&mut m1, &ExecConfig::gpus(8), 21);
    let r_on = run_heat2d(&mut m2, &ExecConfig::gpus(8).overlap(true), 21);
    assert_eq!(
        r_off.arrays[heat2d::PLATE_ARRAY].to_f64_vec(),
        r_on.arrays[heat2d::PLATE_ARRAY].to_f64_vec()
    );
    assert!(r_on.trace.counters().overlap_windows > 0);
    assert!(r_on.total_time() <= r_off.total_time() + 1e-12);
}
