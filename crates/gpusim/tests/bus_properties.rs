//! Property tests on the PCIe bus scheduler: causality, conservation,
//! and link-serialization invariants hold for arbitrary transfer
//! schedules.

use std::collections::HashMap;

use acc_gpusim::{Endpoint, Segment, Topology};
use proptest::prelude::*;

fn arb_endpoint() -> impl Strategy<Value = Endpoint> {
    prop_oneof![
        Just(Endpoint::Host),
        (0usize..3).prop_map(Endpoint::Gpu),
    ]
}

/// Endpoints spanning islands and nodes of the cluster topology (GPUs
/// 0..24 cover three islands across two nodes).
fn arb_wide_endpoint() -> impl Strategy<Value = Endpoint> {
    prop_oneof![
        Just(Endpoint::Host),
        (0usize..24).prop_map(Endpoint::Gpu),
    ]
}

/// Every topology shape the model supports: the two flat paper
/// presets and the hierarchical cluster.
fn all_topologies() -> Vec<Topology> {
    vec![
        Topology::desktop(),
        Topology::supercomputer_node(),
        Topology::cluster(),
    ]
}

type Xfer = (Endpoint, Endpoint, u64, f64);

fn valid(src: Endpoint, dst: Endpoint) -> bool {
    match (src, dst) {
        (Endpoint::Host, Endpoint::Host) => false,
        (Endpoint::Gpu(a), Endpoint::Gpu(b)) => a != b,
        _ => true,
    }
}

/// Replay a sequence on a bus, returning the `(start, end)` of each
/// transfer in order.
fn replay(bus: &mut Topology, xfers: &[Xfer]) -> Vec<(f64, f64)> {
    xfers
        .iter()
        .filter(|(s, d, _, _)| valid(*s, *d))
        .map(|&(s, d, b, r)| bus.transfer(s, d, b, r))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn transfers_respect_causality_and_conserve_bytes(
        xfers in prop::collection::vec(
            (arb_endpoint(), arb_endpoint(), 0u64..10_000_000, 0.0f64..1.0),
            0..50,
        )
    ) {
        let mut bus = Topology::desktop();
        let mut total_h2d = 0u64;
        let mut total_d2h = 0u64;
        let mut total_p2p = 0u64;
        for (src, dst, bytes, ready) in xfers {
            // Skip the degenerate pairs the bus rejects by contract.
            match (src, dst) {
                (Endpoint::Host, Endpoint::Host) => continue,
                (Endpoint::Gpu(a), Endpoint::Gpu(b)) if a == b => continue,
                _ => {}
            }
            let (start, end) = bus.transfer(src, dst, bytes, ready);
            // Causality: never starts before it is ready, never ends
            // before it starts; zero-byte transfers are free.
            prop_assert!(start >= ready);
            prop_assert!(end >= start);
            if bytes == 0 {
                prop_assert_eq!(start, ready);
                prop_assert_eq!(end, ready);
            } else {
                // Must take at least latency + bytes at the fastest rate.
                let fastest = bus.h2d_bw.max(bus.p2p_bw).max(bus.root_bw);
                prop_assert!(end - start >= bus.latency + bytes as f64 / fastest - 1e-12);
            }
            match (src, dst) {
                (Endpoint::Host, Endpoint::Gpu(_)) => total_h2d += bytes,
                (Endpoint::Gpu(_), Endpoint::Host) => total_d2h += bytes,
                _ => total_p2p += bytes,
            }
        }
        // Conservation: the byte meters equal what we pushed through.
        prop_assert_eq!(bus.h2d_bytes, total_h2d);
        prop_assert_eq!(bus.d2h_bytes, total_d2h);
        prop_assert_eq!(bus.p2p_bytes, total_p2p);
    }

    #[test]
    fn same_link_never_overlaps(
        sizes in prop::collection::vec(1u64..5_000_000, 1..20)
    ) {
        // Repeated transfers on one GPU link must strictly serialize.
        let mut bus = Topology::desktop();
        let mut prev_end = 0.0f64;
        for bytes in sizes {
            let (start, end) = bus.transfer(Endpoint::Host, Endpoint::Gpu(0), bytes, 0.0);
            prop_assert!(start >= prev_end - 1e-12, "overlap: {start} < {prev_end}");
            prev_end = end;
        }
    }

    #[test]
    fn disjoint_p2p_pairs_do_overlap(bytes in 1_000_000u64..50_000_000) {
        let mut bus = Topology::supercomputer_node();
        let (_, e1) = bus.transfer(Endpoint::Gpu(0), Endpoint::Gpu(1), bytes, 0.0);
        let (s2, _) = bus.transfer(Endpoint::Gpu(2), Endpoint::Gpu(0), bytes, 0.0);
        // The second shares GPU 0's link, so it cannot start before the
        // first ends...
        prop_assert!(s2 >= e1 - 1e-12);
        bus.reset();
        let (_, _e1) = bus.transfer(Endpoint::Gpu(0), Endpoint::Gpu(1), bytes, 0.0);
        // ...but a fully disjoint pair starts immediately.
        // (Node has 3 GPUs; use hypothetical link 2<->host which shares
        // nothing with the 0<->1 pair except the root, sized for overlap.)
        let (s3, _) = bus.transfer(Endpoint::Gpu(2), Endpoint::Host, bytes, 0.0);
        prop_assert_eq!(s3, 0.0);
    }

    /// On every topology, the journal's per-segment occupancy intervals
    /// never overlap: dedicated links carry one transfer at a time, and
    /// aggregate segments (root complexes, the fabric) serve FCFS — so
    /// their throughput can never exceed the rated capacity, not even
    /// transiently (the bug the fractional-occupancy model had).
    #[test]
    fn no_two_transfers_sharing_a_segment_overlap(
        xfers in prop::collection::vec(
            (arb_wide_endpoint(), arb_wide_endpoint(), 0u64..10_000_000, 0.0f64..1.0),
            0..60,
        )
    ) {
        for mut bus in all_topologies() {
            bus.set_journal(true);
            replay(&mut bus, &xfers);
            let mut by_segment: HashMap<Segment, Vec<(f64, f64)>> = HashMap::new();
            for rec in bus.journal().unwrap() {
                prop_assert!(!rec.legs.is_empty());
                for leg in &rec.legs {
                    prop_assert!(leg.busy_from >= rec.start - 1e-12);
                    prop_assert!(leg.busy_until <= rec.end + 1e-12);
                    by_segment
                        .entry(leg.segment)
                        .or_default()
                        .push((leg.busy_from, leg.busy_until));
                }
            }
            for (seg, mut ivals) in by_segment {
                ivals.sort_by(|a, b| a.0.total_cmp(&b.0));
                for w in ivals.windows(2) {
                    prop_assert!(
                        w[1].0 >= w[0].1 - 1e-12,
                        "{seg:?}: [{},{}] overlaps [{},{}]",
                        w[0].0, w[0].1, w[1].0, w[1].1
                    );
                }
            }
        }
    }

    /// On every topology, the per-category byte meters equal the sums
    /// over the journal.
    #[test]
    fn byte_counters_equal_journal_sums(
        xfers in prop::collection::vec(
            (arb_wide_endpoint(), arb_wide_endpoint(), 0u64..10_000_000, 0.0f64..1.0),
            0..60,
        )
    ) {
        for mut bus in all_topologies() {
            bus.set_journal(true);
            replay(&mut bus, &xfers);
            let (mut h2d, mut d2h, mut p2p) = (0u64, 0u64, 0u64);
            for rec in bus.journal().unwrap() {
                match (rec.src, rec.dst) {
                    (Endpoint::Host, Endpoint::Gpu(_)) => h2d += rec.bytes,
                    (Endpoint::Gpu(_), Endpoint::Host) => d2h += rec.bytes,
                    _ => p2p += rec.bytes,
                }
            }
            prop_assert_eq!(bus.h2d_bytes, h2d);
            prop_assert_eq!(bus.d2h_bytes, d2h);
            prop_assert_eq!(bus.p2p_bytes, p2p);
        }
    }

    /// On every topology, delaying one transfer's `ready` (holding the
    /// schedule before it fixed) never makes that transfer finish
    /// earlier: end times are monotone in `ready`.
    #[test]
    fn end_times_monotone_in_ready(
        xfers in prop::collection::vec(
            (arb_wide_endpoint(), arb_wide_endpoint(), 1u64..10_000_000, 0.0f64..1.0),
            1..40,
        ),
        pick in 0usize..40,
        delay in 0.0f64..2.0,
    ) {
        for mut bus in all_topologies() {
            let base = replay(&mut bus, &xfers);
            if base.is_empty() {
                continue; // every pair was degenerate
            }
            let idx = pick % base.len();
            let mut bumped = xfers
                .iter()
                .cloned()
                .filter(|(s, d, _, _)| valid(*s, *d))
                .collect::<Vec<_>>();
            bumped[idx].3 += delay;
            bus.reset();
            let shifted = replay(&mut bus, &bumped);
            prop_assert!(shifted[idx].0 >= base[idx].0 - 1e-12);
            prop_assert!(
                shifted[idx].1 >= base[idx].1 - 1e-12,
                "end moved earlier: {} -> {}",
                base[idx].1, shifted[idx].1
            );
        }
    }

    /// The one order the runtime visits peers in is a permutation of
    /// the other GPUs: plain ascending index on the one-island presets,
    /// and on the cluster grouped same-island, then same-node, then
    /// across the fabric, ascending inside each group.
    #[test]
    fn peer_order_is_ascending_or_grouped_by_level(g in 0usize..64, n in 1usize..=64) {
        let g = g % n;
        let others: Vec<usize> = (0..n).filter(|&h| h != g).collect();
        for bus in [Topology::desktop(), Topology::supercomputer_node()] {
            prop_assert_eq!(bus.peer_order(g, n), others.clone());
        }
        let c = Topology::cluster();
        let order = c.peer_order(g, n);
        let level = |h: usize| {
            u32::from(c.island(h) != c.island(g)) + u32::from(c.node(h) != c.node(g))
        };
        for w in order.windows(2) {
            prop_assert!((level(w[0]), w[0]) < (level(w[1]), w[1]), "{order:?}");
        }
        let mut sorted = order;
        sorted.sort_unstable();
        prop_assert_eq!(sorted, others);
    }
}
