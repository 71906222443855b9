//! Hierarchical interconnect topology.
//!
//! The paper (§II-B) stresses that "data movement among the CPUs and the
//! GPUs often becomes the performance bottleneck". Its two platforms stop
//! at one PCIe root complex; this module generalises that flat bus into a
//! three-level hierarchy so scaling studies past one bus are possible:
//!
//! * **intra-island** — GPUs on one NVLink-class switch exchange peer
//!   traffic over their own links at `intra_bw` without touching the
//!   root complex;
//! * **inter-island** — islands on one node share the node's PCIe root
//!   complex (`root_bw` aggregate), exactly like the paper's platforms;
//! * **inter-node** — nodes are joined by a fabric with per-flow
//!   bandwidth `fabric_bw` and aggregate capacity `fabric_agg_bw`.
//!
//! The paper's desktop and TSUBAME presets are one-island instances
//! (`gpus_per_island == usize::MAX`, no island switch): every peer
//! transfer crosses the root complex, as it physically does on those
//! machines.
//!
//! ## Contention semantics (shared by every level)
//!
//! Two kinds of segment exist, with one fixed rule each:
//!
//! * a **dedicated** segment (one GPU's x16 link) carries one transfer
//!   at a time: a transfer starts when every dedicated segment on its
//!   path is free, and holds them until it completes;
//! * an **aggregate** segment (a root complex, the inter-node fabric)
//!   does not gate the start. Instead it serves each transfer's bytes
//!   FCFS at its rated capacity: the transfer's *service interval* on
//!   the segment begins at `max(start, horizon)` and lasts
//!   `bytes / capacity`, and the transfer cannot finish before its last
//!   service interval does.
//!
//! Because service intervals on an aggregate segment never overlap, the
//! aggregate throughput through a root complex or the fabric can never
//! exceed its rated capacity — not even transiently. (The previous
//! fractional-occupancy model front-loaded the root occupancy, which let
//! N concurrent host transfers sustain `N·h2d_bw` through a root rated
//! below that for part of their duration, and skipped the root entirely
//! for peer traffic.)

use std::collections::HashMap;

use crate::SimTime;

/// A transfer endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// Host (CPU) memory.
    Host,
    /// GPU `i`'s memory.
    Gpu(usize),
}

impl From<usize> for Endpoint {
    /// A bare index names a GPU.
    fn from(g: usize) -> Endpoint {
        Endpoint::Gpu(g)
    }
}

/// One interconnect segment a transfer can occupy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Segment {
    /// The dedicated x16 link of one GPU (carries one transfer at a
    /// time).
    GpuLink(usize),
    /// The shared root complex / IOH of one node (aggregate capacity
    /// [`Topology::root_bw`]).
    Root(usize),
    /// The inter-node fabric (aggregate capacity
    /// [`Topology::fabric_agg_bw`]).
    Fabric,
}

impl Segment {
    /// True for segments that serialise transfers outright (a transfer
    /// holds them exclusively from start to end).
    pub fn is_dedicated(self) -> bool {
        matches!(self, Segment::GpuLink(_))
    }
}

/// One transfer's occupancy of one segment. For dedicated segments this
/// is the whole `[start, end]` of the transfer; for aggregate segments
/// it is the FCFS service interval, and service intervals of different
/// transfers on the same segment never overlap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentUse {
    pub segment: Segment,
    pub busy_from: SimTime,
    pub busy_until: SimTime,
}

/// One transfer as the interconnect scheduled it (journal entry).
#[derive(Debug, Clone, PartialEq)]
pub struct TransferRec {
    pub src: Endpoint,
    pub dst: Endpoint,
    pub bytes: u64,
    pub start: SimTime,
    pub end: SimTime,
    /// Per-segment occupancy intervals along the routed path.
    pub legs: Vec<SegmentUse>,
}

/// Interconnect configuration and per-segment timelines. The paper's
/// flat PCIe bus is the one-island special case.
#[derive(Debug, Clone)]
pub struct Topology {
    /// Host↔GPU effective bandwidth per link, bytes/s.
    pub h2d_bw: f64,
    /// GPU↔GPU effective peer bandwidth across the root complex
    /// (inter-island on hierarchical instances), bytes/s.
    pub p2p_bw: f64,
    /// Aggregate root-complex capacity per node, bytes/s.
    pub root_bw: f64,
    /// Per-transfer latency on PCIe paths, seconds.
    pub latency: f64,
    /// GPU↔GPU peer bandwidth inside an island (NVLink-class switch),
    /// bytes/s. Equal to `p2p_bw` on one-island presets.
    pub intra_bw: f64,
    /// Per-transfer latency on intra-island paths, seconds.
    pub intra_latency: f64,
    /// Per-flow bandwidth across the inter-node fabric, bytes/s.
    pub fabric_bw: f64,
    /// Aggregate capacity of the inter-node fabric, bytes/s.
    pub fabric_agg_bw: f64,
    /// Per-transfer latency on inter-node paths, seconds.
    pub fabric_latency: f64,
    /// GPUs per NVLink island (`usize::MAX` = everything is one island).
    pub gpus_per_island: usize,
    /// GPUs per node (`usize::MAX` = everything is one node).
    pub gpus_per_node: usize,
    /// True when islands have their own switch, so intra-island peer
    /// transfers bypass the root complex. False on the paper's flat
    /// platforms, where peer traffic crosses the root like host traffic.
    pub island_switch: bool,
    free_at: HashMap<Segment, SimTime>,
    /// Accumulated bytes by category, for reporting.
    pub h2d_bytes: u64,
    pub d2h_bytes: u64,
    pub p2p_bytes: u64,
    /// Optional transfer journal (see [`Topology::set_journal`]).
    journal: Option<Vec<TransferRec>>,
}

impl Topology {
    /// Build a flat (one-island, one-node) bus from effective bandwidths
    /// in GB/s and latency in µs — the paper's machine shape.
    pub fn new(h2d_gbs: f64, p2p_gbs: f64, root_gbs: f64, latency_us: f64) -> Topology {
        Topology {
            h2d_bw: h2d_gbs * 1e9,
            p2p_bw: p2p_gbs * 1e9,
            root_bw: root_gbs * 1e9,
            latency: latency_us * 1e-6,
            intra_bw: p2p_gbs * 1e9,
            intra_latency: latency_us * 1e-6,
            fabric_bw: p2p_gbs * 1e9,
            fabric_agg_bw: root_gbs * 1e9,
            fabric_latency: latency_us * 1e-6,
            gpus_per_island: usize::MAX,
            gpus_per_node: usize::MAX,
            island_switch: false,
            free_at: HashMap::new(),
            h2d_bytes: 0,
            d2h_bytes: 0,
            p2p_bytes: 0,
            journal: None,
        }
    }

    /// Build a full three-level hierarchy. Bandwidths in GB/s, latencies
    /// in µs. `gpus_per_node` must be a multiple of `gpus_per_island`.
    #[allow(clippy::too_many_arguments)]
    pub fn hierarchical(
        h2d_gbs: f64,
        p2p_gbs: f64,
        root_gbs: f64,
        latency_us: f64,
        intra_gbs: f64,
        intra_latency_us: f64,
        fabric_gbs: f64,
        fabric_agg_gbs: f64,
        fabric_latency_us: f64,
        gpus_per_island: usize,
        gpus_per_node: usize,
    ) -> Topology {
        assert!(gpus_per_island >= 1 && gpus_per_node >= gpus_per_island);
        assert_eq!(
            gpus_per_node % gpus_per_island,
            0,
            "islands must tile nodes evenly"
        );
        Topology {
            intra_bw: intra_gbs * 1e9,
            intra_latency: intra_latency_us * 1e-6,
            fabric_bw: fabric_gbs * 1e9,
            fabric_agg_bw: fabric_agg_gbs * 1e9,
            fabric_latency: fabric_latency_us * 1e-6,
            gpus_per_island,
            gpus_per_node,
            island_switch: true,
            ..Topology::new(h2d_gbs, p2p_gbs, root_gbs, latency_us)
        }
    }

    /// Desktop machine (Table I): PCIe 2.0 x16 per GPU, single IOH.
    pub fn desktop() -> Topology {
        Topology::new(5.8, 4.8, 9.0, 10.0)
    }

    /// TSUBAME2.0 thin node (Table I): PCIe 2.0 x16, dual IOH — peer
    /// transfers between GPUs on different IOHs cross QPI and are slower.
    pub fn supercomputer_node() -> Topology {
        Topology::new(5.0, 2.6, 8.0, 12.0)
    }

    /// A cluster of TSUBAME-class nodes upgraded with NVLink islands:
    /// 8 GPUs per island behind a 50 GB/s switch (1 µs), two islands per
    /// node sharing the node's PCIe root complex, nodes joined by a
    /// 10 GB/s-per-flow / 40 GB/s-aggregate fabric (25 µs). PCIe numbers
    /// match [`Topology::supercomputer_node`] so the flat presets are the
    /// degenerate one-island instance of the same model.
    pub fn cluster() -> Topology {
        Topology::hierarchical(5.0, 2.6, 8.0, 12.0, 50.0, 1.0, 10.0, 40.0, 25.0, 8, 16)
    }

    /// True when more than one island or node can exist. The runtime's
    /// schedules never ask — they are the same code on every topology —
    /// only which event kind reports a reduction-merge hop does.
    pub fn is_hierarchical(&self) -> bool {
        self.gpus_per_island != usize::MAX || self.gpus_per_node != usize::MAX
    }

    /// Island index of a GPU.
    pub fn island(&self, gpu: usize) -> usize {
        gpu / self.gpus_per_island
    }

    /// Node index of a GPU.
    pub fn node(&self, gpu: usize) -> usize {
        gpu / self.gpus_per_node
    }

    /// Hop distance between two GPUs: 0 = same island, 1 = same node
    /// (crosses the root complex), 2 = different nodes (crosses the
    /// fabric). Nearest-neighbour routing prefers lower distances.
    pub fn distance(&self, a: usize, b: usize) -> u32 {
        if self.node(a) != self.node(b) {
            2
        } else if self.island(a) != self.island(b) {
            1
        } else {
            0
        }
    }

    /// The peers of GPU `g` among GPUs `0..n`, nearest first: ordered by
    /// `(distance, index)`. The one order the runtime visits replica-sync
    /// destinations and halo-fill sources in, so intra-island traffic
    /// clears its dedicated links before root- and fabric-bound traffic
    /// queues. On a one-island topology every distance is 0 and the
    /// order is plain ascending index.
    pub fn peer_order(&self, g: usize, n: usize) -> Vec<usize> {
        let mut peers: Vec<usize> = (0..n).filter(|&h| h != g).collect();
        peers.sort_by_key(|&h| (self.distance(g, h), h));
        peers
    }

    /// Turn the transfer journal on or off. When on, every scheduled
    /// transfer (zero-byte transfers excepted — they never occupy the
    /// interconnect) is appended to the journal the runtime's
    /// observability layer cross-checks its spans against.
    pub fn set_journal(&mut self, on: bool) {
        self.journal = if on { Some(Vec::new()) } else { None };
    }

    /// The recorded transfers, if the journal is enabled.
    pub fn journal(&self) -> Option<&[TransferRec]> {
        self.journal.as_deref()
    }

    /// Aggregate capacity of a shared segment (`None` for dedicated
    /// segments).
    fn capacity(&self, s: Segment) -> Option<f64> {
        match s {
            Segment::GpuLink(_) => None,
            Segment::Root(_) => Some(self.root_bw),
            Segment::Fabric => Some(self.fabric_agg_bw),
        }
    }

    /// Route a transfer: the segments it occupies, its per-flow
    /// bandwidth, and its latency.
    fn route(&self, src: Endpoint, dst: Endpoint) -> (Vec<Segment>, f64, f64) {
        match (src, dst) {
            (Endpoint::Host, Endpoint::Gpu(g)) | (Endpoint::Gpu(g), Endpoint::Host) => (
                vec![Segment::GpuLink(g), Segment::Root(self.node(g))],
                self.h2d_bw,
                self.latency,
            ),
            (Endpoint::Gpu(a), Endpoint::Gpu(b)) => {
                assert_ne!(a, b, "self-transfer is a device-local copy");
                if self.node(a) != self.node(b) {
                    (
                        vec![
                            Segment::GpuLink(a),
                            Segment::GpuLink(b),
                            Segment::Root(self.node(a)),
                            Segment::Root(self.node(b)),
                            Segment::Fabric,
                        ],
                        self.fabric_bw,
                        self.fabric_latency,
                    )
                } else if self.island(a) == self.island(b) && self.island_switch {
                    // NVLink island: peer traffic stays on the switch.
                    (
                        vec![Segment::GpuLink(a), Segment::GpuLink(b)],
                        self.intra_bw,
                        self.intra_latency,
                    )
                } else {
                    // Same node across islands — or a flat one-island
                    // platform, where peer transfers physically cross the
                    // root complex and contend with host traffic.
                    (
                        vec![
                            Segment::GpuLink(a),
                            Segment::GpuLink(b),
                            Segment::Root(self.node(a)),
                        ],
                        self.p2p_bw,
                        self.latency,
                    )
                }
            }
            (Endpoint::Host, Endpoint::Host) => panic!("host-to-host transfer"),
        }
    }

    /// Schedule a transfer of `bytes` from `src` to `dst`, not starting
    /// before `ready`. Returns `(start, end)` simulated times and advances
    /// the segment timelines. Zero-byte transfers are free and do not
    /// occupy the interconnect.
    pub fn transfer(
        &mut self,
        src: Endpoint,
        dst: Endpoint,
        bytes: u64,
        ready: SimTime,
    ) -> (SimTime, SimTime) {
        if bytes == 0 {
            return (ready, ready);
        }
        let (segs, bw, latency) = self.route(src, dst);
        // Dedicated segments gate the start; aggregate ones do not.
        let mut start = ready;
        for s in &segs {
            if s.is_dedicated() {
                start = start.max(*self.free_at.get(s).unwrap_or(&0.0));
            }
        }
        let mut end = start + latency + bytes as f64 / bw;
        let mut legs = Vec::with_capacity(segs.len());
        for &s in &segs {
            if let Some(cap) = self.capacity(s) {
                // FCFS service: the segment ships this transfer's bytes
                // in a window that never overlaps another transfer's, so
                // the aggregate throughput cannot exceed `cap`.
                let serv_start = start.max(*self.free_at.get(&s).unwrap_or(&0.0));
                let serv_end = serv_start + bytes as f64 / cap;
                self.free_at.insert(s, serv_end);
                end = end.max(serv_end);
                legs.push(SegmentUse {
                    segment: s,
                    busy_from: serv_start,
                    busy_until: serv_end,
                });
            }
        }
        // Dedicated links are held for the whole transfer, including any
        // tail spent waiting on an aggregate stage.
        for &s in &segs {
            if s.is_dedicated() {
                self.free_at.insert(s, end);
                legs.push(SegmentUse {
                    segment: s,
                    busy_from: start,
                    busy_until: end,
                });
            }
        }
        match (src, dst) {
            (Endpoint::Host, Endpoint::Gpu(_)) => self.h2d_bytes += bytes,
            (Endpoint::Gpu(_), Endpoint::Host) => self.d2h_bytes += bytes,
            _ => self.p2p_bytes += bytes,
        }
        if let Some(j) = self.journal.as_mut() {
            j.push(TransferRec {
                src,
                dst,
                bytes,
                start,
                end,
                legs,
            });
        }
        (start, end)
    }

    /// Reset timelines, byte counters, and journal contents (e.g.
    /// between benchmark runs). Whether the journal is enabled persists.
    pub fn reset(&mut self) {
        self.free_at.clear();
        self.h2d_bytes = 0;
        self.d2h_bytes = 0;
        self.p2p_bytes = 0;
        if let Some(j) = self.journal.as_mut() {
            j.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_transfer_time() {
        let mut bus = Topology::new(5.0, 4.0, 10.0, 10.0);
        let (s, e) = bus.transfer(Endpoint::Host, Endpoint::Gpu(0), 5_000_000_000, 0.0);
        assert_eq!(s, 0.0);
        // 5 GB at 5 GB/s = 1 s plus 10 µs latency.
        assert!((e - 1.000_01).abs() < 1e-6);
        assert_eq!(bus.h2d_bytes, 5_000_000_000);
    }

    #[test]
    fn zero_bytes_free() {
        let mut bus = Topology::desktop();
        let (s, e) = bus.transfer(Endpoint::Host, Endpoint::Gpu(0), 0, 3.0);
        assert_eq!((s, e), (3.0, 3.0));
    }

    #[test]
    fn same_link_serializes() {
        let mut bus = Topology::new(5.0, 4.0, 100.0, 0.0);
        let b = 5_000_000_000; // 1 s each
        let (_, e1) = bus.transfer(Endpoint::Host, Endpoint::Gpu(0), b, 0.0);
        let (s2, e2) = bus.transfer(Endpoint::Host, Endpoint::Gpu(0), b, 0.0);
        assert!((e1 - 1.0).abs() < 1e-9);
        assert!((s2 - 1.0).abs() < 1e-9);
        assert!((e2 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn different_links_overlap() {
        // Root is wide enough for two concurrent host transfers.
        let mut bus = Topology::new(5.0, 4.0, 10.0, 0.0);
        let b = 5_000_000_000;
        let (_, e1) = bus.transfer(Endpoint::Host, Endpoint::Gpu(0), b, 0.0);
        let (s2, e2) = bus.transfer(Endpoint::Host, Endpoint::Gpu(1), b, 0.0);
        assert!((e1 - 1.0).abs() < 1e-9);
        // Second starts immediately on its own link — overlapping, not
        // serialized; its root service window queues behind the first.
        assert!(s2 < 0.6, "s2={s2}");
        assert!(e2 < 1.7, "e2={e2}");
    }

    /// Regression (bug 2): the root-complex cap used to engage only when
    /// `root_bw < h2d_bw`, so three concurrent 5 GB/s host links could
    /// sustain 15 GB/s through a 6 GB/s root. Under FCFS aggregate
    /// service the three transfers' root windows queue back-to-back and
    /// the aggregate is exactly 6 GB/s.
    #[test]
    fn root_cap_holds_under_concurrent_host_traffic() {
        let mut bus = Topology::new(5.0, 4.0, 6.0, 0.0);
        let b = 5_000_000_000; // 5 GB each; 5/6 s of root service each
        let (s1, e1) = bus.transfer(Endpoint::Host, Endpoint::Gpu(0), b, 0.0);
        let (s2, e2) = bus.transfer(Endpoint::Host, Endpoint::Gpu(1), b, 0.0);
        let (s3, e3) = bus.transfer(Endpoint::Host, Endpoint::Gpu(2), b, 0.0);
        assert_eq!((s1, s2, s3), (0.0, 0.0, 0.0));
        // Link time is 1 s; root service windows are [0, 5/6],
        // [5/6, 10/6], [10/6, 15/6].
        assert!((e1 - 1.0).abs() < 1e-9, "e1={e1}");
        assert!((e2 - 10.0 / 6.0).abs() < 1e-9, "e2={e2}");
        assert!((e3 - 2.5).abs() < 1e-9, "e3={e3}");
        // 15 GB through a 6 GB/s root takes exactly 2.5 s in aggregate.
        assert!((e3 - 15.0 / 6.0).abs() < 1e-12);
    }

    /// Regression (bug 1): peer transfers on one-island platforms used to
    /// skip `Segment::Root`, so P2P and H2D traffic overlapped freely
    /// even though both cross the root complex. With the root saturated
    /// by an H2D transfer, a concurrent P2P transfer must queue its root
    /// service behind it.
    #[test]
    fn p2p_contends_with_host_traffic_on_the_root() {
        let mut bus = Topology::new(5.0, 5.0, 5.0, 0.0);
        let b = 5_000_000_000; // 1 s of root service each
        let (_, e1) = bus.transfer(Endpoint::Host, Endpoint::Gpu(0), b, 0.0);
        assert!((e1 - 1.0).abs() < 1e-9);
        // Different GPU links, so the start is immediate — but the root
        // is saturated until t=1, so the peer copy cannot finish before
        // t=2 (it used to report 1.0).
        let (s2, e2) = bus.transfer(Endpoint::Gpu(1), Endpoint::Gpu(2), b, 0.0);
        assert_eq!(s2, 0.0);
        assert!((e2 - 2.0).abs() < 1e-9, "e2={e2}");
    }

    #[test]
    fn p2p_uses_peer_bandwidth() {
        let mut bus = Topology::new(5.0, 2.5, 10.0, 0.0);
        let (_, e) = bus.transfer(Endpoint::Gpu(0), Endpoint::Gpu(1), 2_500_000_000, 0.0);
        assert!((e - 1.0).abs() < 1e-9);
        assert_eq!(bus.p2p_bytes, 2_500_000_000);
    }

    #[test]
    fn p2p_pairs_on_disjoint_gpus_overlap() {
        let mut bus = Topology::new(5.0, 2.5, 10.0, 0.0);
        let b = 2_500_000_000;
        let (_, e1) = bus.transfer(Endpoint::Gpu(0), Endpoint::Gpu(1), b, 0.0);
        let (s2, _) = bus.transfer(Endpoint::Gpu(2), Endpoint::Gpu(3), b, 0.0);
        assert!((e1 - 1.0).abs() < 1e-9);
        assert_eq!(s2, 0.0);
    }

    #[test]
    fn p2p_sharing_a_gpu_serializes() {
        let mut bus = Topology::new(5.0, 2.5, 10.0, 0.0);
        let b = 2_500_000_000;
        bus.transfer(Endpoint::Gpu(0), Endpoint::Gpu(1), b, 0.0);
        let (s2, _) = bus.transfer(Endpoint::Gpu(1), Endpoint::Gpu(2), b, 0.0);
        assert!((s2 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ready_time_respected() {
        let mut bus = Topology::desktop();
        let (s, _) = bus.transfer(Endpoint::Host, Endpoint::Gpu(0), 1024, 7.5);
        assert_eq!(s, 7.5);
    }

    #[test]
    fn reset_clears_state() {
        let mut bus = Topology::desktop();
        bus.transfer(Endpoint::Host, Endpoint::Gpu(0), 1 << 20, 0.0);
        bus.reset();
        assert_eq!(bus.h2d_bytes, 0);
        let (s, _) = bus.transfer(Endpoint::Host, Endpoint::Gpu(0), 1 << 20, 0.0);
        assert_eq!(s, 0.0);
    }

    #[test]
    fn journal_records_transfers() {
        let mut bus = Topology::desktop();
        assert!(bus.journal().is_none());
        bus.set_journal(true);
        bus.transfer(Endpoint::Host, Endpoint::Gpu(0), 0, 0.0); // free, unrecorded
        let (s, e) = bus.transfer(Endpoint::Host, Endpoint::Gpu(1), 1 << 20, 0.0);
        let (s2, e2) = bus.transfer(Endpoint::Gpu(1), Endpoint::Gpu(2), 4096, 0.0);
        let j = bus.journal().unwrap();
        assert_eq!(j.len(), 2);
        assert_eq!(j[0].src, Endpoint::Host);
        assert_eq!(j[0].dst, Endpoint::Gpu(1));
        assert_eq!(j[0].bytes, 1 << 20);
        assert_eq!((j[0].start, j[0].end), (s, e));
        // H2D path: the GPU's link plus the node's root complex.
        let segs: Vec<Segment> = j[0].legs.iter().map(|l| l.segment).collect();
        assert!(segs.contains(&Segment::GpuLink(1)));
        assert!(segs.contains(&Segment::Root(0)));
        assert_eq!(j[1].bytes, 4096);
        assert_eq!((j[1].start, j[1].end), (s2, e2));
        // One-island P2P crosses the root complex too (bug-1 fix).
        let segs: Vec<Segment> = j[1].legs.iter().map(|l| l.segment).collect();
        assert!(segs.contains(&Segment::Root(0)), "{segs:?}");
        // Reset clears entries but keeps the journal enabled.
        bus.reset();
        assert_eq!(bus.journal().unwrap().len(), 0);
        bus.set_journal(false);
        assert!(bus.journal().is_none());
    }

    #[test]
    #[should_panic(expected = "self-transfer")]
    fn self_transfer_rejected() {
        let mut bus = Topology::desktop();
        bus.transfer(Endpoint::Gpu(0), Endpoint::Gpu(0), 1, 0.0);
    }

    #[test]
    fn presets_are_one_island_instances() {
        for bus in [Topology::desktop(), Topology::supercomputer_node()] {
            assert!(!bus.is_hierarchical());
            assert_eq!(bus.island(0), bus.island(7));
            assert_eq!(bus.node(0), bus.node(7));
            assert_eq!(bus.distance(0, 7), 0);
        }
        let c = Topology::cluster();
        assert!(c.is_hierarchical());
        assert_eq!(c.distance(0, 7), 0); // same island
        assert_eq!(c.distance(0, 8), 1); // same node, other island
        assert_eq!(c.distance(0, 16), 2); // other node
        assert_eq!(c.island(9), 1);
        assert_eq!(c.node(17), 1);
    }

    #[test]
    fn intra_island_p2p_bypasses_the_root() {
        let mut bus = Topology::cluster();
        bus.set_journal(true);
        bus.transfer(Endpoint::Gpu(0), Endpoint::Gpu(1), 1 << 20, 0.0);
        let j = bus.journal().unwrap();
        assert!(j[0]
            .legs
            .iter()
            .all(|l| matches!(l.segment, Segment::GpuLink(_))));
        // 1 MiB at 50 GB/s + 1 µs.
        let dur = j[0].end - j[0].start;
        assert!((dur - (1e-6 + (1u64 << 20) as f64 / 50e9)).abs() < 1e-12);
    }

    #[test]
    fn inter_node_p2p_crosses_both_roots_and_the_fabric() {
        let mut bus = Topology::cluster();
        bus.set_journal(true);
        bus.transfer(Endpoint::Gpu(3), Endpoint::Gpu(20), 1 << 20, 0.0);
        let segs: Vec<Segment> = bus.journal().unwrap()[0]
            .legs
            .iter()
            .map(|l| l.segment)
            .collect();
        assert!(segs.contains(&Segment::Root(0)));
        assert!(segs.contains(&Segment::Root(1)));
        assert!(segs.contains(&Segment::Fabric));
        assert!(segs.contains(&Segment::GpuLink(3)));
        assert!(segs.contains(&Segment::GpuLink(20)));
    }

    #[test]
    fn fabric_aggregate_capacity_holds() {
        // 5 disjoint inter-node pairs, 10 GB/s per flow, 40 GB/s
        // aggregate: the fifth flow's fabric service must queue. Roots
        // are rated wide (100 GB/s) so only the fabric binds here.
        let mut bus =
            Topology::hierarchical(5.0, 2.6, 100.0, 0.0, 50.0, 0.0, 10.0, 40.0, 0.0, 8, 16);
        let b = 10_000_000_000u64; // 1 s per flow, 0.25 s of fabric service
        let mut ends = Vec::new();
        for i in 0..5 {
            let (_, e) = bus.transfer(Endpoint::Gpu(i), Endpoint::Gpu(16 + i), b, 0.0);
            ends.push(e);
        }
        // First four: flow time 1 s dominates (fabric windows end by
        // 1.0, root windows by 0.5).
        for e in &ends[..4] {
            assert!((e - 1.0).abs() < 1e-9, "e={e}");
        }
        // Fifth: fabric windows [0,.25] [.25,.5] [.5,.75] [.75,1.0]
        // [1.0,1.25] — its service outlasts the flow time.
        assert!((ends[4] - 1.25).abs() < 1e-9, "e5={}", ends[4]);
    }
}
