//! Structured observability for the multi-GPU runtime simulation.
//!
//! The runtime emits **typed events** — kernel launches, host↔device and
//! peer-to-peer transfers, communication rounds, loader decisions, miss
//! replays, reduction merges — onto per-GPU timelines stamped with the
//! simulated clock. A [`Recorder`] collects them during a run; the
//! finished [`Trace`] is the single source of truth from which the
//! runtime derives its phase time breakdown and profiler counters, and
//! from which the exporters render:
//!
//! * [`Trace::chrome_trace`] — Chrome trace-event JSON, loadable in
//!   `chrome://tracing` or [Perfetto](https://ui.perfetto.dev);
//! * [`Trace::summary_table`] — a plain-text per-phase/per-GPU table;
//! * [`Trace::render_text`] — the legacy line-per-event textual trace.
//!
//! How much detail is retained is controlled by [`TraceLevel`]; phase
//! totals and counters are accumulated at **every** level (including
//! [`TraceLevel::Off`]) so profiling results never depend on tracing.

pub mod chrome;
pub mod json;
pub mod summary;

/// Simulated seconds (mirror of `acc_gpusim::SimTime`; kept local so this
/// crate stays dependency-free).
pub type SimTime = f64;

/// How much event detail a run retains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceLevel {
    /// Keep no events. Totals and counters are still accumulated.
    #[default]
    Off,
    /// Keep coarse events: phases, per-GPU kernel launches, communication
    /// rounds, and loader decisions.
    Summary,
    /// Keep everything `Summary` does plus every individual transfer,
    /// miss replay, and reduction merge step.
    Spans,
}

impl TraceLevel {
    /// True if coarse (summary-level) events are retained.
    pub fn keeps_summary(self) -> bool {
        !matches!(self, TraceLevel::Off)
    }

    /// True if fine-grained span events are retained.
    pub fn keeps_spans(self) -> bool {
        matches!(self, TraceLevel::Spans)
    }
}

/// The BSP phases of one parallel region (paper Fig. 3) plus the host
/// bookkeeping bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhaseKind {
    /// Loader: window reshaping and contents filling (CPU↔GPU bucket).
    Loader,
    /// Parallel kernel execution (KERNELS bucket; wall time is the
    /// slowest GPU).
    Kernel,
    /// Communication: replica sync, miss replay, reduction merge
    /// (GPU↔GPU bucket).
    Comm,
    /// Data-region and other host-driven CPU↔GPU traffic outside the
    /// three launch phases.
    Data,
    /// Host compute between accelerator constructs.
    Host,
}

impl PhaseKind {
    /// Stable lowercase name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            PhaseKind::Loader => "loader",
            PhaseKind::Kernel => "kernel",
            PhaseKind::Comm => "comm",
            PhaseKind::Data => "data",
            PhaseKind::Host => "host",
        }
    }
}

/// Direction of a simulated bus transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransferKind {
    /// Host memory to a device.
    H2D,
    /// A device to host memory.
    D2H,
    /// Device to device across the PCIe root complex.
    P2P,
}

impl TransferKind {
    /// Stable name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            TransferKind::H2D => "H2D",
            TransferKind::D2H => "D2H",
            TransferKind::P2P => "P2P",
        }
    }
}

/// One kernel execution on one GPU within a launch.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchSpan {
    /// Monotonic launch number (shared by all GPUs of one launch).
    pub launch: u64,
    /// Kernel (function) name.
    pub kernel: String,
    /// Executing GPU.
    pub gpu: usize,
    /// Iteration-space slice this GPU ran, as `[begin, end)`.
    pub rows: (i64, i64),
    pub start: SimTime,
    pub end: SimTime,
}

/// One simulated bus transfer.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferSpan {
    pub kind: TransferKind,
    /// Array whose bytes moved.
    pub array: String,
    pub bytes: u64,
    /// Source GPU for `P2P`/`D2H`; `None` means the host.
    pub src: Option<usize>,
    /// Destination GPU for `P2P`/`H2D`; `None` means the host.
    pub dst: Option<usize>,
    /// Why the transfer happened (e.g. "window", "fill", "sync",
    /// "miss", "reduce", "update").
    pub why: &'static str,
    pub start: SimTime,
    pub end: SimTime,
}

impl TransferSpan {
    /// The GPU whose timeline this span occupies (its PCIe link).
    pub fn gpu(&self) -> usize {
        match self.kind {
            TransferKind::H2D => self.dst.expect("H2D has a destination GPU"),
            TransferKind::D2H => self.src.expect("D2H has a source GPU"),
            // A P2P copy occupies both links; attribute it to the
            // destination, whose data dependence it satisfies.
            TransferKind::P2P => self.dst.expect("P2P has a destination GPU"),
        }
    }
}

/// One communication round between a GPU pair (dirty-chunk replica sync).
#[derive(Debug, Clone, PartialEq)]
pub struct CommRound {
    pub launch: u64,
    pub array: String,
    /// Sending GPU.
    pub src: usize,
    /// Receiving GPU.
    pub dst: usize,
    /// Dirty chunks shipped this round.
    pub chunks: u64,
    pub bytes: u64,
    pub start: SimTime,
    pub end: SimTime,
}

/// The loader's verdict for one array on one GPU.
#[derive(Debug, Clone, PartialEq)]
pub struct LoaderDecision {
    pub launch: u64,
    pub array: String,
    pub gpu: usize,
    /// True when the resident window was reused without refilling.
    pub reused: bool,
    /// Bytes actually moved to honor the decision (0 on a clean reuse).
    pub bytes_moved: u64,
    /// Simulated instant the decision applied.
    pub at: SimTime,
}

/// Replay of buffered out-of-partition writes to an array's owner.
#[derive(Debug, Clone, PartialEq)]
pub struct MissReplay {
    pub launch: u64,
    pub array: String,
    /// GPU that buffered the out-of-partition writes.
    pub src: usize,
    /// Owning GPU the records were applied to.
    pub dst: usize,
    /// Buffered write records replayed.
    pub records: u64,
    pub bytes: u64,
    pub start: SimTime,
    /// Includes the owner-side apply cost, not just the bus copy.
    pub end: SimTime,
}

/// One step of the binary-tree merge of private reduction copies.
#[derive(Debug, Clone, PartialEq)]
pub struct ReductionMerge {
    pub launch: u64,
    pub array: String,
    /// GPU whose private copy was shipped.
    pub src: usize,
    /// GPU that combined it into its own copy.
    pub dst: usize,
    pub bytes: u64,
    pub start: SimTime,
    /// Includes the combine cost on `dst`.
    pub end: SimTime,
}

/// One round of a topology-aware collective schedule (hierarchical
/// reduction merge): a peer copy plus the combine on `dst`, labelled
/// with the interconnect level it rode.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectiveRound {
    pub launch: u64,
    pub array: String,
    /// `"intra-island"`, `"inter-island"`, or `"inter-node"`.
    pub level: &'static str,
    /// GPU whose partial copy was shipped.
    pub src: usize,
    /// GPU that combined it into its own copy.
    pub dst: usize,
    pub bytes: u64,
    pub start: SimTime,
    /// Includes the combine cost on `dst`.
    pub end: SimTime,
}

/// One double-buffered halo fill whose bus time was priced concurrently
/// with the same wave's compute — the overlap the compiler's
/// `OverlapFact` licensed. Emitted once per background fill. What the
/// fills saved is a per-launch quantity, counted in
/// [`Counters::overlap_hidden_ns`].
#[derive(Debug, Clone, PartialEq)]
pub struct OverlapWindow {
    pub launch: u64,
    pub array: String,
    /// GPU whose halo was filled in the background.
    pub gpu: usize,
    pub bytes: u64,
    pub start: SimTime,
    pub end: SimTime,
}

/// One GPU's turn in a wavefront (pipelined) kernel schedule. When the
/// compiler proves every loop-carried dependence of a launch *local* —
/// carried distance inside the declared halo — the runtime may run the
/// GPUs in partition order instead of in parallel, feeding each GPU's
/// left halo with the rows its predecessors just wrote. One event per
/// GPU per wavefront launch.
#[derive(Debug, Clone, PartialEq)]
pub struct WavefrontRound {
    pub launch: u64,
    /// Kernel (function) name.
    pub kernel: String,
    /// GPU whose turn this round was.
    pub gpu: usize,
    /// Position in the wavefront order (0-based; GPU 0 starts the wave).
    pub round: usize,
    /// Halo bytes fed from predecessor GPUs before this round started.
    pub fed_bytes: u64,
    /// Start of this GPU's compute turn (after its halo feed landed).
    pub start: SimTime,
    pub end: SimTime,
}

/// The task mapper's split of one launch's iteration space: the per-GPU
/// ranges it chose, the per-iteration cost model's prediction for each,
/// and (filled in after the kernel phase) the measured per-GPU kernel
/// seconds the next launch's split will be fed back from. Point event on
/// the host track at the end of the loader phase.
#[derive(Debug, Clone, PartialEq)]
pub struct MapperDecision {
    pub launch: u64,
    /// Kernel (function) name.
    pub kernel: String,
    /// Per-GPU `[begin, end)` iteration ranges (one entry per GPU; idle
    /// GPUs carry an empty range).
    pub ranges: Vec<(i64, i64)>,
    /// Predicted kernel seconds per GPU under the cost model used to cut
    /// the ranges (all zeros on the equal-split fallback).
    pub predicted_s: Vec<f64>,
    /// Measured kernel seconds per GPU for this launch (0 for idle GPUs).
    pub measured_s: Vec<f64>,
    /// False when no history existed and the mapper fell back to the
    /// equal static division.
    pub from_history: bool,
    /// Simulated instant the split was committed.
    pub at: SimTime,
}

/// One runtime-sanitizer violation: an access the static analysis (or
/// the user's `localaccess` annotation) promised could not happen. Point
/// event on the offending GPU's timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct SanitizeEvent {
    pub launch: u64,
    pub array: String,
    /// GPU whose kernel slice performed the access.
    pub gpu: usize,
    /// `"load-outside-window"` or `"store-outside-own"`.
    pub kind: &'static str,
    /// Global iteration index of the offending thread.
    pub tid: i64,
    /// Global element index accessed.
    pub idx: i64,
    /// The window the access had to stay inside (exclusive upper bound).
    pub window: (i64, i64),
    /// Simulated instant (the start of the kernel phase that ran it).
    pub at: SimTime,
}

/// One replica sync the communication manager *skipped* because the
/// compiler's inter-launch dataflow analysis proved no other GPU can
/// observe the written range before the next full synchronisation point.
/// Point event on the host track at the start of the (empty) comm phase.
#[derive(Debug, Clone, PartialEq)]
pub struct CommElided {
    pub launch: u64,
    pub array: String,
    /// Bytes the skipped sync would have priced: the steps of its
    /// schedule over the currently accumulated dirty chunks (on one
    /// island, their payload to every other replica holder).
    pub skipped_bytes: u64,
    /// Simulated instant of the skip (start of the comm phase).
    pub at: SimTime,
}

/// One `localaccess` annotation the compiler *inferred* and consumed in
/// place of a missing source annotation (`CompileOptions::infer_localaccess`).
/// Point event on the host track at run start — placement is a
/// compile-time fact, not a timed action.
#[derive(Debug, Clone, PartialEq)]
pub struct InferredAnnotation {
    /// Kernel (function) name the configuration belongs to.
    pub kernel: String,
    pub array: String,
    /// The annotation as renderable pragma text.
    pub pragma: String,
    pub at: SimTime,
}

/// One phase interval of a parallel region (or a host/data interval).
/// Phase spans are the accounting source for the time breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSpan {
    /// Launch this phase belongs to; `None` for host/data intervals
    /// outside any launch.
    pub launch: Option<u64>,
    pub phase: PhaseKind,
    pub start: SimTime,
    pub end: SimTime,
}

/// A typed event on the run's timeline.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    Phase(PhaseSpan),
    Launch(LaunchSpan),
    Transfer(TransferSpan),
    Comm(CommRound),
    Loader(LoaderDecision),
    Mapper(MapperDecision),
    Miss(MissReplay),
    Reduction(ReductionMerge),
    Collective(CollectiveRound),
    Overlap(OverlapWindow),
    Wavefront(WavefrontRound),
    Sanitize(SanitizeEvent),
    Elided(CommElided),
    Inferred(InferredAnnotation),
}

impl Event {
    /// Start of the event's interval (point events report their instant).
    pub fn start(&self) -> SimTime {
        match self {
            Event::Phase(e) => e.start,
            Event::Launch(e) => e.start,
            Event::Transfer(e) => e.start,
            Event::Comm(e) => e.start,
            Event::Loader(e) => e.at,
            Event::Mapper(e) => e.at,
            Event::Miss(e) => e.start,
            Event::Reduction(e) => e.start,
            Event::Collective(e) => e.start,
            Event::Overlap(e) => e.start,
            Event::Wavefront(e) => e.start,
            Event::Sanitize(e) => e.at,
            Event::Elided(e) => e.at,
            Event::Inferred(e) => e.at,
        }
    }

    /// End of the event's interval (== start for point events).
    pub fn end(&self) -> SimTime {
        match self {
            Event::Phase(e) => e.end,
            Event::Launch(e) => e.end,
            Event::Transfer(e) => e.end,
            Event::Comm(e) => e.end,
            Event::Loader(e) => e.at,
            Event::Mapper(e) => e.at,
            Event::Miss(e) => e.end,
            Event::Reduction(e) => e.end,
            Event::Collective(e) => e.end,
            Event::Overlap(e) => e.end,
            Event::Wavefront(e) => e.end,
            Event::Sanitize(e) => e.at,
            Event::Elided(e) => e.at,
            Event::Inferred(e) => e.at,
        }
    }
}

/// Phase-time totals accumulated from [`PhaseSpan`]s (the event-stream
/// equivalent of the runtime's `TimeBreakdown`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTotals {
    /// Kernel phases (slowest GPU per launch).
    pub kernels: SimTime,
    /// Loader phases plus data-region CPU↔GPU traffic.
    pub cpu_gpu: SimTime,
    /// Communication phases.
    pub gpu_gpu: SimTime,
    /// Host compute.
    pub host: SimTime,
}

impl PhaseTotals {
    /// Sum over all categories.
    pub fn total(&self) -> SimTime {
        self.kernels + self.cpu_gpu + self.gpu_gpu + self.host
    }
}

/// Scalar counters accumulated from the event stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub kernel_launches: u64,
    pub h2d_bytes: u64,
    pub d2h_bytes: u64,
    pub p2p_bytes: u64,
    pub miss_records: u64,
    pub dirty_chunks_sent: u64,
    /// Loader decisions that reused the resident window.
    pub loader_reuses: u64,
    /// Loader decisions that (re)loaded data.
    pub loader_loads: u64,
    /// Task-mapper splits cut from measured per-iteration cost (the
    /// equal-split fallback on a first launch does not count).
    pub mapper_model_splits: u64,
    /// Runtime-sanitizer violations observed (0 when sanitizing is off
    /// — or when every static verdict held).
    pub sanitize_violations: u64,
    /// Replica syncs the communication manager skipped on a static
    /// comm-elision fact.
    pub comm_elisions: u64,
    /// Bytes the skipped syncs would have shipped (estimate).
    pub comm_elided_bytes: u64,
    /// `localaccess` annotations inferred by the compiler and consumed in
    /// place of missing source annotations.
    pub inferred_annotations: u64,
    /// Rounds of topology-aware collective schedules (hierarchical
    /// reduction merges).
    pub collective_rounds: u64,
    /// Double-buffered halo fills priced concurrently with compute.
    pub overlap_windows: u64,
    /// Simulated nanoseconds overlap saved: per launch, how much sooner
    /// the barrier came than had the loader waited for every background
    /// fill before the kernels (at most the kernel phase). Rounded per
    /// launch, so the counter stays exactly comparable across runs; it
    /// equals the no-overlap run's extra clock to within that rounding.
    pub overlap_hidden_ns: u64,
    /// GPU turns run under a wavefront (pipelined) kernel schedule.
    pub wavefront_rounds: u64,
}

/// Collects events during a run. Totals and counters are accumulated at
/// every [`TraceLevel`]; the level only controls which events are kept.
#[derive(Debug, Clone)]
pub struct Recorder {
    level: TraceLevel,
    events: Vec<Event>,
    totals: PhaseTotals,
    counters: Counters,
}

impl Recorder {
    pub fn new(level: TraceLevel) -> Recorder {
        Recorder {
            level,
            events: Vec::new(),
            totals: PhaseTotals::default(),
            counters: Counters::default(),
        }
    }

    /// The retention level this recorder was built with.
    pub fn level(&self) -> TraceLevel {
        self.level
    }

    /// Totals accumulated so far.
    pub fn totals(&self) -> PhaseTotals {
        self.totals
    }

    /// Counters accumulated so far.
    pub fn counters(&self) -> Counters {
        self.counters
    }

    /// Record a phase interval. Zero-length intervals still count toward
    /// totals (they are exact zeros) but are not retained as events.
    pub fn phase(&mut self, launch: Option<u64>, phase: PhaseKind, start: SimTime, end: SimTime) {
        debug_assert!(end >= start, "phase interval runs backwards");
        let dt = end - start;
        match phase {
            PhaseKind::Kernel => self.totals.kernels += dt,
            PhaseKind::Loader | PhaseKind::Data => self.totals.cpu_gpu += dt,
            PhaseKind::Comm => self.totals.gpu_gpu += dt,
            PhaseKind::Host => self.totals.host += dt,
        }
        if self.level.keeps_summary() && dt > 0.0 {
            self.events.push(Event::Phase(PhaseSpan {
                launch,
                phase,
                start,
                end,
            }));
        }
    }

    /// Record one GPU's kernel execution. Call once per launch per GPU;
    /// the launch counter is bumped by [`Recorder::launch_begin`].
    pub fn launch_span(&mut self, span: LaunchSpan) {
        if self.level.keeps_summary() {
            self.events.push(Event::Launch(span));
        }
    }

    /// Count a kernel launch; returns its monotonic id.
    pub fn launch_begin(&mut self) -> u64 {
        let id = self.counters.kernel_launches;
        self.counters.kernel_launches += 1;
        id
    }

    /// Record a bus transfer (also feeds the byte counters).
    pub fn transfer(&mut self, span: TransferSpan) {
        match span.kind {
            TransferKind::H2D => self.counters.h2d_bytes += span.bytes,
            TransferKind::D2H => self.counters.d2h_bytes += span.bytes,
            TransferKind::P2P => self.counters.p2p_bytes += span.bytes,
        }
        if self.level.keeps_spans() {
            self.events.push(Event::Transfer(span));
        }
    }

    /// Record a replica-sync round (also counts its dirty chunks).
    pub fn comm_round(&mut self, round: CommRound) {
        self.counters.dirty_chunks_sent += round.chunks;
        if self.level.keeps_summary() {
            self.events.push(Event::Comm(round));
        }
    }

    /// Record a loader decision.
    pub fn loader_decision(&mut self, d: LoaderDecision) {
        if d.reused {
            self.counters.loader_reuses += 1;
        } else {
            self.counters.loader_loads += 1;
        }
        if self.level.keeps_summary() {
            self.events.push(Event::Loader(d));
        }
    }

    /// Record a task-mapper split decision (cost-model splits are also
    /// counted).
    pub fn mapper_decision(&mut self, d: MapperDecision) {
        if d.from_history {
            self.counters.mapper_model_splits += 1;
        }
        if self.level.keeps_summary() {
            self.events.push(Event::Mapper(d));
        }
    }

    /// Record a miss replay (also counts its records).
    pub fn miss_replay(&mut self, m: MissReplay) {
        self.counters.miss_records += m.records;
        if self.level.keeps_spans() {
            self.events.push(Event::Miss(m));
        }
    }

    /// Record one reduction-merge step.
    pub fn reduction_merge(&mut self, r: ReductionMerge) {
        if self.level.keeps_spans() {
            self.events.push(Event::Reduction(r));
        }
    }

    /// Record one round of a topology-aware collective (also counts it).
    pub fn collective_round(&mut self, r: CollectiveRound) {
        self.counters.collective_rounds += 1;
        if self.level.keeps_summary() {
            self.events.push(Event::Collective(r));
        }
    }

    /// Record a double-buffered halo-fill overlap window (also counts it).
    pub fn overlap_window(&mut self, w: OverlapWindow) {
        self.counters.overlap_windows += 1;
        if self.level.keeps_summary() {
            self.events.push(Event::Overlap(w));
        }
    }

    /// Count the seconds overlap saved one launch, rounded to
    /// nanoseconds (see [`Counters::overlap_hidden_ns`]).
    pub fn overlap_saved(&mut self, saved: SimTime) {
        self.counters.overlap_hidden_ns += (saved * 1e9).round() as u64;
    }

    /// Record one GPU's turn in a wavefront schedule (also counts it).
    pub fn wavefront_round(&mut self, r: WavefrontRound) {
        self.counters.wavefront_rounds += 1;
        if self.level.keeps_summary() {
            self.events.push(Event::Wavefront(r));
        }
    }

    /// Record a runtime-sanitizer violation (also counts it).
    pub fn sanitize(&mut self, e: SanitizeEvent) {
        self.counters.sanitize_violations += 1;
        if self.level.keeps_summary() {
            self.events.push(Event::Sanitize(e));
        }
    }

    /// Record a skipped replica sync (also counts it and its bytes).
    pub fn comm_elided(&mut self, e: CommElided) {
        self.counters.comm_elisions += 1;
        self.counters.comm_elided_bytes += e.skipped_bytes;
        if self.level.keeps_summary() {
            self.events.push(Event::Elided(e));
        }
    }

    /// Record an inferred-and-consumed `localaccess` annotation (also
    /// counts it).
    pub fn inferred_annotation(&mut self, e: InferredAnnotation) {
        self.counters.inferred_annotations += 1;
        if self.level.keeps_summary() {
            self.events.push(Event::Inferred(e));
        }
    }

    /// Finish recording.
    pub fn finish(self) -> Trace {
        Trace {
            level: self.level,
            events: self.events,
            totals: self.totals,
            counters: self.counters,
        }
    }
}

/// The finished event stream of one run.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    level: TraceLevel,
    events: Vec<Event>,
    totals: PhaseTotals,
    counters: Counters,
}

impl Trace {
    /// The level the run recorded at.
    pub fn level(&self) -> TraceLevel {
        self.level
    }

    /// All retained events, in emission order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Phase totals derived from the event stream.
    pub fn totals(&self) -> PhaseTotals {
        self.totals
    }

    /// Counters derived from the event stream.
    pub fn counters(&self) -> Counters {
        self.counters
    }

    /// GPU ids that appear in any retained event, ascending.
    pub fn gpus(&self) -> Vec<usize> {
        let mut ids: Vec<usize> = Vec::new();
        let mut push = |g: usize| {
            if !ids.contains(&g) {
                ids.push(g);
            }
        };
        for ev in &self.events {
            match ev {
                Event::Launch(e) => push(e.gpu),
                Event::Transfer(e) => push(e.gpu()),
                Event::Comm(e) => {
                    push(e.src);
                    push(e.dst);
                }
                Event::Loader(e) => push(e.gpu),
                Event::Mapper(_) => {}
                Event::Miss(e) => {
                    push(e.src);
                    push(e.dst);
                }
                Event::Reduction(e) => {
                    push(e.src);
                    push(e.dst);
                }
                Event::Collective(e) => {
                    push(e.src);
                    push(e.dst);
                }
                Event::Overlap(e) => push(e.gpu),
                Event::Wavefront(e) => push(e.gpu),
                Event::Sanitize(e) => push(e.gpu),
                Event::Phase(_) | Event::Elided(_) | Event::Inferred(_) => {}
            }
        }
        ids.sort_unstable();
        ids
    }

    /// The occupancy spans of one GPU's timeline — its kernel executions
    /// and the transfers holding its PCIe link — sorted by start time.
    /// These are the spans guaranteed never to overlap: the simulated bus
    /// serializes each GPU's link and the BSP phases are sequential.
    pub fn gpu_timeline(&self, gpu: usize) -> Vec<(SimTime, SimTime, String)> {
        let mut spans: Vec<(SimTime, SimTime, String)> = Vec::new();
        for ev in &self.events {
            match ev {
                Event::Launch(e) if e.gpu == gpu => {
                    spans.push((e.start, e.end, format!("kernel {}", e.kernel)));
                }
                Event::Transfer(e) if e.gpu() == gpu => {
                    spans.push((
                        e.start,
                        e.end,
                        format!("{} {} ({})", e.kind.name(), e.array, e.why),
                    ));
                }
                _ => {}
            }
        }
        spans.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
        spans
    }

    /// Export as Chrome trace-event JSON (see [`chrome`]).
    pub fn chrome_trace(&self) -> String {
        chrome::export(self)
    }

    /// Render the plain-text summary table (see [`summary`]).
    pub fn summary_table(&self) -> String {
        summary::table(self)
    }

    /// Render the legacy line-per-event textual trace (see [`summary`]).
    pub fn render_text(&self) -> Vec<String> {
        summary::render_text(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_recorder(level: TraceLevel) -> Recorder {
        let mut rec = Recorder::new(level);
        let launch = rec.launch_begin();
        rec.phase(Some(launch), PhaseKind::Loader, 0.0, 1.0);
        rec.transfer(TransferSpan {
            kind: TransferKind::H2D,
            array: "a".into(),
            bytes: 4096,
            src: None,
            dst: Some(0),
            why: "window",
            start: 0.0,
            end: 1.0,
        });
        rec.loader_decision(LoaderDecision {
            launch,
            array: "a".into(),
            gpu: 0,
            reused: false,
            bytes_moved: 4096,
            at: 1.0,
        });
        rec.phase(Some(launch), PhaseKind::Kernel, 1.0, 3.0);
        rec.launch_span(LaunchSpan {
            launch,
            kernel: "k".into(),
            gpu: 0,
            rows: (0, 128),
            start: 1.0,
            end: 3.0,
        });
        rec.phase(Some(launch), PhaseKind::Comm, 3.0, 3.5);
        rec.comm_round(CommRound {
            launch,
            array: "a".into(),
            src: 0,
            dst: 1,
            chunks: 2,
            bytes: 512,
            start: 3.0,
            end: 3.25,
        });
        rec.phase(None, PhaseKind::Host, 3.5, 4.0);
        rec
    }

    #[test]
    fn totals_accumulate_at_every_level() {
        for level in [TraceLevel::Off, TraceLevel::Summary, TraceLevel::Spans] {
            let t = sample_recorder(level).finish();
            let totals = t.totals();
            assert_eq!(totals.kernels, 2.0);
            assert_eq!(totals.cpu_gpu, 1.0);
            assert_eq!(totals.gpu_gpu, 0.5);
            assert_eq!(totals.host, 0.5);
            assert_eq!(totals.total(), 4.0);
            let c = t.counters();
            assert_eq!(c.kernel_launches, 1);
            assert_eq!(c.h2d_bytes, 4096);
            assert_eq!(c.dirty_chunks_sent, 2);
            assert_eq!(c.loader_loads, 1);
        }
    }

    #[test]
    fn level_controls_event_retention() {
        assert!(sample_recorder(TraceLevel::Off).finish().events().is_empty());
        let summary = sample_recorder(TraceLevel::Summary).finish();
        assert!(summary
            .events()
            .iter()
            .all(|e| !matches!(e, Event::Transfer(_))));
        assert!(summary.events().iter().any(|e| matches!(e, Event::Launch(_))));
        let spans = sample_recorder(TraceLevel::Spans).finish();
        assert!(spans.events().iter().any(|e| matches!(e, Event::Transfer(_))));
        assert!(spans.events().len() > summary.events().len());
    }

    #[test]
    fn sanitize_events_count_at_every_level_and_export() {
        let mk = |level| {
            let mut rec = Recorder::new(level);
            let launch = rec.launch_begin();
            rec.sanitize(SanitizeEvent {
                launch,
                array: "a".into(),
                gpu: 2,
                kind: "load-outside-window",
                tid: 7,
                idx: 9,
                window: (6, 8),
                at: 1.5,
            });
            rec.finish()
        };
        for level in [TraceLevel::Off, TraceLevel::Summary, TraceLevel::Spans] {
            assert_eq!(mk(level).counters().sanitize_violations, 1);
        }
        assert!(mk(TraceLevel::Off).events().is_empty());
        let t = mk(TraceLevel::Summary);
        assert!(matches!(t.events()[0], Event::Sanitize(_)));
        assert_eq!(t.gpus(), vec![2]);
        assert!(t.chrome_trace().contains("load-outside-window"));
        assert!(t.summary_table().contains("sanitize violations"));
        assert!(t.render_text()[0].contains("SANITIZE"));
    }

    #[test]
    fn mapper_decisions_count_and_export() {
        let mk = |level, from_history| {
            let mut rec = Recorder::new(level);
            let launch = rec.launch_begin();
            rec.mapper_decision(MapperDecision {
                launch,
                kernel: "bfs".into(),
                ranges: vec![(0, 700), (700, 900), (900, 1000)],
                predicted_s: vec![1e-3, 1e-3, 1e-3],
                measured_s: vec![1.1e-3, 0.9e-3, 1.0e-3],
                from_history,
                at: 0.5,
            });
            rec.finish()
        };
        for level in [TraceLevel::Off, TraceLevel::Summary, TraceLevel::Spans] {
            assert_eq!(mk(level, true).counters().mapper_model_splits, 1);
            assert_eq!(mk(level, false).counters().mapper_model_splits, 0);
        }
        assert!(mk(TraceLevel::Off, true).events().is_empty());
        let t = mk(TraceLevel::Summary, true);
        assert!(matches!(t.events()[0], Event::Mapper(_)));
        assert_eq!(t.gpus(), Vec::<usize>::new(), "mapper events live on the host track");
        assert!(t.chrome_trace().contains("mapper cost-model bfs"));
        assert!(t.summary_table().contains("mapper model splits"));
        assert!(t.render_text()[0].contains("mapper cost-model"));
    }

    #[test]
    fn comm_elisions_count_and_export() {
        let mk = |level| {
            let mut rec = Recorder::new(level);
            let launch = rec.launch_begin();
            rec.comm_elided(CommElided {
                launch,
                array: "t".into(),
                skipped_bytes: 2048,
                at: 3.0,
            });
            rec.finish()
        };
        for level in [TraceLevel::Off, TraceLevel::Summary, TraceLevel::Spans] {
            let c = mk(level).counters();
            assert_eq!(c.comm_elisions, 1);
            assert_eq!(c.comm_elided_bytes, 2048);
        }
        assert!(mk(TraceLevel::Off).events().is_empty());
        let t = mk(TraceLevel::Summary);
        assert!(matches!(t.events()[0], Event::Elided(_)));
        assert_eq!(t.gpus(), Vec::<usize>::new(), "elision events live on the host track");
        assert!(t.chrome_trace().contains("comm-elided t"));
        assert!(t.summary_table().contains("comm elisions"));
        assert!(t.render_text()[0].contains("comm-elided"));
    }

    #[test]
    fn inferred_annotations_count_and_export() {
        let mk = |level| {
            let mut rec = Recorder::new(level);
            rec.inferred_annotation(InferredAnnotation {
                kernel: "heat".into(),
                array: "src".into(),
                pragma: "#pragma acc localaccess(src) stride(cols)".into(),
                at: 0.0,
            });
            rec.finish()
        };
        for level in [TraceLevel::Off, TraceLevel::Summary, TraceLevel::Spans] {
            assert_eq!(mk(level).counters().inferred_annotations, 1);
        }
        assert!(mk(TraceLevel::Off).events().is_empty());
        let t = mk(TraceLevel::Summary);
        assert!(matches!(t.events()[0], Event::Inferred(_)));
        assert!(t.chrome_trace().contains("inferred localaccess src"));
        assert!(t.summary_table().contains("inferred localaccess"));
        assert!(t.render_text()[0].contains("stride(cols)"));
    }

    #[test]
    fn collective_rounds_count_and_export() {
        let mk = |level| {
            let mut rec = Recorder::new(level);
            let launch = rec.launch_begin();
            rec.collective_round(CollectiveRound {
                launch,
                array: "newrank".into(),
                level: "inter-island",
                src: 8,
                dst: 0,
                bytes: 3200,
                start: 4.0,
                end: 4.5,
            });
            rec.finish()
        };
        for level in [TraceLevel::Off, TraceLevel::Summary, TraceLevel::Spans] {
            assert_eq!(mk(level).counters().collective_rounds, 1);
        }
        assert!(mk(TraceLevel::Off).events().is_empty());
        let t = mk(TraceLevel::Summary);
        assert!(matches!(t.events()[0], Event::Collective(_)));
        assert_eq!(t.gpus(), vec![0, 8]);
        assert!(t.chrome_trace().contains("collective inter-island newrank"));
        assert!(t.summary_table().contains("collective rounds"));
        assert!(t.render_text()[0].contains("collective inter-island"));
    }

    #[test]
    fn overlap_windows_count_and_export() {
        let mk = |level| {
            let mut rec = Recorder::new(level);
            let launch = rec.launch_begin();
            rec.overlap_window(OverlapWindow {
                launch,
                array: "src".into(),
                gpu: 3,
                bytes: 4096,
                start: 1.0,
                end: 1.5,
            });
            rec.overlap_saved(0.25);
            rec.finish()
        };
        for level in [TraceLevel::Off, TraceLevel::Summary, TraceLevel::Spans] {
            let c = mk(level).counters();
            assert_eq!(c.overlap_windows, 1);
            assert_eq!(c.overlap_hidden_ns, 250_000_000);
        }
        assert!(mk(TraceLevel::Off).events().is_empty());
        let t = mk(TraceLevel::Summary);
        assert!(matches!(t.events()[0], Event::Overlap(_)));
        assert_eq!(t.gpus(), vec![3]);
        assert!(t.chrome_trace().contains("overlap src g3"));
        assert!(t.summary_table().contains("overlap windows"));
        assert!(t.render_text()[0].contains("overlap src gpu=3 4096B dur=0.500000s"));
    }

    #[test]
    fn wavefront_rounds_count_and_export() {
        let mk = |level| {
            let mut rec = Recorder::new(level);
            let launch = rec.launch_begin();
            rec.wavefront_round(WavefrontRound {
                launch,
                kernel: "heat".into(),
                gpu: 1,
                round: 1,
                fed_bytes: 2048,
                start: 2.0,
                end: 3.0,
            });
            rec.finish()
        };
        for level in [TraceLevel::Off, TraceLevel::Summary, TraceLevel::Spans] {
            assert_eq!(mk(level).counters().wavefront_rounds, 1);
        }
        assert!(mk(TraceLevel::Off).events().is_empty());
        let t = mk(TraceLevel::Summary);
        assert!(matches!(t.events()[0], Event::Wavefront(_)));
        assert_eq!(t.gpus(), vec![1]);
        assert!(t.chrome_trace().contains("wavefront heat g1"));
        assert!(t.summary_table().contains("wavefront rounds"));
        assert!(t.render_text()[0].contains("wavefront"));
    }

    #[test]
    fn timeline_lists_gpu_occupancy_sorted() {
        let t = sample_recorder(TraceLevel::Spans).finish();
        let tl = t.gpu_timeline(0);
        assert_eq!(tl.len(), 2, "one transfer + one kernel span on GPU 0");
        assert!(tl.windows(2).all(|w| w[0].0 <= w[1].0));
        assert_eq!(t.gpus(), vec![0, 1]);
    }
}
