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
//! * [`Trace::render_text`] — one text line per event.
//!
//! Each event kind is stated twice: its arm in [`Recorder::record`]
//! (what it counts, the level that keeps it) and its arm in
//! [`Event::describe`] (how it is drawn: name, category, track, interval,
//! fields). The Chrome export, the text log and [`Trace::gpus`] read only
//! the [`Description`].
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
    /// and reduction-merge rounds, and loader decisions.
    Summary,
    /// Keep everything `Summary` does plus every individual transfer and
    /// miss replay.
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

/// One hop of the reduction-merge tree: a peer copy plus the combine on
/// `dst`, labelled with the interconnect level it rode (every hop of a
/// one-island machine is `intra-island`).
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
    Collective(CollectiveRound),
    Overlap(OverlapWindow),
    Wavefront(WavefrontRound),
    Sanitize(SanitizeEvent),
    Elided(CommElided),
    Inferred(InferredAnnotation),
}

/// How one event is drawn: what the Chrome exporter, the text log and
/// the track list read, built by [`Event::describe`].
#[derive(Debug, Clone, PartialEq)]
pub struct Description {
    pub name: String,
    /// Chrome trace category.
    pub cat: &'static str,
    /// The GPU whose track the event is drawn on; `None` is the host
    /// track ([`chrome::HOST_TID`] in Chrome exports).
    pub track: Option<usize>,
    /// The other GPU of a pair event (a sync, replay or merge hop drawn
    /// on its destination); it gets a track of its own.
    pub peer: Option<usize>,
    pub start: SimTime,
    /// `None` for an instant.
    pub end: Option<SimTime>,
    /// The event's arguments, in display order.
    pub fields: Vec<(&'static str, json::Value)>,
}

impl Description {
    fn new(
        name: String,
        cat: &'static str,
        track: Option<usize>,
        start: SimTime,
        end: Option<SimTime>,
    ) -> Self {
        Description {
            name,
            cat,
            track,
            peer: None,
            start,
            end,
            fields: Vec::new(),
        }
    }

    fn peer(self, gpu: usize) -> Self {
        Description {
            peer: Some(gpu),
            ..self
        }
    }

    fn fields<const N: usize>(self, fields: [(&'static str, json::Value); N]) -> Self {
        Description {
            fields: fields.into(),
            ..self
        }
    }

    /// The GPUs this event gives a track: its own and its peer's.
    pub(crate) fn gpus(&self) -> impl Iterator<Item = usize> {
        self.track.into_iter().chain(self.peer)
    }
}

impl Event {
    /// The one per-kind description of how this event is drawn.
    pub fn describe(&self) -> Description {
        use json::Value;
        match self {
            Event::Phase(e) => {
                let name = match e.launch {
                    Some(l) => format!("{} (launch {l})", e.phase.name()),
                    None => e.phase.name().to_string(),
                };
                Description::new(name, "phase", None, e.start, Some(e.end))
                    .fields([("phase", Value::str(e.phase.name()))])
            }
            Event::Launch(e) => Description::new(
                format!("kernel {}", e.kernel),
                "kernel",
                Some(e.gpu),
                e.start,
                Some(e.end),
            )
            .fields([
                ("launch", Value::Num(e.launch as f64)),
                ("rows_begin", Value::Num(e.rows.0 as f64)),
                ("rows_end", Value::Num(e.rows.1 as f64)),
            ]),
            Event::Transfer(e) => {
                let name = format!("{} {} ({})", e.kind.name(), e.array, e.why);
                let cat = match e.kind {
                    TransferKind::H2D => "h2d",
                    TransferKind::D2H => "d2h",
                    TransferKind::P2P => "p2p",
                };
                let endpoint = |g: Option<usize>| {
                    g.map_or(Value::str("host"), |g| Value::str(format!("gpu{g}")))
                };
                Description::new(name, cat, Some(e.gpu()), e.start, Some(e.end)).fields([
                    ("array", Value::str(&e.array)),
                    ("bytes", Value::Num(e.bytes as f64)),
                    ("src", endpoint(e.src)),
                    ("dst", endpoint(e.dst)),
                    ("why", Value::str(e.why)),
                ])
            }
            Event::Comm(e) => {
                let name = format!("sync {} g{}→g{}", e.array, e.src, e.dst);
                Description::new(name, "comm", Some(e.dst), e.start, Some(e.end))
                    .peer(e.src)
                    .fields([
                        ("launch", Value::Num(e.launch as f64)),
                        ("array", Value::str(&e.array)),
                        ("chunks", Value::Num(e.chunks as f64)),
                        ("bytes", Value::Num(e.bytes as f64)),
                        ("src", Value::Num(e.src as f64)),
                        ("dst", Value::Num(e.dst as f64)),
                    ])
            }
            Event::Loader(e) => {
                let verdict = if e.reused { "reuse" } else { "load" };
                Description::new(
                    format!("loader {verdict} {}", e.array),
                    "loader",
                    Some(e.gpu),
                    e.at,
                    None,
                )
                .fields([
                    ("launch", Value::Num(e.launch as f64)),
                    ("array", Value::str(&e.array)),
                    ("reused", Value::Bool(e.reused)),
                    ("bytes_moved", Value::Num(e.bytes_moved as f64)),
                ])
            }
            Event::Mapper(e) => {
                let how = if e.from_history {
                    "cost-model"
                } else {
                    "equal"
                };
                let pair = |&(a, b): &(i64, i64)| {
                    Value::Arr(vec![Value::Num(a as f64), Value::Num(b as f64)])
                };
                let secs = |s: &[f64]| Value::Arr(s.iter().map(|&t| Value::Num(t)).collect());
                Description::new(
                    format!("mapper {how} {}", e.kernel),
                    "mapper",
                    None,
                    e.at,
                    None,
                )
                .fields([
                    ("launch", Value::Num(e.launch as f64)),
                    ("kernel", Value::str(&e.kernel)),
                    ("from_history", Value::Bool(e.from_history)),
                    ("ranges", Value::Arr(e.ranges.iter().map(pair).collect())),
                    ("predicted_s", secs(&e.predicted_s)),
                    ("measured_s", secs(&e.measured_s)),
                ])
            }
            Event::Miss(e) => {
                let name = format!("miss-replay {} g{}→g{}", e.array, e.src, e.dst);
                Description::new(name, "miss", Some(e.dst), e.start, Some(e.end))
                    .peer(e.src)
                    .fields([
                        ("launch", Value::Num(e.launch as f64)),
                        ("array", Value::str(&e.array)),
                        ("records", Value::Num(e.records as f64)),
                        ("bytes", Value::Num(e.bytes as f64)),
                        ("src", Value::Num(e.src as f64)),
                        ("dst", Value::Num(e.dst as f64)),
                    ])
            }
            Event::Collective(e) => {
                let name = format!("collective {} {} g{}→g{}", e.level, e.array, e.src, e.dst);
                Description::new(name, "collective", Some(e.dst), e.start, Some(e.end))
                    .peer(e.src)
                    .fields([
                        ("launch", Value::Num(e.launch as f64)),
                        ("array", Value::str(&e.array)),
                        ("level", Value::str(e.level)),
                        ("bytes", Value::Num(e.bytes as f64)),
                        ("src", Value::Num(e.src as f64)),
                        ("dst", Value::Num(e.dst as f64)),
                    ])
            }
            Event::Overlap(e) => {
                let name = format!("overlap {} g{}", e.array, e.gpu);
                Description::new(name, "overlap", Some(e.gpu), e.start, Some(e.end)).fields([
                    ("launch", Value::Num(e.launch as f64)),
                    ("array", Value::str(&e.array)),
                    ("bytes", Value::Num(e.bytes as f64)),
                ])
            }
            Event::Wavefront(e) => {
                let name = format!("wavefront {} g{}", e.kernel, e.gpu);
                Description::new(name, "wavefront", Some(e.gpu), e.start, Some(e.end)).fields([
                    ("launch", Value::Num(e.launch as f64)),
                    ("kernel", Value::str(&e.kernel)),
                    ("round", Value::Num(e.round as f64)),
                    ("fed_bytes", Value::Num(e.fed_bytes as f64)),
                ])
            }
            Event::Sanitize(e) => {
                let name = format!("SANITIZE {} {}", e.kind, e.array);
                Description::new(name, "sanitize", Some(e.gpu), e.at, None).fields([
                    ("launch", Value::Num(e.launch as f64)),
                    ("array", Value::str(&e.array)),
                    ("kind", Value::str(e.kind)),
                    ("tid", Value::Num(e.tid as f64)),
                    ("idx", Value::Num(e.idx as f64)),
                    ("window_lo", Value::Num(e.window.0 as f64)),
                    ("window_hi", Value::Num(e.window.1 as f64)),
                ])
            }
            Event::Elided(e) => {
                Description::new(format!("comm-elided {}", e.array), "comm", None, e.at, None)
                    .fields([
                        ("launch", Value::Num(e.launch as f64)),
                        ("array", Value::str(&e.array)),
                        ("skipped_bytes", Value::Num(e.skipped_bytes as f64)),
                    ])
            }
            Event::Inferred(e) => {
                let name = format!("inferred localaccess {}", e.array);
                Description::new(name, "infer", None, e.at, None).fields([
                    ("kernel", Value::str(&e.kernel)),
                    ("array", Value::str(&e.array)),
                    ("pragma", Value::str(&e.pragma)),
                ])
            }
        }
    }
}

/// Simulated time per phase category, accumulated from [`PhaseSpan`]s
/// (paper Fig. 8's KERNELS / CPU-GPU / GPU-GPU breakdown plus host code).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TimeBreakdown {
    /// Kernel phases: the slowest GPU per launch (or the CPU parallel
    /// regions of the OpenMP baseline).
    pub kernels: SimTime,
    /// Loader phases plus data-region CPU↔GPU traffic.
    pub cpu_gpu: SimTime,
    /// Communication phases (transfers between GPU memories).
    pub gpu_gpu: SimTime,
    /// Sequential host code between parallel regions.
    pub host: SimTime,
}

impl TimeBreakdown {
    /// Sum over all categories: the simulated wall-clock.
    pub fn total(&self) -> SimTime {
        self.kernels + self.cpu_gpu + self.gpu_gpu + self.host
    }

    /// Time inside parallel regions (what the paper's Fig. 7/8 measure):
    /// everything except sequential host code.
    pub fn parallel_region(&self) -> SimTime {
        self.kernels + self.cpu_gpu + self.gpu_gpu
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
    /// Reduction-merge hops ([`CollectiveRound`] events).
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
    totals: TimeBreakdown,
    counters: Counters,
}

impl Recorder {
    pub fn new(level: TraceLevel) -> Recorder {
        Recorder {
            level,
            events: Vec::new(),
            totals: TimeBreakdown::default(),
            counters: Counters::default(),
        }
    }

    /// The retention level this recorder was built with.
    pub fn level(&self) -> TraceLevel {
        self.level
    }

    /// Totals accumulated so far.
    pub fn totals(&self) -> TimeBreakdown {
        self.totals
    }

    /// Counters accumulated so far.
    pub fn counters(&self) -> Counters {
        self.counters
    }

    /// Record one event: add what it counts to the totals and counters
    /// (at every level), and keep it if the recorder's level does —
    /// transfers and miss replays at [`TraceLevel::Spans`], every other
    /// kind at [`TraceLevel::Summary`]. A phase of zero length still
    /// counts toward the totals (it is an exact zero) but is not kept.
    pub fn record(&mut self, ev: Event) {
        let c = &mut self.counters;
        let mut keep = self.level.keeps_summary();
        match &ev {
            Event::Phase(e) => {
                debug_assert!(e.end >= e.start, "phase interval runs backwards");
                let dt = e.end - e.start;
                *match e.phase {
                    PhaseKind::Kernel => &mut self.totals.kernels,
                    PhaseKind::Loader | PhaseKind::Data => &mut self.totals.cpu_gpu,
                    PhaseKind::Comm => &mut self.totals.gpu_gpu,
                    PhaseKind::Host => &mut self.totals.host,
                } += dt;
                keep &= dt > 0.0;
            }
            Event::Launch(_) => {}
            Event::Transfer(e) => {
                *match e.kind {
                    TransferKind::H2D => &mut c.h2d_bytes,
                    TransferKind::D2H => &mut c.d2h_bytes,
                    TransferKind::P2P => &mut c.p2p_bytes,
                } += e.bytes;
                keep = self.level.keeps_spans();
            }
            Event::Comm(e) => c.dirty_chunks_sent += e.chunks,
            Event::Loader(e) if e.reused => c.loader_reuses += 1,
            Event::Loader(_) => c.loader_loads += 1,
            Event::Mapper(e) => c.mapper_model_splits += u64::from(e.from_history),
            Event::Miss(e) => {
                c.miss_records += e.records;
                keep = self.level.keeps_spans();
            }
            Event::Collective(_) => c.collective_rounds += 1,
            Event::Overlap(_) => c.overlap_windows += 1,
            Event::Wavefront(_) => c.wavefront_rounds += 1,
            Event::Sanitize(_) => c.sanitize_violations += 1,
            Event::Elided(e) => {
                c.comm_elisions += 1;
                c.comm_elided_bytes += e.skipped_bytes;
            }
            Event::Inferred(_) => c.inferred_annotations += 1,
        }
        if keep {
            self.events.push(ev);
        }
    }

    /// Count a kernel launch; returns its monotonic id.
    pub fn launch_begin(&mut self) -> u64 {
        let id = self.counters.kernel_launches;
        self.counters.kernel_launches += 1;
        id
    }

    /// Count the seconds overlap saved one launch, rounded to
    /// nanoseconds (see [`Counters::overlap_hidden_ns`]).
    pub fn overlap_saved(&mut self, saved: SimTime) {
        self.counters.overlap_hidden_ns += (saved * 1e9).round() as u64;
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
    totals: TimeBreakdown,
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
    pub fn totals(&self) -> TimeBreakdown {
        self.totals
    }

    /// Counters derived from the event stream.
    pub fn counters(&self) -> Counters {
        self.counters
    }

    /// GPU ids that appear in any retained event, ascending.
    pub fn gpus(&self) -> Vec<usize> {
        gpu_ids(self.events.iter().flat_map(|ev| ev.describe().gpus()))
    }

    /// The occupancy spans of one GPU's timeline — its kernel executions
    /// and the transfers holding its PCIe link — sorted by start time.
    /// These are the spans guaranteed never to overlap: the simulated bus
    /// serializes each GPU's link and the BSP phases are sequential.
    pub fn gpu_timeline(&self, gpu: usize) -> Vec<(SimTime, SimTime, String)> {
        let mut spans: Vec<(SimTime, SimTime, String)> = Vec::new();
        for d in self.events.iter().map(Event::describe) {
            if let (Some(g), Some(end), "kernel" | "h2d" | "d2h" | "p2p") = (d.track, d.end, d.cat)
            {
                if g == gpu {
                    spans.push((d.start, end, d.name));
                }
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

    /// Render one line per event (see [`summary::render_text`]).
    pub fn render_text(&self) -> Vec<String> {
        summary::render_text(self)
    }
}

/// GPU ids, ascending and without repeats.
pub(crate) fn gpu_ids(gpus: impl IntoIterator<Item = usize>) -> Vec<usize> {
    let mut ids: Vec<usize> = gpus.into_iter().collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_recorder(level: TraceLevel) -> Recorder {
        let mut rec = Recorder::new(level);
        let launch = rec.launch_begin();
        rec.record(Event::Phase(PhaseSpan {
            launch: Some(launch),
            phase: PhaseKind::Loader,
            start: 0.0,
            end: 1.0,
        }));
        rec.record(Event::Transfer(TransferSpan {
            kind: TransferKind::H2D,
            array: "a".into(),
            bytes: 4096,
            src: None,
            dst: Some(0),
            why: "window",
            start: 0.0,
            end: 1.0,
        }));
        rec.record(Event::Loader(LoaderDecision {
            launch,
            array: "a".into(),
            gpu: 0,
            reused: false,
            bytes_moved: 4096,
            at: 1.0,
        }));
        rec.record(Event::Phase(PhaseSpan {
            launch: Some(launch),
            phase: PhaseKind::Kernel,
            start: 1.0,
            end: 3.0,
        }));
        rec.record(Event::Launch(LaunchSpan {
            launch,
            kernel: "k".into(),
            gpu: 0,
            rows: (0, 128),
            start: 1.0,
            end: 3.0,
        }));
        rec.record(Event::Phase(PhaseSpan {
            launch: Some(launch),
            phase: PhaseKind::Comm,
            start: 3.0,
            end: 3.5,
        }));
        rec.record(Event::Comm(CommRound {
            launch,
            array: "a".into(),
            src: 0,
            dst: 1,
            chunks: 2,
            bytes: 512,
            start: 3.0,
            end: 3.25,
        }));
        rec.record(Event::Phase(PhaseSpan {
            launch: None,
            phase: PhaseKind::Host,
            start: 3.5,
            end: 4.0,
        }));
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
        assert!(sample_recorder(TraceLevel::Off)
            .finish()
            .events()
            .is_empty());
        let summary = sample_recorder(TraceLevel::Summary).finish();
        assert!(summary
            .events()
            .iter()
            .all(|e| !matches!(e, Event::Transfer(_))));
        assert!(summary
            .events()
            .iter()
            .any(|e| matches!(e, Event::Launch(_))));
        let spans = sample_recorder(TraceLevel::Spans).finish();
        assert!(spans
            .events()
            .iter()
            .any(|e| matches!(e, Event::Transfer(_))));
        assert!(spans.events().len() > summary.events().len());
    }

    #[test]
    fn sanitize_events_count_at_every_level_and_export() {
        let mk = |level| {
            let mut rec = Recorder::new(level);
            let launch = rec.launch_begin();
            rec.record(Event::Sanitize(SanitizeEvent {
                launch,
                array: "a".into(),
                gpu: 2,
                kind: "load-outside-window",
                tid: 7,
                idx: 9,
                window: (6, 8),
                at: 1.5,
            }));
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
            rec.record(Event::Mapper(MapperDecision {
                launch,
                kernel: "bfs".into(),
                ranges: vec![(0, 700), (700, 900), (900, 1000)],
                predicted_s: vec![1e-3, 1e-3, 1e-3],
                measured_s: vec![1.1e-3, 0.9e-3, 1.0e-3],
                from_history,
                at: 0.5,
            }));
            rec.finish()
        };
        for level in [TraceLevel::Off, TraceLevel::Summary, TraceLevel::Spans] {
            assert_eq!(mk(level, true).counters().mapper_model_splits, 1);
            assert_eq!(mk(level, false).counters().mapper_model_splits, 0);
        }
        assert!(mk(TraceLevel::Off, true).events().is_empty());
        let t = mk(TraceLevel::Summary, true);
        assert!(matches!(t.events()[0], Event::Mapper(_)));
        assert_eq!(
            t.gpus(),
            Vec::<usize>::new(),
            "mapper events live on the host track"
        );
        assert!(t.chrome_trace().contains("mapper cost-model bfs"));
        assert!(t.summary_table().contains("mapper model splits"));
        assert!(t.render_text()[0].contains("mapper cost-model"));
    }

    #[test]
    fn comm_elisions_count_and_export() {
        let mk = |level| {
            let mut rec = Recorder::new(level);
            let launch = rec.launch_begin();
            rec.record(Event::Elided(CommElided {
                launch,
                array: "t".into(),
                skipped_bytes: 2048,
                at: 3.0,
            }));
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
        assert_eq!(
            t.gpus(),
            Vec::<usize>::new(),
            "elision events live on the host track"
        );
        assert!(t.chrome_trace().contains("comm-elided t"));
        assert!(t.summary_table().contains("comm elisions"));
        assert!(t.render_text()[0].contains("comm-elided"));
    }

    #[test]
    fn inferred_annotations_count_and_export() {
        let mk = |level| {
            let mut rec = Recorder::new(level);
            rec.record(Event::Inferred(InferredAnnotation {
                kernel: "heat".into(),
                array: "src".into(),
                pragma: "#pragma acc localaccess(src) stride(cols)".into(),
                at: 0.0,
            }));
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
            rec.record(Event::Collective(CollectiveRound {
                launch,
                array: "newrank".into(),
                level: "inter-island",
                src: 8,
                dst: 0,
                bytes: 3200,
                start: 4.0,
                end: 4.5,
            }));
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
            rec.record(Event::Overlap(OverlapWindow {
                launch,
                array: "src".into(),
                gpu: 3,
                bytes: 4096,
                start: 1.0,
                end: 1.5,
            }));
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
        assert_eq!(
            t.render_text()[0],
            "[1.000000s] overlap src g3 launch=0 array=src bytes=4096 dur=0.500000s"
        );
    }

    #[test]
    fn wavefront_rounds_count_and_export() {
        let mk = |level| {
            let mut rec = Recorder::new(level);
            let launch = rec.launch_begin();
            rec.record(Event::Wavefront(WavefrontRound {
                launch,
                kernel: "heat".into(),
                gpu: 1,
                round: 1,
                fed_bytes: 2048,
                start: 2.0,
                end: 3.0,
            }));
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
