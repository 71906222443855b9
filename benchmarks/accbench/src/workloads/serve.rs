//! `serve-mix`: an in-process `acc-serve` daemon behind its TCP line
//! protocol, driven by two closed-loop tenants (each waits for a reply
//! before sending its next job, and is dealt its jobs in [`Deck`]s so that
//! every stretch of the run holds the same ones). Kernels are tiny, so what
//! a job costs is the fixed part — queue wait, protocol JSON,
//! cached-compile lookup, machine construction, input generation, oracle —
//! which no other workload sees.

use std::hint::black_box;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use acc_apps::{heat2d, App, Scale};
use acc_gpusim::MachineKind;
use acc_obs::json::Value;
use acc_serve::{Client, JobRequest, JobSummary, Request, Server, ServerConfig};

use super::app::engine_probe;
use super::{median_secs, put_end_to_end, secs, timed, RunArgs, RunOutput, Size, Window};
use crate::spans::Spans;
use crate::stats;
use crate::util::{Fnv1a, SplitMix64};

/// Tenants, and workers behind them: one of each per core of the 2-core
/// box the bounds were measured on.
const CLIENTS: u64 = 2;
const WORKERS: usize = 2;
/// GPU counts the node preset offers, and the fixed pool of generator
/// seeds a job draws its input from (all 7 × 3 × 5 combinations pass
/// their oracle; the smoke test runs each once).
const MAX_GPUS: u64 = 3;
const INPUT_SEEDS: u64 = 5;

/// Jobs in a deck: each application on each GPU count once.
const DECK: usize = App::ALL.len() * MAX_GPUS as usize;

/// One deck, each job on the input the next `input_seed()` names.
fn deck(mut input_seed: impl FnMut() -> u64) -> Vec<JobRequest> {
    let pairs = App::ALL
        .into_iter()
        .flat_map(|app| (1..=MAX_GPUS as usize).map(move |ngpus| (app, ngpus)));
    pairs
        .map(|(app, ngpus)| JobRequest {
            scale: Scale::Small,
            seed: input_seed(),
            ..JobRequest::new(app, ngpus)
        })
        .collect()
}

/// Every job a tenant can be dealt.
pub fn every_job() -> Vec<JobRequest> {
    (1..=INPUT_SEEDS).flat_map(|seed| deck(|| seed)).collect()
}

/// A tenant's job stream: deck after deck of the 21 application × GPU-count
/// pairs, each deck in an order, and each of its jobs on one of the five
/// inputs, drawn from the seed. Jobs differ in cost more than tenfold
/// between applications (and their median sits in a gap between two groups
/// of them), so with independent draws a run's latency figure would depend
/// on which jobs its seed happened to draw; dealt from decks, every
/// deck-length stretch of every stream holds the same programs on the same
/// GPU counts, and only inputs, order and interleaving vary. A deck takes
/// 0.13 s: short enough for many of a run's decks to fall between the
/// host's slow stretches.
pub struct Deck {
    rng: SplitMix64,
    left: Vec<JobRequest>,
}

impl Deck {
    /// Tenant `client`'s stream for a run seed.
    pub fn new(seed: u64, client: u64) -> Deck {
        let base = SplitMix64::new(seed).next_u64();
        Deck {
            rng: SplitMix64::new(base ^ client.wrapping_mul(0xA076_1D64_78BD_642F)),
            left: Vec::new(),
        }
    }

    pub fn draw(&mut self) -> JobRequest {
        if self.left.is_empty() {
            self.left = deck(|| 1 + self.rng.below(INPUT_SEEDS));
            self.rng.shuffle(&mut self.left);
        }
        self.left.pop().expect("a deck is never empty")
    }
}

/// Mean latency of each complete deck in one tenant's samples (of the
/// whole stream, when it is shorter than a deck).
fn deck_means(samples: &[JobSample]) -> Vec<f64> {
    let whole = if samples.len() < DECK {
        samples.len()
    } else {
        samples.len() / DECK * DECK
    };
    samples[..whole]
        .chunks(DECK)
        .map(|c| c.iter().map(|s| s.latency_s).sum::<f64>() / c.len() as f64)
        .collect()
}

struct Live {
    server: Arc<Server>,
    addr: SocketAddr,
    accept: JoinHandle<std::io::Result<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Live {
    fn start() -> Result<Live, String> {
        let server = Server::new(ServerConfig {
            kind: MachineKind::SupercomputerNode,
            workers: WORKERS,
            queue_cap: 64,
            ..ServerConfig::default()
        });
        let workers = server.spawn_workers(WORKERS);
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        let srv = Arc::clone(&server);
        let accept = std::thread::spawn(move || srv.serve_tcp(&listener));
        Ok(Live {
            server,
            addr,
            accept,
            workers,
        })
    }

    /// Stop admission, then wait for the accept loop and every worker.
    fn stop(self) -> Result<(), String> {
        Client::connect(self.addr)
            .and_then(|mut c| c.shutdown())
            .map_err(|e| format!("shutdown: {e}"))?;
        self.accept
            .join()
            .map_err(|_| "accept thread panicked".to_string())?
            .map_err(|e| format!("accept: {e}"))?;
        for w in self.workers {
            w.join().map_err(|_| "worker panicked".to_string())?;
        }
        Ok(())
    }
}

#[derive(Debug, Clone, Copy)]
struct JobSample {
    /// Client-observed round trip.
    latency_s: f64,
    /// Server-side generate + launch + oracle (`JobSummary::wall_s`).
    run_s: f64,
    ok: bool,
}

/// Where a tenant's jobs come from: its seeded stream (until the window
/// closes), or a fixed list (until it is used up).
enum Jobs<'a> {
    Mix(&'a mut Deck),
    Listed(std::vec::IntoIter<JobRequest>),
}

impl Jobs<'_> {
    fn next(&mut self, window: Window, done: usize, min_jobs: usize) -> Option<JobRequest> {
        match self {
            Jobs::Mix(deck) => window.open(done, min_jobs).then(|| deck.draw()),
            Jobs::Listed(list) => list.next(),
        }
    }
}

/// One tenant's closed loop over its own connection.
fn tenant(
    addr: SocketAddr,
    mut jobs: Jobs,
    window: Window,
    min_jobs: usize,
    trace: bool,
    spans: &mut Spans,
) -> Vec<JobSample> {
    let mut samples = Vec::new();
    let Ok(mut client) = Client::connect(addr) else {
        return vec![JobSample {
            latency_s: 0.0,
            run_s: 0.0,
            ok: false,
        }];
    };
    while let Some(job) = jobs.next(window, samples.len(), min_jobs) {
        let req = JobRequest { trace, ..job };
        let op_id = samples.len() as u64 + 1;
        let (reply, latency_s) = spans.scope("serve.client.request", op_id, |_| {
            timed(|| client.run(&req))
        });
        let run_s = reply.as_ref().map_or(0.0, |s| s.wall_s);
        if trace {
            spans.child_of_last("serve.run", (run_s * 1e9) as u64);
        }
        samples.push(JobSample {
            latency_s,
            run_s,
            ok: reply.is_ok_and(|s| s.correct),
        });
    }
    samples
}

/// Both tenants at once; returns each one's samples, the spans they
/// recorded, and the length of the window they filled.
fn fleet(
    live: &Live,
    sources: Vec<Jobs>,
    seconds: f64,
    min_jobs: usize,
    trace: bool,
    epoch: Instant,
) -> (Vec<Vec<JobSample>>, Spans, f64) {
    let window = Window::of(seconds);
    let t0 = Instant::now();
    let parts: Vec<(Vec<JobSample>, Spans)> = std::thread::scope(|scope| {
        let handles: Vec<_> = sources
            .into_iter()
            .map(|jobs| {
                scope.spawn(move || {
                    let mut spans = if trace {
                        Spans::new(epoch)
                    } else {
                        Spans::disabled()
                    };
                    let samples = tenant(live.addr, jobs, window, min_jobs, trace, &mut spans);
                    (samples, spans)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("tenant thread panicked"))
            .collect()
    });
    let elapsed = secs(t0.elapsed());
    let mut all = Vec::new();
    let mut spans = Spans::new(epoch);
    for (samples, s) in parts {
        all.push(samples);
        spans.merge(s);
    }
    (all, spans, elapsed)
}

struct Ready {
    live: Live,
    decks: Vec<Deck>,
    warm_ok: bool,
}

fn setup(args: &RunArgs) -> Result<Ready, String> {
    let live = Live::start()?;
    // Warm-up: every job the mix can draw, once, dealt round-robin to the
    // tenants — the same work whatever the seed, so `setup_s` compares
    // across seeds, and every source is compiled and every pool filled.
    let stride = if args.size == Size::Full { 1 } else { 10 };
    let mut dealt: Vec<Vec<JobRequest>> = vec![Vec::new(); CLIENTS as usize];
    for (i, job) in every_job().into_iter().step_by(stride).enumerate() {
        dealt[i % CLIENTS as usize].push(job);
    }
    let sources = dealt
        .into_iter()
        .map(|d| Jobs::Listed(d.into_iter()))
        .collect();
    let (samples, _, _) = fleet(&live, sources, 0.0, 0, false, Instant::now());
    Ok(Ready {
        warm_ok: samples.iter().flatten().all(|s| s.ok),
        live,
        decks: (0..CLIENTS).map(|c| Deck::new(args.seed, c)).collect(),
    })
}

pub fn run(args: &RunArgs) -> Result<RunOutput, String> {
    let epoch = Instant::now();
    let (mut ready, setups) = args.set_up(|| setup(args), |prev: Ready| prev.live.stop())?;
    let mut out = RunOutput::new(ready.warm_ok);
    let seconds = if args.trace {
        args.seconds * 0.6
    } else {
        args.seconds
    };
    let mix = ready.decks.iter_mut().map(Jobs::Mix).collect();
    let (tenants, _, elapsed) = fleet(&ready.live, mix, seconds, 20, false, epoch);
    // `wall_s` is read off the decks the tenants completed, each one's mean
    // latency a sample: the same jobs in every sample.
    let decks: Vec<f64> = tenants.iter().flat_map(|t| deck_means(t)).collect();
    let samples = tenants.concat();
    out.attempted = samples.len() as u64;
    out.failed = samples.iter().filter(|s| !s.ok).count() as u64;
    if args.trace {
        out.metrics
            .put("bench.ops_per_s", samples.len() as f64 / elapsed);
        out.spans = Some(layers(&mut ready, args, &samples, epoch, &mut out)?);
    } else {
        put_end_to_end(&mut out.metrics, &decks, &setups);
    }
    ready.live.stop()?;
    out.correct &= out.failed == 0;
    Ok(out)
}

fn layers(
    ready: &mut Ready,
    args: &RunArgs,
    plain: &[JobSample],
    epoch: Instant,
    out: &mut RunOutput,
) -> Result<Spans, String> {
    let full = args.size == Size::Full;
    // Jobs that also stream a Chrome trace back, under the benchmark's
    // own spans.
    let (traced, spans, _) = fleet(
        &ready.live,
        ready.decks.iter_mut().map(Jobs::Mix).collect(),
        0.0,
        if full { 100 } else { 10 },
        true,
        epoch,
    );
    let traced = traced.concat();
    out.attempted += traced.len() as u64;
    out.failed += traced.iter().filter(|s| !s.ok).count() as u64;

    let m = &mut out.metrics;
    let ms = |f: fn(&JobSample) -> f64| plain.iter().map(|s| 1e3 * f(s)).collect::<Vec<f64>>();
    let latency = ms(|s| s.latency_s);
    let run = ms(|s| s.run_s);
    let wait = ms(|s| (s.latency_s - s.run_s).max(0.0));
    m.put(
        "bench.wall_p50_s",
        stats::median(&latency).unwrap_or(0.0) / 1e3,
    );
    m.put("serve.run_ms_p50", stats::median(&run).unwrap_or(0.0));
    m.put(
        "serve.queue_wait_ms_p50",
        stats::median(&wait).unwrap_or(0.0),
    );
    if let Some(p99) = stats::tail_percentile(&latency, 99.0) {
        m.put("bench.wall_p99_s", p99 / 1e3);
    }
    if let Some(p99) = stats::tail_percentile(&run, 99.0) {
        m.put("serve.run_ms_p99", p99);
    }
    if let Some(p99) = stats::tail_percentile(&wait, 99.0) {
        m.put("serve.queue_wait_ms_p99", p99);
    }
    let traced_ms: Vec<f64> = traced.iter().map(|s| 1e3 * s.latency_s).collect();
    m.put(
        "serve.traced_latency_ms_p50",
        stats::median(&traced_ms).unwrap_or(0.0),
    );

    let mut client = Client::connect(ready.live.addr).map_err(|e| format!("connect: {e}"))?;
    m.put(
        "serve.ping_us",
        1e6 * median_secs(if full { 200 } else { 20 }, || {
            black_box(client.ping().is_ok());
        }),
    );
    m.put(
        "serve.protocol_us",
        1e6 * protocol_round_trip(if full { 200 } else { 20 }),
    );

    let stats_json = client.stats().map_err(|e| format!("stats: {e}"))?;
    let stat = |key: &str| stats_json.get(key).and_then(Value::as_f64).unwrap_or(0.0);
    m.put("serve.rejected", stat("jobs_rejected"));
    m.put("serve.timeouts", stat("jobs_timeout"));
    m.put("serve.errors", stat("jobs_err"));
    m.put("serve.cache_hit_rate", stat("job_cache_hit_rate"));

    let engine = ready.live.server.engine();
    let es = engine.stats();
    m.put("accrt.engine.cache_hit_rate", es.cache_hit_rate());
    m.put("accrt.engine.pool_reuses", es.pool_reuses as f64);
    m.put("accrt.engine.evictions", es.evictions as f64);
    let (hit_us, miss_us) = engine_probe(engine, (heat2d::SOURCE, heat2d::FUNCTION), args.seed);
    m.put("accrt.engine.hit_us", hit_us);
    m.put("accrt.engine.miss_us", miss_us);

    let mut h = Fnv1a::default();
    App::ALL.iter().for_each(|a| h.write(a.source().as_bytes()));
    for c in 0..CLIENTS {
        let mut deck = Deck::new(args.seed, c);
        for _ in 0..64 {
            h.write(deck.draw().to_json().to_string_compact().as_bytes());
        }
    }
    m.put("apps.input_fingerprint48", h.finish48());
    Ok(spans)
}

/// The line protocol with no socket and no job: request encode → parse,
/// summary encode → decode. Seconds per round trip.
fn protocol_round_trip(reps: usize) -> f64 {
    let req = JobRequest::new(App::Heat2d, 2);
    let summary = JobSummary {
        app: "heat2d".into(),
        ngpus: 2,
        cache_hit: true,
        correct: true,
        max_err: 0.0,
        sim_s: 1.25e-4,
        comm_sim_s: 2.5e-5,
        wall_s: 3.5e-3,
        mem_peak_bytes: 1 << 20,
        h2d_bytes: 1 << 16,
        d2h_bytes: 1 << 16,
        p2p_bytes: 1 << 12,
        chrome_trace: None,
    };
    median_secs(reps, || {
        let line = black_box(&req).to_json().to_string_compact();
        black_box(Request::parse_line(&line).is_ok());
        let reply = black_box(&summary).to_json().to_string_compact();
        let decoded = acc_obs::json::parse(&reply).map(|v| JobSummary::from_json(&v).is_ok());
        black_box(decoded.is_ok());
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix(seed: u64, client: u64, n: usize) -> Vec<String> {
        let mut deck = Deck::new(seed, client);
        (0..n)
            .map(|_| deck.draw().to_json().to_string_compact())
            .collect()
    }

    #[test]
    fn job_mix_is_a_function_of_seed_and_tenant() {
        assert_eq!(mix(42, 0, 200), mix(42, 0, 200));
        assert_ne!(mix(42, 0, 200), mix(43, 0, 200));
        assert_ne!(mix(42, 0, 200), mix(42, 1, 200));
    }

    #[test]
    fn every_deck_holds_every_app_on_every_gpu_count_once() {
        use std::collections::BTreeSet;
        let mut deck = Deck::new(42, 0);
        let mut orders = Vec::new();
        let mut seen = BTreeSet::new();
        for _ in 0..200 {
            let dealt: Vec<_> = (0..DECK)
                .map(|_| {
                    let j = deck.draw();
                    assert!(!j.trace && j.scale == Scale::Small);
                    assert!((1..=INPUT_SEEDS).contains(&j.seed));
                    seen.insert((j.app.name(), j.ngpus, j.seed));
                    (j.app.name(), j.ngpus)
                })
                .collect();
            let pairs: BTreeSet<_> = dealt.iter().copied().collect();
            assert_eq!(pairs.len(), 7 * 3);
            assert!(pairs
                .iter()
                .all(|&(_, g)| (1..=MAX_GPUS as usize).contains(&g)));
            orders.push(dealt);
        }
        assert_ne!(orders[0], orders[1], "each deck is shuffled afresh");
        // Over a run's worth of decks every input of every pair comes up,
        // and set-up has warmed exactly those.
        let all: BTreeSet<_> = every_job()
            .iter()
            .map(|j| (j.app.name(), j.ngpus, j.seed))
            .collect();
        assert_eq!(all.len(), 7 * 3 * 5);
        assert_eq!(seen, all);
    }

    #[test]
    fn deck_means_drop_the_unfinished_deck() {
        let sample = |latency_s| JobSample {
            latency_s,
            run_s: 0.0,
            ok: true,
        };
        let mut stream = vec![sample(1.0); DECK];
        stream.extend(vec![sample(3.0); DECK]);
        stream.extend(vec![sample(100.0); DECK - 1]);
        assert_eq!(deck_means(&stream), vec![1.0, 3.0]);
        assert_eq!(deck_means(&[sample(2.0), sample(4.0)]), vec![3.0]);
        assert!(deck_means(&[]).is_empty());
    }
}
