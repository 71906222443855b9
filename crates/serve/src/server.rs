//! The daemon: admission control, worker pool, and TCP accept loop.
//!
//! One [`Server`] owns one [`Engine`]. Jobs enter a bounded FIFO queue
//! ([`Server::submit`] rejects with `ACC-S001` at capacity) and worker
//! threads drain it; each job runs on a **fresh simulated machine**, so
//! any number of workers can execute concurrently while sharing the
//! engine's compilation cache, scratch pools, and per-kernel mapper
//! history. Replies travel over per-job mpsc channels;
//! [`Server::run_sync`] turns an expired wait into `ACC-S002` without
//! tearing the worker down.
//!
//! Shutdown is cooperative: [`Server::shutdown`] stops admission,
//! wakes every idle worker (they drain what is already queued, then
//! exit), and the accept loop exits on its next wakeup.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use acc_apps::{run_compiled, Version};
use acc_gpusim::{Machine, MachineKind};
use acc_obs::json::Value;
use acc_runtime::{Engine, ExecConfig, TraceLevel};

use crate::error::ServeError;
use crate::protocol::{error_json, JobRequest, JobSummary, Request};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Machine preset each job runs on (fresh per job).
    pub kind: MachineKind,
    /// Worker threads draining the queue.
    pub workers: usize,
    /// Bounded queue capacity; submissions beyond it are rejected with
    /// `ACC-S001`.
    pub queue_cap: usize,
    /// Reply deadline for jobs that do not set their own, milliseconds.
    pub default_timeout_ms: u64,
    /// Memory budget for jobs that do not set their own; `None` means
    /// unlimited.
    pub default_mem_budget_bytes: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            kind: MachineKind::SupercomputerNode,
            workers: 4,
            queue_cap: 64,
            default_timeout_ms: 60_000,
            default_mem_budget_bytes: None,
        }
    }
}

/// Longest request line [`Server::serve_tcp`] reads, newline excluded.
/// A `run` request is under 300 bytes; without a cap one client could
/// grow a connection thread's buffer without bound.
const MAX_LINE_BYTES: usize = 64 * 1024;

struct QueuedJob {
    req: JobRequest,
    reply: mpsc::Sender<Result<JobSummary, ServeError>>,
}

/// The daemon state: engine, bounded queue, and counters. Construct
/// with [`Server::new`], then [`Server::spawn_workers`] — the split
/// lets tests exercise queue-full and timeout paths deterministically
/// by submitting against a server with no workers yet.
pub struct Server {
    cfg: ServerConfig,
    engine: Engine,
    queue: Mutex<VecDeque<QueuedJob>>,
    available: Condvar,
    shutting_down: AtomicBool,
    jobs_ok: AtomicU64,
    jobs_err: AtomicU64,
    jobs_rejected: AtomicU64,
    jobs_timeout: AtomicU64,
    job_cache_hits: AtomicU64,
}

impl Server {
    /// A server with an empty queue and no workers yet.
    pub fn new(cfg: ServerConfig) -> Arc<Server> {
        let engine = Engine::new(cfg.kind, ExecConfig::gpus(1));
        Arc::new(Server {
            cfg,
            engine,
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutting_down: AtomicBool::new(false),
            jobs_ok: AtomicU64::new(0),
            jobs_err: AtomicU64::new(0),
            jobs_rejected: AtomicU64::new(0),
            jobs_timeout: AtomicU64::new(0),
            job_cache_hits: AtomicU64::new(0),
        })
    }

    /// The shared engine (compilation cache, pools, mapper history).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The configuration the server was built with.
    pub fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    /// Whether [`Server::shutdown`] has been called.
    pub fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }

    /// Stop admitting jobs and wake idle workers so they can exit.
    /// Already-queued jobs still run to completion.
    pub fn shutdown(&self) {
        self.shutting_down.store(true, Ordering::SeqCst);
        self.available.notify_all();
    }

    /// Start `n` worker threads draining the queue. Returns their
    /// handles; join them after [`Server::shutdown`] for a clean exit.
    pub fn spawn_workers(self: &Arc<Self>, n: usize) -> Vec<std::thread::JoinHandle<()>> {
        (0..n)
            .map(|i| {
                let srv = Arc::clone(self);
                std::thread::Builder::new()
                    .name(format!("acc-serve-worker-{i}"))
                    .spawn(move || srv.worker_loop())
                    .expect("spawn worker thread")
            })
            .collect()
    }

    fn worker_loop(&self) {
        loop {
            let job = {
                let mut q = self.queue.lock().expect("queue lock poisoned");
                loop {
                    if let Some(job) = q.pop_front() {
                        break job;
                    }
                    if self.is_shutting_down() {
                        return;
                    }
                    q = self.available.wait(q).expect("queue lock poisoned");
                }
            };
            let outcome = self.execute(&job.req);
            match &outcome {
                Ok(s) => {
                    self.jobs_ok.fetch_add(1, Ordering::Relaxed);
                    if s.cache_hit {
                        self.job_cache_hits.fetch_add(1, Ordering::Relaxed);
                    }
                }
                Err(_) => {
                    self.jobs_err.fetch_add(1, Ordering::Relaxed);
                }
            }
            // The client may have timed out and dropped its receiver;
            // that is its prerogative, not a worker failure.
            let _ = job.reply.send(outcome);
        }
    }

    /// Enqueue a job. Typed rejects: `ACC-S001` when the queue is at
    /// capacity, `ACC-S006` after shutdown. On success the returned
    /// receiver yields the job's outcome exactly once.
    pub fn submit(
        &self,
        req: JobRequest,
    ) -> Result<mpsc::Receiver<Result<JobSummary, ServeError>>, ServeError> {
        if self.is_shutting_down() {
            return Err(ServeError::Shutdown);
        }
        let (tx, rx) = mpsc::channel();
        {
            let mut q = self.queue.lock().expect("queue lock poisoned");
            if q.len() >= self.cfg.queue_cap {
                self.jobs_rejected.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::QueueFull {
                    cap: self.cfg.queue_cap,
                });
            }
            q.push_back(QueuedJob { req, reply: tx });
        }
        self.available.notify_one();
        Ok(rx)
    }

    /// Submit and wait for the outcome, converting an expired wait into
    /// `ACC-S002`. The job itself is not cancelled — a worker may still
    /// finish it and feed the mapper history — only the reply is
    /// abandoned.
    pub fn run_sync(&self, req: JobRequest) -> Result<JobSummary, ServeError> {
        let ms = req.timeout_ms.unwrap_or(self.cfg.default_timeout_ms);
        let rx = self.submit(req)?;
        match rx.recv_timeout(Duration::from_millis(ms)) {
            Ok(outcome) => outcome,
            Err(_) => {
                self.jobs_timeout.fetch_add(1, Ordering::Relaxed);
                Err(ServeError::Timeout { ms })
            }
        }
    }

    /// Run one job to completion on a fresh machine: cached compile,
    /// launch through the shared engine, oracle check, budget check.
    /// Public so the in-process throughput bench and the test suite can
    /// drive jobs without a socket.
    pub fn execute(&self, req: &JobRequest) -> Result<JobSummary, ServeError> {
        let version = Version::Proposal(req.ngpus);
        let (kernel, cache_hit) = self.engine.compile_entry(
            req.app.source(),
            req.app.function(),
            &version.compile_options(),
        )?;
        let mut cfg = version.exec_config();
        if req.trace {
            cfg = cfg.tracing(TraceLevel::Summary);
        }
        let mut machine = Machine::with_kind(self.cfg.kind);
        let t0 = Instant::now();
        let result = run_compiled(
            &self.engine,
            &kernel,
            req.app,
            version,
            &mut machine,
            req.scale,
            req.seed,
            &cfg,
        )?;
        let wall_s = t0.elapsed().as_secs_f64();
        let mem_peak_bytes: u64 = result.mem.iter().map(|m| m.user_peak + m.system_peak).sum();
        let budget = req.mem_budget_bytes.or(self.cfg.default_mem_budget_bytes);
        if let Some(budget_bytes) = budget {
            if mem_peak_bytes > budget_bytes {
                return Err(ServeError::MemBudget {
                    peak_bytes: mem_peak_bytes,
                    budget_bytes,
                });
            }
        }
        Ok(JobSummary {
            app: req.app.name().to_string(),
            ngpus: req.ngpus,
            cache_hit,
            correct: result.correct,
            max_err: result.max_err,
            sim_s: result.time.parallel_region(),
            comm_sim_s: result.time.gpu_gpu,
            wall_s,
            mem_peak_bytes,
            h2d_bytes: result.h2d_bytes,
            d2h_bytes: result.d2h_bytes,
            p2p_bytes: result.p2p_bytes,
            chrome_trace: req.trace.then(|| result.trace.chrome_trace()),
        })
    }

    /// Snapshot the daemon counters and the engine's cache statistics
    /// as a `stats` response object.
    pub fn stats_json(&self) -> Value {
        let es = self.engine.stats();
        let ok = self.jobs_ok.load(Ordering::Relaxed);
        let hits = self.job_cache_hits.load(Ordering::Relaxed);
        let depth = self.queue.lock().expect("queue lock poisoned").len();
        Value::obj([
            ("ok", Value::Bool(true)),
            ("jobs_ok", Value::num(ok as f64)),
            (
                "jobs_err",
                Value::num(self.jobs_err.load(Ordering::Relaxed) as f64),
            ),
            (
                "jobs_rejected",
                Value::num(self.jobs_rejected.load(Ordering::Relaxed) as f64),
            ),
            (
                "jobs_timeout",
                Value::num(self.jobs_timeout.load(Ordering::Relaxed) as f64),
            ),
            ("queue_depth", Value::num(depth as f64)),
            (
                "job_cache_hit_rate",
                Value::num(if ok > 0 { hits as f64 / ok as f64 } else { 0.0 }),
            ),
            (
                "engine",
                Value::obj([
                    ("compiles", Value::num(es.compiles as f64)),
                    ("cache_hits", Value::num(es.cache_hits as f64)),
                    ("launches", Value::num(es.launches as f64)),
                    ("pool_reuses", Value::num(es.pool_reuses as f64)),
                    ("cache_hit_rate", Value::num(es.cache_hit_rate())),
                ]),
            ),
        ])
    }

    /// Accept connections until [`Server::shutdown`]; each connection
    /// gets its own thread speaking the line protocol. A `shutdown`
    /// command pokes the listener with a throwaway connection so the
    /// blocking accept wakes up and observes the flag.
    pub fn serve_tcp(self: &Arc<Self>, listener: &TcpListener) -> std::io::Result<()> {
        let addr = listener.local_addr()?;
        for conn in listener.incoming() {
            if self.is_shutting_down() {
                break;
            }
            let stream = match conn {
                Ok(s) => s,
                Err(_) => continue,
            };
            let srv = Arc::clone(self);
            std::thread::spawn(move || srv.handle_conn(stream, addr));
        }
        Ok(())
    }

    /// Speak the line protocol on one connection. Hostile lines are
    /// typed rejects (`ACC-S003`), never a reason to stop serving: a line
    /// that is not UTF-8 or not JSON keeps the connection open, and one
    /// longer than [`MAX_LINE_BYTES`] is answered, then the connection —
    /// whose framing is lost — closed.
    fn handle_conn(&self, stream: TcpStream, addr: SocketAddr) {
        let read_half = match stream.try_clone() {
            Ok(s) => s,
            Err(_) => return,
        };
        let mut reader = BufReader::new(read_half);
        let mut writer = BufWriter::new(stream);
        let mut line = Vec::new();
        loop {
            line.clear();
            let mut capped = reader.by_ref().take(MAX_LINE_BYTES as u64 + 1);
            match capped.read_until(b'\n', &mut line) {
                Ok(0) | Err(_) => return,
                Ok(_) => {}
            }
            let oversize = line.len() > MAX_LINE_BYTES && line.last() != Some(&b'\n');
            let bad = |why: String| error_json(&ServeError::BadRequest(why));
            let response = match std::str::from_utf8(&line) {
                _ if oversize => bad(format!("request line longer than {MAX_LINE_BYTES} bytes")),
                Err(e) => bad(format!("request line is not UTF-8: {e}")),
                Ok(text) if text.trim().is_empty() => continue,
                Ok(text) => self.handle_line(text.trim(), addr),
            };
            let mut out = response.to_string_compact();
            out.push('\n');
            if writer
                .write_all(out.as_bytes())
                .and_then(|_| writer.flush())
                .is_err()
            {
                return;
            }
            if oversize {
                // Hang up behind the reply. Closing with input still
                // unread would reset the connection, which can discard
                // the reply before the client reads it; so read on, to a
                // bound, until the client hangs up too.
                let _ = writer.get_ref().shutdown(Shutdown::Write);
                let mut rest = reader.take(16 * MAX_LINE_BYTES as u64);
                let _ = std::io::copy(&mut rest, &mut std::io::sink());
                return;
            }
        }
    }

    fn handle_line(&self, line: &str, addr: SocketAddr) -> Value {
        match Request::parse_line(line) {
            Ok(Request::Ping) => Value::obj([
                ("ok", Value::Bool(true)),
                ("pong", Value::Bool(true)),
            ]),
            Ok(Request::Stats) => self.stats_json(),
            Ok(Request::Shutdown) => {
                self.shutdown();
                // Wake the accept loop so it observes the flag.
                let _ = TcpStream::connect(addr);
                Value::obj([("bye", Value::Bool(true)), ("ok", Value::Bool(true))])
            }
            Ok(Request::Run(req)) => match self.run_sync(req) {
                Ok(summary) => summary.to_json(),
                Err(e) => error_json(&e),
            },
            Err(e) => error_json(&e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acc_apps::App;

    fn tiny_cfg() -> ServerConfig {
        ServerConfig {
            workers: 0,
            queue_cap: 2,
            default_timeout_ms: 10,
            ..ServerConfig::default()
        }
    }

    #[test]
    fn queue_full_is_a_typed_reject() {
        // No workers: nothing drains the queue, so the third submit
        // must bounce deterministically.
        let srv = Server::new(tiny_cfg());
        let _a = srv.submit(JobRequest::new(App::Heat2d, 1)).unwrap();
        let _b = srv.submit(JobRequest::new(App::Heat2d, 1)).unwrap();
        let err = srv.submit(JobRequest::new(App::Heat2d, 1)).unwrap_err();
        assert_eq!(err.code(), "ACC-S001");
    }

    #[test]
    fn timeout_is_a_typed_reject() {
        let srv = Server::new(tiny_cfg());
        let mut req = JobRequest::new(App::Heat2d, 1);
        req.timeout_ms = Some(5);
        let err = srv.run_sync(req).unwrap_err();
        assert_eq!(err.code(), "ACC-S002");
    }

    #[test]
    fn shutdown_refuses_new_jobs() {
        let srv = Server::new(tiny_cfg());
        srv.shutdown();
        let err = srv.submit(JobRequest::new(App::Heat2d, 1)).unwrap_err();
        assert_eq!(err.code(), "ACC-S006");
    }

    #[test]
    fn mem_budget_is_enforced_post_run() {
        let srv = Server::new(ServerConfig {
            workers: 0,
            ..ServerConfig::default()
        });
        let mut req = JobRequest::new(App::Heat2d, 1);
        req.mem_budget_bytes = Some(1);
        let err = srv.execute(&req).unwrap_err();
        assert_eq!(err.code(), "ACC-S004");
        // The same job inside the budget succeeds, and the second
        // compile of the same request is a cache hit.
        let ok_req = JobRequest::new(App::Heat2d, 1);
        let summary = srv.execute(&ok_req).unwrap();
        assert!(summary.correct);
        assert!(summary.cache_hit, "second identical request should hit the cache");
        assert!(summary.mem_peak_bytes > 1);
    }

    #[test]
    fn too_many_gpus_passes_the_runtime_code_through() {
        let srv = Server::new(ServerConfig {
            workers: 0,
            kind: MachineKind::Desktop,
            ..ServerConfig::default()
        });
        let err = srv.execute(&JobRequest::new(App::Heat2d, 3)).unwrap_err();
        assert_eq!(err.code(), "ACC-R007");
    }

    #[test]
    fn trace_requests_return_a_chrome_trace() {
        let srv = Server::new(ServerConfig {
            workers: 0,
            ..ServerConfig::default()
        });
        let mut req = JobRequest::new(App::Heat2d, 2);
        req.trace = true;
        let summary = srv.execute(&req).unwrap();
        let doc = summary.chrome_trace.expect("trace requested");
        assert!(doc.contains("traceEvents"), "chrome trace shape: {doc:.60}");
    }
}
