//! End-to-end daemon tests: many tenants over real sockets, typed
//! rejects on the wire, determinism of concurrent results against a
//! private single-tenant engine, and clean shutdown.
//!
//! (Bit-identity of the shared [`acc_runtime::Engine`] against the
//! serial `run_program` path — arrays, traces, simulated times — is
//! proven in `crates/accrt/tests/engine_concurrency.rs`; these tests
//! hold the daemon layer on top of it.)

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

use acc_apps::{run_app_with_engine, App, Scale, Version};
use acc_gpusim::{Machine, MachineKind};
use acc_obs::json::Value;
use acc_runtime::{Engine, ExecConfig};
use acc_serve::{Client, JobRequest, Server, ServerConfig};

type Daemon = (
    Arc<Server>,
    std::net::SocketAddr,
    Vec<std::thread::JoinHandle<()>>,
    std::thread::JoinHandle<std::io::Result<()>>,
);

fn start_daemon(cfg: ServerConfig) -> Daemon {
    let workers = cfg.workers;
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap();
    let server = Server::new(cfg);
    let worker_handles = server.spawn_workers(workers);
    let acceptor = {
        let srv = Arc::clone(&server);
        std::thread::spawn(move || srv.serve_tcp(&listener))
    };
    (server, addr, worker_handles, acceptor)
}

/// The acceptance scenario: 8 concurrent tenants over TCP, mixed apps
/// and GPU counts, every job correct, each of the three sources compiled
/// exactly once however the first requests race (hit rate 45/48), clean
/// shutdown afterwards.
#[test]
fn eight_tenants_sustain_a_hot_cache_over_tcp() {
    let (server, addr, workers, acceptor) = start_daemon(ServerConfig {
        workers: 8,
        queue_cap: 64,
        ..ServerConfig::default()
    });
    let apps = ["heat2d", "bfs", "md"];
    let tenants: Vec<_> = (0..8)
        .map(|t| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for i in 0..6 {
                    let req = Value::obj([
                        ("cmd", Value::str("run")),
                        ("app", Value::str(apps[(t + i) % apps.len()])),
                        ("ngpus", Value::num((1 + (t + i) % 3) as f64)),
                    ]);
                    let resp = client.request(&req).expect("job response");
                    assert!(
                        matches!(resp.get("correct"), Some(Value::Bool(true))),
                        "tenant {t} job {i} incorrect: {}",
                        resp.to_string_compact()
                    );
                }
            })
        })
        .collect();
    for t in tenants {
        t.join().expect("tenant thread");
    }

    let mut client = Client::connect(addr).expect("connect for stats");
    let stats = client.stats().expect("stats");
    let jobs_ok = stats.get("jobs_ok").and_then(Value::as_f64).unwrap();
    let hit_rate = stats.get("job_cache_hit_rate").and_then(Value::as_f64).unwrap();
    let compiles = stats.get("engine").and_then(|e| e.get("compiles")).and_then(Value::as_f64);
    assert_eq!(jobs_ok, 48.0, "{}", stats.to_string_compact());
    assert_eq!(compiles, Some(3.0), "{}", stats.to_string_compact());
    assert!(
        hit_rate > 0.90,
        "cache hit rate {hit_rate} must exceed 90%: {}",
        stats.to_string_compact()
    );

    client.shutdown().expect("shutdown");
    acceptor.join().expect("acceptor").expect("accept loop");
    for w in workers {
        w.join().expect("worker");
    }
    assert!(server.is_shutting_down());
    // Admission stays closed after shutdown.
    assert_eq!(
        server.submit(JobRequest::new(App::Heat2d, 1)).unwrap_err().code(),
        "ACC-S006"
    );
}

/// Every deterministic field of a concurrent tenant's summary must
/// match a private, freshly-built engine running the same job serially.
#[test]
fn concurrent_summaries_match_a_private_serial_engine() {
    let jobs = [
        (App::Heat2d, 2usize),
        (App::Bfs, 3usize),
        (App::Spmv, 2usize),
    ];
    // Serial references, each on its own engine and machine.
    let refs: Vec<_> = jobs
        .iter()
        .map(|&(app, ngpus)| {
            let engine = Engine::new(MachineKind::SupercomputerNode, ExecConfig::gpus(1));
            let version = Version::Proposal(ngpus);
            let mut m = Machine::supercomputer_node();
            run_app_with_engine(
                &engine,
                app,
                version,
                &mut m,
                Scale::Small,
                42,
                &version.exec_config(),
            )
            .expect("serial reference run")
        })
        .collect();

    let server = Server::new(ServerConfig {
        workers: 6,
        ..ServerConfig::default()
    });
    let workers = server.spawn_workers(6);
    let threads: Vec<_> = (0..6)
        .map(|t| {
            let srv = Arc::clone(&server);
            std::thread::spawn(move || {
                let (app, ngpus) = jobs[t % jobs.len()];
                (t % jobs.len(), srv.run_sync(JobRequest::new(app, ngpus)).expect("job"))
            })
        })
        .collect();
    for th in threads {
        let (i, summary) = th.join().expect("tenant thread");
        let r = &refs[i];
        assert!(summary.correct, "{:?}", jobs[i]);
        assert_eq!(summary.max_err, r.max_err, "{:?}", jobs[i]);
        assert_eq!(summary.sim_s, r.time.parallel_region(), "{:?}", jobs[i]);
        assert_eq!(summary.comm_sim_s, r.time.gpu_gpu, "{:?}", jobs[i]);
        assert_eq!(summary.h2d_bytes, r.h2d_bytes, "{:?}", jobs[i]);
        assert_eq!(summary.d2h_bytes, r.d2h_bytes, "{:?}", jobs[i]);
        assert_eq!(summary.p2p_bytes, r.p2p_bytes, "{:?}", jobs[i]);
        let ref_peak: u64 = r.mem.iter().map(|m| m.user_peak + m.system_peak).sum();
        assert_eq!(summary.mem_peak_bytes, ref_peak, "{:?}", jobs[i]);
    }
    server.shutdown();
    for w in workers {
        w.join().expect("worker");
    }
}

/// Typed rejects travel the wire with their codes intact.
#[test]
fn typed_rejects_reach_the_client_with_codes() {
    // cap 1, no workers: the first job parks in the queue and times
    // out; the second bounces off the full queue — both as typed codes
    // in the JSON response, not as closed sockets.
    let (server, addr, _workers, acceptor) = start_daemon(ServerConfig {
        workers: 0,
        queue_cap: 1,
        default_timeout_ms: 50,
        ..ServerConfig::default()
    });

    let t1 = std::thread::spawn(move || {
        let mut c = Client::connect(addr).expect("connect");
        let mut req = JobRequest::new(App::Heat2d, 1);
        req.timeout_ms = Some(50);
        c.run(&req).expect_err("queued job must time out").code().to_string()
    });
    // Give the first job time to occupy the queue.
    std::thread::sleep(std::time::Duration::from_millis(10));
    let mut c2 = Client::connect(addr).expect("connect");
    let full = c2
        .run(&JobRequest::new(App::Heat2d, 1))
        .expect_err("second job must bounce off the full queue");
    assert_eq!(full.code(), "ACC-S001");
    assert_eq!(t1.join().expect("timeout client"), "ACC-S002");

    // Protocol-level rejects on a raw socket.
    let raw = TcpStream::connect(addr).expect("connect raw");
    let mut reader = BufReader::new(raw.try_clone().unwrap());
    let mut w = raw;
    let mut send = |line: &str| -> Value {
        writeln!(w, "{line}").unwrap();
        w.flush().unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        acc_obs::json::parse(resp.trim()).expect("response parses")
    };
    let bad = send("this is not json");
    assert_eq!(bad.get("code").and_then(Value::as_str), Some("ACC-S003"));
    let unknown = send(r#"{"cmd":"run","app":"nbody"}"#);
    assert_eq!(unknown.get("code").and_then(Value::as_str), Some("ACC-S005"));
    let budget = send(r#"{"cmd":"shutdown"}"#);
    assert!(matches!(budget.get("ok"), Some(Value::Bool(true))));
    acceptor.join().expect("acceptor").expect("accept loop");
    assert!(server.is_shutting_down());
}

/// A memory-budgeted job over the wire gets `ACC-S004`, and the same
/// job with a sane budget succeeds on the same connection.
#[test]
fn memory_budgets_apply_per_job_over_tcp() {
    let (server, addr, workers, acceptor) = start_daemon(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).expect("connect");
    let mut tight = JobRequest::new(App::Heat2d, 2);
    tight.mem_budget_bytes = Some(1);
    let err = client.run(&tight).expect_err("1-byte budget must fail");
    assert_eq!(err.code(), "ACC-S004");
    let mut roomy = JobRequest::new(App::Heat2d, 2);
    roomy.mem_budget_bytes = Some(u64::MAX);
    let summary = client.run(&roomy).expect("roomy budget succeeds");
    assert!(summary.correct);
    assert!(summary.mem_peak_bytes > 1);
    client.shutdown().expect("shutdown");
    acceptor.join().expect("acceptor").expect("accept loop");
    server.shutdown();
    for w in workers {
        w.join().expect("worker");
    }
}

/// One hostile line must not take the daemon down for every tenant: a
/// line nested far past the JSON parser's depth limit and one that is
/// not UTF-8 each get `ACC-S003` on a connection that stays open; a
/// line past the length cap gets `ACC-S003` and loses its connection.
/// Afterwards the daemon still answers `ping` and runs a job.
#[test]
fn hostile_lines_get_typed_rejects_and_the_daemon_keeps_serving() {
    let (server, addr, workers, acceptor) = start_daemon(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let code = |v: &Value| v.get("code").and_then(Value::as_str).map(str::to_string);

    let raw = TcpStream::connect(addr).expect("connect raw");
    let mut reader = BufReader::new(raw.try_clone().unwrap());
    let mut w = raw;
    let mut send = |line: &[u8]| -> Value {
        w.write_all(line).unwrap();
        w.write_all(b"\n").unwrap();
        w.flush().unwrap();
        let mut resp = String::new();
        reader
            .read_line(&mut resp)
            .expect("reply on an open connection");
        acc_obs::json::parse(resp.trim()).expect("response parses")
    };
    let deep = "[".repeat(60_000);
    for hostile in [deep.as_bytes(), b"{\"cmd\":\"ping\xff\xfe\"}"] {
        assert_eq!(code(&send(hostile)).as_deref(), Some("ACC-S003"));
    }
    let pong = send(br#"{"cmd":"ping"}"#);
    assert!(
        matches!(pong.get("pong"), Some(Value::Bool(true))),
        "{}",
        pong.to_string_compact()
    );

    let flood = TcpStream::connect(addr).expect("connect flood");
    let mut flood_reader = BufReader::new(flood.try_clone().unwrap());
    let mut flood_w = flood;
    let writer = std::thread::spawn(move || {
        flood_w
            .write_all(&vec![b'a'; 256 << 10])
            .expect("the daemon reads on");
        flood_w.write_all(b"\n").expect("the daemon reads on");
    });
    let mut resp = String::new();
    flood_reader
        .read_line(&mut resp)
        .expect("reply before the hang-up");
    let resp = acc_obs::json::parse(resp.trim()).expect("response parses");
    assert_eq!(code(&resp).as_deref(), Some("ACC-S003"));
    let mut rest = String::new();
    assert!(
        matches!(flood_reader.read_line(&mut rest), Ok(0) | Err(_)),
        "an oversize line closes its connection, got {rest:?}"
    );
    writer.join().expect("flood writer");
    drop(flood_reader);

    let mut client = Client::connect(addr).expect("connect after the hostile lines");
    client.ping().expect("ping after the hostile lines");
    let summary = client
        .run(&JobRequest::new(App::Heat2d, 2))
        .expect("job runs");
    assert!(summary.correct);
    client.shutdown().expect("shutdown");
    acceptor.join().expect("acceptor").expect("accept loop");
    server.shutdown();
    for w in workers {
        w.join().expect("worker");
    }
}
