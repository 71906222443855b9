//! Wire protocol: newline-delimited JSON over a local TCP socket.
//!
//! Each request is one JSON object on one line with a `"cmd"` member
//! (`ping`, `run`, `stats`, `shutdown`); each response is one JSON
//! object on one line with an `"ok"` boolean. Framing and rendering use
//! [`acc_obs::json`] — object keys are BTreeMap-ordered, so responses
//! are byte-deterministic for a given payload.
//!
//! A `run` request:
//!
//! ```json
//! {"cmd":"run","app":"heat2d","ngpus":2,"scale":"small","seed":42,
//!  "timeout_ms":30000,"mem_budget_bytes":1000000000,"trace":false}
//! ```
//!
//! `app` is required; everything else defaults (`ngpus` 1, `scale`
//! `"small"`, `seed` 42, server-side timeout/budget defaults, no
//! trace). A success response carries the [`JobSummary`] fields; a
//! failure carries `{"ok":false,"code":"ACC-XNNN","error":"..."}`.

use crate::error::ServeError;
use acc_apps::{App, Scale};
use acc_obs::json::{self, Value};

/// One compile+run job as submitted by a client.
#[derive(Debug, Clone)]
pub struct JobRequest {
    /// Which benchmark application to run.
    pub app: App,
    /// GPU count for the `Proposal` version (1–3 on the node preset).
    pub ngpus: usize,
    /// Workload scale.
    pub scale: Scale,
    /// Workload generator seed.
    pub seed: u64,
    /// Client-side reply deadline; `None` uses the server default.
    pub timeout_ms: Option<u64>,
    /// Per-job ceiling on the summed simulated per-GPU memory peak;
    /// `None` uses the server default (which may be unlimited).
    pub mem_budget_bytes: Option<u64>,
    /// Return a Chrome trace of the run in the response.
    pub trace: bool,
}

impl JobRequest {
    /// A request with every optional field at its default.
    pub fn new(app: App, ngpus: usize) -> JobRequest {
        JobRequest {
            app,
            ngpus,
            scale: Scale::Small,
            seed: 42,
            timeout_ms: None,
            mem_budget_bytes: None,
            trace: false,
        }
    }

    /// Decode from a parsed `run` request object.
    pub fn from_json(v: &Value) -> Result<JobRequest, ServeError> {
        let app_name = v
            .get("app")
            .and_then(Value::as_str)
            .ok_or_else(|| ServeError::BadRequest("missing string field \"app\"".into()))?;
        let app =
            App::from_name(app_name).ok_or_else(|| ServeError::UnknownApp(app_name.to_string()))?;
        let ngpus = match v.get("ngpus") {
            None => 1,
            Some(n) => {
                let n = n.as_f64().ok_or_else(|| {
                    ServeError::BadRequest("\"ngpus\" must be a number".into())
                })?;
                if n.fract() != 0.0 || !(1.0..=8.0).contains(&n) {
                    return Err(ServeError::BadRequest(format!(
                        "\"ngpus\" must be an integer in 1..=8, got {n}"
                    )));
                }
                n as usize
            }
        };
        let scale = match v.get("scale") {
            None => Scale::Small,
            Some(s) => {
                let s = s.as_str().ok_or_else(|| {
                    ServeError::BadRequest("\"scale\" must be a string".into())
                })?;
                Scale::from_name(s).ok_or_else(|| {
                    ServeError::BadRequest(format!(
                        "\"scale\" must be small|scaled|paper, got {s:?}"
                    ))
                })?
            }
        };
        let seed = match v.get("seed") {
            None => 42,
            Some(s) => s
                .as_f64()
                .filter(|x| x.fract() == 0.0 && *x >= 0.0)
                .ok_or_else(|| {
                    ServeError::BadRequest("\"seed\" must be a non-negative integer".into())
                })? as u64,
        };
        let opt_u64 = |field: &'static str| -> Result<Option<u64>, ServeError> {
            match v.get(field) {
                None | Some(Value::Null) => Ok(None),
                Some(x) => x
                    .as_f64()
                    .filter(|n| n.fract() == 0.0 && *n >= 0.0)
                    .map(|n| Some(n as u64))
                    .ok_or_else(|| {
                        ServeError::BadRequest(format!(
                            "\"{field}\" must be a non-negative integer"
                        ))
                    }),
            }
        };
        let timeout_ms = opt_u64("timeout_ms")?;
        let mem_budget_bytes = opt_u64("mem_budget_bytes")?;
        let trace = matches!(v.get("trace"), Some(Value::Bool(true)));
        Ok(JobRequest {
            app,
            ngpus,
            scale,
            seed,
            timeout_ms,
            mem_budget_bytes,
            trace,
        })
    }

    /// Encode as a `run` request object (what [`crate::Client`] sends).
    pub fn to_json(&self) -> Value {
        let mut pairs: Vec<(&'static str, Value)> = vec![
            ("cmd", Value::str("run")),
            ("app", Value::str(self.app.name())),
            ("ngpus", Value::num(self.ngpus as f64)),
            ("scale", Value::str(self.scale.name())),
            ("seed", Value::num(self.seed as f64)),
        ];
        if let Some(ms) = self.timeout_ms {
            pairs.push(("timeout_ms", Value::num(ms as f64)));
        }
        if let Some(b) = self.mem_budget_bytes {
            pairs.push(("mem_budget_bytes", Value::num(b as f64)));
        }
        if self.trace {
            pairs.push(("trace", Value::Bool(true)));
        }
        Value::obj(pairs)
    }
}

/// The outcome of one successful job, as returned to the client.
#[derive(Debug, Clone)]
pub struct JobSummary {
    /// Application name.
    pub app: String,
    /// GPU count the job ran on.
    pub ngpus: usize,
    /// Whether this exact compile request was served from the cache.
    pub cache_hit: bool,
    /// The oracle verdict.
    pub correct: bool,
    /// Maximum absolute error vs the oracle.
    pub max_err: f64,
    /// Simulated parallel-region seconds.
    pub sim_s: f64,
    /// Simulated GPU-GPU communication seconds (a component of
    /// `sim_s`).
    pub comm_sim_s: f64,
    /// Host wall-clock seconds the job took server-side.
    pub wall_s: f64,
    /// Summed simulated per-GPU memory peak (user + system), bytes.
    pub mem_peak_bytes: u64,
    /// Transfer volumes.
    pub h2d_bytes: u64,
    /// Transfer volumes.
    pub d2h_bytes: u64,
    /// Transfer volumes.
    pub p2p_bytes: u64,
    /// Chrome trace-event JSON for the run, when the request asked for
    /// it.
    pub chrome_trace: Option<String>,
}

impl JobSummary {
    /// Encode as a success response object.
    pub fn to_json(&self) -> Value {
        let mut pairs: Vec<(&'static str, Value)> = vec![
            ("ok", Value::Bool(true)),
            ("app", Value::str(self.app.clone())),
            ("ngpus", Value::num(self.ngpus as f64)),
            ("cache_hit", Value::Bool(self.cache_hit)),
            ("correct", Value::Bool(self.correct)),
            ("max_err", Value::num(self.max_err)),
            ("sim_s", Value::num(self.sim_s)),
            ("comm_sim_s", Value::num(self.comm_sim_s)),
            ("wall_s", Value::num(self.wall_s)),
            ("mem_peak_bytes", Value::num(self.mem_peak_bytes as f64)),
            ("h2d_bytes", Value::num(self.h2d_bytes as f64)),
            ("d2h_bytes", Value::num(self.d2h_bytes as f64)),
            ("p2p_bytes", Value::num(self.p2p_bytes as f64)),
        ];
        if let Some(t) = &self.chrome_trace {
            pairs.push(("chrome_trace", Value::str(t.clone())));
        }
        Value::obj(pairs)
    }

    /// Decode a success response object.
    pub fn from_json(v: &Value) -> Result<JobSummary, ServeError> {
        let get_f = |field: &str| -> Result<f64, ServeError> {
            v.get(field).and_then(Value::as_f64).ok_or_else(|| {
                ServeError::BadRequest(format!("response missing number field {field:?}"))
            })
        };
        let get_b = |field: &str| matches!(v.get(field), Some(Value::Bool(true)));
        Ok(JobSummary {
            app: v
                .get("app")
                .and_then(Value::as_str)
                .ok_or_else(|| {
                    ServeError::BadRequest("response missing string field \"app\"".into())
                })?
                .to_string(),
            ngpus: get_f("ngpus")? as usize,
            cache_hit: get_b("cache_hit"),
            correct: get_b("correct"),
            max_err: get_f("max_err")?,
            sim_s: get_f("sim_s")?,
            comm_sim_s: get_f("comm_sim_s")?,
            wall_s: get_f("wall_s")?,
            mem_peak_bytes: get_f("mem_peak_bytes")? as u64,
            h2d_bytes: get_f("h2d_bytes")? as u64,
            d2h_bytes: get_f("d2h_bytes")? as u64,
            p2p_bytes: get_f("p2p_bytes")? as u64,
            chrome_trace: v
                .get("chrome_trace")
                .and_then(Value::as_str)
                .map(str::to_string),
        })
    }
}

/// One decoded request line.
#[derive(Debug)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Submit a job and wait for its outcome.
    Run(JobRequest),
    /// Snapshot the daemon's counters.
    Stats,
    /// Stop admitting jobs; workers drain the queue and exit.
    Shutdown,
}

impl Request {
    /// Parse one request line.
    pub fn parse_line(line: &str) -> Result<Request, ServeError> {
        let v = json::parse(line)
            .map_err(|e| ServeError::BadRequest(format!("invalid JSON: {e:?}")))?;
        let cmd = v
            .get("cmd")
            .and_then(Value::as_str)
            .ok_or_else(|| ServeError::BadRequest("missing string field \"cmd\"".into()))?;
        match cmd {
            "ping" => Ok(Request::Ping),
            "run" => Ok(Request::Run(JobRequest::from_json(&v)?)),
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(ServeError::BadRequest(format!(
                "unknown cmd {other:?} (expected ping|run|stats|shutdown)"
            ))),
        }
    }
}

/// Encode a [`ServeError`] as a failure response object.
pub fn error_json(e: &ServeError) -> Value {
    Value::obj([
        ("ok", Value::Bool(false)),
        ("code", Value::str(e.code())),
        ("error", Value::str(e.to_string())),
    ])
}

/// Decode a response line: `Ok` summaries stay JSON (callers pick the
/// fields they need); `"ok":false` responses become
/// [`ServeError::Remote`] with the original code preserved.
pub fn decode_response(line: &str) -> Result<Value, ServeError> {
    let v = json::parse(line)
        .map_err(|e| ServeError::BadRequest(format!("invalid response JSON: {e:?}")))?;
    match v.get("ok") {
        Some(Value::Bool(true)) => Ok(v),
        Some(Value::Bool(false)) => Err(ServeError::Remote {
            code: v
                .get("code")
                .and_then(Value::as_str)
                .unwrap_or("ACC-S003")
                .to_string(),
            message: v
                .get("error")
                .and_then(Value::as_str)
                .unwrap_or("unknown server error")
                .to_string(),
        }),
        _ => Err(ServeError::BadRequest(
            "response missing boolean field \"ok\"".into(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_request_round_trips() {
        let mut req = JobRequest::new(App::Heat2d, 2);
        req.seed = 7;
        req.timeout_ms = Some(1000);
        req.mem_budget_bytes = Some(1 << 30);
        req.trace = true;
        let line = req.to_json().to_string_compact();
        let back = match Request::parse_line(&line).unwrap() {
            Request::Run(r) => r,
            other => panic!("expected run, got {other:?}"),
        };
        assert_eq!(back.app, App::Heat2d);
        assert_eq!(back.ngpus, 2);
        assert_eq!(back.seed, 7);
        assert_eq!(back.timeout_ms, Some(1000));
        assert_eq!(back.mem_budget_bytes, Some(1 << 30));
        assert!(back.trace);
    }

    #[test]
    fn defaults_fill_optional_fields() {
        let req = match Request::parse_line(r#"{"cmd":"run","app":"bfs"}"#).unwrap() {
            Request::Run(r) => r,
            other => panic!("expected run, got {other:?}"),
        };
        assert_eq!(req.app, App::Bfs);
        assert_eq!(req.ngpus, 1);
        assert_eq!(req.scale, Scale::Small);
        assert_eq!(req.seed, 42);
        assert_eq!(req.timeout_ms, None);
        assert!(!req.trace);
    }

    #[test]
    fn bad_requests_are_typed() {
        let e = Request::parse_line("not json").unwrap_err();
        assert_eq!(e.code(), "ACC-S003");
        let e = Request::parse_line(r#"{"cmd":"run"}"#).unwrap_err();
        assert_eq!(e.code(), "ACC-S003");
        let e = Request::parse_line(r#"{"cmd":"run","app":"nbody"}"#).unwrap_err();
        assert_eq!(e.code(), "ACC-S005");
        let e = Request::parse_line(r#"{"cmd":"run","app":"bfs","ngpus":0}"#).unwrap_err();
        assert_eq!(e.code(), "ACC-S003");
        let e = Request::parse_line(r#"{"cmd":"warmup"}"#).unwrap_err();
        assert_eq!(e.code(), "ACC-S003");
    }

    #[test]
    fn error_responses_decode_to_remote() {
        let line = error_json(&ServeError::QueueFull { cap: 8 }).to_string_compact();
        let e = decode_response(&line).unwrap_err();
        assert_eq!(e.code(), "ACC-S001");
        assert!(e.to_string().contains("capacity 8"));
    }

    #[test]
    fn summary_round_trips() {
        let s = JobSummary {
            app: "md".into(),
            ngpus: 3,
            cache_hit: true,
            correct: true,
            max_err: 0.0,
            sim_s: 1.5,
            comm_sim_s: 0.25,
            wall_s: 0.01,
            mem_peak_bytes: 4096,
            h2d_bytes: 100,
            d2h_bytes: 200,
            p2p_bytes: 300,
            chrome_trace: None,
        };
        let v = decode_response(&s.to_json().to_string_compact()).unwrap();
        let back = JobSummary::from_json(&v).unwrap();
        assert_eq!(back.app, "md");
        assert_eq!(back.ngpus, 3);
        assert!(back.cache_hit && back.correct);
        assert_eq!(back.mem_peak_bytes, 4096);
        assert_eq!(back.p2p_bytes, 300);
    }
}
