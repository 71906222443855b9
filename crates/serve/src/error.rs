//! The serve-side error hierarchy.
//!
//! Every error the daemon can hand a client carries a stable code:
//! `ACC-SNNN` for conditions the server itself raises (admission
//! control, protocol violations, budgets), and the runtime's existing
//! `ACC-RNNN` space for compile/run failures, which pass through
//! unchanged as [`RunError`]. Codes — not message text — are
//! the contract: clients and CI match on them.

use acc_runtime::RunError;

/// Anything that can go wrong between a client submitting a job and
/// the daemon returning its summary.
#[derive(Debug)]
pub enum ServeError {
    /// The bounded job queue is at capacity (`ACC-S001`). Back off and
    /// resubmit; the server stays healthy.
    QueueFull {
        /// The configured queue capacity.
        cap: usize,
    },
    /// The client-side wait for a job outcome expired (`ACC-S002`).
    /// The job itself may still complete server-side; only the reply
    /// is dropped.
    Timeout {
        /// The deadline that expired, milliseconds.
        ms: u64,
    },
    /// The request line was not valid JSON or was missing/mistyping a
    /// field (`ACC-S003`).
    BadRequest(String),
    /// The job ran but its simulated per-GPU memory peak exceeded the
    /// job's budget (`ACC-S004`).
    MemBudget {
        /// Total simulated peak across GPUs, bytes.
        peak_bytes: u64,
        /// The budget it exceeded, bytes.
        budget_bytes: u64,
    },
    /// The request named an application the daemon does not serve
    /// (`ACC-S005`).
    UnknownApp(String),
    /// The daemon is shutting down and no longer admits jobs
    /// (`ACC-S006`).
    Shutdown,
    /// A client-side transport failure — connect, write, or read on
    /// the socket (`ACC-S007`).
    Io(String),
    /// The server replied with an error; the original code is
    /// preserved so client-side matching still works (`code`).
    Remote {
        /// The `ACC-XNNN` code from the response.
        code: String,
        /// The human-readable message from the response.
        message: String,
    },
    /// The compiler or runtime rejected the job; carries the runtime
    /// error with its own `ACC-RNNN` code.
    Run(RunError),
}

impl ServeError {
    /// The stable diagnostic code. Server-raised conditions use
    /// `ACC-SNNN`; compile/run failures pass the runtime's `ACC-RNNN`
    /// codes through; [`ServeError::Remote`] echoes whatever code the
    /// server sent.
    pub fn code(&self) -> &str {
        match self {
            ServeError::QueueFull { .. } => "ACC-S001",
            ServeError::Timeout { .. } => "ACC-S002",
            ServeError::BadRequest(_) => "ACC-S003",
            ServeError::MemBudget { .. } => "ACC-S004",
            ServeError::UnknownApp(_) => "ACC-S005",
            ServeError::Shutdown => "ACC-S006",
            ServeError::Io(_) => "ACC-S007",
            ServeError::Remote { code, .. } => code,
            ServeError::Run(e) => e.code(),
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::QueueFull { cap } => write!(f, "job queue full (capacity {cap})"),
            ServeError::Timeout { ms } => write!(f, "job did not finish within {ms} ms"),
            ServeError::BadRequest(m) => write!(f, "bad request: {m}"),
            ServeError::MemBudget {
                peak_bytes,
                budget_bytes,
            } => write!(
                f,
                "memory budget exceeded: peak {peak_bytes} B > budget {budget_bytes} B"
            ),
            ServeError::UnknownApp(name) => write!(f, "unknown application {name:?}"),
            ServeError::Shutdown => write!(f, "server is shutting down"),
            ServeError::Io(m) => write!(f, "transport error: {m}"),
            ServeError::Remote { code, message } => write!(f, "server error [{code}]: {message}"),
            ServeError::Run(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<RunError> for ServeError {
    fn from(e: RunError) -> ServeError {
        ServeError::Run(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> ServeError {
        ServeError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable() {
        assert_eq!(ServeError::QueueFull { cap: 4 }.code(), "ACC-S001");
        assert_eq!(ServeError::Timeout { ms: 10 }.code(), "ACC-S002");
        assert_eq!(ServeError::BadRequest("x".into()).code(), "ACC-S003");
        assert_eq!(
            ServeError::MemBudget {
                peak_bytes: 2,
                budget_bytes: 1
            }
            .code(),
            "ACC-S004"
        );
        assert_eq!(ServeError::UnknownApp("nbody".into()).code(), "ACC-S005");
        assert_eq!(ServeError::Shutdown.code(), "ACC-S006");
        assert_eq!(ServeError::Io("refused".into()).code(), "ACC-S007");
    }

    #[test]
    fn run_errors_pass_their_code_through() {
        let e = ServeError::from(RunError::Compile("parse error".into()));
        assert_eq!(e.code(), "ACC-R010");
        assert!(e.to_string().contains("parse error"));
    }
}
