//! Structured harness errors.
//!
//! The one-shot CLI could afford to `panic!`/`expect` its way out of bad
//! input — the process was about to exit anyway. A long-lived daemon
//! cannot: a panicking request handler is an availability bug. Every
//! failure a client request can provoke is therefore represented here as
//! a [`HarnessError`] value that travels up to the CLI/server boundary,
//! where it becomes a non-zero exit code or a structured error reply
//! frame — never a dead process.

use tus::DeadlockReport;
use tus_workloads::Workload;

/// A structured, reportable harness failure.
#[derive(Debug)]
pub enum HarnessError {
    /// A workload name that matches no built-in suite entry.
    UnknownWorkload {
        /// The name that failed to resolve.
        name: String,
    },
    /// An experiment name that matches no entry in
    /// [`crate::experiments::EXPERIMENTS`].
    UnknownExperiment {
        /// The name that failed to resolve.
        name: String,
    },
    /// A run gave up: cycle budget exhausted or the progress watchdog
    /// fired. Carries the simulator's full structured diagnostics.
    Deadlock(Box<DeadlockReport>),
    /// A simulation job panicked; the panic was caught at the worker
    /// boundary so it cannot poison shared state or kill the process.
    JobPanicked {
        /// The captured panic payload (best-effort stringification).
        what: String,
    },
    /// A malformed request or reply frame.
    Protocol {
        /// What was wrong with it.
        what: String,
    },
    /// An I/O failure talking to a peer or the filesystem.
    Io(std::io::Error),
}

impl HarnessError {
    /// Stable one-token machine-readable kind (the first line of a wire
    /// error reply; exit-code selection in the client).
    pub fn kind_token(&self) -> &'static str {
        match self {
            HarnessError::UnknownWorkload { .. } => "unknown_workload",
            HarnessError::UnknownExperiment { .. } => "unknown_experiment",
            HarnessError::Deadlock(_) => "deadlock",
            HarnessError::JobPanicked { .. } => "panic",
            HarnessError::Protocol { .. } => "protocol",
            HarnessError::Io(_) => "io",
        }
    }
}

impl std::fmt::Display for HarnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HarnessError::UnknownWorkload { name } => {
                writeln!(f, "unknown workload {name:?}; known workloads:")?;
                for w in tus_workloads::all_single()
                    .iter()
                    .chain(tus_workloads::parsec16().iter())
                {
                    writeln!(f, "  {}", w.name)?;
                }
                Ok(())
            }
            HarnessError::UnknownExperiment { name } => {
                write!(f, "unknown experiment {name:?}; known:")?;
                for (n, _) in crate::experiments::EXPERIMENTS {
                    write!(f, " {n}")?;
                }
                write!(f, " all")
            }
            HarnessError::Deadlock(r) => write!(f, "{r}"),
            HarnessError::JobPanicked { what } => {
                write!(f, "simulation job panicked: {what}")
            }
            HarnessError::Protocol { what } => write!(f, "protocol error: {what}"),
            HarnessError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for HarnessError {}

impl From<std::io::Error> for HarnessError {
    fn from(e: std::io::Error) -> Self {
        HarnessError::Io(e)
    }
}

impl From<Box<DeadlockReport>> for HarnessError {
    fn from(r: Box<DeadlockReport>) -> Self {
        HarnessError::Deadlock(r)
    }
}

/// Resolves a workload by name, or reports [`HarnessError::UnknownWorkload`].
///
/// Every user-supplied workload name — CLI argument or wire request —
/// goes through here, so a typo is an error value at the boundary, not a
/// `by_name(..).expect("exists")` abort deep in a worker.
pub fn workload(name: &str) -> Result<Workload, HarnessError> {
    tus_workloads::by_name(name).ok_or_else(|| HarnessError::UnknownWorkload {
        name: name.to_owned(),
    })
}

/// Best-effort stringification of a caught panic payload.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_lookup_reports_unknown_names() {
        assert!(workload("505.mcf-like").is_ok());
        let err = workload("no-such-workload").unwrap_err();
        assert_eq!(err.kind_token(), "unknown_workload");
        let msg = err.to_string();
        assert!(msg.contains("no-such-workload"));
        // The message lists the valid names, so a typo is self-serviceable.
        assert!(msg.contains("505.mcf-like"));
    }

    #[test]
    fn panic_message_handles_common_payloads() {
        let s: Box<dyn std::any::Any + Send> = Box::new("boom");
        assert_eq!(panic_message(&*s), "boom");
        let s: Box<dyn std::any::Any + Send> = Box::new(String::from("kaboom"));
        assert_eq!(panic_message(&*s), "kaboom");
        let s: Box<dyn std::any::Any + Send> = Box::new(42u32);
        assert_eq!(panic_message(&*s), "<non-string panic payload>");
    }
}
