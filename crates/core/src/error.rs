//! Error type of the public API.

/// Errors surfaced by compiling or executing sampling programs.
#[derive(Debug, Clone)]
pub enum Error {
    /// A matrix kernel failed (shape/bounds/probability violations).
    Matrix(gsampler_matrix::Error),
    /// The program is structurally invalid.
    InvalidProgram(String),
    /// An execution-time inconsistency (missing binding, wrong value kind).
    Execution(String),
    /// A named input required by the program was not bound.
    MissingBinding(String),
    /// A transient failure (injected kernel fault, worker-pool panic) —
    /// retrying the same work is expected to succeed.
    Transient(String),
    /// A device allocation failed (budget exceeded or injected OOM) —
    /// retrying at a *smaller* working set (degradation ladder) may
    /// succeed, plain retry will not.
    Oom(gsampler_engine::OomError),
    /// The super-batch memory budget cannot be satisfied even at factor 1
    /// and degradation is disabled.
    MemoryBudget(String),
    /// The execution was cancelled through its [`CancelToken`] — not a
    /// fault: partial output was discarded at the next check point and
    /// the RNG state was restored, so a rerun is bit-identical to a
    /// clean run.
    ///
    /// [`CancelToken`]: gsampler_runtime::CancelToken
    Cancelled(String),
    /// The configured deadline elapsed before the execution finished.
    /// Like [`Error::Cancelled`] this is a clean cooperative stop, with
    /// the budget/elapsed pair preserved for shedding decisions upstream.
    DeadlineExceeded {
        /// The deadline budget, in milliseconds.
        budget_ms: u64,
        /// Elapsed time when the expiry was observed, in milliseconds.
        elapsed_ms: u64,
    },
}

impl Error {
    /// Whether plain retry (same inputs, same working set) is expected to
    /// succeed.
    pub fn is_transient(&self) -> bool {
        matches!(self, Error::Transient(_))
    }

    /// Whether this is a memory-pressure failure the degradation ladder
    /// can respond to.
    pub(crate) fn is_oom(&self) -> bool {
        matches!(self, Error::Oom(_))
    }

    /// Whether this is a cooperative cancellation (explicit or deadline) —
    /// not a fault, never retried, never quarantined.
    pub fn is_cancelled(&self) -> bool {
        matches!(self, Error::Cancelled(_) | Error::DeadlineExceeded { .. })
    }

    /// Whether this is specifically a deadline expiry.
    pub fn is_deadline(&self) -> bool {
        matches!(self, Error::DeadlineExceeded { .. })
    }

    /// Build the matching error for a fired cancel token.
    pub(crate) fn from_cancel(cause: gsampler_runtime::CancelCause) -> Error {
        match cause {
            gsampler_runtime::CancelCause::Explicit => {
                Error::Cancelled("cancelled by caller".to_string())
            }
            gsampler_runtime::CancelCause::Deadline {
                budget_ms,
                elapsed_ms,
            } => Error::DeadlineExceeded {
                budget_ms,
                elapsed_ms,
            },
        }
    }
}

impl From<gsampler_matrix::Error> for Error {
    fn from(e: gsampler_matrix::Error) -> Error {
        Error::Matrix(e)
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Matrix(e) => write!(f, "matrix kernel error: {e}"),
            Error::InvalidProgram(s) => write!(f, "invalid program: {s}"),
            Error::Execution(s) => write!(f, "execution error: {s}"),
            Error::MissingBinding(s) => write!(f, "missing input binding: {s}"),
            Error::Transient(s) => write!(f, "transient fault: {s}"),
            Error::Oom(e) => write!(f, "{e}"),
            Error::MemoryBudget(s) => write!(f, "memory budget unsatisfiable: {s}"),
            Error::Cancelled(s) => write!(f, "cancelled: {s}"),
            Error::DeadlineExceeded {
                budget_ms,
                elapsed_ms,
            } => write!(
                f,
                "deadline exceeded: {elapsed_ms}ms elapsed against a {budget_ms}ms budget"
            ),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Matrix(e) => Some(e),
            Error::Oom(e) => Some(e),
            _ => None,
        }
    }
}

/// Convenience alias for `std::result::Result<T, Error>`.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e: Error = gsampler_matrix::Error::MissingValues { op: "x" }.into();
        assert!(e.to_string().contains("matrix kernel"));
        assert!(std::error::Error::source(&e).is_some());
        let e2 = Error::MissingBinding("W1".into());
        assert!(e2.to_string().contains("W1"));
    }

    #[test]
    fn fault_classification() {
        let t = Error::Transient("injected".into());
        assert!(t.is_transient() && !t.is_oom());
        let oom = Error::Oom(gsampler_engine::OomError {
            requested: 10,
            live: 5,
            budget: 12,
        });
        assert!(oom.is_oom() && !oom.is_transient());
        assert!(std::error::Error::source(&oom).is_some());
        assert!(oom.to_string().contains("OOM"));
        let b = Error::MemoryBudget("factor 1 needs 2x budget".into());
        assert!(!b.is_transient() && !b.is_oom());
        assert!(b.to_string().contains("unsatisfiable"));
    }

    #[test]
    fn cancellation_classification() {
        let c = Error::from_cancel(gsampler_runtime::CancelCause::Explicit);
        assert!(c.is_cancelled() && !c.is_deadline());
        assert!(!c.is_transient() && !c.is_oom());
        let d = Error::from_cancel(gsampler_runtime::CancelCause::Deadline {
            budget_ms: 50,
            elapsed_ms: 61,
        });
        assert!(d.is_cancelled() && d.is_deadline());
        assert!(!d.is_transient() && !d.is_oom());
        assert!(d.to_string().contains("50ms budget"));
        assert!(d.to_string().contains("61ms elapsed"));
    }
}
