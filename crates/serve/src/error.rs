//! The serving layer's typed error, including the backpressure path.

use dqc_core::DqcError;
use dqc_types::Diagnostic;
use std::error::Error;
use std::fmt;

/// Everything that can go wrong between submitting an
/// [`EvalRequest`](crate::EvalRequest) and receiving its
/// [`EvalResponse`](crate::EvalResponse).
///
/// [`ServeError::Overloaded`] is the typed backpressure signal of the
/// admission controller: the target shard's bounded queue is full, and
/// the server refuses the request *now* instead of letting latency grow
/// without bound. Callers decide the policy — drop, retry after a pause,
/// or shed load upstream. Requests are cheap to clone (the circuit is
/// behind an [`Arc`](std::sync::Arc)), so retry loops keep a clone of
/// what they submit.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The target shard's queue is at capacity; the request was refused.
    Overloaded {
        /// The hardware point whose shard refused the request.
        point: String,
        /// The shard's queue capacity (requests).
        capacity: usize,
    },
    /// The request names a hardware point the server was not built with.
    UnknownPoint {
        /// The unrecognized point label.
        point: String,
    },
    /// The server was built without any hardware points, so it could
    /// never accept a request.
    NoHardwarePoints,
    /// Two hardware points were registered under the same label, so
    /// request routing would be ambiguous.
    DuplicatePoint {
        /// The repeated point label.
        point: String,
    },
    /// The configuration violates an invariant under which the server
    /// could do no useful work (a zero-capacity queue, a zero in-flight
    /// quota, a non-positive rate limit), so it was never spawned.
    InvalidConfig {
        /// The error-level findings of
        /// [`ServeConfig::validate`](crate::ServeConfig::validate).
        diagnostics: Vec<Diagnostic>,
    },
    /// The server has shut down and no longer accepts requests.
    ShuttingDown,
    /// The evaluation engine rejected or failed the request (compile or
    /// run error, zero runs, circuit too wide for the shard, …).
    Engine(DqcError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded { point, capacity } => write!(
                f,
                "shard `{point}` is overloaded (queue at capacity {capacity}); retry later or shed load"
            ),
            ServeError::UnknownPoint { point } => {
                write!(f, "no shard serves hardware point `{point}`")
            }
            ServeError::NoHardwarePoints => {
                f.write_str("a server needs at least one hardware point")
            }
            ServeError::DuplicatePoint { point } => {
                write!(f, "hardware point `{point}` is registered twice")
            }
            ServeError::InvalidConfig { diagnostics } => {
                f.write_str("invalid serving configuration: ")?;
                for (i, diagnostic) in diagnostics.iter().enumerate() {
                    if i > 0 {
                        f.write_str("; ")?;
                    }
                    write!(f, "{diagnostic}")?;
                }
                Ok(())
            }
            ServeError::ShuttingDown => f.write_str("the server is shutting down"),
            ServeError::Engine(e) => write!(f, "evaluation failed: {e}"),
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServeError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DqcError> for ServeError {
    fn from(e: DqcError) -> Self {
        ServeError::Engine(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_shard_and_capacity() {
        let e = ServeError::Overloaded {
            point: "paper".to_string(),
            capacity: 64,
        };
        let text = e.to_string();
        assert!(text.contains("paper") && text.contains("64"), "{text}");
    }

    #[test]
    fn engine_errors_carry_a_source() {
        let e = ServeError::from(DqcError::ZeroRuns);
        assert!(e.source().is_some());
        assert_eq!(e, ServeError::Engine(DqcError::ZeroRuns));
    }
}
