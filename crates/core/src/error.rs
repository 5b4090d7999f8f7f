//! Error types for the synthesis engine.

use std::error::Error;
use std::fmt;

use stp_chain::ChainError;
use stp_matrix::MatrixError;
use stp_store::MapBackError;
use stp_tt::TruthTableError;

/// Errors raised by the STP synthesis engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SynthesisError {
    /// The per-instance deadline expired before synthesis finished.
    Timeout,
    /// No realization exists within the configured gate limit.
    GateLimitExceeded {
        /// The configured maximum number of gates.
        max_gates: usize,
    },
    /// No realization exists within the explicit depth limit. Raised
    /// only when [`crate::SynthesisConfig::max_depth`] is set — the
    /// derived default depth bound surfaces as
    /// [`SynthesisError::GateLimitExceeded`] instead, because a chain's
    /// depth never exceeds its gate count.
    DepthLimitExceeded {
        /// The configured maximum depth.
        max_depth: usize,
    },
    /// A multi-output specification is malformed (empty, or the outputs
    /// disagree on arity).
    InvalidMultiSpec {
        /// What is wrong with the spec vector.
        message: String,
    },
    /// A truth-table operation failed.
    TruthTable(TruthTableError),
    /// A chain operation failed.
    Chain(ChainError),
    /// A logic-matrix operation failed.
    Matrix(MatrixError),
    /// A stored NPN answer failed its check against the requested spec
    /// and was refused (see `stp_store::NpnView::first`).
    MapBack(MapBackError),
    /// A freshly merged multi-output chain does not realize its spec
    /// vector, so it was withheld.
    Unrealized {
        /// The spec vector, as `+`-joined hex.
        specs: String,
    },
    /// A worker job panicked. The panic was caught at the job boundary
    /// (one tree shape, or one in-flight store solve), so sibling jobs
    /// and their solutions survive; this error surfaces only when the
    /// panicking job's result was load-bearing.
    JobPanicked {
        /// The panic payload plus job context (e.g. the shape index).
        message: String,
    },
}

impl fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthesisError::Timeout => write!(f, "synthesis deadline expired"),
            SynthesisError::GateLimitExceeded { max_gates } => {
                write!(f, "no realization with at most {max_gates} gates")
            }
            SynthesisError::DepthLimitExceeded { max_depth } => {
                write!(f, "no realization with depth at most {max_depth}")
            }
            SynthesisError::InvalidMultiSpec { message } => {
                write!(f, "invalid multi-output spec: {message}")
            }
            SynthesisError::TruthTable(e) => write!(f, "truth table error: {e}"),
            SynthesisError::Chain(e) => write!(f, "chain error: {e}"),
            SynthesisError::Matrix(e) => write!(f, "matrix error: {e}"),
            SynthesisError::MapBack(e) => write!(f, "refused a stored answer: {e}"),
            SynthesisError::Unrealized { specs } => {
                write!(f, "synthesized chain does not realize {specs}")
            }
            SynthesisError::JobPanicked { message } => {
                write!(f, "synthesis job panicked: {message}")
            }
        }
    }
}

impl Error for SynthesisError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SynthesisError::TruthTable(e) => Some(e),
            SynthesisError::Chain(e) => Some(e),
            SynthesisError::Matrix(e) => Some(e),
            SynthesisError::MapBack(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TruthTableError> for SynthesisError {
    fn from(e: TruthTableError) -> Self {
        SynthesisError::TruthTable(e)
    }
}

impl From<ChainError> for SynthesisError {
    fn from(e: ChainError) -> Self {
        SynthesisError::Chain(e)
    }
}

impl From<MapBackError> for SynthesisError {
    fn from(e: MapBackError) -> Self {
        SynthesisError::MapBack(e)
    }
}

impl From<MatrixError> for SynthesisError {
    fn from(e: MatrixError) -> Self {
        SynthesisError::Matrix(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(SynthesisError::Timeout.to_string(), "synthesis deadline expired");
        assert!(SynthesisError::GateLimitExceeded { max_gates: 7 }.to_string().contains('7'));
        let panicked = SynthesisError::JobPanicked { message: "shape task 3: boom".to_string() };
        assert!(panicked.to_string().contains("shape task 3: boom"));
    }
}
