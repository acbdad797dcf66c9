//! Error type for the model checker.

use opentla_kernel::{EvalError, KernelError, Value, VarId};
use opentla_semantics::SemanticsError;
use std::fmt;

/// An engine error raised while checking (as opposed to a property
/// violation, which is reported as a
/// [`Verdict::Violated`](crate::Verdict::Violated)).
#[derive(Clone, Debug)]
pub enum CheckError {
    /// Expression evaluation failed — usually a type error in the
    /// specification.
    Eval(EvalError),
    /// A syntactic transformation failed.
    Kernel(KernelError),
    /// The semantics engine failed.
    Semantics(SemanticsError),
    /// An action produced a value outside the variable's domain.
    OutOfDomain {
        /// The action that produced it.
        action: String,
        /// The variable assigned.
        var: VarId,
        /// The offending value.
        value: Value,
    },
    /// Exploration exceeded the configured state limit.
    TooManyStates {
        /// The configured limit.
        limit: usize,
    },
    /// The abstract specification handed to a simulation or liveness
    /// check is not in the supported (safety-canonical) shape.
    NotCanonical {
        /// What was being checked.
        context: &'static str,
    },
    /// An initial-state enumeration covered no states.
    NoInitialStates,
    /// A checkpoint snapshot could not be written, read, or trusted
    /// (corrupt, truncated, wrong version, or from a different
    /// system/configuration).
    Checkpoint(crate::checkpoint::CheckpointError),
    /// A structural precondition of an API was violated.
    Precondition {
        /// Human-readable description.
        message: String,
    },
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::Eval(e) => write!(f, "evaluation error: {e}"),
            CheckError::Kernel(e) => write!(f, "kernel error: {e}"),
            CheckError::Semantics(e) => write!(f, "semantics error: {e}"),
            CheckError::OutOfDomain { action, var, value } => write!(
                f,
                "action {action} assigned out-of-domain value {value} to variable #{}",
                var.index()
            ),
            CheckError::TooManyStates { limit } => {
                write!(f, "exploration exceeded the state limit of {limit}")
            }
            CheckError::NotCanonical { context } => {
                write!(f, "{context} requires a safety-canonical specification")
            }
            CheckError::NoInitialStates => write!(f, "the system has no initial states"),
            CheckError::Checkpoint(e) => write!(f, "checkpoint error: {e}"),
            CheckError::Precondition { message } => write!(f, "{message}"),
        }
    }
}

impl std::error::Error for CheckError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckError::Eval(e) => Some(e),
            CheckError::Kernel(e) => Some(e),
            CheckError::Semantics(e) => Some(e),
            CheckError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EvalError> for CheckError {
    fn from(e: EvalError) -> Self {
        CheckError::Eval(e)
    }
}

impl From<KernelError> for CheckError {
    fn from(e: KernelError) -> Self {
        CheckError::Kernel(e)
    }
}

impl From<SemanticsError> for CheckError {
    fn from(e: SemanticsError) -> Self {
        CheckError::Semantics(e)
    }
}

impl From<crate::checkpoint::CheckpointError> for CheckError {
    fn from(e: crate::checkpoint::CheckpointError) -> Self {
        CheckError::Checkpoint(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = CheckError::TooManyStates { limit: 10 };
        assert!(e.to_string().contains("10"));
        assert!(std::error::Error::source(&e).is_none());
        let e = CheckError::from(EvalError::EmptySeq { op: "Head" });
        assert!(std::error::Error::source(&e).is_some());
        let e = CheckError::NotCanonical {
            context: "simulation",
        };
        assert!(e.to_string().contains("simulation"));
    }
}
