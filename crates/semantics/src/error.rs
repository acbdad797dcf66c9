//! Error type for the semantics engine.

use opentla_kernel::EvalError;
use std::fmt;

/// An error raised while evaluating formulas over behaviors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SemanticsError {
    /// A behavior must contain at least one state.
    EmptyBehavior,
    /// The loop start of a lasso must index a stored state.
    BadLoopStart {
        /// Offending loop start.
        loop_start: usize,
        /// Number of stored states.
        len: usize,
    },
    /// Expression evaluation failed.
    Eval(EvalError),
    /// The construct needs a [`crate::Universe`] (to decide `Enabled`,
    /// search `∃` witnesses, or search prefix extensions) but the
    /// evaluation context has none.
    NeedsUniverse {
        /// The construct that needed it, e.g. `"WF"` or `"∃"`.
        construct: &'static str,
    },
    /// A bounded search was requested with an exhausted budget, so the
    /// result would not be trustworthy.
    SearchBudgetExceeded {
        /// The construct whose search overflowed.
        construct: &'static str,
        /// The configured budget that was exceeded.
        budget: usize,
    },
}

impl fmt::Display for SemanticsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SemanticsError::EmptyBehavior => write!(f, "behavior must be nonempty"),
            SemanticsError::BadLoopStart { loop_start, len } => write!(
                f,
                "loop start {loop_start} out of range for {len} stored states"
            ),
            SemanticsError::Eval(e) => write!(f, "{e}"),
            SemanticsError::NeedsUniverse { construct } => write!(
                f,
                "evaluating {construct} requires a finite universe in the context"
            ),
            SemanticsError::SearchBudgetExceeded { construct, budget } => write!(
                f,
                "bounded search for {construct} exceeded its budget of {budget}"
            ),
        }
    }
}

impl std::error::Error for SemanticsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SemanticsError::Eval(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EvalError> for SemanticsError {
    fn from(e: EvalError) -> Self {
        SemanticsError::Eval(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        assert!(SemanticsError::EmptyBehavior
            .to_string()
            .contains("nonempty"));
        let e = SemanticsError::NeedsUniverse { construct: "WF" };
        assert!(e.to_string().contains("WF"));
        let e = SemanticsError::SearchBudgetExceeded {
            construct: "∃",
            budget: 10,
        };
        assert!(e.to_string().contains("10"));
    }
}
