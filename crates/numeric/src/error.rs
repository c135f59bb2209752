//! Error type shared by all numeric routines.

use core::fmt;

/// Errors produced by the numeric kernels.
///
/// # Examples
///
/// ```
/// use rlckit_numeric::{dense::solve2, NumericError};
///
/// match solve2([[1.0, 2.0], [2.0, 4.0]], [1.0, 1.0]) {
///     Err(NumericError::SingularMatrix { pivot }) => assert!(pivot < 2),
///     other => panic!("expected singular matrix, got {other:?}"),
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum NumericError {
    /// A (near-)zero pivot was encountered during factorization.
    SingularMatrix {
        /// Index of the elimination step at which the pivot vanished.
        pivot: usize,
    },
    /// An iterative method exhausted its iteration budget.
    NoConvergence {
        /// The iteration budget that was exhausted.
        iterations: usize,
        /// Residual magnitude at the last iterate.
        residual: f64,
    },
    /// A root bracket `[a, b]` did not actually bracket a sign change.
    InvalidBracket {
        /// Lower end of the offending bracket.
        lo: f64,
        /// Upper end of the offending bracket.
        hi: f64,
    },
    /// An argument was outside the routine's domain.
    InvalidInput(String),
    /// Dimensions of the operands do not agree.
    DimensionMismatch {
        /// Dimension expected by the routine.
        expected: usize,
        /// Dimension that was provided.
        actual: usize,
    },
    /// A residual or iterate lost finiteness mid-solve.
    NonFiniteResidual {
        /// The iterate (for systems: its infinity norm) where
        /// finiteness was lost.
        at: f64,
        /// Iteration at which it happened.
        iteration: usize,
    },
    /// A deterministic fault-injection site fired (`rlckit-fault`,
    /// armed via `RLCKIT_FAULTS`). Never produced in production runs.
    InjectedFault {
        /// The faultpoint site that fired.
        site: &'static str,
    },
}

/// Coarse classification of a [`NumericError`], used by retry ladders
/// to decide whether a perturbed restart can plausibly help.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureClass {
    /// An iteration/evaluation budget ran out ([`NumericError::NoConvergence`]).
    IterationBudget,
    /// A bracket was invalid or its expansion exhausted
    /// ([`NumericError::InvalidBracket`]).
    BracketExhausted,
    /// A residual or iterate lost finiteness
    /// ([`NumericError::NonFiniteResidual`]).
    NonFiniteResidual,
    /// A fault-injection site fired ([`NumericError::InjectedFault`]).
    InjectedFault,
    /// A linear solve met a vanishing pivot
    /// ([`NumericError::SingularMatrix`]).
    Singular,
    /// The inputs were outside the routine's domain
    /// ([`NumericError::InvalidInput`], [`NumericError::DimensionMismatch`]).
    InvalidInput,
}

impl NumericError {
    /// The coarse [`FailureClass`] of this error.
    #[must_use]
    pub fn class(&self) -> FailureClass {
        match self {
            Self::NoConvergence { .. } => FailureClass::IterationBudget,
            Self::InvalidBracket { .. } => FailureClass::BracketExhausted,
            Self::NonFiniteResidual { .. } => FailureClass::NonFiniteResidual,
            Self::InjectedFault { .. } => FailureClass::InjectedFault,
            Self::SingularMatrix { .. } => FailureClass::Singular,
            Self::InvalidInput(_) | Self::DimensionMismatch { .. } => FailureClass::InvalidInput,
        }
    }

    /// Whether this failure came from an injected fault.
    #[must_use]
    pub fn is_injected(&self) -> bool {
        self.class() == FailureClass::InjectedFault
    }

    /// Whether a retry — same problem, perturbed starting point — could
    /// plausibly succeed. Domain errors ([`FailureClass::InvalidInput`])
    /// are deterministic rejections and never retried.
    #[must_use]
    pub fn is_retryable(&self) -> bool {
        !matches!(self.class(), FailureClass::InvalidInput)
    }
}

impl fmt::Display for NumericError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::SingularMatrix { pivot } => {
                write!(f, "matrix is singular at elimination step {pivot}")
            }
            Self::NoConvergence {
                iterations,
                residual,
            } => write!(
                f,
                "no convergence after {iterations} iterations (residual {residual:.3e})"
            ),
            Self::InvalidBracket { lo, hi } => {
                write!(f, "interval [{lo:.6e}, {hi:.6e}] does not bracket a root")
            }
            Self::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
            Self::DimensionMismatch { expected, actual } => {
                write!(f, "dimension mismatch: expected {expected}, got {actual}")
            }
            Self::NonFiniteResidual { at, iteration } => write!(
                f,
                "residual became non-finite at iterate {at:.6e} (iteration {iteration})"
            ),
            Self::InjectedFault { site } => {
                write!(f, "injected fault at site {site}")
            }
        }
    }
}

impl std::error::Error for NumericError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = NumericError::NoConvergence {
            iterations: 50,
            residual: 1e-3,
        };
        let msg = format!("{e}");
        assert!(msg.starts_with("no convergence"));
        assert!(msg.contains("50"));

        let e = NumericError::DimensionMismatch {
            expected: 3,
            actual: 2,
        };
        assert_eq!(format!("{e}"), "dimension mismatch: expected 3, got 2");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NumericError>();
    }

    #[test]
    fn classification_and_retryability() {
        let budget = NumericError::NoConvergence {
            iterations: 10,
            residual: 1e-3,
        };
        assert_eq!(budget.class(), FailureClass::IterationBudget);
        assert!(budget.is_retryable());
        assert!(!budget.is_injected());

        let bracket = NumericError::InvalidBracket { lo: 0.0, hi: 1.0 };
        assert_eq!(bracket.class(), FailureClass::BracketExhausted);
        assert!(bracket.is_retryable());

        let nonfinite = NumericError::NonFiniteResidual {
            at: 2.0,
            iteration: 3,
        };
        assert_eq!(nonfinite.class(), FailureClass::NonFiniteResidual);
        assert!(nonfinite.is_retryable());
        assert!(format!("{nonfinite}").contains("non-finite"));

        let injected = NumericError::InjectedFault { site: "roots.test" };
        assert!(injected.is_injected());
        assert!(injected.is_retryable());
        assert_eq!(format!("{injected}"), "injected fault at site roots.test");

        let domain = NumericError::InvalidInput("bad".into());
        assert_eq!(domain.class(), FailureClass::InvalidInput);
        assert!(!domain.is_retryable());
    }
}
