//! Error type shared by all linear-algebra routines.

use std::fmt;

/// Errors produced by the dense linear-algebra routines.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// Operand shapes are incompatible (e.g. `A * B` with mismatched inner
    /// dimensions). Carries a human-readable description of the mismatch.
    ShapeMismatch(String),
    /// An iterative algorithm failed to converge within its sweep budget.
    NoConvergence {
        /// Name of the algorithm that failed.
        algorithm: &'static str,
        /// Number of sweeps/iterations performed before giving up.
        iterations: usize,
    },
    /// An argument was outside its valid domain (e.g. empty matrix where a
    /// non-empty one is required).
    InvalidArgument(String),
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::ShapeMismatch(msg) => write!(f, "shape mismatch: {msg}"),
            LinalgError::NoConvergence {
                algorithm,
                iterations,
            } => write!(
                f,
                "{algorithm} did not converge after {iterations} iterations"
            ),
            LinalgError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
        }
    }
}

impl std::error::Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_readable() {
        let e = LinalgError::ShapeMismatch("2x3 * 4x5".into());
        assert!(e.to_string().contains("2x3 * 4x5"));
        let e = LinalgError::NoConvergence {
            algorithm: "jacobi-svd",
            iterations: 60,
        };
        assert!(e.to_string().contains("jacobi-svd"));
        assert!(e.to_string().contains("60"));
        let e = LinalgError::InvalidArgument("empty".into());
        assert!(e.to_string().contains("empty"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(
            LinalgError::InvalidArgument("x".into()),
            LinalgError::InvalidArgument("x".into())
        );
        assert_ne!(
            LinalgError::ShapeMismatch("x".into()),
            LinalgError::InvalidArgument("x".into())
        );
    }
}
