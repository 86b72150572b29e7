//! Error type for the core crate.

use std::fmt;

/// Errors produced by the quantum-network pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// Invalid network configuration (explains which constraint failed).
    InvalidConfig(String),
    /// The input data is unusable (wrong size, all-zero sample, …).
    InvalidData(String),
    /// Forwarded linear-algebra error.
    Linalg(qn_linalg::LinalgError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidConfig(msg) => write!(f, "invalid config: {msg}"),
            CoreError::InvalidData(msg) => write!(f, "invalid data: {msg}"),
            CoreError::Linalg(e) => write!(f, "linear algebra error: {e}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<qn_linalg::LinalgError> for CoreError {
    fn from(e: qn_linalg::LinalgError) -> Self {
        CoreError::Linalg(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversions() {
        let e = CoreError::InvalidConfig("d > N".into());
        assert!(e.to_string().contains("d > N"));
        let e: CoreError = qn_linalg::LinalgError::InvalidArgument("empty".into()).into();
        assert!(matches!(e, CoreError::Linalg(_)));
        let e = CoreError::InvalidData("empty".into());
        assert!(e.to_string().contains("empty"));
    }
}
