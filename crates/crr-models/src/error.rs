use std::fmt;

/// Errors from model fitting.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// Not enough samples for the requested model class.
    TooFewSamples {
        /// Samples the model class needs.
        needed: usize,
        /// Samples supplied.
        got: usize,
    },
    /// Feature vectors had inconsistent lengths.
    InconsistentFeatures {
        /// Length of the first feature vector.
        expected: usize,
        /// Length of the offending one.
        got: usize,
    },
    /// Feature and target counts differ.
    LengthMismatch {
        /// Feature vectors supplied.
        features: usize,
        /// Target values supplied.
        targets: usize,
    },
    /// The underlying solver failed (singular design, etc.).
    Solver(String),
    /// Inputs contained non-finite values.
    NonFinite,
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::TooFewSamples { needed, got } => {
                write!(f, "too few samples: model needs {needed}, got {got}")
            }
            ModelError::InconsistentFeatures { expected, got } => {
                write!(
                    f,
                    "inconsistent feature vector length: expected {expected}, got {got}"
                )
            }
            ModelError::LengthMismatch { features, targets } => {
                write!(
                    f,
                    "feature rows ({features}) and targets ({targets}) differ in count"
                )
            }
            ModelError::Solver(msg) => write!(f, "solver failure: {msg}"),
            ModelError::NonFinite => write!(f, "inputs contain non-finite values"),
        }
    }
}

impl std::error::Error for ModelError {}

impl From<crr_linalg::LinalgError> for ModelError {
    fn from(e: crr_linalg::LinalgError) -> Self {
        ModelError::Solver(e.to_string())
    }
}
