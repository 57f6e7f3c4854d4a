use std::fmt;

/// Errors produced by factorizations and solvers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// Operand shapes are incompatible for the requested operation.
    ShapeMismatch {
        /// What the caller tried to do, e.g. `"matmul"`.
        op: &'static str,
        /// Shape of the left operand.
        lhs: (usize, usize),
        /// Shape of the right operand.
        rhs: (usize, usize),
    },
    /// The matrix is singular (or numerically indistinguishable from
    /// singular) so the factorization or solve cannot proceed.
    Singular,
    /// Cholesky requires a (numerically) positive-definite input.
    NotPositiveDefinite,
    /// The operation requires a square matrix.
    NotSquare {
        /// Rows of the operand.
        rows: usize,
        /// Columns of the operand.
        cols: usize,
    },
    /// The system is under-determined: fewer rows than columns.
    Underdetermined {
        /// Rows (equations) of the system.
        rows: usize,
        /// Columns (unknowns) of the system.
        cols: usize,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::ShapeMismatch { op, lhs, rhs } => write!(
                f,
                "shape mismatch in {op}: left is {}x{}, right is {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            LinalgError::Singular => write!(f, "matrix is singular"),
            LinalgError::NotPositiveDefinite => {
                write!(f, "matrix is not positive definite")
            }
            LinalgError::NotSquare { rows, cols } => {
                write!(f, "matrix is not square: {rows}x{cols}")
            }
            LinalgError::Underdetermined { rows, cols } => {
                write!(f, "system is under-determined: {rows} rows, {cols} columns")
            }
        }
    }
}

impl std::error::Error for LinalgError {}
