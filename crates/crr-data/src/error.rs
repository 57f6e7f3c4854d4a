use std::fmt;

/// Errors from the relational substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataError {
    /// Referenced an attribute that the schema does not contain.
    UnknownAttribute(String),
    /// A row had the wrong number of cells for the schema.
    ArityMismatch {
        /// Cells the schema declares.
        expected: usize,
        /// Cells the row carried.
        got: usize,
    },
    /// A value's type does not match the attribute's declared type.
    TypeMismatch {
        /// Name of the attribute the value was written to.
        attribute: String,
        /// The attribute's declared type.
        expected: &'static str,
        /// The type of the value supplied.
        got: &'static str,
    },
    /// CSV parse failure with row/column context.
    Csv {
        /// 1-based line of the CSV input.
        line: usize,
        /// What was wrong with it.
        message: String,
    },
    /// Underlying I/O failure (message only, to keep the error `Clone`).
    Io(String),
    /// A numeric view was requested of a non-numeric column.
    NotNumeric(String),
    /// A present numeric cell held NaN or ±Inf where a finite value was
    /// required (building a fit snapshot).
    NonFiniteCell {
        /// Row index of the offending cell.
        row: usize,
        /// Name of the offending cell's attribute.
        attribute: String,
    },
    /// A shard spec that cannot be applied to any instance (zero fixed
    /// shards).
    InvalidShardPlan(String),
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::UnknownAttribute(name) => write!(f, "unknown attribute: {name}"),
            DataError::ArityMismatch { expected, got } => {
                write!(
                    f,
                    "row arity mismatch: expected {expected} cells, got {got}"
                )
            }
            DataError::TypeMismatch {
                attribute,
                expected,
                got,
            } => write!(
                f,
                "type mismatch on attribute {attribute}: expected {expected}, got {got}"
            ),
            DataError::Csv { line, message } => {
                write!(f, "csv parse error at line {line}: {message}")
            }
            DataError::Io(msg) => write!(f, "io error: {msg}"),
            DataError::NotNumeric(name) => {
                write!(f, "attribute {name} is not numeric")
            }
            DataError::NonFiniteCell { row, attribute } => {
                write!(f, "non-finite value at row {row}, attribute {attribute}")
            }
            DataError::InvalidShardPlan(msg) => write!(f, "invalid shard plan: {msg}"),
        }
    }
}

impl std::error::Error for DataError {}

impl From<std::io::Error> for DataError {
    fn from(e: std::io::Error) -> Self {
        DataError::Io(e.to_string())
    }
}
