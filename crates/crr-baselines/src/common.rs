use crr_data::{AttrId, RowSet, Table};
use std::fmt;
use std::time::{Duration, Instant};

/// Errors from baseline fitting.
#[derive(Debug, Clone, PartialEq)]
pub enum BaselineError {
    /// Not enough rows for the method's minimum.
    TooFewRows {
        /// Rows the method needs.
        needed: usize,
        /// Rows supplied.
        got: usize,
    },
    /// Required attribute missing or of the wrong type.
    BadAttribute(String),
    /// Underlying model fit failed.
    Model(crr_models::ModelError),
    /// Underlying rule construction failed (tree export).
    Core(crr_core::CoreError),
}

impl fmt::Display for BaselineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BaselineError::TooFewRows { needed, got } => {
                write!(f, "too few rows: needed {needed}, got {got}")
            }
            BaselineError::BadAttribute(msg) => write!(f, "bad attribute: {msg}"),
            BaselineError::Model(e) => write!(f, "model error: {e}"),
            BaselineError::Core(e) => write!(f, "rule error: {e}"),
        }
    }
}

impl std::error::Error for BaselineError {}

impl From<crr_models::ModelError> for BaselineError {
    fn from(e: crr_models::ModelError) -> Self {
        BaselineError::Model(e)
    }
}

impl From<crr_core::CoreError> for BaselineError {
    fn from(e: crr_core::CoreError) -> Self {
        BaselineError::Core(e)
    }
}

/// A fitted baseline: predicts per row and reports its rule count — the
/// uniform surface the Figures 2–4 panels are measured through.
pub trait BaselinePredictor {
    /// Method label as used in the paper's legends.
    fn name(&self) -> &'static str;

    /// Predicts the target for one row; `None` when inputs are missing or
    /// the method cannot answer for this row.
    fn predict_row(&self, table: &Table, row: usize) -> Option<f64>;

    /// Number of "rules" (models/leaves/segments) the fitted method holds —
    /// the #Rules axis of Figures 2–4(c) and 9.
    fn num_rules(&self) -> usize;
}

/// RMSE / MAE / coverage / timing of one fitted baseline over `rows`.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalSummary {
    /// Root-mean-square error over answered rows.
    pub rmse: f64,
    /// Mean absolute error over answered rows.
    pub mae: f64,
    /// Rows the method answered.
    pub answered: usize,
    /// Rows offered.
    pub total: usize,
    /// Wall-clock evaluation time.
    pub eval_time: Duration,
}

/// Evaluates a fitted baseline against the true target values.
pub fn evaluate_predictor(
    p: &dyn BaselinePredictor,
    table: &Table,
    rows: &RowSet,
    target: AttrId,
) -> EvalSummary {
    let start = Instant::now();
    let mut sse = 0.0;
    let mut sae = 0.0;
    let mut answered = 0usize;
    for row in rows.iter() {
        let (Some(pred), Some(actual)) = (p.predict_row(table, row), table.value_f64(row, target))
        else {
            continue;
        };
        answered += 1;
        let e = pred - actual;
        sse += e * e;
        sae += e.abs();
    }
    EvalSummary {
        rmse: if answered > 0 {
            (sse / answered as f64).sqrt()
        } else {
            0.0
        },
        mae: if answered > 0 {
            sae / answered as f64
        } else {
            0.0
        },
        answered,
        total: rows.len(),
        eval_time: start.elapsed(),
    }
}

/// Gathers `(xs, y)` fit pairs for `rows` with complete inputs + target.
#[allow(clippy::expect_used)] // rows are pre-filtered by complete_rows
pub(crate) fn fit_pairs(
    table: &Table,
    rows: &RowSet,
    inputs: &[AttrId],
    target: AttrId,
) -> (Vec<Vec<f64>>, Vec<f64>) {
    let complete = table.complete_rows(inputs, target, rows);
    let xs = complete
        .iter()
        .map(|r| {
            inputs
                .iter()
                .map(|&a| table.value_f64(r, a).expect("complete"))
                .collect()
        })
        .collect();
    let y = complete
        .iter()
        .map(|r| table.value_f64(r, target).expect("complete"))
        .collect();
    (xs, y)
}

/// Reads one row's feature vector, if complete.
pub(crate) fn row_features(table: &Table, row: usize, inputs: &[AttrId]) -> Option<Vec<f64>> {
    inputs.iter().map(|&a| table.value_f64(row, a)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crr_data::{AttrType, Schema, Value};

    struct Always(f64);
    impl BaselinePredictor for Always {
        fn name(&self) -> &'static str {
            "const"
        }
        fn predict_row(&self, _: &Table, _: usize) -> Option<f64> {
            Some(self.0)
        }
        fn num_rules(&self) -> usize {
            1
        }
    }

    #[test]
    fn evaluate_computes_rmse_mae() {
        let schema = Schema::new(vec![("y", AttrType::Float)]);
        let mut t = Table::new(schema);
        for v in [1.0, 3.0] {
            t.push_row(vec![Value::Float(v)]).unwrap();
        }
        let s = evaluate_predictor(&Always(2.0), &t, &t.all_rows(), t.attr("y").unwrap());
        assert_eq!(s.answered, 2);
        assert_eq!(s.rmse, 1.0);
        assert_eq!(s.mae, 1.0);
    }

    #[test]
    fn missing_targets_are_skipped() {
        let schema = Schema::new(vec![("y", AttrType::Float)]);
        let mut t = Table::new(schema);
        t.push_row(vec![Value::Float(1.0)]).unwrap();
        t.push_row(vec![Value::Null]).unwrap();
        let s = evaluate_predictor(&Always(1.0), &t, &t.all_rows(), t.attr("y").unwrap());
        assert_eq!(s.answered, 1);
        assert_eq!(s.total, 2);
    }
}
