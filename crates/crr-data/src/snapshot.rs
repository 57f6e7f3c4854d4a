//! Columnar numeric snapshot of the attributes one discovery run touches.
//!
//! Algorithm 1 revisits the same `(inputs, target)` columns at every queue
//! pop: share tests, residual scans, and model fits all read the same cells
//! over and over. Extracting those cells through the typed [`Value`]
//! machinery costs an enum dispatch per cell; this snapshot pays that cost
//! exactly once per run, materializing each input and the target as a flat
//! `Vec<f64>` indexed by global row id, plus a *fit-ready* bitmask marking
//! rows where every input and the target are present. After the build,
//! a partition is just a slice of row ids into these buffers.
//!
//! Rows with a missing (null or non-numeric) cell are simply not fit-ready —
//! they stay in partitions for predicate evaluation but contribute nothing
//! to fits, matching `Table::complete_rows`. A *present* cell holding NaN or
//! ±Inf is different: it would poison any fit it touched, so the build
//! rejects it with [`DataError::NonFiniteCell`], naming the first offending
//! `(row, attribute)` in row-major order.
//!
//! [`Value`]: crate::Value

use crate::{AttrId, DataError, Result, RowSet, Table};

/// Column-major `f64` buffers for one discovery run's inputs and target,
/// with a completeness/finiteness bitmask. Built once per run; see the
/// module docs.
#[derive(Debug, Clone)]
pub struct NumericSnapshot {
    /// One buffer per input attribute, each `table.num_rows()` long; cells
    /// outside the snapshot's rows, or missing in them, hold NaN.
    inputs: Vec<Vec<f64>>,
    /// Target buffer, same indexing as `inputs`.
    target: Vec<f64>,
    /// Bit `r` set iff row `r` is fit-ready (all inputs + target present).
    ready: Vec<u64>,
}

impl NumericSnapshot {
    /// Materializes `inputs` and `target` over `rows` of `table`.
    ///
    /// Fails with [`DataError::NonFiniteCell`] if any otherwise-complete row
    /// in `rows` holds a non-finite numeric cell in these attributes.
    pub fn build(
        table: &Table,
        inputs: &[AttrId],
        target: AttrId,
        rows: &RowSet,
    ) -> Result<NumericSnapshot> {
        let n = table.num_rows();
        let mut snap = NumericSnapshot {
            inputs: vec![vec![f64::NAN; n]; inputs.len()],
            target: vec![f64::NAN; n],
            ready: vec![0u64; n.div_ceil(64)],
        };
        let mut cells: Vec<Option<f64>> = vec![None; inputs.len() + 1];
        for r in rows.iter() {
            for (slot, &a) in cells.iter_mut().zip(inputs) {
                *slot = table.value_f64(r, a);
            }
            cells[inputs.len()] = table.value_f64(r, target);
            if cells.iter().any(Option::is_none) {
                continue; // incomplete: not fit-ready, matching complete_rows
            }
            // Complete rows must be finite end to end; report the first
            // offender in attribute order (inputs, then target).
            for (i, v) in cells.iter().enumerate() {
                let v = v.unwrap_or(f64::NAN);
                if !v.is_finite() {
                    let attr = if i < inputs.len() { inputs[i] } else { target };
                    return Err(DataError::NonFiniteCell {
                        row: r,
                        attribute: table.schema().attribute(attr).name().to_string(),
                    });
                }
                if i < inputs.len() {
                    snap.inputs[i][r] = v;
                } else {
                    snap.target[r] = v;
                }
            }
            snap.ready[r / 64] |= 1u64 << (r % 64);
        }
        Ok(snap)
    }

    /// Whether [`NumericSnapshot::build`] accepts `row` of `table`: a row
    /// missing any of these cells passes (it is just not fit-ready), and a
    /// complete row passes only if every cell is finite.
    pub fn accepts(table: &Table, inputs: &[AttrId], target: AttrId, row: usize) -> bool {
        let mut finite = true;
        for &a in inputs.iter().chain([&target]) {
            match table.value_f64(row, a) {
                None => return true,
                Some(v) => finite &= v.is_finite(),
            }
        }
        finite
    }

    /// Number of input columns.
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// The `j`-th input buffer, indexed by global row id.
    #[inline]
    pub fn input(&self, j: usize) -> &[f64] {
        &self.inputs[j]
    }

    /// The target buffer, indexed by global row id.
    #[inline]
    pub fn target(&self) -> &[f64] {
        &self.target
    }

    /// True when every input and the target are present and finite at `row`.
    #[inline]
    pub fn is_ready(&self, row: usize) -> bool {
        self.ready
            .get(row / 64)
            .is_some_and(|w| w & (1u64 << (row % 64)) != 0)
    }

    /// The fit-ready subset of `rows`, in ascending order — the snapshot
    /// equivalent of `Table::complete_rows`.
    pub fn ready_rows(&self, rows: &RowSet) -> Vec<u32> {
        rows.as_slice()
            .iter()
            .copied()
            .filter(|&r| self.is_ready(r as usize))
            .collect()
    }

    /// Copies row `row`'s input cells into `out` (`out.len() == num_inputs`).
    #[inline]
    pub fn gather_x(&self, row: usize, out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.inputs.len());
        for (o, col) in out.iter_mut().zip(&self.inputs) {
            *o = col[row];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AttrType, Schema, Value};

    fn table() -> Table {
        let schema = Schema::new(vec![
            ("x", AttrType::Float),
            ("y", AttrType::Float),
            ("s", AttrType::Str),
        ]);
        let mut t = Table::new(schema);
        for i in 0..10 {
            t.push_row(vec![
                Value::Float(i as f64),
                Value::Float(2.0 * i as f64),
                Value::str("a"),
            ])
            .unwrap();
        }
        t
    }

    #[test]
    fn clean_table_is_fully_ready() {
        let t = table();
        let (x, y) = (t.attr("x").unwrap(), t.attr("y").unwrap());
        let snap = NumericSnapshot::build(&t, &[x], y, &t.all_rows()).unwrap();
        assert_eq!(snap.num_inputs(), 1);
        assert_eq!(snap.ready_rows(&t.all_rows()).len(), 10);
        assert_eq!(snap.input(0)[3], 3.0);
        assert_eq!(snap.target()[3], 6.0);
        let mut buf = [0.0];
        snap.gather_x(7, &mut buf);
        assert_eq!(buf[0], 7.0);
    }

    #[test]
    fn null_cells_drop_rows_from_readiness_without_error() {
        let mut t = table();
        let (x, y) = (t.attr("x").unwrap(), t.attr("y").unwrap());
        t.set_null(2, x);
        t.set_null(5, y);
        let snap = NumericSnapshot::build(&t, &[x], y, &t.all_rows()).unwrap();
        assert!(!snap.is_ready(2));
        assert!(!snap.is_ready(5));
        assert_eq!(snap.ready_rows(&t.all_rows()).len(), 8);
        // The buffers mark the holes as NaN.
        assert!(snap.input(0)[2].is_nan());
        assert!(snap.target()[5].is_nan());
    }

    #[test]
    fn non_finite_present_cell_is_a_typed_error() {
        let mut t = table();
        let (x, y) = (t.attr("x").unwrap(), t.attr("y").unwrap());
        t.set_value(4, x, Value::Float(f64::INFINITY));
        match NumericSnapshot::build(&t, &[x], y, &t.all_rows()) {
            Err(DataError::NonFiniteCell { row: 4, attribute }) => assert_eq!(attribute, "x"),
            other => panic!("expected NonFiniteCell, got {other:?}"),
        }
    }

    #[test]
    fn non_finite_in_an_incomplete_row_is_skipped_not_reported() {
        // Matches the pre-snapshot extraction order: rows filtered out by
        // completeness were never finiteness-checked.
        let mut t = table();
        let (x, y) = (t.attr("x").unwrap(), t.attr("y").unwrap());
        t.set_value(4, x, Value::Float(f64::NAN));
        t.set_null(4, y);
        let snap = NumericSnapshot::build(&t, &[x], y, &t.all_rows()).unwrap();
        assert!(!snap.is_ready(4));
    }

    #[test]
    fn accepts_names_exactly_the_rows_build_accepts() {
        let mut t = table();
        let (x, y) = (t.attr("x").unwrap(), t.attr("y").unwrap());
        t.set_value(1, x, Value::Float(f64::NAN));
        t.set_value(2, y, Value::Float(f64::NEG_INFINITY));
        t.set_value(3, x, Value::Float(f64::INFINITY));
        t.set_null(3, y);
        t.set_null(4, x);
        t.set_value(4, y, Value::Float(f64::NAN));
        for r in 0..t.num_rows() {
            let one = RowSet::from_indices(vec![r as u32]);
            let built = NumericSnapshot::build(&t, &[x], y, &one).is_ok();
            assert_eq!(NumericSnapshot::accepts(&t, &[x], y, r), built, "row {r}");
            assert_eq!(built, ![1, 2].contains(&r), "row {r}");
        }
    }

    #[test]
    fn string_input_means_no_row_is_ready() {
        let t = table();
        let (s, y) = (t.attr("s").unwrap(), t.attr("y").unwrap());
        let snap = NumericSnapshot::build(&t, &[s], y, &t.all_rows()).unwrap();
        assert!(snap.ready_rows(&t.all_rows()).is_empty());
    }

    #[test]
    fn rows_outside_the_snapshot_are_not_ready() {
        let t = table();
        let (x, y) = (t.attr("x").unwrap(), t.attr("y").unwrap());
        let some = RowSet::from_indices(vec![1, 3, 8]);
        let snap = NumericSnapshot::build(&t, &[x], y, &some).unwrap();
        assert!(snap.is_ready(3));
        assert!(!snap.is_ready(2));
        assert_eq!(snap.ready_rows(&t.all_rows()), vec![1, 3, 8]);
    }
}
