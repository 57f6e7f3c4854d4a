use crate::{AttrId, Column, DataError, Result, RowSet, Schema, Value};

/// A columnar relational table.
///
/// The table owns one [`Column`] per schema attribute. Discovery code never
/// copies the table; it carries [`RowSet`]s of indices into it.
#[derive(Debug, Clone)]
pub struct Table {
    schema: Schema,
    columns: Vec<Column>,
}

impl Table {
    /// Creates an empty table for `schema`.
    pub fn new(schema: Schema) -> Self {
        let columns = schema.iter().map(|(_, a)| Column::new(a.ty())).collect();
        Table { schema, columns }
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.columns.first().map_or(0, Column::len)
    }

    /// Number of columns.
    pub fn num_cols(&self) -> usize {
        self.columns.len()
    }

    /// Resolves an attribute name to its id.
    pub fn attr(&self, name: &str) -> Result<AttrId> {
        self.schema.attr(name)
    }

    /// Borrows a column.
    pub fn column(&self, id: AttrId) -> &Column {
        &self.columns[id.0]
    }

    /// Appends a row. Cells must match the schema's arity and types
    /// (`Null` is accepted anywhere).
    pub fn push_row(&mut self, row: Vec<Value>) -> Result<()> {
        // Validate all cells before mutating any column so a failed push
        // leaves the table unchanged.
        self.check_row(&row)?;
        self.push_checked(row);
        Ok(())
    }

    /// Appends a batch of rows, all or none: every row is checked as
    /// [`Table::push_row`] checks it before any is pushed, so a failure
    /// leaves the table unchanged.
    pub fn push_rows(&mut self, rows: &[Vec<Value>]) -> Result<()> {
        for row in rows {
            self.check_row(row)?;
        }
        for row in rows {
            self.push_checked(row.clone());
        }
        Ok(())
    }

    /// Checks one row's arity and cell types against the schema.
    fn check_row(&self, row: &[Value]) -> Result<()> {
        if row.len() != self.schema.len() {
            return Err(DataError::ArityMismatch {
                expected: self.schema.len(),
                got: row.len(),
            });
        }
        for (i, v) in row.iter().enumerate() {
            let col_ty = self.columns[i].ty();
            let ok = matches!(
                (col_ty, v),
                (_, Value::Null)
                    | (crate::AttrType::Int, Value::Int(_))
                    | (crate::AttrType::Float, Value::Float(_) | Value::Int(_))
                    | (crate::AttrType::Str, Value::Str(_))
            );
            if !ok {
                return Err(DataError::TypeMismatch {
                    attribute: self.schema.attribute(AttrId(i)).name().to_string(),
                    expected: match col_ty {
                        crate::AttrType::Int => "int",
                        crate::AttrType::Float => "float",
                        crate::AttrType::Str => "str",
                    },
                    got: v.type_name(),
                });
            }
        }
        Ok(())
    }

    /// Pushes a row [`Table::check_row`] accepted.
    fn push_checked(&mut self, row: Vec<Value>) {
        for (col, v) in self.columns.iter_mut().zip(row) {
            let ok = col.push(v);
            debug_assert!(ok, "push validated above");
        }
    }

    /// Reads one cell.
    pub fn value(&self, row: usize, attr: AttrId) -> Value {
        self.columns[attr.0].get(row)
    }

    /// Numeric view of one cell.
    #[inline]
    pub fn value_f64(&self, row: usize, attr: AttrId) -> Option<f64> {
        self.columns[attr.0].get_f64(row)
    }

    /// Overwrites one cell (type-checked by the column).
    pub fn set_value(&mut self, row: usize, attr: AttrId, v: Value) {
        self.columns[attr.0].set(row, v);
    }

    /// Masks one cell as null.
    pub fn set_null(&mut self, row: usize, attr: AttrId) {
        self.columns[attr.0].set_null(row);
    }

    /// Materializes one row as values, in schema order.
    pub fn row(&self, row: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.get(row)).collect()
    }

    /// A [`RowSet`] over every row.
    pub fn all_rows(&self) -> RowSet {
        RowSet::all(self.num_rows())
    }

    /// The numeric values of `attr` at `rows`, skipping nothing: rows whose
    /// cell is null or non-numeric yield an error, because model fitting
    /// must see every selected row.
    pub fn numeric_values(&self, attr: AttrId, rows: &RowSet) -> Result<Vec<f64>> {
        let col = self.column(attr);
        if !col.ty().is_numeric() {
            return Err(DataError::NotNumeric(
                self.schema.attribute(attr).name().to_string(),
            ));
        }
        rows.iter()
            .map(|r| {
                col.get_f64(r).ok_or_else(|| {
                    DataError::Io(format!(
                        "null cell at row {r} of {}",
                        self.schema.attribute(attr).name()
                    ))
                })
            })
            .collect()
    }

    /// Design-matrix rows: for each row in `rows`, the f64 values of
    /// `attrs` in order. Null cells make the row `None` so callers can skip
    /// or fail explicitly.
    pub fn feature_rows(&self, attrs: &[AttrId], rows: &RowSet) -> Vec<Option<Vec<f64>>> {
        rows.iter()
            .map(|r| {
                attrs
                    .iter()
                    .map(|&a| self.value_f64(r, a))
                    .collect::<Option<Vec<f64>>>()
            })
            .collect()
    }

    /// Rows of `rows` where every cell of `attrs ∪ {target}` is present and
    /// numeric — the fit-ready subset.
    pub fn complete_rows(&self, attrs: &[AttrId], target: AttrId, rows: &RowSet) -> RowSet {
        rows.filter(|r| {
            self.value_f64(r, target).is_some()
                && attrs.iter().all(|&a| self.value_f64(r, a).is_some())
        })
    }

    /// Copies the selected rows into a new table (used by scalability
    /// experiments to build size-`|I|` instances).
    #[allow(clippy::expect_used)] // rows come from this table, so the schema matches
    pub fn subset(&self, rows: &RowSet) -> Table {
        let mut out = Table::new(self.schema.clone());
        for r in rows.iter() {
            out.push_row(self.row(r)).expect("same schema");
        }
        out
    }

    /// Total null count across all columns.
    pub fn null_count(&self) -> usize {
        self.columns.iter().map(Column::null_count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AttrType;

    fn bird_table() -> Table {
        let schema = Schema::new(vec![
            ("lat", AttrType::Float),
            ("date", AttrType::Int),
            ("bird", AttrType::Str),
        ]);
        let mut t = Table::new(schema);
        t.push_row(vec![
            Value::Float(56.2),
            Value::Int(218),
            Value::str("maria"),
        ])
        .unwrap();
        t.push_row(vec![
            Value::Float(55.8),
            Value::Int(219),
            Value::str("maria"),
        ])
        .unwrap();
        t.push_row(vec![Value::Null, Value::Int(444), Value::str("raivo")])
            .unwrap();
        t
    }

    #[test]
    fn push_and_read() {
        let t = bird_table();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.value(0, t.attr("lat").unwrap()), Value::Float(56.2));
        assert_eq!(t.value(2, t.attr("bird").unwrap()), Value::str("raivo"));
        assert!(t.value(2, t.attr("lat").unwrap()).is_null());
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut t = bird_table();
        assert!(matches!(
            t.push_row(vec![Value::Int(1)]),
            Err(DataError::ArityMismatch {
                expected: 3,
                got: 1
            })
        ));
        assert_eq!(t.num_rows(), 3);
    }

    #[test]
    fn type_mismatch_rejected_atomically() {
        let mut t = bird_table();
        let r = t.push_row(vec![
            Value::Float(1.0),
            Value::str("not a date"),
            Value::str("x"),
        ]);
        assert!(matches!(r, Err(DataError::TypeMismatch { .. })));
        // Nothing was appended to any column.
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.column(AttrId(0)).len(), 3);
    }

    #[test]
    fn push_rows_is_all_or_nothing() {
        let mut t = bird_table();
        let good = vec![Value::Float(1.0), Value::Int(3), Value::str("x")];
        // A bad last row (arity, then type) keeps the good rows out too.
        for bad in [
            vec![Value::Int(1)],
            vec![Value::Float(1.0), Value::str("not a date"), Value::Null],
        ] {
            assert!(t.push_rows(&[good.clone(), bad]).is_err());
            assert_eq!(t.num_rows(), 3);
            for a in 0..t.num_cols() {
                assert_eq!(t.column(AttrId(a)).len(), 3);
            }
        }
        t.push_rows(&[good.clone(), good]).unwrap();
        assert_eq!(t.num_rows(), 5);
        assert_eq!(t.value(4, t.attr("bird").unwrap()), Value::str("x"));
    }

    #[test]
    fn numeric_values_fail_on_null() {
        let t = bird_table();
        let lat = t.attr("lat").unwrap();
        assert!(t.numeric_values(lat, &t.all_rows()).is_err());
        let present = RowSet::from_indices(vec![0, 1]);
        assert_eq!(t.numeric_values(lat, &present).unwrap(), vec![56.2, 55.8]);
    }

    #[test]
    fn complete_rows_drops_nulls() {
        let t = bird_table();
        let lat = t.attr("lat").unwrap();
        let date = t.attr("date").unwrap();
        let fit = t.complete_rows(&[date], lat, &t.all_rows());
        assert_eq!(fit.as_slice(), &[0, 1]);
    }

    #[test]
    fn subset_copies_rows() {
        let t = bird_table();
        let s = t.subset(&RowSet::from_indices(vec![1]));
        assert_eq!(s.num_rows(), 1);
        assert_eq!(s.value(0, s.attr("date").unwrap()), Value::Int(219));
    }

    #[test]
    fn feature_rows_mark_missing() {
        let t = bird_table();
        let lat = t.attr("lat").unwrap();
        let rows = t.all_rows();
        let feats = t.feature_rows(&[lat], &rows);
        assert_eq!(feats[0], Some(vec![56.2]));
        assert_eq!(feats[2], None);
    }

    #[test]
    fn null_count_spans_columns() {
        let mut t = bird_table();
        assert_eq!(t.null_count(), 1);
        let date = t.attr("date").unwrap();
        t.set_null(1, date);
        assert_eq!(t.null_count(), 2);
    }
}
