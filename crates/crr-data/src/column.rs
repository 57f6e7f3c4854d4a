use crate::{AttrType, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// Type-specific columnar storage.
///
/// Strings are dictionary-encoded: categorical attributes in the paper's
/// datasets (bird id, US state, abalone sex) have tiny domains, so storing
/// `u32` codes plus one dictionary keeps the 2M-row Electricity-scale tables
/// compact and makes equality predicates a code comparison.
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// Plain integers.
    Int(Vec<i64>),
    /// Plain floats.
    Float(Vec<f64>),
    /// Dictionary codes into `dict`.
    Str {
        /// One dictionary code per row.
        codes: Vec<u32>,
        /// Distinct strings, indexed by code.
        dict: Vec<Arc<str>>,
        /// Reverse lookup from string to its code in `dict`.
        index: HashMap<Arc<str>, u32>,
    },
}

/// One column of a table: typed data plus an optional null mask.
///
/// The mask is allocated lazily — fully-observed columns (the common case
/// outside the imputation experiments) pay nothing for null support.
#[derive(Debug, Clone)]
pub struct Column {
    data: ColumnData,
    /// `Some(mask)` where `mask[i] == true` marks row `i` as null.
    nulls: Option<Vec<bool>>,
}

impl Column {
    /// Creates an empty column of the given type.
    pub fn new(ty: AttrType) -> Self {
        let data = match ty {
            AttrType::Int => ColumnData::Int(Vec::new()),
            AttrType::Float => ColumnData::Float(Vec::new()),
            AttrType::Str => ColumnData::Str {
                codes: Vec::new(),
                dict: Vec::new(),
                index: HashMap::new(),
            },
        };
        Column { data, nulls: None }
    }

    /// Declared type of the column.
    pub fn ty(&self) -> AttrType {
        match &self.data {
            ColumnData::Int(_) => AttrType::Int,
            ColumnData::Float(_) => AttrType::Float,
            ColumnData::Str { .. } => AttrType::Str,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match &self.data {
            ColumnData::Int(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Str { codes, .. } => codes.len(),
        }
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when row `i` holds a null.
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        self.nulls.as_ref().is_some_and(|mask| mask[i])
    }

    /// Reads row `i` as a [`Value`].
    pub fn get(&self, i: usize) -> Value {
        if self.is_null(i) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Int(v) => Value::Int(v[i]),
            ColumnData::Float(v) => Value::Float(v[i]),
            ColumnData::Str { codes, dict, .. } => Value::Str(dict[codes[i] as usize].clone()),
        }
    }

    /// Numeric view of row `i`; `None` for nulls and strings.
    #[inline]
    pub fn get_f64(&self, i: usize) -> Option<f64> {
        if self.is_null(i) {
            return None;
        }
        match &self.data {
            ColumnData::Int(v) => Some(v[i] as f64),
            ColumnData::Float(v) => Some(v[i]),
            ColumnData::Str { .. } => None,
        }
    }

    /// Dictionary code of row `i` for string columns; `None` otherwise.
    #[inline]
    pub fn get_code(&self, i: usize) -> Option<u32> {
        if self.is_null(i) {
            return None;
        }
        match &self.data {
            ColumnData::Str { codes, .. } => Some(codes[i]),
            _ => None,
        }
    }

    /// Looks up the dictionary code an equality predicate's constant would
    /// need; `None` when the constant never occurs in this column.
    pub fn code_of(&self, s: &str) -> Option<u32> {
        match &self.data {
            ColumnData::Str { index, .. } => index.get(s).copied(),
            _ => None,
        }
    }

    /// Appends one value. Type mismatches append `Null` and report `false`;
    /// the table layer turns that into a typed error.
    pub fn push(&mut self, v: Value) -> bool {
        match (&mut self.data, v) {
            (_, Value::Null) => {
                self.push_null();
                return true;
            }
            (ColumnData::Int(col), Value::Int(x)) => col.push(x),
            // Ints widen into float columns (CSV inference may see "1" then "1.5").
            (ColumnData::Float(col), Value::Int(x)) => col.push(x as f64),
            (ColumnData::Float(col), Value::Float(x)) => col.push(x),
            (ColumnData::Str { codes, dict, index }, Value::Str(s)) => {
                let code = *index.entry(s.clone()).or_insert_with(|| {
                    dict.push(s);
                    (dict.len() - 1) as u32
                });
                codes.push(code);
            }
            (_, v) => {
                // Keep lengths consistent even on error.
                drop(v);
                self.push_null();
                return false;
            }
        }
        if let Some(mask) = &mut self.nulls {
            mask.push(false);
        }
        true
    }

    /// Appends a null.
    pub fn push_null(&mut self) {
        let len = self.len();
        let mask = self.nulls.get_or_insert_with(|| vec![false; len]);
        mask.push(true);
        match &mut self.data {
            ColumnData::Int(v) => v.push(0),
            ColumnData::Float(v) => v.push(0.0),
            ColumnData::Str { codes, .. } => codes.push(u32::MAX),
        }
    }

    /// Overwrites row `i` with a null (used to mask values for imputation).
    pub fn set_null(&mut self, i: usize) {
        let len = self.len();
        let mask = self.nulls.get_or_insert_with(|| vec![false; len]);
        mask[i] = true;
    }

    /// Overwrites row `i` with a value of the column's own type.
    ///
    /// # Panics
    ///
    /// Panics on type mismatch; callers route through the table layer which
    /// validates types.
    pub fn set(&mut self, i: usize, v: Value) {
        if let Value::Null = v {
            self.set_null(i);
            return;
        }
        if let Some(mask) = &mut self.nulls {
            mask[i] = false;
        }
        match (&mut self.data, v) {
            (ColumnData::Int(col), Value::Int(x)) => col[i] = x,
            (ColumnData::Float(col), Value::Float(x)) => col[i] = x,
            (ColumnData::Float(col), Value::Int(x)) => col[i] = x as f64,
            (ColumnData::Str { codes, dict, index }, Value::Str(s)) => {
                let code = *index.entry(s.clone()).or_insert_with(|| {
                    dict.push(s);
                    (dict.len() - 1) as u32
                });
                codes[i] = code;
            }
            (_, v) => panic!(
                "type mismatch in Column::set: column {:?} <- {}",
                self.ty(),
                v.type_name()
            ),
        }
    }

    /// Three-way comparison of row `i` against a numeric constant, without
    /// materializing a [`Value`] — the predicate-evaluation fast path.
    /// `None` for nulls and non-numeric columns.
    #[inline]
    pub fn cmp_f64(&self, i: usize, c: f64) -> Option<std::cmp::Ordering> {
        if self.is_null(i) {
            return None;
        }
        match &self.data {
            ColumnData::Int(v) => (v[i] as f64).partial_cmp(&c),
            ColumnData::Float(v) => v[i].partial_cmp(&c),
            ColumnData::Str { .. } => None,
        }
    }

    /// Three-way comparison of row `i` against a string constant, without
    /// cloning the interned string. `None` for nulls and numeric columns.
    #[inline]
    pub fn cmp_str(&self, i: usize, s: &str) -> Option<std::cmp::Ordering> {
        if self.is_null(i) {
            return None;
        }
        match &self.data {
            ColumnData::Str { codes, dict, .. } => Some(dict[codes[i] as usize].as_ref().cmp(s)),
            _ => None,
        }
    }

    /// Number of nulls in the column.
    pub fn null_count(&self) -> usize {
        self.nulls
            .as_ref()
            .map_or(0, |m| m.iter().filter(|&&b| b).count())
    }

    /// Borrow of the raw data enum, for type-specialized scans.
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// Borrow of the null mask, when one exists. `None` means the column is
    /// fully observed — a compiled kernel can skip the null lane entirely.
    #[inline]
    pub fn null_mask(&self) -> Option<&[bool]> {
        self.nulls.as_deref()
    }

    /// Dictionary of a string column, in code order.
    pub fn dict(&self) -> Option<&[Arc<str>]> {
        match &self.data {
            ColumnData::Str { dict, .. } => Some(dict),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_column_roundtrip() {
        let mut c = Column::new(AttrType::Int);
        assert!(c.push(Value::Int(5)));
        assert!(c.push(Value::Int(-2)));
        assert_eq!(c.get(0), Value::Int(5));
        assert_eq!(c.get_f64(1), Some(-2.0));
        assert_eq!(c.null_count(), 0);
    }

    #[test]
    fn float_column_widens_ints() {
        let mut c = Column::new(AttrType::Float);
        assert!(c.push(Value::Int(1)));
        assert!(c.push(Value::Float(1.5)));
        assert_eq!(c.get(0), Value::Float(1.0));
    }

    #[test]
    fn str_column_dictionary_encodes() {
        let mut c = Column::new(AttrType::Str);
        c.push(Value::str("IA"));
        c.push(Value::str("NY"));
        c.push(Value::str("IA"));
        assert_eq!(c.get_code(0), c.get_code(2));
        assert_ne!(c.get_code(0), c.get_code(1));
        assert_eq!(c.dict().unwrap().len(), 2);
        assert_eq!(c.code_of("NY"), Some(1));
        assert_eq!(c.code_of("TX"), None);
    }

    #[test]
    fn nulls_are_lazy_and_tracked() {
        let mut c = Column::new(AttrType::Float);
        c.push(Value::Float(1.0));
        assert_eq!(c.null_count(), 0);
        c.push_null();
        c.push(Value::Float(2.0));
        assert_eq!(c.len(), 3);
        assert!(c.get(1).is_null());
        assert_eq!(c.get_f64(1), None);
        assert_eq!(c.get_f64(2), Some(2.0));
        assert_eq!(c.null_count(), 1);
    }

    #[test]
    fn set_null_then_set_value() {
        let mut c = Column::new(AttrType::Int);
        c.push(Value::Int(7));
        c.set_null(0);
        assert!(c.get(0).is_null());
        c.set(0, Value::Int(9));
        assert_eq!(c.get(0), Value::Int(9));
    }

    #[test]
    fn cmp_fast_paths_match_value_semantics() {
        use std::cmp::Ordering;
        let mut ints = Column::new(AttrType::Int);
        ints.push(Value::Int(5));
        ints.push_null();
        assert_eq!(ints.cmp_f64(0, 4.5), Some(Ordering::Greater));
        assert_eq!(ints.cmp_f64(0, 5.0), Some(Ordering::Equal));
        assert_eq!(ints.cmp_f64(1, 0.0), None); // null
        assert_eq!(ints.cmp_str(0, "5"), None); // cross-kind

        let mut strs = Column::new(AttrType::Str);
        strs.push(Value::str("IA"));
        assert_eq!(strs.cmp_str(0, "IA"), Some(Ordering::Equal));
        assert_eq!(strs.cmp_str(0, "NY"), Some(Ordering::Less));
        assert_eq!(strs.cmp_f64(0, 1.0), None);
    }

    #[test]
    fn type_mismatch_reports_false() {
        let mut c = Column::new(AttrType::Int);
        assert!(!c.push(Value::str("oops")));
        // Length stays consistent; the bad cell reads as null.
        assert_eq!(c.len(), 1);
        assert!(c.get(0).is_null());
    }
}
