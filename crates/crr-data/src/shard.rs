//! Shards: disjoint row ranges of an instance, cut on a numeric key
//! ahead of per-shard CRR discovery.
//!
//! [`crate::ShardSpec::plan`] resolves a spec into ascending cut points and
//! hands them to `cut_into_shards`, which returns [`Shard`]s — disjoint
//! [`RowSet`]s whose union is exactly the input rows. Each shard carries
//! its [`ShardBounds`] (the half-open key interval it was cut on, or the
//! null-key marker), which downstream layers turn into guard predicates so
//! per-shard rules stay sound after cross-shard merging. Rows whose shard
//! key is null cannot satisfy any interval and land in a trailing shard of
//! their own, flagged `null_keys` so it can be guarded with `key IS NULL`.
//! Non-finite keys (NaN, ±Inf) are rejected outright: ±Inf would satisfy
//! other shards' interval guards, so no guard assignment keeps them sound.

use crate::{AttrId, DataError, Result, RowSet, Table};

/// The half-open key interval `[lo, hi)` a shard was cut on, or the
/// null-key marker. `None` on either side means unbounded (the first/last
/// shard absorbs the extremes, so float round-off at the edges can never
/// drop a row).
///
/// Because planning rejects non-finite keys, these bounds
/// are *exact* row-membership descriptions: a row lies in an interval
/// shard iff its (finite) key satisfies the interval, and in the
/// `null_keys` shard iff its key is null.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardBounds {
    /// The shard-key attribute.
    pub attr: AttrId,
    /// Inclusive lower bound, when bounded below.
    pub lo: Option<f64>,
    /// Exclusive upper bound, when bounded above.
    pub hi: Option<f64>,
    /// This is the trailing null-key shard: it holds exactly the rows
    /// whose key is null, and `lo`/`hi` are both `None`.
    pub null_keys: bool,
}

/// One shard of a partitioned instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Shard {
    /// Dense shard index, `0..n` after empty shards are dropped.
    pub id: usize,
    /// The shard's rows — disjoint across shards, union = the input rows.
    pub rows: RowSet,
    /// The key interval (or null-key marker) this shard was cut on;
    /// `None` only for [`crate::ShardSpec::single`], whose one shard needs
    /// no guard.
    pub bounds: Option<ShardBounds>,
}

/// Min/max of the shard key over `rows`, skipping nulls; errors on a
/// non-numeric attribute and on any non-finite key (NaN/±Inf cannot be
/// soundly guarded by interval predicates, so partitioning refuses them
/// up front — every partitioning path runs this before cutting).
pub(crate) fn key_extent(
    table: &Table,
    attr: AttrId,
    rows: &RowSet,
) -> Result<(Option<f64>, Option<f64>)> {
    if !table.schema().attribute(attr).ty().is_numeric() {
        return Err(DataError::NotNumeric(
            table.schema().attribute(attr).name().to_string(),
        ));
    }
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for r in rows.iter() {
        if let Some(v) = table.value_f64(r, attr) {
            if !v.is_finite() {
                return Err(DataError::NonFiniteCell {
                    row: r,
                    attribute: table.schema().attribute(attr).name().to_string(),
                });
            }
            lo = lo.min(v);
            hi = hi.max(v);
        }
    }
    if lo.is_finite() {
        Ok((Some(lo), Some(hi)))
    } else {
        Ok((None, None))
    }
}

/// Distributes rows over the half-open intervals the ascending `cuts`
/// induce, drops empty shards, renumbers ids densely, and appends the
/// `null_keys` shard when any row's key is null. The first interval is
/// unbounded below and the last unbounded above.
pub(crate) fn cut_into_shards(
    table: &Table,
    attr: AttrId,
    rows: &RowSet,
    cuts: &[f64],
) -> Vec<Shard> {
    let n = cuts.len() + 1;
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut nulls: Vec<u32> = Vec::new();
    for r in rows.iter() {
        // Keys are finite or null here: `key_extent` already rejected
        // NaN/±Inf on every path that reaches this point.
        match table.value_f64(r, attr) {
            Some(v) => {
                // First interval whose (exclusive) upper cut lies above v.
                let b = cuts.partition_point(|&c| c <= v);
                buckets[b].push(r as u32);
            }
            None => nulls.push(r as u32),
        }
    }
    let mut shards = Vec::new();
    for (b, bucket) in buckets.into_iter().enumerate() {
        if bucket.is_empty() {
            continue;
        }
        let id = shards.len();
        shards.push(Shard {
            id,
            rows: RowSet::from_indices(bucket),
            bounds: Some(ShardBounds {
                attr,
                lo: (b > 0).then(|| cuts[b - 1]),
                hi: (b < cuts.len()).then(|| cuts[b]),
                null_keys: false,
            }),
        });
    }
    if !nulls.is_empty() {
        let id = shards.len();
        shards.push(Shard {
            id,
            rows: RowSet::from_indices(nulls),
            bounds: Some(ShardBounds {
                attr,
                lo: None,
                hi: None,
                null_keys: true,
            }),
        });
    }
    shards
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AttrType, PlannerCost, Schema, ShardSpec, Value};

    fn table_with_keys(keys: &[Option<f64>]) -> (Table, AttrId) {
        let schema = Schema::new(vec![("k", AttrType::Float), ("y", AttrType::Float)]);
        let mut t = Table::new(schema);
        for (i, k) in keys.iter().enumerate() {
            let kv = match k {
                Some(v) => Value::Float(*v),
                None => Value::Null,
            };
            t.push_row(vec![kv, Value::Float(i as f64)]).unwrap();
        }
        let attr = t.attr("k").unwrap();
        (t, attr)
    }

    /// `k` equal-width key intervals over `rows`.
    fn equal_width(t: &Table, attr: AttrId, rows: &RowSet, k: usize) -> Result<Vec<Shard>> {
        ShardSpec::by_key(attr)
            .equal_width()
            .shards(k)
            .plan(t, rows, &PlannerCost::default())
            .map(|(shards, _)| shards)
    }

    fn assert_disjoint_cover(shards: &[Shard], rows: &RowSet) {
        let mut seen: Vec<u32> = Vec::new();
        for s in shards {
            assert!(!s.rows.is_empty(), "empty shard {} survived", s.id);
            seen.extend_from_slice(s.rows.as_slice());
        }
        seen.sort_unstable();
        let before = seen.len();
        seen.dedup();
        assert_eq!(before, seen.len(), "shards overlap");
        assert_eq!(seen, rows.as_slice(), "union is not the input rows");
    }

    #[test]
    fn key_range_splits_evenly_and_covers() {
        let keys: Vec<Option<f64>> = (0..100).map(|i| Some(i as f64)).collect();
        let (t, attr) = table_with_keys(&keys);
        let shards = equal_width(&t, attr, &t.all_rows(), 4).unwrap();
        assert_eq!(shards.len(), 4);
        assert_disjoint_cover(&shards, &t.all_rows());
        // Interval chain: first unbounded below, last unbounded above,
        // inner bounds meet exactly.
        assert!(shards[0].bounds.unwrap().lo.is_none());
        assert!(shards[3].bounds.unwrap().hi.is_none());
        for w in shards.windows(2) {
            assert_eq!(w[0].bounds.unwrap().hi, w[1].bounds.unwrap().lo);
        }
        // Equal-width cuts over 0..99: ~25 rows per shard.
        for s in &shards {
            assert_eq!(s.rows.len(), 25, "shard {}: {:?}", s.id, s.bounds);
        }
    }

    #[test]
    fn null_keys_form_trailing_marked_shard() {
        let (t, attr) = table_with_keys(&[Some(0.0), None, Some(10.0), None, Some(5.0)]);
        let shards = equal_width(&t, attr, &t.all_rows(), 2).unwrap();
        assert_disjoint_cover(&shards, &t.all_rows());
        let last = shards.last().unwrap();
        let b = last.bounds.expect("null shard must carry bounds");
        assert!(b.null_keys);
        assert_eq!(b.attr, attr);
        assert!(b.lo.is_none() && b.hi.is_none());
        assert_eq!(last.rows.as_slice(), &[1, 3]);
        // Interval shards are never marked as null-key shards.
        for s in &shards[..shards.len() - 1] {
            assert!(!s.bounds.unwrap().null_keys);
        }
    }

    #[test]
    fn non_finite_keys_are_rejected() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let (t, attr) = table_with_keys(&[Some(0.0), Some(bad), Some(5.0)]);
            for spec in [
                ShardSpec::by_key(attr).equal_width().shards(2),
                ShardSpec::by_key(attr).quantile().shards(2),
            ] {
                match spec.plan(&t, &t.all_rows(), &PlannerCost::default()) {
                    Err(DataError::NonFiniteCell { row, attribute }) => {
                        assert_eq!(row, 1);
                        assert_eq!(attribute, "k");
                    }
                    other => panic!("expected NonFiniteCell for key {bad}, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn empty_shards_are_dropped_and_ids_renumbered() {
        // All keys in a narrow band + one far outlier: middle intervals of
        // a 5-way cut are empty.
        let (t, attr) = table_with_keys(&[Some(0.0), Some(0.5), Some(1.0), Some(100.0), Some(0.2)]);
        let shards = equal_width(&t, attr, &t.all_rows(), 5).unwrap();
        assert_disjoint_cover(&shards, &t.all_rows());
        for (i, s) in shards.iter().enumerate() {
            assert_eq!(s.id, i, "ids must stay dense");
        }
        assert!(shards.len() < 5);
    }

    #[test]
    fn constant_key_collapses_to_one_shard() {
        let (t, attr) = table_with_keys(&[Some(7.0), Some(7.0), Some(7.0)]);
        let shards = equal_width(&t, attr, &t.all_rows(), 4).unwrap();
        assert_eq!(shards.len(), 1);
        assert_eq!(shards[0].rows.len(), 3);
    }

    #[test]
    fn non_numeric_key_is_rejected() {
        let schema = Schema::new(vec![("s", AttrType::Str), ("y", AttrType::Float)]);
        let mut t = Table::new(schema);
        t.push_row(vec![Value::str("a"), Value::Float(0.0)])
            .unwrap();
        let s = t.attr("s").unwrap();
        assert!(matches!(
            equal_width(&t, s, &t.all_rows(), 2),
            Err(DataError::NotNumeric(_))
        ));
    }

    #[test]
    fn partition_respects_the_input_rowset() {
        let keys: Vec<Option<f64>> = (0..20).map(|i| Some(i as f64)).collect();
        let (t, attr) = table_with_keys(&keys);
        let rows = RowSet::from_indices((0..20u32).filter(|i| i % 2 == 0).collect());
        let shards = equal_width(&t, attr, &rows, 3).unwrap();
        assert_disjoint_cover(&shards, &rows);
    }
}
