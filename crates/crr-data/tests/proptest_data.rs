//! Property-based tests for the relational substrate: CSV round-trips and
//! RowSet set-algebra laws.

// Test harness: panicking on malformed fixtures is the failure mode we want.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use crr_data::{
    csv, AttrType, Boundary, PlannerCost, RowSet, Schema, Shard, ShardSpec, Table, Value,
};
use proptest::prelude::*;

/// An arbitrary cell for a column type. Floats are rounded to a fixed
/// precision so text round-trips are exact.
fn arb_value(ty: AttrType) -> BoxedStrategy<Value> {
    match ty {
        AttrType::Int => prop_oneof![
            3 => (-1_000_000i64..1_000_000).prop_map(Value::Int),
            1 => Just(Value::Null),
        ]
        .boxed(),
        AttrType::Float => prop_oneof![
            3 => (-1_000_000i64..1_000_000)
                .prop_map(|v| Value::Float(v as f64 / 128.0)),
            1 => Just(Value::Null),
        ]
        .boxed(),
        AttrType::Str => prop_oneof![
            3 => "[a-zA-Z0-9 ,\"_-]{0,12}".prop_map(Value::str),
            1 => Just(Value::Null),
        ]
        .boxed(),
    }
}

/// A random table: random column types, random cells (including nulls,
/// commas and quotes in strings).
fn arb_table() -> impl Strategy<Value = Table> {
    prop::collection::vec(
        prop_oneof![
            Just(AttrType::Int),
            Just(AttrType::Float),
            Just(AttrType::Str)
        ],
        1..5,
    )
    .prop_flat_map(|types| {
        let schema_types = types.clone();
        let row_strategy: Vec<BoxedStrategy<Value>> = types.iter().map(|&t| arb_value(t)).collect();
        prop::collection::vec(row_strategy, 1..30).prop_map(move |rows| {
            let schema = Schema::new(
                schema_types
                    .iter()
                    .enumerate()
                    .map(|(i, &t)| (format!("c{i}"), t))
                    .collect(),
            );
            let mut table = Table::new(schema);
            for row in rows {
                table.push_row(row).unwrap();
            }
            table
        })
    })
}

/// Equality of cells after a CSV round trip. Type inference may narrow a
/// column (e.g. a Str column whose every cell happens to parse as a
/// number, or an all-null Float column inferred as Int), so values are
/// compared through their semantic ordering when kinds differ.
fn roundtrip_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Null, Value::Null) => true,
        // An empty string serializes as an empty field == null.
        (Value::Str(s), Value::Null) | (Value::Null, Value::Str(s)) => s.is_empty(),
        (x, y) => {
            if x == y {
                return true;
            }
            // Str "42" may come back as Int 42: compare textually.
            x.to_string() == y.to_string()
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// CSV write → read preserves shape and cell contents (modulo type
    /// narrowing on text that happens to look numeric).
    #[test]
    fn csv_roundtrip(table in arb_table()) {
        let mut buf = Vec::new();
        csv::write_csv(&table, &mut buf).unwrap();
        let back = csv::read_csv(buf.as_slice()).unwrap();
        prop_assert_eq!(back.num_rows(), table.num_rows());
        prop_assert_eq!(back.num_cols(), table.num_cols());
        for (id, _) in table.schema().iter() {
            for r in 0..table.num_rows() {
                let a = table.value(r, id);
                let b = back.value(r, id);
                prop_assert!(roundtrip_eq(&a, &b), "row {} col {}: {:?} vs {:?}", r, id, a, b);
            }
        }
    }

    /// RowSet algebra: union/intersection are commutative, idempotent and
    /// respect containment.
    #[test]
    fn rowset_set_algebra(
        a in prop::collection::vec(0u32..100, 0..50),
        b in prop::collection::vec(0u32..100, 0..50),
    ) {
        let a = RowSet::from_indices(a);
        let b = RowSet::from_indices(b);
        prop_assert_eq!(a.union(&b), b.union(&a));
        prop_assert_eq!(a.intersect(&b), b.intersect(&a));
        prop_assert_eq!(a.union(&a), a.clone());
        prop_assert_eq!(a.intersect(&a), a.clone());
        // |A ∪ B| + |A ∩ B| = |A| + |B|.
        prop_assert_eq!(
            a.union(&b).len() + a.intersect(&b).len(),
            a.len() + b.len()
        );
        // Intersection ⊆ each input ⊆ union.
        for r in a.intersect(&b).iter() {
            prop_assert!(a.iter().any(|x| x == r) && b.iter().any(|x| x == r));
        }
        for r in a.iter() {
            prop_assert!(a.union(&b).iter().any(|x| x == r));
        }
    }

    /// Partition is exact: the two sides are disjoint and rebuild the set.
    #[test]
    fn rowset_partition_laws(rows in prop::collection::vec(0u32..200, 0..60), pivot in 0u32..200) {
        let set = RowSet::from_indices(rows);
        let (yes, no) = set.partition(|r| (r as u32) < pivot);
        prop_assert!(yes.intersect(&no).is_empty());
        prop_assert_eq!(yes.union(&no), set);
    }

    /// Column statistics bounds: min ≤ mean ≤ max over any numeric subset.
    #[test]
    fn stats_are_ordered(values in prop::collection::vec(-100.0f64..100.0, 1..50)) {
        let schema = Schema::new(vec![("v", AttrType::Float)]);
        let mut t = Table::new(schema);
        for v in &values {
            t.push_row(vec![Value::Float(*v)]).unwrap();
        }
        let s = crr_data::ColumnStats::compute(&t, t.attr("v").unwrap(), &t.all_rows());
        let (min, max) = (s.min.unwrap(), s.max.unwrap());
        prop_assert!(min <= s.mean + 1e-9 && s.mean <= max + 1e-9);
        prop_assert!(s.variance >= 0.0);
        prop_assert!(s.variance <= (max - min).powi(2) + 1e-9);
    }

    /// Quantile shard plans are exact on arbitrary keys — skewed, heavily
    /// repeated, constant, null-ridden or all-null: shards are disjoint,
    /// their union is the input, no shard is empty, key ranges never
    /// interleave (cuts land strictly between distinct values) and every
    /// null-key row sits in the single trailing null-regime shard.
    #[test]
    fn quantile_plans_are_disjoint_and_covering(
        keys in prop::collection::vec(arb_shard_key(), 1..80),
        k in 1usize..6,
    ) {
        let (t, attr) = shard_key_table(&keys);
        let rows = t.all_rows();
        let (shards, report) = ShardSpec::by_key(attr)
            .quantile()
            .shards(k)
            .plan(&t, &rows, &PlannerCost::default())
            .unwrap();

        // Disjoint, covering, no empty shards, dense ids.
        let mut seen: Vec<u32> = Vec::new();
        for (i, s) in shards.iter().enumerate() {
            prop_assert_eq!(s.id, i, "shard ids not dense");
            prop_assert!(!s.rows.is_empty(), "empty shard survived");
            seen.extend_from_slice(s.rows.as_slice());
        }
        seen.sort_unstable();
        let total = seen.len();
        seen.dedup();
        prop_assert_eq!(seen.len(), total, "shards overlap");
        prop_assert_eq!(seen, rows.as_slice().to_vec(), "union is not the input");

        // Null regime: all null-key rows in one trailing null shard.
        let nulls: Vec<u32> = rows
            .as_slice()
            .iter()
            .copied()
            .filter(|&r| t.value_f64(r as usize, attr).is_none())
            .collect();
        let null_shards: Vec<_> = shards
            .iter()
            .filter(|s| s.bounds.map(|b| b.null_keys).unwrap_or(false))
            .collect();
        if nulls.is_empty() {
            prop_assert!(null_shards.is_empty());
        } else {
            prop_assert_eq!(null_shards.len(), 1);
            prop_assert_eq!(null_shards[0].id, shards.len() - 1, "null shard must trail");
            prop_assert_eq!(null_shards[0].rows.as_slice().to_vec(), nulls);
        }

        // Interval shards never split a repeated-value run: max key of one
        // shard is strictly below the min key of the next.
        let interval_extents: Vec<(f64, f64)> = shards
            .iter()
            .filter(|s| !s.bounds.map(|b| b.null_keys).unwrap_or(false))
            .map(|s| {
                let ks: Vec<f64> = s.rows.iter().filter_map(|r| t.value_f64(r, attr)).collect();
                let lo = ks.iter().cloned().fold(f64::INFINITY, f64::min);
                let hi = ks.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                (lo, hi)
            })
            .collect();
        for w in interval_extents.windows(2) {
            prop_assert!(w[0].1 < w[1].0, "key ranges interleave: {:?}", interval_extents);
        }
        prop_assert!(interval_extents.len() <= k, "more interval shards than requested");
        prop_assert_eq!(report.boundary, Some(Boundary::Quantile));
    }

    /// A one-shard spec is the unsharded partition: one shard, id 0,
    /// every row in order, no bounds.
    #[test]
    fn single_shard_spec_matches_classic_partition(
        keys in prop::collection::vec(arb_shard_key(), 1..60),
    ) {
        let (t, attr) = shard_key_table(&keys);
        let rows = t.all_rows();
        let classic = vec![Shard { id: 0, rows: rows.clone(), bounds: None }];
        let (via_spec, report) = ShardSpec::single()
            .plan(&t, &rows, &PlannerCost::default())
            .unwrap();
        prop_assert_eq!(via_spec, classic);
        prop_assert_eq!(report.boundary, None);
        // And a quantile spec degenerates identically whether asked for
        // one shard or collapsed by a constant key.
        let (one, _) = ShardSpec::by_key(attr)
            .quantile()
            .shards(1)
            .plan(&t, &rows, &PlannerCost::default())
            .unwrap();
        let mut flat: Vec<u32> = one
            .iter()
            .flat_map(|s| s.rows.as_slice().iter().copied())
            .collect();
        flat.sort_unstable();
        prop_assert_eq!(flat, rows.as_slice().to_vec());
        prop_assert!(one.len() <= 2, "one interval shard plus at most a null shard");
    }
}

/// Shard keys for plan proptests: a null regime, a small repeated-value
/// vocabulary (forces runs and constants) and a skewed wide range.
fn arb_shard_key() -> BoxedStrategy<Option<f64>> {
    prop_oneof![
        1 => Just(None),
        2 => (0i64..6).prop_map(|v| Some(v as f64)),
        2 => (-1_000i64..1_000).prop_map(|v| Some((v * v.abs()) as f64 / 16.0)),
    ]
    .boxed()
}

fn shard_key_table(keys: &[Option<f64>]) -> (Table, crr_data::AttrId) {
    let schema = Schema::new(vec![("k", AttrType::Float)]);
    let mut t = Table::new(schema);
    for k in keys {
        let kv = match k {
            Some(v) => Value::Float(*v),
            None => Value::Null,
        };
        t.push_row(vec![kv]).unwrap();
    }
    let attr = t.attr("k").unwrap();
    (t, attr)
}
