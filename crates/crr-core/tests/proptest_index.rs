//! Property test: the interval rule index is semantically transparent —
//! for arbitrary rule sets and tables, its compiled engine locates exactly
//! what the linear `RuleSet` scan locates, and finds exactly the covering
//! rules and first matching conjuncts the interpreter finds.

// Test harness: panicking on malformed fixtures is the failure mode we want.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use crr_core::{Conjunction, Crr, Dnf, Op, Predicate, RuleIndex, RuleSet};
use crr_data::{AttrId, AttrType, Schema, Table, Value};
use crr_models::{LinearModel, Model};
use proptest::prelude::*;
use std::sync::Arc;

const X: AttrId = AttrId(0);
const Y: AttrId = AttrId(1);

fn arb_table() -> impl Strategy<Value = Table> {
    // ~1 in 10 x-cells is null, so null-row handling is stressed on every
    // property, not just the dedicated one.
    let cell = prop_oneof![
        9 => (-100.0f64..100.0).prop_map(Some),
        1 => Just(None),
    ];
    prop::collection::vec(cell, 1..60).prop_map(|xs| {
        let schema = Schema::new(vec![("x", AttrType::Float), ("y", AttrType::Float)]);
        let mut t = Table::new(schema);
        for x in xs {
            let xv = x.map_or(Value::Null, Value::Float);
            t.push_row(vec![xv, Value::Float(x.unwrap_or(0.0) * 0.5)])
                .unwrap();
        }
        t
    })
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Eq),
        Just(Op::Ne),
        Just(Op::Gt),
        Just(Op::Ge),
        Just(Op::Lt),
        Just(Op::Le),
        // Null tests, including the malformed numeric-constant form the
        // generator below produces: the index must ignore such "bounds".
        Just(Op::IsNull),
        Just(Op::NotNull),
    ]
}

/// Rules with random interval-ish conditions — including empty, unbounded
/// and overlapping conjunctions, which stress the index's conservatism.
fn arb_rules() -> impl Strategy<Value = RuleSet> {
    let conj = prop::collection::vec((arb_op(), -90.0f64..90.0), 0..3).prop_map(|ps| {
        Conjunction::of(
            ps.into_iter()
                .map(|(op, c)| Predicate::new(X, op, Value::Float(c)))
                .collect(),
        )
    });
    let dnf = prop::collection::vec(conj, 1..4).prop_map(Dnf::of);
    prop::collection::vec((dnf, -2.0f64..2.0, -10.0f64..10.0), 1..6).prop_map(|specs| {
        RuleSet::from_rules(
            specs
                .into_iter()
                .map(|(cond, w, b)| {
                    let m = Arc::new(Model::Linear(LinearModel::new(vec![w], b)));
                    Crr::new(vec![X], Y, m, 1.0, cond).unwrap()
                })
                .collect(),
        )
    })
}

/// The interpreted coverage answer: every covering rule with its first
/// covering conjunction.
fn covering_scan(rules: &RuleSet, table: &Table, row: usize) -> Vec<(usize, usize)> {
    rules
        .rules()
        .iter()
        .enumerate()
        .filter_map(|(ri, r)| {
            let conjuncts = r.condition().conjuncts();
            Some((ri, conjuncts.iter().position(|c| c.eval(table, row))?))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn index_predicts_exactly_like_first_scan(table in arb_table(), rules in arb_rules()) {
        let idx = RuleIndex::build(&rules, &table);
        let fast = idx.compile(&table);
        for row in 0..table.num_rows() {
            prop_assert_eq!(
                rules.predict(&table, row).map(f64::to_bits),
                fast.predict(row).map(f64::to_bits),
                "row {}", row
            );
        }
    }

    #[test]
    fn index_covering_matches_the_interpreter(table in arb_table(), rules in arb_rules()) {
        let idx = RuleIndex::build(&rules, &table);
        let fast = idx.compile(&table);
        for row in 0..table.num_rows() {
            let mut got = Vec::new();
            fast.covering(row, |ri, ci| got.push((ri, ci)));
            prop_assert_eq!(got, covering_scan(&rules, &table, row), "row {}", row);
        }
    }

    #[test]
    fn index_evaluate_matches_scan_evaluate(table in arb_table(), rules in arb_rules()) {
        let a = rules.evaluate(&table, &table.all_rows());
        let idx = RuleIndex::build(&rules, &table);
        let b = idx.compile(&table).evaluate(&table.all_rows());
        prop_assert_eq!(a.rmse.to_bits(), b.rmse.to_bits());
        prop_assert_eq!(a, b);
    }

    #[test]
    fn index_handles_nulls_like_scan(table in arb_table(), rules in arb_rules(), k in 0usize..10) {
        let mut table = table;
        let row = k % table.num_rows();
        table.set_null(row, X);
        let idx = RuleIndex::build(&rules, &table);
        prop_assert_eq!(rules.predict(&table, row), idx.compile(&table).predict(row));
    }
}
