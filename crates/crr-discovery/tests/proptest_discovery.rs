//! Property-based tests of Algorithm 1's postconditions (Problem 1) on
//! randomly generated piecewise data.

// Test harness: panicking on malformed fixtures is the failure mode we want.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use crr_data::{AttrType, RowSet, Schema, Table, Value};
use crr_discovery::{
    DiscoveryConfig, DiscoverySession, PredicateGen, PredicateSpace, QueueOrder, ShardedDiscovery,
};
use proptest::prelude::*;

/// Single-shard run through the session front door.
fn discover(
    t: &Table,
    rows: &RowSet,
    cfg: &DiscoveryConfig,
    space: &PredicateSpace,
) -> crr_discovery::Result<ShardedDiscovery> {
    DiscoverySession::on(t)
        .rows(rows.clone())
        .predicates(space.clone())
        .config(cfg.clone())
        .run()
}

/// A random piecewise-affine table: 1–4 segments, each with its own slope
/// and intercept, plus bounded noise.
fn arb_piecewise() -> impl Strategy<Value = (Table, f64)> {
    (
        prop::collection::vec((-2.0f64..2.0, -20.0f64..20.0), 1..4),
        10usize..60,
        0.0f64..0.3,
        0u64..1000,
    )
        .prop_map(|(segments, per_segment, noise_amp, seed)| {
            let schema = Schema::new(vec![("x", AttrType::Float), ("y", AttrType::Float)]);
            let mut t = Table::new(schema);
            let mut x = 0.0;
            for (si, (w, b)) in segments.iter().enumerate() {
                for k in 0..per_segment {
                    // Deterministic pseudo-noise in [-amp, amp].
                    let h = seed
                        .wrapping_add((si * per_segment + k) as u64)
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    let noise = ((h >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0) * noise_amp;
                    t.push_row(vec![Value::Float(x), Value::Float(w * x + b + noise)])
                        .unwrap();
                    x += 1.0;
                }
            }
            (t, noise_amp)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Coverage (Problem 1): every tuple is covered by some rule.
    #[test]
    fn discovery_always_covers((table, noise) in arb_piecewise()) {
        let x = table.attr("x").unwrap();
        let y = table.attr("y").unwrap();
        let space = PredicateGen::binary(63).generate(&table, &[x], y, 0);
        let cfg = DiscoveryConfig::new(vec![x], y, (2.5 * noise).max(0.05));
        let d = discover(&table, &table.all_rows(), &cfg, &space).unwrap();
        prop_assert!(d.rules.uncovered(&table, &table.all_rows()).is_empty());
    }

    /// Honesty: every emitted rule satisfies its own ρ on the full table.
    #[test]
    fn rules_respect_their_rho((table, noise) in arb_piecewise()) {
        let x = table.attr("x").unwrap();
        let y = table.attr("y").unwrap();
        let space = PredicateGen::binary(63).generate(&table, &[x], y, 0);
        let cfg = DiscoveryConfig::new(vec![x], y, (2.5 * noise).max(0.05));
        let d = discover(&table, &table.all_rows(), &cfg, &space).unwrap();
        for rule in d.rules.rules() {
            prop_assert!(rule.find_violation(&table, &table.all_rows()).is_none());
        }
    }

    /// Conditions are disjoint partitions: every row matches exactly one
    /// rule (binary refinement of ⊤ with complementary children).
    #[test]
    fn search_partitions_are_disjoint((table, noise) in arb_piecewise()) {
        let x = table.attr("x").unwrap();
        let y = table.attr("y").unwrap();
        let space = PredicateGen::binary(63).generate(&table, &[x], y, 0);
        let cfg = DiscoveryConfig::new(vec![x], y, (2.5 * noise).max(0.05));
        let d = discover(&table, &table.all_rows(), &cfg, &space).unwrap();
        for row in 0..table.num_rows() {
            let matches = d
                .rules
                .rules()
                .iter()
                .filter(|r| r.covers(&table, row))
                .count();
            prop_assert_eq!(matches, 1, "row {} matched {} rules", row, matches);
        }
    }

    /// Queue order never affects coverage or honesty, only traversal.
    #[test]
    fn any_order_is_valid((table, noise) in arb_piecewise(), seed in 0u64..100) {
        let x = table.attr("x").unwrap();
        let y = table.attr("y").unwrap();
        let space = PredicateGen::binary(31).generate(&table, &[x], y, 0);
        for order in [QueueOrder::Decrease, QueueOrder::Increase, QueueOrder::Random(seed)] {
            let cfg = DiscoveryConfig::new(vec![x], y, (2.5 * noise).max(0.05))
                .with_order(order);
            let d = discover(&table, &table.all_rows(), &cfg, &space).unwrap();
            prop_assert!(d.rules.uncovered(&table, &table.all_rows()).is_empty());
            let rep = d.rules.evaluate(&table, &table.all_rows());
            prop_assert!(rep.covered == table.num_rows());
        }
    }

    /// Compaction of the discovered set never loses coverage and keeps
    /// every prediction within 2·ρ_M of the original.
    #[test]
    fn compaction_stays_close((table, noise) in arb_piecewise()) {
        let x = table.attr("x").unwrap();
        let y = table.attr("y").unwrap();
        let rho = (2.5 * noise).max(0.05);
        let space = PredicateGen::binary(63).generate(&table, &[x], y, 0);
        let cfg = DiscoveryConfig::new(vec![x], y, rho);
        let d = discover(&table, &table.all_rows(), &cfg, &space).unwrap();
        let (compacted, _) = crr_discovery::compact_on_data(
            &d.rules, 1e-6, rho, &table, &table.all_rows(),
        )
        .unwrap();
        prop_assert!(compacted.len() <= d.rules.len());
        prop_assert!(compacted.uncovered(&table, &table.all_rows()).is_empty());
        for row in 0..table.num_rows() {
            let a = d.rules.predict(&table, row).unwrap();
            let b = compacted.predict(&table, row).unwrap();
            prop_assert!((a - b).abs() <= 2.0 * rho + 1e-9, "row {}: {} vs {}", row, a, b);
        }
    }
}
