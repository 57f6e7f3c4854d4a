//! Multivariate-`X` coverage: everything upstream is written for
//! `f : X → Y` with arbitrary |X|, but the paper's headline scenarios are
//! univariate — these tests exercise the |X| ≥ 2 paths end to end.

// Test harness: panicking on malformed fixtures is the failure mode we want.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use crr::discovery::compact_on_data;
use crr::discovery::ShardedDiscovery;
use crr::prelude::*;

/// Single-shard discovery through the `DiscoverySession` front door,
/// pinned byte-identical to a one-shard sharded run in
/// `crr-discovery/tests/sharded_equivalence.rs`.
fn discover_via_session(
    table: &Table,
    rows: &RowSet,
    cfg: &DiscoveryConfig,
    space: &PredicateSpace,
) -> ShardedDiscovery {
    DiscoverySession::on(table)
        .rows(rows.clone())
        .predicates(space.clone())
        .config(cfg.clone())
        .run()
        .unwrap()
}

/// A plane per regime: y = a·x1 + b·x2 + c, with the two regimes sharing
/// (a, b) — translatable in the multivariate sense.
fn plane_table(n: usize) -> Table {
    let schema = Schema::new(vec![
        ("x1", AttrType::Float),
        ("x2", AttrType::Float),
        ("y", AttrType::Float),
    ]);
    let mut t = Table::new(schema);
    for i in 0..n {
        let x1 = (i % 20) as f64;
        let x2 = (i / 20) as f64;
        let base = 2.0 * x1 - 0.5 * x2;
        // Regime switch on x1: same gradient, intercept differs by 30.
        let y = if x1 < 10.0 { base + 1.0 } else { base + 31.0 };
        t.push_row(vec![Value::Float(x1), Value::Float(x2), Value::Float(y)])
            .unwrap();
    }
    t
}

#[test]
fn discovers_multivariate_planes_and_shares_them() {
    let t = plane_table(400);
    let x1 = t.attr("x1").unwrap();
    let x2 = t.attr("x2").unwrap();
    let y = t.attr("y").unwrap();

    let space = PredicateGen::binary(15).generate(&t, &[x1, x2], y, 0);
    let cfg = DiscoveryConfig::new(vec![x1, x2], y, 0.1);
    let d = discover_via_session(&t, &t.all_rows(), &cfg, &space);
    assert!(d.rules.uncovered(&t, &t.all_rows()).is_empty());
    let rep = d.rules.evaluate(&t, &t.all_rows());
    assert!(rep.rmse < 1e-9, "rmse {}", rep.rmse);
    // The second regime shares the first regime's plane.
    assert!(d.stats.models_shared >= 1, "stats {:?}", d.stats);

    // Compaction merges the two regimes onto one model.
    let (rules, _) = compact_on_data(&d.rules, 1e-6, 0.1, &t, &t.all_rows()).unwrap();
    assert_eq!(
        rules.num_distinct_models(),
        1,
        "{} models",
        rules.num_distinct_models()
    );
    let rep2 = rules.evaluate(&t, &t.all_rows());
    assert!(rep2.rmse < 1e-9);
}

#[test]
fn multivariate_translation_composes_delta_vectors() {
    use crr::core::inference::translation;
    use crr::models::LinearModel;
    use std::sync::Arc;

    let t = plane_table(100);
    let x1 = t.attr("x1").unwrap();
    let x2 = t.attr("x2").unwrap();
    let y = t.attr("y").unwrap();
    // Two planes with equal gradients, intercepts 1 and 31.
    let f1 = Arc::new(Model::Linear(LinearModel::new(vec![2.0, -0.5], 1.0)));
    let f2 = Arc::new(Model::Linear(LinearModel::new(vec![2.0, -0.5], 31.0)));
    let r1 = crr::core::Crr::new(
        vec![x1, x2],
        y,
        f1,
        0.1,
        Dnf::single(Conjunction::of(vec![Predicate::lt(x1, Value::Float(10.0))])),
    )
    .unwrap();
    let r2 = crr::core::Crr::new(
        vec![x1, x2],
        y,
        f2,
        0.1,
        Dnf::single(Conjunction::of(vec![Predicate::ge(x1, Value::Float(10.0))])),
    )
    .unwrap();
    let shared = translation(&r1, &r2, 1e-9).unwrap();
    let b = shared.condition().conjuncts()[1].builtin().unwrap();
    // Canonical witness: two-dimensional zero Δ, δ = 30.
    assert_eq!(b.delta_x, vec![0.0, 0.0]);
    assert!((b.delta_y - 30.0).abs() < 1e-12);
    // Pointwise agreement with f2 on the second regime.
    for row in 0..t.num_rows() {
        if r2.covers(&t, row) {
            assert_eq!(shared.predict(&t, row), r2.predict(&t, row));
        }
    }
}

#[test]
fn abalone_rings_from_two_features() {
    // rings ~ f(length, diameter) per sex — diameter is collinear-ish with
    // length in the generator, so this also exercises the ridge family's
    // robustness and the QR fallback.
    let ds = crr::datasets::abalone(&GenConfig {
        rows: 1_500,
        seed: 51,
    });
    let t = &ds.table;
    let length = t.attr("length").unwrap();
    let diameter = t.attr("diameter").unwrap();
    let sex = t.attr("sex").unwrap();
    let rings = t.attr("rings").unwrap();
    let rho = 3.0 * crr::datasets::abalone::NOISE + 0.3; // diameter noise widens the envelope

    for kind in [ModelKind::Linear, ModelKind::Ridge] {
        let space = PredicateGen::binary(16).generate(t, &[sex, length, diameter], rings, 0);
        let cfg = DiscoveryConfig::new(vec![length, diameter], rings, rho).with_kind(kind);
        let d = discover_via_session(t, &t.all_rows(), &cfg, &space);
        assert!(d.rules.uncovered(t, &t.all_rows()).is_empty(), "{kind:?}");
        let rep = d.rules.evaluate(t, &t.all_rows());
        assert!(rep.rmse <= rho, "{kind:?}: rmse {}", rep.rmse);
    }
}

#[test]
fn serialization_roundtrips_multivariate_builtins() {
    let t = plane_table(200);
    let x1 = t.attr("x1").unwrap();
    let x2 = t.attr("x2").unwrap();
    let y = t.attr("y").unwrap();
    let space = PredicateGen::binary(15).generate(&t, &[x1, x2], y, 0);
    let cfg = DiscoveryConfig::new(vec![x1, x2], y, 0.1);
    let d = discover_via_session(&t, &t.all_rows(), &cfg, &space);
    let (rules, _) = compact_on_data(&d.rules, 1e-6, 0.1, &t, &t.all_rows()).unwrap();
    let back = crr::core::serialize::from_text(&crr::core::serialize::to_text(&rules)).unwrap();
    for row in (0..t.num_rows()).step_by(13) {
        assert_eq!(rules.predict(&t, row), back.predict(&t, row),);
    }
}
