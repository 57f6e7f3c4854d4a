//! Cross-crate invariant tests: discovery postconditions from Problem 1,
//! checked on every dataset generator and model family.

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

fn scenario(ds: &Dataset, rho_scale: f64) -> (DiscoveryConfig, PredicateSpace) {
    let table = &ds.table;
    let target = table.attr(ds.default_target).unwrap();
    let inputs: Vec<AttrId> = ds
        .default_inputs
        .iter()
        .map(|n| table.attr(n).unwrap())
        .collect();
    // Conditions over the inputs plus every categorical attribute.
    let mut cond: Vec<AttrId> = inputs.clone();
    for (id, a) in table.schema().iter() {
        if a.ty() == AttrType::Str {
            cond.push(id);
        }
    }
    let space = PredicateGen::binary(32).generate(table, &cond, target, 5);
    (DiscoveryConfig::new(inputs, target, rho_scale), space)
}

fn all_datasets() -> Vec<Dataset> {
    let cfg = GenConfig {
        rows: 900,
        seed: 77,
    };
    vec![
        crr::datasets::birdmap(&cfg),
        crr::datasets::airquality(&cfg),
        crr::datasets::electricity(&cfg),
        crr::datasets::tax(&cfg),
        crr::datasets::abalone(&cfg),
    ]
}

/// Problem 1 coverage: every tuple is covered by some discovered rule,
/// on every dataset.
#[test]
fn discovery_covers_every_tuple_on_all_datasets() {
    for ds in all_datasets() {
        let (cfg, space) = scenario(&ds, 1.0);
        let found = discover_via_session(&ds.table, &ds.table.all_rows(), &cfg, &space);
        let uncovered = found.rules.uncovered(&ds.table, &ds.table.all_rows());
        assert!(
            uncovered.is_empty(),
            "{}: {} uncovered",
            ds.name,
            uncovered.len()
        );
    }
}

/// Every emitted rule is honest: no covered tuple violates the rule's own
/// bias ρ.
#[test]
fn every_rule_respects_its_own_rho() {
    for ds in all_datasets() {
        let (cfg, space) = scenario(&ds, 1.0);
        let found = discover_via_session(&ds.table, &ds.table.all_rows(), &cfg, &space);
        for (i, rule) in found.rules.rules().iter().enumerate() {
            assert!(
                rule.find_violation(&ds.table, &ds.table.all_rows())
                    .is_none(),
                "{}: rule {i} violates its rho",
                ds.name
            );
        }
    }
}

/// Compaction is semantics-preserving: identical coverage, and predictions
/// within ρ_M of the originals on every dataset.
#[test]
fn compaction_preserves_coverage_and_predictions() {
    for ds in all_datasets() {
        let (cfg, space) = scenario(&ds, 1.0);
        let rows = ds.table.all_rows();
        let found = discover_via_session(&ds.table, &rows, &cfg, &space);
        let (compacted, _) =
            compact_on_data(&found.rules, 1e-4, cfg.rho_max, &ds.table, &rows).unwrap();
        assert!(compacted.len() <= found.rules.len(), "{}", ds.name);
        assert!(
            compacted.uncovered(&ds.table, &rows).is_empty(),
            "{}: compaction lost coverage",
            ds.name
        );
        for row in (0..ds.table.num_rows()).step_by(37) {
            let a = found.rules.predict(&ds.table, row);
            let b = compacted.predict(&ds.table, row);
            match (a, b) {
                (Some(a), Some(b)) => assert!(
                    (a - b).abs() <= 2.0 * cfg.rho_max + 1e-9,
                    "{}: row {row} drifted {a} -> {b}",
                    ds.name
                ),
                (a, b) => assert_eq!(a.is_some(), b.is_some(), "{}: row {row}", ds.name),
            }
        }
    }
}

/// Sharing never hurts accuracy: with and without the lines 7–10 fast
/// path, discovery reaches comparable RMSE, and sharing trains fewer
/// models.
#[test]
fn sharing_reduces_models_without_hurting_rmse() {
    let ds = crr::datasets::birdmap(&GenConfig {
        rows: 2_200,
        seed: 31,
    });
    let (cfg, space) = scenario(&ds, 0.5);
    let rows = ds.table.all_rows();
    let with = discover_via_session(&ds.table, &rows, &cfg.clone().with_sharing(true), &space);
    let without = discover_via_session(&ds.table, &rows, &cfg.with_sharing(false), &space);
    assert!(with.stats.models_trained <= without.stats.models_trained);
    let rw = with.rules.evaluate(&ds.table, &rows);
    let rwo = without.rules.evaluate(&ds.table, &rows);
    assert!(
        rw.rmse <= rwo.rmse * 2.0 + 0.1,
        "with {} vs without {}",
        rw.rmse,
        rwo.rmse
    );
}

/// Discovery is deterministic: identical inputs give identical rule sets,
/// for every model family.
#[test]
fn discovery_is_deterministic_per_family() {
    let ds = crr::datasets::abalone(&GenConfig {
        rows: 700,
        seed: 32,
    });
    for kind in ModelKind::ALL {
        let (base, space) = scenario(&ds, 1.0);
        let cfg = base.with_kind(kind);
        let rows = ds.table.all_rows();
        let a = discover_via_session(&ds.table, &rows, &cfg, &space);
        let b = discover_via_session(&ds.table, &rows, &cfg, &space);
        assert_eq!(a.rules.len(), b.rules.len(), "{kind:?}");
        for (ra, rb) in a.rules.rules().iter().zip(b.rules.rules()) {
            assert_eq!(ra.condition(), rb.condition(), "{kind:?}");
            assert_eq!(ra.rho(), rb.rho(), "{kind:?}");
        }
    }
}

/// Tightening ρ_M never increases the rule set's measured RMSE
/// (in-sample): more refinement means equal or better fit.
#[test]
fn smaller_rho_never_fits_worse_in_sample() {
    let ds = crr::datasets::airquality(&GenConfig {
        rows: 1_200,
        seed: 33,
    });
    let rows = ds.table.all_rows();
    let mut last_rmse = f64::INFINITY;
    for rho in [5.0, 1.0, 0.5] {
        let (cfg, space) = scenario(&ds, rho);
        let found = discover_via_session(&ds.table, &rows, &cfg, &space);
        let report = found.rules.evaluate(&ds.table, &rows);
        assert!(
            report.rmse <= last_rmse + 1e-9,
            "rho {rho}: rmse {} after {}",
            report.rmse,
            last_rmse
        );
        last_rmse = report.rmse;
    }
}
