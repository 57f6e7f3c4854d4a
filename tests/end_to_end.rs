//! End-to-end integration tests spanning the whole workspace:
//! generator → predicate space → discovery → compaction → evaluation →
//! serialization → imputation.

// Test harness: panicking on malformed fixtures is the failure mode we want.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use crr::baselines::{evaluate_predictor, BaselinePredictor, RegTree, RegTreeConfig};
use crr::discovery::compact_on_data;
use crr::discovery::ShardedDiscovery;
use crr::impute::{impute_with_rules, mask_random};
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

/// The full pipeline on the Tax dataset: per-state laws are discovered,
/// compacted into one rule per rate group, and the result imputes.
#[test]
fn tax_pipeline_discovers_rate_groups() {
    let ds = crr::datasets::tax(&GenConfig {
        rows: 4_000,
        seed: 21,
    });
    let table = &ds.table;
    let salary = table.attr("salary").unwrap();
    let state = table.attr("state").unwrap();
    let tax = table.attr("tax").unwrap();

    let space = PredicateGen::binary(8).generate(table, &[state, salary], tax, 0);
    let cfg = DiscoveryConfig::new(vec![salary], tax, 3.0 * crr::datasets::tax::NOISE);
    let found = discover_via_session(table, &table.all_rows(), &cfg, &space);
    assert!(found.rules.uncovered(table, &table.all_rows()).is_empty());

    let (rules, _) =
        compact_on_data(&found.rules, 1e-4, cfg.rho_max, table, &table.all_rows()).unwrap();
    // 20 states fall into 4 rate groups; compaction should get close to
    // one rule per group (allowing a little fragmentation).
    assert!(rules.len() <= 8, "{} rules after compaction", rules.len());
    let report = rules.evaluate(table, &table.all_rows());
    assert!(report.rmse <= cfg.rho_max, "rmse {}", report.rmse);
    assert_eq!(report.covered, table.num_rows());

    // The IA rule family predicts the paper's φ₅ law: 0.04·salary − 230.
    let mut probe = Table::new(table.schema().clone());
    let mut row = vec![Value::Null; table.schema().len()];
    row[state.0] = Value::str("IA");
    row[salary.0] = Value::Float(100_000.0);
    probe.push_row(row).unwrap();
    let pred = rules.predict(&probe, 0).unwrap();
    assert!(
        (pred - (0.04 * 100_000.0 - 230.0)).abs() < 5.0,
        "IA prediction {pred}"
    );
}

/// Bird migration: models shared across years via built-in predicates,
/// and rules survive serialization round-trips.
#[test]
fn birdmap_pipeline_shares_models_across_years() {
    let ds = crr::datasets::birdmap(&GenConfig {
        rows: 6 * 2 * 365,
        seed: 22,
    });
    let table = &ds.table;
    let date = table.attr("date").unwrap();
    let bird = table.attr("bird").unwrap();
    let lat = table.attr("latitude").unwrap();

    let boundaries: Vec<(String, Vec<f64>)> = ds
        .expert_boundaries
        .iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect();
    let space = PredicateGen::expert(boundaries).generate(table, &[bird, date], lat, 0);
    let rho = 2.5 * crr::datasets::birdmap::NOISE;
    let cfg = DiscoveryConfig::new(vec![date], lat, rho);
    let found = discover_via_session(table, &table.all_rows(), &cfg, &space);

    // Model sharing kicked in: strictly fewer distinct models than rules.
    assert!(found.stats.models_shared > 0);
    assert!(found.rules.num_distinct_models() < found.rules.len());

    let (rules, stats) =
        compact_on_data(&found.rules, 0.05, rho, table, &table.all_rows()).unwrap();
    assert!(stats.rules_out < stats.rules_in);
    // Some rule carries a non-identity builtin — a translated model.
    assert!(rules.rules().iter().any(Crr::uses_translation));

    // Serialization round-trip preserves predictions.
    let text = crr::core::serialize::to_text(&rules);
    let back = crr::core::serialize::from_text(&text).unwrap();
    for row in (0..table.num_rows()).step_by(101) {
        assert_eq!(
            rules.predict(table, row),
            back.predict(table, row),
            "row {row}"
        );
    }
}

/// Compacting an exported regression tree preserves RMSE while reducing
/// rules (the Figure 9/10 pipeline).
#[test]
fn tree_export_compaction_preserves_semantics() {
    let ds = crr::datasets::electricity(&GenConfig {
        rows: 3 * 1_440,
        seed: 23,
    });
    let table = &ds.table;
    let minute = table.attr("minute").unwrap();
    let power = table.attr("global_active_power").unwrap();
    let rows = table.all_rows();

    let tree = RegTree::fit(
        table,
        &rows,
        &[minute],
        &[minute],
        power,
        &RegTreeConfig::default(),
    )
    .unwrap();
    let exported = tree.to_ruleset().unwrap();
    assert_eq!(exported.len(), tree.num_rules());

    let rho = 3.0 * crr::datasets::electricity::NOISE;
    let (compacted, stats) = compact_on_data(&exported, 0.2, rho, table, &rows).unwrap();
    assert!(
        compacted.len() < exported.len(),
        "{} -> {}",
        stats.rules_in,
        stats.rules_out
    );

    let before = exported.evaluate(table, &rows);
    let after = compacted.evaluate(table, &rows);
    assert_eq!(before.covered, after.covered);
    assert!(
        (before.rmse - after.rmse).abs() <= rho,
        "rmse drifted: {} -> {}",
        before.rmse,
        after.rmse
    );
}

/// Imputation across the pipeline: discovery rules fill masked values to
/// within the noise bound, and compaction does not change the answers.
#[test]
fn imputation_recovers_masked_values() {
    let ds = crr::datasets::abalone(&GenConfig {
        rows: 2_000,
        seed: 24,
    });
    let mut table = ds.table.clone();
    let length = table.attr("length").unwrap();
    let sex = table.attr("sex").unwrap();
    let rings = table.attr("rings").unwrap();

    let rho = 3.0 * crr::datasets::abalone::NOISE;
    let space = PredicateGen::binary(16).generate(&table, &[sex, length], rings, 0);
    let cfg = DiscoveryConfig::new(vec![length], rings, rho);
    let found = discover_via_session(&table, &table.all_rows(), &cfg, &space);
    let (rules, _) = compact_on_data(&found.rules, 1e-4, rho, &table, &table.all_rows()).unwrap();

    let plan = mask_random(&mut table, rings, 0.15, 9);
    assert!(plan.len() > 100);
    let with_search = impute_with_rules(&table, &found.rules, &plan);
    let with_compacted = impute_with_rules(&table, &rules, &plan);
    assert_eq!(with_search.unanswered, 0);
    assert_eq!(with_compacted.unanswered, 0);
    // Both impute within the generator's noise envelope.
    assert!(with_search.rmse <= rho, "search rmse {}", with_search.rmse);
    assert!(
        with_compacted.rmse <= rho + 0.1,
        "compacted rmse {}",
        with_compacted.rmse
    );
}

/// CRR beats the unconditional model and matches the model tree on mixed
/// distributions — the headline comparison.
#[test]
fn crr_beats_rr_on_mixed_distribution() {
    let ds = crr::datasets::airquality(&GenConfig {
        rows: 2_000,
        seed: 25,
    });
    let table = &ds.table;
    let hour = table.attr("hour").unwrap();
    let no2 = table.attr("no2").unwrap();
    let rows = table.all_rows();
    let rho = 3.0 * crr::datasets::airquality::NOISE;

    // Resolution matters: regime segments are 4-6 hours long over a
    // 2000-hour domain, so the binary space needs ~1-2 hour spacing.
    let space = PredicateGen::binary(1023).generate(table, &[hour], no2, 0);
    let cfg = DiscoveryConfig::new(vec![hour], no2, rho);
    let found = discover_via_session(table, &rows, &cfg, &space);
    let crr_report = found.rules.evaluate(table, &rows);

    let rr = crr::baselines::Rr::fit(
        table,
        &rows,
        &[hour],
        no2,
        &FitConfig::new(ModelKind::Linear),
    )
    .unwrap();
    let rr_report = evaluate_predictor(&rr, table, &rows, no2);

    assert!(
        crr_report.rmse < rr_report.rmse / 3.0,
        "CRR {} vs RR {}",
        crr_report.rmse,
        rr_report.rmse
    );
    assert!(crr_report.rmse <= rho);
}

/// Facade prelude exposes a working API surface (compile-and-run check).
#[test]
fn prelude_supports_the_readme_workflow() {
    let schema = Schema::new(vec![("x", AttrType::Float), ("y", AttrType::Float)]);
    let mut t = Table::new(schema);
    for i in 0..50 {
        t.push_row(vec![Value::Float(i as f64), Value::Float(2.0 * i as f64)])
            .unwrap();
    }
    let x = t.attr("x").unwrap();
    let y = t.attr("y").unwrap();
    let space = PredicateGen::binary(7).generate(&t, &[x], y, 0);
    let cfg = DiscoveryConfig::new(vec![x], y, 0.5);
    let found = discover_via_session(&t, &t.all_rows(), &cfg, &space);
    let (rules, _) = compact(&found.rules, 1e-9).unwrap();
    assert_eq!(rules.len(), 1);
    let pred = rules.predict(&t, 10).unwrap();
    assert!((pred - 20.0).abs() < 1e-9, "pred {pred}");
}
