//! Relational scenario: state-conditional tax laws and missing-value
//! imputation.
//!
//! The Tax dataset follows `tax = rate(state) · salary − deduction(state)`
//! (the paper's φ₅: `f(Salary) = 0.04·Salary − 230` when `S = IA`). CRR
//! discovery finds the per-state rules; compaction merges states in the
//! same rate group — their laws differ only by the deduction, i.e. a pure
//! `y = δ` translation. The compacted rules then impute masked tax values.
//!
//! Run with: `cargo run --release --example tax_imputation`

// Example code: unwraps keep the walkthrough focused on the API.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use crr::baselines::{evaluate_predictor, BaselinePredictor, RegTree, RegTreeConfig};
use crr::impute::{impute_with_baseline, impute_with_rules, mask_random};
use crr::prelude::*;

fn main() {
    let ds = crr::datasets::tax(&GenConfig {
        rows: 8_000,
        seed: 11,
    });
    let table = &ds.table;
    let salary = table.attr("salary").unwrap();
    let state = table.attr("state").unwrap();
    let tax = table.attr("tax").unwrap();

    // Conditions over state (categorical) and salary (numeric).
    let space = PredicateGen::binary(4).generate(table, &[state, salary], tax, 0);
    let cfg = DiscoveryConfig::new(vec![salary], tax, 2.0 * crr::datasets::tax::NOISE);
    let found = DiscoverySession::on(table)
        .predicates(space)
        .config(cfg)
        .run()
        .expect("discovery");
    println!(
        "search: {} rules / {} distinct models ({} shared hits)",
        found.rules.len(),
        found.rules.num_distinct_models(),
        found.stats.models_shared
    );

    // Compaction merges same-rate-group states onto one model.
    let (rules, stats) = compact(&found.rules, 1e-4).expect("compaction");
    println!(
        "compaction: {} -> {} rules ({} translations, {} fusions)",
        stats.rules_in, stats.rules_out, stats.translations, stats.fusions
    );
    let report = rules.evaluate(table, &table.all_rows());
    println!("CRR rmse {:.3} with {} rules\n", report.rmse, rules.len());

    // Baseline for contrast: a model tree over the same attributes.
    let tree = RegTree::fit(
        table,
        &table.all_rows(),
        &[salary],
        &[state, salary],
        tax,
        &RegTreeConfig::default(),
    )
    .expect("regtree");
    let tree_eval = evaluate_predictor(&tree, table, &table.all_rows(), tax);
    println!(
        "RegTree rmse {:.3} with {} rules (no sharing)",
        tree_eval.rmse,
        tree.num_rules()
    );

    // Impute masked tax values with both.
    let mut masked = table.clone();
    let plan = mask_random(&mut masked, tax, 0.1, 3);
    let crr_imp = impute_with_rules(&masked, &rules, &plan);
    let tree_imp = impute_with_baseline(&masked, &tree, &plan);
    println!(
        "\nimputation over {} masked cells:\n  CRR    rmse {:.3} in {:?}\n  RegTree rmse {:.3} in {:?}",
        plan.len(),
        crr_imp.rmse,
        crr_imp.time,
        tree_imp.rmse,
        tree_imp.time
    );
}
