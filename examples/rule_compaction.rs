//! Rule compaction on an exported regression tree (the Figure 9 setup).
//!
//! A model tree's leaves are conjunction-conditioned CRRs; exporting them
//! and running Algorithm 2 merges leaves whose models are translations of
//! each other — something no tree pruning can do, because the leaves lie
//! in different branches.
//!
//! Run with: `cargo run --release --example rule_compaction`

// Example code: unwraps keep the walkthrough focused on the API.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use crr::baselines::{RegTree, RegTreeConfig};
use crr::discovery::compact_on_data;
use crr::discovery::pruning::prune;
use crr::prelude::*;

fn main() {
    // Electricity: the same daily regime schedule repeats day after day,
    // so tree leaves for different days hold translated copies of the same
    // linear model.
    let ds = crr::datasets::electricity(&GenConfig {
        rows: 4 * 1_440,
        seed: 5,
    });
    let table = &ds.table;
    let minute = table.attr("minute").unwrap();
    let power = table.attr("global_active_power").unwrap();

    let tree = RegTree::fit(
        table,
        &table.all_rows(),
        &[minute],
        &[minute],
        power,
        &RegTreeConfig {
            max_depth: 7,
            min_leaf: 16,
            ..Default::default()
        },
    )
    .expect("regtree");
    let tree_rules = tree.to_ruleset().expect("export");
    println!(
        "regression tree: {} leaves -> {} rules, {} distinct models",
        tree.num_leaves(),
        tree_rules.len(),
        tree_rules.num_distinct_models()
    );

    // Algorithm 2: translation + fusion, validated against the data so a
    // near-equal-slope rewrite is only kept when it stays within rho_M.
    let rho_max = 3.0 * crr::datasets::electricity::NOISE;
    let (compacted, stats) =
        compact_on_data(&tree_rules, 0.05, rho_max, table, &table.all_rows()).expect("compaction");
    println!(
        "compacted: {} -> {} rules ({} translations, {} fusions) in {:?}",
        stats.rules_in, stats.rules_out, stats.translations, stats.fusions, stats.time
    );

    // χ²-based condition post-pruning (the paper's future-work §VII).
    let (pruned, pstats) = prune(&compacted, table, &table.all_rows());
    println!(
        "pruning: removed {} predicates out of {} attempts",
        pstats.predicates_removed, pstats.attempts
    );

    // Semantics are preserved throughout.
    let before = tree_rules.evaluate(table, &table.all_rows());
    let after = pruned.evaluate(table, &table.all_rows());
    println!(
        "\nrmse before {:.4} (covered {}) vs after {:.4} (covered {})",
        before.rmse, before.covered, after.rmse, after.covered
    );
    println!(
        "rule count {} -> {} ({}x fewer)",
        tree_rules.len(),
        pruned.len(),
        tree_rules.len() as f64 / pruned.len().max(1) as f64
    );
}
