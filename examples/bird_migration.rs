//! The paper's running example: seasonal bird migration.
//!
//! Discovers CRRs for `latitude ~ f(date)` on the BirdMap stand-in for one
//! bird, shows that the *same* migration model recurs across years as
//! translated rules (the paper's φ₃ with `x = 744`), and uses the rules to
//! impute held-out GPS fixes (the missing `t₆` of Table I).
//!
//! Run with: `cargo run --release --example bird_migration`

// Example code: unwraps keep the walkthrough focused on the API.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use crr::impute::{impute_interval, impute_with_rules, mask_random};
use crr::prelude::*;

fn main() {
    // Three years of observations for a handful of birds.
    let ds = crr::datasets::birdmap(&GenConfig {
        rows: 6 * 3 * 365,
        seed: 42,
    });
    let table = &ds.table;
    let date = table.attr("date").unwrap();
    let bird = table.attr("bird").unwrap();
    let lat = table.attr("latitude").unwrap();

    // Focus on one bird — 2.Maria, as in the paper's Figure 1.
    let maria = Conjunction::of(vec![Predicate::eq(bird, Value::str("2.Maria"))])
        .select(table, &table.all_rows());
    println!(
        "2.Maria: {} observations over {} days",
        maria.len(),
        3 * 365
    );

    // Expert predicates: the true season boundaries (Table III's "Expert").
    let boundaries: Vec<(String, Vec<f64>)> = ds
        .expert_boundaries
        .iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect();
    let space = PredicateGen::expert(boundaries).generate(table, &[date], lat, 0);

    // Discover with the GPS noise bound as rho_max.
    let cfg = DiscoveryConfig::new(vec![date], lat, 2.0 * crr::datasets::birdmap::NOISE);
    let found = DiscoverySession::on(table)
        .rows(maria.clone())
        .predicates(space)
        .config(cfg)
        .run()
        .expect("discovery");
    println!(
        "search: {} rules, {} trained, {} shared",
        found.rules.len(),
        found.stats.models_trained,
        found.stats.models_shared
    );

    let (rules, stats) = compact(&found.rules, 0.05).expect("compaction");
    println!(
        "compaction: {} -> {} rules via {} translations + {} fusions\n",
        stats.rules_in, stats.rules_out, stats.translations, stats.fusions
    );

    // Show the shared models: rules whose conditions carry built-in
    // translation predicates apply one model to several seasons/years.
    for (i, rule) in rules.rules().iter().enumerate() {
        let shared_parts = rule
            .condition()
            .conjuncts()
            .iter()
            .filter(|c| c.builtin().is_some())
            .count();
        println!(
            "rule {i}: {} conjunction(s), {} translated part(s), rho = {:.3}",
            rule.condition().conjuncts().len(),
            shared_parts,
            rule.rho()
        );
    }

    let report = rules.evaluate(table, &maria);
    println!(
        "\nevaluation: coverage {}/{}, rmse {:.4}",
        report.covered, report.total, report.rmse
    );

    // Impute missing GPS fixes, like t6 in the paper's Table I — within
    // the bird the rules were discovered for.
    let mut masked_table = table.subset(&maria);
    let masked_lat = masked_table.attr("latitude").unwrap();
    let plan = mask_random(&mut masked_table, masked_lat, 0.05, 7);
    let imputation = impute_with_rules(&masked_table, &rules, &plan);
    println!(
        "imputation: {} cells, rmse {:.4}, {:?}",
        imputation.imputed, imputation.rmse, imputation.time
    );

    // Rules are constraints, so an imputation comes with a certificate:
    // the true value lies within ± rho of the estimate.
    if let Some(&(row, original)) = plan.masked().first() {
        let cert = impute_interval(&masked_table, &rules, row).expect("covered");
        let (lo, hi) = cert.interval();
        println!(
            "certified: row {row} latitude in [{lo:.3}, {hi:.3}] (truth {original:.3}, inside: {})",
            cert.contains(original)
        );
    }
}
