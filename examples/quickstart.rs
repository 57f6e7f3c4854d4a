//! Quickstart: discover conditional regression rules on a small mixed
//! distribution, inspect them, and evaluate prediction error.
//!
//! Run with: `cargo run --release --example quickstart`

// Example code: unwraps keep the walkthrough focused on the API.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use crr::prelude::*;

fn main() {
    // Build a small table by hand: a quantity that follows two different
    // linear laws depending on the regime — the "mixed data distribution"
    // the paper opens with. The two regimes share their slope, so CRR
    // discovery can reuse one model for both.
    let schema = Schema::new(vec![("hour", AttrType::Int), ("load", AttrType::Float)]);
    let mut table = Table::new(schema);
    for hour in 0..240i64 {
        let phase = hour % 24;
        // Night: flat 1.0. Day: ramp with slope 0.5, restarting daily.
        let load = if phase < 8 {
            1.0
        } else {
            0.5 * (phase - 8) as f64 + 2.0
        };
        table
            .push_row(vec![Value::Int(hour), Value::Float(load)])
            .expect("schema match");
    }
    let hour = table.attr("hour").unwrap();
    let load = table.attr("load").unwrap();

    // 1. A predicate space over the condition attribute (binary splits).
    let space = PredicateGen::binary(127).generate(&table, &[hour], load, 0);
    println!("predicate space: {} predicates", space.len());

    // 2. Discover (Algorithm 1): load ~ f(hour) with max bias 0.05.
    let cfg = DiscoveryConfig::new(vec![hour], load, 0.05);
    let found = DiscoverySession::on(&table)
        .predicates(space)
        .config(cfg)
        .run()
        .expect("discovery");
    println!(
        "discovered {} rules ({} models trained, {} shared, {:?})",
        found.rules.len(),
        found.stats.models_trained,
        found.stats.models_shared,
        found.stats.learning_time,
    );

    // 3. Compact (Algorithm 2): merge rules sharing (translations of) the
    //    same model into DNF conditions.
    let (rules, stats) = compact(&found.rules, 1e-6).expect("compaction");
    println!(
        "compacted {} -> {} rules ({} translations, {} fusions)",
        stats.rules_in, stats.rules_out, stats.translations, stats.fusions
    );

    // 4. Inspect the concise rule set.
    println!("\nrules:\n{}", rules.display(table.schema()));

    // 5. Evaluate.
    let report = rules.evaluate(&table, &table.all_rows());
    println!(
        "coverage {}/{}, rmse {:.6}, mae {:.6}",
        report.covered, report.total, report.rmse, report.mae
    );
    assert!(rules.uncovered(&table, &table.all_rows()).is_empty());
}
