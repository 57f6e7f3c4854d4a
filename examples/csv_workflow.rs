//! End-to-end CSV workflow: load a table from CSV, discover rules, save
//! the rule set to disk, reload it and keep predicting — the interchange
//! path a production deployment would use.
//!
//! Run with: `cargo run --release --example csv_workflow`

// Example code: unwraps keep the walkthrough focused on the API.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use crr::core::serialize;
use crr::data::csv;
use crr::prelude::*;

fn main() {
    // Pretend this CSV came from an external pipeline.
    let csv_text = build_sample_csv();
    let table = csv::read_csv(csv_text.as_bytes()).expect("parse csv");
    println!(
        "loaded {} rows x {} cols; schema:",
        table.num_rows(),
        table.num_cols()
    );
    for (_, attr) in table.schema().iter() {
        println!("  {}: {}", attr.name(), attr.ty());
    }

    let day = table.attr("day").unwrap();
    let sales = table.attr("sales").unwrap();

    // Discover and compact.
    let space = PredicateGen::binary(127).generate(&table, &[day], sales, 0);
    let cfg = DiscoveryConfig::new(vec![day], sales, 1.0);
    let found = DiscoverySession::on(&table)
        .predicates(space)
        .config(cfg)
        .run()
        .expect("discover");
    let (rules, _) = compact(&found.rules, 1e-6).expect("compact");
    println!("\ndiscovered + compacted: {} rules", rules.len());

    // Serialize to the text interchange format and back.
    let text = serialize::to_text(&rules);
    let path = std::env::temp_dir().join("crr_rules.txt");
    std::fs::write(&path, &text).expect("write rules");
    println!("wrote rules to {} ({} bytes)", path.display(), text.len());

    let reloaded =
        serialize::from_text(&std::fs::read_to_string(&path).expect("read")).expect("parse rules");
    assert_eq!(reloaded.len(), rules.len());

    // Reloaded rules predict identically.
    for row in (0..table.num_rows()).step_by(17) {
        let a = rules.predict(&table, row);
        let b = reloaded.predict(&table, row);
        assert_eq!(a, b, "row {row}");
    }
    let report = reloaded.evaluate(&table, &table.all_rows());
    println!(
        "reloaded rules: coverage {}/{}, rmse {:.4}",
        report.covered, report.total, report.rmse
    );

    // And the table itself round-trips through CSV.
    let mut out = Vec::new();
    csv::write_csv(&table, &mut out).expect("write csv");
    let back = csv::read_csv(out.as_slice()).expect("reread csv");
    assert_eq!(back.num_rows(), table.num_rows());
    println!("csv round-trip ok");
}

/// Weekly sales pattern: weekdays ramp, weekends flat — repeated weekly.
fn build_sample_csv() -> String {
    let mut s = String::from("day,store,sales\n");
    for day in 0..140i64 {
        let dow = day % 7;
        let sales = if dow < 5 {
            100.0 + 20.0 * dow as f64
        } else {
            60.0
        };
        s.push_str(&format!("{day},main,{sales}\n"));
    }
    s
}
