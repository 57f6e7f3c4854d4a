//! `crr` — command-line front end for conditional regression rules.
//!
//! ```text
//! crr generate --dataset tax --rows 5000 --seed 1 --output tax.csv
//! crr discover --input tax.csv --target tax --features salary \
//!              --conditions state,salary --rho 3.0 --output rules.txt
//! crr show     --rules rules.txt --input tax.csv
//! crr evaluate --input tax.csv --rules rules.txt
//! crr check    --input tax.csv --rules rules.txt
//! crr impute   --input tax_with_gaps.csv --rules rules.txt \
//!              --target tax --output repaired.csv
//! ```
//!
//! Flags are `--name value` pairs; `crr <command> --help` lists them.

use crr::core::{check, serialize, RuleSet};
use crr::data::{csv, Table};
use crr::discovery::{
    compact_on_data, DiscoveryConfig, DiscoverySession, PredicateGen, QueueOrder,
};
use crr::models::ModelKind;
use crr::prelude::*;
use std::collections::HashMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let flags = match parse_flags(rest) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match command.as_str() {
        "generate" => cmd_generate(&flags),
        "discover" => cmd_discover(&flags),
        "show" => cmd_show(&flags),
        "evaluate" => cmd_evaluate(&flags),
        "check" => cmd_check(&flags),
        "impute" => cmd_impute(&flags),
        "--help" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command: {other}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
crr — conditional regression rules

commands:
  generate  --dataset <birdmap|airquality|electricity|tax|abalone>
            --rows N [--seed S] --output data.csv
  discover  --input data.csv --target Y --features X1,X2
            [--conditions A,B]  [--rho R]  [--model linear|ridge|mlp]
            [--predicates N]    [--order decrease|increase|random]
            [--no-compact]      --output rules.txt
  show      --rules rules.txt --input data.csv
  evaluate  --input data.csv --rules rules.txt
  check     --input data.csv --rules rules.txt
  impute    --input data.csv --rules rules.txt --target Y
            --output repaired.csv";

fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(name) = a.strip_prefix("--") else {
            return Err(format!("expected --flag, got: {a}"));
        };
        if name == "no-compact" || name == "help" {
            flags.insert(name.to_string(), "true".to_string());
            continue;
        }
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name.to_string(), value.clone());
    }
    Ok(flags)
}

fn required<'a>(flags: &'a HashMap<String, String>, name: &str) -> Result<&'a str, String> {
    flags
        .get(name)
        .map(String::as_str)
        .ok_or_else(|| format!("missing required flag --{name}"))
}

fn load_table(flags: &HashMap<String, String>) -> Result<Table, String> {
    let path = required(flags, "input")?;
    csv::read_csv_path(path).map_err(|e| format!("reading {path}: {e}"))
}

fn load_rules(flags: &HashMap<String, String>) -> Result<RuleSet, String> {
    let path = required(flags, "rules")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    serialize::from_text(&text).map_err(|e| format!("parsing {path}: {e}"))
}

fn attr_list(table: &Table, csv_names: &str) -> Result<Vec<AttrId>, String> {
    csv_names
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|n| table.attr(n).map_err(|e| e.to_string()))
        .collect()
}

fn cmd_generate(flags: &HashMap<String, String>) -> Result<(), String> {
    let name = required(flags, "dataset")?;
    let rows: usize = required(flags, "rows")?
        .parse()
        .map_err(|_| "--rows must be a number".to_string())?;
    let seed: u64 = flags.get("seed").map_or(Ok(42), |s| {
        s.parse().map_err(|_| "--seed must be a number".to_string())
    })?;
    let output = required(flags, "output")?;
    let cfg = GenConfig { rows, seed };
    let ds = match name {
        "birdmap" => crr::datasets::birdmap(&cfg),
        "airquality" => crr::datasets::airquality(&cfg),
        "electricity" => crr::datasets::electricity(&cfg),
        "tax" => crr::datasets::tax(&cfg),
        "abalone" => crr::datasets::abalone(&cfg),
        other => return Err(format!("unknown dataset: {other}")),
    };
    csv::write_csv_path(&ds.table, output).map_err(|e| e.to_string())?;
    println!(
        "wrote {} rows x {} cols of {} to {output}",
        ds.num_rows(),
        ds.num_cols(),
        ds.name
    );
    Ok(())
}

fn cmd_discover(flags: &HashMap<String, String>) -> Result<(), String> {
    let table = load_table(flags)?;
    let target = table
        .attr(required(flags, "target")?)
        .map_err(|e| e.to_string())?;
    let inputs = attr_list(&table, required(flags, "features")?)?;
    let condition_attrs = match flags.get("conditions") {
        Some(names) => attr_list(&table, names)?,
        None => inputs.clone(),
    };
    let rho: f64 = flags.get("rho").map_or(Ok(1.0), |s| {
        s.parse().map_err(|_| "--rho must be a number".to_string())
    })?;
    let per_attr: usize = flags.get("predicates").map_or(Ok(127), |s| {
        s.parse()
            .map_err(|_| "--predicates must be a number".to_string())
    })?;
    let kind = match flags.get("model").map(String::as_str) {
        None | Some("linear") => ModelKind::Linear,
        Some("ridge") => ModelKind::Ridge,
        Some("mlp") => ModelKind::Mlp,
        Some(other) => return Err(format!("unknown model family: {other}")),
    };
    let order = match flags.get("order").map(String::as_str) {
        None | Some("decrease") => QueueOrder::Decrease,
        Some("increase") => QueueOrder::Increase,
        Some("random") => QueueOrder::Random(7),
        Some(other) => return Err(format!("unknown order: {other}")),
    };
    let output = required(flags, "output")?;

    let space = PredicateGen::binary(per_attr).generate(&table, &condition_attrs, target, 11);
    let cfg = DiscoveryConfig::new(inputs, target, rho)
        .with_kind(kind)
        .with_order(order);
    let rows = table.all_rows();
    let found = DiscoverySession::on(&table)
        .predicates(space)
        .config(cfg)
        .run()
        .map_err(|e| e.to_string())?;
    println!(
        "discovered {} rules ({} models trained, {} shared) in {:?}",
        found.rules.len(),
        found.stats.models_trained,
        found.stats.models_shared,
        found.stats.learning_time
    );
    let rules = if flags.contains_key("no-compact") {
        found.rules
    } else {
        let (compacted, stats) =
            compact_on_data(&found.rules, 1e-6, rho, &table, &rows).map_err(|e| e.to_string())?;
        println!(
            "compacted to {} rules ({} translations, {} fusions) in {:?}",
            compacted.len(),
            stats.translations,
            stats.fusions,
            stats.time
        );
        compacted
    };
    std::fs::write(output, serialize::to_text(&rules)).map_err(|e| e.to_string())?;
    println!("wrote rules to {output}");
    Ok(())
}

fn cmd_show(flags: &HashMap<String, String>) -> Result<(), String> {
    let table = load_table(flags)?;
    let rules = load_rules(flags)?;
    print!("{}", rules.display(table.schema()));
    println!(
        "{} rules, {} distinct models, {} conjunctions",
        rules.len(),
        rules.num_distinct_models(),
        rules.total_conjuncts()
    );
    Ok(())
}

fn cmd_evaluate(flags: &HashMap<String, String>) -> Result<(), String> {
    let table = load_table(flags)?;
    let rules = load_rules(flags)?;
    let report = rules.evaluate(&table, &table.all_rows());
    println!(
        "rows {} covered {} scored {} rmse {:.6} mae {:.6}",
        report.total, report.covered, report.scored, report.rmse, report.mae
    );
    Ok(())
}

fn cmd_check(flags: &HashMap<String, String>) -> Result<(), String> {
    let table = load_table(flags)?;
    let rules = load_rules(flags)?;
    let report = check(&rules, &table, &table.all_rows());
    println!(
        "checked {} rows ({} uncovered): {} violations",
        report.checked,
        report.uncovered,
        report.violations.len()
    );
    for v in report.violations.iter().take(20) {
        println!(
            "  row {} rule {}: actual {:.4}, predicted {:.4}, deviation {:.4}",
            v.row, v.rule, v.actual, v.predicted, v.deviation
        );
    }
    if report.violations.len() > 20 {
        println!("  ... and {} more", report.violations.len() - 20);
    }
    Ok(())
}

fn cmd_impute(flags: &HashMap<String, String>) -> Result<(), String> {
    let mut table = load_table(flags)?;
    let rules = load_rules(flags)?;
    let target = table
        .attr(required(flags, "target")?)
        .map_err(|e| e.to_string())?;
    let output = required(flags, "output")?;
    let missing_before = table.column(target).null_count();
    let filled = crr::impute::fill_missing(&mut table, &rules, target);
    csv::write_csv_path(&table, output).map_err(|e| e.to_string())?;
    println!("filled {filled} of {missing_before} missing cells; wrote {output}",);
    Ok(())
}
