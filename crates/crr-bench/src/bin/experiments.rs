//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation section (§VI).
//!
//! ```text
//! cargo run --release -p crr-bench --bin experiments -- all
//! cargo run --release -p crr-bench --bin experiments -- fig2 fig9 table3
//! cargo run --release -p crr-bench --bin experiments -- --scale 0.2 all
//! cargo run --release -p crr-bench --bin experiments -- --time-budget 500 --max-fits 200 fig3
//! ```
//!
//! `--time-budget <ms>` / `--max-fits <n>` bound every discovery run in
//! the process; runs that trip the budget degrade gracefully (best-so-far
//! rules, fallback constants for the rest) and log a `[budget]` note.
//!
//! Beyond the paper artifacts there is a tracked benchmark, excluded from
//! `all`:
//!
//! ```text
//! cargo run --release -p crr-bench --bin experiments -- bench
//! cargo run --release -p crr-bench --bin experiments -- --bench-json out.json bench
//! cargo run --release -p crr-bench --bin experiments -- --check BENCH_discovery.json
//! ```
//!
//! `bench` times discovery on Electricity and Tax at three sizes each,
//! plus sharded cells per dataset at the largest size (1-shard baseline vs
//! `--shards N` key-range shards, default 4, under both equal-width and
//! quantile boundary placement, through the cross-shard model pool and the
//! Algorithm 2 merge, timed in paired rounds), and writes the result to
//! `BENCH_discovery.json` (or the `--bench-json` path).
//!
//! `--check <path>` re-parses any previously written tracked artifact and
//! fails the process unless it is complete and finite — the CI gate. The
//! file's own `schema` tag picks the validator, so one flag covers every
//! artifact. An unknown flag or experiment name fails with a usage line
//! rather than being skipped.
//!
//! Observability artifacts ride along:
//!
//! ```text
//! cargo run --release -p crr-bench --bin experiments -- --metrics-out metrics.json bench
//! cargo run --release -p crr-bench --bin experiments -- --check metrics.json
//! ```
//!
//! `--metrics-out` re-runs each bench cell with an enabled `MetricsSink`
//! (timed reps stay uninstrumented) — 5 times at full scale, keeping the
//! run whose `phases.total_secs` is the median, once at smoke scales —
//! adds a fault-harness cell with one injected fit failure, asserts the
//! counter invariants in-process (every counter repeats across the runs,
//! no run rescans rows, cross-shard pool hits + misses reconcile with
//! probes, the injected-fault count matches the plan), and writes the
//! kept snapshots as `metrics.json`.
//! `--check` re-validates such a file — see EXPERIMENTS.md,
//! section "Benchmark artifact schemas", for both layouts.
//!
//! Static verification (also excluded from `all`):
//!
//! ```text
//! cargo run --release -p crr-bench --bin experiments -- analyze
//! cargo run --release -p crr-bench --bin experiments -- --analysis-json out.json analyze
//! cargo run --release -p crr-bench --bin experiments -- --check analysis.json
//! ```
//!
//! `analyze` discovers rules on Electricity and Tax — once unsharded,
//! once under a key-range shard plan — plus one stream-repaired
//! Electricity artifact (a regime-changed tail driven through
//! `crr-stream`'s repair), and runs `crr-analyze`'s seven static checks
//! (satisfiability, subsumption, shard-guard soundness, inference audit,
//! ρ-monotonicity, compile equivalence, repair obligations) over each
//! artifact — the sharded ones against their emitted proof obligations,
//! the repaired one against its bundled repair obligations. The reports
//! are written as `analysis.json` (or the `--analysis-json` path); any
//! `unsound` finding aborts in-process. `--check` re-validates
//! such a file — the CI gate refusing artifacts that fail their own
//! verification.
//!
//! Artifact-level verification rides along:
//!
//! ```text
//! cargo run --release -p crr-bench --bin experiments -- --artifact-out repaired.crr analyze
//! cargo run --release -p crr-bench --bin experiments -- --analyze-artifact repaired.crr
//! cargo run --release -p crr-bench --bin experiments -- --mutate-repair-guard repaired.crr
//! ```
//!
//! `--artifact-out <path>` makes `analyze` (and `stream`) persist the
//! stream-repaired artifact text. `--analyze-artifact <path>` re-runs the
//! full A1–A7 battery over such a file and fails unless it is sound.
//! `--mutate-repair-guard <path>` is the A7 mutation smoke: it strips the
//! guards off every repaired rule and fails unless the verifier refuses
//! the result with an `unsound` repair-obligations finding — proving the
//! gate actually bites.
//!
//! The serving benchmark (also excluded from `all`):
//!
//! ```text
//! cargo run --release -p crr-bench --bin experiments -- serving
//! cargo run --release -p crr-bench --bin experiments -- --serving-json out.json serving
//! cargo run --release -p crr-bench --bin experiments -- --check BENCH_serving.json
//! ```
//!
//! `serving` discovers a rule set on Electricity, stands up a live
//! `crr-serve` server over the exported artifact, and measures it with
//! the closed-loop load generator: smoke cells (within capacity — must be
//! loss-free: zero sheds, zero deadline timeouts, every request `200`) on
//! `/v1/predict` and `/v1/check`, an overload cell (more clients than
//! `max_in_flight` — must shed `503`s, never reset connections), and a
//! hot-swap churn cell that drives accepted and rejected swaps while
//! pinning in-flight answers byte-identical to offline evaluation. The
//! result is written as `BENCH_serving.json`; `--check`
//! re-validates it — the CI gate for the serving runtime.
//!
//! The streaming-maintenance benchmark (also excluded from `all`):
//!
//! ```text
//! cargo run --release -p crr-bench --bin experiments -- stream
//! cargo run --release -p crr-bench --bin experiments -- --stream-json out.json stream
//! cargo run --release -p crr-bench --bin experiments -- --check BENCH_stream.json
//! ```
//!
//! `stream` discovers on a base slice of Electricity and Tax, replays an
//! appended tail through a `crr-stream` maintainer (batched appends, then
//! one partition-scoped repair), and measures the same end state reached
//! by full rediscovery over base+tail. The repaired artifact must pass
//! `crr-analyze`, hot-swap into a live `crr-serve` server, and serve
//! predictions byte-identical to offline evaluation; at the Electricity
//! headline scale the incremental path must beat rediscovery by the
//! `crr-stream-v1` speedup floor. The result is written as
//! `BENCH_stream.json`; `--check` re-validates it.
//!
//! Absolute numbers differ from the paper (different hardware, synthetic
//! stand-in datasets); the *shape* — who wins, by what factor, where
//! crossovers fall — is what EXPERIMENTS.md records and compares.

// CLI harness: panicking on setup/IO failure is the failure mode we want,
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::type_complexity)]

use crr_baselines::{RegTree, RegTreeConfig};
use crr_bench::*;
use crr_data::{Boundary, RowSet, ShardSpec, Table};
use crr_datasets::{abalone, airquality, birdmap, electricity, paper_sizes, tax, GenConfig};
use crr_discovery::{
    compact_on_data, DiscoveryConfig, DiscoveryError, DiscoverySession, PredicateGen,
    PredicateSpace, QueueOrder, ShardedDiscovery,
};
use crr_impute::{impute_with_rules, mask_random};
use crr_models::ModelKind;
use std::time::Instant;

/// One single-shard discovery run through the session front door, used at
/// every untimed call site. Timed sites build the session *before* starting
/// the clock so the builder clones stay out of the measurement.
fn run_discovery(
    table: &Table,
    rows: &RowSet,
    cfg: &DiscoveryConfig,
    space: &PredicateSpace,
) -> Result<ShardedDiscovery, DiscoveryError> {
    DiscoverySession::on(table)
        .rows(rows.clone())
        .predicates(space.clone())
        .config(cfg.clone())
        .run()
}

/// Runs one instrumented discovery `reps` times and keeps the run whose
/// `phases.total_secs` is the median. Every counter must repeat exactly
/// across the runs; gauges may differ (`run.pool_models` is a last-writer
/// gauge in sharded runs), and the kept run's are the ones written.
fn median_instrumented(
    reps: usize,
    cell: &str,
    mut run: impl FnMut() -> ShardedDiscovery,
) -> ShardedDiscovery {
    use crr_obs::{MetricValue, MetricsSnapshot};
    let counters = |m: &MetricsSnapshot| -> Vec<(String, String, u64)> {
        m.sections
            .iter()
            .flat_map(|s| {
                s.entries.iter().filter_map(|(name, v)| match v {
                    MetricValue::Count(c) => Some((s.name.clone(), name.clone(), *c)),
                    _ => None,
                })
            })
            .collect()
    };
    let mut runs: Vec<ShardedDiscovery> = (0..reps).map(|_| run()).collect();
    let first = counters(&runs[0].metrics);
    for (i, r) in runs.iter().enumerate().skip(1) {
        assert_eq!(
            counters(&r.metrics),
            first,
            "{cell}: instrumented run {i} counted differently from run 0"
        );
    }
    let total = |d: &ShardedDiscovery| {
        d.metrics
            .secs("phases", "total_secs")
            .expect("an instrumented run records phases.total_secs")
    };
    runs.sort_by(|a, b| total(a).total_cmp(&total(b)));
    runs.swap_remove(reps / 2)
}

/// `--check <path>`: one gate for every tracked artifact, through
/// [`check_artifact`]. The file's own `schema` tag picks the validator.
///
/// Prints the validator's summary and returns on success; prints the first
/// violation and exits non-zero otherwise.
fn check_file(path: &str) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    match check_artifact(&text) {
        Ok(summary) => println!("{path}: {summary}"),
        Err(e) => {
            eprintln!("{path}: INVALID: {e}");
            eprintln!(
                "(the expected layout is documented in EXPERIMENTS.md, \
                 section \"Benchmark artifact schemas\")"
            );
            std::process::exit(1);
        }
    }
}

/// `--analyze-artifact <path>`: parse a `crr-artifact v1` file, run the
/// full verifier battery (A1–A7) and fail the process unless the artifact
/// is sound. The row-free analogue of `--check` for rule-set artifacts.
fn analyze_artifact_cmd(path: &str) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    let artifact = crr_discovery::RuleSetArtifact::from_text(&text)
        .unwrap_or_else(|e| panic!("{path}: not a rule-set artifact: {e}"));
    let report = crr_analyze::analyze_artifact(&artifact);
    for f in &report.findings {
        println!("  {f}");
    }
    let s = report.summary();
    println!(
        "{path}: rules={} conjuncts={} compile-equiv={} repair-regions={} \
         findings: {} unsound, {} redundant, {} hygiene",
        report.rules,
        report.conjuncts,
        report.counters.compile_equiv_checks,
        report.counters.repair_regions,
        s.unsound,
        s.redundant,
        s.hygiene
    );
    if !report.is_sound() {
        eprintln!("{path}: INVALID: artifact fails its own static verification");
        std::process::exit(1);
    }
}

/// `--mutate-repair-guard <path>`: the A7 mutation smoke. Strips the
/// guards off every repaired rule of the artifact and requires the
/// verifier to refuse the mutant with an `unsound` repair-obligations
/// finding. Exits non-zero when the artifact has nothing to mutate or —
/// the regression this gate exists for — when the mutant slips through.
fn mutate_repair_guard_cmd(path: &str) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    let artifact = crr_discovery::RuleSetArtifact::from_text(&text)
        .unwrap_or_else(|e| panic!("{path}: not a rule-set artifact: {e}"));
    let Some(mutated) = crr_serve::client::strip_repair_guards(&artifact) else {
        eprintln!("{path}: INVALID: artifact carries no strippable repair guards to mutate");
        std::process::exit(1);
    };
    let report = crr_analyze::analyze_artifact(&mutated);
    let caught = report.findings.iter().any(|f| {
        f.check == crr_analyze::Check::RepairObligations
            && f.severity == crr_analyze::Severity::Unsound
    });
    if caught {
        println!("{path}: mutation caught — stripped repair guard flagged unsound by A7");
    } else {
        eprintln!(
            "{path}: INVALID: stripped repair guard was NOT caught ({:?})",
            report.findings
        );
        std::process::exit(1);
    }
}

/// The paper's tables and figures, in the order `all` (or no experiment
/// argument) runs them.
const PAPER_EXPERIMENTS: [&str; 13] = [
    "table2", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "table3",
    "table4", "ablation",
];

/// Tracked benchmarks, run only when named.
const TRACKED_EXPERIMENTS: [&str; 4] = ["bench", "analyze", "serving", "stream"];

/// Rejects the command line: prints `msg` and a usage line, exits 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("experiments: {msg}");
    eprintln!(
        "usage: experiments [--scale F] [--time-budget MS] [--max-fits N] [--shards N] \
         [--bench-json P] [--metrics-out P] [--analysis-json P] [--serving-json P] \
         [--stream-json P] [--artifact-out P] [all | EXPERIMENT...]"
    );
    eprintln!(
        "       experiments --check ARTIFACT | --analyze-artifact P | --mutate-repair-guard P"
    );
    eprintln!(
        "EXPERIMENT is one of: all {} {}",
        PAPER_EXPERIMENTS.join(" "),
        TRACKED_EXPERIMENTS.join(" ")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = 1.0f64;
    let mut budget = crr_discovery::Budget::unlimited();
    let mut bench_json_path = "BENCH_discovery.json".to_string();
    let mut analysis_json_path = "analysis.json".to_string();
    let mut serving_json_path = "BENCH_serving.json".to_string();
    let mut stream_json_path = "BENCH_stream.json".to_string();
    let mut metrics_out: Option<String> = None;
    let mut artifact_out: Option<String> = None;
    let mut shards = 4usize;
    let mut experiments: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--bench-json" => {
                bench_json_path = it.next().expect("--bench-json needs a path").clone();
            }
            "--check" => {
                let path = it.next().expect("--check needs an artifact path");
                check_file(path);
                return;
            }
            "--analysis-json" => {
                analysis_json_path = it.next().expect("--analysis-json needs a path").clone();
            }
            "--artifact-out" => {
                artifact_out = Some(it.next().expect("--artifact-out needs a path").clone());
            }
            "--analyze-artifact" => {
                let path = it.next().expect("--analyze-artifact needs a path");
                analyze_artifact_cmd(path);
                return;
            }
            "--mutate-repair-guard" => {
                let path = it.next().expect("--mutate-repair-guard needs a path");
                mutate_repair_guard_cmd(path);
                return;
            }
            "--serving-json" => {
                serving_json_path = it.next().expect("--serving-json needs a path").clone();
            }
            "--stream-json" => {
                stream_json_path = it.next().expect("--stream-json needs a path").clone();
            }
            "--metrics-out" => {
                metrics_out = Some(it.next().expect("--metrics-out needs a path").clone());
            }
            "--scale" => {
                scale = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--scale needs a number");
            }
            "--shards" => {
                shards = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 2)
                    .expect("--shards needs a count >= 2");
            }
            "--time-budget" => {
                let ms: u64 = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--time-budget needs milliseconds");
                budget = budget.with_deadline(std::time::Duration::from_millis(ms));
            }
            "--max-fits" => {
                let n: usize = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--max-fits needs a count");
                budget = budget.with_max_fits(n);
            }
            flag if flag.starts_with('-') => usage_error(&format!("unknown flag '{flag}'")),
            name if name == "all"
                || PAPER_EXPERIMENTS.contains(&name)
                || TRACKED_EXPERIMENTS.contains(&name) =>
            {
                experiments.push(name.to_string());
            }
            name => usage_error(&format!("unknown experiment '{name}'")),
        }
    }
    if !budget.is_unlimited() {
        // Every discovery run in this process degrades gracefully at the
        // budget instead of running unbounded; degraded runs log a
        // "[budget]" note with their outcome.
        set_global_budget(budget);
    }
    if experiments.is_empty() || experiments.iter().any(|e| e == "all") {
        experiments = PAPER_EXPERIMENTS.iter().map(|e| e.to_string()).collect();
    }
    let total = Instant::now();
    for exp in &experiments {
        let start = Instant::now();
        match exp.as_str() {
            "table2" => table2(scale),
            "fig2" => fig2(scale),
            "fig3" => fig3(scale),
            "fig4" => fig4(scale),
            "fig5" => fig5(scale),
            "fig6" => fig6(scale),
            "fig7" => fig7(scale),
            "fig8" => fig8(scale),
            "fig9" => fig9(scale),
            "fig10" => fig10(scale),
            "table3" => table3(scale),
            "table4" => table4(scale),
            "ablation" => ablation(scale),
            "bench" => bench(scale, &bench_json_path, metrics_out.as_deref(), shards),
            "analyze" => analyze_cmd(scale, &analysis_json_path, shards, artifact_out.as_deref()),
            "serving" => serving_cmd(scale, &serving_json_path),
            "stream" => stream_cmd(scale, &stream_json_path, artifact_out.as_deref()),
            other => unreachable!("experiment '{other}' passed argument validation"),
        }
        eprintln!("[{exp} took {:?}]", start.elapsed());
    }
    eprintln!("\n[all requested experiments took {:?}]", total.elapsed());
}

fn scaled(n: usize, scale: f64) -> usize {
    ((n as f64 * scale) as usize).max(100)
}

/// Table II: dataset statistics.
fn table2(scale: f64) {
    let mut rows = Vec::new();
    let gens: [(&str, fn(&GenConfig) -> crr_datasets::Dataset, usize); 5] = [
        ("AirQuality", airquality, paper_sizes::AIRQUALITY),
        ("Electricity", electricity, paper_sizes::ELECTRICITY),
        ("BirdMap", birdmap, paper_sizes::BIRDMAP),
        ("Tax", tax, paper_sizes::TAX),
        ("Abalone", abalone, paper_sizes::ABALONE),
    ];
    for (_, make, full) in gens {
        let ds = make(&GenConfig {
            rows: scaled(full, scale),
            seed: 42,
        });
        let (name, r, c, cat) = ds.stats();
        rows.push(vec![
            name.to_string(),
            format!("{:.1}k", r as f64 / 1e3),
            c.to_string(),
            cat.to_string(),
        ]);
    }
    print_table(
        "Table II: dataset statistics",
        &["Dataset", "#Row", "#Column", "Category"],
        &rows,
    );
}

/// Shared runner for Figures 2–4: instance scalability vs. baselines.
fn scalability_figure(
    title: &str,
    make: impl Fn(usize) -> Scenario,
    sizes: &[usize],
    baselines: &[BaselineKind],
    crr_opts: &CrrOptions,
) {
    let mut rows = Vec::new();
    let max = *sizes.last().expect("sizes non-empty");
    let sc = make(max);
    for &n in sizes {
        let inst = sc.instance(n);
        let (crr, _) = measure_crr(&sc, &inst, crr_opts);
        rows.push(result_row(&crr, n));
        for &b in baselines {
            let r = measure_baseline(&sc, &inst, b);
            rows.push(result_row(&r, n));
        }
    }
    print_table(
        title,
        &["Method", "|I|", "Learn(s)", "Eval(ms)", "#Rules", "RMSE"],
        &rows,
    );
}

/// Figure 2: AirQuality, all time-series comparators.
fn fig2(scale: f64) {
    let sizes: Vec<usize> = [1_000, 2_500, 5_000, 7_500, paper_sizes::AIRQUALITY]
        .iter()
        .map(|&n| scaled(n, scale))
        .collect();
    scalability_figure(
        "Figure 2: training/evaluation instance scalability, AirQuality",
        |n| airquality_scenario(n, 2),
        &sizes,
        &BaselineKind::TIME_SERIES,
        // ~2h predicate resolution over the 9.4k-hour domain (4-6h regimes).
        &CrrOptions {
            predicates_per_attr: 4_095,
            ..Default::default()
        },
    );
}

/// Figure 3: Electricity. The paper sweeps to 2M rows; the default here
/// sweeps a scaled-down range (multiply with --scale to go bigger).
fn fig3(scale: f64) {
    let sizes: Vec<usize> = [5_000, 10_000, 20_000, 40_000]
        .iter()
        .map(|&n| scaled(n, scale))
        .collect();
    scalability_figure(
        "Figure 3: training/evaluation instance scalability, Electricity",
        |n| electricity_scenario(n, 3),
        &sizes,
        &BaselineKind::TIME_SERIES,
        &CrrOptions {
            predicates_per_attr: 511,
            ..Default::default()
        },
    );
}

/// Figure 4: Tax, relational comparators only.
fn fig4(scale: f64) {
    let sizes: Vec<usize> = [10_000, 25_000, 50_000, 100_000]
        .iter()
        .map(|&n| scaled(n, scale))
        .collect();
    scalability_figure(
        "Figure 4: training/evaluation instance scalability, Tax",
        |n| tax_scenario(n, 4),
        &sizes,
        &BaselineKind::RELATIONAL,
        &CrrOptions {
            predicates_per_attr: 15,
            ..Default::default()
        },
    );
}

/// Figure 5: CRR vs. unconditional RR across instance sizes, per model
/// family, on BirdMap (one year per bird, per-bird predicates).
fn fig5(scale: f64) {
    let sizes: Vec<usize> = [1_000, 2_000, 4_000, 8_000]
        .iter()
        .map(|&n| scaled(n, scale))
        .collect();
    let sc = birdmap_scenario(*sizes.last().unwrap(), 5);
    let mut rows = Vec::new();
    for &n in &sizes {
        let inst = sc.instance(n);
        for kind in ModelKind::ALL {
            let opts = CrrOptions {
                kind,
                predicates_per_attr: 127,
                ..Default::default()
            };
            let (crr, _) = measure_crr(&sc, &inst, &opts);
            rows.push(vec![
                format!("CRR-{}", kind.label()),
                n.to_string(),
                secs(crr.learn),
                format!("{:.4}", crr.rmse),
                crr.rules.to_string(),
            ]);
            let rr = measure_rr(&sc, &inst, kind);
            rows.push(vec![
                format!("RR-{}", kind.label()),
                n.to_string(),
                secs(rr.learn),
                format!("{:.4}", rr.rmse),
                rr.rules.to_string(),
            ]);
        }
    }
    print_table(
        "Figure 5: instance scalability, RMSE and time, BirdMap",
        &["Method", "|I|", "Learn(s)", "RMSE", "#Rules"],
        &rows,
    );
}

/// Figure 6: predicate scalability — RMSE and time vs. |P|.
fn fig6(scale: f64) {
    let n = scaled(6_000, scale);
    let sc = birdmap_scenario(n, 6);
    let rows_set = sc.rows();
    let mut rows = Vec::new();
    for per_attr in [4usize, 8, 16, 32, 64, 128, 256] {
        for kind in ModelKind::ALL {
            let opts = CrrOptions {
                kind,
                predicates_per_attr: per_attr,
                ..Default::default()
            };
            let (crr, _) = measure_crr(&sc, &rows_set, &opts);
            rows.push(vec![
                format!("CRR-{}", kind.label()),
                (2 * per_attr).to_string(), // >/<= pairs
                secs(crr.learn),
                format!("{:.4}", crr.rmse),
                crr.rules.to_string(),
            ]);
        }
    }
    print_table(
        "Figure 6: predicate scalability, BirdMap",
        &["Method", "|P|", "Learn(s)", "RMSE", "#Rules"],
        &rows,
    );
}

/// Figure 7: column scalability — discover CRRs for 1..k target columns
/// of AirQuality (in parallel), report per-column RMSE stability and the
/// near-linear growth of total time.
fn fig7(scale: f64) {
    let n = scaled(4_000, scale);
    let sc = airquality_scenario(n, 7);
    let table = sc.table();
    let hour = sc.time_attr;
    let sensor_names = ["no2", "co", "o3", "pm25", "temp", "nox", "so2", "rh"];
    let mut rows = Vec::new();
    for k in 1..=sensor_names.len() {
        let tasks: Vec<crr_discovery::parallel::Task> = sensor_names[..k]
            .iter()
            .map(|name| {
                let target = table.attr(name).unwrap();
                let space = PredicateGen::binary(2_047).generate(table, &[hour], target, 11);
                let mut cfg = crr_discovery::DiscoveryConfig::new(vec![hour], target, sc.rho_max);
                if let Some(budget) = global_budget() {
                    cfg = cfg.with_budget(budget);
                }
                crr_discovery::parallel::Task { config: cfg, space }
            })
            .collect();
        let session = DiscoverySession::on(table).rows(sc.rows());
        let start = Instant::now();
        let results = session.run_all(&tasks, 4);
        let elapsed = start.elapsed();
        let mut rmse_sum = 0.0;
        let mut rule_sum = 0usize;
        for r in &results {
            let d = r.as_ref().expect("discovery");
            let report = d.rules.evaluate(table, &sc.rows());
            rmse_sum += report.rmse;
            rule_sum += d.rules.len();
        }
        rows.push(vec![
            k.to_string(),
            secs(elapsed),
            format!("{:.4}", rmse_sum / k as f64),
            rule_sum.to_string(),
        ]);
    }
    print_table(
        "Figure 7: column scalability, AirQuality",
        &["#TargetCols", "TotalLearn(s)", "AvgRMSE", "TotalRules"],
        &rows,
    );
}

/// Figure 8: sensitivity to the maximum bias rho_M. Beyond the paper, the
/// runner also reports held-out RMSE (20% test split) so the
/// over-refinement cost of tiny rho_M is visible out of sample.
fn fig8(scale: f64) {
    let mut rows = Vec::new();
    let bird = birdmap_scenario(scaled(6_000, scale), 8);
    let aba = abalone_scenario(scaled(4_200, scale), 8);
    for (sc, name, rhos) in [
        (&bird, "BirdMap", [0.1, 0.2, 0.5, 1.0, 2.0, 5.0]),
        (&aba, "Abalone", [0.1, 0.25, 0.5, 1.0, 2.0, 5.0]),
    ] {
        let (train, test) = holdout_split(&sc.rows(), 0.2, 8);
        for rho in rhos {
            let opts = CrrOptions {
                rho_max: Some(rho),
                predicates_per_attr: 127,
                ..Default::default()
            };
            let (crr, ruleset) = measure_crr(sc, &train, &opts);
            let test_rep = ruleset.evaluate(sc.table(), &test);
            rows.push(vec![
                name.to_string(),
                format!("{rho}"),
                secs(crr.learn),
                format!("{:.4}", crr.rmse),
                format!("{:.4}", test_rep.rmse),
                crr.rules.to_string(),
            ]);
        }
    }
    print_table(
        "Figure 8: parameter study on regression bias rho_M",
        &[
            "Dataset",
            "rho_M",
            "Learn(s)",
            "TrainRMSE",
            "TestRMSE",
            "#Rules",
        ],
        &rows,
    );
}

/// Shared fig9/fig10 fixture: a regression tree, its compaction, and CRR
/// searching, per model family and dataset.
struct CompactionFixture {
    dataset: String,
    family: &'static str,
    tree_rules: crr_core::RuleSet,
    tree_compacted: crr_core::RuleSet,
    crr_search: crr_core::RuleSet,
    crr_compacted: crr_core::RuleSet,
}

fn compaction_fixtures(scale: f64) -> Vec<CompactionFixture> {
    let mut out = Vec::new();
    for (sc, name) in [
        (birdmap_scenario(scaled(5_000, scale), 9), "BirdMap"),
        (abalone_scenario(scaled(4_200, scale), 9), "Abalone"),
    ] {
        for kind in ModelKind::ALL {
            let rows = sc.rows();
            let mut tree_cfg = RegTreeConfig::with_kind(kind);
            if kind == ModelKind::Mlp {
                tree_cfg.fit.mlp.epochs = 60;
                tree_cfg.fit.mlp.hidden = 6;
            }
            let tree = RegTree::fit(
                sc.table(),
                &rows,
                &sc.inputs,
                &sc.condition_attrs,
                sc.target,
                &tree_cfg,
            )
            .expect("regtree");
            let tree_rules = tree.to_ruleset().expect("export");
            let (tree_compacted, _) =
                compact_on_data(&tree_rules, 0.2, sc.rho_max, sc.table(), &rows)
                    .expect("compaction");
            let opts = CrrOptions {
                kind,
                predicates_per_attr: 127,
                compact: false,
                ..Default::default()
            };
            let (cfg, space) = crr_inputs(&sc, &opts);
            let search = run_discovery(sc.table(), &rows, &cfg, &space).expect("crr");
            let (crr_compacted, _) =
                compact_on_data(&search.rules, 1e-6, sc.rho_max, sc.table(), &rows)
                    .expect("crr compaction");
            out.push(CompactionFixture {
                dataset: name.to_string(),
                family: kind.label(),
                tree_rules,
                tree_compacted,
                crr_search: search.rules,
                crr_compacted,
            });
        }
    }
    out
}

/// Figure 9: rule counts — RegTree vs. RegTree+compaction vs. CRR search.
fn fig9(scale: f64) {
    let rows: Vec<Vec<String>> = compaction_fixtures(scale)
        .into_iter()
        .map(|f| {
            vec![
                f.dataset,
                f.family.to_string(),
                f.tree_rules.len().to_string(),
                f.tree_compacted.len().to_string(),
                f.crr_search.len().to_string(),
                f.crr_compacted.len().to_string(),
            ]
        })
        .collect();
    print_table(
        "Figure 9: rule compaction via translation and fusion",
        &[
            "Dataset",
            "Model",
            "RegTree",
            "RegTree+Compact",
            "CRR-search",
            "CRR+Compact",
        ],
        &rows,
    );
}

/// Figure 10: imputation RMSE and time, with vs. without compaction.
fn fig10(scale: f64) {
    let mut rows = Vec::new();
    for f in compaction_fixtures(scale) {
        // Rebuild the matching scenario to mask values.
        let sc = match f.dataset.as_str() {
            "BirdMap" => birdmap_scenario(scaled(5_000, scale), 9),
            _ => abalone_scenario(scaled(4_200, scale), 9),
        };
        let mut masked = sc.table().clone();
        let plan = mask_random(&mut masked, sc.target, 0.1, 10);
        for (label, rules) in [
            ("RegTree", &f.tree_rules),
            ("RegTree+Compact", &f.tree_compacted),
            ("CRR+Compact", &f.crr_compacted),
        ] {
            let rep = impute_with_rules(&masked, rules, &plan);
            rows.push(vec![
                f.dataset.clone(),
                f.family.to_string(),
                label.to_string(),
                format!("{:.4}", rep.rmse),
                millis(rep.time),
                rules.len().to_string(),
            ]);
        }
    }
    print_table(
        "Figure 10: missing-data imputation with/without compaction",
        &["Dataset", "Model", "Rules", "RMSE", "Time(ms)", "#Rules"],
        &rows,
    );
}

/// Table III: predicate generation strategies (averaged over seeds).
fn table3(scale: f64) {
    let mut rows = Vec::new();
    let datasets: [(fn(usize, u64) -> Scenario, &str); 2] =
        [(birdmap_scenario, "BirdMap"), (abalone_scenario, "Abalone")];
    for (make, name) in datasets {
        let n = scaled(if name == "BirdMap" { 5_000 } else { 4_200 }, scale);
        for gen_name in ["Expert", "Binary", "Random"] {
            let (mut learn, mut eval, mut rmse, mut rules) = (0.0, 0.0, 0.0, 0.0);
            let seeds = [1u64, 2, 3];
            for &seed in &seeds {
                let sc = make(n, seed);
                let generator = match gen_name {
                    "Expert" => PredicateGen::expert(sc.expert_boundaries()),
                    "Binary" => PredicateGen::binary(64),
                    _ => PredicateGen::random(64),
                };
                let opts = CrrOptions {
                    generator: Some(generator),
                    predicates_per_attr: 64,
                    ..Default::default()
                };
                let (r, _) = measure_crr(&sc, &sc.rows(), &opts);
                learn += r.learn.as_secs_f64();
                eval += r.eval.as_secs_f64() * 1e3;
                rmse += r.rmse;
                rules += r.rules as f64;
            }
            let k = seeds.len() as f64;
            rows.push(vec![
                name.to_string(),
                gen_name.to_string(),
                format!("{:.3}", learn / k),
                format!("{:.2}", eval / k),
                format!("{:.4}", rmse / k),
                format!("{:.1}", rules / k),
            ]);
        }
    }
    print_table(
        "Table III: performance over varied predicate generators",
        &[
            "Data",
            "Method",
            "Learning(s)",
            "Evaluation(ms)",
            "RMSE",
            "#Rules",
        ],
        &rows,
    );
}

/// Table IV: model-sharing priority (queue ordering).
fn table4(scale: f64) {
    let mut rows = Vec::new();
    let datasets: [(fn(usize, u64) -> Scenario, &str); 2] =
        [(birdmap_scenario, "BirdMap"), (abalone_scenario, "Abalone")];
    for (make, name) in datasets {
        let n = scaled(if name == "BirdMap" { 5_000 } else { 4_200 }, scale);
        for (order, label) in [
            (QueueOrder::Decrease, "Decrease"),
            (QueueOrder::Increase, "Increase"),
            (QueueOrder::Random(7), "Random"),
        ] {
            let (mut learn, mut eval, mut rmse, mut rules, mut trained) = (0.0, 0.0, 0.0, 0.0, 0.0);
            let seeds = [1u64, 2, 3];
            for &seed in &seeds {
                let sc = make(n, seed);
                let opts = CrrOptions {
                    order,
                    predicates_per_attr: 64,
                    ..Default::default()
                };
                let (r, _) = measure_crr(&sc, &sc.rows(), &opts);
                learn += r.learn.as_secs_f64();
                eval += r.eval.as_secs_f64() * 1e3;
                rmse += r.rmse;
                rules += r.rules as f64;
                trained += r.trained as f64;
            }
            let k = seeds.len() as f64;
            rows.push(vec![
                name.to_string(),
                label.to_string(),
                format!("{:.3}", learn / k),
                format!("{:.2}", eval / k),
                format!("{:.4}", rmse / k),
                format!("{:.1}", rules / k),
                format!("{:.1}", trained / k),
            ]);
        }
    }
    print_table(
        "Table IV: performance of model sharing priority",
        &[
            "Data",
            "Order",
            "Learning(s)",
            "Evaluation(ms)",
            "RMSE",
            "#Rules",
            "#Trained",
        ],
        &rows,
    );
}

/// Ablations of the design choices DESIGN.md calls out (not a paper
/// artifact): model sharing on/off, split criterion, data-validated vs.
/// pure-inference compaction, and the interval rule index.
fn ablation(scale: f64) {
    use crr_core::RuleIndex;
    use crr_discovery::{compact, SplitStrategy};

    let n = scaled(8_000, scale);
    let sc = birdmap_scenario(n, 40);
    let rows = sc.rows();
    let mut out: Vec<Vec<String>> = Vec::new();

    // (a) Model sharing on/off: trained models and learning time.
    for share in [true, false] {
        let opts = CrrOptions {
            share,
            predicates_per_attr: 127,
            ..Default::default()
        };
        let (r, _) = measure_crr(&sc, &rows, &opts);
        out.push(vec![
            format!("sharing={share}"),
            secs(r.learn),
            format!("{:.4}", r.rmse),
            r.rules.to_string(),
            r.trained.to_string(),
        ]);
    }

    // (b) Split criterion: residual vs. raw-variance vs. first-applicable.
    for (label, split) in [
        ("split=residual", SplitStrategy::BestResidual),
        ("split=variance", SplitStrategy::BestVariance),
        ("split=first", SplitStrategy::FirstApplicable),
    ] {
        let opts = CrrOptions {
            predicates_per_attr: 127,
            ..Default::default()
        };
        let (mut cfg, space) = crr_inputs(&sc, &opts);
        cfg.split = split;
        let session = DiscoverySession::on(sc.table())
            .rows(rows.clone())
            .predicates(space.clone())
            .config(cfg.clone());
        let start = Instant::now();
        let d = session.run().expect("discover");
        let learn = start.elapsed();
        let rep = d.rules.evaluate(sc.table(), &rows);
        out.push(vec![
            label.to_string(),
            secs(learn),
            format!("{:.4}", rep.rmse),
            d.rules.len().to_string(),
            d.stats.models_trained.to_string(),
        ]);
    }

    // (c) Compaction: data-validated vs. pure inference, on the same
    //     discovered set.
    let opts = CrrOptions {
        predicates_per_attr: 127,
        compact: false,
        ..Default::default()
    };
    let (cfg, space) = crr_inputs(&sc, &opts);
    let d = run_discovery(sc.table(), &rows, &cfg, &space).expect("discover");
    for (label, rules) in [
        (
            "compact=validated",
            compact_on_data(&d.rules, 1e-6, cfg.rho_max, sc.table(), &rows)
                .expect("compact")
                .0,
        ),
        ("compact=pure", compact(&d.rules, 1e-6).expect("compact").0),
        ("compact=none", d.rules.clone()),
    ] {
        let rep = rules.evaluate(sc.table(), &rows);
        out.push(vec![
            label.to_string(),
            "-".into(),
            format!("{:.4}", rep.rmse),
            rules.len().to_string(),
            "-".into(),
        ]);
    }

    // (d) Rule locating: linear scan vs. interval index, same rule set.
    let (compacted, _) =
        compact_on_data(&d.rules, 1e-6, cfg.rho_max, sc.table(), &rows).expect("compact");
    let t0 = Instant::now();
    let scan_rep = compacted.evaluate(sc.table(), &rows);
    let scan_time = t0.elapsed();
    let t1 = Instant::now();
    let index = RuleIndex::build(&compacted, sc.table());
    let idx_rep = index.compile(sc.table()).evaluate(&rows);
    let idx_time = t1.elapsed();
    assert_eq!(scan_rep, idx_rep, "index must match the scan exactly");
    out.push(vec![
        "locate=scan".into(),
        format!("eval {}ms", millis(scan_time)),
        format!("{:.4}", scan_rep.rmse),
        compacted.len().to_string(),
        "-".into(),
    ]);
    out.push(vec![
        "locate=index".into(),
        format!("eval {}ms", millis(idx_time)),
        format!("{:.4}", idx_rep.rmse),
        compacted.len().to_string(),
        "-".into(),
    ]);

    print_table(
        "Ablations: sharing / split criterion / compaction / rule index (BirdMap)",
        &["Variant", "Learn(s)", "RMSE", "#Rules", "#Trained"],
        &out,
    );
}

/// Tracked benchmark: discovery on Electricity and Tax at three instance
/// sizes, plus a sharded cell per dataset at the largest size (1-shard vs
/// `shards`-way key-range plan). Pure Algorithm 1 (no compaction) in the
/// whole-instance cells, best-of-reps wall clock; the sharded cells
/// include the cross-shard Algorithm 2 merge, which is part of what they
/// measure, and record the five-number spread of their paired rounds.
/// Writes the machine-readable report to `path` (`--bench-json`), which
/// `--check` / `scripts/ci.sh` re-validate; the same check runs last
/// here, after both artifacts are on disk.
///
/// With `metrics_out` set, each cell is re-run with an enabled
/// [`crr_discovery::MetricsSink`] (kept out of the timed reps; 5 runs at
/// full scale, of which the median by total time is kept, through
/// [`median_instrumented`]), a fault-harness cell with exactly one
/// injected fit failure is added, and the snapshots are written as a
/// `metrics.json` document after in-process invariant checks.
fn bench(scale: f64, path: &str, metrics_out: Option<&str>, shards: usize) {
    use crr_discovery::MetricsSink;

    let reps = if scale >= 1.0 { 3 } else { 1 };
    let metered_reps = if scale >= 1.0 { 5 } else { 1 };
    // The sharded cells are short (tens of milliseconds at full scale), so
    // they take many paired rounds and record the ratio's spread.
    let sharded_reps = if scale >= 1.0 { 21 } else { 1 };
    let cells: [(&str, fn(usize, u64) -> Scenario, [usize; 3], usize); 2] = [
        (
            "electricity",
            electricity_scenario,
            [2_880, 5_760, 11_520],
            255,
        ),
        ("tax", tax_scenario, [2_500, 5_000, 10_000], 15),
    ];
    let mut report = bench_json::BenchReport::default();
    let mut metric_runs: Vec<metrics_json::MetricsRun> = Vec::new();
    let mut table_rows = Vec::new();
    for (name, make, sizes, per_attr) in cells {
        for size in sizes {
            let sc = make(scaled(size, scale), 42);
            let rows = sc.rows();
            let opts = CrrOptions {
                compact: false,
                predicates_per_attr: per_attr,
                ..Default::default()
            };
            let (cfg, space) = crr_inputs(&sc, &opts);
            let mut secs = f64::INFINITY;
            let mut found = None;
            for _ in 0..reps {
                let session = DiscoverySession::on(sc.table())
                    .rows(rows.clone())
                    .predicates(space.clone())
                    .config(cfg.clone());
                let start = Instant::now();
                let d = session.run().expect("discovery");
                secs = secs.min(start.elapsed().as_secs_f64());
                found = Some(d);
            }
            let d = found.expect("at least one rep");
            let rep = d.rules.evaluate(sc.table(), &rows);
            table_rows.push(vec![
                name.to_string(),
                rows.len().to_string(),
                "moments".to_string(),
                format!("{secs:.4}"),
                d.rules.len().to_string(),
                d.stats.models_trained.to_string(),
                format!("{:.4}", rep.rmse),
            ]);
            report.records.push(bench_json::BenchRecord {
                dataset: name.to_string(),
                rows: rows.len(),
                engine: "moments".to_string(),
                learn_secs: secs,
                rules: d.rules.len(),
                trained: d.stats.models_trained,
                rmse: rep.rmse,
            });
            if metrics_out.is_some() {
                // Instrumented runs per cell, outside the timed reps so the
                // tracked numbers stay uninstrumented. The in-process
                // asserts pin the invariants --check re-verifies from the
                // file.
                let cell = format!("{name}@{}", rows.len());
                let dm = median_instrumented(metered_reps, &cell, || {
                    let cfg = cfg.clone().with_metrics(MetricsSink::enabled());
                    run_discovery(sc.table(), &rows, &cfg, &space).expect("metered discovery")
                });
                let m = &dm.metrics;
                assert_eq!(
                    m.count("queue", "rules_emitted"),
                    Some(dm.rules.len() as u64),
                    "{name}@{}: rules_emitted drifted",
                    rows.len()
                );
                assert_eq!(
                    m.count("fits", "rescans"),
                    Some(0),
                    "{name}@{}: the linear family rescanned rows",
                    rows.len()
                );
                metric_runs.push(metrics_json::MetricsRun {
                    dataset: name.to_string(),
                    rows: rows.len(),
                    engine: "moments".to_string(),
                    expected_fault_events: None,
                    shard_rows: None,
                    metrics: dm.metrics,
                });
            }
        }
    }

    // Sharded cells: the largest size per dataset, key-range shards on the
    // scenario's key attribute under *both* boundary placements. The
    // 1-shard run is the baseline (pinned byte-identical to classic
    // discovery by the regression tests); the N-shard runs exercise the
    // frozen cross-shard pool and the Algorithm 2 merge. The quantile cell
    // is the adaptive planner's and is what the acceptance gate reads; the
    // equal-width cell keeps the old geometry measured beside it.
    for (name, make, sizes, per_attr) in cells {
        let size = *sizes.last().expect("sizes non-empty");
        let sc = make(scaled(size, scale), 42);
        let rows = sc.rows();
        let opts = CrrOptions {
            compact: false,
            predicates_per_attr: per_attr,
            ..Default::default()
        };
        let (cfg, space) = crr_inputs(&sc, &opts);
        let key = sc.time_attr;
        let specs = [
            ("single", ShardSpec::by_key(key).quantile().shards(1)),
            (
                "equal_width",
                ShardSpec::by_key(key).equal_width().shards(shards),
            ),
            ("quantile", ShardSpec::by_key(key).quantile().shards(shards)),
        ];
        // Oversubscribing a small box serializes the waves anyway and adds
        // contention, so shard workers are capped at the hardware's actual
        // parallelism (the algorithmic sharding gains — smaller per-shard
        // queues, cross-pool sharing — survive even at one worker).
        let hw = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        // Interleaved rounds: each round times all three plans back to back,
        // so a slow host phase lands on the baseline and the sharded runs
        // alike, and each round yields one paired ratio per boundary.
        let mut secs: [Vec<f64>; 3] = Default::default();
        let mut quantile_found = None;
        for _ in 0..sharded_reps {
            for (pi, (_, spec)) in specs.iter().enumerate() {
                let threads = if pi == 0 { 1 } else { shards.min(4).min(hw) };
                let session = DiscoverySession::on(sc.table())
                    .rows(rows.clone())
                    .predicates(space.clone())
                    .config(cfg.clone().with_shard_threads(threads))
                    .sharded(spec.clone());
                let start = Instant::now();
                let d = session.run().expect("sharded discovery");
                secs[pi].push(start.elapsed().as_secs_f64());
                if pi == 2 {
                    quantile_found = Some(d);
                }
            }
        }
        let d = quantile_found.expect("at least one quantile rep");
        let rep = d.rules.evaluate(sc.table(), &rows);
        let quantile_best = secs[2].iter().copied().fold(f64::INFINITY, f64::min);
        table_rows.push(vec![
            name.to_string(),
            rows.len().to_string(),
            format!("sharded x{shards} (quantile)"),
            format!("{quantile_best:.4}"),
            d.rules.len().to_string(),
            d.stats.models_trained.to_string(),
            format!("{:.4}", rep.rmse),
        ]);
        report.records.push(bench_json::BenchRecord {
            dataset: name.to_string(),
            rows: rows.len(),
            engine: "sharded".to_string(),
            learn_secs: quantile_best,
            rules: d.rules.len(),
            trained: d.stats.models_trained,
            rmse: rep.rmse,
        });
        for (pi, boundary) in [(1usize, Boundary::EqualWidth), (2, Boundary::Quantile)] {
            // Plan geometry for the cell: min/max shard size in permille.
            // Planning is deterministic, so one untimed plan reproduces
            // exactly what the timed runs partitioned on.
            let (plan, _) = specs[pi]
                .1
                .plan(
                    sc.table(),
                    &rows,
                    &crr_data::PlannerCost {
                        predicate_vocab: space.len().max(1),
                        workers: 1,
                    },
                )
                .expect("bench shard plan");
            let ratios: Vec<f64> = secs[0]
                .iter()
                .zip(&secs[pi])
                .map(|(single, sharded)| single / sharded)
                .collect();
            report.sharded.push(bench_json::ShardedEntry {
                dataset: name.to_string(),
                rows: rows.len(),
                shards,
                boundary,
                balance_permille: crr_data::balance_permille(&plan),
                reps: sharded_reps,
                single_secs: bench_json::Spread::of(&secs[0]),
                sharded_secs: bench_json::Spread::of(&secs[pi]),
                ratio: bench_json::Spread::of(&ratios),
            });
        }
        if metrics_out.is_some() {
            // Instrumented N-shard runs of the adaptive plan, outside the
            // timed reps: the planner and cross-shard pool counters land
            // in metrics.json's "shards" section, and the per-shard row
            // counts ride along for the sum invariant --check re-checks.
            let cell = format!("{name}@{} sharded", rows.len());
            let dm = median_instrumented(metered_reps, &cell, || {
                let mcfg = cfg
                    .clone()
                    .with_shard_threads(shards.min(4))
                    .with_metrics(MetricsSink::enabled());
                DiscoverySession::on(sc.table())
                    .rows(rows.clone())
                    .predicates(space.clone())
                    .config(mcfg)
                    .sharded(ShardSpec::by_key(key).quantile().shards(shards))
                    .run()
                    .expect("metered sharded discovery")
            });
            let m = &dm.metrics;
            let count = |name: &str| m.count("shards", name).unwrap_or(0);
            let probes = count("cross_pool_probes");
            let hits = count("cross_pool_hits");
            let misses = count("cross_pool_misses");
            assert_eq!(
                hits + misses,
                probes,
                "{name}: cross-pool probe accounting must reconcile"
            );
            if scale >= 1.0 {
                // At smoke scales the shards can be too small to retrain the
                // shared regime, so the hit guarantee only binds full-scale.
                assert!(hits > 0, "{name}: no cross-shard pool hits at full scale");
            }
            let shard_rows: Vec<usize> = dm.shards.iter().map(|s| s.rows.len()).collect();
            assert_eq!(
                shard_rows.iter().sum::<usize>(),
                rows.len(),
                "{name}: shard rows must sum to the table rows"
            );
            metric_runs.push(metrics_json::MetricsRun {
                dataset: name.to_string(),
                rows: rows.len(),
                engine: "sharded".to_string(),
                expected_fault_events: None,
                shard_rows: Some(shard_rows),
                metrics: dm.metrics,
            });
        }
    }
    print_table(
        "Tracked benchmark: discovery (best of reps)",
        &[
            "Dataset", "|I|", "Engine", "Learn(s)", "#Rules", "#Trained", "RMSE",
        ],
        &table_rows,
    );
    for s in &report.sharded {
        println!(
            "  {}@{}: 1 shard {:.4}s vs {} shards ({}, balance {}‰) {:.4}s -> {:.2}x \
             (median of {} paired rounds; min {:.2}x, max {:.2}x)",
            s.dataset,
            s.rows,
            s.single_secs.median,
            s.shards,
            s.boundary.label(),
            s.balance_permille,
            s.sharded_secs.median,
            s.ratio.median,
            s.reps,
            s.ratio.min,
            s.ratio.max
        );
    }
    let text = artifact::render(&report);
    std::fs::write(path, &text).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));

    if let Some(mpath) = metrics_out {
        // Fault-harness cell: the first fit attempt fails (the only
        // injection point guaranteed at every --scale), discovery surfaces
        // the typed error, and the sink — which outlives the failed run —
        // must have recorded exactly that one injection.
        let sc = electricity_scenario(scaled(2_880, scale), 42);
        let rows = sc.rows();
        let opts = CrrOptions {
            compact: false,
            predicates_per_attr: 255,
            ..Default::default()
        };
        let (cfg, space) = crr_inputs(&sc, &opts);
        let sink = MetricsSink::enabled();
        let plan = std::sync::Arc::new(crr_discovery::FaultPlan::new().fail_fit_every(1));
        let cfg = cfg
            .with_metrics(sink.clone())
            .with_faults(std::sync::Arc::clone(&plan));
        let err = run_discovery(sc.table(), &rows, &cfg, &space);
        assert!(err.is_err(), "fault harness: injected failure must surface");
        let snapshot = sink.snapshot();
        let injected = snapshot.count("faults", "injected_failures");
        assert_eq!(
            injected,
            Some(1),
            "fault harness: plan fired once, metrics recorded {injected:?}"
        );
        assert_eq!(plan.fits_attempted(), 1, "plan injects on the first fit");
        metric_runs.push(metrics_json::MetricsRun {
            dataset: "electricity".to_string(),
            rows: rows.len(),
            engine: "moments".to_string(),
            expected_fault_events: Some(1),
            shard_rows: None,
            metrics: snapshot,
        });

        let mtext = artifact::render(&metrics_json::MetricsReport { runs: metric_runs });
        let msummary = metrics_json::validate(&mtext).expect("emitted metrics must validate");
        std::fs::write(mpath, &mtext).unwrap_or_else(|e| panic!("cannot write {mpath}: {e}"));
        println!("wrote {mpath} ({msummary})");
    }
    // Checked last, so a run whose tax cell misses the sharding floor still
    // leaves its measured spread (and metrics.json) on disk; the run then
    // fails exactly as `--check` on the file would.
    let summary = bench_json::validate(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
    println!("wrote {path} ({summary})");
}

/// `analyze`: discover on Electricity and Tax — unsharded and under a
/// key-range shard plan — plus one stream-repaired Electricity artifact,
/// and run the full `crr-analyze` battery (A1–A7) over each exported
/// artifact: the sharded ones against their emitted proof obligations,
/// the repaired one against its bundled repair obligations, and every
/// conjunct through the A6 compile-equivalence comparison. Any `unsound`
/// finding aborts here; redundant/hygiene findings are reported and land
/// in the artifact. The runs are written to `path` in the
/// `crr-analysis-v2` layout that `--check` (and CI) re-validates. With
/// `artifact_out`, the repaired artifact's text is persisted for
/// `--analyze-artifact` / `--mutate-repair-guard`.
fn analyze_cmd(scale: f64, path: &str, shards: usize, artifact_out: Option<&str>) {
    use analysis_json::{AnalysisRun, AnalysisRuns};

    let cells: [(&str, fn(usize, u64) -> Scenario, usize, usize); 2] = [
        ("electricity", electricity_scenario, 11_520, 255),
        ("tax", tax_scenario, 10_000, 15),
    ];
    let mut runs: Vec<AnalysisRun> = Vec::new();
    for (name, make, size, per_attr) in cells {
        let sc = make(scaled(size, scale), 42);
        let rows = sc.rows();
        let opts = CrrOptions {
            predicates_per_attr: per_attr,
            ..Default::default()
        };
        let (cfg, space) = crr_inputs(&sc, &opts);

        // Unsharded artifact: no guard obligations, so A3 is vacuous and
        // the report covers satisfiability, subsumption, the inference
        // audit and rho-monotonicity.
        let single = run_discovery(sc.table(), &rows, &cfg, &space).expect("discovery");
        // Sharded artifact: quantile key-range shards (the adaptive
        // planner's boundary placement) over the scenario's key attribute,
        // verified against the emitted proof obligations.
        let sharded = DiscoverySession::on(sc.table())
            .rows(rows.clone())
            .predicates(space.clone())
            .config(cfg.clone().with_shard_threads(shards.min(4)))
            .sharded(ShardSpec::by_key(sc.time_attr).quantile().shards(shards))
            .run()
            .expect("sharded discovery");

        for (source, d) in [("single", &single), ("sharded", &sharded)] {
            // Analysis runs over the *exported artifact*, not the raw
            // rules: A6 re-compiles every conjunct against the schema the
            // artifact declares, A7 would audit repair obligations if any.
            let artifact = d
                .export_artifact(sc.table().schema())
                .expect("export artifact");
            let report = crr_analyze::analyze_artifact_on(&artifact, sc.table());
            assert!(
                report.is_sound(),
                "{name}/{source}: analyzer found unsound artifacts: {:#?}",
                report.findings
            );
            runs.push(AnalysisRun::new(name, rows.len(), source, report));
        }
    }

    // The repaired cell: a regime-changed Electricity tail driven through
    // crr-stream's repair, analyzed against its bundled obligations.
    let (repaired_rows, repaired_artifact, repaired_report) = repaired_artifact_cell();
    runs.push(AnalysisRun::new(
        "electricity",
        repaired_rows,
        "repair",
        repaired_report,
    ));
    if let Some(out) = artifact_out {
        std::fs::write(out, repaired_artifact.to_text())
            .unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
        println!("wrote {out} (stream-repaired artifact, proof-carrying)");
    }
    let table_rows: Vec<Vec<String>> = runs
        .iter()
        .map(|r| {
            vec![
                r.dataset.clone(),
                r.rows.to_string(),
                r.source.clone(),
                r.rules.to_string(),
                r.conjuncts.to_string(),
                r.shards.to_string(),
                r.counters.implication_checks.to_string(),
                r.summary.redundant.to_string(),
                r.summary.hygiene.to_string(),
            ]
        })
        .collect();
    print_table(
        "Static analysis: crr-analyze over discovered artifacts",
        &[
            "Dataset", "|I|", "Source", "#Rules", "#Conj", "#Shards", "#Impl", "Redund", "Hygiene",
        ],
        &table_rows,
    );
    for run in &runs {
        for f in &run.findings {
            println!("  {}@{}/{}: {f}", run.dataset, run.rows, run.source);
        }
    }
    let text = artifact::render(&AnalysisRuns { runs });
    // Self-check before writing: never persist an artifact CI would reject.
    let summary = analysis_json::validate(&text).expect("emitted analysis must validate");
    std::fs::write(path, &text).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("wrote {path} ({summary})");
}

/// Builds the proof-carrying repaired artifact for the `analyze` repair
/// cell: discover on an Electricity base slice, append the generator's
/// tail under a deliberate regime change (`y → 3y + 5`) so covered rows
/// drift, repair, and verify the exported artifact (A1–A7) against its
/// bundled repair obligations. The fixture is fixed-size (3168 rows, two
/// generator days + one tail) so the drift — and therefore at least one
/// claimed repair region — is deterministic at every `--scale`.
fn repaired_artifact_cell() -> (
    usize,
    crr_discovery::RuleSetArtifact,
    crr_analyze::AnalysisReport,
) {
    use crr_stream::{StreamConfig, StreamEngine};

    let ds = electricity(&GenConfig {
        rows: 3_168,
        seed: 7,
    });
    let t = ds.table;
    let minute = t.attr("minute").expect("minute attr");
    let target = t.attr("global_active_power").expect("target attr");
    let space = PredicateGen::binary(64).generate(&t, &[minute], target, 0);
    let cfg = DiscoveryConfig::new(vec![minute], target, 0.25);
    let mut base = Table::new(t.schema().clone());
    for r in 0..2_880 {
        base.push_row(t.row(r)).expect("base row");
    }
    let (_, base_artifact) = DiscoverySession::on(&base)
        .predicates(space.clone())
        .config(cfg.clone())
        .export()
        .expect("base discovery");
    let mut engine = StreamEngine::new(
        base,
        base_artifact.rules.clone(),
        cfg,
        space,
        StreamConfig::default(),
    )
    .expect("stream engine");
    let ty = target.0;
    let batch: Vec<Vec<crr_data::Value>> = (2_880..t.num_rows())
        .map(|r| {
            let mut row = t.row(r);
            if let crr_data::Value::Float(y) = row[ty] {
                row[ty] = crr_data::Value::Float(3.0 * y + 5.0);
            }
            row
        })
        .collect();
    engine.append(&batch).expect("append regime-changed tail");
    assert!(engine.needs_repair(), "regime change must surface as drift");
    let repair = engine.repair().expect("repair");
    let artifact = repair.artifact.clone();
    let regions = artifact.repair.as_ref().map_or(0, |rep| rep.regions.len());
    assert!(regions >= 1, "repair must claim at least one region");
    let report = crr_analyze::analyze_artifact_on(&artifact, engine.table());
    assert!(
        report.is_sound(),
        "repair cell: analyzer found unsound artifacts: {:#?}",
        report.findings
    );
    (engine.table().num_rows(), artifact, report)
}

/// The `"predictions"` field a server answering `/v1/predict` for
/// `probe_rows` of `table` must return: `rules` evaluated offline over the
/// same rows, rendered by the server's own formatter.
fn offline_predictions(rules: &crr_core::RuleSet, table: &Table, probe_rows: &[usize]) -> String {
    let mut probe = Table::new(table.schema().clone());
    for &row in probe_rows {
        probe.push_row(table.row(row)).expect("probe row");
    }
    let offline: Vec<Option<f64>> = (0..probe.num_rows())
        .map(|row| rules.predict(&probe, row))
        .collect();
    crr_serve::client::predictions_field(&offline)
}

/// `serving`: stand up a live `crr-serve` server over an exported
/// Electricity rule set and measure it end to end — loss-free smoke cells
/// on `/v1/predict` and `/v1/check`, an overload cell that must shed, and
/// a hot-swap churn cell whose in-flight answers are pinned byte-identical
/// to offline evaluation. Every gate the `crr-serving-v1` validator
/// re-checks from the file is asserted in-process first.
fn serving_cmd(scale: f64, path: &str) {
    use crr_discovery::MetricsSink;
    use crr_serve::client::{roundtrip, rows_body, run_load, LoadOptions};
    use crr_serve::{RuleStore, ServeConfig, ServeFaultPlan, Server};
    use std::sync::Arc;
    use std::time::Duration;

    // Discover and export the served artifact.
    let sc = electricity_scenario(scaled(11_520, scale), 42);
    let rows = sc.table().num_rows();
    let opts = CrrOptions {
        predicates_per_attr: 255,
        ..Default::default()
    };
    let (cfg, space) = crr_inputs(&sc, &opts);
    let (_, artifact) = DiscoverySession::on(sc.table())
        .predicates(space)
        .config(cfg)
        .export()
        .expect("discovery + export");
    let sound_text = artifact.to_text();

    // Probe batch: every row is sent verbatim, capped at 240 rows.
    let step = (rows / 240).max(1);
    let probe_rows: Vec<usize> = (0..rows).step_by(step).take(240).collect();
    let batch_rows = probe_rows.len();
    let body = rows_body(probe_rows.iter().map(|&row| sc.table().row(row)));

    // Offline evaluation of the same probe, rendered with the same
    // formatter the server uses — the swap-churn pin.
    let expected = offline_predictions(&artifact.rules, sc.table(), &probe_rows);

    let mut records: Vec<serving_json::ServingRecord> = Vec::new();
    let mut table_rows = Vec::new();
    let mut record = |r: serving_json::ServingRecord, table_rows: &mut Vec<Vec<String>>| {
        table_rows.push(vec![
            r.endpoint.clone(),
            r.mode.label().to_string(),
            r.clients.to_string(),
            format!("{}/{}", r.completed, r.requests),
            r.shed.to_string(),
            format!("{:.3}", r.p50_ms),
            format!("{:.3}", r.p99_ms),
            format!("{:.1}", r.throughput_rps),
        ]);
        records.push(r);
    };

    // Smoke cells: within capacity, must be loss-free.
    let sink = MetricsSink::enabled();
    let store = Arc::new(
        RuleStore::open(artifact, sink.clone()).expect("exported artifact must be admissible"),
    );
    let server = Server::start(Arc::clone(&store), ServeConfig::default()).expect("bind");
    for endpoint in ["/v1/predict", "/v1/check"] {
        let load = LoadOptions {
            clients: 2,
            requests_per_client: 40,
            path: endpoint.to_string(),
            body: body.clone(),
            timeout: Duration::from_secs(30),
        };
        let report = run_load(server.addr(), &load);
        let requests = load.clients * load.requests_per_client;
        let snap = sink.snapshot();
        let (shed, timeouts) = (
            snap.count("serve", "shed").unwrap_or(0),
            snap.count("serve", "timeouts").unwrap_or(0),
        );
        assert_eq!(report.errors, 0, "{endpoint}: smoke transport errors");
        assert_eq!(report.completed(), requests, "{endpoint}: smoke losses");
        assert_eq!((shed, timeouts), (0, 0), "{endpoint}: smoke shed/timeout");
        record(
            serving_json::ServingRecord {
                dataset: "electricity".into(),
                rows,
                endpoint: endpoint.into(),
                mode: serving_json::ServingMode::Smoke,
                clients: load.clients,
                requests,
                completed: report.completed(),
                batch_rows,
                shed,
                timeouts,
                errors: report.errors,
                p50_ms: report.percentile_ms(50.0),
                p90_ms: report.percentile_ms(90.0),
                p99_ms: report.percentile_ms(99.0),
                max_ms: report.percentile_ms(100.0),
                throughput_rps: report.throughput_rps(),
            },
            &mut table_rows,
        );
    }

    // Swap churn on the live smoke server: accepted swaps interleaved with
    // rejected garbage while answers stay pinned to offline evaluation.
    const SWAPS: usize = 10;
    let mut accepted = 0u64;
    let mut rejected = 0u64;
    let mut pinned = true;
    for i in 0..SWAPS {
        let candidate: &str = if i % 2 == 0 { &sound_text } else { "garbage" };
        let (status, _) =
            roundtrip(server.addr(), "POST", "/admin/swap", candidate).expect("swap roundtrip");
        match status {
            200 => accepted += 1,
            422 => rejected += 1,
            other => panic!("swap answered {other}"),
        }
        let (status, resp) =
            roundtrip(server.addr(), "POST", "/v1/predict", &body).expect("pin roundtrip");
        assert_eq!(status, 200);
        pinned &= resp.contains(&expected);
    }
    assert!(
        pinned,
        "an in-flight answer diverged from offline evaluation"
    );
    let swaps = serving_json::SwapCell {
        accepted,
        rejected,
        generation: store.generation(),
        predictions_pinned: pinned,
    };
    server.shutdown();

    // Overload cell: capacity 1, slow handler, 8 closed-loop clients —
    // the shed path must engage and stay well-formed.
    let over_sink = MetricsSink::enabled();
    let over_store = Arc::new(
        RuleStore::open(
            crr_discovery::RuleSetArtifact::from_text(&sound_text).expect("reparse"),
            over_sink.clone(),
        )
        .expect("admissible"),
    );
    let over_cfg = ServeConfig {
        workers: 1,
        max_in_flight: 1,
        faults: Arc::new(ServeFaultPlan::none().delay_request_every(1, Duration::from_millis(3))),
        ..ServeConfig::default()
    };
    let over_server = Server::start(over_store, over_cfg).expect("bind");
    let load = LoadOptions {
        clients: 8,
        requests_per_client: 8,
        path: "/v1/predict".to_string(),
        body: body.clone(),
        timeout: Duration::from_secs(30),
    };
    let mut over_report = run_load(over_server.addr(), &load);
    let mut attempts = 1usize;
    while over_sink.snapshot().count("serve", "shed").unwrap_or(0) == 0 && attempts < 5 {
        // Scheduling can let a tiny burst through unshed; drive it again.
        over_report = run_load(over_server.addr(), &load);
        attempts += 1;
    }
    // Earlier attempts (if any) shed nothing by construction, so the
    // cumulative counter equals the recorded attempt's sheds.
    let _ = attempts;
    let over_snap = over_sink.snapshot();
    let shed = over_snap.count("serve", "shed").unwrap_or(0);
    assert!(shed > 0, "overload never engaged the shed path");
    assert_eq!(over_report.errors, 0, "sheds must be 503s, not resets");
    record(
        serving_json::ServingRecord {
            dataset: "electricity".into(),
            rows,
            endpoint: "/v1/predict".into(),
            mode: serving_json::ServingMode::Overload,
            clients: load.clients,
            requests: load.clients * load.requests_per_client,
            completed: over_report.completed(),
            batch_rows,
            shed,
            timeouts: over_snap.count("serve", "timeouts").unwrap_or(0),
            errors: over_report.errors,
            p50_ms: over_report.percentile_ms(50.0),
            p90_ms: over_report.percentile_ms(90.0),
            p99_ms: over_report.percentile_ms(99.0),
            max_ms: over_report.percentile_ms(100.0),
            throughput_rps: over_report.throughput_rps(),
        },
        &mut table_rows,
    );
    over_server.shutdown();

    print_table(
        "Serving benchmark: live crr-serve under closed-loop load",
        &[
            "Endpoint", "Mode", "Clients", "OK/Total", "Shed", "p50(ms)", "p99(ms)", "RPS",
        ],
        &table_rows,
    );
    println!(
        "  swaps: {} accepted / {} rejected, generation {}, predictions pinned: {}",
        swaps.accepted, swaps.rejected, swaps.generation, swaps.predictions_pinned
    );
    let text = artifact::render(&serving_json::ServingReport { records, swaps });
    // Self-check before writing: never persist a report CI would reject.
    let summary = serving_json::validate(&text).expect("emitted serving report must validate");
    std::fs::write(path, &text).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("wrote {path} ({summary})");
}

/// One dataset's maintenance cell for [`stream_cmd`]: stream the tail of
/// `sc` (rows `base..`) through a standing `crr-stream` maintainer, repair,
/// and race the same end state against full rediscovery over base+tail.
/// Returns the benchmark record plus the proof-carrying repaired artifact
/// (for `--artifact-out`).
fn stream_cell(
    dataset: &str,
    sc: &Scenario,
    base: usize,
    batches: usize,
    opts: &CrrOptions,
) -> (stream_json::StreamRecord, crr_discovery::RuleSetArtifact) {
    use crr_stream::{StreamConfig, StreamEngine};

    let total = sc.table().num_rows();
    let tail = total - base;
    let (cfg, space) = crr_inputs(sc, opts);

    // The maintainer stands on the base slice: base discovery is "yesterday's"
    // work for both contenders and stays outside either measurement.
    let mut base_table = Table::new(sc.table().schema().clone());
    for r in 0..base {
        base_table.push_row(sc.table().row(r)).expect("base row");
    }
    let (_, base_artifact) = DiscoverySession::on(&base_table)
        .predicates(space.clone())
        .config(cfg.clone())
        .export()
        .expect("base discovery");
    let rules_before = base_artifact.rules.len();
    let sink = crr_discovery::MetricsSink::enabled();
    let mut engine = StreamEngine::new(
        base_table,
        base_artifact.rules.clone(),
        cfg.clone(),
        space.clone(),
        StreamConfig::default().with_metrics(sink.clone()),
    )
    .expect("engine over its own discovery inputs");

    // Incremental path: batched appends, one partition-scoped repair, and
    // the artifact export — everything the maintainer does for this tail.
    let mut outcome_sum = crr_stream::BatchOutcome::default();
    let per = tail.div_ceil(batches);
    let inc_start = Instant::now();
    let mut sent = 0usize;
    while sent < tail {
        let hi = (sent + per).min(tail);
        let batch: Vec<Vec<crr_data::Value>> = (base + sent..base + hi)
            .map(|r| sc.table().row(r))
            .collect();
        let out = engine.append(&batch).expect("append batch");
        outcome_sum.routed_pairs += out.routed_pairs;
        outcome_sum.uncovered += out.uncovered;
        outcome_sum.violations += out.violations;
        sent = hi;
    }
    let drifted = engine.drift().drifted.len();
    let repair = engine.repair().expect("repair");
    let incremental = inc_start.elapsed();
    assert_eq!(
        repair.residual_violations, 0,
        "{dataset}: repair left live violations"
    );

    // Full-rediscovery contender over base+tail, same inputs, same export.
    let session = DiscoverySession::on(sc.table())
        .predicates(space)
        .config(cfg);
    let full_start = Instant::now();
    let (_, _full_artifact) = session.export().expect("full rediscovery");
    let full = full_start.elapsed();

    // The repaired artifact must be proof-carrying and pass the full
    // verifier battery (A1–A7) including the repair-obligation audit ...
    let artifact = repair.artifact.clone();
    assert!(
        artifact.repair.is_some(),
        "{dataset}: a stream repair must bundle its obligations"
    );
    let analysis = crr_analyze::analyze_artifact_on(&artifact, engine.table());
    let sound = analysis.is_sound();
    assert!(
        sound,
        "{dataset}: repaired artifact failed crr-analyze: {:#?}",
        analysis.findings
    );

    // ... and hot-swap into a live server that keeps serving answers
    // byte-identical to offline evaluation of the repaired rules.
    let swap_served_identical = {
        use crr_serve::client::{roundtrip, rows_body};
        use crr_serve::{RuleStore, ServeConfig, Server};
        use std::sync::Arc;

        let store = Arc::new(
            RuleStore::open(base_artifact, crr_discovery::MetricsSink::disabled())
                .expect("base artifact admissible"),
        );
        let server = Server::start(Arc::clone(&store), ServeConfig::default()).expect("bind");
        let (status, _) = roundtrip(server.addr(), "POST", "/admin/swap", &artifact.to_text())
            .expect("swap roundtrip");
        assert_eq!(status, 200, "{dataset}: repaired artifact was not admitted");

        // When the splice is strippable (non-trivial region guards), the
        // same artifact with its repaired rules widened to unconditional
        // coverage must be bounced by the gate's A7 audit.
        if let Some(mutated) = crr_serve::client::strip_repair_guards(&artifact) {
            let (status, resp) =
                roundtrip(server.addr(), "POST", "/admin/swap", &mutated.to_text())
                    .expect("mutated swap roundtrip");
            assert_eq!(
                status, 422,
                "{dataset}: stripped repair guard must be refused: {resp}"
            );
        }

        let probe_step = (engine.table().num_rows() / 240).max(1);
        let probe_rows: Vec<usize> = (0..engine.table().num_rows())
            .step_by(probe_step)
            .take(240)
            .collect();
        let body = rows_body(probe_rows.iter().map(|&row| engine.table().row(row)));
        let expected = offline_predictions(&artifact.rules, engine.table(), &probe_rows);
        let (status, resp) =
            roundtrip(server.addr(), "POST", "/v1/predict", &body).expect("predict roundtrip");
        server.shutdown();
        status == 200 && resp.contains(&expected)
    };
    assert!(
        swap_served_identical,
        "{dataset}: served answers diverged from offline evaluation after the swap"
    );

    let record = stream_json::StreamRecord {
        dataset: dataset.into(),
        base_rows: base,
        appended_rows: tail,
        batches,
        routed_pairs: outcome_sum.routed_pairs as u64,
        uncovered_rows: outcome_sum.uncovered as u64,
        violations: outcome_sum.violations as u64,
        drifted_rules: drifted as u64,
        repair_affected_rows: repair.affected_rows,
        rules_before,
        rules_after: repair.rules,
        incremental_ms: incremental.as_secs_f64() * 1e3,
        full_ms: full.as_secs_f64() * 1e3,
        speedup: full.as_secs_f64() / incremental.as_secs_f64(),
        sound,
        swap_served_identical,
    };
    (record, artifact)
}

/// `stream`: the incremental-maintenance benchmark — append an unseen tail
/// through a `crr-stream` maintainer (route + delta + monitor + repair) and
/// race it against full rediscovery over base+tail. Writes
/// `BENCH_stream.json` in the `crr-stream-v1` layout that `--check` /
/// `scripts/ci.sh` re-validate. With `--artifact-out`, also writes the
/// electricity cell's proof-carrying repaired artifact.
fn stream_cmd(scale: f64, path: &str, artifact_out: Option<&str>) {
    let mut records = Vec::new();
    let mut table_rows = Vec::new();
    let mut exported: Option<String> = None;
    let cells: [(&str, fn(usize, u64) -> Scenario, usize); 2] = [
        ("electricity", electricity_scenario, scaled(11_520, scale)),
        ("tax", tax_scenario, scaled(4_000, scale)),
    ];
    for (dataset, make, base) in cells {
        let tail = (base / 10).max(10);
        let sc = make(base + tail, 42);
        let opts = CrrOptions {
            predicates_per_attr: 255,
            ..Default::default()
        };
        let (r, artifact) = stream_cell(dataset, &sc, base, 8, &opts);
        if exported.is_none() {
            exported = Some(artifact.to_text());
        }
        table_rows.push(vec![
            r.dataset.clone(),
            r.base_rows.to_string(),
            r.appended_rows.to_string(),
            r.uncovered_rows.to_string(),
            r.violations.to_string(),
            r.drifted_rules.to_string(),
            format!("{} -> {}", r.rules_before, r.rules_after),
            format!("{:.1}", r.incremental_ms),
            format!("{:.1}", r.full_ms),
            format!("{:.1}x", r.speedup),
        ]);
        records.push(r);
    }
    print_table(
        "Streaming maintenance: incremental (crr-stream) vs full rediscovery",
        &[
            "Dataset", "Base", "Appended", "Uncov", "Viol", "Drift", "Rules", "Inc(ms)",
            "Full(ms)", "Speedup",
        ],
        &table_rows,
    );
    let text = artifact::render(&stream_json::StreamReport { records });
    std::fs::write(path, &text).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    if let Some(out) = artifact_out {
        let text = exported.expect("stream ran at least one cell");
        std::fs::write(out, &text).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
        println!("wrote {out} (stream-repaired artifact, proof-carrying)");
    }
    // Checked last, so a run whose electricity cell misses the speedup
    // floor still leaves its measurement on disk; the run then fails
    // exactly as `--check` on the file would. At smoke scale the speedup
    // gate does not apply (see crr-stream-v1).
    let summary = stream_json::validate(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
    println!("wrote {path} ({summary})");
}
