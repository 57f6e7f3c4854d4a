//! Shared experiment plumbing for the paper-reproduction harness.
//!
//! Each figure/table runner (see `src/bin/experiments.rs`) combines three
//! ingredients defined here:
//!
//! * [`Scenario`] — a dataset instance with its attribute roles resolved
//!   (time axis, features `X`, target `Y`, stratification/condition
//!   attributes, expert boundaries, noise-derived `ρ_M`);
//! * `measure_*` functions — run one method (CRR or a baseline) and report
//!   the four quantities every panel of Figures 2–4 plots: **learning
//!   time**, **evaluation time**, **#rules** and **RMSE**;
//! * table formatting for paper-style console output.
//!
//! Four submodules emit the machine-readable artifacts the tracked
//! benchmark writes and CI re-validates: [`bench_json`]
//! (`BENCH_discovery.json` — discovery timings), [`metrics_json`]
//! (`metrics.json` — observability snapshots from `crr_obs`-instrumented
//! runs, including a fault-injection harness cell), [`analysis_json`]
//! (`analysis.json` — `crr-analyze` static-verifier reports over the
//! discovered artifacts, gated on zero `unsound` findings), [`serving_json`]
//! (`BENCH_serving.json` — live `crr-serve` latency/throughput cells plus
//! the hot-swap admission-gate cell) and [`stream_json`]
//! (`BENCH_stream.json` — incremental maintenance via `crr-stream` against
//! full rediscovery on appended slices, gated on the speedup floor). All
//! schemas are documented in `EXPERIMENTS.md`, section "Benchmark
//! artifact schemas".

#![deny(unsafe_code)]
// Bench/experiment harness: panicking on setup failure is the failure mode
// we want.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use crr_baselines::{
    evaluate_predictor, Ar, ArConfig, BaselinePredictor, Dhr, DhrConfig, Forest, ForestConfig,
    Mclr, MclrConfig, Recur, RecurConfig, RegTree, RegTreeConfig, Rr, SampLr, SampLrConfig,
};
use crr_core::{RuleIndex, RuleSet};
use crr_data::{AttrId, RowSet, Table};
use crr_datasets::{abalone, airquality, birdmap, electricity, tax, Dataset, GenConfig};
use crr_discovery::{
    compact_on_data, Budget, DiscoveryConfig, DiscoverySession, PredicateGen, PredicateSpace,
    QueueOrder,
};
use crr_models::{FitConfig, ModelKind};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

pub mod analysis_json;
pub mod bench_json;
pub mod metrics_json;
pub mod serving_json;
pub mod stream_json;

/// Process-wide discovery budget, set once from the CLI
/// (`--time-budget`/`--max-fits`) and applied to every scenario a runner
/// builds through [`crr_inputs`]. `None` (the default) means unlimited.
static GLOBAL_BUDGET: OnceLock<Budget> = OnceLock::new();

/// Installs the process-wide discovery budget. Later calls lose the race
/// and return `false` (the budget is deliberately write-once so runners
/// cannot disagree mid-process).
pub fn set_global_budget(budget: Budget) -> bool {
    GLOBAL_BUDGET.set(budget).is_ok()
}

/// The process-wide discovery budget, if one was installed.
pub fn global_budget() -> Option<Budget> {
    GLOBAL_BUDGET.get().cloned()
}

/// One method's measurements — a row of a Figures 2–4 panel.
#[derive(Debug, Clone)]
pub struct MethodResult {
    /// Method label (paper legend name).
    pub name: String,
    /// Model learning / rule discovery time.
    pub learn: Duration,
    /// Time to predict every row once.
    pub eval: Duration,
    /// RMSE over all answerable rows.
    pub rmse: f64,
    /// Number of rules/models the method holds.
    pub rules: usize,
    /// Models actually trained (CRR only; equals `rules` for baselines).
    pub trained: usize,
}

/// A dataset instance with its experiment roles resolved.
pub struct Scenario {
    /// The generated dataset.
    pub dataset: Dataset,
    /// Time attribute (for AR/DHR/Recur and time conditions).
    pub time_attr: AttrId,
    /// Feature attributes `X`.
    pub inputs: Vec<AttrId>,
    /// Target `Y`.
    pub target: AttrId,
    /// Attributes conditions may mention (superset of inputs, minus `Y`).
    pub condition_attrs: Vec<AttrId>,
    /// Categorical stratification attribute for SampLR/MCLR, if any.
    pub stratify: Option<AttrId>,
    /// Seasonal period for DHR, in time units.
    pub period: f64,
    /// Maximum bias `ρ_M`, derived from the generator's noise bound.
    pub rho_max: f64,
}

impl Scenario {
    /// The table.
    pub fn table(&self) -> &Table {
        &self.dataset.table
    }

    /// Every row.
    pub fn rows(&self) -> RowSet {
        self.dataset.table.all_rows()
    }

    /// The first `n` rows — the size-`|I|` instance of the scalability
    /// sweeps.
    pub fn instance(&self, n: usize) -> RowSet {
        RowSet::from_indices((0..n.min(self.dataset.table.num_rows()) as u32).collect())
    }

    /// Expert boundaries as owned pairs for [`PredicateGen::expert`].
    pub fn expert_boundaries(&self) -> Vec<(String, Vec<f64>)> {
        self.dataset
            .expert_boundaries
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect()
    }
}

/// AirQuality scenario: `no2 ~ f(hour)`, daily regimes (Figure 2).
pub fn airquality_scenario(rows: usize, seed: u64) -> Scenario {
    let ds = airquality(&GenConfig { rows, seed });
    let t = &ds.table;
    let hour = t.attr("hour").unwrap();
    let no2 = t.attr("no2").unwrap();
    Scenario {
        time_attr: hour,
        inputs: vec![hour],
        target: no2,
        condition_attrs: vec![hour],
        stratify: None,
        period: crr_datasets::airquality::DAY as f64,
        rho_max: 3.0 * crr_datasets::airquality::NOISE,
        dataset: ds,
    }
}

/// Electricity scenario: `global_active_power ~ f(minute)` (Figure 3).
pub fn electricity_scenario(rows: usize, seed: u64) -> Scenario {
    let ds = electricity(&GenConfig { rows, seed });
    let t = &ds.table;
    let minute = t.attr("minute").unwrap();
    let power = t.attr("global_active_power").unwrap();
    Scenario {
        time_attr: minute,
        inputs: vec![minute],
        target: power,
        condition_attrs: vec![minute],
        stratify: None,
        period: crr_datasets::electricity::DAY as f64,
        rho_max: 3.0 * crr_datasets::electricity::NOISE,
        dataset: ds,
    }
}

/// Tax scenario: `tax ~ f(salary)` conditioned on state (Figure 4).
pub fn tax_scenario(rows: usize, seed: u64) -> Scenario {
    let ds = tax(&GenConfig { rows, seed });
    let t = &ds.table;
    let salary = t.attr("salary").unwrap();
    let state = t.attr("state").unwrap();
    let target = t.attr("tax").unwrap();
    Scenario {
        time_attr: salary, // no time axis; unused by the relational methods
        inputs: vec![salary],
        target,
        condition_attrs: vec![state, salary],
        stratify: Some(state),
        period: 1.0,
        rho_max: 3.0 * crr_datasets::tax::NOISE,
        dataset: ds,
    }
}

/// BirdMap scenario: `latitude ~ f(date)` conditioned on bird + date
/// (Figures 5–10, Tables III–IV).
pub fn birdmap_scenario(rows: usize, seed: u64) -> Scenario {
    let ds = birdmap(&GenConfig { rows, seed });
    let t = &ds.table;
    let date = t.attr("date").unwrap();
    let bird = t.attr("bird").unwrap();
    let lat = t.attr("latitude").unwrap();
    Scenario {
        time_attr: date,
        inputs: vec![date],
        target: lat,
        condition_attrs: vec![bird, date],
        stratify: Some(bird),
        period: crr_datasets::birdmap::YEAR as f64,
        rho_max: 3.0 * crr_datasets::birdmap::NOISE,
        dataset: ds,
    }
}

/// Abalone scenario: `rings ~ f(length)` conditioned on sex + length.
pub fn abalone_scenario(rows: usize, seed: u64) -> Scenario {
    let ds = abalone(&GenConfig { rows, seed });
    let t = &ds.table;
    let length = t.attr("length").unwrap();
    let sex = t.attr("sex").unwrap();
    let rings = t.attr("rings").unwrap();
    Scenario {
        time_attr: length,
        inputs: vec![length],
        target: rings,
        condition_attrs: vec![sex, length],
        stratify: Some(sex),
        period: 1.0,
        rho_max: 3.0 * crr_datasets::abalone::NOISE,
        dataset: ds,
    }
}

/// CRR experiment knobs.
#[derive(Debug, Clone)]
pub struct CrrOptions {
    /// Model family (F1/F2/F3).
    pub kind: ModelKind,
    /// Binary-split constants per numeric attribute.
    pub predicates_per_attr: usize,
    /// Queue order.
    pub order: QueueOrder,
    /// Apply Algorithm 2 after searching.
    pub compact: bool,
    /// Enable model sharing (lines 7–10) during search.
    pub share: bool,
    /// Override `ρ_M` (defaults to the scenario's noise bound).
    pub rho_max: Option<f64>,
    /// Predicate generator override (defaults to binary).
    pub generator: Option<PredicateGen>,
    /// Per-run resource budget; falls back to the process-wide
    /// [`global_budget`] when `None`.
    pub budget: Option<Budget>,
}

impl Default for CrrOptions {
    fn default() -> Self {
        CrrOptions {
            kind: ModelKind::Linear,
            predicates_per_attr: 63,
            order: QueueOrder::Decrease,
            compact: true,
            share: true,
            rho_max: None,
            generator: None,
            budget: None,
        }
    }
}

/// Builds the discovery inputs for a scenario.
pub fn crr_inputs(sc: &Scenario, opts: &CrrOptions) -> (DiscoveryConfig, PredicateSpace) {
    let rho = opts.rho_max.unwrap_or(sc.rho_max);
    let generator = opts.generator.clone().unwrap_or(PredicateGen::Binary {
        per_attr: opts.predicates_per_attr,
    });
    let space = generator.generate(sc.table(), &sc.condition_attrs, sc.target, 11);
    let mut cfg = DiscoveryConfig::new(sc.inputs.clone(), sc.target, rho)
        .with_kind(opts.kind)
        .with_order(opts.order)
        .with_sharing(opts.share);
    if opts.kind == ModelKind::Mlp {
        // Keep per-partition MLP fits affordable in sweeps.
        cfg.fit.mlp.epochs = 60;
        cfg.fit.mlp.hidden = 6;
    }
    if let Some(budget) = opts.budget.clone().or_else(global_budget) {
        cfg = cfg.with_budget(budget);
    }
    (cfg, space)
}

/// Runs the full CRR pipeline (Algorithm 1 + optional Algorithm 2) and
/// measures it.
pub fn measure_crr(sc: &Scenario, rows: &RowSet, opts: &CrrOptions) -> (MethodResult, RuleSet) {
    let (cfg, space) = crr_inputs(sc, opts);
    let session = DiscoverySession::on(sc.table())
        .rows(rows.clone())
        .predicates(space.clone())
        .config(cfg.clone());
    let start = Instant::now();
    let found = session.run().expect("discovery");
    if !found.outcome.is_complete() {
        eprintln!(
            "  [budget] {} run degraded ({}): {} partitions drained, {} rows on fallbacks",
            sc.dataset.name,
            found.outcome,
            found.stats.drained_partitions,
            found.stats.drained_rows
        );
    }
    let rules = if opts.compact {
        compact_on_data(&found.rules, 1e-6, cfg.rho_max, sc.table(), rows)
            .expect("compaction")
            .0
    } else {
        found.rules
    };
    let learn = start.elapsed();
    // Evaluate through the interval rule index — compaction concentrates
    // many conjunctions into few rules, and the index makes locating
    // logarithmic instead of a scan.
    let eval_start = Instant::now();
    let index = RuleIndex::build(&rules, sc.table());
    let report = index.compile(sc.table()).evaluate(rows);
    let eval = eval_start.elapsed();
    (
        MethodResult {
            name: if opts.compact {
                "CRR".into()
            } else {
                "CRR-search".into()
            },
            learn,
            eval,
            rmse: report.rmse,
            rules: rules.len(),
            trained: found.stats.models_trained,
        },
        rules,
    )
}

/// Runs one unconditional RR model and measures it.
pub fn measure_rr(sc: &Scenario, rows: &RowSet, kind: ModelKind) -> MethodResult {
    let mut fit_cfg = FitConfig::new(kind);
    if kind == ModelKind::Mlp {
        fit_cfg.mlp.epochs = 60;
        fit_cfg.mlp.hidden = 6;
    }
    let start = Instant::now();
    let fitted = Rr::fit(sc.table(), rows, &sc.inputs, sc.target, &fit_cfg).expect("rr fit");
    let learn = start.elapsed();
    measure_fitted("RR", learn, &fitted, sc, rows)
}

fn measure_fitted(
    name: &str,
    learn: Duration,
    fitted: &dyn BaselinePredictor,
    sc: &Scenario,
    rows: &RowSet,
) -> MethodResult {
    let summary = evaluate_predictor(fitted, sc.table(), rows, sc.target);
    MethodResult {
        name: name.into(),
        learn,
        eval: summary.eval_time,
        rmse: summary.rmse,
        rules: fitted.num_rules(),
        trained: fitted.num_rules(),
    }
}

/// The baseline selector used by the figure runners.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselineKind {
    /// Model tree.
    RegTree,
    /// Autoregression.
    Ar,
    /// Sampling conditional regression.
    SampLr,
    /// Monte-Carlo conditional regression.
    Mclr,
    /// Bagged regression forest.
    Forest,
    /// Dynamic harmonic regression.
    Dhr,
    /// Recurrence-time models.
    Recur,
}

impl BaselineKind {
    /// The time-series comparator set of Figures 2–3.
    pub const TIME_SERIES: [BaselineKind; 7] = [
        BaselineKind::RegTree,
        BaselineKind::Ar,
        BaselineKind::SampLr,
        BaselineKind::Mclr,
        BaselineKind::Forest,
        BaselineKind::Dhr,
        BaselineKind::Recur,
    ];

    /// The relational comparator set of Figure 4.
    pub const RELATIONAL: [BaselineKind; 3] = [
        BaselineKind::SampLr,
        BaselineKind::Mclr,
        BaselineKind::RegTree,
    ];
}

/// Fits and measures one baseline on the scenario.
pub fn measure_baseline(sc: &Scenario, rows: &RowSet, kind: BaselineKind) -> MethodResult {
    let table = sc.table();
    match kind {
        BaselineKind::RegTree => {
            let cfg = RegTreeConfig::default();
            let start = Instant::now();
            let fitted = RegTree::fit(
                table,
                rows,
                &sc.inputs,
                &sc.condition_attrs,
                sc.target,
                &cfg,
            )
            .expect("regtree");
            measure_fitted("RegTree", start.elapsed(), &fitted, sc, rows)
        }
        BaselineKind::Ar => {
            let start = Instant::now();
            let fitted =
                Ar::fit(table, rows, sc.time_attr, sc.target, &ArConfig::default()).expect("ar");
            measure_fitted("AR", start.elapsed(), &fitted, sc, rows)
        }
        BaselineKind::SampLr => {
            let start = Instant::now();
            let fitted = SampLr::fit(
                table,
                rows,
                &sc.inputs,
                sc.stratify,
                sc.target,
                &SampLrConfig::default(),
            )
            .expect("samplr");
            measure_fitted("SampLR", start.elapsed(), &fitted, sc, rows)
        }
        BaselineKind::Mclr => {
            let start = Instant::now();
            let fitted = Mclr::fit(
                table,
                rows,
                &sc.inputs,
                sc.stratify,
                sc.target,
                &MclrConfig::default(),
            )
            .expect("mclr");
            measure_fitted("MCLR", start.elapsed(), &fitted, sc, rows)
        }
        BaselineKind::Forest => {
            let start = Instant::now();
            let fitted = Forest::fit(
                table,
                rows,
                &sc.inputs,
                &sc.condition_attrs,
                sc.target,
                &ForestConfig::default(),
            )
            .expect("forest");
            measure_fitted("Forest", start.elapsed(), &fitted, sc, rows)
        }
        BaselineKind::Dhr => {
            let start = Instant::now();
            let fitted = Dhr::fit(
                table,
                rows,
                sc.time_attr,
                sc.target,
                &DhrConfig {
                    period: sc.period,
                    harmonics: 6,
                },
            )
            .expect("dhr");
            measure_fitted("DHR", start.elapsed(), &fitted, sc, rows)
        }
        BaselineKind::Recur => {
            let start = Instant::now();
            let fitted = Recur::fit(
                table,
                rows,
                sc.time_attr,
                sc.target,
                &RecurConfig::default(),
            )
            .expect("recur");
            measure_fitted("Recur", start.elapsed(), &fitted, sc, rows)
        }
    }
}

/// Deterministic train/test split of a row set (hash-based, seeded).
/// Returns `(train, test)` with roughly `test_frac` of rows held out.
pub fn holdout_split(rows: &RowSet, test_frac: f64, seed: u64) -> (RowSet, RowSet) {
    rows.partition(|r| {
        let h = (r as u64)
            .wrapping_add(seed)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(31)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9);
        (h >> 11) as f64 / (1u64 << 53) as f64 >= test_frac
    })
}

/// Formats a duration in seconds with 4 decimals.
pub fn secs(d: Duration) -> String {
    format!("{:.4}", d.as_secs_f64())
}

/// Formats a duration in milliseconds with 3 decimals.
pub fn millis(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e3)
}

/// Prints an aligned console table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// A [`MethodResult`] as a standard table row
/// `[method, |I|, learn(s), eval(ms), #rules, rmse]`.
pub fn result_row(r: &MethodResult, instance: usize) -> Vec<String> {
    vec![
        r.name.clone(),
        instance.to_string(),
        secs(r.learn),
        millis(r.eval),
        r.rules.to_string(),
        format!("{:.4}", r.rmse),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_build_and_roles_resolve() {
        for sc in [
            airquality_scenario(200, 1),
            electricity_scenario(200, 1),
            tax_scenario(200, 1),
            birdmap_scenario(200, 1),
            abalone_scenario(200, 1),
        ] {
            assert!(sc.table().num_rows() == 200);
            assert!(!sc.condition_attrs.contains(&sc.target));
            assert!(sc.rho_max > 0.0);
        }
    }

    #[test]
    fn measure_crr_reports_consistent_counts() {
        let sc = airquality_scenario(400, 2);
        let (res, rules) = measure_crr(&sc, &sc.rows(), &CrrOptions::default());
        assert_eq!(res.rules, rules.len());
        assert!(res.rmse.is_finite());
        assert!(rules.uncovered(sc.table(), &sc.rows()).is_empty());
    }

    #[test]
    fn all_time_series_baselines_run() {
        let sc = airquality_scenario(300, 3);
        for kind in BaselineKind::TIME_SERIES {
            let r = measure_baseline(&sc, &sc.rows(), kind);
            assert!(r.rmse.is_finite(), "{}", r.name);
            assert!(r.rules >= 1, "{}", r.name);
        }
    }

    #[test]
    fn relational_baselines_run_on_tax() {
        let sc = tax_scenario(300, 4);
        for kind in BaselineKind::RELATIONAL {
            let r = measure_baseline(&sc, &sc.rows(), kind);
            assert!(r.rmse.is_finite(), "{}", r.name);
        }
    }

    #[test]
    fn rr_runs_for_every_family() {
        let sc = abalone_scenario(300, 5);
        for kind in ModelKind::ALL {
            let r = measure_rr(&sc, &sc.rows(), kind);
            assert!(r.rmse.is_finite(), "{kind:?}");
            assert_eq!(r.rules, 1);
        }
    }

    #[test]
    fn holdout_split_is_deterministic_and_disjoint() {
        let rows = RowSet::all(1_000);
        let (tr1, te1) = holdout_split(&rows, 0.2, 9);
        let (tr2, te2) = holdout_split(&rows, 0.2, 9);
        assert_eq!(tr1, tr2);
        assert_eq!(te1, te2);
        assert!(tr1.intersect(&te1).is_empty());
        assert_eq!(tr1.union(&te1), rows);
        // Roughly 20% held out.
        assert!((150..250).contains(&te1.len()), "{}", te1.len());
        // Different seed, different split.
        let (_, te3) = holdout_split(&rows, 0.2, 10);
        assert_ne!(te1, te3);
    }

    #[test]
    fn instance_subsets_are_prefixes() {
        let sc = tax_scenario(100, 6);
        let inst = sc.instance(10);
        assert_eq!(inst.len(), 10);
        assert_eq!(inst.as_slice()[9], 9);
        assert_eq!(sc.instance(1_000).len(), 100);
    }
}
