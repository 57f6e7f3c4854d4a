//! Tracked benchmark output: the `bench` experiment writes
//! `BENCH_discovery.json`, and CI (`scripts/ci.sh`, via `--check`) re-parses
//! and validates it so a regressed or malformed emitter fails the build.
//!
//! The records render and parse through [`crate::artifact`]. The schema is
//! documented field by field in `EXPERIMENTS.md`, section "Benchmark
//! artifact schemas".

use crate::artifact::{parse, record};
use crr_data::Boundary;

/// Schema tag stamped into the file; bump when the layout changes.
/// v2 added the `sharded` section and the `sharded` engine label; v3 added
/// the `interpreted` engine label (moments engine under the interpreted
/// scan kernel, required at every (dataset, size) cell with results
/// byte-equal to the `moments` cell) and the per-kernel `kernels` array;
/// v4 added the `boundary` and `balance_permille` fields on sharded cells
/// (equal-width vs quantile shard planning, both required per dataset,
/// each with its plan's min/max shard-size balance); v5 dropped the
/// `rescan` and `interpreted` engine labels, the `speedup` array and the
/// `kernels` array — discovery has one engine, its slow references live
/// in tests, and `benches/perf_scan_kernels.rs` times the kernels — and
/// made each sharded cell record `reps` paired rounds with the
/// five-number [`Spread`] of its times and ratio.
pub const SCHEMA: &str = "crr-bench-discovery-v5";

/// Tax instance size at and above which the sharding gate applies: the
/// full-scale tracked cell. Smoke-scale cells take one round, whose ratio
/// is noise.
pub const SHARDING_GATE_ROWS: usize = 10_000;

/// Floor on the quantile plan's speedup over one shard on the skewed tax
/// key, read at the conservative end of the cell's spread: its lower
/// quartile ([`Spread::q1`]).
pub const MIN_SHARDING_RATIO: f64 = 1.6;

record! {
    /// Five-number summary of one timed quantity over a cell's paired rounds.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct Spread(INLINE) {
        /// Smallest sample.
        pub min: f64,
        /// Lower quartile. Over 21 rounds this is the 6th smallest sample, a
        /// distribution-free one-sided lower confidence bound on the median
        /// at 98.7% (fewer than 6 of 21 samples fall below the median with
        /// probability 0.013).
        pub q1: f64,
        /// Median.
        pub median: f64,
        /// Upper quartile.
        pub q3: f64,
        /// Largest sample.
        pub max: f64,
    }
}

impl Spread {
    /// Summarizes `samples` (at least one) by nearest-rank quartiles.
    pub fn of(samples: &[f64]) -> Spread {
        assert!(!samples.is_empty(), "a spread needs at least one sample");
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let at = |q: f64| v[((v.len() - 1) as f64 * q).round() as usize];
        Spread {
            min: v[0],
            q1: at(0.25),
            median: at(0.5),
            q3: at(0.75),
            max: v[v.len() - 1],
        }
    }

    /// Checks a recorded spread of times or ratios: positive and ordered.
    fn check(&self, path: &str) -> Result<(), String> {
        if self.min <= 0.0 {
            return Err(format!("{path}: non-positive min {}", self.min));
        }
        let ordered = [self.min, self.q1, self.median, self.q3, self.max];
        if ordered.windows(2).any(|w| w[0] > w[1]) {
            return Err(format!("{path}: summary out of order {self:?}"));
        }
        Ok(())
    }
}

record! {
    /// One timed discovery run: a (dataset, size, engine) cell.
    #[derive(Debug, Clone)]
    pub struct BenchRecord(INLINE) {
        /// Dataset label (`electricity`, `tax`).
        pub dataset: String,
        /// Instance size |I| actually used.
        pub rows: usize,
        /// `moments` for a whole-instance run, or `sharded` for the
        /// multi-shard cell (the same engine under a key-range shard plan).
        pub engine: String,
        /// Best-of-reps wall-clock discovery time, seconds.
        pub learn_secs: f64,
        /// Rules discovered.
        pub rules: usize,
        /// Models actually trained (rest were shared from the pool).
        pub trained: usize,
        /// RMSE of the discovered rule set over the instance.
        pub rmse: f64,
    }
}

record! {
    /// Sharded-vs-single comparison at one (dataset, size) point: the same
    /// instance discovered whole and under an N-way key-range shard plan, in
    /// `reps` interleaved rounds that each time the single-shard baseline and
    /// both shard plans back to back.
    #[derive(Debug, Clone)]
    pub struct ShardedEntry(INLINE) {
        /// Dataset label.
        pub dataset: String,
        /// Instance size.
        pub rows: usize,
        /// Shard count of the sharded run (≥ 2).
        pub shards: usize,
        /// Boundary placement of the shard plan.
        pub boundary: Boundary,
        /// Shard balance of the plan's interval shards, min/max row count in
        /// permille (1000 = perfectly even). This is the geometry the
        /// boundary choice controls: on a single-core host the wall-clock
        /// ratio measures total work, so balance is where a quantile plan's
        /// advantage on a skewed key is visible and gated.
        pub balance_permille: u64,
        /// Paired rounds timed.
        pub reps: usize,
        /// Single-shard (whole-instance) time per round, seconds.
        pub single_secs: Spread,
        /// N-shard time per round including the Algorithm 2 merge, seconds.
        pub sharded_secs: Spread,
        /// Per-round `single / sharded` time — above 1.0 means sharding is
        /// faster. Summarized over the paired ratios, not divided from the
        /// two time summaries.
        pub ratio: Spread,
    }
}

record! {
    /// The full report the `bench` experiment emits.
    #[derive(Debug, Clone, Default)]
    pub struct BenchReport(BLOCK, schema = SCHEMA) {
        /// Every timed cell.
        pub records: Vec<BenchRecord>,
        /// Sharded-vs-single comparisons, one per dataset at its largest size.
        pub sharded: Vec<ShardedEntry>,
    }
}

/// Validates a `BENCH_discovery.json` document. On success, returns a
/// one-line summary; on failure, a message naming the first violation.
///
/// Checks: the schema tag and every field's type; a non-empty `records`
/// array with positive sizes, non-negative times and a known engine label
/// (`moments` or `sharded`); each dataset measured at ≥ 2 sizes with a
/// `moments` record at each size; and a non-empty `sharded` array whose
/// cells have ≥ 2 shards, ≥ 1 round and ordered positive spreads, with
/// every [`Boundary`] measured for every sharded dataset. At gate scale
/// (`tax` with at least [`SHARDING_GATE_ROWS`] rows) the quantile plan's
/// balance must beat the equal-width plan's — equal-width crowds most of
/// the skewed salary key into one shard — and its ratio's lower quartile
/// must reach [`MIN_SHARDING_RATIO`].
pub fn validate(text: &str) -> Result<String, String> {
    let report: BenchReport = parse(text)?;
    if report.records.is_empty() {
        return Err("'records' is empty".to_string());
    }
    for (i, r) in report.records.iter().enumerate() {
        let ctx = format!("records[{i}]");
        if r.engine != "moments" && r.engine != "sharded" {
            return Err(format!("{ctx}: unknown engine '{}'", r.engine));
        }
        if r.rows == 0 {
            return Err(format!("{ctx}: 'rows' must be a positive integer"));
        }
        if r.learn_secs < 0.0 {
            return Err(format!("{ctx}: negative learn_secs"));
        }
    }
    // Distinct (dataset, rows) cells, each needing a whole-instance run.
    let mut cells: Vec<(&str, usize)> = report
        .records
        .iter()
        .map(|r| (&*r.dataset, r.rows))
        .collect();
    cells.sort_unstable();
    cells.dedup();
    for &(dataset, rows) in &cells {
        let moments =
            |r: &BenchRecord| r.dataset == dataset && r.rows == rows && r.engine == "moments";
        if !report.records.iter().any(moments) {
            return Err(format!("{dataset}@{rows}: engine 'moments' never measured"));
        }
    }
    let mut datasets: Vec<&str> = cells.iter().map(|&(d, _)| d).collect();
    datasets.dedup();
    for d in &datasets {
        let sizes = cells.iter().filter(|(name, _)| name == d).count();
        if sizes < 2 {
            return Err(format!("dataset '{d}' measured at only {sizes} size(s)"));
        }
    }

    if report.sharded.is_empty() {
        return Err("'sharded' is empty".to_string());
    }
    for (i, s) in report.sharded.iter().enumerate() {
        let ctx = format!("sharded[{i}]");
        if s.shards < 2 {
            return Err(format!(
                "{ctx}: 'shards' must be an integer >= 2 (got {})",
                s.shards
            ));
        }
        if !(1..=1000).contains(&s.balance_permille) {
            return Err(format!(
                "{ctx}: 'balance_permille' must be an integer in 1..=1000 (got {})",
                s.balance_permille
            ));
        }
        if s.reps == 0 {
            return Err(format!("{ctx}: 'reps' must be a positive integer (got 0)"));
        }
        s.single_secs.check(&format!("{ctx}.single_secs"))?;
        s.sharded_secs.check(&format!("{ctx}.sharded_secs"))?;
        s.ratio.check(&format!("{ctx}.ratio"))?;
    }
    // Every sharded dataset must measure both boundary placements, so the
    // adaptive plan always has its equal-width baseline next to it.
    let mut gated = 0usize;
    for s in &report.sharded {
        let (dataset, rows, balance) = (&s.dataset, s.rows, s.balance_permille);
        let cell = |want: Boundary| {
            report
                .sharded
                .iter()
                .find(|c| c.dataset == *dataset && c.rows == rows && c.boundary == want)
        };
        for want in Boundary::ALL {
            if cell(want).is_none() {
                return Err(format!(
                    "sharded {dataset}@{rows}: boundary '{}' never measured",
                    want.label()
                ));
            }
        }
        if dataset != "tax" || s.boundary != Boundary::Quantile || rows < SHARDING_GATE_ROWS {
            continue;
        }
        gated += 1;
        let ew_balance = cell(Boundary::EqualWidth).map_or(0, |c| c.balance_permille);
        if balance <= ew_balance {
            return Err(format!(
                "sharded tax@{rows}: quantile balance {balance}‰ does not beat \
                 equal-width {ew_balance}‰ on the skewed key"
            ));
        }
        if s.ratio.q1 < MIN_SHARDING_RATIO {
            return Err(format!(
                "sharded tax@{rows}: quantile speedup lower quartile {:.3}x is below \
                 the {MIN_SHARDING_RATIO}x floor (median {:.3}x)",
                s.ratio.q1, s.ratio.median
            ));
        }
    }
    Ok(format!(
        "ok: {} records over {} dataset(s), {} sharded cell(s), {gated} at gate scale",
        report.records.len(),
        datasets.len(),
        report.sharded.len(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::render;

    fn sample() -> BenchReport {
        let mut report = BenchReport::default();
        for dataset in ["electricity", "tax"] {
            for rows in [1000usize, 2000] {
                report.records.push(BenchRecord {
                    dataset: dataset.into(),
                    rows,
                    engine: "moments".into(),
                    learn_secs: 0.25,
                    rules: 12,
                    trained: 4,
                    rmse: 0.05,
                });
            }
            for boundary in Boundary::ALL {
                report.sharded.push(ShardedEntry {
                    dataset: dataset.into(),
                    rows: 2000,
                    shards: 4,
                    boundary,
                    balance_permille: if boundary == Boundary::Quantile {
                        980
                    } else {
                        410
                    },
                    reps: 5,
                    single_secs: Spread::of(&[0.4, 0.41, 0.42, 0.45, 0.5]),
                    sharded_secs: Spread::of(&[0.2, 0.21, 0.22, 0.23, 0.3]),
                    ratio: Spread::of(&[1.5, 1.8, 1.9, 2.0, 2.1]),
                });
            }
        }
        report
    }

    #[test]
    fn render_round_trips_through_validate() {
        let text = render(&sample());
        let summary = validate(&text).expect("valid");
        assert!(summary.contains("4 records"), "{summary}");
        assert!(summary.contains("2 dataset"), "{summary}");
        assert!(
            summary.contains("4 sharded cell(s), 0 at gate scale"),
            "{summary}"
        );
    }

    #[test]
    fn spread_is_a_nearest_rank_five_number_summary() {
        let samples: Vec<f64> = (1..=21).rev().map(f64::from).collect();
        let s = Spread::of(&samples);
        assert_eq!(
            (s.min, s.q1, s.median, s.q3, s.max),
            (1.0, 6.0, 11.0, 16.0, 21.0)
        );
        let one = Spread::of(&[0.5]);
        assert_eq!((one.min, one.median, one.max), (0.5, 0.5, 0.5));
    }

    #[test]
    fn sharded_spreads_are_checked() {
        let mut report = sample();
        report.sharded[0].ratio.q1 = 2.05;
        let err = validate(&render(&report)).expect_err("unordered spread must fail");
        assert!(
            err.contains("sharded[0].ratio: summary out of order"),
            "{err}"
        );

        let mut report = sample();
        report.sharded[1].single_secs.min = 0.0;
        let err = validate(&render(&report)).expect_err("zero time must fail");
        assert!(
            err.contains("sharded[1].single_secs: non-positive"),
            "{err}"
        );

        let mut report = sample();
        report.sharded[0].reps = 0;
        let err = validate(&render(&report)).expect_err("zero rounds must fail");
        assert!(err.contains("reps"), "{err}");

        let text = render(&sample()).replacen("\"q3\"", "\"p75\"", 1);
        let err = validate(&text).expect_err("missing quartile must fail");
        assert!(err.contains("missing key 'q3'"), "{err}");
    }

    #[test]
    fn tax_sharding_gate_binds_at_gate_scale_only() {
        let at_gate_scale = |q1: f64, quantile_balance: u64| {
            let mut report = sample();
            for s in report.sharded.iter_mut().filter(|s| s.dataset == "tax") {
                s.rows = SHARDING_GATE_ROWS;
                if s.boundary == Boundary::Quantile {
                    s.balance_permille = quantile_balance;
                    s.ratio = Spread::of(&[1.0, q1, 1.9, 2.0, 2.1]);
                }
            }
            validate(&render(&report))
        };
        let summary = at_gate_scale(1.6, 980).expect("the floor itself passes");
        assert!(summary.contains("1 at gate scale"), "{summary}");

        let err = at_gate_scale(1.59, 980).expect_err("a lower quartile under 1.6x fails");
        assert!(err.contains("below the 1.6x floor"), "{err}");

        let err = at_gate_scale(1.8, 410).expect_err("balance no better than equal-width");
        assert!(err.contains("does not beat equal-width 410"), "{err}");

        // The sample's smoke-scale tax cells already read a lower quartile
        // of 1.8x; the same slow ratio below gate scale is recorded, not
        // gated.
        let mut report = sample();
        report.sharded[3].ratio = Spread::of(&[1.0, 1.0, 1.1, 1.2, 1.3]);
        validate(&render(&report)).expect("smoke scale is not gated");
    }

    #[test]
    fn non_finite_numbers_are_rejected() {
        let mut report = sample();
        report.records[0].learn_secs = f64::NAN;
        let text = render(&report);
        let err = validate(&text).expect_err("NaN must fail");
        assert!(err.contains("learn_secs"), "{err}");
    }

    #[test]
    fn missing_keys_are_rejected() {
        let text = render(&sample()).replace("\"rmse\": 0.05", "\"rmsx\": 0.05");
        let err = validate(&text).expect_err("missing key must fail");
        assert!(err.contains("rmse"), "{err}");
    }

    #[test]
    fn sharded_cells_are_required_and_checked() {
        let mut report = sample();
        report.sharded.clear();
        let err = validate(&render(&report)).expect_err("empty sharded must fail");
        assert!(err.contains("sharded"), "{err}");

        let mut report = sample();
        report.sharded[0].shards = 1;
        let err = validate(&render(&report)).expect_err("1 shard is not a sharded cell");
        assert!(err.contains("shards"), "{err}");
    }

    #[test]
    fn sharded_boundary_labels_are_required_and_checked() {
        let text = render(&sample()).replacen("\"quantile\"", "\"fibonacci\"", 1);
        let err = validate(&text).expect_err("unknown boundary must fail");
        assert!(
            err.contains("sharded[1].boundary: unknown boundary 'fibonacci'"),
            "{err}"
        );

        let mut report = sample();
        report.sharded.retain(|s| s.boundary != Boundary::Quantile);
        let err = validate(&render(&report)).expect_err("missing quantile cell must fail");
        assert!(err.contains("quantile"), "{err}");

        let mut report = sample();
        report
            .sharded
            .retain(|s| s.boundary != Boundary::EqualWidth);
        let err = validate(&render(&report)).expect_err("missing equal-width cell must fail");
        assert!(err.contains("equal_width"), "{err}");
    }

    #[test]
    fn sharded_balance_must_be_a_permille() {
        let mut report = sample();
        report.sharded[0].balance_permille = 0;
        let err = validate(&render(&report)).expect_err("zero balance must fail");
        assert!(err.contains("balance_permille"), "{err}");

        let mut report = sample();
        report.sharded[0].balance_permille = 1001;
        let err = validate(&render(&report)).expect_err("balance above 1000 must fail");
        assert!(err.contains("balance_permille"), "{err}");
    }

    #[test]
    fn sharded_engine_records_are_accepted() {
        let mut report = sample();
        report.records.push(BenchRecord {
            dataset: "electricity".into(),
            rows: 2000,
            engine: "sharded".into(),
            learn_secs: 0.2,
            rules: 12,
            trained: 3,
            rmse: 0.05,
        });
        validate(&render(&report)).expect("sharded engine label is valid");
    }

    #[test]
    fn retired_engine_labels_are_rejected() {
        let mut report = sample();
        report.records[0].engine = "rescan".into();
        let err = validate(&render(&report)).expect_err("rescan is retired");
        assert!(err.contains("unknown engine 'rescan'"), "{err}");

        // A size measured only under sharding has no whole-instance cell.
        let mut report = sample();
        report.records[0].engine = "sharded".into();
        let err = validate(&render(&report)).expect_err("moments cell is required");
        assert!(err.contains("'moments' never measured"), "{err}");
    }

    // Parser internals are tested where they live, in `crr_obs::json`;
    // here only the validator's use of them matters.
    #[test]
    fn non_object_documents_are_rejected() {
        assert!(validate("[]").is_err());
        assert!(validate("{").is_err());
    }

    #[test]
    fn committed_artifact_round_trips_byte_for_byte() {
        let text = include_str!("../../../BENCH_discovery.json");
        let report: BenchReport = parse(text).expect("the committed file parses");
        assert_eq!(render(&report), text);
    }
}
