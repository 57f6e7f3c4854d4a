//! The `metrics.json` artifact: structured observability snapshots from
//! instrumented discovery runs, written by `experiments -- bench
//! --metrics-out` and re-validated by `--check` so a drifted
//! emitter or a broken counter invariant fails CI, not a reader.
//!
//! The runs render and parse through [`crate::artifact`]; a snapshot
//! parses back by the `crr_obs` metric registry. Every metric's meaning,
//! unit and paper correspondence, and this file's layout, are documented
//! in `EXPERIMENTS.md`, section "Benchmark artifact schemas".

use crate::artifact::{members, parse, record, Field};
use crr_obs::json::Json;
use crr_obs::{Counter, MetricValue, MetricsSink, MetricsSnapshot, Section};

/// Schema tag stamped into the file; bump when the layout changes.
/// v2 added the `shards` section and the `sharded` engine label; v3 added
/// the `serve` section (the serving runtime's counters and gauges); v4
/// added the `kernels` section (compiled-scan and batched-accumulate
/// counters) plus the `pred_scan`/`gram_accumulate` phase timers; v5 added
/// the `stream` section (the incremental maintainer's counters and drift
/// gauges) plus the `stream_apply`/`stream_repair` phase timers; v6 added
/// the planner counters (`shards.plan_*`, `shards.steal_assists`, the
/// `shards.balance_permille` gauge) and the per-run `shard_rows` array,
/// whose sum must equal the run's row count — previously sharded runs
/// never recorded how the rows actually split; v7 dropped the `rescan`
/// engine label and the row-at-a-time scan counter from the `kernels`
/// section (discovery has one engine) and requires at least one `sharded`
/// run per document; v8 dropped `shards.steal_assists` (cross-pool probe
/// scans run on their shard's own thread); v9 dropped
/// `shards.plan_fallback_single` (the planner no longer reads the sink, so
/// recording never changes a plan).
pub const SCHEMA: &str = "crr-metrics-v9";

record! {
    /// One instrumented discovery run and its frozen snapshot.
    #[derive(Debug, Clone)]
    pub struct MetricsRun(BLOCK) {
        /// Dataset label (`electricity`, `tax`).
        pub dataset: String,
        /// Instance size |I|.
        pub rows: usize,
        /// `moments` for a whole-instance run, or `sharded` for a multi-shard
        /// run (the same engine under a key-range shard plan).
        pub engine: String,
        /// For the fault-harness run: how many injected faults the plan fired,
        /// which `metrics.faults.injected_failures` must equal. `None` for
        /// clean runs, which must record zero fault events.
        pub expected_fault_events: Option<u64>,
        /// Per-shard row counts in shard order for a `sharded` run, `None`
        /// otherwise. The validator enforces that they sum to `rows` — a
        /// shard plan that loses or duplicates rows is an emitter bug, not a
        /// tuning matter.
        pub shard_rows: Option<Vec<usize>>,
        /// The run's frozen metrics.
        pub metrics: MetricsSnapshot,
    }
}

record! {
    /// The `metrics.json` document.
    #[derive(Debug, Clone)]
    pub struct MetricsReport(BLOCK, schema = SCHEMA) {
        /// Every instrumented run.
        pub runs: Vec<MetricsRun>,
    }
}

/// A snapshot renders through [`MetricsSnapshot::to_json`] and parses back
/// by the `crr_obs` registry — the full schema an enabled sink emits: each
/// metric must be one the sink emits, a counter or gauge a non-negative
/// integer and a span finite seconds.
impl Field for MetricsSnapshot {
    fn render(&self, indent: usize) -> String {
        self.to_json(indent)
    }

    fn parse(v: &Json, path: &str) -> Result<Self, String> {
        let registry = MetricsSink::enabled().snapshot();
        let mut sections = Vec::new();
        for (name, metrics) in members(v, path)? {
            let path = format!("{path}.{name}");
            let mut entries = Vec::new();
            for (key, x) in members(metrics, &path)? {
                let path = format!("{path}.{key}");
                let value = match registry.get(name, key) {
                    Some(MetricValue::Count(_)) => MetricValue::Count(u64::parse(x, &path)?),
                    Some(MetricValue::Gauge(_)) => MetricValue::Gauge(u64::parse(x, &path)?),
                    Some(MetricValue::Secs(_)) => MetricValue::Secs(f64::parse(x, &path)?),
                    None => return Err(format!("{path}: not a metric of the crr-obs registry")),
                };
                entries.push((key.clone(), value));
            }
            sections.push(Section {
                name: name.clone(),
                entries,
            });
        }
        Ok(MetricsSnapshot { sections })
    }
}

/// Validates a `metrics.json` document. On success, returns a one-line
/// summary; on failure, a message naming the first violation.
///
/// Beyond shape (schema tag, every field's type, non-empty `runs`, every
/// registry section present per run), this enforces the counter invariants
/// the instrumentation promises:
///
/// * the engine label is `moments` or `sharded`, and at least one run is
///   `sharded`;
/// * no run rescans rows (`fits.rescans == 0`): the benchmarked linear
///   family always fits from sufficient statistics;
/// * the cross-shard pool accounting reconciles in **every** run:
///   `shards.cross_pool_hits + shards.cross_pool_misses ==
///   shards.cross_pool_probes` (all three are zero when unsharded);
/// * the scan-kernel ledger balances in **every** run: each split filters
///   both of its sides through the compiled kernel, so
///   `kernels.compiled_scans == 2 × queue.splits`;
/// * a `sharded` run actually ran at least two shards (`shards.run >= 2`),
///   carries a `shard_rows` array with one positive entry per shard run
///   whose sum equals the run's `rows` (no shard plan may lose or
///   duplicate rows), and reports a `shards.balance_permille` gauge within
///   `[0, 1000]`; non-sharded runs must not carry `shard_rows`;
/// * `faults.injected_failures` equals `expected_fault_events` when the
///   run declares one, and zero otherwise;
/// * every run popped at least one partition;
/// * every `stream.*` counter is zero — these are batch discovery runs,
///   and streaming-maintainer activity belongs in `BENCH_stream.json`.
pub fn validate(text: &str) -> Result<String, String> {
    let report: MetricsReport = parse(text)?;
    if report.runs.is_empty() {
        return Err("'runs' is empty".to_string());
    }
    let registry = MetricsSink::enabled().snapshot();
    let mut fault_runs = 0usize;
    let mut sharded_runs = 0usize;
    for (i, r) in report.runs.iter().enumerate() {
        let ctx = format!("runs[{i}]");
        let engine = r.engine.as_str();
        if engine != "moments" && engine != "sharded" {
            return Err(format!("{ctx}: unknown engine '{engine}'"));
        }
        let m = &r.metrics;
        for section in &registry.sections {
            if !m.sections.iter().any(|s| s.name == section.name) {
                return Err(format!("{ctx}: metrics missing section '{}'", section.name));
            }
        }
        let count = |section: &str, key: &str| {
            m.count(section, key)
                .ok_or_else(|| format!("{ctx}: missing metric '{section}.{key}'"))
        };
        if count("queue", "pops")? == 0 {
            return Err(format!("{ctx}: run popped no partitions"));
        }
        for c in Counter::ALL.iter().filter(|c| c.section() == "stream") {
            let n = count("stream", c.name())?;
            if n != 0 {
                return Err(format!(
                    "{ctx}: discovery run recorded {n} 'stream.{}' event(s)",
                    c.name()
                ));
            }
        }
        let probes = count("shards", "cross_pool_probes")?;
        let hits = count("shards", "cross_pool_hits")?;
        let misses = count("shards", "cross_pool_misses")?;
        if hits + misses != probes {
            return Err(format!(
                "{ctx}: cross-shard pool accounting does not reconcile \
                 ({hits} hits + {misses} misses != {probes} probes)"
            ));
        }
        let splits = count("queue", "splits")?;
        let cscans = count("kernels", "compiled_scans")?;
        if cscans != 2 * splits {
            return Err(format!(
                "{ctx}: scan-kernel ledger does not balance \
                 ({cscans} compiled scans != 2 x {splits} splits)"
            ));
        }
        let rescans = count("fits", "rescans")?;
        if rescans != 0 {
            return Err(format!(
                "{ctx}: {engine} run recorded {rescans} row rescans"
            ));
        }
        match (engine, &r.shard_rows) {
            ("sharded", shard_rows) => {
                sharded_runs += 1;
                let run = count("shards", "run")?;
                if run < 2 {
                    return Err(format!("{ctx}: sharded run executed fewer than 2 shards"));
                }
                let shard_rows = shard_rows
                    .as_ref()
                    .ok_or_else(|| format!("{ctx}: sharded run missing 'shard_rows'"))?;
                if shard_rows.len() as u64 != run {
                    return Err(format!(
                        "{ctx}: 'shard_rows' has {} entries but the run executed {run} shards",
                        shard_rows.len()
                    ));
                }
                if let Some(j) = shard_rows.iter().position(|&n| n == 0) {
                    return Err(format!(
                        "{ctx}: shard_rows[{j}] is not a positive integer (0)"
                    ));
                }
                let sum: usize = shard_rows.iter().sum();
                if sum != r.rows {
                    return Err(format!(
                        "{ctx}: shard rows do not sum to the table rows \
                         ({sum} != {}) — the plan lost or duplicated rows",
                        r.rows
                    ));
                }
                let balance = count("shards", "balance_permille")?;
                if balance > 1000 {
                    return Err(format!(
                        "{ctx}: shards.balance_permille gauge out of range ({balance})"
                    ));
                }
            }
            (_, Some(_)) => {
                return Err(format!(
                    "{ctx}: '{engine}' run carries 'shard_rows' (sharded runs only)"
                ));
            }
            (_, None) => {}
        }
        let injected = count("faults", "injected_failures")?;
        match r.expected_fault_events {
            Some(expected) => {
                fault_runs += 1;
                if injected != expected {
                    return Err(format!(
                        "{ctx}: expected {expected} injected fault(s), recorded {injected}"
                    ));
                }
            }
            None => {
                if injected != 0 {
                    return Err(format!(
                        "{ctx}: clean run recorded {injected} injected fault(s)"
                    ));
                }
            }
        }
    }
    if sharded_runs == 0 {
        return Err("no 'sharded' run: the shard-plan invariants went unchecked".to_string());
    }
    Ok(format!(
        "ok: {} run(s), {sharded_runs} sharded, {fault_runs} fault-harness",
        report.runs.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn render(runs: &[MetricsRun]) -> String {
        crate::artifact::render(&MetricsReport {
            runs: runs.to_vec(),
        })
    }

    fn snap_with(faults: u64) -> MetricsSnapshot {
        let sink = MetricsSink::enabled();
        sink.add(Counter::QueuePops, 7);
        sink.add(Counter::MomentsSolves, 5);
        sink.add(Counter::MomentsAddRowOps, 100);
        sink.add(Counter::InjectedFailures, faults);
        sink.snapshot()
    }

    fn sharded_sink() -> MetricsSink {
        let sink = MetricsSink::enabled();
        sink.add(Counter::QueuePops, 7);
        sink.add(Counter::ShardsRun, 4);
        sink.add(Counter::CrossShardPoolProbes, 5);
        sink.add(Counter::CrossShardPoolHits, 3);
        sink.add(Counter::CrossShardPoolMisses, 2);
        sink
    }

    fn sharded_run() -> MetricsRun {
        MetricsRun {
            dataset: "electricity".into(),
            rows: 11520,
            engine: "sharded".into(),
            expected_fault_events: None,
            shard_rows: Some(vec![2880, 2880, 2880, 2880]),
            metrics: sharded_sink().snapshot(),
        }
    }

    fn sample() -> Vec<MetricsRun> {
        vec![
            MetricsRun {
                dataset: "electricity".into(),
                rows: 2880,
                engine: "moments".into(),
                expected_fault_events: None,
                shard_rows: None,
                metrics: snap_with(0),
            },
            MetricsRun {
                dataset: "electricity".into(),
                rows: 2880,
                engine: "moments".into(),
                expected_fault_events: Some(1),
                shard_rows: None,
                metrics: snap_with(1),
            },
            sharded_run(),
        ]
    }

    #[test]
    fn render_round_trips_through_validate() {
        let summary = validate(&render(&sample())).expect("valid");
        assert!(summary.contains("3 run(s)"), "{summary}");
        assert!(summary.contains("1 sharded"), "{summary}");
        assert!(summary.contains("1 fault-harness"), "{summary}");
    }

    #[test]
    fn sharded_runs_validate_with_reconciled_pool_counters() {
        validate(&render(&[sharded_run()])).expect("valid sharded run");
    }

    #[test]
    fn shard_rows_must_sum_to_the_table_rows() {
        let mut run = sharded_run();
        run.shard_rows = Some(vec![2880, 2880, 2880, 2879]);
        let err = validate(&render(&[run])).expect_err("must fail");
        assert!(err.contains("lost or duplicated"), "{err}");
    }

    #[test]
    fn shard_rows_must_cover_every_shard_run() {
        let mut run = sharded_run();
        run.shard_rows = Some(vec![5760, 5760]);
        let err = validate(&render(&[run])).expect_err("must fail");
        assert!(err.contains("2 entries"), "{err}");

        let mut run = sharded_run();
        run.shard_rows = None;
        let err = validate(&render(&[run])).expect_err("must fail");
        assert!(err.contains("shard_rows"), "{err}");
    }

    #[test]
    fn shard_rows_on_an_unsharded_run_are_rejected() {
        let mut runs = sample();
        runs[0].shard_rows = Some(vec![2880]);
        let err = validate(&render(&runs)).expect_err("must fail");
        assert!(err.contains("sharded runs only"), "{err}");
    }

    #[test]
    fn unreconciled_pool_counters_are_rejected() {
        let mut runs = sample();
        // A hit that no probe accounts for.
        let sink = MetricsSink::enabled();
        sink.add(Counter::QueuePops, 7);
        sink.add(Counter::MomentsSolves, 5);
        sink.add(Counter::CrossShardPoolHits, 1);
        runs[0].metrics = sink.snapshot();
        let err = validate(&render(&runs)).expect_err("must fail");
        assert!(err.contains("reconcile"), "{err}");
    }

    #[test]
    fn sharded_run_with_too_few_shards_is_rejected() {
        let mut runs = sample();
        runs[0].engine = "sharded".into(); // snapshot has shards.run == 0
        let err = validate(&render(&runs)).expect_err("must fail");
        assert!(err.contains("fewer than 2 shards"), "{err}");
    }

    #[test]
    fn engine_inconsistency_is_rejected() {
        // A run that fitted from materialized rows is not the benchmarked
        // moments engine.
        let mut runs = sample();
        let sink = MetricsSink::enabled();
        sink.add(Counter::QueuePops, 7);
        sink.add(Counter::Rescans, 5);
        runs[0].metrics = sink.snapshot();
        let err = validate(&render(&runs)).expect_err("must fail");
        assert!(err.contains("5 row rescans"), "{err}");

        // The retired engine label no longer validates.
        let mut runs = sample();
        runs[0].engine = "rescan".into();
        let err = validate(&render(&runs)).expect_err("must fail");
        assert!(err.contains("unknown engine 'rescan'"), "{err}");
    }

    #[test]
    fn documents_without_a_sharded_run_are_rejected() {
        let mut runs = sample();
        runs.retain(|r| r.engine != "sharded");
        let err = validate(&render(&runs)).expect_err("must fail");
        assert!(err.contains("no 'sharded' run"), "{err}");
    }

    #[test]
    fn fault_count_mismatch_is_rejected() {
        let mut runs = sample();
        runs[1].expected_fault_events = Some(3);
        let err = validate(&render(&runs)).expect_err("must fail");
        assert!(err.contains("expected 3"), "{err}");
    }

    #[test]
    fn unexpected_faults_on_clean_run_are_rejected() {
        let mut runs = sample();
        runs[0].metrics = snap_with(2);
        let err = validate(&render(&runs)).expect_err("must fail");
        assert!(err.contains("clean run"), "{err}");
    }

    #[test]
    fn missing_section_is_rejected() {
        let mut runs = sample();
        runs[0].metrics.sections.retain(|s| s.name != "budget");
        let err = validate(&render(&runs)).expect_err("must fail");
        assert!(err.contains("budget"), "{err}");
    }

    #[test]
    fn unbalanced_scan_ledger_is_rejected() {
        let mut runs = sample();
        // A split whose side-filters no kernel accounts for.
        let sink = MetricsSink::enabled();
        sink.add(Counter::QueuePops, 7);
        sink.add(Counter::MomentsSolves, 5);
        sink.add(Counter::Splits, 3);
        sink.add(Counter::KernelCompiledScans, 5);
        runs[0].metrics = sink.snapshot();
        let err = validate(&render(&runs)).expect_err("must fail");
        assert!(err.contains("scan-kernel ledger"), "{err}");
    }

    #[test]
    fn stream_activity_in_a_discovery_run_is_rejected() {
        let mut runs = sample();
        let sink = MetricsSink::enabled();
        sink.add(Counter::QueuePops, 7);
        sink.add(Counter::MomentsSolves, 5);
        sink.add(Counter::StreamBatches, 1);
        runs[0].metrics = sink.snapshot();
        let err = validate(&render(&runs)).expect_err("must fail");
        assert!(err.contains("stream.batches"), "{err}");
    }

    #[test]
    fn empty_or_mislabeled_documents_are_rejected() {
        assert!(validate("{}").is_err());
        assert!(validate("{\"schema\": \"crr-metrics-v9\", \"runs\": []}").is_err());
        assert!(validate("{\"schema\": \"other\", \"runs\": [1]}").is_err());
        // The v8 tag is stale now that the planner's sink-read fallback
        // counter is gone.
        assert!(validate("{\"schema\": \"crr-metrics-v8\", \"runs\": [1]}").is_err());
    }

    #[test]
    fn snapshots_parse_by_the_registry() {
        let text = render(&sample());
        let err = validate(&text.replacen("\"pops\": 7", "\"pops\": 7.5", 1))
            .expect_err("a fractional counter must fail");
        assert!(
            err.contains("runs[0].metrics.queue.pops: not a non-negative integer"),
            "{err}"
        );
        let err = validate(&text.replacen("\"pops\": 7", "\"popz\": 7", 1))
            .expect_err("an unknown metric must fail");
        assert!(
            err.contains("queue.popz: not a metric of the crr-obs registry"),
            "{err}"
        );
    }

    #[test]
    fn committed_artifact_round_trips_byte_for_byte() {
        let text = include_str!("../../../metrics.json");
        let report: MetricsReport = parse(text).expect("the committed file parses");
        assert_eq!(crate::artifact::render(&report), text);
    }
}
