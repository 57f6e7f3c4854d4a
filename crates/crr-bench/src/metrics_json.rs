//! The `metrics.json` artifact: structured observability snapshots from
//! instrumented discovery runs, written by `experiments -- bench
//! --metrics-out` and re-validated by `--check` so a drifted
//! emitter or a broken counter invariant fails CI, not a reader.
//!
//! Like [`crate::bench_json`], rendering and parsing ride on the
//! hand-rolled JSON layer in [`crr_obs::json`] — no serde. Every metric's
//! meaning, unit and paper correspondence, and this file's layout, are
//! documented in `EXPERIMENTS.md`, section "Benchmark artifact schemas".

use crr_obs::json::{esc, parse, Json};
use crr_obs::{MetricValue, MetricsSnapshot};
use std::fmt::Write as _;

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

/// Sections every enabled-sink snapshot must carry (the sink always emits
/// the full schema, zeros included, so file shape is run-independent).
pub const REQUIRED_SECTIONS: [&str; 12] = [
    "queue", "pool", "fits", "moments", "budget", "faults", "run", "phases", "shards", "serve",
    "kernels", "stream",
];

/// Streaming-maintainer counters that must stay zero in a batch discovery
/// run — `metrics.json` captures discovery, and any `stream.*` activity in
/// it means a maintainer leaked into the wrong instrumentation scope.
/// (`BENCH_stream.json` is where streaming runs are tracked.)
const STREAM_COUNTERS: [&str; 10] = [
    "batches",
    "append_rows",
    "delete_rows",
    "routed_pairs",
    "uncovered_rows",
    "moments_updates",
    "violations",
    "drifted_rules",
    "repairs",
    "repaired_rules",
];

/// One instrumented discovery run and its frozen snapshot.
#[derive(Debug, Clone)]
pub struct MetricsRun {
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
    /// Per-shard row counts in shard order for a `sharded` run, empty
    /// otherwise. The validator enforces that they sum to `rows` — a
    /// shard plan that loses or duplicates rows is an emitter bug, not a
    /// tuning matter.
    pub shard_rows: Vec<usize>,
    /// The run's frozen metrics.
    pub snapshot: MetricsSnapshot,
}

/// Renders the runs as pretty-printed JSON with a stable key order.
pub fn render(runs: &[MetricsRun]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": \"{SCHEMA}\",");
    let _ = writeln!(out, "  \"runs\": [");
    for (i, r) in runs.iter().enumerate() {
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"dataset\": \"{}\",", esc(&r.dataset));
        let _ = writeln!(out, "      \"rows\": {},", r.rows);
        let _ = writeln!(out, "      \"engine\": \"{}\",", esc(&r.engine));
        if let Some(n) = r.expected_fault_events {
            let _ = writeln!(out, "      \"expected_fault_events\": {n},");
        }
        if !r.shard_rows.is_empty() {
            let counts: Vec<String> = r.shard_rows.iter().map(usize::to_string).collect();
            let _ = writeln!(out, "      \"shard_rows\": [{}],", counts.join(", "));
        }
        let _ = writeln!(out, "      \"metrics\": {}", r.snapshot.to_json(6));
        let comma = if i + 1 < runs.len() { "," } else { "" };
        let _ = writeln!(out, "    }}{comma}");
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

fn uint(obj: &Json, section: &str, key: &str, ctx: &str) -> Result<u64, String> {
    let v = obj
        .get(section)
        .and_then(|s| s.get(key))
        .ok_or_else(|| format!("{ctx}: missing metric '{section}.{key}'"))?
        .as_num()
        .ok_or_else(|| format!("{ctx}: metric '{section}.{key}' is not a number"))?;
    if !v.is_finite() || v < 0.0 || v.fract() != 0.0 {
        return Err(format!(
            "{ctx}: metric '{section}.{key}' is not a non-negative integer ({v})"
        ));
    }
    Ok(v as u64)
}

/// Validates a `metrics.json` document. On success, returns a one-line
/// summary; on failure, a message naming the first violation.
///
/// Beyond shape (schema tag, non-empty `runs`, every required section
/// present per run), this enforces the counter invariants the
/// instrumentation promises:
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
///   carries a `shard_rows` array with one entry per shard run whose sum
///   equals the run's `rows` (no shard plan may lose or duplicate rows),
///   and reports a `shards.balance_permille` gauge within `[0, 1000]`;
///   non-sharded runs must not carry `shard_rows`;
/// * `faults.injected_failures` equals `expected_fault_events` when the
///   run declares one, and zero otherwise;
/// * every run popped at least one partition;
/// * every `stream.*` counter is zero — these are batch discovery runs,
///   and streaming-maintainer activity belongs in `BENCH_stream.json`.
pub fn validate(text: &str) -> Result<String, String> {
    let doc = parse(text)?;
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("document: missing 'schema'")?;
    if schema != SCHEMA {
        return Err(format!("unexpected schema '{schema}' (want '{SCHEMA}')"));
    }
    let runs = doc
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or("document: 'runs' missing or not an array")?;
    if runs.is_empty() {
        return Err("'runs' is empty".to_string());
    }
    let mut fault_runs = 0usize;
    let mut sharded_runs = 0usize;
    for (i, r) in runs.iter().enumerate() {
        let ctx = format!("runs[{i}]");
        let engine = r
            .get("engine")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{ctx}: missing 'engine'"))?;
        if engine != "moments" && engine != "sharded" {
            return Err(format!("{ctx}: unknown engine '{engine}'"));
        }
        r.get("dataset")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{ctx}: missing 'dataset'"))?;
        let m = r
            .get("metrics")
            .ok_or_else(|| format!("{ctx}: missing 'metrics'"))?;
        for section in REQUIRED_SECTIONS {
            if m.get(section).is_none() {
                return Err(format!("{ctx}: metrics missing section '{section}'"));
            }
        }
        if uint(m, "queue", "pops", &ctx)? == 0 {
            return Err(format!("{ctx}: run popped no partitions"));
        }
        for key in STREAM_COUNTERS {
            let n = uint(m, "stream", key, &ctx)?;
            if n != 0 {
                return Err(format!(
                    "{ctx}: discovery run recorded {n} 'stream.{key}' event(s)"
                ));
            }
        }
        let probes = uint(m, "shards", "cross_pool_probes", &ctx)?;
        let hits = uint(m, "shards", "cross_pool_hits", &ctx)?;
        let misses = uint(m, "shards", "cross_pool_misses", &ctx)?;
        if hits + misses != probes {
            return Err(format!(
                "{ctx}: cross-shard pool accounting does not reconcile \
                 ({hits} hits + {misses} misses != {probes} probes)"
            ));
        }
        let splits = uint(m, "queue", "splits", &ctx)?;
        let cscans = uint(m, "kernels", "compiled_scans", &ctx)?;
        if cscans != 2 * splits {
            return Err(format!(
                "{ctx}: scan-kernel ledger does not balance \
                 ({cscans} compiled scans != 2 x {splits} splits)"
            ));
        }
        let rescans = uint(m, "fits", "rescans", &ctx)?;
        if rescans != 0 {
            return Err(format!(
                "{ctx}: {engine} run recorded {rescans} row rescans"
            ));
        }
        if engine == "sharded" {
            sharded_runs += 1;
            let run = uint(m, "shards", "run", &ctx)?;
            if run < 2 {
                return Err(format!("{ctx}: sharded run executed fewer than 2 shards"));
            }
            let rows = r
                .get("rows")
                .and_then(Json::as_num)
                .ok_or_else(|| format!("{ctx}: missing 'rows'"))?;
            let shard_rows = r
                .get("shard_rows")
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("{ctx}: sharded run missing 'shard_rows'"))?;
            if shard_rows.len() as u64 != run {
                return Err(format!(
                    "{ctx}: 'shard_rows' has {} entries but the run executed {run} shards",
                    shard_rows.len()
                ));
            }
            let mut sum = 0.0f64;
            for (j, v) in shard_rows.iter().enumerate() {
                let n = v
                    .as_num()
                    .ok_or_else(|| format!("{ctx}: shard_rows[{j}] is not a number"))?;
                if !n.is_finite() || n < 1.0 || n.fract() != 0.0 {
                    return Err(format!(
                        "{ctx}: shard_rows[{j}] is not a positive integer ({n})"
                    ));
                }
                sum += n;
            }
            if sum != rows {
                return Err(format!(
                    "{ctx}: shard rows do not sum to the table rows \
                     ({sum} != {rows}) — the plan lost or duplicated rows"
                ));
            }
            let balance = uint(m, "shards", "balance_permille", &ctx)?;
            if balance > 1000 {
                return Err(format!(
                    "{ctx}: shards.balance_permille gauge out of range ({balance})"
                ));
            }
        }
        if engine != "sharded" && r.get("shard_rows").is_some() {
            return Err(format!(
                "{ctx}: '{engine}' run carries 'shard_rows' (sharded runs only)"
            ));
        }
        let injected = uint(m, "faults", "injected_failures", &ctx)?;
        match r.get("expected_fault_events").and_then(Json::as_num) {
            Some(expected) => {
                fault_runs += 1;
                if injected != expected as u64 {
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
        runs.len()
    ))
}

/// Convenience for emitters: a snapshot rendered standalone must parse and
/// expose a counter; used by tests and the `--metrics-out` smoke assert.
pub fn snapshot_counter(snap: &MetricsSnapshot, section: &str, name: &str) -> u64 {
    match snap.get(section, name) {
        Some(MetricValue::Count(v) | MetricValue::Gauge(v)) => v,
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crr_obs::{Counter, MetricsSink};

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
            shard_rows: vec![2880, 2880, 2880, 2880],
            snapshot: sharded_sink().snapshot(),
        }
    }

    fn sample() -> Vec<MetricsRun> {
        vec![
            MetricsRun {
                dataset: "electricity".into(),
                rows: 2880,
                engine: "moments".into(),
                expected_fault_events: None,
                shard_rows: Vec::new(),
                snapshot: snap_with(0),
            },
            MetricsRun {
                dataset: "electricity".into(),
                rows: 2880,
                engine: "moments".into(),
                expected_fault_events: Some(1),
                shard_rows: Vec::new(),
                snapshot: snap_with(1),
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
        run.shard_rows = vec![2880, 2880, 2880, 2879];
        let err = validate(&render(&[run])).expect_err("must fail");
        assert!(err.contains("lost or duplicated"), "{err}");
    }

    #[test]
    fn shard_rows_must_cover_every_shard_run() {
        let mut run = sharded_run();
        run.shard_rows = vec![5760, 5760];
        let err = validate(&render(&[run])).expect_err("must fail");
        assert!(err.contains("2 entries"), "{err}");

        let mut run = sharded_run();
        run.shard_rows.clear(); // renders as absent
        let err = validate(&render(&[run])).expect_err("must fail");
        assert!(err.contains("shard_rows"), "{err}");
    }

    #[test]
    fn shard_rows_on_an_unsharded_run_are_rejected() {
        let mut runs = sample();
        runs[0].shard_rows = vec![2880];
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
        runs[0].snapshot = sink.snapshot();
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
        runs[0].snapshot = sink.snapshot();
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
        runs[0].snapshot = snap_with(2);
        let err = validate(&render(&runs)).expect_err("must fail");
        assert!(err.contains("clean run"), "{err}");
    }

    #[test]
    fn missing_section_is_rejected() {
        let mut runs = sample();
        runs[0].snapshot.sections.retain(|s| s.name != "budget");
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
        runs[0].snapshot = sink.snapshot();
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
        runs[0].snapshot = sink.snapshot();
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
}
