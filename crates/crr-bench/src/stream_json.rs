//! Tracked streaming-maintenance benchmark output: the `stream`
//! experiment discovers on a base slice, replays an appended tail through
//! a `crr_stream::StreamEngine` (batched appends + one partition-scoped
//! repair), measures the same end state reached by full rediscovery over
//! base+tail, and writes `BENCH_stream.json`; CI (`scripts/ci.sh`, via
//! `experiments --check`) re-parses and validates it so a regressed
//! emitter or a lost incremental advantage fails the build.
//!
//! Like the sibling emitters, rendering and parsing ride on the
//! hand-rolled JSON layer in [`crr_obs::json`] — no serde. The schema is
//! documented field by field in `EXPERIMENTS.md`, section "Benchmark
//! artifact schemas".

use crr_obs::json::{esc, num, parse, Json};
use std::fmt::Write as _;

/// Schema tag stamped into the file; bump when the layout changes.
pub const SCHEMA: &str = "crr-stream-v1";

/// Instance-size floor above which the speedup gate applies: the paper's
/// Electricity headline scale. Smoke-scale records document the loop but
/// are too small for the incremental advantage to be a stable promise.
pub const GATE_ROWS: usize = 11_520;

/// Minimum incremental-over-full speedup enforced at gate scale.
pub const MIN_SPEEDUP: f64 = 5.0;

/// One measured maintenance cell: a (dataset, base size) point whose
/// appended tail was maintained incrementally and, separately,
/// rediscovered from scratch.
#[derive(Debug, Clone)]
pub struct StreamRecord {
    /// Dataset label (`electricity`, `tax`).
    pub dataset: String,
    /// Rows discovered on before streaming began.
    pub base_rows: usize,
    /// Rows appended through the maintainer.
    pub appended_rows: usize,
    /// Append batches the tail was split into.
    pub batches: usize,
    /// `(row, rule)` coverage pairs the interval index routed.
    pub routed_pairs: u64,
    /// Appended rows no rule covered (repair obligations).
    pub uncovered_rows: u64,
    /// Write-time monitor hits across the tail.
    pub violations: u64,
    /// Rules flagged drifted before repair.
    pub drifted_rules: u64,
    /// Live rows the partition-scoped repair re-ran Algorithm 1 on.
    pub repair_affected_rows: usize,
    /// Rules before streaming (the base discovery).
    pub rules_before: usize,
    /// Rules after the incremental repair.
    pub rules_after: usize,
    /// Wall time of the incremental path: appends + drift refresh +
    /// repair + artifact export. Milliseconds.
    pub incremental_ms: f64,
    /// Wall time of full rediscovery (Algorithm 1 + Algorithm 2 + export)
    /// over base+tail. Milliseconds.
    pub full_ms: f64,
    /// `full_ms / incremental_ms`.
    pub speedup: f64,
    /// Whether the repaired artifact passed `crr_analyze::is_sound`.
    pub sound: bool,
    /// Whether a `crr-serve` rule store admitted the repaired artifact
    /// and served predictions byte-identical to offline evaluation.
    pub swap_served_identical: bool,
}

/// Renders the records as pretty-printed JSON with a stable key order.
pub fn render(records: &[StreamRecord]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": \"{SCHEMA}\",");
    let _ = writeln!(out, "  \"records\": [");
    for (i, r) in records.iter().enumerate() {
        let comma = if i + 1 < records.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"dataset\": \"{}\", \"base_rows\": {}, \"appended_rows\": {}, \
             \"batches\": {}, \"routed_pairs\": {}, \"uncovered_rows\": {}, \
             \"violations\": {}, \"drifted_rules\": {}, \"repair_affected_rows\": {}, \
             \"rules_before\": {}, \"rules_after\": {}, \"incremental_ms\": {}, \
             \"full_ms\": {}, \"speedup\": {}, \"sound\": {}, \
             \"swap_served_identical\": {}}}{comma}",
            esc(&r.dataset),
            r.base_rows,
            r.appended_rows,
            r.batches,
            r.routed_pairs,
            r.uncovered_rows,
            r.violations,
            r.drifted_rules,
            r.repair_affected_rows,
            r.rules_before,
            r.rules_after,
            num(r.incremental_ms),
            num(r.full_ms),
            num(r.speedup),
            r.sound,
            r.swap_served_identical,
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

fn finite_num(obj: &Json, key: &str, ctx: &str) -> Result<f64, String> {
    let v = obj
        .get(key)
        .ok_or_else(|| format!("{ctx}: missing key '{key}'"))?;
    let x = v
        .as_num()
        .ok_or_else(|| format!("{ctx}: key '{key}' is not a number (got {v:?})"))?;
    if !x.is_finite() {
        return Err(format!("{ctx}: key '{key}' is non-finite"));
    }
    Ok(x)
}

fn uint(obj: &Json, key: &str, ctx: &str) -> Result<u64, String> {
    let x = finite_num(obj, key, ctx)?;
    if x < 0.0 || x.fract() != 0.0 {
        return Err(format!(
            "{ctx}: key '{key}' is not a non-negative integer ({x})"
        ));
    }
    Ok(x as u64)
}

fn bool_key(obj: &Json, key: &str, ctx: &str) -> Result<bool, String> {
    obj.get(key)
        .and_then(Json::as_bool)
        .ok_or_else(|| format!("{ctx}: key '{key}' missing or not a boolean"))
}

/// Validates a `BENCH_stream.json` document. On success, returns a
/// one-line summary; on failure, a message naming the first violation.
///
/// Shape checks: the schema tag and a non-empty `records` array. Per
/// record: positive base and appended sizes, positive batch count, both
/// timings positive, `speedup` consistent with `full_ms /
/// incremental_ms` (1% tolerance), a non-empty repaired rule set,
/// appended-row accounting that reconciles (every appended row is routed
/// to at least one rule or counted uncovered is not required — a row can
/// be both covered and violating — but `uncovered_rows <=
/// appended_rows`), `sound` true and `swap_served_identical` true (the
/// repaired artifact must pass the verifier and serve pinned answers).
/// The incremental advantage is a tracked promise at scale: every
/// `electricity` record with `base_rows >= 11520` must show `speedup >=
/// 5`.
pub fn validate(text: &str) -> Result<String, String> {
    let doc = parse(text)?;
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("document: missing 'schema'")?;
    if schema != SCHEMA {
        return Err(format!("unexpected schema '{schema}' (want '{SCHEMA}')"));
    }
    let records = doc
        .get("records")
        .and_then(Json::as_arr)
        .ok_or("document: 'records' missing or not an array")?;
    if records.is_empty() {
        return Err("'records' is empty".to_string());
    }
    let mut gated = 0usize;
    let mut best = 0.0f64;
    for (i, r) in records.iter().enumerate() {
        let ctx = format!("records[{i}]");
        let dataset = r
            .get("dataset")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{ctx}: missing 'dataset'"))?;
        let base = uint(r, "base_rows", &ctx)?;
        let appended = uint(r, "appended_rows", &ctx)?;
        if base == 0 || appended == 0 {
            return Err(format!("{ctx}: empty base or tail"));
        }
        if uint(r, "batches", &ctx)? == 0 {
            return Err(format!("{ctx}: tail streamed in zero batches"));
        }
        if uint(r, "uncovered_rows", &ctx)? > appended {
            return Err(format!("{ctx}: more uncovered rows than appended rows"));
        }
        uint(r, "routed_pairs", &ctx)?;
        uint(r, "violations", &ctx)?;
        uint(r, "drifted_rules", &ctx)?;
        uint(r, "repair_affected_rows", &ctx)?;
        uint(r, "rules_before", &ctx)?;
        if uint(r, "rules_after", &ctx)? == 0 {
            return Err(format!("{ctx}: repaired rule set is empty"));
        }
        let inc = finite_num(r, "incremental_ms", &ctx)?;
        let full = finite_num(r, "full_ms", &ctx)?;
        if inc <= 0.0 || full <= 0.0 {
            return Err(format!(
                "{ctx}: non-positive timing (incremental={inc}, full={full})"
            ));
        }
        let speedup = finite_num(r, "speedup", &ctx)?;
        let derived = full / inc;
        if (speedup - derived).abs() > 0.01 * derived.max(1.0) {
            return Err(format!(
                "{ctx}: speedup {speedup} inconsistent with {full} / {inc} = {derived}"
            ));
        }
        if !bool_key(r, "sound", &ctx)? {
            return Err(format!("{ctx}: repaired artifact failed the verifier"));
        }
        if !bool_key(r, "swap_served_identical", &ctx)? {
            return Err(format!(
                "{ctx}: served answers diverged from offline evaluation after the swap"
            ));
        }
        if dataset == "electricity" && base as usize >= GATE_ROWS {
            gated += 1;
            if speedup < MIN_SPEEDUP {
                return Err(format!(
                    "{ctx}: incremental maintenance only {speedup:.2}x faster than \
                     rediscovery at gate scale (floor {MIN_SPEEDUP}x)"
                ));
            }
        }
        best = best.max(speedup);
    }
    Ok(format!(
        "ok: {} record(s), {gated} at gate scale, best speedup {best:.1}x",
        records.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(base: usize) -> StreamRecord {
        StreamRecord {
            dataset: "electricity".into(),
            base_rows: base,
            appended_rows: base / 10,
            batches: 8,
            routed_pairs: 1_000,
            uncovered_rows: 40,
            violations: 3,
            drifted_rules: 2,
            repair_affected_rows: 180,
            rules_before: 24,
            rules_after: 26,
            incremental_ms: 12.0,
            full_ms: 120.0,
            speedup: 10.0,
            sound: true,
            swap_served_identical: true,
        }
    }

    #[test]
    fn render_round_trips_through_validate() {
        let summary = validate(&render(&[record(11_520)])).expect("valid");
        assert!(summary.contains("1 record(s)"), "{summary}");
        assert!(summary.contains("1 at gate scale"), "{summary}");
    }

    #[test]
    fn slow_incremental_path_is_rejected_at_gate_scale_only() {
        let mut r = record(11_520);
        r.incremental_ms = 60.0;
        r.speedup = 2.0;
        let err = validate(&render(&[r.clone()])).expect_err("must fail");
        assert!(err.contains("gate scale"), "{err}");
        // The same ratio below gate scale is documented, not gated.
        r.base_rows = 2_880;
        r.appended_rows = 288;
        validate(&render(&[r])).expect("smoke scale passes");
    }

    #[test]
    fn inconsistent_speedup_is_rejected() {
        let mut r = record(11_520);
        r.speedup = 99.0;
        let err = validate(&render(&[r])).expect_err("must fail");
        assert!(err.contains("inconsistent"), "{err}");
    }

    #[test]
    fn unsound_or_diverged_records_are_rejected() {
        let mut r = record(11_520);
        r.sound = false;
        let err = validate(&render(&[r])).expect_err("must fail");
        assert!(err.contains("verifier"), "{err}");
        let mut r = record(11_520);
        r.swap_served_identical = false;
        let err = validate(&render(&[r])).expect_err("must fail");
        assert!(err.contains("diverged"), "{err}");
    }

    #[test]
    fn implausible_accounting_is_rejected() {
        let mut r = record(11_520);
        r.uncovered_rows = r.appended_rows as u64 + 1;
        assert!(validate(&render(&[r])).is_err());
        let mut r = record(11_520);
        r.rules_after = 0;
        assert!(validate(&render(&[r])).is_err());
        let mut r = record(11_520);
        r.full_ms = 0.0;
        assert!(validate(&render(&[r])).is_err());
    }

    #[test]
    fn empty_or_mislabeled_documents_are_rejected() {
        assert!(validate("{}").is_err());
        assert!(validate("{\"schema\": \"crr-stream-v1\", \"records\": []}").is_err());
        assert!(validate("{\"schema\": \"other\", \"records\": [1]}").is_err());
    }
}
