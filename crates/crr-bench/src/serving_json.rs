//! Tracked serving benchmark output: the `serving` experiment stands up a
//! live `crr-serve` server, drives it with the closed-loop load generator
//! in `crr_serve::client`, and writes `BENCH_serving.json`; CI
//! (`scripts/ci.sh`, via `experiments --check`) re-parses and validates it
//! so a regressed emitter or a degraded serving run fails the build.
//!
//! The records render and parse through [`crate::artifact`]. The schema is
//! documented field by field in `EXPERIMENTS.md`, section "Benchmark
//! artifact schemas".

use crate::artifact::{labels, parse, record};

/// Schema tag stamped into the file; bump when the layout changes.
pub const SCHEMA: &str = "crr-serving-v1";

/// How a load cell was driven, which decides what the validator enforces.
///
/// * `smoke` — a closed loop sized inside the server's capacity: the
///   validator requires **zero** sheds, **zero** timeouts, zero transport
///   errors, and every request answered `200`. This is the CI gate: the
///   serving runtime must answer clean traffic cleanly.
/// * `overload` — deliberately more clients than `max_in_flight`: the
///   validator requires at least one shed (the backpressure path is
///   demonstrably exercised) and zero transport errors (sheds are
///   well-formed `503`s, never resets).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServingMode {
    /// Within capacity; must be loss-free.
    Smoke,
    /// Beyond capacity; must shed, never error.
    Overload,
}

impl ServingMode {
    /// Both modes, in the order the benchmark runs them.
    pub const ALL: [ServingMode; 2] = [ServingMode::Smoke, ServingMode::Overload];

    /// The label written into the artifact.
    pub fn label(self) -> &'static str {
        match self {
            ServingMode::Smoke => "smoke",
            ServingMode::Overload => "overload",
        }
    }
}

labels!(ServingMode: "mode");

record! {
    /// One measured load cell: a (dataset, endpoint, mode) point.
    #[derive(Debug, Clone)]
    pub struct ServingRecord(INLINE) {
        /// Dataset the served rule set was discovered on (`electricity`).
        pub dataset: String,
        /// Discovery instance size |I|.
        pub rows: usize,
        /// Endpoint driven (`/v1/predict`, `/v1/check`).
        pub endpoint: String,
        /// Load mode (see [`ServingMode`]).
        pub mode: ServingMode,
        /// Concurrent closed-loop clients.
        pub clients: usize,
        /// Total requests issued across all clients.
        pub requests: usize,
        /// Requests answered `200`.
        pub completed: usize,
        /// Batch rows per request.
        pub batch_rows: usize,
        /// Requests shed with `503` (`serve.shed` delta over the cell).
        pub shed: u64,
        /// Requests that tripped their deadline (`serve.timeouts` delta).
        pub timeouts: u64,
        /// Transport errors seen by the load generator (resets, hangs).
        pub errors: usize,
        /// Median request latency, milliseconds.
        pub p50_ms: f64,
        /// 90th-percentile latency, milliseconds.
        pub p90_ms: f64,
        /// 99th-percentile latency, milliseconds.
        pub p99_ms: f64,
        /// Worst observed latency, milliseconds.
        pub max_ms: f64,
        /// Completed requests per second over the cell's wall time.
        pub throughput_rps: f64,
    }
}

record! {
    /// The hot-swap churn cell: swaps driven against the live server while
    /// load ran, and whether answers stayed pinned to offline evaluation.
    #[derive(Debug, Clone)]
    pub struct SwapCell(INLINE) {
        /// Sound candidates admitted (`serve.swap_accepted`).
        pub accepted: u64,
        /// Candidates refused by the admission gate (`serve.swap_rejected`).
        pub rejected: u64,
        /// Final serving generation (must equal `accepted`).
        pub generation: u64,
        /// Whether every sampled in-flight answer was byte-identical to the
        /// offline evaluation of the same rule set.
        pub predictions_pinned: bool,
    }
}

record! {
    /// The full report the `serving` experiment emits.
    #[derive(Debug, Clone)]
    pub struct ServingReport(BLOCK, schema = SCHEMA) {
        /// Every measured load cell.
        pub records: Vec<ServingRecord>,
        /// The swap-churn cell.
        pub swaps: SwapCell,
    }
}

/// Validates a `BENCH_serving.json` document. On success, returns a
/// one-line summary; on failure, a message naming the first violation.
///
/// Shape checks: the schema tag and every field's type, a non-empty
/// `records` array, and the `swaps` cell. Per record: a `/v1/` endpoint,
/// `completed <= requests`, latency quantiles ordered `0 <= p50 <= p90 <=
/// p99 <= max`, and positive throughput whenever anything completed. Mode
/// semantics:
///
/// * `smoke` cells are loss-free: zero sheds, zero timeouts, zero
///   transport errors, `completed == requests`;
/// * `overload` cells shed at least once and never see transport errors
///   (backpressure answers `503`, it does not reset connections);
/// * at least one record of each mode is present.
///
/// Swap semantics: at least one accepted and one rejected swap (both sides
/// of the admission gate exercised), `generation == accepted`, and
/// `predictions_pinned` true.
pub fn validate(text: &str) -> Result<String, String> {
    let report: ServingReport = parse(text)?;
    if report.records.is_empty() {
        return Err("'records' is empty".to_string());
    }
    let (mut smoke, mut overload) = (0usize, 0usize);
    for (i, r) in report.records.iter().enumerate() {
        let ctx = format!("records[{i}]");
        if !r.endpoint.starts_with("/v1/") {
            return Err(format!("{ctx}: unknown endpoint '{}'", r.endpoint));
        }
        if r.rows == 0 || r.batch_rows == 0 {
            return Err(format!("{ctx}: empty instance or batch"));
        }
        if r.clients == 0 {
            return Err(format!("{ctx}: no clients"));
        }
        let (requests, completed) = (r.requests, r.completed);
        if requests == 0 || completed > requests {
            return Err(format!(
                "{ctx}: implausible request accounting ({completed}/{requests})"
            ));
        }
        let (p50, p90, p99, max) = (r.p50_ms, r.p90_ms, r.p99_ms, r.max_ms);
        if !(0.0 <= p50 && p50 <= p90 && p90 <= p99 && p99 <= max) {
            return Err(format!(
                "{ctx}: latency quantiles out of order (p50={p50}, p90={p90}, p99={p99}, max={max})"
            ));
        }
        if completed > 0 && r.throughput_rps <= 0.0 {
            return Err(format!(
                "{ctx}: completed {completed} but throughput {}",
                r.throughput_rps
            ));
        }
        let (shed, timeouts, errors) = (r.shed, r.timeouts, r.errors);
        match r.mode {
            ServingMode::Smoke => {
                smoke += 1;
                if shed != 0 || timeouts != 0 || errors != 0 || completed != requests {
                    return Err(format!(
                        "{ctx}: smoke cell is not loss-free \
                         (shed={shed}, timeouts={timeouts}, errors={errors}, {completed}/{requests})"
                    ));
                }
            }
            ServingMode::Overload => {
                overload += 1;
                if shed == 0 {
                    return Err(format!("{ctx}: overload cell never shed"));
                }
                if errors != 0 {
                    return Err(format!(
                        "{ctx}: overload cell saw {errors} transport error(s); sheds must be 503s"
                    ));
                }
            }
        }
    }
    if smoke == 0 || overload == 0 {
        return Err(format!(
            "need both modes measured (smoke={smoke}, overload={overload})"
        ));
    }
    let SwapCell {
        accepted,
        rejected,
        generation,
        predictions_pinned,
    } = report.swaps;
    if accepted == 0 || rejected == 0 {
        return Err(format!(
            "swaps: both gate outcomes must be exercised (accepted={accepted}, rejected={rejected})"
        ));
    }
    if generation != accepted {
        return Err(format!(
            "swaps: generation {generation} != accepted {accepted}"
        ));
    }
    if !predictions_pinned {
        return Err("swaps: predictions diverged from offline evaluation".into());
    }
    Ok(format!(
        "ok: {} cell(s) ({smoke} smoke, {overload} overload), \
         {accepted} swap(s) accepted / {rejected} rejected",
        report.records.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::render;

    fn record(mode: ServingMode) -> ServingRecord {
        let overload = mode == ServingMode::Overload;
        ServingRecord {
            dataset: "electricity".into(),
            rows: 11_520,
            endpoint: "/v1/predict".into(),
            mode,
            clients: if overload { 8 } else { 2 },
            requests: 80,
            completed: if overload { 61 } else { 80 },
            batch_rows: 240,
            shed: if overload { 19 } else { 0 },
            timeouts: 0,
            errors: 0,
            p50_ms: 1.2,
            p90_ms: 2.5,
            p99_ms: 4.0,
            max_ms: 9.5,
            throughput_rps: 800.0,
        }
    }

    fn report() -> ServingReport {
        ServingReport {
            records: vec![record(ServingMode::Smoke), record(ServingMode::Overload)],
            swaps: SwapCell {
                accepted: 5,
                rejected: 5,
                generation: 5,
                predictions_pinned: true,
            },
        }
    }

    #[test]
    fn render_round_trips_through_validate() {
        let summary = validate(&render(&report())).expect("valid");
        assert!(summary.contains("2 cell(s)"), "{summary}");
        assert!(summary.contains("5 swap(s) accepted"), "{summary}");
    }

    #[test]
    fn smoke_cell_with_sheds_is_rejected() {
        let mut rep = report();
        rep.records[0].shed = 1;
        let err = validate(&render(&rep)).expect_err("must fail");
        assert!(err.contains("loss-free"), "{err}");
    }

    #[test]
    fn smoke_cell_with_timeouts_is_rejected() {
        let mut rep = report();
        rep.records[0].timeouts = 2;
        assert!(validate(&render(&rep)).is_err());
    }

    #[test]
    fn overload_cell_without_sheds_is_rejected() {
        let mut rep = report();
        rep.records[1].shed = 0;
        let err = validate(&render(&rep)).expect_err("must fail");
        assert!(err.contains("never shed"), "{err}");
    }

    #[test]
    fn transport_errors_are_rejected_in_both_modes() {
        for i in 0..2 {
            let mut rep = report();
            rep.records[i].errors = 1;
            assert!(validate(&render(&rep)).is_err(), "record {i}");
        }
    }

    #[test]
    fn disordered_quantiles_are_rejected() {
        let mut rep = report();
        rep.records[0].p99_ms = 0.5; // below p90
        let err = validate(&render(&rep)).expect_err("must fail");
        assert!(err.contains("out of order"), "{err}");
    }

    #[test]
    fn missing_modes_are_rejected() {
        let mut rep = report();
        rep.records.remove(1);
        let err = validate(&render(&rep)).expect_err("must fail");
        assert!(err.contains("both modes"), "{err}");
    }

    #[test]
    fn unexercised_or_diverged_swap_gate_is_rejected() {
        let mut rep = report();
        rep.swaps.rejected = 0;
        assert!(validate(&render(&rep)).is_err());
        let mut rep = report();
        rep.swaps.generation = 4;
        assert!(validate(&render(&rep)).is_err());
        let mut rep = report();
        rep.swaps.predictions_pinned = false;
        let err = validate(&render(&rep)).expect_err("must fail");
        assert!(err.contains("diverged"), "{err}");
    }

    #[test]
    fn empty_or_mislabeled_documents_are_rejected() {
        assert!(validate("{}").is_err());
        assert!(validate("{\"schema\": \"crr-serving-v1\", \"records\": []}").is_err());
        assert!(validate("{\"schema\": \"other\", \"records\": [1]}").is_err());
        let text = render(&report()).replacen("\"smoke\"", "\"soak\"", 1);
        let err = validate(&text).expect_err("unknown mode must fail");
        assert!(
            err.contains("records[0].mode: unknown mode 'soak'"),
            "{err}"
        );
    }

    #[test]
    fn committed_artifact_round_trips_byte_for_byte() {
        let text = include_str!("../../../BENCH_serving.json");
        let report: ServingReport = parse(text).expect("the committed file parses");
        assert_eq!(render(&report), text);
    }
}
