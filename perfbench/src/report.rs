//! Run results: named metrics with units and sample counts, the
//! attempted/failed ledger every check feeds, and the two renderings —
//! a human table and the one-line JSON result the benchmark ends with.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `v` ascending and returns it, for the quantile helpers.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an unsorted sample.
pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 0.5)
}

/// One reported value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Observations behind the value (1 for a single reading).
    pub samples: usize,
}

/// Per-op samples of per-layer values, reduced to medians at the end.
#[derive(Debug, Default)]
pub struct Samples {
    values: BTreeMap<String, (&'static str, Vec<f64>)>,
}

impl Samples {
    pub fn push(&mut self, name: &str, unit: &'static str, value: f64) {
        self.values
            .entry(name.to_string())
            .or_insert_with(|| (unit, Vec::new()))
            .1
            .push(value);
    }

    /// Every series as its median, in name order.
    pub fn medians(&self) -> Vec<Metric> {
        self.values
            .iter()
            .map(|(name, (unit, v))| Metric {
                name: name.clone(),
                unit,
                value: median(v),
                samples: v.len(),
            })
            .collect()
    }
}

/// Everything one run prints.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Operations attempted: timed ops, swaps, repairs and checks.
    pub attempted: u64,
    /// Operations that failed or whose output check failed.
    pub failed: u64,
    /// One line per failure, printed before the result.
    pub failures: Vec<String>,
    /// Host context and notes, printed beside the metrics, never gated.
    pub context: Vec<(String, String)>,
}

impl Report {
    pub fn put(&mut self, name: &str, unit: &'static str, value: f64, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
        });
    }

    /// Records one attempted operation; `Err` counts it failed.
    pub fn op<T>(&mut self, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match outcome {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(e);
                None
            }
        }
    }

    /// Records an output check; a false `ok` fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(why);
        }
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.context.push((key.to_string(), value.to_string()));
    }

    /// The run is correct when nothing failed and every value is finite.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// Human-readable table: context, failures, then every metric with
    /// its unit and sample count.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.context {
            let _ = writeln!(out, "# {k}: {v}");
        }
        for f in &self.failures {
            let _ = writeln!(out, "# FAILED: {f}");
        }
        let _ = writeln!(
            out,
            "{:<40} {:>16} {:<12} {:>8}",
            "metric", "value", "unit", "samples"
        );
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "{:<40} {:>16.6} {:<12} {:>8}",
                m.name, m.value, m.unit, m.samples
            );
        }
        out
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, each metric as `{"value", "unit"}` with every digit.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                crr_obs::json::num(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v = sorted((1..=100).map(f64::from).collect());
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn json_line_has_exactly_the_four_keys() {
        let mut r = Report::default();
        r.put("op_p50_ms", "ms", 1.25, 10);
        r.op::<()>(Ok(()));
        let line = r.json();
        let doc = crr_obs::json::parse(&line).unwrap();
        assert_eq!(doc.get("correct").and_then(|v| v.as_bool()), Some(true));
        assert_eq!(doc.get("attempted").and_then(|v| v.as_num()), Some(1.0));
        let m = doc.get("metrics").and_then(|m| m.get("op_p50_ms")).unwrap();
        assert_eq!(m.get("value").and_then(|v| v.as_num()), Some(1.25));
        assert_eq!(m.get("unit").and_then(|v| v.as_str()), Some("ms"));
    }
}
