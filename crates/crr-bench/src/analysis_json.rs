//! The `analysis.json` artifact: static verification reports from
//! `crr-analyze`, written by `experiments -- analyze` and re-validated by
//! `--check` so a drifted emitter — or an artifact with an `unsound`
//! finding — fails CI, not a reader.
//!
//! Like [`crate::metrics_json`], rendering and parsing ride on the
//! hand-rolled JSON layer in [`crr_obs::json`] — no serde. The layout is
//! documented in `EXPERIMENTS.md`, section "Benchmark artifact schemas".

use crr_analyze::AnalysisReport;
use crr_obs::json::{esc, parse, Json};
use std::fmt::Write as _;

/// Schema tag stamped into the file; bump when the layout changes.
/// `v2` added the A6/A7 check labels and the `absdom_transfers` /
/// `compile_equiv_checks` / `repair_regions` counters, plus the `repair`
/// source for artifacts coming out of a stream repair.
pub const SCHEMA: &str = "crr-analysis-v2";

/// Severity labels the validator accepts, worst first.
pub const SEVERITIES: [&str; 3] = ["unsound", "redundant", "hygiene"];

/// Check labels the validator accepts.
pub const CHECKS: [&str; 7] = [
    "satisfiability",
    "subsumption",
    "guard-soundness",
    "inference-audit",
    "rho-monotonicity",
    "compile-equivalence",
    "repair-obligations",
];

/// One analyzed artifact and its verification report.
#[derive(Debug, Clone)]
pub struct AnalysisRun {
    /// Dataset label (`electricity`, `tax`).
    pub dataset: String,
    /// Instance size |I| the rules were discovered on.
    pub rows: usize,
    /// `single` for an unsharded run (no guard obligations), `sharded`
    /// for a multi-shard run verified against its
    /// [`crr_discovery::ProofObligations`], `repair` for a stream-repaired
    /// artifact audited against its [`crr_discovery::RepairObligations`].
    pub source: String,
    /// The analyzer's report.
    pub report: AnalysisReport,
}

/// Renders the runs as pretty-printed JSON with a stable key order.
pub fn render(runs: &[AnalysisRun]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": \"{SCHEMA}\",");
    let _ = writeln!(out, "  \"runs\": [");
    for (i, r) in runs.iter().enumerate() {
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"dataset\": \"{}\",", esc(&r.dataset));
        let _ = writeln!(out, "      \"rows\": {},", r.rows);
        let _ = writeln!(out, "      \"source\": \"{}\",", esc(&r.source));
        let _ = writeln!(out, "      \"rules\": {},", r.report.rules);
        let _ = writeln!(out, "      \"conjuncts\": {},", r.report.conjuncts);
        let _ = writeln!(out, "      \"shards\": {},", r.report.shards);
        let _ = writeln!(out, "      \"counters\": {},", r.report.counters.to_json(6));
        let _ = writeln!(out, "      \"findings\": [");
        for (k, f) in r.report.findings.iter().enumerate() {
            let _ = write!(
                out,
                "        {{\"check\": \"{}\", \"severity\": \"{}\"",
                f.check.label(),
                f.severity.label()
            );
            if let Some(rule) = f.rule {
                let _ = write!(out, ", \"rule\": {rule}");
            }
            if let Some(shard) = f.shard {
                let _ = write!(out, ", \"shard\": {shard}");
            }
            let comma = if k + 1 < r.report.findings.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(out, ", \"message\": \"{}\"}}{comma}", esc(&f.message));
        }
        let _ = writeln!(out, "      ],");
        let s = r.report.summary();
        let _ = writeln!(
            out,
            "      \"summary\": {{\"unsound\": {}, \"redundant\": {}, \"hygiene\": {}}}",
            s.unsound, s.redundant, s.hygiene
        );
        let comma = if i + 1 < runs.len() { "," } else { "" };
        let _ = writeln!(out, "    }}{comma}");
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

fn uint(obj: &Json, key: &str, ctx: &str) -> Result<u64, String> {
    let v = obj
        .get(key)
        .ok_or_else(|| format!("{ctx}: missing '{key}'"))?
        .as_num()
        .ok_or_else(|| format!("{ctx}: '{key}' is not a number"))?;
    if !v.is_finite() || v < 0.0 || v.fract() != 0.0 {
        return Err(format!(
            "{ctx}: '{key}' is not a non-negative integer ({v})"
        ));
    }
    Ok(v as u64)
}

/// Validates an `analysis.json` document. On success, returns a one-line
/// summary; on failure, a message naming the first violation.
///
/// Beyond shape (schema tag, non-empty `runs`, known `source` / check /
/// severity labels), this enforces:
///
/// * **the soundness gate** — no finding anywhere carries severity
///   `unsound`; an artifact that fails its own static verification never
///   passes CI;
/// * the per-severity `summary` tallies equal the findings actually
///   listed, and the analyzer's `counters.findings_*` agree with both;
/// * `counters.rules` / `counters.conjuncts` equal the run's `rules` /
///   `conjuncts`, every rule's conjuncts were satisfiability-checked
///   (`counters.unsat_checks ≥ conjuncts`), and every conjunct went
///   through the A6 compile-equivalence comparison
///   (`counters.compile_equiv_checks == conjuncts`);
/// * a `sharded` run verified at least two shard guards, a `single` run
///   none; a `repair` run audited at least one repair region
///   (`counters.repair_regions ≥ 1`) while `single` / `sharded` runs
///   audited none.
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
    let mut total_findings = 0u64;
    for (i, r) in runs.iter().enumerate() {
        let ctx = format!("runs[{i}]");
        r.get("dataset")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{ctx}: missing 'dataset'"))?;
        let source = r
            .get("source")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{ctx}: missing 'source'"))?;
        if source != "single" && source != "sharded" && source != "repair" {
            return Err(format!("{ctx}: unknown source '{source}'"));
        }
        let rules = uint(r, "rules", &ctx)?;
        let conjuncts = uint(r, "conjuncts", &ctx)?;
        let shards = uint(r, "shards", &ctx)?;
        if rules == 0 {
            return Err(format!("{ctx}: analyzed an empty rule set"));
        }
        match source {
            "sharded" if shards < 2 => {
                return Err(format!(
                    "{ctx}: sharded run verified only {shards} shard guard(s)"
                ));
            }
            "single" | "repair" if shards != 0 => {
                return Err(format!(
                    "{ctx}: {source} run claims {shards} shard guard(s)"
                ));
            }
            _ => {}
        }
        let counters = r
            .get("counters")
            .ok_or_else(|| format!("{ctx}: missing 'counters'"))?;
        if uint(counters, "rules", &ctx)? != rules {
            return Err(format!("{ctx}: counters.rules disagrees with rules"));
        }
        if uint(counters, "conjuncts", &ctx)? != conjuncts {
            return Err(format!(
                "{ctx}: counters.conjuncts disagrees with conjuncts"
            ));
        }
        if uint(counters, "unsat_checks", &ctx)? < conjuncts {
            return Err(format!(
                "{ctx}: not every conjunct was satisfiability-checked"
            ));
        }
        if uint(counters, "compile_equiv_checks", &ctx)? != conjuncts {
            return Err(format!(
                "{ctx}: not every conjunct went through the compile-equivalence check"
            ));
        }
        let repair_regions = uint(counters, "repair_regions", &ctx)?;
        match source {
            "repair" if repair_regions == 0 => {
                return Err(format!("{ctx}: repair run audited no repair regions"));
            }
            "single" | "sharded" if repair_regions != 0 => {
                return Err(format!(
                    "{ctx}: {source} run claims {repair_regions} repair region(s)"
                ));
            }
            _ => {}
        }
        let findings = r
            .get("findings")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{ctx}: 'findings' missing or not an array"))?;
        let mut tally = [0u64; 3]; // unsound, redundant, hygiene
        for (k, f) in findings.iter().enumerate() {
            let fctx = format!("{ctx}.findings[{k}]");
            let check = f
                .get("check")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{fctx}: missing 'check'"))?;
            if !CHECKS.contains(&check) {
                return Err(format!("{fctx}: unknown check '{check}'"));
            }
            let severity = f
                .get("severity")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{fctx}: missing 'severity'"))?;
            let Some(si) = SEVERITIES.iter().position(|&s| s == severity) else {
                return Err(format!("{fctx}: unknown severity '{severity}'"));
            };
            tally[si] += 1;
            let msg = f
                .get("message")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{fctx}: missing 'message'"))?;
            if severity == "unsound" {
                return Err(format!(
                    "{fctx}: UNSOUND ({check}): {msg} — the artifact fails its own \
                     static verification"
                ));
            }
        }
        let summary = r
            .get("summary")
            .ok_or_else(|| format!("{ctx}: missing 'summary'"))?;
        for (si, name) in SEVERITIES.iter().enumerate() {
            if uint(summary, name, &ctx)? != tally[si] {
                return Err(format!(
                    "{ctx}: summary.{name} disagrees with the findings listed"
                ));
            }
            let counter_key = format!("findings_{name}");
            if uint(counters, &counter_key, &ctx)? != tally[si] {
                return Err(format!(
                    "{ctx}: counters.{counter_key} disagrees with the findings listed"
                ));
            }
        }
        total_findings += tally.iter().sum::<u64>();
    }
    Ok(format!(
        "ok: {} run(s), 0 unsound, {total_findings} non-blocking finding(s)",
        runs.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crr_analyze::analyze_artifact;
    use crr_core::{Conjunction, Crr, Dnf, Predicate, RuleSet};
    use crr_data::{AttrId, AttrType, Schema, Value};
    use crr_discovery::{RegionOrigin, RepairObligations, RepairRegion, RuleSetArtifact};
    use crr_models::{ConstantModel, Model};
    use std::sync::Arc;

    fn interval_rule(lo: f64, hi: f64, rho: f64) -> Crr {
        let x = AttrId(0);
        let c = Conjunction::of(vec![
            Predicate::ge(x, Value::Float(lo)),
            Predicate::lt(x, Value::Float(hi)),
        ]);
        Crr::new(
            vec![x],
            AttrId(1),
            Arc::new(Model::Constant(ConstantModel::new(1.0, 1))),
            rho,
            Dnf::single(c),
        )
        .expect("rule")
    }

    fn artifact_of(rules: RuleSet) -> RuleSetArtifact {
        let schema = Schema::new(vec![("x", AttrType::Float), ("y", AttrType::Float)]);
        RuleSetArtifact::new(schema, rules, None).expect("artifact")
    }

    fn sample() -> Vec<AnalysisRun> {
        let mut clean = RuleSet::new();
        clean.push(interval_rule(0.0, 10.0, 0.5));
        clean.push(interval_rule(10.0, 20.0, 0.5));
        let mut redundant = RuleSet::new();
        redundant.push(interval_rule(2.0, 4.0, 0.5));
        redundant.push(interval_rule(0.0, 10.0, 0.5));
        // A confined repair: one kept rule, one repaired rule whose
        // conjunct matches the claimed region's guard.
        let mut repaired = RuleSet::new();
        repaired.push(interval_rule(0.0, 10.0, 0.5));
        repaired.push(interval_rule(10.0, 20.0, 0.4));
        let x = AttrId(0);
        let repaired_artifact = artifact_of(repaired)
            .with_repair(RepairObligations {
                kept: 1,
                regions: vec![RepairRegion {
                    region_id: 0,
                    origin: RegionOrigin::Drifted {
                        rule: 1,
                        conjunct: 0,
                    },
                    guards: vec![
                        Predicate::ge(x, Value::Float(10.0)),
                        Predicate::lt(x, Value::Float(20.0)),
                    ],
                }],
            })
            .expect("repair obligations");
        vec![
            AnalysisRun {
                dataset: "electricity".into(),
                rows: 2880,
                source: "single".into(),
                report: analyze_artifact(&artifact_of(clean)),
            },
            AnalysisRun {
                dataset: "tax".into(),
                rows: 2500,
                source: "single".into(),
                report: analyze_artifact(&artifact_of(redundant)),
            },
            AnalysisRun {
                dataset: "electricity".into(),
                rows: 3168,
                source: "repair".into(),
                report: analyze_artifact(&repaired_artifact),
            },
        ]
    }

    #[test]
    fn render_round_trips_through_validate() {
        let summary = validate(&render(&sample())).expect("valid");
        assert!(summary.contains("3 run(s)"), "{summary}");
        assert!(summary.contains("0 unsound"), "{summary}");
        assert!(summary.contains("1 non-blocking"), "{summary}");
    }

    #[test]
    fn repair_runs_must_audit_regions() {
        let mut runs = sample();
        runs[0].source = "repair".into(); // but counters.repair_regions == 0
        let err = validate(&render(&runs)).expect_err("must fail");
        assert!(err.contains("repair region"), "{err}");
        // And the converse: a repair report mislabeled as single.
        let mut runs = sample();
        runs[2].source = "single".into();
        let err = validate(&render(&runs)).expect_err("must fail");
        assert!(err.contains("repair region"), "{err}");
    }

    #[test]
    fn unsound_findings_fail_the_gate() {
        let mut runs = sample();
        // Tamper a rule into a non-finite ρ after construction, the way a
        // drifted serializer would.
        let mut bad = RuleSet::new();
        bad.push(interval_rule(0.0, 10.0, 0.5));
        let report = {
            let mut tampered = bad.clone();
            tampered.rules_mut()[0] = tampered.rules_mut()[0].with_model(
                Arc::new(Model::Constant(ConstantModel::new(1.0, 1))),
                f64::NAN,
            );
            analyze_artifact(&artifact_of(tampered))
        };
        assert!(!report.is_sound());
        runs[0].report = report;
        let err = validate(&render(&runs)).expect_err("must fail");
        assert!(err.contains("UNSOUND"), "{err}");
    }

    #[test]
    fn tally_drift_is_rejected() {
        let mut runs = sample();
        // Drop a finding but keep the counters: summary and counters now
        // both disagree with the list.
        runs[1].report.findings.clear();
        let err = validate(&render(&runs)).expect_err("must fail");
        assert!(err.contains("disagrees"), "{err}");
    }

    #[test]
    fn sharded_runs_must_carry_shard_guards() {
        let mut runs = sample();
        runs[0].source = "sharded".into(); // but report.shards == 0
        let err = validate(&render(&runs)).expect_err("must fail");
        assert!(err.contains("shard guard"), "{err}");
    }

    #[test]
    fn empty_or_mislabeled_documents_are_rejected() {
        assert!(validate("{}").is_err());
        assert!(validate("{\"schema\": \"crr-analysis-v2\", \"runs\": []}").is_err());
        // The previous schema generation is refused, not silently accepted.
        assert!(validate("{\"schema\": \"crr-analysis-v1\", \"runs\": [1]}").is_err());
        assert!(validate("{\"schema\": \"other\", \"runs\": [1]}").is_err());
    }
}
