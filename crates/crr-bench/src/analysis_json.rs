//! The `analysis.json` artifact: static verification reports from
//! `crr-analyze`, written by `experiments -- analyze` and re-validated by
//! `--check` so a drifted emitter — or an artifact with an `unsound`
//! finding — fails CI, not a reader.
//!
//! The runs render and parse through [`crate::artifact`]; check and
//! severity labels are `crr-analyze`'s own. The layout is documented in
//! `EXPERIMENTS.md`, section "Benchmark artifact schemas".

use crate::artifact::{codec, parse, record};
use crr_analyze::{AnalysisReport, Finding, Severity, Summary};
use crr_obs::AnalysisCounters;

/// Schema tag stamped into the file; bump when the layout changes.
/// `v2` added the A6/A7 check labels and the `absdom_transfers` /
/// `compile_equiv_checks` / `repair_regions` counters, plus the `repair`
/// source for artifacts coming out of a stream repair.
pub const SCHEMA: &str = "crr-analysis-v2";

record! {
    /// One analyzed artifact and its verification report.
    #[derive(Debug, Clone)]
    pub struct AnalysisRun(BLOCK) {
        /// Dataset label (`electricity`, `tax`).
        pub dataset: String,
        /// Instance size |I| the rules were discovered on.
        pub rows: usize,
        /// `single` for an unsharded run (no guard obligations), `sharded`
        /// for a multi-shard run verified against its
        /// [`crr_discovery::ProofObligations`], `repair` for a stream-repaired
        /// artifact audited against its [`crr_discovery::RepairObligations`].
        pub source: String,
        /// Rules examined.
        pub rules: usize,
        /// DNF conjuncts examined across all rules.
        pub conjuncts: usize,
        /// Shard-guard obligations examined (0 for unsharded artifacts).
        pub shards: usize,
        /// Work tallies of the pass.
        pub counters: AnalysisCounters,
        /// All findings, ranked worst-first.
        pub findings: Vec<Finding>,
        /// Findings tallied by severity.
        pub summary: Summary,
    }
}

codec!(AnalysisCounters(BLOCK) {
    rules, conjuncts, shards, implication_checks, unsat_checks, absdom_transfers,
    compile_equiv_checks, repair_regions, findings_unsound, findings_redundant, findings_hygiene,
});
codec!(Finding(INLINE) { check, severity, rule, shard, message });
codec!(Summary(INLINE) { unsound, redundant, hygiene });

record! {
    /// The `analysis.json` document.
    #[derive(Debug, Clone)]
    pub struct AnalysisRuns(BLOCK, schema = SCHEMA) {
        /// Every analyzed artifact.
        pub runs: Vec<AnalysisRun>,
    }
}

impl AnalysisRun {
    /// The run recording `report`, the analysis of an artifact discovered
    /// on `rows` rows of `dataset`.
    pub fn new(dataset: &str, rows: usize, source: &str, report: AnalysisReport) -> Self {
        AnalysisRun {
            dataset: dataset.to_string(),
            rows,
            source: source.to_string(),
            rules: report.rules,
            conjuncts: report.conjuncts,
            shards: report.shards,
            counters: report.counters,
            summary: report.summary(),
            findings: report.findings,
        }
    }
}

/// Validates an `analysis.json` document. On success, returns a one-line
/// summary; on failure, a message naming the first violation.
///
/// Beyond shape (schema tag, every field's type, non-empty `runs`, a known
/// `source`, check and severity labels), this enforces:
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
    let doc: AnalysisRuns = parse(text)?;
    if doc.runs.is_empty() {
        return Err("'runs' is empty".to_string());
    }
    let mut total_findings = 0usize;
    for (i, r) in doc.runs.iter().enumerate() {
        let ctx = format!("runs[{i}]");
        let source = r.source.as_str();
        if source != "single" && source != "sharded" && source != "repair" {
            return Err(format!("{ctx}: unknown source '{source}'"));
        }
        if r.rules == 0 {
            return Err(format!("{ctx}: analyzed an empty rule set"));
        }
        let shards = r.shards;
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
        let (c, conjuncts) = (&r.counters, r.conjuncts as u64);
        if c.rules != r.rules as u64 {
            return Err(format!("{ctx}: counters.rules disagrees with rules"));
        }
        if c.conjuncts != conjuncts {
            return Err(format!(
                "{ctx}: counters.conjuncts disagrees with conjuncts"
            ));
        }
        if c.unsat_checks < conjuncts {
            return Err(format!(
                "{ctx}: not every conjunct was satisfiability-checked"
            ));
        }
        if c.compile_equiv_checks != conjuncts {
            return Err(format!(
                "{ctx}: not every conjunct went through the compile-equivalence check"
            ));
        }
        let repair_regions = c.repair_regions;
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
        if let Some(k) = r
            .findings
            .iter()
            .position(|f| f.severity == Severity::Unsound)
        {
            let f = &r.findings[k];
            return Err(format!(
                "{ctx}.findings[{k}]: UNSOUND ({}): {} — the artifact fails its own \
                 static verification",
                f.check.label(),
                f.message
            ));
        }
        let listed = |s: Severity| r.findings.iter().filter(|f| f.severity == s).count();
        let tally = Summary {
            unsound: listed(Severity::Unsound),
            redundant: listed(Severity::Redundant),
            hygiene: listed(Severity::Hygiene),
        };
        if r.summary != tally {
            return Err(format!(
                "{ctx}: summary {:?} disagrees with the findings listed {tally:?}",
                r.summary
            ));
        }
        let counted = [c.findings_unsound, c.findings_redundant, c.findings_hygiene];
        if counted != [tally.unsound, tally.redundant, tally.hygiene].map(|n| n as u64) {
            return Err(format!(
                "{ctx}: counters.findings_* {counted:?} disagrees with the findings {tally:?}"
            ));
        }
        total_findings += r.findings.len();
    }
    Ok(format!(
        "ok: {} run(s), 0 unsound, {total_findings} non-blocking finding(s)",
        doc.runs.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn render(runs: &[AnalysisRun]) -> String {
        crate::artifact::render(&AnalysisRuns {
            runs: runs.to_vec(),
        })
    }
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
            AnalysisRun::new(
                "electricity",
                2880,
                "single",
                analyze_artifact(&artifact_of(clean)),
            ),
            AnalysisRun::new(
                "tax",
                2500,
                "single",
                analyze_artifact(&artifact_of(redundant)),
            ),
            AnalysisRun::new(
                "electricity",
                3168,
                "repair",
                analyze_artifact(&repaired_artifact),
            ),
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
        runs[0] = AnalysisRun::new("electricity", 2880, "single", report);
        let err = validate(&render(&runs)).expect_err("must fail");
        assert!(err.contains("UNSOUND"), "{err}");
    }

    #[test]
    fn tally_drift_is_rejected() {
        let mut runs = sample();
        // Drop a finding but keep the counters: summary and counters now
        // both disagree with the list.
        runs[1].findings.clear();
        let err = validate(&render(&runs)).expect_err("must fail");
        assert!(err.contains("runs[1]: summary"), "{err}");
        assert!(err.contains("disagrees"), "{err}");
        // With the summary re-tallied, the analyzer's counters still do.
        runs[1].summary = Summary::default();
        let err = validate(&render(&runs)).expect_err("must fail");
        assert!(
            err.contains("counters.findings_* [0, 1, 0] disagrees"),
            "{err}"
        );
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

    #[test]
    fn labels_are_read_from_crr_analyze() {
        let text = render(&sample());
        let err = validate(&text.replacen("\"severity\": \"", "\"severity\": \"cosmetic-", 1))
            .expect_err("unknown severity must fail");
        assert!(
            err.contains(".severity: unknown severity 'cosmetic-"),
            "{err}"
        );
        let err = validate(&text.replacen("\"check\": \"", "\"check\": \"x", 1))
            .expect_err("unknown check must fail");
        assert!(err.contains(".check: unknown check 'x"), "{err}");
    }

    #[test]
    fn committed_artifact_round_trips_byte_for_byte() {
        let text = include_str!("../../../analysis.json");
        let doc: AnalysisRuns = parse(text).expect("the committed file parses");
        assert_eq!(crate::artifact::render(&doc), text);
    }
}
