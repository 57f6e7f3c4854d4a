//! `crr-analyze` — a static verifier for CRR artifacts.
//!
//! Discovery emits rule sets; sharded discovery additionally emits
//! [`ProofObligations`] recording the guard predicates it wrapped each
//! shard's rules in. This crate checks those artifacts **without scanning
//! a single row**, using only `crr-core`'s implication engine
//! ([`crr_core::ConjFacts`]: a conjunct's per-attribute
//! [`crr_core::AttrSummary`]s and provably-unsat flag, built once per
//! conjunct per pass and tested against Definition 2's rule pairs and
//! the shard and repair guards without allocating),
//! plus `crr-core`'s abstract domain ([`crr_core::absdom`]) for symbolic
//! compile-time semantics. Seven checks:
//!
//! * **A1 satisfiability** — a condition that is provably unsatisfiable
//!   (empty implied interval, `IS NULL` conjoined with a comparison, …)
//!   marks the whole rule redundant, or a single dead disjunct as hygiene;
//! * **A2 subsumption** — rule `i` is redundant when another rule on the
//!   same target provably covers it with a no-worse bias;
//! * **A3 shard-guard soundness** — recorded guards must equal the
//!   canonical membership predicates, be pairwise provably disjoint,
//!   jointly cover the key domain (including the null regime), and every
//!   merged conjunct must be confined to some shard's guard — the check
//!   that catches a dropped `IS NULL` guard on null-key rules;
//! * **A4 inference audit** — ρ finite and non-negative, built-in
//!   translations composable per Proposition 9 (matching arity, finite
//!   shifts), no duplicate conjuncts or predicates, and no same-side
//!   interval bounds the scan compiler would fold to the strictest;
//! * **A5 ρ-monotonicity** — `C_i ⊢ C_j` with a shared model requires
//!   `ρ_i ≤ ρ_j`, the invariant Fusion's `max(ρ_1, ρ_2)` output preserves;
//! * **A6 compile equivalence** ([`analyze_artifact`] and friends) —
//!   each conjunction's compiled scan kernels must reach exactly the
//!   source predicates' canonical abstract state; a bad interval fold, a
//!   coerced constant, a NaN-lane mismatch or a string-LUT gap is
//!   unsound, proven without evaluating a single row;
//! * **A7 repair obligations** ([`analyze_artifact`] on artifacts whose
//!   [`crr_discovery::RepairObligations`] are present) — a
//!   proof-carrying stream repair's splice must keep a valid prefix,
//!   carry dense region ids, claim no provably-empty region, and confine
//!   every repaired rule to some region's guard.
//!
//! The engine is conservative — it proves, never refutes — so every
//! finding is a positive proof and a clean report means "nothing
//! provable", not "nothing wrong". Findings rank
//! [`Severity::Unsound`] > [`Severity::Redundant`] >
//! [`Severity::Hygiene`]; `scripts/ci.sh` refuses artifacts with unsound
//! findings via `experiments --check`.
//!
//! # Example
//!
//! ```
//! use crr_analyze::{analyze, Severity};
//! use crr_core::{Conjunction, Crr, Dnf, Predicate, RuleSet};
//! use crr_data::{AttrId, Value};
//! use crr_models::{ConstantModel, Model};
//! use std::sync::Arc;
//!
//! let x = AttrId(0);
//! let y = AttrId(1);
//! let model = Arc::new(Model::Constant(ConstantModel::new(1.0, 1)));
//! // x > 5 AND x < 3 can never hold.
//! let dead = Conjunction::of(vec![
//!     Predicate::gt(x, Value::Float(5.0)),
//!     Predicate::lt(x, Value::Float(3.0)),
//! ]);
//! let mut rules = RuleSet::new();
//! rules.push(Crr::new(vec![x], y, model, 0.5, Dnf::single(dead)).unwrap());
//!
//! let report = analyze(&rules, None);
//! assert!(report.is_sound()); // unsatisfiable is dead weight, not wrong
//! assert_eq!(report.summary().redundant, 1);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod checks;
mod report;

pub use report::{AnalysisReport, Check, Finding, Severity, Summary};

use checks::Pass;
use crr_core::RuleSet;
use crr_data::Table;
use crr_discovery::{ProofObligations, RepairObligations, RuleSetArtifact, ShardedDiscovery};
pub use crr_obs::AnalysisCounters;

/// Runs the rule-level checks (A1–A5) over `rules` and, when given, the
/// sharded run's guard obligations. Pure and read-only: the rule set is
/// never modified and no table is consulted. The schema-aware checks A6
/// and A7 need an artifact; use [`analyze_artifact`] for the full battery.
pub fn analyze(rules: &RuleSet, obligations: Option<&ProofObligations>) -> AnalysisReport {
    run_checks(rules, obligations, None, None)
}

/// Analyzes a discovery result directly: the merged rules against the
/// obligations the run emitted (none on the single-shard fast path).
pub fn analyze_discovery(d: &ShardedDiscovery) -> AnalysisReport {
    analyze(&d.rules, d.obligations.as_ref())
}

/// Runs **all seven checks** (A1–A7) over an artifact, with no table at
/// hand: A6 compiles against an empty table of the artifact's own schema,
/// which fixes every column's kind, nullability and string dictionary —
/// exactly the context `crr-serve`'s swap gate has. A7 runs when the
/// artifact carries [`crr_discovery::RepairObligations`]. Row-free like
/// every other check.
pub fn analyze_artifact(artifact: &RuleSetArtifact) -> AnalysisReport {
    analyze_artifact_on(artifact, &Table::new(artifact.schema.clone()))
}

/// Runs all seven checks with `table` as A6's compile context (its
/// column facts — kinds, nullability, string dictionaries — seed the
/// abstract ⊤ state; its rows are never read). Falls back to an empty
/// table of the artifact's schema when `table`'s schema differs.
pub fn analyze_artifact_on(artifact: &RuleSetArtifact, table: &Table) -> AnalysisReport {
    let fallback;
    let ctx = if table.schema() == &artifact.schema {
        table
    } else {
        fallback = Table::new(artifact.schema.clone());
        &fallback
    };
    run_checks(
        &artifact.rules,
        artifact.obligations.as_ref(),
        Some(ctx),
        artifact.repair.as_ref(),
    )
}

/// The one check sequence: A1–A5, then A6 when a compile context is given
/// and A7 when repair obligations are.
fn run_checks(
    rules: &RuleSet,
    obligations: Option<&ProofObligations>,
    ctx: Option<&Table>,
    repair: Option<&RepairObligations>,
) -> AnalysisReport {
    let mut pass = Pass::new(rules);
    pass.check_satisfiability();
    pass.check_subsumption();
    if let Some(ob) = obligations {
        pass.check_guards(ob);
    }
    pass.check_inference();
    pass.check_rho_monotonicity();
    if let Some(ctx) = ctx {
        pass.check_compile_equivalence(ctx);
    }
    if let Some(rep) = repair {
        pass.check_repair(rep);
    }
    pass.into_report(obligations.map_or(0, |ob| ob.guards.len()))
}

#[cfg(test)]
mod tests {
    // Test fixtures: panicking on malformed fixtures is the failure mode
    // we want.
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crr_core::compiled::{set_miscompile, Miscompile};
    use crr_core::{Conjunction, Crr, Dnf, Predicate, RuleSet};
    use crr_data::{AttrId, AttrType, Boundary, Schema, ShardBounds, Value};
    use crr_discovery::{
        guard_predicates, ProofObligations, RepairObligations, RepairRegion, ShardGuard,
    };
    use crr_models::{ConstantModel, LinearModel, Model, Translation};
    use std::sync::Arc;

    fn x() -> AttrId {
        AttrId(0)
    }
    fn y() -> AttrId {
        AttrId(1)
    }

    fn model(c: f64) -> Arc<Model> {
        Arc::new(Model::Constant(ConstantModel::new(c, 1)))
    }

    fn interval(lo: f64, hi: f64) -> Conjunction {
        Conjunction::of(vec![
            Predicate::ge(x(), Value::Float(lo)),
            Predicate::lt(x(), Value::Float(hi)),
        ])
    }

    fn rule(cond: Dnf, rho: f64, m: Arc<Model>) -> Crr {
        Crr::new(vec![x()], y(), m, rho, cond).unwrap()
    }

    fn bounds(lo: Option<f64>, hi: Option<f64>, null_keys: bool) -> ShardBounds {
        ShardBounds {
            attr: x(),
            lo,
            hi,
            null_keys,
        }
    }

    fn guard(shard_id: usize, b: ShardBounds) -> ShardGuard {
        ShardGuard {
            shard_id,
            guards: guard_predicates(&b),
            bounds: b,
        }
    }

    /// A canonical two-interval + null-shard obligation set. Tagged
    /// quantile: data-derived boundaries discharge the same checks.
    fn obligations() -> ProofObligations {
        ProofObligations {
            shard_key: x(),
            boundary: Boundary::Quantile,
            guards: vec![
                guard(0, bounds(None, Some(10.0), false)),
                guard(1, bounds(Some(10.0), None, false)),
                guard(2, bounds(None, None, true)),
            ],
        }
    }

    #[test]
    fn clean_set_has_no_findings() {
        let mut rules = RuleSet::new();
        rules.push(rule(Dnf::single(interval(0.0, 10.0)), 0.5, model(1.0)));
        rules.push(rule(Dnf::single(interval(10.0, 20.0)), 0.5, model(2.0)));
        let report = analyze(&rules, None);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert!(report.is_sound());
        assert_eq!(report.rules, 2);
        assert_eq!(report.conjuncts, 2);
        assert_eq!(report.counters.rules, 2);
        assert!(report.counters.unsat_checks >= 2);
    }

    #[test]
    fn unsat_rule_is_redundant_and_dead_disjunct_is_hygiene() {
        let dead = interval(10.0, 5.0); // empty interval
        let mut rules = RuleSet::new();
        rules.push(rule(Dnf::single(dead.clone()), 0.5, model(1.0)));
        rules.push(rule(
            Dnf::of(vec![interval(0.0, 5.0), dead]),
            0.5,
            model(2.0),
        ));
        let report = analyze(&rules, None);
        let sat: Vec<_> = report
            .findings
            .iter()
            .filter(|f| f.check == Check::Satisfiability)
            .collect();
        assert_eq!(sat.len(), 2, "{:?}", report.findings);
        assert_eq!(sat[0].severity, Severity::Redundant);
        assert_eq!(sat[0].rule, Some(0));
        assert_eq!(sat[1].severity, Severity::Hygiene);
        assert_eq!(sat[1].rule, Some(1));
        assert!(report.is_sound());
    }

    #[test]
    fn null_test_conflicts_are_provably_unsat() {
        let c = Conjunction::of(vec![
            Predicate::is_null(x()),
            Predicate::ge(x(), Value::Float(0.0)),
        ]);
        let mut rules = RuleSet::new();
        rules.push(rule(Dnf::single(c), 0.5, model(1.0)));
        let report = analyze(&rules, None);
        assert_eq!(report.summary().redundant, 1);
    }

    #[test]
    fn narrower_rule_with_no_better_rho_is_subsumed() {
        let mut rules = RuleSet::new();
        rules.push(rule(Dnf::single(interval(2.0, 4.0)), 0.5, model(1.0)));
        rules.push(rule(Dnf::single(interval(0.0, 10.0)), 0.5, model(2.0)));
        let report = analyze(&rules, None);
        let sub: Vec<_> = report
            .findings
            .iter()
            .filter(|f| f.check == Check::Subsumption)
            .collect();
        assert_eq!(sub.len(), 1, "{:?}", report.findings);
        assert_eq!(sub[0].rule, Some(0));
        assert_eq!(sub[0].severity, Severity::Redundant);
    }

    #[test]
    fn narrower_rule_with_tighter_rho_survives() {
        let mut rules = RuleSet::new();
        rules.push(rule(Dnf::single(interval(2.0, 4.0)), 0.1, model(1.0)));
        rules.push(rule(Dnf::single(interval(0.0, 10.0)), 0.5, model(2.0)));
        let report = analyze(&rules, None);
        assert!(
            report
                .findings
                .iter()
                .all(|f| f.check != Check::Subsumption),
            "{:?}",
            report.findings
        );
    }

    #[test]
    fn duplicate_rules_flag_only_the_later_one() {
        let mut rules = RuleSet::new();
        rules.push(rule(Dnf::single(interval(0.0, 10.0)), 0.5, model(1.0)));
        rules.push(rule(Dnf::single(interval(0.0, 10.0)), 0.5, model(2.0)));
        let report = analyze(&rules, None);
        let sub: Vec<_> = report
            .findings
            .iter()
            .filter(|f| f.check == Check::Subsumption)
            .collect();
        assert_eq!(sub.len(), 1, "{:?}", report.findings);
        assert_eq!(sub[0].rule, Some(1), "higher index is the duplicate");
    }

    #[test]
    fn clean_obligations_verify() {
        let mut rules = RuleSet::new();
        let low = interval(0.0, 5.0).and(Predicate::lt(x(), Value::Float(10.0)));
        rules.push(rule(Dnf::single(low), 0.5, model(1.0)));
        let nul = Conjunction::of(vec![Predicate::is_null(x())]);
        rules.push(rule(Dnf::single(nul), 0.5, model(2.0)));
        let report = analyze(&rules, Some(&obligations()));
        assert!(report.is_sound(), "{:?}", report.findings);
        assert_eq!(report.shards, 3);
        assert_eq!(report.counters.shards, 3);
    }

    #[test]
    fn tampered_guard_list_breaks_exactness() {
        let mut ob = obligations();
        ob.guards[2].guards.clear(); // null shard loses its IS NULL guard
        let rules = RuleSet::new();
        let report = analyze(&rules, Some(&ob));
        assert!(!report.is_sound());
        assert!(report
            .findings
            .iter()
            .any(|f| f.check == Check::GuardSoundness
                && f.shard == Some(2)
                && f.message.contains("canonical")));
    }

    #[test]
    fn overlapping_shards_break_disjointness() {
        let ob = ProofObligations {
            shard_key: x(),
            boundary: Boundary::EqualWidth,
            guards: vec![
                guard(0, bounds(None, Some(10.0), false)),
                guard(1, bounds(Some(5.0), None, false)), // overlaps [5, 10)
            ],
        };
        let rules = RuleSet::new();
        let report = analyze(&rules, Some(&ob));
        assert!(report
            .findings
            .iter()
            .any(|f| f.severity == Severity::Unsound && f.message.contains("disjoint")));
    }

    #[test]
    fn missing_open_ends_are_uncovered() {
        let ob = ProofObligations {
            shard_key: x(),
            boundary: Boundary::EqualWidth,
            guards: vec![
                guard(0, bounds(Some(0.0), Some(10.0), false)),
                guard(1, bounds(Some(10.0), Some(20.0), false)),
            ],
        };
        let rules = RuleSet::new();
        let report = analyze(&rules, Some(&ob));
        let msgs: Vec<_> = report.findings.iter().map(|f| &f.message).collect();
        assert!(
            msgs.iter().any(|m| m.contains("unbounded below")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter().any(|m| m.contains("unbounded above")),
            "{msgs:?}"
        );
    }

    #[test]
    fn interval_gap_breaks_the_chain() {
        // Both open ends exist and every pair is disjoint, yet keys in
        // [10, 20) are covered by no shard: only the chain check sees it.
        let ob = ProofObligations {
            shard_key: x(),
            boundary: Boundary::Quantile,
            guards: vec![
                guard(0, bounds(None, Some(10.0), false)),
                guard(1, bounds(Some(20.0), None, false)),
            ],
        };
        let rules = RuleSet::new();
        let report = analyze(&rules, Some(&ob));
        assert!(!report.is_sound());
        assert!(report
            .findings
            .iter()
            .any(|f| f.check == Check::GuardSoundness
                && f.severity == Severity::Unsound
                && f.message.contains("chain breaks")));
        // The canonical contiguous set stays clean.
        let clean = analyze(&rules, Some(&obligations()));
        assert!(clean.is_sound(), "{:?}", clean.findings);
    }

    #[test]
    fn not_null_guard_without_null_shard_is_unsound() {
        let ob = ProofObligations {
            shard_key: x(),
            boundary: Boundary::EqualWidth,
            guards: vec![
                guard(0, bounds(None, None, false)), // NOT NULL guard
                guard(1, bounds(None, Some(0.0), false)),
            ],
        };
        let rules = RuleSet::new();
        let report = analyze(&rules, Some(&ob));
        assert!(report
            .findings
            .iter()
            .any(|f| f.severity == Severity::Unsound && f.message.contains("null regime")));
    }

    #[test]
    fn unguarded_conjunct_is_not_confined() {
        // A rule whose conjunct carries no shard guard at all: the exact
        // shape of the pre-fix null-shard bug after the merge.
        let mut rules = RuleSet::new();
        rules.push(rule(Dnf::single(Conjunction::top()), 0.5, model(1.0)));
        let report = analyze(&rules, Some(&obligations()));
        assert!(!report.is_sound());
        assert!(report
            .findings
            .iter()
            .any(|f| f.check == Check::GuardSoundness
                && f.rule == Some(0)
                && f.message.contains("confined")));
    }

    #[test]
    fn translation_arity_mismatch_is_unsound() {
        // `Crr::new` rejects a mismatched builtin up front, so tamper
        // after construction — the drift A4 exists to catch.
        let mut r = rule(Dnf::single(interval(0.0, 10.0)), 0.5, model(1.0));
        r.condition_mut().conjuncts_mut()[0].set_builtin(Translation {
            delta_x: vec![1.0, 2.0], // rule has 1 input
            delta_y: 0.0,
        });
        let mut rules = RuleSet::new();
        rules.push(r);
        let report = analyze(&rules, None);
        assert!(!report.is_sound());
        assert!(report
            .findings
            .iter()
            .any(|f| f.check == Check::InferenceAudit && f.message.contains("arity")));
    }

    #[test]
    fn non_finite_shift_and_rho_are_unsound() {
        let mut c = interval(0.0, 10.0);
        c.set_builtin(Translation {
            delta_x: vec![f64::NAN],
            delta_y: 0.0,
        });
        let mut rules = RuleSet::new();
        rules.push(rule(Dnf::single(c), f64::INFINITY, model(1.0)));
        let report = analyze(&rules, None);
        let audit: Vec<_> = report
            .findings
            .iter()
            .filter(|f| f.check == Check::InferenceAudit && f.severity == Severity::Unsound)
            .collect();
        assert_eq!(audit.len(), 2, "{:?}", report.findings);
    }

    #[test]
    fn duplicate_conjuncts_and_predicates_are_hygiene() {
        let c = interval(0.0, 10.0);
        let repeated = Conjunction::of(vec![Predicate::ge(x(), Value::Float(0.0)); 2]);
        let mut rules = RuleSet::new();
        rules.push(rule(Dnf::of(vec![c.clone(), c, repeated]), 0.5, model(1.0)));
        let report = analyze(&rules, None);
        let hygiene: Vec<_> = report
            .findings
            .iter()
            .filter(|f| f.check == Check::InferenceAudit && f.severity == Severity::Hygiene)
            .collect();
        assert_eq!(hygiene.len(), 2, "{:?}", report.findings);
        assert!(report.is_sound());
    }

    #[test]
    fn foldable_same_side_bounds_are_hygiene() {
        // Two distinct upper bounds on x: the scan compiler keeps only
        // lt 5 at compile time, so the displayed rule diverges from what
        // the kernels evaluate — refinement debt worth one finding.
        let c = Conjunction::of(vec![
            Predicate::ge(x(), Value::Float(0.0)),
            Predicate::lt(x(), Value::Float(10.0)),
            Predicate::lt(x(), Value::Float(5.0)),
        ]);
        let mut rules = RuleSet::new();
        rules.push(rule(Dnf::single(c), 0.5, model(1.0)));
        let report = analyze(&rules, None);
        let folds: Vec<_> = report
            .findings
            .iter()
            .filter(|f| {
                f.check == Check::InferenceAudit
                    && f.severity == Severity::Hygiene
                    && f.message.contains("folds")
            })
            .collect();
        assert_eq!(folds.len(), 1, "{:?}", report.findings);
        assert_eq!(folds[0].rule, Some(0));
        assert!(report.is_sound());
        // A lower and an upper bound never fold — the clean interval
        // stays clean.
        let mut clean = RuleSet::new();
        clean.push(rule(Dnf::single(interval(0.0, 10.0)), 0.5, model(1.0)));
        assert!(analyze(&clean, None).findings.is_empty());
    }

    #[test]
    fn shared_model_rho_regression_is_flagged() {
        let m = Arc::new(Model::Linear(LinearModel::new(vec![2.0], 0.0)));
        let mut rules = RuleSet::new();
        rules.push(rule(Dnf::single(interval(2.0, 4.0)), 1.0, Arc::clone(&m)));
        rules.push(rule(Dnf::single(interval(0.0, 10.0)), 0.5, m));
        let report = analyze(&rules, None);
        assert!(report
            .findings
            .iter()
            .any(|f| f.check == Check::RhoMonotonicity
                && f.rule == Some(0)
                && f.severity == Severity::Hygiene));
    }

    fn schema() -> Schema {
        Schema::new(vec![("x", AttrType::Float), ("y", AttrType::Float)])
    }

    fn artifact(rules: RuleSet) -> crr_discovery::RuleSetArtifact {
        crr_discovery::RuleSetArtifact::new(schema(), rules, None).unwrap()
    }

    fn one_rule_artifact(c: Conjunction) -> crr_discovery::RuleSetArtifact {
        let mut rules = RuleSet::new();
        rules.push(rule(Dnf::single(c), 0.5, model(1.0)));
        artifact(rules)
    }

    /// Runs A6 with `mode` armed and returns the report; always disarms.
    fn analyze_miscompiled(a: &crr_discovery::RuleSetArtifact, mode: Miscompile) -> AnalysisReport {
        set_miscompile(Some(mode));
        let report = analyze_artifact(a);
        set_miscompile(None);
        report
    }

    fn a6_unsound(report: &AnalysisReport) -> bool {
        report
            .findings
            .iter()
            .any(|f| f.check == Check::CompileEquivalence && f.severity == Severity::Unsound)
    }

    #[test]
    fn faithful_compilation_passes_compile_equivalence() {
        let a = one_rule_artifact(interval(0.0, 10.0));
        let report = analyze_artifact(&a);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert_eq!(report.counters.compile_equiv_checks, 1);
        assert!(report.counters.absdom_transfers >= 4);
        assert_eq!(report.counters.repair_regions, 0);
    }

    #[test]
    fn bad_interval_fold_is_unsound() {
        // Two upper bounds: the faithful compiler keeps `< 5`, the mutant
        // keeps the slack `< 10` — symbolically distinguishable states.
        let c = Conjunction::of(vec![
            Predicate::ge(x(), Value::Float(0.0)),
            Predicate::lt(x(), Value::Float(10.0)),
            Predicate::lt(x(), Value::Float(5.0)),
        ]);
        let a = one_rule_artifact(c);
        assert!(!a6_unsound(&analyze_artifact(&a)), "clean compile accused");
        let report = analyze_miscompiled(&a, Miscompile::KeepSlackBound);
        assert!(a6_unsound(&report), "{:?}", report.findings);
        assert!(!report.is_sound());
    }

    #[test]
    fn nan_lane_mismatch_is_unsound() {
        // The mutant compiles `≠ 3` to `v != c`, which accepts NaN cells
        // the source predicate rejects — only the NaN lane differs.
        let a = one_rule_artifact(Conjunction::of(vec![Predicate::ne(x(), Value::Float(3.0))]));
        let clean = analyze_artifact(&a);
        assert!(!a6_unsound(&clean), "{:?}", clean.findings);
        let report = analyze_miscompiled(&a, Miscompile::NeMatchesNan);
        assert!(a6_unsound(&report), "{:?}", report.findings);
        assert!(report
            .findings
            .iter()
            .any(|f| f.check == Check::CompileEquivalence && f.message.contains("may_nan")));
    }

    #[test]
    fn constant_coercion_drift_is_unsound() {
        let a = one_rule_artifact(Conjunction::of(vec![Predicate::ge(x(), Value::Float(2.5))]));
        assert!(!a6_unsound(&analyze_artifact(&a)));
        let report = analyze_miscompiled(&a, Miscompile::TruncateConst);
        assert!(a6_unsound(&report), "{:?}", report.findings);
    }

    #[test]
    fn string_lut_gap_is_unsound() {
        // A populated table gives the dictionary the LUT indexes; the
        // rows themselves are never evaluated.
        let s = Schema::new(vec![
            ("x", AttrType::Float),
            ("y", AttrType::Float),
            ("color", AttrType::Str),
        ]);
        let mut t = crr_data::Table::new(s.clone());
        for (i, w) in ["red", "green", "blue"].iter().enumerate() {
            t.push_row(vec![
                Value::Float(i as f64),
                Value::Float(0.0),
                Value::str(*w),
            ])
            .unwrap();
        }
        let mut rules = RuleSet::new();
        let c = Conjunction::of(vec![Predicate::eq(AttrId(2), Value::str("red"))]);
        rules.push(rule(Dnf::single(c), 0.5, model(1.0)));
        let a = crr_discovery::RuleSetArtifact::new(s, rules, None).unwrap();
        assert!(!a6_unsound(&analyze_artifact_on(&a, &t)));
        set_miscompile(Some(Miscompile::LutGap));
        let report = analyze_artifact_on(&a, &t);
        set_miscompile(None);
        assert!(a6_unsound(&report), "{:?}", report.findings);
    }

    #[test]
    fn mismatched_context_schema_falls_back_to_the_artifact_schema() {
        let a = one_rule_artifact(interval(0.0, 10.0));
        let other = crr_data::Table::new(Schema::new(vec![("z", AttrType::Int)]));
        let report = analyze_artifact_on(&a, &other);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert_eq!(report.counters.compile_equiv_checks, 1);
    }

    fn repaired_artifact(
        kept: usize,
        regions: Vec<RepairRegion>,
        rules: RuleSet,
    ) -> crr_discovery::RuleSetArtifact {
        artifact(rules)
            .with_repair(RepairObligations { kept, regions })
            .unwrap()
    }

    fn region(id: usize, guards: Vec<Predicate>) -> RepairRegion {
        RepairRegion {
            region_id: id,
            rule: id,
            conjunct: 0,
            guards,
        }
    }

    #[test]
    fn confined_repair_is_sound() {
        let mut rules = RuleSet::new();
        rules.push(rule(Dnf::single(interval(0.0, 10.0)), 0.5, model(1.0)));
        rules.push(rule(Dnf::single(interval(10.0, 20.0)), 0.4, model(2.0)));
        let guards = vec![
            Predicate::ge(x(), Value::Float(10.0)),
            Predicate::lt(x(), Value::Float(20.0)),
        ];
        let a = repaired_artifact(1, vec![region(0, guards)], rules);
        let report = analyze_artifact(&a);
        assert!(report.is_sound(), "{:?}", report.findings);
        assert_eq!(report.counters.repair_regions, 1);
    }

    #[test]
    fn overclaiming_repair_is_unsound() {
        // The repaired rule covers [0, 10) but the only region claims
        // [10, 20): the splice touched rows outside its license.
        let mut rules = RuleSet::new();
        rules.push(rule(Dnf::single(interval(10.0, 20.0)), 0.5, model(1.0)));
        rules.push(rule(Dnf::single(interval(0.0, 10.0)), 0.4, model(2.0)));
        let guards = vec![
            Predicate::ge(x(), Value::Float(10.0)),
            Predicate::lt(x(), Value::Float(20.0)),
        ];
        let a = repaired_artifact(1, vec![region(0, guards)], rules);
        let report = analyze_artifact(&a);
        assert!(!report.is_sound());
        assert!(report
            .findings
            .iter()
            .any(|f| f.check == Check::RepairObligations
                && f.rule == Some(1)
                && f.message.contains("over-claims")));
    }

    #[test]
    fn unsatisfiable_region_guard_underclaims() {
        let mut rules = RuleSet::new();
        rules.push(rule(Dnf::single(interval(0.0, 10.0)), 0.5, model(1.0)));
        let guards = vec![
            Predicate::ge(x(), Value::Float(10.0)),
            Predicate::lt(x(), Value::Float(5.0)),
        ];
        let a = repaired_artifact(1, vec![region(0, guards)], rules);
        let report = analyze_artifact(&a);
        assert!(!report.is_sound());
        assert!(report
            .findings
            .iter()
            .any(|f| f.check == Check::RepairObligations && f.message.contains("under-claims")));
    }

    #[test]
    fn kept_count_beyond_the_rule_set_is_unsound() {
        let mut rules = RuleSet::new();
        rules.push(rule(Dnf::single(interval(0.0, 10.0)), 0.5, model(1.0)));
        let a = repaired_artifact(5, Vec::new(), rules);
        let report = analyze_artifact(&a);
        assert!(!report.is_sound());
        assert!(report
            .findings
            .iter()
            .any(|f| f.check == Check::RepairObligations && f.message.contains("kept")));
    }

    #[test]
    fn non_dense_region_ids_are_unsound() {
        let mut rules = RuleSet::new();
        rules.push(rule(Dnf::single(interval(0.0, 10.0)), 0.5, model(1.0)));
        let guards = vec![Predicate::ge(x(), Value::Float(0.0))];
        let a = repaired_artifact(1, vec![region(3, guards)], rules);
        let report = analyze_artifact(&a);
        assert!(!report.is_sound());
        assert!(report
            .findings
            .iter()
            .any(|f| f.check == Check::RepairObligations && f.message.contains("dense")));
    }

    #[test]
    fn guard_free_region_is_hygiene_not_unsound() {
        // A drifted `top` conjunct is a region with no guard predicates;
        // every repaired rule is then vacuously confined.
        let mut rules = RuleSet::new();
        rules.push(rule(Dnf::single(interval(0.0, 10.0)), 0.5, model(1.0)));
        rules.push(rule(Dnf::single(interval(50.0, 60.0)), 0.4, model(2.0)));
        let a = repaired_artifact(1, vec![region(0, Vec::new())], rules);
        let report = analyze_artifact(&a);
        assert!(report.is_sound(), "{:?}", report.findings);
        assert!(report
            .findings
            .iter()
            .any(|f| f.check == Check::RepairObligations
                && f.severity == Severity::Hygiene
                && f.message.contains("vacuous")));
    }

    #[test]
    fn equal_rho_tie_break_is_stable_across_serialization() {
        // Two mutually-implying equal-ρ rules: the survivor must be the
        // lower index before and after an artifact text round-trip.
        let mut rules = RuleSet::new();
        rules.push(rule(Dnf::single(interval(0.0, 10.0)), 0.5, model(1.0)));
        rules.push(rule(Dnf::single(interval(0.0, 10.0)), 0.5, model(2.0)));
        let a = artifact(rules);
        let before = analyze_artifact(&a);
        let b = crr_discovery::RuleSetArtifact::from_text(&a.to_text()).unwrap();
        let after = analyze_artifact(&b);
        assert_eq!(before.findings, after.findings);
        let sub: Vec<_> = after
            .findings
            .iter()
            .filter(|f| f.check == Check::Subsumption)
            .collect();
        assert_eq!(sub.len(), 1, "{:?}", after.findings);
        assert_eq!(sub[0].rule, Some(1), "survivor is the lowest index");
    }

    #[test]
    fn distinct_models_do_not_trigger_monotonicity() {
        let mut rules = RuleSet::new();
        rules.push(rule(Dnf::single(interval(2.0, 4.0)), 1.0, model(1.0)));
        rules.push(rule(Dnf::single(interval(0.0, 10.0)), 0.5, model(2.0)));
        let report = analyze(&rules, None);
        assert!(report
            .findings
            .iter()
            .all(|f| f.check != Check::RhoMonotonicity));
    }
}
