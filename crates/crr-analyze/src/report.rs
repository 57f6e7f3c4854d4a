//! Finding and report types: what the verifier says, ranked by how much
//! it matters.

use crr_obs::AnalysisCounters;
use std::fmt;

/// How much a finding matters, worst first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// The artifact can give a wrong answer: a shard guard that fails to
    /// partition the key domain, a rule that leaks outside its shard, a
    /// non-composable translation, a non-finite ρ. CI refuses artifacts
    /// with unsound findings.
    Unsound,
    /// The artifact is correct but carries dead weight: a rule whose
    /// condition can never fire, or one subsumed by another rule with a
    /// no-worse bias.
    Redundant,
    /// Cosmetic debt: dead disjuncts, duplicate conjuncts, ρ claims looser
    /// than a sibling rule already implies.
    Hygiene,
}

impl Severity {
    /// Every severity, worst first.
    pub const ALL: [Severity; 3] = [Severity::Unsound, Severity::Redundant, Severity::Hygiene];

    /// Stable lowercase label used in `analysis.json`.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Unsound => "unsound",
            Severity::Redundant => "redundant",
            Severity::Hygiene => "hygiene",
        }
    }
}

/// Which of the seven static checks produced a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Check {
    /// A1 — per-rule condition satisfiability.
    Satisfiability,
    /// A2 — cross-rule subsumption.
    Subsumption,
    /// A3 — shard-guard partition soundness.
    GuardSoundness,
    /// A4 — inference-rule audit (translations composable, ρ finite).
    InferenceAudit,
    /// A5 — ρ-monotonicity across rules sharing a model.
    RhoMonotonicity,
    /// A6 — compile equivalence: each conjunction's compiled scan kernels
    /// must reach the same abstract state as its source predicates.
    CompileEquivalence,
    /// A7 — repair-obligation audit on proof-carrying stream repairs.
    RepairObligations,
}

impl Check {
    /// Every check, A1 to A7.
    pub const ALL: [Check; 7] = [
        Check::Satisfiability,
        Check::Subsumption,
        Check::GuardSoundness,
        Check::InferenceAudit,
        Check::RhoMonotonicity,
        Check::CompileEquivalence,
        Check::RepairObligations,
    ];

    /// Stable kebab-case label used in `analysis.json`.
    pub fn label(self) -> &'static str {
        match self {
            Check::Satisfiability => "satisfiability",
            Check::Subsumption => "subsumption",
            Check::GuardSoundness => "guard-soundness",
            Check::InferenceAudit => "inference-audit",
            Check::RhoMonotonicity => "rho-monotonicity",
            Check::CompileEquivalence => "compile-equivalence",
            Check::RepairObligations => "repair-obligations",
        }
    }
}

/// One verdict of the analyzer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The check that fired.
    pub check: Check,
    /// How much it matters.
    pub severity: Severity,
    /// Index of the offending rule in the analyzed set, when the finding
    /// is about a rule.
    pub rule: Option<usize>,
    /// Shard id, when the finding is about a shard guard.
    pub shard: Option<usize>,
    /// Human-readable explanation naming the violated property.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.severity.label(), self.check.label())?;
        if let Some(r) = self.rule {
            write!(f, " rule {r}")?;
        }
        if let Some(s) = self.shard {
            write!(f, " shard {s}")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// Findings tallied by severity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Summary {
    /// Count of [`Severity::Unsound`] findings.
    pub unsound: usize,
    /// Count of [`Severity::Redundant`] findings.
    pub redundant: usize,
    /// Count of [`Severity::Hygiene`] findings.
    pub hygiene: usize,
}

/// The result of one static analysis pass over a rule set (and, when
/// supplied, its shard-guard proof obligations).
#[derive(Debug, Clone)]
pub struct AnalysisReport {
    /// Rules examined.
    pub rules: usize,
    /// DNF conjuncts examined across all rules.
    pub conjuncts: usize,
    /// Shard-guard obligations examined (0 for unsharded artifacts).
    pub shards: usize,
    /// All findings, ranked worst-first (severity, then check, then rule).
    pub findings: Vec<Finding>,
    /// Work tallies of the pass.
    pub counters: AnalysisCounters,
}

impl AnalysisReport {
    /// Findings tallied by severity.
    pub fn summary(&self) -> Summary {
        let mut s = Summary::default();
        for f in &self.findings {
            match f.severity {
                Severity::Unsound => s.unsound += 1,
                Severity::Redundant => s.redundant += 1,
                Severity::Hygiene => s.hygiene += 1,
            }
        }
        s
    }

    /// No finding questions correctness (redundancy and hygiene debt may
    /// remain). This is the property CI gates on.
    pub fn is_sound(&self) -> bool {
        self.findings
            .iter()
            .all(|f| f.severity != Severity::Unsound)
    }

    /// Ranks findings worst-first and syncs the finding tallies into the
    /// counters. Called once by the analyzer before returning.
    pub(crate) fn finalize(&mut self) {
        self.findings
            .sort_by_key(|f| (f.severity, f.check, f.rule, f.shard));
        let s = self.summary();
        self.counters.findings_unsound = s.unsound as u64;
        self.counters.findings_redundant = s.redundant as u64;
        self.counters.findings_hygiene = s.hygiene as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(severity: Severity, check: Check, rule: Option<usize>) -> Finding {
        Finding {
            check,
            severity,
            rule,
            shard: None,
            message: "m".into(),
        }
    }

    #[test]
    fn finalize_ranks_worst_first_and_tallies() {
        let mut r = AnalysisReport {
            rules: 2,
            conjuncts: 2,
            shards: 0,
            findings: vec![
                finding(Severity::Hygiene, Check::InferenceAudit, Some(1)),
                finding(Severity::Unsound, Check::GuardSoundness, Some(0)),
                finding(Severity::Redundant, Check::Subsumption, Some(1)),
            ],
            counters: Default::default(),
        };
        r.finalize();
        let sevs: Vec<Severity> = r.findings.iter().map(|f| f.severity).collect();
        assert_eq!(
            sevs,
            [Severity::Unsound, Severity::Redundant, Severity::Hygiene]
        );
        assert!(!r.is_sound());
        assert_eq!(r.summary().unsound, 1);
        assert_eq!(r.counters.findings_redundant, 1);
        assert_eq!(r.counters.findings_hygiene, 1);
    }

    #[test]
    fn display_names_the_rule_and_shard() {
        let f = Finding {
            check: Check::GuardSoundness,
            severity: Severity::Unsound,
            rule: Some(3),
            shard: Some(1),
            message: "leak".into(),
        };
        let s = f.to_string();
        assert!(s.contains("unsound"), "{s}");
        assert!(s.contains("guard-soundness"), "{s}");
        assert!(s.contains("rule 3"), "{s}");
        assert!(s.contains("shard 1"), "{s}");
    }
}
