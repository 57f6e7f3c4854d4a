//! Counters for the static rule-set verifier (`crr-analyze`).
//!
//! Static analysis runs outside the discovery hot path and has no use for
//! the preallocated atomic [`crate::MetricsSink`]: one analysis is a
//! single-threaded pass that wants plain integers it can tally and then
//! serialize. Keeping these in their own struct (rather than new
//! [`crate::Counter`] variants) also keeps the `metrics.json` schema
//! untouched — an instrumented discovery run and a static analysis are
//! different artifacts with different validators.

/// Work and finding tallies of one static analysis pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnalysisCounters {
    /// Rules examined.
    pub rules: u64,
    /// DNF conjuncts examined across all rules.
    pub conjuncts: u64,
    /// Shard-guard obligations examined (0 for unsharded artifacts).
    pub shards: u64,
    /// Implication tests: one per rule-pair `C_i ⊢ C_j` (Definition 2)
    /// and one per conjunct-against-guard confinement test.
    pub implication_checks: u64,
    /// Satisfiability tests: one per conjunct and per guard conjunction.
    pub unsat_checks: u64,
    /// Abstract-domain transfer-function evaluations during the
    /// compile-equivalence check (A6).
    pub absdom_transfers: u64,
    /// Conjunctions symbolically compared against their compiled form
    /// (A6).
    pub compile_equiv_checks: u64,
    /// Repair-splice regions audited (A7; 0 for artifacts that did not
    /// come out of a stream repair).
    pub repair_regions: u64,
    /// Findings emitted at severity `unsound`.
    pub findings_unsound: u64,
    /// Findings emitted at severity `redundant`.
    pub findings_redundant: u64,
    /// Findings emitted at severity `hygiene`.
    pub findings_hygiene: u64,
}

impl AnalysisCounters {
    /// Total findings across all severities.
    pub fn findings(&self) -> u64 {
        self.findings_unsound + self.findings_redundant + self.findings_hygiene
    }

    /// Serializes as a JSON object, indented by `indent` spaces, matching
    /// the hand-rolled style of [`crate::MetricsSnapshot::to_json`].
    pub fn to_json(&self, indent: usize) -> String {
        let pad = " ".repeat(indent);
        let inner = " ".repeat(indent + 2);
        let fields = [
            ("rules", self.rules),
            ("conjuncts", self.conjuncts),
            ("shards", self.shards),
            ("implication_checks", self.implication_checks),
            ("unsat_checks", self.unsat_checks),
            ("absdom_transfers", self.absdom_transfers),
            ("compile_equiv_checks", self.compile_equiv_checks),
            ("repair_regions", self.repair_regions),
            ("findings_unsound", self.findings_unsound),
            ("findings_redundant", self.findings_redundant),
            ("findings_hygiene", self.findings_hygiene),
        ];
        let mut out = String::from("{\n");
        for (i, (name, v)) in fields.iter().enumerate() {
            let comma = if i + 1 < fields.len() { "," } else { "" };
            out.push_str(&format!("{inner}\"{name}\": {v}{comma}\n"));
        }
        out.push_str(&format!("{pad}}}"));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_json_round_trip() {
        let c = AnalysisCounters {
            rules: 3,
            conjuncts: 7,
            shards: 2,
            implication_checks: 40,
            unsat_checks: 9,
            absdom_transfers: 21,
            compile_equiv_checks: 7,
            repair_regions: 2,
            findings_unsound: 1,
            findings_redundant: 2,
            findings_hygiene: 3,
        };
        assert_eq!(c.findings(), 6);
        let doc = crate::json::parse(&c.to_json(0)).expect("valid json");
        assert_eq!(doc.get("conjuncts").and_then(|v| v.as_num()), Some(7.0));
        assert_eq!(
            doc.get("compile_equiv_checks").and_then(|v| v.as_num()),
            Some(7.0)
        );
        assert_eq!(
            doc.get("repair_regions").and_then(|v| v.as_num()),
            Some(2.0)
        );
        assert_eq!(
            doc.get("findings_unsound").and_then(|v| v.as_num()),
            Some(1.0)
        );
    }
}
