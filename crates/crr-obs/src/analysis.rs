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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn findings_total_every_severity() {
        let c = AnalysisCounters {
            findings_unsound: 1,
            findings_redundant: 2,
            findings_hygiene: 3,
            ..AnalysisCounters::default()
        };
        assert_eq!(c.findings(), 6);
    }
}
