//! The seven static checks (A1–A7), all powered by `crr-core`'s
//! implication engine and abstract domain — no row is ever scanned.
//!
//! Every check is *conservative*: the engine proves implication and
//! unsatisfiability but never refutes them, so a finding is only emitted
//! on a positive proof. Absence of findings means "nothing provable",
//! not "nothing wrong". The one exception to "prove, never refute" is
//! A6, which compares two *exact* canonical abstract states — there a
//! mismatch is itself the proof of divergence.

use crate::report::{AnalysisReport, Check, Finding, Severity};
use crr_core::{AbsState, CompiledConjunction, Conjunction, Dnf, Op, RuleSet, TableFacts};
use crr_data::Table;
use crr_discovery::{guard_predicates, ProofObligations, RepairObligations};
use crr_obs::AnalysisCounters;
use std::sync::Arc;

/// One analysis pass: borrowed rule set, accumulated findings and work
/// counters, plus the per-rule "provably dead" mask A1 fills so later
/// checks skip rules that can never fire.
pub(crate) struct Pass<'a> {
    rules: &'a RuleSet,
    eps: f64,
    counters: AnalysisCounters,
    findings: Vec<Finding>,
    /// `dead[i]`: rule `i`'s whole condition is provably unsatisfiable.
    dead: Vec<bool>,
}

impl<'a> Pass<'a> {
    pub(crate) fn new(rules: &'a RuleSet, eps: f64) -> Self {
        Pass {
            rules,
            eps,
            counters: AnalysisCounters {
                rules: rules.len() as u64,
                conjuncts: rules.total_conjuncts() as u64,
                ..AnalysisCounters::default()
            },
            findings: Vec::new(),
            dead: vec![false; rules.len()],
        }
    }

    /// Counted front door to [`Conjunction::is_provably_unsat`].
    fn unsat(&mut self, c: &Conjunction) -> bool {
        self.counters.unsat_checks += 1;
        c.is_provably_unsat()
    }

    /// Counted front door to [`Dnf::implies`].
    fn dnf_implies(&mut self, a: &Dnf, b: &Dnf) -> bool {
        self.counters.implication_checks += 1;
        a.implies(b)
    }

    /// Counted front door to [`Conjunction::implies`].
    fn conj_implies(&mut self, a: &Conjunction, b: &Conjunction) -> bool {
        self.counters.implication_checks += 1;
        a.implies(b)
    }

    fn push(
        &mut self,
        check: Check,
        severity: Severity,
        rule: Option<usize>,
        shard: Option<usize>,
        message: String,
    ) {
        self.findings.push(Finding {
            check,
            severity,
            rule,
            shard,
            message,
        });
    }

    /// A1 — satisfiability: a rule whose whole DNF is provably
    /// unsatisfiable can never fire (redundant); a live rule with some
    /// provably-unsatisfiable conjunct carries a dead disjunct (hygiene).
    pub(crate) fn check_satisfiability(&mut self) {
        for i in 0..self.rules.len() {
            let conjs = self.rules.rules()[i].condition().conjuncts().to_vec();
            let dead_ix: Vec<usize> = conjs
                .iter()
                .enumerate()
                .filter(|(_, c)| self.unsat(c))
                .map(|(k, _)| k)
                .collect();
            if !conjs.is_empty() && dead_ix.len() == conjs.len() {
                self.dead[i] = true;
                self.push(
                    Check::Satisfiability,
                    Severity::Redundant,
                    Some(i),
                    None,
                    "condition is provably unsatisfiable; the rule can never fire".to_string(),
                );
            } else {
                for k in dead_ix {
                    self.push(
                        Check::Satisfiability,
                        Severity::Hygiene,
                        Some(i),
                        None,
                        format!("conjunct #{k} is provably unsatisfiable (dead disjunct)"),
                    );
                }
            }
        }
    }

    /// A2 — subsumption: rule `i` is redundant when another rule `j` on
    /// the same target provably covers everything `i` covers
    /// (`C_i ⊢ C_j`, Definition 2) with a no-worse bias (`ρ_j ≤ ρ_i`).
    ///
    /// **Tie-break determinism.** For mutually-implying rules with equal
    /// ρ only the higher *rule index* is flagged, so exactly one
    /// survivor — the lowest-indexed duplicate — always remains. The
    /// index is the rule's position in the analyzed set, which is its
    /// serialization order in a `crr-artifact` text; the tie-break never
    /// consults pointer identity, hash order or model addresses, so
    /// re-serializing an artifact and re-analyzing it yields
    /// byte-identical findings.
    pub(crate) fn check_subsumption(&mut self) {
        let n = self.rules.len();
        for i in 0..n {
            if self.dead[i] {
                continue;
            }
            for j in 0..n {
                if j == i || self.dead[j] {
                    continue;
                }
                let (ri, rj) = {
                    let rs = self.rules.rules();
                    if rs[i].target() != rs[j].target() {
                        continue;
                    }
                    (rs[i].rho(), rs[j].rho())
                };
                if rj > ri + self.eps {
                    continue;
                }
                let (ci, cj) = {
                    let rs = self.rules.rules();
                    (rs[i].condition().clone(), rs[j].condition().clone())
                };
                if !self.dnf_implies(&ci, &cj) {
                    continue;
                }
                // Equal-ρ mutual implication: keep the earlier rule. The
                // `j > i` comparison is on rule indices (serialization
                // order), so the survivor is stable across artifact
                // round-trips — see the tie-break note in the rustdoc.
                if (ri - rj).abs() <= self.eps && j > i && self.dnf_implies(&cj, &ci) {
                    continue;
                }
                self.push(
                    Check::Subsumption,
                    Severity::Redundant,
                    Some(i),
                    None,
                    format!(
                        "subsumed by rule {j}: condition implies rule {j}'s \
                         condition and ρ_{j} = {rj} ≤ ρ_{i} = {ri}"
                    ),
                );
                break; // one subsumption finding per rule
            }
        }
    }

    /// A3 — shard-guard partition soundness, against the run's
    /// [`ProofObligations`]:
    ///
    /// * *exactness* — each shard's recorded guard list equals the
    ///   canonical membership predicates for its bounds
    ///   ([`guard_predicates`]);
    /// * *disjointness* — conjoining two shards' guards is provably
    ///   unsatisfiable, pairwise;
    /// * *coverage* — some shard is unbounded below and some unbounded
    ///   above, the interval bounds form one contiguous half-open chain
    ///   (each shard's upper bound meets the next shard's lower bound —
    ///   both the equal-width and the quantile planner emit exactly this
    ///   shape, so a gap like `[.., 10) / [20, ..)` is a planner or
    ///   tamper bug the open-ends test alone cannot see), and a
    ///   `NOT NULL` guard only appears when a null-regime shard exists
    ///   (a plan legitimately omits the null shard when the instance has
    ///   no null keys, so a merely-absent null shard is not a finding);
    /// * *confinement* — with ≥ 2 shards, every conjunct of every rule
    ///   provably implies some shard's guard conjunction. A merged rule
    ///   whose conjunct is confined to no shard would answer for rows of
    ///   other shards — exactly the pre-fix null-shard bug where
    ///   null-key rules lost their `IS NULL` guard.
    ///
    /// The checks are construction-agnostic: quantile-derived boundaries
    /// and plans run on any number of shard threads discharge the
    /// identical obligations (the recorded [`ProofObligations::boundary`]
    /// is provenance, not a relaxation).
    pub(crate) fn check_guards(&mut self, ob: &ProofObligations) {
        self.counters.shards = ob.guards.len() as u64;
        // Exactness.
        for g in &ob.guards {
            let canonical = guard_predicates(&g.bounds);
            if g.guards != canonical {
                self.push(
                    Check::GuardSoundness,
                    Severity::Unsound,
                    None,
                    Some(g.shard_id),
                    format!(
                        "recorded guard list ({} predicate(s)) differs from the \
                         canonical membership predicates for its bounds \
                         ({} predicate(s))",
                        g.guards.len(),
                        canonical.len()
                    ),
                );
            }
        }
        // Pairwise disjointness.
        for a in 0..ob.guards.len() {
            for b in (a + 1)..ob.guards.len() {
                let mut preds = ob.guards[a].guards.clone();
                preds.extend(ob.guards[b].guards.iter().cloned());
                let merged = Conjunction::of(preds);
                if !self.unsat(&merged) {
                    let (sa, sb) = (ob.guards[a].shard_id, ob.guards[b].shard_id);
                    self.push(
                        Check::GuardSoundness,
                        Severity::Unsound,
                        None,
                        Some(sa),
                        format!("guards of shard {sa} and shard {sb} are not provably disjoint"),
                    );
                }
            }
        }
        // Coverage of the key domain.
        let interval: Vec<_> = ob.guards.iter().filter(|g| !g.bounds.null_keys).collect();
        if !interval.is_empty() {
            if !interval.iter().any(|g| g.bounds.lo.is_none()) {
                self.push(
                    Check::GuardSoundness,
                    Severity::Unsound,
                    None,
                    None,
                    "no shard is unbounded below: keys under the smallest bound are uncovered"
                        .to_string(),
                );
            }
            if !interval.iter().any(|g| g.bounds.hi.is_none()) {
                self.push(
                    Check::GuardSoundness,
                    Severity::Unsound,
                    None,
                    None,
                    "no shard is unbounded above: keys over the largest bound are uncovered"
                        .to_string(),
                );
            }
        }
        // Chain contiguity: sorted by lower bound, each interval's upper
        // bound must equal the next interval's lower bound. A gap leaves
        // keys between the bounds uncovered even when both open ends
        // exist and every pair is disjoint.
        if interval.len() >= 2 {
            let mut chain = interval.clone();
            chain.sort_by(|a, b| match (a.bounds.lo, b.bounds.lo) {
                (None, None) => std::cmp::Ordering::Equal,
                (None, Some(_)) => std::cmp::Ordering::Less,
                (Some(_), None) => std::cmp::Ordering::Greater,
                (Some(p), Some(q)) => p.total_cmp(&q),
            });
            for w in chain.windows(2) {
                let (a, b) = (w[0], w[1]);
                let meets = match (a.bounds.hi, b.bounds.lo) {
                    (Some(hi), Some(lo)) => hi == lo,
                    _ => false,
                };
                if !meets {
                    self.push(
                        Check::GuardSoundness,
                        Severity::Unsound,
                        None,
                        Some(b.shard_id),
                        format!(
                            "interval chain breaks between shard {} and shard {}: upper \
                             bound {:?} does not meet the next lower bound {:?}",
                            a.shard_id, b.shard_id, a.bounds.hi, b.bounds.lo
                        ),
                    );
                }
            }
        }
        let has_null_shard = ob.guards.iter().any(|g| g.bounds.null_keys);
        let excludes_null = ob
            .guards
            .iter()
            .any(|g| g.guards.iter().any(|p| p.op == Op::NotNull));
        if excludes_null && !has_null_shard {
            self.push(
                Check::GuardSoundness,
                Severity::Unsound,
                None,
                None,
                "a NOT NULL guard excludes null keys but no shard covers the null regime"
                    .to_string(),
            );
        }
        // Confinement of merged rules.
        if ob.guards.len() >= 2 {
            let guard_conjs: Vec<Conjunction> = ob
                .guards
                .iter()
                .map(|g| Conjunction::of(g.guards.clone()))
                .collect();
            for i in 0..self.rules.len() {
                if self.dead[i] {
                    continue;
                }
                let conjs = self.rules.rules()[i].condition().conjuncts().to_vec();
                for (k, conj) in conjs.iter().enumerate() {
                    // Confinement is a pure coverage question — which rows
                    // the conjunct matches — and `eval` ignores built-ins,
                    // so strip them before the implication test (which
                    // otherwise requires built-ins to agree, as rule-level
                    // Induction does). Compaction attaches translations to
                    // merged conjuncts; they shift the model application,
                    // not the shard membership.
                    let coverage = Conjunction::of(conj.preds().to_vec());
                    let confined = guard_conjs.iter().any(|g| self.conj_implies(&coverage, g));
                    if !confined {
                        self.push(
                            Check::GuardSoundness,
                            Severity::Unsound,
                            Some(i),
                            None,
                            format!(
                                "conjunct #{k} is not confined to any shard's guard; \
                                 its rows could leak across shard boundaries"
                            ),
                        );
                    }
                }
            }
        }
    }

    /// A4 — inference-rule audit: the artifacts the compaction inference
    /// rules produce must stay well-formed. A rule's ρ must be a finite
    /// non-negative bias; a built-in translation must have one input
    /// shift per rule input with finite components, or composing it per
    /// Proposition 9 is undefined; duplicate conjuncts or predicates are
    /// Fusion/refinement debris the dedup should have caught.
    pub(crate) fn check_inference(&mut self) {
        for i in 0..self.rules.len() {
            let (rho, arity, conjs) = {
                let r = &self.rules.rules()[i];
                (
                    r.rho(),
                    r.inputs().len(),
                    r.condition().conjuncts().to_vec(),
                )
            };
            if !rho.is_finite() || rho < 0.0 {
                self.push(
                    Check::InferenceAudit,
                    Severity::Unsound,
                    Some(i),
                    None,
                    format!("ρ = {rho} is not a finite non-negative bias bound"),
                );
            }
            for (k, conj) in conjs.iter().enumerate() {
                if let Some(t) = conj.builtin() {
                    if t.delta_x.len() != arity {
                        self.push(
                            Check::InferenceAudit,
                            Severity::Unsound,
                            Some(i),
                            None,
                            format!(
                                "conjunct #{k}: translation input shift has arity {} but \
                                 the rule has {arity} input(s) — Proposition 9 composition \
                                 is undefined",
                                t.delta_x.len()
                            ),
                        );
                    } else if !t.delta_y.is_finite() || t.delta_x.iter().any(|d| !d.is_finite()) {
                        self.push(
                            Check::InferenceAudit,
                            Severity::Unsound,
                            Some(i),
                            None,
                            format!("conjunct #{k}: translation shift has non-finite components"),
                        );
                    }
                }
                let preds = conj.preds();
                let mut dup = false;
                for a in 0..preds.len() {
                    for b in (a + 1)..preds.len() {
                        if preds[a] == preds[b] {
                            dup = true;
                        }
                    }
                }
                if dup {
                    self.push(
                        Check::InferenceAudit,
                        Severity::Hygiene,
                        Some(i),
                        None,
                        format!("conjunct #{k} repeats a predicate"),
                    );
                }
                // Distinct same-side interval bounds on one attribute:
                // the scan compiler folds them to the strictest bound at
                // compile time, so carrying both is refinement debt the
                // producer should have collapsed.
                let mut foldable = false;
                for a in 0..preds.len() {
                    for b in (a + 1)..preds.len() {
                        if preds[a] != preds[b]
                            && crr_core::compiled::folds_together(&preds[a], &preds[b])
                        {
                            foldable = true;
                        }
                    }
                }
                if foldable {
                    self.push(
                        Check::InferenceAudit,
                        Severity::Hygiene,
                        Some(i),
                        None,
                        format!(
                            "conjunct #{k} carries redundant same-side bounds on one \
                             attribute; the scan compiler folds them to the strictest"
                        ),
                    );
                }
            }
            for a in 0..conjs.len() {
                for b in (a + 1)..conjs.len() {
                    if conjs[a] == conjs[b] {
                        self.push(
                            Check::InferenceAudit,
                            Severity::Hygiene,
                            Some(i),
                            None,
                            format!("conjunct #{b} duplicates conjunct #{a} (Fusion dedup debt)"),
                        );
                    }
                }
            }
        }
    }

    /// A5 — ρ-monotonicity: when rule `i` shares rule `j`'s model and
    /// `C_i ⊢ C_j`, rule `j` already guarantees the shared model errs at
    /// most `ρ_j` everywhere rule `i` applies, so claiming `ρ_i > ρ_j`
    /// is internally inconsistent with what Fusion (which outputs
    /// `max(ρ_1, ρ_2)`) and Generalization preserve. Never unsound — a
    /// loose bound is still a bound — but worth flagging.
    pub(crate) fn check_rho_monotonicity(&mut self) {
        let n = self.rules.len();
        for i in 0..n {
            if self.dead[i] {
                continue;
            }
            for j in 0..n {
                if j == i || self.dead[j] {
                    continue;
                }
                let (shared, same_target, ri, rj) = {
                    let rs = self.rules.rules();
                    (
                        Arc::ptr_eq(rs[i].model(), rs[j].model()),
                        rs[i].target() == rs[j].target(),
                        rs[i].rho(),
                        rs[j].rho(),
                    )
                };
                if !shared || !same_target || ri <= rj + self.eps {
                    continue;
                }
                let (ci, cj) = {
                    let rs = self.rules.rules();
                    (rs[i].condition().clone(), rs[j].condition().clone())
                };
                if self.dnf_implies(&ci, &cj) {
                    self.push(
                        Check::RhoMonotonicity,
                        Severity::Hygiene,
                        Some(i),
                        None,
                        format!(
                            "shares rule {j}'s model and its condition implies rule {j}'s, \
                             yet claims ρ_{i} = {ri} > ρ_{j} = {rj}; the shared model is \
                             already bounded by {rj} here"
                        ),
                    );
                    break; // one monotonicity finding per rule
                }
            }
        }
    }

    /// A6 — compile equivalence: for every conjunct, the compiled scan
    /// kernels ([`CompiledConjunction`]) must be *symbolically* equal to
    /// the source predicates over the abstract domain
    /// ([`crr_core::absdom`]). Both sides start from the same ⊤ state
    /// derived from `table`'s column facts (kinds, nullability, string
    /// dictionaries); the source side applies each predicate's transfer
    /// function, the compiled side applies each kernel shape's, and the
    /// two canonical states must be equal. Divergence — a bad interval
    /// fold, a constant coerced during compilation, a NaN-lane mismatch,
    /// a string-LUT gap — is unsound: the served kernels answer for a
    /// different predicate than the artifact displays.
    ///
    /// Row-free: only `table`'s *facts* are consulted (an empty table of
    /// the artifact schema works — that is exactly what the swap gate
    /// passes). Conjuncts referencing attributes outside the schema are
    /// skipped; `check_refs` rejects those artifacts before analysis.
    pub(crate) fn check_compile_equivalence(&mut self, table: &Table) {
        let facts = TableFacts::of(table);
        for i in 0..self.rules.len() {
            let conjs = self.rules.rules()[i].condition().conjuncts().to_vec();
            for (k, conj) in conjs.iter().enumerate() {
                if conj.preds().iter().any(|p| p.attr.0 >= facts.len()) {
                    continue; // uncompilable against this schema
                }
                let mut src = AbsState::top(&facts);
                for p in conj.preds() {
                    src.assume(p, &facts);
                    self.counters.absdom_transfers += 1;
                }
                let compiled = CompiledConjunction::compile(conj, table);
                let mut cmp = AbsState::top(&facts);
                for shape in compiled.kernel_shapes() {
                    cmp.assume_shape(&shape);
                    self.counters.absdom_transfers += 1;
                }
                self.counters.compile_equiv_checks += 1;
                if src != cmp {
                    self.push(
                        Check::CompileEquivalence,
                        Severity::Unsound,
                        Some(i),
                        None,
                        format!(
                            "conjunct #{k}: compiled kernels diverge from the source \
                             predicates over the abstract domain ({})",
                            src.divergence(&cmp)
                        ),
                    );
                }
            }
        }
    }

    /// A7 — repair-obligation audit, against the [`RepairObligations`] a
    /// proof-carrying stream repair bundles:
    ///
    /// * *kept prefix* — the kept-rule count must not exceed the rule
    ///   count (the splice layout is `kept` untouched rules followed by
    ///   the repaired ones);
    /// * *region identity* — region ids must be dense and in order, so
    ///   the artifact's region list is the repair's, not a truncation;
    /// * *under-claim* — a region whose guard conjunction is provably
    ///   unsatisfiable claims an empty region: rows that drifted are
    ///   then attributed to no region at all;
    /// * *over-claim* — every conjunct of every repaired rule (index ≥
    ///   `kept`) must provably imply some region's guard conjunction;
    ///   a repaired rule reaching outside every affected region would
    ///   overwrite healthy coverage the repair had no license to touch.
    ///
    /// A guard-free region (an uncovered-append region with no bounding
    /// box) makes confinement vacuous for the rules it absorbs; that is
    /// flagged as hygiene, not unsoundness — the repair still tells the
    /// auditor it claimed everything.
    pub(crate) fn check_repair(&mut self, ob: &RepairObligations) {
        self.counters.repair_regions = ob.regions.len() as u64;
        let n = self.rules.len();
        if ob.kept > n {
            self.push(
                Check::RepairObligations,
                Severity::Unsound,
                None,
                None,
                format!(
                    "repair claims {} kept rule(s) but the artifact has only {n}; \
                     the splice layout cannot be audited",
                    ob.kept
                ),
            );
            return;
        }
        let mut guard_conjs: Vec<Conjunction> = Vec::with_capacity(ob.regions.len());
        for (k, region) in ob.regions.iter().enumerate() {
            if region.region_id != k {
                self.push(
                    Check::RepairObligations,
                    Severity::Unsound,
                    None,
                    None,
                    format!(
                        "region ids are not dense: position {k} carries id {}",
                        region.region_id
                    ),
                );
            }
            if region.guards.is_empty() {
                self.push(
                    Check::RepairObligations,
                    Severity::Hygiene,
                    None,
                    None,
                    format!("region {k} carries no guard predicates; confinement is vacuous"),
                );
                guard_conjs.push(Conjunction::top());
            } else {
                let g = Conjunction::of(region.guards.clone());
                if self.unsat(&g) {
                    self.push(
                        Check::RepairObligations,
                        Severity::Unsound,
                        None,
                        None,
                        format!(
                            "region {k}'s guard is provably unsatisfiable; the repair \
                             under-claims its affected rows"
                        ),
                    );
                }
                guard_conjs.push(g);
            }
        }
        for i in ob.kept..n {
            if self.dead[i] {
                continue;
            }
            let conjs = self.rules.rules()[i].condition().conjuncts().to_vec();
            for (k, conj) in conjs.iter().enumerate() {
                // Coverage question, built-ins stripped — same rationale
                // as A3 confinement.
                let coverage = Conjunction::of(conj.preds().to_vec());
                let confined = guard_conjs.iter().any(|g| self.conj_implies(&coverage, g));
                if !confined {
                    self.push(
                        Check::RepairObligations,
                        Severity::Unsound,
                        Some(i),
                        None,
                        format!(
                            "repaired conjunct #{k} is not confined to any repair \
                             region's guard; the splice over-claims rows outside \
                             the affected regions"
                        ),
                    );
                }
            }
        }
    }

    /// Freezes the pass into a ranked [`AnalysisReport`].
    pub(crate) fn into_report(self, shards: usize) -> AnalysisReport {
        let mut report = AnalysisReport {
            rules: self.rules.len(),
            conjuncts: self.rules.total_conjuncts(),
            shards,
            findings: self.findings,
            counters: self.counters,
        };
        report.finalize();
        report
    }
}
