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
use crr_core::compiled::folds_together;
use crr_core::{
    AbsState, CompiledConjunction, ConjFacts, Conjunction, Op, Predicate, RuleSet, TableFacts,
};
use crr_data::{Table, Value};
use crr_discovery::{guard_predicates, ProofObligations, RepairObligations};
use crr_obs::AnalysisCounters;
use std::cmp::Ordering;
use std::sync::Arc;

/// Tolerance for ρ comparisons (subsumption's `ρ_j ≤ ρ_i`, monotonicity's
/// `ρ_i ≤ ρ_j`), absorbing serialization round-trips.
const EPS: f64 = 1e-9;

/// One analysis pass: borrowed rule set, the implication facts of every
/// conjunct, accumulated findings and work counters, plus the per-rule
/// "provably dead" mask A1 fills so later checks skip rules that can
/// never fire.
pub(crate) struct Pass<'a> {
    rules: &'a RuleSet,
    /// `facts[i][k]`: conjunct `k` of rule `i`, summarized once per pass
    /// so each implication test of A1–A3, A5 and A7 allocates nothing.
    facts: Vec<Vec<ConjFacts<'a>>>,
    counters: AnalysisCounters,
    findings: Vec<Finding>,
    /// `dead[i]`: rule `i`'s whole condition is provably unsatisfiable.
    dead: Vec<bool>,
}

impl<'a> Pass<'a> {
    pub(crate) fn new(rules: &'a RuleSet) -> Self {
        Pass {
            rules,
            facts: rules
                .rules()
                .iter()
                .map(|r| {
                    r.condition()
                        .conjuncts()
                        .iter()
                        .map(ConjFacts::new)
                        .collect()
                })
                .collect(),
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

    /// Counted Definition 2 test `C_i ⊢ C_j` between rules `i` and `j`
    /// ([`crr_core::Dnf::implies`], through the per-conjunct facts).
    fn rule_implies(&mut self, i: usize, j: usize) -> bool {
        self.counters.implication_checks += 1;
        let cj = self.rules.rules()[j].condition().conjuncts();
        self.facts[i]
            .iter()
            .all(|f| cj.iter().any(|c| f.implies(c)))
    }

    /// Counted confinement test: does conjunct `k` of rule `i` provably
    /// imply some guard list? One implication check per guard tried.
    /// Built-ins are ignored: confinement is a pure coverage question —
    /// which rows the conjunct matches — and compaction attaches
    /// translations to merged conjuncts that shift the model
    /// application, not the rows.
    fn confined(&mut self, i: usize, k: usize, guards: &[&[Predicate]]) -> bool {
        let f = &self.facts[i][k];
        let mut tests = 0;
        let hit = guards.iter().any(|g| {
            tests += 1;
            f.implies_preds(g)
        });
        self.counters.implication_checks += tests;
        hit
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
            let conjs = &self.facts[i];
            self.counters.unsat_checks += conjs.len() as u64;
            let dead_ix: Vec<usize> = (0..conjs.len())
                .filter(|&k| conjs[k].is_provably_unsat())
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
                if rj > ri + EPS || !self.rule_implies(i, j) {
                    continue;
                }
                // Equal-ρ mutual implication: keep the earlier rule. The
                // `j > i` comparison is on rule indices (serialization
                // order), so the survivor is stable across artifact
                // round-trips — see the tie-break note in the rustdoc.
                if (ri - rj).abs() <= EPS && j > i && self.rule_implies(j, i) {
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
            let guards: Vec<&[Predicate]> = ob.guards.iter().map(|g| g.guards.as_slice()).collect();
            for i in 0..self.rules.len() {
                if self.dead[i] {
                    continue;
                }
                for k in 0..self.facts[i].len() {
                    if !self.confined(i, k, &guards) {
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
        let rules = self.rules;
        for (i, r) in rules.rules().iter().enumerate() {
            let (rho, arity, conjs) = (r.rho(), r.inputs().len(), r.condition().conjuncts());
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
                let (dup, foldable) = predicate_debt(conj.preds());
                if dup {
                    self.push(
                        Check::InferenceAudit,
                        Severity::Hygiene,
                        Some(i),
                        None,
                        format!("conjunct #{k} repeats a predicate"),
                    );
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
                if !shared || !same_target || ri <= rj + EPS {
                    continue;
                }
                if self.rule_implies(i, j) {
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
        let rules = self.rules;
        for (i, r) in rules.rules().iter().enumerate() {
            for (k, conj) in r.condition().conjuncts().iter().enumerate() {
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
    /// A guard-free region (a drifted `top` conjunct) makes confinement
    /// vacuous for the rules it absorbs; that is flagged as hygiene, not
    /// unsoundness — the repair still tells the auditor it claimed
    /// everything.
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
        let mut guards: Vec<&[Predicate]> = Vec::with_capacity(ob.regions.len());
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
            }
            guards.push(&region.guards);
        }
        for i in ob.kept..n {
            if self.dead[i] {
                continue;
            }
            for k in 0..self.facts[i].len() {
                if !self.confined(i, k, &guards) {
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

/// A4's per-conjunct predicate debt: (repeats a predicate, carries
/// distinct same-side interval bounds on one attribute). The scan
/// compiler folds such bounds to the strictest at compile time
/// ([`folds_together`]), so carrying both is refinement debt the
/// producer should have collapsed.
///
/// One sort replaces the all-pairs scan: ordered by [`debt_order`], equal
/// predicates form adjacent runs, and so do the numeric bounds of one
/// attribute and side, so both questions are answered on adjacent pairs.
fn predicate_debt(preds: &[Predicate]) -> (bool, bool) {
    let mut sorted: Vec<&Predicate> = preds.iter().collect();
    sorted.sort_unstable_by(|a, b| debt_order(a, b));
    let (mut dup, mut foldable) = (false, false);
    for w in sorted.windows(2) {
        if w[0] == w[1] {
            dup = true;
        } else if folds_together(w[0], w[1]) {
            foldable = true;
        }
    }
    (dup, foldable)
}

/// The order [`predicate_debt`] sorts by: attribute, constant kind,
/// operator, constant. Equal predicates compare equal, and the numeric
/// bounds of one attribute and side sort together. `Value` equality is
/// numeric across `Int` and `Float`, so both kinds key on the `f64`
/// value, with `-0.0` equal to `0.0`.
fn debt_order(a: &Predicate, b: &Predicate) -> Ordering {
    /// Each bound side takes two adjacent ranks.
    fn rank(op: Op) -> u8 {
        match op {
            Op::Lt => 0,
            Op::Le => 1,
            Op::Gt => 2,
            Op::Ge => 3,
            Op::Eq => 4,
            Op::Ne => 5,
            Op::IsNull => 6,
            Op::NotNull => 7,
        }
    }
    /// Kind rank, then the numeric key (`+ 0.0` maps `-0.0` to `0.0`).
    fn kind(v: &Value) -> (u8, f64) {
        match v.as_f64() {
            Some(x) if !x.is_nan() => (0, x + 0.0),
            Some(_) => (1, 0.0),
            None if v.is_null() => (2, 0.0),
            None => (3, 0.0),
        }
    }
    let ((ka, xa), (kb, xb)) = (kind(&a.value), kind(&b.value));
    a.attr
        .cmp(&b.attr)
        .then(ka.cmp(&kb))
        .then(rank(a.op).cmp(&rank(b.op)))
        .then(xa.total_cmp(&xb))
        .then_with(|| a.value.as_str().cmp(&b.value.as_str()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crr_data::AttrId;

    /// The all-pairs scans [`predicate_debt`] replaced, kept as its oracle.
    fn debt_oracle(preds: &[Predicate]) -> (bool, bool) {
        let (mut dup, mut foldable) = (false, false);
        for a in 0..preds.len() {
            for b in (a + 1)..preds.len() {
                if preds[a] == preds[b] {
                    dup = true;
                }
                if preds[a] != preds[b] && folds_together(&preds[a], &preds[b]) {
                    foldable = true;
                }
            }
        }
        (dup, foldable)
    }

    /// SplitMix64, so the generated lists depend on the seed alone.
    struct SplitMix(u64);

    impl SplitMix {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    #[test]
    fn predicate_debt_matches_the_pairwise_oracle() {
        // Int and Float of one value, both zeros, strings, a null
        // comparison constant and a NaN float.
        let values = [
            Value::Int(5),
            Value::Float(5.0),
            Value::Int(0),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Int(-2),
            Value::Float(2.5),
            Value::str("a"),
            Value::str("b"),
            Value::Null,
            Value::Float(f64::NAN),
        ];
        let ops = [Op::Eq, Op::Ne, Op::Lt, Op::Le, Op::Gt, Op::Ge];
        let mut rng = SplitMix(0xA4_5EED);
        let mut seen = [[0usize; 2]; 2];
        for _ in 0..20_000 {
            let preds: Vec<Predicate> = (0..rng.below(8))
                .map(|_| {
                    let attr = AttrId(rng.below(2));
                    match rng.below(8) {
                        0 => Predicate::is_null(attr),
                        1 => Predicate::not_null(attr),
                        _ => Predicate::new(
                            attr,
                            ops[rng.below(ops.len())],
                            values[rng.below(values.len())].clone(),
                        ),
                    }
                })
                .collect();
            let (dup, foldable) = debt_oracle(&preds);
            assert_eq!(predicate_debt(&preds), (dup, foldable), "{preds:?}");
            seen[dup as usize][foldable as usize] += 1;
        }
        assert!(seen.iter().flatten().all(|&n| n > 200), "{seen:?}");
    }

    #[test]
    fn predicate_debt_keys_values_as_value_equality_does() {
        let x = AttrId(0);
        let cases = [
            // x < 5 and x < 5.0 are one predicate, even apart.
            (
                vec![
                    Predicate::lt(x, Value::Int(5)),
                    Predicate::le(x, Value::Int(3)),
                    Predicate::lt(x, Value::Float(5.0)),
                ],
                (true, true),
            ),
            (
                vec![
                    Predicate::eq(x, Value::Float(0.0)),
                    Predicate::eq(x, Value::Float(-0.0)),
                ],
                (true, false),
            ),
            // String bounds never fold.
            (
                vec![
                    Predicate::lt(x, Value::str("a")),
                    Predicate::lt(x, Value::str("b")),
                ],
                (false, false),
            ),
            // Null constants and null tests repeat like any predicate.
            (
                vec![
                    Predicate::is_null(x),
                    Predicate::lt(x, Value::Null),
                    Predicate::is_null(x),
                ],
                (true, false),
            ),
        ];
        for (preds, expected) in cases {
            assert_eq!(debt_oracle(&preds), expected, "{preds:?}");
            assert_eq!(predicate_debt(&preds), expected, "{preds:?}");
        }
    }
}
