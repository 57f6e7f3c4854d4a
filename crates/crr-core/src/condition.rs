use crate::{Op, Predicate};
use crr_data::{AttrId, RowSet, Schema, Table, Value};
use crr_models::Translation;
use std::cmp::Ordering;
use std::fmt;

/// A conjunction `C = p₁ ∧ … ∧ pₖ` of predicates, optionally carrying the
/// built-in predicates `x = Δ ∧ y = δ` (paper §III-A2/A3).
///
/// The built-in part does not constrain tuples — the paper assumes "t is
/// satisfied by any built-in predicates" — it parametrizes *how the model is
/// applied* to tuples matched by this conjunction: the prediction is
/// `f(t.X + Δ) + δ`. `None` means the default identity `x = 0 ∧ y = 0`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Conjunction {
    preds: Vec<Predicate>,
    builtin: Option<Translation>,
}

impl Conjunction {
    /// The empty conjunction `⊤` (the most general condition, `C = ∅` in
    /// Algorithm 1 line 3).
    pub fn top() -> Self {
        Conjunction::default()
    }

    /// A conjunction of the given predicates with the default built-ins.
    pub fn of(preds: Vec<Predicate>) -> Self {
        Conjunction {
            preds,
            builtin: None,
        }
    }

    /// A conjunction with explicit built-in predicates.
    pub fn with_builtin(preds: Vec<Predicate>, builtin: Translation) -> Self {
        Conjunction {
            preds,
            builtin: Some(builtin),
        }
    }

    /// The predicates of this conjunction.
    pub fn preds(&self) -> &[Predicate] {
        &self.preds
    }

    /// The built-in predicates, if non-default.
    pub fn builtin(&self) -> Option<&Translation> {
        self.builtin.as_ref()
    }

    /// Replaces the built-in predicates.
    pub fn set_builtin(&mut self, t: Translation) {
        self.builtin = if t.is_identity() { None } else { Some(t) };
    }

    /// Composes a further translation onto the built-ins (Proposition 9:
    /// `x = Δ' + Δ, y = δ' + δ`). `arity` is the rule's `|X|`, needed when
    /// the current built-in is the default identity.
    pub fn compose_builtin(&mut self, t: &Translation, arity: usize) {
        let cur = self
            .builtin
            .take()
            .unwrap_or_else(|| Translation::identity(arity));
        self.set_builtin(cur.compose(t));
    }

    /// Refines the conjunction with one more predicate (`C ∧ p`).
    pub fn and(&self, p: Predicate) -> Conjunction {
        let mut c = self.clone();
        c.preds.push(p);
        c
    }

    /// Whether tuple `row` satisfies every predicate (`t ⊨ C`).
    pub fn eval(&self, table: &Table, row: usize) -> bool {
        self.preds.iter().all(|p| p.eval(table, row))
    }

    /// Filters `rows` down to the tuples satisfying this conjunction
    /// (`D_C`).
    pub fn select(&self, table: &Table, rows: &RowSet) -> RowSet {
        rows.filter(|r| self.eval(table, r))
    }

    /// The set of attributes mentioned by the data predicates.
    pub fn attrs(&self) -> Vec<AttrId> {
        let mut a: Vec<AttrId> = self.preds.iter().map(|p| p.attr).collect();
        a.sort_unstable();
        a.dedup();
        a
    }

    /// Conjunction implication `self ⊢ other`: every tuple satisfying
    /// `self` satisfies `other` (the predicate-calculus refinement of \[7\]).
    ///
    /// Sound but not complete: it reasons per attribute over the interval /
    /// equality / disequality summary implied by `self`, returning `false`
    /// when it cannot *prove* implication. Built-in predicates must agree
    /// (treating `None` as the identity), because CRR-level Induction
    /// replaces a condition while keeping the model application fixed.
    /// Testing one antecedent against many consequents? Build its
    /// [`ConjFacts`] once instead.
    pub fn implies(&self, other: &Conjunction) -> bool {
        ConjFacts::new(self).implies(other)
    }

    /// Whether this conjunction is provably unsatisfiable (empty interval
    /// or an equality outside the allowed range). Conservative: `false`
    /// means "unknown".
    pub fn is_provably_unsat(&self) -> bool {
        ConjFacts::new(self).is_provably_unsat()
    }

    /// Renders the conjunction with attribute names.
    pub fn display<'a>(&'a self, schema: &'a Schema) -> impl fmt::Display + 'a {
        struct D<'a>(&'a Conjunction, &'a Schema);
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                if self.0.preds.is_empty() && self.0.builtin.is_none() {
                    return write!(f, "true");
                }
                let mut first = true;
                for p in &self.0.preds {
                    if !first {
                        write!(f, " && ")?;
                    }
                    first = false;
                    write!(f, "{}", p.display(self.1))?;
                }
                if let Some(b) = &self.0.builtin {
                    if !first {
                        write!(f, " && ")?;
                    }
                    write!(f, "x={:?} && y={}", b.delta_x, b.delta_y)?;
                }
                Ok(())
            }
        }
        D(self, schema)
    }
}

/// Built-in equality where `None` stands for the identity translation.
fn builtin_eq(a: Option<&Translation>, b: Option<&Translation>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(t), None) | (None, Some(t)) => t.is_identity(),
        (Some(x), Some(y)) => x == y,
    }
}

/// A conjunction's implication facts, built once and reused: one
/// [`AttrSummary`] per mentioned attribute plus the provably-unsat flag.
///
/// [`Conjunction::implies`] and [`Conjunction::is_provably_unsat`] build
/// these per call; a caller testing one antecedent against many
/// consequents (the static verifier's rule pairs) builds them once, and
/// each test then allocates nothing.
#[derive(Debug, Clone)]
pub struct ConjFacts<'a> {
    conj: &'a Conjunction,
    attrs: Vec<(AttrId, AttrSummary)>,
    unsat: bool,
}

impl<'a> ConjFacts<'a> {
    /// Summarizes `conj`, one pass over its predicates.
    pub fn new(conj: &'a Conjunction) -> Self {
        let mut attrs: Vec<(AttrId, AttrSummary)> = Vec::new();
        for p in conj.preds() {
            match attrs.iter_mut().find(|(a, _)| *a == p.attr) {
                Some((_, s)) => s.assume(p),
                None => {
                    let mut s = AttrSummary::default();
                    s.assume(p);
                    attrs.push((p.attr, s));
                }
            }
        }
        let unsat = attrs.iter().any(|(_, s)| s.is_unsat());
        ConjFacts { conj, attrs, unsat }
    }

    /// Whether the conjunction is provably unsatisfiable (see
    /// [`Conjunction::is_provably_unsat`]).
    pub fn is_provably_unsat(&self) -> bool {
        self.unsat
    }

    /// `conj ⊢ other`, exactly [`Conjunction::implies`]: built-ins must
    /// agree, then every predicate of `other` must be proven.
    pub fn implies(&self, other: &Conjunction) -> bool {
        builtin_eq(self.conj.builtin(), other.builtin()) && self.implies_preds(other.preds())
    }

    /// Whether the conjunction's predicates prove every one of `preds` —
    /// a pure coverage question that ignores built-ins on both sides
    /// (they shift the model application, not the rows matched).
    pub fn implies_preds(&self, preds: &[Predicate]) -> bool {
        // Refinement chains append their narrowest predicates last, so a
        // failing consequent usually fails on its tail.
        self.unsat || preds.iter().rev().all(|p| self.implies_pred(p))
    }

    /// Whether the (satisfiable) conjunction proves `p`: by its summary
    /// of `p.attr`, or else by syntactic containment, which still proves
    /// what a summary cannot (`Value::Null` constants, mixed kinds).
    fn implies_pred(&self, p: &Predicate) -> bool {
        let Some((_, s)) = self.attrs.iter().find(|(a, _)| *a == p.attr) else {
            return false; // no predicate on p.attr: neither can prove it
        };
        s.implies_satisfiable(p.op, &p.value) || self.conj.preds().contains(p)
    }
}

/// One bound of an interval: the constant plus whether it is exclusive.
#[derive(Debug, Clone)]
pub struct Bound {
    value: Value,
    strict: bool,
}

impl Bound {
    /// The bounding constant.
    pub fn value(&self) -> &Value {
        &self.value
    }

    /// Whether the bound is exclusive.
    pub fn strict(&self) -> bool {
        self.strict
    }
}

/// Per-attribute summary of a conjunction's constraints: implied interval,
/// pinned equality and excluded values. The basis of the implication check,
/// exposed for static analyzers (`crr-analyze`) that reason about conditions
/// without scanning rows.
#[derive(Debug, Clone, Default)]
pub struct AttrSummary {
    lo: Option<Bound>,
    hi: Option<Bound>,
    eq: Option<Value>,
    ne: Vec<Value>,
    /// An `A IS NULL` predicate is present.
    is_null: bool,
    /// An `A IS NOT NULL` predicate is present.
    not_null: bool,
    /// Constraints mixed incomparable value kinds; give up (prove nothing).
    incomparable: bool,
}

impl AttrSummary {
    /// Summarizes every predicate of `c` that mentions `attr`.
    pub fn from_conjunction(c: &Conjunction, attr: AttrId) -> AttrSummary {
        let mut s = AttrSummary::default();
        for p in c.preds().iter().filter(|p| p.attr == attr) {
            s.assume(p);
        }
        s
    }

    /// Folds one more predicate on this summary's attribute in.
    fn assume(&mut self, p: &Predicate) {
        match p.op {
            Op::Eq => match &self.eq {
                None => self.eq = Some(p.value.clone()),
                Some(v) if v == &p.value => {}
                // Two different pinned values: unsatisfiable. Model it
                // as an empty interval.
                Some(_) => {
                    self.lo = Some(Bound {
                        value: Value::Int(1),
                        strict: true,
                    });
                    self.hi = Some(Bound {
                        value: Value::Int(0),
                        strict: true,
                    });
                }
            },
            Op::Ne => self.ne.push(p.value.clone()),
            Op::Gt => self.raise_lo(p.value.clone(), true),
            Op::Ge => self.raise_lo(p.value.clone(), false),
            Op::Lt => self.lower_hi(p.value.clone(), true),
            Op::Le => self.lower_hi(p.value.clone(), false),
            Op::IsNull => self.is_null = true,
            Op::NotNull => self.not_null = true,
        }
    }

    fn raise_lo(&mut self, v: Value, strict: bool) {
        match &self.lo {
            None => self.lo = Some(Bound { value: v, strict }),
            Some(b) => match b.value.partial_cmp_sem(&v) {
                Some(Ordering::Less) => self.lo = Some(Bound { value: v, strict }),
                Some(Ordering::Equal) => {
                    if strict {
                        self.lo = Some(Bound {
                            value: v,
                            strict: true,
                        });
                    }
                }
                Some(Ordering::Greater) => {}
                None => self.incomparable = true,
            },
        }
    }

    fn lower_hi(&mut self, v: Value, strict: bool) {
        match &self.hi {
            None => self.hi = Some(Bound { value: v, strict }),
            Some(b) => match b.value.partial_cmp_sem(&v) {
                Some(Ordering::Greater) => self.hi = Some(Bound { value: v, strict }),
                Some(Ordering::Equal) => {
                    if strict {
                        self.hi = Some(Bound {
                            value: v,
                            strict: true,
                        });
                    }
                }
                Some(Ordering::Less) => {}
                None => self.incomparable = true,
            },
        }
    }

    /// The implied lower bound, if any.
    pub fn lo(&self) -> Option<&Bound> {
        self.lo.as_ref()
    }

    /// The implied upper bound, if any.
    pub fn hi(&self) -> Option<&Bound> {
        self.hi.as_ref()
    }

    /// The pinned equality value, if any.
    pub fn eq(&self) -> Option<&Value> {
        self.eq.as_ref()
    }

    /// Explicitly excluded values.
    pub fn ne(&self) -> &[Value] {
        &self.ne
    }

    /// Whether an `A IS NULL` predicate is present.
    pub fn is_null(&self) -> bool {
        self.is_null
    }

    /// Whether an `A IS NOT NULL` predicate is present.
    pub fn not_null(&self) -> bool {
        self.not_null
    }

    /// Whether constraints mixed incomparable value kinds (nothing can be
    /// proven from this summary).
    pub fn incomparable(&self) -> bool {
        self.incomparable
    }

    /// Any comparison predicate is present (each requires a non-null cell).
    pub fn has_comparison(&self) -> bool {
        self.eq.is_some() || self.lo.is_some() || self.hi.is_some() || !self.ne.is_empty()
    }

    /// Provably empty: `lo > hi`, touching strict bounds, a pinned value
    /// outside the interval / in the excluded set, or `IS NULL` conjoined
    /// with anything a null cell cannot satisfy.
    pub fn is_unsat(&self) -> bool {
        // Null cells satisfy no comparison, so IS NULL conflicts with every
        // comparison predicate as well as with IS NOT NULL. Checked before
        // the incomparable bail-out: nullness is kind-independent.
        if self.is_null && (self.not_null || self.has_comparison()) {
            return true;
        }
        if self.incomparable {
            return false;
        }
        if let (Some(lo), Some(hi)) = (&self.lo, &self.hi) {
            match lo.value.partial_cmp_sem(&hi.value) {
                Some(Ordering::Greater) => return true,
                Some(Ordering::Equal) if lo.strict || hi.strict => return true,
                _ => {}
            }
        }
        if let Some(v) = &self.eq {
            if self.ne.iter().any(|n| n == v) {
                return true;
            }
            if let Some(lo) = &self.lo {
                match v.partial_cmp_sem(&lo.value) {
                    Some(Ordering::Less) => return true,
                    Some(Ordering::Equal) if lo.strict => return true,
                    _ => {}
                }
            }
            if let Some(hi) = &self.hi {
                match v.partial_cmp_sem(&hi.value) {
                    Some(Ordering::Greater) => return true,
                    Some(Ordering::Equal) if hi.strict => return true,
                    _ => {}
                }
            }
        }
        false
    }

    /// Does this summary prove `A op c`? Conservative: `false` = unknown.
    pub fn implies(&self, op: Op, c: &Value) -> bool {
        self.is_unsat() || self.implies_satisfiable(op, c)
    }

    /// [`AttrSummary::implies`] for a summary already known satisfiable.
    fn implies_satisfiable(&self, op: Op, c: &Value) -> bool {
        // Null tests are decided on the null flags and the presence of any
        // comparison (which forces non-null); kind mixing is irrelevant.
        match op {
            Op::IsNull => return self.is_null,
            Op::NotNull => return self.not_null || self.has_comparison(),
            _ => {}
        }
        if self.incomparable {
            return false;
        }
        // A pinned equality answers every operator directly.
        if let Some(v) = &self.eq {
            return match v.partial_cmp_sem(c) {
                Some(ord) => op.eval(ord),
                None => false,
            };
        }
        match op {
            // Without a pinned value, an interval proves `=` only when it
            // is a single closed point equal to c.
            Op::Eq => match (&self.lo, &self.hi) {
                (Some(lo), Some(hi)) => {
                    !lo.strict && !hi.strict && lo.value == *c && hi.value == *c
                }
                _ => false,
            },
            Op::Ne => {
                // c excluded explicitly, or outside the interval.
                if self.ne.iter().any(|n| n == c) {
                    return true;
                }
                if let Some(lo) = &self.lo {
                    match c.partial_cmp_sem(&lo.value) {
                        Some(Ordering::Less) => return true,
                        Some(Ordering::Equal) if lo.strict => return true,
                        _ => {}
                    }
                }
                if let Some(hi) = &self.hi {
                    match c.partial_cmp_sem(&hi.value) {
                        Some(Ordering::Greater) => return true,
                        Some(Ordering::Equal) if hi.strict => return true,
                        _ => {}
                    }
                }
                false
            }
            Op::Le => self.hi.as_ref().is_some_and(|hi| {
                matches!(
                    hi.value.partial_cmp_sem(c),
                    Some(Ordering::Less) | Some(Ordering::Equal)
                )
            }),
            Op::Lt => self
                .hi
                .as_ref()
                .is_some_and(|hi| match hi.value.partial_cmp_sem(c) {
                    Some(Ordering::Less) => true,
                    Some(Ordering::Equal) => hi.strict,
                    _ => false,
                }),
            Op::Ge => self.lo.as_ref().is_some_and(|lo| {
                matches!(
                    lo.value.partial_cmp_sem(c),
                    Some(Ordering::Greater) | Some(Ordering::Equal)
                )
            }),
            Op::Gt => self
                .lo
                .as_ref()
                .is_some_and(|lo| match lo.value.partial_cmp_sem(c) {
                    Some(Ordering::Greater) => true,
                    Some(Ordering::Equal) => lo.strict,
                    _ => false,
                }),
            Op::IsNull | Op::NotNull => unreachable!("null tests handled above"),
        }
    }
}

/// A condition in disjunctive normal form `ℂ = C₁ ∨ … ∨ Cₙ`
/// (paper §III-A2).
///
/// A tuple satisfies the DNF when it satisfies at least one conjunction.
/// Note the edge cases: a DNF containing one empty conjunction is `⊤`
/// (the most general condition), while a DNF with *no* conjunctions is `⊥`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Dnf {
    conjuncts: Vec<Conjunction>,
}

impl Dnf {
    /// The always-true condition (one empty conjunction).
    pub fn tautology() -> Self {
        Dnf {
            conjuncts: vec![Conjunction::top()],
        }
    }

    /// A DNF of a single conjunction.
    pub fn single(c: Conjunction) -> Self {
        Dnf { conjuncts: vec![c] }
    }

    /// A DNF from several conjunctions.
    pub fn of(conjuncts: Vec<Conjunction>) -> Self {
        Dnf { conjuncts }
    }

    /// The conjunctions.
    pub fn conjuncts(&self) -> &[Conjunction] {
        &self.conjuncts
    }

    /// Mutable access for compaction (built-in rewriting).
    pub fn conjuncts_mut(&mut self) -> &mut Vec<Conjunction> {
        &mut self.conjuncts
    }

    /// `ℂ₁ ∨ ℂ₂` — the condition produced by Fusion (Proposition 3).
    pub fn or(&self, other: &Dnf) -> Dnf {
        let mut conjuncts = self.conjuncts.clone();
        for c in &other.conjuncts {
            if !conjuncts.contains(c) {
                conjuncts.push(c.clone());
            }
        }
        Dnf { conjuncts }
    }

    /// `t ⊨ ℂ`: some conjunction is satisfied.
    pub fn eval(&self, table: &Table, row: usize) -> bool {
        self.conjuncts.iter().any(|c| c.eval(table, row))
    }

    /// The satisfied conjunction a prediction should use (the first match,
    /// matching the discovery order).
    pub fn matching_conjunct(&self, table: &Table, row: usize) -> Option<&Conjunction> {
        self.conjuncts.iter().find(|c| c.eval(table, row))
    }

    /// Filters `rows` down to `I_ℂ`.
    pub fn select(&self, table: &Table, rows: &RowSet) -> RowSet {
        rows.filter(|r| self.eval(table, r))
    }

    /// DNF implication (Definition 2): `self ⊢ other` iff every conjunction
    /// of `self` implies some conjunction of `other`.
    pub fn implies(&self, other: &Dnf) -> bool {
        self.conjuncts.iter().all(|c1| {
            let facts = ConjFacts::new(c1);
            other.conjuncts.iter().any(|c2| facts.implies(c2))
        })
    }

    /// All attributes mentioned by any conjunct.
    pub fn attrs(&self) -> Vec<AttrId> {
        let mut a: Vec<AttrId> = self.conjuncts.iter().flat_map(|c| c.attrs()).collect();
        a.sort_unstable();
        a.dedup();
        a
    }

    /// Renders the DNF with attribute names.
    pub fn display<'a>(&'a self, schema: &'a Schema) -> impl fmt::Display + 'a {
        struct D<'a>(&'a Dnf, &'a Schema);
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                if self.0.conjuncts.is_empty() {
                    return write!(f, "false");
                }
                for (i, c) in self.0.conjuncts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " || ")?;
                    }
                    write!(f, "({})", c.display(self.1))?;
                }
                Ok(())
            }
        }
        D(self, schema)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crr_data::{AttrType, Schema};

    fn schema() -> Schema {
        Schema::new(vec![("date", AttrType::Int), ("bird", AttrType::Str)])
    }

    fn table() -> Table {
        let mut t = Table::new(schema());
        for (d, b) in [(100, "maria"), (200, "maria"), (300, "raivo")] {
            t.push_row(vec![Value::Int(d), Value::str(b)]).unwrap();
        }
        t
    }

    fn date() -> AttrId {
        AttrId(0)
    }

    fn bird() -> AttrId {
        AttrId(1)
    }

    #[test]
    fn conjunction_eval_and_select() {
        let t = table();
        let c = Conjunction::of(vec![
            Predicate::ge(date(), Value::Int(150)),
            Predicate::eq(bird(), Value::str("maria")),
        ]);
        assert!(!c.eval(&t, 0));
        assert!(c.eval(&t, 1));
        assert!(!c.eval(&t, 2));
        assert_eq!(c.select(&t, &t.all_rows()).as_slice(), &[1]);
    }

    #[test]
    fn empty_conjunction_is_top() {
        let t = table();
        assert!(Conjunction::top().eval(&t, 0));
        assert_eq!(Conjunction::top().select(&t, &t.all_rows()).len(), 3);
    }

    #[test]
    fn dnf_eval_is_disjunction() {
        let t = table();
        let d = Dnf::of(vec![
            Conjunction::of(vec![Predicate::lt(date(), Value::Int(150))]),
            Conjunction::of(vec![Predicate::gt(date(), Value::Int(250))]),
        ]);
        assert!(d.eval(&t, 0));
        assert!(!d.eval(&t, 1));
        assert!(d.eval(&t, 2));
    }

    #[test]
    fn empty_dnf_is_false_tautology_is_true() {
        let t = table();
        assert!(!Dnf::default().eval(&t, 0));
        assert!(Dnf::tautology().eval(&t, 0));
    }

    #[test]
    fn interval_implication() {
        // date >= 100 && date < 200  ⊢  date >= 50.
        let c1 = Conjunction::of(vec![
            Predicate::ge(date(), Value::Int(100)),
            Predicate::lt(date(), Value::Int(200)),
        ]);
        let c2 = Conjunction::of(vec![Predicate::ge(date(), Value::Int(50))]);
        assert!(c1.implies(&c2));
        assert!(!c2.implies(&c1));
        // ... and date < 250, date <= 200, date != 200.
        assert!(c1.implies(&Conjunction::of(vec![Predicate::lt(
            date(),
            Value::Int(250)
        )])));
        assert!(c1.implies(&Conjunction::of(vec![Predicate::le(
            date(),
            Value::Int(200)
        )])));
        assert!(c1.implies(&Conjunction::of(vec![Predicate::ne(
            date(),
            Value::Int(200)
        )])));
        // But not date > 100 (lower bound is inclusive).
        assert!(!c1.implies(&Conjunction::of(vec![Predicate::gt(
            date(),
            Value::Int(100)
        )])));
    }

    #[test]
    fn equality_implication() {
        let c1 = Conjunction::of(vec![Predicate::eq(date(), Value::Int(150))]);
        assert!(c1.implies(&Conjunction::of(vec![Predicate::ge(
            date(),
            Value::Int(100)
        )])));
        assert!(c1.implies(&Conjunction::of(vec![Predicate::le(
            date(),
            Value::Int(150)
        )])));
        assert!(c1.implies(&Conjunction::of(vec![Predicate::ne(
            date(),
            Value::Int(151)
        )])));
        assert!(!c1.implies(&Conjunction::of(vec![Predicate::gt(
            date(),
            Value::Int(150)
        )])));
    }

    #[test]
    fn null_test_implication() {
        let is_null = Conjunction::of(vec![Predicate::is_null(date())]);
        let not_null = Conjunction::of(vec![Predicate::not_null(date())]);
        let ge = Conjunction::of(vec![Predicate::ge(date(), Value::Int(100))]);

        // Any comparison forces a non-null cell.
        assert!(ge.implies(&not_null));
        assert!(Conjunction::of(vec![Predicate::ne(date(), Value::Int(1))]).implies(&not_null));
        // ... but not the converse, and IS NULL proves no comparison.
        assert!(!not_null.implies(&ge));
        assert!(!is_null.implies(&ge));
        assert!(!is_null.implies(&not_null));
        assert!(!not_null.implies(&is_null));
        // Syntactic containment over null-valued predicates.
        assert!(is_null.implies(&is_null));
        assert!(not_null.implies(&not_null));
        // IS NULL conjoined with a comparison (or IS NOT NULL) is unsat,
        // and an unsat condition implies anything.
        let contradiction = Conjunction::of(vec![
            Predicate::is_null(date()),
            Predicate::ge(date(), Value::Int(100)),
        ]);
        assert!(contradiction.is_provably_unsat());
        assert!(contradiction.implies(&is_null));
        assert!(contradiction.implies(&ge));
        let both = Conjunction::of(vec![
            Predicate::is_null(date()),
            Predicate::not_null(date()),
        ]);
        assert!(both.is_provably_unsat());
        // IS NULL alone is satisfiable, on either attribute kind.
        assert!(!is_null.is_provably_unsat());
        assert!(!Conjunction::of(vec![Predicate::is_null(bird())]).is_provably_unsat());
    }

    #[test]
    fn null_test_eval_on_table() {
        let mut t = table();
        t.push_row(vec![Value::Null, Value::str("pelle")]).unwrap();
        let c = Conjunction::of(vec![Predicate::is_null(date())]);
        assert_eq!(c.select(&t, &t.all_rows()).as_slice(), &[3]);
        let c = Conjunction::of(vec![Predicate::not_null(date())]);
        assert_eq!(c.select(&t, &t.all_rows()).as_slice(), &[0, 1, 2]);
    }

    #[test]
    fn string_equality_implication() {
        let c1 = Conjunction::of(vec![Predicate::eq(bird(), Value::str("maria"))]);
        let c2 = Conjunction::of(vec![Predicate::ne(bird(), Value::str("raivo"))]);
        assert!(c1.implies(&c2));
        assert!(!c2.implies(&c1));
    }

    #[test]
    fn everything_implies_top_and_unsat_implies_everything() {
        let c1 = Conjunction::of(vec![Predicate::eq(date(), Value::Int(1))]);
        assert!(c1.implies(&Conjunction::top()));
        let unsat = Conjunction::of(vec![
            Predicate::gt(date(), Value::Int(10)),
            Predicate::lt(date(), Value::Int(5)),
        ]);
        assert!(unsat.is_provably_unsat());
        assert!(unsat.implies(&c1));
    }

    #[test]
    fn conflicting_equalities_are_unsat() {
        let c = Conjunction::of(vec![
            Predicate::eq(date(), Value::Int(1)),
            Predicate::eq(date(), Value::Int(2)),
        ]);
        assert!(c.is_provably_unsat());
    }

    #[test]
    fn dnf_implication_definition2() {
        // (date in [100,200)) ∨ (date in [300,400))  ⊢  date >= 100.
        let d1 = Dnf::of(vec![
            Conjunction::of(vec![
                Predicate::ge(date(), Value::Int(100)),
                Predicate::lt(date(), Value::Int(200)),
            ]),
            Conjunction::of(vec![
                Predicate::ge(date(), Value::Int(300)),
                Predicate::lt(date(), Value::Int(400)),
            ]),
        ]);
        let d2 = Dnf::single(Conjunction::of(vec![Predicate::ge(
            date(),
            Value::Int(100),
        )]));
        assert!(d1.implies(&d2));
        assert!(!d2.implies(&d1));
        // Each disjunct implies a *different* conjunct here:
        let d3 = Dnf::of(vec![
            Conjunction::of(vec![Predicate::lt(date(), Value::Int(250))]),
            Conjunction::of(vec![Predicate::ge(date(), Value::Int(250))]),
        ]);
        assert!(d1.implies(&d3));
    }

    #[test]
    fn builtin_must_match_for_implication() {
        let base = Conjunction::of(vec![Predicate::ge(date(), Value::Int(0))]);
        let refined = Conjunction::with_builtin(
            vec![Predicate::ge(date(), Value::Int(10))],
            Translation {
                delta_x: vec![744.0],
                delta_y: 0.0,
            },
        );
        assert!(!refined.implies(&base));
        let mut base2 = base.clone();
        base2.set_builtin(Translation {
            delta_x: vec![744.0],
            delta_y: 0.0,
        });
        assert!(refined.implies(&base2));
        // Identity builtin equals the default None.
        let explicit_id = Conjunction::with_builtin(vec![], Translation::identity(1));
        assert!(Conjunction::top().implies(&explicit_id));
    }

    #[test]
    fn compose_builtin_accumulates() {
        let mut c = Conjunction::top();
        c.compose_builtin(
            &Translation {
                delta_x: vec![10.0],
                delta_y: 1.0,
            },
            1,
        );
        c.compose_builtin(
            &Translation {
                delta_x: vec![-4.0],
                delta_y: 2.0,
            },
            1,
        );
        assert_eq!(
            c.builtin(),
            Some(&Translation {
                delta_x: vec![6.0],
                delta_y: 3.0
            })
        );
    }

    #[test]
    fn or_dedups_conjuncts() {
        let c = Conjunction::of(vec![Predicate::ge(date(), Value::Int(1))]);
        let d1 = Dnf::single(c.clone());
        let d2 = Dnf::of(vec![c, Conjunction::top()]);
        let merged = d1.or(&d2);
        assert_eq!(merged.conjuncts().len(), 2);
    }

    #[test]
    fn display_renders_readably() {
        let s = schema();
        let c = Conjunction::of(vec![
            Predicate::ge(date(), Value::Int(100)),
            Predicate::eq(bird(), Value::str("maria")),
        ]);
        let d = Dnf::of(vec![c, Conjunction::top()]);
        assert_eq!(
            d.display(&s).to_string(),
            "(date >= 100 && bird = 'maria') || (true)"
        );
    }
}
