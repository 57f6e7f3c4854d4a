//! Interval index and the compiled coverage engine.
//!
//! Rule sets produced by discovery + compaction hold few rules but many
//! conjunctions (one per shared data part), and [`crate::RuleSet`]'s
//! locate is a linear scan over all of them. For the common case — most
//! conjunctions bound one numeric attribute (the time axis, salary, …) —
//! an [`IntervalPlan`] turns that scan into a binary search:
//!
//! 1. pick the numeric attribute bounded by the most conjunctions;
//! 2. extract each conjunction's (conservative, closed) interval on it;
//! 3. flatten all interval endpoints into segments; each segment stores
//!    the conjunctions overlapping it, in `(rule, conjunction)` order.
//!
//! [`CompiledIndex`] answers the coverage questions through a plan: it
//! binary-searches the segment for the row's value and then *fully
//! evaluates* only the candidate conjunctions, on [`crate::compiled`]
//! kernels. Its `locate` returns exactly the rule and conjunct the linear
//! [`crate::RuleSet::locate`] scan uses, and its `covering` visits exactly
//! the rules [`crate::check::check`] tests — the index is purely an
//! accelerator, never a semantic change (asserted by the equivalence tests
//! below and the property tests in `tests/proptest_index.rs`).
//!
//! The plan owns its segments and borrows nothing, so a maintainer or a
//! serving set can keep one per rule set while the relation grows and
//! requests come and go. [`RuleIndex`] pairs a plan with the rules it was
//! built over.

use crate::ruleset::{evaluate_with, EvalReport};
use crate::{CompiledConjunction, Conjunction, Crr, Op, RuleSet};
use crr_data::{AttrId, RowSet, Schema, Table};
use std::cell::OnceCell;
use std::collections::HashMap;

/// One candidate: indices of a rule and one of its conjunctions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Candidate {
    rule: u32,
    conj: u32,
}

/// The interval plan of one rule set (see module docs): which of its
/// conjunctions can cover a row, looked up by the row's value on one
/// numeric attribute. Owns its data and borrows nothing.
///
/// Building reads the rules and the schema's attribute types, never a row
/// value, so appending rows to the table never invalidates a plan; only a
/// new rule set does. The default plan is the plan of an empty rule set.
#[derive(Debug, Clone, Default)]
pub struct IntervalPlan {
    /// The indexed attribute, if one was worth indexing.
    attr: Option<AttrId>,
    /// Sorted segment boundaries over the indexed attribute.
    boundaries: Vec<f64>,
    /// `segments[i]` holds candidates overlapping
    /// `[boundaries[i], boundaries[i+1])`; `segments[boundaries.len()]`
    /// is the right-open tail. Entry 0 is the left-open head.
    segments: Vec<Vec<Candidate>>,
    /// Conjunctions with no usable bound on `attr` — candidates for every
    /// row (merged in rule order). Without an indexed attribute this is
    /// every conjunction.
    unbounded: Vec<Candidate>,
    /// Rules and conjunctions the plan was built over.
    shape: (usize, usize),
}

/// Conservative closed interval of a conjunction on one attribute:
/// `[lo, hi]` with ±∞ defaults. Equality pins both ends.
fn interval_on(conj: &Conjunction, attr: AttrId) -> (f64, f64) {
    let mut lo = f64::NEG_INFINITY;
    let mut hi = f64::INFINITY;
    for p in conj.preds() {
        if p.attr != attr || p.op.is_null_test() {
            continue;
        }
        let Some(c) = p.value.as_f64() else { continue };
        match p.op {
            Op::Eq => {
                lo = lo.max(c);
                hi = hi.min(c);
            }
            Op::Gt | Op::Ge => lo = lo.max(c),
            Op::Lt | Op::Le => hi = hi.min(c),
            Op::Ne | Op::IsNull | Op::NotNull => {}
        }
    }
    (lo, hi)
}

impl IntervalPlan {
    /// Builds the plan of `rules` over a table with `schema`. Falls back
    /// to checking every conjunction (still correct) when no numeric
    /// attribute is bounded by at least half the conjunctions.
    pub fn build(rules: &RuleSet, schema: &Schema) -> IntervalPlan {
        // Count bounded conjunctions per numeric attribute.
        let mut bound_counts: HashMap<AttrId, usize> = HashMap::new();
        let mut all: Vec<Candidate> = Vec::new();
        for (ri, rule) in rules.rules().iter().enumerate() {
            for (ci, conj) in rule.condition().conjuncts().iter().enumerate() {
                all.push(Candidate {
                    rule: ri as u32,
                    conj: ci as u32,
                });
                let mut seen: Vec<AttrId> = Vec::new();
                for p in conj.preds() {
                    if schema.attribute(p.attr).ty().is_numeric()
                        && !p.op.is_null_test()
                        && p.value.as_f64().is_some()
                        && !seen.contains(&p.attr)
                    {
                        seen.push(p.attr);
                        *bound_counts.entry(p.attr).or_default() += 1;
                    }
                }
            }
        }
        let total_conjuncts = all.len();
        let shape = (rules.len(), total_conjuncts);
        let attr = bound_counts
            .into_iter()
            .max_by_key(|&(a, n)| (n, std::cmp::Reverse(a.0)))
            .filter(|&(_, n)| 2 * n >= total_conjuncts && total_conjuncts > 4)
            .map(|(a, _)| a);
        let Some(attr) = attr else {
            return IntervalPlan {
                attr: None,
                boundaries: Vec::new(),
                segments: Vec::new(),
                unbounded: all,
                shape,
            };
        };

        // Collect intervals and boundaries.
        let mut entries: Vec<(Candidate, f64, f64)> = Vec::new();
        let mut unbounded: Vec<Candidate> = Vec::new();
        let mut boundaries: Vec<f64> = Vec::new();
        for cand in all {
            let conj =
                &rules.rules()[cand.rule as usize].condition().conjuncts()[cand.conj as usize];
            let (lo, hi) = interval_on(conj, attr);
            if lo.is_infinite() && hi.is_infinite() {
                unbounded.push(cand);
                continue;
            }
            if lo > hi {
                continue; // provably empty on this attribute
            }
            if lo.is_finite() {
                boundaries.push(lo);
            }
            if hi.is_finite() {
                boundaries.push(hi);
            }
            entries.push((cand, lo, hi));
        }
        boundaries.sort_unstable_by(f64::total_cmp);
        boundaries.dedup();
        // Segment i covers [boundaries[i-1], boundaries[i]) with segment 0
        // the open head (-inf, boundaries[0]) and a final open tail.
        let mut segments: Vec<Vec<Candidate>> = vec![Vec::new(); boundaries.len() + 1];
        for (cand, lo, hi) in entries {
            // Closed interval [lo, hi] overlaps segment [b_{i-1}, b_i) when
            // lo < b_i and hi >= b_{i-1}.
            let first = boundaries.partition_point(|&b| b <= lo); // first seg with b_i > lo
            let last = boundaries.partition_point(|&b| b <= hi); // hi's tail segment
            for seg in segments.iter_mut().take(last + 1).skip(first) {
                seg.push(cand);
            }
        }
        // Candidates were pushed in (rule, conj) order, so every segment
        // and the unbounded list are already sorted.
        IntervalPlan {
            attr: Some(attr),
            boundaries,
            segments,
            unbounded,
            shape,
        }
    }

    /// The indexed attribute, if any.
    pub fn indexed_attr(&self) -> Option<AttrId> {
        self.attr
    }

    /// The `(rule, conjunction)` candidates that can cover `row`, in
    /// ascending order. The plan only rules out conjunctions whose
    /// interval on the indexed attribute excludes the row (a null there
    /// excludes every bounded one); the caller tests the rest.
    fn candidates(&self, table: &Table, row: usize) -> Merge<'_> {
        let bounded: &[Candidate] = match self.attr.map(|a| table.value_f64(row, a)) {
            Some(Some(v)) => &self.segments[self.boundaries.partition_point(|&b| b <= v)],
            // A null on the indexed attribute fails every bounded
            // conjunction; without an indexed attribute everything is in
            // `unbounded`.
            Some(None) | None => &[],
        };
        Merge {
            a: bounded,
            b: &self.unbounded,
        }
    }
}

/// Two pre-sorted candidate lists visited in merged `(rule, conj)` order.
struct Merge<'p> {
    a: &'p [Candidate],
    b: &'p [Candidate],
}

impl<'p> Iterator for Merge<'p> {
    type Item = Candidate;

    fn next(&mut self) -> Option<Candidate> {
        let list: &mut &'p [Candidate] = match (self.a.first(), self.b.first()) {
            (Some(x), Some(y)) if x <= y => &mut self.a,
            (Some(_), None) => &mut self.a,
            _ => &mut self.b,
        };
        let (&c, rest) = list.split_first()?;
        *list = rest;
        Some(c)
    }
}

/// An interval-indexed view of a rule set: its [`IntervalPlan`] plus the
/// rules it was built over.
#[derive(Debug, Clone)]
pub struct RuleIndex<'a> {
    rules: &'a RuleSet,
    plan: IntervalPlan,
}

impl<'a> RuleIndex<'a> {
    /// Builds the index. Falls back to pure scanning (still correct) when
    /// no numeric attribute is bounded by at least half the conjunctions.
    pub fn build(rules: &'a RuleSet, table: &Table) -> RuleIndex<'a> {
        RuleIndex {
            rules,
            plan: IntervalPlan::build(rules, table.schema()),
        }
    }

    /// The coverage engine of this index's rules and plan over `table`
    /// (see [`CompiledIndex::new`]).
    pub fn compile<'t>(&'a self, table: &'t Table) -> CompiledIndex<'a, 't> {
        CompiledIndex::new(self.rules, &self.plan, table)
    }
}

/// The coverage engine of one rule set over one table: which rules cover a
/// row, and under which conjunct. Candidates come from the rule set's
/// [`IntervalPlan`]; each candidate conjunction is compiled against the
/// table's columns the first time a row needs it, so attribute → column
/// resolution and constant typing happen once per conjunction and the
/// per-row checks are branch-light column reads. The kernels agree with
/// `Conjunction::eval` on every row (pinned by the equivalence tests in
/// [`crate::compiled`] and below), so every answer equals the interpreted
/// definition's.
///
/// The lazily filled kernels make the engine `!Sync`: build one per
/// thread.
#[derive(Debug)]
pub struct CompiledIndex<'a, 't> {
    rules: &'a RuleSet,
    plan: &'a IntervalPlan,
    table: &'t Table,
    /// Index in `kernels` of each rule's first conjunction.
    offsets: Vec<usize>,
    /// One cell per conjunction of the rule set, in `(rule, conjunction)`
    /// order, compiled on first use.
    kernels: Vec<OnceCell<CompiledConjunction<'t>>>,
}

impl<'a, 't> CompiledIndex<'a, 't> {
    /// The engine of `rules` over `table`, looking candidates up in
    /// `plan`, which must be [`IntervalPlan::build`]'s plan of `rules`.
    /// Compiles nothing yet.
    ///
    /// # Panics
    ///
    /// When `plan` was built over a rule set with a different number of
    /// rules or conjunctions.
    pub fn new(rules: &'a RuleSet, plan: &'a IntervalPlan, table: &'t Table) -> Self {
        let mut offsets = Vec::with_capacity(rules.len());
        let mut slots = 0;
        for rule in rules.rules() {
            offsets.push(slots);
            slots += rule.condition().conjuncts().len();
        }
        assert_eq!(
            plan.shape,
            (rules.len(), slots),
            "interval plan of another rule set"
        );
        CompiledIndex {
            rules,
            plan,
            table,
            offsets,
            kernels: std::iter::repeat_with(OnceCell::new).take(slots).collect(),
        }
    }

    /// Whether candidate `c`'s conjunction covers `row`.
    fn matches(&self, c: Candidate, row: usize) -> bool {
        let (ri, ci) = (c.rule as usize, c.conj as usize);
        self.kernels[self.offsets[ri] + ci]
            .get_or_init(|| {
                let conj = &self.rules.rules()[ri].condition().conjuncts()[ci];
                CompiledConjunction::compile(conj, self.table)
            })
            .eval_row(row)
    }

    /// The first rule covering `row`, in rule-set order, with its first
    /// conjunction that does: the rule [`RuleSet::locate`] finds and the
    /// conjunct [`Crr::predict`] applies.
    pub fn locate(&self, row: usize) -> Option<(&'a Crr, &'a Conjunction)> {
        let c = self
            .plan
            .candidates(self.table, row)
            .find(|&c| self.matches(c, row))?;
        let rule = &self.rules.rules()[c.rule as usize];
        Some((rule, &rule.condition().conjuncts()[c.conj as usize]))
    }

    /// Calls `visit(rule, conjunction)` with the index of every rule
    /// covering `row`, in rule-set order, and the index of that rule's
    /// first conjunction covering it; later conjunctions of a covering
    /// rule are not tested. These are the rules [`crate::check::check`]
    /// holds the row to: each covering rule's bias bound is a separate
    /// constraint on it.
    pub fn covering(&self, row: usize, mut visit: impl FnMut(usize, usize)) {
        let mut matched = None;
        for c in self.plan.candidates(self.table, row) {
            if matched != Some(c.rule) && self.matches(c, row) {
                matched = Some(c.rule);
                visit(c.rule as usize, c.conj as usize);
            }
        }
    }

    /// [`RuleSet::predict`] through the engine.
    pub fn predict(&self, row: usize) -> Option<f64> {
        let (rule, conj) = self.locate(row)?;
        rule.predict_at(conj, self.table, row, &mut Vec::new())
    }

    /// [`RuleSet::evaluate`] through the engine: the same accumulation in
    /// the same order, so the report is bitwise identical.
    pub fn evaluate(&self, rows: &RowSet) -> EvalReport {
        evaluate_with(self.rules, self.table, rows, |row| self.locate(row))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dnf, Predicate};
    use crr_data::{AttrType, Schema, Value};
    use crr_models::{LinearModel, Model, Translation};
    use std::sync::Arc;

    fn x() -> AttrId {
        AttrId(0)
    }

    fn y() -> AttrId {
        AttrId(1)
    }

    fn table(n: usize) -> Table {
        let schema = Schema::new(vec![("x", AttrType::Float), ("y", AttrType::Float)]);
        let mut t = Table::new(schema);
        for i in 0..n {
            t.push_row(vec![Value::Float(i as f64), Value::Float(2.0 * i as f64)])
                .unwrap();
        }
        t
    }

    /// A rule set with many interval conjunctions on x.
    fn segmented_rules(n_segments: usize, width: f64) -> RuleSet {
        let model = Arc::new(Model::Linear(LinearModel::new(vec![2.0], 0.0)));
        let conjuncts: Vec<Conjunction> = (0..n_segments)
            .map(|k| {
                let lo = k as f64 * width;
                Conjunction::with_builtin(
                    vec![
                        Predicate::ge(x(), Value::Float(lo)),
                        Predicate::lt(x(), Value::Float(lo + width)),
                    ],
                    Translation {
                        delta_x: vec![0.0],
                        delta_y: 0.0,
                    },
                )
            })
            .collect();
        RuleSet::from_rules(vec![Crr::new(
            vec![x()],
            y(),
            model,
            0.1,
            Dnf::of(conjuncts),
        )
        .unwrap()])
    }

    /// The coverage oracle: every rule's first covering conjunction, by
    /// the interpreter.
    fn covering_scan(rules: &RuleSet, t: &Table, row: usize) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (ri, rule) in rules.rules().iter().enumerate() {
            let conjuncts = rule.condition().conjuncts();
            if let Some(ci) = conjuncts.iter().position(|c| c.eval(t, row)) {
                out.push((ri, ci));
            }
        }
        out
    }

    fn covering(fast: &CompiledIndex<'_, '_>, row: usize) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        fast.covering(row, |ri, ci| out.push((ri, ci)));
        out
    }

    /// Every engine answer equals the interpreted definition's on every
    /// row of `t`: the located rule and conjunct, the prediction's bits,
    /// the covering rules, and the evaluation report.
    fn assert_matches_scan(rules: &RuleSet, t: &Table) {
        let idx = RuleIndex::build(rules, t);
        let fast = idx.compile(t);
        for row in 0..t.num_rows() {
            let want = rules
                .locate(t, row)
                .map(|r| (r, r.condition().matching_conjunct(t, row).unwrap()));
            let got = fast.locate(row);
            assert_eq!(
                got.map(|(r, c)| (r as *const Crr, c as *const Conjunction)),
                want.map(|(r, c)| (r as *const Crr, c as *const Conjunction)),
                "row {row}"
            );
            assert_eq!(
                fast.predict(row).map(f64::to_bits),
                rules.predict(t, row).map(f64::to_bits),
                "row {row}"
            );
            assert_eq!(
                covering(&fast, row),
                covering_scan(rules, t, row),
                "row {row}"
            );
        }
        let a = rules.evaluate(t, &t.all_rows());
        let b = fast.evaluate(&t.all_rows());
        assert_eq!(a, b);
        assert_eq!(a.rmse.to_bits(), b.rmse.to_bits());
    }

    #[test]
    fn index_matches_linear_scan() {
        let mut t = table(200);
        t.set_null(7, x());
        t.set_null(42, x());
        let rules = segmented_rules(20, 10.0);
        assert_eq!(
            IntervalPlan::build(&rules, t.schema()).indexed_attr(),
            Some(x())
        );
        assert_matches_scan(&rules, &t);
    }

    #[test]
    fn unbounded_conjunctions_still_match() {
        let t = table(50);
        let model = Arc::new(Model::Linear(LinearModel::new(vec![2.0], 0.0)));
        // First rule bounded, second rule tautological.
        let bounded = Crr::new(
            vec![x()],
            y(),
            Arc::clone(&model),
            0.1,
            Dnf::single(Conjunction::of(vec![Predicate::lt(
                x(),
                Value::Float(10.0),
            )])),
        )
        .unwrap();
        let catch_all = Crr::new(vec![x()], y(), model, 0.5, Dnf::tautology()).unwrap();
        // Pad with bounded rules so the index activates (needs >4 conjuncts).
        let more: Vec<Crr> = (1..5)
            .map(|k| {
                let m = Arc::new(Model::Linear(LinearModel::new(vec![2.0], 0.0)));
                Crr::new(
                    vec![x()],
                    y(),
                    m,
                    0.1,
                    Dnf::single(Conjunction::of(vec![
                        Predicate::ge(x(), Value::Float(10.0 * k as f64)),
                        Predicate::lt(x(), Value::Float(10.0 * (k + 1) as f64)),
                    ])),
                )
                .unwrap()
            })
            .collect();
        let mut all = vec![bounded];
        all.extend(more);
        all.push(catch_all);
        let rules = RuleSet::from_rules(all);
        assert_eq!(
            IntervalPlan::build(&rules, t.schema()).indexed_attr(),
            Some(x())
        );
        assert_matches_scan(&rules, &t);
    }

    #[test]
    fn small_or_unindexable_sets_fall_back_to_scan() {
        let t = table(20);
        let rules = segmented_rules(2, 10.0); // too few conjuncts to index
        assert_eq!(IntervalPlan::build(&rules, t.schema()).indexed_attr(), None);
        assert_matches_scan(&rules, &t);
    }

    #[test]
    fn null_on_indexed_attr_matches_scan() {
        let mut t = table(100);
        t.set_null(5, x());
        let rules = segmented_rules(10, 10.0);
        let idx = RuleIndex::build(&rules, &t);
        assert_eq!(rules.predict(&t, 5), None);
        assert_eq!(idx.compile(&t).predict(5), None);
    }

    #[test]
    fn covering_matches_exhaustive_scan() {
        let mut t = table(120);
        t.set_null(3, x());
        // Segmented rule + a tautological catch-all: every non-null row is
        // covered by both rules, null rows by the catch-all only.
        let model = Arc::new(Model::Linear(LinearModel::new(vec![2.0], 0.0)));
        let mut rules = segmented_rules(12, 10.0);
        rules.push(Crr::new(vec![x()], y(), model, 0.5, Dnf::tautology()).unwrap());
        assert_eq!(
            IntervalPlan::build(&rules, t.schema()).indexed_attr(),
            Some(x())
        );
        assert_matches_scan(&rules, &t);
        let idx = RuleIndex::build(&rules, &t);
        let fast = idx.compile(&t);
        assert_eq!(covering(&fast, 25), vec![(0, 2), (1, 0)]);
        assert_eq!(
            covering(&fast, 3),
            vec![(1, 0)],
            "null row hits only the catch-all"
        );
    }

    #[test]
    #[should_panic(expected = "interval plan of another rule set")]
    fn a_plan_of_another_rule_set_is_refused() {
        let t = table(10);
        let plan = IntervalPlan::build(&segmented_rules(6, 10.0), t.schema());
        let rules = segmented_rules(5, 10.0);
        let _ = CompiledIndex::new(&rules, &plan, &t);
    }
}
