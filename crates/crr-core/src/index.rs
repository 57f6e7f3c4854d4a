//! Interval index for rule locating.
//!
//! Rule sets produced by discovery + compaction hold few rules but many
//! conjunctions (one per shared data part), and [`crate::RuleSet`]'s
//! locate is a linear scan over all of them. For the common case — most
//! conjunctions bound one numeric attribute (the time axis, salary, …) —
//! an [`IntervalPlan`] turns locating into a binary search:
//!
//! 1. pick the numeric attribute bounded by the most conjunctions;
//! 2. extract each conjunction's (conservative, closed) interval on it;
//! 3. flatten all interval endpoints into segments; each segment stores
//!    the conjunctions overlapping it, in `(rule, conjunction)` order.
//!
//! A lookup binary-searches the segment for the row's value and then
//! *fully evaluates* only the candidate conjunctions, so the result is
//! exactly what the linear [`crate::LocateStrategy::First`] scan returns —
//! the index is purely an accelerator, never a semantic change (asserted
//! by the equivalence tests below and the property tests in
//! `tests/proptest_index.rs`).
//!
//! The plan owns its segments and borrows nothing, so a maintainer can
//! keep one per rule set while the relation grows. [`RuleIndex`] pairs a
//! plan with the rules it was built over for the serving-side queries.

use crate::{CompiledConjunction, Conjunction, Crr, Op, RuleSet};
use crr_data::{AttrId, RowSet, Schema, Table};
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

/// Rules and total conjunctions of `rules`.
fn shape_of(rules: &RuleSet) -> (usize, usize) {
    let conjuncts = rules
        .rules()
        .iter()
        .map(|r| r.condition().conjuncts().len())
        .sum();
    (rules.len(), conjuncts)
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

    /// The coverage query: every `(rule, conjunction)` index pair that can
    /// cover `row` and passes `covers`, in ascending `(rule, conjunction)`
    /// order. `rules` must be the rule set the plan was built over.
    ///
    /// The plan only rules out conjunctions whose interval on the indexed
    /// attribute excludes the row (a null there excludes every bounded
    /// one); `covers(rule, conjunction)` tests each remaining candidate
    /// against the row, interpreted or compiled. It is called in that same
    /// order as the iterator advances, so it may keep state across calls.
    /// Serving takes the first pair; a write-time monitor walks them all,
    /// because each covering rule's bias bound is a separate obligation on
    /// the row.
    pub fn covering<'p, F>(
        &'p self,
        rules: &RuleSet,
        table: &Table,
        row: usize,
        mut covers: F,
    ) -> impl Iterator<Item = (usize, usize)> + 'p
    where
        F: FnMut(usize, usize) -> bool + 'p,
    {
        debug_assert_eq!(self.shape, shape_of(rules), "plan of another rule set");
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
        .map(|c| (c.rule as usize, c.conj as usize))
        .filter(move |&(ri, ci)| covers(ri, ci))
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
/// rules it was built over (see module docs).
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

    /// The indexed attribute, if any.
    pub fn indexed_attr(&self) -> Option<AttrId> {
        self.plan.indexed_attr()
    }

    /// Locates the first (in rule-set order) rule + conjunction covering
    /// `row` — identical to the linear `First` scan.
    pub fn locate(&self, table: &Table, row: usize) -> Option<(&'a Crr, &'a Conjunction)> {
        let (ri, ci) = self
            .plan
            .covering(self.rules, table, row, |ri, ci| {
                self.resolve(ri, ci).1.eval(table, row)
            })
            .next()?;
        Some(self.resolve(ri, ci))
    }

    /// Predicts for `row` using the located rule's conjunction built-ins.
    pub fn predict(&self, table: &Table, row: usize) -> Option<f64> {
        let (rule, conj) = self.locate(table, row)?;
        predict_at(rule, conj, table, row)
    }

    /// RMSE evaluation over `rows` via the index — the accelerated
    /// counterpart of [`RuleSet::evaluate`].
    pub fn evaluate(&self, table: &Table, rows: &RowSet) -> crate::ruleset::EvalReport {
        evaluate_with(self.rules, table, rows, |row| self.locate(table, row))
    }

    fn resolve(&self, ri: usize, ci: usize) -> (&'a Crr, &'a Conjunction) {
        let rule = &self.rules.rules()[ri];
        (rule, &rule.condition().conjuncts()[ci])
    }

    /// Compiles every conjunction against `table`'s columns once, yielding
    /// a locate/evaluate engine whose per-row predicate checks run on the
    /// [`crate::compiled`] kernels instead of the interpreter. The compiled
    /// kernels are byte-identical to `Conjunction::eval` (pinned by the
    /// equivalence tests in `crate::compiled` and below), so every
    /// `CompiledIndex` answer equals the interpreted [`RuleIndex`] answer.
    pub fn compile<'t>(&'a self, table: &'t Table) -> CompiledIndex<'a, 't> {
        let compiled = self
            .rules
            .rules()
            .iter()
            .map(|rule| {
                rule.condition()
                    .conjuncts()
                    .iter()
                    .map(|conj| CompiledConjunction::compile(conj, table))
                    .collect()
            })
            .collect();
        CompiledIndex {
            index: self,
            table,
            compiled,
        }
    }
}

/// A [`RuleIndex`] with every conjunction pre-compiled against one table
/// (see [`RuleIndex::compile`]): attribute → column resolution and constant
/// typing happen once at build, so the per-row checks inside `locate`,
/// `predict`, `evaluate` and `covers` are branch-light column reads.
#[derive(Debug)]
pub struct CompiledIndex<'a, 't> {
    index: &'a RuleIndex<'a>,
    table: &'t Table,
    /// `compiled[rule][conj]`, parallel to the rule set's conjunctions.
    compiled: Vec<Vec<CompiledConjunction<'t>>>,
}

impl<'a> CompiledIndex<'a, '_> {
    /// Compiled counterpart of [`RuleIndex::locate`] — identical result.
    pub fn locate(&self, row: usize) -> Option<(&'a Crr, &'a Conjunction)> {
        let (ri, ci) = self
            .index
            .plan
            .covering(self.index.rules, self.table, row, |ri, ci| {
                self.compiled[ri][ci].eval_row(row)
            })
            .next()?;
        Some(self.index.resolve(ri, ci))
    }

    /// Compiled counterpart of [`RuleIndex::predict`].
    pub fn predict(&self, row: usize) -> Option<f64> {
        let (rule, conj) = self.locate(row)?;
        predict_at(rule, conj, self.table, row)
    }

    /// Whether any rule covers `row` (first-match semantics).
    pub fn covers(&self, row: usize) -> bool {
        self.locate(row).is_some()
    }

    /// Compiled counterpart of [`RuleIndex::evaluate`] — same accumulation
    /// order, so the report is bitwise identical.
    pub fn evaluate(&self, rows: &RowSet) -> crate::ruleset::EvalReport {
        evaluate_with(self.index.rules, self.table, rows, |row| self.locate(row))
    }
}

/// One rule's prediction at `row`, applying the conjunction's built-in
/// translation — shared by the interpreted and compiled locate paths.
fn predict_at(rule: &Crr, conj: &Conjunction, table: &Table, row: usize) -> Option<f64> {
    let x: Vec<f64> = rule
        .inputs()
        .iter()
        .map(|&a| table.value_f64(row, a))
        .collect::<Option<Vec<f64>>>()?;
    Some(match conj.builtin() {
        Some(t) => rule.model().predict_translated(&x, t),
        None => crr_models::Regressor::predict(rule.model().as_ref(), &x),
    })
}

/// RMSE/MAE accumulation over `rows` given a locate engine — the single
/// source of truth both `evaluate` paths share, so interpreted and
/// compiled reports can only differ if `locate` itself differs.
fn evaluate_with<'r>(
    rules: &'r RuleSet,
    table: &Table,
    rows: &RowSet,
    mut locate: impl FnMut(usize) -> Option<(&'r Crr, &'r Conjunction)>,
) -> crate::ruleset::EvalReport {
    let target = rules.rules().first().map(Crr::target);
    let mut sse = 0.0;
    let mut sae = 0.0;
    let mut covered = 0usize;
    let mut scored = 0usize;
    for row in rows.iter() {
        let Some((rule, conj)) = locate(row) else {
            continue;
        };
        covered += 1;
        let x: Option<Vec<f64>> = rule
            .inputs()
            .iter()
            .map(|&a| table.value_f64(row, a))
            .collect();
        let (Some(x), Some(actual)) = (x, target.and_then(|t| table.value_f64(row, t))) else {
            continue;
        };
        let pred = match conj.builtin() {
            Some(t) => rule.model().predict_translated(&x, t),
            None => crr_models::Regressor::predict(rule.model().as_ref(), &x),
        };
        scored += 1;
        let e = pred - actual;
        sse += e * e;
        sae += e.abs();
    }
    crate::ruleset::EvalReport {
        rmse: if scored > 0 {
            (sse / scored as f64).sqrt()
        } else {
            0.0
        },
        mae: if scored > 0 { sae / scored as f64 } else { 0.0 },
        covered,
        scored,
        total: rows.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dnf, LocateStrategy, Predicate};
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

    #[test]
    fn index_matches_linear_scan() {
        let t = table(200);
        let rules = segmented_rules(20, 10.0);
        let idx = RuleIndex::build(&rules, &t);
        assert_eq!(idx.indexed_attr(), Some(x()));
        for row in 0..t.num_rows() {
            let scan = rules.predict(&t, row, LocateStrategy::First);
            let fast = idx.predict(&t, row);
            assert_eq!(scan, fast, "row {row}");
        }
    }

    #[test]
    fn evaluate_matches_ruleset_evaluate() {
        let t = table(150);
        let rules = segmented_rules(15, 10.0);
        let idx = RuleIndex::build(&rules, &t);
        let a = rules.evaluate(&t, &t.all_rows(), LocateStrategy::First);
        let b = idx.evaluate(&t, &t.all_rows());
        assert_eq!(a, b);
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
        let idx = RuleIndex::build(&rules, &t);
        for row in 0..t.num_rows() {
            assert_eq!(
                rules.predict(&t, row, LocateStrategy::First),
                idx.predict(&t, row),
                "row {row}"
            );
        }
    }

    #[test]
    fn small_or_unindexable_sets_fall_back_to_scan() {
        let t = table(20);
        let rules = segmented_rules(2, 10.0); // too few conjuncts to index
        let idx = RuleIndex::build(&rules, &t);
        assert_eq!(idx.indexed_attr(), None);
        for row in 0..t.num_rows() {
            assert_eq!(
                rules.predict(&t, row, LocateStrategy::First),
                idx.predict(&t, row)
            );
        }
    }

    #[test]
    fn null_on_indexed_attr_matches_scan() {
        let mut t = table(100);
        t.set_null(5, x());
        let rules = segmented_rules(10, 10.0);
        let idx = RuleIndex::build(&rules, &t);
        assert_eq!(rules.predict(&t, 5, LocateStrategy::First), None);
        assert_eq!(idx.predict(&t, 5), None);
    }

    #[test]
    fn compiled_index_matches_interpreted_on_every_row() {
        let mut t = table(200);
        t.set_null(7, x());
        t.set_null(42, x());
        let rules = segmented_rules(20, 10.0);
        let idx = RuleIndex::build(&rules, &t);
        assert_eq!(idx.indexed_attr(), Some(x()));
        let fast = idx.compile(&t);
        for row in 0..t.num_rows() {
            let a = idx.predict(&t, row);
            let b = fast.predict(row);
            assert_eq!(a.map(f64::to_bits), b.map(f64::to_bits), "row {row}");
            assert_eq!(idx.locate(&t, row).is_some(), fast.covers(row), "row {row}");
        }
        let ea = idx.evaluate(&t, &t.all_rows());
        let eb = fast.evaluate(&t.all_rows());
        assert_eq!(ea, eb);
        assert_eq!(ea.rmse.to_bits(), eb.rmse.to_bits());
    }

    /// The plan's coverage query with interpreted candidate tests.
    fn covering(
        plan: &IntervalPlan,
        rules: &RuleSet,
        t: &Table,
        row: usize,
    ) -> Vec<(usize, usize)> {
        plan.covering(rules, t, row, |ri, ci| {
            rules.rules()[ri].condition().conjuncts()[ci].eval(t, row)
        })
        .collect()
    }

    /// Brute-force oracle for the coverage query: evaluate every
    /// conjunction.
    fn covering_scan(rules: &RuleSet, t: &Table, row: usize) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (ri, rule) in rules.rules().iter().enumerate() {
            for (ci, conj) in rule.condition().conjuncts().iter().enumerate() {
                if conj.eval(t, row) {
                    out.push((ri, ci));
                }
            }
        }
        out
    }

    #[test]
    fn covering_matches_exhaustive_scan() {
        let mut t = table(120);
        t.set_null(3, x());
        // Segmented rule + a tautological catch-all: every non-null row is
        // covered by exactly two conjunctions, null rows by one.
        let model = Arc::new(Model::Linear(LinearModel::new(vec![2.0], 0.0)));
        let mut rules = segmented_rules(12, 10.0);
        rules.push(Crr::new(vec![x()], y(), model, 0.5, Dnf::tautology()).unwrap());
        let plan = IntervalPlan::build(&rules, t.schema());
        assert_eq!(plan.indexed_attr(), Some(x()));
        for row in 0..t.num_rows() {
            assert_eq!(
                covering(&plan, &rules, &t, row),
                covering_scan(&rules, &t, row),
                "row {row}"
            );
        }
        assert_eq!(
            covering(&plan, &rules, &t, 3),
            vec![(1, 0)],
            "null row hits only the catch-all"
        );
    }

    #[test]
    fn covering_matches_on_the_scan_fallback() {
        let t = table(20);
        let rules = segmented_rules(2, 10.0); // unindexable: linear scan
        let plan = IntervalPlan::build(&rules, t.schema());
        assert_eq!(plan.indexed_attr(), None);
        for row in 0..t.num_rows() {
            assert_eq!(
                covering(&plan, &rules, &t, row),
                covering_scan(&rules, &t, row),
                "row {row}"
            );
        }
    }

    #[test]
    fn compiled_index_matches_on_the_scan_fallback() {
        let t = table(20);
        let rules = segmented_rules(2, 10.0); // unindexable: linear scan
        let idx = RuleIndex::build(&rules, &t);
        assert_eq!(idx.indexed_attr(), None);
        let fast = idx.compile(&t);
        for row in 0..t.num_rows() {
            assert_eq!(idx.predict(&t, row), fast.predict(row), "row {row}");
        }
    }
}
