use crate::{Conjunction, Crr};
use crr_data::{RowSet, Schema, Table};
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

/// An ordered collection of CRRs over the same `X → Y`, with rule locating,
/// prediction and error evaluation (the downstream-application side of the
/// paper: imputation and RMSE reporting).
#[derive(Debug, Clone, Default)]
pub struct RuleSet {
    rules: Vec<Crr>,
}

/// Evaluation summary returned by [`RuleSet::evaluate`].
#[derive(Debug, Clone, PartialEq)]
pub struct EvalReport {
    /// Root-mean-square error over covered rows with present values.
    pub rmse: f64,
    /// Mean absolute error over the same rows.
    pub mae: f64,
    /// Rows covered by at least one rule.
    pub covered: usize,
    /// Rows evaluated (covered and with target + inputs present).
    pub scored: usize,
    /// Total rows offered.
    pub total: usize,
}

impl RuleSet {
    /// An empty rule set.
    pub fn new() -> Self {
        RuleSet::default()
    }

    /// Builds from rules.
    pub fn from_rules(rules: Vec<Crr>) -> Self {
        RuleSet { rules }
    }

    /// Appends a rule.
    pub fn push(&mut self, rule: Crr) {
        self.rules.push(rule);
    }

    /// Number of rules — the `#Rules` column of Tables III/IV and the
    /// y-axis of Figures 2–4(c) and 9.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True when the set holds no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The rules in order.
    pub fn rules(&self) -> &[Crr] {
        &self.rules
    }

    /// Mutable access for compaction.
    pub fn rules_mut(&mut self) -> &mut Vec<Crr> {
        &mut self.rules
    }

    /// Number of *distinct* regression models shared across the rules
    /// (distinct `Arc` allocations) — how much sharing the set achieves.
    pub fn num_distinct_models(&self) -> usize {
        let ptrs: HashSet<*const crr_models::Model> =
            self.rules.iter().map(|r| Arc::as_ptr(r.model())).collect();
        ptrs.len()
    }

    /// Total number of conjunctions across all rule conditions.
    pub fn total_conjuncts(&self) -> usize {
        self.rules
            .iter()
            .map(|r| r.condition().conjuncts().len())
            .sum()
    }

    /// Locates the rule answering for `row`: the first covering rule in
    /// discovery order (the paper's behaviour: the priority queue emits
    /// more-shareable conditions first).
    pub fn locate(&self, table: &Table, row: usize) -> Option<&Crr> {
        self.rules.iter().find(|r| r.covers(table, row))
    }

    /// Predicts `Y` for `row`: locate then apply (with built-ins).
    pub fn predict(&self, table: &Table, row: usize) -> Option<f64> {
        self.locate(table, row)?.predict(table, row)
    }

    /// Rows of `rows` covered by no rule — Problem 1 requires discovery to
    /// leave this empty.
    pub fn uncovered(&self, table: &Table, rows: &RowSet) -> RowSet {
        rows.filter(|r| !self.rules.iter().any(|rule| rule.covers(table, r)))
    }

    /// Evaluates prediction error over `rows`.
    pub fn evaluate(&self, table: &Table, rows: &RowSet) -> EvalReport {
        evaluate_with(self, table, rows, |row| {
            self.rules
                .iter()
                .find_map(|r| Some((r, r.condition().matching_conjunct(table, row)?)))
        })
    }

    /// Renders all rules with attribute names, one per line.
    pub fn display<'a>(&'a self, schema: &'a Schema) -> impl fmt::Display + 'a {
        struct D<'a>(&'a RuleSet, &'a Schema);
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                for (i, r) in self.0.rules.iter().enumerate() {
                    writeln!(f, "[{i}] {}", r.display(self.1))?;
                }
                Ok(())
            }
        }
        D(self, schema)
    }
}

impl IntoIterator for RuleSet {
    type Item = Crr;
    type IntoIter = std::vec::IntoIter<Crr>;

    fn into_iter(self) -> Self::IntoIter {
        self.rules.into_iter()
    }
}

/// RMSE/MAE accumulation over `rows`, given the rule and conjunct located
/// for each row: shared by [`RuleSet::evaluate`] and
/// [`crate::CompiledIndex::evaluate`], so their reports can only differ if
/// their locates do.
pub(crate) fn evaluate_with<'r>(
    rules: &'r RuleSet,
    table: &Table,
    rows: &RowSet,
    mut locate: impl FnMut(usize) -> Option<(&'r Crr, &'r Conjunction)>,
) -> EvalReport {
    let target = rules.rules().first().map(Crr::target);
    let mut x = Vec::new();
    let mut sse = 0.0;
    let mut sae = 0.0;
    let mut covered = 0usize;
    let mut scored = 0usize;
    for row in rows.iter() {
        let Some((rule, conj)) = locate(row) else {
            continue;
        };
        covered += 1;
        let (Some(pred), Some(actual)) = (
            rule.predict_at(conj, table, row, &mut x),
            target.and_then(|t| table.value_f64(row, t)),
        ) else {
            continue;
        };
        scored += 1;
        let e = pred - actual;
        sse += e * e;
        sae += e.abs();
    }
    EvalReport {
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
    use crate::{Conjunction, Crr, Dnf, Predicate};
    use crr_data::{AttrId, AttrType, Schema, Value};
    use crr_models::{LinearModel, Model};

    fn table() -> Table {
        let schema = Schema::new(vec![("x", AttrType::Int), ("y", AttrType::Float)]);
        let mut t = Table::new(schema);
        for (x, y) in [(0, 0.0), (1, 1.0), (10, 30.0), (11, 33.0)] {
            t.push_row(vec![Value::Int(x), Value::Float(y)]).unwrap();
        }
        t
    }

    fn x() -> AttrId {
        AttrId(0)
    }

    fn y() -> AttrId {
        AttrId(1)
    }

    fn rule(w: f64, b: f64, rho: f64, cond: Dnf) -> Crr {
        let m = Arc::new(Model::Linear(LinearModel::new(vec![w], b)));
        Crr::new(vec![x()], y(), m, rho, cond).unwrap()
    }

    fn split_set() -> RuleSet {
        RuleSet::from_rules(vec![
            rule(
                1.0,
                0.0,
                0.1,
                Dnf::single(Conjunction::of(vec![Predicate::lt(x(), Value::Int(5))])),
            ),
            rule(
                3.0,
                0.0,
                0.1,
                Dnf::single(Conjunction::of(vec![Predicate::ge(x(), Value::Int(5))])),
            ),
        ])
    }

    #[test]
    fn locate_and_predict() {
        let t = table();
        let s = split_set();
        assert_eq!(s.predict(&t, 1), Some(1.0));
        assert_eq!(s.predict(&t, 2), Some(30.0));
    }

    #[test]
    fn evaluate_reports_exact_fit() {
        let t = table();
        let s = split_set();
        let rep = s.evaluate(&t, &t.all_rows());
        assert_eq!(rep.covered, 4);
        assert_eq!(rep.scored, 4);
        assert!(rep.rmse < 1e-12);
        assert!(rep.mae < 1e-12);
    }

    #[test]
    fn uncovered_rows_detected() {
        let t = table();
        let s = RuleSet::from_rules(vec![rule(
            1.0,
            0.0,
            0.1,
            Dnf::single(Conjunction::of(vec![Predicate::lt(x(), Value::Int(5))])),
        )]);
        assert_eq!(s.uncovered(&t, &t.all_rows()).as_slice(), &[2, 3]);
        let rep = s.evaluate(&t, &t.all_rows());
        assert_eq!(rep.covered, 2);
        assert_eq!(rep.total, 4);
    }

    #[test]
    fn distinct_models_counts_sharing() {
        let m = Arc::new(Model::Linear(LinearModel::new(vec![1.0], 0.0)));
        let r1 = Crr::new(vec![x()], y(), Arc::clone(&m), 0.1, Dnf::tautology()).unwrap();
        let r2 = Crr::new(vec![x()], y(), m, 0.2, Dnf::tautology()).unwrap();
        let shared = RuleSet::from_rules(vec![r1, r2]);
        assert_eq!(shared.len(), 2);
        assert_eq!(shared.num_distinct_models(), 1);
        assert_eq!(split_set().num_distinct_models(), 2);
    }

    #[test]
    fn evaluate_skips_missing_targets() {
        let mut t = table();
        t.set_null(0, y());
        let s = split_set();
        let rep = s.evaluate(&t, &t.all_rows());
        assert_eq!(rep.covered, 4);
        assert_eq!(rep.scored, 3);
    }
}
