//! Condition post-pruning — the paper's §VII future-work note.
//!
//! Top-down refinement can *over-refine*: a conjunction may carry
//! predicates that no longer matter for the model's validity (the paper
//! suggests χ²-independence testing, as in decision-tree post-pruning
//! \[40\]). [`prune`] greedily removes predicates from each conjunction when
//! (a) the χ² statistic between the predicate and the rule's residual-
//! within-ρ indicator shows independence, and (b) a hard validity check
//! confirms the *widened* condition still satisfies the rule's bias — so
//! pruning never invalidates a rule, it only simplifies conditions.

use crr_core::{Conjunction, Crr, RuleSet};
use crr_data::{RowSet, Table};
use std::time::{Duration, Instant};

/// χ²(1 dof) critical value at significance 0.05.
pub const CHI2_CRIT_05: f64 = 3.841;

/// Pearson χ² statistic of the 2×2 contingency table
/// `[[a, b], [c, d]]` (with 0 for degenerate margins).
pub fn chi2_stat(a: f64, b: f64, c: f64, d: f64) -> f64 {
    let n = a + b + c + d;
    let (r1, r2, c1, c2) = (a + b, c + d, a + c, b + d);
    if n == 0.0 || r1 == 0.0 || r2 == 0.0 || c1 == 0.0 || c2 == 0.0 {
        return 0.0;
    }
    let det = a * d - b * c;
    n * det * det / (r1 * r2 * c1 * c2)
}

/// Counters from one [`prune`] run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PruneStats {
    /// Predicates removed across all conjunctions.
    pub predicates_removed: usize,
    /// Predicates whose removal was attempted.
    pub attempts: usize,
    /// Wall-clock time.
    pub time: Duration,
}

/// Greedily prunes predicates from every conjunction of every rule.
///
/// A predicate is removed when the χ² test over `rows` cannot link it to
/// the rule's residual behaviour *and* the widened conjunction still keeps
/// every covered (complete) row within the rule's `ρ`. Rules keep their
/// models and biases; only conditions are simplified.
pub fn prune(rules: &RuleSet, table: &Table, rows: &RowSet) -> (RuleSet, PruneStats) {
    let start = Instant::now();
    let mut stats = PruneStats::default();
    let mut out = Vec::with_capacity(rules.len());
    for rule in rules.rules() {
        let mut pruned = rule.clone();
        let conjuncts = pruned.condition_mut().conjuncts_mut();
        for conj in conjuncts.iter_mut() {
            let mut i = 0;
            while i < conj.preds().len() {
                stats.attempts += 1;
                let candidate = without_pred(conj, i);
                if removal_is_safe(rule, conj, &candidate, table, rows) {
                    *conj = candidate;
                    stats.predicates_removed += 1;
                    // Do not advance: the predicate at `i` is now a new one.
                } else {
                    i += 1;
                }
            }
        }
        out.push(pruned);
    }
    stats.time = start.elapsed();
    (RuleSet::from_rules(out), stats)
}

/// The conjunction with predicate `idx` removed (built-ins kept).
fn without_pred(conj: &Conjunction, idx: usize) -> Conjunction {
    let preds: Vec<_> = conj
        .preds()
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != idx)
        .map(|(_, p)| p.clone())
        .collect();
    match conj.builtin() {
        Some(b) => Conjunction::with_builtin(preds, b.clone()),
        None => Conjunction::of(preds),
    }
}

/// Both gates: χ² independence of the removed predicate from the residual
/// indicator, then the hard validity check on the widened coverage.
fn removal_is_safe(
    rule: &Crr,
    original: &Conjunction,
    candidate: &Conjunction,
    table: &Table,
    rows: &RowSet,
) -> bool {
    // Rows the widened conjunction would newly cover.
    let widened = candidate.select(table, rows);
    // χ² over the widened coverage: predicate satisfied × residual-within-ρ.
    let (mut a, mut b, mut c, mut d) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    let mut valid = true;
    for r in widened.iter() {
        let within = within_rho(rule, candidate, table, r);
        let in_original = original.eval(table, r);
        match (in_original, within) {
            (true, Some(true)) => a += 1.0,
            (true, Some(false)) => b += 1.0,
            (false, Some(true)) => c += 1.0,
            (false, Some(false)) => {
                d += 1.0;
                valid = false; // a newly covered row violates ρ
            }
            (_, None) => {} // incomplete row: cannot score
        }
    }
    if !valid {
        return false;
    }
    chi2_stat(a, b, c, d) < CHI2_CRIT_05
}

/// Whether row `r` is within the rule's ρ under this conjunction's
/// built-ins; `None` when values are missing.
fn within_rho(rule: &Crr, conj: &Conjunction, table: &Table, r: usize) -> Option<bool> {
    let x: Vec<f64> = rule
        .inputs()
        .iter()
        .map(|&a| table.value_f64(r, a))
        .collect::<Option<Vec<f64>>>()?;
    let actual = table.value_f64(r, rule.target())?;
    let pred = match conj.builtin() {
        Some(t) => rule.model().predict_translated(&x, t),
        None => crr_models::Regressor::predict(rule.model().as_ref(), &x),
    };
    Some((actual - pred).abs() <= rule.rho() + 1e-12)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crr_core::{Dnf, Predicate};
    use crr_data::{AttrId, AttrType, Schema, Value};
    use crr_models::{LinearModel, Model};
    use std::sync::Arc;

    fn x() -> AttrId {
        AttrId(0)
    }

    fn z() -> AttrId {
        AttrId(1)
    }

    fn y() -> AttrId {
        AttrId(2)
    }

    /// y = 2x everywhere; z is an irrelevant attribute.
    fn table() -> Table {
        let schema = Schema::new(vec![
            ("x", AttrType::Float),
            ("z", AttrType::Float),
            ("y", AttrType::Float),
        ]);
        let mut t = Table::new(schema);
        for i in 0..60 {
            t.push_row(vec![
                Value::Float(i as f64),
                Value::Float((i % 7) as f64),
                Value::Float(2.0 * i as f64),
            ])
            .unwrap();
        }
        t
    }

    #[test]
    fn chi2_statistic_basics() {
        // Perfect association.
        assert!(chi2_stat(50.0, 0.0, 0.0, 50.0) > 90.0);
        // Perfect independence.
        assert_eq!(chi2_stat(25.0, 25.0, 25.0, 25.0), 0.0);
        // Degenerate margins.
        assert_eq!(chi2_stat(0.0, 0.0, 0.0, 0.0), 0.0);
        assert_eq!(chi2_stat(10.0, 10.0, 0.0, 0.0), 0.0);
    }

    #[test]
    fn irrelevant_predicate_is_pruned() {
        // Rule valid on all data but over-refined with a z-predicate.
        let m = Arc::new(Model::Linear(LinearModel::new(vec![2.0], 0.0)));
        let cond = Dnf::single(Conjunction::of(vec![
            Predicate::ge(x(), Value::Float(0.0)),
            Predicate::le(z(), Value::Float(3.0)), // spurious refinement
        ]));
        let rule = Crr::new(vec![x()], y(), m, 0.1, cond).unwrap();
        let rules = RuleSet::from_rules(vec![rule]);
        let t = table();
        let (pruned, stats) = prune(&rules, &t, &t.all_rows());
        assert!(stats.predicates_removed >= 1);
        let conj = &pruned.rules()[0].condition().conjuncts()[0];
        assert!(!conj.preds().iter().any(|p| p.attr == z()));
        // Wider coverage, still exact.
        let rep = pruned.evaluate(&t, &t.all_rows());
        assert_eq!(rep.covered, 60);
        assert!(rep.rmse < 1e-12);
    }

    #[test]
    fn load_bearing_predicate_is_kept() {
        // y = 2x only for x < 30; beyond that the rule's model is wrong,
        // so the x < 30 predicate must survive pruning.
        let schema = Schema::new(vec![
            ("x", AttrType::Float),
            ("z", AttrType::Float),
            ("y", AttrType::Float),
        ]);
        let mut t = Table::new(schema);
        for i in 0..60 {
            let yv = if i < 30 { 2.0 * i as f64 } else { 500.0 };
            t.push_row(vec![
                Value::Float(i as f64),
                Value::Float(0.0),
                Value::Float(yv),
            ])
            .unwrap();
        }
        let m = Arc::new(Model::Linear(LinearModel::new(vec![2.0], 0.0)));
        let cond = Dnf::single(Conjunction::of(vec![Predicate::lt(
            x(),
            Value::Float(30.0),
        )]));
        let rule = Crr::new(vec![x()], y(), m, 0.1, cond).unwrap();
        let rules = RuleSet::from_rules(vec![rule]);
        let (pruned, stats) = prune(&rules, &t, &t.all_rows());
        assert_eq!(stats.predicates_removed, 0);
        assert_eq!(
            pruned.rules()[0].condition().conjuncts()[0].preds().len(),
            1
        );
    }

    #[test]
    fn pruning_preserves_rule_validity() {
        let t = table();
        let m = Arc::new(Model::Linear(LinearModel::new(vec![2.0], 0.0)));
        let cond = Dnf::single(Conjunction::of(vec![
            Predicate::ge(x(), Value::Float(10.0)),
            Predicate::lt(x(), Value::Float(20.0)),
            Predicate::le(z(), Value::Float(100.0)),
        ]));
        let rule = Crr::new(vec![x()], y(), m, 0.1, cond).unwrap();
        let rules = RuleSet::from_rules(vec![rule]);
        let (pruned, _) = prune(&rules, &t, &t.all_rows());
        for r in pruned.rules() {
            assert!(r.find_violation(&t, &t.all_rows()).is_none());
        }
    }
}
