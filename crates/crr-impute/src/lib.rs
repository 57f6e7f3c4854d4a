//! Missing-data imputation with CRRs — the paper's downstream case study
//! (§VI-E, Figure 10, and the motivation of imputing `t₆` in Table I).
//!
//! The workflow: mask a fraction of target cells ([`mask_random`]), impute
//! each masked cell by locating the CRR whose condition covers the tuple
//! and applying its (translated) model ([`impute_with_rules`]), then score
//! against the held-out originals. A compacted rule set answers the same
//! queries with fewer rules to scan — the time saving Figure 10 reports.
//!
//! # Example
//!
//! ```
//! use crr_datasets::{tax, GenConfig};
//! use crr_discovery::{DiscoveryConfig, DiscoverySession, PredicateGen};
//! use crr_impute::{mask_random, impute_with_rules};
//!
//! let ds = tax(&GenConfig { rows: 300, seed: 2 });
//! let mut table = ds.table.clone();
//! let salary = table.attr("salary").unwrap();
//! let state = table.attr("state").unwrap();
//! let target = table.attr("tax").unwrap();
//! let space = PredicateGen::binary(4).generate(&table, &[salary, state], target, 3);
//! let cfg = DiscoveryConfig::new(vec![salary], target, 5.0);
//! let rules = DiscoverySession::on(&table)
//!     .predicates(space)
//!     .config(cfg)
//!     .run()
//!     .unwrap()
//!     .rules;
//!
//! let plan = mask_random(&mut table, target, 0.1, 99);
//! let report = impute_with_rules(&table, &rules, &plan);
//! assert_eq!(report.imputed + report.unanswered, plan.len());
//! ```

#![deny(unsafe_code)]

use crr_baselines::BaselinePredictor;
use crr_core::RuleSet;
use crr_data::{AttrId, Table, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// The record of which cells were masked, with their original values.
#[derive(Debug, Clone)]
pub struct MaskPlan {
    /// The masked attribute.
    pub attr: AttrId,
    /// `(row, original value)` pairs.
    masked: Vec<(usize, f64)>,
}

impl MaskPlan {
    /// Number of masked cells.
    pub fn len(&self) -> usize {
        self.masked.len()
    }

    /// True when nothing was masked.
    pub fn is_empty(&self) -> bool {
        self.masked.is_empty()
    }

    /// The masked `(row, original)` pairs.
    pub fn masked(&self) -> &[(usize, f64)] {
        &self.masked
    }
}

/// Masks a random `frac` of `attr`'s present numeric cells in place,
/// remembering the originals for scoring. Deterministic per seed.
pub fn mask_random(table: &mut Table, attr: AttrId, frac: f64, seed: u64) -> MaskPlan {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut masked = Vec::new();
    for row in 0..table.num_rows() {
        if let Some(v) = table.value_f64(row, attr) {
            if rng.gen_bool(frac.clamp(0.0, 1.0)) {
                masked.push((row, v));
                table.set_null(row, attr);
            }
        }
    }
    MaskPlan { attr, masked }
}

/// Result of one imputation run.
#[derive(Debug, Clone, PartialEq)]
pub struct ImputeReport {
    /// RMSE of imputed vs. held-out original values.
    pub rmse: f64,
    /// Mean absolute error.
    pub mae: f64,
    /// Cells the method imputed.
    pub imputed: usize,
    /// Cells no rule/model could answer.
    pub unanswered: usize,
    /// Wall-clock imputation time (rule locating + prediction).
    pub time: Duration,
}

fn finish(sse: f64, sae: f64, imputed: usize, unanswered: usize, start: Instant) -> ImputeReport {
    ImputeReport {
        rmse: if imputed > 0 {
            (sse / imputed as f64).sqrt()
        } else {
            0.0
        },
        mae: if imputed > 0 {
            sae / imputed as f64
        } else {
            0.0
        },
        imputed,
        unanswered,
        time: start.elapsed(),
    }
}

/// Imputes every masked cell with a CRR rule set (rule locating per tuple,
/// then the located rule's translated prediction).
pub fn impute_with_rules(table: &Table, rules: &RuleSet, plan: &MaskPlan) -> ImputeReport {
    let start = Instant::now();
    let mut sse = 0.0;
    let mut sae = 0.0;
    let mut imputed = 0usize;
    let mut unanswered = 0usize;
    for &(row, original) in &plan.masked {
        match rules.predict(table, row) {
            Some(pred) => {
                imputed += 1;
                let e = pred - original;
                sse += e * e;
                sae += e.abs();
            }
            None => unanswered += 1,
        }
    }
    finish(sse, sae, imputed, unanswered, start)
}

/// Imputes every masked cell with a fitted baseline predictor.
pub fn impute_with_baseline(
    table: &Table,
    predictor: &dyn BaselinePredictor,
    plan: &MaskPlan,
) -> ImputeReport {
    let start = Instant::now();
    let mut sse = 0.0;
    let mut sae = 0.0;
    let mut imputed = 0usize;
    let mut unanswered = 0usize;
    for &(row, original) in &plan.masked {
        match predictor.predict_row(table, row) {
            Some(pred) => {
                imputed += 1;
                let e = pred - original;
                sse += e * e;
                sae += e.abs();
            }
            None => unanswered += 1,
        }
    }
    finish(sse, sae, imputed, unanswered, start)
}

/// An imputed value with its rule-backed guarantee: if the tuple satisfies
/// the located rule (which discovery certified on the training data), the
/// true value lies in `[value − rho, value + rho]`.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalImputation {
    /// Point estimate `f(t.X + x) + y`.
    pub value: f64,
    /// The located rule's maximum bias ρ — half-width of the guarantee.
    pub rho: f64,
    /// Index of the located rule in the rule set.
    pub rule: usize,
}

impl IntervalImputation {
    /// The guaranteed interval `[value − rho, value + rho]`.
    pub fn interval(&self) -> (f64, f64) {
        (self.value - self.rho, self.value + self.rho)
    }

    /// Whether a later-observed true value is consistent with the rule.
    pub fn contains(&self, actual: f64) -> bool {
        let (lo, hi) = self.interval();
        (lo..=hi).contains(&actual)
    }
}

/// Interval imputation: unlike point imputation, carries each answer's
/// rule-backed error bound — CRRs are constraints, so the bound is a
/// certificate, not a confidence heuristic.
#[allow(clippy::expect_used)] // locate returned a reference into this very set
pub fn impute_interval(table: &Table, rules: &RuleSet, row: usize) -> Option<IntervalImputation> {
    let rule = rules.locate(table, row)?;
    let value = rule.predict(table, row)?;
    let idx = rules
        .rules()
        .iter()
        .position(|r| std::ptr::eq(r, rule))
        .expect("located rule is in the set");
    Some(IntervalImputation {
        value,
        rho: rule.rho(),
        rule: idx,
    })
}

/// Writes the rule-set imputations back into the table (the actual repair,
/// as for `t₆` in the paper's Table I). Returns how many cells were filled.
pub fn fill_missing(table: &mut Table, rules: &RuleSet, attr: AttrId) -> usize {
    let mut filled = 0usize;
    for row in 0..table.num_rows() {
        if table.value(row, attr).is_null() {
            if let Some(pred) = rules.predict(table, row) {
                table.set_value(row, attr, Value::Float(pred));
                filled += 1;
            }
        }
    }
    filled
}

#[cfg(test)]
mod tests {
    use super::*;
    use crr_core::{Conjunction, Crr, Dnf, Predicate};
    use crr_data::{AttrType, Schema};
    use crr_models::{LinearModel, Model};
    use std::sync::Arc;

    fn table() -> Table {
        let schema = Schema::new(vec![("x", AttrType::Float), ("y", AttrType::Float)]);
        let mut t = Table::new(schema);
        for i in 0..100 {
            let x = i as f64;
            let y = if x < 50.0 { 2.0 * x } else { 2.0 * x + 10.0 };
            t.push_row(vec![Value::Float(x), Value::Float(y)]).unwrap();
        }
        t
    }

    fn rules(t: &Table) -> RuleSet {
        let x = t.attr("x").unwrap();
        let y = t.attr("y").unwrap();
        let m = Arc::new(Model::Linear(LinearModel::new(vec![2.0], 0.0)));
        let lo = Crr::new(
            vec![x],
            y,
            Arc::clone(&m),
            0.0,
            Dnf::single(Conjunction::of(vec![Predicate::lt(x, Value::Float(50.0))])),
        )
        .unwrap();
        let hi = Crr::new(
            vec![x],
            y,
            m,
            0.0,
            Dnf::single(Conjunction::with_builtin(
                vec![Predicate::ge(x, Value::Float(50.0))],
                crr_models::Translation {
                    delta_x: vec![0.0],
                    delta_y: 10.0,
                },
            )),
        )
        .unwrap();
        RuleSet::from_rules(vec![lo, hi])
    }

    #[test]
    fn mask_is_deterministic_and_reversible_by_plan() {
        let mut t1 = table();
        let mut t2 = table();
        let y = t1.attr("y").unwrap();
        let p1 = mask_random(&mut t1, y, 0.2, 7);
        let p2 = mask_random(&mut t2, y, 0.2, 7);
        assert_eq!(p1.masked(), p2.masked());
        assert!(p1.len() > 5 && p1.len() < 40);
        assert_eq!(t1.null_count(), p1.len());
    }

    #[test]
    fn rule_imputation_recovers_exact_values() {
        let mut t = table();
        let y = t.attr("y").unwrap();
        let plan = mask_random(&mut t, y, 0.3, 13);
        let rules = rules(&t);
        let report = impute_with_rules(&t, &rules, &plan);
        assert_eq!(report.imputed, plan.len());
        assert_eq!(report.unanswered, 0);
        assert!(report.rmse < 1e-12, "rmse {}", report.rmse);
    }

    #[test]
    fn translated_rule_imputes_shifted_segment() {
        let mut t = table();
        let y = t.attr("y").unwrap();
        // Mask only high-segment rows: served by the translated rule.
        t.set_null(80, y);
        let plan = MaskPlan {
            attr: y,
            masked: vec![(80, 170.0)],
        };
        let report = impute_with_rules(&t, &rules(&t), &plan);
        assert_eq!(report.imputed, 1);
        assert!(report.rmse < 1e-12);
    }

    #[test]
    fn fill_missing_writes_back() {
        let mut t = table();
        let y = t.attr("y").unwrap();
        mask_random(&mut t, y, 0.2, 5);
        let nulls = t.null_count();
        assert!(nulls > 0);
        let rules = rules(&t);
        let filled = fill_missing(&mut t, &rules, y);
        assert_eq!(filled, nulls);
        assert_eq!(t.null_count(), 0);
        assert_eq!(t.value_f64(10, y), Some(20.0));
    }

    #[test]
    fn uncovered_cells_are_unanswered() {
        let mut t = table();
        let x = t.attr("x").unwrap();
        let y = t.attr("y").unwrap();
        let m = Arc::new(Model::Linear(LinearModel::new(vec![2.0], 0.0)));
        let only_low = RuleSet::from_rules(vec![Crr::new(
            vec![x],
            y,
            m,
            0.0,
            Dnf::single(Conjunction::of(vec![Predicate::lt(x, Value::Float(50.0))])),
        )
        .unwrap()]);
        t.set_null(80, y);
        let plan = MaskPlan {
            attr: y,
            masked: vec![(80, 170.0)],
        };
        let report = impute_with_rules(&t, &only_low, &plan);
        assert_eq!(report.unanswered, 1);
        assert_eq!(report.imputed, 0);
    }

    #[test]
    fn interval_imputation_certifies_the_truth() {
        let mut t = table();
        let y = t.attr("y").unwrap();
        let rules = rules(&t);
        // Mask a low-segment and a high-segment (translated-rule) cell.
        for (row, original) in [(10usize, 20.0f64), (80, 170.0)] {
            t.set_null(row, y);
            let imp = impute_interval(&t, &rules, row).unwrap();
            // Exact rules here: rho = 0 and the point estimate is the truth.
            assert_eq!(imp.rho, 0.0);
            assert!(imp.contains(original), "row {row}: {imp:?}");
            assert_eq!(imp.value, original);
        }
    }

    #[test]
    fn interval_widths_follow_rule_rho() {
        let t = table();
        let x = t.attr("x").unwrap();
        let y = t.attr("y").unwrap();
        let m = Arc::new(Model::Linear(LinearModel::new(vec![2.0], 0.0)));
        let loose =
            RuleSet::from_rules(vec![Crr::new(vec![x], y, m, 3.5, Dnf::tautology()).unwrap()]);
        let imp = impute_interval(&t, &loose, 5).unwrap();
        assert_eq!(imp.rho, 3.5);
        assert_eq!(imp.interval(), (10.0 - 3.5, 10.0 + 3.5));
        assert_eq!(imp.rule, 0);
        assert!(imp.contains(10.0) && !imp.contains(14.0));
    }

    #[test]
    fn interval_imputation_none_when_uncovered() {
        let t = table();
        let x = t.attr("x").unwrap();
        let y = t.attr("y").unwrap();
        let m = Arc::new(Model::Linear(LinearModel::new(vec![2.0], 0.0)));
        let partial = RuleSet::from_rules(vec![Crr::new(
            vec![x],
            y,
            m,
            0.0,
            Dnf::single(Conjunction::of(vec![Predicate::lt(x, Value::Float(10.0))])),
        )
        .unwrap()]);
        assert!(impute_interval(&t, &partial, 50).is_none());
    }

    #[test]
    fn zero_frac_masks_nothing() {
        let mut t = table();
        let y = t.attr("y").unwrap();
        let plan = mask_random(&mut t, y, 0.0, 1);
        assert!(plan.is_empty());
        assert_eq!(t.null_count(), 0);
    }
}
