//! CRRs as integrity constraints: violation detection and repair hints.
//!
//! The paper frames CRRs as integrity constraints over single tuples
//! (§II-A): a tuple *violates* `φ : (f, ρ, ℂ)` when it satisfies `ℂ` but
//! its target value strays further than `ρ` from the (translated)
//! prediction. This module scans a table against a rule set — the
//! constraint-checking counterpart of discovery, usable for data cleaning
//! (flag suspect GPS fixes, mistyped tax amounts) before or instead of
//! repair.

use crate::RuleSet;
use crr_data::{RowSet, Table};

/// One detected violation.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Violating row.
    pub row: usize,
    /// Index of the violated rule within the rule set.
    pub rule: usize,
    /// Observed target value.
    pub actual: f64,
    /// The rule's (translated) prediction.
    pub predicted: f64,
    /// `|actual − predicted|`, always greater than the rule's ρ.
    pub deviation: f64,
}

/// Summary of a [`check`] run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CheckReport {
    /// All violations found, in row order.
    pub violations: Vec<Violation>,
    /// Rows checked against at least one applicable rule.
    pub checked: usize,
    /// Rows no rule covers (not violations — just unconstrained).
    pub uncovered: usize,
}

impl CheckReport {
    /// True when the table satisfies every rule.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// The violating rows, deduplicated (a row may violate several rules).
    pub fn violating_rows(&self) -> Vec<usize> {
        let mut rows: Vec<usize> = self.violations.iter().map(|v| v.row).collect();
        rows.dedup();
        rows
    }
}

/// Checks every row of `rows` against every rule that covers it.
///
/// Unlike prediction (which stops at the first covering rule), checking
/// tests *all* covering rules: a tuple must satisfy every constraint that
/// applies to it.
pub fn check(rules: &RuleSet, table: &Table, rows: &RowSet) -> CheckReport {
    let mut report = CheckReport::default();
    for row in rows.iter() {
        let mut covered = false;
        for (ri, rule) in rules.rules().iter().enumerate() {
            if !rule.covers(table, row) {
                continue;
            }
            covered = true;
            let (Some(predicted), Some(actual)) = (
                rule.predict(table, row),
                table.value_f64(row, rule.target()),
            ) else {
                continue; // missing values are vacuously satisfied
            };
            let deviation = (actual - predicted).abs();
            if deviation > rule.rho() + 1e-12 {
                report.violations.push(Violation {
                    row,
                    rule: ri,
                    actual,
                    predicted,
                    deviation,
                });
            }
        }
        if covered {
            report.checked += 1;
        } else {
            report.uncovered += 1;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Conjunction, Crr, Dnf, Predicate};
    use crr_data::{AttrId, AttrType, Schema, Value};
    use crr_models::{LinearModel, Model};
    use std::sync::Arc;

    fn x() -> AttrId {
        AttrId(0)
    }

    fn y() -> AttrId {
        AttrId(1)
    }

    fn table_with_outlier() -> Table {
        let schema = Schema::new(vec![("x", AttrType::Float), ("y", AttrType::Float)]);
        let mut t = Table::new(schema);
        for i in 0..20 {
            let noise = if i == 7 { 5.0 } else { 0.0 }; // row 7 is corrupt
            t.push_row(vec![
                Value::Float(i as f64),
                Value::Float(2.0 * i as f64 + noise),
            ])
            .unwrap();
        }
        t
    }

    fn exact_rule(rho: f64) -> RuleSet {
        let m = Arc::new(Model::Linear(LinearModel::new(vec![2.0], 0.0)));
        RuleSet::from_rules(vec![
            Crr::new(vec![x()], y(), m, rho, Dnf::tautology()).unwrap()
        ])
    }

    #[test]
    fn detects_the_outlier() {
        let t = table_with_outlier();
        let rules = exact_rule(0.5);
        let report = check(&rules, &t, &t.all_rows());
        assert!(!report.is_clean());
        assert_eq!(report.violating_rows(), vec![7]);
        let v = &report.violations[0];
        assert_eq!(v.row, 7);
        assert_eq!(v.rule, 0);
        assert!((v.deviation - 5.0).abs() < 1e-12);
        assert_eq!(report.checked, 20);
        assert_eq!(report.uncovered, 0);
    }

    #[test]
    fn generous_rho_is_clean() {
        let t = table_with_outlier();
        let report = check(&exact_rule(6.0), &t, &t.all_rows());
        assert!(report.is_clean());
    }

    #[test]
    fn all_covering_rules_are_checked() {
        // Two overlapping rules; the second is tighter and catches more.
        let t = table_with_outlier();
        let m = Arc::new(Model::Linear(LinearModel::new(vec![2.0], 0.0)));
        let loose = Crr::new(vec![x()], y(), Arc::clone(&m), 6.0, Dnf::tautology()).unwrap();
        let tight = Crr::new(
            vec![x()],
            y(),
            m,
            0.5,
            Dnf::single(Conjunction::of(vec![Predicate::ge(x(), Value::Float(5.0))])),
        )
        .unwrap();
        let rules = RuleSet::from_rules(vec![loose, tight]);
        let report = check(&rules, &t, &t.all_rows());
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].rule, 1);
    }

    #[test]
    fn uncovered_rows_are_counted_not_flagged() {
        let t = table_with_outlier();
        let m = Arc::new(Model::Linear(LinearModel::new(vec![2.0], 0.0)));
        let partial = Crr::new(
            vec![x()],
            y(),
            m,
            0.5,
            Dnf::single(Conjunction::of(vec![Predicate::lt(x(), Value::Float(5.0))])),
        )
        .unwrap();
        let report = check(&RuleSet::from_rules(vec![partial]), &t, &t.all_rows());
        assert!(report.is_clean()); // the outlier at row 7 is uncovered
        assert_eq!(report.checked, 5);
        assert_eq!(report.uncovered, 15);
    }

    #[test]
    fn missing_values_never_violate() {
        let mut t = table_with_outlier();
        t.set_null(7, y());
        let report = check(&exact_rule(0.5), &t, &t.all_rows());
        assert!(report.is_clean());
    }
}
