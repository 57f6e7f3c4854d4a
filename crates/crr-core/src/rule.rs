use crate::{Conjunction, CoreError, Dnf, Result};
use crr_data::{AttrId, RowSet, Schema, Table};
use crr_models::{Model, Regressor};
use std::fmt;
use std::sync::Arc;

/// A conditional regression rule `φ : (f, ρ, ℂ)` (Definition 1).
///
/// * `model` — the regression function `f : X → Y`;
/// * `rho` — the maximum bias between `t.Y` and the (translated)
///   prediction;
/// * `condition` — a DNF over the non-target attributes selecting where the
///   rule applies; each conjunction may carry built-in predicates
///   `x = Δ, y = δ` that translate the model for that part of the data.
///
/// Models are stored behind [`Arc`] because model *sharing* is the point of
/// the paper: many rules (and the discovery pool `ℱ`) reference the same
/// fitted function without copying it.
#[derive(Debug, Clone)]
pub struct Crr {
    inputs: Vec<AttrId>,
    target: AttrId,
    model: Arc<Model>,
    rho: f64,
    condition: Dnf,
}

impl Crr {
    /// Builds a rule, validating Definition 1's side conditions: the
    /// condition must not mention the target `Y`, built-in arities must
    /// match `|X|`, and `ρ ≥ 0`.
    pub fn new(
        inputs: Vec<AttrId>,
        target: AttrId,
        model: Arc<Model>,
        rho: f64,
        condition: Dnf,
    ) -> Result<Crr> {
        if condition.attrs().contains(&target) {
            return Err(CoreError::PredicateOnTarget { attr: target.0 });
        }
        for c in condition.conjuncts() {
            if let Some(b) = c.builtin() {
                if b.delta_x.len() != inputs.len() {
                    return Err(CoreError::BuiltinArity {
                        expected: inputs.len(),
                        got: b.delta_x.len(),
                    });
                }
            }
        }
        if model.num_inputs() != inputs.len() {
            return Err(CoreError::SchemaMismatch(format!(
                "model expects {} inputs, rule has |X| = {}",
                model.num_inputs(),
                inputs.len()
            )));
        }
        debug_assert!(rho >= 0.0, "bias must be non-negative");
        Ok(Crr {
            inputs,
            target,
            model,
            rho: rho.max(0.0),
            condition,
        })
    }

    /// The attributes `X` the model reads, in model-input order.
    pub fn inputs(&self) -> &[AttrId] {
        &self.inputs
    }

    /// The target attribute `Y`.
    pub fn target(&self) -> AttrId {
        self.target
    }

    /// The shared regression function `f`.
    pub fn model(&self) -> &Arc<Model> {
        &self.model
    }

    /// The maximum bias `ρ`.
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// The condition `ℂ`.
    pub fn condition(&self) -> &Dnf {
        &self.condition
    }

    /// Mutable condition access (used by compaction to rewrite built-ins).
    pub fn condition_mut(&mut self) -> &mut Dnf {
        &mut self.condition
    }

    /// Replaces the model and bias, keeping `X`, `Y` and the condition
    /// (compaction's model unification).
    pub fn with_model(&self, model: Arc<Model>, rho: f64) -> Crr {
        Crr {
            model,
            rho,
            ..self.clone()
        }
    }

    /// `t ⊨ ℂ`: the rule's condition covers this tuple.
    pub fn covers(&self, table: &Table, row: usize) -> bool {
        self.condition.eval(table, row)
    }

    /// The translated prediction `f(t.X + x) + y` for a covered tuple,
    /// using the built-ins of the first conjunction the tuple satisfies.
    /// `None` when the tuple is not covered or has missing inputs.
    pub fn predict(&self, table: &Table, row: usize) -> Option<f64> {
        let conj = self.condition.matching_conjunct(table, row)?;
        self.predict_at(conj, table, row, &mut Vec::new())
    }

    /// The prediction at `row` under `conj`, the conjunction of this rule
    /// found to cover the row: the model applied to the row's inputs,
    /// translated by `conj`'s built-ins. The inputs are read into `x`, a
    /// buffer the caller may reuse across rows. `None` when an input is
    /// missing.
    pub fn predict_at(
        &self,
        conj: &Conjunction,
        table: &Table,
        row: usize,
        x: &mut Vec<f64>,
    ) -> Option<f64> {
        x.clear();
        for &a in &self.inputs {
            x.push(table.value_f64(row, a)?);
        }
        Some(match conj.builtin() {
            Some(t) => self.model.predict_translated(x, t),
            None => self.model.predict(x),
        })
    }

    /// Rule satisfaction `t ⊨ φ`: vacuously true off-condition, otherwise
    /// the translated prediction must be within `ρ` of `t.Y`.
    ///
    /// A covered tuple with a *missing* target or input cannot be checked;
    /// following the constraint-satisfaction convention for nulls, it
    /// satisfies the rule.
    pub fn satisfied_by(&self, table: &Table, row: usize) -> bool {
        if !self.covers(table, row) {
            return true;
        }
        let (Some(pred), Some(actual)) =
            (self.predict(table, row), table.value_f64(row, self.target))
        else {
            return true;
        };
        (actual - pred).abs() <= self.rho + 1e-12
    }

    /// Checks satisfaction over a row set; returns the first violating row.
    pub fn find_violation(&self, table: &Table, rows: &RowSet) -> Option<usize> {
        rows.iter().find(|&r| !self.satisfied_by(table, r))
    }

    /// The rows of `rows` covered by the condition.
    pub fn covered_rows(&self, table: &Table, rows: &RowSet) -> RowSet {
        self.condition.select(table, rows)
    }

    /// True when the rule's conjunctions carry a non-identity translation —
    /// i.e. the rule *shares* a model across parts of the data.
    pub fn uses_translation(&self) -> bool {
        self.condition
            .conjuncts()
            .iter()
            .any(|c| c.builtin().is_some_and(|t| !t.is_identity()))
    }

    /// Renders the rule with attribute names.
    pub fn display<'a>(&'a self, schema: &'a Schema) -> impl fmt::Display + 'a {
        struct D<'a>(&'a Crr, &'a Schema);
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let target = self.1.attribute(self.0.target).name();
                write!(
                    f,
                    "{} ~ {} [rho={:.4}] when {}",
                    target,
                    self.0.model,
                    self.0.rho,
                    self.0.condition.display(self.1)
                )
            }
        }
        D(self, schema)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Predicate;
    use crr_data::{AttrType, Schema, Value};
    use crr_models::{LinearModel, Translation};

    fn table() -> Table {
        let schema = Schema::new(vec![("date", AttrType::Int), ("lat", AttrType::Float)]);
        let mut t = Table::new(schema);
        for (d, l) in [(0, 10.0), (10, 20.0), (20, 30.5), (30, 40.0)] {
            t.push_row(vec![Value::Int(d), Value::Float(l)]).unwrap();
        }
        t
    }

    fn date() -> AttrId {
        AttrId(0)
    }

    fn lat() -> AttrId {
        AttrId(1)
    }

    fn line_rule(rho: f64, cond: Dnf) -> Crr {
        // lat = date + 10.
        let model = Arc::new(Model::Linear(LinearModel::new(vec![1.0], 10.0)));
        Crr::new(vec![date()], lat(), model, rho, cond).unwrap()
    }

    #[test]
    fn satisfaction_within_bias() {
        let rule = line_rule(0.5, Dnf::tautology());
        let t = table();
        for r in 0..t.num_rows() {
            assert!(rule.satisfied_by(&t, r), "row {r}");
        }
        let tight = line_rule(0.2, Dnf::tautology());
        assert!(!tight.satisfied_by(&t, 2)); // |30.5 - 30| = 0.5 > 0.2
    }

    #[test]
    fn off_condition_is_vacuous() {
        let cond = Dnf::single(Conjunction::of(vec![Predicate::ge(date(), Value::Int(25))]));
        let rule = line_rule(0.0, cond);
        let t = table();
        // Row 2 violates the model but is not covered.
        assert!(!rule.covers(&t, 2));
        assert!(rule.satisfied_by(&t, 2));
        assert!(rule.covers(&t, 3));
        assert!(rule.satisfied_by(&t, 3));
    }

    #[test]
    fn builtin_translates_prediction() {
        // Model fits dates 0..30; apply it to dates 1000.. via x = -1000.
        let shifted = Conjunction::with_builtin(
            vec![Predicate::ge(date(), Value::Int(990))],
            Translation {
                delta_x: vec![-1000.0],
                delta_y: 2.0,
            },
        );
        let base = Conjunction::of(vec![Predicate::lt(date(), Value::Int(990))]);
        let rule = line_rule(0.5, Dnf::of(vec![base, shifted]));
        let mut t = table();
        t.push_row(vec![Value::Int(1010), Value::Float(22.0)])
            .unwrap();
        // f(1010 - 1000) + 2 = 10 + 10 + 2 = 22.
        assert_eq!(rule.predict(&t, 4), Some(22.0));
        assert!(rule.satisfied_by(&t, 4));
        assert!(rule.uses_translation());
    }

    #[test]
    fn rejects_predicate_on_target() {
        let cond = Dnf::single(Conjunction::of(vec![Predicate::ge(
            lat(),
            Value::Float(0.0),
        )]));
        let model = Arc::new(Model::Linear(LinearModel::new(vec![1.0], 0.0)));
        assert!(matches!(
            Crr::new(vec![date()], lat(), model, 0.1, cond),
            Err(CoreError::PredicateOnTarget { .. })
        ));
    }

    #[test]
    fn rejects_builtin_arity_mismatch() {
        let cond = Dnf::single(Conjunction::with_builtin(
            vec![],
            Translation {
                delta_x: vec![1.0, 2.0],
                delta_y: 0.0,
            },
        ));
        let model = Arc::new(Model::Linear(LinearModel::new(vec![1.0], 0.0)));
        assert!(matches!(
            Crr::new(vec![date()], lat(), model, 0.1, cond),
            Err(CoreError::BuiltinArity {
                expected: 1,
                got: 2
            })
        ));
    }

    #[test]
    fn rejects_model_arity_mismatch() {
        let model = Arc::new(Model::Linear(LinearModel::new(vec![1.0, 2.0], 0.0)));
        assert!(Crr::new(vec![date()], lat(), model, 0.1, Dnf::tautology()).is_err());
    }

    #[test]
    fn missing_values_are_vacuously_satisfied() {
        let rule = line_rule(0.0, Dnf::tautology());
        let mut t = table();
        t.set_null(0, lat());
        assert!(rule.satisfied_by(&t, 0));
        assert_eq!(rule.predict(&t, 0), Some(10.0)); // inputs present
        t.set_null(1, date());
        assert_eq!(rule.predict(&t, 1), None); // input missing
    }

    #[test]
    fn find_violation_reports_first_bad_row() {
        let rule = line_rule(0.2, Dnf::tautology());
        let t = table();
        assert_eq!(rule.find_violation(&t, &t.all_rows()), Some(2));
        let ok = line_rule(0.5, Dnf::tautology());
        assert_eq!(ok.find_violation(&t, &t.all_rows()), None);
    }

    #[test]
    fn display_includes_condition() {
        let t = table();
        let rule = line_rule(
            0.5,
            Dnf::single(Conjunction::of(vec![Predicate::lt(
                date(),
                Value::Int(100),
            )])),
        );
        let s = rule.display(t.schema()).to_string();
        assert!(s.contains("lat ~"), "{s}");
        assert!(s.contains("date < 100"), "{s}");
    }
}
