//! RegTree: a CART-style model tree (\[5\], \[9\], \[12\]) — the paper's primary
//! baseline.
//!
//! Internal nodes split on `A ≤ c` / categorical `A = v` predicates chosen
//! by weighted target variance; leaves hold a regression model of the
//! configured family (F1/F2/F3), like the per-segment models of \[5\]. Each
//! leaf is exactly one conjunction-conditioned CRR, so a fitted tree
//! exports to a [`RuleSet`] — the input of the Figure 9/10 rule-compaction
//! experiment.

use crate::common::{fit_pairs, row_features};
use crate::{BaselineError, BaselinePredictor, Result};
use crr_core::{Conjunction, Crr, Dnf, Predicate, RuleSet};
use crr_data::{AttrId, AttrType, ColumnStats, RowSet, Table, Value};
use crr_models::{fit_model, max_abs_residual, FitConfig, Model, ModelKind, Regressor};
use std::sync::Arc;

/// Model-tree hyper-parameters.
#[derive(Debug, Clone)]
pub struct RegTreeConfig {
    /// Maximum tree depth (paper: regression trees with bounded depth).
    pub max_depth: usize,
    /// Minimum rows per leaf.
    pub min_leaf: usize,
    /// Leaf model family.
    pub fit: FitConfig,
    /// Candidate split thresholds per numeric attribute (quantiles).
    pub candidates_per_attr: usize,
    /// Stop early when a leaf's variance drops below this.
    pub min_variance: f64,
}

impl Default for RegTreeConfig {
    fn default() -> Self {
        RegTreeConfig {
            max_depth: 8,
            min_leaf: 8,
            fit: FitConfig::new(ModelKind::Linear),
            candidates_per_attr: 16,
            min_variance: 1e-12,
        }
    }
}

impl RegTreeConfig {
    /// Config with the given leaf-model family.
    pub fn with_kind(kind: ModelKind) -> Self {
        RegTreeConfig {
            fit: FitConfig::new(kind),
            ..Default::default()
        }
    }
}

/// The RegTree baseline (fit entry point).
#[derive(Debug, Clone, Default)]
pub struct RegTree;

/// One tree node.
#[derive(Debug, Clone)]
enum Node {
    Leaf {
        model: Arc<Model>,
        /// Max training residual — the leaf rule's ρ.
        rho: f64,
    },
    Split {
        pred: Predicate,
        yes: Box<Node>,
        no: Box<Node>,
    },
}

/// A fitted model tree.
#[derive(Debug, Clone)]
pub struct FittedRegTree {
    root: Node,
    inputs: Vec<AttrId>,
    target: AttrId,
    leaves: usize,
}

impl RegTree {
    /// Fits a model tree predicting `target` from `inputs`, splitting on
    /// `condition_attrs` (often a superset of `inputs`, e.g. including
    /// categorical attributes).
    pub fn fit(
        table: &Table,
        rows: &RowSet,
        inputs: &[AttrId],
        condition_attrs: &[AttrId],
        target: AttrId,
        cfg: &RegTreeConfig,
    ) -> Result<FittedRegTree> {
        if rows.is_empty() {
            return Err(BaselineError::TooFewRows { needed: 1, got: 0 });
        }
        if condition_attrs.contains(&target) {
            return Err(BaselineError::BadAttribute(
                "cannot split on the target attribute".into(),
            ));
        }
        let mut leaves = 0usize;
        let root = build(
            table,
            rows,
            inputs,
            condition_attrs,
            target,
            cfg,
            0,
            &mut leaves,
        )?;
        Ok(FittedRegTree {
            root,
            inputs: inputs.to_vec(),
            target,
            leaves,
        })
    }
}

#[allow(clippy::too_many_arguments)]
fn build(
    table: &Table,
    rows: &RowSet,
    inputs: &[AttrId],
    condition_attrs: &[AttrId],
    target: AttrId,
    cfg: &RegTreeConfig,
    depth: usize,
    leaves: &mut usize,
) -> Result<Node> {
    let stats = ColumnStats::compute(table, target, rows);
    let can_split = depth < cfg.max_depth
        && rows.len() >= 2 * cfg.min_leaf
        && stats.variance > cfg.min_variance;
    if can_split {
        if let Some((pred, yes_rows, no_rows)) =
            best_split(table, rows, condition_attrs, target, cfg)
        {
            let yes = build(
                table,
                &yes_rows,
                inputs,
                condition_attrs,
                target,
                cfg,
                depth + 1,
                leaves,
            )?;
            let no = build(
                table,
                &no_rows,
                inputs,
                condition_attrs,
                target,
                cfg,
                depth + 1,
                leaves,
            )?;
            return Ok(Node::Split {
                pred,
                yes: Box::new(yes),
                no: Box::new(no),
            });
        }
    }
    // Leaf: fit the configured model family.
    let (xs, y) = fit_pairs(table, rows, inputs, target);
    let model = if y.is_empty() {
        Model::Constant(crr_models::ConstantModel::new(stats.mean, inputs.len()))
    } else {
        fit_model(&xs, &y, &cfg.fit)?
    };
    let rho = max_abs_residual(&model, &xs, &y);
    *leaves += 1;
    Ok(Node::Leaf {
        model: Arc::new(model),
        rho,
    })
}

/// Best variance-reducing split over quantile thresholds / categories.
fn best_split(
    table: &Table,
    rows: &RowSet,
    condition_attrs: &[AttrId],
    target: AttrId,
    cfg: &RegTreeConfig,
) -> Option<(Predicate, RowSet, RowSet)> {
    let mut best: Option<(f64, Predicate)> = None;
    for &attr in condition_attrs {
        let candidates: Vec<Predicate> = match table.schema().attribute(attr).ty() {
            AttrType::Str => table
                .column(attr)
                .dict()
                .map(|dict| {
                    dict.iter()
                        .map(|v| Predicate::eq(attr, Value::Str(v.clone())))
                        .collect()
                })
                .unwrap_or_default(),
            _ => {
                let s = ColumnStats::compute(table, attr, rows);
                let (Some(lo), Some(hi)) = (s.min, s.max) else {
                    continue;
                };
                if hi <= lo {
                    continue;
                }
                (1..=cfg.candidates_per_attr)
                    .map(|k| {
                        let c = lo + (hi - lo) * k as f64 / (cfg.candidates_per_attr + 1) as f64;
                        let v = match table.schema().attribute(attr).ty() {
                            AttrType::Int => Value::Int(c.round() as i64),
                            _ => Value::Float(c),
                        };
                        Predicate::le(attr, v)
                    })
                    .collect()
            }
        };
        for pred in candidates {
            let (mut n1, mut s1, mut q1) = (0usize, 0.0f64, 0.0f64);
            let (mut n2, mut s2, mut q2) = (0usize, 0.0f64, 0.0f64);
            for r in rows.iter() {
                let Some(v) = table.value_f64(r, target) else {
                    continue;
                };
                if pred.eval(table, r) {
                    n1 += 1;
                    s1 += v;
                    q1 += v * v;
                } else {
                    n2 += 1;
                    s2 += v;
                    q2 += v * v;
                }
            }
            if n1 < cfg.min_leaf || n2 < cfg.min_leaf {
                continue;
            }
            let var = |n: usize, s: f64, q: f64| {
                let m = s / n as f64;
                (q / n as f64 - m * m).max(0.0)
            };
            let score =
                (n1 as f64 * var(n1, s1, q1) + n2 as f64 * var(n2, s2, q2)) / (n1 + n2) as f64;
            if best.as_ref().is_none_or(|(b, _)| score < *b) {
                best = Some((score, pred));
            }
        }
    }
    let (_, pred) = best?;
    let (yes, no) = rows.partition(|r| pred.eval(table, r));
    Some((pred, yes, no))
}

impl FittedRegTree {
    /// Number of leaves.
    pub fn num_leaves(&self) -> usize {
        self.leaves
    }

    /// Exports every leaf as a conjunction-conditioned CRR — the tree as a
    /// rule set, ready for Algorithm 2 compaction (Figure 9).
    pub fn to_ruleset(&self) -> Result<RuleSet> {
        let mut rules = Vec::with_capacity(self.leaves);
        let mut path: Vec<Predicate> = Vec::new();
        collect_rules(&self.root, &mut path, &self.inputs, self.target, &mut rules)?;
        Ok(RuleSet::from_rules(rules))
    }
}

fn collect_rules(
    node: &Node,
    path: &mut Vec<Predicate>,
    inputs: &[AttrId],
    target: AttrId,
    out: &mut Vec<Crr>,
) -> Result<()> {
    match node {
        Node::Leaf { model, rho } => {
            let cond = Dnf::single(Conjunction::of(path.clone()));
            out.push(Crr::new(
                inputs.to_vec(),
                target,
                Arc::clone(model),
                *rho,
                cond,
            )?);
            Ok(())
        }
        Node::Split { pred, yes, no } => {
            path.push(pred.clone());
            collect_rules(yes, path, inputs, target, out)?;
            path.pop();
            path.push(pred.negate());
            collect_rules(no, path, inputs, target, out)?;
            path.pop();
            Ok(())
        }
    }
}

impl BaselinePredictor for FittedRegTree {
    fn name(&self) -> &'static str {
        "RegTree"
    }

    fn predict_row(&self, table: &Table, row: usize) -> Option<f64> {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { model, .. } => {
                    let x = row_features(table, row, &self.inputs)?;
                    return Some(model.predict(&x));
                }
                Node::Split { pred, yes, no } => {
                    // Nulls fail every predicate and fall to the `no` side.
                    node = if pred.eval(table, row) { yes } else { no };
                }
            }
        }
    }

    fn num_rules(&self) -> usize {
        self.leaves
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate_predictor;
    use crr_data::Schema;

    /// Two linear regimes split at x = 100.
    fn table() -> Table {
        let schema = Schema::new(vec![("x", AttrType::Float), ("y", AttrType::Float)]);
        let mut t = Table::new(schema);
        for i in 0..200 {
            let x = i as f64;
            let y = if x < 100.0 { 2.0 * x } else { -x + 500.0 };
            t.push_row(vec![Value::Float(x), Value::Float(y)]).unwrap();
        }
        t
    }

    #[test]
    fn fits_piecewise_linear_data() {
        let t = table();
        let x = t.attr("x").unwrap();
        let y = t.attr("y").unwrap();
        let tree =
            RegTree::fit(&t, &t.all_rows(), &[x], &[x], y, &RegTreeConfig::default()).unwrap();
        let s = evaluate_predictor(&tree, &t, &t.all_rows(), y);
        assert_eq!(s.answered, 200);
        // Quantile thresholds never hit the kink exactly, so one straddling
        // leaf keeps some residual — but the tree must beat a single model
        // by a wide margin (the single linear fit has RMSE ≈ 70 here).
        assert!(s.rmse < 15.0, "rmse {}", s.rmse);
        assert!(tree.num_rules() >= 2);
    }

    #[test]
    fn export_matches_tree_predictions() {
        let t = table();
        let x = t.attr("x").unwrap();
        let y = t.attr("y").unwrap();
        let tree =
            RegTree::fit(&t, &t.all_rows(), &[x], &[x], y, &RegTreeConfig::default()).unwrap();
        let rules = tree.to_ruleset().unwrap();
        assert_eq!(rules.len(), tree.num_rules());
        // Leaf conjunctions partition the space: every row covered exactly.
        assert!(rules.uncovered(&t, &t.all_rows()).is_empty());
        for row in (0..200).step_by(7) {
            let tree_pred = tree.predict_row(&t, row).unwrap();
            let rule_pred = rules.predict(&t, row).unwrap();
            assert!((tree_pred - rule_pred).abs() < 1e-12, "row {row}");
        }
    }

    #[test]
    fn depth_zero_is_single_leaf() {
        let t = table();
        let x = t.attr("x").unwrap();
        let y = t.attr("y").unwrap();
        let cfg = RegTreeConfig {
            max_depth: 0,
            ..Default::default()
        };
        let tree = RegTree::fit(&t, &t.all_rows(), &[x], &[x], y, &cfg).unwrap();
        assert_eq!(tree.num_rules(), 1);
    }

    #[test]
    fn categorical_splits_work() {
        let schema = Schema::new(vec![
            ("g", AttrType::Str),
            ("x", AttrType::Float),
            ("y", AttrType::Float),
        ]);
        let mut t = Table::new(schema);
        for i in 0..100 {
            let g = if i % 2 == 0 { "a" } else { "b" };
            let x = i as f64;
            // Group laws differ by level, so the categorical split is the
            // variance-optimal first cut.
            let y = if g == "a" { x } else { x + 100.0 };
            t.push_row(vec![Value::str(g), Value::Float(x), Value::Float(y)])
                .unwrap();
        }
        let g = t.attr("g").unwrap();
        let x = t.attr("x").unwrap();
        let y = t.attr("y").unwrap();
        let tree = RegTree::fit(
            &t,
            &t.all_rows(),
            &[x],
            &[g, x],
            y,
            &RegTreeConfig::default(),
        )
        .unwrap();
        let s = evaluate_predictor(&tree, &t, &t.all_rows(), y);
        assert!(s.rmse < 1.0, "rmse {}", s.rmse);
    }

    #[test]
    fn split_on_target_rejected() {
        let t = table();
        let y = t.attr("y").unwrap();
        let x = t.attr("x").unwrap();
        assert!(matches!(
            RegTree::fit(&t, &t.all_rows(), &[x], &[y], y, &RegTreeConfig::default()),
            Err(BaselineError::BadAttribute(_))
        ));
    }

    #[test]
    fn min_leaf_respected() {
        let t = table();
        let x = t.attr("x").unwrap();
        let y = t.attr("y").unwrap();
        let cfg = RegTreeConfig {
            min_leaf: 100,
            ..Default::default()
        };
        let tree = RegTree::fit(&t, &t.all_rows(), &[x], &[x], y, &cfg).unwrap();
        // 200 rows, min_leaf 100: at most one split.
        assert!(tree.num_rules() <= 2);
    }
}
