//! MCLR: Monte-Carlo conditional regression (\[20\]).
//!
//! Mehta et al. evaluate conditional likelihoods by Monte-Carlo sampling
//! over matched sets; adapted to the regression setting, MCLR fits each
//! stratum by scoring many Monte-Carlo candidate models (each fitted on a
//! random subset) against the *whole* stratum and keeping the best — an
//! even heavier sampling loop than SampLR, matching its position as the
//! slowest baseline in Figures 2–4.

use crate::common::row_features;
use crate::samplr::stratify_rows;
use crate::{BaselineError, BaselinePredictor, Result};
use crr_data::{AttrId, RowSet, Table};
use crr_models::{fit_model, FitConfig, Model, ModelKind, Regressor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// MCLR hyper-parameters.
#[derive(Debug, Clone)]
pub struct MclrConfig {
    /// Monte-Carlo candidates per stratum.
    pub mc_iters: usize,
    /// Subset size per candidate, as a fraction of the stratum.
    pub sample_frac: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MclrConfig {
    fn default() -> Self {
        MclrConfig {
            mc_iters: 120,
            sample_frac: 0.5,
            seed: 23,
        }
    }
}

/// The MCLR baseline (fit entry point).
#[derive(Debug, Clone, Default)]
pub struct Mclr;

/// A fitted MCLR: the best Monte-Carlo model per stratum.
#[derive(Debug, Clone)]
pub struct FittedMclr {
    models: HashMap<u32, Model>,
    stratify: Option<AttrId>,
    inputs: Vec<AttrId>,
}

impl Mclr {
    #[allow(clippy::unwrap_used, clippy::expect_used)] // rows pre-filtered by complete_rows; mc_iters >= 1 guarantees a best
    /// Fits per-stratum best-of-Monte-Carlo linear models.
    pub fn fit(
        table: &Table,
        rows: &RowSet,
        inputs: &[AttrId],
        stratify: Option<AttrId>,
        target: AttrId,
        cfg: &MclrConfig,
    ) -> Result<FittedMclr> {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let strata = stratify_rows(table, rows, stratify);
        if strata.is_empty() {
            return Err(BaselineError::TooFewRows { needed: 1, got: 0 });
        }
        let fit_cfg = FitConfig::new(ModelKind::Linear);
        let mut models = HashMap::with_capacity(strata.len());
        for (code, stratum_rows) in strata {
            let complete = table.complete_rows(inputs, target, &stratum_rows);
            if complete.is_empty() {
                continue;
            }
            let xs: Vec<Vec<f64>> = complete
                .iter()
                .map(|r| {
                    inputs
                        .iter()
                        .map(|&a| table.value_f64(r, a).unwrap())
                        .collect()
                })
                .collect();
            let y: Vec<f64> = complete
                .iter()
                .map(|r| table.value_f64(r, target).unwrap())
                .collect();
            let n = xs.len();
            let d = inputs.len();
            let take = ((n as f64 * cfg.sample_frac) as usize).clamp((d + 1).min(n), n);
            let mut best: Option<(f64, Model)> = None;
            for _ in 0..cfg.mc_iters.max(1) {
                let mut sx = Vec::with_capacity(take);
                let mut sy = Vec::with_capacity(take);
                for _ in 0..take {
                    let i = rng.gen_range(0..n);
                    sx.push(xs[i].clone());
                    sy.push(y[i]);
                }
                let candidate = fit_model(&sx, &sy, &fit_cfg)?;
                // Score against the whole stratum (the expensive part).
                let sse: f64 = xs
                    .iter()
                    .zip(&y)
                    .map(|(x, &t)| {
                        let e = candidate.predict(x) - t;
                        e * e
                    })
                    .sum();
                if best.as_ref().map_or(true, |(b, _)| sse < *b) {
                    best = Some((sse, candidate));
                }
            }
            models.insert(code, best.expect("mc_iters >= 1").1);
        }
        Ok(FittedMclr {
            models,
            stratify,
            inputs: inputs.to_vec(),
        })
    }
}

impl BaselinePredictor for FittedMclr {
    fn name(&self) -> &'static str {
        "MCLR"
    }

    fn predict_row(&self, table: &Table, row: usize) -> Option<f64> {
        let code = match self.stratify {
            None => 0,
            Some(attr) => table.column(attr).get_code(row)?,
        };
        let model = self.models.get(&code)?;
        let x = row_features(table, row, &self.inputs)?;
        Some(model.predict(&x))
    }

    fn num_rules(&self) -> usize {
        self.models.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate_predictor;
    use crr_data::{AttrType, Schema, Value};

    fn grouped_table() -> Table {
        let schema = Schema::new(vec![
            ("g", AttrType::Str),
            ("x", AttrType::Float),
            ("y", AttrType::Float),
        ]);
        let mut t = Table::new(schema);
        for i in 0..160 {
            let g = if i % 2 == 0 { "a" } else { "b" };
            let x = (i / 2) as f64;
            let y = if g == "a" { x + 3.0 } else { 4.0 * x };
            t.push_row(vec![Value::str(g), Value::Float(x), Value::Float(y)])
                .unwrap();
        }
        t
    }

    #[test]
    fn best_of_mc_recovers_group_laws() {
        let t = grouped_table();
        let g = t.attr("g").unwrap();
        let x = t.attr("x").unwrap();
        let y = t.attr("y").unwrap();
        let m = Mclr::fit(&t, &t.all_rows(), &[x], Some(g), y, &MclrConfig::default()).unwrap();
        assert_eq!(m.num_rules(), 2);
        let s = evaluate_predictor(&m, &t, &t.all_rows(), y);
        assert!(s.rmse < 1e-6, "rmse {}", s.rmse);
    }

    #[test]
    fn more_iters_never_hurts_score() {
        let t = grouped_table();
        let g = t.attr("g").unwrap();
        let x = t.attr("x").unwrap();
        let y = t.attr("y").unwrap();
        let few = Mclr::fit(
            &t,
            &t.all_rows(),
            &[x],
            Some(g),
            y,
            &MclrConfig {
                mc_iters: 1,
                seed: 5,
                ..Default::default()
            },
        )
        .unwrap();
        let many = Mclr::fit(
            &t,
            &t.all_rows(),
            &[x],
            Some(g),
            y,
            &MclrConfig {
                mc_iters: 50,
                seed: 5,
                ..Default::default()
            },
        )
        .unwrap();
        let sf = evaluate_predictor(&few, &t, &t.all_rows(), y);
        let sm = evaluate_predictor(&many, &t, &t.all_rows(), y);
        assert!(sm.rmse <= sf.rmse + 1e-9);
    }

    #[test]
    fn deterministic_per_seed() {
        let t = grouped_table();
        let x = t.attr("x").unwrap();
        let y = t.attr("y").unwrap();
        let cfg = MclrConfig::default();
        let a = Mclr::fit(&t, &t.all_rows(), &[x], None, y, &cfg).unwrap();
        let b = Mclr::fit(&t, &t.all_rows(), &[x], None, y, &cfg).unwrap();
        assert_eq!(
            evaluate_predictor(&a, &t, &t.all_rows(), y).rmse,
            evaluate_predictor(&b, &t, &t.all_rows(), y).rmse
        );
    }
}
