//! Algorithm 2: CRR compaction with inference.
//!
//! Input: the (conjunction-conditioned) rules of Algorithm 1, or any rule
//! set such as an exported regression tree. Output: an equivalent, smaller
//! set in which every translation-equivalence class of models is
//! represented once and all its conditions are fused into one DNF.
//!
//! Phase 1 — **rule translation** (lines 3–11): for each rule `φ` popped
//! from the queue, every other rule `φ'` whose model satisfies
//! `f'(X) = f(X + Δ) + δ` is rewritten onto `f`: each conjunction of `ℂ'`
//! composes `(Δ, δ)` into its built-ins (Proposition 9), and `φ'` leaves
//! the queue — its whole equivalence class is already handled by `φ`.
//!
//! Phase 2 — **rule fusion** (lines 12–16): rules now sharing a model merge
//! pairwise: Generalization lifts both to `ρ'' = max(ρ, ρ')`, Fusion takes
//! `ℂ'' = ℂ ∨ ℂ'`.

use crate::Result;
use crr_core::inference::generalization;
use crr_core::{Crr, RuleSet};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Counters describing one compaction run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CompactionStats {
    /// Rules in the input set.
    pub rules_in: usize,
    /// Rules in the compacted set.
    pub rules_out: usize,
    /// Translation rewrites applied (phase 1).
    pub translations: usize,
    /// Fusion merges applied (phase 2).
    pub fusions: usize,
    /// Wall-clock time.
    pub time: Duration,
}

/// Runs Algorithm 2 on `rules` with model-parameter tolerance `tol`
/// (how close two fitted slopes must be to count as the same function —
/// the noise-sensitivity knob of §V-A).
///
/// Pure inference: a translation is applied whenever parameters match
/// within `tol`. With `tol > 0` a translation is *approximate*, drifting
/// by up to `tol · |X|` — safe for tiny tolerances. When compacting rules
/// fitted on noisy data, prefer [`compact_on_data`], which validates every
/// translation against the database as the paper's Algorithm 2 (whose
/// inputs include `D` and `ρ_M`) can.
pub fn compact(rules: &RuleSet, tol: f64) -> Result<(RuleSet, CompactionStats)> {
    compact_impl(rules, tol, None)
}

/// Data-validated compaction: identical to [`compact`], except a
/// translation is only committed when the rewritten rule still predicts
/// every covered row of `table`/`rows` within `rho_max` — rejecting
/// almost-equal-slope rewrites whose drift would exceed the paper's
/// maximum bias. The rewritten rule's `ρ` is re-measured on data.
pub fn compact_on_data(
    rules: &RuleSet,
    tol: f64,
    rho_max: f64,
    table: &crr_data::Table,
    rows: &crr_data::RowSet,
) -> Result<(RuleSet, CompactionStats)> {
    compact_impl(rules, tol, Some((table, rows, rho_max)))
}

fn compact_impl(
    rules: &RuleSet,
    tol: f64,
    validate: Option<(&crr_data::Table, &crr_data::RowSet, f64)>,
) -> Result<(RuleSet, CompactionStats)> {
    let start = Instant::now();
    let mut stats = CompactionStats {
        rules_in: rules.len(),
        ..Default::default()
    };

    // Working set Σ*, phase 1. The queue holds indices into `work`.
    let mut work: Vec<Option<Crr>> = rules.rules().iter().cloned().map(Some).collect();
    let mut queue: VecDeque<usize> = (0..work.len()).collect();
    let mut in_queue: Vec<bool> = vec![true; work.len()];

    while let Some(i) = queue.pop_front() {
        // Line 11: rules translated onto another class left the queue —
        // their equivalence class is already represented by the rule that
        // translated them.
        if !in_queue[i] {
            continue;
        }
        in_queue[i] = false;
        let Some(phi) = work[i].clone() else { continue };
        for j in 0..work.len() {
            if j == i {
                continue;
            }
            let Some(phi_p) = work[j].as_ref() else {
                continue;
            };
            // Line 5: f' ≠ f — identical models are phase 2's job. Both
            // tests are by reference; nothing is cloned until a
            // translation is actually found.
            if Arc::ptr_eq(phi.model(), phi_p.model())
                || phi.model().as_ref() == phi_p.model().as_ref()
            {
                continue;
            }
            // Line 6: ∃ Δ, δ s.t. f'(X) = f(X + Δ) + δ.
            if phi.inputs() != phi_p.inputs()
                || phi.target() != phi_p.target()
                || phi.model().translation_to(phi_p.model(), tol).is_none()
            {
                continue;
            }
            // Lines 8–10: rewrite φ' onto φ's model with composed built-ins.
            let mut rewritten = rewrite_onto(&phi, phi_p, tol)?;
            if let Some((table, rows, rho_max)) = validate {
                // Data-based sharing (Propositions 6–7): instead of the
                // intercept-difference witness (which drifts by (w−w')·X
                // when slopes only match within `tol`), fit the
                // per-conjunct shift δ₀ from the covered rows, then accept
                // only within ρ_M.
                match reshare_on_data(&rewritten, table, rows, rho_max) {
                    Some(valid) => rewritten = valid,
                    None => continue,
                }
            }
            work[j] = Some(rewritten);
            stats.translations += 1;
            // Line 11: φ' leaves the queue — its class is handled.
            in_queue[j] = false;
        }
    }

    // Phase 2 (lines 12–16): fuse rules sharing a model. Rules are grouped
    // by model identity first so fusing k rules costs O(k) condition
    // concatenations instead of the O(k²) of pairwise folding; the
    // pairwise inference steps (Generalization + Fusion) are preserved
    // semantically — concatenation of deduplicated conjunct lists is
    // exactly the fold of Proposition 3.
    let mut groups: Vec<(Crr, Vec<Crr>)> = Vec::new();
    'outer: for rule in work.into_iter().flatten() {
        for (rep, members) in &mut groups {
            let same = Arc::ptr_eq(rep.model(), rule.model())
                || rep.model().as_ref() == rule.model().as_ref();
            if same && rep.inputs() == rule.inputs() && rep.target() == rule.target() {
                members.push(rule);
                continue 'outer;
            }
        }
        groups.push((rule, Vec::new()));
    }
    let mut result: Vec<Crr> = Vec::with_capacity(groups.len());
    for (rep, members) in groups {
        if members.is_empty() {
            result.push(rep);
            continue;
        }
        // Line 13: Generalization to the common rho.
        let rho = members.iter().fold(rep.rho(), |acc, r| acc.max(r.rho()));
        let mut fused = generalization(&rep, rho)?;
        // Line 14: Fusion — concatenate conjuncts, deduplicating by hash.
        let mut seen: HashMap<u64, Vec<usize>> = HashMap::new();
        let mut conjuncts: Vec<crr_core::Conjunction> = fused.condition().conjuncts().to_vec();
        for (i, c) in conjuncts.iter().enumerate() {
            seen.entry(conj_key(c)).or_default().push(i);
        }
        for member in &members {
            stats.fusions += 1;
            for c in member.condition().conjuncts() {
                let key = conj_key(c);
                let bucket = seen.entry(key).or_default();
                if bucket.iter().any(|&i| &conjuncts[i] == c) {
                    continue;
                }
                bucket.push(conjuncts.len());
                conjuncts.push(c.clone());
            }
        }
        *fused.condition_mut() = crr_core::Dnf::of(conjuncts);
        result.push(fused);
    }

    stats.rules_out = result.len();
    stats.time = start.elapsed();
    Ok((RuleSet::from_rules(result), stats))
}

/// Order-sensitive structural hash of a conjunction, for fusion dedup.
fn conj_key(c: &crr_core::Conjunction) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for p in c.preds() {
        p.attr.0.hash(&mut h);
        std::mem::discriminant(&p.op).hash(&mut h);
        match &p.value {
            crr_data::Value::Null => 0u8.hash(&mut h),
            crr_data::Value::Int(v) => {
                1u8.hash(&mut h);
                v.hash(&mut h);
            }
            crr_data::Value::Float(v) => {
                2u8.hash(&mut h);
                v.to_bits().hash(&mut h);
            }
            crr_data::Value::Str(s) => {
                3u8.hash(&mut h);
                s.hash(&mut h);
            }
        }
    }
    if let Some(b) = c.builtin() {
        for d in &b.delta_x {
            d.to_bits().hash(&mut h);
        }
        b.delta_y.to_bits().hash(&mut h);
    }
    h.finish()
}

/// Data-based re-share of `rule`'s model onto its own condition: for each
/// conjunct, the output shift is re-fitted as the midrange residual
/// `δ₀ = (max r + min r) / 2` over the rows that conjunct covers
/// (Proposition 6), and the rule's ρ is re-measured. Returns `None` when
/// any conjunct's best shift still exceeds `rho_max` (translation must be
/// rejected) or nothing is scorable.
fn reshare_on_data(
    rule: &Crr,
    table: &crr_data::Table,
    rows: &crr_data::RowSet,
    rho_max: f64,
) -> Option<Crr> {
    use crr_models::{Regressor, Translation};
    let model = Arc::clone(rule.model());
    let arity = rule.inputs().len();
    let mut condition = rule.condition().clone();
    let mut rho = 0.0f64;
    let mut scorable = false;
    let mut covered: Vec<u32> = Vec::new();
    for conj in condition.conjuncts_mut() {
        // Residuals of the raw model (ignoring the stale builtin) on the
        // rows this conjunct covers. Coverage runs on the compiled kernel
        // (compile once, blocked columnar scan); the selection is ascending
        // like `rows`, so the min/max fold visits residuals in the same
        // order the interpreted per-row loop did.
        crr_core::CompiledConjunction::compile(conj, table)
            .select_into(rows.as_slice(), &mut covered);
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &r in &covered {
            let r = r as usize;
            let x: Option<Vec<f64>> = rule
                .inputs()
                .iter()
                .map(|&a| table.value_f64(r, a))
                .collect();
            let (Some(x), Some(actual)) = (x, table.value_f64(r, rule.target())) else {
                continue;
            };
            let resid = actual - model.predict(&x);
            lo = lo.min(resid);
            hi = hi.max(resid);
        }
        if !lo.is_finite() {
            continue; // conjunct covers nothing scorable; keep as-is
        }
        scorable = true;
        let delta0 = (lo + hi) / 2.0;
        let dev = (hi - lo) / 2.0;
        if dev > rho_max {
            return None;
        }
        rho = rho.max(dev);
        conj.set_builtin(Translation::output_shift(arity, delta0));
    }
    if !scorable {
        return None;
    }
    let mut out = rule.with_model(model, rho);
    *out.condition_mut() = condition;
    Some(out)
}

/// Rewrites `phi_p` to use `phi`'s model: translation inference restricted
/// to `ℂ'` (the paper's lines 8–10).
fn rewrite_onto(phi: &Crr, phi_p: &Crr, tol: f64) -> Result<Crr> {
    let t = phi
        .model()
        .translation_to(phi_p.model(), tol)
        .ok_or(crr_core::CoreError::NoTranslation)?;
    let mut condition = phi_p.condition().clone();
    let arity = phi.inputs().len();
    for c in condition.conjuncts_mut() {
        c.compose_builtin(&t, arity);
    }
    let mut rewritten = phi_p.with_model(Arc::clone(phi.model()), phi_p.rho());
    *rewritten.condition_mut() = condition;
    Ok(rewritten)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crr_core::{Conjunction, Dnf, Predicate};
    use crr_data::{AttrId, AttrType, Schema, Table, Value};
    use crr_models::{LinearModel, Model};

    fn x() -> AttrId {
        AttrId(0)
    }

    fn y() -> AttrId {
        AttrId(1)
    }

    fn table() -> Table {
        let schema = Schema::new(vec![("x", AttrType::Float), ("y", AttrType::Float)]);
        let mut t = Table::new(schema);
        for i in 0..200 {
            let xv = i as f64;
            let yv = if xv < 100.0 { xv } else { xv - 50.0 };
            t.push_row(vec![Value::Float(xv), Value::Float(yv)])
                .unwrap();
        }
        t
    }

    fn rule(w: f64, b: f64, rho: f64, lo: f64, hi: f64) -> Crr {
        let m = Arc::new(Model::Linear(LinearModel::new(vec![w], b)));
        let cond = Dnf::single(Conjunction::of(vec![
            Predicate::ge(x(), Value::Float(lo)),
            Predicate::lt(x(), Value::Float(hi)),
        ]));
        Crr::new(vec![x()], y(), m, rho, cond).unwrap()
    }

    #[test]
    fn translatable_rules_collapse_to_one() {
        // Same slope, different intercepts: one rule after compaction.
        let rules = RuleSet::from_rules(vec![
            rule(1.0, 0.0, 0.1, 0.0, 100.0),
            rule(1.0, -50.0, 0.1, 100.0, 200.0),
        ]);
        let (out, stats) = compact(&rules, 1e-9).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(stats.translations, 1);
        assert_eq!(stats.fusions, 1);
        assert_eq!(out.num_distinct_models(), 1);
        // Semantics preserved: same predictions everywhere.
        let t = table();
        for row in 0..t.num_rows() {
            assert_eq!(rules.predict(&t, row), out.predict(&t, row), "row {row}");
        }
    }

    #[test]
    fn untranslatable_rules_stay_apart() {
        let rules = RuleSet::from_rules(vec![
            rule(1.0, 0.0, 0.1, 0.0, 100.0),
            rule(2.0, 0.0, 0.1, 100.0, 200.0),
        ]);
        let (out, stats) = compact(&rules, 1e-9).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(stats.translations, 0);
    }

    #[test]
    fn identical_models_fuse_without_translation() {
        let m = Arc::new(Model::Linear(LinearModel::new(vec![1.0], 0.0)));
        let mk = |lo: f64, hi: f64, rho: f64| {
            Crr::new(
                vec![x()],
                y(),
                Arc::clone(&m),
                rho,
                Dnf::single(Conjunction::of(vec![
                    Predicate::ge(x(), Value::Float(lo)),
                    Predicate::lt(x(), Value::Float(hi)),
                ])),
            )
            .unwrap()
        };
        let rules = RuleSet::from_rules(vec![mk(0.0, 10.0, 0.1), mk(20.0, 30.0, 0.3)]);
        let (out, stats) = compact(&rules, 1e-9).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(stats.fusions, 1);
        // Generalization picked the max rho.
        assert_eq!(out.rules()[0].rho(), 0.3);
        assert_eq!(out.rules()[0].condition().conjuncts().len(), 2);
    }

    #[test]
    fn chains_of_translations_compose() {
        // Three rules, intercepts 0 / -50 / -80, same slope: all collapse.
        let rules = RuleSet::from_rules(vec![
            rule(1.0, 0.0, 0.1, 0.0, 60.0),
            rule(1.0, -50.0, 0.1, 60.0, 130.0),
            rule(1.0, -80.0, 0.1, 130.0, 200.0),
        ]);
        let (out, _) = compact(&rules, 1e-9).unwrap();
        assert_eq!(out.len(), 1);
        let conjuncts = out.rules()[0].condition().conjuncts();
        assert_eq!(conjuncts.len(), 3);
        // Built-ins record each segment's offset.
        let deltas: Vec<f64> = conjuncts
            .iter()
            .map(|c| c.builtin().map_or(0.0, |b| b.delta_y))
            .collect();
        assert!(deltas.contains(&0.0));
        assert!(deltas.contains(&-50.0));
        assert!(deltas.contains(&-80.0));
    }

    #[test]
    fn compaction_is_idempotent() {
        let rules = RuleSet::from_rules(vec![
            rule(1.0, 0.0, 0.1, 0.0, 100.0),
            rule(1.0, -50.0, 0.1, 100.0, 200.0),
            rule(3.0, 1.0, 0.2, 0.0, 50.0),
        ]);
        let (once, _) = compact(&rules, 1e-9).unwrap();
        let (twice, stats) = compact(&once, 1e-9).unwrap();
        assert_eq!(once.len(), twice.len());
        assert_eq!(stats.translations + stats.fusions, 0);
    }

    #[test]
    fn data_validated_compaction_rejects_drifting_translations() {
        // Second segment's true slope is 1.01: within a loose tol of the
        // first rule's slope 1.0, but over x ∈ [100, 200] no constant shift
        // of f₁ fits it within rho_max — drift (1.01 − 1)·100 / 2 = 0.5.
        let schema = crr_data::Schema::new(vec![("x", AttrType::Float), ("y", AttrType::Float)]);
        let mut t = Table::new(schema);
        for i in 0..200 {
            let xv = i as f64;
            let yv = if xv < 100.0 { xv } else { 1.01 * xv - 51.0 };
            t.push_row(vec![Value::Float(xv), Value::Float(yv)])
                .unwrap();
        }
        let rules = RuleSet::from_rules(vec![
            rule(1.0, 0.0, 0.0, 0.0, 100.0),
            rule(1.01, -51.0, 0.0, 100.0, 200.0),
        ]);
        let loose_tol = 0.02;
        let (pure, _) = compact(&rules, loose_tol).unwrap();
        assert_eq!(pure.len(), 1); // pure inference merges (approximately)
        let (validated, _) = compact_on_data(&rules, loose_tol, 0.11, &t, &t.all_rows()).unwrap();
        // Validation measures the drift and keeps the rules apart.
        assert_eq!(validated.len(), 2);
        // ... and keeps the semantics exact, unlike the pure merge.
        let exact = validated.evaluate(&t, &t.all_rows());
        let drifted = pure.evaluate(&t, &t.all_rows());
        assert!(exact.rmse < 1e-9);
        assert!(drifted.rmse > 0.1);
    }

    #[test]
    fn data_validated_compaction_refits_delta_from_data() {
        let t = table();
        // Same slope; intercepts differ by 50 between the two segments.
        // Validation accepts and re-fits per-conjunct shifts from data.
        let rules = RuleSet::from_rules(vec![
            rule(1.0, 0.0, 0.0, 0.0, 100.0),
            rule(1.0, -50.0, 0.0, 100.0, 200.0),
        ]);
        let (out, stats) = compact_on_data(&rules, 1e-9, 0.01, &t, &t.all_rows()).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(stats.translations, 1);
        let before = rules.evaluate(&t, &t.all_rows());
        let after = out.evaluate(&t, &t.all_rows());
        assert!((before.rmse - after.rmse).abs() < 1e-9);
    }

    #[test]
    fn mixed_set_preserves_rmse() {
        let t = table();
        let rules = RuleSet::from_rules(vec![
            rule(1.0, 0.0, 0.1, 0.0, 50.0),
            rule(1.0, 0.0, 0.1, 50.0, 100.0),
            rule(1.0, -50.0, 0.1, 100.0, 200.0),
        ]);
        let before = rules.evaluate(&t, &t.all_rows());
        let (out, _) = compact(&rules, 1e-9).unwrap();
        let after = out.evaluate(&t, &t.all_rows());
        assert_eq!(out.len(), 1);
        assert!((before.rmse - after.rmse).abs() < 1e-12);
        assert_eq!(before.covered, after.covered);
    }
}
