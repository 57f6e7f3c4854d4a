//! Predicate-space generation — the three styles compared in Table III.
//!
//! The paper's default (§VI-A2): for each attribute domain, predicates
//! `A φ c` with `φ ∈ {>, ≤}` at *binary-separation* constants — recursive
//! midpoints, so `2ⁿ` predicates segment the domain into `2ⁿ⁻¹` sections.
//! Alternatives: *random* constants from the domain, and *expert*
//! constants supplied from ground-truth knowledge (here: the generators'
//! true segment boundaries).
//!
//! Categorical attributes always contribute equality predicates `A = v`
//! per distinct value — the natural segregation the paper uses for
//! BirdMap's birds.

use crr_core::Predicate;
use crr_data::{AttrId, AttrType, ColumnStats, RowSet, Table, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// A generated predicate space `ℙ`, with no predicates on the target.
///
/// Alongside the flat predicate list, the space keeps per-attribute sorted
/// constant tables so that "find *any* predicate separating this
/// partition" — the coverage-critical fallback of Algorithm 1's split step
/// — is a binary search instead of a scan over `|ℙ|`, and so that split
/// scoring can rank each run row once among its attribute's constants.
#[derive(Debug, Clone, Default)]
pub struct PredicateSpace {
    preds: Vec<Predicate>,
    /// Per numeric attribute: `(constant, index of an `A ≤ c`-style
    /// predicate)` sorted by constant.
    numeric_sorted: Vec<(AttrId, Vec<(f64, u32)>)>,
    /// Per attribute compared against a number: every numeric constant
    /// (`Value::as_f64`, NaN left out), sorted by `total_cmp` and
    /// deduplicated by `==`.
    numeric_consts: BTreeMap<AttrId, Vec<f64>>,
    /// Per categorical attribute: indices of its equality predicates.
    categorical_eq: Vec<(AttrId, Vec<u32>)>,
}

impl PredicateSpace {
    /// Wraps an explicit predicate list.
    #[allow(clippy::expect_used)] // the arm matches numeric values only
    pub fn from_predicates(preds: Vec<Predicate>) -> Self {
        let mut numeric: BTreeMap<AttrId, Vec<(f64, u32)>> = BTreeMap::new();
        let mut numeric_consts: BTreeMap<AttrId, Vec<f64>> = BTreeMap::new();
        let mut categorical: BTreeMap<AttrId, Vec<u32>> = BTreeMap::new();
        for (i, p) in preds.iter().enumerate() {
            match &p.value {
                Value::Int(_) | Value::Float(_) => {
                    let c = p.value.as_f64().expect("numeric");
                    if !c.is_nan() {
                        numeric_consts.entry(p.attr).or_default().push(c);
                    }
                    // One entry per upper-bound-style predicate is enough:
                    // `A ≤ c` (or `A < c`) separates any partition whose
                    // values straddle c.
                    if matches!(p.op, crr_core::Op::Le | crr_core::Op::Lt) {
                        numeric.entry(p.attr).or_default().push((c, i as u32));
                    }
                }
                Value::Str(_) => {
                    if p.op == crr_core::Op::Eq {
                        categorical.entry(p.attr).or_default().push(i as u32);
                    }
                }
                Value::Null => {}
            }
        }
        let numeric_sorted = numeric
            .into_iter()
            .map(|(a, mut v)| {
                v.sort_unstable_by(|x, y| x.0.total_cmp(&y.0));
                (a, v)
            })
            .collect();
        for cs in numeric_consts.values_mut() {
            cs.sort_unstable_by(f64::total_cmp);
            // `==`, not bit equality: −0.0 and 0.0 are one constant.
            cs.dedup_by(|a, b| a == b);
        }
        let categorical_eq = categorical.into_iter().collect();
        PredicateSpace {
            preds,
            numeric_sorted,
            numeric_consts,
            categorical_eq,
        }
    }

    /// Every numeric comparison constant on `attr` (NaN left out), sorted
    /// by `total_cmp` and deduplicated by `==`; empty when no predicate
    /// compares `attr` against a number. A superset of the constants of
    /// the `attr` predicates' compiled numeric kernels, which coerce with
    /// the same `as f64` and compile NaN constants to `Never`.
    pub(crate) fn numeric_constants(&self, attr: AttrId) -> &[f64] {
        self.numeric_consts.get(&attr).map_or(&[], Vec::as_slice)
    }

    /// Finds *some* predicate separating `rows` (both sides non-empty), or
    /// `None` when the partition is provably unsplittable by this space.
    ///
    /// Numeric attributes: compute the partition's (min, max) in one pass,
    /// then binary-search the sorted constants for a bound that splits
    /// that range — `A ≤ c` separates when `min ≤ c < max`, the strict
    /// `A < c` when `min < c ≤ max`.
    /// Categorical attributes: any equality predicate on a present value
    /// separates when at least two distinct values occur.
    pub fn separating_candidate(
        &self,
        table: &crr_data::Table,
        rows: &crr_data::RowSet,
    ) -> Option<u32> {
        for (attr, sorted) in &self.numeric_sorted {
            let col = table.column(*attr);
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for r in rows.iter() {
                if let Some(v) = col.get_f64(r) {
                    lo = lo.min(v);
                    hi = hi.max(v);
                }
            }
            if lo >= hi {
                continue; // constant or all-null on this attribute
            }
            // Constants in [lo, hi]; every one strictly inside separates,
            // so the scan passes at most the bounds sitting on lo or hi.
            let k = sorted.partition_point(|&(c, _)| c < lo);
            for &(c, idx) in sorted[k..].iter().take_while(|&&(c, _)| c <= hi) {
                let separates = if self.preds[idx as usize].op == crr_core::Op::Lt {
                    lo < c
                } else {
                    c < hi
                };
                if separates {
                    return Some(idx);
                }
            }
        }
        for (attr, eq_idxs) in &self.categorical_eq {
            let col = table.column(*attr);
            let mut first: Option<u32> = None;
            let mut distinct = false;
            for r in rows.iter() {
                match (first, col.get_code(r)) {
                    (_, None) => {}
                    (None, Some(code)) => first = Some(code),
                    (Some(f), Some(code)) if code != f => {
                        distinct = true;
                        break;
                    }
                    _ => {}
                }
            }
            if !distinct {
                continue;
            }
            // Any equality predicate on a value present in the partition
            // separates; try each (few categories per attribute).
            for &idx in eq_idxs {
                let p = &self.preds[idx as usize];
                let yes = rows.iter().filter(|&r| p.eval(table, r)).count();
                if yes > 0 && yes < rows.len() {
                    return Some(idx);
                }
            }
        }
        None
    }

    /// The predicates, in generation order.
    pub fn predicates(&self) -> &[Predicate] {
        &self.preds
    }

    /// `|ℙ|`.
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// True when the space is empty.
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    /// True when some predicate mentions `attr`.
    pub fn mentions(&self, attr: AttrId) -> bool {
        self.preds.iter().any(|p| p.attr == attr)
    }

    /// Confines the space to one shard of a key-partitioned instance:
    /// drops every predicate on the shard-key attribute that is *constant*
    /// over the shard's rows — always-false ones (the key interval lies
    /// entirely outside the constant) and always-true ones alike. A
    /// constant predicate can never separate a partition, so Algorithm 1
    /// never places it in a rule condition, and dropping it spares the
    /// shard's per-split candidate scans. It can still change the rules
    /// discovered: split selection samples every ⌊|avail|/64⌋-th
    /// available candidate, so once the unconfined available set
    /// reaches 128 predicates, a confined space samples different
    /// candidates.
    ///
    /// Membership is exact (see [`crr_data::ShardBounds`]): an interval
    /// shard holds exactly the rows with a finite key in `[lo, hi)`, the
    /// null shard exactly the rows with a null key — on which every
    /// comparison is false and the unary null tests are constant too.
    ///
    /// Returns `None` when every predicate survives, so callers keep the
    /// original space (and its indices) without a rebuild. The full-range
    /// shard of a one-shard plan always lands here: nothing is out of
    /// range, which is what keeps the single-shard path byte-identical to
    /// classic discovery.
    pub fn confined_to(&self, bounds: &crr_data::ShardBounds) -> Option<PredicateSpace> {
        use crr_core::Op;
        let constant_on_shard = |p: &Predicate| -> bool {
            if p.attr != bounds.attr {
                return false;
            }
            if bounds.null_keys {
                // Null keys satisfy no comparison; IS [NOT] NULL is
                // uniform across the shard. Every key predicate is
                // constant here.
                return true;
            }
            if matches!(p.op, Op::IsNull | Op::NotNull) {
                // Interval shards hold finite keys only: IS NULL is
                // always false, IS NOT NULL always true.
                return true;
            }
            let c = match &p.value {
                Value::Int(v) => *v as f64,
                Value::Float(v) => *v,
                // A string or null constant against the numeric key is
                // degenerate; leave it alone.
                _ => return false,
            };
            if !c.is_finite() {
                return false;
            }
            // Keys lie in [lo, hi). `A < c` and `A ≥ c` are constant
            // already at c == lo; the rest need c strictly below it.
            let strict = matches!(p.op, Op::Lt | Op::Ge);
            let under = bounds
                .lo
                .map(|l| if strict { c <= l } else { c < l })
                .unwrap_or(false);
            let over = bounds.hi.map(|h| c >= h).unwrap_or(false);
            under || over
        };
        if self.preds.iter().any(&constant_on_shard) {
            let kept: Vec<Predicate> = self
                .preds
                .iter()
                .filter(|p| !constant_on_shard(p))
                .cloned()
                .collect();
            Some(PredicateSpace::from_predicates(kept))
        } else {
            None
        }
    }
}

/// A predicate-space generator (Table III's Expert / Binary / Random).
#[derive(Debug, Clone)]
pub enum PredicateGen {
    /// Recursive binary separation of each numeric domain with `per_attr`
    /// split constants (rounded up to a power-of-two tree).
    Binary {
        /// Number of split constants per numeric attribute.
        per_attr: usize,
    },
    /// `per_attr` uniform-random constants per numeric attribute.
    Random {
        /// Number of split constants per numeric attribute.
        per_attr: usize,
    },
    /// Explicit per-attribute split constants from domain knowledge.
    Expert {
        /// `(attribute name, boundary constants)` pairs.
        boundaries: Vec<(String, Vec<f64>)>,
    },
}

impl PredicateGen {
    /// Binary generator with `per_attr` constants.
    pub fn binary(per_attr: usize) -> Self {
        PredicateGen::Binary { per_attr }
    }

    /// Random generator with `per_attr` constants.
    pub fn random(per_attr: usize) -> Self {
        PredicateGen::Random { per_attr }
    }

    /// Expert generator from `(attr, boundaries)` pairs.
    pub fn expert(boundaries: Vec<(String, Vec<f64>)>) -> Self {
        PredicateGen::Expert { boundaries }
    }

    /// Generates the predicate space over `condition_attrs`, excluding
    /// `target` (Definition 1 forbids conditions on `Y`). Numeric
    /// attributes receive `>`/`≤` pairs at the generator's constants;
    /// categorical attributes receive `=` per distinct value.
    pub fn generate(
        &self,
        table: &Table,
        condition_attrs: &[AttrId],
        target: AttrId,
        seed: u64,
    ) -> PredicateSpace {
        let mut preds = Vec::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let all = table.all_rows();
        for &attr in condition_attrs {
            if attr == target {
                continue;
            }
            match table.schema().attribute(attr).ty() {
                AttrType::Str => {
                    if let Some(dict) = table.column(attr).dict() {
                        for v in dict {
                            preds.push(Predicate::eq(attr, Value::Str(v.clone())));
                        }
                    }
                }
                AttrType::Int | AttrType::Float => {
                    let stats = ColumnStats::compute(table, attr, &all);
                    let (Some(lo), Some(hi)) = (stats.min, stats.max) else {
                        continue;
                    };
                    if hi <= lo {
                        continue;
                    }
                    let constants = match self {
                        PredicateGen::Binary { per_attr } => binary_constants(lo, hi, *per_attr),
                        PredicateGen::Random { per_attr } => {
                            (0..*per_attr).map(|_| rng.gen_range(lo..hi)).collect()
                        }
                        PredicateGen::Expert { boundaries } => {
                            let name = table.schema().attribute(attr).name();
                            boundaries
                                .iter()
                                .find(|(n, _)| n == name)
                                .map(|(_, b)| {
                                    b.iter().copied().filter(|c| *c > lo && *c < hi).collect()
                                })
                                .unwrap_or_else(|| binary_constants(lo, hi, 4))
                        }
                    };
                    for c in constants {
                        let v = constant_value(table, attr, c);
                        preds.push(Predicate::gt(attr, v.clone()));
                        preds.push(Predicate::le(attr, v));
                    }
                }
            }
        }
        PredicateSpace::from_predicates(preds)
    }
}

/// Recursive-midpoint constants: level-order midpoints of `[lo, hi]`, i.e.
/// 1/2, then 1/4 and 3/4, then eighths, … — the "binary separation" of
/// §VI-D2. Returns the first `count` constants.
fn binary_constants(lo: f64, hi: f64, count: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(count);
    let mut denom = 2usize;
    'outer: loop {
        for num in (1..denom).step_by(2) {
            if out.len() >= count {
                break 'outer;
            }
            out.push(lo + (hi - lo) * num as f64 / denom as f64);
        }
        denom *= 2;
        if denom > 1 << 20 {
            break; // domain exhausted at float resolution
        }
    }
    out
}

/// Types the constant like the column (so int columns get int predicates).
fn constant_value(table: &Table, attr: AttrId, c: f64) -> Value {
    match table.schema().attribute(attr).ty() {
        AttrType::Int => Value::Int(c.round() as i64),
        _ => Value::Float(c),
    }
}

/// A "natural segregation" helper (§VI-C1): the equality predicates of one
/// categorical attribute, e.g. one per bird.
pub fn category_predicates(table: &Table, attr: AttrId) -> Vec<Predicate> {
    table
        .column(attr)
        .dict()
        .map(|dict| {
            dict.iter()
                .map(|v| Predicate::eq(attr, Value::Str(v.clone())))
                .collect()
        })
        .unwrap_or_default()
}

/// Evaluates how many rows of `rows` satisfy `p` — used by tests and split
/// diagnostics.
pub fn selectivity(table: &Table, rows: &RowSet, p: &Predicate) -> usize {
    rows.iter().filter(|&r| p.eval(table, r)).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crr_core::Op;
    use crr_data::Schema;

    fn table() -> Table {
        let schema = Schema::new(vec![
            ("v", AttrType::Float),
            ("d", AttrType::Int),
            ("s", AttrType::Str),
            ("y", AttrType::Float),
        ]);
        let mut t = Table::new(schema);
        for i in 0..16 {
            t.push_row(vec![
                Value::Float(i as f64),
                Value::Int(i * 10),
                Value::str(if i % 2 == 0 { "a" } else { "b" }),
                Value::Float(i as f64 * 2.0),
            ])
            .unwrap();
        }
        t
    }

    #[test]
    fn binary_constants_are_level_order_midpoints() {
        let c = binary_constants(0.0, 16.0, 7);
        assert_eq!(c, vec![8.0, 4.0, 12.0, 2.0, 6.0, 10.0, 14.0]);
    }

    #[test]
    fn binary_generation_pairs_gt_le() {
        let t = table();
        let v = t.attr("v").unwrap();
        let y = t.attr("y").unwrap();
        let space = PredicateGen::binary(3).generate(&t, &[v], y, 0);
        // 3 constants × 2 operators.
        assert_eq!(space.len(), 6);
        let ops: Vec<_> = space.predicates().iter().map(|p| p.op).collect();
        assert_eq!(ops.iter().filter(|o| **o == crr_core::Op::Gt).count(), 3);
    }

    #[test]
    fn int_columns_get_int_constants() {
        let t = table();
        let d = t.attr("d").unwrap();
        let y = t.attr("y").unwrap();
        let space = PredicateGen::binary(1).generate(&t, &[d], y, 0);
        assert!(matches!(space.predicates()[0].value, Value::Int(_)));
    }

    #[test]
    fn categorical_attrs_get_equalities() {
        let t = table();
        let s = t.attr("s").unwrap();
        let y = t.attr("y").unwrap();
        let space = PredicateGen::binary(4).generate(&t, &[s], y, 0);
        assert_eq!(space.len(), 2); // "a" and "b"
        assert!(space.predicates().iter().all(|p| p.op == crr_core::Op::Eq));
    }

    #[test]
    fn target_is_excluded() {
        let t = table();
        let v = t.attr("v").unwrap();
        let y = t.attr("y").unwrap();
        let space = PredicateGen::binary(2).generate(&t, &[v, y], y, 0);
        assert!(!space.mentions(y));
        assert!(space.mentions(v));
    }

    #[test]
    fn random_constants_lie_in_domain() {
        let t = table();
        let v = t.attr("v").unwrap();
        let y = t.attr("y").unwrap();
        let space = PredicateGen::random(10).generate(&t, &[v], y, 7);
        for p in space.predicates() {
            let c = p.value.as_f64().unwrap();
            assert!((0.0..15.0).contains(&c));
        }
        // Deterministic per seed.
        let again = PredicateGen::random(10).generate(&t, &[v], y, 7);
        assert_eq!(space.predicates(), again.predicates());
    }

    #[test]
    fn expert_uses_supplied_boundaries() {
        let t = table();
        let v = t.attr("v").unwrap();
        let y = t.attr("y").unwrap();
        let gen = PredicateGen::expert(vec![("v".into(), vec![3.5, 7.5, 99.0])]);
        let space = gen.generate(&t, &[v], y, 0);
        // 99.0 is outside the domain and dropped; 2 constants × 2 ops.
        assert_eq!(space.len(), 4);
        let consts: Vec<f64> = space
            .predicates()
            .iter()
            .map(|p| p.value.as_f64().unwrap())
            .collect();
        assert!(consts.contains(&3.5) && consts.contains(&7.5));
    }

    #[test]
    fn selectivity_counts_matches() {
        let t = table();
        let v = t.attr("v").unwrap();
        let p = Predicate::le(v, Value::Float(7.0));
        assert_eq!(selectivity(&t, &t.all_rows(), &p), 8);
    }

    /// Asserts that `space`'s constant lists are sorted, `==`-distinct and
    /// hold every constant its predicates' numeric kernels compile to.
    fn assert_lists_cover_kernels(t: &Table, space: &PredicateSpace) -> usize {
        let mut kernels = 0;
        for p in space.predicates() {
            let list = space.numeric_constants(p.attr);
            assert!(list.windows(2).all(|w| w[0] < w[1]), "{list:?}");
            if let crr_core::KernelShape::Num { c, .. } =
                crr_core::CompiledPred::compile(p, t).shape()
            {
                assert!(list.contains(&c), "{p:?} compiles to {c}, not in {list:?}");
                kernels += 1;
            }
        }
        kernels
    }

    #[test]
    fn constant_lists_cover_every_numeric_kernel() {
        let t = table();
        let (v, d, s, y) = (
            t.attr("v").unwrap(),
            t.attr("d").unwrap(),
            t.attr("s").unwrap(),
            t.attr("y").unwrap(),
        );
        let expert = PredicateGen::expert(vec![
            ("v".into(), vec![3.5, 7.5, 7.5, 99.0]),
            ("d".into(), vec![25.0, 62.5]),
        ]);
        for gen in [PredicateGen::binary(9), PredicateGen::random(12), expert] {
            let space = gen.generate(&t, &[v, d, s], y, 5);
            assert!(assert_lists_cover_kernels(&t, &space) > 0, "{gen:?}");
        }
        // A hand-made mix on the int and float columns: int, integral and
        // fractional float, both zeros, infinities, NaN, null and string
        // constants, under every operator.
        let ops = [Op::Lt, Op::Le, Op::Gt, Op::Ge, Op::Eq, Op::Ne];
        let values = [
            Value::Int(30),
            Value::Int(-2),
            Value::Float(30.0),
            Value::Float(7.25),
            Value::Float(-0.0),
            Value::Float(0.0),
            Value::Float(f64::INFINITY),
            Value::Float(f64::NAN),
            Value::Null,
            Value::str("a"),
        ];
        let mut preds = Vec::new();
        for attr in [v, d] {
            for value in &values {
                preds.extend(ops.map(|op| Predicate::new(attr, op, value.clone())));
            }
            preds.push(Predicate::is_null(attr));
        }
        let space = PredicateSpace::from_predicates(preds);
        // Five distinct numbers once 30 and 30.0, −0.0 and 0.0 merge.
        assert_eq!(space.numeric_constants(v).len(), 5);
        assert_eq!(space.numeric_constants(d), space.numeric_constants(v));
        assert!(space.numeric_constants(s).is_empty());
        assert_eq!(assert_lists_cover_kernels(&t, &space), 2 * 7 * ops.len());
        // A confined space and a clone carry lists of their own.
        let bounds = crr_data::ShardBounds {
            attr: v,
            lo: Some(7.0),
            hi: None,
            null_keys: false,
        };
        let confined = space.confined_to(&bounds).unwrap();
        assert_lists_cover_kernels(&t, &confined);
        assert_eq!(
            space.clone().numeric_constants(d),
            space.numeric_constants(d)
        );
    }

    #[test]
    fn category_predicates_cover_dict() {
        let t = table();
        let s = t.attr("s").unwrap();
        assert_eq!(category_predicates(&t, s).len(), 2);
    }
}
