//! Typed shard planning: the [`ShardSpec`] builder and the cost-based
//! planner that turns a spec into concrete [`Shard`]s.
//!
//! ```
//! use crr_data::{PlannerCost, ShardSpec};
//! # use crr_data::{AttrType, Schema, Table, Value};
//! # let schema = Schema::new(vec![("k", AttrType::Float)]);
//! # let mut t = Table::new(schema);
//! # for i in 0..32 { t.push_row(vec![Value::Float((i * i) as f64)]).unwrap(); }
//! # let key = t.attr("k").unwrap();
//! // Four equal-frequency shards on `key`:
//! let spec = ShardSpec::by_key(key).quantile().shards(4);
//! let (shards, report) = spec.plan(&t, &t.all_rows(), &PlannerCost::default())?;
//! assert_eq!(shards.len(), 4);
//! assert_eq!(report.boundary, Some(crr_data::Boundary::Quantile));
//! # Ok::<(), crr_data::DataError>(())
//! ```
//!
//! Three decisions are made here rather than by the caller:
//!
//! * **Boundary placement** — [`Boundary::Quantile`] picks equal-frequency
//!   cut points from the sorted key sample, snapped strictly between
//!   distinct values so repeated-value runs are never split; skewed keys
//!   yield balanced shards. [`Boundary::EqualWidth`] splits the observed
//!   key range into equal-width intervals.
//! * **Shard count** — a key spec without [`ShardSpec::shards`] estimates
//!   per-shard work from the row count and the predicate-vocabulary size
//!   ([`PlannerCost`]) and picks `k` by a wall-clock model instead of
//!   requiring a guess.
//! * **Degeneracy** — null-only, constant and near-constant keys collapse
//!   to fewer shards; the null regime always lands in its own trailing
//!   shard.
//!
//! Both placements resolve to ascending cut points fed through one
//! `cut_into_shards` core, so the disjoint/covering/dense-id guarantees
//! (and the non-finite-key rejection) are shared, not re-proved.

use crate::shard::{cut_into_shards, key_extent};
use crate::{AttrId, DataError, Result, RowSet, Shard, Table};

/// How interval boundaries are placed on the shard key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Boundary {
    /// Equal-width geometry over the observed `[min, max]` range.
    EqualWidth,
    /// Equal-frequency (equi-depth) cut points from the sorted key sample,
    /// snapped strictly between distinct values.
    Quantile,
}

impl Boundary {
    /// Stable lowercase label used in artifacts and reports.
    pub fn label(self) -> &'static str {
        match self {
            Boundary::EqualWidth => "equal_width",
            Boundary::Quantile => "quantile",
        }
    }

    /// Parses [`Self::label`] back.
    pub fn from_label(s: &str) -> Option<Self> {
        match s {
            "equal_width" => Some(Boundary::EqualWidth),
            "quantile" => Some(Boundary::Quantile),
            _ => None,
        }
    }
}

/// How many interval shards a key spec requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ShardCount {
    /// Exactly this many intervals (before empty ones are dropped).
    Fixed(usize),
    /// Let the planner pick `k` from the cost model in [`PlannerCost`].
    Auto,
}

/// Cost-model inputs for an auto shard count: the planner estimates
/// per-shard discovery work as `rows × predicate_vocab` and amortizes it
/// over `workers` concurrent non-seed shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannerCost {
    /// Size of the predicate vocabulary the search will refine over.
    pub predicate_vocab: usize,
    /// Worker threads available to run non-seed shards concurrently.
    pub workers: usize,
}

impl Default for PlannerCost {
    fn default() -> Self {
        PlannerCost {
            predicate_vocab: 1,
            workers: 1,
        }
    }
}

/// What the planner decided, for observability and proof obligations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanReport {
    /// Boundary placement used; `None` only for [`ShardSpec::single`],
    /// which has no boundary choice.
    pub boundary: Option<Boundary>,
    /// The shard count came from the cost model, not the caller.
    pub auto_count: bool,
}

/// A typed, self-describing shard plan: what to cut on, how to place
/// boundaries, and how many shards to aim for.
///
/// Construct with [`ShardSpec::single`] or [`ShardSpec::by_key`]; refine
/// key plans with the chainable [`quantile`](ShardSpec::quantile) /
/// [`equal_width`](ShardSpec::equal_width) / [`shards`](ShardSpec::shards)
/// modifiers. Key plans default to quantile boundaries with an auto shard
/// count — the adaptive configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSpec {
    kind: SpecKind,
}

#[derive(Debug, Clone, PartialEq)]
enum SpecKind {
    Single,
    ByKey {
        attr: AttrId,
        boundary: Boundary,
        count: ShardCount,
    },
}

impl ShardSpec {
    /// The trivial one-shard spec.
    pub fn single() -> Self {
        ShardSpec {
            kind: SpecKind::Single,
        }
    }

    /// Key-range spec over `attr`, defaulting to quantile boundaries and
    /// an auto shard count.
    pub fn by_key(attr: AttrId) -> Self {
        ShardSpec {
            kind: SpecKind::ByKey {
                attr,
                boundary: Boundary::Quantile,
                count: ShardCount::Auto,
            },
        }
    }

    /// Use equal-frequency (quantile) boundaries. No effect on the single
    /// spec, which has no boundary choice.
    pub fn quantile(mut self) -> Self {
        if let SpecKind::ByKey { boundary, .. } = &mut self.kind {
            *boundary = Boundary::Quantile;
        }
        self
    }

    /// Use equal-width boundaries. No effect on the single spec.
    pub fn equal_width(mut self) -> Self {
        if let SpecKind::ByKey { boundary, .. } = &mut self.kind {
            *boundary = Boundary::EqualWidth;
        }
        self
    }

    /// Request exactly `n` interval shards. No effect on the single spec.
    pub fn shards(mut self, n: usize) -> Self {
        if let SpecKind::ByKey { count, .. } = &mut self.kind {
            *count = ShardCount::Fixed(n);
        }
        self
    }

    /// Resolves the spec against `(table, rows)` into concrete shards plus
    /// a [`PlanReport`] of what the planner decided.
    ///
    /// Guarantees on success: shards are disjoint, their union is exactly
    /// `rows`, no shard is empty, ids are dense in emission order
    /// (intervals ascending, then the null-key shard), and every row with
    /// a null key lands in the trailing `null_keys` shard.
    ///
    /// Errors: [`DataError::InvalidShardPlan`] for zero fixed shards,
    /// [`DataError::NotNumeric`] when the shard key is not a numeric
    /// attribute, and [`DataError::NonFiniteCell`] when any row's key is
    /// NaN or ±Inf (such a key would satisfy other shards' interval
    /// guards, so no shard could soundly own the row).
    pub fn plan(
        &self,
        table: &Table,
        rows: &RowSet,
        cost: &PlannerCost,
    ) -> Result<(Vec<Shard>, PlanReport)> {
        let SpecKind::ByKey {
            attr,
            boundary,
            count,
        } = self.kind
        else {
            let shard = Shard {
                id: 0,
                rows: rows.clone(),
                bounds: None,
            };
            let report = PlanReport {
                boundary: None,
                auto_count: false,
            };
            return Ok((vec![shard], report));
        };
        let k = match count {
            ShardCount::Fixed(0) => {
                return Err(DataError::InvalidShardPlan(
                    "key-range spec requests zero shards".to_string(),
                ));
            }
            ShardCount::Fixed(n) => n,
            ShardCount::Auto => auto_shard_count(rows.len(), cost),
        };
        let cuts = match boundary {
            Boundary::EqualWidth => equal_width_cuts(table, attr, rows, k)?,
            Boundary::Quantile => quantile_cuts(table, attr, rows, k)?,
        };
        let report = PlanReport {
            boundary: Some(boundary),
            auto_count: count == ShardCount::Auto,
        };
        Ok((cut_into_shards(table, attr, rows, &cuts), report))
    }
}

/// Equal-width cut points for `k` intervals over the observed finite key
/// range `[lo, hi]`: `lo + w·i` for `i` in `1..k`, with `w = (hi − lo)/k`.
/// A constant key (or no keys at all) yields no cuts. Errors mirror
/// [`quantile_cuts`]: non-numeric keys and non-finite keys are rejected.
fn equal_width_cuts(table: &Table, attr: AttrId, rows: &RowSet, k: usize) -> Result<Vec<f64>> {
    Ok(match key_extent(table, attr, rows)? {
        (Some(lo), Some(hi)) if hi > lo => {
            let w = (hi - lo) / k as f64;
            (1..k).map(|i| lo + w * i as f64).collect()
        }
        _ => Vec::new(),
    })
}

/// Equal-frequency cut points for `k` intervals over the finite keys of
/// `attr`, snapped strictly between distinct values.
///
/// For each target rank `⌈i·n/k⌉` the cut is the midpoint of the key at
/// that rank and the next *strictly greater* key; when the run of equal
/// keys extends to the end of the sample, the cut is skipped rather than
/// split a repeated-value run. Cuts are deduplicated, so heavily repeated
/// keys yield fewer (possibly zero) cuts — degeneracy collapses shards
/// instead of producing empty or overlapping ones. Null keys are skipped
/// here; `cut_into_shards` gives them the trailing shard. Non-numeric keys
/// and non-finite keys are rejected.
fn quantile_cuts(table: &Table, attr: AttrId, rows: &RowSet, k: usize) -> Result<Vec<f64>> {
    // Validates the attribute and rejects NaN/±Inf up front (shared with
    // every other partitioning path).
    let (lo, hi) = key_extent(table, attr, rows)?;
    if k <= 1 || lo.is_none() || lo == hi {
        return Ok(Vec::new());
    }
    let mut keys: Vec<f64> = Vec::new();
    for r in rows.iter() {
        if let Some(v) = table.value_f64(r, attr) {
            keys.push(v);
        }
    }
    keys.sort_unstable_by(f64::total_cmp);
    let n = keys.len();
    let mut cuts: Vec<f64> = Vec::new();
    for i in 1..k {
        // Rank of the first key the i-th interval should NOT contain.
        let rank = (i * n).div_ceil(k).clamp(1, n - 1);
        let below = keys[rank - 1];
        // The next strictly greater key; a run reaching the end of the
        // sample yields no cut (the run stays whole in the last interval).
        let Some(&above) = keys[rank..].iter().find(|&&v| v > below) else {
            continue;
        };
        // Snap strictly between the two distinct values. Midpoints of
        // adjacent floats can round onto an endpoint; `above` is still a
        // valid half-open cut (`c <= key` sends the upper run right).
        let mid = below + (above - below) / 2.0;
        let cut = if mid > below && mid <= above {
            mid
        } else {
            above
        };
        if cuts.last() != Some(&cut) {
            cuts.push(cut);
        }
    }
    Ok(cuts)
}

/// Picks a shard count from a wall-clock model of sharded discovery.
///
/// Per-shard work is estimated as `rows/k × vocab`. The seed shard runs
/// alone first (it publishes the cross-shard pool), then the `k-1`
/// remaining shards run in `⌈(k-1)/workers⌉` waves, and each shard adds a
/// fixed planning/merge overhead proportional to the vocabulary:
///
/// `wall(k) = (rows·vocab/k) · (1 + ⌈(k-1)/workers⌉) + k · overhead(vocab)`
///
/// The model is deterministic: candidates `1..=min(2·workers, 16)` are
/// scored, shards are floored at [`MIN_AUTO_SHARD_ROWS`] rows (smaller
/// shards under-train models and defeat sharing), and ties break toward
/// fewer shards.
fn auto_shard_count(rows: usize, cost: &PlannerCost) -> usize {
    let workers = cost.workers.max(1);
    let vocab = cost.predicate_vocab.max(1) as f64;
    let work = rows as f64 * vocab;
    let overhead = 64.0 * vocab + 1024.0;
    let cap = (2 * workers).clamp(1, 16);
    let mut best_k = 1usize;
    let mut best = f64::INFINITY;
    for k in 1..=cap {
        if k > 1 && rows / k < MIN_AUTO_SHARD_ROWS {
            break;
        }
        let waves = 1 + (k - 1).div_ceil(workers);
        let wall = work / k as f64 * waves as f64 + k as f64 * overhead;
        if wall < best {
            best = wall;
            best_k = k;
        }
    }
    best_k
}

/// Minimum rows per shard the auto planner will accept.
const MIN_AUTO_SHARD_ROWS: usize = 256;

/// Row balance of a partition in permille: `min(rows)/max(rows) × 1000`,
/// ignoring the trailing null-key shard (its size is a property of the
/// data, not the boundary placement). `1000` means perfectly balanced;
/// degenerate partitions (≤ 1 interval shard) report `1000`.
pub fn balance_permille(shards: &[Shard]) -> u64 {
    let sizes: Vec<usize> = shards
        .iter()
        .filter(|s| !s.bounds.map(|b| b.null_keys).unwrap_or(false))
        .map(|s| s.rows.len())
        .collect();
    if sizes.len() <= 1 {
        return 1000;
    }
    let min = *sizes.iter().min().unwrap_or(&0) as u64;
    let max = *sizes.iter().max().unwrap_or(&1) as u64;
    if max == 0 {
        return 1000;
    }
    min * 1000 / max
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AttrType, Schema, Value};

    fn table_with_keys(keys: &[Option<f64>]) -> (Table, AttrId) {
        let schema = Schema::new(vec![("k", AttrType::Float), ("y", AttrType::Float)]);
        let mut t = Table::new(schema);
        for (i, k) in keys.iter().enumerate() {
            let kv = match k {
                Some(v) => Value::Float(*v),
                None => Value::Null,
            };
            t.push_row(vec![kv, Value::Float(i as f64)]).unwrap();
        }
        let attr = t.attr("k").unwrap();
        (t, attr)
    }

    fn assert_disjoint_cover(shards: &[Shard], rows: &RowSet) {
        let mut seen: Vec<u32> = Vec::new();
        for s in shards {
            assert!(!s.rows.is_empty(), "empty shard {} survived", s.id);
            seen.extend_from_slice(s.rows.as_slice());
        }
        seen.sort_unstable();
        let before = seen.len();
        seen.dedup();
        assert_eq!(before, seen.len(), "shards overlap");
        assert_eq!(seen, rows.as_slice(), "union is not the input rows");
    }

    #[test]
    fn quantile_balances_a_skewed_key() {
        // Quadratic skew: equal-width crams most rows into the first
        // interval; quantile splits them 25/25/25/25.
        let keys: Vec<Option<f64>> = (0..100).map(|i| Some((i * i) as f64)).collect();
        let (t, attr) = table_with_keys(&keys);
        let cost = PlannerCost::default();
        let (ew, _) = ShardSpec::by_key(attr)
            .equal_width()
            .shards(4)
            .plan(&t, &t.all_rows(), &cost)
            .unwrap();
        let (q, report) = ShardSpec::by_key(attr)
            .quantile()
            .shards(4)
            .plan(&t, &t.all_rows(), &cost)
            .unwrap();
        assert_disjoint_cover(&q, &t.all_rows());
        assert_eq!(q.len(), 4);
        for s in &q {
            assert_eq!(s.rows.len(), 25, "shard {}: {:?}", s.id, s.bounds);
        }
        assert!(balance_permille(&q) > balance_permille(&ew));
        assert_eq!(report.boundary, Some(Boundary::Quantile));
        assert!(!report.auto_count);
    }

    #[test]
    fn quantile_keeps_repeated_value_runs_whole() {
        // 60 copies of 1.0 then 20 each of 2.0 and 3.0: no cut may land
        // inside the run of 1.0s, so the first shard holds all 60.
        let mut keys: Vec<Option<f64>> = vec![Some(1.0); 60];
        keys.extend(vec![Some(2.0); 20]);
        keys.extend(vec![Some(3.0); 20]);
        let (t, attr) = table_with_keys(&keys);
        let (shards, _) = ShardSpec::by_key(attr)
            .quantile()
            .shards(4)
            .plan(&t, &t.all_rows(), &PlannerCost::default())
            .unwrap();
        assert_disjoint_cover(&shards, &t.all_rows());
        assert_eq!(shards[0].rows.len(), 60);
        for s in &shards {
            // Every shard's rows share no key with any other shard: cuts
            // were snapped strictly between distinct values.
            let mut vals: Vec<f64> = s.rows.iter().filter_map(|r| t.value_f64(r, attr)).collect();
            vals.sort_by(f64::total_cmp);
            vals.dedup();
            assert!(!vals.is_empty());
        }
    }

    #[test]
    fn quantile_handles_nulls_and_constants() {
        let (t, attr) = table_with_keys(&[Some(5.0), None, Some(5.0), None, Some(5.0)]);
        let (shards, _) = ShardSpec::by_key(attr)
            .quantile()
            .shards(3)
            .plan(&t, &t.all_rows(), &PlannerCost::default())
            .unwrap();
        assert_disjoint_cover(&shards, &t.all_rows());
        // Constant key collapses to one interval shard + the null shard.
        assert_eq!(shards.len(), 2);
        assert!(shards[1].bounds.unwrap().null_keys);
        assert_eq!(shards[1].rows.as_slice(), &[1, 3]);
    }

    #[test]
    fn quantile_all_null_column_is_one_null_shard() {
        let (t, attr) = table_with_keys(&[None, None, None]);
        let (shards, _) = ShardSpec::by_key(attr)
            .quantile()
            .shards(4)
            .plan(&t, &t.all_rows(), &PlannerCost::default())
            .unwrap();
        assert_eq!(shards.len(), 1);
        assert!(shards[0].bounds.unwrap().null_keys);
        assert_eq!(shards[0].rows.len(), 3);
    }

    #[test]
    fn quantile_rejects_non_finite_keys() {
        let (t, attr) = table_with_keys(&[Some(0.0), Some(f64::NAN), Some(1.0)]);
        assert!(matches!(
            ShardSpec::by_key(attr).quantile().shards(2).plan(
                &t,
                &t.all_rows(),
                &PlannerCost::default()
            ),
            Err(DataError::NonFiniteCell { row: 1, .. })
        ));
    }

    #[test]
    fn zero_fixed_shards_is_rejected() {
        let (t, attr) = table_with_keys(&[Some(1.0)]);
        for spec in [
            ShardSpec::by_key(attr).quantile().shards(0),
            ShardSpec::by_key(attr).equal_width().shards(0),
        ] {
            assert!(matches!(
                spec.plan(&t, &t.all_rows(), &PlannerCost::default()),
                Err(DataError::InvalidShardPlan(_))
            ));
        }
    }

    #[test]
    fn auto_count_scales_with_rows_and_floors_small_inputs() {
        let cost = PlannerCost {
            predicate_vocab: 32,
            workers: 4,
        };
        // Too small to shard at all.
        assert_eq!(auto_shard_count(100, &cost), 1);
        assert_eq!(auto_shard_count(2 * MIN_AUTO_SHARD_ROWS - 1, &cost), 1);
        // Large inputs shard, bounded by the candidate cap.
        let k = auto_shard_count(100_000, &cost);
        assert!(k > 1 && k <= 16, "k = {k}");
        // More rows never picks fewer shards (the overhead term is fixed
        // while the parallelizable term grows).
        assert!(auto_shard_count(1_000_000, &cost) >= k);
        // Deterministic.
        assert_eq!(auto_shard_count(100_000, &cost), k);
    }

    #[test]
    fn auto_plan_reports_the_model_choice() {
        let keys: Vec<Option<f64>> = (0..2048).map(|i| Some((i % 97) as f64)).collect();
        let (t, attr) = table_with_keys(&keys);
        let cost = PlannerCost {
            predicate_vocab: 16,
            workers: 4,
        };
        let (shards, report) = ShardSpec::by_key(attr)
            .plan(&t, &t.all_rows(), &cost)
            .unwrap();
        assert!(report.auto_count);
        assert_eq!(report.boundary, Some(Boundary::Quantile));
        assert_eq!(shards.len(), auto_shard_count(2048, &cost));
        assert_disjoint_cover(&shards, &t.all_rows());
    }

    #[test]
    fn equal_width_cuts_sit_at_lo_plus_w_times_i() {
        // Keys 3..=52: w = 49/3, and each inner bound is exactly lo + w·i.
        let keys: Vec<Option<f64>> = (3..53).map(|i| Some(i as f64)).collect();
        let (t, attr) = table_with_keys(&keys);
        let (shards, report) = ShardSpec::by_key(attr)
            .equal_width()
            .shards(3)
            .plan(&t, &t.all_rows(), &PlannerCost::default())
            .unwrap();
        assert_eq!(report.boundary, Some(Boundary::EqualWidth));
        let w = (52.0 - 3.0) / 3.0;
        let his: Vec<Option<f64>> = shards.iter().map(|s| s.bounds.unwrap().hi).collect();
        assert_eq!(his, vec![Some(3.0 + w), Some(3.0 + w * 2.0), None]);
        assert_disjoint_cover(&shards, &t.all_rows());
    }

    #[test]
    fn single_spec_is_one_unguarded_shard() {
        let (t, _) = table_with_keys(&[Some(1.0), Some(2.0)]);
        let (shards, report) = ShardSpec::single()
            .plan(&t, &t.all_rows(), &PlannerCost::default())
            .unwrap();
        assert_eq!(shards.len(), 1);
        assert!(shards[0].bounds.is_none());
        assert_eq!(report.boundary, None);
        assert!(!report.auto_count);
    }

    #[test]
    fn balance_permille_reads_interval_shards_only() {
        let keys: Vec<Option<f64>> = (0..40)
            .map(|i| if i < 4 { None } else { Some(i as f64) })
            .collect();
        let (t, attr) = table_with_keys(&keys);
        let (shards, _) = ShardSpec::by_key(attr)
            .quantile()
            .shards(4)
            .plan(&t, &t.all_rows(), &PlannerCost::default())
            .unwrap();
        // 36 finite keys over 4 shards: 9 each → perfectly balanced even
        // though the null shard holds only 4 rows.
        assert_eq!(balance_permille(&shards), 1000);
        assert_eq!(balance_permille(&shards[..1]), 1000);
    }

    #[test]
    fn builder_modifiers_are_inert_on_the_single_spec() {
        assert_eq!(
            ShardSpec::single().quantile().equal_width().shards(4),
            ShardSpec::single()
        );
    }

    #[test]
    fn boundary_labels_round_trip() {
        for b in [Boundary::EqualWidth, Boundary::Quantile] {
            assert_eq!(Boundary::from_label(b.label()), Some(b));
        }
        assert_eq!(Boundary::from_label("time_window"), None);
    }
}
