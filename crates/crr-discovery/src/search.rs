//! Algorithm 1: CRR searching with model sharing.
//!
//! The implementation follows the paper's pseudo-code line by line; the
//! mapping is noted inline. Key behaviours:
//!
//! * **Sharing before training** (lines 7–10): every partition first tries
//!   the pool `ℱ` of already-trained models with the midrange shift
//!   `δ₀ = (max r + min r)/2` of Proposition 6 — the minimizer of the
//!   maximum absolute residual, so it is the *only* shift that needs
//!   testing.
//! * **Sharing-index ordering** (line 12 + §V-A3): failed partitions
//!   record `ind(C)`, the best fraction of tuples any pooled model covers
//!   within `ρ_M`; children inherit it as queue priority, so
//!   likely-shareable conditions surface first.
//! * **Coverage guarantee** (§V-A2): partitions that cannot be split
//!   further (too small, or no predicate separates them) accept their best
//!   model even when its bias exceeds `ρ_M` — down to the constant-per-
//!   tuple edge case.
//!
//! # The sufficient-statistics fit engine
//!
//! The search loop never re-extracts rows from the [`Table`]. A
//! [`NumericSnapshot`] — column-major buffers of every input plus the
//! target, with a fit-readiness bitmask — is built once per run, and each
//! queue entry carries its partition's fit-ready row indices into those
//! buffers. For the linear family (F1/F2), entries additionally carry the
//! partition's [`Moments`] `(XᵀX, Xᵀy, yᵀy, Σx, Σy, n)`:
//!
//! * a split re-accumulates the *smaller* child in O(|child|·d²) and derives
//!   the larger sibling by subtraction from the parent (exact over the split
//!   because addition of per-row outer products is what built the parent);
//! * a fit solves the cached normal equations in O(d³) instead of an
//!   O(n·d²) rebuild at every pop (the MLP, which has no sufficient
//!   statistics, is the one family fitted from materialized rows);
//! * residual scans (`ρ`, the shared-pool probes, the sharing index) read
//!   one dense view per pop — the fit rows' inputs and target copied once
//!   into contiguous buffers — reproducing [`Regressor::predict`] bitwise
//!   for affine models so every reported `ρ` stays honest.
//!
//! A shared-pool probe writes the residuals and folds their min and max in
//! one pass, so `δ₀` and the worst deviation `max(|hi − δ₀|, |δ₀ − lo|)`
//! — hit or miss — are known without a second pass. A hit covers every
//! row, so only a miss counts its rows within `ρ_M` for `ind(C)`, in one
//! branch-free pass, and only under a queue order that reads `ind(C)`.
//!
//! # Split scoring
//!
//! Line 19 scores its sampled candidates from per-bin sums
//! ([`AttrBins`]). Each run ranks every row once per numeric condition
//! attribute among the space's sorted constants on it ([`RankCodes`]:
//! one binary search per run row); each pop maps those codes to its own
//! bins through an O(M) table, so binning a scored row is one code load
//! and one table load. The bins and their ascending row order are those a
//! per-pop binary search would give, so every sum, and so every chosen
//! split, is bitwise the same.

use crate::{
    DiscoveryConfig, DiscoveryError, DiscoveryOutcome, PredicateSpace, QueueOrder, Result,
    SplitStrategy,
};
use crr_core::{
    CompiledConjunction, CompiledPred, Conjunction, Crr, Dnf, KernelShape, Op, Predicate, RuleSet,
};
use crr_data::{AttrId, Column, ColumnData, NumericSnapshot, RowSet, Table};
use crr_models::{
    fit_model, try_fit_from_moments, ConstantModel, Model, ModelKind, Moments, Regressor,
    Translation,
};
use crr_obs::{Counter as Ctr, Gauge, MetricsSink, MetricsSnapshot, Phase};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sampling target for split candidates: `choose_split` scores every
/// `max(1, ⌊|avail|/64⌋)`-th available predicate. That is all of `avail`
/// below 128 predicates and 64–96 of them from 128 on, so 64–127
/// candidates are scored once `|avail| ≥ 64` — 73 of 510 at the root of
/// an electricity run with 255 cuts per attribute.
const MAX_SPLIT_CANDIDATES: usize = 64;

/// Counters describing one discovery run — the raw material of the paper's
/// learning-time and #rules plots.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiscoveryStats {
    /// New models trained (line 13 executions).
    pub models_trained: usize,
    /// Partitions satisfied by a pooled model (lines 7–10 hits).
    pub models_shared: usize,
    /// Conjunctions popped from the queue.
    pub partitions_explored: usize,
    /// Partitions accepted with bias above `ρ_M` to preserve coverage.
    pub forced_accepts: usize,
    /// Rows whose condition attributes were null — not coverable by any
    /// split (only non-zero on tables with nulls outside the target).
    pub uncoverable_rows: usize,
    /// Partitions still queued when the budget tripped, covered with
    /// constant fallback rules instead of being refined (zero on complete
    /// runs).
    pub drained_partitions: usize,
    /// Rows covered by drained-partition fallback rules rather than
    /// refined ones.
    pub drained_rows: usize,
    /// Partitions satisfied by a model adopted from the frozen cross-shard
    /// pool (zero on unsharded runs and on the seed shard).
    pub cross_shard_shares: usize,
    /// Wall-clock time of the run.
    pub learning_time: Duration,
}

/// The outcome of one Algorithm 1 run (a [`crate::DiscoverySession`]
/// shard or the whole instance).
#[derive(Debug, Clone)]
pub struct Discovery {
    /// The discovered rules, in emission order.
    pub rules: RuleSet,
    /// Run counters.
    pub stats: DiscoveryStats,
    /// Why the run stopped: [`DiscoveryOutcome::Complete`] for a full
    /// Algorithm 1 run, otherwise which budget axis (or cancellation)
    /// tripped. Degraded runs still cover every coverable row — queued
    /// partitions are drained with constant fallbacks.
    pub outcome: DiscoveryOutcome,
    /// Structured metrics of the run, frozen from the sink attached via
    /// [`DiscoveryConfig::with_metrics`]. Empty under the no-op default.
    /// If one enabled sink is shared across several runs, this snapshot
    /// holds the *cumulative* values as of this run's end.
    pub metrics: MetricsSnapshot,
}

/// Priority-queue entry: a conjunction, its partition, the predicates still
/// available for splitting it, and the partition's fit state (snapshot row
/// indices plus, for the linear family, cached sufficient statistics).
struct Entry {
    /// Queue priority (see [`QueueOrder`]).
    priority: f64,
    /// Insertion sequence — deterministic tie-break.
    seq: u64,
    conj: Conjunction,
    rows: RowSet,
    /// Fit-ready rows (every input and the target present), ascending —
    /// indices into the run's [`NumericSnapshot`] buffers.
    fit: Vec<u32>,
    /// Sufficient statistics over `fit`, maintained across splits. `None`
    /// for the MLP, which has no sufficient statistics, and for runs with
    /// no input attributes.
    moments: Option<Moments>,
    /// Indices into the predicate space usable for further splits.
    avail: Vec<u32>,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority && self.seq == other.seq
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap on priority; FIFO on ties (lower seq first).
        self.priority
            .total_cmp(&other.priority)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Queue priority of a child carrying its parent's sharing index.
fn priority_for(order: QueueOrder, ind: f64, seq: u64) -> f64 {
    match order {
        QueueOrder::Decrease => ind,
        QueueOrder::Increase => -ind,
        QueueOrder::Random(seed) => {
            // Deterministic hash of (seq, seed) in [0, 1).
            let h = seq
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(seed)
                .wrapping_mul(0xBF58_476D_1CE4_E5B9);
            (h >> 11) as f64 / (1u64 << 53) as f64
        }
    }
}

/// A frozen, read-only model pool published by earlier shards. Entries are
/// keyed `(shard_id, seq)` — the shard that trained the model and its
/// publication sequence within that shard — and held in ascending key
/// order. A shard consults it sequentially after a complete local-pool
/// miss, first match wins, so cross-shard sharing is a pure function of
/// the frozen contents: byte-identical however many shards run
/// concurrently.
pub(crate) struct CrossShardPool {
    /// `(shard_id, seq, model)` in publication order.
    pub models: Vec<(usize, u64, Arc<Model>)>,
}

/// What one Algorithm 1 run hands back to the sharded runner beyond the
/// public [`Discovery`]: the models this run *trained* (pool pushes, in
/// publication order — adopted cross-shard models are excluded) and the
/// root partition's sufficient statistics, so shard statistics can be
/// merged instead of refit.
pub(crate) struct SearchRun {
    pub discovery: Discovery,
    pub published: Vec<Arc<Model>>,
    pub root_moments: Option<Moments>,
}

/// Algorithm 1 proper, shared by the session front door and the sharded
/// runner. `cross` attaches a frozen cross-shard pool probed after
/// local-pool misses; `None` reproduces single-table discovery exactly.
pub(crate) fn run_search(
    table: &Table,
    rows: &RowSet,
    cfg: &DiscoveryConfig,
    space: &PredicateSpace,
    cross: Option<&CrossShardPool>,
) -> Result<SearchRun> {
    cfg.validate()?;
    // Reflexivity (Proposition 1): refuse trivial targets.
    if cfg.inputs.contains(&cfg.target) {
        return Err(DiscoveryError::TrivialTarget);
    }
    if !table.schema().attribute(cfg.target).ty().is_numeric() {
        return Err(DiscoveryError::NonNumericTarget(
            table.schema().attribute(cfg.target).name().to_string(),
        ));
    }
    // Definition 1: no predicates on Y.
    if space.mentions(cfg.target) {
        return Err(DiscoveryError::PredicateOnTarget);
    }
    if rows.is_empty() {
        return Err(DiscoveryError::EmptyInstance);
    }

    let start = Instant::now();
    // All recording below is fire-and-forget: the sink is never read back,
    // so queue order, fit results and rule output are untouched (the
    // byte-identical regression tests pin this with the sink enabled).
    let mx = &cfg.metrics;
    let t_total = mx.span();
    let mut stats = DiscoveryStats::default();
    let mut rules = RuleSet::new();
    // Line 2: the shared model pool ℱ, most-recently-shared first.
    let mut pool: Vec<Arc<Model>> = Vec::new();
    // Models this run trains, in publication order — the shard runner
    // freezes the seed shard's list into the cross-shard pool. Adopted
    // cross-shard models are deliberately absent (already frozen).
    let mut published: Vec<Arc<Model>> = Vec::new();
    let min_partition = cfg.min_partition();

    // One pass over the table: columnar numeric buffers + readiness mask.
    // Complete rows holding NaN/±Inf surface here as the same typed error
    // the per-pop extraction used to raise.
    let t_snap = mx.span();
    let snap =
        NumericSnapshot::build(table, &cfg.inputs, cfg.target, rows).map_err(|e| match e {
            crr_data::DataError::NonFiniteCell { row, attribute } => {
                DiscoveryError::NonFiniteValue {
                    row,
                    attr: attribute,
                }
            }
            other => DiscoveryError::Data(other),
        })?;
    // Global fallback for partitions with no usable (X, Y) pairs at all.
    let global_fallback = global_midrange(table, cfg, rows);
    let root_fit = snap.ready_rows(rows);
    // Recorded before the root accumulation, which `GramAccumulate` times:
    // the phases never overlap, so their sum never counts it twice.
    mx.record(Phase::SnapshotBuild, t_snap);
    // Moments apply to the linear family only; the MLP has no sufficient
    // statistics, and with zero features every fit is a constant anyway.
    let use_moments =
        matches!(cfg.fit.kind, ModelKind::Linear | ModelKind::Ridge) && !cfg.inputs.is_empty();

    // Line 3: the queue starts from the most general condition C = ∅.
    let mut seq = 0u64;
    let mut queue: BinaryHeap<Entry> = BinaryHeap::new();
    let root_moments = if use_moments {
        mx.add(Ctr::MomentsAddRowOps, root_fit.len() as u64);
        Some(accumulate_moments(&snap, &root_fit, mx))
    } else {
        None
    };
    // Kept for the caller: sharded discovery merges per-shard root
    // statistics (O(d²)) instead of re-accumulating the whole instance.
    let root_moments_out = root_moments.clone();
    mx.set_gauge(Gauge::FitRows, root_fit.len() as u64);
    mx.set_gauge(Gauge::InputDims, cfg.inputs.len() as u64);
    mx.incr(Ctr::QueuePushes);
    queue.push(Entry {
        priority: priority_for(cfg.order, 0.0, 0),
        seq: 0,
        conj: Conjunction::top(),
        rows: rows.clone(),
        fit: root_fit,
        moments: root_moments,
        avail: (0..space.len() as u32).collect(),
    });

    // Budget and cancellation checks run at each queue pop; the (default)
    // unlimited-and-uncancellable path skips them entirely, so complete
    // runs pay nothing for the machinery.
    let watched = !cfg.budget.is_unlimited() || cfg.cancel.is_some();
    let mut outcome = DiscoveryOutcome::Complete;

    // The pop's dense fit-row view and residual scratch, reused across
    // pops.
    let mut view = FitView::new(cfg.inputs.len());
    let mut resid: Vec<f64> = Vec::new();

    // Compile-once cache for the split chooser: every candidate predicate
    // is compiled against this table, and every run row ranked among its
    // numeric attributes' constants, exactly once per run instead of once
    // per (pop, candidate). Split-selection time.
    let t_split = mx.span();
    let split_scratch = SplitScratch::build(table, space, rows);
    mx.record(Phase::SplitSelection, t_split);

    // Line 4: main loop.
    while let Some(entry) = queue.pop() {
        if watched {
            mx.incr(Ctr::BudgetChecks);
            if cfg.cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
                outcome = DiscoveryOutcome::Cancelled;
            } else if let Some(tripped) =
                cfg.budget
                    .check(start, stats.partitions_explored, stats.models_trained)
            {
                outcome = tripped;
            }
            if !outcome.is_complete() {
                mx.incr(match outcome {
                    DiscoveryOutcome::Cancelled => Ctr::Cancellations,
                    DiscoveryOutcome::DeadlineExceeded => Ctr::DeadlineTrips,
                    _ => Ctr::ExhaustionTrips,
                });
                // Graceful degradation: stop refining, but keep Problem 1's
                // coverage guarantee — cover this and every still-queued
                // partition with a constant (the partition's target
                // midrange; the global fallback when it has none).
                let t_drain = mx.span();
                let mut pending = Some(entry);
                while let Some(e) = pending.take().or_else(|| queue.pop()) {
                    if e.rows.is_empty() {
                        continue;
                    }
                    let (c, rho) = partition_midrange(table, cfg.target, &e.rows)
                        .unwrap_or((global_fallback, cfg.rho_max));
                    let model = Arc::new(Model::Constant(ConstantModel::new(c, cfg.inputs.len())));
                    rules.push(Crr::new(
                        cfg.inputs.clone(),
                        cfg.target,
                        model,
                        rho,
                        Dnf::single(e.conj),
                    )?);
                    stats.drained_partitions += 1;
                    stats.drained_rows += e.rows.len();
                    mx.incr(Ctr::DrainedPartitions);
                    mx.add(Ctr::DrainedRows, e.rows.len() as u64);
                    mx.incr(Ctr::RulesEmitted);
                }
                mx.record(Phase::Drain, t_drain);
                break;
            }
        }
        stats.partitions_explored += 1;
        mx.incr(Ctr::QueuePops);
        let Entry {
            conj,
            rows,
            fit,
            moments,
            avail,
            ..
        } = entry;
        if rows.is_empty() {
            continue;
        }

        if fit.is_empty() {
            // Nothing to validate against; cover with the global fallback
            // constant so prediction still answers here.
            let model = Arc::new(Model::Constant(ConstantModel::new(
                global_fallback,
                cfg.inputs.len(),
            )));
            rules.push(Crr::new(
                cfg.inputs.clone(),
                cfg.target,
                model,
                cfg.rho_max,
                Dnf::single(conj),
            )?);
            stats.forced_accepts += 1;
            mx.incr(Ctr::ForcedAccepts);
            mx.incr(Ctr::RulesEmitted);
            continue;
        }

        // Every probe, the post-fit residuals and the MLP's rows read the
        // fit rows from one dense copy; its gather is pool-scan time.
        let t_scan = mx.span();
        view.gather(&snap, &fit);

        // Lines 7–10: try to share a pooled model, and in the same pass
        // compute the sharing index ind(C) (line 12). `best_within` counts
        // rows, not fractions — every probe at this pop shares `fit.len()`.
        // A queue order that never reads ind(C) skips the count.
        let mut best_within = 0usize;
        let mut shared: Option<(usize, f64, f64)> = None; // (pool idx, rho, delta)
        if cfg.share_models && !pool.is_empty() {
            mx.incr(Ctr::PoolScans);
            let order_uses_ind = !matches!(cfg.order, QueueOrder::Random(_));
            for (i, f) in pool.iter().enumerate() {
                let p = share_probe(f.as_ref(), &view, cfg.rho_max, &mut resid, order_uses_ind);
                mx.incr(Ctr::PoolProbes);
                best_within = best_within.max(p.within);
                if p.max_dev <= cfg.rho_max {
                    shared = Some((i, p.max_dev, p.delta0));
                    break;
                }
                if !order_uses_ind {
                    mx.incr(Ctr::PoolShortCircuits);
                }
            }
            mx.incr(if shared.is_some() {
                Ctr::PoolHits
            } else {
                Ctr::PoolMisses
            });
        }
        mx.record(Phase::PoolScan, t_scan);
        let ind = best_within as f64 / fit.len() as f64;

        // Cross-shard sharing: only after a *complete* local-pool miss is
        // the frozen pool consulted, sequentially in (shard_id, seq)
        // publication order with first match winning — deterministic
        // regardless of shard scheduling because the pool never changes.
        // Cross probes do not feed ind(C): the sharing index stays a
        // property of this shard's own pool, as in the unsharded run.
        let mut cross_hit: Option<(Arc<Model>, f64, f64)> = None; // (model, rho, delta)
        if cfg.share_models && shared.is_none() {
            if let Some(cp) = cross.filter(|c| !c.models.is_empty()) {
                mx.incr(Ctr::CrossShardPoolProbes);
                let t_scan = mx.span();
                for (_, _, f) in &cp.models {
                    let p = share_probe(f.as_ref(), &view, cfg.rho_max, &mut resid, false);
                    if p.max_dev <= cfg.rho_max {
                        cross_hit = Some((Arc::clone(f), p.max_dev, p.delta0));
                        break;
                    }
                }
                mx.record(Phase::PoolScan, t_scan);
                mx.incr(if cross_hit.is_some() {
                    Ctr::CrossShardPoolHits
                } else {
                    Ctr::CrossShardPoolMisses
                });
            }
        }
        if let Some((f, rho, delta)) = cross_hit {
            // Adopt the frozen model into the local pool front so this
            // shard's subsequent scans can hit it as a plain local model.
            pool.insert(0, Arc::clone(&f));
            let mut conj = conj;
            if delta.abs() > 1e-12 {
                conj.compose_builtin(
                    &Translation::output_shift(cfg.inputs.len(), delta),
                    cfg.inputs.len(),
                );
            }
            rules.push(Crr::new(
                cfg.inputs.clone(),
                cfg.target,
                f,
                rho,
                Dnf::single(conj),
            )?);
            stats.cross_shard_shares += 1;
            mx.incr(Ctr::RulesEmitted);
            continue;
        }
        if let Some((idx, rho, delta)) = shared {
            // Move-to-front: pool hits cluster (a regime's model fits its
            // siblings), so the next scan should try this model first.
            let f = pool.remove(idx);
            pool.insert(0, Arc::clone(&f));
            // Line 9: C := C ∧ (y = δ).
            let mut conj = conj;
            if delta.abs() > 1e-12 {
                conj.compose_builtin(
                    &Translation::output_shift(cfg.inputs.len(), delta),
                    cfg.inputs.len(),
                );
            }
            rules.push(Crr::new(
                cfg.inputs.clone(),
                cfg.target,
                f,
                rho,
                Dnf::single(conj),
            )?);
            stats.models_shared += 1;
            mx.incr(Ctr::RulesEmitted);
            continue;
        }

        // Line 13: train a new model on D_C (after any injected fault).
        if let Some(faults) = &cfg.faults {
            if let Err(e) = faults.before_fit() {
                mx.incr(Ctr::InjectedFailures);
                return Err(e);
            }
        }
        let t_fit = mx.span();
        let model = match &moments {
            Some(m) => match try_fit_from_moments(m, &cfg.fit) {
                Some(model) => {
                    mx.incr(Ctr::MomentsSolves);
                    model
                }
                // The moments solve declined (VC guard, singular normal
                // equations): same midrange-constant fallback `fit_model`
                // takes, from one pass over the target buffer.
                None => {
                    mx.incr(Ctr::DeclinedSingular);
                    Model::Constant(ConstantModel::new(
                        midrange_of(&view.target),
                        cfg.inputs.len(),
                    ))
                }
            },
            // No sufficient statistics (the MLP, or no inputs): fit from
            // the partition's materialized rows.
            None => {
                mx.incr(Ctr::Rescans);
                let (xs, y) = view.materialize();
                fit_model(&xs, &y, &cfg.fit)?
            }
        };
        // The new model's ρ is fitting time too: the worst |residual| is
        // the larger magnitude of the extremes.
        let (lo, hi) = fill_residuals(&model, &view, &mut resid);
        let rho = hi.abs().max(lo.abs());
        mx.record(Phase::Fitting, t_fit);
        mx.incr(match &model {
            Model::Constant(_) => Ctr::FitConstant,
            Model::Linear(_) => Ctr::FitLinear,
            Model::Ridge(_) => Ctr::FitRidge,
            Model::Mlp(_) => Ctr::FitMlp,
        });
        stats.models_trained += 1;

        // Line 14: does it generalize to the whole partition within ρ_M?
        let splittable = fit.len() > min_partition && !avail.is_empty();
        if rho <= cfg.rho_max || !splittable {
            if rho > cfg.rho_max {
                stats.forced_accepts += 1;
                mx.incr(Ctr::ForcedAccepts);
            }
            mx.incr(Ctr::RulesEmitted);
            let f = Arc::new(model);
            pool.push(Arc::clone(&f)); // line 17
            published.push(Arc::clone(&f));
            rules.push(Crr::new(
                cfg.inputs.clone(),
                cfg.target,
                f,
                rho,
                Dnf::single(conj),
            )?);
            continue;
        }

        // Lines 19–22: split the condition. The failed model's residuals
        // feed the default (model-tree) split criterion.
        let t_split = mx.span();
        let chosen = choose_split(
            table,
            &rows,
            (cfg.split, cfg.target),
            space,
            &avail,
            (&fit, &resid),
            &split_scratch,
        );
        mx.record(Phase::SplitSelection, t_split);
        match chosen {
            Some(split_idx) => {
                mx.incr(Ctr::Splits);
                let p = space.predicates()[split_idx as usize].clone();
                let np = p.negate();
                // p and ¬p are filtered independently — on a null condition
                // attribute *both* are false, so this is not a partition.
                // The children's fit lists are pred-scan time too. When
                // every row is fit-ready they are the sides themselves.
                let t_scan = mx.span();
                let yes = select_side(table, &rows, &p, mx);
                let no = select_side(table, &rows, &np, mx);
                let (yes_fit, no_fit) = if fit.len() == rows.len() {
                    (yes.as_slice().to_vec(), no.as_slice().to_vec())
                } else {
                    (
                        intersect_sorted(&fit, yes.as_slice()),
                        intersect_sorted(&fit, no.as_slice()),
                    )
                };
                mx.record(Phase::PredScan, t_scan);
                // Rows satisfying neither side have a null condition
                // attribute; no condition can ever select them.
                stats.uncoverable_rows += rows.len() - yes.len() - no.len();
                let child_avail: Vec<u32> =
                    avail.iter().copied().filter(|&i| i != split_idx).collect();
                let (yes_m, no_m) = split_moments(moments, &snap, &fit, &yes_fit, &no_fit, mx);
                for (child_conj, child_rows, child_fit, child_m) in [
                    (conj.and(p), yes, yes_fit, yes_m),
                    (conj.and(np), no, no_fit, no_m),
                ] {
                    if child_rows.is_empty() {
                        continue;
                    }
                    seq += 1;
                    mx.incr(Ctr::QueuePushes);
                    queue.push(Entry {
                        priority: priority_for(cfg.order, ind, seq),
                        seq,
                        conj: child_conj,
                        rows: child_rows,
                        fit: child_fit,
                        moments: child_m,
                        avail: child_avail.clone(),
                    });
                }
            }
            None => {
                // No predicate separates this partition: accept for
                // coverage (the §V-A2 edge case).
                let f = Arc::new(model);
                pool.push(Arc::clone(&f));
                published.push(Arc::clone(&f));
                rules.push(Crr::new(
                    cfg.inputs.clone(),
                    cfg.target,
                    f,
                    rho,
                    Dnf::single(conj),
                )?);
                stats.forced_accepts += 1;
                mx.incr(Ctr::ForcedAccepts);
                mx.incr(Ctr::RulesEmitted);
            }
        }
    }

    stats.learning_time = start.elapsed();
    mx.set_gauge(Gauge::PoolModels, pool.len() as u64);
    mx.record(Phase::Total, t_total);
    Ok(SearchRun {
        discovery: Discovery {
            rules,
            stats,
            outcome,
            metrics: cfg.metrics.snapshot(),
        },
        published,
        root_moments: root_moments_out,
    })
}

/// Filters one side of a split: the cache-blocked compiled predicate
/// kernel over the partition's row slice (byte-identical to per-row
/// `Predicate::eval`, pinned by `crr-core`'s `proptest_compiled`).
fn select_side(table: &Table, rows: &RowSet, p: &Predicate, mx: &MetricsSink) -> RowSet {
    mx.add(Ctr::KernelScanRows, rows.len() as u64);
    mx.incr(Ctr::KernelCompiledScans);
    CompiledConjunction::from_preds(std::slice::from_ref(p), table).select(rows)
}

/// Accumulates the sufficient statistics of `fit` rows from the snapshot
/// buffers with the batched cell-major [`Moments::add_rows`] kernel. It
/// visits rows in ascending order with one accumulator chain per cell, so
/// the sums are bitwise those of row-by-row `Moments::add_row` (pinned by
/// `add_rows`'s unit test) — and a child split re-accumulates in the same
/// order, so parent = yes-child + no-child holds exactly as floating-point
/// sums.
fn accumulate_moments(snap: &NumericSnapshot, fit: &[u32], mx: &MetricsSink) -> Moments {
    let t = mx.span();
    let d = snap.num_inputs();
    let mut m = Moments::zeros(d);
    mx.incr(Ctr::KernelBatchAccumulates);
    let cols: Vec<&[f64]> = (0..d).map(|j| snap.input(j)).collect();
    m.add_rows(&cols, snap.target(), fit);
    mx.record(Phase::GramAccumulate, t);
    m
}

/// Derives both children's moments from a split of `fit` into
/// `yes_fit`/`no_fit`: the smaller child is re-accumulated, the larger is
/// the parent minus the sibling (O(min·d²) instead of O(n·d²)). When fit
/// rows fall off both sides (a null condition attribute), subtraction no
/// longer matches and both sides are rebuilt fresh.
fn split_moments(
    parent: Option<Moments>,
    snap: &NumericSnapshot,
    fit: &[u32],
    yes_fit: &[u32],
    no_fit: &[u32],
    mx: &MetricsSink,
) -> (Option<Moments>, Option<Moments>) {
    let Some(parent) = parent else {
        return (None, None);
    };
    if yes_fit.len() + no_fit.len() == fit.len() {
        let small_len = yes_fit.len().min(no_fit.len());
        mx.incr(Ctr::ChildReaccumulations);
        mx.add(Ctr::MomentsAddRowOps, small_len as u64);
        mx.incr(Ctr::SiblingSubtractions);
        mx.incr(Ctr::MomentsSubtractOps);
        if yes_fit.len() <= no_fit.len() {
            let small = accumulate_moments(snap, yes_fit, mx);
            let mut large = parent;
            large.subtract(&small);
            (Some(small), Some(large))
        } else {
            let small = accumulate_moments(snap, no_fit, mx);
            let mut large = parent;
            large.subtract(&small);
            (Some(large), Some(small))
        }
    } else {
        mx.incr(Ctr::FullRebuilds);
        mx.add(Ctr::MomentsAddRowOps, (yes_fit.len() + no_fit.len()) as u64);
        (
            Some(accumulate_moments(snap, yes_fit, mx)),
            Some(accumulate_moments(snap, no_fit, mx)),
        )
    }
}

/// Sorted-slice intersection (both inputs ascending, as [`RowSet`] and the
/// snapshot's ready lists guarantee).
fn intersect_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// The popped partition's fit rows, copied once into contiguous buffers:
/// `cols[j][i]` is input `j` and `target[i]` the target of the `i`-th fit
/// row, in fit order. Every share probe, the post-fit residual fill and
/// the MLP's row materialization read this view instead of indexing the
/// snapshot row by row. One view is reused across a run's pops; it peaks
/// at the root's `|fit| × (d + 1)` values.
struct FitView {
    cols: Vec<Vec<f64>>,
    target: Vec<f64>,
}

impl FitView {
    fn new(num_inputs: usize) -> FitView {
        FitView {
            cols: vec![Vec::new(); num_inputs],
            target: Vec::new(),
        }
    }

    /// Replaces the view with `fit`'s inputs and target from `snap`.
    fn gather(&mut self, snap: &NumericSnapshot, fit: &[u32]) {
        for (j, col) in self.cols.iter_mut().enumerate() {
            let src = snap.input(j);
            col.clear();
            col.extend(fit.iter().map(|&r| src[r as usize]));
        }
        let ty = snap.target();
        self.target.clear();
        self.target.extend(fit.iter().map(|&r| ty[r as usize]));
    }

    /// Copies row `i`'s inputs into `x`.
    fn row(&self, i: usize, x: &mut [f64]) {
        for (xj, col) in x.iter_mut().zip(&self.cols) {
            *xj = col[i];
        }
    }

    /// Row-major `(xs, y)` — the raw-row fit path of the MLP, which has no
    /// sufficient statistics.
    fn materialize(&self) -> (Vec<Vec<f64>>, Vec<f64>) {
        let xs = (0..self.target.len())
            .map(|i| {
                let mut x = vec![0.0; self.cols.len()];
                self.row(i, &mut x);
                x
            })
            .collect();
        (xs, self.target.clone())
    }
}

/// Midrange of the target values `y` — the constant fallback when the
/// moments solve declines, with the same min/max fold
/// [`ConstantModel::fit`] uses, so the constant is the one `fit_model`
/// would fall back to.
fn midrange_of(y: &[f64]) -> f64 {
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in y {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    (lo + hi) / 2.0
}

/// Writes `t − f(x)` for every row of `view` into `out` and returns the
/// residuals' `(min, max)`. For affine models each row accumulates
/// `acc = 0.0; acc += w[j]·x[j]` (j ascending) and takes `t − (b + acc)`
/// — [`crr_linalg::dot`]'s sequential fold — so the residuals are
/// bitwise what `Regressor::predict` would produce on materialized rows,
/// as rule biases need to stay honest under `find_violation`. The last
/// step writes each residual and folds min and max over four independent
/// chains in the same pass; min and max are exact in any order.
fn fill_residuals(f: &Model, view: &FitView, out: &mut Vec<f64>) -> (f64, f64) {
    out.clear();
    let Some((w, b)) = f.as_affine() else {
        let mut x = vec![0.0; view.cols.len()];
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for (i, t) in view.target.iter().enumerate() {
            view.row(i, &mut x);
            let r = t - f.predict(&x);
            lo = lo.min(r);
            hi = hi.max(r);
            out.push(r);
        }
        return (lo, hi);
    };
    out.resize(view.target.len(), 0.0);
    for (wj, col) in w.iter().zip(&view.cols) {
        for (acc, x) in out.iter_mut().zip(col) {
            *acc += wj * x;
        }
    }
    let (mut lo, mut hi) = ([f64::INFINITY; 4], [f64::NEG_INFINITY; 4]);
    let mut accs = out.chunks_exact_mut(4);
    let mut ts = view.target.chunks_exact(4);
    for (acc, t) in accs.by_ref().zip(ts.by_ref()) {
        for k in 0..4 {
            acc[k] = t[k] - (b + acc[k]);
            lo[k] = lo[k].min(acc[k]);
            hi[k] = hi[k].max(acc[k]);
        }
    }
    for (acc, t) in accs.into_remainder().iter_mut().zip(ts.remainder()) {
        *acc = t - (b + *acc);
        lo[0] = lo[0].min(*acc);
        hi[0] = hi[0].max(*acc);
    }
    (
        lo[0].min(lo[1]).min(lo[2].min(lo[3])),
        hi[0].max(hi[1]).max(hi[2].max(hi[3])),
    )
}

/// One probe's result: Proposition 6's midrange shift, the worst deviation
/// from it, and how many rows land within `ρ_M` of it — the ind
/// numerator: every row on a hit, zero on a miss left uncounted.
struct ShareProbe {
    delta0: f64,
    max_dev: f64,
    within: usize,
}

/// Proposition 6's shared-fit test for one pooled model over the pop's
/// view. `δ₀ = (lo + hi)/2` and `max_dev = max(|hi − δ₀|, |δ₀ − lo|)`
/// come from one residual pass: `x ↦ x − δ₀` rounds monotonically, so
/// that is bit for bit the largest `|r − δ₀|` over the rows.
///
/// A hit needs no count: every row lies within `max_dev ≤ ρ_M`. A miss
/// counts `|r − δ₀| ≤ ρ_M` branch-free, and only when `count` is set —
/// only a queue order that reads ind(C) needs it.
fn share_probe(
    f: &Model,
    view: &FitView,
    rho_max: f64,
    resid: &mut Vec<f64>,
    count: bool,
) -> ShareProbe {
    debug_assert!(!view.target.is_empty());
    let (lo, hi) = fill_residuals(f, view, resid);
    let delta0 = (lo + hi) / 2.0;
    let max_dev = (hi - delta0).abs().max((delta0 - lo).abs());
    let within = if max_dev <= rho_max {
        resid.len()
    } else if count {
        resid
            .iter()
            .map(|r| usize::from((r - delta0).abs() <= rho_max))
            .sum()
    } else {
        0
    };
    ShareProbe {
        delta0,
        max_dev,
        within,
    }
}

/// Midrange and half-range of the target's finite values over a partition;
/// `None` when no row has one. The midrange constant's worst absolute
/// error on the partition is exactly the half-range, so drained rules
/// report an honest `ρ`.
pub(crate) fn partition_midrange(
    table: &Table,
    target: AttrId,
    rows: &RowSet,
) -> Option<(f64, f64)> {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for r in rows.iter() {
        if let Some(v) = table.value_f64(r, target) {
            if v.is_finite() {
                lo = lo.min(v);
                hi = hi.max(v);
            }
        }
    }
    lo.is_finite().then(|| ((lo + hi) / 2.0, (hi - lo) / 2.0))
}

/// Midrange of the target over the whole instance — the last-resort
/// constant for partitions with no complete rows.
pub(crate) fn global_midrange(table: &Table, cfg: &DiscoveryConfig, rows: &RowSet) -> f64 {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for r in rows.iter() {
        if let Some(v) = table.value_f64(r, cfg.target) {
            lo = lo.min(v);
            hi = hi.max(v);
        }
    }
    if lo.is_finite() {
        (lo + hi) / 2.0
    } else {
        0.0
    }
}

/// Per-run scratch for the split chooser, built once per run:
///
/// * every predicate's [`KernelShape`], compiled against the table. The
///   shapes carry the resolved operator, the coerced constant and the
///   string LUT, with `Never`/`Always` already folded, so
///   `crr-core::compiled` alone decides what a predicate selects;
/// * for every numeric attribute some shape tests, each run row's
///   [`RankCodes`] among the space's sorted constants on it.
struct SplitScratch<'s> {
    shapes: Vec<KernelShape>,
    ranks: BTreeMap<AttrId, RankCodes<'s>>,
}

impl<'s> SplitScratch<'s> {
    /// Compiles `space` against `table` and ranks every row of `rows` —
    /// a superset of every partition the run scores — once per numeric
    /// attribute.
    fn build(table: &Table, space: &'s PredicateSpace, rows: &RowSet) -> SplitScratch<'s> {
        let shapes: Vec<KernelShape> = space
            .predicates()
            .iter()
            .map(|p| CompiledPred::compile(p, table).shape())
            .collect();
        let mut ranks = BTreeMap::new();
        for attr in shapes.iter().filter_map(shape_attr) {
            let col = table.column(attr);
            if !matches!(col.data(), ColumnData::Str { .. }) {
                ranks
                    .entry(attr)
                    .or_insert_with(|| RankCodes::build(col, space.numeric_constants(attr), rows));
            }
        }
        SplitScratch { shapes, ranks }
    }
}

/// One numeric attribute's run rows, ranked once among the space's sorted
/// distinct constants `g₀ < … < g_{M−1}` on it: code `2k` for a value
/// strictly between `g_{k−1}` and `g_k`, `2k + 1` for one equal to `g_k`,
/// `2M` for one above every constant, `2M + 1` for NaN and `2M + 2` for
/// null. An attribute tested only by `IS [NOT] NULL` has no constants, so
/// its codes read just non-NaN, NaN and null. The buffer is table-length,
/// like the snapshot's; only the run's rows are coded.
struct RankCodes<'s> {
    consts: &'s [f64],
    codes: Vec<u32>,
}

impl<'s> RankCodes<'s> {
    /// One binary search per row of `rows`.
    fn build(col: &Column, consts: &'s [f64], rows: &RowSet) -> RankCodes<'s> {
        let m = consts.len();
        let mut codes = vec![0u32; col.len()];
        for r in rows.iter() {
            let code = match col.get_f64(r) {
                None => 2 * m + 2,
                Some(v) if v.is_nan() => 2 * m + 1,
                Some(v) => {
                    let k = consts.partition_point(|&c| c < v);
                    2 * k + usize::from(consts.get(k) == Some(&v))
                }
            };
            codes[r] = code as u32;
        }
        RankCodes { consts, codes }
    }

    /// The pop's bin for every code, from one O(M) merge walk against the
    /// pop's sampled constants `local` (sorted, deduplicated by `==`, each
    /// one in the space's list): the bins [`AttrBins`] numbers against
    /// `local` — `2j + 1` for a value equal to `local[j]`, `2j` for one
    /// above `j` sampled constants and equal to none, then NaN and null.
    fn pop_bins(&self, local: &[f64]) -> Vec<u32> {
        let mut lut = Vec::with_capacity(2 * self.consts.len() + 3);
        let mut j = 0u32;
        for &g in self.consts {
            let sampled = local.get(j as usize) == Some(&g);
            lut.extend([2 * j, 2 * j + u32::from(sampled)]);
            j += u32::from(sampled);
        }
        debug_assert_eq!(
            j as usize,
            local.len(),
            "a sampled constant is not in the space's list"
        );
        lut.extend([2 * j, 2 * j + 1, 2 * j + 2]);
        lut
    }
}

/// Row count, Σv and Σv² over one bin or one side of a split.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Sums {
    n: usize,
    s: f64,
    q: f64,
}

impl std::ops::Add for Sums {
    type Output = Sums;
    fn add(self, o: Sums) -> Sums {
        Sums {
            n: self.n + o.n,
            s: self.s + o.s,
            q: self.q + o.q,
        }
    }
}

/// One pass of the scored rows over one condition attribute, binned so
/// that every sampled candidate on the attribute reads both of its sides
/// from bin sums.
///
/// Numeric columns bin against the sampled candidates' distinct
/// constants `c₀ < … < c_{m−1}`: bin `2j + 1` holds the values equal to
/// `c_j`, bin `2j` those strictly between `c_{j−1}` and `c_j`, and bin
/// `2m` those above `c_{m−1}`; each row's bin is one lookup of its
/// [`RankCodes`] code in the pop's table ([`RankCodes::pop_bins`]).
/// String columns have one bin per dictionary code. NaN and null cells
/// fall in buckets of their own.
///
/// Each bin sums its rows in ascending row order. A side that is a range
/// from the bottom reads `up` (bins summed upward), one from the top reads
/// `down` (summed downward), and the NaN and null buckets join the
/// unsatisfied side last. No side is a `total − prefix` difference, so
/// `p` and `¬p` on a null-free column score bitwise-equal.
struct AttrBins {
    consts: Vec<f64>,
    bins: Vec<Sums>,
    /// `up[k] = bins[0] + … + bins[k − 1]`.
    up: Vec<Sums>,
    /// `down[k] = bins[last] + … + bins[k]`.
    down: Vec<Sums>,
    nan: Sums,
    null: Sums,
}

impl AttrBins {
    /// Bins `scored` into `width` bins plus the NaN bucket `width` and the
    /// null bucket `width + 1` — row `r` into `bin_of(r)` — summing
    /// `values` (one per scored row) or, without values, counting rows
    /// only. `consts` are the sorted sampled constants a numeric
    /// attribute's bins are numbered against.
    fn build(
        consts: Vec<f64>,
        width: usize,
        scored: &[u32],
        values: Option<&[f64]>,
        bin_of: impl Fn(usize) -> usize,
    ) -> AttrBins {
        let mut acc = vec![Sums::default(); width + 2];
        for (i, &r) in scored.iter().enumerate() {
            let a = &mut acc[bin_of(r as usize)];
            a.n += 1;
            if let Some(values) = values {
                a.s += values[i];
                a.q += values[i] * values[i];
            }
        }
        let (nan, null) = (acc[width], acc[width + 1]);
        acc.truncate(width);
        let mut up = vec![Sums::default(); width + 1];
        for k in 0..width {
            up[k + 1] = up[k] + acc[k];
        }
        let mut down = vec![Sums::default(); width + 1];
        for k in (0..width).rev() {
            down[k] = down[k + 1] + acc[k];
        }
        AttrBins {
            consts,
            bins: acc,
            up,
            down,
            nan,
            null,
        }
    }

    /// `(satisfied, unsatisfied)` sums of a candidate with `shape` on this
    /// attribute; `None` for shapes that never separate.
    fn sides(&self, shape: &KernelShape) -> Option<(Sums, Sums)> {
        let all = self.up[self.bins.len()];
        match shape {
            KernelShape::Never | KernelShape::Always => None,
            // NaN cells are not null: IS NOT NULL holds on them.
            KernelShape::IsNull { .. } => Some((self.null, all + self.nan)),
            KernelShape::NotNull { .. } => Some((all + self.nan, self.null)),
            KernelShape::Num {
                op, c, matches_nan, ..
            } => {
                // Bins `..at` hold the values below `c`, `above..` those
                // above it.
                let j = self.consts.partition_point(|&x| x < *c);
                let (at, above) = (2 * j + 1, 2 * j + 2);
                let (yes, no) = match op {
                    Op::Lt => (self.up[at], self.down[at]),
                    Op::Le => (self.up[above], self.down[above]),
                    Op::Gt => (self.down[above], self.up[above]),
                    Op::Ge => (self.down[at], self.up[at]),
                    Op::Eq => (self.bins[at], self.up[at] + self.down[above]),
                    Op::Ne => (self.up[at] + self.down[above], self.bins[at]),
                    Op::IsNull | Op::NotNull => return None,
                };
                Some(if *matches_nan {
                    (yes + self.nan, no + self.null)
                } else {
                    (yes, no + self.nan + self.null)
                })
            }
            KernelShape::Str { lut, .. } => {
                let (mut yes, mut no) = (Sums::default(), Sums::default());
                for (&b, &hit) in self.bins.iter().zip(lut) {
                    if hit {
                        yes = yes + b;
                    } else {
                        no = no + b;
                    }
                }
                Some((yes, no + self.null))
            }
        }
    }
}

/// The attribute a kernel reads; `None` for the constant kernels.
fn shape_attr(shape: &KernelShape) -> Option<AttrId> {
    match shape {
        KernelShape::Never | KernelShape::Always => None,
        KernelShape::IsNull { attr }
        | KernelShape::NotNull { attr }
        | KernelShape::Num { attr, .. }
        | KernelShape::Str { attr, .. } => Some(*attr),
    }
}

/// The sampled candidates of one `choose_split` call, scored from one
/// binned pass ([`AttrBins`]) per condition attribute they test.
struct CandidateBins {
    attrs: BTreeMap<AttrId, AttrBins>,
}

impl CandidateBins {
    fn build(
        table: &Table,
        scratch: &SplitScratch,
        candidates: &[u32],
        scored: &[u32],
        values: Option<&[f64]>,
    ) -> CandidateBins {
        let mut consts: BTreeMap<AttrId, Vec<f64>> = BTreeMap::new();
        for &idx in candidates {
            let shape = &scratch.shapes[idx as usize];
            if let Some(attr) = shape_attr(shape) {
                let cs = consts.entry(attr).or_default();
                if let KernelShape::Num { c, .. } = shape {
                    cs.push(*c);
                }
            }
        }
        let attrs = consts
            .into_iter()
            .map(|(attr, mut cs)| {
                let col = table.column(attr);
                let bins = match col.data() {
                    ColumnData::Str { codes, dict, .. } => {
                        let (nulls, null) = (col.null_mask(), dict.len() + 1);
                        // A null cell holds a sentinel code: the mask first.
                        AttrBins::build(cs, dict.len(), scored, values, |r| {
                            if nulls.is_some_and(|m| m[r]) {
                                null
                            } else {
                                codes[r] as usize
                            }
                        })
                    }
                    _ => {
                        // Every numeric attribute a shape tests is ranked.
                        let ranks = &scratch.ranks[&attr];
                        cs.sort_unstable_by(f64::total_cmp);
                        // `==`, not bit equality: −0.0 and 0.0 are one
                        // constant.
                        cs.dedup_by(|a, b| a == b);
                        let lut = ranks.pop_bins(&cs);
                        let width = 2 * cs.len() + 1;
                        AttrBins::build(cs, width, scored, values, |r| {
                            lut[ranks.codes[r] as usize] as usize
                        })
                    }
                };
                (attr, bins)
            })
            .collect();
        CandidateBins { attrs }
    }

    /// `(satisfied, unsatisfied)` sums of a candidate with `shape`;
    /// `None` when it never separates.
    fn sides(&self, shape: &KernelShape) -> Option<(Sums, Sums)> {
        self.attrs.get(&shape_attr(shape)?)?.sides(shape)
    }
}

/// Line 19: pick the split predicate among the available ones.
///
/// Only *separating* predicates qualify (both sides non-empty — this is
/// what bounds the search tree at one leaf per tuple). `BestResidual`
/// (default) scores each candidate by the weighted variance of the parent
/// model's residuals (`resid`, one per `fit` row) per side — the
/// model-tree criterion that surfaces regime attributes; `BestVariance` is
/// the raw CART criterion \[9\] over the partition's non-null, non-NaN
/// `target` values, read off the table in row order; `FirstApplicable`
/// takes the first separating candidate. The candidates are every
/// `max(1, ⌊|avail|/64⌋)`-th of `avail` (see [`MAX_SPLIT_CANDIDATES`]:
/// 64–127 once `|avail| ≥ 64`), all scored from one binned pass per
/// condition attribute ([`CandidateBins`]); ties go to the lowest index.
fn choose_split(
    table: &Table,
    rows: &RowSet,
    (split, target): (SplitStrategy, AttrId),
    space: &PredicateSpace,
    avail: &[u32],
    (fit, resid): (&[u32], &[f64]),
    scratch: &SplitScratch,
) -> Option<u32> {
    let stride = (avail.len() / MAX_SPLIT_CANDIDATES).max(1);
    let candidates: Vec<u32> = avail.iter().copied().step_by(stride).collect();
    // The scored rows (ascending) and the quantity scored on each;
    // `FirstApplicable` only counts the partition's rows.
    let by_target: (Vec<u32>, Vec<f64>);
    let (scored, values): (&[u32], Option<&[f64]>) = match split {
        SplitStrategy::BestResidual => (fit, Some(resid)),
        SplitStrategy::BestVariance => {
            by_target = rows
                .iter()
                .filter_map(|r| {
                    let v = table.value_f64(r, target).filter(|v| !v.is_nan())?;
                    Some((r as u32, v))
                })
                .unzip();
            (&by_target.0, Some(&by_target.1))
        }
        SplitStrategy::FirstApplicable => (rows.as_slice(), None),
    };
    let bins = CandidateBins::build(table, scratch, &candidates, scored, values);
    let mut best: Option<(f64, u32)> = None;
    for &idx in &candidates {
        let Some((yes, no)) = bins.sides(&scratch.shapes[idx as usize]) else {
            continue;
        };
        if yes.n == 0 || no.n == 0 {
            continue; // not separating
        }
        if split == SplitStrategy::FirstApplicable {
            return Some(idx);
        }
        let score = split_score(yes, no);
        if best.map_or(true, |(b, _)| score < b) {
            best = Some((score, idx));
        }
    }
    if best.is_none() && stride > 1 {
        // The strided sample missed every separating predicate (small
        // partitions need fine constants). Coverage quality beats split
        // cost here: the space's sorted-constant lookup finds one in
        // O(|rows| + log |P|). It returns only a predicate that separates
        // `rows`, so both children shrink; and a predicate consumed on
        // this path never separates its own descendants, so skipping the
        // avail filter cannot pick it again.
        return space.separating_candidate(table, rows);
    }
    best.map(|(_, idx)| idx)
}

/// Weighted within-side variance of a split from each side's
/// `(count, Σv, Σv²)` — the quantity `choose_split` minimizes.
fn split_score(a: Sums, b: Sums) -> f64 {
    let var = |x: Sums| {
        let m = x.s / x.n as f64;
        (x.q / x.n as f64 - m * m).max(0.0)
    };
    (a.n as f64 * var(a) + b.n as f64 * var(b)) / (a.n + b.n) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Budget, CancelToken, FaultPlan, PredicateGen};
    use crr_data::{AttrType, Schema, Value};
    use crr_models::ModelKind;

    /// Test-local positional entry over [`run_search`], standing in for
    /// the removed public `discover` wrapper at every unit-test call site.
    fn discover(
        table: &Table,
        rows: &RowSet,
        cfg: &DiscoveryConfig,
        space: &PredicateSpace,
    ) -> Result<Discovery> {
        run_search(table, rows, cfg, space, None).map(|r| r.discovery)
    }

    /// y = x on x < 100; y = x - 50 on x >= 100 (same slope: shareable).
    fn two_segment_table() -> Table {
        let schema = Schema::new(vec![("x", AttrType::Float), ("y", AttrType::Float)]);
        let mut t = Table::new(schema);
        for i in 0..200 {
            let x = i as f64;
            let y = if x < 100.0 { x } else { x - 50.0 };
            t.push_row(vec![Value::Float(x), Value::Float(y)]).unwrap();
        }
        t
    }

    fn cfg_for(t: &Table) -> DiscoveryConfig {
        DiscoveryConfig::new(vec![t.attr("x").unwrap()], t.attr("y").unwrap(), 0.5)
    }

    fn space_for(t: &Table, per_attr: usize) -> PredicateSpace {
        PredicateGen::binary(per_attr).generate(t, &[t.attr("x").unwrap()], t.attr("y").unwrap(), 0)
    }

    #[test]
    fn discovers_and_shares_the_segment_model() {
        let t = two_segment_table();
        let cfg = cfg_for(&t);
        let space = space_for(&t, 7);
        let d = discover(&t, &t.all_rows(), &cfg, &space).unwrap();
        // Coverage (Problem 1).
        assert!(d.rules.uncovered(&t, &t.all_rows()).is_empty());
        // Exact piecewise-linear data: error ~ 0.
        let rep = d.rules.evaluate(&t, &t.all_rows());
        assert!(rep.rmse < 1e-9, "rmse {}", rep.rmse);
        // The second segment reuses the first segment's model via sharing:
        // fewer distinct models than rules, and at least one shared hit.
        assert!(d.stats.models_shared >= 1, "stats: {:?}", d.stats);
        assert!(
            d.rules.num_distinct_models() < d.rules.len(),
            "{} models for {} rules",
            d.rules.num_distinct_models(),
            d.rules.len()
        );
        // The shared rule carries a y = -50 built-in.
        let shared_rule = d
            .rules
            .rules()
            .iter()
            .find(|r| r.uses_translation())
            .expect("a translated rule");
        // Its built-in shift is the inter-segment offset (±50, which side
        // depends on which segment trained first).
        let b = shared_rule.condition().conjuncts()[0].builtin().unwrap();
        assert!(
            (b.delta_y.abs() - 50.0).abs() < 0.5 + 1e-9,
            "delta_y {}",
            b.delta_y
        );
    }

    #[test]
    fn sharing_disabled_trains_more_models() {
        let t = two_segment_table();
        let cfg = cfg_for(&t).with_sharing(false);
        let space = space_for(&t, 7);
        let d = discover(&t, &t.all_rows(), &cfg, &space).unwrap();
        assert!(d.stats.models_shared == 0);
        assert!(d.stats.models_trained >= 2);
        // Still accurate and covering.
        assert!(d.rules.uncovered(&t, &t.all_rows()).is_empty());
        let rep = d.rules.evaluate(&t, &t.all_rows());
        assert!(rep.rmse < 1e-9);
    }

    #[test]
    fn all_rho_respected_or_forced() {
        let t = two_segment_table();
        let cfg = cfg_for(&t);
        let space = space_for(&t, 7);
        let d = discover(&t, &t.all_rows(), &cfg, &space).unwrap();
        // Every rule's rho is honest: no violation on its own partition.
        for rule in d.rules.rules() {
            assert!(rule.find_violation(&t, &t.all_rows()).is_none());
        }
    }

    #[test]
    fn trivial_target_rejected() {
        let t = two_segment_table();
        let y = t.attr("y").unwrap();
        let cfg = DiscoveryConfig::new(vec![y], y, 0.5);
        assert!(matches!(
            discover(&t, &t.all_rows(), &cfg, &PredicateSpace::default()),
            Err(DiscoveryError::TrivialTarget)
        ));
    }

    #[test]
    fn predicate_on_target_rejected() {
        let t = two_segment_table();
        let cfg = cfg_for(&t);
        let space = PredicateSpace::from_predicates(vec![crr_core::Predicate::ge(
            t.attr("y").unwrap(),
            Value::Float(0.0),
        )]);
        assert!(matches!(
            discover(&t, &t.all_rows(), &cfg, &space),
            Err(DiscoveryError::PredicateOnTarget)
        ));
    }

    #[test]
    fn empty_space_forces_single_rule() {
        let t = two_segment_table();
        let cfg = cfg_for(&t);
        let d = discover(&t, &t.all_rows(), &cfg, &PredicateSpace::default()).unwrap();
        // Cannot split: one rule covering everything, bias above rho_max.
        assert_eq!(d.rules.len(), 1);
        assert_eq!(d.stats.forced_accepts, 1);
        assert!(d.rules.rules()[0].rho() > cfg.rho_max);
        assert!(d.rules.uncovered(&t, &t.all_rows()).is_empty());
    }

    #[test]
    fn single_row_instance_gets_exact_constant() {
        let t = two_segment_table();
        let cfg = cfg_for(&t);
        let one = RowSet::from_indices(vec![7]);
        let d = discover(&t, &one, &cfg, &space_for(&t, 3)).unwrap();
        assert_eq!(d.rules.len(), 1);
        assert_eq!(d.rules.rules()[0].rho(), 0.0);
        assert_eq!(d.rules.predict(&t, 7), Some(7.0));
    }

    #[test]
    fn orders_explore_differently_but_agree_on_coverage() {
        let t = two_segment_table();
        let space = space_for(&t, 7);
        for order in [
            QueueOrder::Decrease,
            QueueOrder::Increase,
            QueueOrder::Random(3),
        ] {
            let cfg = cfg_for(&t).with_order(order);
            let d = discover(&t, &t.all_rows(), &cfg, &space).unwrap();
            assert!(d.rules.uncovered(&t, &t.all_rows()).is_empty(), "{order:?}");
            let rep = d.rules.evaluate(&t, &t.all_rows());
            assert!(rep.rmse < 1e-9, "{order:?}");
        }
    }

    #[test]
    fn mlp_family_discovers_with_y_only_sharing() {
        let t = two_segment_table();
        let mut cfg = cfg_for(&t).with_kind(ModelKind::Mlp);
        cfg.rho_max = 20.0; // MLPs are approximate; allow slack
        cfg.fit.mlp.epochs = 150;
        let space = space_for(&t, 3);
        let d = discover(&t, &t.all_rows(), &cfg, &space).unwrap();
        assert!(d.rules.uncovered(&t, &t.all_rows()).is_empty());
        for rule in d.rules.rules() {
            if let Some(b) = rule.condition().conjuncts()[0].builtin() {
                assert!(b.delta_x.iter().all(|&dx| dx == 0.0), "MLP shares y only");
            }
        }
    }

    #[test]
    fn deterministic_given_same_inputs() {
        let t = two_segment_table();
        let cfg = cfg_for(&t);
        let space = space_for(&t, 7);
        let a = discover(&t, &t.all_rows(), &cfg, &space).unwrap();
        let b = discover(&t, &t.all_rows(), &cfg, &space).unwrap();
        assert_eq!(a.rules.len(), b.rules.len());
        for (ra, rb) in a.rules.rules().iter().zip(b.rules.rules()) {
            assert_eq!(ra.condition(), rb.condition());
            assert_eq!(ra.rho(), rb.rho());
        }
    }

    #[test]
    fn kernel_counters_balance_against_splits() {
        let t = two_segment_table();
        let sink = MetricsSink::enabled();
        let cfg = cfg_for(&t).with_metrics(sink.clone());
        let d = discover(&t, &t.all_rows(), &cfg, &space_for(&t, 7)).unwrap();
        let count = |s, n| d.metrics.count(s, n).unwrap();
        // Each split filters both of its sides through the compiled kernel.
        assert!(count("queue", "splits") > 0);
        assert_eq!(
            count("kernels", "compiled_scans"),
            2 * count("queue", "splits")
        );
        // Every moments build goes through the batched kernel: the root
        // plus one per child re-accumulation or rebuild.
        assert_eq!(
            count("kernels", "batch_accumulates"),
            1 + count("moments", "child_reaccumulations") + 2 * count("moments", "full_rebuilds")
        );
    }

    /// The dense view of every fit-ready row of `t` under `cfg`.
    fn view_of(t: &Table, cfg: &DiscoveryConfig) -> FitView {
        let snap = NumericSnapshot::build(t, &cfg.inputs, cfg.target, &t.all_rows()).unwrap();
        let mut view = FitView::new(cfg.inputs.len());
        view.gather(&snap, &snap.ready_rows(&t.all_rows()));
        view
    }

    /// `two_segment_table`'s rows as materialized `(xs, y)`.
    fn two_segment_rows(t: &Table) -> (Vec<Vec<f64>>, Vec<f64>) {
        let (x, y) = (t.attr("x").unwrap(), t.attr("y").unwrap());
        (0..t.num_rows())
            .map(|r| (vec![t.value_f64(r, x).unwrap()], t.value_f64(r, y).unwrap()))
            .unzip()
    }

    #[test]
    fn short_circuit_matches_full_probe() {
        // Skipping a miss's count must never change (δ₀, max_dev), and the
        // counted probes keep the *maximum* within-count over the pool
        // exact.
        let t = two_segment_table();
        let cfg = cfg_for(&t);
        let view = view_of(&t, &cfg);
        let (xs, ys) = two_segment_rows(&t);
        let models = [
            Model::Linear(crr_models::LinearModel::new(vec![1.0], 0.0)),
            Model::Linear(crr_models::LinearModel::new(vec![2.0], -5.0)),
            Model::Constant(ConstantModel::new(60.0, 1)),
        ];
        let mut buf = Vec::new();
        let mut best = 0usize;
        let mut full_best = 0usize;
        for m in &models {
            let full = share_probe(m, &view, cfg.rho_max, &mut buf, true);
            let skip = share_probe(m, &view, cfg.rho_max, &mut buf, false);
            assert_eq!(full.delta0.to_bits(), skip.delta0.to_bits());
            assert_eq!(full.max_dev.to_bits(), skip.max_dev.to_bits());
            full_best = full_best.max(share_fit_rowwise(m, &xs, &ys, cfg.rho_max).2);
            best = best.max(full.within);
            // The running max over counted probes equals the true max.
            assert_eq!(best, full_best);
        }
    }

    #[test]
    fn noisy_data_within_rho_uses_one_rule() {
        // Bounded noise 0.2 < rho_max 0.5: a single model suffices.
        let schema = Schema::new(vec![("x", AttrType::Float), ("y", AttrType::Float)]);
        let mut t = Table::new(schema);
        for i in 0..100 {
            let x = i as f64;
            let n = if i % 2 == 0 { 0.2 } else { -0.2 };
            t.push_row(vec![Value::Float(x), Value::Float(2.0 * x + n)])
                .unwrap();
        }
        let cfg = cfg_for(&t);
        let d = discover(&t, &t.all_rows(), &cfg, &space_for(&t, 7)).unwrap();
        assert_eq!(d.rules.len(), 1);
        assert!(d.rules.rules()[0].rho() <= 0.5);
    }

    #[test]
    fn zero_deadline_degrades_but_still_covers() {
        let t = two_segment_table();
        let cfg = cfg_for(&t).with_budget(Budget::unlimited().with_deadline(Duration::ZERO));
        let d = discover(&t, &t.all_rows(), &cfg, &space_for(&t, 7)).unwrap();
        assert_eq!(d.outcome, DiscoveryOutcome::DeadlineExceeded);
        // Degraded, not empty: the drained fallback still covers every row.
        assert!(!d.rules.is_empty());
        assert!(d.rules.uncovered(&t, &t.all_rows()).is_empty());
        assert!(d.stats.drained_partitions >= 1);
        assert_eq!(d.stats.drained_rows, 200);
        // The fallback rho is honest on its own partition.
        for rule in d.rules.rules() {
            assert!(rule.find_violation(&t, &t.all_rows()).is_none());
        }
    }

    #[test]
    fn expansion_cap_trips_budget_exhausted() {
        let t = two_segment_table();
        let cfg = cfg_for(&t).with_budget(Budget::unlimited().with_max_expansions(1));
        let d = discover(&t, &t.all_rows(), &cfg, &space_for(&t, 7)).unwrap();
        assert_eq!(d.outcome, DiscoveryOutcome::BudgetExhausted);
        assert_eq!(d.stats.partitions_explored, 1);
        assert!(d.rules.uncovered(&t, &t.all_rows()).is_empty());
    }

    #[test]
    fn fit_cap_trips_budget_exhausted() {
        let t = two_segment_table();
        let cfg = cfg_for(&t).with_budget(Budget::unlimited().with_max_fits(1));
        let d = discover(&t, &t.all_rows(), &cfg, &space_for(&t, 7)).unwrap();
        assert_eq!(d.outcome, DiscoveryOutcome::BudgetExhausted);
        assert_eq!(d.stats.models_trained, 1);
        assert!(d.rules.uncovered(&t, &t.all_rows()).is_empty());
    }

    #[test]
    fn pre_cancelled_token_stops_first_pop() {
        let t = two_segment_table();
        let token = CancelToken::new();
        token.cancel();
        let cfg = cfg_for(&t).with_cancel(token);
        let d = discover(&t, &t.all_rows(), &cfg, &space_for(&t, 7)).unwrap();
        assert_eq!(d.outcome, DiscoveryOutcome::Cancelled);
        assert_eq!(d.stats.partitions_explored, 0);
        assert!(d.rules.uncovered(&t, &t.all_rows()).is_empty());
    }

    #[test]
    fn unlimited_run_reports_complete() {
        let t = two_segment_table();
        let cfg = cfg_for(&t);
        let d = discover(&t, &t.all_rows(), &cfg, &space_for(&t, 7)).unwrap();
        assert!(d.outcome.is_complete());
        assert_eq!(d.stats.drained_partitions, 0);
        assert_eq!(d.stats.drained_rows, 0);
    }

    #[test]
    fn injected_fit_failure_is_typed() {
        let t = two_segment_table();
        let cfg = cfg_for(&t).with_faults(Arc::new(FaultPlan::new().fail_fit_every(1)));
        assert!(matches!(
            discover(&t, &t.all_rows(), &cfg, &space_for(&t, 7)),
            Err(DiscoveryError::InjectedFault { fit: 1 })
        ));
    }

    #[test]
    fn non_finite_cell_is_typed_error() {
        let mut t = two_segment_table();
        let x = t.attr("x").unwrap();
        t.set_value(13, x, Value::Float(f64::NAN));
        let cfg = cfg_for(&t);
        match discover(&t, &t.all_rows(), &cfg, &space_for(&t, 7)) {
            Err(DiscoveryError::NonFiniteValue { row: 13, attr }) => assert_eq!(attr, "x"),
            other => panic!("expected NonFiniteValue, got {other:?}"),
        }
    }

    /// Row-major reference for [`share_probe`]: `(δ₀, max |r − δ₀|, rows
    /// within ρ_M of f + δ₀)` from `Regressor::predict` over materialized
    /// rows, folded row by row.
    fn share_fit_rowwise(f: &Model, xs: &[Vec<f64>], y: &[f64], rho_max: f64) -> (f64, f64, usize) {
        let residuals: Vec<f64> = xs.iter().zip(y).map(|(x, &t)| t - f.predict(x)).collect();
        let lo = residuals.iter().fold(f64::INFINITY, |m, &r| m.min(r));
        let hi = residuals.iter().fold(f64::NEG_INFINITY, |m, &r| m.max(r));
        let delta0 = (lo + hi) / 2.0;
        let mut max_dev = 0.0f64;
        let mut within = 0usize;
        for r in &residuals {
            let dev = (r - delta0).abs();
            max_dev = max_dev.max(dev);
            if dev <= rho_max {
                within += 1;
            }
        }
        (delta0, max_dev, within)
    }

    #[test]
    fn share_fit_computes_midrange() {
        let f = Model::Linear(crr_models::LinearModel::new(vec![1.0], 0.0));
        let xs: Vec<Vec<f64>> = (0..4).map(|i| vec![i as f64]).collect();
        // y = x + 3 exactly: residuals all 3.
        let y: Vec<f64> = xs.iter().map(|x| x[0] + 3.0).collect();
        let (d0, dev, within) = share_fit_rowwise(&f, &xs, &y, 0.5);
        assert_eq!(d0, 3.0);
        assert_eq!(dev, 0.0);
        assert_eq!(within, 4);
    }

    #[test]
    fn metrics_agree_with_discovery_stats() {
        let t = two_segment_table();
        let sink = MetricsSink::enabled();
        let cfg = cfg_for(&t).with_metrics(sink.clone());
        let d = discover(&t, &t.all_rows(), &cfg, &space_for(&t, 7)).unwrap();
        let m = &d.metrics;
        assert!(!m.is_empty());
        // Counters mirror the coarse stats the struct always carried.
        let count = |s, n| m.count(s, n).unwrap();
        assert_eq!(count("queue", "pops"), d.stats.partitions_explored as u64);
        assert_eq!(count("pool", "hits"), d.stats.models_shared as u64);
        assert_eq!(
            count("queue", "forced_accepts"),
            d.stats.forced_accepts as u64
        );
        assert_eq!(count("queue", "rules_emitted"), d.rules.len() as u64);
        // Every trained model is accounted to exactly one fit path.
        assert_eq!(
            count("fits", "moments_solves")
                + count("fits", "declined_singular")
                + count("fits", "rescans"),
            d.stats.models_trained as u64
        );
        // The linear family never fits from materialized rows.
        assert_eq!(count("fits", "rescans"), 0);
        // Pops never outnumber pushes, and the pool gauge is the final size.
        assert!(count("queue", "pops") <= count("queue", "pushes"));
        assert_eq!(
            count("run", "pool_models"),
            d.rules.num_distinct_models() as u64
        );
        // Phase timers observed real time.
        assert!(m.secs("phases", "total_secs").unwrap() > 0.0);
        // The frozen snapshot equals the live sink's.
        assert_eq!(sink.snapshot().to_json(0), m.to_json(0));
    }

    #[test]
    fn mlp_fits_from_rows_without_moments_traffic() {
        let t = two_segment_table();
        let mut cfg = cfg_for(&t)
            .with_kind(ModelKind::Mlp)
            .with_metrics(MetricsSink::enabled());
        cfg.rho_max = 20.0;
        cfg.fit.mlp.epochs = 30;
        let d = discover(&t, &t.all_rows(), &cfg, &space_for(&t, 3)).unwrap();
        let count = |s, n| d.metrics.count(s, n).unwrap();
        // Every MLP fit re-reads its partition's rows ...
        assert!(d.stats.models_trained > 0);
        assert_eq!(count("fits", "rescans"), d.stats.models_trained as u64);
        assert_eq!(count("fits", "moments_solves"), 0);
        assert_eq!(count("fits", "declined_singular"), 0);
        // ... and no sufficient statistics are ever built or split.
        assert_eq!(count("moments", "add_row_ops"), 0);
        assert_eq!(count("moments", "sibling_subtractions"), 0);
        assert_eq!(count("moments", "full_rebuilds"), 0);
        assert_eq!(count("kernels", "batch_accumulates"), 0);
    }

    #[test]
    fn moments_ledger_balances_across_splits() {
        let t = two_segment_table();
        let sink = MetricsSink::enabled();
        let cfg = cfg_for(&t).with_metrics(sink.clone());
        let d = discover(&t, &t.all_rows(), &cfg, &space_for(&t, 7)).unwrap();
        let count = |s, n| d.metrics.count(s, n).unwrap();
        // Each split derives children either by sibling subtraction or a
        // full rebuild — never both, never neither.
        assert_eq!(
            count("queue", "splits"),
            count("moments", "sibling_subtractions") + count("moments", "full_rebuilds")
        );
        assert_eq!(
            count("moments", "sibling_subtractions"),
            count("moments", "child_reaccumulations")
        );
        assert_eq!(
            count("moments", "subtract_ops"),
            count("moments", "sibling_subtractions")
        );
        // The root accumulation alone touches every fit row once.
        assert!(count("moments", "add_row_ops") >= count("run", "fit_rows"));
    }

    #[test]
    fn injected_failure_is_recorded_in_metrics() {
        let t = two_segment_table();
        let sink = MetricsSink::enabled();
        let plan = Arc::new(FaultPlan::new().fail_fit_every(1));
        let cfg = cfg_for(&t)
            .with_faults(Arc::clone(&plan))
            .with_metrics(sink.clone());
        assert!(discover(&t, &t.all_rows(), &cfg, &space_for(&t, 7)).is_err());
        // The sink outlives the failed run: one injected fault, recorded.
        let snap = sink.snapshot();
        assert_eq!(snap.count("faults", "injected_failures"), Some(1));
        assert_eq!(plan.fits_attempted(), 1);
    }

    #[test]
    fn disabled_sink_yields_empty_metrics() {
        let t = two_segment_table();
        let cfg = cfg_for(&t);
        let d = discover(&t, &t.all_rows(), &cfg, &space_for(&t, 7)).unwrap();
        assert!(d.metrics.is_empty());
        assert_eq!(d.metrics.to_json(0), "{}");
    }

    #[test]
    fn snapshot_share_fit_matches_row_share_fit() {
        let t = two_segment_table();
        let cfg = cfg_for(&t);
        let view = view_of(&t, &cfg);
        let (xs, ys) = two_segment_rows(&t);
        let f = Model::Linear(crr_models::LinearModel::new(vec![1.0], 0.0));
        let (d0r, devr, withinr) = share_fit_rowwise(&f, &xs, &ys, cfg.rho_max);
        let p = share_probe(&f, &view, cfg.rho_max, &mut Vec::new(), true);
        assert_eq!(d0r.to_bits(), p.delta0.to_bits());
        assert_eq!(devr.to_bits(), p.max_dev.to_bits());
        assert_eq!(withinr, p.within);
    }

    /// SplitMix64, so every case is reproducible from its seed.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// Uniform in `[-scale, scale)`.
        fn real(&mut self, scale: f64) -> f64 {
            ((self.next() >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0) * scale
        }
    }

    #[test]
    fn share_probe_matches_rowwise_oracle() {
        // Constant, linear (d = 1, 2) and MLP pools over partitions of
        // 1–600 rows, with residual sets that repeat values, are all
        // equal, hold ±0.0, or sit exactly at δ₀ ± ρ_M. Inputs, weights
        // and structured residuals are small dyadics, so the affine
        // predictions are exact and a target built as prediction +
        // residual reproduces that residual exactly.
        let rho = 0.5;
        let mut rng = Rng(0x5EED_0F9B_0B00);
        let mut seen = [0usize; 4]; // hits, misses, ties on a miss, mixed-sign zeros
        for case in 0..400u64 {
            let d = 1 + (case % 2) as usize;
            let n = 1 + rng.below(600) as usize;
            let dyadic =
                |rng: &mut Rng, scale: u64| (rng.below(2 * scale) as f64 - scale as f64) / 4.0;
            let mut pool = vec![
                Model::Constant(ConstantModel::new(dyadic(&mut rng, 8), d)),
                Model::Constant(ConstantModel::new(0.0, d)),
                Model::Linear(crr_models::LinearModel::new(
                    (0..d).map(|_| dyadic(&mut rng, 8)).collect(),
                    dyadic(&mut rng, 8),
                )),
            ];
            let hidden = 3;
            // w1 ‖ b1 ‖ w2 ‖ b2, then the input means and spreads.
            let mut params: Vec<f64> = (0..hidden * d + 2 * hidden + 1)
                .map(|_| rng.real(1.0))
                .collect();
            params.extend((0..d).map(|_| rng.real(4.0)));
            params.extend((0..d).map(|_| 1.0 + rng.real(0.5)));
            pool.push(Model::Mlp(
                crr_models::MlpModel::from_flat(d, hidden, &params).unwrap(),
            ));
            // The partition's inputs, and a target read as the residual
            // around one pool model.
            let cols: Vec<Vec<f64>> = (0..d)
                .map(|_| (0..n).map(|_| dyadic(&mut rng, 64)).collect())
                .collect();
            let base = &pool[rng.below(pool.len() as u64) as usize];
            let palette: Vec<f64> = (0..1 + rng.below(5)).map(|_| rng.real(3.0)).collect();
            let target: Vec<f64> = (0..n)
                .map(|i| {
                    let x: Vec<f64> = cols.iter().map(|c| c[i]).collect();
                    let e = match case % 5 {
                        0 => rng.real(2.0),
                        // Repeats from a small palette.
                        1 => palette[rng.below(palette.len() as u64) as usize],
                        // All equal.
                        2 => palette[0],
                        // Exact ties: once 0 and 2 are drawn, δ₀ = 1 and
                        // 0.5 and 1.5 sit at δ₀ ± ρ_M.
                        3 => [0.5, 1.5, 0.0, 2.0, 1.0, 0.75][rng.below(6) as usize],
                        _ => [0.0, -0.0, 0.25, -0.25][rng.below(4) as usize],
                    };
                    if case % 5 == 4 {
                        // Minus the zero constant (pool[1]), a zero
                        // target is a residual zero of the same sign.
                        e
                    } else {
                        base.predict(&x) + e
                    }
                })
                .collect();
            if target.iter().any(|v| v.to_bits() == (-0.0f64).to_bits())
                && target.iter().any(|v| v.to_bits() == 0)
            {
                seen[3] += 1;
            }
            let xs: Vec<Vec<f64>> = (0..n)
                .map(|i| cols.iter().map(|c| c[i]).collect())
                .collect();
            let view = FitView { cols, target };
            // Every model probed, counted and uncounted, like a scan that
            // never hits.
            let mut resid = Vec::new();
            for f in &pool {
                let (d0, dev, within) = share_fit_rowwise(f, &xs, &view.target, rho);
                let full = share_probe(f, &view, rho, &mut resid, true);
                // A zero shift composes no translation, and min/max may
                // return either zero of ±0.0: compare zeros unsigned.
                assert_eq!(
                    (d0 + 0.0).to_bits(),
                    (full.delta0 + 0.0).to_bits(),
                    "case {case}"
                );
                assert_eq!(dev.to_bits(), full.max_dev.to_bits(), "case {case}");
                assert_eq!(within, full.within, "case {case}");
                let hit = full.max_dev <= rho;
                seen[usize::from(!hit)] += 1;
                if !hit
                    && xs
                        .iter()
                        .zip(&view.target)
                        .any(|(x, t)| ((t - f.predict(x)) - d0).abs() == rho)
                {
                    seen[2] += 1;
                }
                // The uncounted probe of a random order or a cross pool.
                let skip = share_probe(f, &view, rho, &mut resid, false);
                assert_eq!(skip.delta0.to_bits(), full.delta0.to_bits());
                assert_eq!(skip.max_dev.to_bits(), full.max_dev.to_bits());
                assert_eq!(skip.within, if hit { n } else { 0 }, "case {case}");
            }
        }
        // Every structure the fixture aims at was reached.
        assert!(seen.iter().all(|&k| k > 0), "{seen:?}");
    }

    /// The `(row, value)` pairs `split` scores: the residual of each fit
    /// row, the target of each row that has one, or — for
    /// `FirstApplicable`, which only counts — every row with value 0.
    fn scored_rowwise(
        table: &Table,
        rows: &RowSet,
        (split, target): (SplitStrategy, AttrId),
        (fit, resid): (&[u32], &[f64]),
    ) -> Vec<(usize, f64)> {
        match split {
            SplitStrategy::BestResidual => fit
                .iter()
                .zip(resid)
                .map(|(&r, &e)| (r as usize, e))
                .collect(),
            SplitStrategy::BestVariance => rows
                .iter()
                .filter_map(|r| table.value_f64(r, target).map(|v| (r, v)))
                .collect(),
            SplitStrategy::FirstApplicable => rows.iter().map(|r| (r, 0.0)).collect(),
        }
    }

    /// `(satisfied, unsatisfied)` sums of `p` over `scored` `(row, value)`
    /// pairs, one `Predicate::eval` per row.
    fn sides_rowwise(table: &Table, p: &Predicate, scored: &[(usize, f64)]) -> (Sums, Sums) {
        let mut sides = [Sums::default(); 2];
        for &(r, v) in scored {
            let side = &mut sides[usize::from(!p.eval(table, r))];
            side.n += 1;
            side.s += v;
            side.q += v * v;
        }
        (sides[0], sides[1])
    }

    /// Row-at-a-time reference for [`choose_split`]: every candidate is
    /// scored through `Predicate::eval` and `Table::value_f64` per row — no
    /// kernel shapes, no bins. Same candidate stride, same fallback and
    /// same score formula, so on values whose sums are exact in any order
    /// the two must agree exactly.
    fn choose_split_rowwise(
        table: &Table,
        rows: &RowSet,
        (split, target): (SplitStrategy, AttrId),
        space: &PredicateSpace,
        avail: &[u32],
        (fit, resid): (&[u32], &[f64]),
    ) -> Option<u32> {
        let stride = (avail.len() / MAX_SPLIT_CANDIDATES).max(1);
        let scored = scored_rowwise(table, rows, (split, target), (fit, resid));
        let mut best: Option<(f64, u32)> = None;
        for &idx in avail.iter().step_by(stride) {
            let p = &space.predicates()[idx as usize];
            let (yes, no) = sides_rowwise(table, p, &scored);
            if yes.n == 0 || no.n == 0 {
                continue;
            }
            if split == SplitStrategy::FirstApplicable {
                return Some(idx);
            }
            let score = split_score(yes, no);
            if best.map_or(true, |(b, _)| score < b) {
                best = Some((score, idx));
            }
        }
        if best.is_none() && stride > 1 {
            return space.separating_candidate(table, rows);
        }
        best.map(|(_, idx)| idx)
    }

    #[test]
    fn choose_split_matches_rowwise_oracle() {
        // Nulls in every condition column and in the target, NaN cells in
        // two float condition columns, ±0.0 cells and constants, a
        // dictionary-coded string column, a float column tested only by
        // IS [NOT] NULL, partitions with gaps drawn from a run that leaves
        // rows out (the rank codes cover only the run), candidate sets
        // above and below the sampling cap, and all three strategies.
        // Every scored value is dyadic, so sums are exact in any order:
        // agreement checks which rows land on which side, not the
        // summation order (the pinned hashes in `engine_equivalence.rs`
        // cover that).
        let schema = Schema::new(vec![
            ("x", AttrType::Float),
            ("k", AttrType::Int),
            ("s", AttrType::Str),
            ("z", AttrType::Float),
            ("y", AttrType::Float),
        ]);
        let mut t = Table::new(schema);
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let words = ["north", "south", "east", "west", "centre"];
        for i in 0..600u64 {
            let x = if i % 7 == 3 {
                Value::Null
            } else {
                let v = (next() % 1000) as f64 / 10.0 - 20.0;
                Value::Float(match i % 19 {
                    8 => f64::NAN,
                    11 => -0.0,
                    14 => 0.0,
                    _ => v,
                })
            };
            let k = if i % 17 == 5 {
                Value::Null
            } else {
                Value::Int((next() % 40) as i64 - 5)
            };
            let s = if i % 11 == 2 {
                Value::Null
            } else {
                Value::Str(words[(next() % 5) as usize].into())
            };
            let z = match i % 9 {
                1 => Value::Null,
                4 => Value::Float(f64::NAN),
                _ => Value::Float((next() % 50) as f64),
            };
            let y = if i % 13 == 4 {
                Value::Null
            } else {
                Value::Float((next() % 2000) as f64 / 8.0 - 100.0)
            };
            t.push_row(vec![x, k, s, z, y]).unwrap();
        }
        let (x, k, s, z, y) = (
            t.attr("x").unwrap(),
            t.attr("k").unwrap(),
            t.attr("s").unwrap(),
            t.attr("z").unwrap(),
            t.attr("y").unwrap(),
        );
        let generated = PredicateGen::binary(40).generate(&t, &[x, k, s], y, 3);
        let mut preds = generated.predicates().to_vec();
        preds.extend(generated.predicates().iter().map(|p| p.negate()));
        // Every numeric operator, several predicates per constant, both
        // zeros, and the int column against integral and fractional float
        // constants.
        let ops = [Op::Lt, Op::Le, Op::Gt, Op::Ge, Op::Eq, Op::Ne];
        for (attr, c) in [
            (x, 25.0),
            (x, 50.0),
            (x, 62.5),
            (x, -0.0),
            (x, 0.0),
            (k, 20.0),
            (k, 19.5),
            (k, -0.5),
            (k, -0.0),
        ] {
            preds.extend(ops.map(|op| Predicate::new(attr, op, Value::Float(c))));
        }
        for attr in [x, s, z] {
            preds.push(Predicate::is_null(attr));
            preds.push(Predicate::not_null(attr));
        }
        let space = PredicateSpace::from_predicates(preds);
        assert!(space.numeric_constants(z).is_empty());
        // The run: every row but a seventh of them.
        let run = RowSet::from_indices(
            (0..t.num_rows() as u32)
                .filter(|_| next() % 7 != 0)
                .collect(),
        );
        let scratch = SplitScratch::build(&t, &space, &run);
        assert!(space.len() > 2 * MAX_SPLIT_CANDIDATES);

        let (mut on_string, mut strided, mut splits) = (0, 0, 0);
        let mut covered = std::collections::HashSet::new();
        for trial in 0..150 {
            // A gapped partition of the run and its fit-ready rows (x and
            // y present), thinned further so residual rows are a strict
            // subset.
            let keep = 20 + next() % 80;
            let rows = RowSet::from_sorted(
                run.iter()
                    .filter(|_| next() % 100 < keep)
                    .map(|r| r as u32)
                    .collect(),
            );
            let fit: Vec<u32> = rows
                .iter()
                .filter(|&r| t.value_f64(r, x).is_some() && t.value_f64(r, y).is_some())
                .filter(|_| next() % 10 != 0)
                .map(|r| r as u32)
                .collect();
            let resid: Vec<f64> = fit
                .iter()
                .map(|_| (next() % 400) as f64 / 16.0 - 12.5)
                .collect();
            let avail: Vec<u32> = if trial % 3 == 0 {
                (0..space.len() as u32).collect()
            } else {
                (0..space.len() as u32)
                    .filter(|_| next() % 5 == 0)
                    .collect()
            };
            let stride = (avail.len() / MAX_SPLIT_CANDIDATES).max(1);
            if stride > 1 {
                strided += 1;
            }
            let sampled: Vec<u32> = avail.iter().copied().step_by(stride).collect();
            for split in [
                SplitStrategy::BestResidual,
                SplitStrategy::BestVariance,
                SplitStrategy::FirstApplicable,
            ] {
                let got = choose_split(
                    &t,
                    &rows,
                    (split, y),
                    &space,
                    &avail,
                    (&fit, &resid),
                    &scratch,
                );
                let want =
                    choose_split_rowwise(&t, &rows, (split, y), &space, &avail, (&fit, &resid));
                assert_eq!(got, want, "trial {trial}, {split:?}");
                if let Some(idx) = got {
                    splits += 1;
                    if space.predicates()[idx as usize].attr == s {
                        on_string += 1;
                    }
                }
                // Row membership: each sampled candidate's binned sides
                // equal its row-wise ones, counts and sums alike.
                let pairs = scored_rowwise(&t, &rows, (split, y), (&fit, &resid));
                let (scored, values): (Vec<u32>, Vec<f64>) =
                    pairs.iter().map(|&(r, v)| (r as u32, v)).unzip();
                let values = (split != SplitStrategy::FirstApplicable).then_some(&values[..]);
                let bins = CandidateBins::build(&t, &scratch, &sampled, &scored, values);
                for &idx in &sampled {
                    let p = &space.predicates()[idx as usize];
                    let want = sides_rowwise(&t, p, &pairs);
                    match bins.sides(&scratch.shapes[idx as usize]) {
                        Some(got) => {
                            assert_eq!(got, want, "trial {trial}, {split:?}, {p:?}");
                            covered.insert((p.attr, p.op));
                        }
                        None => assert!(want.0.n == 0 || want.1.n == 0, "{p:?}"),
                    }
                }
            }
        }
        // The trials reached the string column and the sampling stride,
        // and checked membership for every operator the fixture holds.
        assert!(
            on_string > 0 && strided > 0 && splits > 300,
            "{on_string} {strided} {splits}"
        );
        let mut expected: Vec<(AttrId, Op)> = Vec::new();
        for attr in [x, k] {
            expected.extend(ops.map(|op| (attr, op)));
        }
        for attr in [x, s, z] {
            expected.extend([(attr, Op::IsNull), (attr, Op::NotNull)]);
        }
        expected.extend([(s, Op::Eq), (s, Op::Ne)]);
        for e in &expected {
            assert!(covered.contains(e), "no candidate {e:?} was checked");
        }
    }

    /// The per-pop binary search the rank codes replaced: the bin of `v`
    /// against the sorted, deduplicated sampled constants, `2m + 1` for
    /// NaN.
    fn numeric_bin(consts: &[f64], v: f64) -> usize {
        if v.is_nan() {
            return 2 * consts.len() + 1;
        }
        let k = consts.partition_point(|&c| c < v);
        2 * k + usize::from(consts.get(k) == Some(&v))
    }

    #[test]
    fn pop_bins_match_per_pop_binary_search() {
        // Spaces of 0–40 constants drawn from a small palette (repeats,
        // ±0.0, ±Inf, halves), columns whose cells hit the constants, lie
        // between and beyond them, or are NaN or null, and random sampled
        // subsets of every size: each coded row's lookup equals the old
        // binary search over the pop's sampled constants.
        let mut rng = Rng(0xC0DE_5EED);
        let palette = |rng: &mut Rng| match rng.below(10) {
            0 => -0.0,
            1 => 0.0,
            2 => f64::INFINITY,
            3 => f64::NEG_INFINITY,
            _ => (rng.below(40) as f64 - 20.0) / 2.0,
        };
        let mut seen = [0usize; 3]; // sampled-equal hits, unsampled-equal, empty spaces
        for case in 0..300 {
            let schema = Schema::new(vec![("v", AttrType::Float), ("y", AttrType::Float)]);
            let mut t = Table::new(schema);
            for _ in 0..200 {
                let v = match rng.below(12) {
                    0 => Value::Null,
                    1 => Value::Float(f64::NAN),
                    2 => Value::Float(rng.real(15.0)),
                    _ => Value::Float(palette(&mut rng)),
                };
                t.push_row(vec![v, Value::Float(0.0)]).unwrap();
            }
            let v = t.attr("v").unwrap();
            let preds: Vec<Predicate> = (0..rng.below(41))
                .map(|_| Predicate::le(v, Value::Float(palette(&mut rng))))
                .collect();
            let space = PredicateSpace::from_predicates(preds);
            let global = space.numeric_constants(v);
            if global.is_empty() {
                seen[2] += 1;
            }
            let ranks = RankCodes::build(t.column(v), global, &t.all_rows());
            for _ in 0..4 {
                // A sampled subset, as the pop collects it: repeats and
                // either zero, in any order, then sorted and deduplicated.
                let mut local: Vec<f64> = space
                    .predicates()
                    .iter()
                    .filter(|_| rng.below(3) == 0)
                    .map(|p| p.value.as_f64().unwrap())
                    .collect();
                local.sort_unstable_by(f64::total_cmp);
                local.dedup_by(|a, b| a == b);
                let lut = ranks.pop_bins(&local);
                assert_eq!(lut.len(), 2 * global.len() + 3, "case {case}");
                for r in 0..t.num_rows() {
                    let got = lut[ranks.codes[r] as usize] as usize;
                    let want = match t.column(v).get_f64(r) {
                        None => 2 * local.len() + 2,
                        Some(x) => numeric_bin(&local, x),
                    };
                    assert_eq!(got, want, "case {case}, row {r}");
                    if let Some(x) = t.column(v).get_f64(r) {
                        if global.contains(&x) {
                            seen[usize::from(!local.contains(&x))] += 1;
                        }
                    }
                }
            }
        }
        assert!(seen.iter().all(|&k| k > 0), "{seen:?}");
    }
}
