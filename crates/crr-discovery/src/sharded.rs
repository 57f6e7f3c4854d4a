//! Sharded discovery: Algorithm 1 per shard with a frozen cross-shard
//! model pool, then Algorithm 2 as the cross-shard merge.
//!
//! The instance is cut by a [`ShardSpec`] resolved through the
//! cost-based planner in `crr-data` (quantile or equal-width key
//! boundaries, fixed or cost-model shard count). Shard 0 — the *seed* —
//! runs plain Algorithm 1 first; the models it trains, in publication
//! order keyed `(shard_id, seq)`, freeze into a read-only cross-shard
//! pool. The remaining shards then run concurrently on the isolated job
//! runner [`crate::DiscoverySession::run_all`] uses too (up to
//! [`crate::DiscoveryConfig::shard_threads`] at a time, the calling
//! thread among them, largest shards claimed first), each probing that
//! frozen pool sequentially in `(shard, seq)` order after a complete
//! local-pool miss with the first match winning. A thread starts only
//! per shard worker, never per probe scan: a scan of the frozen pool is
//! too short to pay for a thread of its own, and its cost would then hang
//! on which shard happened to finish first. Because the pool never
//! changes while shards run and each shard is a pure function of its own
//! rows, the result is byte-identical whatever the thread schedule.
//!
//! Per-shard rule sets are made sound outside their shard by guarding
//! every conjunction with an exact membership predicate for the shard:
//! the key interval for range shards, `key IS NULL` for the trailing
//! null-key shard, `key IS NOT NULL` for a degenerate unbounded interval
//! shard (constant key coexisting with null keys). Partitioning rejects
//! non-finite keys outright, so the guards describe shard membership
//! exactly. The guarded rules are concatenated in shard order and handed
//! to Algorithm 2 ([`crate::compact_on_data`]): the translation-detection
//! and Generalization+Fusion pass is exactly the cross-shard merge —
//! rules from different shards that share a model (or differ by an output
//! shift) fuse into one DNF rule. Per-shard root [`Moments`] are merged
//! (O(d²) each) rather than refit.
//!
//! Failure semantics follow PR 1: a shard whose run errors or panics is
//! drained to constant fallback rules over its rows, the error is kept as
//! [`DiscoveryError::Shard`] in that shard's [`ShardOutcome`], and every
//! sibling shard is unaffected. If even the drain fails, the shard
//! contributes no rules and its rows are counted as uncoverable — a
//! failed shard degrades, it never aborts the run.

use crate::parallel::run_isolated;
use crate::search::{global_midrange, partition_midrange, run_search, CrossShardPool, SearchRun};
use crate::{
    CompactionStats, Discovery, DiscoveryConfig, DiscoveryError, DiscoveryOutcome, DiscoveryStats,
    PredicateSpace, Result,
};
use crr_core::{Conjunction, Crr, Dnf, Predicate, RuleSet};
use crr_data::{
    balance_permille, AttrId, Boundary, PlannerCost, RowSet, Shard, ShardBounds, ShardSpec, Table,
    Value,
};
use crr_models::{ConstantModel, Model, Moments};
use crr_obs::{Counter as Ctr, Gauge, MetricsSnapshot};
use std::sync::Arc;
use std::time::Instant;

/// What happened inside one shard of a sharded run.
#[derive(Debug, Clone)]
pub struct ShardOutcome {
    /// Dense shard id from the applied plan (seed shard is 0).
    pub shard_id: usize,
    /// The shard's rows.
    pub rows: RowSet,
    /// The key interval or null-key marker the shard was cut on (`None`
    /// only for the single-shard plan).
    pub bounds: Option<ShardBounds>,
    /// Rules the shard contributed to the pre-merge concatenation.
    pub rules: usize,
    /// The shard's Algorithm 1 counters (fallback accounting when the
    /// shard failed).
    pub stats: DiscoveryStats,
    /// How the shard's own run stopped. A failed shard reads
    /// [`DiscoveryOutcome::Complete`] — its drain covered (or wrote off)
    /// its rows — with the failure recorded in [`Self::error`].
    pub outcome: DiscoveryOutcome,
    /// Present iff the shard failed and was drained to constant
    /// fallbacks; always the [`DiscoveryError::Shard`] variant.
    pub error: Option<DiscoveryError>,
}

/// The outcome of a sharded discovery run.
#[derive(Debug, Clone)]
pub struct ShardedDiscovery {
    /// The merged rule set (Algorithm 2 output across shards), guarded so
    /// each rule is sound on the whole instance.
    pub rules: RuleSet,
    /// Per-shard counters summed, `learning_time` = wall clock of the
    /// whole sharded run.
    pub stats: DiscoveryStats,
    /// [`DiscoveryOutcome::Complete`] unless some shard was stopped by
    /// its budget, deadline or cancellation, in which case this is the
    /// first non-complete shard's outcome in shard order. Shard
    /// *failures* do not show up here (a failed shard drains to fallbacks
    /// and reports `Complete`); check [`Self::failed_shards`] or each
    /// [`ShardOutcome::error`].
    pub outcome: DiscoveryOutcome,
    /// Per-shard breakdown, in shard order.
    pub shards: Vec<ShardOutcome>,
    /// Algorithm 2 statistics of the cross-shard merge; `None` on the
    /// single-shard fast path (nothing to merge).
    pub merge: Option<CompactionStats>,
    /// Whole-instance sufficient statistics, merged from per-shard root
    /// moments (never refit). `None` when any shard failed, for the MLP
    /// (no sufficient statistics) and for runs with no input attributes.
    pub global_moments: Option<Moments>,
    /// Frozen metrics of the run (cumulative for a shared sink).
    pub metrics: MetricsSnapshot,
    /// Guard predicates applied per shard, for static verification.
    /// `None` on the single-shard fast path (no guards were applied).
    pub obligations: Option<ProofObligations>,
}

impl ShardedDiscovery {
    /// The shards that failed and were drained to fallbacks (or, if even
    /// draining failed, contributed nothing). Empty on a clean run.
    pub fn failed_shards(&self) -> impl Iterator<Item = &ShardOutcome> {
        self.shards.iter().filter(|s| s.error.is_some())
    }

    /// Bundles this run's rules and obligations with `schema` into the
    /// serialized serving artifact (no further compaction; see
    /// [`crate::DiscoverySession::export`] for the one-call run+compact
    /// path).
    pub fn export_artifact(&self, schema: &crr_data::Schema) -> Result<crate::RuleSetArtifact> {
        crate::RuleSetArtifact::new(schema.clone(), self.rules.clone(), self.obligations.clone())
    }
}

/// The guard predicates one shard's rules were wrapped in, kept as a
/// machine-checkable record for static analyzers: `crr-analyze` proves
/// the guards pairwise-disjoint and jointly covering without rescanning
/// rows.
#[derive(Debug, Clone)]
pub struct ShardGuard {
    /// Dense shard id from the applied plan.
    pub shard_id: usize,
    /// The key interval or null-key marker the shard was cut on.
    pub bounds: ShardBounds,
    /// The exact membership predicates conjoined onto every conjunct of
    /// the shard's rules (see [`guard_predicates`]).
    pub guards: Vec<Predicate>,
}

/// Proof obligations a sharded run discharges onto its verifier: the
/// shard key, how its boundaries were derived, and, per shard, the guard
/// predicates actually applied. Emitted by every multi-shard run; the
/// single-shard fast path applies no guards and emits none. The
/// obligations depend on the plan alone, never on the thread schedule.
#[derive(Debug, Clone)]
pub struct ProofObligations {
    /// The attribute the instance was sharded on.
    pub shard_key: AttrId,
    /// How the plan's interval boundaries were derived. Every placement
    /// discharges the same four checks — exactness, disjointness,
    /// coverage, confinement; the tag is provenance, never a relaxation.
    pub boundary: Boundary,
    /// One entry per shard, in shard order.
    pub guards: Vec<ShardGuard>,
}

/// Runs sharded discovery over `rows` of `table` under `spec`.
///
/// The spec is resolved by the cost-based planner ([`ShardSpec::plan`])
/// into concrete shards: quantile or equal-width boundaries, a fixed or
/// cost-model shard count. The plan depends on the spec, the rows and the
/// config alone; the metrics sink is written, never read.
///
/// With a spec that yields one shard this is byte-identical to a plain
/// unsharded run (no guards, no merge) and errors propagate directly.
/// With more shards, per-shard failures degrade to constant fallbacks
/// and never abort siblings; only instance-level problems (trivial
/// target, empty instance, a non-finite shard key, an invalid spec or
/// config) error out — all detected before any shard runs.
pub(crate) fn discover_sharded(
    table: &Table,
    rows: &RowSet,
    cfg: &DiscoveryConfig,
    space: &PredicateSpace,
    spec: &ShardSpec,
) -> Result<ShardedDiscovery> {
    cfg.validate()?;
    // Instance-level preconditions, identical to `discover`'s preamble:
    // these hold or fail for every shard alike, so they are checked once
    // up front instead of degrading all shards to fallbacks.
    if cfg.inputs.contains(&cfg.target) {
        return Err(DiscoveryError::TrivialTarget);
    }
    if !table.schema().attribute(cfg.target).ty().is_numeric() {
        return Err(DiscoveryError::NonNumericTarget(
            table.schema().attribute(cfg.target).name().to_string(),
        ));
    }
    if space.mentions(cfg.target) {
        return Err(DiscoveryError::PredicateOnTarget);
    }
    if rows.is_empty() {
        return Err(DiscoveryError::EmptyInstance);
    }

    let start = Instant::now();
    let mx = &cfg.metrics;

    let cost = PlannerCost {
        predicate_vocab: space.len().max(1),
        workers: cfg.shard_threads.max(1),
    };
    let (shards, report) = spec.plan(table, rows, &cost)?;
    if report.auto_count {
        mx.incr(Ctr::PlanAutoK);
    }
    if shards.len() > 1 {
        match report.boundary {
            Some(Boundary::Quantile) => mx.incr(Ctr::PlanQuantile),
            Some(Boundary::EqualWidth) => mx.incr(Ctr::PlanEqualWidth),
            None => {}
        }
    }
    mx.set_gauge(Gauge::ShardsPlanned, shards.len() as u64);
    mx.set_gauge(Gauge::ShardBalancePermille, balance_permille(&shards));

    if shards.len() == 1 {
        // Fast path: one shard is plain Algorithm 1 — no guards, no
        // merge, errors propagate. This is the byte-identity contract the
        // regression tests pin against `discover`.
        let run = run_search(table, &shards[0].rows, cfg, space, None)?;
        mx.incr(Ctr::ShardsRun);
        let SearchRun {
            discovery,
            root_moments,
            ..
        } = run;
        let Discovery {
            rules,
            stats,
            outcome,
            ..
        } = discovery;
        let shard_outcome = ShardOutcome {
            shard_id: 0,
            rows: shards[0].rows.clone(),
            bounds: shards[0].bounds,
            rules: rules.len(),
            stats: stats.clone(),
            outcome,
            error: None,
        };
        return Ok(ShardedDiscovery {
            rules,
            stats,
            outcome,
            shards: vec![shard_outcome],
            merge: None,
            global_moments: root_moments,
            metrics: mx.snapshot(),
            obligations: None,
        });
    }

    // Seed phase: shard 0 runs alone with no cross pool. Its published
    // models freeze into the pool every later shard probes.
    let seed_runs = run_isolated(
        &[0],
        1,
        |_| (shards[0].id, mx),
        |_| run_shard(table, &shards[0], cfg, space, None),
    );
    let frozen = CrossShardPool {
        models: match &seed_runs[0] {
            Ok(r) => r
                .published
                .iter()
                .enumerate()
                .map(|(seq, m)| (0usize, seq as u64, Arc::clone(m)))
                .collect(),
            Err(_) => Vec::new(),
        },
    };

    // Parallel phase: shards 1.. on up to `shard_threads` workers. Each is
    // a pure function of (its rows, cfg, space, frozen pool), so the
    // schedule cannot change any result. Skew-aware claim order (longest
    // processing time first): the largest shards are claimed first so the
    // schedule's tail is short shards, not one straggler holding the run
    // open.
    let rest = &shards[1..];
    let mut order: Vec<usize> = (0..rest.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(rest[i].rows.len()));
    let rest_runs = run_isolated(
        &order,
        cfg.shard_threads,
        |i| (rest[i].id, mx),
        |i| run_shard(table, &rest[i], cfg, space, Some(&frozen)),
    );

    // Merge phase (sequential, shard order). Guard each shard's rules
    // with its key interval so they stay sound instance-wide, then let
    // Algorithm 2 do the cross-shard work: translation detection and
    // Generalization+Fusion over rules from *different* shards.
    let mut all_rules = RuleSet::new();
    let mut total = DiscoveryStats::default();
    let mut outcome = DiscoveryOutcome::Complete;
    let mut shard_outcomes = Vec::with_capacity(shards.len());
    let mut shard_guards = Vec::with_capacity(shards.len());
    let mut global_moments: Option<Moments> = None;
    let mut moments_ok = true;
    for (shard, run) in shards.iter().zip(seed_runs.into_iter().chain(rest_runs)) {
        mx.incr(Ctr::ShardsRun);
        let (mut rules, stats, shard_outcome, error, root_moments) = match run {
            Ok(r) => (
                r.discovery.rules,
                r.discovery.stats,
                r.discovery.outcome,
                None,
                r.root_moments,
            ),
            Err(e) => {
                mx.incr(Ctr::ShardsFailed);
                let wrapped = DiscoveryError::Shard {
                    shard_id: shard.id,
                    source: Box::new(e),
                };
                // Degrade, never abort: if even the constant-fallback
                // drain fails, the shard contributes no rules and its
                // rows are written off as uncoverable. The original
                // failure stays the shard's error; the (secondary) drain
                // error is dropped.
                let (fallback, stats) = drain_shard(table, shard, cfg, mx).unwrap_or_else(|_| {
                    (
                        RuleSet::new(),
                        DiscoveryStats {
                            uncoverable_rows: shard.rows.len(),
                            ..DiscoveryStats::default()
                        },
                    )
                });
                (
                    fallback,
                    stats,
                    DiscoveryOutcome::Complete,
                    Some(wrapped),
                    None,
                )
            }
        };
        if let Some(b) = &shard.bounds {
            guard_rules(&mut rules, b);
            shard_guards.push(ShardGuard {
                shard_id: shard.id,
                bounds: *b,
                guards: guard_predicates(b),
            });
        }
        match (&mut global_moments, root_moments) {
            (_, None) => moments_ok = false,
            (Some(acc), Some(m)) => {
                acc.merge(&m);
                mx.incr(Ctr::MomentsMergeOps);
            }
            (acc @ None, Some(m)) => *acc = Some(m),
        }
        sum_stats(&mut total, &stats);
        if outcome.is_complete() && !shard_outcome.is_complete() {
            outcome = shard_outcome;
        }
        shard_outcomes.push(ShardOutcome {
            shard_id: shard.id,
            rows: shard.rows.clone(),
            bounds: shard.bounds,
            rules: rules.len(),
            stats,
            outcome: shard_outcome,
            error,
        });
        for r in rules.rules() {
            all_rules.push(r.clone());
        }
    }
    if !moments_ok {
        global_moments = None;
    }

    let (merged, merge_stats) = crate::compact_on_data(&all_rules, 1e-6, cfg.rho_max, table, rows)?;
    mx.add(Ctr::MergeTranslations, merge_stats.translations as u64);
    mx.add(Ctr::MergeFusions, merge_stats.fusions as u64);
    total.learning_time = start.elapsed();

    // A multi-shard plan always cuts on a key with a boundary choice, and
    // every one of its shards carries bounds.
    let obligations = match (shard_guards.first(), report.boundary) {
        (Some(g), Some(boundary)) => Some(ProofObligations {
            shard_key: g.bounds.attr,
            boundary,
            guards: shard_guards,
        }),
        _ => None,
    };
    Ok(ShardedDiscovery {
        rules: merged,
        stats: total,
        outcome,
        shards: shard_outcomes,
        merge: Some(merge_stats),
        global_moments,
        metrics: mx.snapshot(),
        obligations,
    })
}

/// Runs Algorithm 1 on one shard (panic isolation is the caller's
/// [`run_isolated`]).
fn run_shard(
    table: &Table,
    shard: &Shard,
    cfg: &DiscoveryConfig,
    space: &PredicateSpace,
    cross: Option<&CrossShardPool>,
) -> Result<SearchRun> {
    // Confine the predicate space to the shard's key interval: predicates
    // constant over the shard (always-false *or* always-true on its key
    // range) can never separate a partition, so every split step is
    // spared a scan over candidates the planner already knows are dead.
    // It can still change the rules found: once the unconfined available
    // set reaches 128 predicates, `choose_split` samples every
    // ⌊|avail|/64⌋-th candidate, and a smaller set samples different ones.
    // A full-range shard keeps the original space.
    let confined = shard.bounds.as_ref().and_then(|b| space.confined_to(b));
    let space = confined.as_ref().unwrap_or(space);
    run_search(table, &shard.rows, cfg, space, cross)
}

/// PR 1 degradation for a failed shard: cover its rows with the honest
/// midrange constant (half-range `ρ`), falling back to the instance
/// midrange when the shard has no finite target at all.
fn drain_shard(
    table: &Table,
    shard: &Shard,
    cfg: &DiscoveryConfig,
    mx: &crr_obs::MetricsSink,
) -> Result<(RuleSet, DiscoveryStats)> {
    let (c, rho) = partition_midrange(table, cfg.target, &shard.rows)
        .unwrap_or_else(|| (global_midrange(table, cfg, &shard.rows), cfg.rho_max));
    let model = Arc::new(Model::Constant(ConstantModel::new(c, cfg.inputs.len())));
    let mut rules = RuleSet::new();
    rules.push(Crr::new(
        cfg.inputs.clone(),
        cfg.target,
        model,
        rho,
        Dnf::single(Conjunction::top()),
    )?);
    mx.incr(Ctr::DrainedPartitions);
    mx.add(Ctr::DrainedRows, shard.rows.len() as u64);
    mx.incr(Ctr::RulesEmitted);
    let stats = DiscoveryStats {
        drained_partitions: 1,
        drained_rows: shard.rows.len(),
        ..DiscoveryStats::default()
    };
    Ok((rules, stats))
}

/// Conjoins an exact shard-membership predicate onto every conjunct of
/// every rule, making per-shard rules sound on the whole instance:
///
/// * interval shard — `lo ≤ key` when bounded below, `key < hi` when
///   bounded above (matching the partition's half-open buckets; the
///   extreme shards stay open-ended, which is exact because null keys
///   satisfy no comparison and non-finite keys are rejected at
///   partition time);
/// * null-key shard — `key IS NULL` (no comparison can express it);
/// * unbounded interval shard (constant key coexisting with a null-key
///   shard, so `lo` and `hi` are both `None`) — `key IS NOT NULL`, the
///   exact complement of the only sibling it has.
fn guard_rules(rules: &mut RuleSet, b: &ShardBounds) {
    let guards = guard_predicates(b);
    for rule in rules.rules_mut() {
        let dnf = rule.condition_mut();
        for conj in dnf.conjuncts_mut() {
            for p in &guards {
                *conj = conj.and(p.clone());
            }
        }
    }
}

/// The exact shard-membership predicates for `b` — the canonical guard
/// construction both the merge's rule guarding and the static verifier
/// use:
///
/// * interval shard — `lo ≤ key` when bounded below, `key < hi` when
///   bounded above;
/// * null-key shard — `key IS NULL`;
/// * unbounded interval shard (both bounds `None`) — `key IS NOT NULL`.
pub fn guard_predicates(b: &ShardBounds) -> Vec<Predicate> {
    let mut guards: Vec<Predicate> = Vec::new();
    if b.null_keys {
        guards.push(Predicate::is_null(b.attr));
    } else {
        if let Some(v) = b.lo {
            guards.push(Predicate::ge(b.attr, Value::Float(v)));
        }
        if let Some(v) = b.hi {
            guards.push(Predicate::lt(b.attr, Value::Float(v)));
        }
        if guards.is_empty() {
            guards.push(Predicate::not_null(b.attr));
        }
    }
    guards
}

/// Accumulates one shard's counters into the run total (time is set once
/// at the end from the sharded run's own clock).
fn sum_stats(total: &mut DiscoveryStats, s: &DiscoveryStats) {
    total.models_trained += s.models_trained;
    total.models_shared += s.models_shared;
    total.partitions_explored += s.partitions_explored;
    total.forced_accepts += s.forced_accepts;
    total.uncoverable_rows += s.uncoverable_rows;
    total.drained_partitions += s.drained_partitions;
    total.drained_rows += s.drained_rows;
    total.cross_shard_shares += s.cross_shard_shares;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::run_search;
    use crate::{DiscoveryConfig, PredicateGen};
    use crr_data::{AttrType, Schema};
    use crr_models::LinearModel;
    use crr_obs::MetricsSink;

    /// A cross-pool scan walks the frozen pool in `(shard, seq)` order and
    /// adopts the first model within ρ_M: the wrong slope at index 0
    /// misses, and the exact model at index 1 wins over the output-shifted
    /// one at index 2, which would match too. The probe accounting
    /// reconciles.
    #[test]
    #[allow(clippy::unwrap_used)]
    fn cross_pool_scan_adopts_the_first_matching_model() {
        let schema = Schema::new(vec![("x", AttrType::Float), ("y", AttrType::Float)]);
        let mut t = Table::new(schema);
        for i in 0..120 {
            let x = i as f64;
            t.push_row(vec![Value::Float(x), Value::Float(x)]).unwrap();
        }
        let x = t.attr("x").unwrap();
        let y = t.attr("y").unwrap();
        let space = PredicateGen::binary(7).generate(&t, &[x], y, 1);
        let line =
            |slope, intercept| Arc::new(Model::Linear(LinearModel::new(vec![slope], intercept)));
        let (miss, exact, shifted) = (line(-1.0, 0.0), line(1.0, 0.0), line(1.0, 1000.0));
        let pool = CrossShardPool {
            models: [&miss, &exact, &shifted]
                .into_iter()
                .enumerate()
                .map(|(seq, m)| (0, seq as u64, Arc::clone(m)))
                .collect(),
        };
        let sink = MetricsSink::enabled();
        let cfg = DiscoveryConfig::new(vec![x], y, 0.5).with_metrics(sink.clone());
        let out = run_search(&t, &t.all_rows(), &cfg, &space, Some(&pool)).unwrap();
        let rules = out.discovery.rules.rules();
        assert!(out.discovery.stats.cross_shard_shares > 0);
        assert!(rules.iter().any(|r| Arc::ptr_eq(r.model(), &exact)));
        for other in [&miss, &shifted] {
            assert!(rules.iter().all(|r| !Arc::ptr_eq(r.model(), other)));
        }
        let m = sink.snapshot();
        let count = |n: &str| m.count("shards", n).unwrap();
        assert!(count("cross_pool_hits") > 0);
        assert_eq!(
            count("cross_pool_hits") + count("cross_pool_misses"),
            count("cross_pool_probes")
        );
    }
}
