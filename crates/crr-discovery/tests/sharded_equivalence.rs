//! Regression guards for sharded discovery and the `DiscoverySession`
//! front door:
//!
//! * one shard is **byte-identical** to an unsharded session run —
//!   serialized rules, stats, outcome — on the paper's electricity and tax
//!   workloads (the ISSUE 4 acceptance pin);
//! * a multi-shard run is deterministic across repeats and across shard
//!   thread counts (the frozen cross-shard pool makes each shard a pure
//!   function of its rows);
//! * the Algorithm 2 merge never grows the rule set past the per-shard sum
//!   and preserves coverage;
//! * cross-shard sharing actually engages (hits, adopted translations) and
//!   its counters reconcile (`hits + misses == probes`);
//! * a failed or panicking shard degrades to constant fallbacks without
//!   touching its siblings, and the error stays attributable via
//!   `Error::Shard`;
//! * the plan never depends on what the metrics sink recorded before.

// Test harness: panicking on malformed fixtures is the failure mode we want.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use crr_core::serialize;
use crr_data::{AttrType, Schema, Table, Value};
use crr_datasets::{electricity, tax, GenConfig};
use crr_discovery::prelude::*;
use crr_discovery::{PredicateGen, PredicateSpace};

/// Everything observable about a sharded run except wall-clock time.
fn sharded_fingerprint(d: &ShardedDiscovery) -> String {
    let s = &d.stats;
    format!(
        "{}\ntrained={} shared={} cross={} explored={} forced={} uncoverable={} drained={}+{} \
         outcome={:?} shards={:?}",
        serialize::to_text(&d.rules),
        s.models_trained,
        s.models_shared,
        s.cross_shard_shares,
        s.partitions_explored,
        s.forced_accepts,
        s.uncoverable_rows,
        s.drained_partitions,
        s.drained_rows,
        d.outcome,
        d.shards.iter().map(|sh| sh.rules).collect::<Vec<_>>(),
    )
}

fn electricity_setup(rows: usize) -> (Table, DiscoveryConfig, PredicateSpace) {
    let ds = electricity(&GenConfig { rows, seed: 42 });
    let t = ds.table;
    let minute = t.attr("minute").unwrap();
    let target = t.attr("global_active_power").unwrap();
    let space = PredicateGen::binary(64).generate(&t, &[minute], target, 0);
    let cfg = DiscoveryConfig::new(vec![minute], target, 0.25);
    (t, cfg, space)
}

fn tax_setup(rows: usize) -> (Table, DiscoveryConfig, PredicateSpace) {
    let ds = tax(&GenConfig { rows, seed: 7 });
    let t = ds.table;
    let salary = t.attr("salary").unwrap();
    let state = t.attr("state").unwrap();
    let target = t.attr("tax").unwrap();
    let space = PredicateGen::binary(8).generate(&t, &[salary, state], target, 7);
    let cfg = DiscoveryConfig::new(vec![salary], target, 2.0);
    (t, cfg, space)
}

/// Two linear regimes over an integer key: `y = x` below 100, `y = x − 50`
/// above. Key-range shards of this table share one model across shards
/// (regime 2 is a pure output shift of regime 1), so cross-shard pool hits
/// and merge fusions are guaranteed, and all sums stay exact in f64.
fn two_regime_table(rows: usize) -> (Table, DiscoveryConfig, PredicateSpace) {
    let schema = Schema::new(vec![("x", AttrType::Float), ("y", AttrType::Float)]);
    let mut t = Table::new(schema);
    for i in 0..rows {
        let x = i as f64;
        let y = if x < 100.0 { x } else { x - 50.0 };
        t.push_row(vec![Value::Float(x), Value::Float(y)]).unwrap();
    }
    let x = t.attr("x").unwrap();
    let y = t.attr("y").unwrap();
    let space = PredicateGen::binary(7).generate(&t, &[x], y, 1);
    let cfg = DiscoveryConfig::new(vec![x], y, 0.5);
    (t, cfg, space)
}

fn key_of(t: &Table, name: &str) -> crr_data::AttrId {
    t.attr(name).unwrap()
}

#[test]
fn one_shard_is_byte_identical_to_unsharded_on_electricity() {
    let (t, cfg, space) = electricity_setup(11520);
    let classic = DiscoverySession::on(&t)
        .predicates(space.clone())
        .config(cfg.clone())
        .run()
        .unwrap();
    let plan = ShardSpec::by_key(key_of(&t, "minute"))
        .equal_width()
        .shards(1);
    let sharded = DiscoverySession::on(&t)
        .predicates(space)
        .config(cfg)
        .sharded(plan)
        .run()
        .unwrap();
    assert_eq!(sharded_fingerprint(&classic), sharded_fingerprint(&sharded));
    assert!(sharded.merge.is_none(), "one shard must skip the merge");
}

#[test]
fn one_shard_is_byte_identical_to_unsharded_on_tax() {
    let (t, cfg, space) = tax_setup(10000);
    let classic = DiscoverySession::on(&t)
        .predicates(space.clone())
        .config(cfg.clone())
        .run()
        .unwrap();
    let sharded = DiscoverySession::on(&t)
        .predicates(space)
        .config(cfg)
        .sharded(
            ShardSpec::by_key(key_of(&t, "salary"))
                .equal_width()
                .shards(1),
        )
        .run()
        .unwrap();
    assert_eq!(sharded_fingerprint(&classic), sharded_fingerprint(&sharded));
}

#[test]
fn multi_shard_runs_are_deterministic_across_thread_counts() {
    let (t, cfg, space) = electricity_setup(4000);
    let plan = ShardSpec::by_key(key_of(&t, "minute"))
        .equal_width()
        .shards(4);
    let run = |threads: usize| {
        DiscoverySession::on(&t)
            .predicates(space.clone())
            .config(cfg.clone().with_shard_threads(threads))
            .sharded(plan.clone())
            .run()
            .unwrap()
    };
    let a = run(1);
    let b = run(4);
    let c = run(4);
    assert_eq!(sharded_fingerprint(&a), sharded_fingerprint(&b));
    assert_eq!(sharded_fingerprint(&b), sharded_fingerprint(&c));
    assert_eq!(a.shards.len(), 4);
}

#[test]
fn cross_shard_pool_shares_models_and_merge_compacts() {
    let (t, cfg, space) = two_regime_table(200);
    let sink = MetricsSink::enabled();
    let out = DiscoverySession::on(&t)
        .predicates(space)
        .config(cfg.with_shard_threads(2))
        .metrics(sink.clone())
        .sharded(ShardSpec::by_key(key_of(&t, "x")).equal_width().shards(4))
        .run()
        .unwrap();
    // Shard 1 (x ∈ [50,100)) obeys the seed shard's y = x model exactly,
    // and shard 2's regime is its pure −50 output shift: both must come
    // from the frozen pool, not fresh training.
    assert!(
        out.stats.cross_shard_shares > 0,
        "cross-shard sharing never engaged"
    );
    let m = sink.snapshot();
    let probes = m.count("shards", "cross_pool_probes").unwrap();
    let hits = m.count("shards", "cross_pool_hits").unwrap();
    let misses = m.count("shards", "cross_pool_misses").unwrap();
    assert!(hits > 0, "no cross-shard pool hits");
    assert_eq!(hits + misses, probes, "probe accounting must reconcile");
    assert_eq!(m.count("shards", "run"), Some(4));
    assert_eq!(m.count("run", "shards"), Some(4));

    // Algorithm 2 across shards: never more rules than the per-shard sum.
    let per_shard_sum: usize = out.shards.iter().map(|s| s.rules).sum();
    assert!(
        out.rules.len() <= per_shard_sum,
        "merge grew the rule set: {} > {per_shard_sum}",
        out.rules.len()
    );
    // Coverage is preserved through guarding + merging.
    assert!(out.rules.uncovered(&t, &t.all_rows()).is_empty());
    // Guarded, merged rules still predict within ρ on every covered row.
    for rule in out.rules.rules() {
        assert!(rule.find_violation(&t, &t.all_rows()).is_none());
    }
}

#[test]
fn shard_moments_merge_to_whole_table_moments() {
    // Integer-valued instance: per-shard root moments merged across shards
    // must equal the single-shard (whole-table) root moments bit for bit.
    let (t, cfg, space) = two_regime_table(200);
    let whole = DiscoverySession::on(&t)
        .predicates(space.clone())
        .config(cfg.clone())
        .run()
        .unwrap();
    let sharded = DiscoverySession::on(&t)
        .predicates(space)
        .config(cfg)
        .sharded(ShardSpec::by_key(key_of(&t, "x")).equal_width().shards(4))
        .run()
        .unwrap();
    let w = whole.global_moments.expect("whole-table moments");
    let s = sharded.global_moments.expect("merged shard moments");
    assert_eq!(w.count(), s.count());
    assert_eq!(w.yty().to_bits(), s.yty().to_bits());
    for (a, b) in w.rhs().iter().zip(s.rhs()) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    for (a, b) in w.gram().as_slice().iter().zip(s.gram().as_slice()) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

/// A table whose shard key `k` is null on every 6th row, and whose
/// null-key rows follow a *different-slope* regime (`y = 2x` instead of
/// `y = x` — deliberately not an output shift, so Algorithm 2's
/// translation fusion cannot absorb it). Any rule fit on the null shard
/// that escapes its shard unguarded violates ρ on almost every non-null
/// row — the exact soundness gap null-shard guarding closes.
fn null_key_table(rows: usize) -> (Table, DiscoveryConfig, PredicateSpace) {
    let schema = Schema::new(vec![
        ("k", AttrType::Float),
        ("x", AttrType::Float),
        ("y", AttrType::Float),
    ]);
    let mut t = Table::new(schema);
    for i in 0..rows {
        let x = i as f64;
        let (k, y) = if i % 6 == 5 {
            (Value::Null, 2.0 * x)
        } else {
            (Value::Float(x), x)
        };
        t.push_row(vec![k, Value::Float(x), Value::Float(y)])
            .unwrap();
    }
    let x = t.attr("x").unwrap();
    let y = t.attr("y").unwrap();
    let space = PredicateGen::binary(7).generate(&t, &[x], y, 1);
    let cfg = DiscoveryConfig::new(vec![x], y, 0.5);
    (t, cfg, space)
}

#[test]
fn null_key_shard_rules_are_guarded_and_sound_instance_wide() {
    let (t, cfg, space) = null_key_table(240);
    let k = key_of(&t, "k");
    let out = DiscoverySession::on(&t)
        .predicates(space)
        .config(cfg)
        .sharded(ShardSpec::by_key(k).equal_width().shards(2))
        .run()
        .unwrap();
    // The trailing shard holds exactly the null-key rows and is marked so.
    let last = out.shards.last().unwrap();
    let b = last.bounds.expect("null shard must carry bounds");
    assert!(b.null_keys, "trailing shard must be the null-key shard");
    assert_eq!(last.rows.len(), 40);
    assert_eq!(out.failed_shards().count(), 0);
    // Every merged rule holds on the WHOLE instance, not just its shard:
    // an unguarded null-shard rule (y = x + 1000) would violate ρ on every
    // non-null row it claims.
    for rule in out.rules.rules() {
        assert_eq!(
            rule.find_violation(&t, &t.all_rows()),
            None,
            "rule over-claims rows outside its shard: {}",
            rule.display(t.schema())
        );
    }
    // ... and coverage survives the guarding + merge.
    assert!(out.rules.uncovered(&t, &t.all_rows()).is_empty());
}

#[test]
fn constant_key_with_nulls_guards_the_unbounded_shard() {
    // Constant non-null key: the cut degenerates to one unbounded interval
    // shard plus the null shard. The interval shard's rules must be
    // guarded `k IS NOT NULL` or they claim the (different-slope, hence
    // non-fusable) null rows.
    let schema = Schema::new(vec![
        ("k", AttrType::Float),
        ("x", AttrType::Float),
        ("y", AttrType::Float),
    ]);
    let mut t = Table::new(schema);
    for i in 0..120 {
        let x = i as f64;
        let (k, y) = if i % 4 == 3 {
            (Value::Null, 2.0 * x)
        } else {
            (Value::Float(7.0), x)
        };
        t.push_row(vec![k, Value::Float(x), Value::Float(y)])
            .unwrap();
    }
    let x = t.attr("x").unwrap();
    let y = t.attr("y").unwrap();
    let space = PredicateGen::binary(7).generate(&t, &[x], y, 1);
    let cfg = DiscoveryConfig::new(vec![x], y, 0.5);
    let out = DiscoverySession::on(&t)
        .predicates(space)
        .config(cfg)
        .sharded(ShardSpec::by_key(key_of(&t, "k")).equal_width().shards(3))
        .run()
        .unwrap();
    assert_eq!(
        out.shards.len(),
        2,
        "one interval shard plus the null shard"
    );
    let interval = out.shards[0].bounds.unwrap();
    assert!(!interval.null_keys && interval.lo.is_none() && interval.hi.is_none());
    for rule in out.rules.rules() {
        assert_eq!(
            rule.find_violation(&t, &t.all_rows()),
            None,
            "rule over-claims rows outside its shard: {}",
            rule.display(t.schema())
        );
    }
    assert!(out.rules.uncovered(&t, &t.all_rows()).is_empty());
}

#[test]
fn non_finite_shard_keys_error_before_any_shard_runs() {
    let (mut t, cfg, space) = two_regime_table(100);
    let x = key_of(&t, "x");
    t.set_value(50, x, Value::Float(f64::INFINITY));
    // +Inf would satisfy every other shard's `key >= lo` guard, so no
    // guard assignment is sound: partitioning must refuse the instance.
    assert!(matches!(
        DiscoverySession::on(&t)
            .predicates(space)
            .config(cfg)
            .sharded(ShardSpec::by_key(x).equal_width().shards(4))
            .run(),
        Err(DiscoveryError::Data(crr_data::DataError::NonFiniteCell {
            row: 50,
            ..
        }))
    ));
}

#[test]
fn failed_shard_degrades_without_aborting_siblings() {
    let (mut t, cfg, space) = two_regime_table(200);
    // Poison exactly one row of shard 3 (x ∈ [150, 200)): its snapshot
    // build fails with NonFiniteValue while every other shard is clean.
    let y = t.attr("y").unwrap();
    t.set_value(180, y, Value::Float(f64::NAN));
    let sink = MetricsSink::enabled();
    let out = DiscoverySession::on(&t)
        .predicates(space)
        .config(cfg.with_shard_threads(2))
        .metrics(sink.clone())
        .sharded(ShardSpec::by_key(key_of(&t, "x")).equal_width().shards(4))
        .run()
        .unwrap();
    assert_eq!(out.shards.len(), 4);
    let failed: Vec<_> = out.shards.iter().filter(|s| s.error.is_some()).collect();
    assert_eq!(failed.len(), 1, "exactly one shard must fail");
    let bad = failed[0];
    assert_eq!(bad.shard_id, 3);
    match bad.error.as_ref().unwrap() {
        DiscoveryError::Shard { shard_id, source } => {
            assert_eq!(*shard_id, 3);
            assert!(
                matches!(**source, DiscoveryError::NonFiniteValue { .. }),
                "unexpected source: {source:?}"
            );
        }
        other => panic!("expected Error::Shard, got {other:?}"),
    }
    // The failed shard was drained, not dropped: its rows are still
    // covered (by the guarded constant fallback), siblings are complete.
    assert!(bad.stats.drained_partitions > 0);
    assert!(out.rules.uncovered(&t, &t.all_rows()).is_empty());
    for s in out.shards.iter().filter(|s| s.error.is_none()) {
        assert!(
            s.outcome.is_complete(),
            "sibling shard {} degraded",
            s.shard_id
        );
    }
    assert_eq!(sink.snapshot().count("shards", "failed"), Some(1));
    // A poisoned shard forfeits the merged global moments.
    assert!(out.global_moments.is_none());
}

#[test]
fn invalid_plan_and_config_error_before_any_shard_runs() {
    let (t, cfg, space) = two_regime_table(60);
    let x = key_of(&t, "x");
    assert!(matches!(
        DiscoverySession::on(&t)
            .predicates(space.clone())
            .config(cfg.clone())
            .sharded(ShardSpec::by_key(x).shards(0))
            .run(),
        Err(DiscoveryError::Data(crr_data::DataError::InvalidShardPlan(
            _
        )))
    ));
    assert!(matches!(
        DiscoverySession::on(&t)
            .predicates(space)
            .config(cfg.with_shard_threads(0))
            .sharded(ShardSpec::by_key(x).equal_width().shards(4))
            .run(),
        Err(DiscoveryError::InvalidConfig(_))
    ));
}

// ---- Adaptive planning (ISSUE 9) ----------------------------------------

#[test]
fn quantile_one_shard_is_byte_identical_to_classic() {
    let (t, cfg, space) = tax_setup(2000);
    let classic = DiscoverySession::on(&t)
        .predicates(space.clone())
        .config(cfg.clone())
        .run()
        .unwrap();
    let quantile = DiscoverySession::on(&t)
        .predicates(space)
        .config(cfg)
        .sharded(ShardSpec::by_key(key_of(&t, "salary")).quantile().shards(1))
        .run()
        .unwrap();
    assert_eq!(
        sharded_fingerprint(&classic),
        sharded_fingerprint(&quantile)
    );
    assert!(quantile.merge.is_none(), "one shard must skip the merge");
}

#[test]
fn quantile_multi_shard_is_deterministic_across_thread_counts() {
    // 4 and 8 threads run the 3 non-seed shards concurrently, in an order
    // the scheduler picks; neither may perturb the single-thread
    // fingerprint.
    let (t, cfg, space) = electricity_setup(4000);
    let spec = ShardSpec::by_key(key_of(&t, "minute")).quantile().shards(4);
    let run = |threads: usize| {
        DiscoverySession::on(&t)
            .predicates(space.clone())
            .config(cfg.clone().with_shard_threads(threads))
            .sharded(spec.clone())
            .run()
            .unwrap()
    };
    let a = run(1);
    let b = run(4);
    let c = run(8);
    assert_eq!(sharded_fingerprint(&a), sharded_fingerprint(&b));
    assert_eq!(sharded_fingerprint(&b), sharded_fingerprint(&c));
    assert_eq!(a.shards.len(), 4);
}

#[test]
fn quantile_balances_the_skewed_tax_key() {
    // Salaries are right-skewed: equal-width shards pile most rows into
    // the low intervals, quantile shards split them near-evenly.
    let (t, cfg, space) = tax_setup(10000);
    let balance = |out: &ShardedDiscovery| {
        let sizes: Vec<usize> = out.shards.iter().map(|s| s.rows.len()).collect();
        let min = *sizes.iter().min().unwrap() as f64;
        let max = *sizes.iter().max().unwrap() as f64;
        min / max
    };
    let ew = DiscoverySession::on(&t)
        .predicates(space.clone())
        .config(cfg.clone())
        .sharded(
            ShardSpec::by_key(key_of(&t, "salary"))
                .equal_width()
                .shards(4),
        )
        .run()
        .unwrap();
    let q = DiscoverySession::on(&t)
        .predicates(space)
        .config(cfg)
        .sharded(ShardSpec::by_key(key_of(&t, "salary")).quantile().shards(4))
        .run()
        .unwrap();
    assert_eq!(q.shards.len(), 4);
    assert!(
        balance(&q) > balance(&ew),
        "quantile balance {:.3} must beat equal-width {:.3}",
        balance(&q),
        balance(&ew)
    );
    assert!(balance(&q) > 0.9, "quantile shards stay near-even");
    // Both runs stay sound and covering whatever the boundary placement.
    assert!(q.rules.uncovered(&t, &t.all_rows()).is_empty());
    for rule in q.rules.rules() {
        assert!(rule.find_violation(&t, &t.all_rows()).is_none());
    }
}

#[test]
fn obligations_record_the_boundary_construction() {
    let (t, cfg, space) = two_regime_table(200);
    let x = key_of(&t, "x");
    let q = DiscoverySession::on(&t)
        .predicates(space.clone())
        .config(cfg.clone())
        .sharded(ShardSpec::by_key(x).quantile().shards(4))
        .run()
        .unwrap();
    assert_eq!(q.obligations.as_ref().unwrap().boundary, Boundary::Quantile);
    let ew = DiscoverySession::on(&t)
        .predicates(space)
        .config(cfg)
        .sharded(ShardSpec::by_key(x).equal_width().shards(4))
        .run()
        .unwrap();
    assert_eq!(
        ew.obligations.as_ref().unwrap().boundary,
        Boundary::EqualWidth
    );
    // The boundary survives the artifact round-trip.
    let artifact = q.export_artifact(t.schema()).unwrap();
    let back = crr_discovery::RuleSetArtifact::from_text(&artifact.to_text()).unwrap();
    assert_eq!(back.obligations.unwrap().boundary, Boundary::Quantile);
}

#[test]
fn auto_count_plans_from_the_cost_model() {
    let (t, cfg, space) = two_regime_table(4096);
    let sink = MetricsSink::enabled();
    let out = DiscoverySession::on(&t)
        .predicates(space)
        .config(cfg.with_shard_threads(4))
        .metrics(sink.clone())
        .sharded(ShardSpec::by_key(key_of(&t, "x")))
        .run()
        .unwrap();
    let m = sink.snapshot();
    assert_eq!(m.count("shards", "plan_auto_k"), Some(1));
    assert!(out.shards.len() > 1, "4096 rows should shard");
    assert_eq!(
        m.count("shards", "plan_quantile"),
        Some(1),
        "auto specs default to quantile boundaries"
    );
    let balance = m.count("shards", "balance_permille").unwrap();
    assert!(balance > 900, "balance gauge reads {balance}");
    assert!(out.rules.uncovered(&t, &t.all_rows()).is_empty());
}

#[test]
fn a_warm_sink_never_changes_the_plan() {
    use crr_obs::Counter;
    let (t, cfg, space) = two_regime_table(4096);
    let run = |sink: Option<MetricsSink>| {
        let session = DiscoverySession::on(&t)
            .predicates(space.clone())
            .config(cfg.clone().with_shard_threads(2))
            .sharded(ShardSpec::by_key(key_of(&t, "x")));
        match sink {
            Some(sink) => session.metrics(sink),
            None => session,
        }
        .run()
        .unwrap()
    };
    let cold = run(None);
    // A sink whose history says cross-shard sharing never pays: plenty of
    // probes, no hits. Recording is write-only, so the plan must not read
    // it.
    let warm = MetricsSink::enabled();
    warm.add(Counter::CrossShardPoolProbes, 100);
    warm.add(Counter::CrossShardPoolMisses, 100);
    let warmed = run(Some(warm));
    assert_eq!(cold.shards.len(), 3);
    assert_eq!(warmed.shards.len(), cold.shards.len());
    assert_eq!(sharded_fingerprint(&warmed), sharded_fingerprint(&cold));
}

#[test]
fn a_panicking_shard_is_isolated_at_every_thread_count() {
    use std::sync::Arc;
    // Electricity's non-seed shards train models of their own, so the
    // last fit of a run lands in a shard the parallel phase runs.
    let (t, cfg, space) = electricity_setup(4000);
    let spec = ShardSpec::by_key(key_of(&t, "minute"))
        .equal_width()
        .shards(4);
    let run = |plan: FaultPlan, threads: usize, sink: MetricsSink| {
        let plan = Arc::new(plan);
        let out = DiscoverySession::on(&t)
            .predicates(space.clone())
            .config(
                cfg.clone()
                    .with_shard_threads(threads)
                    .with_faults(Arc::clone(&plan)),
            )
            .metrics(sink)
            .sharded(spec.clone())
            .run()
            .unwrap();
        (out, plan.fits_attempted())
    };
    let (_, fits) = run(FaultPlan::new(), 1, MetricsSink::disabled());
    assert!(fits > 0);
    for threads in [1, 2, 4] {
        // Only the run's last fit panics.
        let sink = MetricsSink::enabled();
        let (out, _) = run(
            FaultPlan::new().panic_fit_every(fits),
            threads,
            sink.clone(),
        );
        assert_eq!(out.shards.len(), 4);
        let failed: Vec<_> = out.failed_shards().collect();
        assert_eq!(
            failed.len(),
            1,
            "threads={threads}: exactly one shard fails"
        );
        let bad = failed[0];
        assert!(bad.shard_id > 0, "the seed shard trains first, never last");
        match bad.error.as_ref().unwrap() {
            DiscoveryError::Shard { shard_id, source } => {
                assert_eq!(*shard_id, bad.shard_id);
                match &**source {
                    DiscoveryError::TaskPanicked { task, message } => {
                        assert_eq!(*task, bad.shard_id, "threads={threads}");
                        assert!(message.contains("injected fit panic"), "{message}");
                    }
                    other => panic!("expected TaskPanicked, got {other:?}"),
                }
            }
            other => panic!("expected Error::Shard, got {other:?}"),
        }
        for s in out.shards.iter().filter(|s| s.error.is_none()) {
            assert!(
                s.outcome.is_complete(),
                "sibling shard {} degraded",
                s.shard_id
            );
        }
        assert!(out.rules.uncovered(&t, &t.all_rows()).is_empty());
        assert_eq!(sink.snapshot().count("faults", "task_panics"), Some(1));
    }
}
