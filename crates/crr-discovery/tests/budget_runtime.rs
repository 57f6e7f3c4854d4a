//! Integration tests for the budgeted, fault-tolerant discovery runtime:
//! real dataset, real deadline, real threads. The contract under test is
//! *anytime-with-guarantees* — whatever trips (deadline, fit cap,
//! cancellation), discovery returns a ruleset that still covers every row,
//! tagged with the reason it stopped. It never hangs and never panics.

// Test harness: panicking on malformed fixtures is the failure mode we want.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use crr_core::Predicate;
use crr_data::{AttrType, RowSet, Schema, Table, Value};
use crr_datasets::{electricity, GenConfig};
use crr_discovery::{
    Budget, CancelToken, DiscoveryConfig, DiscoveryOutcome, DiscoverySession, FaultPlan,
    MetricsSink, PredicateGen, PredicateSpace, ShardedDiscovery,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Single-shard run through the session front door.
fn discover(
    t: &Table,
    rows: &RowSet,
    cfg: &DiscoveryConfig,
    space: &PredicateSpace,
) -> crr_discovery::Result<ShardedDiscovery> {
    DiscoverySession::on(t)
        .rows(rows.clone())
        .predicates(space.clone())
        .config(cfg.clone())
        .run()
}

fn electricity_instance(rows: usize) -> (Table, DiscoveryConfig, PredicateSpace) {
    let ds = electricity(&GenConfig { rows, seed: 11 });
    let minute = ds.table.attr("minute").unwrap();
    let target = ds.table.attr(ds.default_target).unwrap();
    let space = PredicateGen::binary(16).generate(&ds.table, &[minute], target, 3);
    let cfg = DiscoveryConfig::new(vec![minute], target, 0.2);
    (ds.table, cfg, space)
}

/// The headline acceptance test: a 1 ms deadline on the electricity
/// dataset returns promptly with a non-empty partial ruleset tagged
/// `DeadlineExceeded`, and every row stays covered.
#[test]
fn one_ms_deadline_on_electricity_degrades_gracefully() {
    let (table, cfg, space) = electricity_instance(20_000);
    let cfg = cfg
        .with_budget(Budget::unlimited().with_deadline(Duration::from_millis(1)))
        .with_metrics(MetricsSink::enabled());
    let started = Instant::now();
    let d = discover(&table, &table.all_rows(), &cfg, &space).unwrap();
    // "Never hangs": a 1 ms budget must not take seconds. The bound is
    // loose because one in-flight fit may finish after the deadline.
    assert!(started.elapsed() < Duration::from_secs(10));
    assert_eq!(d.outcome, DiscoveryOutcome::DeadlineExceeded);
    assert!(!d.rules.is_empty(), "partial ruleset must not be empty");
    assert!(d.stats.drained_partitions >= 1);
    assert!(
        d.rules.uncovered(&table, &table.all_rows()).is_empty(),
        "degraded runs keep the coverage guarantee"
    );
    // The metrics ledger records the degradation exactly as stats saw it.
    let m = &d.metrics;
    assert_eq!(m.count("budget", "deadline_trips"), Some(1));
    assert_eq!(
        m.count("budget", "drained_partitions"),
        Some(d.stats.drained_partitions as u64)
    );
    assert_eq!(
        m.count("budget", "drained_rows"),
        Some(d.stats.drained_rows as u64)
    );
    assert!(m.count("budget", "checks").unwrap() >= 1);
    assert!(m.secs("phases", "drain_secs").unwrap() > 0.0);
}

/// The same instance without a budget completes and reports so.
#[test]
fn unbudgeted_electricity_run_completes() {
    let (table, cfg, space) = electricity_instance(4_000);
    let d = discover(&table, &table.all_rows(), &cfg, &space).unwrap();
    assert!(d.outcome.is_complete());
    assert_eq!(d.stats.drained_partitions, 0);
    assert!(d.rules.uncovered(&table, &table.all_rows()).is_empty());
}

/// A fit cap produces a partial-but-covering ruleset tagged
/// `BudgetExhausted`, with the cap honored.
#[test]
fn fit_cap_on_electricity_respects_the_cap() {
    let (table, cfg, space) = electricity_instance(8_000);
    let cfg = cfg.with_budget(Budget::unlimited().with_max_fits(3));
    let d = discover(&table, &table.all_rows(), &cfg, &space).unwrap();
    assert_eq!(d.outcome, DiscoveryOutcome::BudgetExhausted);
    // The cap is checked at each pop, so at most one fit past the limit.
    assert!(d.stats.models_trained <= 4, "stats: {:?}", d.stats);
    assert!(d.rules.uncovered(&table, &table.all_rows()).is_empty());
}

/// Cancellation from another thread stops a run whose fits are
/// artificially slow, and the partial result still covers every row.
#[test]
fn cancellation_from_another_thread_stops_the_run() {
    let (table, cfg, space) = electricity_instance(6_000);
    let token = CancelToken::new();
    let cfg = cfg
        .with_cancel(token.clone())
        // Slow solver: every fit sleeps, so the run is mid-flight when the
        // canceller fires regardless of machine speed.
        .with_faults(Arc::new(
            FaultPlan::new().delay_fits(Duration::from_millis(20)),
        ));
    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            token.cancel();
        })
    };
    let d = discover(&table, &table.all_rows(), &cfg, &space).unwrap();
    canceller.join().unwrap();
    assert_eq!(d.outcome, DiscoveryOutcome::Cancelled);
    assert!(d.rules.uncovered(&table, &table.all_rows()).is_empty());
}

/// A fit cap trips as a `budget.exhaustion_trips` event in the metrics,
/// and the fit-engine counters stay consistent on the degraded path.
#[test]
fn exhaustion_trip_is_recorded_in_metrics() {
    let (table, cfg, space) = electricity_instance(8_000);
    let cfg = cfg
        .with_budget(Budget::unlimited().with_max_fits(3))
        .with_metrics(MetricsSink::enabled());
    let d = discover(&table, &table.all_rows(), &cfg, &space).unwrap();
    assert_eq!(d.outcome, DiscoveryOutcome::BudgetExhausted);
    let m = &d.metrics;
    assert_eq!(m.count("budget", "exhaustion_trips"), Some(1));
    assert_eq!(m.count("budget", "deadline_trips"), Some(0));
    assert_eq!(m.count("budget", "cancellations"), Some(0));
    let trained = m.count("fits", "moments_solves").unwrap()
        + m.count("fits", "declined_singular").unwrap()
        + m.count("fits", "rescans").unwrap();
    assert_eq!(trained, d.stats.models_trained as u64);
}

/// The split fallback returns only a predicate that separates. With `x`
/// at 5 or 6, the strided sample sees only bounds that select no row, and
/// the sorted-constant fallback must pass over `x < 5` — empty at the
/// partition's minimum — to `x ≤ 5.5`. A fallback returning `x < 5` pushed
/// one child holding the same rows and picked `x < 5` again at every pop,
/// so the run only ended when its budget did.
#[test]
fn split_fallback_skips_a_strict_bound_at_the_minimum() {
    let schema = Schema::new(vec![
        ("x", AttrType::Float),
        ("z", AttrType::Float),
        ("y", AttrType::Float),
    ]);
    let mut t = Table::new(schema);
    for i in 0..100 {
        let (x, y) = if i < 50 { (5.0, 0.0) } else { (6.0, 100.0) };
        t.push_row(vec![
            Value::Float(x),
            Value::Float((i % 7) as f64),
            Value::Float(y),
        ])
        .unwrap();
    }
    let (x, z, y) = (
        t.attr("x").unwrap(),
        t.attr("z").unwrap(),
        t.attr("y").unwrap(),
    );
    let mut preds = vec![
        Predicate::lt(x, Value::Float(5.0)),
        Predicate::lt(x, Value::Float(-1.0)),
        Predicate::le(x, Value::Float(5.5)),
    ];
    preds.extend((2..=201).map(|k| Predicate::lt(x, Value::Float(-f64::from(k)))));
    assert_eq!(preds.len(), 203);
    let d = DiscoverySession::on(&t)
        .predicates(PredicateSpace::from_predicates(preds))
        .config(DiscoveryConfig::new(vec![z], y, 1.0))
        .budget(Budget::unlimited().with_max_expansions(5_000))
        .run()
        .unwrap();
    assert_eq!(d.outcome, DiscoveryOutcome::Complete);
    assert_eq!(d.stats.partitions_explored, 3);
    assert_eq!(d.rules.len(), 2);
    assert!(d.rules.uncovered(&t, &t.all_rows()).is_empty());
}
