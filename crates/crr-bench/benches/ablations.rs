//! Criterion ablation benches for the design choices DESIGN.md calls out:
//! model sharing, split criterion, and the interval rule index (full
//! comparison: `experiments -- ablation`).

// Bench harness: panicking on setup failure is the failure mode we want.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use criterion::{criterion_group, criterion_main, Criterion};
use crr_bench::*;
use crr_core::RuleIndex;
use crr_discovery::SplitStrategy;

/// Single-shard discovery through the session front door.
fn discover(
    t: &crr_data::Table,
    rows: &crr_data::RowSet,
    cfg: &crr_discovery::DiscoveryConfig,
    space: &crr_discovery::PredicateSpace,
) -> crr_discovery::Result<crr_discovery::ShardedDiscovery> {
    crr_discovery::DiscoverySession::on(t)
        .rows(rows.clone())
        .predicates(space.clone())
        .config(cfg.clone())
        .run()
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablations");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.measurement_time(std::time::Duration::from_millis(1500));
    let sc = birdmap_scenario(2_000, 40);
    let rows = sc.rows();

    for share in [true, false] {
        let opts = CrrOptions {
            share,
            predicates_per_attr: 63,
            ..Default::default()
        };
        g.bench_function(format!("discover_sharing_{share}"), |b| {
            b.iter(|| measure_crr(&sc, &rows, &opts))
        });
    }

    for (label, split) in [
        ("residual", SplitStrategy::BestResidual),
        ("variance", SplitStrategy::BestVariance),
        ("first", SplitStrategy::FirstApplicable),
    ] {
        let opts = CrrOptions {
            predicates_per_attr: 63,
            ..Default::default()
        };
        let (mut cfg, space) = crr_inputs(&sc, &opts);
        cfg.split = split;
        g.bench_function(format!("discover_split_{label}"), |b| {
            b.iter(|| discover(sc.table(), &rows, &cfg, &space).expect("discover"))
        });
    }

    let opts = CrrOptions {
        predicates_per_attr: 63,
        ..Default::default()
    };
    let (_, rules) = measure_crr(&sc, &rows, &opts);
    g.bench_function("locate_scan", |b| {
        b.iter(|| rules.evaluate(sc.table(), &rows))
    });
    let index = RuleIndex::build(&rules, sc.table());
    g.bench_function("locate_index", |b| {
        b.iter(|| index.compile(sc.table()).evaluate(&rows))
    });
    g.bench_function("index_build", |b| {
        b.iter(|| RuleIndex::build(&rules, sc.table()))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
