//! Tracked microbenchmarks for the sufficient-statistics fit engine:
//!
//! * end-to-end discovery on Electricity and Tax;
//! * a single partition fit solved from its cached Gram statistics.
//!
//! `cargo bench -p crr-bench --bench perf_fit_engine`

// Bench harness: panicking on setup failure is the failure mode we want.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::type_complexity)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use crr_bench::{crr_inputs, electricity_scenario, tax_scenario, CrrOptions, Scenario};
use crr_data::NumericSnapshot;

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
use crr_models::{try_fit_from_moments, FitConfig, ModelKind, Moments};
use std::time::Duration;

fn bench_discovery(c: &mut Criterion) {
    let cells: [(&str, fn(usize, u64) -> Scenario, [usize; 3], usize); 2] = [
        (
            "electricity",
            electricity_scenario,
            [1_440, 2_880, 5_760],
            255,
        ),
        ("tax", tax_scenario, [1_250, 2_500, 5_000], 15),
    ];
    let mut g = c.benchmark_group("discovery");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_millis(1500));
    for (name, make, sizes, per_attr) in cells {
        for n in sizes {
            let sc = make(n, 42);
            let rows = sc.rows();
            g.throughput(Throughput::Elements(rows.len() as u64));
            let opts = CrrOptions {
                compact: false,
                predicates_per_attr: per_attr,
                ..Default::default()
            };
            let (cfg, space) = crr_inputs(&sc, &opts);
            g.bench_with_input(BenchmarkId::new(name, n), &n, |b, _| {
                b.iter(|| discover(sc.table(), &rows, &cfg, &space).expect("discovery"))
            });
        }
    }
    g.finish();
}

fn bench_single_fit(c: &mut Criterion) {
    let sc = electricity_scenario(10_000, 42);
    let rows = sc.rows();
    let snap = NumericSnapshot::build(sc.table(), &sc.inputs, sc.target, &rows).expect("snapshot");
    let fit = snap.ready_rows(&rows);
    let cols: Vec<&[f64]> = (0..snap.num_inputs()).map(|j| snap.input(j)).collect();
    let mut moments = Moments::zeros(snap.num_inputs());
    moments.add_rows(&cols, snap.target(), &fit);
    let cfg = FitConfig::new(ModelKind::Linear);
    let mut g = c.benchmark_group("single_fit");
    g.sample_size(30);
    g.warm_up_time(Duration::from_millis(200));
    g.measurement_time(Duration::from_millis(1000));
    g.throughput(Throughput::Elements(fit.len() as u64));
    // What a queue pop costs once the parent's moments were split by
    // sibling subtraction.
    g.bench_function("moments_solve", |b| {
        b.iter(|| try_fit_from_moments(&moments, &cfg).expect("solvable"))
    });
    g.finish();
}

criterion_group!(benches, bench_discovery, bench_single_fit);
criterion_main!(benches);
