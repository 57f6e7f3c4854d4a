//! Micro-benchmarks of the operations that dominate discovery: predicate
//! evaluation/selection, model fitting, rule locating, and the inference
//! rules themselves. Not tied to a paper figure — these guard the hot
//! paths the figure benches sit on.

// Bench harness: panicking on setup failure is the failure mode we want.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use crr_bench::*;
use crr_core::inference::{fusion, translation};
use crr_core::{Conjunction, Crr, Dnf, Predicate};
use crr_data::Value;
use crr_models::{fit_model, FitConfig, LinearModel, Model, ModelKind};
use std::sync::Arc;

fn bench(c: &mut Criterion) {
    let mut c = c.benchmark_group("core_ops");
    c.sample_size(10);
    c.warm_up_time(std::time::Duration::from_millis(300));
    c.measurement_time(std::time::Duration::from_millis(1500));
    let sc = birdmap_scenario(10_000, 3);
    let table = sc.table();
    let rows = sc.rows();
    let date = sc.time_attr;

    // Predicate selection over 10k rows.
    let pred = Predicate::le(date, Value::Int(800));
    c.bench_function("predicate_select_10k", |b| {
        b.iter(|| Conjunction::of(vec![pred.clone()]).select(table, &rows))
    });

    // Linear fit on 1k points.
    let xs: Vec<Vec<f64>> = (0..1_000).map(|i| vec![i as f64]).collect();
    let y: Vec<f64> = xs.iter().map(|x| 1.5 * x[0] + 2.0).collect();
    let cfg = FitConfig::new(ModelKind::Linear);
    c.bench_function("linear_fit_1k", |b| {
        b.iter(|| fit_model(&xs, &y, &cfg).unwrap())
    });

    // Ridge fit on the same data.
    let ridge_cfg = FitConfig::new(ModelKind::Ridge);
    c.bench_function("ridge_fit_1k", |b| {
        b.iter(|| fit_model(&xs, &y, &ridge_cfg).unwrap())
    });

    // Rule locating: a compacted rule set answering 10k predictions.
    let opts = CrrOptions {
        predicates_per_attr: 63,
        ..Default::default()
    };
    let (_, rules) = measure_crr(&sc, &rows, &opts);
    c.bench_function("ruleset_evaluate_10k", |b| {
        b.iter(|| rules.evaluate(table, &rows))
    });

    // Inference rules on synthetic rule pairs.
    let lat = sc.target;
    let mk = |w: f64, b: f64, lo: i64| {
        let m = Arc::new(Model::Linear(LinearModel::new(vec![w], b)));
        Crr::new(
            vec![date],
            lat,
            m,
            0.5,
            Dnf::single(Conjunction::of(vec![Predicate::ge(date, Value::Int(lo))])),
        )
        .unwrap()
    };
    let r1 = mk(1.0, 0.0, 0);
    let r2 = mk(1.0, -50.0, 365);
    c.bench_function("inference_translation", |b| {
        b.iter_batched(
            || (r1.clone(), r2.clone()),
            |(a, bb)| translation(&a, &bb, 1e-9).unwrap(),
            BatchSize::SmallInput,
        )
    });
    let r3 = r1.with_model(Arc::clone(r1.model()), 0.5);
    c.bench_function("inference_fusion", |b| {
        b.iter_batched(
            || (r1.clone(), r3.clone()),
            |(a, bb)| fusion(&a, &bb).unwrap(),
            BatchSize::SmallInput,
        )
    });
    c.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
