//! Regression guards for the discovery engine: the output of a run must be
//! *byte-identical* — serialized rules, stats, and outcome — to the pinned
//! hashes of default-config discovery, across repeated runs, and with or
//! without metrics.

// Test harness: panicking on malformed fixtures is the failure mode we want.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use crr_core::serialize;
use crr_data::{RowSet, Table};
use crr_datasets::{electricity, tax, GenConfig};
use crr_discovery::{
    DiscoveryConfig, DiscoverySession, MetricsSink, PredicateGen, PredicateSpace, ShardSpec,
    ShardedDiscovery, SplitStrategy,
};

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

/// Everything observable about a run except wall-clock time.
fn fingerprint(d: &ShardedDiscovery) -> String {
    let s = &d.stats;
    format!(
        "{}\ntrained={} shared={} explored={} forced={} uncoverable={} drained={}+{} outcome={:?}",
        serialize::to_text(&d.rules),
        s.models_trained,
        s.models_shared,
        s.partitions_explored,
        s.forced_accepts,
        s.uncoverable_rows,
        s.drained_partitions,
        s.drained_rows,
        d.outcome,
    )
}

fn setup(rows: usize) -> (Table, DiscoveryConfig, PredicateSpace) {
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

/// 64-bit FNV-1a: a hash fixed by its definition, so pinned values do not
/// move with the toolchain's `Hasher`.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Pins the exact output of default-config discovery: every split
/// strategy on electricity and tax, plus a 4-shard quantile run on tax.
/// A refactor of the search loop must leave every hash unchanged; a
/// deliberate behaviour change re-records them and says why.
#[test]
fn default_discovery_output_is_pinned() {
    let mut got: Vec<(String, u64)> = Vec::new();
    for (name, (t, base, space)) in [("electricity", setup(2000)), ("tax", tax_setup(2000))] {
        for split in [
            SplitStrategy::BestResidual,
            SplitStrategy::BestVariance,
            SplitStrategy::FirstApplicable,
        ] {
            let mut cfg = base.clone();
            cfg.split = split;
            let d = discover(&t, &t.all_rows(), &cfg, &space).unwrap();
            got.push((format!("{name}/{split:?}"), fnv1a(&fingerprint(&d))));
        }
    }
    let (t, cfg, space) = tax_setup(2000);
    let salary = t.attr("salary").unwrap();
    let d = DiscoverySession::on(&t)
        .predicates(space)
        .config(cfg)
        .sharded(ShardSpec::by_key(salary).quantile().shards(4))
        .run()
        .unwrap();
    assert_eq!(d.shards.len(), 4);
    got.push(("tax/quantile-4".to_string(), fnv1a(&fingerprint(&d))));

    let expected: Vec<(String, u64)> = [
        ("electricity/BestResidual", 0x3171_cd9a_1ae8_c402),
        ("electricity/BestVariance", 0x9066_32fa_8649_3492),
        ("electricity/FirstApplicable", 0x9c0d_a530_89d6_d1e4),
        ("tax/BestResidual", 0x179a_5041_fa67_bc21),
        ("tax/BestVariance", 0x7008_ed07_4d5e_8f6d),
        ("tax/FirstApplicable", 0x397a_8e30_4453_55e8),
        ("tax/quantile-4", 0x876a_e624_8ccd_98b1),
    ]
    .into_iter()
    .map(|(k, h)| (k.to_string(), h))
    .collect();
    let show = |v: &[(String, u64)]| {
        v.iter()
            .map(|(k, h)| format!("{k}={h:#018x}"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(show(&got), show(&expected));
}

#[test]
fn repeated_runs_are_byte_identical() {
    let (t, cfg, space) = setup(2000);
    let a = discover(&t, &t.all_rows(), &cfg, &space).unwrap();
    let b = discover(&t, &t.all_rows(), &cfg, &space).unwrap();
    assert_eq!(fingerprint(&a), fingerprint(&b));
}

#[test]
fn metrics_instrumentation_is_byte_identical() {
    // The observability contract: an enabled sink must not perturb the
    // search — queue order, fit results and rule output are untouched.
    let (t, plain_cfg, space) = setup(2000);
    let metered_cfg = plain_cfg.clone().with_metrics(MetricsSink::enabled());
    let plain = discover(&t, &t.all_rows(), &plain_cfg, &space).unwrap();
    let metered = discover(&t, &t.all_rows(), &metered_cfg, &space).unwrap();
    assert_eq!(fingerprint(&plain), fingerprint(&metered));
    assert!(plain.metrics.is_empty());
    assert!(!metered.metrics.is_empty());
}
