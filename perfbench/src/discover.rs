//! `discover-electricity` and `discover-tax-sharded`: each op goes from
//! table to verified artifact — `DiscoverySession::run`, then
//! `compact_on_data`, then `RuleSetArtifact::new` + `to_text`, then the
//! A1–A7 verifier.

use crate::inputs::{self, Dataset, Problem, COMPACT_TOL, SETUP_REPS, VARIANTS};
use crate::{ms_since, Measured, Run};
use crr_analyze::AnalysisReport;
use crr_core::RuleIndex;
use crr_data::{PlannerCost, RowSet, ShardSpec};
use crr_discovery::compact_on_data;
use crr_discovery::prelude::*;
use std::time::Instant;

/// Everything one op produced.
struct OpOut {
    artifact: RuleSetArtifact,
    text: String,
    analysis: AnalysisReport,
    metrics: MetricsSnapshot,
    search_ms: f64,
    /// Shards the run's plan resolved to, and how many of them failed.
    shards: usize,
    failed_shards: usize,
}

fn discover_op(run: &mut Run, p: &Problem, all: &RowSet, op: u64) -> Result<OpOut, String> {
    let mut cfg = p.cfg.clone();
    if run.tracer.enabled() {
        // A fresh sink per op: the auto planner reads cumulative
        // cross-pool counters, so a shared sink would change later plans.
        cfg = cfg.with_metrics(MetricsSink::enabled());
    }
    let rho = cfg.rho_max;
    let tr = &mut run.tracer;

    let t = Instant::now();
    let span = tr.begin("discovery.search", op);
    let mut session = DiscoverySession::on(&p.table)
        .predicates(p.space.clone())
        .config(cfg);
    if let Some(key) = p.shard_key {
        session = session.sharded(ShardSpec::by_key(key));
    }
    let found = session.run().map_err(|e| format!("discovery: {e}"))?;
    tr.end(span);
    let search_ms = ms_since(t);
    let (shards, failed_shards) = (found.shards.len(), found.failed_shards().count());

    let span = tr.begin("discovery.compact", op);
    let (rules, _) = compact_on_data(&found.rules, COMPACT_TOL, rho, &p.table, all)
        .map_err(|e| format!("compaction: {e}"))?;
    tr.end(span);

    let span = tr.begin("discovery.artifact", op);
    let artifact = RuleSetArtifact::new(p.table.schema().clone(), rules, found.obligations)
        .map_err(|e| format!("artifact: {e}"))?;
    let text = artifact.to_text();
    tr.end(span);

    let span = tr.begin("analyze.verify", op);
    let analysis = crr_analyze::analyze_artifact_on(&artifact, &p.table);
    tr.end(span);
    Ok(OpOut {
        artifact,
        text,
        analysis,
        search_ms,
        shards,
        failed_shards,
        metrics: found.metrics,
    })
}

/// Per-op layer values read from the op's metrics sink.
fn sink_layers(run: &mut Run, out: &OpOut) {
    let snap = &out.metrics;
    let count = |s: &str, n: &str| snap.count(s, n).unwrap_or(0) as f64;
    let ratio = |hits: f64, probes: f64| if probes > 0.0 { hits / probes } else { 0.0 };
    let mut phases_ms = 0.0;
    for phase in [
        "split_selection",
        "pool_scan",
        "pred_scan",
        "fitting",
        "gram_accumulate",
        "snapshot_build",
    ] {
        let ms = snap.secs("phases", &format!("{phase}_secs")).unwrap_or(0.0) * 1e3;
        phases_ms += ms;
        run.layer(&format!("discovery.{phase}_ms"), ms);
    }
    run.layer("discovery.other_ms", out.search_ms - phases_ms);
    run.layer("discovery.queue_pops", count("queue", "pops"));
    run.layer("discovery.splits", count("queue", "splits"));
    run.layer("discovery.pool_probes", count("pool", "probes"));
    run.layer(
        "discovery.pool_hit_ratio",
        ratio(count("pool", "hits"), count("pool", "probes")),
    );
    run.layer("discovery.kernel_scan_rows", count("kernels", "scan_rows"));
    run.layer(
        "discovery.moments_add_row_ops",
        count("moments", "add_row_ops"),
    );
    run.layer(
        "discovery.cross_pool_probes",
        count("shards", "cross_pool_probes"),
    );
    run.layer(
        "discovery.cross_pool_hit_ratio",
        ratio(
            count("shards", "cross_pool_hits"),
            count("shards", "cross_pool_probes"),
        ),
    );
    run.layer("discovery.steal_assists", count("shards", "steal_assists"));
    run.layer("discovery.merge_fusions", count("shards", "merge_fusions"));
    run.layer("data.shards", count("run", "shards"));
    run.layer("data.balance_permille", count("shards", "balance_permille"));
    run.layer("discovery.artifact_bytes", out.text.len() as f64);
    run.layer(
        "analyze.unsound_findings",
        out.analysis.summary().unsound as f64,
    );
}

/// A variant's first answer: artifact text (rules and ρ bits) and RMSE
/// bits.
type Print = (String, u64);

pub fn run(run: &mut Run, dataset: Dataset) -> Measured {
    let (rows, shards) = match dataset {
        Dataset::Electricity => (inputs::ELECTRICITY_ROWS, 1),
        Dataset::Tax => (inputs::TAX_ROWS, inputs::TAX_SHARDS),
    };
    let mut m = Measured::default();

    // Set-up: generation and the predicate space of every variant.
    let setup = |run: &mut Run, rep: u64| {
        let t = Instant::now();
        let problems: Vec<Problem> = (0..VARIANTS)
            .map(|j| {
                let seed = inputs::variant_seed(run.seed, j);
                let table = inputs::generate(dataset, rows, seed, &mut run.tracer, rep);
                inputs::problem(dataset, table, &mut run.tracer, rep)
            })
            .collect();
        (problems, t.elapsed().as_secs_f64())
    };
    run.tracer.set_enabled(run.trace);
    let (problems, secs) = setup(run, 0);
    m.setup_s.push(secs);
    let alls: Vec<RowSet> = problems.iter().map(|p| p.table.all_rows()).collect();

    // `first` holds each variant's first answer of the run; `seen` marks
    // the variants already evaluated in the current half.
    let mut first: Vec<Option<Print>> = problems.iter().map(|_| None).collect();
    let mut quality = vec![(0.0, 0.0, 0.0); problems.len()];
    let mut op = 0u64;
    let halves: &[bool] = if run.trace { &[false, true] } else { &[false] };
    for &traced in halves {
        run.tracer.set_enabled(traced);
        let mut seen = vec![false; problems.len()];
        let mut clock = run.schedule();
        // Every draw runs at least once per half, however short the run.
        while clock.running() || seen.contains(&false) {
            if !traced && clock.setup_due() {
                m.setup_s.push(setup(run, op).1);
            }
            let j = op as usize % problems.len();
            let (p, all) = (&problems[j], &alls[j]);
            op += 1;
            let t = Instant::now();
            let span = run.tracer.begin("op", op);
            let out = discover_op(run, p, all, op);
            run.tracer.end(span);
            let op_ms = ms_since(t);
            let Some(out) = run.report.op(out) else {
                seen[j] = true;
                continue;
            };
            if traced {
                m.traced_op_ms.push(op_ms);
                sink_layers(run, &out);
            } else {
                m.op_ms.push(op_ms);
                m.rows += rows as f64;
                m.busy_s += op_ms / 1e3;
            }
            run.report.check(out.analysis.is_sound(), || {
                format!("op {op}: artifact fails A1–A7: {:?}", out.analysis.findings)
            });
            // A different shard count (another planner input, or the
            // single-shard fallback) would silently change the workload.
            run.report
                .check(out.shards == shards && out.failed_shards == 0, || {
                    format!(
                        "op {op}: plan ran {} shards ({} failed), expected {shards}",
                        out.shards, out.failed_shards
                    )
                });

            // Quality, outside the op, on each variant's first op of each
            // half (the same evaluation serving runs); every later op must
            // return the same artifact text, and so the same RMSE.
            if seen[j] {
                let same = first[j].as_ref().is_some_and(|f| f.0 == out.text);
                run.report.check(same, || {
                    format!("op {op}: rules or rho bits differ from variant {j}'s first op")
                });
            } else {
                seen[j] = true;
                let span = run.tracer.begin("core.evaluate", op);
                let index = RuleIndex::build(&out.artifact.rules, &p.table);
                let eval = index.compile(&p.table).evaluate(all);
                run.tracer.end(span);
                let covered = eval.covered as f64 / eval.total as f64;
                quality[j] = (eval.rmse, covered, out.artifact.rules.len() as f64);
                let print = (out.text.clone(), eval.rmse.to_bits());
                match &first[j] {
                    None => first[j] = Some(print),
                    Some(f) => run.report.check(*f == print, || {
                        format!("variant {j}: traced and untraced rules, rho bits or RMSE differ")
                    }),
                }
            }
        }
    }
    run.report.check(first.iter().all(Option::is_some), || {
        "some data variant never ran".to_string()
    });
    let n = quality.len() as f64;
    m.rmse = quality.iter().map(|q| q.0).sum::<f64>() / n;
    m.coverage = quality.iter().map(|q| q.1).sum::<f64>() / n;
    m.rules = quality.iter().map(|q| q.2).sum::<f64>() / n;
    if run.trace {
        trace_extras(run, &problems[0], &alls[0], quality[0].0);
    }
    m
}

/// Traced-run extras measured outside the ops: the planner layer on its
/// own, and the sharded workload's accuracy gap to one shard.
fn trace_extras(run: &mut Run, p: &Problem, all: &RowSet, rmse: f64) {
    let spec = p
        .shard_key
        .map_or_else(ShardSpec::single, ShardSpec::by_key);
    let cost = PlannerCost {
        predicate_vocab: p.space.len().max(1),
        workers: p.cfg.shard_threads,
    };
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let planned = spec.plan(&p.table, all, &cost);
        run.layer("data.plan_ms", ms_since(t));
        if let Err(e) = planned {
            run.report.check(false, || format!("planner: {e}"));
        }
    }
    let gap = if p.shard_key.is_some() {
        let single = DiscoverySession::on(&p.table)
            .predicates(p.space.clone())
            .config(p.cfg.clone())
            .export();
        match single {
            Ok((_, artifact)) => {
                let index = RuleIndex::build(&artifact.rules, &p.table);
                let base = index.compile(&p.table).evaluate(all).rmse;
                run.report.note("single_shard_rmse", base);
                (rmse / base - 1.0) * 100.0
            }
            Err(e) => {
                run.report
                    .check(false, || format!("single-shard baseline: {e}"));
                f64::NAN
            }
        }
    } else {
        0.0
    };
    run.layer("discovery.shard_rmse_gap_pct", gap);
}
