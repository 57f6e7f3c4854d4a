//! `maintain-window`: a `StreamEngine` over a sliding window of the
//! electricity series. Each step appends the next batch and deletes the
//! oldest batch of the same size; after every `STEPS_PER_ROUND` steps, if
//! `needs_repair()`, the engine repairs and the repaired artifact is
//! swapped into a `RuleStore` with `try_swap`. The unit op is one round.
//!
//! Rules grow with every repair, so a pass is not stationary: each pass
//! replays a fixed stream from the same base, and only whole passes are
//! measured. Passes cycle through `VARIANTS` streams generated from the
//! workload seed.

use crate::inputs::{self, Dataset, VARIANTS};
use crate::{ms_since, Measured, Run};
use crr_core::RuleIndex;
use crr_data::{Table, Value};
use crr_discovery::prelude::*;
use crr_discovery::PredicateSpace;
use crr_serve::RuleStore;
use crr_stream::{StreamConfig, StreamEngine};
use std::time::Instant;

/// Base window: three days of minutes.
const WINDOW: usize = 4_320;
/// Rows appended (and deleted) per step: two hours.
const BATCH: usize = 120;
const STEPS_PER_ROUND: usize = 4;
const ROUNDS: usize = 30;
const STEPS: usize = ROUNDS * STEPS_PER_ROUND;
/// Generated rows per stream: the base window plus everything appended.
const TOTAL_ROWS: usize = WINDOW + STEPS * BATCH;

/// One stream: its base window, base artifact, discovery inputs and the
/// batches it appends.
struct Stream {
    base: Table,
    artifact: RuleSetArtifact,
    cfg: DiscoveryConfig,
    space: PredicateSpace,
    batches: Vec<Vec<Vec<Value>>>,
}

fn new_engine(s: &Stream, sink: MetricsSink) -> Result<StreamEngine, String> {
    StreamEngine::new(
        s.base.clone(),
        s.artifact.rules.clone(),
        s.cfg.clone(),
        s.space.clone(),
        StreamConfig::default().with_metrics(sink),
    )
    .map_err(|e| format!("engine: {e}"))
}

/// Set-up: every stream's generation, predicate space, base discovery
/// and engine start, plus the store repaired artifacts are swapped into.
fn setup(run: &mut Run, rep: u64) -> Result<(Vec<Stream>, RuleStore), String> {
    let mut streams = Vec::new();
    for j in 0..VARIANTS {
        let seed = inputs::variant_seed(run.seed, j);
        let table = inputs::generate(Dataset::Electricity, TOTAL_ROWS, seed, &mut run.tracer, rep);
        let p = inputs::problem(Dataset::Electricity, table, &mut run.tracer, rep);
        let mut base = Table::new(p.table.schema().clone());
        for r in 0..WINDOW {
            base.push_row(p.table.row(r))
                .map_err(|e| format!("base row: {e}"))?;
        }
        let (_, artifact) = DiscoverySession::on(&base)
            .predicates(p.space.clone())
            .config(p.cfg.clone())
            .export()
            .map_err(|e| format!("base discovery: {e}"))?;
        let batches = (0..STEPS)
            .map(|k| {
                (WINDOW + k * BATCH..WINDOW + (k + 1) * BATCH)
                    .map(|r| p.table.row(r))
                    .collect()
            })
            .collect();
        let stream = Stream {
            base,
            artifact,
            cfg: p.cfg,
            space: p.space,
            batches,
        };
        new_engine(&stream, MetricsSink::disabled())?;
        streams.push(stream);
    }
    let store = RuleStore::open(streams[0].artifact.clone(), MetricsSink::disabled())
        .map_err(|e| format!("store open: {e}"))?;
    Ok((streams, store))
}

/// What one pass left behind; every pass of a stream must repeat it.
#[derive(PartialEq)]
struct PassPrint {
    repaired: Vec<String>,
    rmse_bits: u64,
    covered: usize,
    live: usize,
    rules: usize,
}

/// Where a pass's measurements go.
struct Sinks<'a> {
    m: &'a mut Measured,
    repair_ms: &'a mut Vec<f64>,
    op: &'a mut u64,
}

/// Replays one stream from its base; returns its fingerprint. `verify`
/// runs A1–A7 on every swapped artifact (a stream's first pass).
fn pass(
    run: &mut Run,
    s: &Stream,
    store: &RuleStore,
    traced: bool,
    verify: bool,
    out: Sinks<'_>,
) -> Option<PassPrint> {
    let Sinks { m, repair_ms, op } = out;
    let sink = if traced {
        MetricsSink::enabled()
    } else {
        MetricsSink::disabled()
    };
    let mut engine = run.report.op(new_engine(s, sink.clone()))?;
    let mut repaired = Vec::new();
    let mut affected = 0usize;
    for round in 0..ROUNDS {
        *op += 1;
        let span = run.tracer.begin("op", *op);
        let mut busy = 0.0;
        for k in round * STEPS_PER_ROUND..(round + 1) * STEPS_PER_ROUND {
            let deletes: Vec<usize> = (k * BATCH..(k + 1) * BATCH).collect();
            let t = Instant::now();
            let sp = run.tracer.begin("stream.append", *op);
            let appended = engine.append(&s.batches[k]).map(|_| ());
            run.tracer.end(sp);
            let sp = run.tracer.begin("stream.delete", *op);
            let deleted = engine.delete(&deletes).map(|_| ());
            run.tracer.end(sp);
            busy += ms_since(t);
            run.report
                .op(appended.and(deleted).map_err(|e| format!("step {k}: {e}")));
        }
        let mut swapped = None;
        if engine.needs_repair() {
            let t = Instant::now();
            let sp = run.tracer.begin("stream.repair", *op);
            let result = engine.repair();
            run.tracer.end(sp);
            let repair_only = ms_since(t);
            if let Some(rep) = run
                .report
                .op(result.map_err(|e| format!("round {round}: repair: {e}")))
            {
                affected += rep.affected_rows;
                let violations = rep.residual_violations;
                let t = Instant::now();
                let sp = run.tracer.begin("stream.swap", *op);
                let result = store.try_swap(rep.artifact);
                run.tracer.end(sp);
                let swap_ms = ms_since(t);
                busy += repair_only + swap_ms;
                if !traced {
                    m.swap_ms.push(swap_ms);
                    repair_ms.push(repair_only + swap_ms);
                }
                run.report.check(violations == 0, || {
                    format!("round {round}: repair left {violations} residual violations")
                });
                swapped = run
                    .report
                    .op(result.map_err(|e| format!("round {round}: swap refused: {e}")));
            }
        }
        run.tracer.end(span);
        if traced {
            m.traced_op_ms.push(busy);
        } else {
            m.op_ms.push(busy);
            m.rows += (2 * STEPS_PER_ROUND * BATCH) as f64;
            m.busy_s += busy / 1e3;
        }
        // Checks, outside the op.
        if let Some(set) = swapped {
            if verify {
                let report = crr_analyze::analyze_artifact_on(&set.artifact, engine.table());
                run.report.check(report.is_sound(), || {
                    format!(
                        "round {round}: repaired artifact fails A1–A7: {:?}",
                        report.findings
                    )
                });
            }
            repaired.push(set.artifact.to_text());
        }
    }
    run.report.check(!repaired.is_empty(), || {
        "a pass swapped nothing".to_string()
    });
    let span = run.tracer.begin("core.evaluate", *op);
    let index = RuleIndex::build(engine.rules(), engine.table());
    let eval = index.compile(engine.table()).evaluate(&engine.live_rows());
    run.tracer.end(span);
    if traced {
        let snap = sink.snapshot();
        for name in [
            "routed_pairs",
            "moments_updates",
            "violations",
            "drifted_rules",
            "tracked_rules",
        ] {
            let v = snap.count("stream", name).unwrap_or(0) as f64;
            run.layer(&format!("stream.{name}"), v);
        }
        run.layer("stream.repair_affected_rows", affected as f64);
    }
    Some(PassPrint {
        repaired,
        rmse_bits: eval.rmse.to_bits(),
        covered: eval.covered,
        live: eval.total,
        rules: engine.rules().len(),
    })
}

pub fn run(run: &mut Run) -> Measured {
    let mut m = Measured::default();
    run.tracer.set_enabled(run.trace);
    let t = Instant::now();
    let ready = setup(run, 0);
    m.setup_s.push(t.elapsed().as_secs_f64());
    let Some((streams, store)) = run.report.op(ready) else {
        return m;
    };

    let mut first: Vec<Option<PassPrint>> = streams.iter().map(|_| None).collect();
    let mut repair_ms = Vec::new();
    let mut op = 0u64;
    let mut passes = 0usize;
    let halves: &[bool] = if run.trace { &[false, true] } else { &[false] };
    for &traced in halves {
        run.tracer.set_enabled(traced);
        let mut clock = run.schedule();
        let mut last_pass_s = 0.0;
        // Only whole passes: start one only if it fits in the time left,
        // except that every stream is replayed at least once.
        while clock.left() >= last_pass_s || first.contains(&None) {
            if !traced && clock.setup_due() {
                let t = Instant::now();
                let rep = setup(run, passes as u64);
                m.setup_s.push(t.elapsed().as_secs_f64());
                run.report.op(rep.map(|_| ()));
            }
            let j = passes % streams.len();
            passes += 1;
            let started = Instant::now();
            let verify = first[j].is_none();
            let sinks = Sinks {
                m: &mut m,
                repair_ms: &mut repair_ms,
                op: &mut op,
            };
            let Some(print) = pass(run, &streams[j], &store, traced, verify, sinks) else {
                break;
            };
            last_pass_s = started.elapsed().as_secs_f64();
            match &first[j] {
                None => first[j] = Some(print),
                Some(f) => run.report.check(*f == print, || {
                    format!("stream {j}: a pass's repaired rules, rho bits or RMSE differ from its first pass")
                }),
            }
        }
    }

    // Quality: each stream's end state, averaged over the streams.
    let ends: Vec<&PassPrint> = first.iter().flatten().collect();
    run.report.check(ends.len() == streams.len(), || {
        format!(
            "only {} of {} streams were replayed",
            ends.len(),
            streams.len()
        )
    });
    let n = ends.len().max(1) as f64;
    m.rmse = ends
        .iter()
        .map(|p| f64::from_bits(p.rmse_bits))
        .sum::<f64>()
        / n;
    m.coverage = ends
        .iter()
        .map(|p| p.covered as f64 / p.live as f64)
        .sum::<f64>()
        / n;
    m.rules = ends.iter().map(|p| p.rules as f64).sum::<f64>() / n;
    let growth: Vec<String> = streams
        .iter()
        .zip(&first)
        .map(|(s, f)| {
            format!(
                "{}->{}",
                s.artifact.rules.len(),
                f.as_ref().map_or(0, |p| p.rules)
            )
        })
        .collect();
    run.report.note("rules_base_to_end", growth.join(" "));
    run.report.note("passes", passes);
    let sorted = crate::report::sorted(repair_ms);
    run.report.note(
        "repair_p50_ms",
        format!(
            "{:.4} (n={})",
            crate::report::quantile(&sorted, 0.5),
            sorted.len()
        ),
    );
    m
}
