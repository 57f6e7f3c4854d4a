//! Lifecycle benchmark for the CRR workspace.
//!
//! `crr-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload for `s` seconds, checks its outputs, prints a table
//! of metrics with units and sample counts, and ends with one JSON line
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the run spends half
//! its time untraced and half traced and prints the per-layer metrics.
//! See `README.md` beside this crate for the workloads and the metric map.

mod discover;
mod host;
mod inputs;
mod maintain;
mod report;
mod serve;
mod trace;

use report::{quantile, sorted, Report, Samples};
use std::time::Instant;
use trace::Tracer;

/// Default `--seed` when none is given.
const DEFAULT_SEED: u64 = 1;

const WORKLOADS: [&str; 4] = [
    "discover-electricity",
    "discover-tax-sharded",
    "serve-mixed",
    "maintain-window",
];

/// The end-to-end metrics every untraced run prints, with units. Op
/// latency is a trimmed mean (the middle 90% of the ops): the host
/// alternates between fast and slow phases lasting seconds, so a run's
/// median jumps between the two modes while a mean moves with the slow
/// share, and trimming keeps rare long stalls out (see README.md).
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("op_trimmed_mean_ms", "ms"),
    ("throughput_per_s", "rows/s"),
    ("rmse", "target"),
    ("coverage", "ratio"),
    ("rules", "count"),
    ("peak_rss_mb", "MiB"),
    ("success_rate", "ratio"),
];

/// The per-layer metrics every traced run prints, with units. A layer a
/// workload never reaches reads 0.
const PER_LAYER: [(&str, &str); 57] = [
    ("data.gen_ms", "ms"),
    ("data.space_ms", "ms"),
    ("data.plan_ms", "ms"),
    ("data.shards", "count"),
    ("data.balance_permille", "permille"),
    ("discovery.search_ms", "ms"),
    ("discovery.compact_ms", "ms"),
    ("discovery.artifact_ms", "ms"),
    ("discovery.artifact_bytes", "bytes"),
    ("discovery.split_selection_ms", "ms"),
    ("discovery.pool_scan_ms", "ms"),
    ("discovery.pred_scan_ms", "ms"),
    ("discovery.fitting_ms", "ms"),
    ("discovery.gram_accumulate_ms", "ms"),
    ("discovery.snapshot_build_ms", "ms"),
    ("discovery.other_ms", "ms"),
    ("discovery.queue_pops", "count"),
    ("discovery.splits", "count"),
    ("discovery.pool_probes", "count"),
    ("discovery.pool_hit_ratio", "ratio"),
    ("discovery.kernel_scan_rows", "count"),
    ("discovery.moments_add_row_ops", "count"),
    ("discovery.cross_pool_probes", "count"),
    ("discovery.cross_pool_hit_ratio", "ratio"),
    ("discovery.steal_assists", "count"),
    ("discovery.merge_fusions", "count"),
    ("discovery.shard_rmse_gap_pct", "%"),
    ("analyze.verify_ms", "ms"),
    ("analyze.unsound_findings", "count"),
    ("core.evaluate_ms", "ms"),
    ("serve.connect_ms", "ms"),
    ("serve.first_byte_ms", "ms"),
    ("serve.read_ms", "ms"),
    ("serve.http_parse_ms", "ms"),
    ("serve.json_decode_ms", "ms"),
    ("serve.index_build_ms", "ms"),
    ("serve.predict_ms", "ms"),
    ("serve.render_ms", "ms"),
    ("serve.other_ms", "ms"),
    ("serve.swap_ms", "ms"),
    ("serve.requests", "count"),
    ("serve.shed", "count"),
    ("serve.timeouts", "count"),
    ("serve.bad_requests", "count"),
    ("serve.swap_accepted", "count"),
    ("stream.append_ms", "ms"),
    ("stream.delete_ms", "ms"),
    ("stream.repair_ms", "ms"),
    ("stream.swap_ms", "ms"),
    ("stream.routed_pairs", "count"),
    ("stream.moments_updates", "count"),
    ("stream.violations", "count"),
    ("stream.drifted_rules", "count"),
    ("stream.repair_affected_rows", "count"),
    ("stream.tracked_rules", "count"),
    ("op.other_ms", "ms"),
    ("obs.trace_overhead_pct", "%"),
];

/// Shared state of one run.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub report: Report,
    /// Per-op samples of per-layer values (traced half only).
    pub layers: Samples,
    pub tracer: Tracer,
}

impl Run {
    /// Length of each measured loop: the whole run untraced, or half of
    /// it for each of the traced run's two halves.
    pub fn loop_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }

    /// The measured loop's clock, with `SETUP_REPS - 1` set-up
    /// re-measurements spread evenly over it.
    pub fn schedule(&self) -> Schedule {
        Schedule {
            start: Instant::now(),
            seconds: self.loop_seconds(),
            done: 0,
        }
    }

    /// Records a per-layer sample under a name from [`PER_LAYER`].
    pub fn layer(&mut self, name: &str, value: f64) {
        let unit = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, u)| u)
            .unwrap_or_else(|| panic!("{name} is not a declared per-layer metric"));
        self.layers.push(name, unit, value);
    }
}

/// A measured loop's clock. Set-up is repeated during the loop rather
/// than back to back, so its samples fall in different host phases.
pub struct Schedule {
    start: Instant,
    seconds: f64,
    done: usize,
}

impl Schedule {
    fn elapsed(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    pub fn running(&self) -> bool {
        self.elapsed() < self.seconds
    }

    /// Seconds left in the loop (never negative).
    pub fn left(&self) -> f64 {
        (self.seconds - self.elapsed()).max(0.0)
    }

    /// Whether the next set-up re-measurement is due.
    pub fn setup_due(&mut self) -> bool {
        let next = (self.done + 1) as f64 * self.seconds / inputs::SETUP_REPS as f64;
        let due = self.done + 1 < inputs::SETUP_REPS && self.elapsed() >= next;
        if due {
            self.done += 1;
        }
        due
    }
}

/// What a workload measured for the end-to-end metrics.
#[derive(Debug, Default)]
pub struct Measured {
    pub setup_s: Vec<f64>,
    /// Untraced op latencies.
    pub op_ms: Vec<f64>,
    /// Traced op latencies (traced run only).
    pub traced_op_ms: Vec<f64>,
    /// Rows the untraced ops processed, and the seconds they took.
    pub rows: f64,
    pub busy_s: f64,
    /// Untraced hot-swap latencies (serve and maintain).
    pub swap_ms: Vec<f64>,
    pub rmse: f64,
    pub coverage: f64,
    pub rules: f64,
}

fn parse_args() -> Result<(String, u64, f64, bool), String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok((workload, seed, seconds, trace))
}

fn main() {
    let (workload, seed, seconds, trace) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("crr-perfbench: {e}");
            eprintln!(
                "usage: crr-perfbench --workload <{}> [--seed n] [--seconds s] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let epoch = Instant::now();
    let mut run = Run {
        seed,
        seconds,
        trace,
        report: Report::default(),
        layers: Samples::default(),
        tracer: Tracer::new(false, epoch),
    };
    let cpu0 = host::cpu_jiffies();
    let measured = match workload.as_str() {
        "discover-electricity" => discover::run(&mut run, inputs::Dataset::Electricity),
        "discover-tax-sharded" => discover::run(&mut run, inputs::Dataset::Tax),
        "serve-mixed" => serve::run(&mut run),
        _ => maintain::run(&mut run),
    };
    let wall = epoch.elapsed().as_secs_f64();
    let steal = host::steal_share(cpu0, host::cpu_jiffies());

    let mut report = std::mem::take(&mut run.report);
    report.note("workload", &workload);
    report.note("seed", seed);
    report.note("trace", u8::from(trace));
    report.note("nproc", host::nproc());
    report.note("wall_s", format!("{wall:.3}"));
    report.note(
        "steal_share",
        steal.map_or("unavailable".to_string(), |s| format!("{s:.4}")),
    );
    let peak = host::peak_rss_mib().unwrap_or(f64::NAN);
    if trace {
        emit_layers(&mut run, &mut report, &measured, &workload);
    } else {
        emit_end_to_end(&mut report, &measured, peak);
    }
    println!("{}", report.table());
    println!("{}", report.json());
    if !report.correct() {
        std::process::exit(1);
    }
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Mean of the middle 90% of `v` (5% dropped from each end).
fn trimmed_mean(v: &[f64]) -> f64 {
    let v = sorted(v.to_vec());
    let cut = v.len() / 20;
    let kept = &v[cut..v.len() - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}

fn emit_end_to_end(report: &mut Report, m: &Measured, peak_rss_mib: f64) {
    let op = sorted(m.op_ms.clone());
    report.check(!op.is_empty(), || "no op was measured".to_string());
    let success = 1.0 - report.failed as f64 / report.attempted.max(1) as f64;
    let values = [
        (quantile(&sorted(m.setup_s.clone()), 0.5), m.setup_s.len()),
        (trimmed_mean(&op), op.len()),
        (m.rows / m.busy_s, op.len()),
        (m.rmse, 1),
        (m.coverage, 1),
        (m.rules, 1),
        (peak_rss_mib, 1),
        (success, report.attempted as usize),
    ];
    for ((name, unit), (value, samples)) in END_TO_END.iter().zip(values) {
        report.put(name, unit, value, samples);
    }
    // Percentiles, printed beside the metrics but not gated: each is
    // shown only where at least ten samples lie beyond it.
    for (name, q) in [("op_p50_ms", 0.5), ("op_p90_ms", 0.9), ("op_p99_ms", 0.99)] {
        if (1.0 - q) * op.len() as f64 >= 10.0 {
            report.note(name, format!("{:.4} (n={})", quantile(&op, q), op.len()));
        }
    }
    if !m.swap_ms.is_empty() {
        let swap = sorted(m.swap_ms.clone());
        let (p50, mean) = (quantile(&swap, 0.5), trimmed_mean(&swap));
        report.note("swap_p50_ms", format!("{p50:.4} (n={})", swap.len()));
        report.note(
            "swap_trimmed_mean_ms",
            format!("{mean:.4} (n={})", swap.len()),
        );
    }
    report.note(
        "error_rate",
        format!("{} / {}", report.failed, report.attempted),
    );
}

fn emit_layers(run: &mut Run, report: &mut Report, m: &Measured, workload: &str) {
    let untraced = trimmed_mean(&m.op_ms);
    let traced = trimmed_mean(&m.traced_op_ms);
    run.layer("obs.trace_overhead_pct", (traced / untraced - 1.0) * 100.0);
    // Span `x` feeds metric `x_ms`; each op's remainder is the op span's
    // self time, the part its layer spans do not cover.
    let own = run.tracer.self_ms();
    let mut samples = Vec::new();
    for (s, o) in run.tracer.spans().iter().zip(own) {
        let metric = format!("{}_ms", s.name);
        if s.name == "op" {
            samples.push(("op.other_ms".to_string(), o));
        } else if PER_LAYER.iter().any(|(n, _)| *n == metric) {
            samples.push((metric, s.ms()));
        }
    }
    for (name, value) in samples {
        run.layer(&name, value);
    }
    let medians = run.layers.medians();
    for (name, unit) in PER_LAYER {
        let (value, samples) = medians
            .iter()
            .find(|mm| mm.name == name)
            .map_or((0.0, 0), |mm| (mm.value, mm.samples));
        report.put(name, unit, value, samples);
    }
    for (name, (count, total, own)) in run.tracer.by_name() {
        report.note(
            &format!("span {name}"),
            format!("n={count} total={total:.3}ms self={own:.3}ms"),
        );
    }
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("trace-{workload}-seed{}.jsonl", run.seed));
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, run.tracer.to_jsonl())) {
        Ok(()) => report.note("spans_written", path.display()),
        Err(e) => report.note("spans_not_written", e),
    }
}
