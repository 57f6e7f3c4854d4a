//! The [`MetricsSink`] handle and its fixed metric registries.
//!
//! Every metric has a compile-time index into a preallocated atomic array,
//! so recording is a `None` check plus (when enabled) one relaxed
//! `fetch_add` — no allocation, no hashing, no locking. The enums below
//! are the single source of truth for the snapshot schema: a counter
//! added here appears in every enabled [`crate::MetricsSnapshot`]
//! automatically, and `EXPERIMENTS.md` documents each entry's meaning.

use crate::snapshot::{MetricValue, MetricsSnapshot, Section};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Macro-free metric registry: each enum lists `(variant, section, name)`
/// rows in the order they appear in snapshots.
macro_rules! metric_enum {
    ($(#[$doc:meta])* $vis:vis enum $ty:ident { $($(#[$vdoc:meta])* $variant:ident => ($section:literal, $name:literal),)+ }) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(usize)]
        $vis enum $ty {
            $($(#[$vdoc])* $variant,)+
        }

        impl $ty {
            /// Every variant, in snapshot order.
            pub const ALL: &'static [$ty] = &[$($ty::$variant,)+];

            /// Number of variants (array sizes).
            pub const COUNT: usize = $ty::ALL.len();

            /// Snapshot section this metric belongs to.
            pub const fn section(self) -> &'static str {
                match self { $($ty::$variant => $section,)+ }
            }

            /// Key within the section.
            pub const fn name(self) -> &'static str {
                match self { $($ty::$variant => $name,)+ }
            }
        }
    };
}

metric_enum! {
    /// Monotonic event counters recorded by the instrumented runtime.
    pub enum Counter {
        /// Conjunctions popped off Algorithm 1's priority queue.
        QueuePops => ("queue", "pops"),
        /// Entries pushed onto the queue (the root plus split children).
        QueuePushes => ("queue", "pushes"),
        /// Partitions split into two children (Algorithm 1 lines 19–22).
        Splits => ("queue", "splits"),
        /// Rules accepted with bias above ρ_M to preserve coverage.
        ForcedAccepts => ("queue", "forced_accepts"),
        /// Rules appended to the output rule set (all paths).
        RulesEmitted => ("queue", "rules_emitted"),
        /// Pops at which the shared pool was scanned at all.
        PoolScans => ("pool", "scans"),
        /// Individual model probes charged against the run, up to and
        /// including the first fit.
        PoolProbes => ("pool", "probes"),
        /// Scans that found a pooled model within ρ_M (rule reuse).
        PoolHits => ("pool", "hits"),
        /// Scans that probed the whole pool without a hit.
        PoolMisses => ("pool", "misses"),
        /// Local-pool misses whose within-ρ_M count was skipped: a
        /// queue order that never reads ind(C) (`QueueOrder::Random`)
        /// leaves every miss uncounted, so this stays 0 under the
        /// default order. A hit needs no count.
        PoolShortCircuits => ("pool", "short_circuits"),
        /// Fits solved from cached sufficient statistics (Cholesky on the
        /// augmented Gram matrix).
        MomentsSolves => ("fits", "moments_solves"),
        /// Fits from re-materialized partition rows: the MLP family, which
        /// has no sufficient statistics (and runs with no input attributes).
        Rescans => ("fits", "rescans"),
        /// Moments solves that declined (singular normal equations or the
        /// VC guard) and fell back to the midrange constant.
        DeclinedSingular => ("fits", "declined_singular"),
        /// Trained models that came out linear (F1).
        FitLinear => ("fits", "linear"),
        /// Trained models that came out ridge (F2).
        FitRidge => ("fits", "ridge"),
        /// Trained models that came out MLP (F3).
        FitMlp => ("fits", "mlp"),
        /// Trained models that came out constant (fallbacks).
        FitConstant => ("fits", "constant"),
        /// `Moments::add_row` invocations (row accumulations).
        MomentsAddRowOps => ("moments", "add_row_ops"),
        /// `Moments::subtract` invocations (sibling derivations).
        MomentsSubtractOps => ("moments", "subtract_ops"),
        /// `Moments::merge` invocations (sharded discovery combines
        /// per-shard root statistics instead of refitting).
        MomentsMergeOps => ("moments", "merge_ops"),
        /// Splits where the larger child was derived by parent − sibling.
        SiblingSubtractions => ("moments", "sibling_subtractions"),
        /// Smaller children re-accumulated row by row at a split.
        ChildReaccumulations => ("moments", "child_reaccumulations"),
        /// Splits where rows fell off both sides (null condition cell) and
        /// both children were rebuilt from scratch.
        FullRebuilds => ("moments", "full_rebuilds"),
        /// Budget/cancellation checks executed at queue pops.
        BudgetChecks => ("budget", "checks"),
        /// Runs stopped by the wall-clock deadline.
        DeadlineTrips => ("budget", "deadline_trips"),
        /// Runs stopped by the expansion or fit cap.
        ExhaustionTrips => ("budget", "exhaustion_trips"),
        /// Runs stopped by a cancellation token.
        Cancellations => ("budget", "cancellations"),
        /// Still-queued partitions covered with constant fallbacks when a
        /// budget tripped.
        DrainedPartitions => ("budget", "drained_partitions"),
        /// Rows covered by drained-partition fallback rules.
        DrainedRows => ("budget", "drained_rows"),
        /// Injected fit failures surfaced as typed errors
        /// (`DiscoveryError::InjectedFault`).
        InjectedFailures => ("faults", "injected_failures"),
        /// Panics caught and isolated by the parallel multi-target runner.
        TaskPanics => ("faults", "task_panics"),
        /// Shards whose Algorithm 1 run completed (including degraded
        /// shards — every planned shard is eventually run or drained).
        ShardsRun => ("shards", "run"),
        /// Shards whose run failed (error or panic) and degraded to
        /// constant fallback rules instead of aborting siblings.
        ShardsFailed => ("shards", "failed"),
        /// Cross-shard pool consultations: one per complete local-pool
        /// miss in a non-seed shard, when a frozen pool is present.
        CrossShardPoolProbes => ("shards", "cross_pool_probes"),
        /// Cross-shard consultations that found a frozen model within
        /// ρ_M (the model is adopted into the shard's local pool).
        CrossShardPoolHits => ("shards", "cross_pool_hits"),
        /// Cross-shard consultations that scanned the whole frozen pool
        /// without a hit. Hits + misses == probes, always.
        CrossShardPoolMisses => ("shards", "cross_pool_misses"),
        /// Adaptive plans resolved with quantile (equal-frequency)
        /// boundaries.
        PlanQuantile => ("shards", "plan_quantile"),
        /// Plans resolved with equal-width boundaries.
        PlanEqualWidth => ("shards", "plan_equal_width"),
        /// Plans whose shard count came from the cost model rather than
        /// the caller.
        PlanAutoK => ("shards", "plan_auto_k"),
        /// Translation rewrites applied while merging per-shard rule
        /// sets with Algorithm 2.
        MergeTranslations => ("shards", "merge_translations"),
        /// Generalization+Fusion merges applied across shard rule sets
        /// by Algorithm 2.
        MergeFusions => ("shards", "merge_fusions"),
        /// HTTP requests admitted into the serving worker pool (everything
        /// past the shed check, whatever status it eventually gets).
        ServeRequests => ("serve", "requests"),
        /// Individual rows answered by batched predict/impute handlers.
        ServePredictions => ("serve", "predictions"),
        /// Rows inspected by the violation-check handler.
        ServeChecks => ("serve", "checks"),
        /// Connections refused with `503` + `Retry-After` because the
        /// in-flight cap was reached (load shedding).
        ServeShed => ("serve", "shed"),
        /// Requests whose per-request deadline tripped mid-batch; the
        /// response carries the partial prefix with `complete: false`.
        ServeTimeouts => ("serve", "timeouts"),
        /// Requests cut short by a cancellation token (shutdown drain or
        /// injected mid-request cancel).
        ServeCancelled => ("serve", "cancelled"),
        /// Malformed requests answered with a well-formed `4xx` (torn
        /// headers, bad content-lengths, unparseable bodies).
        ServeBadRequests => ("serve", "bad_requests"),
        /// Handler panics caught by the per-connection isolation barrier
        /// and converted into `500` responses.
        ServeHandlerPanics => ("serve", "handler_panics"),
        /// Candidate rule sets swapped in after passing the `crr-analyze`
        /// admission gate.
        ServeSwapAccepted => ("serve", "swap_accepted"),
        /// Candidate rule sets rejected by the admission gate (parse
        /// failure, schema mismatch, or unsound analysis); the previous
        /// set keeps serving.
        ServeSwapRejected => ("serve", "swap_rejected"),
        /// Artificial handler delays injected by the server fault plan.
        ServeInjectedSlow => ("serve", "injected_slow"),
        /// Delta batches (appends or deletes) applied by the streaming
        /// maintainer.
        StreamBatches => ("stream", "batches"),
        /// Rows appended through the streaming maintainer.
        StreamAppendRows => ("stream", "append_rows"),
        /// Rows deleted (tombstoned) through the streaming maintainer.
        StreamDeleteRows => ("stream", "delete_rows"),
        /// `(row, rule-conjunction)` coverage pairs routed through the
        /// interval index by delta batches.
        StreamRoutedPairs => ("stream", "routed_pairs"),
        /// Appended rows no rule condition covers. They stay uncovered,
        /// as rows discovery cannot cover do at build time.
        StreamUncoveredRows => ("stream", "uncovered_rows"),
        /// Partition-statistics updates: `Moments::add_rows` batches on
        /// append plus `Moments::subtract` calls on delete.
        StreamMomentsUpdates => ("stream", "moments_updates"),
        /// Write-time monitor hits: appended rows whose residual exceeded
        /// a covering rule's `ρ` plus the drift tolerance.
        StreamViolations => ("stream", "violations"),
        /// Rules newly flagged drifted (by the monitor or by the
        /// moments-recomputed residual bias).
        StreamDriftedRules => ("stream", "drifted_rules"),
        /// Repairs run: Algorithm 1 on the affected partitions only,
        /// re-merged with the kept rules by Algorithm 2.
        StreamRepairs => ("stream", "repairs"),
        /// Rules discovered by repair runs (before the re-merge).
        StreamRepairedRules => ("stream", "repaired_rules"),
        /// Conjunction evaluations answered by the compiled columnar
        /// kernels (selection-vector or bitmask scans).
        KernelCompiledScans => ("kernels", "compiled_scans"),
        /// Candidate rows pushed through predicate scans.
        KernelScanRows => ("kernels", "scan_rows"),
        /// `Moments::add_rows` batch accumulations (each replaces
        /// `rows` row-at-a-time `add_row` calls).
        KernelBatchAccumulates => ("kernels", "batch_accumulates"),
    }
}

metric_enum! {
    /// Last-write-wins levels describing the finished run.
    pub enum Gauge {
        /// Models in the shared pool ℱ when the run ended.
        PoolModels => ("run", "pool_models"),
        /// Fit-ready rows of the root partition (snapshot readiness mask).
        FitRows => ("run", "fit_rows"),
        /// Input attributes `d` of the run.
        InputDims => ("run", "input_dims"),
        /// Non-empty shards the shard plan produced for the run.
        ShardsPlanned => ("run", "shards"),
        /// Row balance of the resolved partition's interval shards, in
        /// permille: `min(rows)/max(rows) × 1000` (1000 = perfectly
        /// balanced; single-shard and degenerate plans report 1000).
        ShardBalancePermille => ("shards", "balance_permille"),
        /// Requests currently admitted and not yet answered (serving).
        ServeInFlight => ("serve", "in_flight"),
        /// Generation of the rule set currently behind the swap pointer;
        /// increments on every accepted swap.
        ServeGeneration => ("serve", "generation"),
        /// Rules in the currently-served set.
        ServeRules => ("serve", "rules"),
        /// Live (non-tombstoned) rows in the streaming maintainer's
        /// relation.
        StreamLiveRows => ("stream", "live_rows"),
        /// Rules the streaming maintainer currently tracks statistics for.
        StreamTrackedRules => ("stream", "tracked_rules"),
        /// Worst drift ratio across tracked rules, in permille: the
        /// moments-recomputed residual bias over the rule's declared `ρ`,
        /// ×1000 (so 1000 = exactly at the bound). Last write wins.
        StreamMaxDriftPermille => ("stream", "max_drift_permille"),
        /// Rules currently flagged drifted and awaiting repair.
        StreamDriftedNow => ("stream", "drifted_now"),
    }
}

metric_enum! {
    /// Wall-time accumulators; snapshots render them as `<name>_secs`.
    pub enum Phase {
        /// Building the run's columnar `NumericSnapshot`, the root's
        /// fit-ready rows and the global fallback constant. The root
        /// moments are `GramAccumulate` time: no two discovery phases
        /// overlap, so their sum never counts a span twice.
        SnapshotBuild => ("phases", "snapshot_build"),
        /// Shared-pool probing (Algorithm 1 lines 7–10, local and
        /// cross-shard pools) plus each pop's gather of its fit rows into
        /// the dense view every probe reads, all pops summed.
        PoolScan => ("phases", "pool_scan"),
        /// Model training (line 13) plus the residual pass that measures
        /// the new model's ρ (line 14), all pops summed.
        Fitting => ("phases", "fitting"),
        /// Split-predicate selection (line 19), all pops summed, plus the
        /// run's once-per-run split scratch: the compiled predicate
        /// shapes and every run row's rank codes.
        SplitSelection => ("phases", "split_selection"),
        /// Predicate scans materializing split row sets (line 20's
        /// `D_C∧p` / `D_C∧¬p` selections) and the children's fit-ready
        /// row lists, all splits summed.
        PredScan => ("phases", "pred_scan"),
        /// Gram accumulation over gathered column slices (root build and
        /// child re-accumulations), all batches summed.
        GramAccumulate => ("phases", "gram_accumulate"),
        /// Draining queued partitions into fallbacks after a budget trip.
        Drain => ("phases", "drain"),
        /// Applying streaming delta batches: routing + moments updates +
        /// the write-time monitor, all batches summed.
        StreamApply => ("phases", "stream_apply"),
        /// Streaming repairs: partition-scoped Algorithm 1 plus the
        /// Algorithm 2 re-merge and state rebuild, all repairs summed.
        StreamRepair => ("phases", "stream_repair"),
        /// Whole `discover` call, entry to return.
        Total => ("phases", "total"),
    }
}

/// Shared atomic storage behind an enabled sink.
struct Registry {
    counters: [AtomicU64; Counter::COUNT],
    gauges: [AtomicU64; Gauge::COUNT],
    /// Accumulated nanoseconds per phase.
    spans: [AtomicU64; Phase::COUNT],
}

/// A cloneable recording handle, threaded through the runtime via
/// `DiscoveryConfig`. The no-op default ([`MetricsSink::disabled`])
/// carries no storage: every recording call checks one `Option` and
/// returns, and [`MetricsSink::span`] never reads the clock — measured at
/// well under 2% of discovery wall time (see `perf_obs_overhead`).
///
/// Clones share storage, so one sink can aggregate a whole run — or
/// several, if reused; snapshot between runs for per-run numbers.
#[derive(Clone, Default)]
pub struct MetricsSink {
    inner: Option<Arc<Registry>>,
}

impl std::fmt::Debug for MetricsSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsSink")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

/// A started wall-time measurement, finished by [`MetricsSink::record`].
/// Holds no clock reading when the sink that issued it was disabled.
#[must_use = "a span only measures if it is passed back to MetricsSink::record"]
pub struct SpanTimer(Option<Instant>);

impl MetricsSink {
    /// The no-op default: records nothing, snapshots empty.
    pub const fn disabled() -> Self {
        MetricsSink { inner: None }
    }

    /// A recording sink with fresh, zeroed storage.
    pub fn enabled() -> Self {
        MetricsSink {
            inner: Some(Arc::new(Registry {
                counters: std::array::from_fn(|_| AtomicU64::new(0)),
                gauges: std::array::from_fn(|_| AtomicU64::new(0)),
                spans: std::array::from_fn(|_| AtomicU64::new(0)),
            })),
        }
    }

    /// Whether this sink records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(&self, c: Counter, n: u64) {
        if let Some(r) = &self.inner {
            r.counters[c as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds 1 to a counter.
    #[inline]
    pub fn incr(&self, c: Counter) {
        self.add(c, 1);
    }

    /// Sets a gauge to `v` (last write wins).
    #[inline]
    pub fn set_gauge(&self, g: Gauge, v: u64) {
        if let Some(r) = &self.inner {
            r.gauges[g as usize].store(v, Ordering::Relaxed);
        }
    }

    /// Starts a wall-time span. Disabled sinks hand back an inert timer
    /// without touching the clock.
    #[inline]
    pub fn span(&self) -> SpanTimer {
        SpanTimer(self.inner.as_ref().map(|_| Instant::now()))
    }

    /// Adds the elapsed time of `t` to a phase accumulator.
    #[inline]
    pub fn record(&self, p: Phase, t: SpanTimer) {
        if let (Some(r), Some(start)) = (&self.inner, t.0) {
            let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            r.spans[p as usize].fetch_add(nanos, Ordering::Relaxed);
        }
    }

    /// Freezes the current values into a hierarchical snapshot. A disabled
    /// sink yields an empty snapshot; an enabled one yields every metric of
    /// the schema, zeros included, so consumers see a stable shape.
    ///
    /// # Concurrency
    ///
    /// Safe to call at any time, concurrently with live recording from any
    /// number of threads — this is what a `/metrics` endpoint does while
    /// request handlers are still incrementing. Each metric is read with a
    /// single relaxed atomic load, which gives per-metric (not cross-metric)
    /// consistency:
    ///
    /// * every value is a real value the metric held at some point during
    ///   the snapshot — never torn, never out of thin air;
    /// * each counter is monotone across successive snapshots of the same
    ///   sink (counters only ever `fetch_add`);
    /// * values of *different* metrics may be skewed relative to each other
    ///   by writes that raced the snapshot, so cross-metric invariants
    ///   (e.g. `hits + misses == probes`) are only guaranteed once the
    ///   recording side has quiesced. Validators that enforce such
    ///   invariants must run on post-run snapshots, as `crr-bench` does.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let Some(r) = &self.inner else {
            return MetricsSnapshot::default();
        };
        let mut sections: Vec<Section> = Vec::new();
        let mut put = |section: &'static str, name: String, value: MetricValue| match sections
            .iter_mut()
            .find(|s| s.name == section)
        {
            Some(s) => s.entries.push((name, value)),
            None => sections.push(Section {
                name: section.to_string(),
                entries: vec![(name, value)],
            }),
        };
        for &c in Counter::ALL {
            let v = r.counters[c as usize].load(Ordering::Relaxed);
            put(c.section(), c.name().to_string(), MetricValue::Count(v));
        }
        for &g in Gauge::ALL {
            let v = r.gauges[g as usize].load(Ordering::Relaxed);
            put(g.section(), g.name().to_string(), MetricValue::Gauge(v));
        }
        for &p in Phase::ALL {
            let nanos = r.spans[p as usize].load(Ordering::Relaxed);
            put(
                p.section(),
                format!("{}_secs", p.name()),
                MetricValue::Secs(nanos as f64 / 1e9),
            );
        }
        MetricsSnapshot { sections }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_is_inert() {
        let sink = MetricsSink::disabled();
        assert!(!sink.is_enabled());
        sink.incr(Counter::QueuePops);
        sink.set_gauge(Gauge::PoolModels, 9);
        let t = sink.span();
        sink.record(Phase::Total, t);
        assert!(sink.snapshot().is_empty());
    }

    #[test]
    fn default_is_disabled() {
        assert!(!MetricsSink::default().is_enabled());
    }

    #[test]
    fn counters_accumulate_across_clones() {
        let sink = MetricsSink::enabled();
        let other = sink.clone();
        sink.add(Counter::PoolProbes, 2);
        other.add(Counter::PoolProbes, 3);
        assert_eq!(sink.snapshot().count("pool", "probes"), Some(5));
    }

    #[test]
    fn gauges_are_last_write_wins() {
        let sink = MetricsSink::enabled();
        sink.set_gauge(Gauge::FitRows, 10);
        sink.set_gauge(Gauge::FitRows, 7);
        assert_eq!(sink.snapshot().count("run", "fit_rows"), Some(7));
    }

    #[test]
    fn spans_accumulate_elapsed_time() {
        let sink = MetricsSink::enabled();
        for _ in 0..2 {
            let t = sink.span();
            std::thread::sleep(std::time::Duration::from_millis(2));
            sink.record(Phase::Fitting, t);
        }
        let secs = sink.snapshot().secs("phases", "fitting_secs").unwrap();
        assert!(secs >= 0.004, "accumulated {secs}");
    }

    #[test]
    fn enabled_snapshot_has_the_full_schema() {
        let snap = MetricsSink::enabled().snapshot();
        for &c in Counter::ALL {
            assert_eq!(snap.count(c.section(), c.name()), Some(0));
        }
        for &p in Phase::ALL {
            let key = format!("{}_secs", p.name());
            assert_eq!(snap.secs(p.section(), &key), Some(0.0));
        }
    }

    /// Satellite check for the `/metrics` endpoint: snapshots taken while
    /// writer threads are live must be well-formed (never torn), counters
    /// must be monotone across successive snapshots, and the final
    /// post-quiesce snapshot must account for every recorded increment.
    #[test]
    fn snapshot_is_safe_and_monotone_under_concurrent_updates() {
        let sink = MetricsSink::enabled();
        const WRITERS: usize = 4;
        const INCRS: u64 = 20_000;
        let mut handles = Vec::new();
        for _ in 0..WRITERS {
            let s = sink.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..INCRS {
                    s.incr(Counter::ServeRequests);
                    s.incr(Counter::ServePredictions);
                    s.set_gauge(Gauge::ServeInFlight, i);
                }
            }));
        }
        let mut last = 0u64;
        for _ in 0..200 {
            let snap = sink.snapshot();
            let v = snap.count("serve", "requests").unwrap_or(0);
            assert!(v >= last, "counter went backwards: {v} < {last}");
            assert!(v <= WRITERS as u64 * INCRS, "counter out of thin air: {v}");
            // The snapshot shape is complete even mid-flight.
            assert!(snap.count("serve", "in_flight").is_some());
            last = v;
        }
        for h in handles {
            h.join().expect("writer thread");
        }
        let settled = sink.snapshot();
        assert_eq!(
            settled.count("serve", "requests"),
            Some(WRITERS as u64 * INCRS),
            "post-quiesce snapshot accounts for every increment"
        );
        assert_eq!(
            settled.count("serve", "predictions"),
            Some(WRITERS as u64 * INCRS)
        );
    }

    #[test]
    fn metric_names_are_unique_within_sections() {
        let mut seen: Vec<(&str, &str)> = Vec::new();
        for &c in Counter::ALL {
            seen.push((c.section(), c.name()));
        }
        for &g in Gauge::ALL {
            seen.push((g.section(), g.name()));
        }
        let n = seen.len();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), n, "duplicate (section, name) pair");
    }
}
