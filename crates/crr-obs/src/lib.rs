//! Structured observability for the CRR runtime (supports the paper's §VI
//! measurements; not itself a paper artifact).
//!
//! The discovery loop, the fit engines and the budget runtime are
//! instrumented against one [`MetricsSink`] — a cloneable handle that is
//! either *disabled* (the default: every recording call is a branch on a
//! `None` and nothing else) or *enabled* (relaxed atomic counters shared by
//! every clone). The instrumented code never reads a metric back, so
//! recording cannot influence queue order, fit results or rule output —
//! the byte-identical regression tests in `crr-discovery` hold with the
//! sink on or off.
//!
//! Three primitive kinds, all preallocated at fixed indices so the hot
//! path never allocates or hashes:
//!
//! * [`Counter`] — monotonically increasing `u64` event counts
//!   (queue pops, pool probe hits, injected faults, …);
//! * [`Gauge`] — last-write-wins `u64` levels (final pool size, fit rows);
//! * [`Phase`] — monotonic wall-time accumulators fed by [`SpanTimer`]s;
//!   a disabled sink never calls `Instant::now`.
//!
//! [`MetricsSink::snapshot`] freezes everything into a hierarchical
//! [`MetricsSnapshot`] (section → name → value) which serializes to JSON
//! via this crate's [`json`] module — the workspace's single hand-rolled
//! JSON writer/reader, also used by `crr-bench` for
//! `BENCH_discovery.json` and `metrics.json` (schemas documented in
//! `EXPERIMENTS.md`).
//!
//! # Example
//!
//! ```
//! use crr_obs::{Counter, MetricsSink, Phase};
//!
//! let sink = MetricsSink::enabled();
//! let t = sink.span();
//! sink.add(Counter::QueuePops, 3);
//! sink.record(Phase::Total, t);
//! let snap = sink.snapshot();
//! assert_eq!(snap.count("queue", "pops"), Some(3));
//! assert!(snap.secs("phases", "total_secs").unwrap() >= 0.0);
//!
//! // The no-op default records nothing and snapshots empty.
//! let off = MetricsSink::disabled();
//! off.add(Counter::QueuePops, 1);
//! assert!(off.snapshot().is_empty());
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
pub mod json;
mod sink;
mod snapshot;

pub use analysis::AnalysisCounters;
pub use sink::{Counter, Gauge, MetricsSink, Phase, SpanTimer};
pub use snapshot::{MetricValue, MetricsSnapshot, Section};
