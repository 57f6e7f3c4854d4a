//! CRR discovery — the paper's §V.
//!
//! The front door is [`DiscoverySession`]: a builder owning the table,
//! rows, predicate space, config, budget, metrics sink and shard spec.
//! Two phases underneath, matching the paper's two algorithms:
//!
//! 1. **Searching with model sharing** (Algorithm 1): a
//!    top-down refinement over conjunctions, kept in a priority queue
//!    ordered by the *sharing index* `ind(C)` — the estimated probability
//!    that an already-trained model fits the partition. Before training
//!    anything on a partition `D_C`, the algorithm tries every model in the
//!    shared pool `ℱ` with an output shift `δ₀ = (max r + min r)/2`
//!    (Proposition 6); only when no model fits within `ρ_M` is a new model
//!    trained, and only when that also fails is the condition split.
//!
//! 2. **Compaction with inference** ([`compact`], Algorithm 2): rules whose
//!    models are translations of one another (`f₂(X) = f₁(X + Δ) + δ`,
//!    Proposition 5) are rewritten onto one representative model
//!    (built-ins composed per Proposition 9), then rules with the same
//!    model are merged by Generalization + Fusion into a single rule with a
//!    DNF condition.
//!
//! Supporting pieces: predicate generation in the three styles of
//! Table III ([`predicates`]), queue-ordering strategies of Table IV
//! ([`QueueOrder`]), χ²-based condition post-pruning (the paper's §VII
//! future-work note, [`pruning`]) and multi-target parallel discovery
//! ([`parallel`]).
//!
//! The runtime is *budgeted and fault-tolerant*: a [`Budget`] (wall-clock
//! deadline, expansion cap, fit cap) and a [`CancelToken`] are observed at
//! each queue pop, and a tripped limit degrades gracefully — still-queued
//! partitions are covered with constant fallbacks so Problem 1's coverage
//! guarantee survives, and the result is tagged with a
//! [`DiscoveryOutcome`]. Panicking fits are isolated per task in
//! [`DiscoverySession::run_all`], and the [`faults`] module injects
//! failures deterministically to prove every degradation path under test.
//!
//! Large instances can be *sharded* ([`sharded`], [`crr_data::ShardSpec`]):
//! a typed spec — `ShardSpec::by_key(attr).quantile().shards(4)`, or
//! `.auto()` to let the cost-based planner pick the count — is resolved
//! into balanced shards; Algorithm 1 runs per shard — concurrently,
//! largest shards first, probing a frozen cross-shard model pool published
//! by the seed shard, with idle workers stolen to fan a straggler's probe
//! scans — and per-shard rule sets are merged by Algorithm 2, with
//! per-shard sufficient statistics combined instead of refit.
//!
//! Every run can be *observed*: attach a [`MetricsSink`] (from the
//! zero-dependency `crr-obs` crate) via [`DiscoveryConfig::with_metrics`]
//! and the run freezes a [`MetricsSnapshot`] of queue, pool, fit-engine,
//! budget and fault counters plus per-phase wall time into
//! [`Discovery::metrics`]. Recording is write-only — instrumented runs
//! produce byte-identical rule sets — and the no-op default sink costs one
//! branch per event.
//!
//! # Example
//!
//! ```
//! use crr_datasets::{tax, GenConfig};
//! use crr_discovery::prelude::*;
//! use crr_discovery::PredicateGen;
//!
//! let ds = tax(&GenConfig { rows: 400, seed: 1 });
//! let target = ds.table.attr("tax").unwrap();
//! let salary = ds.table.attr("salary").unwrap();
//! let state = ds.table.attr("state").unwrap();
//! let space = PredicateGen::binary(8).generate(&ds.table, &[salary, state], target, 7);
//! let cfg = DiscoveryConfig::new(vec![salary], target, 2.0);
//! let result = DiscoverySession::on(&ds.table)
//!     .predicates(space)
//!     .config(cfg)
//!     .run()
//!     .unwrap();
//! // Every tuple is covered (Problem 1) ...
//! assert!(result.rules.uncovered(&ds.table, &ds.table.all_rows()).is_empty());
//! // ... by fewer distinct shared models than rules.
//! assert!(result.rules.num_distinct_models() <= result.rules.len());
//! ```
//!
//! # Example: a budgeted, metered run
//!
//! ```
//! use crr_datasets::{tax, GenConfig};
//! use crr_discovery::prelude::*;
//! use crr_discovery::PredicateGen;
//!
//! let ds = tax(&GenConfig { rows: 400, seed: 1 });
//! let target = ds.table.attr("tax").unwrap();
//! let salary = ds.table.attr("salary").unwrap();
//! let state = ds.table.attr("state").unwrap();
//! let space = PredicateGen::binary(8).generate(&ds.table, &[salary, state], target, 7);
//!
//! let sink = MetricsSink::enabled();
//! let cfg = DiscoveryConfig::new(vec![salary], target, 2.0);
//! let result = DiscoverySession::on(&ds.table)
//!     .predicates(space)
//!     .config(cfg)
//!     .budget(Budget::unlimited().with_max_fits(500))
//!     .metrics(sink.clone())
//!     .run()
//!     .unwrap();
//!
//! // The frozen snapshot travels with the result ...
//! let m = &result.metrics;
//! assert_eq!(m.count("queue", "pops"), Some(result.stats.partitions_explored as u64));
//! // ... every trained model came from a moments solve or a fallback:
//! // the linear family never re-reads partition rows to fit ...
//! assert_eq!(m.count("fits", "rescans"), Some(0));
//! // ... and it serializes to JSON without serde.
//! assert!(m.to_json(0).contains("\"pool\""));
//! # assert!(result.outcome.is_complete());
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
mod budget;
mod compaction;
mod config;
mod error;
pub mod faults;
pub mod parallel;
pub mod predicates;
pub mod pruning;
mod search;
mod session;
pub mod sharded;

pub use artifact::{RegionOrigin, RepairObligations, RepairRegion, RuleSetArtifact};
pub use budget::{Budget, CancelToken, DiscoveryOutcome};
pub use compaction::{compact, compact_on_data, CompactionStats};
pub use config::{DiscoveryConfig, QueueOrder, SplitStrategy};
pub use error::DiscoveryError;
pub use faults::{inject_dirty_cells, FaultPlan};
pub use parallel::Task;
pub use predicates::{PredicateGen, PredicateSpace};
pub use search::{Discovery, DiscoveryStats};
pub use session::DiscoverySession;
pub use sharded::{
    guard_predicates, PlanBoundary, ProofObligations, ShardGuard, ShardOutcome, ShardedDiscovery,
};
// Shard specs live in crr-data (they cut tables, not searches); re-exported
// so sharded sessions need only this crate. `ShardPlan` stays exported as
// the planner's output type (`ShardSpec` is the only way to build one).
pub use crr_data::{
    balance_permille, Boundary, PlannerCost, Shard, ShardBounds, ShardCount, ShardPlan, ShardSpec,
};
// Observability surface, re-exported so callers configuring a metered run
// need only this crate.
pub use crr_obs::{MetricsSink, MetricsSnapshot};

/// The session-first import surface: everything a typical discovery run
/// touches, one `use crr_discovery::prelude::*;` away.
pub mod prelude {
    pub use crate::artifact::RuleSetArtifact;
    pub use crate::budget::{Budget, CancelToken, DiscoveryOutcome};
    pub use crate::config::{DiscoveryConfig, QueueOrder, SplitStrategy};
    pub use crate::error::DiscoveryError;
    pub use crate::faults::FaultPlan;
    pub use crate::session::DiscoverySession;
    pub use crate::sharded::{ShardOutcome, ShardedDiscovery};
    pub use crr_data::{Boundary, ShardCount, ShardSpec};
    pub use crr_obs::{MetricsSink, MetricsSnapshot};
}

/// Crate-wide result type.
pub type Result<T> = std::result::Result<T, DiscoveryError>;
