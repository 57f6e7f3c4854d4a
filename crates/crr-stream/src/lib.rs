//! Streaming incremental maintenance of discovered CRR sets.
//!
//! The paper frames CRRs both as predictive models and as single-tuple
//! integrity constraints over *evolving* relations (§II) — but Algorithm 1
//! is a batch learner. This crate closes the gap: a [`StreamEngine`] owns
//! a discovered rule set plus the live relation and maintains both under
//! append/delete batches without rediscovery, following the maintenance
//! contract documented in DESIGN.md §13:
//!
//! 1. **Route** — every changed row is pushed through
//!    [`crr_core::CompiledIndex::covering`] over the rule set's
//!    [`crr_core::index::IntervalPlan`] (built once per rule-set version)
//!    to find, for *every* rule, the first conjunction whose condition
//!    claims it (not just the first rule: each covering rule's bias bound
//!    is a separate obligation). The monitor predicts with
//!    [`crr_core::Crr::predict_at`] under the matched conjunct. An
//!    appended row no rule covers stays uncovered, as at build time.
//! 2. **Delta** — each covering conjunction's partition statistics
//!    ([`crr_models::Moments`]) absorb the change exactly:
//!    `Moments::add_rows` on append, `Moments::subtract` on delete —
//!    O(d²) per row, never a partition rescan.
//! 3. **Monitor** — appended rows are residual-checked against every
//!    covering rule at write time (the CRR-as-integrity-constraint view);
//!    a residual beyond `ρ` plus a fixed `1e-6` tolerance flags the rule
//!    *drifted*. The maintained statistics also re-derive each
//!    partition's residual bias (`Moments::residual_rms`), catching
//!    aggregate drift the per-row monitor tolerated.
//! 4. **Repair** — [`StreamEngine::repair`] re-runs Algorithm 1 *only* on
//!    the rows claimed by drifted rules, confines what it learns to the
//!    drifted conjunct it learned it in, keeps every healthy rule
//!    untouched, re-merges with Algorithm 2 (`compact_on_data`), and
//!    emits a fresh [`crr_discovery::RuleSetArtifact`] ready for the
//!    `crr-analyze` admission gate and a `crr-serve` hot swap. Repaired
//!    artifacts are *proof-carrying*: they bundle [`RepairObligations`]
//!    (the kept-rule count plus each drifted region's guard predicates
//!    and provenance), which the verifier's A7 check re-proves row-free —
//!    a splice that over- or under-claims its regions is rejected at the
//!    swap gate.
//!
//! Everything is observable through the `stream.*` counters and gauges of
//! [`crr_obs`] (metrics schema v9), and the whole loop is benchmarked in
//! `BENCH_stream.json` (schema `crr-stream-v1`): incremental maintenance
//! of an appended Electricity slice against full rediscovery.
//!
//! # Example
//!
//! ```
//! use crr_data::{AttrType, Schema, Table, Value};
//! use crr_discovery::{DiscoveryConfig, PredicateGen};
//! use crr_discovery::prelude::*;
//! use crr_stream::{StreamConfig, StreamEngine};
//!
//! // Discover on an initial relation ...
//! let schema = Schema::new(vec![("x", AttrType::Float), ("y", AttrType::Float)]);
//! let mut table = Table::new(schema);
//! for i in 0..120 {
//!     let x = i as f64;
//!     table.push_row(vec![Value::Float(x), Value::Float(2.0 * x)]).unwrap();
//! }
//! let (x, y) = (table.attr("x").unwrap(), table.attr("y").unwrap());
//! let space = PredicateGen::binary(7).generate(&table, &[x], y, 1);
//! let cfg = DiscoveryConfig::new(vec![x], y, 0.25);
//! let discovered = DiscoverySession::on(&table)
//!     .predicates(space.clone())
//!     .config(cfg.clone())
//!     .run()
//!     .unwrap();
//!
//! // ... then maintain it under appends.
//! let mut engine =
//!     StreamEngine::new(table, discovered.rules, cfg, space, StreamConfig::default()).unwrap();
//! let batch: Vec<Vec<Value>> = (120..140)
//!     .map(|i| vec![Value::Float(i as f64), Value::Float(2.0 * i as f64)])
//!     .collect();
//! let out = engine.append(&batch).unwrap();
//! assert_eq!(out.appended, 20);
//! assert!(!engine.needs_repair(), "in-distribution appends do not drift");
//! let artifact = engine.artifact().unwrap(); // swap-ready at any time
//! assert!(artifact.rules.len() > 0);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod engine;

pub use engine::{
    BatchOutcome, DriftReport, RepairReport, StreamConfig, StreamEngine, StreamError,
};
// The obligation types repaired artifacts carry, re-exported so stream
// consumers need not depend on `crr-discovery` directly.
pub use crr_discovery::{RepairObligations, RepairRegion};

/// Crate-level result alias.
pub type Result<T> = std::result::Result<T, StreamError>;
