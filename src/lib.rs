//! # crr — Conditional Regression Rules
//!
//! A full Rust implementation of *"Conditional Regression Rules"*
//! (Kang, Song, Wang — ICDE 2022): regression models that apply
//! conditionally to parts of the data, with model *sharing* across parts
//! via built-in translation predicates, five inference rules, a discovery
//! algorithm and a rule-compaction algorithm.
//!
//! This crate is the facade: it re-exports the workspace's public API so
//! applications depend on one crate. The pieces:
//!
//! * [`data`] — relational substrate (tables, values, CSV);
//! * [`models`] — regression families F1/F2/F3 + translation detection;
//! * [`core`] — predicates, DNF conditions, the [`core::Crr`] rule type,
//!   inference rules and rule sets;
//! * [`discovery`] — Algorithm 1 (search with model sharing) and
//!   Algorithm 2 (compaction), predicate generation, pruning;
//! * [`baselines`] — every comparator of the paper's evaluation;
//! * [`datasets`] — seeded generators for the five evaluation datasets;
//! * [`impute`] — the downstream missing-data imputation application;
//! * [`analyze`] — the static rule-set verifier (soundness checks);
//! * [`serve`] — the hardened rule-serving runtime;
//! * [`stream`] — streaming incremental rule maintenance;
//! * [`linalg`] — the small dense linear-algebra layer underneath.
//!
//! # Quickstart
//!
//! ```
//! use crr::prelude::*;
//!
//! // A mixed distribution: seasonal bird migration, repeating per year.
//! let ds = crr::datasets::birdmap(&GenConfig { rows: 1200, seed: 7 });
//! let table = &ds.table;
//! let date = table.attr("date").unwrap();
//! let lat = table.attr("latitude").unwrap();
//!
//! // Discover CRRs: lat ~ f(date) within rho_max, conditions on date.
//! let space = PredicateGen::binary(15).generate(table, &[date], lat, 1);
//! let cfg = DiscoveryConfig::new(vec![date], lat, 1.0);
//! let found = DiscoverySession::on(table)
//!     .predicates(space)
//!     .config(cfg)
//!     .run()
//!     .unwrap();
//!
//! // Compact with Translation + Fusion (Algorithm 2).
//! let (rules, stats) = compact(&found.rules, 1e-6).unwrap();
//! assert!(rules.len() <= found.rules.len());
//! assert!(stats.rules_out <= stats.rules_in);
//! ```

#![deny(unsafe_code)]

pub use crr_analyze as analyze;
pub use crr_baselines as baselines;
pub use crr_core as core;
pub use crr_data as data;
pub use crr_datasets as datasets;
pub use crr_discovery as discovery;
pub use crr_impute as impute;
pub use crr_linalg as linalg;
pub use crr_models as models;
pub use crr_serve as serve;
pub use crr_stream as stream;

/// The names most applications need, in one import.
pub mod prelude {
    pub use crr_core::{Conjunction, Crr, Dnf, Op, Predicate, RuleSet};
    pub use crr_data::{AttrId, AttrType, RowSet, Schema, Table, Value};
    pub use crr_datasets::{Dataset, GenConfig};
    pub use crr_discovery::{
        compact, DiscoveryConfig, DiscoverySession, PredicateGen, PredicateSpace, QueueOrder,
        ShardSpec, ShardedDiscovery,
    };
    pub use crr_models::{fit_model, FitConfig, Model, ModelKind, Regressor, Translation};
}
