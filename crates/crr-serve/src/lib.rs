//! The CRR serving runtime: rules as a *served* artifact, not a file.
//!
//! The paper positions discovered rule sets as artifacts applications
//! consume online — prediction, imputation, and integrity-constraint
//! violation checking (§II). This crate is that front end: a long-lived,
//! zero-dependency HTTP/1.1 server over `std::net` that loads a compacted
//! [`crr_discovery::RuleSetArtifact`] behind an atomically swappable
//! serving set and answers batched requests through one
//! [`crr_core::CompiledIndex`] per request, over the interval plan the
//! serving set builds once. Robustness is the design center:
//!
//! * **Admission control** ([`RuleStore`]) — a candidate rule set is only
//!   swapped in after the in-process `crr-analyze` verifier passes
//!   (`is_sound()`); rejected swaps are counted and the previous set keeps
//!   serving, so rollback is instant and implicit.
//! * **Per-request deadlines** — requests carry a time budget (reusing the
//!   discovery runtime's [`crr_discovery::Budget`]/
//!   [`crr_discovery::CancelToken`]), and a tripped deadline degrades to a
//!   partial batch answer (`complete: false`), never a hung connection.
//! * **Backpressure** ([`Server`]) — a bounded worker pool sheds load with
//!   `503` + `Retry-After` beyond a configurable in-flight cap, and
//!   shutdown drains admitted requests before stopping.
//! * **Fault harness** ([`ServeFaultPlan`]) — slow handlers, handler
//!   panics and mid-request cancellation are injectable deterministically,
//!   and the integration tests pin that every injected fault degrades to a
//!   well-formed response without poisoning the shared serving set.
//!
//! # Endpoints
//!
//! | method | path          | body                                  |
//! |--------|---------------|---------------------------------------|
//! | GET    | `/health`     | —                                     |
//! | GET    | `/metrics`    | — (live `crr-obs` snapshot, JSON)     |
//! | POST   | `/v1/predict` | `{"rows": [[...]], "deadline_ms": n}` |
//! | POST   | `/v1/impute`  | same; fills null targets              |
//! | POST   | `/v1/check`   | same; all-covering-rules violations   |
//! | POST   | `/admin/swap` | a `crr-artifact v1` text document     |
//!
//! Rows are positional against the artifact's schema. Every response is
//! `Connection: close` JSON.
//!
//! # Example
//!
//! ```
//! use crr_serve::{RuleStore, Server, ServeConfig};
//! use crr_discovery::prelude::*;
//! use crr_discovery::PredicateGen;
//! use crr_data::{AttrType, Schema, Table, Value};
//! use std::sync::Arc;
//!
//! // Discover and export a verifier-ready artifact ...
//! let schema = Schema::new(vec![("x", AttrType::Float), ("y", AttrType::Float)]);
//! let mut table = Table::new(schema);
//! for i in 0..80 {
//!     let x = i as f64;
//!     table.push_row(vec![Value::Float(x), Value::Float(3.0 * x)]).unwrap();
//! }
//! let x = table.attr("x").unwrap();
//! let y = table.attr("y").unwrap();
//! let space = PredicateGen::binary(7).generate(&table, &[x], y, 1);
//! let (_, artifact) = DiscoverySession::on(&table)
//!     .predicates(space)
//!     .config(DiscoveryConfig::new(vec![x], y, 0.5))
//!     .export()
//!     .unwrap();
//!
//! // ... serve it, and query it over loopback.
//! let sink = MetricsSink::enabled();
//! let store = Arc::new(RuleStore::open(artifact, sink).unwrap());
//! let server = Server::start(store, ServeConfig::default()).unwrap();
//! let (status, body) = crr_serve::client::roundtrip(
//!     server.addr(),
//!     "POST",
//!     "/v1/predict",
//!     "{\"rows\": [[2.0, null]]}",
//! ).unwrap();
//! assert_eq!(status, 200);
//! assert!(body.contains("\"predictions\": [6"), "{body}");
//! server.shutdown();
//! ```

#![deny(unsafe_code)]

pub mod client;
pub mod faults;
mod handlers;
pub mod http;
mod server;
mod store;

pub use faults::ServeFaultPlan;
pub use http::{HttpError, HttpLimits, Request, Response};
pub use server::{ServeConfig, Server};
pub use store::{RuleStore, ServingSet, SwapError};

use std::fmt;

/// Crate-wide error type.
#[derive(Debug)]
pub enum ServeError {
    /// A candidate rule set was refused admission.
    Swap(SwapError),
    /// Transport-level failure (bind, accept, write).
    Io(std::io::Error),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Swap(e) => write!(f, "{}", e.reason()),
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// Crate-wide result type.
pub type Result<T> = std::result::Result<T, ServeError>;
