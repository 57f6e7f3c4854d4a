//! Relational substrate for conditional regression rules.
//!
//! CRRs are defined over a relational database `D` of schema
//! `R(A_1, …, A_n)` (paper §III-A). This crate provides that substrate:
//!
//! * [`Value`] — a typed cell (integer, float, dictionary-encoded string, or
//!   null), with the comparison semantics predicates need;
//! * [`Schema`] / [`Attribute`] / [`AttrId`] — named, typed columns;
//! * [`Table`] — a columnar table with cheap row-subset views ([`RowSet`]),
//!   because CRR discovery repeatedly partitions the same table and must not
//!   copy it;
//! * CSV import/export with type inference ([`csv`]);
//! * per-column summary statistics used by predicate generation
//!   ([`ColumnStats`]);
//! * shard planning for sharded discovery: a [`ShardSpec`] resolved into
//!   disjoint key-range [`Shard`]s.
//!
//! # Example
//!
//! ```
//! use crr_data::{Table, Schema, AttrType, Value};
//!
//! let schema = Schema::new(vec![
//!     ("salary", AttrType::Float),
//!     ("state", AttrType::Str),
//! ]);
//! let mut table = Table::new(schema);
//! table.push_row(vec![Value::from(50_000.0), Value::str("IA")]).unwrap();
//! table.push_row(vec![Value::from(61_000.0), Value::str("NY")]).unwrap();
//! assert_eq!(table.num_rows(), 2);
//! let salary = table.attr("salary").unwrap();
//! assert_eq!(table.value(1, salary), Value::from(61_000.0));
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod column;
pub mod csv;
mod error;
mod rowset;
mod schema;
mod shard;
mod snapshot;
mod spec;
mod stats;
mod table;
mod value;

pub use column::{Column, ColumnData};
pub use error::DataError;
pub use rowset::RowSet;
pub use schema::{AttrId, AttrType, Attribute, Schema};
pub use shard::{Shard, ShardBounds};
pub use snapshot::NumericSnapshot;
pub use spec::{balance_permille, Boundary, PlanReport, PlannerCost, ShardSpec};
pub use stats::ColumnStats;
pub use table::Table;
pub use value::Value;

/// Crate-wide result type.
pub type Result<T> = std::result::Result<T, DataError>;
