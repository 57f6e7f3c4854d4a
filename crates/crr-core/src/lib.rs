//! Conditional regression rules — the paper's core contribution.
//!
//! A CRR `φ : (f, ρ, ℂ)` (Definition 1) states that on the part of the data
//! selected by the DNF condition `ℂ`, the regression function `f : X → Y`
//! predicts the target within maximum bias `ρ`:
//!
//! ```text
//! t ⊨ φ  ⇔  t ⊨ ℂ  implies  |t.Y − (f(t.X + x) + y)| ≤ ρ
//! ```
//!
//! where the *built-in predicates* `x = Δ, y = δ` attached to each
//! conjunction of `ℂ` translate the model before it is applied — this is
//! what lets one model be *shared* across different parts of the data
//! (Example 2's seasonal bird migration).
//!
//! This crate implements:
//! * the predicate language `A φ c, φ ∈ {=, ≠, >, ≥, <, ≤}` ([`Predicate`]),
//! * conjunctions with built-in predicates and DNF conditions
//!   ([`Conjunction`], [`Dnf`]) with decidable implication `⊢`
//!   (Definition 2),
//! * the rule type [`Crr`] and its satisfaction semantics,
//! * the five inference rules of §IV as executable operations
//!   ([`inference`]),
//! * rule sets with rule locating, prediction and RMSE ([`RuleSet`]),
//! * a text serialization for rule interchange ([`serialize`]),
//! * a typed abstract domain over which source conjunctions and their
//!   compiled kernels are symbolically compared, row-free ([`absdom`]).
//!
//! # Example
//!
//! ```
//! use crr_core::{Conjunction, Crr, Dnf, Op, Predicate};
//! use crr_data::{AttrType, Schema, Table, Value};
//! use crr_models::{LinearModel, Model};
//! use std::sync::Arc;
//!
//! let schema = Schema::new(vec![("date", AttrType::Int), ("lat", AttrType::Float)]);
//! let mut t = Table::new(schema);
//! t.push_row(vec![Value::Int(100), Value::Float(50.0)]).unwrap();
//! let date = t.attr("date").unwrap();
//! let lat = t.attr("lat").unwrap();
//!
//! // lat = 0.5 * date with bias 0.1, for date >= 90.
//! let cond = Dnf::single(Conjunction::of(vec![Predicate::ge(date, Value::Int(90))]));
//! let model = Arc::new(Model::Linear(LinearModel::new(vec![0.5], 0.0)));
//! let rule = Crr::new(vec![date], lat, model, 0.1, cond).unwrap();
//! assert!(rule.covers(&t, 0));
//! assert!(rule.satisfied_by(&t, 0)); // |50 - 0.5*100| = 0 <= 0.1
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod absdom;
pub mod check;
pub mod compiled;
mod condition;
mod error;
pub mod index;
pub mod inference;
mod predicate;
mod rule;
mod ruleset;
pub mod serialize;

pub use absdom::{AbsState, TableFacts};
pub use check::{check, CheckReport, Violation};
pub use compiled::{CompiledConjunction, CompiledPred, KernelShape};
pub use condition::{AttrSummary, Bound, ConjFacts, Conjunction, Dnf};
pub use error::CoreError;
pub use index::{CompiledIndex, RuleIndex};
pub use predicate::{Op, Predicate};
pub use rule::Crr;
pub use ruleset::{EvalReport, RuleSet};

/// Crate-wide result type.
pub type Result<T> = std::result::Result<T, CoreError>;
