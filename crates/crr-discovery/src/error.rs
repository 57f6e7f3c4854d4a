use std::fmt;

/// Errors from CRR discovery.
#[derive(Debug, Clone, PartialEq)]
pub enum DiscoveryError {
    /// The target attribute appears among the inputs — Reflexivity
    /// (Proposition 1) makes every such rule trivial, so discovery refuses
    /// the task instead of producing noise.
    TrivialTarget,
    /// The target attribute is not numeric.
    NonNumericTarget(String),
    /// The predicate space constrains the target, which Definition 1
    /// forbids.
    PredicateOnTarget,
    /// No rows to discover over.
    EmptyInstance,
    /// Rule construction or inference failed (bug or inconsistent inputs).
    Core(crr_core::CoreError),
    /// Model fitting failed irrecoverably.
    Model(crr_models::ModelError),
    /// Table access failed.
    Data(crr_data::DataError),
    /// A row reported complete by the table was missing a value when read
    /// back — an invariant breach surfaced as an error instead of a panic.
    IncompleteRow {
        /// Row index within the table.
        row: usize,
        /// Name of the attribute whose value was absent.
        attr: String,
    },
    /// A cell held NaN or ±Inf where a finite number was required. Dirty
    /// inputs degrade to a typed error, never a poisoned fit.
    NonFiniteValue {
        /// Row index within the table.
        row: usize,
        /// Name of the offending attribute.
        attr: String,
    },
    /// A fault-injection plan ([`crate::faults::FaultPlan`]) failed this
    /// fit on purpose. Only ever produced under test harnesses.
    InjectedFault {
        /// 1-based index of the faulted fit attempt.
        fit: u64,
    },
    /// A discovery task panicked and was isolated, so its siblings still
    /// completed: a target of [`crate::DiscoverySession::run_all`], or a
    /// shard of a sharded run (wrapped in [`DiscoveryError::Shard`]).
    TaskPanicked {
        /// Index of the task within the submitted batch, or the shard id.
        task: usize,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// A shard's Algorithm 1 run failed. Sharded discovery degrades the
    /// shard to constant fallbacks and keeps going; the underlying error
    /// is preserved here so per-shard failures stay attributable.
    Shard {
        /// Dense shard id within the plan [`crr_data::ShardSpec::plan`]
        /// produced.
        shard_id: usize,
        /// What went wrong inside the shard.
        source: Box<DiscoveryError>,
    },
    /// The [`crate::DiscoveryConfig`] (or session) is self-contradictory
    /// and cannot be run — e.g. zero worker threads.
    InvalidConfig(String),
}

impl fmt::Display for DiscoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiscoveryError::TrivialTarget => {
                write!(
                    f,
                    "target attribute is among the inputs (trivial by Reflexivity)"
                )
            }
            DiscoveryError::NonNumericTarget(name) => {
                write!(f, "target attribute {name} is not numeric")
            }
            DiscoveryError::PredicateOnTarget => {
                write!(
                    f,
                    "predicate space contains predicates on the target attribute"
                )
            }
            DiscoveryError::EmptyInstance => write!(f, "no rows to discover over"),
            DiscoveryError::Core(e) => write!(f, "rule error: {e}"),
            DiscoveryError::Model(e) => write!(f, "model error: {e}"),
            DiscoveryError::Data(e) => write!(f, "data error: {e}"),
            DiscoveryError::IncompleteRow { row, attr } => {
                write!(f, "row {row} is missing a value for attribute {attr}")
            }
            DiscoveryError::NonFiniteValue { row, attr } => {
                write!(f, "row {row} holds a non-finite value for attribute {attr}")
            }
            DiscoveryError::InjectedFault { fit } => {
                write!(f, "fit #{fit} failed by fault injection")
            }
            DiscoveryError::TaskPanicked { task, message } => {
                write!(f, "discovery task {task} panicked: {message}")
            }
            DiscoveryError::Shard { shard_id, source } => {
                write!(f, "shard {shard_id} failed: {source}")
            }
            DiscoveryError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for DiscoveryError {}

impl From<crr_core::CoreError> for DiscoveryError {
    fn from(e: crr_core::CoreError) -> Self {
        DiscoveryError::Core(e)
    }
}

impl From<crr_models::ModelError> for DiscoveryError {
    fn from(e: crr_models::ModelError) -> Self {
        DiscoveryError::Model(e)
    }
}

impl From<crr_data::DataError> for DiscoveryError {
    fn from(e: crr_data::DataError) -> Self {
        DiscoveryError::Data(e)
    }
}
