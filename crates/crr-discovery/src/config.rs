use crate::budget::{Budget, CancelToken};
use crate::faults::FaultPlan;
use crr_data::AttrId;
use crr_models::{FitConfig, ModelKind};
use crr_obs::MetricsSink;
use std::sync::Arc;

/// Order in which Algorithm 1's priority queue emits conjunctions
/// (Table IV's experiment).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueOrder {
    /// Decreasing sharing index `ind(C)` — the paper's choice: conditions
    /// most likely to reuse an existing model are handled first
    /// (Proposition 8's guarantee).
    #[default]
    Decrease,
    /// Increasing `ind(C)` — the adversarial order.
    Increase,
    /// Seed-determined pseudo-random order.
    Random(u64),
}

/// How split predicates are chosen when a partition admits no model
/// (Algorithm 1 line 19).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SplitStrategy {
    /// Model-tree criterion: minimize the weighted variance of the *parent
    /// model's residuals* per side. The failed fit on `D_C` is reused as a
    /// probe — sides where residuals are near-constant are exactly the
    /// parts an output-shifted shared model will fit, so this criterion
    /// finds regime attributes (state, season) that raw target variance
    /// misses. Splits into `C ∧ p` and `C ∧ ¬p`; binary splits keep the
    /// coverage guarantee of Problem 1.
    #[default]
    BestResidual,
    /// CART-style: minimize the weighted *target* variance of the two
    /// sides \[9\].
    BestVariance,
    /// First applicable predicate in space order — cheapest, used to
    /// isolate the cost of split selection in ablations.
    FirstApplicable,
}

/// Configuration of one discovery run — the inputs of Algorithm 1
/// besides the database and predicate space.
#[derive(Debug, Clone)]
pub struct DiscoveryConfig {
    /// Feature attributes `X` (must not contain the target).
    pub inputs: Vec<AttrId>,
    /// Target attribute `Y`.
    pub target: AttrId,
    /// Maximum bias `ρ_M`: a model is accepted on a partition only when
    /// every residual is within this bound.
    pub rho_max: f64,
    /// Model family and hyper-parameters (F1/F2/F3).
    pub fit: FitConfig,
    /// Queue ordering (Table IV).
    pub order: QueueOrder,
    /// Split-predicate selection (line 19).
    pub split: SplitStrategy,
    /// Enable the model-sharing fast path (lines 7–10). Disabling it turns
    /// Algorithm 1 into a plain top-down learner — the ablation the paper's
    /// Figure 9 "CRR searching" vs. regression-tree comparison isolates.
    pub share_models: bool,
    /// Resource limits for the run (deadline, expansions, fits). Checked at
    /// each priority-queue pop; tripping degrades gracefully to a
    /// best-so-far ruleset tagged with a [`crate::DiscoveryOutcome`].
    pub budget: Budget,
    /// Cooperative cancellation: callers holding a clone of the token can
    /// stop the run from another thread.
    pub cancel: Option<CancelToken>,
    /// Test-only fault injection consulted before every model fit. `None`
    /// in production configs.
    pub faults: Option<Arc<FaultPlan>>,
    /// Worker threads for shard-level parallelism in sharded discovery:
    /// how many non-seed shards run Algorithm 1 concurrently. `1` runs
    /// shards sequentially; results are identical either way (the
    /// cross-shard pool is frozen before any non-seed shard starts).
    /// Ignored by unsharded runs. Must be ≥ 1 ([`Self::validate`]).
    pub shard_threads: usize,
    /// Structured metrics sink. The no-op default records nothing at
    /// near-zero cost; attach an enabled sink via [`Self::with_metrics`] to
    /// collect counters and phase timings, frozen into
    /// [`crate::Discovery::metrics`] when the run returns. Recording never
    /// feeds back into the search, so instrumented and plain runs produce
    /// byte-identical rule sets.
    pub metrics: MetricsSink,
}

impl DiscoveryConfig {
    /// A default configuration for `inputs → target` with maximum bias
    /// `rho_max`: F1 (linear), decreasing order, sharing enabled.
    pub fn new(inputs: Vec<AttrId>, target: AttrId, rho_max: f64) -> Self {
        DiscoveryConfig {
            inputs,
            target,
            rho_max,
            fit: FitConfig::new(ModelKind::Linear),
            order: QueueOrder::Decrease,
            split: SplitStrategy::BestResidual,
            share_models: true,
            budget: Budget::unlimited(),
            cancel: None,
            faults: None,
            shard_threads: 1,
            metrics: MetricsSink::disabled(),
        }
    }

    /// Sets the shard-level parallelism for sharded discovery (1 =
    /// shards run sequentially). Zero is rejected by [`Self::validate`] at
    /// run entry, not silently clamped.
    pub fn with_shard_threads(mut self, threads: usize) -> Self {
        self.shard_threads = threads;
        self
    }

    /// Switches the model family, keeping family defaults.
    pub fn with_kind(mut self, kind: ModelKind) -> Self {
        self.fit = FitConfig::new(kind);
        self
    }

    /// Switches the queue order.
    pub fn with_order(mut self, order: QueueOrder) -> Self {
        self.order = order;
        self
    }

    /// Enables/disables model sharing.
    pub fn with_sharing(mut self, share: bool) -> Self {
        self.share_models = share;
        self
    }

    /// Caps the run's resources; see [`Budget`].
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Attaches a cancellation token observed at each queue pop.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Attaches a fault-injection plan (tests only).
    pub fn with_faults(mut self, faults: Arc<FaultPlan>) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Attaches a metrics sink (usually [`MetricsSink::enabled`]). Keep a
    /// clone of the sink to read cumulative values across runs, or read the
    /// per-run freeze from [`crate::Discovery::metrics`].
    pub fn with_metrics(mut self, sink: MetricsSink) -> Self {
        self.metrics = sink;
        self
    }

    /// Checks the config for self-contradictions every entry point rejects
    /// up front: zero shard threads.
    pub fn validate(&self) -> Result<(), crate::DiscoveryError> {
        if self.shard_threads == 0 {
            return Err(crate::DiscoveryError::InvalidConfig(
                "shard_threads must be at least 1".to_string(),
            ));
        }
        Ok(())
    }

    /// The minimum partition size worth splitting — the VC-dimension stop
    /// of §V-A2, derived from the model family (`d + 1` for linear).
    /// Partitions at or below it accept their best model, forced if need
    /// be, instead of splitting further.
    pub fn min_partition(&self) -> usize {
        self.fit.min_samples(self.inputs.len()).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_paper_defaults() {
        let cfg = DiscoveryConfig::new(vec![AttrId(0)], AttrId(1), 1.0);
        assert_eq!(cfg.order, QueueOrder::Decrease);
        assert!(cfg.share_models);
        assert_eq!(cfg.fit.kind, ModelKind::Linear);
        // Linear with one feature: 2 samples minimum.
        assert_eq!(cfg.min_partition(), 2);
    }

    #[test]
    fn builders_compose() {
        let cfg = DiscoveryConfig::new(vec![AttrId(0)], AttrId(1), 0.5)
            .with_kind(ModelKind::Mlp)
            .with_order(QueueOrder::Increase)
            .with_sharing(false);
        assert_eq!(cfg.fit.kind, ModelKind::Mlp);
        assert_eq!(cfg.order, QueueOrder::Increase);
        assert!(!cfg.share_models);
        assert_eq!(cfg.min_partition(), 4);
    }

    #[test]
    fn zero_thread_counts_are_rejected() {
        let cfg = DiscoveryConfig::new(vec![AttrId(0)], AttrId(1), 0.5);
        assert!(cfg.validate().is_ok());
        assert!(matches!(
            cfg.clone().with_shard_threads(0).validate(),
            Err(crate::DiscoveryError::InvalidConfig(_))
        ));
        assert!(cfg.with_shard_threads(4).validate().is_ok());
    }
}
