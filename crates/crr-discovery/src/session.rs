//! The `DiscoverySession` front door: one builder owning everything a
//! discovery run needs — table, rows, predicate space, configuration,
//! budget, metrics sink, shard spec — replacing the positional free
//! functions as the primary entry point.
//!
//! ```
//! use crr_discovery::prelude::*;
//! use crr_data::{AttrType, Schema, Table, Value};
//! use crr_discovery::PredicateGen;
//!
//! let schema = Schema::new(vec![("x", AttrType::Float), ("y", AttrType::Float)]);
//! let mut table = Table::new(schema);
//! for i in 0..60 {
//!     let x = i as f64;
//!     table.push_row(vec![Value::Float(x), Value::Float(2.0 * x)]).unwrap();
//! }
//! let x = table.attr("x").unwrap();
//! let y = table.attr("y").unwrap();
//! let space = PredicateGen::binary(7).generate(&table, &[x], y, 1);
//! let cfg = DiscoveryConfig::new(vec![x], y, 0.5);
//!
//! let result = DiscoverySession::on(&table)
//!     .predicates(space)
//!     .config(cfg)
//!     .run()
//!     .unwrap();
//! assert!(result.outcome.is_complete());
//! assert!(!result.rules.is_empty());
//! ```

use crate::parallel::discover_all;
use crate::sharded::discover_sharded;
use crate::{
    Budget, Discovery, DiscoveryConfig, DiscoveryError, PredicateSpace, Result, RuleSetArtifact,
    ShardedDiscovery, Task,
};
use crr_data::{RowSet, ShardSpec, Table};
use crr_obs::MetricsSink;

/// Builder for one discovery run over a table.
///
/// Defaults: all rows, no sharding ([`ShardSpec::single`] — a run
/// byte-identical to the classic `discover`), the config's own budget and
/// metrics sink. [`Self::predicates`] and [`Self::config`] are required;
/// [`Self::run`] rejects a session missing either with
/// [`DiscoveryError::InvalidConfig`].
#[derive(Debug, Clone)]
pub struct DiscoverySession<'a> {
    table: &'a Table,
    rows: Option<RowSet>,
    space: Option<PredicateSpace>,
    config: Option<DiscoveryConfig>,
    budget: Option<Budget>,
    metrics: Option<MetricsSink>,
    spec: ShardSpec,
}

impl<'a> DiscoverySession<'a> {
    /// Starts a session on `table`.
    pub fn on(table: &'a Table) -> Self {
        DiscoverySession {
            table,
            rows: None,
            space: None,
            config: None,
            budget: None,
            metrics: None,
            spec: ShardSpec::single(),
        }
    }

    /// Restricts the run to `rows` (default: every row of the table).
    pub fn rows(mut self, rows: RowSet) -> Self {
        self.rows = Some(rows);
        self
    }

    /// Sets the predicate space (required).
    pub fn predicates(mut self, space: PredicateSpace) -> Self {
        self.space = Some(space);
        self
    }

    /// Sets the discovery configuration (required).
    pub fn config(mut self, cfg: DiscoveryConfig) -> Self {
        self.config = Some(cfg);
        self
    }

    /// Overrides the config's resource budget for this run.
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Overrides the config's metrics sink for this run.
    pub fn metrics(mut self, sink: MetricsSink) -> Self {
        self.metrics = Some(sink);
        self
    }

    /// Shards the run under `spec`, e.g.
    /// `sharded(ShardSpec::by_key(k).quantile().shards(4))`; per-shard rule
    /// sets are merged with Algorithm 2. The default [`ShardSpec::single`]
    /// runs unsharded.
    pub fn sharded(mut self, spec: ShardSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Resolves the session into `(rows, cfg, space)`, applying the
    /// budget/metrics overrides onto the config.
    fn resolve(
        self,
    ) -> Result<(
        &'a Table,
        RowSet,
        DiscoveryConfig,
        PredicateSpace,
        ShardSpec,
    )> {
        let rows = self.rows.unwrap_or_else(|| self.table.all_rows());
        let space = self.space.ok_or_else(|| {
            DiscoveryError::InvalidConfig("session has no predicate space".to_string())
        })?;
        let mut cfg = self
            .config
            .ok_or_else(|| DiscoveryError::InvalidConfig("session has no config".to_string()))?;
        if let Some(b) = self.budget {
            cfg.budget = b;
        }
        if let Some(m) = self.metrics {
            cfg.metrics = m;
        }
        Ok((self.table, rows, cfg, space, self.spec))
    }

    /// Runs discovery. Unsharded (or one-shard) sessions behave exactly
    /// like the classic `discover`; sharded sessions run Algorithm 1 per
    /// shard with the frozen cross-shard pool and merge with Algorithm 2
    /// (see [`crate::sharded`]).
    pub fn run(self) -> Result<ShardedDiscovery> {
        let (table, rows, cfg, space, spec) = self.resolve()?;
        discover_sharded(table, &rows, &cfg, &space, &spec)
    }

    /// Runs discovery, compacts the merged rule set against the data
    /// (Algorithm 2, data-validated), and bundles schema, rules, and shard
    /// obligations into the serialized, verifier-ready
    /// [`RuleSetArtifact`] a serving process loads — the one-call export
    /// path, so callers no longer hand-assemble artifacts from raw run
    /// output (which silently drops the obligations the guard-soundness
    /// check needs).
    ///
    /// Returns the full [`ShardedDiscovery`] alongside the artifact so
    /// stats/metrics remain inspectable.
    pub fn export(self) -> Result<(ShardedDiscovery, RuleSetArtifact)> {
        let (table, rows, cfg, space, spec) = self.resolve()?;
        let rho_max = cfg.rho_max;
        let out = discover_sharded(table, &rows, &cfg, &space, &spec)?;
        // Post-merge compaction is idempotent for already-compacted sharded
        // output and compacts the single-shard fast path, which skips
        // Algorithm 2 entirely.
        let (rules, _) = crate::compact_on_data(&out.rules, 1e-6, rho_max, table, &rows)?;
        let artifact =
            RuleSetArtifact::new(table.schema().clone(), rules, out.obligations.clone())?;
        Ok((out, artifact))
    }

    /// Runs many independent per-target tasks over this session's table
    /// and rows, fanned out over up to `threads` workers. Each task carries
    /// its own config and space; the session's predicate space, config,
    /// budget, metrics and shard spec are not consulted.
    pub fn run_all(self, tasks: &[Task], threads: usize) -> Vec<Result<Discovery>> {
        let rows = self.rows.unwrap_or_else(|| self.table.all_rows());
        discover_all(self.table, &rows, tasks, threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PredicateGen;
    use crr_data::{AttrType, Schema, Value};

    fn table() -> Table {
        let schema = Schema::new(vec![("x", AttrType::Float), ("y", AttrType::Float)]);
        let mut t = Table::new(schema);
        for i in 0..200 {
            let x = i as f64;
            let y = if x < 100.0 { x } else { x - 50.0 };
            t.push_row(vec![Value::Float(x), Value::Float(y)]).unwrap();
        }
        t
    }

    fn parts(t: &Table) -> (DiscoveryConfig, PredicateSpace) {
        let x = t.attr("x").unwrap();
        let y = t.attr("y").unwrap();
        (
            DiscoveryConfig::new(vec![x], y, 0.5),
            PredicateGen::binary(7).generate(t, &[x], y, 1),
        )
    }

    #[test]
    fn session_matches_classic_discover() {
        let t = table();
        let (cfg, space) = parts(&t);
        let classic = crate::search::run_search(&t, &t.all_rows(), &cfg, &space, None)
            .map(|r| r.discovery)
            .unwrap();
        let session = DiscoverySession::on(&t)
            .predicates(space)
            .config(cfg)
            .run()
            .unwrap();
        assert_eq!(classic.rules.len(), session.rules.len());
        let mut a = classic.stats.clone();
        let mut b = session.stats.clone();
        a.learning_time = std::time::Duration::ZERO;
        b.learning_time = std::time::Duration::ZERO;
        assert_eq!(a, b);
        for (a, b) in classic.rules.rules().iter().zip(session.rules.rules()) {
            assert_eq!(a.condition(), b.condition());
        }
        assert!(session.merge.is_none());
        assert_eq!(session.shards.len(), 1);
    }

    #[test]
    fn missing_pieces_are_invalid_config() {
        let t = table();
        let (cfg, space) = parts(&t);
        assert!(matches!(
            DiscoverySession::on(&t).config(cfg).run(),
            Err(DiscoveryError::InvalidConfig(_))
        ));
        assert!(matches!(
            DiscoverySession::on(&t).predicates(space).run(),
            Err(DiscoveryError::InvalidConfig(_))
        ));
    }

    #[test]
    fn budget_and_metrics_overrides_apply() {
        let t = table();
        let (cfg, space) = parts(&t);
        let sink = MetricsSink::enabled();
        let out = DiscoverySession::on(&t)
            .predicates(space)
            .config(cfg)
            .budget(Budget::unlimited().with_max_fits(1))
            .metrics(sink.clone())
            .run()
            .unwrap();
        assert!(!out.outcome.is_complete());
        assert!(out.stats.drained_partitions > 0);
        assert_eq!(
            sink.snapshot().count("run", "shards"),
            Some(1),
            "metrics override must reach the run"
        );
    }

    #[test]
    fn export_bundles_schema_rules_and_obligations() {
        let t = table();
        let (cfg, space) = parts(&t);
        let k = t.attr("x").unwrap();
        let (out, artifact) = DiscoverySession::on(&t)
            .predicates(space)
            .config(cfg)
            .sharded(ShardSpec::by_key(k).equal_width().shards(2))
            .export()
            .unwrap();
        assert!(out.outcome.is_complete());
        assert_eq!(artifact.schema, *t.schema());
        assert!(!artifact.rules.is_empty());
        let ob = artifact.obligations.as_ref().expect("sharded run obliges");
        assert_eq!(ob.shard_key, k);
        // The artifact survives its own text round-trip ...
        let back = RuleSetArtifact::from_text(&artifact.to_text()).unwrap();
        assert_eq!(back.rules.len(), artifact.rules.len());
        // ... and still covers the instance.
        assert!(back.rules.uncovered(&t, &t.all_rows()).is_empty());
    }

    #[test]
    fn export_on_single_shard_has_no_obligations() {
        let t = table();
        let (cfg, space) = parts(&t);
        let (_, artifact) = DiscoverySession::on(&t)
            .predicates(space)
            .config(cfg)
            .export()
            .unwrap();
        assert!(artifact.obligations.is_none());
        assert!(artifact.check_refs().is_ok());
    }

    #[test]
    fn zero_threads_rejected_through_session() {
        let t = table();
        let (cfg, space) = parts(&t);
        assert!(matches!(
            DiscoverySession::on(&t)
                .predicates(space)
                .config(cfg.with_shard_threads(0))
                .run(),
            Err(DiscoveryError::InvalidConfig(_))
        ));
    }
}
