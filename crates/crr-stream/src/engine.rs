//! The incremental maintenance engine (see the crate docs for the
//! contract and DESIGN.md §13 for the design rationale).

use crr_core::index::IntervalPlan;
use crr_core::{CompiledIndex, Conjunction, Crr, Dnf, Predicate, RuleSet};
use crr_data::{AttrId, DataError, NumericSnapshot, RowSet, Table, Value};
use crr_discovery::{
    compact_on_data, DiscoveryConfig, DiscoveryError, DiscoverySession, PredicateSpace,
    RepairObligations, RepairRegion, RuleSetArtifact,
};
use crr_models::{Moments, Translation};
use crr_obs::{Counter as Ctr, Gauge, MetricsSink, Phase};
use std::collections::BTreeMap;

/// Errors surfaced by the streaming maintainer.
#[derive(Debug)]
pub enum StreamError {
    /// A delta row did not fit the relation schema.
    Data(DataError),
    /// The partition-scoped repair run failed.
    Discovery(DiscoveryError),
    /// The engine's inputs were inconsistent (a rule set over different
    /// attributes than the config, a delete of a dead or out-of-range
    /// row, …).
    Mismatch(String),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Data(e) => write!(f, "delta rejected: {e}"),
            StreamError::Discovery(e) => write!(f, "repair failed: {e}"),
            StreamError::Mismatch(m) => write!(f, "inconsistent maintenance input: {m}"),
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamError::Data(e) => Some(e),
            StreamError::Discovery(e) => Some(e),
            StreamError::Mismatch(_) => None,
        }
    }
}

impl From<DataError> for StreamError {
    fn from(e: DataError) -> Self {
        StreamError::Data(e)
    }
}

impl From<DiscoveryError> for StreamError {
    fn from(e: DiscoveryError) -> Self {
        StreamError::Discovery(e)
    }
}

type Result<T> = std::result::Result<T, StreamError>;

/// Absolute slack added to each rule's `ρ` before a residual counts as
/// drift — both for the per-row write-time monitor and for the
/// moments-recomputed partition bias. Keeps float noise on exact-fit
/// (`ρ = 0`) rules from flagging spurious drift.
const TOLERANCE: f64 = 1e-6;

/// Options of the maintenance loop.
#[derive(Debug, Clone, Default)]
pub struct StreamConfig {
    /// Structured metrics sink for the `stream.*` counters and gauges.
    /// The no-op default records nothing.
    pub metrics: MetricsSink,
}

impl StreamConfig {
    /// Attaches an enabled metrics sink.
    pub fn with_metrics(mut self, sink: MetricsSink) -> Self {
        self.metrics = sink;
        self
    }
}

/// What one append/delete batch did to the maintained state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchOutcome {
    /// Rows appended by this batch.
    pub appended: usize,
    /// Rows deleted (tombstoned) by this batch.
    pub deleted: usize,
    /// `(row, rule)` coverage pairs the interval plan routed.
    pub routed_pairs: usize,
    /// Appended rows no rule condition covers. They stay uncovered, as at
    /// build time: a row escapes every rule only through a null or NaN on
    /// a condition attribute the rules test (discovery's
    /// `uncoverable_rows`).
    pub uncovered: usize,
    /// Write-time monitor hits: appended rows whose residual exceeded a
    /// covering rule's `ρ` plus the tolerance.
    pub violations: usize,
    /// Rules this batch newly flagged as drifted, ascending.
    pub newly_drifted: Vec<usize>,
}

/// The maintainer's current drift picture.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DriftReport {
    /// Indices of rules currently flagged drifted, ascending.
    pub drifted: Vec<usize>,
    /// Worst moments-recomputed residual bias across tracked partitions,
    /// as a ratio of the owning rule's declared `ρ` (1.0 = exactly at the
    /// bound; 0.0 when nothing is tracked).
    pub max_drift_ratio: f64,
}

/// What a [`StreamEngine::repair`] run did.
#[derive(Debug, Clone)]
pub struct RepairReport {
    /// Live rows of the drifted conjunctions, re-routed after repair;
    /// Algorithm 1 re-ran on those of them the numeric snapshot accepts
    /// (0 when nothing had drifted — the rule set is re-exported
    /// unchanged).
    pub affected_rows: usize,
    /// Healthy rules carried over untouched.
    pub kept_rules: usize,
    /// Rules the partition-scoped rediscovery produced before the merge.
    pub discovered_rules: usize,
    /// Rules in the repaired set after the Algorithm 2 re-merge.
    pub rules: usize,
    /// `(row, rule)` residual violations (deviation beyond `ρ` plus the
    /// drift tolerance) found when the affected rows were re-routed after
    /// repair — 0 on a clean repair; non-zero re-flags the violated rules
    /// as drifted.
    pub residual_violations: usize,
    /// Affected rows no rule covers after the repair (a null or NaN on a
    /// condition attribute the rediscovery split on). They stay uncovered,
    /// mirroring discovery's `uncoverable_rows`.
    pub uncoverable_rows: usize,
    /// The repaired, serialization-ready artifact (schema + merged rules),
    /// fit for the `crr-analyze` admission gate and a `crr-serve` swap.
    pub artifact: RuleSetArtifact,
}

/// Per-(rule, conjunction) maintained partition state.
struct PartState {
    /// The conjunction's effective affine predictor over the rule inputs —
    /// the model's affine view with the built-in translation folded in
    /// (`w·(x+Δ) + c + δ = w·x + (c + w·Δ + δ)`). `None` for model
    /// families without an affine view (the MLP), which fall back to the
    /// write-time monitor alone.
    affine: Option<(Vec<f64>, f64)>,
    /// Sufficient statistics over the partition's live fit-ready rows;
    /// `None` iff `affine` is `None`.
    moments: Option<Moments>,
}

impl PartState {
    fn new(rule: &Crr, conj: &Conjunction, d: usize) -> PartState {
        let affine = rule.model().as_affine().map(|(w, c)| {
            let (w, c) = fold_translation(w, c, conj.builtin());
            (w, c)
        });
        let moments = affine.as_ref().map(|_| Moments::zeros(d));
        PartState { affine, moments }
    }
}

/// Re-ANDs a repair region's guard predicates onto every conjunction of
/// a rule rediscovered inside that region, keeping only the rediscovered
/// rule's built-in translations (the drifted conjunct's, if any, belonged
/// to the replaced model).
fn guard_rule(d: &Crr, guards: &[Predicate]) -> Result<Crr> {
    let conjuncts = d
        .condition()
        .conjuncts()
        .iter()
        .map(|cd| {
            let mut preds = guards.to_vec();
            preds.extend(cd.preds().iter().cloned());
            match cd.builtin() {
                Some(t) => Conjunction::with_builtin(preds, t.clone()),
                None => Conjunction::of(preds),
            }
        })
        .collect();
    Crr::new(
        d.inputs().to_vec(),
        d.target(),
        d.model().clone(),
        d.rho(),
        Dnf::of(conjuncts),
    )
    .map_err(|e| StreamError::Mismatch(format!("guarded repair rule is invalid: {e}")))
}

/// Folds a built-in translation into an affine predictor.
fn fold_translation(w: &[f64], c: f64, t: Option<&Translation>) -> (Vec<f64>, f64) {
    match t {
        None => (w.to_vec(), c),
        Some(t) => {
            let shift: f64 = w.iter().zip(&t.delta_x).map(|(a, b)| a * b).sum();
            (w.to_vec(), c + shift + t.delta_y)
        }
    }
}

/// Batch-local columnar gather of the rule inputs and target.
struct BatchCols {
    /// One full-batch buffer per input attribute; missing/non-finite cells
    /// hold NaN and are excluded by `ready`.
    cols: Vec<Vec<f64>>,
    /// Target buffer, same convention.
    y: Vec<f64>,
    /// `ready[i]`: every input and the target of batch row `i` is present
    /// and finite — the precondition for touching any `Moments`.
    ready: Vec<bool>,
}

/// Read-only routing result of one batch, applied in a second phase.
#[derive(Default)]
struct Routed {
    /// Fit-ready batch-local row indices per `(rule, conjunction)`,
    /// ascending — each row charged to its *first* matching conjunct
    /// within each covering rule, mirroring `Crr::predict`.
    buckets: BTreeMap<(usize, usize), Vec<u32>>,
    /// *Table* row ids per `(rule, conjunction)`, ascending — every routed
    /// row, fit-ready or not. Feeds the engine's membership lists, which
    /// is what lets repair find a drifted partition's rows without ever
    /// scanning the relation.
    claimed: BTreeMap<(usize, usize), Vec<u32>>,
    /// `(row, rule)` coverage pairs seen.
    routed_pairs: usize,
    /// Table row ids covered by no rule.
    uncovered: Vec<u32>,
    /// Monitor hits (appends only).
    violations: usize,
    /// Rules with at least one monitor hit.
    violated_rules: Vec<usize>,
}

/// An incremental maintainer for one discovered rule set over one evolving
/// relation. See the crate docs for the maintenance contract.
pub struct StreamEngine {
    table: Table,
    /// Tombstone mask, one entry per table row. Deletes never compact the
    /// columnar storage — routing needs the deleted values one last time,
    /// and stable row ids keep the maintained statistics addressable.
    live: Vec<bool>,
    live_count: usize,
    rules: RuleSet,
    /// The interval plan of `rules`, rebuilt exactly where `rules` is
    /// replaced (construction and the repair splice). It reads no row
    /// values, so appends and deletes keep it valid.
    plan: IntervalPlan,
    cfg: DiscoveryConfig,
    space: PredicateSpace,
    /// `states[rule][conjunction]`, parallel to the rule set.
    states: Vec<Vec<PartState>>,
    /// `members[rule][conjunction]`: the table row ids the partition has
    /// claimed (ascending, possibly tombstoned — filtered by `live` on
    /// read). Maintained on rebuild and append so that repair can gather a
    /// drifted partition's rows in time proportional to the partition.
    members: Vec<Vec<Vec<u32>>>,
    drifted: Vec<bool>,
    metrics: MetricsSink,
}

impl StreamEngine {
    /// Builds the maintainer over `table` and its discovered `rules`,
    /// scanning once to seed every partition's statistics. `cfg` and
    /// `space` must be the discovery inputs that produced `rules` — the
    /// repair path re-runs Algorithm 1 with them on affected partitions.
    pub fn new(
        table: Table,
        rules: RuleSet,
        cfg: DiscoveryConfig,
        space: PredicateSpace,
        opts: StreamConfig,
    ) -> Result<StreamEngine> {
        for (ri, rule) in rules.rules().iter().enumerate() {
            if rule.inputs() != cfg.inputs.as_slice() || rule.target() != cfg.target {
                return Err(StreamError::Mismatch(format!(
                    "rule {ri} is over different attributes than the discovery config"
                )));
            }
        }
        let live = vec![true; table.num_rows()];
        let live_count = table.num_rows();
        let metrics = opts.metrics;
        let mut engine = StreamEngine {
            table,
            live,
            live_count,
            rules,
            plan: IntervalPlan::default(),
            cfg,
            space,
            states: Vec::new(),
            members: Vec::new(),
            drifted: Vec::new(),
            metrics,
        };
        engine.rebuild_states();
        Ok(engine)
    }

    /// The maintained relation (live and tombstoned rows).
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// The current rule set.
    pub fn rules(&self) -> &RuleSet {
        &self.rules
    }

    /// Live (non-tombstoned) rows of the relation, ascending.
    pub fn live_rows(&self) -> RowSet {
        let ids: Vec<u32> = (0..self.table.num_rows() as u32)
            .filter(|&r| self.live[r as usize])
            .collect();
        RowSet::from_sorted(ids)
    }

    /// Number of live rows.
    pub fn live_count(&self) -> usize {
        self.live_count
    }

    /// Appends a batch of rows, routing each through the interval plan:
    /// covering partitions absorb the rows into their `Moments`
    /// (`add_rows`, no rescan), the write-time monitor residual-checks
    /// every covering rule, and the drift picture is refreshed. A batch
    /// holding a row the schema rejects (arity or cell type) is refused
    /// whole and leaves the engine unchanged.
    pub fn append(&mut self, rows: &[Vec<Value>]) -> Result<BatchOutcome> {
        let span = self.metrics.span();
        let start = self.table.num_rows() as u32;
        // All or nothing: a row the schema rejects leaves no earlier row
        // of the batch in the table, unrouted and unaccounted.
        self.table.push_rows(rows)?;
        self.live.resize(self.table.num_rows(), true);
        self.live_count += rows.len();
        let ids: Vec<u32> = (start..start + rows.len() as u32).collect();
        let batch = self.gather(&ids);
        let routed = self.route(&ids, &batch, true);
        let updates = self.apply_append(&batch, &routed);
        for (&(ri, ci), rows) in &routed.claimed {
            self.members[ri][ci].extend_from_slice(rows);
        }
        for &ri in &routed.violated_rules {
            self.drifted[ri] = true;
        }
        let newly_drifted = self.refresh_drift(&routed.violated_rules);

        self.metrics.incr(Ctr::StreamBatches);
        self.metrics.add(Ctr::StreamAppendRows, rows.len() as u64);
        self.metrics
            .add(Ctr::StreamRoutedPairs, routed.routed_pairs as u64);
        self.metrics
            .add(Ctr::StreamUncoveredRows, routed.uncovered.len() as u64);
        self.metrics.add(Ctr::StreamMomentsUpdates, updates as u64);
        self.metrics
            .add(Ctr::StreamViolations, routed.violations as u64);
        self.metrics.record(Phase::StreamApply, span);
        Ok(BatchOutcome {
            appended: rows.len(),
            deleted: 0,
            routed_pairs: routed.routed_pairs,
            uncovered: routed.uncovered.len(),
            violations: routed.violations,
            newly_drifted,
        })
    }

    /// Deletes (tombstones) a batch of rows by table row id, subtracting
    /// each from its covering partitions' `Moments`. Deletes cannot create
    /// violations — removing rows only shrinks every covered set — but
    /// they move the recomputed residual bias, so the drift picture is
    /// still refreshed.
    pub fn delete(&mut self, rows: &[usize]) -> Result<BatchOutcome> {
        let span = self.metrics.span();
        let mut ids: Vec<u32> = Vec::with_capacity(rows.len());
        for &r in rows {
            if r >= self.table.num_rows() {
                return Err(StreamError::Mismatch(format!(
                    "delete of out-of-range row {r} (relation has {} rows)",
                    self.table.num_rows()
                )));
            }
            if !self.live[r] {
                return Err(StreamError::Mismatch(format!(
                    "delete of already-deleted row {r}"
                )));
            }
            ids.push(r as u32);
        }
        ids.sort_unstable();
        ids.dedup();
        let batch = self.gather(&ids);
        let routed = self.route(&ids, &batch, false);
        let updates = self.apply_delete(&batch, &routed);
        for &r in &ids {
            self.live[r as usize] = false;
        }
        self.live_count -= ids.len();
        let newly_drifted = self.refresh_drift(&[]);

        self.metrics.incr(Ctr::StreamBatches);
        self.metrics.add(Ctr::StreamDeleteRows, ids.len() as u64);
        self.metrics
            .add(Ctr::StreamRoutedPairs, routed.routed_pairs as u64);
        self.metrics.add(Ctr::StreamMomentsUpdates, updates as u64);
        self.metrics.record(Phase::StreamApply, span);
        Ok(BatchOutcome {
            appended: 0,
            deleted: ids.len(),
            routed_pairs: routed.routed_pairs,
            uncovered: 0,
            violations: 0,
            newly_drifted,
        })
    }

    /// The current drift picture.
    pub fn drift(&self) -> DriftReport {
        DriftReport {
            drifted: (0..self.drifted.len())
                .filter(|&i| self.drifted[i])
                .collect(),
            max_drift_ratio: self.max_drift_ratio(),
        }
    }

    /// Whether any rule has drifted — i.e. whether
    /// [`StreamEngine::repair`] would do real work.
    pub fn needs_repair(&self) -> bool {
        self.drifted.iter().any(|&d| d)
    }

    /// The moments-recomputed residual bias of one rule: the worst
    /// root-mean-square residual across its maintained partitions. `None`
    /// for rules without an affine view (MLP) or an out-of-range index.
    /// Always ≤ the true max-abs residual, so a recomputed bias above the
    /// declared `ρ` *proves* some covered row violates the rule.
    pub fn residual_bias(&self, rule: usize) -> Option<f64> {
        let parts = self.states.get(rule)?;
        let mut bias: Option<f64> = None;
        for p in parts {
            if let (Some((w, c)), Some(m)) = (&p.affine, &p.moments) {
                let rms = m.residual_rms(w, *c);
                bias = Some(bias.map_or(rms, |b: f64| b.max(rms)));
            }
        }
        bias
    }

    /// Re-runs Algorithm 1 on the affected partitions only — each drifted
    /// conjunction's claimed live rows — keeps every healthy rule
    /// untouched, re-merges with Algorithm 2 (`compact_on_data`), and
    /// swaps the merged set in as the new maintained baseline. Appended
    /// rows no rule covers are not a repair obligation: they stay
    /// uncovered, as they do at build time.
    ///
    /// Every rule rediscovered inside a drifted region gets that region's
    /// conjunction re-ANDed onto its condition — the same refinement
    /// structure Algorithm 1 itself uses — so a repaired rule can never
    /// claim rows outside the partition it was learned on (a sub-discovery
    /// root with a trivially-true condition would otherwise claim the
    /// whole relation).
    ///
    /// Every step is proportional to the *affected* partitions, never the
    /// relation: regions come from the maintained membership lists, the
    /// healthy rules keep their live statistics (their moments already
    /// absorbed every append and shed every delete), Algorithm 2 merges
    /// the repaired rules over the affected rows only, and the final
    /// monitored routing — the exactness gate over everything repair
    /// touched — walks the affected rows alone. Those are every live row
    /// a repaired rule covers, since each repaired rule lies inside a
    /// drifted conjunct whose live rows are all affected. The repaired
    /// artifact is returned ready for the `crr-analyze` gate, carrying
    /// [`RepairObligations`] (kept-rule count plus per-region guards) so
    /// the verifier's A7 check can re-prove the splice's confinement
    /// row-free. With nothing drifted the rule set is re-exported
    /// unchanged (`affected_rows == 0`, zero regions).
    pub fn repair(&mut self) -> Result<RepairReport> {
        let span = self.metrics.span();
        let mut cfg = self.cfg.clone();
        cfg.metrics = self.metrics.clone();

        // One affected region per drifted conjunction — its claimed live
        // rows read off the membership lists — whose predicates guard
        // whatever is rediscovered inside it. A row the numeric snapshot
        // refuses (a NaN or ±Inf input or target in a complete row) cannot
        // join a sub-discovery; it stays affected, so the final routing
        // still claims it, and a region left without rows is skipped.
        let mut regions: Vec<(RepairRegion, RowSet)> = Vec::new();
        let mut affected = RowSet::from_sorted(Vec::new());
        for (ri, rule) in self.rules.rules().iter().enumerate() {
            if !self.drifted[ri] {
                continue;
            }
            for (ci, conj) in rule.condition().conjuncts().iter().enumerate() {
                let live = RowSet::from_sorted(
                    self.members[ri][ci]
                        .iter()
                        .copied()
                        .filter(|&r| self.live[r as usize])
                        .collect(),
                );
                affected = affected.union(&live);
                let ids: Vec<u32> = live
                    .iter()
                    .filter(|&r| {
                        NumericSnapshot::accepts(&self.table, &self.cfg.inputs, self.cfg.target, r)
                    })
                    .map(|r| r as u32)
                    .collect();
                if !ids.is_empty() {
                    let region = RepairRegion {
                        region_id: regions.len(),
                        rule: ri,
                        conjunct: ci,
                        guards: conj.preds().to_vec(),
                    };
                    regions.push((region, RowSet::from_sorted(ids)));
                }
            }
        }
        if regions.is_empty() {
            // Nothing repaired: the obligations still travel, claiming
            // every rule kept and no regions touched.
            let artifact = self.artifact()?.with_repair(RepairObligations {
                kept: self.rules.len(),
                regions: Vec::new(),
            })?;
            self.metrics.record(Phase::StreamRepair, span);
            return Ok(RepairReport {
                affected_rows: 0,
                kept_rules: self.rules.len(),
                discovered_rules: 0,
                rules: self.rules.len(),
                residual_violations: 0,
                uncoverable_rows: 0,
                artifact,
            });
        }

        // Algorithm 1 inside each region, then Algorithm 2 over the
        // repaired rules on the affected rows.
        let mut repaired: Vec<Crr> = Vec::new();
        for (region, rows) in &regions {
            let sub = DiscoverySession::on(&self.table)
                .rows(rows.clone())
                .predicates(self.space.clone())
                .config(cfg.clone())
                .run()?;
            for d in sub.rules.rules() {
                repaired.push(guard_rule(d, &region.guards)?);
            }
        }
        let discovered_rules = repaired.len();
        self.metrics.incr(Ctr::StreamRepairs);
        self.metrics
            .add(Ctr::StreamRepairedRules, discovered_rules as u64);
        let merged = if repaired.is_empty() {
            RuleSet::from_rules(Vec::new())
        } else {
            compact_on_data(
                &RuleSet::from_rules(repaired),
                1e-6,
                self.cfg.rho_max,
                &self.table,
                &affected,
            )?
            .0
        };

        // Splice: healthy rules keep their statistics and memberships;
        // the repaired rules are appended with fresh partition states.
        let d = self.cfg.inputs.len();
        let mut rules_v: Vec<Crr> = Vec::new();
        let mut states: Vec<Vec<PartState>> = Vec::new();
        let mut members: Vec<Vec<Vec<u32>>> = Vec::new();
        for ri in 0..self.rules.len() {
            if self.drifted[ri] {
                continue;
            }
            rules_v.push(self.rules.rules()[ri].clone());
            states.push(std::mem::take(&mut self.states[ri]));
            members.push(std::mem::take(&mut self.members[ri]));
        }
        let kept_rules = rules_v.len();
        for rule in merged.rules() {
            let conjuncts = rule.condition().conjuncts();
            states.push(
                conjuncts
                    .iter()
                    .map(|c| PartState::new(rule, c, d))
                    .collect(),
            );
            members.push(vec![Vec::new(); conjuncts.len()]);
            rules_v.push(rule.clone());
        }
        self.rules = RuleSet::from_rules(rules_v);
        self.plan = IntervalPlan::build(&self.rules, self.table.schema());
        self.states = states;
        self.members = members;
        self.drifted = vec![false; self.rules.len()];

        // Route the affected rows through the repaired set with the
        // monitor on — the exactness gate over everything repair touched.
        // The guards confine every repaired rule to the affected rows, so
        // this routing reaches each live row a repaired rule covers; a
        // rule the monitor catches is flagged drifted for the next round.
        // Only the repaired rules' partitions accumulate statistics and
        // membership: the healthy rules already hold these rows.
        let ids: Vec<u32> = affected.iter().map(|r| r as u32).collect();
        let batch = self.gather(&ids);
        let mut routed = self.route(&ids, &batch, true);
        routed.buckets.retain(|&(ri, _), _| ri >= kept_rules);
        self.apply_append(&batch, &routed);
        for (&(ri, ci), rows) in &routed.claimed {
            if ri >= kept_rules {
                self.members[ri][ci].extend_from_slice(rows);
            }
        }
        for &ri in &routed.violated_rules {
            self.drifted[ri] = true;
        }
        self.metrics
            .add(Ctr::StreamDriftedRules, routed.violated_rules.len() as u64);
        self.refresh_gauges();
        // Export the splice's machine-checkable claims: which indices
        // were kept verbatim and which guards confine the rest. Every
        // repaired rule's conjuncts carry their region's guard predicates
        // (re-ANDed by `guard_rule`, preserved verbatim through the
        // compaction merge), so `crr-analyze`'s A7 check can re-prove the
        // confinement row-free at the serving swap gate.
        let repair_obligations = RepairObligations {
            kept: kept_rules,
            regions: regions.into_iter().map(|(region, _)| region).collect(),
        };
        let artifact = self.artifact()?.with_repair(repair_obligations)?;
        self.metrics.record(Phase::StreamRepair, span);
        Ok(RepairReport {
            affected_rows: affected.len(),
            kept_rules,
            discovered_rules,
            rules: self.rules.len(),
            residual_violations: routed.violations,
            uncoverable_rows: routed.uncovered.len(),
            artifact,
        })
    }

    /// Bundles the current rule set into a serialization-ready artifact
    /// (no shard obligations — the maintainer is unsharded by design;
    /// repair obligations are attached by [`StreamEngine::repair`], which
    /// is the only place splice claims exist).
    pub fn artifact(&self) -> Result<RuleSetArtifact> {
        Ok(RuleSetArtifact::new(
            self.table.schema().clone(),
            self.rules.clone(),
            None,
        )?)
    }

    /// Gathers batch-local columnar buffers for the configured inputs and
    /// target over `ids`.
    fn gather(&self, ids: &[u32]) -> BatchCols {
        let d = self.cfg.inputs.len();
        let mut cols = vec![vec![f64::NAN; ids.len()]; d];
        let mut y = vec![f64::NAN; ids.len()];
        let mut ready = vec![true; ids.len()];
        let fill = |attr: AttrId, buf: &mut Vec<f64>, ready: &mut Vec<bool>| {
            for (i, &r) in ids.iter().enumerate() {
                match self.table.value_f64(r as usize, attr) {
                    Some(v) if v.is_finite() => buf[i] = v,
                    _ => ready[i] = false,
                }
            }
        };
        for (j, &attr) in self.cfg.inputs.iter().enumerate() {
            fill(attr, &mut cols[j], &mut ready);
        }
        fill(self.cfg.target, &mut y, &mut ready);
        BatchCols { cols, y, ready }
    }

    /// Routes `ids`, whose inputs and target the caller gathered into
    /// `batch`, through the interval plan: buckets each fit-ready row
    /// under its first matching conjunct per covering rule, and (when
    /// `monitor` is set) residual-checks every covering rule at write
    /// time. Pure reads — application happens in a second phase.
    fn route(&self, ids: &[u32], batch: &BatchCols, monitor: bool) -> Routed {
        let rules = self.rules.rules();
        // A fresh engine per call: appends move column buffers and grow
        // string dictionaries, so compiled kernels never outlive a batch.
        let index = CompiledIndex::new(&self.rules, &self.plan, &self.table);
        let mut x = Vec::with_capacity(self.cfg.inputs.len());
        let mut out = Routed::default();
        for (i, &r) in ids.iter().enumerate() {
            let row = r as usize;
            let mut covered = false;
            index.covering(row, |ri, ci| {
                covered = true;
                out.routed_pairs += 1;
                out.claimed.entry((ri, ci)).or_default().push(r);
                if batch.ready[i] {
                    out.buckets.entry((ri, ci)).or_default().push(i as u32);
                }
                if !monitor {
                    return;
                }
                let rule = &rules[ri];
                let conj = &rule.condition().conjuncts()[ci];
                let (Some(pred), Some(actual)) = (
                    rule.predict_at(conj, &self.table, row, &mut x),
                    self.table.value_f64(row, rule.target()),
                ) else {
                    return; // missing values are vacuously satisfied
                };
                if (actual - pred).abs() > rule.rho() + TOLERANCE {
                    out.violations += 1;
                    if out.violated_rules.last() != Some(&ri) {
                        out.violated_rules.push(ri);
                    }
                }
            });
            if !covered {
                out.uncovered.push(r);
            }
        }
        out.violated_rules.dedup();
        out
    }

    /// Applies an append routing: each bucket's rows join its partition's
    /// statistics in one batched accumulation. Returns the update count.
    fn apply_append(&mut self, batch: &BatchCols, routed: &Routed) -> usize {
        let cols: Vec<&[f64]> = batch.cols.iter().map(Vec::as_slice).collect();
        let mut updates = 0;
        for (&(ri, ci), idxs) in &routed.buckets {
            if let Some(m) = self.states[ri][ci].moments.as_mut() {
                m.add_rows(&cols, &batch.y, idxs);
                updates += 1;
            }
        }
        updates
    }

    /// Applies a delete routing: each bucket becomes a delta accumulation
    /// subtracted from its partition's statistics. Returns the update
    /// count.
    fn apply_delete(&mut self, batch: &BatchCols, routed: &Routed) -> usize {
        let cols: Vec<&[f64]> = batch.cols.iter().map(Vec::as_slice).collect();
        let d = self.cfg.inputs.len();
        let mut updates = 0;
        for (&(ri, ci), idxs) in &routed.buckets {
            if let Some(m) = self.states[ri][ci].moments.as_mut() {
                let mut delta = Moments::zeros(d);
                delta.add_rows(&cols, &batch.y, idxs);
                m.subtract(&delta);
                updates += 1;
            }
        }
        updates
    }

    /// Rebuilds every partition's statistics and membership list from the
    /// live relation (used once, at construction), clearing drift flags.
    /// The rebuild routes every live row with the write-time monitor on,
    /// so it doubles as a relation-wide residual audit of the current rule
    /// set: rules caught violating are flagged drifted immediately.
    fn rebuild_states(&mut self) {
        self.plan = IntervalPlan::build(&self.rules, self.table.schema());
        let d = self.cfg.inputs.len();
        self.states = self
            .rules
            .rules()
            .iter()
            .map(|rule| {
                rule.condition()
                    .conjuncts()
                    .iter()
                    .map(|conj| PartState::new(rule, conj, d))
                    .collect()
            })
            .collect();
        self.members = self
            .rules
            .rules()
            .iter()
            .map(|rule| vec![Vec::new(); rule.condition().conjuncts().len()])
            .collect();
        self.drifted = vec![false; self.rules.len()];
        let ids: Vec<u32> = (0..self.table.num_rows() as u32)
            .filter(|&r| self.live[r as usize])
            .collect();
        let batch = self.gather(&ids);
        let routed = self.route(&ids, &batch, true);
        self.apply_append(&batch, &routed);
        for (&(ri, ci), rows) in &routed.claimed {
            self.members[ri][ci].extend_from_slice(rows);
        }
        for &ri in &routed.violated_rules {
            self.drifted[ri] = true;
        }
        self.refresh_gauges();
    }

    /// Worst recomputed-bias / declared-ρ ratio across tracked partitions.
    fn max_drift_ratio(&self) -> f64 {
        let mut worst = 0.0f64;
        for (ri, rule) in self.rules.rules().iter().enumerate() {
            let Some(bias) = self.residual_bias(ri) else {
                continue;
            };
            let floor = rule.rho().max(TOLERANCE).max(f64::MIN_POSITIVE);
            worst = worst.max(bias / floor);
        }
        worst
    }

    /// Re-derives each rule's residual bias from its maintained moments,
    /// flags rules whose bias exceeds `ρ + tolerance`, merges in monitor
    /// hits, and refreshes the gauges. Returns the newly drifted rules.
    fn refresh_drift(&mut self, monitor_hits: &[usize]) -> Vec<usize> {
        let mut newly = Vec::new();
        for ri in 0..self.rules.len() {
            let was = self.drifted[ri];
            let mut now = was || monitor_hits.contains(&ri);
            if !now {
                if let Some(bias) = self.residual_bias(ri) {
                    let rho = self.rules.rules()[ri].rho();
                    now = bias > rho + TOLERANCE;
                }
            }
            if now && !was {
                newly.push(ri);
            }
            self.drifted[ri] = now;
        }
        // Monitor hits flagged before this call also count as new.
        for &ri in monitor_hits {
            if !newly.contains(&ri) {
                newly.push(ri);
            }
        }
        newly.sort_unstable();
        newly.dedup();
        newly.retain(|&ri| self.drifted[ri]);
        self.metrics
            .add(Ctr::StreamDriftedRules, newly.len() as u64);
        self.refresh_gauges();
        newly
    }

    /// Publishes the live gauges.
    fn refresh_gauges(&self) {
        self.metrics
            .set_gauge(Gauge::StreamLiveRows, self.live_count as u64);
        self.metrics
            .set_gauge(Gauge::StreamTrackedRules, self.rules.len() as u64);
        self.metrics.set_gauge(
            Gauge::StreamDriftedNow,
            self.drifted.iter().filter(|&&d| d).count() as u64,
        );
        let permille = (self.max_drift_ratio() * 1000.0).min(u64::MAX as f64) as u64;
        self.metrics
            .set_gauge(Gauge::StreamMaxDriftPermille, permille);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crr_core::Op;
    use crr_data::{AttrType, Schema};
    use crr_discovery::PredicateGen;

    fn seed(n: usize) -> (Table, DiscoveryConfig, PredicateSpace) {
        let schema = Schema::new(vec![("x", AttrType::Float), ("y", AttrType::Float)]);
        let mut t = Table::new(schema);
        for i in 0..n {
            let x = i as f64;
            t.push_row(vec![Value::Float(x), Value::Float(2.0 * x + 1.0)])
                .unwrap();
        }
        let (x, y) = (t.attr("x").unwrap(), t.attr("y").unwrap());
        let space = PredicateGen::binary(7).generate(&t, &[x], y, 1);
        let cfg = DiscoveryConfig::new(vec![x], y, 0.25);
        (t, cfg, space)
    }

    fn engine(n: usize) -> StreamEngine {
        let (t, cfg, space) = seed(n);
        let rules = DiscoverySession::on(&t)
            .predicates(space.clone())
            .config(cfg.clone())
            .run()
            .unwrap()
            .rules;
        StreamEngine::new(t, rules, cfg, space, StreamConfig::default()).unwrap()
    }

    fn row(x: f64, y: f64) -> Vec<Value> {
        vec![Value::Float(x), Value::Float(y)]
    }

    #[test]
    fn in_distribution_appends_do_not_drift() {
        let mut e = engine(160);
        let batch: Vec<Vec<Value>> = (160..200)
            .map(|i| row(i as f64, 2.0 * i as f64 + 1.0))
            .collect();
        let out = e.append(&batch).unwrap();
        assert_eq!(out.appended, 40);
        assert_eq!(out.violations, 0);
        assert!(out.newly_drifted.is_empty());
        assert_eq!(e.live_count(), 200);
        // Appends past the last interval may be uncovered; everything in
        // range must be routed.
        assert!(out.routed_pairs + out.uncovered >= 40);
        let d = e.drift();
        assert!(d.drifted.is_empty());
        assert!(d.max_drift_ratio < 1.0, "ratio {}", d.max_drift_ratio);
    }

    #[test]
    fn corrupt_appends_trip_the_write_time_monitor() {
        let mut e = engine(160);
        // In-range x, wildly wrong y: violates the covering rule.
        let out = e.append(&[row(50.0, 500.0)]).unwrap();
        assert!(out.violations >= 1, "monitor saw {}", out.violations);
        assert!(!out.newly_drifted.is_empty());
        assert!(e.needs_repair());
    }

    #[test]
    fn append_then_delete_restores_statistics_exactly() {
        let mut e = engine(120);
        let before: Vec<Option<Moments>> = e
            .states
            .iter()
            .flatten()
            .map(|p| p.moments.clone())
            .collect();
        // Integer-valued data keeps every partial sum representable, so
        // subtraction reverses accumulation bit-exactly.
        let batch: Vec<Vec<Value>> = (0..30)
            .map(|i| row(i as f64, 2.0 * i as f64 + 1.0))
            .collect();
        let start = e.table().num_rows();
        e.append(&batch).unwrap();
        let ids: Vec<usize> = (start..start + 30).collect();
        e.delete(&ids).unwrap();
        let after: Vec<Option<Moments>> = e
            .states
            .iter()
            .flatten()
            .map(|p| p.moments.clone())
            .collect();
        assert_eq!(before, after);
        assert_eq!(e.live_count(), 120);
    }

    #[test]
    fn delete_of_dead_or_out_of_range_rows_is_a_typed_error() {
        let mut e = engine(60);
        assert!(matches!(
            e.delete(&[1_000_000]),
            Err(StreamError::Mismatch(_))
        ));
        e.delete(&[5]).unwrap();
        assert!(matches!(e.delete(&[5]), Err(StreamError::Mismatch(_))));
    }

    #[test]
    fn repair_after_regime_change_covers_and_cleans() {
        let mut e = engine(160);
        // A new regime past the base range with a different slope: the
        // rule of the last interval covers the appended rows, and they
        // violate it.
        let batch: Vec<Vec<Value>> = (160..240).map(|i| row(i as f64, 5.0 * i as f64)).collect();
        e.append(&batch).unwrap();
        assert!(e.needs_repair());
        let report = e.repair().unwrap();
        assert!(report.affected_rows > 0);
        assert!(report.rules > 0);
        assert_eq!(
            report.residual_violations, 0,
            "repair must clean the relation"
        );
        assert_eq!(report.uncoverable_rows, 0);
        assert!(!e.needs_repair());
        // The repaired artifact passes the static verifier.
        let a = &report.artifact;
        let analysis = crr_analyze::analyze(&a.rules, a.obligations.as_ref());
        assert!(analysis.is_sound(), "{analysis:?}");
        // And the artifact round-trips through the text format.
        let text = a.to_text();
        let back = RuleSetArtifact::from_text(&text).unwrap();
        assert_eq!(back.rules.len(), a.rules.len());
    }

    #[test]
    fn repair_without_drift_reexports_unchanged() {
        let mut e = engine(120);
        let before = e.rules().len();
        let report = e.repair().unwrap();
        assert_eq!(report.affected_rows, 0);
        assert_eq!(report.discovered_rules, 0);
        assert_eq!(report.kept_rules, before);
        assert_eq!(report.residual_violations, 0);
    }

    #[test]
    fn null_and_nan_rows_route_but_never_touch_moments() {
        let mut e = engine(120);
        let counts: Vec<usize> = e
            .states
            .iter()
            .flatten()
            .filter_map(|p| p.moments.as_ref().map(Moments::count))
            .collect();
        let out = e
            .append(&[
                vec![Value::Null, Value::Float(3.0)],
                vec![Value::Float(50.0), Value::Null],
                vec![Value::Float(f64::NAN), Value::Float(1.0)],
                vec![Value::Float(51.0), Value::Float(f64::NAN)],
            ])
            .unwrap();
        assert_eq!(out.violations, 0, "missing values are vacuously satisfied");
        let after: Vec<usize> = e
            .states
            .iter()
            .flatten()
            .filter_map(|p| p.moments.as_ref().map(Moments::count))
            .collect();
        assert_eq!(counts, after, "no fit-ready row, no accumulation");
    }

    /// Every partition's maintained statistics, in rule order.
    fn all_moments(e: &StreamEngine) -> Vec<Option<Moments>> {
        e.states
            .iter()
            .flatten()
            .map(|p| p.moments.clone())
            .collect()
    }

    #[test]
    fn a_rejected_append_leaves_the_engine_unchanged() {
        let mut e = engine(160);
        let (moments, drift) = (all_moments(&e), e.drift());
        // A valid first row, then one short of a cell, or of the wrong
        // type: the batch is refused whole.
        for bad in [
            vec![Value::Float(51.0)],
            vec![Value::Float(51.0), Value::str("y")],
        ] {
            assert!(e.append(&[row(50.0, 101.0), bad]).is_err());
            assert_eq!(e.table().num_rows(), 160);
            assert_eq!(e.live_count(), 160);
            assert_eq!(e.live_rows().len(), 160);
            assert_eq!(all_moments(&e), moments);
            assert_eq!(e.drift(), drift);
        }
        // No half-pushed row 160 exists to delete.
        match e.delete(&[160]) {
            Err(StreamError::Mismatch(m)) => assert!(m.contains("out-of-range"), "{m}"),
            other => panic!("expected an out-of-range Mismatch, got {other:?}"),
        }
    }

    #[test]
    fn a_nan_target_row_does_not_block_repair() {
        let mut e = engine(160);
        e.append(&[row(50.0, f64::NAN)]).unwrap();
        e.append(&[row(51.0, 900.0)]).unwrap();
        assert!(e.needs_repair());
        // The NaN row stays out of the region's sub-discovery but not out
        // of the final routing.
        let report = e.repair().unwrap();
        assert_eq!(report.residual_violations, 0);
        assert!(!e.needs_repair());
        let analysis = crr_analyze::analyze_artifact_on(&report.artifact, e.table());
        assert!(analysis.is_sound(), "{analysis:?}");
        assert!(
            (report.kept_rules..e.rules().len())
                .any(|ri| e.members[ri].iter().any(|m| m.contains(&160))),
            "row 160 joined no repaired rule's membership"
        );
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Appending a batch and deleting it again restores every
            /// partition's maintained statistics *bit*-exactly — including
            /// batches with null and NaN cells, which route but never touch
            /// any `Moments`. Integer-valued cells keep every partial sum
            /// representable in f64, so `subtract` reverses `add_rows`
            /// without rounding.
            #[test]
            fn append_then_delete_is_bit_exact_under_nulls(
                batch in prop::collection::vec((0i32..200, -400i32..400, 0u8..10), 1..40),
            ) {
                let mut e = engine(100);
                let before: Vec<Option<Moments>> =
                    e.states.iter().flatten().map(|p| p.moments.clone()).collect();
                let rows: Vec<Vec<Value>> = batch
                    .iter()
                    .map(|&(x, y, kind)| {
                        let xv = match kind {
                            0 => Value::Null,
                            1 => Value::Float(f64::NAN),
                            _ => Value::Float(f64::from(x)),
                        };
                        let yv = match kind {
                            2 => Value::Null,
                            3 => Value::Float(f64::NAN),
                            _ => Value::Float(f64::from(y)),
                        };
                        vec![xv, yv]
                    })
                    .collect();
                let start = e.table().num_rows();
                e.append(&rows).unwrap();
                let ids: Vec<usize> = (start..start + rows.len()).collect();
                e.delete(&ids).unwrap();
                let after: Vec<Option<Moments>> =
                    e.states.iter().flatten().map(|p| p.moments.clone()).collect();
                // Debug renders f64 at round-trip precision, so equal
                // strings mean bit-identical statistics.
                prop_assert_eq!(format!("{before:?}"), format!("{after:?}"));
            }
        }
    }

    #[test]
    fn a_row_only_a_repaired_rule_covers_routes_to_it_next_batch() {
        let mut e = engine(160);
        // A new regime past the discovered range: repair learns rules
        // for it and splices them in after the kept ones.
        let batch: Vec<Vec<Value>> = (160..240).map(|i| row(i as f64, 5.0 * i as f64)).collect();
        e.append(&batch).unwrap();
        let report = e.repair().unwrap();
        assert!(report.discovered_rules > 0);
        assert!(!e.needs_repair());

        // One more row of the new regime, which only repaired rules claim.
        let probe = e.table().num_rows() as u32;
        let out = e.append(&[row(238.5, 5.0 * 238.5)]).unwrap();
        let covering: Vec<usize> = (0..e.rules().len())
            .filter(|&ri| e.rules().rules()[ri].covers(e.table(), probe as usize))
            .collect();
        assert!(!covering.is_empty());
        assert!(
            covering.iter().all(|&ri| ri >= report.kept_rules),
            "kept rules {} also cover the probe: {covering:?}",
            report.kept_rules
        );
        assert_eq!(out.uncovered, 0);
        assert_eq!(out.routed_pairs, covering.len());
        assert_eq!(out.violations, 0);
        for &ri in &covering {
            let ci = e.rules().rules()[ri]
                .condition()
                .conjuncts()
                .iter()
                .position(|c| c.eval(e.table(), probe as usize))
                .unwrap();
            assert_eq!(e.members[ri][ci].last(), Some(&probe), "rule {ri}");
        }
    }

    /// The routing oracle: every conjunction evaluated by the interpreter,
    /// the first match per rule kept, the monitor through `Crr::predict`.
    fn oracle_route(e: &StreamEngine, ids: &[u32], monitor: bool) -> Routed {
        let t = &e.table;
        let mut out = Routed::default();
        for (i, &r) in ids.iter().enumerate() {
            let row = r as usize;
            let ready = e
                .cfg
                .inputs
                .iter()
                .chain([&e.cfg.target])
                .all(|&a| t.value_f64(row, a).is_some_and(f64::is_finite));
            let mut covered = false;
            for (ri, rule) in e.rules.rules().iter().enumerate() {
                let Some(ci) = rule
                    .condition()
                    .conjuncts()
                    .iter()
                    .position(|c| c.eval(t, row))
                else {
                    continue;
                };
                covered = true;
                out.routed_pairs += 1;
                out.claimed.entry((ri, ci)).or_default().push(r);
                if ready {
                    out.buckets.entry((ri, ci)).or_default().push(i as u32);
                }
                if !monitor {
                    continue;
                }
                let (Some(pred), Some(actual)) =
                    (rule.predict(t, row), t.value_f64(row, rule.target()))
                else {
                    continue;
                };
                if (actual - pred).abs() > rule.rho() + TOLERANCE {
                    out.violations += 1;
                    if out.violated_rules.last() != Some(&ri) {
                        out.violated_rules.push(ri);
                    }
                }
            }
            if !covered {
                out.uncovered.push(r);
            }
        }
        out.violated_rules.dedup();
        out
    }

    /// Routes `ids` on the engine's current state, checks every field
    /// against the oracle, and returns the oracle's routing.
    fn assert_route_matches_oracle(
        e: &StreamEngine,
        ids: &[u32],
        monitor: bool,
        ctx: &str,
    ) -> Routed {
        let got = e.route(ids, &e.gather(ids), monitor);
        let want = oracle_route(e, ids, monitor);
        assert_eq!(got.claimed, want.claimed, "{ctx}: claimed rows");
        assert_eq!(got.buckets, want.buckets, "{ctx}: buckets");
        assert_eq!(got.uncovered, want.uncovered, "{ctx}: uncovered rows");
        assert_eq!(got.routed_pairs, want.routed_pairs, "{ctx}: routed pairs");
        assert_eq!(got.violations, want.violations, "{ctx}: violations");
        assert_eq!(
            got.violated_rules, want.violated_rules,
            "{ctx}: violated rules"
        );
        want
    }

    /// SplitMix64, so every case is reproducible from its seed.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn chance(&mut self, percent: u64) -> bool {
            self.below(100) < percent
        }

        fn pick<'v>(&mut self, from: &'v [&'v str]) -> &'v str {
            from[self.below(from.len() as u64) as usize]
        }
    }

    /// Schema of the routing property test: `k` is the attribute most
    /// conjunctions bound (the indexed one, unless a case draws a rule set
    /// without an indexable attribute), `s` a string condition attribute,
    /// `i` an integer one, `x` the input and `y` the target.
    const K: AttrId = AttrId(0);
    const S: AttrId = AttrId(1);
    const I: AttrId = AttrId(2);
    const X: AttrId = AttrId(3);
    const Y: AttrId = AttrId(4);

    /// A random row. `words` are the strings `s` may take: appended
    /// batches draw from a wider set, growing the dictionary.
    fn random_row(rng: &mut Rng, words: &[&str]) -> Vec<Value> {
        let k = match rng.below(10) {
            0 => Value::Null,
            1 => Value::Float(f64::NAN),
            _ => Value::Float(rng.below(40) as f64 / 2.0),
        };
        let s = if rng.chance(8) {
            Value::Null
        } else {
            Value::from(rng.pick(words))
        };
        let i = if rng.chance(8) {
            Value::Null
        } else {
            Value::Int(rng.below(10) as i64)
        };
        let x = rng.below(20) as f64;
        let y = match rng.below(12) {
            0 => Value::Null,
            1 => Value::Float(f64::NAN),
            _ => Value::Float(2.0 * x + rng.below(5) as f64 - 2.0),
        };
        vec![k, s, i, Value::Float(x), y]
    }

    /// A random predicate; `bound_k` forces an interval bound on `k`.
    fn random_pred(rng: &mut Rng, bound_k: bool) -> Predicate {
        let ops = [Op::Eq, Op::Ne, Op::Gt, Op::Ge, Op::Lt, Op::Le];
        let op = ops[rng.below(6) as usize];
        if bound_k {
            let c = Value::Float(rng.below(40) as f64 / 2.0);
            let op = [Op::Gt, Op::Ge, Op::Lt, Op::Le, Op::Eq][rng.below(5) as usize];
            return Predicate::new(K, op, c);
        }
        match rng.below(7) {
            0 => Predicate::new(K, op, Value::Float(rng.below(40) as f64 / 2.0)),
            // "d" and "e" enter the dictionary only in appended batches.
            1 | 2 => Predicate::new(S, op, Value::from(rng.pick(&["a", "b", "bb", "d", "e"]))),
            3 => Predicate::new(I, op, Value::Int(rng.below(10) as i64)),
            4 => Predicate::new(I, op, Value::Float(rng.below(20) as f64 / 2.0)),
            5 => match rng.below(4) {
                0 => Predicate::is_null(K),
                1 => Predicate::not_null(K),
                2 => Predicate::is_null(S),
                _ => Predicate::not_null(I),
            },
            _ => Predicate::new(X, op, Value::Float(rng.below(20) as f64)),
        }
    }

    /// A random rule set over `x → y`: several conjuncts per rule, some
    /// with translated built-ins. With `indexable` most conjuncts bound
    /// `k`; otherwise none does.
    fn random_rules(rng: &mut Rng, indexable: bool) -> RuleSet {
        let n_rules = 1 + rng.below(7) as usize;
        let rules = (0..n_rules)
            .map(|_| {
                let n_conj = 1 + rng.below(4) as usize;
                let conjuncts = (0..n_conj)
                    .map(|_| {
                        let mut preds = Vec::new();
                        if indexable && rng.chance(85) {
                            for _ in 0..1 + rng.below(3) {
                                preds.push(random_pred(rng, true));
                            }
                        }
                        for _ in 0..rng.below(3) {
                            let p = random_pred(rng, false);
                            if indexable || p.attr != K {
                                preds.push(p);
                            }
                        }
                        if rng.chance(40) {
                            let t = Translation {
                                delta_x: vec![rng.below(5) as f64 - 2.0],
                                delta_y: rng.below(5) as f64 - 2.0,
                            };
                            Conjunction::with_builtin(preds, t)
                        } else {
                            Conjunction::of(preds)
                        }
                    })
                    .collect();
                let model = crr_models::Model::Linear(crr_models::LinearModel::new(
                    vec![rng.below(5) as f64 / 2.0],
                    rng.below(5) as f64 - 2.0,
                ));
                Crr::new(
                    vec![X],
                    Y,
                    std::sync::Arc::new(model),
                    rng.below(4) as f64,
                    Dnf::of(conjuncts),
                )
                .unwrap()
            })
            .collect();
        RuleSet::from_rules(rules)
    }

    /// Seeded property test: over random tables and rule sets, every
    /// append and delete batch routes exactly as the interpreted oracle
    /// does — claimed rows, buckets, uncovered rows, routed pairs,
    /// violations and violated rules — and the batch outcomes report the
    /// oracle's counts.
    #[test]
    fn routing_matches_the_interpreted_oracle() {
        let mut seen_indexed = 0;
        let mut seen_fallback = 0;
        let mut seen_new_words = 0;
        // Routed pairs, violations and uncovered rows over all appends.
        let mut seen = (0, 0, 0);
        for seed in 0..96u64 {
            let mut rng = Rng(seed);
            let schema = Schema::new(vec![
                ("k", AttrType::Float),
                ("s", AttrType::Str),
                ("i", AttrType::Int),
                ("x", AttrType::Float),
                ("y", AttrType::Float),
            ]);
            let mut t = Table::new(schema);
            for _ in 0..40 {
                t.push_row(random_row(&mut rng, &["a", "b", "c"])).unwrap();
            }
            let indexable = rng.chance(75);
            let rules = random_rules(&mut rng, indexable);
            let space = PredicateGen::binary(3).generate(&t, &[K], Y, 1);
            let cfg = DiscoveryConfig::new(vec![X], Y, 1.0);
            let mut e = StreamEngine::new(t, rules, cfg, space, StreamConfig::default()).unwrap();
            if e.plan.indexed_attr().is_some() {
                seen_indexed += 1;
            } else {
                seen_fallback += 1;
            }
            for step in 0..6 {
                let ctx = format!("seed {seed} step {step}");
                if step % 2 == 0 || e.live_count() < 10 {
                    let rows: Vec<Vec<Value>> = (0..1 + rng.below(24))
                        .map(|_| random_row(&mut rng, &["a", "b", "c", "d", "e"]))
                        .collect();
                    let dict_len =
                        |e: &StreamEngine| e.table.column(S).dict().map_or(0, |d| d.len());
                    let words = dict_len(&e);
                    let start = e.table.num_rows() as u32;
                    let out = e.append(&rows).unwrap();
                    if dict_len(&e) > words {
                        seen_new_words += 1;
                    }
                    let ids: Vec<u32> = (start..e.table.num_rows() as u32).collect();
                    let want = assert_route_matches_oracle(&e, &ids, true, &ctx);
                    seen.0 += want.routed_pairs;
                    seen.1 += want.violations;
                    seen.2 += want.uncovered.len();
                    assert_eq!(out.routed_pairs, want.routed_pairs, "{ctx}");
                    assert_eq!(out.uncovered, want.uncovered.len(), "{ctx}");
                    assert_eq!(out.violations, want.violations, "{ctx}");
                } else {
                    let live: Vec<u32> = e.live_rows().iter().map(|r| r as u32).collect();
                    let ids: Vec<u32> = live.iter().copied().filter(|_| rng.chance(30)).collect();
                    let want = assert_route_matches_oracle(&e, &ids, false, &ctx);
                    let rows: Vec<usize> = ids.iter().map(|&r| r as usize).collect();
                    let out = e.delete(&rows).unwrap();
                    assert_eq!(out.routed_pairs, want.routed_pairs, "{ctx}");
                }
            }
        }
        assert!(
            seen_indexed > 0 && seen_fallback > 0,
            "{seen_indexed} indexed, {seen_fallback} fallback"
        );
        assert!(seen_new_words > 0, "no batch grew the dictionary");
        assert!(
            seen.0 > 0 && seen.1 > 0 && seen.2 > 0,
            "pairs, violations, uncovered: {seen:?}"
        );
    }

    #[test]
    fn stream_metrics_are_recorded() {
        let sink = MetricsSink::enabled();
        let (t, cfg, space) = seed(160);
        let rules = DiscoverySession::on(&t)
            .predicates(space.clone())
            .config(cfg.clone())
            .run()
            .unwrap()
            .rules;
        let mut e = StreamEngine::new(
            t,
            rules,
            cfg,
            space,
            StreamConfig::default().with_metrics(sink.clone()),
        )
        .unwrap();
        let batch: Vec<Vec<Value>> = (160..180)
            .map(|i| row(i as f64, 2.0 * i as f64 + 1.0))
            .collect();
        e.append(&batch).unwrap();
        e.delete(&[0, 1]).unwrap();
        let snap = sink.snapshot();
        assert_eq!(snap.count("stream", "batches"), Some(2));
        assert_eq!(snap.count("stream", "append_rows"), Some(20));
        assert_eq!(snap.count("stream", "delete_rows"), Some(2));
        assert!(snap.count("stream", "routed_pairs").unwrap() > 0);
        assert!(snap.count("stream", "moments_updates").unwrap() > 0);
        assert_eq!(snap.count("stream", "live_rows"), Some(178));
        assert!(snap.secs("phases", "stream_apply_secs").unwrap() > 0.0);
    }

    /// Appends that no rule covers because a condition attribute is null
    /// stay uncovered through a repair, and the repaired set holds on
    /// every live row. Base: 160 rows with `x = z = i`, `y = 2x + 1` below
    /// 80 and `−x + 400` from 80, inputs `[x]`, conditions on `z` (the
    /// second case adds a condition `z2 = x` that is never null). Appends:
    /// 40 rows of a third regime, `y = −3x + 500` at `x = 40..79`, whose
    /// `z` is null.
    #[test]
    fn null_condition_appends_stay_uncovered_through_repair() {
        for with_z2 in [false, true] {
            let cells = |x: f64, z: Value, y: f64| {
                let mut cells = vec![Value::Float(x), z];
                if with_z2 {
                    cells.push(Value::Float(x));
                }
                cells.push(Value::Float(y));
                cells
            };
            let mut attrs = vec![("x", AttrType::Float), ("z", AttrType::Float)];
            if with_z2 {
                attrs.push(("z2", AttrType::Float));
            }
            attrs.push(("y", AttrType::Float));
            let mut t = Table::new(Schema::new(attrs));
            for i in 0..160 {
                let x = i as f64;
                let y = if i < 80 { 2.0 * x + 1.0 } else { -x + 400.0 };
                t.push_row(cells(x, Value::Float(x), y)).unwrap();
            }
            let (x, y) = (t.attr("x").unwrap(), t.attr("y").unwrap());
            let mut conds = vec![t.attr("z").unwrap()];
            conds.extend(t.attr("z2"));
            let space = PredicateGen::binary(7).generate(&t, &conds, y, 1);
            let cfg = DiscoveryConfig::new(vec![x], y, 0.25);
            let rules = DiscoverySession::on(&t)
                .predicates(space.clone())
                .config(cfg.clone())
                .run()
                .unwrap()
                .rules;
            let mut e = StreamEngine::new(t, rules, cfg, space, StreamConfig::default()).unwrap();
            let batch: Vec<Vec<Value>> = (40..80)
                .map(|i| cells(i as f64, Value::Null, -3.0 * i as f64 + 500.0))
                .collect();
            let out = e.append(&batch).unwrap();
            e.repair().unwrap();
            let ctx = format!("z2: {with_z2}");
            assert_eq!(out.uncovered, 40, "{ctx}");
            assert!(!e.needs_repair(), "{ctx}");
            let report = crr_core::check(e.rules(), e.table(), &e.live_rows());
            assert!(
                report.is_clean(),
                "{ctx}: {} violations, first {:?}",
                report.violations.len(),
                report.violations.first()
            );
            assert_eq!(report.uncovered, 40, "{ctx}");
        }
    }

    /// `(row, rule)` pairs where a live row strays from a rule covering
    /// it by more than the rule's `ρ` plus the drift tolerance, yet
    /// [`StreamEngine::drift`] does not list the rule.
    fn unflagged_violations(e: &StreamEngine) -> Vec<(usize, usize)> {
        let drifted = e.drift().drifted;
        let t = e.table();
        let mut out = Vec::new();
        for row in e.live_rows().iter() {
            for (ri, rule) in e.rules().rules().iter().enumerate() {
                let (Some(pred), Some(actual)) =
                    (rule.predict(t, row), t.value_f64(row, rule.target()))
                else {
                    continue;
                };
                if (actual - pred).abs() > rule.rho() + TOLERANCE
                    && drifted.binary_search(&ri).is_err()
                {
                    out.push((row, ri));
                }
            }
        }
        out
    }

    /// A condition cell of the repair property test: null or NaN in
    /// `missing` percent of appended rows, else `v`.
    fn condition_cell(rng: &mut Rng, missing: u64, v: f64) -> Value {
        if !rng.chance(missing) {
            Value::Float(v)
        } else if rng.chance(50) {
            Value::Null
        } else {
            Value::Float(f64::NAN)
        }
    }

    /// Seeded property test: over append/delete/repair sequences whose
    /// appends carry null and NaN condition cells, new regimes and `x`
    /// past the base range, after every step each live row that strays
    /// from a covering rule by more than `ρ` plus the drift tolerance
    /// belongs to a rule [`StreamEngine::drift`] lists.
    #[test]
    fn every_violated_rule_is_flagged_after_every_step() {
        // Repairs that rediscovered rules, and appends left uncovered.
        let mut seen = (0, 0);
        for seed in 0..48u64 {
            let mut rng = Rng(seed);
            let schema = Schema::new(vec![
                ("x", AttrType::Float),
                ("z", AttrType::Float),
                ("w", AttrType::Float),
                ("y", AttrType::Float),
            ]);
            let mut t = Table::new(schema);
            let n = 80 + rng.below(80);
            let cut = (20 + rng.below(n - 40)) as f64;
            let base = |x: f64| if x < cut { 2.0 * x + 1.0 } else { -x + 400.0 };
            for i in 0..n {
                let x = i as f64;
                let w = if rng.chance(10) {
                    Value::Null
                } else {
                    Value::Float((i % 9) as f64)
                };
                t.push_row(vec![
                    Value::Float(x),
                    Value::Float(x),
                    w,
                    Value::Float(base(x)),
                ])
                .unwrap();
            }
            let (x, z, w, y) = (AttrId(0), AttrId(1), AttrId(2), AttrId(3));
            let space = PredicateGen::binary(7).generate(&t, &[z, w], y, 1);
            let cfg = DiscoveryConfig::new(vec![x], y, 0.25);
            let rules = DiscoverySession::on(&t)
                .predicates(space.clone())
                .config(cfg.clone())
                .run()
                .unwrap()
                .rules;
            let mut e = StreamEngine::new(t, rules, cfg, space, StreamConfig::default()).unwrap();
            for step in 0..6 {
                let ctx = format!("seed {seed} step {step}");
                match rng.below(4) {
                    0 | 1 => {
                        // Some rows of another regime, x up to 40 past
                        // the base range.
                        let slope = [2.0, -1.0, -3.0][rng.below(3) as usize];
                        let rows: Vec<Vec<Value>> = (0..1 + rng.below(30))
                            .map(|_| {
                                let x = rng.below(n + 40) as f64;
                                let y = if rng.chance(60) {
                                    base(x)
                                } else {
                                    slope * x + 500.0
                                };
                                let zc = condition_cell(&mut rng, 25, x);
                                let wc = condition_cell(&mut rng, 15, (x as u64 % 9) as f64);
                                vec![Value::Float(x), zc, wc, Value::Float(y)]
                            })
                            .collect();
                        seen.1 += e.append(&rows).unwrap().uncovered;
                    }
                    2 => {
                        let ids: Vec<usize> =
                            e.live_rows().iter().filter(|_| rng.chance(20)).collect();
                        e.delete(&ids).unwrap();
                    }
                    _ => {
                        if e.repair().unwrap().discovered_rules > 0 {
                            seen.0 += 1;
                        }
                    }
                }
                let stray = unflagged_violations(&e);
                assert!(stray.is_empty(), "{ctx}: unflagged (row, rule) {stray:?}");
            }
        }
        assert!(
            seen.0 > 0 && seen.1 > 0,
            "repairs, uncovered appends: {seen:?}"
        );
    }
}
