//! The hot-swappable rule store: an `Arc`-swapped serving set behind the
//! `crr-analyze` admission gate.
//!
//! # Swap protocol
//!
//! Readers take one [`RuleStore::current`] per request: a brief read lock
//! to clone the `Arc`, after which the request works against an immutable
//! [`ServingSet`] for its whole lifetime — a hot swap can never tear a
//! request across two rule sets. Writers build the *entire* candidate
//! (parse, reference check, schema compatibility, static verification)
//! before touching the pointer; the swap itself is a single `Arc`
//! replacement under the write lock. A rejected candidate leaves the
//! previous set serving untouched — rollback is the no-op.
//!
//! # Admission gate
//!
//! [`RuleStore::try_swap`] only admits a candidate when the in-process
//! `crr-analyze` run reports [`crr_analyze::AnalysisReport::is_sound`] —
//! the same verifier CI runs on committed artifacts, now standing between
//! a bad deploy and live traffic. The gate runs the full artifact battery
//! ([`crr_analyze::analyze_artifact`], checks A1–A7): on top of the rule
//! and shard-guard checks, every conjunction is symbolically re-compiled
//! and compared against its source over the abstract domain (A6), and a
//! repaired artifact's [`crr_discovery::RepairObligations`] are audited
//! (A7) — a stream repair whose splice over- or under-claims its affected
//! regions is refused. Candidates that fail to parse, change the serving
//! schema, dangle attribute references, or carry unsound findings (e.g.
//! shard guards with stripped `IS NULL` arms, or repair regions with
//! stripped guards) are counted in `serve.swap_rejected` and never
//! observed by any reader.

use crate::Result;
use crr_analyze::{analyze_artifact, AnalysisReport};
use crr_core::index::IntervalPlan;
use crr_discovery::RuleSetArtifact;
use crr_obs::{Counter, Gauge, MetricsSink};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// An immutable, admitted rule set plus its swap generation. Requests
/// hold one `Arc<ServingSet>` end-to-end.
#[derive(Debug)]
pub struct ServingSet {
    /// The verified artifact (schema + rules + obligations).
    pub artifact: RuleSetArtifact,
    /// Monotone swap generation: the seed set is generation 0, each
    /// accepted swap increments.
    pub generation: u64,
    /// The interval plan of the artifact's rules over its schema, built
    /// by the first request that reads the set: a set swapped out before
    /// any request reads it never pays for one.
    plan: OnceLock<IntervalPlan>,
}

impl ServingSet {
    fn new(artifact: RuleSetArtifact, generation: u64) -> ServingSet {
        ServingSet {
            artifact,
            generation,
            plan: OnceLock::new(),
        }
    }

    /// The set's interval plan, built on the first call. It depends only
    /// on the rules and the schema, so every request table of this set
    /// shares it.
    pub(crate) fn plan(&self) -> &IntervalPlan {
        self.plan
            .get_or_init(|| IntervalPlan::build(&self.artifact.rules, &self.artifact.schema))
    }
}

/// Why a candidate was refused admission.
#[derive(Debug)]
pub enum SwapError {
    /// The candidate text did not parse as a `crr-artifact v1` document
    /// (or dangled attribute references).
    Parse(String),
    /// The candidate's schema differs from the serving schema — clients
    /// encode rows positionally against it, so changing it under them is
    /// refused.
    SchemaMismatch(String),
    /// The verifier found unsound findings; the report travels with the
    /// error so the caller can render them. Boxed: the report (seven
    /// checks' counters + findings) dwarfs the happy path.
    Unsound(Box<AnalysisReport>),
}

impl SwapError {
    /// One-line label for logs and error bodies.
    pub fn reason(&self) -> String {
        match self {
            SwapError::Parse(e) => format!("candidate rejected: {e}"),
            SwapError::SchemaMismatch(e) => format!("candidate rejected: {e}"),
            SwapError::Unsound(report) => {
                let first = report
                    .findings
                    .iter()
                    .find(|f| f.severity == crr_analyze::Severity::Unsound)
                    .map(|f| f.message.clone())
                    .unwrap_or_default();
                format!(
                    "candidate rejected: {} unsound finding(s), first: {first}",
                    report.summary().unsound
                )
            }
        }
    }
}

/// The swappable store. Cheap to share (`Arc<RuleStore>`); all methods
/// take `&self`.
#[derive(Debug)]
pub struct RuleStore {
    current: RwLock<Arc<ServingSet>>,
    generation: AtomicU64,
    metrics: MetricsSink,
}

impl RuleStore {
    /// Opens a store over `artifact`, running the same admission gate a
    /// swap would — a server can never start on a rule set it would have
    /// refused to swap to.
    pub fn open(artifact: RuleSetArtifact, metrics: MetricsSink) -> Result<Self> {
        admit(&artifact)?;
        let store = RuleStore {
            current: RwLock::new(Arc::new(ServingSet::new(artifact, 0))),
            generation: AtomicU64::new(0),
            metrics,
        };
        store.publish_gauges();
        Ok(store)
    }

    /// The serving set for one request. Immutable for as long as the
    /// caller holds the `Arc`, whatever swaps happen meanwhile.
    pub fn current(&self) -> Arc<ServingSet> {
        // A poisoned lock would mean a writer panicked between building
        // the Arc and storing it — the stored value is still a complete,
        // previously-admitted set, so serving from it stays sound.
        match self.current.read() {
            Ok(g) => Arc::clone(&g),
            Err(poisoned) => Arc::clone(&poisoned.into_inner()),
        }
    }

    /// Generation of the currently-served set.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// The store's metrics sink.
    pub fn metrics(&self) -> &MetricsSink {
        &self.metrics
    }

    /// Parses and admits `text` as the next serving set. On success the
    /// new set is visible to all subsequent [`RuleStore::current`] calls
    /// and `serve.swap_accepted` increments; on any failure the previous
    /// set keeps serving and `serve.swap_rejected` increments.
    pub fn try_swap_text(&self, text: &str) -> Result<Arc<ServingSet>> {
        let artifact = match RuleSetArtifact::from_text(text) {
            Ok(a) => a,
            Err(e) => {
                self.metrics.incr(Counter::ServeSwapRejected);
                return Err(crate::ServeError::Swap(SwapError::Parse(e.to_string())));
            }
        };
        self.try_swap(artifact)
    }

    /// [`RuleStore::try_swap_text`] for an already-parsed candidate.
    pub fn try_swap(&self, artifact: RuleSetArtifact) -> Result<Arc<ServingSet>> {
        let outcome = self.admit_against_current(&artifact);
        if let Err(e) = outcome {
            self.metrics.incr(Counter::ServeSwapRejected);
            return Err(e);
        }
        let next = {
            let mut slot = match self.current.write() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            // Numbered and published under the write lock: concurrent
            // swaps get distinct generations, and a reader that sees the
            // new set also sees `generation()` at least as far.
            let next = Arc::new(ServingSet::new(artifact, slot.generation + 1));
            *slot = Arc::clone(&next);
            self.generation.store(next.generation, Ordering::Release);
            next
        };
        self.metrics.incr(Counter::ServeSwapAccepted);
        self.publish_gauges();
        Ok(next)
    }

    fn admit_against_current(&self, candidate: &RuleSetArtifact) -> Result<()> {
        let serving = self.current();
        if candidate.schema != serving.artifact.schema {
            return Err(crate::ServeError::Swap(SwapError::SchemaMismatch(
                "candidate schema differs from the serving schema".to_string(),
            )));
        }
        admit(candidate)
    }

    fn publish_gauges(&self) {
        let set = self.current();
        self.metrics
            .set_gauge(Gauge::ServeGeneration, set.generation);
        self.metrics
            .set_gauge(Gauge::ServeRules, set.artifact.rules.len() as u64);
    }
}

/// The admission gate itself: reference hygiene plus the full static
/// verification (A1–A7), in-process. A6 compiles against an empty table
/// of the artifact's own schema, so the gate stays row-free.
fn admit(artifact: &RuleSetArtifact) -> Result<()> {
    artifact
        .check_refs()
        .map_err(|e| crate::ServeError::Swap(SwapError::Parse(e.to_string())))?;
    let report = analyze_artifact(artifact);
    if report.is_sound() {
        Ok(())
    } else {
        Err(crate::ServeError::Swap(SwapError::Unsound(Box::new(
            report,
        ))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crr_core::{Conjunction, Crr, Dnf, Predicate, RuleSet};
    use crr_data::{AttrId, AttrType, Schema};
    use crr_models::{LinearModel, Model};

    fn artifact() -> RuleSetArtifact {
        let schema = Schema::new(vec![("x", AttrType::Float), ("y", AttrType::Float)]);
        let x = AttrId(0);
        let rule = Crr::new(
            vec![x],
            AttrId(1),
            Arc::new(Model::Linear(LinearModel::new(vec![2.0], 0.0))),
            0.5,
            Dnf::single(Conjunction::of(vec![Predicate::not_null(x)])),
        )
        .unwrap();
        RuleSetArtifact::new(schema, RuleSet::from_rules(vec![rule]), None).unwrap()
    }

    #[test]
    fn open_then_swap_increments_generation() {
        let sink = MetricsSink::enabled();
        let store = RuleStore::open(artifact(), sink.clone()).unwrap();
        assert_eq!(store.generation(), 0);
        let next = store.try_swap_text(&artifact().to_text()).unwrap();
        assert_eq!(next.generation, 1);
        assert_eq!(store.current().generation, 1);
        let snap = sink.snapshot();
        assert_eq!(snap.count("serve", "swap_accepted"), Some(1));
        assert_eq!(snap.count("serve", "swap_rejected"), Some(0));
        assert_eq!(snap.count("serve", "generation"), Some(1));
    }

    #[test]
    fn unparseable_candidate_rejected_and_old_set_serves() {
        let sink = MetricsSink::enabled();
        let store = RuleStore::open(artifact(), sink.clone()).unwrap();
        let before = store.current();
        let err = store.try_swap_text("garbage, not an artifact").unwrap_err();
        assert!(err.to_string().contains("rejected"));
        assert!(Arc::ptr_eq(&before, &store.current()));
        assert_eq!(sink.snapshot().count("serve", "swap_rejected"), Some(1));
    }

    #[test]
    fn schema_change_rejected() {
        let store = RuleStore::open(artifact(), MetricsSink::enabled()).unwrap();
        let mut other = artifact();
        other.schema = Schema::new(vec![("x", AttrType::Float), ("z", AttrType::Float)]);
        let err = store.try_swap(other).unwrap_err();
        assert!(err.to_string().contains("schema"));
        assert_eq!(store.generation(), 0);
    }

    #[test]
    fn dangling_reference_candidate_rejected() {
        let store = RuleStore::open(artifact(), MetricsSink::enabled()).unwrap();
        // Hand-craft an artifact text whose rule targets #7.
        let text = "crr-artifact v1\nattr float x\nattr float y\nrules\ncrr-ruleset v1\nrule target=#7 inputs=#0 rho=0.5 model=const 1\nconj pred #0 not-null n:\nend\n";
        assert!(store.try_swap_text(text).is_err());
        assert_eq!(store.generation(), 0);
    }

    #[test]
    fn repair_with_stripped_region_guard_is_refused() {
        use crr_data::Value;
        use crr_discovery::{RepairObligations, RepairRegion};

        let schema = Schema::new(vec![("x", AttrType::Float), ("y", AttrType::Float)]);
        let x = AttrId(0);
        let m = Arc::new(Model::Linear(LinearModel::new(vec![2.0], 0.0)));
        let conj = |lo: f64, hi: f64| {
            Conjunction::of(vec![
                Predicate::ge(x, Value::Float(lo)),
                Predicate::lt(x, Value::Float(hi)),
            ])
        };
        let rule = |c: Conjunction, rho: f64| {
            Crr::new(vec![x], AttrId(1), Arc::clone(&m), rho, Dnf::single(c)).unwrap()
        };
        let kept = rule(conj(0.0, 10.0), 0.5);
        let repaired = rule(conj(10.0, 20.0), 0.4);
        let guards = repaired.condition().conjuncts()[0].preds().to_vec();
        let obligations = RepairObligations {
            kept: 1,
            regions: vec![RepairRegion {
                region_id: 0,
                rule: 1,
                conjunct: 0,
                guards,
            }],
        };

        // The honest repair swaps in ...
        let honest = RuleSetArtifact::new(
            schema.clone(),
            RuleSet::from_rules(vec![kept.clone(), repaired]),
            None,
        )
        .unwrap()
        .with_repair(obligations.clone())
        .unwrap();
        let store = RuleStore::open(artifact2(schema.clone()), MetricsSink::enabled()).unwrap();
        store.try_swap_text(&honest.to_text()).unwrap();

        // ... but the same splice with its repaired rule widened past the
        // claimed region (the stripped-guard mutant) is refused.
        let mutated = RuleSetArtifact::new(
            schema,
            RuleSet::from_rules(vec![kept, rule(Conjunction::top(), 0.4)]),
            None,
        )
        .unwrap()
        .with_repair(obligations)
        .unwrap();
        let err = store.try_swap_text(&mutated.to_text()).unwrap_err();
        assert!(
            err.to_string().contains("unsound"),
            "expected unsound rejection, got: {err}"
        );
        assert_eq!(store.generation(), 1, "the honest repair keeps serving");
    }

    /// An open-ended seed artifact over `schema` the repair fixtures can
    /// swap away from.
    fn artifact2(schema: Schema) -> RuleSetArtifact {
        let x = AttrId(0);
        let rule = Crr::new(
            vec![x],
            AttrId(1),
            Arc::new(Model::Linear(LinearModel::new(vec![2.0], 0.0))),
            0.5,
            Dnf::single(Conjunction::of(vec![Predicate::not_null(x)])),
        )
        .unwrap();
        RuleSetArtifact::new(schema, RuleSet::from_rules(vec![rule]), None).unwrap()
    }

    #[test]
    fn concurrent_readers_see_complete_sets() {
        let store = Arc::new(RuleStore::open(artifact(), MetricsSink::enabled()).unwrap());
        let mut readers = Vec::new();
        for _ in 0..4 {
            let s = Arc::clone(&store);
            readers.push(std::thread::spawn(move || {
                for _ in 0..2000 {
                    let set = s.current();
                    // A set is immutable once obtained: length and
                    // generation are consistent however the swap races.
                    assert_eq!(set.artifact.rules.len(), 1);
                    assert!(set.generation <= s.generation());
                }
            }));
        }
        for _ in 0..50 {
            store.try_swap(artifact()).unwrap();
        }
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(store.generation(), 50);
    }

    #[test]
    fn concurrent_writers_get_distinct_generations() {
        let store = Arc::new(RuleStore::open(artifact(), MetricsSink::enabled()).unwrap());
        let writers: Vec<_> = (0..4)
            .map(|_| {
                let s = Arc::clone(&store);
                std::thread::spawn(move || {
                    (0..250)
                        .map(|_| s.try_swap(artifact()).unwrap().generation)
                        .collect::<Vec<u64>>()
                })
            })
            .collect();
        let mut generations: Vec<u64> = writers
            .into_iter()
            .flat_map(|w| w.join().unwrap())
            .collect();
        let accepted = generations.len() as u64;
        generations.sort_unstable();
        generations.dedup();
        assert_eq!(
            generations.len() as u64,
            accepted,
            "a generation was shared"
        );
        assert_eq!(store.generation(), accepted);
        assert_eq!(store.current().generation, accepted);
    }
}
