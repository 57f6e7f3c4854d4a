//! Multi-target parallel discovery (used by the column-scalability
//! experiment, Figure 7: "we find CRRs for all attributes").
//!
//! Discovery runs are independent per target, so this is a straightforward
//! scoped-thread fan-out over the same immutable table — no channels, one
//! mutex-guarded (but uncontended) result slot per target. Each task is
//! panic-isolated: a
//! poisoned fit (solver bug, injected fault) becomes that task's
//! [`DiscoveryError::TaskPanicked`] while every other target completes
//! normally.

use crate::search::run_search;
use crate::{Discovery, DiscoveryConfig, DiscoveryError, PredicateSpace, Result};
use crr_data::{RowSet, Table};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// One discovery task: a configuration plus its predicate space.
#[derive(Debug, Clone)]
pub struct Task {
    /// Discovery configuration (target, inputs, ρ_M, family, …).
    pub config: DiscoveryConfig,
    /// Predicate space for this target.
    pub space: PredicateSpace,
}

/// Runs every task over the same `rows` of `table`, in parallel with up to
/// `threads` workers (1 = sequential). Results come back in task order.
/// The body behind [`crate::DiscoverySession::run_all`].
pub(crate) fn discover_all(
    table: &Table,
    rows: &RowSet,
    tasks: &[Task],
    threads: usize,
) -> Vec<Result<Discovery>> {
    if threads <= 1 || tasks.len() <= 1 {
        return tasks
            .iter()
            .enumerate()
            .map(|(i, t)| run_isolated(table, rows, t, i))
            .collect();
    }
    // One mutex-guarded slot per task: each index is claimed (and so
    // written) exactly once, so the locks never contend — they only make
    // the disjoint-index writes safe without raw pointers.
    let slots: Vec<Mutex<Option<Result<Discovery>>>> =
        tasks.iter().map(|_| Mutex::new(None)).collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        // Work-stealing over a shared index: each worker claims the next
        // unprocessed task until none remain.
        let (next, slots) = (&next, &slots);
        for _ in 0..threads.min(tasks.len()) {
            scope.spawn(move || loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= tasks.len() {
                    break;
                }
                let out = run_isolated(table, rows, &tasks[i], i);
                *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            let r = slot.into_inner().unwrap_or_else(|e| e.into_inner());
            r.unwrap_or_else(|| {
                // Unreachable: the claim loop covers every index. Typed
                // error rather than panic, to honor the isolation contract.
                Err(DiscoveryError::TaskPanicked {
                    task: i,
                    message: "result slot never written".to_string(),
                })
            })
        })
        .collect()
}

/// Runs one task, converting a panic anywhere inside `discover` (a
/// poisoned solver, an injected fault) into that task's
/// [`DiscoveryError::TaskPanicked`]. `discover` only reads the shared
/// table and a panicking run's partial state is discarded wholesale, so
/// resuming after the unwind is sound.
fn run_isolated(table: &Table, rows: &RowSet, task: &Task, index: usize) -> Result<Discovery> {
    catch_unwind(AssertUnwindSafe(|| {
        run_search(table, rows, &task.config, &task.space, None).map(|r| r.discovery)
    }))
    .unwrap_or_else(|payload| {
        task.config.metrics.incr(crr_obs::Counter::TaskPanics);
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        Err(DiscoveryError::TaskPanicked {
            task: index,
            message,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PredicateGen;
    use crr_core::LocateStrategy;
    use crr_data::{AttrType, Schema, Value};

    fn table() -> Table {
        let schema = Schema::new(vec![
            ("x", AttrType::Float),
            ("y1", AttrType::Float),
            ("y2", AttrType::Float),
            ("y3", AttrType::Float),
        ]);
        let mut t = Table::new(schema);
        for i in 0..150 {
            let x = i as f64;
            t.push_row(vec![
                Value::Float(x),
                Value::Float(2.0 * x),
                Value::Float(if x < 75.0 { x } else { x + 30.0 }),
                Value::Float(-x + 5.0),
            ])
            .unwrap();
        }
        t
    }

    fn tasks(t: &Table) -> Vec<Task> {
        let x = t.attr("x").unwrap();
        ["y1", "y2", "y3"]
            .iter()
            .map(|name| {
                let target = t.attr(name).unwrap();
                Task {
                    config: DiscoveryConfig::new(vec![x], target, 0.5),
                    space: PredicateGen::binary(7).generate(t, &[x], target, 1),
                }
            })
            .collect()
    }

    #[test]
    fn parallel_matches_sequential() {
        let t = table();
        let ts = tasks(&t);
        let seq = discover_all(&t, &t.all_rows(), &ts, 1);
        let par = discover_all(&t, &t.all_rows(), &ts, 4);
        assert_eq!(seq.len(), par.len());
        for (s, p) in seq.iter().zip(&par) {
            let (s, p) = (s.as_ref().unwrap(), p.as_ref().unwrap());
            assert_eq!(s.rules.len(), p.rules.len());
            for (rs, rp) in s.rules.rules().iter().zip(p.rules.rules()) {
                assert_eq!(rs.condition(), rp.condition());
            }
        }
    }

    #[test]
    fn all_targets_covered_and_accurate() {
        let t = table();
        let results = discover_all(&t, &t.all_rows(), &tasks(&t), 3);
        for r in results {
            let d = r.unwrap();
            assert!(d.rules.uncovered(&t, &t.all_rows()).is_empty());
            let rep = d.rules.evaluate(&t, &t.all_rows(), LocateStrategy::First);
            assert!(rep.rmse < 1e-9);
        }
    }

    #[test]
    fn panicking_task_is_isolated() {
        use crate::FaultPlan;
        use crr_obs::MetricsSink;
        use std::sync::Arc;
        let t = table();
        let mut ts = tasks(&t);
        // Poison the middle task: its very first fit panics.
        ts[1].config.faults = Some(Arc::new(FaultPlan::new().panic_fit_every(1)));
        let sink = MetricsSink::enabled();
        ts[1].config.metrics = sink.clone();
        for threads in [1, 3] {
            let results = discover_all(&t, &t.all_rows(), &ts, threads);
            assert_eq!(results.len(), 3);
            match &results[1] {
                Err(DiscoveryError::TaskPanicked { task: 1, message }) => {
                    assert!(message.contains("injected fit panic"), "{message}");
                }
                other => panic!("expected TaskPanicked, got {other:?}"),
            }
            // Sibling targets are untouched by the poisoned task.
            for i in [0, 2] {
                let d = results[i].as_ref().unwrap();
                assert!(d.outcome.is_complete());
                assert!(d.rules.uncovered(&t, &t.all_rows()).is_empty());
            }
        }
        // Both runs (sequential and 3-thread) hit the catch_unwind branch.
        let snap = sink.snapshot();
        assert_eq!(snap.count("faults", "task_panics"), Some(2));
    }

    #[test]
    fn more_threads_than_tasks_is_fine() {
        let t = table();
        let results = discover_all(&t, &t.all_rows(), &tasks(&t)[..1], 8);
        assert_eq!(results.len(), 1);
        assert!(results[0].is_ok());
    }
}
