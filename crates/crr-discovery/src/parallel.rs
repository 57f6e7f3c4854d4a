//! Multi-target parallel discovery (used by the column-scalability
//! experiment, Figure 7: "we find CRRs for all attributes"), and the one
//! isolated job runner it shares with sharded discovery.
//!
//! `run_isolated` is a scoped-thread fan-out over immutable inputs — no
//! channels, one mutex-guarded (but uncontended) result slot per job.
//! Each job is panic-isolated: a poisoned fit (solver bug, injected
//! fault) becomes that job's [`DiscoveryError::TaskPanicked`] while every
//! other job completes normally.

use crate::search::run_search;
use crate::{Discovery, DiscoveryConfig, DiscoveryError, PredicateSpace, Result};
use crr_data::{RowSet, Table};
use crr_obs::{Counter, MetricsSink};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
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
    let order: Vec<usize> = (0..tasks.len()).collect();
    run_isolated(
        &order,
        threads,
        |i| (i, &tasks[i].config.metrics),
        |i| {
            let task = &tasks[i];
            run_search(table, rows, &task.config, &task.space, None).map(|r| r.discovery)
        },
    )
}

/// Runs jobs `0..order.len()` on up to `threads` workers and returns
/// their results by job index.
///
/// * Workers claim jobs in `order` over a shared index. Results land in
///   slots by job index, so the claim order never changes the output.
/// * The calling thread would only wait for the others, so it is one of
///   the workers: `w` concurrent jobs start `w − 1` threads.
/// * A job that panics yields [`DiscoveryError::TaskPanicked`] under the
///   task id `owner(j)` names, counted as `faults.task_panics` on the sink
///   it names; every other job is untouched. Jobs only read shared inputs
///   and a panicking job's partial state is discarded wholesale, so
///   resuming after the unwind is sound.
pub(crate) fn run_isolated<'s, T: Send>(
    order: &[usize],
    threads: usize,
    owner: impl Fn(usize) -> (usize, &'s MetricsSink) + Sync,
    job: impl Fn(usize) -> Result<T> + Sync,
) -> Vec<Result<T>> {
    let slots: Vec<Mutex<Option<Result<T>>>> = order.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let run = |j: usize| {
        catch_unwind(AssertUnwindSafe(|| job(j))).unwrap_or_else(|payload| {
            let (task, metrics) = owner(j);
            metrics.incr(Counter::TaskPanics);
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err(DiscoveryError::TaskPanicked { task, message })
        })
    };
    let claim = || {
        while let Some(&j) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
            let out = run(j);
            *slots[j].lock().unwrap_or_else(|e| e.into_inner()) = Some(out);
        }
    };
    std::thread::scope(|scope| {
        for _ in 1..threads.min(order.len()) {
            scope.spawn(claim);
        }
        claim();
    });
    slots
        .into_iter()
        .enumerate()
        .map(|(j, slot)| {
            let out = slot.into_inner().unwrap_or_else(|e| e.into_inner());
            out.unwrap_or_else(|| {
                // Unreachable when `order` lists every job once. Typed
                // error rather than panic, to honor the isolation contract.
                Err(DiscoveryError::TaskPanicked {
                    task: owner(j).0,
                    message: "result slot never written".to_string(),
                })
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PredicateGen;
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
            let rep = d.rules.evaluate(&t, &t.all_rows());
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
        for threads in [1, 3, 8] {
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
        // Every run (sequential, 3 threads, more threads than tasks) hit
        // the catch_unwind branch.
        let snap = sink.snapshot();
        assert_eq!(snap.count("faults", "task_panics"), Some(3));
    }

    /// Sharded discovery claims shards longest first; whatever the claim
    /// order, each result must come back under its own job index.
    #[test]
    fn results_land_by_job_index_whatever_the_claim_order() {
        let sink = MetricsSink::disabled();
        for threads in [1, 2, 4] {
            let out = run_isolated(&[2, 0, 3, 1], threads, |j| (j, &sink), |j| Ok(j * 10));
            let got: Vec<usize> = out.into_iter().map(|r| r.unwrap()).collect();
            assert_eq!(got, vec![0, 10, 20, 30], "threads={threads}");
        }
    }

    #[test]
    fn more_threads_than_tasks_is_fine() {
        let t = table();
        let results = discover_all(&t, &t.all_rows(), &tasks(&t)[..1], 8);
        assert_eq!(results.len(), 1);
        assert!(results[0].is_ok());
    }
}
