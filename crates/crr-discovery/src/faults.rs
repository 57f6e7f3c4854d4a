//! Deterministic fault injection for the discovery runtime.
//!
//! Robustness claims are only as good as the failures they were tested
//! against. A [`FaultPlan`] injects the three failure families the
//! budgeted runtime must survive, deterministically so tests reproduce:
//!
//! * **dirty data** — [`inject_dirty_cells`] seeds NaN/±Inf/null cells
//!   into a table, which discovery must surface as typed errors
//!   ([`crate::DiscoveryError::NonFiniteValue`]), never panics;
//! * **failing fits** — every k-th model fit returns an error, which
//!   discovery propagates as [`crate::DiscoveryError::InjectedFault`];
//! * **poisoned fits** — every k-th model fit panics, which
//!   [`crate::DiscoverySession::run_all`] must isolate to the owning task;
//! * **slow fits** — every fit sleeps first, so deadline budgets can be
//!   exercised without real datasets or timing luck.
//!
//! A plan is attached to a [`crate::DiscoveryConfig`] via
//! [`crate::DiscoveryConfig::with_faults`] and consulted by the search
//! loop before each fit. Production configs carry no plan and pay one
//! `Option` check per fit.

use crate::{DiscoveryError, Result};
use crr_data::{AttrId, Table, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A deterministic schedule of injected fit faults. Counters live in the
/// plan, so one plan shared across a run (via `Arc` in the config) sees a
/// global fit sequence.
#[derive(Debug, Default)]
pub struct FaultPlan {
    /// Every k-th fit (1-based) returns an error instead of a model.
    fail_every: Option<u64>,
    /// Every k-th fit (1-based) panics, simulating a poisoned solver.
    panic_every: Option<u64>,
    /// Injected latency before every fit.
    fit_delay: Option<Duration>,
    /// Fits attempted so far (including faulted ones).
    attempts: AtomicU64,
}

impl FaultPlan {
    /// An empty plan: injects nothing.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Makes every `k`-th fit (1-based) return an error. `k = 1` fails
    /// every fit.
    pub fn fail_fit_every(mut self, k: u64) -> Self {
        self.fail_every = Some(k.max(1));
        self
    }

    /// Makes every `k`-th fit (1-based) panic. `k = 1` panics on the
    /// first fit.
    pub fn panic_fit_every(mut self, k: u64) -> Self {
        self.panic_every = Some(k.max(1));
        self
    }

    /// Sleeps for `delay` before every fit — an artificially slow solver
    /// for deadline tests.
    pub fn delay_fits(mut self, delay: Duration) -> Self {
        self.fit_delay = Some(delay);
        self
    }

    /// Number of fits attempted through this plan so far.
    pub fn fits_attempted(&self) -> u64 {
        self.attempts.load(Ordering::Relaxed)
    }

    /// Called by the search loop before each model fit. Applies the
    /// injected delay, then either panics, returns the injected error, or
    /// lets the fit proceed.
    pub fn before_fit(&self) -> Result<()> {
        let n = self.attempts.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(d) = self.fit_delay {
            std::thread::sleep(d);
        }
        if let Some(k) = self.panic_every {
            if n % k == 0 {
                panic!("injected fit panic (fit #{n})");
            }
        }
        if let Some(k) = self.fail_every {
            if n % k == 0 {
                return Err(DiscoveryError::InjectedFault { fit: n });
            }
        }
        Ok(())
    }
}

/// The dirty values [`inject_dirty_cells`] cycles through.
const DIRTY: [Value; 4] = [
    Value::Float(f64::NAN),
    Value::Float(f64::INFINITY),
    Value::Float(f64::NEG_INFINITY),
    Value::Null,
];

/// Deterministically replaces roughly `rate · |rows| · |attrs|` cells of
/// the given float columns with NaN, ±Inf or null, keyed by `seed`.
/// Returns the number of cells dirtied. Non-float columns only receive
/// nulls (the other faults are not representable there).
pub fn inject_dirty_cells(table: &mut Table, attrs: &[AttrId], rate: f64, seed: u64) -> usize {
    let mut dirtied = 0usize;
    for &attr in attrs {
        let is_float = table.schema().attribute(attr).ty() == crr_data::AttrType::Float;
        for row in 0..table.num_rows() {
            // splitmix64-style hash of (seed, attr, row) → [0, 1).
            let h = seed
                .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(attr.0 as u64 + 1))
                .wrapping_add(row as u64)
                .wrapping_mul(0xBF58_476D_1CE4_E5B9)
                .rotate_left(27)
                .wrapping_mul(0x94D0_49BB_1331_11EB);
            if (h >> 11) as f64 / (1u64 << 53) as f64 >= rate {
                continue;
            }
            let fault = if is_float {
                DIRTY[(h % DIRTY.len() as u64) as usize].clone()
            } else {
                Value::Null
            };
            if fault.is_null() {
                table.set_null(row, attr);
            } else {
                table.set_value(row, attr, fault);
            }
            dirtied += 1;
        }
    }
    dirtied
}

#[cfg(test)]
mod tests {
    use super::*;
    use crr_data::{AttrType, Schema};

    #[test]
    fn empty_plan_injects_nothing() {
        let plan = FaultPlan::new();
        for _ in 0..10 {
            plan.before_fit().unwrap();
        }
        assert_eq!(plan.fits_attempted(), 10);
    }

    #[test]
    fn fail_every_k_is_periodic() {
        let plan = FaultPlan::new().fail_fit_every(3);
        let outcomes: Vec<bool> = (0..6).map(|_| plan.before_fit().is_ok()).collect();
        assert_eq!(outcomes, [true, true, false, true, true, false]);
        assert!(matches!(
            FaultPlan::new().fail_fit_every(1).before_fit(),
            Err(DiscoveryError::InjectedFault { fit: 1 })
        ));
    }

    #[test]
    fn panic_every_k_panics() {
        let plan = FaultPlan::new().panic_fit_every(2);
        plan.before_fit().unwrap();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = plan.before_fit();
        }));
        assert!(caught.is_err());
    }

    #[test]
    fn dirty_cells_are_deterministic_and_bounded() {
        let make = || {
            let schema = Schema::new(vec![("x", AttrType::Float), ("s", AttrType::Str)]);
            let mut t = Table::new(schema);
            for i in 0..500 {
                t.push_row(vec![Value::Float(i as f64), Value::str("a")])
                    .unwrap();
            }
            t
        };
        let (mut a, mut b) = (make(), make());
        let attrs: Vec<AttrId> = a.schema().iter().map(|(id, _)| id).collect();
        let na = inject_dirty_cells(&mut a, &attrs, 0.2, 7);
        let nb = inject_dirty_cells(&mut b, &attrs, 0.2, 7);
        assert_eq!(na, nb, "same seed, same plan");
        assert!(na > 0 && na < 1000, "rate respected: {na}");
        // Same cells dirtied in both tables.
        for r in 0..500 {
            for &attr in &attrs {
                assert_eq!(
                    format!("{:?}", a.value(r, attr)),
                    format!("{:?}", b.value(r, attr))
                );
            }
        }
        // String column only ever receives nulls.
        let s = a.attr("s").unwrap();
        for r in 0..500 {
            let v = a.value(r, s);
            assert!(v.is_null() || v == Value::str("a"));
        }
    }

    #[test]
    fn zero_rate_dirties_nothing() {
        let schema = Schema::new(vec![("x", AttrType::Float)]);
        let mut t = Table::new(schema);
        t.push_row(vec![Value::Float(1.0)]).unwrap();
        let x = t.attr("x").unwrap();
        assert_eq!(inject_dirty_cells(&mut t, &[x], 0.0, 1), 0);
        assert_eq!(t.value(0, x), Value::Float(1.0));
    }
}
