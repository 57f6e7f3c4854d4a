//! Deterministic server-side fault injection, extending the discovery
//! runtime's `FaultPlan` pattern (`crr-discovery/src/faults.rs`) to the
//! serving path: slow handlers, handler panics, and mid-request
//! cancellation, each triggered every k-th admitted request. Poisoned
//! candidate rule sets need no injection hook — they are exercised by
//! feeding unsound artifacts to the swap endpoint, where the admission
//! gate refuses them.
//!
//! The integration tests (`tests/server_faults.rs`) pin the contract the
//! plan exists to prove: every injected fault degrades to a well-formed
//! HTTP response with the matching `serve.*` counter incremented, and the
//! shared serving set is never poisoned.

use crr_discovery::CancelToken;
use crr_obs::{Counter, MetricsSink};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A deterministic fault schedule over admitted requests. Shared by
/// reference inside the server; the counters are atomic so concurrent
/// workers observe one global request sequence.
#[derive(Debug, Default)]
pub struct ServeFaultPlan {
    delay_every: Option<(u64, Duration)>,
    panic_every: Option<u64>,
    cancel_every: Option<u64>,
    requests: AtomicU64,
    injected: AtomicU64,
}

impl ServeFaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        ServeFaultPlan::default()
    }

    /// Sleeps `delay` in the handler on every `n`-th admitted request —
    /// a slow handler, as produced by a degraded disk or a pathological
    /// batch.
    pub fn delay_request_every(mut self, n: u64, delay: Duration) -> Self {
        self.delay_every = Some((n.max(1), delay));
        self
    }

    /// Panics inside the handler on every `n`-th admitted request,
    /// exercising the per-connection `catch_unwind` barrier.
    pub fn panic_request_every(mut self, n: u64) -> Self {
        self.panic_every = Some(n.max(1));
        self
    }

    /// Fires the request's cancellation token before the handler runs on
    /// every `n`-th admitted request, forcing the mid-request cancel path
    /// (partial batch answers).
    pub fn cancel_request_every(mut self, n: u64) -> Self {
        self.cancel_every = Some(n.max(1));
        self
    }

    /// Total faults injected so far (all kinds).
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Applies the schedule to one admitted request. Called by the server
    /// inside the panic barrier, with the request's own cancel token.
    /// Order on a colliding request: delay, then cancel, then panic — so
    /// a panic never masks the other injections' bookkeeping.
    pub(crate) fn on_request(&self, cancel: &CancelToken, metrics: &MetricsSink) {
        let n = self.requests.fetch_add(1, Ordering::Relaxed) + 1;
        let due = |every: Option<u64>| matches!(every, Some(k) if n % k == 0);
        if let Some((k, delay)) = self.delay_every {
            if n % k == 0 {
                self.injected.fetch_add(1, Ordering::Relaxed);
                metrics.incr(Counter::ServeInjectedSlow);
                std::thread::sleep(delay);
            }
        }
        if due(self.cancel_every) {
            self.injected.fetch_add(1, Ordering::Relaxed);
            cancel.cancel();
        }
        if due(self.panic_every) {
            self.injected.fetch_add(1, Ordering::Relaxed);
            panic!("injected handler panic (request {n})");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic() {
        let plan = ServeFaultPlan::none().cancel_request_every(3);
        let sink = MetricsSink::enabled();
        let mut cancelled = 0;
        for _ in 0..9 {
            let token = CancelToken::new();
            plan.on_request(&token, &sink);
            if token.is_cancelled() {
                cancelled += 1;
            }
        }
        assert_eq!(cancelled, 3);
        assert_eq!(plan.injected(), 3);
    }

    #[test]
    fn delay_counts_and_sleeps() {
        let plan = ServeFaultPlan::none().delay_request_every(1, Duration::from_millis(5));
        let sink = MetricsSink::enabled();
        let t = std::time::Instant::now();
        plan.on_request(&CancelToken::new(), &sink);
        assert!(t.elapsed() >= Duration::from_millis(5));
        assert_eq!(sink.snapshot().count("serve", "injected_slow"), Some(1));
    }

    #[test]
    fn panic_is_injected() {
        let plan = ServeFaultPlan::none().panic_request_every(1);
        let sink = MetricsSink::enabled();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            plan.on_request(&CancelToken::new(), &sink);
        }));
        assert!(r.is_err());
        assert_eq!(plan.injected(), 1);
    }
}
