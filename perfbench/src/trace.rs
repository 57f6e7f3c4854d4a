//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around each public
//! call into a layer: name, start, end, parent and the id of the op or
//! request they belong to. They stay in memory while the run measures and
//! are written out once it ends. A disabled tracer records nothing, so
//! the untraced run pays one branch per span.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Handle of an open span; pass it back to [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str, op: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(self.spans.len() - 1);
        Open(Some(self.spans.len() - 1))
    }

    /// Closes `open` (and anything left open inside it).
    pub fn end(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let end_ns = self.now_ns();
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_ns = end_ns;
            if top == id {
                break;
            }
        }
    }

    /// Records a span measured elsewhere (a client thread) under an
    /// explicit parent; returns its id for children to name.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let at = |t: Instant| u64::try_from(t.duration_since(self.epoch).as_nanos()).unwrap_or(0);
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns: at(start),
            end_ns: at(end),
        });
        Some(self.spans.len() - 1)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of it its
    /// direct children cover.
    pub fn self_ms(&self) -> Vec<f64> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += s.ms();
            }
        }
        self.spans
            .iter()
            .zip(child_ms)
            .map(|(s, c)| s.ms() - c)
            .collect()
    }

    /// Per span name: `(count, total ms, total self ms)`.
    pub fn by_name(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ms()) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.ms();
            e.2 += own;
        }
        out
    }

    /// The spans as JSON lines: one object per span, times in µs.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, (s, own)) in self.spans.iter().zip(self.self_ms()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \"start_us\": {:.3}, \"end_us\": {:.3}, \"self_us\": {:.3}}}",
                s.name,
                s.op,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
                own * 1e3
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let epoch = Instant::now();
        let mut t = Tracer::new(true, epoch);
        let op = t.begin("op", 1);
        let a = t.begin("a", 1);
        let b = t.begin("b", 1);
        t.end(b);
        t.end(a);
        t.end(op);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        let own = t.self_ms();
        assert!((own[0] - (spans[0].ms() - spans[1].ms())).abs() < 1e-9);
        assert!((own[1] - (spans[1].ms() - spans[2].ms())).abs() < 1e-9);
        assert_eq!(t.by_name()["b"].0, 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let s = t.begin("op", 1);
        t.end(s);
        assert!(t.spans().is_empty());
    }
}
