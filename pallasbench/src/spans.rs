//! The benchmark's own span recorder for the traced run.
//!
//! Spans are recorded around the benchmark's calls into each layer of
//! the program (the program's `pallas-trace` collector stays off). A
//! span has a name, start, end, parent span and a key naming the unit
//! or request it belongs to. Self time (a span's duration minus the
//! part its child spans cover) is summed per name as spans close, so
//! per-layer totals cost no memory; the spans themselves are kept in
//! memory up to a cap and written out once the run ends.
//!
//! A disabled recorder runs the wrapped calls and records nothing, so
//! the same code path serves the traced and the untraced replay.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Spans kept for the written trace; later spans still count in the totals.
const KEEP_SPANS: usize = 100_000;

/// Per-name sums over every closed span.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    /// Spans closed.
    pub calls: u64,
    /// Summed duration.
    pub total: Duration,
    /// Summed duration minus the time covered by child spans.
    pub self_time: Duration,
}

#[derive(Debug)]
struct Open {
    id: u64,
    name: &'static str,
    key: u64,
    start: Instant,
    children: Duration,
}

#[derive(Debug)]
struct Span {
    id: u64,
    parent: u64,
    name: &'static str,
    key: u64,
    start: Duration,
    end: Duration,
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: u64,
    open: Vec<Open>,
    spans: Vec<Span>,
    dropped: u64,
    totals: BTreeMap<&'static str, Totals>,
}

impl Tracer {
    /// A recorder; `enabled == false` makes every method a pass-through.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: 1,
            open: Vec::new(),
            spans: Vec::new(),
            dropped: 0,
            totals: BTreeMap::new(),
        }
    }

    /// Runs `f` inside a span named `name` for unit or request `key`.
    pub fn scope<T>(
        &mut self,
        name: &'static str,
        key: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.next_id;
        self.next_id += 1;
        self.open.push(Open {
            id,
            name,
            key,
            start: Instant::now(),
            children: Duration::ZERO,
        });
        let out = f(self);
        let end = Instant::now();
        let open = self.open.pop().expect("span stack matches scope nesting");
        self.close(open.id, open.name, open.key, open.start, end, open.children);
        out
    }

    /// Adds a closed child span of the current span that ended now and
    /// lasted `elapsed` — used for stage and checker timings the program
    /// reports about work done inside a call the benchmark wrapped.
    pub fn attribute(&mut self, name: &'static str, key: u64, elapsed: Duration) {
        if !self.enabled {
            return;
        }
        let end = Instant::now();
        let id = self.next_id;
        self.next_id += 1;
        self.close(
            id,
            name,
            key,
            end.checked_sub(elapsed).unwrap_or(end),
            end,
            Duration::ZERO,
        );
    }

    /// Adds a closed root span measured by the caller (requests that
    /// overlap on a pipelined connection cannot nest).
    pub fn record(&mut self, name: &'static str, key: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let id = self.next_id;
        self.next_id += 1;
        let saved = std::mem::take(&mut self.open);
        self.close(id, name, key, start, end, Duration::ZERO);
        self.open = saved;
    }

    fn close(
        &mut self,
        id: u64,
        name: &'static str,
        key: u64,
        start: Instant,
        end: Instant,
        children: Duration,
    ) {
        let elapsed = end.saturating_duration_since(start);
        let parent = match self.open.last_mut() {
            Some(p) => {
                p.children += elapsed;
                p.id
            }
            None => 0,
        };
        let t = self.totals.entry(name).or_default();
        t.calls += 1;
        t.total += elapsed;
        t.self_time += elapsed.saturating_sub(children);
        if self.spans.len() < KEEP_SPANS {
            self.spans.push(Span {
                id,
                parent,
                name,
                key,
                start: start.saturating_duration_since(self.epoch),
                end: end.saturating_duration_since(self.epoch),
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Sums for spans named `name` (zero if none closed).
    pub fn totals(&self, name: &str) -> Totals {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Self time summed over spans named `name`, in microseconds.
    pub fn self_us(&self, name: &str) -> f64 {
        crate::stats::us(self.totals(name).self_time)
    }

    /// Writes the kept spans as JSON: one object per span, times in
    /// microseconds since the recorder started, `parent` 0 for roots.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96 + 64);
        let _ = writeln!(out, "{{\"dropped\":{},\"spans\":[", self.dropped);
        for (i, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"key\":{},\"start_us\":{:.3},\"end_us\":{:.3}}}{}",
                s.id,
                s.parent,
                s.name,
                s.key,
                crate::stats::us(s.start),
                crate::stats::us(s.end),
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push_str("]}\n");
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.scope("outer", 1, |t| {
            std::thread::sleep(Duration::from_millis(2));
            t.scope("inner", 1, |_| std::thread::sleep(Duration::from_millis(5)));
            t.attribute("stage", 1, Duration::from_millis(1));
        });
        let (outer, inner) = (t.totals("outer"), t.totals("inner"));
        assert_eq!(
            (outer.calls, inner.calls, t.totals("stage").calls),
            (1, 1, 1)
        );
        assert!(outer.total >= inner.total + Duration::from_millis(2));
        assert!(outer.self_time <= outer.total - inner.total - Duration::from_millis(1));
        assert_eq!(t.spans.iter().filter(|s| s.parent == 0).count(), 1);
    }

    #[test]
    fn disabled_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.scope("x", 0, |_| 7), 7);
        t.attribute("y", 0, Duration::from_millis(1));
        assert_eq!(t.totals("x").calls + t.totals("y").calls, 0);
        assert!(t.spans.is_empty());
    }
}
