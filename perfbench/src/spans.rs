//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed around the benchmark's own calls into each
//! layer's public functions (the program itself carries no tracing). Each
//! span records its name, start, end, parent span and the unit it belongs
//! to; the whole set is kept in memory and written out once, when the run
//! ends. Self times are derived from the spans: a span's duration minus the
//! part of it covered by its children.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub unit: usize,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals derived from the spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    pub count: usize,
    pub total_s: f64,
    pub self_s: f64,
}

/// The recorder. Tracing is off unless constructed with [`Tracer::on`]: a
/// disabled tracer never reads the clock and records nothing, so the same
/// code paths serve the untraced run.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn off() -> Self {
        Tracer {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn on() -> Self {
        Tracer {
            enabled: true,
            ..Tracer::off()
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; its parent is the innermost span still open.
    pub fn open(&mut self, name: &'static str, unit: usize) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            unit,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics when no span is open (an unbalanced open/close pair in the
    /// benchmark itself).
    pub fn close(&mut self) {
        if !self.enabled {
            return;
        }
        let id = self.open.pop().expect("close without a matching open");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, unit: usize, f: impl FnOnce() -> R) -> R {
        self.open(name, unit);
        let r = f();
        self.close();
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Totals per span name: count, summed duration and summed self time
    /// (duration minus the durations of direct children).
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, &c) in self.spans.iter().zip(&child_ns) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_s += s.duration_ns() as f64 * 1e-9;
            t.self_s += s.duration_ns().saturating_sub(c) as f64 * 1e-9;
        }
        out
    }

    /// Summed duration of every span named `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.totals().get(name).map_or(0.0, |t| t.total_s)
    }

    /// The spans as tab-separated text, one span a line, preceded by
    /// `header` lines (already `#`-prefixed by the caller).
    pub fn render_tsv(&self, header: &str) -> String {
        let mut s = String::from(header);
        s.push_str("id\tparent\tunit\tname\tstart_ns\tend_ns\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(
                s,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                sp.unit, sp.name, sp.start_ns, sp.end_ns
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::on();
        t.span("outer", 0, || {
            let mut x = 0u64;
            for i in 0..10_000 {
                x = std::hint::black_box(x.wrapping_add(i));
            }
            x
        });
        t.open("parent", 1);
        t.span("child", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close();
        let totals = t.totals();
        let parent = totals["parent"];
        let child = totals["child"];
        assert!(child.total_s >= 0.002);
        assert!(parent.total_s >= child.total_s);
        assert!((parent.self_s - (parent.total_s - child.total_s)).abs() < 1e-9);
        assert_eq!(t.spans()[2].parent, Some(1));
        assert_eq!(t.spans()[0].parent, None);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let v = t.span("x", 0, || 7);
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
        assert_eq!(t.total_s("x"), 0.0);
    }
}
