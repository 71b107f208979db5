//! In-memory spans recorded around the benchmark's calls into each
//! layer, written out when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

use serde_json::Value;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `predictor.flow.observation`.
    pub name: String,
    /// Nanoseconds from the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds from the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request (or training run) the span belongs to.
    pub rid: u64,
}

impl Span {
    /// Duration in microseconds.
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// A span recorder; a disabled tracer runs the closures untimed.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or only runs closures.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; pair with [`Tracer::end`]. Returns `None` when
    /// disabled.
    pub fn begin(&mut self, name: impl Into<String>, rid: u64) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            rid,
        });
        self.open.push(index);
        Some(index)
    }

    /// Closes the span `begin` returned.
    pub fn end(&mut self, span: Option<usize>) {
        if let Some(index) = span {
            self.spans[index].end_ns = self.now_ns();
            let popped = self.open.pop();
            debug_assert_eq!(popped, Some(index), "spans close innermost first");
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: impl Into<String>, rid: u64, f: impl FnOnce() -> T) -> T {
        let span = self.begin(name, rid);
        let out = f();
        self.end(span);
        out
    }

    /// Per-name `(count, total µs)` over every recorded span.
    pub fn totals(&self) -> BTreeMap<&str, (u64, f64)> {
        let mut out: BTreeMap<&str, (u64, f64)> = BTreeMap::new();
        for span in &self.spans {
            let slot = out.entry(span.name.as_str()).or_default();
            slot.0 += 1;
            slot.1 += span.micros();
        }
        out
    }

    /// Writes every span as one NDJSON line to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = String::new();
        for span in &self.spans {
            let parent = span.parent.map_or(Value::Null, |p| Value::from(p as u64));
            text.push_str(&serde_json::to_string(&Value::object(vec![
                ("name", Value::from(span.name.clone())),
                ("start_ns", Value::from(span.start_ns)),
                ("end_ns", Value::from(span.end_ns)),
                ("parent", parent),
                ("rid", Value::from(span.rid)),
            ])));
            text.push('\n');
        }
        std::fs::write(path, text)
    }
}
