//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer (not inside the library): name, start, end, parent span and the
//! sample (cycle) id shared by siblings. They stay in memory and are
//! written as JSON when the run ends. A disabled tracer records nothing,
//! so the untraced run pays one branch per call site.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::stats::json_str;

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub sample: u64,
}

/// Handle of an open span (index into the span list).
#[derive(Debug, Clone, Copy)]
#[must_use = "close the span with Tracer::end"]
pub struct SpanId(Option<usize>);

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    sample: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            sample: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switch recording on or off between samples (the traced run
    /// alternates to measure its own overhead).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Tag the spans that follow with sample id `id`.
    pub fn set_sample(&mut self, id: u64) {
        self.sample = id;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            sample: self.sample,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Close a span opened by [`begin`](Self::begin). Spans close in LIFO
    /// order.
    pub fn end(&mut self, id: SpanId) {
        let Some(i) = id.0 else { return };
        let end = self.now_ns();
        self.spans[i].end_ns = end;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(i), "spans must close innermost first");
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let r = f();
        self.end(id);
        r
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Mean cost in ns of one begin/end pair on an enabled tracer: the
    /// direct part of the tracing overhead.
    pub fn span_cost_ns() -> f64 {
        let mut t = Tracer::new(true);
        let n = 10_000;
        let start = Instant::now();
        for _ in 0..n {
            let s = t.begin("cost");
            t.end(s);
        }
        start.elapsed().as_nanos() as f64 / n as f64
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total and self time per span name, in seconds. Self time is the
    /// span's duration minus the part its direct children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (f64, f64, usize)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, (f64, f64, usize)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let e = out.entry(s.name).or_default();
            e.0 += dur as f64 * 1e-9;
            e.1 += dur.saturating_sub(child_ns[i]) as f64 * 1e-9;
            e.2 += 1;
        }
        out
    }

    /// All spans as a JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "  {{\"id\": {i}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"sample\": {}}}{}",
                json_str(s.name),
                s.start_ns,
                s.end_ns,
                s.sample,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.set_sample(7);
        let outer = t.begin("outer");
        let inner = t.begin("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(inner);
        t.end(outer);
        let st = t.self_times();
        let (o_total, o_self, n) = st["outer"];
        let (i_total, _, _) = st["inner"];
        assert_eq!(n, 1);
        assert!(i_total >= 0.002);
        assert!((o_total - o_self - i_total).abs() < 1e-9);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans().iter().all(|s| s.sample == 7));
        assert!(t.to_json().contains("\"name\": \"inner\""));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("x", || 3);
        assert_eq!(v, 3);
        assert!(t.spans().is_empty());
    }
}
