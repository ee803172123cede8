//! The run's one record of what it measured.
//!
//! A span wraps one call the benchmark makes into a layer's public
//! function: its name, start and end (µs since the run began), its parent
//! span and a request id (the pass, batch or read index). The stage timers
//! and counters a call already returns (`DiscoveryStats`, `ParDisReport`,
//! `MonitorStats`, `ViolationDelta`, `GraphBuildStats`) are attached to the
//! call's span as child records. Every run keeps the spans and records in
//! memory and derives all of its metrics from them; a traced run also
//! writes them out when it ends.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Index of a span in the trace.
pub type SpanId = usize;

/// One call into a layer.
pub struct Span {
    pub name: &'static str,
    pub req: u64,
    pub parent: Option<SpanId>,
    start_us: f64,
    end_us: f64,
    /// The stage timers (unit `s`) and counters the call returned.
    pub records: Vec<Record>,
}

impl Span {
    /// The call's wall time in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_us - self.start_us) / 1e6
    }

    /// The value of child record `name`, if the call returned it.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.records
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.value)
    }

    /// The call's self time: its wall time minus its stage timers.
    pub fn self_secs(&self) -> f64 {
        let staged: f64 = self
            .records
            .iter()
            .filter(|r| r.unit == "s")
            .map(|r| r.value)
            .sum();
        self.secs() - staged
    }
}

/// A stage timer or counter returned by a call.
pub struct Record {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The span recorder.
pub struct Tracer {
    traced: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Tracer {
    /// A recorder; `traced` runs also make the traced-only calls and
    /// write the trace out.
    pub fn new(traced: bool) -> Tracer {
        Tracer {
            traced,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether this is a traced run.
    pub fn traced(&self) -> bool {
        self.traced
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str, req: u64) -> SpanId {
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            req,
            parent: self.open.last().copied(),
            start_us,
            end_us: start_us,
            records: Vec::new(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (and any span left open inside it).
    pub fn end(&mut self, id: SpanId) {
        let end_us = self.now_us();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_us = end_us;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span; returns its output and the span.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> (T, SpanId) {
        let id = self.begin(name, req);
        let out = f();
        self.end(id);
        (out, id)
    }

    /// Span `id`.
    pub fn get(&self, id: SpanId) -> &Span {
        &self.spans[id]
    }

    /// Attaches a counter the call returned to its span.
    pub fn count(&mut self, span: SpanId, name: &'static str, value: u64) {
        self.record(span, name, value as f64, "count");
    }

    /// Attaches a stage timer the call returned to its span.
    pub fn time(&mut self, span: SpanId, name: &'static str, d: Duration) {
        self.record(span, name, d.as_secs_f64(), "s");
    }

    /// Attaches any other record to span `span`.
    pub fn record(&mut self, span: SpanId, name: &'static str, value: f64, unit: &'static str) {
        self.spans[span].records.push(Record { name, value, unit });
    }

    /// The spans named `name`, in call order.
    pub fn calls<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// The spans named `name` with their ids, in call order.
    pub fn ids<'a>(&'a self, name: &'a str) -> impl Iterator<Item = (SpanId, &'a Span)> + 'a {
        self.spans
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.name == name)
    }

    /// The wall times of the calls named `name`, in seconds.
    pub fn secs(&self, name: &str) -> Vec<f64> {
        self.calls(name).map(Span::secs).collect()
    }

    /// The values of child record `record` over the calls named `name`.
    pub fn values(&self, name: &str, record: &str) -> Vec<f64> {
        self.calls(name).filter_map(|s| s.get(record)).collect()
    }

    /// The spans whose parent is `parent` and whose name is `name`.
    pub fn children<'a>(
        &'a self,
        parent: SpanId,
        name: &'a str,
    ) -> impl Iterator<Item = &'a Span> + 'a {
        let end_us = self.spans[parent].end_us;
        self.spans[parent + 1..]
            .iter()
            .take_while(move |s| s.start_us <= end_us)
            .filter(move |s| s.parent == Some(parent) && s.name == name)
    }

    /// Writes the trace as JSON lines: each span, then its records.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"req\": {}, \
                 \"start_us\": {:.1}, \"end_us\": {:.1}}}",
                s.name, s.req, s.start_us, s.end_us
            )?;
            for r in &s.records {
                writeln!(
                    out,
                    "{{\"record\": \"{}\", \"span\": {id}, \"value\": {}, \"unit\": \"{}\"}}",
                    r.name, r.value, r.unit
                )?;
            }
        }
        out.flush()
    }
}
