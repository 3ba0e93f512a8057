//! The benchmark's own spans, recorded around each call it makes into
//! a layer during a traced run. The program's span tracing stays off:
//! turning it on disables the sub-problem memo, so a traced run would
//! measure a different program.
//!
//! Spans are kept in memory and written out as JSON Lines when the
//! run ends.

use crate::report::json_str;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Index of a span within its [`Spans`] buffer.
pub type SpanId = usize;

/// One finished (or still open) span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-boundary name, e.g. `omega.parse`.
    pub name: &'static str,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Id of the query or request the span belongs to.
    pub query: String,
    /// Start, in nanoseconds since the buffer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the buffer's origin.
    pub end_ns: u64,
}

/// An in-memory span buffer for one thread.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty buffer timed from `origin`.
    pub fn new(origin: Instant) -> Spans {
        Spans {
            origin,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span.
    pub fn begin(&mut self, name: &'static str, query: &str, parent: Option<SpanId>) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            query: query.to_string(),
            start_ns: now,
            end_ns: now,
        });
        self.spans.len() - 1
    }

    /// Closes a span.
    pub fn end(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span and returns its result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        query: &str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, query, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Appends another thread's buffer (its ids are shifted).
    pub fn absorb(&mut self, other: Spans) {
        let shift = self.spans.len();
        let delta = other
            .origin
            .saturating_duration_since(self.origin)
            .as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + shift);
            s.start_ns += delta;
            s.end_ns += delta;
            s
        }));
    }

    /// Total duration (ms), self time (ms) and count per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, (f64, f64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (f64, f64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = (s.end_ns - s.start_ns) as f64 / 1e6;
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]) as f64 / 1e6;
            let e = out.entry(s.name).or_default();
            e.0 += dur;
            e.1 += own;
            e.2 += 1;
        }
        out
    }

    /// Total milliseconds and count of the spans named `name`.
    pub fn total(&self, name: &str) -> (f64, u64) {
        self.totals()
            .get(name)
            .map_or((0.0, 0), |&(ms, _, n)| (ms, n))
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"parent\": {parent}, \"query\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                json_str(&s.query),
                json_str(s.name),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}
