//! Benchmark-side spans: one record per call into a layer's public
//! function, kept in memory and written out when the run ends. The
//! spans are recorded around the calls, from outside; nothing here
//! reaches into the engine (its own tracer stays disabled).

use crate::sut::{JsonArray, JsonObject};
use std::time::Instant;

pub type SpanId = u32;
const NO_PARENT: SpanId = u32::MAX;

#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: SpanId,
    request: u32,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span now. Spans of one request share `request`.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, request: u32) -> SpanId {
        let now = self.now();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: parent.unwrap_or(NO_PARENT),
            request,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Closes a span now and returns its duration in seconds.
    pub fn close(&mut self, id: SpanId) -> f64 {
        let now = self.now();
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        (span.end_ns - span.start_ns) as f64 / 1e9
    }

    /// Runs `f` inside a span.
    pub fn within<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u32,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, parent, request);
        let out = f();
        let secs = self.close(id);
        (out, secs)
    }

    /// Records a child whose duration the callee reported (a time split
    /// out of its returned stats) rather than one the benchmark clocked:
    /// it is laid out from `offset_ns` after the parent's start.
    pub fn reported(
        &mut self,
        name: &'static str,
        parent: SpanId,
        request: u32,
        offset_ns: u64,
        duration_ns: u64,
    ) {
        let start = self.spans[parent as usize].start_ns + offset_ns;
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: start + duration_ns,
            parent,
            request,
        });
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The share of the time in spans called `parent` that their direct
    /// children do not cover (the parents' self time).
    pub fn unattributed_share(&self, parent: &str) -> f64 {
        let mut parent_ns = 0u64;
        let mut child_ns = 0u64;
        for s in &self.spans {
            if s.name == parent {
                parent_ns += s.end_ns - s.start_ns;
            }
            if s.parent != NO_PARENT && self.spans[s.parent as usize].name == parent {
                child_ns += s.end_ns - s.start_ns;
            }
        }
        if parent_ns == 0 {
            0.0
        } else {
            1.0 - child_ns as f64 / parent_ns as f64
        }
    }

    /// Appends another thread's spans (same origin), keeping its
    /// parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as SpanId;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }

    /// Nanoseconds one `open` + `close` pair costs, measured on a
    /// scratch tracer.
    pub fn calibrate_ns_per_span() -> f64 {
        let mut t = Tracer::new(Instant::now());
        let n = 200_000;
        let start = Instant::now();
        for i in 0..n {
            let id = t.open("calibrate", None, i);
            t.close(id);
        }
        std::hint::black_box(t.len());
        start.elapsed().as_nanos() as f64 / f64::from(n)
    }

    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut arr = JsonArray::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut o = JsonObject::new();
            o.field_u64("id", i as u64)
                .field_str("name", s.name)
                .field_u64("start_ns", s.start_ns)
                .field_u64("end_ns", s.end_ns)
                .field_u64("request", u64::from(s.request));
            if s.parent != NO_PARENT {
                o.field_u64("parent", u64::from(s.parent));
            }
            arr.push_raw(o.finish());
        }
        let mut doc = JsonObject::new();
        doc.field_raw("spans", arr.finish());
        std::fs::write(path, doc.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_cover_their_parent() {
        let mut t = Tracer::new(Instant::now());
        let root = t.open("root", None, 0);
        t.reported("a", root, 0, 0, 600);
        t.reported("b", root, 0, 600, 300);
        t.spans[root as usize].end_ns = t.spans[root as usize].start_ns + 1000;
        assert!((t.unattributed_share("root") - 0.1).abs() < 1e-9);
        let mut other = Tracer::new(t.origin);
        let r2 = other.open("root", None, 1);
        other.reported("a", r2, 1, 0, 0);
        t.absorb(other);
        assert_eq!(t.len(), 5);
        assert_eq!(t.spans[4].parent, 3);
    }
}
