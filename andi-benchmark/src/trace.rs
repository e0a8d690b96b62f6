//! A bounded in-memory span recorder for the `--trace` replay.
//!
//! A span is `(id, parent, request, name, start, end)`; spans of one
//! replayed request share its request number, and a span's parent is
//! the span open around it when it started. Per-name statistics are
//! kept for every span; the span records themselves stop at
//! [`SPAN_CAP`] so a long replay cannot grow the process without
//! bound. They are written as JSON lines when the replay ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::hist::Histogram;

/// Span records kept for `trace.jsonl`.
const SPAN_CAP: usize = 1 << 18;

struct Span {
    id: u32,
    parent: u32,
    request: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    dropped: u64,
    open: Vec<u32>,
    next_id: u32,
    request: u64,
    stats: BTreeMap<&'static str, Histogram>,
}

/// Records spans against one start instant.
pub struct Tracer {
    t0: Instant,
    state: RefCell<State>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            state: RefCell::default(),
        }
    }

    /// Starts replayed request number `request`.
    pub fn begin_request(&self, request: u64) {
        self.state.borrow_mut().request = request;
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let (id, parent) = {
            let mut st = self.state.borrow_mut();
            st.next_id += 1;
            let id = st.next_id;
            let parent = st.open.last().copied().unwrap_or(0);
            st.open.push(id);
            (id, parent)
        };
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let mut st = self.state.borrow_mut();
        st.open.pop();
        let ns = |t: Instant| t.duration_since(self.t0).as_nanos() as u64;
        let (start_ns, end_ns) = (ns(start), ns(end));
        st.stats.entry(name).or_default().record(end_ns - start_ns);
        if st.spans.len() < SPAN_CAP {
            let request = st.request;
            st.spans.push(Span {
                id,
                parent,
                request,
                name,
                start_ns,
                end_ns,
            });
        } else {
            st.dropped += 1;
        }
        out
    }

    /// Statistics of every span called `name` (empty if none ran).
    pub fn stats(&self, name: &str) -> Histogram {
        self.state
            .borrow()
            .stats
            .get(name)
            .cloned()
            .unwrap_or_default()
    }

    /// Writes one JSON object per recorded span, then a final line
    /// counting the spans that did not fit the buffer.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let st = self.state.borrow();
        for s in &st.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        writeln!(out, "{{\"dropped\":{}}}", st.dropped)?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_count() {
        let t = Tracer::new();
        t.begin_request(3);
        let v = t.span("outer", || t.span("inner", || 41) + 1);
        assert_eq!(v, 42);
        t.span("inner", || ());
        assert_eq!(t.stats("inner").count(), 2);
        assert_eq!(t.stats("outer").count(), 1);
        assert_eq!(t.stats("absent").count(), 0);
        let st = t.state.borrow();
        let inner = &st.spans[0];
        let outer = &st.spans[1];
        assert_eq!(
            (inner.name, inner.parent, inner.request),
            ("inner", outer.id, 3)
        );
        assert_eq!(outer.parent, 0);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }
}
