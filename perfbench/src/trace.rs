//! The benchmark's span recorder: spans around each call the benchmark
//! makes into a layer of the program, kept in memory per thread and
//! written as Chrome-trace JSON when the run ends.
//!
//! A span has a name, start, end, parent (the enclosing span on the same
//! thread) and an id. The id names the phase the span served; pushes
//! record their event index instead and are mapped to phases once the
//! committed script is known ([`Tracer::resolve`]).

use crate::stats::json_str;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// What a span's id refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Id {
    None,
    Phase(u64),
    /// The index of an event the tracing thread pushed in the current
    /// part; maps to the phase that event landed in.
    Event(u64),
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<u32>,
    pub id: Id,
}

/// Most spans one thread keeps; later spans are counted as dropped so a
/// long traced run cannot exhaust memory.
const SPAN_CAP: usize = 4 << 20;

/// One thread's spans.
pub struct Tracer {
    pub thread: String,
    origin: Instant,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
    pub dropped: u64,
}

impl Tracer {
    pub fn new(thread: impl Into<String>, origin: Instant) -> Tracer {
        Tracer {
            thread: thread.into(),
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
            dropped: 0,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span; close it with [`end`](Self::end).
    pub fn begin(&mut self, name: &'static str, id: Id) {
        let start_ns = self.ns(Instant::now());
        self.begin_at(name, id, start_ns);
    }

    fn begin_at(&mut self, name: &'static str, id: Id, start_ns: u64) {
        if self.spans.len() >= SPAN_CAP {
            self.dropped += 1;
            self.stack.push(u32::MAX);
            return;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied().filter(|&p| p != u32::MAX),
            id,
        });
        self.stack.push((self.spans.len() - 1) as u32);
    }

    /// Closes the innermost open span, optionally renaming it (a push
    /// that turned out to seal becomes `runtime.seal_push`).
    pub fn end(&mut self, rename: Option<&'static str>) {
        let end_ns = self.ns(Instant::now());
        let idx = self.stack.pop().expect("end() matches a begin()");
        if let Some(span) = self.spans.get_mut(idx as usize) {
            span.end_ns = end_ns;
            if let Some(name) = rename {
                span.name = name;
            }
        }
    }

    /// Records an already-timed leaf span.
    pub fn record(&mut self, name: &'static str, id: Id, start: Instant, end: Instant) {
        let (s, e) = (self.ns(start), self.ns(end));
        self.begin_at(name, id, s);
        if let Some(&idx) = self.stack.last() {
            if let Some(span) = self.spans.get_mut(idx as usize) {
                span.end_ns = e;
            }
        }
        self.stack.pop();
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, id: Id, f: impl FnOnce() -> R) -> R {
        self.begin(name, id);
        let r = f();
        self.end(None);
        r
    }

    /// Replaces event ids with the phases they landed in.
    pub fn resolve(&mut self, phase_of: impl Fn(u64) -> Option<u64>) {
        for span in &mut self.spans {
            if let Id::Event(index) = span.id {
                span.id = phase_of(index).map_or(Id::None, Id::Phase);
            }
        }
    }

    /// Durations in ns of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }
}

/// Per-name totals over a set of tracers: count, total and self time.
/// A span's self time is its duration minus the time its child spans
/// cover.
pub fn self_times<'t>(
    tracers: impl IntoIterator<Item = &'t Tracer>,
) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for t in tracers {
        let mut child_ns = vec![0u64; t.spans.len()];
        for s in &t.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        for (s, child) in t.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur;
            e.2 += dur.saturating_sub(child);
        }
    }
    out
}

/// Spans per thread written to the trace file; metrics use every span
/// recorded, the file keeps each thread's first ones so it stays small
/// enough to open.
const FILE_SPANS: usize = 50_000;

/// Chrome trace-viewer JSON ("X" complete events, µs timestamps).
pub fn chrome_trace(tracers: &[Tracer]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for (tid, t) in tracers.iter().enumerate() {
        let _ = write!(
            out,
            "{}{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
             \"args\":{{\"name\":{},\"spans\":{},\"spans_dropped\":{}}}}}",
            if first { "" } else { "," },
            json_str(&t.thread),
            t.spans.len(),
            t.dropped
        );
        first = false;
        for (i, s) in t.spans.iter().enumerate().take(FILE_SPANS) {
            let phase = match s.id {
                Id::Phase(p) => p.to_string(),
                _ => "null".into(),
            };
            let parent = s.parent.map_or("null".into(), |p| p.to_string());
            let _ = write!(
                out,
                ",{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{i},\"parent\":{parent},\"phase\":{phase}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
            );
        }
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_ids_resolve() {
        let origin = Instant::now();
        let mut t = Tracer::new("main", origin);
        t.begin("setup", Id::None);
        t.span("ingest.push", Id::Event(3), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(None);
        assert_eq!(t.spans[1].parent, Some(0));
        let totals = self_times([&t]);
        let (n, total, own) = totals["setup"];
        assert_eq!(n, 1);
        assert!(own < total && total - own >= 2_000_000);
        t.resolve(|index| (index == 3).then_some(7));
        assert_eq!(t.spans[1].id, Id::Phase(7));
        let json = chrome_trace(&[t]);
        assert!(json.starts_with("{\"traceEvents\":[") && json.contains("\"phase\":7"));
    }
}
