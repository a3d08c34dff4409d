//! In-memory spans for the traced run.
//!
//! A span records a name, start, end, the span that caused it and the
//! request it belongs to. Spans wrap the benchmark's own calls into each
//! layer; they stay in memory until the run ends and are then written out.
//! A span's self time is its duration minus the part of its interval that
//! its children cover.

use std::io::Write;
use std::time::Instant;

/// Returned by [`Tracer::begin`] when tracing is off.
pub const NO_SPAN: usize = usize::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    /// Request id; spans of one request share it (0: not request-scoped).
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span recorder. Threads share an epoch so their spans can
/// be merged into one tree with [`Tracer::adopt`].
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        Tracer {
            epoch,
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder for another thread, sharing this one's epoch and switch.
    pub fn child(&self) -> Self {
        Tracer::new(self.epoch, self.enabled)
    }

    /// A recorder sharing this one's epoch that records nothing.
    pub fn child_disabled(&self) -> Self {
        Tracer::new(self.epoch, false)
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, req: u64) -> usize {
        if !self.enabled {
            return NO_SPAN;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            req,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` and any span still open inside it (left open by
    /// an early error return).
    pub fn end(&mut self, id: usize) {
        if id == NO_SPAN {
            return;
        }
        let depth = self
            .open
            .iter()
            .rposition(|&open| open == id)
            .expect("closing a span that is not open");
        let now = self.now_ns();
        for inner in self.open.drain(depth..) {
            self.spans[inner].end_ns = now;
        }
    }

    /// Closes span `id` at `at` instead of now.
    pub fn end_at(&mut self, id: usize, at: Instant) {
        if id == NO_SPAN {
            return;
        }
        self.end(id);
        self.spans[id].end_ns = at.saturating_duration_since(self.epoch).as_nanos() as u64;
    }

    /// Runs `f` inside a span.
    pub fn scope<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.begin(name, req);
        let out = f(self);
        self.end(id);
        out
    }

    /// Moves another thread's closed spans in, hanging its root spans
    /// under the innermost span open here.
    pub fn adopt(&mut self, other: Tracer) {
        assert!(other.open.is_empty(), "adopted spans must all be closed");
        let offset = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = match span.parent {
                Some(p) => Some(p + offset),
                None => parent,
            };
            span
        }));
    }

    /// Self time of every span, in span order.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (id, span) in self.spans.iter().enumerate() {
            if let Some(p) = span.parent {
                children[p].push(id);
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(span, kids)| {
                let mut covered: Vec<(u64, u64)> = kids
                    .iter()
                    .map(|&k| {
                        let kid = &self.spans[k];
                        (kid.start_ns.max(span.start_ns), kid.end_ns.min(span.end_ns))
                    })
                    .filter(|(s, e)| e > s)
                    .collect();
                covered.sort_unstable();
                let mut union = 0;
                let mut reach = 0;
                for (s, e) in covered {
                    let s = s.max(reach);
                    if e > s {
                        union += e - s;
                        reach = e;
                    }
                }
                span.duration_ns().saturating_sub(union)
            })
            .collect()
    }

    /// Self times, in ns, of every span called `name`.
    pub fn self_times_of(&self, name: &str, all: &[u64]) -> Vec<f64> {
        self.spans
            .iter()
            .zip(all)
            .filter(|(span, _)| span.name == name)
            .map(|(_, &t)| t as f64)
            .collect()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let self_times = self.self_times();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, (span, self_ns)) in self.spans.iter().zip(self_times).enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"req\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                span.name, span.req, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(us: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < us as u128 {}
    }

    #[test]
    fn nested_and_adopted_spans_have_nonnegative_self_time() {
        let epoch = Instant::now();
        let mut root = Tracer::new(epoch, true);
        let top = root.begin("top", 0);
        let mut a = root.child();
        let mut b = root.child();
        a.scope("req", 1, |t| {
            spin(200);
            t.scope("inner", 1, |_| spin(200));
        });
        b.scope("req", 2, |_| spin(300));
        root.adopt(a);
        root.adopt(b);
        spin(100);
        root.end(top);

        let self_times = root.self_times();
        for (id, span) in root.spans().iter().enumerate() {
            if let Some(p) = span.parent {
                let parent = &root.spans()[p];
                assert!(parent.start_ns <= span.start_ns && span.end_ns <= parent.end_ns);
            }
            assert!(self_times[id] <= span.duration_ns());
        }
        // "inner" is a leaf; "req" 1 excludes its child's interval.
        let inner = root.self_times_of("inner", &self_times)[0];
        assert_eq!(inner as u64, root.spans()[2].duration_ns());
        let req1 = root.spans()[1].duration_ns();
        assert_eq!(self_times[1], req1 - root.spans()[2].duration_ns());
        // Parallel children overlap; the parent's self time counts the
        // union once, never negatively.
        assert!(self_times[0] >= 100_000);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now(), false);
        let id = t.begin("x", 0);
        assert_eq!(id, NO_SPAN);
        t.end(id);
        assert!(t.spans().is_empty());
    }
}
