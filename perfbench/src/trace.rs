//! In-memory spans recorded around the benchmark's own calls into each
//! layer. A disabled tracer records nothing; an enabled one keeps every
//! span in a bounded buffer that is written out once, when the run ends.

use std::io::Write;
use std::time::Instant;

/// Most spans one tracer keeps; later spans are counted but dropped.
const MAX_SPANS: usize = 200_000;

/// No parent span.
const ROOT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    /// Request id for per-query spans, 0 for layer calls.
    pub req: u64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    dropped: u64,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            dropped: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A tracer for another thread, sharing this one's clock origin.
    pub fn child(&self) -> Tracer {
        Tracer::new(self.enabled, self.origin)
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one; returns its index.
    pub fn begin(&mut self, name: &'static str) -> u32 {
        if !self.enabled {
            return ROOT;
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return ROOT;
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(ROOT);
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
            req: 0,
        });
        self.open.push(id);
        id
    }

    /// Close the span `begin` returned.
    pub fn end(&mut self, id: u32) {
        if id == ROOT {
            return;
        }
        let end = self.now_ns();
        self.spans[id as usize].end_ns = end;
        if self.open.last() == Some(&id) {
            self.open.pop();
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Record an already-timed per-request span under the innermost open
    /// span. Callers sample which requests they record.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, req: u64) {
        if !self.enabled {
            return;
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent: self.open.last().copied().unwrap_or(ROOT),
            req,
        });
    }

    /// Fold another thread's spans in, under the innermost open span.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(ROOT);
        for mut s in other.spans {
            if self.spans.len() >= MAX_SPANS {
                self.dropped += 1;
                continue;
            }
            s.parent = if s.parent == ROOT {
                parent
            } else {
                s.parent + base
            };
            self.spans.push(s);
        }
        self.dropped += other.dropped;
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        if self.dropped > 0 {
            writeln!(w, "{{\"dropped\":{}}}", self.dropped)?;
        }
        w.flush()
    }
}
