//! Spans around the calls the benchmark itself issues.
//!
//! This change records spans from outside the program only: one per call
//! into a public function, parented to the request (or ladder rung) that
//! caused it. They stay in memory and are written when the run ends.

use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Spans kept per run; later spans are counted but dropped, so a long
/// in-process run cannot grow without bound.
const MAX_SPANS: usize = 200_000;

struct Span {
    parent: u32,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

/// Parent id of a root span.
pub const ROOT: u32 = 0;

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// Record a finished span; returns its id (1-based; 0 when dropped),
    /// usable as the parent of later spans.
    pub fn span(&mut self, name: &'static str, parent: u32, start: Instant, end: Instant) -> u32 {
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return ROOT;
        }
        self.spans.push(Span {
            parent,
            name,
            start_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
            end_ns: end.saturating_duration_since(self.origin).as_nanos() as u64,
        });
        self.spans.len() as u32
    }

    /// Start a span that will parent others; [`Tracer::close`] ends it.
    pub fn open(&mut self, name: &'static str, parent: u32) -> u32 {
        let now = Instant::now();
        self.span(name, parent, now, now)
    }

    pub fn close(&mut self, id: u32) {
        let now = self.origin.elapsed().as_nanos() as u64;
        if let Some(s) = (id as usize)
            .checked_sub(1)
            .and_then(|i| self.spans.get_mut(i))
        {
            s.end_ns = now;
        }
    }

    /// Merge spans recorded on another thread, re-basing ids and parents.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        let shift = other
            .origin
            .saturating_duration_since(self.origin)
            .as_nanos() as u64;
        self.dropped += other.dropped;
        for s in other.spans {
            if self.spans.len() >= MAX_SPANS {
                self.dropped += 1;
                continue;
            }
            self.spans.push(Span {
                parent: if s.parent == ROOT {
                    ROOT
                } else {
                    s.parent + base
                },
                start_ns: s.start_ns + shift,
                end_ns: s.end_ns + shift,
                ..s
            });
        }
    }

    /// Write `{id, parent, name, start_ns, end_ns}` lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                i + 1,
                s.parent,
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        if self.dropped > 0 {
            writeln!(out, "{{\"dropped_spans\": {}}}", self.dropped)?;
        }
        out.flush()
    }
}
