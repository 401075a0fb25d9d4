//! Spans recorded around each layer call of the traced run. They stay in
//! memory while the run measures and are written out when it ends.

use crate::Res;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one request or job.
    pub request: u64,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        out
    }

    /// Durations (seconds) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_s)
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> Res<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()?;
        Ok(())
    }
}
