//! An in-memory span recorder for the traced run: each span is a name,
//! a start and end relative to the recorder's creation, and the index of
//! the span that encloses it. Spans are written out once, at the end.

use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: String,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`close`](Self::close).
    pub fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_owned(),
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` and returns its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        #[allow(clippy::cast_precision_loss)]
        let secs = (end_ns - span.start_ns) as f64 / 1e9;
        secs
    }

    /// Runs `f` inside a span; returns its result and duration in seconds.
    pub fn time<T>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, parent);
        let out = f();
        (out, self.close(id))
    }

    /// The spans as a JSON list of `[name, parent, start_ns, end_ns]`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (n, s) in self.spans.iter().enumerate() {
            let sep = if n == 0 { "" } else { ", " };
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}[{:?}, {parent}, {}, {}]",
                s.name, s.start_ns, s.end_ns
            );
        }
        out.push(']');
        out
    }
}
