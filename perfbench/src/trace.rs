//! In-memory spans for the traced run.
//!
//! The benchmark records a span around each call it makes into a layer's public
//! entry point: name, start, end, the enclosing span and the operation it belongs
//! to. Spans stay in memory until the run ends and are then written out as JSON
//! lines. A span's *self time* is its duration minus the time its child spans
//! cover; a layer's self time is the sum over the spans named after it
//! (`<layer>.<call>`).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// One thread's span recorder. When disabled, `enter`/`exit` only keep time.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
    /// Operation ids are `stream << 40 | n`, so ids from several clients never clash.
    stream: u64,
}

/// An open span; pass it back to [`Tracer::exit`].
#[must_use]
pub struct Open {
    start: Instant,
    index: Option<usize>,
}

impl Tracer {
    pub fn new(origin: Instant, stream: u64) -> Tracer {
        Tracer {
            origin,
            enabled: false,
            spans: vec![],
            open: vec![],
            op: 0,
            stream,
        }
    }

    /// The instant span times count from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Starts the next operation; spans opened from now on carry its id.
    pub fn begin_op(&mut self) {
        self.op += 1;
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let index = self.enabled.then(|| {
            self.spans.push(Span {
                name,
                start_ns: (start - self.origin).as_nanos() as u64,
                end_ns: 0,
                parent: self.open.last().copied(),
                op: self.stream << 40 | self.op,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { start, index }
    }

    pub fn exit(&mut self, open: Open) -> Duration {
        let end = Instant::now();
        if let Some(index) = open.index {
            self.spans[index].end_ns = (end - self.origin).as_nanos() as u64;
            let top = self.open.pop();
            debug_assert_eq!(top, Some(index), "spans must close in order");
        }
        end - open.start
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let open = self.enter(name);
        let out = f();
        (out, self.exit(open))
    }

    /// Appends another thread's spans (their parent links shift with them).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in microseconds of every span with this name.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// Self time per layer, in nanoseconds.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        let mut by_layer = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            *by_layer.entry(span.layer()).or_default() +=
                span.duration_ns().saturating_sub(children);
        }
        by_layer
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"op\": {}}}",
                s.name, s.start_ns, s.end_ns, parent, s.op
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_disabled_records_nothing() {
        let mut t = Tracer::new(Instant::now(), 0);
        t.span("op.read", || ());
        assert!(t.spans().is_empty());
        t.set_enabled(true);
        t.begin_op();
        let op = t.enter("op.read");
        t.span("parser.parse", || {
            std::thread::sleep(Duration::from_millis(2))
        });
        let total = t.exit(op);
        let layers = t.self_time_by_layer();
        assert!(layers["parser"] >= 2_000_000);
        assert_eq!(
            layers["op"] + layers["parser"],
            t.spans()[0].duration_ns(),
            "self times partition the root span"
        );
        assert!(total.as_nanos() as u64 >= t.spans()[0].duration_ns());
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].op, 1);
    }
}
