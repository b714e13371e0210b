//! In-memory span recording for the traced run.
//!
//! A span brackets one call from the benchmark into a layer of the
//! program. Spans are kept in memory while the run is timed and written
//! out once it ends. A layer's self time is the time its spans cover minus
//! the time covered by their child spans; the root span's self time is the
//! `unattributed` remainder, so self times always sum to the root's wall
//! time exactly.

use std::fmt::Write as _;
use std::time::Instant;

/// Layers a span can be charged to, by span-name prefix. `bench` is the
/// benchmark's own work (reference kernel, output checks); `unattributed`
/// collects whatever no span covers.
pub const LAYERS: &[&str] = &[
    "trace.gen",
    "core.link",
    "sim.fabric",
    "sim.shard",
    "sim.throughput",
    "sim.resources",
    "telemetry",
    "bench",
    "unattributed",
];

/// One recorded call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// Records spans when enabled; every method is one branch when disabled.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`on`) or does nothing.
    #[must_use]
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span named `name` inside the innermost open span.
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics if no span is open.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let now = self.now_ns();
        let idx = self.open.pop().expect("exit without a matching enter");
        self.spans[idx].end_ns = now;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        self.enter(name);
        let out = f(self);
        self.exit();
        out
    }

    /// The recorded spans, in start order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its children's.
    #[must_use]
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.end_ns - s.start_ns;
            }
        }
        own
    }

    /// Self-time totals of the spans whose name matches `prefix` exactly
    /// or up to a `.`, in nanoseconds.
    #[must_use]
    pub fn self_ns_of(&self, prefix: &str) -> u64 {
        self.spans
            .iter()
            .zip(self.self_ns())
            .filter(|(s, _)| matches_prefix(s.name, prefix))
            .map(|(_, ns)| ns)
            .sum()
    }

    /// Total duration of the spans named exactly `name`, in nanoseconds.
    #[must_use]
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Wall time (root spans' total) and the self time of each of
    /// [`LAYERS`], in order. Spans outside every layer, the root included,
    /// count as `unattributed`; the layer times sum to the wall time.
    #[must_use]
    pub fn attribute(&self) -> (u64, Vec<u64>) {
        let mut layers = vec![0u64; LAYERS.len()];
        let unattributed = LAYERS.len() - 1;
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            let idx = LAYERS[..unattributed]
                .iter()
                .position(|l| matches_prefix(s.name, l))
                .unwrap_or(unattributed);
            layers[idx] += ns;
        }
        let wall = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        (wall, layers)
    }

    /// The spans as JSON lines: `{"id","name","start_ns","end_ns","parent"}`.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

fn matches_prefix(name: &str, prefix: &str) -> bool {
    name.strip_prefix(prefix)
        .is_some_and(|rest| rest.is_empty() || rest.starts_with('.'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_wall_time() {
        let mut tr = Tracer::new(true);
        tr.span("run", |tr| {
            tr.span("core.link.request_batch", |tr| {
                tr.span("bench.calibrate", |_| std::hint::black_box(1));
            });
            tr.span("trace.gen", |_| ());
            tr.span("telemetry.from_jsonl", |_| ());
        });
        let (wall, layers) = tr.attribute();
        assert_eq!(layers.iter().sum::<u64>(), wall);
        assert_eq!(tr.spans().len(), 5);
        assert_eq!(tr.to_jsonl().lines().count(), 5);
    }

    #[test]
    fn prefixes_match_whole_segments() {
        assert!(matches_prefix("core.link", "core.link"));
        assert!(matches_prefix("core.link.build", "core.link"));
        assert!(!matches_prefix("core.linker", "core.link"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        tr.span("run", |tr| tr.span("trace.gen", |_| ()));
        assert!(tr.spans().is_empty());
        assert_eq!(tr.attribute(), (0, vec![0; LAYERS.len()]));
    }
}
