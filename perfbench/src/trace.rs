//! In-memory span recorder for the traced run.
//!
//! A span is one call into a layer's public function: its name, the id of
//! the scenario or benchmark it belongs to, its parent span and its start
//! and end. Spans stay in memory until the run ends; [`Tracer::write`] then
//! dumps them as TSV. A layer's self time is its spans' durations minus the
//! part covered by their child spans.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span, used as the parent of later spans.
pub type SpanId = usize;

struct Span {
    name: &'static str,
    id: u64,
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: u64,
}

/// Per-layer totals derived from the recorded spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTotal {
    /// Sum of the spans' self time in seconds.
    pub self_s: f64,
    /// Number of spans.
    pub count: u64,
}

/// Collects spans relative to one origin instant.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, id: u64, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, span: SpanId) {
        self.spans[span].end_ns = self.now_ns();
    }

    /// Record `f` as one leaf span and return its result.
    pub fn leaf<T>(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.begin(name, id, parent);
        let out = f();
        self.end(span);
        out
    }

    /// Durations in seconds of every span called `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// Self time and span count per span name.
    pub fn layer_totals(&self) -> BTreeMap<&'static str, LayerTotal> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut totals: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let total = totals.entry(span.name).or_default();
            total.self_s += (span.end_ns - span.start_ns).saturating_sub(children) as f64 * 1e-9;
            total.count += 1;
        }
        totals
    }

    /// Write every span as one TSV line: name, id, parent, start, end (ns).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index\tname\tid\tparent\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{parent}\t{}\t{}",
                s.name, s.id, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
