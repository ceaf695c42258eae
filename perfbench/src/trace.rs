//! In-memory spans recorded by the benchmark around its calls into each
//! crate, folded into per-layer times when the run ends.
//!
//! A span is (name, start, end, parent, job). Spans are kept in memory and
//! written out as JSON lines after the timed loop, so recording costs two
//! clock reads and a push.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub job: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans on one thread. Nesting follows the call stack.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(t0: Instant) -> Tracer {
        Tracer {
            t0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` belonging to `job`.
    pub fn span<R>(&mut self, name: &'static str, job: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            job,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another thread's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"job\":{}}}",
                s.name, s.start_ns, s.end_ns, s.job
            )?;
        }
        out.flush()
    }
}

/// Per-layer totals of one fold.
#[derive(Debug, Default, Clone)]
pub struct Layer {
    /// Number of spans.
    pub spans: usize,
    /// Summed span durations \[ns\].
    pub total_ns: u64,
    /// Summed self time (duration minus child coverage) \[ns\].
    pub self_ns: u64,
    /// Per-job summed durations \[ns\], one entry per job with this layer.
    pub per_job_ns: BTreeMap<u64, u64>,
}

/// Folds spans into per-layer totals keyed by span name.
pub fn fold(spans: &[Span]) -> BTreeMap<&'static str, Layer> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut layers: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let l = layers.entry(s.name).or_default();
        l.spans += 1;
        l.total_ns += s.dur_ns();
        l.self_ns += s.dur_ns().saturating_sub(child_ns[i]);
        *l.per_job_ns.entry(s.job).or_default() += s.dur_ns();
    }
    layers
}

/// Median over jobs of a layer's per-job time \[ms\]; `0` when the layer
/// recorded no span (the workload bypasses it).
pub fn per_job_median_ms(layers: &BTreeMap<&'static str, Layer>, name: &str) -> f64 {
    layers.get(name).map_or(0.0, |l| {
        let v: Vec<f64> = l.per_job_ns.values().map(|&ns| ns as f64 * 1e-6).collect();
        crate::stats::median(&v).unwrap_or(0.0)
    })
}

/// Median over spans of one layer's span duration \[ms\]; `0` when absent.
pub fn per_span_median_ms(spans: &[Span], name: &str) -> f64 {
    let v: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 * 1e-6)
        .collect();
    crate::stats::median(&v).unwrap_or(0.0)
}

/// The self-time table, one line per layer, with the root `job` spans'
/// self time reported as `unattributed`.
pub fn self_time_table(layers: &BTreeMap<&'static str, Layer>) -> String {
    let wall: u64 = layers.get("job").map_or(0, |l| l.total_ns);
    let mut out = format!(
        "{:<24} {:>7} {:>12} {:>12} {:>8}\n",
        "layer", "spans", "total ms", "self ms", "self %"
    );
    for (name, l) in layers {
        let label = if *name == "job" { "unattributed" } else { name };
        out.push_str(&format!(
            "{:<24} {:>7} {:>12.3} {:>12.3} {:>7.2}%\n",
            label,
            l.spans,
            l.total_ns as f64 * 1e-6,
            l.self_ns as f64 * 1e-6,
            100.0 * l.self_ns as f64 / wall.max(1) as f64
        ));
    }
    out
}

/// Share of the root `job` spans not covered by any child span.
pub fn unattributed_frac(layers: &BTreeMap<&'static str, Layer>) -> f64 {
    layers
        .get("job")
        .map_or(0.0, |l| l.self_ns as f64 / l.total_ns.max(1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            job: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("job", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 40, 90, Some(0)),
            span("c", 50, 60, Some(2)),
        ];
        let layers = fold(&spans);
        assert_eq!(layers["job"].self_ns, 20);
        assert_eq!(layers["a"].self_ns, 30);
        assert_eq!(layers["b"].self_ns, 40);
        assert_eq!(layers["c"].self_ns, 10);
        assert!((unattributed_frac(&layers) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn nested_spans_record_parents() {
        let mut t = Tracer::new(Instant::now());
        t.span("job", 7, |t| t.span("inner", 7, |_| ()));
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[0].parent, None);
        assert!(t.spans()[0].dur_ns() >= t.spans()[1].dur_ns());
    }
}
