//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its name, start and end (nanoseconds since the
//! tracer's epoch), its parent span and a request id shared by the spans
//! of one logical request. Spans stay in memory while the workload runs
//! and are written out once, at exit ([`Tracer::write_tsv`]). A layer's
//! self time is the sum of its spans' durations minus the time their
//! child spans cover.
//!
//! A disabled tracer records nothing; each `enter`/`exit` then costs one
//! branch.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// Sentinel parent of a root span.
const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    request: u32,
}

/// Per-name totals derived from the recorded spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Spans recorded under the name.
    pub calls: u64,
    /// Sum of the spans' durations.
    pub total_ns: u64,
    /// `total_ns` minus the time covered by child spans.
    pub self_ns: u64,
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Handle of an open span, returned by [`Tracer::enter`].
#[derive(Debug, Clone, Copy)]
#[must_use = "a span must be closed with Tracer::exit"]
pub struct SpanId(u32);

impl Tracer {
    /// A tracer that records spans when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &'static str, request: u32) -> SpanId {
        if !self.enabled {
            return SpanId(NO_PARENT);
        }
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let end = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id.0), "spans close innermost first");
        self.spans[id.0 as usize].end_ns = end;
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Totals and self time per span name.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != NO_PARENT {
                child_ns[span.parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (span, child) in self.spans.iter().zip(child_ns) {
            let total = span.end_ns - span.start_ns;
            let entry = out.entry(span.name).or_default();
            entry.calls += 1;
            entry.total_ns += total;
            entry.self_ns += total.saturating_sub(child);
        }
        out
    }

    /// Durations of every span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// Writes every span as one tab-separated line:
    /// `id parent request name start_ns end_ns` (parent `-` for roots).
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\trequest\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent == NO_PARENT {
                write!(out, "{i}\t-")?;
            } else {
                write!(out, "{i}\t{}", s.parent)?;
            }
            writeln!(
                out,
                "\t{}\t{}\t{}\t{}",
                s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let outer = t.enter("outer", 1);
        let inner = t.enter("inner", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(inner);
        t.exit(outer);
        let times = t.layer_times();
        let (o, i) = (times["outer"], times["inner"]);
        assert_eq!(o.calls, 1);
        assert!(i.total_ns >= 2_000_000);
        assert_eq!(o.self_ns, o.total_ns - i.total_ns);
        assert_eq!(i.self_ns, i.total_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.enter("x", 0);
        t.exit(s);
        assert_eq!(t.len(), 0);
        assert!(t.layer_times().is_empty());
    }
}
