//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions (no tracing inside the program itself).
//!
//! A span has a name, a start, an end and a parent; all spans of one
//! job or request share its id. Spans stay in memory and are written
//! out once, when the benchmark ends. A span's self time is its
//! duration minus the part of its interval its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the tracer's epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub job: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans when enabled; every call is a no-op when disabled, so
/// untraced runs share the traced code path without recording.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

/// Handle of an open span (`None` when tracing is off).
pub type SpanId = Option<usize>;

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Turns recording on or off (traced runs alternate traced and
    /// untraced passes to measure the tracing overhead).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Nanoseconds since the tracer's epoch.
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span now under `parent`.
    pub fn open(&mut self, name: &'static str, parent: SpanId, job: u64) -> SpanId {
        if !self.enabled {
            return None;
        }
        let now = self.now_ns();
        self.record(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            job,
        })
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&mut self, id: SpanId) {
        if let Some(i) = id {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Adds a finished span.
    fn record(&mut self, span: Span) -> SpanId {
        if !self.enabled {
            return None;
        }
        self.spans.push(span);
        Some(self.spans.len() - 1)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a JSON array (one object per span, `parent` as an
    /// index into the array).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"job\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.job, s.start_ns, s.end_ns
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, each clipped to the parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Per span name: (count, total duration, total self time, durations).
pub type SpanSummary = BTreeMap<&'static str, (u64, u64, u64, Vec<f64>)>;

pub fn summarize(spans: &[Span]) -> SpanSummary {
    let mut out = SpanSummary::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.duration_ns();
        e.2 += self_ns;
        e.3.push(s.duration_ns() as f64);
    }
    out
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
    fn self_time_subtracts_the_union_of_clipped_children() {
        let spans = vec![
            span("job", 0, 100, None),
            span("a", 10, 30, Some(0)),
            // Overlaps `a`: only 30..50 is new.
            span("b", 20, 50, Some(0)),
            // Runs past the parent: only 90..100 counts.
            span("c", 90, 120, Some(0)),
            span("leaf", 12, 18, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 14, 30, 30, 6]);
    }

    #[test]
    fn childless_span_is_all_self_time() {
        assert_eq!(self_times(&[span("x", 5, 9, None)]), vec![4]);
    }

    #[test]
    fn summary_sums_by_name() {
        let spans = vec![
            span("job", 0, 10, None),
            span("run", 2, 6, Some(0)),
            span("job", 10, 30, None),
            span("run", 12, 28, Some(2)),
        ];
        let s = summarize(&spans);
        assert_eq!(s["job"].0, 2);
        assert_eq!(s["job"].1, 30);
        assert_eq!(s["job"].2, 10);
        assert_eq!(s["run"].2, 20);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open("x", None, 1);
        t.close(id);
        assert!(id.is_none() && t.spans().is_empty());
        assert_eq!(t.to_json(), "[\n]");
    }
}
