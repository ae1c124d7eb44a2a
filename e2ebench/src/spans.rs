//! The traced run's span recorder, a front for `digamma_obs::Tracer`.
//!
//! Spans are recorded from the benchmark's own code around its calls
//! into each crate's public functions; nothing inside the program under
//! test is instrumented. A span carries a name, start, end, parent, and
//! the id of the job or search it belongs to (its trace). Callers time
//! with `Instant` as they would untraced and record the span afterwards
//! as a back-dated `SpanRecord`. Spans stay in memory until
//! [`Tracer::write_chrome`] writes them out at the end of the run.

use digamma_obs::{render_chrome_trace, SpanId, SpanRecord, TraceId};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Spans a run's store holds before it evicts whole traces: far more
/// than any workload records, so a run keeps every span.
const CAPACITY: usize = 1 << 22;

/// Collects spans when enabled; records nothing when disabled.
#[derive(Debug)]
pub struct Tracer {
    store: digamma_obs::Tracer,
    /// The time base of every span's `start_ns`.
    epoch: Instant,
}

/// Per-name totals: calls, total and self nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Spans recorded under the name.
    pub spans: u64,
    /// Calls those spans cover.
    pub calls: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of durations minus the parts child spans cover.
    pub self_ns: u64,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Tracer {
        let store = if enabled {
            digamma_obs::Tracer::with_capacity(CAPACITY)
        } else {
            digamma_obs::Tracer::disabled()
        };
        // The benchmark reports span times itself; none is logged as slow.
        store.set_slow_span_threshold(Duration::from_secs(365 * 86_400));
        Tracer { store, epoch: Instant::now() }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.store.enabled()
    }

    /// Records `[start, end)`, covering `calls` calls, under `parent` in
    /// trace `trace`, and returns the new span's id (0 when disabled) for
    /// use as a later child's parent.
    pub fn record(
        &self,
        trace: u64,
        parent: Option<SpanId>,
        name: &'static str,
        start: Instant,
        end: Instant,
        calls: u64,
    ) -> SpanId {
        if !self.enabled() {
            return SpanId(0);
        }
        let span = self.store.span_id();
        self.store.record(SpanRecord {
            trace: TraceId(u128::from(trace)),
            span,
            parent,
            name,
            job: Some(trace),
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            dur_ns: end.saturating_duration_since(start).as_nanos() as u64,
            attrs: vec![("calls", calls.to_string())],
        });
        span
    }

    /// Every span recorded so far, ordered by start.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.store.recent(usize::MAX)
    }

    /// Writes every span to `path` as Chrome trace-event JSON (loadable
    /// in Perfetto; trace, span and parent ids ride in each event's
    /// `args`).
    ///
    /// # Errors
    ///
    /// Returns the I/O error message.
    pub fn write_chrome(&self, path: &Path) -> Result<(), String> {
        std::fs::write(path, render_chrome_trace(&self.spans()))
            .map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// The calls a span covers (its `calls` attribute).
fn calls(span: &SpanRecord) -> u64 {
    span.attrs.iter().find(|(k, _)| *k == "calls").and_then(|(_, v)| v.parse().ok()).unwrap_or(1)
}

/// Totals per span name. A span's self time is its duration minus the
/// union of its children's intervals (clipped to the span).
pub fn totals(spans: &[SpanRecord]) -> BTreeMap<&'static str, Totals> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            children.entry(parent.0).or_default().push((s.start_ns, s.start_ns + s.dur_ns));
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for s in spans {
        let end_ns = s.start_ns + s.dur_ns;
        let mut covered = 0;
        if let Some(kids) = children.get_mut(&s.span.0) {
            kids.sort_unstable();
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
        }
        let t = out.entry(s.name).or_default();
        t.spans += 1;
        t.calls += calls(s);
        t.total_ns += s.dur_ns;
        t.self_ns += s.dur_ns - covered.min(s.dur_ns);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            trace: TraceId(1),
            span: SpanId(id),
            parent: parent.map(SpanId),
            name,
            job: Some(1),
            start_ns: start,
            dur_ns: end - start,
            attrs: vec![("calls", "2".into())],
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, None, "job", 0, 100),
            span(2, Some(1), "a", 10, 40),
            // Overlaps the first child: counted once.
            span(3, Some(1), "b", 30, 50),
            // Sticks out past the parent: clipped.
            span(4, Some(1), "c", 90, 120),
        ];
        let t = totals(&spans);
        assert_eq!(t["job"].total_ns, 100);
        assert_eq!(t["job"].self_ns, 100 - 40 - 10);
        assert_eq!(t["job"].calls, 2);
        assert_eq!(t["a"].self_ns, 30);
    }

    #[test]
    fn recorded_spans_keep_trace_parent_and_interval() {
        let tracer = Tracer::new(true);
        let t0 = Instant::now();
        let t1 = t0 + Duration::from_micros(5);
        let root = tracer.record(7, None, "job", t0, t1, 1);
        let child = tracer.record(7, Some(root), "net.submit", t0, t1, 3);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let got = spans.iter().find(|s| s.span == child).unwrap();
        assert_eq!((got.trace, got.parent, got.dur_ns), (TraceId(7), Some(root), 5_000));
        assert_eq!(calls(got), 3);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        let now = Instant::now();
        assert_eq!(tracer.record(1, None, "x", now, now, 1), SpanId(0));
        assert!(tracer.spans().is_empty());
    }
}
