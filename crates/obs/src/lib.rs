//! `digamma-obs`: hand-rolled, dependency-free observability.
//!
//! The same in-tree discipline as `httpio`: no external crates, just
//! what the service needs. The centerpiece is [`MetricsRegistry`], a
//! registry of counters, gauges, and fixed-bucket histograms with label
//! support behind one lock, rendered on demand in Prometheus text
//! exposition format (version 0.0.4). Handles returned by the registry
//! are cheap `Arc` clones over atomics: the instrumented hot path
//! performs a few relaxed atomic ops, never allocates and never takes
//! the registry's lock.
//!
//! The crate also ships [`parse_text`], a parser for the exposition
//! format, so clients (`digamma-netc metrics`) and wire tests can
//! round-trip a scrape without guessing at the grammar.
//!
//! Two sibling modules complete the observability story: [`mod@trace`]
//! records per-request/per-job span timelines (W3C `traceparent`
//! propagation, Chrome trace-event export for Perfetto), and
//! [`mod@log`] is the structured leveled logger that stamps those
//! trace/span ids onto every line. [`mod@json`] is the one JSON reader
//! and writer every document here (and the perf harness) goes through.

#![warn(missing_docs)]

pub mod analytics;
pub mod fail;
pub mod json;
pub mod log;
pub mod trace;

pub use analytics::{
    render_analytics_json, AnalyticsRing, CostPoint, GenStats, OpCounter, OpCounters, OpKind,
};
pub use fail::{FailAction, FailSet};
pub use json::{json_num, json_str, parse_json, JsonValue};
pub use log::{format_line, LogLevel, Logger};
pub use trace::{
    parse_chrome_trace, render_chrome_trace, ChromeEvent, Span, SpanContext, SpanId, SpanRecord,
    TraceId, Tracer,
};

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Default latency buckets, in seconds: roughly exponential from 1µs
/// to 16s, dense where the service actually operates (µs-scale evals,
/// ms-scale requests, second-scale jobs).
pub const DEFAULT_LATENCY_BUCKETS: &[f64] = &[
    1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 1e-3, 4e-3, 1.6e-2, 6.4e-2, 0.25, 1.0,
    4.0, 16.0,
];

/// What kind of metric a family holds; fixed at first registration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing `u64`.
    Counter,
    /// Arbitrary `f64`, set or adjusted.
    Gauge,
    /// Fixed-bucket distribution with sum and count.
    Histogram,
}

impl MetricKind {
    fn exposition_name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// A monotonically increasing counter handle. Cloning is cheap and all
/// clones update the same cell.
#[derive(Debug, Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.cell.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if n != 0 {
            self.cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A gauge handle (an `f64` stored as bits in an atomic). Cloning is
/// cheap and all clones update the same cell.
#[derive(Debug, Clone)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.cell.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Adjusts the gauge by `delta` (CAS loop; safe from any thread).
    pub fn add(&self, delta: f64) {
        let mut current = self.cell.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + delta).to_bits();
            match self.cell.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => current = seen,
            }
        }
    }

    /// Current value.
    #[must_use]
    pub fn value(&self) -> f64 {
        f64::from_bits(self.cell.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct HistogramCell {
    /// Upper bounds, ascending; an implicit `+Inf` bucket follows.
    bounds: Arc<[f64]>,
    /// One per bound, plus the overflow bucket — **non**-cumulative;
    /// rendering accumulates.
    buckets: Box<[AtomicU64]>,
    sum_bits: AtomicU64,
    count: AtomicU64,
}

/// A fixed-bucket histogram handle. Cloning is cheap and all clones
/// update the same cell.
#[derive(Debug, Clone)]
pub struct Histogram {
    cell: Arc<HistogramCell>,
}

impl Histogram {
    fn with_bounds(bounds: Arc<[f64]>) -> Histogram {
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            cell: Arc::new(HistogramCell {
                bounds,
                buckets,
                sum_bits: AtomicU64::new(0),
                count: AtomicU64::new(0),
            }),
        }
    }

    /// Records one observation.
    pub fn observe(&self, v: f64) {
        let cell = &*self.cell;
        let idx = cell.bounds.iter().position(|&b| v <= b).unwrap_or(cell.bounds.len());
        cell.buckets[idx].fetch_add(1, Ordering::Relaxed);
        cell.count.fetch_add(1, Ordering::Relaxed);
        let mut current = cell.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + v).to_bits();
            match cell.sum_bits.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => current = seen,
            }
        }
    }

    /// Records a duration, in seconds.
    pub fn observe_duration(&self, d: Duration) {
        self.observe(d.as_secs_f64());
    }

    /// Total number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.cell.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    #[must_use]
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.cell.sum_bits.load(Ordering::Relaxed))
    }
}

/// A 1-in-N sampling tick for hot paths where even two clock reads per
/// event would be measurable: `due()` costs one relaxed `fetch_add`
/// and a mask — no division — so it is safe to call hundreds of
/// thousands of times per second.
#[derive(Debug)]
pub struct SampleTick {
    mask: u64,
    tick: AtomicU64,
}

impl SampleTick {
    /// A tick answering `true` once every `every` calls (first call
    /// included). `every` is clamped to at least 1 and rounded up to
    /// the next power of two, which keeps `due()` division-free.
    #[must_use]
    pub fn new(every: u64) -> SampleTick {
        SampleTick { mask: every.max(1).next_power_of_two() - 1, tick: AtomicU64::new(0) }
    }

    /// Advances the tick; `true` on sampled calls.
    pub fn due(&self) -> bool {
        self.tick.fetch_add(1, Ordering::Relaxed) & self.mask == 0
    }

    /// The sampling period.
    #[must_use]
    pub fn every(&self) -> u64 {
        self.mask + 1
    }
}

#[derive(Debug, Clone)]
enum Cell {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

#[derive(Debug)]
struct Family {
    help: String,
    kind: MetricKind,
    bounds: Option<Arc<[f64]>>,
}

#[derive(Debug, PartialEq, Eq, Hash)]
struct SeriesKey {
    name: &'static str,
    labels: Vec<(&'static str, String)>,
}

/// What [`MetricsRegistry`]'s one lock guards.
#[derive(Debug, Default)]
struct Store {
    families: BTreeMap<&'static str, Family>,
    series: HashMap<SeriesKey, Cell>,
}

/// A metric store: one mutex over the series map and the family table
/// that holds `# HELP` / `# TYPE` metadata.
///
/// Registration (`counter`/`gauge`/`histogram`) interns by name +
/// sorted label set: asking twice returns handles on the same cell, so
/// call sites can re-derive handles for dynamic labels (tenants) at
/// event frequency without unbounded growth. The *update* path never
/// touches the registry at all — handles are self-contained atomics.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    store: Mutex<Store>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Returns the counter for `name` + `labels`, registering it on
    /// first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` was previously registered as a different kind,
    /// or if a name or label fails [`valid_metric_name`] /
    /// [`valid_label_name`].
    pub fn counter(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
    ) -> Counter {
        match self.intern(name, help, labels, MetricKind::Counter, None) {
            Cell::Counter(c) => c,
            _ => unreachable!("intern returned wrong cell kind"),
        }
    }

    /// Returns the gauge for `name` + `labels`, registering it on
    /// first use.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`MetricsRegistry::counter`].
    pub fn gauge(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
    ) -> Gauge {
        match self.intern(name, help, labels, MetricKind::Gauge, None) {
            Cell::Gauge(g) => g,
            _ => unreachable!("intern returned wrong cell kind"),
        }
    }

    /// Returns the histogram for `name` + `labels`, registering it on
    /// first use with the given bucket upper bounds (ascending,
    /// seconds by convention; an implicit `+Inf` bucket is added).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`MetricsRegistry::counter`],
    /// and if `bounds` is empty, not strictly ascending, or differs
    /// from the bounds the family was first registered with.
    pub fn histogram(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
        bounds: &[f64],
    ) -> Histogram {
        assert!(!bounds.is_empty(), "histogram {name} needs at least one bucket bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram {name} bounds must be strictly ascending"
        );
        match self.intern(name, help, labels, MetricKind::Histogram, Some(bounds)) {
            Cell::Histogram(h) => h,
            _ => unreachable!("intern returned wrong cell kind"),
        }
    }

    fn intern(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
        kind: MetricKind,
        bounds: Option<&[f64]>,
    ) -> Cell {
        assert!(valid_metric_name(name), "invalid metric name {name:?}");
        let mut sorted: Vec<(&'static str, String)> = labels
            .iter()
            .map(|&(k, v)| {
                assert!(valid_label_name(k), "invalid label name {k:?} on {name}");
                (k, v.to_owned())
            })
            .collect();
        sorted.sort_unstable_by(|a, b| a.0.cmp(b.0));
        let key = SeriesKey { name, labels: sorted };
        let mut guard = self.store.lock().expect("metric store poisoned");
        let store = &mut *guard;
        let family = store.families.entry(name).or_insert_with(|| Family {
            help: help.to_owned(),
            kind,
            bounds: bounds.map(Into::into),
        });
        assert!(family.kind == kind, "metric {name} registered as {:?} and {kind:?}", family.kind);
        if let (Some(have), Some(want)) = (&family.bounds, bounds) {
            assert!(
                have.as_ref() == want,
                "histogram {name} registered with two different bucket layouts"
            );
        }
        store
            .series
            .entry(key)
            .or_insert_with(|| match kind {
                MetricKind::Counter => Cell::Counter(Counter { cell: Arc::default() }),
                MetricKind::Gauge => Cell::Gauge(Gauge { cell: Arc::default() }),
                MetricKind::Histogram => Cell::Histogram(Histogram::with_bounds(
                    family.bounds.clone().expect("histogram family without bounds"),
                )),
            })
            .clone()
    }

    /// Renders every registered series in Prometheus text exposition
    /// format (version 0.0.4): families sorted by name, each preceded
    /// by `# HELP` and `# TYPE`, histograms expanded into cumulative
    /// `_bucket{le=...}` series plus `_sum` and `_count`.
    #[must_use]
    pub fn render(&self) -> String {
        let store = self.store.lock().expect("metric store poisoned");
        let mut series: HashMap<&'static str, Vec<(&SeriesKey, &Cell)>> = HashMap::new();
        for (key, cell) in &store.series {
            series.entry(key.name).or_default().push((key, cell));
        }
        let mut out = String::new();
        for (&name, family) in &store.families {
            let Some(mut rows) = series.remove(name) else { continue };
            rows.sort_unstable_by(|a, b| a.0.labels.cmp(&b.0.labels));
            out.push_str(&format!("# HELP {name} {}\n", escape_help(&family.help)));
            out.push_str(&format!("# TYPE {name} {}\n", family.kind.exposition_name()));
            for (key, cell) in rows {
                match cell {
                    Cell::Counter(c) => {
                        render_sample(&mut out, name, "", &key.labels, None, c.value() as f64);
                    }
                    Cell::Gauge(g) => {
                        render_sample(&mut out, name, "", &key.labels, None, g.value());
                    }
                    Cell::Histogram(h) => {
                        let cell = &*h.cell;
                        let mut cumulative = 0u64;
                        for (i, bound) in cell.bounds.iter().enumerate() {
                            cumulative += cell.buckets[i].load(Ordering::Relaxed);
                            render_sample(
                                &mut out,
                                name,
                                "_bucket",
                                &key.labels,
                                Some(&fmt_f64(*bound)),
                                cumulative as f64,
                            );
                        }
                        cumulative += cell.buckets[cell.bounds.len()].load(Ordering::Relaxed);
                        render_sample(
                            &mut out,
                            name,
                            "_bucket",
                            &key.labels,
                            Some("+Inf"),
                            cumulative as f64,
                        );
                        render_sample(&mut out, name, "_sum", &key.labels, None, h.sum());
                        render_sample(
                            &mut out,
                            name,
                            "_count",
                            &key.labels,
                            None,
                            h.count() as f64,
                        );
                    }
                }
            }
        }
        out
    }
}

/// Whether `name` is a legal Prometheus metric name
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`).
#[must_use]
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Whether `name` is a legal Prometheus label name
/// (`[a-zA-Z_][a-zA-Z0-9_]*`).
#[must_use]
pub fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn render_sample(
    out: &mut String,
    name: &str,
    suffix: &str,
    labels: &[(&'static str, String)],
    le: Option<&str>,
    value: f64,
) {
    out.push_str(name);
    out.push_str(suffix);
    if !labels.is_empty() || le.is_some() {
        out.push('{');
        let mut first = true;
        for (k, v) in labels {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(&escape_label_value(v));
            out.push('"');
        }
        if let Some(le) = le {
            if !first {
                out.push(',');
            }
            out.push_str("le=\"");
            out.push_str(le);
            out.push('"');
        }
        out.push('}');
    }
    out.push(' ');
    out.push_str(&fmt_f64(value));
    out.push('\n');
}

/// Escapes a label value per the exposition format: backslash, double
/// quote, and newline.
#[must_use]
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

fn escape_help(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

fn fmt_f64(v: f64) -> String {
    if v == f64::INFINITY {
        "+Inf".to_owned()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_owned()
    } else {
        // Rust's Display is shortest-roundtrip, which the format accepts.
        format!("{v}")
    }
}

/// One parsed sample line from an exposition scrape.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Full sample name (histogram series keep their `_bucket` /
    /// `_sum` / `_count` suffix).
    pub name: String,
    /// Label pairs in the order they appeared.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

impl Sample {
    /// The value of label `key`, if present.
    #[must_use]
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

/// Parses Prometheus text exposition into samples, skipping comments
/// and blank lines. Strict enough to prove a scrape is well-formed:
/// names and label names are validated, label values must be quoted
/// with legal escapes, and values must parse as floats (`+Inf`, `-Inf`
/// and `NaN` included).
///
/// # Errors
///
/// Returns a message naming the first offending line.
pub fn parse_text(text: &str) -> Result<Vec<Sample>, String> {
    let mut samples = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        samples.push(parse_sample(line).map_err(|e| format!("line {}: {e}: {raw:?}", idx + 1))?);
    }
    Ok(samples)
}

fn parse_sample(line: &str) -> Result<Sample, String> {
    let bytes = line.as_bytes();
    let name_end = bytes
        .iter()
        .position(|&b| b == b'{' || b == b' ' || b == b'\t')
        .ok_or("no value after metric name")?;
    let name = &line[..name_end];
    if !valid_metric_name(name) {
        return Err(format!("invalid metric name {name:?}"));
    }
    let mut labels = Vec::new();
    let mut rest = &line[name_end..];
    if let Some(stripped) = rest.strip_prefix('{') {
        let mut chars = stripped.char_indices().peekable();
        loop {
            // Label name (or closing brace for an empty/trailing-comma set).
            let start = match chars.peek() {
                Some(&(i, '}')) => {
                    chars.next();
                    rest = &stripped[i + 1..];
                    break;
                }
                Some(&(i, _)) => i,
                None => return Err("unterminated label set".to_owned()),
            };
            let mut key_end = start;
            for (i, c) in chars.by_ref() {
                if c == '=' {
                    key_end = i;
                    break;
                }
            }
            let key = &stripped[start..key_end];
            if !valid_label_name(key) {
                return Err(format!("invalid label name {key:?}"));
            }
            match chars.next() {
                Some((_, '"')) => {}
                _ => return Err(format!("label {key} value is not quoted")),
            }
            let mut value = String::new();
            loop {
                match chars.next() {
                    Some((_, '\\')) => match chars.next() {
                        Some((_, '\\')) => value.push('\\'),
                        Some((_, '"')) => value.push('"'),
                        Some((_, 'n')) => value.push('\n'),
                        other => return Err(format!("bad escape {other:?} in label {key}")),
                    },
                    Some((_, '"')) => break,
                    Some((_, c)) => value.push(c),
                    None => return Err(format!("unterminated value for label {key}")),
                }
            }
            labels.push((key.to_owned(), value));
            match chars.next() {
                Some((_, ',')) => continue,
                Some((i, '}')) => {
                    rest = &stripped[i + 1..];
                    break;
                }
                other => return Err(format!("expected , or }} after label, got {other:?}")),
            }
        }
    }
    let value_text = rest.trim();
    let value_text = value_text.split_whitespace().next().ok_or("missing sample value")?;
    let value = match value_text {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        other => other.parse().map_err(|_| format!("bad sample value {other:?}"))?,
    };
    Ok(Sample { name: name.to_owned(), labels, value })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_interned_by_name_and_labels() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("requests_total", "reqs", &[("endpoint", "/jobs")]);
        let b = reg.counter("requests_total", "reqs", &[("endpoint", "/jobs")]);
        let other = reg.counter("requests_total", "reqs", &[("endpoint", "/stats")]);
        a.inc();
        b.add(2);
        other.inc();
        assert_eq!(a.value(), 3);
        assert_eq!(b.value(), 3);
        assert_eq!(other.value(), 1);
    }

    #[test]
    fn label_order_does_not_split_series() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x_total", "x", &[("a", "1"), ("b", "2")]);
        let b = reg.counter("x_total", "x", &[("b", "2"), ("a", "1")]);
        a.inc();
        assert_eq!(b.value(), 1);
    }

    #[test]
    fn gauge_set_and_add() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("depth", "queue depth", &[]);
        g.set(4.0);
        g.add(-1.5);
        assert!((g.value() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_buckets_sum_count() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat_seconds", "latency", &[], &[0.1, 1.0]);
        h.observe(0.05);
        h.observe(0.5);
        h.observe(5.0);
        assert_eq!(h.count(), 3);
        assert!((h.sum() - 5.55).abs() < 1e-12);
        let text = reg.render();
        assert!(text.contains("lat_seconds_bucket{le=\"0.1\"} 1"), "{text}");
        assert!(text.contains("lat_seconds_bucket{le=\"1\"} 2"), "{text}");
        assert!(text.contains("lat_seconds_bucket{le=\"+Inf\"} 3"), "{text}");
        assert!(text.contains("lat_seconds_count 3"), "{text}");
    }

    #[test]
    fn histogram_value_exactly_on_a_bound_lands_in_that_bucket() {
        // Prometheus buckets are upper-inclusive: observe(b) counts in
        // le="b", not the next one up.
        let reg = MetricsRegistry::new();
        let h = reg.histogram("edge_seconds", "edges", &[], &[0.1, 1.0, 10.0]);
        h.observe(0.1);
        h.observe(1.0);
        let text = reg.render();
        assert!(text.contains("edge_seconds_bucket{le=\"0.1\"} 1"), "{text}");
        assert!(text.contains("edge_seconds_bucket{le=\"1\"} 2"), "{text}");
        assert!(text.contains("edge_seconds_bucket{le=\"10\"} 2"), "{text}");
        assert!(text.contains("edge_seconds_bucket{le=\"+Inf\"} 2"), "{text}");
    }

    #[test]
    fn histogram_above_last_finite_bucket_counts_only_in_inf() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("tail_seconds", "tails", &[], &[0.1, 1.0]);
        h.observe(1.000_000_1);
        h.observe(f64::MAX);
        let text = reg.render();
        assert!(text.contains("tail_seconds_bucket{le=\"0.1\"} 0"), "{text}");
        assert!(text.contains("tail_seconds_bucket{le=\"1\"} 0"), "{text}");
        assert!(text.contains("tail_seconds_bucket{le=\"+Inf\"} 2"), "{text}");
        assert!(text.contains("tail_seconds_count 2"), "{text}");
    }

    #[test]
    fn histogram_rendered_buckets_are_cumulative_up_to_inf() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("cum_seconds", "cum", &[], &[0.01, 0.1, 1.0]);
        for v in [0.005, 0.05, 0.05, 0.5, 2.0, 3.0, 4.0] {
            h.observe(v);
        }
        let samples = parse_text(&reg.render()).expect("parse");
        let mut buckets: Vec<(f64, f64)> = samples
            .iter()
            .filter(|s| s.name == "cum_seconds_bucket")
            .map(|s| {
                let le = s.label("le").expect("le label");
                let bound =
                    if le == "+Inf" { f64::INFINITY } else { le.parse().expect("finite bound") };
                (bound, s.value)
            })
            .collect();
        buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
        let counts: Vec<f64> = buckets.iter().map(|(_, c)| *c).collect();
        assert_eq!(counts, vec![1.0, 3.0, 4.0, 7.0], "cumulative counts must never decrease");
        assert_eq!(buckets.last().expect("inf bucket").0, f64::INFINITY);
        let count = samples.iter().find(|s| s.name == "cum_seconds_count").expect("count");
        assert_eq!(count.value, 7.0, "+Inf bucket must equal _count");
    }

    #[test]
    fn sample_tick_fires_one_in_n() {
        let tick = SampleTick::new(4);
        let fired = (0..16).filter(|_| tick.due()).count();
        assert_eq!(fired, 4);
        assert!(SampleTick::new(0).due(), "clamped period still fires");
    }

    #[test]
    fn render_is_sorted_with_help_and_type() {
        let reg = MetricsRegistry::new();
        reg.counter("b_total", "bees", &[]).inc();
        reg.gauge("a_gauge", "ays", &[]).set(1.0);
        let text = reg.render();
        let a = text.find("# HELP a_gauge ays").expect("a help line");
        let b = text.find("# HELP b_total bees").expect("b help line");
        assert!(a < b, "families must render sorted by name:\n{text}");
        assert!(text.contains("# TYPE a_gauge gauge"), "{text}");
        assert!(text.contains("# TYPE b_total counter"), "{text}");
    }

    #[test]
    fn label_values_escaped_and_parsed_back() {
        let reg = MetricsRegistry::new();
        let weird = "C:\\tmp\\dir with \"spaces\"\nand newline";
        reg.counter("weird_total", "weird", &[("path", weird)]).inc();
        let text = reg.render();
        assert!(text.contains("\\\\tmp"), "backslashes must be escaped:\n{text}");
        assert!(text.contains("\\\"spaces\\\""), "quotes must be escaped:\n{text}");
        assert!(text.contains("\\nand"), "newlines must be escaped:\n{text}");
        let samples = parse_text(&text).expect("round-trip parse");
        let sample = samples.iter().find(|s| s.name == "weird_total").expect("sample");
        assert_eq!(sample.label("path"), Some(weird));
        assert_eq!(sample.value, 1.0);
    }

    #[test]
    #[should_panic(expected = "registered as")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("same_name", "x", &[]);
        reg.gauge("same_name", "x", &[]);
    }

    #[test]
    #[should_panic(expected = "two different bucket layouts")]
    fn histogram_bounds_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.histogram("h_seconds", "x", &[], &[1.0]);
        reg.histogram("h_seconds", "x", &[], &[2.0]);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_text("no_value_here").is_err());
        assert!(parse_text("bad name{} 1").is_err());
        assert!(parse_text("x{unterminated=\"v} 1").is_err());
        assert!(parse_text("x{k=\"v\"} not_a_number").is_err());
        assert!(parse_text("x{k=\"bad\\q\"} 1").is_err(), "unknown escapes rejected");
    }

    #[test]
    fn parse_accepts_timestamps_and_special_values() {
        let samples = parse_text("x 1 1700000000\ny{} +Inf\nz NaN\n").expect("parse");
        assert_eq!(samples[0].value, 1.0);
        assert_eq!(samples[1].value, f64::INFINITY);
        assert!(samples[2].value.is_nan());
    }

    #[test]
    fn default_latency_buckets_ascend() {
        assert!(DEFAULT_LATENCY_BUCKETS.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn concurrent_updates_land() {
        let reg = std::sync::Arc::new(MetricsRegistry::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let reg = std::sync::Arc::clone(&reg);
            handles.push(std::thread::spawn(move || {
                let c = reg.counter("mt_total", "mt", &[("tenant", "a")]);
                let h = reg.histogram("mt_seconds", "mt", &[], &[1.0]);
                for _ in 0..1000 {
                    c.inc();
                    h.observe(0.5);
                }
            }));
        }
        for handle in handles {
            handle.join().expect("thread");
        }
        assert_eq!(reg.counter("mt_total", "mt", &[("tenant", "a")]).value(), 4000);
        assert_eq!(reg.histogram("mt_seconds", "mt", &[], &[1.0]).count(), 4000);
    }
}
