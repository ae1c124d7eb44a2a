//! Span tracing: per-job causal timelines, dependency-free.
//!
//! Aggregate metrics (the registry next door) answer "how slow are
//! jobs on average?"; this module answers "where did *this* job's 40
//! seconds go?". A [`Tracer`] records [`SpanRecord`]s — named
//! intervals with a monotonic start, a duration, a parent link, and a
//! few key=value attributes — into one bounded store under one lock,
//! which evicts the oldest traces whole, and renders any trace as Chrome
//! trace-event JSON ([`render_chrome_trace`]) loadable in Perfetto or
//! `chrome://tracing`.
//!
//! A job's stage spans (`job.queued`, `job.claim`, `job.generation`,
//! `job.checkpoint`, `cache.spill`, `eval.batch`, `eval.layer`) are all
//! recorded through one [`JobTrace`]: the job's trace, the span they
//! nest under and the job id of their lane.
//!
//! Trace identity follows the W3C Trace Context model: a 128-bit
//! [`TraceId`] names the whole causal tree, a 64-bit [`SpanId`] names
//! one interval, and a [`SpanContext`] (the pair) travels over the
//! wire as a `traceparent` header ([`SpanContext::traceparent`] /
//! [`SpanContext::parse_traceparent`]), so a client-minted trace id
//! shows up verbatim on the server's job-lifecycle spans.
//!
//! [`Tracer::disabled`] makes every operation a cheap no-op branch: the
//! inert guard a [`Span`] falls back to, and a tracer for callers that
//! time code with and without recording.
//!
//! As with the Prometheus exposition, the renderer ships with its own
//! parser ([`parse_chrome_trace`]) so clients and wire tests can
//! round-trip an export without guessing at the grammar.

use crate::json::{json_str, parse_json, JsonValue};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Spans retained by [`Tracer::new`] before the oldest traces evict.
pub const DEFAULT_SPAN_CAPACITY: usize = 16 * 1024;

/// Hard cap on spans retained per trace: a runaway job cannot evict
/// every other trace by flooding its own. Overflow increments
/// [`Tracer::dropped`] instead of recording.
const PER_TRACE_SPAN_CAP: usize = 4096;

/// Attributes retained per span; extras are silently dropped so a
/// buggy caller cannot balloon the store.
const MAX_ATTRS: usize = 8;

/// A 128-bit trace identifier (the W3C Trace Context `trace-id`).
/// Displays as 32 lowercase hex digits; the all-zero id is invalid on
/// the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceId(pub u128);

impl TraceId {
    /// Parses exactly 32 lowercase-or-uppercase hex digits; rejects the
    /// all-zero id (invalid per the W3C spec).
    pub fn parse(s: &str) -> Option<TraceId> {
        if s.len() != 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        let value = u128::from_str_radix(s, 16).ok()?;
        (value != 0).then_some(TraceId(value))
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// A 64-bit span identifier (the W3C Trace Context `parent-id`).
/// Displays as 16 hex digits; all-zero is invalid on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    /// Parses exactly 16 hex digits; rejects the all-zero id.
    pub fn parse(s: &str) -> Option<SpanId> {
        if s.len() != 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        let value = u64::from_str_radix(s, 16).ok()?;
        (value != 0).then_some(SpanId(value))
    }
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// A position in a trace: which trace, and which span new children
/// should name as their parent. This is what propagates — across
/// threads in-process, and as a `traceparent` header across the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanContext {
    /// The causal tree this context belongs to.
    pub trace: TraceId,
    /// The span children of this context hang under.
    pub span: SpanId,
}

impl SpanContext {
    /// Mints a fresh context (new trace, new span id) from the process
    /// id generator — how a client with no tracer of its own starts a
    /// trace to propagate via [`SpanContext::traceparent`].
    pub fn generate() -> SpanContext {
        SpanContext { trace: next_trace_id(), span: next_span_id() }
    }

    /// Renders the W3C `traceparent` header value:
    /// `00-{trace-id}-{parent-id}-01` (version 00, sampled flag set —
    /// everything this tracer records is sampled by construction).
    pub fn traceparent(&self) -> String {
        format!("00-{}-{}-01", self.trace, self.span)
    }

    /// Parses a W3C `traceparent` header value. Accepts any known
    /// version field except the reserved `ff`, per the spec's
    /// forward-compatibility rule; rejects malformed or all-zero ids.
    pub fn parse_traceparent(s: &str) -> Option<SpanContext> {
        let mut parts = s.trim().splitn(4, '-');
        let version = parts.next()?;
        if version.len() != 2 || !version.bytes().all(|b| b.is_ascii_hexdigit()) || version == "ff"
        {
            return None;
        }
        let trace = TraceId::parse(parts.next()?)?;
        let span = SpanId::parse(parts.next()?)?;
        let flags = parts.next()?;
        if flags.len() < 2 || !flags.as_bytes()[..2].iter().all(u8::is_ascii_hexdigit) {
            return None;
        }
        Some(SpanContext { trace, span })
    }
}

/// One completed span: a named interval inside a trace.
///
/// `start_ns` is nanoseconds since its tracer's epoch (a process-local
/// monotonic clock), so spans recorded from any thread order and nest
/// consistently; it is **not** wall-clock time.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// The trace this span belongs to.
    pub trace: TraceId,
    /// This span's own id.
    pub span: SpanId,
    /// The enclosing span, `None` for a trace root.
    pub parent: Option<SpanId>,
    /// Static span name (`http.request`, `job.run`, `job.generation`…).
    pub name: &'static str,
    /// The job this span describes, when it describes one; groups the
    /// Chrome export into one `pid` lane per job.
    pub job: Option<u64>,
    /// Start offset in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Bounded key=value annotations (at most 8 retained).
    pub attrs: Vec<(&'static str, String)>,
}

/// Mixes a counter into well-distributed bits (splitmix64). Not
/// cryptographic — trace ids need global uniqueness in practice, not
/// unpredictability.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Process-wide id sequence, seeded once from wall-clock nanoseconds
/// (so two daemon lives do not mint colliding trace ids) and stepped
/// atomically (so two threads never mint the same id).
fn next_raw_id() -> u64 {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    static SEED: OnceLock<u64> = OnceLock::new();
    let seed = *SEED.get_or_init(|| {
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0x5eed, |since| since.as_nanos() as u64);
        nanos ^ (std::process::id() as u64).rotate_left(32)
    });
    splitmix64(seed.wrapping_add(SEQ.fetch_add(1, Ordering::Relaxed)))
}

fn next_span_id() -> SpanId {
    loop {
        let id = next_raw_id();
        if id != 0 {
            return SpanId(id);
        }
    }
}

fn next_trace_id() -> TraceId {
    loop {
        let id = ((next_raw_id() as u128) << 64) | next_raw_id() as u128;
        if id != 0 {
            return TraceId(id);
        }
    }
}

/// The span store: traces in arrival order plus their spans, so
/// eviction can drop the oldest trace whole.
#[derive(Default)]
struct Store {
    /// Trace ids in first-seen order (the eviction queue).
    order: VecDeque<TraceId>,
    spans: HashMap<u128, Vec<SpanRecord>>,
    /// Σ spans across `spans` (the capacity meter).
    held: usize,
}

struct TracerInner {
    store: Mutex<Store>,
    /// Span budget; a store over budget evicts its oldest traces whole
    /// until it fits.
    capacity: usize,
    epoch: Instant,
    dropped: AtomicU64,
}

impl TracerInner {
    /// `at` on the tracer's clock: nanoseconds since its epoch.
    fn ns_at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }
}

/// The span store and recording front door. Cheap to clone (an `Arc`
/// under the hood); [`Tracer::disabled`] carries no store at all and
/// turns every operation into a no-op branch.
#[derive(Clone)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            Some(inner) => f
                .debug_struct("Tracer")
                .field("capacity", &inner.capacity)
                .field("dropped", &inner.dropped.load(Ordering::Relaxed))
                .finish(),
            None => f.write_str("Tracer(disabled)"),
        }
    }
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// An enabled tracer retaining [`DEFAULT_SPAN_CAPACITY`] spans.
    pub fn new() -> Tracer {
        Tracer::with_capacity(DEFAULT_SPAN_CAPACITY)
    }

    /// An enabled tracer retaining `capacity` spans (at least one)
    /// before the oldest traces evict whole.
    pub fn with_capacity(capacity: usize) -> Tracer {
        let inner = TracerInner {
            store: Mutex::new(Store::default()),
            capacity: capacity.max(1),
            epoch: Instant::now(),
            dropped: AtomicU64::new(0),
        };
        Tracer { inner: Some(Arc::new(inner)) }
    }

    /// A tracer that records nothing: spans start and end as no-ops,
    /// queries return empty. The zero-overhead off switch.
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// Whether this tracer records anything.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Does nothing: no span is logged as slow, however long it took.
    /// Kept only because the end-to-end benchmark
    /// (`e2ebench/src/spans.rs`) still calls it.
    pub fn set_slow_span_threshold(&self, _threshold: Duration) {}

    /// Starts a root span in a fresh trace. The returned guard records
    /// on drop (or [`Span::end`]).
    pub fn start_root(&self, name: &'static str) -> Span {
        self.start_span(name, next_trace_id(), None)
    }

    /// Starts a child span under `parent` (same trace, parent link set).
    /// This is also how a remote `traceparent` is adopted: parse it to
    /// a [`SpanContext`] and hand it here.
    pub fn start_child(&self, name: &'static str, parent: SpanContext) -> Span {
        self.start_span(name, parent.trace, Some(parent.span))
    }

    fn start_span(&self, name: &'static str, trace: TraceId, parent: Option<SpanId>) -> Span {
        let started = Instant::now();
        let Some(inner) = &self.inner else {
            return Span { tracer: Tracer::disabled(), record: None, started };
        };
        let record = SpanRecord {
            trace,
            span: next_span_id(),
            parent,
            name,
            job: None,
            start_ns: inner.ns_at(started),
            dur_ns: 0,
            attrs: Vec::new(),
        };
        Span { tracer: self.clone(), record: Some(record), started }
    }

    /// Mints a span id from the process sequence (for manually-built
    /// [`SpanRecord`]s whose interval was measured out of band).
    pub fn span_id(&self) -> SpanId {
        next_span_id()
    }

    /// Mints a fresh trace id (for work with no inbound `traceparent`
    /// to adopt, like journal-replayed jobs).
    pub fn trace_id(&self) -> TraceId {
        next_trace_id()
    }

    /// Records a completed span built by the caller. No-op when
    /// disabled. Attributes beyond the per-span bound are dropped.
    pub fn record(&self, mut record: SpanRecord) {
        let Some(inner) = &self.inner else { return };
        record.attrs.truncate(MAX_ATTRS);
        let mut guard = inner.store.lock().expect("span store poisoned");
        let store = &mut *guard;
        let spans = store.spans.entry(record.trace.0).or_default();
        if spans.len() >= PER_TRACE_SPAN_CAP {
            inner.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if spans.is_empty() {
            // First span of a new trace: enter the eviction queue.
            store.order.push_back(record.trace);
        }
        spans.push(record);
        store.held += 1;
        // Over budget: evict oldest traces whole — a trace with its
        // tail missing is worse than no trace at all. The newest trace
        // always survives its own insertion.
        while store.held > inner.capacity && store.order.len() > 1 {
            let Some(oldest) = store.order.pop_front() else { break };
            if let Some(evicted) = store.spans.remove(&oldest.0) {
                store.held -= evicted.len();
            }
        }
    }

    /// Every retained span of one trace, ordered by start time.
    pub fn spans_for(&self, trace: TraceId) -> Vec<SpanRecord> {
        let Some(inner) = &self.inner else { return Vec::new() };
        let store = inner.store.lock().expect("span store poisoned");
        let mut spans = store.spans.get(&trace.0).cloned().unwrap_or_default();
        drop(store);
        spans.sort_by_key(|s| s.start_ns);
        spans
    }

    /// The newest `limit` retained spans across every trace, ordered by
    /// start time (the `GET /trace` overview).
    pub fn recent(&self, limit: usize) -> Vec<SpanRecord> {
        let Some(inner) = &self.inner else { return Vec::new() };
        let store = inner.store.lock().expect("span store poisoned");
        let mut all: Vec<&SpanRecord> = store.spans.values().flatten().collect();
        all.sort_by_key(|s| s.start_ns);
        all[all.len().saturating_sub(limit)..].iter().map(|&s| s.clone()).collect()
    }

    /// Spans refused because their trace hit the per-trace cap.
    pub fn dropped(&self) -> u64 {
        self.inner.as_ref().map_or(0, |inner| inner.dropped.load(Ordering::Relaxed))
    }
}

/// One job's place in a [`Tracer`]: the trace its stage spans belong
/// to, the span they nest under (`None` for a trace root) and the job id
/// that puts them in the job's Chrome lane. Every job-stage span is
/// recorded through [`JobTrace::record`]; a handle for the spans under a
/// new one is this one with `parent` replaced.
#[derive(Debug, Clone)]
pub struct JobTrace {
    /// The store the spans are recorded into.
    pub tracer: Tracer,
    /// The trace the spans belong to.
    pub trace: TraceId,
    /// The span the spans nest under; `None` records trace roots.
    pub parent: Option<SpanId>,
    /// The job the spans describe.
    pub job: u64,
}

impl JobTrace {
    /// Records the finished span `name`, from `start` to now, and
    /// returns its context: what a span nested under it names as its
    /// parent. Attributes beyond the per-span bound are dropped; a
    /// disabled tracer records nothing.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        attrs: Vec<(&'static str, String)>,
    ) -> SpanContext {
        let span = next_span_id();
        if let Some(inner) = &self.tracer.inner {
            self.tracer.record(SpanRecord {
                trace: self.trace,
                span,
                parent: self.parent,
                name,
                job: Some(self.job),
                start_ns: inner.ns_at(start),
                dur_ns: start.elapsed().as_nanos() as u64,
                attrs,
            });
        }
        SpanContext { trace: self.trace, span }
    }
}

/// A live span: created by [`Tracer::start_root`]/[`Tracer::start_child`],
/// recorded when dropped (or explicitly via [`Span::end`]). From a
/// disabled tracer every method is a no-op.
#[derive(Debug)]
pub struct Span {
    tracer: Tracer,
    record: Option<SpanRecord>,
    started: Instant,
}

impl Span {
    /// This span's context — what children (local or remote) should
    /// name as their parent. A no-op span returns `None`.
    pub fn context(&self) -> Option<SpanContext> {
        self.record.as_ref().map(|r| SpanContext { trace: r.trace, span: r.span })
    }

    /// Attaches one key=value attribute (bounded; extras are dropped).
    pub fn set_attr(&mut self, key: &'static str, value: impl Into<String>) {
        if let Some(record) = &mut self.record {
            if record.attrs.len() < MAX_ATTRS {
                record.attrs.push((key, value.into()));
            }
        }
    }

    /// Tags the span with the job it describes (its Chrome `pid` lane).
    pub fn set_job(&mut self, job: u64) {
        if let Some(record) = &mut self.record {
            record.job = Some(job);
        }
    }

    /// Ends and records the span now (equivalent to dropping it).
    pub fn end(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(mut record) = self.record.take() {
            record.dur_ns = self.started.elapsed().as_nanos() as u64;
            self.tracer.record(record);
        }
    }
}

// ---------------------------------------------------------------------------
// Chrome trace-event export.

/// Renders spans as Chrome trace-event JSON (the "JSON Array Format"
/// with a `traceEvents` wrapper), loadable in Perfetto and
/// `chrome://tracing`. Each span becomes one complete (`"ph":"X"`)
/// event: `ts`/`dur` in microseconds, `pid` = the span's job id (0 for
/// request-level spans), `tid` = 1 for job spans / 0 for request
/// spans, and the trace/span/parent ids carried in `args`. A
/// `process_name` metadata event labels each job lane.
pub fn render_chrome_trace(spans: &[SpanRecord]) -> String {
    let mut out = String::with_capacity(256 + spans.len() * 160);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut lanes: Vec<u64> = Vec::new();
    for span in spans {
        let pid = span.job.unwrap_or(0);
        if !lanes.contains(&pid) {
            lanes.push(pid);
        }
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "\n{{\"name\":{},\"cat\":\"digamma\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":{pid},\"tid\":{}",
            json_str(span.name),
            span.start_ns as f64 / 1e3,
            span.dur_ns as f64 / 1e3,
            u64::from(span.job.is_some()),
        );
        let _ = write!(out, ",\"args\":{{\"trace\":\"{}\",\"span\":\"{}\"", span.trace, span.span);
        if let Some(parent) = span.parent {
            let _ = write!(out, ",\"parent\":\"{parent}\"");
        }
        for (key, value) in &span.attrs {
            let _ = write!(out, ",{}:{}", json_str(key), json_str(value));
        }
        out.push_str("}}");
    }
    for pid in lanes {
        if !first {
            out.push(',');
        }
        first = false;
        let name = if pid == 0 { "digamma-net requests".to_owned() } else { format!("job {pid}") };
        let _ = write!(
            out,
            "\n{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":{}}}}}",
            json_str(&name)
        );
    }
    out.push_str("\n]}\n");
    out
}

/// One event parsed back out of a Chrome trace-event export.
#[derive(Debug, Clone, PartialEq)]
pub struct ChromeEvent {
    /// Event name (the span name, or `process_name` for metadata).
    pub name: String,
    /// Event phase: `X` for complete spans, `M` for metadata.
    pub ph: String,
    /// Start timestamp in microseconds.
    pub ts: f64,
    /// Duration in microseconds (0 for metadata events).
    pub dur: f64,
    /// Process lane (the job id, 0 for request-level spans).
    pub pid: u64,
    /// Thread lane within the process.
    pub tid: u64,
    /// The event's `args` object, flattened to string pairs.
    pub args: Vec<(String, String)>,
}

impl ChromeEvent {
    /// Looks up one `args` value.
    pub fn arg(&self, key: &str) -> Option<&str> {
        self.args.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

/// Parses a Chrome trace-event export (what [`render_chrome_trace`]
/// emits; also accepts the bare-array form). Built on the strict
/// [`parse_json`] reader, so it doubles as a well-formedness check in
/// tests and the CI trace probe.
///
/// # Errors
///
/// Returns a description of the first syntax or shape problem.
pub fn parse_chrome_trace(text: &str) -> Result<Vec<ChromeEvent>, String> {
    let value = parse_json(text)?;
    let events = match &value {
        JsonValue::Arr(items) => items,
        JsonValue::Obj(_) => match value.get("traceEvents") {
            Some(JsonValue::Arr(items)) => items,
            _ => return Err("root object lacks a traceEvents array".to_owned()),
        },
        _ => return Err("root must be an object or array".to_owned()),
    };
    let mut out = Vec::with_capacity(events.len());
    for (i, event) in events.iter().enumerate() {
        if !matches!(event, JsonValue::Obj(_)) {
            return Err(format!("traceEvents[{i}] is not an object"));
        }
        let string = |key: &str| match event.get(key) {
            Some(JsonValue::Str(s)) => Ok(s.clone()),
            _ => Err(format!("traceEvents[{i}] lacks string {key:?}")),
        };
        let number = |key: &str, required: bool| match event.get(key) {
            Some(JsonValue::Num(n)) => Ok(*n),
            None if !required => Ok(0.0),
            _ => Err(format!("traceEvents[{i}] lacks number {key:?}")),
        };
        let mut args = Vec::new();
        if let Some(JsonValue::Obj(arg_fields)) = event.get("args") {
            for (k, v) in arg_fields {
                let rendered = match v {
                    JsonValue::Str(s) => s.clone(),
                    JsonValue::Num(n) => format!("{n}"),
                    JsonValue::Bool(b) => b.to_string(),
                    JsonValue::Null => "null".to_owned(),
                    _ => continue,
                };
                args.push((k.clone(), rendered));
            }
        }
        out.push(ChromeEvent {
            name: string("name")?,
            ph: string("ph")?,
            ts: number("ts", false)?,
            dur: number("dur", false)?,
            pid: number("pid", true)? as u64,
            tid: number("tid", true)? as u64,
            args,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_render_and_parse_as_fixed_width_hex() {
        let trace = TraceId(0x4bf9_2f35_77b3_4da6_a3ce_929d_0e0e_4736);
        assert_eq!(trace.to_string(), "4bf92f3577b34da6a3ce929d0e0e4736");
        assert_eq!(TraceId::parse(&trace.to_string()), Some(trace));
        assert_eq!(TraceId::parse("00000000000000000000000000000000"), None, "zero is invalid");
        assert_eq!(TraceId::parse("4bf92f35"), None, "short");
        let span = SpanId(0x00f0_67aa_0ba9_02b7);
        assert_eq!(span.to_string(), "00f067aa0ba902b7");
        assert_eq!(SpanId::parse(&span.to_string()), Some(span));
        assert_eq!(SpanId::parse("0000000000000000"), None);
    }

    #[test]
    fn traceparent_roundtrips_and_rejects_malformed() {
        let ctx = SpanContext {
            trace: TraceId(0x4bf9_2f35_77b3_4da6_a3ce_929d_0e0e_4736),
            span: SpanId(0x00f0_67aa_0ba9_02b7),
        };
        let header = ctx.traceparent();
        assert_eq!(header, "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01");
        assert_eq!(SpanContext::parse_traceparent(&header), Some(ctx));
        // Future versions parse (forward compat), ff does not.
        assert!(SpanContext::parse_traceparent(&header.replacen("00-", "cc-", 1)).is_some());
        assert!(SpanContext::parse_traceparent(&header.replacen("00-", "ff-", 1)).is_none());
        assert!(SpanContext::parse_traceparent("garbage").is_none());
        assert!(SpanContext::parse_traceparent(
            "00-00000000000000000000000000000000-00f067aa0ba902b7-01"
        )
        .is_none());
        assert!(SpanContext::parse_traceparent(
            "00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01"
        )
        .is_none());
    }

    #[test]
    fn ids_are_unique_across_calls() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            assert!(seen.insert(next_span_id().0), "span ids must not repeat");
        }
    }

    #[test]
    fn spans_nest_under_parents_and_sort_by_start() {
        let tracer = Tracer::new();
        let mut root = tracer.start_root("http.request");
        root.set_attr("method", "POST");
        let root_ctx = root.context().unwrap();
        let mut child = tracer.start_child("job.run", root_ctx);
        child.set_job(7);
        let child_ctx = child.context().unwrap();
        assert_eq!(child_ctx.trace, root_ctx.trace, "children share the trace");
        child.end();
        root.end();
        let spans = tracer.spans_for(root_ctx.trace);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "http.request");
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[0].attrs, vec![("method", "POST".to_owned())]);
        assert_eq!(spans[1].name, "job.run");
        assert_eq!(spans[1].parent, Some(root_ctx.span));
        assert_eq!(spans[1].job, Some(7));
        assert!(spans[1].start_ns >= spans[0].start_ns);
    }

    #[test]
    fn disabled_tracer_is_inert() {
        let tracer = Tracer::disabled();
        assert!(!tracer.enabled());
        let mut span = tracer.start_root("anything");
        span.set_attr("k", "v");
        assert_eq!(span.context(), None);
        span.end();
        assert!(tracer.recent(10).is_empty());
        assert_eq!(tracer.dropped(), 0);
        let job = JobTrace { tracer, trace: TraceId(1), parent: None, job: 1 };
        assert_eq!(job.record("job.queued", Instant::now(), Vec::new()).trace, TraceId(1));
        assert!(job.tracer.spans_for(TraceId(1)).is_empty());
    }

    #[test]
    fn job_traces_record_finished_spans_in_the_jobs_lane() {
        let tracer = Tracer::new();
        let root =
            JobTrace { tracer: tracer.clone(), trace: tracer.trace_id(), parent: None, job: 7 };
        let queued_at = Instant::now();
        std::thread::sleep(Duration::from_millis(2));
        let queued = root.record("job.queued", queued_at, vec![("tenant", "t".to_owned())]);
        let claim = JobTrace { parent: Some(queued.span), ..root.clone() };
        let claimed = claim.record("job.claim", Instant::now(), Vec::new());
        assert_eq!((queued.trace, claimed.trace), (root.trace, root.trace));
        let spans = tracer.spans_for(root.trace);
        assert_eq!(spans.len(), 2);
        let (first, second) = (&spans[0], &spans[1]);
        assert_eq!((first.name, first.span, first.parent), ("job.queued", queued.span, None));
        assert_eq!(first.attrs, vec![("tenant", "t".to_owned())]);
        assert!(first.dur_ns >= 2_000_000, "a span runs from its start to now: {first:?}");
        assert_eq!((second.name, second.parent), ("job.claim", Some(queued.span)));
        assert!(second.start_ns >= first.start_ns + 2_000_000);
        assert!(spans.iter().all(|s| s.job == Some(7)));
    }

    /// Builds one single-span trace directly (no guard timing).
    fn manual_trace(tracer: &Tracer, start_ns: u64) -> TraceId {
        let trace = next_trace_id();
        tracer.record(SpanRecord {
            trace,
            span: tracer.span_id(),
            parent: None,
            name: "manual",
            job: None,
            start_ns,
            dur_ns: 10,
            attrs: Vec::new(),
        });
        trace
    }

    #[test]
    fn a_small_store_keeps_exactly_the_newest_whole_traces() {
        let tracer = Tracer::with_capacity(16);
        let traces: Vec<TraceId> = (0..64).map(|i| manual_trace(&tracer, i)).collect();
        for (i, trace) in traces.iter().enumerate() {
            let kept = tracer.spans_for(*trace).len();
            assert_eq!(kept, usize::from(i >= 48), "trace {i} kept {kept} spans");
        }
        let starts: Vec<u64> = tracer.recent(1000).iter().map(|s| s.start_ns).collect();
        assert_eq!(starts, (48..64).collect::<Vec<u64>>());
    }

    #[test]
    fn a_large_trace_evicts_no_older_trace_from_a_default_store() {
        let tracer = Tracer::new();
        let older: Vec<TraceId> = (0..100).map(|i| manual_trace(&tracer, i)).collect();
        let large = next_trace_id();
        for i in 0..2000 {
            tracer.record(SpanRecord {
                trace: large,
                span: tracer.span_id(),
                parent: None,
                name: "large",
                job: Some(1),
                start_ns: 1000 + i,
                dur_ns: 1,
                attrs: Vec::new(),
            });
        }
        assert_eq!(tracer.spans_for(large).len(), 2000);
        let evicted = older.iter().filter(|trace| tracer.spans_for(**trace).is_empty()).count();
        assert_eq!(evicted, 0, "2,100 spans fit a store of {DEFAULT_SPAN_CAPACITY}");
    }

    #[test]
    fn per_trace_cap_drops_extras_not_other_traces() {
        let tracer = Tracer::with_capacity(1 << 20);
        let trace = next_trace_id();
        for i in 0..(PER_TRACE_SPAN_CAP + 100) {
            tracer.record(SpanRecord {
                trace,
                span: tracer.span_id(),
                parent: None,
                name: "flood",
                job: Some(1),
                start_ns: i as u64,
                dur_ns: 1,
                attrs: Vec::new(),
            });
        }
        assert_eq!(tracer.spans_for(trace).len(), PER_TRACE_SPAN_CAP);
        assert_eq!(tracer.dropped(), 100);
    }

    #[test]
    fn recent_returns_newest_spans_in_start_order() {
        let tracer = Tracer::new();
        for i in 0..10 {
            manual_trace(&tracer, 1000 + i);
        }
        let recent = tracer.recent(4);
        assert_eq!(recent.len(), 4);
        let starts: Vec<u64> = recent.iter().map(|s| s.start_ns).collect();
        assert_eq!(starts, vec![1006, 1007, 1008, 1009]);
    }

    #[test]
    fn chrome_export_roundtrips_through_the_parser() {
        let tracer = Tracer::new();
        let mut root = tracer.start_root("http.request");
        root.set_attr("path", "/jobs");
        root.set_attr("quote", "a \"b\"\n");
        let ctx = root.context().unwrap();
        let mut child = tracer.start_child("job.run", ctx);
        child.set_job(3);
        child.end();
        root.end();
        let spans = tracer.spans_for(ctx.trace);
        let json = render_chrome_trace(&spans);
        let events = parse_chrome_trace(&json).expect("export must parse");
        let complete: Vec<&ChromeEvent> = events.iter().filter(|e| e.ph == "X").collect();
        assert_eq!(complete.len(), 2);
        for event in &complete {
            assert!(event.ts >= 0.0 && event.dur >= 0.0);
            assert_eq!(event.arg("trace"), Some(ctx.trace.to_string().as_str()));
        }
        let request = complete.iter().find(|e| e.name == "http.request").unwrap();
        assert_eq!((request.pid, request.tid), (0, 0));
        assert_eq!(request.arg("path"), Some("/jobs"));
        assert_eq!(request.arg("quote"), Some("a \"b\"\n"), "escaping must round-trip");
        let run = complete.iter().find(|e| e.name == "job.run").unwrap();
        assert_eq!((run.pid, run.tid), (3, 1));
        assert_eq!(run.arg("parent"), Some(ctx.span.to_string().as_str()));
        // Metadata lanes: one process_name per pid.
        let meta: Vec<&ChromeEvent> = events.iter().filter(|e| e.ph == "M").collect();
        assert_eq!(meta.len(), 2);
        assert!(meta.iter().any(|m| m.pid == 3 && m.arg("name") == Some("job 3")));
    }

    #[test]
    fn chrome_parser_rejects_structural_damage() {
        let tracer = Tracer::new();
        let trace = manual_trace(&tracer, 5);
        let json = render_chrome_trace(&tracer.spans_for(trace));
        assert!(parse_chrome_trace(&json[..json.len() - 4]).is_err(), "truncation must fail");
        assert!(parse_chrome_trace("{\"traceEvents\": 3}").is_err());
        assert!(parse_chrome_trace("[{\"name\":\"x\"}]").is_err(), "events need ph/pid/tid");
        assert!(parse_chrome_trace("[]").unwrap().is_empty(), "empty array is fine");
        assert!(parse_chrome_trace("{\"traceEvents\":[]} junk").is_err());
    }

    #[test]
    fn empty_export_is_still_wellformed() {
        let json = render_chrome_trace(&[]);
        assert!(parse_chrome_trace(&json).unwrap().is_empty());
    }
}
