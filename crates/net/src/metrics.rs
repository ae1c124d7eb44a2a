//! Per-request HTTP access metrics for the accept loop.
//!
//! [`MeteredWriter`] wraps a connection's write half, counting bytes
//! out and sniffing the status code off the response head, and counts
//! the request in `digamma_http_requests_total` before any response
//! byte leaves; [`record_request`] adds the latency and byte series once
//! the request is handled. Label cardinality is bounded on purpose:
//! endpoints normalize to their route template ([`endpoint_label`]),
//! methods to the two the protocol uses, so a hostile client cannot
//! mint unbounded series by spraying paths.

use digamma_obs::{MetricsRegistry, DEFAULT_LATENCY_BUCKETS};
use std::io::Write;
use std::time::Duration;

/// The route-template label for a request path: `/jobs/17/events`
/// becomes `/jobs/{id}/events`, anything off the route table becomes
/// `other` so unknown paths share one series.
pub(crate) fn endpoint_label(path: &str) -> &'static str {
    let segments: Vec<&str> = path.trim_matches('/').split('/').collect();
    match segments.as_slice() {
        ["jobs"] => "/jobs",
        ["jobs", _] => "/jobs/{id}",
        ["jobs", _, "events"] => "/jobs/{id}/events",
        ["jobs", _, "cancel"] => "/jobs/{id}/cancel",
        ["stats"] => "/stats",
        ["metrics"] => "/metrics",
        ["trace"] => "/trace",
        ["trace", _] => "/trace/{id}",
        ["shutdown"] => "/shutdown",
        _ => "other",
    }
}

/// The bounded method label: anything but the two methods the protocol
/// speaks collapses to `other`.
pub(crate) fn method_label(method: &str) -> &'static str {
    match method {
        "GET" => "GET",
        "POST" => "POST",
        _ => "other",
    }
}

/// Length of the `HTTP/1.1 NNN` prefix that carries the status code.
const STATUS_PREFIX_LEN: usize = 12;

/// A write-half wrapper that counts bytes and remembers the status
/// code from the `HTTP/1.1 NNN` response head (chunked streams and
/// fixed responses both start that way).
///
/// The head is held back until its status code is known (or the writer
/// is flushed), and the request is counted in
/// `digamma_http_requests_total` before the head is forwarded: once a
/// client has read any byte of a response, a scrape already sees that
/// request counted.
#[derive(Debug)]
pub(crate) struct MeteredWriter<'a, W: Write> {
    inner: W,
    bytes: u64,
    head: Vec<u8>,
    /// The registry and `(endpoint, method)` labels the request is
    /// counted under; `None` once it has been counted.
    uncounted: Option<(&'a MetricsRegistry, &'static str, &'static str)>,
}

impl<'a, W: Write> MeteredWriter<'a, W> {
    pub(crate) fn new(
        inner: W,
        metrics: &'a MetricsRegistry,
        endpoint: &'static str,
        method: &'static str,
    ) -> MeteredWriter<'a, W> {
        MeteredWriter {
            inner,
            bytes: 0,
            head: Vec::with_capacity(STATUS_PREFIX_LEN),
            uncounted: Some((metrics, endpoint, method)),
        }
    }

    /// Bytes written so far.
    pub(crate) fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The status code sniffed off the response head, as its label
    /// value ("200", ...); `"none"` when nothing parseable was written
    /// (the handler answered nothing before the transport died).
    pub(crate) fn status(&self) -> String {
        let head = String::from_utf8_lossy(&self.head[..self.head.len().min(STATUS_PREFIX_LEN)]);
        head.split_whitespace()
            .nth(1)
            .filter(|code| code.len() == 3 && code.bytes().all(|b| b.is_ascii_digit()))
            .map_or_else(|| "none".to_owned(), str::to_owned)
    }

    /// Counts the request under the status sniffed so far, then forwards
    /// the held-back head. A no-op once the request was counted.
    fn release_head(&mut self) -> std::io::Result<()> {
        let Some((metrics, endpoint, method)) = self.uncounted.take() else { return Ok(()) };
        metrics
            .counter(
                "digamma_http_requests_total",
                "HTTP requests handled, by route template, method, and status.",
                &[("endpoint", endpoint), ("method", method), ("status", &self.status())],
            )
            .inc();
        self.inner.write_all(&self.head)?;
        self.bytes += self.head.len() as u64;
        self.head.truncate(STATUS_PREFIX_LEN);
        Ok(())
    }
}

impl<W: Write> Write for MeteredWriter<'_, W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.uncounted.is_some() {
            self.head.extend_from_slice(buf);
            if self.head.len() >= STATUS_PREFIX_LEN {
                self.release_head()?;
            }
            return Ok(buf.len());
        }
        let written = self.inner.write(buf)?;
        self.bytes += written as u64;
        Ok(written)
    }

    /// Also counts a request whose handler wrote less than a status
    /// line (status `none` when it wrote nothing parseable).
    fn flush(&mut self) -> std::io::Result<()> {
        self.release_head()?;
        self.inner.flush()
    }
}

/// Size of the request as it arrived on the wire, reconstructed from
/// the parsed pieces (request line + headers + body; framing CRLFs
/// approximated). Close enough for a throughput meter without teeing
/// the read half.
pub(crate) fn request_bytes(request: &crate::httpio::Request) -> u64 {
    let head = request.method.len() + request.target.len() + "HTTP/1.1".len() + 4;
    let headers: usize = request.headers.iter().map(|(k, v)| k.len() + v.len() + 4).sum();
    (head + headers + 2 + request.body.len()) as u64
}

/// Feeds one handled request's latency and byte counts into the
/// access-metric families (its [`MeteredWriter`] already counted it).
pub(crate) fn record_request(
    metrics: &MetricsRegistry,
    endpoint: &'static str,
    elapsed: Duration,
    bytes_in: u64,
    bytes_out: u64,
) {
    metrics
        .histogram(
            "digamma_http_request_seconds",
            "Wall-clock time from parsed request to written response.",
            &[("endpoint", endpoint)],
            DEFAULT_LATENCY_BUCKETS,
        )
        .observe_duration(elapsed);
    metrics
        .counter("digamma_http_bytes_in_total", "Request bytes received (reconstructed).", &[])
        .add(bytes_in);
    metrics.counter("digamma_http_bytes_out_total", "Response bytes written.", &[]).add(bytes_out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_labels_normalize_ids_and_strangers() {
        assert_eq!(endpoint_label("/jobs/17"), "/jobs/{id}");
        assert_eq!(endpoint_label("/jobs/17/events"), "/jobs/{id}/events");
        assert_eq!(endpoint_label("/metrics"), "/metrics");
        assert_eq!(endpoint_label("/trace"), "/trace");
        assert_eq!(endpoint_label("/trace/17"), "/trace/{id}");
        assert_eq!(endpoint_label("/jobs/17/steal"), "other");
        assert_eq!(endpoint_label("/../../etc/passwd"), "other");
    }

    fn requests_total(metrics: &MetricsRegistry, status: &str) -> u64 {
        metrics
            .counter(
                "digamma_http_requests_total",
                "HTTP requests handled, by route template, method, and status.",
                &[("endpoint", "/jobs/{id}"), ("method", "GET"), ("status", status)],
            )
            .value()
    }

    #[test]
    fn metered_writer_counts_bytes_and_sniffs_status() {
        let metrics = MetricsRegistry::new();
        let mut wire = Vec::new();
        let mut meter = MeteredWriter::new(&mut wire, &metrics, "/jobs/{id}", "GET");
        crate::httpio::write_response(&mut meter, 404, "no such job\n", true).unwrap();
        assert_eq!(meter.status(), "404");
        assert_eq!(meter.bytes(), wire.len() as u64);
        assert!(wire.starts_with(b"HTTP/1.1 404"));
        assert_eq!(requests_total(&metrics, "404"), 1);
    }

    /// An inner writer that checks, on its first write, that the request
    /// is already counted.
    struct AssertCounted<'a> {
        metrics: &'a MetricsRegistry,
        writes: usize,
    }

    impl Write for AssertCounted<'_> {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.writes == 0 {
                let text = self.metrics.render();
                assert!(
                    text.contains(
                        "digamma_http_requests_total{endpoint=\"/jobs/{id}\",method=\"GET\",\
                         status=\"200\"} 1"
                    ),
                    "the request must be counted before its first byte is written:\n{text}"
                );
            }
            self.writes += 1;
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn request_is_counted_before_the_first_response_byte() {
        let metrics = MetricsRegistry::new();
        let inner = AssertCounted { metrics: &metrics, writes: 0 };
        let mut meter = MeteredWriter::new(inner, &metrics, "/jobs/{id}", "GET");
        crate::httpio::write_response(&mut meter, 200, "status = done\n", true).unwrap();
        assert!(meter.inner.writes > 0, "the response reached the inner writer");
        assert_eq!(requests_total(&metrics, "200"), 1, "counted exactly once");
    }

    #[test]
    fn unwritten_or_garbage_heads_report_none() {
        let metrics = MetricsRegistry::new();
        let mut meter = MeteredWriter::new(Vec::new(), &metrics, "/jobs/{id}", "GET");
        assert_eq!(meter.status(), "none");
        meter.flush().unwrap();
        assert_eq!(requests_total(&metrics, "none"), 1, "a silent handler still counts");
        let mut meter = MeteredWriter::new(Vec::new(), &metrics, "/jobs/{id}", "GET");
        meter.write_all(b"BANANAS ARE NOT HTTP").unwrap();
        assert_eq!(meter.status(), "none");
        assert_eq!(requests_total(&metrics, "none"), 2);
    }
}
