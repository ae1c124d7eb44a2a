//! A minimal in-tree HTTP client for the `digamma-netd` protocol.
//!
//! One connection per call (`Connection: close`), blocking I/O, chunked
//! responses decoded — enough for the `digamma-netc` CLI, the wire
//! integration tests, and the CI smoke to exercise the real client path
//! without crates.io.
//!
//! Every call has a `_as` variant taking an optional bearer token for
//! services running with an authenticated tenant roster; the plain
//! variants are the token-less shorthand.

use crate::httpio::{read_chunk, Response};
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::Duration;

/// The process-wide default `traceparent` header value, injected into
/// every request this client issues (W3C trace-context propagation).
static DEFAULT_TRACEPARENT: Mutex<Option<String>> = Mutex::new(None);

/// Sets (or clears, with `None`) the `traceparent` header sent with
/// every subsequent request from this process. `digamma-netc` mints one
/// span context per invocation so the daemon's job-lifecycle spans nest
/// under a trace id the client already knows.
pub fn set_default_traceparent(value: Option<String>) {
    *DEFAULT_TRACEPARENT.lock().expect("traceparent lock") = value;
}

fn traceparent_header() -> String {
    match DEFAULT_TRACEPARENT.lock().expect("traceparent lock").as_deref() {
        Some(value) => format!("traceparent: {value}\r\n"),
        None => String::new(),
    }
}

/// Issues one request and returns the parsed response (body fully read,
/// chunked transfer reassembled).
///
/// # Errors
///
/// Returns [`std::io::Error`] on connection or framing failures.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<Response> {
    request_as(addr, method, path, body, None)
}

/// [`request`] with an optional `Authorization: Bearer` credential.
///
/// # Errors
///
/// Returns [`std::io::Error`] on connection or framing failures.
pub fn request_as(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    token: Option<&str>,
) -> std::io::Result<Response> {
    request_with_headers(addr, method, path, body, token, &[])
}

/// [`request_as`] plus arbitrary extra request headers — how a submit
/// carries its `Idempotency-Key`.
///
/// # Errors
///
/// Returns [`std::io::Error`] on connection or framing failures.
pub fn request_with_headers(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    token: Option<&str>,
    extra_headers: &[(&str, &str)],
) -> std::io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    let body = body.unwrap_or("");
    let auth = bearer_header(token);
    let traceparent = traceparent_header();
    let extra: String =
        extra_headers.iter().map(|(name, value)| format!("{name}: {value}\r\n")).collect();
    // One buffer, one write: `write!` on the bare stream would send each
    // formatted piece in its own syscall.
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\n{auth}{traceparent}{extra}Connection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes())?;
    let mut reader = BufReader::new(stream);
    let mut response = Response::read_head(&mut reader)?;
    response.read_body(&mut reader)?;
    Ok(response)
}

/// How an idempotent request retries: total attempt count and the
/// exponential-backoff envelope. Delays double from `base_delay` up to
/// `max_delay`, each jittered down by up to half so a fleet of clients
/// rejected together does not reconverge in lockstep.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts, the first included. `1` disables retries.
    pub attempts: u32,
    /// Backoff before the first retry.
    pub base_delay: Duration,
    /// Ceiling for the doubled backoff.
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            attempts: 5,
            base_delay: Duration::from_millis(100),
            max_delay: Duration::from_secs(2),
        }
    }
}

impl RetryPolicy {
    /// The jittered backoff before retry number `retry` (0-based).
    pub fn delay(self, retry: u32) -> Duration {
        let doubled = self.base_delay.saturating_mul(1u32 << retry.min(16)).min(self.max_delay);
        jittered(doubled, u64::from(retry))
    }
}

/// Multiplies `delay` by a factor in `[0.5, 1.0)` drawn from a cheap
/// clock-seeded xorshift — decorrelates concurrent retriers without
/// pulling in a PRNG dependency.
fn jittered(delay: Duration, salt: u64) -> Duration {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0x9e37_79b9, |d| d.subsec_nanos());
    let mut x = (u64::from(nanos) << 17) ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    delay.mul_f64(0.5 + (x % 1024) as f64 / 2048.0)
}

/// Issues an **idempotent** request, retrying on transport failures
/// (connection refused/reset, timeouts, torn responses) and on `503`
/// responses — honoring an integral `Retry-After` header when the
/// server sends one. Any other response, success or failure, is
/// returned as-is after the first arrival.
///
/// Only use this for requests that are safe to repeat: reads, cancels,
/// and submits that carry an `Idempotency-Key` header.
///
/// # Errors
///
/// Returns the last transport [`std::io::Error`] once attempts are
/// exhausted.
pub fn request_with_retry(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    token: Option<&str>,
    extra_headers: &[(&str, &str)],
    policy: RetryPolicy,
) -> std::io::Result<Response> {
    let attempts = policy.attempts.max(1);
    let mut retry = 0;
    loop {
        let wait = match request_with_headers(addr, method, path, body, token, extra_headers) {
            Ok(response) if response.status == 503 && retry + 1 < attempts => response
                .header("retry-after")
                .and_then(|v| v.trim().parse::<u64>().ok())
                .map(Duration::from_secs)
                .unwrap_or_else(|| policy.delay(retry))
                .min(policy.max_delay),
            Ok(response) => return Ok(response),
            Err(e) => {
                if retry + 1 >= attempts {
                    return Err(e);
                }
                policy.delay(retry)
            }
        };
        std::thread::sleep(wait);
        retry += 1;
    }
}

/// Submits a manifest under an idempotency key, retrying per `policy`.
/// Because every attempt carries the same key, a retry after a torn
/// response can only ever return the original job ids — never enqueue
/// duplicates.
///
/// # Errors
///
/// See [`get`] for status mapping and [`request_with_retry`] for
/// exhaustion.
pub fn submit_keyed(
    addr: &str,
    manifest: &str,
    token: Option<&str>,
    idempotency_key: &str,
    policy: RetryPolicy,
) -> std::io::Result<String> {
    expect_ok(request_with_retry(
        addr,
        "POST",
        "/jobs",
        Some(manifest),
        token,
        &[("Idempotency-Key", idempotency_key)],
        policy,
    )?)
}

fn bearer_header(token: Option<&str>) -> String {
    match token {
        Some(token) => format!("Authorization: Bearer {token}\r\n"),
        None => String::new(),
    }
}

/// `GET path`, expecting success; returns the body.
///
/// # Errors
///
/// Returns [`std::io::Error`], mapping non-2xx statuses to
/// `ErrorKind::Other` with the body as the message.
pub fn get(addr: &str, path: &str) -> std::io::Result<String> {
    get_as(addr, path, None)
}

/// [`get`] with an optional bearer token.
///
/// # Errors
///
/// See [`get`].
pub fn get_as(addr: &str, path: &str, token: Option<&str>) -> std::io::Result<String> {
    expect_ok(request_as(addr, "GET", path, None, token)?)
}

/// `POST path` with an optional body, expecting success; returns the
/// body.
///
/// # Errors
///
/// See [`get`].
pub fn post(addr: &str, path: &str, body: Option<&str>) -> std::io::Result<String> {
    post_as(addr, path, body, None)
}

/// [`post`] with an optional bearer token.
///
/// # Errors
///
/// See [`get`].
pub fn post_as(
    addr: &str,
    path: &str,
    body: Option<&str>,
    token: Option<&str>,
) -> std::io::Result<String> {
    expect_ok(request_as(addr, "POST", path, body, token)?)
}

fn expect_ok(response: Response) -> std::io::Result<String> {
    if (200..300).contains(&response.status) {
        Ok(response.body)
    } else {
        Err(std::io::Error::other(format!("HTTP {}: {}", response.status, response.body.trim())))
    }
}

/// Streams `GET /jobs/{id}/events` (chunked), invoking `on_line` per
/// event line as it arrives. Returning `false` from the callback drops
/// the connection mid-stream (the cancel-while-watching pattern).
/// Returns all lines received.
///
/// # Errors
///
/// Returns [`std::io::Error`] on connection or framing failures, or a
/// non-2xx response.
pub fn stream_events(
    addr: &str,
    id: u64,
    from: usize,
    on_line: impl FnMut(&str) -> bool,
) -> std::io::Result<Vec<String>> {
    stream_events_as(addr, id, from, None, on_line)
}

/// [`stream_events`] with an optional bearer token.
///
/// # Errors
///
/// See [`stream_events`].
pub fn stream_events_as(
    addr: &str,
    id: u64,
    from: usize,
    token: Option<&str>,
    mut on_line: impl FnMut(&str) -> bool,
) -> std::io::Result<Vec<String>> {
    let mut stream = TcpStream::connect(addr)?;
    let auth = bearer_header(token);
    let traceparent = traceparent_header();
    let request = format!(
        "GET /jobs/{id}/events?from={from} HTTP/1.1\r\nHost: {addr}\r\n{auth}{traceparent}Connection: close\r\n\r\n"
    );
    stream.write_all(request.as_bytes())?;
    let mut reader = BufReader::new(stream);
    let response = Response::read_head(&mut reader)?;
    if response.status != 200 {
        let mut response = response;
        response.read_body(&mut reader)?;
        return Err(std::io::Error::other(format!(
            "HTTP {}: {}",
            response.status,
            response.body.trim()
        )));
    }
    let mut lines = Vec::new();
    let mut pending = String::new();
    'chunks: while let Some(chunk) = read_chunk(&mut reader)? {
        pending.push_str(&String::from_utf8_lossy(&chunk));
        while let Some(nl) = pending.find('\n') {
            let line: String = pending.drain(..=nl).collect();
            let line = line.trim_end().to_owned();
            let keep_going = on_line(&line);
            lines.push(line);
            if !keep_going {
                break 'chunks;
            }
        }
    }
    Ok(lines)
}
