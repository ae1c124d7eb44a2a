//! Hand-rolled HTTP/1.1 framing over blocking byte streams.
//!
//! The build container has no crates.io access, so — like the rest of
//! the workspace's wire formats — request/response framing is in-tree:
//! request parsing (request line, headers, `Content-Length` bodies),
//! fixed-length and chunked (`Transfer-Encoding: chunked`) response
//! writing, chunked response *reading* for the client side, and
//! keep-alive semantics. Exactly the subset the `digamma-netd` protocol
//! needs, implemented strictly enough that `curl` is a fine client.

use std::fmt::Write as _;
use std::io::{self, BufRead, Write};

/// Longest accepted request head (request line + headers) in bytes.
const MAX_HEAD: usize = 16 * 1024;
/// Largest accepted request body (a job manifest) in bytes.
const MAX_BODY: usize = 1024 * 1024;

/// One parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercased method (`GET`, `POST`, ...).
    pub method: String,
    /// The request target, query string included (e.g. `/jobs/3/events?from=10`).
    pub target: String,
    /// Headers in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// The first value of a header, by case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers.iter().find(|(k, _)| *k == name).map(|(_, v)| v.as_str())
    }

    /// The target's path without its query string.
    pub fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or(&self.target)
    }

    /// The first value of a query parameter, if present.
    pub fn query(&self, key: &str) -> Option<&str> {
        let query = self.target.split_once('?')?.1;
        query
            .split('&')
            .filter_map(|pair| pair.split_once('='))
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v)
    }

    /// Whether the client asked to keep the connection open afterwards
    /// (HTTP/1.1 default yes, overridden by `Connection: close`).
    pub fn keep_alive(&self) -> bool {
        !self.header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }

    /// The credential from an `Authorization: Bearer <token>` header,
    /// if one was sent with that scheme.
    pub fn bearer_token(&self) -> Option<&str> {
        let value = self.header("authorization")?;
        let (scheme, token) = value.split_once(char::is_whitespace)?;
        if !scheme.eq_ignore_ascii_case("bearer") {
            return None;
        }
        let token = token.trim();
        (!token.is_empty()).then_some(token)
    }

    /// Reads one request off the stream. `Ok(None)` is a clean EOF
    /// before any bytes — the peer closed an idle keep-alive connection.
    ///
    /// # Errors
    ///
    /// Returns [`io::Error`] (kind `InvalidData`) on malformed or
    /// oversized requests, and transport errors verbatim.
    pub fn read_from(reader: &mut impl BufRead) -> io::Result<Option<Request>> {
        let Some(request_line) = read_head_line(reader, true)? else {
            return Ok(None);
        };
        let mut parts = request_line.split_whitespace();
        let (Some(method), Some(target), Some(version)) =
            (parts.next(), parts.next(), parts.next())
        else {
            return Err(bad_data(format!("malformed request line {request_line:?}")));
        };
        if !version.starts_with("HTTP/1.") {
            return Err(bad_data(format!("unsupported protocol {version:?}")));
        }
        let mut headers = Vec::new();
        let mut head_bytes = request_line.len();
        loop {
            let Some(line) = read_head_line(reader, false)? else {
                return Err(bad_data("connection closed inside headers"));
            };
            if line.is_empty() {
                break;
            }
            head_bytes += line.len();
            if head_bytes > MAX_HEAD {
                return Err(bad_data("request head too large"));
            }
            let Some((name, value)) = line.split_once(':') else {
                return Err(bad_data(format!("malformed header line {line:?}")));
            };
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
        }
        let mut request = Request {
            method: method.to_ascii_uppercase(),
            target: target.to_owned(),
            headers,
            body: Vec::new(),
        };
        if request.header("transfer-encoding").is_some() {
            return Err(bad_data("chunked request bodies are not supported"));
        }
        if let Some(length) = request.header("content-length") {
            let length: usize = length.parse().map_err(|_| bad_data("bad Content-Length"))?;
            if length > MAX_BODY {
                return Err(bad_data("request body too large"));
            }
            let mut body = vec![0u8; length];
            reader.read_exact(&mut body)?;
            request.body = body;
        }
        Ok(Some(request))
    }
}

/// Reads one CRLF- (or LF-) terminated head line without its terminator.
/// `Ok(None)` on EOF; at-start EOF is only clean when `at_start`.
fn read_head_line(reader: &mut impl BufRead, at_start: bool) -> io::Result<Option<String>> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte)? {
            0 => {
                if line.is_empty() && at_start {
                    return Ok(None);
                }
                return Err(bad_data("unexpected EOF in request head"));
            }
            _ => match byte[0] {
                b'\n' => break,
                b'\r' => {}
                b => {
                    if line.len() > MAX_HEAD {
                        return Err(bad_data("head line too long"));
                    }
                    line.push(b);
                }
            },
        }
    }
    String::from_utf8(line).map(Some).map_err(|_| bad_data("non-UTF-8 request head"))
}

fn bad_data(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

/// Whether a [`Request::read_from`] error was an oversized declared
/// body — the one `InvalidData` case that merits `413` over `400`.
pub fn is_body_too_large(error: &io::Error) -> bool {
    error.kind() == io::ErrorKind::InvalidData
        && error.to_string().contains("request body too large")
}

/// Whether an error is a socket deadline expiry. Blocking-socket
/// timeouts surface as `WouldBlock` on Unix and `TimedOut` on Windows.
pub fn is_timeout(error: &io::Error) -> bool {
    matches!(error.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// The reason phrase for the status codes this service emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        401 => "Unauthorized",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes a complete fixed-length `text/plain` response.
///
/// # Errors
///
/// Returns [`io::Error`] from the transport.
pub fn write_response(
    writer: &mut impl Write,
    status: u16,
    body: &str,
    keep_alive: bool,
) -> io::Result<()> {
    write_response_typed(writer, status, "text/plain; charset=utf-8", body, keep_alive)
}

/// [`write_response`] with an explicit `Content-Type` — the Prometheus
/// exposition on `/metrics` must declare its format version, every
/// other endpoint stays plain text.
///
/// # Errors
///
/// Returns [`io::Error`] from the transport.
pub fn write_response_typed(
    writer: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &str,
    keep_alive: bool,
) -> io::Result<()> {
    write_response_extra(writer, status, content_type, body, keep_alive, &[])
}

/// [`write_response_typed`] plus arbitrary extra headers — how `503`
/// responses carry `Retry-After` so well-behaved clients back off. The
/// response is built in one buffer and written with one `write_all`.
///
/// # Errors
///
/// Returns [`io::Error`] from the transport.
pub fn write_response_extra(
    writer: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &str,
    keep_alive: bool,
    extra_headers: &[(&str, &str)],
) -> io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let mut response = String::with_capacity(256 + body.len());
    write!(
        response,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        status,
        reason(status),
        content_type,
        body.len(),
        connection
    )
    .expect("a String takes any text");
    for (name, value) in extra_headers {
        for part in [name, ": ", value, "\r\n"] {
            response.push_str(part);
        }
    }
    response.push_str("\r\n");
    response.push_str(body);
    writer.write_all(response.as_bytes())?;
    writer.flush()
}

/// A chunked (`Transfer-Encoding: chunked`) response in progress: one
/// [`ChunkedWriter::chunk`] call per piece, then [`ChunkedWriter::finish`].
/// Each chunk is flushed immediately — this is the streaming carrier for
/// `GET /jobs/{id}/events`. The head and each chunk are written with one
/// `write_all` apiece.
#[derive(Debug)]
pub struct ChunkedWriter<W: Write> {
    writer: W,
    finished: bool,
}

impl<W: Write> ChunkedWriter<W> {
    /// Writes the response head and returns the chunk writer. Chunked
    /// responses always close the connection afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`io::Error`] from the transport.
    pub fn start(mut writer: W, status: u16) -> io::Result<ChunkedWriter<W>> {
        let head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: text/plain; charset=utf-8\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
            status,
            reason(status)
        );
        writer.write_all(head.as_bytes())?;
        writer.flush()?;
        Ok(ChunkedWriter { writer, finished: false })
    }

    /// Sends one non-empty chunk.
    ///
    /// # Errors
    ///
    /// Returns [`io::Error`] from the transport (a disconnected client).
    pub fn chunk(&mut self, data: &str) -> io::Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        let mut frame = String::with_capacity(data.len() + 20);
        write!(frame, "{:x}\r\n{data}\r\n", data.len()).expect("a String takes any text");
        self.writer.write_all(frame.as_bytes())?;
        self.writer.flush()
    }

    /// Sends the terminating zero-length chunk.
    ///
    /// # Errors
    ///
    /// Returns [`io::Error`] from the transport.
    pub fn finish(mut self) -> io::Result<()> {
        self.finished = true;
        self.writer.write_all(b"0\r\n\r\n")?;
        self.writer.flush()
    }
}

/// A parsed response, as the in-tree client sees it.
#[derive(Debug, Clone)]
pub struct Response {
    /// The status code.
    pub status: u16,
    /// Headers in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The decoded body (chunked transfer already reassembled).
    pub body: String,
}

impl Response {
    /// The first value of a header, by case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers.iter().find(|(k, _)| *k == name).map(|(_, v)| v.as_str())
    }

    /// Reads a response head off the stream (status line + headers),
    /// leaving the body unread.
    ///
    /// # Errors
    ///
    /// Returns [`io::Error`] on malformed heads or transport failures.
    pub fn read_head(reader: &mut impl BufRead) -> io::Result<Response> {
        let Some(status_line) = read_head_line(reader, false)? else {
            return Err(bad_data("no status line"));
        };
        let mut parts = status_line.split_whitespace();
        let (Some(version), Some(code)) = (parts.next(), parts.next()) else {
            return Err(bad_data(format!("malformed status line {status_line:?}")));
        };
        if !version.starts_with("HTTP/1.") {
            return Err(bad_data(format!("unsupported protocol {version:?}")));
        }
        let status: u16 = code.parse().map_err(|_| bad_data("bad status code"))?;
        let mut headers = Vec::new();
        loop {
            let Some(line) = read_head_line(reader, false)? else {
                return Err(bad_data("connection closed inside headers"));
            };
            if line.is_empty() {
                break;
            }
            let Some((name, value)) = line.split_once(':') else {
                return Err(bad_data(format!("malformed header line {line:?}")));
            };
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
        }
        Ok(Response { status, headers, body: String::new() })
    }

    /// Reads the whole body per this head's framing: chunked transfer,
    /// `Content-Length`, or read-to-EOF.
    ///
    /// # Errors
    ///
    /// Returns [`io::Error`] on malformed framing or transport failures.
    pub fn read_body(&mut self, reader: &mut impl BufRead) -> io::Result<()> {
        let mut raw = Vec::new();
        if self.header("transfer-encoding").is_some_and(|v| v.contains("chunked")) {
            while let Some(chunk) = read_chunk(reader)? {
                raw.extend_from_slice(&chunk);
            }
        } else if let Some(length) = self.header("content-length") {
            let length: usize = length.parse().map_err(|_| bad_data("bad Content-Length"))?;
            raw = vec![0u8; length];
            reader.read_exact(&mut raw)?;
        } else {
            reader.read_to_end(&mut raw)?;
        }
        self.body = String::from_utf8(raw).map_err(|_| bad_data("non-UTF-8 response body"))?;
        Ok(())
    }
}

/// Reads one chunk of a chunked body; `Ok(None)` at the terminator.
///
/// # Errors
///
/// Returns [`io::Error`] on malformed chunk framing.
pub fn read_chunk(reader: &mut impl BufRead) -> io::Result<Option<Vec<u8>>> {
    let Some(size_line) = read_head_line(reader, false)? else {
        return Err(bad_data("EOF before chunk size"));
    };
    let size = usize::from_str_radix(size_line.trim(), 16)
        .map_err(|_| bad_data(format!("bad chunk size {size_line:?}")))?;
    if size == 0 {
        // Consume the trailing CRLF after the zero chunk (no trailers).
        let _ = read_head_line(reader, true)?;
        return Ok(None);
    }
    let mut chunk = vec![0u8; size];
    reader.read_exact(&mut chunk)?;
    let _ = read_head_line(reader, true)?; // chunk-terminating CRLF
    Ok(Some(chunk))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> io::Result<Option<Request>> {
        Request::read_from(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_a_get_with_query() {
        let req = parse("GET /jobs/3/events?from=10 HTTP/1.1\r\nHost: x\r\n\r\n").unwrap().unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path(), "/jobs/3/events");
        assert_eq!(req.query("from"), Some("10"));
        assert_eq!(req.query("absent"), None);
        assert!(req.keep_alive());
    }

    #[test]
    fn parses_a_post_with_body() {
        let body = "[job]\nmodel = ncf\n";
        let raw = format!(
            "POST /jobs HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            body.len(),
            body
        );
        let req = parse(&raw).unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(std::str::from_utf8(&req.body).unwrap(), body);
        assert!(!req.keep_alive());
    }

    #[test]
    fn bare_lf_lines_parse_like_curl_does_not_send_them_but_ok() {
        let req = parse("GET / HTTP/1.1\nHost: x\n\n").unwrap().unwrap();
        assert_eq!(req.path(), "/");
    }

    #[test]
    fn clean_eof_is_none_malformed_is_error() {
        assert!(parse("").unwrap().is_none(), "idle keep-alive close");
        assert!(parse("BANANAS\r\n\r\n").is_err());
        assert!(parse("GET / HTTP/2\r\n\r\n").is_err());
        assert!(parse("GET / HTTP/1.1\r\nbroken header\r\n\r\n").is_err());
        assert!(parse("GET / HTTP/1.1\r\n").is_err(), "EOF inside headers");
        let huge = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY + 1);
        let error = parse(&huge).unwrap_err();
        assert!(is_body_too_large(&error), "oversized body declared: {error}");
        assert!(!is_body_too_large(&parse("BANANAS\r\n\r\n").unwrap_err()));
    }

    #[test]
    fn extra_headers_ride_the_response_head() {
        let mut wire = Vec::new();
        write_response_extra(
            &mut wire,
            503,
            "text/plain; charset=utf-8",
            "draining\n",
            false,
            &[("Retry-After", "1")],
        )
        .unwrap();
        let mut reader = BufReader::new(wire.as_slice());
        let mut response = Response::read_head(&mut reader).unwrap();
        response.read_body(&mut reader).unwrap();
        assert_eq!(response.status, 503);
        assert_eq!(response.header("retry-after"), Some("1"));
        assert_eq!(response.body, "draining\n");
    }

    #[test]
    fn response_roundtrips_fixed_length() {
        let mut wire = Vec::new();
        write_response(&mut wire, 200, "hello", true).unwrap();
        let mut reader = BufReader::new(wire.as_slice());
        let mut response = Response::read_head(&mut reader).unwrap();
        response.read_body(&mut reader).unwrap();
        assert_eq!(response.status, 200);
        assert_eq!(response.body, "hello");
        assert_eq!(response.header("connection"), Some("keep-alive"));
    }

    /// Keeps each `write` call's bytes apart.
    #[derive(Default)]
    struct Writes(Vec<Vec<u8>>);

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_response_and_each_chunk_is_one_write_of_the_same_bytes() {
        let mut writes = Writes::default();
        let extra = [("Retry-After", "1"), ("X-Probe", "a b")];
        write_response_extra(&mut writes, 503, "text/plain", "draining\n", false, &extra).unwrap();
        write_response(&mut writes, 200, "", true).unwrap();
        let expected: [&[u8]; 2] = [
            b"HTTP/1.1 503 Service Unavailable\r\nContent-Type: text/plain\r\nContent-Length: 9\r\n\
              Connection: close\r\nRetry-After: 1\r\nX-Probe: a b\r\n\r\ndraining\n",
            b"HTTP/1.1 200 OK\r\nContent-Type: text/plain; charset=utf-8\r\nContent-Length: 0\r\n\
              Connection: keep-alive\r\n\r\n",
        ];
        assert_eq!(writes.0, expected);

        let mut writes = Writes::default();
        let mut chunks = ChunkedWriter::start(&mut writes, 200).unwrap();
        chunks.chunk("gen=1 samples=16/600 best=none\n").unwrap();
        chunks.chunk("").unwrap();
        chunks.chunk(&"x".repeat(300)).unwrap();
        chunks.finish().unwrap();
        let expected: [&[u8]; 4] = [
            b"HTTP/1.1 200 OK\r\nContent-Type: text/plain; charset=utf-8\r\n\
              Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
            b"1f\r\ngen=1 samples=16/600 best=none\n\r\n",
            &[b"12c\r\n", "x".repeat(300).as_bytes(), b"\r\n"].concat(),
            b"0\r\n\r\n",
        ];
        assert_eq!(writes.0, expected);
    }

    #[test]
    fn chunked_stream_roundtrips() {
        let mut wire = Vec::new();
        {
            let mut chunks = ChunkedWriter::start(&mut wire, 200).unwrap();
            chunks.chunk("gen=1 samples=16/600 best=none\n").unwrap();
            chunks.chunk("gen=2 samples=32/600 best=1.5e4\n").unwrap();
            chunks.chunk("").unwrap();
            chunks.finish().unwrap();
        }
        let mut reader = BufReader::new(wire.as_slice());
        let mut response = Response::read_head(&mut reader).unwrap();
        assert_eq!(response.header("transfer-encoding"), Some("chunked"));
        response.read_body(&mut reader).unwrap();
        assert_eq!(response.body.lines().count(), 2);
        assert!(response.body.starts_with("gen=1 "));
    }
}
