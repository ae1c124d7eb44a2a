//! The TCP listener: connections in, [`crate::routes`] dispatch, clean
//! shutdown.
//!
//! One blocking accept loop (run on the caller's thread via
//! [`NetServer::serve`]) hands each connection to its own thread, which
//! loops keep-alive style: parse request → dispatch → repeat until the
//! client closes or a response demands closure. `POST /shutdown` (or
//! [`NetServer::shutdown_handle`]) flips the shared flag and pokes the
//! listener with a loopback connection so `accept` wakes immediately;
//! `serve` then shuts the registry down — running jobs stop at their
//! next generation boundary and snapshot, so a journal-backed service
//! resumes them on the next start.

use crate::httpio::Request;
use crate::metrics::{endpoint_label, method_label, record_request, request_bytes, MeteredWriter};
use crate::routes::{self, ShutdownFlag};
use digamma_obs::{log, FailAction, LogLevel, SpanContext};
use digamma_server::JobRegistry;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default per-direction socket deadline. Generous enough for any real
/// client, short enough that a slow-loris connection cannot pin its
/// thread forever.
const DEFAULT_IO_TIMEOUT: Duration = Duration::from_secs(30);

/// A bound-but-not-yet-serving network front-end.
#[derive(Debug)]
pub struct NetServer {
    listener: TcpListener,
    registry: Arc<JobRegistry>,
    shutdown: ShutdownFlag,
    read_timeout: Duration,
    write_timeout: Duration,
}

/// A handle that can stop a [`NetServer::serve`] loop from any thread.
#[derive(Debug, Clone)]
pub struct ShutdownHandle {
    flag: ShutdownFlag,
    addr: SocketAddr,
}

impl ShutdownHandle {
    /// Requests shutdown and wakes the accept loop.
    pub fn shutdown(&self) {
        self.flag.set();
        // Poke the listener so its blocking accept returns.
        let _ = TcpStream::connect(self.addr);
    }
}

impl NetServer {
    /// Binds the listener (`addr` may use port 0 for an ephemeral port).
    ///
    /// # Errors
    ///
    /// Returns [`std::io::Error`] when the address cannot be bound.
    pub fn bind(addr: &str, registry: Arc<JobRegistry>) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        Ok(NetServer {
            listener,
            registry,
            shutdown: ShutdownFlag::new(),
            read_timeout: DEFAULT_IO_TIMEOUT,
            write_timeout: DEFAULT_IO_TIMEOUT,
        })
    }

    /// Overrides the per-connection socket deadlines. A read that stalls
    /// past its deadline is answered `408 Request Timeout`; a write that
    /// stalls past its deadline closes the connection.
    pub fn set_io_timeouts(&mut self, read: Duration, write: Duration) {
        self.read_timeout = read.max(Duration::from_millis(1));
        self.write_timeout = write.max(Duration::from_millis(1));
    }

    /// The bound address (the real port, after ephemeral binding).
    ///
    /// # Errors
    ///
    /// Returns [`std::io::Error`] if the socket is gone.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that stops the serve loop from another thread.
    ///
    /// # Errors
    ///
    /// Returns [`std::io::Error`] if the socket is gone.
    pub fn shutdown_handle(&self) -> std::io::Result<ShutdownHandle> {
        Ok(ShutdownHandle { flag: self.shutdown.clone(), addr: self.local_addr()? })
    }

    /// The registry this front-end serves.
    pub fn registry(&self) -> &Arc<JobRegistry> {
        &self.registry
    }

    /// Serves until shutdown is requested (`POST /shutdown` or a
    /// [`ShutdownHandle`]), then shuts the registry down (running jobs
    /// snapshot and stop) and returns.
    ///
    /// Transient accept failures (aborted handshakes, momentary fd
    /// exhaustion under watcher load) are absorbed with a short pause;
    /// only a persistently broken listener gives up — and even then the
    /// registry is shut down first, so running jobs still get their
    /// boundary snapshot instead of dying mid-generation.
    ///
    /// # Errors
    ///
    /// Returns [`std::io::Error`] after the listener fails many times in
    /// a row (the registry has already been shut down cleanly).
    pub fn serve(self) -> std::io::Result<()> {
        let handle = self.shutdown_handle()?;
        let accept_failures = self.registry.server().metrics().counter(
            "digamma_http_accept_failures_total",
            "TCP accept failures absorbed by the listener's retry loop.",
            &[],
        );
        let mut consecutive_failures = 0u32;
        let outcome = loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    consecutive_failures = 0;
                    if self.shutdown.is_set() {
                        break Ok(());
                    }
                    if self.registry.server().faults().fired("sock.accept")
                        == Some(FailAction::Drop)
                    {
                        // Injected connection loss at the door: the
                        // client sees a reset and must retry.
                        drop(stream);
                        continue;
                    }
                    if stream
                        .set_read_timeout(Some(self.read_timeout))
                        .and_then(|()| stream.set_write_timeout(Some(self.write_timeout)))
                        .is_err()
                    {
                        // A connection we cannot deadline is a connection
                        // we refuse to serve.
                        continue;
                    }
                    let registry = Arc::clone(&self.registry);
                    let handle = handle.clone();
                    std::thread::spawn(move || {
                        let _ = serve_connection(&registry, &handle, stream);
                    });
                }
                Err(e) => {
                    if self.shutdown.is_set() {
                        break Ok(());
                    }
                    consecutive_failures += 1;
                    if consecutive_failures >= 100 {
                        break Err(e);
                    }
                    accept_failures.inc();
                    log::global().log(
                        LogLevel::Warn,
                        "net",
                        None,
                        "accept failed; retrying",
                        &[
                            ("err", e.to_string()),
                            ("consecutive", consecutive_failures.to_string()),
                        ],
                    );
                    std::thread::sleep(std::time::Duration::from_millis(20));
                }
            }
        };
        self.registry.shutdown();
        outcome
    }
}

/// The per-connection loop: requests until EOF, `Connection: close`, a
/// streaming response, or a framing error (answered with 400 when the
/// transport still works). A request that flips the shutdown flag
/// (`POST /shutdown`) also pokes the listener so the accept loop wakes.
fn serve_connection(
    registry: &JobRegistry,
    handle: &ShutdownHandle,
    stream: TcpStream,
) -> std::io::Result<()> {
    let faults = Arc::clone(registry.server().faults());
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    loop {
        if faults.fired("sock.read") == Some(FailAction::Drop) {
            // Injected connection loss mid-read: close without a word,
            // exactly like a yanked network cable.
            return Ok(());
        }
        let request = match Request::read_from(&mut reader) {
            Ok(Some(request)) => request,
            Ok(None) => return Ok(()),
            Err(e) if crate::httpio::is_timeout(&e) => {
                // Slow-loris (or an idle keep-alive peer past its
                // deadline): best-effort 408, then close.
                let _ = crate::httpio::write_response(
                    &mut writer,
                    408,
                    "request read deadline exceeded\n",
                    false,
                );
                return Ok(());
            }
            Err(e) if crate::httpio::is_body_too_large(&e) => {
                let _ = crate::httpio::write_response(&mut writer, 413, &format!("{e}\n"), false);
                return Ok(());
            }
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                let _ = crate::httpio::write_response(
                    &mut writer,
                    400,
                    &format!("bad request: {e}\n"),
                    false,
                );
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        if faults.fired("sock.write") == Some(FailAction::Drop) {
            // Injected connection loss after the request was read but
            // before the response: the request is still *processed* (the
            // write below fails instead), so the client cannot tell
            // whether its submit landed — precisely the torn-response
            // case idempotency keys exist for.
            let _ = writer.shutdown(std::net::Shutdown::Both);
        }
        let started = Instant::now();
        // One server span per request, adopting the client's W3C
        // `traceparent` when it sends one (so a client-minted trace id
        // follows the request into the job lifecycle) and rooting a
        // fresh trace otherwise. Inert when tracing is off.
        let tracer = registry.tracer();
        let mut span = match request.header("traceparent").and_then(SpanContext::parse_traceparent)
        {
            Some(parent) => tracer.start_child("http.request", parent),
            None => tracer.start_root("http.request"),
        };
        span.set_attr("method", request.method.clone());
        span.set_attr("path", request.path().to_owned());
        let ctx = span.context();
        let metrics = registry.server().metrics();
        let endpoint = endpoint_label(request.path());
        let mut meter =
            MeteredWriter::new(&mut writer, metrics, endpoint, method_label(&request.method));
        let outcome = routes::handle(registry, &handle.flag, &request, &mut meter, ctx);
        // Forwards (and counts) whatever the handler left held back.
        let flushed = meter.flush();
        span.set_attr("status", meter.status());
        drop(span);
        record_request(
            metrics,
            endpoint,
            started.elapsed(),
            request_bytes(&request),
            meter.bytes(),
        );
        let keep = outcome?;
        flushed?;
        if handle.flag.is_set() {
            // Wake the blocked accept so serve() can wind down.
            let _ = TcpStream::connect(handle.addr);
            return Ok(());
        }
        if !keep {
            return Ok(());
        }
    }
}
