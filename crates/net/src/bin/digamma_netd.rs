//! `digamma-netd`: the network search service.
//!
//! ```text
//! digamma-netd [--addr 127.0.0.1:7171] [--workers N] [--cache-capacity N]
//!              [--genome-cache-capacity N] [--checkpoint-dir DIR]
//!              [--tenants FILE] [--log-level debug|info|warn|error]
//!              [--shed-queue-depth N] [--drain-deadline-ms N]
//!              [--io-timeout-ms N] [--failpoints SPEC]
//! ```
//!
//! Binds a TCP listener (port 0 picks an ephemeral port; the resolved
//! address is printed as `digamma-netd listening on ADDR`), starts the
//! job registry, and serves the wire protocol (see `digamma_net::routes`)
//! until `POST /shutdown`.
//!
//! With `--checkpoint-dir`, the service is durable: accepted jobs are
//! journaled to `DIR/jobs.journal` before they run, GA searches snapshot
//! into `DIR` at generation boundaries, and a killed-then-restarted
//! `digamma-netd` replays the journal and resumes every in-flight job
//! from its snapshot.
//!
//! With `--tenants FILE`, the service is multi-tenant: FILE is a roster
//! of `[tenant]` sections (id, optional bearer token, weight, quotas —
//! see `digamma_server::TenantSet`). Workers then share the pool across
//! tenants by weighted round-robin, quotas reject over-limit submits
//! with 429, and — once any tenant defines a token — every request must
//! carry `Authorization: Bearer <token>`.
//!
//! # Failure hardening
//!
//! `--shed-queue-depth N` caps the total queued jobs: submits past the
//! watermark are shed with `503` + `Retry-After` instead of growing the
//! backlog unboundedly. `--io-timeout-ms` sets the per-connection socket
//! deadlines (slow clients get `408`). On SIGTERM the daemon *drains*:
//! it stops accepting new jobs, lets queued and running work finish (or
//! snapshot) within `--drain-deadline-ms`, then exits — the
//! kubernetes-style graceful rollout, where SIGKILL remains the
//! crash-recovery path exercised by the restart tests.
//!
//! `--failpoints SPEC` arms deterministic fault injection (grammar in
//! `digamma_obs::fail`), e.g.
//! `--failpoints 'journal.append=err,nth:3;sock.write=drop,p:0.05,seed:7'`.
//! Disarmed failpoints cost one relaxed atomic load; never ship an
//! armed spec to a service you like.

use digamma_net::NetServer;
use digamma_obs::{log, LogLevel};
use digamma_server::{JobRegistry, ServerConfig, TenantSet};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Flipped by the SIGTERM handler; a monitor thread turns it into a
/// graceful drain. Signal handlers may only do async-signal-safe work,
/// which a relaxed store is and a condvar drain is not.
static SIGTERM_RECEIVED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_sigterm(_signum: i32) {
    SIGTERM_RECEIVED.store(true, Ordering::Relaxed);
}

/// Installs `on_sigterm` for SIGTERM (15) via libc's `signal` — the
/// container has no signal-handling crate, and this one handler does
/// not justify hand-rolling `sigaction` bindings.
fn install_sigterm_handler() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_sigterm as *const () as usize);
    }
}

struct Options {
    addr: String,
    config: ServerConfig,
    tenants_path: Option<PathBuf>,
    io_timeout: Option<Duration>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut addr = "127.0.0.1:7171".to_owned();
    let mut config = ServerConfig::default();
    let mut tenants_path = None;
    let mut io_timeout = None;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| {
            iter.next().map(String::as_str).ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--addr" => addr = value("--addr")?.to_owned(),
            "--workers" => {
                config.workers = value("--workers")?
                    .parse()
                    .map_err(|_| "--workers needs a positive integer".to_owned())?;
            }
            "--cache-capacity" => {
                config.cache_capacity = value("--cache-capacity")?
                    .parse()
                    .map_err(|_| "--cache-capacity needs an integer (0 disables)".to_owned())?;
            }
            "--genome-cache-capacity" => {
                config.genome_cache_capacity =
                    value("--genome-cache-capacity")?.parse().map_err(|_| {
                        "--genome-cache-capacity needs an integer (0 disables)".to_owned()
                    })?;
            }
            "--checkpoint-dir" => {
                config.checkpoint_dir = Some(PathBuf::from(value("--checkpoint-dir")?));
            }
            "--tenants" => {
                tenants_path = Some(PathBuf::from(value("--tenants")?));
            }
            "--log-level" => {
                let raw = value("--log-level")?;
                let level = LogLevel::parse(raw).ok_or_else(|| {
                    format!("--log-level must be debug, info, warn, or error, got {raw:?}")
                })?;
                log::global().set_level(level);
            }
            "--shed-queue-depth" => {
                config.shed_queue_depth = value("--shed-queue-depth")?
                    .parse()
                    .map_err(|_| "--shed-queue-depth needs an integer (0 disables)".to_owned())?;
            }
            "--drain-deadline-ms" => {
                let ms: u64 = value("--drain-deadline-ms")?
                    .parse()
                    .map_err(|_| "--drain-deadline-ms needs a positive integer".to_owned())?;
                config.drain_deadline = Duration::from_millis(ms);
            }
            "--io-timeout-ms" => {
                let ms: u64 = value("--io-timeout-ms")?
                    .parse()
                    .map_err(|_| "--io-timeout-ms needs a positive integer".to_owned())?;
                io_timeout = Some(Duration::from_millis(ms));
            }
            "--failpoints" => {
                let spec = value("--failpoints")?;
                config.faults.configure(spec).map_err(|e| format!("bad --failpoints spec: {e}"))?;
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if config.workers == 0 {
        return Err("--workers must be at least 1".to_owned());
    }
    Ok(Options { addr, config, tenants_path, io_timeout })
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = parse_args(&args)?;
    let journal = match &options.config.checkpoint_dir {
        Some(dir) => {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create checkpoint dir {}: {e}", dir.display()))?;
            Some(dir.join("jobs.journal"))
        }
        None => None,
    };
    let tenants = match &options.tenants_path {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read tenants file {}: {e}", path.display()))?;
            TenantSet::parse(&text)
                .map_err(|e| format!("bad tenants file {}: {e}", path.display()))?
        }
        None => TenantSet::default(),
    };
    let tenant_count = tenants.len();
    let authenticated = tenants.requires_auth();
    let drain_deadline = options.config.drain_deadline;
    let registry = Arc::new(
        JobRegistry::start_with_tenants(options.config, journal, tenants)
            .map_err(|e| format!("cannot start registry: {e}"))?,
    );
    let replayed = registry.stats().queued;
    let mut server = NetServer::bind(&options.addr, Arc::clone(&registry))
        .map_err(|e| format!("cannot bind {}: {e}", options.addr))?;
    if let Some(timeout) = options.io_timeout {
        server.set_io_timeouts(timeout, timeout);
    }
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    // The parseable handshake line tools and tests key on — stays a
    // bare stdout println, never routed through the structured logger.
    println!("digamma-netd listening on {addr}");
    let logger = log::global();
    if tenant_count > 0 {
        let auth = if authenticated { "bearer tokens required" } else { "no tokens configured" };
        logger.log(
            LogLevel::Info,
            "netd",
            None,
            &format!("serving {tenant_count} tenant(s)"),
            &[("auth", auth.to_owned())],
        );
    }
    if replayed > 0 {
        logger.log(
            LogLevel::Info,
            "netd",
            None,
            &format!("resuming {replayed} journaled job(s)"),
            &[],
        );
    }
    // SIGTERM → graceful drain: stop admitting (submits answer 503),
    // let queued and running jobs finish or snapshot within the drain
    // deadline, then stop the accept loop. SIGKILL stays the hard-crash
    // path — journal and snapshots carry the state to the next life.
    install_sigterm_handler();
    let shutdown = server.shutdown_handle().map_err(|e| e.to_string())?;
    let drain_registry = Arc::clone(&registry);
    std::thread::spawn(move || {
        while !SIGTERM_RECEIVED.load(Ordering::Relaxed) {
            std::thread::sleep(Duration::from_millis(100));
        }
        log::global().log(
            LogLevel::Info,
            "netd",
            None,
            "SIGTERM received; draining",
            &[("deadline_ms", drain_deadline.as_millis().to_string())],
        );
        drain_registry.drain(drain_deadline);
        shutdown.shutdown();
    });
    server.serve().map_err(|e| format!("serve failed: {e}"))?;
    logger.log(LogLevel::Info, "netd", None, "shutdown complete", &[]);
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            log::global().log(LogLevel::Error, "netd", None, &message, &[]);
            ExitCode::FAILURE
        }
    }
}
