//! Endpoint dispatch: the wire protocol over the job registry.
//!
//! | Endpoint                  | Effect |
//! |---------------------------|--------|
//! | `POST /jobs`              | submit a manifest; returns one `[submitted]` section per job |
//! | `GET /jobs`               | list every job the registry holds (id, name, status) |
//! | `GET /jobs/{id}`          | status, live progress, and the report (best-so-far design) |
//! | `GET /jobs/{id}/events`   | chunked stream: one line per GA generation, then `end status=...` (`?from=N` to skip) |
//! | `GET /jobs/{id}/analytics`| JSON: per-generation search telemetry, operator attribution, convergence curve |
//! | `POST /jobs/{id}/cancel`  | cooperative cancel at the next generation boundary |
//! | `GET /stats`              | queue depth, worker utilization, cache counters, per-tenant usage |
//! | `GET /metrics`            | Prometheus text exposition of every metric family |
//! | `GET /trace`              | recent spans across all traces, as Chrome trace-event JSON |
//! | `GET /trace/{id}`         | one job's full span timeline (Perfetto/chrome://tracing loadable) |
//! | `POST /shutdown`          | stop accepting, cancel running jobs (they snapshot), exit |
//!
//! Responses are `text/plain` in the workspace's `[section]` /
//! `key = value` format, so the same parsers read manifests, snapshots,
//! journals, and wire responses.
//!
//! The registry keeps every queued and running job but only the newest
//! 1024 finished ones. A job route for an id it retired answers `404`
//! with a body saying the job expired; an id it never held answers
//! `404 no such job`.
//!
//! # Authentication
//!
//! When the registry's [`TenantSet`](digamma_server::TenantSet) defines
//! any bearer token, every endpoint demands `Authorization: Bearer
//! <token>`: a missing or unknown token is 401, submitting runs the
//! manifest under the *authenticated* tenant (manifest `tenant` keys
//! cannot impersonate), and cancelling another tenant's job is 403.
//! Quota rejections surface as 429 so clients can back off and retry.
//! Without tokens the service is open, exactly as before tenancy
//! existed.
//!
//! # Overload and retries
//!
//! When the registry is draining or its queue is at the shed watermark,
//! `POST /jobs` answers `503` with `Retry-After: 1`. A submit may carry
//! an `Idempotency-Key` header (1..=128 visible characters): the first
//! accepted submit under a key journals the key with its job ids, and
//! any retry of the same key — in this process's life or after a
//! restart — returns the original ids instead of enqueueing duplicates.

use crate::httpio::{
    write_response, write_response_extra, write_response_typed, ChunkedWriter, Request,
};
use digamma_obs::{render_chrome_trace, SpanContext};
use digamma_server::textio::Section;
use digamma_server::{JobId, JobMissing, JobRegistry, JobView, Submission, SubmitError};
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How long an events stream waits for news before re-checking the
/// connection and shutdown state.
const EVENT_POLL: Duration = Duration::from_millis(200);

/// Shared flag the `POST /shutdown` endpoint flips; the accept loop
/// watches it.
#[derive(Debug, Clone, Default)]
pub struct ShutdownFlag(Arc<AtomicBool>);

impl ShutdownFlag {
    /// A fresh, unset flag.
    pub fn new() -> ShutdownFlag {
        ShutdownFlag::default()
    }

    /// Requests shutdown.
    pub fn set(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether shutdown has been requested.
    pub fn is_set(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Handles one parsed request on `stream`. Returns whether the
/// connection may be kept alive for another request.
///
/// # Errors
///
/// Returns [`std::io::Error`] only for transport failures; protocol
/// errors become 4xx responses.
pub fn handle(
    registry: &JobRegistry,
    shutdown: &ShutdownFlag,
    request: &Request,
    stream: &mut impl Write,
    ctx: Option<SpanContext>,
) -> std::io::Result<bool> {
    let keep = request.keep_alive();
    // Authenticate first: once any tenant has a token, *every* endpoint
    // demands one, and the authenticated tenant id becomes the
    // request's identity.
    let tenants = registry.tenants();
    let identity: Option<String> = if tenants.requires_auth() {
        match request.bearer_token().and_then(|token| tenants.by_token(token)) {
            Some(tenant) => Some(tenant.id.clone()),
            None => {
                write_response(stream, 401, "missing or unknown bearer token\n", keep)?;
                return Ok(keep);
            }
        }
    } else {
        None
    };
    let path = request.path().to_owned();
    let segments: Vec<&str> = path.trim_matches('/').split('/').collect();
    match (request.method.as_str(), segments.as_slice()) {
        ("POST", ["jobs"]) => {
            let body = String::from_utf8_lossy(&request.body);
            let idempotency_key = match request.header("idempotency-key") {
                Some(key) => {
                    if key.is_empty()
                        || key.len() > 128
                        || key.chars().any(|c| c.is_whitespace() || c.is_control())
                    {
                        write_response(
                            stream,
                            400,
                            "bad Idempotency-Key: must be 1..=128 visible characters\n",
                            keep,
                        )?;
                        return Ok(keep);
                    }
                    Some(key)
                }
                None => None,
            };
            let submission = Submission {
                trace: ctx,
                idempotency_key,
                tenant: identity.as_deref(),
                ..Submission::manifest(&body)
            };
            match registry.submit(submission) {
                Ok(submitted) => {
                    // Rendered from what submit accepted: a job of a
                    // large batch may finish and retire before this
                    // answer is written.
                    let sections: Vec<Section> = submitted
                        .jobs()
                        .map(|(id, name, tenant)| {
                            let mut s = Section::new("submitted");
                            s.push("id", id.to_string());
                            s.push("name", name);
                            s.push("tenant", tenant);
                            if let Some(ctx) = ctx {
                                s.push("trace", ctx.trace.to_string());
                            }
                            s
                        })
                        .collect();
                    let body = digamma_server::textio::render_sections(&sections);
                    write_response(stream, 202, &body, keep)?;
                }
                Err(SubmitError::Invalid(msg)) => {
                    write_response(stream, 400, &format!("bad manifest: {msg}\n"), keep)?;
                }
                Err(SubmitError::UnknownTenant(msg)) => {
                    write_response(stream, 403, &format!("{msg}\n"), keep)?;
                }
                Err(SubmitError::QuotaExceeded(msg)) => {
                    write_response(stream, 429, &format!("{msg}\n"), keep)?;
                }
                Err(SubmitError::Unavailable(msg)) => {
                    // Load shed or drain: explicitly retryable, so carry
                    // Retry-After for clients that honor it.
                    write_response_extra(
                        stream,
                        503,
                        "text/plain; charset=utf-8",
                        &format!("{msg}\n"),
                        keep,
                        &[("Retry-After", "1")],
                    )?;
                }
            }
            Ok(keep)
        }
        ("GET", ["jobs"]) => {
            let sections: Vec<Section> = registry
                .jobs()
                .into_iter()
                .map(|view| {
                    let mut s = Section::new("job");
                    s.push("id", view.id.to_string());
                    s.push("name", view.name);
                    s.push("tenant", view.spec.tenant.clone());
                    s.push("status", view.status.to_string());
                    s
                })
                .collect();
            let body = digamma_server::textio::render_sections(&sections);
            write_response(stream, 200, &body, keep)?;
            Ok(keep)
        }
        ("GET", ["jobs", id]) => {
            let id = parse_id(id);
            let Some(view) = id.and_then(|id| registry.job(id)) else {
                return not_held(registry, id, stream, keep);
            };
            write_response(stream, 200, &render_job_view(&view), keep)?;
            Ok(keep)
        }
        ("GET", ["jobs", id, "events"]) => {
            let id = match held(registry, parse_id(id)) {
                Ok((id, _)) => id,
                Err(missing) => return answer_missing(missing, stream, keep),
            };
            let from = request.query("from").and_then(|v| v.parse().ok()).unwrap_or(0);
            stream_events(registry, shutdown, id, from, stream)?;
            // Chunked responses always close.
            Ok(false)
        }
        ("GET", ["jobs", id, "analytics"]) => {
            let id = parse_id(id);
            let Some(body) = id.and_then(|id| registry.analytics_json(id)) else {
                return not_held(registry, id, stream, keep);
            };
            write_response_typed(stream, 200, "application/json", &body, keep)?;
            Ok(keep)
        }
        ("POST", ["jobs", id, "cancel"]) => {
            let (id, owner) = match held(registry, parse_id(id)) {
                Ok(held) => held,
                Err(missing) => return answer_missing(missing, stream, keep),
            };
            // Reads are open to any authenticated tenant; cancellation
            // mutates, so it is owner-only.
            if identity.as_ref().is_some_and(|identity| *identity != owner) {
                write_response(
                    stream,
                    403,
                    &format!("job {id} belongs to tenant {owner:?}\n"),
                    keep,
                )?;
                return Ok(keep);
            }
            match registry.cancel(id) {
                Some(status) => {
                    write_response(stream, 202, &format!("status = {status}\n"), keep)?;
                    Ok(keep)
                }
                None => not_held(registry, Some(id), stream, keep),
            }
        }
        ("GET", ["stats"]) => {
            write_response(stream, 200, &render_stats(registry), keep)?;
            Ok(keep)
        }
        ("GET", ["metrics"]) => {
            // The exposition format's registered content type; Prometheus
            // itself accepts plain text, but strict scrapers check.
            write_response_typed(
                stream,
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                &registry.render_metrics(),
                keep,
            )?;
            Ok(keep)
        }
        ("GET", ["trace"]) => {
            let tracer = registry.tracer();
            let limit = request.query("limit").and_then(|v| v.parse().ok()).unwrap_or(512);
            let body = render_chrome_trace(&tracer.recent(limit));
            write_response_typed(stream, 200, "application/json", &body, keep)?;
            Ok(keep)
        }
        ("GET", ["trace", id]) => {
            let tracer = registry.tracer();
            let id = match held(registry, parse_id(id)) {
                Ok((id, _)) => id,
                Err(missing) => return answer_missing(missing, stream, keep),
            };
            let Some(trace) = registry.trace_of(id) else {
                write_response(
                    stream,
                    404,
                    &format!("no trace recorded for job {id} yet\n"),
                    keep,
                )?;
                return Ok(keep);
            };
            let body = render_chrome_trace(&tracer.spans_for(trace));
            write_response_typed(stream, 200, "application/json", &body, keep)?;
            Ok(keep)
        }
        ("POST", ["shutdown"]) => {
            // Answer (`write_response` flushes) before setting the flag:
            // once it is set, any other connection can wake the accept
            // loop and end the process before this 202 is written.
            let answered = write_response(stream, 202, "shutting down\n", false);
            shutdown.set();
            answered.map(|()| false)
        }
        // Known routes reached with the wrong method are 405; anything
        // else — including unknown sub-resources under /jobs — is 404.
        (_, ["jobs"])
        | (_, ["jobs", _])
        | (_, ["jobs", _, "events"])
        | (_, ["jobs", _, "analytics"])
        | (_, ["jobs", _, "cancel"])
        | (_, ["stats"])
        | (_, ["metrics"])
        | (_, ["trace"])
        | (_, ["trace", _])
        | (_, ["shutdown"]) => {
            write_response(stream, 405, "method not allowed\n", keep)?;
            Ok(keep)
        }
        _ => {
            write_response(stream, 404, "no such endpoint\n", keep)?;
            Ok(keep)
        }
    }
}

fn parse_id(raw: &str) -> Option<JobId> {
    raw.parse().ok()
}

/// The id and owning tenant of a job the registry holds, or why it holds
/// none (an id that does not parse was never issued).
fn held(registry: &JobRegistry, id: Option<JobId>) -> Result<(JobId, String), JobMissing> {
    let id = id.ok_or(JobMissing::Unknown)?;
    registry.tenant_of(id).map(|tenant| (id, tenant))
}

/// Answers `404` for an id the registry holds no job under, saying
/// whether the job expired or was never known.
fn not_held(
    registry: &JobRegistry,
    id: Option<JobId>,
    stream: &mut impl Write,
    keep: bool,
) -> std::io::Result<bool> {
    answer_missing(held(registry, id).err().unwrap_or(JobMissing::Unknown), stream, keep)
}

fn answer_missing(
    missing: JobMissing,
    stream: &mut impl Write,
    keep: bool,
) -> std::io::Result<bool> {
    write_response(stream, 404, &format!("{missing}\n"), keep)?;
    Ok(keep)
}

fn stream_events(
    registry: &JobRegistry,
    shutdown: &ShutdownFlag,
    id: JobId,
    from: usize,
    stream: &mut impl Write,
) -> std::io::Result<()> {
    let mut chunks = ChunkedWriter::start(stream, 200)?;
    let mut cursor = from;
    while let Some((first_seq, lines, done)) = registry.events(id, cursor, EVENT_POLL) {
        if first_seq > cursor {
            // The ring dropped history between the requested offset and
            // the oldest retained line; say so (as a `#` comment the
            // section parsers skip) instead of silently skipping.
            chunks.chunk(&format!(
                "# {} event(s) dropped by retention; resuming at seq {first_seq}\n",
                first_seq - cursor
            ))?;
        } else if first_seq < cursor {
            // `?from=` overshot the end of the stream; the registry
            // answered with the true cursor instead of stalling.
            chunks.chunk(&format!(
                "# seq {cursor} is beyond the stream end; resuming at seq {first_seq}\n"
            ))?;
        }
        cursor = first_seq + lines.len();
        for line in &lines {
            // A disconnected client errors here, ending the stream.
            chunks.chunk(&format!("{line}\n"))?;
        }
        if done {
            break;
        }
        if shutdown.is_set() && lines.is_empty() {
            // The registry is going down; running jobs will produce
            // their terminal event, but a queued job might not — don't
            // strand the client.
            chunks.chunk("end status=shutdown\n")?;
            break;
        }
    }
    chunks.finish()
}

/// Renders one job's full wire view: its `[job]` identity/progress
/// section, plus a `[report]` section once it finished or was cancelled
/// (carrying the — possibly partial — best design).
pub fn render_job_view(view: &JobView) -> String {
    let mut job = Section::new("job");
    job.push("id", view.id.to_string());
    job.push("name", view.name.clone());
    job.push("tenant", view.spec.tenant.clone());
    job.push("status", view.status.to_string());
    job.push("model", view.spec.model.name());
    job.push("platform", view.spec.platform.name.clone());
    job.push("objective", view.spec.objective.to_string());
    job.push("algorithm", view.spec.algorithm.to_string());
    job.push("budget", view.spec.budget.to_string());
    job.push("seed", view.spec.seed.to_string());
    if let Some(progress) = &view.progress {
        job.push("generation", progress.generation.to_string());
        job.push("samples", progress.samples.to_string());
        if let Some(best) = progress.best_cost {
            job.push("best_cost", format!("{best:.6e}"));
        }
    }
    let mut sections = vec![job];
    if let Some(report) = &view.report {
        let mut s = Section::new("report");
        s.push("samples", report.samples.to_string());
        s.push("generations", report.generations.to_string());
        s.push("cancelled", report.cancelled.to_string());
        if let Some(resumed) = report.resumed_at {
            s.push("resumed_at", resumed.to_string());
        }
        match &report.best {
            Some(best) => {
                s.push("best_cost", format!("{:.6e}", best.cost));
                s.push("best_latency_cycles", format!("{:.6e}", best.latency_cycles));
                s.push("best_energy_pj", format!("{:.6e}", best.energy_pj));
                s.push("best_area_um2", format!("{:.6e}", best.area_um2));
                s.push("best_genome", best.genome.to_text());
            }
            None => s.push("best", "none"),
        }
        s.push("cache_hits", report.cache_hits.to_string());
        s.push("cache_misses", report.cache_misses.to_string());
        s.push("cache_insertions", report.cache_insertions.to_string());
        s.push("genome_hits", report.genome_hits.to_string());
        s.push("genome_misses", report.genome_misses.to_string());
        s.push("genome_insertions", report.genome_insertions.to_string());
        s.push("dedup_skipped", report.dedup_skipped.to_string());
        s.push("wall_ms", format!("{:.1}", report.wall.as_secs_f64() * 1e3));
        // The timing breakdown: where the job's wall-clock went.
        // queue_wait precedes the run, so it is *not* a slice of
        // wall_ms; eval and checkpoint are.
        s.push("queue_wait_ms", format!("{:.1}", report.queue_wait.as_secs_f64() * 1e3));
        s.push("eval_ms", format!("{:.1}", report.eval_wall.as_secs_f64() * 1e3));
        s.push("checkpoint_ms", format!("{:.1}", report.checkpoint_wall.as_secs_f64() * 1e3));
        sections.push(s);
    }
    digamma_server::textio::render_sections(&sections)
}

/// Renders the `/stats` body: registry counters, a `[process]` section
/// (start time, uptime, journal replay), one `[tenant <id>]` section
/// per known tenant, plus (when caching is on) the shared
/// fitness-cache counters.
pub fn render_stats(registry: &JobRegistry) -> String {
    let stats = registry.stats();
    let mut s = Section::new("stats");
    s.push("workers", stats.workers.to_string());
    s.push("busy_workers", stats.busy_workers.to_string());
    s.push("running_threads", stats.running_threads.to_string());
    s.push("queue_depth", stats.queued.to_string());
    s.push("running", stats.running.to_string());
    s.push("done", stats.done.to_string());
    s.push("cancelled", stats.cancelled.to_string());
    s.push("failed", stats.failed.to_string());
    // The search-analytics aggregate: how many children each operator
    // produced across every job, how many improved on their reference
    // parent, and how many became new incumbents — plus how many
    // running jobs are currently stalled.
    let mut analytics = Section::new("analytics");
    analytics.push("stalled", stats.stalled.to_string());
    for (kind, c) in stats.operators.iter() {
        analytics.push(kind.name(), format!("{} {} {}", c.attempted, c.improved, c.incumbents));
    }
    let mut process = Section::new("process");
    process.push("start_unix", stats.start_unix.to_string());
    process.push("uptime_seconds", stats.uptime_seconds.to_string());
    process.push("journal_replayed", stats.replayed_jobs.to_string());
    process.push("workers", stats.workers.to_string());
    let mut sections = vec![s, analytics, process];
    for tenant in &stats.tenants {
        let mut t = Section::new(format!("tenant {}", tenant.id));
        t.push("weight", tenant.weight.to_string());
        t.push("queued", tenant.queued.to_string());
        t.push("running", tenant.running.to_string());
        t.push("done", tenant.done.to_string());
        t.push("cancelled", tenant.cancelled.to_string());
        t.push("failed", tenant.failed.to_string());
        t.push("evals_submitted", tenant.evals_submitted.to_string());
        t.push("evals_consumed", tenant.evals_consumed.to_string());
        t.push("cache_hits", tenant.cache_hits.to_string());
        t.push("cache_misses", tenant.cache_misses.to_string());
        t.push("cache_insertions", tenant.cache_insertions.to_string());
        t.push("genome_hits", tenant.genome_hits.to_string());
        t.push("genome_misses", tenant.genome_misses.to_string());
        t.push("genome_insertions", tenant.genome_insertions.to_string());
        sections.push(t);
    }
    if let Some(cache) = registry.server().cache_stats() {
        let mut c = Section::new("cache");
        c.push("entries", cache.entries.to_string());
        c.push("capacity", registry.server().config().cache_capacity.to_string());
        c.push("hits", cache.hits.to_string());
        c.push("misses", cache.misses.to_string());
        c.push("hit_rate", format!("{:.4}", cache.hit_rate()));
        c.push("insertions", cache.insertions.to_string());
        c.push("evictions", cache.evictions.to_string());
        sections.push(c);
    }
    if let Some(memo) = registry.server().genome_memo_stats() {
        let mut c = Section::new("genome_cache");
        c.push("entries", memo.entries.to_string());
        c.push("capacity", registry.server().config().genome_cache_capacity.to_string());
        c.push("hits", memo.hits.to_string());
        c.push("misses", memo.misses.to_string());
        c.push("hit_rate", format!("{:.4}", memo.hit_rate()));
        c.push("insertions", memo.insertions.to_string());
        c.push("evictions", memo.evictions.to_string());
        sections.push(c);
    }
    digamma_server::textio::render_sections(&sections)
}
