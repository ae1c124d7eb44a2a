//! The runtime job registry: accept work from many tenants while
//! searches run.
//!
//! [`SearchServer::run`] drains a batch fixed up front; a network
//! service cannot work that way — clients submit jobs at any time, watch
//! their progress, and cancel mid-search. `JobRegistry` is the layer
//! that turns the batch server into that service:
//!
//! * **Submit at runtime** — [`JobRegistry::submit`] enqueues a job onto
//!   its tenant's queue; long-lived worker threads (plain
//!   `std::thread::spawn`, since jobs outlive any caller scope) drain
//!   the queues under a condvar.
//! * **Share fairly** — each tenant ([`crate::TenantSpec`]) owns a FIFO
//!   queue; workers pick across tenants by *weighted round-robin with
//!   deficit counters*, so a tenant with weight 3 completes roughly
//!   three jobs for every one of a weight-1 tenant no matter how deep
//!   either backlog runs. Admission control enforces per-tenant quotas
//!   (queued jobs, running jobs, lifetime eval budget) and keeps the sum
//!   of running jobs' `threads` within the worker pool; violations are
//!   typed [`SubmitError`]s so the wire layer can answer 403/429 rather
//!   than 500.
//! * **Observe** — every job keeps an event log (one line per GA
//!   generation, fed by the [`JobControl`] generation sink) that
//!   subscribers can poll or block on; [`JobView`] snapshots a job's
//!   status, live progress, and best-so-far/final report, and
//!   [`RegistryStats`] breaks queue depth, eval consumption, and cache
//!   reuse down per tenant.
//! * **Cancel** — [`JobRegistry::cancel`] flips the job's cooperative
//!   flag; the search stops at its next generation boundary, snapshots,
//!   and reports its partial best. A queued job cancels immediately and
//!   leaves its tenant's queue at once.
//! * **Survive kills** — with a [`Journal`] attached, accepted jobs are
//!   logged before they run and marked when they finish; a restarted
//!   registry replays the journal and resubmits every unfinished job,
//!   each of which resumes from its surviving checkpoint.
//! * **Stay bounded** — the registry holds every queued and running job
//!   but only the newest `RETAINED_FINISHED_JOBS` (1024) finished ones:
//!   each terminal transition queues its job for retirement, and past
//!   the bound the job that finished first leaves (its id then answers
//!   [`JobMissing::Expired`]). A shutdown's stop is not terminal and is
//!   never retired. What `/stats` reports — counts by state, per-tenant
//!   outcomes, the operator aggregate — lives in counters that each
//!   transition updates, and a live-name index answers submit's name
//!   check, so no request walks the jobs ever served.

use crate::job::{JobReport, JobSpec};
use crate::journal::Journal;
use crate::queue::{AnalyticsUpdate, JobControl, JobProgress, SearchServer, ServerConfig};
use crate::snapshot::compress_points;
use crate::tenant::{valid_tenant_id, TenantSet, TenantSpec};
use crate::textio::TextError;
use digamma_obs::{
    render_analytics_json, AnalyticsRing, CostPoint, LogLevel, OpCounters, SpanContext, SpanRecord,
    TraceId, Tracer, DEFAULT_LATENCY_BUCKETS,
};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Identifies a job for the lifetime of the service (journal-stable
/// across restarts).
pub type JobId = u64;

/// How many finished jobs the registry keeps after they end, for
/// `GET /jobs/{id}`, their events, analytics and trace. Past it the job
/// that finished first leaves the registry.
const RETAINED_FINISHED_JOBS: usize = 1024;

/// Why the registry holds no job under an id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobMissing {
    /// This registry held the job (submitted or resumed it) and retired
    /// it after it finished, past the retention bound.
    Expired,
    /// This registry never held a job under the id.
    Unknown,
}

impl std::fmt::Display for JobMissing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobMissing::Expired => write!(
                f,
                "job expired: only the newest {RETAINED_FINISHED_JOBS} finished jobs are kept"
            ),
            JobMissing::Unknown => f.write_str("no such job"),
        }
    }
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is searching.
    Running,
    /// Finished its budget; the report is final.
    Done,
    /// Stopped early by [`JobRegistry::cancel`]; the report carries the
    /// partial best and the checkpoint (if any) survives for resumption.
    Cancelled,
    /// The worker caught the job panicking. Terminal (journaled as
    /// finished) with no report; the tenant's unconsumed eval budget is
    /// refunded, and the worker thread survives to run other jobs.
    Failed,
}

impl std::fmt::Display for JobStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobStatus::Queued => f.write_str("queued"),
            JobStatus::Running => f.write_str("running"),
            JobStatus::Done => f.write_str("done"),
            JobStatus::Cancelled => f.write_str("cancelled"),
            JobStatus::Failed => f.write_str("failed"),
        }
    }
}

/// Why a submission was rejected. The variants split along the wire
/// status the front-end should answer with: a malformed request is the
/// client's bug (400), an unknown tenant is a permission problem (403),
/// and a quota rejection is back-pressure the client can retry after
/// (429).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The spec or manifest itself is unacceptable (bad name, a name a
    /// live job holds, zero threads, bad tenant id, parse error).
    Invalid(String),
    /// The spec names a tenant the service's roster does not list (only
    /// possible when a non-empty [`TenantSet`] is configured).
    UnknownTenant(String),
    /// Accepting the batch would exceed the tenant's `max_queued` or
    /// `max_evals` quota; nothing was accepted.
    QuotaExceeded(String),
    /// The service cannot accept work *right now* — it is draining,
    /// shutting down, shedding load past its queue-depth watermark, or
    /// its journal append failed. The wire layer answers 503 with
    /// `Retry-After`; nothing about the request itself was wrong, and
    /// nothing was accepted: the next id did not move, so a retry gets
    /// the ids this attempt would have.
    Unavailable(String),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Invalid(msg)
            | SubmitError::UnknownTenant(msg)
            | SubmitError::QuotaExceeded(msg)
            | SubmitError::Unavailable(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for SubmitError {}

impl From<TextError> for SubmitError {
    fn from(e: TextError) -> SubmitError {
        SubmitError::Invalid(e.to_string())
    }
}

/// The jobs a [`Submission`] carries.
#[derive(Debug)]
pub enum SubmittedJobs<'a> {
    /// Parsed job specs.
    Specs(Vec<JobSpec>),
    /// Manifest text, parsed at submit.
    Manifest(&'a str),
}

/// Everything [`JobRegistry::submit`] takes: the jobs and how they
/// arrived.
#[derive(Debug)]
pub struct Submission<'a> {
    /// The jobs, as specs or as manifest text.
    pub jobs: SubmittedJobs<'a>,
    /// The submitting request's span context: every accepted job's
    /// lifecycle spans nest under it, so `/trace/{id}` walks from the
    /// HTTP request through queue wait, claim, run and generations in
    /// one timeline.
    pub trace: Option<SpanContext>,
    /// The first keyed submission journals its key alongside its batch;
    /// a retry with the same key — including one that lands *after a
    /// daemon restart* — returns the original ids instead of creating
    /// duplicate jobs.
    pub idempotency_key: Option<&'a str>,
    /// The authenticated submitter. Every job runs under this tenant
    /// whatever its spec or manifest says, so a manifest cannot
    /// impersonate another tenant; and it scopes the idempotency key
    /// (`""` without one), so tenants cannot collide with or probe each
    /// other's keys.
    pub tenant: Option<&'a str>,
}

impl<'a> Submission<'a> {
    /// `specs`, untraced, unkeyed and under their own tenants.
    pub fn specs(specs: Vec<JobSpec>) -> Submission<'a> {
        Submission {
            jobs: SubmittedJobs::Specs(specs),
            trace: None,
            idempotency_key: None,
            tenant: None,
        }
    }

    /// A manifest's jobs, untraced, unkeyed and under their own tenants.
    pub fn manifest(text: &'a str) -> Submission<'a> {
        Submission { jobs: SubmittedJobs::Manifest(text), ..Submission::specs(Vec::new()) }
    }
}

/// What one [`JobRegistry::submit`] accepted, in batch order. It
/// dereferences to the jobs' ids; [`Submitted::jobs`] adds each job's
/// name and tenant, so an answer can be rendered without reading back
/// jobs that may already have finished and retired.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Submitted {
    ids: Vec<JobId>,
    /// `(name, tenant)` per id.
    labels: Vec<(String, String)>,
}

impl Submitted {
    /// `(id, name, tenant)` per accepted job. A replayed idempotency key
    /// answers with the ids it first answered; each is named from its
    /// job while the registry holds it, else from this request's spec at
    /// the same position (by the key's contract, the same batch).
    pub fn jobs(&self) -> impl Iterator<Item = (JobId, &str, &str)> + '_ {
        self.ids
            .iter()
            .zip(&self.labels)
            .map(|(&id, (name, tenant))| (id, name.as_str(), tenant.as_str()))
    }
}

impl std::ops::Deref for Submitted {
    type Target = [JobId];

    fn deref(&self) -> &[JobId] {
        &self.ids
    }
}

/// A point-in-time snapshot of one job, safe to hand to other threads
/// (and to render onto the wire).
#[derive(Debug, Clone)]
pub struct JobView {
    /// The job's id.
    pub id: JobId,
    /// The job's (unique-at-submission) name.
    pub name: String,
    /// Lifecycle state at snapshot time.
    pub status: JobStatus,
    /// The submitted spec.
    pub spec: JobSpec,
    /// Latest per-generation progress, once the search has stepped.
    pub progress: Option<JobProgress>,
    /// The final report, once the job is done or cancelled.
    pub report: Option<JobReport>,
}

/// Aggregate service counters for the `/stats` endpoint.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RegistryStats {
    /// Seconds since the Unix epoch when the registry started.
    pub start_unix: u64,
    /// Whole seconds the registry has been serving.
    pub uptime_seconds: u64,
    /// Unfinished jobs resubmitted from the journal at start.
    pub replayed_jobs: usize,
    /// Worker threads serving the registry.
    pub workers: usize,
    /// Workers currently running a job.
    pub busy_workers: usize,
    /// Σ `spec.threads` over running jobs (admission keeps this ≤
    /// `workers`).
    pub running_threads: usize,
    /// Jobs waiting in tenant queues (the scheduler's own queue depth,
    /// not a recount of job statuses — a cancelled job must leave this
    /// immediately).
    pub queued: usize,
    /// Jobs currently searching.
    pub running: usize,
    /// Jobs finished to budget.
    pub done: usize,
    /// Jobs cancelled.
    pub cancelled: usize,
    /// Jobs that panicked and were failed by their worker.
    pub failed: usize,
    /// Running jobs currently inside a stall episode (no incumbent
    /// improvement for at least 25 generations).
    pub stalled: usize,
    /// Cumulative per-operator search attribution, aggregated across
    /// every job the registry has seen.
    pub operators: OpCounters,
    /// Per-tenant breakdown, in tenant-id order.
    pub tenants: Vec<TenantStats>,
}

/// One tenant's slice of [`RegistryStats`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TenantStats {
    /// The tenant id.
    pub id: String,
    /// Scheduling weight.
    pub weight: u64,
    /// Jobs waiting in this tenant's queue.
    pub queued: usize,
    /// Jobs currently searching.
    pub running: usize,
    /// Jobs finished to budget.
    pub done: usize,
    /// Jobs cancelled.
    pub cancelled: usize,
    /// Jobs that panicked and were failed by their worker.
    pub failed: usize,
    /// Σ budget over every accepted job (what `max_evals` caps).
    pub evals_submitted: u64,
    /// Σ samples actually evaluated by finished jobs.
    pub evals_consumed: u64,
    /// Fitness-cache hits across this tenant's finished jobs.
    pub cache_hits: u64,
    /// Fitness-cache misses across this tenant's finished jobs.
    pub cache_misses: u64,
    /// Fitness-cache store calls across this tenant's finished jobs
    /// (the per-tenant partitioning hook: how much shared cache space
    /// the tenant's work demanded).
    pub cache_insertions: u64,
    /// Genome-memo hits across this tenant's finished jobs.
    pub genome_hits: u64,
    /// Genome-memo misses across this tenant's finished jobs.
    pub genome_misses: u64,
    /// Genome-memo store calls across this tenant's finished jobs.
    pub genome_insertions: u64,
}

struct JobEntry {
    spec: JobSpec,
    status: JobStatus,
    control: Arc<JobControl>,
    /// When the job entered its tenant's queue; [`claim_next`] turns
    /// the elapsed time into `queue_wait` at claim.
    queued_at: Instant,
    /// How long the job sat queued before a worker claimed it (zero
    /// until claimed; stamped into the report when the job finishes).
    queue_wait: Duration,
    /// Set by [`JobRegistry::cancel`]; distinguishes a user's cancel
    /// (terminal — journaled as finished) from a shutdown's cooperative
    /// stop (not journaled, so the job resumes on the next start).
    user_cancelled: bool,
    progress: Option<JobProgress>,
    /// A bounded ring of the newest event lines (one per generation,
    /// plus a terminal line). Event streams address lines by *sequence
    /// number*; `events_base` is the sequence of `events[0]`, so dropped
    /// history is visible as a gap instead of shifting indices.
    events: VecDeque<String>,
    /// Sequence number of the first retained event line.
    events_base: usize,
    events_done: bool,
    report: Option<JobReport>,
    /// The span context the job's lifecycle spans nest under. Stamped
    /// from the submitting request at submit; a job submitted without
    /// one (journal replay, library use) gets a fresh root trace at
    /// claim so `/trace/{id}` always resolves.
    trace: Option<SpanContext>,
    /// Tracer-clock reading when the job entered its queue — the start
    /// of its `job.queued` span.
    queued_ns: u64,
    /// The job's per-generation telemetry window (the newest
    /// [`ANALYTICS_WINDOW`] records).
    analytics: AnalyticsRing,
    /// Cumulative per-operator attribution, absolute (after a resume it
    /// includes the restored pre-kill half).
    ops: OpCounters,
    /// The compressed cost-vs-evaluations curve: one point per
    /// incumbent change (plus the starting point).
    cost_points: Vec<CostPoint>,
    /// Whether the current stall episode already emitted its `stalled`
    /// event line (re-armed by the next improvement).
    stall_emitted: bool,
}

/// Lifetime usage counters for one tenant (fed from finished jobs'
/// [`JobReport`]s, except `evals_submitted` which admission maintains).
#[derive(Debug, Default)]
struct TenantUsage {
    evals_submitted: u64,
    evals_consumed: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_insertions: u64,
    genome_hits: u64,
    genome_misses: u64,
    genome_insertions: u64,
}

/// One tenant's scheduler state: its FIFO queue plus the deficit
/// counter the weighted round-robin spends.
struct TenantSched {
    spec: TenantSpec,
    queue: VecDeque<JobId>,
    /// Claims left this round; replenished to `spec.weight` when every
    /// tenant with eligible work has spent theirs.
    deficit: u64,
    /// Jobs currently running (what `spec.max_running` caps).
    running: usize,
    /// Jobs that ended done, retired ones included.
    done: usize,
    /// Jobs that ended cancelled (a shutdown's stop included).
    cancelled: usize,
    /// Jobs that ended failed.
    failed: usize,
    usage: TenantUsage,
}

impl TenantSched {
    fn new(spec: TenantSpec) -> TenantSched {
        TenantSched {
            spec,
            queue: VecDeque::new(),
            deficit: 0,
            running: 0,
            done: 0,
            cancelled: 0,
            failed: 0,
            usage: TenantUsage::default(),
        }
    }
}

/// How a running job ended, as [`RegState::finish`] reports it.
struct Ended {
    status: JobStatus,
    /// Whether the end is journaled as finished: everything but a
    /// shutdown's stop.
    terminal: bool,
    queue_wait: Duration,
}

/// The registry's state behind its lock. Every method here is plain
/// bookkeeping — no lock, thread, clock or I/O — so tests drive the
/// scheduler, the counters and retention directly.
#[derive(Default)]
struct RegState {
    next_id: JobId,
    /// The first id this life's submits issued; ids from it up to
    /// `next_id`, and the `replayed` ones, are the ids this registry
    /// held.
    first_submitted: JobId,
    /// Ids the journal replay resubmitted at start, ascending.
    replayed: Vec<JobId>,
    /// Scheduler state per tenant id. Tenants from the configured
    /// roster are seeded at start; unknown ids (permissive mode, old
    /// journals) register on first use with default weight and no
    /// quotas.
    tenants: BTreeMap<String, TenantSched>,
    /// Round-robin visit order (registration order, stable across the
    /// registry's life).
    rotation: Vec<String>,
    /// Rotation index of the tenant that claimed most recently; the
    /// next scan starts here so a tenant with deficit left keeps its
    /// turn.
    cursor: usize,
    /// Σ `spec.threads` over running jobs.
    running_threads: usize,
    /// Every queued and running job, and the newest finished ones.
    jobs: HashMap<JobId, JobEntry>,
    /// Terminally ended jobs still held, in the order they ended: what
    /// [`RegState::retire`] drops past its bound.
    finished: VecDeque<JobId>,
    /// Queued and running jobs per name (names key checkpoint files, so
    /// submit refuses a live one).
    live_names: HashMap<String, usize>,
    /// Running jobs inside a stall episode.
    stalled: usize,
    /// Σ every job's operator counters, retired jobs included.
    operators: OpCounters,
    busy_workers: usize,
    shutdown: bool,
    /// Set by [`JobRegistry::drain`]: stop admitting, keep working off
    /// what is already accepted.
    draining: bool,
    /// Accepted keyed submissions, `(scope, key) → ids`: a retried
    /// submit with the same key returns the original ids instead of
    /// creating duplicates. Journaled alongside the batch, so dedupe
    /// survives a restart.
    idempotency: HashMap<(String, String), Vec<JobId>>,
}

impl RegState {
    /// The tenant's scheduler state, registering it (default weight, no
    /// quotas) on first sight.
    fn tenant_mut(&mut self, id: &str) -> &mut TenantSched {
        if !self.tenants.contains_key(id) {
            self.tenants.insert(id.to_owned(), TenantSched::new(TenantSpec::named(id)));
            self.rotation.push(id.to_owned());
        }
        self.tenants.get_mut(id).expect("just registered")
    }

    /// Registers an accepted job: into the jobs map, the live-name index
    /// and its tenant's queue, with its budget charged against
    /// `max_evals`.
    fn enqueue(&mut self, id: JobId, entry: JobEntry) {
        let tenant = entry.spec.tenant.clone();
        let budget = entry.spec.budget as u64;
        *self.live_names.entry(entry.spec.name.clone()).or_default() += 1;
        self.jobs.insert(id, entry);
        let sched = self.tenant_mut(&tenant);
        sched.queue.push_back(id);
        sched.usage.evals_submitted += budget;
    }

    /// Whether a queued or running job carries `name`.
    fn name_is_live(&self, name: &str) -> bool {
        self.live_names.contains_key(name)
    }

    /// The held job under `id`, or why there is none.
    fn entry(&self, id: JobId) -> Result<&JobEntry, JobMissing> {
        self.jobs.get(&id).ok_or_else(|| {
            let held = (self.first_submitted..self.next_id).contains(&id)
                || self.replayed.binary_search(&id).is_ok();
            if held {
                JobMissing::Expired
            } else {
                JobMissing::Unknown
            }
        })
    }

    /// Ends a queued or running job in `status` (done, cancelled or
    /// failed): writes its last event line, counts the end for its
    /// tenant, and frees its name and its stall. A `terminal` end also
    /// queues the job for [`RegState::retire`]; a shutdown's stop is not
    /// terminal (the job stays pending in the journal) and is never
    /// retired.
    fn end(&mut self, id: JobId, status: JobStatus, terminal: bool, capacity: usize) {
        let Some(entry) = self.jobs.get_mut(&id) else { return };
        if entry.status == JobStatus::Running && entry.stall_emitted {
            self.stalled -= 1;
        }
        entry.status = status;
        entry.push_event(format!("end status={status}"), capacity);
        entry.events_done = true;
        if let Some(live) = self.live_names.get_mut(&entry.spec.name) {
            *live -= 1;
            if *live == 0 {
                self.live_names.remove(&entry.spec.name);
            }
        }
        if let Some(sched) = self.tenants.get_mut(&entry.spec.tenant) {
            match status {
                JobStatus::Done => sched.done += 1,
                JobStatus::Cancelled => sched.cancelled += 1,
                JobStatus::Failed => sched.failed += 1,
                JobStatus::Queued | JobStatus::Running => {}
            }
        }
        if terminal {
            self.finished.push_back(id);
        }
    }

    /// A user's cancel. A queued job ends cancelled at once and leaves
    /// its tenant's queue; a running one is flagged and stops at its
    /// next generation boundary. Returns the status after the request
    /// and whether it ended the job (so the caller journals the end).
    fn cancel(&mut self, id: JobId, capacity: usize) -> Option<(JobStatus, bool)> {
        let entry = self.jobs.get_mut(&id)?;
        match entry.status {
            JobStatus::Queued => {
                entry.user_cancelled = true;
                if let Some(sched) = self.tenants.get_mut(&entry.spec.tenant) {
                    sched.queue.retain(|&queued| queued != id);
                }
                self.end(id, JobStatus::Cancelled, true, capacity);
                Some((JobStatus::Cancelled, true))
            }
            JobStatus::Running => {
                entry.user_cancelled = true;
                entry.control.cancel();
                Some((JobStatus::Running, false))
            }
            status @ (JobStatus::Done | JobStatus::Cancelled | JobStatus::Failed) => {
                Some((status, false))
            }
        }
    }

    /// A worker's end of a claimed job, with its report (`None` after a
    /// panic): charges the tenant's meters — a panic refunds the budget
    /// the job did not evaluate — stores the report, releases the worker
    /// and its threads, and ends the job. A cancelled report is terminal
    /// only when a user asked for it.
    fn finish(&mut self, id: JobId, report: Option<JobReport>, capacity: usize) -> Option<Ended> {
        let entry = self.jobs.get_mut(&id)?;
        let status = match &report {
            Some(report) if report.cancelled => JobStatus::Cancelled,
            Some(_) => JobStatus::Done,
            None => JobStatus::Failed,
        };
        let terminal = status != JobStatus::Cancelled || entry.user_cancelled;
        let queue_wait = entry.queue_wait;
        // What a panicked job evaluated before dying: its last reported
        // generation's running total.
        let consumed_at_failure = entry.progress.map_or(0, |p| p.samples as u64);
        let (tenant, budget, threads) =
            (entry.spec.tenant.clone(), entry.spec.budget as u64, entry.spec.threads);
        let usage = &mut self.tenant_mut(&tenant).usage;
        match &report {
            Some(report) => {
                usage.evals_consumed += report.samples as u64;
                usage.cache_hits += report.cache_hits;
                usage.cache_misses += report.cache_misses;
                usage.cache_insertions += report.cache_insertions;
                usage.genome_hits += report.genome_hits;
                usage.genome_misses += report.genome_misses;
                usage.genome_insertions += report.genome_insertions;
            }
            None => {
                // Refund the unconsumed budget so the `max_evals` meter
                // balances: the tenant pays for what the job evaluated,
                // not for the budget its crash stranded.
                usage.evals_consumed += consumed_at_failure;
                usage.evals_submitted = usage
                    .evals_submitted
                    .saturating_sub(budget.saturating_sub(consumed_at_failure));
            }
        }
        let sched = self.tenant_mut(&tenant);
        sched.running = sched.running.saturating_sub(1);
        self.busy_workers = self.busy_workers.saturating_sub(1);
        self.running_threads = self.running_threads.saturating_sub(threads);
        self.end(id, status, terminal, capacity);
        if let (Some(entry), Some(mut report)) = (self.jobs.get_mut(&id), report) {
            report.queue_wait = queue_wait;
            entry.report = Some(report);
        }
        Some(Ended { status, terminal, queue_wait })
    }

    /// Folds one generation boundary into a job: its live progress and
    /// progress event line, then the analytics when the GA produced any
    /// (see [`RegState::record_analytics`], whose `stalled` line follows
    /// the progress line). Returns the per-operator incumbent deltas,
    /// for the metrics.
    fn record_generation(
        &mut self,
        id: JobId,
        progress: JobProgress,
        analytics: Option<AnalyticsUpdate>,
        capacity: usize,
    ) -> Vec<(&'static str, u64)> {
        if let Some(entry) = self.jobs.get_mut(&id) {
            entry.progress = Some(progress);
            entry.push_event(progress.line(), capacity);
        }
        analytics.map_or_else(Vec::new, |update| self.record_analytics(id, update, capacity))
    }

    /// Folds one generation boundary's analytics into a running job: its
    /// window, cost curve and operator counters (and the registry-wide
    /// aggregate, which keeps retired jobs' counts), and its stall
    /// episode, whose start writes one `stalled` event line. Returns the
    /// per-operator incumbent deltas, for the metrics.
    fn record_analytics(
        &mut self,
        id: JobId,
        update: AnalyticsUpdate,
        capacity: usize,
    ) -> Vec<(&'static str, u64)> {
        let mut deltas = Vec::new();
        let Some(entry) = self.jobs.get_mut(&id) else { return deltas };
        let stats = update.stats;
        // `update.ops` is absolute (after a resume the first update
        // carries the whole restored history), so diff against the last
        // seen absolutes.
        for (kind, now) in update.ops.iter() {
            let was = entry.ops.get(kind);
            let total = self.operators.get_mut(kind);
            total.attempted = total.attempted - was.attempted + now.attempted;
            total.improved = total.improved - was.improved + now.improved;
            total.incumbents = total.incumbents - was.incumbents + now.incumbents;
            let delta = now.incumbents.saturating_sub(was.incumbents);
            if delta > 0 {
                deltas.push((kind.name(), delta));
            }
        }
        entry.ops = update.ops;
        if let Some(seed) = update.seed_points {
            entry.cost_points = compress_points(&seed);
        }
        match entry.cost_points.last() {
            Some(last) if last.best.to_bits() == stats.best.to_bits() => {}
            _ => entry.cost_points.push(CostPoint {
                generation: stats.generation,
                evals: stats.evals,
                best: stats.best,
            }),
        }
        entry.analytics.push(stats);
        let running = entry.status == JobStatus::Running;
        if stats.stale_gens == 0 {
            if entry.stall_emitted && running {
                self.stalled -= 1;
            }
            entry.stall_emitted = false;
        } else if stats.stale_gens >= STALL_AFTER && !entry.stall_emitted {
            entry.stall_emitted = true;
            if running {
                self.stalled += 1;
            }
            let best = match stats.best.is_finite() {
                true => format!("{:.6e}", stats.best),
                false => "none".to_owned(),
            };
            entry.push_event(
                format!("stalled gen={} stale={} best={best}", stats.generation, stats.stale_gens),
                capacity,
            );
        }
        deltas
    }

    /// Drops the jobs that ended first while more than `bound` ended
    /// jobs are held, and hands them back so the caller frees them after
    /// releasing the lock. Only terminal ends queue a job here, so a
    /// queued, running or shutdown-stopped job is never retired.
    fn retire(&mut self, bound: usize) -> Vec<JobEntry> {
        let excess = self.finished.len().saturating_sub(bound);
        self.finished.drain(..excess).filter_map(|id| self.jobs.remove(&id)).collect()
    }

    /// Jobs waiting in tenant queues.
    fn queued(&self) -> usize {
        self.tenants.values().map(|sched| sched.queue.len()).sum()
    }

    /// Jobs currently running.
    fn running(&self) -> usize {
        self.tenants.values().map(|sched| sched.running).sum()
    }

    /// The scheduler's counters as [`RegistryStats`], O(tenants) however
    /// many jobs were served; the process fields stay zero.
    fn stats(&self) -> RegistryStats {
        let tenants: Vec<TenantStats> = self
            .tenants
            .iter()
            .map(|(id, sched)| TenantStats {
                id: id.clone(),
                weight: sched.spec.weight,
                queued: sched.queue.len(),
                running: sched.running,
                done: sched.done,
                cancelled: sched.cancelled,
                failed: sched.failed,
                evals_submitted: sched.usage.evals_submitted,
                evals_consumed: sched.usage.evals_consumed,
                cache_hits: sched.usage.cache_hits,
                cache_misses: sched.usage.cache_misses,
                cache_insertions: sched.usage.cache_insertions,
                genome_hits: sched.usage.genome_hits,
                genome_misses: sched.usage.genome_misses,
                genome_insertions: sched.usage.genome_insertions,
            })
            .collect();
        RegistryStats {
            busy_workers: self.busy_workers,
            running_threads: self.running_threads,
            // Queue depth is the scheduler's truth (Σ tenant queues), not
            // a recount of statuses: a stale id lingering in a queue
            // *should* show up here as a bug.
            queued: self.queued(),
            running: self.running(),
            done: tenants.iter().map(|t| t.done).sum(),
            cancelled: tenants.iter().map(|t| t.cancelled).sum(),
            failed: tenants.iter().map(|t| t.failed).sum(),
            stalled: self.stalled,
            operators: self.operators,
            tenants,
            ..RegistryStats::default()
        }
    }
}

/// Whether `sched`'s next job could start right now: something is
/// queued, the tenant is below `max_running`, and the head job's
/// `threads` fit in the worker pool. Head-of-line only — jobs within a
/// tenant run in submission order, so a wide job at the head waits for
/// threads rather than being overtaken by its own tenant's later jobs.
fn head_admittable(
    jobs: &HashMap<JobId, JobEntry>,
    sched: &TenantSched,
    running_threads: usize,
    total_workers: usize,
) -> bool {
    if sched.spec.max_running.is_some_and(|max| sched.running >= max) {
        return false;
    }
    let Some(head) = sched.queue.front() else { return false };
    jobs.get(head).is_some_and(|entry| {
        entry.status == JobStatus::Queued && running_threads + entry.spec.threads <= total_workers
    })
}

/// Picks the job the calling worker should run next — the scheduling
/// decision, factored out of [`worker_loop`] so tests can drive it
/// deterministically.
///
/// Weighted round-robin with deficit counters: scanning the rotation
/// from the cursor, the first tenant with deficit left and an
/// admittable head job claims. When every such tenant has spent its
/// deficit, each is replenished to its weight and the scan repeats —
/// so over any busy stretch, tenants complete claims in proportion to
/// their weights regardless of backlog depth. Returns `None` when no
/// job can start (empty queues, `max_running` caps, or not enough free
/// threads); the caller waits on the condvar.
fn claim_next(state: &mut RegState, total_workers: usize) -> Option<(JobId, JobSpec)> {
    // Drop stale heads (ids whose job is no longer queued) so they
    // cannot wedge their tenant. Cancellation dequeues eagerly, so this
    // is a backstop, not the cleanup path.
    {
        let jobs = &state.jobs;
        for sched in state.tenants.values_mut() {
            while sched
                .queue
                .front()
                .is_some_and(|id| !jobs.get(id).is_some_and(|e| e.status == JobStatus::Queued))
            {
                sched.queue.pop_front();
            }
        }
    }
    for attempt in 0..2 {
        let n = state.rotation.len();
        let mut pick = None;
        for step in 0..n {
            let idx = (state.cursor + step) % n;
            let sched = &state.tenants[&state.rotation[idx]];
            if sched.deficit > 0
                && head_admittable(&state.jobs, sched, state.running_threads, total_workers)
            {
                pick = Some(idx);
                break;
            }
        }
        if let Some(idx) = pick {
            state.cursor = idx;
            let tid = state.rotation[idx].clone();
            let sched = state.tenants.get_mut(&tid).expect("rotation tracks tenants");
            sched.deficit -= 1;
            sched.running += 1;
            let id = sched.queue.pop_front().expect("admittable head exists");
            let entry = state.jobs.get_mut(&id).expect("queued jobs are registered");
            entry.status = JobStatus::Running;
            entry.queue_wait = entry.queued_at.elapsed();
            state.running_threads += entry.spec.threads;
            return Some((id, entry.spec.clone()));
        }
        if attempt == 0 {
            // Every tenant that could run is out of deficit: grant the
            // next round. Only tenants with admittable work replenish,
            // so an idle tenant cannot bank credit while absent and
            // then starve everyone on return.
            let jobs = &state.jobs;
            let running_threads = state.running_threads;
            let mut any = false;
            for sched in state.tenants.values_mut() {
                if head_admittable(jobs, sched, running_threads, total_workers) {
                    sched.deficit = sched.spec.weight;
                    any = true;
                }
            }
            if !any {
                return None;
            }
        }
    }
    None
}

struct Inner {
    server: SearchServer,
    workers: usize,
    journal: Option<Journal>,
    tenants: TenantSet,
    state: Mutex<RegState>,
    cond: Condvar,
    /// When the registry started (uptime reference).
    started: Instant,
    /// Unix seconds at start, for `digamma_process_start_time_seconds`.
    start_unix: u64,
    /// Unfinished jobs the journal replay resubmitted at start.
    replayed: usize,
}

/// The runtime job service. See the module docs.
pub struct JobRegistry {
    inner: Arc<Inner>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for JobRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobRegistry").field("stats", &self.stats()).finish()
    }
}

impl JobRegistry {
    /// Starts a single-tenant (permissive) registry: every job runs
    /// under whatever tenant id its spec carries, registered on first
    /// sight with default weight and no quotas. Equivalent to
    /// [`JobRegistry::start_with_tenants`] with an empty set.
    ///
    /// # Errors
    ///
    /// Returns [`std::io::Error`] when the journal exists but cannot be
    /// read.
    pub fn start(
        config: ServerConfig,
        journal_path: Option<PathBuf>,
    ) -> std::io::Result<JobRegistry> {
        JobRegistry::start_with_tenants(config, journal_path, TenantSet::default())
    }

    /// Starts a registry: spins up `config.workers` worker threads and —
    /// when `journal_path` is given — replays the journal, resubmitting
    /// every job that never finished (each resumes from its snapshot
    /// through the normal checkpoint path).
    ///
    /// A non-empty `tenants` roster makes admission strict: jobs must
    /// name a listed tenant, and each tenant's weight and quotas apply.
    /// Journal replay stays lenient — a journal written before a tenant
    /// left the roster still replays, auto-registering the id — so a
    /// roster edit can never brick a restart.
    ///
    /// # Errors
    ///
    /// Returns [`std::io::Error`] when the journal exists but cannot be
    /// read.
    pub fn start_with_tenants(
        config: ServerConfig,
        journal_path: Option<PathBuf>,
        tenants: TenantSet,
    ) -> std::io::Result<JobRegistry> {
        let workers = config.workers.max(1);
        // The journal consults the server's failpoint set, so one
        // `--failpoints` spec covers storage, eval, and wire faults.
        let journal = journal_path.map(|p| Journal::with_faults(p, Arc::clone(&config.faults)));
        let mut replayed = Vec::new();
        let mut next_id: JobId = 1;
        let mut corrupt = 0u64;
        let mut idempotency = Vec::new();
        if let Some(journal) = &journal {
            let replay = journal.replay()?;
            next_id = replay.next_id;
            replayed = replay.pending;
            corrupt = replay.corrupt;
            idempotency = replay.idempotency;
        }
        let inner = Arc::new(Inner {
            server: SearchServer::new(config),
            workers,
            journal,
            tenants,
            state: Mutex::new(RegState {
                next_id,
                first_submitted: next_id,
                replayed: replayed.iter().map(|&(id, _)| id).collect(),
                ..RegState::default()
            }),
            cond: Condvar::new(),
            started: Instant::now(),
            start_unix: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map_or(0, |since| since.as_secs()),
            replayed: replayed.len(),
        });
        inner
            .server
            .metrics()
            .counter(
                "digamma_journal_replayed_jobs_total",
                "Unfinished jobs resubmitted from the journal at start.",
                &[],
            )
            .add(replayed.len() as u64);
        inner
            .server
            .metrics()
            .counter(
                "digamma_journal_corrupt_records_total",
                "Damaged journal records skipped at replay (failed or missing checksum).",
                &[],
            )
            .add(corrupt);
        if corrupt > 0 {
            digamma_obs::log::global().log(
                LogLevel::Warn,
                "registry",
                None,
                "journal replay skipped corrupt records",
                &[("corrupt", corrupt.to_string())],
            );
        }
        {
            // Controls carry a progress closure capturing `inner`, so
            // replayed jobs enqueue only after `inner` exists.
            let mut state = inner.state.lock().expect("registry poisoned");
            // Seed the roster so weights and quotas apply from the
            // first claim and `/stats` lists every configured tenant.
            for tspec in inner.tenants.iter() {
                state.tenants.insert(tspec.id.clone(), TenantSched::new(tspec.clone()));
                state.rotation.push(tspec.id.clone());
            }
            let queued_ns = inner.server.tracer().now_ns();
            for (id, spec) in replayed {
                let entry = JobEntry::new(spec, make_control(&inner, id), None, queued_ns);
                state.enqueue(id, entry);
            }
            for (scope, key, ids) in idempotency {
                state.idempotency.insert((scope, key), ids);
            }
        }
        let handles = (0..workers)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        Ok(JobRegistry { inner, handles: Mutex::new(handles) })
    }

    /// The underlying batch server (its config and cache stats).
    pub fn server(&self) -> &SearchServer {
        &self.inner.server
    }

    /// The configured tenant roster (empty in permissive mode). The
    /// wire front-end reads tokens and auth policy from here.
    pub fn tenants(&self) -> &TenantSet {
        &self.inner.tenants
    }

    /// Submits a batch of jobs **atomically** and returns their ids,
    /// names and tenants once every one is queued (and journaled, when a
    /// journal is attached).
    /// The manifest is parsed, and every spec validated against live
    /// names (and against the rest of the batch), the roster and every
    /// quota, before anything is journaled or enqueued, so a rejected
    /// batch leaves no orphan jobs running behind a client that saw an
    /// error.
    ///
    /// Each accepted spec's `threads` is clamped to the worker count;
    /// the scheduler then keeps Σ running `threads` ≤ workers, so no
    /// admitted job can oversubscribe the pool.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Invalid`] when the manifest does not parse, when
    /// another *live* (queued or running) job already uses a name —
    /// names key checkpoint files, so two live jobs sharing one would
    /// corrupt each other's snapshots — or when `threads` is zero or a
    /// tenant id is malformed. [`SubmitError::UnknownTenant`] and
    /// [`SubmitError::QuotaExceeded`] per the configured roster.
    /// [`SubmitError::Unavailable`] while the registry drains, shuts
    /// down, or sheds load past [`ServerConfig::shed_queue_depth`], and
    /// when the journal append fails.
    pub fn submit(&self, submission: Submission<'_>) -> Result<Submitted, SubmitError> {
        let Submission { jobs, trace, idempotency_key, tenant } = submission;
        let mut specs = match jobs {
            SubmittedJobs::Specs(specs) => specs,
            SubmittedJobs::Manifest(text) => crate::manifest::parse_manifest(text)?,
        };
        if let Some(tenant) = tenant {
            for spec in &mut specs {
                spec.tenant = tenant.to_owned();
            }
        }
        let idempotency = idempotency_key.map(|key| (tenant.unwrap_or(""), key));
        if specs.is_empty() {
            return Ok(Submitted::default());
        }
        let workers = self.inner.workers;
        let mut state = self.inner.state.lock().expect("registry poisoned");
        if state.shutdown || state.draining {
            return Err(SubmitError::Unavailable(
                "service is draining or shutting down; retry later".to_owned(),
            ));
        }
        // A replayed key answers before anything else (even while
        // shedding): the work was already accepted, the client just
        // never heard.
        let dedupe_key = idempotency.map(|(scope, key)| (scope.to_owned(), key.to_owned()));
        if let Some(key) = &dedupe_key {
            if let Some(ids) = state.idempotency.get(key) {
                let labels = ids
                    .iter()
                    .enumerate()
                    .map(|(i, id)| {
                        let spec = state.jobs.get(id).map(|entry| &entry.spec).or(specs.get(i));
                        spec.map(|s| (s.name.clone(), s.tenant.clone())).unwrap_or_default()
                    })
                    .collect();
                return Ok(Submitted { ids: ids.clone(), labels });
            }
        }
        // Load shedding: past the watermark the healthy answer is a
        // fast 503 + Retry-After, not an ever-deeper queue.
        let shed = self.inner.server.config().shed_queue_depth;
        if shed > 0 {
            let queued = state.queued();
            if queued + specs.len() > shed {
                self.inner
                    .server
                    .metrics()
                    .counter(
                        "digamma_submits_shed_total",
                        "Submissions refused because queue depth hit the shed watermark.",
                        &[],
                    )
                    .inc();
                return Err(SubmitError::Unavailable(format!(
                    "queue depth {queued} is at the shed watermark {shed}; retry later"
                )));
            }
        }
        // Validate the whole batch first: live-name collisions,
        // intra-batch duplicates, tenant identity, and thread counts.
        let mut batch_names = std::collections::HashSet::new();
        for spec in &mut specs {
            if state.name_is_live(&spec.name) {
                return Err(SubmitError::Invalid(format!(
                    "a live job is already named {:?} (names key checkpoint files)",
                    spec.name
                )));
            }
            if !batch_names.insert(spec.name.clone()) {
                return Err(SubmitError::Invalid(format!("duplicate job name {:?}", spec.name)));
            }
            if spec.threads == 0 {
                return Err(SubmitError::Invalid(format!(
                    "job {:?}: threads must be at least 1",
                    spec.name
                )));
            }
            // More threads than workers could never be scheduled; clamp
            // rather than wedge the job forever.
            spec.threads = spec.threads.min(workers);
            if !valid_tenant_id(&spec.tenant) {
                return Err(SubmitError::Invalid(format!(
                    "job {:?}: bad tenant id {:?}",
                    spec.name, spec.tenant
                )));
            }
            if !self.inner.tenants.is_empty() && self.inner.tenants.get(&spec.tenant).is_none() {
                return Err(SubmitError::UnknownTenant(format!(
                    "unknown tenant {:?} (job {:?})",
                    spec.tenant, spec.name
                )));
            }
        }
        // Quota admission, per tenant across the whole batch.
        let mut per_tenant: BTreeMap<&str, (usize, u64)> = BTreeMap::new();
        for spec in &specs {
            let slot = per_tenant.entry(spec.tenant.as_str()).or_insert((0, 0));
            slot.0 += 1;
            slot.1 += spec.budget as u64;
        }
        for (tid, &(count, budget)) in &per_tenant {
            let sched = state.tenants.get(*tid);
            let Some(tspec) = sched.map(|s| &s.spec).or_else(|| self.inner.tenants.get(tid)) else {
                continue; // unlisted tenant in permissive mode: no quotas
            };
            if let Some(max) = tspec.max_queued {
                let queued = sched.map_or(0, |s| s.queue.len());
                if queued + count > max {
                    return Err(SubmitError::QuotaExceeded(format!(
                        "tenant {tid:?}: {queued} queued + {count} submitted exceeds \
                         max_queued {max}"
                    )));
                }
            }
            if let Some(max) = tspec.max_evals {
                let used = sched.map_or(0, |s| s.usage.evals_submitted);
                if used + budget > max {
                    return Err(SubmitError::QuotaExceeded(format!(
                        "tenant {tid:?}: {used} evals submitted + {budget} requested exceeds \
                         max_evals {max}"
                    )));
                }
            }
        }
        let ids: Vec<JobId> = (0..specs.len() as JobId).map(|i| state.next_id + i).collect();
        // Journal the whole batch in one append before anything
        // enqueues: an error accepts nothing.
        if let Some(journal) = &self.inner.journal {
            let batch: Vec<(JobId, &JobSpec)> = ids.iter().copied().zip(&specs).collect();
            journal.append_submitted_keyed(&batch, idempotency).map_err(|e| {
                SubmitError::Unavailable(format!("journal append failed: {e}; retry later"))
            })?;
        }
        state.next_id += specs.len() as JobId;
        let queued_ns = self.inner.server.tracer().now_ns();
        let labels = specs.iter().map(|s| (s.name.clone(), s.tenant.clone())).collect();
        for (&id, spec) in ids.iter().zip(specs) {
            let entry = JobEntry::new(spec, make_control(&self.inner, id), trace, queued_ns);
            state.enqueue(id, entry);
        }
        if let Some(key) = dedupe_key {
            state.idempotency.insert(key, ids.clone());
        }
        drop(state);
        self.inner.cond.notify_all();
        Ok(Submitted { ids, labels })
    }

    /// The trace id of a job's lifecycle spans, once one exists: set at
    /// submit when the request carried a span context, or at claim for
    /// jobs submitted without one. `None` for jobs the registry does not
    /// hold, and for untraced submits not yet claimed.
    pub fn trace_of(&self, id: JobId) -> Option<TraceId> {
        let state = self.inner.state.lock().expect("registry poisoned");
        state.jobs.get(&id).and_then(|e| e.trace).map(|ctx| ctx.trace)
    }

    /// The span store shared across the stack.
    pub fn tracer(&self) -> &Tracer {
        self.inner.server.tracer()
    }

    /// Snapshots one job: any queued or running job, or one of the
    /// newest 1024 finished ones. `None` otherwise;
    /// [`JobRegistry::tenant_of`] tells an expired id from an unknown
    /// one.
    pub fn job(&self, id: JobId) -> Option<JobView> {
        let state = self.inner.state.lock().expect("registry poisoned");
        state.jobs.get(&id).map(|entry| entry.view(id))
    }

    /// The tenant that owns a held job, or why the registry holds no job
    /// under `id`: expired (retired after it finished) or unknown. A
    /// cheap existence check that clones no spec.
    ///
    /// # Errors
    ///
    /// Returns the [`JobMissing`] reason when no job is held under `id`.
    pub fn tenant_of(&self, id: JobId) -> Result<String, JobMissing> {
        let state = self.inner.state.lock().expect("registry poisoned");
        state.entry(id).map(|entry| entry.spec.tenant.clone())
    }

    /// Snapshots every job the registry holds, in id order: every queued
    /// and running job and the newest 1024 finished ones.
    pub fn jobs(&self) -> Vec<JobView> {
        let state = self.inner.state.lock().expect("registry poisoned");
        let mut views: Vec<JobView> = state.jobs.iter().map(|(&id, e)| e.view(id)).collect();
        views.sort_by_key(|v| v.id);
        views
    }

    /// Requests cancellation. A queued job cancels immediately (and
    /// leaves its tenant's queue at once, so queue depth and `max_queued`
    /// headroom update without waiting for a worker to trip over the
    /// corpse); a running one stops cooperatively at its next generation
    /// boundary (snapshotting first). Returns the job's status after the
    /// request, or `None` for an id the registry does not hold.
    pub fn cancel(&self, id: JobId) -> Option<JobStatus> {
        let mut state = self.inner.state.lock().expect("registry poisoned");
        let (status, ended) = state.cancel(id, EVENT_LOG_CAPACITY)?;
        if ended {
            if let Some(journal) = &self.inner.journal {
                let _ = journal.append_finished(id, status);
            }
        }
        let retired = state.retire(RETAINED_FINISHED_JOBS);
        drop(state);
        drop(retired);
        self.inner.cond.notify_all();
        Some(status)
    }

    /// Returns the job's event lines starting at sequence `from`, as
    /// `(first_seq, lines, done)`. Event logs are rings of the newest
    /// `EVENT_LOG_CAPACITY` (1024) lines: when `from` points at
    /// history the ring already dropped, `first_seq > from` and the
    /// lines resume from the oldest retained sequence — late
    /// subscribers resume from an offset instead of replaying unbounded
    /// history. A `from` beyond the end of the stream answers
    /// immediately with `(end, [], done)` so a confused subscriber
    /// learns the real cursor instead of stalling. Blocks up to
    /// `timeout` for news when there is none yet; an id the registry
    /// does not hold (or stops holding while the call waits) returns
    /// `None`.
    pub fn events(
        &self,
        id: JobId,
        from: usize,
        timeout: Duration,
    ) -> Option<(usize, Vec<String>, bool)> {
        let mut state = self.inner.state.lock().expect("registry poisoned");
        loop {
            let entry = state.jobs.get(&id)?;
            let end = entry.events_end();
            if from > end {
                return Some((end, Vec::new(), entry.events_done));
            }
            if end > from || entry.events_done {
                let (first_seq, lines) = entry.events_from(from);
                return Some((first_seq, lines, entry.events_done));
            }
            let (next, wait) =
                self.inner.cond.wait_timeout(state, timeout).expect("registry poisoned");
            state = next;
            if wait.timed_out() {
                let entry = state.jobs.get(&id)?;
                let (first_seq, lines) = entry.events_from(from);
                return Some((first_seq, lines, entry.events_done));
            }
        }
    }

    /// Renders one job's analytics document — the [`GenStats`] window,
    /// cumulative operator attribution, and the cost-vs-evaluations
    /// curve — as the JSON body `GET /jobs/{id}/analytics` serves.
    /// Works for queued (empty window), live, and finished jobs alike
    /// while the registry holds them; any other id returns `None`.
    ///
    /// [`GenStats`]: digamma_obs::GenStats
    pub fn analytics_json(&self, id: JobId) -> Option<String> {
        let state = self.inner.state.lock().expect("registry poisoned");
        let entry = state.jobs.get(&id)?;
        Some(render_analytics_json(id, &entry.analytics, &entry.ops, &entry.cost_points))
    }

    /// Aggregate queue/worker counters, with a per-tenant breakdown.
    /// Every count covers every job this registry has run, retired ones
    /// included, and comes from counters the transitions keep, so the
    /// call costs the same however many jobs were served.
    pub fn stats(&self) -> RegistryStats {
        let state = self.inner.state.lock().expect("registry poisoned");
        RegistryStats {
            start_unix: self.inner.start_unix,
            uptime_seconds: self.inner.started.elapsed().as_secs(),
            replayed_jobs: self.inner.replayed,
            workers: self.inner.workers,
            ..state.stats()
        }
    }

    /// Renders the full Prometheus text exposition for `/metrics`:
    /// refreshes the scrape-time gauges (uptime, queue depth, worker
    /// occupancy, cache residency) and then renders every family the
    /// running jobs have fed.
    pub fn render_metrics(&self) -> String {
        let metrics = self.inner.server.metrics();
        let stats = self.stats();
        let config = self.inner.server.config();
        metrics
            .gauge(
                "digamma_process_start_time_seconds",
                "Unix time the registry started, in seconds.",
                &[],
            )
            .set(self.inner.start_unix as f64);
        metrics
            .gauge("digamma_process_uptime_seconds", "Seconds since the registry started.", &[])
            .set(self.inner.started.elapsed().as_secs_f64());
        let workers = self.inner.workers.to_string();
        let checkpoint_dir = config
            .checkpoint_dir
            .as_deref()
            .map_or_else(String::new, |dir| dir.display().to_string());
        metrics
            .gauge(
                "digamma_process_info",
                "Constant 1; the labels carry the service configuration.",
                &[("checkpoint_dir", &checkpoint_dir), ("workers", &workers)],
            )
            .set(1.0);
        metrics
            .gauge("digamma_jobs_queued", "Jobs waiting in tenant queues.", &[])
            .set(stats.queued as f64);
        metrics
            .gauge("digamma_jobs_running", "Jobs currently searching.", &[])
            .set(stats.running as f64);
        metrics
            .gauge("digamma_workers", "Worker threads serving the registry.", &[])
            .set(stats.workers as f64);
        metrics
            .gauge("digamma_workers_busy", "Workers currently running a job.", &[])
            .set(stats.busy_workers as f64);
        metrics
            .gauge(
                "digamma_jobs_stalled",
                "Running jobs currently inside a stall episode (no incumbent \
                 improvement for 25 generations).",
                &[],
            )
            .set(stats.stalled as f64);
        let residency = [
            ("fitness", self.inner.server.cache_stats()),
            ("genome", self.inner.server.genome_memo_stats()),
        ];
        for (cache, cache_stats) in residency {
            if let Some(cache_stats) = cache_stats {
                metrics
                    .gauge(
                        "digamma_cache_entries",
                        "Entries resident in the shared caches, by cache layer.",
                        &[("cache", cache)],
                    )
                    .set(cache_stats.entries as f64);
            }
        }
        metrics.render()
    }

    /// Whether a [`JobRegistry::drain`] is in progress (submissions
    /// answer [`SubmitError::Unavailable`]).
    pub fn draining(&self) -> bool {
        self.inner.state.lock().expect("registry poisoned").draining
    }

    /// Graceful drain: stops *accepting* work immediately, but keeps
    /// the workers running so already-accepted jobs finish (or at least
    /// checkpoint) — then shuts down. Waits up to `deadline` for the
    /// queues and running set to empty; whatever is still running at
    /// the deadline is cancelled cooperatively by [`shutdown`]
    /// (snapshotting first, staying pending in the journal, resuming on
    /// the next start). This is the SIGTERM path: no accepted job is
    /// ever silently lost, and small jobs complete instead of being
    /// killed.
    ///
    /// [`shutdown`]: JobRegistry::shutdown
    pub fn drain(&self, deadline: Duration) {
        let started = Instant::now();
        {
            let mut state = self.inner.state.lock().expect("registry poisoned");
            state.draining = true;
        }
        self.inner.cond.notify_all();
        let mut state = self.inner.state.lock().expect("registry poisoned");
        loop {
            if (state.queued() == 0 && state.running() == 0) || started.elapsed() >= deadline {
                break;
            }
            // Short slices rather than one long wait: job completions
            // notify the condvar, but a bounded re-check also catches
            // any missed wakeup before the deadline slips.
            let slice = deadline.saturating_sub(started.elapsed()).min(Duration::from_millis(50));
            let (next, _) = self.inner.cond.wait_timeout(state, slice).expect("registry poisoned");
            state = next;
        }
        drop(state);
        self.shutdown();
    }

    /// Stops accepting work and shuts the workers down. Running jobs are
    /// cancelled cooperatively (they snapshot and will resume on the
    /// next start when a journal is attached); queued jobs stay queued
    /// in the journal. Blocks until every worker has exited.
    pub fn shutdown(&self) {
        {
            let mut state = self.inner.state.lock().expect("registry poisoned");
            state.shutdown = true;
            for entry in state.jobs.values() {
                if entry.status == JobStatus::Running {
                    entry.control.cancel();
                }
            }
        }
        self.inner.cond.notify_all();
        let handles: Vec<_> = std::mem::take(&mut *self.handles.lock().expect("registry poisoned"));
        for handle in handles {
            let _ = handle.join();
        }
        // Final spill: the next life warm-starts from everything this
        // one memoized.
        self.inner.server.spill_cache_if_dirty();
    }
}

/// After this many stagnant generations (no incumbent improvement) a
/// job's event log gains a `stalled` line — once per stall episode,
/// re-armed by the next improvement.
const STALL_AFTER: u64 = 25;

/// Builds a job's control: its cancel flag is what [`JobRegistry::cancel`]
/// flips, and its generation sink folds each boundary into the job
/// ([`RegState::record_generation`]) under the registry lock, taken once
/// per generation (the worker holds no lock while searching). The
/// closure captures only a [`std::sync::Weak`] — `Inner` owns every
/// control through its jobs map, so a strong capture would be a
/// reference cycle keeping the whole registry (cache included) alive
/// forever.
fn make_control(inner: &Arc<Inner>, id: JobId) -> Arc<JobControl> {
    let weak = Arc::downgrade(inner);
    Arc::new(JobControl::new().with_generation_sink(move |progress, analytics| {
        let Some(inner) = weak.upgrade() else { return };
        // Gathered under the lock, fed to the metrics registry after it
        // drops.
        let deltas = inner.state.lock().expect("registry poisoned").record_generation(
            id,
            progress,
            analytics,
            EVENT_LOG_CAPACITY,
        );
        inner.cond.notify_all();
        let metrics = inner.server.metrics();
        for (operator, delta) in deltas {
            metrics
                .counter(
                    "digamma_search_improvements_total",
                    "New incumbent designs produced, by the GA operator that generated them.",
                    &[("operator", operator)],
                )
                .add(delta);
        }
    }))
}

/// Per-job analytics window: the newest this many per-generation
/// records are retained for `GET /jobs/{id}/analytics` and the `netc
/// top` dashboard; older records are dropped (the cumulative operator
/// counters are never windowed).
const ANALYTICS_WINDOW: usize = 512;

/// Per-job event ring: the newest this many event lines are retained
/// for late subscribers; older lines are dropped (the stream reports the
/// first retained sequence number).
const EVENT_LOG_CAPACITY: usize = 1024;

impl JobEntry {
    fn new(
        spec: JobSpec,
        control: Arc<JobControl>,
        trace: Option<SpanContext>,
        queued_ns: u64,
    ) -> JobEntry {
        JobEntry {
            spec,
            status: JobStatus::Queued,
            control,
            queued_at: Instant::now(),
            queue_wait: Duration::ZERO,
            user_cancelled: false,
            progress: None,
            events: VecDeque::new(),
            events_base: 0,
            events_done: false,
            report: None,
            trace,
            queued_ns,
            analytics: AnalyticsRing::new(ANALYTICS_WINDOW),
            ops: OpCounters::new(),
            cost_points: Vec::new(),
            stall_emitted: false,
        }
    }

    /// Appends an event line, dropping the oldest retained line once
    /// the ring is full (`capacity` ≥ 1 always retains the newest line).
    fn push_event(&mut self, line: String, capacity: usize) {
        while self.events.len() >= capacity.max(1) {
            self.events.pop_front();
            self.events_base += 1;
        }
        self.events.push_back(line);
    }

    /// Sequence number one past the newest retained line.
    fn events_end(&self) -> usize {
        self.events_base + self.events.len()
    }

    /// Lines from sequence `from` on: `(first_seq, lines)` where
    /// `first_seq = max(from, events_base)` — a `first_seq` beyond
    /// `from` tells the subscriber the ring dropped that many lines.
    fn events_from(&self, from: usize) -> (usize, Vec<String>) {
        let start = from.max(self.events_base);
        let lines =
            self.events.iter().skip(start - self.events_base).cloned().collect::<Vec<String>>();
        (start, lines)
    }

    fn view(&self, id: JobId) -> JobView {
        JobView {
            id,
            name: self.spec.name.clone(),
            status: self.status,
            spec: self.spec.clone(),
            progress: self.progress,
            report: self.report.clone(),
        }
    }
}

fn worker_loop(inner: &Arc<Inner>) {
    let metrics = inner.server.metrics();
    let claim_seconds = metrics.histogram(
        "digamma_scheduler_claim_seconds",
        "Latency of one claim_next scheduling decision (lock held).",
        &[],
        DEFAULT_LATENCY_BUCKETS,
    );
    loop {
        // Claim the next job the scheduler picks, or exit on shutdown.
        let (id, spec) = {
            let mut state = inner.state.lock().expect("registry poisoned");
            let claimed = loop {
                if state.shutdown {
                    return;
                }
                let scan_started = Instant::now();
                let claimed = claim_next(&mut state, inner.workers);
                claim_seconds.observe_duration(scan_started.elapsed());
                if let Some(claimed) = claimed {
                    break claimed;
                }
                state = inner.cond.wait(state).expect("registry poisoned");
            };
            state.busy_workers += 1;
            claimed
        };
        inner.cond.notify_all();

        let control = {
            let mut state = inner.state.lock().expect("registry poisoned");
            let entry = state.jobs.get_mut(&id).expect("claimed jobs are registered");
            let tracer = inner.server.tracer();
            // Adopt the submitting request's trace; a job without one
            // (journal replay, untraced submit) roots a fresh trace here
            // so `/trace/{id}` always resolves. The queued span is
            // back-dated to cover the whole wait, and the claim span it
            // parents is what the run nests under: queued → claim → run →
            // generation.
            let (trace, parent) = match entry.trace {
                Some(ctx) => (ctx.trace, Some(ctx.span)),
                None => (tracer.trace_id(), None),
            };
            let claim_started_ns = tracer.now_ns();
            let queued = SpanRecord {
                trace,
                span: tracer.span_id(),
                parent,
                name: "job.queued",
                job: Some(id),
                start_ns: entry.queued_ns,
                dur_ns: claim_started_ns.saturating_sub(entry.queued_ns),
                attrs: vec![("tenant", spec.tenant.clone())],
            };
            let claim = SpanRecord {
                trace,
                span: tracer.span_id(),
                parent: Some(queued.span),
                name: "job.claim",
                job: Some(id),
                start_ns: claim_started_ns,
                dur_ns: tracer.now_ns().saturating_sub(claim_started_ns),
                attrs: Vec::new(),
            };
            entry.trace = Some(SpanContext { trace, span: queued.span });
            entry.control.set_trace(id, SpanContext { trace, span: claim.span });
            tracer.record(queued);
            tracer.record(claim);
            Arc::clone(&entry.control)
        };
        let run_started = Instant::now();
        // A panicking job must not take its worker thread (and with it
        // a slot of the pool) down: catch, fail the job, survive.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            inner.server.run_job_controlled(&spec, &control)
        }));
        let run_wall = run_started.elapsed();

        let report = match outcome {
            Ok(report) => Some(report),
            Err(panic) => {
                digamma_obs::log::global().log(
                    LogLevel::Warn,
                    "registry",
                    None,
                    "job panicked; failing it and keeping the worker",
                    &[("job", id.to_string()), ("panic", panic_message(panic.as_ref()))],
                );
                None
            }
        };
        let mut state = inner.state.lock().expect("registry poisoned");
        let Ended { status, terminal, queue_wait } =
            state.finish(id, report, EVENT_LOG_CAPACITY).expect("running jobs are never retired");
        // A shutdown's cooperative stop is not terminal: the job stays
        // pending in the journal (its snapshot survives) and resumes on
        // the next start. A user's cancel is terminal and journaled, as
        // is a panic-failure.
        if terminal {
            if let Some(journal) = &inner.journal {
                let _ = journal.append_finished(id, status);
            }
        }
        let retired = state.retire(RETAINED_FINISHED_JOBS);
        drop(state);
        drop(retired);
        let tenant_label: &[(&'static str, &str)] = &[("tenant", &spec.tenant)];
        metrics
            .histogram(
                "digamma_job_queue_wait_seconds",
                "Time jobs waited in their tenant queue before a worker claimed them.",
                tenant_label,
                DEFAULT_LATENCY_BUCKETS,
            )
            .observe_duration(queue_wait);
        metrics
            .histogram(
                "digamma_job_run_seconds",
                "Wall-clock time a worker spent running a job end to end.",
                tenant_label,
                DEFAULT_LATENCY_BUCKETS,
            )
            .observe_duration(run_wall);
        // A panic-failure keeps its own status label so dashboards can
        // alert on crashes separately from ordinary failures.
        let status_label =
            if status == JobStatus::Failed { "panicked".to_owned() } else { status.to_string() };
        metrics
            .counter(
                "digamma_jobs_completed_total",
                "Jobs finished, by tenant and terminal status.",
                &[("status", &status_label), ("tenant", &spec.tenant)],
            )
            .inc();
        inner.cond.notify_all();
    }
}

/// Best-effort rendering of a caught panic payload (the common `&str`
/// and `String` cases; anything else is opaque).
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobAlgorithm;
    use digamma::Objective;
    use digamma_costmodel::Platform;
    use digamma_workload::zoo;

    fn spec(name: &str, budget: usize) -> JobSpec {
        let mut s = JobSpec::new(
            name,
            zoo::ncf(),
            Platform::edge(),
            Objective::Latency,
            JobAlgorithm::DiGamma,
        );
        s.budget = budget;
        s.population_size = 8;
        s.seed = 3;
        s
    }

    /// Submits one spec untraced, unkeyed and under its own tenant.
    fn submit(registry: &JobRegistry, spec: JobSpec) -> Result<JobId, SubmitError> {
        registry.submit(Submission::specs(vec![spec])).map(|ids| ids[0])
    }

    fn wait_done(registry: &JobRegistry, id: JobId) -> JobView {
        for _ in 0..600 {
            let view = registry.job(id).expect("known job");
            if matches!(view.status, JobStatus::Done | JobStatus::Cancelled | JobStatus::Failed) {
                return view;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("job {id} never finished");
    }

    #[test]
    fn analytics_document_tracks_a_finished_job() {
        let registry =
            JobRegistry::start(ServerConfig { workers: 1, ..ServerConfig::default() }, None)
                .unwrap();
        let id = submit(&registry, spec("telemetry", 96)).unwrap();
        assert!(registry.analytics_json(999).is_none(), "unknown ids answer None");
        wait_done(&registry, id);
        let body = registry.analytics_json(id).expect("known job");
        let doc = digamma_obs::parse_json(&body).expect("endpoint body is valid JSON");
        assert_eq!(doc.get("job").and_then(|v| v.as_u64()), Some(id));
        let generations = doc.get("generations").and_then(|v| v.as_arr()).unwrap();
        assert!(!generations.is_empty(), "a stepped job has a telemetry window");
        // Every stepped child is attributed to exactly one operator:
        // the counters sum to samples minus the initial population.
        let attempted: u64 = doc
            .get("operators")
            .and_then(|v| v.as_arr())
            .unwrap()
            .iter()
            .map(|op| op.get("attempted").and_then(|v| v.as_u64()).unwrap())
            .sum();
        let view = registry.job(id).unwrap();
        let samples = view.report.as_ref().unwrap().samples as u64;
        assert_eq!(attempted, samples - 8, "96 budget, population 8");
        let points = doc.get("cost_points").and_then(|v| v.as_arr()).unwrap();
        assert!(!points.is_empty(), "the convergence curve has at least its seed point");
        assert_eq!(
            points[0].get("generation").and_then(|v| v.as_u64()),
            Some(0),
            "the curve starts at the initial population"
        );
        // The aggregate surfaces through /stats too.
        let stats = registry.stats();
        assert_eq!(stats.operators.total_attempted(), attempted);
        registry.shutdown();
    }

    #[test]
    fn traced_submit_nests_queued_claim_run_generation_under_the_request() {
        let registry =
            JobRegistry::start(ServerConfig { workers: 1, ..ServerConfig::default() }, None)
                .unwrap();
        let tracer = registry.tracer().clone();
        let request = tracer.start_root("http.request");
        let request_ctx = request.context().expect("root context");
        let traced =
            Submission { trace: Some(request_ctx), ..Submission::specs(vec![spec("traced", 96)]) };
        let id = registry.submit(traced).unwrap()[0];
        assert_eq!(
            registry.trace_of(id),
            Some(request_ctx.trace),
            "the job adopts the request's trace id at submit"
        );
        wait_done(&registry, id);
        request.end();
        let spans = tracer.spans_for(request_ctx.trace);
        let find = |name: &str| {
            spans.iter().find(|s| s.name == name).unwrap_or_else(|| {
                panic!(
                    "{name} span missing: {:?}",
                    spans.iter().map(|s| s.name).collect::<Vec<_>>()
                )
            })
        };
        let queued = find("job.queued");
        let claim = find("job.claim");
        let run = find("job.run");
        let generation = find("job.generation");
        assert_eq!(queued.parent, Some(request_ctx.span));
        assert_eq!(claim.parent, Some(queued.span));
        assert_eq!(run.parent, Some(claim.span));
        assert_eq!(generation.parent, Some(run.span));
        for span in [queued, claim, run, generation] {
            assert_eq!(span.trace, request_ctx.trace);
            assert_eq!(span.job, Some(id), "lifecycle spans carry the job id");
        }
        registry.shutdown();
    }

    #[test]
    fn untraced_submit_roots_a_fresh_trace_at_claim() {
        let registry =
            JobRegistry::start(ServerConfig { workers: 1, ..ServerConfig::default() }, None)
                .unwrap();
        let id = submit(&registry, spec("plain", 96)).unwrap();
        wait_done(&registry, id);
        let trace = registry.trace_of(id).expect("claimed jobs always have a trace");
        let spans = registry.tracer().spans_for(trace);
        let queued = spans.iter().find(|s| s.name == "job.queued").expect("queued span");
        assert_eq!(queued.parent, None, "no request to nest under: queued is the root");
        assert!(spans.iter().any(|s| s.name == "job.run"));
        registry.shutdown();
    }

    #[test]
    fn submitted_jobs_run_and_report() {
        let registry =
            JobRegistry::start(ServerConfig { workers: 2, ..ServerConfig::default() }, None)
                .unwrap();
        let a = submit(&registry, spec("a", 96)).unwrap();
        let b = submit(&registry, spec("b", 96)).unwrap();
        assert_ne!(a, b);
        let va = wait_done(&registry, a);
        let vb = wait_done(&registry, b);
        assert_eq!(va.status, JobStatus::Done);
        assert_eq!(vb.status, JobStatus::Done);
        let report = va.report.expect("done jobs carry a report");
        assert_eq!(report.samples, 96);
        assert!(report.best.is_some());
        let stats = registry.stats();
        assert_eq!(stats.done, 2);
        assert_eq!((stats.queued, stats.running), (0, 0));
        // Permissive mode still accounts: both jobs ran as "default".
        let tenant = stats.tenants.iter().find(|t| t.id == "default").expect("default tenant");
        assert_eq!(tenant.done, 2);
        assert_eq!(tenant.evals_submitted, 192);
        assert_eq!(tenant.evals_consumed, 192);
        registry.shutdown();
    }

    #[test]
    fn events_stream_one_line_per_generation() {
        let registry =
            JobRegistry::start(ServerConfig { workers: 1, ..ServerConfig::default() }, None)
                .unwrap();
        let id = submit(&registry, spec("ev", 80)).unwrap();
        let mut lines = Vec::new();
        let mut from = 0;
        loop {
            let (first_seq, chunk, done) =
                registry.events(id, from, Duration::from_millis(200)).expect("known job");
            assert_eq!(first_seq, from, "nothing drops below the default ring capacity");
            from += chunk.len();
            lines.extend(chunk);
            if done {
                break;
            }
        }
        // 80 samples / population 8 = init + 9 generations, then the
        // terminal line.
        assert!(lines.len() >= 2, "{lines:?}");
        assert!(lines[0].starts_with("gen=1 "), "{lines:?}");
        assert_eq!(lines.last().unwrap(), "end status=done");
        registry.shutdown();
    }

    #[test]
    fn events_past_the_end_answer_immediately_with_the_real_cursor() {
        let registry =
            JobRegistry::start(ServerConfig { workers: 1, ..ServerConfig::default() }, None)
                .unwrap();
        let id = submit(&registry, spec("overshoot", 600_000)).unwrap();
        // Wait for at least one event so the stream is live but far
        // from sequence 10_000.
        let _ = registry.events(id, 0, Duration::from_secs(10));
        let started = std::time::Instant::now();
        let (seq, lines, done) =
            registry.events(id, 10_000, Duration::from_secs(30)).expect("known job");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "overshooting `from` must not stall until timeout"
        );
        assert!(lines.is_empty());
        assert!(!done);
        assert!(seq < 10_000, "the reported cursor is the stream's true end, got {seq}");
        registry.cancel(id);
        wait_done(&registry, id);
        // Same probe on a finished stream: immediate, done, real end.
        let (end, _, done) = registry.events(id, 0, Duration::from_millis(100)).unwrap();
        let end = end + registry.events(id, end, Duration::from_millis(100)).unwrap().1.len();
        let (seq, lines, done_after) =
            registry.events(id, end + 7, Duration::from_millis(100)).unwrap();
        assert!(done && done_after);
        assert_eq!((seq, lines.len()), (end, 0));
        registry.shutdown();
    }

    #[test]
    fn queued_jobs_cancel_immediately_and_running_jobs_cooperatively() {
        let dir = std::env::temp_dir().join(format!("digamma-reg-cancel-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let registry = JobRegistry::start(
            ServerConfig {
                workers: 1,
                checkpoint_dir: Some(dir.clone()),
                ..ServerConfig::default()
            },
            None,
        )
        .unwrap();
        // A long-running job hogs the single worker; checkpoint at every
        // generation so cancellation must find a snapshot to write.
        let mut long = spec("long", 1_000_000);
        long.checkpoint_every = Some(1);
        let running = submit(&registry, long).unwrap();
        let queued = submit(&registry, spec("queued", 96)).unwrap();
        assert_eq!(registry.cancel(queued), Some(JobStatus::Cancelled));
        // Wait until the long job has actually stepped, then cancel it.
        let (_, _, done) = registry.events(running, 0, Duration::from_secs(10)).unwrap();
        assert!(!done, "job must still be running");
        registry.cancel(running);
        let view = wait_done(&registry, running);
        assert_eq!(view.status, JobStatus::Cancelled);
        let report = view.report.expect("cancelled jobs report partial results");
        assert!(report.cancelled);
        assert!(report.samples < 1_000_000);
        assert!(report.best.is_some(), "partial best survives cancellation");
        // The cooperative stop snapshotted for later resumption.
        let ckpt = registry.server().checkpoint_path(&view.spec).unwrap();
        assert!(ckpt.exists(), "cancelled job keeps its snapshot");
        assert_eq!(registry.job(queued).unwrap().status, JobStatus::Cancelled);
        registry.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mass_cancelling_queued_jobs_drains_the_queue() {
        let registry =
            JobRegistry::start(ServerConfig { workers: 1, ..ServerConfig::default() }, None)
                .unwrap();
        // Hog the single worker so the rest stay queued.
        let blocker = submit(&registry, spec("blocker", 1_000_000)).unwrap();
        let ids: Vec<JobId> =
            (0..5).map(|i| submit(&registry, spec(&format!("victim-{i}"), 96)).unwrap()).collect();
        // Give the worker a moment to claim the blocker.
        let _ = registry.events(blocker, 0, Duration::from_secs(10));
        assert_eq!(registry.stats().queued, 5);
        for &id in &ids {
            assert_eq!(registry.cancel(id), Some(JobStatus::Cancelled));
        }
        // Cancelled ids leave the scheduler queue immediately — no
        // lingering tombstones waiting for a worker to skip them.
        let stats = registry.stats();
        assert_eq!(stats.queued, 0, "cancelled jobs must leave the queue eagerly");
        assert!(stats.tenants.iter().all(|t| t.queued == 0));
        assert_eq!(stats.cancelled, 5);
        registry.cancel(blocker);
        wait_done(&registry, blocker);
        registry.shutdown();
    }

    #[test]
    fn threads_are_clamped_to_workers_and_zero_is_rejected() {
        let registry =
            JobRegistry::start(ServerConfig { workers: 2, ..ServerConfig::default() }, None)
                .unwrap();
        let mut wide = spec("wide", 64);
        wide.threads = 64;
        let id = submit(&registry, wide).unwrap();
        assert_eq!(
            registry.job(id).unwrap().spec.threads,
            2,
            "threads clamp to the worker pool at admission"
        );
        let mut zero = spec("zero", 64);
        zero.threads = 0;
        match submit(&registry, zero) {
            Err(SubmitError::Invalid(msg)) => assert!(msg.contains("threads"), "{msg}"),
            other => panic!("zero threads must be Invalid, got {other:?}"),
        }
        wait_done(&registry, id);
        registry.shutdown();
    }

    #[test]
    fn duplicate_live_names_are_rejected() {
        let registry =
            JobRegistry::start(ServerConfig { workers: 1, ..ServerConfig::default() }, None)
                .unwrap();
        // Long enough that it cannot finish between the two submits.
        let id = submit(&registry, spec("dup", 400_000)).unwrap();
        let err = submit(&registry, spec("dup", 64)).unwrap_err();
        assert!(err.to_string().contains("dup"), "{err}");
        // Once the first is no longer live, the name is reusable.
        registry.cancel(id);
        wait_done(&registry, id);
        assert!(submit(&registry, spec("dup", 64)).is_ok());
        registry.shutdown();
    }

    #[test]
    fn quotas_and_unknown_tenants_reject_with_typed_errors() {
        let roster = TenantSet::parse(
            "[tenant]\nid = small\nmax_queued = 2\nmax_evals = 1000\n[tenant]\nid = big\n",
        )
        .unwrap();
        let registry = JobRegistry::start_with_tenants(
            ServerConfig { workers: 1, ..ServerConfig::default() },
            None,
            roster,
        )
        .unwrap();
        let as_tenant = |name: &str, budget: usize, tenant: &str| {
            let mut s = spec(name, budget);
            s.tenant = tenant.to_owned();
            s
        };
        // Hog the worker so "small" jobs stay queued.
        let blocker = submit(&registry, as_tenant("blocker", 1_000_000, "big")).unwrap();
        let _ = registry.events(blocker, 0, Duration::from_secs(10));
        let first = submit(&registry, as_tenant("s1", 100, "small")).unwrap();
        submit(&registry, as_tenant("s2", 100, "small")).unwrap();
        match submit(&registry, as_tenant("s3", 100, "small")) {
            Err(SubmitError::QuotaExceeded(msg)) => assert!(msg.contains("max_queued"), "{msg}"),
            other => panic!("third queued job must exceed max_queued, got {other:?}"),
        }
        // Eager cancel frees queue headroom immediately...
        registry.cancel(first);
        match submit(&registry, as_tenant("s4", 900, "small")) {
            // ...but submitted evals are a lifetime meter: 200 already
            // accepted + 900 > 1000.
            Err(SubmitError::QuotaExceeded(msg)) => assert!(msg.contains("max_evals"), "{msg}"),
            other => panic!("budget past max_evals must be rejected, got {other:?}"),
        }
        submit(&registry, as_tenant("s5", 100, "small")).expect("within both quotas");
        match submit(&registry, as_tenant("ghost", 64, "nobody")) {
            Err(SubmitError::UnknownTenant(msg)) => assert!(msg.contains("nobody"), "{msg}"),
            other => panic!("strict roster must reject unknown tenants, got {other:?}"),
        }
        let stats = registry.stats();
        let small = stats.tenants.iter().find(|t| t.id == "small").unwrap();
        assert_eq!(small.queued, 2);
        assert_eq!(small.evals_submitted, 300);
        registry.cancel(blocker);
        wait_done(&registry, blocker);
        registry.shutdown();
    }

    #[test]
    fn claim_next_honors_weights() {
        let mut state = RegState::default();
        for (tid, weight) in [("a", 3u64), ("b", 1)] {
            let mut tspec = TenantSpec::named(tid);
            tspec.weight = weight;
            state.tenants.insert(tid.to_owned(), TenantSched::new(tspec));
            state.rotation.push(tid.to_owned());
        }
        let mut next: JobId = 1;
        for tid in ["a", "b"] {
            for k in 0..8 {
                let mut s = spec(&format!("{tid}-{k}"), 64);
                s.tenant = tid.to_owned();
                let id = next;
                next += 1;
                state.tenants.get_mut(tid).unwrap().queue.push_back(id);
                state.jobs.insert(id, JobEntry::new(s, Arc::new(JobControl::new()), None, 0));
            }
        }
        // Claim 8 with a roomy pool, releasing each claim's threads so
        // admission never interferes: every 4-claim window must split
        // 3 "a" to 1 "b".
        let order: Vec<String> = (0..8)
            .map(|_| {
                let (_, claimed) = claim_next(&mut state, 64).expect("work is available");
                state.running_threads -= claimed.threads;
                claimed.tenant
            })
            .collect();
        let a_first = order[..4].iter().filter(|t| *t == "a").count();
        let a_second = order[4..].iter().filter(|t| *t == "a").count();
        assert_eq!((a_first, a_second), (3, 3), "{order:?}");
    }

    #[test]
    fn claim_next_respects_thread_budget_and_max_running() {
        let mut state = RegState::default();
        let mut capped = TenantSpec::named("capped");
        capped.max_running = Some(1);
        state.tenants.insert("capped".to_owned(), TenantSched::new(capped));
        state.rotation.push("capped".to_owned());
        let mut wide = spec("wide", 64);
        wide.tenant = "capped".to_owned();
        wide.threads = 2;
        let mut narrow = spec("narrow", 64);
        narrow.tenant = "capped".to_owned();
        state.jobs.insert(1, JobEntry::new(wide, Arc::new(JobControl::new()), None, 0));
        state.jobs.insert(2, JobEntry::new(narrow, Arc::new(JobControl::new()), None, 0));
        let sched = state.tenants.get_mut("capped").unwrap();
        sched.queue.push_back(1);
        sched.queue.push_back(2);
        // One of two worker threads is taken: the 2-thread head cannot
        // start, and FIFO means the narrow job behind it waits too.
        state.running_threads = 1;
        assert!(claim_next(&mut state, 2).is_none(), "head needs 2 threads, only 1 free");
        state.running_threads = 0;
        let (id, _) = claim_next(&mut state, 2).expect("whole pool is free");
        assert_eq!(id, 1);
        assert_eq!(state.running_threads, 2);
        // The narrow job now fits thread-wise once the pool frees, but
        // max_running = 1 holds it back until the wide job finishes.
        state.running_threads = 0;
        assert!(claim_next(&mut state, 2).is_none(), "max_running caps the tenant at 1");
        state.tenants.get_mut("capped").unwrap().running = 0;
        let (id, _) = claim_next(&mut state, 2).expect("slot freed");
        assert_eq!(id, 2);
    }

    #[test]
    fn metrics_exposition_covers_lifecycle_scheduler_and_process() {
        let registry =
            JobRegistry::start(ServerConfig { workers: 2, ..ServerConfig::default() }, None)
                .unwrap();
        let id = submit(&registry, spec("observed", 96)).unwrap();
        wait_done(&registry, id);
        let text = registry.render_metrics();
        let samples = digamma_obs::parse_text(&text).expect("exposition must parse");
        let completed = samples
            .iter()
            .find(|s| {
                s.name == "digamma_jobs_completed_total"
                    && s.label("tenant") == Some("default")
                    && s.label("status") == Some("done")
            })
            .expect("completed counter is exported per tenant and status");
        assert!(completed.value >= 1.0);
        for series in [
            "digamma_scheduler_claim_seconds_count",
            "digamma_job_queue_wait_seconds_count{tenant=\"default\"}",
            "digamma_job_run_seconds_count{tenant=\"default\"}",
            "digamma_journal_replayed_jobs_total 0",
            "digamma_process_uptime_seconds",
            "digamma_process_start_time_seconds",
            "digamma_process_info{",
            "digamma_jobs_queued 0",
            "digamma_workers 2",
            "digamma_cache_entries{cache=\"fitness\"}",
            "digamma_evals_total{tenant=\"default\"}",
        ] {
            assert!(text.contains(series), "missing {series} in:\n{text}");
        }
        let stats = registry.stats();
        assert!(stats.start_unix > 0);
        assert_eq!(stats.replayed_jobs, 0);
        registry.shutdown();
    }

    #[test]
    fn probe_metrics_count_each_probe_once() {
        let registry =
            JobRegistry::start(ServerConfig { workers: 1, ..ServerConfig::default() }, None)
                .unwrap();
        let id = submit(&registry, spec("probed", 96)).unwrap();
        let report = wait_done(&registry, id).report.expect("finished jobs report");
        let samples = digamma_obs::parse_text(&registry.render_metrics()).unwrap();
        let probes = |name: &str, result: &str| {
            let sample = samples
                .iter()
                .find(|s| {
                    s.name == name
                        && s.label("tenant") == Some("default")
                        && s.label("result") == Some(result)
                        && s.label("cache").is_none_or(|cache| cache == "fitness")
                })
                .unwrap_or_else(|| panic!("missing {name}{{result={result}}}"));
            sample.value as u64
        };
        assert!(report.cache_hits > 0 && report.genome_hits > 0, "{report:?}");
        assert_eq!(probes("digamma_cache_probes_total", "hit"), report.cache_hits);
        assert_eq!(probes("digamma_cache_probes_total", "miss"), report.cache_misses);
        assert_eq!(probes("digamma_genome_memo_probes_total", "hit"), report.genome_hits);
        assert_eq!(probes("digamma_genome_memo_probes_total", "miss"), report.genome_misses);
        registry.shutdown();
    }

    #[test]
    fn journal_replay_resubmits_unfinished_jobs() {
        let dir = std::env::temp_dir().join(format!("digamma-reg-journal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("jobs.journal");
        // First life: submit a job but shut down before it can finish
        // (zero-worker trick is impossible — workers min at 1 — so use a
        // long budget and shut down immediately; shutdown cancels
        // cooperatively without journaling a finish).
        let registry = JobRegistry::start(
            ServerConfig {
                workers: 1,
                checkpoint_dir: Some(dir.clone()),
                ..ServerConfig::default()
            },
            Some(journal.clone()),
        )
        .unwrap();
        let mut long = spec("revenant", 400_000);
        long.checkpoint_every = Some(1);
        let id = submit(&registry, long).unwrap();
        // Let it step at least once so a snapshot exists.
        let _ = registry.events(id, 0, Duration::from_secs(10));
        registry.shutdown();

        // Second life: the journal replays the unfinished job under the
        // same id and it picks up from its snapshot.
        let reborn = JobRegistry::start(
            ServerConfig {
                workers: 1,
                checkpoint_dir: Some(dir.clone()),
                ..ServerConfig::default()
            },
            Some(journal),
        )
        .unwrap();
        let view = reborn.job(id).expect("replayed under the same id");
        assert_eq!(reborn.stats().replayed_jobs, 1, "replay count reaches /stats");
        assert!(
            reborn.render_metrics().contains("digamma_journal_replayed_jobs_total 1"),
            "replay count reaches /metrics"
        );
        assert_eq!(view.name, "revenant");
        assert_eq!(view.spec.tenant, "default", "v1-era jobs replay as the default tenant");
        // Replayed budgets still count against the tenant's meter.
        let stats = reborn.stats();
        let tenant = stats.tenants.iter().find(|t| t.id == "default").unwrap();
        assert_eq!(tenant.evals_submitted, 400_000);
        // It resumed rather than restarting: the report (when the job
        // eventually finishes or is cancelled again) notes the resume
        // generation. Cancel to finish fast.
        let _ = reborn.events(id, 0, Duration::from_secs(10));
        reborn.cancel(id);
        let done = wait_done(&reborn, id);
        let report = done.report.unwrap();
        assert!(report.resumed_at.is_some(), "second life must resume from the snapshot");
        reborn.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn panicking_jobs_fail_cleanly_refund_and_spare_the_worker() {
        let config = ServerConfig { workers: 1, ..ServerConfig::default() };
        config.faults.configure("worker.eval=panic,once").unwrap();
        let registry = JobRegistry::start(config, None).unwrap();
        let doomed = submit(&registry, spec("doomed", 96)).unwrap();
        let view = wait_done(&registry, doomed);
        assert_eq!(view.status, JobStatus::Failed);
        assert!(view.report.is_none(), "a panicked job has no report");
        let (_, lines, done) = registry.events(doomed, 0, Duration::from_millis(100)).unwrap();
        assert!(done);
        assert_eq!(lines.last().unwrap(), "end status=failed");
        // The worker survived the panic: the next job runs to done.
        let phoenix = submit(&registry, spec("phoenix", 96)).unwrap();
        assert_eq!(wait_done(&registry, phoenix).status, JobStatus::Done);
        let stats = registry.stats();
        assert_eq!(stats.failed, 1);
        let tenant = stats.tenants.iter().find(|t| t.id == "default").unwrap();
        assert_eq!(tenant.failed, 1);
        // The doomed job panicked before evaluating anything, so its
        // whole budget refunds: both meters settle at phoenix's 96.
        assert_eq!(tenant.evals_submitted, 96);
        assert_eq!(tenant.evals_consumed, 96);
        let text = registry.render_metrics();
        let samples = digamma_obs::parse_text(&text).expect("exposition must parse");
        assert!(
            samples.iter().any(|s| s.name == "digamma_jobs_completed_total"
                && s.label("status") == Some("panicked")
                && s.value >= 1.0),
            "panicked status label missing in:\n{text}"
        );
        registry.shutdown();
    }

    #[test]
    fn drain_finishes_accepted_work_then_refuses_new() {
        let registry =
            JobRegistry::start(ServerConfig { workers: 1, ..ServerConfig::default() }, None)
                .unwrap();
        let a = submit(&registry, spec("drain-a", 96)).unwrap();
        let b = submit(&registry, spec("drain-b", 96)).unwrap();
        registry.drain(Duration::from_secs(60));
        assert_eq!(registry.job(a).unwrap().status, JobStatus::Done);
        assert_eq!(registry.job(b).unwrap().status, JobStatus::Done);
        match submit(&registry, spec("late", 64)) {
            Err(SubmitError::Unavailable(msg)) => assert!(msg.contains("retry"), "{msg}"),
            other => panic!("post-drain submits must be Unavailable, got {other:?}"),
        }
    }

    #[test]
    fn shed_watermark_answers_unavailable_and_counts() {
        let registry = JobRegistry::start(
            ServerConfig { workers: 1, shed_queue_depth: 2, ..ServerConfig::default() },
            None,
        )
        .unwrap();
        // Hog the worker so later submits stack up in the queue.
        let blocker = submit(&registry, spec("shed-blocker", 1_000_000)).unwrap();
        let _ = registry.events(blocker, 0, Duration::from_secs(10));
        submit(&registry, spec("shed-1", 64)).unwrap();
        submit(&registry, spec("shed-2", 64)).unwrap();
        match submit(&registry, spec("shed-3", 64)) {
            Err(SubmitError::Unavailable(msg)) => assert!(msg.contains("watermark"), "{msg}"),
            other => panic!("past the watermark must shed, got {other:?}"),
        }
        assert!(registry.render_metrics().contains("digamma_submits_shed_total 1"));
        registry.cancel(blocker);
        wait_done(&registry, blocker);
        registry.shutdown();
    }

    #[test]
    fn idempotent_submits_dedupe_across_retries_and_restarts() {
        let dir = std::env::temp_dir().join(format!("digamma-reg-idem-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("jobs.journal");
        // The first evaluation sleeps, so job 1 stays live through the
        // next two submits however fast the build runs it.
        let config = ServerConfig { workers: 1, ..ServerConfig::default() };
        config.faults.configure("worker.eval=delay:1000,once").unwrap();
        let registry = JobRegistry::start(config, Some(journal.clone())).unwrap();
        let keyed = |tenant| Submission {
            idempotency_key: Some("key-1"),
            tenant: Some(tenant),
            ..Submission::specs(vec![spec("idem", 96)])
        };
        let ids = registry.submit(keyed("default")).unwrap();
        // A retry with the same key returns the same ids; without the
        // dedupe it would collide on the live name.
        let again = registry.submit(keyed("default")).unwrap();
        assert_eq!(again, ids);
        // A different scope is a different key space: no dedupe, so the
        // live-name collision shows through.
        match registry.submit(keyed("other")) {
            Err(SubmitError::Invalid(msg)) => assert!(msg.contains("idem"), "{msg}"),
            other => panic!("a different scope must not dedupe, got {other:?}"),
        }
        assert_eq!(wait_done(&registry, ids[0]).status, JobStatus::Done);
        registry.shutdown();
        // Second life: the key replayed from the journal, so a retry
        // arriving after a restart still answers the original ids.
        let reborn = JobRegistry::start(
            ServerConfig { workers: 1, ..ServerConfig::default() },
            Some(journal),
        )
        .unwrap();
        let after = reborn.submit(keyed("default")).unwrap();
        assert_eq!(after, ids);
        reborn.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_failed_journal_append_answers_unavailable_and_a_retry_gets_the_same_ids() {
        let dir = std::env::temp_dir().join(format!("digamma-reg-append-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let config = ServerConfig { workers: 1, ..ServerConfig::default() };
        config.faults.configure("journal.append=err,once").unwrap();
        let registry = JobRegistry::start(config, Some(dir.join("jobs.journal"))).unwrap();
        let batch = || Submission::specs(vec![spec("first", 96), spec("second", 96)]);
        match registry.submit(batch()) {
            Err(SubmitError::Unavailable(msg)) => {
                assert!(msg.contains("journal append failed"), "{msg}")
            }
            other => panic!("a storage failure is retryable, not a bad manifest: {other:?}"),
        }
        assert!(registry.job(1).is_none(), "nothing was accepted");
        let submitted = registry.submit(batch()).expect("the retry lands");
        assert_eq!(*submitted, [1, 2], "the failed attempt issued no ids");
        for id in [1, 2] {
            assert_eq!(wait_done(&registry, id).status, JobStatus::Done);
        }
        registry.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    fn report(cancelled: bool) -> JobReport {
        JobReport {
            name: String::new(),
            algorithm: String::new(),
            best: None,
            samples: 64,
            generations: 7,
            resumed_at: None,
            cancelled,
            cache_hits: 0,
            cache_misses: 0,
            genome_hits: 0,
            genome_misses: 0,
            cache_insertions: 0,
            genome_insertions: 0,
            dedup_skipped: 0,
            wall: Duration::ZERO,
            queue_wait: Duration::ZERO,
            eval_wall: Duration::ZERO,
            checkpoint_wall: Duration::ZERO,
        }
    }

    /// One generation boundary's analytics: absolute counters `ops`,
    /// `stale_gens` generations since the last improvement.
    fn boundary(ops: OpCounters, stale_gens: u64) -> AnalyticsUpdate {
        let stats = digamma_obs::GenStats {
            generation: 1,
            evals: 16,
            best: 1.0,
            median: 2.0,
            mean: 2.0,
            worst: 3.0,
            feasible_frac: 1.0,
            diversity: 0.5,
            stale_gens,
        };
        AnalyticsUpdate { stats, ops, seed_points: None }
    }

    fn counters(k: u64) -> OpCounters {
        let mut ops = OpCounters::new();
        for (i, kind) in digamma_obs::OpKind::ALL.into_iter().enumerate() {
            let c = ops.get_mut(kind);
            c.attempted = k * 7 + i as u64;
            c.improved = k * 3 + i as u64 / 2;
            c.incumbents = k % 4;
        }
        ops
    }

    /// Accepts a job as `submit` does: the next id, onto its queue.
    fn accept(state: &mut RegState, name: &str, tenant: &str) -> JobId {
        let mut s = spec(name, 64);
        s.tenant = tenant.to_owned();
        let id = state.next_id;
        state.next_id += 1;
        state.enqueue(id, JobEntry::new(s, Arc::new(JobControl::new()), None, 0));
        id
    }

    /// Claims the next job as a worker does.
    fn claim(state: &mut RegState) -> JobId {
        let (id, _) = claim_next(state, 64).expect("work is available");
        state.busy_workers += 1;
        id
    }

    #[test]
    fn event_ring_drops_oldest_and_reports_resume_offset() {
        // Capacity 4: a 20-generation job must overflow the ring, and
        // a late subscriber asking from 0 must land at the oldest
        // retained sequence instead of replaying everything.
        const EVENTS: usize = 4;
        let mut state = RegState::default();
        let id = accept(&mut state, "ring", "default");
        assert_eq!(claim(&mut state), id);
        for generation in 1..=20 {
            let progress = JobProgress {
                generation,
                samples: 8 * generation as usize,
                budget: 160,
                best_cost: None,
            };
            state.record_generation(id, progress, None, EVENTS);
        }
        assert!(state.finish(id, Some(report(false)), EVENTS).unwrap().terminal);
        let entry = state.entry(id).expect("held");
        let (first_seq, lines) = entry.events_from(0);
        assert!(entry.events_done);
        assert_eq!(lines.len(), 4, "ring retains exactly its capacity");
        assert!(first_seq > 0, "late subscriber must see the drop offset");
        assert_eq!(lines.last().unwrap(), "end status=done", "terminal line survives");
        // Resuming from a retained offset yields exactly the tail.
        let (seq2, tail) = entry.events_from(first_seq + 2);
        assert_eq!(seq2, first_seq + 2);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail, lines[2..].to_vec());
        // Asking exactly at the end of a finished stream returns no lines.
        let (_, empty) = entry.events_from(first_seq + 4);
        assert!(entry.events_done && empty.is_empty());
    }

    #[test]
    fn retention_holds_live_jobs_while_counters_keep_every_end() {
        const BOUND: usize = 8;
        const EVENTS: usize = 16;
        // As `start_with_tenants` leaves it after replaying job 42, with
        // this life's ids issued from 100 on. Tenant "parked" may run
        // nothing, so its job stays queued.
        let mut state = RegState {
            next_id: 100,
            first_submitted: 100,
            replayed: vec![42],
            ..RegState::default()
        };
        let mut parked = TenantSpec::named("parked");
        parked.max_running = Some(0);
        for tspec in [TenantSpec::named("a"), TenantSpec::named("b"), parked] {
            state.rotation.push(tspec.id.clone());
            state.tenants.insert(tspec.id.clone(), TenantSched::new(tspec));
        }
        // (done, cancelled, failed) per tenant, and Σ operator counters.
        let mut want: BTreeMap<&str, (usize, usize, usize)> = BTreeMap::new();
        let mut want_ops = OpCounters::new();

        let mut replayed = spec("revenant", 64);
        replayed.tenant = "a".to_owned();
        state.enqueue(42, JobEntry::new(replayed, Arc::new(JobControl::new()), None, 0));
        assert_eq!(claim(&mut state), 42);
        assert!(state.finish(42, Some(report(false)), EVENTS).unwrap().terminal);
        want.entry("a").or_default().0 += 1;

        let runner = accept(&mut state, "runner", "a");
        assert_eq!(claim(&mut state), runner);
        state.record_analytics(runner, boundary(counters(5), STALL_AFTER), EVENTS);
        want_ops.merge(&counters(5));
        let queued = accept(&mut state, "queued", "parked");
        // A shutdown's stop: cancelled, but not by a user.
        let stopped = accept(&mut state, "stopped", "b");
        assert_eq!(claim(&mut state), stopped);
        assert!(!state.finish(stopped, Some(report(true)), EVENTS).unwrap().terminal);
        want.entry("b").or_default().1 += 1;
        let unretirable = [runner, queued, stopped];

        let mut first_loop_id = None;
        for k in 0..3 * BOUND as u64 + 5 {
            let tenant = if k % 2 == 0 { "a" } else { "b" };
            let id = accept(&mut state, &format!("job-{k}"), tenant);
            first_loop_id.get_or_insert(id);
            let slot = want.entry(tenant).or_default();
            if k % 4 == 0 {
                assert_eq!(state.cancel(id, EVENTS), Some((JobStatus::Cancelled, true)));
                slot.1 += 1;
            } else {
                assert_eq!(claim(&mut state), id);
                // Counters are absolute: only the latest update counts.
                state.record_analytics(id, boundary(counters(k / 2), 0), EVENTS);
                state.record_analytics(id, boundary(counters(k), STALL_AFTER + k), EVENTS);
                want_ops.merge(&counters(k));
                let report = match k % 4 {
                    1 => {
                        slot.0 += 1;
                        Some(report(false))
                    }
                    2 => {
                        assert_eq!(state.cancel(id, EVENTS), Some((JobStatus::Running, false)));
                        slot.1 += 1;
                        Some(report(true))
                    }
                    _ => {
                        slot.2 += 1;
                        None
                    }
                };
                assert!(state.finish(id, report, EVENTS).unwrap().terminal);
            }
            drop(state.retire(BOUND));
            assert!(state.jobs.len() <= BOUND + unretirable.len(), "{} held", state.jobs.len());
            for held in unretirable {
                assert!(state.jobs.contains_key(&held), "job {held} retired at k = {k}");
            }
        }
        assert_eq!(state.jobs.len(), BOUND + unretirable.len());

        let stats = state.stats();
        for tenant in &stats.tenants {
            let (done, cancelled, failed) =
                want.get(tenant.id.as_str()).copied().unwrap_or_default();
            assert_eq!((tenant.done, tenant.cancelled, tenant.failed), (done, cancelled, failed));
        }
        let sum =
            |pick: fn(&(usize, usize, usize)) -> usize| want.values().map(pick).sum::<usize>();
        assert_eq!(stats.done, sum(|w| w.0));
        assert_eq!(stats.cancelled, sum(|w| w.1));
        assert_eq!(stats.failed, sum(|w| w.2));
        assert_eq!(stats.operators, want_ops, "retired jobs keep their operator counts");
        assert_eq!((stats.queued, stats.running, stats.stalled), (1, 1, 1));
        assert_eq!((stats.busy_workers, stats.running_threads), (1, 1));

        assert!(state.name_is_live("runner") && state.name_is_live("queued"));
        assert!(!state.name_is_live("job-0") && !state.name_is_live("stopped"));
        assert!(state.entry(runner).is_ok());
        assert_eq!(state.entry(42).err(), Some(JobMissing::Expired), "replayed, then retired");
        assert_eq!(state.entry(first_loop_id.unwrap()).err(), Some(JobMissing::Expired));
        assert_eq!(state.entry(41).err(), Some(JobMissing::Unknown), "never held");
        assert_eq!(state.entry(state.next_id).err(), Some(JobMissing::Unknown), "not issued");
    }
}
