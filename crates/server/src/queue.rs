//! The job queue and worker pool: many searches, one machine.
//!
//! [`SearchServer::run`] drains a batch of [`JobSpec`]s across a pool of
//! scoped worker threads (built on [`digamma::scoped_workers`], the same
//! `std::thread::scope` infrastructure that parallelizes fitness
//! evaluation). All jobs share one [`ShardedFitnessCache`], so a request
//! for a model another job already explored — or a re-submitted search —
//! skips straight to memoized cost-model results; per-job
//! [`JobMemo`] windows keep each report's hit/miss counters honest.
//!
//! GA jobs additionally checkpoint: with a checkpoint directory
//! configured, the server snapshots every few generations, and a
//! re-submitted job whose snapshot survives resumes bit-identically
//! instead of starting over. A job's first snapshot is written before
//! its search continues; later ones go to the server's one background
//! writer, so the worker renders them and moves on.

use crate::cache::{CacheStats, JobMemo, ShardedFitnessCache, ShardedGenomeMemo, ShardedMemo};
use crate::cachefile;
use crate::job::{JobAlgorithm, JobReport, JobSpec};
use crate::sealed;
use crate::snapshot::Snapshot;
use digamma::{
    run_algorithm, scoped_workers, CoOptProblem, DiGamma, DiGammaConfig, EvalHooks, Gamma,
    GammaConfig, Memo, SearchResult, SearchState, StepAction, StepObserver,
};
use digamma_obs::{
    Counter, FailSet, GenStats, Histogram, JobTrace, LogLevel, MetricsRegistry, OpCounters,
    SpanContext, Tracer, DEFAULT_LATENCY_BUCKETS,
};
use std::collections::VecDeque;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Snapshot cadence in generations for a GA job whose spec sets no
/// `checkpoint_every`.
const DEFAULT_CHECKPOINT_EVERY: u64 = 8;

/// Server-wide knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Concurrent worker threads draining the job queue.
    pub workers: usize,
    /// Total fitness-cache capacity in memoized per-layer reports;
    /// `0` runs the server cache-less.
    pub cache_capacity: usize,
    /// Whole-genome memo capacity in memoized design evaluations; `0`
    /// disables the genome layer (the per-layer cache still applies).
    pub genome_cache_capacity: usize,
    /// Where GA jobs write checkpoints; `None` disables checkpointing
    /// (and with it the fitness-memo disk spill).
    pub checkpoint_dir: Option<PathBuf>,
    /// Load-shed watermark: total jobs the tenant queues may hold
    /// before new submissions are rejected as retryable back-pressure
    /// (the wire layer answers 503 + `Retry-After`). `0` disables
    /// shedding.
    pub shed_queue_depth: usize,
    /// The failpoint set every failure domain under this server
    /// consults: journal appends, snapshot/spill writes, worker evals
    /// (the wire layer shares it for socket faults). Defaults to a
    /// fresh inactive set — one relaxed load per site — and is armed by
    /// `digamma-netd --failpoints` or a test.
    pub faults: Arc<FailSet>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: digamma::default_threads(),
            cache_capacity: 256 * 1024,
            genome_cache_capacity: 64 * 1024,
            checkpoint_dir: None,
            shed_queue_depth: 0,
            faults: Arc::new(FailSet::new()),
        }
    }
}

/// A per-generation progress observation from a running GA job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobProgress {
    /// Completed generations.
    pub generation: u64,
    /// Design points evaluated so far.
    pub samples: usize,
    /// The job's total sample budget.
    pub budget: usize,
    /// Best feasible cost found so far, if any.
    pub best_cost: Option<f64>,
}

impl JobProgress {
    /// The one-line wire/log form streamed to clients:
    /// `gen=<g> samples=<s>/<budget> best=<cost|none>`.
    pub fn line(&self) -> String {
        let best = match self.best_cost {
            Some(c) => format!("{c:.6e}"),
            None => "none".to_owned(),
        };
        format!("gen={} samples={}/{} best={}", self.generation, self.samples, self.budget, best)
    }
}

/// One generation boundary's search telemetry, forwarded from the GA to
/// the job's generation sink (the registry pushes it into the job's
/// [`GenStats`] ring and keeps the attribution counters current).
/// `ops` is the job's *cumulative absolute* attribution — after a
/// resume it already includes the pre-kill half restored from the
/// snapshot, so consumers tracking deltas must diff against their last
/// seen absolutes rather than assume a fresh zero.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyticsUpdate {
    /// The boundary's per-generation statistics.
    pub stats: GenStats,
    /// Cumulative per-operator attribution counters, absolute.
    pub ops: OpCounters,
    /// On the *first* boundary of a run only: the full
    /// cost-vs-evaluations history so far — the generation-0 point for
    /// a fresh search, or the restored pre-kill curve after a resume.
    /// `None` on every later boundary (the receiver extends its curve
    /// from `stats` alone).
    pub seed_points: Option<Vec<digamma_obs::CostPoint>>,
}

/// What a job's control hands each generation boundary: the job's
/// progress and, when the GA produced one, the boundary's analytics.
type GenerationSink = dyn Fn(JobProgress, Option<AnalyticsUpdate>) + Send + Sync;

/// External handles into a running job: a cooperative cancellation flag
/// (checked at generation boundaries) and an optional per-generation
/// sink.
#[derive(Default)]
pub struct JobControl {
    cancel: AtomicBool,
    sink: Option<Box<GenerationSink>>,
    /// The job's place in the span store, whose parent is the claim
    /// span its run nests under. Stamped by the registry's worker at
    /// claim time, read by [`SearchServer::run_job_controlled`].
    trace: Mutex<Option<JobTrace>>,
}

impl JobControl {
    /// A control that never cancels and reports nowhere.
    pub fn new() -> JobControl {
        JobControl::default()
    }

    /// Attaches the per-generation sink, called once per stepped
    /// generation with the job's [`JobProgress`] and, when the GA
    /// produced one, the boundary's [`AnalyticsUpdate`] (its
    /// [`GenStats`] and the cumulative operator counters).
    pub fn with_generation_sink(
        mut self,
        sink: impl Fn(JobProgress, Option<AnalyticsUpdate>) + Send + Sync + 'static,
    ) -> JobControl {
        self.sink = Some(Box::new(sink));
        self
    }

    /// Requests cooperative cancellation: the job stops at its next
    /// generation boundary, snapshotting first when checkpointing is on.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }

    /// Stamps the job's trace: the run is traced under `trace.parent`
    /// (normally the claim span recorded by the registry worker), in
    /// `trace.job`'s lane. A handle without a parent traces nothing.
    pub fn set_trace(&self, trace: JobTrace) {
        *self.trace.lock().expect("trace slot poisoned") = Some(trace);
    }

    /// The stamped trace, if any.
    pub fn trace(&self) -> Option<JobTrace> {
        self.trace.lock().expect("trace slot poisoned").clone()
    }

    fn report(&self, progress: JobProgress, analytics: Option<AnalyticsUpdate>) {
        if let Some(sink) = &self.sink {
            sink(progress, analytics);
        }
    }
}

impl fmt::Debug for JobControl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobControl")
            .field("cancel", &self.is_cancelled())
            .field("sink", &self.sink.as_ref().map(|_| "fn"))
            .finish()
    }
}

/// The long-running search service: a shared fitness memo (per-layer
/// and whole-genome layers) plus a worker pool that schedules submitted
/// jobs.
#[derive(Debug)]
pub struct SearchServer {
    config: ServerConfig,
    cache: Option<Arc<ShardedFitnessCache>>,
    genome_memo: Option<Arc<ShardedGenomeMemo>>,
    /// The fitness-memo spill file (`<checkpoint_dir>/fitness-memo.cache`)
    /// when both checkpointing and caching are on.
    cache_file: Option<PathBuf>,
    /// What the spill file holds. The lock also serializes spills:
    /// concurrent finishing jobs must not interleave their writes.
    spill: Mutex<SpillLog>,
    /// The server's metric store. Everything downstream — the net
    /// front-end, the job registry, per-job eval metrics — records into
    /// this one registry, so one render covers the whole stack.
    metrics: Arc<MetricsRegistry>,
    /// The server's span store. Request spans, job-lifecycle spans, and
    /// sampled eval spans all record here, so one trace id walks a
    /// request end to end.
    tracer: Tracer,
    /// Writes every snapshot after a job's first, off the job's worker.
    snapshots: SnapshotWriter,
}

impl SearchServer {
    /// Builds a server (allocating its shared caches up front). With a
    /// checkpoint directory configured, the fitness memo **warm-starts**
    /// from the previous life's spill file — damaged records are
    /// skipped, and an unreadable or version-stale file degrades to a
    /// cold start.
    pub fn new(config: ServerConfig) -> SearchServer {
        let cache = (config.cache_capacity > 0)
            .then(|| Arc::new(ShardedFitnessCache::new(config.cache_capacity)));
        let genome_memo = (config.genome_cache_capacity > 0)
            .then(|| Arc::new(ShardedGenomeMemo::new(config.genome_cache_capacity)));
        let cache_file = match (&config.checkpoint_dir, &cache) {
            (Some(dir), Some(_)) => Some(dir.join("fitness-memo.cache")),
            _ => None,
        };
        let metrics = Arc::new(MetricsRegistry::new());
        let server = SearchServer {
            snapshots: SnapshotWriter::new(Arc::clone(&config.faults), Arc::clone(&metrics)),
            config,
            cache,
            genome_memo,
            cache_file,
            spill: Mutex::new(SpillLog { insertions: 0, file: SpillFile::Absent }),
            metrics,
            tracer: Tracer::new(),
        };
        server.warm_start();
        server
    }

    /// The server's metric registry (shared with the registry and the
    /// network front-end, so one `/metrics` render covers the stack).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// The server's span store (shared with the registry and the
    /// network front-end, so request and job spans land in one store).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The failpoint set this server's failure domains consult (shared
    /// with the registry's journal and the network front-end).
    pub fn faults(&self) -> &Arc<FailSet> {
        &self.config.faults
    }

    /// Loads the spill file (if any) into the fresh cache, and decides
    /// how the next spill writes: appending to a clean file, or
    /// compacting one that holds records the memo did not keep.
    fn warm_start(&self) {
        let (Some(path), Some(cache)) = (&self.cache_file, &self.cache) else { return };
        let load =
            cachefile::load_cache_file(path, Arc::new, |key, report| cache.store(key, report));
        if load.skipped > 0 {
            digamma_obs::log::global().log(
                LogLevel::Warn,
                "server",
                None,
                "fitness memo warm start skipped corrupt records",
                &[
                    ("path", path.display().to_string()),
                    ("loaded", load.loaded.to_string()),
                    ("skipped", load.skipped.to_string()),
                ],
            );
        }
        // Everything loaded is already on disk.
        cache.mark_all_spilled();
        let mut log = self.spill.lock().expect("spill lock poisoned");
        log.insertions = cache.stats().insertions;
        log.file = if load.loaded == 0 {
            SpillFile::Absent
        } else if load.skipped > 0 || cache.len() != load.loaded {
            // Damaged, duplicate or evicted records: a rewrite drops them.
            SpillFile::Stale
        } else {
            SpillFile::Base { appended: load.appended }
        };
    }

    /// New insertions a *cadence* spill waits for before writing. A
    /// spill appends only what was memoized since the last one, but each
    /// pays an fsync on the searching thread, so mid-search spills
    /// amortize: a long job spills only per this many new memoizations,
    /// while job completion and shutdown spill on any dirt at all.
    const SPILL_CADENCE_MIN_INSERTIONS: u64 = 4096;

    /// Spills the fitness memo to its file when new entries were
    /// memoized since the last spill, or a compaction is pending. Called
    /// at job completion and registry shutdown; cheap when clean (a
    /// counter check, no I/O). Errors are swallowed — a spill is an
    /// optimization, never worth failing a search over.
    pub fn spill_cache_if_dirty(&self) {
        self.spill_cache(1);
    }

    /// Spills once at least `min_new_insertions` (minimum 1) entries
    /// were memoized since the last spill, or at once when the file holds
    /// records a rewrite must drop, and returns when the spill started
    /// when one happened (so callers can trace only real writes, not
    /// clean-exit no-ops).
    ///
    /// A spill appends the entries inserted since the last one. It
    /// writes a fresh base of the whole resident memo instead — the
    /// compaction — when the file has no base to append to, when it
    /// holds stale records, or when the records appended since its base
    /// would exceed `cache_capacity`.
    fn spill_cache(&self, min_new_insertions: u64) -> Option<Instant> {
        let (Some(path), Some(cache)) = (&self.cache_file, &self.cache) else { return None };
        let mut log = self.spill.lock().expect("spill lock poisoned");
        let insertions = cache.stats().insertions;
        let since_last = insertions.saturating_sub(log.insertions);
        if log.file != SpillFile::Stale && since_last < min_new_insertions.max(1) {
            return None;
        }
        let spill_started = Instant::now();
        let appendable = match log.file {
            SpillFile::Base { appended } => Some(appended),
            SpillFile::Absent | SpillFile::Stale => None,
        };
        let (mut entries, mut mark) = cache.unspilled(appendable.is_none());
        let append_to = appendable
            .map(|appended| appended + entries.len())
            .filter(|&appended| appended <= self.config.cache_capacity);
        if append_to.is_none() && appendable.is_some() {
            (entries, mark) = cache.unspilled(true);
        }
        let faults = &self.config.faults;
        let written = match append_to {
            // Everything new was evicted, or an earlier spill took it.
            Some(appended) if entries.is_empty() => Ok(SpillFile::Base { appended }),
            Some(appended) => cachefile::append_cache_file(path, &entries, faults)
                .map(|()| SpillFile::Base { appended }),
            None => cachefile::write_cache_file(path, &entries, faults)
                .map(|()| SpillFile::Base { appended: 0 }),
        };
        match written {
            Ok(file) => {
                cache.mark_spilled(&mark);
                log.file = file;
                log.insertions = insertions;
            }
            Err(e) => {
                // A failed compaction loses nothing but warmth: the
                // atomic-rename discipline keeps the previous good file.
                // A failed append may leave a torn record, so the next
                // spill compacts. Either way the watermark stays put and
                // the next spill retries these entries.
                if append_to.is_some() {
                    log.file = SpillFile::Stale;
                }
                digamma_obs::log::global().log(
                    LogLevel::Warn,
                    "server",
                    None,
                    "cache spill failed; earlier spills retained",
                    &[("path", path.display().to_string()), ("err", e.to_string())],
                );
            }
        }
        self.metrics
            .histogram(
                "digamma_cache_spill_seconds",
                "Wall time of fitness-memo disk spills (serialize + write).",
                &[],
                DEFAULT_LATENCY_BUCKETS,
            )
            .observe_duration(spill_started.elapsed());
        Some(spill_started)
    }

    /// The active configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Counters of the shared cache (`None` when running cache-less).
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| c.stats())
    }

    /// Counters of the whole-genome memo (`None` when disabled).
    pub fn genome_memo_stats(&self) -> Option<CacheStats> {
        self.genome_memo.as_ref().map(|c| c.stats())
    }

    /// Runs every job to completion and returns reports in submission
    /// order. Jobs are independent; a panicking job propagates after the
    /// remaining workers finish (scoped threads join on exit).
    pub fn run(&self, jobs: &[JobSpec]) -> Vec<JobReport> {
        let queue: Mutex<VecDeque<(usize, &JobSpec)>> =
            Mutex::new(jobs.iter().enumerate().collect());
        let results: Mutex<Vec<Option<JobReport>>> = Mutex::new(vec![None; jobs.len()]);
        let workers = self.config.workers.min(jobs.len()).max(1);
        scoped_workers(workers, |_| loop {
            let Some((index, spec)) = queue.lock().expect("job queue poisoned").pop_front() else {
                break;
            };
            let report = self.run_job(spec);
            results.lock().expect("job results poisoned")[index] = Some(report);
        });
        results
            .into_inner()
            .expect("job results poisoned")
            .into_iter()
            .map(|r| r.expect("every queued job reports"))
            .collect()
    }

    /// Runs one job inline on the calling thread (the worker body).
    pub fn run_job(&self, spec: &JobSpec) -> JobReport {
        self.run_job_controlled(spec, &JobControl::new())
    }

    /// Runs one job under external control: `control`'s generation sink
    /// is invoked at every generation boundary, and its cancellation flag
    /// stops the job cooperatively at the next boundary (snapshotting
    /// first when checkpointing is on, so the partial search is
    /// resumable and its best-so-far design survives in the report).
    pub fn run_job_controlled(&self, spec: &JobSpec, control: &JobControl) -> JobReport {
        let started = Instant::now();
        let tenant = spec.tenant.as_str();
        let cache = self.cache.as_ref().map(|shared| {
            self.job_memo(shared, "fitness", |result| {
                self.metrics.counter(
                    "digamma_cache_probes_total",
                    "Cache probes by cache layer, result, and tenant.",
                    &[("cache", "fitness"), ("result", result), ("tenant", tenant)],
                )
            })
        });
        let genome_memo = self.genome_memo.as_ref().map(|shared| {
            self.job_memo(shared, "genome", |result| {
                self.metrics.counter(
                    "digamma_genome_memo_probes_total",
                    "Whole-genome memo probes by result.",
                    &[("tenant", tenant), ("result", result)],
                )
            })
        });
        let mut problem =
            CoOptProblem::new(spec.model.clone(), spec.platform.clone(), spec.objective);
        if let Some(cache) = &cache {
            problem = problem.with_cache(Arc::clone(cache) as _);
        }
        if let Some(genome_memo) = &genome_memo {
            problem = problem.with_genome_memo(Arc::clone(genome_memo) as _);
        }

        // With a claim stamped on the control, the whole run nests under
        // it: one `job.run` span covering the search, and under that the
        // observer's `job.generation`/`job.checkpoint`/`cache.spill` and
        // the hooks' sampled eval spans, all recorded through one handle
        // in the job's Perfetto lane.
        let run = control.trace().and_then(|claim| {
            let parent = SpanContext { trace: claim.trace, span: claim.parent? };
            let mut span = claim.tracer.start_child("job.run", parent);
            span.set_job(claim.job);
            span.set_attr("name", spec.name.clone());
            span.set_attr("algorithm", spec.algorithm.to_string());
            let run = span.context()?;
            Some((span, JobTrace { parent: Some(run.span), ..claim }))
        });
        let (mut run_span, run_trace) = run.unzip();
        // The `worker.eval` failpoint rides the same hooks; disarmed
        // (the default) it costs one relaxed load per generation batch.
        let problem = problem.with_hooks(Arc::new(EvalHooks::new(
            &self.metrics,
            tenant,
            run_trace.clone(),
            Arc::clone(&self.config.faults),
        )));

        let outcome = match spec.algorithm {
            JobAlgorithm::DiGamma => {
                let ga = DiGamma::new(DiGammaConfig {
                    population_size: spec.population_size,
                    seed: spec.seed,
                    threads: spec.threads,
                    ..Default::default()
                });
                self.drive_ga(spec, &ga, &problem, control, run_trace.as_ref())
            }
            JobAlgorithm::Gamma(preset) => {
                let hw = preset.build(&spec.platform, problem.evaluator().area_model());
                let gamma = Gamma::new(GammaConfig {
                    population_size: spec.population_size,
                    seed: spec.seed,
                    threads: spec.threads,
                    ..Default::default()
                });
                // The constrained clone shares `problem`'s dedupe
                // counter, so the report below reads it transparently.
                let (constrained, ga) = gamma.searcher(&problem, &hw);
                self.drive_ga(spec, &ga, &constrained, control, run_trace.as_ref())
            }
            JobAlgorithm::Baseline(alg) => {
                // Ask/tell baselines run to completion; cancellation is
                // only honoured before they start.
                if control.is_cancelled() {
                    GaOutcome::finished(
                        SearchResult { best: None, history: Vec::new(), samples: 0 },
                        true,
                    )
                } else {
                    GaOutcome::finished(run_algorithm(alg, &problem, spec.budget, spec.seed), false)
                }
            }
        };

        // The job just memoized its work; persist it so a restart keeps
        // it (cheap no-op when nothing new was inserted).
        self.spill_cache_if_dirty();

        if let Some(span) = &mut run_span {
            span.set_attr("generations", outcome.generations.to_string());
            span.set_attr("samples", outcome.result.samples.to_string());
            if outcome.cancelled {
                span.set_attr("cancelled", "true");
            }
        }
        drop(run_span);

        JobReport {
            name: spec.name.clone(),
            algorithm: spec.algorithm.to_string(),
            best: outcome.result.best,
            samples: outcome.result.samples,
            generations: outcome.generations,
            resumed_at: outcome.resumed_at,
            cancelled: outcome.cancelled,
            cache_hits: cache.as_ref().map_or(0, |m| m.hits()),
            cache_misses: cache.as_ref().map_or(0, |m| m.misses()),
            cache_insertions: cache.as_ref().map_or(0, |m| m.insertions()),
            genome_hits: genome_memo.as_ref().map_or(0, |m| m.hits()),
            genome_misses: genome_memo.as_ref().map_or(0, |m| m.misses()),
            genome_insertions: genome_memo.as_ref().map_or(0, |m| m.insertions()),
            dedup_skipped: problem.batch_dedup_skipped(),
            wall: started.elapsed(),
            queue_wait: Duration::ZERO,
            eval_wall: problem.eval_wall(),
            checkpoint_wall: outcome.checkpoint_wall,
        }
    }

    /// Opens a job's window onto one shared memo layer: `probes(result)`
    /// resolves the layer's tenant-labelled hit/miss counter, and probe
    /// latency lands in `digamma_cache_probe_seconds{cache}`.
    fn job_memo<V>(
        &self,
        shared: &Arc<ShardedMemo<V>>,
        cache: &str,
        probes: impl Fn(&str) -> Counter,
    ) -> Arc<JobMemo<V>> {
        let probe_seconds = self.metrics.histogram(
            "digamma_cache_probe_seconds",
            "Cache probe latency by cache layer, sampled 1 in 16 probes.",
            &[("cache", cache)],
            DEFAULT_LATENCY_BUCKETS,
        );
        Arc::new(JobMemo::new(Arc::clone(shared), probes("hit"), probes("miss"), probe_seconds))
    }

    /// Steps a GA job to completion, checkpointing at the configured
    /// cadence and resuming from a surviving snapshot of the *same* job
    /// (identity checked by fingerprint; a stale or foreign snapshot is
    /// ignored and the search starts over). The checkpoint is removed
    /// when the job completes — but kept when the job is cancelled, so a
    /// cancelled search can resume later.
    ///
    /// Before reading a snapshot the drive waits for any queued or
    /// running write or removal of its path, which a predecessor of the
    /// same name (one that panicked mid-search, say) may have left.
    /// Completion queues the file's removal on the writer in place of a
    /// queued write, so the removal follows any running write and the
    /// worker waits for neither.
    fn drive_ga(
        &self,
        spec: &JobSpec,
        ga: &DiGamma,
        problem: &CoOptProblem,
        control: &JobControl,
        run_trace: Option<&JobTrace>,
    ) -> GaOutcome {
        let path = self.checkpoint_path(spec);
        let fingerprint = spec.fingerprint();
        let mut resumed_at = None;
        let mut checkpoint_wall = Duration::ZERO;
        let restored = path
            .as_ref()
            .and_then(|p| {
                checkpoint_wall += self.snapshots.settle(p, false);
                sealed::read(p).ok()
            })
            .and_then(|text| Snapshot::parse(&text).ok())
            .and_then(|snap| snap.restore(ga, problem, &fingerprint).ok());
        let mut state = match restored {
            Some(state) => {
                resumed_at = Some(state.generation());
                state
            }
            None => ga.init(problem, spec.budget),
        };
        let every = spec.checkpoint_every.unwrap_or(DEFAULT_CHECKPOINT_EVERY).max(1);
        let mut observer = DriveObserver {
            server: self,
            path: path.as_deref(),
            fingerprint: &fingerprint,
            every,
            control,
            cancelled: false,
            wrote_first: false,
            checkpoint_wall,
            checkpoint_seconds: checkpoint_write_seconds(&self.metrics),
            generation_seconds: self.metrics.histogram(
                "digamma_generation_seconds",
                "Wall time between GA generation boundaries.",
                &[("tenant", &spec.tenant)],
                DEFAULT_LATENCY_BUCKETS,
            ),
            last_boundary: Instant::now(),
            run_trace,
            analytics_seeded: false,
        };
        ga.run_observed(problem, &mut state, spec.budget, &mut observer);
        let cancelled = observer.cancelled;
        if !cancelled {
            if let Some(p) = &path {
                self.snapshots.queue(p, None);
            }
        }
        let generations = state.generation();
        GaOutcome {
            result: state.into_result(),
            generations,
            resumed_at,
            cancelled,
            checkpoint_wall: observer.checkpoint_wall,
        }
    }

    /// The snapshot file for a job, when checkpointing is on and the
    /// algorithm supports it. The filename is a readable sanitized
    /// prefix plus a stable hash of the *raw* name, so distinct job
    /// names that sanitize alike (`"exp 1"` / `"exp.1"`) can never
    /// share — and clobber — one checkpoint file.
    pub fn checkpoint_path(&self, spec: &JobSpec) -> Option<PathBuf> {
        if !spec.algorithm.supports_checkpointing() {
            return None;
        }
        let dir = self.config.checkpoint_dir.as_ref()?;
        let safe: String = spec
            .name
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '-' })
            .collect();
        let mut hasher = digamma_costmodel::StableHasher::new();
        hasher.write_bytes(spec.name.as_bytes());
        Some(dir.join(format!("{safe}-{:08x}.snapshot", hasher.finish() as u32)))
    }
}

/// What the fitness-memo spill file holds, which decides how the next
/// spill writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SpillFile {
    /// No base a spill can append to: no file, or one that loaded
    /// nothing (stale, unreadable or empty). The next spill with new
    /// entries writes a base.
    Absent,
    /// A clean base plus `appended` records: spills append.
    Base { appended: usize },
    /// Records the memo did not keep — damaged, duplicate or evicted at
    /// warm start, or a torn append. The next spill compacts, even with
    /// nothing new memoized.
    Stale,
}

/// The spill bookkeeping [`SearchServer::spill_cache`] keeps under its
/// lock.
#[derive(Debug)]
struct SpillLog {
    /// The memo's `insertions` counter at the last spill; a spill is
    /// skipped while nothing new was memoized.
    insertions: u64,
    file: SpillFile,
}

/// The `digamma_checkpoint_write_seconds` histogram.
fn checkpoint_write_seconds(metrics: &MetricsRegistry) -> Histogram {
    metrics.histogram(
        "digamma_checkpoint_write_seconds",
        "Wall time of snapshot writes (temporary file, fsync, rename), on a job's worker or the \
         background snapshot writer.",
        &[],
        DEFAULT_LATENCY_BUCKETS,
    )
}

/// Writes the snapshot `text` to `path` and times the write into
/// `seconds`. An atomic replace: a kill or power cut mid-write never
/// destroys the previous good snapshot or promotes a half-written new
/// one. The rename is not made durable (see `crate::sealed`). Failures
/// (including the injected `snapshot.write` faults) keep the old
/// snapshot and warn.
fn write_snapshot(path: &Path, text: &str, faults: &FailSet, seconds: &Histogram) {
    let started = Instant::now();
    if let Err(e) = sealed::replace(path, text.as_bytes(), faults, "snapshot.write") {
        digamma_obs::log::global().log(
            LogLevel::Warn,
            "server",
            None,
            "checkpoint write failed; previous snapshot retained",
            &[("path", path.display().to_string()), ("err", e.to_string())],
        );
    }
    seconds.observe_duration(started.elapsed());
}

/// The server's background snapshot writer: one thread, started by the
/// first queued snapshot or removal and joined (after it drains its
/// queue) when the server drops. It holds at most one queued operation
/// per path: a newer snapshot, or a finished job's removal of the file,
/// replaces a queued one in its place, so a superseded snapshot is never
/// written and no write lands after a removal. Operations run one at a
/// time, oldest queued first.
///
/// Only a snapshot after a job's first is queued, so a crash loses at
/// most the boundaries since the last one written, and resuming from an
/// earlier boundary is bit-identical.
#[derive(Debug)]
struct SnapshotWriter {
    shared: Arc<(Mutex<WriterState>, Condvar)>,
    faults: Arc<FailSet>,
    metrics: Arc<MetricsRegistry>,
    thread: OnceLock<JoinHandle<()>>,
}

/// What [`SnapshotWriter`]'s lock guards. Its condvar is signalled when
/// an operation is queued, when one ends and when the server drops.
#[derive(Debug, Default)]
struct WriterState {
    queue: VecDeque<QueuedSnapshot>,
    /// The path being written or removed.
    writing: Option<PathBuf>,
    /// Set when the server drops: the writer drains the queue and exits.
    stopping: bool,
}

#[derive(Debug)]
struct QueuedSnapshot {
    path: PathBuf,
    /// The snapshot to write, or `None` to remove the file.
    text: Option<String>,
    log: sealed::OpLog,
}

impl SnapshotWriter {
    fn new(faults: Arc<FailSet>, metrics: Arc<MetricsRegistry>) -> SnapshotWriter {
        SnapshotWriter { shared: Arc::default(), faults, metrics, thread: OnceLock::new() }
    }

    /// Queues `text` to be written to `path`, or with `None` the file's
    /// removal, replacing a queued operation on `path` in its place.
    fn queue(&self, path: &Path, text: Option<String>) {
        let snapshot =
            QueuedSnapshot { path: path.to_owned(), text, log: sealed::OpLog::current() };
        let (state, changed) = &*self.shared;
        let mut state = state.lock().expect("snapshot writer poisoned");
        match state.queue.iter_mut().find(|queued| queued.path == path) {
            Some(queued) => *queued = snapshot,
            None => state.queue.push_back(snapshot),
        }
        drop(state);
        changed.notify_all();
        self.thread.get_or_init(|| {
            let (shared, faults) = (Arc::clone(&self.shared), Arc::clone(&self.faults));
            let seconds = checkpoint_write_seconds(&self.metrics);
            std::thread::Builder::new()
                .name("snapshot-writer".to_owned())
                .spawn(move || SnapshotWriter::run(&shared, &faults, &seconds))
                .expect("spawn the snapshot writer")
        });
    }

    /// Waits until no operation on `path` is queued or running, and
    /// returns how long that took. With `drop_queued`, a queued one is
    /// dropped instead of waited for.
    fn settle(&self, path: &Path, drop_queued: bool) -> Duration {
        let started = Instant::now();
        let (state, changed) = &*self.shared;
        let mut state = state.lock().expect("snapshot writer poisoned");
        if drop_queued {
            state.queue.retain(|queued| queued.path != path);
        }
        while state.writing.as_deref() == Some(path)
            || state.queue.iter().any(|queued| queued.path == path)
        {
            state = changed.wait(state).expect("snapshot writer poisoned");
        }
        started.elapsed()
    }

    /// The writer thread's loop.
    fn run(shared: &(Mutex<WriterState>, Condvar), faults: &FailSet, seconds: &Histogram) {
        let (state, changed) = shared;
        let mut guard = state.lock().expect("snapshot writer poisoned");
        loop {
            if let Some(snapshot) = guard.queue.pop_front() {
                guard.writing = Some(snapshot.path.clone());
                drop(guard);
                snapshot.log.adopt();
                match &snapshot.text {
                    Some(text) => write_snapshot(&snapshot.path, text, faults, seconds),
                    None => {
                        let _ = sealed::remove(&snapshot.path);
                    }
                }
                guard = state.lock().expect("snapshot writer poisoned");
                guard.writing = None;
                changed.notify_all();
            } else if guard.stopping {
                return;
            } else {
                guard = changed.wait(guard).expect("snapshot writer poisoned");
            }
        }
    }
}

impl Drop for SnapshotWriter {
    fn drop(&mut self) {
        let Some(thread) = self.thread.take() else { return };
        let (state, changed) = &*self.shared;
        // Setting the flag leaves the state valid even after a panic.
        state.lock().unwrap_or_else(PoisonError::into_inner).stopping = true;
        changed.notify_all();
        if thread.join().is_err() {
            digamma_obs::log::global().log(
                LogLevel::Error,
                "server",
                None,
                "snapshot writer panicked; queued snapshots were not written",
                &[],
            );
        }
    }
}

/// What [`SearchServer::drive_ga`] (or a baseline run) produced, plus
/// the timing the report breaks out.
struct GaOutcome {
    result: SearchResult,
    generations: u64,
    resumed_at: Option<u64>,
    cancelled: bool,
    checkpoint_wall: Duration,
}

impl GaOutcome {
    /// A non-GA outcome: no generations, no resume, no checkpoints.
    fn finished(result: SearchResult, cancelled: bool) -> GaOutcome {
        GaOutcome {
            result,
            generations: 0,
            resumed_at: None,
            cancelled,
            checkpoint_wall: Duration::ZERO,
        }
    }
}

/// The server's per-generation observer: streams progress, writes
/// checkpoints at the configured cadence (spilling the fitness memo on
/// the same beat), and honours cooperative cancellation (snapshotting
/// before stopping so the partial search survives). It also keeps the
/// job's checkpoint wall-clock total (for the report's timing
/// breakdown) and feeds the generation-boundary and checkpoint-write
/// histograms.
struct DriveObserver<'a> {
    server: &'a SearchServer,
    path: Option<&'a Path>,
    fingerprint: &'a str,
    every: u64,
    control: &'a JobControl,
    cancelled: bool,
    /// Whether the drive's first cadence snapshot, which is written
    /// inline, was taken; later ones are queued on the writer.
    wrote_first: bool,
    /// The worker's own checkpoint time: rendering, hand-offs, inline
    /// writes and waits for the writer.
    checkpoint_wall: Duration,
    checkpoint_seconds: Histogram,
    generation_seconds: Histogram,
    /// The last generation boundary: the start of the next
    /// `job.generation` span.
    last_boundary: Instant,
    /// What the job's stage spans are recorded through, under its run
    /// span, when the job is traced.
    run_trace: Option<&'a JobTrace>,
    /// Whether the first analytics update (which carries the seed
    /// cost-point history) has been sent yet.
    analytics_seeded: bool,
}

impl DriveObserver<'_> {
    /// Spills the fitness memo, tracing the write when one happens. A
    /// cadence spill waits for
    /// [`SearchServer::SPILL_CADENCE_MIN_INSERTIONS`] new entries,
    /// bounding how many fsyncs a long search pays mid-run.
    fn spill(&self, at_cadence: bool) {
        let min_new = if at_cadence { SearchServer::SPILL_CADENCE_MIN_INSERTIONS } else { 1 };
        let started = self.server.spill_cache(min_new);
        if let (Some(started), Some(trace)) = (started, self.run_trace) {
            trace.record("cache.spill", started, Vec::new());
        }
    }

    /// Snapshots the search at this boundary. `inline` writes it before
    /// returning, after dropping a queued write of the job's path and
    /// waiting for a running one; otherwise the background writer gets
    /// it.
    fn snapshot(&mut self, state: &SearchState, inline: bool) {
        let Some(p) = self.path else { return };
        let started = Instant::now();
        let rendered = Snapshot::capture(self.fingerprint, state).render();
        let snapshots = &self.server.snapshots;
        if inline {
            snapshots.settle(p, true);
            write_snapshot(p, &rendered, &self.server.config.faults, &self.checkpoint_seconds);
        } else {
            snapshots.queue(p, Some(rendered));
        }
        self.checkpoint_wall += started.elapsed();
        if let Some(trace) = self.run_trace {
            trace.record("job.checkpoint", started, vec![("gen", state.generation().to_string())]);
        }
    }
}

impl StepObserver for DriveObserver<'_> {
    fn on_generation(&mut self, state: &SearchState, budget: usize) -> StepAction {
        self.generation_seconds.observe_duration(self.last_boundary.elapsed());
        if let Some(trace) = self.run_trace {
            let attrs = vec![
                ("gen", state.generation().to_string()),
                ("samples", state.samples().to_string()),
            ];
            trace.record("job.generation", self.last_boundary, attrs);
        }
        let analytics = state.last_gen_stats().map(|stats| {
            let seed_points = (!self.analytics_seeded).then(|| state.cost_points().to_vec());
            self.analytics_seeded = true;
            AnalyticsUpdate { stats, ops: *state.op_counters(), seed_points }
        });
        let progress = JobProgress {
            generation: state.generation(),
            samples: state.samples(),
            budget,
            best_cost: state.best_cost(),
        };
        self.control.report(progress, analytics);
        if self.control.is_cancelled() {
            self.snapshot(state, true);
            self.spill(false);
            self.cancelled = true;
            return StepAction::Stop;
        }
        // A finished search needs no snapshot: completion removes it.
        if state.generation().is_multiple_of(self.every) && state.samples() < budget {
            self.snapshot(state, !self.wrote_first);
            self.wrote_first = true;
            self.spill(true);
        }
        self.last_boundary = Instant::now();
        StepAction::Continue
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use digamma::Objective;
    use digamma_costmodel::Platform;
    use digamma_opt::Algorithm;
    use digamma_workload::zoo;

    fn spec(name: &str, algorithm: JobAlgorithm) -> JobSpec {
        let mut s = JobSpec::new(name, zoo::ncf(), Platform::edge(), Objective::Latency, algorithm);
        s.budget = 120;
        s.population_size = 12;
        s.seed = 5;
        s
    }

    #[test]
    fn batch_reports_come_back_in_submission_order() {
        let server = SearchServer::new(ServerConfig { workers: 3, ..Default::default() });
        let jobs = vec![
            spec("a", JobAlgorithm::DiGamma),
            spec("b", JobAlgorithm::Baseline(Algorithm::Random)),
            spec("c", JobAlgorithm::Gamma(digamma::schemes::HwPreset::MediumBufCom)),
        ];
        let reports = server.run(&jobs);
        assert_eq!(
            reports.iter().map(|r| r.name.as_str()).collect::<Vec<_>>(),
            vec!["a", "b", "c"]
        );
        for r in &reports {
            assert_eq!(r.samples, 120, "{}", r.name);
        }
        assert!(reports[0].generations > 0);
        assert_eq!(reports[1].generations, 0, "baselines do not step generations");
    }

    #[test]
    fn concurrent_execution_matches_serial_execution() {
        let jobs = vec![spec("x", JobAlgorithm::DiGamma), spec("y", JobAlgorithm::DiGamma)];
        let serial =
            SearchServer::new(ServerConfig { workers: 1, cache_capacity: 0, ..Default::default() })
                .run(&jobs);
        let parallel = SearchServer::new(ServerConfig {
            workers: 4,
            cache_capacity: 1 << 16,
            ..Default::default()
        })
        .run(&jobs);
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(
                s.best.as_ref().map(|b| b.cost.to_bits()),
                p.best.as_ref().map(|b| b.cost.to_bits()),
                "caching/concurrency must not change results"
            );
        }
    }

    #[test]
    fn shared_cache_reports_per_job_hits() {
        // Genome memo off: the per-layer cache is the first memo layer,
        // so a changed layer whose mapping an earlier child already
        // scored hits it directly (reused layers are never probed).
        let server = SearchServer::new(ServerConfig {
            workers: 1,
            genome_cache_capacity: 0,
            ..Default::default()
        });
        // The same search twice: the second run should hit constantly.
        let jobs = vec![spec("first", JobAlgorithm::DiGamma), spec("again", JobAlgorithm::DiGamma)];
        let reports = server.run(&jobs);
        assert!(reports[0].cache_hits > 0, "restated layer mappings hit within one search");
        assert!(
            reports[1].cache_hit_rate() > reports[0].cache_hit_rate(),
            "a repeated search reuses the first one's entries: {} vs {}",
            reports[1].cache_hit_rate(),
            reports[0].cache_hit_rate()
        );
        assert_eq!(reports[1].cache_misses, 0, "an identical rerun is fully memoized");
        assert_eq!(reports[0].genome_hits + reports[1].genome_hits, 0, "memo disabled");
        let stats = server.cache_stats().expect("cache enabled");
        assert_eq!(stats.hits, reports[0].cache_hits + reports[1].cache_hits);
    }

    #[test]
    fn lru_keeps_a_recurring_spec_resident_through_churn() {
        // Each round runs a hot ncf spec (seed 1 every round, so its
        // keys recur) and then a resnet18 churn spec with a fresh seed
        // (its keys never recur in a later round), against a per-layer
        // cache smaller than the batch's working set. The genome memo
        // is off: it would absorb the hot recurrence above the layer
        // cache.
        let job = |name: String, model, seed| JobSpec {
            model,
            budget: 400,
            seed,
            ..spec(&name, JobAlgorithm::DiGamma)
        };
        let jobs: Vec<JobSpec> = (0..3u64)
            .flat_map(|round| {
                [
                    job(format!("hot-{round}"), zoo::ncf(), 1),
                    job(format!("churn-{round}"), zoo::resnet18(), 1000 + round),
                ]
            })
            .collect();
        let server = SearchServer::new(ServerConfig {
            workers: 1,
            cache_capacity: 4096,
            genome_cache_capacity: 0,
            ..ServerConfig::default()
        });
        let reports = server.run(&jobs);
        let evictions = server.cache_stats().expect("cache enabled").evictions;
        assert!(evictions > 0, "the capacity must bind");
        // Round 0 inserts the hot spec's keys; later rounds re-probe
        // exactly those keys, so every miss there is an eviction.
        let later: Vec<f64> = reports
            .iter()
            .filter(|r| r.name.starts_with("hot-") && r.name != "hot-0")
            .map(JobReport::cache_hit_rate)
            .collect();
        let hot_hit_rate = later.iter().sum::<f64>() / later.len() as f64;
        assert_eq!(hot_hit_rate, 1.0, "hits keep the hot keys resident past the churn");
    }

    #[test]
    fn genome_memo_absorbs_recurring_genomes_above_the_layer_cache() {
        let server = SearchServer::new(ServerConfig { workers: 1, ..Default::default() });
        let jobs = vec![spec("first", JobAlgorithm::DiGamma), spec("again", JobAlgorithm::DiGamma)];
        let reports = server.run(&jobs);
        // Within one search, elites recur every generation: the genome
        // layer catches them before any per-layer work happens.
        assert!(reports[0].genome_hits > 0, "elites must hit the genome memo");
        // The second job is byte-identical (same model/seed/budget), so
        // its deterministic trajectory revisits only genomes the first
        // job memoized: every single lookup hits.
        assert_eq!(reports[1].genome_misses, 0, "identical rerun must be all genome hits");
        assert!(reports[1].genome_hits >= reports[1].samples as u64);
        assert!((reports[1].genome_hit_rate() - 1.0).abs() < 1e-12);
        // And identical results, of course.
        assert_eq!(
            reports[0].best.as_ref().map(|b| b.cost.to_bits()),
            reports[1].best.as_ref().map(|b| b.cost.to_bits()),
        );
        let stats = server.genome_memo_stats().expect("genome memo enabled");
        assert_eq!(stats.hits, reports[0].genome_hits + reports[1].genome_hits);
    }

    #[test]
    fn instrumented_job_runs_the_same_search_as_a_bare_problem() {
        // A served job carries live metrics, eval spans under a stamped
        // trace and both memos. None of it may steer the search: the job
        // must find what the same GA finds on a bare problem.
        let job = spec("same", JobAlgorithm::DiGamma);
        let server = SearchServer::new(ServerConfig { workers: 1, ..Default::default() });
        let control = JobControl::new();
        let tracer = server.tracer().clone();
        let mut claim = JobTrace { trace: tracer.trace_id(), tracer, parent: None, job: 1 };
        claim.parent = Some(claim.record("job.claim", Instant::now(), Vec::new()).span);
        control.set_trace(claim);
        let report = server.run_job_controlled(&job, &control);
        let metrics = server.metrics().render();
        let spans: Vec<&str> = server.tracer().recent(4096).iter().map(|s| s.name).collect();
        assert!(metrics.contains("digamma_evals_total{tenant="), "{metrics}");
        assert!(spans.contains(&"eval.batch"), "{spans:?}");
        assert!(report.cache_misses > 0 && report.genome_hits > 0, "{report:?}");

        let bare = CoOptProblem::new(job.model.clone(), job.platform.clone(), job.objective);
        let plain = DiGamma::new(DiGammaConfig {
            population_size: job.population_size,
            seed: job.seed,
            threads: job.threads,
            ..Default::default()
        })
        .search(&bare, job.budget);
        let served = report.best.as_ref().expect("the job finds a feasible design");
        let bare_best = plain.best.as_ref().expect("the bare search finds a feasible design");
        assert_eq!(served.cost.to_bits(), bare_best.cost.to_bits(), "best cost");
        assert_eq!(served.genome, bare_best.genome, "best genome");
        assert_eq!(report.samples, plain.samples);
    }

    #[test]
    fn fitness_memo_spills_and_warm_starts_across_server_lives() {
        let dir = std::env::temp_dir().join(format!("digamma-spill-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let config = ServerConfig {
            workers: 1,
            checkpoint_dir: Some(dir.clone()),
            ..ServerConfig::default()
        };

        let first_life = SearchServer::new(config.clone());
        let r1 = first_life.run_job(&spec("life1", JobAlgorithm::DiGamma));
        assert!(r1.cache_misses > 0, "a cold cache must miss");
        let resident = first_life.cache_stats().unwrap().entries;
        drop(first_life);
        let spill = dir.join("fitness-memo.cache");
        assert!(spill.exists(), "job completion must spill the memo");

        // Second life: the memo warm-starts from disk, so the identical
        // search (fresh genome memo, deterministic trajectory) re-probes
        // exactly the keys the first life stored — zero misses.
        let second_life = SearchServer::new(config);
        let loaded = second_life.cache_stats().unwrap().entries;
        assert_eq!(loaded, resident, "every spilled entry must reload");
        let r2 = second_life.run_job(&spec("life2", JobAlgorithm::DiGamma));
        assert!(r2.cache_hits > 0, "warm cache must serve the rerun");
        assert_eq!(r2.cache_misses, 0, "identical rerun on a warm cache misses nothing");
        assert_eq!(
            r1.best.as_ref().map(|b| b.cost.to_bits()),
            r2.best.as_ref().map(|b| b.cost.to_bits()),
            "replayed reports must not change results"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A fresh, empty directory under the system temp dir.
    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("digamma-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn spills_append_only_the_entries_a_job_added() {
        let dir = scratch_dir("spill-append");
        let config = ServerConfig {
            workers: 1,
            checkpoint_dir: Some(dir.clone()),
            ..ServerConfig::default()
        };
        let path = dir.join("fitness-memo.cache");
        let server = SearchServer::new(config.clone());
        server.run_job(&spec("a", JobAlgorithm::DiGamma));
        let f1 = std::fs::read(&path).unwrap();
        let after_a = server.cache_stats().unwrap();

        // The identical rerun memoizes nothing, so it writes nothing.
        server.run_job(&spec("a-again", JobAlgorithm::DiGamma));
        assert_eq!(server.cache_stats().unwrap().insertions, after_a.insertions);
        assert!(std::fs::read(&path).unwrap() == f1, "a clean spill must not touch the file");

        // A distinct search appends exactly the entries it added.
        server.run_job(&JobSpec { seed: 6, ..spec("b", JobAlgorithm::DiGamma) });
        let f2 = std::fs::read(&path).unwrap();
        let after_b = server.cache_stats().unwrap();
        assert!(after_b.entries > after_a.entries, "a new seed memoizes new entries");
        assert!(f2.starts_with(&f1), "a spill appends; it never rewrites the earlier bytes");
        let appended = String::from_utf8(f2[f1.len()..].to_vec()).unwrap();
        assert_eq!(
            appended.matches("\n[entry]\n").count() as u64,
            after_b.entries - after_a.entries,
            "one record per new entry"
        );
        drop(server);

        let reborn = SearchServer::new(config);
        assert_eq!(reborn.cache_stats().unwrap().entries, after_b.entries);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_appends_keep_earlier_spills_and_the_next_spill_compacts() {
        let dir = scratch_dir("spill-fault");
        let server = SearchServer::new(ServerConfig {
            workers: 1,
            checkpoint_dir: Some(dir.clone()),
            ..ServerConfig::default()
        });
        let path = dir.join("fitness-memo.cache");
        let run = |seed| {
            let before = server.cache_stats().unwrap().insertions;
            server
                .run_job(&JobSpec { seed, ..spec(&format!("job-{seed}"), JobAlgorithm::DiGamma) });
            assert!(server.cache_stats().unwrap().insertions > before, "seed {seed} adds entries");
        };
        // Each entry as its rendered record, so comparisons are bit-exact.
        let records = |entries: Vec<(u64, Arc<digamma_costmodel::CostReport>)>| {
            let rendered = entries
                .into_iter()
                .map(|(key, report)| (key, cachefile::render_cache_file(&[(key, report)])));
            rendered.collect::<std::collections::BTreeMap<_, _>>()
        };
        let resident = || records(server.cache.as_ref().unwrap().entries());
        let on_disk = || {
            let (entries, load) = cachefile::read_cache_file(&path);
            (records(entries.into_iter().map(|(k, r)| (k, Arc::new(r))).collect()), load)
        };

        for (round, fault) in
            ["cache.spill=short,once", "cache.spill=enospc,once"].iter().enumerate()
        {
            let seed = 10 * round as u64;
            run(seed + 1);
            let base = std::fs::read(&path).unwrap();
            run(seed + 2);
            let before = std::fs::read(&path).unwrap();
            assert!(
                before.len() > base.len() && before.starts_with(&base),
                "a clean spill appends"
            );
            let earlier = resident();
            assert_eq!(on_disk().0, earlier);

            server.faults().configure(fault).unwrap();
            run(seed + 3);
            let after = std::fs::read(&path).unwrap();
            assert!(after.starts_with(&before), "{fault}: earlier bytes survive");
            if fault.contains("short") {
                assert!(after.len() > before.len(), "the torn append left bytes behind");
            } else {
                assert_eq!(after.len(), before.len(), "ENOSPC writes nothing");
            }
            let (loaded, load) = on_disk();
            let now = resident();
            for (key, record) in &earlier {
                assert_eq!(loaded.get(key), Some(record), "{fault}: an earlier entry was lost");
            }
            for (key, record) in &loaded {
                assert_eq!(now.get(key), Some(record), "{fault}: loaded bits the memo never held");
            }
            assert!(load.skipped <= 1, "{fault}: only the torn record is skipped");

            // The next spill compacts, though nothing new was memoized.
            server.spill_cache_if_dirty();
            let text = String::from_utf8(std::fs::read(&path).unwrap()).unwrap();
            assert_eq!(
                on_disk(),
                (now.clone(), cachefile::CacheLoad { loaded: now.len(), ..Default::default() })
            );
            assert!(text.contains(&format!("\ncount = {}\n", now.len())), "{fault}: a fresh base");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn identical_single_worker_runs_spill_byte_identical_memo_files() {
        let jobs = [
            spec("a", JobAlgorithm::DiGamma),
            JobSpec { seed: 6, ..spec("b", JobAlgorithm::DiGamma) },
        ];
        let files = ["memo-order-1", "memo-order-2"].map(|tag| {
            let (server, dir) = persisted(tag, 1);
            server.run(&jobs);
            drop(server);
            let bytes = std::fs::read(dir.join("fitness-memo.cache")).unwrap();
            std::fs::remove_dir_all(&dir).ok();
            bytes
        });
        // A base, then an append: both in key order.
        assert!(!files[0].is_empty() && files[0] == files[1], "the two memo files differ");
    }

    #[test]
    fn cacheless_server_still_searches() {
        let server =
            SearchServer::new(ServerConfig { workers: 1, cache_capacity: 0, ..Default::default() });
        let report = server.run_job(&spec("raw", JobAlgorithm::DiGamma));
        assert!(report.best.is_some());
        assert_eq!(report.cache_hits + report.cache_misses, 0);
        assert!(server.cache_stats().is_none());
    }

    #[test]
    fn checkpoint_paths_sanitize_names() {
        let server = SearchServer::new(ServerConfig {
            checkpoint_dir: Some(PathBuf::from("/tmp/ckpt")),
            ..Default::default()
        });
        let s = spec("a job/with weird:name", JobAlgorithm::DiGamma);
        let path = server.checkpoint_path(&s).unwrap();
        let file = path.file_name().unwrap().to_str().unwrap();
        assert!(file.starts_with("a-job-with-weird-name-"), "{file}");
        assert!(file.ends_with(".snapshot"), "{file}");
        let baseline = spec("b", JobAlgorithm::Baseline(Algorithm::Cma));
        assert!(server.checkpoint_path(&baseline).is_none());
    }

    #[test]
    fn distinct_names_never_share_a_checkpoint_file() {
        // "exp 1" and "exp.1" sanitize to the same prefix; the raw-name
        // hash keeps their snapshot files apart.
        let server = SearchServer::new(ServerConfig {
            checkpoint_dir: Some(PathBuf::from("/tmp/ckpt")),
            ..Default::default()
        });
        let a = server.checkpoint_path(&spec("exp 1", JobAlgorithm::DiGamma)).unwrap();
        let b = server.checkpoint_path(&spec("exp.1", JobAlgorithm::DiGamma)).unwrap();
        assert_ne!(a, b);
        // Same name → same path across server instances (resume relies
        // on it).
        let again = server.checkpoint_path(&spec("exp 1", JobAlgorithm::DiGamma)).unwrap();
        assert_eq!(a, again);
    }

    /// A tiny single-threaded ncf GA job that snapshots every `every`
    /// generations of 8 samples.
    fn tiny(name: &str, budget: usize, every: u64) -> JobSpec {
        let mut s = spec(name, JobAlgorithm::DiGamma);
        (s.budget, s.population_size, s.threads) = (budget, 8, 1);
        s.checkpoint_every = Some(every);
        s
    }

    fn persisted(tag: &str, workers: usize) -> (SearchServer, PathBuf) {
        let dir = scratch_dir(tag);
        let config =
            ServerConfig { workers, checkpoint_dir: Some(dir.clone()), ..ServerConfig::default() };
        (SearchServer::new(config), dir)
    }

    /// Snapshot writes so far, inline and background.
    fn snapshot_writes(server: &SearchServer) -> u64 {
        checkpoint_write_seconds(server.metrics()).count()
    }

    /// The generation of the snapshot at `path`, if one parses there.
    fn snapshot_generation(path: &Path) -> Option<u64> {
        let text = sealed::read(path).ok()?;
        Snapshot::parse(&text).ok().map(|snapshot| snapshot.generation)
    }

    #[test]
    fn a_newer_snapshot_replaces_a_queued_one_and_only_the_newest_is_written() {
        let (server, dir) = persisted("writer-latest", 1);
        server.faults().configure("snapshot.write=delay:500,once").unwrap();
        let path = dir.join("a.snapshot");
        server.snapshots.queue(&path, Some("held\n".to_owned()));
        // Once the failpoint is hit, the writer sleeps inside that write.
        while server.faults().snapshot()[0].hits == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        server.snapshots.queue(&path, Some("superseded\n".to_owned()));
        server.snapshots.queue(&path, Some("newest\n".to_owned()));
        server.snapshots.settle(&path, false);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "newest\n");
        assert_eq!(snapshot_writes(&server), 2, "the superseded snapshot was written");
        drop(server);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The snapshot files (temporary ones included) left in `dir`.
    fn snapshot_files(dir: &Path) -> Vec<String> {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| name.contains(".snapshot"))
            .collect()
    }

    #[test]
    fn many_tiny_jobs_on_two_workers_leave_no_snapshot_behind() {
        let (server, dir) = persisted("writer-churn", 2);
        let jobs: Vec<JobSpec> =
            (0..200u64).map(|i| JobSpec { seed: i, ..tiny(&format!("tiny-{i}"), 40, 1) }).collect();
        let reports = server.run(&jobs);
        assert!(reports.iter().all(|r| r.samples == 40 && !r.cancelled));
        // Each job writes its first snapshot inline; the rest may be
        // superseded, and the writer removes each job's file after its
        // completion, so none is left once the writer drains.
        assert!(snapshot_writes(&server) >= 200);
        drop(server);
        let left = snapshot_files(&dir);
        assert!(left.is_empty(), "{left:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn completion_leaves_the_snapshot_removal_to_the_writer() {
        let (server, dir) = persisted("writer-removal", 1);
        // The second snapshot write, the writer's first, takes 2 s.
        server.faults().configure("snapshot.write=delay:2000,nth:2").unwrap();
        let delay = Duration::from_secs(2);
        // Generation 2 is written inline and generation 4 queued; the
        // last generation reports once the writer is inside that write.
        let faults = Arc::clone(server.faults());
        let control = JobControl::new().with_generation_sink(move |progress, _| {
            while progress.generation == 5 && faults.snapshot()[0].hits < 2 {
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let started = Instant::now();
        let report = server.run_job_controlled(&tiny("removed", 48, 2), &control);
        let returned = started.elapsed();
        assert_eq!((report.generations, report.samples), (5, 48));
        assert!(returned < delay, "the job waited {returned:?} for the writer");
        drop(server);
        let left = snapshot_files(&dir);
        assert!(left.is_empty(), "the removal ran before the delayed write: {left:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_jobs_first_snapshot_is_on_disk_before_its_search_continues() {
        let (server, dir) = persisted("writer-first", 1);
        // Slow writes: one left to the writer would still be in flight.
        server.faults().configure("snapshot.write=delay:50").unwrap();
        let job = tiny("first", 48, 2);
        let path = server.checkpoint_path(&job).unwrap();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink_seen = Arc::clone(&seen);
        let control = JobControl::new().with_generation_sink(move |progress, _| {
            let on_disk = snapshot_generation(&path);
            sink_seen.lock().unwrap().push((progress.generation, on_disk));
        });
        let report = server.run_job_controlled(&job, &control);
        assert_eq!(report.generations, 5);
        let seen = seen.lock().unwrap();
        assert_eq!(seen[..3], [(1, None), (2, None), (3, Some(2))], "{seen:?}");
        drop(server);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_budget_that_ends_on_a_cadence_boundary_writes_no_snapshot_there() {
        let (server, dir) = persisted("writer-finished", 1);
        // Generations 2 and 4 are cadence boundaries; generation 4 spends
        // the last of the budget.
        let report = server.run_job(&tiny("finished", 40, 2));
        assert_eq!((report.generations, report.samples), (4, 40));
        assert_eq!(snapshot_writes(&server), 1, "only generation 2 is snapshotted");
        // Spending the budget at the job's only cadence boundary writes
        // nothing at all.
        server.run_job(&tiny("finished-early", 24, 2));
        assert_eq!(snapshot_writes(&server), 1);
        drop(server);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_cancels_snapshot_is_on_disk_when_the_job_returns() {
        let (server, dir) = persisted("writer-cancel", 1);
        // Slow writes keep the writer busy with generation 2 when the
        // cancel lands at generation 4, with generation 3 queued.
        server.faults().configure("snapshot.write=delay:20").unwrap();
        let job = tiny("cancelled", 8 * 200, 1);
        let path = server.checkpoint_path(&job).unwrap();
        // Generation 4 reports, then waits until the job is cancelled.
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let sink_barrier = Arc::clone(&barrier);
        let control = JobControl::new().with_generation_sink(move |progress, _| {
            if progress.generation == 4 {
                sink_barrier.wait();
                sink_barrier.wait();
            }
        });
        let report = std::thread::scope(|scope| {
            let running = scope.spawn(|| server.run_job_controlled(&job, &control));
            barrier.wait();
            control.cancel();
            barrier.wait();
            running.join().unwrap()
        });
        assert!(report.cancelled && report.generations == 4, "{report:?}");
        assert_eq!(snapshot_generation(&path), Some(4));
        drop(server);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_stage_span_of_a_cancelled_job_nests_inside_its_run_span() {
        let (server, dir) = persisted("stage-spans", 1);
        // Queued and claimed as the registry's worker does it.
        let tracer = server.tracer().clone();
        let mut job = JobTrace { trace: tracer.trace_id(), tracer, parent: None, job: 7 };
        let queued = job.record("job.queued", Instant::now(), Vec::new());
        job.parent = Some(queued.span);
        let claim = job.record("job.claim", Instant::now(), Vec::new());
        job.parent = Some(claim.span);
        // Generation 3 reports, then waits until the job is cancelled.
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let sink_barrier = Arc::clone(&barrier);
        let control = JobControl::new().with_generation_sink(move |progress, _| {
            if progress.generation == 3 {
                sink_barrier.wait();
                sink_barrier.wait();
            }
        });
        control.set_trace(job.clone());
        let report = std::thread::scope(|scope| {
            let running =
                scope.spawn(|| server.run_job_controlled(&tiny("traced", 800, 1), &control));
            barrier.wait();
            control.cancel();
            barrier.wait();
            running.join().unwrap()
        });
        assert!(report.cancelled && report.generations == 3, "{report:?}");

        let spans = server.tracer().spans_for(job.trace);
        let run = spans.iter().find(|s| s.name == "job.run").expect("a run span");
        assert_eq!(run.parent, Some(claim.span));
        let run_end = run.start_ns + run.dur_ns;
        let stages: Vec<_> = spans
            .iter()
            .filter(|s| !["job.queued", "job.claim", "job.run"].contains(&s.name))
            .collect();
        for span in &stages {
            assert_eq!((span.parent, span.job), (Some(run.span), Some(7)), "{span:?}");
            assert!(
                span.start_ns >= run.start_ns && span.start_ns + span.dur_ns <= run_end,
                "{span:?}"
            );
        }
        for name in ["job.generation", "job.checkpoint", "eval.batch"] {
            assert!(stages.iter().any(|s| s.name == name), "no {name} in {stages:?}");
        }
        drop(server);
        std::fs::remove_dir_all(&dir).ok();
    }
}
