//! The service workloads: a spawned `digamma-netd` under a closed loop
//! of [`CLIENTS`] clients talking HTTP over loopback.
//!
//! Each client submits one job (`POST /jobs`), follows its event stream
//! (`GET /jobs/{id}/events`) to the end, reads the finished job
//! (`GET /jobs/{id}`), then submits the next. A job's latency is
//! submit-to-done as the client sees it: from sending the submit to the
//! event stream's end.

use crate::checks;
use crate::jobs::{persist_job, problem, repeat_job, repeat_spec, searcher, Job, REPEAT_SPECS};
use crate::ladder::{self, Replay};
use crate::report::{Metric, Outcome};
use crate::spans::Tracer;
use crate::stats::{dir_mb, geomean, median, median_s, proc_status_mb, proc_write_bytes, quantile};
use crate::Ctx;
use digamma_net::client;
use digamma_server::cachefile::read_cache_file;
use digamma_server::textio::{parse_sections, Section};
use std::io::{BufRead, BufReader};
use std::ops::Range;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Concurrent clients, one connection each (the machine's core count in
/// the reference setup).
pub const CLIENTS: usize = 2;
/// Daemon worker threads.
const WORKERS: &str = "2";
/// Each serve run serves a fixed amount of work, so every run, however
/// fast the service, spills the same memo sizes and leaves the same
/// directory and registry. `serve-persist` runs rounds of
/// [`PERSIST_JOBS`] jobs, each round on a fresh daemon and directory;
/// `serve-repeat` runs one sequence on one daemon, in segments. Both
/// scale with `--seconds` by these rates (rounds or segments, and
/// `serve-repeat` jobs, per second), which make a run take about
/// `--seconds` on a shared 2-vCPU x86-64 VM.
const SEGMENTS_PER_S: f64 = 1.0 / 6.0;
const REPEAT_JOBS_PER_S: f64 = 460.0;
/// Daemon starts for `setup_s` (and `serve-repeat`'s in-memory restarts
/// for `recover_s`) per round or segment. Made between rounds or
/// segments, they spread over the run; a start takes milliseconds, so
/// a steady median needs many.
const STARTS_PER_SEGMENT: usize = 6;
/// Jobs in one `serve-persist` round: the same sequence every round.
const PERSIST_JOBS: usize = 48;
/// Restarts on each `serve-persist` round's directory for `recover_s`;
/// each one loads the whole directory.
const PERSIST_RECOVERS: usize = 6;
/// The first jobs of a round, which `best_cost_geomean` and the traced
/// run's in-process probes cover.
const PERSIST_LEADING_JOBS: usize = 16;
/// A run still serving after this many times `--seconds` (and at least
/// [`MIN_CAP`]) stops and fails; the cap only guards against a hung or
/// badly slowed service.
const CAP_FACTOR: f64 = 3.0;
const MIN_CAP: Duration = Duration::from_secs(60);

/// A running `digamma-netd`, stopped and reaped on drop.
pub struct Daemon {
    child: Child,
    /// Kept open after the handshake, so a later print cannot fail.
    stdout: BufReader<ChildStdout>,
    /// The loopback address it listens on.
    pub addr: String,
}

impl Daemon {
    /// Starts `netd` with `args` and returns it with the time until it
    /// answered its first `GET /stats`. Its log goes to `log`.
    ///
    /// # Errors
    ///
    /// Returns spawn, handshake, and first-request failures.
    pub fn start(netd: &Path, args: &[&str], log: &Path) -> Result<(Daemon, Duration), String> {
        let log = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let started = Instant::now();
        let mut child = Command::new(netd)
            .args(["--addr", "127.0.0.1:0", "--workers", WORKERS])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", netd.display()))?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        // Owned by the guard from here on, so every error path reaps it.
        let mut daemon = Daemon { child, stdout, addr: String::new() };
        let mut line = String::new();
        daemon.stdout.read_line(&mut line).map_err(|e| format!("daemon handshake: {e}"))?;
        daemon.addr = line
            .trim()
            .strip_prefix("digamma-netd listening on ")
            .ok_or_else(|| format!("unexpected daemon handshake {line:?}"))?
            .to_owned();
        client::get(&daemon.addr, "/stats").map_err(|e| format!("first /stats: {e}"))?;
        Ok((daemon, started.elapsed()))
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// `POST /shutdown`, then waits for the process to exit.
    ///
    /// The daemon may exit before its answer to the shutdown request is
    /// written, so a lost answer is not an error; the exit status is.
    ///
    /// # Errors
    ///
    /// Returns a daemon that did not exit cleanly within a minute.
    pub fn stop(mut self) -> Result<(), String> {
        let _ = client::post(&self.addr, "/shutdown", None);
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match self.child.try_wait().map_err(|e| e.to_string())? {
                Some(status) if status.success() => return Ok(()),
                Some(status) => return Err(format!("daemon exited with {status}")),
                None if Instant::now() > deadline => return Err("daemon did not exit".into()),
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One finished job as the client saw it.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRun {
    /// Position in the workload's job sequence.
    pub k: usize,
    /// Whether the job's spans were recorded.
    pub traced: bool,
    /// Submit-to-done.
    pub latency: Duration,
    /// The client's whole cycle: submit, done, the finished job's read
    /// and, when traced, the recording of its spans.
    pub cycle: Duration,
    /// The `POST /jobs` round trip.
    pub submit: Duration,
    /// The `GET /jobs/{id}` round trip after done.
    pub status_call: Duration,
    /// HTTP requests the job took.
    pub requests: u32,
    /// The finished job's report, or why there is none.
    pub report: Result<WireReport, String>,
}

/// The fields of a finished job's `[job]` and `[report]` sections the
/// benchmark reads.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WireReport {
    pub status: String,
    /// `best_cost` as rendered (`%.6e`); `None` when no feasible design.
    pub best_cost: Option<String>,
    pub best_genome: Option<String>,
    pub samples: usize,
    pub wall_ms: f64,
    pub queue_wait_ms: f64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub genome_hits: u64,
    pub genome_misses: u64,
}

impl WireReport {
    /// Parses a `GET /jobs/{id}` body.
    ///
    /// # Errors
    ///
    /// Returns malformed bodies and missing fields.
    pub fn parse(body: &str) -> Result<WireReport, String> {
        let sections = parse_sections(body).map_err(|e| e.to_string())?;
        let find = |name: &str| sections.iter().find(|s| s.name == name);
        let job = find("job").ok_or("no [job] section")?;
        let mut report = WireReport {
            status: job.require("status").map_err(|e| e.to_string())?.to_owned(),
            ..Default::default()
        };
        let Some(r) = find("report") else { return Ok(report) };
        fn num<T: std::str::FromStr>(s: &Section, key: &str) -> Result<T, String> {
            s.require(key).map_err(|e| e.to_string())?.parse().map_err(|_| format!("bad {key}"))
        }
        report.best_cost = r.get("best_cost").map(str::to_owned);
        report.best_genome = r.get("best_genome").map(str::to_owned);
        report.samples = num(r, "samples")?;
        report.wall_ms = num(r, "wall_ms")?;
        report.queue_wait_ms = num(r, "queue_wait_ms")?;
        report.cache_hits = num(r, "cache_hits")?;
        report.cache_misses = num(r, "cache_misses")?;
        report.genome_hits = num(r, "genome_hits")?;
        report.genome_misses = num(r, "genome_misses")?;
        Ok(report)
    }

    /// The best cost as a number, if any.
    pub fn cost(&self) -> Option<f64> {
        self.best_cost.as_deref().and_then(|c| c.parse().ok())
    }
}

/// Runs jobs `first, first + 1, …` (`manifest(k)`) under the closed loop
/// while `more(k)` holds, and returns them in sequence order. When the
/// tracer is on, pairs of jobs (run side by side by the two clients)
/// are traced in the pattern traced, untraced, untraced, traced along
/// the sequence, so a trend in job latency (a growing memo) weighs the
/// same on both sides; job `k`'s spans go under trace id `traces + k`.
pub fn closed_loop(
    addr: &str,
    tracer: &Tracer,
    traces: u64,
    first: usize,
    manifest: &(dyn Fn(usize) -> String + Sync),
    more: &(dyn Fn(usize) -> bool + Sync),
) -> Vec<JobRun> {
    let next = AtomicUsize::new(first);
    let runs = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::SeqCst);
                if !more(k) {
                    break;
                }
                let traced = tracer.enabled() && matches!(k % 8, 0 | 1 | 6 | 7);
                let tracer = if traced { Some((tracer, traces + k as u64)) } else { None };
                let run = one_job(addr, k, &manifest(k), tracer);
                runs.lock().expect("job list poisoned").push(run);
            });
        }
    });
    let mut runs = runs.into_inner().expect("job list poisoned");
    runs.sort_by_key(|r| r.k);
    runs
}

/// Runs one job; `tracer` is the tracer and trace id of a traced job.
fn one_job(addr: &str, k: usize, manifest: &str, tracer: Option<(&Tracer, u64)>) -> JobRun {
    let t0 = Instant::now();
    let mut run = JobRun {
        k,
        traced: tracer.is_some(),
        latency: Duration::ZERO,
        cycle: Duration::ZERO,
        submit: Duration::ZERO,
        status_call: Duration::ZERO,
        requests: 1,
        report: Err(String::new()),
    };
    let submitted = client::request(addr, "POST", "/jobs", Some(manifest));
    let t1 = Instant::now();
    run.submit = t1 - t0;
    let id = match submitted {
        Ok(r) if r.status == 202 => parse_sections(&r.body).ok().and_then(|s| {
            s.first().and_then(|s| s.get("id")).and_then(|id| id.parse::<u64>().ok())
        }),
        Ok(r) => {
            run.report = Err(format!("submit refused: HTTP {} {}", r.status, r.body.trim()));
            return run;
        }
        Err(e) => {
            run.report = Err(format!("submit failed: {e}"));
            return run;
        }
    };
    let Some(id) = id else {
        run.report = Err("submit answered without a job id".into());
        return run;
    };
    run.requests += 1;
    let events = client::stream_events(addr, id, 0, |_| true);
    let t2 = Instant::now();
    run.latency = t2 - t0;
    if let Err(e) = events {
        run.report = Err(format!("event stream: {e}"));
        return run;
    }
    run.requests += 1;
    let view = client::get(addr, &format!("/jobs/{id}"));
    let t3 = Instant::now();
    run.status_call = t3 - t2;
    run.report = view.map_err(|e| format!("job status: {e}")).and_then(|b| WireReport::parse(&b));
    if let (Some((tracer, trace)), Ok(report)) = (tracer, &run.report) {
        let root = tracer.record(trace, None, "job", t0, t3, 1);
        tracer.record(trace, Some(root), "net.submit", t0, t1, 1);
        let events = tracer.record(trace, Some(root), "net.events", t1, t2, 1);
        // The service's own account of the job, placed as the client
        // would see it: queued after the submit, then run.
        let queued_end = t1 + Duration::from_secs_f64(report.queue_wait_ms / 1e3);
        tracer.record(trace, Some(events), "server.queue_wait", t1, queued_end, 1);
        tracer.record(
            trace,
            Some(events),
            "server.job",
            queued_end,
            queued_end + Duration::from_secs_f64(report.wall_ms / 1e3),
            1,
        );
        tracer.record(trace, Some(root), "net.status", t2, t3, 1);
    }
    run.cycle = t0.elapsed();
    run
}

/// Counts failed jobs (not done, or done without a feasible design) and
/// folds their errors into `outcome`.
fn tally(outcome: &mut Outcome, runs: &[JobRun]) {
    outcome.attempted += runs.len();
    outcome.failed += runs
        .iter()
        .filter(|r| !matches!(&r.report, Ok(w) if w.status == "done" && w.best_cost.is_some()))
        .count();
    outcome.problems.extend(checks::all_done(runs));
}

/// Throughput and latency of `runs`. Throughput follows Little's law
/// for the closed loop: clients over the median job cycle (submit, done,
/// and the finished job's read), which a stall on a shared machine moves
/// less than a count over the whole window.
fn serve_end_to_end(runs: &[JobRun]) -> Vec<Metric> {
    let n = runs.len();
    let latencies: Vec<f64> = runs.iter().map(|r| r.latency.as_secs_f64() * 1e3).collect();
    let cycles: Vec<f64> = runs.iter().map(|r| (r.latency + r.status_call).as_secs_f64()).collect();
    let samples: usize =
        runs.iter().filter_map(|r| r.report.as_ref().ok()).map(|w| w.samples).sum();
    let jobs_per_s = CLIENTS as f64 / median(&cycles);
    vec![
        Metric::over("search_samples_per_s", jobs_per_s * samples as f64 / n.max(1) as f64, n),
        Metric::over("jobs_per_s", jobs_per_s, n),
        Metric::over("job_p50_ms", median(&latencies), n),
        Metric::over("job_p90_ms", quantile(&latencies, 0.9), n),
    ]
}

/// The net and queue layers as `runs` saw them, the daemon's bytes
/// written per job, and the tracing overhead (median cycle of traced
/// jobs, span recording included, against that of untraced jobs).
fn serve_layers(runs: &[JobRun], bytes_written: u64) -> Vec<Metric> {
    let reports: Vec<(&JobRun, &WireReport)> =
        runs.iter().filter_map(|r| r.report.as_ref().ok().map(|w| (r, w))).collect();
    let n = reports.len();
    let ms = |f: &dyn Fn(&JobRun, &WireReport) -> f64| {
        median(&reports.iter().map(|(r, w)| f(r, w)).collect::<Vec<_>>())
    };
    let ratio = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
    let sum = |f: &dyn Fn(&WireReport) -> u64| reports.iter().map(|(_, w)| f(w)).sum::<u64>();
    let cycle_of = |traced: bool| {
        median(
            &runs
                .iter()
                .filter(|r| r.traced == traced)
                .map(|r| r.cycle.as_secs_f64())
                .collect::<Vec<_>>(),
        )
    };
    vec![
        Metric::over("net.submit_ms", ms(&|r, _| r.submit.as_secs_f64() * 1e3), n),
        Metric::over("net.status_ms", ms(&|r, _| r.status_call.as_secs_f64() * 1e3), n),
        Metric::over(
            "net.overhead_ms",
            ms(&|r, w| r.latency.as_secs_f64() * 1e3 - w.queue_wait_ms - w.wall_ms),
            n,
        ),
        Metric::new(
            "net.requests_per_job",
            runs.iter().map(|r| f64::from(r.requests)).sum::<f64>() / runs.len().max(1) as f64,
        ),
        Metric::over("server.queue_wait_ms", ms(&|_, w| w.queue_wait_ms), n),
        Metric::new(
            "server.cache_hit_ratio",
            ratio(sum(&|w| w.cache_hits), sum(&|w| w.cache_misses)),
        ),
        Metric::new(
            "server.genome_hit_ratio",
            ratio(sum(&|w| w.genome_hits), sum(&|w| w.genome_misses)),
        ),
        Metric::new(
            "server.bytes_written_per_job",
            bytes_written as f64 / runs.len().max(1) as f64,
        ),
        Metric::new("trace.overhead_pct", (cycle_of(true) / cycle_of(false) - 1.0) * 100.0),
    ]
}

/// Runs `jobs` once through a fresh in-memory daemon and returns the
/// net and queue layer metrics: the `search` workload's HTTP rung.
///
/// # Errors
///
/// Returns daemon failures and jobs that did not finish.
pub fn http_rung(ctx: &Ctx, jobs: &[Job]) -> Result<Vec<Metric>, String> {
    let (daemon, _) = Daemon::start(&ctx.netd, &[], &ctx.out.join("http-rung.log"))?;
    let before = proc_write_bytes(daemon.pid())?;
    let runs = closed_loop(
        &daemon.addr,
        &ctx.tracer,
        ladder::HTTP_TRACES,
        0,
        &|k| jobs[k].manifest(),
        &|k| k < jobs.len(),
    );
    let written = proc_write_bytes(daemon.pid())? - before;
    daemon.stop()?;
    let problems = checks::all_done(&runs);
    if !problems.is_empty() {
        return Err(problems.join("; "));
    }
    Ok(serve_layers(&runs, written))
}

/// `rate` per second of the run's `--seconds`, at least `min`.
fn scaled(ctx: &Ctx, rate: f64, min: usize) -> usize {
    ((rate * ctx.seconds.as_secs_f64()).round() as usize).max(min)
}

/// When a run that is still serving stops and fails.
fn safety_deadline(ctx: &Ctx) -> Instant {
    Instant::now() + ctx.seconds.mul_f64(CAP_FACTOR).max(MIN_CAP)
}

/// Runs the jobs `jobs` under the closed loop, tracing job `k` under
/// trace id `traces + k`. A run that reaches `deadline` first stops
/// there, and the outcome records the shortfall as a failed check.
fn fixed_loop(
    ctx: &Ctx,
    addr: &str,
    jobs: Range<usize>,
    traces: u64,
    manifest: &(dyn Fn(usize) -> String + Sync),
    deadline: Instant,
    outcome: &mut Outcome,
) -> Vec<JobRun> {
    let runs = closed_loop(addr, &ctx.tracer, traces, jobs.start, manifest, &|k| {
        jobs.contains(&k) && Instant::now() < deadline
    });
    if runs.len() < jobs.len() {
        outcome.problems.push(format!(
            "served {} of {} jobs before the safety cap ({CAP_FACTOR} x --seconds)",
            runs.len(),
            jobs.len()
        ));
    }
    runs
}

/// Starts `netd` on checkpoint directory `dir`, logging to `<tag>.log`.
fn start_on(ctx: &Ctx, dir: &Path, tag: &str) -> Result<(Daemon, Duration), String> {
    let dir = dir.to_str().ok_or("non-UTF-8 path")?;
    Daemon::start(&ctx.netd, &["--checkpoint-dir", dir], &ctx.out.join(format!("{tag}.log")))
}

/// The `serve-persist` workload: rounds of one fixed sequence of
/// distinct-seed `ncf` jobs, each round against a fresh daemon and
/// checkpoint directory, preceded by set-up starts on fresh directories
/// and followed by restarts on the directory it left, so every figure's
/// samples spread over the run.
///
/// # Errors
///
/// Returns daemon and I/O failures (check failures go to the outcome).
pub fn run_persist(ctx: &Ctx) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let seed = ctx.seed;
    let manifest = |k: usize| persist_job(seed, k).manifest();
    let deadline = safety_deadline(ctx);
    let (mut runs, mut first_round, mut setups) = (Vec::new(), Vec::new(), Vec::new());
    let (mut peak_rss, mut state_mb, mut recovers, mut written) =
        (Vec::new(), Vec::new(), Vec::new(), 0);
    for round in 0..scaled(ctx, SEGMENTS_PER_S, 1) {
        for _ in 0..STARTS_PER_SEGMENT {
            let tag = format!("setup-{}", setups.len());
            let (daemon, ready) = start_on(ctx, &ctx.out.join(&tag), &tag)?;
            setups.push(ready);
            daemon.stop()?;
        }
        let dir = ctx.out.join(format!("state-{round}"));
        let (daemon, _) = start_on(ctx, &dir, &format!("round-{round}"))?;
        let io_before = proc_write_bytes(daemon.pid())?;
        let traces = (round * PERSIST_JOBS) as u64;
        let round_runs = fixed_loop(
            ctx,
            &daemon.addr,
            0..PERSIST_JOBS,
            traces,
            &manifest,
            deadline,
            &mut outcome,
        );
        written += proc_write_bytes(daemon.pid())? - io_before;
        peak_rss.push(proc_status_mb(daemon.pid(), "VmHWM")?);
        daemon.stop()?;
        state_mb.push(dir_mb(&dir)?);
        for i in 0..PERSIST_RECOVERS {
            let (daemon, ready) = start_on(ctx, &dir, &format!("recover-{round}-{i}"))?;
            recovers.push(ready);
            daemon.stop()?;
        }
        tally(&mut outcome, &round_runs);
        let short = round_runs.len() < PERSIST_JOBS;
        // Every round runs the same searches from the same empty state.
        if round == 0 {
            first_round = round_runs.clone();
        } else {
            outcome.problems.extend(checks::repeats_agree(&first_round, &round_runs, &|k| k));
        }
        runs.extend(round_runs);
        if short {
            break;
        }
    }

    // Quality, and agreement with the same searches run in process.
    let leading = &first_round[..PERSIST_LEADING_JOBS.min(first_round.len())];
    let mut expected = Vec::new();
    for run in leading {
        let spec = persist_job(seed, run.k).spec()?;
        let result = searcher(&spec).search(&problem(&spec), spec.budget);
        expected.push(result.best.map(|b| (format!("{:.6e}", b.cost), b.genome.to_text())));
    }
    outcome.problems.extend(checks::matches_in_process(leading, &expected));
    let costs: Vec<f64> = leading.iter().filter_map(|r| r.report.as_ref().ok()?.cost()).collect();

    outcome.end_to_end = vec![
        Metric::over("setup_s", median_s(&setups), setups.len()),
        Metric::over("peak_rss_mb", median(&peak_rss), peak_rss.len()),
        Metric::over("best_cost_geomean", geomean(&costs), costs.len()),
    ];
    outcome.end_to_end.extend(serve_end_to_end(&runs));
    outcome.end_to_end.extend([
        Metric::over("state_mb", median(&state_mb), state_mb.len()),
        Metric::over("recover_s", median_s(&recovers), recovers.len()),
    ]);

    if ctx.tracer.enabled() {
        let specs: Vec<_> = (0..PERSIST_LEADING_JOBS)
            .map(|k| persist_job(seed, k).spec())
            .collect::<Result<_, _>>()?;
        let replay_dir = ctx.out.join("replay");
        let memo = read_cache_file(&ctx.out.join("state-0").join("fitness-memo.cache")).0;
        let memo = memo.into_iter().map(|(k, r)| (k, std::sync::Arc::new(r))).collect();
        outcome.per_layer = ladder::measure(
            &ctx.tracer,
            &specs,
            &Replay { jobs: &specs, warm: 0, checkpoint_dir: Some(&replay_dir) },
            Some(memo),
            &ctx.out,
        )?;
        outcome.per_layer.extend(serve_layers(&runs, written));
    }
    Ok(outcome)
}

/// The `serve-repeat` workload: a closed loop over four fixed `resnet18`
/// specs against an in-memory daemon whose memo the set-up warmed.
///
/// # Errors
///
/// Returns daemon failures (check failures go to the outcome).
pub fn run_repeat(ctx: &Ctx) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let seed = ctx.seed;
    let manifest = |k: usize| repeat_job(seed, k).manifest();
    // Set-up: start a daemon and run the first pass, which fills the
    // memo. The first daemon set up serves the measurement.
    let set_up = |outcome: &mut Outcome, setups: &mut Vec<Duration>| {
        let started = Instant::now();
        let log = ctx.out.join(format!("setup-{}.log", setups.len()));
        let (daemon, _) = Daemon::start(&ctx.netd, &[], &log)?;
        let warmups =
            closed_loop(&daemon.addr, &Tracer::new(false), 0, 0, &manifest, &|k| k < REPEAT_SPECS);
        setups.push(started.elapsed());
        tally(outcome, &warmups);
        Ok::<_, String>((daemon, warmups))
    };
    let mut setups = Vec::new();
    let (daemon, warmups) = set_up(&mut outcome, &mut setups)?;

    // Whole passes, at least two, so a traced run has untraced jobs too,
    // in segments. Between segments, while the measured daemon idles,
    // more set-ups and in-memory restarts run on daemons of their own.
    let passes = scaled(ctx, REPEAT_JOBS_PER_S / REPEAT_SPECS as f64, 2);
    let segments = scaled(ctx, SEGMENTS_PER_S, 1).min(passes);
    let deadline = safety_deadline(ctx);
    let io_before = proc_write_bytes(daemon.pid())?;
    let (mut runs, mut recovers) = (Vec::new(), Vec::new());
    for s in 0..segments {
        let pass = |s: usize| REPEAT_SPECS * (1 + passes * s / segments);
        let jobs = pass(s)..pass(s + 1);
        let segment =
            fixed_loop(ctx, &daemon.addr, jobs.clone(), 0, &manifest, deadline, &mut outcome);
        let short = segment.len() < jobs.len();
        runs.extend(segment);
        if short {
            break;
        }
        for _ in 0..STARTS_PER_SEGMENT {
            set_up(&mut outcome, &mut setups)?.0.stop()?;
            let log = ctx.out.join(format!("recover-{}.log", recovers.len()));
            let (restarted, ready) = Daemon::start(&ctx.netd, &[], &log)?;
            recovers.push(ready);
            restarted.stop()?;
        }
    }
    let written = proc_write_bytes(daemon.pid())? - io_before;
    let peak_rss = proc_status_mb(daemon.pid(), "VmHWM")?;
    let resident = proc_status_mb(daemon.pid(), "VmRSS")?;
    daemon.stop()?;
    tally(&mut outcome, &runs);
    outcome.problems.extend(checks::repeats_agree(&warmups, &runs, &|k| repeat_spec(seed, k)));

    let costs: Vec<f64> = warmups.iter().filter_map(|r| r.report.as_ref().ok()?.cost()).collect();
    outcome.end_to_end = vec![
        Metric::over("setup_s", median_s(&setups), setups.len()),
        Metric::new("peak_rss_mb", peak_rss),
        Metric::over("best_cost_geomean", geomean(&costs), costs.len()),
    ];
    outcome.end_to_end.extend(serve_end_to_end(&runs));
    outcome.end_to_end.extend([
        Metric::new("state_mb", resident),
        Metric::over("recover_s", median_s(&recovers), recovers.len()),
    ]);

    if ctx.tracer.enabled() {
        let specs: Vec<_> =
            (0..REPEAT_SPECS).map(|k| repeat_job(seed, k).spec()).collect::<Result<_, _>>()?;
        let replayed: Vec<_> = specs.iter().chain(&specs).cloned().collect();
        outcome.per_layer = ladder::measure(
            &ctx.tracer,
            &specs,
            &Replay { jobs: &replayed, warm: REPEAT_SPECS, checkpoint_dir: None },
            None,
            &ctx.out,
        )?;
        outcome.per_layer.extend(serve_layers(&runs, written));
    }
    Ok(outcome)
}
