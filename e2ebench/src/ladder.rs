//! The traced run's per-layer probes: timed calls into each crate's
//! public functions on the workload's own inputs.
//!
//! - `ga`: `DiGamma::init`/`step` on the workload's specs. A step's GA
//!   operator time is its wall minus the growth of
//!   `CoOptProblem::eval_wall` over it. `Snapshot::capture` + `render`
//!   run at each checkpoint boundary.
//! - `costmodel`, `encoding`, `core`: every population those searches
//!   produced goes through `Genome::decode_with_fanouts`,
//!   `Evaluator::evaluate` on each decoded (layer, mapping) pair,
//!   `CoOptProblem::genome_key`, and `CoOptProblem::evaluate_batch` on a
//!   fresh memo-less problem.
//! - `server`: `SearchServer::run_job` replays the workload's jobs in
//!   process, `Journal::append_*` journals them, and
//!   `cachefile::write_cache_file` spills a memo of the size the
//!   workload reaches.
//!
//! Timed loops repeat [`REPS`] times and report the median repetition.

use crate::jobs::{problem, searcher};
use crate::report::Metric;
use crate::spans::Tracer;
use crate::stats::{median, to_ms};
use digamma_costmodel::CostReport;
use digamma_encoding::Genome;
use digamma_server::cachefile::write_cache_file;
use digamma_server::{
    JobSpec, JobStatus, Journal, SearchServer, ServerConfig, ShardedFitnessCache, Snapshot,
};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Repetitions of each timed probe loop.
pub const REPS: usize = 3;

/// The server's default snapshot cadence, for specs that set none.
const DEFAULT_CHECKPOINT_EVERY: u64 = 8;

/// Trace ids of the probes, above any job or search id of the workload.
const GA_TRACES: u64 = 1 << 40;
const PIPELINE_TRACES: u64 = 2 << 40;
const SERVER_TRACES: u64 = 3 << 40;
/// Trace ids of the jobs `search`'s traced run serves over HTTP.
pub const HTTP_TRACES: u64 = 4 << 40;

/// A memo's resident entries, as the spill writes them.
pub type MemoEntries = Vec<(u64, Arc<CostReport>)>;

/// What the in-process server replay runs.
pub struct Replay<'a> {
    /// Jobs in submission order.
    pub jobs: &'a [JobSpec],
    /// Leading jobs that only warm the memo (not measured).
    pub warm: usize,
    /// The replay server's checkpoint directory, if the workload
    /// persists.
    pub checkpoint_dir: Option<&'a Path>,
}

/// Every probe's per-layer metrics for `specs` (searched by the GA and
/// genome-pipeline probes) and `replay` (run by the server probe).
/// `memo` is the spill probe's memo; `None` spills the memo the probed
/// searches' genomes build. `scratch` holds the probes' files.
///
/// # Errors
///
/// Returns I/O failures of the journal and spill probes, and replayed
/// jobs that find no design.
pub fn measure(
    tracer: &Tracer,
    specs: &[JobSpec],
    replay: &Replay<'_>,
    memo: Option<MemoEntries>,
    scratch: &Path,
) -> Result<Vec<Metric>, String> {
    let ga = ga_probe(tracer, specs);
    let mut metrics = pipeline_probe(tracer, specs, &ga.batches);
    metrics.extend([
        Metric::new("ga.step_ns_per_sample", ga.step_ns_per_sample),
        Metric::new("ga.operator_ns_per_sample", ga.operator_ns_per_sample),
        Metric::over("server.snapshot_ms", median(&to_ms(&ga.snapshots)), ga.snapshots.len()),
    ]);
    metrics.extend(server_probe(tracer, replay, scratch)?);
    let memo = memo.unwrap_or_else(|| fill_memo(specs, &ga.batches));
    metrics.push(spill_probe(tracer, &memo, scratch)?);
    Ok(metrics)
}

struct GaProbe {
    step_ns_per_sample: f64,
    operator_ns_per_sample: f64,
    snapshots: Vec<Duration>,
    /// Every evaluated population, tagged with its spec's index.
    batches: Vec<(usize, Vec<Genome>)>,
}

fn ga_probe(tracer: &Tracer, specs: &[JobSpec]) -> GaProbe {
    let mut step_rates = Vec::new();
    let mut operator_rates = Vec::new();
    let mut snapshots = Vec::new();
    let mut batches = Vec::new();
    for rep in 0..REPS {
        let (mut step_ns, mut eval_ns, mut samples) = (0u128, 0u128, 0usize);
        for (i, spec) in specs.iter().enumerate() {
            let trace = GA_TRACES + (rep * specs.len() + i) as u64;
            let problem = problem(spec);
            let ga = searcher(spec);
            let every = spec.checkpoint_every.unwrap_or(DEFAULT_CHECKPOINT_EVERY);
            let mut spans = Vec::new();
            let started = Instant::now();
            let mut state = ga.init(&problem, spec.budget);
            spans.push(("ga.init", started, Instant::now(), Some(problem.eval_wall())));
            if rep == 0 {
                batches.push((i, state.population().to_vec()));
            }
            loop {
                let before = state.samples();
                let eval_before = problem.eval_wall();
                let step_started = Instant::now();
                if !ga.step(&problem, &mut state, spec.budget) {
                    break;
                }
                let step_ended = Instant::now();
                let eval = problem.eval_wall() - eval_before;
                step_ns += (step_ended - step_started).as_nanos();
                eval_ns += eval.as_nanos();
                samples += state.samples() - before;
                spans.push(("ga.step", step_started, step_ended, Some(eval)));
                if rep == 0 {
                    batches.push((i, state.population().to_vec()));
                }
                if state.generation().is_multiple_of(every) {
                    let snap_started = Instant::now();
                    let text = Snapshot::capture(spec.fingerprint(), &state).render();
                    black_box(text.len());
                    let snap_ended = Instant::now();
                    snapshots.push(snap_ended - snap_started);
                    spans.push(("server.snapshot", snap_started, snap_ended, None));
                }
            }
            black_box(state.best_cost());
            let root = tracer.record(trace, None, "ga.search", started, Instant::now(), 1);
            for (name, start, end, eval) in spans {
                let id = tracer.record(trace, Some(root), name, start, end, 1);
                // The batch's position inside the step is not observable
                // from outside; its duration is, so the derived child
                // starts with the step.
                if let Some(eval) = eval {
                    tracer.record(trace, Some(id), "core.evaluate_batch", start, start + eval, 1);
                }
            }
        }
        let samples = samples.max(1) as f64;
        step_rates.push(step_ns as f64 / samples);
        operator_rates.push(step_ns.saturating_sub(eval_ns) as f64 / samples);
    }
    GaProbe {
        step_ns_per_sample: median(&step_rates),
        operator_ns_per_sample: median(&operator_rates),
        snapshots,
        batches,
    }
}

fn pipeline_probe(
    tracer: &Tracer,
    specs: &[JobSpec],
    batches: &[(usize, Vec<Genome>)],
) -> Vec<Metric> {
    let mut per_rep: Vec<[f64; 4]> = Vec::new();
    let genomes: u64 = batches.iter().map(|(_, b)| b.len() as u64).sum();
    // Identical in every repetition: the inputs and the dedupe are.
    let (mut pairs, mut skipped) = (0u64, 0u64);
    for rep in 0..REPS {
        // Fresh problems per repetition: no memo, zeroed dedupe counter.
        let problems: Vec<_> = specs.iter().map(problem).collect();
        let mut ns = [0u128; 4];
        let (mut rep_pairs, mut rep_skipped) = (0u64, 0u64);
        for (b, (i, batch)) in batches.iter().enumerate() {
            let p = &problems[*i];
            let unique = p.unique_layers();
            let trace = PIPELINE_TRACES + (rep * batches.len() + b) as u64;
            let decoded: Vec<_> =
                batch.iter().map(|g| g.decode_with_fanouts(unique, &g.fanouts)).collect();
            let batch_pairs: u64 = decoded.iter().map(|m| m.len() as u64).sum();

            let t0 = Instant::now();
            for g in batch {
                black_box(g.decode_with_fanouts(unique, &g.fanouts));
            }
            let t1 = Instant::now();
            for mappings in &decoded {
                for (u, m) in unique.iter().zip(mappings) {
                    let _ = black_box(p.evaluator().evaluate(&u.layer, m));
                }
            }
            let t2 = Instant::now();
            for g in batch {
                black_box(p.genome_key(g));
            }
            let t3 = Instant::now();
            let skipped_before = p.batch_dedup_skipped();
            black_box(p.evaluate_batch(batch, 1));
            let t4 = Instant::now();
            rep_skipped += p.batch_dedup_skipped() - skipped_before;
            rep_pairs += batch_pairs;

            for (k, (a, z)) in [(t0, t1), (t1, t2), (t2, t3), (t3, t4)].into_iter().enumerate() {
                ns[k] += (z - a).as_nanos();
            }
            let n = batch.len() as u64;
            let root = tracer.record(trace, None, "pipeline.batch", t0, t4, n);
            tracer.record(trace, Some(root), "encoding.decode_with_fanouts", t0, t1, n);
            tracer.record(trace, Some(root), "costmodel.evaluate", t1, t2, batch_pairs);
            tracer.record(trace, Some(root), "core.genome_key", t2, t3, n);
            tracer.record(trace, Some(root), "core.evaluate_batch", t3, t4, n);
        }
        pairs = rep_pairs;
        skipped = rep_skipped;
        per_rep.push(ns.map(|v| v as f64));
    }
    let component = |k: usize| median(&per_rep.iter().map(|r| r[k]).collect::<Vec<_>>());
    let (decode, eval, key, batch) = (component(0), component(1), component(2), component(3));
    let genomes_f = genomes.max(1) as f64;
    vec![
        Metric::new("costmodel.eval_ns", eval / pairs.max(1) as f64),
        Metric::new("costmodel.evals", (pairs - skipped) as f64),
        Metric::new("encoding.decode_ns", decode / genomes_f),
        Metric::new("core.key_ns", key / genomes_f),
        Metric::new("core.batch_ns_per_genome", batch / genomes_f),
        Metric::new("core.pipeline_ratio", batch / eval),
        Metric::new("core.dedup_ratio", skipped as f64 / pairs.max(1) as f64),
    ]
}

/// The per-layer memo the probed searches' populations build.
fn fill_memo(specs: &[JobSpec], batches: &[(usize, Vec<Genome>)]) -> MemoEntries {
    let cache = Arc::new(ShardedFitnessCache::new(ServerConfig::default().cache_capacity));
    let problems: Vec<_> =
        specs.iter().map(|s| problem(s).with_cache(Arc::clone(&cache) as _)).collect();
    for (i, batch) in batches {
        problems[*i].evaluate_batch(batch, 1);
    }
    cache.entries()
}

fn server_probe(
    tracer: &Tracer,
    replay: &Replay<'_>,
    scratch: &Path,
) -> Result<Vec<Metric>, String> {
    if let Some(dir) = replay.checkpoint_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let server = SearchServer::new(ServerConfig {
        workers: 1,
        checkpoint_dir: replay.checkpoint_dir.map(Path::to_path_buf),
        ..Default::default()
    });
    let (mut run, mut eval, mut checkpoint, mut unattributed) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (i, spec) in replay.jobs.iter().enumerate() {
        let started = Instant::now();
        let report = server.run_job(spec);
        let ended = Instant::now();
        if report.best.is_none() {
            return Err(format!("replayed job {} found no feasible design", spec.name));
        }
        let trace = SERVER_TRACES + i as u64;
        let root = tracer.record(trace, None, "server.run_job", started, ended, 1);
        let eval_end = started + report.eval_wall;
        tracer.record(trace, Some(root), "server.eval", started, eval_end, 1);
        tracer.record(
            trace,
            Some(root),
            "server.checkpoint",
            eval_end,
            eval_end + report.checkpoint_wall,
            1,
        );
        if i < replay.warm {
            continue;
        }
        run.push(ended - started);
        eval.push(report.eval_wall);
        checkpoint.push(report.checkpoint_wall);
        unattributed.push(report.wall.saturating_sub(report.eval_wall + report.checkpoint_wall));
    }
    let n = run.len();
    // The replay's snapshots and spills must have landed, or the server
    // figures would time failed writes.
    if let Some(dir) = replay.checkpoint_dir {
        let spill = dir.join("fitness-memo.cache");
        if !spill.is_file() {
            return Err(format!("the replay left no {}", spill.display()));
        }
    }

    let journal = Journal::new(scratch.join("probe.journal"));
    let mut appends = Vec::new();
    for (i, spec) in replay.jobs.iter().enumerate() {
        let id = i as u64;
        let t0 = Instant::now();
        journal.append_submitted(id, spec).map_err(|e| format!("journal append: {e}"))?;
        let t1 = Instant::now();
        journal.append_finished(id, JobStatus::Done).map_err(|e| format!("journal append: {e}"))?;
        let t2 = Instant::now();
        appends.extend([t1 - t0, t2 - t1]);
        tracer.record(SERVER_TRACES + id, None, "server.journal_append", t0, t2, 2);
    }
    let appends_us: Vec<f64> = appends.iter().map(|d| d.as_secs_f64() * 1e6).collect();
    Ok(vec![
        Metric::over("server.run_ms", median(&to_ms(&run)), n),
        Metric::over("server.eval_ms", median(&to_ms(&eval)), n),
        Metric::over("server.checkpoint_ms", median(&to_ms(&checkpoint)), n),
        Metric::over("server.unattributed_ms", median(&to_ms(&unattributed)), n),
        Metric::over("server.journal_append_us", median(&appends_us), appends_us.len()),
    ])
}

fn spill_probe(tracer: &Tracer, memo: &MemoEntries, scratch: &Path) -> Result<Metric, String> {
    let path = scratch.join("probe-memo.cache");
    let faults = ServerConfig::default().faults;
    let mut walls = Vec::new();
    for rep in 0..REPS {
        let started = Instant::now();
        write_cache_file(&path, memo, &faults).map_err(|e| format!("spill probe: {e}"))?;
        let ended = Instant::now();
        walls.push(ended - started);
        tracer.record(
            SERVER_TRACES - 1 - rep as u64,
            None,
            "server.spill",
            started,
            ended,
            memo.len() as u64,
        );
    }
    Ok(Metric::over("server.spill_ms", median(&to_ms(&walls)), walls.len()))
}
