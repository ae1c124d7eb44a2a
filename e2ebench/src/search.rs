//! The `search` workload: in-process `DiGamma::search` with one
//! evaluation thread per search, on the seeded cases of [`search_jobs`],
//! repeated in whole passes for the run's duration. Like the serve
//! workloads' clients, [`CLIENTS`] client threads share each pass, each
//! taking the next case when its search ends, so the work spreads over
//! both cores of the reference machine, whose speeds drift apart.
//! Nothing reaches the server or the network.

use crate::checks;
use crate::jobs::{problem, search_jobs, searcher, Job};
use crate::ladder::{self, Replay};
use crate::report::{Metric, Outcome};
use crate::serve::{self, CLIENTS};
use crate::spans::Tracer;
use crate::stats::{geomean, median, median_s, proc_status_mb, quantile};
use crate::Ctx;
use digamma::{CoOptProblem, SearchResult};
use digamma_server::JobSpec;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Set-ups per run, for `setup_s`.
const SETUP_REPEATS: usize = 9;

/// `f(0), …, f(n - 1)` on [`CLIENTS`] threads, each taking the next
/// index when its call ends; the results in index order.
fn on_clients<T: Send>(n: usize, f: &(dyn Fn(usize) -> T + Sync)) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                if i >= n {
                    break;
                }
                let value = f(i);
                done.lock().expect("result list poisoned").push((i, value));
            });
        }
    });
    let mut done = done.into_inner().expect("result list poisoned");
    done.sort_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, value)| value).collect()
}

/// A cold start: rebuild the problems and evaluate each initial
/// population, the first answer a fresh process can give.
fn cold_start(specs: &[JobSpec]) -> Duration {
    let started = Instant::now();
    on_clients(specs.len(), &|i| {
        let spec = &specs[i];
        std::hint::black_box(searcher(spec).init(&problem(spec), spec.budget).best_cost())
    });
    started.elapsed()
}

/// FNV-1a over the result's sample count, best cost, best design, and
/// whole best-so-far history: equal fingerprints mean bit-identical
/// searches.
pub fn fingerprint(result: &SearchResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(&(result.samples as u64).to_le_bytes());
    if let Some(best) = &result.best {
        eat(&best.cost.to_bits().to_le_bytes());
        eat(best.genome.to_text().as_bytes());
    }
    for cost in &result.history {
        eat(&cost.to_bits().to_le_bytes());
    }
    h
}

/// One search driven by `init`/`step` with a span per generation; the
/// same calls `DiGamma::search` makes, so the result is identical.
fn traced_search(
    spec: &JobSpec,
    problem: &CoOptProblem,
    tracer: &Tracer,
    trace: u64,
) -> SearchResult {
    let ga = searcher(spec);
    let started = Instant::now();
    let eval_before = problem.eval_wall();
    let mut state = ga.init(problem, spec.budget);
    let mut spans = vec![("ga.init", started, Instant::now(), problem.eval_wall() - eval_before)];
    loop {
        let eval_before = problem.eval_wall();
        let step_started = Instant::now();
        if !ga.step(problem, &mut state, spec.budget) {
            break;
        }
        spans.push(("ga.step", step_started, Instant::now(), problem.eval_wall() - eval_before));
    }
    let result = state.into_result();
    let root = tracer.record(trace, None, "search", started, Instant::now(), 1);
    for (name, start, end, eval) in spans {
        let id = tracer.record(trace, Some(root), name, start, end, 1);
        tracer.record(trace, Some(id), "core.evaluate_batch", start, start + eval, 1);
    }
    result
}

/// Runs the workload.
///
/// # Errors
///
/// Returns failures to build the inputs or to run the traced probes.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let jobs = search_jobs(ctx.seed);
    let specs: Vec<JobSpec> = jobs.iter().map(Job::spec).collect::<Result<_, _>>()?;
    let mut outcome = Outcome::default();

    // Set-up: build the problems and run one warm-up pass. The first
    // set-up precedes the measurement; the other repeats are spread over
    // it, so their median sees the same machine as the passes. Every
    // repeat must reproduce the first bit for bit.
    let set_up = || {
        let started = Instant::now();
        let problems: Vec<CoOptProblem> = on_clients(specs.len(), &|i| problem(&specs[i]));
        let results: Vec<SearchResult> =
            on_clients(specs.len(), &|i| searcher(&specs[i]).search(&problems[i], specs[i].budget));
        (started.elapsed(), problems, results)
    };
    let (first_setup, problems, reference) = set_up();
    let prints: Vec<u64> = reference.iter().map(fingerprint).collect();
    let mut setups = vec![first_setup];
    let set_up_again = |outcome: &mut Outcome, setups: &mut Vec<Duration>| {
        let (wall, _, results) = set_up();
        let again: Vec<u64> = results.iter().map(fingerprint).collect();
        let label = format!("set-up {}", setups.len());
        outcome.problems.extend(checks::searches_repeat(&prints, &again, &label));
        setups.push(wall);
    };

    // Measurement: whole passes until the deadline, each followed by a
    // cold start (outside the pass), so `recover_s` sees the same machine
    // as the passes. With tracing on, even passes are traced and odd ones
    // are not, so the two can be compared for the tracing overhead.
    let mut walls: Vec<Vec<Duration>> = vec![Vec::new(); specs.len()];
    let mut traced_walls: Vec<Vec<Duration>> = vec![Vec::new(); specs.len()];
    let mut pass_walls = Vec::new();
    let mut latencies = Vec::new();
    let mut recovers = Vec::new();
    let mut samples_per_pass = 0;
    let started = Instant::now();
    let deadline = started + ctx.seconds;
    let mut pass = 0;
    let min_passes = if ctx.tracer.enabled() { 2 } else { 1 };
    while pass < min_passes || Instant::now() < deadline {
        let traced = ctx.tracer.enabled() && pass % 2 == 0;
        let mut observed = Vec::new();
        let pass_started = Instant::now();
        let searched = on_clients(specs.len(), &|i| {
            let (spec, problem) = (&specs[i], &problems[i]);
            let search_started = Instant::now();
            let result = if traced {
                traced_search(spec, problem, &ctx.tracer, (pass * specs.len() + i) as u64)
            } else {
                searcher(spec).search(problem, spec.budget)
            };
            (search_started.elapsed(), result)
        });
        let pass_wall = pass_started.elapsed();
        samples_per_pass = 0;
        for (i, (wall, result)) in searched.into_iter().enumerate() {
            let bucket = if traced { &mut traced_walls } else { &mut walls };
            bucket[i].push(wall);
            latencies.push(wall.as_secs_f64() * 1e3);
            samples_per_pass += result.samples;
            outcome.attempted += 1;
            outcome.failed += usize::from(result.best.is_none());
            observed.push(fingerprint(&result));
        }
        pass_walls.push(pass_wall);
        recovers.push(cold_start(&specs));
        outcome.problems.extend(checks::searches_repeat(
            &prints,
            &observed,
            &format!("pass {pass}"),
        ));
        pass += 1;
        let due = ctx.seconds.mul_f64(setups.len() as f64 / SETUP_REPEATS as f64);
        if setups.len() < SETUP_REPEATS && started.elapsed() >= due {
            set_up_again(&mut outcome, &mut setups);
        }
    }
    while setups.len() < SETUP_REPEATS {
        set_up_again(&mut outcome, &mut setups);
    }

    let costs: Vec<f64> = reference.iter().filter_map(SearchResult::best_cost).collect();
    let passes = pass_walls.len();
    // Throughput of the median pass; latency percentiles over every search.
    let pass_s = median_s(&pass_walls);
    let me = std::process::id();
    outcome.end_to_end = vec![
        Metric::over("setup_s", median_s(&setups), setups.len()),
        Metric::new("peak_rss_mb", proc_status_mb(me, "VmHWM")?),
        Metric::over("best_cost_geomean", geomean(&costs), costs.len()),
        Metric::over("search_samples_per_s", samples_per_pass as f64 / pass_s, passes),
        Metric::over("jobs_per_s", specs.len() as f64 / pass_s, passes),
        Metric::over("job_p50_ms", median(&latencies), latencies.len()),
        Metric::over("job_p90_ms", quantile(&latencies, 0.9), latencies.len()),
        Metric::new("state_mb", proc_status_mb(me, "VmRSS")?),
        Metric::over("recover_s", median_s(&recovers), recovers.len()),
    ];

    if ctx.tracer.enabled() {
        // Per case, traced over untraced median wall; geometric mean.
        let ratios: Vec<f64> =
            walls.iter().zip(&traced_walls).map(|(u, t)| median_s(t) / median_s(u)).collect();
        let overhead = (geomean(&ratios) - 1.0) * 100.0;
        let mut layers = ladder::measure(
            &ctx.tracer,
            &specs,
            &Replay { jobs: &specs, warm: 0, checkpoint_dir: None },
            None,
            &ctx.out,
        )?;
        layers.extend(
            serve::http_rung(ctx, &jobs)?.into_iter().filter(|m| m.name != "trace.overhead_pct"),
        );
        layers.push(Metric::new("trace.overhead_pct", overhead));
        outcome.per_layer = layers;
    }
    Ok(outcome)
}
