//! End-to-end benchmark of the DiGamma search library and service.
//!
//! ```text
//! e2ebench --workload search|serve-persist|serve-repeat --seed N
//!          --seconds S --trace 0|1 --netd PATH [--out DIR]
//! ```
//!
//! Runs one workload on inputs generated from `N` (`search` for `S`
//! seconds; the serve workloads a fixed number of jobs per second of
//! `S`, calibrated to take about `S`), checks its outputs, prints every metric by name with its unit, and
//! ends with one JSON line: `{"correct", "attempted", "failed",
//! "metrics"}`. An untraced run (`--trace 0`) reports the end-to-end
//! metrics; a traced run (`--trace 1`) records spans around the calls
//! the benchmark makes into each crate, writes them to `DIR`, and
//! reports the per-layer metrics and the tracing overhead. The exit
//! code is nonzero when a check fails, a job fails, or the run cannot
//! complete. `python3 e2ebench/run.py` builds everything and runs this.

mod checks;
mod jobs;
mod ladder;
mod report;
mod search;
mod serve;
mod spans;
mod stats;

use report::{check_names, render_line, render_result, END_TO_END, PER_LAYER};
use spans::Tracer;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["search", "serve-persist", "serve-repeat"];

/// What every workload receives.
pub struct Ctx {
    /// Seed of every generated input.
    pub seed: u64,
    /// The run's length: `search` measures this long; the serve
    /// workloads size their fixed job count from it.
    pub seconds: Duration,
    /// Records spans in a traced run; inert otherwise.
    pub tracer: Tracer,
    /// The `digamma-netd` binary under test.
    pub netd: PathBuf,
    /// This run's scratch directory (checkpoint dirs, logs, probes).
    pub out: PathBuf,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    netd: PathBuf,
    out: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut netd = None;
    let mut out = PathBuf::from(".bench_out");
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => {
                return Err(format!("unknown workload {value:?}; one of {WORKLOADS:?}"))
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or("--seconds needs a positive number")?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace is 0 or 1".into()),
                });
            }
            "--netd" => netd = Some(PathBuf::from(value)),
            "--out" => out = PathBuf::from(value),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        netd: netd.ok_or("--netd is required")?,
        out,
    })
}

/// First line of a command's output, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

fn run(args: &Args) -> Result<bool, String> {
    let scratch = args.out.join(format!(
        "{}-s{}-t{}-{}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        std::process::id()
    ));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let ctx = Ctx {
        seed: args.seed,
        seconds: Duration::from_secs_f64(args.seconds),
        tracer: Tracer::new(args.trace),
        netd: args.netd.clone(),
        out: scratch.clone(),
    };
    println!(
        "# e2ebench workload={} seed={} seconds={} trace={} nproc={} rustc=\"{}\" git={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        command_line("rustc", &["--version"]),
        command_line("git", &["rev-parse", "--short=12", "HEAD"]),
    );
    let mut outcome = match args.workload.as_str() {
        "search" => search::run(&ctx)?,
        "serve-persist" => serve::run_persist(&ctx)?,
        _ => serve::run_repeat(&ctx)?,
    };

    println!("# end-to-end{}", if args.trace { " (traced run)" } else { "" });
    for m in &outcome.end_to_end {
        println!("{}", render_line(m));
    }
    let failed_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!("{:<28} {failed_frac:>16.6} ratio  (n={})", "failed_frac", outcome.attempted);
    let reported = if args.trace {
        println!("# per-layer");
        for m in &outcome.per_layer {
            println!("{}", render_line(m));
        }
        let spans = ctx.tracer.spans();
        println!("# spans: name, spans, calls, total ms, self ms");
        for (name, t) in spans::totals(&spans) {
            println!(
                "#   {name:<30} {:>7} {:>9} {:>12.3} {:>12.3}",
                t.spans,
                t.calls,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
        let path = args.out.join(format!("spans-{}-s{}.json", args.workload, args.seed));
        ctx.tracer.write_chrome(&path)?;
        println!("# {} spans written to {} (Chrome trace-event JSON)", spans.len(), path.display());
        outcome.problems.extend(check_names(&outcome.per_layer, &PER_LAYER));
        &outcome.per_layer
    } else {
        outcome.problems.extend(check_names(&outcome.end_to_end, &END_TO_END));
        &outcome.end_to_end
    };
    for problem in &outcome.problems {
        println!("# CHECK FAILED: {problem}");
    }
    let correct = outcome.problems.is_empty();
    println!("{}", render_result(correct, outcome.attempted, outcome.failed, reported));
    let _ = std::fs::remove_dir_all(&scratch);
    Ok(correct && outcome.failed == 0)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::from(1)
        }
    }
}
