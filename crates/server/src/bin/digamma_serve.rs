//! `digamma-serve`: run a manifest of co-optimization jobs as a batch
//! service.
//!
//! ```text
//! digamma-serve --manifest jobs.txt [--workers N] [--cache-capacity N]
//!               [--checkpoint-dir DIR]
//! ```
//!
//! Reads the job manifest (see [`digamma_server::parse_manifest`] for
//! the format; the flags above are the only service settings),
//! schedules every job across the worker pool with the shared fitness
//! cache, and prints one report line per job plus the aggregate cache
//! counters. With `--checkpoint-dir`, GA jobs snapshot periodically and
//! a re-invocation after a kill resumes them bit-identically.
//!
//! For a network front-end over the same machinery (submit jobs over
//! HTTP while searches run, stream progress, cancel), see
//! `digamma-netd` in the `digamma-net` crate.

use digamma_server::{parse_manifest, SearchServer, ServerConfig};
use std::path::PathBuf;
use std::process::ExitCode;

/// Parses the flags into the manifest path and the service settings.
fn parse_args(args: &[String]) -> Result<(PathBuf, ServerConfig), String> {
    let mut manifest: Option<PathBuf> = None;
    let mut config = ServerConfig::default();
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| {
            iter.next().map(String::as_str).ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--manifest" => manifest = Some(PathBuf::from(value("--manifest")?)),
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
            "--checkpoint-dir" => {
                config.checkpoint_dir = Some(PathBuf::from(value("--checkpoint-dir")?));
            }
            other => return Err(format!("unknown flag {other:?} (see --help in the README)")),
        }
    }
    let manifest = manifest.ok_or_else(|| "--manifest <path> is required".to_owned())?;
    if config.workers == 0 {
        return Err("--workers must be at least 1".to_owned());
    }
    Ok((manifest, config))
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (manifest, config) = parse_args(&args)?;
    let text = std::fs::read_to_string(&manifest)
        .map_err(|e| format!("cannot read {}: {e}", manifest.display()))?;
    let jobs = parse_manifest(&text).map_err(|e| format!("bad manifest: {e}"))?;
    if let Some(dir) = &config.checkpoint_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create checkpoint dir {}: {e}", dir.display()))?;
    }

    let server = SearchServer::new(config);
    println!(
        "digamma-serve: {} job(s), {} worker(s), cache capacity {}",
        jobs.len(),
        server.config().workers,
        server.config().cache_capacity
    );
    let started = std::time::Instant::now();
    let reports = server.run(&jobs);
    for report in &reports {
        println!("{}", report.summary());
    }
    if let Some(stats) = server.cache_stats() {
        println!(
            "cache: {} entries | {} hits / {} misses ({:.0}% hit) | {} insertions | {} evictions",
            stats.entries,
            stats.hits,
            stats.misses,
            stats.hit_rate() * 100.0,
            stats.insertions,
            stats.evictions
        );
    }
    println!("total wall: {:.2}s", started.elapsed().as_secs_f64());
    let failed: Vec<&str> =
        reports.iter().filter(|r| r.best.is_none()).map(|r| r.name.as_str()).collect();
    if !failed.is_empty() {
        return Err(format!("job(s) found no feasible design: {}", failed.join(", ")));
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("digamma-serve: {message}");
            ExitCode::FAILURE
        }
    }
}
