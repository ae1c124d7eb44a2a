//! `perf`: the evaluator perf harness → `BENCH_eval.json`.
//!
//! ```text
//! cargo run --release -p digamma_bench --bin perf -- [--mode full|smoke] [--out BENCH_eval.json]
//! ```
//!
//! Runs the fixed seeded workloads (`gemm`, `vgg16`, `bert`) through
//! the cold/warm memo searches and the three A/B sections
//! (`instrumentation`, `tracing`, `analytics`), writes the JSON report,
//! re-validates it, and exits non-zero if any A/B row's on and off
//! paths diverged bit-wise or the file is malformed. Recorded numbers come from `--mode full` on a release
//! build; CI runs `--mode smoke`.

use digamma_bench::perfjson::{check_bit_identity, render_json, run, validate_json, PerfConfig};
use digamma_bench::Args;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = Args::parse(std::env::args().skip(1));
    let config = match args.get("mode").unwrap_or("full") {
        "full" => PerfConfig::full(),
        "smoke" => PerfConfig::smoke(),
        other => {
            eprintln!("perf: unknown --mode {other:?} (full | smoke)");
            return ExitCode::FAILURE;
        }
    };
    let out = args.get("out").unwrap_or("BENCH_eval.json").to_owned();

    let report = run(&config);
    for (section, rows) in &report.sections {
        for r in rows {
            println!(
                "{section:<15} {:<6} {:>5} {:<13} | off {:>11.0}/s | on {:>11.0}/s | ratio {:.4} | bit-identical: {}",
                r.workload, r.evals, r.unit, r.off_per_sec, r.on_per_sec, r.ratio, r.bit_identical
            );
        }
    }

    for m in &report.memo {
        println!(
            "memo            {:<6} cold {:>8.1} ms | warm {:>8.1} ms | {:.2}x | warm genome hit rate {:.3}",
            m.workload, m.cold_wall_ms, m.warm_wall_ms, m.warm_speedup, m.warm_genome_hit_rate
        );
    }

    let json = render_json(&report);
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("perf: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    let written = match std::fs::read_to_string(&out) {
        Ok(written) => written,
        Err(e) => {
            eprintln!("perf: cannot re-read {out}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = validate_json(&written) {
        eprintln!("perf: {out} is malformed: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = check_bit_identity(&report) {
        eprintln!("perf: {e}");
        return ExitCode::FAILURE;
    }
    println!("perf: wrote {out}");
    ExitCode::SUCCESS
}
