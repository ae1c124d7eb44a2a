//! The evaluator perf harness: fixed seeded workloads → `BENCH_eval.json`.
//!
//! Every perf claim in this repository is anchored to the cost model's
//! evaluation throughput (the paper's whole speed argument rests on the
//! MAESTRO-style evaluation block being cheap to call millions of
//! times). This module measures it reproducibly and emits a JSON file —
//! `BENCH_eval.json` — that seeds the repo's performance trajectory;
//! future perf PRs are judged against it.
//!
//! Three fixed seeded workloads (`gemm`, `vgg16`, `bert`) are measured
//! by a **memo** section — a cold search followed by an identical warm
//! search on a shared server, recording the genome-memo / per-layer-cache
//! / batch-dedupe counters and the warm-over-cold wall-clock ratio — and
//! by three A/B sections. Each A/B section times the same seeded work
//! with a feature off and on through one measurement (`ab_ratio`),
//! behind a bit-identity gate (a ratio measured on diverging results
//! would be meaningless), and emits one [`AbRow`] per workload:
//!
//! * **instrumentation** and **tracing** — `CoOptProblem::evaluate_batch`
//!   on a bare problem (off) vs one with an [`EvalHooks`] attached (on):
//!   metric handles and a *disarmed* [`FailSet`], the hooks every served
//!   job carries without a trace, and the same hooks plus sampled eval
//!   spans recording into a live [`Tracer`]. They guard the promise that
//!   the hooked arm stays within a few percent of the bare one, and that
//!   the ability to inject faults costs every production batch at most
//!   one relaxed atomic load.
//! * **analytics** — a full seeded `DiGamma::search` (unit
//!   `design-points`) with [`digamma::DiGammaConfig::analytics`] off vs
//!   on. The analytics path draws no RNG, so the gate is the whole
//!   best-so-far trajectory, not just a batch of evaluations.
//!
//! The raw cost-model rung (ns per `Evaluator::evaluate` call) has no
//! A/B section: the cost model has one path, and the end-to-end
//! benchmark reports its per-call time as `costmodel.eval_ns`.
//!
//! `--mode smoke` shrinks the budgets so CI can assert the file is
//! produced and well-formed in seconds; recorded numbers come from
//! `--mode full` on a release build (see the README's Performance
//! section).

use digamma::{CoOptProblem, DiGamma, DiGammaConfig, EvalHooks, Objective};
use digamma_costmodel::Platform;
use digamma_encoding::Genome;
use digamma_obs::{
    json_num, json_str, parse_json, FailSet, JobTrace, JsonValue, MetricsRegistry, SpanContext,
    Tracer,
};
use digamma_server::{JobAlgorithm, JobReport, JobSpec, SearchServer, ServerConfig};
use digamma_workload::{zoo, Layer, Model};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// The `schema` value [`render_json`] writes.
const SCHEMA: &str = "digamma-bench-eval/8";

/// Every field of an A/B row, in render order.
const AB_FIELDS: [&str; 7] =
    ["workload", "unit", "evals", "off_per_sec", "on_per_sec", "ratio", "bit_identical"];

/// Every field of a memo row, in render order.
const MEMO_FIELDS: [&str; 9] = [
    "workload",
    "cold_wall_ms",
    "warm_wall_ms",
    "warm_speedup",
    "cold_genome_hits",
    "warm_genome_hit_rate",
    "cache_hits",
    "cache_misses",
    "dedup_skipped",
];

/// The A/B sections, in run and render order.
const AB_SECTIONS: [&str; 3] = ["instrumentation", "tracing", "analytics"];

/// Harness knobs. `full()` is what recorded numbers use; `smoke()` is
/// the CI-sized variant.
#[derive(Debug, Clone)]
pub struct PerfConfig {
    /// Label recorded in the output (`full` or `smoke`).
    pub mode: String,
    /// Target `(layer, mapping)` evaluations per workload per path.
    pub evals_per_workload: usize,
    /// Timing repeats: each A/B section runs a fixed multiple of this
    /// many ABBA quartets.
    pub repeats: usize,
    /// Search budget for the memo and analytics measurements.
    pub memo_budget: usize,
    /// GA population for the memo and analytics measurements.
    pub memo_population: usize,
    /// RNG seed for mapping generation and the searches.
    pub seed: u64,
}

impl PerfConfig {
    /// The recorded-numbers configuration.
    pub fn full() -> PerfConfig {
        PerfConfig {
            mode: "full".to_owned(),
            evals_per_workload: 4096,
            repeats: 5,
            memo_budget: 600,
            memo_population: 20,
            seed: 7,
        }
    }

    /// The CI smoke configuration: seconds, not minutes.
    pub fn smoke() -> PerfConfig {
        PerfConfig {
            mode: "smoke".to_owned(),
            evals_per_workload: 64,
            repeats: 2,
            memo_budget: 48,
            memo_population: 8,
            seed: 7,
        }
    }
}

/// Memo-layer effectiveness for one workload (cold job then identical
/// warm job on one server).
#[derive(Debug, Clone)]
pub struct MemoPerf {
    /// Workload name.
    pub workload: String,
    /// Cold-search wall time in milliseconds.
    pub cold_wall_ms: f64,
    /// Warm (identical rerun) wall time in milliseconds.
    pub warm_wall_ms: f64,
    /// `cold_wall_ms / warm_wall_ms`.
    pub warm_speedup: f64,
    /// Genome-memo hits in the cold job (elite recurrence).
    pub cold_genome_hits: u64,
    /// Genome-memo hit rate of the warm job (expected ≈ 1).
    pub warm_genome_hit_rate: f64,
    /// Per-layer cache hits across both jobs.
    pub cache_hits: u64,
    /// Per-layer cache misses across both jobs.
    pub cache_misses: u64,
    /// Batch-local dedupe skips across both jobs.
    pub dedup_skipped: u64,
}

/// One A/B comparison: the same seeded work for one workload, timed with
/// a feature off and on. Every A/B section emits these rows.
#[derive(Debug, Clone)]
pub struct AbRow {
    /// Workload name (`gemm` / `vgg16` / `bert`).
    pub workload: String,
    /// What `evals` counts: `layer-evals` or `design-points`.
    pub unit: &'static str,
    /// Units of work in one timed call (one evaluation sweep, batch or
    /// search).
    pub evals: usize,
    /// Off-path throughput in units per second (fastest off call).
    pub off_per_sec: f64,
    /// On-path throughput in units per second (`off_per_sec / ratio`).
    pub on_per_sec: f64,
    /// Median over the ABBA quartets of on-path time over off-path
    /// time: above 1 the on path is slower by `ratio - 1`.
    pub ratio: f64,
    /// Whether both paths produced bit-identical results (a `false` here
    /// voids the row).
    pub bit_identical: bool,
}

impl AbRow {
    fn new(
        workload: &str,
        unit: &'static str,
        evals: usize,
        bit_identical: bool,
        (off_ns, ratio): (f64, f64),
    ) -> AbRow {
        let off_per_sec = evals as f64 / (off_ns / 1e9);
        AbRow {
            workload: workload.to_owned(),
            unit,
            evals,
            off_per_sec,
            on_per_sec: off_per_sec / ratio,
            ratio,
            bit_identical,
        }
    }
}

/// The full harness output.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// The configuration that produced it.
    pub config: PerfConfig,
    /// Memo effectiveness per workload.
    pub memo: Vec<MemoPerf>,
    /// The A/B sections in render order: `(name, one row per workload)`.
    pub sections: Vec<(&'static str, Vec<AbRow>)>,
}

/// The three fixed workloads the harness sweeps.
pub fn workloads() -> Vec<Model> {
    vec![Model::new("gemm", vec![Layer::gemm("gemm", 256, 128, 256)]), zoo::vgg16(), zoo::bert()]
}

/// Times `off` against `on` and returns `(fastest off call in ns, median
/// on/off time ratio)`.
///
/// The deltas worth measuring are often ≤1%, far below run-to-run
/// machine drift, so the comparison is paired: each of `quartets`
/// iterations times an off/on/on/off quartet of passes, each pass `reps`
/// calls (so scheduler hiccups amortize), and contributes one ratio of
/// summed on time over summed off time. Any linear-in-time drift such
/// as turbo decay contributes equally to both sides of an ABBA quartet
/// and cancels exactly, where plain alternation leaves a bimodal ratio
/// distribution whose median wobbles between modes; and the median
/// keeps outlier quartets from deciding the result the way they decide
/// independent minima.
fn ab_ratio(
    quartets: usize,
    reps: usize,
    mut off: impl FnMut(),
    mut on: impl FnMut(),
) -> (f64, f64) {
    let reps = reps.max(1);
    let time = |pass: &mut dyn FnMut()| {
        let start = Instant::now();
        for _ in 0..reps {
            pass();
        }
        start.elapsed().as_nanos() as f64 / reps as f64
    };
    let mut off_ns = f64::INFINITY;
    let mut ratios = Vec::with_capacity(quartets.max(1));
    for _ in 0..quartets.max(1) {
        let off_a = time(&mut off);
        let on_a = time(&mut on);
        let on_b = time(&mut on);
        let off_b = time(&mut off);
        off_ns = off_ns.min(off_a.min(off_b));
        ratios.push((on_a + on_b) / (off_a + off_b));
    }
    ratios.sort_by(f64::total_cmp);
    (off_ns, ratios[ratios.len() / 2])
}

fn measure_memo(model: &Model, config: &PerfConfig) -> MemoPerf {
    let server = SearchServer::new(ServerConfig { workers: 1, ..ServerConfig::default() });
    let job = |name: &str| {
        let mut spec = JobSpec::new(
            name,
            model.clone(),
            Platform::edge(),
            digamma::Objective::Latency,
            JobAlgorithm::DiGamma,
        );
        spec.budget = config.memo_budget;
        spec.population_size = config.memo_population;
        spec.seed = config.seed;
        spec
    };
    let cold: JobReport = server.run_job(&job("cold"));
    let warm: JobReport = server.run_job(&job("warm"));
    let cold_wall_ms = cold.wall.as_secs_f64() * 1e3;
    let warm_wall_ms = warm.wall.as_secs_f64() * 1e3;
    MemoPerf {
        workload: model.name().to_owned(),
        cold_wall_ms,
        warm_wall_ms,
        warm_speedup: cold_wall_ms / warm_wall_ms.max(1e-9),
        cold_genome_hits: cold.genome_hits,
        warm_genome_hit_rate: warm.genome_hit_rate(),
        cache_hits: cold.cache_hits + warm.cache_hits,
        cache_misses: cold.cache_misses + warm.cache_misses,
        dedup_skipped: cold.dedup_skipped + warm.dedup_skipped,
    }
}

/// `instrumentation` and `tracing`: the same seeded genomes through `evaluate_batch` on a bare problem (off) and on one
/// with `hooks` attached (on). No caches and no memo on either problem:
/// the measurement isolates the hooks, not the memo layers.
fn measure_hook(model: &Model, config: &PerfConfig, hooks: EvalHooks) -> AbRow {
    let platform = Platform::edge();
    let unique = model.unique_layers();
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let count = config.evals_per_workload.div_ceil(unique.len()).max(1);
    let genomes: Vec<Genome> =
        (0..count).map(|_| Genome::random(&mut rng, &unique, &platform, 2)).collect();
    let off = CoOptProblem::new(model.clone(), platform.clone(), Objective::Latency);
    let on =
        CoOptProblem::new(model.clone(), platform, Objective::Latency).with_hooks(Arc::new(hooks));

    let checksum = |problem: &CoOptProblem| {
        problem.evaluate_batch(&genomes, 1).iter().fold(0u64, |acc, e| {
            acc.wrapping_mul(31)
                .wrapping_add(e.cost.to_bits())
                .wrapping_add(e.latency_cycles.to_bits())
                .wrapping_add(e.energy_pj.to_bits())
        })
    };
    let bit_identical = checksum(&off) == checksum(&on);
    let timing = ab_ratio(
        config.repeats * 8,
        2,
        || drop(black_box(off.evaluate_batch(&genomes, 1))),
        || drop(black_box(on.evaluate_batch(&genomes, 1))),
    );
    AbRow::new(model.name(), "layer-evals", genomes.len() * unique.len(), bit_identical, timing)
}

/// `analytics`: a complete seeded [`DiGamma::search`] with analytics off
/// vs on. The budget reuses the memo knobs — analytics cost scales with
/// generations, and the memo search is the harness's canonical "whole
/// search" size. Resolving a ≤1% delta against whole searches takes
/// more quartets than the `evaluate_batch` sections.
fn measure_analytics(model: &Model, config: &PerfConfig) -> AbRow {
    let problem = CoOptProblem::new(model.clone(), Platform::edge(), Objective::Latency);
    let budget = config.memo_budget;
    let search = |analytics: bool| {
        DiGamma::new(DiGammaConfig {
            population_size: config.memo_population,
            threads: 1,
            analytics,
            seed: config.seed,
            ..DiGammaConfig::default()
        })
        .search(&problem, budget)
    };

    // The whole best-so-far trajectory must match: any divergence means
    // the analytics path consumed RNG or reordered the search.
    let fingerprint = |result: &digamma::SearchResult| {
        let mut acc = result.samples as u64;
        for cost in &result.history {
            acc = acc.wrapping_mul(31).wrapping_add(cost.to_bits());
        }
        if let Some(best) = &result.best {
            acc = acc.wrapping_mul(31).wrapping_add(best.cost.to_bits());
        }
        acc
    };
    let off_result = search(false);
    let bit_identical = fingerprint(&off_result) == fingerprint(&search(true));
    let timing = ab_ratio(
        config.repeats * 24,
        4,
        || drop(black_box(search(false))),
        || drop(black_box(search(true))),
    );
    AbRow::new(model.name(), "design-points", off_result.samples, bit_identical, timing)
}

/// Runs the full harness.
pub fn run(config: &PerfConfig) -> PerfReport {
    let models = workloads();
    let rows = |measure: &dyn Fn(&Model) -> AbRow| models.iter().map(measure).collect::<Vec<_>>();
    let memo = models.iter().map(|m| measure_memo(m, config)).collect();
    // The hooks a served job carries (metric handles and a disarmed
    // failpoint set), without and with a live trace.
    let hooks = |trace: Option<JobTrace>| {
        EvalHooks::new(&MetricsRegistry::new(), "bench", trace, Arc::new(FailSet::new()))
    };
    let instrumentation = rows(&|m| measure_hook(m, config, hooks(None)));
    let tracing = rows(&|m| {
        let run = SpanContext::generate();
        let trace =
            JobTrace { tracer: Tracer::new(), trace: run.trace, parent: Some(run.span), job: 1 };
        measure_hook(m, config, hooks(Some(trace)))
    });
    let analytics = rows(&|m| measure_analytics(m, config));
    let sections = AB_SECTIONS.into_iter().zip([instrumentation, tracing, analytics]);
    PerfReport { config: config.clone(), memo, sections: sections.collect() }
}

/// The exit-code gate: every A/B row must be bit-identical.
///
/// # Errors
///
/// Names every `section/workload` row whose on and off paths diverged —
/// their numbers are void.
pub fn check_bit_identity(report: &PerfReport) -> Result<(), String> {
    let diverged: Vec<String> = report
        .sections
        .iter()
        .flat_map(|(name, rows)| {
            rows.iter().filter(|r| !r.bit_identical).map(move |r| format!("{name}/{}", r.workload))
        })
        .collect();
    if diverged.is_empty() {
        Ok(())
    } else {
        Err(format!("on and off paths diverged in {} — numbers are void", diverged.join(", ")))
    }
}

/// Renders the report as pretty-printed JSON, one row per line.
/// Numbers are rounded to 4 decimals, so the file diffs cleanly between
/// runs of the same build.
pub fn render_json(report: &PerfReport) -> String {
    let num = |v: f64| json_num((v * 1e4).round() / 1e4);
    let row = |fields: Vec<String>, keys: &[&str]| {
        let pairs: Vec<String> =
            keys.iter().zip(fields).map(|(k, v)| format!("{}: {v}", json_str(k))).collect();
        format!("    {{{}}}", pairs.join(", "))
    };
    let mut sections: Vec<(&str, Vec<String>)> = report
        .sections
        .iter()
        .map(|(name, rows)| {
            let rows = rows.iter().map(|r| {
                let fields = vec![
                    json_str(&r.workload),
                    json_str(r.unit),
                    r.evals.to_string(),
                    num(r.off_per_sec),
                    num(r.on_per_sec),
                    num(r.ratio),
                    r.bit_identical.to_string(),
                ];
                row(fields, &AB_FIELDS)
            });
            (*name, rows.collect())
        })
        .collect();
    let memo = report.memo.iter().map(|m| {
        let fields = vec![
            json_str(&m.workload),
            num(m.cold_wall_ms),
            num(m.warm_wall_ms),
            num(m.warm_speedup),
            m.cold_genome_hits.to_string(),
            num(m.warm_genome_hit_rate),
            m.cache_hits.to_string(),
            m.cache_misses.to_string(),
            m.dedup_skipped.to_string(),
        ];
        row(fields, &MEMO_FIELDS)
    });
    sections.push(("memo", memo.collect()));

    let mut out = String::from("{\n");
    out.push_str(&format!("  \"schema\": {},\n", json_str(SCHEMA)));
    out.push_str(&format!("  \"mode\": {},\n", json_str(&report.config.mode)));
    out.push_str(&format!("  \"seed\": {}", report.config.seed));
    for (name, rows) in sections {
        out.push_str(&format!(",\n  {}: [\n{}\n  ]", json_str(name), rows.join(",\n")));
    }
    out.push_str("\n}\n");
    out
}

/// Structural check for the emitted JSON: it must parse, carry this
/// harness's schema and the other header keys and every section, and
/// every row of every section must carry every field of its row type.
/// CI runs this against the freshly-written `BENCH_eval.json`.
///
/// # Errors
///
/// Returns a description of the first structural problem found.
pub fn validate_json(text: &str) -> Result<(), String> {
    let doc = parse_json(text)?;
    let schema = doc.get("schema").and_then(JsonValue::as_str);
    if schema != Some(SCHEMA) {
        return Err(format!("schema is {schema:?}, expected {SCHEMA:?}"));
    }
    for key in ["mode", "seed"] {
        if doc.get(key).is_none() {
            return Err(format!("missing required key {key:?}"));
        }
    }
    let sections = AB_SECTIONS.iter().map(|name| (*name, &AB_FIELDS[..]));
    for (name, fields) in sections.chain([("memo", &MEMO_FIELDS[..])]) {
        let rows = match doc.get(name).and_then(JsonValue::as_arr) {
            Some(rows) if !rows.is_empty() => rows,
            _ => return Err(format!("missing or empty section {name:?}")),
        };
        for (i, row) in rows.iter().enumerate() {
            if let Some(field) = fields.iter().find(|f| row.get(f).is_none()) {
                return Err(format!("{name}[{i}] lacks {field:?}"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_emits_wellformed_json_with_identical_paths() {
        let report = run(&PerfConfig::smoke());
        let names: Vec<&str> = report.sections.iter().map(|(name, _)| *name).collect();
        assert_eq!(names, AB_SECTIONS);
        assert_eq!(report.memo.len(), 3);
        for (name, rows) in &report.sections {
            assert_eq!(rows.len(), 3, "{name}");
            for r in rows {
                assert!(r.bit_identical, "{name}/{}: on path diverged from off path", r.workload);
                assert!(r.evals > 0);
                assert!(r.off_per_sec > 0.0 && r.on_per_sec > 0.0 && r.ratio > 0.0);
            }
        }
        check_bit_identity(&report).expect("every row is bit-identical");
        for m in &report.memo {
            assert!(
                (m.warm_genome_hit_rate - 1.0).abs() < 1e-9,
                "{}: identical rerun must be all genome hits ({})",
                m.workload,
                m.warm_genome_hit_rate
            );
            assert!(m.cold_genome_hits > 0, "{}: elites must recur", m.workload);
        }
        let json = render_json(&report);
        validate_json(&json).expect("emitted JSON must be well-formed");
    }

    /// Manual probe for iterating on the analytics hot path without
    /// sitting through the full harness:
    /// `cargo test --release -p digamma_bench -- --ignored analytics_overhead_probe --nocapture`
    #[test]
    #[ignore = "manual perf probe; run --release with --nocapture"]
    fn analytics_overhead_probe() {
        for model in workloads() {
            let a = measure_analytics(&model, &PerfConfig::full());
            println!(
                "{:<8} ratio {:.4} | off {:>9.0} design-points/s | bit-identical: {}",
                a.workload, a.ratio, a.off_per_sec, a.bit_identical
            );
        }
    }

    #[test]
    fn gate_names_each_diverged_row() {
        let row = |workload: &str, bit_identical: bool| {
            AbRow::new(workload, "layer-evals", 10, bit_identical, (1e3, 1.0))
        };
        let report = |diverged: Option<&str>| PerfReport {
            config: PerfConfig::smoke(),
            memo: Vec::new(),
            sections: AB_SECTIONS
                .into_iter()
                .map(|name| (name, vec![row("gemm", true), row("bert", diverged != Some(name))]))
                .collect(),
        };
        assert_eq!(check_bit_identity(&report(None)), Ok(()));
        for name in AB_SECTIONS {
            let err = check_bit_identity(&report(Some(name))).expect_err(name);
            assert!(err.contains(&format!("{name}/bert")), "{err}");
            assert!(!err.contains("gemm"), "{err}");
        }
    }

    #[test]
    fn committed_bench_file_validates() {
        validate_json(include_str!("../../../BENCH_eval.json")).expect("committed BENCH_eval.json");
    }

    #[test]
    fn validator_rejects_structural_damage() {
        let report = run(&PerfConfig {
            evals_per_workload: 4,
            repeats: 1,
            memo_budget: 16,
            memo_population: 8,
            ..PerfConfig::smoke()
        });
        let json = render_json(&report);
        validate_json(&json).unwrap();
        assert!(validate_json(&json[..json.len() - 3]).is_err(), "truncation must fail");
        assert!(validate_json(&json.replace("\"analytics\"", "\"analytic\"")).is_err());
        assert!(validate_json(&json.replace(SCHEMA, "digamma-bench-eval/7")).is_err());
        assert!(validate_json(&json.replace("\"ratio\"", "\"ratoi\"")).is_err());
        assert!(validate_json(&json.replace("\"on_per_sec\"", "\"on\"")).is_err());
        assert!(validate_json(&json.replace("\"instrumentation\"", "\"metrics\"")).is_err());
        assert!(validate_json(&json.replace("\"cold_wall_ms\"", "\"cold\"")).is_err());
        assert!(validate_json("{\"unterminated").is_err());
        // A field deleted from every row of one section must fail even
        // though every other section's rows still carry it.
        let start = json.find("\"tracing\"").unwrap();
        let end = start + json[start..].find(']').unwrap();
        let tracing = json[start..end].replace("\"unit\": \"layer-evals\", ", "");
        let damaged = format!("{}{tracing}{}", &json[..start], &json[end..]);
        assert_ne!(damaged, json);
        assert!(validate_json(&damaged).is_err(), "tracing rows without a unit must fail");
    }
}
