//! Cold- vs warm-cache search measurement (the `cache` criterion bench
//! and its report table).
//!
//! Three configurations of the *same* DiGamma search on `zoo::ncf()`:
//!
//! * **nocache** — the plain library call, every evaluation runs the
//!   cost model,
//! * **cold** — a fresh [`ShardedFitnessCache`] attached: first-run
//!   overhead (hashing + insertions) against within-run reuse (a
//!   child's changed layer whose mapping an earlier design already
//!   scored),
//! * **warm** — the cache pre-populated by an identical prior search,
//!   the service steady state for repeated/co-tenant requests: every
//!   per-layer evaluation is a hit.
//!
//! Recorded numbers (a shared 2-vCPU host, release profile,
//! `budget = 600`, `population = 16`, seed 1; medians of the criterion
//! shim's batches, three runs, after lineage reuse landed — children
//! reuse their parents' per-layer costs, so unchanged layers, elites
//! included, never reach the cache at all):
//!
//! | configuration | time/search | vs nocache |
//! |---------------|-------------|------------|
//! | nocache       | 1.75–1.94 ms | 1.00×     |
//! | cold          | 2.12–2.44 ms | 0.80–0.84× |
//! | warm          | 1.16–1.37 ms | 1.42–1.53× |
//!
//! Within one search a cold cache costs more than it saves: elites and
//! inherited layers reuse their parents' costs without a probe, so the
//! cache mostly pays its hashing and insertions. Its value is across
//! searches: a warm cache
//! (the repeated-request steady state) runs the search with **zero**
//! cost-model calls. `ncf` is the *least* favourable model for this
//! comparison: its four unique GEMM layers make single evaluations
//! nearly as cheap as the key hash; models with more unique layers or
//! pricier shapes widen the gap. For the FIFO-vs-LRU eviction numbers
//! see [`eviction_comparison`]. Reproduce with
//! `cargo bench -p digamma_bench --bench cache`.

use crate::report::Table;
use digamma::{CoOptProblem, DiGamma, DiGammaConfig, Objective};
use digamma_costmodel::Platform;
use digamma_server::{
    CacheStats, EvictionPolicy, JobAlgorithm, JobSpec, SearchServer, ServerConfig,
    ShardedFitnessCache,
};
use digamma_workload::zoo;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Search knobs shared by every configuration of the comparison.
#[derive(Debug, Clone, Copy)]
pub struct CacheBenchConfig {
    /// Design-point evaluation budget per search.
    pub budget: usize,
    /// GA population size.
    pub population_size: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CacheBenchConfig {
    fn default() -> CacheBenchConfig {
        CacheBenchConfig { budget: 600, population_size: 16, seed: 1 }
    }
}

/// One timed configuration of the comparison.
#[derive(Debug, Clone)]
pub struct CacheBenchRow {
    /// Configuration label (`nocache` / `cold` / `warm`).
    pub label: &'static str,
    /// Wall-clock of the measured search.
    pub elapsed: Duration,
    /// Best cost the search found (identical across rows by
    /// construction — memoization must not change results).
    pub best_cost: Option<f64>,
    /// Cache counters for the measured search (zeroes for `nocache`).
    pub stats: CacheStats,
}

fn problem() -> CoOptProblem {
    CoOptProblem::new(zoo::ncf(), Platform::edge(), Objective::Latency)
}

fn searcher(config: CacheBenchConfig) -> DiGamma {
    DiGamma::new(DiGammaConfig {
        population_size: config.population_size,
        seed: config.seed,
        threads: 1,
        ..Default::default()
    })
}

/// A cache sized for the comparison, pre-warmed by `warmup` identical
/// searches.
pub fn prewarmed_cache(config: CacheBenchConfig, warmup: usize) -> Arc<ShardedFitnessCache> {
    let cache = Arc::new(ShardedFitnessCache::new(1 << 18));
    for _ in 0..warmup {
        let p = problem().with_cache(Arc::clone(&cache) as _);
        searcher(config).search(&p, config.budget);
    }
    cache
}

/// Runs one search with an optional attached cache and times it.
pub fn timed_search(
    config: CacheBenchConfig,
    cache: Option<Arc<ShardedFitnessCache>>,
) -> (Duration, Option<f64>, CacheStats) {
    let mut p = problem();
    if let Some(cache) = &cache {
        p = p.with_cache(Arc::clone(cache) as _);
    }
    let before = cache.as_ref().map(|c| c.stats()).unwrap_or_default();
    let started = Instant::now();
    let result = searcher(config).search(&p, config.budget);
    let elapsed = started.elapsed();
    let after = cache.as_ref().map(|c| c.stats()).unwrap_or_default();
    let stats = CacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        insertions: after.insertions - before.insertions,
        evictions: after.evictions - before.evictions,
        entries: after.entries,
    };
    (elapsed, result.best_cost(), stats)
}

/// Runs the full nocache / cold / warm comparison once.
pub fn cold_vs_warm(config: CacheBenchConfig) -> Vec<CacheBenchRow> {
    let (nocache_t, nocache_best, nocache_stats) = timed_search(config, None);
    let (cold_t, cold_best, cold_stats) =
        timed_search(config, Some(Arc::new(ShardedFitnessCache::new(1 << 18))));
    let warm_cache = prewarmed_cache(config, 1);
    let (warm_t, warm_best, warm_stats) = timed_search(config, Some(warm_cache));
    vec![
        CacheBenchRow {
            label: "nocache",
            elapsed: nocache_t,
            best_cost: nocache_best,
            stats: nocache_stats,
        },
        CacheBenchRow { label: "cold", elapsed: cold_t, best_cost: cold_best, stats: cold_stats },
        CacheBenchRow { label: "warm", elapsed: warm_t, best_cost: warm_best, stats: warm_stats },
    ]
}

/// Renders rows as a report table (label | ms | hit-rate | speedup).
pub fn table(rows: &[CacheBenchRow]) -> Table {
    let mut table = Table::new(
        "Fitness cache: cold vs warm search (ncf, edge, latency)",
        vec!["time (ms)".into(), "hit rate".into(), "speedup vs nocache".into()],
    );
    let baseline = rows.first().map_or(0.0, |r| r.elapsed.as_secs_f64());
    for row in rows {
        let secs = row.elapsed.as_secs_f64();
        table.push_row(
            row.label,
            vec![
                format!("{:.2}", secs * 1e3),
                format!("{:.0}%", row.stats.hit_rate() * 100.0),
                format!("{:.2}x", baseline / secs.max(1e-12)),
            ],
        );
    }
    table
}

/// Knobs for the FIFO-vs-LRU eviction comparison: a long multi-model
/// batch where a *hot* model (ncf, identical spec every round) recurs
/// between *churn* jobs (a fresh-seeded CNN search per round, whose keys
/// are never reused), against a cache deliberately smaller than the
/// batch's working set.
#[derive(Debug, Clone, Copy)]
pub struct EvictionBenchConfig {
    /// Total cache capacity in reports (small enough to force eviction).
    pub capacity: usize,
    /// Hot/churn rounds in the batch.
    pub rounds: usize,
    /// Per-job sample budget.
    pub budget: usize,
    /// Per-job GA population.
    pub population_size: usize,
}

impl Default for EvictionBenchConfig {
    fn default() -> EvictionBenchConfig {
        EvictionBenchConfig { capacity: 4096, rounds: 6, budget: 400, population_size: 12 }
    }
}

/// One policy's outcome on the eviction batch.
#[derive(Debug, Clone)]
pub struct EvictionBenchRow {
    /// The eviction policy measured.
    pub policy: EvictionPolicy,
    /// Wall-clock of the whole batch.
    pub elapsed: Duration,
    /// Mean cache hit rate of the *hot* (repeated ncf) jobs after the
    /// first round — the number eviction quality shows up in.
    pub hot_hit_rate: f64,
    /// Aggregate cache counters for the batch.
    pub stats: CacheStats,
}

/// Runs the recurring-hot-model batch under each eviction policy.
///
/// Recorded numbers (this container, release profile, defaults:
/// capacity 4096, 6 rounds, budget 400, population 12, 2026-07-29):
///
/// | policy | hot-job hit rate (rounds ≥ 1) | overall hit rate | evictions | batch wall |
/// |--------|-------------------------------|------------------|-----------|------------|
/// | fifo   | 89%                           | 61%              | 4039      | 0.06 s     |
/// | lru    | **100%**                      | 64%              | 3263      | 0.04 s     |
///
/// FIFO ages the hot model's entries out as churn jobs insert, so each
/// recurrence re-misses part of its working set; LRU's per-hit recency
/// refresh keeps the recurring spec fully resident — a pure 100% hit
/// rate every round — and evicts strictly from the churn. (Within a
/// single never-repeated search the two tie: GA elites re-reference
/// *recent* keys, which both policies retain; the gap opens only under
/// cross-job competition.) Select per service via the manifest's
/// `[server] eviction = lru` or `--eviction lru`. Reproduce with
/// `cargo bench -p digamma_bench --bench cache`.
pub fn eviction_comparison(config: EvictionBenchConfig) -> Vec<EvictionBenchRow> {
    let mut jobs = Vec::new();
    for round in 0..config.rounds {
        let mut hot = JobSpec::new(
            format!("hot-ncf-{round}"),
            zoo::ncf(),
            Platform::edge(),
            Objective::Latency,
            JobAlgorithm::DiGamma,
        );
        hot.budget = config.budget;
        hot.population_size = config.population_size;
        hot.seed = 1; // identical search every round: its keys recur
        jobs.push(hot);
        let mut churn = JobSpec::new(
            format!("churn-resnet-{round}"),
            zoo::resnet18(),
            Platform::edge(),
            Objective::Latency,
            JobAlgorithm::DiGamma,
        );
        churn.budget = config.budget;
        churn.population_size = config.population_size;
        churn.seed = 1000 + round as u64; // fresh keys every round: pure churn
        jobs.push(churn);
    }

    [EvictionPolicy::Fifo, EvictionPolicy::Lru]
        .into_iter()
        .map(|policy| {
            let server = SearchServer::new(ServerConfig {
                workers: 1, // deterministic arrival order
                cache_capacity: config.capacity,
                // This benchmark isolates the *per-layer* cache's
                // eviction behaviour; the genome memo above it would
                // absorb the hot jobs' recurrence entirely.
                genome_cache_capacity: 0,
                eviction: policy,
                ..ServerConfig::default()
            });
            let started = Instant::now();
            let reports = server.run(&jobs);
            let elapsed = started.elapsed();
            let hot_rates: Vec<f64> = reports
                .iter()
                .filter(|r| r.name.starts_with("hot-") && r.name != "hot-ncf-0")
                .map(digamma_server::JobReport::cache_hit_rate)
                .collect();
            let hot_hit_rate = hot_rates.iter().sum::<f64>() / hot_rates.len().max(1) as f64;
            EvictionBenchRow {
                policy,
                elapsed,
                hot_hit_rate,
                stats: server.cache_stats().expect("cache enabled"),
            }
        })
        .collect()
}

/// Renders eviction rows as a report table.
pub fn eviction_table(rows: &[EvictionBenchRow]) -> Table {
    let mut table = Table::new(
        "Fitness cache eviction: recurring hot model vs churn (capacity-bound)",
        vec![
            "hot hit rate".into(),
            "overall hit rate".into(),
            "evictions".into(),
            "wall (s)".into(),
        ],
    );
    for row in rows {
        table.push_row(
            row.policy.to_string(),
            vec![
                format!("{:.0}%", row.hot_hit_rate * 100.0),
                format!("{:.0}%", row.stats.hit_rate() * 100.0),
                row.stats.evictions.to_string(),
                format!("{:.2}", row.elapsed.as_secs_f64()),
            ],
        );
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> CacheBenchConfig {
        CacheBenchConfig { budget: 160, population_size: 12, seed: 3 }
    }

    #[test]
    fn all_configurations_find_the_same_design() {
        let rows = cold_vs_warm(quick());
        assert_eq!(rows.len(), 3);
        let costs: Vec<u64> =
            rows.iter().map(|r| r.best_cost.expect("feasible").to_bits()).collect();
        assert!(costs.windows(2).all(|w| w[0] == w[1]), "memoization changed results: {rows:?}");
    }

    #[test]
    fn warm_runs_are_pure_hits() {
        let rows = cold_vs_warm(quick());
        let warm = &rows[2];
        assert_eq!(warm.stats.misses, 0, "a repeated search must be fully memoized");
        assert!(warm.stats.hits > 0);
        let cold = &rows[1];
        assert!(cold.stats.hits > 0, "within-run reuse (elites) hits even on a cold cache");
        assert!(cold.stats.insertions > 0);
    }

    #[test]
    fn table_renders_every_row() {
        let rows = cold_vs_warm(quick());
        let rendered = table(&rows).to_markdown();
        for label in ["nocache", "cold", "warm"] {
            assert!(rendered.contains(label), "{rendered}");
        }
    }

    #[test]
    fn eviction_comparison_exercises_both_policies_under_pressure() {
        let rows = eviction_comparison(EvictionBenchConfig {
            capacity: 512,
            rounds: 3,
            budget: 120,
            population_size: 8,
        });
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].policy, EvictionPolicy::Fifo);
        assert_eq!(rows[1].policy, EvictionPolicy::Lru);
        for row in &rows {
            assert!(row.stats.evictions > 0, "capacity must bind: {row:?}");
            assert!((0.0..=1.0).contains(&row.hot_hit_rate));
        }
        let rendered = eviction_table(&rows).to_markdown();
        assert!(rendered.contains("fifo") && rendered.contains("lru"), "{rendered}");
    }
}
