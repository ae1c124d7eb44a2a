//! The fitness cache's correctness contract, attacked two ways:
//!
//! * property tests that cached and uncached evaluation agree exactly
//!   (bit-for-bit, both the per-layer `CostReport`s and the aggregated
//!   `DesignEvaluation`) over arbitrary repaired genomes — fresh random
//!   ones and damaged-then-repaired ones, the populations a real search
//!   produces, and
//! * a concurrency test where many workers hammer one small (therefore
//!   constantly evicting) shared cache and every returned evaluation is
//!   checked against the uncached truth — a torn or misfiled report
//!   would surface as a mismatch.

use digamma::{CoOptProblem, Memo, Objective};
use digamma_costmodel::Platform;
use digamma_encoding::{repair, Genome};
use digamma_server::ShardedFitnessCache;
use digamma_workload::{zoo, Dim, DimVec};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn problem() -> CoOptProblem {
    CoOptProblem::new(zoo::ncf(), Platform::edge(), Objective::Latency)
}

/// Bit-exact equality for evaluations (plain `==` would treat two NaNs
/// as different and 0.0 == -0.0 as equal; the cache must preserve bits).
fn assert_identical(a: &digamma::DesignEvaluation, b: &digamma::DesignEvaluation) {
    assert_eq!(a.cost.to_bits(), b.cost.to_bits());
    assert_eq!(a.feasible, b.feasible);
    assert_eq!(a.latency_cycles.to_bits(), b.latency_cycles.to_bits());
    assert_eq!(a.energy_pj.to_bits(), b.energy_pj.to_bits());
    assert_eq!(a.area_um2.to_bits(), b.area_um2.to_bits());
    assert_eq!(a.pe_area_um2.to_bits(), b.pe_area_um2.to_bits());
    assert_eq!(a.hw, b.hw);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Fresh random (always repaired) genomes: evaluating through a
    /// cache — twice, so the second pass replays memoized reports —
    /// must match uncached evaluation exactly.
    #[test]
    fn cached_evaluation_is_bit_identical(seed in 0u64..10_000) {
        let uncached = problem();
        let cached = problem().with_cache(Arc::new(ShardedFitnessCache::new(4096)));
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = Genome::random(&mut rng, uncached.unique_layers(), uncached.platform(), 2);
        let truth = uncached.evaluate(&g);
        let miss_pass = cached.evaluate(&g);
        let hit_pass = cached.evaluate(&g);
        assert_identical(&truth, &miss_pass);
        assert_identical(&truth, &hit_pass);
    }

    /// Damaged-then-repaired genomes (the population a search actually
    /// produces): same contract, including the eviction path via a
    /// cache far too small for the working set.
    #[test]
    fn damaged_repaired_genomes_agree_even_under_eviction(
        seed in 0u64..10_000,
        fanout in 0u64..1_000_000,
        tile in 0u64..1_000_000,
    ) {
        let uncached = problem();
        let tiny_cache = Arc::new(ShardedFitnessCache::with_shards(2, 1));
        let cached = problem().with_cache(tiny_cache);
        let unique = uncached.unique_layers().to_vec();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut g = Genome::random(&mut rng, &unique, uncached.platform(), 2);
        // Arbitrary damage, as the genetic operators inflict.
        let fi = rng.gen_range(0..g.fanouts.len());
        g.fanouts[fi] = fanout;
        let li = rng.gen_range(0..g.layers.len());
        let lvl = rng.gen_range(0..g.layers[li].levels.len());
        g.layers[li].levels[lvl].tile = DimVec::splat(tile);
        g.layers[li].levels[lvl].order.swap(0, 5);
        g.layers[li].levels[lvl].spatial_dim = Dim::from_index(rng.gen_range(0..6));
        repair(&mut g, &unique, uncached.platform());

        let truth = uncached.evaluate(&g);
        assert_identical(&truth, &cached.evaluate(&g));
        assert_identical(&truth, &cached.evaluate(&g));
    }

    /// The genome memo's key contract: equal genome hashes must imply
    /// equal per-layer key *sets* (the genome key covers everything the
    /// evaluation reads, so two same-key genomes present identical work
    /// to the per-layer cache). Pairs are exact clones (the key-equal
    /// branch, exercised non-vacuously) or single-gene mutants — if the
    /// genome hash ever omitted a gene, the mutant pair would collide
    /// with different layer keys and fail here.
    #[test]
    fn genome_hash_equality_implies_layer_key_set_equality(
        seed in 0u64..10_000,
        mutate in 0usize..5,
    ) {
        let p = problem();
        let unique = p.unique_layers().to_vec();
        let mut rng = SmallRng::seed_from_u64(seed);
        let g1 = Genome::random(&mut rng, &unique, p.platform(), 2);
        let mut g2 = g1.clone();
        match mutate {
            0 => {} // exact clone: keys MUST be equal
            1 => {
                let fi = rng.gen_range(0..g2.fanouts.len());
                g2.fanouts[fi] = (g2.fanouts[fi] * 2).min(p.platform().max_pes);
            }
            2 => {
                let li = rng.gen_range(0..g2.layers.len());
                g2.layers[li].levels[0].order.swap(0, 5);
            }
            3 => {
                let li = rng.gen_range(0..g2.layers.len());
                g2.layers[li].levels[1].spatial_dim = Dim::from_index(rng.gen_range(0..6));
            }
            _ => {
                let li = rng.gen_range(0..g2.layers.len());
                let tile = &mut g2.layers[li].levels[0].tile;
                *tile = tile.map(|t| (t * 2).max(2));
                repair(&mut g2, &unique, p.platform());
            }
        }
        let key_set = |g: &Genome| {
            let mut keys: Vec<u64> = unique
                .iter()
                .zip(g.decode(&unique))
                .map(|(u, m)| p.evaluator().cache_key(&u.layer, &m))
                .collect();
            keys.sort_unstable();
            keys
        };
        if p.genome_key(&g1) == p.genome_key(&g2) {
            assert_eq!(key_set(&g1), key_set(&g2), "colliding genome keys with different work");
            assert_identical(&p.evaluate(&g1), &p.evaluate(&g2));
        }
        // Sanity: the clone branch really does take the key-equal path.
        if mutate == 0 {
            assert_eq!(p.genome_key(&g1), p.genome_key(&g2));
        }
    }

    /// Evaluations served by the genome memo — first pass stores, second
    /// pass replays — are bit-identical to memo-less evaluation.
    #[test]
    fn genome_memoized_evaluation_is_bit_identical(seed in 0u64..10_000) {
        let bare = problem();
        let memoized = problem()
            .with_genome_memo(Arc::new(digamma_server::ShardedGenomeMemo::new(1024)));
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = Genome::random(&mut rng, bare.unique_layers(), bare.platform(), 2);
        let truth = bare.evaluate(&g);
        assert_identical(&truth, &memoized.evaluate(&g));
        assert_identical(&truth, &memoized.evaluate(&g));
        let batch = memoized.evaluate_batch(&[g.clone(), g], 1);
        assert_identical(&truth, &batch[0]);
        assert_identical(&truth, &batch[1]);
    }
}

/// Per-layer reports replayed from the cache are the stored bytes, not a
/// recomputation: check the `CostReport` level directly.
#[test]
fn stored_reports_replay_bit_identically() {
    let p = problem();
    let cache = ShardedFitnessCache::new(1024);
    let mut rng = SmallRng::seed_from_u64(99);
    for _ in 0..20 {
        let g = Genome::random(&mut rng, p.unique_layers(), p.platform(), 2);
        for (u, mapping) in p.unique_layers().iter().zip(g.decode(p.unique_layers())) {
            let truth = Arc::new(p.evaluator().evaluate(&u.layer, &mapping).unwrap());
            let key = p.evaluator().cache_key(&u.layer, &mapping);
            cache.store(key, Arc::clone(&truth));
            let replayed = cache.lookup(key).expect("just stored");
            assert_eq!(replayed.latency_cycles.to_bits(), truth.latency_cycles.to_bits());
            assert_eq!(replayed.energy_pj.to_bits(), truth.energy_pj.to_bits());
            assert_eq!(replayed.area_um2.to_bits(), truth.area_um2.to_bits());
            assert_eq!(replayed.buffers, truth.buffers);
            assert_eq!(replayed.hw, truth.hw);
            assert_eq!(replayed.utilization.to_bits(), truth.utilization.to_bits());
            assert_eq!(replayed.macs, truth.macs);
        }
    }
}

/// N workers hammering one shared cache never observe a wrong or torn
/// result. The cache is deliberately tiny so insertions and evictions
/// race with lookups the whole time.
#[test]
fn concurrent_workers_never_see_torn_results() {
    let uncached = problem();
    let mut rng = SmallRng::seed_from_u64(7);
    let genomes: Vec<Genome> = (0..48)
        .map(|_| Genome::random(&mut rng, uncached.unique_layers(), uncached.platform(), 2))
        .collect();
    let truths: Vec<digamma::DesignEvaluation> =
        genomes.iter().map(|g| uncached.evaluate(g)).collect();

    let shared = Arc::new(ShardedFitnessCache::with_shards(8, 2));
    let cached = problem().with_cache(Arc::clone(&shared) as _);
    let workers = 8;
    digamma::scoped_workers(workers, |w| {
        // Each worker sweeps the genomes several times from a different
        // starting offset, so lookups, stores, and evictions interleave.
        for round in 0..4 {
            for i in 0..genomes.len() {
                let idx = (i + w * 7 + round * 13) % genomes.len();
                let eval = cached.evaluate(&genomes[idx]);
                let truth = &truths[idx];
                assert_eq!(eval.cost.to_bits(), truth.cost.to_bits(), "genome {idx}");
                assert_eq!(
                    eval.latency_cycles.to_bits(),
                    truth.latency_cycles.to_bits(),
                    "genome {idx}"
                );
                assert_eq!(eval.energy_pj.to_bits(), truth.energy_pj.to_bits(), "genome {idx}");
                assert_eq!(eval.hw, truth.hw, "genome {idx}");
            }
        }
    });
    let stats = shared.stats();
    assert!(stats.evictions > 0, "the test must exercise the eviction path: {stats:?}");
    assert!(stats.hits + stats.misses > 0);
}

/// Two whole searches — cache-less and cache-heavy — walk identical
/// trajectories: memoization is invisible to the optimizer.
#[test]
fn search_trajectory_is_cache_invariant() {
    use digamma::{DiGamma, DiGammaConfig};
    let config = DiGammaConfig { population_size: 12, seed: 21, threads: 1, ..Default::default() };
    let bare = DiGamma::new(config.clone()).search(&problem(), 240);
    let shared = Arc::new(ShardedFitnessCache::new(1 << 16));
    let cached_problem = problem().with_cache(Arc::clone(&shared) as _);
    let cached = DiGamma::new(config).search(&cached_problem, 240);
    assert_eq!(bare.history.len(), cached.history.len());
    for (a, b) in bare.history.iter().zip(&cached.history) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    assert_eq!(bare.best.as_ref().map(|b| &b.genome), cached.best.as_ref().map(|b| &b.genome));
    assert!(shared.stats().hits > 0, "restated layer mappings must hit");
}
