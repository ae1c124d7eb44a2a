//! Determinism contract: a fixed seed yields the identical
//! [`SearchResult`] — across repeated runs and across any worker-thread
//! count. This is what makes parallel fitness evaluation safe to enable
//! by default: `parallel_map` preserves input order and evaluation is a
//! pure function of the genome, so threads only change wall-clock time.

use digamma_repro::prelude::*;

fn problem() -> CoOptProblem {
    CoOptProblem::new(zoo::ncf(), Platform::edge(), Objective::Latency)
}

fn config(seed: u64, threads: usize) -> DiGammaConfig {
    DiGammaConfig { population_size: 16, seed, threads, ..Default::default() }
}

#[test]
fn same_seed_gives_identical_search_results_across_runs() {
    let p = problem();
    let a = DiGamma::new(config(11, 1)).search(&p, 150);
    let b = DiGamma::new(config(11, 1)).search(&p, 150);
    // Full structural equality: best genome, hardware, metrics, history.
    assert_eq!(a, b);
    assert!(a.best.is_some(), "seed 11 should find a feasible design");
}

#[test]
fn thread_count_never_changes_the_search_result() {
    let p = problem();
    let sequential = DiGamma::new(config(23, 1)).search(&p, 150);
    for threads in [2, 4, digamma_repro::core::default_threads().max(2)] {
        let parallel = DiGamma::new(config(23, threads)).search(&p, 150);
        assert_eq!(sequential, parallel, "threads = {threads} diverged from sequential evaluation");
    }
}

#[test]
fn gamma_inherits_the_same_determinism_contract() {
    let hw = HwConfig {
        fanouts: [8, 16].into(),
        l2_words: 32 * 1024,
        mid_words_per_unit: [].into(),
        l1_words_per_pe: 128,
    };
    let p = problem();
    let mk = |threads| {
        Gamma::new(GammaConfig { population_size: 12, seed: 31, threads, ..Default::default() })
            .search(&p, &hw, 150)
    };
    let one = mk(1);
    assert_eq!(one, mk(1));
    assert_eq!(one, mk(4));
}

#[test]
fn different_seeds_explore_differently() {
    let p = problem();
    let a = DiGamma::new(config(1, 1)).search(&p, 150);
    let b = DiGamma::new(config(2, 1)).search(&p, 150);
    // Histories track best-so-far per sample; two seeds matching on the
    // whole trace would point at a seeding bug.
    assert_ne!(a.history, b.history);
}

/// FNV-1a over a search result's sample count, best cost, best genome
/// text and every best-so-far history entry: equal fingerprints mean
/// bit-identical trajectories.
fn fingerprint(result: &SearchResult) -> u64 {
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

#[test]
fn golden_search_trajectories_never_drift() {
    // Pinned values: any change to an operator, an RNG draw, the
    // evaluation pipeline or the cost model moves at least one of them.
    // Update them only for a change that is meant to alter trajectories.
    let search = |model: Model, platform: Platform, threads: usize, seed: u64| {
        let p = CoOptProblem::new(model, platform, Objective::Latency);
        DiGamma::new(config(seed, threads)).search(&p, 240)
    };
    let vgg16 = search(zoo::vgg16(), Platform::edge(), 1, 41);
    let bert = search(zoo::bert(), Platform::cloud(), 2, 42);

    let hw = HwConfig {
        fanouts: [8, 16].into(),
        l2_words: 32 * 1024,
        mid_words_per_unit: [].into(),
        l1_words_per_pe: 128,
    };
    let gamma =
        Gamma::new(GammaConfig { population_size: 12, seed: 43, threads: 1, ..Default::default() })
            .search(&problem(), &hw, 240);

    // Grow/aging at a high rate, stepped by hand to confirm that
    // 3-level genomes enter the population (and so age back out).
    let p = problem();
    let ga = DiGamma::new(DiGammaConfig { grow_aging_rate: 0.5, ..config(44, 1) });
    let mut state = ga.init(&p, 240);
    let mut saw_three_levels = false;
    while ga.step(&p, &mut state, 240) {
        saw_three_levels |= state.population().iter().any(|g| g.num_levels() == 3);
    }
    assert!(saw_three_levels, "grow/aging at rate 0.5 must produce 3-level genomes");
    let grown = state.into_result();

    let got = [fingerprint(&vgg16), fingerprint(&bert), fingerprint(&gamma), fingerprint(&grown)];
    assert!(vgg16.best.is_some() && bert.best.is_some() && gamma.best.is_some());
    assert_eq!(
        got,
        [
            0xf627_107f_e713_0581,
            0xde75_d01a_c184_d50a,
            0x0eda_0eca_c0e2_c20d,
            0xbcec_a790_9c12_6923
        ],
        "search trajectories drifted: {got:#018x?}"
    );
}
