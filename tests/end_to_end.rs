//! Cross-crate integration tests: the full pipeline from workload zoo
//! through encoding, cost model, and search.

use digamma_repro::prelude::*;

#[test]
fn digamma_full_pipeline_on_every_model_class() {
    // One representative per application domain (vision / language /
    // recommendation) to keep runtime reasonable.
    for model in [zoo::mobilenet_v2(), zoo::bert(), zoo::dlrm()] {
        let name = model.name().to_owned();
        let problem = CoOptProblem::new(model, Platform::edge(), Objective::Latency);
        let config = DiGammaConfig { population_size: 20, seed: 5, ..Default::default() };
        let result = DiGamma::new(config).search(&problem, 120);
        let best = result.best.unwrap_or_else(|| panic!("{name}: no feasible design"));
        assert!(best.feasible, "{name}");
        assert!(best.area_um2 <= Platform::edge().area_budget_um2, "{name}");
        assert!(best.latency_cycles > 0.0, "{name}");
        // The winning genome must re-evaluate to the same cost.
        let re = problem.evaluate(&best.genome);
        assert!(
            (re.cost - best.cost).abs() / best.cost < 1e-12,
            "{name}: evaluation not reproducible"
        );
    }
}

#[test]
fn digamma_beats_random_search_at_equal_budget() {
    // The paper's core claim in miniature: domain-aware search is far
    // more sample-efficient than random sampling of the same space.
    let budget = 300;
    let problem = CoOptProblem::new(zoo::mnasnet(), Platform::edge(), Objective::Latency);
    let dg = DiGamma::new(DiGammaConfig { seed: 1, ..Default::default() })
        .search(&problem, budget)
        .best_cost()
        .expect("digamma finds a design");
    let random =
        run_algorithm(Algorithm::Random, &problem, budget, 1).best_cost().unwrap_or(f64::INFINITY);
    assert!(dg < random, "digamma {dg} vs random {random}");
}

#[test]
fn cloud_budget_admits_strictly_faster_designs() {
    let budget = 250;
    let mk = |platform: Platform| {
        let problem = CoOptProblem::new(zoo::resnet18(), platform, Objective::Latency);
        DiGamma::new(DiGammaConfig { seed: 3, ..Default::default() })
            .search(&problem, budget)
            .best
            .expect("feasible design")
    };
    let edge = mk(Platform::edge());
    let cloud = mk(Platform::cloud());
    assert!(
        cloud.latency_cycles < edge.latency_cycles,
        "cloud {} not faster than edge {}",
        cloud.latency_cycles,
        edge.latency_cycles
    );
}

#[test]
fn fixed_hw_constraint_pins_the_hardware_end_to_end() {
    let hw = HwConfig {
        fanouts: [8, 8].into(),
        l2_words: 16 * 1024,
        mid_words_per_unit: [].into(),
        l1_words_per_pe: 64,
    };
    let problem = CoOptProblem::new(zoo::ncf(), Platform::edge(), Objective::Latency);
    let result =
        Gamma::new(GammaConfig { seed: 9, ..Default::default() }).search(&problem, &hw, 200);
    let best = result.best.expect("gamma finds a fitting mapping");
    assert_eq!(best.hw, hw);
    // Every layer's decoded mapping must genuinely fit the fixed buffers.
    let evaluator = Evaluator::new(Platform::edge());
    let mappings = best.genome.decode(problem.unique_layers());
    for (u, m) in problem.unique_layers().iter().zip(&mappings) {
        let report = evaluator.evaluate(&u.layer, m).unwrap();
        assert!(report.buffers.l1_words_per_pe <= hw.l1_words_per_pe, "{}", u.layer.name());
        assert!(report.buffers.l2_words <= hw.l2_words, "{}", u.layer.name());
    }
}

#[test]
fn all_baseline_algorithms_complete_on_a_cnn() {
    let problem = CoOptProblem::new(zoo::resnet18(), Platform::edge(), Objective::Latency);
    for alg in Algorithm::ALL {
        let result = run_algorithm(alg, &problem, 60, 17);
        assert_eq!(result.samples, 60, "{alg}");
    }
}

#[test]
fn genome_survives_codec_roundtrip_with_same_cost() {
    let problem = CoOptProblem::new(zoo::dlrm(), Platform::edge(), Objective::Latency);
    let codec = Codec::new(problem.unique_layers(), problem.platform(), 2);
    let best = DiGamma::new(DiGammaConfig { population_size: 16, seed: 21, ..Default::default() })
        .search(&problem, 100)
        .best
        .expect("feasible design");
    // Only 2-level genomes are codec-representable; grow/aging may have
    // produced 3 levels, in which case the roundtrip is out of scope.
    if best.genome.num_levels() == 2 {
        let x = codec.encode(&best.genome);
        let back = codec.decode(&x);
        let eval = problem.evaluate(&back);
        assert!((eval.cost - best.cost).abs() / best.cost < 1e-9);
    }
}
