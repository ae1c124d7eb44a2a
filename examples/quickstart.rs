//! Quickstart: co-optimize an accelerator for one model in ~20 lines.
//!
//! Run with:
//!   cargo run --release --example quickstart

use digamma_repro::prelude::*;

fn main() {
    // 1. Pick a workload, a platform budget, and an objective.
    let model = zoo::mobilenet_v2();
    let platform = Platform::edge(); // 0.2 mm² for PEs + buffers
    let problem = CoOptProblem::new(model.clone(), platform.clone(), Objective::Latency);

    println!("model: {model}");
    println!("budget: {:.1} mm² ({})\n", platform.area_budget_um2 / 1e6, platform.name);

    // 2. Run DiGamma for a small sampling budget.
    let config = DiGammaConfig { seed: 42, threads: 4, ..Default::default() };
    let result = DiGamma::new(config).search(&problem, 1500);

    // 3. Inspect the winning design point.
    let best = result.best.expect("a feasible design within budget");
    println!("best design after {} samples:", result.samples);
    println!("  latency : {:.3e} cycles", best.latency_cycles);
    println!("  energy  : {:.3e} pJ", best.energy_pj);
    println!("  area    : {:.3e} µm² (budget {:.3e})", best.area_um2, platform.area_budget_um2);
    let (pe, buf) = best.area_ratio_percent();
    println!("  split   : PE {pe:.0}% / buffer {buf:.0}%");
    println!("  hw      : {}", best.hw);

    // 4. The genome is a full per-layer mapping description.
    println!("\nfirst unique layer's mapping genes:");
    let single = Genome { fanouts: best.genome.fanouts, layers: vec![best.genome.layers[0]] };
    print!("{single}");
}
