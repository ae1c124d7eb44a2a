//! Fixed-HW use-case (paper Sec. III-B): you already built an
//! accelerator; find the best mapping for a new workload at compile time.
//!
//! Uses the GAMMA mapper (the paper's mapping-only baseline) against a
//! given hardware configuration, for BERT — and shows why mapping search
//! matters by comparing against the three manual mapping styles on the
//! same silicon.
//!
//! Run with:
//!   cargo run --release --example fixed_hw_mapper

use digamma_repro::core::templates;
use digamma_repro::prelude::*;

fn main() {
    // The accelerator you already taped out: a 16x16 array, 128-word L1s,
    // 64K-word shared L2.
    let hw = HwConfig {
        fanouts: [16, 16].into(),
        l2_words: 64 * 1024,
        mid_words_per_unit: [].into(),
        l1_words_per_pe: 128,
    };
    let model = zoo::bert();
    let platform = Platform::cloud();
    let problem = CoOptProblem::new(model.clone(), platform.clone(), Objective::Latency);

    println!("fixed hardware: {hw}");
    println!("workload: {model}");

    // Manual mapping styles on this hardware.
    let constrained = problem.clone().with_constraint(Constraint::FixedHw(hw));
    for style in MappingStyle::ALL {
        let mappings = templates::instantiate_all(style, problem.unique_layers(), &hw);
        match constrained.evaluate_mappings(&hw.fanouts, &mappings) {
            Ok(eval) if eval.feasible => {
                println!("  {style:<10}: {:.3e} cycles", eval.latency_cycles)
            }
            _ => println!("  {style:<10}: does not fit"),
        }
    }

    // GAMMA search on the same hardware.
    let result = Gamma::new(GammaConfig { seed: 3, threads: 4, ..Default::default() })
        .search(&problem, &hw, 1500);
    let best = result.best.expect("GAMMA finds a fitting mapping");
    println!("  GAMMA     : {:.3e} cycles  <- searched", best.latency_cycles);

    println!("\nbest searched mapping for the attention-score GEMM:");
    let score_idx =
        problem.unique_layers().iter().position(|u| u.layer.name().contains("scores")).unwrap_or(0);
    let single =
        Genome { fanouts: best.genome.fanouts, layers: vec![best.genome.layers[score_idx]] };
    print!("{single}");
}
