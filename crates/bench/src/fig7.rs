//! Experiment E3 (paper Fig. 7): the solutions the three schemes find
//! for MnasNet at edge resources, side by side.
//!
//! The paper prints each winner's encoding (π, P, and ordered tile genes)
//! plus latency, area, latency·area product, and the PE : buffer area
//! ratio. The reproduction does the same for the scheme winners:
//! HW-opt (grid + dla-like), Mapping-opt (Compute-focused + GAMMA), and
//! DiGamma co-optimization.

use crate::report::{fmt_sci, Table};
use digamma::schemes::HwPreset;
use digamma::{
    hw_grid_search, CoOptProblem, DesignPoint, DiGamma, DiGammaConfig, Gamma, GammaConfig,
    MappingStyle, Objective,
};
use digamma_costmodel::Platform;
use digamma_encoding::Genome;
use digamma_workload::Model;

/// One scheme's winner.
#[derive(Debug, Clone)]
pub struct SchemeSolution {
    /// Scheme label as printed in the figure.
    pub scheme: String,
    /// The winning design (None if the scheme found nothing feasible).
    pub design: Option<DesignPoint>,
}

/// Runs E3: returns the three scheme winners for `model` on `platform`.
pub fn run(model: &Model, platform: &Platform, budget: usize, seed: u64) -> Vec<SchemeSolution> {
    let problem = CoOptProblem::new(model.clone(), platform.clone(), Objective::Latency);

    let hw_opt = hw_grid_search(&problem, MappingStyle::DlaLike);
    let preset = HwPreset::ComputeFocused.build(platform, problem.evaluator().area_model());
    let map_opt = Gamma::new(GammaConfig { seed, ..GammaConfig::default() })
        .search(&problem, &preset, budget);
    let co_opt = DiGamma::new(DiGammaConfig { seed: seed + 1, ..DiGammaConfig::default() })
        .search(&problem, budget);

    vec![
        SchemeSolution { scheme: "HW-opt (Grid-S HW + dla-like)".into(), design: hw_opt.best },
        SchemeSolution {
            scheme: "Mapping-opt (Compute-focused + Gamma)".into(),
            design: map_opt.best,
        },
        SchemeSolution { scheme: "HW-Map-co-opt (DiGamma)".into(), design: co_opt.best },
    ]
}

/// Renders the encoding of the costliest unique layer of a winner —
/// the per-layer gene string the paper shows.
pub fn encoding_snippet(genome: &Genome, layer_index: usize) -> String {
    let single = Genome { fanouts: genome.fanouts, layers: vec![genome.layers[layer_index]] };
    single.to_string()
}

/// Builds the Fig. 7 metric table.
pub fn table(solutions: &[SchemeSolution], budget_um2: f64) -> Table {
    let mut t = Table::new(
        format!("Fig. 7 — found solutions (area constraint {:.2E} um2)", budget_um2),
        vec![
            "Latency (cycles)".into(),
            "Area (um2)".into(),
            "Lat-Area-Product".into(),
            "PE : Buffer area".into(),
        ],
    );
    for s in solutions {
        match &s.design {
            None => t.push_row(s.scheme.clone(), vec!["N/A".into(); 4]),
            Some(d) => {
                let (pe, buf) = d.area_ratio_percent();
                t.push_row(
                    s.scheme.clone(),
                    vec![
                        fmt_sci(d.latency_cycles),
                        fmt_sci(d.area_um2),
                        fmt_sci(d.latency_area_product()),
                        format!("{pe:.0} : {buf:.0}"),
                    ],
                );
            }
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use digamma_workload::zoo;

    #[test]
    fn fig7_produces_three_schemes_with_designs() {
        // NCF instead of MnasNet to keep the test fast; the binary runs
        // the paper's MnasNet setting.
        let solutions = run(&zoo::ncf(), &Platform::edge(), 120, 11);
        assert_eq!(solutions.len(), 3);
        for s in &solutions {
            assert!(s.design.is_some(), "{} found nothing", s.scheme);
        }
        let t = table(&solutions, Platform::edge().area_budget_um2);
        let md = t.to_markdown();
        assert!(md.contains("DiGamma"));
        assert!(md.contains(" : "));
    }

    #[test]
    fn encoding_snippet_renders_pi_and_genes() {
        let solutions = run(&zoo::ncf(), &Platform::edge(), 60, 13);
        let d = solutions[2].design.as_ref().unwrap();
        let snippet = encoding_snippet(&d.genome, 0);
        assert!(snippet.contains("pi_L2"));
        assert!(snippet.contains("P:"));
    }

    #[test]
    fn all_winners_respect_the_budget() {
        let solutions = run(&zoo::dlrm(), &Platform::edge(), 100, 17);
        for s in solutions {
            let d = s.design.unwrap();
            assert!(d.area_um2 <= Platform::edge().area_budget_um2 + 1.0, "{}", s.scheme);
        }
    }
}
