//! HW-opt baseline: grid search over hardware with a fixed mapping style.
//!
//! Models the paper's first baseline scheme (Sec. V-A): "the HW is
//! optimized by grid search approach over number of PEs and buffer
//! sizes", with the mapping fixed to a manual style (dla/shi/eye-like).
//! The grid walks power-of-two PE array shapes and L1 capacities; the L2
//! buffer takes whatever area remains under the budget (a larger L2 is
//! never harmful, so gridding it separately would only waste points).

use crate::problem::{CoOptProblem, Constraint};
use crate::result::{DesignPoint, SearchResult};
use crate::templates::{instantiate_all, MappingStyle};
use digamma_costmodel::HwConfig;
use digamma_encoding::Genome;

/// Outcome of a hardware grid search.
#[derive(Debug, Clone)]
pub struct GridSearchResult {
    /// The best feasible design, if any grid point fits the budget.
    pub best: Option<DesignPoint>,
    /// Grid points evaluated (each costs one design-point evaluation).
    pub points_evaluated: usize,
    /// Grid points that produced a feasible design.
    pub feasible_points: usize,
}

impl From<GridSearchResult> for SearchResult {
    fn from(g: GridSearchResult) -> SearchResult {
        SearchResult { best: g.best, history: Vec::new(), samples: g.points_evaluated }
    }
}

/// Runs the HW-opt grid search for one mapping style.
///
/// Grid axes: cluster count × PEs-per-cluster (powers of two up to the
/// platform PE cap) × per-PE L1 words (powers of two, 16..=4096). For
/// each point the style template is instantiated per unique layer and the
/// whole design is scored under a Fixed-HW constraint.
pub fn hw_grid_search(problem: &CoOptProblem, style: MappingStyle) -> GridSearchResult {
    let platform = problem.platform();
    let area = problem.evaluator().area_model();
    let budget = platform.area_budget_um2;

    let mut best: Option<DesignPoint> = None;
    let mut points = 0usize;
    let mut feasible = 0usize;

    let pow2 = |limit: u64| -> Vec<u64> {
        let mut v = vec![];
        let mut x = 1u64;
        while x <= limit {
            v.push(x);
            x *= 2;
        }
        v
    };
    let cluster_options = pow2(platform.max_pes);
    let l1_options: Vec<u64> = pow2(4096).into_iter().filter(|&w| w >= 16).collect();

    for &clusters in &cluster_options {
        for &pes_per_cluster in &cluster_options {
            let total_pes = clusters.saturating_mul(pes_per_cluster);
            if total_pes > platform.max_pes {
                continue;
            }
            for &l1_words in &l1_options {
                // Area of PEs + L1s; skip if already over budget.
                let probe = HwConfig {
                    fanouts: [clusters, pes_per_cluster].into(),
                    l2_words: 0,
                    mid_words_per_unit: [].into(),
                    l1_words_per_pe: l1_words,
                };
                let fixed_area = area.area_um2(&probe);
                if fixed_area >= budget {
                    continue;
                }
                // L2 absorbs the remaining budget (95% fill for slack).
                let l2_words = ((budget - fixed_area) * 0.95 / area.l2_um2_per_word) as u64;
                if l2_words < 64 {
                    continue;
                }
                let hw = HwConfig { l2_words, ..probe };

                let mappings = instantiate_all(style, problem.unique_layers(), &hw);
                let constrained = problem.clone().with_constraint(Constraint::FixedHw(hw));
                let Ok(eval) = constrained.evaluate_mappings(&hw.fanouts, &mappings) else {
                    continue;
                };
                points += 1;
                if eval.feasible {
                    feasible += 1;
                    if best.as_ref().is_none_or(|b| eval.cost < b.cost) {
                        let genome = Genome::from_mappings(&mappings);
                        best = Some(DesignPoint::from_evaluation(genome, &eval));
                    }
                }
            }
        }
    }

    GridSearchResult { best, points_evaluated: points, feasible_points: feasible }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::Objective;
    use digamma_costmodel::Platform;
    use digamma_workload::zoo;

    #[test]
    fn grid_search_finds_feasible_edge_design() {
        let problem = CoOptProblem::new(zoo::ncf(), Platform::edge(), Objective::Latency);
        let result = hw_grid_search(&problem, MappingStyle::DlaLike);
        assert!(result.points_evaluated > 10, "grid too small: {}", result.points_evaluated);
        let best = result.best.expect("some grid point fits 0.2 mm²");
        assert!(best.feasible);
        assert!(best.area_um2 <= Platform::edge().area_budget_um2);
    }

    #[test]
    fn all_styles_complete_on_edge() {
        let problem = CoOptProblem::new(zoo::dlrm(), Platform::edge(), Objective::Latency);
        for style in MappingStyle::ALL {
            let result = hw_grid_search(&problem, style);
            assert!(result.best.is_some(), "{style} found nothing");
            assert!(result.feasible_points <= result.points_evaluated);
        }
    }

    #[test]
    fn grid_best_is_within_pe_cap() {
        let problem = CoOptProblem::new(zoo::ncf(), Platform::edge(), Objective::Latency);
        let best = hw_grid_search(&problem, MappingStyle::ShiLike).best.unwrap();
        assert!(best.hw.num_pes() <= Platform::edge().max_pes);
    }
}
