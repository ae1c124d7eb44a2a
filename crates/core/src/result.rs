//! Search results and convergence records.

use crate::problem::DesignEvaluation;
use digamma_costmodel::HwConfig;
use digamma_encoding::Genome;

/// A fully evaluated design point kept as a search outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignPoint {
    /// The winning genome.
    pub genome: Genome,
    /// Scalar cost under the problem's objective.
    pub cost: f64,
    /// Whether all constraints hold.
    pub feasible: bool,
    /// Total model latency in cycles.
    pub latency_cycles: f64,
    /// Total model energy in pJ.
    pub energy_pj: f64,
    /// Hardware area in µm².
    pub area_um2: f64,
    /// PE-only area in µm².
    pub pe_area_um2: f64,
    /// The hardware configuration.
    pub hw: HwConfig,
}

impl DesignPoint {
    /// Builds a design point from a genome and its evaluation.
    pub fn from_evaluation(genome: Genome, eval: &DesignEvaluation) -> DesignPoint {
        DesignPoint {
            genome,
            cost: eval.cost,
            feasible: eval.feasible,
            latency_cycles: eval.latency_cycles,
            energy_pj: eval.energy_pj,
            area_um2: eval.area_um2,
            pe_area_um2: eval.pe_area_um2,
            hw: eval.hw,
        }
    }

    /// Latency·area product (Fig. 5's secondary metric).
    pub fn latency_area_product(&self) -> f64 {
        self.latency_cycles * self.area_um2
    }

    /// PE : buffer area split in percent (Fig. 7's last column).
    pub fn area_ratio_percent(&self) -> (f64, f64) {
        let pe = 100.0 * self.pe_area_um2 / self.area_um2;
        (pe, 100.0 - pe)
    }
}

/// Outcome of one search run.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResult {
    /// Best *feasible* design found, if any (the paper reports `N/A`
    /// when an algorithm finds no valid solution within budget).
    pub best: Option<DesignPoint>,
    /// Best-so-far cost after each evaluated sample (infeasible samples
    /// record `f64::INFINITY` until the first feasible design appears).
    pub history: Vec<f64>,
    /// Number of design points evaluated.
    pub samples: usize,
}

impl SearchResult {
    /// Convenience: the best feasible cost, or `None`.
    pub fn best_cost(&self) -> Option<f64> {
        self.best.as_ref().map(|b| b.cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_point(cost: f64) -> DesignPoint {
        DesignPoint {
            genome: Genome { fanouts: [2, 2].into(), layers: vec![] },
            cost,
            feasible: true,
            latency_cycles: cost,
            energy_pj: 1.0,
            area_um2: 100.0,
            pe_area_um2: 60.0,
            hw: HwConfig {
                fanouts: [2, 2].into(),
                l2_words: 10,
                mid_words_per_unit: [].into(),
                l1_words_per_pe: 5,
            },
        }
    }

    #[test]
    fn latency_area_product_multiplies() {
        let p = dummy_point(50.0);
        assert_eq!(p.latency_area_product(), 50.0 * 100.0);
    }

    #[test]
    fn area_ratio_sums_to_hundred() {
        let p = dummy_point(1.0);
        let (pe, buf) = p.area_ratio_percent();
        assert!((pe - 60.0).abs() < 1e-9);
        assert!((pe + buf - 100.0).abs() < 1e-9);
    }

    #[test]
    fn best_cost_passthrough() {
        let r = SearchResult { best: Some(dummy_point(3.0)), history: vec![], samples: 1 };
        assert_eq!(r.best_cost(), Some(3.0));
        let none = SearchResult { best: None, history: vec![], samples: 0 };
        assert_eq!(none.best_cost(), None);
    }
}
