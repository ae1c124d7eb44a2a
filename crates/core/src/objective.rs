//! Optimization objectives (paper Sec. V-A).

use std::fmt;

/// What the search minimizes.
///
/// The paper's experiments optimize latency; power/energy/EDP are listed
/// as alternative objectives the framework accepts, so they are supported
/// here too. Latency-area product is *reported* in Fig. 5 but not used as
/// a search objective; [`crate::DesignPoint::latency_area_product`]
/// computes it post-hoc.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Objective {
    /// Total model latency in cycles.
    Latency,
    /// Total model energy in pJ.
    Energy,
    /// Energy-delay product.
    Edp,
}

impl Objective {
    /// Scalar score (lower is better) for aggregated model metrics.
    pub fn score(self, latency_cycles: f64, energy_pj: f64) -> f64 {
        match self {
            Objective::Latency => latency_cycles,
            Objective::Energy => energy_pj,
            Objective::Edp => latency_cycles * energy_pj,
        }
    }
}

impl fmt::Display for Objective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Objective::Latency => "latency",
            Objective::Energy => "energy",
            Objective::Edp => "EDP",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scores_compose_expected_metrics() {
        assert_eq!(Objective::Latency.score(10.0, 5.0), 10.0);
        assert_eq!(Objective::Energy.score(10.0, 5.0), 5.0);
        assert_eq!(Objective::Edp.score(10.0, 5.0), 50.0);
    }

    #[test]
    fn displays_lowercase_names() {
        assert_eq!(Objective::Latency.to_string(), "latency");
        assert_eq!(Objective::Edp.to_string(), "EDP");
    }
}
