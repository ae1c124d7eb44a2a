//! GAMMA (ICCAD 2020): the mapping-only GA baseline.
//!
//! GAMMA is DiGamma's ancestor — the same genetic machinery restricted to
//! the mapping space of a *given* hardware configuration. The paper's
//! Mapping-opt baseline runs GAMMA on three hand-picked HW presets
//! (Sec. V-A). Here it is implemented as DiGamma with hardware operators
//! disabled and a Fixed-HW constraint, which is exactly the historical
//! relationship between the two tools.

use crate::digamma_ga::{DiGamma, DiGammaConfig};
use crate::problem::{CoOptProblem, Constraint};
use crate::result::SearchResult;
use digamma_costmodel::HwConfig;

/// Hyper-parameters of the GAMMA mapper.
#[derive(Debug, Clone, PartialEq)]
pub struct GammaConfig {
    /// Individuals per generation.
    pub population_size: usize,
    /// Fraction of the population surviving unchanged.
    pub elite_fraction: f64,
    /// Worker threads for fitness evaluation (same contract as
    /// [`DiGammaConfig::threads`]: any value yields identical results).
    pub threads: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GammaConfig {
    fn default() -> GammaConfig {
        GammaConfig {
            population_size: 60,
            elite_fraction: 0.10,
            threads: crate::parallel::default_threads(),
            seed: 0,
        }
    }
}

/// The mapping-only GA searcher.
#[derive(Debug, Clone)]
pub struct Gamma {
    config: GammaConfig,
}

impl Gamma {
    /// Creates a mapper with the given hyper-parameters.
    pub fn new(config: GammaConfig) -> Gamma {
        Gamma { config }
    }

    /// The constrained problem and the underlying [`DiGamma`] searcher
    /// this mapper drives. This is the seam long-running services use:
    /// the returned pair exposes the full stepping / snapshot / restore
    /// machinery ([`DiGamma::init`], [`DiGamma::step`],
    /// [`DiGamma::restore`]) for mapping-only jobs too.
    pub fn searcher(&self, problem: &CoOptProblem, hw: &HwConfig) -> (CoOptProblem, DiGamma) {
        let constrained = problem.clone().with_constraint(Constraint::FixedHw(*hw));
        let ga = DiGamma::new(DiGammaConfig {
            population_size: self.config.population_size,
            elite_fraction: self.config.elite_fraction,
            threads: self.config.threads,
            seed: self.config.seed,
            // Hardware is frozen: no Mutate-HW, no Grow/Aging, and the
            // level count matches the given PE array.
            mutate_hw_rate: 0.0,
            grow_aging_rate: 0.0,
            num_levels: hw.fanouts.len(),
            ..DiGammaConfig::default()
        });
        (constrained, ga)
    }

    /// Searches for the best mapping of `problem`'s model on the fixed
    /// hardware `hw`, within `budget` evaluations.
    ///
    /// The returned designs all carry `hw` as their hardware; mappings
    /// that do not fit its buffers are penalized as infeasible.
    pub fn search(&self, problem: &CoOptProblem, hw: &HwConfig, budget: usize) -> SearchResult {
        let (constrained, ga) = self.searcher(problem, hw);
        ga.search(&constrained, budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::Objective;
    use digamma_costmodel::Platform;
    use digamma_workload::zoo;

    fn fixed_hw() -> HwConfig {
        HwConfig {
            fanouts: [8, 16].into(),
            l2_words: 32 * 1024,
            mid_words_per_unit: [].into(),
            l1_words_per_pe: 128,
        }
    }

    #[test]
    fn gamma_finds_fitting_mappings() {
        let problem = CoOptProblem::new(zoo::ncf(), Platform::edge(), Objective::Latency);
        let result = Gamma::new(GammaConfig { population_size: 16, seed: 3, ..Default::default() })
            .search(&problem, &fixed_hw(), 300);
        let best = result.best.expect("a mapping fitting the fixed HW");
        assert!(best.feasible);
        assert_eq!(best.hw, fixed_hw());
        assert_eq!(*best.genome.fanouts, [8, 16]);
    }

    #[test]
    fn gamma_never_mutates_hardware() {
        let problem = CoOptProblem::new(zoo::ncf(), Platform::edge(), Objective::Latency);
        let hw = fixed_hw();
        let result = Gamma::new(GammaConfig { population_size: 12, seed: 5, ..Default::default() })
            .search(&problem, &hw, 200);
        if let Some(best) = result.best {
            assert_eq!(best.hw.fanouts, hw.fanouts);
            assert_eq!(best.hw.l2_words, hw.l2_words);
        }
    }

    #[test]
    fn bigger_hw_yields_no_worse_mappings() {
        // Sanity: doubling every resource cannot hurt the best latency.
        let problem = CoOptProblem::new(zoo::ncf(), Platform::cloud(), Objective::Latency);
        let small = fixed_hw();
        let big = HwConfig {
            fanouts: [16, 16].into(),
            l2_words: small.l2_words * 8,
            mid_words_per_unit: [].into(),
            l1_words_per_pe: small.l1_words_per_pe * 8,
        };
        let cfg = GammaConfig { population_size: 16, seed: 7, ..Default::default() };
        let a = Gamma::new(cfg.clone()).search(&problem, &small, 400);
        let b = Gamma::new(cfg).search(&problem, &big, 400);
        let (sa, sb) = (a.best.unwrap(), b.best.unwrap());
        assert!(
            sb.latency_cycles <= sa.latency_cycles * 1.5,
            "bigger HW much worse: {} vs {}",
            sb.latency_cycles,
            sa.latency_cycles
        );
    }
}
