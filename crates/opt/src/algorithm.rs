//! Named algorithm factory matching the paper's Fig. 5 columns.

use crate::{CmaEs, De, OnePlusOne, Optimizer, Portfolio, Pso, RandomSearch, StdGa, Tbpsa};
use std::fmt;

/// The eight baseline optimization algorithms of Fig. 5.
///
/// `Algorithm::ALL` iterates them in the paper's column order; the
/// experiment harness builds each with [`Algorithm::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Uniform random search.
    Random,
    /// Standard (domain-blind) genetic algorithm.
    StdGa,
    /// Particle swarm optimization.
    Pso,
    /// Test-based population size adaptation.
    Tbpsa,
    /// (1+1) evolution strategy.
    OnePlusOne,
    /// Differential evolution.
    De,
    /// Passive portfolio of base solvers.
    Portfolio,
    /// Covariance matrix adaptation evolution strategy.
    Cma,
}

impl Algorithm {
    /// All baselines in the paper's column order.
    pub const ALL: [Algorithm; 8] = [
        Algorithm::Random,
        Algorithm::StdGa,
        Algorithm::Pso,
        Algorithm::Tbpsa,
        Algorithm::OnePlusOne,
        Algorithm::De,
        Algorithm::Portfolio,
        Algorithm::Cma,
    ];

    /// Instantiates the algorithm for a `dim`-dimensional unit box.
    pub fn build(self, dim: usize, seed: u64) -> Box<dyn Optimizer + Send> {
        match self {
            Algorithm::Random => Box::new(RandomSearch::new(dim, seed)),
            Algorithm::StdGa => Box::new(StdGa::new(dim, seed)),
            Algorithm::Pso => Box::new(Pso::new(dim, seed)),
            Algorithm::Tbpsa => Box::new(Tbpsa::new(dim, seed)),
            Algorithm::OnePlusOne => Box::new(OnePlusOne::new(dim, seed)),
            Algorithm::De => Box::new(De::new(dim, seed)),
            Algorithm::Portfolio => Box::new(Portfolio::new(dim, seed)),
            Algorithm::Cma => Box::new(CmaEs::new(dim, seed)),
        }
    }

    /// The column label used in the paper's tables.
    pub fn paper_name(self) -> &'static str {
        match self {
            Algorithm::Random => "Random",
            Algorithm::StdGa => "stdGA",
            Algorithm::Pso => "PSO",
            Algorithm::Tbpsa => "TBPSA",
            Algorithm::OnePlusOne => "(1+1)-ES",
            Algorithm::De => "DE",
            Algorithm::Portfolio => "Portfolio",
            Algorithm::Cma => "CMA",
        }
    }

    /// Parses a paper-style name (case-insensitive).
    pub fn from_name(name: &str) -> Option<Algorithm> {
        let lower = name.to_ascii_lowercase();
        Algorithm::ALL.into_iter().find(|a| a.paper_name().to_ascii_lowercase() == lower)
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.paper_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minimize;

    #[test]
    fn every_algorithm_builds_and_optimizes() {
        let f = |x: &[f64]| x.iter().map(|v| (v - 0.5).powi(2)).sum::<f64>();
        for alg in Algorithm::ALL {
            let mut opt = alg.build(4, 99);
            assert_eq!(opt.dim(), 4);
            let (_, v) = minimize(opt.as_mut(), f, 300);
            assert!(v < 0.5, "{alg} best {v}");
        }
    }

    #[test]
    fn names_roundtrip() {
        for alg in Algorithm::ALL {
            assert_eq!(Algorithm::from_name(alg.paper_name()), Some(alg));
        }
        assert_eq!(Algorithm::from_name("cma"), Some(Algorithm::Cma));
        assert_eq!(Algorithm::from_name("nope"), None);
    }

    #[test]
    fn builds_are_deterministic_per_seed() {
        for alg in Algorithm::ALL {
            let mut a = alg.build(3, 7);
            let mut b = alg.build(3, 7);
            for _ in 0..5 {
                assert_eq!(a.ask(), b.ask(), "{alg} not deterministic");
            }
        }
    }
}
