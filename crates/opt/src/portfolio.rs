//! Passive portfolio: several base optimizers sharing one budget.
//!
//! Nevergrad's `Portfolio` runs a fixed set of base solvers round-robin
//! and reports the best answer any of them found — no adaptive budget
//! reallocation (that would be an *active* portfolio). The member set
//! mirrors nevergrad's default flavour: a hill climber, a differential
//! evolution, and a swarm.

use crate::de::De;
use crate::one_plus_one::OnePlusOne;
use crate::optimizer::{BestTracker, Optimizer};
use crate::pso::Pso;
use std::collections::VecDeque;

/// Round-robin portfolio of `(1+1)-ES`, `DE`, and `PSO`.
pub struct Portfolio {
    dim: usize,
    members: Vec<Box<dyn Optimizer + Send>>,
    next_member: usize,
    outstanding: VecDeque<usize>,
    best: BestTracker,
}

impl std::fmt::Debug for Portfolio {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Portfolio")
            .field("dim", &self.dim)
            .field("members", &self.members.len())
            .field("next_member", &self.next_member)
            .finish()
    }
}

impl Portfolio {
    /// Creates the default three-member portfolio with decorrelated seeds.
    pub fn new(dim: usize, seed: u64) -> Portfolio {
        let members: Vec<Box<dyn Optimizer + Send>> = vec![
            Box::new(OnePlusOne::new(dim, seed ^ 0x9e37_79b9)),
            Box::new(De::new(dim, seed ^ 0x85eb_ca6b)),
            Box::new(Pso::new(dim, seed ^ 0xc2b2_ae35)),
        ];
        Portfolio {
            dim,
            members,
            next_member: 0,
            outstanding: VecDeque::new(),
            best: BestTracker::new(),
        }
    }
}

impl Optimizer for Portfolio {
    fn dim(&self) -> usize {
        self.dim
    }

    fn ask(&mut self) -> Vec<f64> {
        let idx = self.next_member;
        self.next_member = (self.next_member + 1) % self.members.len();
        self.outstanding.push_back(idx);
        self.members[idx].ask()
    }

    fn tell(&mut self, x: &[f64], value: f64) {
        self.best.observe(x, value);
        if let Some(idx) = self.outstanding.pop_front() {
            self.members[idx].tell(x, value);
        }
    }

    fn best(&self) -> Option<(&[f64], f64)> {
        self.best.get()
    }

    fn name(&self) -> &'static str {
        "Portfolio"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::{minimize, test_functions::sphere};

    #[test]
    fn converges_on_sphere() {
        let mut opt = Portfolio::new(5, 61);
        let (_, v) = minimize(&mut opt, sphere, 1500);
        assert!(v < 1e-3, "best {v}");
    }

    #[test]
    fn asks_round_robin() {
        let mut opt = Portfolio::new(3, 63);
        for _ in 0..6 {
            let x = opt.ask();
            opt.tell(&x, 1.0);
        }
        // After 6 asks each of the 3 members was asked twice — verified
        // indirectly: the outstanding queue drained completely.
        assert!(opt.outstanding.is_empty());
    }

    #[test]
    fn best_aggregates_across_members() {
        let mut opt = Portfolio::new(2, 65);
        let mut manual_best = f64::INFINITY;
        for _ in 0..90 {
            let x = opt.ask();
            let v = sphere(&x);
            opt.tell(&x, v);
            manual_best = manual_best.min(v);
        }
        assert_eq!(opt.best().unwrap().1, manual_best);
    }
}
