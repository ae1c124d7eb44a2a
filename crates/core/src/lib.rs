//! DiGamma: HW-Mapping co-optimization for DNN accelerators.
//!
//! This crate is the reproduction of the paper's primary contribution
//! (Kao, Pellauer, Parashar, Krishna — DATE 2022): a framework that
//! searches the *joint* space of accelerator hardware configurations
//! (PE array size/shape, derived buffer capacities) and mappings
//! (tiling, loop order, parallelism, clustering) under an area budget,
//! plus the domain-aware genetic algorithm that makes the search
//! sample-efficient.
//!
//! * [`CoOptProblem`] — the evaluation block of Fig. 3(a): decode a
//!   genome, score every unique layer with the cost model, derive the
//!   minimum-footprint hardware, and check the area budget,
//! * [`DiGamma`] — the domain-aware GA of Sec. IV-C (Crossover, Reorder,
//!   Grow/Aging, Mutate-Map, Mutate-HW + buffer allocation strategy),
//! * [`run_algorithm`] — plugs any [`digamma_opt::Algorithm`] baseline
//!   into the same problem through the continuous codec,
//! * [`Gamma`] — the mapping-only GA baseline (GAMMA, ICCAD 2020),
//! * [`templates`] — NVDLA-like / ShiDianNao-like / Eyeriss-like fixed
//!   mappings,
//! * [`hw_grid_search`] — the HW-opt baseline (grid search over PE and
//!   buffer allocations with a fixed mapping style),
//! * [`schemes`] — the fixed HW presets (Buffer-/Medium-/Compute-focused)
//!   used by the Mapping-opt baseline, and
//! * [`tuning`] — GP-BO hyper-parameter search for DiGamma (footnote 3).
//!
//! # Quickstart
//!
//! ```
//! use digamma::{CoOptProblem, DiGamma, DiGammaConfig, Objective};
//! use digamma_costmodel::Platform;
//! use digamma_workload::zoo;
//!
//! let problem = CoOptProblem::new(zoo::ncf(), Platform::edge(), Objective::Latency);
//! let mut config = DiGammaConfig::default();
//! config.population_size = 20;
//! config.seed = 1;
//! let result = DiGamma::new(config).search(&problem, 200);
//! let best = result.best.expect("found a valid design");
//! assert!(best.feasible);
//! assert!(best.area_um2 <= Platform::edge().area_budget_um2);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod schemes;
pub mod templates;
pub mod tuning;

mod coopt;
mod digamma_ga;
mod gamma;
mod hwopt;
mod objective;
mod parallel;
mod problem;
mod result;

pub use coopt::run_algorithm;
pub use digamma_ga::{DiGamma, DiGammaConfig, SearchState, StepAction, StepObserver, StopCause};
pub use gamma::{Gamma, GammaConfig};
pub use hwopt::{hw_grid_search, GridSearchResult};
pub use objective::Objective;
pub use parallel::{default_threads, parallel_map, scoped_workers};
pub use problem::{CoOptProblem, Constraint, DesignEvaluation, EvalHooks, LayerCost, Memo, Parent};
pub use result::{DesignPoint, SearchResult};
pub use templates::MappingStyle;
