//! A MAESTRO-class analytical cost model for spatial DNN accelerators.
//!
//! The DiGamma paper evaluates every candidate design point with
//! [MAESTRO](https://github.com/maestro-project/maestro) (Kwon et al.,
//! MICRO 2019). This crate is an independent re-implementation of the same
//! *class* of model — an analytical, data-centric reuse analysis — built
//! from scratch for this reproduction:
//!
//! * [`Mapping`] — the decoded mapping IR: one [`LevelSpec`] per cluster
//!   level (tile sizes, loop order, spatial dim, fan-out),
//! * [`analysis`] — per-level iteration counts, refetch factors, link
//!   traffic, and minimum buffer requirements,
//! * [`latency`] — a roofline latency model over compute and every
//!   memory link (DRAM→L2, L2→L1, optional middle level),
//! * [`energy`] — access counts × per-access energy (Eyeriss-style ratios),
//! * [`area`] — the synthesized-RTL area substitute (see `DESIGN.md`),
//! * [`Evaluator`] — the front door: `(layer, mapping, platform) →`
//!   [`CostReport`], one reuse analysis per call into a per-thread
//!   buffer,
//! * [`simulate`] — the executable reference simulator that the
//!   analysis is validated against (the correctness oracle, not a hot
//!   path).
//!
//! # Example
//!
//! ```
//! use digamma_costmodel::{Evaluator, Mapping, Platform};
//! use digamma_workload::Layer;
//!
//! let layer = Layer::conv("l", 64, 32, 16, 16, 3, 3, 1);
//! let mapping = Mapping::row_major_example(&layer, 8, 8);
//! let report = Evaluator::new(Platform::edge()).evaluate(&layer, &mapping)?;
//! assert!(report.latency_cycles > 0.0);
//! assert!(report.buffers.l1_words_per_pe > 0);
//! # Ok::<(), digamma_costmodel::EvalError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod area;
pub mod cachekey;
pub mod energy;
pub mod latency;
pub mod simulate;

mod accelerator;
mod error;
mod eval;
mod mapping;
mod report;

pub use accelerator::{HwConfig, Platform};
pub use analysis::{analyze, Analysis, BufferRequirement};
pub use area::{AreaModel, AREA_MODEL_15NM};
pub use cachekey::{layer_eval_key, StableHasher};
pub use energy::{EnergyModel, ENERGY_MODEL_DEFAULT};
pub use error::EvalError;
pub use eval::Evaluator;
pub use mapping::{LevelSpec, Mapping, MAX_LEVELS};
pub use report::CostReport;
