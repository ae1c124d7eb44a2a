//! Design-point encoding for HW-Mapping co-optimization (paper Sec. III-C).
//!
//! A design point couples *hardware genes* (per-level PE fan-outs π, from
//! which buffer sizes are derived) with *mapping genes* (per unique layer,
//! per level: loop order, parallel dimension, tile sizes). This crate
//! provides:
//!
//! * [`Genome`] — the structured encoding DiGamma's genetic operators act
//!   on, with [`Genome::decode`] producing validated
//!   [`Mapping`](digamma_costmodel::Mapping)s,
//! * [`repair`] — the normalization pass that clamps and nests tiles so
//!   any perturbed genome decodes to a structurally valid design,
//! * [`Codec`] — a `[0,1]^d` continuous-vector view of the same space
//!   ("random-key" ordering, log-scaled sizes) so that black-box
//!   optimizers (PSO, DE, CMA-ES, …) can search it, and
//! * [`space`] — design-space cardinality calculators reproducing the
//!   O(10¹²) / O(10²⁴) / O(10³⁶) estimates of Sec. I–II.
//!
//! # Example
//!
//! ```
//! use digamma_encoding::{Codec, Genome};
//! use digamma_costmodel::Platform;
//! use digamma_workload::zoo;
//! use rand::SeedableRng;
//!
//! let model = zoo::mnasnet();
//! let unique = model.unique_layers();
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
//! let genome = Genome::random(&mut rng, &unique, &Platform::edge(), 2);
//! let mappings = genome.decode(&unique);
//! assert_eq!(mappings.len(), unique.len());
//! for (u, m) in unique.iter().zip(&mappings) {
//!     m.validate(&u.layer).expect("decoded mappings are always valid");
//! }
//! // The same genome round-trips through the continuous codec.
//! let codec = Codec::new(&unique, &Platform::edge(), 2);
//! let x = codec.encode(&genome);
//! assert_eq!(x.len(), codec.dimension());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod codec;
mod genome;
mod repair;
pub mod space;
mod text;

pub use codec::Codec;
pub use genome::{log_uniform, Genome, LayerGenes, LevelGenes};
pub use repair::repair;
pub use text::GenomeParseError;
