//! Continuous-vector view of the genome for black-box optimizers.
//!
//! Nevergrad-style algorithms (PSO, DE, CMA-ES, …) search `[0,1]^d`. This
//! codec maps such vectors onto [`Genome`]s:
//!
//! * fan-outs and tile sizes are **log-scaled** (`v = round(max^x)`), so a
//!   uniform step in `x` is a multiplicative step in the size — the
//!   natural metric for tiling;
//! * loop orders use the **random-key** trick: six keys per level, sorted
//!   ascending, yield the permutation;
//! * the parallel dimension is a 6-way bucket.
//!
//! Every vector decodes to a *valid* design point (decode ends with
//! [`repair`]), which is what makes the comparison of Fig. 5 fair: no
//! baseline ever wastes samples on structurally broken mappings.

use crate::genome::{Genome, LayerGenes, LevelGenes};
use crate::repair::repair;
use digamma_costmodel::{Levels, Platform};
use digamma_workload::{Dim, DimVec, UniqueLayer, NUM_DIMS};

/// Genes per (layer, level): 6 order keys + 1 parallel bucket + 6 tiles.
const GENES_PER_LEVEL: usize = 2 * NUM_DIMS + 1;

/// Bidirectional mapping between `[0,1]^d` vectors and [`Genome`]s.
#[derive(Debug, Clone)]
pub struct Codec {
    unique: Vec<UniqueLayer>,
    platform: Platform,
    num_levels: usize,
}

impl Codec {
    /// Creates a codec for a model's unique layers on a platform.
    pub fn new(unique: &[UniqueLayer], platform: &Platform, num_levels: usize) -> Codec {
        assert!(num_levels >= 1, "need at least one level");
        Codec { unique: unique.to_vec(), platform: platform.clone(), num_levels }
    }

    /// The search-space dimensionality `d`.
    pub fn dimension(&self) -> usize {
        self.num_levels + self.unique.len() * self.num_levels * GENES_PER_LEVEL
    }

    /// The unique layers this codec encodes mappings for.
    pub fn unique_layers(&self) -> &[UniqueLayer] {
        &self.unique
    }

    /// Decodes a vector into a repaired, always-valid genome.
    ///
    /// Coordinates are clamped into `[0,1]` first, so optimizers need not
    /// respect bounds exactly.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dimension()`.
    pub fn decode(&self, x: &[f64]) -> Genome {
        assert_eq!(x.len(), self.dimension(), "vector length mismatch");
        let clamp = |v: f64| if v.is_finite() { v.clamp(0.0, 1.0) } else { 0.5 };

        let fanouts =
            (0..self.num_levels).map(|i| log_scale(clamp(x[i]), self.platform.max_pes)).collect();

        let mut layers = Vec::with_capacity(self.unique.len());
        let mut off = self.num_levels;
        for u in &self.unique {
            let mut levels = Levels::default();
            for _ in 0..self.num_levels {
                let keys = &x[off..off + NUM_DIMS];
                let order = order_from_keys(keys);
                let spatial_idx =
                    ((clamp(x[off + NUM_DIMS]) * NUM_DIMS as f64) as usize).min(NUM_DIMS - 1);
                let spatial_dim = Dim::from_index(spatial_idx);
                let mut tile = DimVec::splat(1u64);
                for (i, d) in Dim::ALL.iter().enumerate() {
                    let extent = u.layer.dims()[*d];
                    tile[*d] = log_scale(clamp(x[off + NUM_DIMS + 1 + i]), extent);
                }
                levels.push(LevelGenes { spatial_dim, order, tile });
                off += GENES_PER_LEVEL;
            }
            layers.push(LayerGenes { levels });
        }

        let mut genome = Genome { fanouts, layers };
        repair(&mut genome, &self.unique, &self.platform);
        genome
    }

    /// Encodes a genome back into a vector (the center of each gene's
    /// pre-image, so `decode(encode(g)) == g` for repaired genomes).
    pub fn encode(&self, genome: &Genome) -> Vec<f64> {
        let mut x = Vec::with_capacity(self.dimension());
        for &f in &genome.fanouts {
            x.push(log_unscale(f, self.platform.max_pes));
        }
        for (lg, u) in genome.layers.iter().zip(&self.unique) {
            for level in &lg.levels {
                // Keys: dim at order position p gets key centered in its slot.
                let mut keys = [0.0f64; NUM_DIMS];
                for (pos, d) in level.order.iter().enumerate() {
                    keys[d.index()] = (pos as f64 + 0.5) / NUM_DIMS as f64;
                }
                x.extend_from_slice(&keys);
                x.push((level.spatial_dim.index() as f64 + 0.5) / NUM_DIMS as f64);
                for d in Dim::ALL {
                    x.push(log_unscale(level.tile[d], u.layer.dims()[d]));
                }
            }
        }
        x
    }
}

/// `x ∈ [0,1] → round(max^x)`, clamped to `[1, max]`.
fn log_scale(x: f64, max: u64) -> u64 {
    if max <= 1 {
        return 1;
    }
    let v = (max as f64).powf(x).round() as u64;
    v.clamp(1, max)
}

/// Inverse of [`log_scale`] (center value: `ln(v)/ln(max)`).
fn log_unscale(v: u64, max: u64) -> f64 {
    if max <= 1 || v <= 1 {
        return 0.0;
    }
    (v as f64).ln() / (max as f64).ln()
}

/// Random-key decoding: sort dims by ascending key (ties break on
/// canonical index, keeping decoding deterministic).
fn order_from_keys(keys: &[f64]) -> [Dim; NUM_DIMS] {
    let mut indexed: Vec<(usize, f64)> =
        keys.iter().enumerate().map(|(i, &k)| (i, if k.is_finite() { k } else { 0.5 })).collect();
    indexed.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
    let mut order = Dim::ALL;
    for (pos, (dim_idx, _)) in indexed.iter().enumerate() {
        order[pos] = Dim::from_index(*dim_idx);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use digamma_workload::zoo;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn codec() -> Codec {
        let unique = zoo::ncf().unique_layers();
        Codec::new(&unique, &Platform::edge(), 2)
    }

    #[test]
    fn dimension_matches_layout() {
        let c = codec();
        let n_layers = c.unique_layers().len();
        assert_eq!(c.dimension(), 2 + n_layers * 2 * 13);
    }

    #[test]
    fn any_vector_decodes_to_valid_mappings() {
        let c = codec();
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..100 {
            let x: Vec<f64> = (0..c.dimension()).map(|_| rng.gen_range(-0.5..1.5)).collect();
            let g = c.decode(&x);
            for (u, m) in c.unique_layers().iter().zip(g.decode(c.unique_layers())) {
                m.validate(&u.layer).unwrap();
            }
        }
    }

    #[test]
    fn nan_coordinates_are_tolerated() {
        let c = codec();
        let x = vec![f64::NAN; c.dimension()];
        let g = c.decode(&x);
        for (u, m) in c.unique_layers().iter().zip(g.decode(c.unique_layers())) {
            m.validate(&u.layer).unwrap();
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let c = codec();
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..20 {
            let g = Genome::random(&mut rng, c.unique_layers(), &Platform::edge(), 2);
            let x = c.encode(&g);
            assert_eq!(x.len(), c.dimension());
            let g2 = c.decode(&x);
            assert_eq!(g, g2, "decode(encode(g)) must reproduce g");
        }
    }

    #[test]
    fn order_from_keys_sorts_ascending() {
        let keys = [0.9, 0.1, 0.5, 0.3, 0.7, 0.2];
        let order = order_from_keys(&keys);
        assert_eq!(order[0], Dim::C); // key 0.1
        assert_eq!(order[5], Dim::K); // key 0.9
    }

    #[test]
    fn log_scale_endpoints() {
        assert_eq!(log_scale(0.0, 1024), 1);
        assert_eq!(log_scale(1.0, 1024), 1024);
        assert_eq!(log_scale(0.5, 1024), 32);
        assert_eq!(log_scale(0.7, 1), 1);
    }
}
