//! The structured design-point genome.

use crate::repair;
use digamma_costmodel::{LevelSpec, Levels, Mapping, Platform};
use digamma_workload::{Dim, DimVec, Layer, UniqueLayer, NUM_DIMS};
use rand::seq::SliceRandom;
use rand::Rng;

/// Mapping genes for one cluster level of one layer: the key order, the
/// `P` gene, and the tile-size values of the paper's key/value encoding
/// (Fig. 3(b-c)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelGenes {
    /// Which dimension this level parallelizes across its fan-out.
    pub spatial_dim: Dim,
    /// Temporal loop order, outermost first.
    pub order: [Dim; NUM_DIMS],
    /// Tile extents handed to each sub-unit.
    pub tile: DimVec<u64>,
}

impl Default for LevelGenes {
    /// Canonical-order genes with unit tiles, `K` spatial.
    fn default() -> LevelGenes {
        LevelGenes { spatial_dim: Dim::K, order: Dim::ALL, tile: DimVec::splat(1) }
    }
}

impl LevelGenes {
    /// This level's tile clamped into `[1, parent]`: the nesting repair
    /// and decoding apply, outermost level first.
    fn nested_tile(&self, parent: &DimVec<u64>) -> DimVec<u64> {
        self.tile.map(|t| t.max(1)).min(parent)
    }
}

/// Mapping genes for one unique layer: one [`LevelGenes`] per cluster
/// level, outermost first. The level count always matches the genome's
/// hardware fan-out count. Being inline, the levels keep `LayerGenes`
/// `Copy`, so cloning a genome costs two allocations whatever its layer
/// count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerGenes {
    /// Per-level genes, outermost first.
    pub levels: Levels<LevelGenes>,
}

impl LayerGenes {
    /// Decodes this layer's genes on the PE array `fanouts` into one
    /// [`Mapping`] for `layer`: the one per-layer decode, which
    /// [`Genome::decode_with_fanouts`] runs for every layer.
    ///
    /// Tiles are clamped into the layer's extents and nested (each
    /// level's tile fits its parent's) on the way, exactly as
    /// [`repair`](crate::repair) would, so the result is structurally
    /// valid whatever the genes hold. Levels pair with `fanouts`
    /// outermost first; levels past the shorter of the two are ignored.
    ///
    /// # Panics
    ///
    /// Panics if no level pairs with a fan-out.
    pub fn decode(&self, layer: &Layer, fanouts: &[u64]) -> Mapping {
        let mut parent = *layer.dims();
        Mapping::new(self.levels.iter().zip(fanouts).map(|(genes, &fanout)| {
            parent = genes.nested_tile(&parent);
            LevelSpec { fanout, spatial_dim: genes.spatial_dim, order: genes.order, tile: parent }
        }))
    }

    /// Clamps and nests this layer's tiles in place (see
    /// [`LayerGenes::decode`]).
    pub(crate) fn nest_tiles(&mut self, layer: &Layer) {
        let mut parent = *layer.dims();
        for level in self.levels.iter_mut() {
            level.tile = level.nested_tile(&parent);
            parent = level.tile;
        }
    }
}

/// A full design point: shared hardware genes plus per-unique-layer
/// mapping genes.
///
/// The hardware genes are the per-level fan-outs π (PE array size and
/// aspect ratio); L1/L2 buffer sizes are *not* genes — they are derived
/// from the decoded mappings by the buffer allocation strategy
/// (paper Sec. IV-C).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Genome {
    /// Per-level PE fan-outs, outermost first (`[π_L2, π_L1]`).
    pub fanouts: Levels<u64>,
    /// Mapping genes, one entry per unique layer.
    pub layers: Vec<LayerGenes>,
}

impl Genome {
    /// Number of cluster levels.
    pub fn num_levels(&self) -> usize {
        self.fanouts.len()
    }

    /// Total PEs the hardware genes instantiate.
    pub fn num_pes(&self) -> u64 {
        self.fanouts.iter().product()
    }

    /// Samples a uniformly random (then repaired) genome.
    ///
    /// Fan-outs are sampled log-uniformly up to the platform's PE cap;
    /// tiles log-uniformly within each layer dimension; orders are random
    /// permutations. The result always decodes to valid mappings.
    pub fn random<R: Rng + ?Sized>(
        rng: &mut R,
        unique: &[UniqueLayer],
        platform: &Platform,
        num_levels: usize,
    ) -> Genome {
        assert!(num_levels >= 1, "need at least one level");
        let max_fanout = platform.max_pes;
        let fanouts = (0..num_levels).map(|_| log_uniform(rng, max_fanout)).collect();
        let layers = unique
            .iter()
            .map(|u| LayerGenes {
                levels: (0..num_levels)
                    .map(|_| {
                        let mut order = Dim::ALL;
                        order.shuffle(rng);
                        let spatial_dim = Dim::from_index(rng.gen_range(0..NUM_DIMS));
                        let tile = u.layer.dims().map(|extent| log_uniform(rng, extent));
                        LevelGenes { spatial_dim, order, tile }
                    })
                    .collect(),
            })
            .collect();
        let mut genome = Genome { fanouts, layers };
        repair(&mut genome, unique, platform);
        genome
    }

    /// Builds a genome from explicit per-layer mappings sharing one PE
    /// array (the inverse of [`Genome::decode`]); used by the template
    /// and grid-search baselines so every scheme reports the same design
    /// representation.
    ///
    /// # Panics
    ///
    /// Panics if `mappings` is empty or the mappings disagree on fan-outs.
    pub fn from_mappings(mappings: &[Mapping]) -> Genome {
        assert!(!mappings.is_empty(), "need at least one mapping");
        let fanouts = mappings[0].pe_shape();
        let layers = mappings
            .iter()
            .map(|m| {
                assert_eq!(m.pe_shape(), fanouts, "mappings must share the PE array");
                LayerGenes {
                    levels: m
                        .levels()
                        .iter()
                        .map(|l| LevelGenes {
                            spatial_dim: l.spatial_dim,
                            order: l.order,
                            tile: l.tile,
                        })
                        .collect(),
                }
            })
            .collect();
        Genome { fanouts, layers }
    }

    /// Decodes into one validated [`Mapping`] per unique layer.
    ///
    /// Decoding clamps and nests tiles on the way (see
    /// [`LayerGenes::decode`]), so the result is always structurally
    /// valid — genetic operators and continuous optimizers may hand in
    /// sloppy genomes.
    ///
    /// # Panics
    ///
    /// Panics if `unique.len()` differs from the genome's layer count.
    pub fn decode(&self, unique: &[UniqueLayer]) -> Vec<Mapping> {
        self.decode_with_fanouts(unique, &self.fanouts)
    }

    /// [`Genome::decode`] with the hardware fan-outs overridden — the
    /// Fixed-HW path, where a constraint pins the PE array. Equivalent
    /// to cloning the genome, overwriting `fanouts`, and decoding; each
    /// layer goes through [`LayerGenes::decode`] and nothing is cloned.
    ///
    /// # Panics
    ///
    /// Panics if `unique.len()` differs from the genome's layer count,
    /// or `fanouts.len()` from its level count.
    pub fn decode_with_fanouts(&self, unique: &[UniqueLayer], fanouts: &[u64]) -> Vec<Mapping> {
        assert_eq!(unique.len(), self.layers.len(), "layer count mismatch");
        assert_eq!(fanouts.len(), self.num_levels(), "fan-out count mismatch");
        self.layers.iter().zip(unique).map(|(lg, u)| lg.decode(&u.layer, fanouts)).collect()
    }
}

impl std::fmt::Display for Genome {
    /// Paper-style rendering (Fig. 3(b-c)): one line per level with the
    /// π gene, the `P` gene, and the ordered `key:value` tile genes;
    /// repeated for each unique layer.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (li, lg) in self.layers.iter().enumerate() {
            if self.layers.len() > 1 {
                writeln!(f, "layer {li}:")?;
            }
            for (level, (&fanout, genes)) in self.fanouts.iter().zip(&lg.levels).enumerate() {
                let tag = self.fanouts.len() - level; // L2 outer, L1 inner
                write!(f, "  pi_L{tag}:{fanout} P:{} |", genes.spatial_dim)?;
                for d in genes.order {
                    write!(f, " {}:{}", d, genes.tile[d])?;
                }
                writeln!(f)?;
            }
        }
        Ok(())
    }
}

/// Samples log-uniformly from `[1, max]` (inclusive): the sampler for
/// fan-outs and tile extents, shared with the GA's mutation operators.
pub fn log_uniform<R: Rng + ?Sized>(rng: &mut R, max: u64) -> u64 {
    if max <= 1 {
        return 1;
    }
    let exp = rng.gen_range(0.0..=(max as f64).ln());
    (exp.exp().round() as u64).clamp(1, max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use digamma_workload::zoo;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn random_genomes_always_decode_valid() {
        let unique = zoo::resnet18().unique_layers();
        let platform = Platform::edge();
        let mut rng = SmallRng::seed_from_u64(42);
        for _ in 0..50 {
            let g = Genome::random(&mut rng, &unique, &platform, 2);
            let mappings = g.decode(&unique);
            for (u, m) in unique.iter().zip(&mappings) {
                m.validate(&u.layer).unwrap();
            }
            assert!(g.num_pes() <= platform.max_pes);
        }
    }

    #[test]
    fn three_level_genomes_decode() {
        let unique = zoo::ncf().unique_layers();
        let mut rng = SmallRng::seed_from_u64(1);
        let g = Genome::random(&mut rng, &unique, &Platform::cloud(), 3);
        assert_eq!(g.num_levels(), 3);
        for (u, m) in unique.iter().zip(g.decode(&unique)) {
            m.validate(&u.layer).unwrap();
            assert_eq!(m.levels().len(), 3);
        }
    }

    #[test]
    fn decode_repairs_sloppy_tiles() {
        let unique = zoo::ncf().unique_layers();
        let mut rng = SmallRng::seed_from_u64(2);
        let mut g = Genome::random(&mut rng, &unique, &Platform::edge(), 2);
        // Deliberately break nesting: inner tile larger than outer.
        g.layers[0].levels[0].tile = DimVec::splat(2);
        g.layers[0].levels[1].tile = DimVec::splat(1_000_000);
        let m = &g.decode(&unique)[0];
        m.validate(&unique[0].layer).unwrap();
    }

    #[test]
    fn decode_with_fanouts_matches_clone_and_override() {
        let unique = zoo::ncf().unique_layers();
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..20 {
            let g = Genome::random(&mut rng, &unique, &Platform::edge(), 2);
            let fixed = [4u64, 8];
            let mut overridden = g.clone();
            overridden.fanouts = fixed.into();
            assert_eq!(g.decode_with_fanouts(&unique, &fixed), overridden.decode(&unique));
            // And with the genome's own fan-outs it is exactly `decode`.
            assert_eq!(g.decode_with_fanouts(&unique, &g.fanouts), g.decode(&unique));
        }
    }

    #[test]
    fn log_uniform_stays_in_range() {
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..1000 {
            let v = log_uniform(&mut rng, 64);
            assert!((1..=64).contains(&v));
        }
        assert_eq!(log_uniform(&mut rng, 1), 1);
    }

    #[test]
    fn log_uniform_favors_small_values_geometrically() {
        let mut rng = SmallRng::seed_from_u64(4);
        let n = 10_000;
        let small = (0..n).filter(|_| log_uniform(&mut rng, 1024) <= 32).count();
        // Log-uniform: P(v ≤ 32) = ln(32)/ln(1024) = 0.5.
        let frac = small as f64 / n as f64;
        assert!((0.42..0.58).contains(&frac), "frac {frac}");
    }
}
