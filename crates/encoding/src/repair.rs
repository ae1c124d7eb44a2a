//! Genome repair: normalize arbitrary gene values into a valid design.
//!
//! Genetic operators and continuous decoders are allowed to produce
//! out-of-range values; repair is the single place that restores the
//! structural invariants the cost model demands:
//!
//! 1. every fan-out ≥ 1 and the PE product within the platform cap,
//! 2. every tile extent in `[1, layer extent]`,
//! 3. tiles nested (each level's tile fits its parent's).
//!
//! Repair is idempotent, a property the test suite checks.

use crate::genome::Genome;
use digamma_costmodel::Platform;
use digamma_workload::UniqueLayer;

/// Fully repairs a genome in place (fan-outs, clamping, nesting).
pub fn repair(genome: &mut Genome, unique: &[UniqueLayer], platform: &Platform) {
    repair_fanouts(genome, platform);
    nest_tiles(genome, unique);
}

/// Clamps fan-outs to ≥ 1 and shrinks the largest fan-outs until the PE
/// product respects the platform cap.
pub(crate) fn repair_fanouts(genome: &mut Genome, platform: &Platform) {
    for f in genome.fanouts.iter_mut() {
        *f = (*f).max(1);
    }
    // Halve the largest fan-out until within budget; terminates because
    // the product strictly decreases while any fan-out exceeds 1.
    while genome.fanouts.iter().product::<u64>() > platform.max_pes {
        let largest = genome
            .fanouts
            .iter()
            .enumerate()
            .max_by_key(|(_, &f)| f)
            .map(|(i, _)| i)
            .expect("non-empty fan-outs");
        genome.fanouts[largest] = (genome.fanouts[largest] / 2).max(1);
    }
}

/// Clamps tiles into layer extents and enforces parent⊇child nesting.
pub(crate) fn nest_tiles(genome: &mut Genome, unique: &[UniqueLayer]) {
    for (layer_genes, u) in genome.layers.iter_mut().zip(unique) {
        layer_genes.nest_tiles(&u.layer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genome::{Genome, LayerGenes, LevelGenes};
    use digamma_workload::{DimVec, Layer, UniqueLayer};

    fn unique() -> Vec<UniqueLayer> {
        vec![UniqueLayer { layer: Layer::conv("l", 64, 32, 16, 16, 3, 3, 1), count: 1 }]
    }

    fn broken_genome() -> Genome {
        Genome {
            fanouts: [0, 1 << 40].into(),
            layers: vec![LayerGenes {
                levels: [
                    LevelGenes { tile: DimVec::splat(0), ..LevelGenes::default() },
                    LevelGenes { tile: DimVec::splat(u64::MAX), ..LevelGenes::default() },
                ]
                .into(),
            }],
        }
    }

    #[test]
    fn repair_fixes_everything() {
        let mut g = broken_genome();
        let platform = Platform::edge();
        repair(&mut g, &unique(), &platform);
        assert!(g.num_pes() <= platform.max_pes);
        assert!(g.fanouts.iter().all(|&f| f >= 1));
        for m in g.decode(&unique()) {
            m.validate(&unique()[0].layer).unwrap();
        }
    }

    #[test]
    fn repair_is_idempotent() {
        let mut g = broken_genome();
        let platform = Platform::edge();
        repair(&mut g, &unique(), &platform);
        let once = g.clone();
        repair(&mut g, &unique(), &platform);
        assert_eq!(g, once);
    }

    #[test]
    fn repair_preserves_valid_genomes() {
        let mut g = Genome {
            fanouts: [4, 8].into(),
            layers: vec![LayerGenes {
                levels: [
                    LevelGenes { tile: DimVec([16, 32, 8, 16, 3, 3]), ..LevelGenes::default() },
                    LevelGenes { tile: DimVec([4, 8, 2, 4, 3, 1]), ..LevelGenes::default() },
                ]
                .into(),
            }],
        };
        let before = g.clone();
        repair(&mut g, &unique(), &Platform::edge());
        assert_eq!(g, before, "valid genomes must pass through untouched");
    }

    #[test]
    fn fanout_cap_shrinks_largest_first() {
        let mut g = broken_genome();
        repair_fanouts(&mut g, &Platform::edge());
        // The zero fan-out became 1; the huge one was halved down.
        assert_eq!(g.fanouts[0], 1);
        assert!(g.fanouts[1] <= Platform::edge().max_pes);
    }
}
