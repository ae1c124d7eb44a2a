//! The decoded mapping IR: a stack of cluster levels.

use crate::error::EvalError;
use crate::levels::{Levels, MAX_LEVELS};
use digamma_workload::{Dim, DimVec, Layer, NUM_DIMS};
use std::fmt;

/// One cluster level of a mapping, outermost first.
///
/// Level 0 describes how the global (L2) buffer distributes tiles across
/// its `fanout` sub-clusters; the innermost level describes how a 1-D PE
/// array distributes tiles across individual PEs. `fanout` is a *hardware*
/// gene (it sizes the PE array); the rest are mapping genes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LevelSpec {
    /// Number of sub-units instantiated at this level (π in the paper).
    pub fanout: u64,
    /// The dimension whose tiles are distributed spatially across the
    /// sub-units (the `P` gene).
    pub spatial_dim: Dim,
    /// Temporal loop order, outermost first (the gene key order).
    pub order: [Dim; NUM_DIMS],
    /// Tile extents handed to **each** sub-unit per step (the gene values).
    pub tile: DimVec<u64>,
}

impl LevelSpec {
    /// A level that hands each of `fanout` sub-units a unit tile in
    /// canonical order, parallelizing `spatial_dim`.
    pub fn unit(fanout: u64, spatial_dim: Dim) -> LevelSpec {
        LevelSpec { fanout, spatial_dim, order: Dim::ALL, tile: DimVec::splat(1) }
    }

    /// The "stacked" tile this level works on per step: the union of all
    /// `fanout` sub-tiles, i.e. `tile` scaled by `fanout` along the spatial
    /// dim and clamped to `parent` extents.
    pub fn stacked_tile(&self, parent: &DimVec<u64>) -> DimVec<u64> {
        let mut stacked = self.tile;
        stacked[self.spatial_dim] = stacked[self.spatial_dim].saturating_mul(self.fanout);
        stacked.min(parent)
    }

    /// Temporal iteration counts over `parent` extents
    /// (`ceil(parent/tile)`, with the spatial dim folded by `fanout`).
    pub fn iteration_counts(&self, parent: &DimVec<u64>) -> DimVec<u64> {
        let stacked = self.stacked_tile(parent);
        parent.zip_with(stacked, |p, s| p.div_ceil(s.max(1)))
    }
}

impl Default for LevelSpec {
    /// One unit with a unit tile, in canonical order, `K` spatial.
    fn default() -> LevelSpec {
        LevelSpec::unit(1, Dim::K)
    }
}

impl fmt::Display for LevelSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "π:{} P:{} | ", self.fanout, self.spatial_dim)?;
        for d in self.order {
            write!(f, "{}:{} ", d, self.tile[d])?;
        }
        Ok(())
    }
}

/// A complete decoded mapping: cluster levels from the global buffer down
/// to the PE array.
///
/// Invariants (checked by [`Mapping::validate`]):
/// * 1..=[`MAX_LEVELS`] levels,
/// * every tile extent and fan-out is ≥ 1,
/// * each level's tile fits inside its parent's tile,
/// * each level's loop order is a permutation of the six dims.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Mapping {
    levels: Levels<LevelSpec>,
}

impl Mapping {
    /// Creates a mapping from its levels (outermost first) without
    /// validating against a layer. Call [`Mapping::validate`] before
    /// evaluation.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is empty or yields more than [`MAX_LEVELS`]
    /// entries.
    pub fn new(levels: impl IntoIterator<Item = LevelSpec>) -> Mapping {
        let levels: Levels<LevelSpec> = levels.into_iter().collect();
        assert!(!levels.is_empty(), "mapping must have 1..={MAX_LEVELS} levels");
        Mapping { levels }
    }

    /// The levels, outermost first.
    pub fn levels(&self) -> &[LevelSpec] {
        &self.levels
    }

    /// Mutable access to the levels for in-place operators (genetic
    /// perturbations re-validate afterwards).
    pub fn levels_mut(&mut self) -> &mut [LevelSpec] {
        &mut self.levels
    }

    /// Total number of PEs: the product of all level fan-outs.
    pub fn num_pes(&self) -> u64 {
        self.levels.iter().map(|l| l.fanout).product()
    }

    /// PE array shape, outermost level first (e.g. `[rows, cols]`).
    pub fn pe_shape(&self) -> Levels<u64> {
        self.levels.iter().map(|l| l.fanout).collect()
    }

    /// Checks all structural invariants against `layer`.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as an [`EvalError`].
    pub fn validate(&self, layer: &Layer) -> Result<(), EvalError> {
        let mut parent = *layer.dims();
        for (i, level) in self.levels.iter().enumerate() {
            if level.fanout < 1 {
                return Err(EvalError::ZeroFanout { level: i });
            }
            if !level.tile.all_positive() {
                return Err(EvalError::ZeroTile { level: i });
            }
            if !level.tile.fits_within(&parent) {
                return Err(EvalError::TileExceedsParent { level: i, tile: level.tile, parent });
            }
            let mut seen = [false; NUM_DIMS];
            for d in level.order {
                if std::mem::replace(&mut seen[d.index()], true) {
                    return Err(EvalError::InvalidOrder { level: i });
                }
            }
            parent = level.tile;
        }
        Ok(())
    }

    /// A simple, always-valid two-level mapping for examples and tests: a
    /// `rows × cols` PE array with K parallelized across clusters, Y across
    /// PEs, canonical loop order, and unit inner tiles along the spatially
    /// mapped dims.
    ///
    /// Not an optimized mapping — just a well-formed starting point.
    pub fn row_major_example(layer: &Layer, rows: u64, cols: u64) -> Mapping {
        let dims = layer.dims();
        // L2 level: hand each cluster one K-slice of the full spatial extent.
        let mut l2_tile = *dims;
        l2_tile[Dim::K] = dims[Dim::K].div_ceil(rows).max(1);
        let l2 = LevelSpec { fanout: rows, spatial_dim: Dim::K, order: Dim::ALL, tile: l2_tile };
        // L1 level: each PE gets one output row of that slice.
        let mut l1_tile = l2_tile;
        l1_tile[Dim::Y] = l2_tile[Dim::Y].div_ceil(cols).max(1);
        let l1 = LevelSpec { fanout: cols, spatial_dim: Dim::Y, order: Dim::ALL, tile: l1_tile };
        Mapping::new([l2, l1])
    }
}

impl fmt::Display for Mapping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, level) in self.levels.iter().enumerate() {
            writeln!(f, "L{}: {}", self.levels.len() - i, level)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use digamma_workload::Layer;

    fn layer() -> Layer {
        Layer::conv("l", 64, 32, 16, 16, 3, 3, 1)
    }

    #[test]
    fn row_major_example_validates() {
        let l = layer();
        let m = Mapping::row_major_example(&l, 8, 4);
        m.validate(&l).unwrap();
        assert_eq!(m.num_pes(), 32);
        assert_eq!(*m.pe_shape(), [8, 4]);
    }

    #[test]
    fn stacked_tile_clamps_to_parent() {
        let level = LevelSpec {
            fanout: 16,
            spatial_dim: Dim::K,
            order: Dim::ALL,
            tile: DimVec([8, 4, 4, 4, 1, 1]),
        };
        let parent = DimVec([64, 8, 8, 8, 3, 3]);
        let stacked = level.stacked_tile(&parent);
        // 8 * 16 = 128 clamps to 64.
        assert_eq!(stacked[Dim::K], 64);
        assert_eq!(stacked[Dim::C], 4);
    }

    #[test]
    fn iteration_counts_fold_spatial_dim() {
        let level = LevelSpec {
            fanout: 4,
            spatial_dim: Dim::K,
            order: Dim::ALL,
            tile: DimVec([4, 8, 16, 16, 3, 3]),
        };
        let parent = DimVec([64, 32, 16, 16, 3, 3]);
        let n = level.iteration_counts(&parent);
        // K: 64 / (4*4) = 4 temporal folds; C: 32/8 = 4; others: 1.
        assert_eq!(n[Dim::K], 4);
        assert_eq!(n[Dim::C], 4);
        assert_eq!(n[Dim::Y], 1);
        assert_eq!(n[Dim::R], 1);
    }

    #[test]
    fn iteration_counts_use_ceiling() {
        let level = LevelSpec {
            fanout: 1,
            spatial_dim: Dim::K,
            order: Dim::ALL,
            tile: DimVec([5, 1, 1, 1, 1, 1]),
        };
        let parent = DimVec([12, 1, 1, 1, 1, 1]);
        // ceil(12/5) = 3 — the last fold runs under-filled.
        assert_eq!(level.iteration_counts(&parent)[Dim::K], 3);
    }

    #[test]
    fn validate_rejects_oversized_tiles() {
        let l = layer();
        let mut m = Mapping::row_major_example(&l, 2, 2);
        m.levels_mut()[1].tile[Dim::C] = 999;
        assert!(matches!(m.validate(&l), Err(EvalError::TileExceedsParent { level: 1, .. })));
    }

    #[test]
    fn validate_rejects_duplicate_order() {
        let l = layer();
        let mut m = Mapping::row_major_example(&l, 2, 2);
        m.levels_mut()[0].order = [Dim::K, Dim::K, Dim::Y, Dim::X, Dim::R, Dim::S];
        assert!(matches!(m.validate(&l), Err(EvalError::InvalidOrder { level: 0 })));
    }

    #[test]
    fn validate_rejects_zero_fanout() {
        let l = layer();
        let mut m = Mapping::row_major_example(&l, 2, 2);
        m.levels_mut()[0].fanout = 0;
        assert!(matches!(m.validate(&l), Err(EvalError::ZeroFanout { level: 0 })));
    }

    #[test]
    #[should_panic(expected = "levels")]
    fn too_many_levels_panics() {
        let _ = Mapping::new([LevelSpec::unit(1, Dim::K); 4]);
    }

    #[test]
    #[should_panic(expected = "levels")]
    fn no_levels_panics() {
        let _ = Mapping::new([]);
    }
}
