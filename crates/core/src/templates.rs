//! Fixed mapping templates: NVDLA-like, ShiDianNao-like, Eyeriss-like.
//!
//! The HW-opt baseline (Sec. V-A) pairs a hardware grid search with a
//! *manually designed* mapping style. Each style here is a parametric
//! generator: given a layer and a hardware configuration it picks the
//! style's characteristic parallelism and loop order, then greedily grows
//! tile sizes (multiplicatively, in a style-specific priority) until the
//! hardware's L1/L2 buffers are full.
//!
//! | Style | Parallelism | Stationarity |
//! |-------|-------------|--------------|
//! | [`MappingStyle::DlaLike`] | K across clusters, C across PEs | weight-stationary |
//! | [`MappingStyle::ShiLike`] | Y across clusters, X across PEs | output-stationary |
//! | [`MappingStyle::EyeLike`] | Y across clusters, R across PEs | row-stationary |

use digamma_costmodel::{HwConfig, LevelSpec, Mapping};
use digamma_workload::{tensor_footprint, Dim, DimVec, Layer, Tensor, NUM_DIMS};
use std::fmt;

/// The three manual mapping styles of the HW-opt baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MappingStyle {
    /// NVDLA-like: K-C parallelism, weight-stationary orders.
    DlaLike,
    /// ShiDianNao-like: Y-X parallelism, output-stationary orders.
    ShiLike,
    /// Eyeriss-like: Y-R parallelism, row-stationary orders.
    EyeLike,
}

impl MappingStyle {
    /// All styles, in the paper's column order.
    pub const ALL: [MappingStyle; 3] =
        [MappingStyle::DlaLike, MappingStyle::ShiLike, MappingStyle::EyeLike];

    /// `(cluster-level, PE-level)` parallel dimensions.
    pub fn parallel_dims(self) -> (Dim, Dim) {
        match self {
            MappingStyle::DlaLike => (Dim::K, Dim::C),
            MappingStyle::ShiLike => (Dim::Y, Dim::X),
            MappingStyle::EyeLike => (Dim::Y, Dim::R),
        }
    }

    /// Loop order used at both levels (outermost first).
    fn order(self) -> [Dim; NUM_DIMS] {
        match self {
            // Weight-relevant loops outermost: weights stream once.
            MappingStyle::DlaLike => [Dim::K, Dim::C, Dim::R, Dim::S, Dim::Y, Dim::X],
            // Output-relevant loops outermost: partial sums never leave.
            MappingStyle::ShiLike => [Dim::Y, Dim::X, Dim::K, Dim::C, Dim::R, Dim::S],
            // Row-stationary flavour: spatial rows and filter rows outer.
            MappingStyle::EyeLike => [Dim::Y, Dim::R, Dim::K, Dim::C, Dim::X, Dim::S],
        }
    }

    /// Tile-growth priority when filling buffers.
    fn growth_priority(self) -> [Dim; NUM_DIMS] {
        match self {
            MappingStyle::DlaLike => [Dim::C, Dim::K, Dim::R, Dim::S, Dim::X, Dim::Y],
            MappingStyle::ShiLike => [Dim::X, Dim::Y, Dim::K, Dim::C, Dim::R, Dim::S],
            MappingStyle::EyeLike => [Dim::R, Dim::S, Dim::Y, Dim::C, Dim::K, Dim::X],
        }
    }
}

impl fmt::Display for MappingStyle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MappingStyle::DlaLike => "dla-like",
            MappingStyle::ShiLike => "shi-like",
            MappingStyle::EyeLike => "eye-like",
        };
        f.write_str(s)
    }
}

/// Sum of the three tensor footprints for a tile, in words.
fn tile_words(layer: &Layer, tile: &DimVec<u64>) -> u64 {
    Tensor::ALL.iter().map(|&t| tensor_footprint(layer.kind(), t, tile, layer.stride())).sum()
}

/// Grows `tile` multiplicatively along `priority` while `fits` holds and
/// extents stay within `bound`.
fn grow_tile<F: Fn(&DimVec<u64>) -> bool>(
    tile: &mut DimVec<u64>,
    bound: &DimVec<u64>,
    priority: &[Dim; NUM_DIMS],
    fits: F,
) {
    loop {
        let mut grew = false;
        for &d in priority {
            let current = tile[d];
            let trial = (current * 2).min(bound[d]);
            if trial == current {
                continue;
            }
            tile[d] = trial;
            if fits(tile) {
                grew = true;
            } else {
                tile[d] = current;
            }
        }
        if !grew {
            break;
        }
    }
}

/// Instantiates `style` for one layer on the given hardware.
///
/// The result is always structurally valid; whether it *fits* `hw`'s
/// buffers is checked by the caller (undersized hardware simply yields
/// unit tiles that fit trivially, or an infeasible evaluation).
///
/// # Panics
///
/// Panics if `hw` is not a 2-level configuration.
pub fn instantiate(style: MappingStyle, layer: &Layer, hw: &HwConfig) -> Mapping {
    assert_eq!(hw.fanouts.len(), 2, "templates target 2-level accelerators");
    let (p2, p1) = style.parallel_dims();
    let dims = *layer.dims();
    let order = style.order();
    let priority = style.growth_priority();

    // Per-cluster share of the layer (spatial split at the outer level).
    let mut cluster_bound = dims;
    cluster_bound[p2] = dims[p2].div_ceil(hw.fanouts[0]).max(1);
    // Per-PE share within the cluster.
    let mut pe_bound = cluster_bound;
    pe_bound[p1] = cluster_bound[p1].div_ceil(hw.fanouts[1]).max(1);

    // L1 tile: grow within the per-PE buffer.
    let mut t1 = DimVec::splat(1u64);
    grow_tile(&mut t1, &pe_bound, &priority, |t| tile_words(layer, t) <= hw.l1_words_per_pe);

    // L2 tile: starts at the L1 tile, grows while the π-stacked footprint
    // fits the global buffer.
    let mut t2 = t1;
    let stacked_words = |t: &DimVec<u64>| {
        let mut stacked = *t;
        stacked[p2] = stacked[p2].saturating_mul(hw.fanouts[0]).min(dims[p2]);
        tile_words(layer, &stacked)
    };
    grow_tile(&mut t2, &cluster_bound, &priority, |t| stacked_words(t) <= hw.l2_words);
    // Nesting: the L1 tile must fit inside the L2 tile.
    let t1 = t1.min(&t2);

    Mapping::new(vec![
        LevelSpec { fanout: hw.fanouts[0], spatial_dim: p2, order, tile: t2 },
        LevelSpec { fanout: hw.fanouts[1], spatial_dim: p1, order, tile: t1 },
    ])
}

/// Instantiates `style` for every unique layer of a model.
pub fn instantiate_all(
    style: MappingStyle,
    unique: &[digamma_workload::UniqueLayer],
    hw: &HwConfig,
) -> Vec<Mapping> {
    unique.iter().map(|u| instantiate(style, &u.layer, hw)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use digamma_costmodel::{Evaluator, Platform};
    use digamma_workload::zoo;

    fn hw() -> HwConfig {
        HwConfig {
            fanouts: [8, 16].into(),
            l2_words: 16 * 1024,
            mid_words_per_unit: [].into(),
            l1_words_per_pe: 64,
        }
    }

    #[test]
    fn templates_validate_on_every_layer() {
        let cfg = hw();
        for style in MappingStyle::ALL {
            for model in zoo::all_models() {
                for layer in model.layers() {
                    let m = instantiate(style, layer, &cfg);
                    m.validate(layer).unwrap_or_else(|e| {
                        panic!("{style} on {}/{}: {e}", model.name(), layer.name())
                    });
                }
            }
        }
    }

    #[test]
    fn templates_respect_buffer_capacities() {
        let cfg = hw();
        let eval = Evaluator::new(Platform::edge());
        for style in MappingStyle::ALL {
            for layer in zoo::resnet18().layers() {
                let m = instantiate(style, layer, &cfg);
                let r = eval.evaluate(layer, &m).unwrap();
                assert!(
                    r.buffers.l1_words_per_pe <= cfg.l1_words_per_pe,
                    "{style} {} L1 {} > {}",
                    layer.name(),
                    r.buffers.l1_words_per_pe,
                    cfg.l1_words_per_pe
                );
                assert!(
                    r.buffers.l2_words <= cfg.l2_words,
                    "{style} {} L2 {} > {}",
                    layer.name(),
                    r.buffers.l2_words,
                    cfg.l2_words
                );
            }
        }
    }

    #[test]
    fn styles_use_characteristic_parallelism() {
        let layer = &zoo::resnet18().layers()[5].clone();
        let cfg = hw();
        let dla = instantiate(MappingStyle::DlaLike, layer, &cfg);
        assert_eq!(dla.levels()[0].spatial_dim, Dim::K);
        assert_eq!(dla.levels()[1].spatial_dim, Dim::C);
        let shi = instantiate(MappingStyle::ShiLike, layer, &cfg);
        assert_eq!(shi.levels()[0].spatial_dim, Dim::Y);
        assert_eq!(shi.levels()[1].spatial_dim, Dim::X);
        let eye = instantiate(MappingStyle::EyeLike, layer, &cfg);
        assert_eq!(eye.levels()[1].spatial_dim, Dim::R);
    }

    #[test]
    fn bigger_buffers_grow_tiles() {
        let layer = &zoo::resnet50().layers()[10].clone();
        let small = hw();
        let mut big = hw();
        big.l1_words_per_pe *= 16;
        big.l2_words *= 16;
        let m_small = instantiate(MappingStyle::DlaLike, layer, &small);
        let m_big = instantiate(MappingStyle::DlaLike, layer, &big);
        let words = |m: &Mapping| tile_words(layer, &m.levels()[1].tile);
        assert!(words(&m_big) > words(&m_small));
    }

    #[test]
    fn unit_buffers_still_yield_valid_mappings() {
        let layer = &zoo::ncf().layers()[0].clone();
        let tiny = HwConfig {
            fanouts: [2, 2].into(),
            l2_words: 1,
            mid_words_per_unit: [].into(),
            l1_words_per_pe: 1,
        };
        for style in MappingStyle::ALL {
            let m = instantiate(style, layer, &tiny);
            m.validate(layer).unwrap();
        }
    }
}
