//! Per-level reuse analysis: iteration counts, refetch factors, link
//! traffic, and minimum buffer requirements.
//!
//! # Model
//!
//! The accelerator is a tree: DRAM → global L2 buffer → `π₀` clusters
//! (→ optional middle buffers) → per-PE L1 buffers → MACs. Each mapping
//! level describes one fan-out stage. For level `ℓ` with parent tile `Tₚ`,
//! own tile `t`, loop order `O`, spatial dim `P` and fan-out `π`:
//!
//! * iteration counts `n[d] = ceil(Tₚ[d] / t[d])`, with the spatial dim
//!   folded: `n[P] = ceil(Tₚ[P] / (t[P]·π))` — ceiling division charges
//!   under-filled folds, which is how PE under-utilization surfaces;
//! * the **refetch factor** of tensor `T` is the product of the iteration
//!   counts of every loop from the outermost down to the innermost loop
//!   that is *relevant* to `T` and actually iterates (`n > 1`). Loops
//!   inside that point leave `T` stationary in the child; loops outside it
//!   evict and re-deliver it. This is the classic stationarity rule used
//!   by data-centric models (MAESTRO, Timeloop);
//! * tiles are **multicast** across the `π` children when `P` is
//!   irrelevant to the tensor (one copy crosses the link), and unicast
//!   (`π` distinct tiles) when it is relevant;
//! * partial-sum **reduction is performed in the NoC** (adder tree), so an
//!   output tile crosses a link once per eviction regardless of spatial
//!   reduction; evictions beyond the first visit of a tile additionally
//!   read the stale partial back down (`reads = writes − distinct tiles`).
//!
//! The refetch factor for the link feeding level `ℓ` is evaluated over
//! the **concatenated** loop nest of levels `0..=ℓ` (outer levels first),
//! so a tensor that is fully stationary inside level `ℓ` keeps its
//! residency across outer-level steps instead of being charged per
//! re-execution. Operationally, per tensor:
//!
//! ```text
//! ρ(T, ℓ) = Π_{i<ℓ} steps_i · refetch_ℓ(T)   if level ℓ has an active T-relevant loop
//!         = ρ(T, ℓ-1)                         otherwise (resident tile survives)
//! words(T) = footprint(t_ℓ) · ρ(T, ℓ) · Π_{i≤ℓ} unicast_i(T)
//! ```
//!
//! The reference simulator ([`crate::simulate`]) checks this composition
//! exactly on divisible mappings.
//!
//! Input footprints include the sliding-window halo. Halo overlap between
//! *adjacent* spatial tiles is charged per tile (no inter-tile halo reuse),
//! a deliberate simplification shared with the paper's Fig. 3(f) formulas.

use crate::error::EvalError;
use crate::mapping::Mapping;
use digamma_workload::{tensor_footprint, Dim, DimVec, Layer, Tensor, NUM_DIMS};

/// Words crossing one memory link (chip-wide, over the whole layer).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkTraffic {
    /// Weight words delivered downstream.
    pub weight: u128,
    /// Input-activation words delivered downstream.
    pub input: u128,
    /// Output words written upstream (partial or final tiles).
    pub output_write: u128,
    /// Stale partial-sum words read back downstream for accumulation.
    pub output_read: u128,
}

impl LinkTraffic {
    /// Total words crossing the link in either direction.
    pub fn total(&self) -> u128 {
        self.weight + self.input + self.output_write + self.output_read
    }
}

/// Analysis results for one mapping level.
#[derive(Debug, Clone)]
pub struct LevelAnalysis {
    /// Temporal iteration counts of this level's loop nest.
    pub iteration_counts: DimVec<u64>,
    /// Product of all iteration counts (steps per nest execution).
    pub total_steps: u64,
    /// The π-stacked tile this level works on per step.
    pub stacked_tile: DimVec<u64>,
    /// Chip-wide traffic on the link feeding this level's children.
    pub traffic: LinkTraffic,
}

/// Minimum buffer capacities implied by a mapping (DiGamma's buffer
/// allocation strategy sizes buffers to exactly these values).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BufferRequirement {
    /// Global (L2) buffer capacity in words.
    pub l2_words: u64,
    /// Per-unit capacity of each middle-level buffer, outermost first
    /// (empty for 2-level mappings).
    pub mid_words_per_unit: Vec<u64>,
    /// Per-PE local (L1) buffer capacity in words.
    pub l1_words_per_pe: u64,
}

/// Full reuse-analysis output for one `(layer, mapping)` pair.
#[derive(Debug, Clone, Default)]
pub struct Analysis {
    /// True MAC count of the layer (mapping independent).
    pub macs_total: u64,
    /// MACs performed per PE per leaf step.
    pub pe_tile_macs: u64,
    /// Leaf steps each PE executes (product of all levels' steps).
    pub total_leaf_steps: u128,
    /// Total PEs instantiated by the mapping.
    pub num_pes: u64,
    /// Per-level analysis, outermost first.
    pub levels: Vec<LevelAnalysis>,
    /// Minimum buffer capacities.
    pub buffers: BufferRequirement,
    /// Fraction of issued MAC slots doing useful work (0, 1].
    pub utilization: f64,
}

/// Refetch factor of a tensor for one level's loop nest.
///
/// Product of iteration counts from the outermost loop down to the
/// innermost loop that is relevant to the tensor and iterates more than
/// once; 1 when no such loop exists (the tensor is fully stationary).
fn refetch_factor(order: &[Dim; NUM_DIMS], counts: &DimVec<u64>, relevance: &DimVec<bool>) -> u128 {
    let mut innermost_active = None;
    for (pos, &d) in order.iter().enumerate() {
        if relevance[d] && counts[d] > 1 {
            innermost_active = Some(pos);
        }
    }
    match innermost_active {
        None => 1,
        Some(j) => order[..=j].iter().map(|&d| counts[d] as u128).product(),
    }
}

/// Runs the full reuse analysis.
///
/// # Errors
///
/// Returns [`EvalError`] if the mapping fails structural validation
/// against the layer.
pub fn analyze(layer: &Layer, mapping: &Mapping) -> Result<Analysis, EvalError> {
    let mut out = Analysis::default();
    analyze_into(layer, mapping, &mut out)?;
    Ok(out)
}

/// Runs the full reuse analysis into a caller-owned [`Analysis`],
/// reusing its vectors' capacity — the form of [`analyze`] that
/// [`crate::Evaluator::evaluate`] runs on its per-thread buffer. `out`
/// is fully overwritten; results are bit-identical to [`analyze`].
///
/// # Errors
///
/// Returns [`EvalError`] if the mapping fails structural validation
/// against the layer (leaving `out` with unspecified contents).
pub(crate) fn analyze_into(
    layer: &Layer,
    mapping: &Mapping,
    out: &mut Analysis,
) -> Result<(), EvalError> {
    mapping.validate(layer)?;
    let kind = layer.kind();
    let stride = layer.stride();
    let num_levels = mapping.levels().len();

    let levels = &mut out.levels;
    levels.clear();
    levels.reserve(num_levels);
    let mut parent = *layer.dims();
    // Π_{i≤ℓ} unicast_i(T): distinct spatial copies of T's tiles chip-wide.
    let mut cum_unicast = [1u128; 3];
    // Π_{i<ℓ} steps_i: times this level's nest is re-executed.
    let mut exec_multiplier: u128 = 1;
    // ρ(T, ℓ): combined-nest refetch factor per tensor (see module docs).
    let mut combined_refetch = [1u128; 3];
    // Chip-wide distinct output tiles at the current granularity.
    let mut cum_distinct_out: u128 = 1;

    let mut mid_words_per_unit = std::mem::take(&mut out.buffers.mid_words_per_unit);
    mid_words_per_unit.clear();
    let mut l2_words = 0u64;

    for (idx, level) in mapping.levels().iter().enumerate() {
        let counts = level.iteration_counts(&parent);
        let total_steps = counts.product();
        let stacked = level.stacked_tile(&parent);

        let mut traffic = LinkTraffic::default();
        for (ti, &tensor) in Tensor::ALL.iter().enumerate() {
            let relevance = kind.relevance(tensor);
            let unicast = if relevance[level.spatial_dim] { level.fanout as u128 } else { 1 };
            cum_unicast[ti] *= unicast;
            let footprint = tensor_footprint(kind, tensor, &level.tile, stride) as u128;
            let has_active_relevant_loop = Dim::ALL.iter().any(|&d| relevance[d] && counts[d] > 1);
            if has_active_relevant_loop {
                combined_refetch[ti] =
                    exec_multiplier * refetch_factor(&level.order, &counts, &relevance);
            }
            // (Otherwise the resident tile survives outer-level steps and
            // ρ carries over from the previous level unchanged.)
            let words = footprint * combined_refetch[ti] * cum_unicast[ti];
            match tensor {
                Tensor::Weight => traffic.weight = words,
                Tensor::Input => traffic.input = words,
                Tensor::Output => {
                    let distinct_here: u128 = Dim::ALL
                        .iter()
                        .filter(|&&d| relevance[d])
                        .map(|&d| counts[d] as u128)
                        .product();
                    cum_distinct_out *= distinct_here * unicast;
                    let write_tiles = combined_refetch[ti] * cum_unicast[ti];
                    let read_tiles = write_tiles.saturating_sub(cum_distinct_out);
                    traffic.output_write = footprint * write_tiles;
                    traffic.output_read = footprint * read_tiles;
                }
            }
        }

        // Buffer capacity: the level's per-step working set. The global
        // buffer backs level 0; middle levels get per-unit buffers; the
        // leaf level's tile lives in the per-PE L1 (handled below).
        let stacked_words: u64 =
            Tensor::ALL.iter().map(|&t| tensor_footprint(kind, t, &stacked, stride)).sum();
        if idx == 0 {
            l2_words = stacked_words;
        } else if idx < num_levels - 1 {
            mid_words_per_unit.push(stacked_words);
        } else if num_levels == 1 {
            // Degenerate single-level mapping: L2 is the stacked tile and
            // was set above; nothing to do here.
        }

        levels.push(LevelAnalysis {
            iteration_counts: counts,
            total_steps,
            stacked_tile: stacked,
            traffic,
        });

        exec_multiplier *= total_steps as u128;
        parent = level.tile;
    }

    let leaf_tile = mapping.levels().last().expect("validated non-empty").tile;
    let l1_words_per_pe: u64 =
        Tensor::ALL.iter().map(|&t| tensor_footprint(kind, t, &leaf_tile, stride)).sum();

    let pe_tile_macs = leaf_tile.product();
    let total_leaf_steps = exec_multiplier;
    let num_pes = mapping.num_pes();
    let macs_total = layer.macs();
    let issued = total_leaf_steps * pe_tile_macs as u128 * num_pes as u128;
    let utilization = macs_total as f64 / issued as f64;

    out.macs_total = macs_total;
    out.pe_tile_macs = pe_tile_macs;
    out.total_leaf_steps = total_leaf_steps;
    out.num_pes = num_pes;
    out.buffers = BufferRequirement { l2_words, mid_words_per_unit, l1_words_per_pe };
    out.utilization = utilization;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{LevelSpec, Mapping};
    use digamma_workload::Layer;

    fn layer() -> Layer {
        Layer::conv("l", 64, 32, 16, 16, 3, 3, 1)
    }

    fn two_level(l2_tile: DimVec<u64>, l1_tile: DimVec<u64>, pi2: u64, pi1: u64) -> Mapping {
        Mapping::new(vec![
            LevelSpec { fanout: pi2, spatial_dim: Dim::K, order: Dim::ALL, tile: l2_tile },
            LevelSpec { fanout: pi1, spatial_dim: Dim::Y, order: Dim::ALL, tile: l1_tile },
        ])
    }

    #[test]
    fn utilization_is_one_for_exact_mapping() {
        let l = layer();
        // 8 clusters × 8 PEs; K split 64/8, Y split 16/8 per PE; exact fit.
        let l2 = DimVec([8, 32, 16, 16, 3, 3]);
        let l1 = DimVec([8, 32, 2, 16, 3, 3]);
        let a = analyze(&l, &two_level(l2, l1, 8, 8)).unwrap();
        assert!((a.utilization - 1.0).abs() < 1e-12, "utilization {}", a.utilization);
        assert_eq!(a.macs_total, l.macs());
    }

    #[test]
    fn ceil_folding_reduces_utilization() {
        let l = layer();
        // K=64 split into tiles of 5 across 8 clusters: 64/(5*8) → 2 folds,
        // issuing 80 K-slots for 64 useful → utilization drops.
        let l2 = DimVec([5, 32, 16, 16, 3, 3]);
        let l1 = DimVec([5, 32, 2, 16, 3, 3]);
        let a = analyze(&l, &two_level(l2, l1, 8, 8)).unwrap();
        assert!(a.utilization < 1.0);
    }

    #[test]
    fn dram_traffic_covers_each_tensor_at_least_once() {
        let l = layer();
        let m = Mapping::row_major_example(&l, 8, 4);
        let a = analyze(&l, &m).unwrap();
        let dram = &a.levels[0].traffic;
        assert!(dram.weight >= l.tensor_size(Tensor::Weight) as u128);
        assert!(dram.input >= l.tensor_size(Tensor::Input) as u128);
        assert!(dram.output_write >= l.tensor_size(Tensor::Output) as u128);
    }

    #[test]
    fn fully_buffered_mapping_has_minimal_dram_traffic() {
        let l = Layer::conv("s", 8, 8, 8, 8, 3, 3, 1);
        // Whole layer fits one L2 tile → every tensor crosses DRAM once.
        let l2 = *l.dims();
        let mut l1 = *l.dims();
        l1[Dim::K] = 1;
        let m = Mapping::new(vec![
            LevelSpec { fanout: 1, spatial_dim: Dim::K, order: Dim::ALL, tile: l2 },
            LevelSpec { fanout: 8, spatial_dim: Dim::K, order: Dim::ALL, tile: l1 },
        ]);
        let a = analyze(&l, &m).unwrap();
        let dram = &a.levels[0].traffic;
        assert_eq!(dram.weight, l.tensor_size(Tensor::Weight) as u128);
        assert_eq!(dram.input, l.tensor_size(Tensor::Input) as u128);
        assert_eq!(dram.output_write, l.tensor_size(Tensor::Output) as u128);
        assert_eq!(dram.output_read, 0);
    }

    #[test]
    fn weight_stationary_order_minimizes_weight_refetch() {
        let l = layer();
        let mut tile = *l.dims();
        tile[Dim::Y] = 1; // iterate Y temporally at L2
        tile[Dim::K] = 8;
        // Weight-relevant loop (K) innermost: weights refetched per K-step
        // only; Y outer loops don't evict... compare against Y innermost.
        let ws_order = [Dim::Y, Dim::X, Dim::C, Dim::R, Dim::S, Dim::K];
        let os_order = [Dim::K, Dim::C, Dim::R, Dim::S, Dim::Y, Dim::X];
        let mk = |order| {
            Mapping::new(vec![
                LevelSpec { fanout: 1, spatial_dim: Dim::X, order, tile },
                LevelSpec {
                    fanout: 4,
                    spatial_dim: Dim::Y,
                    order: Dim::ALL,
                    tile: DimVec([1, 1, 1, 1, 1, 1]),
                },
            ])
        };
        let ws = analyze(&l, &mk(ws_order)).unwrap();
        let os = analyze(&l, &mk(os_order)).unwrap();
        // With K innermost, every Y step re-delivers weights (refetch = Y·K = 128);
        // with K outermost, weights stream once per K step (refetch = K = 8).
        assert_eq!(ws.levels[0].traffic.weight, 16 * os.levels[0].traffic.weight);
        // Outputs are written once per distinct tile in both orders (the
        // reduction dims never iterate at this level), so they tie.
        assert_eq!(ws.levels[0].traffic.output_write, os.levels[0].traffic.output_write);
    }

    #[test]
    fn multicast_applies_when_spatial_dim_irrelevant() {
        let l = layer();
        let mut tile = *l.dims();
        tile[Dim::K] = 8;
        // K split across 8 clusters: inputs are K-irrelevant → multicast.
        let m_k = Mapping::new(vec![
            LevelSpec { fanout: 8, spatial_dim: Dim::K, order: Dim::ALL, tile },
            LevelSpec { fanout: 1, spatial_dim: Dim::Y, order: Dim::ALL, tile: DimVec::splat(1) },
        ]);
        let mut tile_y = *l.dims();
        tile_y[Dim::Y] = 2;
        let m_y = Mapping::new(vec![
            LevelSpec { fanout: 8, spatial_dim: Dim::Y, order: Dim::ALL, tile: tile_y },
            LevelSpec { fanout: 1, spatial_dim: Dim::Y, order: Dim::ALL, tile: DimVec::splat(1) },
        ]);
        let a_k = analyze(&l, &m_k).unwrap();
        let a_y = analyze(&l, &m_y).unwrap();
        // K-parallel: one input copy serves all clusters.
        assert_eq!(a_k.levels[0].traffic.input, l.tensor_size(Tensor::Input) as u128);
        // Y-parallel: weights are Y-irrelevant and multicast instead.
        assert_eq!(a_y.levels[0].traffic.weight, l.tensor_size(Tensor::Weight) as u128);
    }

    #[test]
    fn output_readback_appears_with_outer_reduction_loops() {
        let l = layer();
        let mut tile = *l.dims();
        tile[Dim::C] = 4; // C iterates 8 times at the outer level
        tile[Dim::K] = 8; // K iterates 8 times, *inside* the C loop
                          // C (reduction) outer with an O-relevant loop (K) inside it ⇒ each
                          // output tile is evicted per K step and revisited per C step.
        let order = [Dim::C, Dim::K, Dim::Y, Dim::X, Dim::R, Dim::S];
        let m = Mapping::new(vec![
            LevelSpec { fanout: 1, spatial_dim: Dim::X, order, tile },
            LevelSpec {
                fanout: 4,
                spatial_dim: Dim::Y,
                order: Dim::ALL,
                tile: DimVec([1, 1, 1, 1, 1, 1]),
            },
        ]);
        let a = analyze(&l, &m).unwrap();
        assert!(a.levels[0].traffic.output_read > 0);
        // Writes exceed reads by exactly one pass over the output tensor.
        let out_words = l.tensor_size(Tensor::Output) as u128;
        assert_eq!(a.levels[0].traffic.output_write - a.levels[0].traffic.output_read, out_words);
    }

    #[test]
    fn accumulation_in_child_buffer_avoids_readback() {
        let l = layer();
        let mut tile = *l.dims();
        tile[Dim::C] = 4; // C iterates 8 times; K, Y, X do not iterate.
                          // With no O-relevant loop active, the output tile stays resident in
                          // L2 across all C steps: zero DRAM readback, one final write pass.
        let order = [Dim::C, Dim::K, Dim::Y, Dim::X, Dim::R, Dim::S];
        let m = Mapping::new(vec![
            LevelSpec { fanout: 1, spatial_dim: Dim::X, order, tile },
            LevelSpec {
                fanout: 4,
                spatial_dim: Dim::Y,
                order: Dim::ALL,
                tile: DimVec([1, 1, 1, 1, 1, 1]),
            },
        ]);
        let a = analyze(&l, &m).unwrap();
        assert_eq!(a.levels[0].traffic.output_read, 0);
        assert_eq!(a.levels[0].traffic.output_write, l.tensor_size(Tensor::Output) as u128);
    }

    #[test]
    fn buffer_requirements_match_footprints() {
        let l = layer();
        let m = Mapping::row_major_example(&l, 8, 4);
        let a = analyze(&l, &m).unwrap();
        let leaf = m.levels()[1].tile;
        let expected_l1: u64 = Tensor::ALL
            .iter()
            .map(|&t| digamma_workload::tensor_footprint(l.kind(), t, &leaf, l.stride()))
            .sum();
        assert_eq!(a.buffers.l1_words_per_pe, expected_l1);
        assert!(a.buffers.l2_words >= expected_l1);
        assert!(a.buffers.mid_words_per_unit.is_empty());
    }

    #[test]
    fn three_level_mapping_adds_middle_buffer() {
        let l = layer();
        let t2 = DimVec([16, 32, 16, 16, 3, 3]);
        let t_mid = DimVec([16, 32, 4, 16, 3, 3]);
        let t1 = DimVec([16, 32, 4, 2, 3, 3]);
        let m = Mapping::new(vec![
            LevelSpec { fanout: 4, spatial_dim: Dim::K, order: Dim::ALL, tile: t2 },
            LevelSpec { fanout: 4, spatial_dim: Dim::Y, order: Dim::ALL, tile: t_mid },
            LevelSpec { fanout: 8, spatial_dim: Dim::X, order: Dim::ALL, tile: t1 },
        ]);
        let a = analyze(&l, &m).unwrap();
        assert_eq!(a.buffers.mid_words_per_unit.len(), 1);
        assert_eq!(a.num_pes, 128);
        assert_eq!(a.levels.len(), 3);
    }

    #[test]
    fn refetch_factor_basics() {
        let order = [Dim::K, Dim::C, Dim::Y, Dim::X, Dim::R, Dim::S];
        let counts = DimVec([4u64, 3, 2, 1, 1, 1]);
        let mut rel = DimVec::splat(false);
        // Tensor relevant to K only: innermost active relevant loop is K
        // (position 0) → refetch = 4.
        rel[Dim::K] = true;
        assert_eq!(refetch_factor(&order, &counts, &rel), 4);
        // Relevant to Y: loops K, C, Y all multiply → 24.
        let mut rel_y = DimVec::splat(false);
        rel_y[Dim::Y] = true;
        assert_eq!(refetch_factor(&order, &counts, &rel_y), 24);
        // Relevant to X only (count 1): fully stationary.
        let mut rel_x = DimVec::splat(false);
        rel_x[Dim::X] = true;
        assert_eq!(refetch_factor(&order, &counts, &rel_x), 1);
    }

    #[test]
    fn gemm_layers_analyze_cleanly() {
        let l = Layer::gemm("g", 256, 128, 512);
        let m = Mapping::row_major_example(&l, 16, 8);
        let a = analyze(&l, &m).unwrap();
        assert_eq!(a.macs_total, 256 * 128 * 512);
        assert!(a.utilization > 0.0 && a.utilization <= 1.0);
    }

    #[test]
    fn depthwise_layers_analyze_cleanly() {
        let l = Layer::depthwise("dw", 96, 28, 28, 3, 3, 1);
        let m = Mapping::row_major_example(&l, 8, 8);
        let a = analyze(&l, &m).unwrap();
        assert_eq!(a.macs_total, 96 * 28 * 28 * 3 * 3);
        // Depthwise inputs are K-indexed: K-parallel clusters need unicast.
        assert!(a.levels[0].traffic.input >= l.tensor_size(Tensor::Input) as u128);
    }
}
