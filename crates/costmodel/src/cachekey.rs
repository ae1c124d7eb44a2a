//! Stable cache keys for memoizing `(layer, mapping) → CostReport`.
//!
//! The search re-scores the same per-layer evaluations constantly —
//! elites survive generations unchanged, template seeds recur across
//! searches, and a co-design service sees the same (model, platform)
//! pairs from many requests. A memo cache needs a key that is *stable*:
//! independent of process, pointer identity, and `std` hasher seeds, so
//! snapshots and cross-process caches agree. This module provides a
//! hand-rolled FNV-1a 64-bit hasher over an explicit, versioned byte
//! encoding of everything the cost model reads:
//!
//! * the evaluator's platform bandwidths and area/energy constants
//!   (budget and PE caps are *excluded* — they gate feasibility upstream
//!   but never change a per-layer report),
//! * the layer's operator kind, extents, and stride (its *name* is
//!   excluded: same-shaped layers share mappings and reports), and
//! * every level of the mapping (fan-out, spatial dim, order, tiles).

use crate::area::AreaModel;
use crate::energy::EnergyModel;
use crate::mapping::Mapping;
use digamma_workload::{Layer, LayerKind};

/// Bumped whenever the key encoding or the cost model's observable
/// behaviour changes, so stale external caches can never alias.
pub const KEY_VERSION: u64 = 1;

/// A stable (process- and seed-independent) FNV-1a 64-bit hasher.
///
/// Deliberately not `std::hash::Hasher`: the `std` trait invites hashing
/// through `#[derive(Hash)]`, whose layout is not a stability contract.
/// Every write here spells out the byte encoding explicitly.
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl StableHasher {
    /// Creates a hasher seeded with the FNV offset basis and the key
    /// encoding version.
    pub fn new() -> StableHasher {
        let mut h = StableHasher { state: FNV_OFFSET };
        h.write_u64(KEY_VERSION);
        h
    }

    /// Feeds raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Feeds a `u64` as one word (one mix step, not eight byte steps —
    /// this hasher sits on the fitness cache's hot path, where key
    /// computation competes with the cost model itself).
    pub fn write_u64(&mut self, v: u64) {
        self.state ^= v;
        self.state = self.state.wrapping_mul(FNV_PRIME);
    }

    /// Feeds an `f64` by its exact IEEE-754 bit pattern.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Feeds a layer's shape: operator kind, extents, and stride. The
    /// layer's *name* is excluded — same-shaped layers share mappings
    /// and reports.
    pub fn write_layer_shape(&mut self, layer: &Layer) {
        self.write_u64(match layer.kind() {
            LayerKind::Conv => 0,
            LayerKind::DepthwiseConv => 1,
            LayerKind::Gemm => 2,
        });
        for (_, extent) in layer.dims().iter() {
            self.write_u64(extent);
        }
        self.write_u64(layer.stride());
    }

    /// The accumulated 64-bit key.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for StableHasher {
    fn default() -> StableHasher {
        StableHasher::new()
    }
}

/// Feeds every model constant the cost model reads — platform
/// bandwidths plus area/energy coefficients — into `h`, in the one order
/// both [`layer_eval_key`] and the genome-level keys use.
pub(crate) fn write_model_constants(
    h: &mut StableHasher,
    bw_dram: f64,
    bw_noc: f64,
    area: &AreaModel,
    energy: &EnergyModel,
) {
    for v in [
        bw_dram,
        bw_noc,
        area.pe_um2,
        area.l1_um2_per_word,
        area.mid_um2_per_word,
        area.l2_um2_per_word,
        energy.mac_pj,
        energy.l1_pj,
        energy.mid_pj,
        energy.l2_pj,
        energy.noc_pj,
        energy.dram_pj,
    ] {
        h.write_f64(v);
    }
}

/// Computes the memo key for one per-layer evaluation.
///
/// Two calls return the same key iff the cost model is guaranteed to
/// return an identical [`crate::CostReport`] (same model constants, same
/// layer shape, same mapping). Used by `CoOptProblem`'s evaluation hook
/// and any external fitness cache.
pub fn layer_eval_key(
    bw_dram: f64,
    bw_noc: f64,
    area: &AreaModel,
    energy: &EnergyModel,
    layer: &Layer,
    mapping: &Mapping,
) -> u64 {
    let mut h = StableHasher::new();
    write_model_constants(&mut h, bw_dram, bw_noc, area, energy);
    h.write_layer_shape(layer);
    h.write_u64(mapping.levels().len() as u64);
    for level in mapping.levels() {
        h.write_u64(level.fanout);
        h.write_u64(level.spatial_dim.index() as u64);
        for d in level.order {
            h.write_u64(d.index() as u64);
        }
        for (_, t) in level.tile.iter() {
            h.write_u64(t);
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::area::AREA_MODEL_15NM;
    use crate::energy::ENERGY_MODEL_DEFAULT;
    use crate::Evaluator;
    use crate::Platform;

    fn key(layer: &Layer, mapping: &Mapping) -> u64 {
        Evaluator::new(Platform::edge()).cache_key(layer, mapping)
    }

    #[test]
    fn identical_inputs_share_a_key() {
        let layer = Layer::conv("a", 64, 32, 16, 16, 3, 3, 1);
        let m = Mapping::row_major_example(&layer, 8, 4);
        assert_eq!(key(&layer, &m), key(&layer, &m));
    }

    #[test]
    fn layer_name_does_not_split_the_cache() {
        let a = Layer::conv("first", 64, 32, 16, 16, 3, 3, 1);
        let b = Layer::conv("second", 64, 32, 16, 16, 3, 3, 1);
        let m = Mapping::row_major_example(&a, 8, 4);
        assert_eq!(key(&a, &m), key(&b, &m));
    }

    #[test]
    fn shape_stride_and_kind_change_the_key() {
        let base = Layer::conv("l", 64, 32, 16, 16, 3, 3, 1);
        let m = Mapping::row_major_example(&base, 8, 4);
        let wider = Layer::conv("l", 128, 32, 16, 16, 3, 3, 1);
        let strided = Layer::conv("l", 64, 32, 16, 16, 3, 3, 2);
        let dw = Layer::depthwise("l", 64, 16, 16, 3, 3, 1);
        assert_ne!(key(&base, &m), key(&wider, &m));
        assert_ne!(key(&base, &m), key(&strided, &m));
        assert_ne!(key(&base, &m), key(&dw, &m));
    }

    #[test]
    fn mapping_genes_change_the_key() {
        let layer = Layer::conv("l", 64, 32, 16, 16, 3, 3, 1);
        let a = Mapping::row_major_example(&layer, 8, 4);
        let b = Mapping::row_major_example(&layer, 4, 8);
        let mut c = a.clone();
        c.levels_mut()[0].order.swap(0, 5);
        let mut d = a.clone();
        d.levels_mut()[1].tile[digamma_workload::Dim::K] += 1;
        assert_ne!(key(&layer, &a), key(&layer, &b));
        assert_ne!(key(&layer, &a), key(&layer, &c));
        assert_ne!(key(&layer, &a), key(&layer, &d));
    }

    #[test]
    fn platform_and_model_constants_change_the_key() {
        let layer = Layer::conv("l", 64, 32, 16, 16, 3, 3, 1);
        let m = Mapping::row_major_example(&layer, 8, 4);
        let edge = Platform::edge();
        let a = layer_eval_key(
            edge.bw_dram,
            edge.bw_noc,
            &AREA_MODEL_15NM,
            &ENERGY_MODEL_DEFAULT,
            &layer,
            &m,
        );
        let cloud = Platform::cloud();
        let b = layer_eval_key(
            cloud.bw_dram,
            cloud.bw_noc,
            &AREA_MODEL_15NM,
            &ENERGY_MODEL_DEFAULT,
            &layer,
            &m,
        );
        let mut fat_l1 = AREA_MODEL_15NM;
        fat_l1.l1_um2_per_word *= 2.0;
        let c =
            layer_eval_key(edge.bw_dram, edge.bw_noc, &fat_l1, &ENERGY_MODEL_DEFAULT, &layer, &m);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn budget_differences_do_not_split_the_cache() {
        // Same bandwidths, different budget/PE cap: per-layer reports are
        // identical, so the keys must collide on purpose.
        let layer = Layer::gemm("g", 128, 64, 256);
        let m = Mapping::row_major_example(&layer, 4, 4);
        let mut roomy = Platform::edge();
        roomy.area_budget_um2 *= 100.0;
        roomy.max_pes *= 4;
        let a = Evaluator::new(Platform::edge()).cache_key(&layer, &m);
        let b = Evaluator::new(roomy).cache_key(&layer, &m);
        assert_eq!(a, b);
    }

    #[test]
    fn keys_are_stable_across_calls_and_builds() {
        let layer = Layer::gemm("g", 8, 4, 2);
        let m = Mapping::row_major_example(&layer, 2, 2);
        let k = key(&layer, &m);
        assert_eq!(k, key(&layer, &m));
        assert_ne!(k, 0);
    }

    #[test]
    fn golden_key_values_never_drift() {
        // Pinned golden values for KEY_VERSION 1. External caches (disk
        // spills, cross-process memos) persist these keys, so ANY change
        // here is a compatibility break: if this test fails, you changed
        // the key encoding or the hashed constants — bump KEY_VERSION so
        // stale caches can never alias, then re-pin these values.
        assert_eq!(KEY_VERSION, 1, "key version changed: re-pin the golden values below");
        let gemm = Layer::gemm("g", 8, 4, 2);
        let mg = Mapping::row_major_example(&gemm, 2, 2);
        let conv = Layer::conv("c", 64, 32, 16, 16, 3, 3, 1);
        let mc = Mapping::row_major_example(&conv, 8, 4);
        let edge = Evaluator::new(Platform::edge());
        let cloud = Evaluator::new(Platform::cloud());
        assert_eq!(edge.cache_key(&gemm, &mg), 0xb91f_b65d_d4b3_9818);
        assert_eq!(edge.cache_key(&conv, &mc), 0xb7da_1d5f_bda1_02e1);
        assert_eq!(cloud.cache_key(&conv, &mc), 0xfc5a_1d5f_bda1_02e1);
    }
}
