//! Access-count energy model with Eyeriss-style per-access ratios.
//!
//! Energy = Σ (access counts at each storage level × per-access energy).
//! The ratios follow the hierarchy measured by Eyeriss (Chen et al., ISCA
//! 2016): a DRAM access costs ~200× a MAC; an L2 access ~6×; local buffer
//! and NoC transfers a small multiple. Absolute pJ values are nominal —
//! experiments compare designs, not technologies.

use crate::analysis::Analysis;
use crate::levels::Levels;

/// Per-access energies in pJ.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// One multiply-accumulate.
    pub mac_pj: f64,
    /// One word read/written at a per-PE L1 buffer.
    pub l1_pj: f64,
    /// One word read/written at a middle-level buffer.
    pub mid_pj: f64,
    /// One word read/written at the global L2 buffer.
    pub l2_pj: f64,
    /// One word-hop on the on-chip network.
    pub noc_pj: f64,
    /// One word transferred from/to DRAM.
    pub dram_pj: f64,
}

/// Default energy model (Eyeriss-style ratios, 16-bit words).
pub const ENERGY_MODEL_DEFAULT: EnergyModel =
    EnergyModel { mac_pj: 1.0, l1_pj: 1.5, mid_pj: 3.0, l2_pj: 6.0, noc_pj: 2.0, dram_pj: 200.0 };

/// Operand accesses charged at L1 per MAC (weight read, input read,
/// partial-sum update).
const L1_ACCESSES_PER_MAC: f64 = 3.0;

impl EnergyModel {
    /// Total energy in pJ for an analyzed `(layer, mapping)` pair.
    ///
    /// Accesses at a buffer level are the words entering it from above
    /// plus the words leaving it downward; MAC-side L1 accesses are a
    /// fixed per-MAC constant (identical for all mappings, so it only
    /// adds a floor).
    pub fn energy_pj(&self, analysis: &Analysis) -> f64 {
        let macs = analysis.macs_total as f64;
        let mut energy = macs * self.mac_pj + macs * L1_ACCESSES_PER_MAC * self.l1_pj;

        let words: Levels<f64> = analysis.levels.iter().map(|l| l.traffic.total() as f64).collect();
        // DRAM side of link 0.
        energy += words[0] * self.dram_pj;
        // Every on-chip link hop costs NoC energy.
        for &w in &words[1..] {
            energy += w * self.noc_pj;
        }
        // Buffer accesses: L2 absorbs link 0 and feeds link 1; middle
        // buffers sit between consecutive links; the innermost link fills
        // per-PE L1s.
        let n = words.len();
        energy += words[0] * self.l2_pj;
        if n > 1 {
            energy += words[1] * self.l2_pj;
        }
        for i in 1..n.saturating_sub(1) {
            energy += (words[i] + words[i + 1]) * self.mid_pj;
        }
        if n > 1 {
            energy += words[n - 1] * self.l1_pj;
        }
        energy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use crate::mapping::Mapping;
    use digamma_workload::Layer;

    #[test]
    fn energy_floor_is_compute_energy() {
        let l = Layer::conv("l", 32, 16, 8, 8, 3, 3, 1);
        let m = Mapping::row_major_example(&l, 4, 4);
        let a = analyze(&l, &m).unwrap();
        let e = ENERGY_MODEL_DEFAULT.energy_pj(&a);
        let floor = l.macs() as f64 * (1.0 + 3.0 * 1.5);
        assert!(e > floor);
    }

    #[test]
    fn dram_heavy_mapping_costs_more_energy() {
        let l = Layer::conv("l", 64, 32, 16, 16, 3, 3, 1);
        // Good: whole layer buffered at L2. Bad: tiny L2 tiles force refetch.
        let good = Mapping::row_major_example(&l, 4, 4);
        let mut bad = good;
        let t = &mut bad.levels_mut()[0].tile;
        *t = digamma_workload::DimVec([16, 2, 2, 2, 1, 1]);
        bad.levels_mut()[1].tile = digamma_workload::DimVec([1, 1, 1, 1, 1, 1]);
        let a_good = analyze(&l, &good).unwrap();
        let a_bad = analyze(&l, &bad).unwrap();
        assert!(ENERGY_MODEL_DEFAULT.energy_pj(&a_bad) > ENERGY_MODEL_DEFAULT.energy_pj(&a_good));
    }

    #[test]
    fn energy_scales_with_dram_cost() {
        let l = Layer::conv("l", 32, 16, 8, 8, 3, 3, 1);
        let m = Mapping::row_major_example(&l, 4, 4);
        let a = analyze(&l, &m).unwrap();
        let base = ENERGY_MODEL_DEFAULT.energy_pj(&a);
        let mut expensive_dram = ENERGY_MODEL_DEFAULT;
        expensive_dram.dram_pj *= 10.0;
        assert!(expensive_dram.energy_pj(&a) > base);
    }
}
