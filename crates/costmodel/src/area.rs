//! Area model: the synthesized-RTL substitute.
//!
//! The paper synthesizes PE and buffer RTL with Synopsys DC (Nangate 15 nm)
//! and Cadence Innovus, and SRAMs with the SAED32 library, to obtain area
//! costs. A physical synthesis flow is unavailable here, so this module
//! substitutes fixed per-component constants of 15 nm-class magnitude
//! (see `DESIGN.md` §1, row 3). What the experiments actually require is
//! preserved: area grows linearly in PE count and buffer words, so a hard
//! area budget forces the compute ↔ memory trade-off DiGamma navigates.

use crate::accelerator::HwConfig;

/// Per-component area constants in µm².
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaModel {
    /// One PE: a 16-bit MAC, operand registers, and control.
    pub pe_um2: f64,
    /// One 16-bit word of per-PE L1 SRAM (small macros, low density).
    pub l1_um2_per_word: f64,
    /// One 16-bit word of middle-level SRAM.
    pub mid_um2_per_word: f64,
    /// One 16-bit word of global L2 SRAM (large banked macros, dense).
    pub l2_um2_per_word: f64,
}

/// Default 15 nm-class area constants.
///
/// With these values the paper's edge budget (0.2 mm²) admits a few
/// hundred PEs with tens of KB of buffer, and the cloud budget (7 mm²)
/// admits several thousand PEs with MBs of buffer — the regimes the
/// paper's Fig. 7 solutions occupy.
pub const AREA_MODEL_15NM: AreaModel =
    AreaModel { pe_um2: 350.0, l1_um2_per_word: 2.4, mid_um2_per_word: 1.6, l2_um2_per_word: 1.2 };

impl AreaModel {
    /// Total area of a hardware configuration in µm².
    pub fn area_um2(&self, hw: &HwConfig) -> f64 {
        let pes = hw.num_pes() as f64;
        let mut area = pes * self.pe_um2
            + pes * hw.l1_words_per_pe as f64 * self.l1_um2_per_word
            + hw.l2_words as f64 * self.l2_um2_per_word;
        let mut units = 1.0;
        for (i, &mid) in hw.mid_words_per_unit.iter().enumerate() {
            units *= hw.fanouts[i] as f64;
            area += units * mid as f64 * self.mid_um2_per_word;
        }
        area
    }

    /// Area of the compute (PE) portion only, in µm².
    pub fn pe_area_um2(&self, hw: &HwConfig) -> f64 {
        hw.num_pes() as f64 * self.pe_um2
    }

    /// Area of all buffers (L1 + mid + L2), in µm².
    pub fn buffer_area_um2(&self, hw: &HwConfig) -> f64 {
        self.area_um2(hw) - self.pe_area_um2(hw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hw(pes: &[u64], l1: u64, l2: u64) -> HwConfig {
        HwConfig {
            fanouts: pes.iter().copied().collect(),
            l1_words_per_pe: l1,
            mid_words_per_unit: [].into(),
            l2_words: l2,
        }
    }

    #[test]
    fn area_is_linear_in_components() {
        let m = AREA_MODEL_15NM;
        let small = hw(&[4, 4], 64, 4096);
        let double_pes = hw(&[8, 4], 64, 4096);
        let d = m.area_um2(&double_pes) - m.area_um2(&small);
        // Doubling PEs adds 16 PEs and 16 L1 buffers.
        assert!((d - 16.0 * (m.pe_um2 + 64.0 * m.l1_um2_per_word)).abs() < 1e-6);
    }

    #[test]
    fn edge_budget_admits_hundreds_of_pes() {
        // A 256-PE edge design with 32-word L1s and 32K-word L2 must fit 0.2 mm².
        let cfg = hw(&[16, 16], 32, 32 * 1024);
        assert!(AREA_MODEL_15NM.area_um2(&cfg) < 0.2e6);
    }

    #[test]
    fn cloud_budget_admits_thousands_of_pes() {
        let cfg = hw(&[64, 64], 128, 1024 * 1024);
        let area = AREA_MODEL_15NM.area_um2(&cfg);
        assert!(area < 7.0e6, "area {area}");
        assert!(area > 0.2e6, "a cloud-class design should overflow the edge budget");
    }

    #[test]
    fn pe_plus_buffer_equals_total() {
        let cfg = hw(&[8, 8], 64, 8192);
        let m = AREA_MODEL_15NM;
        let total = m.area_um2(&cfg);
        assert!((m.pe_area_um2(&cfg) + m.buffer_area_um2(&cfg) - total).abs() < 1e-9);
    }

    #[test]
    fn mid_buffers_scale_with_unit_count() {
        let mut cfg = hw(&[4, 4, 4], 16, 4096);
        cfg.mid_words_per_unit = [256].into();
        let with_mid = AREA_MODEL_15NM.area_um2(&cfg);
        cfg.mid_words_per_unit = [].into();
        let without = AREA_MODEL_15NM.area_um2(&cfg);
        // 4 outer units × 256 words × density.
        assert!((with_mid - without - 4.0 * 256.0 * AREA_MODEL_15NM.mid_um2_per_word).abs() < 1e-6);
    }
}
