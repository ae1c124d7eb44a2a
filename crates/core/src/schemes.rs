//! Fixed hardware presets for the Mapping-opt baseline (Sec. V-A).
//!
//! The paper "cherry-picks" three HW configurations per platform that
//! trade compute against buffer under the same area budget:
//!
//! * **Buffer-focused** — small PE array, large buffers,
//! * **Medium-Buf-Com** — balanced,
//! * **Compute-focused** — large PE array, small buffers.
//!
//! Each preset consumes (close to) the full budget; GAMMA then searches
//! the best mapping for each.

use digamma_costmodel::{AreaModel, HwConfig, Platform};
use std::fmt;

/// The three fixed HW flavours of the Mapping-opt baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HwPreset {
    /// Small compute + large buffer.
    BufferFocused,
    /// Medium buffer + medium compute.
    MediumBufCom,
    /// Large compute + small buffer.
    ComputeFocused,
}

impl HwPreset {
    /// All presets, in the paper's column order.
    pub const ALL: [HwPreset; 3] =
        [HwPreset::BufferFocused, HwPreset::MediumBufCom, HwPreset::ComputeFocused];

    /// Fraction of the area budget given to PEs (+ their L1s).
    fn compute_fraction(self) -> f64 {
        match self {
            HwPreset::BufferFocused => 0.25,
            HwPreset::MediumBufCom => 0.50,
            HwPreset::ComputeFocused => 0.75,
        }
    }

    /// Per-PE L1 words for the preset (larger on buffer-heavy designs).
    fn l1_words(self) -> u64 {
        match self {
            HwPreset::BufferFocused => 256,
            HwPreset::MediumBufCom => 128,
            HwPreset::ComputeFocused => 64,
        }
    }

    /// Materializes the preset under a platform's budget.
    ///
    /// The PE count is the largest power-of-two total that keeps the
    /// compute share within its fraction; the array is near-square; the
    /// L2 buffer absorbs the remaining area.
    pub fn build(self, platform: &Platform, area: &AreaModel) -> HwConfig {
        let budget = platform.area_budget_um2;
        let l1 = self.l1_words();
        let per_pe = area.pe_um2 + l1 as f64 * area.l1_um2_per_word;
        let max_by_area = (budget * self.compute_fraction() / per_pe) as u64;
        let max_pes = max_by_area.min(platform.max_pes).max(4);
        // Largest power of two ≤ max_pes, split near-square.
        let total = 1u64 << (63 - max_pes.leading_zeros() as u64);
        let clusters = 1u64 << ((63 - total.leading_zeros() as u64) / 2);
        let pes_per_cluster = total / clusters;

        let hw_probe = HwConfig {
            fanouts: [clusters, pes_per_cluster].into(),
            l2_words: 0,
            mid_words_per_unit: [].into(),
            l1_words_per_pe: l1,
        };
        let used = area.area_um2(&hw_probe);
        let l2_words = (((budget - used) * 0.95).max(0.0) / area.l2_um2_per_word) as u64;
        HwConfig { l2_words, ..hw_probe }
    }
}

impl fmt::Display for HwPreset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            HwPreset::BufferFocused => "Buffer-focused",
            HwPreset::MediumBufCom => "Medium-Buf-Com",
            HwPreset::ComputeFocused => "Compute-focused",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use digamma_costmodel::AREA_MODEL_15NM;

    #[test]
    fn presets_fit_their_budgets() {
        for platform in [Platform::edge(), Platform::cloud()] {
            for preset in HwPreset::ALL {
                let hw = preset.build(&platform, &AREA_MODEL_15NM);
                let a = AREA_MODEL_15NM.area_um2(&hw);
                assert!(
                    a <= platform.area_budget_um2,
                    "{preset} on {}: {a} > {}",
                    platform.name,
                    platform.area_budget_um2
                );
                // And they should consume most of it (no sandbagging).
                assert!(
                    a >= 0.7 * platform.area_budget_um2,
                    "{preset} on {} wastes budget: {a}",
                    platform.name
                );
            }
        }
    }

    #[test]
    fn compute_focused_has_most_pes_buffer_focused_most_buffer() {
        let p = Platform::edge();
        let buf = HwPreset::BufferFocused.build(&p, &AREA_MODEL_15NM);
        let med = HwPreset::MediumBufCom.build(&p, &AREA_MODEL_15NM);
        let com = HwPreset::ComputeFocused.build(&p, &AREA_MODEL_15NM);
        assert!(com.num_pes() > med.num_pes());
        assert!(med.num_pes() > buf.num_pes());
        assert!(buf.l2_words > med.l2_words);
        assert!(med.l2_words > com.l2_words);
    }

    #[test]
    fn cloud_presets_dwarf_edge_presets() {
        let edge = HwPreset::MediumBufCom.build(&Platform::edge(), &AREA_MODEL_15NM);
        let cloud = HwPreset::MediumBufCom.build(&Platform::cloud(), &AREA_MODEL_15NM);
        assert!(cloud.num_pes() >= 8 * edge.num_pes());
        assert!(cloud.l2_words > 8 * edge.l2_words);
    }

    #[test]
    fn preset_arrays_are_power_of_two_shaped() {
        for preset in HwPreset::ALL {
            let hw = preset.build(&Platform::edge(), &AREA_MODEL_15NM);
            for f in &hw.fanouts {
                assert!(f.is_power_of_two(), "{preset}: fanout {f}");
            }
        }
    }
}
