//! Hardware configurations and platform resource envelopes.

use crate::analysis::BufferRequirement;
use crate::levels::Levels;
use std::fmt;

/// A concrete accelerator hardware configuration: PE array shape and
/// buffer capacities.
///
/// In DiGamma the buffer fields are *derived* from a mapping by the buffer
/// allocation strategy ([`HwConfig::for_mapping_buffers`]); in the
/// Fixed-HW use-case they are given and act as hard constraints
/// ([`HwConfig::accommodates`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HwConfig {
    /// PE array fan-out per level, outermost first
    /// (e.g. `[π_L2, π_L1]` = a `π_L2 × π_L1` 2-D array).
    pub fanouts: Levels<u64>,
    /// Global L2 buffer capacity in words.
    pub l2_words: u64,
    /// Per-unit middle-buffer capacities (empty for 2-level designs).
    pub mid_words_per_unit: Levels<u64>,
    /// Per-PE L1 buffer capacity in words.
    pub l1_words_per_pe: u64,
}

impl HwConfig {
    /// Total PE count: the product of all fan-outs.
    pub fn num_pes(&self) -> u64 {
        self.fanouts.iter().product()
    }

    /// Builds the exact-minimum hardware for a mapping's buffer
    /// requirements — DiGamma's buffer allocation strategy (Sec. IV-C).
    pub fn for_mapping_buffers(fanouts: Levels<u64>, buffers: &BufferRequirement) -> HwConfig {
        HwConfig {
            fanouts,
            l2_words: buffers.l2_words,
            mid_words_per_unit: buffers.mid_words_per_unit,
            l1_words_per_pe: buffers.l1_words_per_pe,
        }
    }

    /// Whether this hardware can host a mapping with the given buffer
    /// needs and fan-outs (used by the Fixed-HW constraint and by the
    /// GAMMA baseline, whose hardware is frozen).
    pub fn accommodates(&self, fanouts: &[u64], buffers: &BufferRequirement) -> bool {
        if fanouts.len() != self.fanouts.len() {
            return false;
        }
        if fanouts.iter().zip(&self.fanouts).any(|(m, h)| m > h) {
            return false;
        }
        if buffers.l2_words > self.l2_words || buffers.l1_words_per_pe > self.l1_words_per_pe {
            return false;
        }
        if buffers.mid_words_per_unit.len() != self.mid_words_per_unit.len() {
            return false;
        }
        buffers
            .mid_words_per_unit
            .iter()
            .zip(&self.mid_words_per_unit)
            .all(|(need, have)| need <= have)
    }

    /// Takes the entry-wise maximum of buffer capacities with another
    /// requirement (used when one HW must host per-layer mappings of a
    /// whole model).
    pub fn grow_to_fit(&mut self, buffers: &BufferRequirement) {
        self.l2_words = self.l2_words.max(buffers.l2_words);
        self.l1_words_per_pe = self.l1_words_per_pe.max(buffers.l1_words_per_pe);
        for (have, need) in self.mid_words_per_unit.iter_mut().zip(&buffers.mid_words_per_unit) {
            *have = (*have).max(*need);
        }
    }
}

impl fmt::Display for HwConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let shape: Vec<String> = self.fanouts.iter().map(|x| x.to_string()).collect();
        write!(
            f,
            "PEs {} ({}), L1 {} w/PE, L2 {} w",
            shape.join("x"),
            self.num_pes(),
            self.l1_words_per_pe,
            self.l2_words
        )
    }
}

/// Platform resource envelope: the design budget and the fixed fabric
/// parameters the search does not touch.
#[derive(Debug, Clone, PartialEq)]
pub struct Platform {
    /// Human-readable name (`"edge"` / `"cloud"`).
    pub name: String,
    /// Chip area budget for PEs + buffers, in µm²
    /// (0.2 mm² edge, 7.0 mm² cloud in the paper).
    pub area_budget_um2: f64,
    /// DRAM→L2 bandwidth in words per cycle.
    pub bw_dram: f64,
    /// On-chip (L2→L1) aggregate NoC bandwidth in words per cycle.
    pub bw_noc: f64,
    /// Hard cap on total PEs the encoding may propose (the area budget is
    /// almost always the binding constraint; this bounds the gene range).
    pub max_pes: u64,
}

impl Platform {
    /// The paper's edge setting: 0.2 mm² for PEs and on-chip buffers.
    pub fn edge() -> Platform {
        Platform {
            name: "edge".to_owned(),
            area_budget_um2: 0.2e6,
            bw_dram: 8.0,
            bw_noc: 64.0,
            max_pes: 1024,
        }
    }

    /// The paper's cloud setting: 7.0 mm² for PEs and on-chip buffers.
    pub fn cloud() -> Platform {
        Platform {
            name: "cloud".to_owned(),
            area_budget_um2: 7.0e6,
            bw_dram: 64.0,
            bw_noc: 512.0,
            max_pes: 32768,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buffers(l2: u64, l1: u64) -> BufferRequirement {
        BufferRequirement { l2_words: l2, mid_words_per_unit: [].into(), l1_words_per_pe: l1 }
    }

    #[test]
    fn accommodates_checks_every_resource() {
        let hw = HwConfig {
            fanouts: [8, 8].into(),
            l2_words: 1000,
            mid_words_per_unit: [].into(),
            l1_words_per_pe: 50,
        };
        assert!(hw.accommodates(&[8, 8], &buffers(1000, 50)));
        assert!(hw.accommodates(&[4, 8], &buffers(500, 10)));
        assert!(!hw.accommodates(&[16, 8], &buffers(500, 10)), "too many clusters");
        assert!(!hw.accommodates(&[8, 8], &buffers(1001, 10)), "L2 overflow");
        assert!(!hw.accommodates(&[8, 8], &buffers(10, 51)), "L1 overflow");
        assert!(!hw.accommodates(&[8], &buffers(10, 10)), "level mismatch");
    }

    #[test]
    fn grow_to_fit_takes_maxima() {
        let mut hw = HwConfig {
            fanouts: [4, 4].into(),
            l2_words: 100,
            mid_words_per_unit: [].into(),
            l1_words_per_pe: 10,
        };
        hw.grow_to_fit(&buffers(50, 20));
        assert_eq!(hw.l2_words, 100);
        assert_eq!(hw.l1_words_per_pe, 20);
    }

    #[test]
    fn platforms_match_paper_budgets() {
        assert!((Platform::edge().area_budget_um2 - 0.2e6).abs() < 1.0);
        assert!((Platform::cloud().area_budget_um2 - 7.0e6).abs() < 1.0);
        assert!(Platform::cloud().bw_dram > Platform::edge().bw_dram);
    }

    #[test]
    fn num_pes_is_fanout_product() {
        let hw = HwConfig {
            fanouts: [3, 5, 7].into(),
            l2_words: 0,
            mid_words_per_unit: [0].into(),
            l1_words_per_pe: 0,
        };
        assert_eq!(hw.num_pes(), 105);
    }
}
