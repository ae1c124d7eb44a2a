//! The evaluation result handed back to optimizers and harnesses.

use crate::accelerator::HwConfig;
use crate::analysis::{Analysis, BufferRequirement, LinkTraffic};
use crate::latency::LatencyBreakdown;
use crate::levels::Levels;
use std::fmt;

/// Everything the framework needs to score one `(layer, mapping)` pair on
/// a platform: performance, energy, area, and the derived hardware.
#[derive(Debug, Clone, Copy)]
pub struct CostReport {
    /// End-to-end latency in cycles.
    pub latency_cycles: f64,
    /// Latency decomposition (compute vs each link, fill, bottleneck).
    pub latency: LatencyBreakdown,
    /// Total energy in pJ.
    pub energy_pj: f64,
    /// Chip area of the derived hardware in µm².
    pub area_um2: f64,
    /// PE-only area in µm² (for the Fig. 7 PE:buffer ratio).
    pub pe_area_um2: f64,
    /// Derived (or supplied) hardware configuration.
    pub hw: HwConfig,
    /// Minimum buffer capacities the mapping needs.
    pub buffers: BufferRequirement,
    /// Traffic per link, outermost (DRAM) first.
    pub traffic: Levels<LinkTraffic>,
    /// PE utilization in (0, 1].
    pub utilization: f64,
    /// True MAC count of the layer.
    pub macs: u64,
}

impl CostReport {
    /// Energy-delay product (pJ·cycles).
    pub fn edp(&self) -> f64 {
        self.energy_pj * self.latency_cycles
    }

    /// Latency-area product (cycles·µm²), the secondary metric of Fig. 5.
    pub fn latency_area_product(&self) -> f64 {
        self.latency_cycles * self.area_um2
    }

    /// PE-area : buffer-area split as percentages, as printed in Fig. 7.
    pub fn area_ratio_percent(&self) -> (f64, f64) {
        let pe = 100.0 * self.pe_area_um2 / self.area_um2;
        (pe, 100.0 - pe)
    }

    /// Builds the report from the analysis pieces.
    pub(crate) fn assemble(
        analysis: &Analysis,
        latency: LatencyBreakdown,
        energy_pj: f64,
        area_um2: f64,
        pe_area_um2: f64,
        hw: HwConfig,
    ) -> CostReport {
        CostReport {
            latency_cycles: latency.total_cycles,
            latency,
            energy_pj,
            area_um2,
            pe_area_um2,
            hw,
            buffers: analysis.buffers,
            traffic: analysis.levels.iter().map(|l| l.traffic).collect(),
            utilization: analysis.utilization,
            macs: analysis.macs_total,
        }
    }
}

impl fmt::Display for CostReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (pe, buf) = self.area_ratio_percent();
        writeln!(
            f,
            "latency  {:.3e} cycles ({:?}-bound)",
            self.latency_cycles, self.latency.bottleneck
        )?;
        writeln!(f, "energy   {:.3e} pJ  (EDP {:.3e})", self.energy_pj, self.edp())?;
        writeln!(f, "area     {:.3e} um2  (PE {pe:.0}% : buffer {buf:.0}%)", self.area_um2)?;
        writeln!(f, "hw       {}", self.hw)?;
        write!(f, "util     {:.1}%", self.utilization * 100.0)
    }
}
