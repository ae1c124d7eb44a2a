//! Roofline latency model over compute and every memory link.
//!
//! Each PE retires one MAC per cycle. Every memory link (DRAM→L2, L2→mid,
//! →L1) is a bandwidth-limited channel that, under double buffering,
//! overlaps with compute. The layer's latency is therefore the maximum of
//! the compute time and each link's busy time, plus a pipeline-fill term
//! for the first L2 tile. This is the same first-order model MAESTRO's
//! latency analysis reduces to when tile delivery is fully pipelined.

use crate::accelerator::Platform;
use crate::analysis::Analysis;
use crate::levels::Levels;

/// Which resource bounds the layer's latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bottleneck {
    /// The PE array's MAC throughput.
    Compute,
    /// The DRAM→L2 link.
    Dram,
    /// The on-chip link feeding mapping level `ℓ`'s children
    /// (0-indexed from the outermost on-chip link).
    Noc(usize),
}

/// Latency decomposition for one `(layer, mapping, platform)` evaluation.
#[derive(Debug, Clone, Copy)]
pub struct LatencyBreakdown {
    /// Cycles each PE spends computing (including under-filled folds).
    pub compute_cycles: f64,
    /// Busy cycles of the DRAM→L2 link.
    pub dram_cycles: f64,
    /// Busy cycles of each on-chip link, outermost first.
    pub noc_cycles: Levels<f64>,
    /// Cycles to stage the first L2 tile before compute can start.
    pub fill_cycles: f64,
    /// Total latency: `max(compute, links) + fill`.
    pub total_cycles: f64,
    /// The binding resource.
    pub bottleneck: Bottleneck,
}

/// Computes the latency breakdown from a reuse [`Analysis`].
pub fn latency(analysis: &Analysis, platform: &Platform) -> LatencyBreakdown {
    let compute_cycles = analysis.total_leaf_steps as f64 * analysis.pe_tile_macs as f64;

    // Link 0 is fed by DRAM; links 1.. are on-chip NoC stages.
    let dram_cycles = analysis.levels[0].traffic.total() as f64 / platform.bw_dram;
    let noc_cycles: Levels<f64> =
        analysis.levels[1..].iter().map(|l| l.traffic.total() as f64 / platform.bw_noc).collect();

    let fill_cycles = analysis.buffers.l2_words as f64 / platform.bw_dram;

    let mut total = compute_cycles;
    let mut bottleneck = Bottleneck::Compute;
    if dram_cycles > total {
        total = dram_cycles;
        bottleneck = Bottleneck::Dram;
    }
    for (i, &c) in noc_cycles.iter().enumerate() {
        if c > total {
            total = c;
            bottleneck = Bottleneck::Noc(i);
        }
    }

    LatencyBreakdown {
        compute_cycles,
        dram_cycles,
        noc_cycles,
        fill_cycles,
        total_cycles: total + fill_cycles,
        bottleneck,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use crate::mapping::Mapping;
    use digamma_workload::Layer;

    #[test]
    fn latency_lower_bound_is_macs_over_pes() {
        let l = Layer::conv("l", 64, 32, 16, 16, 3, 3, 1);
        let m = Mapping::row_major_example(&l, 8, 4);
        let a = analyze(&l, &m).unwrap();
        let lat = latency(&a, &Platform::edge());
        let ideal = l.macs() as f64 / a.num_pes as f64;
        assert!(lat.total_cycles >= ideal, "{} < {}", lat.total_cycles, ideal);
    }

    #[test]
    fn memory_bound_layer_is_dram_bound() {
        // Embedding gather: no reuse possible, DRAM must bind.
        let l = Layer::gemm("emb", 64, 256, 1);
        let m = Mapping::row_major_example(&l, 8, 8);
        let a = analyze(&l, &m).unwrap();
        let lat = latency(&a, &Platform::edge());
        assert_eq!(lat.bottleneck, Bottleneck::Dram);
    }

    #[test]
    fn higher_bandwidth_never_hurts() {
        let l = Layer::conv("l", 64, 32, 16, 16, 3, 3, 1);
        let m = Mapping::row_major_example(&l, 4, 4);
        let a = analyze(&l, &m).unwrap();
        let slow = latency(&a, &Platform::edge());
        let mut fast_platform = Platform::edge();
        fast_platform.bw_dram *= 8.0;
        fast_platform.bw_noc *= 8.0;
        let fast = latency(&a, &fast_platform);
        assert!(fast.total_cycles <= slow.total_cycles);
    }

    #[test]
    fn fill_cycles_track_l2_size() {
        let l = Layer::conv("l", 64, 32, 16, 16, 3, 3, 1);
        let m = Mapping::row_major_example(&l, 8, 4);
        let a = analyze(&l, &m).unwrap();
        let lat = latency(&a, &Platform::edge());
        assert!(
            (lat.fill_cycles - a.buffers.l2_words as f64 / Platform::edge().bw_dram).abs() < 1e-9
        );
    }
}
