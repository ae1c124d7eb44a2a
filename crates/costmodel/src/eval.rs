//! The evaluator front door: `(layer, mapping) → CostReport`.

use crate::accelerator::{HwConfig, Platform};
use crate::analysis::{analyze_into, Analysis};
use crate::area::{AreaModel, AREA_MODEL_15NM};
use crate::cachekey::{layer_eval_key, write_model_constants, StableHasher};
use crate::energy::{EnergyModel, ENERGY_MODEL_DEFAULT};
use crate::error::EvalError;
use crate::latency::latency;
use crate::mapping::Mapping;
use crate::report::CostReport;
use digamma_workload::Layer;
use std::cell::RefCell;

thread_local! {
    /// The lazily-created per-thread reuse analysis backing
    /// [`Evaluator::evaluate`]: every call on a given thread refills one
    /// [`Analysis`] in place, keeping its vectors' capacity. (An
    /// `Evaluator` is shared immutably across worker threads, so it
    /// cannot own the buffer itself without a lock on the hot path.)
    static THREAD_ANALYSIS: RefCell<Analysis> = RefCell::new(Analysis::default());
}

/// Evaluates `(layer, mapping)` pairs on a platform.
///
/// This plays the role MAESTRO plays in the paper's evaluation block
/// (Fig. 3(a)): it runs the reuse analysis, the latency/energy models, and
/// derives the hardware (buffer allocation strategy) and its area.
///
/// # Example
///
/// ```
/// use digamma_costmodel::{Evaluator, Mapping, Platform};
/// use digamma_workload::Layer;
///
/// let layer = Layer::gemm("fc", 256, 64, 512);
/// let mapping = Mapping::row_major_example(&layer, 4, 8);
/// let report = Evaluator::new(Platform::edge()).evaluate(&layer, &mapping)?;
/// assert!(report.utilization > 0.0);
/// # Ok::<(), digamma_costmodel::EvalError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Evaluator {
    platform: Platform,
    area_model: AreaModel,
    energy_model: EnergyModel,
}

impl Evaluator {
    /// Creates an evaluator with the default area and energy models.
    pub fn new(platform: Platform) -> Evaluator {
        Evaluator { platform, area_model: AREA_MODEL_15NM, energy_model: ENERGY_MODEL_DEFAULT }
    }

    /// The platform this evaluator scores against.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The active area model.
    pub fn area_model(&self) -> &AreaModel {
        &self.area_model
    }

    /// Feeds every model constant the cost model reads — platform
    /// bandwidths plus area/energy coefficients — into `hasher`, in the
    /// same order [`layer_eval_key`] uses. Higher-level caches (the
    /// genome-level memo) build their stable keys on this so the
    /// evaluator's identity hashes one way everywhere.
    pub fn write_model_constants(&self, hasher: &mut StableHasher) {
        write_model_constants(
            hasher,
            self.platform.bw_dram,
            self.platform.bw_noc,
            &self.area_model,
            &self.energy_model,
        );
    }

    /// Stable memo key for [`Evaluator::evaluate`] on this evaluator:
    /// equal keys guarantee identical [`CostReport`]s (see
    /// [`crate::cachekey`]).
    pub fn cache_key(&self, layer: &Layer, mapping: &Mapping) -> u64 {
        layer_eval_key(
            self.platform.bw_dram,
            self.platform.bw_noc,
            &self.area_model,
            &self.energy_model,
            layer,
            mapping,
        )
    }

    /// Evaluates a mapping, deriving minimum-footprint hardware
    /// (DiGamma's buffer allocation strategy).
    ///
    /// The reuse analysis runs once, into a lazily-created per-thread
    /// [`Analysis`] that keeps its capacity between calls; the returned
    /// report owns copies of the pieces it carries.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError`] when the mapping is structurally invalid for
    /// the layer. Over-budget designs still evaluate — the constraint
    /// checker upstream decides their fate.
    pub fn evaluate(&self, layer: &Layer, mapping: &Mapping) -> Result<CostReport, EvalError> {
        THREAD_ANALYSIS.with(|analysis| match analysis.try_borrow_mut() {
            Ok(mut analysis) => self.evaluate_into(layer, mapping, &mut analysis),
            // Unreachable in practice (evaluation never re-enters), but
            // a fresh analysis keeps even that case correct.
            Err(_) => self.evaluate_into(layer, mapping, &mut Analysis::default()),
        })
    }

    fn evaluate_into(
        &self,
        layer: &Layer,
        mapping: &Mapping,
        analysis: &mut Analysis,
    ) -> Result<CostReport, EvalError> {
        analyze_into(layer, mapping, analysis)?;
        let hw = HwConfig::for_mapping_buffers(mapping.pe_shape(), &analysis.buffers);
        let lat = latency(analysis, &self.platform);
        let energy = self.energy_model.energy_pj(analysis);
        let area = self.area_model.area_um2(&hw);
        let pe_area = self.area_model.pe_area_um2(&hw);
        Ok(CostReport::assemble(analysis, lat, energy, area, pe_area, hw))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use digamma_workload::zoo;

    #[test]
    fn evaluate_every_layer_of_every_model() {
        // The cost model must handle every shape in the zoo without error.
        let eval = Evaluator::new(Platform::edge());
        for model in zoo::all_models() {
            for layer in model.layers() {
                let m = Mapping::row_major_example(layer, 4, 8);
                let r = eval
                    .evaluate(layer, &m)
                    .unwrap_or_else(|e| panic!("{}/{}: {e}", model.name(), layer.name()));
                assert!(r.latency_cycles.is_finite() && r.latency_cycles > 0.0);
                assert!(r.energy_pj > 0.0);
                assert!(r.area_um2 > 0.0);
                assert!(r.utilization > 0.0 && r.utilization <= 1.0 + 1e-9);
            }
        }
    }

    #[test]
    fn derived_hw_matches_buffer_requirement() {
        let layer = digamma_workload::Layer::conv("l", 64, 32, 16, 16, 3, 3, 1);
        let m = Mapping::row_major_example(&layer, 8, 4);
        let r = Evaluator::new(Platform::edge()).evaluate(&layer, &m).unwrap();
        assert_eq!(r.hw.l2_words, r.buffers.l2_words);
        assert_eq!(r.hw.l1_words_per_pe, r.buffers.l1_words_per_pe);
        assert_eq!(r.hw.num_pes(), 32);
    }

    /// Bit-exact equality of two cost reports, field by field.
    fn assert_bit_identical(a: &CostReport, b: &CostReport, context: &str) {
        assert_eq!(a.latency_cycles.to_bits(), b.latency_cycles.to_bits(), "{context}");
        assert_eq!(a.latency.compute_cycles.to_bits(), b.latency.compute_cycles.to_bits());
        assert_eq!(a.latency.dram_cycles.to_bits(), b.latency.dram_cycles.to_bits());
        assert_eq!(a.latency.noc_cycles.len(), b.latency.noc_cycles.len());
        for (x, y) in a.latency.noc_cycles.iter().zip(&b.latency.noc_cycles) {
            assert_eq!(x.to_bits(), y.to_bits(), "{context}");
        }
        assert_eq!(a.latency.fill_cycles.to_bits(), b.latency.fill_cycles.to_bits());
        assert_eq!(a.latency.total_cycles.to_bits(), b.latency.total_cycles.to_bits());
        assert_eq!(a.latency.bottleneck, b.latency.bottleneck, "{context}");
        assert_eq!(a.energy_pj.to_bits(), b.energy_pj.to_bits(), "{context}");
        assert_eq!(a.area_um2.to_bits(), b.area_um2.to_bits(), "{context}");
        assert_eq!(a.pe_area_um2.to_bits(), b.pe_area_um2.to_bits(), "{context}");
        assert_eq!(a.hw, b.hw, "{context}");
        assert_eq!(a.buffers, b.buffers, "{context}");
        assert_eq!(a.traffic, b.traffic, "{context}");
        assert_eq!(a.utilization.to_bits(), b.utilization.to_bits(), "{context}");
        assert_eq!(a.macs, b.macs, "{context}");
    }

    #[test]
    fn reused_thread_analysis_matches_a_fresh_thread() {
        // This thread's analysis buffer serves every case in turn — other
        // layers, PE shapes and platforms, with an erroring mapping before
        // each — and must give the bits a fresh thread gives, so no state
        // leaks between consecutive evaluations.
        let bad = |layer: &Layer| {
            let mut m = Mapping::row_major_example(layer, 4, 8);
            m.levels_mut()[0].fanout = 0;
            m
        };
        let mut cases = Vec::new();
        for platform in [Platform::edge(), Platform::cloud()] {
            for model in zoo::all_models() {
                for layer in model.layers().iter().take(8) {
                    for (rows, cols) in [(4, 8), (8, 4)] {
                        let m = Mapping::row_major_example(layer, rows, cols);
                        cases.push((Evaluator::new(platform.clone()), layer.clone(), m));
                    }
                }
            }
        }
        let reused: Vec<CostReport> = cases
            .iter()
            .map(|(eval, layer, m)| {
                assert!(eval.evaluate(layer, &bad(layer)).is_err());
                eval.evaluate(layer, m).unwrap()
            })
            .collect();
        for ((eval, layer, m), report) in cases.iter().zip(&reused) {
            let fresh = std::thread::scope(|s| {
                s.spawn(|| eval.evaluate(layer, m).unwrap()).join().unwrap()
            });
            assert_bit_identical(report, &fresh, layer.name());
        }
    }

    #[test]
    fn report_metrics_compose() {
        let layer = digamma_workload::Layer::gemm("g", 128, 64, 256);
        let m = Mapping::row_major_example(&layer, 4, 4);
        let r = Evaluator::new(Platform::cloud()).evaluate(&layer, &m).unwrap();
        assert!((r.edp() - r.energy_pj * r.latency_cycles).abs() < 1e-6);
        assert!(r.latency_area_product() > 0.0);
        let (pe, buf) = r.area_ratio_percent();
        assert!((pe + buf - 100.0).abs() < 1e-9);
        // Display must render without panicking and mention the bottleneck.
        let shown = format!("{r}");
        assert!(shown.contains("latency"));
    }
}
