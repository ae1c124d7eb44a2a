//! An executable reference simulator for the mapping semantics.
//!
//! MAESTRO justifies its analytical model by validation against chip
//! prototypes; this reproduction cannot tape out chips, so it validates
//! the [`analysis`](crate::analysis) module against *execution* instead:
//! this simulator walks the exact tile schedule a mapping describes —
//! every loop iteration at every level, every spatial unit — and counts
//! the words that actually cross each link, using only operational rules:
//!
//! * each unit holds **one resident tile per tensor** (capacity-1 cache);
//!   a step needing a different tile is a miss and a transfer,
//! * transfers within a step are **multicast**: one copy per *distinct*
//!   tile id serves all children that need it,
//! * an output miss **flushes** the evicted partial upstream, and
//!   re-acquiring a previously flushed output tile **reads it back**,
//! * leaf steps execute the clipped tile's MACs.
//!
//! On cleanly divisible mappings the analytical model must agree
//! *exactly*; with ceil-folded (non-divisible) mappings it must be a
//! safe upper bound. Both properties are enforced by this module's tests
//! and the cross-crate property suite.
//!
//! Cost: exponential in the loop nest (it is an interpreter), so keep
//! layers small — it exists to validate the model, not to replace it.

use crate::analysis::LinkTraffic;
use crate::error::EvalError;
use crate::mapping::Mapping;
use digamma_workload::{tensor_footprint, Dim, DimVec, Layer, Tensor, NUM_DIMS};
use std::collections::HashSet;

/// A tensor-tile identity: the tile's origin projected onto the tensor's
/// relevant dimensions (irrelevant coordinates zeroed).
type TileId = [u64; NUM_DIMS];

/// Per-unit resident-tile state (one entry per tensor).
#[derive(Debug, Clone, Default)]
struct UnitCache {
    resident: [Option<TileId>; 3],
}

/// One active unit during a lockstep simulation step: its path id, tile
/// origin, and clipped extent.
#[derive(Debug, Clone, Copy)]
struct ActiveUnit {
    unit_id: usize,
    origin: DimVec<u64>,
    clipped: DimVec<u64>,
}

/// Traffic measured by executing the schedule.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Words crossing the link feeding each level's children,
    /// outermost first — same layout as
    /// [`Analysis::levels`](crate::analysis::Analysis).
    pub levels: Vec<LinkTraffic>,
    /// Total MACs executed by leaf units (clipped tiles).
    pub macs_executed: u64,
}

struct Sim<'a> {
    layer: &'a Layer,
    mapping: &'a Mapping,
    relevance: [DimVec<bool>; 3],
    footprints: Vec<[u64; 3]>,
    /// Iteration counts per level, derived from the *unclipped* parent
    /// tile (uniform across sibling units, exactly as the analysis does).
    counts: Vec<DimVec<u64>>,
    traffic: Vec<LinkTraffic>,
    /// Caches of the units at each depth ≥ 1, addressed by unit path id.
    caches: Vec<Vec<UnitCache>>,
    /// Output tile ids ever flushed at each level (for readback counting).
    flushed: Vec<HashSet<TileId>>,
    macs: u64,
}

impl<'a> Sim<'a> {
    fn project(&self, origin: &DimVec<u64>, tensor_idx: usize) -> TileId {
        let mut id = [0u64; NUM_DIMS];
        for d in Dim::ALL {
            if self.relevance[tensor_idx][d] {
                id[d.index()] = origin[d];
            }
        }
        id
    }

    /// Executes one **global** lockstep step given the combined odometer
    /// state, counting transfers with chip-wide multicast dedup per level.
    fn step(&mut self, idx: &[DimVec<u64>]) {
        let levels = self.mapping.levels();
        // Parents at depth 0: the chip, owning the whole layer.
        let mut parents =
            vec![ActiveUnit { unit_id: 0, origin: DimVec::splat(0), clipped: *self.layer.dims() }];

        for (ell, level) in levels.iter().enumerate() {
            let fanout = level.fanout as usize;
            let spatial = level.spatial_dim;
            let mut children: Vec<ActiveUnit> = Vec::with_capacity(parents.len() * fanout);
            // Chip-wide per-step transfer dedup (multicast across *all*
            // units at this depth, siblings included).
            let mut delivered: [HashSet<TileId>; 3] = Default::default();
            let mut evicted: HashSet<TileId> = HashSet::new();
            let mut read_back: HashSet<TileId> = HashSet::new();

            for parent in &parents {
                // This level's step origin inside the parent's tile.
                let mut step_origin = parent.origin;
                for d in Dim::ALL {
                    let stride = level.tile[d] * if d == spatial { level.fanout } else { 1 };
                    step_origin[d] += idx[ell][d] * stride;
                }
                for c in 0..fanout {
                    let mut child_origin = step_origin;
                    child_origin[spatial] += c as u64 * level.tile[spatial];
                    // Active iff the origin lies inside the parent's
                    // *clipped* region (idle ceil-folds drop out here).
                    let inside = Dim::ALL
                        .iter()
                        .all(|&d| child_origin[d] < parent.origin[d] + parent.clipped[d]);
                    if !inside {
                        continue;
                    }
                    let child_unit = parent.unit_id * fanout + c;
                    for (ti, delivered_t) in delivered.iter_mut().enumerate() {
                        let id = self.project(&child_origin, ti);
                        let cache = &mut self.caches[ell][child_unit];
                        if cache.resident[ti] == Some(id) {
                            continue; // hit: stationary
                        }
                        if ti == 2 {
                            // Evictions merge in the NoC (adder tree):
                            // count once per distinct id per step.
                            if let Some(old) = cache.resident[ti] {
                                evicted.insert(old);
                            }
                            if self.flushed[ell].contains(&id) {
                                read_back.insert(id);
                            }
                        } else {
                            delivered_t.insert(id);
                        }
                        cache.resident[ti] = Some(id);
                    }
                    // Clip the child's tile to the data that exists.
                    let mut clipped = level.tile;
                    for d in Dim::ALL {
                        let end = parent.origin[d] + parent.clipped[d];
                        clipped[d] = clipped[d].min(end - child_origin[d]);
                    }
                    children.push(ActiveUnit {
                        unit_id: child_unit,
                        origin: child_origin,
                        clipped,
                    });
                }
            }

            let f = self.footprints[ell];
            self.traffic[ell].weight += delivered[0].len() as u128 * f[0] as u128;
            self.traffic[ell].input += delivered[1].len() as u128 * f[1] as u128;
            self.traffic[ell].output_write += evicted.len() as u128 * f[2] as u128;
            self.traffic[ell].output_read += read_back.len() as u128 * f[2] as u128;
            for id in evicted {
                self.flushed[ell].insert(id);
            }
            parents = children;
        }

        // Leaves compute their clipped tiles.
        for leaf in &parents {
            self.macs += leaf.clipped.product();
        }
    }

    /// Flush every resident output tile at the end of execution, merging
    /// simultaneous evictions of the same id (one final "step").
    fn final_flush(&mut self) {
        for (depth, units) in self.caches.iter().enumerate() {
            let words = self.footprints[depth][2] as u128;
            let mut evicted: HashSet<TileId> = HashSet::new();
            for unit in units {
                if let Some(id) = unit.resident[2] {
                    evicted.insert(id);
                }
            }
            self.traffic[depth].output_write += evicted.len() as u128 * words;
        }
    }

    /// Advances the combined odometer (levels outer→inner, each level's
    /// order outer→inner). Returns `false` when the schedule is complete.
    fn advance(&self, idx: &mut [DimVec<u64>]) -> bool {
        for ell in (0..self.mapping.levels().len()).rev() {
            let order = self.mapping.levels()[ell].order;
            for &d in order.iter().rev() {
                idx[ell][d] += 1;
                if idx[ell][d] < self.counts[ell][d] {
                    return true;
                }
                idx[ell][d] = 0;
            }
        }
        false
    }
}

/// Executes the full schedule and measures traffic.
///
/// The correctness oracle for [`crate::analysis`], not a hot path: it
/// builds fresh working state per call and per tile step.
///
/// # Errors
///
/// Returns [`EvalError`] if the mapping is structurally invalid.
///
/// # Panics
///
/// May exhaust memory/time on large layers — this is a validation
/// interpreter for small workloads (≲ a million MACs).
pub fn simulate(layer: &Layer, mapping: &Mapping) -> Result<SimReport, EvalError> {
    mapping.validate(layer)?;
    let kind = layer.kind();
    let relevance = [
        kind.relevance(Tensor::Weight),
        kind.relevance(Tensor::Input),
        kind.relevance(Tensor::Output),
    ];
    let num_levels = mapping.levels().len();
    let footprints: Vec<[u64; 3]> = mapping
        .levels()
        .iter()
        .map(|l| {
            [
                tensor_footprint(kind, Tensor::Weight, &l.tile, layer.stride()),
                tensor_footprint(kind, Tensor::Input, &l.tile, layer.stride()),
                tensor_footprint(kind, Tensor::Output, &l.tile, layer.stride()),
            ]
        })
        .collect();
    // Unit count at depth ℓ = Π_{i≤ℓ} π_i (children of each level).
    let mut caches = Vec::with_capacity(num_levels);
    let mut units = 1usize;
    for l in mapping.levels() {
        units = units.saturating_mul(l.fanout as usize);
        caches.push(vec![UnitCache::default(); units]);
    }
    // Per-level iteration counts against the unclipped parent tile.
    let mut counts = Vec::with_capacity(num_levels);
    let mut parent = *layer.dims();
    for l in mapping.levels() {
        counts.push(l.iteration_counts(&parent));
        parent = l.tile;
    }

    let mut sim = Sim {
        layer,
        mapping,
        relevance,
        footprints,
        counts,
        traffic: vec![LinkTraffic::default(); num_levels],
        caches,
        flushed: vec![HashSet::new(); num_levels],
        macs: 0,
    };
    let mut idx = vec![DimVec::splat(0u64); num_levels];
    loop {
        sim.step(&idx);
        if !sim.advance(&mut idx) {
            break;
        }
    }
    sim.final_flush();
    Ok(SimReport { levels: sim.traffic, macs_executed: sim.macs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use crate::mapping::LevelSpec;

    fn divisible_mapping(
        layer: &Layer,
        p2: Dim,
        p1: Dim,
        t2: DimVec<u64>,
        t1: DimVec<u64>,
        f2: u64,
        f1: u64,
    ) -> Mapping {
        let m = Mapping::new(vec![
            LevelSpec { fanout: f2, spatial_dim: p2, order: Dim::ALL, tile: t2 },
            LevelSpec { fanout: f1, spatial_dim: p1, order: Dim::ALL, tile: t1 },
        ]);
        m.validate(layer).unwrap();
        m
    }

    #[test]
    fn simulated_macs_always_equal_true_macs() {
        // Even with awkward non-divisible tiles, clipping must tile the
        // iteration space exactly once.
        let layer = Layer::conv("l", 6, 5, 7, 4, 3, 2, 1);
        let t2 = DimVec([4, 3, 5, 3, 2, 2]);
        let t1 = DimVec([3, 2, 2, 3, 1, 2]);
        let m = divisible_mapping(&layer, Dim::K, Dim::Y, t2, t1, 2, 3);
        let sim = simulate(&layer, &m).unwrap();
        assert_eq!(sim.macs_executed, layer.macs());
    }

    #[test]
    fn analytic_matches_simulation_exactly_on_divisible_mapping() {
        // 8/4/2 splits everywhere: no ceil effects, no clipping.
        let layer = Layer::conv("l", 8, 4, 8, 4, 1, 1, 1);
        let t2 = DimVec([4, 4, 4, 4, 1, 1]);
        let t1 = DimVec([2, 4, 1, 2, 1, 1]);
        let m = divisible_mapping(&layer, Dim::K, Dim::Y, t2, t1, 2, 4);
        let sim = simulate(&layer, &m).unwrap();
        let ana = analyze(&layer, &m).unwrap();
        for (lvl, (s, a)) in sim.levels.iter().zip(&ana.levels).enumerate() {
            assert_eq!(s.weight, a.traffic.weight, "weight at level {lvl}");
            assert_eq!(s.input, a.traffic.input, "input at level {lvl}");
            assert_eq!(s.output_write, a.traffic.output_write, "out-w at level {lvl}");
            assert_eq!(s.output_read, a.traffic.output_read, "out-r at level {lvl}");
        }
    }

    #[test]
    fn analytic_matches_simulation_with_reduction_readback() {
        // C iterates with an inner K loop: partial sums must bounce.
        let layer = Layer::conv("l", 4, 8, 2, 2, 1, 1, 1);
        let t2 = DimVec([2, 2, 2, 2, 1, 1]);
        let t1 = DimVec([1, 2, 1, 2, 1, 1]);
        let order = [Dim::C, Dim::K, Dim::Y, Dim::X, Dim::R, Dim::S];
        let m = Mapping::new(vec![
            LevelSpec { fanout: 1, spatial_dim: Dim::X, order, tile: t2 },
            LevelSpec { fanout: 2, spatial_dim: Dim::K, order: Dim::ALL, tile: t1 },
        ]);
        let sim = simulate(&layer, &m).unwrap();
        let ana = analyze(&layer, &m).unwrap();
        assert!(sim.levels[0].output_read > 0, "expected readback");
        assert_eq!(sim.levels[0].output_read, ana.levels[0].traffic.output_read);
        assert_eq!(sim.levels[0].output_write, ana.levels[0].traffic.output_write);
    }

    #[test]
    fn multicast_dedup_matches_analytic() {
        // K-parallel clusters share inputs: the simulator must count one
        // input transfer per step, like the analytic multicast rule.
        let layer = Layer::conv("l", 8, 4, 4, 4, 1, 1, 1);
        let t2 = DimVec([2, 4, 4, 4, 1, 1]);
        let t1 = DimVec([2, 4, 1, 4, 1, 1]);
        let m = divisible_mapping(&layer, Dim::K, Dim::Y, t2, t1, 4, 4);
        let sim = simulate(&layer, &m).unwrap();
        let ana = analyze(&layer, &m).unwrap();
        assert_eq!(sim.levels[0].input, ana.levels[0].traffic.input);
        assert_eq!(sim.levels[0].weight, ana.levels[0].traffic.weight);
    }

    #[test]
    fn analytic_upper_bounds_simulation_on_non_divisible_mappings() {
        // Ceil folds idle some children; the analytic model charges the
        // full footprint anyway, so it must never undercount.
        let layer = Layer::conv("l", 7, 5, 6, 5, 3, 3, 1);
        let t2 = DimVec([3, 5, 4, 3, 3, 2]);
        let t1 = DimVec([2, 3, 2, 3, 2, 2]);
        let m = divisible_mapping(&layer, Dim::K, Dim::Y, t2, t1, 2, 2);
        let sim = simulate(&layer, &m).unwrap();
        let ana = analyze(&layer, &m).unwrap();
        for (s, a) in sim.levels.iter().zip(&ana.levels) {
            assert!(a.traffic.weight >= s.weight);
            assert!(a.traffic.input >= s.input);
            assert!(a.traffic.output_write >= s.output_write);
        }
        assert_eq!(sim.macs_executed, layer.macs());
    }

    #[test]
    fn gemm_simulation_agrees() {
        let layer = Layer::gemm("g", 8, 4, 8);
        let t2 = DimVec([4, 4, 4, 1, 1, 1]);
        let t1 = DimVec([2, 4, 2, 1, 1, 1]);
        let m = divisible_mapping(&layer, Dim::K, Dim::Y, t2, t1, 2, 2);
        let sim = simulate(&layer, &m).unwrap();
        let ana = analyze(&layer, &m).unwrap();
        assert_eq!(sim.levels[0].weight, ana.levels[0].traffic.weight);
        assert_eq!(sim.levels[0].input, ana.levels[0].traffic.input);
        assert_eq!(sim.levels[1].output_write, ana.levels[1].traffic.output_write);
    }

    #[test]
    fn three_level_simulation_runs() {
        let layer = Layer::conv("l", 4, 4, 4, 4, 1, 1, 1);
        let m = Mapping::new(vec![
            LevelSpec {
                fanout: 2,
                spatial_dim: Dim::K,
                order: Dim::ALL,
                tile: DimVec([2, 4, 4, 4, 1, 1]),
            },
            LevelSpec {
                fanout: 2,
                spatial_dim: Dim::Y,
                order: Dim::ALL,
                tile: DimVec([2, 4, 2, 4, 1, 1]),
            },
            LevelSpec {
                fanout: 2,
                spatial_dim: Dim::X,
                order: Dim::ALL,
                tile: DimVec([2, 2, 2, 2, 1, 1]),
            },
        ]);
        let sim = simulate(&layer, &m).unwrap();
        assert_eq!(sim.levels.len(), 3);
        assert_eq!(sim.macs_executed, layer.macs());
    }
}
