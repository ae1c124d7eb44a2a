//! Property-based validation of the analytical model against the
//! executable reference simulator (the reproduction's substitute for
//! MAESTRO's validation against chip prototypes).
//!
//! Two laws, checked over randomized small workloads and mappings:
//!
//! 1. on *divisible* mappings (no ceil folds, no clipping) the analysis
//!    matches execution **exactly**, per level and per tensor;
//! 2. on arbitrary mappings the analysis never undercounts traffic, and
//!    the simulator always executes exactly the layer's true MAC count.
//!
//! Both laws are also checked on the traffic that
//! [`Evaluator::evaluate`] reports — the per-thread path the search
//! actually runs.

use digamma_costmodel::{analyze, simulate::simulate, Evaluator, LevelSpec, Mapping, Platform};
use digamma_workload::{Dim, DimVec, Layer};
use proptest::prelude::*;

/// Picks a divisor of `n` uniformly from its divisor set.
fn divisor_of(n: u64) -> impl Strategy<Value = u64> {
    let divisors: Vec<u64> = (1..=n).filter(|d| n.is_multiple_of(*d)).collect();
    prop::sample::select(divisors)
}

/// A small layer with power-of-two-friendly extents.
fn small_layer() -> impl Strategy<Value = Layer> {
    (
        prop::sample::select(vec![2u64, 4, 6, 8]),
        prop::sample::select(vec![2u64, 3, 4, 8]),
        prop::sample::select(vec![2u64, 4, 6]),
        prop::sample::select(vec![2u64, 4]),
        prop::sample::select(vec![1u64, 3]),
    )
        .prop_map(|(k, c, y, x, f)| Layer::conv("p", k, c, y, x, f, f, 1))
}

fn spatial_dim() -> impl Strategy<Value = Dim> {
    prop::sample::select(vec![Dim::K, Dim::C, Dim::Y, Dim::X])
}

fn order() -> impl Strategy<Value = [Dim; 6]> {
    Just(Dim::ALL).prop_shuffle().prop_map(|v| v)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn divisible_mappings_match_execution_exactly(
        layer in small_layer(),
        p2 in spatial_dim(),
        p1 in spatial_dim(),
        o2 in order(),
        o1 in order(),
        seed in 0u64..1_000,
    ) {
        // Derive divisible tiles: t2 | dims, t1 | t2, and fan-outs that
        // divide the spatial extents' tile counts (no idle folds).
        let dims = *layer.dims();
        let mut rng = seed;
        let mut next = |max: u64| {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (rng >> 33) % max.max(1)
        };
        let pick_div = |n: u64, r: u64| -> u64 {
            let divs: Vec<u64> = (1..=n).filter(|d| n.is_multiple_of(*d)).collect();
            divs[(r % divs.len() as u64) as usize]
        };
        let mut t2 = DimVec::splat(1u64);
        let mut t1 = DimVec::splat(1u64);
        for d in Dim::ALL {
            t2[d] = pick_div(dims[d], next(1_000));
            t1[d] = pick_div(t2[d], next(1_000));
        }
        // Fan-outs that evenly divide the spatial tile counts.
        let f2 = pick_div(dims[p2] / t2[p2], next(1_000)).max(1);
        let f1 = pick_div(t2[p1] / t1[p1], next(1_000)).max(1);

        let mapping = Mapping::new(vec![
            LevelSpec { fanout: f2, spatial_dim: p2, order: o2, tile: t2 },
            LevelSpec { fanout: f1, spatial_dim: p1, order: o1, tile: t1 },
        ]);
        mapping.validate(&layer).unwrap();

        let sim = simulate(&layer, &mapping).unwrap();
        let ana = analyze(&layer, &mapping).unwrap();
        prop_assert_eq!(sim.macs_executed, layer.macs());
        for (lvl, (s, a)) in sim.levels.iter().zip(&ana.levels).enumerate() {
            prop_assert_eq!(s.weight, a.traffic.weight, "weight L{}", lvl);
            prop_assert_eq!(s.input, a.traffic.input, "input L{}", lvl);
            prop_assert_eq!(s.output_write, a.traffic.output_write, "out-w L{}", lvl);
            prop_assert_eq!(s.output_read, a.traffic.output_read, "out-r L{}", lvl);
        }
        let report = Evaluator::new(Platform::edge()).evaluate(&layer, &mapping).unwrap();
        prop_assert_eq!(&report.traffic, &sim.levels);
    }

    #[test]
    fn arbitrary_mappings_are_upper_bounded_and_mac_exact(
        layer in small_layer(),
        p2 in spatial_dim(),
        p1 in spatial_dim(),
        f2 in 1u64..=4,
        f1 in 1u64..=4,
        t2_raw in prop::array::uniform6(1u64..=8),
        t1_raw in prop::array::uniform6(1u64..=8),
    ) {
        // Clamp raw tiles into a valid nest (repair-style).
        let dims = *layer.dims();
        let t2 = DimVec(t2_raw).min(&dims);
        let t1 = DimVec(t1_raw).min(&t2);
        let mapping = Mapping::new(vec![
            LevelSpec { fanout: f2, spatial_dim: p2, order: Dim::ALL, tile: t2 },
            LevelSpec { fanout: f1, spatial_dim: p1, order: Dim::ALL, tile: t1 },
        ]);
        mapping.validate(&layer).unwrap();

        let sim = simulate(&layer, &mapping).unwrap();
        let ana = analyze(&layer, &mapping).unwrap();
        // MAC exactness: the schedule covers the iteration space once.
        prop_assert_eq!(sim.macs_executed, layer.macs());
        // Analysis is a safe upper bound on every link and tensor.
        for (s, a) in sim.levels.iter().zip(&ana.levels) {
            prop_assert!(a.traffic.weight >= s.weight);
            prop_assert!(a.traffic.input >= s.input);
            prop_assert!(a.traffic.output_write >= s.output_write);
            prop_assert!(a.traffic.output_read >= s.output_read);
        }
        let report = Evaluator::new(Platform::edge()).evaluate(&layer, &mapping).unwrap();
        prop_assert!(
            report.traffic.len() == sim.levels.len()
                && report.traffic.iter().zip(&sim.levels).all(|(r, s)| {
                    r.weight >= s.weight
                        && r.input >= s.input
                        && r.output_write >= s.output_write
                        && r.output_read >= s.output_read
                })
        );
    }
}

#[test]
fn divisor_strategy_helper_is_sound() {
    // Keep the helper honest (it is used to build divisible mappings).
    use proptest::strategy::{Strategy as _, ValueTree};
    use proptest::test_runner::TestRunner;
    let mut runner = TestRunner::default();
    for _ in 0..50 {
        let v = divisor_of(24).new_tree(&mut runner).unwrap().current();
        assert_eq!(24 % v, 0);
    }
}
