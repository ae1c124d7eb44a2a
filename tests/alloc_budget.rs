//! Allocation budget of the search step: a counting global allocator
//! around seeded `DiGamma::search`es shaped like the benchmark's
//! `search` workload (vgg16, mnasnet and bert on the edge platform,
//! population 60, budget 1200, one evaluation thread).
//!
//! Every per-level field of mappings, hardware, buffer needs and cost
//! reports is an inline `Levels`, so scoring a sample allocates little
//! more than what its batch keeps: a genome's layer list and its
//! per-layer costs. Run it with `cargo test --test alloc_budget --
//! --nocapture` to see the count.

use digamma_repro::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocations (a `realloc` counts as one) and bytes requested, over
/// every thread of this test binary.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting each allocation it serves.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are atomics and
// never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's guarantees on `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout`, and the
        // caller's guarantees on `new_size` pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Five times below the 44.6 allocations per sample the same searches
/// made with `Vec` level fields.
const MAX_ALLOCATIONS_PER_SAMPLE: f64 = 8.9;

#[test]
fn a_search_step_stays_within_its_allocation_budget() {
    let (mut allocations, mut bytes, mut samples) = (0u64, 0u64, 0usize);
    for model in [zoo::vgg16(), zoo::mnasnet(), zoo::bert()] {
        let problem = CoOptProblem::new(model, Platform::edge(), Objective::Latency);
        for seed in [1, 2] {
            let ga = DiGamma::new(DiGammaConfig {
                population_size: 60,
                seed,
                threads: 1,
                ..Default::default()
            });
            let (allocations_before, bytes_before) =
                (ALLOCATIONS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
            let result = ga.search(&problem, 1200);
            allocations += ALLOCATIONS.load(Ordering::Relaxed) - allocations_before;
            bytes += BYTES.load(Ordering::Relaxed) - bytes_before;
            assert!(result.best.is_some(), "seed {seed} finds a feasible design");
            samples += result.samples;
        }
    }
    let per_sample = allocations as f64 / samples as f64;
    println!(
        "{per_sample:.2} allocations and {:.0} bytes per sample over {samples} samples",
        bytes as f64 / samples as f64
    );
    assert!(
        per_sample <= MAX_ALLOCATIONS_PER_SAMPLE,
        "{per_sample:.2} allocations per sample, budget {MAX_ALLOCATIONS_PER_SAMPLE}"
    );
}
