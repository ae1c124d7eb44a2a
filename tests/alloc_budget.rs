//! Allocation budgets under a counting global allocator: of the search
//! step, around seeded `DiGamma::search`es shaped like the benchmark's
//! `search` workload (vgg16, mnasnet and bert on the edge platform,
//! population 60, budget 1200, one evaluation thread), and of the
//! fitness-memo file codec, around a spill of over a thousand distinct
//! records rendered and parsed back.
//!
//! Every per-level field of mappings, hardware, buffer needs and cost
//! reports is an inline `Levels`, so scoring a sample allocates little
//! more than what its batch keeps: a genome's layer list and its
//! per-layer costs. The codec renders every record into one buffer and
//! gives each parsed record one field list. Run it with `cargo test
//! --test alloc_budget -- --nocapture` to see the counts.

use digamma_repro::prelude::*;
use digamma_repro::server::cachefile::{parse_cache_file, render_cache_file};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

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

/// Held by each test for its whole run: the counters see every thread of
/// this binary, so no test may count another's allocations.
static SERIAL: Mutex<()> = Mutex::new(());

/// Five times below the 44.6 allocations per sample the same searches
/// made with `Vec` level fields.
const MAX_ALLOCATIONS_PER_SAMPLE: f64 = 8.9;

/// A record rendered through an owned `Section` made 72.4 allocations.
const MAX_RENDER_ALLOCATIONS_PER_RECORD: f64 = 0.05;

/// One field list per record; the two-pass reader made 6.1 allocations.
const MAX_PARSE_ALLOCATIONS_PER_RECORD: f64 = 1.1;

/// What `f` returns, and the allocations it made.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = f();
    (result, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

#[test]
fn a_search_step_stays_within_its_allocation_budget() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
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

/// At least `count` memo entries with distinct keys: every unique layer
/// of five models under row-major mappings of many PE-array shapes.
fn distinct_memo_entries(count: usize) -> Vec<(u64, Arc<digamma_repro::costmodel::CostReport>)> {
    let eval = Evaluator::new(Platform::edge());
    let (mut entries, mut keys) = (Vec::new(), HashSet::new());
    let models = [zoo::vgg16(), zoo::mnasnet(), zoo::bert(), zoo::ncf(), zoo::dlrm()];
    for unique in models.iter().flat_map(|model| model.unique_layers()) {
        for (rows, cols) in
            [1, 2, 4, 8, 16, 32].into_iter().flat_map(|r| [1, 3, 8, 24].map(|c| (r, c)))
        {
            let mapping = Mapping::row_major_example(&unique.layer, rows, cols);
            let key = eval.cache_key(&unique.layer, &mapping);
            if let Ok(report) = eval.evaluate(&unique.layer, &mapping) {
                if keys.insert(key) {
                    entries.push((key, Arc::new(report)));
                }
            }
        }
    }
    assert!(entries.len() >= count, "only {} distinct memo entries", entries.len());
    entries
}

#[test]
fn the_memo_file_codec_stays_within_its_allocation_budget() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let entries = distinct_memo_entries(1000);
    let (text, rendering) = counted(|| render_cache_file(&entries));
    let (parsed, parsing) = counted(|| parse_cache_file(&text).expect("a fitness-memo file"));
    let (back, load) = parsed;
    assert_eq!((back.len(), load.loaded, load.skipped), (entries.len(), entries.len(), 0));
    let per_record = |allocations: u64| allocations as f64 / entries.len() as f64;
    let (render, parse) = (per_record(rendering), per_record(parsing));
    println!(
        "{render:.3} allocations per record to render and {parse:.3} to parse, over {} records",
        entries.len()
    );
    assert!(
        render <= MAX_RENDER_ALLOCATIONS_PER_RECORD,
        "{render:.3} allocations per record to render, budget {MAX_RENDER_ALLOCATIONS_PER_RECORD}"
    );
    assert!(
        parse <= MAX_PARSE_ALLOCATIONS_PER_RECORD,
        "{parse:.3} allocations per record to parse, budget {MAX_PARSE_ALLOCATIONS_PER_RECORD}"
    );
}
