//! The sharded, capacity-bounded memoization caches.
//!
//! Across a population — and across the many searches a co-design
//! service runs — the same evaluations recur constantly: elites are
//! re-scored every generation, template seeds recur across jobs, and
//! different users ask about the same models. This module memoizes at
//! two granularities with one value-generic type, [`ShardedMemo`]:
//!
//! * [`ShardedFitnessCache`] — per-layer [`CostReport`]s under the
//!   stable key from [`digamma_costmodel::Evaluator::cache_key`]; hits
//!   skip one cost-model call.
//! * [`ShardedGenomeMemo`] — whole-genome [`DesignEvaluation`]s under
//!   [`digamma::CoOptProblem::genome_key`]; hits skip the entire
//!   decode → per-layer loop → aggregate pipeline.
//!
//! Design points (shared by both):
//!
//! * **Sharded** — the key space is split across independently locked
//!   shards, so worker threads hammering the cache contend only when
//!   they collide on a shard, not on every lookup.
//! * **Capacity-bounded** — each shard evicts past its capacity share
//!   by second chance (CLOCK), so a long-running service cannot grow
//!   without bound. A hit sets its entry's `referenced` bit under the
//!   shard lock the probe already holds; eviction pops the oldest key
//!   and, if its bit is set, clears it and re-queues the key once
//!   instead of evicting it. Long-lived hot keys (template seeds,
//!   co-tenant models) stay resident through churn from one-off
//!   requests, which the queue test
//!   `lru_keeps_a_recurring_spec_resident_through_churn` asserts on a
//!   multi-model batch, and each hit buys at most one extra pop.
//! * **Counted** — hits, misses, insertions, and evictions are atomic
//!   counters; a [`JobMemo`] layers one job's counters, its tenant's
//!   probe metrics and a sampled probe-latency histogram over a shared
//!   memo, so every job reports its own reuse.

use digamma::{DesignEvaluation, Memo};
use digamma_costmodel::CostReport;
use digamma_obs::{Counter, Histogram, SampleTick};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A point-in-time view of a cache's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that found a memoized report.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Reports stored (first insertion of a key).
    pub insertions: u64,
    /// Entries dropped to respect the capacity bound.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: u64,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (0 when there were none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug)]
struct Entry<V> {
    value: V,
    /// Set by a hit; cleared when eviction passes the entry over once.
    referenced: bool,
    /// Tick of the insertion. Only a disk spill reads it, to find the
    /// entries inserted after its shard's watermark.
    inserted: u64,
}

#[derive(Debug)]
struct Shard<V> {
    map: HashMap<u64, Entry<V>>,
    /// Every resident key exactly once, oldest at the front.
    order: VecDeque<u64>,
    /// Insertions so far: the newest entry's `inserted` tick.
    tick: u64,
    /// The spill watermark: entries inserted at or before this tick
    /// are already in the spill file.
    spilled: u64,
}

impl<V> Default for Shard<V> {
    fn default() -> Shard<V> {
        Shard { map: HashMap::new(), order: VecDeque::new(), tick: 0, spilled: 0 }
    }
}

impl<V> Shard<V> {
    /// Makes room for one more entry under `capacity` by second chance:
    /// pops the oldest key, re-queues it once with its `referenced` bit
    /// cleared if a hit set it, and otherwise evicts it. Returns how
    /// many entries were evicted. Every pass clears a bit or evicts, and
    /// only a hit (which needs this shard's lock) sets a bit, so the
    /// loop ends.
    fn evict_for_one(&mut self, capacity: usize) -> u64 {
        let mut evicted = 0u64;
        while self.map.len() >= capacity {
            let key = self.order.pop_front().expect("the queue holds every resident key");
            let entry = self.map.get_mut(&key).expect("queued keys are resident");
            if entry.referenced {
                entry.referenced = false;
                self.order.push_back(key);
            } else {
                self.map.remove(&key);
                evicted += 1;
            }
        }
        evicted
    }
}

/// The value-generic sharded memo behind both memo layers (see the
/// module docs): a fixed set of independently locked shards, each
/// bounded to its capacity share by second-chance eviction.
#[derive(Debug)]
pub struct ShardedMemo<V> {
    shards: Vec<Mutex<Shard<V>>>,
    shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

/// The shared per-layer fitness memo: [`CostReport`]s keyed by
/// [`digamma_costmodel::Evaluator::cache_key`].
pub type ShardedFitnessCache = ShardedMemo<Arc<CostReport>>;

/// The shared whole-genome memo: [`DesignEvaluation`]s keyed by
/// [`digamma::CoOptProblem::genome_key`], held by value (they are
/// `Copy`, so a hit copies one).
pub type ShardedGenomeMemo = ShardedMemo<DesignEvaluation>;

/// Default shard count: enough that a worker pool on a big machine
/// rarely collides, small enough that an empty cache stays tiny.
const DEFAULT_SHARDS: usize = 64;

impl<V: Clone> ShardedMemo<V> {
    /// Creates a memo bounded to roughly `capacity` entries total, with
    /// the default shard count.
    pub fn new(capacity: usize) -> ShardedMemo<V> {
        ShardedMemo::with_shards(capacity, DEFAULT_SHARDS)
    }

    /// Creates a memo with an explicit shard count, rounded up to a
    /// power of two (minimum 1); total capacity splits evenly across
    /// shards, each holding at least one entry.
    pub fn with_shards(capacity: usize, shards: usize) -> ShardedMemo<V> {
        let shards = shards.max(1).next_power_of_two();
        let shard_capacity = capacity.div_ceil(shards).max(1);
        ShardedMemo {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            shard_capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: u64) -> &Mutex<Shard<V>> {
        // Fold the high bits in so shard choice isn't just the key's low
        // bits (FNV mixes well, but this is free insurance).
        let mixed = key ^ (key >> 32);
        &self.shards[(mixed as usize) & (self.shards.len() - 1)]
    }

    /// Entries currently resident across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().expect("cache shard poisoned").map.len()).sum()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum resident entries (shard capacity × shard count).
    pub fn capacity(&self) -> usize {
        self.shard_capacity * self.shards.len()
    }

    /// A consistent-enough snapshot of the counters (each counter is
    /// individually exact; the set is not taken under one lock).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.len() as u64,
        }
    }

    /// A point-in-time copy of every resident `(key, value)` pair (shard
    /// by shard: concurrent writers may land between shards).
    pub fn entries(&self) -> Vec<(u64, V)> {
        self.unspilled(true).0
    }

    /// The resident entries a disk spill must write — those inserted
    /// since the last [`ShardedMemo::mark_spilled`], or all of them when
    /// `all` (a fresh base) — sorted by key, with the mark that records
    /// them as written. Entries inserted after a shard was read stay
    /// unspilled. The order does not depend on the maps' per-process
    /// hash seeds, so identical runs write identical files, and a warm
    /// start fills the eviction queues in the same order.
    pub(crate) fn unspilled(&self, all: bool) -> (Vec<(u64, V)>, SpillMark) {
        let mut out = Vec::new();
        let mut ticks = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            let shard = shard.lock().expect("cache shard poisoned");
            let since = if all { 0 } else { shard.spilled };
            let fresh = shard.map.iter().filter(|(_, e)| e.inserted > since);
            out.extend(fresh.map(|(&k, e)| (k, e.value.clone())));
            ticks.push(shard.tick);
        }
        out.sort_unstable_by_key(|&(key, _)| key);
        (out, SpillMark(ticks))
    }

    /// Advances every shard's spill watermark past its newest entry:
    /// everything resident is already in the spill file (warm start).
    pub(crate) fn mark_all_spilled(&self) {
        for shard in &self.shards {
            let mut shard = shard.lock().expect("cache shard poisoned");
            shard.spilled = shard.tick;
        }
    }

    /// Advances each shard's spill watermark to `mark`, once the entries
    /// [`ShardedMemo::unspilled`] returned with it are durable.
    pub(crate) fn mark_spilled(&self, mark: &SpillMark) {
        for (shard, &tick) in self.shards.iter().zip(&mark.0) {
            let mut shard = shard.lock().expect("cache shard poisoned");
            shard.spilled = shard.spilled.max(tick);
        }
    }
}

/// Per-shard ticks up to which a spill read a [`ShardedMemo`]; see
/// [`ShardedMemo::unspilled`].
#[derive(Debug)]
pub(crate) struct SpillMark(Vec<u64>);

impl<V: Clone + fmt::Debug + Send + Sync> Memo<V> for ShardedMemo<V> {
    fn lookup(&self, key: u64) -> Option<V> {
        let mut shard = self.shard(key).lock().expect("cache shard poisoned");
        let found = shard.map.get_mut(&key).map(|entry| {
            entry.referenced = true;
            entry.value.clone()
        });
        drop(shard);
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    fn store(&self, key: u64, value: V) {
        let mut shard = self.shard(key).lock().expect("cache shard poisoned");
        // Two workers may race to evaluate the same key; the racing
        // re-store refreshes the value and keeps the key's queue place.
        if let Some(entry) = shard.map.get_mut(&key) {
            entry.value = value;
            return;
        }
        // Room first, so the newcomer is never its own victim.
        let evicted = shard.evict_for_one(self.shard_capacity);
        shard.tick += 1;
        let inserted = shard.tick;
        shard.map.insert(key, Entry { value, referenced: false, inserted });
        shard.order.push_back(key);
        drop(shard);
        self.insertions.fetch_add(1, Ordering::Relaxed);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }
}

/// Probe latency is sampled 1-in-N: a sharded-map probe is tens of
/// nanoseconds, so timing every one would cost more than the probe.
const PROBE_LATENCY_SAMPLE_EVERY: u64 = 16;

/// One job's window onto a shared [`ShardedMemo`].
///
/// Lookups and stores delegate to the shared memo, while this job's
/// hits, misses and insertions accumulate locally — so concurrent jobs
/// each report their own reuse even though they share one memo
/// (evictions are a property of the shared memo and are reported
/// there). Every probe also feeds the tenant's hit/miss probe counters,
/// and one probe in 16 is timed into the probe-latency histogram; the
/// server resolves those handles at job start (detached cells when its
/// metrics are off).
#[derive(Debug)]
pub struct JobMemo<V> {
    shared: Arc<ShardedMemo<V>>,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    hit_probes: Counter,
    miss_probes: Counter,
    probe_seconds: Histogram,
    sample: SampleTick,
}

impl<V> JobMemo<V> {
    /// Opens a window over `shared` with zeroed counters, feeding the
    /// given probe counters and probe-latency histogram.
    pub fn new(
        shared: Arc<ShardedMemo<V>>,
        hit_probes: Counter,
        miss_probes: Counter,
        probe_seconds: Histogram,
    ) -> JobMemo<V> {
        JobMemo {
            shared,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            hit_probes,
            miss_probes,
            probe_seconds,
            sample: SampleTick::new(PROBE_LATENCY_SAMPLE_EVERY),
        }
    }

    /// Hits observed through this window.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Misses observed through this window.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Store calls issued through this window. Counts *attempts* (the
    /// shared memo may coalesce a racing duplicate), which is the right
    /// attribution for per-tenant partitioning: it measures how much
    /// memo space this job's work demanded.
    pub fn insertions(&self) -> u64 {
        self.insertions.load(Ordering::Relaxed)
    }
}

impl<V: Clone + fmt::Debug + Send + Sync> Memo<V> for JobMemo<V> {
    fn lookup(&self, key: u64) -> Option<V> {
        let found = if self.sample.due() {
            let started = Instant::now();
            let found = self.shared.lookup(key);
            self.probe_seconds.observe_duration(started.elapsed());
            found
        } else {
            self.shared.lookup(key)
        };
        let (local, probes) = match &found {
            Some(_) => (&self.hits, &self.hit_probes),
            None => (&self.misses, &self.miss_probes),
        };
        local.fetch_add(1, Ordering::Relaxed);
        probes.inc();
        found
    }

    fn store(&self, key: u64, value: V) {
        self.insertions.fetch_add(1, Ordering::Relaxed);
        self.shared.store(key, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use digamma::{CoOptProblem, Objective};
    use digamma_costmodel::{Evaluator, Mapping, Platform};
    use digamma_obs::{MetricsRegistry, DEFAULT_LATENCY_BUCKETS};
    use digamma_workload::{zoo, Layer};

    /// A job window whose probes feed `registry` under test labels.
    fn job_memo<V>(registry: &MetricsRegistry, shared: &Arc<ShardedMemo<V>>) -> JobMemo<V> {
        let probes =
            |result| registry.counter("probes_total", "Probes by result.", &[("result", result)]);
        let seconds = registry.histogram("probe_seconds", "Probes.", &[], DEFAULT_LATENCY_BUCKETS);
        JobMemo::new(Arc::clone(shared), probes("hit"), probes("miss"), seconds)
    }

    fn report_for(rows: u64, cols: u64) -> (u64, Arc<CostReport>) {
        let layer = Layer::conv("l", 64, 32, 16, 16, 3, 3, 1);
        let mapping = Mapping::row_major_example(&layer, rows, cols);
        let eval = Evaluator::new(Platform::edge());
        (eval.cache_key(&layer, &mapping), Arc::new(eval.evaluate(&layer, &mapping).unwrap()))
    }

    #[test]
    fn lookup_returns_exactly_what_was_stored() {
        let cache = ShardedFitnessCache::new(100);
        let (key, report) = report_for(8, 4);
        assert!(cache.lookup(key).is_none());
        cache.store(key, Arc::clone(&report));
        let back = cache.lookup(key).expect("stored");
        assert_eq!(back.latency_cycles.to_bits(), report.latency_cycles.to_bits());
        assert_eq!(back.energy_pj.to_bits(), report.energy_pj.to_bits());
        assert_eq!(back.buffers, report.buffers);
        assert_eq!(back.hw, report.hw);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    /// Whether `key` is resident, without the hit a lookup records.
    fn resident<V: Clone>(memo: &ShardedMemo<V>, key: u64) -> bool {
        memo.shard(key).lock().unwrap().map.contains_key(&key)
    }

    #[test]
    fn capacity_bound_evicts_oldest_first() {
        // Without hits, eviction follows insertion order; one shard
        // makes that order observable.
        let cache = ShardedFitnessCache::with_shards(2, 1);
        let (k1, r) = report_for(2, 2);
        let (k2, _) = report_for(4, 2);
        let (k3, _) = report_for(8, 2);
        cache.store(k1, Arc::clone(&r));
        cache.store(k2, Arc::clone(&r));
        cache.store(k3, Arc::clone(&r));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.lookup(k1).is_none(), "oldest entry must be gone");
        assert!(cache.lookup(k2).is_some());
        assert!(cache.lookup(k3).is_some());
    }

    #[test]
    fn lru_keeps_recently_used_entries() {
        // One shard, capacity 2. The hit on k1 buys it a second chance,
        // so k2 is the eviction victim; without the hit k1 would go
        // (tested above).
        let cache = ShardedFitnessCache::with_shards(2, 1);
        let (k1, r) = report_for(2, 2);
        let (k2, _) = report_for(4, 2);
        let (k3, _) = report_for(8, 2);
        cache.store(k1, Arc::clone(&r));
        cache.store(k2, Arc::clone(&r));
        assert!(cache.lookup(k1).is_some(), "sets k1's referenced bit");
        cache.store(k3, Arc::clone(&r));
        assert!(cache.lookup(k1).is_some(), "recently-used entry survives");
        assert!(cache.lookup(k2).is_none(), "unreferenced entry evicted");
        assert!(cache.lookup(k3).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn lru_order_queue_stays_bounded() {
        // Hits never push onto the order queue, and evictions take keys
        // off it: it stays exactly the resident set.
        let cache = ShardedMemo::<u64>::with_shards(4, 1);
        for key in 0..64 {
            cache.store(key, key);
            for _ in 0..200 {
                assert_eq!(cache.lookup(key), Some(key));
            }
        }
        let shard = cache.shards[0].lock().unwrap();
        assert_eq!(shard.map.len(), 4);
        assert_eq!(shard.order.len(), shard.map.len(), "queue {:?}", shard.order);
        assert!(shard.order.iter().all(|key| shard.map.contains_key(key)));
    }

    #[test]
    fn a_store_into_a_fully_referenced_shard_evicts_only_the_oldest() {
        // Every resident entry was hit: eviction must clear each bit
        // once and come round to the oldest entry, neither spinning on
        // the bits nor taking the newcomer.
        const CAPACITY: u64 = 4;
        let memo = Arc::new(ShardedMemo::<u64>::with_shards(CAPACITY as usize, 1));
        for key in 0..CAPACITY {
            memo.store(key, key);
        }
        for key in 0..CAPACITY {
            assert_eq!(memo.lookup(key), Some(key));
        }
        let (returned, stored) = std::sync::mpsc::channel();
        let writer = Arc::clone(&memo);
        let store = std::thread::spawn(move || {
            writer.store(CAPACITY, CAPACITY);
            returned.send(()).expect("the test waits for the store");
        });
        stored.recv_timeout(std::time::Duration::from_secs(10)).expect("the store must return");
        store.join().expect("the store must not panic");
        assert_eq!(memo.stats().evictions, 1);
        assert!(!resident(&memo, 0), "the oldest entry goes");
        assert!((1..=CAPACITY).all(|key| resident(&memo, key)));
        // The pass cleared every bit, so the next store takes the next
        // oldest entry at once.
        memo.store(CAPACITY + 1, CAPACITY + 1);
        assert!(!resident(&memo, 1));
        assert_eq!(memo.stats().evictions, 2);
    }

    #[test]
    fn a_single_hit_cannot_pin_an_entry() {
        const CAPACITY: u64 = 4;
        let memo = ShardedMemo::<u64>::with_shards(CAPACITY as usize, 1);
        for key in 0..CAPACITY {
            memo.store(key, key);
        }
        assert_eq!(memo.lookup(0), Some(0));
        memo.store(CAPACITY, CAPACITY);
        assert!(resident(&memo, 0), "the hit bought the oldest entry a second chance");
        assert!(!resident(&memo, 1), "the next oldest went instead");
        // Never hit again, the entry is evicted within two passes of
        // the queue.
        for key in CAPACITY + 1..=3 * CAPACITY {
            memo.store(key, key);
        }
        assert!(!resident(&memo, 0), "one hit must not keep an entry forever");
    }

    #[test]
    fn double_store_does_not_duplicate() {
        let cache = ShardedFitnessCache::with_shards(4, 1);
        let (key, report) = report_for(8, 4);
        cache.store(key, Arc::clone(&report));
        cache.store(key, Arc::clone(&report));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().insertions, 1);
    }

    #[test]
    fn job_memos_count_independently_and_feed_probe_metrics() {
        let registry = MetricsRegistry::new();
        let shared = Arc::new(ShardedFitnessCache::new(100));
        let a = job_memo(&registry, &shared);
        let b = job_memo(&MetricsRegistry::new(), &shared);
        let (key, report) = report_for(8, 4);
        assert!(a.lookup(key).is_none());
        a.store(key, Arc::clone(&report));
        assert!(a.lookup(key).is_some(), "store must delegate to the shared memo");
        assert!(b.lookup(key).is_some(), "windows share the underlying memo");
        assert_eq!((a.hits(), a.misses(), a.insertions()), (1, 1, 1));
        assert_eq!((b.hits(), b.misses(), b.insertions()), (1, 0, 0));
        assert_eq!(shared.stats().hits, 2);
        let text = registry.render();
        assert!(text.contains("probes_total{result=\"hit\"} 1"), "{text}");
        assert!(text.contains("probes_total{result=\"miss\"} 1"), "{text}");
        assert!(text.contains("probe_seconds_count 1"), "first probe is sampled: {text}");
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        let cache = ShardedFitnessCache::with_shards(100, 3);
        assert_eq!(cache.shards.len(), 4);
        assert!(cache.capacity() >= 100);
        assert!(ShardedFitnessCache::with_shards(10, 0).capacity() >= 10);
    }

    #[test]
    fn entries_snapshot_round_trips_through_a_fresh_cache() {
        let cache = ShardedFitnessCache::new(100);
        let pairs: Vec<_> = [(2, 2), (4, 2), (8, 4)].map(|(r, c)| report_for(r, c)).into();
        for (key, report) in &pairs {
            cache.store(*key, Arc::clone(report));
        }
        let mut exported = cache.entries();
        assert_eq!(exported.len(), pairs.len());
        // Re-import into a fresh cache: lookups serve identical reports.
        let fresh = ShardedFitnessCache::new(100);
        exported.sort_by_key(|(k, _)| *k);
        for (key, report) in &exported {
            fresh.store(*key, Arc::clone(report));
        }
        for (key, report) in &pairs {
            let back = fresh.lookup(*key).expect("re-imported");
            assert_eq!(back.latency_cycles.to_bits(), report.latency_cycles.to_bits());
        }
    }

    #[test]
    fn genome_memo_shares_machinery_and_counts() {
        let problem = CoOptProblem::new(zoo::ncf(), Platform::edge(), Objective::Latency);
        let mut rng = {
            use rand::SeedableRng;
            rand::rngs::SmallRng::seed_from_u64(3)
        };
        let genome = digamma_encoding::Genome::random(
            &mut rng,
            problem.unique_layers(),
            problem.platform(),
            2,
        );
        let key = problem.genome_key(&genome);
        let evaluation = problem.evaluate(&genome);
        let memo = Arc::new(ShardedGenomeMemo::new(64));
        let view = job_memo(&MetricsRegistry::new(), &memo);
        assert!(view.lookup(key).is_none());
        view.store(key, evaluation);
        let back = view.lookup(key).expect("stored");
        assert_eq!(back, evaluation);
        assert_eq!((view.hits(), view.misses()), (1, 1));
        assert_eq!(memo.stats().insertions, 1);
        assert_eq!(memo.len(), 1);
        assert!(memo.capacity() >= 64);
    }
}
