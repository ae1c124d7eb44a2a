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
//!   under a selectable [`EvictionPolicy`], so a long-running service
//!   cannot grow without bound. FIFO keeps the hot path a single
//!   `HashMap` probe; LRU pays one recency-queue push per hit to keep
//!   long-lived hot keys (template seeds, co-tenant models) resident
//!   through churn. The queue test
//!   `lru_keeps_a_recurring_spec_resident_through_churn` asserts the
//!   difference on a multi-model batch.
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

/// How a shard evicts once it exceeds its capacity share.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvictionPolicy {
    /// Evict in insertion order. Cheapest: lookups never write.
    #[default]
    Fifo,
    /// Evict the least-recently-used entry. Hits refresh recency (one
    /// lazy queue push per hit), so keys that stay hot across jobs
    /// survive churn from one-off requests (asserted by the queue test
    /// `lru_keeps_a_recurring_spec_resident_through_churn`).
    Lru,
}

impl EvictionPolicy {
    /// Parses a manifest/CLI spelling (`fifo` or `lru`).
    pub fn parse(s: &str) -> Option<EvictionPolicy> {
        match s.trim().to_ascii_lowercase().as_str() {
            "fifo" => Some(EvictionPolicy::Fifo),
            "lru" => Some(EvictionPolicy::Lru),
            _ => None,
        }
    }
}

impl fmt::Display for EvictionPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvictionPolicy::Fifo => f.write_str("fifo"),
            EvictionPolicy::Lru => f.write_str("lru"),
        }
    }
}

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
    /// Tick of the last ordering-relevant touch (insertion; plus hits
    /// under LRU). The order queue pairs carrying an older tick for this
    /// key are stale.
    touched: u64,
    /// Tick of the insertion. Only a disk spill reads it, to find the
    /// entries inserted after its shard's watermark.
    inserted: u64,
}

#[derive(Debug)]
struct Shard<V> {
    map: HashMap<u64, Entry<V>>,
    /// `(tick, key)` pairs in tick order. A pair is live only while the
    /// entry's `touched` still equals its tick; stale pairs are skipped
    /// lazily at eviction and swept by [`Shard::compact`].
    order: VecDeque<(u64, u64)>,
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
    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Refreshes `key`'s recency (the LRU hit path).
    fn touch(&mut self, key: u64) {
        let tick = self.next_tick();
        if let Some(entry) = self.map.get_mut(&key) {
            entry.touched = tick;
            self.order.push_back((tick, key));
        }
        // Hits never evict, so the lazy queue needs an occasional sweep
        // to stay proportional to the resident set.
        if self.order.len() > 2 * self.map.len() + 64 {
            self.compact();
        }
    }

    /// Drops stale `(tick, key)` pairs, keeping live ones in tick order.
    fn compact(&mut self) {
        let map = &self.map;
        self.order.retain(|&(tick, key)| map.get(&key).is_some_and(|e| e.touched == tick));
    }

    /// Evicts oldest-live-tick entries until at most `capacity` remain;
    /// returns how many were dropped.
    fn evict_to(&mut self, capacity: usize) -> u64 {
        let mut evicted = 0u64;
        while self.map.len() > capacity {
            let Some((tick, key)) = self.order.pop_front() else { break };
            if self.map.get(&key).is_some_and(|e| e.touched == tick) {
                self.map.remove(&key);
                evicted += 1;
            }
        }
        evicted
    }
}

/// The value-generic sharded memo behind both memo layers (see the
/// module docs): a fixed set of independently locked shards, each
/// bounded to its capacity share under the selected [`EvictionPolicy`].
#[derive(Debug)]
pub struct ShardedMemo<V> {
    shards: Vec<Mutex<Shard<V>>>,
    shard_capacity: usize,
    policy: EvictionPolicy,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

/// The shared per-layer fitness memo: [`CostReport`]s keyed by
/// [`digamma_costmodel::Evaluator::cache_key`].
pub type ShardedFitnessCache = ShardedMemo<Arc<CostReport>>;

/// The shared whole-genome memo: [`DesignEvaluation`]s keyed by
/// [`digamma::CoOptProblem::genome_key`].
pub type ShardedGenomeMemo = ShardedMemo<Arc<DesignEvaluation>>;

/// Default shard count: enough that a worker pool on a big machine
/// rarely collides, small enough that an empty cache stays tiny.
const DEFAULT_SHARDS: usize = 64;

impl<V: Clone> ShardedMemo<V> {
    /// Creates a FIFO-evicting memo bounded to roughly `capacity`
    /// entries total, with the default shard count.
    pub fn new(capacity: usize) -> ShardedMemo<V> {
        ShardedMemo::with_shards_and_policy(capacity, DEFAULT_SHARDS, EvictionPolicy::Fifo)
    }

    /// Creates a memo with the given eviction policy and the default
    /// shard count.
    pub fn with_policy(capacity: usize, policy: EvictionPolicy) -> ShardedMemo<V> {
        ShardedMemo::with_shards_and_policy(capacity, DEFAULT_SHARDS, policy)
    }

    /// Creates a FIFO memo with an explicit shard count.
    pub fn with_shards(capacity: usize, shards: usize) -> ShardedMemo<V> {
        ShardedMemo::with_shards_and_policy(capacity, shards, EvictionPolicy::Fifo)
    }

    /// The fully-explicit constructor. The shard count is rounded up to
    /// a power of two (minimum 1); total capacity splits evenly across
    /// shards, each holding at least one entry.
    pub fn with_shards_and_policy(
        capacity: usize,
        shards: usize,
        policy: EvictionPolicy,
    ) -> ShardedMemo<V> {
        let shards = shards.max(1).next_power_of_two();
        let shard_capacity = capacity.div_ceil(shards).max(1);
        ShardedMemo {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            shard_capacity,
            policy,
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

    /// The active eviction policy.
    pub fn policy(&self) -> EvictionPolicy {
        self.policy
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
    /// `all` (a fresh base) — with the mark that records them as
    /// written. Entries inserted after a shard was read stay unspilled.
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
        (out, SpillMark(ticks))
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
        let found = shard.map.get(&key).map(|e| e.value.clone());
        if found.is_some() && self.policy == EvictionPolicy::Lru {
            shard.touch(key);
        }
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
        // re-store refreshes the value without a new order-queue pair
        // (the existing tick stays authoritative).
        if let Some(entry) = shard.map.get_mut(&key) {
            entry.value = value;
            return;
        }
        let tick = shard.next_tick();
        shard.map.insert(key, Entry { value, touched: tick, inserted: tick });
        shard.order.push_back((tick, key));
        let evicted = shard.evict_to(self.shard_capacity);
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

    #[test]
    fn capacity_bound_evicts_oldest_first() {
        // One shard makes the FIFO order observable.
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
        // One shard, capacity 2. Under LRU, touching k1 makes k2 the
        // eviction victim; under FIFO (tested above) k1 would go.
        let cache = ShardedFitnessCache::with_shards_and_policy(2, 1, EvictionPolicy::Lru);
        let (k1, r) = report_for(2, 2);
        let (k2, _) = report_for(4, 2);
        let (k3, _) = report_for(8, 2);
        cache.store(k1, Arc::clone(&r));
        cache.store(k2, Arc::clone(&r));
        assert!(cache.lookup(k1).is_some(), "refreshes k1's recency");
        cache.store(k3, Arc::clone(&r));
        assert!(cache.lookup(k1).is_some(), "recently-used entry survives");
        assert!(cache.lookup(k2).is_none(), "least-recently-used entry evicted");
        assert!(cache.lookup(k3).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn lru_order_queue_stays_bounded() {
        // Hammering one key with hits must not grow the shard's lazy
        // recency queue without bound.
        let cache = ShardedFitnessCache::with_shards_and_policy(4, 1, EvictionPolicy::Lru);
        let (key, report) = report_for(8, 4);
        cache.store(key, Arc::clone(&report));
        for _ in 0..10_000 {
            assert!(cache.lookup(key).is_some());
        }
        let shard = cache.shards[0].lock().unwrap();
        assert!(shard.order.len() <= 2 * shard.map.len() + 65, "queue len {}", shard.order.len());
    }

    #[test]
    fn eviction_policy_parses_and_displays() {
        assert_eq!(EvictionPolicy::parse("LRU"), Some(EvictionPolicy::Lru));
        assert_eq!(EvictionPolicy::parse(" fifo "), Some(EvictionPolicy::Fifo));
        assert_eq!(EvictionPolicy::parse("2q"), None);
        assert_eq!(EvictionPolicy::Lru.to_string(), "lru");
        assert_eq!(ShardedFitnessCache::new(8).policy(), EvictionPolicy::Fifo);
        assert_eq!(
            ShardedFitnessCache::with_policy(8, EvictionPolicy::Lru).policy(),
            EvictionPolicy::Lru
        );
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
        let b = job_memo(&MetricsRegistry::disabled(), &shared);
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
        let evaluation = Arc::new(problem.evaluate(&genome));
        let memo = Arc::new(ShardedGenomeMemo::new(64));
        let view = job_memo(&MetricsRegistry::disabled(), &memo);
        assert!(view.lookup(key).is_none());
        view.store(key, Arc::clone(&evaluation));
        let back = view.lookup(key).expect("stored");
        assert_eq!(*back, *evaluation);
        assert_eq!((view.hits(), view.misses()), (1, 1));
        assert_eq!(memo.stats().insertions, 1);
        assert_eq!(memo.len(), 1);
        assert!(memo.capacity() >= 64);
    }
}
