//! Search analytics: per-generation GA telemetry and operator
//! attribution.
//!
//! The search core computes one [`GenStats`] record at every generation
//! boundary and tags every child with the operator that produced it, so
//! each operator family accumulates an [`OpCounter`] (attempted /
//! improved-on-parent / produced-new-incumbent). This module holds the
//! plain data types, the bounded per-job ring the server keeps, and the
//! JSON renderer behind the `/jobs/{id}/analytics` endpoint that
//! `digamma-netc top` reads back through [`crate::parse_json`].
//!
//! Everything here is computed from *already-evaluated* data and
//! consumes zero RNG draws: a search runs bit-identically with
//! analytics on or off (the determinism suite and the perf harness's
//! `analytics` section both enforce this).

use crate::json::{json_num, json_str};
use std::collections::VecDeque;
use std::fmt;

/// The operator families a child can be attributed to.
///
/// `HwForced` is a Mutate-HW draw whose hardware genes were immediately
/// overwritten by a fixed-HW constraint — the mutation fired but could
/// not express, which is worth counting separately from a real
/// hardware move.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Elite carried over unchanged.
    Elite,
    /// Two-parent crossover child.
    Crossover,
    /// Mapping mutation (tiling / parallelism / loop order).
    MutateMap,
    /// PE-array mutation.
    MutateHw,
    /// Cluster-level grow/aging move.
    GrowAge,
    /// Random immigrant (diversity trickle).
    Immigrant,
    /// Mutate-HW nullified by a fixed-HW constraint.
    HwForced,
}

impl OpKind {
    /// Every operator family, in render order. The set is closed — it is
    /// what bounds the `{operator}` label cardinality in `/metrics`.
    pub const ALL: [OpKind; 7] = [
        OpKind::Elite,
        OpKind::Crossover,
        OpKind::MutateMap,
        OpKind::MutateHw,
        OpKind::GrowAge,
        OpKind::Immigrant,
        OpKind::HwForced,
    ];

    /// The stable wire name (used as the JSON key and the metric label).
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Elite => "elite",
            OpKind::Crossover => "crossover",
            OpKind::MutateMap => "mutate_map",
            OpKind::MutateHw => "mutate_hw",
            OpKind::GrowAge => "grow_age",
            OpKind::Immigrant => "immigrant",
            OpKind::HwForced => "hw_forced",
        }
    }

    /// The inverse of [`OpKind::name`].
    pub fn from_name(name: &str) -> Option<OpKind> {
        OpKind::ALL.into_iter().find(|k| k.name() == name)
    }

    fn index(self) -> usize {
        OpKind::ALL.iter().position(|&k| k == self).expect("OpKind::ALL is exhaustive")
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Cumulative attribution for one operator family.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounter {
    /// Children this operator produced.
    pub attempted: u64,
    /// Children that beat their reference (parent / incumbent / median).
    pub improved: u64,
    /// Children that became the new global incumbent.
    pub incumbents: u64,
}

/// Cumulative [`OpCounter`]s for every operator family.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounters {
    counters: [OpCounter; 7],
}

impl OpCounters {
    /// All-zero counters.
    pub fn new() -> OpCounters {
        OpCounters::default()
    }

    /// The counter for one operator family.
    pub fn get(&self, kind: OpKind) -> OpCounter {
        self.counters[kind.index()]
    }

    /// Mutable access to one operator family's counter.
    pub fn get_mut(&mut self, kind: OpKind) -> &mut OpCounter {
        &mut self.counters[kind.index()]
    }

    /// `(kind, counter)` pairs in [`OpKind::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = (OpKind, OpCounter)> + '_ {
        OpKind::ALL.into_iter().map(move |k| (k, self.counters[k.index()]))
    }

    /// Total children attributed across every family.
    pub fn total_attempted(&self) -> u64 {
        self.counters.iter().map(|c| c.attempted).sum()
    }

    /// Total new incumbents across every family.
    pub fn total_incumbents(&self) -> u64 {
        self.counters.iter().map(|c| c.incumbents).sum()
    }

    /// Adds another set of counters member-wise.
    pub fn merge(&mut self, other: &OpCounters) {
        for (mine, theirs) in self.counters.iter_mut().zip(&other.counters) {
            mine.attempted += theirs.attempted;
            mine.improved += theirs.improved;
            mine.incumbents += theirs.incumbents;
        }
    }
}

/// One generation boundary's telemetry, computed from the freshly
/// evaluated children (never from extra evaluations or RNG draws).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenStats {
    /// Generation this record describes (1 = first stepped generation).
    pub generation: u64,
    /// Cumulative design-point evaluations after this generation.
    pub evals: u64,
    /// Best-so-far cost (`INFINITY` until a feasible design exists).
    pub best: f64,
    /// Median cost of this generation's children.
    pub median: f64,
    /// Mean cost of this generation's children.
    pub mean: f64,
    /// Worst cost of this generation's children.
    pub worst: f64,
    /// Fraction of this generation's children that are feasible.
    pub feasible_frac: f64,
    /// Genotypic diversity: mean normalized gene distance over a
    /// deterministic population sample, in `[0, 1]`. Refreshed on a
    /// fixed generation stride (diversity drifts slowly, and the
    /// analytics path holds a ≤1% overhead budget); in-between
    /// generations carry the previous value forward.
    pub diversity: f64,
    /// Generations since the incumbent last improved (0 = improved in
    /// this generation).
    pub stale_gens: u64,
}

/// One `(generation, cumulative evals, best cost)` sample — the data a
/// cost-vs-evaluations convergence plot needs (cost-vs-generation alone
/// hides how many evaluations each generation spent).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostPoint {
    /// Generation the sample was taken at (0 = initial population).
    pub generation: u64,
    /// Cumulative evaluations consumed up to and including it.
    pub evals: u64,
    /// Best-so-far cost at that point.
    pub best: f64,
}

/// A bounded ring of [`GenStats`] — the per-job window the server keeps
/// in memory. Pushing past the capacity drops the oldest record;
/// `total` keeps counting so consumers can tell a short search from a
/// wrapped window.
#[derive(Debug, Clone)]
pub struct AnalyticsRing {
    ring: VecDeque<GenStats>,
    capacity: usize,
    total: u64,
}

impl AnalyticsRing {
    /// A ring holding at most `capacity` records (floored at 1). It
    /// reserves nothing up front and grows with the records pushed, so a
    /// queued or short job costs only what it recorded.
    pub fn new(capacity: usize) -> AnalyticsRing {
        AnalyticsRing { ring: VecDeque::new(), capacity: capacity.max(1), total: 0 }
    }

    /// Appends a record, evicting the oldest when full.
    pub fn push(&mut self, stats: GenStats) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(stats);
        self.total += 1;
    }

    /// Records currently held, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &GenStats> {
        self.ring.iter()
    }

    /// The most recent record, if any.
    pub fn latest(&self) -> Option<&GenStats> {
        self.ring.back()
    }

    /// Records currently held.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the ring holds no records.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Records pushed over the ring's lifetime (≥ `len`).
    pub fn total(&self) -> u64 {
        self.total
    }
}

/// Renders one job's analytics document: the ring window, the
/// cumulative operator attribution, and the cost-vs-evaluations curve.
/// This is exactly what `GET /jobs/{id}/analytics` serves.
pub fn render_analytics_json(
    job_id: u64,
    ring: &AnalyticsRing,
    ops: &OpCounters,
    points: &[CostPoint],
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"job\": {job_id},\n"));
    let (generation, evals, best) = match ring.latest() {
        Some(s) => (s.generation, s.evals, s.best),
        None => (0, 0, f64::INFINITY),
    };
    out.push_str(&format!("  \"generation\": {generation},\n"));
    out.push_str(&format!("  \"evals\": {evals},\n"));
    out.push_str(&format!("  \"best\": {},\n", json_num(best)));
    out.push_str(&format!("  \"window_total\": {},\n", ring.total()));
    out.push_str("  \"generations\": [\n");
    let len = ring.len();
    for (i, s) in ring.iter().enumerate() {
        out.push_str("    {");
        out.push_str(&format!("\"generation\": {}, ", s.generation));
        out.push_str(&format!("\"evals\": {}, ", s.evals));
        out.push_str(&format!("\"best\": {}, ", json_num(s.best)));
        out.push_str(&format!("\"median\": {}, ", json_num(s.median)));
        out.push_str(&format!("\"mean\": {}, ", json_num(s.mean)));
        out.push_str(&format!("\"worst\": {}, ", json_num(s.worst)));
        out.push_str(&format!("\"feasible_frac\": {}, ", json_num(s.feasible_frac)));
        out.push_str(&format!("\"diversity\": {}, ", json_num(s.diversity)));
        out.push_str(&format!("\"stale_gens\": {}", s.stale_gens));
        out.push_str(if i + 1 < len { "},\n" } else { "}\n" });
    }
    out.push_str("  ],\n");
    out.push_str("  \"operators\": [\n");
    for (i, (kind, c)) in ops.iter().enumerate() {
        out.push_str("    {");
        out.push_str(&format!("\"operator\": {}, ", json_str(kind.name())));
        out.push_str(&format!("\"attempted\": {}, ", c.attempted));
        out.push_str(&format!("\"improved\": {}, ", c.improved));
        out.push_str(&format!("\"incumbents\": {}", c.incumbents));
        out.push_str(if i + 1 < OpKind::ALL.len() { "},\n" } else { "}\n" });
    }
    out.push_str("  ],\n");
    out.push_str("  \"cost_points\": [\n");
    for (i, p) in points.iter().enumerate() {
        out.push_str("    {");
        out.push_str(&format!("\"generation\": {}, ", p.generation));
        out.push_str(&format!("\"evals\": {}, ", p.evals));
        out.push_str(&format!("\"best\": {}", json_num(p.best)));
        out.push_str(if i + 1 < points.len() { "},\n" } else { "}\n" });
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse_json, JsonValue};

    fn stats(generation: u64) -> GenStats {
        GenStats {
            generation,
            evals: generation * 16,
            best: 100.0 / (generation + 1) as f64,
            median: 120.0,
            mean: 130.0,
            worst: 900.0,
            feasible_frac: 0.75,
            diversity: 0.42,
            stale_gens: 0,
        }
    }

    #[test]
    fn ring_bounds_memory_and_keeps_totals() {
        let mut ring = AnalyticsRing::new(4);
        for g in 1..=10 {
            ring.push(stats(g));
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.total(), 10);
        let gens: Vec<u64> = ring.iter().map(|s| s.generation).collect();
        assert_eq!(gens, vec![7, 8, 9, 10], "oldest records evict first");
        assert_eq!(ring.latest().unwrap().generation, 10);
    }

    #[test]
    fn rings_reserve_nothing_until_records_arrive() {
        let mut ring = AnalyticsRing::new(512);
        assert_eq!(ring.ring.capacity(), 0, "a queued job's ring costs no slots");
        for g in 1..=3 {
            ring.push(stats(g));
        }
        assert!(ring.ring.capacity() < 256, "grows with use: {}", ring.ring.capacity());
    }

    #[test]
    fn rendered_analytics_roundtrip_through_the_parser() {
        let mut ring = AnalyticsRing::new(8);
        ring.push(stats(1));
        ring.push(stats(2));
        let mut ops = OpCounters::new();
        ops.get_mut(OpKind::Crossover).attempted = 9;
        ops.get_mut(OpKind::Crossover).improved = 4;
        ops.get_mut(OpKind::Crossover).incumbents = 1;
        ops.get_mut(OpKind::Immigrant).attempted = 2;
        let points = vec![
            CostPoint { generation: 0, evals: 16, best: f64::INFINITY },
            CostPoint { generation: 1, evals: 32, best: 50.0 },
        ];
        let json = render_analytics_json(3, &ring, &ops, &points);
        let doc = parse_json(&json).expect("well-formed");
        assert_eq!(doc.get("job").and_then(JsonValue::as_u64), Some(3));
        assert_eq!(doc.get("generation").and_then(JsonValue::as_u64), Some(2));
        let gens = doc.get("generations").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(gens.len(), 2);
        assert_eq!(gens[1].get("generation").and_then(JsonValue::as_u64), Some(2));
        assert_eq!(gens[0].get("diversity").and_then(JsonValue::as_num), Some(0.42));
        let operators = doc.get("operators").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(operators.len(), OpKind::ALL.len());
        let crossover = operators
            .iter()
            .find(|o| o.get("operator").and_then(JsonValue::as_str) == Some("crossover"))
            .unwrap();
        assert_eq!(crossover.get("attempted").and_then(JsonValue::as_u64), Some(9));
        // The infeasible-era point renders as null and reads back as such.
        let points = doc.get("cost_points").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(points[0].get("best"), Some(&JsonValue::Null));
        assert_eq!(points[1].get("best").and_then(JsonValue::as_num), Some(50.0));
    }

    #[test]
    fn op_names_roundtrip_and_stay_bounded() {
        for kind in OpKind::ALL {
            assert_eq!(OpKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(OpKind::from_name("mystery"), None);
        assert_eq!(OpKind::ALL.len(), 7, "the metric label set is closed");
    }

    #[test]
    fn counters_merge_and_total() {
        let mut a = OpCounters::new();
        a.get_mut(OpKind::Elite).attempted = 3;
        a.get_mut(OpKind::MutateMap).incumbents = 2;
        let mut b = OpCounters::new();
        b.get_mut(OpKind::Elite).attempted = 4;
        b.get_mut(OpKind::Elite).improved = 1;
        a.merge(&b);
        assert_eq!(a.get(OpKind::Elite).attempted, 7);
        assert_eq!(a.get(OpKind::Elite).improved, 1);
        assert_eq!(a.total_attempted(), 7);
        assert_eq!(a.total_incumbents(), 2);
    }
}
