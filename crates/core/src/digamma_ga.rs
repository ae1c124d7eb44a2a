//! The DiGamma domain-aware genetic algorithm (paper Sec. IV-C).
//!
//! Instead of perturbing the raw encoding arbitrarily (the stdGA
//! baseline), DiGamma steps through the design space with operators that
//! respect its structure (Fig. 4):
//!
//! | Operator    | Perturbs |
//! |-------------|----------|
//! | Crossover   | tiling, parallelism (and the derived buffers) |
//! | Reorder     | loop order |
//! | Grow/Aging  | clustering (level count), tiling, buffers |
//! | Mutate-Map  | tiling, parallelism, buffers |
//! | Mutate-HW   | PE array size/shape, buffers |
//!
//! Buffer sizes are never genes: after every perturbation the buffer
//! allocation strategy re-derives the exact minimum capacities from the
//! decoded mapping, keeping buffer utilization at 100%.

use crate::problem::{CoOptProblem, Constraint, DesignEvaluation};
use crate::result::{DesignPoint, SearchResult};
use digamma_encoding::{repair, Genome, LevelGenes};
use digamma_obs::{CostPoint, GenStats, OpCounters, OpKind};
use digamma_workload::{Dim, UniqueLayer, NUM_DIMS};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Hyper-parameters of the DiGamma GA.
///
/// Defaults follow the magnitudes the paper's Bayesian-optimization
/// tuning lands on (population ≈ 60, strong elitism, mapping mutations
/// more frequent than hardware mutations); [`crate::tuning`] can re-tune
/// them for a specific problem.
#[derive(Debug, Clone, PartialEq)]
pub struct DiGammaConfig {
    /// Individuals per generation.
    pub population_size: usize,
    /// Fraction of the population surviving unchanged (elitism).
    pub elite_fraction: f64,
    /// Probability a child is produced by two-parent crossover.
    pub crossover_rate: f64,
    /// Probability of a loop-order swap (Reorder operator).
    pub reorder_rate: f64,
    /// Probability of a tiling/parallelism mutation (Mutate-Map).
    pub mutate_map_rate: f64,
    /// Probability of a PE-array mutation (Mutate-HW). Zero disables
    /// hardware search (the GAMMA baseline).
    pub mutate_hw_rate: f64,
    /// Probability of inserting/removing a cluster level (Grow/Aging).
    /// Zero pins the level count.
    pub grow_aging_rate: f64,
    /// Cluster levels of the initial population.
    pub num_levels: usize,
    /// Seed the initial population with template mappings (the manual
    /// styles on the preset hardware flavours) before random fill.
    /// Domain-aware initialization in the same spirit as the operators;
    /// the E5 ablation quantifies its contribution.
    pub template_seeding: bool,
    /// Worker threads for fitness evaluation. Defaults to the machine's
    /// available parallelism; `1` evaluates inline on the caller's
    /// thread. Results are identical for any value (the parallel map
    /// preserves order and evaluation is deterministic), so this only
    /// trades wall-clock for cores.
    pub threads: usize,
    /// Compute per-generation search analytics ([`GenStats`], operator
    /// attribution, cost-vs-evaluations points). Analytics are derived
    /// entirely from already-evaluated data and consume zero RNG draws,
    /// so the search trajectory is bit-identical with this on or off
    /// (the determinism suite and the perf harness's `analytics`
    /// section both enforce it).
    pub analytics: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DiGammaConfig {
    fn default() -> DiGammaConfig {
        DiGammaConfig {
            population_size: 60,
            elite_fraction: 0.10,
            crossover_rate: 0.60,
            // Per-layer rates: with ~L unique layers a child receives
            // ~0.1·L mapping perturbations — enough to move, few enough
            // that a good parent's offspring stay coherent.
            reorder_rate: 0.10,
            mutate_map_rate: 0.10,
            mutate_hw_rate: 0.30,
            grow_aging_rate: 0.05,
            num_levels: 2,
            template_seeding: true,
            threads: crate::parallel::default_threads(),
            analytics: true,
            seed: 0,
        }
    }
}

/// Mid-search GA state: everything [`DiGamma::step`] reads and writes.
///
/// A `SearchState` is only ever observed at a *generation boundary*, and
/// at a boundary it is a pure function of `(config, problem, generation)`
/// — the per-generation RNG is re-derived from the seed and the
/// generation counter, never carried across generations. That invariant
/// is what makes text checkpoints possible: a snapshot needs only the
/// population genomes, the best-so-far genome, the history, and two
/// counters, and a restored search replays the exact byte-for-byte
/// trajectory of an uninterrupted one (the `digamma-server` crate builds
/// its versioned snapshot format and determinism tests on this).
#[derive(Debug, Clone)]
pub struct SearchState {
    population: Vec<Genome>,
    evals: Vec<DesignEvaluation>,
    best: Option<(Genome, DesignEvaluation)>,
    history: Vec<f64>,
    samples: usize,
    generation: u64,
    /// Cumulative per-operator attribution (analytics only; zeros when
    /// `DiGammaConfig::analytics` is off).
    ops: OpCounters,
    /// One `(generation, cumulative evals, best cost)` sample per
    /// generation boundary, generation 0 included (analytics only).
    cost_points: Vec<CostPoint>,
    /// The stats of the most recent generation (analytics only).
    last_stats: Option<GenStats>,
    /// Generation in which the incumbent last improved (maintained
    /// unconditionally — a single store per improvement).
    last_improved_gen: u64,
    /// Reused per-generation buffers for the analytics path. Purely
    /// transient (never snapshotted, never observed): kept only so the
    /// measured per-generation analytics budget (≤1% of search wall
    /// time, see `perfjson`) is not spent in the allocator.
    scratch: StepScratch,
}

/// Transient buffers reused across [`DiGamma::step`] calls (see
/// [`SearchState::scratch`]).
#[derive(Debug, Clone, Default)]
struct StepScratch {
    /// Per-child `(operator, reference cost)` provenance tags.
    tags: Vec<(OpKind, f64)>,
    /// Feature rows reused by [`genotypic_diversity`] refreshes.
    feats: Vec<GenomeFeatures>,
}

impl SearchState {
    /// The current population, in the order it was produced.
    pub fn population(&self) -> &[Genome] {
        &self.population
    }

    /// The best feasible genome found so far, if any.
    pub fn best_genome(&self) -> Option<&Genome> {
        self.best.as_ref().map(|(g, _)| g)
    }

    /// The best feasible cost found so far, if any.
    pub fn best_cost(&self) -> Option<f64> {
        self.best.as_ref().map(|(_, e)| e.cost)
    }

    /// Best-so-far cost after each evaluated sample.
    pub fn history(&self) -> &[f64] {
        &self.history
    }

    /// Design points evaluated so far.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Completed generations (0 = only the initial population).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Cumulative operator attribution. All-zero unless the search runs
    /// with [`DiGammaConfig::analytics`] enabled.
    pub fn op_counters(&self) -> &OpCounters {
        &self.ops
    }

    /// Best-so-far cost against cumulative evaluations, one point per
    /// generation boundary (generation 0 included). Empty unless the
    /// search runs with analytics enabled.
    pub fn cost_points(&self) -> &[CostPoint] {
        &self.cost_points
    }

    /// The most recent generation's [`GenStats`], if analytics are on
    /// and at least one generation has completed.
    pub fn last_gen_stats(&self) -> Option<GenStats> {
        self.last_stats
    }

    /// The generation in which the incumbent last improved.
    pub fn last_improved_generation(&self) -> u64 {
        self.last_improved_gen
    }

    /// Rehydrates analytics state from a checkpoint (the server calls
    /// this after [`DiGamma::restore`] so cumulative operator
    /// attribution survives a kill).
    pub fn restore_analytics(
        &mut self,
        ops: OpCounters,
        cost_points: Vec<CostPoint>,
        last_improved_gen: u64,
    ) {
        self.ops = ops;
        self.cost_points = cost_points;
        self.last_improved_gen = last_improved_gen;
    }

    /// Finishes the search, converting the state into its result.
    pub fn into_result(self) -> SearchResult {
        SearchResult {
            best: self.best.map(|(g, e)| DesignPoint::from_evaluation(g, &e)),
            history: self.history,
            samples: self.samples,
        }
    }

    fn record(&mut self, genomes: &[Genome], evals: &[DesignEvaluation]) {
        for (g, e) in genomes.iter().zip(evals) {
            self.samples += 1;
            let better = e.feasible && self.best.as_ref().is_none_or(|(_, b)| e.cost < b.cost);
            if better {
                self.best = Some((g.clone(), e.clone()));
                self.last_improved_gen = self.generation;
            }
            self.history.push(self.best.as_ref().map_or(f64::INFINITY, |(_, b)| b.cost));
        }
    }

    /// Computes this generation's [`GenStats`] from the freshly
    /// evaluated children and appends the cost-vs-evaluations point.
    /// Pure bookkeeping over already-evaluated data — no RNG, no extra
    /// evaluations.
    /// `cost_sum` and `feasible` are accumulated by the caller's
    /// attribution pass (same index order as a local loop would use, so
    /// the mean is bit-identical) to avoid a second walk over `evals`.
    fn push_analytics(
        &mut self,
        children: &[Genome],
        evals: &[DesignEvaluation],
        cost_sum: f64,
        feasible: usize,
    ) {
        let best = self.best.as_ref().map_or(f64::INFINITY, |(_, e)| e.cost);
        self.cost_points.push(CostPoint {
            generation: self.generation,
            evals: self.samples as u64,
            best,
        });
        if self.generation == 0 {
            // Generation 0 is the initial population: no operator ran,
            // and observers only fire at step boundaries — the cost
            // point above is all the record that is needed.
            return;
        }
        let order = rank(evals);

        let n = evals.len().max(1);
        // Population diversity moves on a generations timescale, so it
        // is refreshed on a deterministic stride (and whenever there is
        // no previous value to carry, e.g. the first boundary after a
        // restore) instead of paying the genome walk every generation.
        let diversity = match self.last_stats {
            Some(prev) if !self.generation.is_multiple_of(DIVERSITY_STRIDE) => prev.diversity,
            _ => genotypic_diversity(children, &mut self.scratch.feats),
        };
        self.last_stats = Some(GenStats {
            generation: self.generation,
            evals: self.samples as u64,
            best,
            median: order.get(order.len() / 2).map_or(f64::INFINITY, |&i| evals[i].cost),
            mean: cost_sum / n as f64,
            worst: order.last().map_or(f64::INFINITY, |&i| evals[i].cost),
            feasible_frac: feasible as f64 / n as f64,
            diversity,
            stale_gens: self.generation.saturating_sub(self.last_improved_gen),
        });
    }
}

/// Mean normalized gene distance over a deterministic sample: up to
/// [`GENOME_SAMPLE`] genomes (evenly strided over the population) and,
/// within each genome, up to [`LAYER_SAMPLE`] unique layers (evenly
/// strided over the network). Zero RNG draws by construction.
///
/// The distance runs on per-genome feature vectors extracted once per
/// sampled genome, with magnitude genes pre-converted through
/// [`approx_log2`] — the pairwise loop is subtractions and compares
/// only. Analytics run inside every generation of every job under a
/// measured wall-time budget of ≤1% (`perfjson`'s `analytics` section),
/// which rules out per-pair transcendentals.
fn genotypic_diversity(population: &[Genome], feats: &mut Vec<GenomeFeatures>) -> f64 {
    let n = population.len();
    if n < 2 {
        return 0.0;
    }
    let k = n.min(GENOME_SAMPLE);
    // The buffer lives in the step scratch and is sized exactly once
    // per search; extraction overwrites every row it later reads, so
    // refreshes never pay to re-zero it.
    if feats.len() < k {
        feats.resize(k, GenomeFeatures::EMPTY);
    }
    for (i, feat) in feats.iter_mut().enumerate().take(k) {
        feat.extract_from(&population[i * n / k]);
    }
    let mut sum = 0.0;
    let mut pairs = 0u32;
    for a in 0..k {
        for b in a + 1..k {
            sum += feats[a].distance(&feats[b]);
            pairs += 1;
        }
    }
    sum / f64::from(pairs)
}

/// Generations between diversity refreshes. In between, the previous
/// value is carried forward — diversity drifts on a generations
/// timescale, and the stride is what keeps the analytics path inside
/// its overhead budget on microsecond-cheap cost models.
const DIVERSITY_STRIDE: u64 = 4;

/// Genomes sampled by [`genotypic_diversity`] — at most 6 pairs.
const GENOME_SAMPLE: usize = 4;

/// Unique layers sampled per genome by [`genotypic_diversity`].
const LAYER_SAMPLE: usize = 4;

/// Approximate `log2(x.max(1))` read straight off the f64 bit pattern
/// (exponent plus a linear-in-mantissa correction; max error ≈ 0.09 of
/// a doubling). Magnitude genes only need "how many doublings apart",
/// so the approximation is invisible in a `[0, 1]` diversity score
/// while costing a handful of integer ops instead of a transcendental.
fn approx_log2(x: u64) -> f64 {
    const MANTISSA_SCALE: f64 = 1.0 / (1u64 << 52) as f64;
    (x.max(1) as f64).to_bits() as f64 * MANTISSA_SCALE - 1023.0
}

/// Saturating magnitude distance between two [`approx_log2`] values:
/// the fraction of a 2^20× ratio, clamped into `[0, 1]`.
fn log2_distance(a: f64, b: f64) -> f64 {
    ((a - b).abs() / 20.0).min(1.0)
}

/// Per cluster-level distance features (see [`GenomeFeatures`]).
#[derive(Debug, Clone, Copy)]
struct LevelFeatures {
    spatial: Dim,
    order: [Dim; NUM_DIMS],
    tile_log2: [f64; NUM_DIMS],
}

impl LevelFeatures {
    const EMPTY: LevelFeatures =
        LevelFeatures { spatial: Dim::K, order: Dim::ALL, tile_log2: [0.0; NUM_DIMS] };
}

/// Distance features for one sampled genome: one flat
/// [`LevelFeatures`] row per sampled layer × level, magnitude genes
/// already in log2 space. Rows past `layers * num_levels` are stale
/// between refreshes; [`GenomeFeatures::distance`] never reads them.
#[derive(Debug, Clone, Copy)]
struct GenomeFeatures {
    num_levels: usize,
    layers: usize,
    fanout_log2: [f64; digamma_costmodel::MAX_LEVELS],
    levels: [LevelFeatures; LAYER_SAMPLE * digamma_costmodel::MAX_LEVELS],
}

impl GenomeFeatures {
    const EMPTY: GenomeFeatures = GenomeFeatures {
        num_levels: 0,
        layers: 0,
        fanout_log2: [0.0; digamma_costmodel::MAX_LEVELS],
        levels: [LevelFeatures::EMPTY; LAYER_SAMPLE * digamma_costmodel::MAX_LEVELS],
    };

    /// Overwrites `self` with `g`'s features. Writes the `num_levels`
    /// and `layers` headers plus exactly the rows `distance` will read
    /// for them — whatever a previous genome left behind is dead data.
    fn extract_from(&mut self, g: &Genome) {
        let num_levels = g.num_levels().min(digamma_costmodel::MAX_LEVELS);
        self.num_levels = num_levels;
        for (slot, &f) in self.fanout_log2.iter_mut().zip(&g.fanouts) {
            *slot = approx_log2(f);
        }
        // The layer stride mirrors the genome stride in
        // `genotypic_diversity`: both genomes of a pair sample the same
        // layer indices, so rows always compare like with like.
        self.layers = g.layers.len().min(LAYER_SAMPLE);
        for li in 0..self.layers {
            let lg = &g.layers[li * g.layers.len() / self.layers.max(1)];
            for lvl in 0..num_levels {
                let genes = lg.levels.get(lvl).copied().unwrap_or_else(LevelGenes::unit);
                let feat = &mut self.levels[li * num_levels + lvl];
                feat.spatial = genes.spatial_dim;
                feat.order = genes.order;
                for (slot, &d) in feat.tile_log2.iter_mut().zip(Dim::ALL.iter()) {
                    *slot = approx_log2(genes.tile[d]);
                }
            }
        }
    }

    /// Normalized gene distance in `[0, 1]`: the mean over per-gene
    /// terms — level-count mismatch and fan-out magnitudes for the
    /// hardware genes; spatial-dim inequality, loop-order Hamming
    /// distance, and tile magnitudes per sampled layer and common
    /// cluster level for the mapping genes.
    fn distance(&self, other: &GenomeFeatures) -> f64 {
        let common_levels = self.num_levels.min(other.num_levels);
        let mut sum = (self.num_levels.abs_diff(other.num_levels) as f64
            / digamma_costmodel::MAX_LEVELS.max(1) as f64)
            .min(1.0);
        let mut terms = 1u32;
        for lvl in 0..common_levels {
            sum += log2_distance(self.fanout_log2[lvl], other.fanout_log2[lvl]);
            terms += 1;
        }
        for li in 0..self.layers.min(other.layers) {
            let a = &self.levels[li * self.num_levels..];
            let b = &other.levels[li * other.num_levels..];
            for (fa, fb) in a.iter().zip(b).take(common_levels) {
                sum += f64::from(u8::from(fa.spatial != fb.spatial));
                let mismatched = fa.order.iter().zip(&fb.order).filter(|(x, y)| x != y).count();
                sum += mismatched as f64 / NUM_DIMS as f64;
                let tile_dist: f64 = fa
                    .tile_log2
                    .iter()
                    .zip(&fb.tile_log2)
                    .map(|(&x, &y)| log2_distance(x, y))
                    .sum::<f64>()
                    / NUM_DIMS as f64;
                sum += tile_dist;
                terms += 3;
            }
        }
        sum / f64::from(terms.max(1))
    }
}

/// What a [`StepObserver`] tells the stepping loop after a generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepAction {
    /// Keep stepping.
    Continue,
    /// Stop at this generation boundary (cooperative cancellation).
    Stop,
}

/// Why [`DiGamma::run_observed`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopCause {
    /// The sample budget ran out (the search is finished).
    BudgetExhausted,
    /// The observer asked to stop early; the state sits at a generation
    /// boundary and may be snapshotted and resumed later.
    ObserverStopped,
}

/// A per-generation hook on the stepping loop.
///
/// Long-running services hang progress streaming, checkpoint cadence,
/// and cooperative cancellation off this seam: the observer runs at
/// every generation boundary — exactly the points where a
/// [`SearchState`] may be snapshotted — and its return value decides
/// whether the loop keeps going. Observers see the live state, so they
/// can report best-so-far cost or capture a snapshot without any extra
/// bookkeeping inside the GA itself.
pub trait StepObserver {
    /// Called after each completed generation; return [`StepAction::Stop`]
    /// to end the search at this boundary.
    fn on_generation(&mut self, state: &SearchState, budget: usize) -> StepAction;
}

/// The trivial observer: never stops, observes nothing.
impl StepObserver for () {
    fn on_generation(&mut self, _state: &SearchState, _budget: usize) -> StepAction {
        StepAction::Continue
    }
}

/// The domain-aware GA searcher.
#[derive(Debug, Clone)]
pub struct DiGamma {
    config: DiGammaConfig,
}

impl DiGamma {
    /// Creates a searcher with the given hyper-parameters.
    pub fn new(config: DiGammaConfig) -> DiGamma {
        assert!(config.population_size >= 4, "population too small");
        assert!((0.0..=1.0).contains(&config.elite_fraction), "elite fraction out of range");
        DiGamma { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &DiGammaConfig {
        &self.config
    }

    /// The RNG driving generation `g` — a pure function of the seed and
    /// the generation counter, so checkpoints need not serialize RNG
    /// internals: "position in the stream" restores by reseeding.
    fn generation_rng(&self, generation: u64) -> SmallRng {
        SmallRng::seed_from_u64(self.config.seed ^ generation.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Runs the search for at most `budget` design-point evaluations.
    pub fn search(&self, problem: &CoOptProblem, budget: usize) -> SearchResult {
        let mut state = self.init(problem, budget);
        while self.step(problem, &mut state, budget) {}
        state.into_result()
    }

    /// Drives `state` with [`DiGamma::step`] until the budget runs out or
    /// the observer asks to stop, invoking the observer at every
    /// generation boundary.
    ///
    /// This is the loop long-running services use: the observer streams
    /// progress, writes checkpoints, and checks a cancellation flag, and
    /// an [`StopCause::ObserverStopped`] return leaves the state at a
    /// clean boundary for snapshotting.
    pub fn run_observed(
        &self,
        problem: &CoOptProblem,
        state: &mut SearchState,
        budget: usize,
        observer: &mut dyn StepObserver,
    ) -> StopCause {
        while self.step(problem, state, budget) {
            if observer.on_generation(state, budget) == StepAction::Stop {
                return StopCause::ObserverStopped;
            }
        }
        StopCause::BudgetExhausted
    }

    /// Builds and evaluates the initial population (generation 0).
    ///
    /// Consumes `min(population_size, budget)` samples. Drive the
    /// returned state with [`DiGamma::step`], or let [`DiGamma::search`]
    /// do both.
    pub fn init(&self, problem: &CoOptProblem, budget: usize) -> SearchState {
        let cfg = &self.config;
        let mut rng = self.generation_rng(0);
        let unique = problem.unique_layers();
        let platform = problem.platform();

        let mut state = SearchState {
            population: Vec::new(),
            evals: Vec::new(),
            best: None,
            history: Vec::with_capacity(budget),
            samples: 0,
            generation: 0,
            ops: OpCounters::new(),
            cost_points: Vec::new(),
            last_stats: None,
            last_improved_gen: 0,
            scratch: StepScratch::default(),
        };

        // Initial population. Under a Fixed-HW constraint the buffers are
        // hard limits random tiles rarely respect, so — as GAMMA does —
        // the population is seeded with feasible template mappings (one
        // per manual style) before random exploration fills the rest.
        let init_count = cfg.population_size.min(budget);
        let mut population: Vec<Genome> = Vec::with_capacity(init_count);
        if cfg.template_seeding {
            let seed_hws: Vec<_> = match problem.constraint() {
                Constraint::FixedHw(hw) => vec![hw.clone()],
                // For co-optimization, seed each preset twice: at full
                // buffer fill (best immediate cost) and at half fill —
                // the half-fill seeds leave area slack so Mutate-HW /
                // tile-growth mutations have room to move.
                Constraint::None => crate::schemes::HwPreset::ALL
                    .iter()
                    .flat_map(|p| {
                        let full = p.build(platform, problem.evaluator().area_model());
                        let mut half = full.clone();
                        half.l2_words = (half.l2_words / 2).max(1);
                        half.l1_words_per_pe = (half.l1_words_per_pe / 2).max(1);
                        [full, half]
                    })
                    .collect(),
            };
            'seeding: for hw in &seed_hws {
                if hw.fanouts.len() != 2 {
                    continue;
                }
                for style in crate::templates::MappingStyle::ALL {
                    if population.len() >= init_count {
                        break 'seeding;
                    }
                    let mappings = crate::templates::instantiate_all(style, unique, hw);
                    population.push(Genome::from_mappings(&mappings));
                }
            }
        }
        while population.len() < init_count {
            let mut g = Genome::random(&mut rng, unique, platform, cfg.num_levels);
            if let Constraint::FixedHw(hw) = problem.constraint() {
                g.fanouts = hw.fanouts.clone();
            }
            population.push(g);
        }
        let evals = problem.evaluate_batch(&population, cfg.threads);
        state.record(&population, &evals);
        if cfg.analytics {
            // Generation 0 returns after the cost point; the
            // accumulator arguments are never read.
            state.push_analytics(&population, &evals, 0.0, 0);
        }
        state.population = population;
        state.evals = evals;
        state
    }

    /// Advances `state` by one generation, stopping at `budget` samples.
    ///
    /// Returns `false` (leaving the state untouched) once the budget is
    /// exhausted. After a `step`, the state sits at a generation boundary
    /// and may be snapshotted and later resumed bit-identically.
    pub fn step(&self, problem: &CoOptProblem, state: &mut SearchState, budget: usize) -> bool {
        if state.samples >= budget {
            return false;
        }
        let cfg = &self.config;
        let unique = problem.unique_layers();
        let platform = problem.platform();
        state.generation += 1;
        let mut rng = self.generation_rng(state.generation);
        let elites = ((cfg.population_size as f64 * cfg.elite_fraction).ceil() as usize).max(1);

        let order = rank(&state.evals);

        let want = (cfg.population_size).min(budget - state.samples);
        let fixed_hw = matches!(problem.constraint(), Constraint::FixedHw(_));
        // Provenance tags (operator, reference cost) parallel to
        // `children`, recorded only when analytics are on. Tagging
        // captures decisions the construction below already makes — it
        // consumes no RNG draws, so the trajectory is identical either
        // way.
        // The tag buffer is taken out of the state (and returned after
        // attribution) so generations after the first reuse one
        // allocation for the whole search.
        let mut provenance: Option<Vec<(OpKind, f64)>> = cfg.analytics.then(|| {
            let mut tags = std::mem::take(&mut state.scratch.tags);
            tags.clear();
            tags.reserve(want);
            tags
        });
        let mut children: Vec<Genome> = Vec::with_capacity(want);
        // Elites survive unchanged (re-evaluated only to keep the
        // bookkeeping simple; evaluation is deterministic — and with a
        // fitness cache attached the re-evaluation is a pure cache hit).
        for &i in order.iter().take(elites.min(want)) {
            children.push(state.population[i].clone());
            if let Some(tags) = &mut provenance {
                tags.push((OpKind::Elite, state.evals[i].cost));
            }
        }
        // A trickle of random immigrants keeps diversity up — floored
        // at one so populations below 20 keep the trickle instead of
        // silently losing it to integer division.
        let immigrants = (want / 20).max(1).min(want.saturating_sub(children.len()));
        // An immigrant "improves" when it beats the previous
        // generation's median — the bar a random design has to clear to
        // be worth its evaluation.
        let median_cost = state.evals[order[order.len() / 2]].cost;
        for _ in 0..immigrants {
            let mut g = Genome::random(&mut rng, unique, platform, cfg.num_levels);
            if let Constraint::FixedHw(hw) = problem.constraint() {
                g.fanouts = hw.fanouts.clone();
            }
            children.push(g);
            if let Some(tags) = &mut provenance {
                tags.push((OpKind::Immigrant, median_cost));
            }
        }
        // Exploiters: single-mutation neighbours of the incumbent
        // best — cheap hill-climbing woven into the generation.
        if let Some((best_genome, best_eval)) = &state.best {
            let incumbent_cost = best_eval.cost;
            let exploiters = (want / 10).min(want.saturating_sub(children.len()));
            for _ in 0..exploiters {
                let mut g = best_genome.clone();
                let kind = if cfg.mutate_hw_rate > 0.0 && rng.gen_bool(0.25) {
                    operators::mutate_hw(&mut rng, &mut g, platform.max_pes);
                    if fixed_hw {
                        OpKind::HwForced
                    } else {
                        OpKind::MutateHw
                    }
                } else {
                    let li = rng.gen_range(0..g.layers.len().max(1));
                    operators::mutate_one_layer(&mut rng, &mut g, unique, li);
                    OpKind::MutateMap
                };
                repair(&mut g, unique, platform);
                if let Constraint::FixedHw(hw) = problem.constraint() {
                    g.fanouts = hw.fanouts.clone();
                }
                children.push(g);
                if let Some(tags) = &mut provenance {
                    tags.push((kind, incumbent_cost));
                }
            }
        }
        while children.len() < want {
            let parent_a_idx = tournament(&mut rng, &order, &state.evals);
            let parent_a = &state.population[parent_a_idx];
            let parent_a_cost = state.evals[parent_a_idx].cost;
            let crossed = rng.gen_bool(cfg.crossover_rate) && state.population.len() >= 2;
            let (mut child, reference) = if crossed {
                let parent_b_idx = tournament(&mut rng, &order, &state.evals);
                let parent_b = &state.population[parent_b_idx];
                // A crossover child improves when it beats its *better*
                // parent — beating the worse one is not a win.
                let reference = parent_a_cost.min(state.evals[parent_b_idx].cost);
                (operators::crossover(&mut rng, parent_a, parent_b), reference)
            } else {
                (parent_a.clone(), parent_a_cost)
            };
            operators::reorder(&mut rng, &mut child, cfg.reorder_rate);
            operators::mutate_map(&mut rng, &mut child, unique, cfg.mutate_map_rate);
            let hw_fired = rng.gen_bool(cfg.mutate_hw_rate);
            if hw_fired {
                operators::mutate_hw(&mut rng, &mut child, platform.max_pes);
            }
            let grew = rng.gen_bool(cfg.grow_aging_rate);
            if grew {
                operators::grow_or_age(&mut rng, &mut child);
            }
            repair(&mut child, unique, platform);
            if let Constraint::FixedHw(hw) = problem.constraint() {
                child.fanouts = hw.fanouts.clone();
            }
            children.push(child);
            if let Some(tags) = &mut provenance {
                // One tag per child: the most structural operator that
                // fired wins (crossover ≻ grow/age ≻ mutate-hw ≻
                // mutate-map; reorder and mutate-map always run, so the
                // plain-clone path attributes to mutate_map).
                let kind = if crossed {
                    OpKind::Crossover
                } else if grew {
                    OpKind::GrowAge
                } else if hw_fired {
                    if fixed_hw {
                        OpKind::HwForced
                    } else {
                        OpKind::MutateHw
                    }
                } else {
                    OpKind::MutateMap
                };
                tags.push((kind, reference));
            }
        }

        let child_evals = problem.evaluate_batch(&children, cfg.threads);
        // Attribution: replay the incumbent locally over this batch so
        // every child is judged against the incumbent *at its own
        // position*, matching what `record` is about to do.
        let mut cost_sum = 0.0;
        let mut feasible = 0usize;
        if let Some(tags) = provenance.take() {
            let mut incumbent = state.best.as_ref().map_or(f64::INFINITY, |(_, e)| e.cost);
            for ((kind, reference), eval) in tags.iter().zip(&child_evals) {
                cost_sum += eval.cost;
                feasible += usize::from(eval.feasible);
                let counter = state.ops.get_mut(*kind);
                counter.attempted += 1;
                if eval.feasible && eval.cost < *reference {
                    counter.improved += 1;
                }
                if eval.feasible && eval.cost < incumbent {
                    counter.incumbents += 1;
                    incumbent = eval.cost;
                }
            }
            state.scratch.tags = tags;
        }
        state.record(&children, &child_evals);
        if cfg.analytics {
            state.push_analytics(&children, &child_evals, cost_sum, feasible);
        }
        state.population = children;
        state.evals = child_evals;
        true
    }

    /// Rebuilds a [`SearchState`] from checkpointed data.
    ///
    /// Per-genome evaluations are *recomputed* (evaluation is pure and
    /// deterministic, and cheap again under a fitness cache), so
    /// checkpoints carry only genomes, history, and counters. The
    /// restored state continues exactly where [`DiGamma::step`] left off:
    /// resuming reproduces an uninterrupted run bit-for-bit because each
    /// generation reseeds its RNG from `(seed, generation)`.
    ///
    /// Bit-identical resumption assumes the resumed run keeps the
    /// original total budget: the final generation of a budget is
    /// truncated to the remaining samples, so a snapshot taken after
    /// such a truncated generation describes a *finished* search, not a
    /// resumable midpoint.
    ///
    /// # Panics
    ///
    /// Panics if `population` is empty or `history.len() != samples`.
    pub fn restore(
        &self,
        problem: &CoOptProblem,
        population: Vec<Genome>,
        best: Option<Genome>,
        history: Vec<f64>,
        samples: usize,
        generation: u64,
    ) -> SearchState {
        assert!(!population.is_empty(), "cannot restore an empty population");
        assert_eq!(history.len(), samples, "history must have one entry per sample");
        let evals = problem.evaluate_batch(&population, self.config.threads);
        let best = best.map(|g| {
            let e = problem.evaluate(&g);
            (g, e)
        });
        SearchState {
            population,
            evals,
            best,
            history,
            samples,
            generation,
            ops: OpCounters::new(),
            cost_points: Vec::new(),
            last_stats: None,
            // Conservative: treat the restore point as fresh. Callers
            // with checkpointed analytics overwrite this through
            // `SearchState::restore_analytics`.
            last_improved_gen: generation,
            scratch: StepScratch::default(),
        }
    }
}

/// Population indices sorted ascending by cost. The sort is stable, so
/// ties keep index order: selection depends on the exact permutation.
fn rank(evals: &[DesignEvaluation]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..evals.len()).collect();
    order.sort_by(|&a, &b| evals[a].cost.total_cmp(&evals[b].cost));
    order
}

/// Binary tournament over the *top half* of the ranked population
/// (returns a population index). Restricting parents to the upper half
/// keeps selection pressure high even while the population still carries
/// many infeasible explorers.
fn tournament(rng: &mut SmallRng, order: &[usize], evals: &[DesignEvaluation]) -> usize {
    let half = (order.len() / 2).max(1);
    let a = order[rng.gen_range(0..half)];
    let b = order[rng.gen_range(0..half)];
    if evals[a].cost <= evals[b].cost {
        a
    } else {
        b
    }
}

/// The specialized genetic operators (kept free-standing for unit tests
/// and for the ablation benchmark E5).
pub mod operators {
    use super::*;

    /// Crossover: blends two parents — per-layer mapping genes are
    /// inherited from either parent, the PE-array genes from one of them.
    pub fn crossover(rng: &mut SmallRng, a: &Genome, b: &Genome) -> Genome {
        let mut child = a.clone();
        // Mixing mapping genes only makes sense level-by-level when the
        // parents agree on the level count; otherwise inherit whole sets.
        if a.num_levels() == b.num_levels() {
            for (cl, bl) in child.layers.iter_mut().zip(&b.layers) {
                if rng.gen_bool(0.5) {
                    *cl = bl.clone();
                }
            }
            if rng.gen_bool(0.5) {
                child.fanouts = b.fanouts.clone();
            }
        } else if rng.gen_bool(0.5) {
            child = b.clone();
        }
        child
    }

    /// Reorder: per layer (with probability `rate`), swaps two positions
    /// in a random level's loop order. Applying the operator per layer —
    /// rather than to one layer per child — is what lets every layer's
    /// mapping improve each generation on deep models.
    pub fn reorder(rng: &mut SmallRng, g: &mut Genome, rate: f64) {
        for lg in &mut g.layers {
            if !rng.gen_bool(rate) {
                continue;
            }
            let lvl = rng.gen_range(0..lg.levels.len());
            let order = &mut lg.levels[lvl].order;
            let i = rng.gen_range(0..NUM_DIMS);
            let j = rng.gen_range(0..NUM_DIMS);
            order.swap(i, j);
        }
    }

    /// Mutate-Map: per layer (with probability `rate`), perturbs tiling
    /// or parallelism of a random level; if no layer fires, one random
    /// layer is mutated so a mutation pass is never a no-op.
    ///
    /// The operator mix favours area-neutral/structured moves (spatial
    /// dim change, tile double/halve) over destructive full resamples —
    /// the "structured manner" of stepping through the space the paper
    /// credits for DiGamma's sample efficiency.
    pub fn mutate_map(rng: &mut SmallRng, g: &mut Genome, unique: &[UniqueLayer], rate: f64) {
        let mut fired = false;
        for li in 0..g.layers.len() {
            if rng.gen_bool(rate) {
                mutate_one_layer(rng, g, unique, li);
                fired = true;
            }
        }
        if !fired && !g.layers.is_empty() {
            let li = rng.gen_range(0..g.layers.len());
            mutate_one_layer(rng, g, unique, li);
        }
    }

    pub(crate) fn mutate_one_layer(
        rng: &mut SmallRng,
        g: &mut Genome,
        unique: &[UniqueLayer],
        li: usize,
    ) {
        let extents = *unique[li].layer.dims();
        let lg = &mut g.layers[li];
        let lvl = rng.gen_range(0..lg.levels.len());
        let genes = &mut lg.levels[lvl];
        let dim = Dim::from_index(rng.gen_range(0..NUM_DIMS));
        match rng.gen_range(0..10) {
            0..=2 => genes.tile[dim] = genes.tile[dim].saturating_mul(2),
            3..=5 => genes.tile[dim] = (genes.tile[dim] / 2).max(1),
            6 => {
                let max = extents[dim];
                genes.tile[dim] = super::log_uniform(rng, max);
            }
            _ => genes.spatial_dim = Dim::from_index(rng.gen_range(0..NUM_DIMS)),
        }
    }

    /// Mutate-HW: perturbs the PE array — total size (double/halve one
    /// level) or aspect ratio (move a factor of two between levels while
    /// keeping the PE count). Buffer sizes follow automatically through
    /// the allocation strategy.
    pub fn mutate_hw(rng: &mut SmallRng, g: &mut Genome, max_pes: u64) {
        let levels = g.fanouts.len();
        match rng.gen_range(0..4) {
            0 => {
                let i = rng.gen_range(0..levels);
                g.fanouts[i] = g.fanouts[i].saturating_mul(2).min(max_pes);
            }
            1 => {
                let i = rng.gen_range(0..levels);
                g.fanouts[i] = (g.fanouts[i] / 2).max(1);
            }
            2 if levels >= 2 => {
                // Aspect-ratio move: ×2 one level, ÷2 another.
                let i = rng.gen_range(0..levels);
                let mut j = rng.gen_range(0..levels);
                if i == j {
                    j = (j + 1) % levels;
                }
                if g.fanouts[j] >= 2 {
                    g.fanouts[i] = g.fanouts[i].saturating_mul(2);
                    g.fanouts[j] /= 2;
                }
            }
            _ => {
                let i = rng.gen_range(0..levels);
                g.fanouts[i] = super::log_uniform(rng, max_pes);
            }
        }
    }

    /// Grow/Aging: inserts a middle cluster level (grow) or removes one
    /// (aging), re-shaping the clustering hierarchy.
    pub fn grow_or_age(rng: &mut SmallRng, g: &mut Genome) {
        let levels = g.fanouts.len();
        let can_grow = levels < digamma_costmodel::MAX_LEVELS;
        let can_age = levels > 2;
        match (can_grow, can_age) {
            (false, false) => {}
            (true, false) => grow(rng, g),
            (false, true) => age(rng, g),
            (true, true) => {
                if rng.gen_bool(0.5) {
                    grow(rng, g)
                } else {
                    age(rng, g)
                }
            }
        }
    }

    fn grow(rng: &mut SmallRng, g: &mut Genome) {
        // Split the outermost fan-out and insert a middle level whose
        // genes interpolate its neighbours.
        let moved = if g.fanouts[0] >= 2 { 2 } else { 1 };
        g.fanouts[0] = (g.fanouts[0] / moved).max(1);
        g.fanouts.insert(1, moved);
        for lg in &mut g.layers {
            let outer = lg.levels[0];
            let mut mid = outer;
            mid.spatial_dim = Dim::from_index(rng.gen_range(0..NUM_DIMS));
            // Mid tiles: geometric middle between outer and inner tiles.
            if let Some(inner) = lg.levels.get(1) {
                mid.tile = outer.tile.zip_with(inner.tile, |o, i| {
                    (((o.max(1) * i.max(1)) as f64).sqrt().round() as u64).max(1)
                });
            }
            lg.levels.insert(1, mid);
        }
    }

    fn age(rng: &mut SmallRng, g: &mut Genome) {
        // Remove a middle level, folding its fan-out into the level above.
        let levels = g.fanouts.len();
        let victim = rng.gen_range(1..levels - 1);
        let folded = g.fanouts.remove(victim);
        g.fanouts[victim - 1] = g.fanouts[victim - 1].saturating_mul(folded);
        for lg in &mut g.layers {
            lg.levels.remove(victim);
        }
    }
}

/// Log-uniform sample in `[1, max]` (shared with the encoding crate's
/// sampler semantics).
fn log_uniform(rng: &mut SmallRng, max: u64) -> u64 {
    if max <= 1 {
        return 1;
    }
    let exp = rng.gen_range(0.0..=(max as f64).ln());
    (exp.exp().round() as u64).clamp(1, max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::Objective;
    use digamma_costmodel::Platform;
    use digamma_workload::zoo;

    fn small_problem() -> CoOptProblem {
        CoOptProblem::new(zoo::ncf(), Platform::edge(), Objective::Latency)
    }

    fn quick_config(seed: u64) -> DiGammaConfig {
        DiGammaConfig { population_size: 16, seed, ..DiGammaConfig::default() }
    }

    #[test]
    fn search_finds_feasible_design() {
        let result = DiGamma::new(quick_config(1)).search(&small_problem(), 200);
        let best = result.best.expect("feasible design within 200 samples");
        assert!(best.feasible);
        assert!(best.area_um2 <= Platform::edge().area_budget_um2);
        assert_eq!(result.samples, 200);
        assert_eq!(result.history.len(), 200);
    }

    #[test]
    fn history_is_monotone_nonincreasing() {
        let result = DiGamma::new(quick_config(2)).search(&small_problem(), 150);
        for w in result.history.windows(2) {
            assert!(w[1] <= w[0]);
        }
    }

    #[test]
    fn search_improves_over_random_initialization() {
        let result = DiGamma::new(quick_config(3)).search(&small_problem(), 400);
        let first_feasible =
            result.history.iter().copied().find(|c| c.is_finite()).expect("feasible");
        let final_cost = *result.history.last().unwrap();
        assert!(final_cost < first_feasible, "no improvement: {first_feasible} → {final_cost}");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = DiGamma::new(quick_config(7)).search(&small_problem(), 100);
        let b = DiGamma::new(quick_config(7)).search(&small_problem(), 100);
        assert_eq!(a.best_cost(), b.best_cost());
        assert_eq!(a.history, b.history);
    }

    #[test]
    fn budget_is_respected_exactly() {
        let result = DiGamma::new(quick_config(4)).search(&small_problem(), 37);
        assert_eq!(result.samples, 37);
    }

    #[test]
    fn stepping_matches_one_shot_search() {
        let problem = small_problem();
        let ga = DiGamma::new(quick_config(11));
        let one_shot = ga.search(&problem, 150);
        let mut state = ga.init(&problem, 150);
        while ga.step(&problem, &mut state, 150) {}
        let stepped = state.into_result();
        assert_eq!(one_shot.history, stepped.history);
        assert_eq!(one_shot.best_cost(), stepped.best_cost());
    }

    #[test]
    fn restore_resumes_bit_identically() {
        let problem = small_problem();
        let ga = DiGamma::new(quick_config(12));
        let full = ga.search(&problem, 200);

        // Run the first half of the same 200-sample job (a mid-run
        // kill), then rebuild the state from its checkpointable parts
        // only (genomes, history, counters) and finish.
        let mut state = ga.init(&problem, 200);
        while state.samples() < 100 && ga.step(&problem, &mut state, 200) {}
        let restored = ga.restore(
            &problem,
            state.population().to_vec(),
            state.best_genome().cloned(),
            state.history().to_vec(),
            state.samples(),
            state.generation(),
        );
        let mut resumed = restored;
        while ga.step(&problem, &mut resumed, 200) {}
        let result = resumed.into_result();

        assert_eq!(full.history.len(), result.history.len());
        assert_eq!(full.history, result.history, "resumed history must match bit-for-bit");
        assert_eq!(full.best_cost(), result.best_cost());
        assert_eq!(full.best.as_ref().map(|b| &b.genome), result.best.as_ref().map(|b| &b.genome));
    }

    #[test]
    fn deep_cnn_search_skips_duplicate_layer_evals() {
        // VGG-style models make the batch-local dedupe earn its keep:
        // elites and the children inheriting their per-layer genes
        // re-state many identical (layer shape, mapping) evaluations
        // within one generation batch.
        let problem = CoOptProblem::new(zoo::vgg16(), Platform::edge(), Objective::Latency);
        let ga = DiGamma::new(quick_config(6));
        let result = ga.search(&problem, 96);
        assert_eq!(result.samples, 96);
        assert!(
            problem.batch_dedup_skipped() > 0,
            "a vgg16 search must dedupe intra-batch layer evals"
        );
    }

    #[test]
    fn observer_stops_the_loop_at_a_generation_boundary() {
        struct StopAfter(u64);
        impl StepObserver for StopAfter {
            fn on_generation(&mut self, state: &SearchState, _budget: usize) -> StepAction {
                if state.generation() >= self.0 {
                    StepAction::Stop
                } else {
                    StepAction::Continue
                }
            }
        }
        let problem = small_problem();
        let ga = DiGamma::new(quick_config(21));
        let mut state = ga.init(&problem, 400);
        let cause = ga.run_observed(&problem, &mut state, 400, &mut StopAfter(3));
        assert_eq!(cause, StopCause::ObserverStopped);
        assert_eq!(state.generation(), 3, "stop lands exactly at the asked boundary");
        // Resuming with the trivial observer finishes the search
        // identically to an uninterrupted run.
        let cause = ga.run_observed(&problem, &mut state, 400, &mut ());
        assert_eq!(cause, StopCause::BudgetExhausted);
        let full = ga.search(&problem, 400);
        let resumed = state.into_result();
        assert_eq!(full.history, resumed.history);
        assert_eq!(full.best_cost(), resumed.best_cost());
    }

    #[test]
    fn observer_sees_every_generation() {
        struct Count(Vec<u64>);
        impl StepObserver for Count {
            fn on_generation(&mut self, state: &SearchState, _budget: usize) -> StepAction {
                self.0.push(state.generation());
                StepAction::Continue
            }
        }
        let problem = small_problem();
        let ga = DiGamma::new(quick_config(22));
        let mut state = ga.init(&problem, 96);
        let mut count = Count(Vec::new());
        ga.run_observed(&problem, &mut state, 96, &mut count);
        let expect: Vec<u64> = (1..=state.generation()).collect();
        assert_eq!(count.0, expect, "one callback per generation, in order");
    }

    #[test]
    fn analytics_on_and_off_are_bit_identical() {
        // The whole introspection layer is computed from
        // already-evaluated data and consumes zero RNG draws, so the
        // search trajectory must not depend on it in any way.
        let on = DiGamma::new(DiGammaConfig { analytics: true, ..quick_config(31) })
            .search(&small_problem(), 150);
        let off = DiGamma::new(DiGammaConfig { analytics: false, ..quick_config(31) })
            .search(&small_problem(), 150);
        assert_eq!(on.samples, off.samples);
        assert_eq!(on.best_cost(), off.best_cost());
        assert_eq!(
            on.history.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            off.history.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "histories must match bit-for-bit"
        );
        assert_eq!(
            on.best.map(|b| b.genome),
            off.best.map(|b| b.genome),
            "incumbent genomes must be identical"
        );
    }

    #[test]
    fn analytics_off_state_stays_empty() {
        let problem = small_problem();
        let ga = DiGamma::new(DiGammaConfig { analytics: false, ..quick_config(31) });
        let mut state = ga.init(&problem, 100);
        while ga.step(&problem, &mut state, 100) {}
        assert_eq!(state.op_counters().total_attempted(), 0);
        assert!(state.cost_points().is_empty());
        assert!(state.last_gen_stats().is_none());
    }

    #[test]
    fn small_populations_keep_the_immigrant_trickle() {
        // Regression: `(want / 20)` silently truncated to zero for
        // populations below 20, so small configs lost the diversity
        // trickle entirely. The floor guarantees one immigrant per
        // generation whenever there is room for one.
        let problem = small_problem();
        let ga = DiGamma::new(quick_config(33)); // population 16 < 20
        let mut state = ga.init(&problem, 160);
        while ga.step(&problem, &mut state, 160) {}
        let immigrants = state.op_counters().get(OpKind::Immigrant);
        assert_eq!(
            immigrants.attempted,
            state.generation(),
            "exactly one immigrant per stepped generation at population 16"
        );
    }

    #[test]
    fn operator_attribution_covers_every_stepped_child() {
        let problem = small_problem();
        let ga = DiGamma::new(quick_config(34));
        let init_samples = 16; // population_size, consumed by init
        let mut state = ga.init(&problem, 200);
        while ga.step(&problem, &mut state, 200) {}
        let ops = state.op_counters();
        assert_eq!(
            ops.total_attempted(),
            (state.samples() - init_samples) as u64,
            "every child after the initial population carries exactly one tag"
        );
        assert!(ops.get(OpKind::Elite).attempted > 0);
        assert!(ops.get(OpKind::Crossover).attempted > 0);
        assert!(
            ops.total_incumbents() > 0,
            "a 200-sample ncf search must improve its incumbent at least once"
        );
        // Unconstrained searches never force hardware genes.
        assert_eq!(ops.get(OpKind::HwForced).attempted, 0);
    }

    #[test]
    fn gen_stats_and_cost_points_track_the_search() {
        let problem = small_problem();
        let ga = DiGamma::new(quick_config(35));
        let mut state = ga.init(&problem, 120);
        assert_eq!(state.cost_points().len(), 1, "generation 0 contributes a cost point");
        assert_eq!(state.cost_points()[0].evals, 16);
        while ga.step(&problem, &mut state, 120) {}
        assert_eq!(state.cost_points().len() as u64, state.generation() + 1);
        let last = state.cost_points().last().unwrap();
        assert_eq!(last.evals, state.samples() as u64);
        assert_eq!(last.best.to_bits(), state.best_cost().unwrap_or(f64::INFINITY).to_bits());
        // Cost points are monotone in evals and non-increasing in cost.
        for w in state.cost_points().windows(2) {
            assert!(w[1].evals > w[0].evals);
            assert!(w[1].best <= w[0].best);
        }
        let stats = state.last_gen_stats().expect("analytics on");
        assert_eq!(stats.generation, state.generation());
        assert_eq!(stats.evals, state.samples() as u64);
        assert!((0.0..=1.0).contains(&stats.diversity), "diversity {}", stats.diversity);
        assert!((0.0..=1.0).contains(&stats.feasible_frac));
        assert!(stats.best <= stats.median && stats.median <= stats.worst);
        assert_eq!(stats.stale_gens, state.generation() - state.last_improved_generation());
    }

    #[test]
    fn fixed_hw_attribution_reports_forced_hardware_mutations() {
        // Under a fixed-HW constraint every Mutate-HW draw is nullified
        // by the fan-out forcing — attribution must expose that as
        // `hw_forced` rather than crediting a hardware move.
        let hw = digamma_costmodel::HwConfig {
            fanouts: vec![8, 16],
            l2_words: 32 * 1024,
            mid_words_per_unit: vec![],
            l1_words_per_pe: 128,
        };
        let problem = CoOptProblem::new(zoo::ncf(), Platform::edge(), Objective::Latency)
            .with_constraint(Constraint::FixedHw(hw));
        let ga = DiGamma::new(quick_config(36));
        let mut state = ga.init(&problem, 200);
        while ga.step(&problem, &mut state, 200) {}
        let ops = state.op_counters();
        assert!(ops.get(OpKind::HwForced).attempted > 0, "hw mutations must surface as forced");
        assert_eq!(ops.get(OpKind::MutateHw).attempted, 0, "no real hw moves under fixed hw");
    }

    #[test]
    fn parallel_evaluation_matches_sequential() {
        let mut cfg = quick_config(5);
        let seq = DiGamma::new(cfg.clone()).search(&small_problem(), 120);
        cfg.threads = 4;
        let par = DiGamma::new(cfg).search(&small_problem(), 120);
        assert_eq!(seq.best_cost(), par.best_cost());
    }

    mod operator_tests {
        use super::super::operators::*;
        use super::*;
        use digamma_encoding::Genome;
        use rand::rngs::SmallRng;
        use rand::SeedableRng;

        fn setup() -> (SmallRng, Vec<digamma_workload::UniqueLayer>, Genome) {
            let unique = zoo::ncf().unique_layers();
            let mut rng = SmallRng::seed_from_u64(9);
            let g = Genome::random(&mut rng, &unique, &Platform::edge(), 2);
            (rng, unique, g)
        }

        #[test]
        fn reorder_keeps_permutation() {
            let (mut rng, _, mut g) = setup();
            for _ in 0..50 {
                reorder(&mut rng, &mut g, 1.0);
            }
            for lg in &g.layers {
                for lvl in &lg.levels {
                    let mut seen = [false; NUM_DIMS];
                    for d in lvl.order {
                        assert!(!std::mem::replace(&mut seen[d.index()], true));
                    }
                }
            }
        }

        #[test]
        fn mutate_map_changes_only_mapping_genes() {
            let (mut rng, unique, mut g) = setup();
            let fanouts = g.fanouts.clone();
            for _ in 0..50 {
                mutate_map(&mut rng, &mut g, &unique, 1.0);
            }
            assert_eq!(g.fanouts, fanouts, "Mutate-Map must not touch HW genes");
        }

        #[test]
        fn mutate_map_touches_every_layer_at_full_rate() {
            let (mut rng, unique, g) = setup();
            let mut mutated = vec![false; g.layers.len()];
            for _ in 0..30 {
                let mut child = g.clone();
                mutate_map(&mut rng, &mut child, &unique, 1.0);
                for (i, (a, b)) in child.layers.iter().zip(&g.layers).enumerate() {
                    if a != b {
                        mutated[i] = true;
                    }
                }
            }
            assert!(mutated.iter().all(|&m| m), "some layer never mutated: {mutated:?}");
        }

        #[test]
        fn mutate_hw_changes_only_hw_genes() {
            let (mut rng, _, mut g) = setup();
            let layers = g.layers.clone();
            for _ in 0..50 {
                mutate_hw(&mut rng, &mut g, 1024);
            }
            assert_eq!(g.layers, layers, "Mutate-HW must not touch mapping genes");
        }

        #[test]
        fn grow_and_age_preserve_level_consistency() {
            let (mut rng, unique, mut g) = setup();
            for _ in 0..20 {
                grow_or_age(&mut rng, &mut g);
                assert!(g.fanouts.len() >= 2 && g.fanouts.len() <= 3);
                for lg in &g.layers {
                    assert_eq!(lg.levels.len(), g.fanouts.len());
                }
                // Post-repair the genome must decode cleanly.
                digamma_encoding::repair(&mut g, &unique, &Platform::edge());
                for (u, m) in unique.iter().zip(g.decode(&unique)) {
                    m.validate(&u.layer).unwrap();
                }
            }
        }

        #[test]
        fn crossover_mixes_parents() {
            let unique = zoo::ncf().unique_layers();
            let mut rng = SmallRng::seed_from_u64(10);
            let a = Genome::random(&mut rng, &unique, &Platform::edge(), 2);
            let b = Genome::random(&mut rng, &unique, &Platform::edge(), 2);
            let mut saw_a = false;
            let mut saw_b = false;
            for _ in 0..30 {
                let child = crossover(&mut rng, &a, &b);
                for (i, lg) in child.layers.iter().enumerate() {
                    if *lg == a.layers[i] {
                        saw_a = true;
                    }
                    if *lg == b.layers[i] {
                        saw_b = true;
                    }
                }
            }
            assert!(saw_a && saw_b, "crossover never mixed both parents");
        }
    }
}
