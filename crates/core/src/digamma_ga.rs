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

use crate::problem::{CoOptProblem, Constraint, DesignEvaluation, LayerCost, Parent};
use crate::result::{DesignPoint, SearchResult};
use digamma_costmodel::HwConfig;
use digamma_encoding::{log_uniform, repair, Genome};
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
    /// Each member's per-layer costs, which its children reuse for the
    /// layers they did not change. Derived data: recomputed by
    /// [`DiGamma::restore`], never snapshotted.
    costs: Vec<Vec<LayerCost>>,
    best: Option<(Genome, DesignEvaluation)>,
    /// The incumbent's per-layer costs, which exploiters reuse.
    best_costs: Vec<LayerCost>,
    /// [`CoOptProblem::identity`] of the problem the costs hold on; a
    /// step on any other problem reuses none of them.
    costs_problem: u64,
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

    fn record(&mut self, genomes: &[Genome], evals: &[DesignEvaluation], costs: &[Vec<LayerCost>]) {
        for ((g, e), c) in genomes.iter().zip(evals).zip(costs) {
            self.samples += 1;
            let better = e.feasible && self.best.as_ref().is_none_or(|(_, b)| e.cost < b.cost);
            if better {
                self.best = Some((g.clone(), *e));
                self.best_costs.clone_from(c);
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
                let genes = lg.levels.get(lvl).copied().unwrap_or_default();
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
            costs: Vec::new(),
            best: None,
            best_costs: Vec::new(),
            costs_problem: problem.identity(),
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
                Constraint::FixedHw(hw) => vec![*hw],
                // For co-optimization, seed each preset twice: at full
                // buffer fill (best immediate cost) and at half fill —
                // the half-fill seeds leave area slack so Mutate-HW /
                // tile-growth mutations have room to move.
                Constraint::None => crate::schemes::HwPreset::ALL
                    .iter()
                    .flat_map(|p| {
                        let full = p.build(platform, problem.evaluator().area_model());
                        let mut half = full;
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
                pin_fanouts(&mut g, hw);
            }
            population.push(g);
        }
        let (evals, costs) = unzip(problem.evaluate_children(&population, &[], cfg.threads));
        state.record(&population, &evals, &costs);
        if cfg.analytics {
            // Generation 0 returns after the cost point; the
            // accumulator arguments are never read.
            state.push_analytics(&population, &evals, 0.0, 0);
        }
        state.population = population;
        state.evals = evals;
        state.costs = costs;
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
        // Each child names the parents whose per-layer costs it may
        // reuse — none when the costs were computed on another problem.
        let reuse = state.costs_problem == problem.identity();
        let member = |i: usize| {
            reuse.then(|| Parent { genome: &state.population[i], costs: &state.costs[i] })
        };
        let mut parents: Vec<[Option<Parent<'_>>; 2]> = Vec::with_capacity(want);
        // Elites survive unchanged. Each is its own parent, so it reuses
        // every per-layer cost and is only re-aggregated; an attached
        // genome memo is still probed and answers it.
        for &i in order.iter().take(elites.min(want)) {
            children.push(state.population[i].clone());
            parents.push([member(i), None]);
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
                pin_fanouts(&mut g, hw);
            }
            children.push(g);
            parents.push([None, None]);
            if let Some(tags) = &mut provenance {
                tags.push((OpKind::Immigrant, median_cost));
            }
        }
        // Exploiters: single-mutation neighbours of the incumbent
        // best — cheap hill-climbing woven into the generation.
        if let Some((best_genome, best_eval)) = &state.best {
            let incumbent_cost = best_eval.cost;
            let incumbent =
                reuse.then_some(Parent { genome: best_genome, costs: &state.best_costs });
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
                    pin_fanouts(&mut g, hw);
                }
                children.push(g);
                parents.push([incumbent, None]);
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
            let (mut child, reference, parent_b) = if crossed {
                let parent_b_idx = tournament(&mut rng, &order, &state.evals);
                let parent_b = &state.population[parent_b_idx];
                // A crossover child improves when it beats its *better*
                // parent — beating the worse one is not a win.
                let reference = parent_a_cost.min(state.evals[parent_b_idx].cost);
                (
                    operators::crossover(&mut rng, parent_a, parent_b),
                    reference,
                    member(parent_b_idx),
                )
            } else {
                (parent_a.clone(), parent_a_cost, None)
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
                pin_fanouts(&mut child, hw);
            }
            children.push(child);
            parents.push([member(parent_a_idx), parent_b]);
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

        let (child_evals, child_costs) =
            unzip(problem.evaluate_children(&children, &parents, cfg.threads));
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
        state.record(&children, &child_evals, &child_costs);
        if cfg.analytics {
            state.push_analytics(&children, &child_evals, cost_sum, feasible);
        }
        state.population = children;
        state.evals = child_evals;
        state.costs = child_costs;
        state.costs_problem = problem.identity();
        true
    }

    /// Rebuilds a [`SearchState`] from checkpointed data.
    ///
    /// Per-genome evaluations and per-layer costs are *recomputed*
    /// (evaluation is pure and deterministic, and cheap again under a
    /// fitness cache), so checkpoints carry only genomes, history, and
    /// counters. The restored state continues exactly where
    /// [`DiGamma::step`] left off: resuming reproduces an uninterrupted
    /// run bit-for-bit because each generation reseeds its RNG from
    /// `(seed, generation)`.
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
        let (evals, costs) =
            unzip(problem.evaluate_children(&population, &[], self.config.threads));
        let (best, best_costs) = match best {
            Some(g) => {
                let (e, c) = problem.evaluate_with_costs(&g);
                (Some((g, e)), c)
            }
            None => (None, Vec::new()),
        };
        SearchState {
            population,
            evals,
            costs,
            best,
            best_costs,
            costs_problem: problem.identity(),
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

/// Splits a batch's `(evaluation, per-layer costs)` pairs.
fn unzip(
    scored: Vec<(DesignEvaluation, Vec<LayerCost>)>,
) -> (Vec<DesignEvaluation>, Vec<Vec<LayerCost>>) {
    scored.into_iter().unzip()
}

/// Pins `g` to the fixed hardware's fan-outs, dropping any level a
/// layer holds past them: Grow adds one that decoding would ignore, and
/// a genome's layers never hold more levels than it has fan-outs.
fn pin_fanouts(g: &mut Genome, hw: &HwConfig) {
    g.fanouts = hw.fanouts;
    for lg in &mut g.layers {
        lg.levels.truncate(hw.fanouts.len());
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
                    *cl = *bl;
                }
            }
            if rng.gen_bool(0.5) {
                child.fanouts = b.fanouts;
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
                genes.tile[dim] = log_uniform(rng, max);
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
                g.fanouts[i] = log_uniform(rng, max_pes);
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
            fanouts: [8, 16].into(),
            l2_words: 32 * 1024,
            mid_words_per_unit: [].into(),
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

    /// The lineage path (children reusing their parents' per-layer
    /// costs) against from-scratch evaluation on a memo-less problem.
    mod lineage {
        use super::super::operators::*;
        use super::*;
        use crate::problem::tests::CountingMemo;
        use digamma_costmodel::CostReport;
        use proptest::prelude::*;
        use rand::SeedableRng;
        use std::sync::atomic::Ordering;
        use std::sync::Arc;

        fn fixed_hw() -> HwConfig {
            HwConfig {
                fanouts: [8, 16].into(),
                l2_words: 32 * 1024,
                mid_words_per_unit: [].into(),
                l1_words_per_pe: 128,
            }
        }

        fn problem(fixed: bool) -> CoOptProblem {
            let p = CoOptProblem::new(zoo::ncf(), Platform::edge(), Objective::Latency);
            if fixed {
                p.with_constraint(Constraint::FixedHw(fixed_hw()))
            } else {
                p
            }
        }

        /// Field-by-field, bit-for-bit equality of two evaluations.
        fn assert_same(got: &DesignEvaluation, want: &DesignEvaluation, what: &str) {
            let bits = |e: &DesignEvaluation| {
                [e.cost, e.latency_cycles, e.energy_pj, e.area_um2, e.pe_area_um2].map(f64::to_bits)
            };
            assert_eq!(bits(got), bits(want), "{what}: cost fields differ");
            assert_eq!(got.feasible, want.feasible, "{what}: feasibility differs");
            assert_eq!(got.hw, want.hw, "{what}: hardware differs");
        }

        /// Checks every child of one batch against `reference`: the
        /// evaluation bit for bit, and the costs either empty or the
        /// from-scratch costs (never empty without a genome memo unless
        /// the evaluation failed).
        fn check_batch(
            scored: &[(DesignEvaluation, Vec<LayerCost>)],
            children: &[Genome],
            reference: &CoOptProblem,
            genome_memo: bool,
        ) {
            let fresh = reference.evaluate_children(children, &[], 1);
            for (i, ((e, costs), (want, want_costs))) in scored.iter().zip(&fresh).enumerate() {
                assert_same(e, &reference.evaluate(&children[i]), &format!("child {i}"));
                assert_same(e, want, &format!("child {i} (batch)"));
                if !costs.is_empty() {
                    assert_eq!(costs, want_costs, "child {i}: reused costs differ");
                } else if !genome_memo {
                    assert!(want_costs.is_empty(), "child {i} lost its costs");
                }
            }
        }

        /// One member's parent handle.
        fn parent<'a>(
            population: &'a [Genome],
            scored: &'a [(DesignEvaluation, Vec<LayerCost>)],
            i: usize,
        ) -> Option<Parent<'a>> {
            Some(Parent { genome: &population[i], costs: &scored[i].1 })
        }

        /// The children of every operator, each with the parents it
        /// names (indices into `population`), as `DiGamma::step` makes
        /// them; member 0 is the incumbent.
        fn offspring(
            rng: &mut SmallRng,
            population: &[Genome],
            p: &CoOptProblem,
        ) -> (Vec<Genome>, Vec<[Option<usize>; 2]>) {
            let unique = p.unique_layers();
            let platform = p.platform();
            let finish = |g: &mut Genome| {
                repair(g, unique, platform);
                if let Constraint::FixedHw(hw) = p.constraint() {
                    pin_fanouts(g, hw);
                }
            };
            let n = population.len();
            let mut children = Vec::new();
            let mut parents = Vec::new();
            let mut push = |g: Genome, a: Option<usize>, b: Option<usize>| {
                children.push(g);
                parents.push([a, b]);
            };
            // Elites, the broken member among them.
            for i in [0, 1, n - 1] {
                push(population[i].clone(), Some(i), None);
            }
            // Exploiters: one layer or the PE array of the incumbent.
            for _ in 0..2 {
                let mut g = population[0].clone();
                let li = rng.gen_range(0..g.layers.len());
                mutate_one_layer(rng, &mut g, unique, li);
                finish(&mut g);
                push(g, Some(0), None);
            }
            let mut g = population[0].clone();
            mutate_hw(rng, &mut g, platform.max_pes);
            finish(&mut g);
            push(g, Some(0), None);
            // Grow/age on every member, so 3-level genomes grow, age
            // back, and (under a fixed PE array) get pinned.
            for (i, member) in population.iter().enumerate() {
                let mut g = member.clone();
                grow_or_age(rng, &mut g);
                finish(&mut g);
                push(g, Some(i), None);
            }
            // Crossover over every pair, across unequal level counts
            // too, then Reorder and Mutate-Map as the main loop does.
            for a in 0..n {
                for b in [(a + 1) % n, (a + 3) % n] {
                    let mut g = crossover(rng, &population[a], &population[b]);
                    reorder(rng, &mut g, 0.1);
                    if rng.gen_bool(0.5) {
                        mutate_map(rng, &mut g, unique, 0.1);
                    }
                    finish(&mut g);
                    push(g, Some(a), Some(b));
                }
            }
            // An immigrant, and a duplicate child for the batch dedupe.
            let mut g = Genome::random(rng, unique, platform, 2);
            finish(&mut g);
            push(g, None, None);
            children.push(children[4].clone());
            parents.push(parents[4]);
            (children, parents)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(12))]

            /// Three generations of every operator's children, evaluated
            /// through their parents' costs, match from-scratch
            /// evaluation under both constraints, with a parent whose
            /// evaluation failed, and with each memo attached.
            #[test]
            fn lineage_matches_from_scratch_evaluation(
                seed in 0u64..1_000_000,
                fixed in 0usize..2,
                memos in 0usize..4,
                threads in 1usize..3,
            ) {
                let fixed = fixed == 1;
                let reference = problem(fixed);
                let genome_memo = Arc::new(CountingMemo::<DesignEvaluation>::default());
                let cache = Arc::new(CountingMemo::<Arc<CostReport>>::default());
                let mut p = problem(fixed);
                if memos & 1 == 1 {
                    p = p.with_cache(Arc::clone(&cache) as _);
                }
                if memos & 2 == 2 {
                    p = p.with_genome_memo(Arc::clone(&genome_memo) as _);
                }
                let mut rng = SmallRng::seed_from_u64(seed);
                let unique = p.unique_layers();
                let mut population: Vec<Genome> = (0..6)
                    .map(|_| Genome::random(&mut rng, unique, p.platform(), 2))
                    .collect();
                // A 3-level member, and one whose evaluation fails (a
                // loop order that is no permutation).
                grow_or_age(&mut rng, &mut population[1]);
                population[5].layers[0].levels[0].order = [Dim::K; NUM_DIMS];
                for g in &mut population {
                    repair(g, unique, p.platform());
                    if let Constraint::FixedHw(hw) = p.constraint() {
                        pin_fanouts(g, hw);
                    }
                }
                let mut scored = p.evaluate_children(&population, &[], threads);
                check_batch(&scored, &population, &reference, memos & 2 == 2);
                prop_assert!(scored[5].1.is_empty(), "a failed evaluation keeps no costs");
                prop_assert!(scored[5].0.cost >= 1e18);

                for _ in 0..3 {
                    let (children, lineage) = offspring(&mut rng, &population, &p);
                    let parents: Vec<[Option<Parent<'_>>; 2]> = lineage
                        .iter()
                        .map(|pair| pair.map(|i| i.and_then(|i| parent(&population, &scored, i))))
                        .collect();
                    let probes = genome_memo.hits.load(Ordering::Relaxed)
                        + genome_memo.misses.load(Ordering::Relaxed);
                    let next = p.evaluate_children(&children, &parents, threads);
                    check_batch(&next, &children, &reference, memos & 2 == 2);
                    if memos & 2 == 2 {
                        let after = genome_memo.hits.load(Ordering::Relaxed)
                            + genome_memo.misses.load(Ordering::Relaxed);
                        prop_assert_eq!(after - probes, children.len() as u64);
                    }
                    // Elites of members with costs keep all of them.
                    for (i, pair) in lineage.iter().enumerate().take(2) {
                        let from = pair[0].unwrap();
                        prop_assert_eq!(&next[i].1, &scored[from].1);
                    }
                    // The next parents, with the costs this batch gave
                    // them: the incumbent's elite copy, an exploiter,
                    // a grown or aged member, two crossover children,
                    // and the broken member's elite copy last.
                    let keep = [0, 3, 7, 12, 15, 2];
                    population = keep.iter().map(|&i| children[i].clone()).collect();
                    scored = keep.iter().map(|&i| next[i].clone()).collect();
                    prop_assert!(scored[5].1.is_empty());
                }
            }
        }

        /// Every generation of real searches — grow/aging at a high rate,
        /// with and without a fixed PE array, with a genome memo — holds
        /// evaluations and per-layer costs equal to from-scratch ones.
        #[test]
        fn search_state_matches_from_scratch_every_generation() {
            for (fixed, memo) in [(false, false), (true, false), (false, true)] {
                let reference = problem(fixed);
                let mut p = problem(fixed);
                if memo {
                    let memo = Arc::new(CountingMemo::<DesignEvaluation>::default());
                    p = p.with_genome_memo(memo as _);
                }
                let ga = DiGamma::new(DiGammaConfig { grow_aging_rate: 0.5, ..quick_config(5) });
                let mut state = ga.init(&p, 200);
                while ga.step(&p, &mut state, 200) {
                    let fresh = reference.evaluate_children(&state.population, &[], 1);
                    for (i, (want, want_costs)) in fresh.iter().enumerate() {
                        assert_same(&state.evals[i], want, &format!("member {i}"));
                        let costs = &state.costs[i];
                        assert!(costs.is_empty() || costs == want_costs, "member {i}");
                        assert!(memo || !costs.is_empty() || want_costs.is_empty(), "member {i}");
                    }
                }
            }
        }

        /// A state stepped on another problem than the one its costs
        /// were computed on reuses none of them.
        #[test]
        fn step_on_another_problem_reuses_no_costs() {
            let edge = problem(false);
            let cloud = CoOptProblem::new(zoo::ncf(), Platform::cloud(), Objective::Latency);
            let ga = DiGamma::new(quick_config(9));
            let mut state = ga.init(&edge, 64);
            ga.step(&cloud, &mut state, 64);
            for (g, e) in state.population.iter().zip(&state.evals) {
                assert_same(e, &cloud.evaluate(g), "stepped on cloud");
            }
        }

        /// A genome-memo hit keeps per-layer costs only when every layer
        /// is reused from a parent.
        #[test]
        fn memo_hit_keeps_costs_only_when_every_layer_is_reused() {
            let memo = Arc::new(CountingMemo::<DesignEvaluation>::default());
            let p = problem(false).with_genome_memo(Arc::clone(&memo) as _);
            let unique = p.unique_layers();
            let mut rng = SmallRng::seed_from_u64(3);
            let x = Genome::random(&mut rng, unique, p.platform(), 2);
            let last = x.layers.len() - 1;
            assert!(last >= 1, "needs a layer before the mutated one");
            let mut y = x.clone();
            while y.layers[last] == x.layers[last] {
                mutate_one_layer(&mut rng, &mut y, unique, last);
                repair(&mut y, unique, p.platform());
            }
            let scored = p.evaluate_children(&[x.clone(), y.clone()], &[], 1);
            assert!(!scored[0].1.is_empty() && !scored[1].1.is_empty());
            let child_of = |g: &Genome, costs: &[LayerCost]| {
                p.evaluate_children(
                    std::slice::from_ref(&x),
                    &[[Some(Parent { genome: g, costs }), None]],
                    1,
                )
                .remove(0)
            };
            // `x` again as `y`'s child: a hit whose last layer changed.
            let (e, costs) = child_of(&y, &scored[1].1);
            assert_same(&e, &scored[0].0, "hit");
            assert!(costs.is_empty(), "a hit with a changed layer keeps no costs");
            // `x` as its own child: every layer reused.
            let (e, costs) = child_of(&x, &scored[0].1);
            assert_same(&e, &scored[0].0, "elite hit");
            assert_eq!(costs, scored[0].1);
            assert_eq!(memo.hits.load(Ordering::Relaxed), 2);
            assert_eq!(memo.misses.load(Ordering::Relaxed), 2);
        }

        /// A search's per-layer cache sees the same misses as replaying
        /// its populations with no parents: a reused layer's key was
        /// always computed for an ancestor first. Hits fall, because
        /// reused layers are not probed.
        #[test]
        fn lineage_computes_each_distinct_layer_key_once() {
            for fixed in [false, true] {
                let cache = Arc::new(CountingMemo::<Arc<CostReport>>::default());
                let p = problem(fixed).with_cache(Arc::clone(&cache) as _);
                let ga = DiGamma::new(DiGammaConfig { grow_aging_rate: 0.3, ..quick_config(8) });
                let mut state = ga.init(&p, 240);
                let mut populations = vec![state.population().to_vec()];
                while ga.step(&p, &mut state, 240) {
                    populations.push(state.population().to_vec());
                }
                let replay_cache = Arc::new(CountingMemo::<Arc<CostReport>>::default());
                let replay = problem(fixed).with_cache(Arc::clone(&replay_cache) as _);
                for population in &populations {
                    replay.evaluate_batch(population, 1);
                }
                let count = |m: &CountingMemo<Arc<CostReport>>| {
                    (m.hits.load(Ordering::Relaxed), m.misses.load(Ordering::Relaxed))
                };
                let ((hits, misses), (replay_hits, replay_misses)) =
                    (count(&cache), count(&replay_cache));
                assert_eq!(misses, replay_misses, "fixed = {fixed}");
                assert!(hits < replay_hits, "fixed = {fixed}: {hits} vs {replay_hits}");
            }
        }
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
            let fanouts = g.fanouts;
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
