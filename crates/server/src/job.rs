//! Search jobs: what a co-design request looks like and what it returns.

use crate::textio::TextError;
use digamma::schemes::HwPreset;
use digamma::{DesignPoint, Objective};
use digamma_costmodel::Platform;
use digamma_opt::Algorithm;
use digamma_workload::{zoo, Model};
use std::fmt;
use std::time::Duration;

/// Which optimizer a job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobAlgorithm {
    /// The domain-aware co-optimization GA (hardware + mapping).
    DiGamma,
    /// Mapping-only GAMMA on one of the fixed hardware presets.
    Gamma(HwPreset),
    /// A black-box baseline through the continuous codec.
    Baseline(Algorithm),
}

impl JobAlgorithm {
    /// Parses a manifest spelling: `digamma`, `gamma:buffer`,
    /// `gamma:medium`, `gamma:compute`, or a Fig. 5 baseline name
    /// (`cma`, `random`, `stdga`, …).
    ///
    /// # Errors
    ///
    /// Returns [`TextError`] for unknown names.
    pub fn parse(s: &str) -> Result<JobAlgorithm, TextError> {
        let lower = s.trim().to_ascii_lowercase();
        match lower.as_str() {
            "digamma" => return Ok(JobAlgorithm::DiGamma),
            "gamma" | "gamma:buffer" => return Ok(JobAlgorithm::Gamma(HwPreset::BufferFocused)),
            "gamma:medium" => return Ok(JobAlgorithm::Gamma(HwPreset::MediumBufCom)),
            "gamma:compute" => return Ok(JobAlgorithm::Gamma(HwPreset::ComputeFocused)),
            _ => {}
        }
        Algorithm::from_name(&lower)
            .map(JobAlgorithm::Baseline)
            .ok_or_else(|| TextError::new(format!("unknown algorithm {s:?}")))
    }

    /// Whether the job can be checkpointed mid-run (only the stepping
    /// GA searchers can; ask/tell baselines run to completion).
    pub fn supports_checkpointing(self) -> bool {
        !matches!(self, JobAlgorithm::Baseline(_))
    }
}

impl fmt::Display for JobAlgorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobAlgorithm::DiGamma => f.write_str("digamma"),
            JobAlgorithm::Gamma(HwPreset::BufferFocused) => f.write_str("gamma:buffer"),
            JobAlgorithm::Gamma(HwPreset::MediumBufCom) => f.write_str("gamma:medium"),
            JobAlgorithm::Gamma(HwPreset::ComputeFocused) => f.write_str("gamma:compute"),
            JobAlgorithm::Baseline(a) => write!(f, "{}", a.paper_name().to_ascii_lowercase()),
        }
    }
}

/// One co-optimization request: model × platform × objective ×
/// algorithm, plus search knobs.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Unique job name (also names its checkpoint file).
    pub name: String,
    /// The tenant this job belongs to (scheduling, quotas, accounting).
    /// Defaults to [`crate::tenant::DEFAULT_TENANT`]; journals written
    /// before tenancy existed replay under that default.
    pub tenant: String,
    /// The workload to co-optimize for.
    pub model: Model,
    /// The platform envelope (area budget, bandwidths).
    pub platform: Platform,
    /// What the search minimizes.
    pub objective: Objective,
    /// Which optimizer runs the search.
    pub algorithm: JobAlgorithm,
    /// Design-point evaluation budget.
    pub budget: usize,
    /// RNG seed.
    pub seed: u64,
    /// GA population size (ignored by baselines).
    pub population_size: usize,
    /// Fitness-evaluation threads *within* the job. Defaults to 1: the
    /// server parallelizes across jobs, so per-job fan-out usually just
    /// adds oversubscription.
    pub threads: usize,
    /// Snapshot every N generations when the server has a checkpoint
    /// directory (`None` = every 8 generations).
    pub checkpoint_every: Option<u64>,
}

impl JobSpec {
    /// A job with default knobs (budget 600, seed 0, population 20,
    /// single-threaded evaluation).
    pub fn new(
        name: impl Into<String>,
        model: Model,
        platform: Platform,
        objective: Objective,
        algorithm: JobAlgorithm,
    ) -> JobSpec {
        JobSpec {
            name: name.into(),
            tenant: crate::tenant::DEFAULT_TENANT.to_owned(),
            model,
            platform,
            objective,
            algorithm,
            budget: 600,
            seed: 0,
            population_size: 20,
            threads: 1,
            checkpoint_every: None,
        }
    }

    /// The identity line stored in checkpoints: a resumed job must match
    /// it exactly, or the snapshot describes a different search.
    /// `threads` and `tenant` are deliberately excluded — both are
    /// execution/ownership details, and keeping them out lets snapshots
    /// written before tenancy existed resume bit-identically.
    pub fn fingerprint(&self) -> String {
        format!(
            "{}/{}/{}/{}/b{}/s{}/p{}",
            self.model.name(),
            self.platform.name,
            self.objective,
            self.algorithm,
            self.budget,
            self.seed,
            self.population_size
        )
    }

    /// Parses a zoo model name for a manifest entry.
    ///
    /// # Errors
    ///
    /// Returns [`TextError`] for names outside the model zoo.
    pub fn model_by_name(name: &str) -> Result<Model, TextError> {
        zoo::by_name(name).ok_or_else(|| TextError::new(format!("unknown model {name:?}")))
    }

    /// Parses a platform name (`edge` or `cloud`).
    ///
    /// # Errors
    ///
    /// Returns [`TextError`] for other names.
    pub fn platform_by_name(name: &str) -> Result<Platform, TextError> {
        match name.trim().to_ascii_lowercase().as_str() {
            "edge" => Ok(Platform::edge()),
            "cloud" => Ok(Platform::cloud()),
            other => Err(TextError::new(format!("unknown platform {other:?}"))),
        }
    }

    /// Parses an objective name (`latency`, `energy`, or `edp`).
    ///
    /// # Errors
    ///
    /// Returns [`TextError`] for other names.
    pub fn objective_by_name(name: &str) -> Result<Objective, TextError> {
        match name.trim().to_ascii_lowercase().as_str() {
            "latency" => Ok(Objective::Latency),
            "energy" => Ok(Objective::Energy),
            "edp" => Ok(Objective::Edp),
            other => Err(TextError::new(format!("unknown objective {other:?}"))),
        }
    }
}

/// What a finished job reports back.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// The job's name.
    pub name: String,
    /// The algorithm that ran (display form).
    pub algorithm: String,
    /// Best feasible design, if one was found within budget.
    pub best: Option<DesignPoint>,
    /// Design points evaluated.
    pub samples: usize,
    /// GA generations completed (0 for baselines).
    pub generations: u64,
    /// The generation a checkpoint restored, when the job resumed.
    pub resumed_at: Option<u64>,
    /// Whether the job was cancelled before exhausting its budget (the
    /// report then carries the partial best-so-far design).
    pub cancelled: bool,
    /// Per-job fitness-cache hits (0 when the server runs cache-less).
    pub cache_hits: u64,
    /// Per-job fitness-cache misses.
    pub cache_misses: u64,
    /// Per-job whole-genome memo hits: recurring genomes (elites,
    /// resubmitted populations) that skipped the per-layer loop
    /// entirely. 0 when the genome memo is disabled.
    pub genome_hits: u64,
    /// Per-job whole-genome memo misses.
    pub genome_misses: u64,
    /// Fitness-cache store calls issued by this job (the partitioning
    /// hook: how much shared-cache space each tenant's jobs claim).
    pub cache_insertions: u64,
    /// Genome-memo store calls issued by this job.
    pub genome_insertions: u64,
    /// Identical `(layer shape, mapping)` evaluations skipped by the
    /// batch-local dedupe map before reaching the cache.
    pub dedup_skipped: u64,
    /// Wall-clock the job spent searching.
    pub wall: Duration,
    /// Wall-clock between submission and a worker claiming the job
    /// ([`Duration::ZERO`] for directly-run jobs with no queue).
    pub queue_wait: Duration,
    /// Wall-clock spent inside the evaluation pipeline (decode → cost
    /// model → aggregate, including memo probes) — the "eval" slice of
    /// `wall`.
    pub eval_wall: Duration,
    /// The worker's own checkpoint time: rendering snapshots, handing
    /// them to the background writer, inline writes (a job's first
    /// snapshot and a cancel's) and waits for the writer. Background
    /// writes are timed in `digamma_checkpoint_write_seconds` only.
    pub checkpoint_wall: Duration,
}

impl JobReport {
    /// Per-job cache hit rate in `[0, 1]` (0 when cache-less).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Per-job genome-memo hit rate in `[0, 1]` (0 when disabled).
    pub fn genome_hit_rate(&self) -> f64 {
        let total = self.genome_hits + self.genome_misses;
        if total == 0 {
            0.0
        } else {
            self.genome_hits as f64 / total as f64
        }
    }

    /// One human-readable summary line.
    pub fn summary(&self) -> String {
        let outcome = match &self.best {
            Some(b) => format!(
                "cost {:.4e} | latency {:.3e} cy | area {:.3e} um2",
                b.cost, b.latency_cycles, b.area_um2
            ),
            None => "no feasible design".to_owned(),
        };
        let resumed = match self.resumed_at {
            Some(g) => format!(" | resumed@gen{g}"),
            None => String::new(),
        };
        let cancelled = if self.cancelled { " | cancelled" } else { "" };
        format!(
            "{:<24} {:<12} {} | {} samples | cache {:.0}% hit ({}h/{}m) | genome {}h | {:.2}s{}{}",
            self.name,
            self.algorithm,
            outcome,
            self.samples,
            self.cache_hit_rate() * 100.0,
            self.cache_hits,
            self.cache_misses,
            self.genome_hits,
            self.wall.as_secs_f64(),
            resumed,
            cancelled
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algorithm_names_roundtrip() {
        let all = [
            JobAlgorithm::DiGamma,
            JobAlgorithm::Gamma(HwPreset::BufferFocused),
            JobAlgorithm::Gamma(HwPreset::MediumBufCom),
            JobAlgorithm::Gamma(HwPreset::ComputeFocused),
            JobAlgorithm::Baseline(Algorithm::Cma),
            JobAlgorithm::Baseline(Algorithm::Random),
        ];
        for a in all {
            assert_eq!(JobAlgorithm::parse(&a.to_string()).unwrap(), a);
        }
        assert!(JobAlgorithm::parse("simulated-annealing").is_err());
        assert_eq!(JobAlgorithm::parse("GAMMA").unwrap(), all[1]);
    }

    #[test]
    fn only_ga_jobs_checkpoint() {
        assert!(JobAlgorithm::DiGamma.supports_checkpointing());
        assert!(JobAlgorithm::Gamma(HwPreset::MediumBufCom).supports_checkpointing());
        assert!(!JobAlgorithm::Baseline(Algorithm::Cma).supports_checkpointing());
    }

    #[test]
    fn fingerprint_tracks_every_identity_field() {
        let base = JobSpec::new(
            "j",
            zoo::ncf(),
            Platform::edge(),
            Objective::Latency,
            JobAlgorithm::DiGamma,
        );
        let fp = base.fingerprint();
        let mut other = base.clone();
        other.seed = 99;
        assert_ne!(fp, other.fingerprint());
        let mut other = base.clone();
        other.budget += 1;
        assert_ne!(fp, other.fingerprint());
        let mut other = base.clone();
        other.objective = Objective::Edp;
        assert_ne!(fp, other.fingerprint());
        // Threads are an execution detail, not identity.
        let mut other = base.clone();
        other.threads = 8;
        assert_eq!(fp, other.fingerprint());
        // Tenant is ownership, not identity: pre-tenancy snapshots must
        // still resume after a journal replays the job under "default".
        let mut other = base;
        other.tenant = "alpha".to_owned();
        assert_eq!(fp, other.fingerprint());
    }

    #[test]
    fn name_parsers_accept_known_spellings() {
        assert_eq!(JobSpec::platform_by_name("Edge").unwrap().name, "edge");
        assert!(JobSpec::platform_by_name("tpu").is_err());
        assert_eq!(JobSpec::objective_by_name("EDP").unwrap(), Objective::Edp);
        assert!(JobSpec::objective_by_name("throughput").is_err());
        assert_eq!(JobSpec::model_by_name("ncf").unwrap().name(), "ncf");
        assert!(JobSpec::model_by_name("gpt5").is_err());
    }
}
