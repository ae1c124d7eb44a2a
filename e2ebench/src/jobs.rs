//! The job manifests the benchmark generates from its seed, and the
//! in-process searches they describe.
//!
//! Every input the program under test receives is one of these
//! manifests (as text over HTTP, or parsed into a `JobSpec` for the
//! in-process workloads), and every manifest is a pure function of the
//! run's `--seed`.

use crate::stats::mix;
use digamma::{CoOptProblem, DiGamma, DiGammaConfig};
use digamma_server::{parse_manifest, JobSpec};

/// `search`: the model × platform set, sample budget, and population.
pub const SEARCH_MODELS: [&str; 3] = ["vgg16", "mnasnet", "bert"];
pub const SEARCH_PLATFORMS: [&str; 2] = ["edge", "cloud"];
pub const SEARCH_BUDGET: usize = 1200;
pub const SEARCH_POPULATION: usize = 60;
/// Seeds per model × platform case, so one pass averages over several.
pub const SEARCH_SEEDS_PER_CASE: usize = 4;

/// Serve workloads: the small-job budget and population.
pub const SERVE_BUDGET: usize = 400;
pub const SERVE_POPULATION: usize = 16;
/// `serve-persist` snapshots every this many generations.
pub const PERSIST_CHECKPOINT_EVERY: u64 = 4;
/// `serve-repeat` cycles through this many fixed specs.
pub const REPEAT_SPECS: usize = 4;

/// One generated job.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    pub name: String,
    pub model: &'static str,
    pub platform: &'static str,
    pub budget: usize,
    pub population: usize,
    pub seed: u64,
    pub checkpoint_every: Option<u64>,
}

impl Job {
    /// The job as a one-section manifest (latency objective, DiGamma,
    /// one evaluation thread).
    pub fn manifest(&self) -> String {
        let mut text = format!(
            "[job]\nname = {}\nmodel = {}\nplatform = {}\nobjective = latency\nalgorithm = digamma\nbudget = {}\npopulation = {}\nseed = {}\nthreads = 1\n",
            self.name, self.model, self.platform, self.budget, self.population, self.seed
        );
        if let Some(every) = self.checkpoint_every {
            text.push_str(&format!("checkpoint_every = {every}\n"));
        }
        text
    }

    /// The manifest parsed the way the service parses it.
    ///
    /// # Errors
    ///
    /// Returns the parser's message (a bug in [`Job::manifest`]).
    pub fn spec(&self) -> Result<JobSpec, String> {
        let mut specs = parse_manifest(&self.manifest()).map_err(|e| e.to_string())?;
        specs.pop().ok_or_else(|| "empty manifest".to_owned())
    }
}

/// `search`'s cases: every model on every platform, each with
/// [`SEARCH_SEEDS_PER_CASE`] seeds.
pub fn search_jobs(seed: u64) -> Vec<Job> {
    let mut jobs = Vec::new();
    for model in SEARCH_MODELS {
        for platform in SEARCH_PLATFORMS {
            for r in 0..SEARCH_SEEDS_PER_CASE {
                jobs.push(Job {
                    name: format!("search-{model}-{platform}-{r}"),
                    model,
                    platform,
                    budget: SEARCH_BUDGET,
                    population: SEARCH_POPULATION,
                    seed: mix(seed, jobs.len() as u64),
                    checkpoint_every: None,
                });
            }
        }
    }
    jobs
}

/// `serve-persist`'s `k`-th job: a small `ncf` search with its own
/// seed, snapshotting every [`PERSIST_CHECKPOINT_EVERY`] generations.
pub fn persist_job(seed: u64, k: usize) -> Job {
    Job {
        name: format!("persist-{k}"),
        model: "ncf",
        platform: "edge",
        budget: SERVE_BUDGET,
        population: SERVE_POPULATION,
        seed: mix(seed, k as u64),
        checkpoint_every: Some(PERSIST_CHECKPOINT_EVERY),
    }
}

/// Which of the [`REPEAT_SPECS`] fixed specs `serve-repeat`'s `k`-th job
/// runs: every pass of [`REPEAT_SPECS`] jobs holds each spec once, in an
/// order rotated by the seed.
pub fn repeat_spec(seed: u64, k: usize) -> usize {
    let pass = k / REPEAT_SPECS;
    (k + (mix(seed, pass as u64) % REPEAT_SPECS as u64) as usize) % REPEAT_SPECS
}

/// `serve-repeat`'s `k`-th job: one of [`REPEAT_SPECS`] fixed `resnet18`
/// specs (alternating platforms, seeds 1, 2, ...). The specs are fixed so
/// the workload's answers, and its quality figure, do not vary with the
/// run's seed; the seed orders them.
pub fn repeat_job(seed: u64, k: usize) -> Job {
    let spec = repeat_spec(seed, k);
    Job {
        name: format!("repeat-{k}"),
        model: "resnet18",
        platform: if spec.is_multiple_of(2) { "edge" } else { "cloud" },
        budget: SERVE_BUDGET,
        population: SERVE_POPULATION,
        seed: spec as u64 + 1,
        checkpoint_every: None,
    }
}

/// A fresh problem for `spec`, with no memo attached.
pub fn problem(spec: &JobSpec) -> CoOptProblem {
    CoOptProblem::new(spec.model.clone(), spec.platform.clone(), spec.objective)
}

/// The searcher `spec` describes, configured as the service configures
/// a DiGamma job.
pub fn searcher(spec: &JobSpec) -> DiGamma {
    DiGamma::new(DiGammaConfig {
        population_size: spec.population_size,
        seed: spec.seed,
        threads: spec.threads,
        ..Default::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifests_parse_back_to_the_generated_job() {
        for job in search_jobs(7).into_iter().chain([persist_job(7, 3), repeat_job(7, 5)]) {
            let spec = job.spec().unwrap();
            assert_eq!(spec.name, job.name);
            assert_eq!(spec.model.name(), job.model);
            assert_eq!(spec.platform.name, job.platform);
            assert_eq!((spec.budget, spec.seed), (job.budget, job.seed));
            assert_eq!(spec.population_size, job.population);
            assert_eq!(spec.checkpoint_every, job.checkpoint_every);
            assert_eq!(spec.threads, 1);
        }
    }

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        assert_eq!(search_jobs(1), search_jobs(1));
        assert_ne!(search_jobs(1), search_jobs(2));
        assert_ne!(persist_job(1, 0).seed, persist_job(1, 1).seed);
        for seed in [1, 2] {
            let mut specs: Vec<usize> = (4..8).map(|k| repeat_spec(seed, k)).collect();
            specs.sort_unstable();
            assert_eq!(specs, [0, 1, 2, 3], "each pass runs every spec once");
        }
        let order = |seed| (0..40).map(|k| repeat_spec(seed, k)).collect::<Vec<_>>();
        assert_ne!(order(1), order(2));
    }
}
