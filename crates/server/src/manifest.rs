//! Job manifests: the text form in which work arrives at `digamma-serve`
//! and at `digamma-netd`'s `POST /jobs` endpoint.
//!
//! A manifest is a [`crate::textio`] document with one `[job]` section
//! per search request, plus an optional leading `[server]` section
//! overriding service knobs:
//!
//! ```text
//! # Co-design batch for the edge SoC tape-out.
//! [server]
//! workers = 4                    # worker threads (optional)
//! cache_capacity = 262144        # fitness memo entries, 0 = off
//! genome_cache_capacity = 65536  # whole-genome memo entries, 0 = off
//! event_log_capacity = 1024      # per-job event ring, newest N lines
//! eviction = lru                 # fifo | lru (default fifo)
//! checkpoint_every = 8           # default snapshot cadence
//!
//! [job]
//! name = ncf-edge                # default: job-<index>
//! model = ncf                    # required; any zoo name
//! platform = edge                # edge | cloud (default edge)
//! objective = latency            # latency | energy | edp (default latency)
//! algorithm = digamma            # digamma | gamma[:buffer|:medium|:compute]
//!                                # | random | stdga | pso | tbpsa
//!                                # | (1+1)-es | de | portfolio | cma
//! budget = 600                   # design evaluations (default 600)
//! seed = 1                       # RNG seed (default 0)
//! population = 20                # GA population (default 20)
//! threads = 1                    # per-job eval threads (>= 1; the
//!                                # registry clamps to its worker count)
//! checkpoint_every = 8           # generations between snapshots
//! tenant = alpha                 # owning tenant id (default "default";
//!                                # ignored when the wire front-end
//!                                # authenticates — the token decides)
//! ```
//!
//! Multi-tenant deployments additionally configure a tenant roster —
//! `digamma-netd --tenants FILE` — of `[tenant]` sections (parsed by
//! [`crate::tenant::TenantSet`], a separate document from the job
//! manifest):
//!
//! ```text
//! [tenant]
//! id = alpha                     # required; [A-Za-z0-9._-]
//! token = alpha-secret           # bearer token (optional; any token in
//!                                # the roster turns authentication on)
//! weight = 3                     # weighted-round-robin share (default 1)
//! max_queued = 100               # cap on waiting jobs (optional)
//! max_running = 2                # cap on concurrently running jobs
//! max_evals = 1000000            # lifetime submitted-eval-budget cap
//! ```

use crate::cache::EvictionPolicy;
use crate::job::{JobAlgorithm, JobSpec};
use crate::queue::ServerConfig;
use crate::textio::{self, Section, TextError};
use digamma::Objective;
use digamma_costmodel::Platform;
use std::collections::HashSet;

/// Service knobs a manifest's optional `[server]` section overrides.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerOverrides {
    /// Worker threads, when given.
    pub workers: Option<usize>,
    /// Fitness-cache capacity (`0` disables), when given.
    pub cache_capacity: Option<usize>,
    /// Whole-genome memo capacity (`0` disables), when given.
    pub genome_cache_capacity: Option<usize>,
    /// Cache eviction policy, when given.
    pub eviction: Option<EvictionPolicy>,
    /// Default snapshot cadence, when given.
    pub checkpoint_every: Option<u64>,
    /// Per-job event-log ring capacity, when given.
    pub event_log_capacity: Option<usize>,
}

impl ServerOverrides {
    /// Applies the overrides on top of a base configuration.
    pub fn apply(&self, config: &mut ServerConfig) {
        if let Some(workers) = self.workers {
            config.workers = workers;
        }
        if let Some(capacity) = self.cache_capacity {
            config.cache_capacity = capacity;
        }
        if let Some(capacity) = self.genome_cache_capacity {
            config.genome_cache_capacity = capacity;
        }
        if let Some(eviction) = self.eviction {
            config.eviction = eviction;
        }
        if let Some(every) = self.checkpoint_every {
            config.checkpoint_every = every;
        }
        if let Some(capacity) = self.event_log_capacity {
            config.event_log_capacity = capacity;
        }
    }
}

/// A fully parsed manifest: optional server overrides plus jobs in
/// document order.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// Overrides from the optional `[server]` section.
    pub server: ServerOverrides,
    /// The requested jobs, in document order.
    pub jobs: Vec<JobSpec>,
}

/// Parses one `[job]` section into a spec. `index` positions the job in
/// its document (for the default name and error messages); `name`
/// collision checks are the caller's concern.
///
/// # Errors
///
/// Returns [`TextError`] on unknown names or out-of-range knobs.
pub fn parse_job_section(section: &Section, index: usize) -> Result<JobSpec, TextError> {
    let name = section.get("name").map_or_else(|| format!("job-{index}"), str::to_owned);
    let model = JobSpec::model_by_name(section.require("model")?)?;
    let platform = match section.get("platform") {
        Some(p) => JobSpec::platform_by_name(p)?,
        None => Platform::edge(),
    };
    let objective = match section.get("objective") {
        Some(o) => JobSpec::objective_by_name(o)?,
        None => Objective::Latency,
    };
    let algorithm = match section.get("algorithm") {
        Some(a) => JobAlgorithm::parse(a)?,
        None => JobAlgorithm::DiGamma,
    };
    let mut spec = JobSpec::new(name, model, platform, objective, algorithm);
    if let Some(tenant) = section.get("tenant") {
        if !crate::tenant::valid_tenant_id(tenant) {
            return Err(TextError::new(format!(
                "job {:?}: bad tenant id {tenant:?} (use letters, digits, '.', '_', '-')",
                spec.name
            )));
        }
        spec.tenant = tenant.to_owned();
    }
    spec.budget = section.get_parsed_or("budget", spec.budget)?;
    spec.seed = section.get_parsed_or("seed", spec.seed)?;
    spec.population_size = section.get_parsed_or("population", spec.population_size)?;
    spec.threads = section.get_parsed_or("threads", spec.threads)?;
    spec.checkpoint_every = section
        .get("checkpoint_every")
        .map(str::parse)
        .transpose()
        .map_err(|_| TextError::new(format!("[job {}] has bad `checkpoint_every`", index)))?;
    if spec.population_size < 4 {
        return Err(TextError::new(format!("job {:?}: population must be at least 4", spec.name)));
    }
    if spec.budget == 0 {
        return Err(TextError::new(format!("job {:?}: budget must be positive", spec.name)));
    }
    if spec.threads == 0 {
        return Err(TextError::new(format!("job {:?}: threads must be at least 1", spec.name)));
    }
    Ok(spec)
}

/// Renders a spec back to its `[job]` section — the inverse of the
/// per-job parsing in [`parse_manifest`] (the job journal persists specs
/// this way).
///
/// The model must be a zoo model (manifest-submitted jobs always are);
/// composite or hand-built models have no manifest name to round-trip.
pub fn render_job(spec: &JobSpec) -> Section {
    let mut section = Section::new("job");
    section.push("name", &spec.name);
    section.push("tenant", &spec.tenant);
    section.push("model", spec.model.name());
    section.push("platform", &spec.platform.name);
    section.push("objective", spec.objective.to_string());
    section.push("algorithm", spec.algorithm.to_string());
    section.push("budget", spec.budget.to_string());
    section.push("seed", spec.seed.to_string());
    section.push("population", spec.population_size.to_string());
    section.push("threads", spec.threads.to_string());
    if let Some(every) = spec.checkpoint_every {
        section.push("checkpoint_every", every.to_string());
    }
    section
}

fn parse_server_section(section: &Section) -> Result<ServerOverrides, TextError> {
    let mut overrides = ServerOverrides::default();
    for (key, value) in &section.entries {
        match key.as_str() {
            "workers" => overrides.workers = Some(section.get_parsed_or("workers", 0)?),
            "cache_capacity" => {
                overrides.cache_capacity = Some(section.get_parsed_or("cache_capacity", 0)?);
            }
            "genome_cache_capacity" => {
                overrides.genome_cache_capacity =
                    Some(section.get_parsed_or("genome_cache_capacity", 0)?);
            }
            "event_log_capacity" => {
                overrides.event_log_capacity =
                    Some(section.get_parsed_or("event_log_capacity", 0)?);
            }
            "eviction" => {
                overrides.eviction = Some(EvictionPolicy::parse(value).ok_or_else(|| {
                    TextError::new(format!("[server] has bad `eviction`: {value:?} (fifo | lru)"))
                })?);
            }
            "checkpoint_every" => {
                overrides.checkpoint_every = Some(section.get_parsed_or("checkpoint_every", 0)?);
            }
            other => {
                return Err(TextError::new(format!("[server] has unknown key `{other}`")));
            }
        }
    }
    if overrides.workers == Some(0) {
        return Err(TextError::new("[server] workers must be at least 1"));
    }
    Ok(overrides)
}

/// Parses a whole manifest: an optional leading `[server]` section plus
/// job specs in document order.
///
/// # Errors
///
/// Returns [`TextError`] on syntax errors, unknown names or sections,
/// duplicate job names, or an empty manifest.
pub fn parse_manifest_full(text: &str) -> Result<Manifest, TextError> {
    let sections = textio::parse_sections(text)?;
    let mut server = ServerOverrides::default();
    let mut jobs = Vec::new();
    let mut names = HashSet::new();
    for section in &sections {
        match section.name.as_str() {
            "server" => {
                if !jobs.is_empty() {
                    return Err(TextError::new("[server] must precede the [job] sections"));
                }
                server = parse_server_section(section)?;
            }
            "job" => {
                let spec = parse_job_section(section, jobs.len())?;
                if !names.insert(spec.name.clone()) {
                    return Err(TextError::new(format!("duplicate job name {:?}", spec.name)));
                }
                jobs.push(spec);
            }
            other => {
                return Err(TextError::new(format!(
                    "unknown section [{other}] (manifests contain [server] and [job])"
                )));
            }
        }
    }
    if jobs.is_empty() {
        return Err(TextError::new("manifest has no [job] sections"));
    }
    Ok(Manifest { server, jobs })
}

/// Parses a manifest's job specs, in document order (the historical
/// entry point; server overrides, if any, are validated and dropped).
///
/// # Errors
///
/// See [`parse_manifest_full`].
pub fn parse_manifest(text: &str) -> Result<Vec<JobSpec>, TextError> {
    Ok(parse_manifest_full(text)?.jobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use digamma::schemes::HwPreset;
    use digamma_opt::Algorithm;

    #[test]
    fn full_manifest_parses() {
        let text = "\
# batch
[job]
name = ncf-edge
model = ncf
platform = edge
objective = latency
algorithm = digamma
budget = 500
seed = 7
population = 16
threads = 2
checkpoint_every = 4

[job]
model = dlrm
platform = cloud
objective = edp
algorithm = gamma:compute

[job]
model = ncf
algorithm = cma
";
        let jobs = parse_manifest(text).unwrap();
        assert_eq!(jobs.len(), 3);
        assert_eq!(jobs[0].name, "ncf-edge");
        assert_eq!(jobs[0].budget, 500);
        assert_eq!(jobs[0].seed, 7);
        assert_eq!(jobs[0].population_size, 16);
        assert_eq!(jobs[0].threads, 2);
        assert_eq!(jobs[0].checkpoint_every, Some(4));
        assert_eq!(jobs[1].name, "job-1");
        assert_eq!(jobs[1].platform.name, "cloud");
        assert_eq!(jobs[1].objective, Objective::Edp);
        assert_eq!(jobs[1].algorithm, JobAlgorithm::Gamma(HwPreset::ComputeFocused));
        assert_eq!(jobs[2].algorithm, JobAlgorithm::Baseline(Algorithm::Cma));
        assert_eq!(jobs[2].budget, 600, "defaults apply");
    }

    #[test]
    fn server_section_overrides_apply() {
        let text = "\
[server]
workers = 3
cache_capacity = 1024
genome_cache_capacity = 512
event_log_capacity = 64
eviction = lru

[job]
model = ncf
";
        let manifest = parse_manifest_full(text).unwrap();
        let mut config = ServerConfig::default();
        manifest.server.apply(&mut config);
        assert_eq!(config.workers, 3);
        assert_eq!(config.cache_capacity, 1024);
        assert_eq!(config.genome_cache_capacity, 512);
        assert_eq!(config.event_log_capacity, 64);
        assert_eq!(config.eviction, EvictionPolicy::Lru);
        // Absent keys leave the base config alone.
        assert_eq!(config.checkpoint_every, ServerConfig::default().checkpoint_every);
        // Bad values and misplaced sections are named errors.
        for (text, needle) in [
            ("[server]\neviction = 2q\n[job]\nmodel = ncf\n", "eviction"),
            ("[server]\nworkers = 0\n[job]\nmodel = ncf\n", "workers"),
            ("[server]\nquota = 9\n[job]\nmodel = ncf\n", "unknown key"),
            ("[job]\nmodel = ncf\n[server]\nworkers = 2\n", "precede"),
        ] {
            let err = parse_manifest_full(text).unwrap_err();
            assert!(err.to_string().contains(needle), "{text:?} → {err}");
        }
    }

    #[test]
    fn job_sections_roundtrip_through_render() {
        let text = "\
[job]
name = vgg-cloud
model = vgg16
platform = cloud
objective = edp
algorithm = gamma:medium
budget = 4000
seed = 13
population = 24
threads = 2
checkpoint_every = 5
";
        let spec = &parse_manifest(text).unwrap()[0];
        let rendered = render_job(spec).render();
        let sections = textio::parse_sections(&rendered).unwrap();
        let back = parse_job_section(&sections[0], 0).unwrap();
        assert_eq!(back.name, spec.name);
        assert_eq!(back.fingerprint(), spec.fingerprint());
        assert_eq!(back.threads, spec.threads);
        assert_eq!(back.checkpoint_every, spec.checkpoint_every);
        assert_eq!(back.tenant, "default", "absent tenant key defaults");
    }

    #[test]
    fn tenant_key_roundtrips_and_defaults() {
        let jobs =
            parse_manifest("[job]\nmodel = ncf\ntenant = alpha\n[job]\nmodel = dlrm\n").unwrap();
        assert_eq!(jobs[0].tenant, "alpha");
        assert_eq!(jobs[1].tenant, "default");
        let rendered = render_job(&jobs[0]).render();
        let back = parse_job_section(&textio::parse_sections(&rendered).unwrap()[0], 0).unwrap();
        assert_eq!(back.tenant, "alpha");
    }

    #[test]
    fn errors_name_the_problem() {
        for (text, needle) in [
            ("", "no [job]"),
            ("[job]\n", "missing `model`"),
            ("[job]\nmodel = gpt5\n", "unknown model"),
            ("[job]\nmodel = ncf\nplatform = tpu\n", "unknown platform"),
            ("[job]\nmodel = ncf\nalgorithm = annealing\n", "unknown algorithm"),
            ("[job]\nmodel = ncf\nbudget = 0\n", "budget"),
            ("[job]\nmodel = ncf\npopulation = 2\n", "population"),
            ("[job]\nmodel = ncf\nthreads = 0\n", "threads"),
            ("[job]\nmodel = ncf\ntenant = no spaces\n", "bad tenant id"),
            ("[job]\nname = a\nmodel = ncf\n[job]\nname = a\nmodel = ncf\n", "duplicate"),
            ("[batch]\n", "unknown section"),
        ] {
            let err = parse_manifest(text).unwrap_err();
            assert!(err.to_string().contains(needle), "{text:?} → {err}");
        }
    }
}
