//! Job manifests: the text form in which work arrives at `digamma-serve`
//! and at `digamma-netd`'s `POST /jobs` endpoint.
//!
//! A manifest is a [`crate::textio`] document with one `[job]` section
//! per search request and nothing else; the service itself is
//! configured by the binaries' flags:
//!
//! ```text
//! # Co-design batch for the edge SoC tape-out.
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
//!                                # (default 8)
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

use crate::job::{JobAlgorithm, JobSpec};
use crate::textio::{self, Section, TextError};
use digamma::Objective;
use digamma_costmodel::Platform;
use std::collections::HashSet;

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

/// Parses a manifest's job specs, in document order.
///
/// # Errors
///
/// Returns [`TextError`] on syntax errors, unknown names or sections,
/// duplicate job names, or an empty manifest.
pub fn parse_manifest(text: &str) -> Result<Vec<JobSpec>, TextError> {
    let mut jobs = Vec::new();
    let mut names = HashSet::new();
    for section in &textio::parse_sections(text)? {
        if section.name != "job" {
            return Err(TextError::new(format!(
                "unknown section [{}] (manifests contain [job] sections only)",
                section.name
            )));
        }
        let spec = parse_job_section(section, jobs.len())?;
        if !names.insert(spec.name.clone()) {
            return Err(TextError::new(format!("duplicate job name {:?}", spec.name)));
        }
        jobs.push(spec);
    }
    if jobs.is_empty() {
        return Err(TextError::new("manifest has no [job] sections"));
    }
    Ok(jobs)
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
            ("[server]\nworkers = 2\n[job]\nmodel = ncf\n", "unknown section [server]"),
        ] {
            let err = parse_manifest(text).unwrap_err();
            assert!(err.to_string().contains(needle), "{text:?} → {err}");
        }
    }
}
