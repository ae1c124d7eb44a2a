//! `digamma-server`: a concurrent search service over the DiGamma
//! co-optimization library.
//!
//! The library crates answer one question at a time ("best design for
//! this model on this platform"); this crate is the layer between those
//! calls and a service that answers *many* users' questions fast:
//!
//! * [`SearchServer`] / [`JobSpec`] — a job queue that schedules
//!   co-optimization requests (model × platform × objective ×
//!   algorithm) across a scoped-thread worker pool,
//! * [`ShardedMemo`] — the capacity-bounded sharded memo behind both
//!   memo layers: [`ShardedFitnessCache`] holds per-layer cost-model
//!   results keyed by a stable hash of (layer shape, decoded mapping,
//!   hardware/model constants), so hits skip the cost model entirely,
//!   and [`ShardedGenomeMemo`] holds whole-genome evaluations; each job
//!   probes them through its own [`JobMemo`], which counts the job's
//!   reuse and feeds the tenant's probe metrics,
//! * [`Snapshot`] — versioned text checkpoints of GA state, so a killed
//!   search resumes **bit-identically** instead of starting over, and
//! * [`parse_manifest`] — the text manifest format the `digamma-serve`
//!   binary reads.
//!
//! # Quickstart
//!
//! ```
//! use digamma_server::{JobAlgorithm, JobSpec, SearchServer, ServerConfig};
//! use digamma::Objective;
//! use digamma_costmodel::Platform;
//! use digamma_workload::zoo;
//!
//! let server = SearchServer::new(ServerConfig { workers: 2, ..Default::default() });
//! let mut job = JobSpec::new(
//!     "ncf-edge",
//!     zoo::ncf(),
//!     Platform::edge(),
//!     Objective::Latency,
//!     JobAlgorithm::DiGamma,
//! );
//! job.budget = 120;
//! job.population_size = 12;
//! let reports = server.run(&[job]);
//! assert!(reports[0].best.is_some());
//! assert!(reports[0].cache_hits > 0, "changed layers restating scored mappings hit the memo");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cache;
pub mod cachefile;
mod job;
mod journal;
mod manifest;
mod queue;
mod registry;
mod sealed;
mod snapshot;
pub mod textio;

mod tenant;

pub use journal::{Journal, JOURNAL_VERSION};

pub use cache::{CacheStats, JobMemo, ShardedFitnessCache, ShardedGenomeMemo, ShardedMemo};
pub use job::{JobAlgorithm, JobReport, JobSpec};
pub use manifest::{parse_manifest, render_job};
pub use queue::{AnalyticsUpdate, JobControl, JobProgress, SearchServer, ServerConfig};
pub use registry::{
    JobId, JobMissing, JobRegistry, JobStatus, JobView, RegistryStats, Submission, SubmitError,
    Submitted, SubmittedJobs, TenantStats,
};
pub use snapshot::{Snapshot, SNAPSHOT_VERSION};
pub use tenant::{valid_tenant_id, TenantSet, TenantSpec, DEFAULT_TENANT};
