//! Checkpoint/resume determinism, end to end: a search killed mid-run
//! and resumed from its text snapshot finishes **bit-identically** to a
//! search that was never interrupted — same history (to the bit), same
//! best genome, same sample count.

use digamma::{CoOptProblem, DiGamma, DiGammaConfig, Objective, SearchResult, SearchState};
use digamma_costmodel::Platform;
use digamma_server::{JobAlgorithm, JobReport, JobSpec, SearchServer, ServerConfig, Snapshot};
use digamma_workload::zoo;

fn problem() -> CoOptProblem {
    CoOptProblem::new(zoo::ncf(), Platform::edge(), Objective::Latency)
}

fn searcher(seed: u64) -> DiGamma {
    DiGamma::new(DiGammaConfig { population_size: 16, seed, threads: 1, ..Default::default() })
}

fn assert_bit_identical(a: &SearchResult, b: &SearchResult) {
    assert_eq!(a.samples, b.samples);
    assert_eq!(a.history.len(), b.history.len());
    for (i, (x, y)) in a.history.iter().zip(&b.history).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "history diverges at sample {i}");
    }
    let (ba, bb) = (a.best.as_ref().unwrap(), b.best.as_ref().unwrap());
    assert_eq!(ba.genome, bb.genome);
    assert_eq!(ba.cost.to_bits(), bb.cost.to_bits());
    assert_eq!(ba.hw, bb.hw);
}

/// The issue's acceptance shape: run the full budget in one go, versus
/// run half, snapshot to *text*, parse it back, restore, run the rest.
#[test]
fn snapshot_restore_resumes_bit_identically() {
    let problem = problem();
    let ga = searcher(41);
    const BUDGET: usize = 640; // 40 generations of 16

    let uninterrupted = ga.search(&problem, BUDGET);

    // First half, then "kill" the process: all that survives is text.
    let mut state = ga.init(&problem, BUDGET);
    while state.samples() < BUDGET / 2 && ga.step(&problem, &mut state, BUDGET) {}
    let text = Snapshot::capture("job", &state).render();
    drop(state);

    // A fresh searcher (as a new process would build) restores and runs
    // the second half.
    let ga2 = searcher(41);
    let snapshot = Snapshot::parse(&text).expect("snapshot text parses");
    let mut resumed = snapshot.restore(&ga2, &problem, "job").expect("fingerprint matches");
    assert_eq!(resumed.samples(), BUDGET / 2);
    while ga2.step(&problem, &mut resumed, BUDGET) {}

    assert_bit_identical(&uninterrupted, &resumed.into_result());
}

/// Several kills in a row — each leg restores from the previous leg's
/// snapshot — still land on the uninterrupted trajectory.
#[test]
fn repeated_kills_compose() {
    let problem = problem();
    let ga = searcher(17);
    const BUDGET: usize = 480;
    let uninterrupted = ga.search(&problem, BUDGET);

    let mut text = {
        let state = ga.init(&problem, BUDGET);
        Snapshot::capture("j", &state).render()
    };
    let final_state = loop {
        let snap = Snapshot::parse(&text).unwrap();
        let mut state = snap.restore(&ga, &problem, "j").unwrap();
        // Run a couple of generations, then "crash" again.
        for _ in 0..2 {
            ga.step(&problem, &mut state, BUDGET);
        }
        if state.samples() >= BUDGET {
            break state;
        }
        text = Snapshot::capture("j", &state).render();
    };
    assert_bit_identical(&uninterrupted, &final_state.into_result());
}

/// A served job, its uninterrupted result (cache-less and
/// checkpoint-less), and the state a run of it killed after 5
/// generations leaves.
fn killed_job() -> (JobSpec, JobReport, SearchState) {
    let mut job = JobSpec::new(
        "resnet-edge",
        zoo::ncf(),
        Platform::edge(),
        Objective::Latency,
        JobAlgorithm::DiGamma,
    );
    job.budget = 320;
    job.population_size = 16;
    job.seed = 9;
    let plain =
        SearchServer::new(ServerConfig { workers: 1, cache_capacity: 0, ..Default::default() });
    let reference = plain.run_job(&job);
    let ga = searcher(9);
    let prob = problem();
    let mut state = ga.init(&prob, job.budget);
    for _ in 0..5 {
        ga.step(&prob, &mut state, job.budget);
    }
    (job, reference, state)
}

/// Runs `job` on a checkpointing server that finds `snapshot` where it
/// looks for the job's checkpoint, and reports whether the file outlived
/// the job.
fn serve_with_snapshot(tag: &str, job: &JobSpec, snapshot: &str) -> (JobReport, bool) {
    let dir = std::env::temp_dir().join(format!("digamma-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let server = SearchServer::new(ServerConfig {
        workers: 1,
        checkpoint_dir: Some(dir.clone()),
        ..Default::default()
    });
    let ckpt = server.checkpoint_path(job).unwrap();
    std::fs::write(&ckpt, snapshot).unwrap();
    let report = server.run_job(job);
    // The snapshot writer removes a finished job's checkpoint; dropping
    // the server drains it.
    drop(server);
    let left = ckpt.exists();
    std::fs::remove_dir_all(&dir).ok();
    (report, left)
}

fn assert_same_best(reference: &JobReport, report: &JobReport) {
    let (a, b) = (reference.best.as_ref().unwrap(), report.best.as_ref().unwrap());
    assert_eq!(a.genome, b.genome);
    assert_eq!(a.cost.to_bits(), b.cost.to_bits());
    assert_eq!(reference.samples, report.samples);
}

/// The same guarantee through the server: a job whose checkpoint file
/// survives a kill resumes (the report says from which generation) and
/// produces the uninterrupted result; the checkpoint is cleaned up on
/// completion.
#[test]
fn server_resumes_from_surviving_checkpoint() {
    let (job, reference, state) = killed_job();
    let snapshot = Snapshot::capture(job.fingerprint(), &state).render();
    let (report, left) = serve_with_snapshot("resume", &job, &snapshot);
    assert_eq!(report.resumed_at, Some(5), "server must resume, not restart");
    assert!(!left, "finished jobs clean up their checkpoint");
    assert_same_best(&reference, &report);
}

/// Only version 4 carries a `crc` per record, so a snapshot whose
/// version line says 3 is refused however intact its bytes look: the
/// job starts over and still reaches the uninterrupted result.
#[test]
fn server_restarts_a_job_whose_snapshot_is_not_version_4() {
    let (job, reference, state) = killed_job();
    let sealed = Snapshot::capture(job.fingerprint(), &state).render();
    let downgraded = sealed.replacen("\nversion = 4\n", "\nversion = 3\n", 1);
    assert_ne!(downgraded, sealed);
    assert!(Snapshot::parse(&downgraded).is_err(), "a version-3 snapshot parsed");
    let (report, _) = serve_with_snapshot("downgraded", &job, &downgraded);
    assert_eq!(report.resumed_at, None, "a refused snapshot must not be resumed");
    assert_same_best(&reference, &report);
}

/// A checkpoint from a *different* job (other seed/budget) must be
/// ignored — the server restarts rather than resuming into corruption.
#[test]
fn server_ignores_foreign_checkpoints() {
    let dir = std::env::temp_dir().join(format!("digamma-foreign-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let mut job =
        JobSpec::new("j", zoo::ncf(), Platform::edge(), Objective::Latency, JobAlgorithm::DiGamma);
    job.budget = 160;
    job.population_size = 16;
    job.seed = 2;

    let server = SearchServer::new(ServerConfig {
        workers: 1,
        checkpoint_dir: Some(dir.clone()),
        ..Default::default()
    });

    // A snapshot whose fingerprint names a different seed.
    let ga = searcher(999);
    let prob = problem();
    let mut other = job.clone();
    other.seed = 999;
    let state = ga.init(&prob, other.budget);
    std::fs::write(
        server.checkpoint_path(&job).unwrap(),
        Snapshot::capture(other.fingerprint(), &state).render(),
    )
    .unwrap();

    let report = server.run_job(&job);
    assert_eq!(report.resumed_at, None, "foreign snapshot must not be resumed");
    assert_eq!(report.samples, 160);

    std::fs::remove_dir_all(&dir).ok();
}
