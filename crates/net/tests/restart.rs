//! The durability acceptance test: a real `digamma-netd` process,
//! killed with SIGKILL mid-search, restarted on the same checkpoint
//! directory — the in-flight job must come back under its id and resume
//! from its snapshot rather than starting over.

mod common;

use common::{Daemon, TempDir};
use digamma_net::client;
use std::time::Duration;

#[test]
fn killed_netd_resumes_in_flight_jobs_on_restart() {
    let dir = TempDir::new("digamma-restart");

    // Life one: submit a job big enough to outlive us, snapshotting
    // every generation.
    let daemon = Daemon::start(1, dir.path(), &[]);
    let accepted = client::post(
        &daemon.addr,
        "/jobs",
        Some(
            "[job]\nname = survivor\nmodel = ncf\nbudget = 2000000\npopulation = 8\nseed = 11\ncheckpoint_every = 1\n",
        ),
    )
    .unwrap();
    assert!(accepted.contains("id = 1"), "{accepted}");

    // Wait until it has demonstrably stepped a few generations (so a
    // snapshot exists on disk), then SIGKILL the process.
    let events =
        client::stream_events(&daemon.addr, 1, 0, |line| !line.starts_with("gen=3")).unwrap();
    assert!(events.iter().any(|l| l.starts_with("gen=")), "{events:?}");
    daemon.kill();

    let journal = dir.path().join("jobs.journal");
    assert!(journal.exists(), "journal must survive the kill");
    let snapshots: Vec<_> = std::fs::read_dir(dir.path())
        .unwrap()
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "snapshot"))
        .collect();
    assert!(!snapshots.is_empty(), "a snapshot must survive the kill");

    // Life two: same directory. The journal replays the job under id 1
    // and the search resumes from the snapshot.
    let reborn = Daemon::start(1, dir.path(), &[]);
    let mut resumed_generation = None;
    for _ in 0..600 {
        let body = client::get(&reborn.addr, "/jobs/1").unwrap();
        if body.contains("status = running") || body.contains("status = done") {
            if let Some(generation) = body
                .lines()
                .find_map(|l| l.strip_prefix("generation = "))
                .and_then(|v| v.parse::<u64>().ok())
            {
                resumed_generation = Some(generation);
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let generation = resumed_generation.expect("job 1 must come back and step");
    assert!(generation >= 1);

    // Cancel (we do not want to burn the 2M budget) and confirm the
    // report records a resume, proving it did not start over.
    let _ = client::post(&reborn.addr, "/jobs/1/cancel", None).unwrap();
    let mut report = None;
    for _ in 0..600 {
        let body = client::get(&reborn.addr, "/jobs/1").unwrap();
        if body.contains("status = cancelled") {
            report = Some(body);
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let report = report.expect("cancellation must land");
    assert!(report.contains("resumed_at = "), "must resume from the snapshot: {report}");
    assert!(report.contains("best_cost = "), "partial best retrievable: {report}");

    reborn.shutdown();
}

#[test]
fn clean_shutdown_leaves_queued_jobs_resumable() {
    let dir = TempDir::new("digamma-restart-clean");

    let daemon = Daemon::start(1, dir.path(), &[]);
    client::post(
        &daemon.addr,
        "/jobs",
        Some("[job]\nname = backlog\nmodel = ncf\nbudget = 3000000\npopulation = 8\ncheckpoint_every = 1\n"),
    )
    .unwrap();
    // Let it start, then shut down cleanly (cooperative: snapshots, does
    // not journal a finish).
    let _ = client::stream_events(&daemon.addr, 1, 0, |line| !line.starts_with("gen=2"));
    daemon.shutdown();

    let reborn = Daemon::start(1, dir.path(), &[]);
    let mut came_back = false;
    for _ in 0..600 {
        let body = client::get(&reborn.addr, "/jobs/1").unwrap();
        if body.contains("name = backlog") {
            came_back = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(came_back, "clean shutdown must leave the job journaled for the next life");
    client::post(&reborn.addr, "/jobs/1/cancel", None).unwrap();
    reborn.shutdown();
}
