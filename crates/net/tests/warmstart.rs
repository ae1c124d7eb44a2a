//! The persistent-cache acceptance tests: a real `digamma-netd`, killed
//! with SIGKILL after finishing jobs, restarted on the same checkpoint
//! directory — the new life must warm-start its fitness memo from the
//! spill file and serve the first resubmitted job from it (nonzero
//! cache hits, zero misses), keeping accumulated cost-model work and
//! not just the job queue. Across several spills (a base, then
//! appended records) the new life must hold every entry the old one
//! had.

mod common;

use common::{Daemon, TempDir};
use digamma_net::client;
use std::time::Duration;

fn wait_done(addr: &str, id: u64) -> String {
    for _ in 0..1200 {
        let body = client::get(addr, &format!("/jobs/{id}")).unwrap();
        if body.contains("status = done") {
            return body;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("job {id} never finished");
}

fn field(body: &str, key: &str) -> u64 {
    body.lines()
        .find_map(|l| l.strip_prefix(&format!("{key} = ")))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("missing {key} in:\n{body}"))
}

#[test]
fn killed_netd_warm_starts_its_fitness_memo() {
    let dir = TempDir::new("digamma-warmstart");
    let job = |name: &str| {
        format!("[job]\nname = {name}\nmodel = ncf\nbudget = 160\npopulation = 8\nseed = 9\n")
    };

    // Life one: run a small job to completion (its finish spills the
    // memo), then SIGKILL — no cooperative shutdown, only the spill
    // file survives.
    let daemon = Daemon::start(1, dir.path(), &[]);
    let accepted = client::post(&daemon.addr, "/jobs", Some(&job("seed-run"))).unwrap();
    assert!(accepted.contains("id = 1"), "{accepted}");
    let first = wait_done(&daemon.addr, 1);
    assert!(field(&first, "cache_misses") > 0, "a cold memo must miss:\n{first}");
    daemon.kill();
    assert!(dir.path().join("fitness-memo.cache").exists(), "spill file must survive the kill");

    // Life two: before any job runs, the memo is already warm.
    let reborn = Daemon::start(1, dir.path(), &[]);
    let stats = client::get(&reborn.addr, "/stats").unwrap();
    let preloaded = field(&stats, "entries");
    assert!(preloaded > 0, "restart must preload the spill:\n{stats}");

    // The first resubmitted (identical) job is served from the warm
    // memo: every per-layer probe hits, none misses.
    let accepted = client::post(&reborn.addr, "/jobs", Some(&job("warm-run"))).unwrap();
    assert!(accepted.contains("name = warm-run"), "{accepted}");
    let rerun_id = field(&accepted, "id");
    let rerun = wait_done(&reborn.addr, rerun_id);
    assert!(field(&rerun, "cache_hits") > 0, "warm memo must report hits:\n{rerun}");
    assert_eq!(field(&rerun, "cache_misses"), 0, "warm rerun must not miss:\n{rerun}");
    // Same search, same answer.
    let best = |body: &str| {
        body.lines().find_map(|l| l.strip_prefix("best_cost = ").map(str::to_owned)).unwrap()
    };
    assert_eq!(best(&first), best(&rerun));

    reborn.shutdown();
}

#[test]
fn killed_netd_reloads_every_appended_spill() {
    let dir = TempDir::new("digamma-warmstart-appends");
    let job = |seed: u64| {
        format!(
            "[job]\nname = seed-{seed}\nmodel = ncf\nbudget = 160\npopulation = 8\nseed = {seed}\n"
        )
    };

    // Life one: two distinct searches, so the second one's spill appends
    // to the base the first one wrote; then SIGKILL.
    let daemon = Daemon::start(1, dir.path(), &[]);
    let mut entries = Vec::new();
    for (id, seed) in [(1, 9), (2, 10)] {
        let accepted = client::post(&daemon.addr, "/jobs", Some(&job(seed))).unwrap();
        assert!(accepted.contains(&format!("id = {id}")), "{accepted}");
        wait_done(&daemon.addr, id);
        entries.push(field(&client::get(&daemon.addr, "/stats").unwrap(), "entries"));
    }
    assert!(entries[1] > entries[0], "the second seed must memoize new entries: {entries:?}");
    daemon.kill();

    // Life two holds every entry life one had memoized.
    let reborn = Daemon::start(1, dir.path(), &[]);
    let stats = client::get(&reborn.addr, "/stats").unwrap();
    assert_eq!(field(&stats, "entries"), entries[1], "every spill must reload:\n{stats}");
    reborn.shutdown();
}
