//! Chaos acceptance tests: a real `digamma-netd` process with armed
//! failpoints (`--failpoints`), driven over real sockets.
//!
//! The contracts under fault:
//! - a submit whose response was eaten by injected connection loss can
//!   be retried under its idempotency key without duplicating jobs;
//! - a worker panic mid-evaluation fails that job cleanly (terminal
//!   `failed` state, budget refund, worker survives) while its
//!   neighbors finish;
//! - slow-loris and oversized requests are bounded by deadlines (408)
//!   and the body cap (413) instead of pinning threads;
//! - SIGTERM drains: new submits shed with 503, in-flight work
//!   checkpoints within the drain deadline, the process exits 0, and a
//!   restart resumes the drained job;
//! - a test that panics before shutting its daemon down leaves neither
//!   the daemon running nor its checkpoint directory behind (the shared
//!   harness kills the one and removes the other on drop).

mod common;

use common::{process_exists, Daemon, TempDir};
use digamma_net::client::{self, RetryPolicy};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        attempts: 6,
        base_delay: Duration::from_millis(50),
        max_delay: Duration::from_millis(400),
    }
}

/// Polls `GET /jobs/{id}` until its status is one of `wanted`,
/// returning the body.
fn wait_status(addr: &str, id: u64, wanted: &[&str], timeout: Duration) -> String {
    let deadline = Instant::now() + timeout;
    loop {
        if let Ok(body) = client::get(addr, &format!("/jobs/{id}")) {
            let status = body
                .lines()
                .find_map(|l| l.strip_prefix("status = "))
                .unwrap_or("")
                .trim()
                .to_owned();
            if wanted.contains(&status.as_str()) {
                return body;
            }
        }
        assert!(Instant::now() < deadline, "job {id} never reached {wanted:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn torn_submit_response_retries_under_its_key_without_duplicates() {
    let dir = TempDir::new("digamma-chaos-torn");
    // The very first request's response is eaten *after* the request is
    // processed — the client cannot tell whether its submit landed.
    let daemon = Daemon::start(2, dir.path(), &["--failpoints", "sock.write=drop,nth:1"]);

    let manifest = "[job]\nname = torn\nmodel = ncf\nbudget = 2000\npopulation = 8\nseed = 3\n";
    let body = client::submit_keyed(&daemon.addr, manifest, None, "chaos-torn-1", fast_retry())
        .expect("retried submit must eventually land");
    assert!(body.contains("id = 1"), "{body}");
    assert!(!body.contains("id = 2"), "retry must not mint a second job: {body}");

    // An explicit replay of the same key answers with the original id.
    let replay = client::request_with_headers(
        &daemon.addr,
        "POST",
        "/jobs",
        Some(manifest),
        None,
        &[("Idempotency-Key", "chaos-torn-1")],
    )
    .expect("replay request");
    assert_eq!(replay.status, 202, "{}", replay.body);
    assert!(replay.body.contains("id = 1"), "{}", replay.body);

    // Exactly one job exists, and it reaches exactly one terminal state.
    let listing = client::get(&daemon.addr, "/jobs").unwrap();
    assert_eq!(listing.matches("id = ").count(), 1, "{listing}");
    wait_status(&daemon.addr, 1, &["done"], Duration::from_secs(60));

    daemon.shutdown();
}

#[test]
fn a_failed_journal_append_answers_503_and_a_keyed_retry_lands() {
    let dir = TempDir::new("digamma-chaos-append");
    // The first submit's journal append fails: nothing is accepted, the
    // daemon answers 503 + Retry-After, and the client's retry lands.
    let daemon = Daemon::start(2, dir.path(), &["--failpoints", "journal.append=err,once"]);

    let manifest = "[job]\nname = retried\nmodel = ncf\nbudget = 96\npopulation = 8\nseed = 3\n";
    let body = client::submit_keyed(&daemon.addr, manifest, None, "chaos-append-1", fast_retry())
        .expect("a storage failure is retried, not refused");
    assert!(body.contains("id = 1"), "the failed attempt issued no id: {body}");
    assert!(!body.contains("id = 2"), "{body}");
    wait_status(&daemon.addr, 1, &["done"], Duration::from_secs(60));

    daemon.shutdown();
}

#[test]
fn injected_worker_panic_fails_one_job_and_budgets_balance() {
    let dir = TempDir::new("digamma-chaos-panic");
    let daemon = Daemon::start(2, dir.path(), &["--failpoints", "worker.eval=panic,once"]);

    // Two jobs, two workers: whichever evaluates first panics (once);
    // the other must be unaffected by its sibling's death.
    let manifest = "[job]\nname = doomed\nmodel = ncf\nbudget = 2000\npopulation = 8\nseed = 5\n\
                    [job]\nname = survivor\nmodel = ncf\nbudget = 2000\npopulation = 8\nseed = 7\n";
    let body = client::post(&daemon.addr, "/jobs", Some(manifest)).unwrap();
    assert!(body.contains("id = 1") && body.contains("id = 2"), "{body}");

    let first = wait_status(&daemon.addr, 1, &["done", "failed"], Duration::from_secs(60));
    let second = wait_status(&daemon.addr, 2, &["done", "failed"], Duration::from_secs(60));
    let failed = [&first, &second].iter().filter(|b| b.contains("status = failed")).count();
    let done = [&first, &second].iter().filter(|b| b.contains("status = done")).count();
    assert_eq!((failed, done), (1, 1), "first:\n{first}\nsecond:\n{second}");

    // The failed job refunded its unconsumed budget: the tenant's
    // submitted and consumed meters settle equal.
    let stats = client::get(&daemon.addr, "/stats").unwrap();
    assert!(stats.contains("failed = 1"), "{stats}");
    let meter = |key: &str| -> u64 {
        stats
            .lines()
            .find_map(|l| l.strip_prefix(&format!("{key} = ")))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or_else(|| panic!("no {key} in stats:\n{stats}"))
    };
    assert_eq!(meter("evals_submitted"), meter("evals_consumed"), "{stats}");

    // The panic is visible as its own completion status in /metrics.
    let metrics = client::get(&daemon.addr, "/metrics").unwrap();
    assert!(metrics.contains("status=\"panicked\""), "{metrics}");

    daemon.shutdown();
}

#[test]
fn slow_and_oversized_requests_are_bounded() {
    let dir = TempDir::new("digamma-chaos-bounds");
    let daemon = Daemon::start(2, dir.path(), &["--io-timeout-ms", "250"]);

    // Slow-loris: open a connection, trickle half a request head, stall.
    let mut loris = TcpStream::connect(&daemon.addr).unwrap();
    loris.write_all(b"POST /jobs HTTP/1.1\r\nContent-Le").unwrap();
    loris.flush().unwrap();
    let mut answer = String::new();
    loris.take(4096).read_to_string(&mut answer).unwrap();
    assert!(answer.starts_with("HTTP/1.1 408 "), "slow request must 408: {answer:?}");

    // Oversized declared body: rejected from the Content-Length header
    // alone, before any of the 2 MiB is read.
    let mut fat = TcpStream::connect(&daemon.addr).unwrap();
    fat.write_all(b"POST /jobs HTTP/1.1\r\nContent-Length: 2097152\r\n\r\n").unwrap();
    fat.flush().unwrap();
    let mut answer = String::new();
    fat.take(4096).read_to_string(&mut answer).unwrap();
    assert!(answer.starts_with("HTTP/1.1 413 "), "oversized body must 413: {answer:?}");

    // The daemon is unharmed: a well-formed request still works.
    assert!(client::get(&daemon.addr, "/stats").unwrap().contains("[stats]"));

    daemon.shutdown();
}

#[test]
fn sigterm_drains_sheds_submits_and_leaves_the_job_resumable() {
    let dir = TempDir::new("digamma-chaos-drain");
    // A drain deadline far shorter than the job: the drain must give up
    // waiting, checkpoint the in-flight search, and exit anyway.
    let daemon = Daemon::start(2, dir.path(), &["--drain-deadline-ms", "1500"]);

    let accepted = client::post(
        &daemon.addr,
        "/jobs",
        Some(
            "[job]\nname = marathon\nmodel = ncf\nbudget = 2000000\npopulation = 8\nseed = 11\ncheckpoint_every = 1\n",
        ),
    )
    .unwrap();
    assert!(accepted.contains("id = 1"), "{accepted}");
    // Let it demonstrably step so a snapshot exists to drain into.
    let events =
        client::stream_events(&daemon.addr, 1, 0, |line| !line.starts_with("gen=2")).unwrap();
    assert!(events.iter().any(|l| l.starts_with("gen=")), "{events:?}");

    daemon.term();
    // While draining, new submits are shed with 503 + Retry-After. The
    // drain window is ~1.5s; poll until we observe one (connection
    // errors mean the daemon already finished exiting — too late).
    let mut observed_503 = false;
    let deadline = Instant::now() + Duration::from_secs(3);
    while Instant::now() < deadline {
        match client::request(
            &daemon.addr,
            "POST",
            "/jobs",
            Some("[job]\nname = late\nmodel = ncf\nbudget = 1000\npopulation = 8\n"),
        ) {
            Ok(response) if response.status == 503 => {
                assert!(response.header("retry-after").is_some(), "503 must carry Retry-After");
                observed_503 = true;
                break;
            }
            Ok(_) => std::thread::sleep(Duration::from_millis(10)),
            Err(_) => break,
        }
    }
    assert!(observed_503, "draining daemon must shed submits with 503");
    daemon.wait_clean_exit(Duration::from_secs(30));

    // The drained job is not lost: a restart replays it and resumes.
    let reborn = Daemon::start(2, dir.path(), &[]);
    wait_status(&reborn.addr, 1, &["running", "queued", "done"], Duration::from_secs(30));
    let _ = client::post(&reborn.addr, "/jobs/1/cancel", None);
    reborn.shutdown();
}

#[test]
fn a_test_that_panics_leaves_no_daemon_running() {
    let (started, made) = std::sync::mpsc::channel();
    let test = std::thread::spawn(move || {
        let dir = TempDir::new("digamma-chaos-orphan");
        let daemon = Daemon::start(1, dir.path(), &[]);
        started.send((daemon.pid(), dir.path().to_path_buf())).expect("the test waits for them");
        panic!("a test failing before its shutdown");
    });
    assert!(test.join().is_err(), "the thread panicked");
    let (pid, dir) = made.recv().expect("the daemon started");
    assert!(!process_exists(pid), "netd {pid} outlived the test that started it");
    assert!(!dir.exists(), "{} outlived the test that made it", dir.display());
}
