//! Wire-protocol integration: a real `NetServer` on an ephemeral port,
//! a real TCP client, the full job lifecycle.

mod common;

use common::TempDir;
use digamma_net::httpio::Request;
use digamma_net::{client, routes, NetServer, ShutdownFlag, ShutdownHandle};
use digamma_server::{JobRegistry, ServerConfig, TenantSet};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

struct Service {
    addr: String,
    registry: Arc<JobRegistry>,
    handle: ShutdownHandle,
    serving: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl Service {
    fn start(workers: usize, checkpoint_dir: Option<PathBuf>) -> Service {
        Service::start_with_tenants(workers, checkpoint_dir, TenantSet::default())
    }

    fn start_with_tenants(
        workers: usize,
        checkpoint_dir: Option<PathBuf>,
        tenants: TenantSet,
    ) -> Service {
        let config = ServerConfig { workers, checkpoint_dir, ..ServerConfig::default() };
        let registry = Arc::new(JobRegistry::start_with_tenants(config, None, tenants).unwrap());
        let server = NetServer::bind("127.0.0.1:0", Arc::clone(&registry)).unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let handle = server.shutdown_handle().unwrap();
        let serving = std::thread::spawn(move || server.serve());
        Service { addr, registry, handle, serving: Some(serving) }
    }

    fn submit(&self, manifest: &str) -> Vec<u64> {
        let body = client::post(&self.addr, "/jobs", Some(manifest)).unwrap();
        body.lines()
            .filter_map(|l| l.strip_prefix("id = "))
            .filter_map(|v| v.trim().parse().ok())
            .collect()
    }

    fn wait_status(&self, id: u64, wanted: &str) -> String {
        for _ in 0..600 {
            let body = client::get(&self.addr, &format!("/jobs/{id}")).unwrap();
            if body.contains(&format!("status = {wanted}")) {
                return body;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("job {id} never reached status {wanted}");
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(serving) = self.serving.take() {
            let _ = serving.join();
        }
    }
}

fn small_job(name: &str, budget: usize) -> String {
    format!("[job]\nname = {name}\nmodel = ncf\nbudget = {budget}\npopulation = 8\nseed = 4\n")
}

#[test]
fn submit_watch_and_fetch_result_over_tcp() {
    let service = Service::start(2, None);
    let ids = service.submit(&small_job("wire-a", 96));
    assert_eq!(ids.len(), 1);
    let id = ids[0];

    // Stream events to completion: per-generation lines, then the
    // terminal line.
    let events = client::stream_events(&service.addr, id, 0, |_| true).unwrap();
    assert!(events.len() >= 2, "{events:?}");
    assert!(events[0].starts_with("gen=1 samples="), "{events:?}");
    assert_eq!(events.last().unwrap(), "end status=done");

    // The final status carries the report and best design.
    let body = service.wait_status(id, "done");
    assert!(body.contains("[report]"), "{body}");
    assert!(body.contains("best_cost = "), "{body}");
    assert!(body.contains("samples = 96"), "{body}");

    // Re-streaming a finished job replays its full event log.
    let replay = client::stream_events(&service.addr, id, 0, |_| true).unwrap();
    assert_eq!(replay, events);
    // ?from= skips already-seen lines.
    let tail = client::stream_events(&service.addr, id, events.len() - 1, |_| true).unwrap();
    assert_eq!(tail, vec!["end status=done".to_owned()]);
}

#[test]
fn cancel_mid_search_keeps_partial_best_and_snapshot() {
    let dir = TempDir::new("digamma-wire-cancel");
    let service = Service::start(1, Some(dir.path().to_path_buf()));

    let manifest = format!(
        "[job]\nname = towering\nmodel = ncf\nbudget = 1000000\npopulation = 8\ncheckpoint_every = 1\n\n{}",
        small_job("waiting", 64)
    );
    let ids = service.submit(&manifest);
    assert_eq!(ids.len(), 2);
    let (running, queued) = (ids[0], ids[1]);

    // Watch until the search demonstrably steps, then cancel it from a
    // second connection (dropping the watch mid-stream).
    let seen = client::stream_events(&service.addr, running, 0, |line| !line.starts_with("gen=2"))
        .unwrap();
    assert!(!seen.is_empty());
    let response = client::post(&service.addr, &format!("/jobs/{running}/cancel"), None).unwrap();
    assert!(response.contains("status ="), "{response}");

    let body = service.wait_status(running, "cancelled");
    assert!(body.contains("cancelled = true"), "{body}");
    assert!(body.contains("best_cost = "), "cancelled job must keep its partial best: {body}");

    // The cooperative stop snapshotted: the job can resume later.
    let view = service.registry.job(running).unwrap();
    let ckpt = service.registry.server().checkpoint_path(&view.spec).unwrap();
    assert!(ckpt.exists(), "no snapshot at {}", ckpt.display());

    // The queued job proceeds once the worker frees up.
    service.wait_status(queued, "done");
}

#[test]
fn stats_report_queue_depth_workers_and_cache() {
    let service = Service::start(1, None);
    let ids =
        service.submit(&format!("{}\n{}", small_job("stats-a", 120), small_job("stats-b", 120)));
    for &id in &ids {
        service.wait_status(id, "done");
    }
    let stats = client::get(&service.addr, "/stats").unwrap();
    assert!(stats.contains("workers = 1"), "{stats}");
    assert!(stats.contains("done = 2"), "{stats}");
    assert!(stats.contains("queue_depth = 0"), "{stats}");
    assert!(stats.contains("[cache]"), "{stats}");
    assert!(stats.contains("hits = "), "{stats}");
    // The second identical-model job reuses the first one's entries.
    let hits: u64 =
        stats.lines().find_map(|l| l.strip_prefix("hits = ")).and_then(|v| v.parse().ok()).unwrap();
    assert!(hits > 0, "{stats}");
    // The genome memo layer reports its own section, and the identical
    // second job must have hit it.
    assert!(stats.contains("[genome_cache]"), "{stats}");
    let genome_hits: u64 = stats
        .split("[genome_cache]")
        .nth(1)
        .and_then(|tail| tail.lines().find_map(|l| l.strip_prefix("hits = ")))
        .and_then(|v| v.parse().ok())
        .unwrap();
    assert!(genome_hits > 0, "{stats}");
    // Per-job reports carry the genome counters on the wire too.
    let body = client::get(&service.addr, &format!("/jobs/{}", ids[1])).unwrap();
    assert!(body.contains("genome_hits = "), "{body}");
}

#[test]
fn protocol_errors_are_4xx_not_hangs() {
    let service = Service::start(1, None);
    // Unknown job.
    let err = client::get(&service.addr, "/jobs/999").unwrap_err();
    assert!(err.to_string().contains("404"), "{err}");
    // Bad manifest.
    let err = client::post(&service.addr, "/jobs", Some("[job]\nmodel = gpt5\n")).unwrap_err();
    assert!(err.to_string().contains("400"), "{err}");
    // Wrong method on a known route.
    let err = client::post(&service.addr, "/stats", None).unwrap_err();
    assert!(err.to_string().contains("405"), "{err}");
    // Wrong method on the scrape endpoint.
    let err = client::post(&service.addr, "/metrics", None).unwrap_err();
    assert!(err.to_string().contains("405"), "{err}");
    // Unknown paths — including unknown sub-resources of known routes.
    let err = client::get(&service.addr, "/telemetry").unwrap_err();
    assert!(err.to_string().contains("404"), "{err}");
    let err = client::get(&service.addr, "/jobs/1/bogus").unwrap_err();
    assert!(err.to_string().contains("404"), "{err}");
    // [server] overrides cannot sneak through the runtime submit path.
    let err = client::post(
        &service.addr,
        "/jobs",
        Some("[server]\neviction = lru\n[job]\nmodel = ncf\n"),
    )
    .unwrap_err();
    assert!(err.to_string().contains("400"), "{err}");
    // Duplicate live names conflict at submission.
    let ids = service.submit(&small_job("solo", 200_000));
    let err = client::post(&service.addr, "/jobs", Some(&small_job("solo", 64))).unwrap_err();
    assert!(err.to_string().contains("400"), "{err}");
    // A batch with one bad job accepts *nothing* — no orphan jobs
    // running behind a 400.
    let before = service.registry.stats();
    let batch = format!("{}\n{}", small_job("fresh", 64), small_job("solo", 64));
    let err = client::post(&service.addr, "/jobs", Some(&batch)).unwrap_err();
    assert!(err.to_string().contains("400"), "{err}");
    let after = service.registry.stats();
    assert_eq!(
        before.queued + before.running,
        after.queued + after.running,
        "rejected batch must not leave orphans"
    );
    assert!(service.registry.jobs().iter().all(|v| v.name != "fresh"));
    service.registry.cancel(ids[0]);
}

#[test]
fn event_stream_from_beyond_end_resyncs_instead_of_stalling() {
    let service = Service::start(1, None);
    let ids = service.submit(&small_job("overshoot", 96));
    service.wait_status(ids[0], "done");
    let full = client::stream_events(&service.addr, ids[0], 0, |_| true).unwrap();
    let end = full.len();
    // A cursor far past the end must answer immediately with a resync
    // marker, not park the connection waiting for events that will
    // never come.
    let started = std::time::Instant::now();
    let lines = client::stream_events(&service.addr, ids[0], end + 50, |_| true).unwrap();
    assert!(started.elapsed() < Duration::from_secs(5), "overshot stream stalled");
    assert_eq!(lines.len(), 1, "{lines:?}");
    assert!(lines[0].starts_with("# seq "), "{lines:?}");
    assert!(lines[0].contains("beyond the stream end"), "{lines:?}");
    assert!(lines[0].ends_with(&format!("resuming at seq {end}")), "{lines:?}");
}

#[test]
fn bearer_auth_guards_the_wire_and_pins_identity() {
    let roster = TenantSet::parse(
        "[tenant]\nid = alpha\ntoken = alpha-secret\n\n\
         [tenant]\nid = beta\ntoken = beta-secret\n\n\
         [tenant]\nid = broke\ntoken = broke-secret\nmax_evals = 10\n",
    )
    .unwrap();
    let service = Service::start_with_tenants(1, None, roster);
    let alpha = Some("alpha-secret");

    // Anonymous and wrong-token requests bounce with 401 on every route.
    let err = client::get(&service.addr, "/stats").unwrap_err();
    assert!(err.to_string().contains("401"), "{err}");
    let err = client::get_as(&service.addr, "/stats", Some("nope")).unwrap_err();
    assert!(err.to_string().contains("401"), "{err}");
    let err = client::stream_events(&service.addr, 1, 0, |_| true).unwrap_err();
    assert!(err.to_string().contains("401"), "{err}");

    // An authenticated submit runs under the token's tenant no matter
    // what the manifest claims — no impersonation over the wire.
    let manifest = "[job]\nname = pinned\ntenant = beta\nmodel = ncf\nbudget = 200000\npopulation = 8\nseed = 9\n";
    let body = client::post_as(&service.addr, "/jobs", Some(manifest), alpha).unwrap();
    assert!(body.contains("tenant = alpha"), "{body}");
    let id: u64 = body
        .lines()
        .find_map(|l| l.strip_prefix("id = "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap();

    // Another tenant may read the job but not cancel it.
    let view = client::get_as(&service.addr, &format!("/jobs/{id}"), Some("beta-secret")).unwrap();
    assert!(view.contains("tenant = alpha"), "{view}");
    let err =
        client::post_as(&service.addr, &format!("/jobs/{id}/cancel"), None, Some("beta-secret"))
            .unwrap_err();
    assert!(err.to_string().contains("403"), "{err}");

    // Quota violations are typed 429s, not 500s.
    let over = "[job]\nname = broke-1\nmodel = ncf\nbudget = 100\npopulation = 8\n";
    let err =
        client::post_as(&service.addr, "/jobs", Some(over), Some("broke-secret")).unwrap_err();
    assert!(err.to_string().contains("429"), "{err}");

    // Authenticated reads see the per-tenant ledger.
    let stats = client::get_as(&service.addr, "/stats", alpha).unwrap();
    assert!(stats.contains("[tenant alpha]"), "{stats}");
    assert!(stats.contains("evals_submitted = 200000"), "{stats}");
    assert!(stats.contains("[tenant broke]"), "{stats}");

    // The owner cancels their own job fine.
    let ok = client::post_as(&service.addr, &format!("/jobs/{id}/cancel"), None, alpha).unwrap();
    assert!(ok.contains("status ="), "{ok}");
}

#[test]
fn weighted_tenants_share_the_workers_three_to_one() {
    // alpha (weight 3) and beta (weight 1) each queue 20 jobs on a
    // 2-worker service; the deficit round-robin must hand alpha ~3 of
    // every 4 claims. Tokenless roster: scheduling without auth.
    let roster =
        TenantSet::parse("[tenant]\nid = alpha\nweight = 3\n\n[tenant]\nid = beta\nweight = 1\n")
            .unwrap();
    let service = Service::start_with_tenants(2, None, roster);
    let mut manifest = String::new();
    for k in 0..20 {
        for tenant in ["alpha", "beta"] {
            let seed = 100 + k * 2 + usize::from(tenant == "beta");
            manifest.push_str(&format!(
                "[job]\nname = {tenant}-{k:02}\ntenant = {tenant}\nmodel = ncf\nbudget = 240\npopulation = 8\nseed = {seed}\n\n"
            ));
        }
    }
    let ids = service.submit(&manifest);
    assert_eq!(ids.len(), 40);

    // Observe dispatch order over the wire: poll the listing and record
    // each job the first time it is seen off the queue.
    let mut order: Vec<String> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for _ in 0..20_000 {
        let body = client::get(&service.addr, "/jobs").unwrap();
        for section in digamma_server::textio::parse_sections(&body).unwrap() {
            let name = section.get("name").unwrap_or_default().to_owned();
            let status = section.get("status").unwrap_or_default();
            if !name.is_empty() && status != "queued" && seen.insert(name.clone()) {
                order.push(name);
            }
        }
        if order.len() >= 24 {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(order.len() >= 24, "workers never drained the queues: {order:?}");

    // Ideal split of the first 24 claims is 18:6; allow ±15% of the
    // window for polling jitter.
    let alpha = order[..24].iter().filter(|name| name.starts_with("alpha-")).count();
    assert!(
        (15..=21).contains(&alpha),
        "weight-3 tenant took {alpha} of the first 24 claims (wanted 18 +/- 3): {order:?}"
    );

    // Don't leave 2 workers grinding the leftovers during shutdown.
    for &id in &ids {
        service.registry.cancel(id);
    }
}

#[test]
fn keep_alive_serves_multiple_requests_per_connection() {
    use std::io::{BufReader, Write};
    let service = Service::start(1, None);
    let mut stream = std::net::TcpStream::connect(&service.addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    for _ in 0..3 {
        write!(stream, "GET /stats HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        stream.flush().unwrap();
        let mut response = digamma_net::httpio::Response::read_head(&mut reader).unwrap();
        response.read_body(&mut reader).unwrap();
        assert_eq!(response.status, 200);
        assert!(response.body.contains("workers = 1"));
    }
}

#[test]
fn shutdown_is_answered_before_its_flag_is_set() {
    // Records, at each write and flush, whether the flag was already
    // set: a set flag lets another connection wake the accept loop and
    // end the process before the 202 reaches the client.
    struct Probe {
        flag: ShutdownFlag,
        bytes: Vec<u8>,
        calls: Vec<(&'static str, bool)>,
    }
    impl std::io::Write for Probe {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.calls.push(("write", self.flag.is_set()));
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            self.calls.push(("flush", self.flag.is_set()));
            Ok(())
        }
    }
    let registry =
        JobRegistry::start(ServerConfig { workers: 1, ..ServerConfig::default() }, None).unwrap();
    let flag = ShutdownFlag::new();
    let request = Request {
        method: "POST".to_owned(),
        target: "/shutdown".to_owned(),
        headers: Vec::new(),
        body: Vec::new(),
    };
    let mut probe = Probe { flag: flag.clone(), bytes: Vec::new(), calls: Vec::new() };
    let keep = routes::handle(&registry, &flag, &request, &mut probe, None).unwrap();
    registry.shutdown();
    assert!(!keep, "a shutdown answer closes the connection");
    assert!(String::from_utf8_lossy(&probe.bytes).starts_with("HTTP/1.1 202"));
    assert!(flag.is_set(), "the request still shuts the service down");
    assert_eq!(probe.calls.last().map(|c| c.0), Some("flush"), "{:?}", probe.calls);
    assert!(probe.calls.iter().all(|&(_, set)| !set), "flag set mid-answer: {:?}", probe.calls);
}

#[test]
fn a_batch_past_the_retention_bound_retires_its_first_finished_jobs() {
    // One batch of more tiny jobs than the registry keeps once they
    // finish. One worker runs them in id order, so job 1 ends first.
    const JOBS: usize = 1030;
    let registry =
        JobRegistry::start(ServerConfig { workers: 1, ..ServerConfig::default() }, None).unwrap();
    let flag = ShutdownFlag::new();
    let handle = |method: &str, target: &str, body: Vec<u8>| {
        let request = Request {
            method: method.to_owned(),
            target: target.to_owned(),
            headers: Vec::new(),
            body,
        };
        let mut out = Vec::new();
        routes::handle(&registry, &flag, &request, &mut out, None).unwrap();
        String::from_utf8(out).unwrap()
    };
    let manifest: String = (0..JOBS)
        .map(|k| format!("[job]\nname = tiny-{k}\nmodel = ncf\nbudget = 8\npopulation = 8\n"))
        .collect();
    let submitted = handle("POST", "/jobs", manifest.into_bytes());
    assert!(submitted.starts_with("HTTP/1.1 202"), "{submitted}");
    assert_eq!(submitted.matches("[submitted]").count(), JOBS, "one section per job");
    let deadline = std::time::Instant::now() + Duration::from_secs(120);
    while registry.stats().done < JOBS {
        assert!(std::time::Instant::now() < deadline, "{:?}", registry.stats());
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(registry.job(1).is_none(), "the first job to finish retired");
    assert!(registry.job(JOBS as u64).is_some(), "the newest finished jobs stay");
    assert!(registry.jobs().len() <= 1024, "{} listed", registry.jobs().len());
    let stats = handle("GET", "/stats", Vec::new());
    assert!(stats.contains(&format!("\ndone = {JOBS}\n")), "retired jobs still count:\n{stats}");
    let expired = handle("GET", "/jobs/1", Vec::new());
    assert!(expired.starts_with("HTTP/1.1 404"), "{expired}");
    assert!(
        expired.contains("job expired: only the newest 1024 finished jobs are kept"),
        "{expired}"
    );
    let unknown = handle("GET", &format!("/jobs/{}", JOBS + 1), Vec::new());
    assert!(unknown.starts_with("HTTP/1.1 404") && unknown.contains("no such job"), "{unknown}");
    registry.shutdown();
}
