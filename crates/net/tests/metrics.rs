//! `/metrics` over real sockets: the exposition parses, counters move,
//! label escaping survives hostile configuration values, and tenant
//! labels appear only for tenants that actually did work.

mod common;

use common::TempDir;
use digamma_net::{client, NetServer, ShutdownHandle};
use digamma_obs::parse_text;
use digamma_server::{JobRegistry, ServerConfig, TenantSet};
use std::sync::Arc;
use std::time::Duration;

struct Service {
    addr: String,
    handle: ShutdownHandle,
    serving: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl Service {
    fn start(config: ServerConfig, tenants: TenantSet) -> Service {
        let registry = Arc::new(JobRegistry::start_with_tenants(config, None, tenants).unwrap());
        let server = NetServer::bind("127.0.0.1:0", registry).unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let handle = server.shutdown_handle().unwrap();
        let serving = std::thread::spawn(move || server.serve());
        Service { addr, handle, serving: Some(serving) }
    }

    fn scrape(&self, token: Option<&str>) -> String {
        client::get_as(&self.addr, "/metrics", token).unwrap()
    }

    fn wait_status(&self, id: u64, wanted: &str, token: Option<&str>) {
        for _ in 0..600 {
            let body = client::get_as(&self.addr, &format!("/jobs/{id}"), token).unwrap();
            if body.contains(&format!("status = {wanted}")) {
                return;
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

fn small_job(name: &str, tenant: Option<&str>) -> String {
    let tenant = tenant.map_or_else(String::new, |t| format!("tenant = {t}\n"));
    format!("[job]\nname = {name}\nmodel = ncf\nbudget = 96\npopulation = 8\nseed = 4\n{tenant}")
}

fn series_total(samples: &[digamma_obs::Sample], name: &str) -> f64 {
    samples.iter().filter(|s| s.name == name).map(|s| s.value).sum()
}

#[test]
fn scrape_parses_and_request_counters_increase_across_submits() {
    let config = ServerConfig { workers: 2, ..ServerConfig::default() };
    let service = Service::start(config, TenantSet::default());

    // First scrape: valid exposition with the right content type, the
    // process gauges already present.
    let response = client::request(&service.addr, "GET", "/metrics", None).unwrap();
    assert_eq!(response.status, 200);
    assert_eq!(response.header("content-type"), Some("text/plain; version=0.0.4; charset=utf-8"));
    let first = parse_text(&response.body).expect("exposition must parse");
    assert!(first.iter().any(|s| s.name == "digamma_process_uptime_seconds"), "{}", response.body);
    assert!(first.iter().any(|s| s.name == "digamma_workers" && s.value == 2.0));

    // Run a job; every lifecycle family must move and the HTTP counter
    // must be strictly larger than before (monotonic, and our own
    // requests count).
    let before = series_total(&first, "digamma_http_requests_total");
    let accepted = client::post(&service.addr, "/jobs", Some(&small_job("scraped", None))).unwrap();
    let id: u64 =
        accepted.lines().find_map(|l| l.strip_prefix("id = ")?.trim().parse().ok()).unwrap();
    service.wait_status(id, "done", None);

    let samples = parse_text(&service.scrape(None)).expect("exposition must parse");
    let after = series_total(&samples, "digamma_http_requests_total");
    assert!(after > before, "request counter must increase: {before} -> {after}");
    let completed = samples
        .iter()
        .find(|s| {
            s.name == "digamma_jobs_completed_total"
                && s.label("tenant") == Some("default")
                && s.label("status") == Some("done")
        })
        .expect("completed counter");
    assert!(completed.value >= 1.0);
    for family in [
        "digamma_evals_total",
        "digamma_eval_batch_seconds_count",
        "digamma_job_run_seconds_count",
        "digamma_job_queue_wait_seconds_count",
        "digamma_scheduler_claim_seconds_count",
        "digamma_cache_probes_total",
        "digamma_http_request_seconds_count",
        "digamma_http_bytes_in_total",
        "digamma_http_bytes_out_total",
    ] {
        assert!(samples.iter().any(|s| s.name == family), "missing family {family}");
    }
    let status_ok = samples.iter().any(|s| {
        s.name == "digamma_http_requests_total"
            && s.label("endpoint") == Some("/jobs/{id}")
            && s.label("status") == Some("200")
    });
    assert!(status_ok, "status polling must be labelled by route template");

    // A second scrape is again strictly larger: the counter admits no
    // resets while the service lives.
    let again = parse_text(&service.scrape(None)).unwrap();
    assert!(series_total(&again, "digamma_http_requests_total") > after);
}

#[test]
fn label_values_with_spaces_quotes_and_backslashes_escape_per_exposition_rules() {
    let dir = TempDir::new("digamma metrics \"esc\\ape\"");
    let config = ServerConfig {
        workers: 1,
        checkpoint_dir: Some(dir.path().to_path_buf()),
        ..ServerConfig::default()
    };
    let service = Service::start(config, TenantSet::default());
    let text = service.scrape(None);
    // The raw exposition carries the escape sequences...
    assert!(text.contains("\\\""), "quotes must be escaped in:\n{text}");
    assert!(text.contains("\\\\"), "backslashes must be escaped in:\n{text}");
    // ...and a conforming parser recovers the original value exactly.
    let samples = parse_text(&text).expect("escaped exposition must parse");
    let info =
        samples.iter().find(|s| s.name == "digamma_process_info").expect("process info gauge");
    assert_eq!(info.label("checkpoint_dir"), Some(dir.path().to_str().unwrap()));
}

#[test]
fn tenant_labelled_series_appear_only_for_tenants_that_did_work() {
    let roster = TenantSet::parse("[tenant]\nid = alpha\n\n[tenant]\nid = idle\n").unwrap();
    let config = ServerConfig { workers: 1, ..ServerConfig::default() };
    let service = Service::start(config, roster);

    let accepted =
        client::post(&service.addr, "/jobs", Some(&small_job("active", Some("alpha")))).unwrap();
    let id: u64 =
        accepted.lines().find_map(|l| l.strip_prefix("id = ")?.trim().parse().ok()).unwrap();
    service.wait_status(id, "done", None);

    let samples = parse_text(&service.scrape(None)).unwrap();
    assert!(
        samples.iter().any(|s| s.label("tenant") == Some("alpha")),
        "the working tenant must have labelled series"
    );
    assert!(
        !samples.iter().any(|s| s.label("tenant") == Some("idle")),
        "a rostered-but-idle tenant must not mint series"
    );
}

#[test]
fn metrics_respect_the_bearer_token_gate() {
    let roster = TenantSet::parse("[tenant]\nid = alpha\ntoken = hunter2\n").unwrap();
    let config = ServerConfig { workers: 1, ..ServerConfig::default() };
    let service = Service::start(config, roster);

    let denied = client::request(&service.addr, "GET", "/metrics", None).unwrap();
    assert_eq!(denied.status, 401, "unauthenticated scrape must bounce");
    let allowed =
        client::request_as(&service.addr, "GET", "/metrics", None, Some("hunter2")).unwrap();
    assert_eq!(allowed.status, 200);
    assert!(parse_text(&allowed.body).is_ok());
    // The denial itself is visible in the next authorized scrape.
    let samples = parse_text(&service.scrape(Some("hunter2"))).unwrap();
    let unauthorized = samples
        .iter()
        .any(|s| s.name == "digamma_http_requests_total" && s.label("status") == Some("401"));
    assert!(unauthorized, "401s must be counted too");
}
