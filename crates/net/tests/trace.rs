//! Trace propagation over the wire: a client-minted W3C `traceparent`
//! submitted over real TCP must come back as the trace id of the job's
//! lifecycle spans in `GET /trace/{id}`, nested queued → claim → run →
//! generation and eval batch.

use digamma_net::{client, NetServer, ShutdownHandle};
use digamma_obs::{parse_chrome_trace, ChromeEvent, SpanContext};
use digamma_server::{JobRegistry, ServerConfig};
use std::sync::Arc;
use std::time::Duration;

struct Service {
    addr: String,
    handle: ShutdownHandle,
    serving: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl Service {
    fn start(config: ServerConfig) -> Service {
        let registry = Arc::new(JobRegistry::start(config, None).unwrap());
        let server = NetServer::bind("127.0.0.1:0", registry).unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let handle = server.shutdown_handle().unwrap();
        let serving = std::thread::spawn(move || server.serve());
        Service { addr, handle, serving: Some(serving) }
    }

    fn wait_done(&self, id: u64) {
        for _ in 0..600 {
            let body = client::get(&self.addr, &format!("/jobs/{id}")).unwrap();
            if body.contains("status = done") {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("job {id} never finished");
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

fn span<'a>(events: &'a [ChromeEvent], name: &str) -> &'a ChromeEvent {
    events.iter().find(|e| e.name == name).unwrap_or_else(|| panic!("no {name} span in {events:?}"))
}

/// The headline contract: a traceparent minted client-side rides the
/// submit across the socket and becomes the trace id every lifecycle
/// span of the job carries, with the parent chain intact.
#[test]
fn client_traceparent_propagates_into_the_job_lifecycle() {
    let service = Service::start(ServerConfig { workers: 1, ..ServerConfig::default() });
    let ctx = SpanContext::generate();
    client::set_default_traceparent(Some(ctx.traceparent()));
    let submitted = client::post(
        &service.addr,
        "/jobs",
        Some("[job]\nname = traced\nmodel = ncf\nbudget = 48\npopulation = 8\nseed = 4\n"),
    )
    .unwrap();
    client::set_default_traceparent(None);
    // The submit response names the trace the job joined — the client's.
    assert!(submitted.contains(&format!("trace = {}", ctx.trace)), "{submitted}");
    let id: u64 = submitted
        .lines()
        .find_map(|l| l.strip_prefix("id = "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap();
    service.wait_done(id);

    let body = client::get(&service.addr, &format!("/trace/{id}")).unwrap();
    let events = parse_chrome_trace(&body).unwrap();

    // Every complete span in the export carries the client's trace id
    // and non-negative timing; job spans sit in the job's pid lane,
    // request spans (the submit itself) in lane 0.
    let complete: Vec<&ChromeEvent> = events.iter().filter(|e| e.ph == "X").collect();
    assert!(complete.iter().filter(|e| e.pid == id).count() >= 4, "{events:?}");
    for event in &complete {
        assert_eq!(event.arg("trace"), Some(ctx.trace.to_string().as_str()), "{event:?}");
        assert!(event.ts >= 0.0 && event.dur >= 0.0, "{event:?}");
        if event.pid == id {
            assert_eq!(event.tid, 1, "{event:?}");
        } else {
            assert_eq!((event.pid, event.tid), (0, 0), "{event:?}");
        }
    }
    // The submitting request's own span is part of the trace.
    assert!(
        complete.iter().any(|e| e.name == "http.request" && e.arg("path") == Some("/jobs")),
        "{events:?}"
    );

    // The lifecycle nests: queued (child of the submitting request)
    // ← claim ← run ← generation and eval batch.
    let queued = span(&events, "job.queued");
    let claim = span(&events, "job.claim");
    let run = span(&events, "job.run");
    let generation = span(&events, "job.generation");
    let batch = span(&events, "eval.batch");
    assert!(queued.arg("parent").is_some(), "queued must hang under the request: {queued:?}");
    assert_eq!(claim.arg("parent"), queued.arg("span"), "{claim:?}");
    assert_eq!(run.arg("parent"), claim.arg("span"), "{run:?}");
    assert_eq!(generation.arg("parent"), run.arg("span"), "{generation:?}");
    assert_eq!(batch.arg("parent"), run.arg("span"), "{batch:?}");

    // Spans nest in time too: the run contains its generations.
    assert!(run.ts <= generation.ts, "{run:?} vs {generation:?}");
    assert!(generation.ts + generation.dur <= run.ts + run.dur + 1.0, "{run:?} vs {generation:?}");
}

/// `/trace` without a job id lists recent spans across traces —
/// including the request spans the server roots itself.
#[test]
fn recent_trace_export_includes_request_spans() {
    let service = Service::start(ServerConfig { workers: 1, ..ServerConfig::default() });
    client::get(&service.addr, "/stats").unwrap();
    // A request's span is recorded just after its response is written,
    // so a fresh connection can observe /trace first — poll briefly.
    let mut events = Vec::new();
    for _ in 0..100 {
        let body = client::get(&service.addr, "/trace").unwrap();
        events = parse_chrome_trace(&body).unwrap();
        if events.iter().any(|e| e.name == "http.request" && e.arg("path") == Some("/stats")) {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let request = events
        .iter()
        .find(|e| e.name == "http.request" && e.arg("path") == Some("/stats"))
        .unwrap_or_else(|| panic!("no /stats request span in {events:?}"));
    assert_eq!(request.pid, 0);
    assert_eq!(request.arg("status"), Some("200"));
}

#[test]
fn trace_endpoint_answers_404_for_an_unknown_job() {
    let service = Service::start(ServerConfig { workers: 1, ..ServerConfig::default() });
    let missing = client::request(&service.addr, "GET", "/trace/999999", None).unwrap();
    assert_eq!(missing.status, 404, "{}", missing.body);
    assert!(missing.body.contains("no such job"), "{}", missing.body);
}
