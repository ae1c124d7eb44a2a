//! `digamma-netc`: command-line client for `digamma-netd`.
//!
//! ```text
//! digamma-netc [--token TOKEN] submit <addr> <manifest-file>   # POST /jobs
//! digamma-netc [--token TOKEN] status <addr> <job-id>          # GET /jobs/{id}
//! digamma-netc [--token TOKEN] watch  <addr> <job-id>          # GET /jobs/{id}/events (streams)
//! digamma-netc [--token TOKEN] cancel <addr> <job-id>          # POST /jobs/{id}/cancel
//! digamma-netc [--token TOKEN] stats  <addr>                   # GET /stats
//! digamma-netc [--token TOKEN] metrics <addr> [--raw]          # GET /metrics
//! digamma-netc [--token TOKEN] trace <addr> <job-id> [-o FILE] # GET /trace/{id}
//! digamma-netc [--token TOKEN] analytics <addr> <job-id> [-o FILE] # GET /jobs/{id}/analytics
//! digamma-netc [--token TOKEN] top <addr> <job-id>             # live convergence dashboard
//! digamma-netc [--token TOKEN] shutdown <addr>                 # POST /shutdown
//! digamma-netc smoke <manifest-file> [netd] [--tenants FILE]   # end-to-end self-test
//! ```
//!
//! `metrics` pretty-prints the daemon's Prometheus exposition (counters
//! and gauges as `name = value`, histograms summarized to
//! count/sum/avg plus p50/p95/p99 estimated from the bucket
//! boundaries); `--raw` prints the exposition verbatim, byte for byte,
//! for piping into Prometheus tooling. `status` appends a `timing:`
//! line breaking a finished job's wall-clock into queue wait,
//! evaluation, checkpoint writes, and everything else.
//!
//! `analytics` fetches a job's search-analytics document — the
//! per-generation telemetry window, cumulative operator attribution,
//! and the cost-vs-evaluations convergence curve — as JSON (`-o FILE`
//! writes it for offline plotting). `top` is the live view of the same
//! data: it follows the job's event stream and, on every generation,
//! redraws an ANSI dashboard — best-cost sparkline, diversity and
//! feasibility gauges, staleness, and a per-operator win-rate table —
//! until the job ends.
//!
//! `trace` fetches a job's span timeline as Chrome trace-event JSON —
//! write it to a file with `-o` and load it in Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing`. Every invocation
//! of `digamma-netc` mints a W3C `traceparent` and sends it with each
//! request, so the daemon's job-lifecycle spans nest under a trace id
//! the client printed at submit time.
//!
//! `--token` sends `Authorization: Bearer TOKEN` with every request, for
//! daemons running an authenticated tenant roster (`netd --tenants`).
//!
//! `submit` mints a per-invocation `Idempotency-Key` and retries with
//! exponential backoff on transport failures and `503`s — a retried
//! submit returns the originally-accepted job ids instead of enqueueing
//! duplicates. `watch` reconnects from its last seen sequence number
//! when the stream drops before the terminal `end status=` line,
//! printing a `#` comment at every discontinuity.
//!
//! `smoke` is the CI path: it spawns the sibling `digamma-netd` binary
//! on an ephemeral port with a temporary checkpoint dir, submits the
//! manifest over a real socket, streams every job's events to
//! completion, checks `/stats` and each final report, requests shutdown,
//! and verifies the daemon exits cleanly. With `--tenants FILE` the
//! daemon runs that roster and the smoke additionally proves the
//! multi-tenant contract: an unauthenticated submit bounces with 401, an
//! over-quota tenant's submit bounces with 429, and `/stats` reports
//! per-tenant usage.

use digamma_net::client;
use digamma_obs::{JsonValue, SpanContext};
use digamma_server::TenantSet;
use std::io::BufRead;
use std::process::ExitCode;

fn usage() -> String {
    "usage: digamma-netc [--token TOKEN] \
     <submit|status|watch|cancel|stats|metrics|trace|analytics|top|shutdown|smoke> ..."
        .to_owned()
}

fn run(
    args: &[String],
    token: Option<&str>,
    tenants_path: Option<&str>,
    raw: bool,
    out_path: Option<&str>,
) -> Result<(), String> {
    let command = args.first().map(String::as_str).ok_or_else(usage)?;
    let arg = |i: usize, what: &str| {
        args.get(i).map(String::as_str).ok_or_else(|| format!("{command} needs {what}"))
    };
    match command {
        "submit" => {
            let addr = arg(1, "<addr>")?;
            let manifest = std::fs::read_to_string(arg(2, "<manifest-file>")?)
                .map_err(|e| format!("cannot read manifest: {e}"))?;
            // One idempotency key per invocation (a fresh trace context
            // is a cheap 128-bit random id): the retries below can only
            // ever return the originally-accepted job ids, never
            // enqueue duplicates — even when a fault ate the response.
            let key = format!("netc-{}", SpanContext::generate().traceparent());
            let body = client::submit_keyed(addr, &manifest, token, &key, Default::default())
                .map_err(stringify)?;
            print!("{body}");
            Ok(())
        }
        "status" => {
            let addr = arg(1, "<addr>")?;
            let id = arg(2, "<job-id>")?;
            let body = client::get_as(addr, &format!("/jobs/{id}"), token).map_err(stringify)?;
            print!("{body}");
            if let Some(timing) = timing_summary(&body) {
                println!("{timing}");
            }
            Ok(())
        }
        "watch" => {
            let addr = arg(1, "<addr>")?;
            let id: u64 =
                arg(2, "<job-id>")?.parse().map_err(|_| "job id must be a number".to_owned())?;
            watch(addr, id, token)
        }
        "cancel" => {
            let addr = arg(1, "<addr>")?;
            let id = arg(2, "<job-id>")?;
            print!(
                "{}",
                client::post_as(addr, &format!("/jobs/{id}/cancel"), None, token)
                    .map_err(stringify)?
            );
            Ok(())
        }
        "stats" => {
            print!("{}", client::get_as(arg(1, "<addr>")?, "/stats", token).map_err(stringify)?);
            Ok(())
        }
        "metrics" => {
            let text = client::get_as(arg(1, "<addr>")?, "/metrics", token).map_err(stringify)?;
            if raw {
                print!("{text}");
            } else {
                print!("{}", pretty_metrics(&text)?);
            }
            Ok(())
        }
        "trace" => {
            let addr = arg(1, "<addr>")?;
            let id = arg(2, "<job-id>")?;
            let body = client::get_as(addr, &format!("/trace/{id}"), token).map_err(stringify)?;
            match out_path {
                Some(path) => {
                    std::fs::write(path, &body).map_err(|e| format!("cannot write {path}: {e}"))?;
                    let events = digamma_obs::parse_chrome_trace(&body)
                        .map(|events| events.len())
                        .unwrap_or(0);
                    println!(
                        "wrote {} bytes ({events} trace event(s)) to {path} — \
                         load it in https://ui.perfetto.dev or chrome://tracing",
                        body.len()
                    );
                }
                None => print!("{body}"),
            }
            Ok(())
        }
        "analytics" => {
            let addr = arg(1, "<addr>")?;
            let id = arg(2, "<job-id>")?;
            let body =
                client::get_as(addr, &format!("/jobs/{id}/analytics"), token).map_err(stringify)?;
            match out_path {
                Some(path) => {
                    std::fs::write(path, &body).map_err(|e| format!("cannot write {path}: {e}"))?;
                    let generations = digamma_obs::parse_json(&body)
                        .ok()
                        .and_then(|doc| {
                            doc.get("generations").and_then(|v| v.as_arr()).map(|a| a.len())
                        })
                        .unwrap_or(0);
                    println!(
                        "wrote {} bytes ({generations} generation record(s)) to {path}",
                        body.len()
                    );
                }
                None => print!("{body}"),
            }
            Ok(())
        }
        "top" => {
            let addr = arg(1, "<addr>")?;
            let id: u64 =
                arg(2, "<job-id>")?.parse().map_err(|_| "job id must be a number".to_owned())?;
            top(addr, id, token)
        }
        "shutdown" => {
            print!(
                "{}",
                client::post_as(arg(1, "<addr>")?, "/shutdown", None, token).map_err(stringify)?
            );
            Ok(())
        }
        "smoke" => smoke(arg(1, "<manifest-file>")?, args.get(2).map(String::as_str), tenants_path),
        other => Err(format!("unknown command {other:?}\n{}", usage())),
    }
}

fn stringify(e: std::io::Error) -> String {
    e.to_string()
}

/// How many consecutive failed watch reconnect attempts give up.
const WATCH_MAX_RECONNECTS: u32 = 10;

/// Streams a job's events to stdout, *reconnecting* from the last seen
/// cursor when the connection drops before the terminal `end status=`
/// line — a watcher survives daemon restarts and injected connection
/// loss. Server-side `#` gap comments pass through verbatim; local
/// reconnects announce themselves the same way, so the output stays a
/// valid event stream with every discontinuity marked.
fn watch(addr: &str, id: u64, token: Option<&str>) -> Result<(), String> {
    let policy = client::RetryPolicy::default();
    let mut cursor: usize = 0;
    let mut failures = 0u32;
    loop {
        let mut terminal = false;
        let seen_at_start = cursor;
        let result = client::stream_events_as(addr, id, cursor, token, |line| {
            println!("{line}");
            // Track the server-side sequence so a reconnect resumes
            // where this stream left off: ordinary event lines advance
            // the cursor, and the server's gap comments name the
            // sequence they resume at.
            if let Some(rest) = line.split("resuming at seq ").nth(1) {
                if let Ok(seq) = rest.trim().parse() {
                    cursor = seq;
                }
            } else if !line.starts_with('#') {
                cursor += 1;
            }
            if line.starts_with("end status=") {
                terminal = true;
            }
            true
        });
        if terminal {
            return Ok(());
        }
        if cursor > seen_at_start {
            failures = 0;
        }
        failures += 1;
        if failures > WATCH_MAX_RECONNECTS {
            return match result {
                Ok(_) => Err(format!("stream for job {id} kept closing without a terminal event")),
                Err(e) => Err(format!("cannot stream job {id}: {e}")),
            };
        }
        let reason = match &result {
            Ok(_) => "connection closed before the terminal event".to_owned(),
            Err(e) => e.to_string(),
        };
        println!("# watch: reconnecting from seq {cursor} (attempt {failures}): {reason}");
        std::thread::sleep(policy.delay(failures - 1));
    }
}

/// Fetches the job's analytics document and parses it through the
/// in-tree JSON model.
fn fetch_analytics(addr: &str, id: u64, token: Option<&str>) -> Result<JsonValue, String> {
    let body = client::get_as(addr, &format!("/jobs/{id}/analytics"), token).map_err(stringify)?;
    digamma_obs::parse_json(&body).map_err(|e| format!("bad analytics JSON: {e}"))
}

/// The live convergence dashboard: follows the job's event stream and
/// redraws [`render_top`] on every generation (refreshing from
/// `/jobs/{id}/analytics` each time), until the terminal `end status=`
/// line arrives. The final frame stays on screen with the terminal
/// status appended.
fn top(addr: &str, id: u64, token: Option<&str>) -> Result<(), String> {
    // Prove the job exists (and the token works) before clearing the
    // user's screen.
    let doc = fetch_analytics(addr, id, token)?;
    draw_frame(&render_top(&doc, ""));
    let mut terminal = String::new();
    let _ = client::stream_events_as(addr, id, 0, token, |line| {
        if line.starts_with("end status=") {
            terminal = line.to_owned();
            return false;
        }
        if let Ok(doc) = fetch_analytics(addr, id, token) {
            draw_frame(&render_top(&doc, line));
        }
        true
    });
    let doc = fetch_analytics(addr, id, token)?;
    if terminal.is_empty() {
        terminal = "end (stream closed)".to_owned();
    }
    draw_frame(&render_top(&doc, &terminal));
    Ok(())
}

/// Clears the terminal and draws one dashboard frame.
fn draw_frame(frame: &str) {
    use std::io::Write as _;
    print!("\x1b[2J\x1b[H{frame}");
    let _ = std::io::stdout().flush();
}

/// Width of the dashboard's best-cost sparkline, in cells.
const SPARK_WIDTH: usize = 60;

/// Renders one dashboard frame from an analytics document: a header
/// line, the best-cost sparkline over the telemetry window (log scale —
/// costs span orders of magnitude), the population gauges, and the
/// per-operator attribution table with win rates. Pure string-in,
/// string-out so it is testable without a terminal.
fn render_top(doc: &JsonValue, last_event: &str) -> String {
    let job = doc.get("job").and_then(|v| v.as_u64()).unwrap_or(0);
    let generation = doc.get("generation").and_then(|v| v.as_u64()).unwrap_or(0);
    let evals = doc.get("evals").and_then(|v| v.as_u64()).unwrap_or(0);
    let best = doc.get("best").and_then(|v| v.as_num());
    let mut out = format!(
        "digamma top · job {job} · gen {generation} · evals {evals} · best {}\n",
        best.map_or_else(|| "none".to_owned(), |b| format!("{b:.6e}"))
    );
    let empty: &[JsonValue] = &[];
    let gens = doc.get("generations").and_then(|v| v.as_arr()).unwrap_or(empty);
    let bests: Vec<f64> =
        gens.iter().filter_map(|g| g.get("best").and_then(|v| v.as_num())).collect();
    out.push_str(&format!("best  {}\n", sparkline(&bests, SPARK_WIDTH)));
    if let Some(last) = gens.last() {
        let field = |key: &str| last.get(key).and_then(|v| v.as_num()).unwrap_or(0.0);
        let window_total = doc.get("window_total").and_then(|v| v.as_u64()).unwrap_or(0);
        out.push_str(&format!(
            "diversity {:.3} · feasible {:.2} · stale {} gen(s) · window {} of {}\n",
            field("diversity"),
            field("feasible_frac"),
            last.get("stale_gens").and_then(|v| v.as_u64()).unwrap_or(0),
            gens.len(),
            window_total,
        ));
    } else {
        out.push_str("(no stepped generations yet)\n");
    }
    out.push_str(&format!(
        "\n{:<10} {:>9} {:>9} {:>10} {:>6}\n",
        "operator", "attempted", "improved", "incumbent", "win%"
    ));
    for op in doc.get("operators").and_then(|v| v.as_arr()).unwrap_or(empty) {
        let name = op.get("operator").and_then(|v| v.as_str()).unwrap_or("?");
        let count = |key: &str| op.get(key).and_then(|v| v.as_u64()).unwrap_or(0);
        let (attempted, improved, incumbents) =
            (count("attempted"), count("improved"), count("incumbents"));
        let win = 100.0 * improved as f64 / attempted.max(1) as f64;
        out.push_str(&format!(
            "{name:<10} {attempted:>9} {improved:>9} {incumbents:>10} {win:>5.1}%\n"
        ));
    }
    if !last_event.is_empty() {
        out.push_str(&format!("\n{last_event}\n"));
    }
    out
}

/// A unicode sparkline of `values` (newest-last), downsampled to at
/// most `width` cells and log-scaled before the min-max fit — search
/// costs fall over orders of magnitude, and a linear scale would flatten
/// everything after the first improvement into one bar.
fn sparkline(values: &[f64], width: usize) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if finite.is_empty() {
        return "(no data)".to_owned();
    }
    let k = finite.len().min(width.max(1));
    let scaled: Vec<f64> =
        (0..k).map(|i| finite[i * finite.len() / k].max(f64::MIN_POSITIVE).ln()).collect();
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in &scaled {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    let span = hi - lo;
    scaled
        .iter()
        .map(|&v| {
            let level = if span > 0.0 {
                (((v - lo) / span) * (BARS.len() - 1) as f64).round() as usize
            } else {
                BARS.len() / 2
            };
            BARS[level.min(BARS.len() - 1)]
        })
        .collect()
}

/// The `timing:` footer for a finished job's status body: the wire
/// report's breakdown keys turned into one readable line. `None` until
/// the job has a report (no timing keys yet).
fn timing_summary(body: &str) -> Option<String> {
    let ms = |key: &str| {
        body.lines().find_map(|line| {
            let (k, v) = line.split_once('=')?;
            if k.trim() == key {
                v.trim().parse::<f64>().ok()
            } else {
                None
            }
        })
    };
    let wall = ms("wall_ms")?;
    let queue = ms("queue_wait_ms")?;
    let eval = ms("eval_ms")?;
    let checkpoint = ms("checkpoint_ms")?;
    // Queue wait precedes the run; eval and checkpoint slice the run's
    // wall-clock, the remainder is GA bookkeeping (selection,
    // crossover, dedup).
    let other = (wall - eval - checkpoint).max(0.0);
    Some(format!(
        "timing: queue {queue:.1} ms | eval {eval:.1} ms | checkpoint {checkpoint:.1} ms \
         | other {other:.1} ms | run total {wall:.1} ms"
    ))
}

/// Renders the exposition human-first: counters and gauges one per
/// line, histogram `_count`/`_sum` pairs folded into count/sum/avg plus
/// p50/p95/p99 estimated from the cumulative bucket counts.
fn pretty_metrics(text: &str) -> Result<String, String> {
    let samples =
        digamma_obs::parse_text(text).map_err(|e| format!("bad /metrics exposition: {e}"))?;
    let fmt_labels = |labels: &[(String, String)]| {
        if labels.is_empty() {
            String::new()
        } else {
            let pairs: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v:?}")).collect();
            format!("{{{}}}", pairs.join(","))
        }
    };
    let mut out = String::new();
    #[derive(Default)]
    struct Hist {
        count: Option<f64>,
        sum: Option<f64>,
        buckets: Vec<(f64, f64)>,
    }
    let mut hists: std::collections::BTreeMap<String, Hist> = std::collections::BTreeMap::new();
    for sample in &samples {
        if let Some(base) = sample.name.strip_suffix("_bucket") {
            let le = sample.labels.iter().find(|(k, _)| k == "le").map(|(_, v)| v.as_str());
            let Some(le) = le else { continue };
            let bound =
                if le == "+Inf" { f64::INFINITY } else { le.parse().unwrap_or(f64::INFINITY) };
            let rest: Vec<(String, String)> =
                sample.labels.iter().filter(|(k, _)| k != "le").cloned().collect();
            hists
                .entry(format!("{base}{}", fmt_labels(&rest)))
                .or_default()
                .buckets
                .push((bound, sample.value));
        } else if let Some(base) = sample.name.strip_suffix("_count") {
            hists.entry(format!("{base}{}", fmt_labels(&sample.labels))).or_default().count =
                Some(sample.value);
        } else if let Some(base) = sample.name.strip_suffix("_sum") {
            hists.entry(format!("{base}{}", fmt_labels(&sample.labels))).or_default().sum =
                Some(sample.value);
        } else {
            out.push_str(&format!(
                "{}{} = {}\n",
                sample.name,
                fmt_labels(&sample.labels),
                sample.value
            ));
        }
    }
    for (series, hist) in &hists {
        let (count, sum) = (hist.count.unwrap_or(0.0), hist.sum.unwrap_or(0.0));
        let avg = if count > 0.0 { sum / count } else { 0.0 };
        out.push_str(&format!("{series}: count={count} sum={sum:.6}s avg={avg:.9}s"));
        if count > 0.0 {
            let mut buckets = hist.buckets.clone();
            buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
            for (label, q) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)] {
                if let Some(value) = bucket_quantile(&buckets, q) {
                    out.push_str(&format!(" {label}≈{value:.6}s"));
                }
            }
        }
        out.push('\n');
    }
    Ok(out)
}

/// Estimates the `q`-quantile from cumulative histogram buckets
/// (`(upper_bound, cumulative_count)`, sorted by bound) by linear
/// interpolation inside the bucket the target rank lands in — the same
/// estimate Prometheus's `histogram_quantile` makes. Observations in
/// the `+Inf` bucket clamp to the last finite bound (the true value is
/// unknowable from buckets alone). `None` when the histogram is empty.
fn bucket_quantile(buckets: &[(f64, f64)], q: f64) -> Option<f64> {
    let total = buckets.last().map(|&(_, cum)| cum).filter(|&cum| cum > 0.0)?;
    let target = q * total;
    let mut previous = (0.0f64, 0.0f64);
    for &(bound, cum) in buckets {
        if cum >= target {
            if bound.is_infinite() {
                // Off the end of the finite buckets: report the last
                // finite bound rather than inventing a value.
                return Some(previous.0);
            }
            let in_bucket = cum - previous.1;
            let fraction = if in_bucket > 0.0 { (target - previous.1) / in_bucket } else { 1.0 };
            return Some(previous.0 + fraction * (bound - previous.0));
        }
        previous = (bound, cum);
    }
    Some(previous.0)
}

/// Locates the sibling `digamma-netd` binary (same target directory).
fn sibling_netd() -> Result<std::path::PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| e.to_string())?;
    let dir = me.parent().ok_or("no parent dir")?;
    let netd = dir.join(format!("digamma-netd{}", std::env::consts::EXE_SUFFIX));
    if netd.exists() {
        Ok(netd)
    } else {
        Err(format!("{} not found (build the digamma-net crate first)", netd.display()))
    }
}

fn smoke(
    manifest_path: &str,
    netd_override: Option<&str>,
    tenants_path: Option<&str>,
) -> Result<(), String> {
    let manifest =
        std::fs::read_to_string(manifest_path).map_err(|e| format!("cannot read manifest: {e}"))?;
    // In tenant mode, read the roster ourselves to pick identities: a
    // tokened, quota-free tenant runs the manifest; a tokened tenant
    // with a tight `max_evals` proves quota rejection.
    let roster = match tenants_path {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read tenants file: {e}"))?;
            Some(TenantSet::parse(&text).map_err(|e| format!("bad tenants file: {e}"))?)
        }
        None => None,
    };
    let (main_token, limited_token) = match &roster {
        Some(set) => {
            let main = set
                .iter()
                .find(|t| t.token.is_some() && t.max_evals.is_none() && t.max_queued.is_none())
                .ok_or("tenants file needs a tokened tenant without quotas")?;
            let limited = set.iter().find(|t| t.token.is_some() && t.max_evals.is_some());
            (main.token.clone(), limited.and_then(|t| t.token.clone()))
        }
        None => (None, None),
    };
    let netd = match netd_override {
        Some(path) => std::path::PathBuf::from(path),
        None => sibling_netd()?,
    };
    let ckpt = std::env::temp_dir().join(format!("digamma-netc-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&ckpt);

    println!("smoke: starting {}", netd.display());
    let mut command = std::process::Command::new(&netd);
    command.args(["--addr", "127.0.0.1:0", "--workers", "2", "--checkpoint-dir"]).arg(&ckpt);
    if let Some(path) = tenants_path {
        command.args(["--tenants", path]);
    }
    let mut child = command
        .stdout(std::process::Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot spawn netd: {e}"))?;
    let stdout = child.stdout.take().ok_or("no child stdout")?;
    let mut lines = std::io::BufReader::new(stdout).lines();
    let first =
        lines.next().ok_or("netd exited before announcing its address")?.map_err(stringify)?;
    let addr = first
        .strip_prefix("digamma-netd listening on ")
        .ok_or_else(|| format!("unexpected handshake line {first:?}"))?
        .to_owned();
    println!("smoke: daemon on {addr}");

    let token = main_token.as_deref();
    let outcome = (|| -> Result<(), String> {
        if roster.is_some() {
            // The whole point of a tokened roster: anonymous requests
            // bounce with 401, over-quota tenants with 429 — neither is
            // allowed to surface as a 500.
            let denied =
                client::request(&addr, "POST", "/jobs", Some(&manifest)).map_err(stringify)?;
            if denied.status != 401 {
                return Err(format!("unauthenticated submit got {}, wanted 401", denied.status));
            }
            println!("smoke: unauthenticated submit rejected with 401");
            if let Some(limited) = limited_token.as_deref() {
                let over =
                    client::request_as(&addr, "POST", "/jobs", Some(&manifest), Some(limited))
                        .map_err(stringify)?;
                if over.status != 429 {
                    return Err(format!("over-quota submit got {}, wanted 429", over.status));
                }
                println!("smoke: over-quota submit rejected with 429");
            }
        }
        let accepted =
            client::post_as(&addr, "/jobs", Some(&manifest), token).map_err(stringify)?;
        let ids: Vec<u64> = accepted
            .lines()
            .filter_map(|l| l.strip_prefix("id = "))
            .filter_map(|v| v.trim().parse().ok())
            .collect();
        if ids.is_empty() {
            return Err(format!("no jobs accepted:\n{accepted}"));
        }
        println!("smoke: submitted {} job(s): {ids:?}", ids.len());
        for &id in &ids {
            let events =
                client::stream_events_as(&addr, id, 0, token, |_| true).map_err(stringify)?;
            let last = events.last().cloned().unwrap_or_default();
            println!("smoke: job {id}: {} event(s), final {last:?}", events.len());
            if last != "end status=done" {
                return Err(format!("job {id} ended {last:?}, wanted done"));
            }
            let status = client::get_as(&addr, &format!("/jobs/{id}"), token).map_err(stringify)?;
            if !status.contains("status = done") || !status.contains("best_cost") {
                return Err(format!("job {id} status lacks a best design:\n{status}"));
            }
            // The analytics surface: valid JSON, a non-empty telemetry
            // window, and operator counters that account for every
            // stepped child (evals minus the generation-0 population).
            let doc = fetch_analytics(&addr, id, token)
                .map_err(|e| format!("job {id} analytics: {e}"))?;
            let generations =
                doc.get("generations").and_then(|v| v.as_arr()).map_or(0, |a| a.len());
            if generations == 0 {
                return Err(format!("job {id} analytics has no generation records"));
            }
            let evals = doc.get("evals").and_then(|v| v.as_u64()).unwrap_or(0);
            let seeded = doc
                .get("cost_points")
                .and_then(|v| v.as_arr())
                .and_then(|points| points.first())
                .and_then(|p| p.get("evals"))
                .and_then(|v| v.as_u64())
                .ok_or_else(|| format!("job {id} analytics lacks its starting cost point"))?;
            let attempted: u64 = doc
                .get("operators")
                .and_then(|v| v.as_arr())
                .map(|ops| {
                    ops.iter().filter_map(|op| op.get("attempted").and_then(|v| v.as_u64())).sum()
                })
                .unwrap_or(0);
            if attempted != evals - seeded {
                return Err(format!(
                    "job {id} attribution does not cover the search: \
                     Σattempted {attempted} != {evals} evals - {seeded} initial"
                ));
            }
            println!(
                "smoke: job {id} analytics ok \
                 ({generations} generation(s), {attempted} children attributed)"
            );
        }
        let stats = client::get_as(&addr, "/stats", token).map_err(stringify)?;
        println!("smoke: stats\n{stats}");
        if !stats.contains(&format!("done = {}", ids.len())) {
            return Err(format!("stats disagree about completions:\n{stats}"));
        }
        if roster.is_some() && !stats.contains("[tenant ") {
            return Err(format!("stats lack per-tenant sections:\n{stats}"));
        }
        if !stats.contains("[process]") || !stats.contains("uptime_seconds") {
            return Err(format!("stats lack the [process] section:\n{stats}"));
        }
        let exposition = client::get_as(&addr, "/metrics", token).map_err(stringify)?;
        let samples = digamma_obs::parse_text(&exposition)
            .map_err(|e| format!("/metrics is not valid exposition: {e}"))?;
        let requests: f64 = samples
            .iter()
            .filter(|s| s.name == "digamma_http_requests_total")
            .map(|s| s.value)
            .sum();
        if requests < 1.0 {
            return Err(format!("digamma_http_requests_total missing or zero:\n{exposition}"));
        }
        println!(
            "smoke: /metrics parses ({} samples, {requests} http requests counted)",
            samples.len()
        );
        // The trace surface: the job's lifecycle spans must export as
        // well-formed Chrome trace JSON nesting under one trace id.
        let trace =
            client::get_as(&addr, &format!("/trace/{}", ids[0]), token).map_err(stringify)?;
        let events = digamma_obs::parse_chrome_trace(&trace)
            .map_err(|e| format!("/trace/{} is not valid trace JSON: {e}", ids[0]))?;
        let complete = events.iter().filter(|e| e.ph == "X").count();
        if complete == 0 {
            return Err(format!("/trace/{} has no complete spans:\n{trace}", ids[0]));
        }
        for name in ["job.queued", "job.claim", "job.run"] {
            if !events.iter().any(|e| e.name == name) {
                return Err(format!("/trace/{} lacks a {name} span:\n{trace}", ids[0]));
            }
        }
        println!("smoke: /trace/{} parses ({complete} complete span(s))", ids[0]);
        Ok(())
    })();

    println!("smoke: shutting down");
    let shutdown = client::post_as(&addr, "/shutdown", None, token).map_err(stringify);
    let status = child.wait().map_err(stringify)?;
    std::fs::remove_dir_all(&ckpt).ok();
    outcome?;
    shutdown?;
    if !status.success() {
        return Err(format!("netd exited {status}"));
    }
    println!("smoke: ok");
    Ok(())
}

/// Extracts every `--flag VALUE` pair from `args` (any position),
/// returning the last VALUE given.
fn extract_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    let mut value = None;
    while let Some(pos) = args.iter().position(|a| a == flag) {
        if pos + 1 >= args.len() {
            return Err(format!("{flag} needs a value"));
        }
        value = Some(args.remove(pos + 1));
        args.remove(pos);
    }
    Ok(value)
}

/// Removes every occurrence of a valueless `--switch`, reporting
/// whether it appeared.
fn extract_switch(args: &mut Vec<String>, switch: &str) -> bool {
    let before = args.len();
    args.retain(|a| a != switch);
    args.len() != before
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // One span context per invocation: every request this process sends
    // carries the same W3C traceparent, so daemon-side request spans —
    // and the lifecycle of any job submitted here — share one trace id
    // the user can fetch later with `trace <addr> <job-id>`.
    client::set_default_traceparent(Some(SpanContext::generate().traceparent()));
    let result = (|| {
        let token = extract_flag(&mut args, "--token")?;
        let tenants = extract_flag(&mut args, "--tenants")?;
        let out = extract_flag(&mut args, "-o")?;
        let raw = extract_switch(&mut args, "--raw");
        run(&args, token.as_deref(), tenants.as_deref(), raw, out.as_deref())
    })();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("digamma-netc: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_descends_with_falling_costs() {
        let values: Vec<f64> = (0..10).map(|i| 1e9 / 10f64.powi(i)).collect();
        let line = sparkline(&values, 60);
        assert_eq!(line.chars().count(), 10);
        assert!(line.starts_with('█'), "{line}");
        assert!(line.ends_with('▁'), "{line}");
        assert_eq!(sparkline(&[], 60), "(no data)");
        assert_eq!(sparkline(&[f64::INFINITY], 60), "(no data)");
        assert_eq!(sparkline(&[5.0, 5.0], 60).chars().count(), 2, "flat series still renders");
        let wide: Vec<f64> = (0..500).map(|i| 500.0 - i as f64).collect();
        assert_eq!(sparkline(&wide, 60).chars().count(), 60, "downsampled to the width");
    }

    #[test]
    fn dashboard_renders_a_full_document() {
        let body = r#"{
            "job": 7, "generation": 3, "evals": 32, "best": 1200.5,
            "window_total": 3,
            "generations": [
                {"generation": 1, "evals": 16, "best": 9000.0, "median": 9500.0,
                 "mean": 9600.0, "worst": 12000.0, "feasible_frac": 0.75,
                 "diversity": 0.41, "stale_gens": 0},
                {"generation": 3, "evals": 32, "best": 1200.5, "median": 2000.0,
                 "mean": 2100.0, "worst": 4000.0, "feasible_frac": 1.0,
                 "diversity": 0.33, "stale_gens": 0}
            ],
            "operators": [
                {"operator": "elite", "attempted": 4, "improved": 0, "incumbents": 0},
                {"operator": "crossover", "attempted": 8, "improved": 4, "incumbents": 2}
            ],
            "cost_points": [{"generation": 0, "evals": 8, "best": 9000.0}]
        }"#;
        let doc = digamma_obs::parse_json(body).unwrap();
        let frame = render_top(&doc, "gen=3 samples=32/96 best=1.200500e3");
        assert!(frame.contains("job 7 · gen 3 · evals 32 · best 1.200500e3"), "{frame}");
        assert!(frame.contains("diversity 0.330"), "{frame}");
        assert!(frame.contains("feasible 1.00"), "{frame}");
        assert!(frame.contains("window 2 of 3"), "{frame}");
        assert!(frame.contains("crossover"), "{frame}");
        assert!(frame.contains("50.0%"), "crossover win rate: {frame}");
        assert!(frame.contains("gen=3 samples=32/96"), "the last event line: {frame}");
    }

    #[test]
    fn dashboard_survives_an_empty_window() {
        let doc = digamma_obs::parse_json(
            r#"{"job": 1, "generation": 0, "evals": 0, "best": null,
                "window_total": 0, "generations": [], "operators": [], "cost_points": []}"#,
        )
        .unwrap();
        let frame = render_top(&doc, "");
        assert!(frame.contains("best none"), "{frame}");
        assert!(frame.contains("(no stepped generations yet)"), "{frame}");
        assert!(frame.contains("(no data)"), "{frame}");
    }
}
