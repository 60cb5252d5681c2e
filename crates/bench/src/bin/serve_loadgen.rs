//! `serve_loadgen` — closed-loop load generator and smoke probe for the
//! `cubesfc serve` partitioning service (`BENCH_serve.json`).
//!
//! ```text
//! cargo run -p cubesfc-bench --release --bin serve_loadgen \
//!     [OUT.json] [--clients N] [--requests N] [--ne NE]
//!     [--access-log PATH]
//! cargo run -p cubesfc-bench --bin serve_loadgen -- --probe HOST:PORT
//! ```
//!
//! **Closed-loop mode** (default): starts an in-process server backed
//! by the real engine, runs `--clients` threads each issuing
//! `--requests` `POST /v1/partition` calls over a shuffled ladder of
//! processor counts (so the run exercises cold misses, cache hits, and
//! coalescing), and writes a `cubesfc-serve-bench-v1` document with
//! throughput and p50/p95/p99 latency derived from log₂ histograms,
//! plus the server's own cache/coalescing counters. The human-readable
//! summary goes to stderr.
//!
//! With `--access-log PATH` every client stamps its requests with a
//! known `x-cubesfc-request-id`, the server records the structured
//! `cubesfc-access-v1` log, and after the drain the harness
//! cross-checks the log against the client's own books: one `ok` line
//! per successful request, one 429 line per shed request, and per line
//! `queue_us + service_us` bounded by the latency the client measured.
//! Any violation exits nonzero; the verdict is folded into the bench
//! document and the NDJSON itself lands at `PATH`.
//!
//! **Probe mode** (`--probe ADDR`): exercises an already-running server
//! — health, readiness, a partition round-trip, a malformed body (must
//! be 400), an unknown route (404), `/metrics` in both JSON and
//! Prometheus text form, `/statusz`, and the request-ID echo — and
//! exits nonzero on any contract violation. CI uses this as the serve
//! smoke gate.

use cubesfc::serve::{http_request, http_request_with_headers, ServeConfig, Server};
use cubesfc::EngineBackend;
use cubesfc_obs::{HistogramSnapshot, JsonWriter, Layout, Registry};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(30);

struct Config {
    out: String,
    clients: usize,
    requests: usize,
    ne: usize,
    probe: Option<String>,
    /// Record and verify the `cubesfc-access-v1` log, writing it here.
    access_log: Option<String>,
}

fn parse_config() -> Result<Config, String> {
    let mut cfg = Config {
        out: "BENCH_serve.json".to_string(),
        clients: 8,
        requests: 40,
        ne: 8,
        probe: None,
        access_log: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--clients" => {
                cfg.clients = it
                    .next()
                    .ok_or("--clients needs a value")?
                    .parse()
                    .map_err(|e| format!("--clients: {e}"))?
            }
            "--requests" => {
                cfg.requests = it
                    .next()
                    .ok_or("--requests needs a value")?
                    .parse()
                    .map_err(|e| format!("--requests: {e}"))?
            }
            "--ne" => {
                cfg.ne = it
                    .next()
                    .ok_or("--ne needs a value")?
                    .parse()
                    .map_err(|e| format!("--ne: {e}"))?
            }
            "--probe" => cfg.probe = Some(it.next().ok_or("--probe needs HOST:PORT")?),
            "--access-log" => cfg.access_log = Some(it.next().ok_or("--access-log needs a path")?),
            other if !other.starts_with('-') => cfg.out = other.to_string(),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if cfg.clients == 0 || cfg.requests == 0 {
        return Err("--clients and --requests must be positive".into());
    }
    Ok(cfg)
}

fn resolve(addr: &str) -> Result<SocketAddr, String> {
    use std::net::ToSocketAddrs;
    addr.to_socket_addrs()
        .map_err(|e| format!("{addr}: {e}"))?
        .next()
        .ok_or_else(|| format!("{addr}: no address"))
}

/// Exercise the serve-v1 contract against a running server; every
/// failed expectation is printed and counted.
fn probe(addr: SocketAddr) -> usize {
    let mut failures = 0;
    let mut check = |name: &str, ok: bool, detail: String| {
        if ok {
            eprintln!("probe ok   : {name}");
        } else {
            eprintln!("probe FAIL : {name} — {detail}");
            failures += 1;
        }
    };

    match http_request(addr, "GET", "/healthz", None, TIMEOUT) {
        Ok(r) => check(
            "healthz is 200 and versioned",
            r.status == 200 && r.body.contains("cubesfc-serve-v1"),
            format!("status {} body {}", r.status, r.body),
        ),
        Err(e) => check("healthz is 200 and versioned", false, e.to_string()),
    }
    let body = r#"{"ne": 8, "nproc": 96, "method": "sfc"}"#;
    match http_request(addr, "POST", "/v1/partition", Some(body), TIMEOUT) {
        Ok(r) => check(
            "partition round-trips",
            r.status == 200 && r.body.contains("\"kind\":\"partition\""),
            format!("status {} body {}", r.status, r.body),
        ),
        Err(e) => check("partition round-trips", false, e.to_string()),
    }
    match http_request(addr, "POST", "/v1/partition", Some(body), TIMEOUT) {
        Ok(r) => check(
            "repeated request is a cache hit",
            r.status == 200 && r.header("x-cubesfc-cache") == Some("hit"),
            format!(
                "status {} cache {:?}",
                r.status,
                r.header("x-cubesfc-cache")
            ),
        ),
        Err(e) => check("repeated request is a cache hit", false, e.to_string()),
    }
    match http_request(addr, "POST", "/v1/partition", Some("{not json"), TIMEOUT) {
        Ok(r) => check(
            "malformed body is 400",
            r.status == 400,
            format!("status {}", r.status),
        ),
        Err(e) => check("malformed body is 400", false, e.to_string()),
    }
    match http_request(
        addr,
        "POST",
        "/v1/rebalance/step",
        Some(r#"{"ne": 8, "nproc": 6}"#),
        TIMEOUT,
    ) {
        Ok(r) => check(
            "rebalance step round-trips",
            r.status == 200 && r.body.contains("\"kind\":\"rebalance_step\""),
            format!("status {} body {}", r.status, r.body),
        ),
        Err(e) => check("rebalance step round-trips", false, e.to_string()),
    }
    match http_request(addr, "GET", "/v1/unknown", None, TIMEOUT) {
        Ok(r) => check(
            "unknown route is 404",
            r.status == 404,
            format!("status {}", r.status),
        ),
        Err(e) => check("unknown route is 404", false, e.to_string()),
    }
    match http_request(addr, "GET", "/metrics", None, TIMEOUT) {
        Ok(r) => check(
            "metrics snapshot is served",
            r.status == 200 && r.body.contains("cubesfc-profile-v1"),
            format!("status {} body {:.60}", r.status, r.body),
        ),
        Err(e) => check("metrics snapshot is served", false, e.to_string()),
    }
    match http_request(addr, "GET", "/readyz", None, TIMEOUT) {
        Ok(r) => check(
            "readyz is 200 while serving",
            r.status == 200 && r.body.contains("\"status\":\"ready\""),
            format!("status {} body {}", r.status, r.body),
        ),
        Err(e) => check("readyz is 200 while serving", false, e.to_string()),
    }
    match http_request(addr, "GET", "/statusz", None, TIMEOUT) {
        Ok(r) => check(
            "statusz renders the operator summary",
            r.status == 200 && r.body.contains("ready:") && r.body.contains("queue:"),
            format!("status {} body {:.80}", r.status, r.body),
        ),
        Err(e) => check("statusz renders the operator summary", false, e.to_string()),
    }
    match http_request_with_headers(
        addr,
        "GET",
        "/metrics",
        &[("accept", "text/plain")],
        None,
        TIMEOUT,
    ) {
        Ok(r) => check(
            "metrics negotiates Prometheus text",
            r.status == 200
                && r.body.contains("# TYPE")
                && r.header("content-type")
                    .is_some_and(|ct| ct.starts_with("text/plain")),
            format!(
                "status {} content-type {:?} body {:.60}",
                r.status,
                r.header("content-type"),
                r.body
            ),
        ),
        Err(e) => check("metrics negotiates Prometheus text", false, e.to_string()),
    }
    match http_request_with_headers(
        addr,
        "GET",
        "/healthz",
        &[("x-cubesfc-request-id", "probe-echo-1")],
        None,
        TIMEOUT,
    ) {
        Ok(r) => check(
            "client request id is echoed",
            r.status == 200 && r.header("x-cubesfc-request-id") == Some("probe-echo-1"),
            format!(
                "status {} id {:?}",
                r.status,
                r.header("x-cubesfc-request-id")
            ),
        ),
        Err(e) => check("client request id is echoed", false, e.to_string()),
    }
    failures
}

fn fmt_quantiles(h: &HistogramSnapshot) -> (f64, f64, f64) {
    (h.quantile(0.50), h.quantile(0.95), h.quantile(0.99))
}

/// `key: {"p50":…,"p95":…,"p99":…}`, behind a `count` when given.
fn write_quantiles(w: &mut JsonWriter, key: &str, count: Option<u64>, h: &HistogramSnapshot) {
    let (p50, p95, p99) = fmt_quantiles(h);
    w.key(key).begin_object();
    if let Some(count) = count {
        w.field("count", count);
    }
    w.field("p50", p50).field("p95", p95).field("p99", p99);
    w.end_object();
}

/// Verified access-log totals, folded into the bench document.
struct AccessVerdict {
    lines: u64,
    ok: u64,
    rejected: u64,
}

/// Cross-check the recorded `cubesfc-access-v1` log against the
/// client's own books and write the NDJSON to `path`. The bound on
/// `queue_us + service_us` holds structurally — the client's clock
/// starts before connect and stops after the full read — so the slack
/// only covers clock granularity.
fn verify_access_log(
    path: &str,
    total_ok: u64,
    rejected: u64,
    client_us: &HashMap<String, u64>,
) -> Result<AccessVerdict, String> {
    const SLACK_US: u64 = 1_000;
    let log = cubesfc_obs::access_log();
    if log.dropped() > 0 {
        return Err(format!(
            "access ring shed {} record(s); shrink the run to verify the log",
            log.dropped()
        ));
    }
    let text = log.export_ndjson();
    std::fs::write(path, &text).map_err(|e| format!("{path}: {e}"))?;
    let records = cubesfc_obs::parse_access(&text).map_err(|e| format!("{path}: {e}"))?;

    let ok_lines: Vec<_> = records
        .iter()
        .filter(|r| r.endpoint == "partition" && r.outcome == "ok")
        .collect();
    let rejected_lines = records.iter().filter(|r| r.status == 429).count() as u64;
    if ok_lines.len() as u64 != total_ok {
        return Err(format!(
            "access log has {} ok partition line(s), client saw {total_ok}",
            ok_lines.len()
        ));
    }
    if rejected_lines != rejected {
        return Err(format!(
            "access log has {rejected_lines} 429 line(s), client saw {rejected}"
        ));
    }
    for r in &ok_lines {
        let client = *client_us
            .get(&r.id)
            .ok_or_else(|| format!("access log id {:?} was never sent by a client", r.id))?;
        let server = r.queue_us + r.service_us;
        if server > client + SLACK_US {
            return Err(format!(
                "id {:?}: server accounts for {server}us (queue {} + service {}) \
                 but the client only measured {client}us",
                r.id, r.queue_us, r.service_us
            ));
        }
    }
    Ok(AccessVerdict {
        lines: records.len() as u64,
        ok: ok_lines.len() as u64,
        rejected: rejected_lines,
    })
}

fn closed_loop(cfg: &Config) -> Result<(), String> {
    if cfg.access_log.is_some() {
        cubesfc_obs::set_access_enabled(true);
    }
    let backend = Arc::new(EngineBackend::new());
    let handle = Server::start(
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: cfg.clients.clamp(2, 16),
            queue_capacity: (cfg.clients * 4).max(64),
            cache_entries: 256,
            deadline: TIMEOUT,
        },
        backend,
    )
    .map_err(|e| e.to_string())?;
    let addr = handle.local_addr();
    eprintln!(
        "serve_loadgen: {} clients x {} requests against {addr} (ne={})",
        cfg.clients, cfg.requests, cfg.ne
    );

    // Per-client latency registries merge into one snapshot at the end;
    // log2 buckets keep recording O(1) regardless of request count.
    let latencies = Registry::new();
    let nelem = 6 * cfg.ne * cfg.ne;
    let ladder: Vec<usize> = (1..=nelem).filter(|p| nelem.is_multiple_of(*p)).collect();

    // The client's own books: request ID → measured latency, for the
    // access-log cross-check after the drain.
    let client_us: Mutex<HashMap<String, u64>> = Mutex::new(HashMap::new());
    let started = Instant::now();
    let mut errors = 0usize;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.clients)
            .map(|c| {
                let latencies = &latencies;
                let ladder = &ladder;
                let client_us = &client_us;
                scope.spawn(move || {
                    let mut errors = 0usize;
                    for r in 0..cfg.requests {
                        // Stride the ladder differently per client so
                        // identical requests overlap (coalescing) while
                        // the mix still spans cold and warm keys.
                        let nproc = ladder[(c + r) % ladder.len()];
                        let mut body = JsonWriter::new(Layout::Compact);
                        body.begin_object().field("ne", cfg.ne);
                        body.field("nproc", nproc).field("method", "sfc");
                        let body = body.end_object().finish();
                        let id = format!("c{c:03}-r{r:04}");
                        let t0 = Instant::now();
                        let resp = http_request_with_headers(
                            addr,
                            "POST",
                            "/v1/partition",
                            &[("x-cubesfc-request-id", &id)],
                            Some(&body),
                            TIMEOUT,
                        );
                        let us = t0.elapsed().as_micros() as u64;
                        match resp {
                            Ok(resp) if resp.status == 200 => {
                                if resp.header("x-cubesfc-request-id") != Some(id.as_str()) {
                                    eprintln!(
                                        "request id {id} not echoed (got {:?})",
                                        resp.header("x-cubesfc-request-id")
                                    );
                                    errors += 1;
                                }
                                client_us.lock().unwrap().insert(id, us);
                                latencies.histogram_record("loadgen/latency_us", us);
                                let class = match resp.header("x-cubesfc-cache") {
                                    Some("hit") => "hit",
                                    Some("coalesced") => "coalesced",
                                    _ => "miss",
                                };
                                latencies
                                    .histogram_record(&format!("loadgen/latency_{class}_us"), us);
                            }
                            Ok(resp) if resp.status == 429 => {
                                // Overload shedding is part of the
                                // contract, not an error; back off.
                                latencies.counter_add("loadgen/rejected_429", 1);
                                std::thread::sleep(Duration::from_millis(10));
                            }
                            Ok(resp) => {
                                eprintln!("unexpected status {} for {body}", resp.status);
                                errors += 1;
                            }
                            Err(e) => {
                                eprintln!("request failed: {e}");
                                errors += 1;
                            }
                        }
                    }
                    errors
                })
            })
            .collect();
        for h in handles {
            errors += h.join().unwrap_or(1);
        }
    });
    let elapsed = started.elapsed();

    let snap = latencies.snapshot();
    let empty = HistogramSnapshot::default();
    let overall = snap.histograms.get("loadgen/latency_us").unwrap_or(&empty);
    let (p50, p95, p99) = fmt_quantiles(overall);
    let total_ok = overall.count;
    let rejected = *snap.counters.get("loadgen/rejected_429").unwrap_or(&0);
    let throughput = total_ok as f64 / elapsed.as_secs_f64();

    let server_snap = handle.registry().snapshot();
    let counter = |name: &str| *server_snap.counters.get(name).unwrap_or(&0);
    let (hits, misses, coalesced, computes) = (
        counter("serve/cache_hits"),
        counter("serve/cache_misses"),
        counter("serve/coalesced"),
        counter("serve/backend_computes"),
    );

    eprintln!(
        "{total_ok} ok / {rejected} shed / {errors} errors in {:.2}s — {:.0} req/s",
        elapsed.as_secs_f64(),
        throughput
    );
    eprintln!("latency p50={p50:.0}us p95={p95:.0}us p99={p99:.0}us");
    eprintln!(
        "server: cache_hits={hits} cache_misses={misses} coalesced={coalesced} computes={computes}"
    );

    // Drain before reading the access log: records are written after
    // the response bytes, so only a full drain guarantees the log is
    // complete.
    let stats = handle.shutdown();
    if stats.completed < stats.accepted {
        return Err(format!(
            "drain dropped work: accepted={} completed={}",
            stats.accepted, stats.completed
        ));
    }
    let access = match &cfg.access_log {
        Some(path) => {
            let books = client_us.into_inner().map_err(|e| e.to_string())?;
            let verdict = verify_access_log(path, total_ok, rejected, &books)?;
            eprintln!(
                "access log verified: {} line(s), {} ok, {} shed ({path})",
                verdict.lines, verdict.ok, verdict.rejected
            );
            Some(verdict)
        }
        None => None,
    };

    let mut w = JsonWriter::new(Layout::Compact);
    w.begin_object().field("schema", "cubesfc-serve-bench-v1");
    w.field("ne", cfg.ne).field("clients", cfg.clients);
    w.field("requests_per_client", cfg.requests);
    w.field("ok", total_ok).field("rejected_429", rejected);
    w.field("errors", errors);
    w.field("elapsed_s", elapsed.as_secs_f64());
    w.field("throughput_rps", throughput);
    write_quantiles(&mut w, "latency_us", None, overall);
    w.key("server").begin_object();
    w.field("cache_hits", hits).field("cache_misses", misses);
    w.field("coalesced", coalesced);
    w.field("backend_computes", computes).end_object();
    w.key("classes").begin_object();
    for class in ["hit", "miss", "coalesced"] {
        let h = snap
            .histograms
            .get(&format!("loadgen/latency_{class}_us"))
            .unwrap_or(&empty);
        write_quantiles(&mut w, class, Some(h.count), h);
    }
    w.end_object();
    if let Some(v) = &access {
        w.key("access_log").begin_object();
        w.field("lines", v.lines).field("ok", v.ok);
        w.field("rejected_429", v.rejected);
        w.field("verified", true).end_object();
    }
    let out = w.end_object().finish();
    std::fs::write(&cfg.out, &out).map_err(|e| format!("{}: {e}", cfg.out))?;
    eprintln!("(serve bench written to {})", cfg.out);

    if errors > 0 {
        return Err(format!("{errors} request(s) failed"));
    }
    Ok(())
}

fn main() -> ExitCode {
    let cfg = match parse_config() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: serve_loadgen [OUT.json] [--clients N] [--requests N] [--ne NE]\n\
                 \t  [--access-log PATH]\n\
                 \tserve_loadgen --probe HOST:PORT"
            );
            return ExitCode::from(2);
        }
    };
    if let Some(target) = &cfg.probe {
        let addr = match resolve(target) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        };
        let failures = probe(addr);
        return if failures == 0 {
            eprintln!("probe passed");
            ExitCode::SUCCESS
        } else {
            eprintln!("probe failed: {failures} check(s)");
            ExitCode::FAILURE
        };
    }
    match closed_loop(&cfg) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
