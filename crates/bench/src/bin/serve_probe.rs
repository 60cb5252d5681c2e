//! `serve_probe` — smoke probe for a running `cubesfc serve`.
//!
//! ```text
//! cargo run -p cubesfc-bench --release --bin serve_probe -- --probe HOST:PORT
//! ```
//!
//! Exercises an already-running server — health, readiness, a partition
//! round-trip, a cache hit, a malformed body (must be 400), a rebalance
//! step, an unknown route (404), the JSON `/metrics` snapshot, and the
//! request-ID echo — and exits nonzero on any contract violation. CI
//! uses this as the serve smoke gate.

use cubesfc::serve::{http_request, http_request_with_headers};
use std::net::SocketAddr;
use std::process::ExitCode;
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(30);

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

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let addr = match args.as_slice() {
        [flag, target] if flag == "--probe" => resolve(target),
        _ => Err("expected --probe HOST:PORT".to_string()),
    };
    let addr = match addr {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: serve_probe --probe HOST:PORT");
            return ExitCode::from(2);
        }
    };
    let failures = probe(addr);
    if failures == 0 {
        eprintln!("probe passed");
        ExitCode::SUCCESS
    } else {
        eprintln!("probe failed: {failures} check(s)");
        ExitCode::FAILURE
    }
}
