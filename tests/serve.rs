//! Integration tests for the `cubesfc-serve-v1` service: three of the
//! four production-mechanics guarantees from the subsystem's contract —
//!
//! 1. identical concurrent requests compute exactly once (coalescing),
//! 2. overload sheds with 429 while admitted work still completes,
//! 3. graceful shutdown drains every admitted request,
//!
//! plus deadline expiry (504), hostile-input rejection (400/413), and
//! the observability surface: the JSON `/metrics` document (including
//! the scrape observing itself before it snapshots), request-ID echo on
//! the success, shed, and deadline paths, `/readyz`, and access-log
//! totals agreeing with the `/metrics` latency counts and with a
//! closed-loop client's own books.
//!
//! The mechanics tests use a gated mock backend so concurrency is
//! *controlled*, not raced: the gate holds computations open until the
//! test has observed the state it needs (queue depth, coalesced
//! waiters), making every assertion deterministic. The fourth guarantee,
//! a cached result at least an order of magnitude faster than a cold
//! computation, is a wall-clock comparison; it lives in
//! `tests/serve_cache.rs`, apart from the CPU-bound load tests here.

use cubesfc::serve::{
    http_request, http_request_with_headers, Backend, BackendError, PartitionRequest,
    RebalanceStepRequest, ServeConfig, Server, ServerHandle,
};
use cubesfc::EngineBackend;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(30);

/// The acceptor's 429 lines in the process-global access log carry
/// server-assigned ids, so no id prefix tells one test's sheds from
/// another's: the tests that shed and the one that counts sheds hold
/// this lock.
fn shed_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A backend whose computations block until the test opens the gate,
/// counting every invocation.
struct GatedBackend {
    computes: AtomicUsize,
    open: Mutex<bool>,
    cv: Condvar,
}

impl GatedBackend {
    fn new() -> GatedBackend {
        GatedBackend {
            computes: AtomicUsize::new(0),
            open: Mutex::new(false),
            cv: Condvar::new(),
        }
    }

    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.cv.notify_all();
    }

    fn computes(&self) -> usize {
        self.computes.load(Ordering::SeqCst)
    }
}

impl Backend for GatedBackend {
    fn partition(&self, req: &PartitionRequest) -> Result<String, BackendError> {
        self.computes.fetch_add(1, Ordering::SeqCst);
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.cv.wait(open).unwrap();
        }
        Ok(format!("{{\"echo\":{}}}", req.nproc))
    }

    fn rebalance_step(&self, _req: &RebalanceStepRequest) -> Result<String, BackendError> {
        Ok("{}".to_string())
    }
}

fn start(config: ServeConfig, backend: Arc<dyn Backend>) -> (ServerHandle, SocketAddr) {
    let handle = Server::start(config, backend).expect("bind");
    let addr = handle.local_addr();
    (handle, addr)
}

fn partition_body(nproc: usize) -> String {
    format!("{{\"ne\": 16, \"nproc\": {nproc}, \"method\": \"kway\", \"seed\": 7}}")
}

fn post_partition(addr: SocketAddr, body: String) -> std::thread::JoinHandle<(u16, String)> {
    std::thread::spawn(move || {
        let resp = http_request(addr, "POST", "/v1/partition", Some(&body), TIMEOUT).unwrap();
        let cache = resp.header("x-cubesfc-cache").unwrap_or("").to_string();
        (resp.status, cache)
    })
}

fn spin_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + TIMEOUT;
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::yield_now();
    }
}

#[test]
fn identical_concurrent_requests_compute_exactly_once() {
    let backend = Arc::new(GatedBackend::new());
    let (handle, addr) = start(
        ServeConfig {
            workers: 8,
            ..ServeConfig::default()
        },
        Arc::clone(&backend) as Arc<dyn Backend>,
    );

    // Leader in flight, gate closed.
    let leader = post_partition(addr, partition_body(96));
    spin_until("leader to reach the backend", || backend.computes() == 1);

    // Three identical followers; wait until all are provably blocked on
    // the leader's flight before releasing, so coalescing is observed,
    // not raced.
    let followers: Vec<_> = (0..3)
        .map(|_| post_partition(addr, partition_body(96)))
        .collect();
    spin_until("followers to coalesce", || handle.coalesced_waiting() == 3);
    backend.open();

    let (status, cache) = leader.join().unwrap();
    assert_eq!((status, cache.as_str()), (200, "miss"));
    for f in followers {
        let (status, cache) = f.join().unwrap();
        assert_eq!(status, 200);
        assert_eq!(cache, "coalesced");
    }
    assert_eq!(
        backend.computes(),
        1,
        "identical requests must compute once"
    );

    // A later identical request is served from the result cache without
    // touching the backend at all.
    let (status, cache) = post_partition(addr, partition_body(96)).join().unwrap();
    assert_eq!((status, cache.as_str()), (200, "hit"));
    assert_eq!(backend.computes(), 1);
    handle.shutdown();
}

#[test]
fn saturating_the_queue_sheds_429_while_admitted_work_completes() {
    let _shed = shed_lock();
    let backend = Arc::new(GatedBackend::new());
    let (handle, addr) = start(
        ServeConfig {
            workers: 1,
            queue_capacity: 1,
            ..ServeConfig::default()
        },
        Arc::clone(&backend) as Arc<dyn Backend>,
    );

    // First request occupies the single worker (blocked in the gate);
    // second sits in the single queue slot.
    let in_flight = post_partition(addr, partition_body(6));
    spin_until("worker to pick up the first request", || {
        backend.computes() == 1
    });
    let queued = post_partition(addr, partition_body(12));
    spin_until("second request to queue", || handle.queue_depth() == 1);

    // The queue is now full: further connections are refused with 429 +
    // Retry-After straight from the acceptor.
    let resp = http_request(
        addr,
        "POST",
        "/v1/partition",
        Some(&partition_body(24)),
        TIMEOUT,
    )
    .unwrap();
    assert_eq!(resp.status, 429);
    assert_eq!(resp.header("retry-after"), Some("1"));
    assert!(resp.body.contains("cubesfc-serve-v1"));

    // Shedding did not disturb admitted work: both complete once the
    // gate opens.
    backend.open();
    assert_eq!(in_flight.join().unwrap().0, 200);
    assert_eq!(queued.join().unwrap().0, 200);
    let stats = handle.shutdown();
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.accepted, 2);
    assert_eq!(stats.completed, 2);
}

#[test]
fn shutdown_under_load_drains_every_admitted_request() {
    let backend = Arc::new(GatedBackend::new());
    let (handle, addr) = start(
        ServeConfig {
            workers: 2,
            queue_capacity: 16,
            ..ServeConfig::default()
        },
        Arc::clone(&backend) as Arc<dyn Backend>,
    );

    // Six clients with distinct keys: two reach the workers (blocked in
    // the gate), four wait in the queue.
    let clients: Vec<_> = (1..=6)
        .map(|i| post_partition(addr, partition_body(6 * i)))
        .collect();
    spin_until("both workers busy", || backend.computes() == 2);
    spin_until("remaining requests queued", || handle.queue_depth() == 4);

    // Initiate shutdown while all six are outstanding, then release the
    // backend: the drain must answer every admitted request.
    let drainer = std::thread::spawn(move || handle.shutdown());
    backend.open();
    for c in clients {
        assert_eq!(c.join().unwrap().0, 200, "an admitted request was dropped");
    }
    let stats = drainer.join().unwrap();
    assert_eq!(stats.accepted, 6);
    assert_eq!(stats.completed, 6, "drain must complete all admitted work");
    assert_eq!(backend.computes(), 6);
}

#[test]
fn requests_that_outlive_their_deadline_get_504() {
    let backend = Arc::new(GatedBackend::new());
    let (handle, addr) = start(
        ServeConfig {
            workers: 1,
            deadline: Duration::from_millis(150),
            ..ServeConfig::default()
        },
        Arc::clone(&backend) as Arc<dyn Backend>,
    );

    // Occupy the only worker past the second request's deadline.
    let blocker = post_partition(addr, partition_body(6));
    spin_until("worker to pick up the blocker", || backend.computes() == 1);
    let late = post_partition(addr, partition_body(12));
    spin_until("late request to queue", || handle.queue_depth() == 1);
    std::thread::sleep(Duration::from_millis(250));
    backend.open();

    assert_eq!(blocker.join().unwrap().0, 200);
    let (status, _) = late.join().unwrap();
    assert_eq!(status, 504, "expired queue time must be answered with 504");
    assert_eq!(
        backend.computes(),
        1,
        "expired work must not reach the backend"
    );
    handle.shutdown();
}

#[test]
fn hostile_bodies_are_rejected_with_structured_errors() {
    let (handle, addr) = start(ServeConfig::default(), Arc::new(EngineBackend::new()));

    // Not JSON at all.
    let resp = http_request(addr, "POST", "/v1/partition", Some("{not json"), TIMEOUT).unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.body.contains("\"error\""), "body: {}", resp.body);

    // Pathologically deep nesting: rejected by the depth limit, not a
    // stack overflow.
    let deep = format!("{}1{}", "[".repeat(5000), "]".repeat(5000));
    let resp = http_request(addr, "POST", "/v1/partition", Some(&deep), TIMEOUT).unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.body.contains("nesting"), "body: {}", resp.body);

    // Valid JSON, invalid request shape / bounds.
    for body in [
        "[1, 2, 3]",
        "{\"nproc\": 4}",
        "{\"ne\": 0, \"nproc\": 4}",
        "{\"ne\": 4, \"nproc\": 4, \"method\": \"voronoi\"}",
        "{\"ne\": 4, \"nproc\": 4000}",
    ] {
        let resp = http_request(addr, "POST", "/v1/partition", Some(body), TIMEOUT).unwrap();
        assert_eq!(resp.status, 400, "body {body:?} must be rejected");
        assert!(resp.body.contains("cubesfc-serve-v1"));
    }

    // An over-declared Content-Length is refused before the body is
    // read (413), and a POST without one is refused outright (411).
    let resp = http_request(addr, "POST", "/v1/partition", Some(""), TIMEOUT).unwrap();
    assert_eq!(resp.status, 400, "empty body is a parse error, not a hang");
    let huge = vec![b' '; 16];
    let mut raw_req =
        String::from("POST /v1/partition HTTP/1.1\r\ncontent-length: 99999999\r\n\r\n");
    raw_req.push_str(std::str::from_utf8(&huge).unwrap());
    {
        use std::io::{Read, Write};
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(TIMEOUT)).unwrap();
        stream.write_all(raw_req.as_bytes()).unwrap();
        let mut out = String::new();
        let _ = stream.read_to_string(&mut out);
        assert!(out.starts_with("HTTP/1.1 413"), "got: {out:.60}");
    }
    {
        use std::io::{Read, Write};
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(TIMEOUT)).unwrap();
        stream
            .write_all(b"POST /v1/partition HTTP/1.1\r\n\r\n")
            .unwrap();
        let mut out = String::new();
        let _ = stream.read_to_string(&mut out);
        assert!(out.starts_with("HTTP/1.1 411"), "got: {out:.60}");
    }

    // Wrong method on a known route.
    let resp = http_request(addr, "GET", "/v1/partition", None, TIMEOUT).unwrap();
    assert_eq!(resp.status, 405);
    handle.shutdown();
}

#[test]
fn metrics_endpoint_reports_cache_and_queue_counters() {
    let (handle, addr) = start(ServeConfig::default(), Arc::new(EngineBackend::new()));
    let body = "{\"ne\": 4, \"nproc\": 8, \"method\": \"sfc\"}";
    for _ in 0..3 {
        let resp = http_request(addr, "POST", "/v1/partition", Some(body), TIMEOUT).unwrap();
        assert_eq!(resp.status, 200);
    }
    let resp = http_request(addr, "GET", "/metrics", None, TIMEOUT).unwrap();
    assert_eq!(resp.status, 200);
    let doc = cubesfc::obs::json_parse(&resp.body).unwrap();
    let counters = doc.get("counters").unwrap();
    assert_eq!(
        counters.get("serve/cache_misses").unwrap().as_u64(),
        Some(1)
    );
    assert_eq!(counters.get("serve/cache_hits").unwrap().as_u64(), Some(2));
    assert_eq!(
        counters.get("serve/backend_computes").unwrap().as_u64(),
        Some(1)
    );
    assert!(counters.get("serve/requests").unwrap().as_u64().unwrap() >= 4);
    handle.shutdown();
}

#[test]
fn metrics_answers_json_and_pins_its_own_observation() {
    let (handle, addr) = start(ServeConfig::default(), Arc::new(EngineBackend::new()));

    // Default Accept: the JSON profile document.
    let resp = http_request(addr, "GET", "/metrics", None, TIMEOUT).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("content-type"), Some("application/json"));
    let doc = cubesfc::obs::json_parse(&resp.body).unwrap();
    // The scrape observes itself *before* snapshotting: the very first
    // /metrics response already contains its own latency sample and
    // request count, so a final scrape's totals agree with the access
    // log instead of trailing it by one.
    let metrics_count = doc
        .get("histograms")
        .and_then(|h| h.get("serve/latency/metrics_us"))
        .and_then(|h| h.get("count"))
        .and_then(|c| c.as_u64());
    assert_eq!(metrics_count, Some(1), "body: {}", resp.body);
    assert_eq!(
        doc.get("counters")
            .and_then(|c| c.get("serve/requests"))
            .and_then(|c| c.as_u64()),
        Some(1)
    );

    // There is one format: `Accept: text/plain` gets the same JSON.
    let resp = http_request_with_headers(
        addr,
        "GET",
        "/metrics",
        &[("accept", "text/plain")],
        None,
        TIMEOUT,
    )
    .unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("content-type"), Some("application/json"));
    assert!(
        cubesfc::obs::json_parse(&resp.body).is_ok(),
        "{}",
        resp.body
    );
    handle.shutdown();
}

#[test]
fn request_ids_are_echoed_on_success_shed_and_deadline_paths() {
    let _shed = shed_lock();
    let (handle, addr) = start(ServeConfig::default(), Arc::new(EngineBackend::new()));
    let body = "{\"ne\": 4, \"nproc\": 6, \"method\": \"sfc\"}";

    // A well-formed client-supplied ID is echoed verbatim.
    let resp = http_request_with_headers(
        addr,
        "POST",
        "/v1/partition",
        &[("x-cubesfc-request-id", "my-id-123")],
        Some(body),
        TIMEOUT,
    )
    .unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("x-cubesfc-request-id"), Some("my-id-123"));

    // Without one the server assigns from its sequence.
    let resp = http_request(addr, "POST", "/v1/partition", Some(body), TIMEOUT).unwrap();
    let id = resp.header("x-cubesfc-request-id").unwrap();
    assert!(
        id.len() == 7 && id.starts_with('r') && id[1..].chars().all(|c| c.is_ascii_digit()),
        "generated id: {id:?}"
    );

    // An invalid client ID (embedded whitespace) is replaced, not echoed.
    let resp = http_request_with_headers(
        addr,
        "POST",
        "/v1/partition",
        &[("x-cubesfc-request-id", "not valid")],
        Some(body),
        TIMEOUT,
    )
    .unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp
        .header("x-cubesfc-request-id")
        .unwrap()
        .starts_with('r'));
    handle.shutdown();

    // The early-reply paths carry IDs too: 429 from the acceptor and
    // 504 for work that expired in the queue, neither of which ever
    // reads the request.
    let backend = Arc::new(GatedBackend::new());
    let (handle, addr) = start(
        ServeConfig {
            workers: 1,
            queue_capacity: 1,
            deadline: Duration::from_millis(150),
            ..ServeConfig::default()
        },
        Arc::clone(&backend) as Arc<dyn Backend>,
    );
    let blocker = post_partition(addr, partition_body(6));
    spin_until("worker to pick up the blocker", || backend.computes() == 1);
    let late = std::thread::spawn(move || {
        http_request(
            addr,
            "POST",
            "/v1/partition",
            Some(&partition_body(12)),
            TIMEOUT,
        )
        .unwrap()
    });
    spin_until("late request to queue", || handle.queue_depth() == 1);

    let shed = http_request(
        addr,
        "POST",
        "/v1/partition",
        Some(&partition_body(24)),
        TIMEOUT,
    )
    .unwrap();
    assert_eq!(shed.status, 429);
    assert!(
        shed.header("x-cubesfc-request-id").is_some(),
        "429 must carry a request id"
    );

    std::thread::sleep(Duration::from_millis(250));
    backend.open();
    assert_eq!(blocker.join().unwrap().0, 200);
    let late = late.join().unwrap();
    assert_eq!(late.status, 504);
    assert!(
        late.header("x-cubesfc-request-id").is_some(),
        "504 must carry a request id"
    );
    handle.shutdown();
}

#[test]
fn readyz_reports_operational_state_and_statusz_is_gone() {
    let (handle, addr) = start(ServeConfig::default(), Arc::new(EngineBackend::new()));

    let resp = http_request(addr, "GET", "/readyz", None, TIMEOUT).unwrap();
    assert_eq!(resp.status, 200);
    assert!(
        resp.body.contains("\"status\":\"ready\""),
        "body: {}",
        resp.body
    );

    // The operational endpoints are GET-only.
    let resp = http_request(addr, "POST", "/readyz", Some("{}"), TIMEOUT).unwrap();
    assert_eq!(resp.status, 405);

    // `/statusz` is an unknown path like any other.
    let resp = http_request(addr, "GET", "/statusz", None, TIMEOUT).unwrap();
    assert_eq!(resp.status, 404);
    handle.shutdown();
}

#[test]
fn access_log_counts_agree_with_metrics_totals() {
    // The access log is process-global; every request in this test
    // carries a recognizable ID so lines from concurrently running
    // tests are filtered out, while `/metrics` comes from this server's
    // own registry and so counts exactly our requests.
    cubesfc::obs::set_access_enabled(true);
    let (handle, addr) = start(ServeConfig::default(), Arc::new(EngineBackend::new()));
    let prefix = "agree9";

    let mut sent = 0u64;
    for i in 0..5 {
        let body = format!(
            "{{\"ne\": 4, \"nproc\": {}, \"method\": \"sfc\"}}",
            6 * (i % 2 + 1)
        );
        let id = format!("{prefix}-p{i}");
        let resp = http_request_with_headers(
            addr,
            "POST",
            "/v1/partition",
            &[("x-cubesfc-request-id", &id)],
            Some(&body),
            TIMEOUT,
        )
        .unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("x-cubesfc-request-id"), Some(id.as_str()));
        sent += 1;
    }
    let resp = http_request_with_headers(
        addr,
        "GET",
        "/metrics",
        &[("x-cubesfc-request-id", "agree9-m0")],
        None,
        TIMEOUT,
    )
    .unwrap();
    assert_eq!(resp.status, 200);
    let doc = cubesfc::obs::json_parse(&resp.body).unwrap();
    // Drain before reading the log: access lines are written after the
    // response bytes.
    handle.shutdown();

    let records = cubesfc::obs::parse_access(&cubesfc::obs::access_log().export_ndjson()).unwrap();
    let ours: Vec<_> = records
        .iter()
        .filter(|r| r.id.starts_with(prefix))
        .collect();
    let partitions = ours.iter().filter(|r| r.endpoint == "partition").count() as u64;
    let metrics = ours.iter().filter(|r| r.endpoint == "metrics").count() as u64;
    assert_eq!(partitions, sent);
    assert_eq!(metrics, 1);
    assert!(ours.iter().all(|r| r.outcome == "ok" && r.status == 200));

    // The scrape's latency counts equal the access-log line counts per
    // endpoint: the scrape observed itself before snapshotting.
    let count_of = |name: &str| -> u64 {
        doc.get("histograms")
            .and_then(|h| h.get(name))
            .and_then(|h| h.get("count"))
            .and_then(|c| c.as_u64())
            .unwrap_or_else(|| panic!("no histogram {name} in {}", resp.body))
    };
    assert_eq!(count_of("serve/latency/partition_us"), partitions);
    assert_eq!(count_of("serve/latency/metrics_us"), metrics);
}

#[test]
fn access_log_agrees_with_the_clients_books_under_load() {
    // Closed-loop clients keep their own books (request id → latency
    // they measured, sheds they saw); after the drain the access log
    // must agree: every `ok` line's id was sent by a client, the ok and
    // 429 line counts equal the client's, and each line's `queue_us +
    // service_us` fits inside the client's latency. That bound holds
    // structurally — the client's clock starts before connect and stops
    // after the full read — so the slack only covers clock granularity.
    const CLIENTS: usize = 4;
    const REQUESTS: usize = 20;
    const SLACK_US: u64 = 1_000;
    let _shed = shed_lock();
    cubesfc::obs::set_access_enabled(true);
    let log = cubesfc::obs::access_log();
    let first_seq = log.records().last().map_or(0, |r| r.seq + 1);
    let (handle, addr) = start(
        ServeConfig {
            workers: CLIENTS,
            ..ServeConfig::default()
        },
        Arc::new(EngineBackend::new()),
    );
    let prefix = "books5";
    let ladder: Vec<usize> = (1..=384).filter(|p| 384 % p == 0).collect();
    let books: Mutex<HashMap<String, u64>> = Mutex::new(HashMap::new());
    let shed = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let (ladder, books, shed) = (&ladder, &books, &shed);
            scope.spawn(move || {
                for r in 0..REQUESTS {
                    // Stride the ladder per client so identical requests
                    // overlap (coalescing) while the mix spans cold and
                    // warm keys.
                    let nproc = ladder[(c + r) % ladder.len()];
                    let body = format!("{{\"ne\": 8, \"nproc\": {nproc}, \"method\": \"sfc\"}}");
                    let id = format!("{prefix}-c{c}-r{r}");
                    let t0 = Instant::now();
                    let resp = http_request_with_headers(
                        addr,
                        "POST",
                        "/v1/partition",
                        &[("x-cubesfc-request-id", &id)],
                        Some(&body),
                        TIMEOUT,
                    )
                    .unwrap();
                    let us = t0.elapsed().as_micros() as u64;
                    match resp.status {
                        200 => {
                            assert_eq!(resp.header("x-cubesfc-request-id"), Some(id.as_str()));
                            books.lock().unwrap().insert(id, us);
                        }
                        429 => {
                            shed.fetch_add(1, Ordering::SeqCst);
                        }
                        status => panic!("unexpected status {status} for {body}"),
                    }
                }
            });
        }
    });
    // Drain before reading the log: access lines are written after the
    // response bytes.
    let stats = handle.shutdown();
    assert_eq!(stats.completed, stats.accepted, "drain dropped work");
    assert_eq!(log.dropped(), 0, "the access ring shed records");

    let books = books.into_inner().unwrap();
    let records = cubesfc::obs::parse_access(&log.export_ndjson()).unwrap();
    let window: Vec<_> = records.iter().filter(|r| r.seq >= first_seq).collect();
    let ok_lines: Vec<_> = window
        .iter()
        .filter(|r| r.id.starts_with(prefix) && r.endpoint == "partition" && r.outcome == "ok")
        .collect();
    let shed_lines = window.iter().filter(|r| r.status == 429).count();
    assert_eq!(ok_lines.len(), books.len(), "ok lines vs client's ok count");
    assert_eq!(shed_lines, shed.into_inner(), "429 lines vs client's sheds");
    for r in ok_lines {
        let client = *books
            .get(&r.id)
            .unwrap_or_else(|| panic!("access log id {:?} was never sent by a client", r.id));
        let server = r.queue_us + r.service_us;
        assert!(
            server <= client + SLACK_US,
            "id {:?}: server accounts for {server}us (queue {} + service {}) \
             but the client only measured {client}us",
            r.id,
            r.queue_us,
            r.service_us
        );
    }
}

// ---------------------------------------------------------------------
// Keep-alive: one connection, many requests. These tests talk raw
// HTTP/1.1 on one socket, because the in-repo client says
// `connection: close` on every request.
// ---------------------------------------------------------------------

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// A reply read off a kept-alive socket by `content-length`.
struct RawReply {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl RawReply {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

fn keep_alive_socket(addr: SocketAddr) -> BufReader<TcpStream> {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(TIMEOUT)).unwrap();
    stream.set_nodelay(true).unwrap();
    BufReader::new(stream)
}

/// A `GET /healthz` that keeps the connection open, with request id `id`.
fn healthz_request(id: &str) -> String {
    format!("GET /healthz HTTP/1.1\r\nhost: cubesfc\r\nx-cubesfc-request-id: {id}\r\n\r\n")
}

fn read_reply(socket: &mut BufReader<TcpStream>) -> RawReply {
    let mut line = String::new();
    socket.read_line(&mut line).unwrap();
    let status = line.split_whitespace().nth(1).unwrap().parse().unwrap();
    let mut headers = Vec::new();
    loop {
        line.clear();
        socket.read_line(&mut line).unwrap();
        let Some((name, value)) = line.trim_end().split_once(':') else {
            break;
        };
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }
    let mut reply = RawReply {
        status,
        headers,
        body: String::new(),
    };
    let length: u64 = reply.header("content-length").unwrap().parse().unwrap();
    socket
        .by_ref()
        .take(length)
        .read_to_string(&mut reply.body)
        .unwrap();
    reply
}

fn exchange(socket: &mut BufReader<TcpStream>, request: &str) -> RawReply {
    socket.get_mut().write_all(request.as_bytes()).unwrap();
    read_reply(socket)
}

fn counter(handle: &ServerHandle, name: &str) -> u64 {
    handle
        .registry()
        .snapshot()
        .counters
        .get(name)
        .copied()
        .unwrap_or(0)
}

#[test]
fn drain_counts_each_admitted_connection_once_and_never_the_wake_up() {
    const N: u64 = 5;
    let (handle, addr) = start(ServeConfig::default(), Arc::new(EngineBackend::new()));
    for _ in 0..N {
        let resp = http_request(addr, "GET", "/healthz", None, TIMEOUT).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("connection"), Some("close"));
    }
    assert_eq!(counter(&handle, "serve/requests"), N);
    let stats = handle.shutdown();
    assert_eq!(
        (stats.accepted, stats.completed, stats.rejected),
        (N, N, 0),
        "{stats:?}"
    );
}

#[test]
fn shutdown_is_prompt_with_no_traffic_and_with_an_idle_keep_alive_client() {
    for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
        let (handle, _) = start(
            ServeConfig {
                addr: bind.to_string(),
                ..ServeConfig::default()
            },
            Arc::new(EngineBackend::new()),
        );
        let t0 = Instant::now();
        let stats = handle.shutdown();
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "{bind}: {:?}",
            t0.elapsed()
        );
        assert_eq!((stats.accepted, stats.completed, stats.rejected), (0, 0, 0));
    }

    let (handle, addr) = start(ServeConfig::default(), Arc::new(EngineBackend::new()));
    let mut socket = keep_alive_socket(addr);
    let reply = exchange(&mut socket, &healthz_request("idle-1"));
    assert_eq!(reply.status, 200);
    assert_eq!(reply.header("connection"), None, "the socket stays open");
    // The client holds the socket open and sends nothing more.
    let t0 = Instant::now();
    let stats = handle.shutdown();
    assert!(t0.elapsed() < Duration::from_secs(1), "{:?}", t0.elapsed());
    assert_eq!((stats.accepted, stats.completed, stats.rejected), (1, 1, 0));
    let mut rest = Vec::new();
    assert_eq!(
        socket.read_to_end(&mut rest).unwrap(),
        0,
        "closed, not reset"
    );
}

#[test]
fn shutdown_is_prompt_with_an_admitted_silent_connection() {
    // A client that connects and never sends holds neither a worker nor
    // the drain for the deadline: its worker waits for the first byte
    // in slices that notice the drain, and closes it unanswered.
    let (handle, addr) = start(
        ServeConfig {
            deadline: Duration::from_secs(3),
            ..ServeConfig::default()
        },
        Arc::new(EngineBackend::new()),
    );
    let mut silent = keep_alive_socket(addr);
    spin_until("the silent connection's admission", || {
        handle.accepted() == 1
    });
    let t0 = Instant::now();
    let stats = handle.shutdown();
    assert!(
        t0.elapsed() < Duration::from_millis(500),
        "{:?}",
        t0.elapsed()
    );
    assert_eq!((stats.accepted, stats.completed, stats.rejected), (1, 1, 0));
    let mut rest = Vec::new();
    assert_eq!(
        silent.read_to_end(&mut rest).unwrap(),
        0,
        "closed unanswered, not reset"
    );
}

#[test]
fn an_idle_keep_alive_socket_yields_its_worker_to_a_waiting_connection() {
    // One worker, held by client A's idle kept-alive socket: client B's
    // connection waits in the queue, and the worker must close A's
    // socket and serve B well before the idle timeout would free it.
    let (handle, addr) = start(
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
        Arc::new(EngineBackend::new()),
    );
    let mut idle = keep_alive_socket(addr);
    let reply = exchange(&mut idle, &healthz_request("idle-a"));
    assert_eq!(reply.status, 200);
    assert_eq!(reply.header("connection"), None, "the socket stays open");

    let t0 = Instant::now();
    let resp = http_request(addr, "GET", "/healthz", None, TIMEOUT).unwrap();
    let waited = t0.elapsed();
    assert_eq!(resp.status, 200);
    assert!(waited < Duration::from_secs(1), "B waited {waited:?}");

    let mut rest = Vec::new();
    assert_eq!(
        idle.read_to_end(&mut rest).unwrap(),
        0,
        "A's socket closed cleanly, with no reply and no reset"
    );
    let stats = handle.shutdown();
    assert_eq!((stats.accepted, stats.completed, stats.rejected), (2, 2, 0));
}

#[test]
fn a_closing_reply_to_a_pipelining_client_is_not_reset() {
    // The first of two pipelined requests says `connection: close`, so
    // the worker closes with the second unread in its receive buffer.
    // Closed like that, the kernel sends RST and drops the part of the
    // reply still queued for a client that reads it slowly; the worker
    // must drain before it closes, so the whole reply arrives.
    let (handle, addr) = start(ServeConfig::default(), Arc::new(EngineBackend::new()));
    let mut socket = keep_alive_socket(addr);
    let body = "{\"ne\": 128, \"nproc\": 2, \"method\": \"sfc\", \"include_assignment\": true}";
    // More than the worker's read buffer holds, so most of the second
    // request is still in the kernel when the worker closes.
    let unread = "x".repeat(16 * 1024);
    let both = format!(
        "POST /v1/partition HTTP/1.1\r\nconnection: close\r\ncontent-length: {}\r\n\r\n{body}\
         POST /v1/partition HTTP/1.1\r\ncontent-length: {}\r\n\r\n{unread}",
        body.len(),
        unread.len()
    );
    socket.get_mut().write_all(both.as_bytes()).unwrap();
    let mut reply = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match socket.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => reply.extend_from_slice(&chunk[..n]),
            Err(e) => panic!("after {} bytes: {e}", reply.len()),
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let reply = String::from_utf8(reply).unwrap();
    let (head, body) = reply.split_once("\r\n\r\n").unwrap();
    assert!(head.starts_with("HTTP/1.1 200 OK\r\n"), "{head}");
    assert!(head.contains("\r\nconnection: close"), "{head}");
    assert!(
        head.contains(&format!("\r\ncontent-length: {}\r\n", body.len())),
        "{head}"
    );
    drop(socket);
    let stats = handle.shutdown();
    assert_eq!((stats.accepted, stats.completed, stats.rejected), (1, 1, 0));
}

#[test]
fn keep_alive_pipelined_requests_are_answered_in_order() {
    let (handle, addr) = start(ServeConfig::default(), Arc::new(EngineBackend::new()));
    let mut socket = keep_alive_socket(addr);
    let body = "{\"ne\": 4, \"nproc\": 6, \"method\": \"sfc\"}";
    let both = format!(
        "POST /v1/partition HTTP/1.1\r\nx-cubesfc-request-id: pipe-1\r\ncontent-length: {}\r\n\r\n{body}{}",
        body.len(),
        healthz_request("pipe-2")
    );
    socket.get_mut().write_all(both.as_bytes()).unwrap();
    let first = read_reply(&mut socket);
    let second = read_reply(&mut socket);
    assert_eq!(first.status, 200);
    assert_eq!(first.header("x-cubesfc-request-id"), Some("pipe-1"));
    assert!(
        first.body.contains("\"kind\":\"partition\""),
        "{}",
        first.body
    );
    assert_eq!(second.status, 200);
    assert_eq!(second.header("x-cubesfc-request-id"), Some("pipe-2"));
    assert!(second.body.contains("\"status\":\"ok\""), "{}", second.body);
    drop(socket);
    let stats = handle.shutdown();
    assert_eq!((stats.accepted, stats.completed, stats.rejected), (1, 1, 0));
}

#[test]
fn keep_alive_slow_drip_second_request_gets_its_reply() {
    let (handle, addr) = start(ServeConfig::default(), Arc::new(EngineBackend::new()));
    let mut socket = keep_alive_socket(addr);
    assert_eq!(
        exchange(&mut socket, &healthz_request("drip-1")).status,
        200
    );
    // Idle for several read slices, then one byte at a time.
    std::thread::sleep(Duration::from_millis(30));
    for byte in healthz_request("drip-2").bytes() {
        socket.get_mut().write_all(&[byte]).unwrap();
        std::thread::sleep(Duration::from_millis(2));
    }
    let reply = read_reply(&mut socket);
    assert_eq!(reply.status, 200);
    assert_eq!(reply.header("x-cubesfc-request-id"), Some("drip-2"));
    drop(socket);
    let stats = handle.shutdown();
    assert_eq!((stats.accepted, stats.completed, stats.rejected), (1, 1, 0));
}

#[test]
fn keep_alive_truncated_second_request_then_close_drains_cleanly() {
    let (handle, addr) = start(ServeConfig::default(), Arc::new(EngineBackend::new()));
    let mut socket = keep_alive_socket(addr);
    assert_eq!(exchange(&mut socket, &healthz_request("cut-1")).status, 200);
    socket
        .get_mut()
        .write_all(b"GET /healthz HTTP/1.1\r\nhost: cub")
        .unwrap();
    drop(socket);
    // A worker that panicked would never count its connection complete.
    spin_until("the worker to finish the connection", || {
        handle.completed() == 1
    });
    let stats = handle.shutdown();
    assert_eq!((stats.accepted, stats.completed, stats.rejected), (1, 1, 0));
}

#[test]
fn keep_alive_requests_bill_neither_queue_nor_idle_time() {
    // Three requests on one socket, with idle gaps between them: three
    // `ok` lines, only the first with queue time, and each line's
    // `queue_us + service_us` within what the client measured (the
    // same slack as the closed-loop books test). That client's clock
    // stops at EOF, which the server sends after its log line; on a
    // kept-alive socket the clock stops at the same point: once the
    // reply is read and its line is in the log.
    const SLACK_US: u64 = 1_000;
    cubesfc::obs::set_access_enabled(true);
    let log = cubesfc::obs::access_log();
    let (handle, addr) = start(ServeConfig::default(), Arc::new(EngineBackend::new()));
    let mut socket = keep_alive_socket(addr);
    let mut client_us = HashMap::new();
    for i in 1..=3 {
        if i > 1 {
            std::thread::sleep(Duration::from_millis(20));
        }
        let id = format!("ka3-r{i}");
        let t0 = Instant::now();
        let reply = exchange(&mut socket, &healthz_request(&id));
        spin_until("the access line", || {
            log.records().iter().any(|r| r.id == id)
        });
        client_us.insert(id, t0.elapsed().as_micros() as u64);
        assert_eq!(reply.status, 200);
    }
    assert_eq!(counter(&handle, "serve/requests"), 3);
    drop(socket);
    let stats = handle.shutdown();
    assert_eq!((stats.accepted, stats.completed, stats.rejected), (1, 1, 0));

    let records = cubesfc::obs::parse_access(&cubesfc::obs::access_log().export_ndjson()).unwrap();
    let ours: Vec<_> = records
        .iter()
        .filter(|r| r.id.starts_with("ka3-"))
        .collect();
    assert_eq!(ours.len(), 3);
    for r in &ours {
        assert_eq!((r.outcome.as_str(), r.status), ("ok", 200));
        if r.id != "ka3-r1" {
            assert_eq!(r.queue_us, 0, "{}: a kept-alive request never queued", r.id);
        }
        let client = client_us[&r.id];
        assert!(
            r.queue_us + r.service_us <= client + SLACK_US,
            "{}: server accounts for {}us (queue {} + service {}) but the client measured {client}us",
            r.id,
            r.queue_us + r.service_us,
            r.queue_us,
            r.service_us
        );
    }
}

#[test]
fn a_first_request_is_billed_from_its_first_byte_not_from_the_connect() {
    // The client connects, waits 20 ms, then sends: the wait is neither
    // queue nor service time, so the logged `service_us` is at most the
    // latency the client measured from its send until the log line.
    cubesfc::obs::set_access_enabled(true);
    let log = cubesfc::obs::access_log();
    let (handle, addr) = start(ServeConfig::default(), Arc::new(EngineBackend::new()));
    let mut socket = keep_alive_socket(addr);
    std::thread::sleep(Duration::from_millis(20));
    let t0 = Instant::now();
    let reply = exchange(&mut socket, &healthz_request("late-first"));
    spin_until("the access line", || {
        log.records().iter().any(|r| r.id == "late-first")
    });
    let client_us = t0.elapsed().as_micros() as u64;
    assert_eq!(reply.status, 200);
    drop(socket);
    handle.shutdown();

    let records = log.records();
    let record = records.iter().find(|r| r.id == "late-first").unwrap();
    assert!(
        record.service_us <= client_us,
        "the server bills {}us of service but the client measured {client_us}us",
        record.service_us
    );
}

/// The slices of one lane, rebuilt from its begin/end events: `(name,
/// start_ns, end_ns, args)` in closing order.
type Slice = (String, u64, u64, Vec<(String, u64)>);

fn lane_slices(lane_name: &str) -> Vec<Slice> {
    use cubesfc::obs::EventKind;
    let tracer = cubesfc::obs::tracer();
    let lane = tracer
        .lane_names()
        .iter()
        .position(|n| n == lane_name)
        .unwrap_or_else(|| panic!("no lane {lane_name:?}")) as u32;
    let mut open = Vec::new();
    let mut closed = Vec::new();
    for event in tracer.events().into_iter().filter(|e| e.lane == lane) {
        match event.kind {
            EventKind::Begin => open.push((event.name, event.ts_ns, event.args)),
            EventKind::End => {
                let (name, start, args) = open.pop().expect("balanced slices");
                closed.push((name, start, event.ts_ns, args));
            }
            _ => {}
        }
    }
    assert!(open.is_empty(), "unclosed slices on {lane_name}: {open:?}");
    closed
}

fn arg(slice: &Slice, key: &str) -> u64 {
    slice
        .3
        .iter()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("{} has no {key}", slice.0))
        .1
}

#[test]
fn read_route_and_write_slices_sum_exactly_to_service_us() {
    cubesfc::obs::set_access_enabled(true);
    cubesfc::obs::set_trace_enabled(true);
    let (handle, addr) = start(ServeConfig::default(), Arc::new(EngineBackend::new()));
    let body = "{\"ne\": 4, \"nproc\": 12, \"method\": \"kway\", \"seed\": 99}";
    let mut socket = keep_alive_socket(addr);
    for id in ["split-1", "split-2"] {
        let request = format!(
            "POST /v1/partition HTTP/1.1\r\nx-cubesfc-request-id: {id}\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        assert_eq!(exchange(&mut socket, &request).status, 200);
    }
    drop(socket);
    handle.shutdown();

    let records = cubesfc::obs::parse_access(&cubesfc::obs::access_log().export_ndjson()).unwrap();
    for (id, cache) in [("split-1", "miss"), ("split-2", "hit")] {
        let record = records.iter().find(|r| r.id == id).unwrap();
        assert_eq!(record.cache, cache);
        let slices = lane_slices(&format!("req {id}"));
        let find = |name: &str| {
            slices
                .iter()
                .find(|s| s.0 == name)
                .unwrap_or_else(|| panic!("{id}: no {name} slice in {slices:?}"))
        };
        let service = find("service");
        let parts: Vec<&Slice> = ["read", "route", "write"].iter().map(|n| find(n)).collect();
        for part in &parts {
            assert_eq!(part.2 - part.1, arg(part, "ns"), "{id}: {} width", part.0);
        }
        // Contiguous, and exactly the service slice.
        assert_eq!(parts[0].1, service.1);
        assert_eq!(parts[0].2, parts[1].1);
        assert_eq!(parts[1].2, parts[2].1);
        assert_eq!(parts[2].2, service.2);
        let sum: u64 = parts.iter().map(|p| arg(p, "ns")).sum();
        assert_eq!(sum, arg(service, "service_ns"), "{id}");
        assert_eq!(sum / 1_000, arg(service, "service_us"), "{id}");
        assert_eq!(
            sum / 1_000,
            record.service_us,
            "{id}: the access log agrees"
        );
        // Only the connection's first request waited in the queue.
        assert_eq!(slices.iter().any(|s| s.0 == "queue"), id == "split-1");
        if cache == "miss" {
            let (route, flight) = (find("route"), find("flight"));
            assert!(
                route.1 <= flight.1 && flight.2 <= route.2,
                "{id}: flight nests in route"
            );
        }
    }
}
