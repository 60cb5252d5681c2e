//! The accept loop, worker pool, and request routing.
//!
//! Life of a request:
//!
//! 1. The acceptor takes the TCP connection and tries to enqueue it.
//!    A full queue is answered with `429 Too Many Requests` +
//!    `Retry-After` straight from the acceptor — overload never grows
//!    memory, it sheds load.
//! 2. A worker dequeues the connection. If the admission deadline has
//!    already passed it answers `504` without touching the backend.
//! 3. `POST /v1/partition` consults the bounded LRU result cache, then
//!    the single-flight table: identical concurrent misses compute
//!    once and share the body. The `x-cubesfc-cache` header reports
//!    `hit`, `miss`, or `coalesced`.
//! 4. On shutdown the acceptor stops and closes the queue; workers
//!    drain every connection accepted before the close, then exit.
//!
//! Every response — including acceptor-side 429s and queue-deadline
//! 504s — carries an `x-cubesfc-request-id` header (client-supplied via
//! the same request header when valid, else drawn from an atomic
//! sequence, so IDs are deterministic under test). Each served request
//! emits one `cubesfc-access-v1` record through the gated global access
//! log, and when tracing is on its life shows up as one `req <id>` lane
//! (queue wait back-filled, then a `service` slice wrapping cache /
//! flight / backend spans).

use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cubesfc_obs::{Lane, Registry, Snapshot};

use crate::api::{
    error_body, parse_partition_request, parse_rebalance_request, status_body, PartitionRequest,
    SERVE_SCHEMA,
};
use crate::coalesce::{Coalescer, Outcome};
use crate::http::{read_request, ReadError, Request, Response};
use crate::lru::LruCache;
use crate::queue::{BoundedQueue, PushError};
use crate::{Backend, BackendError};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:8437` (`:0` for an ephemeral
    /// port).
    pub addr: String,
    /// Worker threads handling requests.
    pub workers: usize,
    /// Admission-queue capacity; connections beyond it get 429.
    pub queue_capacity: usize,
    /// Result-cache capacity in entries.
    pub cache_entries: usize,
    /// Per-request deadline measured from accept time.
    pub deadline: Duration,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_capacity: 64,
            cache_entries: 256,
            deadline: Duration::from_secs(30),
        }
    }
}

/// What the drain observed, returned by [`ServerHandle::shutdown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainStats {
    /// Connections admitted to the queue over the server's lifetime.
    pub accepted: u64,
    /// Requests answered (any status) over the server's lifetime.
    pub completed: u64,
    /// Connections refused with 429.
    pub rejected: u64,
}

struct Job {
    stream: TcpStream,
    accepted_at: Instant,
}

struct Shared {
    backend: Arc<dyn Backend>,
    registry: Registry,
    cache: Mutex<LruCache<PartitionRequest, String>>,
    coalescer: Coalescer<PartitionRequest, Result<String, BackendError>>,
    queue: BoundedQueue<Job>,
    deadline: Duration,
    workers: usize,
    /// Same flag the acceptor polls: set at the start of shutdown, so
    /// `/readyz` flips to 503 while admitted connections drain.
    draining: Arc<AtomicBool>,
    /// Source of server-generated request IDs (`r000001`, ...).
    request_seq: AtomicU64,
    inflight: AtomicUsize,
    accepted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
}

/// Should the service advertise readiness? Not while draining, and not
/// when the admission queue is at ≥ 90% of capacity (the next burst
/// would be 429'd anyway, so tell the balancer early).
fn readiness(draining: bool, depth: usize, capacity: usize) -> bool {
    !draining && depth * 10 < capacity * 9
}

/// A client-supplied request ID, if present and sane (non-empty, at
/// most 128 bytes, printable ASCII — it is echoed into a response
/// header and NDJSON, so nothing that can smuggle separators).
fn client_request_id(request: &Request) -> Option<&str> {
    let id = request.header("x-cubesfc-request-id")?;
    (!id.is_empty() && id.len() <= 128 && id.bytes().all(|b| b.is_ascii_graphic())).then_some(id)
}

impl Shared {
    fn next_request_id(&self) -> String {
        format!("r{:06}", self.request_seq.fetch_add(1, Ordering::Relaxed))
    }

    fn cache_hit_rate(&self) -> f64 {
        let hits = self.cache_hits.load(Ordering::Relaxed) as f64;
        let misses = self.cache_misses.load(Ordering::Relaxed) as f64;
        if hits + misses == 0.0 {
            0.0
        } else {
            hits / (hits + misses)
        }
    }

    fn emit_gauges(&self) {
        cubesfc_obs::trace_counter(
            "serve",
            &[
                ("queue_depth", self.queue.len() as f64),
                ("inflight", self.inflight.load(Ordering::Relaxed) as f64),
                ("cache_hit_rate", self.cache_hit_rate()),
            ],
        );
    }
}

/// The running server; construct via [`Server::start`].
pub struct Server;

impl Server {
    /// Bind, spawn the acceptor and worker pool, and return a handle.
    pub fn start(config: ServeConfig, backend: Arc<dyn Backend>) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let shutdown = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(Shared {
            backend,
            registry: Registry::new(),
            cache: Mutex::new(LruCache::new(config.cache_entries)),
            coalescer: Coalescer::new(),
            queue: BoundedQueue::new(config.queue_capacity),
            deadline: config.deadline,
            workers: config.workers.max(1),
            draining: Arc::clone(&shutdown),
            request_seq: AtomicU64::new(1),
            inflight: AtomicUsize::new(0),
            accepted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
        });

        let acceptor = {
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&shutdown);
            std::thread::Builder::new()
                .name("serve-acceptor".to_string())
                .spawn(move || accept_loop(listener, shared, stop))?
        };

        let workers = (0..config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(shared))
            })
            .collect::<std::io::Result<Vec<_>>>()?;

        Ok(ServerHandle {
            addr,
            shutdown,
            acceptor: Some(acceptor),
            workers,
            shared,
        })
    }
}

/// Handle to a running server: observability accessors plus the
/// graceful-shutdown switch.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// The bound address (resolves `:0` to the real port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current admission-queue backlog.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.len()
    }

    /// Requests currently being processed by workers.
    pub fn inflight(&self) -> usize {
        self.shared.inflight.load(Ordering::Relaxed)
    }

    /// Followers currently blocked on a coalesced flight.
    pub fn coalesced_waiting(&self) -> usize {
        self.shared.coalescer.waiting()
    }

    /// Result-cache entry count.
    pub fn cache_len(&self) -> usize {
        self.shared.cache.lock().expect("cache poisoned").len()
    }

    /// The server's metrics registry (also served at `GET /metrics`).
    pub fn registry(&self) -> &Registry {
        &self.shared.registry
    }

    /// Connections admitted so far.
    pub fn accepted(&self) -> u64 {
        self.shared.accepted.load(Ordering::Relaxed)
    }

    /// Requests answered so far.
    pub fn completed(&self) -> u64 {
        self.shared.completed.load(Ordering::Relaxed)
    }

    /// Stop accepting, drain every admitted connection, join all
    /// threads, and report what happened.
    pub fn shutdown(mut self) -> DrainStats {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        DrainStats {
            accepted: self.shared.accepted.load(Ordering::SeqCst),
            completed: self.shared.completed.load(Ordering::SeqCst),
            rejected: self.shared.rejected.load(Ordering::SeqCst),
        }
    }
}

/// Write an early reply for a request that was never (fully) read, then
/// close politely: half-close the write side and drain what the client
/// already sent, bounded in bytes and time. Closing with unread data in
/// the receive buffer would make the kernel send RST, which can destroy
/// the response before the client reads it.
fn respond_and_close(mut stream: TcpStream, response: Response) {
    use std::io::Read;
    if response.write(&mut stream).is_err() {
        return;
    }
    let _ = stream.shutdown(Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let mut sink = [0u8; 4096];
    let mut budget: usize = 64 * 1024;
    loop {
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(n) => match budget.checked_sub(n) {
                Some(rest) => budget = rest,
                None => break,
            },
        }
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>, stop: Arc<AtomicBool>) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let job = Job {
                    stream,
                    accepted_at: Instant::now(),
                };
                match shared.queue.push(job) {
                    Ok(()) => {
                        shared.accepted.fetch_add(1, Ordering::SeqCst);
                        shared.registry.counter_add("serve/accepted", 1);
                    }
                    Err(PushError::Full(job)) | Err(PushError::Closed(job)) => {
                        shared.rejected.fetch_add(1, Ordering::SeqCst);
                        shared.registry.counter_add("serve/http_429", 1);
                        // The request is never read, so the ID is always
                        // server-generated and the endpoint unknown.
                        let id = shared.next_request_id();
                        let stream = job.stream;
                        let _ = stream.set_nodelay(true);
                        let response = Response::json(429, error_body(429, "admission queue full"))
                            .with_header("retry-after", "1")
                            .with_header("x-cubesfc-request-id", &id);
                        let bytes_out = response.body.len() as u64;
                        respond_and_close(stream, response);
                        cubesfc_obs::access_record(
                            &id, "-", 429, "-", 0, 0, 0, bytes_out, "rejected",
                        );
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
    // No new work after this point; workers drain what was admitted.
    shared.queue.close();
}

fn worker_loop(shared: Arc<Shared>) {
    while let Some(job) = shared.queue.pop() {
        shared.inflight.fetch_add(1, Ordering::SeqCst);
        serve_connection(&shared, job);
        shared.inflight.fetch_sub(1, Ordering::SeqCst);
        shared.completed.fetch_add(1, Ordering::SeqCst);
        shared.registry.counter_add("serve/completed", 1);
        shared.emit_gauges();
    }
}

fn serve_connection(shared: &Shared, job: Job) {
    let started = Instant::now();
    let queue_wait = started.saturating_duration_since(job.accepted_at);
    let queue_us = queue_wait.as_micros() as u64;
    let mut stream = job.stream;
    let _ = stream.set_nodelay(true);

    let elapsed = job.accepted_at.elapsed();
    if elapsed >= shared.deadline {
        let id = shared.next_request_id();
        shared.registry.counter_add("serve/http_504", 1);
        let response = Response::json(504, error_body(504, "deadline expired in queue"))
            .with_header("x-cubesfc-request-id", &id);
        let bytes_out = response.body.len() as u64;
        respond_and_close(stream, response);
        cubesfc_obs::access_record(
            &id,
            "-",
            504,
            "-",
            queue_us,
            started.elapsed().as_micros() as u64,
            0,
            bytes_out,
            "deadline",
        );
        return;
    }
    let remaining = shared.deadline - elapsed;
    let _ = stream.set_read_timeout(Some(remaining));

    let request = match read_request(&stream) {
        Ok(req) => req,
        Err(ReadError::Eof) => return,
        Err(err) => {
            let id = shared.next_request_id();
            let (status, message) = match err {
                ReadError::LengthRequired => (411, "content-length required".to_string()),
                ReadError::PayloadTooLarge => (413, "request body too large".to_string()),
                ReadError::BadRequest(m) => (400, m),
                ReadError::Io(m) => (400, format!("read failed: {m}")),
                ReadError::Eof => unreachable!(),
            };
            shared
                .registry
                .counter_add(&format!("serve/http_{status}"), 1);
            // The request may be partially unread (oversized or
            // malformed bodies are refused early).
            let response = Response::json(status, error_body(status, &message))
                .with_header("x-cubesfc-request-id", &id);
            let bytes_out = response.body.len() as u64;
            respond_and_close(stream, response);
            cubesfc_obs::access_record(
                &id,
                "-",
                status,
                "-",
                queue_us,
                started.elapsed().as_micros() as u64,
                0,
                bytes_out,
                "error",
            );
            return;
        }
    };

    let id = match client_request_id(&request) {
        Some(id) => id.to_string(),
        None => shared.next_request_id(),
    };
    let bytes_in = request.body.len() as u64;

    // One lane per request: back-fill the queue wait (it happened
    // before we had a lane to put it on), then wrap everything from
    // here to the response under a `service` slice so cache / flight /
    // backend spans nest inside it.
    let lane = cubesfc_obs::trace_lane(&format!("req {id}"));
    if lane.is_active() {
        let now = cubesfc_obs::tracer().now_ns();
        let queue_ns = queue_wait.as_nanos() as u64;
        lane.slice_at(
            "queue",
            now.saturating_sub(queue_ns),
            now,
            &[("queue_us", queue_us)],
        );
    }
    lane.begin_with("service", &[("bytes_in", bytes_in)]);

    shared.registry.counter_add("serve/requests", 1);
    let is_metrics = request.method == "GET" && request.path == "/metrics";
    if is_metrics {
        // Self-observation fix: this request's own latency sample must
        // land *before* the snapshot is taken inside `route`, otherwise
        // the exposition is forever one metrics request behind. The
        // recorded value therefore excludes snapshot serialization time
        // — the price of the endpoint seeing itself.
        shared.registry.histogram_record(
            "serve/latency/metrics_us",
            started.elapsed().as_micros() as u64,
        );
    }
    let (endpoint, response) = route(shared, &request, remaining, &lane);
    let response = response.with_header("x-cubesfc-request-id", &id);
    if response.status >= 400 {
        shared
            .registry
            .counter_add(&format!("serve/http_{}", response.status), 1);
    }
    let latency_us = started.elapsed().as_micros() as u64;
    if !is_metrics {
        shared
            .registry
            .histogram_record(&format!("serve/latency/{endpoint}_us"), latency_us);
    }
    let class = response.header("x-cubesfc-cache").map(str::to_string);
    if let Some(class) = &class {
        shared
            .registry
            .histogram_record(&format!("serve/latency/{endpoint}_{class}_us"), latency_us);
    }
    let _ = response.write(&mut stream);
    lane.end();

    let outcome = match response.status {
        429 => "rejected",
        504 => "deadline",
        s if s >= 400 => "error",
        _ => "ok",
    };
    cubesfc_obs::access_record(
        &id,
        endpoint,
        response.status,
        class.as_deref().unwrap_or("-"),
        queue_us,
        started.elapsed().as_micros() as u64,
        bytes_in,
        response.body.len() as u64,
        outcome,
    );
}

/// The registry snapshot plus point-in-time gauges (`serve/gauge/*`),
/// injected at scrape time so both the JSON and Prometheus views of
/// `GET /metrics` are self-sufficient for dashboards.
fn metrics_snapshot(shared: &Shared) -> Snapshot {
    let mut snap = shared.registry.snapshot();
    let gauges = [
        (
            "serve/gauge/inflight",
            shared.inflight.load(Ordering::Relaxed) as u64,
        ),
        ("serve/gauge/queue_capacity", shared.queue.capacity() as u64),
        ("serve/gauge/queue_depth", shared.queue.len() as u64),
        ("serve/gauge/workers", shared.workers as u64),
    ];
    for (name, value) in gauges {
        snap.counters.insert(name.to_string(), value);
    }
    snap
}

/// The `GET /statusz` body: a compact fixed-width operator summary.
fn statusz_body(shared: &Shared) -> String {
    let depth = shared.queue.len();
    let capacity = shared.queue.capacity();
    let draining = shared.draining.load(Ordering::SeqCst);
    let ready = match (readiness(draining, depth, capacity), draining) {
        (true, _) => "yes",
        (false, true) => "no (draining)",
        (false, false) => "no (queue saturated)",
    };
    format!(
        "cubesfc serve ({SERVE_SCHEMA})\n\
         ready:     {ready}\n\
         accepted:  {}\n\
         completed: {}\n\
         rejected:  {}\n\
         queue:     {depth}/{capacity}\n\
         inflight:  {}/{} workers\n\
         cache:     {} entries, hit rate {:.3}\n\
         coalesced: {} waiting\n",
        shared.accepted.load(Ordering::Relaxed),
        shared.completed.load(Ordering::Relaxed),
        shared.rejected.load(Ordering::Relaxed),
        shared.inflight.load(Ordering::Relaxed),
        shared.workers,
        shared.cache.lock().expect("cache poisoned").len(),
        shared.cache_hit_rate(),
        shared.coalescer.waiting(),
    )
}

fn route(
    shared: &Shared,
    request: &Request,
    remaining: Duration,
    lane: &Lane,
) -> (&'static str, Response) {
    match (request.method.as_str(), request.path.as_str()) {
        // Liveness only: answers as long as a worker can run, no matter
        // how overloaded admission is. Readiness is `/readyz`.
        ("GET", "/healthz") => ("healthz", Response::json(200, status_body("ok"))),
        ("GET", "/readyz") => {
            let depth = shared.queue.len();
            let capacity = shared.queue.capacity();
            let draining = shared.draining.load(Ordering::SeqCst);
            let response = if readiness(draining, depth, capacity) {
                Response::json(200, status_body("ready"))
            } else {
                let reason = if draining {
                    "draining"
                } else {
                    "admission queue saturated"
                };
                Response::json(503, error_body(503, reason))
            };
            ("readyz", response)
        }
        ("GET", "/metrics") => {
            let snap = metrics_snapshot(shared);
            let accept = request.header("accept").unwrap_or("");
            let response = if accept.contains("text/plain") {
                Response::text(200, snap.to_prometheus())
            } else {
                Response::json(200, snap.to_json())
            };
            ("metrics", response)
        }
        ("GET", "/statusz") => ("statusz", Response::text(200, statusz_body(shared))),
        ("POST", "/v1/partition") => (
            "partition",
            handle_partition(shared, request, remaining, lane),
        ),
        ("POST", "/v1/rebalance/step") => ("rebalance", handle_rebalance(shared, request)),
        (_, "/healthz")
        | (_, "/readyz")
        | (_, "/metrics")
        | (_, "/statusz")
        | (_, "/v1/partition")
        | (_, "/v1/rebalance/step") => (
            "bad_method",
            Response::json(405, error_body(405, "method not allowed")),
        ),
        _ => (
            "not_found",
            Response::json(404, error_body(404, "no such endpoint")),
        ),
    }
}

fn handle_partition(
    shared: &Shared,
    request: &Request,
    remaining: Duration,
    lane: &Lane,
) -> Response {
    let _span = shared.registry.span("serve/partition");
    let req = match parse_partition_request(&request.body) {
        Ok(req) => req,
        Err(message) => return Response::json(400, error_body(400, &message)),
    };

    if let Some(body) = shared
        .cache
        .lock()
        .expect("cache poisoned")
        .get(&req)
        .cloned()
    {
        shared.cache_hits.fetch_add(1, Ordering::Relaxed);
        shared.registry.counter_add("serve/cache_hits", 1);
        lane.instant("cache hit", &[("bytes", body.len() as u64)]);
        return Response::json(200, body).with_header("x-cubesfc-cache", "hit");
    }
    shared.cache_misses.fetch_add(1, Ordering::Relaxed);
    shared.registry.counter_add("serve/cache_misses", 1);

    let backend = Arc::clone(&shared.backend);
    let flight = lane.span("flight");
    let outcome = shared.coalescer.run(req.clone(), Some(remaining), || {
        // Runs on the flight leader's thread only, so the `backend`
        // span lands on the leader's request lane; followers show a
        // bare `flight` slice (time spent waiting on the leader).
        let _backend_span = lane.span("backend");
        shared.registry.counter_add("serve/backend_computes", 1);
        backend.partition(&req)
    });
    drop(flight);

    match outcome {
        Outcome::Computed(Ok(body)) => {
            let evicted = shared
                .cache
                .lock()
                .expect("cache poisoned")
                .insert(req, body.clone());
            if evicted > 0 {
                shared
                    .registry
                    .counter_add("serve/cache_evictions", evicted as u64);
            }
            Response::json(200, body).with_header("x-cubesfc-cache", "miss")
        }
        Outcome::Shared(Ok(body)) => {
            shared.registry.counter_add("serve/coalesced", 1);
            Response::json(200, body).with_header("x-cubesfc-cache", "coalesced")
        }
        Outcome::Computed(Err(err)) | Outcome::Shared(Err(err)) => backend_error_response(err),
        Outcome::TimedOut => Response::json(
            504,
            error_body(504, "deadline expired waiting for computation"),
        ),
        Outcome::Failed => Response::json(500, error_body(500, "computation failed")),
    }
}

fn handle_rebalance(shared: &Shared, request: &Request) -> Response {
    let _span = shared.registry.span("serve/rebalance");
    let req = match parse_rebalance_request(&request.body) {
        Ok(req) => req,
        Err(message) => return Response::json(400, error_body(400, &message)),
    };
    match shared.backend.rebalance_step(&req) {
        Ok(body) => Response::json(200, body),
        Err(err) => backend_error_response(err),
    }
}

fn backend_error_response(err: BackendError) -> Response {
    match err {
        BackendError::BadRequest(m) => Response::json(400, error_body(400, &m)),
        BackendError::Internal(m) => Response::json(500, error_body(500, &m)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::RebalanceStepRequest;

    struct NullBackend;

    impl Backend for NullBackend {
        fn partition(&self, _: &PartitionRequest) -> Result<String, BackendError> {
            Ok(String::new())
        }
        fn rebalance_step(&self, _: &RebalanceStepRequest) -> Result<String, BackendError> {
            Ok(String::new())
        }
    }

    #[test]
    fn readiness_gate_is_90_percent_and_draining() {
        assert!(readiness(false, 0, 16));
        assert!(readiness(false, 14, 16)); // 87.5% — still ready
        assert!(!readiness(false, 15, 16)); // 93.75% — shed early
        assert!(!readiness(false, 16, 16));
        assert!(!readiness(true, 0, 16)); // draining always wins
        assert!(readiness(false, 8, 10));
        assert!(!readiness(false, 9, 10)); // exactly 90%
    }

    fn request_with_id(value: &str) -> Request {
        Request {
            method: "GET".to_string(),
            path: "/healthz".to_string(),
            headers: vec![("x-cubesfc-request-id".to_string(), value.to_string())],
            body: Vec::new(),
        }
    }

    #[test]
    fn client_request_ids_are_validated() {
        assert_eq!(
            client_request_id(&request_with_id("c3-r17")),
            Some("c3-r17")
        );
        assert_eq!(client_request_id(&request_with_id("")), None);
        assert_eq!(client_request_id(&request_with_id("has space")), None);
        assert_eq!(client_request_id(&request_with_id("tab\there")), None);
        assert_eq!(client_request_id(&request_with_id(&"x".repeat(129))), None);
        assert_eq!(
            client_request_id(&request_with_id(&"x".repeat(128))).map(str::len),
            Some(128)
        );
        let no_header = Request {
            method: "GET".to_string(),
            path: "/healthz".to_string(),
            headers: Vec::new(),
            body: Vec::new(),
        };
        assert_eq!(client_request_id(&no_header), None);
    }

    #[test]
    fn generated_request_ids_are_a_deterministic_sequence() {
        let shared = Shared {
            backend: Arc::new(NullBackend),
            registry: Registry::new(),
            cache: Mutex::new(LruCache::new(4)),
            coalescer: Coalescer::new(),
            queue: BoundedQueue::new(4),
            deadline: Duration::from_secs(1),
            workers: 2,
            draining: Arc::new(AtomicBool::new(false)),
            request_seq: AtomicU64::new(1),
            inflight: AtomicUsize::new(0),
            accepted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
        };
        assert_eq!(shared.next_request_id(), "r000001");
        assert_eq!(shared.next_request_id(), "r000002");
        let snap = metrics_snapshot(&shared);
        assert_eq!(snap.counters["serve/gauge/queue_capacity"], 4);
        assert_eq!(snap.counters["serve/gauge/workers"], 2);
        assert_eq!(snap.counters["serve/gauge/queue_depth"], 0);
        assert_eq!(snap.counters["serve/gauge/inflight"], 0);
        let status = statusz_body(&shared);
        assert!(status.contains("ready:     yes"), "{status}");
        assert!(status.contains("queue:     0/4"), "{status}");
    }
}
