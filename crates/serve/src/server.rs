//! The accept loop, worker pool, and request routing.
//!
//! Life of a request:
//!
//! 1. The acceptor blocks in `accept` and tries to enqueue each new
//!    connection. A full queue is answered with `429 Too Many Requests`
//!    and `Retry-After` straight from the acceptor — overload never
//!    grows memory, it sheds load.
//! 2. A worker dequeues the connection. If the admission deadline has
//!    already passed it answers `504` without touching the backend.
//!    Otherwise it waits for the first request's first byte, in
//!    `YIELD_SLICE` reads that notice drain, for at most what is left
//!    of the deadline. This wait never yields to the queue (the client
//!    of a fresh connection cannot retry); a connection still silent
//!    when the deadline passes or drain begins is closed unanswered.
//! 3. `POST /v1/partition` consults the bounded LRU result cache, then
//!    the single-flight table: identical concurrent misses compute
//!    once and share the body. The `x-cubesfc-cache` header reports
//!    `hit`, `miss`, or `coalesced`.
//! 4. Keep-alive: the worker keeps the connection and reads the next
//!    request through the same buffered reader, until the peer closes,
//!    either side says `connection: close`, drain begins, the socket
//!    idles past `KEEPALIVE_IDLE` (5 s), or another connection waits in
//!    the admission queue. That last is the yield rule: an idle socket
//!    is read in `YIELD_SLICE` (5 ms) timeouts, and the queue and the
//!    drain flag are checked between them, so a client that holds a
//!    connection open never pins a worker others are waiting for. A
//!    reply after which the worker closes says `connection: close`, and
//!    the worker drains what the client sent after it before closing.
//!    Every request's `service_us` starts at its first byte, and so does
//!    a later request's deadline; only the first has a `queue_us`
//!    (accept to dequeue). Idle time is never billed.
//! 5. On shutdown the flag is set and one self-connect to the bound
//!    port (loopback when bound to an unspecified address) wakes the
//!    acceptor, which drops that connection unserved and uncounted,
//!    stops, and closes the queue. Workers drain every connection
//!    accepted before the close that has sent a request, then exit.
//!
//! Every response — including acceptor-side 429s and queue-deadline
//! 504s — carries an `x-cubesfc-request-id` header (client-supplied via
//! the same request header when valid, else drawn from an atomic
//! sequence, so IDs are deterministic under test). Each served request
//! emits one `cubesfc-access-v1` record through the gated global access
//! log, and when tracing is on its life shows up as one `req <id>` lane:
//! the queue wait (first request of a connection only), then a `service`
//! slice split into `read`, `route` and `write`, laid out from the same
//! `Instant`s as `service_us` so the three sum to it exactly. Cache,
//! flight and backend spans nest inside `route`.

use std::io::{BufRead, BufReader, ErrorKind};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cubesfc_obs::{Lane, Registry, Snapshot};

use crate::api::{
    error_body, parse_partition_request, parse_rebalance_request, status_body, PartitionRequest,
};
use crate::coalesce::{Coalescer, Outcome};
use crate::http::{read_request, ReadError, Request, Response};
use crate::lru::LruCache;
use crate::queue::{BoundedQueue, PushError};
use crate::{Backend, BackendError};

/// How long a kept-alive connection may sit idle between requests
/// before its worker closes it.
const KEEPALIVE_IDLE: Duration = Duration::from_secs(5);

/// Read timeout on an idle kept-alive socket. Between slices its worker
/// checks the drain flag and the admission queue, so it notices either
/// within one slice.
const YIELD_SLICE: Duration = Duration::from_millis(5);

/// Pause before the acceptor retries after a failed `accept` (e.g. out
/// of file descriptors), so a persistent error does not spin a core.
const ACCEPT_RETRY: Duration = Duration::from_millis(2);

/// Longest a worker waits, after its last reply on a connection, for the
/// client to close before it closes the socket itself.
const CLOSE_LINGER: Duration = Duration::from_millis(200);

/// Bound on the shutdown self-connect that wakes the acceptor.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

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
    /// Per-request deadline, measured from accept time for the first
    /// request of a connection and from the first byte for later ones.
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
    /// Admitted connections served to the end (every request on them
    /// answered, then closed) over the server's lifetime.
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
    /// The acceptor's stop flag: set at the start of shutdown, so
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
        // Start the tracer's clock before any request can, so a request
        // slice laid out after the fact never begins before its origin.
        cubesfc_obs::tracer();

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

    /// The server's metrics registry (also served at `GET /metrics`).
    pub fn registry(&self) -> &Registry {
        &self.shared.registry
    }

    /// Connections admitted so far.
    pub fn accepted(&self) -> u64 {
        self.shared.accepted.load(Ordering::Relaxed)
    }

    /// Admitted connections served to the end so far.
    pub fn completed(&self) -> u64 {
        self.shared.completed.load(Ordering::Relaxed)
    }

    /// Stop accepting, drain every admitted connection, join all
    /// threads, and report what happened.
    pub fn shutdown(mut self) -> DrainStats {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(acceptor) = self.acceptor.take() {
            wake_acceptor(self.addr, &acceptor);
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

/// Wake the acceptor out of its blocking `accept` (the stop flag is
/// already set) with one connection to the bound port, or to loopback
/// when the server is bound to an unspecified address. One is enough;
/// another is tried only while none could be made.
fn wake_acceptor(addr: SocketAddr, acceptor: &JoinHandle<()>) {
    let mut target = addr;
    if target.ip().is_unspecified() {
        target.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    while TcpStream::connect_timeout(&target, WAKE_TIMEOUT).is_err() && !acceptor.is_finished() {
        std::thread::sleep(ACCEPT_RETRY);
    }
}

/// Write an early reply for a request that was never (fully) read, then
/// close politely: half-close the write side and drain what the client
/// already sent.
fn respond_and_close(mut stream: &TcpStream, response: Response) {
    let response = response.with_header("connection", "close");
    if response.write(&mut stream).is_err() {
        return;
    }
    let _ = stream.shutdown(Shutdown::Write);
    drain_before_close(stream);
}

/// Read and discard what the client sent after the last reply, until it
/// closes, bounded in bytes and time; call after the write side is
/// half-closed. Closing with unread data in the receive buffer would
/// make the kernel send RST, which can destroy the reply before the
/// client reads it.
fn drain_before_close(mut stream: &TcpStream) {
    use std::io::Read;
    let until = Instant::now() + CLOSE_LINGER;
    let _ = stream.set_read_timeout(Some(CLOSE_LINGER / 4));
    let mut sink = [0u8; 4096];
    let mut budget: usize = 64 * 1024;
    while Instant::now() < until {
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
    loop {
        let accepted = listener.accept();
        // Set before `shutdown` wakes this `accept`: the connection in
        // hand is the wake-up (or one that raced it) and is dropped
        // unserved — it never reaches the queue, the counters or the log.
        if stop.load(Ordering::SeqCst) {
            break;
        }
        match accepted {
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
                        let _ = job.stream.set_nodelay(true);
                        let response = Response::json(429, error_body(429, "admission queue full"))
                            .with_header("retry-after", "1")
                            .with_header("x-cubesfc-request-id", &id);
                        let bytes_out = response.body.len() as u64;
                        respond_and_close(&job.stream, response);
                        cubesfc_obs::access_record(
                            &id, "-", 429, "-", 0, 0, 0, bytes_out, "rejected",
                        );
                    }
                }
            }
            Err(_) => std::thread::sleep(ACCEPT_RETRY),
        }
    }
    // No new work after this point; workers drain what was admitted.
    shared.queue.close();
}

fn worker_loop(shared: Arc<Shared>) {
    while let Some(job) = shared.queue.pop() {
        serve_connection(&shared, job);
        shared.completed.fetch_add(1, Ordering::SeqCst);
        shared.registry.counter_add("serve/completed", 1);
        shared.emit_gauges();
    }
}

/// Where one request's clocks start.
struct RequestClock {
    /// Accept and dequeue times, for the first request of a connection
    /// only: later requests never waited in the queue (`queue_us` 0).
    queued: Option<(Instant, Instant)>,
    /// Service start: the request's first byte.
    started: Instant,
    /// What is left of the deadline at `started`.
    budget: Duration,
}

/// Serve every request of one admitted connection, then close it.
fn serve_connection(shared: &Shared, job: Job) {
    let dequeued = Instant::now();
    let queue_wait = dequeued.saturating_duration_since(job.accepted_at);
    let stream = job.stream;
    let _ = stream.set_nodelay(true);

    let Some(budget) = shared
        .deadline
        .checked_sub(queue_wait)
        .filter(|left| !left.is_zero())
    else {
        let id = shared.next_request_id();
        shared.registry.counter_add("serve/http_504", 1);
        let response = Response::json(504, error_body(504, "deadline expired in queue"))
            .with_header("x-cubesfc-request-id", &id);
        let bytes_out = response.body.len() as u64;
        respond_and_close(&stream, response);
        cubesfc_obs::access_record(
            &id,
            "-",
            504,
            "-",
            queue_wait.as_micros() as u64,
            dequeued.elapsed().as_micros() as u64,
            0,
            bytes_out,
            "deadline",
        );
        return;
    };

    // The client of a fresh connection cannot retry, so its first
    // request never yields to the queue; it waits out the budget.
    let mut reader = BufReader::new(stream);
    if !await_request(shared, &mut reader, budget, false) {
        return;
    }
    let mut clock = RequestClock {
        queued: Some((job.accepted_at, dequeued)),
        started: Instant::now(),
        budget: budget.saturating_sub(dequeued.elapsed()),
    };
    loop {
        shared.inflight.fetch_add(1, Ordering::SeqCst);
        let keep_alive = serve_request(shared, &mut reader, &clock);
        shared.inflight.fetch_sub(1, Ordering::SeqCst);
        if !keep_alive || !await_request(shared, &mut reader, KEEPALIVE_IDLE, true) {
            return;
        }
        clock = RequestClock {
            queued: None,
            started: Instant::now(),
            budget: shared.deadline,
        };
    }
}

/// Wait, in `YIELD_SLICE` reads, until a request's first byte is
/// readable. `false` means close instead: the peer closed or failed, or
/// a read found nothing and drain had begun, the socket had idled for
/// `limit`, or, with `yield_to_queue`, another connection waited for a
/// worker. Bytes already sent (a pipelined request, or one that raced
/// the drain) are served even then; the reply will say `connection: close`.
fn await_request(
    shared: &Shared,
    reader: &mut BufReader<TcpStream>,
    limit: Duration,
    yield_to_queue: bool,
) -> bool {
    if !reader.buffer().is_empty() {
        return true;
    }
    let idle_since = Instant::now();
    let _ = reader.get_ref().set_read_timeout(Some(YIELD_SLICE));
    loop {
        match reader.fill_buf() {
            Ok(bytes) => return !bytes.is_empty(),
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) => {}
            Err(_) => return false,
        }
        if shared.draining.load(Ordering::SeqCst)
            || (yield_to_queue && !shared.queue.is_empty())
            || idle_since.elapsed() >= limit
        {
            return false;
        }
    }
}

/// Read, route and answer one request. Returns whether the connection
/// stays open for another.
fn serve_request(shared: &Shared, reader: &mut BufReader<TcpStream>, clock: &RequestClock) -> bool {
    let started = clock.started;
    let queue_us = clock.queued.map_or(0, |(accepted, dequeued)| {
        dequeued.saturating_duration_since(accepted).as_micros() as u64
    });
    let remaining = clock.budget.saturating_sub(started.elapsed());
    let _ = reader.get_ref().set_read_timeout(Some(remaining));

    let request = match read_request(&mut *reader) {
        Ok(req) => req,
        Err(ReadError::Eof) => return false,
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
            respond_and_close(reader.get_ref(), response);
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
            return false;
        }
    };
    let read_done = Instant::now();

    let id = match client_request_id(&request) {
        Some(id) => id.to_string(),
        None => shared.next_request_id(),
    };
    let bytes_in = request.body.len() as u64;
    // One lane per request. Cache / flight / backend spans land on it
    // live, inside `route`; the `queue`, `service`, `read`, `route` and
    // `write` slices are laid out after the reply, from the Instants.
    let lane = cubesfc_obs::trace_lane(&format!("req {id}"));

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
    // Keep the connection only if the client allows it, drain has not
    // begun, and no other connection is waiting for a worker.
    let keep_alive =
        request.keep_alive() && !shared.draining.load(Ordering::SeqCst) && shared.queue.is_empty();
    let mut response = response.with_header("x-cubesfc-request-id", &id);
    if !keep_alive {
        response = response.with_header("connection", "close");
    }
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
    let routed = Instant::now();
    let written = response.write(reader.get_mut()).is_ok();
    let done = Instant::now();
    if !keep_alive {
        // FIN right behind the reply, so a client reading to EOF wakes
        // once for both. After `done`: such a client's clock stops at
        // the FIN, so it always measures at least `service_us`.
        let _ = reader.get_ref().shutdown(Shutdown::Write);
    }

    // The three parts of the service time, in integer ns; they sum to
    // `service_ns` exactly, and `service_us` is that sum truncated.
    let ns = |from: Instant, to: Instant| to.duration_since(from).as_nanos() as u64;
    let parts = [
        ("read", started, read_done),
        ("route", read_done, routed),
        ("write", routed, done),
    ];
    let service_ns: u64 = parts.iter().map(|&(_, from, to)| ns(from, to)).sum();
    let service_us = service_ns / 1_000;
    if lane.is_active() {
        // One anchor maps every Instant onto the tracer's clock, so each
        // slice is exactly the Instant difference it stands for.
        let anchor = Instant::now();
        let anchor_ns = cubesfc_obs::tracer().now_ns();
        let at = |t: Instant| anchor_ns.saturating_sub(ns(t, anchor));
        if let Some((accepted, dequeued)) = clock.queued {
            lane.slice_at(
                "queue",
                at(accepted),
                at(dequeued),
                &[("queue_us", queue_us)],
            );
        }
        lane.slice_at(
            "service",
            at(started),
            at(done),
            &[
                ("bytes_in", bytes_in),
                ("service_ns", service_ns),
                ("service_us", service_us),
            ],
        );
        for (name, from, to) in parts {
            lane.slice_at(name, at(from), at(to), &[("ns", ns(from, to))]);
        }
    }

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
        service_us,
        bytes_in,
        response.body.len() as u64,
        outcome,
    );
    if !keep_alive {
        // A pipelining client may have sent more than this request.
        drain_before_close(reader.get_ref());
    }
    keep_alive && written
}

/// The registry snapshot plus point-in-time gauges (`serve/gauge/*`),
/// injected at scrape time so `GET /metrics` is self-sufficient.
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
        ("GET", "/metrics") => (
            "metrics",
            Response::json(200, metrics_snapshot(shared).to_json()),
        ),
        ("POST", "/v1/partition") => (
            "partition",
            handle_partition(shared, request, remaining, lane),
        ),
        ("POST", "/v1/rebalance/step") => ("rebalance", handle_rebalance(shared, request)),
        (_, "/healthz")
        | (_, "/readyz")
        | (_, "/metrics")
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
            version: "HTTP/1.1".to_string(),
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
            version: "HTTP/1.1".to_string(),
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
    }
}
