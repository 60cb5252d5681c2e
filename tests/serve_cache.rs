//! The service's speed claim, in a test binary of its own: a cached
//! result is at least an order of magnitude cheaper than a cold
//! computation.
//!
//! It compares the process's on-CPU time per request (client and server
//! share the process), not wall-clock latencies: a request that waits
//! for a core on a busy host costs no CPU while it waits, so the check
//! measures the cache, not the host. It uses the real engine backend,
//! where the work is genuinely expensive, and counts the backend's
//! partitions as well.

use cubesfc::serve::{
    http_request, Backend, BackendError, PartitionRequest, RebalanceStepRequest, ServeConfig,
    Server, ServerHandle,
};
use cubesfc::EngineBackend;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(30);

fn start(config: ServeConfig, backend: Arc<dyn Backend>) -> (ServerHandle, SocketAddr) {
    let handle = Server::start(config, backend).expect("bind");
    let addr = handle.local_addr();
    (handle, addr)
}

/// The engine backend, counting the partitions it computes.
struct CountingBackend {
    engine: EngineBackend,
    partitions: AtomicUsize,
}

impl Backend for CountingBackend {
    fn partition(&self, req: &PartitionRequest) -> Result<String, BackendError> {
        self.partitions.fetch_add(1, Ordering::SeqCst);
        self.engine.partition(req)
    }

    fn rebalance_step(&self, req: &RebalanceStepRequest) -> Result<String, BackendError> {
        self.engine.rebalance_step(req)
    }
}

/// `POST /v1/partition` with `body`; returns the reply's cache header and
/// the on-CPU time the whole process spent on the round trip.
fn post_cpu_timed(addr: SocketAddr, body: &str) -> (String, Duration) {
    let cpu = || cubesfc::obs::process_cpu_ns().expect("a process CPU clock on this platform");
    let before = cpu();
    let resp = http_request(addr, "POST", "/v1/partition", Some(body), TIMEOUT).unwrap();
    let spent = Duration::from_nanos(cpu() - before);
    assert_eq!(resp.status, 200);
    let cache = resp.header("x-cubesfc-cache").unwrap_or_default();
    (cache.to_string(), spent)
}

/// Compared in process on-CPU time per request, not in `Instant` deltas
/// as before: the same 4 cold seeds, 20 hits, headers, worst-of
/// comparison and 10x bound, without the host's scheduling in them.
#[test]
fn cache_hits_are_an_order_of_magnitude_faster_than_cold_misses() {
    let backend = Arc::new(CountingBackend {
        engine: EngineBackend::new(),
        partitions: AtomicUsize::new(0),
    });
    let (handle, addr) = start(ServeConfig::default(), backend.clone());

    // Cold misses: distinct seeds of a METIS-family method at Ne=16 so
    // every request is a genuinely fresh multilevel partition.
    let mut cold_worst = Duration::ZERO;
    for seed in 0..4u64 {
        let body = format!("{{\"ne\": 16, \"nproc\": 96, \"method\": \"kway\", \"seed\": {seed}}}");
        let (cache, cpu) = post_cpu_timed(addr, &body);
        assert_eq!(cache, "miss");
        cold_worst = cold_worst.max(cpu);
    }

    // Hits: hammer one of those keys; every response must come from the
    // result cache and even the costliest must beat the cold worst case
    // tenfold.
    let body = "{\"ne\": 16, \"nproc\": 96, \"method\": \"kway\", \"seed\": 0}";
    let mut hit_worst = Duration::ZERO;
    for _ in 0..20 {
        let (cache, cpu) = post_cpu_timed(addr, body);
        assert_eq!(cache, "hit");
        hit_worst = hit_worst.max(cpu);
    }

    assert!(
        cold_worst >= hit_worst * 10,
        "cold worst-case {cold_worst:?} of CPU is not 10x the cache-hit worst-case {hit_worst:?}"
    );
    // The work behind the claim: one partition per cold seed, none for a hit.
    assert_eq!(backend.partitions.load(Ordering::SeqCst), 4);
    handle.shutdown();
}
