//! The service's speed claim, in a test binary of its own: a cached
//! result is at least an order of magnitude faster than a cold
//! computation.
//!
//! It compares wall-clock latencies, so it must not share the CPU with
//! the CPU-bound load tests of `tests/serve.rs`, which libtest would run
//! beside it in the same binary. It uses the real engine backend, where
//! the work is genuinely expensive.

use cubesfc::serve::{http_request, Backend, ServeConfig, Server, ServerHandle};
use cubesfc::EngineBackend;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(30);

fn start(config: ServeConfig, backend: Arc<dyn Backend>) -> (ServerHandle, SocketAddr) {
    let handle = Server::start(config, backend).expect("bind");
    let addr = handle.local_addr();
    (handle, addr)
}

#[test]
fn cache_hits_are_an_order_of_magnitude_faster_than_cold_misses() {
    let (handle, addr) = start(ServeConfig::default(), Arc::new(EngineBackend::new()));

    // Cold misses: distinct seeds of a METIS-family method at Ne=16 so
    // every request is a genuinely fresh multilevel partition.
    let mut cold_worst = Duration::ZERO;
    for seed in 0..4u64 {
        let body = format!("{{\"ne\": 16, \"nproc\": 96, \"method\": \"kway\", \"seed\": {seed}}}");
        let t0 = Instant::now();
        let resp = http_request(addr, "POST", "/v1/partition", Some(&body), TIMEOUT).unwrap();
        let dt = t0.elapsed();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("x-cubesfc-cache"), Some("miss"));
        cold_worst = cold_worst.max(dt);
    }

    // Hits: hammer one of those keys; every response must come from the
    // result cache and even the slowest must beat the cold p99 tenfold.
    let body = "{\"ne\": 16, \"nproc\": 96, \"method\": \"kway\", \"seed\": 0}".to_string();
    let mut hit_worst = Duration::ZERO;
    for _ in 0..20 {
        let t0 = Instant::now();
        let resp = http_request(addr, "POST", "/v1/partition", Some(&body), TIMEOUT).unwrap();
        let dt = t0.elapsed();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("x-cubesfc-cache"), Some("hit"));
        hit_worst = hit_worst.max(dt);
    }

    assert!(
        cold_worst >= hit_worst * 10,
        "cold worst-case {cold_worst:?} is not 10x the cache-hit worst-case {hit_worst:?}"
    );
    handle.shutdown();
}
