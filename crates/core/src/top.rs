//! `cubesfc top`: a live terminal dashboard for a running `cubesfc
//! serve` instance.
//!
//! Polls `GET /metrics` (the JSON `cubesfc-profile-v1` view), rebuilds
//! a [`Snapshot`] from the wire format, and computes per-interval
//! deltas: requests/second, queue depth, in-flight workers, cache hit
//! ratio, and cumulative p50/p95/p99 latency per endpoint × cache
//! class. History is folded into the existing
//! [`SeriesBank`](cubesfc_obs::SeriesBank) so the dashboard's
//! sparklines are the same rendering path as the counter tracks of
//! `trace analyze`.
//!
//! `--once` polls twice (one interval apart), prints a single
//! fixed-width frame, and exits — the deterministic mode tests and CI
//! drive. Live mode redraws with an ANSI home+clear between frames
//! until interrupted.

use cubesfc_obs::{load_doc, SeriesBank, SeriesSample, Snapshot};
use cubesfc_serve::http_request;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Latency histograms the dashboard tabulates, as `(row label, metric
/// name)`: the partition endpoint overall and split by cache class,
/// plus the metrics endpoint itself.
const LATENCY_ROWS: [(&str, &str); 5] = [
    ("partition", "serve/latency/partition_us"),
    ("partition hit", "serve/latency/partition_hit_us"),
    ("partition miss", "serve/latency/partition_miss_us"),
    (
        "partition coalesced",
        "serve/latency/partition_coalesced_us",
    ),
    ("metrics", "serve/latency/metrics_us"),
];

/// Resolve a dashboard target like `http://127.0.0.1:8437`,
/// `127.0.0.1:8437`, or `localhost:8437/metrics` to a socket address.
pub fn resolve_url(url: &str) -> Result<SocketAddr, String> {
    use std::net::ToSocketAddrs;
    if url.starts_with("https://") {
        return Err("https targets are not supported; use http://host:port".to_string());
    }
    let rest = url.strip_prefix("http://").unwrap_or(url);
    let hostport = rest.split('/').next().unwrap_or(rest);
    if hostport.is_empty() {
        return Err(format!("no host in {url:?}"));
    }
    hostport
        .to_socket_addrs()
        .map_err(|e| format!("cannot resolve {hostport:?}: {e}"))?
        .next()
        .ok_or_else(|| format!("no address for {hostport:?}"))
}

/// Fetch and parse one `GET /metrics` snapshot (JSON view).
pub fn fetch_snapshot(addr: SocketAddr, timeout: Duration) -> Result<Snapshot, String> {
    let resp = http_request(addr, "GET", "/metrics", None, timeout)
        .map_err(|e| format!("GET /metrics failed: {e}"))?;
    if resp.status != 200 {
        return Err(format!("GET /metrics returned {}", resp.status));
    }
    load_doc(&resp.body, Snapshot::from_json).map_err(|e| format!("bad /metrics body: {e}"))
}

/// One dashboard interval, derived from two successive snapshots.
#[derive(Debug, Clone)]
pub struct FrameStats {
    /// Requests answered during the interval.
    pub requests_delta: u64,
    /// Requests per second over the interval.
    pub rps: f64,
    /// Admission-queue depth at scrape time.
    pub queue_depth: u64,
    /// Admission-queue capacity.
    pub queue_capacity: u64,
    /// Requests being processed at scrape time.
    pub inflight: u64,
    /// Worker-pool size.
    pub workers: u64,
    /// `inflight / workers` (0 when the pool size is unknown).
    pub utilization: f64,
    /// Lifetime cache hit ratio (0 before any cacheable request).
    pub cache_hit_ratio: f64,
    /// `(row label, [p50, p95, p99])` in µs, cumulative since server
    /// start, one row per occupied latency histogram.
    pub latency: Vec<(String, [f64; 3])>,
}

impl FrameStats {
    /// Derive interval statistics from two snapshots `elapsed` apart.
    pub fn compute(prev: &Snapshot, cur: &Snapshot, elapsed: Duration) -> FrameStats {
        let counter = |snap: &Snapshot, name: &str| snap.counters.get(name).copied().unwrap_or(0);
        let requests_delta =
            counter(cur, "serve/requests").saturating_sub(counter(prev, "serve/requests"));
        let secs = elapsed.as_secs_f64().max(1e-9);
        let workers = counter(cur, "serve/gauge/workers");
        let inflight = counter(cur, "serve/gauge/inflight");
        let hits = counter(cur, "serve/cache_hits") as f64;
        let misses = counter(cur, "serve/cache_misses") as f64;
        let latency = LATENCY_ROWS
            .iter()
            .filter_map(|(label, name)| {
                cur.histograms.get(*name).map(|h| {
                    (
                        label.to_string(),
                        [h.quantile(0.50), h.quantile(0.95), h.quantile(0.99)],
                    )
                })
            })
            .collect();
        FrameStats {
            requests_delta,
            rps: requests_delta as f64 / secs,
            queue_depth: counter(cur, "serve/gauge/queue_depth"),
            queue_capacity: counter(cur, "serve/gauge/queue_capacity"),
            inflight,
            workers,
            utilization: if workers > 0 {
                inflight as f64 / workers as f64
            } else {
                0.0
            },
            cache_hit_ratio: if hits + misses > 0.0 {
                hits / (hits + misses)
            } else {
                0.0
            },
            latency,
        }
    }

    /// Repackage the interval as a sample on lane `top`, so
    /// [`SeriesBank`] accumulates sparkline history for the dashboard.
    pub fn to_sample(&self, seq: u64) -> SeriesSample {
        let mut gauges = BTreeMap::new();
        gauges.insert("rps".to_string(), self.rps);
        gauges.insert("queue_depth".to_string(), self.queue_depth as f64);
        gauges.insert("inflight".to_string(), self.inflight as f64);
        gauges.insert("utilization".to_string(), self.utilization);
        gauges.insert("cache_hit_ratio".to_string(), self.cache_hit_ratio);
        SeriesSample {
            seq,
            lane: "top".to_string(),
            gauges,
            ..SeriesSample::default()
        }
    }
}

/// Render one fixed-width dashboard frame.
pub fn render_frame(target: &str, frame_no: u64, stats: &FrameStats, bank: &SeriesBank) -> String {
    let mut out = String::new();
    out.push_str(&format!("cubesfc top — {target} (frame {frame_no})\n"));
    out.push_str(&format!(
        "rps {:>8.1}   queue {:>3}/{:<3}   inflight {:>2}/{:<2} ({:>5.1}% util)   cache hit ratio {:.3}\n",
        stats.rps,
        stats.queue_depth,
        stats.queue_capacity,
        stats.inflight,
        stats.workers,
        stats.utilization * 100.0,
        stats.cache_hit_ratio,
    ));
    if stats.latency.is_empty() {
        out.push_str("latency: no samples yet\n");
    } else {
        out.push_str(&format!(
            "{:<22} {:>10} {:>10} {:>10}  (µs, cumulative)\n",
            "latency", "p50", "p95", "p99"
        ));
        for (label, q) in &stats.latency {
            out.push_str(&format!(
                "{label:<22} {:>10.1} {:>10.1} {:>10.1}\n",
                q[0], q[1], q[2]
            ));
        }
    }
    out.push('\n');
    out.push_str(&bank.render());
    out
}

/// Sleep `interval` in small increments, returning early when `stop`
/// flips (so ctrl-C ends live mode within ~50ms).
fn interruptible_sleep(interval: Duration, stop: &AtomicBool) {
    let deadline = Instant::now() + interval;
    while Instant::now() < deadline && !stop.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(50).min(deadline - Instant::now()));
    }
}

/// Run the dashboard loop. `once` prints a single frame to stdout and
/// returns; live mode redraws every `interval` until `stop` flips.
pub fn run_top(url: &str, interval: Duration, once: bool, stop: &AtomicBool) -> Result<(), String> {
    let addr = resolve_url(url)?;
    let timeout = Duration::from_secs(5);
    let mut bank = SeriesBank::new(512);
    let mut prev = fetch_snapshot(addr, timeout)?;
    let mut prev_at = Instant::now();
    let mut frame_no = 0u64;
    loop {
        interruptible_sleep(interval, stop);
        if stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        let cur = fetch_snapshot(addr, timeout)?;
        let now = Instant::now();
        frame_no += 1;
        let stats = FrameStats::compute(&prev, &cur, now.saturating_duration_since(prev_at));
        bank.ingest(&stats.to_sample(frame_no));
        let frame = render_frame(url, frame_no, &stats, &bank);
        if once {
            print!("{frame}");
            return Ok(());
        }
        // Home + clear-to-end keeps the frame flicker-free in live mode.
        print!("\x1b[H\x1b[2J{frame}");
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        prev = cur;
        prev_at = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubesfc_obs::{Bucket, HistogramSnapshot};

    fn snapshot(requests: u64) -> Snapshot {
        let mut snap = Snapshot::default();
        snap.counters.insert("serve/requests".to_string(), requests);
        snap.counters.insert("serve/gauge/workers".to_string(), 4);
        snap.counters.insert("serve/gauge/inflight".to_string(), 2);
        snap.counters
            .insert("serve/gauge/queue_depth".to_string(), 3);
        snap.counters
            .insert("serve/gauge/queue_capacity".to_string(), 64);
        snap.counters.insert("serve/cache_hits".to_string(), 6);
        snap.counters.insert("serve/cache_misses".to_string(), 2);
        snap.histograms.insert(
            "serve/latency/partition_hit_us".to_string(),
            HistogramSnapshot {
                count: 4,
                sum: 48,
                buckets: vec![Bucket {
                    lo: 8,
                    hi: 15,
                    count: 4,
                }],
            },
        );
        snap
    }

    #[test]
    fn resolve_url_accepts_common_shapes() {
        let want: SocketAddr = "127.0.0.1:8437".parse().unwrap();
        assert_eq!(resolve_url("http://127.0.0.1:8437").unwrap(), want);
        assert_eq!(resolve_url("127.0.0.1:8437").unwrap(), want);
        assert_eq!(resolve_url("http://127.0.0.1:8437/metrics").unwrap(), want);
        assert!(resolve_url("https://127.0.0.1:8437").is_err());
        assert!(resolve_url("http://").is_err());
    }

    #[test]
    fn frame_stats_compute_deltas_and_ratios() {
        let prev = snapshot(100);
        let cur = snapshot(150);
        let stats = FrameStats::compute(&prev, &cur, Duration::from_secs(2));
        assert_eq!(stats.requests_delta, 50);
        assert!((stats.rps - 25.0).abs() < 1e-9);
        assert_eq!(stats.queue_depth, 3);
        assert_eq!(stats.queue_capacity, 64);
        assert!((stats.utilization - 0.5).abs() < 1e-9);
        assert!((stats.cache_hit_ratio - 0.75).abs() < 1e-9);
        assert_eq!(stats.latency.len(), 1);
        let (label, q) = &stats.latency[0];
        assert_eq!(label, "partition hit");
        assert!(q[0] >= 8.0 && q[2] <= 15.0, "{q:?}");
    }

    #[test]
    fn frame_renders_rps_and_class_quantiles() {
        let stats = FrameStats::compute(&snapshot(0), &snapshot(50), Duration::from_secs(1));
        let mut bank = SeriesBank::new(16);
        bank.ingest(&stats.to_sample(1));
        let frame = render_frame("http://127.0.0.1:1", 1, &stats, &bank);
        assert!(frame.contains("rps     50.0"), "{frame}");
        assert!(frame.contains("partition hit"), "{frame}");
        assert!(frame.contains("cache hit ratio 0.750"), "{frame}");
        assert!(frame.contains("top/rps"), "{frame}");
        // Fixed-width: every latency row has the same rendered width.
        let rows: Vec<&str> = frame
            .lines()
            .filter(|l| l.starts_with("partition"))
            .collect();
        assert!(!rows.is_empty());
        assert!(rows.iter().all(|r| r.len() == rows[0].len()), "{frame}");
    }

    #[test]
    fn counter_regressions_do_not_underflow() {
        // A server restart between polls makes counters go backwards;
        // the delta clamps to zero instead of wrapping.
        let stats = FrameStats::compute(&snapshot(100), &snapshot(40), Duration::from_secs(1));
        assert_eq!(stats.requests_delta, 0);
        assert_eq!(stats.rps, 0.0);
    }
}
