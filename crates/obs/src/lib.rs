//! `cubesfc-obs`: zero-dependency observability for the cubed-sphere
//! partitioning workspace. It records and exports; explaining a trace
//! (Eq. (1), the machine model) is the domain's job, in
//! `cubesfc::analysis`.
//!
//! The pieces:
//!
//! * **Phase-scoped span timers** — [`span`] returns an RAII guard; spans
//!   opened while another span is live on the same thread nest under it,
//!   producing slash-joined paths like `partition/coarsen/match`. Time
//!   comes from an injectable [`Clock`], so tests use [`MockClock`] and
//!   never sleep. [`thread_cpu_ns`] / [`process_cpu_ns`] read on-CPU
//!   time instead, for claims that must not depend on an idle host.
//! * **Mergeable metrics** — counters and log2-bucket histograms are
//!   written to per-thread shards (one mutex each, never contended in
//!   steady state) and merged into a [`Snapshot`] on demand; safe under
//!   the fan-out of `cubesfc_graph::share`.
//! * **Event timelines** — a bounded per-thread event ring buffer
//!   ([`Tracer`]) records begin/end slices, instant marks and counter
//!   samples onto named *lanes* ([`Lane`]), so logical actors (virtual
//!   ranks, the DSS exchange) get their own timeline rows;
//!   [`Tracer::export_chrome`] writes Chrome Trace Event Format JSON
//!   openable in Perfetto.
//! * **Health rules** — [`straggler_z`] and the hysteresis
//!   [`AlertEngine`] over sampled gauges, with the [`default_rules`]
//!   that trace replay runs over counter tracks.
//! * **Exporters** — `Snapshot::render_table()` (human-readable profile
//!   tree), `Snapshot::to_json()` (stable `cubesfc-profile-v1` schema,
//!   read back by [`Snapshot::from_json`]) and [`render_samples`] (the
//!   gauge, per-rank and alert table `trace analyze` prints).
//!
//! The global registry and tracer are **disabled by default**: every
//! [`span`] / [`counter_add`] / [`histogram_record`] / [`trace_lane`] /
//! [`trace_counter`] call first does a single relaxed atomic load and
//! returns immediately when the corresponding feature is off, so
//! instrumented hot paths cost ~1ns (and allocate nothing) when unused.
//! Explicit [`Registry`] and [`Tracer`] instances (used in tests and
//! embedders) always record.

mod access;
mod chrome;
mod clock;
mod cpu;
mod events;
mod health;
mod json;
mod render;
mod snapshot;
mod value;

pub use access::{parse_access, AccessLog, AccessRecord, ACCESS_SCHEMA};
pub use chrome::TRACE_SCHEMA;
pub use clock::{Clock, MockClock, MonotonicClock};
pub use cpu::{process_cpu_ns, thread_cpu_ns};
pub use events::{EventKind, Lane, LaneSpan, TraceEvent, Tracer};
pub use health::{default_rules, straggler_z, AlertEngine, AlertRule};
pub use json::{escape as json_escape, JsonScalar, JsonWriter, Layout};
pub use render::{render_samples, SeriesSample};
pub use snapshot::{Bucket, HistogramSnapshot, Snapshot, SpanStat, SCHEMA};
pub use value::{
    load_doc, parse as json_parse, parse_with_limits as json_parse_with_limits, read_ndjson,
    JsonError, JsonErrorKind, JsonLimits, JsonValue, LoadError,
};

use snapshot::{bucket_index, bucket_range, HIST_BUCKETS};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

// ---------------------------------------------------------------------------
// Shards

struct Histogram {
    count: u64,
    sum: u64,
    buckets: Box<[u64; HIST_BUCKETS]>,
}

impl Histogram {
    fn new() -> Histogram {
        Histogram {
            count: 0,
            sum: 0,
            buckets: Box::new([0; HIST_BUCKETS]),
        }
    }
}

/// One thread's private slice of a registry's metrics. Only its owning
/// thread writes to it (snapshot/reset readers lock briefly).
#[derive(Default)]
struct ShardData {
    timers: HashMap<String, SpanStat>,
    counters: HashMap<String, u64>,
    histograms: HashMap<String, Histogram>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

// ---------------------------------------------------------------------------
// Registry

struct RegistryInner {
    id: u64,
    clock: Arc<dyn Clock>,
    /// Every shard ever handed to a thread. Arcs keep shard data alive
    /// after the owning thread exits, so no samples are lost.
    shards: Mutex<Vec<Arc<Mutex<ShardData>>>>,
}

/// A mergeable metrics registry. Cheap to clone (`Arc` inner); clones
/// share the same underlying metrics.
#[derive(Clone)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

thread_local! {
    static TLS: RefCell<TlsState> = RefCell::new(TlsState::default());
}

#[derive(Default)]
struct TlsState {
    /// registry id -> this thread's shard of that registry.
    shards: HashMap<u64, Arc<Mutex<ShardData>>>,
    /// registry id -> stack of full span paths currently open on this thread.
    stacks: HashMap<u64, Vec<String>>,
}

fn next_registry_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl Registry {
    /// New registry using real monotonic time.
    pub fn new() -> Registry {
        Registry::with_clock(Arc::new(MonotonicClock::new()))
    }

    /// New registry with an injected time source (tests: [`MockClock`]).
    pub fn with_clock(clock: Arc<dyn Clock>) -> Registry {
        Registry {
            inner: Arc::new(RegistryInner {
                id: next_registry_id(),
                clock,
                shards: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Run `f` on the calling thread's shard, creating and registering
    /// the shard on first use. Returns `None` only during thread
    /// teardown, when thread-local storage is gone.
    fn with_shard<R>(&self, f: impl FnOnce(&mut ShardData) -> R) -> Option<R> {
        let shard = TLS
            .try_with(|tls| {
                let mut tls = tls.borrow_mut();
                tls.shards
                    .entry(self.inner.id)
                    .or_insert_with(|| {
                        let shard = Arc::new(Mutex::new(ShardData::default()));
                        self.inner
                            .shards
                            .lock()
                            .expect("obs shard list poisoned")
                            .push(Arc::clone(&shard));
                        shard
                    })
                    .clone()
            })
            .ok()?;
        let mut data = shard.lock().expect("obs shard poisoned");
        Some(f(&mut data))
    }

    /// Open a span. Nested calls on the same thread extend the path with
    /// `/`. The returned guard records the elapsed time when dropped.
    pub fn span(&self, name: &str) -> SpanGuard {
        let path = TLS
            .try_with(|tls| {
                let mut tls = tls.borrow_mut();
                let stack = tls.stacks.entry(self.inner.id).or_default();
                let path = match stack.last() {
                    Some(parent) => format!("{parent}/{name}"),
                    None => name.to_string(),
                };
                stack.push(path.clone());
                path
            })
            .unwrap_or_else(|_| name.to_string());
        SpanGuard {
            active: Some(ActiveSpan {
                registry: self.clone(),
                path,
                start_ns: self.inner.clock.now_ns(),
            }),
            trace: None,
        }
    }

    /// Add `delta` to the named counter.
    pub fn counter_add(&self, name: &str, delta: u64) {
        self.with_shard(|s| *s.counters.entry(name.to_string()).or_insert(0) += delta);
    }

    /// Record one observation in the named log2-bucket histogram.
    pub fn histogram_record(&self, name: &str, value: u64) {
        self.with_shard(|s| {
            let h = s.histograms.entry(name.to_string()).or_default();
            h.count += 1;
            h.sum = h.sum.saturating_add(value);
            h.buckets[bucket_index(value)] += 1;
        });
    }

    /// Merge every thread's shard into one stable-ordered [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::default();
        let shards = self.inner.shards.lock().expect("obs shard list poisoned");
        for shard in shards.iter() {
            let data = shard.lock().expect("obs shard poisoned");
            for (path, stat) in &data.timers {
                snap.timers
                    .entry(path.clone())
                    .or_insert_with(SpanStat::new)
                    .merge(stat);
            }
            for (name, value) in &data.counters {
                *snap.counters.entry(name.clone()).or_insert(0) += value;
            }
            for (name, h) in &data.histograms {
                let out = snap.histograms.entry(name.clone()).or_default();
                out.count += h.count;
                out.sum = out.sum.saturating_add(h.sum);
                for (i, &c) in h.buckets.iter().enumerate() {
                    if c == 0 {
                        continue;
                    }
                    let (lo, hi) = bucket_range(i);
                    match out.buckets.iter_mut().find(|b| b.lo == lo) {
                        Some(b) => b.count += c,
                        None => out.buckets.push(Bucket { lo, hi, count: c }),
                    }
                }
            }
        }
        for h in snap.histograms.values_mut() {
            h.buckets.sort_by_key(|b| b.lo);
        }
        snap
    }

    /// Clear all recorded metrics (shards stay registered).
    pub fn reset(&self) {
        let shards = self.inner.shards.lock().expect("obs shard list poisoned");
        for shard in shards.iter() {
            let mut data = shard.lock().expect("obs shard poisoned");
            data.timers.clear();
            data.counters.clear();
            data.histograms.clear();
        }
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

// ---------------------------------------------------------------------------
// Span guard

struct ActiveSpan {
    registry: Registry,
    path: String,
    start_ns: u64,
}

/// RAII guard for a span; records elapsed time into the owning registry
/// when dropped, and closes the matching timeline slice when the span
/// was opened with tracing on. Inert (records nothing) when both
/// features were disabled at creation time.
pub struct SpanGuard {
    active: Option<ActiveSpan>,
    /// Lane that received this span's `Begin` event; `End` fires on drop.
    trace: Option<Lane>,
}

impl SpanGuard {
    /// A guard that records nothing (what [`span`] returns when
    /// profiling is disabled).
    pub fn inert() -> SpanGuard {
        SpanGuard {
            active: None,
            trace: None,
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(lane) = self.trace.take() {
            lane.end();
        }
        let Some(span) = self.active.take() else {
            return;
        };
        let elapsed = span
            .registry
            .inner
            .clock
            .now_ns()
            .saturating_sub(span.start_ns);
        let _ = TLS.try_with(|tls| {
            let mut tls = tls.borrow_mut();
            if let Some(stack) = tls.stacks.get_mut(&span.registry.inner.id) {
                // Guards are scope-bound, so strict LIFO order holds; a
                // mismatch would mean a guard was moved across scopes.
                debug_assert_eq!(
                    stack.last(),
                    Some(&span.path),
                    "span guards dropped out of order"
                );
                stack.pop();
            }
        });
        span.registry.with_shard(|s| {
            s.timers
                .entry(span.path.clone())
                .or_insert_with(SpanStat::new)
                .record(elapsed);
        });
    }
}

// ---------------------------------------------------------------------------
// Global registry and tracer

/// Bit flags for the *global* instrumentation features, checked with a
/// single relaxed load on every instrumentation call. Bit 0 gates the
/// metrics registry, bit 1 the event-timeline tracer (slices, instants
/// and counter tracks), bit 2 the access log — one load answers every
/// question, so a call site never pays more than one atomic read.
static FLAGS: AtomicU8 = AtomicU8::new(0);

const FLAG_METRICS: u8 = 1;
const FLAG_TRACE: u8 = 1 << 1;
const FLAG_ACCESS: u8 = 1 << 2;

fn set_flag(bit: u8, on: bool) {
    if on {
        FLAGS.fetch_or(bit, Ordering::Relaxed);
    } else {
        FLAGS.fetch_and(!bit, Ordering::Relaxed);
    }
}

fn global_cell() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// The process-wide registry used by instrumented library code.
pub fn global() -> &'static Registry {
    global_cell()
}

/// The process-wide event tracer used by instrumented library code.
pub fn tracer() -> &'static Tracer {
    static GLOBAL: OnceLock<Tracer> = OnceLock::new();
    GLOBAL.get_or_init(Tracer::new)
}

/// Turn global profiling (metrics) on or off.
pub fn set_enabled(on: bool) {
    set_flag(FLAG_METRICS, on);
}

/// Is global profiling currently on?
pub fn enabled() -> bool {
    FLAGS.load(Ordering::Relaxed) & FLAG_METRICS != 0
}

/// Turn global event-timeline tracing on or off.
pub fn set_trace_enabled(on: bool) {
    set_flag(FLAG_TRACE, on);
}

/// Is global event tracing currently on?
pub fn trace_enabled() -> bool {
    FLAGS.load(Ordering::Relaxed) & FLAG_TRACE != 0
}

/// A handle to the named timeline lane of the global tracer, or an
/// inert handle (records nothing, allocates nothing) when tracing is
/// off. Like spans, a lane acquired while tracing was on keeps
/// recording even if tracing is disabled afterwards.
#[inline]
pub fn trace_lane(name: &str) -> Lane {
    if FLAGS.load(Ordering::Relaxed) & FLAG_TRACE == 0 {
        return Lane::inert();
    }
    tracer().lane(name)
}

/// Record an instant event on the calling OS thread's implicit lane of
/// the global tracer; no-op when tracing is disabled.
#[inline]
pub fn trace_instant(name: &str, args: &[(&str, u64)]) {
    if FLAGS.load(Ordering::Relaxed) & FLAG_TRACE == 0 {
        return;
    }
    tracer().thread_lane().instant(name, args);
}

/// Record one sample of the counter track `name` on the global tracer
/// (on the calling thread's lane, stamped by the tracer's clock); no-op
/// when tracing is disabled. `trace analyze` groups a track's samples
/// by name and reads `rank <n>` keys as the per-rank ensemble.
#[inline]
pub fn trace_counter<K: AsRef<str>>(name: &str, values: &[(K, f64)]) {
    if FLAGS.load(Ordering::Relaxed) & FLAG_TRACE == 0 {
        return;
    }
    tracer().thread_lane().counter(name, values);
}

/// The values of one counter sample: `gauges`, then one `rank <r>`
/// entry per element of `ranks` — the per-rank ensemble `trace analyze`
/// derives `straggler_z` from.
pub fn counter_values(gauges: &[(&str, f64)], ranks: &[f64]) -> Vec<(String, f64)> {
    let gauges = gauges.iter().map(|&(k, v)| (k.to_string(), v));
    let ranks = ranks
        .iter()
        .enumerate()
        .map(|(r, &v)| (format!("rank {r}"), v));
    gauges.chain(ranks).collect()
}

/// Open a span on the global registry; inert when profiling is
/// disabled. When tracing is enabled the span also appears as a slice
/// on the calling thread's timeline lane, so every `--profile`
/// instrumentation point doubles as a `--trace` event with no extra
/// call sites.
#[inline]
pub fn span(name: &str) -> SpanGuard {
    let flags = FLAGS.load(Ordering::Relaxed);
    if flags == 0 {
        return SpanGuard::inert();
    }
    let mut guard = if flags & FLAG_METRICS != 0 {
        global().span(name)
    } else {
        SpanGuard::inert()
    };
    if flags & FLAG_TRACE != 0 {
        let lane = tracer().thread_lane();
        lane.begin(name);
        guard.trace = Some(lane);
    }
    guard
}

/// Add to a global counter; no-op when profiling is disabled.
#[inline]
pub fn counter_add(name: &str, delta: u64) {
    if !enabled() {
        return;
    }
    global().counter_add(name, delta);
}

/// Record into a global histogram; no-op when profiling is disabled.
#[inline]
pub fn histogram_record(name: &str, value: u64) {
    if !enabled() {
        return;
    }
    global().histogram_record(name, value);
}

/// Snapshot the global registry (works whether or not profiling is on).
pub fn snapshot() -> Snapshot {
    global().snapshot()
}

/// Clear the global registry.
pub fn reset() {
    global().reset();
}

/// The process-wide access log used by instrumented serving code:
/// bounded (default 2^16 records, oldest shed with an exact count).
pub fn access_log() -> &'static AccessLog {
    static GLOBAL: OnceLock<AccessLog> = OnceLock::new();
    GLOBAL.get_or_init(|| AccessLog::new(access::DEFAULT_ACCESS_CAPACITY))
}

/// Turn global access logging on or off.
pub fn set_access_enabled(on: bool) {
    set_flag(FLAG_ACCESS, on);
}

/// Append one request record to the global access log; a single relaxed
/// load and no allocation when access logging is disabled.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn access_record(
    id: &str,
    endpoint: &str,
    status: u16,
    cache: &str,
    queue_us: u64,
    service_us: u64,
    bytes_in: u64,
    bytes_out: u64,
    outcome: &str,
) {
    if FLAGS.load(Ordering::Relaxed) & FLAG_ACCESS == 0 {
        return;
    }
    access_log().push(
        id, endpoint, status, cache, queue_us, service_us, bytes_in, bytes_out, outcome,
    );
}

/// [`snapshot`] plus the observability layer's own health counters
/// (`obs/dropped_events`, `obs/dropped_access`), so profile exports say
/// when the bounded buffers were forced to shed data.
pub fn export_snapshot() -> Snapshot {
    let mut snap = snapshot();
    snap.counters
        .insert("obs/dropped_events".to_string(), tracer().dropped_events());
    snap.counters
        .insert("obs/dropped_access".to_string(), access_log().dropped());
    snap
}

// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests that toggle the process-global registry must not interleave.
    fn global_test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn mock_clock_spans_record_exact_durations() {
        let clock = Arc::new(MockClock::new());
        let reg = Registry::with_clock(clock.clone());
        {
            let _outer = reg.span("partition");
            clock.advance(100);
            {
                let _inner = reg.span("coarsen");
                clock.advance(40);
            }
            clock.advance(10);
        }
        let snap = reg.snapshot();
        assert_eq!(snap.timers["partition"].total_ns, 150);
        assert_eq!(snap.timers["partition/coarsen"].total_ns, 40);
        assert_eq!(snap.timers["partition"].count, 1);
    }

    #[test]
    fn sibling_spans_share_a_parent_path() {
        let clock = Arc::new(MockClock::new());
        let reg = Registry::with_clock(clock.clone());
        {
            let _solve = reg.span("step");
            for _ in 0..3 {
                let _dss = reg.span("dss");
                clock.advance(7);
            }
        }
        let snap = reg.snapshot();
        assert_eq!(snap.timers["step/dss"].count, 3);
        assert_eq!(snap.timers["step/dss"].total_ns, 21);
        assert_eq!(snap.timers["step/dss"].min_ns, 7);
        assert_eq!(snap.timers["step/dss"].max_ns, 7);
    }

    #[test]
    fn counters_merge_across_threads() {
        let reg = Registry::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let reg = reg.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        reg.counter_add("ops", 1);
                    }
                    reg.histogram_record("size", 1024);
                });
            }
        });
        let snap = reg.snapshot();
        assert_eq!(snap.counters["ops"], 4000);
        assert_eq!(snap.histograms["size"].count, 4);
        assert_eq!(snap.histograms["size"].buckets.len(), 1);
        assert_eq!(snap.histograms["size"].buckets[0].count, 4);
    }

    #[test]
    fn shards_survive_thread_exit() {
        let reg = Registry::new();
        std::thread::spawn({
            let reg = reg.clone();
            move || reg.counter_add("from_dead_thread", 5)
        })
        .join()
        .unwrap();
        assert_eq!(reg.snapshot().counters["from_dead_thread"], 5);
    }

    #[test]
    fn separate_registries_do_not_mix() {
        let a = Registry::new();
        let b = Registry::new();
        a.counter_add("x", 1);
        b.counter_add("x", 10);
        assert_eq!(a.snapshot().counters["x"], 1);
        assert_eq!(b.snapshot().counters["x"], 10);
    }

    #[test]
    fn reset_clears_but_keeps_recording() {
        let reg = Registry::new();
        reg.counter_add("n", 3);
        reg.reset();
        assert!(reg.snapshot().is_empty());
        reg.counter_add("n", 1);
        assert_eq!(reg.snapshot().counters["n"], 1);
    }

    #[test]
    fn disabled_global_records_nothing() {
        let _guard = global_test_lock();
        set_enabled(false);
        reset();
        {
            let _s = span("should_not_appear");
        }
        counter_add("should_not_appear", 1);
        histogram_record("should_not_appear", 1);
        assert!(snapshot().is_empty());
    }

    #[test]
    fn enabled_global_records_and_disables_cleanly() {
        let _guard = global_test_lock();
        set_enabled(true);
        reset();
        {
            let _s = span("phase");
            counter_add("c", 2);
        }
        set_enabled(false);
        counter_add("c", 100); // ignored: profiling is off again
        let snap = snapshot();
        assert_eq!(snap.timers["phase"].count, 1);
        assert_eq!(snap.counters["c"], 2);
        reset();
    }

    #[test]
    fn span_disabled_mid_flight_still_records() {
        // A span opened while enabled records on drop even if profiling
        // was turned off in between: the guard captured the registry.
        let _guard = global_test_lock();
        set_enabled(true);
        reset();
        let s = span("in_flight");
        set_enabled(false);
        drop(s);
        assert_eq!(snapshot().timers["in_flight"].count, 1);
        reset();
    }

    #[test]
    fn global_trace_lane_gates_on_flag() {
        let _guard = global_test_lock();
        set_trace_enabled(false);
        tracer().reset();
        let inert = trace_lane("rank 0");
        inert.begin("compute");
        inert.end();
        trace_instant("never", &[]);
        assert_eq!(tracer().event_count(), 0);

        set_trace_enabled(true);
        let lane = trace_lane("rank 0");
        lane.begin_with("compute", &[("elements", 3)]);
        lane.end();
        set_trace_enabled(false);
        // Like spans, an acquired lane keeps recording after disable...
        lane.instant("late", &[]);
        // ...but new acquisitions are inert again.
        trace_lane("rank 1").instant("never", &[]);
        assert_eq!(tracer().event_count(), 3);
        tracer().reset();
    }

    #[test]
    fn global_span_emits_trace_slices_when_tracing_on() {
        let _guard = global_test_lock();
        set_enabled(false);
        set_trace_enabled(true);
        tracer().reset();
        {
            let _s = span("partition");
            let _inner = span("coarsen");
        }
        set_trace_enabled(false);
        let events = tracer().events();
        let begins: Vec<&str> = events
            .iter()
            .filter(|e| e.kind == EventKind::Begin)
            .map(|e| e.name.as_str())
            .collect();
        assert_eq!(begins, vec!["partition", "coarsen"]);
        let ends = events.iter().filter(|e| e.kind == EventKind::End).count();
        assert_eq!(ends, 2);
        // Metrics stayed off: the registry saw nothing.
        assert!(snapshot().timers.is_empty());
        tracer().reset();
    }

    #[test]
    fn histogram_overflow_bucket_boundary() {
        // Values at and around the log2 overflow boundary land in the
        // top bucket [2^63, u64::MAX] without wrapping or panicking.
        let reg = Registry::new();
        reg.histogram_record("h", u64::MAX);
        reg.histogram_record("h", 1u64 << 63);
        reg.histogram_record("h", (1u64 << 63) - 1);
        let h = &reg.snapshot().histograms["h"];
        assert_eq!(h.count, 3);
        // Sum saturates instead of wrapping.
        assert_eq!(h.sum, u64::MAX);
        let by_lo: Vec<(u64, u64, u64)> = h.buckets.iter().map(|b| (b.lo, b.hi, b.count)).collect();
        assert_eq!(
            by_lo,
            vec![(1u64 << 62, (1u64 << 63) - 1, 1), (1u64 << 63, u64::MAX, 2),]
        );
    }

    #[test]
    fn empty_registry_exports_cleanly() {
        // A registry with zero recorded events still snapshots, renders,
        // and serializes to valid, schema-tagged JSON.
        let reg = Registry::new();
        let snap = reg.snapshot();
        assert!(snap.is_empty());
        assert!(snap.render_table().contains("no samples"));
        let json = snap.to_json();
        let doc = json_parse(&json).unwrap();
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(SCHEMA));
        assert!(doc.get("timers").unwrap().as_obj().unwrap().is_empty());
    }

    #[test]
    fn histogram_snapshot_merges_shard_buckets() {
        let reg = Registry::new();
        std::thread::scope(|s| {
            for v in [1u64, 1, 3, 1000] {
                let reg = reg.clone();
                s.spawn(move || reg.histogram_record("h", v));
            }
        });
        let h = &reg.snapshot().histograms["h"];
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 1005);
        // 1,1 -> bucket [1,1]; 3 -> [2,3]; 1000 -> [512,1023].
        let by_lo: Vec<(u64, u64)> = h.buckets.iter().map(|b| (b.lo, b.count)).collect();
        assert_eq!(by_lo, vec![(1, 2), (2, 1), (512, 1)]);
    }
}
