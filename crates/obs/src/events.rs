//! Event-timeline tracing: bounded per-thread event ring buffers plus a
//! *lane* abstraction so logical actors (virtual ranks, the DSS
//! exchange) get their own timeline rows independent of the OS thread
//! that simulated them.
//!
//! A [`Tracer`] mirrors the [`crate::Registry`] design: every recording
//! thread gets a private shard (one mutex, uncontended in steady state)
//! holding a bounded `Vec` of events. When a shard is full, new events
//! are dropped and counted exactly — the buffer never reallocates past
//! its capacity, so a runaway trace cannot exhaust memory. Shards are
//! merged and time-sorted only at export time
//! ([`Tracer::export_chrome`], in `chrome.rs`).
//!
//! Lanes are registered by name ([`Tracer::lane`]); a [`Lane`] handle is
//! `Clone + Send`, so one logical lane (e.g. `"dss"`) can receive
//! instant events from many threads while each virtual rank's own lane
//! receives its begin/end slices from exactly the thread that ran it —
//! which keeps begin/end nesting well-formed per lane.

use crate::clock::Clock;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// An event-timeline recorder. Cheap to clone (`Arc` inner); clones
/// share the same lanes and event buffers. Explicit instances always
/// record — the *global* tracer (see [`crate::trace_lane`]) is gated
/// behind the same relaxed-atomic fast path as the metrics registry.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

struct TracerInner {
    id: u64,
    clock: Arc<dyn Clock>,
    capacity: usize,
    /// Lane names; the index is the lane id (and the export `tid`).
    lanes: Mutex<Vec<String>>,
    /// Every event shard ever handed to a thread; Arcs keep data alive
    /// after the owning thread exits.
    shards: Mutex<Vec<Arc<Mutex<EventShard>>>>,
}

/// Default per-thread event capacity (events, not bytes).
pub(crate) const DEFAULT_EVENT_CAPACITY: usize = 1 << 16;

/// What kind of timeline mark an event is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// Opens a slice on the lane (Chrome `"B"`).
    Begin,
    /// Closes the most recent open slice on the lane (Chrome `"E"`).
    End,
    /// A zero-duration mark (Chrome `"i"`).
    Instant,
    /// A sample of a named counter track (Chrome `"C"`); its `args`
    /// hold `f64::to_bits` of each value.
    Counter,
}

/// One recorded timeline event.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Which lane (timeline row) the event belongs to.
    pub lane: u32,
    /// Begin / End / Instant / Counter.
    pub kind: EventKind,
    /// Slice, mark or counter-track name (empty for [`EventKind::End`]).
    pub name: String,
    /// Timestamp from the tracer's clock.
    pub ts_ns: u64,
    /// Numeric annotations (e.g. `("elements", 12)`, `("bytes", 4096)`);
    /// for a counter, the bits of each `f64` value.
    pub args: Vec<(String, u64)>,
}

/// One thread's bounded slice of a tracer's event stream.
pub(crate) struct EventShard {
    pub(crate) events: Vec<TraceEvent>,
    pub(crate) capacity: usize,
    /// Events not recorded because the shard was full. Exact.
    pub(crate) dropped: u64,
}

impl EventShard {
    fn new(capacity: usize) -> EventShard {
        EventShard {
            // Grows on demand up to `capacity`; traces are usually far
            // smaller than the cap, so don't pre-reserve megabytes.
            events: Vec::new(),
            capacity,
            dropped: 0,
        }
    }
}

thread_local! {
    static TRACE_TLS: RefCell<TraceTls> = RefCell::new(TraceTls::default());
}

#[derive(Default)]
struct TraceTls {
    /// tracer id -> this thread's event shard of that tracer.
    shards: HashMap<u64, Arc<Mutex<EventShard>>>,
    /// tracer id -> this OS thread's implicit lane (for [`crate::span`]
    /// events and instants not tied to a logical actor).
    thread_lane: HashMap<u64, u32>,
}

impl Tracer {
    /// New tracer using real monotonic time and the default per-thread
    /// event capacity.
    pub fn new() -> Tracer {
        Tracer::with_clock(Arc::new(crate::MonotonicClock::new()))
    }

    /// New tracer with an injected time source (tests: [`crate::MockClock`]).
    pub fn with_clock(clock: Arc<dyn Clock>) -> Tracer {
        Tracer::with_clock_and_capacity(clock, DEFAULT_EVENT_CAPACITY)
    }

    /// New tracer with an explicit per-thread event capacity.
    pub fn with_clock_and_capacity(clock: Arc<dyn Clock>, capacity: usize) -> Tracer {
        Tracer {
            inner: Arc::new(TracerInner {
                id: crate::next_registry_id(),
                clock,
                capacity,
                lanes: Mutex::new(Vec::new()),
                shards: Mutex::new(Vec::new()),
            }),
        }
    }

    /// The tracer's current time in nanoseconds, from its injected
    /// clock. Lets callers back-fill slices with [`Lane::slice_at`]
    /// using timestamps consistent with live-recorded events.
    pub fn now_ns(&self) -> u64 {
        self.inner.clock.now_ns()
    }

    /// Register (or look up) a lane by name. Lane ids are assigned in
    /// registration order and name each timeline row in the export.
    pub fn lane(&self, name: &str) -> Lane {
        let mut lanes = self.inner.lanes.lock().expect("obs lane list poisoned");
        let id = match lanes.iter().position(|l| l == name) {
            Some(i) => i as u32,
            None => {
                lanes.push(name.to_string());
                (lanes.len() - 1) as u32
            }
        };
        Lane {
            tracer: Some(self.clone()),
            id,
        }
    }

    /// The calling OS thread's implicit lane, named after the thread
    /// (or `thread-<id>` for unnamed threads). Created on first use.
    pub fn thread_lane(&self) -> Lane {
        let cached = TRACE_TLS
            .try_with(|tls| tls.borrow().thread_lane.get(&self.inner.id).copied())
            .ok()
            .flatten();
        if let Some(id) = cached {
            return Lane {
                tracer: Some(self.clone()),
                id,
            };
        }
        let thread = std::thread::current();
        let name = match thread.name() {
            Some(n) => n.to_string(),
            None => format!("thread-{:?}", thread.id()),
        };
        let lane = self.lane(&name);
        let _ = TRACE_TLS.try_with(|tls| {
            tls.borrow_mut().thread_lane.insert(self.inner.id, lane.id);
        });
        lane
    }

    /// Snapshot of the registered lane names, in id order.
    pub fn lane_names(&self) -> Vec<String> {
        self.inner
            .lanes
            .lock()
            .expect("obs lane list poisoned")
            .clone()
    }

    /// Run `f` on the calling thread's event shard, creating and
    /// registering it on first use. `None` only during thread teardown.
    fn with_shard<R>(&self, f: impl FnOnce(&mut EventShard) -> R) -> Option<R> {
        let shard = TRACE_TLS
            .try_with(|tls| {
                let mut tls = tls.borrow_mut();
                tls.shards
                    .entry(self.inner.id)
                    .or_insert_with(|| {
                        let shard = Arc::new(Mutex::new(EventShard::new(self.inner.capacity)));
                        self.inner
                            .shards
                            .lock()
                            .expect("obs event shard list poisoned")
                            .push(Arc::clone(&shard));
                        shard
                    })
                    .clone()
            })
            .ok()?;
        let mut data = shard.lock().expect("obs event shard poisoned");
        Some(f(&mut data))
    }

    fn record(&self, lane: u32, kind: EventKind, name: &str, args: &[(&str, u64)]) {
        let ts_ns = self.inner.clock.now_ns();
        self.record_at(lane, kind, name, ts_ns, args);
    }

    fn record_at(&self, lane: u32, kind: EventKind, name: &str, ts_ns: u64, args: &[(&str, u64)]) {
        self.push(lane, kind, name, ts_ns, args.iter().map(|(k, v)| (*k, *v)));
    }

    fn push<'a>(
        &self,
        lane: u32,
        kind: EventKind,
        name: &str,
        ts_ns: u64,
        args: impl Iterator<Item = (&'a str, u64)>,
    ) {
        self.with_shard(|s| {
            // Build the owned event only after the capacity check so a
            // saturated buffer costs no allocation per dropped event.
            if s.events.len() >= s.capacity {
                s.dropped += 1;
                return;
            }
            s.events.push(TraceEvent {
                lane,
                kind,
                name: name.to_string(),
                ts_ns,
                args: args.map(|(k, v)| (k.to_string(), v)).collect(),
            });
        });
    }

    /// All recorded events, merged across threads and stably sorted by
    /// timestamp (per-lane order is preserved: each lane's begin/end
    /// stream comes from one thread recording in time order).
    pub fn events(&self) -> Vec<TraceEvent> {
        let shards = self
            .inner
            .shards
            .lock()
            .expect("obs event shard list poisoned");
        let mut all: Vec<TraceEvent> = Vec::new();
        for shard in shards.iter() {
            let data = shard.lock().expect("obs event shard poisoned");
            all.extend(data.events.iter().cloned());
        }
        all.sort_by_key(|e| e.ts_ns);
        all
    }

    /// Total recorded events across all threads.
    pub fn event_count(&self) -> usize {
        let shards = self
            .inner
            .shards
            .lock()
            .expect("obs event shard list poisoned");
        shards
            .iter()
            .map(|s| s.lock().expect("obs event shard poisoned").events.len())
            .sum()
    }

    /// Exact count of events dropped because a thread's buffer was full.
    pub fn dropped_events(&self) -> u64 {
        let shards = self
            .inner
            .shards
            .lock()
            .expect("obs event shard list poisoned");
        shards
            .iter()
            .map(|s| s.lock().expect("obs event shard poisoned").dropped)
            .sum()
    }

    /// Clear all recorded events and the dropped counter (lanes and
    /// shards stay registered).
    pub fn reset(&self) {
        let shards = self
            .inner
            .shards
            .lock()
            .expect("obs event shard list poisoned");
        for shard in shards.iter() {
            let mut data = shard.lock().expect("obs event shard poisoned");
            data.events.clear();
            data.dropped = 0;
        }
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

/// A handle to one timeline row. Inert handles (from [`Lane::inert`] or
/// [`crate::trace_lane`] while tracing is off) record nothing.
///
/// Clone freely: clones address the same lane. A lane that receives
/// begin/end slices must receive them from a single thread at a time
/// (each virtual rank owns its lane); instant events may come from
/// anywhere.
#[derive(Clone)]
pub struct Lane {
    tracer: Option<Tracer>,
    id: u32,
}

impl Lane {
    /// A lane that records nothing.
    pub fn inert() -> Lane {
        Lane {
            tracer: None,
            id: 0,
        }
    }

    /// Does this handle record anything?
    pub fn is_active(&self) -> bool {
        self.tracer.is_some()
    }

    /// Open a slice on the lane.
    pub fn begin(&self, name: &str) {
        self.begin_with(name, &[]);
    }

    /// Open a slice annotated with numeric args (shown in the trace
    /// viewer's detail pane).
    pub fn begin_with(&self, name: &str, args: &[(&str, u64)]) {
        if let Some(t) = &self.tracer {
            t.record(self.id, EventKind::Begin, name, args);
        }
    }

    /// Close the most recently opened slice on the lane.
    pub fn end(&self) {
        if let Some(t) = &self.tracer {
            t.record(self.id, EventKind::End, "", &[]);
        }
    }

    /// Record a zero-duration mark.
    pub fn instant(&self, name: &str, args: &[(&str, u64)]) {
        if let Some(t) = &self.tracer {
            t.record(self.id, EventKind::Instant, name, args);
        }
    }

    /// Record a complete slice with explicit timestamps, bypassing the
    /// tracer's clock. This is how *modelled* timelines are written: a
    /// simulator that knows each virtual rank's compute/wait seconds can
    /// lay them out on a deterministic synthetic time axis, so the trace
    /// (and everything replayed from it) is byte-identical at a fixed
    /// seed. `end_ns` must not precede `start_ns`.
    pub fn slice_at(&self, name: &str, start_ns: u64, end_ns: u64, args: &[(&str, u64)]) {
        debug_assert!(end_ns >= start_ns, "slice_at: end before start");
        if let Some(t) = &self.tracer {
            t.record_at(self.id, EventKind::Begin, name, start_ns, args);
            t.record_at(self.id, EventKind::End, "", end_ns.max(start_ns), &[]);
        }
    }

    /// Open a slice at an explicit timestamp without closing it —
    /// deliberately unbalanced, for modelling streams whose tail was
    /// truncated away.
    pub fn begin_at(&self, name: &str, start_ns: u64, args: &[(&str, u64)]) {
        if let Some(t) = &self.tracer {
            t.record_at(self.id, EventKind::Begin, name, start_ns, args);
        }
    }

    /// Record a zero-duration mark at an explicit timestamp.
    pub fn instant_at(&self, name: &str, ts_ns: u64, args: &[(&str, u64)]) {
        if let Some(t) = &self.tracer {
            t.record_at(self.id, EventKind::Instant, name, ts_ns, args);
        }
    }

    /// Record one sample of the counter track `name`: each `(key,
    /// value)` becomes one series of the track. Counter tracks are
    /// named by `name` alone, whatever lane records them.
    pub fn counter<K: AsRef<str>>(&self, name: &str, values: &[(K, f64)]) {
        if let Some(t) = &self.tracer {
            self.counter_at(name, t.now_ns(), values);
        }
    }

    /// [`Lane::counter`] at an explicit timestamp (a modelled time axis,
    /// like [`Lane::slice_at`]).
    pub fn counter_at<K: AsRef<str>>(&self, name: &str, ts_ns: u64, values: &[(K, f64)]) {
        if let Some(t) = &self.tracer {
            let args = values.iter().map(|(k, v)| (k.as_ref(), v.to_bits()));
            t.push(self.id, EventKind::Counter, name, ts_ns, args);
        }
    }

    /// RAII slice: begins now, ends when the guard drops.
    pub fn span(&self, name: &str) -> LaneSpan {
        self.span_with(name, &[])
    }

    /// RAII slice with numeric annotations.
    pub fn span_with(&self, name: &str, args: &[(&str, u64)]) -> LaneSpan {
        self.begin_with(name, args);
        LaneSpan { lane: self.clone() }
    }
}

/// RAII guard returned by [`Lane::span`]; closes the slice on drop.
pub struct LaneSpan {
    lane: Lane,
}

impl Drop for LaneSpan {
    fn drop(&mut self) {
        self.lane.end();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MockClock;

    #[test]
    fn lane_slices_record_in_order_with_args() {
        let clock = Arc::new(MockClock::new());
        let tracer = Tracer::with_clock(clock.clone());
        let lane = tracer.lane("rank 0");
        lane.begin_with("compute", &[("elements", 12)]);
        clock.advance(100);
        lane.end();
        clock.advance(5);
        lane.instant("send", &[("bytes", 4096)]);
        let evs = tracer.events();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].kind, EventKind::Begin);
        assert_eq!(evs[0].name, "compute");
        assert_eq!(evs[0].args, vec![("elements".to_string(), 12)]);
        assert_eq!(evs[1].kind, EventKind::End);
        assert_eq!(evs[1].ts_ns, 100);
        assert_eq!(evs[2].kind, EventKind::Instant);
        assert_eq!(evs[2].ts_ns, 105);
    }

    #[test]
    fn explicit_timestamp_slices_ignore_the_clock() {
        let clock = Arc::new(MockClock::new());
        clock.advance(1_000_000);
        let tracer = Tracer::with_clock(clock);
        let lane = tracer.lane("rank 0");
        lane.slice_at("compute", 10, 25, &[("elements", 4)]);
        lane.slice_at("wait", 25, 25, &[]); // zero-duration is legal
        lane.instant_at("mark", 30, &[]);
        let evs = tracer.events();
        assert_eq!(evs.len(), 5);
        assert_eq!(
            evs.iter().map(|e| e.ts_ns).collect::<Vec<_>>(),
            vec![10, 25, 25, 25, 30]
        );
        assert_eq!(evs[0].kind, EventKind::Begin);
        assert_eq!(evs[1].kind, EventKind::End);
        // The stable sort keeps the zero-duration begin/end ordered.
        assert_eq!(evs[2].kind, EventKind::Begin);
        assert_eq!(evs[2].name, "wait");
        assert_eq!(evs[3].kind, EventKind::End);
        assert_eq!(evs[4].kind, EventKind::Instant);
    }

    #[test]
    fn counter_samples_carry_value_bits() {
        let clock = Arc::new(MockClock::new());
        let tracer = Tracer::with_clock(clock.clone());
        let lane = tracer.lane("steps");
        clock.advance(7);
        lane.counter("rebalance", &[("lb", 0.25), ("nan", f64::NAN)]);
        lane.counter_at("rebalance", 3, &[("lb".to_string(), -1.5)]);
        Lane::inert().counter("never", &[("x", 1.0)]);
        let evs = tracer.events();
        assert_eq!(evs.len(), 2);
        assert_eq!((evs[0].kind, evs[0].ts_ns), (EventKind::Counter, 3));
        assert_eq!(evs[0].args, vec![("lb".to_string(), (-1.5f64).to_bits())]);
        assert_eq!(evs[1].ts_ns, 7);
        assert_eq!(evs[1].args[0], ("lb".to_string(), 0.25f64.to_bits()));
        assert!(f64::from_bits(evs[1].args[1].1).is_nan());
    }

    #[test]
    fn lanes_are_deduplicated_by_name() {
        let tracer = Tracer::new();
        let a = tracer.lane("dss");
        let b = tracer.lane("dss");
        let c = tracer.lane("rank 1");
        assert_eq!(a.id, b.id);
        assert_ne!(a.id, c.id);
        assert_eq!(tracer.lane_names(), vec!["dss", "rank 1"]);
    }

    #[test]
    fn full_buffer_drops_exactly_and_never_grows() {
        let tracer = Tracer::with_clock_and_capacity(Arc::new(MockClock::new()), 4);
        let lane = tracer.lane("rank 0");
        for i in 0..9 {
            lane.instant("tick", &[("i", i)]);
        }
        assert_eq!(tracer.event_count(), 4);
        assert_eq!(tracer.dropped_events(), 5);
        // The survivors are the oldest events (a valid trace prefix).
        let evs = tracer.events();
        assert_eq!(evs[0].args[0].1, 0);
        assert_eq!(evs[3].args[0].1, 3);
    }

    #[test]
    fn reset_clears_events_and_dropped_counter() {
        let tracer = Tracer::with_clock_and_capacity(Arc::new(MockClock::new()), 2);
        let lane = tracer.lane("x");
        for _ in 0..5 {
            lane.instant("e", &[]);
        }
        assert_eq!(tracer.dropped_events(), 3);
        tracer.reset();
        assert_eq!(tracer.event_count(), 0);
        assert_eq!(tracer.dropped_events(), 0);
        lane.instant("after", &[]);
        assert_eq!(tracer.event_count(), 1);
    }

    #[test]
    fn cross_thread_events_merge_time_sorted() {
        let clock = Arc::new(MockClock::new());
        let tracer = Tracer::with_clock(clock.clone());
        let lane = tracer.lane("dss");
        clock.advance(10);
        std::thread::scope(|s| {
            for _ in 0..3 {
                let lane = lane.clone();
                s.spawn(move || lane.instant("exchange", &[("bytes", 64)]));
            }
        });
        clock.advance(10);
        lane.instant("late", &[]);
        let evs = tracer.events();
        assert_eq!(evs.len(), 4);
        assert!(evs.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        assert_eq!(evs[3].name, "late");
    }

    #[test]
    fn inert_lane_records_nothing() {
        let lane = Lane::inert();
        lane.begin("x");
        lane.instant("y", &[("a", 1)]);
        lane.end();
        let _span = lane.span("z");
        assert!(!lane.is_active());
    }

    #[test]
    fn thread_lane_is_stable_per_thread() {
        let tracer = Tracer::new();
        let a = tracer.thread_lane();
        let b = tracer.thread_lane();
        assert_eq!(a.id, b.id);
        let other = std::thread::spawn({
            let tracer = tracer.clone();
            move || tracer.thread_lane().id
        })
        .join()
        .unwrap();
        assert_ne!(a.id, other);
    }
}
