//! Asserts the acceptance criterion for disabled instrumentation: with
//! both global features off, every call site costs one relaxed atomic
//! load — the ring buffer stays empty, the registry stays empty, and
//! **no allocation occurs**.
//!
//! This lives in its own integration-test binary (one test only) so the
//! counting global allocator is not perturbed by concurrent tests.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn disabled_instrumentation_is_allocation_free_and_records_nothing() {
    cubesfc_obs::set_enabled(false);
    cubesfc_obs::set_trace_enabled(false);
    cubesfc_obs::set_access_enabled(false);

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for i in 0..1000u64 {
        let _span = cubesfc_obs::span("partition/coarsen");
        cubesfc_obs::counter_add("halo/bytes_sent", i);
        cubesfc_obs::histogram_record("halo/message_bytes", i);
        let lane = cubesfc_obs::trace_lane("rank 0");
        lane.begin_with("compute", &[("elements", i)]);
        lane.instant("send", &[("bytes", i)]);
        lane.end();
        cubesfc_obs::trace_instant("exchange", &[("seq", i)]);
        let _slice = lane.span("scatter");
        cubesfc_obs::trace_counter(
            "rebalance",
            &[("lb_measured", 0.1), ("migration_fraction", i as f64)],
        );
        cubesfc_obs::access_record("r000001", "partition", 200, "hit", i, i, 48, 96, "ok");
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "disabled instrumentation must not allocate"
    );

    // Nothing was recorded anywhere: the ring buffer is empty (no slice,
    // instant or counter sample), no events were dropped (they were
    // never offered), and the registry is empty.
    assert_eq!(cubesfc_obs::tracer().event_count(), 0);
    assert_eq!(cubesfc_obs::tracer().dropped_events(), 0);
    assert!(cubesfc_obs::snapshot().is_empty());
    assert!(cubesfc_obs::access_log().is_empty());
    assert_eq!(cubesfc_obs::access_log().dropped(), 0);
}
