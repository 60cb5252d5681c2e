//! The paper figures' pooled grid run (`run_cells`) merges its
//! per-thread observability shards into exactly the registry a serial
//! run of the same cells produces.
//!
//! This test switches the process-global registry on and asserts exact
//! counts, so it is the only test in its binary: nothing else in the
//! process may partition while it runs.

use cubesfc::engine::GRID_METHODS;
use cubesfc::{set_jobs, ExperimentEngine};
use cubesfc_bench::{cells_at, run_cells};

#[test]
fn parallel_sweep_merges_shards_like_the_serial_run() {
    let cells = cells_at(&[(4, 2), (4, 4), (4, 8)]);

    cubesfc::obs::set_enabled(true);
    cubesfc::obs::reset();
    ExperimentEngine::new().run_serial(&cells).unwrap();
    let serial = cubesfc::obs::snapshot();

    cubesfc::obs::reset();
    set_jobs(3);
    let results = run_cells(&cells);
    set_jobs(0);
    let parallel = cubesfc::obs::snapshot();
    cubesfc::obs::set_enabled(false);
    cubesfc::obs::reset();

    assert_eq!(results.len(), cells.len());
    // The partitioners are deterministic (fixed seeds), so the merged
    // per-thread shards of the pooled run must reproduce the serial
    // counters and histograms exactly; only wall-clock timings differ.
    assert!(!serial.counters.is_empty());
    assert_eq!(serial.counters, parallel.counters);
    assert_eq!(serial.histograms, parallel.histograms);
    assert_eq!(
        serial.counters["partition/calls"],
        (3 * GRID_METHODS.len()) as u64
    );
    // Same span paths were observed, with the same call counts.
    let counts = |s: &cubesfc::obs::Snapshot| -> Vec<(String, u64)> {
        s.timers.iter().map(|(k, v)| (k.clone(), v.count)).collect()
    };
    assert_eq!(counts(&serial), counts(&parallel));
}
