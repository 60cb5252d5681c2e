//! The parallel experiment engine's per-thread observability shards
//! merge into exactly the registry the serial run produces.
//!
//! This test switches the process-global registry on and asserts exact
//! counts, so it is the only test in its binary: nothing else in the
//! process may touch an instrumented path (the mesh cache's
//! `engine/cache_*` counters included) while it runs.

use cubesfc::{cells_for, set_jobs, ExperimentEngine, Resolution, NCAR_P690_MAX_PROCS};

#[test]
fn parallel_engine_merges_observability_shards_exactly() {
    let res = Resolution::for_ne(4, NCAR_P690_MAX_PROCS).unwrap();
    let cells = cells_for(&res, 4);

    // Serial run: the reference registry.
    cubesfc::obs::set_enabled(true);
    cubesfc::obs::reset();
    let engine = ExperimentEngine::new();
    engine.run_serial(&cells).unwrap();
    let serial = cubesfc::obs::snapshot();

    // Pooled run: per-thread shards merged into the global registry.
    cubesfc::obs::reset();
    let engine = ExperimentEngine::new();
    set_jobs(3);
    engine.run(&cells).unwrap();
    set_jobs(0);
    let parallel = cubesfc::obs::snapshot();
    cubesfc::obs::set_enabled(false);
    cubesfc::obs::reset();

    // Counters and histograms are deterministic — the merge must
    // reproduce them exactly; only wall-clock timings may differ.
    assert!(!serial.counters.is_empty());
    assert_eq!(serial.counters, parallel.counters);
    assert_eq!(serial.histograms, parallel.histograms);
    assert_eq!(serial.counters["experiment/cells"], cells.len() as u64);
    // Same span paths with the same call counts.
    let counts = |s: &cubesfc::obs::Snapshot| -> Vec<(String, u64)> {
        s.timers.iter().map(|(k, v)| (k.clone(), v.count)).collect()
    };
    assert_eq!(counts(&serial), counts(&parallel));
}
