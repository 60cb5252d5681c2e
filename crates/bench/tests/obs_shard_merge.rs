//! The Rayon sweep's per-thread observability shards merge into
//! exactly the registry a serial run produces.
//!
//! This test switches the process-global registry on and asserts exact
//! counts, so it is the only test in its binary: nothing else in the
//! process may partition while it runs.

use cubesfc::report::PartitionReport;
use cubesfc::CubedSphere;
use cubesfc_bench::{paper_models, sweep, SWEEP_METHODS};

#[test]
fn parallel_sweep_merges_shards_like_the_serial_run() {
    let mesh = CubedSphere::new(4);
    let (machine, cost) = paper_models();
    let procs = [2, 4, 8];

    cubesfc_obs::set_enabled(true);
    cubesfc_obs::reset();
    for &nproc in &procs {
        for &m in &SWEEP_METHODS {
            PartitionReport::compute(&mesh, m, nproc, &machine, &cost).unwrap();
        }
    }
    let serial = cubesfc_obs::snapshot();

    cubesfc_obs::reset();
    let rows = sweep(&mesh, &procs, &machine, &cost);
    let parallel = cubesfc_obs::snapshot();
    cubesfc_obs::set_enabled(false);
    cubesfc_obs::reset();

    assert_eq!(rows.len(), procs.len());
    // The partitioners are deterministic (fixed seeds), so the merged
    // per-thread shards of the Rayon run must reproduce the serial
    // counters and histograms exactly; only wall-clock timings differ.
    assert!(!serial.counters.is_empty());
    assert_eq!(serial.counters, parallel.counters);
    assert_eq!(serial.histograms, parallel.histograms);
    assert_eq!(
        serial.counters["partition/calls"],
        (procs.len() * SWEEP_METHODS.len()) as u64
    );
    // Same span paths were observed, with the same call counts.
    let counts = |s: &cubesfc_obs::Snapshot| -> Vec<(String, u64)> {
        s.timers.iter().map(|(k, v)| (k.clone(), v.count)).collect()
    };
    assert_eq!(counts(&serial), counts(&parallel));
}
