//! Determinism of the parallel experiment engine.
//!
//! The engine fans the (K, Nproc, method) grid out over the worker pool;
//! the contract is that a pooled run is **byte-identical** to the serial
//! run — same partition assignments, same Table-2 metrics — for any seed
//! and any worker count. (That the per-thread observability shards merge
//! into exactly the serial registry is `tests/engine_obs_merge.rs`: it
//! flips the process-global registry, so it has a binary to itself.)
//!
//! These tests live in their own integration binary so the process-global
//! worker-pool override is not raced by unrelated unit tests; within the
//! binary, [`GLOBAL_LOCK`] serialises the tests that set it.

use cubesfc::{
    cells_for, set_jobs, CellResult, ExperimentCell, ExperimentEngine, MeshCache, PartitionMethod,
    PartitionOptions, Resolution, NCAR_P690_MAX_PROCS,
};
use std::sync::Arc;

/// Serialises tests mutating the process-global worker-pool size.
static GLOBAL_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn assert_identical(serial: &[CellResult], parallel: &[CellResult], label: &str) {
    assert_eq!(serial.len(), parallel.len(), "{label}: length");
    for (s, p) in serial.iter().zip(parallel) {
        assert!(
            s.identical(p),
            "{label}: cell {:?} diverged between serial and parallel runs",
            s.cell
        );
        // Spell the strongest part out: the element→part assignment is
        // equal element by element, not just statistically.
        assert_eq!(
            s.partition.assignment(),
            p.partition.assignment(),
            "{label}: assignment of {:?}",
            s.cell
        );
    }
}

#[test]
fn engine_is_bit_identical_across_seeds_and_cells() {
    let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Three (K, Nproc) cells spanning two resolutions, every method.
    let cells: Vec<ExperimentCell> = [(4usize, 8usize), (4, 24), (8, 96)]
        .iter()
        .flat_map(|&(ne, nproc)| {
            [
                PartitionMethod::Sfc,
                PartitionMethod::MetisKway,
                PartitionMethod::MetisTv,
                PartitionMethod::MetisRb,
            ]
            .into_iter()
            .map(move |method| ExperimentCell { ne, nproc, method })
        })
        .collect();

    for seed in [1u64, 42, 0xD15EA5E] {
        let mut opts = PartitionOptions::default();
        opts.graph_config.seed = seed;
        let engine = ExperimentEngine::new().with_options(opts);
        let serial = engine.run_serial(&cells).unwrap();
        for jobs in [2usize, 5] {
            set_jobs(jobs);
            let parallel = engine.run(&cells).unwrap();
            assert_identical(&serial, &parallel, &format!("seed={seed} jobs={jobs}"));
        }
        set_jobs(0);
    }
}

#[test]
fn strictly_serial_pool_matches_too() {
    let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // jobs=1 short-circuits the pool entirely (inline execution); it must
    // agree with both the explicit serial path and the threaded pool.
    let res = Resolution::for_ne(4, NCAR_P690_MAX_PROCS).unwrap();
    let cells = cells_for(&res, 4);
    let engine = ExperimentEngine::new();
    let serial = engine.run_serial(&cells).unwrap();
    set_jobs(1);
    let inline = engine.run(&cells).unwrap();
    set_jobs(0);
    assert_identical(&serial, &inline, "jobs=1");
}

#[test]
fn concurrent_mesh_cache_misses_build_once_and_share() {
    // Many threads racing the same cold resolution: the slot is
    // published before the build, so exactly one thread builds (one
    // miss) and every caller shares the same Arc.
    let cache = Arc::new(MeshCache::new());
    let bundles: Vec<_> = {
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || cache.bundle(8))
            })
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    };
    for b in &bundles[1..] {
        assert!(Arc::ptr_eq(&bundles[0], b));
    }
    assert_eq!(cache.misses(), 1, "coalesced misses must build once");
    assert_eq!(cache.hits(), 7);
    assert_eq!(cache.len(), 1);
}

#[test]
fn concurrent_engine_cells_match_serial_bit_for_bit() {
    // One shared engine, every cell raced from plain threads (not
    // `graph::share`'s claimers): results must be byte-identical to the
    // serial reference, including through a cold cache.
    let cells: Vec<ExperimentCell> = [(4usize, 6usize), (4, 16), (8, 96), (8, 24)]
        .iter()
        .flat_map(|&(ne, nproc)| {
            [PartitionMethod::Sfc, PartitionMethod::MetisKway]
                .into_iter()
                .map(move |method| ExperimentCell { ne, nproc, method })
        })
        .collect();
    let reference = ExperimentEngine::new().run_serial(&cells).unwrap();

    let engine = Arc::new(ExperimentEngine::new());
    let raced: Vec<CellResult> = {
        let threads: Vec<_> = cells
            .iter()
            .map(|&cell| {
                let engine = Arc::clone(&engine);
                std::thread::spawn(move || engine.run_cell(cell).unwrap())
            })
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    };
    assert_identical(&reference, &raced, "threaded run_cell");
    // Two resolutions were shared by eight concurrent cells: two builds.
    assert_eq!(engine.cache().misses(), 2);
    assert_eq!(engine.cache().len(), 2);
}
