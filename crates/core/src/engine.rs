//! The parallel experiment engine: run the paper's (K, Nproc, method)
//! grid with memoized meshes and a rayon fan-out.
//!
//! The full paper reproduction evaluates every method at every
//! equal-share processor count of every Table-1 resolution — hundreds of
//! independent cells. Two properties make this fast without changing a
//! single result:
//!
//! * **Memoization** ([`MeshCache`]): the cubed-sphere topology, global
//!   curve, and dual graph of each resolution are built once and shared
//!   (read-only) across every method and `Nproc` value, instead of being
//!   rebuilt per cell as the naive loop did.
//! * **Cell-level parallelism**: each cell is a pure function of
//!   `(ne, nproc, method, seed)` — the partitioners are deterministic for
//!   a fixed seed — so the grid fans out over the rayon pool and the
//!   collected results are **bit-identical** to the serial sweep, in the
//!   same order. Each cell worker holds a core, so recursive bisection
//!   forks only once a worker has finished its cells and left its core
//!   idle.
//!
//! Worker count is controlled with [`set_jobs`] (the CLI's `--jobs N` /
//! `CUBESFC_JOBS`); [`ExperimentEngine::run_serial`] bypasses the pool
//! entirely and is the reference the scaling benchmark and the
//! determinism tests compare against.
//!
//! The engine is the one evaluator of the grid: `cubesfc experiment`,
//! the `paper_grid` benchmark, and the `paper` binary's Table 2,
//! Figures 7–10, §4 Hilbert-Peano case and scaling extrapolation all
//! run [`cells_for`] (or hand-built cells) through [`ExperimentEngine::run`].

use crate::experiment::Resolution;
use crate::partitioner::{partition_with_graph, PartitionMethod, PartitionOptions};
use crate::report::PartitionReport;
use crate::PartitionError;
use cubesfc_graph::{CsrGraph, Partition};
use cubesfc_mesh::{CubedSphere, ExchangeWeights};
use cubesfc_seam::{CostModel, MachineModel};
use cubesfc_serve::LruCache;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Everything derivable from a face size that experiment cells share:
/// the mesh (topology + geometry + global curve) and its dual graph in
/// partitioner-ready CSR form.
#[derive(Clone, Debug)]
pub struct MeshBundle {
    /// Face size.
    pub ne: usize,
    /// The mesh (owns the global SFC when `ne` admits one).
    pub mesh: CubedSphere,
    /// The dual graph, built once with the cache's exchange weights.
    pub graph: CsrGraph,
}

impl MeshBundle {
    /// Build the bundle for face size `ne`.
    pub fn build(ne: usize, exchange: ExchangeWeights) -> MeshBundle {
        let _span = cubesfc_obs::span("mesh_bundle");
        let mesh = CubedSphere::new(ne);
        let graph = mesh.dual_graph(exchange);
        MeshBundle { ne, mesh, graph }
    }
}

/// Default [`MeshCache`] capacity: comfortably above the four Table-1
/// resolutions plus headroom for ad-hoc sizes, small enough that a
/// long-lived server cannot accumulate unbounded meshes.
pub const DEFAULT_MESH_CACHE_CAPACITY: usize = 16;

/// One cache slot. The `OnceLock` is the build-coalescing point: the
/// map entry is published *before* the bundle exists, so concurrent
/// requests for the same `ne` all land on the same slot and
/// `get_or_init` guarantees exactly one of them runs the build while
/// the rest block on it.
type Slot = Arc<OnceLock<Arc<MeshBundle>>>;

/// A bounded, thread-safe memo of [`MeshBundle`]s keyed by face size,
/// with LRU eviction and coalesced builds.
///
/// The slots live in the service's [`LruCache`], so the workspace has
/// one LRU. `bundle` takes the lock only around the map probe/insert;
/// the build itself runs outside it via `OnceLock::get_or_init`, so a
/// slow build never serializes readers of other resolutions, and
/// concurrent requests for the same unbuilt `ne` compute the bundle
/// exactly once. When the cache is full, inserting a new resolution
/// evicts the least-recently-used one. Hit/miss/eviction counts are
/// kept both on the cache (for direct assertion) and as `engine/cache_*`
/// counters in the global observability registry.
pub struct MeshCache {
    exchange: ExchangeWeights,
    slots: Mutex<LruCache<usize, Slot>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl MeshCache {
    /// An empty cache with the default (paper) exchange weights and
    /// [`DEFAULT_MESH_CACHE_CAPACITY`].
    pub fn new() -> MeshCache {
        MeshCache::with_exchange(ExchangeWeights::default())
    }

    /// An empty cache with explicit exchange weights.
    pub fn with_exchange(exchange: ExchangeWeights) -> MeshCache {
        MeshCache::with_exchange_and_capacity(exchange, DEFAULT_MESH_CACHE_CAPACITY)
    }

    /// An empty cache holding at most `capacity` resolutions (min 1).
    pub fn with_capacity(capacity: usize) -> MeshCache {
        MeshCache::with_exchange_and_capacity(ExchangeWeights::default(), capacity)
    }

    /// An empty cache with explicit weights and capacity.
    pub fn with_exchange_and_capacity(exchange: ExchangeWeights, capacity: usize) -> MeshCache {
        MeshCache {
            exchange,
            slots: Mutex::new(LruCache::new(capacity)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The bundle for `ne`, building and memoizing it on first request.
    ///
    /// A *hit* means a slot for `ne` already existed (built, or being
    /// built by another thread — the result is shared either way); a
    /// *miss* means this call created the slot, and misses therefore
    /// equal builds.
    pub fn bundle(&self, ne: usize) -> Arc<MeshBundle> {
        let slot = {
            let mut slots = self.slots.lock().unwrap();
            if let Some(slot) = slots.get(&ne) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                cubesfc_obs::counter_add("engine/cache_hits", 1);
                Arc::clone(slot)
            } else {
                self.misses.fetch_add(1, Ordering::Relaxed);
                cubesfc_obs::counter_add("engine/cache_misses", 1);
                let slot = Slot::default();
                let evicted = slots.insert(ne, Arc::clone(&slot)) as u64;
                if evicted > 0 {
                    self.evictions.fetch_add(evicted, Ordering::Relaxed);
                    cubesfc_obs::counter_add("engine/cache_evictions", evicted);
                }
                slot
            }
        };
        // Outside the lock: exactly one caller per slot runs the build.
        Arc::clone(slot.get_or_init(|| Arc::new(MeshBundle::build(ne, self.exchange))))
    }

    /// Number of memoized resolutions.
    pub fn len(&self) -> usize {
        self.slots.lock().unwrap().len()
    }

    /// Whether nothing is memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.slots.lock().unwrap().capacity()
    }

    /// Lookups that found an existing slot.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that created a slot (== bundle builds).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Resolutions evicted to make room.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Whether `ne` currently has a slot (without touching recency).
    pub fn contains(&self, ne: usize) -> bool {
        self.slots.lock().unwrap().contains(&ne)
    }
}

impl Default for MeshCache {
    fn default() -> Self {
        MeshCache::new()
    }
}

/// One cell of the experiment grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExperimentCell {
    /// Face size (`K = 6·ne²`).
    pub ne: usize,
    /// Processor count.
    pub nproc: usize,
    /// Partitioning algorithm.
    pub method: PartitionMethod,
}

/// The outcome of one cell: the partition itself plus its Table-2
/// report. Carried whole so determinism checks can compare assignments
/// byte-for-byte, not just summary statistics.
#[derive(Clone, Debug)]
pub struct CellResult {
    /// The cell that produced this result.
    pub cell: ExperimentCell,
    /// The computed partition.
    pub partition: Partition,
    /// The Table-2 metrics and modelled execution time.
    pub report: PartitionReport,
}

impl CellResult {
    /// Whether two results are bit-identical: same cell, same
    /// assignment, and exactly equal Table-2 metrics (the partitioners
    /// and metrics are integer/deterministic-float pipelines, so exact
    /// comparison is the correct notion — any drift is a bug).
    pub fn identical(&self, other: &CellResult) -> bool {
        self.cell == other.cell
            && self.partition == other.partition
            && self.report.lb_nelemd == other.report.lb_nelemd
            && self.report.lb_spcv == other.report.lb_spcv
            && self.report.tcv_mbytes == other.report.tcv_mbytes
            && self.report.edgecut == other.report.edgecut
            && self.report.time_us == other.report.time_us
    }
}

/// The methods the experiment grid sweeps, in report order (the paper's
/// SFC vs the three METIS baselines).
pub const GRID_METHODS: [PartitionMethod; 4] = [
    PartitionMethod::Sfc,
    PartitionMethod::MetisKway,
    PartitionMethod::MetisTv,
    PartitionMethod::MetisRb,
];

/// The grid cells of one Table-1 resolution: every method at every
/// processor count of [`Resolution::thinned_procs`], nproc-major, so
/// each `GRID_METHODS.len()` consecutive cells share one count.
pub fn cells_for(res: &Resolution, max_points: usize) -> Vec<ExperimentCell> {
    res.thinned_procs(max_points)
        .into_iter()
        .flat_map(|nproc| {
            GRID_METHODS.map(|method| ExperimentCell {
                ne: res.ne,
                nproc,
                method,
            })
        })
        .collect()
}

/// The full paper grid: [`cells_for`] over every Table-1 row.
pub fn paper_grid(max_points_per_resolution: usize) -> Vec<ExperimentCell> {
    crate::experiment::table1()
        .iter()
        .flat_map(|r| cells_for(r, max_points_per_resolution))
        .collect()
}

/// Worker count for parallel runs: `flag` (the CLI's `--jobs`) wins,
/// then the `CUBESFC_JOBS` environment variable; 0 or unset means the
/// automatic default. Returns the resolved value.
pub fn resolve_jobs(flag: Option<usize>) -> usize {
    flag.or_else(|| {
        std::env::var("CUBESFC_JOBS")
            .ok()
            .and_then(|s| s.parse().ok())
    })
    .unwrap_or(0)
}

/// Apply a worker count to the process-global pool (0 = automatic).
pub fn set_jobs(jobs: usize) {
    rayon::set_num_threads(jobs);
}

/// The experiment engine: a [`MeshCache`] plus the machine and cost
/// models every report uses.
pub struct ExperimentEngine {
    cache: MeshCache,
    machine: MachineModel,
    cost: CostModel,
    options: PartitionOptions,
}

impl ExperimentEngine {
    /// An engine with the paper's models (NCAR P690, SEAM climate) and
    /// default partition options.
    pub fn new() -> ExperimentEngine {
        ExperimentEngine::with_models(MachineModel::ncar_p690(), CostModel::seam_climate())
    }

    /// An engine with explicit models.
    pub fn with_models(machine: MachineModel, cost: CostModel) -> ExperimentEngine {
        ExperimentEngine {
            cache: MeshCache::new(),
            machine,
            cost,
            options: PartitionOptions::default(),
        }
    }

    /// Override the partition options (seed, tolerance, weights) applied
    /// to every cell.
    pub fn with_options(mut self, options: PartitionOptions) -> ExperimentEngine {
        self.options = options;
        self
    }

    /// The engine's mesh cache (for inspection and pre-warming).
    pub fn cache(&self) -> &MeshCache {
        &self.cache
    }

    /// Run one cell against the cache.
    pub fn run_cell(&self, cell: ExperimentCell) -> Result<CellResult, PartitionError> {
        let bundle = self.cache.bundle(cell.ne);
        let partition = partition_with_graph(
            &bundle.mesh,
            &bundle.graph,
            cell.method,
            cell.nproc,
            &self.options,
        )?;
        let report = PartitionReport::from_partition_with_graph(
            &bundle.graph,
            cell.method,
            &partition,
            &self.machine,
            &self.cost,
        );
        cubesfc_obs::counter_add("experiment/cells", 1);
        cubesfc_obs::trace_counter(
            "experiment",
            &[
                ("nproc", cell.nproc as f64),
                ("lb_nelemd", report.lb_nelemd),
                ("lb_spcv", report.lb_spcv),
                ("edgecut", report.edgecut as f64),
                ("time_us", report.time_us),
            ],
        );
        Ok(CellResult {
            cell,
            partition,
            report,
        })
    }

    /// Build every distinct resolution of `cells` into the cache, on the
    /// calling thread. Both run paths do this first, so the expensive
    /// mesh builds are neither raced by the whole pool at startup nor a
    /// source of registry differences between serial and pooled runs.
    fn prewarm(&self, cells: &[ExperimentCell]) {
        let mut nes: Vec<usize> = cells.iter().map(|c| c.ne).collect();
        nes.sort_unstable();
        nes.dedup();
        for ne in nes {
            self.cache.bundle(ne);
        }
    }

    /// Run the grid serially on the calling thread — the reference
    /// implementation parallel runs must match bit-for-bit.
    pub fn run_serial(&self, cells: &[ExperimentCell]) -> Result<Vec<CellResult>, PartitionError> {
        self.prewarm(cells);
        cells.iter().map(|&c| self.run_cell(c)).collect()
    }

    /// Run the grid on the rayon pool. Results come back in input cell
    /// order and are bit-identical to [`ExperimentEngine::run_serial`] —
    /// down to the merged observability registry, whose counters and
    /// span-call counts reproduce the serial run's exactly.
    pub fn run(&self, cells: &[ExperimentCell]) -> Result<Vec<CellResult>, PartitionError> {
        self.prewarm(cells);
        cells
            .par_iter()
            .map(|&c| self.run_cell(c))
            .collect()
            .into_iter()
            .collect()
    }
}

impl Default for ExperimentEngine {
    fn default() -> Self {
        ExperimentEngine::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_memoizes_bundles() {
        let cache = MeshCache::new();
        assert!(cache.is_empty());
        let a = cache.bundle(4);
        let b = cache.bundle(4);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 1);
        assert_eq!(a.graph.nv(), 96);
        cache.bundle(2);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.evictions(), 0);
    }

    #[test]
    fn cache_evicts_least_recently_used_resolution() {
        let cache = MeshCache::with_capacity(2);
        cache.bundle(2);
        cache.bundle(3);
        cache.bundle(2); // touch 2 so 3 is now the LRU entry
        cache.bundle(4); // evicts 3
        assert_eq!(cache.len(), 2);
        assert!(cache.contains(2));
        assert!(!cache.contains(3));
        assert!(cache.contains(4));
        assert_eq!(cache.evictions(), 1);
        // Re-requesting the evicted resolution rebuilds it (a miss).
        let misses_before = cache.misses();
        cache.bundle(3);
        assert_eq!(cache.misses(), misses_before + 1);
        assert_eq!(cache.evictions(), 2);
    }

    #[test]
    fn cells_cover_methods_times_procs() {
        let res = Resolution::for_ne(8, 768).unwrap();
        let cells = cells_for(&res, 6);
        assert_eq!(cells.len(), 6 * GRID_METHODS.len());
        // Thinning keeps 1 and the largest counts.
        assert_eq!(cells[0].nproc, 1);
        assert_eq!(cells.last().unwrap().nproc, 384);
        let full = cells_for(&res, usize::MAX);
        assert_eq!(full.len(), res.equal_share_procs().len() * 4);
    }

    #[test]
    fn paper_grid_spans_all_resolutions() {
        let cells = paper_grid(3);
        let nes: std::collections::BTreeSet<usize> = cells.iter().map(|c| c.ne).collect();
        assert_eq!(nes.into_iter().collect::<Vec<_>>(), vec![8, 9, 16, 18]);
        assert_eq!(cells.len(), 4 * 3 * GRID_METHODS.len());
    }

    #[test]
    fn engine_matches_direct_reports() {
        let engine = ExperimentEngine::new();
        let cell = ExperimentCell {
            ne: 4,
            nproc: 8,
            method: PartitionMethod::MetisKway,
        };
        let r = engine.run_cell(cell).unwrap();
        let mesh = CubedSphere::new(4);
        let direct = PartitionReport::compute(
            &mesh,
            cell.method,
            cell.nproc,
            &MachineModel::ncar_p690(),
            &CostModel::seam_climate(),
        )
        .unwrap();
        assert_eq!(r.report.edgecut, direct.edgecut);
        assert_eq!(r.report.time_us, direct.time_us);
        assert_eq!(r.report.lb_nelemd, direct.lb_nelemd);
    }

    #[test]
    fn parallel_run_is_bit_identical_to_serial() {
        let engine = ExperimentEngine::new();
        let res = Resolution::for_ne(4, 768).unwrap();
        let cells = cells_for(&res, 5);
        let serial = engine.run_serial(&cells).unwrap();
        let parallel = engine.run(&cells).unwrap();
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert!(s.identical(p), "cell {:?} diverged", s.cell);
        }
    }

    #[test]
    fn errors_propagate_from_cells() {
        let engine = ExperimentEngine::new();
        let bad = ExperimentCell {
            ne: 2,
            nproc: 1000,
            method: PartitionMethod::Sfc,
        };
        assert!(matches!(
            engine.run(&[bad]),
            Err(PartitionError::TooManyParts { .. })
        ));
    }

    #[test]
    fn resolve_jobs_precedence() {
        // Flag wins over everything; without a flag the env var decides.
        // (Env mutation is process-global: keep it inside one test.)
        assert_eq!(resolve_jobs(Some(3)), 3);
        std::env::set_var("CUBESFC_JOBS", "5");
        assert_eq!(resolve_jobs(Some(2)), 2);
        assert_eq!(resolve_jobs(None), 5);
        std::env::set_var("CUBESFC_JOBS", "not-a-number");
        assert_eq!(resolve_jobs(None), 0);
        std::env::remove_var("CUBESFC_JOBS");
        assert_eq!(resolve_jobs(None), 0);
    }
}
