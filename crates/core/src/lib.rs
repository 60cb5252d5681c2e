//! # cubesfc — Partitioning with Space-Filling Curves on the Cubed-Sphere
//!
//! A Rust reproduction of J. M. Dennis, *Partitioning with Space-Filling
//! Curves on the Cubed-Sphere* (IPPS 2003): partition the `K = 6·Ne²`
//! spectral elements of a cubed-sphere atmospheric model across `Nproc`
//! processors by threading a single continuous Hilbert / m-Peano /
//! Hilbert-Peano curve over all six cube faces and slicing it into equal
//! segments — and compare against METIS-style multilevel partitioners
//! (KWAY / TV / RB) on load balance, communication volume, edgecut, and
//! modelled/measured execution rate.
//!
//! ## Quick start
//!
//! ```
//! use cubesfc::{partition_default, CubedSphere, PartitionMethod};
//! use cubesfc::report::PartitionReport;
//! use cubesfc::{CostModel, MachineModel};
//!
//! // The paper's K = 384 resolution (Ne = 8, a level-3 Hilbert curve).
//! let mesh = CubedSphere::new(8);
//!
//! // SFC partition for 96 processors: exactly 4 elements each.
//! let part = partition_default(&mesh, PartitionMethod::Sfc, 96).unwrap();
//! assert!(part.part_sizes().iter().all(|&s| s == 4));
//!
//! // Table-2 style quality report on the modelled NCAR P690.
//! let report = PartitionReport::from_partition(
//!     &mesh,
//!     PartitionMethod::Sfc,
//!     &part,
//!     &MachineModel::ncar_p690(),
//!     &CostModel::seam_climate(),
//! );
//! assert_eq!(report.lb_nelemd, 0.0); // the SFC's whole point
//! ```
//!
//! ## Crate map
//!
//! * [`cubesfc_sfc`] — the curves (major/joiner-vector recursion);
//! * [`cubesfc_mesh`] — cubed-sphere topology, geometry, six-face curve;
//! * [`cubesfc_graph`] — the METIS-substitute multilevel partitioner;
//! * [`cubesfc_seam`] — mini spectral-element app + machine model;
//! * [`cubesfc_obs`] — spans, counters and traces: it records;
//! * this crate — the partitioning API, reports, the paper's
//!   experiment configurations, and [`analysis`], which explains a
//!   recorded trace with Eq. (1) and the machine model.

#![warn(missing_docs)]

pub mod analysis;
pub mod dynamics;
pub mod engine;
pub mod error;
pub mod experiment;
pub mod partitioner;
pub mod rcb;
pub mod report;
pub mod service;
pub mod sfc_partition;
pub mod viz;

pub use dynamics::MethodRepartitioner;
pub use engine::{
    cells_for, paper_grid, resolve_jobs, set_jobs, CellResult, ExperimentCell, ExperimentEngine,
    MeshBundle, MeshCache,
};
pub use error::PartitionError;
pub use experiment::{table1, Resolution, NCAR_P690_MAX_PROCS};
pub use partitioner::{
    partition, partition_default, partition_sfc_with_schedule, partition_with_graph, to_csr,
    PartitionMethod, PartitionOptions,
};
pub use rcb::partition_rcb;
pub use report::{best_metis, PartitionReport};
pub use service::{method_from_name, EngineBackend};
pub use sfc_partition::{partition_curve, partition_curve_weighted};

// Re-export the sub-crates so downstream users need only one dependency.
pub use cubesfc_balance as balance;
pub use cubesfc_graph::{
    self as graph, match_labels, matched_migration, migration_fraction, raw_migration,
    MigrationError, Partition, PartitionConfig, EXACT_MATCH_LIMIT,
};
pub use cubesfc_mesh::{self as mesh, CubedSphere, ElemId, GlobalCurve, Topology};
pub use cubesfc_obs as obs;
pub use cubesfc_seam::{self as seam, CostModel, MachineModel, PerfReport};
pub use cubesfc_serve as serve;
pub use cubesfc_sfc::{self as sfc, CurveFamily, Schedule, SfcCurve};
