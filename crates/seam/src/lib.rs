//! Mini-SEAM: the spectral element model substrate of the reproduction.
//!
//! The paper measures partitions by the sustained execution rate of SEAM,
//! NCAR's spectral element atmospheric model, on a 768-processor IBM P690
//! cluster. Neither is available, so this crate provides both halves of a
//! faithful substitute:
//!
//! * **An executable mini-app** ([`solver`], [`shallow_water`],
//!   [`vranks`]): spectral-element advection and the shallow water
//!   equations on the cubed-sphere — GLL tensor-product kernels per
//!   element, pointwise DSS across shared element boundaries, SSP-RK3
//!   stepping — run either serially or over thread-backed *virtual
//!   ranks* that communicate exclusively by channels, so measured
//!   wall-clock responds to partition quality the same way an MPI code's
//!   does. Both physics share the one rank runtime in [`vranks`]: one
//!   rank loop and one halo exchange, over the exchange plan of
//!   [`decomp`].
//! * **An analytic performance model** ([`machine`], [`cost`],
//!   [`perfmodel`]): the paper's P690/Colony machine constants (841
//!   Mflops sustained = 16 % of Power-4 peak, 8-way SMP nodes,
//!   latency/bandwidth per route) applied to exact partition statistics,
//!   regenerating the scaling figures at processor counts we cannot run.
//!
//! ```
//! use cubesfc_mesh::Topology;
//! use cubesfc_seam::solver::{AdvectionConfig, SerialSolver, gaussian_blob};
//!
//! let topo = Topology::build(2);
//! let mut s = SerialSolver::new(&topo, AdvectionConfig::stable_for(2, 4, 1));
//! s.set_initial(gaussian_blob([1.0, 0.0, 0.0], 0.5));
//! s.step();
//! assert!(s.q.max_abs() > 0.0);
//! ```

#![warn(missing_docs)]

pub mod cost;
pub mod decomp;
pub mod dss;
pub mod field;
pub mod gll;
pub mod machine;
pub mod metric;
pub mod perfmodel;
pub mod rankmap;
pub mod shallow_water;
pub mod solver;
pub mod vranks;

pub use cost::CostModel;
pub use decomp::Decomposition;
pub use dss::{Assembler, GlobalDofs};
pub use field::Field;
pub use gll::GllBasis;
pub use machine::MachineModel;
pub use perfmodel::{evaluate, evaluate_weighted, PerfReport};
pub use rankmap::{greedy_node_packing, internode_traffic_fraction, RankMap};
pub use shallow_water::{tc2_initial, SwConfig, SwSolver};
pub use solver::{gaussian_blob, AdvectionConfig, SerialSolver};
pub use vranks::{run_parallel, run_sw_parallel, RunStats};
