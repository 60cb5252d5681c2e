//! Dynamic load balancing on the cubed-sphere.
//!
//! The paper partitions a static load once; real atmospheric runs do
//! not stay static — refinement regions track storms, physics cost
//! follows the sun, processors degrade and die. This crate closes the
//! loop from *load change* to *migrated partition*:
//!
//! 1. **Load evolution** ([`trajectory`], [`faults`]): deterministic
//!    per-element weight trajectories — a moving AMR refinement hotspot,
//!    a diurnal physics wave driven by element geometry, a rank slowdown
//!    — and rank death, a trajectory of per-rank capacities.
//! 2. **Repartitioning** ([`rebalance`]): the [`Repartitioner`] trait
//!    with the crate's own [`IncrementalSfc`] backend, which re-splits
//!    the *existing* global space-filling curve with a weighted prefix
//!    sum — cuts stay nested along the curve, so migration volume tracks
//!    the load change rather than the mesh size. Recompute-from-scratch
//!    backends (METIS and friends) implement the same trait one layer up
//!    in `cubesfc` core.
//! 3. **Policies** ([`policy`]): when to act — imbalance threshold with
//!    hysteresis, fixed period, or a cost-benefit rule that triggers
//!    only when the α/β performance model says the step-time saving
//!    amortizes the modelled migration cost. A rank death always acts.
//! 4. **Migration planning** ([`planner`]): per-rank send/receive
//!    manifests with overlap-maximizing relabeling and a conservation
//!    check.
//!
//! [`sim::run_rebalance`] drives all four per timestep, tracing each
//! phase on its own timeline lane and emitting a JSON/table report.

#![warn(missing_docs)]

pub mod error;
pub mod faults;
pub mod planner;
pub mod policy;
pub mod rebalance;
pub mod sim;
pub mod trajectory;

pub use error::BalanceError;
pub use planner::{MigrationPlan, Transfer};
pub use policy::{migration_seconds, Decision, PolicyEngine, PolicyInput, RebalancePolicy};
pub use rebalance::{IncrementalSfc, Repartitioner};
pub use sim::{run_rebalance, SimConfig, SimReport, StepRecord, REBALANCE_SCHEMA};
pub use trajectory::{LoadModel, TrajectoryKind};
