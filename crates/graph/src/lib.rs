//! Graph partitioning for the cubed-sphere reproduction: a from-scratch
//! multilevel partitioner standing in for METIS.
//!
//! The paper compares its space-filling-curve partitions against three
//! METIS algorithms (§2):
//!
//! * **RB** — recursive bisection ([`recursive_bisection`]): "best for
//!   load balancing, but results in larger edgecuts";
//! * **KWAY** — direct K-way ([`kway()`]): "minimizes edgecuts but may
//!   result in sub-optimal load balance";
//! * **TV** — a K-way variant minimizing total communication volume
//!   ([`kway_volume`]).
//!
//! All three are implemented here in the Karypis–Kumar multilevel style:
//! heavy-edge-matching coarsening, greedy-graph-growing initial
//! bisections, and Fiduccia–Mattheyses / greedy k-way refinement during
//! uncoarsening (one greedy k-way kernel serves both k-way objectives).
//! Balance follows METIS's convention of a multiplicative tolerance
//! (default 3 %) floored at one extra vertex — which is what produces the
//! O(1)-elements-per-processor imbalance the paper's SFC partitions
//! eliminate.
//!
//! # Quick start
//!
//! ```
//! use cubesfc_graph::{CsrGraph, PartitionConfig, kway, metrics};
//!
//! // A ring of 8 unit-weight vertices.
//! let lists: Vec<Vec<(u32, u32)>> = (0..8)
//!     .map(|v| vec![(((v + 7) % 8) as u32, 1), (((v + 1) % 8) as u32, 1)])
//!     .collect();
//! let g = CsrGraph::from_lists(&lists).unwrap();
//!
//! let p = kway(&g, &PartitionConfig::new(2));
//! assert_eq!(metrics::edgecut(&g, &p), 2); // a ring cuts in exactly 2 places
//! ```

#![warn(missing_docs)]

pub mod bisect;
pub mod coarsen;
pub mod csr;
pub mod fm;
mod gainq;
pub mod initial;
pub mod kway;
pub mod marker;
pub mod metrics;
pub mod migration;
pub mod partition;
mod refine;
pub mod rng;
mod scratch;
pub mod share;
pub mod split;
#[cfg(test)]
mod testgraphs;
pub mod tv;

pub use bisect::{multilevel_bisect, recursive_bisection, recursive_bisection_serial};
pub use csr::{CsrGraph, GraphError};
pub use kway::kway;
pub use marker::Marker;
pub use metrics::{load_balance, load_balance_f64, part_loads, partition_stats, PartitionStats};
pub use migration::{
    match_labels, matched_migration, migration_fraction, raw_migration, MigrationError,
    EXACT_MATCH_LIMIT,
};
pub use partition::{Partition, PartitionConfig};
pub use rng::SplitMix64;
pub use share::PARALLEL_MIN_VERTICES;
pub use split::{split_order_weighted, split_order_weighted_capacity, SplitError};
pub use tv::kway_volume;
