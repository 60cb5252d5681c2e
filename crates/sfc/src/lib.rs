//! Space-filling curves for cubed-sphere partitioning.
//!
//! This crate implements the curve machinery of Dennis, *Partitioning with
//! Space-Filling Curves on the Cubed-Sphere* (IPPS 2003):
//!
//! * the **Hilbert** curve (4-fold refinement, side `2^n`),
//! * the **meandering Peano** curve (9-fold refinement, side `3^m`),
//! * the paper's new **nested Hilbert-Peano** curve (side `2^n · 3^m`),
//!
//! all generated with the *major/joiner vector* recursion of the paper's
//! Fig. 2–4 (after Pilkington & Baden), plus a Morton-order baseline.
//!
//! The key structural fact (paper §3): both primitive refinements travel
//! through their domain along a single axis — the major vector — entering
//! at a corner and exiting at the adjacent corner along that axis. Because
//! they share this invariant, the radix may change per recursion level,
//! which is what permits the `2^n · 3^m` nesting.
//!
//! # Quick start
//!
//! ```
//! use cubesfc_sfc::{Schedule, SfcCurve};
//!
//! // An 18×18 face (Ne = 18 = 2·3², the paper's K = 1944 resolution):
//! let schedule = Schedule::for_side(18).unwrap();
//! let curve = SfcCurve::generate(&schedule);
//! assert_eq!(curve.len(), 324);
//! assert!(curve.is_unit_step()); // consecutive cells share an edge
//! ```

#![warn(missing_docs)]

pub mod curve;
pub mod error;
pub mod morton;
pub mod path_derive;
pub mod refine;
pub mod schedule;
pub mod transform;
pub mod vector;

pub use curve::{cinco, hilbert, hilbert_peano, mpeano, CurveFamily, SfcCurve};
pub use error::SfcError;
pub use morton::morton;
pub use refine::Radix;
pub use schedule::{factor_235, factor_2_3, is_supported_side, Schedule};
pub use transform::{Corner, DihedralTransform};
pub use vector::{Axis, CurveState, Dir, UnitVec};
