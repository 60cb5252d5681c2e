//! Cubed-sphere mesh: topology, gnomonic geometry, and the global
//! space-filling curve.
//!
//! This crate builds the computational domain of the NCAR spectral element
//! atmospheric model as described in Dennis (IPPS 2003): the six faces of
//! a cube are subdivided into `Ne × Ne` quadrilateral spectral elements
//! (`K = 6·Ne²` total) and gnomonically projected onto the sphere.
//!
//! Everything topological is computed from **exact integer geometry** on
//! the cube `[-Ne, Ne]³`, so adjacency across cube edges and at cube
//! vertices (where only three elements meet) involves no floating-point
//! tolerances.
//!
//! # Quick start
//!
//! ```
//! use cubesfc_mesh::CubedSphere;
//!
//! let mesh = CubedSphere::new(8); // the paper's K = 384 resolution
//! assert_eq!(mesh.num_elems(), 384);
//!
//! // One continuous curve over all six faces (paper Fig. 6):
//! let curve = mesh.curve().unwrap();
//! assert!(curve.is_continuous(mesh.topology()));
//! ```

#![warn(missing_docs)]

pub mod dualgraph;
pub mod face;
pub mod geometry;
pub mod global_curve;
pub mod grid;
pub mod mapping;
pub mod topology;

pub use dualgraph::{build_dual_graph, build_dual_graph_weighted, ExchangeWeights};
pub use face::{FaceFrame, FaceId, IVec3};
pub use geometry::SpherePoint;
pub use global_curve::{GlobalCurve, FACE_ORDER};
pub use grid::CubedSphere;
pub use mapping::Mapping;
pub use topology::{
    make_eid, split_eid, CornerNeighbors, EdgeNeighbor, ElemId, LocalEdge, Topology,
};
