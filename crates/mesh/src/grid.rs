//! The [`CubedSphere`] façade: one struct owning the mesh pieces a
//! partitioner or solver needs.

use crate::dualgraph::{build_dual_graph, ExchangeWeights};
use crate::face::FaceId;
use crate::geometry::{all_areas, all_centers, SpherePoint};
use crate::global_curve::GlobalCurve;
use crate::topology::{make_eid, split_eid, ElemId, Topology};
use cubesfc_graph::CsrGraph;
use cubesfc_sfc::{Schedule, SfcError};

/// A cubed-sphere mesh of `K = 6·Ne²` spectral elements, with its
/// adjacency topology, gnomonic geometry, and (when `Ne = 2^n·3^m`) the
/// global space-filling curve.
#[derive(Clone, Debug)]
pub struct CubedSphere {
    ne: usize,
    topology: Topology,
    curve: Option<GlobalCurve>,
}

impl CubedSphere {
    /// Build the mesh for face size `ne`. The global SFC is attached when
    /// `ne` admits one (`ne = 1` or `ne = 2^n·3^m`); other sizes still get
    /// full topology/geometry (they can be partitioned by the graph
    /// algorithms, just not by the SFC — the paper's generality caveat).
    pub fn new(ne: usize) -> CubedSphere {
        let topology = Topology::build(ne);
        let curve = GlobalCurve::build(ne).ok();
        CubedSphere {
            ne,
            topology,
            curve,
        }
    }

    /// Build with an explicit refinement schedule for the face curves
    /// (for refinement-order ablations).
    pub fn with_schedule(schedule: &Schedule) -> CubedSphere {
        let ne = schedule.side();
        CubedSphere {
            ne,
            topology: Topology::build(ne),
            curve: Some(GlobalCurve::build_with_schedule(schedule)),
        }
    }

    /// Face size `Ne`.
    pub fn ne(&self) -> usize {
        self.ne
    }

    /// Total element count `K = 6·Ne²`.
    pub fn num_elems(&self) -> usize {
        self.topology.num_elems()
    }

    /// The adjacency topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The global space-filling curve, if `Ne` admits one.
    pub fn curve(&self) -> Option<&GlobalCurve> {
        self.curve.as_ref()
    }

    /// The global space-filling curve, or an error naming the restriction.
    pub fn curve_required(&self) -> Result<&GlobalCurve, SfcError> {
        self.curve
            .as_ref()
            .ok_or(SfcError::UnsupportedSize { side: self.ne })
    }

    /// Build the weighted dual graph for partitioning (validated CSR).
    pub fn dual_graph(&self, w: ExchangeWeights) -> CsrGraph {
        build_dual_graph(&self.topology, w)
    }

    /// Sphere centre of element `e`.
    pub fn center(&self, e: ElemId) -> SpherePoint {
        let (face, i, j) = split_eid(self.ne, e);
        crate::geometry::elem_center(face, self.ne, i, j)
    }

    /// All element centres, indexed by element id.
    pub fn centers(&self) -> Vec<SpherePoint> {
        all_centers(self.ne)
    }

    /// All element spherical areas, indexed by element id.
    pub fn areas(&self) -> Vec<f64> {
        all_areas(self.ne)
    }

    /// Element id from `(face, i, j)`.
    pub fn eid(&self, face: FaceId, i: usize, j: usize) -> ElemId {
        make_eid(self.ne, face, i, j)
    }

    /// `(face, i, j)` of an element id.
    pub fn locate(&self, e: ElemId) -> (FaceId, usize, usize) {
        split_eid(self.ne, e)
    }

    /// Iterate over all element ids.
    pub fn elems(&self) -> impl Iterator<Item = ElemId> {
        self.topology.elems()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_meshes_have_curves() {
        for (ne, k) in [(8usize, 384), (9, 486), (16, 1536), (18, 1944)] {
            let m = CubedSphere::new(ne);
            assert_eq!(m.num_elems(), k);
            assert!(m.curve().is_some(), "Ne={ne}");
            assert!(m.curve_required().is_ok());
        }
    }

    #[test]
    fn unsupported_sizes_still_build_topology() {
        let m = CubedSphere::new(7);
        assert_eq!(m.num_elems(), 294);
        assert!(m.curve().is_none());
        assert!(m.curve_required().is_err());
    }

    #[test]
    fn dual_graph_size() {
        let m = CubedSphere::new(4);
        let g = m.dual_graph(Default::default());
        assert_eq!(g.nv(), m.num_elems());
    }

    #[test]
    fn centers_match_locate_roundtrip() {
        let m = CubedSphere::new(3);
        let centers = m.centers();
        for e in m.elems() {
            let c = m.center(e);
            assert_eq!(c, centers[e.index()]);
            let (f, i, j) = m.locate(e);
            assert_eq!(m.eid(f, i, j), e);
        }
    }

    #[test]
    fn areas_are_positive() {
        let m = CubedSphere::new(6);
        assert!(m.areas().iter().all(|&a| a > 0.0));
    }
}
