//! Threading one continuous space-filling curve across all six faces
//! (paper §3, Fig. 6).
//!
//! "The SFC traversing each single cube face is generated first. The
//! beginning and end of the space-filling curve on each face must be
//! aligned with the curves on adjoining faces in order to construct a
//! single continuous space-filling curve that traverses the entire
//! cubed-sphere."
//!
//! The construction here: visit the faces along a fixed Hamiltonian path
//! of the cube's face-adjacency graph, and give each face's canonical
//! curve the unique dihedral transform that places its entry corner at the
//! cube vertex where the previous face's curve exited, and its exit corner
//! on the cube edge shared with the next face. Both corners of a face
//! curve always lie on a single face edge (the major-vector invariant), so
//! such a transform always exists and is unique.

use crate::face::{FaceFrame, FaceId, IVec3};
use crate::topology::{make_eid, ElemId, Topology};
use cubesfc_sfc::{Corner, DihedralTransform, Schedule, SfcCurve, SfcError};

/// The face visiting order: a Hamiltonian path on the cube's
/// face-adjacency graph (south cap, then around the equator, then the
/// north cap). Consecutive faces share a cube edge.
pub const FACE_ORDER: [FaceId; 6] = [
    FaceId(5),
    FaceId(0),
    FaceId(1),
    FaceId(2),
    FaceId(3),
    FaceId(4),
];

/// A single continuous space-filling curve over all `K = 6·Ne²` elements
/// of the cubed-sphere.
#[derive(Clone, Debug)]
pub struct GlobalCurve {
    ne: usize,
    /// `order[rank]` = element visited at `rank`.
    order: Vec<ElemId>,
    /// `rank[eid.index()]` = position of the element along the curve.
    rank: Vec<u32>,
    /// The dihedral transform applied to the canonical face curve on each
    /// face, indexed by face id.
    transforms: [DihedralTransform; 6],
}

impl GlobalCurve {
    /// Build the global curve for face size `ne`, inferring the refinement
    /// schedule (`ne = 2^n·3^m`; `ne = 1` is the trivial one-element-per-
    /// face mesh and needs no face-local curve).
    pub fn build(ne: usize) -> Result<GlobalCurve, SfcError> {
        if ne == 1 {
            return Ok(GlobalCurve::trivial());
        }
        let schedule = Schedule::for_side(ne)?;
        Ok(GlobalCurve::build_with_schedule(&schedule))
    }

    /// Build with an explicit refinement schedule (the schedule's side
    /// length is the face size). Exposed so the ablation experiments can
    /// compare refinement orders (e.g. Hilbert-first vs Peano-first).
    pub fn build_with_schedule(schedule: &Schedule) -> GlobalCurve {
        let _span = cubesfc_obs::span("global_curve");
        let ne = schedule.side();
        let canonical = SfcCurve::generate(schedule);
        let transforms = plan_face_alignment(ne);

        let k = 6 * ne * ne;
        let mut order = Vec::with_capacity(k);
        let mut rank = vec![u32::MAX; k];
        for &face in &FACE_ORDER {
            let t = transforms[face.index()];
            let fc = t.apply_curve(&canonical);
            for (i, j) in fc.iter() {
                let eid = make_eid(ne, face, i, j);
                rank[eid.index()] = order.len() as u32;
                order.push(eid);
            }
        }
        GlobalCurve {
            ne,
            order,
            rank,
            transforms,
        }
    }

    /// Wrap an explicit element visit order as a curve-like object.
    ///
    /// Used for orders that are *not* continuous curves (e.g. the Morton
    /// ablation baseline) but should still be sliceable into contiguous
    /// segments. The order must be a permutation of all element ids.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of `0..6·ne²`.
    pub fn from_order_unchecked(ne: usize, order: Vec<ElemId>) -> GlobalCurve {
        let k = 6 * ne * ne;
        assert_eq!(order.len(), k, "order must list every element once");
        let mut rank = vec![u32::MAX; k];
        for (r, e) in order.iter().enumerate() {
            assert_eq!(rank[e.index()], u32::MAX, "duplicate element in order");
            rank[e.index()] = r as u32;
        }
        GlobalCurve {
            ne,
            order,
            rank,
            transforms: [DihedralTransform::IDENTITY; 6],
        }
    }

    fn trivial() -> GlobalCurve {
        let order: Vec<ElemId> = FACE_ORDER.iter().map(|f| make_eid(1, *f, 0, 0)).collect();
        let mut rank = vec![u32::MAX; 6];
        for (r, e) in order.iter().enumerate() {
            rank[e.index()] = r as u32;
        }
        GlobalCurve {
            ne: 1,
            order,
            rank,
            transforms: [DihedralTransform::IDENTITY; 6],
        }
    }

    /// Face size.
    pub fn ne(&self) -> usize {
        self.ne
    }

    /// Number of elements on the curve (`K = 6·Ne²`).
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the curve is empty (never, for built curves).
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The element visited at position `r`.
    #[inline]
    pub fn elem_at(&self, r: usize) -> ElemId {
        self.order[r]
    }

    /// The position of element `e` along the curve.
    #[inline]
    pub fn rank_of(&self, e: ElemId) -> usize {
        self.rank[e.index()] as usize
    }

    /// The visit order as a slice.
    pub fn order(&self) -> &[ElemId] {
        &self.order
    }

    /// Iterate over elements in curve order.
    pub fn iter(&self) -> impl Iterator<Item = ElemId> + '_ {
        self.order.iter().copied()
    }

    /// The per-face dihedral transforms (indexed by face id).
    pub fn transforms(&self) -> &[DihedralTransform; 6] {
        &self.transforms
    }

    /// Verify that consecutive elements along the curve are edge-adjacent
    /// on the sphere — the global continuity property of Fig. 6.
    pub fn is_continuous(&self, topo: &Topology) -> bool {
        self.order
            .windows(2)
            .all(|w| topo.are_edge_adjacent(w[0], w[1]))
    }
}

/// Local corner of `face` sitting at cube vertex `v`.
fn corner_at_vertex(face: FaceId, ne: i64, v: IVec3) -> Option<Corner> {
    let f = FaceFrame::of(face, ne);
    for c in Corner::ALL {
        let a = if c.hi_i { ne } else { -ne };
        let b = if c.hi_j { ne } else { -ne };
        if f.point(a, b) == v {
            return Some(c);
        }
    }
    None
}

/// Cube vertex at local corner `c` of `face`.
fn vertex_of_corner(face: FaceId, ne: i64, c: Corner) -> IVec3 {
    let f = FaceFrame::of(face, ne);
    let a = if c.hi_i { ne } else { -ne };
    let b = if c.hi_j { ne } else { -ne };
    f.point(a, b)
}

/// The two local corners of `face` lying on the cube edge shared with
/// `other`, in a deterministic order.
fn shared_edge_corners(face: FaceId, other: FaceId, ne: i64) -> [Corner; 2] {
    let shared = crate::face::shared_cube_vertices(face, other, ne);
    assert_eq!(shared.len(), 2, "{face} and {other} are not adjacent");
    let mut out: Vec<Corner> = shared
        .iter()
        .map(|v| corner_at_vertex(face, ne, *v).expect("shared vertex must be a face corner"))
        .collect();
    out.sort_by_key(|c| (c.hi_j, c.hi_i));
    [out[0], out[1]]
}

/// Plan entry/exit corners along [`FACE_ORDER`] and return the dihedral
/// transform of each face, indexed by face id.
fn plan_face_alignment(ne: usize) -> [DihedralTransform; 6] {
    let ne_i = ne as i64;
    let mut prev_exit: Option<Corner> = None;
    let mut transforms = [DihedralTransform::IDENTITY; 6];

    for (k, &face) in FACE_ORDER.iter().enumerate() {
        let entry = match prev_exit {
            None => {
                // Free choice: pick the corner adjacent to the exit that is
                // NOT on the edge shared with the next face.
                let nxt = FACE_ORDER[1];
                let [e0, e1] = shared_edge_corners(face, nxt, ne_i);
                // exit will be e0; entry is the corner adjacent to e0 other
                // than e1.
                Corner::ALL
                    .into_iter()
                    .find(|c| c.is_adjacent(e0) && *c != e1)
                    .expect("a square corner always has two neighbours")
            }
            Some(prev_exit) => {
                // Enter at the cube vertex where the previous face exited.
                let v = vertex_of_corner(FACE_ORDER[k - 1], ne_i, prev_exit);
                corner_at_vertex(face, ne_i, v)
                    .expect("previous exit vertex must be a corner of this face")
            }
        };

        let exit = if k + 1 < 6 {
            let nxt = FACE_ORDER[k + 1];
            let [e0, e1] = shared_edge_corners(face, nxt, ne_i);
            if entry == e0 {
                e1
            } else if entry == e1 {
                e0
            } else {
                // Exactly one of e0/e1 is adjacent to the entry corner.
                if entry.is_adjacent(e0) {
                    e0
                } else {
                    debug_assert!(entry.is_adjacent(e1));
                    e1
                }
            }
        } else {
            // Last face: any adjacent corner will do; pick deterministically.
            Corner::ALL
                .into_iter()
                .find(|c| c.is_adjacent(entry))
                .expect("a square corner always has two neighbours")
        };

        let t = DihedralTransform::mapping_entry_exit(entry, exit)
            .expect("entry and exit are adjacent corners by construction");
        transforms[face.index()] = t;
        prev_exit = Some(exit);
    }
    transforms
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::face::faces_adjacent;
    use cubesfc_sfc::Schedule;

    #[test]
    fn face_order_is_a_hamiltonian_path() {
        for w in FACE_ORDER.windows(2) {
            assert!(faces_adjacent(w[0], w[1]), "{} -> {}", w[0], w[1]);
        }
        let mut seen = FACE_ORDER.to_vec();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), 6);
    }

    #[test]
    fn global_curve_visits_every_element_once() {
        for ne in [1usize, 2, 3, 4, 6, 8, 9] {
            let c = GlobalCurve::build(ne).unwrap();
            assert_eq!(c.len(), 6 * ne * ne, "ne={ne}");
            let mut seen = vec![false; c.len()];
            for e in c.iter() {
                assert!(!seen[e.index()], "ne={ne}: {e} visited twice");
                seen[e.index()] = true;
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn global_curve_is_continuous_on_the_sphere() {
        // Every size of the topology oracle's sweep that admits a curve:
        // all `2^a·3^b·5^c ≤ 64`, and 81.
        let mut curves = 0;
        for ne in crate::topology::tests::swept_sizes() {
            let Ok(c) = GlobalCurve::build(ne) else {
                continue;
            };
            let topo = Topology::build(ne);
            assert!(c.is_continuous(&topo), "ne={ne}: curve breaks at a seam");
            curves += 1;
        }
        assert_eq!(curves, 28);
    }

    #[test]
    fn rank_inverts_order() {
        let c = GlobalCurve::build(6).unwrap();
        for r in 0..c.len() {
            assert_eq!(c.rank_of(c.elem_at(r)), r);
        }
    }

    #[test]
    fn paper_resolutions_build() {
        // Table 1: Ne = 8, 9, 16, 18.
        for ne in [8usize, 9, 16, 18] {
            let c = GlobalCurve::build(ne).unwrap();
            assert_eq!(c.len(), 6 * ne * ne);
        }
    }

    #[test]
    fn unsupported_ne_is_rejected() {
        assert!(GlobalCurve::build(7).is_err());
        assert!(GlobalCurve::build(11).is_err());
        assert!(GlobalCurve::build(14).is_err());
    }

    #[test]
    fn cinco_sizes_build_and_stay_continuous() {
        // Ne = 5, 10, 15: the radix-5 extension threads the sphere too.
        for ne in [5usize, 10, 15] {
            let topo = Topology::build(ne);
            let c = GlobalCurve::build(ne).unwrap();
            assert_eq!(c.len(), 6 * ne * ne);
            assert!(c.is_continuous(&topo), "ne={ne}");
        }
    }

    #[test]
    fn explicit_schedules_change_order_but_stay_continuous() {
        let ne = 6;
        let topo = Topology::build(ne);
        let a = GlobalCurve::build_with_schedule(&Schedule::hilbert_peano(1, 1).unwrap());
        let b = GlobalCurve::build_with_schedule(&Schedule::peano_hilbert(1, 1).unwrap());
        assert!(a.is_continuous(&topo));
        assert!(b.is_continuous(&topo));
        assert_ne!(a.order(), b.order());
    }

    #[test]
    fn curve_starts_on_first_face_in_order() {
        let ne = 4;
        let c = GlobalCurve::build(ne).unwrap();
        let first = c.elem_at(0);
        let (face, _, _) = crate::topology::split_eid(ne, first);
        assert_eq!(face, FACE_ORDER[0]);
        let last = c.elem_at(c.len() - 1);
        let (face, _, _) = crate::topology::split_eid(ne, last);
        assert_eq!(face, FACE_ORDER[5]);
    }
}
