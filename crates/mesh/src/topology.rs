//! Element adjacency on the cubed-sphere.
//!
//! "Communication between processors is determined by neighboring elements
//! that share a boundary or corner point" (paper §1). This module computes
//! both neighbour kinds exactly, including the awkward cases across cube
//! edges and at the eight cube vertices (where only three elements meet).
//!
//! Two elements are *edge neighbours* iff they share two corner points and
//! *corner neighbours* iff they share exactly one. On a structured
//! `Ne × Ne × 6` mesh both follow from the element's `(face, i, j)` in
//! constant time: inside a face a neighbour is `±1` in `i` or `j`, and an
//! element on a face border looks up the cube edge it touches in a
//! 24-entry *seam table* — for every `(face, LocalEdge)`, the face and
//! local edge on the other side and whether the two run in opposite
//! directions. Position `t` along a seam lands on `t`, or on `Ne−1−t`
//! when the seam reverses.
//!
//! Nothing per element is stored: a [`Topology`] is `Ne` plus the seam
//! table (under 100 bytes for any mesh size) and every query is computed
//! when asked, the way Burstedde & Holke's forest-of-trees keeps
//! neighbours as coordinates plus an inter-tree table. The readers are
//! all set-up code (the dual-graph build, the DSS numbering, the curve's
//! continuity check), each visiting an element once.
//!
//! The seam table is derived from the exact integer frames of
//! [`crate::face`] by comparing cube vertices for equality, and the frames
//! are affine in the cell index, so the answers stay free of
//! floating-point tolerances: they are what hashing all `4K` integer
//! corner points would give (the tests keep that construction, and the
//! stored per-element arrays of earlier versions, as oracles).

use crate::face::{cell_corner_point, FaceId};
use std::fmt;
use std::ops::Deref;

/// Identifier of a spectral element: `eid = face·Ne² + j·Ne + i`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct ElemId(pub u32);

impl ElemId {
    /// Element index as `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ElemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// One of the four local edges of an element, named by which side of the
/// `(i, j)` index square it bounds.
///
/// Each edge has a canonical orientation (endpoint 0 → endpoint 1) in
/// increasing local parameter:
/// South `(0,0)→(1,0)`, East `(1,0)→(1,1)`, North `(0,1)→(1,1)`,
/// West `(0,0)→(0,1)` (in cell-corner coordinates).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum LocalEdge {
    /// `j`-low side.
    South = 0,
    /// `i`-high side.
    East = 1,
    /// `j`-high side.
    North = 2,
    /// `i`-low side.
    West = 3,
}

impl LocalEdge {
    /// All four edges, in discriminant order.
    pub const ALL: [LocalEdge; 4] = [
        LocalEdge::South,
        LocalEdge::East,
        LocalEdge::North,
        LocalEdge::West,
    ];

    /// Edge index (0–3).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// The ordered cell-corner offsets `((ci0, cj0), (ci1, cj1))` of the
    /// edge's two endpoints.
    #[inline]
    pub fn endpoints(self) -> ((i64, i64), (i64, i64)) {
        match self {
            LocalEdge::South => ((0, 0), (1, 0)),
            LocalEdge::East => ((1, 0), (1, 1)),
            LocalEdge::North => ((0, 1), (1, 1)),
            LocalEdge::West => ((0, 0), (0, 1)),
        }
    }
}

/// An element's neighbour across one of its local edges.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EdgeNeighbor {
    /// The neighbouring element.
    pub elem: ElemId,
    /// Which of the neighbour's local edges coincides with ours.
    pub edge: LocalEdge,
    /// `true` if the shared edge runs in *opposite* canonical orientations
    /// on the two elements (our endpoint 0 touches their endpoint 1).
    /// Data exchanged along the edge must then be reversed — this is the
    /// orientation bookkeeping the spectral element DSS needs across cube
    /// edges.
    pub reversed: bool,
}

/// An element's corner-only neighbours: an element has four corner points
/// and at most one such neighbour through each. Dereferences to the
/// sorted slice of ids.
#[derive(Clone, Copy, Debug)]
pub struct CornerNeighbors {
    /// The first `len` entries are valid, sorted ascending.
    ids: [ElemId; 4],
    len: u8,
}

impl Deref for CornerNeighbors {
    type Target = [ElemId];

    #[inline]
    fn deref(&self) -> &[ElemId] {
        &self.ids[..self.len as usize]
    }
}

/// Full adjacency of the `K = 6·Ne²` cubed-sphere elements, computed on
/// demand from `Ne` and the seam table.
#[derive(Clone, Debug)]
pub struct Topology {
    ne: usize,
    seams: SeamTable,
}

impl Topology {
    /// Build the topology for face size `ne` (`ne ≥ 1`).
    ///
    /// # Panics
    ///
    /// Panics if `ne == 0`.
    pub fn build(ne: usize) -> Topology {
        assert!(ne >= 1, "Ne must be at least 1");
        Topology {
            ne,
            seams: seam_table(),
        }
    }

    /// Face size.
    #[inline]
    pub fn ne(&self) -> usize {
        self.ne
    }

    /// Total number of elements, `K = 6·Ne²`.
    #[inline]
    pub fn num_elems(&self) -> usize {
        6 * self.ne * self.ne
    }

    /// The neighbour across `edge` of `elem`.
    #[inline]
    pub fn edge_neighbor(&self, elem: ElemId, edge: LocalEdge) -> EdgeNeighbor {
        let (face, i, j) = split_eid(self.ne, elem);
        self.across(face, i, j, edge)
    }

    /// All four edge neighbours of `elem`, indexed by [`LocalEdge`].
    #[inline]
    pub fn edge_neighbors(&self, elem: ElemId) -> [EdgeNeighbor; 4] {
        let (face, i, j) = split_eid(self.ne, elem);
        LocalEdge::ALL.map(|edge| self.across(face, i, j, edge))
    }

    /// The corner-only neighbours of `elem` (sorted): 3 or 4 of them,
    /// none when `Ne = 1`.
    #[inline]
    pub fn corner_neighbors(&self, elem: ElemId) -> CornerNeighbors {
        let (face, i, j) = split_eid(self.ne, elem);
        self.diagonals(face, i, j)
    }

    /// Whether two elements are edge-adjacent.
    pub fn are_edge_adjacent(&self, a: ElemId, b: ElemId) -> bool {
        self.edge_neighbors(a).iter().any(|n| n.elem == b)
    }

    /// Whether two elements share at least a corner point.
    pub fn are_adjacent(&self, a: ElemId, b: ElemId) -> bool {
        self.are_edge_adjacent(a, b) || self.corner_neighbors(a).contains(&b)
    }

    /// Iterate over all elements.
    pub fn elems(&self) -> impl Iterator<Item = ElemId> {
        (0..self.num_elems() as u32).map(ElemId)
    }
}

/// Compose an element id from `(face, i, j)`.
#[inline]
pub fn make_eid(ne: usize, face: FaceId, i: usize, j: usize) -> ElemId {
    debug_assert!(i < ne && j < ne);
    ElemId((face.index() * ne * ne + j * ne + i) as u32)
}

/// Split an element id into `(face, i, j)`.
#[inline]
pub fn split_eid(ne: usize, eid: ElemId) -> (FaceId, usize, usize) {
    let e = eid.index();
    let per_face = ne * ne;
    let face = FaceId((e / per_face) as u8);
    let r = e % per_face;
    (face, r % ne, r / ne)
}

/// What lies across one of the 24 `(face, LocalEdge)` face borders.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Seam {
    /// The face on the other side of the cube edge.
    face: FaceId,
    /// Which of that face's borders is the same cube edge.
    edge: LocalEdge,
    /// Whether the two borders run in opposite canonical orientations.
    reversed: bool,
}

/// The seam across every face border, indexed `[face][LocalEdge]`.
type SeamTable = [[Seam; 4]; 6];

/// Derive the seam table from the integer face frames: a face's borders
/// are the four edges of its single cell on the `Ne = 1` cube, and two
/// borders are the same cube edge iff their endpoints are equal points.
fn seam_table() -> SeamTable {
    let ends = |face: FaceId, edge: LocalEdge| {
        let ((i0, j0), (i1, j1)) = edge.endpoints();
        (
            cell_corner_point(face, 1, 0, 0, i0, j0),
            cell_corner_point(face, 1, 0, 0, i1, j1),
        )
    };
    FaceId::ALL.map(|face| {
        LocalEdge::ALL.map(|edge| {
            let (a0, a1) = ends(face, edge);
            FaceId::ALL
                .into_iter()
                .filter(|&other| other != face)
                .flat_map(|other| LocalEdge::ALL.map(|other_edge| (other, other_edge)))
                .find_map(|(other, other_edge)| {
                    let (b0, b1) = ends(other, other_edge);
                    let reversed = (a0, a1) == (b1, b0);
                    (reversed || (a0, a1) == (b0, b1)).then_some(Seam {
                        face: other,
                        edge: other_edge,
                        reversed,
                    })
                })
                .expect("every face border is a cube edge shared with one other face")
        })
    })
}

/// The four diagonals of a cell, as the (lateral, vertical) pair of edges
/// meeting at each of its corner points.
const DIAGONALS: [(LocalEdge, LocalEdge); 4] = [
    (LocalEdge::West, LocalEdge::South),
    (LocalEdge::East, LocalEdge::South),
    (LocalEdge::West, LocalEdge::North),
    (LocalEdge::East, LocalEdge::North),
];

/// Neighbour arithmetic on the `Ne × Ne` cells of each face.
impl Topology {
    /// The cell one step across `edge` inside the same face, or `None`
    /// when `(i, j)` sits on that face border.
    fn step(&self, i: usize, j: usize, edge: LocalEdge) -> Option<(usize, usize)> {
        let last = self.ne - 1;
        match edge {
            LocalEdge::South => (j > 0).then(|| (i, j - 1)),
            LocalEdge::East => (i < last).then(|| (i + 1, j)),
            LocalEdge::North => (j < last).then(|| (i, j + 1)),
            LocalEdge::West => (i > 0).then(|| (i - 1, j)),
        }
    }

    /// The neighbour of cell `(i, j)` of `face` across its local `edge`.
    pub(crate) fn across(&self, face: FaceId, i: usize, j: usize, edge: LocalEdge) -> EdgeNeighbor {
        if let Some((ni, nj)) = self.step(i, j, edge) {
            return EdgeNeighbor {
                elem: make_eid(self.ne, face, ni, nj),
                // The neighbour meets us with its opposite edge.
                edge: LocalEdge::ALL[(edge.index() + 2) % 4],
                reversed: false,
            };
        }
        let seam = self.seams[face.index()][edge.index()];
        let last = self.ne - 1;
        // Cells along a border count from the edge's endpoint 0.
        let along = match edge {
            LocalEdge::South | LocalEdge::North => i,
            LocalEdge::East | LocalEdge::West => j,
        };
        let t = if seam.reversed { last - along } else { along };
        let (ni, nj) = match seam.edge {
            LocalEdge::South => (t, 0),
            LocalEdge::East => (last, t),
            LocalEdge::North => (t, last),
            LocalEdge::West => (0, t),
        };
        EdgeNeighbor {
            elem: make_eid(self.ne, seam.face, ni, nj),
            edge: seam.edge,
            reversed: seam.reversed,
        }
    }

    /// The elements sharing exactly one corner point with cell `(i, j)`
    /// of `face`: one per diagonal, sorted by id.
    pub(crate) fn diagonals(&self, face: FaceId, i: usize, j: usize) -> CornerNeighbors {
        let last = self.ne - 1;
        if (1..last).contains(&i) && (1..last).contains(&j) {
            // The common case, all but the border ring of a face: no seam
            // to consult, and the diagonals come out already in id order.
            let at = |di: usize, dj: usize| make_eid(self.ne, face, i + di - 1, j + dj - 1);
            return CornerNeighbors {
                ids: [at(0, 0), at(2, 0), at(0, 2), at(2, 2)],
                len: 4,
            };
        }
        let mut ids = [ElemId(0); 4];
        let mut len = 0;
        for (lateral, vertical) in DIAGONALS {
            // Shift along one edge inside the face, then cross the other:
            // an in-face diagonal, or the seam neighbour of the shifted
            // cell when the corner point lies on a cube edge.
            let diagonal = match (self.step(i, j, lateral), self.step(i, j, vertical)) {
                (Some((si, sj)), _) => self.across(face, si, sj, vertical),
                (None, Some((si, sj))) => self.across(face, si, sj, lateral),
                // A cube vertex: only three elements meet there and the
                // other two are already edge neighbours.
                (None, None) => continue,
            };
            ids[len] = diagonal.elem;
            len += 1;
        }
        ids[..len].sort_unstable();
        CornerNeighbors {
            ids,
            len: len as u8,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::dualgraph::{build_dual_graph, ExchangeWeights};
    use crate::face::IVec3;
    use std::collections::HashMap;

    /// The sizes the oracles sweep: every `Ne ≤ 24`, every
    /// `Ne = 2^a·3^b·5^c ≤ 64` (the sizes that admit a curve), and 81.
    pub(crate) fn swept_sizes() -> Vec<usize> {
        let smooth = |mut n: usize| {
            for p in [2, 3, 5] {
                while n.is_multiple_of(p) {
                    n /= p;
                }
            }
            n == 1
        };
        (1..=64)
            .filter(|&ne| ne <= 24 || smooth(ne))
            .chain([81])
            .collect()
    }

    /// The per-element answers as a table — what `Topology` itself held
    /// before it became arithmetic, and what the oracles fill.
    struct Stored {
        edge_neighbors: Vec<[EdgeNeighbor; 4]>,
        /// Sorted ascending.
        corner_neighbors: Vec<Vec<ElemId>>,
    }

    impl Stored {
        /// The `(xadj, adjncy, adjwgt)` of the dual graph these tables
        /// describe: edge neighbours S, E, N, W, then the corners.
        fn dual_graph(&self, w: ExchangeWeights) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
            let (mut xadj, mut adjncy, mut adjwgt) = (vec![0u32], Vec::new(), Vec::new());
            for (edges, corners) in self.edge_neighbors.iter().zip(&self.corner_neighbors) {
                adjncy.extend(edges.iter().map(|nb| nb.elem.0));
                adjwgt.extend([w.edge_points; 4]);
                adjncy.extend(corners.iter().map(|c| c.0));
                adjwgt.extend(corners.iter().map(|_| w.corner_points));
                xadj.push(adjncy.len() as u32);
            }
            (xadj, adjncy, adjwgt)
        }
    }

    /// The first oracle, the stored build the arithmetic replaced: walk
    /// the cells in element-id order `(face, j, i)` — never through
    /// `split_eid` — and keep every answer.
    fn stored_build(ne: usize) -> Stored {
        let grid = Topology::build(ne);
        let mut stored = Stored {
            edge_neighbors: Vec::new(),
            corner_neighbors: Vec::new(),
        };
        for face in FaceId::ALL {
            for j in 0..ne {
                for i in 0..ne {
                    let edges = LocalEdge::ALL.map(|edge| grid.across(face, i, j, edge));
                    stored.edge_neighbors.push(edges);
                    let corners = grid.diagonals(face, i, j).to_vec();
                    stored.corner_neighbors.push(corners);
                }
            }
        }
        stored
    }

    /// The second oracle: adjacency straight from the definition. Hash
    /// every element's four exact-integer corner points, count the points
    /// each element pair shares (two = edge neighbours, one = corner
    /// neighbours) and match the shared edge by comparing endpoints.
    fn reference_build(ne: usize) -> Stored {
        let nel = 6 * ne * ne;
        let ne_i = ne as i64;

        let mut at_point: HashMap<IVec3, Vec<ElemId>> = HashMap::new();
        for eid in 0..nel {
            let (face, i, j) = split_eid(ne, ElemId(eid as u32));
            for cj in 0..2 {
                for ci in 0..2 {
                    let p = cell_corner_point(face, ne_i, i as i64, j as i64, ci, cj);
                    at_point.entry(p).or_default().push(ElemId(eid as u32));
                }
            }
        }

        let mut shared: HashMap<(ElemId, ElemId), u8> = HashMap::new();
        for elems in at_point.values() {
            for (x, &a) in elems.iter().enumerate() {
                for &b in &elems[x + 1..] {
                    let key = if a < b { (a, b) } else { (b, a) };
                    *shared.entry(key).or_default() += 1;
                }
            }
        }

        let mut edge_neighbors: Vec<[Option<EdgeNeighbor>; 4]> = vec![[None; 4]; nel];
        let mut corner_neighbors: Vec<Vec<ElemId>> = vec![Vec::new(); nel];
        for (&(a, b), &count) in &shared {
            match count {
                1 => {
                    corner_neighbors[a.index()].push(b);
                    corner_neighbors[b.index()].push(a);
                }
                2 => {
                    let (ea, eb, reversed) = match_edges(ne, a, b);
                    edge_neighbors[a.index()][ea.index()] = Some(EdgeNeighbor {
                        elem: b,
                        edge: eb,
                        reversed,
                    });
                    edge_neighbors[b.index()][eb.index()] = Some(EdgeNeighbor {
                        elem: a,
                        edge: ea,
                        reversed,
                    });
                }
                n => panic!("elements {a} and {b} share {n} corner points"),
            }
        }
        corner_neighbors
            .iter_mut()
            .for_each(|list| list.sort_unstable());

        Stored {
            edge_neighbors: edge_neighbors
                .into_iter()
                .map(|nbrs| nbrs.map(|nb| nb.expect("every element has four edge neighbours")))
                .collect(),
            corner_neighbors,
        }
    }

    /// Identify which local edges of two edge-adjacent elements coincide,
    /// and whether their canonical orientations disagree.
    fn match_edges(ne: usize, a: ElemId, b: ElemId) -> (LocalEdge, LocalEdge, bool) {
        let ne_i = ne as i64;
        let pts = |e: ElemId, le: LocalEdge| -> (IVec3, IVec3) {
            let (face, i, j) = split_eid(ne, e);
            let ((c0i, c0j), (c1i, c1j)) = le.endpoints();
            (
                cell_corner_point(face, ne_i, i as i64, j as i64, c0i, c0j),
                cell_corner_point(face, ne_i, i as i64, j as i64, c1i, c1j),
            )
        };
        for ea in LocalEdge::ALL {
            let (a0, a1) = pts(a, ea);
            for eb in LocalEdge::ALL {
                let (b0, b1) = pts(b, eb);
                if a0 == b0 && a1 == b1 {
                    return (ea, eb, false);
                }
                if a0 == b1 && a1 == b0 {
                    return (ea, eb, true);
                }
            }
        }
        panic!("elements {a} and {b} share two points but no common edge");
    }

    #[test]
    fn closed_form_build_equals_the_corner_point_oracle() {
        let weights = ExchangeWeights::default();
        for ne in swept_sizes() {
            let topo = Topology::build(ne);
            let stored = stored_build(ne);
            let oracle = reference_build(ne);
            assert_eq!(topo.num_elems(), oracle.edge_neighbors.len(), "ne={ne}");
            assert_eq!(topo.num_elems(), stored.edge_neighbors.len(), "ne={ne}");
            for e in topo.elems() {
                let want = oracle.edge_neighbors[e.index()];
                assert_eq!(topo.edge_neighbors(e), want, "ne={ne} {e}");
                assert_eq!(stored.edge_neighbors[e.index()], want, "ne={ne} {e}");
                for edge in LocalEdge::ALL {
                    assert_eq!(topo.edge_neighbor(e, edge), want[edge.index()]);
                }
                let want = &oracle.corner_neighbors[e.index()];
                assert_eq!(&topo.corner_neighbors(e)[..], want, "ne={ne} {e}");
                assert_eq!(&stored.corner_neighbors[e.index()], want, "ne={ne} {e}");
            }
            // The CSR arrays (xadj, adjncy, adjwgt) whose adjacency order
            // every graph partition depends on.
            let g = build_dual_graph(&topo, weights);
            assert!(
                (g.xadj, g.adjncy, g.adjwgt) == oracle.dual_graph(weights),
                "ne={ne}: dual graphs differ"
            );
        }
    }

    #[test]
    fn seam_table_pairs_up_the_twelve_cube_edges() {
        let seams = seam_table();
        let mut any_reversed = false;
        for face in FaceId::ALL {
            let mut across: Vec<FaceId> = Vec::new();
            for edge in LocalEdge::ALL {
                let seam = seams[face.index()][edge.index()];
                // Crossing back lands on the border we left, and both
                // sides agree on the orientation.
                let back = seams[seam.face.index()][seam.edge.index()];
                assert_eq!((back.face, back.edge), (face, edge), "{face} {edge:?}");
                assert_eq!(back.reversed, seam.reversed, "{face} {edge:?}");
                assert!(crate::face::faces_adjacent(face, seam.face));
                any_reversed |= seam.reversed;
                across.push(seam.face);
            }
            across.sort();
            across.dedup();
            assert_eq!(across.len(), 4, "{face} borders four distinct faces");
        }
        assert!(any_reversed, "some cube edge must flip the parameter");
    }

    #[test]
    fn eid_roundtrip() {
        let ne = 5;
        for face in FaceId::ALL {
            for j in 0..ne {
                for i in 0..ne {
                    let e = make_eid(ne, face, i, j);
                    assert_eq!(split_eid(ne, e), (face, i, j));
                }
            }
        }
    }

    #[test]
    fn every_element_has_four_edge_neighbors() {
        for ne in [1, 2, 3, 4] {
            let t = Topology::build(ne);
            assert_eq!(t.num_elems(), 6 * ne * ne);
            for e in t.elems() {
                let nbrs = t.edge_neighbors(e);
                // All distinct and none equal to self.
                for (x, nx) in nbrs.iter().enumerate() {
                    assert_ne!(nx.elem, e);
                    for ny in &nbrs[x + 1..] {
                        assert_ne!(nx.elem, ny.elem, "ne={ne} elem {e}");
                    }
                }
            }
        }
    }

    #[test]
    fn edge_adjacency_is_symmetric_and_consistent() {
        let ne = 3;
        let t = Topology::build(ne);
        for e in t.elems() {
            for le in LocalEdge::ALL {
                let nb = t.edge_neighbor(e, le);
                let back = t.edge_neighbor(nb.elem, nb.edge);
                assert_eq!(back.elem, e);
                assert_eq!(back.edge, le);
                assert_eq!(back.reversed, nb.reversed);
            }
        }
    }

    #[test]
    fn corner_neighbor_counts() {
        // For Ne >= 2 every element has 3 or 4 corner neighbours:
        // 4 in general, 3 for elements touching a cube vertex (only three
        // elements meet there and the other two are already edge-adjacent).
        for ne in [2usize, 3, 4] {
            let t = Topology::build(ne);
            let mut threes = 0;
            for e in t.elems() {
                let c = t.corner_neighbors(e).len();
                assert!(c == 3 || c == 4, "ne={ne} elem {e} has {c}");
                if c == 3 {
                    threes += 1;
                }
            }
            // Exactly the 8 cube vertices × 3 touching elements each.
            assert_eq!(threes, 24, "ne={ne}");
        }
    }

    #[test]
    fn ne1_has_no_corner_neighbors() {
        // With one element per face, every pair of adjacent faces already
        // shares a whole edge, and opposite faces share nothing.
        let t = Topology::build(1);
        for e in t.elems() {
            assert!(t.corner_neighbors(e).is_empty());
        }
    }

    #[test]
    fn corner_adjacency_is_symmetric() {
        let t = Topology::build(4);
        for e in t.elems() {
            for &c in t.corner_neighbors(e).iter() {
                assert!(t.corner_neighbors(c).contains(&e));
                assert!(!t.are_edge_adjacent(e, c));
            }
        }
    }

    #[test]
    fn interior_neighbors_have_matching_orientation() {
        // Two horizontally adjacent interior cells of the same face share
        // the East/West edge pair with no reversal.
        let ne = 4;
        let t = Topology::build(ne);
        let a = make_eid(ne, FaceId(0), 1, 1);
        let nb = t.edge_neighbor(a, LocalEdge::East);
        assert_eq!(nb.elem, make_eid(ne, FaceId(0), 2, 1));
        assert_eq!(nb.edge, LocalEdge::West);
        assert!(!nb.reversed);
    }

    #[test]
    fn some_cube_edges_reverse_orientation() {
        // Crossing between certain face pairs flips the parameter
        // direction; at least one of the 12 cube edges must do so.
        let ne = 2;
        let t = Topology::build(ne);
        let mut any_reversed = false;
        for e in t.elems() {
            for le in LocalEdge::ALL {
                if t.edge_neighbor(e, le).reversed {
                    any_reversed = true;
                }
            }
        }
        assert!(any_reversed);
    }

    #[test]
    fn total_adjacency_counts() {
        // 2·K distinct edge-adjacent pairs (each element has 4, each pair
        // counted twice).
        let ne = 3;
        let t = Topology::build(ne);
        let k = t.num_elems();
        let edge_pairs: usize = t.elems().map(|_| 4).sum::<usize>() / 2;
        assert_eq!(edge_pairs, 2 * k);
        let corner_pairs: usize = t
            .elems()
            .map(|e| t.corner_neighbors(e).len())
            .sum::<usize>()
            / 2;
        // Interior corner points: each face has (ne-1)² interior nodes with
        // 2 diagonal pairs each; cube-edge (non-vertex) points contribute 2
        // diagonal pairs each; cube vertices none.
        let interior = 6 * (ne - 1) * (ne - 1) * 2;
        let cube_edges = 12 * (ne - 1) * 2;
        assert_eq!(corner_pairs, interior + cube_edges);
    }

    #[test]
    #[should_panic(expected = "Ne must be")]
    fn ne0_rejected() {
        Topology::build(0);
    }
}
