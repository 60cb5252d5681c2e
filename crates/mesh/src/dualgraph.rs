//! The weighted dual graph of the cubed-sphere (paper §2).
//!
//! "Partitioning of the cubed-sphere with METIS requires the formation of
//! an undirected graph. … weights associated with edges E represent the
//! amount of information which must be exchanged along each element
//! boundary, while a vertex weight represents the amount of computation
//! associated with the element."
//!
//! Vertices are spectral elements. Edge-adjacent elements exchange a full
//! element edge of GLL points; corner-adjacent elements exchange a single
//! point. Weights are expressed in *points exchanged per step*; the
//! machine model converts points to bytes.
//!
//! There is one CSR type in the workspace: the builders here fill a
//! [`CsrGraph`] (`xadj`, `adjncy`, `adjwgt`, `vwgt`) straight from `Ne`
//! and the arithmetic [`Topology`] and validate it once, so the
//! partitioners and the metrics consume what is built with no conversion
//! in between. A vertex lists its edge neighbours in South, East, North,
//! West order, then its corner neighbours by ascending id — the order
//! every graph partition depends on.

use crate::face::FaceId;
use crate::topology::{ElemId, LocalEdge, Topology};
use cubesfc_graph::share::share_chunks;
use cubesfc_graph::{CsrGraph, PARALLEL_MIN_VERTICES};

/// Exchange weights for the dual graph, in GLL points.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ExchangeWeights {
    /// Points exchanged across a shared element edge (the number of GLL
    /// points along one edge; 8 for the paper's 8×8 elements).
    pub edge_points: u32,
    /// Points exchanged across a shared corner (always 1).
    pub corner_points: u32,
}

impl Default for ExchangeWeights {
    fn default() -> Self {
        ExchangeWeights {
            edge_points: 8,
            corner_points: 1,
        }
    }
}

/// Build the dual graph of the cubed-sphere with uniform unit vertex
/// weights (every spectral element costs the same — the paper's case).
pub fn build_dual_graph(topo: &Topology, w: ExchangeWeights) -> CsrGraph {
    let vwgt = vec![1u32; topo.num_elems()];
    build_dual_graph_weighted(topo, w, vwgt)
}

/// Build the dual graph with explicit per-element computation weights
/// (the weighted extension: e.g. elements with local physics costs).
///
/// Row lengths are closed-form — four edge neighbours, plus four corner
/// neighbours, or three at the four corners of a face, or none at
/// `Ne = 1` — so `xadj`, `adjncy` and `adjwgt` are presized and each face
/// fills its own slices of them; from [`PARALLEL_MIN_VERTICES`] on two
/// threads share the faces (`cubesfc_graph::share`). A face-interior row
/// is written arithmetically; only the border ring asks the [`Topology`].
///
/// # Panics
///
/// Panics if `vwgt.len() != K`.
pub fn build_dual_graph_weighted(topo: &Topology, w: ExchangeWeights, vwgt: Vec<u32>) -> CsrGraph {
    let k = topo.num_elems();
    assert_eq!(vwgt.len(), k, "vertex weight length mismatch");
    let per_face = topo.ne() * topo.ne();
    // The row lengths of `row_len`, summed over a face.
    let face_entries = match topo.ne() {
        1 => 4,
        _ => 8 * per_face - 4,
    };

    let mut xadj = vec![0u32; k + 1];
    let mut adjncy = vec![0u32; 6 * face_entries];
    let mut adjwgt = vec![0u32; 6 * face_entries];
    let (mut xadj_rest, mut adjncy_rest, mut adjwgt_rest) =
        (&mut xadj[1..], &mut adjncy[..], &mut adjwgt[..]);
    let mut faces = Vec::with_capacity(6);
    for face in FaceId::ALL {
        let (xadj, rest) = std::mem::take(&mut xadj_rest).split_at_mut(per_face);
        xadj_rest = rest;
        let (adjncy, rest) = std::mem::take(&mut adjncy_rest).split_at_mut(face_entries);
        adjncy_rest = rest;
        let (adjwgt, rest) = std::mem::take(&mut adjwgt_rest).split_at_mut(face_entries);
        adjwgt_rest = rest;
        faces.push(FaceRows {
            face,
            base: face.index() * face_entries,
            xadj,
            adjncy,
            adjwgt,
        });
    }
    share_chunks(
        faces,
        k >= PARALLEL_MIN_VERTICES,
        || (),
        |_, rows| rows.fill(topo, w),
    );
    CsrGraph::new(xadj, adjncy, adjwgt, vwgt).expect("mesh dual graphs are valid by construction")
}

/// The degree of cell `(i, j)` of a face: four edge neighbours, plus a
/// corner neighbour through each corner point that is not a cube vertex.
fn row_len(ne: usize, i: usize, j: usize) -> usize {
    let last = ne - 1;
    match ne {
        1 => 4,
        _ if (i == 0 || i == last) && (j == 0 || j == last) => 7,
        _ => 8,
    }
}

/// The rows of one face and the slices of the CSR arrays they fill;
/// `base` is the offset of the face's first entry.
struct FaceRows<'a> {
    face: FaceId,
    base: usize,
    /// Row ends, `xadj[1..]` of these rows.
    xadj: &'a mut [u32],
    adjncy: &'a mut [u32],
    adjwgt: &'a mut [u32],
}

impl FaceRows<'_> {
    /// Write every row: edge neighbours South, East, North, West, then
    /// the corner neighbours by ascending id.
    fn fill(self, topo: &Topology, w: ExchangeWeights) {
        let ne = topo.ne();
        let last = ne - 1;
        let stride = ne as u32;
        let face = self.face;
        let face_start = (face.index() * ne * ne) as u32;
        let mut at = 0usize;
        let mut rows = self.xadj.iter_mut();
        for j in 0..ne {
            for i in 0..ne {
                let len = row_len(ne, i, j);
                let row = &mut self.adjncy[at..at + len];
                if (1..last).contains(&i) && (1..last).contains(&j) {
                    let e = face_start + (j * ne + i) as u32;
                    row.copy_from_slice(&[
                        e - stride,
                        e + 1,
                        e + stride,
                        e - 1,
                        e - stride - 1,
                        e - stride + 1,
                        e + stride - 1,
                        e + stride + 1,
                    ]);
                } else {
                    for (slot, edge) in row.iter_mut().zip(LocalEdge::ALL) {
                        *slot = topo.across(face, i, j, edge).elem.0;
                    }
                    let corners = topo.diagonals(face, i, j);
                    debug_assert_eq!(corners.len(), len - 4);
                    for (slot, c) in row[4..].iter_mut().zip(corners.iter()) {
                        *slot = c.0;
                    }
                }
                self.adjwgt[at..at + 4].fill(w.edge_points);
                self.adjwgt[at + 4..at + len].fill(w.corner_points);
                at += len;
                *rows.next().expect("one row end per element") = (self.base + at) as u32;
            }
        }
        debug_assert_eq!(at, self.adjncy.len());
    }
}

/// The communication volume, in points, that element `e` sends each step
/// (sum of its incident edge weights) — independent of any partition; used
/// to bound per-processor communication.
pub fn elem_send_points(g: &CsrGraph, e: ElemId) -> u64 {
    g.neighbors(e.index()).map(|(_, w)| w as u64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(ne: usize) -> (Topology, CsrGraph) {
        let t = Topology::build(ne);
        let g = build_dual_graph(&t, ExchangeWeights::default());
        (t, g)
    }

    /// Entry by entry, the closed-form fill equals rows built element by
    /// element from the public `edge_neighbors` / `corner_neighbors`, on
    /// both sides of `PARALLEL_MIN_VERTICES` (Ne = 74 is the first size
    /// above it).
    #[test]
    fn rows_equal_the_per_element_build() {
        let w = ExchangeWeights {
            edge_points: 5,
            corner_points: 2,
        };
        for ne in (1..=64).chain([73, 74, 81, 96, 128]) {
            let t = Topology::build(ne);
            let g = build_dual_graph(&t, w);
            let (mut xadj, mut adjncy, mut adjwgt) = (vec![0u32], Vec::new(), Vec::new());
            for e in t.elems() {
                for nb in t.edge_neighbors(e) {
                    adjncy.push(nb.elem.0);
                    adjwgt.push(w.edge_points);
                }
                for c in t.corner_neighbors(e).iter() {
                    adjncy.push(c.0);
                    adjwgt.push(w.corner_points);
                }
                xadj.push(adjncy.len() as u32);
            }
            assert!(g.xadj == xadj, "Ne={ne}: xadj");
            assert!(g.adjncy == adjncy, "Ne={ne}: adjncy");
            assert!(g.adjwgt == adjwgt, "Ne={ne}: adjwgt");
        }
    }

    #[test]
    fn vertex_count_matches_elements() {
        let (t, g) = graph(4);
        assert_eq!(g.nv(), t.num_elems());
        assert_eq!(g.total_vwgt(), t.num_elems() as u64);
    }

    #[test]
    fn csr_is_consistent() {
        let (_, g) = graph(3);
        assert_eq!(g.xadj.len(), g.nv() + 1);
        assert_eq!(*g.xadj.last().unwrap() as usize, g.adjncy.len());
        assert_eq!(g.adjncy.len(), g.adjwgt.len());
        // No self-loops, no out-of-range neighbours.
        for v in 0..g.nv() {
            for (n, _) in g.neighbors(v) {
                assert_ne!(n, v);
                assert!(n < g.nv());
            }
        }
    }

    #[test]
    fn graph_is_symmetric_with_equal_weights() {
        let (_, g) = graph(3);
        for v in 0..g.nv() {
            for (n, w) in g.neighbors(v) {
                let back = g
                    .neighbors(n)
                    .find(|&(m, _)| m == v)
                    .expect("missing reverse edge");
                assert_eq!(back.1, w);
            }
        }
    }

    #[test]
    fn degrees_are_seven_or_eight() {
        // 4 edge neighbours + 3..4 corner neighbours for Ne >= 2.
        let (_, g) = graph(4);
        for v in 0..g.nv() {
            let d = g.degree(v);
            assert!(d == 7 || d == 8, "vertex {v} degree {d}");
        }
    }

    #[test]
    fn edge_weights_reflect_exchange_kind() {
        let (t, g) = graph(3);
        for e in t.elems() {
            for nb in t.edge_neighbors(e) {
                let (_, w) = g
                    .neighbors(e.index())
                    .find(|&(n, _)| n == nb.elem.index())
                    .unwrap();
                assert_eq!(w, 8);
            }
            for &c in t.corner_neighbors(e).iter() {
                let (_, w) = g
                    .neighbors(e.index())
                    .find(|&(n, _)| n == c.index())
                    .unwrap();
                assert_eq!(w, 1);
            }
        }
    }

    #[test]
    fn send_points_bounds() {
        let (t, g) = graph(4);
        for e in t.elems() {
            let pts = elem_send_points(&g, e);
            // 4 edges × 8 + (3..4) corners × 1.
            assert!((35..=36).contains(&pts), "elem {e}: {pts}");
        }
    }

    #[test]
    fn weighted_build_rejects_bad_lengths() {
        let t = Topology::build(2);
        let r = std::panic::catch_unwind(|| {
            build_dual_graph_weighted(&t, ExchangeWeights::default(), vec![1; 5])
        });
        assert!(r.is_err());
    }

    #[test]
    fn custom_exchange_weights_respected() {
        let t = Topology::build(2);
        let g = build_dual_graph(
            &t,
            ExchangeWeights {
                edge_points: 4,
                corner_points: 2,
            },
        );
        let weights: std::collections::HashSet<u32> = g.adjwgt.iter().copied().collect();
        assert_eq!(weights, [2u32, 4].into_iter().collect());
    }
}
