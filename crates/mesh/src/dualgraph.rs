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
//! [`CsrGraph`] (`xadj`, `adjncy`, `adjwgt`, `vwgt`) straight from the
//! arithmetic [`Topology`] and validate it once, so the partitioners and
//! the metrics consume what is built with no conversion in between. A
//! vertex lists its edge neighbours in South, East, North, West order,
//! then its corner neighbours by ascending id — the order every graph
//! partition depends on.

use crate::face::FaceId;
use crate::topology::{ElemId, LocalEdge, Topology};
use cubesfc_graph::CsrGraph;

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
/// # Panics
///
/// Panics if `vwgt.len() != K`.
pub fn build_dual_graph_weighted(topo: &Topology, w: ExchangeWeights, vwgt: Vec<u32>) -> CsrGraph {
    let k = topo.num_elems();
    assert_eq!(vwgt.len(), k, "vertex weight length mismatch");

    let mut xadj = Vec::with_capacity(k + 1);
    // Four edge neighbours and at most four corner neighbours each.
    let mut adjncy = Vec::with_capacity(8 * k);
    let mut adjwgt = Vec::with_capacity(8 * k);
    xadj.push(0u32);
    // Element ids ascend in (face, j, i) order.
    let ne = topo.ne();
    for face in FaceId::ALL {
        for j in 0..ne {
            for i in 0..ne {
                for edge in LocalEdge::ALL {
                    adjncy.push(topo.across(face, i, j, edge).elem.0);
                    adjwgt.push(w.edge_points);
                }
                for c in topo.diagonals(face, i, j).iter() {
                    adjncy.push(c.0);
                    adjwgt.push(w.corner_points);
                }
                xadj.push(adjncy.len() as u32);
            }
        }
    }
    CsrGraph::new(xadj, adjncy, adjwgt, vwgt).expect("mesh dual graphs are valid by construction")
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
