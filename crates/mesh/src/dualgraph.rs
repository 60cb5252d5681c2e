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

use crate::topology::{ElemId, Topology};

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

/// A CSR-form undirected weighted graph of the elements.
///
/// The arrays follow the classic `(xadj, adjncy, adjwgt, vwgt)` layout so
/// any partitioner can consume them directly: the neighbours of vertex `v`
/// are `adjncy[xadj[v] .. xadj[v+1]]` with weights in the same positions of
/// `adjwgt`. Every edge appears twice (once from each endpoint).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DualGraph {
    /// Row pointers, length `K + 1`.
    pub xadj: Vec<u32>,
    /// Flattened neighbour lists.
    pub adjncy: Vec<u32>,
    /// Edge weights, parallel to `adjncy`.
    pub adjwgt: Vec<u32>,
    /// Vertex (computation) weights, length `K`.
    pub vwgt: Vec<u32>,
}

impl DualGraph {
    /// Number of vertices (elements).
    pub fn num_vertices(&self) -> usize {
        self.vwgt.len()
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.adjncy.len() / 2
    }

    /// Neighbours of vertex `v` with weights.
    pub fn neighbors(&self, v: usize) -> impl Iterator<Item = (usize, u32)> + '_ {
        let lo = self.xadj[v] as usize;
        let hi = self.xadj[v + 1] as usize;
        self.adjncy[lo..hi]
            .iter()
            .zip(&self.adjwgt[lo..hi])
            .map(|(&n, &w)| (n as usize, w))
    }

    /// Degree of vertex `v`.
    pub fn degree(&self, v: usize) -> usize {
        (self.xadj[v + 1] - self.xadj[v]) as usize
    }

    /// Sum of all vertex weights.
    pub fn total_vwgt(&self) -> u64 {
        self.vwgt.iter().map(|&w| w as u64).sum()
    }
}

/// Build the dual graph of the cubed-sphere with uniform unit vertex
/// weights (every spectral element costs the same — the paper's case).
pub fn build_dual_graph(topo: &Topology, w: ExchangeWeights) -> DualGraph {
    let vwgt = vec![1u32; topo.num_elems()];
    build_dual_graph_weighted(topo, w, vwgt)
}

/// Build the dual graph with explicit per-element computation weights
/// (the weighted extension: e.g. elements with local physics costs).
///
/// # Panics
///
/// Panics if `vwgt.len() != K`.
pub fn build_dual_graph_weighted(topo: &Topology, w: ExchangeWeights, vwgt: Vec<u32>) -> DualGraph {
    let k = topo.num_elems();
    assert_eq!(vwgt.len(), k, "vertex weight length mismatch");

    let mut xadj = Vec::with_capacity(k + 1);
    // Four edge neighbours and at most four corner neighbours each.
    let mut adjncy = Vec::with_capacity(8 * k);
    let mut adjwgt = Vec::with_capacity(8 * k);
    xadj.push(0u32);
    for e in topo.elems() {
        for nb in topo.edge_neighbors(e) {
            adjncy.push(nb.elem.0);
            adjwgt.push(w.edge_points);
        }
        for &c in topo.corner_neighbors(e) {
            adjncy.push(c.0);
            adjwgt.push(w.corner_points);
        }
        xadj.push(adjncy.len() as u32);
    }
    DualGraph {
        xadj,
        adjncy,
        adjwgt,
        vwgt,
    }
}

/// The communication volume, in points, that element `e` sends each step
/// (sum of its incident edge weights) — independent of any partition; used
/// to bound per-processor communication.
pub fn elem_send_points(g: &DualGraph, e: ElemId) -> u64 {
    g.neighbors(e.index()).map(|(_, w)| w as u64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(ne: usize) -> (Topology, DualGraph) {
        let t = Topology::build(ne);
        let g = build_dual_graph(&t, ExchangeWeights::default());
        (t, g)
    }

    #[test]
    fn vertex_count_matches_elements() {
        let (t, g) = graph(4);
        assert_eq!(g.num_vertices(), t.num_elems());
        assert_eq!(g.total_vwgt(), t.num_elems() as u64);
    }

    #[test]
    fn csr_is_consistent() {
        let (_, g) = graph(3);
        assert_eq!(g.xadj.len(), g.num_vertices() + 1);
        assert_eq!(*g.xadj.last().unwrap() as usize, g.adjncy.len());
        assert_eq!(g.adjncy.len(), g.adjwgt.len());
        // No self-loops, no out-of-range neighbours.
        for v in 0..g.num_vertices() {
            for (n, _) in g.neighbors(v) {
                assert_ne!(n, v);
                assert!(n < g.num_vertices());
            }
        }
    }

    #[test]
    fn graph_is_symmetric_with_equal_weights() {
        let (_, g) = graph(3);
        for v in 0..g.num_vertices() {
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
        for v in 0..g.num_vertices() {
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
            for &c in t.corner_neighbors(e) {
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
