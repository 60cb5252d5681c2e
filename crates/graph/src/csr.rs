//! Compressed-sparse-row undirected weighted graphs.
//!
//! The layout matches the classic METIS interface: vertex `v`'s neighbours
//! are `adjncy[xadj[v]..xadj[v+1]]` with edge weights in the parallel
//! `adjwgt` positions, and every undirected edge is stored twice.

use std::fmt;

/// Errors detected by [`CsrGraph::validate`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum GraphError {
    /// `xadj` is empty or not monotonically non-decreasing.
    BadRowPointers,
    /// `adjncy`/`adjwgt` lengths disagree with `xadj`.
    LengthMismatch,
    /// A neighbour index is out of range.
    NeighborOutOfRange {
        /// Source vertex.
        vertex: usize,
        /// Offending neighbour value.
        neighbor: u32,
    },
    /// A vertex lists itself as a neighbour.
    SelfLoop {
        /// Offending vertex.
        vertex: usize,
    },
    /// Edge `(u, v)` has no matching reverse edge of equal weight.
    Asymmetric {
        /// Source vertex.
        u: usize,
        /// Destination vertex.
        v: usize,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::BadRowPointers => write!(f, "xadj is not a valid row-pointer array"),
            GraphError::LengthMismatch => write!(f, "adjncy/adjwgt/vwgt lengths inconsistent"),
            GraphError::NeighborOutOfRange { vertex, neighbor } => {
                write!(f, "vertex {vertex} lists out-of-range neighbor {neighbor}")
            }
            GraphError::SelfLoop { vertex } => write!(f, "vertex {vertex} has a self-loop"),
            GraphError::Asymmetric { u, v } => {
                write!(f, "edge ({u},{v}) has no equal-weight reverse edge")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// An undirected weighted graph in CSR form.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CsrGraph {
    /// Row pointers, length `nv + 1`.
    pub xadj: Vec<u32>,
    /// Flattened neighbour lists (each undirected edge appears twice).
    pub adjncy: Vec<u32>,
    /// Edge weights, parallel to `adjncy`.
    pub adjwgt: Vec<u32>,
    /// Vertex weights, length `nv`.
    pub vwgt: Vec<u32>,
}

impl CsrGraph {
    /// Construct and validate a graph.
    pub fn new(
        xadj: Vec<u32>,
        adjncy: Vec<u32>,
        adjwgt: Vec<u32>,
        vwgt: Vec<u32>,
    ) -> Result<CsrGraph, GraphError> {
        let g = CsrGraph {
            xadj,
            adjncy,
            adjwgt,
            vwgt,
        };
        g.validate()?;
        Ok(g)
    }

    /// Build from per-vertex adjacency lists `(neighbor, weight)`.
    ///
    /// Lists must already be symmetric; weights default vertex weight 1.
    pub fn from_lists(lists: &[Vec<(u32, u32)>]) -> Result<CsrGraph, GraphError> {
        let mut xadj = Vec::with_capacity(lists.len() + 1);
        let mut adjncy = Vec::new();
        let mut adjwgt = Vec::new();
        xadj.push(0u32);
        for l in lists {
            for &(n, w) in l {
                adjncy.push(n);
                adjwgt.push(w);
            }
            xadj.push(adjncy.len() as u32);
        }
        CsrGraph::new(xadj, adjncy, adjwgt, vec![1; lists.len()])
    }

    /// Number of vertices.
    #[inline]
    pub fn nv(&self) -> usize {
        self.vwgt.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn ne(&self) -> usize {
        self.adjncy.len() / 2
    }

    /// The neighbours of `v` with edge weights.
    #[inline]
    pub fn neighbors(&self, v: usize) -> impl Iterator<Item = (usize, u32)> + '_ {
        let lo = self.xadj[v] as usize;
        let hi = self.xadj[v + 1] as usize;
        self.adjncy[lo..hi]
            .iter()
            .zip(&self.adjwgt[lo..hi])
            .map(|(&n, &w)| (n as usize, w))
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        (self.xadj[v + 1] - self.xadj[v]) as usize
    }

    /// Total vertex weight.
    pub fn total_vwgt(&self) -> u64 {
        self.vwgt.iter().map(|&w| w as u64).sum()
    }

    /// Heaviest vertex weight (0 for empty graphs).
    pub fn max_vwgt(&self) -> u64 {
        self.vwgt.iter().copied().max().unwrap_or(0) as u64
    }

    /// Full validation of the CSR invariants (symmetry included).
    pub fn validate(&self) -> Result<(), GraphError> {
        let nv = self.vwgt.len();
        if self.xadj.len() != nv + 1 || self.xadj.first() != Some(&0) {
            return Err(GraphError::BadRowPointers);
        }
        if self.xadj.windows(2).any(|w| w[0] > w[1]) {
            return Err(GraphError::BadRowPointers);
        }
        if *self.xadj.last().unwrap() as usize != self.adjncy.len()
            || self.adjncy.len() != self.adjwgt.len()
        {
            return Err(GraphError::LengthMismatch);
        }
        for v in 0..nv {
            for (n, w) in self.neighbors(v) {
                if n >= nv {
                    return Err(GraphError::NeighborOutOfRange {
                        vertex: v,
                        neighbor: n as u32,
                    });
                }
                if n == v {
                    return Err(GraphError::SelfLoop { vertex: v });
                }
                if !self.neighbors(n).any(|(m, wm)| m == v && wm == w) {
                    return Err(GraphError::Asymmetric { u: v, v: n });
                }
            }
        }
        Ok(())
    }

    /// Whether the graph is connected (trivially true for `nv <= 1`).
    pub fn is_connected(&self) -> bool {
        let nv = self.nv();
        if nv <= 1 {
            return true;
        }
        let mut seen = vec![false; nv];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 0;
        while let Some(v) = stack.pop() {
            count += 1;
            for (n, _) in self.neighbors(v) {
                if !seen[n] {
                    seen[n] = true;
                    stack.push(n);
                }
            }
        }
        count == nv
    }

    /// Extract the induced subgraph on `verts` (which must be distinct).
    ///
    /// Returns the subgraph and the mapping `local -> global`.
    pub fn subgraph(&self, verts: &[u32]) -> (CsrGraph, Vec<u32>) {
        (self.subgraph_into(verts, &mut Vec::new()), verts.to_vec())
    }

    /// [`CsrGraph::subgraph`] with the caller's global → local map, which
    /// must be all `u32::MAX` (or shorter than `nv`) on entry and is left
    /// that way, so a recursion extracting thousands of small subgraphs
    /// of one graph fills an `nv`-long table once.
    pub(crate) fn subgraph_into(&self, verts: &[u32], global_to_local: &mut Vec<u32>) -> CsrGraph {
        if global_to_local.len() < self.nv() {
            global_to_local.resize(self.nv(), u32::MAX);
        }
        let mut degree_sum = 0usize;
        for (l, &g) in verts.iter().enumerate() {
            debug_assert_eq!(global_to_local[g as usize], u32::MAX);
            global_to_local[g as usize] = l as u32;
            degree_sum += self.degree(g as usize);
        }
        let mut xadj = Vec::with_capacity(verts.len() + 1);
        let mut adjncy = Vec::with_capacity(degree_sum);
        let mut adjwgt = Vec::with_capacity(degree_sum);
        let mut vwgt = Vec::with_capacity(verts.len());
        xadj.push(0u32);
        for &g in verts {
            vwgt.push(self.vwgt[g as usize]);
            for (n, w) in self.neighbors(g as usize) {
                let ln = global_to_local[n];
                if ln != u32::MAX {
                    adjncy.push(ln);
                    adjwgt.push(w);
                }
            }
            xadj.push(adjncy.len() as u32);
        }
        for &g in verts {
            global_to_local[g as usize] = u32::MAX;
        }
        CsrGraph {
            xadj,
            adjncy,
            adjwgt,
            vwgt,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 4-cycle with unit weights.
    fn cycle4() -> CsrGraph {
        CsrGraph::from_lists(&[
            vec![(1, 1), (3, 1)],
            vec![(0, 1), (2, 1)],
            vec![(1, 1), (3, 1)],
            vec![(2, 1), (0, 1)],
        ])
        .unwrap()
    }

    #[test]
    fn basic_accessors() {
        let g = cycle4();
        assert_eq!(g.nv(), 4);
        assert_eq!(g.ne(), 4);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.total_vwgt(), 4);
        assert_eq!(g.max_vwgt(), 1);
        assert!(g.is_connected());
    }

    #[test]
    fn validation_catches_self_loop() {
        let r = CsrGraph::new(vec![0, 1], vec![0], vec![1], vec![1]);
        assert_eq!(r.unwrap_err(), GraphError::SelfLoop { vertex: 0 });
    }

    #[test]
    fn validation_catches_asymmetry() {
        let r = CsrGraph::new(vec![0, 1, 1], vec![1], vec![1], vec![1, 1]);
        assert!(matches!(r.unwrap_err(), GraphError::Asymmetric { .. }));
    }

    #[test]
    fn validation_catches_out_of_range() {
        let r = CsrGraph::new(vec![0, 1], vec![5], vec![1], vec![1]);
        assert!(matches!(
            r.unwrap_err(),
            GraphError::NeighborOutOfRange { .. }
        ));
    }

    #[test]
    fn validation_catches_weight_mismatch() {
        // Reverse edge exists but with different weight.
        let r = CsrGraph::new(vec![0, 1, 2], vec![1, 0], vec![2, 3], vec![1, 1]);
        assert!(matches!(r.unwrap_err(), GraphError::Asymmetric { .. }));
    }

    #[test]
    fn disconnected_graph_detected() {
        let g = CsrGraph::new(vec![0, 1, 2, 2], vec![1, 0], vec![1, 1], vec![1, 1, 1]).unwrap();
        assert!(!g.is_connected());
    }

    #[test]
    fn subgraph_extraction() {
        let g = cycle4();
        let (s, map) = g.subgraph(&[0, 1]);
        assert_eq!(s.nv(), 2);
        assert_eq!(s.ne(), 1); // only the 0-1 edge survives
        assert_eq!(map, vec![0, 1]);
        s.validate().unwrap();
    }

    #[test]
    fn subgraph_preserves_weights() {
        let mut g = cycle4();
        g.vwgt = vec![5, 6, 7, 8];
        let (s, _) = g.subgraph(&[2, 3]);
        assert_eq!(s.vwgt, vec![7, 8]);
    }

    #[test]
    fn empty_graph_is_valid() {
        let g = CsrGraph::new(vec![0], vec![], vec![], vec![]).unwrap();
        assert_eq!(g.nv(), 0);
        assert!(g.is_connected());
    }

    #[test]
    fn subgraph_into_leaves_its_map_reusable() {
        let g = cycle4();
        let mut map = Vec::new();
        let a = g.subgraph_into(&[0, 1, 2], &mut map);
        assert_eq!(map, vec![u32::MAX; 4]);
        let b = g.subgraph_into(&[3, 2], &mut map);
        assert_eq!(a, g.subgraph(&[0, 1, 2]).0);
        assert_eq!(b, g.subgraph(&[3, 2]).0);
        assert_eq!(b.adjncy, vec![1, 0]); // local ids follow `verts` order
    }
}
