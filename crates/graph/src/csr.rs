//! Compressed-sparse-row undirected weighted graphs.
//!
//! The layout matches the classic METIS interface: vertex `v`'s neighbours
//! are `adjncy[xadj[v]..xadj[v+1]]` with edge weights in the parallel
//! `adjwgt` positions, and every undirected edge is stored twice.

use crate::share::{share_chunks, PARALLEL_MIN_VERTICES};
use std::fmt;
use std::ops::Range;

/// Row ranges a shared validation is cut into.
const VALIDATE_CHUNKS: usize = 8;

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
    /// A vertex lists the same neighbour twice.
    RepeatedNeighbor {
        /// Offending vertex.
        vertex: usize,
        /// The neighbour listed more than once.
        neighbor: u32,
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
            GraphError::RepeatedNeighbor { vertex, neighbor } => {
                write!(
                    f,
                    "vertex {vertex} lists neighbor {neighbor} more than once"
                )
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
    ///
    /// Every forward entry `(v, n, w)`, `n > v`, claims the first `v` in
    /// row `n`, which must carry weight `w`, and no entry may be claimed
    /// twice. Claims are then one-to-one, so when there are as many
    /// backward entries (`n < v`) as forward ones every backward entry is
    /// claimed exactly once: the graph is symmetric with equal weights,
    /// and as no claim reaches a second `v` in a row, no row repeats a
    /// neighbour. From [`PARALLEL_MIN_VERTICES`] on, two threads share
    /// the rows ([`crate::share`]) and their counts are summed. A failure
    /// is named by `first_fault`: the same `(u, v)` the entry-by-entry
    /// scan finds first.
    pub fn validate(&self) -> Result<(), GraphError> {
        let _span = cubesfc_obs::span("validate");
        self.validate_rows()?;
        let nv = self.vwgt.len();
        let share = nv >= PARALLEL_MIN_VERTICES;
        let chunks = if share { VALIDATE_CHUNKS } else { 1 };
        let rows = (0..chunks).map(|c| c * nv / chunks..(c + 1) * nv / chunks);
        let counts = share_chunks(
            rows.collect(),
            if share { 2 } else { 1 },
            // One claim bit per entry of `adjncy`. A row's claims land in
            // other rows, but only a row can claim its own reverses twice,
            // so each thread keeps its bits across the chunks it runs.
            || vec![0u64; self.adjncy.len().div_ceil(64)],
            |claimed, rows| self.row_counts(rows, claimed),
        );
        let sums = counts.into_iter().try_fold((0, 0), |(f, b), counts| {
            counts.map(|(forward, backward)| (f + forward, b + backward))
        });
        match sums {
            Some((forward, backward)) if forward == backward => Ok(()),
            _ => Err(self.first_fault()),
        }
    }

    /// The forward and backward entry counts of `rows`, or `None` when an
    /// entry is out of range or a self-loop, or a forward entry's claim
    /// fails: no `v` in row `n`, a different weight on the first one, or
    /// a claim on an entry already claimed.
    fn row_counts(&self, rows: Range<usize>, claimed: &mut [u64]) -> Option<(usize, usize)> {
        let nv = self.vwgt.len();
        let (mut forward, mut backward) = (0usize, 0usize);
        for v in rows {
            let (lo, hi) = (self.xadj[v] as usize, self.xadj[v + 1] as usize);
            for (&n, &w) in self.adjncy[lo..hi].iter().zip(&self.adjwgt[lo..hi]) {
                let n = n as usize;
                if n >= nv || n == v {
                    return None;
                }
                if n < v {
                    backward += 1;
                    continue;
                }
                let back = self.xadj[n] as usize;
                let row = &self.adjncy[back..self.xadj[n + 1] as usize];
                let at = back + row.iter().position(|&m| m as usize == v)?;
                let (word, bit) = (at / 64, 1u64 << (at % 64));
                if self.adjwgt[at] != w || claimed[word] & bit != 0 {
                    return None;
                }
                claimed[word] |= bit;
                forward += 1;
            }
        }
        Some((forward, backward))
    }

    /// The error of a graph whose rows failed [`CsrGraph::row_counts`]:
    /// what the entry-by-entry scan ([`CsrGraph::entry_fault`]) names,
    /// and otherwise the first repeated neighbour, the one fault that scan
    /// cannot see.
    #[cold]
    fn first_fault(&self) -> GraphError {
        if let Some(fault) = self.entry_fault() {
            return fault;
        }
        // Every entry has an equal-weight reverse, so the counts differed
        // or a row repeated itself; unequal counts need a repeat too.
        (0..self.nv())
            .find_map(|v| {
                let row = &self.adjncy[self.xadj[v] as usize..self.xadj[v + 1] as usize];
                (1..row.len())
                    .find(|&k| row[..k].contains(&row[k]))
                    .map(|k| GraphError::RepeatedNeighbor {
                        vertex: v,
                        neighbor: row[k],
                    })
            })
            .expect("a graph that fails the row checks has a faulty entry")
    }

    /// The row-pointer and length invariants every other check relies on.
    fn validate_rows(&self) -> Result<(), GraphError> {
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
        Ok(())
    }

    /// The first entry, in row order, that is out of range, a self-loop
    /// or without an equal-weight reverse: the entry-by-entry scan.
    #[cold]
    fn entry_fault(&self) -> Option<GraphError> {
        let nv = self.nv();
        for v in 0..nv {
            for (n, w) in self.neighbors(v) {
                if n >= nv {
                    return Some(GraphError::NeighborOutOfRange {
                        vertex: v,
                        neighbor: n as u32,
                    });
                }
                if n == v {
                    return Some(GraphError::SelfLoop { vertex: v });
                }
                if !self.neighbors(n).any(|(m, wm)| m == v && wm == w) {
                    return Some(GraphError::Asymmetric { u: v, v: n });
                }
            }
        }
        None
    }

    /// The check `validate` ran before the row counts, the entry-by-entry
    /// scan alone: the reference it is held to.
    #[cfg(test)]
    fn validate_reference(&self) -> Result<(), GraphError> {
        self.validate_rows()?;
        self.entry_fault().map_or(Ok(()), Err)
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
    use crate::rng::SplitMix64;
    use crate::testgraphs::{grid, wide_graph};
    use proptest::prelude::*;

    impl CsrGraph {
        /// Whether the graph is connected (trivially true for `nv <= 1`).
        pub(crate) fn is_connected(&self) -> bool {
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
    }

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

    /// `g` with one entry, drawn from `pick`, mutated: `kind` 0 changes
    /// its neighbour (possibly out of range, to a self-loop or to a
    /// repeat), 1 its weight, 2 deletes it, so that its reverse loses its
    /// twin. `None` when the graph has no entry or the new neighbour is
    /// the old one.
    fn mutated(g: &CsrGraph, kind: usize, pick: u64) -> Option<CsrGraph> {
        if g.adjncy.is_empty() {
            return None;
        }
        let mut rng = SplitMix64::new(pick);
        let at = rng.below(g.adjncy.len());
        let mut m = g.clone();
        match kind {
            0 => {
                let n = rng.below(g.nv() + 2) as u32;
                if n == g.adjncy[at] {
                    return None;
                }
                m.adjncy[at] = n;
            }
            1 => m.adjwgt[at] = g.adjwgt[at].wrapping_add(1 + rng.below(5) as u32),
            _ => {
                m.adjncy.remove(at);
                m.adjwgt.remove(at);
                let v = g.xadj.partition_point(|&x| x as usize <= at) - 1;
                m.xadj[v + 1..].iter_mut().for_each(|x| *x -= 1);
            }
        }
        Some(m)
    }

    /// `g` with the edge of entry `at` listed a second time in both its
    /// rows, weight and all: every entry still has an equal-weight
    /// reverse. Returns the graph and the edge `(u, v)`, `u < v`.
    fn repeated(g: &CsrGraph, at: usize) -> (CsrGraph, usize, usize) {
        let u = g.xadj.partition_point(|&x| x as usize <= at) - 1;
        let (v, w) = (g.adjncy[at], g.adjwgt[at]);
        let mut lists: Vec<Vec<(u32, u32)>> = (0..g.nv())
            .map(|x| g.neighbors(x).map(|(n, w)| (n as u32, w)).collect())
            .collect();
        lists[u].push((v, w));
        lists[v as usize].push((u as u32, w));
        let mut m = CsrGraph {
            xadj: vec![0],
            adjncy: Vec::new(),
            adjwgt: Vec::new(),
            vwgt: g.vwgt.clone(),
        };
        for l in &lists {
            m.adjncy.extend(l.iter().map(|&(n, _)| n));
            m.adjwgt.extend(l.iter().map(|&(_, w)| w));
            m.xadj.push(m.adjncy.len() as u32);
        }
        (m, u.min(v as usize), u.max(v as usize))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(384))]

        #[test]
        fn one_mutated_entry_gets_the_reference_error(
            seed in any::<u64>(),
            kind in 0usize..3,
            pick in any::<u64>(),
        ) {
            let g = wide_graph(seed);
            prop_assert_eq!(g.validate(), Ok(()));
            let m = mutated(&g, kind, pick);
            prop_assume!(m.is_some());
            let m = m.unwrap();
            let reference = m.validate_reference();
            prop_assert!(reference.is_err());
            prop_assert_eq!(m.validate(), reference);
        }

        #[test]
        fn a_repeated_entry_with_its_own_reverse_is_refused_only_by_validate(
            seed in any::<u64>(),
            pick in any::<u64>(),
        ) {
            let g = wide_graph(seed);
            prop_assume!(!g.adjncy.is_empty());
            let at = SplitMix64::new(pick).below(g.adjncy.len());
            let (m, u, v) = repeated(&g, at);
            prop_assert_eq!(m.validate_reference(), Ok(()));
            prop_assert_eq!(
                m.validate(),
                Err(GraphError::RepeatedNeighbor { vertex: u, neighbor: v as u32 })
            );
        }
    }

    #[test]
    fn shared_validation_names_the_reference_error() {
        // Above the threshold two threads share the rows.
        let g = grid(200, 200);
        assert!(g.nv() >= PARALLEL_MIN_VERTICES);
        assert_eq!(g.validate(), Ok(()));
        for pick in 0..16 {
            for kind in 0..3 {
                if let Some(m) = mutated(&g, kind, pick) {
                    let reference = m.validate_reference();
                    assert!(reference.is_err(), "kind {kind} pick {pick}");
                    assert_eq!(m.validate(), reference, "kind {kind} pick {pick}");
                }
            }
        }
        // An edge whose ends lie in different chunks, listed twice.
        let at = (g.xadj[4_950] as usize..g.xadj[4_951] as usize)
            .find(|&at| g.adjncy[at] == 5_150)
            .unwrap();
        let (m, u, v) = repeated(&g, at);
        assert_eq!((u, v), (4_950, 5_150));
        assert_eq!(m.validate_reference(), Ok(()));
        assert_eq!(
            m.validate(),
            Err(GraphError::RepeatedNeighbor {
                vertex: 4_950,
                neighbor: 5_150
            })
        );
    }

    #[test]
    fn validation_catches_a_repeated_neighbor() {
        let r = CsrGraph::new(
            vec![0, 2, 4],
            vec![1, 1, 0, 0],
            vec![1, 1, 1, 1],
            vec![1, 1],
        );
        assert_eq!(
            r.unwrap_err(),
            GraphError::RepeatedNeighbor {
                vertex: 0,
                neighbor: 1
            }
        );
    }
}
