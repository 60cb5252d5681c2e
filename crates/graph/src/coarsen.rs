//! Multilevel coarsening via heavy-edge matching (Karypis & Kumar).
//!
//! Coarsening collapses a maximal matching of the graph; heavy-edge
//! matching prefers the heaviest incident edge so that large edge weights
//! are hidden inside coarse vertices and the coarse graph's total exposed
//! edge weight shrinks quickly.
//!
//! [`contract`] builds each coarse row straight from the matching (a
//! vertex, then its mate); the version that first gathered a member list
//! per coarse vertex is kept under `#[cfg(test)]` as the reference.

use crate::csr::CsrGraph;
use crate::rng::SplitMix64;

/// One coarsening level: the coarse graph and the projection map.
#[derive(Clone, Debug)]
pub struct CoarseLevel {
    /// The coarse graph.
    pub graph: CsrGraph,
    /// `cmap[fine_vertex] = coarse_vertex` into `graph`.
    pub cmap: Vec<u32>,
}

/// Compute a heavy-edge matching: `mate[v]` is `v`'s partner, or `v`
/// itself if unmatched. Vertices are visited in random order; each
/// unmatched vertex grabs its heaviest unmatched neighbour.
pub fn heavy_edge_matching(g: &CsrGraph, rng: &mut SplitMix64) -> Vec<u32> {
    let nv = g.nv();
    let mut mate: Vec<u32> = (0..nv as u32).collect();
    let mut matched = vec![false; nv];
    for &v in &rng.permutation(nv) {
        let v = v as usize;
        if matched[v] {
            continue;
        }
        let mut best: Option<(u32, usize)> = None; // (weight, neighbor)
        for (n, w) in g.neighbors(v) {
            if !matched[n] && best.is_none_or(|(bw, _)| w > bw) {
                best = Some((w, n));
            }
        }
        if let Some((_, n)) = best {
            mate[v] = n as u32;
            mate[n] = v as u32;
            matched[v] = true;
            matched[n] = true;
        }
    }
    mate
}

/// Collapse a matching into a coarse graph.
///
/// `mate` must be an involution (`mate[mate[v]] == v`, as
/// [`heavy_edge_matching`] returns). Coarse ids go out in order of first
/// appearance, and a coarse vertex's row is built from its first fine
/// vertex and then that vertex's mate — ascending fine ids.
pub fn contract(g: &CsrGraph, mate: &[u32]) -> CoarseLevel {
    let nv = g.nv();
    debug_assert!((0..nv).all(|v| mate[mate[v] as usize] as usize == v));
    // Assign coarse ids in order of first appearance.
    let mut cmap = vec![u32::MAX; nv];
    let mut nc = 0u32;
    for v in 0..nv {
        if cmap[v] == u32::MAX {
            cmap[v] = nc;
            cmap[mate[v] as usize] = nc;
            nc += 1;
        }
    }
    let ncs = nc as usize;

    let mut xadj = Vec::with_capacity(ncs + 1);
    let mut adjncy: Vec<u32> = Vec::new();
    let mut adjwgt: Vec<u32> = Vec::new();
    let mut vwgt = Vec::with_capacity(ncs);
    // Scratch accumulator: position of coarse neighbour in the current row.
    let mut pos = vec![u32::MAX; ncs];
    xadj.push(0u32);

    for (first, &second) in mate.iter().enumerate() {
        let second = second as usize;
        if second < first {
            continue; // the row was built when `second` came by
        }
        let c = vwgt.len();
        let row_start = adjncy.len();
        let mut weight = 0u32;
        for &v in &[first, second][..1 + (second != first) as usize] {
            weight += g.vwgt[v];
            for (n, w) in g.neighbors(v) {
                let cn = cmap[n];
                if cn as usize == c {
                    continue; // internal edge disappears
                }
                if pos[cn as usize] == u32::MAX {
                    pos[cn as usize] = adjncy.len() as u32;
                    adjncy.push(cn);
                    adjwgt.push(w);
                } else {
                    adjwgt[pos[cn as usize] as usize] += w;
                }
            }
        }
        vwgt.push(weight);
        for &n in &adjncy[row_start..] {
            pos[n as usize] = u32::MAX;
        }
        xadj.push(adjncy.len() as u32);
    }

    CoarseLevel {
        graph: CsrGraph {
            xadj,
            adjncy,
            adjwgt,
            vwgt,
        },
        cmap,
    }
}

/// Coarsen repeatedly until at most `coarsen_to` vertices remain or the
/// graph stops shrinking. Returns the hierarchy, coarsest last; empty if
/// the input is already small enough.
pub fn coarsen(g: &CsrGraph, coarsen_to: usize, rng: &mut SplitMix64) -> Vec<CoarseLevel> {
    let _span = cubesfc_obs::span("coarsen");
    let mut levels: Vec<CoarseLevel> = Vec::new();
    loop {
        let current = levels.last().map(|l| &l.graph).unwrap_or(g);
        if current.nv() <= coarsen_to {
            break;
        }
        let mate = {
            let _span = cubesfc_obs::span("match");
            heavy_edge_matching(current, rng)
        };
        let level = {
            let _span = cubesfc_obs::span("contract");
            contract(current, &mate)
        };
        // Insufficient shrinkage (graph too star-like to match): stop.
        if level.graph.nv() as f64 > current.nv() as f64 * 0.95 {
            break;
        }
        levels.push(level);
    }
    levels
}

#[cfg(test)]
mod reference {
    //! Contraction as it was: one `Vec` of members per coarse vertex.
    use super::{CoarseLevel, CsrGraph};

    /// Collapse a matching into a coarse graph.
    pub(super) fn contract(g: &CsrGraph, mate: &[u32]) -> CoarseLevel {
        let nv = g.nv();
        // Assign coarse ids in order of first appearance.
        let mut cmap = vec![u32::MAX; nv];
        let mut nc = 0u32;
        for v in 0..nv {
            if cmap[v] == u32::MAX {
                cmap[v] = nc;
                cmap[mate[v] as usize] = nc;
                nc += 1;
            }
        }
        let ncs = nc as usize;

        let mut xadj = Vec::with_capacity(ncs + 1);
        let mut adjncy: Vec<u32> = Vec::new();
        let mut adjwgt: Vec<u32> = Vec::new();
        let mut vwgt = vec![0u32; ncs];
        // Scratch accumulator: position of coarse neighbour in the current row.
        let mut pos = vec![u32::MAX; ncs];
        xadj.push(0u32);

        let mut members: Vec<Vec<u32>> = vec![Vec::new(); ncs];
        for v in 0..nv {
            members[cmap[v] as usize].push(v as u32);
        }

        for (c, mem) in members.iter().enumerate() {
            let row_start = adjncy.len();
            for &v in mem {
                vwgt[c] += g.vwgt[v as usize];
                for (n, w) in g.neighbors(v as usize) {
                    let cn = cmap[n];
                    if cn as usize == c {
                        continue; // internal edge disappears
                    }
                    if pos[cn as usize] == u32::MAX {
                        pos[cn as usize] = adjncy.len() as u32;
                        adjncy.push(cn);
                        adjwgt.push(w);
                    } else {
                        adjwgt[pos[cn as usize] as usize] += w;
                    }
                }
            }
            for &n in &adjncy[row_start..] {
                pos[n as usize] = u32::MAX;
            }
            xadj.push(adjncy.len() as u32);
        }

        CoarseLevel {
            graph: CsrGraph {
                xadj,
                adjncy,
                adjwgt,
                vwgt,
            },
            cmap,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ring of n vertices, unit weights.
    fn ring(n: usize) -> CsrGraph {
        let lists: Vec<Vec<(u32, u32)>> = (0..n)
            .map(|v| vec![(((v + n - 1) % n) as u32, 1), (((v + 1) % n) as u32, 1)])
            .collect();
        CsrGraph::from_lists(&lists).unwrap()
    }

    #[test]
    fn matching_is_consistent() {
        let g = ring(10);
        let mut rng = SplitMix64::new(1);
        let mate = heavy_edge_matching(&g, &mut rng);
        for v in 0..10 {
            let m = mate[v] as usize;
            assert_eq!(mate[m] as usize, v, "mate is not an involution");
            if m != v {
                assert!(g.neighbors(v).any(|(n, _)| n == m), "mate not a neighbor");
            }
        }
    }

    #[test]
    fn matching_prefers_heavy_edges() {
        // Triangle with one heavy edge (0-1, weight 9). Whenever vertex 0
        // or 1 is visited first (2 of 3 orders), the heavy edge must be
        // matched; over many seeds, that dominates.
        let g = CsrGraph::from_lists(&[
            vec![(1, 9), (2, 1)],
            vec![(0, 9), (2, 1)],
            vec![(0, 1), (1, 1)],
        ])
        .unwrap();
        let mut heavy_matched = 0;
        for seed in 0..30 {
            let mut rng = SplitMix64::new(seed);
            let mate = heavy_edge_matching(&g, &mut rng);
            if mate[0] == 1 {
                assert_eq!(mate[1], 0);
                heavy_matched += 1;
            }
        }
        assert!(heavy_matched >= 15, "heavy edge matched {heavy_matched}/30");
    }

    #[test]
    fn contraction_preserves_total_vertex_weight() {
        let g = ring(12);
        let mut rng = SplitMix64::new(2);
        let mate = heavy_edge_matching(&g, &mut rng);
        let lvl = contract(&g, &mate);
        assert_eq!(lvl.graph.total_vwgt(), g.total_vwgt());
        lvl.graph.validate().unwrap();
    }

    #[test]
    fn contraction_accumulates_parallel_edges() {
        // Square 0-1-2-3 with both 0-1 and 2-3 matched: coarse graph is two
        // vertices joined by the two cross edges, combined weight 2.
        let g = ring(4);
        let mate = vec![1, 0, 3, 2];
        let lvl = contract(&g, &mate);
        assert_eq!(lvl.graph.nv(), 2);
        assert_eq!(lvl.graph.ne(), 1);
        assert_eq!(lvl.graph.adjwgt, vec![2, 2]);
    }

    #[test]
    fn coarsen_reaches_target() {
        let g = ring(128);
        let mut rng = SplitMix64::new(5);
        let levels = coarsen(&g, 16, &mut rng);
        assert!(!levels.is_empty());
        let coarsest = &levels.last().unwrap().graph;
        assert!(coarsest.nv() <= 16 || coarsest.nv() as f64 > 0.95 * 128.0);
        // Weight conserved through every level.
        for l in &levels {
            assert_eq!(l.graph.total_vwgt(), g.total_vwgt());
            l.graph.validate().unwrap();
        }
    }

    #[test]
    fn coarsen_noop_for_small_graph() {
        let g = ring(8);
        let mut rng = SplitMix64::new(5);
        assert!(coarsen(&g, 16, &mut rng).is_empty());
    }

    #[test]
    fn cmap_is_total_and_in_range() {
        let g = ring(30);
        let mut rng = SplitMix64::new(9);
        let mate = heavy_edge_matching(&g, &mut rng);
        let lvl = contract(&g, &mate);
        for &c in &lvl.cmap {
            assert!((c as usize) < lvl.graph.nv());
        }
    }

    #[test]
    fn contraction_equals_the_member_list_reference_at_every_level() {
        use crate::testgraphs::wide_graph;
        for seed in 0..300u64 {
            let mut rng = SplitMix64::new(seed);
            let mut current = wide_graph(seed);
            for level in 0..4 {
                let mate = heavy_edge_matching(&current, &mut rng);
                let got = contract(&current, &mate);
                let want = reference::contract(&current, &mate);
                assert_eq!(got.graph, want.graph, "graph {seed} level {level}");
                assert_eq!(got.cmap, want.cmap, "graph {seed} level {level}");
                current = got.graph;
            }
        }
    }
}
