//! Partition quality metrics — the quantities of the paper's Table 2.
//!
//! * `edgecut` — "the number of graph edges that straddle all sub-graphs"
//!   (a count; the weighted variant is also provided).
//! * total communication volume — the paper follows METIS: "the number of
//!   vertices whose edges are cut by the partition"; the SEAM-calibrated
//!   byte volume is derived from cut edge *weights* (points exchanged).
//! * load balance, Eq. (1): `LB(S) = (max{S} − avg{S}) / max{S}`.

use crate::csr::CsrGraph;
use crate::marker::Marker;
use crate::partition::Partition;

/// The paper's load-balance measure, Eq. (1):
/// `LB(S) = (max{S} − avg{S}) / max{S}`.
///
/// Returns 0 for empty input or all-zero values (a degenerate but
/// well-defined case: nothing is imbalanced when there is no load).
pub fn load_balance(values: &[u64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let max = *values.iter().max().unwrap();
    if max == 0 {
        return 0.0;
    }
    let avg = values.iter().sum::<u64>() as f64 / values.len() as f64;
    (max as f64 - avg) / max as f64
}

/// Eq. (1) load balance over real-valued per-part loads (the
/// time-varying-weight analogue of [`load_balance`]). Non-finite or
/// non-positive maxima degenerate to 0, matching the integer variant.
pub fn load_balance_f64(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let max = values
        .iter()
        .cloned()
        .filter(|v| v.is_finite())
        .fold(0.0f64, f64::max);
    if max <= 0.0 {
        return 0.0;
    }
    let avg = values.iter().sum::<f64>() / values.len() as f64;
    (max - avg) / max
}

/// Per-part sums of real-valued element weights (the load each part
/// carries at one instant of a weight trajectory).
pub fn part_loads(p: &Partition, weights: &[f64]) -> Vec<f64> {
    let mut loads = vec![0.0f64; p.nparts()];
    for (e, &part) in p.assignment().iter().enumerate() {
        loads[part as usize] += weights[e];
    }
    loads
}

/// Number of edges cut by the partition (each undirected edge counted
/// once) — the paper's `edgecut`.
pub fn edgecut(g: &CsrGraph, p: &Partition) -> u64 {
    let mut cut = 0u64;
    for v in 0..g.nv() {
        let pv = p.part_of(v);
        for (n, _) in g.neighbors(v) {
            if n > v && p.part_of(n) != pv {
                cut += 1;
            }
        }
    }
    cut
}

/// Total weight of cut edges (points exchanged per step, each undirected
/// edge counted once).
pub fn edgecut_weight(g: &CsrGraph, p: &Partition) -> u64 {
    let mut cut = 0u64;
    for v in 0..g.nv() {
        let pv = p.part_of(v);
        for (n, w) in g.neighbors(v) {
            if n > v && p.part_of(n) != pv {
                cut += w as u64;
            }
        }
    }
    cut
}

/// METIS-style total communication volume: the number of boundary
/// vertices, counted once per *distinct remote part* they touch
/// (a vertex adjacent to two remote parts must be sent twice).
pub fn metis_volume(g: &CsrGraph, p: &Partition) -> u64 {
    let mut vol = 0u64;
    // Epoch-stamped distinct-part set, reused across all vertices: O(deg)
    // per vertex instead of the O(deg · parts-touched) of a linear scan.
    let mut seen = Marker::new(p.nparts());
    for v in 0..g.nv() {
        let pv = p.part_of(v);
        seen.clear();
        for (n, _) in g.neighbors(v) {
            let pn = p.part_of(n);
            if pn != pv && seen.mark(pn) {
                vol += 1;
            }
        }
    }
    vol
}

/// Points each part *sends* per step: for part `p`, the sum of cut-edge
/// weights incident to its vertices (the paper's per-processor
/// communication volume, `spcv`, in points).
pub fn send_points_per_part(g: &CsrGraph, p: &Partition) -> Vec<u64> {
    let mut send = vec![0u64; p.nparts()];
    for v in 0..g.nv() {
        let pv = p.part_of(v);
        for (n, w) in g.neighbors(v) {
            if p.part_of(n) != pv {
                send[pv] += w as u64;
            }
        }
    }
    send
}

/// Number of distinct neighbouring parts of each part (message count per
/// step when exchanges are aggregated per neighbour pair, as SEAM does).
pub fn neighbor_parts(g: &CsrGraph, p: &Partition) -> Vec<usize> {
    let k = p.nparts();
    // Group vertices by owning part (counting sort) so each part's
    // distinct-neighbour set is one epoch of a single stamped marker,
    // instead of a per-part Vec with an O(parts-touched) contains scan.
    let mut offsets = vec![0usize; k + 1];
    for v in 0..g.nv() {
        offsets[p.part_of(v) + 1] += 1;
    }
    for i in 0..k {
        offsets[i + 1] += offsets[i];
    }
    let mut members = vec![0u32; g.nv()];
    let mut cursor = offsets.clone();
    for v in 0..g.nv() {
        let pv = p.part_of(v);
        members[cursor[pv]] = v as u32;
        cursor[pv] += 1;
    }
    let mut seen = Marker::new(k);
    let mut counts = vec![0usize; k];
    for pv in 0..k {
        seen.clear();
        for &v in &members[offsets[pv]..offsets[pv + 1]] {
            for (n, _) in g.neighbors(v as usize) {
                let pn = p.part_of(n);
                if pn != pv && seen.mark(pn) {
                    counts[pv] += 1;
                }
            }
        }
    }
    counts
}

/// Points sent from part `a` to part `b` per step, for every ordered
/// adjacent pair, as a sparse list `(from, to, points)` sorted by
/// `(from, to)`.
pub fn part_exchange_points(g: &CsrGraph, p: &Partition) -> Vec<(u32, u32, u64)> {
    // One record per cut half-edge, keyed `from << 32 | to` so that the
    // integer order is the `(from, to)` order; sort, then merge each run.
    let mut cut: Vec<(u64, u64)> = Vec::new();
    for v in 0..g.nv() {
        let pv = p.part_of(v) as u64;
        for (n, w) in g.neighbors(v) {
            let pn = p.part_of(n) as u64;
            if pn != pv {
                cut.push((pv << 32 | pn, w as u64));
            }
        }
    }
    cut.sort_unstable();
    let mut out: Vec<(u32, u32, u64)> = Vec::new();
    for (key, w) in cut {
        let (from, to) = ((key >> 32) as u32, key as u32);
        match out.last_mut() {
            Some((a, b, points)) if (*a, *b) == (from, to) => *points += w,
            _ => out.push((from, to, w)),
        }
    }
    out
}

/// A bundle of the Table 2 statistics for one partition.
#[derive(Clone, Debug, PartialEq)]
pub struct PartitionStats {
    /// Per-part element (vertex) counts — `nelemd`.
    pub nelemd: Vec<u64>,
    /// `LB(nelemd)` (Eq. 1).
    pub lb_nelemd: f64,
    /// Per-part send volume in points — `spcv`.
    pub spcv: Vec<u64>,
    /// `LB(spcv)` (Eq. 1).
    pub lb_spcv: f64,
    /// Total communication volume in points (sum of `spcv`).
    pub total_points: u64,
    /// Edgecut (count of cut edges).
    pub edgecut: u64,
    /// METIS-definition communication volume (boundary-vertex count,
    /// weighted by distinct remote parts).
    pub metis_volume: u64,
}

/// Compute the full statistics bundle.
pub fn partition_stats(g: &CsrGraph, p: &Partition) -> PartitionStats {
    let nelemd = p.part_weights(g);
    let spcv = send_points_per_part(g, p);
    let total_points = spcv.iter().sum();
    PartitionStats {
        lb_nelemd: load_balance(&nelemd),
        lb_spcv: load_balance(&spcv),
        nelemd,
        total_points,
        spcv,
        edgecut: edgecut(g, p),
        metis_volume: metis_volume(g, p),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrGraph;

    /// A 2×2 grid graph (4-cycle) with unit weights.
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
    fn eq1_load_balance() {
        // LB({2, 2}) = 0; LB({3, 1}) = (3 - 2)/3.
        assert_eq!(load_balance(&[2, 2]), 0.0);
        assert!((load_balance(&[3, 1]) - 1.0 / 3.0).abs() < 1e-15);
        assert_eq!(load_balance(&[]), 0.0);
        assert_eq!(load_balance(&[0, 0]), 0.0);
        // Empty parts count toward the average: LB({2, 0}) = 0.5.
        assert!((load_balance(&[2, 0]) - 0.5).abs() < 1e-15);
    }

    #[test]
    fn edgecut_on_cycle() {
        let g = cycle4();
        // Split {0,1} vs {2,3}: cuts edges (1,2) and (3,0).
        let p = Partition::new(2, vec![0, 0, 1, 1]);
        assert_eq!(edgecut(&g, &p), 2);
        assert_eq!(edgecut_weight(&g, &p), 2);
        // One vertex alone cuts 2 edges.
        let p = Partition::new(2, vec![1, 0, 0, 0]);
        assert_eq!(edgecut(&g, &p), 2);
    }

    #[test]
    fn metis_volume_counts_distinct_remote_parts() {
        let g = cycle4();
        // Three parts: vertex 0 alone, vertex 2 alone, {1,3} together.
        let p = Partition::new(3, vec![0, 1, 2, 1]);
        // v0 touches parts {1}, ×2 edges -> 1; v1 touches {0, 2} -> 2;
        // v2 touches {1} -> 1; v3 touches {0, 2} -> 2. Total 6.
        assert_eq!(metis_volume(&g, &p), 6);
    }

    #[test]
    fn send_points_symmetric_for_balanced_cut() {
        let g = cycle4();
        let p = Partition::new(2, vec![0, 0, 1, 1]);
        assert_eq!(send_points_per_part(&g, &p), vec![2, 2]);
    }

    #[test]
    fn exchange_points_are_pairwise_symmetric() {
        let g = cycle4();
        let p = Partition::new(2, vec![0, 1, 0, 1]);
        let ex = part_exchange_points(&g, &p);
        // Every edge is cut: each direction carries 4 points.
        assert_eq!(ex, vec![(0, 1, 4), (1, 0, 4)]);
    }

    #[test]
    fn neighbor_parts_counts() {
        let g = cycle4();
        let p = Partition::new(2, vec![0, 0, 1, 1]);
        assert_eq!(neighbor_parts(&g, &p), vec![1, 1]);
        let p3 = Partition::new(3, vec![0, 1, 2, 1]);
        assert_eq!(neighbor_parts(&g, &p3), vec![1, 2, 1]);
    }

    #[test]
    fn stats_bundle_consistency() {
        let g = cycle4();
        let p = Partition::new(2, vec![0, 0, 1, 1]);
        let s = partition_stats(&g, &p);
        assert_eq!(s.nelemd, vec![2, 2]);
        assert_eq!(s.lb_nelemd, 0.0);
        assert_eq!(s.edgecut, 2);
        assert_eq!(s.total_points, 4); // 2 cut edges × 2 directions
        assert_eq!(s.spcv, vec![2, 2]);
        assert_eq!(s.lb_spcv, 0.0);
    }

    #[test]
    fn weighted_edges_affect_points_not_count() {
        let g = CsrGraph::from_lists(&[vec![(1, 8)], vec![(0, 8), (2, 1)], vec![(1, 1)]]).unwrap();
        let p = Partition::new(2, vec![0, 1, 1]);
        assert_eq!(edgecut(&g, &p), 1);
        assert_eq!(edgecut_weight(&g, &p), 8);
        assert_eq!(send_points_per_part(&g, &p), vec![8, 8]);
    }
}
