//! Partition quality metrics — the quantities of the paper's Table 2.
//!
//! * `edgecut` — "the number of graph edges that straddle all sub-graphs"
//!   (a count; the weighted variant is also provided).
//! * total communication volume — the paper follows METIS: "the number of
//!   vertices whose edges are cut by the partition"; the SEAM-calibrated
//!   byte volume is derived from cut edge *weights* (points exchanged).
//! * load balance, Eq. (1): `LB(S) = (max{S} − avg{S}) / max{S}`.
//!
//! Nothing here is stored between calls. A whole report — the
//! [`PartitionStats`] bundle *and* the per-pair exchange list the
//! performance model prices — comes out of one pass over the graph,
//! [`cut_sweep`]: vertices are visited grouped by owning part, and each
//! cut half-edge updates the send volume, the cut count, the METIS volume
//! and a dense per-remote-part accumulator in the same step.
//! [`edgecut`], [`edgecut_weight`], [`metis_volume`] and
//! [`send_points_per_part`] are the single-purpose definitions the sweep
//! is tested against.

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
/// time-varying-weight analogue of [`load_balance`]). Non-finite loads
/// are left out of both the maximum and the average; no finite load, or
/// a non-positive maximum, degenerates to 0, matching the integer variant.
pub fn load_balance_f64(values: &[f64]) -> f64 {
    let finite = || values.iter().copied().filter(|v| v.is_finite());
    let max = finite().fold(0.0f64, f64::max);
    if max <= 0.0 {
        return 0.0;
    }
    let avg = finite().sum::<f64>() / finite().count() as f64;
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
    let mut counts = vec![0usize; p.nparts()];
    for (from, _, _) in part_exchange_points(g, p) {
        counts[from as usize] += 1;
    }
    counts
}

/// Points sent from part `a` to part `b` per step, for every ordered
/// adjacent pair, as a sparse list `(from, to, points)` sorted by
/// `(from, to)`.
pub fn part_exchange_points(g: &CsrGraph, p: &Partition) -> Vec<(u32, u32, u64)> {
    cut_sweep(g, p).1
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
    cut_sweep(g, p).0
}

/// One pass over the graph yielding the statistics bundle and the
/// exchange list of [`part_exchange_points`].
///
/// Vertices are visited grouped by owning part (a counting sort), so the
/// points a part sends to each remote part accumulate in one dense array
/// that is reused from part to part; the remote parts a part touched are
/// sorted before they are emitted, which makes the list `(from, to)`-sorted
/// with no global sort. A cut edge of weight 0 still yields its entry, and
/// a part with no members yields none.
pub fn cut_sweep(g: &CsrGraph, p: &Partition) -> (PartitionStats, Vec<(u32, u32, u64)>) {
    let k = p.nparts();
    let mut offsets = vec![0usize; k + 1];
    for &part in p.assignment() {
        offsets[part as usize + 1] += 1;
    }
    for i in 0..k {
        offsets[i + 1] += offsets[i];
    }
    let mut members = vec![0u32; g.nv()];
    let mut cursor = offsets.clone();
    for (v, &part) in p.assignment().iter().enumerate() {
        members[cursor[part as usize]] = v as u32;
        cursor[part as usize] += 1;
    }

    let mut nelemd = vec![0u64; k];
    let mut spcv = vec![0u64; k];
    let (mut edgecut, mut metis_volume) = (0u64, 0u64);
    let mut exchange = Vec::new();
    // Points the current part sends to each remote part; `touched` lists
    // the entries in use (stamped in `sent_to`), `seen` is the distinct
    // remote parts of the current vertex.
    let mut points = vec![0u64; k];
    let mut touched: Vec<u32> = Vec::new();
    let mut sent_to = Marker::new(k);
    let mut seen = Marker::new(k);
    for pv in 0..k {
        sent_to.clear();
        touched.clear();
        for &v in &members[offsets[pv]..offsets[pv + 1]] {
            let v = v as usize;
            nelemd[pv] += g.vwgt[v] as u64;
            seen.clear();
            for (n, w) in g.neighbors(v) {
                let pn = p.part_of(n);
                if pn == pv {
                    continue;
                }
                spcv[pv] += w as u64;
                edgecut += (n > v) as u64;
                metis_volume += seen.mark(pn) as u64;
                if sent_to.mark(pn) {
                    touched.push(pn as u32);
                    points[pn] = 0;
                }
                points[pn] += w as u64;
            }
        }
        touched.sort_unstable();
        exchange.extend(
            touched
                .iter()
                .map(|&to| (pv as u32, to, points[to as usize])),
        );
    }

    let stats = PartitionStats {
        lb_nelemd: load_balance(&nelemd),
        lb_spcv: load_balance(&spcv),
        nelemd,
        total_points: spcv.iter().sum(),
        spcv,
        edgecut,
        metis_volume,
    };
    (stats, exchange)
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
    fn eq1_load_balance_f64_ignores_non_finite_loads() {
        assert_eq!(load_balance_f64(&[]), 0.0);
        assert_eq!(load_balance_f64(&[0.0, 0.0]), 0.0);
        assert!((load_balance_f64(&[3.0, 1.0]) - 1.0 / 3.0).abs() < 1e-15);
        // One NaN load used to make the average NaN, one +∞ made it +∞
        // (a result of −∞): both are now left out of max and average.
        assert_eq!(load_balance_f64(&[1.0, f64::NAN]), 0.0);
        assert_eq!(load_balance_f64(&[1.0, f64::INFINITY]), 0.0);
        assert!((load_balance_f64(&[3.0, f64::NAN, 1.0]) - 1.0 / 3.0).abs() < 1e-15);
        assert_eq!(load_balance_f64(&[f64::NAN, f64::NEG_INFINITY]), 0.0);
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
