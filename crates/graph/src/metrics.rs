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
use crate::share::{share_chunks, PARALLEL_MIN_VERTICES};
use std::ops::Range;

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
///
/// From [`PARALLEL_MIN_VERTICES`] on, the part range is cut into chunks
/// of about equal membership that two threads share ([`crate::share`]);
/// each chunk sweeps its own parts with a thread's accumulators, and the
/// chunks' `nelemd`, `spcv` and exchange lists are concatenated in part
/// order and their counts summed, so the output is the single sweep's to
/// the bit.
pub fn cut_sweep(g: &CsrGraph, p: &Partition) -> (PartitionStats, Vec<(u32, u32, u64)>) {
    cut_sweep_shared(g, p, g.nv() >= PARALLEL_MIN_VERTICES)
}

/// Part ranges a shared sweep is cut into.
const SWEEP_CHUNKS: usize = 4;

/// [`cut_sweep`] with the sharing chosen by the caller, so tests can hold
/// the shared sweep to the single one on small graphs.
fn cut_sweep_shared(
    g: &CsrGraph,
    p: &Partition,
    share: bool,
) -> (PartitionStats, Vec<(u32, u32, u64)>) {
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

    let sweep = PartSweep {
        g,
        part: p.assignment(),
        members: &members,
        offsets: &offsets,
    };
    let chunks = if share { SWEEP_CHUNKS } else { 1 };
    // Chunk `c` starts at the first part whose members start at or past
    // `c / chunks` of the vertices.
    let starts: Vec<usize> = (0..chunks)
        .map(|c| offsets[..k].partition_point(|&o| o < c * g.nv() / chunks))
        .chain([k])
        .collect();
    let swept = share_chunks(
        starts.windows(2).map(|w| w[0]..w[1]).collect(),
        if share { 2 } else { 1 },
        || Accumulators::new(k),
        |acc, parts| sweep.run(parts, acc),
    );

    let (mut nelemd, mut spcv) = (Vec::with_capacity(k), Vec::with_capacity(k));
    let (mut edgecut, mut metis_volume) = (0u64, 0u64);
    let mut exchange = Vec::new();
    for chunk in swept {
        nelemd.extend(chunk.nelemd);
        spcv.extend(chunk.spcv);
        edgecut += chunk.edgecut;
        metis_volume += chunk.metis_volume;
        exchange.extend(chunk.exchange);
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

/// The graph, the partition and its vertices grouped by part: part `q`'s
/// members, in ascending id order, are `members[offsets[q]..offsets[q + 1]]`.
struct PartSweep<'a> {
    g: &'a CsrGraph,
    part: &'a [u32],
    members: &'a [u32],
    offsets: &'a [usize],
}

/// A thread's dense per-remote-part accumulators, reused from part to
/// part: `points` a part sends to each remote part, `touched` the entries
/// in use (stamped in `sent_to`), `seen` the distinct remote parts of the
/// current vertex.
struct Accumulators {
    points: Vec<u64>,
    touched: Vec<u32>,
    sent_to: Marker,
    seen: Marker,
}

impl Accumulators {
    fn new(k: usize) -> Accumulators {
        Accumulators {
            points: vec![0; k],
            touched: Vec::new(),
            sent_to: Marker::new(k),
            seen: Marker::new(k),
        }
    }
}

/// What one range of parts contributes to a sweep.
struct SweptParts {
    /// `nelemd` and `spcv` of the range's parts, in part order.
    nelemd: Vec<u64>,
    spcv: Vec<u64>,
    edgecut: u64,
    metis_volume: u64,
    /// The range's `(from, to)`-sorted exchanges.
    exchange: Vec<(u32, u32, u64)>,
}

impl PartSweep<'_> {
    /// Sweep the parts `parts` with the thread's accumulators.
    fn run(&self, parts: Range<usize>, acc: &mut Accumulators) -> SweptParts {
        let g = self.g;
        let mut out = SweptParts {
            nelemd: vec![0; parts.len()],
            spcv: vec![0; parts.len()],
            edgecut: 0,
            metis_volume: 0,
            exchange: Vec::new(),
        };
        let Accumulators {
            points,
            touched,
            sent_to,
            seen,
        } = acc;
        for pv in parts.clone() {
            let at = pv - parts.start;
            sent_to.clear();
            touched.clear();
            for &v in &self.members[self.offsets[pv]..self.offsets[pv + 1]] {
                let v = v as usize;
                out.nelemd[at] += g.vwgt[v] as u64;
                let (lo, hi) = (g.xadj[v] as usize, g.xadj[v + 1] as usize);
                let row = &g.adjncy[lo..hi];
                // Most vertices lie inside their part: their weights are
                // never read.
                if row.iter().all(|&n| self.part[n as usize] as usize == pv) {
                    continue;
                }
                seen.clear();
                for (&n, &w) in row.iter().zip(&g.adjwgt[lo..hi]) {
                    let pn = self.part[n as usize] as usize;
                    if pn == pv {
                        continue;
                    }
                    out.spcv[at] += w as u64;
                    out.edgecut += (n as usize > v) as u64;
                    out.metis_volume += seen.mark(pn) as u64;
                    if sent_to.mark(pn) {
                        touched.push(pn as u32);
                        points[pn] = 0;
                    }
                    points[pn] += w as u64;
                }
            }
            touched.sort_unstable();
            out.exchange.extend(
                touched
                    .iter()
                    .map(|&to| (pv as u32, to, points[to as usize])),
            );
        }
        out
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

    #[test]
    fn shared_sweep_is_the_single_sweep() {
        use crate::rng::SplitMix64;
        use crate::testgraphs::{grid, wide_graph};
        let mut rng = SplitMix64::new(53);
        let mut graphs: Vec<CsrGraph> = (0..48).map(wide_graph).collect();
        graphs.push(grid(30, 20));
        for g in &graphs {
            for k in [1usize, 2, 3, 7, 40] {
                // Random parts, some left empty, and contiguous stripes.
                let random = (0..g.nv()).map(|_| rng.below(k) as u32).collect();
                let stripes = (0..g.nv()).map(|v| (v * k / g.nv()) as u32).collect();
                for p in [Partition::new(k, random), Partition::new(k, stripes)] {
                    assert_eq!(
                        cut_sweep_shared(g, &p, true),
                        cut_sweep_shared(g, &p, false)
                    );
                }
            }
        }
    }
}
