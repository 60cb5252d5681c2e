//! Direct multilevel K-way partitioning — METIS's `PartGraphKway`
//! analogue.
//!
//! "The K-way (KWAY) algorithm generates partitions that minimize
//! edgecuts but may result in sub-optimal load balance" (paper §2). The
//! sub-optimal balance is intrinsic: the greedy refinement will trade a
//! unit of imbalance (within the tolerance cap) for any positive cut
//! gain, which at O(1) elements per processor means some processors get
//! an extra element — exactly the effect the paper measured against.

use crate::bisect::recursive_bisection;
use crate::coarsen::coarsen;
use crate::csr::CsrGraph;
use crate::marker::Marker;
use crate::partition::{weight_cap, Partition, PartitionConfig};
use crate::rng::SplitMix64;
use std::cmp::Reverse;

/// Greedy k-way edgecut refinement, in place. Returns the number of moves.
///
/// For each boundary vertex (in random order), move it to the adjacent
/// part with the largest positive cut gain that respects the weight cap;
/// zero-gain moves are taken when they strictly improve balance.
pub fn kway_refine(
    g: &CsrGraph,
    parts: &mut [u32],
    nparts: usize,
    cap: u64,
    passes: usize,
    rng: &mut SplitMix64,
) -> usize {
    let _span = cubesfc_obs::span("refine");
    let nv = g.nv();
    let mut weights = vec![0u64; nparts];
    for (v, &p) in parts.iter().enumerate() {
        weights[p as usize] += g.vwgt[v] as u64;
    }

    rebalance_kway(g, parts, &mut weights, cap);

    let mut total_moves = 0;
    // Scratch: connection weight of the current vertex to each part.
    let mut conn = vec![0i64; nparts];
    let mut touched: Vec<usize> = Vec::with_capacity(16);

    for _ in 0..passes {
        let mut moves = 0;
        for &vv in &rng.permutation(nv) {
            let v = vv as usize;
            let from = parts[v] as usize;
            touched.clear();
            for (n, w) in g.neighbors(v) {
                let pn = parts[n] as usize;
                if conn[pn] == 0 {
                    touched.push(pn);
                }
                conn[pn] += w as i64;
            }
            let id = conn[from];
            let vw = g.vwgt[v] as u64;
            // Find the best feasible destination.
            let mut best: Option<(i64, usize)> = None;
            for &p in &touched {
                if p == from {
                    continue;
                }
                if weights[p] + vw > cap {
                    continue;
                }
                let gain = conn[p] - id;
                let better = match best {
                    None => gain > 0 || (gain == 0 && weights[p] + vw < weights[from]),
                    Some((bg, bp)) => gain > bg || (gain == bg && weights[p] < weights[bp]),
                };
                if better {
                    best = Some((gain, p));
                }
            }
            for &p in &touched {
                conn[p] = 0;
            }
            if let Some((gain, to)) = best {
                let improves_balance = weights[to] + vw < weights[from];
                if gain > 0 || (gain == 0 && improves_balance) {
                    parts[v] = to as u32;
                    weights[from] -= vw;
                    weights[to] += vw;
                    moves += 1;
                }
            }
        }
        total_moves += moves;
        if moves == 0 {
            break;
        }
    }
    total_moves
}

/// Push every part back under the weight cap (METIS's balancing phase
/// during uncoarsening): repeatedly move the least-damaging vertex out of
/// the most overweight part into the lightest part it can enter.
///
/// A move is the first maximum of `(gain, −weights[to])` over the
/// `(vertex, destination)` pairs in ascending order. Per vertex that is
/// one connectivity sweep: the parts it touches are scored one by one,
/// and every other part has the same gain (minus the weight that ties
/// the vertex to its own part), so only the lightest of them can win.
pub(crate) fn rebalance_kway(g: &CsrGraph, parts: &mut [u32], weights: &mut [u64], cap: u64) {
    let nparts = weights.len();
    let max_iters = 4 * g.nv() + 16;
    // Scratch, made on the first move: connection weight of the current
    // vertex to each part it touches, and the parts lightest first.
    let mut conn: Vec<i64> = Vec::new();
    let mut touched = Marker::new(0);
    let mut touched_list: Vec<usize> = Vec::with_capacity(16);
    let mut lightest_first: Vec<usize> = Vec::new();
    for _ in 0..max_iters {
        // The heaviest over-cap part.
        let Some(from) = (0..nparts)
            .filter(|&p| weights[p] > cap)
            .max_by_key(|&p| weights[p])
        else {
            return;
        };
        if conn.is_empty() {
            conn.resize(nparts, 0);
            touched.ensure(nparts);
            lightest_first.extend(0..nparts);
        }
        lightest_first.sort_unstable_by_key(|&p| (weights[p], p));
        // Require the move to strictly reduce the imbalance.
        let room = cap.min(weights[from] - 1);
        // Best (vertex, destination): smallest cut damage, then lightest
        // destination; the first such pair in (vertex, part) order.
        let mut best: Option<((i64, Reverse<u64>), usize, usize)> = None;
        for v in 0..g.nv() {
            if parts[v] as usize != from {
                continue;
            }
            let vw = g.vwgt[v] as u64;
            touched.clear();
            touched_list.clear();
            for (n, w) in g.neighbors(v) {
                let pn = parts[n] as usize;
                if touched.mark(pn) {
                    touched_list.push(pn);
                }
                conn[pn] += w as i64;
            }
            let internal = conn[from];
            // This vertex's candidates: each touched part, and the
            // lightest untouched one (if that does not fit, none does).
            let untouched = lightest_first
                .iter()
                .copied()
                .find(|&p| p != from && !touched.is_marked(p));
            let best_here = touched_list
                .iter()
                .chain(&untouched)
                .filter(|&&to| to != from && weights[to] + vw <= room)
                .map(|&to| (conn[to] - internal, Reverse(weights[to]), Reverse(to)))
                .max();
            for &p in &touched_list {
                conn[p] = 0;
            }
            if let Some((gain, wto, Reverse(to))) = best_here {
                if best.is_none_or(|(key, _, _)| (gain, wto) > key) {
                    best = Some(((gain, wto), v, to));
                }
            }
        }
        let Some((_, v, to)) = best else { return };
        let vw = g.vwgt[v] as u64;
        weights[from] -= vw;
        weights[to] += vw;
        parts[v] = to as u32;
    }
}

#[cfg(test)]
mod reference {
    //! The balancing phase as it was: every `(vertex, destination)` pair
    //! scored by a scan of the vertex's adjacency.
    use super::CsrGraph;

    /// Push every part back under the weight cap (METIS's balancing phase
    /// during uncoarsening): repeatedly move the least-damaging vertex out of
    /// the most overweight part into the lightest part it can enter.
    pub(super) fn rebalance_kway(g: &CsrGraph, parts: &mut [u32], weights: &mut [u64], cap: u64) {
        let nparts = weights.len();
        let max_iters = 4 * g.nv() + 16;
        for _ in 0..max_iters {
            // The heaviest over-cap part.
            let Some(from) = (0..nparts)
                .filter(|&p| weights[p] > cap)
                .max_by_key(|&p| weights[p])
            else {
                return;
            };
            // Best (vertex, destination): smallest cut damage, then lightest
            // destination.
            let mut best: Option<(i64, u64, usize, usize)> = None;
            for v in 0..g.nv() {
                if parts[v] as usize != from {
                    continue;
                }
                let vw = g.vwgt[v] as u64;
                // Gain toward each candidate destination.
                for to in 0..nparts {
                    if to == from || weights[to] + vw > cap.min(weights[from] - 1) {
                        // Require the move to strictly reduce the imbalance.
                        continue;
                    }
                    let mut gain = 0i64;
                    for (n, w) in g.neighbors(v) {
                        let pn = parts[n] as usize;
                        if pn == to {
                            gain += w as i64;
                        } else if pn == from {
                            gain -= w as i64;
                        }
                    }
                    let better = match best {
                        None => true,
                        Some((bg, bw, _, _)) => gain > bg || (gain == bg && weights[to] < bw),
                    };
                    if better {
                        best = Some((gain, weights[to], v, to));
                    }
                }
            }
            let Some((_, _, v, to)) = best else { return };
            let vw = g.vwgt[v] as u64;
            weights[from] -= vw;
            weights[to] += vw;
            parts[v] = to as u32;
        }
    }
}

/// Multilevel K-way driver.
///
/// Coarsens the graph (when it is large relative to `nparts`), computes an
/// initial partition by recursive bisection on the coarsest graph, then
/// uncoarsens with greedy k-way refinement at every level.
pub fn kway(g: &CsrGraph, cfg: &PartitionConfig) -> Partition {
    let _span = cubesfc_obs::span("kway");
    assert!(cfg.nparts >= 1);
    if cfg.nparts == 1 {
        return Partition::new(1, vec![0; g.nv()]);
    }
    let mut rng = SplitMix64::new(cfg.seed ^ 0x4B57_4159); // "KWAY"
    let coarsen_to = cfg.coarsen_to.max(20 * cfg.nparts);
    let levels = coarsen(g, coarsen_to, &mut rng);
    let coarsest = levels.last().map(|l| &l.graph).unwrap_or(g);

    // Initial k-way partition of the coarsest graph via RB.
    let init_cfg = PartitionConfig {
        seed: cfg.seed ^ 0x1297,
        ..*cfg
    };
    let mut parts = recursive_bisection(coarsest, &init_cfg)
        .assignment()
        .to_vec();

    let total = g.total_vwgt();
    let target = total / cfg.nparts as u64;

    let cap_for = |graph: &CsrGraph| weight_cap(target, cfg.ub_factor, graph.max_vwgt());

    kway_refine(
        coarsest,
        &mut parts,
        cfg.nparts,
        cap_for(coarsest),
        cfg.refine_passes,
        &mut rng,
    );

    for li in (0..levels.len()).rev() {
        let fine_graph = if li == 0 { g } else { &levels[li - 1].graph };
        let cmap = &levels[li].cmap;
        let mut fine_parts = vec![0u32; fine_graph.nv()];
        for (v, &c) in cmap.iter().enumerate() {
            fine_parts[v] = parts[c as usize];
        }
        kway_refine(
            fine_graph,
            &mut fine_parts,
            cfg.nparts,
            cap_for(fine_graph),
            cfg.refine_passes,
            &mut rng,
        );
        parts = fine_parts;
    }

    Partition::new(cfg.nparts, parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{edgecut, load_balance};

    fn grid(w: usize, h: usize) -> CsrGraph {
        let idx = |x: usize, y: usize| (y * w + x) as u32;
        let mut lists = vec![Vec::new(); w * h];
        for y in 0..h {
            for x in 0..w {
                let mut l = Vec::new();
                if x > 0 {
                    l.push((idx(x - 1, y), 1));
                }
                if x + 1 < w {
                    l.push((idx(x + 1, y), 1));
                }
                if y > 0 {
                    l.push((idx(x, y - 1), 1));
                }
                if y + 1 < h {
                    l.push((idx(x, y + 1), 1));
                }
                lists[idx(x, y) as usize] = l;
            }
        }
        CsrGraph::from_lists(&lists).unwrap()
    }

    #[test]
    fn kway_4_on_grid() {
        let g = grid(8, 8);
        let p = kway(&g, &PartitionConfig::new(4));
        assert_eq!(p.nonempty_parts(), 4);
        let cut = edgecut(&g, &p);
        assert!(cut <= 28, "cut = {cut}");
        assert!(load_balance(&p.part_weights(&g)) <= 0.35);
    }

    #[test]
    fn kway_refine_improves_a_bad_partition() {
        let g = grid(8, 8);
        // Stripe assignment by column parity: terrible cut.
        let mut parts: Vec<u32> = (0..64).map(|v| (v % 2) as u32).collect();
        let before = edgecut(&g, &Partition::new(2, parts.clone()));
        let mut rng = SplitMix64::new(1);
        kway_refine(&g, &mut parts, 2, 36, 8, &mut rng);
        let after = edgecut(&g, &Partition::new(2, parts));
        assert!(after < before, "{after} !< {before}");
    }

    #[test]
    fn kway_respects_cap() {
        let g = grid(6, 6);
        let cfg = PartitionConfig::new(4);
        let p = kway(&g, &cfg);
        let cap = weight_cap(9, cfg.ub_factor, 1);
        assert!(p.part_weights(&g).iter().all(|&w| w <= cap));
    }

    #[test]
    fn kway_one_part() {
        let g = grid(3, 3);
        let p = kway(&g, &PartitionConfig::new(1));
        assert!(p.assignment().iter().all(|&x| x == 0));
    }

    #[test]
    fn kway_k_equals_n_may_leave_imbalance() {
        // The METIS-like behaviour the paper leverages: at one vertex per
        // part the cap is 2, so parts of size 2 (and empty parts) can
        // appear whenever they lower the cut.
        let g = grid(4, 4);
        let p = kway(&g, &PartitionConfig::new(16));
        let sizes = p.part_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 16);
        assert!(sizes.iter().all(|&s| s <= 2), "{sizes:?}");
    }

    #[test]
    fn kway_is_deterministic_for_seed() {
        let g = grid(6, 6);
        let a = kway(&g, &PartitionConfig::new(5).with_seed(77));
        let b = kway(&g, &PartitionConfig::new(5).with_seed(77));
        assert_eq!(a, b);
    }

    #[test]
    fn kway_large_graph_exercises_coarsening() {
        let g = grid(32, 32); // 1024 vertices, coarsen_to = 80 for k=4
        let cfg = PartitionConfig {
            coarsen_to: 64,
            ..PartitionConfig::new(2)
        };
        let p = kway(&g, &cfg);
        let cut = edgecut(&g, &p);
        assert!(cut <= 64, "cut = {cut}"); // optimal is 32
        assert!(load_balance(&p.part_weights(&g)) < 0.15);
    }

    #[test]
    fn rebalance_equals_the_full_scan_reference_move_for_move() {
        // Random assignments piled onto a few parts, caps from barely
        // satisfiable to loose, zero-weight edges and weighted vertices
        // included; the same moves means the same assignment and weights.
        use crate::testgraphs::wide_graph;
        let mut moved = 0;
        for seed in 0..500u64 {
            let g = wide_graph(seed);
            let mut rng = SplitMix64::new(seed);
            let nparts = 2 + rng.below(9);
            let crowd = 1 + rng.below(nparts);
            let start: Vec<u32> = (0..g.nv())
                .map(|_| {
                    if rng.below(3) == 0 {
                        rng.below(nparts) as u32
                    } else {
                        rng.below(crowd) as u32
                    }
                })
                .collect();
            let target = g.total_vwgt() / nparts as u64;
            let cap = [
                target + g.max_vwgt(),
                weight_cap(target, 1.03, g.max_vwgt()),
                2 * target + 1,
            ][rng.below(3)];
            let weigh = |parts: &[u32]| {
                let mut w = vec![0u64; nparts];
                for (v, &p) in parts.iter().enumerate() {
                    w[p as usize] += g.vwgt[v] as u64;
                }
                w
            };
            let (mut pa, mut wa) = (start.clone(), weigh(&start));
            let (mut pb, mut wb) = (start.clone(), weigh(&start));
            rebalance_kway(&g, &mut pa, &mut wa, cap);
            reference::rebalance_kway(&g, &mut pb, &mut wb, cap);
            assert_eq!(pa, pb, "graph {seed} nparts {nparts} cap {cap}");
            assert_eq!(wa, wb, "graph {seed}");
            assert_eq!(wa, weigh(&pa), "graph {seed}: weights out of step");
            moved += (pa != start) as usize;
        }
        assert!(moved > 200, "only {moved} cases moved a vertex");
    }
}
