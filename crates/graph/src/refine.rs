//! Greedy k-way refinement — METIS's `Greedy_KWayOptimize` analogue, the
//! one kernel behind both k-way drivers.
//!
//! [`kway`](crate::kway()) refines for edgecut and
//! [`kway_volume`](crate::kway_volume) for total communication volume,
//! and the two differ only in how a move is scored ([`Objective`]). As in
//! METIS, there are two modes:
//!
//! * **refine** ([`greedy_refine`]): move vertices to adjacent parts
//!   while that improves the objective, inside a lower and an upper part
//!   weight ([`PartBounds`]);
//! * **balance** (`rebalance`, run by `kway_refine` and at the end of
//!   recursive bisection): push every part back under the upper bound at
//!   the least cut damage.

use crate::csr::CsrGraph;
use crate::marker::Marker;
use crate::rng::SplitMix64;
use crate::tv::volume_delta;
use std::cmp::Reverse;

/// What a greedy refinement pass improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Objective {
    /// Weighted edgecut: a move's gain is the vertex's edge weight into
    /// the destination minus its edge weight into its own part.
    Cut,
    /// Total communication volume: a move's gain is minus its exact
    /// [`volume_delta`](crate::tv::volume_delta).
    Volume,
}

/// The weight window a move must respect: no part may be left lighter
/// than `min` or made heavier than `max`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct PartBounds {
    /// Least weight a move may leave its source part with.
    pub(crate) min: u64,
    /// Most weight a move may give its destination part.
    pub(crate) max: u64,
}

/// The vertex weight of each of `nparts` parts under `parts`.
pub(crate) fn part_weights(g: &CsrGraph, parts: &[u32], nparts: usize) -> Vec<u64> {
    let mut weights = vec![0u64; nparts];
    for (v, &p) in parts.iter().enumerate() {
        weights[p as usize] += g.vwgt[v] as u64;
    }
    weights
}

/// Greedy k-way refinement, in place. Returns the number of moves.
///
/// `weights` holds the weight of every part under `parts` and is kept in
/// step. Each pass visits every vertex in a fresh random order and moves
/// it to the adjacent part with the largest `objective` gain that stays
/// within `bounds`; ties go to the lighter destination, then to the part
/// the vertex's adjacency names first. A zero-gain move is taken only
/// when it strictly improves balance. Refinement stops after `passes`
/// passes or after the first pass that moves nothing.
///
/// Inlined into each caller, which passes its objective as a constant, so
/// the per-candidate `match` on it folds away.
#[inline(always)]
pub(crate) fn greedy_refine(
    g: &CsrGraph,
    parts: &mut [u32],
    weights: &mut [u64],
    bounds: PartBounds,
    passes: usize,
    rng: &mut SplitMix64,
    objective: Objective,
) -> usize {
    let nparts = weights.len();
    let mut order = Vec::new();
    // Scratch: the parts the current vertex touches, in adjacency order,
    // its edge weight into each part, and the marker of the volume scans.
    let mut touched = Marker::new(nparts);
    let mut touched_list: Vec<usize> = Vec::with_capacity(16);
    let mut conn = vec![0i64; nparts];
    let mut seen = Marker::new(nparts);

    let mut total_moves = 0;
    for _ in 0..passes {
        let mut moves = 0;
        rng.permutation_into(g.nv(), &mut order);
        for &v in &order {
            let v = v as usize;
            let from = parts[v] as usize;
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
            // The first best destination by (gain, lighter). Only a move
            // worth making is ever recorded: a positive gain, or zero gain
            // onto a part lighter than the source would then be.
            let mut best: Option<(i64, usize)> = None;
            for &to in &touched_list {
                if to == from || weights[to] + vw > bounds.max || weights[from] - vw < bounds.min {
                    continue;
                }
                let gain = match objective {
                    Objective::Cut => conn[to] - conn[from],
                    Objective::Volume => -volume_delta(g, parts, v, to as u32, &mut seen),
                };
                let better = match best {
                    None => gain > 0 || (gain == 0 && weights[to] + vw < weights[from]),
                    Some((bg, bt)) => gain > bg || (gain == bg && weights[to] < weights[bt]),
                };
                if better {
                    best = Some((gain, to));
                }
            }
            for &p in &touched_list {
                conn[p] = 0;
            }
            if let Some((_, to)) = best {
                parts[v] = to as u32;
                weights[from] -= vw;
                weights[to] += vw;
                moves += 1;
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
pub(crate) fn rebalance(g: &CsrGraph, parts: &mut [u32], weights: &mut [u64], cap: u64) {
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
    //! The kernels as they were before they were one: the edgecut and the
    //! volume refinement written out separately, a fresh permutation per
    //! pass, and the balancing phase with every `(vertex, destination)`
    //! pair scored by a scan of the vertex's adjacency.
    use super::{part_weights, CsrGraph, Marker, SplitMix64};
    use crate::tv::volume_delta;

    /// Greedy k-way edgecut refinement as it was (after the balancing
    /// phase, which `kway_refine` runs first).
    pub(super) fn cut_refine(
        g: &CsrGraph,
        parts: &mut [u32],
        weights: &mut [u64],
        cap: u64,
        passes: usize,
        rng: &mut SplitMix64,
    ) -> usize {
        let nparts = weights.len();
        let mut total_moves = 0;
        let mut conn = vec![0i64; nparts];
        let mut touched: Vec<usize> = Vec::with_capacity(16);
        for _ in 0..passes {
            let mut moves = 0;
            for &vv in &rng.permutation(g.nv()) {
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
                let mut best: Option<(i64, usize)> = None;
                for &p in &touched {
                    if p == from || weights[p] + vw > cap {
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

    /// Greedy volume refinement as it was.
    pub(super) fn volume_refine(
        g: &CsrGraph,
        parts: &mut [u32],
        nparts: usize,
        cap: u64,
        passes: usize,
        rng: &mut SplitMix64,
    ) -> usize {
        let mut weights = part_weights(g, parts, nparts);
        let mut total_moves = 0;
        let mut cand_seen = Marker::new(nparts);
        let mut delta_seen = Marker::new(nparts);
        let mut cands: Vec<u32> = Vec::with_capacity(8);
        for _ in 0..passes {
            let mut moves = 0;
            for &vv in &rng.permutation(g.nv()) {
                let v = vv as usize;
                let from = parts[v] as usize;
                let vw = g.vwgt[v] as u64;
                cands.clear();
                cand_seen.clear();
                for (n, _) in g.neighbors(v) {
                    let p = parts[n];
                    if p as usize != from && cand_seen.mark(p as usize) {
                        cands.push(p);
                    }
                }
                let mut best: Option<(i64, u32)> = None;
                for &to in &cands {
                    if weights[to as usize] + vw > cap {
                        continue;
                    }
                    let d = volume_delta(g, parts, v, to, &mut delta_seen);
                    let better = match best {
                        None => d < 0 || (d == 0 && weights[to as usize] + vw < weights[from]),
                        Some((bd, bt)) => {
                            d < bd || (d == bd && weights[to as usize] < weights[bt as usize])
                        }
                    };
                    if better {
                        best = Some((d, to));
                    }
                }
                if let Some((d, to)) = best {
                    let improves_balance = weights[to as usize] + vw < weights[from];
                    if d < 0 || (d == 0 && improves_balance) {
                        parts[v] = to;
                        weights[from] -= vw;
                        weights[to as usize] += vw;
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
    pub(super) fn rebalance(g: &CsrGraph, parts: &mut [u32], weights: &mut [u64], cap: u64) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kway::kway_refine;
    use crate::partition::weight_cap;
    use crate::testgraphs::wide_graph;
    use crate::tv::volume_refine;

    /// A random assignment of `g` into `nparts` parts, piled onto the
    /// first few in two cases of three, and a cap from barely
    /// satisfiable to loose.
    fn crowded_start(g: &CsrGraph, rng: &mut SplitMix64) -> (Vec<u32>, usize, u64) {
        let nparts = 2 + rng.below(9);
        let crowd = 1 + rng.below(nparts);
        let start = (0..g.nv())
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
        (start, nparts, cap)
    }

    #[test]
    fn both_objectives_equal_the_kernels_they_replaced_move_for_move() {
        // Zero-weight edges (a part touched only through them), coarse
        // weights, disconnected graphs, over-cap starts: the same moves
        // means the same assignment, the same count and the same draws.
        let (mut cut_moved, mut volume_moved) = (0, 0);
        for seed in 0..400u64 {
            let g = wide_graph(seed);
            let mut rng = SplitMix64::new(seed);
            let (start, nparts, cap) = crowded_start(&g, &mut rng);
            let passes = [1, 8][rng.below(2)];

            let (mut pa, mut ra) = (start.clone(), SplitMix64::new(seed));
            let (mut pb, mut rb) = (start.clone(), SplitMix64::new(seed));
            let na = kway_refine(&g, &mut pa, nparts, cap, passes, &mut ra);
            let mut wb = part_weights(&g, &pb, nparts);
            rebalance(&g, &mut pb, &mut wb, cap);
            let nb = reference::cut_refine(&g, &mut pb, &mut wb, cap, passes, &mut rb);
            assert_eq!(
                (&pa, na),
                (&pb, nb),
                "cut: graph {seed} nparts {nparts} cap {cap}"
            );
            assert_eq!(wb, part_weights(&g, &pb, nparts), "cut: graph {seed}");
            assert_eq!(ra.next_u64(), rb.next_u64(), "cut: graph {seed}: draws");
            cut_moved += (na > 0) as usize;

            let (mut pa, mut ra) = (start.clone(), SplitMix64::new(seed));
            let (mut pb, mut rb) = (start, SplitMix64::new(seed));
            let na = volume_refine(&g, &mut pa, nparts, cap, passes, &mut ra);
            let nb = reference::volume_refine(&g, &mut pb, nparts, cap, passes, &mut rb);
            assert_eq!(
                (&pa, na),
                (&pb, nb),
                "volume: graph {seed} nparts {nparts} cap {cap}"
            );
            assert_eq!(ra.next_u64(), rb.next_u64(), "volume: graph {seed}: draws");
            volume_moved += (na > 0) as usize;
        }
        assert!(cut_moved > 150, "only {cut_moved} cut runs moved a vertex");
        assert!(volume_moved > 150, "only {volume_moved} volume runs moved");
    }

    #[test]
    fn weights_stay_in_step_and_within_bounds() {
        for seed in 0..200u64 {
            let g = wide_graph(seed);
            let mut rng = SplitMix64::new(seed);
            let (mut parts, nparts, cap) = crowded_start(&g, &mut rng);
            let mut weights = part_weights(&g, &parts, nparts);
            rebalance(&g, &mut parts, &mut weights, cap);
            let start = weights.clone();
            let objective = [Objective::Cut, Objective::Volume][rng.below(2)];
            let bounds = PartBounds { min: 0, max: cap };
            greedy_refine(&g, &mut parts, &mut weights, bounds, 8, &mut rng, objective);
            assert_eq!(weights, part_weights(&g, &parts, nparts), "graph {seed}");
            for (p, (&w, &w0)) in weights.iter().zip(&start).enumerate() {
                assert!(w <= cap.max(w0), "graph {seed}: part {p} grew past the cap");
            }
        }
    }

    #[test]
    fn the_lower_bound_keeps_a_part_from_emptying() {
        // A path 0-1-2 split {0,1} | {2}: moving 2 over is a positive cut
        // gain that empties part 1, and a zero-gain that does not help the
        // balance is never taken, so with `min = 1` nothing moves.
        let g = CsrGraph::from_lists(&[vec![(1, 1)], vec![(0, 1), (2, 1)], vec![(1, 1)]]).unwrap();
        for (min, want) in [(0, vec![0, 0, 0]), (1, vec![0, 0, 1])] {
            let mut parts = vec![0, 0, 1];
            let mut weights = part_weights(&g, &parts, 2);
            let bounds = PartBounds { min, max: 3 };
            let mut rng = SplitMix64::new(1);
            greedy_refine(
                &g,
                &mut parts,
                &mut weights,
                bounds,
                4,
                &mut rng,
                Objective::Cut,
            );
            assert_eq!(parts, want, "min {min}");
        }
    }

    #[test]
    fn rebalance_equals_the_full_scan_reference_move_for_move() {
        // Random assignments piled onto a few parts, caps from barely
        // satisfiable to loose, zero-weight edges and weighted vertices
        // included; the same moves means the same assignment and weights.
        let mut moved = 0;
        for seed in 0..500u64 {
            let g = wide_graph(seed);
            let mut rng = SplitMix64::new(seed);
            let (start, nparts, cap) = crowded_start(&g, &mut rng);
            let (mut pa, mut wa) = (start.clone(), part_weights(&g, &start, nparts));
            let (mut pb, mut wb) = (start.clone(), part_weights(&g, &start, nparts));
            rebalance(&g, &mut pa, &mut wa, cap);
            reference::rebalance(&g, &mut pb, &mut wb, cap);
            assert_eq!(pa, pb, "graph {seed} nparts {nparts} cap {cap}");
            assert_eq!(wa, wb, "graph {seed}");
            assert_eq!(
                wa,
                part_weights(&g, &pa, nparts),
                "graph {seed}: weights out of step"
            );
            moved += (pa != start) as usize;
        }
        assert!(moved > 200, "only {moved} cases moved a vertex");
    }
}
