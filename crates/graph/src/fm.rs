//! Fiduccia–Mattheyses refinement for bisections.
//!
//! Used at every level of the multilevel bisection (the RB building
//! block). Minimizes the *weighted* edgecut subject to the balance caps;
//! zero-gain moves that improve balance are kept, so the refinement also
//! acts as the balancer after uncoarsening projections.
//!
//! A pass is incremental: every vertex's gain is computed once, in the
//! sweep that also finds the graph's largest weighted degree, and from
//! then on a move only adds `±2w` to each unlocked neighbour's gain and
//! moves that neighbour between two buckets of the [`GainQueue`]. What a
//! pass pops, and so every partition it produces, is pinned by the
//! pop-order contract in DESIGN.md §5; the lazy-heap pass this replaced is
//! kept under `#[cfg(test)]` as the reference the tests compare against.
//!
//! The `±2w` update reads the mover's adjacency where the sweep read the
//! neighbour's own. The two agree when every `(u, v, w)` entry has its
//! own reverse entry — true of every graph this workspace builds (dual
//! graphs, `contract`, `subgraph`, `from_lists` of a simple graph).
//! `CsrGraph::validate` enforces it: it refuses a neighbour repeated
//! within a row (`GraphError::RepeatedNeighbor`) as well as an entry
//! without an equal-weight reverse.
//!
//! The crate-private entry keeps a cut ledger instead of sweeping for the
//! cut: a `rebalance` move changes the cut by minus its gain, and a pass
//! by minus the cumulative gain of the prefix it keeps. Debug builds
//! check the ledger against [`cut_weight_2way`] after every refinement.

use crate::csr::CsrGraph;
use crate::gainq::GainQueue;

/// Weight targets and caps for a bisection.
#[derive(Clone, Copy, Debug)]
pub struct BisectTargets {
    /// Ideal weight of part 0.
    pub t0: u64,
    /// Ideal weight of part 1.
    pub t1: u64,
    /// Maximum allowed weight of part 0.
    pub cap0: u64,
    /// Maximum allowed weight of part 1.
    pub cap1: u64,
}

impl BisectTargets {
    /// Caps for the given targets using the shared weight-cap rule
    /// (`max(ceil(target × ub), target + max_vwgt)`).
    pub fn with_ub(t0: u64, t1: u64, ub: f64, max_vwgt: u64) -> BisectTargets {
        BisectTargets {
            t0,
            t1,
            cap0: crate::partition::weight_cap(t0, ub, max_vwgt),
            cap1: crate::partition::weight_cap(t1, ub, max_vwgt),
        }
    }

    fn cap(&self, side: usize) -> u64 {
        if side == 0 {
            self.cap0
        } else {
            self.cap1
        }
    }
}

/// Weighted cut of a 2-way assignment.
pub fn cut_weight_2way(g: &CsrGraph, parts: &[u32]) -> u64 {
    let mut cut = 0u64;
    for v in 0..g.nv() {
        for (n, w) in g.neighbors(v) {
            if n > v && parts[n] != parts[v] {
                cut += w as u64;
            }
        }
    }
    cut
}

/// The FM gain of moving `v` to the other side: (external − internal)
/// incident edge weight.
fn gain_of(g: &CsrGraph, parts: &[u32], v: usize) -> i64 {
    let pv = parts[v];
    let mut gain = 0i64;
    for (n, w) in g.neighbors(v) {
        if parts[n] == pv {
            gain -= w as i64;
        } else {
            gain += w as i64;
        }
    }
    gain
}

/// The vertex weight on each side of a 2-way assignment.
fn side_weights(g: &CsrGraph, parts: &[u32]) -> [u64; 2] {
    let mut weights = [0u64; 2];
    for (v, &p) in parts.iter().enumerate() {
        weights[p as usize] += g.vwgt[v] as u64;
    }
    weights
}

/// The buffers FM passes reuse: the gain queue, one gain and one lock
/// flag per vertex, and the move log.
#[derive(Clone, Debug, Default)]
pub(crate) struct FmScratch {
    queue: GainQueue,
    gain: Vec<i64>,
    locked: Vec<bool>,
    moves: Vec<u32>,
}

/// Run up to `passes` FM passes over a 2-way partition, in place.
///
/// Returns the final weighted cut. The assignment always ends in a state
/// no worse (in cut, then balance distance) than the input *unless* the
/// input violated the caps, in which case the balance is restored first
/// at whatever cut cost is needed.
pub fn fm_refine(g: &CsrGraph, parts: &mut [u32], targets: &BisectTargets, passes: usize) -> u64 {
    let mut cut = cut_weight_2way(g, parts);
    fm_refine_with(
        g,
        parts,
        targets,
        passes,
        &mut cut,
        &mut FmScratch::default(),
    );
    cut
}

/// Move the cut ledger by minus `gain`, the cut a move (or a kept prefix
/// of moves) saved.
pub(crate) fn settle(cut: &mut u64, gain: i64) {
    *cut = cut
        .checked_add_signed(-gain)
        .expect("the cut ledger went below zero");
}

/// What one [`fm_refine_with`] call did.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Refined {
    /// The last pass improved nothing (so it was rolled back whole) and
    /// both sides are within their caps. Refining a settled assignment
    /// again on the same graph with the same targets rebalances nothing
    /// and repeats that pass, so it is a no-op the caller may skip.
    pub(crate) settled: bool,
    /// FM passes run, the rolled-back last one included.
    pub(crate) passes: u64,
}

/// [`fm_refine`] on the caller's buffers, with the cut carried in `cut`
/// (the cut of `parts` on entry, kept equal to it) instead of swept.
pub(crate) fn fm_refine_with(
    g: &CsrGraph,
    parts: &mut [u32],
    targets: &BisectTargets,
    passes: usize,
    cut: &mut u64,
    scratch: &mut FmScratch,
) -> Refined {
    let _span = cubesfc_obs::span("fm");
    debug_assert_eq!(parts.len(), g.nv());
    let mut weights = side_weights(g, parts);

    rebalance(g, parts, &mut weights, targets, cut);

    let mut run = Refined {
        settled: false,
        passes: 0,
    };
    for _ in 0..passes {
        run.passes += 1;
        if !fm_pass(g, parts, &mut weights, targets, cut, scratch) {
            run.settled = weights[0] <= targets.cap0 && weights[1] <= targets.cap1;
            break;
        }
    }
    debug_assert_eq!(*cut, cut_weight_2way(g, parts), "the cut ledger drifted");
    run
}

/// Force the partition back under its caps with minimum-damage moves,
/// keeping the cut ledger.
fn rebalance(
    g: &CsrGraph,
    parts: &mut [u32],
    weights: &mut [u64; 2],
    t: &BisectTargets,
    cut: &mut u64,
) {
    for from in 0..2usize {
        let to = 1 - from;
        while weights[from] > t.cap(from) {
            // Best-gain movable vertex on the `from` side.
            let mut best: Option<(i64, usize)> = None;
            for v in 0..g.nv() {
                if parts[v] as usize != from {
                    continue;
                }
                let gain = gain_of(g, parts, v);
                if best.is_none_or(|(bg, _)| gain > bg) {
                    best = Some((gain, v));
                }
            }
            let Some((gain, v)) = best else { break };
            settle(cut, gain);
            parts[v] = to as u32;
            weights[from] -= g.vwgt[v] as u64;
            weights[to] += g.vwgt[v] as u64;
        }
    }
}

/// One FM pass, keeping the cut ledger. Returns whether the pass
/// improved (cut, balance).
fn fm_pass(
    g: &CsrGraph,
    parts: &mut [u32],
    weights: &mut [u64; 2],
    t: &BisectTargets,
    cut: &mut u64,
    scratch: &mut FmScratch,
) -> bool {
    let nv = g.nv();
    let FmScratch {
        queue,
        gain,
        locked,
        moves,
    } = scratch;
    if gain.len() < nv {
        gain.resize(nv, 0);
        locked.resize(nv, false);
    }

    // Every gain once, and the range the queue must span.
    let mut span = 0i64;
    for v in 0..nv {
        let pv = parts[v];
        let (mut gv, mut wdeg) = (0i64, 0i64);
        for (n, w) in g.neighbors(v) {
            let w = w as i64;
            wdeg += w;
            gv += if parts[n] == pv { -w } else { w };
        }
        gain[v] = gv;
        span = span.max(wdeg);
    }
    queue.reset(nv, span);
    for (v, &gv) in gain[..nv].iter().enumerate() {
        queue.insert(v, gv);
    }

    // Move log and best prefix.
    moves.clear();
    let mut cum: i64 = 0;
    let balance_dist =
        |w: &[u64; 2]| (w[0] as i64 - t.t0 as i64).abs() + (w[1] as i64 - t.t1 as i64).abs();
    let mut best = (0i64, balance_dist(weights), 0usize); // (cum gain, dist, prefix len)

    while let Some((gv, v)) = queue.pop_max() {
        debug_assert_eq!(gv, gain[v]);
        let from = parts[v] as usize;
        let to = 1 - from;
        if weights[to] + g.vwgt[v] as u64 > t.cap(to) {
            continue; // infeasible: dropped until a neighbour's move requeues it
        }
        // Apply.
        parts[v] = to as u32;
        weights[from] -= g.vwgt[v] as u64;
        weights[to] += g.vwgt[v] as u64;
        locked[v] = true;
        cum += gv;
        moves.push(v as u32);

        let dist = balance_dist(weights);
        if cum > best.0 || (cum == best.0 && dist < best.1) {
            best = (cum, dist, moves.len());
        }

        // The edge to `v` turned external for the neighbours `v` left
        // behind and internal for the ones it joined. A neighbour is
        // requeued even when its gain did not change (w = 0) and even
        // after it was dropped as infeasible.
        for (n, w) in g.neighbors(v) {
            if locked[n] {
                continue;
            }
            let old = gain[n];
            let new = if parts[n] as usize == from {
                old + 2 * w as i64
            } else {
                old - 2 * w as i64
            };
            if new != old {
                queue.remove(n, old);
                gain[n] = new;
            }
            queue.insert(n, new);
        }
    }

    // Unlock, then roll back past the best prefix.
    for &v in moves.iter() {
        locked[v as usize] = false;
    }
    for &v in &moves[best.2..] {
        let v = v as usize;
        let from = parts[v] as usize;
        let to = 1 - from;
        parts[v] = to as u32;
        weights[from] -= g.vwgt[v] as u64;
        weights[to] += g.vwgt[v] as u64;
    }
    settle(cut, best.0);

    best.0 > 0 || (best.0 == 0 && best.2 > 0)
}

#[cfg(test)]
pub(crate) mod reference {
    //! The pass as it was before the gain queue: every gain recomputed
    //! from the adjacency, `(gain, v)` tuples on a lazy binary heap. Kept
    //! as the oracle of the pop-order contract.
    use super::{cut_weight_2way, gain_of, rebalance, side_weights, BisectTargets, CsrGraph};
    use std::collections::BinaryHeap;

    /// `fm_refine` as it was: rebalance, passes until one does not
    /// improve, then the cut.
    pub(crate) fn fm_refine(
        g: &CsrGraph,
        parts: &mut [u32],
        targets: &BisectTargets,
        passes: usize,
    ) -> u64 {
        let mut weights = side_weights(g, parts);
        rebalance(
            g,
            parts,
            &mut weights,
            targets,
            &mut cut_weight_2way(g, parts),
        );
        for _ in 0..passes {
            if !fm_pass(g, parts, &mut weights, targets) {
                break;
            }
        }
        cut_weight_2way(g, parts)
    }

    /// One FM pass. Returns whether the pass improved (cut, balance).
    pub(crate) fn fm_pass(
        g: &CsrGraph,
        parts: &mut [u32],
        weights: &mut [u64; 2],
        t: &BisectTargets,
    ) -> bool {
        let nv = g.nv();
        let mut gain: Vec<i64> = (0..nv).map(|v| gain_of(g, parts, v)).collect();
        let mut locked = vec![false; nv];
        let mut heap: BinaryHeap<(i64, u32)> =
            (0..nv as u32).map(|v| (gain[v as usize], v)).collect();

        // Move log and best prefix.
        let mut moves: Vec<u32> = Vec::new();
        let mut cum: i64 = 0;
        let balance_dist =
            |w: &[u64; 2]| (w[0] as i64 - t.t0 as i64).abs() + (w[1] as i64 - t.t1 as i64).abs();
        let mut best = (0i64, balance_dist(weights), 0usize); // (cum gain, dist, prefix len)

        while let Some((gpop, v)) = heap.pop() {
            let v = v as usize;
            if locked[v] || gpop != gain[v] {
                continue; // stale entry
            }
            let from = parts[v] as usize;
            let to = 1 - from;
            if weights[to] + g.vwgt[v] as u64 > t.cap(to) {
                continue; // infeasible; may become feasible later, but skipping
                          // keeps the pass O(n log n) and FM passes iterate anyway
            }
            // Apply.
            parts[v] = to as u32;
            weights[from] -= g.vwgt[v] as u64;
            weights[to] += g.vwgt[v] as u64;
            locked[v] = true;
            cum += gain[v];
            moves.push(v as u32);

            let dist = balance_dist(weights);
            if cum > best.0 || (cum == best.0 && dist < best.1) {
                best = (cum, dist, moves.len());
            }

            for (n, _) in g.neighbors(v) {
                if !locked[n] {
                    gain[n] = gain_of(g, parts, n);
                    heap.push((gain[n], n as u32));
                }
            }
        }

        // Roll back past the best prefix.
        for &v in &moves[best.2..] {
            let v = v as usize;
            let from = parts[v] as usize;
            let to = 1 - from;
            parts[v] = to as u32;
            weights[from] -= g.vwgt[v] as u64;
            weights[to] += g.vwgt[v] as u64;
        }

        best.0 > 0 || (best.0 == 0 && best.2 > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two 4-cliques joined by a single light edge: the obvious optimum
    /// splits the cliques apart.
    fn two_cliques() -> CsrGraph {
        let mut lists: Vec<Vec<(u32, u32)>> = vec![Vec::new(); 8];
        for a in 0..4u32 {
            for b in 0..4u32 {
                if a != b {
                    lists[a as usize].push((b, 10));
                    lists[(a + 4) as usize].push((b + 4, 10));
                }
            }
        }
        lists[0].push((4, 1));
        lists[4].push((0, 1));
        CsrGraph::from_lists(&lists).unwrap()
    }

    #[test]
    fn fm_finds_the_clique_split() {
        let g = two_cliques();
        // Start from a bad interleaved split.
        let mut parts = vec![0, 1, 0, 1, 0, 1, 0, 1];
        let t = BisectTargets::with_ub(4, 4, 1.03, 1);
        let cut = fm_refine(&g, &mut parts, &t, 8);
        assert_eq!(cut, 1, "parts = {parts:?}");
        // Each clique in one piece.
        assert!(parts[..4].iter().all(|&p| p == parts[0]));
        assert!(parts[4..].iter().all(|&p| p == parts[4]));
        assert_ne!(parts[0], parts[4]);
    }

    #[test]
    fn fm_respects_caps() {
        let g = two_cliques();
        let mut parts = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let t = BisectTargets::with_ub(4, 4, 1.03, 1);
        fm_refine(&g, &mut parts, &t, 4);
        let w0 = parts.iter().filter(|&&p| p == 0).count() as u64;
        assert!(w0 <= t.cap0 && (8 - w0) <= t.cap1);
    }

    #[test]
    fn fm_never_worsens_an_optimal_split() {
        let g = two_cliques();
        let mut parts = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let before = cut_weight_2way(&g, &parts);
        let after = fm_refine(&g, &mut parts, &BisectTargets::with_ub(4, 4, 1.03, 1), 8);
        assert!(after <= before);
        assert_eq!(after, 1);
    }

    #[test]
    fn rebalance_restores_caps() {
        // All vertices on one side: must be pushed under the cap.
        let g = two_cliques();
        let mut parts = vec![0u32; 8];
        let t = BisectTargets::with_ub(4, 4, 1.03, 1);
        fm_refine(&g, &mut parts, &t, 2);
        let w0 = parts.iter().filter(|&&p| p == 0).count() as u64;
        assert!(w0 <= t.cap0, "w0 = {w0}");
    }

    #[test]
    fn zero_gain_balance_moves_are_taken() {
        // A 4-path 0-1-2-3 split {0,1,2}/{3}: moving 2 over is zero-gain
        // in cut (cut stays 1) but improves balance.
        let g = CsrGraph::from_lists(&[
            vec![(1, 1)],
            vec![(0, 1), (2, 1)],
            vec![(1, 1), (3, 1)],
            vec![(2, 1)],
        ])
        .unwrap();
        let mut parts = vec![0, 0, 0, 1];
        let t = BisectTargets::with_ub(2, 2, 1.03, 1);
        let cut = fm_refine(&g, &mut parts, &t, 4);
        assert_eq!(cut, 1);
        let w0 = parts.iter().filter(|&&p| p == 0).count();
        assert_eq!(w0, 2, "parts = {parts:?}");
    }

    #[test]
    fn cut_weight_basics() {
        let g = two_cliques();
        assert_eq!(cut_weight_2way(&g, &[0, 0, 0, 0, 1, 1, 1, 1]), 1);
        assert_eq!(cut_weight_2way(&g, &[0; 8]), 0);
    }

    /// Targets for a graph: `frac0` of the weight on side 0, caps by `ub`
    /// or, when `tight`, at the targets themselves (pops get dropped as
    /// infeasible; a skewed start is over its cap).
    fn targets_for(g: &CsrGraph, frac0: f64, ub: f64, tight: bool) -> BisectTargets {
        let total = g.total_vwgt();
        let t0 = ((total as f64) * frac0).round() as u64;
        let t1 = total - t0.min(total);
        if tight {
            BisectTargets {
                t0,
                t1,
                cap0: t0,
                cap1: t1,
            }
        } else {
            BisectTargets::with_ub(t0, t1, ub, g.max_vwgt())
        }
    }

    #[test]
    fn pass_equals_the_lazy_heap_reference_after_every_pass() {
        use crate::rng::SplitMix64;
        use crate::testgraphs::{random_sides, wide_graph};
        let mut scratch = FmScratch::default(); // one, reused across graphs
        let (mut tight, mut over_cap) = (0, 0);
        for seed in 0..600u64 {
            let g = wide_graph(seed);
            let mut rng = SplitMix64::new(seed);
            let skew = [8, 8, 3, 14][rng.below(4)];
            let start = random_sides(g.nv(), skew, &mut rng);
            let frac0 = [0.5, 0.5, 1.0 / 3.0, 0.25][rng.below(4)];
            let at_target = rng.below(3) == 0;
            let t = targets_for(&g, frac0, [1.03, 1.001][rng.below(2)], at_target);
            tight += at_target as usize;

            let weights = side_weights(&g, &start);
            over_cap += (weights[0] > t.cap0 || weights[1] > t.cap1) as usize;
            let mut cut = cut_weight_2way(&g, &start);
            let (mut pa, mut wa) = (start.clone(), weights);
            let (mut pb, mut wb) = (start, weights);
            for pass in 0..8 {
                let fa = fm_pass(&g, &mut pa, &mut wa, &t, &mut cut, &mut scratch);
                let fb = reference::fm_pass(&g, &mut pb, &mut wb, &t);
                assert_eq!(pa, pb, "seed {seed} pass {pass}: parts");
                assert_eq!(wa, wb, "seed {seed} pass {pass}: weights");
                assert_eq!(fa, fb, "seed {seed} pass {pass}: flag");
                assert_eq!(
                    cut,
                    cut_weight_2way(&g, &pa),
                    "seed {seed} pass {pass}: cut"
                );
                if !fa {
                    break;
                }
            }
        }
        // The generator must actually reach the branches it is there for.
        assert!(tight > 50, "only {tight} starts with caps at the targets");
        assert!(over_cap > 50, "only {over_cap} over-cap starts");
    }

    #[test]
    fn refine_equals_the_reference_driver() {
        // The whole of `fm_refine` (rebalance, passes until one does not
        // improve, cut), and what "settled" promises: refining again
        // changes nothing.
        use crate::rng::SplitMix64;
        use crate::testgraphs::{random_sides, wide_graph};
        let mut scratch = FmScratch::default();
        let mut settled_runs = 0;
        for seed in 1000..1400u64 {
            let g = wide_graph(seed);
            let mut rng = SplitMix64::new(seed);
            let skew = [8, 2, 15][rng.below(3)];
            let mut pa = random_sides(g.nv(), skew, &mut rng);
            let mut pb = pa.clone();
            let t = targets_for(&g, 0.5, 1.03, rng.below(2) == 0);
            let passes = [2, 8][rng.below(2)];
            let mut cut = cut_weight_2way(&g, &pa);
            let run = fm_refine_with(&g, &mut pa, &t, passes, &mut cut, &mut scratch);
            let want = reference::fm_refine(&g, &mut pb, &t, passes);
            assert_eq!(pa, pb, "seed {seed}");
            assert_eq!(cut, want, "seed {seed}");
            assert!((1..=passes as u64).contains(&run.passes), "seed {seed}");
            if run.settled {
                settled_runs += 1;
                reference::fm_refine(&g, &mut pb, &t, 8);
                assert_eq!(pa, pb, "seed {seed}: a settled refinement moved again");
            }
        }
        assert!(settled_runs > 100, "only {settled_runs} settled");
    }

    #[test]
    fn rebalance_carries_the_cut() {
        // Skewed starts over caps at the targets: every start moves, and
        // each move's gain is read before the move.
        use crate::rng::SplitMix64;
        use crate::testgraphs::{random_sides, wide_graph};
        let mut moved = 0;
        for seed in 0..400u64 {
            let g = wide_graph(seed);
            let mut rng = SplitMix64::new(seed);
            let mut parts = random_sides(g.nv(), [2, 14][rng.below(2)], &mut rng);
            let t = targets_for(&g, 0.5, 1.03, true);
            let mut weights = side_weights(&g, &parts);
            let before = parts.clone();
            let mut cut = cut_weight_2way(&g, &parts);
            rebalance(&g, &mut parts, &mut weights, &t, &mut cut);
            assert_eq!(cut, cut_weight_2way(&g, &parts), "seed {seed}");
            moved += (parts != before) as usize;
        }
        assert!(moved > 200, "only {moved} starts were rebalanced");
    }
}
