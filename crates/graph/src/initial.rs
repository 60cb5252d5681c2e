//! Initial bisection of the coarsest graph: greedy graph growing.
//!
//! From a random seed vertex, grow part 0 by repeatedly absorbing the
//! frontier vertex whose move is cheapest (max FM gain), until part 0
//! reaches its target weight. Several seeds are tried and the best result
//! (after a quick FM polish) is kept.
//!
//! Growing is incremental: a vertex's gain toward part 0 starts at minus
//! its weighted degree (a table made once per call, not per try) and rises
//! by `2w` whenever a neighbour is absorbed, so choosing the next vertex
//! is one scan of the frontier's gains instead of a rescan of every
//! frontier vertex's adjacency. The frontier vector, its `swap_remove`
//! and the first-maximum-wins rule are those of the rescanning version,
//! kept under `#[cfg(test)]` as the reference.
//!
//! No try repeats work, and none is skipped that could change the result:
//! - A seed vertex grown before is not grown again, and a try that grows
//!   the very bisection an earlier try of the call grew is not polished.
//!   The polish is a function of the graph, the bisection and the
//!   targets alone, so the repeat would polish to the same cut, which the
//!   strict `<` of the winner rule turns down. Every seed is still drawn,
//!   so the RNG stream does not shift.
//! - The cut is carried, not swept: growing starts from all of part 1
//!   (cut 0) and absorbing `v` changes the cut by `−gain[v]`, and the FM
//!   polish keeps the same ledger (see `fm`).

use crate::csr::CsrGraph;
use crate::fm::{fm_refine_with, settle, BisectTargets};
use crate::rng::SplitMix64;
use crate::scratch::Scratch;

/// The buffers the tries of one [`greedy_graph_growing`] call share.
#[derive(Clone, Debug, Default)]
pub(crate) struct GrowScratch {
    /// Minus the weighted degree: a vertex's gain toward part 0 before
    /// any of its neighbours is there.
    neg_wdeg: Vec<i64>,
    /// Weight to part 0 minus weight to part 1, per vertex.
    gain: Vec<i64>,
    in_frontier: Vec<bool>,
    frontier: Vec<u32>,
    /// Seed vertices already grown in this call.
    tried: Vec<usize>,
    /// Every distinct bisection grown in this call, `nv` words each, and
    /// the cut of each.
    grown: Vec<u32>,
    grown_cuts: Vec<u64>,
}

impl GrowScratch {
    /// Fill the `−wdeg` table for `g`.
    fn prepare(&mut self, g: &CsrGraph) {
        self.neg_wdeg.clear();
        self.neg_wdeg
            .extend((0..g.nv()).map(|v| -g.neighbors(v).map(|(_, w)| w as i64).sum::<i64>()));
    }
}

/// Put `v` into part 0, adding its weight to `w0` and moving the `cut`:
/// raise its neighbours' gains and open the frontier to the ones still
/// in part 1.
fn absorb(
    g: &CsrGraph,
    v: usize,
    parts: &mut [u32],
    w0: &mut u64,
    cut: &mut u64,
    s: &mut GrowScratch,
) {
    parts[v] = 0;
    *w0 += g.vwgt[v] as u64;
    // Edges to part 0 leave the cut, edges to part 1 join it.
    settle(cut, s.gain[v]);
    for (n, w) in g.neighbors(v) {
        s.gain[n] += 2 * w as i64;
        if parts[n] == 1 && !s.in_frontier[n] {
            s.in_frontier[n] = true;
            s.frontier.push(n as u32);
        }
    }
}

/// Grow one candidate bisection from `seed` into `parts`
/// ([`GrowScratch::prepare`]d for `g`); returns its cut.
fn grow_from(g: &CsrGraph, seed: usize, t0: u64, parts: &mut [u32], s: &mut GrowScratch) -> u64 {
    let nv = g.nv();
    parts.fill(1);
    s.gain.clear();
    s.gain.extend_from_slice(&s.neg_wdeg);
    s.in_frontier.clear();
    s.in_frontier.resize(nv, false);
    s.frontier.clear();
    let (mut w0, mut cut) = (0u64, 0u64);

    absorb(g, seed, parts, &mut w0, &mut cut, s);
    while w0 < t0 {
        // The frontier vertex with the max gain toward part 0; the first
        // one met wins a tie.
        let mut best: Option<(i64, usize)> = None; // (gain, idx)
        for (idx, &fv) in s.frontier.iter().enumerate() {
            let gain = s.gain[fv as usize];
            if best.is_none_or(|(bg, _)| gain > bg) {
                best = Some((gain, idx));
            }
        }
        let v = match best {
            Some((_, idx)) => s.frontier.swap_remove(idx) as usize,
            // Frontier exhausted (disconnected graph): absorb any part-1
            // vertex to keep making progress.
            None => match parts.iter().position(|&p| p == 1) {
                Some(v) => v,
                None => break,
            },
        };
        absorb(g, v, parts, &mut w0, &mut cut, s);
    }
    cut
}

/// Produce an initial bisection with part-0 target weight `t0`.
///
/// `tries` seeds are grown, each polished with a couple of FM passes; the
/// lowest-cut feasible result wins.
pub fn greedy_graph_growing(
    g: &CsrGraph,
    targets: &BisectTargets,
    tries: usize,
    rng: &mut SplitMix64,
) -> Vec<u32> {
    let mut scratch = Scratch::default();
    greedy_graph_growing_with(g, targets, tries, rng, &mut scratch);
    scratch.parts
}

/// [`greedy_graph_growing`] on the caller's buffers; the winning
/// bisection is left in `scratch.parts`. Returns the winner's cut and
/// whether its polish settled (see [`fm_refine_with`]).
///
/// With profiling on, adds its work to the counters `initial/tries_grown`,
/// `initial/tries_polished`, `initial/tries_duplicate` (grown, but the
/// same bisection as an earlier try) and `initial/fm_passes`.
pub(crate) fn greedy_graph_growing_with(
    g: &CsrGraph,
    targets: &BisectTargets,
    tries: usize,
    rng: &mut SplitMix64,
    scratch: &mut Scratch,
) -> (u64, bool) {
    let _span = cubesfc_obs::span("initial");
    let nv = g.nv();
    assert!(nv > 0, "cannot bisect an empty graph");
    let Scratch {
        fm,
        grow,
        parts: best,
        parts_next: candidate,
        ..
    } = scratch;
    grow.prepare(g);
    grow.tried.clear();
    grow.grown.clear();
    grow.grown_cuts.clear();
    let (mut duplicates, mut passes) = (0u64, 0u64);
    let mut best_found: Option<(u64, bool)> = None; // (cut, polish settled)
    for _ in 0..tries.max(1) {
        // The seed is drawn either way: the stream must not shift.
        let seed = rng.below(nv);
        if grow.tried.contains(&seed) {
            continue;
        }
        grow.tried.push(seed);
        candidate.resize(nv, 1); // its contents may be another graph's
        let mut cut = grow_from(g, seed, targets.t0, candidate, grow);
        let repeat = grow
            .grown_cuts
            .iter()
            .zip(grow.grown.chunks_exact(nv))
            .any(|(&c, earlier)| c == cut && earlier == &candidate[..]);
        if repeat {
            duplicates += 1;
            continue;
        }
        grow.grown_cuts.push(cut);
        grow.grown.extend_from_slice(candidate);
        let run = fm_refine_with(g, candidate, targets, 2, &mut cut, fm);
        passes += run.passes;
        if best_found.is_none_or(|(bc, _)| cut < bc) {
            best_found = Some((cut, run.settled));
            std::mem::swap(best, candidate);
        }
    }
    if cubesfc_obs::enabled() {
        let grown = grow.tried.len() as u64;
        cubesfc_obs::counter_add("initial/tries_grown", grown);
        cubesfc_obs::counter_add("initial/tries_polished", grown - duplicates);
        cubesfc_obs::counter_add("initial/tries_duplicate", duplicates);
        cubesfc_obs::counter_add("initial/fm_passes", passes);
    }
    best_found.expect("at least one try")
}

#[cfg(test)]
pub(crate) mod reference {
    //! Growing as it was: a fresh set of vectors per try and every
    //! frontier vertex's gain recomputed from its adjacency per absorption.
    use super::{BisectTargets, CsrGraph, SplitMix64};
    use crate::fm::reference::fm_refine;

    /// `greedy_graph_growing` as it was: every try grown and polished.
    pub(crate) fn greedy_graph_growing(
        g: &CsrGraph,
        targets: &BisectTargets,
        tries: usize,
        rng: &mut SplitMix64,
    ) -> Vec<u32> {
        let nv = g.nv();
        let mut best: Option<(u64, Vec<u32>)> = None;
        for _ in 0..tries.max(1) {
            let seed = rng.below(nv);
            let mut parts = grow_from(g, seed, targets.t0);
            let cut = fm_refine(g, &mut parts, targets, 2);
            if best.as_ref().is_none_or(|(bc, _)| cut < *bc) {
                best = Some((cut, parts));
            }
        }
        best.unwrap().1
    }

    /// Grow one candidate bisection from `seed`.
    pub(crate) fn grow_from(g: &CsrGraph, seed: usize, t0: u64) -> Vec<u32> {
        let nv = g.nv();
        let mut parts = vec![1u32; nv];
        let mut w0 = 0u64;
        let mut in_frontier = vec![false; nv];
        let mut frontier: Vec<u32> = Vec::new();

        let absorb = |v: usize,
                      parts: &mut Vec<u32>,
                      frontier: &mut Vec<u32>,
                      in_frontier: &mut Vec<bool>,
                      w0: &mut u64| {
            parts[v] = 0;
            *w0 += g.vwgt[v] as u64;
            for (n, _) in g.neighbors(v) {
                if parts[n] == 1 && !in_frontier[n] {
                    in_frontier[n] = true;
                    frontier.push(n as u32);
                }
            }
        };

        absorb(seed, &mut parts, &mut frontier, &mut in_frontier, &mut w0);
        while w0 < t0 {
            // Pick the frontier vertex with the max gain toward part 0:
            // (weight to part 0) − (weight to part 1).
            let mut best: Option<(i64, usize, usize)> = None; // (gain, idx, v)
            for (idx, &fv) in frontier.iter().enumerate() {
                let v = fv as usize;
                if parts[v] == 0 {
                    continue; // already absorbed
                }
                let mut gain = 0i64;
                for (n, w) in g.neighbors(v) {
                    if parts[n] == 0 {
                        gain += w as i64;
                    } else {
                        gain -= w as i64;
                    }
                }
                if best.is_none_or(|(bg, _, _)| gain > bg) {
                    best = Some((gain, idx, v));
                }
            }
            let Some((_, idx, v)) = best else {
                // Frontier exhausted (disconnected graph): absorb any part-1
                // vertex to keep making progress.
                match parts.iter().position(|&p| p == 1) {
                    Some(v) => {
                        absorb(v, &mut parts, &mut frontier, &mut in_frontier, &mut w0);
                        continue;
                    }
                    None => break,
                }
            };
            frontier.swap_remove(idx);
            absorb(v, &mut parts, &mut frontier, &mut in_frontier, &mut w0);
        }
        parts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fm::cut_weight_2way;
    use crate::testgraphs::grid;

    #[test]
    fn ggg_produces_balanced_bisection() {
        let g = grid(8, 8);
        let t = BisectTargets::with_ub(32, 32, 1.03, 1);
        let mut rng = SplitMix64::new(11);
        let parts = greedy_graph_growing(&g, &t, 4, &mut rng);
        let w0 = parts.iter().filter(|&&p| p == 0).count() as u64;
        assert!(w0 <= t.cap0 && 64 - w0 <= t.cap1, "w0 = {w0}");
    }

    #[test]
    fn ggg_cut_is_near_optimal_on_grid() {
        // 8×8 grid: optimal bisection cut is 8 (a straight line).
        let g = grid(8, 8);
        let t = BisectTargets::with_ub(32, 32, 1.03, 1);
        let mut rng = SplitMix64::new(7);
        let parts = greedy_graph_growing(&g, &t, 8, &mut rng);
        let cut = cut_weight_2way(&g, &parts);
        assert!(cut <= 12, "cut = {cut}");
    }

    #[test]
    fn ggg_handles_disconnected_graphs() {
        // Two disjoint edges.
        let g = CsrGraph::from_lists(&[vec![(1, 1)], vec![(0, 1)], vec![(3, 1)], vec![(2, 1)]])
            .unwrap();
        let t = BisectTargets::with_ub(2, 2, 1.03, 1);
        let mut rng = SplitMix64::new(1);
        let parts = greedy_graph_growing(&g, &t, 2, &mut rng);
        let w0 = parts.iter().filter(|&&p| p == 0).count();
        assert_eq!(w0, 2);
    }

    #[test]
    fn ggg_asymmetric_target() {
        let g = grid(6, 6);
        // 1/3 vs 2/3 split.
        let t = BisectTargets::with_ub(12, 24, 1.03, 1);
        let mut rng = SplitMix64::new(5);
        let parts = greedy_graph_growing(&g, &t, 4, &mut rng);
        let w0 = parts.iter().filter(|&&p| p == 0).count() as u64;
        assert!(w0 <= t.cap0, "w0 = {w0}");
        assert!(36 - w0 <= t.cap1, "w1 = {}", 36 - w0);
    }

    #[test]
    fn single_vertex_graph() {
        let g = CsrGraph::new(vec![0, 0], vec![], vec![], vec![1]).unwrap();
        let t = BisectTargets::with_ub(1, 0, 1.03, 1);
        let mut rng = SplitMix64::new(2);
        let parts = greedy_graph_growing(&g, &t, 1, &mut rng);
        assert_eq!(parts.len(), 1);
    }

    #[test]
    fn growing_equals_the_rescanning_reference_on_every_try() {
        use crate::testgraphs::wide_graph;
        let mut scratch = GrowScratch::default(); // one, reused across graphs
        let mut fell_back = 0;
        for seed in 0..400u64 {
            let g = wide_graph(seed);
            let mut rng = SplitMix64::new(seed);
            scratch.prepare(&g);
            let mut parts = vec![7u32; g.nv()]; // stale contents must not matter
            for try_no in 0..4 {
                let from = rng.below(g.nv());
                let t0 = (g.total_vwgt() as f64 * [0.5, 0.25, 0.75, 1.0][try_no]).round() as u64;
                let cut = grow_from(&g, from, t0, &mut parts, &mut scratch);
                assert_eq!(
                    parts,
                    reference::grow_from(&g, from, t0),
                    "graph {seed} try {try_no} from {from}"
                );
                assert_eq!(
                    cut,
                    cut_weight_2way(&g, &parts),
                    "graph {seed} try {try_no}"
                );
            }
            fell_back += !g.is_connected() as usize;
        }
        assert!(fell_back > 40, "only {fell_back} disconnected graphs");
    }

    #[test]
    fn the_winning_try_equals_the_reference_and_draws_as_many_seeds() {
        // Few vertices against four tries: repeated seeds are the rule.
        use crate::testgraphs::wide_graph;
        let mut scratch = Scratch::default();
        let mut repeats = 0;
        for seed in 0..400u64 {
            let g = wide_graph(seed);
            let total = g.total_vwgt();
            let t0 = total / 2;
            let t = BisectTargets::with_ub(t0, total - t0, 1.001, g.max_vwgt());
            let (mut ra, mut rb) = (SplitMix64::new(seed), SplitMix64::new(seed));
            let (cut, _) = greedy_graph_growing_with(&g, &t, 4, &mut ra, &mut scratch);
            let want = reference::greedy_graph_growing(&g, &t, 4, &mut rb);
            assert_eq!(scratch.parts, want, "graph {seed}");
            assert_eq!(cut, cut_weight_2way(&g, &want), "graph {seed}");
            assert_eq!(
                ra.next_u64(),
                rb.next_u64(),
                "graph {seed}: rng streams diverged"
            );
            repeats += (scratch.grow.tried.len() < 4) as usize;
        }
        assert!(repeats > 20, "only {repeats} calls met a repeated seed");
    }

    #[test]
    fn a_repeated_bisection_is_not_polished_and_changes_nothing() {
        // Tiny grids and paths at the fractions RB asks for: different
        // seeds grow the same bisection all the time.
        let path = |n: usize| {
            let lists: Vec<Vec<(u32, u32)>> = (0..n)
                .map(|v| {
                    let left = v.checked_sub(1).map(|u| (u as u32, 1));
                    let right = (v + 1 < n).then_some(((v + 1) as u32, 1));
                    left.into_iter().chain(right).collect()
                })
                .collect();
            CsrGraph::from_lists(&lists).unwrap()
        };
        let graphs = [
            grid(2, 2),
            grid(2, 3),
            grid(3, 3),
            path(3),
            path(4),
            path(5),
        ];
        let mut scratch = Scratch::default();
        let mut repeats = 0;
        for (i, g) in graphs.iter().enumerate() {
            for frac0 in [0.5, 1.0 / 3.0, 2.0 / 5.0, 3.0 / 7.0] {
                let total = g.total_vwgt();
                let t0 = (total as f64 * frac0).round() as u64;
                let t = BisectTargets::with_ub(t0, total - t0, 1.001, g.max_vwgt());
                for seed in 0..40u64 {
                    let (mut ra, mut rb) = (SplitMix64::new(seed), SplitMix64::new(seed));
                    let (cut, _) = greedy_graph_growing_with(g, &t, 4, &mut ra, &mut scratch);
                    let want = reference::greedy_graph_growing(g, &t, 4, &mut rb);
                    let at = format!("graph {i} frac0 {frac0} seed {seed}");
                    assert_eq!(scratch.parts, want, "{at}");
                    assert_eq!(cut, cut_weight_2way(g, &want), "{at}");
                    assert_eq!(ra.next_u64(), rb.next_u64(), "{at}: rng streams diverged");
                    repeats += scratch.grow.tried.len() - scratch.grow.grown_cuts.len();
                }
            }
        }
        assert!(repeats > 200, "only {repeats} repeated bisections");
    }
}
