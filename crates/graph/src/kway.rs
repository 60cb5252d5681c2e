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
use crate::partition::{weight_cap, Partition, PartitionConfig};
use crate::refine::{greedy_refine, part_weights, rebalance, Objective, PartBounds};
use crate::rng::SplitMix64;

/// Greedy k-way edgecut refinement, in place. Returns the number of moves.
///
/// The balancing phase first pushes every part back under `cap`; then the
/// k-way refinement loop (`refine::greedy_refine`) moves vertices to
/// adjacent parts for edgecut gain under the same cap (zero-gain moves
/// only when they strictly improve balance).
pub fn kway_refine(
    g: &CsrGraph,
    parts: &mut [u32],
    nparts: usize,
    cap: u64,
    passes: usize,
    rng: &mut SplitMix64,
) -> usize {
    let _span = cubesfc_obs::span("refine");
    let mut weights = part_weights(g, parts, nparts);
    rebalance(g, parts, &mut weights, cap);
    let bounds = PartBounds { min: 0, max: cap };
    greedy_refine(g, parts, &mut weights, bounds, passes, rng, Objective::Cut)
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

    let target = g.total_vwgt() / cfg.nparts as u64;
    let refine = |graph: &CsrGraph, parts: &mut Vec<u32>, rng: &mut SplitMix64| {
        let cap = weight_cap(target, cfg.ub_factor, graph.max_vwgt());
        kway_refine(graph, parts, cfg.nparts, cap, cfg.refine_passes, rng);
    };

    refine(coarsest, &mut parts, &mut rng);
    for li in (0..levels.len()).rev() {
        let fine_graph = if li == 0 { g } else { &levels[li - 1].graph };
        parts = levels[li].cmap.iter().map(|&c| parts[c as usize]).collect();
        refine(fine_graph, &mut parts, &mut rng);
    }

    Partition::new(cfg.nparts, parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{edgecut, load_balance};
    use crate::testgraphs::grid;

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
}
