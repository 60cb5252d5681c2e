//! Multilevel bisection and the recursive-bisection (RB) driver —
//! METIS's `PartGraphRecursive` analogue.
//!
//! "The recursive bisection (RB) algorithm is best for load balancing,
//! but results in larger edgecuts and total communication volume"
//! (paper §2).

use crate::coarsen::coarsen;
use crate::csr::CsrGraph;
use crate::fm::{fm_refine_with, BisectTargets};
use crate::initial::greedy_graph_growing_with;
use crate::partition::{Partition, PartitionConfig};
use crate::rng::SplitMix64;
use crate::scratch::Scratch;

/// Multilevel 2-way partition of `g` with part-0 weight target
/// `t0 = round(frac0 × total)`.
///
/// Coarsens to ~`cfg.coarsen_to` vertices, bisects the coarsest graph by
/// greedy growing, then projects back up with FM refinement per level.
pub fn multilevel_bisect(
    g: &CsrGraph,
    frac0: f64,
    cfg: &PartitionConfig,
    rng: &mut SplitMix64,
) -> Vec<u32> {
    let mut scratch = Scratch::default();
    multilevel_bisect_with(g, frac0, cfg, rng, &mut scratch);
    scratch.parts
}

/// [`multilevel_bisect`] on the caller's buffers; the bisection is left
/// in `scratch.parts`.
fn multilevel_bisect_with(
    g: &CsrGraph,
    frac0: f64,
    cfg: &PartitionConfig,
    rng: &mut SplitMix64,
    scratch: &mut Scratch,
) {
    let total = g.total_vwgt();
    let t0 = ((total as f64) * frac0).round() as u64;
    let t1 = total - t0.min(total);

    let levels = coarsen(g, cfg.coarsen_to.max(32), rng);
    let coarsest = levels.last().map(|l| &l.graph).unwrap_or(g);

    let targets = BisectTargets::with_ub(t0, t1, cfg.ub_factor, coarsest.max_vwgt());
    let (mut cut, settled) =
        greedy_graph_growing_with(coarsest, &targets, cfg.init_tries, rng, scratch);
    let Scratch {
        fm,
        parts,
        parts_next,
        ..
    } = scratch;
    // Same graph, same targets: after a polish that settled, this
    // refinement would repeat the polish's last, fully rolled-back pass.
    if !settled {
        fm_refine_with(coarsest, parts, &targets, cfg.refine_passes, &mut cut, fm);
    }

    // Uncoarsen: project through each level, refining as we go. A
    // contracted edge weighs what the edges it stands for weigh, so the
    // projection keeps the cut.
    for li in (0..levels.len()).rev() {
        let fine_graph = if li == 0 { g } else { &levels[li - 1].graph };
        parts_next.clear();
        parts_next.extend(levels[li].cmap.iter().map(|&c| parts[c as usize]));
        std::mem::swap(parts, parts_next);
        let targets = BisectTargets::with_ub(t0, t1, cfg.ub_factor, fine_graph.max_vwgt());
        fm_refine_with(fine_graph, parts, &targets, cfg.refine_passes, &mut cut, fm);
    }
}

/// Below this many vertices a sub-bisection is not worth a fork: the
/// subgraph extraction + multilevel solve is microseconds-scale and the
/// join overhead would dominate.
const RB_PARALLEL_MIN_VERTS: usize = 192;

/// Recursive bisection into `cfg.nparts` parts.
///
/// At each step the remaining part range `[lo, hi)` is split as evenly as
/// possible (`⌊k/2⌋` vs `⌈k/2⌉`) with the part-0 weight fraction matching
/// the part-count split, so non-power-of-two part counts are handled.
///
/// The two sub-bisections of each step are independent, so they recurse
/// as parallel `rayon::join` jobs (the job-level parallelism METIS itself
/// exploits in recursive bisection). Every branch seeds its RNG from its
/// position in the bisection tree — not from whatever its siblings drew —
/// so the result is **bit-identical** to [`recursive_bisection_serial`]
/// no matter how many worker threads run.
pub fn recursive_bisection(g: &CsrGraph, cfg: &PartitionConfig) -> Partition {
    rb_partition(g, cfg, true)
}

/// [`recursive_bisection`] with the parallel recursion disabled — same
/// partition, one thread. Exists so tests (and scaling benchmarks) can
/// prove the parallel path is bit-identical.
pub fn recursive_bisection_serial(g: &CsrGraph, cfg: &PartitionConfig) -> Partition {
    rb_partition(g, cfg, false)
}

fn rb_partition(g: &CsrGraph, cfg: &PartitionConfig, parallel: bool) -> Partition {
    let _span = cubesfc_obs::span("rb");
    assert!(cfg.nparts >= 1, "nparts must be positive");
    let mut verts: Vec<u32> = (0..g.nv() as u32).collect();
    let mut labels = vec![0u32; g.nv()];
    let root = TreeNode {
        lo: 0,
        k: cfg.nparts,
        path: 1,
        parallel,
    };
    let mut scratch = Scratch::default();
    rb_recurse(g, &mut verts, &mut labels, cfg, root, &mut scratch);
    let mut assign = vec![0u32; g.nv()];
    for (&v, &p) in verts.iter().zip(&labels) {
        assign[v as usize] = p;
    }
    // Per-level slack can still stack through ~log2(k) levels; enforce the
    // *global* tolerance at the end, as METIS does.
    let target = g.total_vwgt() / cfg.nparts as u64;
    let cap = crate::partition::weight_cap(target, cfg.ub_factor, g.max_vwgt());
    let mut weights = crate::refine::part_weights(g, &assign, cfg.nparts);
    crate::refine::rebalance(g, &mut assign, &mut weights, cap);
    Partition::new(cfg.nparts, assign)
}

/// The RNG of one bisection-tree node, derived from the node's root-path
/// (`1` for the root, `path·2 + branch` for children). Sibling subtrees
/// draw from disjoint streams, which is what makes the parallel
/// recursion order-independent.
fn branch_rng(seed: u64, path: u64) -> SplitMix64 {
    let mut mixer = SplitMix64::new(seed ^ path.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let derived = mixer.next_u64();
    SplitMix64::new(derived)
}

/// Where a node of the bisection tree sits: its part range, its root
/// path (the RNG stream) and whether its subtrees may fork.
#[derive(Clone, Copy)]
struct TreeNode {
    lo: usize,
    k: usize,
    path: u64,
    parallel: bool,
}

/// Bisect `verts` into parts `[lo, lo + k)`: reorder `verts` in place,
/// side 0 first, each side in its old order, and leave each vertex's
/// part in the same place of `labels`. Pure in `(g, verts, cfg, node)` —
/// execution interleaving cannot change the result, and `scratch`
/// carries buffers, never state.
fn rb_recurse(
    g: &CsrGraph,
    verts: &mut [u32],
    labels: &mut [u32],
    cfg: &PartitionConfig,
    node: TreeNode,
    scratch: &mut Scratch,
) {
    let TreeNode {
        lo,
        k,
        path,
        parallel,
    } = node;
    if k == 1 || verts.is_empty() {
        // Degenerate recursion: fewer vertices than parts leaves the
        // remaining parts empty (possible when k approaches n, as in the
        // paper's one-element-per-processor runs).
        labels.fill(lo as u32);
        return;
    }
    let sub = g.subgraph_into(verts, &mut scratch.global_to_local);
    let k0 = k / 2;
    let frac0 = k0 as f64 / k as f64;
    // Per-level balance must be tight: deviations compound multiplicatively
    // through ~log2(k) levels, and RB is "best for load balancing" in the
    // paper precisely because each bisection is held close to its target.
    // weight_cap still allows +max_vwgt slack, so refinement never jams.
    let level_cfg = PartitionConfig {
        ub_factor: cfg.ub_factor.min(1.001),
        ..*cfg
    };
    let mut rng = branch_rng(cfg.seed, path);
    multilevel_bisect_with(&sub, frac0, &level_cfg, &mut rng, scratch);

    // A stable partition of `verts` by side, staged in `labels`, which
    // the leaves below overwrite anyway.
    let sides = &scratch.parts;
    let n0 = sides.iter().filter(|&&p| p == 0).count();
    let mut next = [0, n0];
    for (&v, &p) in verts.iter().zip(sides) {
        labels[next[p as usize]] = v;
        next[p as usize] += 1;
    }
    verts.copy_from_slice(labels);
    let fork = parallel && verts.len() >= RB_PARALLEL_MIN_VERTS && k >= 4;
    let (verts0, verts1) = verts.split_at_mut(n0);
    let (labels0, labels1) = labels.split_at_mut(n0);

    let child0 = TreeNode {
        k: k0,
        path: path << 1,
        ..node
    };
    let child1 = TreeNode {
        lo: lo + k0,
        k: k - k0,
        path: (path << 1) | 1,
        ..node
    };
    if fork {
        // The forked half cannot share this thread's buffers.
        rayon::join(
            || rb_recurse(g, verts0, labels0, cfg, child0, scratch),
            || rb_recurse(g, verts1, labels1, cfg, child1, &mut Scratch::default()),
        );
    } else {
        rb_recurse(g, verts0, labels0, cfg, child0, scratch);
        rb_recurse(g, verts1, labels1, cfg, child1, scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{edgecut, load_balance};
    use crate::testgraphs::grid;

    #[test]
    fn rb_4way_on_grid_is_balanced_and_cheap() {
        let g = grid(8, 8);
        let p = recursive_bisection(&g, &PartitionConfig::new(4));
        assert_eq!(p.nonempty_parts(), 4);
        let lb = load_balance(&p.part_weights(&g));
        assert!(lb < 0.12, "lb = {lb}");
        let cut = edgecut(&g, &p);
        // Optimal 4-way on 8×8 is 16 (two straight lines); allow slack.
        assert!(cut <= 28, "cut = {cut}");
    }

    #[test]
    fn rb_handles_non_power_of_two() {
        let g = grid(9, 9); // 81 vertices
        let p = recursive_bisection(&g, &PartitionConfig::new(3));
        assert_eq!(p.nonempty_parts(), 3);
        let w = p.part_weights(&g);
        assert!(load_balance(&w) < 0.15, "weights = {w:?}");
    }

    #[test]
    fn rb_single_part_is_trivial() {
        let g = grid(4, 4);
        let p = recursive_bisection(&g, &PartitionConfig::new(1));
        assert!(p.assignment().iter().all(|&x| x == 0));
    }

    #[test]
    fn rb_k_equals_n_assigns_singletons_mostly() {
        // 16 vertices into 16 parts: every part has 0, 1, or 2 vertices
        // (imbalance allowed by the +max_vwgt slack).
        let g = grid(4, 4);
        let p = recursive_bisection(&g, &PartitionConfig::new(16));
        let sizes = p.part_sizes();
        assert!(sizes.iter().all(|&s| s <= 2), "{sizes:?}");
        assert_eq!(sizes.iter().sum::<usize>(), 16);
    }

    #[test]
    fn rb_parallel_is_bit_identical_to_serial() {
        // Big enough that the top levels really fork (576 ≥ threshold),
        // across several seeds and part counts including a non-power-of-2.
        let g = grid(24, 24);
        for seed in [1u64, 42, 0xD15EA5E] {
            for k in [4usize, 6, 16] {
                let cfg = PartitionConfig::new(k).with_seed(seed);
                let par = recursive_bisection(&g, &cfg);
                let ser = recursive_bisection_serial(&g, &cfg);
                assert_eq!(
                    par.assignment(),
                    ser.assignment(),
                    "seed={seed} k={k}: parallel RB diverged from serial"
                );
            }
        }
    }

    #[test]
    fn rb_is_deterministic_for_seed() {
        let g = grid(6, 6);
        let a = recursive_bisection(&g, &PartitionConfig::new(4).with_seed(1));
        let b = recursive_bisection(&g, &PartitionConfig::new(4).with_seed(1));
        assert_eq!(a, b);
    }

    #[test]
    fn multilevel_bisect_large_ring() {
        // 512-vertex ring: forces several coarsening levels; best cut is 2.
        let lists: Vec<Vec<(u32, u32)>> = (0..512)
            .map(|v| vec![(((v + 511) % 512) as u32, 1), (((v + 1) % 512) as u32, 1)])
            .collect();
        let g = CsrGraph::from_lists(&lists).unwrap();
        let cfg = PartitionConfig::new(2);
        let mut rng = SplitMix64::new(3);
        let parts = multilevel_bisect(&g, 0.5, &cfg, &mut rng);
        let cut = crate::fm::cut_weight_2way(&g, &parts);
        assert!(cut <= 6, "ring cut = {cut}");
        let w0 = parts.iter().filter(|&&p| p == 0).count();
        assert!((236..=276).contains(&w0), "w0 = {w0}");
    }

    /// `multilevel_bisect` as it was: the coarsest graph is always refined
    /// after growing, and every piece is the pre-rework reference.
    fn reference_multilevel_bisect(
        g: &CsrGraph,
        frac0: f64,
        cfg: &PartitionConfig,
        rng: &mut SplitMix64,
    ) -> Vec<u32> {
        use crate::fm::reference::fm_refine;
        let total = g.total_vwgt();
        let t0 = ((total as f64) * frac0).round() as u64;
        let t1 = total - t0.min(total);
        let levels = coarsen(g, cfg.coarsen_to.max(32), rng);
        let coarsest = levels.last().map(|l| &l.graph).unwrap_or(g);
        let targets = BisectTargets::with_ub(t0, t1, cfg.ub_factor, coarsest.max_vwgt());
        let mut parts = crate::initial::reference::greedy_graph_growing(
            coarsest,
            &targets,
            cfg.init_tries,
            rng,
        );
        fm_refine(coarsest, &mut parts, &targets, cfg.refine_passes);
        for li in (0..levels.len()).rev() {
            let fine_graph = if li == 0 { g } else { &levels[li - 1].graph };
            let mut fine_parts: Vec<u32> =
                levels[li].cmap.iter().map(|&c| parts[c as usize]).collect();
            let targets = BisectTargets::with_ub(t0, t1, cfg.ub_factor, fine_graph.max_vwgt());
            fm_refine(fine_graph, &mut fine_parts, &targets, cfg.refine_passes);
            parts = fine_parts;
        }
        parts
    }

    #[test]
    fn multilevel_bisect_equals_the_reference_pipeline() {
        // One Scratch across graphs of every size, as a bisection tree
        // uses it: small graphs (no coarsening) and grids deep enough for
        // two or three levels, at the fractions and tolerances RB uses.
        use crate::testgraphs::wide_graph;
        let mut scratch = Scratch::default();
        let graphs = (0..150u64)
            .map(wide_graph)
            .chain([grid(12, 12), grid(20, 17), grid(31, 9)]);
        for (i, g) in graphs.enumerate() {
            for (frac0, ub) in [(0.5, 1.001), (1.0 / 3.0, 1.03), (3.0 / 7.0, 1.001)] {
                let cfg = PartitionConfig {
                    coarsen_to: 40,
                    ..PartitionConfig::new(2).with_ub_factor(ub)
                };
                let (mut ra, mut rb) = (SplitMix64::new(i as u64), SplitMix64::new(i as u64));
                multilevel_bisect_with(&g, frac0, &cfg, &mut ra, &mut scratch);
                let want = reference_multilevel_bisect(&g, frac0, &cfg, &mut rb);
                assert_eq!(scratch.parts, want, "graph {i} frac0 {frac0}");
                assert_eq!(
                    ra.next_u64(),
                    rb.next_u64(),
                    "graph {i}: rng streams diverged"
                );
            }
        }
    }

    #[test]
    fn every_driver_partitions_the_wide_graphs() {
        // Zero-weight edges, coarse-level weights and disconnected graphs
        // through the public drivers: the queue's bucket arithmetic holds
        // (debug assertions) and every vertex lands in a part.
        use crate::testgraphs::wide_graph;
        for seed in 0..120u64 {
            let g = wide_graph(seed);
            let k = 2 + (seed as usize % 6);
            if k > g.nv() {
                continue;
            }
            let cfg = PartitionConfig::new(k).with_seed(seed);
            let rb = recursive_bisection(&g, &cfg);
            assert_eq!(rb, recursive_bisection_serial(&g, &cfg), "graph {seed}");
            for p in [rb, crate::kway(&g, &cfg), crate::kway_volume(&g, &cfg)] {
                assert_eq!(p.len(), g.nv());
                assert_eq!(
                    p.part_weights(&g).iter().sum::<u64>(),
                    g.total_vwgt(),
                    "graph {seed}"
                );
            }
        }
    }
}
