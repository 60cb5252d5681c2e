//! Total-communication-volume (TV) partitioning — METIS's
//! `PartGraphKway` with the volume objective.
//!
//! "A variant of the K-way algorithm minimizes the total communication
//! volume (TV)" (paper §2). The volume objective counts, for every
//! vertex, the number of *distinct remote parts* among its neighbours
//! (each distinct remote part receives one copy of the vertex's data),
//! rather than the number of cut edges.
//!
//! The paper found, to its surprise, that TV did **not** always yield a
//! lower communication volume than KWAY on the cubed-sphere
//! ("This result directly contradicts the expected minimization property
//! of the TV algorithm and warrants further investigation") — greedy
//! volume refinement from a cut-optimized start is exactly the kind of
//! local search that can get stuck that way, and the experiment harness
//! records what our implementation produces.

use crate::csr::CsrGraph;
use crate::kway::kway;
use crate::marker::Marker;
use crate::partition::{weight_cap, Partition, PartitionConfig};
use crate::refine::{greedy_refine, part_weights, Objective, PartBounds};
use crate::rng::SplitMix64;

/// Volume contribution of vertex `v` when it sits in part `own`: the
/// number of distinct parts other than `own` among its neighbours.
/// `seen` is a reusable stamped marker over part ids (cleared here).
fn vertex_volume(g: &CsrGraph, parts: &[u32], v: usize, own: u32, seen: &mut Marker) -> i64 {
    let mut distinct = 0;
    seen.clear();
    for (n, _) in g.neighbors(v) {
        let p = parts[n];
        if p != own && seen.mark(p as usize) {
            distinct += 1;
        }
    }
    distinct
}

/// Exact change in total communication volume if `v` moves to `to`.
///
/// Affects `v`'s own contribution and the contributions of each of its
/// neighbours (for whom `v`'s part membership may add or remove a distinct
/// remote part). `seen` is scratch over the part ids, reused across calls.
pub fn volume_delta(g: &CsrGraph, parts: &[u32], v: usize, to: u32, seen: &mut Marker) -> i64 {
    let from = parts[v];
    if from == to {
        return 0;
    }
    // v's own contribution after minus before.
    let mut delta = vertex_volume(g, parts, v, to, seen) - vertex_volume(g, parts, v, from, seen);

    // Neighbours: does `from` remain among their remote parts? does `to`
    // become new?
    for (u, _) in g.neighbors(v) {
        let pu = parts[u];
        // Count u's neighbours in `from` and `to`, excluding v itself.
        let mut others_in_from = false;
        let mut others_in_to = false;
        for (w, _) in g.neighbors(u) {
            if w == v {
                continue;
            }
            if parts[w] == from {
                others_in_from = true;
            }
            if parts[w] == to {
                others_in_to = true;
            }
        }
        // Before: v contributed `from` to u's remote set iff from != pu and
        // no other neighbour of u is in `from`.
        if from != pu && !others_in_from {
            delta -= 1;
        }
        // After: v contributes `to` iff to != pu and no other neighbour in
        // `to`.
        if to != pu && !others_in_to {
            delta += 1;
        }
    }
    delta
}

/// Greedy volume refinement, in place. Returns the number of moves made.
///
/// The k-way refinement loop (`refine::greedy_refine`) with the volume
/// objective: each move's gain is minus its exact [`volume_delta`], under
/// the weight cap `cap`.
pub fn volume_refine(
    g: &CsrGraph,
    parts: &mut [u32],
    nparts: usize,
    cap: u64,
    passes: usize,
    rng: &mut SplitMix64,
) -> usize {
    let mut weights = part_weights(g, parts, nparts);
    let bounds = PartBounds { min: 0, max: cap };
    greedy_refine(
        g,
        parts,
        &mut weights,
        bounds,
        passes,
        rng,
        Objective::Volume,
    )
}

/// The TV driver: a K-way partition post-optimized for total
/// communication volume.
pub fn kway_volume(g: &CsrGraph, cfg: &PartitionConfig) -> Partition {
    let _span = cubesfc_obs::span("tv");
    if cfg.nparts == 1 {
        return Partition::new(1, vec![0; g.nv()]);
    }
    let base = kway(g, cfg);
    let mut parts = base.assignment().to_vec();
    let target = g.total_vwgt() / cfg.nparts as u64;
    let cap = weight_cap(target, cfg.ub_factor, g.max_vwgt());
    let mut rng = SplitMix64::new(cfg.seed ^ 0x5456_5456); // "TVTV"
    volume_refine(g, &mut parts, cfg.nparts, cap, cfg.refine_passes, &mut rng);
    Partition::new(cfg.nparts, parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{load_balance, metis_volume};
    use crate::testgraphs::grid;

    #[test]
    fn volume_delta_matches_recomputation() {
        let g = grid(5, 5);
        let mut rng = SplitMix64::new(4);
        let mut parts: Vec<u32> = (0..25).map(|_| rng.below(3) as u32).collect();
        let mut seen = Marker::new(3); // one, reused across every call
        for v in 0..25 {
            for to in 0..3u32 {
                let before = metis_volume(&g, &Partition::new(3, parts.clone())) as i64;
                let d = volume_delta(&g, &parts, v, to, &mut seen);
                let old = parts[v];
                parts[v] = to;
                let after = metis_volume(&g, &Partition::new(3, parts.clone())) as i64;
                parts[v] = old;
                assert_eq!(d, after - before, "v={v} to={to}");
            }
        }
    }

    #[test]
    fn volume_refine_lowers_volume() {
        let g = grid(8, 8);
        // Checkerboard: worst-case volume.
        let mut parts: Vec<u32> = (0..64u32).map(|v| (v + v / 8) % 2).collect();
        let before = metis_volume(&g, &Partition::new(2, parts.clone()));
        let mut rng = SplitMix64::new(8);
        volume_refine(&g, &mut parts, 2, 36, 8, &mut rng);
        let after = metis_volume(&g, &Partition::new(2, parts.clone()));
        assert!(after < before, "{after} !< {before}");
    }

    #[test]
    fn kway_volume_produces_valid_partition() {
        let g = grid(8, 8);
        let cfg = PartitionConfig::new(4);
        let p = kway_volume(&g, &cfg);
        assert_eq!(p.len(), 64);
        assert!(p.nonempty_parts() >= 3);
        let cap = weight_cap(16, cfg.ub_factor, 1);
        assert!(p.part_weights(&g).iter().all(|&w| w <= cap));
        assert!(load_balance(&p.part_weights(&g)) < 0.4);
    }

    #[test]
    fn kway_volume_volume_not_worse_than_kway_start() {
        let g = grid(10, 10);
        let cfg = PartitionConfig::new(5);
        let k = kway(&g, &cfg);
        let t = kway_volume(&g, &cfg);
        assert!(metis_volume(&g, &t) <= metis_volume(&g, &k));
    }

    #[test]
    fn single_part_trivial() {
        let g = grid(3, 3);
        let p = kway_volume(&g, &PartitionConfig::new(1));
        assert!(p.assignment().iter().all(|&x| x == 0));
    }
}
