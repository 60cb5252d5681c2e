//! Node-aware rank placement.
//!
//! The machine is not flat: the P690's 8-way SMP nodes make intra-node
//! messages ~6× cheaper in latency and ~4× in bandwidth. *Which* rank
//! lands on which node therefore matters. An SFC partition has a free
//! bonus here: consecutive curve segments are spatial neighbours, so
//! packing ranks onto nodes **in rank order** puts most neighbour traffic
//! inside nodes — one more consequence of curve locality the paper's
//! machine implicitly enjoyed. This module quantifies it.

use crate::machine::MachineModel;
use cubesfc_graph::metrics::part_exchange_points;
use cubesfc_graph::{CsrGraph, Partition, SplitMix64};

/// A placement of ranks onto machine slots: `slot_of[rank]` is the
/// physical processor index whose node is `slot / procs_per_node`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RankMap {
    /// Physical slot of each rank.
    pub slot_of: Vec<u32>,
}

impl RankMap {
    /// The identity placement (rank `i` on slot `i`) — what an SFC
    /// partition gets by default and what MPI typically does.
    pub fn identity(nranks: usize) -> RankMap {
        RankMap {
            slot_of: (0..nranks as u32).collect(),
        }
    }

    /// A seeded random placement — the adversarial baseline: all locality
    /// between consecutive ranks is destroyed.
    pub fn random(nranks: usize, seed: u64) -> RankMap {
        let mut rng = SplitMix64::new(seed);
        RankMap {
            slot_of: rng.permutation(nranks),
        }
    }
}

/// The fraction of exchanged points that travel *between* nodes under a
/// placement (lower is better).
pub fn internode_traffic_fraction(
    graph: &CsrGraph,
    partition: &Partition,
    machine: &MachineModel,
    map: &RankMap,
) -> f64 {
    let mut total = 0u64;
    let mut inter = 0u64;
    for (from, to, points) in part_exchange_points(graph, partition) {
        total += points;
        let nf = machine.node_of(map.slot_of[from as usize] as usize);
        let nt = machine.node_of(map.slot_of[to as usize] as usize);
        if nf != nt {
            inter += points;
        }
    }
    if total == 0 {
        0.0
    } else {
        inter as f64 / total as f64
    }
}

/// Greedy node packing: repeatedly open a node, seed it with the
/// unplaced rank having the most traffic to already-placed-on-this-node
/// ranks (or the lowest-index unplaced rank for a fresh node), until the
/// node is full. A cheap locality heuristic for *non*-SFC partitions
/// whose rank numbering is arbitrary.
pub fn greedy_node_packing(
    graph: &CsrGraph,
    partition: &Partition,
    machine: &MachineModel,
) -> RankMap {
    let nranks = partition.nparts();
    let ppn = machine.procs_per_node;
    // Symmetric traffic matrix in sparse form.
    let mut traffic: std::collections::HashMap<(u32, u32), u64> = std::collections::HashMap::new();
    for (a, b, pts) in part_exchange_points(graph, partition) {
        *traffic.entry((a, b)).or_default() += pts;
    }
    let vol = |a: u32, b: u32| -> u64 {
        traffic.get(&(a, b)).copied().unwrap_or(0) + traffic.get(&(b, a)).copied().unwrap_or(0)
    };

    let mut placed = vec![false; nranks];
    let mut slot_of = vec![0u32; nranks];
    let mut next_slot = 0u32;
    while (next_slot as usize) < nranks {
        // Seed: lowest unplaced rank.
        let seed = (0..nranks).find(|&r| !placed[r]).unwrap();
        let mut node_members = vec![seed];
        placed[seed] = true;
        slot_of[seed] = next_slot;
        next_slot += 1;
        while node_members.len() < ppn && (next_slot as usize) < nranks {
            // Unplaced rank with max traffic into this node.
            let best = (0..nranks).filter(|&r| !placed[r]).max_by_key(|&r| {
                node_members
                    .iter()
                    .map(|&m| vol(r as u32, m as u32))
                    .sum::<u64>()
            });
            let Some(r) = best else { break };
            placed[r] = true;
            slot_of[r] = next_slot;
            next_slot += 1;
            node_members.push(r);
        }
    }
    RankMap { slot_of }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineModel;

    impl RankMap {
        /// Validate: a permutation of `0..nranks`.
        fn is_valid(&self) -> bool {
            let n = self.slot_of.len();
            let mut seen = vec![false; n];
            for &s in &self.slot_of {
                if s as usize >= n || seen[s as usize] {
                    return false;
                }
                seen[s as usize] = true;
            }
            true
        }
    }

    /// A ring dual graph where rank i talks to i±1 only.
    fn ring_setup(n: usize) -> (CsrGraph, Partition) {
        let lists: Vec<Vec<(u32, u32)>> = (0..n)
            .map(|v| vec![(((v + n - 1) % n) as u32, 8), (((v + 1) % n) as u32, 8)])
            .collect();
        let g = CsrGraph::from_lists(&lists).unwrap();
        let p = Partition::new(n, (0..n as u32).collect());
        (g, p)
    }

    #[test]
    fn identity_and_random_are_permutations() {
        assert!(RankMap::identity(16).is_valid());
        assert!(RankMap::random(16, 7).is_valid());
        assert_ne!(RankMap::identity(64), RankMap::random(64, 7));
    }

    #[test]
    fn identity_placement_keeps_ring_traffic_on_node() {
        // 32 ranks in a ring, 8 per node: only 4 of 32 hops cross nodes
        // each way -> inter fraction 4/32 = 0.125.
        let (g, p) = ring_setup(32);
        let m = MachineModel::ncar_p690();
        let f_id = internode_traffic_fraction(&g, &p, &m, &RankMap::identity(32));
        assert!((f_id - 0.125).abs() < 1e-12, "{f_id}");
        // Random placement is much worse.
        let f_rand = internode_traffic_fraction(&g, &p, &m, &RankMap::random(32, 3));
        assert!(f_rand > 2.0 * f_id, "random {f_rand} vs identity {f_id}");
    }

    #[test]
    fn greedy_packing_recovers_ring_locality() {
        // Scramble rank numbering of the ring; greedy packing should get
        // close to the identity-quality placement.
        let n = 32;
        let lists: Vec<Vec<(u32, u32)>> = (0..n)
            .map(|v| vec![(((v + n - 1) % n) as u32, 8), (((v + 1) % n) as u32, 8)])
            .collect();
        let g = CsrGraph::from_lists(&lists).unwrap();
        // Partition assignment: vertex v belongs to part perm[v].
        let mut rng = SplitMix64::new(11);
        let perm = rng.permutation(n);
        let p = Partition::new(n, perm);
        let m = MachineModel::ncar_p690();

        let f_id = internode_traffic_fraction(&g, &p, &m, &RankMap::identity(n));
        let packed = greedy_node_packing(&g, &p, &m);
        assert!(packed.is_valid());
        let f_packed = internode_traffic_fraction(&g, &p, &m, &packed);
        assert!(
            f_packed < f_id,
            "greedy packing should beat arbitrary numbering: {f_packed} vs {f_id}"
        );
        assert!(f_packed <= 0.35, "{f_packed}");
    }

    #[test]
    fn zero_traffic_graph_is_harmless() {
        let g = CsrGraph::new(vec![0, 0, 0], vec![], vec![], vec![1, 1]).unwrap();
        let p = Partition::new(2, vec![0, 1]);
        let m = MachineModel::ncar_p690();
        assert_eq!(
            internode_traffic_fraction(&g, &p, &m, &RankMap::identity(2)),
            0.0
        );
        assert!(greedy_node_packing(&g, &p, &m).is_valid());
    }
}
