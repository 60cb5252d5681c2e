//! Domain decomposition and the halo-exchange schedule.
//!
//! A [`cubesfc_graph::Partition`] of the element dual graph becomes a
//! [`Decomposition`]: each rank owns a set of elements and, for DSS, must
//! combine partial sums for every global dof it shares with another rank.
//! The exchange plan is symmetric: for each pair of communicating ranks,
//! both sides hold the *same ordered list* of shared dofs, so a message is
//! just the flat array of partial sums in list order — exactly how SEAM
//! packs its halo buffers.

use crate::dss::GlobalDofs;
use cubesfc_graph::Partition;

/// Per-rank view of a partitioned spectral element mesh.
#[derive(Clone, Debug)]
pub struct Decomposition {
    /// Number of ranks.
    pub nranks: usize,
    /// Elements owned by each rank (ascending global element ids).
    pub elems_of_rank: Vec<Vec<u32>>,
    /// Owning rank of each element.
    pub rank_of_elem: Vec<u32>,
    /// Per rank: the exchange plan.
    pub plans: Vec<RankPlan>,
}

/// One rank's exchange plan.
#[derive(Clone, Debug, Default)]
pub struct RankPlan {
    /// Global dofs this rank touches that are also touched by other ranks,
    /// ascending. Partial sums are accumulated in this order.
    pub shared_dofs: Vec<u32>,
    /// For each neighbour rank: `(rank, indices into shared_dofs)` of the
    /// dofs shared with that neighbour, ascending by dof. The neighbour's
    /// plan contains the same dofs in the same order.
    pub neighbors: Vec<(u32, Vec<u32>)>,
}

impl Decomposition {
    /// Build from a partition of the elements and the global dof map.
    ///
    /// # Panics
    ///
    /// Panics if the partition length differs from the dof map's element
    /// count.
    pub fn build(partition: &Partition, dofs: &GlobalDofs) -> Decomposition {
        let nel = dofs.nelems();
        assert_eq!(partition.len(), nel, "partition/mesh size mismatch");
        let nranks = partition.nparts();

        let mut elems_of_rank: Vec<Vec<u32>> = vec![Vec::new(); nranks];
        let mut rank_of_elem = vec![0u32; nel];
        for (e, re) in rank_of_elem.iter_mut().enumerate() {
            let r = partition.part_of(e);
            elems_of_rank[r].push(e as u32);
            *re = r as u32;
        }

        // The distinct ranks touching each dof, in CSR form over the dense
        // dof ids: a dof's slots are its multiplicity (at most four).
        let mut start = vec![0usize; dofs.ndofs() + 1];
        for (d, m) in dofs.multiplicities().into_iter().enumerate() {
            start[d + 1] = start[d] + m as usize;
        }
        let mut end = start[..dofs.ndofs()].to_vec();
        let mut touch = vec![0u32; start[dofs.ndofs()]];
        for (e, &r) in rank_of_elem.iter().enumerate() {
            for &id in dofs.ids(e) {
                let (s, f) = (start[id as usize], &mut end[id as usize]);
                if !touch[s..*f].contains(&r) {
                    touch[*f] = r;
                    *f += 1;
                }
            }
        }

        // Shared dofs per rank, ascending; a dof's ranks sorted ascending.
        let mut plans: Vec<RankPlan> = vec![RankPlan::default(); nranks];
        for (d, &f) in end.iter().enumerate() {
            let ranks = &mut touch[start[d]..f];
            ranks.sort_unstable();
            if ranks.len() >= 2 {
                for &r in ranks.iter() {
                    plans[r as usize].shared_dofs.push(d as u32);
                }
            }
        }
        // Neighbour lists: each shared dof's index in the rank's list,
        // under every other rank touching it; neighbours ascending by rank.
        let mut slot = vec![u32::MAX; nranks];
        for (r, plan) in plans.iter_mut().enumerate() {
            let mut by_nbr: Vec<(u32, Vec<u32>)> = Vec::new();
            for (i, &d) in plan.shared_dofs.iter().enumerate() {
                for &other in &touch[start[d as usize]..end[d as usize]] {
                    if other as usize == r {
                        continue;
                    }
                    if slot[other as usize] == u32::MAX {
                        slot[other as usize] = by_nbr.len() as u32;
                        by_nbr.push((other, Vec::new()));
                    }
                    by_nbr[slot[other as usize] as usize].1.push(i as u32);
                }
            }
            for &(other, _) in &by_nbr {
                slot[other as usize] = u32::MAX;
            }
            by_nbr.sort_unstable_by_key(|&(other, _)| other);
            plan.neighbors = by_nbr;
        }

        Decomposition {
            nranks,
            elems_of_rank,
            rank_of_elem,
            plans,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubesfc_mesh::Topology;
    use std::collections::{BTreeMap, BTreeSet};

    impl Decomposition {
        /// Number of elements on each rank.
        fn elems_per_rank(&self) -> Vec<usize> {
            self.elems_of_rank.iter().map(|v| v.len()).collect()
        }
    }

    impl Decomposition {
        /// Total number of messages per exchange round (ordered pairs).
        fn total_messages(&self) -> usize {
            self.plans.iter().map(|p| p.neighbors.len()).sum()
        }
    }

    /// The ordered-map construction the dense build replaced, kept as
    /// its oracle.
    fn build_with_ordered_maps(partition: &Partition, dofs: &GlobalDofs) -> Decomposition {
        let nranks = partition.nparts();
        let mut elems_of_rank: Vec<Vec<u32>> = vec![Vec::new(); nranks];
        let mut rank_of_elem = vec![0u32; dofs.nelems()];
        for (e, re) in rank_of_elem.iter_mut().enumerate() {
            let r = partition.part_of(e);
            elems_of_rank[r].push(e as u32);
            *re = r as u32;
        }
        let mut ranks_of_dof: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
        for (e, &r) in rank_of_elem.iter().enumerate() {
            for &id in dofs.ids(e) {
                ranks_of_dof.entry(id).or_default().insert(r);
            }
        }
        let mut plans: Vec<RankPlan> = vec![RankPlan::default(); nranks];
        for (&dof, ranks) in &ranks_of_dof {
            if ranks.len() < 2 {
                continue;
            }
            for &r in ranks {
                plans[r as usize].shared_dofs.push(dof);
            }
        }
        let mut index_of: Vec<BTreeMap<u32, u32>> = vec![BTreeMap::new(); nranks];
        for (r, plan) in plans.iter().enumerate() {
            for (i, &d) in plan.shared_dofs.iter().enumerate() {
                index_of[r].insert(d, i as u32);
            }
        }
        for r in 0..nranks {
            let mut by_nbr: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
            for &d in &plans[r].shared_dofs {
                for &other in &ranks_of_dof[&d] {
                    if other as usize != r {
                        by_nbr.entry(other).or_default().push(index_of[r][&d]);
                    }
                }
            }
            plans[r].neighbors = by_nbr.into_iter().collect();
        }
        Decomposition {
            nranks,
            elems_of_rank,
            rank_of_elem,
            plans,
        }
    }

    #[test]
    fn dense_build_equals_the_ordered_map_oracle() {
        // Seeded random partitions; drawing parts from a random subset of
        // the ids leaves some parts empty.
        let mut stream = crate::gll::tests::xorshift(0x9e37_79b9_7f4a_7c15);
        let mut next = move |bound: usize| (stream() % bound as u64) as usize;
        for ne in [1usize, 2, 3, 4, 8] {
            let topo = Topology::build(ne);
            let k = topo.num_elems();
            for n in [2usize, 3, 4, 6] {
                let dofs = GlobalDofs::build(&topo, n);
                for nranks in [1usize, 2, 3, 7, 96].repeat(3) {
                    let used: Vec<u32> = (0..nranks as u32).filter(|_| next(4) > 0).collect();
                    let used = if used.is_empty() { vec![0] } else { used };
                    let assign = (0..k).map(|_| used[next(used.len())]).collect();
                    let part = Partition::new(nranks, assign);
                    let dense = Decomposition::build(&part, &dofs);
                    let oracle = build_with_ordered_maps(&part, &dofs);
                    let case = format!("ne={ne} n={n} nranks={nranks}");
                    assert_eq!(dense.nranks, oracle.nranks, "{case}");
                    assert_eq!(dense.elems_of_rank, oracle.elems_of_rank, "{case}");
                    assert_eq!(dense.rank_of_elem, oracle.rank_of_elem, "{case}");
                    for (a, b) in dense.plans.iter().zip(&oracle.plans) {
                        assert_eq!(a.shared_dofs, b.shared_dofs, "{case}");
                        assert_eq!(a.neighbors, b.neighbors, "{case}");
                    }
                    assert_eq!(dense.plans.len(), oracle.plans.len(), "{case}");
                }
            }
        }
    }

    fn setup(ne: usize, n: usize, nparts: usize) -> (GlobalDofs, Partition) {
        let topo = Topology::build(ne);
        let dofs = GlobalDofs::build(&topo, n);
        let k = topo.num_elems();
        // Block partition along element ids.
        let assign: Vec<u32> = (0..k).map(|e| ((e * nparts) / k) as u32).collect();
        (dofs, Partition::new(nparts, assign))
    }

    #[test]
    fn every_element_assigned_once() {
        let (dofs, part) = setup(2, 4, 3);
        let d = Decomposition::build(&part, &dofs);
        let total: usize = d.elems_per_rank().iter().sum();
        assert_eq!(total, 24);
        for (r, elems) in d.elems_of_rank.iter().enumerate() {
            for &e in elems {
                assert_eq!(d.rank_of_elem[e as usize] as usize, r);
            }
        }
    }

    #[test]
    fn neighbor_lists_are_symmetric() {
        let (dofs, part) = setup(3, 4, 4);
        let d = Decomposition::build(&part, &dofs);
        for (r, plan) in d.plans.iter().enumerate() {
            for (nbr, idxs) in &plan.neighbors {
                let nplan = &d.plans[*nbr as usize];
                let back = nplan
                    .neighbors
                    .iter()
                    .find(|(x, _)| *x as usize == r)
                    .expect("missing reverse neighbor");
                // Same number of shared dofs, and the same dof values in
                // the same order.
                assert_eq!(idxs.len(), back.1.len());
                for (a, b) in idxs.iter().zip(&back.1) {
                    assert_eq!(
                        plan.shared_dofs[*a as usize],
                        nplan.shared_dofs[*b as usize]
                    );
                }
            }
        }
    }

    #[test]
    fn shared_dofs_are_exactly_multirank_dofs() {
        let (dofs, part) = setup(2, 3, 6);
        let d = Decomposition::build(&part, &dofs);
        // Recompute independently.
        for (r, plan) in d.plans.iter().enumerate() {
            for &dof in &plan.shared_dofs {
                // Dof must be touched by rank r and at least one other.
                let mut ranks = BTreeSet::new();
                for e in 0..dofs.nelems() {
                    if dofs.ids(e).contains(&dof) {
                        ranks.insert(d.rank_of_elem[e]);
                    }
                }
                assert!(ranks.contains(&(r as u32)));
                assert!(ranks.len() >= 2);
            }
        }
    }

    #[test]
    fn single_rank_has_no_exchange() {
        let (dofs, part) = setup(2, 4, 1);
        let d = Decomposition::build(&part, &dofs);
        assert_eq!(d.total_messages(), 0);
        assert!(d.plans[0].shared_dofs.is_empty());
    }

    #[test]
    fn one_elem_per_rank_maximizes_sharing() {
        // K = 24 elements on 24 ranks: every boundary dof is shared.
        let (dofs, part) = setup(2, 3, 24);
        let d = Decomposition::build(&part, &dofs);
        for plan in &d.plans {
            // Each rank has one element with 4 edges: neighbours ≥ 4.
            assert!(plan.neighbors.len() >= 4);
        }
    }
}
