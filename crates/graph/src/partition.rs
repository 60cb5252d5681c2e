//! Partition assignments and configuration.

use crate::csr::CsrGraph;
use std::fmt;

/// A partition of a graph's vertices into `nparts` parts.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Partition {
    nparts: usize,
    assign: Vec<u32>,
}

impl Partition {
    /// Wrap an assignment vector.
    ///
    /// # Panics
    ///
    /// Panics if any entry is `>= nparts` or `nparts == 0`.
    pub fn new(nparts: usize, assign: Vec<u32>) -> Partition {
        assert!(nparts > 0, "nparts must be positive");
        assert!(
            assign.iter().all(|&p| (p as usize) < nparts),
            "assignment out of range"
        );
        Partition { nparts, assign }
    }

    /// Number of parts.
    #[inline]
    pub fn nparts(&self) -> usize {
        self.nparts
    }

    /// Number of vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.assign.len()
    }

    /// Whether there are no vertices.
    pub fn is_empty(&self) -> bool {
        self.assign.is_empty()
    }

    /// Part of vertex `v`.
    #[inline]
    pub fn part_of(&self, v: usize) -> usize {
        self.assign[v] as usize
    }

    /// The raw assignment slice.
    pub fn assignment(&self) -> &[u32] {
        &self.assign
    }

    /// Per-part total vertex weight.
    pub fn part_weights(&self, g: &CsrGraph) -> Vec<u64> {
        crate::refine::part_weights(g, &self.assign, self.nparts)
    }

    /// Per-part vertex counts.
    pub fn part_sizes(&self) -> Vec<usize> {
        let mut s = vec![0usize; self.nparts];
        for &p in &self.assign {
            s[p as usize] += 1;
        }
        s
    }

    /// Number of non-empty parts.
    pub fn nonempty_parts(&self) -> usize {
        self.part_sizes().iter().filter(|&&s| s > 0).count()
    }

    /// The vertices of each part.
    pub fn part_members(&self) -> Vec<Vec<u32>> {
        let mut m = vec![Vec::new(); self.nparts];
        for (v, &p) in self.assign.iter().enumerate() {
            m[p as usize].push(v as u32);
        }
        m
    }
}

impl fmt::Display for Partition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "partition of {} vertices into {}",
            self.len(),
            self.nparts
        )
    }
}

/// Configuration shared by the partitioning drivers.
#[derive(Clone, Copy, Debug)]
pub struct PartitionConfig {
    /// Number of parts to produce.
    pub nparts: usize,
    /// Balance tolerance: a part may weigh up to `ub_factor ×` its target
    /// (METIS's default is 1.03). The effective cap is never below
    /// `target + max_vwgt` so refinement cannot deadlock on heavy coarse
    /// vertices — which is also what produces the ±1-element imbalance the
    /// paper observed at O(1) elements per processor.
    pub ub_factor: f64,
    /// Seed for the deterministic RNG.
    pub seed: u64,
    /// FM / k-way refinement pass limit per level.
    pub refine_passes: usize,
    /// Number of random initial-bisection attempts on the coarsest graph.
    pub init_tries: usize,
    /// Stop coarsening once the graph has at most this many vertices
    /// (scaled by `nparts` in the k-way driver).
    pub coarsen_to: usize,
}

impl PartitionConfig {
    /// METIS-like defaults for `nparts`.
    pub fn new(nparts: usize) -> PartitionConfig {
        PartitionConfig {
            nparts,
            ub_factor: 1.03,
            seed: 0x5EED,
            refine_passes: 8,
            init_tries: 4,
            coarsen_to: 120,
        }
    }

    /// Override the seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> PartitionConfig {
        self.seed = seed;
        self
    }

    /// Override the balance tolerance (builder style).
    pub fn with_ub_factor(mut self, ub: f64) -> PartitionConfig {
        assert!(ub >= 1.0, "ub_factor must be >= 1");
        self.ub_factor = ub;
        self
    }
}

/// The maximum allowed part weight for a target weight `target` under
/// tolerance `ub`, given the heaviest vertex weight in the current graph.
pub(crate) fn weight_cap(target: u64, ub: f64, max_vwgt: u64) -> u64 {
    let by_factor = (target as f64 * ub).ceil() as u64;
    by_factor.max(target + max_vwgt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrGraph;

    fn path3() -> CsrGraph {
        CsrGraph::from_lists(&[vec![(1, 1)], vec![(0, 1), (2, 1)], vec![(1, 1)]]).unwrap()
    }

    #[test]
    fn part_sizes_and_weights() {
        let g = path3();
        let p = Partition::new(2, vec![0, 0, 1]);
        assert_eq!(p.part_sizes(), vec![2, 1]);
        assert_eq!(p.part_weights(&g), vec![2, 1]);
        assert_eq!(p.nonempty_parts(), 2);
        assert_eq!(p.part_of(2), 1);
    }

    #[test]
    fn members_listed_in_order() {
        let p = Partition::new(2, vec![1, 0, 1]);
        assert_eq!(p.part_members(), vec![vec![1], vec![0, 2]]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_assignment_panics() {
        Partition::new(2, vec![0, 2]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_parts_panics() {
        Partition::new(0, vec![]);
    }

    #[test]
    fn weight_cap_unit_weights() {
        // target 2, 3% tolerance, unit vertices: cap is 3 (the +1 slack
        // that yields the paper's observed O(1)-elements imbalance).
        assert_eq!(weight_cap(2, 1.03, 1), 3);
        assert_eq!(weight_cap(1, 1.03, 1), 2);
        // Larger targets: percentage dominates.
        assert_eq!(weight_cap(96, 1.03, 1), 99);
    }

    #[test]
    fn config_builders() {
        let c = PartitionConfig::new(4).with_seed(9).with_ub_factor(1.1);
        assert_eq!(c.nparts, 4);
        assert_eq!(c.seed, 9);
        assert!((c.ub_factor - 1.1).abs() < 1e-12);
    }
}
