//! Every seeded input of the benchmark, and the op counts of a round.
//!
//! The program under test never sees `--seed`: it receives only what is
//! generated here. Each kind of input draws from its own `SplitMix64`
//! stream, so adding a draw to one cannot shift another.

use cubesfc::graph::SplitMix64;
use cubesfc::{paper_grid, table1, ExperimentCell};

pub const DEFAULT_SEED: u64 = 42;
/// Seed of the `paper_grid` warm-up sample, whatever `--seed` is.
pub const WARM_UP_SEED: u64 = 0;

/// `--seconds` at which the op counts below are the reference counts:
/// three rounds of about six seconds each on the 2-core reference box.
pub const NOMINAL_SECONDS: u64 = 18;

/// Face sizes of `big_sfc`: Hilbert (64, 128), m-Peano (81) and
/// Hilbert-Peano (48, 96). Five sizes, so that p50 falls inside the Ne=81
/// group and p90 inside the Ne=128 group, not on a step between groups.
pub const BIG_SFC_SIZES: [usize; 5] = [48, 64, 81, 96, 128];
/// Equal-split processor counts of one `big_sfc` op.
pub const BIG_SFC_NPROCS: [usize; 3] = [6, 96, 768];
/// Processor count of the weighted split of one `big_sfc` op.
pub const BIG_SFC_WEIGHTED_NPROC: usize = 768;

/// Wire names of the four methods the service keys cover.
pub const SERVE_METHODS: [&str; 4] = ["sfc", "kway", "tv", "rb"];
/// Parts of every `/v1/rebalance/step` request.
pub const REBALANCE_NPROC: usize = 64;
/// Templates in one `serve_miss` cycle: 16 partitions and 4 rebalances.
pub const MISS_CYCLE: usize = 20;

const STREAM_CELL_ORDER: u64 = 0x6365_6c6c;
const STREAM_BIG_ORDER: u64 = 0x6269_675f;
const STREAM_SPLIT_WEIGHTS: u64 = 0x7370_6c74;
const STREAM_HIT_ORDER: u64 = 0x6869_745f;
const STREAM_MISS_SEEDS: u64 = 0x6d69_7373;
const STREAM_REBALANCE_WEIGHTS: u64 = 0x7265_6261;

fn stream(seed: u64, tag: u64) -> SplitMix64 {
    SplitMix64::new(seed ^ (tag << 32))
}

/// Ops per round of each workload. Fixed counts, never a duration, so the
/// sample set is the same on every run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sizes {
    pub paper_grid_passes: usize,
    pub big_sfc_passes: usize,
    pub serve_hit_requests: usize,
    pub serve_miss_cycles: usize,
    pub solver_ops: usize,
}

impl Sizes {
    /// Counts for a run meant to measure for `seconds`. Scaling never goes
    /// below 100 ops a round, the fewest a p90 can be read from.
    pub fn for_seconds(seconds: u64) -> Sizes {
        let scaled = |nominal: usize, least: usize| {
            let n = (nominal as u64 * seconds + NOMINAL_SECONDS / 2) / NOMINAL_SECONDS;
            (n as usize).max(least)
        };
        Sizes {
            paper_grid_passes: scaled(4, 1),
            big_sfc_passes: scaled(20, 20),
            serve_hit_requests: scaled(6000, 100),
            serve_miss_cycles: scaled(30, 5),
            solver_ops: scaled(300, 100),
        }
    }

    /// A tenth of the ops: a smoke run and the per-layer sessions, not for
    /// end-to-end numbers (p90 is refused on so few samples).
    pub fn quick(self) -> Sizes {
        Sizes {
            paper_grid_passes: 1,
            big_sfc_passes: (self.big_sfc_passes / 10).max(1),
            serve_hit_requests: (self.serve_hit_requests / 10).max(10),
            serve_miss_cycles: (self.serve_miss_cycles / 10).max(1),
            solver_ops: (self.solver_ops / 10).max(1),
        }
    }
}

/// `passes` independent shuffles of `0..n`, one after another.
fn shuffled_passes(rng: &mut SplitMix64, n: usize, passes: usize) -> Vec<usize> {
    let mut order = Vec::with_capacity(n * passes);
    for _ in 0..passes {
        let mut pass: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut pass);
        order.extend(pass);
    }
    order
}

/// The `paper_grid` op sequence: the full 276-cell grid, reshuffled for
/// every pass. Each op is `(index into the grid, cell)`.
pub fn paper_grid_ops(seed: u64, passes: usize) -> Vec<(usize, ExperimentCell)> {
    let grid = paper_grid(usize::MAX);
    shuffled_passes(&mut stream(seed, STREAM_CELL_ORDER), grid.len(), passes)
        .into_iter()
        .map(|i| (i, grid[i]))
        .collect()
}

/// The `big_sfc` op sequence: indices into [`BIG_SFC_SIZES`].
pub fn big_sfc_ops(seed: u64, passes: usize) -> Vec<usize> {
    shuffled_passes(
        &mut stream(seed, STREAM_BIG_ORDER),
        BIG_SFC_SIZES.len(),
        passes,
    )
}

/// Per-element work weights in `[0.5, 1.5)` with three decimals, so they
/// print short in a request body.
fn work_weights(rng: &mut SplitMix64, n: usize) -> Vec<f64> {
    (0..n)
        .map(|_| (500 + rng.below(1000)) as f64 / 1000.0)
        .collect()
}

/// Weights of the weighted split, one vector per `big_sfc` size.
pub fn split_weights(seed: u64) -> Vec<Vec<f64>> {
    let mut rng = stream(seed, STREAM_SPLIT_WEIGHTS);
    BIG_SFC_SIZES
        .iter()
        .map(|&ne| work_weights(&mut rng, 6 * ne * ne))
        .collect()
}

/// One `(ne, nproc, method)` of the service workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServeKey {
    pub ne: usize,
    pub nproc: usize,
    pub method: &'static str,
}

impl ServeKey {
    pub fn k(&self) -> usize {
        6 * self.ne * self.ne
    }

    /// The `/v1/partition` request body for this key.
    pub fn body(&self, seed: u64) -> String {
        format!(
            "{{\"ne\":{},\"nproc\":{},\"method\":\"{}\",\"seed\":{seed},\"include_assignment\":true}}",
            self.ne, self.nproc, self.method
        )
    }
}

/// The 16 service keys: the four Table-1 resolutions × four methods, at
/// the largest equal-share processor count that leaves each processor at
/// least four elements (96, 81, 384, 486), where the paper's effect lives.
pub fn serve_keys() -> Vec<ServeKey> {
    let mut keys = Vec::new();
    for res in table1() {
        let nproc = res
            .equal_share_procs()
            .into_iter()
            .filter(|p| p * 4 <= res.k)
            .max()
            .expect("one processor always qualifies");
        for method in SERVE_METHODS {
            keys.push(ServeKey {
                ne: res.ne,
                nproc,
                method,
            });
        }
    }
    keys
}

/// The `serve_hit` sequence: `n` draws from the 16 keys.
pub fn hit_sequence(seed: u64, n: usize) -> Vec<usize> {
    let mut rng = stream(seed, STREAM_HIT_ORDER);
    let keys = serve_keys().len();
    (0..n).map(|_| rng.below(keys)).collect()
}

/// One request of the `serve_miss` sequence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MissRequest {
    /// Key index and a partitioner seed no other request of the run uses.
    Partition { key: usize, seed: u64 },
    /// Index into `table1()`; the weights come from [`rebalance_weights`].
    Rebalance { resolution: usize },
}

/// The `serve_miss` sequence: `cycles` shuffled cycles of the 16 keys and
/// the 4 rebalance steps. Seeds count up from a seeded base, so no two
/// requests share a cache key, warm-up included.
pub fn miss_sequence(seed: u64, cycles: usize) -> Vec<MissRequest> {
    let mut rng = stream(seed, STREAM_MISS_SEEDS);
    let base = rng.next_u64() >> 24;
    let keys = serve_keys().len();
    shuffled_passes(&mut rng, MISS_CYCLE, cycles)
        .into_iter()
        .enumerate()
        .map(|(i, t)| {
            if t < keys {
                MissRequest::Partition {
                    key: t,
                    seed: base + i as u64,
                }
            } else {
                MissRequest::Rebalance {
                    resolution: t - keys,
                }
            }
        })
        .collect()
}

/// Weights of the rebalance requests, one vector per Table-1 resolution.
pub fn rebalance_weights(seed: u64) -> Vec<Vec<f64>> {
    let mut rng = stream(seed, STREAM_REBALANCE_WEIGHTS);
    table1()
        .iter()
        .map(|res| work_weights(&mut rng, res.k))
        .collect()
}

/// The `/v1/rebalance/step` request body.
pub fn rebalance_body(ne: usize, weights: &[f64]) -> String {
    let list: Vec<String> = weights.iter().map(|w| w.to_string()).collect();
    format!(
        "{{\"ne\":{ne},\"nproc\":{REBALANCE_NPROC},\"seed\":0,\"weights\":[{}]}}",
        list.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn same_seed_gives_the_same_sequences_and_another_seed_does_not() {
        assert_eq!(paper_grid_ops(42, 2), paper_grid_ops(42, 2));
        assert_ne!(paper_grid_ops(42, 2), paper_grid_ops(43, 2));
        assert_eq!(big_sfc_ops(42, 20), big_sfc_ops(42, 20));
        assert_ne!(big_sfc_ops(42, 20), big_sfc_ops(43, 20));
        assert_eq!(hit_sequence(42, 600), hit_sequence(42, 600));
        assert_ne!(hit_sequence(42, 600), hit_sequence(43, 600));
        assert_eq!(miss_sequence(42, 3), miss_sequence(42, 3));
        assert_ne!(miss_sequence(42, 3), miss_sequence(43, 3));
        assert_eq!(split_weights(42), split_weights(42));
        assert_ne!(split_weights(42), split_weights(43));
        assert_eq!(rebalance_weights(42), rebalance_weights(42));
        assert_ne!(rebalance_weights(42), rebalance_weights(43));
    }

    #[test]
    fn every_pass_covers_the_whole_grid_once() {
        let ops = paper_grid_ops(7, 3);
        assert_eq!(ops.len(), 3 * 276);
        for pass in ops.chunks(276) {
            let seen: BTreeSet<usize> = pass.iter().map(|(i, _)| *i).collect();
            assert_eq!(seen.len(), 276);
        }
        let big = big_sfc_ops(7, 20);
        assert_eq!(big.len(), 100);
        assert!(big
            .chunks(5)
            .all(|p| p.iter().collect::<BTreeSet<_>>().len() == 5));
    }

    #[test]
    fn miss_seeds_are_all_distinct_and_each_cycle_has_four_rebalances() {
        let seq = miss_sequence(42, 33);
        assert_eq!(seq.len(), 33 * MISS_CYCLE);
        let mut seeds = BTreeSet::new();
        for cycle in seq.chunks(MISS_CYCLE) {
            let rebalances = cycle
                .iter()
                .filter(|r| matches!(r, MissRequest::Rebalance { .. }))
                .count();
            assert_eq!(rebalances, 4);
            for r in cycle {
                if let MissRequest::Partition { seed, .. } = r {
                    assert!(seeds.insert(*seed), "seed {seed} repeats");
                    assert!(*seed < 1 << 53, "survives a JSON number");
                }
            }
        }
    }

    #[test]
    fn sizes_scale_with_seconds_but_keep_a_readable_p90() {
        let nominal = Sizes::for_seconds(NOMINAL_SECONDS);
        assert_eq!(nominal.paper_grid_passes * 276, 1104);
        assert_eq!(nominal.big_sfc_passes * 5, 100);
        assert_eq!(nominal.serve_hit_requests, 6000);
        assert_eq!(nominal.serve_miss_cycles * MISS_CYCLE, 600);
        assert_eq!(nominal.solver_ops, 300);
        let least = Sizes::for_seconds(1);
        assert!(least.paper_grid_passes * 276 >= 100);
        assert!(least.big_sfc_passes * 5 >= 100);
        assert!(least.serve_hit_requests >= 100);
        assert!(least.serve_miss_cycles * MISS_CYCLE >= 100);
        assert!(least.solver_ops >= 100);
    }

    #[test]
    fn keys_and_bodies_have_the_documented_shape() {
        let keys = serve_keys();
        assert_eq!(keys.len(), 16);
        let nprocs: Vec<usize> = keys.iter().step_by(4).map(|k| k.nproc).collect();
        assert_eq!(nprocs, vec![96, 81, 384, 486]);
        assert!(keys.iter().all(|k| k.k() % k.nproc == 0));
        assert_eq!(
            keys[1].body(9),
            "{\"ne\":8,\"nproc\":96,\"method\":\"kway\",\"seed\":9,\"include_assignment\":true}"
        );
        let weights = rebalance_weights(1);
        assert_eq!(weights[3].len(), 1944);
        assert!(weights[0].iter().all(|w| (0.5..1.5).contains(w)));
        assert!(rebalance_body(8, &[0.5, 1.25]).ends_with("\"weights\":[0.5,1.25]}"));
    }
}
