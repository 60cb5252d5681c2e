//! Equivalence of the optimized metric kernels with naive reference
//! implementations, on real cubed-sphere dual graphs.
//!
//! `metis_volume` and `neighbor_parts` used to track "distinct parts
//! seen" with `Vec::contains` linear scans — O(deg·parts) per vertex.
//! They now use an epoch-stamped marker array (O(deg) per vertex). These
//! tests pin the optimized kernels to straightforward set-based
//! references on the full Ne = 16 dual graph, across every partitioning
//! method, so any behavioural drift in the rewrite is caught on a graph
//! big enough to exercise epoch reuse thousands of times.
//!
//! A report's statistics and exchange list come from one fused pass,
//! `cut_sweep`; the last tests hold it equal to the single-purpose
//! functions and to a `BTreeMap` accumulation of the exchange list, below
//! and above `PARALLEL_MIN_VERTICES` (where two threads share the sweep).

use cubesfc::graph::metrics::{
    cut_sweep, edgecut, edgecut_weight, load_balance, metis_volume, neighbor_parts,
    part_exchange_points, partition_stats, send_points_per_part,
};
use cubesfc::graph::{CsrGraph, Partition, SplitMix64, PARALLEL_MIN_VERTICES};
use cubesfc::mesh::ExchangeWeights;
use cubesfc::{
    partition_curve_weighted, partition_default, partition_with_graph, set_jobs, CubedSphere,
    PartitionMethod, PartitionOptions,
};
use std::collections::{BTreeMap, BTreeSet};

/// Reference `metis_volume`: for each vertex, count the distinct
/// *other* parts among its neighbours with an explicit set.
fn metis_volume_reference(g: &CsrGraph, p: &Partition) -> u64 {
    let mut vol = 0u64;
    for v in 0..g.nv() {
        let pv = p.part_of(v);
        let distinct: BTreeSet<usize> = g
            .neighbors(v)
            .map(|(u, _)| p.part_of(u))
            .filter(|&pu| pu != pv)
            .collect();
        vol += distinct.len() as u64;
    }
    vol
}

/// Reference `neighbor_parts`: the set of remote parts adjacent to each
/// part, via one BTreeSet per part.
fn neighbor_parts_reference(g: &CsrGraph, p: &Partition) -> Vec<usize> {
    let mut sets: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); p.nparts()];
    for v in 0..g.nv() {
        let pv = p.part_of(v);
        for (u, _) in g.neighbors(v) {
            let pu = p.part_of(u);
            if pu != pv {
                sets[pv].insert(pu);
            }
        }
    }
    sets.into_iter().map(|s| s.len()).collect()
}

#[test]
fn marker_kernels_match_references_on_k1536() {
    let mesh = CubedSphere::new(16); // K = 6·16² = 1536
    let g = mesh.dual_graph(Default::default());
    assert_eq!(g.nv(), 1536);

    for method in [
        PartitionMethod::Sfc,
        PartitionMethod::MetisKway,
        PartitionMethod::MetisTv,
        PartitionMethod::MetisRb,
        PartitionMethod::Morton,
        PartitionMethod::Rcb,
    ] {
        for nproc in [2usize, 24, 96, 384] {
            let p = partition_default(&mesh, method, nproc).unwrap();
            assert_eq!(
                metis_volume(&g, &p),
                metis_volume_reference(&g, &p),
                "metis_volume diverged: {method:?} nproc={nproc}"
            );
            assert_eq!(
                neighbor_parts(&g, &p),
                neighbor_parts_reference(&g, &p),
                "neighbor_parts diverged: {method:?} nproc={nproc}"
            );
        }
    }
}

#[test]
fn marker_kernels_match_references_on_degenerate_partitions() {
    let mesh = CubedSphere::new(16);
    let g = mesh.dual_graph(Default::default());
    let k = g.nv();

    // Everything in one part: no remote neighbours anywhere.
    let one = Partition::new(1, vec![0u32; k]);
    assert_eq!(metis_volume(&g, &one), 0);
    assert_eq!(neighbor_parts(&g, &one), vec![0]);

    // One element per part: every neighbour is remote and distinct.
    let singleton = Partition::new(k, (0..k as u32).collect());
    assert_eq!(
        metis_volume(&g, &singleton),
        metis_volume_reference(&g, &singleton)
    );
    assert_eq!(
        neighbor_parts(&g, &singleton),
        neighbor_parts_reference(&g, &singleton)
    );

    // A part that is empty (id 3 unused) must still get a zero entry.
    let mut assign: Vec<u32> = (0..k).map(|e| (e % 3) as u32).collect();
    assign[0] = 4;
    let gappy = Partition::new(5, assign);
    let got = neighbor_parts(&g, &gappy);
    let want = neighbor_parts_reference(&g, &gappy);
    assert_eq!(got, want);
    assert_eq!(got[3], 0);
    assert_eq!(metis_volume(&g, &gappy), metis_volume_reference(&g, &gappy));
}

/// Reference exchange list: the `(from, to)`-sorted sum of cut half-edge
/// weights, one entry per ordered pair that shares a cut edge (even one
/// of weight 0).
fn exchange_reference(g: &CsrGraph, p: &Partition) -> Vec<(u32, u32, u64)> {
    let mut pairs = BTreeMap::new();
    for v in 0..g.nv() {
        for (n, w) in g.neighbors(v) {
            let (from, to) = (p.part_of(v) as u32, p.part_of(n) as u32);
            if from != to {
                *pairs.entry((from, to)).or_insert(0u64) += w as u64;
            }
        }
    }
    pairs.into_iter().map(|((a, b), w)| (a, b, w)).collect()
}

/// Hold every output of the fused sweep to its single-purpose definition.
fn assert_sweep_matches_the_references(g: &CsrGraph, p: &Partition, what: &str) {
    let (stats, exchange) = cut_sweep(g, p);
    assert_eq!(stats.nelemd, p.part_weights(g), "nelemd: {what}");
    assert_eq!(stats.spcv, send_points_per_part(g, p), "spcv: {what}");
    assert_eq!(stats.edgecut, edgecut(g, p), "edgecut: {what}");
    assert_eq!(stats.metis_volume, metis_volume(g, p), "volume: {what}");
    assert_eq!(
        stats.total_points,
        2 * edgecut_weight(g, p),
        "points: {what}"
    );
    assert_eq!(stats.lb_nelemd, load_balance(&stats.nelemd), "{what}");
    assert_eq!(stats.lb_spcv, load_balance(&stats.spcv), "{what}");
    assert_eq!(exchange, exchange_reference(g, p), "exchange: {what}");
    // The two public entry points are the two halves of the sweep.
    assert_eq!(partition_stats(g, p), stats, "{what}");
    assert_eq!(part_exchange_points(g, p), exchange, "{what}");
    // Per part, the list sums to what the part sends.
    let mut sent = vec![0u64; p.nparts()];
    for &(from, _, points) in &exchange {
        sent[from as usize] += points;
    }
    assert_eq!(sent, stats.spcv, "exchange list vs spcv: {what}");
}

#[test]
fn fused_sweep_matches_references_on_sfc_kway_rb_partitions() {
    for ne in [4usize, 8, 9, 16] {
        let mesh = CubedSphere::new(ne);
        let g = mesh.dual_graph(Default::default());
        let k = g.nv();
        for method in [
            PartitionMethod::Sfc,
            PartitionMethod::MetisKway,
            PartitionMethod::MetisRb,
        ] {
            for nproc in [2, 6, k / 16, k / 4, k / 2] {
                let p = partition_default(&mesh, method, nproc).unwrap();
                let what = format!("Ne={ne} {method} nproc={nproc}");
                assert_sweep_matches_the_references(&g, &p, &what);
            }
        }
    }
}

#[test]
fn fused_sweep_matches_references_on_degenerate_partitions() {
    let mesh = CubedSphere::new(8);
    let g = mesh.dual_graph(Default::default());
    let k = g.nv();

    let one = Partition::new(1, vec![0u32; k]);
    assert_sweep_matches_the_references(&g, &one, "one part");
    assert!(cut_sweep(&g, &one).1.is_empty());

    let singleton = Partition::new(k, (0..k as u32).collect());
    assert_sweep_matches_the_references(&g, &singleton, "one element per part");
    assert_eq!(cut_sweep(&g, &singleton).1.len(), g.adjncy.len());

    // Parts 3 and 5 have no members: they send nothing and nobody sends
    // to them.
    let mut assign: Vec<u32> = (0..k).map(|e| (e % 3) as u32).collect();
    assign[0] = 4;
    let gappy = Partition::new(6, assign);
    assert_sweep_matches_the_references(&g, &gappy, "gappy");
    let (stats, exchange) = cut_sweep(&g, &gappy);
    assert_eq!((stats.nelemd[3], stats.nelemd[5]), (0, 0));
    assert!(exchange
        .iter()
        .all(|&(from, to, _)| ![3, 5].contains(&from) && ![3, 5].contains(&to)));
}

#[test]
fn fused_sweep_keeps_zero_weight_cut_edges() {
    // With corner exchanges weighted 0, a pair of parts that meet only at
    // a corner still exchanges a (0-point) message: the entry must exist.
    let mesh = CubedSphere::new(8);
    let g = mesh.dual_graph(ExchangeWeights {
        corner_points: 0,
        ..Default::default()
    });
    let k = g.nv();
    let singleton = Partition::new(k, (0..k as u32).collect());
    assert_sweep_matches_the_references(&g, &singleton, "corner_points=0, singletons");
    let exchange = part_exchange_points(&g, &singleton);
    assert_eq!(exchange.len(), g.adjncy.len());
    assert!(exchange.iter().any(|&(_, _, points)| points == 0));
    for nproc in [6usize, 96, 192] {
        let p = partition_default(&mesh, PartitionMethod::Sfc, nproc).unwrap();
        let what = format!("corner_points=0, SFC nproc={nproc}");
        assert_sweep_matches_the_references(&g, &p, &what);
    }
}

#[test]
fn shared_sweep_matches_references_above_the_threshold() {
    // K = 38 400: the part range is swept in chunks, shared with a second
    // thread by default and all inline at one job. The other tests of
    // this binary do not depend on the job count.
    let mesh = CubedSphere::new(80);
    let g = mesh.dual_graph(Default::default());
    assert!(g.nv() >= PARALLEL_MIN_VERTICES);
    let mut partitions: Vec<(String, Partition)> = [6usize, 96, 768]
        .iter()
        .map(|&nproc| {
            let p = partition_default(&mesh, PartitionMethod::Sfc, nproc).unwrap();
            (format!("SFC nproc={nproc}"), p)
        })
        .collect();
    let mut rng = SplitMix64::new(48);
    let weights: Vec<f64> = (0..g.nv())
        .map(|_| (500 + rng.below(1000)) as f64 / 1000.0)
        .collect();
    let curve = mesh.curve_required().unwrap();
    partitions.push((
        "weighted SFC nproc=768".into(),
        partition_curve_weighted(curve, 768, &weights).unwrap(),
    ));
    let options = PartitionOptions::default();
    partitions.push((
        "KWAY nproc=96".into(),
        partition_with_graph(&mesh, &g, PartitionMethod::MetisKway, 96, &options).unwrap(),
    ));
    for jobs in [1, 0] {
        set_jobs(jobs);
        for (what, p) in &partitions {
            assert_sweep_matches_the_references(&g, p, &format!("Ne=80 {what}, jobs={jobs}"));
        }
    }
    set_jobs(0);
}
