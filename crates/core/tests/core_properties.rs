//! Property-based tests for the top-level partitioning API, plus the
//! migration-volume cases it re-exports from `cubesfc_graph::migration`.

use cubesfc::{
    matched_migration, migration_fraction, partition, partition_curve, partition_curve_weighted,
    partition_default, CubedSphere, Partition, PartitionMethod, PartitionOptions,
};
use proptest::prelude::*;

fn arb_ne() -> impl Strategy<Value = usize> {
    prop_oneof![Just(2usize), Just(3), Just(4), Just(5), Just(6)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn weighted_splits_are_contiguous_and_total(
        ne in arb_ne(),
        nproc_frac in 0.05f64..1.0,
        seed in any::<u64>(),
    ) {
        let mesh = CubedSphere::new(ne);
        let k = mesh.num_elems();
        let nproc = ((k as f64 * nproc_frac) as usize).clamp(1, k);
        let curve = mesh.curve().unwrap();

        // Random positive weights.
        let mut rng = cubesfc::graph::SplitMix64::new(seed);
        let weights: Vec<f64> = (0..k).map(|_| 0.5 + (rng.below(100) as f64) / 50.0).collect();
        let p = partition_curve_weighted(curve, nproc, &weights).unwrap();

        // Every part non-empty, total preserved.
        prop_assert_eq!(p.nonempty_parts(), nproc);
        prop_assert_eq!(p.part_sizes().iter().sum::<usize>(), k);

        // Contiguity on the curve: part ids are non-decreasing along it.
        let mut prev = 0usize;
        for r in 0..k {
            let part = p.part_of(curve.elem_at(r).index());
            prop_assert!(part == prev || part == prev + 1,
                "rank {} jumps from part {} to {}", r, prev, part);
            prev = part;
        }
    }

    #[test]
    fn weighted_split_balances_within_max_weight(
        ne in arb_ne(),
        seed in any::<u64>(),
    ) {
        let mesh = CubedSphere::new(ne);
        let k = mesh.num_elems();
        let nproc = (k / 4).max(2);
        let curve = mesh.curve().unwrap();
        let mut rng = cubesfc::graph::SplitMix64::new(seed);
        let weights: Vec<f64> = (0..k).map(|_| 0.5 + (rng.below(100) as f64) / 50.0).collect();
        let p = partition_curve_weighted(curve, nproc, &weights).unwrap();

        // Prefix splitting guarantees each part's weight is within one
        // max-element-weight of the ideal share on either side... except
        // for the forced one-element tail assignments; assert the max
        // part weight stays below ideal + 2·wmax.
        let ideal = weights.iter().sum::<f64>() / nproc as f64;
        let wmax = weights.iter().cloned().fold(0.0f64, f64::max);
        let mut per_part = vec![0.0f64; nproc];
        for e in 0..k {
            per_part[p.part_of(e)] += weights[e];
        }
        let maxw = per_part.iter().cloned().fold(0.0f64, f64::max);
        prop_assert!(maxw <= ideal + 2.0 * wmax + 1e-9,
            "max part weight {} vs ideal {} (wmax {})", maxw, ideal, wmax);
    }

    #[test]
    fn migration_is_a_metric_like_quantity(
        ne in prop_oneof![Just(2usize), Just(3), Just(4)],
        k1 in 2usize..8,
        k2 in 2usize..8,
    ) {
        let mesh = CubedSphere::new(ne);
        let k = mesh.num_elems();
        prop_assume!(k1 <= k && k2 <= k);
        let curve = mesh.curve().unwrap();
        let a = partition_curve(curve, k1).unwrap();
        let b = partition_curve(curve, k2).unwrap();
        // Symmetric-ish and bounded.
        let ab = matched_migration(&a, &b).unwrap();
        let ba = matched_migration(&b, &a).unwrap();
        prop_assert!(ab <= k && ba <= k);
        prop_assert_eq!(matched_migration(&a, &a).unwrap(), 0);
        // Equal part counts: identical curve splits.
        if k1 == k2 {
            prop_assert_eq!(ab, 0);
        }
    }

    #[test]
    fn all_methods_agree_on_the_trivial_partition(ne in arb_ne()) {
        // nproc = 1: everything in part 0 no matter the method.
        let mesh = CubedSphere::new(ne);
        for m in PartitionMethod::ALL {
            let p = partition_default(&mesh, m, 1).unwrap();
            prop_assert!(p.assignment().iter().all(|&x| x == 0), "{}", m);
        }
    }
}

#[test]
fn single_move_counts_once() {
    let a = Partition::new(2, vec![0, 0, 1, 1]);
    let b = Partition::new(2, vec![0, 1, 1, 1]);
    assert_eq!(matched_migration(&a, &b).unwrap(), 1);
}

#[test]
fn part_count_change_is_handled() {
    let a = Partition::new(2, vec![0, 0, 1, 1]);
    let b = Partition::new(4, vec![0, 1, 2, 3]);
    // Best matching keeps 2 elements in place.
    assert_eq!(matched_migration(&a, &b).unwrap(), 2);
}

#[test]
fn sfc_weight_perturbation_migrates_few_elements() {
    // Perturb per-element weights slightly: the weighted SFC split
    // moves only boundary elements, while a reseeded KWAY partition
    // reshuffles a large fraction.
    let mesh = CubedSphere::new(8); // K = 384
    let nproc = 48;
    let curve = mesh.curve().unwrap();
    let k = mesh.num_elems();

    let w0 = vec![1.0; k];
    let mut w1 = w0.clone();
    // 10% heavier in one octant.
    for e in mesh.elems() {
        if mesh.center(e).xyz[0] > 0.5 {
            w1[e.index()] = 1.1;
        }
    }
    let sfc_a = partition_curve_weighted(curve, nproc, &w0).unwrap();
    let sfc_b = partition_curve_weighted(curve, nproc, &w1).unwrap();
    let sfc_moved = migration_fraction(&sfc_a, &sfc_b).unwrap();
    assert!(
        sfc_moved < 0.20,
        "SFC migration should be incremental: {sfc_moved}"
    );

    // Graph partitioner with a different seed (modelling the "from
    // scratch" repartition an adaptive step would trigger).
    let mut o1 = PartitionOptions::default();
    o1.graph_config.seed = 1;
    let mut o2 = PartitionOptions::default();
    o2.graph_config.seed = 2;
    let kw_a = partition(&mesh, PartitionMethod::MetisKway, nproc, &o1).unwrap();
    let kw_b = partition(&mesh, PartitionMethod::MetisKway, nproc, &o2).unwrap();
    let kw_moved = migration_fraction(&kw_a, &kw_b).unwrap();
    assert!(
        sfc_moved < kw_moved,
        "SFC ({sfc_moved}) should migrate less than reseeded KWAY ({kw_moved})"
    );
}

#[test]
fn processor_count_change_migration_is_bounded() {
    // Going from P to 2P processors with an SFC split: every old part
    // splits in two, so after matching at most half the elements move.
    let mesh = CubedSphere::new(8);
    let curve = mesh.curve().unwrap();
    let a = partition_curve(curve, 48).unwrap();
    let b = partition_curve(curve, 96).unwrap();
    let frac = migration_fraction(&a, &b).unwrap();
    assert!(frac <= 0.5 + 1e-12, "doubling procs moved {frac}");
}
