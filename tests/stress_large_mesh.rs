//! Large-mesh stress tests — run in release (`cargo test --release`);
//! they also pass in debug, just slower.
//!
//! Ne = 48 gives K = 13 824 elements, well past the paper's largest named
//! resolution (K = 3456), exercising the whole pipeline at a scale where
//! O(K²) accidents would show.

use cubesfc::graph::metrics::partition_stats;
use cubesfc::{partition_default, CubedSphere, PartitionMethod};

#[test]
fn k13824_full_pipeline() {
    let ne = 48; // 2^4·3
    let mesh = CubedSphere::new(ne);
    assert_eq!(mesh.num_elems(), 13_824);

    // Curve: Hamiltonian, continuous.
    let curve = mesh.curve().expect("48 = 2^4·3 is in the family");
    assert_eq!(curve.len(), 13_824);
    assert!(curve.is_continuous(mesh.topology()));

    // SFC partition at 1024 processors: 13.5 elements per processor is
    // not an exact divisor — sizes differ by at most one.
    let p = partition_default(&mesh, PartitionMethod::Sfc, 1024).unwrap();
    let sizes = p.part_sizes();
    let (min, max) = (*sizes.iter().min().unwrap(), *sizes.iter().max().unwrap());
    assert!(max - min <= 1, "{min}..{max}");

    // Graph partition at 256: valid, balanced within tolerance.
    let g = mesh.dual_graph(Default::default());
    let kw = partition_default(&mesh, PartitionMethod::MetisKway, 256).unwrap();
    let stats = partition_stats(&g, &kw);
    assert!(stats.lb_nelemd < 0.08, "LB = {}", stats.lb_nelemd);
    assert!(stats.edgecut > 0);
}

#[test]
fn k5400_cinco_mesh_pipeline() {
    // Ne = 30 = 2·3·5 exercises all three radices in one schedule.
    let ne = 30;
    let mesh = CubedSphere::new(ne);
    assert_eq!(mesh.num_elems(), 5400);
    let curve = mesh.curve().expect("30 = 2·3·5 is in the extended family");
    assert!(curve.is_continuous(mesh.topology()));
    let p = partition_default(&mesh, PartitionMethod::Sfc, 600).unwrap();
    assert!(p.part_sizes().iter().all(|&s| s == 9));
}

#[test]
fn rcb_scales_to_large_meshes() {
    let mesh = CubedSphere::new(48);
    let p = partition_default(&mesh, PartitionMethod::Rcb, 512).unwrap();
    let sizes = p.part_sizes();
    assert_eq!(sizes.iter().sum::<usize>(), 13_824);
    assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
}
