//! **Extension E-X2** — the paper's unexplained observation:
//! "The KWAY technique generates a partition with a total communication
//! volume of 16.8 Mbytes versus 17.7 Mbytes for TV. This result directly
//! contradicts the expected minimization property of the TV algorithm and
//! warrants further investigation."
//!
//! We investigate: sweep resolutions, processor counts, and partitioner
//! seeds, and compare KWAY's and TV's communication volumes under both
//! definitions (METIS's distinct-remote-part count and SEAM's byte
//! volume). Our TV refines *from* the KWAY result under the METIS
//! objective, so it can never lose under that metric — but it regularly
//! fails to improve, and under the **byte** metric (which METIS never
//! optimized!) it can genuinely come out worse: gains under one volume
//! definition need not transfer to the other. That mismatch of
//! objectives is a sufficient mechanism for the paper's anomaly.
//!
//! ```text
//! cargo run -p cubesfc-bench --release --bin paper -- tv_anomaly
//! ```

use cubesfc::graph::metrics::{metis_volume, send_points_per_part};
use cubesfc::{partition, CubedSphere, PartitionMethod, PartitionOptions};

pub fn run() {
    println!("TV vs KWAY communication volume across seeds (the paper's anomaly)");
    println!(
        "{:>4} {:>6} {:>6} {:>6} | {:>10} {:>10} | {:>12} {:>12} | {:>7}",
        "Ne", "K", "Nproc", "seed", "KWAY vol", "TV vol", "KWAY MB", "TV MB", "TV wins"
    );

    let bytes_per_point = 832.0; // 8 B × 26 levels × 4 variables
    let mut tv_worse_bytes = 0;
    let mut total = 0;
    for ne in [8usize, 16] {
        let mesh = CubedSphere::new(ne);
        let k = mesh.num_elems();
        let g = mesh.dual_graph(Default::default());
        for nproc in [k / 8, k / 4, k / 2] {
            for seed in [1u64, 2, 3, 4, 5] {
                let mut opts = PartitionOptions::default();
                opts.graph_config.seed = seed;
                let pk = partition(&mesh, PartitionMethod::MetisKway, nproc, &opts).unwrap();
                let pt = partition(&mesh, PartitionMethod::MetisTv, nproc, &opts).unwrap();
                let vol_k = metis_volume(&g, &pk);
                let vol_t = metis_volume(&g, &pt);
                let bytes = |p: &cubesfc::Partition| -> f64 {
                    send_points_per_part(&g, p).iter().sum::<u64>() as f64 / 2.0 * bytes_per_point
                        / 1e6
                };
                let (mb_k, mb_t) = (bytes(&pk), bytes(&pt));
                total += 1;
                if mb_t > mb_k + 1e-9 {
                    tv_worse_bytes += 1;
                }
                println!(
                    "{:>4} {:>6} {:>6} {:>6} | {:>10} {:>10} | {:>12.2} {:>12.2} | {:>7}",
                    ne,
                    k,
                    nproc,
                    seed,
                    vol_k,
                    vol_t,
                    mb_k,
                    mb_t,
                    if vol_t < vol_k { "yes" } else { "tie/no" }
                );
            }
        }
    }
    println!();
    println!(
        "TV produced *more bytes* than KWAY in {tv_worse_bytes}/{total} runs — \
         minimizing the METIS volume metric does not always minimize SEAM's\n\
         byte volume, which is one concrete mechanism behind the paper's \
         'contradictory' Table 2 measurement."
    );
}
