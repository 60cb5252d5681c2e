//! **Ablation E-A1** — the refinement-order question the paper leaves
//! open: "The impact that refinement order has on the Hilbert-Peano curve
//! should also be explored" (§5).
//!
//! For every mixed size Ne = 2^n·3^m in range, build the global curve
//! with *Peano-first* (the paper's order) and *Hilbert-first* schedules
//! and compare the resulting SFC partitions' edgecut, communication
//! volume, and modelled time across processor counts.
//!
//! ```text
//! cargo run -p cubesfc-bench --release --bin paper -- ablation_order
//! ```

use cubesfc::report::PartitionReport;
use cubesfc::{
    partition_curve, CubedSphere, PartitionMethod, Resolution, Schedule, NCAR_P690_MAX_PROCS,
};
use cubesfc_bench::paper_models;

fn eval(
    mesh: &CubedSphere,
    nproc: usize,
    machine: &cubesfc::MachineModel,
    cost: &cubesfc::CostModel,
) -> PartitionReport {
    let part = partition_curve(mesh.curve().unwrap(), nproc).unwrap();
    PartitionReport::from_partition(mesh, PartitionMethod::Sfc, &part, machine, cost)
}

pub fn run() {
    let (machine, cost) = paper_models();
    println!("Ablation: Hilbert-Peano refinement order (paper open question)");
    println!(
        "{:>4} {:>6} {:>6}  {:>22}  {:>22}  {:>8}",
        "Ne", "K", "Nproc", "Peano-first (paper)", "Hilbert-first", "Δtime"
    );
    println!(
        "{:>4} {:>6} {:>6}  {:>10} {:>11}  {:>10} {:>11}  {:>8}",
        "", "", "", "edgecut", "time (us)", "edgecut", "time (us)", "%"
    );

    for (n, m) in [(1usize, 1usize), (2, 1), (1, 2), (3, 1)] {
        let sched_pf = Schedule::hilbert_peano(n, m).unwrap();
        let sched_hf = Schedule::peano_hilbert(n, m).unwrap();
        let res = Resolution::for_ne(sched_pf.side(), NCAR_P690_MAX_PROCS).unwrap();
        let (ne, k) = (res.ne, res.k);
        let mesh_pf = CubedSphere::with_schedule(&sched_pf);
        let mesh_hf = CubedSphere::with_schedule(&sched_hf);
        for nproc in res.thinned_procs(6) {
            if nproc < 4 {
                continue;
            }
            let rp = eval(&mesh_pf, nproc, &machine, &cost);
            let rh = eval(&mesh_hf, nproc, &machine, &cost);
            let delta = (rh.time_us / rp.time_us - 1.0) * 100.0;
            println!(
                "{:>4} {:>6} {:>6}  {:>10} {:>11.0}  {:>10} {:>11.0}  {:>+7.2}%",
                ne, k, nproc, rp.edgecut, rp.time_us, rh.edgecut, rh.time_us, delta
            );
        }
    }
    println!();
    println!("positive Δtime: the paper's Peano-first order is faster");
}
