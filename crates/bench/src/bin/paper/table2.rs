//! Regenerates the paper's **Table 2** — partition statistics for
//! K = 1536 on 768 processors: LB(nelemd), LB(spcv), TCV (MB), edgecut,
//! and modelled execution time per timestep for SFC / KWAY / TV / RB.
//!
//! ```text
//! cargo run -p cubesfc-bench --release --bin paper -- table2
//! ```
//!
//! Paper shapes to check: SFC has LB(nelemd) = 0 and the lowest time;
//! KWAY minimizes edgecut; the paper's anomaly — KWAY's TCV (16.8 MB)
//! beating TV's (17.7 MB) — may or may not recur here; whatever our TV
//! produces is recorded in EXPERIMENTS.md.

use cubesfc::report::PartitionReport;
use cubesfc::CubedSphere;
use cubesfc_bench::{paper_models, SWEEP_METHODS};

pub fn run() {
    let ne = 16; // K = 1536
    let nproc = 768;
    let mesh = CubedSphere::new(ne);
    let (machine, cost) = paper_models();

    println!(
        "Table 2: partition statistics for K={} on {} processors",
        mesh.num_elems(),
        nproc
    );
    println!("{}", PartitionReport::table_header());
    let mut reports = Vec::new();
    for m in SWEEP_METHODS {
        let r = PartitionReport::compute(&mesh, m, nproc, &machine, &cost)
            .expect("table 2 configuration is valid");
        println!("{}", r.table_row());
        reports.push(r);
    }

    println!();
    let sfc = &reports[0];
    let best_other = reports[1..]
        .iter()
        .min_by(|a, b| a.time_us.total_cmp(&b.time_us))
        .unwrap();
    println!(
        "SFC vs best METIS ({}): {:+.1}% execution rate",
        best_other.method,
        (best_other.time_us / sfc.time_us - 1.0) * 100.0
    );
    println!(
        "max/min elements per processor: SFC {}/{}, KWAY {}/{}",
        sfc.perf.stats.nelemd.iter().max().unwrap(),
        sfc.perf.stats.nelemd.iter().min().unwrap(),
        reports[1].perf.stats.nelemd.iter().max().unwrap(),
        reports[1].perf.stats.nelemd.iter().min().unwrap(),
    );
}
