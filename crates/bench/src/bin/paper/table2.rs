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
use cubesfc_bench::{cells_at, run_cells, sfc_vs_best_metis};

pub fn run() {
    let (ne, nproc) = (16, 768); // K = 1536
    let results = run_cells(&cells_at(&[(ne, nproc)]));

    println!(
        "Table 2: partition statistics for K={} on {} processors",
        6 * ne * ne,
        nproc
    );
    println!("{}", PartitionReport::table_header());
    for r in &results {
        println!("{}", r.report.table_row());
    }

    println!();
    let (best, advantage) = sfc_vs_best_metis(&results);
    println!(
        "SFC vs best METIS ({}): {advantage:+.1}% execution rate",
        best.method
    );
    let nelemd = |i: usize| &results[i].report.perf.stats.nelemd;
    println!(
        "max/min elements per processor: SFC {}/{}, KWAY {}/{}",
        nelemd(0).iter().max().unwrap(),
        nelemd(0).iter().min().unwrap(),
        nelemd(1).iter().max().unwrap(),
        nelemd(1).iter().min().unwrap(),
    );
}
