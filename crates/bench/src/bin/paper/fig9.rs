//! Regenerates the paper's **Figure 9** — total sustained floating-point
//! execution rate for K = 384: SFC versus the best METIS partitioning.
//!
//! ```text
//! cargo run -p cubesfc-bench --release --bin paper -- fig9
//! ```
//!
//! Paper shape: ≈ +37 % sustained Gflops for the SFC partition at 384
//! processors.

use cubesfc::NCAR_P690_MAX_PROCS;
use cubesfc_bench::{grid_cells, maybe_write_csv, paper_models, print_gflops_figure, run_cells};

pub fn run() {
    let results = run_cells(&grid_cells(8, NCAR_P690_MAX_PROCS, 32)); // K = 384
    maybe_write_csv(&results);
    print_gflops_figure("Figure 9: sustained Gflops, K=384: SFC vs METIS", &results);

    // The paper's single-processor calibration: 841 Mflops = 16% of peak.
    let single = &results[0].report;
    let (machine, _) = paper_models();
    println!(
        "single-processor sustained rate: {:.0} Mflops ({:.1}% of Power-4 peak)",
        single.perf.sustained_gflops * 1e3,
        machine.percent_of_peak(single.perf.sustained_gflops * 1e9)
    );
}
