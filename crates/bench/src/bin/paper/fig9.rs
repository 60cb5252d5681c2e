//! Regenerates the paper's **Figure 9** — total sustained floating-point
//! execution rate for K = 384: SFC versus the best METIS partitioning.
//!
//! ```text
//! cargo run -p cubesfc-bench --release --bin paper -- fig9
//! ```
//!
//! Paper shape: ≈ +37 % sustained Gflops for the SFC partition at 384
//! processors.

use cubesfc::CubedSphere;
use cubesfc_bench::{divisor_procs, maybe_write_csv, paper_models, print_gflops_figure, sweep};

pub fn run() {
    let mesh = CubedSphere::new(8); // K = 384
    let (machine, cost) = paper_models();
    let procs = divisor_procs(384, 384, 32);
    let rows = sweep(&mesh, &procs, &machine, &cost);
    maybe_write_csv(&rows);
    print_gflops_figure("Figure 9: sustained Gflops, K=384: SFC vs METIS", &rows);

    // The paper's single-processor calibration: 841 Mflops = 16% of peak.
    let single = &rows[0].reports[0];
    println!(
        "single-processor sustained rate: {:.0} Mflops ({:.1}% of Power-4 peak)",
        single.perf.sustained_gflops * 1e3,
        machine.percent_of_peak(single.perf.sustained_gflops * 1e9)
    );
}
