//! Regenerates the paper's **Figure 10** — total sustained floating-point
//! execution rate for K = 1536 (Ne = 16, level-4 Hilbert): SFC versus the
//! best METIS partitioning, up to the machine's 768-processor limit.
//!
//! ```text
//! cargo run -p cubesfc-bench --release --bin paper -- fig10
//! ```
//!
//! Paper shape: ≈ +22 % for the SFC partition at 768 processors
//! (2 elements per processor).

use cubesfc::NCAR_P690_MAX_PROCS;
use cubesfc_bench::{grid_cells, maybe_write_csv, print_gflops_figure, run_cells};

pub fn run() {
    let results = run_cells(&grid_cells(16, NCAR_P690_MAX_PROCS, 32)); // K = 1536
    maybe_write_csv(&results);
    print_gflops_figure(
        "Figure 10: sustained Gflops, K=1536: SFC vs METIS (max 768 procs)",
        &results,
    );
}
