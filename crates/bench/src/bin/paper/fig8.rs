//! Regenerates the paper's **Figure 8** — speedup versus a single
//! processor for K = 486 elements (Ne = 9, level-2 m-Peano curve).
//!
//! ```text
//! cargo run -p cubesfc-bench --release --bin paper -- fig8
//! ```
//!
//! Paper shapes: the SFC advantage again opens above ~50 processors and
//! reaches ≈ +51 % over the best METIS partition at 486 processors —
//! validating the m-Peano curve for 3^m-sized problems.

use cubesfc::NCAR_P690_MAX_PROCS;
use cubesfc_bench::{grid_cells, maybe_write_csv, print_speedup_figure, run_cells};

pub fn run() {
    let results = run_cells(&grid_cells(9, NCAR_P690_MAX_PROCS, 32)); // K = 486
    maybe_write_csv(&results);
    print_speedup_figure(
        "Figure 8: speedup vs single processor, K=486 (m-Peano level 2)",
        &results,
    );
}
