//! Regenerates the paper's **Figure 7** — speedup of SEAM versus a single
//! processor for K = 384 elements (Ne = 8, level-3 Hilbert curve), SFC
//! against the METIS algorithms, on the modelled NCAR P690.
//!
//! ```text
//! cargo run -p cubesfc-bench --release --bin paper -- fig7
//! ```
//!
//! Paper shapes: SFC ≈ METIS below ~50 processors; the SFC advantage
//! opens once each processor holds fewer than eight elements, reaching
//! ≈ +37 % at 384 processors.

use cubesfc::NCAR_P690_MAX_PROCS;
use cubesfc_bench::{grid_cells, maybe_write_csv, print_speedup_figure, run_cells};

pub fn run() {
    let results = run_cells(&grid_cells(8, NCAR_P690_MAX_PROCS, 32)); // K = 384
    maybe_write_csv(&results);
    print_speedup_figure(
        "Figure 7: speedup vs single processor, K=384 (Hilbert level 3)",
        &results,
    );
}
