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

use cubesfc::CubedSphere;
use cubesfc_bench::{divisor_procs, maybe_write_csv, paper_models, print_gflops_figure, sweep};

pub fn run() {
    let mesh = CubedSphere::new(16); // K = 1536
    let (machine, cost) = paper_models();
    let procs = divisor_procs(1536, 768, 32);
    let rows = sweep(&mesh, &procs, &machine, &cost);
    maybe_write_csv(&rows);
    print_gflops_figure(
        "Figure 10: sustained Gflops, K=1536: SFC vs METIS (max 768 procs)",
        &rows,
    );
}
