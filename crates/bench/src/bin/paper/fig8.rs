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

use cubesfc::CubedSphere;
use cubesfc_bench::{divisor_procs, maybe_write_csv, paper_models, print_speedup_figure, sweep};

pub fn run() {
    let mesh = CubedSphere::new(9); // K = 486
    let (machine, cost) = paper_models();
    let procs = divisor_procs(486, 486, 32);
    let rows = sweep(&mesh, &procs, &machine, &cost);
    maybe_write_csv(&rows);
    print_speedup_figure(
        "Figure 8: speedup vs single processor, K=486 (m-Peano level 2)",
        &rows,
    );
}
