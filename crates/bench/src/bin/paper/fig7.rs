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

use cubesfc::CubedSphere;
use cubesfc_bench::{divisor_procs, maybe_write_csv, paper_models, print_speedup_figure, sweep};

pub fn run() {
    let mesh = CubedSphere::new(8); // K = 384
    let (machine, cost) = paper_models();
    let procs = divisor_procs(384, 384, 32);
    let rows = sweep(&mesh, &procs, &machine, &cost);
    maybe_write_csv(&rows);
    print_speedup_figure(
        "Figure 7: speedup vs single processor, K=384 (Hilbert level 3)",
        &rows,
    );
}
