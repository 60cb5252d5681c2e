//! Regenerates the paper's **K = 1944 Hilbert-Peano experiment** (§4
//! text): Ne = 18 = 2·3², the nested curve, on 486 processors (4 elements
//! each) — compared, as the paper does, against the K = 384 case on 96
//! processors, which also has 4 elements per processor.
//!
//! ```text
//! cargo run -p cubesfc-bench --release --bin paper -- hilbert_peano
//! ```
//!
//! Paper shapes: +7 % for the Hilbert-Peano SFC at K = 1944 / 486 procs,
//! versus +13 % for the pure Hilbert at K = 384 / 96 procs — the nested
//! curve's advantage is "less apparent", the open question our
//! `ablation_order` experiment digs into.

use cubesfc::engine::GRID_METHODS;
use cubesfc_bench::{cells_at, run_cells, sfc_vs_best_metis};

pub fn run() {
    // K = 1944 (Hilbert-Peano) and K = 384 (pure Hilbert), both at 4
    // elements per processor.
    let results = run_cells(&cells_at(&[(18, 486), (8, 96)]));
    let labels = ["K=1944 Hilbert-Peano(1,2)", "K=384  Hilbert(3)"];

    println!("Hilbert-Peano vs pure Hilbert at 4 elements per processor");
    println!(
        "{:<28} {:>7} {:>7} {:>14} {:>14}",
        "case", "K", "Nproc", "SFC time (us)", "SFC advantage"
    );
    for (label, row) in labels.iter().zip(results.chunks(GRID_METHODS.len())) {
        let sfc = &row[0];
        println!(
            "{:<28} {:>7} {:>7} {:>14.0} {:>+13.1}%",
            label,
            6 * sfc.cell.ne * sfc.cell.ne,
            sfc.cell.nproc,
            sfc.report.time_us,
            sfc_vs_best_metis(row).1
        );
    }
    println!();
    println!(
        "paper: +7% (K=1944/486p) vs +13% (K=384/96p) — the Hilbert-Peano \
         advantage is smaller at equal elements per processor"
    );
}
