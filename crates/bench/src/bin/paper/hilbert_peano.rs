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

use cubesfc::CubedSphere;
use cubesfc_bench::{paper_models, sweep};

pub fn run() {
    let (machine, cost) = paper_models();

    // K = 1944 (Hilbert-Peano) at 4 elements per processor.
    let mesh_hp = CubedSphere::new(18);
    let rows_hp = sweep(&mesh_hp, &[486], &machine, &cost);
    let hp = &rows_hp[0];

    // K = 384 (pure Hilbert) at 4 elements per processor.
    let mesh_h = CubedSphere::new(8);
    let rows_h = sweep(&mesh_h, &[96], &machine, &cost);
    let h = &rows_h[0];

    println!("Hilbert-Peano vs pure Hilbert at 4 elements per processor");
    println!(
        "{:<28} {:>7} {:>7} {:>14} {:>14}",
        "case", "K", "Nproc", "SFC time (us)", "SFC advantage"
    );
    println!(
        "{:<28} {:>7} {:>7} {:>14.0} {:>+13.1}%",
        "K=1944 Hilbert-Peano(1,2)",
        1944,
        hp.nproc,
        hp.sfc().time_us,
        hp.sfc_advantage_pct()
    );
    println!(
        "{:<28} {:>7} {:>7} {:>14.0} {:>+13.1}%",
        "K=384  Hilbert(3)",
        384,
        h.nproc,
        h.sfc().time_us,
        h.sfc_advantage_pct()
    );
    println!();
    println!(
        "paper: +7% (K=1944/486p) vs +13% (K=384/96p) — the Hilbert-Peano \
         advantage is smaller at equal elements per processor"
    );
}
