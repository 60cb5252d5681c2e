//! Regenerates the paper's **Table 1** — "SEAM test resolutions".
//!
//! ```text
//! cargo run -p cubesfc-bench --release --bin paper -- table1
//! ```

use cubesfc::table1;

pub fn run() {
    println!("Table 1: SEAM test resolutions");
    println!(
        "{:>6} {:>12} {:>6} {:>16} {:>16}",
        "K", "Nproc", "Ne", "Hilbert level", "m-Peano level"
    );
    for r in table1() {
        println!(
            "{:>6} {:>12} {:>6} {:>16} {:>16}",
            r.k,
            format!("1 to {}", r.paper_max_nproc),
            r.ne,
            r.hilbert_levels,
            r.mpeano_levels
        );
    }
    println!();
    println!("Equal-elements-per-processor counts (divisors of K):");
    for r in table1() {
        let procs = r.equal_share_procs();
        let shown: Vec<String> = procs.iter().map(|p| p.to_string()).collect();
        println!("  K={:<5} ({}): {}", r.k, r.family(), shown.join(" "));
    }
}
