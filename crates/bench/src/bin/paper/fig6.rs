//! Regenerates the paper's **Figure 6** — "A mapping of a level 1 Hilbert
//! curve onto the flattened cube" — as ASCII art, plus the level-3 curve
//! and an SFC partition rendering for good measure.
//!
//! ```text
//! cargo run -p cubesfc-bench --release --bin paper -- fig6
//! ```

use cubesfc::viz::{render_curve_ascii, render_partition_ascii};
use cubesfc::{partition_default, CubedSphere, PartitionMethod};

pub fn run() {
    // Level-1 Hilbert per face: Ne = 2, K = 24. The digits are the
    // element's visit rank modulo 10 — follow 0,1,2,… to trace the curve
    // across all six faces of the net.
    let mesh = CubedSphere::new(2);
    let curve = mesh.curve().unwrap();
    println!("Figure 6: level-1 Hilbert curve on the flattened cube");
    println!("(digits = global visit order mod 10; faces: top=N, row=equator, bottom=S)\n");
    println!("{}", render_curve_ascii(&mesh, curve));
    println!(
        "continuity check: {}\n",
        if curve.is_continuous(mesh.topology()) {
            "every consecutive pair is edge-adjacent on the sphere ✓"
        } else {
            "BROKEN"
        }
    );

    // The paper's K = 384 mesh partitioned for 24 processors.
    let mesh = CubedSphere::new(8);
    let p = partition_default(&mesh, PartitionMethod::Sfc, 24).unwrap();
    println!("Bonus: K=384 SFC partition for 24 processors (one symbol per part)\n");
    println!("{}", render_partition_ascii(&mesh, &p));
}
