//! **Ablation E-A4** — does the cube→sphere mapping choice interact with
//! partitioning?
//!
//! Under the paper's equidistant gnomonic projection, corner elements are
//! ~5× smaller than face-centre elements; under the equiangular mapping
//! (HOMME's choice) areas are near-uniform. Spectral element *cost* is
//! per-element (same node count everywhere), so partitions are unaffected
//! — but any cost model that charged by *area* (e.g. explicit-dt
//! limiting, physics grids) would interact with the curve's segment
//! placement. This experiment quantifies the per-part area imbalance each
//! mapping induces on SFC partitions.
//!
//! ```text
//! cargo run -p cubesfc-bench --release --bin paper -- ablation_mapping
//! ```

use cubesfc::graph::load_balance;
use cubesfc::mesh::{FaceId, Mapping};
use cubesfc::{partition_default, CubedSphere, PartitionMethod};

fn part_area_lb(mesh: &CubedSphere, mapping: Mapping, nproc: usize) -> f64 {
    let ne = mesh.ne();
    let p = partition_default(mesh, PartitionMethod::Sfc, nproc).unwrap();
    let mut area = vec![0.0f64; nproc];
    for e in mesh.elems() {
        let (f, i, j) = mesh.locate(e);
        area[p.part_of(e.index())] += mapping.elem_area(FaceId(f.0), ne, i, j);
    }
    // Scale to integers for the shared LB helper.
    let scaled: Vec<u64> = area.iter().map(|a| (a * 1e9) as u64).collect();
    load_balance(&scaled)
}

pub fn run() {
    println!("per-part *area* imbalance of SFC partitions under each mapping");
    println!("(element-count balance is exact in every row — only area varies)\n");
    println!(
        "{:>4} {:>6} {:>6} | {:>14} {:>14}",
        "Ne", "K", "Nproc", "equidistant", "equiangular"
    );
    for ne in [8usize, 16] {
        let mesh = CubedSphere::new(ne);
        let k = mesh.num_elems();
        for nproc in [k / 16, k / 4, k / 2] {
            let lb_eq = part_area_lb(&mesh, Mapping::Equidistant, nproc);
            let lb_an = part_area_lb(&mesh, Mapping::Equiangular, nproc);
            println!(
                "{:>4} {:>6} {:>6} | {:>13.1}% {:>13.1}%",
                ne,
                k,
                nproc,
                lb_eq * 100.0,
                lb_an * 100.0
            );
        }
    }
    println!(
        "\nreading: element-granular SFC partitioning is mapping-agnostic for\n\
         SEM cost (per-element work is constant), but any area-proportional\n\
         cost would suffer up to tens of percent imbalance on the paper's\n\
         equidistant grid — and almost none on the equiangular grid."
    );
}
