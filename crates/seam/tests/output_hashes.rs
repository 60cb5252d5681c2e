//! Bit-identity guard rail: FNV-1a hashes of the exact `f64` bits of the
//! final fields of both parallel runners and both serial solvers.
//!
//! A refactor of the rank runtime or of the element kernels that keeps
//! every value to the last bit leaves these hashes alone; a tolerance
//! test (`max_abs_diff < 1e-12`) would not notice a reassociated sum.
//! The grid is Ne = 3 under both mappings, with an SFC partition whose
//! parts cross cube seams and a block partition by element id, at
//! `np = 4`; `np = 6` and `np = 8` (the paper's SEAM) are pinned under
//! the equidistant mapping, and the `solver_step` benchmark's own
//! configuration (Ne = 8, `np = 6`, 4 levels, an SFC partition on two
//! ranks) has its own pin.

use cubesfc_graph::Partition;
use cubesfc_mesh::{CubedSphere, Mapping};
use cubesfc_seam::shallow_water::SwState;
use cubesfc_seam::vranks::run_parallel;
use cubesfc_seam::{
    gaussian_blob, run_sw_parallel, tc2_initial, AdvectionConfig, Field, SerialSolver, SwConfig,
    SwSolver,
};

const NE: usize = 3;
const STEPS: usize = 3;

/// FNV-1a (64-bit) over the little-endian bytes of each value's bits.
fn fnv1a<'a>(values: impl IntoIterator<Item = &'a f64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn field_hash(f: &Field) -> u64 {
    fnv1a(f.data.iter().flatten())
}

fn sw_hash(s: &SwState) -> u64 {
    fnv1a(s.v.iter().chain([&s.h]).flatten().flatten())
}

/// `nparts` equal contiguous segments of the global curve. At Ne = 3
/// (54 elements, 9 per face) every one of four parts crosses at least one
/// cube seam.
fn curve_partition(mesh: &CubedSphere, nparts: usize) -> Partition {
    let k = mesh.num_elems();
    let mut assign = vec![0u32; k];
    for (r, e) in mesh.curve().unwrap().iter().enumerate() {
        assign[e.index()] = ((r * nparts) / k) as u32;
    }
    Partition::new(nparts, assign)
}

fn sfc_partition(mesh: &CubedSphere) -> Partition {
    curve_partition(mesh, 4)
}

/// Five blocks of consecutive element ids.
fn block_partition(k: usize) -> Partition {
    Partition::new(5, (0..k).map(|e| ((e * 5) / k) as u32).collect())
}

/// `[serial, SFC, block]` hashes of the advection solver with `np` points
/// under `mapping`.
fn advection_hashes(np: usize, mapping: Mapping) -> [u64; 3] {
    let mesh = CubedSphere::new(NE);
    let topo = mesh.topology();
    let cfg = AdvectionConfig::stable_for(NE, np, 2).with_mapping(mapping);
    let ic = gaussian_blob([0.6, -0.64, 0.48], 0.6);
    let mut serial = SerialSolver::new(topo, cfg);
    serial.set_initial(&ic);
    serial.run(STEPS);
    let (sfc, _) = run_parallel(topo, &sfc_partition(&mesh), cfg, STEPS, &ic);
    let (block, _) = run_parallel(topo, &block_partition(mesh.num_elems()), cfg, STEPS, &ic);
    [field_hash(&serial.q), field_hash(&sfc), field_hash(&block)]
}

/// `[serial, SFC, block]` hashes of the shallow water solver with `np`
/// points under `mapping`.
fn shallow_water_hashes(np: usize, mapping: Mapping) -> [u64; 3] {
    let mesh = CubedSphere::new(NE);
    let topo = mesh.topology();
    let cfg = SwConfig::test_case_2(NE, np).with_mapping(mapping);
    let (v0, h0) = tc2_initial(0.9, 2.5, cfg.omega, cfg.gravity);
    let mut serial = SwSolver::new(topo, cfg);
    serial.set_initial(&v0, &h0);
    serial.run(STEPS);
    let (sfc, _) = run_sw_parallel(topo, &sfc_partition(&mesh), cfg, STEPS, &v0, &h0);
    let block_part = block_partition(mesh.num_elems());
    let (block, _) = run_sw_parallel(topo, &block_part, cfg, STEPS, &v0, &h0);
    [sw_hash(&serial.state), sw_hash(&sfc), sw_hash(&block)]
}

#[test]
fn advection_output_bits_are_pinned() {
    let equidistant = advection_hashes(4, Mapping::Equidistant);
    let equiangular = advection_hashes(4, Mapping::Equiangular);
    let pinned = [
        [
            378399483422285753,
            13238251329684821817,
            2157596095737393361,
        ],
        [
            12543412907445661249,
            10558824291753447653,
            3861818446235835777,
        ],
    ];
    assert_eq!([equidistant, equiangular], pinned);
}

#[test]
fn shallow_water_output_bits_are_pinned() {
    let equidistant = shallow_water_hashes(4, Mapping::Equidistant);
    let equiangular = shallow_water_hashes(4, Mapping::Equiangular);
    let pinned = [
        [
            8045975444008049774,
            14582707188161044976,
            17142469718833129386,
        ],
        [
            18366699167178108461,
            2491132690564864628,
            13119786903395394221,
        ],
    ];
    assert_eq!([equidistant, equiangular], pinned);
}

#[test]
fn advection_output_bits_are_pinned_at_np_8() {
    let pinned = [
        10698173883012814277,
        8691907005670313861,
        10718195524776212585,
    ];
    assert_eq!(advection_hashes(8, Mapping::Equidistant), pinned);
}

#[test]
fn shallow_water_output_bits_are_pinned_at_np_6_and_8() {
    let hashes = [6, 8].map(|np| shallow_water_hashes(np, Mapping::Equidistant));
    let pinned = [
        [
            16064790669204590318,
            9510032136424851997,
            133888005453470537,
        ],
        [
            17833281304402357046,
            17301878855334441867,
            14370848414601070962,
        ],
    ];
    assert_eq!(hashes, pinned);
}

/// The `solver_step` benchmark's configuration: ten steps at Ne = 8,
/// `np = 6`, four levels, two ranks on halves of the global curve.
#[test]
fn solver_step_configuration_output_bits_are_pinned() {
    const NE: usize = 8;
    const STEPS: usize = 10;
    let mesh = CubedSphere::new(NE);
    let topo = mesh.topology();
    let cfg = AdvectionConfig::stable_for(NE, 6, 4);
    let ic = gaussian_blob([0.0, 1.0, 0.0], 0.6);
    let mut serial = SerialSolver::new(topo, cfg);
    serial.set_initial(&ic);
    serial.run(STEPS);
    let (parallel, _) = run_parallel(topo, &curve_partition(&mesh, 2), cfg, STEPS, &ic);
    let pinned = [7506434490591386925, 17224811805973440061];
    assert_eq!([field_hash(&serial.q), field_hash(&parallel)], pinned);
}
