//! The analytic performance model: partition statistics → time per step,
//! speedup, and sustained Gflops on the modelled machine.
//!
//! This regenerates the paper's Figures 7–10, which required up to 768
//! processors: per step each processor computes its elements
//! (`nelem · F_e / R`) and exchanges one aggregated message per
//! neighbouring processor per stage (`α + bytes/β`, with intra-/inter-node
//! routes); the step time is the maximum over processors. Load imbalance
//! therefore converts directly into lost execution rate — the effect the
//! space-filling-curve partitions eliminate.

use crate::cost::CostModel;
use crate::machine::MachineModel;
use cubesfc_graph::metrics::{cut_sweep, PartitionStats};
use cubesfc_graph::{CsrGraph, Partition};

/// The modelled performance of one partition on one machine.
#[derive(Clone, Debug)]
pub struct PerfReport {
    /// Number of processors (parts).
    pub nproc: usize,
    /// Modelled wall time per timestep (s): `max_p (compute_p + comm_p)`.
    pub time_per_step: f64,
    /// Per-rank compute seconds per step.
    pub per_rank_compute: Vec<f64>,
    /// Per-rank communication seconds per step.
    pub per_rank_comm: Vec<f64>,
    /// Single-processor time per step (no communication).
    pub serial_time: f64,
    /// Speedup versus a single processor.
    pub speedup: f64,
    /// Total sustained Gflops at this processor count.
    pub sustained_gflops: f64,
    /// Total communication volume per step, in bytes (all ranks, both
    /// directions).
    pub tcv_bytes: f64,
    /// The underlying partition statistics (LB, edgecut, spcv…).
    pub stats: PartitionStats,
}

/// Evaluate a partition of the element dual graph under the machine and
/// cost models.
///
/// `graph` must be the element dual graph whose edge weights are GLL
/// points exchanged (as produced by `cubesfc_mesh::build_dual_graph`).
pub fn evaluate(
    graph: &CsrGraph,
    partition: &Partition,
    machine: &MachineModel,
    cost: &CostModel,
) -> PerfReport {
    let _span = cubesfc_obs::span("evaluate");
    let (stats, exchange) = cut_sweep(graph, partition);

    // Compute time: element count × flops per element / sustained rate.
    let fe = cost.flops_per_element_step();
    let per_rank_compute: Vec<f64> = stats
        .nelemd
        .iter()
        .map(|&ne| ne as f64 * fe / machine.sustained_flops)
        .collect();
    let total_elems = graph.total_vwgt() as f64;

    finish_report(
        machine,
        cost,
        stats,
        &exchange,
        per_rank_compute,
        total_elems,
    )
}

/// [`evaluate`] with real-valued per-element work weights.
///
/// The static model prices compute by element *count*; under a
/// time-varying load (AMR refinement, physics waves, rank slowdowns)
/// each element's cost is `weights[e]` element-equivalents instead, so
/// per-rank compute is the weighted sum. Communication is unchanged —
/// halo sizes depend on the partition geometry, not on how hard each
/// element's physics is this step. This is what a cost-aware rebalance
/// policy compares: the modelled step time of the old and candidate
/// partitions under the *current* weights.
pub fn evaluate_weighted(
    graph: &CsrGraph,
    partition: &Partition,
    weights: &[f64],
    machine: &MachineModel,
    cost: &CostModel,
) -> PerfReport {
    let _span = cubesfc_obs::span("evaluate");
    assert_eq!(weights.len(), graph.nv(), "one weight per element required");
    let (stats, exchange) = cut_sweep(graph, partition);

    let fe = cost.flops_per_element_step();
    let mut per_rank_compute = vec![0.0f64; partition.nparts()];
    for (e, &part) in partition.assignment().iter().enumerate() {
        per_rank_compute[part as usize] += weights[e] * fe / machine.sustained_flops;
    }
    let total_work: f64 = weights.iter().sum();

    finish_report(
        machine,
        cost,
        stats,
        &exchange,
        per_rank_compute,
        total_work,
    )
}

/// Shared tail of the model: alpha-beta communication per neighbour
/// rank, then the max-over-ranks step time and derived rates.
/// `exchange` is the `(from, to)`-sorted list of [`cut_sweep`] — message
/// times are added to a rank in that order, so the order is part of the
/// result's bits. `total_elems` is in element-equivalents (weighted or
/// counted).
fn finish_report(
    machine: &MachineModel,
    cost: &CostModel,
    stats: PartitionStats,
    exchange: &[(u32, u32, u64)],
    per_rank_compute: Vec<f64>,
    total_elems: f64,
) -> PerfReport {
    let nproc = per_rank_compute.len();
    let fe = cost.flops_per_element_step();

    // Communication time: one aggregated message per neighbour rank per
    // stage, alpha-beta per route.
    let bytes_per_point_stage = cost.bytes_per_point_per_stage();
    let mut per_rank_comm = vec![0.0f64; nproc];
    for &(from, to, points) in exchange {
        let bytes = points as f64 * bytes_per_point_stage;
        // Distribution of modelled per-neighbour message sizes: exposes
        // whether a partition exchanges few large or many small messages.
        cubesfc_obs::histogram_record("perfmodel/message_bytes", bytes as u64);
        let t = machine.message_time(from as usize, to as usize, bytes);
        per_rank_comm[from as usize] += cost.stages as f64 * t;
    }

    let time_per_step = per_rank_compute
        .iter()
        .zip(&per_rank_comm)
        .map(|(c, m)| c + m)
        .fold(0.0f64, f64::max);

    let serial_time = total_elems * fe / machine.sustained_flops;
    let total_flops = total_elems * fe;

    // Modelled (single-direction) exchange volume, next to the measured
    // dss/bytes_exchanged counter from the serial solver.
    let tcv_bytes = stats.total_points as f64 / 2.0 * cost.bytes_per_point_per_stage();
    cubesfc_obs::counter_add("perfmodel/tcv_bytes", tcv_bytes as u64);

    PerfReport {
        nproc,
        time_per_step,
        serial_time,
        speedup: serial_time / time_per_step,
        sustained_gflops: total_flops / time_per_step / 1.0e9,
        // The paper's TCV counts each exchanged point once (single
        // direction, single exchange): total_points sums both directions.
        tcv_bytes,
        per_rank_compute,
        per_rank_comm,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubesfc_graph::metrics::part_exchange_points;
    use cubesfc_graph::PartitionConfig;
    use cubesfc_mesh::CubedSphere;

    fn sphere_graph(ne: usize) -> CsrGraph {
        CubedSphere::new(ne).dual_graph(Default::default())
    }

    fn sfc_partition(ne: usize, nproc: usize) -> Partition {
        let mesh = CubedSphere::new(ne);
        let curve = mesh.curve().unwrap();
        let k = mesh.num_elems();
        let mut assign = vec![0u32; k];
        for (r, e) in curve.iter().enumerate() {
            assign[e.index()] = ((r * nproc) / k) as u32;
        }
        Partition::new(nproc, assign)
    }

    #[test]
    fn serial_partition_has_no_comm() {
        let g = sphere_graph(2);
        let p = Partition::new(1, vec![0; 24]);
        let r = evaluate(
            &g,
            &p,
            &MachineModel::ncar_p690(),
            &CostModel::seam_climate(),
        );
        assert_eq!(r.per_rank_comm[0], 0.0);
        assert!((r.speedup - 1.0).abs() < 1e-12);
        assert!((r.time_per_step - r.serial_time).abs() < 1e-15);
    }

    #[test]
    fn perfect_partition_on_zero_comm_machine_scales_linearly() {
        let g = sphere_graph(4);
        let p = sfc_partition(4, 8); // 96 elements, 12 each
        let r = evaluate(
            &g,
            &p,
            &MachineModel::zero_comm(),
            &CostModel::seam_climate(),
        );
        assert!((r.speedup - 8.0).abs() < 1e-9, "speedup {}", r.speedup);
    }

    #[test]
    fn imbalance_costs_speedup() {
        let g = sphere_graph(2);
        // 12 ranks: balanced SFC (2 each) vs a lopsided assignment (3/1).
        let balanced = sfc_partition(2, 12);
        let mut assign = balanced.assignment().to_vec();
        // Move one element from rank 0's pair to rank 1.
        let donor = assign.iter().position(|&p| p == 0).unwrap();
        assign[donor] = 1;
        let lopsided = Partition::new(12, assign);
        let m = MachineModel::zero_comm();
        let c = CostModel::seam_climate();
        let rb = evaluate(&g, &balanced, &m, &c);
        let rl = evaluate(&g, &lopsided, &m, &c);
        assert!(rl.time_per_step > rb.time_per_step);
        assert!((rl.time_per_step / rb.time_per_step - 1.5).abs() < 1e-9);
    }

    #[test]
    fn comm_volume_matches_table2_scale() {
        // K = 1536 on 768 processors: the paper reports 16.8–17.7 MB total
        // communication volume; our SFC partition should land in the same
        // ballpark (roughly 10–25 MB).
        let g = sphere_graph(16);
        let p = sfc_partition(16, 768);
        let r = evaluate(
            &g,
            &p,
            &MachineModel::ncar_p690(),
            &CostModel::seam_climate(),
        );
        let mb = r.tcv_bytes / 1.0e6;
        assert!((8.0..30.0).contains(&mb), "TCV = {mb} MB");
    }

    #[test]
    fn sfc_beats_kway_at_one_element_per_proc() {
        // The paper's headline effect: at O(1) elements per processor the
        // SFC's exact balance wins.
        let ne = 8; // K = 384
        let g = sphere_graph(ne);
        let nproc = 384;
        let sfc = sfc_partition(ne, nproc);
        let kway = cubesfc_graph::kway(&g, &PartitionConfig::new(nproc));
        let m = MachineModel::ncar_p690();
        let c = CostModel::seam_climate();
        let r_sfc = evaluate(&g, &sfc, &m, &c);
        let r_kway = evaluate(&g, &kway, &m, &c);
        assert_eq!(r_sfc.stats.lb_nelemd, 0.0, "SFC must be exactly balanced");
        assert!(
            r_sfc.time_per_step < r_kway.time_per_step,
            "sfc {} vs kway {}",
            r_sfc.time_per_step,
            r_kway.time_per_step
        );
    }

    #[test]
    fn unit_weights_reproduce_the_unweighted_model() {
        let g = sphere_graph(4);
        let p = sfc_partition(4, 8);
        let m = MachineModel::ncar_p690();
        let c = CostModel::seam_climate();
        let a = evaluate(&g, &p, &m, &c);
        let b = evaluate_weighted(&g, &p, &[1.0; 96], &m, &c);
        // Per-element accumulation reorders the float sums, so compare
        // to a relative tolerance rather than bitwise.
        let close = |x: f64, y: f64| (x - y).abs() <= 1e-12 * x.abs().max(y.abs()).max(1.0);
        assert!(close(a.time_per_step, b.time_per_step));
        for (x, y) in a.per_rank_compute.iter().zip(&b.per_rank_compute) {
            assert!(close(*x, *y));
        }
        assert_eq!(a.per_rank_comm, b.per_rank_comm);
        assert_eq!(a.tcv_bytes, b.tcv_bytes);
    }

    #[test]
    fn weighted_hotspot_slows_only_its_rank() {
        let g = sphere_graph(4);
        let p = sfc_partition(4, 8);
        let m = MachineModel::zero_comm();
        let c = CostModel::seam_climate();
        // Double the work of every element on rank 3.
        let w: Vec<f64> = p
            .assignment()
            .iter()
            .map(|&part| if part == 3 { 2.0 } else { 1.0 })
            .collect();
        let r = evaluate_weighted(&g, &p, &w, &m, &c);
        let base = evaluate(&g, &p, &m, &c);
        assert!((r.per_rank_compute[3] / base.per_rank_compute[3] - 2.0).abs() < 1e-12);
        assert!((r.per_rank_compute[0] / base.per_rank_compute[0] - 1.0).abs() < 1e-12);
        assert!((r.time_per_step / base.time_per_step - 2.0).abs() < 1e-12);
    }

    #[test]
    fn exchange_list_is_the_sorted_per_pair_sum() {
        // `finish_report` adds message times to `per_rank_comm[from]` in
        // list order, so the modelled step time is bit-stable only while
        // the list is the (from, to)-sorted accumulation.
        let g = sphere_graph(8);
        let one_each = Partition::new(g.nv(), (0..g.nv() as u32).collect());
        for p in [sfc_partition(8, 96), one_each] {
            let mut want = std::collections::BTreeMap::new();
            for v in 0..g.nv() {
                for (n, w) in g.neighbors(v) {
                    let (from, to) = (p.part_of(v) as u32, p.part_of(n) as u32);
                    if from != to {
                        *want.entry((from, to)).or_insert(0u64) += w as u64;
                    }
                }
            }
            let want: Vec<_> = want.into_iter().map(|((a, b), w)| (a, b, w)).collect();
            assert_eq!(part_exchange_points(&g, &p), want, "{} parts", p.nparts());
        }
    }

    #[test]
    fn gflops_equals_flops_over_time() {
        let g = sphere_graph(4);
        let p = sfc_partition(4, 16);
        let c = CostModel::seam_climate();
        let r = evaluate(&g, &p, &MachineModel::ncar_p690(), &c);
        let expect = 96.0 * c.flops_per_element_step() / r.time_per_step / 1e9;
        assert!((r.sustained_gflops - expect).abs() < 1e-9);
    }
}
