//! Partition quality reports in the paper's Table 2 format.

use crate::partitioner::{partition, PartitionMethod, PartitionOptions};
use crate::PartitionError;
use cubesfc_graph::{CsrGraph, Partition};
use cubesfc_mesh::CubedSphere;
use cubesfc_seam::{evaluate, CostModel, MachineModel, PerfReport};
use std::fmt;

/// All the numbers the paper's Table 2 reports for one partition, plus
/// the modelled execution time.
#[derive(Clone, Debug)]
pub struct PartitionReport {
    /// Which algorithm produced the partition.
    pub method: PartitionMethod,
    /// Processor count.
    pub nproc: usize,
    /// `LB(nelemd)` — computational load balance, Eq. (1).
    pub lb_nelemd: f64,
    /// `LB(spcv)` — communication load balance, Eq. (1).
    pub lb_spcv: f64,
    /// Total communication volume in megabytes (paper's convention:
    /// single-direction, single exchange).
    pub tcv_mbytes: f64,
    /// Edgecut (count of cut dual-graph edges).
    pub edgecut: u64,
    /// Modelled execution time per timestep, in microseconds (the paper's
    /// Table 2 unit).
    pub time_us: f64,
    /// The full modelled performance report.
    pub perf: PerfReport,
}

impl PartitionReport {
    /// Evaluate a ready-made partition.
    pub fn from_partition(
        mesh: &CubedSphere,
        method: PartitionMethod,
        part: &Partition,
        machine: &MachineModel,
        cost: &CostModel,
    ) -> PartitionReport {
        let g = {
            let _span = cubesfc_obs::span("dualgraph");
            mesh.dual_graph(Default::default())
        };
        PartitionReport::from_partition_with_graph(&g, method, part, machine, cost)
    }

    /// Evaluate a ready-made partition against a pre-built dual graph
    /// (`mesh.dual_graph(Default::default())`).
    ///
    /// All the Table-2 metrics are functions of the dual graph and the
    /// partition alone; passing the graph in lets sweeps that evaluate
    /// hundreds of partitions of one mesh build it exactly once.
    pub fn from_partition_with_graph(
        g: &CsrGraph,
        method: PartitionMethod,
        part: &Partition,
        machine: &MachineModel,
        cost: &CostModel,
    ) -> PartitionReport {
        let _span = cubesfc_obs::span("report");
        // `evaluate` computes the partition statistics once; read them
        // from its report.
        let perf = evaluate(g, part, machine, cost);
        PartitionReport {
            method,
            nproc: part.nparts(),
            lb_nelemd: perf.stats.lb_nelemd,
            lb_spcv: perf.stats.lb_spcv,
            tcv_mbytes: perf.tcv_bytes / 1.0e6,
            edgecut: perf.stats.edgecut,
            time_us: perf.time_per_step * 1.0e6,
            perf,
        }
    }

    /// Partition and evaluate in one call.
    pub fn compute(
        mesh: &CubedSphere,
        method: PartitionMethod,
        nproc: usize,
        machine: &MachineModel,
        cost: &CostModel,
    ) -> Result<PartitionReport, PartitionError> {
        let part = partition(mesh, method, nproc, &PartitionOptions::default())?;
        Ok(PartitionReport::from_partition(
            mesh, method, &part, machine, cost,
        ))
    }

    /// The Table 2 header row.
    pub fn table_header() -> String {
        format!(
            "{:<8} {:>12} {:>10} {:>12} {:>9} {:>12}",
            "Metric", "LB(nelemd)", "LB(spcv)", "TCV(MB)", "edgecut", "Time(usec)"
        )
    }

    /// One Table 2 row.
    pub fn table_row(&self) -> String {
        format!(
            "{:<8} {:>12.3} {:>10.3} {:>12.1} {:>9} {:>12.0}",
            self.method.label(),
            self.lb_nelemd,
            self.lb_spcv,
            self.tcv_mbytes,
            self.edgecut,
            self.time_us
        )
    }
}

impl fmt::Display for PartitionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", PartitionReport::table_header())?;
        write!(f, "{}", self.table_row())
    }
}

/// Compute the best (lowest modelled time) METIS-family report — the
/// paper's figures compare SFC against "the best METIS partitioning".
pub fn best_metis(
    mesh: &CubedSphere,
    nproc: usize,
    machine: &MachineModel,
    cost: &CostModel,
) -> Result<PartitionReport, PartitionError> {
    let mut best: Option<PartitionReport> = None;
    for m in PartitionMethod::METIS {
        let r = PartitionReport::compute(mesh, m, nproc, machine, cost)?;
        if best.as_ref().is_none_or(|b| r.time_us < b.time_us) {
            best = Some(r);
        }
    }
    Ok(best.expect("three candidates"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_fields_are_consistent() {
        let mesh = CubedSphere::new(4);
        let machine = MachineModel::ncar_p690();
        let cost = CostModel::seam_climate();
        let r = PartitionReport::compute(&mesh, PartitionMethod::Sfc, 16, &machine, &cost).unwrap();
        assert_eq!(r.nproc, 16);
        assert_eq!(r.lb_nelemd, 0.0); // 96 / 16 = 6 exactly
        assert!(r.tcv_mbytes > 0.0);
        assert!(r.edgecut > 0);
        assert!((r.time_us - r.perf.time_per_step * 1e6).abs() < 1e-9);
    }

    #[test]
    fn rows_render() {
        let mesh = CubedSphere::new(2);
        let machine = MachineModel::ncar_p690();
        let cost = CostModel::seam_climate();
        let r =
            PartitionReport::compute(&mesh, PartitionMethod::MetisRb, 4, &machine, &cost).unwrap();
        let row = r.table_row();
        assert!(row.starts_with("RB"));
        assert!(PartitionReport::table_header().contains("LB(nelemd)"));
        assert!(r.to_string().contains("RB"));
    }

    #[test]
    fn best_metis_picks_minimum_time() {
        let mesh = CubedSphere::new(4);
        let machine = MachineModel::ncar_p690();
        let cost = CostModel::seam_climate();
        let best = best_metis(&mesh, 12, &machine, &cost).unwrap();
        for m in PartitionMethod::METIS {
            let r = PartitionReport::compute(&mesh, m, 12, &machine, &cost).unwrap();
            assert!(best.time_us <= r.time_us + 1e-9);
        }
    }
}
