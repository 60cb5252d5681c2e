//! `paper_grid`: what `cubesfc experiment` does — every method at every
//! equal-share processor count of the four Table-1 resolutions, on a warm
//! `MeshCache`. Nearly all of its time is the multilevel graph
//! partitioner; curve slicing is microseconds.

use super::{drive, RoundResult, Sequential};
use crate::inputs::{self, Sizes};
use crate::spans::Recorder;
use cubesfc::report::PartitionReport;
use cubesfc::{
    partition_with_graph, table1, CellResult, CostModel, ExperimentCell, ExperimentEngine,
    MachineModel, PartitionMethod, PartitionOptions,
};
use std::collections::BTreeMap;
use std::time::Instant;

struct PaperGrid {
    engine: ExperimentEngine,
    machine: MachineModel,
    cost: CostModel,
    options: PartitionOptions,
    /// Result of the first timed run of each cell, by grid index.
    first: BTreeMap<usize, CellResult>,
}

impl Sequential for PaperGrid {
    type Op = (usize, ExperimentCell);
    type Output = CellResult;

    fn run(&mut self, op: &Self::Op, rec: &mut Recorder) -> Result<CellResult, String> {
        let cell = op.1;
        if !rec.is_enabled() {
            return self.engine.run_cell(cell).map_err(|e| e.to_string());
        }
        // Traced: the three public pieces `run_cell` is made of.
        rec.span("bench", "op", |rec| {
            let bundle = rec.span("core", "MeshCache::bundle", |_| {
                self.engine.cache().bundle(cell.ne)
            });
            let partitioner_layer = match cell.method {
                PartitionMethod::Sfc => "core",
                _ => "graph",
            };
            let partition = rec
                .span(partitioner_layer, "partition_with_graph", |_| {
                    partition_with_graph(
                        &bundle.mesh,
                        &bundle.graph,
                        cell.method,
                        cell.nproc,
                        &self.options,
                    )
                })
                .map_err(|e| e.to_string())?;
            let report = rec.span("core", "PartitionReport::from_partition_with_graph", |_| {
                PartitionReport::from_partition_with_graph(
                    &bundle.graph,
                    cell.method,
                    &partition,
                    &self.machine,
                    &self.cost,
                )
            });
            Ok(CellResult {
                cell,
                partition,
                report,
            })
        })
    }

    fn verify(&mut self, op: &Self::Op, result: CellResult) -> Result<(), String> {
        let (index, cell) = *op;
        let k = 6 * cell.ne * cell.ne;
        if result.partition.len() != k {
            return Err(format!(
                "{cell:?}: partition covers {} of {k}",
                result.partition.len()
            ));
        }
        if result.partition.nparts() != cell.nproc {
            return Err(format!("{cell:?}: {} parts", result.partition.nparts()));
        }
        // Only the curve promises that no part is empty: at the commit that
        // added this benchmark the multilevel methods leave parts empty in
        // 35 of the 207 graph cells. `model_us_sum` prices that imbalance.
        if cell.method == PartitionMethod::Sfc {
            if result.partition.nonempty_parts() != cell.nproc {
                return Err(format!("{cell:?}: some part is empty"));
            }
            if result.report.lb_nelemd != 0.0 {
                return Err(format!(
                    "{cell:?}: LB(nelemd) = {}",
                    result.report.lb_nelemd
                ));
            }
        }
        match self.first.get(&index) {
            Some(first) if !first.identical(&result) => {
                Err(format!("{cell:?}: differs from its first run"))
            }
            Some(_) => Ok(()),
            None => {
                self.first.insert(index, result);
                Ok(())
            }
        }
    }
}

pub fn round(seed: u64, sizes: Sizes, traced: bool, process_start: Instant) -> RoundResult {
    let ops = inputs::paper_grid_ops(seed, sizes.paper_grid_passes);
    let mut workload = PaperGrid {
        engine: ExperimentEngine::new(),
        machine: MachineModel::ncar_p690(),
        cost: CostModel::seam_climate(),
        options: PartitionOptions::default(),
        first: BTreeMap::new(),
    };
    for res in table1() {
        workload.engine.cache().bundle(res.ne);
    }
    // The warm-up cells come from a fixed seed: a tenth of a shuffled grid
    // is a different mix of cheap and dear cells for every seed, and
    // `setup_s` should not depend on `--seed`.
    let warm_up = inputs::paper_grid_ops(inputs::WARM_UP_SEED, sizes.paper_grid_passes);
    let mut round = drive(process_start, &mut workload, &warm_up, &ops, traced);
    // Summed in grid order, so the float sum does not depend on the shuffle.
    for result in workload.first.values() {
        round.edgecut_sum += result.report.edgecut;
        round.model_us_sum += result.report.time_us;
    }
    round
}
