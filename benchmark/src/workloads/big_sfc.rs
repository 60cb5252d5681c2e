//! `big_sfc`: a one-off partition at a new resolution, which is also what
//! a `MeshCache` miss costs. Each op builds a cold mesh and its dual
//! graph, slices the curve for three processor counts, evaluates each
//! partition, and makes one weighted split. The multilevel partitioner is
//! never called; work moved into the mesh build is charged here.

use super::{drive, RoundResult, Sequential};
use crate::inputs::{self, Sizes, BIG_SFC_NPROCS, BIG_SFC_SIZES, BIG_SFC_WEIGHTED_NPROC};
use crate::spans::Recorder;
use cubesfc::report::PartitionReport;
use cubesfc::{
    partition_curve_weighted, partition_with_graph, to_csr, CostModel, CubedSphere, MachineModel,
    Partition, PartitionMethod, PartitionOptions,
};
use std::time::Instant;

struct BigSfc {
    machine: MachineModel,
    cost: CostModel,
    options: PartitionOptions,
    /// Weights of the weighted split, by size index.
    weights: Vec<Vec<f64>>,
    /// `(edgecut, time_us)` of the first timed op's reports, by size index.
    first: Vec<Option<Vec<(u64, f64)>>>,
}

/// The partitions of one op with their reports: the equal splits in
/// [`BIG_SFC_NPROCS`] order, then the weighted split.
type Output = Vec<(Partition, PartitionReport)>;

impl Sequential for BigSfc {
    type Op = usize;
    type Output = Output;

    fn run(&mut self, &size: &usize, rec: &mut Recorder) -> Result<Output, String> {
        let ne = BIG_SFC_SIZES[size];
        rec.span("bench", "op", |rec| {
            let mesh = rec.span("mesh", "CubedSphere::new", |_| CubedSphere::new(ne));
            let graph = rec.span("mesh", "dual_graph+to_csr", |_| {
                to_csr(&mesh.dual_graph(Default::default()))
            });
            let report_of = |rec: &mut Recorder, partition: Partition| {
                let report = rec.span("core", "PartitionReport::from_partition_with_graph", |_| {
                    PartitionReport::from_partition_with_graph(
                        &graph,
                        PartitionMethod::Sfc,
                        &partition,
                        &self.machine,
                        &self.cost,
                    )
                });
                (partition, report)
            };
            let mut output = Vec::with_capacity(BIG_SFC_NPROCS.len() + 1);
            for nproc in BIG_SFC_NPROCS {
                let partition = rec
                    .span("core", "partition_with_graph[sfc]", |_| {
                        partition_with_graph(
                            &mesh,
                            &graph,
                            PartitionMethod::Sfc,
                            nproc,
                            &self.options,
                        )
                    })
                    .map_err(|e| e.to_string())?;
                output.push(report_of(rec, partition));
            }
            let weighted = rec.span("core", "partition_curve_weighted", |_| {
                let curve = mesh.curve_required().map_err(|e| e.to_string())?;
                partition_curve_weighted(curve, BIG_SFC_WEIGHTED_NPROC, &self.weights[size])
                    .map_err(|e| e.to_string())
            })?;
            output.push(report_of(rec, weighted));
            Ok(output)
        })
    }

    fn verify(&mut self, &size: &usize, output: Output) -> Result<(), String> {
        let ne = BIG_SFC_SIZES[size];
        let k = 6 * ne * ne;
        for (partition, _) in &output {
            let sizes = partition.part_sizes();
            if sizes.iter().sum::<usize>() != k || sizes.contains(&0) {
                return Err(format!(
                    "ne={ne}: partition loses elements or has an empty part"
                ));
            }
        }
        for (partition, report) in &output[..BIG_SFC_NPROCS.len()] {
            let sizes = partition.part_sizes();
            let (least, most) = (sizes.iter().min(), sizes.iter().max());
            if most.zip(least).is_none_or(|(most, least)| most - least > 1) {
                return Err(format!(
                    "ne={ne} nproc={}: equal-split part sizes differ by more than one",
                    report.nproc
                ));
            }
        }
        let quality: Vec<(u64, f64)> = output
            .iter()
            .map(|(_, report)| (report.edgecut, report.time_us))
            .collect();
        match &self.first[size] {
            Some(first) if *first != quality => Err(format!("ne={ne}: differs from its first run")),
            Some(_) => Ok(()),
            None => {
                self.first[size] = Some(quality);
                Ok(())
            }
        }
    }
}

pub fn round(seed: u64, sizes: Sizes, traced: bool, process_start: Instant) -> RoundResult {
    let ops = inputs::big_sfc_ops(seed, sizes.big_sfc_passes);
    let mut workload = BigSfc {
        machine: MachineModel::ncar_p690(),
        cost: CostModel::seam_climate(),
        options: PartitionOptions::default(),
        weights: inputs::split_weights(seed),
        first: vec![None; BIG_SFC_SIZES.len()],
    };
    // Once per size, in set-up: the six-face curve is one continuous path.
    let mut broken_curves = Vec::new();
    for ne in BIG_SFC_SIZES {
        let mesh = CubedSphere::new(ne);
        if !mesh
            .curve()
            .is_some_and(|c| c.is_continuous(mesh.topology()))
        {
            broken_curves.push(format!("ne={ne}: global curve is not continuous"));
        }
    }
    let mut round = drive(process_start, &mut workload, &ops, &ops, traced);
    for message in broken_curves {
        round.fail(message);
    }
    for (edgecut, time_us) in workload.first.iter().flatten().flatten() {
        round.edgecut_sum += edgecut;
        round.model_us_sum += time_us;
    }
    round
}
