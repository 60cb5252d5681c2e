//! `solver_step`: the paper's end-to-end quantity, measured rather than
//! modelled — ten advection steps of the mini spectral-element solver
//! under an SFC partition on two virtual ranks. It touches `seam` only,
//! so every partitioner or serve change predicts no move here. Two
//! lock-stepped threads on shared cores make it the noisiest workload.

use super::{drive, RoundResult, Sequential};
use crate::inputs::Sizes;
use crate::spans::Recorder;
use cubesfc::report::PartitionReport;
use cubesfc::seam::{gaussian_blob, run_parallel, AdvectionConfig, Field, RunStats, SerialSolver};
use cubesfc::{
    partition_default, CostModel, CubedSphere, MachineModel, Partition, PartitionMethod,
};
use std::time::Instant;

pub const NE: usize = 8;
pub const RANKS: usize = 2;
pub const STEPS_PER_OP: usize = 10;
/// Allowed distance of the parallel field from the serial reference.
const TOLERANCE: f64 = 1e-10;

pub fn config() -> AdvectionConfig {
    AdvectionConfig::stable_for(NE, 6, 4)
}

pub fn initial_condition() -> impl Fn([f64; 3]) -> f64 + Sync {
    gaussian_blob([0.0, 1.0, 0.0], 0.6)
}

struct SolverStep {
    mesh: CubedSphere,
    partition: Partition,
    reference: Field,
    first: Option<Field>,
    /// Σ over ops and ranks of measured compute and communication seconds.
    compute_s: f64,
    comm_s: f64,
}

impl Sequential for SolverStep {
    type Op = ();
    type Output = (Field, RunStats);

    fn run(&mut self, _: &(), rec: &mut Recorder) -> Result<Self::Output, String> {
        Ok(rec.span("bench", "op", |rec| {
            rec.span("seam", "run_parallel", |_| {
                run_parallel(
                    self.mesh.topology(),
                    &self.partition,
                    config(),
                    STEPS_PER_OP,
                    initial_condition(),
                )
            })
        }))
    }

    fn verify(&mut self, _: &(), (field, stats): Self::Output) -> Result<(), String> {
        self.compute_s += stats.per_rank_compute.iter().sum::<f64>();
        self.comm_s += stats.per_rank_comm.iter().sum::<f64>();
        let off_reference = field.max_abs_diff(&self.reference);
        if off_reference.is_nan() || off_reference > TOLERANCE {
            return Err(format!(
                "field is {off_reference:e} from the serial reference"
            ));
        }
        match &self.first {
            Some(first) if first.max_abs_diff(&field) != 0.0 => {
                Err("field differs from the first op's".to_string())
            }
            Some(_) => Ok(()),
            None => {
                self.first = Some(field);
                Ok(())
            }
        }
    }
}

pub fn round(sizes: Sizes, traced: bool, process_start: Instant) -> RoundResult {
    let mesh = CubedSphere::new(NE);
    let partition =
        partition_default(&mesh, PartitionMethod::Sfc, RANKS).expect("Ne=8 admits an SFC");
    let report = PartitionReport::from_partition(
        &mesh,
        PartitionMethod::Sfc,
        &partition,
        &MachineModel::ncar_p690(),
        &CostModel::seam_climate(),
    );
    let mut serial = SerialSolver::new(mesh.topology(), config());
    serial.set_initial(initial_condition());
    serial.run(STEPS_PER_OP);

    let mut workload = SolverStep {
        mesh,
        partition,
        reference: serial.q,
        first: None,
        compute_s: 0.0,
        comm_s: 0.0,
    };
    let ops = vec![(); sizes.solver_ops];
    let mut round = drive(process_start, &mut workload, &ops, &ops, traced);
    round.edgecut_sum = report.edgecut;
    round.model_us_sum = report.time_us;
    let busy = workload.compute_s + workload.comm_s;
    round
        .extra
        .insert("compute_share", workload.compute_s / busy);
    round.extra.insert(
        "comm_wait_us",
        workload.comm_s * 1e6 / (round.attempted as f64 * RANKS as f64),
    );
    round
}
