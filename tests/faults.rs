//! Integration tests for rank faults in the rebalance loop, on the real
//! cubed-sphere mesh. Faults are load trajectories: a slow rank inflates
//! the weights of the elements it owns, a dead rank has zero capacity
//! from its death step on.
//!
//! Two properties the loop must hold end to end:
//!
//! 1. **Conservation under death** — after a rank death the surviving
//!    ranks own every element (their counts sum to K, the dead rank's
//!    count is zero), and the migration plan that evacuated the dead
//!    rank verifies.
//! 2. **Determinism** — a faulted trajectory produces a byte-identical
//!    `cubesfc-rebalance-v1` report across runs.

use cubesfc::balance::{
    run_rebalance, IncrementalSfc, LoadModel, MigrationPlan, RebalancePolicy, Repartitioner,
    SimConfig, SimReport, TrajectoryKind,
};
use cubesfc::{partition_curve, CostModel, CubedSphere, MachineModel, MeshCache};

const NE: usize = 8;
const NPROC: usize = 12;
const STEPS: usize = 40;

fn run(spec: &str) -> SimReport {
    let cache = MeshCache::new();
    let bundle = cache.bundle(NE);
    let curve = bundle.mesh.curve_required().unwrap().clone();
    let kinds = TrajectoryKind::parse(spec, NPROC, STEPS).unwrap();
    let model = LoadModel::overlay(&bundle.mesh, kinds);
    let config = SimConfig {
        steps: STEPS,
        nproc: NPROC,
        machine: MachineModel::ncar_p690(),
        cost: CostModel::seam_climate(),
    };
    let initial = partition_curve(&curve, NPROC).unwrap();
    let mut backend = IncrementalSfc::new(curve);
    run_rebalance(
        &bundle.graph,
        &model,
        &mut backend,
        RebalancePolicy::Periodic { every: 2 },
        initial,
        &config,
    )
    .unwrap()
}

#[test]
fn rank_death_conserves_elements_on_survivors() {
    let report = run("amr+death:5@17");
    let k = 6 * NE * NE;
    let sizes = report.final_partition.part_sizes();
    assert_eq!(sizes.len(), NPROC);
    assert_eq!(sizes[5], 0, "dead rank still owns elements");
    assert_eq!(
        sizes.iter().sum::<usize>(),
        k,
        "survivors must own all of K"
    );
    // The death forced a trigger off the policy's even-step period.
    assert!(report.records[17].triggered);
    assert!(!report.records[15].triggered && report.records[16].triggered);

    // The evacuation itself verifies as a migration plan: re-split with
    // the dead rank's capacity zeroed, plan old → target, replay.
    let mesh = CubedSphere::new(NE);
    let curve = mesh.curve().unwrap().clone();
    let old = partition_curve(&curve, NPROC).unwrap();
    let weights = vec![1.0f64; k];
    let mut caps = vec![1.0f64; NPROC];
    caps[5] = 0.0;
    let mut backend = IncrementalSfc::new(curve);
    let target = backend.repartition_capacity(17, &weights, &caps).unwrap();
    let plan = MigrationPlan::from_target(&old, &target, 1.0).unwrap();
    plan.verify(&old).unwrap();
    assert!(plan.recvs[5].is_empty(), "dead rank must receive nothing");
    assert_eq!(plan.target.part_sizes()[5], 0);
}

#[test]
fn seeded_fault_runs_are_byte_identical() {
    let spec = "amr+slow:3@10..30x2.5+death:9@23";
    let a = run(spec);
    let b = run(spec);
    assert_eq!(a.to_json(), b.to_json());
    assert_eq!(a.trajectory, "amr+fault+death");
    assert_eq!(a.final_partition.part_sizes()[9], 0);
}
