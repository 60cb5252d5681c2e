//! **Extension E-X5** — dynamic rebalancing at acceptance scale.
//!
//! Replays the 50-step AMR-hotspot trajectory at the paper's production
//! point (Ne = 16, K = 1536, 64 processors) through the `balance`
//! subsystem twice — once with the incremental SFC rebalancer that
//! re-splits the fixed global curve, once with a from-scratch METIS-KWAY
//! recompute (fresh seed each step, as an AMR code with no memory of the
//! previous partition would run) — and checks the acceptance criteria:
//!
//! 1. per-step load imbalance of the incremental SFC stays within
//!    0.10 of the KWAY recompute, and
//! 2. cumulative matched migration of the SFC path is below 25 % of the
//!    recompute baseline's.
//!
//! Exits nonzero if either criterion is violated, so CI can pin it.
//!
//! ```text
//! cargo run -p cubesfc-bench --release --bin rebalance_scaling
//! ```

use cubesfc::balance::{
    run_rebalance, IncrementalSfc, LoadModel, RebalancePolicy, Repartitioner, SimConfig, SimReport,
    TrajectoryKind,
};
use cubesfc::{
    CostModel, MachineModel, MeshCache, MethodRepartitioner, PartitionMethod, PartitionOptions,
};

const NE: usize = 16;
const NPROC: usize = 64;
const STEPS: usize = 50;
const SEED: u64 = 42;
const LB_SLACK: f64 = 0.10;
const MIGRATION_RATIO_CEILING: f64 = 0.25;

fn replay(method: PartitionMethod) -> SimReport {
    let cache = MeshCache::new();
    let bundle = cache.bundle(NE);
    let kind = TrajectoryKind::named("amr", STEPS).unwrap();
    let model = LoadModel::from_mesh(&bundle.mesh, kind);
    let config = SimConfig {
        steps: STEPS,
        nproc: NPROC,
        machine: MachineModel::ncar_p690(),
        cost: CostModel::seam_climate(),
    };
    // Rebalance every step: the regime where incrementality matters —
    // the recompute baseline pays a full reshuffle at each trigger while
    // the SFC path only slides segment boundaries.
    let policy = RebalancePolicy::Periodic { every: 1 };

    let mut opts = PartitionOptions::default();
    opts.graph_config.seed = SEED;
    let initial = cubesfc::partition(&bundle.mesh, method, NPROC, &opts).unwrap();
    let mut backend: Box<dyn Repartitioner> = match method {
        PartitionMethod::Sfc => Box::new(IncrementalSfc::new(
            bundle.mesh.curve_required().unwrap().clone(),
        )),
        m => Box::new(MethodRepartitioner::new(bundle.clone(), m, SEED).with_options(opts)),
    };
    run_rebalance(
        &bundle.graph,
        &model,
        backend.as_mut(),
        policy,
        initial,
        &config,
    )
    .unwrap()
}

fn main() {
    println!(
        "dynamic rebalancing, AMR hotspot trajectory (Ne={NE}, K={}, Nproc={NPROC}, {STEPS} steps)",
        6 * NE * NE
    );

    let sfc = replay(PartitionMethod::Sfc);
    let kway = replay(PartitionMethod::MetisKway);

    println!(
        "{:>6} {:>12} {:>12} {:>10} {:>10}",
        "step", "LB sfc", "LB kway", "mv sfc", "mv kway"
    );
    let mut lb_violations = 0usize;
    for (s, k) in sfc.records.iter().zip(kway.records.iter()) {
        let flag = if s.lb_after > k.lb_after + LB_SLACK {
            lb_violations += 1;
            "  <-- LB gap"
        } else {
            ""
        };
        println!(
            "{:>6} {:>12.4} {:>12.4} {:>10} {:>10}{}",
            s.step, s.lb_after, k.lb_after, s.moved_elems, k.moved_elems, flag
        );
    }

    let ratio = sfc.total_moved_elems() as f64 / kway.total_moved_elems().max(1) as f64;
    println!();
    println!(
        "triggers: sfc={} kway={}   mean LB: sfc={:.4} kway={:.4}",
        sfc.trigger_count(),
        kway.trigger_count(),
        sfc.mean_lb(),
        kway.mean_lb()
    );
    println!(
        "cumulative matched migration: sfc={} kway={} elems  (ratio {:.1}%, ceiling {:.0}%)",
        sfc.total_moved_elems(),
        kway.total_moved_elems(),
        ratio * 100.0,
        MIGRATION_RATIO_CEILING * 100.0
    );
    println!(
        "modelled wall time: sfc={:.3} s kway={:.3} s",
        sfc.modelled_total_seconds(),
        kway.modelled_total_seconds()
    );
    println!(
        "\nreading: both paths chase the same drifting hotspot, but the SFC\n\
         rebalancer only slides cut points along the fixed curve — the\n\
         recompute baseline re-derives its partition from scratch and pays\n\
         for it in migrated elements every single step."
    );

    let mut failed = false;
    if lb_violations > 0 {
        eprintln!("FAIL: {lb_violations} steps exceed the {LB_SLACK} per-step LB slack");
        failed = true;
    }
    if ratio >= MIGRATION_RATIO_CEILING {
        eprintln!(
            "FAIL: SFC migration ratio {:.3} is not below {MIGRATION_RATIO_CEILING}",
            ratio
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("\nacceptance criteria satisfied");
}
