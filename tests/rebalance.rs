//! Integration tests for the dynamic load-balancing subsystem.
//!
//! Two halves:
//!
//! 1. A **pinned acceptance replay** of the 50-step AMR-hotspot
//!    trajectory at the paper's production point (Ne = 16, 64
//!    processors): fixed seed, exact trigger-count and migration-total
//!    assertions, plus the two acceptance criteria — per-step load
//!    imbalance of the incremental SFC within 0.10 of the KWAY
//!    recompute, and cumulative matched migration below 25 % of the
//!    recompute baseline's.
//!
//! 2. **Adversarial property tests** of the weighted prefix splitter
//!    against a brute-force dynamic-programming reference: all-zero
//!    weight steps, a single dominant element, and a hotspot swinging
//!    across a face seam.

use cubesfc::balance::{
    run_rebalance, IncrementalSfc, LoadModel, RebalancePolicy, Repartitioner, SimConfig, SimReport,
    TrajectoryKind,
};
use cubesfc::graph::{part_loads, raw_migration};
use cubesfc::{
    partition, partition_curve_weighted, CostModel, CubedSphere, MachineModel, MeshCache,
    MethodRepartitioner, PartitionMethod, PartitionOptions,
};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Pinned acceptance replay
// ---------------------------------------------------------------------

const NE: usize = 16;
const NPROC: usize = 64;
const STEPS: usize = 50;
const SEED: u64 = 42;

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
    let policy = RebalancePolicy::Periodic { every: 1 };
    let mut opts = PartitionOptions::default();
    opts.graph_config.seed = SEED;
    let initial = partition(&bundle.mesh, method, NPROC, &opts).unwrap();
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

#[test]
fn pinned_amr_replay_meets_acceptance_criteria() {
    let sfc = replay(PartitionMethod::Sfc);
    let kway = replay(PartitionMethod::MetisKway);

    // Exact pins: the whole pipeline is deterministic (closed-form
    // trajectory, seeded multilevel recompute), so these values must
    // reproduce bit-for-bit. If a legitimate algorithm change shifts
    // them, re-measure and update — but never loosen to a range.
    assert_eq!(sfc.trigger_count(), 49);
    assert_eq!(kway.trigger_count(), 49);
    // 7785 before the nearest-boundary split rule; the unbiased cuts
    // track the moving load with slightly less migration.
    assert_eq!(sfc.total_moved_elems(), 7746);
    assert_eq!(kway.total_moved_elems(), 35875);

    // Criterion 1: per-step LB of the incremental SFC within 0.10 of
    // the recompute baseline.
    for (s, k) in sfc.records.iter().zip(kway.records.iter()) {
        assert!(
            s.lb_after <= k.lb_after + 0.10 + 1e-12,
            "step {}: sfc LB {} vs kway LB {}",
            s.step,
            s.lb_after,
            k.lb_after
        );
    }

    // Criterion 2: cumulative matched migration below 25 % of the
    // recompute baseline's.
    let ratio = sfc.total_moved_elems() as f64 / kway.total_moved_elems() as f64;
    assert!(ratio < 0.25, "migration ratio {ratio}");

    // Replays are bit-reproducible.
    let again = replay(PartitionMethod::Sfc);
    assert_eq!(again.total_moved_elems(), sfc.total_moved_elems());
    assert_eq!(again.to_json(), sfc.to_json());
}

// ---------------------------------------------------------------------
// Brute-force reference splitter
// ---------------------------------------------------------------------

/// Optimal max part load over all contiguous splits of `weights` (in
/// the given order) into exactly `nproc` non-empty runs — classic
/// O(n²·p) interval DP, small enough for test meshes.
fn brute_force_opt_maxload(weights: &[f64], nproc: usize) -> f64 {
    let n = weights.len();
    assert!(nproc >= 1 && nproc <= n);
    let mut prefix = vec![0.0f64; n + 1];
    for (i, &w) in weights.iter().enumerate() {
        prefix[i + 1] = prefix[i] + w;
    }
    // dp[p][j] = best max-load splitting the first j elements into p runs.
    let mut dp = vec![f64::INFINITY; n + 1];
    for (j, slot) in dp.iter_mut().enumerate().skip(1) {
        *slot = prefix[j];
    }
    for p in 2..=nproc {
        let mut next = vec![f64::INFINITY; n + 1];
        for j in p..=n {
            let mut best = f64::INFINITY;
            for i in (p - 1)..j {
                let cand = dp[i].max(prefix[j] - prefix[i]);
                if cand < best {
                    best = cand;
                }
            }
            next[j] = best;
        }
        dp = next;
    }
    dp[n]
}

/// Weights reordered along the mesh's space-filling curve, the order the
/// prefix splitter actually slices.
fn curve_order_weights(mesh: &CubedSphere, weights: &[f64]) -> Vec<f64> {
    let curve = mesh.curve().unwrap();
    (0..weights.len())
        .map(|r| weights[curve.elem_at(r).index()])
        .collect()
}

fn max_part_load(mesh: &CubedSphere, nproc: usize, weights: &[f64]) -> f64 {
    let p = partition_curve_weighted(mesh.curve().unwrap(), nproc, weights).unwrap();
    part_loads(&p, weights).into_iter().fold(0.0f64, f64::max)
}

fn assert_curve_contiguous(mesh: &CubedSphere, p: &cubesfc::Partition) {
    let curve = mesh.curve().unwrap();
    let mut prev = 0usize;
    for r in 0..curve.len() {
        let part = p.part_of(curve.elem_at(r).index());
        assert!(
            part == prev || part == prev + 1,
            "rank {r} jumps from part {prev} to {part}"
        );
        prev = part;
    }
}

// ---------------------------------------------------------------------
// Adversarial property tests
// ---------------------------------------------------------------------

/// Regression pin for the greedy boundary bias: the old splitter always
/// absorbed the element that crossed a cut target into the current
/// part, however large the overshoot. On this instance (a single heavy
/// element arriving just past the halfway target) that rule produced a
/// 28/7 split; the nearest-boundary rule leaves the heavy element to
/// the second part and matches the brute-force optimum exactly.
#[test]
fn boundary_bias_regression_case_matches_optimum() {
    let mesh = CubedSphere::new(2);
    let curve = mesh.curve().unwrap();
    let k = mesh.num_elems();
    assert_eq!(k, 24);
    // Craft the weights in curve order: rank 16 is the heavy element.
    let mut weights = vec![0.0f64; k];
    for r in 0..k {
        weights[curve.elem_at(r).index()] = if r == 16 { 12.0 } else { 1.0 };
    }
    let maxload = max_part_load(&mesh, 2, &weights);
    let opt = brute_force_opt_maxload(&curve_order_weights(&mesh, &weights), 2);
    assert_eq!(opt, 19.0);
    assert_eq!(maxload, opt, "greedy {maxload} vs optimum {opt}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Unstructured adversarial weights: whatever the profile, the
    /// nearest-boundary greedy stays within 2× of the brute-force
    /// optimal max load and the split remains a valid contiguous
    /// nproc-way cut of the curve.
    #[test]
    fn random_weights_stay_within_two_of_optimal(
        ne in prop_oneof![Just(2usize), Just(3)],
        nproc in 2usize..8,
        seed_weights in proptest::collection::vec(0.05f64..20.0, 54),
    ) {
        let mesh = CubedSphere::new(ne);
        let k = mesh.num_elems();
        let weights: Vec<f64> = (0..k).map(|e| seed_weights[e % seed_weights.len()]).collect();
        let maxload = max_part_load(&mesh, nproc, &weights);
        let opt = brute_force_opt_maxload(&curve_order_weights(&mesh, &weights), nproc);
        prop_assert!(
            maxload <= 2.0 * opt + 1e-9,
            "greedy max load {maxload} vs brute-force optimum {opt}"
        );
        let p = partition_curve_weighted(mesh.curve().unwrap(), nproc, &weights).unwrap();
        prop_assert_eq!(p.nonempty_parts(), nproc);
        assert_curve_contiguous(&mesh, &p);
    }

    /// All-zero steps: a trajectory frame with no work anywhere is a
    /// typed error, not a crash or a degenerate partition.
    #[test]
    fn all_zero_weight_steps_are_rejected(
        ne in prop_oneof![Just(2usize), Just(3), Just(4)],
        nproc in 2usize..8,
    ) {
        let mesh = CubedSphere::new(ne);
        let zeros = vec![0.0f64; mesh.num_elems()];
        prop_assert!(partition_curve_weighted(mesh.curve().unwrap(), nproc, &zeros).is_err());
        // ...and an almost-all-zero step (one live element) still
        // produces a valid nproc-way split.
        let mut one_live = zeros;
        one_live[mesh.num_elems() / 2] = 1.0;
        let p = partition_curve_weighted(mesh.curve().unwrap(), nproc, &one_live).unwrap();
        prop_assert_eq!(p.nonempty_parts(), nproc);
        assert_curve_contiguous(&mesh, &p);
    }

    /// Single dominant element: one element carries 50–500× the work of
    /// any other. The prefix splitter must stay within 2× of the
    /// brute-force optimal max load (the dominant element alone already
    /// forces opt ≥ its weight).
    #[test]
    fn single_dominant_element_stays_near_optimal(
        ne in prop_oneof![Just(2usize), Just(3)],
        nproc in 2usize..8,
        hot_frac in 0.0f64..1.0,
        boost in 50.0f64..500.0,
    ) {
        let mesh = CubedSphere::new(ne);
        let k = mesh.num_elems();
        let mut weights = vec![1.0f64; k];
        let hot = ((k as f64 * hot_frac) as usize).min(k - 1);
        weights[hot] = boost;

        let maxload = max_part_load(&mesh, nproc, &weights);
        let opt = brute_force_opt_maxload(&curve_order_weights(&mesh, &weights), nproc);
        prop_assert!(opt >= boost - 1e-9, "opt {opt} below the dominant weight");
        prop_assert!(
            maxload <= 2.0 * opt + 1e-9,
            "greedy max load {maxload} vs brute-force optimum {opt}"
        );
        let p = partition_curve_weighted(mesh.curve().unwrap(), nproc, &weights).unwrap();
        prop_assert_eq!(p.nonempty_parts(), nproc);
        assert_curve_contiguous(&mesh, &p);
    }

    /// Hotspot swinging across a face seam: as the boosted cap drifts
    /// over the cube edge, every split stays contiguous on the curve,
    /// near the brute-force optimum, and consecutive splits differ by a
    /// bounded raw migration (incrementality even at the seam crossing).
    #[test]
    fn seam_swing_splits_track_the_brute_force_optimum(
        ne in prop_oneof![Just(2usize), Just(3)],
        nproc in 2usize..7,
        omega in 0.05f64..0.25,
    ) {
        let mesh = CubedSphere::new(ne);
        let k = mesh.num_elems();
        // tilt 0: the cap drifts along the equator, crossing the four
        // equatorial face seams once per quarter turn.
        let kind = TrajectoryKind::AmrHotspot { radius: 0.6, boost: 4.0, omega, tilt: 0.0 };
        let model = LoadModel::from_mesh(&mesh, kind);
        let dummy = cubesfc::Partition::new(1, vec![0u32; k]);

        let steps = (std::f64::consts::FRAC_PI_2 / omega).ceil() as usize + 1;
        let mut prev: Option<cubesfc::Partition> = None;
        for step in 0..steps.min(24) {
            let w = model.weights_at(step, &dummy);
            let p = partition_curve_weighted(mesh.curve().unwrap(), nproc, &w).unwrap();
            assert_curve_contiguous(&mesh, &p);

            let maxload = part_loads(&p, &w).into_iter().fold(0.0f64, f64::max);
            let opt = brute_force_opt_maxload(&curve_order_weights(&mesh, &w), nproc);
            prop_assert!(
                maxload <= 2.0 * opt + 1e-9,
                "step {step}: greedy {maxload} vs opt {opt}"
            );

            if let Some(q) = &prev {
                let moved = raw_migration(q, &p).unwrap();
                prop_assert!(
                    moved <= k / 2,
                    "step {step}: {moved} of {k} elements moved in one frame"
                );
            }
            prev = Some(p);
        }
    }
}
