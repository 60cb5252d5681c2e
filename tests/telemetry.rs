//! Integration tests for the telemetry subsystem (`cubesfc-telemetry-v1`).
//!
//! Three layers:
//!
//! 1. A **property test** of the NDJSON wire format: arbitrary samples
//!    (hostile key names, full-range `u64` counters, wide-magnitude
//!    gauges) survive serialize → parse → deserialize bit-exactly, and
//!    re-serialization is byte-identical (the format is canonical).
//!
//! 2. A **pinned end-to-end replay**: a seeded rebalance run with the
//!    global sampler enabled must emit one `rebalance`-lane sample per
//!    step whose `lb_measured` / `migration_fraction` gauges agree
//!    bit-for-bit with the `SimReport` records, and the whole NDJSON
//!    stream must be byte-identical across runs (no wall-clock leaks
//!    into the wire format).
//!
//! 3. An **alert hysteresis** test under a mock clock: a rule fires
//!    after `min_duration` hot samples, stays silent while hot, re-arms
//!    only after the gauge dips below `rearm`, then fires again.

use std::collections::BTreeMap;
use std::sync::Arc;

use cubesfc::balance::{
    run_rebalance, IncrementalSfc, LoadModel, RebalancePolicy, Repartitioner, SimConfig, SimReport,
    TrajectoryKind,
};
use cubesfc::obs::{
    json_parse, parse_telemetry, AlertRule, MockClock, Registry, Sampler, TelemetrySample,
};
use cubesfc::{partition, CostModel, MachineModel, MeshCache, PartitionMethod, PartitionOptions};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// 1. NDJSON wire-format roundtrip
// ---------------------------------------------------------------------

/// Key pool with the characters most likely to break a hand-rolled
/// emitter: quotes, backslashes, control chars, non-ASCII, empty.
const NAMES: &[&str] = &[
    "lb_measured",
    "migration/fraction",
    "quote\"d",
    "back\\slash",
    "tab\there",
    "λ·unicode",
    "",
    "spaces in name",
];

/// A finite f64 spanning ~18 orders of magnitude on either sign.
fn wide_f64(unit: f64, exp: u32) -> f64 {
    (unit - 0.5) * ((exp as f64) - 30.0).exp2()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ndjson_lines_roundtrip_bit_exact(
        seq in any::<u64>(),
        step in any::<u64>(),
        lane_idx in 0usize..8,
        gauges in proptest::collection::vec((0usize..8, 0.0f64..1.0, 0u32..61), 0..5),
        counters in proptest::collection::vec((0usize..8, any::<u64>()), 0..5),
        quants in proptest::collection::vec((0usize..8, 0.0f64..1.0), 0..4),
        ranks in proptest::collection::vec((0.0f64..1.0, 0u32..61), 0..6),
        alerts in proptest::collection::vec(0usize..8, 0..3),
    ) {
        let mut s = TelemetrySample {
            seq,
            lane: NAMES[lane_idx].to_string(),
            step,
            gauges: BTreeMap::new(),
            counters: BTreeMap::new(),
            quantiles: BTreeMap::new(),
            ranks: ranks.iter().map(|&(u, e)| wide_f64(u, e)).collect(),
            alerts: alerts.iter().map(|&i| NAMES[i].to_string()).collect(),
        };
        for &(i, u, e) in &gauges {
            s.gauges.insert(NAMES[i].to_string(), wide_f64(u, e));
        }
        for &(i, v) in &counters {
            s.counters.insert(NAMES[i].to_string(), v);
        }
        for &(i, u) in &quants {
            s.quantiles.insert(NAMES[i].to_string(), [u, 2.0 * u, 4.0 * u]);
        }

        let line = s.to_json_line();
        let doc = json_parse(&line).expect("emitted line is valid JSON");
        let back = TelemetrySample::from_json(&doc).expect("sample recovered");
        prop_assert_eq!(&back, &s);
        // Canonical format: re-serialization is byte-identical.
        prop_assert_eq!(back.to_json_line(), line.clone());
        // The stream parser agrees on a one-line stream.
        let stream = parse_telemetry(&line).expect("stream parses");
        prop_assert_eq!(stream.len(), 1);
        prop_assert_eq!(&stream[0], &s);
    }
}

// ---------------------------------------------------------------------
// 2. Pinned end-to-end replay through the global sampler
// ---------------------------------------------------------------------

const NE: usize = 4;
const NPROC: usize = 8;
const STEPS: usize = 12;
const SEED: u64 = 42;

/// One seeded AMR rebalance with global telemetry on; returns the
/// report plus the sampler's view of the run.
fn telemetered_replay() -> (SimReport, Vec<TelemetrySample>, String) {
    cubesfc::obs::reset();
    let sampler = cubesfc::obs::telemetry();
    sampler.reset();
    cubesfc::obs::set_enabled(true);
    cubesfc::obs::set_telemetry_enabled(true);

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
    let mut opts = PartitionOptions::default();
    opts.graph_config.seed = SEED;
    let initial = partition(&bundle.mesh, PartitionMethod::Sfc, NPROC, &opts).unwrap();
    let mut backend = IncrementalSfc::new(bundle.mesh.curve_required().unwrap().clone());
    let report = run_rebalance(
        &bundle.graph,
        &model,
        &mut backend as &mut dyn Repartitioner,
        RebalancePolicy::Periodic { every: 1 },
        initial,
        &config,
    )
    .unwrap();

    cubesfc::obs::set_telemetry_enabled(false);
    cubesfc::obs::set_enabled(false);
    let samples = sampler.samples();
    let ndjson = sampler.export_ndjson();
    (report, samples, ndjson)
}

#[test]
fn rebalance_samples_agree_with_report_and_replay_byte_identically() {
    let (report, samples, ndjson) = telemetered_replay();

    // One rebalance-lane sample per simulated step, in step order.
    let lane: Vec<&TelemetrySample> = samples.iter().filter(|s| s.lane == "rebalance").collect();
    assert_eq!(lane.len(), STEPS);
    assert_eq!(report.records.len(), STEPS);

    for (rec, s) in report.records.iter().zip(&lane) {
        assert_eq!(s.step, rec.step as u64);
        // The sample's gauges are the report's numbers, bit-for-bit.
        assert_eq!(s.gauges["lb_measured"], rec.lb_after, "step {}", rec.step);
        assert_eq!(
            s.gauges["migration_fraction"], rec.migration_fraction,
            "step {}",
            rec.step
        );
        assert_eq!(s.gauges["lb_before"], rec.lb_before);
        // Pre-action per-rank loads: one entry per processor.
        assert_eq!(s.ranks.len(), NPROC);
    }

    // The exported stream parses back into exactly the same samples.
    let parsed = parse_telemetry(&ndjson).unwrap();
    assert_eq!(parsed, samples);

    // Determinism: nothing time-dependent leaks into the wire bytes.
    let (_, _, again) = telemetered_replay();
    assert_eq!(again, ndjson);
}

// ---------------------------------------------------------------------
// 3. Alert hysteresis re-arm under a mock clock
// ---------------------------------------------------------------------

#[test]
fn alert_fires_rearms_and_fires_again_under_mock_clock() {
    let clock = Arc::new(MockClock::new());
    let registry = Registry::with_clock(clock.clone());
    let sampler = Sampler::with_clock_and_capacity(clock.clone(), registry, 64);
    sampler.set_rules(vec![AlertRule::new("hot", "lb_measured", 0.5, 2, 0.2)]);
    sampler.set_interval_ns(10);

    // Script: two hot samples arm-then-fire, continued heat is silent,
    // a dip below rearm resets, then two hot samples fire again.
    let script = [0.9, 0.9, 0.9, 0.9, 0.1, 0.9, 0.9];
    let mut fired_at = Vec::new();
    for (i, &lb) in script.iter().enumerate() {
        clock.advance(10);
        assert!(sampler.record("sim", i as u64, &[("lb_measured", lb)], &[]));
        let last = sampler.samples().pop().unwrap();
        if !last.alerts.is_empty() {
            assert_eq!(last.alerts, vec!["hot".to_string()]);
            fired_at.push(i);
        }
    }
    // Fires at sample 1 (two consecutive hot) and again at sample 6
    // (two hot after the re-arm dip) — never in between.
    assert_eq!(fired_at, vec![1, 6]);
    assert_eq!(sampler.total_alerts(), 2);

    // Cadence is mock-clock driven: a call inside the interval is
    // suppressed and leaves no sample behind.
    assert!(!sampler.record("sim", 99, &[("lb_measured", 0.9)], &[]));
    assert_eq!(sampler.sample_count(), script.len());
}

// ---------------------------------------------------------------------
// 4. Non-finite gauges under a mock clock: skipped, never poisoning
// ---------------------------------------------------------------------

#[test]
fn non_finite_gauges_are_skipped_without_poisoning_alerts_or_summary() {
    let clock = Arc::new(MockClock::new());
    let registry = Registry::with_clock(clock.clone());
    let sampler = Sampler::with_clock_and_capacity(clock.clone(), registry, 64);
    sampler.set_rules(vec![AlertRule::new("hot", "lb_measured", 0.5, 2, 0.2)]);
    sampler.set_interval_ns(10);

    // One hot sample arms the rule, a NaN lands mid-streak, the next
    // finite hot sample completes min_duration: the NaN must neither
    // fire the alert, reset the streak, nor re-arm it.
    let script = [0.9, f64::NAN, 0.9, f64::INFINITY, 0.9, 0.1];
    let mut fired_at = Vec::new();
    for (i, &lb) in script.iter().enumerate() {
        clock.advance(10);
        assert!(sampler.record("sim", i as u64, &[("lb_measured", lb)], &[]));
        let last = sampler.samples().pop().unwrap();
        if !last.alerts.is_empty() {
            assert_eq!(last.alerts, vec!["hot".to_string()]);
            fired_at.push(i);
        }
    }
    // Fires exactly once, at the second *finite* hot sample; the
    // post-fire infinity keeps it silent rather than re-firing.
    assert_eq!(fired_at, vec![2]);
    assert_eq!(sampler.total_alerts(), 1);

    // The exported stream survives its own parser (non-finite gauges
    // serialize as null and are skipped on ingest), and the replayed
    // summary statistics come out finite.
    let ndjson = sampler.export_ndjson();
    let samples = parse_telemetry(&ndjson).unwrap();
    assert_eq!(samples.len(), script.len());
    let summary = sampler.render_summary();
    assert!(!summary.contains("NaN"), "{summary}");
    assert!(!summary.contains("inf"), "{summary}");
}
