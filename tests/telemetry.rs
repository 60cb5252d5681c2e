//! Integration tests for counter tracks on the trace and the alerts
//! `trace analyze` derives from them.
//!
//! Three layers:
//!
//! 1. A **property test** of the counter wire form: arbitrary values
//!    (hostile key names, wide-magnitude gauges) recorded as one `C`
//!    event survive export → parse → analysis bit-exactly.
//!
//! 2. A **pinned end-to-end replay**: a seeded rebalance run with the
//!    global tracer on must write one `rebalance` counter sample per
//!    step whose `lb_before` / `lb_measured` / `migration_fraction` agree
//!    bit-for-bit with the `SimReport` records, and the counter events
//!    must be byte-identical across runs (they sit on the modelled time
//!    axis, not the wall clock).
//!
//! 3. **Alert hysteresis** of the default `lb_high` rule (3 samples over
//!    0.5, re-arm below 0.25) on a scripted mock-clock trace: fire,
//!    silence while hot, re-arm only after a genuine dip, fire again;
//!    non-finite samples skipped without resetting or re-arming.

use std::collections::BTreeMap;
use std::sync::Arc;

use cubesfc::analysis::{analyze_trace, CounterTrack, TraceAnalysis};
use cubesfc::balance::{
    run_rebalance, IncrementalSfc, LoadModel, RebalancePolicy, Repartitioner, SimConfig, SimReport,
    TrajectoryKind,
};
use cubesfc::obs::{MockClock, Tracer};
use cubesfc::{partition, CostModel, MachineModel, MeshCache, PartitionMethod, PartitionOptions};
use proptest::prelude::*;

fn analyze(trace: &str) -> TraceAnalysis {
    analyze_trace(trace).expect("trace analyzes")
}

fn track<'a>(analysis: &'a TraceAnalysis, name: &str) -> &'a CounterTrack {
    let found = analysis.counters.iter().find(|t| t.name == name);
    found.unwrap_or_else(|| panic!("no counter track {name:?}"))
}

// ---------------------------------------------------------------------
// 1. Counter-event roundtrip
// ---------------------------------------------------------------------

/// Key pool with the characters most likely to break a hand-rolled
/// emitter: quotes, backslashes, control chars, non-ASCII, empty.
const NAMES: &[&str] = &[
    "lb_before",
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
    fn counter_values_roundtrip_bit_exact(
        name_idx in 0usize..8,
        gauges in proptest::collection::vec((0usize..8, 0.0f64..1.0, 0u32..61), 0..5),
        ranks in proptest::collection::vec((0.0f64..1.0, 0u32..61), 0..6),
    ) {
        let values: BTreeMap<&str, f64> = gauges
            .iter()
            .map(|&(i, u, e)| (NAMES[i], wide_f64(u, e)))
            .collect();
        let ranks: Vec<f64> = ranks.iter().map(|&(u, e)| wide_f64(u, e)).collect();
        let gauges: Vec<(&str, f64)> = values.iter().map(|(&k, &v)| (k, v)).collect();

        let tracer = Tracer::with_clock(Arc::new(MockClock::new()));
        let lane = tracer.lane("rank 0");
        lane.counter(NAMES[name_idx], &cubesfc::obs::counter_values(&gauges, &ranks));
        let analysis = analyze(&tracer.export_chrome());

        prop_assert_eq!(analysis.counters.len(), 1);
        let sample = &track(&analysis, NAMES[name_idx]).samples[0];
        for (k, v) in &values {
            prop_assert_eq!(sample.gauges[*k].to_bits(), v.to_bits(), "gauge {:?}", k);
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&sample.ranks), bits(&ranks));
    }
}

// ---------------------------------------------------------------------
// 2. Pinned end-to-end replay through the global tracer
// ---------------------------------------------------------------------

const NE: usize = 4;
const NPROC: usize = 8;
const STEPS: usize = 12;
const SEED: u64 = 42;

/// One seeded AMR rebalance with global tracing on; returns the report
/// and the exported trace.
fn traced_replay() -> (SimReport, String) {
    cubesfc::obs::tracer().reset();
    cubesfc::obs::set_trace_enabled(true);

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

    cubesfc::obs::set_trace_enabled(false);
    (report, cubesfc::obs::tracer().export_chrome())
}

/// The trace's counter events, one JSON text each, in document order.
fn counter_events(trace: &str) -> Vec<String> {
    let doc = cubesfc::obs::json_parse(trace).unwrap();
    let events = doc.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
    let counters = events.iter().filter(|e| e.opt_str("ph") == Some("C"));
    counters.map(|e| format!("{e:?}")).collect()
}

#[test]
fn rebalance_samples_agree_with_report_and_replay_byte_identically() {
    let (report, trace) = traced_replay();
    let analysis = analyze(&trace);
    let lane = &track(&analysis, "rebalance").samples;

    // One rebalance sample per simulated step, in step order.
    assert_eq!(lane.len(), STEPS);
    assert_eq!(report.records.len(), STEPS);
    for (rec, s) in report.records.iter().zip(lane) {
        assert_eq!(s.seq, rec.step as u64);
        // The sample's gauges are the report's numbers, bit-for-bit.
        let bits = |name: &str| s.gauges[name].to_bits();
        assert_eq!(
            bits("lb_measured"),
            rec.lb_after.to_bits(),
            "step {}",
            rec.step
        );
        assert_eq!(bits("lb_before"), rec.lb_before.to_bits());
        assert_eq!(
            bits("migration_fraction"),
            rec.migration_fraction.to_bits(),
            "step {}",
            rec.step
        );
        // Pre-action per-rank loads: one entry per processor.
        assert_eq!(s.ranks.len(), NPROC);
    }

    // Determinism: the counter events carry no wall-clock time.
    let (_, again) = traced_replay();
    assert_eq!(counter_events(&again), counter_events(&trace));
    assert_eq!(counter_events(&trace).len(), STEPS);
}

// ---------------------------------------------------------------------
// 3. Alert hysteresis on a scripted mock-clock trace
// ---------------------------------------------------------------------

/// Record `script` as `lb_measured` samples of counter track `sim`, one
/// per 10 ns of mock time, and analyse the exported trace.
fn scripted(script: &[f64]) -> TraceAnalysis {
    let clock = Arc::new(MockClock::new());
    let tracer = Tracer::with_clock(clock.clone());
    let lane = tracer.lane("steps");
    for &lb in script {
        clock.advance(10);
        lane.counter("sim", &[("lb_measured", lb)]);
    }
    analyze(&tracer.export_chrome())
}

fn fired(analysis: &TraceAnalysis) -> Vec<(String, u64)> {
    let alerts = track(analysis, "sim").alerts();
    alerts.map(|(rule, seq)| (rule.to_string(), seq)).collect()
}

#[test]
fn alert_fires_rearms_and_fires_again_under_mock_clock() {
    // Three hot samples fire; continued heat is silent; a value between
    // re-arm and threshold only breaks the streak; a dip below re-arm
    // re-arms; three more hot samples fire again.
    let script = [0.9, 0.9, 0.9, 0.9, 0.3, 0.9, 0.1, 0.9, 0.9, 0.9];
    let analysis = scripted(&script);
    let lb_high = |seq| ("lb_high".to_string(), seq);
    assert_eq!(fired(&analysis), vec![lb_high(2), lb_high(9)]);
    assert_eq!(analysis.alerts_fired(), 2);
    assert_eq!(track(&analysis, "sim").samples.len(), script.len());
}

#[test]
fn non_finite_gauges_are_skipped_without_poisoning_alerts_or_summary() {
    // NaN and ±inf land mid-streak: they neither fire, nor reset the
    // streak, nor (after the fire) re-arm the rule. Only the dip to 0.1
    // re-arms it.
    let script = [
        0.9,
        f64::NAN,
        0.9,
        f64::NEG_INFINITY,
        0.9,
        f64::NAN,
        0.9,
        f64::INFINITY,
        0.1,
        0.9,
        0.9,
        0.9,
    ];
    let analysis = scripted(&script);
    let lb_high = |seq| ("lb_high".to_string(), seq);
    assert_eq!(fired(&analysis), vec![lb_high(4), lb_high(11)]);

    // The report stays finite, and the statistics after a non-finite
    // sample still see every finite one (min 0.1, last 0.9).
    let text = analysis.render();
    assert!(!text.contains("NaN"), "{text}");
    assert!(!text.contains("inf"), "{text}");
    let row = text.lines().find(|l| l.starts_with("sim/lb_measured"));
    let cells: Vec<&str> = row.expect("lb_measured row").split_whitespace().collect();
    assert_eq!(
        &cells[1..5],
        ["0.9000", "0.1000", "0.8000", "0.9000"],
        "{text}"
    );
}
