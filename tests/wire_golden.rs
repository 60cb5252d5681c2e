//! Golden fixtures for the wire schemas: the exact bytes of every
//! deterministic `cubesfc-*-v1` document, built in-process from fixed
//! inputs and compared against `tests/golden/*`.
//!
//! Every other "byte-identical" test in the repository compares one run
//! with another run of the same binary; these compare against bytes
//! committed to the tree, so an emitter change that moves a comma fails
//! here even when it moves the comma consistently. Each fixture also
//! round-trips through its schema's parser where one exists.
//!
//! On a mismatch the actual bytes are written under the test binary's
//! scratch directory (the failure message names the file) so a deliberate
//! change is reviewed as a diff and copied over the fixture by hand.

use std::sync::Arc;

use cubesfc::analysis::analyze_doc;
use cubesfc::balance::{
    run_rebalance, IncrementalSfc, LoadModel, RebalancePolicy, SimConfig, SimReport, TrajectoryKind,
};
use cubesfc::obs::{
    json_parse, parse_access, AccessRecord, Bucket, HistogramSnapshot, MockClock, Snapshot,
    SpanStat, Tracer,
};
use cubesfc::serve::{error_body, Backend, PartitionRequest, RebalanceStepRequest, SERVE_SCHEMA};
use cubesfc::{partition_curve, CostModel, EngineBackend, MachineModel, MeshCache};

/// Compare `actual` with the committed fixture `tests/golden/<name>`.
fn assert_golden(name: &str, actual: &str) {
    let path = format!("{}/../../tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    let expected = std::fs::read_to_string(&path).unwrap_or_default();
    if expected != actual {
        let dump = format!("{}/{name}", env!("CARGO_TARGET_TMPDIR"));
        std::fs::write(&dump, actual).unwrap();
        let at = expected
            .bytes()
            .zip(actual.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(expected.len().min(actual.len()));
        panic!("{name}: bytes differ from {path} at offset {at}; actual written to {dump}");
    }
}

// ---------------------------------------------------------------------
// cubesfc-profile-v1
// ---------------------------------------------------------------------

fn populated_snapshot() -> Snapshot {
    let mut snap = Snapshot::default();
    let stat = |count, total_ns, min_ns, max_ns| SpanStat {
        count,
        total_ns,
        min_ns,
        max_ns,
    };
    snap.timers
        .insert("partition/coarsen".into(), stat(2, 400, 100, 300));
    // A span that never closed: the registry's empty-stat sentinel.
    snap.timers
        .insert("quo\"ted\\path\n".into(), stat(0, 0, u64::MAX, 0));
    snap.counters.insert("dss/bytes".into(), 4096);
    snap.counters.insert("huge".into(), u64::MAX);
    snap.histograms.insert(
        "msg_size".into(),
        HistogramSnapshot {
            count: 3,
            sum: 3080,
            buckets: vec![
                Bucket {
                    lo: 8,
                    hi: 15,
                    count: 1,
                },
                Bucket {
                    lo: 1024,
                    hi: 2047,
                    count: 2,
                },
            ],
        },
    );
    snap.histograms
        .insert("empty".into(), HistogramSnapshot::default());
    snap
}

#[test]
fn profile_v1_bytes_are_pinned() {
    let snap = populated_snapshot();
    let json = snap.to_json();
    assert_golden("profile.json", &json);
    assert_eq!(
        Snapshot::from_json(&json_parse(&json).unwrap()).unwrap(),
        snap
    );
    assert_golden("profile_empty.json", &Snapshot::default().to_json());
}

// ---------------------------------------------------------------------
// cubesfc-trace-v1 and cubesfc-analysis-v1
// ---------------------------------------------------------------------

/// Two ranks over two steps on a mock clock, a hostile lane name, and
/// every event kind (begin/end pairs with args, instants, a dangling
/// begin).
fn recorded_trace() -> String {
    let clock = Arc::new(MockClock::new());
    let tracer = Tracer::with_clock(clock.clone());
    let steps = tracer.lane("steps");
    let r0 = tracer.lane("rank 0");
    let r1 = tracer.lane("rank 1");
    let hostile = tracer.lane("we\"ird\\lane\n\u{1}");

    steps.slice_at("step", 0, 4_000, &[("step", 0)]);
    r0.slice_at("compute", 0, 4_000, &[("elements", 8)]);
    r1.slice_at("compute", 0, 1_000, &[("elements", 6)]);
    r1.slice_at("pack", 1_000, 1_250, &[("bytes", 4096), ("messages", 3)]);
    r1.slice_at("wait", 1_250, 4_000, &[]);
    steps.slice_at("step", 4_000, 6_001, &[("step", 1)]);
    r0.slice_at("compute", 4_000, 5_000, &[("elements", 8)]);
    r0.slice_at("wait", 5_000, 6_001, &[]);
    r1.slice_at("compute", 4_000, 6_001, &[("elements", 6)]);
    r1.instant_at("recv", 4_500, &[("bytes", 64)]);

    // Live begin/end through the clock, with and without args.
    clock.set(7_000);
    hostile.begin_with("na\"me", &[("k\"ey", u64::MAX)]);
    clock.advance(1_500);
    hostile.instant("tick\ttock", &[]);
    hostile.end();
    hostile.begin("dangling");
    tracer.export_chrome()
}

#[test]
fn trace_v1_and_analysis_v1_bytes_are_pinned() {
    let trace = recorded_trace();
    assert_golden("trace.json", &trace);
    assert_golden("trace_empty.json", &Tracer::new().export_chrome());

    let doc = json_parse(&trace).unwrap();
    let analysis = analyze_doc(&doc).unwrap();
    assert_golden("analysis.json", &analysis.to_json());

    // No rank lanes at all: the `straggler: null` / empty-map branches.
    let empty = json_parse(&Tracer::new().export_chrome()).unwrap();
    let json = analyze_doc(&empty).unwrap().to_json();
    assert_golden("analysis_empty.json", &json);
}

// ---------------------------------------------------------------------
// Counter tracks on cubesfc-trace-v1, and cubesfc-access-v1
// ---------------------------------------------------------------------

/// Counter samples on a mock clock: hostile track and key names, every
/// `f64` edge the writer handles, a per-rank ensemble with a straggler.
fn counter_trace() -> String {
    let clock = Arc::new(MockClock::new());
    let tracer = Tracer::with_clock(clock.clone());
    let steps = tracer.lane("steps");
    steps.counter_at(
        "rebal\"ance\u{7}\n",
        0,
        &[
            ("lb_measured", 0.25),
            ("nan", f64::NAN),
            ("neg_inf", f64::NEG_INFINITY),
            ("tiny", 1.0e-7),
            ("whole", 3.0),
            ("ta\tb", -0.0),
            ("big", 1e21),
        ],
    );
    let mut ranks = vec![1.0; 8];
    ranks[5] = 3.0;
    let values = cubesfc::obs::counter_values(&[("lb_measured", 0.75)], &ranks);
    steps.counter_at("rebal\"ance\u{7}\n", 1_500, &values);
    clock.set(2_000);
    tracer
        .lane("main")
        .counter("solver", &[("lb_compute", 0.5)]);
    tracer.export_chrome()
}

#[test]
fn trace_counter_bytes_are_pinned() {
    let trace = counter_trace();
    assert_golden("trace_counters.json", &trace);
    let doc = json_parse(&trace).unwrap();
    let analysis = analyze_doc(&doc).unwrap();
    assert_golden("analysis_counters.json", &analysis.to_json());

    // Finite values come back exactly (`-0` as zero); non-finite ones
    // travel as `null` and come back as NaN.
    let track = &analysis.counters[0];
    assert_eq!(track.name, "rebal\"ance\u{7}\n");
    let first = &track.samples[0].gauges;
    assert_eq!(first["tiny"].to_bits(), 1.0e-7f64.to_bits());
    assert_eq!(first["big"], 1e21);
    assert_eq!(first["ta\tb"], 0.0);
    assert!(first["neg_inf"].is_nan());
    // The straggler rank fires the one alert, on the second sample.
    let alerts: Vec<(&str, u64)> = track.alerts().collect();
    assert_eq!(alerts, vec![("straggler", 1)]);
    assert_eq!(track.samples[1].gauges["lb_drift"], 0.5);
}

/// The terminal report `cubesfc trace analyze` prints: the lane table,
/// the per-rank segment block, gauge rows and the alert log.
#[test]
fn analysis_text_bytes_are_pinned() {
    let render = |trace: &str| analyze_doc(&json_parse(trace).unwrap()).unwrap().render();
    assert_golden("analysis.txt", &render(&recorded_trace()));
    assert_golden("analysis_counters.txt", &render(&counter_trace()));
    assert_golden(
        "analysis_empty.txt",
        &render(&Tracer::new().export_chrome()),
    );
}

#[test]
fn access_v1_bytes_are_pinned() {
    let records = vec![
        AccessRecord {
            seq: 0,
            id: "r000000".into(),
            endpoint: "partition".into(),
            status: 200,
            cache: "hit".into(),
            queue_us: 12,
            service_us: 340,
            bytes_in: 48,
            bytes_out: 96,
            outcome: "ok".into(),
        },
        AccessRecord {
            seq: u64::MAX,
            id: "weird \"id\"\nwith\\stuff\u{1f}".into(),
            endpoint: "-".into(),
            status: 429,
            cache: "-".into(),
            queue_us: 0,
            service_us: u64::MAX,
            bytes_in: 0,
            bytes_out: 81,
            outcome: "rejected".into(),
        },
    ];
    let mut text = String::new();
    for r in &records {
        text.push_str(&r.to_json_line());
        text.push('\n');
    }
    assert_golden("access.ndjson", &text);
    assert_eq!(parse_access(&text).unwrap(), records);
}

// ---------------------------------------------------------------------
// cubesfc-rebalance-v1
// ---------------------------------------------------------------------

/// The Ne=8 / 12-rank / 40-step AMR run of `tests/faults.rs`, with the
/// rank faults of `faults` overlaid.
fn rebalance_run(faults: &[TrajectoryKind]) -> SimReport {
    const NE: usize = 8;
    const NPROC: usize = 12;
    const STEPS: usize = 40;
    let cache = MeshCache::new();
    let bundle = cache.bundle(NE);
    let curve = bundle.mesh.curve_required().unwrap().clone();
    let mut kinds = vec![TrajectoryKind::named("amr", STEPS).unwrap()];
    kinds.extend_from_slice(faults);
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

fn assert_rebalance_golden(tag: &str, report: &SimReport) {
    let rebalance = report.to_json();
    assert_golden(&format!("rebalance_{tag}.json"), &rebalance);
    let doc = json_parse(&rebalance).unwrap();
    assert_eq!(
        doc.get("records").unwrap().as_arr().unwrap().len(),
        report.records.len()
    );
}

#[test]
fn rebalance_bytes_are_pinned_under_faults() {
    let report = rebalance_run(&[
        TrajectoryKind::RankDeath { rank: 5, step: 17 },
        TrajectoryKind::RankSlowdown {
            rank: 1,
            factor: 2.5,
            start: 3,
            end: 8,
        },
    ]);
    assert_eq!(report.final_partition.part_sizes()[5], 0);
    assert_rebalance_golden("faults", &report);
}

#[test]
fn rebalance_bytes_are_pinned_without_faults() {
    assert_rebalance_golden("nofaults", &rebalance_run(&[]));
}

// ---------------------------------------------------------------------
// cubesfc-serve-v1
// ---------------------------------------------------------------------

#[test]
fn serve_v1_bodies_are_pinned() {
    let backend = EngineBackend::new();
    let mut req = PartitionRequest {
        ne: 2,
        nproc: 5,
        method: "kway".to_string(),
        seed: 42,
        include_assignment: false,
    };
    let plain = backend.partition(&req).unwrap();
    req.include_assignment = true;
    let with_assignment = backend.partition(&req).unwrap();
    let mut weights = vec![1.0; 24];
    weights[3] = 4.5;
    weights[20] = 0.125;
    let step = backend
        .rebalance_step(&RebalanceStepRequest {
            ne: 2,
            nproc: 5,
            seed: 3,
            weights,
        })
        .unwrap();
    let error = error_body(400, "bad \"field\"\n\\ \u{2} é");

    let bodies = [plain, with_assignment, step, error];
    for body in &bodies {
        let doc = json_parse(body).unwrap();
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(SERVE_SCHEMA));
    }
    assert_golden("serve_bodies.ndjson", &(bodies.join("\n") + "\n"));
}
