//! End-to-end tests of `cubesfc trace analyze`: replaying a recorded
//! `cubesfc-trace-v1` timeline into the wait-state / critical-path
//! analysis, the counter-track alerts, and the malformed-input
//! contract.

use cubesfc::obs::JsonValue;
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cubesfc"))
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cubesfc-ta-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Record a seed-42 rebalance trace for `trajectory` into `out`. The
/// periodic policy with a period longer than the run never fires, so
/// the fault is left uncorrected and stays visible in the timeline.
fn record_trace(trajectory: &str, out: &std::path::Path) {
    let run = cli()
        .args(["rebalance", "--ne", "8", "--nproc", "16", "--steps", "10"])
        .args(["--trajectory", trajectory, "--policy", "periodic"])
        .args(["--every", "1000", "--seed", "42"])
        .args(["--trace", out.to_str().unwrap()])
        .env_remove("CUBESFC_TRACE")
        .output()
        .unwrap();
    assert!(
        run.status.success(),
        "{trajectory}: {}",
        String::from_utf8_lossy(&run.stderr)
    );
}

#[test]
fn analysis_json_is_byte_identical_across_runs() {
    let dir = tmpdir("identical");
    let trace = dir.join("trace.json");
    record_trace("fault", &trace);

    let a = dir.join("a.json");
    let b = dir.join("b.json");
    for out in [&a, &b] {
        let run = cli()
            .args(["trace", "analyze", trace.to_str().unwrap()])
            .args(["--json", out.to_str().unwrap()])
            .output()
            .unwrap();
        // The uncorrected fault fires the straggler alert: exit 1, with
        // the analysis written all the same.
        assert_eq!(
            run.status.code(),
            Some(1),
            "{}",
            String::from_utf8_lossy(&run.stderr)
        );
        let text = String::from_utf8(run.stdout).unwrap();
        assert!(
            text.contains("straggler            lane=rebalance"),
            "{text}"
        );
        assert!(text.contains("wait-state decomposition"), "{text}");
        assert!(text.contains("critical path:"), "{text}");
        assert!(text.contains("imbalance attribution"), "{text}");
    }
    // The analyzer is a pure function of the trace bytes: no clocks, no
    // iteration-order dependence, stable float formatting.
    assert_eq!(std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());

    let doc = cubesfc::obs::json_parse(&std::fs::read_to_string(&a).unwrap()).unwrap();
    assert_eq!(
        doc.get("schema").and_then(JsonValue::as_str),
        Some("cubesfc-analysis-v1")
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn decomposition_sums_exactly_to_traced_lane_time() {
    let dir = tmpdir("sums");
    let trace = dir.join("trace.json");
    record_trace("fault", &trace);
    let out = dir.join("analysis.json");
    let run = cli()
        .args(["trace", "analyze", trace.to_str().unwrap()])
        .args(["--json", out.to_str().unwrap()])
        .output()
        .unwrap();
    // The uncorrected fault fires the straggler alert (exit 1).
    assert_eq!(run.status.code(), Some(1));
    let text = String::from_utf8(run.stdout).unwrap();
    assert!(
        text.contains("straggler            lane=rebalance"),
        "{text}"
    );

    let doc = cubesfc::obs::json_parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
    let lanes = doc.get("lanes").and_then(JsonValue::as_arr).unwrap();
    // Integer-nanosecond bookkeeping: per lane, the phase buckets sum
    // *exactly* to the total traced slice time — no float drift.
    let mut rank_lanes = 0;
    for lane in lanes {
        let total = lane
            .get("total_slice_ns")
            .and_then(JsonValue::as_u64)
            .unwrap();
        let phases = lane.get("phases").and_then(JsonValue::as_obj).unwrap();
        let sum: u64 = phases.values().map(|v| v.as_u64().unwrap()).sum();
        let name = lane.get("name").and_then(JsonValue::as_str).unwrap();
        assert_eq!(sum, total, "lane {name:?}: phase sum != total");
        if name.starts_with("rank ") {
            rank_lanes += 1;
        }
    }
    assert_eq!(rank_lanes, 16);

    // The rank summary's decomposition covers the same 16 lanes: the
    // modelled timeline has exactly compute + pack + wait.
    let ranks = doc.get("ranks").unwrap();
    assert_eq!(ranks.get("count").and_then(JsonValue::as_u64), Some(16));
    let decomp = ranks
        .get("decomposition")
        .and_then(JsonValue::as_obj)
        .unwrap();
    for phase in ["compute", "pack", "wait"] {
        assert!(decomp.contains_key(phase), "missing {phase}: {decomp:?}");
    }
    // The uncorrected rank-slowdown fault makes rank 0 the straggler on
    // every step segment.
    let straggler = ranks.get("straggler").unwrap();
    assert_eq!(straggler.get("rank").and_then(JsonValue::as_u64), Some(0));
    assert_eq!(
        straggler
            .get("bottleneck_segments")
            .and_then(JsonValue::as_u64),
        Some(10)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_replay_input_exits_2_with_line_and_column() {
    let dir = tmpdir("hostile");
    let bad = dir.join("bad.json");
    // Broken mid-token: a parser that trusted the input would panic.
    std::fs::write(&bad, "{\"traceEvents\": [tru").unwrap();
    let bad_s = bad.to_str().unwrap();

    let argvs: Vec<Vec<&str>> = vec![vec!["trace", "analyze", bad_s]];
    for argv in argvs {
        let out = cli().args(&argv).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{argv:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(
            err.contains("line") && err.contains("column"),
            "{argv:?}: no parse position in {err:?}"
        );
    }

    // More hostility: binary garbage, truncated nesting, bare text.
    for garbage in ["\u{0}\u{1}\u{2}", "[[[[[[", "not json at all", "{\"a\":1,}"] {
        std::fs::write(&bad, garbage).unwrap();
        let out = cli().args(["trace", "analyze", bad_s]).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{garbage:?}");
    }

    // Valid JSON with the wrong schema is a *runtime* error (exit 1),
    // and a missing file likewise — neither is a parse failure.
    std::fs::write(&bad, "{\"schema\":\"something-else\"}").unwrap();
    let out = cli().args(["trace", "analyze", bad_s]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("cubesfc-trace-v1"), "{err}");
    let out = cli()
        .args(["trace", "analyze", "/nonexistent/trace.json"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));

    // Wrong subcommand arity is a usage error (exit 2 + usage text).
    for argv in [
        vec!["trace"],
        vec!["trace", "analyze"],
        vec!["trace", "x", "y"],
    ] {
        let out = cli().args(&argv).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{argv:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains("usage:"), "{argv:?}: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
