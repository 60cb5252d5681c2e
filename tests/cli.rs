//! End-to-end tests of the `cubesfc` command-line tool.

use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cubesfc"))
}

#[test]
fn info_reports_mesh_facts() {
    let out = cli().args(["info", "--ne", "8"]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("K           : 384"));
    assert!(text.contains("SFC         : yes"));
    assert!(text.contains("continuous  : true"));
}

#[test]
fn partition_writes_one_line_per_element() {
    let out = cli()
        .args(["partition", "--ne", "4", "--nproc", "8", "--method", "sfc"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 96);
    // Format: "<elem> <part>", parts within range.
    for (i, line) in lines.iter().enumerate() {
        let mut it = line.split_whitespace();
        assert_eq!(it.next().unwrap().parse::<usize>().unwrap(), i);
        let part: usize = it.next().unwrap().parse().unwrap();
        assert!(part < 8);
    }
}

#[test]
fn report_prints_all_methods() {
    let out = cli()
        .args(["report", "--ne", "4", "--nproc", "12"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    for label in ["SFC", "KWAY", "TV", "RB", "MORTON", "RCB-GEO"] {
        assert!(text.contains(label), "missing {label}:\n{text}");
    }
}

#[test]
fn render_ascii_produces_a_net() {
    let out = cli()
        .args(["render", "--ne", "2", "--nproc", "6", "--ascii"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert_eq!(text.lines().count(), 6); // 3 bands × ne
    assert!(text.contains('.'));
}

#[test]
fn render_ppm_has_magic_number() {
    let out = cli()
        .args(["render", "--ne", "2", "--nproc", "4"])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(out.stdout.starts_with(b"P6\n"));
}

#[test]
fn version_flag_prints_version_and_exits_zero() {
    for argv in [vec!["--version"], vec!["-V"], vec!["report", "--version"]] {
        let out = cli().args(&argv).output().unwrap();
        assert!(out.status.success(), "{argv:?}");
        let text = String::from_utf8(out.stdout).unwrap();
        assert!(
            text.starts_with("cubesfc ") && text.trim().len() > "cubesfc ".len(),
            "{argv:?}: {text:?}"
        );
    }
}

#[test]
fn usage_errors_exit_2_and_runtime_errors_exit_1() {
    // Parse-level failures (unknown flag, missing command/--ne): exit 2.
    for argv in [
        vec!["info", "--ne", "4", "--frobnicate"],
        vec!["info"],
        vec![],
    ] {
        let out = cli().args(&argv).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{argv:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains("usage:"), "{argv:?}: {err}");
    }
    // Runtime failures (valid syntax, bad semantics): exit 1.
    for argv in [
        vec!["badcmd", "--ne", "4"],
        vec!["partition", "--ne", "7", "--nproc", "2", "--method", "sfc"],
    ] {
        let out = cli().args(&argv).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{argv:?}");
    }
}

#[test]
fn profile_flag_prints_span_tree_to_stderr() {
    let out = cli()
        .args(["report", "--ne", "4", "--nproc", "12", "--profile"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    // The hierarchical profile covers partitioning, SFC generation, and
    // evaluation phases.
    for needle in ["span", "partition", "slice", "kway", "evaluate", "counters"] {
        assert!(err.contains(needle), "missing {needle:?} in:\n{err}");
    }
    // Nested phases are indented under their parents.
    assert!(
        err.lines()
            .any(|l| l.starts_with("  curve") || l.starts_with("  kway")),
        "no indented child spans:\n{err}"
    );
    // Profiling must not leak into stdout (the report table stays clean).
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(!stdout.contains("of-parent"), "{stdout}");
}

#[test]
fn profile_env_writes_schema_stable_json() {
    let dir = std::env::temp_dir().join(format!("cubesfc-cli-prof-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("profile.json");
    let out = cli()
        .args(["partition", "--ne", "4", "--nproc", "8"])
        .env("CUBESFC_PROFILE", format!("json:{}", path.display()))
        .output()
        .unwrap();
    assert!(out.status.success());
    let json = std::fs::read_to_string(&path).unwrap();
    assert!(
        json.starts_with("{\"schema\":\"cubesfc-profile-v1\""),
        "{json}"
    );
    for key in [
        "\"timers\":",
        "\"counters\":",
        "\"histograms\":",
        "\"partition\"",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn profile_off_keeps_stderr_quiet() {
    let out = cli()
        .args(["partition", "--ne", "4", "--nproc", "8"])
        .env_remove("CUBESFC_PROFILE")
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(
        out.stderr.is_empty(),
        "{:?}",
        String::from_utf8_lossy(&out.stderr)
    );
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cubesfc-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn trace_flag_emits_chrome_trace_with_one_lane_per_rank() {
    use cubesfc::obs::JsonValue;
    let dir = tmpdir("trace");
    let path = dir.join("trace.json");
    let out = cli()
        .args(["partition", "--ne", "2", "--nproc", "4"])
        .args(["--trace", path.to_str().unwrap()])
        .env_remove("CUBESFC_TRACE")
        .output()
        .unwrap();
    assert!(out.status.success());

    let text = std::fs::read_to_string(&path).unwrap();
    let v = cubesfc::obs::json_parse(&text).expect("trace must be valid JSON");
    assert_eq!(
        v.get("otherData")
            .and_then(|o| o.get("schema"))
            .and_then(JsonValue::as_str),
        Some("cubesfc-trace-v1")
    );
    let events = v
        .get("traceEvents")
        .and_then(JsonValue::as_arr)
        .expect("traceEvents array");

    // One timeline lane (thread_name metadata) per virtual rank, plus the
    // shared DSS lane.
    let lanes: Vec<&str> = events
        .iter()
        .filter(|e| {
            e.get("ph").and_then(JsonValue::as_str) == Some("M")
                && e.get("name").and_then(JsonValue::as_str) == Some("thread_name")
        })
        .filter_map(|e| {
            e.get("args")
                .and_then(|a| a.get("name"))
                .and_then(JsonValue::as_str)
        })
        .collect();
    for want in ["rank 0", "rank 1", "rank 2", "rank 3", "dss"] {
        assert!(lanes.contains(&want), "missing lane {want:?} in {lanes:?}");
    }

    // Every non-metadata event carries pid, tid, and a timestamp; begins
    // and ends balance per lane and never go negative.
    let mut depth: std::collections::HashMap<u64, i64> = std::collections::HashMap::new();
    let mut slices = 0usize;
    let mut counters = Vec::new();
    for e in events {
        let ph = e.get("ph").and_then(JsonValue::as_str).unwrap();
        if ph == "M" {
            continue;
        }
        assert!(e.get("pid").and_then(JsonValue::as_u64).is_some(), "{e:?}");
        let tid = e.get("tid").and_then(JsonValue::as_u64).expect("tid");
        assert!(e.get("ts").and_then(JsonValue::as_f64).is_some(), "{e:?}");
        match ph {
            "B" => {
                *depth.entry(tid).or_insert(0) += 1;
                slices += 1;
            }
            "E" => {
                let d = depth.entry(tid).or_insert(0);
                *d -= 1;
                assert!(*d >= 0, "unbalanced E on tid {tid}");
            }
            "i" => {}
            "C" => counters.push(e.get("name").and_then(JsonValue::as_str).unwrap()),
            other => panic!("unexpected phase {other:?}"),
        }
    }
    assert!(
        depth.values().all(|&d| d == 0),
        "unclosed slices: {depth:?}"
    );
    assert!(slices > 0, "no slices recorded");
    // The mini-solve writes one `solver` counter sample.
    assert_eq!(counters, vec!["solver"]);

    // Per-rank compute slices are annotated with element counts.
    assert!(
        events.iter().any(|e| {
            e.get("ph").and_then(JsonValue::as_str) == Some("B")
                && e.get("name").and_then(JsonValue::as_str) == Some("compute")
                && e.get("args")
                    .and_then(|a| a.get("elements"))
                    .and_then(JsonValue::as_u64)
                    .is_some()
        }),
        "no compute slice with element count"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_env_var_works_on_other_subcommands() {
    let dir = tmpdir("trace-env");
    for (sub, extra) in [("info", vec![]), ("report", vec!["--nproc", "6"])] {
        let path = dir.join(format!("{sub}.json"));
        let out = cli()
            .args([sub, "--ne", "2"])
            .args(&extra)
            .env("CUBESFC_TRACE", path.to_str().unwrap())
            .output()
            .unwrap();
        assert!(out.status.success(), "{sub}");
        let text = std::fs::read_to_string(&path).unwrap();
        let v = cubesfc::obs::json_parse(&text).expect("valid trace JSON");
        assert!(
            v.get("traceEvents")
                .and_then(cubesfc::obs::JsonValue::as_arr)
                .is_some(),
            "{sub}: no traceEvents"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_profile_env_is_a_usage_error() {
    for bad in ["banana", "json:", "2", "yes"] {
        let out = cli()
            .args(["info", "--ne", "2"])
            .env("CUBESFC_PROFILE", bad)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "CUBESFC_PROFILE={bad}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains("CUBESFC_PROFILE"), "{bad}: {err}");
        assert!(err.contains("usage:"), "{bad}: {err}");
    }
}

#[test]
fn compare_is_an_unknown_command() {
    // `compare` is not a command: it fails exactly like any other
    // unknown one.
    for cmd in ["compare", "bogus"] {
        let out = cli().args([cmd, "--ne", "4"]).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{cmd}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert_eq!(err, format!("error: unknown command '{cmd}'\n"));
    }
}

#[test]
fn bad_invocations_fail_cleanly() {
    // Missing --ne.
    let out = cli().args(["info"]).output().unwrap();
    assert!(!out.status.success());
    // Unknown method.
    let out = cli()
        .args([
            "partition",
            "--ne",
            "4",
            "--nproc",
            "2",
            "--method",
            "Voronoi",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(
        err.starts_with("error: unknown method 'voronoi'\n"),
        "{err}"
    );
    // Method names are case-insensitive.
    let out = cli()
        .args(["partition", "--ne", "4", "--nproc", "2", "--method", "KWAY"])
        .output()
        .unwrap();
    assert!(out.status.success());
    // SFC on an unsupported size.
    let out = cli()
        .args(["partition", "--ne", "7", "--nproc", "2", "--method", "sfc"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("error"), "{err}");
}

#[test]
fn experiment_runs_one_resolution() {
    let out = cli()
        .args(["experiment", "--ne", "4", "--max-points", "3"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("Ne=4 K=96"), "{text}");
    // 3 ladder points × 4 methods.
    assert!(text.contains("12 cells over 1 resolution(s)"), "{text}");
    for label in ["SFC", "KWAY", "TV", "RB"] {
        assert!(text.contains(label), "missing {label}:\n{text}");
    }
}

#[test]
fn experiment_parallel_output_is_byte_identical_to_serial() {
    // --jobs via flag and CUBESFC_JOBS via env must both work, and the
    // pooled run must print exactly what the one-job run prints.
    let serial = cli()
        .args([
            "experiment",
            "--ne",
            "4",
            "--max-points",
            "4",
            "--jobs",
            "1",
        ])
        .output()
        .unwrap();
    assert!(serial.status.success());
    let pooled = cli()
        .args([
            "experiment",
            "--ne",
            "4",
            "--max-points",
            "4",
            "--jobs",
            "2",
        ])
        .output()
        .unwrap();
    assert!(pooled.status.success());
    let s = String::from_utf8(serial.stdout).unwrap();
    let p = String::from_utf8(pooled.stdout).unwrap();
    // The trailer names the jobs setting; everything above it must match.
    let body = |t: &str| t.lines().filter(|l| !l.contains("jobs=")).count();
    assert_eq!(body(&s), body(&p));
    assert_eq!(
        s.lines()
            .filter(|l| !l.contains("jobs="))
            .collect::<Vec<_>>(),
        p.lines()
            .filter(|l| !l.contains("jobs="))
            .collect::<Vec<_>>()
    );
    assert!(s.contains("jobs=1"), "{s}");
    assert!(p.contains("jobs=2"), "{p}");

    let env = cli()
        .args(["experiment", "--ne", "4", "--max-points", "4"])
        .env("CUBESFC_JOBS", "2")
        .output()
        .unwrap();
    assert!(env.status.success());
    let e = String::from_utf8(env.stdout).unwrap();
    assert!(e.contains("jobs=2"), "{e}");
}

#[test]
fn experiment_rejects_bad_flags() {
    // Unsupported resolution (prime factor > 3).
    let out = cli().args(["experiment", "--ne", "7"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    // Zero ladder points is a usage error.
    let out = cli()
        .args(["experiment", "--ne", "4", "--max-points", "0"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    // Non-numeric jobs is a usage error.
    let out = cli()
        .args(["experiment", "--jobs", "many"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn rebalance_smoke_runs_both_policies_and_writes_json() {
    use cubesfc::obs::JsonValue;
    let dir = tmpdir("rebalance");
    for policy in ["threshold", "periodic"] {
        let path = dir.join(format!("{policy}.json"));
        let out = cli()
            .args(["rebalance", "--ne", "4", "--nproc", "8", "--steps", "3"])
            .args(["--trajectory", "amr", "--policy", policy])
            .args(["--json", path.to_str().unwrap()])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{policy}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8(out.stdout).unwrap();
        assert!(text.contains("summary:"), "{policy}:\n{text}");
        assert!(text.contains("LB_pre"), "{policy}:\n{text}");

        let doc = cubesfc::obs::json_parse(&std::fs::read_to_string(&path).unwrap())
            .expect("rebalance report must be valid JSON");
        assert_eq!(
            doc.get("schema").and_then(JsonValue::as_str),
            Some("cubesfc-rebalance-v1")
        );
        assert_eq!(doc.get("policy").and_then(JsonValue::as_str), Some(policy));
        assert_eq!(doc.get("steps").and_then(JsonValue::as_u64), Some(3));
        let records = doc
            .get("records")
            .and_then(JsonValue::as_arr)
            .expect("records array");
        assert_eq!(records.len(), 3);
        for s in records {
            assert!(s.get("lb_before").and_then(JsonValue::as_f64).is_some());
            assert!(s.get("moved_elems").and_then(JsonValue::as_u64).is_some());
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rebalance_trace_has_one_lane_per_phase() {
    use cubesfc::obs::JsonValue;
    let dir = tmpdir("rebalance-trace");
    let path = dir.join("trace.json");
    let out = cli()
        .args(["rebalance", "--ne", "4", "--nproc", "8", "--steps", "3"])
        .args(["--policy", "periodic", "--every", "1"])
        .args(["--trace", path.to_str().unwrap()])
        .env_remove("CUBESFC_TRACE")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let v = cubesfc::obs::json_parse(&std::fs::read_to_string(&path).unwrap())
        .expect("trace must be valid JSON");
    assert_eq!(
        v.get("otherData")
            .and_then(|o| o.get("schema"))
            .and_then(JsonValue::as_str),
        Some("cubesfc-trace-v1")
    );
    let events = v
        .get("traceEvents")
        .and_then(JsonValue::as_arr)
        .expect("traceEvents array");

    // One Perfetto timeline row (thread_name metadata) per rebalance
    // phase, so the loop reads as stacked lanes.
    let lanes: Vec<&str> = events
        .iter()
        .filter(|e| {
            e.get("ph").and_then(JsonValue::as_str) == Some("M")
                && e.get("name").and_then(JsonValue::as_str) == Some("thread_name")
        })
        .filter_map(|e| {
            e.get("args")
                .and_then(|a| a.get("name"))
                .and_then(JsonValue::as_str)
        })
        .collect();
    for want in ["weights", "policy", "repartition", "plan", "apply"] {
        assert!(lanes.contains(&want), "missing lane {want:?} in {lanes:?}");
    }

    // Each phase lane actually carries slices: weights/policy run once
    // per step, the rebalance phases once per trigger (--every 1 fires
    // from the second step on).
    let mut begins: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
    for e in events {
        if e.get("ph").and_then(JsonValue::as_str) == Some("B") {
            if let Some(name) = e.get("name").and_then(JsonValue::as_str) {
                *begins.entry(name).or_insert(0) += 1;
            }
        }
    }
    for phase in ["weights", "policy"] {
        assert!(
            begins.get(phase).copied().unwrap_or(0) >= 3,
            "phase {phase:?} has too few slices: {begins:?}"
        );
    }
    for phase in ["repartition", "plan", "apply"] {
        assert!(
            begins.get(phase).copied().unwrap_or(0) >= 2,
            "phase {phase:?} has too few slices: {begins:?}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rebalance_counter_track_matches_json_report_and_is_deterministic() {
    use cubesfc::analysis::analyze_trace;
    use cubesfc::obs::JsonValue;
    let dir = tmpdir("counter-track");
    let json_path = dir.join("report.json");
    let run = |trace: &std::path::Path| {
        let out = cli()
            .args(["rebalance", "--ne", "4", "--nproc", "8", "--steps", "5"])
            .args([
                "--trajectory",
                "amr",
                "--policy",
                "periodic",
                "--every",
                "1",
            ])
            .args(["--seed", "42", "--json", json_path.to_str().unwrap()])
            .args(["--trace", trace.to_str().unwrap()])
            .env_remove("CUBESFC_TRACE")
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::fs::read_to_string(trace).unwrap()
    };
    // The counter events sit on the modelled time axis: byte-identical
    // at a fixed seed (the phase lanes carry wall-clock time).
    let counters = |trace: &str| -> Vec<String> {
        let doc = cubesfc::obs::json_parse(trace).unwrap();
        let events = doc.get("traceEvents").and_then(JsonValue::as_arr).unwrap();
        let c = events.iter().filter(|e| e.opt_str("ph") == Some("C"));
        c.map(|e| format!("{e:?}")).collect()
    };
    let a = run(&dir.join("a.json"));
    let b = run(&dir.join("b.json"));
    assert_eq!(counters(&a), counters(&b));
    assert_eq!(counters(&a).len(), 5);

    // Per-step gauges agree exactly with the JSON report records.
    let analysis = analyze_trace(&a).unwrap();
    let track = analysis.counters.iter().find(|t| t.name == "rebalance");
    let samples = &track.unwrap().samples;
    let doc = cubesfc::obs::json_parse(&std::fs::read_to_string(&json_path).unwrap()).unwrap();
    let records = doc.get("records").and_then(JsonValue::as_arr).unwrap();
    assert_eq!(records.len(), 5);
    for (rec, s) in records.iter().zip(samples) {
        assert_eq!(rec.get("step").and_then(JsonValue::as_u64), Some(s.seq));
        for key in ["lb_before", "lb_measured", "migration_fraction"] {
            let want = rec.get(key).and_then(JsonValue::as_f64).unwrap();
            assert_eq!(s.gauges[key].to_bits(), want.to_bits(), "{key}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_analyze_exit_codes_track_alerts() {
    let dir = tmpdir("trace-alerts");
    let run_traj = |traj: &str, trace: &std::path::Path| {
        let out = cli()
            .args(["rebalance", "--ne", "8", "--nproc", "16", "--steps", "50"])
            .args(["--trajectory", traj, "--policy", "threshold"])
            .args(["--trace", trace.to_str().unwrap()])
            .env_remove("CUBESFC_TRACE")
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{traj}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    };
    let fault = dir.join("fault.json");
    let uniform = dir.join("uniform.json");
    run_traj("fault", &fault);
    run_traj("uniform", &uniform);

    // The degraded rank trips the straggler rule: exit 1.
    let out = cli()
        .args(["trace", "analyze", fault.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("straggler"), "{text}");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("alert(s) fired"), "{err}");

    // --report-only: same rendering, advisory exit 0.
    let out = cli()
        .args(["trace", "analyze", fault.to_str().unwrap(), "--report-only"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));

    // The uniform control run is alert-free: exit 0.
    let out = cli()
        .args(["trace", "analyze", uniform.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("alerts: none fired"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn telemetry_report_is_a_usage_error() {
    // Alerts come from `trace analyze`: the telemetry command is gone,
    // so even a missing replay file is a usage error (exit 2), not a
    // runtime error.
    for argv in [
        &["telemetry"][..],
        &["telemetry", "report", "x.ndjson"],
        &["telemetry", "report", "/nonexistent/telemetry.ndjson"],
    ] {
        let out = cli().args(argv).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{argv:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains("usage:"), "{argv:?}: {err}");
    }
}

#[test]
fn telemetry_flags_are_usage_errors() {
    // Counter tracks ride on `--trace`: the telemetry flag is gone in
    // its bare and its `=PATH` form.
    for argv in [
        &["partition", "--ne", "2", "--nproc", "4", "--telemetry"][..],
        &["partition", "--ne", "2", "--nproc", "4", "--telemetry="],
        &["partition", "--ne", "2", "--nproc", "4", "--telemetry=x"],
    ] {
        let out = cli().args(argv).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{argv:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains("usage:"), "{argv:?}: {err}");
    }
}

#[test]
fn profile_json_reports_observability_drop_counters() {
    let dir = tmpdir("prof-drops");
    let path = dir.join("profile.json");
    let out = cli()
        .args(["partition", "--ne", "4", "--nproc", "8"])
        .env("CUBESFC_PROFILE", format!("json:{}", path.display()))
        .output()
        .unwrap();
    assert!(out.status.success());
    let json = std::fs::read_to_string(&path).unwrap();
    // The snapshot carries the observability layer's own health
    // counters, so shed ring-buffer data is visible after the fact.
    for key in ["\"obs/dropped_events\":", "\"obs/dropped_access\":"] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
    assert!(!json.contains("obs/dropped_samples"), "{json}");
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// Rank faults as trajectories, and degenerate-nproc usage errors
// ---------------------------------------------------------------------

#[test]
fn degenerate_nproc_is_a_usage_error_for_every_method() {
    // nproc == 0 and nproc > K can never be valid: exit 2 with the
    // usage text, for every command that takes --nproc.
    for cmd in ["partition", "report", "render", "rebalance"] {
        for nproc in ["0", "999"] {
            let out = cli()
                .args([cmd, "--ne", "2", "--nproc", nproc])
                .output()
                .unwrap();
            assert_eq!(out.status.code(), Some(2), "{cmd} --nproc {nproc}");
            let err = String::from_utf8(out.stderr).unwrap();
            assert!(err.contains("usage:"), "{cmd} --nproc {nproc}: {err}");
            assert!(err.contains("--nproc"), "{cmd} --nproc {nproc}: {err}");
        }
    }
}

#[test]
fn rebalance_death_trajectory_evacuates_the_dead_rank() {
    use cubesfc::obs::JsonValue;
    let dir = tmpdir("death");
    let json = dir.join("death.json");
    let run = || {
        let out = cli()
            .args(["rebalance", "--ne", "6", "--nproc", "8", "--steps", "30"])
            .args(["--trajectory", "amr+slow:1@5..9x2+death:3@12"])
            .args(["--json", json.to_str().unwrap()])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8(out.stdout).unwrap();
        assert!(text.contains("trajectory=amr+fault+death"), "{text}");
        std::fs::read_to_string(&json).unwrap()
    };
    // Closed-form trajectories: the report is byte-identical across runs.
    let first = run();
    assert_eq!(first, run());

    // The death step re-splits onto the survivors whatever the policy.
    let doc = cubesfc::obs::json_parse(&first).unwrap();
    let step12 = &doc.get("records").and_then(JsonValue::as_arr).unwrap()[12];
    assert_eq!(
        step12.get("triggered").and_then(JsonValue::as_bool),
        Some(true)
    );
    assert!(step12.get("moved_elems").and_then(JsonValue::as_u64) > Some(0));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fault_injection_flags_and_chaos_are_gone() {
    // Rank faults are `--trajectory` terms; the transport emulation, its
    // flags and the chaos replay command are gone.
    let out = cli().args(["chaos", "--ne", "4"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8(out.stderr).unwrap();
    assert_eq!(err, "error: unknown command 'chaos'\n");
    for flag in [
        &["--faults", "death:3@12"][..],
        &["--chaos-json", "c.json"],
        &["--checkpoint"],
        &["--checkpoint=ck.json"],
        &["--checkpoint-every", "2"],
        &["--resume", "ck.json"],
    ] {
        let out = cli()
            .args(["rebalance", "--ne", "4", "--nproc", "8"])
            .args(flag)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{flag:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains("unknown flag"), "{flag:?}: {err}");
    }
    let out = cli()
        .args(["rebalance", "--ne", "4", "--nproc", "8"])
        .args(["--trajectory", "amr+stall:1@5x0.2"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown fault kind \"stall\""), "{err}");
}

#[test]
fn top_is_an_unknown_command() {
    // The dashboard is gone, and with it `--interval-ms` and `--once`.
    let out = cli().args(["top", "--ne", "4"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8(out.stderr).unwrap();
    assert_eq!(err, "error: unknown command 'top'\n");
    for argv in [
        &["top", "http://127.0.0.1:8437"][..],
        &["serve", "--interval-ms", "200"],
        &["serve", "--once"],
    ] {
        let out = cli().args(argv).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{argv:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains("usage:"), "{argv:?}: {err}");
    }
}

/// The subcommands `usage()` prints: the word after each `cubesfc`, with
/// `<a|b|c>` alternatives split and flags (`--version`) left out.
fn usage_subcommands() -> std::collections::BTreeSet<String> {
    let out = cli().output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let usage = String::from_utf8(out.stderr).unwrap();
    let words: Vec<&str> = usage.split_whitespace().collect();
    words
        .windows(2)
        .filter(|w| w[0] == "cubesfc" && !w[1].starts_with('-'))
        .flat_map(|w| w[1].trim_matches(|c| c == '<' || c == '>').split('|'))
        .map(str::to_string)
        .collect()
}

/// The first word of each `CLI` row of DESIGN.md's readers table.
fn readers_table_subcommands() -> std::collections::BTreeSet<String> {
    let design =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md")).unwrap();
    let section = design
        .split("\n## 8. Surfaces and their readers")
        .nth(1)
        .expect("DESIGN.md has the readers table");
    section
        .lines()
        .filter_map(|line| line.strip_prefix("| CLI | `"))
        .map(|rest| {
            let name = rest.split('`').next().unwrap();
            name.split_whitespace().next().unwrap().to_string()
        })
        .collect()
}

/// The words of the usage text that start with `prefix` (`--` for the
/// flags, `CUBESFC_` for the environment variables).
fn usage_words(prefix: &str) -> std::collections::BTreeSet<String> {
    let out = cli().output().unwrap();
    let usage = String::from_utf8(out.stderr).unwrap();
    let word = |c: char| c.is_ascii_alphanumeric() || c == '-' || c == '_';
    usage
        .split(|c: char| !word(c))
        .filter(|w| w.len() > prefix.len() && w.starts_with(prefix))
        .map(str::to_string)
        .collect()
}

/// The flags `parse_args` matches: the string literals in its body that
/// are a bare `--name` (its error messages have spaces).
fn parser_flags() -> std::collections::BTreeSet<String> {
    let src = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/src/bin/cubesfc.rs"))
        .unwrap();
    let body = src.split("fn parse_args()").nth(1).unwrap();
    let body = body.split("\n}\n").next().unwrap();
    let flag = |w: &&str| {
        w.strip_prefix("--").is_some_and(|name| {
            !name.is_empty() && name.bytes().all(|b| b.is_ascii_lowercase() || b == b'-')
        })
    };
    body.split('"').filter(flag).map(str::to_string).collect()
}

/// Every `CUBESFC_*` variable read with `env::var` under `crates/`.
fn env_reads() -> std::collections::BTreeSet<String> {
    let mut found = std::collections::BTreeSet::new();
    let mut dirs = vec![std::path::PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/.."
    ))];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let text = std::fs::read_to_string(&path).unwrap();
                for rest in text.split("env::var(\"CUBESFC_").skip(1) {
                    let name = rest.split('"').next().unwrap();
                    found.insert(format!("CUBESFC_{name}"));
                }
            }
        }
    }
    found
}

/// The surfaces of DESIGN.md §8's rows of `kind` (`flag`, `env`).
fn readers_table_rows(kind: &str) -> std::collections::BTreeSet<String> {
    let design =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md")).unwrap();
    let section = design
        .split("\n## 8. Surfaces and their readers")
        .nth(1)
        .expect("DESIGN.md has the readers table");
    let row = format!("| {kind} | `");
    section
        .lines()
        .filter_map(|line| line.strip_prefix(row.as_str()))
        .map(|rest| rest.split('`').next().unwrap().to_string())
        .collect()
}

#[test]
fn usage_flags_are_the_readers_table_rows() {
    // Every flag the parser matches is in the usage text and names its
    // reader in DESIGN.md §8, and so does every `CUBESFC_*` variable the
    // code reads: a new one cannot land without a row, and a deleted one
    // takes its row along.
    let parser = parser_flags();
    assert!(
        parser.contains("--ne") && parser.contains("--access-log"),
        "{parser:?}"
    );
    let mut usage = usage_words("--");
    // `--version` is answered before the parser runs.
    assert!(usage.remove("--version"), "{usage:?}");
    assert_eq!(usage, parser);
    assert_eq!(readers_table_rows("flag"), parser);

    let env = env_reads();
    assert!(env.contains("CUBESFC_JOBS"), "{env:?}");
    assert!(usage_words("CUBESFC_").is_subset(&env));
    assert_eq!(readers_table_rows("env"), env);
}

#[test]
fn usage_subcommands_are_the_readers_table_rows() {
    // Every subcommand names its reader in DESIGN.md §8, so a new one
    // cannot land without a row, and a deleted one takes its row along.
    let usage = usage_subcommands();
    assert!(
        usage.contains("partition") && usage.contains("serve"),
        "{usage:?}"
    );
    assert_eq!(usage, readers_table_subcommands());
}
