//! `cubesfc-serve-bench-v1` carries wall-clock numbers, so its golden
//! fixture pins the *shape*: every key, in emission order, with each
//! number replaced by `N`. A tiny closed-loop run of the real
//! `serve_loadgen` binary produces the document.

use std::process::Command;

/// Replace every JSON number outside a string with `N`.
fn shape_of(doc: &str) -> String {
    let mut out = String::new();
    let mut in_string = false;
    let mut in_number = false;
    let mut escaped = false;
    for c in doc.chars() {
        if in_string {
            out.push(c);
            in_string = escaped || c != '"';
            escaped = !escaped && c == '\\';
        } else if c.is_ascii_digit() || (in_number && matches!(c, '.' | 'e' | 'E' | '+' | '-')) {
            if !in_number {
                out.push('N');
            }
            in_number = true;
        } else {
            in_number = false;
            in_string = c == '"';
            out.push(c);
        }
    }
    out
}

#[test]
fn serve_bench_v1_key_order_is_pinned() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let out = dir.join("serve_bench.json");
    let log = dir.join("serve_bench_access.ndjson");
    let run = Command::new(env!("CARGO_BIN_EXE_serve_loadgen"))
        .arg(&out)
        .args(["--clients", "2", "--requests", "3", "--ne", "2"])
        .arg("--access-log")
        .arg(&log)
        .output()
        .unwrap();
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let doc = std::fs::read_to_string(&out).unwrap();
    cubesfc_obs::json_parse(&doc).expect("bench document is valid JSON");

    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/serve_bench.shape"
    );
    let expected = std::fs::read_to_string(golden).unwrap_or_default();
    assert_eq!(
        shape_of(&doc) + "\n",
        expected,
        "shape differs from {golden}"
    );
}
