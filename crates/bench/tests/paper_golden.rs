//! The stdout of every deterministic `paper` experiment, pinned byte for
//! byte in `tests/golden/paper/NAME.txt`.
//!
//! A change meant to keep every partition (a refactor, a speed-up) leaves
//! these files alone. A change meant to move quality re-pins them in a
//! commit of its own, so its diff is the paper's tables, old → new.
//! `measured_scaling` prints wall-clock seconds and is not pinned.
//! Figure 7's `CUBESFC_CSV` export is pinned in `fig7.csv` the same way,
//! and EXPERIMENTS.md's Table 2 block must quote `table2.txt` verbatim.

use std::process::Command;

/// Run `paper NAME`, with `CUBESFC_CSV` set to `csv` or removed, and
/// return its stdout.
fn run_paper(name: &str, csv: Option<&str>) -> Vec<u8> {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_paper"));
    match csv {
        Some(path) => cmd.env("CUBESFC_CSV", path),
        None => cmd.env_remove("CUBESFC_CSV"),
    };
    let out = cmd.arg(name).output().unwrap();
    assert!(
        out.status.success(),
        "paper {name} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

/// Compare `actual` with `tests/golden/paper/FILE`; on a mismatch the
/// actual bytes are written to `target/tmp/paper_FILE`.
fn assert_golden(file: &str, actual: &[u8]) {
    let path = format!(
        "{}/../../tests/golden/paper/{file}",
        env!("CARGO_MANIFEST_DIR")
    );
    let expected = std::fs::read(&path).unwrap_or_default();
    if expected != actual {
        let dump = format!("{}/paper_{file}", env!("CARGO_TARGET_TMPDIR"));
        std::fs::write(&dump, actual).unwrap();
        panic!("{file} differs from {path}; actual written to {dump}");
    }
}

fn assert_paper_golden(name: &str) {
    assert_golden(&format!("{name}.txt"), &run_paper(name, None));
}

/// EXPERIMENTS.md's Table 2 block quotes the golden's table (its lines
/// 2–6) verbatim, so the prose cannot drift from the pinned numbers.
#[test]
fn experiments_md_quotes_the_table2_golden() {
    let root = format!("{}/../..", env!("CARGO_MANIFEST_DIR"));
    let doc = std::fs::read_to_string(format!("{root}/EXPERIMENTS.md")).unwrap();
    let golden = std::fs::read_to_string(format!("{root}/tests/golden/paper/table2.txt")).unwrap();
    let section = doc.split("\n## Table 2").nth(1).expect("a Table 2 section");
    let quoted: Vec<&str> = section
        .split("```")
        .nth(1)
        .expect("a fenced block under Table 2")
        .lines()
        .filter(|line| !line.is_empty())
        .collect();
    let pinned: Vec<&str> = golden.lines().skip(1).take(5).collect();
    assert_eq!(
        quoted, pinned,
        "EXPERIMENTS.md's Table 2 block vs the golden"
    );
}

/// The `CUBESFC_CSV` plot-data export of Figure 7, byte for byte.
#[test]
fn fig7_csv() {
    let csv = format!("{}/paper_fig7_export.csv", env!("CARGO_TARGET_TMPDIR"));
    run_paper("fig7", Some(&csv));
    assert_golden("fig7.csv", &std::fs::read(&csv).unwrap());
}

macro_rules! pinned {
    ($($name:ident),* $(,)?) => {
        $(
            #[test]
            fn $name() {
                assert_paper_golden(stringify!($name));
            }
        )*
    };
}

pinned!(
    table1,
    table2,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    hilbert_peano,
    ablation_order,
    ablation_tolerance,
    ablation_mapping,
    scaling_extrapolation,
    tv_anomaly,
    node_mapping,
    repartition,
);
