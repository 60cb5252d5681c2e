//! The stdout of every deterministic `paper` experiment, pinned byte for
//! byte in `tests/golden/paper/NAME.txt`.
//!
//! A change meant to keep every partition (a refactor, a speed-up) leaves
//! these files alone. A change meant to move quality re-pins them in a
//! commit of its own, so its diff is the paper's tables, old → new.
//! `measured_scaling` prints wall-clock seconds and is not pinned.

use std::process::Command;

fn assert_paper_golden(name: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_paper"))
        .arg(name)
        .env_remove("CUBESFC_CSV")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "paper {name} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let path = format!(
        "{}/../../tests/golden/paper/{name}.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    let expected = std::fs::read(&path).unwrap_or_default();
    if expected != out.stdout {
        let dump = format!("{}/paper_{name}.txt", env!("CARGO_TARGET_TMPDIR"));
        std::fs::write(&dump, &out.stdout).unwrap();
        panic!("paper {name}: stdout differs from {path}; actual written to {dump}");
    }
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
