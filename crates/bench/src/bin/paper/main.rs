//! `paper` — regenerate one of the paper's tables or figures, or one of
//! the ablations and extensions around them (see `DESIGN.md`'s
//! per-experiment index).
//!
//! ```text
//! cargo run -p cubesfc-bench --release --bin paper -- NAME
//! ```
//!
//! `NAME` is one of the names in `EXPERIMENTS` below; with no name or an
//! unknown one the list is printed and the exit code is 2. Every experiment except
//! `measured_scaling` (wall clock) prints the same bytes on every run.
//!
//! `table2`, `fig7`–`fig10`, `hilbert_peano` and `scaling_extrapolation`
//! are views of one (K, Nproc, method) grid: each builds its cells
//! (`cubesfc::cells_for` over a `Resolution`, or explicit points) and runs
//! them on `cubesfc::ExperimentEngine`, the evaluator `cubesfc experiment`
//! uses too. Figures 7–10 honour `CUBESFC_CSV` (see
//! `cubesfc_bench::maybe_write_csv`).

use std::process::ExitCode;

mod ablation_mapping;
mod ablation_order;
mod ablation_tolerance;
mod fig10;
mod fig6;
mod fig7;
mod fig8;
mod fig9;
mod hilbert_peano;
mod measured_scaling;
mod node_mapping;
mod repartition;
mod scaling_extrapolation;
mod table1;
mod table2;
mod tv_anomaly;

/// Every experiment by name, in the order the list is printed.
const EXPERIMENTS: [(&str, fn()); 16] = [
    ("table1", table1::run),
    ("table2", table2::run),
    ("fig6", fig6::run),
    ("fig7", fig7::run),
    ("fig8", fig8::run),
    ("fig9", fig9::run),
    ("fig10", fig10::run),
    ("hilbert_peano", hilbert_peano::run),
    ("ablation_order", ablation_order::run),
    ("ablation_tolerance", ablation_tolerance::run),
    ("ablation_mapping", ablation_mapping::run),
    ("scaling_extrapolation", scaling_extrapolation::run),
    ("tv_anomaly", tv_anomaly::run),
    ("node_mapping", node_mapping::run),
    ("repartition", repartition::run),
    ("measured_scaling", measured_scaling::run),
];

fn main() -> ExitCode {
    let name = std::env::args().nth(1);
    let found = EXPERIMENTS
        .iter()
        .find(|(n, _)| Some(*n) == name.as_deref());
    if let Some((_, run)) = found {
        run();
        return ExitCode::SUCCESS;
    }
    if let Some(name) = name {
        eprintln!("error: unknown experiment '{name}'");
    }
    eprintln!("usage: paper NAME, where NAME is one of:");
    for (n, _) in EXPERIMENTS {
        eprintln!("  {n}");
    }
    ExitCode::from(2)
}
