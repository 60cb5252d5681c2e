//! Shared harness code for the table/figure regeneration experiments.
//!
//! Each module of the `paper` binary (`src/bin/paper/`) regenerates one
//! table or figure of the paper, or one ablation or extension (see
//! `DESIGN.md`'s per-experiment index). Table 2, Figures 7–10, the §4
//! Hilbert-Peano case and the scaling extrapolation are views of one
//! (K, Nproc, method) grid: they run their cells on
//! [`cubesfc::ExperimentEngine`] and this library formats the
//! [`CellResult`]s, one row per processor count.

use cubesfc::engine::GRID_METHODS;
use cubesfc::report::PartitionReport;
use cubesfc::{
    cells_for, CellResult, CostModel, ExperimentCell, ExperimentEngine, MachineModel, Resolution,
};
use std::io::{self, BufWriter, Write};

/// The grid of face size `ne` under machine limit `max_procs`: every
/// method at [`Resolution::thinned_procs`]`(max_points)`.
pub fn grid_cells(ne: usize, max_procs: usize, max_points: usize) -> Vec<ExperimentCell> {
    cells_for(
        &Resolution::for_ne(ne, max_procs).expect("paper sizes are SFC sizes"),
        max_points,
    )
}

/// Every method at each `(ne, nproc)` point, in the same nproc-major
/// order as [`cells_for`].
pub fn cells_at(points: &[(usize, usize)]) -> Vec<ExperimentCell> {
    points
        .iter()
        .flat_map(|&(ne, nproc)| GRID_METHODS.map(|method| ExperimentCell { ne, nproc, method }))
        .collect()
}

/// Run `cells` on the experiment engine with the paper's models; results
/// come back in cell order, so every `GRID_METHODS.len()` of them form
/// one figure row.
pub fn run_cells(cells: &[ExperimentCell]) -> Vec<CellResult> {
    ExperimentEngine::new()
        .run(cells)
        .expect("paper cells are valid")
}

/// The figure rows of `results`: SFC, KWAY, TV and RB at one processor
/// count each.
fn rows(results: &[CellResult]) -> std::slice::Chunks<'_, CellResult> {
    results.chunks(GRID_METHODS.len())
}

/// The best (lowest modelled time) METIS-family report of one row, and
/// the SFC advantage over it in percent of execution rate (positive =
/// SFC faster).
pub fn sfc_vs_best_metis(row: &[CellResult]) -> (&PartitionReport, f64) {
    let best = row[1..]
        .iter()
        .map(|r| &r.report)
        .min_by(|a, b| a.time_us.total_cmp(&b.time_us))
        .expect("three METIS reports");
    (best, (best.time_us / row[0].report.time_us - 1.0) * 100.0)
}

/// A row's processor count and elements per processor (exact for
/// divisor counts).
fn nproc_and_share(row: &[CellResult]) -> (usize, f64) {
    let cell = row[0].cell;
    (
        cell.nproc,
        (6 * cell.ne * cell.ne) as f64 / cell.nproc as f64,
    )
}

/// Write a speedup figure (paper Figures 7–8): one line per processor
/// count, one column per method plus the ideal.
pub fn write_speedup_figure(
    w: &mut impl Write,
    title: &str,
    results: &[CellResult],
) -> io::Result<()> {
    writeln!(w, "{title}")?;
    writeln!(
        w,
        "{:>6} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10} {:>12}",
        "Nproc", "elem/p", "ideal", "SFC", "KWAY", "TV", "RB", "SFC vs best"
    )?;
    for row in rows(results) {
        let (nproc, share) = nproc_and_share(row);
        write!(w, "{nproc:>6} {share:>8.1} {:>10.1}", nproc as f64)?;
        for r in row {
            write!(w, " {:>10.1}", r.report.perf.speedup)?;
        }
        writeln!(w, " {:>+11.1}%", sfc_vs_best_metis(row).1)?;
    }
    writeln!(w)
}

/// [`write_speedup_figure`] to stdout through one locked, buffered writer
/// (one syscall-sized flush instead of a `print!` per cell).
pub fn print_speedup_figure(title: &str, results: &[CellResult]) {
    let mut w = BufWriter::new(io::stdout().lock());
    write_speedup_figure(&mut w, title, results).expect("write to stdout");
    w.flush().expect("flush stdout");
}

/// Write a sustained-Gflops figure (paper Figures 9–10).
pub fn write_gflops_figure(
    w: &mut impl Write,
    title: &str,
    results: &[CellResult],
) -> io::Result<()> {
    writeln!(w, "{title}")?;
    writeln!(
        w,
        "{:>6} {:>8} {:>10} {:>10} {:>10} {:>10} {:>12}",
        "Nproc", "elem/p", "SFC", "KWAY", "TV", "RB", "SFC vs best"
    )?;
    for row in rows(results) {
        let (nproc, share) = nproc_and_share(row);
        write!(w, "{nproc:>6} {share:>8.1}")?;
        for r in row {
            write!(w, " {:>10.2}", r.report.perf.sustained_gflops)?;
        }
        writeln!(w, " {:>+11.1}%", sfc_vs_best_metis(row).1)?;
    }
    writeln!(w)
}

/// [`write_gflops_figure`] to stdout through one locked, buffered writer.
pub fn print_gflops_figure(title: &str, results: &[CellResult]) {
    let mut w = BufWriter::new(io::stdout().lock());
    write_gflops_figure(&mut w, title, results).expect("write to stdout");
    w.flush().expect("flush stdout");
}

/// Render a sweep as CSV (for plotting): one row per processor count
/// with speedup and sustained Gflops per method.
pub fn sweep_to_csv(results: &[CellResult]) -> String {
    let mut out = String::from(
        "nproc,elems_per_proc,speedup_sfc,speedup_kway,speedup_tv,speedup_rb,\
         gflops_sfc,gflops_kway,gflops_tv,gflops_rb,sfc_advantage_pct\n",
    );
    for row in rows(results) {
        let (nproc, share) = nproc_and_share(row);
        out.push_str(&format!("{nproc},{share}"));
        for r in row {
            out.push_str(&format!(",{:.4}", r.report.perf.speedup));
        }
        for r in row {
            out.push_str(&format!(",{:.4}", r.report.perf.sustained_gflops));
        }
        out.push_str(&format!(",{:.2}\n", sfc_vs_best_metis(row).1));
    }
    out
}

/// Write the sweep to `path` as CSV.
pub fn write_csv(path: &str, results: &[CellResult]) -> io::Result<()> {
    std::fs::write(path, sweep_to_csv(results))
}

/// If `CUBESFC_CSV` is set, write the sweep to that path as CSV and note
/// it on stdout. Lets every figure experiment double as a plot-data exporter.
/// Write failures are reported on stderr, never panicked on — a bad path
/// must not lose the figure that was just computed.
pub fn maybe_write_csv(results: &[CellResult]) {
    if let Ok(path) = std::env::var("CUBESFC_CSV") {
        match write_csv(&path, results) {
            Ok(()) => println!("(CSV written to {path})"),
            Err(e) => eprintln!("(failed to write CSV to {path}: {e})"),
        }
    }
}

/// The standard machine and cost models of all experiments.
pub fn paper_models() -> (MachineModel, CostModel) {
    (MachineModel::ncar_p690(), CostModel::seam_climate())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubesfc::{set_jobs, PartitionMethod, NCAR_P690_MAX_PROCS};

    /// The figure rows of a face-size-2 grid at `procs`.
    fn small_grid(procs: &[usize]) -> Vec<CellResult> {
        run_cells(&cells_at(
            &procs.iter().map(|&p| (2, p)).collect::<Vec<_>>(),
        ))
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = sweep_to_csv(&small_grid(&[2, 4]));
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("nproc,"));
        assert_eq!(lines[1].split(',').count(), 11);
    }

    #[test]
    fn csv_columns_stay_in_sync_with_sweep_methods() {
        // nproc, elems_per_proc, one speedup and one gflops column per
        // method, and the advantage column. If GRID_METHODS grows, the
        // header and every data row must grow with it.
        let expected_cols = 2 + 2 * GRID_METHODS.len() + 1;
        let results = small_grid(&[2, 4, 8]);
        let csv = sweep_to_csv(&results);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + rows(&results).len());
        for line in &lines {
            assert_eq!(line.split(',').count(), expected_cols, "{line}");
        }
        // The header names one speedup and one gflops column per method.
        let header = lines[0];
        assert_eq!(
            header.matches("speedup_").count(),
            GRID_METHODS.len(),
            "{header}"
        );
        assert_eq!(
            header.matches("gflops_").count(),
            GRID_METHODS.len(),
            "{header}"
        );
    }

    #[test]
    fn write_csv_round_trips_through_a_file() {
        let results = small_grid(&[2, 4]);
        let dir = std::env::temp_dir().join(format!("cubesfc-bench-csv-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.csv");
        write_csv(path.to_str().unwrap(), &results).unwrap();
        let on_disk = std::fs::read_to_string(&path).unwrap();
        assert_eq!(on_disk, sweep_to_csv(&results));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Serialises the tests that mutate the (process-global) `CUBESFC_CSV`
    /// environment variable.
    static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn maybe_write_csv_honours_the_env_var() {
        let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let results = small_grid(&[2]);
        let dir = std::env::temp_dir().join(format!("cubesfc-bench-env-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("from-env.csv");
        std::env::set_var("CUBESFC_CSV", &path);
        maybe_write_csv(&results);
        std::env::remove_var("CUBESFC_CSV");
        let on_disk = std::fs::read_to_string(&path).unwrap();
        assert_eq!(on_disk, sweep_to_csv(&results));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn maybe_write_csv_survives_an_unwritable_path() {
        let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let results = small_grid(&[2]);
        // A directory that does not exist: fs::write fails, the error is
        // reported on stderr, and nothing panics.
        std::env::set_var("CUBESFC_CSV", "/nonexistent-cubesfc-dir/sweep.csv");
        maybe_write_csv(&results);
        std::env::remove_var("CUBESFC_CSV");
        // Unset, it is a no-op.
        maybe_write_csv(&results);
    }

    #[test]
    fn figure_writers_emit_one_line_per_row() {
        let results = small_grid(&[2, 4]);
        let mut speedup = Vec::new();
        write_speedup_figure(&mut speedup, "T", &results).unwrap();
        let text = String::from_utf8(speedup).unwrap();
        // Title + header + one line per row + trailing blank line.
        assert_eq!(text.lines().count(), 3 + rows(&results).len());
        assert!(text.ends_with("%\n\n"));
        assert!(text.contains("ideal"));
        let mut gflops = Vec::new();
        write_gflops_figure(&mut gflops, "T", &results).unwrap();
        let text = String::from_utf8(gflops).unwrap();
        assert_eq!(text.lines().count(), 3 + rows(&results).len());
        assert!(text.contains("SFC vs best"));
    }

    #[test]
    fn sweep_row_accessors() {
        let results = small_grid(&[4, 8]);
        assert_eq!(rows(&results).len(), 2);
        let row = rows(&results).next().unwrap();
        assert_eq!(nproc_and_share(row), (4, 6.0));
        assert_eq!(row[0].report.method, PartitionMethod::Sfc);
        let (best, advantage) = sfc_vs_best_metis(row);
        assert_ne!(best.method, PartitionMethod::Sfc);
        let fastest = row[1..].iter().map(|r| r.report.time_us);
        assert_eq!(best.time_us, fastest.fold(f64::INFINITY, f64::min));
        // Advantage is finite.
        assert!(advantage.is_finite());
    }

    #[test]
    fn fig7_bytes_are_equal_across_jobs() {
        let render = |jobs| {
            set_jobs(jobs);
            let results = run_cells(&grid_cells(8, NCAR_P690_MAX_PROCS, 32));
            let mut figure = Vec::new();
            write_speedup_figure(&mut figure, "Figure 7", &results).unwrap();
            (figure, sweep_to_csv(&results))
        };
        let serial = render(1);
        let pooled = render(2);
        set_jobs(0);
        assert!(serial == pooled, "fig7 output depends on the worker count");
    }
}
