//! Shared harness code for the table/figure regeneration experiments.
//!
//! Each module of the `paper` binary (`src/bin/paper/`) regenerates one
//! table or figure of the paper, or one ablation or extension (see
//! `DESIGN.md`'s per-experiment index); this library holds the sweep and
//! formatting machinery they share.

use cubesfc::report::PartitionReport;
use cubesfc::{CostModel, CubedSphere, MachineModel, PartitionMethod};
use rayon::prelude::*;
use std::io::{self, BufWriter, Write};

/// One figure point: every method evaluated at one processor count.
#[derive(Clone, Debug)]
pub struct SweepRow {
    /// Processor count.
    pub nproc: usize,
    /// Elements per processor (exact for divisor counts).
    pub elems_per_proc: f64,
    /// Reports in [`PartitionMethod::ALL`] order minus Morton:
    /// SFC, KWAY, TV, RB.
    pub reports: Vec<PartitionReport>,
}

impl SweepRow {
    /// The SFC report.
    pub fn sfc(&self) -> &PartitionReport {
        &self.reports[0]
    }

    /// The best (lowest modelled time) METIS-family report.
    pub fn best_metis(&self) -> &PartitionReport {
        self.reports[1..]
            .iter()
            .min_by(|a, b| a.time_us.total_cmp(&b.time_us))
            .expect("three METIS reports")
    }

    /// SFC advantage over the best METIS partition, in percent of
    /// execution rate (positive = SFC faster).
    pub fn sfc_advantage_pct(&self) -> f64 {
        (self.best_metis().time_us / self.sfc().time_us - 1.0) * 100.0
    }
}

/// The methods a figure sweep evaluates, in order.
pub const SWEEP_METHODS: [PartitionMethod; 4] = [
    PartitionMethod::Sfc,
    PartitionMethod::MetisKway,
    PartitionMethod::MetisTv,
    PartitionMethod::MetisRb,
];

/// Evaluate all methods at every processor count.
///
/// The (nproc × method) grid is embarrassingly parallel — each cell runs
/// an independent multilevel partition — so it fans out over Rayon.
pub fn sweep(
    mesh: &CubedSphere,
    procs: &[usize],
    machine: &MachineModel,
    cost: &CostModel,
) -> Vec<SweepRow> {
    procs
        .par_iter()
        .map(|&nproc| {
            let reports = SWEEP_METHODS
                .par_iter()
                .map(|&m| {
                    PartitionReport::compute(mesh, m, nproc, machine, cost)
                        .expect("sweep sizes are valid")
                })
                .collect();
            SweepRow {
                nproc,
                elems_per_proc: mesh.num_elems() as f64 / nproc as f64,
                reports,
            }
        })
        .collect()
}

/// Write a speedup figure (paper Figures 7–8): one line per processor
/// count, one column per method plus the ideal.
pub fn write_speedup_figure(w: &mut impl Write, title: &str, rows: &[SweepRow]) -> io::Result<()> {
    writeln!(w, "{title}")?;
    writeln!(
        w,
        "{:>6} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10} {:>12}",
        "Nproc", "elem/p", "ideal", "SFC", "KWAY", "TV", "RB", "SFC vs best"
    )?;
    for row in rows {
        write!(
            w,
            "{:>6} {:>8.1} {:>10.1}",
            row.nproc, row.elems_per_proc, row.nproc as f64
        )?;
        for r in &row.reports {
            write!(w, " {:>10.1}", r.perf.speedup)?;
        }
        writeln!(w, " {:>+11.1}%", row.sfc_advantage_pct())?;
    }
    writeln!(w)
}

/// [`write_speedup_figure`] to stdout through one locked, buffered writer
/// (one syscall-sized flush instead of a `print!` per cell).
pub fn print_speedup_figure(title: &str, rows: &[SweepRow]) {
    let mut w = BufWriter::new(io::stdout().lock());
    write_speedup_figure(&mut w, title, rows).expect("write to stdout");
    w.flush().expect("flush stdout");
}

/// Write a sustained-Gflops figure (paper Figures 9–10).
pub fn write_gflops_figure(w: &mut impl Write, title: &str, rows: &[SweepRow]) -> io::Result<()> {
    writeln!(w, "{title}")?;
    writeln!(
        w,
        "{:>6} {:>8} {:>10} {:>10} {:>10} {:>10} {:>12}",
        "Nproc", "elem/p", "SFC", "KWAY", "TV", "RB", "SFC vs best"
    )?;
    for row in rows {
        write!(w, "{:>6} {:>8.1}", row.nproc, row.elems_per_proc)?;
        for r in &row.reports {
            write!(w, " {:>10.2}", r.perf.sustained_gflops)?;
        }
        writeln!(w, " {:>+11.1}%", row.sfc_advantage_pct())?;
    }
    writeln!(w)
}

/// [`write_gflops_figure`] to stdout through one locked, buffered writer.
pub fn print_gflops_figure(title: &str, rows: &[SweepRow]) {
    let mut w = BufWriter::new(io::stdout().lock());
    write_gflops_figure(&mut w, title, rows).expect("write to stdout");
    w.flush().expect("flush stdout");
}

/// Render a sweep as CSV (for plotting): one row per processor count
/// with speedup and sustained Gflops per method.
pub fn sweep_to_csv(rows: &[SweepRow]) -> String {
    let mut out = String::from(
        "nproc,elems_per_proc,speedup_sfc,speedup_kway,speedup_tv,speedup_rb,\
         gflops_sfc,gflops_kway,gflops_tv,gflops_rb,sfc_advantage_pct\n",
    );
    for row in rows {
        out.push_str(&format!("{},{}", row.nproc, row.elems_per_proc));
        for r in &row.reports {
            out.push_str(&format!(",{:.4}", r.perf.speedup));
        }
        for r in &row.reports {
            out.push_str(&format!(",{:.4}", r.perf.sustained_gflops));
        }
        out.push_str(&format!(",{:.2}\n", row.sfc_advantage_pct()));
    }
    out
}

/// Write the sweep to `path` as CSV.
pub fn write_csv(path: &str, rows: &[SweepRow]) -> io::Result<()> {
    std::fs::write(path, sweep_to_csv(rows))
}

/// If `CUBESFC_CSV` is set, write the sweep to that path as CSV and note
/// it on stdout. Lets every figure experiment double as a plot-data exporter.
/// Write failures are reported on stderr, never panicked on — a bad path
/// must not lose the figure that was just computed.
pub fn maybe_write_csv(rows: &[SweepRow]) {
    if let Ok(path) = std::env::var("CUBESFC_CSV") {
        match write_csv(&path, rows) {
            Ok(()) => println!("(CSV written to {path})"),
            Err(e) => eprintln!("(failed to write CSV to {path}: {e})"),
        }
    }
}

/// Divisors of `k` up to `cap`, optionally thinned to at most `max_points`
/// (keeping the largest counts, where the paper's effect lives).
pub fn divisor_procs(k: usize, cap: usize, max_points: usize) -> Vec<usize> {
    let mut d: Vec<usize> = (1..=cap.min(k)).filter(|p| k.is_multiple_of(*p)).collect();
    if d.len() > max_points {
        let skip = d.len() - max_points;
        d.drain(1..1 + skip);
    }
    d
}

/// The standard machine and cost models of all experiments.
pub fn paper_models() -> (MachineModel, CostModel) {
    (MachineModel::ncar_p690(), CostModel::seam_climate())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn divisors_of_384() {
        let d = divisor_procs(384, 384, 100);
        assert_eq!(d.first(), Some(&1));
        assert_eq!(d.last(), Some(&384));
        assert!(d.contains(&96));
        assert!(d.iter().all(|p| 384 % p == 0));
    }

    #[test]
    fn divisors_capped_at_machine_size() {
        let d = divisor_procs(1536, 768, 100);
        assert_eq!(d.last(), Some(&768));
        assert!(!d.contains(&1536));
    }

    #[test]
    fn thinning_keeps_large_counts() {
        let d = divisor_procs(384, 384, 5);
        assert_eq!(d.len(), 5);
        assert_eq!(d[0], 1);
        assert_eq!(*d.last().unwrap(), 384);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mesh = CubedSphere::new(2);
        let (machine, cost) = paper_models();
        let rows = sweep(&mesh, &[2, 4], &machine, &cost);
        let csv = sweep_to_csv(&rows);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("nproc,"));
        assert_eq!(lines[1].split(',').count(), 11);
    }

    #[test]
    fn csv_columns_stay_in_sync_with_sweep_methods() {
        // nproc, elems_per_proc, one speedup and one gflops column per
        // method, and the advantage column. If SWEEP_METHODS grows, the
        // header and every data row must grow with it.
        let expected_cols = 2 + 2 * SWEEP_METHODS.len() + 1;
        let mesh = CubedSphere::new(2);
        let (machine, cost) = paper_models();
        let rows = sweep(&mesh, &[2, 4, 8], &machine, &cost);
        let csv = sweep_to_csv(&rows);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + rows.len());
        for line in &lines {
            assert_eq!(line.split(',').count(), expected_cols, "{line}");
        }
        // The header names one speedup and one gflops column per method.
        let header = lines[0];
        assert_eq!(
            header.matches("speedup_").count(),
            SWEEP_METHODS.len(),
            "{header}"
        );
        assert_eq!(
            header.matches("gflops_").count(),
            SWEEP_METHODS.len(),
            "{header}"
        );
    }

    #[test]
    fn write_csv_round_trips_through_a_file() {
        let mesh = CubedSphere::new(2);
        let (machine, cost) = paper_models();
        let rows = sweep(&mesh, &[2, 4], &machine, &cost);
        let dir = std::env::temp_dir().join(format!("cubesfc-bench-csv-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.csv");
        write_csv(path.to_str().unwrap(), &rows).unwrap();
        let on_disk = std::fs::read_to_string(&path).unwrap();
        assert_eq!(on_disk, sweep_to_csv(&rows));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Serialises the tests that mutate the (process-global) `CUBESFC_CSV`
    /// environment variable.
    static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn maybe_write_csv_honours_the_env_var() {
        let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let mesh = CubedSphere::new(2);
        let (machine, cost) = paper_models();
        let rows = sweep(&mesh, &[2], &machine, &cost);
        let dir = std::env::temp_dir().join(format!("cubesfc-bench-env-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("from-env.csv");
        std::env::set_var("CUBESFC_CSV", &path);
        maybe_write_csv(&rows);
        std::env::remove_var("CUBESFC_CSV");
        let on_disk = std::fs::read_to_string(&path).unwrap();
        assert_eq!(on_disk, sweep_to_csv(&rows));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn maybe_write_csv_survives_an_unwritable_path() {
        let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let mesh = CubedSphere::new(2);
        let (machine, cost) = paper_models();
        let rows = sweep(&mesh, &[2], &machine, &cost);
        // A directory that does not exist: fs::write fails, the error is
        // reported on stderr, and nothing panics.
        std::env::set_var("CUBESFC_CSV", "/nonexistent-cubesfc-dir/sweep.csv");
        maybe_write_csv(&rows);
        std::env::remove_var("CUBESFC_CSV");
        // Unset, it is a no-op.
        maybe_write_csv(&rows);
    }

    #[test]
    fn figure_writers_emit_one_line_per_row() {
        let mesh = CubedSphere::new(2);
        let (machine, cost) = paper_models();
        let rows = sweep(&mesh, &[2, 4], &machine, &cost);
        let mut speedup = Vec::new();
        write_speedup_figure(&mut speedup, "T", &rows).unwrap();
        let text = String::from_utf8(speedup).unwrap();
        // Title + header + one line per row + trailing blank line.
        assert_eq!(text.lines().count(), 3 + rows.len());
        assert!(text.ends_with("%\n\n"));
        assert!(text.contains("ideal"));
        let mut gflops = Vec::new();
        write_gflops_figure(&mut gflops, "T", &rows).unwrap();
        let text = String::from_utf8(gflops).unwrap();
        assert_eq!(text.lines().count(), 3 + rows.len());
        assert!(text.contains("SFC vs best"));
    }

    #[test]
    fn sweep_row_accessors() {
        let mesh = CubedSphere::new(2);
        let (machine, cost) = paper_models();
        let rows = sweep(&mesh, &[4, 8], &machine, &cost);
        assert_eq!(rows.len(), 2);
        let row = &rows[0];
        assert_eq!(row.sfc().method, PartitionMethod::Sfc);
        assert!(
            row.best_metis().time_us
                >= row.reports[1..]
                    .iter()
                    .map(|r| r.time_us)
                    .fold(f64::INFINITY, f64::min)
                    - 1e-12
        );
        // Advantage is finite.
        assert!(row.sfc_advantage_pct().is_finite());
    }
}
