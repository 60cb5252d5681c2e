//! `aa`: sets of runs of the same build, taken alternately. Two sets must
//! agree within every metric's bound, and every metric that repeats
//! exactly must not differ at all; otherwise the benchmark, not a change,
//! is what moves.

use crate::report::END_TO_END;
use crate::{collect, exit_code, Args, Collected, ROUNDS};
use std::collections::{BTreeMap, BTreeSet};
use std::process::ExitCode;

/// One `workload/metric` of the table.
#[derive(Debug, PartialEq)]
pub struct Row {
    pub name: String,
    pub unit: &'static str,
    /// Median of each set.
    pub medians: Vec<f64>,
    /// Largest distance of a later set's median from the first set's, as
    /// a share of the first.
    pub gap: f64,
    pub bound: f64,
    pub ok: bool,
}

/// Compare the sets. `values[set][run]` maps `workload/metric` to the
/// run's value; `exact_counts[set][run]` likewise for the exact counts,
/// which have no bound and must all be equal.
pub fn compare(
    values: &[Vec<BTreeMap<String, f64>>],
    exact_counts: &[Vec<BTreeMap<String, f64>>],
) -> Vec<Row> {
    let names = |sets: &[Vec<BTreeMap<String, f64>>]| -> BTreeSet<String> {
        sets.iter()
            .flatten()
            .flat_map(|run| run.keys().cloned())
            .collect()
    };
    let per_set = |sets: &[Vec<BTreeMap<String, f64>>], name: &str| -> Vec<Vec<f64>> {
        sets.iter()
            .map(|runs| {
                runs.iter()
                    .filter_map(|run| run.get(name).copied())
                    .collect()
            })
            .collect()
    };
    let row = |name: String, unit, bound: f64, exact: bool, per_set: Vec<Vec<f64>>| {
        let medians: Vec<f64> = per_set
            .iter()
            .map(|runs| crate::stats::median(runs).unwrap_or(f64::NAN))
            .collect();
        let gap = medians[1..]
            .iter()
            .map(|m| ((m - medians[0]) / medians[0]).abs())
            .fold(0.0, f64::max);
        let all: Vec<f64> = per_set.iter().flatten().copied().collect();
        let identical = all.windows(2).all(|w| w[0] == w[1]);
        let ok = if exact {
            identical
        } else {
            // 0/0 for two equal zeros is no gap.
            identical || gap <= bound
        };
        Row {
            name,
            unit,
            medians,
            gap: if identical { 0.0 } else { gap },
            bound,
            ok,
        }
    };

    let mut rows = Vec::new();
    for name in names(values) {
        let metric = name.rsplit('/').next().expect("rsplit yields at least one");
        let def = END_TO_END
            .iter()
            .find(|d| d.name == metric)
            .expect("only END_TO_END metrics are collected");
        rows.push(row(
            name.clone(),
            def.unit,
            def.bound,
            def.exact,
            per_set(values, &name),
        ));
    }
    for name in names(exact_counts) {
        rows.push(row(
            name.clone(),
            "count",
            0.0,
            true,
            per_set(exact_counts, &name),
        ));
    }
    rows
}

/// The table as Markdown, ready for README.md.
pub fn table(rows: &[Row]) -> String {
    let sets = rows.first().map_or(0, |r| r.medians.len());
    let mut out = String::from("| workload/metric | unit |");
    for set in 0..sets {
        out.push_str(&format!(" set {} |", (b'A' + set as u8) as char));
    }
    out.push_str(" gap | bound | ok |\n|---|---|");
    out.push_str(&"---:|".repeat(sets + 2));
    out.push_str("---|\n");
    for row in rows {
        out.push_str(&format!("| `{}` | {} |", row.name, row.unit));
        for median in &row.medians {
            out.push_str(&format!(" {median:.4} |"));
        }
        out.push_str(&format!(
            " {:.2} % | {} | {} |\n",
            100.0 * row.gap,
            if row.bound == 0.0 {
                "exact".to_string()
            } else {
                format!("{:.0} %", 100.0 * row.bound)
            },
            if row.ok { "yes" } else { "**NO**" }
        ));
    }
    out
}

pub fn run(args: &Args) -> Result<ExitCode, String> {
    let mut values = vec![Vec::new(); args.sets];
    let mut exact_counts = vec![Vec::new(); args.sets];
    let mut failed = 0;
    for run in 0..args.runs {
        for set in 0..args.sets {
            eprintln!("aa: run {} of {}, set {}", run + 1, args.runs, set + 1);
            let collected: Collected = collect(args, ROUNDS)?;
            failed += collected.failed();
            values[set].push(collected.end_to_end());
            exact_counts[set].push(collected.exact_extras());
        }
    }
    let rows = compare(&values, &exact_counts);
    println!(
        "{} sets x {} runs, alternating, seed {}, --seconds {}, nproc {}\n",
        args.sets,
        args.runs,
        args.seed,
        args.seconds,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    print!("{}", table(&rows));
    let disagreements = rows.iter().filter(|r| !r.ok).count();
    println!(
        "\n{disagreements} of {} rows disagree; {failed} ops failed",
        rows.len()
    );
    Ok(exit_code(failed, disagreements == 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_run(pairs: &[(&str, f64)]) -> BTreeMap<String, f64> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn timings_may_differ_within_the_bound_and_exact_metrics_not_at_all() {
        let a = vec![
            one_run(&[
                ("w/ops_per_s", 100.0),
                ("w/edgecut_sum", 50.0),
                ("w/fail_share", 0.0),
            ]),
            one_run(&[
                ("w/ops_per_s", 104.0),
                ("w/edgecut_sum", 50.0),
                ("w/fail_share", 0.0),
            ]),
            one_run(&[
                ("w/ops_per_s", 96.0),
                ("w/edgecut_sum", 50.0),
                ("w/fail_share", 0.0),
            ]),
        ];
        let mut b = a.clone();
        b[0].insert("w/ops_per_s".into(), 116.0);
        b[1].insert("w/ops_per_s".into(), 119.0);
        b[2].insert("w/ops_per_s".into(), 91.0);
        let counts = vec![vec![one_run(&[("w/hit_ratio", 1.0)])]; 2];
        let rows = compare(&[a.clone(), b.clone()], &counts);
        assert!(rows.iter().all(|r| r.ok), "{rows:?}");
        let ops = rows.iter().find(|r| r.name == "w/ops_per_s").unwrap();
        assert_eq!(ops.medians, vec![100.0, 116.0]);
        assert!((ops.gap - 0.16).abs() < 1e-12);

        // Beyond the 20 % bound.
        b[0].insert("w/ops_per_s".into(), 121.0);
        b[1].insert("w/ops_per_s".into(), 122.0);
        let rows = compare(&[a.clone(), b.clone()], &counts);
        assert!(!rows.iter().find(|r| r.name == "w/ops_per_s").unwrap().ok);

        // One edge of difference in one run of an exact metric.
        b[2].insert("w/edgecut_sum".into(), 51.0);
        let rows = compare(&[a.clone(), b], &counts);
        let cut = rows.iter().find(|r| r.name == "w/edgecut_sum").unwrap();
        assert!(!cut.ok, "medians agree, one run does not");

        let mut other_counts = counts.clone();
        other_counts[1][0].insert("w/hit_ratio".into(), 0.99);
        let rows = compare(&[a.clone(), a], &other_counts);
        assert!(!rows.iter().find(|r| r.name == "w/hit_ratio").unwrap().ok);
    }

    #[test]
    fn the_table_has_one_line_per_row() {
        let a = vec![one_run(&[("w/ops_per_s", 100.0)])];
        let rows = compare(&[a.clone(), a], &[vec![], vec![]]);
        let text = table(&rows);
        assert_eq!(text.lines().count(), 3);
        assert!(
            text.contains("| `w/ops_per_s` | op/s | 100.0000 | 100.0000 | 0.00 % | 20 % | yes |")
        );
    }
}
