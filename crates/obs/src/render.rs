//! Human-readable rendering: the profile's hierarchical span tree (paths
//! are slash-joined, e.g. `partition/coarsen/match`) plus counter and
//! histogram tables, and [`render_samples`], the sparkline table of
//! sampled gauges, per-rank values and alerts that `trace analyze`
//! prints.

use crate::snapshot::{Snapshot, SpanStat};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

#[derive(Default)]
struct Node {
    stat: Option<SpanStat>,
    children: BTreeMap<String, Node>,
}

fn insert(root: &mut Node, path: &str, stat: SpanStat) {
    let mut node = root;
    for seg in path.split('/') {
        node = node.children.entry(seg.to_string()).or_default();
    }
    node.stat = Some(stat);
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1.0e6
}

fn render_node(out: &mut String, name: &str, node: &Node, depth: usize, parent_total_ns: u64) {
    let indent = "  ".repeat(depth);
    let label = format!("{indent}{name}");
    match node.stat {
        Some(s) => {
            let share = if parent_total_ns > 0 {
                format!(
                    "{:5.1}%",
                    100.0 * s.total_ns as f64 / parent_total_ns as f64
                )
            } else {
                "     -".to_string()
            };
            out.push_str(&format!(
                "{label:<34} {:>7} {:>12.3} {:>10.3} {:>10.3} {:>10.3} {share}\n",
                s.count,
                ms(s.total_ns),
                ms(s.mean_ns()),
                ms(s.min_ns),
                ms(s.max_ns),
            ));
        }
        // Interior path with no samples of its own (possible when only
        // deeper spans fired on this thread).
        None => out.push_str(&format!("{label}\n")),
    }
    let own_total = node.stat.map(|s| s.total_ns).unwrap_or(parent_total_ns);
    for (child_name, child) in &node.children {
        render_node(out, child_name, child, depth + 1, own_total);
    }
}

impl Snapshot {
    /// Render the snapshot as an indented profile report. Spans nest by
    /// their slash-joined path; `of-parent` is each span's share of its
    /// parent's total time.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        if self.is_empty() {
            out.push_str("profile: no samples recorded (is profiling enabled?)\n");
            return out;
        }

        if !self.timers.is_empty() {
            out.push_str(&format!(
                "{:<34} {:>7} {:>12} {:>10} {:>10} {:>10} {}\n",
                "span", "count", "total(ms)", "mean(ms)", "min(ms)", "max(ms)", "of-parent"
            ));
            let mut root = Node::default();
            for (path, stat) in &self.timers {
                insert(&mut root, path, *stat);
            }
            for (name, node) in &root.children {
                render_node(&mut out, name, node, 0, 0);
            }
        }

        if !self.counters.is_empty() {
            out.push_str("\ncounters\n");
            for (name, value) in &self.counters {
                out.push_str(&format!("  {name:<40} {value:>16}\n"));
            }
        }

        if !self.histograms.is_empty() {
            out.push_str("\nhistograms (log2 buckets)\n");
            for (name, h) in &self.histograms {
                out.push_str(&format!(
                    "  {name:<40} count={} mean={}\n",
                    h.count,
                    h.mean()
                ));
                for b in &h.buckets {
                    out.push_str(&format!(
                        "    [{:>12}, {:>12}] {:>10}\n",
                        b.lo, b.hi, b.count
                    ));
                }
            }
        }
        out
    }
}

/// Render `values` as a fixed-width Unicode sparkline (`▁▂▃▄▅▆▇█`).
///
/// The series is resampled to at most `width` columns (averaging each
/// column's bucket) and scaled to `[min, max]` over the *whole* series,
/// so rows rendered with a shared scale stay comparable. Non-finite
/// values render as spaces. Empty input gives an empty string.
pub(crate) fn sparkline(values: &[f64], width: usize) -> String {
    let (min, max) = finite_range(values);
    sparkline_scaled(values, width, min, max)
}

/// `(min, max)` of the finite `values`; `(inf, -inf)` when there are none.
fn finite_range<'a>(values: impl IntoIterator<Item = &'a f64>) -> (f64, f64) {
    let finite = values.into_iter().copied().filter(|v| v.is_finite());
    finite.fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
        (lo.min(v), hi.max(v))
    })
}

/// [`sparkline`] with an explicit `[min, max]` scale, for rendering a
/// group of rows (e.g. one per rank) on one shared scale.
pub(crate) fn sparkline_scaled(values: &[f64], width: usize, min: f64, max: f64) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() || width == 0 {
        return String::new();
    }
    let cols = width.min(values.len());
    let mut out = String::with_capacity(cols * 3);
    for c in 0..cols {
        let a = c * values.len() / cols;
        let b = ((c + 1) * values.len() / cols).max(a + 1);
        let slice: Vec<f64> = values[a..b]
            .iter()
            .copied()
            .filter(|v| v.is_finite())
            .collect();
        if slice.is_empty() {
            out.push(' ');
            continue;
        }
        let v = slice.iter().sum::<f64>() / slice.len() as f64;
        let t = if max > min {
            ((v - min) / (max - min)).clamp(0.0, 1.0)
        } else {
            0.0
        };
        let idx = ((t * 7.0).round() as usize).min(7);
        out.push(BARS[idx]);
    }
    out
}

/// Sparkline width of a [`render_samples`] row.
const SPARK_WIDTH: usize = 48;

/// At most this many per-rank sparkline rows per lane; the rendering
/// says how many were elided (never a silent cap).
const MAX_RANK_ROWS: usize = 32;

/// One sampled point of a lane, as [`render_samples`] reads it.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SeriesSample {
    /// The sample's position on its lane (the series' x axis).
    pub seq: u64,
    /// The lane: a counter track, `segments`, ...
    pub lane: String,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// One value per rank (empty when the lane has no rank ensemble).
    pub ranks: Vec<f64>,
    /// Names of the alert rules that fired on this sample.
    pub alerts: Vec<String>,
}

/// Render `samples` as one fixed-width block: per-gauge statistics with
/// trend sparklines (rows `lane/gauge`, sorted), per-rank rows on one
/// shared scale per lane, and the alert log in sample order. A gauge's
/// or rank's series is its values in sample order. Non-finite values
/// are left out of every statistic and scale.
pub fn render_samples(samples: &[SeriesSample]) -> String {
    let mut lanes = BTreeSet::new();
    let mut gauges: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut ranks: BTreeMap<&str, Vec<Vec<f64>>> = BTreeMap::new();
    for s in samples {
        if !s.gauges.is_empty() || !s.ranks.is_empty() {
            lanes.insert(s.lane.as_str());
        }
        for (name, &v) in &s.gauges {
            let key = format!("{}/{}", s.lane, name);
            gauges.entry(key).or_default().push(v);
        }
        if !s.ranks.is_empty() {
            let rows = ranks.entry(&s.lane).or_default();
            if rows.len() < s.ranks.len() {
                rows.resize(s.ranks.len(), Vec::new());
            }
            for (row, &v) in rows.iter_mut().zip(&s.ranks) {
                row.push(v);
            }
        }
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "series: {} sample(s), lanes: {}",
        samples.len(),
        if lanes.is_empty() {
            "-".to_string()
        } else {
            lanes.into_iter().collect::<Vec<_>>().join(", ")
        }
    );
    if samples.is_empty() {
        return out;
    }

    if !gauges.is_empty() {
        let _ = writeln!(
            out,
            "{:<34} {:>10} {:>10} {:>10} {:>10}  trend",
            "gauge", "last", "min", "mean", "max"
        );
        for (name, vals) in &gauges {
            let finite: Vec<f64> = vals.iter().copied().filter(|v| v.is_finite()).collect();
            let (min, max, mean) = if finite.is_empty() {
                (0.0, 0.0, 0.0)
            } else {
                let (min, max) = finite_range(&finite);
                (min, max, finite.iter().sum::<f64>() / finite.len() as f64)
            };
            let last = finite.last().copied().unwrap_or(0.0);
            let _ = writeln!(
                out,
                "{name:<34} {last:>10.4} {min:>10.4} {mean:>10.4} {max:>10.4}  {}",
                sparkline(vals, SPARK_WIDTH)
            );
        }
    }

    for (lane, rows) in &ranks {
        // One shared scale across the lane's ranks, so a straggler row
        // visibly towers over its peers.
        let (lo, hi) = finite_range(rows.iter().flatten());
        if !lo.is_finite() || !hi.is_finite() {
            continue;
        }
        let shown = rows.len().min(MAX_RANK_ROWS);
        let _ = writeln!(
            out,
            "\nper-rank (lane {lane}, {} ranks, shared scale [{lo:.4}, {hi:.4}])",
            rows.len()
        );
        for (r, vals) in rows.iter().take(shown).enumerate() {
            let last = vals.iter().rev().find(|v| v.is_finite());
            let _ = writeln!(
                out,
                "  rank {r:>4}  {}  last={:.4}",
                sparkline_scaled(vals, SPARK_WIDTH, lo, hi),
                last.copied().unwrap_or(0.0)
            );
        }
        if shown < rows.len() {
            let _ = writeln!(out, "  ({} more rank(s) not shown)", rows.len() - shown);
        }
    }

    let fired = samples
        .iter()
        .flat_map(|s| s.alerts.iter().map(move |rule| (rule, &s.lane, s.seq)));
    let fired: Vec<_> = fired.collect();
    if fired.is_empty() {
        let _ = writeln!(out, "\nalerts: none fired");
    } else {
        let _ = writeln!(out, "\nalerts: {} fired", fired.len());
        for (rule, lane, seq) in fired {
            let _ = writeln!(out, "  {rule:<20} lane={lane} sample={seq}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{Bucket, HistogramSnapshot};

    fn stat(count: u64, total: u64) -> SpanStat {
        let mut s = SpanStat::new();
        for _ in 0..count {
            s.record(total / count);
        }
        s
    }

    #[test]
    fn sparkline_spans_the_bar_alphabet() {
        let ramp: Vec<f64> = (0..8).map(|i| i as f64).collect();
        assert_eq!(sparkline(&ramp, 8), "▁▂▃▄▅▆▇█");
        // Constant series renders flat at the bottom.
        assert_eq!(sparkline(&[5.0; 4], 4), "▁▁▁▁");
        // Longer series downsample to the requested width.
        let long: Vec<f64> = (0..100).map(|i| i as f64).collect();
        assert_eq!(sparkline(&long, 10).chars().count(), 10);
        // Degenerate inputs are quiet.
        assert_eq!(sparkline(&[], 10), "");
        assert_eq!(sparkline(&[1.0], 0), "");
        assert_eq!(sparkline(&[f64::NAN, 1.0], 2), " ▁");
    }

    #[test]
    fn shared_scale_keeps_rows_comparable() {
        // On a shared [0, 8] scale a flat 1.0 row sits low while a flat
        // 8.0 row sits at the top — the straggler is visible at a glance.
        assert_eq!(sparkline_scaled(&[1.0; 4], 4, 0.0, 8.0), "▂▂▂▂");
        assert_eq!(sparkline_scaled(&[8.0; 4], 4, 0.0, 8.0), "████");
    }

    #[test]
    fn empty_snapshot_renders_placeholder() {
        let text = Snapshot::default().render_table();
        assert!(text.contains("no samples"));
    }

    #[test]
    fn tree_indents_children_under_parents() {
        let mut snap = Snapshot::default();
        snap.timers.insert("partition".into(), stat(1, 10_000_000));
        snap.timers
            .insert("partition/coarsen".into(), stat(4, 8_000_000));
        snap.timers
            .insert("partition/coarsen/match".into(), stat(4, 2_000_000));
        let text = snap.render_table();
        let lines: Vec<&str> = text.lines().collect();
        let p = lines
            .iter()
            .position(|l| l.starts_with("partition "))
            .unwrap();
        assert!(lines[p + 1].starts_with("  coarsen"));
        assert!(lines[p + 2].starts_with("    match"));
        // coarsen is 80% of partition's 10ms.
        assert!(lines[p + 1].contains("80.0%"), "line: {}", lines[p + 1]);
        // match is 25% of coarsen's 8ms.
        assert!(lines[p + 2].contains("25.0%"), "line: {}", lines[p + 2]);
    }

    #[test]
    fn counters_and_histograms_render() {
        let mut snap = Snapshot::default();
        snap.counters.insert("dss/bytes_exchanged".into(), 12345);
        snap.histograms.insert(
            "msg".into(),
            HistogramSnapshot {
                count: 1,
                sum: 2048,
                buckets: vec![Bucket {
                    lo: 2048,
                    hi: 4095,
                    count: 1,
                }],
            },
        );
        let text = snap.render_table();
        assert!(text.contains("dss/bytes_exchanged"));
        assert!(text.contains("12345"));
        assert!(text.contains("count=1 mean=2048"));
    }

    fn sample(lane: &str, seq: u64, gauges: &[(&str, f64)], ranks: &[f64]) -> SeriesSample {
        SeriesSample {
            seq,
            lane: lane.to_string(),
            gauges: gauges.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            ranks: ranks.to_vec(),
            alerts: Vec::new(),
        }
    }

    #[test]
    fn samples_render_gauges_ranks_and_one_alert_log() {
        let mut samples = Vec::new();
        let mut ranks = vec![1.0; 6];
        for step in 0..5u64 {
            if step >= 2 {
                ranks[0] = 4.0;
            }
            let mut s = sample(
                "rebalance",
                step,
                &[("lb_measured", 0.1 * step as f64)],
                &ranks,
            );
            if step == 2 {
                s.alerts.push("straggler".to_string());
            }
            samples.push(s);
        }
        let text = render_samples(&samples);
        assert!(
            text.starts_with("series: 5 sample(s), lanes: rebalance\n"),
            "{text}"
        );
        assert!(text.contains("rebalance/lb_measured"), "{text}");
        assert!(text.contains("rank    0"), "{text}");
        assert!(
            text.contains("  straggler            lane=rebalance sample=2\n"),
            "{text}"
        );
        assert_eq!(text.matches("alerts:").count(), 1, "{text}");
    }

    #[test]
    fn a_ranks_only_lane_is_named_in_the_header() {
        let samples = [
            sample("segments", 0, &[], &[1.0, 2.0]),
            sample("segments", 1, &[], &[1.5, 2.5]),
            sample("solver", 0, &[("lb_compute", 0.2)], &[]),
        ];
        let text = render_samples(&samples);
        assert!(
            text.starts_with("series: 3 sample(s), lanes: segments, solver\n"),
            "{text}"
        );
        assert!(text.contains("per-rank (lane segments, 2 ranks"), "{text}");
        assert!(text.contains("alerts: none fired"), "{text}");
        // No samples name no lane.
        assert_eq!(render_samples(&[]), "series: 0 sample(s), lanes: -\n");
    }

    #[test]
    fn a_non_finite_point_stays_one_point() {
        // A NaN or infinite sample is one blank column; it never leaks
        // into its neighbours or the row's statistics.
        let samples: Vec<SeriesSample> = [1.0, f64::NAN, 2.0, f64::INFINITY, 3.0]
            .iter()
            .enumerate()
            .map(|(seq, &v)| sample("solver", seq as u64, &[("lb", v)], &[]))
            .collect();
        let text = render_samples(&samples);
        let row = text.lines().find(|l| l.starts_with("solver/lb")).unwrap();
        assert!(
            row.ends_with("3.0000     1.0000     2.0000     3.0000  ▁ ▅ █"),
            "{row}"
        );
    }
}
