//! Profile-regression comparator: diff two `cubesfc-profile-v1`
//! snapshot documents against configurable thresholds.
//!
//! This is the engine behind `cubesfc compare <old.json> <new.json>`
//! and the `perf_compare` bench binary: span wall-times and counters
//! from the *new* snapshot are compared entry-by-entry against the
//! *old* (baseline) snapshot. A span whose total time grew by more than
//! the threshold — and is large enough to be above timing noise — is a
//! **regression**; callers exit nonzero when any exist (unless running
//! report-only in CI, where machine-to-machine variance makes absolute
//! times advisory).

use crate::snapshot::Snapshot;
use crate::value::load_doc;
use std::collections::BTreeMap;

/// Tunable comparison thresholds.
#[derive(Clone, Copy, Debug)]
pub struct CompareConfig {
    /// Relative growth (percent) beyond which an entry regresses.
    pub threshold_pct: f64,
    /// Spans where *both* sides are below this total are ignored:
    /// timing noise dominates sub-millisecond phases.
    pub min_total_ns: u64,
}

impl Default for CompareConfig {
    fn default() -> Self {
        CompareConfig {
            threshold_pct: 25.0,
            min_total_ns: 1_000_000,
        }
    }
}

/// How one entry moved between the two snapshots.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeltaStatus {
    /// Within threshold (or below the noise floor).
    Ok,
    /// Grew beyond the threshold.
    Regressed,
    /// Shrank beyond the threshold.
    Improved,
    /// Present only in the new snapshot.
    Added,
    /// Present only in the old snapshot.
    Removed,
}

impl DeltaStatus {
    fn label(self) -> &'static str {
        match self {
            DeltaStatus::Ok => "ok",
            DeltaStatus::Regressed => "REGRESSED",
            DeltaStatus::Improved => "improved",
            DeltaStatus::Added => "added",
            DeltaStatus::Removed => "removed",
        }
    }
}

/// One compared entry (a span's total time or a counter's value).
#[derive(Clone, Debug)]
pub struct Delta {
    /// Span path or counter name.
    pub name: String,
    /// Baseline value (ns for spans, raw for counters); 0 when added.
    pub old: u64,
    /// New value; 0 when removed.
    pub new: u64,
    /// Classification against the thresholds.
    pub status: DeltaStatus,
    /// Relative change in percent (`+50.0` = new is 1.5× old);
    /// meaningless for added/removed entries.
    pub change_pct: f64,
}

/// The full diff of two profile snapshots.
#[derive(Clone, Debug)]
pub struct CompareReport {
    /// Per-span wall-time deltas, in path order.
    pub spans: Vec<Delta>,
    /// Per-counter deltas, in name order.
    pub counters: Vec<Delta>,
    /// The thresholds the classification used.
    pub config: CompareConfig,
}

impl CompareReport {
    /// Number of regressed entries (spans + counters).
    pub fn regressions(&self) -> usize {
        self.spans
            .iter()
            .chain(&self.counters)
            .filter(|d| d.status == DeltaStatus::Regressed)
            .count()
    }

    /// Render a human-readable comparison table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "profile comparison (threshold {:.0}%, noise floor {:.1} ms)\n",
            self.config.threshold_pct,
            self.config.min_total_ns as f64 / 1e6
        ));
        if !self.spans.is_empty() {
            out.push_str(&format!(
                "\n{:<34} {:>12} {:>12} {:>9}  {}\n",
                "span", "old(ms)", "new(ms)", "change", "status"
            ));
            for d in &self.spans {
                out.push_str(&format!(
                    "{:<34} {:>12.3} {:>12.3} {:>8.1}%  {}\n",
                    d.name,
                    d.old as f64 / 1e6,
                    d.new as f64 / 1e6,
                    d.change_pct,
                    d.status.label()
                ));
            }
        }
        if !self.counters.is_empty() {
            out.push_str(&format!(
                "\n{:<34} {:>14} {:>14} {:>9}  {}\n",
                "counter", "old", "new", "change", "status"
            ));
            for d in &self.counters {
                out.push_str(&format!(
                    "{:<34} {:>14} {:>14} {:>8.1}%  {}\n",
                    d.name,
                    d.old,
                    d.new,
                    d.change_pct,
                    d.status.label()
                ));
            }
        }
        let n = self.regressions();
        if n == 0 {
            out.push_str("\nno regressions\n");
        } else {
            out.push_str(&format!("\n{n} regression(s)\n"));
        }
        out
    }
}

fn change_pct(old: u64, new: u64) -> f64 {
    if old == 0 {
        return 0.0;
    }
    (new as f64 / old as f64 - 1.0) * 100.0
}

fn classify(old: u64, new: u64, cfg: &CompareConfig, noise_floor: u64) -> (DeltaStatus, f64) {
    let pct = change_pct(old, new);
    if old.max(new) < noise_floor {
        return (DeltaStatus::Ok, pct);
    }
    if pct > cfg.threshold_pct {
        (DeltaStatus::Regressed, pct)
    } else if pct < -cfg.threshold_pct {
        (DeltaStatus::Improved, pct)
    } else {
        (DeltaStatus::Ok, pct)
    }
}

/// Merge old/new maps into deltas over the union of their keys.
fn diff_maps(
    old: &BTreeMap<String, u64>,
    new: &BTreeMap<String, u64>,
    cfg: &CompareConfig,
    noise_floor: u64,
) -> Vec<Delta> {
    let mut out = Vec::new();
    for (name, &ov) in old {
        match new.get(name) {
            Some(&nv) => {
                let (status, pct) = classify(ov, nv, cfg, noise_floor);
                out.push(Delta {
                    name: name.clone(),
                    old: ov,
                    new: nv,
                    status,
                    change_pct: pct,
                });
            }
            None => out.push(Delta {
                name: name.clone(),
                old: ov,
                new: 0,
                status: DeltaStatus::Removed,
                change_pct: -100.0,
            }),
        }
    }
    for (name, &nv) in new {
        if !old.contains_key(name) {
            out.push(Delta {
                name: name.clone(),
                old: 0,
                new: nv,
                status: DeltaStatus::Added,
                change_pct: 0.0,
            });
        }
    }
    out.sort_by(|a, b| a.name.cmp(&b.name));
    out
}

/// Diff `new` against the `old` (baseline) snapshot. Counters are
/// compared with no noise floor (they are deterministic byte/message
/// counts); spans use [`CompareConfig::min_total_ns`].
pub fn compare_snapshots(old: &Snapshot, new: &Snapshot, cfg: &CompareConfig) -> CompareReport {
    let totals = |s: &Snapshot| -> BTreeMap<String, u64> {
        let spans = s.timers.iter();
        spans.map(|(path, t)| (path.clone(), t.total_ns)).collect()
    };
    CompareReport {
        spans: diff_maps(&totals(old), &totals(new), cfg, cfg.min_total_ns),
        counters: diff_maps(&old.counters, &new.counters, cfg, 0),
        config: *cfg,
    }
}

/// [`compare_snapshots`] on two `cubesfc-profile-v1` JSON documents.
/// Errors on malformed JSON or wrong schema.
pub fn compare_profiles(
    old_json: &str,
    new_json: &str,
    cfg: &CompareConfig,
) -> Result<CompareReport, String> {
    let load = |side: &str, text: &str| {
        load_doc(text, Snapshot::from_json).map_err(|e| format!("{side} snapshot: {e}"))
    };
    let old = load("old", old_json)?;
    Ok(compare_snapshots(&old, &load("new", new_json)?, cfg))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(spans: &[(&str, u64)], counters: &[(&str, u64)]) -> String {
        let mut snap = crate::Snapshot::default();
        for (name, total) in spans {
            let mut stat = crate::snapshot::SpanStat::new();
            stat.record(*total);
            snap.timers.insert(name.to_string(), stat);
        }
        for (name, v) in counters {
            snap.counters.insert(name.to_string(), *v);
        }
        snap.to_json()
    }

    #[test]
    fn identical_snapshots_have_no_regressions() {
        let doc = profile(&[("partition", 50_000_000)], &[("halo/bytes", 4096)]);
        let report = compare_profiles(&doc, &doc, &CompareConfig::default()).unwrap();
        assert_eq!(report.regressions(), 0);
        assert!(report.spans.iter().all(|d| d.status == DeltaStatus::Ok));
        assert!(report.render().contains("no regressions"));
    }

    #[test]
    fn over_threshold_span_growth_is_a_regression() {
        let old = profile(&[("partition", 10_000_000)], &[]);
        let new = profile(&[("partition", 30_000_000)], &[]);
        let report = compare_profiles(&old, &new, &CompareConfig::default()).unwrap();
        assert_eq!(report.regressions(), 1);
        assert_eq!(report.spans[0].status, DeltaStatus::Regressed);
        assert!((report.spans[0].change_pct - 200.0).abs() < 1e-9);
        assert!(report.render().contains("REGRESSED"));
        // The reverse direction is an improvement, not a regression.
        let back = compare_profiles(&new, &old, &CompareConfig::default()).unwrap();
        assert_eq!(back.regressions(), 0);
        assert_eq!(back.spans[0].status, DeltaStatus::Improved);
    }

    #[test]
    fn sub_noise_floor_spans_are_ignored() {
        let old = profile(&[("tiny", 1_000)], &[]);
        let new = profile(&[("tiny", 900_000)], &[]); // 900× but under 1ms
        let report = compare_profiles(&old, &new, &CompareConfig::default()).unwrap();
        assert_eq!(report.regressions(), 0);
        // With the floor lowered the same delta regresses.
        let cfg = CompareConfig {
            min_total_ns: 0,
            ..CompareConfig::default()
        };
        assert_eq!(compare_profiles(&old, &new, &cfg).unwrap().regressions(), 1);
    }

    #[test]
    fn counters_regress_with_no_noise_floor() {
        let old = profile(&[], &[("halo/bytes_sent", 1000)]);
        let new = profile(&[], &[("halo/bytes_sent", 1500)]);
        let report = compare_profiles(&old, &new, &CompareConfig::default()).unwrap();
        assert_eq!(report.regressions(), 1);
        assert_eq!(report.counters[0].status, DeltaStatus::Regressed);
    }

    #[test]
    fn added_and_removed_entries_are_informational() {
        let old = profile(&[("gone", 5_000_000)], &[]);
        let new = profile(&[("fresh", 5_000_000)], &[]);
        let report = compare_profiles(&old, &new, &CompareConfig::default()).unwrap();
        assert_eq!(report.regressions(), 0);
        let by_name: BTreeMap<_, _> = report
            .spans
            .iter()
            .map(|d| (d.name.as_str(), d.status))
            .collect();
        assert_eq!(by_name["gone"], DeltaStatus::Removed);
        assert_eq!(by_name["fresh"], DeltaStatus::Added);
    }

    #[test]
    fn wrong_schema_and_bad_json_error_out() {
        let good = profile(&[], &[]);
        assert!(compare_profiles("{not json", &good, &CompareConfig::default()).is_err());
        let bad_schema = good.replace("cubesfc-profile-v1", "cubesfc-profile-v9");
        let err = compare_profiles(&good, &bad_schema, &CompareConfig::default()).unwrap_err();
        assert!(err.contains("unsupported schema"), "{err}");
        assert!(
            compare_profiles("{\"timers\":{}}", &good, &CompareConfig::default())
                .unwrap_err()
                .contains("missing"),
        );
    }

    #[test]
    fn custom_threshold_changes_classification() {
        let old = profile(&[("p", 10_000_000)], &[]);
        let new = profile(&[("p", 11_500_000)], &[]); // +15%
        let strict = CompareConfig {
            threshold_pct: 10.0,
            ..CompareConfig::default()
        };
        assert_eq!(
            compare_profiles(&old, &new, &CompareConfig::default())
                .unwrap()
                .regressions(),
            0
        );
        assert_eq!(
            compare_profiles(&old, &new, &strict).unwrap().regressions(),
            1
        );
    }
}
