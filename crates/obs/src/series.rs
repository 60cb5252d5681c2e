//! Bounded time series and the one sparkline renderer over them.
//!
//! Three layers:
//!
//! * [`Ring<T>`] — a fixed-capacity FIFO that *never grows*: pushing
//!   into a full ring evicts the oldest entry and increments an exact
//!   `dropped` counter — the contract the event ring gives
//!   `dropped_events`.
//! * [`Series`] — one metric's newest `(seq, value)` points on a
//!   [`Ring`]. Values are stored as given, so one non-finite sample
//!   stays one point and never leaks into its neighbours.
//! * [`SeriesBank`] — per-lane gauge and per-rank series built from
//!   [`SeriesSample`]s, rendered as a fixed-width table of sparklines
//!   plus the alert log. Its one reader is `trace analyze` (counter
//!   tracks, per-segment rank work).

use crate::render::{sparkline, sparkline_scaled};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt::Write as _;

/// A fixed-capacity FIFO with an exact count of evicted entries.
#[derive(Clone, Debug)]
pub(crate) struct Ring<T> {
    buf: VecDeque<T>,
    capacity: usize,
    dropped: u64,
}

impl<T> Ring<T> {
    /// A ring holding at most `capacity` entries (at least 1).
    pub(crate) fn new(capacity: usize) -> Ring<T> {
        Ring {
            buf: VecDeque::with_capacity(capacity.max(1)),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    /// Append `item`; when full, the oldest entry is evicted, counted,
    /// and handed back.
    pub(crate) fn push(&mut self, item: T) -> Option<T> {
        let evicted = if self.buf.len() == self.capacity {
            self.dropped += 1;
            self.buf.pop_front()
        } else {
            None
        };
        self.buf.push_back(item);
        evicted
    }

    /// Entries oldest-first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.buf.iter()
    }

    pub(crate) fn len(&self) -> usize {
        self.buf.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Exact number of entries evicted since creation (or last clear).
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }

    pub(crate) fn clear(&mut self) {
        self.buf.clear();
        self.dropped = 0;
    }
}

/// One metric's bounded history of `(seq, value)` points.
#[derive(Clone, Debug)]
pub(crate) struct Series {
    ring: Ring<(u64, f64)>,
}

impl Series {
    /// A series retaining at most `capacity` points.
    pub(crate) fn new(capacity: usize) -> Series {
        Series {
            ring: Ring::new(capacity),
        }
    }

    /// Record `value` observed at sample `seq`; when full, the oldest
    /// point is evicted and counted.
    pub(crate) fn push(&mut self, seq: u64, value: f64) {
        self.ring.push((seq, value));
    }

    /// The retained window as `(seq, value)` points, oldest first.
    pub(crate) fn points(&self) -> Vec<(u64, f64)> {
        self.ring.iter().copied().collect()
    }

    /// Just the values of [`Series::points`] (sparkline input).
    pub(crate) fn values(&self) -> Vec<f64> {
        self.points().into_iter().map(|(_, v)| v).collect()
    }
}

/// Sparkline width of a [`SeriesBank`] row.
const SPARK_WIDTH: usize = 48;

/// At most this many per-rank sparkline rows per lane; the rendering
/// says how many were elided (never a silent cap).
const MAX_RANK_ROWS: usize = 32;

/// One point of a [`SeriesBank`] lane.
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

/// Bounded per-lane history of gauges and per-rank values, plus the
/// alert log, rendered as one fixed-width block.
#[derive(Debug)]
pub struct SeriesBank {
    capacity: usize,
    /// Every lane that contributed a gauge or a rank row.
    lanes: BTreeSet<String>,
    /// `lane/gauge` → history.
    gauges: BTreeMap<String, Series>,
    /// lane → one series per rank.
    ranks: BTreeMap<String, Vec<Series>>,
    /// Fire log: (rule, lane, seq).
    alerts: Vec<(String, String, u64)>,
    samples: u64,
}

impl SeriesBank {
    /// A bank whose series each retain `capacity` points.
    pub fn new(capacity: usize) -> SeriesBank {
        SeriesBank {
            capacity,
            lanes: BTreeSet::new(),
            gauges: BTreeMap::new(),
            ranks: BTreeMap::new(),
            alerts: Vec::new(),
            samples: 0,
        }
    }

    /// Fold one sample into the per-lane histories.
    pub fn ingest(&mut self, s: &SeriesSample) {
        self.samples += 1;
        if !s.gauges.is_empty() || !s.ranks.is_empty() {
            self.lanes.insert(s.lane.clone());
        }
        for (name, &v) in &s.gauges {
            self.gauges
                .entry(format!("{}/{}", s.lane, name))
                .or_insert_with(|| Series::new(self.capacity))
                .push(s.seq, v);
        }
        if !s.ranks.is_empty() {
            let rows = self.ranks.entry(s.lane.clone()).or_default();
            if rows.len() < s.ranks.len() {
                rows.resize_with(s.ranks.len(), || Series::new(self.capacity));
            }
            for (r, &v) in s.ranks.iter().enumerate() {
                rows[r].push(s.seq, v);
            }
        }
        for a in &s.alerts {
            self.alerts.push((a.clone(), s.lane.clone(), s.seq));
        }
    }

    /// Total alerts across all ingested samples.
    pub fn total_alerts(&self) -> u64 {
        self.alerts.len() as u64
    }

    /// Render the fixed-width summary: per-gauge statistics with trend
    /// sparklines, per-rank rows on a shared scale, and the alert log.
    /// Non-finite values are left out of every statistic and scale.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let lanes: Vec<&str> = self.lanes.iter().map(String::as_str).collect();
        let _ = writeln!(
            out,
            "series: {} sample(s), lanes: {}",
            self.samples,
            if lanes.is_empty() {
                "-".to_string()
            } else {
                lanes.join(", ")
            }
        );
        if self.samples == 0 {
            return out;
        }

        if !self.gauges.is_empty() {
            let _ = writeln!(
                out,
                "{:<34} {:>10} {:>10} {:>10} {:>10}  trend",
                "gauge", "last", "min", "mean", "max"
            );
            for (name, series) in &self.gauges {
                let vals = series.values();
                let finite: Vec<f64> = vals.iter().copied().filter(|v| v.is_finite()).collect();
                let (min, max, mean) = if finite.is_empty() {
                    (0.0, 0.0, 0.0)
                } else {
                    (
                        finite.iter().copied().fold(f64::INFINITY, f64::min),
                        finite.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                        finite.iter().sum::<f64>() / finite.len() as f64,
                    )
                };
                let last = finite.last().copied().unwrap_or(0.0);
                let _ = writeln!(
                    out,
                    "{name:<34} {last:>10.4} {min:>10.4} {mean:>10.4} {max:>10.4}  {}",
                    sparkline(&vals, SPARK_WIDTH)
                );
            }
        }

        for (lane, rows) in &self.ranks {
            // One shared scale across the lane's ranks, so a straggler
            // row visibly towers over its peers.
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for s in rows {
                for v in s.values() {
                    if v.is_finite() {
                        lo = lo.min(v);
                        hi = hi.max(v);
                    }
                }
            }
            if !lo.is_finite() || !hi.is_finite() {
                continue;
            }
            let shown = rows.len().min(MAX_RANK_ROWS);
            let _ = writeln!(
                out,
                "\nper-rank (lane {lane}, {} ranks, shared scale [{lo:.4}, {hi:.4}])",
                rows.len()
            );
            for (r, series) in rows.iter().take(shown).enumerate() {
                let vals = series.values();
                let last = vals.iter().rev().find(|v| v.is_finite());
                let _ = writeln!(
                    out,
                    "  rank {r:>4}  {}  last={:.4}",
                    sparkline_scaled(&vals, SPARK_WIDTH, lo, hi),
                    last.copied().unwrap_or(0.0)
                );
            }
            if shown < rows.len() {
                let _ = writeln!(out, "  ({} more rank(s) not shown)", rows.len() - shown);
            }
        }

        if self.alerts.is_empty() {
            let _ = writeln!(out, "\nalerts: none fired");
        } else {
            let _ = writeln!(out, "\nalerts: {} fired", self.alerts.len());
            for (rule, lane, seq) in &self.alerts {
                let _ = writeln!(out, "  {rule:<20} lane={lane} sample={seq}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_push_under_capacity_drops_nothing() {
        let mut r = Ring::new(4);
        for i in 0..4 {
            assert!(r.push(i).is_none());
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 0);
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn ring_wraparound_counts_every_eviction_exactly() {
        let mut r = Ring::new(3);
        let mut evicted = Vec::new();
        for i in 0..10 {
            if let Some(e) = r.push(i) {
                evicted.push(e);
            }
        }
        // 10 pushes into capacity 3: exactly 7 evictions, oldest-first.
        assert_eq!(r.dropped(), 7);
        assert_eq!(evicted, vec![0, 1, 2, 3, 4, 5, 6]);
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), vec![7, 8, 9]);
        r.clear();
        assert_eq!(r.dropped(), 0);
        assert!(r.is_empty());
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut r = Ring::new(0);
        assert!(r.push(1).is_none());
        assert_eq!(r.push(2), Some(1));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn series_reconstructs_absolute_values() {
        let mut s = Series::new(8);
        for (seq, v) in [(0u64, 2.0), (1, 5.0), (2, 5.0), (3, 1.0)] {
            s.push(seq, v);
        }
        assert_eq!(s.points(), vec![(0, 2.0), (1, 5.0), (2, 5.0), (3, 1.0)]);
        assert_eq!(s.ring.dropped(), 0);
    }

    #[test]
    fn series_wraparound_keeps_the_newest_window() {
        let mut s = Series::new(3);
        let values = [4.0, 8.0, 2.0, 16.0, 1.0, 32.0];
        for (seq, &v) in values.iter().enumerate() {
            s.push(seq as u64, v);
        }
        assert_eq!(s.ring.dropped(), 3);
        // The window shows the last 3 values, exactly.
        assert_eq!(s.points(), vec![(3, 16.0), (4, 1.0), (5, 32.0)]);
        assert_eq!(s.values(), vec![16.0, 1.0, 32.0]);
    }

    #[test]
    fn series_monotonic_counter_window_is_exact() {
        // Cumulative totals sampled each step: after heavy wraparound
        // the retained window still holds the true cumulative values.
        let mut s = Series::new(4);
        let mut total = 0.0;
        for seq in 0..100u64 {
            total += (seq % 7) as f64;
            s.push(seq, total);
        }
        assert_eq!(s.ring.dropped(), 96);
        let pts = s.points();
        assert_eq!(pts.len(), 4);
        let mut expect = 0.0;
        let mut expected_points = Vec::new();
        for seq in 0..100u64 {
            expect += (seq % 7) as f64;
            if seq >= 96 {
                expected_points.push((seq, expect));
            }
        }
        assert_eq!(pts, expected_points);
    }

    #[test]
    fn a_non_finite_point_stays_one_point() {
        let mut s = Series::new(8);
        for (seq, v) in [
            (0u64, 1.0),
            (1, f64::NAN),
            (2, 2.0),
            (3, f64::INFINITY),
            (4, 3.0),
        ] {
            s.push(seq, v);
        }
        let vals = s.values();
        assert_eq!((vals[0], vals[2], vals[4]), (1.0, 2.0, 3.0));
        assert!(vals[1].is_nan() && vals[3].is_infinite());
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
    fn bank_renders_gauges_ranks_and_one_alert_log() {
        let mut bank = SeriesBank::new(16);
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
            bank.ingest(&s);
        }
        assert_eq!(bank.total_alerts(), 1);
        let text = bank.render();
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
        let mut bank = SeriesBank::new(4);
        bank.ingest(&sample("segments", 0, &[], &[1.0, 2.0]));
        bank.ingest(&sample("segments", 1, &[], &[1.5, 2.5]));
        bank.ingest(&sample("solver", 0, &[("lb_compute", 0.2)], &[]));
        let text = bank.render();
        assert!(
            text.starts_with("series: 3 sample(s), lanes: segments, solver\n"),
            "{text}"
        );
        assert!(text.contains("per-rank (lane segments, 2 ranks"), "{text}");
        assert!(text.contains("alerts: none fired"), "{text}");
        // An empty bank names no lane.
        assert_eq!(
            SeriesBank::new(4).render(),
            "series: 0 sample(s), lanes: -\n"
        );
    }
}
