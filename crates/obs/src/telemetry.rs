//! The telemetry sampler: periodic snapshots of the metrics registry as
//! a streaming time series, with derived health signals and alerting.
//!
//! A [`Sampler`] turns the *cumulative* metrics the registry collects
//! (counters, log2 histograms) plus caller-provided per-step gauges and
//! per-rank values into a sequence of [`TelemetrySample`]s:
//!
//! * counters are **delta-encoded** (each sample carries the increment
//!   since the previous sample, so a stream consumer never needs the
//!   whole history);
//! * histograms are distilled to p50/p95/p99 via
//!   [`HistogramSnapshot::quantile`](crate::HistogramSnapshot::quantile);
//! * derived health gauges are appended — `straggler_z` (worst rank's
//!   z-score against the rank ensemble) and `lb_drift` (Eq. 1 load
//!   balance relative to the lane's first sample);
//! * an [`AlertEngine`] evaluates threshold+hysteresis+min-duration
//!   rules and stamps fired rule names into the sample.
//!
//! Samples live in bounded ring buffers ([`crate::series`]) with an
//! exact `dropped_samples` counter, and export as the streaming NDJSON
//! protocol **`cubesfc-telemetry-v1`**: one JSON object per line, every
//! line independently parseable by [`crate::json_parse`]. Lines carry no
//! wall-clock timestamps — the sequence number and caller step are the
//! time axis — so a deterministic run produces byte-identical streams.
//!
//! Like [`Registry`](crate::Registry) and [`Tracer`](crate::Tracer),
//! explicit `Sampler` instances always record; the process-global
//! sampler behind [`crate::telemetry_record`] is gated by a flag bit and
//! costs one relaxed atomic load (and allocates nothing) when off.

use crate::clock::{Clock, MonotonicClock};
use crate::health::{default_rules, straggler_z, AlertEngine, AlertRule};
use crate::json::{JsonWriter, Layout};
use crate::render::{sparkline, sparkline_scaled};
use crate::series::{Ring, Series};
use crate::value::{read_ndjson, JsonValue};
use crate::Registry;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// Schema tag carried by every NDJSON line.
pub const TELEMETRY_SCHEMA: &str = "cubesfc-telemetry-v1";

/// Default sample-window capacity of the global sampler.
pub(crate) const DEFAULT_SAMPLE_CAPACITY: usize = 1 << 14;

/// Sparkline width used by the terminal summary.
const SPARK_WIDTH: usize = 48;

/// At most this many per-rank sparkline rows per lane; the summary says
/// how many were elided (never a silent cap).
const MAX_RANK_ROWS: usize = 32;

/// One telemetry sample: everything observed at one sampling point.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TelemetrySample {
    /// Global sample sequence number (all lanes share one sequence).
    pub seq: u64,
    /// The emitting lane (`rebalance`, `solver`, `experiment`, …).
    pub lane: String,
    /// The caller's step index (timestep, cell index, …).
    pub step: u64,
    /// Instantaneous gauges: caller-provided plus derived health
    /// signals (`straggler_z`, `lb_drift`).
    pub gauges: BTreeMap<String, f64>,
    /// Counter *deltas* since the previous sample (zero deltas elided).
    pub counters: BTreeMap<String, u64>,
    /// Per-histogram `[p50, p95, p99]` of the cumulative distribution.
    pub quantiles: BTreeMap<String, [f64; 3]>,
    /// Per-rank values backing `straggler_z` (e.g. compute seconds or
    /// weighted loads); empty when the caller has no rank ensemble.
    pub ranks: Vec<f64>,
    /// Names of alert rules that fired on this sample.
    pub alerts: Vec<String>,
}

impl TelemetrySample {
    /// Serialize as one `cubesfc-telemetry-v1` NDJSON line (no trailing
    /// newline). Field and key order are fixed, so identical samples
    /// produce identical bytes.
    pub fn to_json_line(&self) -> String {
        let mut w = JsonWriter::with_capacity(Layout::Compact, 160);
        w.begin_object().field("schema", TELEMETRY_SCHEMA);
        w.field("seq", self.seq).field("lane", &self.lane);
        w.field("step", self.step).map("gauges", &self.gauges);
        w.map("counters", &self.counters);
        w.key("quantiles").begin_object();
        for (name, q) in &self.quantiles {
            w.array(name, q);
        }
        w.end_object().array("ranks", &self.ranks);
        w.array("alerts", &self.alerts).end_object().finish()
    }

    /// Rebuild a sample from a parsed NDJSON line.
    pub fn from_json(doc: &JsonValue) -> Result<TelemetrySample, String> {
        doc.expect_schema(TELEMETRY_SCHEMA)?;
        // Non-finite values travel as `null`.
        let num = |v: &JsonValue| match v {
            JsonValue::Null => Some(f64::NAN),
            other => other.as_f64(),
        };
        let mut sample = TelemetrySample {
            seq: doc.req_u64("seq", "sample")?,
            lane: doc.req_str("lane", "sample")?.to_string(),
            step: doc.req_u64("step", "sample")?,
            ..TelemetrySample::default()
        };
        for (k, v) in doc.opt_obj("gauges").into_iter().flatten() {
            let v = num(v).ok_or_else(|| format!("gauge {k}: not a number"))?;
            sample.gauges.insert(k.clone(), v);
        }
        for (k, v) in doc.opt_obj("counters").into_iter().flatten() {
            let v = v
                .as_u64()
                .ok_or_else(|| format!("counter {k}: not a u64"))?;
            sample.counters.insert(k.clone(), v);
        }
        for (k, v) in doc.opt_obj("quantiles").into_iter().flatten() {
            let arr = v
                .as_arr()
                .filter(|a| a.len() == 3)
                .ok_or_else(|| format!("quantiles {k}: not a 3-array"))?;
            let mut q = [0.0; 3];
            for (slot, item) in q.iter_mut().zip(arr) {
                *slot = num(item).ok_or_else(|| format!("quantiles {k}: not a number"))?;
            }
            sample.quantiles.insert(k.clone(), q);
        }
        for item in doc.opt_arr("ranks").into_iter().flatten() {
            sample.ranks.push(num(item).ok_or("ranks: not a number")?);
        }
        for item in doc.opt_arr("alerts").into_iter().flatten() {
            let alert = item.as_str().ok_or("alerts: not a string")?;
            sample.alerts.push(alert.to_string());
        }
        Ok(sample)
    }
}

/// Parse a whole `cubesfc-telemetry-v1` NDJSON stream (blank lines
/// ignored). Errors carry the 1-based line number.
pub fn parse_telemetry(text: &str) -> Result<Vec<TelemetrySample>, String> {
    read_ndjson(text, TelemetrySample::from_json).map_err(|e| e.to_string())
}

// ---------------------------------------------------------------------------
// Series bank: bounded per-metric history + summary rendering

/// Bounded per-metric history built from ingested samples; the live
/// sampler and the `telemetry report` replay both render through it, so
/// the on-line summary and the off-line one are the same code path.
#[derive(Debug)]
pub struct SeriesBank {
    capacity: usize,
    /// `lane/gauge` → history.
    gauges: BTreeMap<String, Series>,
    /// lane → one series per rank.
    ranks: BTreeMap<String, Vec<Series>>,
    /// Fire log: (rule, lane, step), bounded like everything else.
    alerts: Ring<(String, String, u64)>,
    total_alerts: u64,
    samples: u64,
}

impl SeriesBank {
    /// A bank whose series each retain `capacity` points.
    pub fn new(capacity: usize) -> SeriesBank {
        SeriesBank {
            capacity,
            gauges: BTreeMap::new(),
            ranks: BTreeMap::new(),
            alerts: Ring::new(capacity),
            total_alerts: 0,
            samples: 0,
        }
    }

    /// Fold one sample into the per-metric histories.
    pub fn ingest(&mut self, s: &TelemetrySample) {
        self.samples += 1;
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
            self.total_alerts += 1;
            self.alerts.push((a.clone(), s.lane.clone(), s.step));
        }
    }

    /// Total alerts across all ingested samples.
    pub fn total_alerts(&self) -> u64 {
        self.total_alerts
    }

    /// Render the fixed-width terminal summary: per-gauge statistics
    /// with trend sparklines, per-rank rows on a shared scale, and the
    /// alert log.
    pub fn render(&self, dropped_samples: u64) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "telemetry: {} sample(s), {} dropped, lanes: {}",
            self.samples,
            dropped_samples,
            if self.ranks.is_empty() && self.gauges.is_empty() {
                "-".to_string()
            } else {
                let mut lanes: Vec<&str> = self
                    .gauges
                    .keys()
                    .filter_map(|k| k.split('/').next())
                    .collect();
                lanes.dedup();
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
                let _ = writeln!(
                    out,
                    "{name:<34} {:>10.4} {:>10.4} {:>10.4} {:>10.4}  {}",
                    series.last(),
                    min,
                    mean,
                    max,
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
                let _ = writeln!(
                    out,
                    "  rank {r:>4}  {}  last={:.4}",
                    sparkline_scaled(&series.values(), SPARK_WIDTH, lo, hi),
                    series.last()
                );
            }
            if shown < rows.len() {
                let _ = writeln!(
                    out,
                    "  ({} more rank(s) not shown; the NDJSON stream has them all)",
                    rows.len() - shown
                );
            }
        }

        if self.total_alerts == 0 {
            let _ = writeln!(out, "\nalerts: none fired");
        } else {
            let _ = writeln!(out, "\nalerts: {} fired", self.total_alerts);
            for (rule, lane, step) in self.alerts.iter() {
                let _ = writeln!(out, "  {rule:<20} lane={lane} step={step}");
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Sampler

struct SamplerState {
    seq: u64,
    /// Minimum nanoseconds between recorded samples (0 = every call).
    interval_ns: u64,
    last_sample_ns: Option<u64>,
    samples: Ring<TelemetrySample>,
    bank: SeriesBank,
    /// Cumulative counter values at the previous sample (delta base).
    last_counters: BTreeMap<String, u64>,
    engine: AlertEngine,
    rules: Vec<AlertRule>,
    /// lane → first observed `lb_measured` (the drift baseline).
    baseline_lb: BTreeMap<String, f64>,
    total_alerts: u64,
}

struct SamplerInner {
    clock: Arc<dyn Clock>,
    registry: Registry,
    state: Mutex<SamplerState>,
}

/// Snapshots the metrics registry (plus caller gauges and rank
/// ensembles) into a bounded, delta-encoded telemetry stream. Cheap to
/// clone; clones share the same stream.
#[derive(Clone)]
pub struct Sampler {
    inner: Arc<SamplerInner>,
}

impl Sampler {
    /// A sampler over `registry` with real time and default capacity.
    pub fn new(registry: Registry) -> Sampler {
        Sampler::with_clock_and_capacity(
            Arc::new(MonotonicClock::new()),
            registry,
            DEFAULT_SAMPLE_CAPACITY,
        )
    }

    /// Full-control constructor (tests inject a
    /// [`MockClock`](crate::MockClock) and a small window).
    pub fn with_clock_and_capacity(
        clock: Arc<dyn Clock>,
        registry: Registry,
        capacity: usize,
    ) -> Sampler {
        let rules = default_rules();
        Sampler {
            inner: Arc::new(SamplerInner {
                clock,
                registry,
                state: Mutex::new(SamplerState {
                    seq: 0,
                    interval_ns: 0,
                    last_sample_ns: None,
                    samples: Ring::new(capacity),
                    bank: SeriesBank::new(capacity),
                    last_counters: BTreeMap::new(),
                    engine: AlertEngine::new(rules.clone()),
                    rules,
                    baseline_lb: BTreeMap::new(),
                    total_alerts: 0,
                }),
            }),
        }
    }

    fn state(&self) -> std::sync::MutexGuard<'_, SamplerState> {
        self.inner.state.lock().expect("telemetry state poisoned")
    }

    /// Replace the alert rule set (rearms everything).
    pub fn set_rules(&self, rules: Vec<AlertRule>) {
        let mut st = self.state();
        st.engine = AlertEngine::new(rules.clone());
        st.rules = rules;
    }

    /// Set the sampling cadence: calls closer together than
    /// `interval_ns` are suppressed (0 = record every call). The clock
    /// is injectable, so cadence is mock-clock-testable.
    pub fn set_interval_ns(&self, interval_ns: u64) {
        self.state().interval_ns = interval_ns;
    }

    /// Record one sample on `lane` at `step`. Returns `false` when the
    /// cadence suppressed it.
    ///
    /// `gauges` are instantaneous values (the sampler adds derived
    /// ones); `ranks` is the per-rank ensemble driving `straggler_z`
    /// (pass `&[]` when there is none).
    pub fn record(&self, lane: &str, step: u64, gauges: &[(&str, f64)], ranks: &[f64]) -> bool {
        let now = self.inner.clock.now_ns();
        let snap = self.inner.registry.snapshot();
        let mut st = self.state();
        if st.interval_ns > 0 {
            if let Some(last) = st.last_sample_ns {
                if now.saturating_sub(last) < st.interval_ns {
                    return false;
                }
            }
        }
        st.last_sample_ns = Some(now);

        let mut gauge_map: BTreeMap<String, f64> =
            gauges.iter().map(|(k, v)| (k.to_string(), *v)).collect();
        if !ranks.is_empty() {
            let (_, z) = straggler_z(ranks);
            gauge_map.insert("straggler_z".to_string(), z);
        }
        if let Some(&lb) = gauge_map.get("lb_measured") {
            let base = *st.baseline_lb.entry(lane.to_string()).or_insert(lb);
            gauge_map.insert("lb_drift".to_string(), lb - base);
        }

        let mut counters = BTreeMap::new();
        for (name, &cur) in &snap.counters {
            let prev = st.last_counters.get(name).copied().unwrap_or(0);
            let delta = cur.saturating_sub(prev);
            if delta > 0 {
                counters.insert(name.clone(), delta);
            }
            st.last_counters.insert(name.clone(), cur);
        }
        let quantiles: BTreeMap<String, [f64; 3]> = snap
            .histograms
            .iter()
            .map(|(name, h)| {
                (
                    name.clone(),
                    [h.quantile(0.50), h.quantile(0.95), h.quantile(0.99)],
                )
            })
            .collect();

        let alerts = st.engine.observe(&gauge_map);
        st.total_alerts += alerts.len() as u64;

        let sample = TelemetrySample {
            seq: st.seq,
            lane: lane.to_string(),
            step,
            gauges: gauge_map,
            counters,
            quantiles,
            ranks: ranks.to_vec(),
            alerts,
        };
        st.seq += 1;
        st.bank.ingest(&sample);
        st.samples.push(sample);
        true
    }

    /// Samples currently retained (oldest first).
    pub fn samples(&self) -> Vec<TelemetrySample> {
        self.state().samples.iter().cloned().collect()
    }

    /// Number of retained samples.
    pub fn sample_count(&self) -> usize {
        self.state().samples.len()
    }

    /// Exact number of samples evicted by the window bound.
    pub fn dropped_samples(&self) -> u64 {
        self.state().samples.dropped()
    }

    /// Total alerts fired since creation (including on evicted samples).
    pub fn total_alerts(&self) -> u64 {
        self.state().total_alerts
    }

    /// Export the retained window as `cubesfc-telemetry-v1` NDJSON (one
    /// line per sample, trailing newline).
    pub fn export_ndjson(&self) -> String {
        let st = self.state();
        st.samples.iter().map(|s| s.to_json_line() + "\n").collect()
    }

    /// Render the terminal summary of the retained window.
    pub fn render_summary(&self) -> String {
        let st = self.state();
        let dropped = st.samples.dropped();
        st.bank.render(dropped)
    }

    /// Clear all samples, baselines, and alert state; the rule set and
    /// cadence survive.
    pub fn reset(&self) {
        let mut st = self.state();
        st.seq = 0;
        st.last_sample_ns = None;
        st.samples.clear();
        let capacity = st.bank.capacity;
        st.bank = SeriesBank::new(capacity);
        st.last_counters.clear();
        let rules = st.rules.clone();
        st.engine = AlertEngine::new(rules);
        st.baseline_lb.clear();
        st.total_alerts = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MockClock;

    fn sampler(capacity: usize) -> (Sampler, Arc<MockClock>, Registry) {
        let clock = Arc::new(MockClock::new());
        let reg = Registry::new();
        let s = Sampler::with_clock_and_capacity(clock.clone(), reg.clone(), capacity);
        (s, clock, reg)
    }

    #[test]
    fn samples_carry_counter_deltas_not_totals() {
        let (s, _, reg) = sampler(16);
        reg.counter_add("work", 10);
        s.record("lane", 0, &[], &[]);
        reg.counter_add("work", 5);
        s.record("lane", 1, &[], &[]);
        s.record("lane", 2, &[], &[]);
        let samples = s.samples();
        assert_eq!(samples[0].counters["work"], 10);
        assert_eq!(samples[1].counters["work"], 5);
        // Unchanged counter: elided entirely.
        assert!(!samples[2].counters.contains_key("work"));
    }

    #[test]
    fn quantiles_come_from_histograms() {
        let (s, _, reg) = sampler(16);
        for v in [10u64, 10, 10, 1000] {
            reg.histogram_record("lat", v);
        }
        s.record("lane", 0, &[], &[]);
        let q = s.samples()[0].quantiles["lat"];
        assert!(q[0] >= 8.0 && q[0] <= 15.0, "p50 {} in [8,15]", q[0]);
        assert!(q[2] > q[0], "p99 {} above p50 {}", q[2], q[0]);
    }

    #[test]
    fn derived_gauges_and_alerts_are_stamped() {
        let (s, _, _) = sampler(16);
        let mut ranks = vec![1.0; 16];
        ranks[3] = 3.0;
        s.record("rebalance", 0, &[("lb_measured", 0.1)], &[1.0; 16]);
        s.record("rebalance", 1, &[("lb_measured", 0.3)], &ranks);
        let samples = s.samples();
        assert_eq!(samples[0].gauges["straggler_z"], 0.0);
        assert_eq!(samples[0].gauges["lb_drift"], 0.0);
        let z = samples[1].gauges["straggler_z"];
        assert!(z > 2.5, "z = {z}");
        assert!((samples[1].gauges["lb_drift"] - 0.2).abs() < 1e-12);
        // The default straggler rule fired on the spike, once.
        assert_eq!(samples[1].alerts, vec!["straggler"]);
        assert_eq!(s.total_alerts(), 1);
    }

    #[test]
    fn window_wraparound_counts_drops_exactly() {
        let (s, _, _) = sampler(4);
        for step in 0..10u64 {
            s.record("lane", step, &[("g", step as f64)], &[]);
        }
        assert_eq!(s.sample_count(), 4);
        assert_eq!(s.dropped_samples(), 6);
        let steps: Vec<u64> = s.samples().iter().map(|x| x.step).collect();
        assert_eq!(steps, vec![6, 7, 8, 9]);
        // NDJSON export covers exactly the retained window.
        assert_eq!(s.export_ndjson().lines().count(), 4);
    }

    #[test]
    fn cadence_is_mock_clock_testable() {
        let (s, clock, _) = sampler(16);
        s.set_interval_ns(100);
        assert!(s.record("lane", 0, &[], &[]));
        // Too soon: suppressed.
        clock.advance(40);
        assert!(!s.record("lane", 1, &[], &[]));
        clock.advance(60);
        assert!(s.record("lane", 2, &[], &[]));
        assert_eq!(s.sample_count(), 2);
    }

    #[test]
    fn ndjson_lines_parse_and_round_trip() {
        let (s, _, reg) = sampler(16);
        reg.counter_add("c", 7);
        reg.histogram_record("h", 100);
        s.record("lane \"x\"", 3, &[("lb_measured", 0.25)], &[1.0, 2.0]);
        let text = s.export_ndjson();
        let parsed = parse_telemetry(&text).unwrap();
        assert_eq!(parsed, s.samples());
        // Re-serializing the parsed sample reproduces the bytes.
        assert_eq!(format!("{}\n", parsed[0].to_json_line()), text);
    }

    #[test]
    fn streams_are_byte_identical_across_runs() {
        let run = || {
            let (s, clock, reg) = sampler(32);
            for step in 0..20u64 {
                clock.advance(1_000);
                reg.counter_add("ops", step);
                reg.histogram_record("size", 1 << (step % 11));
                let lb = 0.01 * step as f64;
                let mut ranks = vec![1.0; 8];
                ranks[(step % 8) as usize] = 1.0 + lb;
                s.record("rebalance", step, &[("lb_measured", lb)], &ranks);
            }
            s.export_ndjson()
        };
        assert_eq!(run(), run());
        // reset() restores a fresh stream on the same sampler, too.
        let (s, _, _) = sampler(8);
        s.record("lane", 0, &[("g", 1.0)], &[]);
        let first = s.export_ndjson();
        s.reset();
        assert_eq!(s.sample_count(), 0);
        assert_eq!(s.dropped_samples(), 0);
        s.record("lane", 0, &[("g", 1.0)], &[]);
        assert_eq!(s.export_ndjson(), first);
    }

    #[test]
    fn summary_renders_gauges_ranks_and_alerts() {
        let (s, _, _) = sampler(16);
        let mut ranks = vec![1.0; 6];
        for step in 0..5u64 {
            if step >= 2 {
                ranks[0] = 4.0;
            }
            s.record(
                "rebalance",
                step,
                &[("lb_measured", 0.1 * step as f64)],
                &ranks,
            );
        }
        let text = s.render_summary();
        assert!(text.contains("telemetry: 5 sample(s)"), "{text}");
        assert!(text.contains("rebalance/lb_measured"), "{text}");
        assert!(text.contains("rank    0"), "{text}");
        assert!(text.contains("alerts:"), "{text}");
        // The replay path renders identically through the same bank.
        let mut bank = SeriesBank::new(16);
        for sample in s.samples() {
            bank.ingest(&sample);
        }
        assert_eq!(bank.render(s.dropped_samples()), text);
    }

    #[test]
    fn malformed_streams_are_rejected_with_line_numbers() {
        assert!(parse_telemetry("").unwrap().is_empty());
        let err = parse_telemetry("{\"schema\":\"nope\"}").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        let good = {
            let (s, _, _) = sampler(4);
            s.record("l", 0, &[], &[]);
            s.export_ndjson()
        };
        let err = parse_telemetry(&format!("{good}not json\n")).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }
}
