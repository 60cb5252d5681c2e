//! Trace replay & analysis: wait-state decomposition, cross-rank
//! critical path, and imbalance attribution over `cubesfc-trace-v1`.
//!
//! The Chrome-trace exporter (`chrome.rs`) records *what happened*;
//! this module explains *where the time went*. [`analyze_trace`]
//! replays an exported trace document back into per-lane interval
//! timelines — tolerating unbalanced begin/end pairs and drop-newest
//! truncation — and computes the three things the paper's Eq.-(1)
//! argument needs:
//!
//! 1. **Wait-state decomposition** — per-rank seconds spent in each
//!    slice phase (`compute`/`pack`/`wait`/`scatter`, plus whatever
//!    else the trace names). Phase buckets are accumulated in integer
//!    nanoseconds over *all* slices, so their sum equals the summed raw
//!    slice durations exactly — no float drift, no double counting.
//! 2. **Cross-rank critical path** — the solver's step structure (a
//!    `steps` lane, when present) cuts the run into segments; each
//!    segment contributes its bottleneck rank's *productive* (top-level
//!    non-`wait`) time, giving Σ_steps max_rank(work) with per-phase
//!    contribution percentages and a *slowest-rank chain*: which ranks
//!    were the bottleneck, charged with the wait they induced on the
//!    others. Wait is excluded deliberately: in a barrier-synchronized
//!    step every rank's wall occupancy ties, but the rank still working
//!    while the others sit in `wait` is the one holding the step open.
//! 3. **Imbalance attribution** — Eq.-(1) LB
//!    ([`cubesfc_graph::load_balance_f64`]) on traced compute seconds
//!    per step, against the partitioner's element-count LB (from the
//!    `elements` args on compute slices); the gap is the imbalance the
//!    partitioner did not predict, and the measured wait is blamed on
//!    communication volume priced by the α/β terms of the NCAR P690
//!    machine model ([`MachineModel::alpha_beta`]).
//!
//! 4. **Counter tracks and alerts** — `C` events are grouped by name
//!    into [`CounterTrack`]s in document order. Each sample gains the
//!    derived health gauges `straggler_z` (worst `rank <n>` entry against
//!    the ensemble) and `lb_drift` (`lb_measured` against the track's
//!    first), and one [`AlertEngine`] per track runs
//!    [`default_rules`] over them.
//!
//! `cubesfc-obs` records the trace; this module, in the domain crate,
//! explains it with the domain's own Eq. (1) and machine model.
//!
//! Everything here is a pure function of the trace bytes — no clocks,
//! no environment — so [`TraceAnalysis::to_json`] (schema
//! `cubesfc-analysis-v1`) is byte-identical across replays of the same
//! trace, and pinnable in tests.

use cubesfc_graph::load_balance_f64;
use cubesfc_obs::{
    default_rules, load_doc, render_samples, straggler_z, AlertEngine, JsonValue, JsonWriter,
    Layout, SeriesSample, TRACE_SCHEMA,
};
use cubesfc_seam::MachineModel;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Schema tag written to every analysis document.
pub const ANALYSIS_SCHEMA: &str = "cubesfc-analysis-v1";

/// One reconstructed interval on a lane.
#[derive(Clone, Debug)]
pub struct Slice {
    /// Slice (phase) name from the `B` event.
    pub name: String,
    /// Start timestamp (ns).
    pub start_ns: u64,
    /// Duration (ns); zero-duration slices are legal.
    pub dur_ns: u64,
    /// Nesting depth (0 = top level). Only top-level slices count
    /// toward busy time and the critical path; *all* slices count
    /// toward the phase decomposition.
    pub depth: u32,
    /// The `elements` arg on the opening event (0 when absent) — the
    /// partitioner's element count for compute slices.
    pub elements: u64,
}

impl Slice {
    fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }

    /// Nanoseconds of this slice inside the window `[a, b)`.
    fn overlap_ns(&self, a: u64, b: u64) -> u64 {
        self.end_ns().min(b).saturating_sub(self.start_ns.max(a))
    }

    /// Whether the slice begins inside the window `[a, b)` (how
    /// zero-duration slices and per-step args are assigned a segment).
    fn starts_in(&self, a: u64, b: u64) -> bool {
        self.start_ns >= a && self.start_ns < b
    }
}

/// One lane's reconstructed timeline.
#[derive(Clone, Debug, Default)]
pub struct LaneTimeline {
    /// Lane name (from `thread_name` metadata; `tid <n>` fallback).
    pub name: String,
    /// Completed slices in start order.
    pub slices: Vec<Slice>,
    /// Instant-mark count.
    pub instants: u64,
    /// `E` events that arrived with no open slice (unbalanced input —
    /// the matching `B` was truncated away).
    pub unmatched_ends: u64,
    /// `B` events whose `E` never arrived (drop-newest truncation);
    /// closed at the lane's last observed timestamp, so their time is
    /// kept — possibly undercounted, never invented.
    pub unclosed_begins: u64,
    /// First timestamp observed on the lane (ns).
    pub first_ns: u64,
    /// Last timestamp observed on the lane (ns).
    pub last_ns: u64,
    /// Σ of `bytes` args over the lane's events.
    pub bytes: u64,
    /// Σ of `messages` args; events carrying `bytes` but no explicit
    /// `messages` count (e.g. `send`/`recv` instants) count as one
    /// message each.
    pub messages: u64,
}

impl LaneTimeline {
    /// Σ durations over *all* slices (any depth). The phase
    /// decomposition sums to exactly this.
    pub fn total_slice_ns(&self) -> u64 {
        self.slices.iter().map(|s| s.dur_ns).sum()
    }

    /// Σ durations over top-level slices only (never double-counts
    /// nested time).
    pub fn busy_ns(&self) -> u64 {
        self.slices
            .iter()
            .filter(|s| s.depth == 0)
            .map(|s| s.dur_ns)
            .sum()
    }

    /// Wall extent the lane was live for (ns).
    pub fn extent_ns(&self) -> u64 {
        self.last_ns.saturating_sub(self.first_ns)
    }

    /// Fraction of the lane's extent covered by top-level slices.
    pub fn utilization(&self) -> f64 {
        let extent = self.extent_ns();
        if extent == 0 {
            return 0.0;
        }
        self.busy_ns() as f64 / extent as f64
    }

    /// Per-phase nanoseconds, keyed by slice name, over all slices.
    pub fn phase_ns(&self) -> BTreeMap<String, u64> {
        let mut map = BTreeMap::new();
        for s in &self.slices {
            *map.entry(s.name.clone()).or_insert(0u64) += s.dur_ns;
        }
        map
    }

    /// `wait` nanoseconds as a fraction of all sliced nanoseconds.
    pub fn wait_fraction(&self) -> f64 {
        let total = self.total_slice_ns();
        if total == 0 {
            return 0.0;
        }
        self.phase_ns().get("wait").copied().unwrap_or(0) as f64 / total as f64
    }
}

/// The slowest-rank chain: who the other ranks waited for.
#[derive(Clone, Copy, Debug)]
pub struct Straggler {
    /// The rank that was the per-segment bottleneck most often.
    pub rank: usize,
    /// How many segments it bottlenecked.
    pub bottleneck_segments: usize,
    /// Other ranks' `wait` seconds in the segments this rank
    /// bottlenecked — the wait attributed to it.
    pub attributed_wait_s: f64,
}

/// Aggregates over the `rank <n>` lanes.
#[derive(Clone, Debug, Default)]
pub struct RankSummary {
    /// Sorted rank indices present in the trace.
    pub ranks: Vec<usize>,
    /// Nanoseconds per phase name, summed over all rank lanes. Sums
    /// exactly (integer arithmetic) to `total_ns`.
    pub decomposition_ns: BTreeMap<String, u64>,
    /// Σ sliced nanoseconds over all rank lanes.
    pub total_ns: u64,
    /// `wait` nanoseconds over all rank lanes.
    pub wait_ns: u64,
    /// The slowest-rank chain (None without rank lanes or segments).
    pub straggler: Option<Straggler>,
    /// `[segment][rank]` productive (top-level non-`wait`) seconds,
    /// feeding the sparkline rows — the straggler towers visibly where
    /// wall occupancy would tie at the barrier.
    pub per_segment_work: Vec<Vec<f64>>,
}

impl RankSummary {
    /// `wait_ns / total_ns` (0 when no sliced time).
    pub fn wait_fraction(&self) -> f64 {
        if self.total_ns == 0 {
            return 0.0;
        }
        self.wait_ns as f64 / self.total_ns as f64
    }
}

/// The cross-rank critical path through the step structure.
#[derive(Clone, Debug, Default)]
pub struct CriticalPath {
    /// Σ over segments of the bottleneck rank's productive (top-level
    /// non-`wait`) seconds.
    pub seconds: f64,
    /// Segment count (steps when a `steps` lane exists, else 1).
    pub segments: usize,
    /// Seconds each phase contributed along the path (bottleneck ranks'
    /// top-level non-`wait` slices, so each nanosecond is attributed
    /// once).
    pub phases: BTreeMap<String, f64>,
    /// `(rank, segments bottlenecked)` for every rank, in rank order.
    pub bottlenecks: Vec<(usize, usize)>,
}

/// Measured-vs-predicted imbalance attribution.
#[derive(Clone, Debug, Default)]
pub struct Imbalance {
    /// Eq.-(1) LB on traced compute seconds, mean over segments.
    pub lb_measured_mean: f64,
    /// Worst-segment Eq.-(1) LB on traced compute seconds.
    pub lb_measured_max: f64,
    /// Eq.-(1) LB on the `elements` args, mean over segments.
    pub lb_elements_mean: f64,
    /// Worst-segment element-count LB.
    pub lb_elements_max: f64,
    /// `lb_measured_mean - lb_elements_mean`: imbalance the partitioner
    /// did not predict.
    pub gap: f64,
    /// Σ `bytes` args over rank lanes.
    pub bytes_total: u64,
    /// Σ message counts over rank lanes.
    pub messages: u64,
    /// `α·messages + bytes/β` — what the machine model says the traced
    /// comm volume should cost.
    pub predicted_comm_s: f64,
    /// How much of the measured wait the α/β comm model explains
    /// (capped at 1; the rest is synchronization imbalance).
    pub comm_blame_fraction: f64,
}

/// One counter track: the `C` events of one name, in document order.
#[derive(Clone, Debug, Default)]
pub struct CounterTrack {
    /// The events' `name`.
    pub name: String,
    /// One sample per event, on lane `name` with `seq` = its ordinal on
    /// the track: the recorded values minus the `rank <n>` entries plus
    /// the derived gauges, the `rank <n>` entries by rank (NaN where a
    /// rank is missing), and the alert rules it fired.
    pub samples: Vec<SeriesSample>,
}

impl CounterTrack {
    /// Derive the health gauges of each raw sample and run
    /// [`default_rules`] over them, in order.
    fn new(name: String, raw: Vec<BTreeMap<String, f64>>) -> CounterTrack {
        let mut engine = AlertEngine::new(default_rules());
        let mut baseline_lb = None;
        let mut samples = Vec::with_capacity(raw.len());
        for (seq, values) in raw.into_iter().enumerate() {
            let mut gauges = BTreeMap::new();
            let mut ranks = Vec::new();
            // A dense ensemble's indices are below the entry count; a
            // larger index stays a plain gauge, so hostile input cannot
            // size the rank vector.
            let n = values.len();
            for (key, v) in values {
                match rank_index(&key).filter(|&r| r < n) {
                    Some(r) => {
                        if ranks.len() <= r {
                            ranks.resize(r + 1, f64::NAN);
                        }
                        ranks[r] = v;
                    }
                    None => {
                        gauges.insert(key, v);
                    }
                }
            }
            if !ranks.is_empty() {
                gauges.insert("straggler_z".to_string(), straggler_z(&ranks).1);
            }
            if let Some(&lb) = gauges.get("lb_measured") {
                let base = *baseline_lb.get_or_insert(lb);
                gauges.insert("lb_drift".to_string(), lb - base);
            }
            let alerts = engine.observe(&gauges);
            samples.push(SeriesSample {
                seq: seq as u64,
                lane: name.clone(),
                gauges,
                ranks,
                alerts,
            });
        }
        CounterTrack { name, samples }
    }

    /// `(rule, sample ordinal)` of every alert fired on the track.
    pub fn alerts<'a>(&'a self) -> impl Iterator<Item = (&'a str, u64)> {
        let fired = |s: &'a SeriesSample| s.alerts.iter().map(move |a| (a.as_str(), s.seq));
        self.samples.iter().flat_map(fired)
    }
}

/// The full analysis of one trace document.
#[derive(Clone, Debug)]
pub struct TraceAnalysis {
    /// `droppedEvents` from the trace's `otherData`.
    pub dropped_events: u64,
    /// Per-lane timelines, sorted by lane name.
    pub lanes: Vec<LaneTimeline>,
    /// Rank-lane aggregates.
    pub ranks: RankSummary,
    /// The cross-rank critical path.
    pub critical_path: CriticalPath,
    /// Imbalance attribution.
    pub imbalance: Imbalance,
    /// Counter tracks, sorted by name.
    pub counters: Vec<CounterTrack>,
}

/// `rank <n>` lane names carry their rank index.
fn rank_index(name: &str) -> Option<usize> {
    let digits = name.strip_prefix("rank ")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// `ts` fields are decimal microseconds with three places; recover the
/// exact integer nanoseconds.
fn ts_to_ns(v: &JsonValue) -> Option<u64> {
    let us = v.as_f64()?;
    if !us.is_finite() || us < 0.0 {
        return None;
    }
    Some((us * 1000.0).round() as u64)
}

fn arg_u64(ev: &JsonValue, key: &str) -> Option<u64> {
    ev.get("args")?.opt_u64(key)
}

/// Parse and analyze a `cubesfc-trace-v1` document in one call
/// ([`analyze_doc`] through [`load_doc`], classes merged).
pub fn analyze_trace(text: &str) -> Result<TraceAnalysis, String> {
    load_doc(text, analyze_doc).map_err(|e| e.to_string())
}

/// Analyze a parsed `cubesfc-trace-v1` document.
pub fn analyze_doc(doc: &JsonValue) -> Result<TraceAnalysis, String> {
    // The trace's version tag lives under `otherData` (the Trace Event
    // Format reserves the top level).
    let other = doc.get("otherData").unwrap_or(&JsonValue::Null);
    other.expect_schema(TRACE_SCHEMA)?;
    let dropped_events = other.opt_u64("droppedEvents").unwrap_or(0);
    let events = doc.req_arr("traceEvents", "trace")?;

    // Pass 1: tid → lane name from the thread_name metadata the
    // exporter guarantees (chrome.rs), timeline events bucketed per tid
    // in document order — the exporter's stable time sort preserves
    // each lane's begin/end order.
    let mut names: BTreeMap<u64, String> = BTreeMap::new();
    let mut per_tid: BTreeMap<u64, Vec<&JsonValue>> = BTreeMap::new();
    let mut counters: BTreeMap<String, Vec<BTreeMap<String, f64>>> = BTreeMap::new();
    for ev in events {
        if ev.opt_str("ph") == Some("C") {
            // Non-finite values travel as `null`.
            let values = ev.get("args").and_then(JsonValue::as_obj).into_iter();
            let values = values
                .flatten()
                .map(|(k, v)| (k.clone(), v.as_f64().unwrap_or(f64::NAN)));
            let name = ev.opt_str("name").unwrap_or("<unnamed>").to_string();
            counters.entry(name).or_default().push(values.collect());
            continue;
        }
        let Some(tid) = ev.opt_u64("tid") else {
            continue;
        };
        match ev.opt_str("ph") {
            Some("M") if ev.opt_str("name") == Some("thread_name") => {
                if let Some(name) = ev.get("args").and_then(|a| a.opt_str("name")) {
                    names.insert(tid, name.to_string());
                }
            }
            Some("B" | "E" | "i") => per_tid.entry(tid).or_default().push(ev),
            _ => {}
        }
    }

    // Pass 2: per-tid interval reconstruction via a begin stack.
    let mut lanes: Vec<LaneTimeline> = Vec::with_capacity(per_tid.len().max(names.len()));
    for (tid, evs) in &per_tid {
        let mut lane = LaneTimeline {
            name: names
                .get(tid)
                .cloned()
                .unwrap_or_else(|| format!("tid {tid}")),
            first_ns: u64::MAX,
            ..LaneTimeline::default()
        };
        // Open begins: (name, start_ns, elements arg).
        let mut stack: Vec<(String, u64, u64)> = Vec::new();
        for ev in evs {
            let Some(ts) = ev.get("ts").and_then(ts_to_ns) else {
                continue; // unreadable timestamp: not a timeline event
            };
            lane.first_ns = lane.first_ns.min(ts);
            lane.last_ns = lane.last_ns.max(ts);
            let bytes = arg_u64(ev, "bytes");
            lane.bytes += bytes.unwrap_or(0);
            // Bytes without an explicit count are one message.
            lane.messages += arg_u64(ev, "messages").unwrap_or(u64::from(bytes.is_some()));
            match ev.opt_str("ph") {
                Some("B") => {
                    let name = ev.opt_str("name").unwrap_or("<unnamed>").to_string();
                    stack.push((name, ts, arg_u64(ev, "elements").unwrap_or(0)));
                }
                Some("E") => match stack.pop() {
                    Some((name, start, elements)) => lane.slices.push(Slice {
                        name,
                        start_ns: start,
                        dur_ns: ts.saturating_sub(start),
                        depth: stack.len() as u32,
                        elements,
                    }),
                    None => lane.unmatched_ends += 1,
                },
                Some("i") => lane.instants += 1,
                _ => {}
            }
        }
        // Drop-newest truncation loses the tail of a lane's stream:
        // close surviving begins at the lane's last timestamp.
        let last = lane.last_ns;
        while let Some((name, start, elements)) = stack.pop() {
            lane.unclosed_begins += 1;
            lane.slices.push(Slice {
                name,
                start_ns: start,
                dur_ns: last.saturating_sub(start),
                depth: stack.len() as u32,
                elements,
            });
        }
        if lane.first_ns == u64::MAX {
            lane.first_ns = 0;
        }
        lane.slices.sort_by(|a, b| {
            (a.start_ns, a.depth, a.name.as_str()).cmp(&(b.start_ns, b.depth, b.name.as_str()))
        });
        lanes.push(lane);
    }
    // Lanes that registered but never recorded still get a row.
    for (tid, name) in &names {
        if !per_tid.contains_key(tid) {
            lanes.push(LaneTimeline {
                name: name.clone(),
                ..LaneTimeline::default()
            });
        }
    }
    lanes.sort_by(|a, b| a.name.cmp(&b.name));

    let mut analysis = build_analysis(dropped_events, lanes);
    analysis.counters = counters
        .into_iter()
        .map(|(name, raw)| CounterTrack::new(name, raw))
        .collect();
    Ok(analysis)
}

/// Segment boundaries from the `steps` lane's `step` slices, or one
/// whole-run segment over the rank lanes' extent.
fn segments_of(lanes: &[LaneTimeline], by_rank: &[&LaneTimeline]) -> Vec<(u64, u64)> {
    if let Some(steps) = lanes.iter().find(|l| l.name == "steps") {
        let segs: Vec<(u64, u64)> = steps
            .slices
            .iter()
            .filter(|s| s.name == "step")
            .map(|s| (s.start_ns, s.end_ns()))
            .collect();
        if !segs.is_empty() {
            return segs;
        }
    }
    let lo = by_rank.iter().map(|l| l.first_ns).min().unwrap_or(0);
    let hi = by_rank.iter().map(|l| l.last_ns).max().unwrap_or(0);
    if hi > lo {
        vec![(lo, hi)]
    } else {
        Vec::new()
    }
}

fn build_analysis(dropped_events: u64, lanes: Vec<LaneTimeline>) -> TraceAnalysis {
    // Rank lanes in numeric rank order (lexicographic name order would
    // put "rank 10" before "rank 2").
    let mut by_rank: Vec<&LaneTimeline> = lanes
        .iter()
        .filter(|l| rank_index(&l.name).is_some())
        .collect();
    by_rank.sort_by_key(|l| rank_index(&l.name).unwrap());
    let rank_ids: Vec<usize> = by_rank
        .iter()
        .map(|l| rank_index(&l.name).unwrap())
        .collect();

    let segments = segments_of(&lanes, &by_rank);

    // Wait-state decomposition: integer nanoseconds over all slices of
    // the rank lanes, so Σ buckets == Σ raw slice durations exactly.
    let mut decomposition_ns: BTreeMap<String, u64> = BTreeMap::new();
    let mut total_ns = 0u64;
    for lane in &by_rank {
        for (name, ns) in lane.phase_ns() {
            *decomposition_ns.entry(name).or_insert(0) += ns;
        }
        total_ns += lane.total_slice_ns();
    }
    let wait_ns = decomposition_ns.get("wait").copied().unwrap_or(0);

    // Per-segment bottleneck chain, critical path, and Eq.-(1) series.
    let nseg = segments.len();
    let mut per_segment_work = vec![vec![0.0f64; by_rank.len()]; nseg];
    let mut bottleneck_counts: BTreeMap<usize, usize> = rank_ids.iter().map(|&r| (r, 0)).collect();
    let mut attributed_wait: BTreeMap<usize, f64> = rank_ids.iter().map(|&r| (r, 0.0)).collect();
    let mut cp_seconds = 0.0;
    let mut cp_phases: BTreeMap<String, f64> = BTreeMap::new();
    let mut lb_measured = Vec::with_capacity(nseg);
    let mut lb_elements = Vec::with_capacity(nseg);
    for (k, &(a, b)) in segments.iter().enumerate() {
        let n = by_rank.len();
        let mut work = vec![0.0f64; n];
        let mut waits = vec![0.0f64; n];
        let mut compute = vec![0.0f64; n];
        let mut elements = vec![0.0f64; n];
        for (i, lane) in by_rank.iter().enumerate() {
            for s in &lane.slices {
                let secs = s.overlap_ns(a, b) as f64 / 1e9;
                if s.depth == 0 && s.name != "wait" {
                    work[i] += secs;
                }
                match s.name.as_str() {
                    "wait" => waits[i] += secs,
                    "compute" => {
                        compute[i] += secs;
                        if s.starts_in(a, b) {
                            elements[i] += s.elements as f64;
                        }
                    }
                    _ => {}
                }
            }
            per_segment_work[k][i] = work[i];
        }
        // Bottleneck: the rank with the most productive time in the
        // segment (first wins on exact ties, for determinism). Wall
        // occupancy would tie at the barrier; work singles out the rank
        // holding the step open.
        let mut bi = None;
        for (i, &v) in work.iter().enumerate() {
            if bi.is_none_or(|j: usize| v > work[j]) {
                bi = Some(i);
            }
        }
        if let Some(bi) = bi {
            let bottleneck_rank = rank_ids[bi];
            *bottleneck_counts.entry(bottleneck_rank).or_insert(0) += 1;
            cp_seconds += work[bi];
            for s in &by_rank[bi].slices {
                let ov = s.overlap_ns(a, b);
                if s.depth == 0 && s.name != "wait" && ov > 0 {
                    *cp_phases.entry(s.name.clone()).or_insert(0.0) += ov as f64 / 1e9;
                }
            }
            let others_wait: f64 = waits
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != bi)
                .map(|(_, w)| w)
                .sum();
            *attributed_wait.entry(bottleneck_rank).or_insert(0.0) += others_wait;
        }
        lb_measured.push(load_balance_f64(&compute));
        lb_elements.push(load_balance_f64(&elements));
    }

    let straggler = bottleneck_counts
        .iter()
        .filter(|&(_, &n)| n > 0)
        .max_by_key(|&(r, &n)| (n, std::cmp::Reverse(*r)))
        .map(|(&rank, &n)| Straggler {
            rank,
            bottleneck_segments: n,
            attributed_wait_s: attributed_wait.get(&rank).copied().unwrap_or(0.0),
        });

    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let maxv = |v: &[f64]| v.iter().fold(0.0f64, |a, &b| a.max(b));

    let bytes_total: u64 = by_rank.iter().map(|l| l.bytes).sum();
    let messages: u64 = by_rank.iter().map(|l| l.messages).sum();
    let (alpha_s, beta_bytes_per_s) = MachineModel::ncar_p690().alpha_beta();
    let predicted_comm_s = messages as f64 * alpha_s + bytes_total as f64 / beta_bytes_per_s;
    let wait_s = wait_ns as f64 / 1e9;
    let comm_blame_fraction = if wait_s > 0.0 {
        (predicted_comm_s / wait_s).min(1.0)
    } else {
        0.0
    };

    let lb_measured_mean = mean(&lb_measured);
    let lb_elements_mean = mean(&lb_elements);

    TraceAnalysis {
        dropped_events,
        ranks: RankSummary {
            ranks: rank_ids,
            decomposition_ns,
            total_ns,
            wait_ns,
            straggler,
            per_segment_work,
        },
        critical_path: CriticalPath {
            seconds: cp_seconds,
            segments: nseg,
            phases: cp_phases,
            bottlenecks: bottleneck_counts.into_iter().collect(),
        },
        imbalance: Imbalance {
            lb_measured_mean,
            lb_measured_max: maxv(&lb_measured),
            lb_elements_mean,
            lb_elements_max: maxv(&lb_elements),
            gap: lb_measured_mean - lb_elements_mean,
            bytes_total,
            messages,
            predicted_comm_s,
            comm_blame_fraction,
        },
        lanes,
        counters: Vec::new(),
    }
}

impl TraceAnalysis {
    /// Alerts fired across every counter track.
    pub fn alerts_fired(&self) -> usize {
        self.counters.iter().map(|t| t.alerts().count()).sum()
    }

    /// Serialize as a `cubesfc-analysis-v1` JSON document. Key order is
    /// fixed and floats use shortest-roundtrip formatting, so the same
    /// trace always produces identical bytes.
    pub fn to_json(&self) -> String {
        const NS: f64 = 1e9;
        let wait_s = self.ranks.wait_ns as f64 / NS;
        let mut w = JsonWriter::with_capacity(Layout::Compact, 1024);
        w.begin_object().field("schema", ANALYSIS_SCHEMA);
        w.field("dropped_events", self.dropped_events);
        w.key("lanes").begin_array();
        for lane in &self.lanes {
            w.begin_object().field("name", &lane.name);
            w.field("slices", lane.slices.len());
            w.field("instants", lane.instants);
            w.field("unmatched_ends", lane.unmatched_ends);
            w.field("unclosed_begins", lane.unclosed_begins);
            w.field("extent_ns", lane.extent_ns());
            w.field("busy_ns", lane.busy_ns());
            w.field("total_slice_ns", lane.total_slice_ns());
            w.field("utilization", lane.utilization());
            w.field("wait_fraction", lane.wait_fraction());
            w.map("phases", lane.phase_ns()).end_object();
        }
        w.end_array();

        w.key("ranks").begin_object();
        w.field("count", self.ranks.ranks.len());
        w.field("segments", self.critical_path.segments);
        w.field("total_s", self.ranks.total_ns as f64 / NS);
        w.field("wait_s", wait_s);
        w.field("wait_fraction", self.ranks.wait_fraction());
        let decomposition = self.ranks.decomposition_ns.iter();
        w.map(
            "decomposition",
            decomposition.map(|(k, ns)| (k, *ns as f64 / NS)),
        );
        w.key("straggler");
        if let Some(st) = &self.ranks.straggler {
            w.begin_object().field("rank", st.rank);
            w.field("bottleneck_segments", st.bottleneck_segments);
            w.field("attributed_wait_s", st.attributed_wait_s);
            w.end_object();
        } else {
            w.null();
        }
        w.end_object();

        let cp = &self.critical_path;
        w.key("critical_path").begin_object();
        w.field("seconds", cp.seconds)
            .field("segments", cp.segments);
        w.key("phases").begin_object();
        for (name, secs) in &cp.phases {
            let pct = if cp.seconds > 0.0 {
                secs / cp.seconds * 100.0
            } else {
                0.0
            };
            w.key(name).begin_object();
            w.field("seconds", secs).field("pct", pct).end_object();
        }
        w.end_object().key("bottlenecks").begin_array();
        for &(rank, count) in &cp.bottlenecks {
            w.begin_array().value(rank).value(count).end_array();
        }
        w.end_array().end_object();

        let im = &self.imbalance;
        w.key("imbalance").begin_object();
        w.field("lb_measured_mean", im.lb_measured_mean);
        w.field("lb_measured_max", im.lb_measured_max);
        w.field("lb_elements_mean", im.lb_elements_mean);
        w.field("lb_elements_max", im.lb_elements_max);
        w.field("gap", im.gap);
        let (alpha_s, beta_bytes_per_s) = MachineModel::ncar_p690().alpha_beta();
        w.key("comm").begin_object();
        w.field("alpha_s", alpha_s);
        w.field("beta_bytes_per_s", beta_bytes_per_s);
        w.field("bytes_total", im.bytes_total);
        w.field("messages", im.messages);
        w.field("predicted_comm_s", im.predicted_comm_s);
        w.field("wait_s", wait_s);
        w.field("comm_blame_fraction", im.comm_blame_fraction);
        w.end_object().end_object();

        // A trace without counter events has no `counters` member.
        if !self.counters.is_empty() {
            w.key("counters").begin_array();
            for track in &self.counters {
                w.begin_object().field("name", &track.name);
                w.field("samples", track.samples.len());
                w.key("alerts").begin_array();
                for (rule, seq) in track.alerts() {
                    w.begin_object().field("rule", rule);
                    w.field("sample", seq).end_object();
                }
                w.end_array().end_object();
            }
            w.end_array();
        }
        w.end_object().finish()
    }

    /// Render the fixed-width terminal report: lane table, wait-state
    /// decomposition, critical path, imbalance attribution, then one
    /// [`render_samples`] table of the per-rank productive seconds (lane
    /// `segments`, one sample per segment) and every counter track, with
    /// the one alert log.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace analysis ({ANALYSIS_SCHEMA}), {} lane(s), {} dropped event(s)",
            self.lanes.len(),
            self.dropped_events
        );

        if !self.lanes.is_empty() {
            let _ = writeln!(
                out,
                "\n{:<24} {:>8} {:>12} {:>12} {:>7} {:>7} {:>9} {:>9}",
                "lane",
                "slices",
                "busy(ms)",
                "total(ms)",
                "util%",
                "wait%",
                "unclosed",
                "unmatched"
            );
            for lane in &self.lanes {
                let _ = writeln!(
                    out,
                    "{:<24} {:>8} {:>12.3} {:>12.3} {:>7.1} {:>7.1} {:>9} {:>9}",
                    lane.name,
                    lane.slices.len(),
                    lane.busy_ns() as f64 / 1e6,
                    lane.total_slice_ns() as f64 / 1e6,
                    lane.utilization() * 100.0,
                    lane.wait_fraction() * 100.0,
                    lane.unclosed_begins,
                    lane.unmatched_ends,
                );
            }
        }

        if !self.ranks.ranks.is_empty() {
            let _ = writeln!(
                out,
                "\nwait-state decomposition ({} rank lane(s))",
                self.ranks.ranks.len()
            );
            let total = self.ranks.total_ns.max(1) as f64;
            for (name, ns) in &self.ranks.decomposition_ns {
                let _ = writeln!(
                    out,
                    "  {:<16} {:>12.3} ms {:>6.1}%",
                    name,
                    *ns as f64 / 1e6,
                    *ns as f64 / total * 100.0
                );
            }
            let _ = writeln!(
                out,
                "  {:<16} {:>12.3} ms  wait fraction {:.1}%",
                "total",
                self.ranks.total_ns as f64 / 1e6,
                self.ranks.wait_fraction() * 100.0
            );
        }

        let cp = &self.critical_path;
        let _ = writeln!(
            out,
            "\ncritical path: {:.3} ms across {} segment(s)",
            cp.seconds * 1e3,
            cp.segments
        );
        for (name, secs) in &cp.phases {
            let pct = if cp.seconds > 0.0 {
                secs / cp.seconds * 100.0
            } else {
                0.0
            };
            let _ = writeln!(out, "  {:<16} {:>12.3} ms {:>6.1}%", name, secs * 1e3, pct);
        }
        let chain: Vec<String> = cp
            .bottlenecks
            .iter()
            .filter(|&&(_, n)| n > 0)
            .map(|&(r, n)| format!("rank {r} ×{n}"))
            .collect();
        if !chain.is_empty() {
            let _ = writeln!(out, "  bottleneck chain: {}", chain.join(", "));
        }
        if let Some(st) = &self.ranks.straggler {
            let _ = writeln!(
                out,
                "  straggler: rank {} ({} segment(s), {:.3} ms induced wait)",
                st.rank,
                st.bottleneck_segments,
                st.attributed_wait_s * 1e3
            );
        }

        let im = &self.imbalance;
        let _ = writeln!(out, "\nimbalance attribution (Eq. 1)");
        let _ = writeln!(
            out,
            "  measured compute LB:  mean {:.4}  max {:.4}",
            im.lb_measured_mean, im.lb_measured_max
        );
        let _ = writeln!(
            out,
            "  element-count LB:     mean {:.4}  max {:.4}",
            im.lb_elements_mean, im.lb_elements_max
        );
        let _ = writeln!(out, "  unpredicted gap:      {:.4}", im.gap);
        let (alpha_s, beta_bytes_per_s) = MachineModel::ncar_p690().alpha_beta();
        let _ = writeln!(
            out,
            "  comm model: α={alpha_s:.1e} s, β={beta_bytes_per_s:.3e} B/s; {} B in {} message(s) → {:.3} ms predicted",
            im.bytes_total,
            im.messages,
            im.predicted_comm_s * 1e3
        );
        let _ = writeln!(
            out,
            "  comm explains {:.1}% of {:.3} ms measured wait",
            im.comm_blame_fraction * 100.0,
            self.ranks.wait_ns as f64 / 1e6
        );

        let work = &self.ranks.per_segment_work;
        if !work.is_empty() || !self.counters.is_empty() {
            let segments = work.iter().enumerate().map(|(k, busy)| SeriesSample {
                seq: k as u64,
                lane: "segments".to_string(),
                ranks: busy.clone(),
                ..SeriesSample::default()
            });
            let tracks = self.counters.iter().flat_map(|t| t.samples.iter().cloned());
            let samples: Vec<SeriesSample> = segments.chain(tracks).collect();
            let _ = writeln!(
                out,
                "\nper-rank productive seconds per segment (lane segments) and counter tracks"
            );
            out.push_str(&render_samples(&samples));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubesfc_obs::{counter_values, json_parse as parse, MockClock, Tracer};
    use std::sync::Arc;

    fn analyze(tracer: &Tracer) -> TraceAnalysis {
        analyze_trace(&tracer.export_chrome()).unwrap()
    }

    fn lane<'a>(a: &'a TraceAnalysis, name: &str) -> &'a LaneTimeline {
        a.lanes.iter().find(|l| l.name == name).unwrap()
    }

    #[test]
    fn schema_mismatch_and_garbage_error_out() {
        let err =
            analyze_trace("{\"otherData\":{\"schema\":\"nope\"},\"traceEvents\":[]}").unwrap_err();
        assert!(err.contains("cubesfc-trace-v1"), "{err}");
        // Syntax errors surface json_parse's line/column diagnostics.
        let err = analyze_trace("{\"otherData\":").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
    }

    #[test]
    fn round_trip_reconstructs_slices_and_args() {
        let tracer = Tracer::with_clock(Arc::new(MockClock::new()));
        let r0 = tracer.lane("rank 0");
        let r1 = tracer.lane("rank 1");
        r0.slice_at("compute", 0, 3_000, &[("elements", 10)]);
        r0.slice_at("wait", 3_000, 4_000, &[]);
        r1.slice_at("compute", 0, 1_000, &[("elements", 2)]);
        r1.slice_at("wait", 1_000, 4_000, &[]);
        r1.instant_at("recv", 500, &[("bytes", 64)]);

        let a = analyze(&tracer);
        let l0 = lane(&a, "rank 0");
        assert_eq!(l0.slices.len(), 2);
        assert_eq!(l0.slices[0].name, "compute");
        assert_eq!(l0.slices[0].elements, 10);
        assert_eq!(l0.total_slice_ns(), 4_000);
        assert_eq!(l0.busy_ns(), 4_000);
        assert!((l0.utilization() - 1.0).abs() < 1e-12);
        let l1 = lane(&a, "rank 1");
        assert_eq!(l1.bytes, 64);
        assert_eq!(l1.messages, 1);
        assert_eq!(l1.instants, 1);
        // Decomposition: total == compute + wait, in exact integer ns.
        assert_eq!(a.ranks.total_ns, 8_000);
        assert_eq!(a.ranks.decomposition_ns["compute"], 4_000);
        assert_eq!(a.ranks.decomposition_ns["wait"], 4_000);
        assert_eq!(a.ranks.wait_ns, 4_000);
        // One whole-run segment: rank 0 is the bottleneck (3µs of
        // productive work vs 1µs), charged with rank 1's 3µs wait.
        assert_eq!(a.critical_path.segments, 1);
        assert!((a.critical_path.seconds - 3e-6).abs() < 1e-15);
        let st = a.ranks.straggler.unwrap();
        assert_eq!(st.rank, 0);
        assert_eq!(st.bottleneck_segments, 1);
        assert!((st.attributed_wait_s - 3e-6).abs() < 1e-15);
    }

    #[test]
    fn unmatched_ends_are_tolerated_not_fatal() {
        // An E with no B (its begin was truncated away) must not panic
        // and must be counted, not silently dropped.
        let doc = format!(
            "{{\"otherData\":{{\"schema\":\"{TRACE_SCHEMA}\",\"droppedEvents\":7}},\
             \"traceEvents\":[\
             {{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{{\"name\":\"rank 0\"}}}},\
             {{\"ph\":\"E\",\"pid\":1,\"tid\":0,\"ts\":1.000}},\
             {{\"name\":\"compute\",\"ph\":\"B\",\"pid\":1,\"tid\":0,\"ts\":2.000}},\
             {{\"ph\":\"E\",\"pid\":1,\"tid\":0,\"ts\":5.000}}]}}"
        );
        let a = analyze_trace(&doc).unwrap();
        assert_eq!(a.dropped_events, 7);
        let l = lane(&a, "rank 0");
        assert_eq!(l.unmatched_ends, 1);
        assert_eq!(l.slices.len(), 1);
        assert_eq!(l.slices[0].dur_ns, 3_000);
    }

    #[test]
    fn unclosed_begins_close_at_lane_end() {
        // Drop-newest truncation loses the tail: open begins close at
        // the lane's last observed timestamp.
        let tracer = Tracer::with_clock(Arc::new(MockClock::new()));
        let r0 = tracer.lane("rank 0");
        r0.slice_at("compute", 0, 2_000, &[]);
        r0.begin_at("pack", 2_000, &[("bytes", 128)]);
        // A later instant extends the lane past the dangling begin.
        r0.instant_at("send", 6_000, &[("bytes", 128)]);
        let a = analyze(&tracer);
        let l = lane(&a, "rank 0");
        assert_eq!(l.unclosed_begins, 1);
        let pack = l.slices.iter().find(|s| s.name == "pack").unwrap();
        assert_eq!(pack.start_ns, 2_000);
        assert_eq!(pack.dur_ns, 4_000, "closed at the lane's last ts");
        assert_eq!(l.bytes, 256);
    }

    #[test]
    fn zero_duration_slices_are_legal() {
        let tracer = Tracer::with_clock(Arc::new(MockClock::new()));
        let r0 = tracer.lane("rank 0");
        r0.slice_at("compute", 0, 1_000, &[]);
        r0.slice_at("wait", 1_000, 1_000, &[]); // perfectly balanced rank
        let a = analyze(&tracer);
        let l = lane(&a, "rank 0");
        assert_eq!(l.slices.len(), 2);
        assert_eq!(l.total_slice_ns(), 1_000);
        assert_eq!(a.ranks.decomposition_ns["wait"], 0);
        // And the zero-duration slice still shows up in the phase map.
        assert!(l.phase_ns().contains_key("wait"));
    }

    #[test]
    fn truncated_ring_keeps_exact_dropped_accounting() {
        // Tiny per-shard capacity: the ring drops newest events with an
        // exact count that must survive export → analysis.
        let tracer = Tracer::with_clock_and_capacity(Arc::new(MockClock::new()), 4);
        let r0 = tracer.lane("rank 0");
        for i in 0..8u64 {
            r0.slice_at("compute", i * 10, i * 10 + 5, &[]);
        }
        let dropped = tracer.dropped_events();
        assert!(dropped > 0);
        let a = analyze(&tracer);
        assert_eq!(a.dropped_events, dropped);
        // Whatever survived still reconstructs without panicking, and
        // every surviving event is attributed somewhere.
        let l = lane(&a, "rank 0");
        assert_eq!(
            l.slices.len() as u64 * 2 - l.unclosed_begins + l.unmatched_ends + l.instants,
            4,
        );
    }

    #[test]
    fn phase_totals_equal_sum_of_raw_slice_durations() {
        // Property test: for pseudo-random balanced-and-unbalanced
        // timelines, per-lane phase totals equal the summed raw slice
        // durations, and the rank decomposition equals the summed lane
        // totals — exactly, in integer nanoseconds.
        let mut state = 0x5EED_CAFE_u64;
        let mut rng = move || {
            // xorshift64* — deterministic, no external crates.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let phases = ["compute", "pack", "wait", "scatter"];
        for _round in 0..16 {
            let tracer = Tracer::with_clock(Arc::new(MockClock::new()));
            let nlanes = 1 + (rng() % 4) as usize;
            for r in 0..nlanes {
                let lane = tracer.lane(&format!("rank {r}"));
                let mut ts = 0u64;
                for _ in 0..(rng() % 20) {
                    let name = phases[(rng() % phases.len() as u64) as usize];
                    let dur = rng() % 1_000; // zero-duration included
                    lane.slice_at(name, ts, ts + dur, &[]);
                    ts += dur + rng() % 50;
                }
                if rng() % 3 == 0 {
                    lane.begin_at("compute", ts, &[]); // left unclosed
                }
            }
            let a = analyze(&tracer);
            let mut lane_total_sum = 0u64;
            for l in &a.lanes {
                let phase_sum: u64 = l.phase_ns().values().sum();
                assert_eq!(phase_sum, l.total_slice_ns(), "lane {}", l.name);
                lane_total_sum += l.total_slice_ns();
            }
            let decomp_sum: u64 = a.ranks.decomposition_ns.values().sum();
            assert_eq!(decomp_sum, a.ranks.total_ns);
            assert_eq!(a.ranks.total_ns, lane_total_sum);
        }
    }

    #[test]
    fn derived_gauges_and_alerts_are_stamped() {
        let tracer = Tracer::with_clock(Arc::new(MockClock::new()));
        let steps = tracer.lane("steps");
        let mut ranks = vec![1.0; 16];
        steps.counter_at(
            "rebalance",
            0,
            &counter_values(&[("lb_measured", 0.1)], &ranks),
        );
        ranks[3] = 3.0;
        steps.counter_at(
            "rebalance",
            10,
            &counter_values(&[("lb_measured", 0.3)], &ranks),
        );
        // A counter sample is no slice: the lane's timeline is untouched.
        steps.slice_at("step", 20, 30, &[]);
        let a = analyze(&tracer);
        assert_eq!(lane(&a, "steps").slices.len(), 1);
        assert_eq!(lane(&a, "steps").first_ns, 20);

        let samples = &a.counters[0].samples;
        assert_eq!(samples[0].gauges["straggler_z"], 0.0);
        assert_eq!(samples[0].gauges["lb_drift"], 0.0);
        assert_eq!(samples[1].ranks.len(), 16);
        let z = samples[1].gauges["straggler_z"];
        assert!(z > 2.5, "z = {z}");
        assert!((samples[1].gauges["lb_drift"] - 0.2).abs() < 1e-12);
        // The default straggler rule fired on the spike, once.
        assert_eq!(samples[1].alerts, vec!["straggler"]);
        assert_eq!(a.alerts_fired(), 1);
        assert!(a
            .render()
            .contains("  straggler            lane=rebalance sample=1\n"));
    }

    #[test]
    fn missing_rank_entries_read_as_nan_and_huge_ones_stay_gauges() {
        let tracer = Tracer::with_clock(Arc::new(MockClock::new()));
        let values = [
            ("rank 0", 1.0),
            ("rank 2", 1.0),
            ("rank 3", 1.0),
            ("rank 99999999999", 5.0),
        ];
        tracer.lane("main").counter("solver", &values);
        let a = analyze(&tracer);
        let s = &a.counters[0].samples[0];
        assert_eq!(s.ranks.len(), 4);
        assert!(s.ranks[1].is_nan());
        assert_eq!(s.gauges["rank 99999999999"], 5.0);
        assert_eq!(s.gauges["straggler_z"], 0.0);
        assert!(!s.gauges.contains_key("lb_drift"));
    }

    #[test]
    fn step_segments_drive_critical_path_and_imbalance() {
        let tracer = Tracer::with_clock(Arc::new(MockClock::new()));
        let steps = tracer.lane("steps");
        let r0 = tracer.lane("rank 0");
        let r1 = tracer.lane("rank 1");
        // Step 0: rank 0 slow (4µs vs 1µs), rank 1 waits 3µs.
        steps.slice_at("step", 0, 4_000, &[("step", 0)]);
        r0.slice_at("compute", 0, 4_000, &[("elements", 8)]);
        r1.slice_at("compute", 0, 1_000, &[("elements", 8)]);
        r1.slice_at("wait", 1_000, 4_000, &[]);
        // Step 1: rank 1 slow (2µs vs 1µs), rank 0 waits 1µs.
        steps.slice_at("step", 4_000, 6_000, &[("step", 1)]);
        r0.slice_at("compute", 4_000, 5_000, &[("elements", 8)]);
        r0.slice_at("wait", 5_000, 6_000, &[]);
        r1.slice_at("compute", 4_000, 6_000, &[("elements", 8)]);

        let a = analyze(&tracer);
        assert_eq!(a.critical_path.segments, 2);
        // Path = 4µs (rank 0 in step 0) + 2µs (rank 1 in step 1).
        assert!((a.critical_path.seconds - 6e-6).abs() < 1e-15);
        assert_eq!(a.critical_path.bottlenecks, vec![(0, 1), (1, 1)]);
        // Straggler tie on segment count resolves to the lower rank.
        let st = a.ranks.straggler.unwrap();
        assert_eq!(st.rank, 0);
        assert!((st.attributed_wait_s - 3e-6).abs() < 1e-15);
        // Elements are balanced, compute seconds are not: the measured
        // LB exceeds the element-count LB and the gap is positive.
        assert!(a.imbalance.lb_measured_mean > 0.2);
        assert_eq!(a.imbalance.lb_elements_mean, 0.0);
        assert!(a.imbalance.gap > 0.2);
    }

    #[test]
    fn analysis_json_is_deterministic_and_parseable() {
        let tracer = Tracer::with_clock(Arc::new(MockClock::new()));
        let steps = tracer.lane("steps");
        let r0 = tracer.lane("rank 0");
        steps.slice_at("step", 0, 2_000, &[("step", 0)]);
        r0.slice_at("compute", 0, 1_500, &[("elements", 3)]);
        r0.slice_at("wait", 1_500, 2_000, &[]);
        r0.instant_at("send", 100, &[("bytes", 4096)]);
        let text = tracer.export_chrome();
        let j1 = analyze_trace(&text).unwrap().to_json();
        let j2 = analyze_trace(&text).unwrap().to_json();
        assert_eq!(j1, j2, "same trace bytes → same analysis bytes");
        let doc = parse(&j1).unwrap();
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(ANALYSIS_SCHEMA));
        assert_eq!(
            doc.get("imbalance")
                .unwrap()
                .get("comm")
                .unwrap()
                .get("bytes_total")
                .unwrap()
                .as_u64(),
            Some(4096)
        );
        // The render path is total: it never panics on real analyses.
        let rendered = analyze_trace(&text).unwrap().render();
        assert!(rendered.contains("critical path"), "{rendered}");
        assert!(rendered.contains("wait-state decomposition"), "{rendered}");
    }
}
