//! Deterministic fault injection and recovery for the rebalance loop.
//!
//! The paper's machine — NCAR's P690 cluster — loses processors in real
//! runs; a partitioner whose rebalance loop cannot survive a dead rank
//! is a fair-weather partitioner. This module makes faults *first-class
//! and reproducible*: a seeded [`FaultSchedule`] injects rank slowdowns,
//! transient stalls, permanent rank deaths, and message delay/loss into
//! [`crate::sim::run_rebalance`], and a [`RecoveryEngine`] answers each
//! one with exactly one of three strategies:
//!
//! * **Retry with backoff** — transient stalls/delays are re-attempted
//!   up to `max_retries` times with exponential backoff priced by the
//!   machine model ([`cubesfc_seam::MachineModel::backoff_seconds`]);
//!   a lost message additionally pays one α/β resend.
//! * **Checkpoint/restore** — when a checkpoint exists
//!   (`cubesfc-checkpoint-v1`), a dead rank's elements are restored from
//!   it and the loop resumes.
//! * **Graceful degradation** — with no checkpoint, the global curve is
//!   re-split over the survivors with the dead rank's capacity zeroed
//!   ([`cubesfc_graph::split_order_weighted_capacity`]), shrinking the
//!   run to `Nproc − 1` without losing an element.
//!
//! Everything is seeded and clock-free, so a fault run is byte-identical
//! across repeats — the property the `cubesfc chaos` replay command and
//! the CI chaos gate check.

use cubesfc_graph::SplitMix64;
use cubesfc_obs::{load_doc, JsonValue, JsonWriter, Layout};
use cubesfc_seam::{MachineModel, SolverFaults, SolverSlowdown};
use std::fmt::Write as _;

/// Schema tag for checkpoint JSON documents.
pub const CHECKPOINT_SCHEMA: &str = "cubesfc-checkpoint-v1";
/// Schema tag for chaos-report JSON documents.
pub const CHAOS_SCHEMA: &str = "cubesfc-chaos-v1";

/// What kind of fault strikes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// The rank computes `factor`× slower over the event window.
    Slowdown {
        /// Slowdown multiplier (≥ 1).
        factor: f64,
    },
    /// The rank stalls for a modelled `seconds` (transient; retryable).
    Stall {
        /// Stall length in modelled seconds.
        seconds: f64,
    },
    /// The rank dies permanently at the event step.
    Death,
    /// A message to/from the rank is delayed by `seconds` (transient).
    MessageDelay {
        /// Delay length in modelled seconds.
        seconds: f64,
    },
    /// A message to/from the rank is lost and must be re-sent.
    MessageLoss,
}

impl FaultKind {
    /// Short stable label used in specs, JSON, and tables.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::Slowdown { .. } => "slow",
            FaultKind::Stall { .. } => "stall",
            FaultKind::Death => "death",
            FaultKind::MessageDelay { .. } => "delay",
            FaultKind::MessageLoss => "loss",
        }
    }

    /// Transient faults are answered by retry; permanent ones are not.
    pub fn is_transient(&self) -> bool {
        !matches!(self, FaultKind::Death | FaultKind::Slowdown { .. })
    }

    /// The kind's scalar parameter (factor or seconds; 0 otherwise).
    pub fn param(&self) -> f64 {
        match *self {
            FaultKind::Slowdown { factor } => factor,
            FaultKind::Stall { seconds } | FaultKind::MessageDelay { seconds } => seconds,
            FaultKind::Death | FaultKind::MessageLoss => 0.0,
        }
    }

    /// Inverse of [`FaultKind::label`] + [`FaultKind::param`] (for JSON).
    pub fn from_parts(label: &str, param: f64) -> Option<FaultKind> {
        match label {
            "slow" => Some(FaultKind::Slowdown { factor: param }),
            "stall" => Some(FaultKind::Stall { seconds: param }),
            "death" => Some(FaultKind::Death),
            "delay" => Some(FaultKind::MessageDelay { seconds: param }),
            "loss" => Some(FaultKind::MessageLoss),
            _ => None,
        }
    }
}

/// One scheduled fault: `kind` strikes `rank` over steps `[start, end)`.
/// Point faults (death, stall, delay, loss) have `end == start + 1`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultEvent {
    /// The afflicted rank.
    pub rank: usize,
    /// What happens.
    pub kind: FaultKind,
    /// First affected step (inclusive).
    pub start: usize,
    /// One past the last affected step (exclusive).
    pub end: usize,
}

impl FaultEvent {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object().field("kind", self.kind.label());
        w.field("rank", self.rank).field("start", self.start);
        w.field("end", self.end).field("param", self.kind.param());
        w.end_object();
    }

    fn from_json(v: &JsonValue) -> Result<FaultEvent, String> {
        let label = v.req_str("kind", "fault")?;
        let param = v.opt_f64("param").unwrap_or(0.0);
        let kind = FaultKind::from_parts(label, param)
            .ok_or_else(|| format!("unknown fault kind {label:?}"))?;
        let start = v.req_u64("start", "fault")? as usize;
        Ok(FaultEvent {
            rank: v.req_u64("rank", "fault")? as usize,
            kind,
            start,
            end: v.opt_u64("end").map_or(start + 1, |e| e as usize),
        })
    }
}

/// A deterministic schedule of fault events.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultSchedule {
    /// The spec string the schedule was parsed from (for reports).
    pub spec: String,
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// Build from explicit events (tests, programmatic use).
    pub fn from_events(events: Vec<FaultEvent>) -> FaultSchedule {
        FaultSchedule {
            spec: "<custom>".to_string(),
            events,
        }
    }

    /// Parse a `;`-separated fault spec against a run of `nproc` ranks
    /// and `steps` steps. Grammar (all indices 0-based):
    ///
    /// * `death:R@S` — rank `R` dies permanently at step `S`;
    /// * `slow:R@A..BxF` — rank `R` runs `F`× slower over steps `[A, B)`;
    /// * `stall:R@SxT` — rank `R` stalls `T` modelled seconds at step `S`;
    /// * `delay:R@SxT` — a message of rank `R` is delayed `T` seconds;
    /// * `loss:R@S` — a message of rank `R` is lost at step `S`;
    /// * `random:N@SEED` — `N` events drawn from a seeded SplitMix64,
    ///   expanded immediately, so the schedule is a pure function of
    ///   `(spec, nproc, steps)`.
    pub fn parse(spec: &str, nproc: usize, steps: usize) -> Result<FaultSchedule, String> {
        if nproc == 0 || steps == 0 {
            return Err("fault schedule needs nproc > 0 and steps > 0".to_string());
        }
        let mut events = Vec::new();
        for entry in spec.split(';').map(str::trim).filter(|e| !e.is_empty()) {
            let (name, rest) = entry
                .split_once(':')
                .ok_or_else(|| format!("bad fault entry {entry:?}: expected KIND:ARGS"))?;
            if name == "random" {
                let (n, seed) = parse_at(rest, entry)?;
                events.extend(random_events(n, seed as u64, nproc, steps));
                continue;
            }
            let (rank, at) = rest
                .split_once('@')
                .ok_or_else(|| format!("bad fault entry {entry:?}: expected RANK@STEP"))?;
            let rank: usize = rank.parse().map_err(|_| format!("bad rank in {entry:?}"))?;
            if rank >= nproc {
                return Err(format!(
                    "rank {rank} out of range (nproc = {nproc}) in {entry:?}"
                ));
            }
            let ev = match name {
                "death" | "loss" => {
                    let step = parse_step(at, entry, steps)?;
                    FaultEvent {
                        rank,
                        kind: if name == "death" {
                            FaultKind::Death
                        } else {
                            FaultKind::MessageLoss
                        },
                        start: step,
                        end: step + 1,
                    }
                }
                "stall" | "delay" => {
                    let (step_s, secs_s) = at.split_once('x').ok_or_else(|| {
                        format!("bad {name} entry {entry:?}: expected R@SxSECONDS")
                    })?;
                    let step = parse_step(step_s, entry, steps)?;
                    let seconds: f64 = secs_s
                        .parse()
                        .map_err(|_| format!("bad seconds in {entry:?}"))?;
                    if !seconds.is_finite() || seconds <= 0.0 {
                        return Err(format!("seconds must be positive and finite in {entry:?}"));
                    }
                    FaultEvent {
                        rank,
                        kind: if name == "stall" {
                            FaultKind::Stall { seconds }
                        } else {
                            FaultKind::MessageDelay { seconds }
                        },
                        start: step,
                        end: step + 1,
                    }
                }
                "slow" => {
                    let (window, factor_s) = at
                        .split_once('x')
                        .ok_or_else(|| format!("bad slow entry {entry:?}: expected R@A..BxF"))?;
                    let (a, b) = window
                        .split_once("..")
                        .ok_or_else(|| format!("bad slow window in {entry:?}: expected A..B"))?;
                    let start = parse_step(a, entry, steps)?;
                    let end: usize = b
                        .parse()
                        .map_err(|_| format!("bad window end in {entry:?}"))?;
                    if end <= start || end > steps {
                        return Err(format!(
                            "slow window [{start}, {end}) out of range (steps = {steps}) in {entry:?}"
                        ));
                    }
                    let factor: f64 = factor_s
                        .parse()
                        .map_err(|_| format!("bad factor in {entry:?}"))?;
                    if !factor.is_finite() || factor < 1.0 {
                        return Err(format!("slowdown factor must be ≥ 1 in {entry:?}"));
                    }
                    FaultEvent {
                        rank,
                        kind: FaultKind::Slowdown { factor },
                        start,
                        end,
                    }
                }
                other => return Err(format!("unknown fault kind {other:?} in {entry:?}")),
            };
            events.push(ev);
        }
        Ok(FaultSchedule {
            spec: spec.to_string(),
            events,
        })
    }

    /// All scheduled events.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events whose window begins at `step`.
    pub fn starting_at(&self, step: usize) -> impl Iterator<Item = &FaultEvent> {
        self.events.iter().filter(move |e| e.start == step)
    }

    /// Number of events whose window covers `step`.
    pub fn active_at(&self, step: usize) -> usize {
        self.events
            .iter()
            .filter(|e| e.start <= step && step < e.end)
            .count()
    }

    /// Multiply the weights of elements owned by slowed ranks: a rank
    /// running `F`× slower makes its elements cost `F`× more, which is
    /// exactly what a work-weighted re-split needs to see to route
    /// around the fault.
    pub fn apply_slowdowns(
        &self,
        step: usize,
        part_of: impl Fn(usize) -> usize,
        weights: &mut [f64],
    ) {
        for ev in &self.events {
            if let FaultKind::Slowdown { factor } = ev.kind {
                if ev.start <= step && step < ev.end {
                    for (e, w) in weights.iter_mut().enumerate() {
                        if part_of(e) == ev.rank {
                            *w *= factor;
                        }
                    }
                }
            }
        }
    }

    /// Project the slowdown events onto the parallel solver's fault
    /// hooks ([`cubesfc_seam::SolverFaults`]) — the only fault class the
    /// in-process solver can carry without changing its answer.
    pub fn solver_faults(&self) -> SolverFaults {
        SolverFaults {
            slowdowns: self
                .events
                .iter()
                .filter_map(|e| match e.kind {
                    FaultKind::Slowdown { factor } => Some(SolverSlowdown {
                        rank: e.rank,
                        factor,
                        start: e.start,
                        end: e.end,
                    }),
                    _ => None,
                })
                .collect(),
        }
    }
}

fn parse_at(rest: &str, entry: &str) -> Result<(usize, usize), String> {
    let (a, b) = rest
        .split_once('@')
        .ok_or_else(|| format!("bad random entry {entry:?}: expected N@SEED"))?;
    let n = a.parse().map_err(|_| format!("bad count in {entry:?}"))?;
    let seed = b.parse().map_err(|_| format!("bad seed in {entry:?}"))?;
    Ok((n, seed))
}

fn parse_step(s: &str, entry: &str, steps: usize) -> Result<usize, String> {
    let step: usize = s.parse().map_err(|_| format!("bad step in {entry:?}"))?;
    if step >= steps {
        return Err(format!(
            "step {step} out of range (steps = {steps}) in {entry:?}"
        ));
    }
    Ok(step)
}

/// Draw `n` events from a seeded generator. Deaths are rarer than
/// transients (1 in 8) so random schedules usually stay recoverable;
/// every draw is a pure function of the seed.
fn random_events(n: usize, seed: u64, nproc: usize, steps: usize) -> Vec<FaultEvent> {
    let mut rng = SplitMix64::new(seed ^ 0x6661756c74u64); // "fault"
    let mut events = Vec::with_capacity(n);
    for _ in 0..n {
        let rank = rng.below(nproc);
        let step = rng.below(steps);
        let kind = match rng.below(8) {
            0..=2 => {
                let factor = 1.5 + 0.5 * rng.below(6) as f64;
                let end = (step + 1 + rng.below(steps - step)).min(steps);
                events.push(FaultEvent {
                    rank,
                    kind: FaultKind::Slowdown { factor },
                    start: step,
                    end,
                });
                continue;
            }
            3 | 4 => FaultKind::Stall {
                seconds: 0.01 * (1 + rng.below(20)) as f64,
            },
            5 => FaultKind::MessageDelay {
                seconds: 0.01 * (1 + rng.below(20)) as f64,
            },
            6 => FaultKind::MessageLoss,
            _ => FaultKind::Death,
        };
        events.push(FaultEvent {
            rank,
            kind,
            start: step,
            end: step + 1,
        });
    }
    events
}

/// Tunables for the recovery strategies.
#[derive(Clone, Debug, PartialEq)]
pub struct RecoveryConfig {
    /// Retry budget for transient faults.
    pub max_retries: u32,
    /// Base backoff in modelled seconds (doubles per attempt).
    pub backoff_s: f64,
    /// Take a checkpoint after this many rebalance triggers (0 = never).
    pub checkpoint_every: usize,
}

impl Default for RecoveryConfig {
    fn default() -> RecoveryConfig {
        RecoveryConfig {
            max_retries: 3,
            backoff_s: 0.05,
            checkpoint_every: 0,
        }
    }
}

/// Schedule plus recovery tunables — what [`crate::sim::SimConfig`]
/// carries when fault injection is on.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultConfig {
    /// The injected faults.
    pub schedule: FaultSchedule,
    /// How to answer them.
    pub recovery: RecoveryConfig,
}

/// Which strategy answered a fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryStrategy {
    /// Retry with exponential backoff (transients).
    Retry,
    /// Restore the dead rank's elements from a checkpoint.
    Restore,
    /// Shrink to the surviving ranks (capacity-zeroed re-split).
    Degrade,
}

impl RecoveryStrategy {
    /// Stable label for JSON and tables.
    pub fn label(&self) -> &'static str {
        match self {
            RecoveryStrategy::Retry => "retry",
            RecoveryStrategy::Restore => "restore",
            RecoveryStrategy::Degrade => "degrade",
        }
    }

    fn from_label(s: &str) -> Option<RecoveryStrategy> {
        match s {
            "retry" => Some(RecoveryStrategy::Retry),
            "restore" => Some(RecoveryStrategy::Restore),
            "degrade" => Some(RecoveryStrategy::Degrade),
            _ => None,
        }
    }
}

/// One recovery attempt's outcome.
#[derive(Clone, Debug, PartialEq)]
pub struct RecoveryAction {
    /// Step the fault struck.
    pub step: usize,
    /// The afflicted rank.
    pub rank: usize,
    /// The fault's label (`slow`/`stall`/`death`/`delay`/`loss`).
    pub fault: String,
    /// Strategy applied.
    pub strategy: RecoveryStrategy,
    /// Retry attempts spent (0 for non-retry strategies).
    pub attempts: u32,
    /// Did the strategy succeed?
    pub recovered: bool,
    /// Modelled seconds the recovery cost (backoff waits, resends,
    /// restore traffic).
    pub modelled_seconds: f64,
}

impl RecoveryAction {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object().field("step", self.step);
        w.field("rank", self.rank).field("fault", &self.fault);
        w.field("strategy", self.strategy.label());
        w.field("attempts", self.attempts);
        w.field("recovered", self.recovered);
        w.field("modelled_seconds", self.modelled_seconds);
        w.end_object();
    }

    fn from_json(v: &JsonValue) -> Result<RecoveryAction, String> {
        let strategy = v
            .opt_str("strategy")
            .and_then(RecoveryStrategy::from_label)
            .ok_or("action missing or unknown \"strategy\"")?;
        Ok(RecoveryAction {
            step: v.req_u64("step", "action")? as usize,
            rank: v.req_u64("rank", "action")? as usize,
            fault: v.req_str("fault", "action")?.to_string(),
            strategy,
            attempts: v.opt_u64("attempts").unwrap_or(0) as u32,
            recovered: v.req_bool("recovered", "action")?,
            modelled_seconds: v.opt_f64("modelled_seconds").unwrap_or(0.0),
        })
    }
}

/// Applies recovery strategies and remembers what happened.
#[derive(Clone, Debug)]
pub struct RecoveryEngine {
    cfg: RecoveryConfig,
    dead: Vec<bool>,
    actions: Vec<RecoveryAction>,
}

impl RecoveryEngine {
    /// A fresh engine for `nproc` ranks, all alive.
    pub fn new(nproc: usize, cfg: RecoveryConfig) -> RecoveryEngine {
        RecoveryEngine {
            cfg,
            dead: vec![false; nproc],
            actions: Vec::new(),
        }
    }

    /// The recovery tunables.
    pub fn config(&self) -> &RecoveryConfig {
        &self.cfg
    }

    /// Mark a rank dead without recording an action (checkpoint resume).
    pub fn mark_dead(&mut self, rank: usize) {
        if rank < self.dead.len() {
            self.dead[rank] = true;
        }
    }

    /// Is the rank dead?
    pub fn is_dead(&self, rank: usize) -> bool {
        self.dead.get(rank).copied().unwrap_or(false)
    }

    /// Any rank dead yet?
    pub fn any_dead(&self) -> bool {
        self.dead.iter().any(|&d| d)
    }

    /// Indices of dead ranks.
    pub fn dead_ranks(&self) -> Vec<usize> {
        self.dead
            .iter()
            .enumerate()
            .filter(|(_, &d)| d)
            .map(|(r, _)| r)
            .collect()
    }

    /// Surviving rank count.
    pub fn alive_count(&self) -> usize {
        self.dead.iter().filter(|&&d| !d).count()
    }

    /// Per-rank capacities for the degraded re-split: 1 alive, 0 dead.
    pub fn capacities(&self) -> Vec<f64> {
        self.dead
            .iter()
            .map(|&d| if d { 0.0 } else { 1.0 })
            .collect()
    }

    /// All actions taken so far.
    pub fn actions(&self) -> &[RecoveryAction] {
        &self.actions
    }

    /// Cumulative recovered action count.
    pub fn recovered_count(&self) -> usize {
        self.actions.iter().filter(|a| a.recovered).count()
    }

    /// Cumulative unrecovered action count.
    pub fn unrecovered_count(&self) -> usize {
        self.actions.iter().filter(|a| !a.recovered).count()
    }

    /// Answer a transient fault (stall, delay, loss) with retries.
    ///
    /// A stall/delay of `T` seconds is recovered by the smallest attempt
    /// count whose cumulative backoff `base·(2^a − 1)` covers `T`; if the
    /// retry budget cannot cover it the fault is *unrecovered* (and the
    /// full budget's wait is still paid). A lost message is always one
    /// backoff plus one α/β resend. Deterministic by construction.
    pub fn handle_transient(
        &mut self,
        step: usize,
        ev: &FaultEvent,
        machine: &MachineModel,
        message_bytes: f64,
    ) -> &RecoveryAction {
        let base = self.cfg.backoff_s;
        let budget = self.cfg.max_retries;
        let (attempts, recovered, mut cost) = match ev.kind {
            FaultKind::Stall { seconds } | FaultKind::MessageDelay { seconds } => {
                let mut waited = 0.0;
                let mut attempts = 0u32;
                let mut recovered = false;
                while attempts < budget {
                    waited += machine.backoff_seconds(base, attempts);
                    attempts += 1;
                    if waited >= seconds {
                        recovered = true;
                        break;
                    }
                }
                (attempts, recovered, waited)
            }
            FaultKind::MessageLoss => {
                let cost = machine.backoff_seconds(base, 0) + machine.resend_seconds(message_bytes);
                (1, budget >= 1, cost)
            }
            _ => (0, false, 0.0),
        };
        if !cost.is_finite() {
            cost = 0.0;
        }
        self.push_action(RecoveryAction {
            step,
            rank: ev.rank,
            fault: ev.kind.label().to_string(),
            strategy: RecoveryStrategy::Retry,
            attempts,
            recovered,
            modelled_seconds: cost,
        })
    }

    /// Answer a permanent rank death.
    ///
    /// Marks the rank dead and records the strategy: **restore** when a
    /// checkpoint is available, **degrade** otherwise. Either way the
    /// dead rank's `dead_elems` must cross the network once, priced at
    /// α/β; the fault is unrecovered only when no rank survives.
    pub fn handle_death(
        &mut self,
        step: usize,
        rank: usize,
        dead_elems: usize,
        bytes_per_elem: f64,
        have_checkpoint: bool,
        machine: &MachineModel,
    ) -> &RecoveryAction {
        self.mark_dead(rank);
        let strategy = if have_checkpoint {
            RecoveryStrategy::Restore
        } else {
            RecoveryStrategy::Degrade
        };
        let recovered = self.alive_count() > 0;
        let bytes = dead_elems as f64 * bytes_per_elem;
        let cost = if recovered {
            machine.resend_seconds(bytes)
        } else {
            0.0
        };
        self.push_action(RecoveryAction {
            step,
            rank,
            fault: FaultKind::Death.label().to_string(),
            strategy,
            attempts: 0,
            recovered,
            modelled_seconds: cost,
        })
    }

    fn push_action(&mut self, action: RecoveryAction) -> &RecoveryAction {
        let lane = cubesfc_obs::trace_lane("recovery");
        lane.instant(
            &format!("{}:{}", action.fault, action.strategy.label()),
            &[
                ("step", action.step as u64),
                ("rank", action.rank as u64),
                ("attempts", action.attempts as u64),
                ("recovered", u64::from(action.recovered)),
            ],
        );
        self.actions.push(action);
        self.actions.last().unwrap()
    }
}

/// A rebalance-loop checkpoint: enough state to resume `run_rebalance`
/// from the end of `step` and reproduce the uninterrupted run byte for
/// byte (`cubesfc-checkpoint-v1`).
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    /// The step whose end state this captures.
    pub step: usize,
    /// Rank count (including dead ranks; labels are stable).
    pub nproc: usize,
    /// Element → rank assignment at the end of `step`.
    pub assignment: Vec<u32>,
    /// The policy engine's hysteresis arm state.
    pub armed: bool,
    /// Ranks dead at the end of `step`.
    pub dead: Vec<usize>,
}

/// `u64` labels from the wire, as indices.
fn indices(labels: Vec<u64>) -> Vec<usize> {
    labels.into_iter().map(|v| v as usize).collect()
}

impl Checkpoint {
    /// Serialize as a `cubesfc-checkpoint-v1` JSON document.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::with_capacity(Layout::Document, 128 + 4 * self.assignment.len());
        w.begin_object().field("schema", CHECKPOINT_SCHEMA);
        w.field("step", self.step).field("nproc", self.nproc);
        w.field("armed", self.armed).array("dead", &self.dead);
        w.array("assignment", &self.assignment)
            .end_object()
            .finish()
    }

    /// Parse a `cubesfc-checkpoint-v1` document.
    pub fn from_json(text: &str) -> Result<Checkpoint, String> {
        load_doc(text, Checkpoint::from_doc).map_err(|e| e.to_string())
    }

    fn from_doc(doc: &JsonValue) -> Result<Checkpoint, String> {
        doc.expect_schema(CHECKPOINT_SCHEMA)?;
        let nproc = doc.req_u64("nproc", "checkpoint")? as usize;
        let ck = Checkpoint {
            step: doc.req_u64("step", "checkpoint")? as usize,
            nproc,
            // Range-check the wire value before narrowing, so a label
            // past `u32::MAX` cannot wrap into range.
            assignment: doc
                .req_u64s("assignment", "checkpoint")?
                .into_iter()
                .map(|a| u32::try_from(a).ok().filter(|&a| (a as usize) < nproc))
                .collect::<Option<_>>()
                .ok_or("assignment label out of range")?,
            armed: doc.req_bool("armed", "checkpoint")?,
            dead: indices(doc.req_u64s("dead", "checkpoint")?),
        };
        if ck.dead.iter().any(|&r| r >= ck.nproc) {
            return Err("dead rank out of range".to_string());
        }
        Ok(ck)
    }
}

/// The chaos run's summary: every fault, every recovery action, and the
/// conservation verdict (`cubesfc-chaos-v1`). Byte-identical across
/// repeats of the same seeded run.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosReport {
    /// Element count.
    pub nelems: usize,
    /// Configured rank count.
    pub nproc: usize,
    /// Configured step count.
    pub steps: usize,
    /// Steps actually completed (fewer if every rank died).
    pub completed_steps: usize,
    /// The fault spec the schedule came from.
    pub spec: String,
    /// All injected fault events.
    pub faults: Vec<FaultEvent>,
    /// All recovery actions, in order.
    pub actions: Vec<RecoveryAction>,
    /// Ranks dead at the end of the run.
    pub degraded_ranks: Vec<usize>,
    /// Final per-rank element counts.
    pub final_counts: Vec<usize>,
    /// Elements held by surviving ranks at the end.
    pub survivor_elems: usize,
    /// `survivor_elems == nelems` — no element lost or duplicated.
    pub conserved: bool,
}

impl ChaosReport {
    /// Assemble from a finished (or aborted) run.
    #[allow(clippy::too_many_arguments)]
    pub fn build(
        schedule: &FaultSchedule,
        engine: &RecoveryEngine,
        nelems: usize,
        nproc: usize,
        steps: usize,
        completed_steps: usize,
        final_counts: Vec<usize>,
    ) -> ChaosReport {
        let degraded_ranks = engine.dead_ranks();
        let survivor_elems: usize = final_counts
            .iter()
            .enumerate()
            .filter(|(r, _)| !engine.is_dead(*r))
            .map(|(_, &c)| c)
            .sum();
        ChaosReport {
            nelems,
            nproc,
            steps,
            completed_steps,
            spec: schedule.spec.clone(),
            faults: schedule.events.clone(),
            actions: engine.actions().to_vec(),
            degraded_ranks,
            final_counts,
            survivor_elems,
            conserved: survivor_elems == nelems,
        }
    }

    /// Recovered action count.
    pub fn recovered(&self) -> usize {
        self.actions.iter().filter(|a| a.recovered).count()
    }

    /// Unrecovered action count — the `cubesfc chaos` gate fails when
    /// this is non-zero (or conservation broke).
    pub fn unrecovered(&self) -> usize {
        self.actions.iter().filter(|a| !a.recovered).count()
    }

    /// Does the run pass the chaos gate?
    pub fn passed(&self) -> bool {
        self.unrecovered() == 0 && self.conserved
    }

    /// Serialize as a `cubesfc-chaos-v1` JSON document.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::with_capacity(Layout::Document, 1024);
        w.begin_object().field("schema", CHAOS_SCHEMA);
        w.field("nelems", self.nelems).field("nproc", self.nproc);
        w.field("steps", self.steps);
        w.field("completed_steps", self.completed_steps);
        w.field("spec", &self.spec);
        w.key("faults").begin_array();
        for f in &self.faults {
            f.write_json(&mut w);
        }
        w.end_array().key("actions").begin_array();
        for a in &self.actions {
            a.write_json(&mut w);
        }
        w.end_array().array("degraded_ranks", &self.degraded_ranks);
        w.array("final_counts", &self.final_counts);
        w.field("survivor_elems", self.survivor_elems);
        w.field("conserved", self.conserved);
        w.field("recovered", self.recovered());
        w.field("unrecovered", self.unrecovered())
            .end_object()
            .finish()
    }

    /// Parse a `cubesfc-chaos-v1` document.
    pub fn from_json(text: &str) -> Result<ChaosReport, String> {
        load_doc(text, ChaosReport::from_doc).map_err(|e| e.to_string())
    }

    /// [`ChaosReport::from_json`] on an already parsed document.
    pub fn from_doc(doc: &JsonValue) -> Result<ChaosReport, String> {
        doc.expect_schema(CHAOS_SCHEMA)?;
        let what = "chaos report";
        let count = |key| doc.req_u64(key, what).map(|v| v as usize);
        let rows = |key| doc.req_arr(key, what).map(|rows| rows.iter());
        Ok(ChaosReport {
            nelems: count("nelems")?,
            nproc: count("nproc")?,
            steps: count("steps")?,
            completed_steps: count("completed_steps")?,
            spec: doc.opt_str("spec").unwrap_or("").to_string(),
            faults: rows("faults")?
                .map(FaultEvent::from_json)
                .collect::<Result<_, _>>()?,
            actions: rows("actions")?
                .map(RecoveryAction::from_json)
                .collect::<Result<_, _>>()?,
            degraded_ranks: indices(doc.req_u64s("degraded_ranks", what)?),
            final_counts: indices(doc.req_u64s("final_counts", what)?),
            survivor_elems: count("survivor_elems")?,
            conserved: doc.req_bool("conserved", what)?,
        })
    }

    /// Human-readable summary table.
    pub fn render_table(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "chaos: K={}  Nproc={}  steps={} (completed {})  spec={}",
            self.nelems, self.nproc, self.steps, self.completed_steps, self.spec
        );
        let _ = writeln!(
            s,
            "faults: {}  recovered: {}  unrecovered: {}  degraded ranks: {:?}",
            self.faults.len(),
            self.recovered(),
            self.unrecovered(),
            self.degraded_ranks
        );
        let _ = writeln!(
            s,
            "{:>5} {:>6} {:>7} {:>9} {:>9} {:>10} {:>13}",
            "step", "rank", "fault", "strategy", "attempts", "recovered", "t_recover(s)"
        );
        for a in &self.actions {
            let _ = writeln!(
                s,
                "{:>5} {:>6} {:>7} {:>9} {:>9} {:>10} {:>13.6}",
                a.step,
                a.rank,
                a.fault,
                a.strategy.label(),
                a.attempts,
                if a.recovered { "yes" } else { "NO" },
                a.modelled_seconds
            );
        }
        let _ = writeln!(
            s,
            "conservation: {} elements on {} surviving ranks ({})",
            self.survivor_elems,
            self.nproc - self.degraded_ranks.len(),
            if self.conserved {
                "conserved"
            } else {
                "VIOLATED"
            }
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> MachineModel {
        MachineModel::ncar_p690()
    }

    #[test]
    fn spec_grammar_round_trips() {
        let s =
            FaultSchedule::parse("death:3@25; slow:1@10..20x2.5; stall:0@5x0.1", 8, 50).unwrap();
        assert_eq!(s.events().len(), 3);
        assert_eq!(
            s.events()[0],
            FaultEvent {
                rank: 3,
                kind: FaultKind::Death,
                start: 25,
                end: 26
            }
        );
        assert_eq!(
            s.events()[1],
            FaultEvent {
                rank: 1,
                kind: FaultKind::Slowdown { factor: 2.5 },
                start: 10,
                end: 20
            }
        );
        assert_eq!(s.active_at(15), 1);
        assert_eq!(s.active_at(25), 1);
        assert_eq!(s.active_at(26), 0);
        assert_eq!(s.starting_at(5).count(), 1);
    }

    #[test]
    fn spec_rejects_bad_entries() {
        assert!(
            FaultSchedule::parse("death:9@5", 8, 50).is_err(),
            "rank range"
        );
        assert!(
            FaultSchedule::parse("death:0@50", 8, 50).is_err(),
            "step range"
        );
        assert!(
            FaultSchedule::parse("slow:0@5..3x2", 8, 50).is_err(),
            "window order"
        );
        assert!(
            FaultSchedule::parse("slow:0@5..10x0.5", 8, 50).is_err(),
            "factor < 1"
        );
        assert!(
            FaultSchedule::parse("stall:0@5x-1", 8, 50).is_err(),
            "negative stall"
        );
        assert!(
            FaultSchedule::parse("meteor:0@5", 8, 50).is_err(),
            "unknown kind"
        );
        assert!(FaultSchedule::parse("death:0@5", 0, 50).is_err(), "nproc 0");
    }

    #[test]
    fn random_schedules_are_deterministic() {
        let a = FaultSchedule::parse("random:6@42", 16, 40).unwrap();
        let b = FaultSchedule::parse("random:6@42", 16, 40).unwrap();
        assert_eq!(a.events(), b.events());
        assert_eq!(a.events().len(), 6);
        let c = FaultSchedule::parse("random:6@43", 16, 40).unwrap();
        assert_ne!(a.events(), c.events(), "different seed, different draws");
        for e in a.events() {
            assert!(e.rank < 16);
            assert!(e.start < 40 && e.end <= 40 && e.end > e.start);
        }
    }

    #[test]
    fn transient_recovery_is_bounded_by_the_retry_budget() {
        let mut eng = RecoveryEngine::new(4, RecoveryConfig::default());
        // 0.1 s stall: backoff 0.05 + 0.1 = 0.15 ≥ 0.1 after 2 attempts.
        let ev = FaultEvent {
            rank: 2,
            kind: FaultKind::Stall { seconds: 0.1 },
            start: 5,
            end: 6,
        };
        let a = eng.handle_transient(5, &ev, &machine(), 0.0).clone();
        assert!(a.recovered);
        assert_eq!(a.attempts, 2);
        assert!((a.modelled_seconds - 0.15).abs() < 1e-12);

        // A 10 s stall exhausts the budget (0.05·(2³−1) = 0.35 < 10).
        let ev = FaultEvent {
            rank: 1,
            kind: FaultKind::Stall { seconds: 10.0 },
            start: 7,
            end: 8,
        };
        let a = eng.handle_transient(7, &ev, &machine(), 0.0).clone();
        assert!(!a.recovered);
        assert_eq!(a.attempts, 3);
        assert!((a.modelled_seconds - 0.35).abs() < 1e-12);
        assert_eq!(eng.recovered_count(), 1);
        assert_eq!(eng.unrecovered_count(), 1);
        // Transients never kill ranks.
        assert!(!eng.any_dead());
    }

    #[test]
    fn message_loss_pays_one_backoff_and_one_resend() {
        let m = machine();
        let mut eng = RecoveryEngine::new(4, RecoveryConfig::default());
        let ev = FaultEvent {
            rank: 0,
            kind: FaultKind::MessageLoss,
            start: 3,
            end: 4,
        };
        let a = eng.handle_transient(3, &ev, &m, 8192.0).clone();
        assert!(a.recovered);
        assert_eq!(a.attempts, 1);
        let expect = m.backoff_seconds(0.05, 0) + m.resend_seconds(8192.0);
        assert!((a.modelled_seconds - expect).abs() < 1e-12);
    }

    #[test]
    fn death_degrades_without_checkpoint_restores_with_one() {
        let m = machine();
        let mut eng = RecoveryEngine::new(4, RecoveryConfig::default());
        let a = eng.handle_death(25, 3, 100, 800.0, false, &m).clone();
        assert_eq!(a.strategy, RecoveryStrategy::Degrade);
        assert!(a.recovered);
        assert!(a.modelled_seconds > 0.0);
        assert!(eng.is_dead(3));
        assert_eq!(eng.alive_count(), 3);
        assert_eq!(eng.capacities(), vec![1.0, 1.0, 1.0, 0.0]);

        let b = eng.handle_death(30, 1, 50, 800.0, true, &m).clone();
        assert_eq!(b.strategy, RecoveryStrategy::Restore);
        assert!(b.recovered);
        assert_eq!(eng.dead_ranks(), vec![1, 3]);
    }

    #[test]
    fn last_rank_death_is_unrecoverable() {
        let mut eng = RecoveryEngine::new(1, RecoveryConfig::default());
        let a = eng.handle_death(0, 0, 10, 8.0, false, &machine()).clone();
        assert!(!a.recovered);
        assert_eq!(eng.alive_count(), 0);
    }

    #[test]
    fn slowdowns_inflate_owned_weights() {
        let s = FaultSchedule::parse("slow:1@2..4x3", 2, 10).unwrap();
        let part = [0usize, 1, 0, 1];
        let mut w = vec![1.0; 4];
        s.apply_slowdowns(0, |e| part[e], &mut w);
        assert_eq!(w, vec![1.0; 4], "outside the window");
        s.apply_slowdowns(2, |e| part[e], &mut w);
        assert_eq!(w, vec![1.0, 3.0, 1.0, 3.0]);
        // Solver projection carries only the slowdown.
        let sf = s.solver_faults();
        assert_eq!(sf.slowdowns.len(), 1);
        assert_eq!(sf.extra_reps(1, 2), 2);
    }

    #[test]
    fn checkpoint_round_trips_through_json() {
        let ck = Checkpoint {
            step: 25,
            nproc: 4,
            assignment: vec![0, 1, 2, 3, 0, 1],
            armed: false,
            dead: vec![2],
        };
        let text = ck.to_json();
        assert!(text.contains(CHECKPOINT_SCHEMA));
        let back = Checkpoint::from_json(&text).unwrap();
        assert_eq!(back, ck);
        // Schema and range validation.
        assert!(Checkpoint::from_json("{}").is_err());
        assert!(Checkpoint::from_json("not json").is_err());
        let bad = text.replace("\"dead\": [2]", "\"dead\": [9]");
        assert!(Checkpoint::from_json(&bad).is_err());
        let labels = "[0, 1, 2, 3, 0, 1]";
        assert!(text.contains(labels), "{text}");
        for bad_labels in ["[0, 4, 2, 3, 0, 1]", "[0, 4294967297, 2, 3, 0, 1]"] {
            // 2^32 + 1 would wrap to label 1 if narrowed before the check.
            let err = Checkpoint::from_json(&text.replace(labels, bad_labels)).unwrap_err();
            assert!(err.contains("assignment label out of range"), "{err}");
        }
    }

    #[test]
    fn chaos_report_round_trips_and_gates() {
        let schedule = FaultSchedule::parse("death:1@3; stall:0@1x0.1", 2, 5).unwrap();
        let m = machine();
        let mut eng = RecoveryEngine::new(2, RecoveryConfig::default());
        eng.handle_transient(
            1,
            &FaultEvent {
                rank: 0,
                kind: FaultKind::Stall { seconds: 0.1 },
                start: 1,
                end: 2,
            },
            &m,
            0.0,
        );
        eng.handle_death(3, 1, 6, 8.0, false, &m);
        let report = ChaosReport::build(&schedule, &eng, 12, 2, 5, 5, vec![12, 0]);
        assert!(report.conserved);
        assert_eq!(report.recovered(), 2);
        assert_eq!(report.unrecovered(), 0);
        assert!(report.passed());

        let text = report.to_json();
        let back = ChaosReport::from_json(&text).unwrap();
        assert_eq!(back, report);
        assert!(back.passed());

        let table = report.render_table();
        assert!(table.contains("degrade"));
        assert!(table.contains("conserved"));

        // A lost element breaks the gate.
        let broken = ChaosReport::build(&schedule, &eng, 12, 2, 5, 5, vec![11, 0]);
        assert!(!broken.conserved);
        assert!(!broken.passed());
    }
}
