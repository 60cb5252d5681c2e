//! The five workloads. Each runs one *round*: set-up, a warm-up of a
//! tenth of the ops, then a fixed, seeded sequence of timed and verified
//! ops. A round runs in a fresh child process of its own.

pub mod big_sfc;
pub mod paper_grid;
pub mod serve;
pub mod solver_step;

use crate::inputs::Sizes;
use crate::procstat;
use crate::spans::{Recorder, Span};
use std::collections::BTreeMap;
use std::time::Instant;

/// Name and reason of every workload, in the order a run interleaves them.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "paper_grid",
        "the CLI sweep: all 276 Table-1 cells on a warm MeshCache; graph partitioner dominates",
    ),
    (
        "big_sfc",
        "cold mesh build and SFC partition at Ne 48..128; bypasses the graph partitioner",
    ),
    (
        "serve_hit",
        "POST /v1/partition answered from the result cache; socket path with no backend work",
    ),
    (
        "serve_miss",
        "uncacheable partition and rebalance requests; same serve layer, backend dominates",
    ),
    (
        "solver_step",
        "measured SEAM steps on two virtual ranks; touches no partitioner or serve code",
    ),
];

/// Failure messages kept per round; the rest are only counted.
const KEPT_FAILURES: usize = 5;

/// What one round measured.
#[derive(Debug, Default)]
pub struct RoundResult {
    /// Seconds from process start to the first timed op, warm-up included.
    pub setup_s: f64,
    /// Wall seconds of the timed section.
    pub timed_s: f64,
    /// CPU milliseconds (user + system) the process used in the timed section.
    pub cpu_ms: f64,
    /// Latency of every timed op, in microseconds.
    pub latencies_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Σ edgecut over the distinct ops of the sequence.
    pub edgecut_sum: u64,
    /// Σ modelled µs per step over the same ops.
    pub model_us_sum: f64,
    pub peak_rss_mb: f64,
    /// Exact counts and ratios only this workload has (connects, hits, ...).
    pub extra: BTreeMap<&'static str, f64>,
    /// Spans of a traced round; empty otherwise.
    pub spans: Vec<Span>,
}

impl RoundResult {
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < KEPT_FAILURES {
            self.failures.push(message);
        }
    }
}

/// A workload whose ops run one after another on the calling thread.
pub trait Sequential {
    type Op;
    type Output;
    /// The timed part of an op.
    fn run(&mut self, op: &Self::Op, rec: &mut Recorder) -> Result<Self::Output, String>;
    /// The untimed check of its output.
    fn verify(&mut self, op: &Self::Op, output: Self::Output) -> Result<(), String>;
}

/// Warm up on the first tenth (by count) of `warm_up`, then time and
/// verify every op of `ops`. Verification sits between ops: inside the
/// section's wall and CPU time (it is under 1 % of any op), outside every
/// op's latency.
pub fn drive<W: Sequential>(
    process_start: Instant,
    workload: &mut W,
    warm_up: &[W::Op],
    ops: &[W::Op],
    traced: bool,
) -> RoundResult {
    let mut round = RoundResult::default();
    let mut off = Recorder::disabled();
    for op in &warm_up[..ops.len() / 10] {
        let _ = workload.run(op, &mut off);
    }
    round.setup_s = process_start.elapsed().as_secs_f64();

    let section = Instant::now();
    let mut rec = if traced {
        Recorder::enabled(section, 0)
    } else {
        off
    };
    let cpu_before = procstat::cpu_ms();
    for (i, op) in ops.iter().enumerate() {
        rec.set_op(i as u32);
        let started = Instant::now();
        let output = workload.run(op, &mut rec);
        round
            .latencies_us
            .push(started.elapsed().as_secs_f64() * 1e6);
        round.attempted += 1;
        if let Err(message) = output.and_then(|out| workload.verify(op, out)) {
            round.fail(format!("op {i}: {message}"));
        }
    }
    round.timed_s = section.elapsed().as_secs_f64();
    round.cpu_ms = procstat::cpu_ms() - cpu_before;
    round.spans = rec.into_spans();
    round
}

/// Run one round of `workload`.
pub fn run_round(
    workload: &str,
    seed: u64,
    sizes: Sizes,
    traced: bool,
    process_start: Instant,
) -> Option<RoundResult> {
    let mut round = match workload {
        "paper_grid" => paper_grid::round(seed, sizes, traced, process_start),
        "big_sfc" => big_sfc::round(seed, sizes, traced, process_start),
        "serve_hit" => serve::round(serve::Mode::Hit, seed, sizes, traced, process_start),
        "serve_miss" => serve::round(serve::Mode::Miss, seed, sizes, traced, process_start),
        "solver_step" => solver_step::round(sizes, traced, process_start),
        _ => return None,
    };
    round.peak_rss_mb = procstat::peak_rss_mb();
    Some(round)
}
