//! The rebalance simulator: drives a load trajectory through a policy
//! and a repartitioning backend, producing a per-step report.
//!
//! Each step walks the full loop the subsystem exists to close —
//! *weights → policy → repartition → plan → apply* — and each phase is
//! recorded on its own trace lane, so `--trace` output opens in Perfetto
//! with one timeline row per phase.

use crate::error::BalanceError;
use crate::planner::MigrationPlan;
use crate::policy::{migration_seconds, PolicyEngine, PolicyInput, RebalancePolicy};
use crate::rebalance::Repartitioner;
use crate::trajectory::{begin_phase, LoadModel, TrajectoryKind};
use cubesfc_graph::metrics::part_exchange_points;
use cubesfc_graph::{load_balance_f64, part_loads, CsrGraph, Partition};
use cubesfc_obs::{JsonWriter, Layout};
use cubesfc_seam::{evaluate_weighted, CostModel, MachineModel, PerfReport};
use std::fmt::Write as _;

/// Schema tag of the JSON report.
pub const REBALANCE_SCHEMA: &str = "cubesfc-rebalance-v1";

/// Fixed parameters of one simulation run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Number of timesteps to simulate.
    pub steps: usize,
    /// Number of processors (parts).
    pub nproc: usize,
    /// Machine constants for step-time and migration modelling.
    pub machine: MachineModel,
    /// Cost model (flops and bytes per element).
    pub cost: CostModel,
}

/// What happened at one timestep.
#[derive(Clone, Debug)]
pub struct StepRecord {
    /// Step index.
    pub step: usize,
    /// LB (Eq. 1) of the incumbent partition under this step's weights.
    pub lb_before: f64,
    /// LB after this step's action (equals `lb_before` if no trigger).
    pub lb_after: f64,
    /// Did the policy fire?
    pub triggered: bool,
    /// Elements migrated this step.
    pub moved_elems: usize,
    /// `moved_elems` as a fraction of the mesh (0 when no trigger) —
    /// the churn signal `trace analyze` alerts on.
    pub migration_fraction: f64,
    /// Bytes migrated this step.
    pub moved_bytes: f64,
    /// Modelled SEAM seconds per timestep on the adopted partition.
    pub step_time: f64,
    /// Modelled one-off migration seconds paid this step.
    pub migration_time: f64,
}

impl StepRecord {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object().field("step", self.step);
        w.field("lb_before", self.lb_before);
        w.field("lb_after", self.lb_after);
        // The `rebalance` counter track's `lb_measured` is the
        // post-action Eq. (1) LB; exported under both names so the
        // report and the trace agree field-for-field.
        w.field("lb_measured", self.lb_after);
        w.field("triggered", self.triggered);
        w.field("moved_elems", self.moved_elems);
        w.field("migration_fraction", self.migration_fraction);
        w.field("moved_bytes", self.moved_bytes);
        w.field("step_time", self.step_time);
        w.field("migration_time", self.migration_time).end_object();
    }
}

/// The full run: per-step records plus aggregates.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Backend label (e.g. `sfc-incremental`).
    pub backend: String,
    /// Policy label.
    pub policy: String,
    /// Trajectory label.
    pub trajectory: String,
    /// Element count.
    pub nelems: usize,
    /// Processor count.
    pub nproc: usize,
    /// One record per step.
    pub records: Vec<StepRecord>,
    /// The partition in force after the final step.
    pub final_partition: Partition,
}

impl SimReport {
    /// How many steps fired a rebalance.
    pub fn trigger_count(&self) -> usize {
        self.records.iter().filter(|r| r.triggered).count()
    }

    /// Total elements migrated across the run.
    pub fn total_moved_elems(&self) -> usize {
        self.records.iter().map(|r| r.moved_elems).sum()
    }

    /// Total bytes migrated across the run.
    pub fn total_moved_bytes(&self) -> f64 {
        self.records.iter().map(|r| r.moved_bytes).sum()
    }

    /// Mean post-action LB over the run.
    pub fn mean_lb(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().map(|r| r.lb_after).sum::<f64>() / self.records.len() as f64
    }

    /// Worst post-action LB over the run.
    pub fn max_lb(&self) -> f64 {
        self.records.iter().map(|r| r.lb_after).fold(0.0, f64::max)
    }

    /// Modelled total seconds: every step's compute+comm plus every
    /// migration paid along the way (a rank death's evacuation included).
    pub fn modelled_total_seconds(&self) -> f64 {
        self.records
            .iter()
            .map(|r| r.step_time + r.migration_time)
            .sum()
    }

    /// Serialize as a `cubesfc-rebalance-v1` JSON document (parseable
    /// by `cubesfc_obs::json_parse`).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::with_capacity(Layout::Document, 512 + self.records.len() * 320);
        w.begin_object().field("schema", REBALANCE_SCHEMA);
        w.field("backend", &self.backend)
            .field("policy", &self.policy);
        w.field("trajectory", &self.trajectory);
        w.field("nelems", self.nelems).field("nproc", self.nproc);
        w.field("steps", self.records.len());
        w.field("trigger_count", self.trigger_count());
        w.field("moved_elems", self.total_moved_elems());
        w.field("moved_bytes", self.total_moved_bytes());
        w.field("mean_lb", self.mean_lb())
            .field("max_lb", self.max_lb());
        w.field("modelled_total_seconds", self.modelled_total_seconds());
        w.key("records").begin_array();
        for r in &self.records {
            r.write_json(&mut w);
        }
        w.end_array().end_object().finish()
    }

    /// Render a fixed-width summary table of the run.
    pub fn render_table(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "rebalance: backend={} policy={} trajectory={} K={} Nproc={}",
            self.backend, self.policy, self.trajectory, self.nelems, self.nproc
        );
        let _ = writeln!(
            s,
            "{:>5} {:>9} {:>9} {:>8} {:>7} {:>12} {:>11}",
            "step", "LB_pre", "LB_post", "trigger", "moved", "bytes", "t_step(ms)"
        );
        for r in &self.records {
            let _ = writeln!(
                s,
                "{:>5} {:>9.4} {:>9.4} {:>8} {:>7} {:>12.0} {:>11.3}",
                r.step,
                r.lb_before,
                r.lb_after,
                if r.triggered { "yes" } else { "-" },
                r.moved_elems,
                r.moved_bytes,
                r.step_time * 1e3,
            );
        }
        let _ = writeln!(
            s,
            "summary: triggers={} moved={} elems ({:.1} MiB) mean_LB={:.4} max_LB={:.4} modelled_total={:.3} s",
            self.trigger_count(),
            self.total_moved_elems(),
            self.total_moved_bytes() / (1024.0 * 1024.0),
            self.mean_lb(),
            self.max_lb(),
            self.modelled_total_seconds(),
        );
        s
    }
}

/// Run `steps` timesteps of `model` against `backend` under `policy`.
///
/// `initial` is the step-0 partition (typically the uniform split the
/// static partitioner would produce); it must cover exactly the
/// elements of `graph` and `model` with `config.nproc` parts.
///
/// A [`TrajectoryKind::RankDeath`] in `model` forces a rebalance at its
/// step, whatever the policy says: the backend re-splits with the dead
/// rank's capacity zeroed, and from then on every re-split does, and LB
/// is measured over the survivors. A run in which no rank survives
/// fails with the splitter's `ZeroCapacity` error.
pub fn run_rebalance(
    graph: &CsrGraph,
    model: &LoadModel,
    backend: &mut dyn Repartitioner,
    policy: RebalancePolicy,
    initial: Partition,
    config: &SimConfig,
) -> Result<SimReport, BalanceError> {
    let bad = |reason: String| BalanceError::BadConfig { reason };
    if config.steps == 0 {
        return Err(bad("steps must be at least 1".into()));
    }
    if initial.len() != graph.nv() {
        return Err(bad(format!(
            "initial partition covers {} elements, graph has {}",
            initial.len(),
            graph.nv()
        )));
    }
    if model.len() != graph.nv() {
        return Err(bad(format!(
            "load model covers {} elements, graph has {}",
            model.len(),
            graph.nv()
        )));
    }
    if initial.nparts() != config.nproc {
        return Err(bad(format!(
            "initial partition has {} parts, config.nproc is {}",
            initial.nparts(),
            config.nproc
        )));
    }
    if let Some(rank) = model
        .kinds()
        .iter()
        .filter_map(TrajectoryKind::rank)
        .find(|&r| r >= config.nproc)
    {
        return Err(bad(format!(
            "trajectory {} strikes rank {rank}, config.nproc is {}",
            model.label(),
            config.nproc
        )));
    }

    let _span = cubesfc_obs::span("rebalance_sim");
    let bytes_per_elem = config.cost.element_state_bytes();
    let cost_benefit = matches!(policy, RebalancePolicy::CostBenefit { .. });
    let mut engine = PolicyEngine::new(policy);
    let mut current = initial;
    let mut records = Vec::with_capacity(config.steps);
    let mut timeline = TimelineEmitter::new(config.nproc);

    for step in 0..config.steps {
        // Dead ranks get zero capacity in every re-split from their
        // death on; the death step itself must be answered at once.
        let capacities = model.capacities_at(step, config.nproc);
        let forced_by_death = model.death_at(step);
        let weights = model.weights_at(step, &current);
        // Pre-action per-rank loads: the trace's straggler signal must
        // see the imbalance the policy reacts to, not the corrected one.
        let loads_before = part_loads(&current, &weights);
        let lb_before = lb_over_alive(&loads_before, capacities.as_deref());

        // The cost-benefit policy needs the candidate *before* deciding;
        // the reactive policies decide first and repartition only on a
        // trigger.
        let mut staged: Option<MigrationPlan> = None;
        if cost_benefit {
            let plan = propose(
                backend,
                step,
                &weights,
                &current,
                config,
                bytes_per_elem,
                capacities.as_deref(),
            )?;
            staged = Some(plan);
        }

        let decision = {
            let _phase = begin_phase("policy");
            let input = PolicyInput {
                step,
                current: &current,
                weights: &weights,
                graph,
                machine: &config.machine,
                cost: &config.cost,
            };
            let candidate = staged.as_ref().map(|p| (&p.target, p.moved_bytes));
            engine.decide(&input, candidate)
        };
        let triggered = decision.trigger || forced_by_death;

        let mut record = StepRecord {
            step,
            lb_before,
            lb_after: lb_before,
            triggered,
            moved_elems: 0,
            migration_fraction: 0.0,
            moved_bytes: 0.0,
            step_time: 0.0,
            migration_time: 0.0,
        };

        if triggered {
            let plan = match staged {
                Some(plan) => plan,
                None => propose(
                    backend,
                    step,
                    &weights,
                    &current,
                    config,
                    bytes_per_elem,
                    capacities.as_deref(),
                )?,
            };
            let _phase = begin_phase("apply");
            record.moved_elems = plan.moved_elems;
            record.migration_fraction = plan.moved_elems as f64 / graph.nv().max(1) as f64;
            record.moved_bytes = plan.moved_bytes;
            record.migration_time = migration_seconds(plan.moved_bytes, &config.machine);
            current = plan.target;
            record.lb_after = lb_over_alive(&part_loads(&current, &weights), capacities.as_deref());
            cubesfc_obs::counter_add("rebalance.triggers", 1);
            cubesfc_obs::counter_add("rebalance.moved_elems", plan.moved_elems as u64);
        }

        engine.observe(record.lb_after);
        let perf = evaluate_weighted(graph, &current, &weights, &config.machine, &config.cost);
        record.step_time = perf.time_per_step;
        if let Some(tl) = timeline.as_mut() {
            tl.record_step(&record, &loads_before, &perf, graph, &current, &config.cost);
        }
        cubesfc_obs::histogram_record("rebalance.lb_permille", (record.lb_after * 1000.0) as u64);
        records.push(record);
    }

    Ok(SimReport {
        backend: backend.label(),
        policy: policy.label().to_string(),
        trajectory: model.label(),
        nelems: graph.nv(),
        nproc: config.nproc,
        records,
        final_partition: current,
    })
}

/// Eq. (1) LB over the surviving ranks only: a permanently dead rank's
/// empty part must not read as "perfectly idle processor" and poison
/// the average.
fn lb_over_alive(loads: &[f64], capacities: Option<&[f64]>) -> f64 {
    match capacities {
        Some(caps) => {
            let alive: Vec<f64> = loads
                .iter()
                .zip(caps)
                .filter(|(_, &c)| c > 0.0)
                .map(|(&l, _)| l)
                .collect();
            load_balance_f64(&alive)
        }
        None => load_balance_f64(loads),
    }
}

/// Writes the modelled per-rank timeline onto the event tracer when
/// `--trace` is on: one `rank <r>` lane per processor plus a `steps`
/// lane delimiting each timestep, laid out on a synthetic nanosecond
/// axis built from the perf model's per-rank seconds. The time axis is
/// a pure function of the simulated run (no wall clock), so a fixed
/// seed produces a byte-identical trace — and a byte-identical
/// `trace analyze` document replayed from it. Slice names follow the
/// analyzer's vocabulary: `compute` (with the partition's `elements`
/// count), `pack` (modelled exchange, with `bytes`/`messages`), and
/// `wait` (slack to the step barrier). Each step also writes one sample
/// of the `rebalance` counter track at the step's start: the record's
/// gauges plus the pre-action load of every rank (`rank <r>`).
struct TimelineEmitter {
    ranks: Vec<cubesfc_obs::Lane>,
    steps: cubesfc_obs::Lane,
    cursor_ns: u64,
}

impl TimelineEmitter {
    fn new(nproc: usize) -> Option<TimelineEmitter> {
        if !cubesfc_obs::trace_enabled() {
            return None;
        }
        Some(TimelineEmitter {
            ranks: (0..nproc)
                .map(|r| cubesfc_obs::trace_lane(&format!("rank {r}")))
                .collect(),
            steps: cubesfc_obs::trace_lane("steps"),
            cursor_ns: 0,
        })
    }

    fn record_step(
        &mut self,
        record: &StepRecord,
        loads: &[f64],
        perf: &PerfReport,
        graph: &CsrGraph,
        partition: &Partition,
        cost: &CostModel,
    ) {
        // Modelled exchange volume per rank: the same aggregation the
        // perf model prices (one message per neighbour rank per stage).
        let bpps = cost.bytes_per_point_per_stage();
        let stages = cost.stages as u64;
        let mut bytes = vec![0u64; self.ranks.len()];
        let mut messages = vec![0u64; self.ranks.len()];
        for (from, _to, points) in part_exchange_points(graph, partition) {
            bytes[from as usize] += (points as f64 * bpps) as u64 * stages;
            messages[from as usize] += stages;
        }
        // Work in integer nanoseconds throughout so the barrier (the
        // max over ranks) is exactly consistent with the per-rank slice
        // ends — no float rounding can invert a wait slice.
        let ns = |s: f64| (s.max(0.0) * 1e9).round() as u64;
        let durs: Vec<(u64, u64)> = (0..self.ranks.len())
            .map(|r| (ns(perf.per_rank_compute[r]), ns(perf.per_rank_comm[r])))
            .collect();
        let step_ns = durs.iter().map(|&(c, p)| c + p).max().unwrap_or(0).max(1);
        let start = self.cursor_ns;
        for (r, lane) in self.ranks.iter().enumerate() {
            let (compute_ns, pack_ns) = durs[r];
            let c_end = start + compute_ns;
            let p_end = c_end + pack_ns;
            lane.slice_at(
                "compute",
                start,
                c_end,
                &[("elements", perf.stats.nelemd[r])],
            );
            lane.slice_at(
                "pack",
                c_end,
                p_end,
                &[("bytes", bytes[r]), ("messages", messages[r])],
            );
            lane.slice_at("wait", p_end, start + step_ns, &[]);
        }
        self.steps.slice_at(
            "step",
            start,
            start + step_ns,
            &[("step", record.step as u64)],
        );
        let gauges = [
            ("lb_before", record.lb_before),
            ("lb_measured", record.lb_after),
            ("migration_fraction", record.migration_fraction),
            ("step_time", record.step_time),
            ("migration_time", record.migration_time),
            ("triggered", if record.triggered { 1.0 } else { 0.0 }),
        ];
        let values = cubesfc_obs::counter_values(&gauges, loads);
        self.steps.counter_at("rebalance", start, &values);
        self.cursor_ns = start + step_ns;
    }
}

/// Repartition + plan, each under its trace lane.
///
/// With `capacities` (the degraded path after a rank death) the backend
/// honors per-rank capacities and the plan takes the candidate's labels
/// as authoritative — overlap relabeling could otherwise map a surviving
/// part back onto the dead rank.
fn propose(
    backend: &mut dyn Repartitioner,
    step: usize,
    weights: &[f64],
    current: &Partition,
    config: &SimConfig,
    bytes_per_elem: f64,
    capacities: Option<&[f64]>,
) -> Result<MigrationPlan, BalanceError> {
    let candidate = {
        let _phase = begin_phase("repartition");
        match capacities {
            Some(caps) => backend.repartition_capacity(step, weights, caps)?,
            None => backend.repartition(step, weights, config.nproc)?,
        }
    };
    match capacities {
        Some(_) => MigrationPlan::from_target(current, &candidate, bytes_per_elem),
        None => MigrationPlan::new(current, &candidate, bytes_per_elem),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rebalance::IncrementalSfc;
    use cubesfc_graph::split_order_weighted;
    use cubesfc_mesh::{CubedSphere, GlobalCurve};

    fn setup(ne: usize) -> (CsrGraph, GlobalCurve, CubedSphere) {
        let mesh = CubedSphere::new(ne);
        let graph = mesh.dual_graph(Default::default());
        let curve = GlobalCurve::build(ne).unwrap();
        (graph, curve, mesh)
    }

    fn uniform_split(curve: &GlobalCurve, nproc: usize) -> Partition {
        let w = vec![1.0; curve.len()];
        split_order_weighted(curve.len(), |r| curve.elem_at(r).index(), nproc, &w).unwrap()
    }

    fn config(steps: usize, nproc: usize) -> SimConfig {
        SimConfig {
            steps,
            nproc,
            machine: MachineModel::ncar_p690(),
            cost: CostModel::seam_climate(),
        }
    }

    #[test]
    fn threshold_run_rebalances_and_improves_lb() {
        let (graph, curve, mesh) = setup(6);
        let model = LoadModel::from_mesh(&mesh, TrajectoryKind::named("amr", 20).unwrap());
        let initial = uniform_split(&curve, 8);
        let mut backend = IncrementalSfc::new(curve);
        let report = run_rebalance(
            &graph,
            &model,
            &mut backend,
            RebalancePolicy::named("threshold").unwrap(),
            initial,
            &config(20, 8),
        )
        .unwrap();
        assert_eq!(report.records.len(), 20);
        assert!(
            report.trigger_count() >= 1,
            "hotspot must fire the threshold"
        );
        // Whenever it fired, LB improved.
        for r in report.records.iter().filter(|r| r.triggered) {
            assert!(r.lb_after <= r.lb_before + 1e-12);
            assert!(r.moved_elems > 0);
        }
        assert!(report.total_moved_elems() < graph.nv() * report.trigger_count());
    }

    #[test]
    fn periodic_and_costbenefit_run_clean() {
        let (graph, curve, mesh) = setup(4);
        let model = LoadModel::from_mesh(&mesh, TrajectoryKind::named("diurnal", 12).unwrap());
        for policy in ["periodic", "costbenefit"] {
            let initial = uniform_split(&curve, 6);
            let mut backend = IncrementalSfc::new(curve.clone());
            let report = run_rebalance(
                &graph,
                &model,
                &mut backend,
                RebalancePolicy::named(policy).unwrap(),
                initial,
                &config(12, 6),
            )
            .unwrap();
            assert_eq!(report.records.len(), 12);
            assert!(report.max_lb() < 1.0);
            assert!(report.modelled_total_seconds() > 0.0);
        }
    }

    #[test]
    fn report_json_parses_and_round_trips_counts() {
        let (graph, curve, mesh) = setup(4);
        let model = LoadModel::from_mesh(&mesh, TrajectoryKind::named("amr", 6).unwrap());
        let initial = uniform_split(&curve, 4);
        let mut backend = IncrementalSfc::new(curve);
        let report = run_rebalance(
            &graph,
            &model,
            &mut backend,
            RebalancePolicy::named("periodic").unwrap(),
            initial,
            &config(6, 4),
        )
        .unwrap();
        let doc = cubesfc_obs::json_parse(&report.to_json()).unwrap();
        assert_eq!(
            doc.get("schema").and_then(|v| v.as_str()),
            Some(REBALANCE_SCHEMA)
        );
        assert_eq!(doc.get("steps").and_then(|v| v.as_u64()), Some(6));
        let recs = doc.get("records").and_then(|v| v.as_arr()).unwrap();
        assert_eq!(recs.len(), 6);
        let table = report.render_table();
        assert!(table.contains("summary:"));
    }

    #[test]
    fn rank_death_degrades_and_conserves_elements() {
        let (graph, curve, mesh) = setup(6);
        let amr = TrajectoryKind::named("amr", 20).unwrap();
        let death = TrajectoryKind::RankDeath { rank: 3, step: 10 };
        let model = LoadModel::overlay(&mesh, vec![amr, death]);
        let initial = uniform_split(&curve, 8);
        let mut backend = IncrementalSfc::new(curve);
        let report = run_rebalance(
            &graph,
            &model,
            &mut backend,
            RebalancePolicy::named("threshold").unwrap(),
            initial,
            &config(20, 8),
        )
        .unwrap();
        assert_eq!(report.trajectory, "amr+death");
        // Dead rank evacuated at step 10 and stays empty forever.
        assert_eq!(report.final_partition.part_sizes()[3], 0);
        assert_eq!(
            report.final_partition.part_sizes().iter().sum::<usize>(),
            graph.nv()
        );
        // The death step forced a rebalance; the evacuation is paid as
        // migration.
        assert!(report.records[10].triggered);
        assert!(report.records[10].migration_time > 0.0);
        // Post-death LB is over the 7 survivors, not 8 parts with a hole.
        for r in &report.records[10..] {
            assert!(r.lb_after < 0.9, "step {}: LB {}", r.step, r.lb_after);
        }
    }

    #[test]
    fn fault_runs_are_deterministic() {
        let (graph, curve, mesh) = setup(4);
        let kinds = TrajectoryKind::parse("amr+slow:1@3..9x2.5+death:2@8", 6, 15).unwrap();
        let model = LoadModel::overlay(&mesh, kinds);
        let run = || {
            let initial = uniform_split(&curve, 6);
            let mut backend = IncrementalSfc::new(curve.clone());
            let report = run_rebalance(
                &graph,
                &model,
                &mut backend,
                RebalancePolicy::named("threshold").unwrap(),
                initial,
                &config(15, 6),
            )
            .unwrap();
            report.to_json()
        };
        assert_eq!(run(), run(), "report must be byte-identical");
    }

    #[test]
    fn config_errors_are_reported() {
        let (graph, curve, mesh) = setup(4);
        let model = LoadModel::from_mesh(&mesh, TrajectoryKind::named("amr", 4).unwrap());
        let initial = uniform_split(&curve, 4);
        let mut backend = IncrementalSfc::new(curve);
        let err = run_rebalance(
            &graph,
            &model,
            &mut backend,
            RebalancePolicy::named("threshold").unwrap(),
            initial.clone(),
            &config(0, 4),
        )
        .unwrap_err();
        assert!(matches!(err, BalanceError::BadConfig { .. }));
        let err = run_rebalance(
            &graph,
            &model,
            &mut backend,
            RebalancePolicy::named("threshold").unwrap(),
            initial.clone(),
            &config(4, 5),
        )
        .unwrap_err();
        assert!(matches!(err, BalanceError::BadConfig { .. }));
        // A fault on a rank the run does not have.
        let amr = TrajectoryKind::named("amr", 4).unwrap();
        let dead = LoadModel::overlay(
            &mesh,
            vec![amr, TrajectoryKind::RankDeath { rank: 4, step: 1 }],
        );
        let err = run_rebalance(
            &graph,
            &dead,
            &mut backend,
            RebalancePolicy::named("threshold").unwrap(),
            initial,
            &config(4, 4),
        )
        .unwrap_err();
        assert!(err.to_string().contains("strikes rank 4"), "{err}");
    }
}
