//! Rebalance policies: when is re-partitioning worth it?
//!
//! Rebalancing is never free — elements carry state (≈52 KiB each under
//! the climate cost model) that must cross the network. Three policies
//! span the classic trade-off space:
//!
//! * [`RebalancePolicy::Threshold`] — react to imbalance itself, with
//!   hysteresis: trigger when LB (Eq. 1 of the paper) exceeds `trigger`,
//!   then re-arm only after it falls back below `rearm`, so a load
//!   hovering at the threshold does not thrash.
//! * [`RebalancePolicy::Periodic`] — the classic production default:
//!   every `every` steps, regardless of what the load is doing.
//! * [`RebalancePolicy::CostBenefit`] — consult the α/β performance
//!   model: rebalance only when the modelled step-time saving of the
//!   candidate partition, accumulated over `horizon` future steps,
//!   exceeds the modelled one-off cost of migrating the plan's bytes.

use cubesfc_graph::{load_balance_f64, part_loads, CsrGraph, Partition};
use cubesfc_obs::{AlertEngine, AlertRule};
use cubesfc_seam::{evaluate_weighted, CostModel, MachineModel};
use std::collections::BTreeMap;

/// The decision rule, with per-policy parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RebalancePolicy {
    /// Trigger at `LB > trigger`; re-arm once `LB < rearm` again.
    /// Requires `rearm <= trigger`.
    Threshold {
        /// Imbalance that fires a rebalance.
        trigger: f64,
        /// Imbalance below which the trigger re-arms.
        rearm: f64,
    },
    /// Trigger every `every` steps (at steps `every`, `2·every`, …).
    Periodic {
        /// Period in steps.
        every: usize,
    },
    /// Trigger when the modelled saving over `horizon` steps beats the
    /// modelled migration cost.
    CostBenefit {
        /// Steps over which a step-time saving is assumed to persist.
        horizon: usize,
    },
}

impl RebalancePolicy {
    /// Parse a CLI policy name: `threshold`, `periodic`, `costbenefit`
    /// (with canonical parameters).
    pub fn named(name: &str) -> Option<RebalancePolicy> {
        match name {
            "threshold" => Some(RebalancePolicy::Threshold {
                trigger: 0.15,
                rearm: 0.10,
            }),
            "periodic" => Some(RebalancePolicy::Periodic { every: 10 }),
            "costbenefit" => Some(RebalancePolicy::CostBenefit { horizon: 20 }),
            _ => None,
        }
    }

    /// The short name ([`RebalancePolicy::named`]'s inverse).
    pub fn label(&self) -> &'static str {
        match self {
            RebalancePolicy::Threshold { .. } => "threshold",
            RebalancePolicy::Periodic { .. } => "periodic",
            RebalancePolicy::CostBenefit { .. } => "costbenefit",
        }
    }
}

/// Everything a policy may consult when deciding.
pub struct PolicyInput<'a> {
    /// Step index.
    pub step: usize,
    /// Current (pre-rebalance) partition.
    pub current: &'a Partition,
    /// This step's element weights.
    pub weights: &'a [f64],
    /// Element dual graph (GLL-point edge weights), for the perf model.
    pub graph: &'a CsrGraph,
    /// Machine constants for step-time and migration-time modelling.
    pub machine: &'a MachineModel,
    /// Cost model (flops per element, element state bytes).
    pub cost: &'a CostModel,
}

/// What the policy decided and why — recorded per step in the report.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Decision {
    /// Rebalance now?
    pub trigger: bool,
    /// LB(weighted loads) of the current partition this step.
    pub lb: f64,
    /// Modelled benefit in seconds over the horizon (cost-benefit only).
    pub modelled_benefit: f64,
    /// Modelled migration cost in seconds (cost-benefit only).
    pub modelled_cost: f64,
}

/// A policy plus its arming state (hysteresis needs memory). The
/// threshold policy is one [`AlertRule`] over the step's LB, with
/// `min_duration` 1; the other policies run an engine without rules.
#[derive(Clone, Debug)]
pub struct PolicyEngine {
    policy: RebalancePolicy,
    hysteresis: AlertEngine,
}

/// The gauge map the hysteresis rule reads.
fn lb_gauge(lb: f64) -> BTreeMap<String, f64> {
    BTreeMap::from([("lb".to_string(), lb)])
}

impl PolicyEngine {
    /// Start with the trigger armed.
    pub fn new(policy: RebalancePolicy) -> PolicyEngine {
        let rules = match policy {
            RebalancePolicy::Threshold { trigger, rearm } => {
                vec![AlertRule::new("threshold", "lb", trigger, 1, rearm)]
            }
            _ => Vec::new(),
        };
        PolicyEngine {
            policy,
            hysteresis: AlertEngine::new(rules),
        }
    }

    /// The wrapped policy.
    pub fn policy(&self) -> RebalancePolicy {
        self.policy
    }

    /// Feed back the *post-action* LB of a step. For the threshold
    /// policy this is the other half of the hysteresis loop: a
    /// rebalance that actually restored balance (LB below `rearm`)
    /// re-arms the trigger for the next excursion, while a futile one
    /// leaves it disarmed so a stuck-high load is not rebalanced every
    /// step to no effect. Only a disarmed rule sees the sample, so it
    /// re-arms but never fires; non-finite samples are skipped.
    pub fn observe(&mut self, lb_after: f64) {
        if !self.armed() {
            self.hysteresis.observe(&lb_gauge(lb_after));
        }
    }

    /// Whether the threshold trigger is currently armed.
    pub fn armed(&self) -> bool {
        self.hysteresis.armed()
    }

    /// Decide for one step. For the cost-benefit policy, `candidate`
    /// supplies the partition that *would* be adopted together with its
    /// migration bytes; the other policies ignore it (pass `None` and
    /// compute the candidate only after a trigger).
    pub fn decide(
        &mut self,
        input: &PolicyInput<'_>,
        candidate: Option<(&Partition, f64)>,
    ) -> Decision {
        let lb = load_balance_f64(&part_loads(input.current, input.weights));
        let mut decision = Decision {
            trigger: false,
            lb,
            modelled_benefit: 0.0,
            modelled_cost: 0.0,
        };
        match self.policy {
            // The pre-action LB both re-arms and fires; a non-finite one
            // (NaN from a degenerate load step) is skipped, keeping the
            // arming state.
            RebalancePolicy::Threshold { .. } => {
                decision.trigger = !self.hysteresis.observe(&lb_gauge(lb)).is_empty();
            }
            RebalancePolicy::Periodic { every } => {
                let every = every.max(1);
                decision.trigger = input.step > 0 && input.step.is_multiple_of(every);
            }
            RebalancePolicy::CostBenefit { horizon } => {
                if let Some((cand, moved_bytes)) = candidate {
                    let old = evaluate_weighted(
                        input.graph,
                        input.current,
                        input.weights,
                        input.machine,
                        input.cost,
                    );
                    let new = evaluate_weighted(
                        input.graph,
                        cand,
                        input.weights,
                        input.machine,
                        input.cost,
                    );
                    let saving_per_step = old.time_per_step - new.time_per_step;
                    decision.modelled_benefit = saving_per_step * horizon as f64;
                    decision.modelled_cost = migration_seconds(moved_bytes, input.machine);
                    decision.trigger = decision.modelled_benefit > decision.modelled_cost;
                }
            }
        }
        decision
    }
}

/// Model the wall-clock cost of shipping `bytes` of element state
/// during a rebalance: the volume crosses the network once, paced by
/// the inter-node route (the conservative choice — migrating ranks
/// rarely share a node), plus one latency per participating rank pair.
///
/// Migration is bandwidth-dominated (tens of KiB per element), so the
/// simple `bytes / bandwidth + latency` α/β form is used rather than a
/// per-message schedule.
pub fn migration_seconds(bytes: f64, machine: &MachineModel) -> f64 {
    if bytes <= 0.0 {
        return 0.0;
    }
    machine.latency_inter + bytes / machine.bandwidth_inter
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input_for<'a>(
        step: usize,
        current: &'a Partition,
        weights: &'a [f64],
        graph: &'a CsrGraph,
        machine: &'a MachineModel,
        cost: &'a CostModel,
    ) -> PolicyInput<'a> {
        PolicyInput {
            step,
            current,
            weights,
            graph,
            machine,
            cost,
        }
    }

    fn tiny_graph(n: usize) -> CsrGraph {
        // A path graph: enough structure for the perf model.
        let mut lists = vec![Vec::new(); n];
        for v in 0..n - 1 {
            lists[v].push((v as u32 + 1, 1));
            lists[v + 1].push((v as u32, 1));
        }
        CsrGraph::from_lists(&lists).unwrap()
    }

    #[test]
    fn named_policies_round_trip() {
        for name in ["threshold", "periodic", "costbenefit"] {
            assert_eq!(RebalancePolicy::named(name).unwrap().label(), name);
        }
        assert!(RebalancePolicy::named("never").is_none());
    }

    #[test]
    fn threshold_hysteresis_prevents_thrash() {
        let g = tiny_graph(4);
        let p = Partition::new(2, vec![0, 0, 1, 1]);
        let machine = MachineModel::ncar_p690();
        let cost = CostModel::seam_climate();
        let mut eng = PolicyEngine::new(RebalancePolicy::Threshold {
            trigger: 0.2,
            rearm: 0.1,
        });
        // LB = (max-avg)/max: weights [3,1,1,1] → loads [4,2], LB=1/3.
        let hot = vec![3.0, 1.0, 1.0, 1.0];
        let flat = vec![1.0; 4];
        let d1 = eng.decide(&input_for(0, &p, &hot, &g, &machine, &cost), None);
        assert!(d1.trigger, "first excursion fires");
        // Still above trigger, but disarmed: no second fire.
        let d2 = eng.decide(&input_for(1, &p, &hot, &g, &machine, &cost), None);
        assert!(!d2.trigger, "hysteresis holds while disarmed");
        // Drop below rearm, then spike again: fires again.
        let d3 = eng.decide(&input_for(2, &p, &flat, &g, &machine, &cost), None);
        assert!(!d3.trigger);
        let d4 = eng.decide(&input_for(3, &p, &hot, &g, &machine, &cost), None);
        assert!(d4.trigger, "re-armed after calm step");
    }

    #[test]
    fn successful_rebalance_rearms_via_observe() {
        let g = tiny_graph(4);
        let p = Partition::new(2, vec![0, 0, 1, 1]);
        let machine = MachineModel::ncar_p690();
        let cost = CostModel::seam_climate();
        let mut eng = PolicyEngine::new(RebalancePolicy::Threshold {
            trigger: 0.2,
            rearm: 0.1,
        });
        let hot = vec![3.0, 1.0, 1.0, 1.0];
        assert!(
            eng.decide(&input_for(0, &p, &hot, &g, &machine, &cost), None)
                .trigger
        );
        // The rebalance restored balance: post-action LB below rearm.
        eng.observe(0.02);
        // Load spikes again immediately — the trigger must be live.
        assert!(
            eng.decide(&input_for(1, &p, &hot, &g, &machine, &cost), None)
                .trigger
        );
        // A futile rebalance (post LB still high) does NOT re-arm.
        eng.observe(0.5);
        assert!(
            !eng.decide(&input_for(2, &p, &hot, &g, &machine, &cost), None)
                .trigger
        );
    }

    #[test]
    fn observe_rearms_but_never_fires() {
        // A death-forced re-split leaves the trigger armed and may end
        // above `trigger`: observing that post-action LB must neither
        // fire nor disarm, so the next excursion still fires.
        let g = tiny_graph(4);
        let p = Partition::new(2, vec![0, 0, 1, 1]);
        let machine = MachineModel::ncar_p690();
        let cost = CostModel::seam_climate();
        let mut eng = PolicyEngine::new(RebalancePolicy::Threshold {
            trigger: 0.2,
            rearm: 0.1,
        });
        let hot = vec![3.0, 1.0, 1.0, 1.0];
        assert!(eng.armed());
        eng.observe(0.5);
        assert!(eng.armed(), "observe never disarms");
        assert!(
            eng.decide(&input_for(0, &p, &hot, &g, &machine, &cost), None)
                .trigger,
            "the armed trigger still fires"
        );
    }

    #[test]
    fn non_finite_samples_are_skipped_not_consumed() {
        let g = tiny_graph(4);
        let p = Partition::new(2, vec![0, 0, 1, 1]);
        let machine = MachineModel::ncar_p690();
        let cost = CostModel::seam_climate();
        let mut eng = PolicyEngine::new(RebalancePolicy::Threshold {
            trigger: 0.2,
            rearm: 0.1,
        });
        let hot = vec![3.0, 1.0, 1.0, 1.0];
        assert!(
            eng.decide(&input_for(0, &p, &hot, &g, &machine, &cost), None)
                .trigger
        );
        assert!(!eng.armed(), "fired and disarmed");
        // A NaN post-action LB must not re-arm...
        eng.observe(f64::NAN);
        assert!(!eng.armed());
        // ...and must not block a later genuine recovery from re-arming.
        eng.observe(0.05);
        assert!(eng.armed());
        // A NaN weight poisons the decide-path LB (the per-part sum is
        // NaN even though the finite-max filter survives): the engine
        // must treat the step as a no-op, keeping its arming state.
        let poisoned = vec![f64::NAN, 1.0, 1.0, 1.0];
        let d = eng.decide(&input_for(1, &p, &poisoned, &g, &machine, &cost), None);
        assert!(!d.trigger, "NaN LB never fires");
        assert!(eng.armed(), "NaN LB must not consume the armed state");
        // The next finite excursion still fires.
        assert!(
            eng.decide(&input_for(2, &p, &hot, &g, &machine, &cost), None)
                .trigger
        );
    }

    #[test]
    fn periodic_fires_on_schedule() {
        let g = tiny_graph(4);
        let p = Partition::new(2, vec![0, 0, 1, 1]);
        let machine = MachineModel::ncar_p690();
        let cost = CostModel::seam_climate();
        let w = vec![1.0; 4];
        let mut eng = PolicyEngine::new(RebalancePolicy::Periodic { every: 3 });
        let fired: Vec<bool> = (0..7)
            .map(|s| {
                eng.decide(&input_for(s, &p, &w, &g, &machine, &cost), None)
                    .trigger
            })
            .collect();
        assert_eq!(fired, [false, false, false, true, false, false, true]);
    }

    #[test]
    fn cost_benefit_weighs_saving_against_migration() {
        let g = tiny_graph(8);
        let machine = MachineModel::ncar_p690();
        let cost = CostModel::seam_climate();
        let unbalanced = Partition::new(2, vec![0, 0, 0, 0, 0, 0, 0, 1]);
        let balanced = Partition::new(2, vec![0, 0, 0, 0, 1, 1, 1, 1]);
        let w = vec![1.0; 8];
        let mut eng = PolicyEngine::new(RebalancePolicy::CostBenefit { horizon: 1_000_000 });
        // Huge horizon: any saving amortizes the migration.
        let d = eng.decide(
            &input_for(0, &unbalanced, &w, &g, &machine, &cost),
            Some((&balanced, 3.0 * cost.element_state_bytes())),
        );
        assert!(d.modelled_benefit > 0.0);
        assert!(d.modelled_cost > 0.0);
        assert!(d.trigger, "long horizon amortizes migration");
        // Horizon zero: benefit is zero, never worth paying for bytes.
        let mut eng = PolicyEngine::new(RebalancePolicy::CostBenefit { horizon: 0 });
        let d = eng.decide(
            &input_for(0, &unbalanced, &w, &g, &machine, &cost),
            Some((&balanced, 3.0 * cost.element_state_bytes())),
        );
        assert!(!d.trigger, "zero horizon never pays");
        // No candidate offered: nothing to compare, no trigger.
        let mut eng = PolicyEngine::new(RebalancePolicy::CostBenefit { horizon: 10 });
        let d = eng.decide(&input_for(0, &unbalanced, &w, &g, &machine, &cost), None);
        assert!(!d.trigger);
    }

    #[test]
    fn migration_seconds_scales_with_bytes() {
        let machine = MachineModel::ncar_p690();
        assert_eq!(migration_seconds(0.0, &machine), 0.0);
        let t1 = migration_seconds(1e6, &machine);
        let t2 = migration_seconds(2e6, &machine);
        assert!(t2 > t1 && t1 > 0.0);
    }
}
