//! Derived health signals and threshold alerting over counter tracks.
//!
//! Signals:
//!
//! * **Straggler z-score** — [`straggler_z`] measures how far the
//!   slowest rank sits above the rank ensemble, in ensemble standard
//!   deviations. A persistent faulty rank (one processor running 3×
//!   slower) shows up as a large positive z long before aggregate wall
//!   time does.
//! * **LB drift** — `trace analyze` reports each counter track's
//!   Eq. (1) load balance relative to the track's first sample, so slow
//!   degradation is visible as a trend, not just a level.
//!
//! Alerting ([`AlertEngine`]) is the one hysteresis engine: a rule has
//! a *trigger* threshold, a lower *re-arm* threshold (once fired it
//! stays silent until the signal falls back below `rearm`), and a
//! *minimum duration* in consecutive samples, so a one-sample spike does
//! not page anyone unless the rule says it should. The rebalance
//! `PolicyEngine`'s threshold policy runs on it too, as one rule over
//! the step's LB.

use std::collections::BTreeMap;

/// Z-score of the worst (largest) entry against the ensemble:
/// `(max - mean) / stddev`. Returns `(rank_index, z)`.
///
/// Degenerate ensembles are safe: fewer than two finite entries, or a
/// zero spread, give `z = 0` (no straggler can be distinguished).
/// Non-finite entries are ignored, mirroring `cubesfc_graph::load_balance_f64`.
pub fn straggler_z(per_rank: &[f64]) -> (usize, f64) {
    let mut n = 0usize;
    let mut sum = 0.0f64;
    let mut max = f64::NEG_INFINITY;
    let mut max_idx = 0usize;
    for (i, &v) in per_rank.iter().enumerate() {
        if v.is_finite() {
            n += 1;
            sum += v;
            if v > max {
                max = v;
                max_idx = i;
            }
        }
    }
    if n < 2 {
        return (max_idx, 0.0);
    }
    let mean = sum / n as f64;
    let var = per_rank
        .iter()
        .filter(|v| v.is_finite())
        .map(|&v| (v - mean) * (v - mean))
        .sum::<f64>()
        / n as f64;
    let std = var.sqrt();
    if std <= 0.0 {
        return (max_idx, 0.0);
    }
    (max_idx, (max - mean) / std)
}

/// One alert rule over a sampled gauge.
#[derive(Clone, Debug, PartialEq)]
pub struct AlertRule {
    /// Rule name, reported in fired alerts (e.g. `straggler`).
    pub name: String,
    /// The gauge the rule watches (e.g. `straggler_z`).
    pub metric: String,
    /// Fire when the gauge exceeds this...
    pub threshold: f64,
    /// ...for at least this many consecutive samples.
    pub min_duration: usize,
    /// Once fired, stay silent until the gauge falls below this
    /// (hysteresis; must be `<= threshold`).
    pub rearm: f64,
}

impl AlertRule {
    /// Convenience constructor.
    pub fn new(
        name: &str,
        metric: &str,
        threshold: f64,
        min_duration: usize,
        rearm: f64,
    ) -> AlertRule {
        AlertRule {
            name: name.to_string(),
            metric: metric.to_string(),
            threshold,
            min_duration: min_duration.max(1),
            rearm,
        }
    }
}

/// The rule set `trace analyze` runs over every counter track.
///
/// * `straggler` — one rank > 2.5σ above the ensemble on the sampled
///   per-rank values, even for a single sample (a faulty rank is worth
///   flagging the step it appears).
/// * `lb_high` — Eq. (1) load balance above 0.5 for 3 consecutive
///   samples: most of the machine is idle waiting for the slowest rank
///   and the policy is not correcting it.
/// * `migration_churn` — more than half the elements migrated per step,
///   3 steps running: rebalancing is thrashing.
pub fn default_rules() -> Vec<AlertRule> {
    vec![
        AlertRule::new("straggler", "straggler_z", 2.5, 1, 1.0),
        AlertRule::new("lb_high", "lb_measured", 0.5, 3, 0.25),
        AlertRule::new("migration_churn", "migration_fraction", 0.5, 3, 0.25),
    ]
}

/// Per-rule hysteresis state: armed or not, plus a consecutive-sample
/// streak for `min_duration`.
#[derive(Clone, Debug)]
struct RuleState {
    rule: AlertRule,
    armed: bool,
    streak: usize,
    fired: u64,
}

/// Evaluates a rule set against successive gauge maps.
#[derive(Clone, Debug, Default)]
pub struct AlertEngine {
    states: Vec<RuleState>,
}

impl AlertEngine {
    /// An engine with every rule armed.
    pub fn new(rules: Vec<AlertRule>) -> AlertEngine {
        AlertEngine {
            states: rules
                .into_iter()
                .map(|rule| RuleState {
                    rule,
                    armed: true,
                    streak: 0,
                    fired: 0,
                })
                .collect(),
        }
    }

    /// Feed one sample's gauges; returns the names of rules that fired
    /// *on this sample*. A missing metric resets the rule's streak but
    /// neither fires nor re-arms it. A *non-finite* value is different:
    /// the lane does carry the gauge, the sample is just unusable (e.g.
    /// `lb_drift` off a zero-load step), so it is skipped without
    /// touching the streak — resetting would let one NaN sample silence
    /// an alert that genuine consecutive excursions should have fired.
    pub fn observe(&mut self, gauges: &BTreeMap<String, f64>) -> Vec<String> {
        let mut fired = Vec::new();
        for st in &mut self.states {
            let Some(&v) = gauges.get(&st.rule.metric) else {
                st.streak = 0;
                continue;
            };
            if !v.is_finite() {
                continue;
            }
            // Re-arm half of the hysteresis loop: only a genuine
            // recovery below `rearm` makes the rule live again.
            if v < st.rule.rearm {
                st.armed = true;
                st.streak = 0;
                continue;
            }
            if v > st.rule.threshold {
                st.streak += 1;
                if st.armed && st.streak >= st.rule.min_duration {
                    st.armed = false;
                    st.fired += 1;
                    fired.push(st.rule.name.clone());
                }
            } else {
                st.streak = 0;
            }
        }
        fired
    }

    /// Whether every rule is armed (an engine without rules is).
    pub fn armed(&self) -> bool {
        self.states.iter().all(|s| s.armed)
    }

    /// Total fires per rule since construction, in rule order.
    pub fn fired_counts(&self) -> Vec<(String, u64)> {
        self.states
            .iter()
            .map(|s| (s.rule.name.clone(), s.fired))
            .collect()
    }

    /// Sum of all fires across rules.
    pub fn total_fired(&self) -> u64 {
        self.states.iter().map(|s| s.fired).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gauges(pairs: &[(&str, f64)]) -> BTreeMap<String, f64> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn straggler_z_flags_one_slow_rank() {
        // 15 ranks at 1.0, one at 3.0: a textbook straggler.
        let mut ranks = vec![1.0; 16];
        ranks[5] = 3.0;
        let (idx, z) = straggler_z(&ranks);
        assert_eq!(idx, 5);
        assert!(z > 3.0, "z = {z}");
        // Uniform ensemble: zero spread, zero z.
        assert_eq!(straggler_z(&[1.0; 16]).1, 0.0);
        // Degenerate inputs are quiet, not NaN.
        assert_eq!(straggler_z(&[]).1, 0.0);
        assert_eq!(straggler_z(&[4.0]).1, 0.0);
        let (_, z) = straggler_z(&[1.0, f64::NAN, 3.0, 1.0, 1.0]);
        assert!(z.is_finite());
    }

    #[test]
    fn alert_fires_once_then_needs_rearm() {
        let mut eng = AlertEngine::new(vec![AlertRule::new("hot", "lb", 0.5, 1, 0.2)]);
        assert!(eng.observe(&gauges(&[("lb", 0.1)])).is_empty());
        assert_eq!(eng.observe(&gauges(&[("lb", 0.9)])), vec!["hot"]);
        assert!(!eng.armed());
        // Still hot: hysteresis holds, no refire.
        assert!(eng.observe(&gauges(&[("lb", 0.9)])).is_empty());
        // Between rearm and threshold: still silent.
        assert!(eng.observe(&gauges(&[("lb", 0.3)])).is_empty());
        // Recovery below rearm re-arms; the next excursion fires again.
        assert!(eng.observe(&gauges(&[("lb", 0.1)])).is_empty());
        assert!(eng.armed());
        assert_eq!(eng.observe(&gauges(&[("lb", 0.9)])), vec!["hot"]);
        assert_eq!(eng.total_fired(), 2);
        assert_eq!(eng.fired_counts(), vec![("hot".to_string(), 2)]);
    }

    #[test]
    fn min_duration_requires_consecutive_excess() {
        let mut eng = AlertEngine::new(vec![AlertRule::new("slow", "z", 2.0, 3, 0.5)]);
        // Two hot samples, a calm one, two hot: the streak resets, so
        // nothing fires until three in a row.
        for v in [3.0, 3.0, 1.0, 3.0, 3.0] {
            assert!(eng.observe(&gauges(&[("z", v)])).is_empty(), "v={v}");
        }
        assert_eq!(eng.observe(&gauges(&[("z", 3.0)])), vec!["slow"]);
    }

    #[test]
    fn missing_metric_resets_streak_without_firing() {
        let mut eng = AlertEngine::new(vec![AlertRule::new("r", "m", 1.0, 2, 0.1)]);
        assert!(eng.observe(&gauges(&[("m", 2.0)])).is_empty());
        assert!(eng.observe(&gauges(&[])).is_empty());
        assert!(eng.observe(&gauges(&[("m", 2.0)])).is_empty());
        assert_eq!(eng.observe(&gauges(&[("m", 2.0)])), vec!["r"]);
    }

    #[test]
    fn non_finite_samples_are_skipped_without_resetting_the_streak() {
        let mut eng = AlertEngine::new(vec![AlertRule::new("r", "m", 1.0, 2, 0.1)]);
        // One hot sample starts the streak.
        assert!(eng.observe(&gauges(&[("m", 2.0)])).is_empty());
        // A NaN sample is unusable, but it is NOT a calm sample: the
        // streak must survive it, or one degenerate step suppresses the
        // alert indefinitely.
        assert!(eng.observe(&gauges(&[("m", f64::NAN)])).is_empty());
        assert!(eng.observe(&gauges(&[("m", f64::INFINITY)])).is_empty());
        // The second *finite* hot sample completes min_duration.
        assert_eq!(eng.observe(&gauges(&[("m", 2.0)])), vec!["r"]);
        // After firing, NaN must not re-arm either: only a genuine
        // finite recovery below `rearm` does.
        assert!(eng.observe(&gauges(&[("m", f64::NAN)])).is_empty());
        assert!(
            eng.observe(&gauges(&[("m", 2.0)])).is_empty(),
            "still disarmed"
        );
        assert!(eng.observe(&gauges(&[("m", 0.05)])).is_empty());
        assert!(
            eng.observe(&gauges(&[("m", 2.0)])).is_empty(),
            "streak 1 of 2"
        );
        assert_eq!(eng.observe(&gauges(&[("m", 2.0)])), vec!["r"]);
    }

    #[test]
    fn default_rules_cover_the_documented_signals() {
        let rules = default_rules();
        let metrics: Vec<&str> = rules.iter().map(|r| r.metric.as_str()).collect();
        assert_eq!(
            metrics,
            vec!["straggler_z", "lb_measured", "migration_fraction"]
        );
        for r in &rules {
            assert!(r.rearm <= r.threshold);
            assert!(r.min_duration >= 1);
        }
    }
}
