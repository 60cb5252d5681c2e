//! Metric definitions, the one-line JSON a round's child process hands to
//! its parent, and medians over rounds.

use crate::spans;
use crate::stats;
use crate::workloads::RoundResult;
use cubesfc::obs::{json_escape, json_parse, JsonValue};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One end-to-end metric. The same nine are reported on every workload.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    /// Share of the earlier median by which the later one may be worse.
    pub bound: f64,
    /// Repeats exactly for one seed: any difference at all is a failure.
    pub exact: bool,
}

const fn timing(
    name: &'static str,
    unit: &'static str,
    lower_is_better: bool,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        lower_is_better,
        bound,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        lower_is_better: true,
        bound,
        exact: true,
    }
}

/// `fail_share` is carried to the driver as `failed`/`attempted`, not as a
/// listed metric: a listed metric must never be 0, and this one always is.
pub const FAIL_SHARE: &str = "fail_share";

/// The timing bounds are what the reference box's noise allows, not what
/// one would wish: over ten seeds in a busy quarter of an hour the quartile
/// spread reached 9 % (`solver_step/ops_per_s`), 17 % (`solver_step/op_p90_us`),
/// 15 % (`serve_hit/cpu_ms_per_op`) and 13 % (`paper_grid/setup_s`), and a
/// bound is shared by all five workloads. README.md has the table.
pub const END_TO_END: [MetricDef; 9] = [
    timing("setup_s", "s", true, 0.25),
    timing("ops_per_s", "op/s", false, 0.20),
    timing("op_p50_us", "us", true, 0.20),
    timing("op_p90_us", "us", true, 0.25),
    timing("cpu_ms_per_op", "ms", true, 0.25),
    timing("peak_rss_mb", "MiB", true, 0.10),
    exact(FAIL_SHARE, "ratio", 0.0),
    exact("edgecut_sum", "edges", 0.01),
    exact("model_us_sum", "us/step", 0.01),
];

/// Counts of the serve workloads that repeat exactly for one seed.
pub const EXACT_EXTRAS: [&str; 5] = [
    "connects_per_op",
    "hit_ratio",
    "coalesced_share",
    "drain_accepted",
    "drain_rejected",
];

/// What the parent keeps of one round.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Round {
    pub attempted: u64,
    pub failed: u64,
    pub samples: u64,
    pub beyond_p90: u64,
    /// End-to-end metrics by name; `op_p90_us` is absent below 100 samples.
    pub metrics: BTreeMap<String, f64>,
    /// Workload-specific counts (see `RoundResult::extra`).
    pub extra: BTreeMap<String, f64>,
    /// `trace.coverage` and `trace.self_share.*` of a traced round.
    pub trace: BTreeMap<String, f64>,
    pub failures: Vec<String>,
}

impl Round {
    pub fn from_result(result: &RoundResult) -> Round {
        let mut round = Round {
            attempted: result.attempted,
            failed: result.failed,
            failures: result.failures.clone(),
            ..Round::default()
        };
        let ops = result.attempted as f64;
        let m = &mut round.metrics;
        m.insert("setup_s".into(), result.setup_s);
        m.insert("ops_per_s".into(), ops / result.timed_s);
        if let Some(latency) = stats::latency(&result.latencies_us) {
            m.insert("op_p50_us".into(), latency.p50);
            if let Some(p90) = latency.p90 {
                m.insert("op_p90_us".into(), p90);
            }
            round.samples = latency.samples as u64;
            round.beyond_p90 = latency.beyond_p90 as u64;
        }
        m.insert("cpu_ms_per_op".into(), result.cpu_ms / ops);
        m.insert("peak_rss_mb".into(), result.peak_rss_mb);
        m.insert(FAIL_SHARE.into(), result.failed as f64 / ops);
        m.insert("edgecut_sum".into(), result.edgecut_sum as f64);
        m.insert("model_us_sum".into(), result.model_us_sum);
        for (name, value) in &result.extra {
            round.extra.insert(name.to_string(), *value);
        }
        if !result.spans.is_empty() {
            round
                .trace
                .insert("trace.coverage".into(), spans::coverage(&result.spans));
            let by_layer = spans::self_time_by_layer(&result.spans);
            let total: u64 = by_layer.values().sum();
            for layer in ["mesh", "graph", "core", "seam", "serve"] {
                let own = by_layer.get(layer).copied().unwrap_or(0);
                round.trace.insert(
                    format!("trace.self_share.{layer}"),
                    own as f64 / total as f64,
                );
            }
        }
        round
    }

    /// The one line a child prints.
    pub fn to_json(&self) -> String {
        let failures: Vec<String> = self
            .failures
            .iter()
            .map(|f| format!("\"{}\"", json_escape(f)))
            .collect();
        format!(
            "{{\"attempted\":{},\"failed\":{},\"samples\":{},\"beyond_p90\":{},\"metrics\":{},\
             \"extra\":{},\"trace\":{},\"failures\":[{}]}}",
            self.attempted,
            self.failed,
            self.samples,
            self.beyond_p90,
            json_object(&self.metrics),
            json_object(&self.extra),
            json_object(&self.trace),
            failures.join(",")
        )
    }

    pub fn from_json(line: &str) -> Result<Round, String> {
        let doc = json_parse(line)?;
        let count = |key: &str| {
            doc.get(key)
                .and_then(JsonValue::as_u64)
                .ok_or(format!("no count {key:?}"))
        };
        let map = |key: &str| -> Result<BTreeMap<String, f64>, String> {
            doc.get(key)
                .and_then(JsonValue::as_obj)
                .ok_or(format!("no object {key:?}"))?
                .iter()
                // A non-finite value was written as null; it reads back as NaN
                // and the caller reports the run as incorrect.
                .map(|(k, v)| Ok((k.clone(), v.as_f64().unwrap_or(f64::NAN))))
                .collect()
        };
        Ok(Round {
            attempted: count("attempted")?,
            failed: count("failed")?,
            samples: count("samples")?,
            beyond_p90: count("beyond_p90")?,
            metrics: map("metrics")?,
            extra: map("extra")?,
            trace: map("trace")?,
            failures: doc
                .get("failures")
                .and_then(JsonValue::as_arr)
                .ok_or("no failures list")?
                .iter()
                .filter_map(|f| f.as_str().map(str::to_string))
                .collect(),
        })
    }
}

/// `{"name":number,...}` in name order.
pub fn json_object(values: &BTreeMap<String, f64>) -> String {
    let fields: Vec<String> = values
        .iter()
        .map(|(k, v)| format!("\"{}\":{}", json_escape(k), json_number(*v)))
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// A JSON number with all its digits; `null` for NaN and infinities.
pub fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// Median over rounds of every value `pick` finds in them, by name.
pub fn medians<'a>(
    rounds: &'a [Round],
    pick: impl Fn(&'a Round) -> &'a BTreeMap<String, f64>,
) -> BTreeMap<String, f64> {
    let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for round in rounds {
        for (name, value) in pick(round) {
            by_name.entry(name).or_default().push(*value);
        }
    }
    by_name
        .into_iter()
        .map(|(name, values)| {
            let median = stats::median(&values).expect("at least one value per name");
            (name.to_string(), median)
        })
        .collect()
}

/// `name  value unit` lines for a workload, in [`END_TO_END`] order, with
/// sample counts beside the percentiles and both counts beside the share.
pub fn end_to_end_lines(workload: &str, rounds: &[Round]) -> String {
    let medians = medians(rounds, |r| &r.metrics);
    let mut out = String::new();
    for def in END_TO_END {
        let label = format!("{workload}/{}", def.name);
        let Some(value) = medians.get(def.name) else {
            writeln!(
                out,
                "{label:<28} {:>16} {:<8} (fewer than 100 samples)",
                "n/a", def.unit
            )
            .unwrap();
            continue;
        };
        let values: Vec<String> = rounds
            .iter()
            .filter_map(|r| r.metrics.get(def.name))
            .map(|v| format!("{v:.6}"))
            .collect();
        let better = if def.lower_is_better {
            "lower"
        } else {
            "higher"
        };
        let mut note = format!("{better} is better; rounds: {}", values.join(" "));
        if let Some(last) = rounds.last() {
            match def.name {
                "op_p50_us" => write!(note, "; {} samples a round", last.samples).unwrap(),
                "op_p90_us" => write!(
                    note,
                    "; {} samples a round, {} beyond",
                    last.samples, last.beyond_p90
                )
                .unwrap(),
                FAIL_SHARE => write!(
                    note,
                    "; {} failed of {} attempted",
                    rounds.iter().map(|r| r.failed).sum::<u64>(),
                    rounds.iter().map(|r| r.attempted).sum::<u64>()
                )
                .unwrap(),
                _ => {}
            }
        }
        writeln!(out, "{label:<28} {value:>16.6} {:<8} ({note})", def.unit).unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_result() -> RoundResult {
        let mut result = RoundResult {
            setup_s: 0.5,
            timed_s: 2.0,
            cpu_ms: 3000.0,
            latencies_us: (1..=200).map(f64::from).collect(),
            attempted: 200,
            failed: 1,
            failures: vec!["op 3: \"quoted\"".to_string()],
            edgecut_sum: 1234,
            model_us_sum: 99.5,
            peak_rss_mb: 12.25,
            ..RoundResult::default()
        };
        result.extra.insert("hit_ratio", 1.0);
        result
    }

    #[test]
    fn a_round_derives_the_nine_metrics() {
        let round = Round::from_result(&sample_result());
        let names: Vec<&str> = round.metrics.keys().map(String::as_str).collect();
        let mut want: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
        want.sort_unstable();
        assert_eq!(names, want);
        assert_eq!(round.metrics["ops_per_s"], 100.0);
        assert_eq!(round.metrics["op_p50_us"], 100.0);
        assert_eq!(round.metrics["op_p90_us"], 180.0);
        assert_eq!(round.metrics["cpu_ms_per_op"], 15.0);
        assert_eq!(round.metrics[FAIL_SHARE], 0.005);
        assert_eq!((round.samples, round.beyond_p90), (200, 20));
    }

    #[test]
    fn the_child_line_round_trips() {
        let round = Round::from_result(&sample_result());
        let line = round.to_json();
        assert!(!line.contains('\n'));
        assert_eq!(Round::from_json(&line).unwrap(), round);
        assert!(Round::from_json("{\"attempted\":1}").is_err());
        assert!(Round::from_json("not json").is_err());
    }

    #[test]
    fn p90_is_left_out_of_a_short_round() {
        let mut result = sample_result();
        result.latencies_us.truncate(99);
        let round = Round::from_result(&result);
        assert!(!round.metrics.contains_key("op_p90_us"));
        let lines = end_to_end_lines("w", &[round]);
        assert!(
            lines.contains("w/op_p90_us") && lines.contains("n/a"),
            "{lines}"
        );
    }

    #[test]
    fn medians_are_taken_per_name_over_rounds() {
        let mut rounds = Vec::new();
        for ops in [90.0, 110.0, 100.0] {
            let mut round = Round::default();
            round.metrics.insert("ops_per_s".into(), ops);
            rounds.push(round);
        }
        assert_eq!(medians(&rounds, |r| &r.metrics)["ops_per_s"], 100.0);
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_number(0.1 + 0.2), "0.30000000000000004");
    }
}
