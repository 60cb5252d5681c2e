//! The cubesfc benchmark: five workloads, nine end-to-end metrics and a
//! per-layer ledger, all measured from outside the program. See README.md.
//!
//! ```text
//! benchmark run     [--seed N] [--seconds S] [--workload W] [--trace] [--quick]
//! benchmark measure --workload W --seed N --seconds S --trace 0|1
//! benchmark aa      [--sets 2] [--runs 3] [--seed N] [--seconds S]
//! ```
//!
//! `run` prints one line per `workload/metric`; `measure` prints the one
//! JSON object BENCHMARK.json's driver reads; `aa` compares sets of runs
//! of the same build. `one` and `probes` are the child processes the
//! others start: one round of one workload, and the per-layer probes.

mod aa;
mod client;
mod inputs;
mod probes;
mod procstat;
mod report;
mod spans;
mod stats;
mod workloads;

use inputs::Sizes;
use report::{Round, END_TO_END, FAIL_SHARE};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workloads::WORKLOADS;

/// Rounds a reported value is the median of.
const ROUNDS: usize = 3;

/// Parsed command line. Every flag is optional on every subcommand.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Args {
    command: String,
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
    sets: usize,
    runs: usize,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        command: args.first().cloned().ok_or("no subcommand")?,
        workload: None,
        seed: inputs::DEFAULT_SEED,
        seconds: inputs::NOMINAL_SECONDS,
        trace: false,
        quick: false,
        sets: 2,
        runs: 3,
    };
    let mut rest = args[1..].iter().peekable();
    while let Some(flag) = rest.next() {
        let mut value = |what: &str| rest.next().cloned().ok_or(format!("{flag} needs {what}"));
        let number = |text: String| {
            text.parse::<u64>()
                .map_err(|_| format!("{flag}: {text:?} is not a number"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value("a workload name")?),
            "--seed" => parsed.seed = number(value("a number")?)?,
            "--seconds" => parsed.seconds = number(value("a number")?)?.max(1),
            "--sets" => parsed.sets = number(value("a number")?)?.max(2) as usize,
            "--runs" => parsed.runs = number(value("a number")?)?.max(1) as usize,
            "--quick" => parsed.quick = true,
            // Bare, or followed by 0 or 1 as the driver passes it.
            "--trace" => {
                parsed.trace = match rest.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        rest.next();
                        false
                    }
                    Some("1") => {
                        rest.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if let Some(w) = &parsed.workload {
        if !WORKLOADS.iter().any(|(name, _)| name == w) {
            return Err(format!("unknown workload {w:?}"));
        }
    }
    Ok(parsed)
}

impl Args {
    fn sizes(&self) -> Sizes {
        let sizes = Sizes::for_seconds(self.seconds);
        if self.quick {
            sizes.quick()
        } else {
            sizes
        }
    }

    fn workloads(&self) -> Vec<&'static str> {
        WORKLOADS
            .iter()
            .map(|(name, _)| *name)
            .filter(|name| self.workload.as_deref().is_none_or(|w| w == *name))
            .collect()
    }

    /// Flags every child inherits.
    fn child_flags(&self) -> Vec<String> {
        let mut flags = vec![
            "--seed".to_string(),
            self.seed.to_string(),
            "--seconds".to_string(),
            self.seconds.to_string(),
        ];
        if self.quick {
            flags.push("--quick".to_string());
        }
        flags
    }
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Run this executable again as a child, one at a time, and return the
/// last line of its standard output.
fn child(command: &str, flags: &[String]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .arg(command)
        .args(flags)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {command} child: {e}"))?;
    if !output.status.success() {
        return Err(format!("the {command} child ended with {}", output.status));
    }
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .last()
        .map(str::to_string)
        .ok_or(format!("the {command} child printed nothing"))
}

fn round_child(args: &Args, workload: &str, traced: bool) -> Result<Round, String> {
    let mut flags = args.child_flags();
    flags.extend(["--workload".to_string(), workload.to_string()]);
    if traced {
        flags.push("--trace".to_string());
    }
    let round = Round::from_json(&child("one", &flags)?)?;
    for failure in &round.failures {
        eprintln!("{workload}: {failure}");
    }
    Ok(round)
}

/// Everything one invocation measured.
#[derive(Debug, Default)]
struct Collected {
    /// Untraced rounds by workload.
    rounds: BTreeMap<&'static str, Vec<Round>>,
    /// `trace.*` metrics by workload, from the traced round.
    traces: BTreeMap<&'static str, BTreeMap<String, f64>>,
    /// The probes' ledger, shared by all workloads.
    ledger: BTreeMap<String, f64>,
    /// Ops of the traced rounds and the probes' sessions: verified like
    /// any other, but no end-to-end number comes from them.
    traced_attempted: u64,
    traced_failed: u64,
}

/// Run `rounds` untraced rounds, interleaving the workloads so that a
/// neighbour's busy minute lands in one round of several workloads, not
/// in every round of one. With `args.trace`, then replay one traced round
/// of each and run the probes. End-to-end numbers never come from a
/// traced round.
fn collect(args: &Args, rounds: usize) -> Result<Collected, String> {
    let mut collected = Collected::default();
    for _ in 0..rounds {
        for workload in args.workloads() {
            let round = round_child(args, workload, false)?;
            collected.rounds.entry(workload).or_default().push(round);
        }
    }
    if !args.trace {
        return Ok(collected);
    }
    for workload in args.workloads() {
        let traced = round_child(args, workload, true)?;
        let untraced = report::medians(&collected.rounds[workload], |r| &r.metrics)["ops_per_s"];
        let mut trace = traced.trace.clone();
        trace.insert(
            "trace.overhead_pct".to_string(),
            100.0 * (untraced - traced.metrics["ops_per_s"]) / untraced,
        );
        collected.traces.insert(workload, trace);
        collected.traced_attempted += traced.attempted;
        collected.traced_failed += traced.failed;
    }
    let ledger = Round::from_json(&child("probes", &args.child_flags())?)?;
    collected.ledger = ledger.extra;
    collected.traced_failed += ledger.failed;
    Ok(collected)
}

impl Collected {
    fn attempted(&self) -> u64 {
        let untraced: u64 = self.rounds.values().flatten().map(|r| r.attempted).sum();
        untraced + self.traced_attempted
    }

    fn failed(&self) -> u64 {
        let untraced: u64 = self.rounds.values().flatten().map(|r| r.failed).sum();
        untraced + self.traced_failed
    }

    /// Medians over rounds of what `pick` finds, as `workload/name`.
    fn medians(&self, pick: impl Fn(&Round) -> &BTreeMap<String, f64>) -> BTreeMap<String, f64> {
        let mut all = BTreeMap::new();
        for (workload, rounds) in &self.rounds {
            for (name, value) in report::medians(rounds, &pick) {
                all.insert(format!("{workload}/{name}"), value);
            }
        }
        all
    }

    /// Median of every end-to-end metric, as `workload/metric`.
    fn end_to_end(&self) -> BTreeMap<String, f64> {
        self.medians(|r| &r.metrics)
    }

    /// Median of every exact count of the serve workloads.
    fn exact_extras(&self) -> BTreeMap<String, f64> {
        let mut all = self.medians(|r| &r.extra);
        all.retain(|name, _| report::EXACT_EXTRAS.iter().any(|e| name.ends_with(e)));
        all
    }

    /// Every per-layer metric of `workload`: the ledger and its own trace.
    fn per_layer(&self, workload: &str) -> BTreeMap<String, f64> {
        let mut all = self.ledger.clone();
        if let Some(trace) = self.traces.get(workload) {
            all.extend(trace.clone());
        }
        all
    }
}

/// `run`: every metric by name with its unit, then a one-line summary.
fn run(args: &Args) -> Result<ExitCode, String> {
    let rounds = if args.quick { 1 } else { ROUNDS };
    let collected = collect(args, rounds)?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# seed {} | --seconds {} | {rounds} round(s), each workload in a fresh process, one at a \
         time | nproc {nproc} | {} closed-loop client(s), one request in flight each",
        args.seed,
        args.seconds,
        workloads::serve::clients(),
    );
    for workload in args.workloads() {
        print!(
            "{}",
            report::end_to_end_lines(workload, &collected.rounds[workload])
        );
    }
    if args.trace {
        println!("# per-layer ledger (direct probes, medians)");
        for (name, unit) in probes::PER_LAYER {
            if let Some(value) = collected.ledger.get(name) {
                println!("{name:<32} {value:>16.4} {unit}");
            }
        }
        for workload in args.workloads() {
            println!("# traced round of {workload}: out/trace-{workload}.json");
            for (name, value) in &collected.traces[workload] {
                println!("{:<44} {value:>12.4}", format!("{workload}/{name}"));
            }
        }
    }
    // This change defines the benchmark; it claims no gain.
    println!(
        "{{\"seed\":{},\"seconds\":{},\"rounds\":{rounds},\"nproc\":{nproc},\"attempted\":{},\
         \"failed\":{},\"metrics\":{},\"claim\":null}}",
        args.seed,
        args.seconds,
        collected.attempted(),
        collected.failed(),
        report::json_object(&collected.end_to_end())
    );
    Ok(exit_code(collected.failed(), true))
}

/// Non-zero as soon as one op failed or one value is not a number.
fn exit_code(failed: u64, all_finite: bool) -> ExitCode {
    if failed == 0 && all_finite {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `measure`: one workload, as BENCHMARK.json's driver calls it. Untraced:
/// the median of three rounds of every end-to-end metric. Traced: every
/// per-layer metric, from one untraced round, one traced round and the
/// probes.
fn measure(args: &Args) -> Result<ExitCode, String> {
    let workload = args.workloads();
    let [workload] = workload[..] else {
        return Err("measure needs --workload".to_string());
    };
    let collected = collect(args, if args.trace { 1 } else { ROUNDS })?;
    let mut metrics = Vec::new();
    if args.trace {
        let values = collected.per_layer(workload);
        for (name, unit) in probes::PER_LAYER {
            metrics.push((name, unit, values.get(name).copied().unwrap_or(f64::NAN)));
        }
    } else {
        let values = report::medians(&collected.rounds[workload], |r| &r.metrics);
        for def in END_TO_END.iter().filter(|d| d.name != FAIL_SHARE) {
            metrics.push((
                def.name,
                def.unit,
                values.get(def.name).copied().unwrap_or(f64::NAN),
            ));
        }
    }
    let all_finite = metrics.iter().all(|(_, _, v)| v.is_finite());
    let failed = collected.failed();
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                report::json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0 && all_finite,
        collected.attempted(),
        fields.join(",")
    );
    Ok(exit_code(failed, all_finite))
}

/// `one`: one round of one workload, in this process.
fn one(args: &Args, process_start: Instant) -> Result<ExitCode, String> {
    let workload = args.workload.as_deref().ok_or("one needs --workload")?;
    let result = workloads::run_round(workload, args.seed, args.sizes(), args.trace, process_start)
        .ok_or("unknown workload")?;
    if args.trace {
        let dir = out_dir();
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        std::fs::write(
            dir.join(format!("trace-{workload}.json")),
            spans::to_json(workload, args.seed, &result.spans),
        )
        .map_err(|e| e.to_string())?;
    }
    println!("{}", Round::from_result(&result).to_json());
    Ok(ExitCode::SUCCESS)
}

/// `probes`: the per-layer ledger, in this process.
fn probes(args: &Args) -> Result<ExitCode, String> {
    let sessions = Sizes::for_seconds(args.seconds).quick();
    let (values, failed) = probes::run(args.seed, sessions);
    let mut ledger = Round {
        failed,
        ..Round::default()
    };
    for (name, value) in values {
        ledger.extra.insert(name.to_string(), value);
    }
    println!("{}", ledger.to_json());
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|args| match args.command.as_str() {
        "run" => run(&args),
        "measure" => measure(&args),
        "aa" => aa::run(&args),
        "one" => one(&args, process_start),
        "probes" => probes(&args),
        other => Err(format!("unknown subcommand {other:?}")),
    });
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("benchmark: {message}");
            eprintln!(
                "usage: benchmark run|measure|aa [--workload W] [--seed N] [--seconds S] \
                 [--trace [0|1]] [--quick] [--sets N] [--runs N]"
            );
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubesfc::obs::{json_parse, JsonValue};
    use std::collections::BTreeSet;

    fn args(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        parse_args(&argv)
    }

    #[test]
    fn the_drivers_flags_parse() {
        let a = args("measure --workload big_sfc --seed 7 --seconds 12 --trace 0").unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12, false));
        assert_eq!(a.workloads(), vec!["big_sfc"]);
        assert!(args("measure --workload big_sfc --trace 1").unwrap().trace);
        assert!(args("run --trace --quick").unwrap().trace);
        assert_eq!(args("run").unwrap().workloads().len(), 5);
        assert_eq!(args("run").unwrap().seed, inputs::DEFAULT_SEED);
        assert!(args("run --workload nope").is_err());
        assert!(args("run --seed").is_err());
        assert!(args("run --bogus").is_err());
        assert!(args("").is_err());
    }

    #[test]
    fn any_failure_or_non_number_makes_the_exit_code_non_zero() {
        assert_eq!(exit_code(0, true), ExitCode::SUCCESS);
        assert_eq!(exit_code(1, true), ExitCode::FAILURE);
        assert_eq!(exit_code(0, false), ExitCode::FAILURE);
    }

    fn emitted_names() -> Vec<&'static str> {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|(name, _)| *name).collect();
        names.extend(END_TO_END.iter().map(|d| d.name));
        names.extend(probes::PER_LAYER.iter().map(|(name, _)| *name));
        names
    }

    #[test]
    fn every_emitted_name_and_unit_fits_the_contract() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let names = emitted_names();
        assert!(names.iter().all(|n| name_ok(n)), "{names:?}");
        let distinct: BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(distinct.len(), names.len(), "a name is used twice");
        assert!(END_TO_END.iter().all(|d| unit_ok(d.unit)));
        assert!(probes::PER_LAYER.iter().all(|(_, unit)| unit_ok(unit)));
        assert!(WORKLOADS
            .iter()
            .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));
    }

    /// `(name, unit)` of every entry of a BENCHMARK.json list.
    fn listed(doc: &JsonValue, key: &str) -> Vec<(String, String)> {
        let text = |entry: &JsonValue, field: &str| {
            entry
                .get(field)
                .and_then(JsonValue::as_str)
                .unwrap_or_default()
                .to_string()
        };
        doc.get(key)
            .and_then(JsonValue::as_arr)
            .unwrap_or_default()
            .iter()
            .map(|e| (text(e, "name"), text(e, "unit")))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_program_prints() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = json_parse(&std::fs::read_to_string(path).unwrap()).unwrap();

        let workloads: Vec<String> = listed(&doc, "workloads").into_iter().map(|w| w.0).collect();
        let want: Vec<&str> = WORKLOADS.iter().map(|(name, _)| *name).collect();
        assert_eq!(workloads, want);

        // fail_share travels as failed/attempted (see report::FAIL_SHARE).
        let want: Vec<(String, String)> = END_TO_END
            .iter()
            .filter(|d| d.name != FAIL_SHARE)
            .map(|d| (d.name.to_string(), d.unit.to_string()))
            .collect();
        assert_eq!(listed(&doc, "end_to_end"), want);
        for (entry, def) in doc
            .get("end_to_end")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .zip(END_TO_END.iter().filter(|d| d.name != FAIL_SHARE))
        {
            assert_eq!(entry.get("bound").unwrap().as_f64(), Some(def.bound));
            let better = if def.lower_is_better {
                "lower"
            } else {
                "higher"
            };
            assert_eq!(entry.get("better").unwrap().as_str(), Some(better));
        }

        let want: Vec<(String, String)> = probes::PER_LAYER
            .iter()
            .map(|(name, unit)| (name.to_string(), unit.to_string()))
            .collect();
        assert_eq!(listed(&doc, "per_layer"), want);
    }
}
