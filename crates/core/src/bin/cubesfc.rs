//! `cubesfc` — command-line partitioner for cubed-sphere meshes.
//!
//! ```text
//! cubesfc partition --ne 8 --nproc 96 [--method sfc|kway|tv|rb|morton|rcb]
//!                   [--output assign.txt] [--seed N]
//! cubesfc report    --ne 8 --nproc 96            # Table-2 style comparison
//! cubesfc render    --ne 8 --nproc 24 --output net.ppm [--ascii]
//! cubesfc info      --ne 8                       # mesh + curve facts
//! cubesfc experiment [--ne N] [--max-points M] [--jobs N]
//! cubesfc rebalance --ne 16 --nproc 64 --steps 50 --trajectory amr
//!                   [--policy threshold|periodic|costbenefit] [--method sfc|kway|...]
//!                   [--every N] [--json FILE]
//! cubesfc trace analyze FILE.json [--json PATH] [--report-only]
//! cubesfc serve     [--addr HOST:PORT] [--workers N] [--queue N]
//!                   [--cache-entries N] [--deadline-ms MS]
//!                   [--access-log[=PATH]]
//! ```
//!
//! `rebalance` simulates a time-varying load (`--trajectory`) over
//! `--steps` timesteps, rebalancing with the chosen `--policy`:
//! `--method sfc` re-splits the global curve incrementally, any other
//! method recomputes from scratch each trigger. The per-step table goes
//! to stdout; `--json FILE` writes the `cubesfc-rebalance-v1` report.
//!
//! `--trajectory` takes a `+`-joined spec of named loads (`amr`,
//! `diurnal`, `uniform`, `fault`, `death`) and the two rank faults,
//! `slow:R@A..BxF` (rank `R` runs `F`× slower over steps `[A, B)`) and
//! `death:R@S` (rank `R` dies at step `S`, and the run re-splits onto the
//! survivors at once). Weights multiply and deaths accumulate, so
//! `amr+death:3@12` is the hotspot on a machine that loses rank 3 at
//! step 12.
//!
//! `experiment` runs the paper's full (K, Nproc, method) grid — every
//! method at the equal-share processor counts of every Table-1
//! resolution (or one resolution with `--ne`) — on up to `--jobs N`
//! threads that claim its cells one at a time. `--jobs` sets the core
//! budget (0 = auto) and `CUBESFC_JOBS` is the environment equivalent
//! (the flag wins); every budget prints the same rows, and `--jobs 1`
//! runs every cell on the calling thread.
//!
//! Any command accepts `--profile`, which prints a hierarchical phase
//! profile (span tree, counters, histograms) to stderr on exit. The
//! `CUBESFC_PROFILE` environment variable also enables profiling:
//! `CUBESFC_PROFILE=1` prints the table, `CUBESFC_PROFILE=json:<path>`
//! additionally writes the profile as `cubesfc-profile-v1` JSON to
//! `<path>`. Any other value is a usage error (exit 2).
//!
//! Any command also accepts `--trace <path>` (or `CUBESFC_TRACE=<path>`)
//! to record an event timeline and write it as Chrome Trace Event Format
//! JSON, openable in Perfetto or `chrome://tracing`. For `partition` the
//! trace additionally includes a short parallel mini-solve over the
//! computed partition, so each virtual rank gets its own timeline lane.
//! The trace also carries counter tracks (`rebalance`, `solver`,
//! `experiment`, `serve`): per-step gauges plus one `rank <r>` value per
//! rank.
//!
//! `trace analyze` replays a recorded `cubesfc-trace-v1` timeline into
//! the wait-state decomposition, cross-rank critical path, and
//! imbalance attribution, and runs the health alert rules (straggler,
//! high LB, migration churn) over its counter tracks. `--json PATH`
//! writes the `cubesfc-analysis-v1` document. It exits 0 when the run
//! is clean, 1 when an alert fired — `--report-only` turns that into
//! exit 0 — and also 1 for a missing file or a wrong schema,
//! and 2 for input that is not JSON at all, reported with the parser's
//! line/column diagnostic, never a panic.
//!
//! `serve` runs the partitioning service: an HTTP/1.1 JSON API
//! (`cubesfc-serve-v1`) with `POST /v1/partition`,
//! `POST /v1/rebalance/step`, `GET /healthz`, `GET /readyz`, and
//! `GET /metrics` (the server registry as `cubesfc-profile-v1` JSON),
//! backed by the experiment engine's bounded mesh cache plus a
//! server-side LRU result cache and in-flight request coalescing.
//! `--queue` bounds admission (overload is answered with 429 +
//! `Retry-After`), `--deadline-ms` bounds each request from accept
//! time (expired work is answered with 504), and SIGINT/SIGTERM drain
//! in-flight requests before the process exits 0. `--trace` and
//! `--profile` observe the server like any other command.
//!
//! `--access-log[=PATH]` (or `CUBESFC_ACCESS_LOG`) records one
//! structured `cubesfc-access-v1` NDJSON line per request — request ID,
//! endpoint, status, cache class, queue-wait and service microseconds,
//! byte counts, and outcome — written to `PATH` when the server drains
//! (default `cubesfc-access.ndjson`). In the environment, empty or `0`
//! disables, `1`/`true` use the default path, any other value is the
//! path; the flag wins. Every response also echoes its request ID in
//! `x-cubesfc-request-id` (client-supplied via the same header, else a
//! server-assigned sequence number), so a log line can be matched to
//! the client that saw it.
//!
//! The assignment output format is one line per element: `elem part`.

use cubesfc::analysis::analyze_doc;
use cubesfc::balance::{LoadModel, RebalancePolicy, SimConfig, TrajectoryKind};
use cubesfc::report::PartitionReport;
use cubesfc::viz::{render_partition_ascii, render_partition_ppm};
use cubesfc::{
    method_from_name, partition, partition_with_graph, CostModel, CubedSphere, MachineModel,
    MeshCache, PartitionMethod, PartitionOptions,
};
use std::io::Write;
use std::process::ExitCode;

struct Args {
    command: String,
    ne: usize,
    nproc: usize,
    method: PartitionMethod,
    output: Option<String>,
    seed: u64,
    ascii: bool,
    profile: bool,
    trace: Option<String>,
    /// Positional operands (subcommand words, replay paths).
    paths: Vec<String>,
    report_only: bool,
    /// Core budget for `experiment` (None → `CUBESFC_JOBS` → auto).
    jobs: Option<usize>,
    /// Processor-count ladder points per resolution for `experiment`.
    max_points: usize,
    /// Timesteps for `rebalance`.
    steps: usize,
    /// Load trajectory spec for `rebalance` (e.g. `amr+death:3@12`).
    trajectory: String,
    /// Policy for `rebalance` (threshold|periodic|costbenefit).
    policy: String,
    /// JSON report path for `rebalance`.
    json: Option<String>,
    /// Override the periodic policy's period.
    every: Option<usize>,
    /// Bind address for `serve`.
    addr: String,
    /// Worker threads for `serve`.
    workers: usize,
    /// Admission-queue capacity for `serve`.
    queue: usize,
    /// Result-cache capacity (entries) for `serve`.
    cache_entries: usize,
    /// Per-request deadline for `serve`, in milliseconds.
    deadline_ms: u64,
    /// Access-log output path for `serve` (`--access-log[=PATH]`).
    access_log: Option<String>,
}

/// Where `--access-log` and `CUBESFC_ACCESS_LOG=1` write.
const DEFAULT_ACCESS_LOG: &str = "cubesfc-access.ndjson";

fn usage() -> ExitCode {
    eprintln!(
        "usage: cubesfc <partition|report|render|info> --ne N [--nproc P]\n\
         \t[--method sfc|kway|tv|rb|morton|rcb] [--output FILE] [--seed N] [--ascii]\n\
         \t[--profile]  (or CUBESFC_PROFILE=1 | CUBESFC_PROFILE=json:FILE)\n\
         \t[--trace FILE]  (or CUBESFC_TRACE=FILE)\n\
         \tcubesfc experiment [--ne N] [--max-points M] [--jobs N]\n\
         \t  (CUBESFC_JOBS=N sets the core budget when --jobs is absent)\n\
         \tcubesfc rebalance --ne N --nproc P [--steps S] [--trajectory SPEC]\n\
         \t  [--policy threshold|periodic|costbenefit] [--method sfc|kway|tv|rb]\n\
         \t  [--every N] [--json FILE] [--seed N]\n\
         \t  (SPEC: '+'-joined amr|diurnal|fault|death|uniform|death:R@S|\n\
         \t         slow:R@A..BxF — ranks R, steps S/A/B, factor F)\n\
         \tcubesfc trace analyze FILE.json [--json PATH] [--report-only]\n\
         \tcubesfc serve [--addr HOST:PORT] [--workers N] [--queue N]\n\
         \t  [--cache-entries N] [--deadline-ms MS] [--access-log[=PATH]]\n\
         \t  (or CUBESFC_ACCESS_LOG=1|PATH; default cubesfc-access.ndjson)\n\
         \tcubesfc --version"
    );
    ExitCode::from(2)
}

/// The value following `flag`, parsed as `T`.
fn value<T: std::str::FromStr>(
    it: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    let text = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
    text.parse().map_err(|e| format!("{flag}: {e}"))
}

/// `n`, unless it is the zero of a flag that counts something.
fn positive<T: Default + PartialEq>(flag: &str, n: T) -> Result<T, String> {
    if n == T::default() {
        return Err(format!("{flag} must be positive"));
    }
    Ok(n)
}

/// The `PATH` of a `--flag=PATH` argument; `None` when `arg` is not
/// `flag=...` at all.
fn path_suffix(arg: &str, flag: &str) -> Option<Result<String, String>> {
    let path = arg.strip_prefix(flag)?.strip_prefix('=')?;
    Some(if path.is_empty() {
        Err(format!("{flag}= needs a non-empty path"))
    } else {
        Ok(path.to_string())
    })
}

/// Every flag, parsed into its field; which of them a subcommand
/// needs is [`check`]ed afterwards, against its [`Subcommand`] row.
fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let command = it.next().ok_or("missing command")?;
    let mut args = Args {
        command,
        ne: 0,
        nproc: 0,
        method: PartitionMethod::Sfc,
        output: None,
        seed: 0x5EED,
        ascii: false,
        profile: false,
        trace: None,
        paths: Vec::new(),
        report_only: false,
        jobs: None,
        max_points: 4,
        steps: 20,
        trajectory: "amr".to_string(),
        policy: "threshold".to_string(),
        json: None,
        every: None,
        addr: "127.0.0.1:8437".to_string(),
        workers: 4,
        queue: 64,
        cache_entries: 256,
        deadline_ms: 30_000,
        access_log: None,
    };
    while let Some(flag) = it.next() {
        let flag = flag.as_str();
        match flag {
            "--ne" => args.ne = value(&mut it, flag)?,
            "--nproc" => args.nproc = value(&mut it, flag)?,
            "--seed" => args.seed = value(&mut it, flag)?,
            "--method" => {
                let m: String = value(&mut it, flag)?;
                args.method = method_from_name(&m)
                    .ok_or_else(|| format!("unknown method '{}'", m.to_lowercase()))?;
            }
            "--output" => args.output = Some(value(&mut it, flag)?),
            "--ascii" => args.ascii = true,
            "--profile" => args.profile = true,
            "--trace" => {
                let p: String = value(&mut it, flag)?;
                if p.is_empty() {
                    return Err("--trace needs a non-empty path".into());
                }
                args.trace = Some(p);
            }
            "--report-only" => args.report_only = true,
            "--jobs" => args.jobs = Some(value(&mut it, flag)?),
            "--max-points" => args.max_points = positive(flag, value(&mut it, flag)?)?,
            "--steps" => args.steps = positive(flag, value(&mut it, flag)?)?,
            "--trajectory" => args.trajectory = value(&mut it, flag)?,
            "--policy" => args.policy = value(&mut it, flag)?,
            "--json" => args.json = Some(value(&mut it, flag)?),
            "--every" => args.every = Some(positive(flag, value(&mut it, flag)?)?),
            "--addr" => {
                let a: String = value(&mut it, flag)?;
                if a.is_empty() {
                    return Err("--addr needs a non-empty HOST:PORT".into());
                }
                args.addr = a;
            }
            "--workers" => args.workers = positive(flag, value(&mut it, flag)?)?,
            "--queue" => args.queue = positive(flag, value(&mut it, flag)?)?,
            "--cache-entries" => args.cache_entries = positive(flag, value(&mut it, flag)?)?,
            "--deadline-ms" => args.deadline_ms = positive(flag, value(&mut it, flag)?)?,
            "--access-log" => args.access_log = Some(DEFAULT_ACCESS_LOG.to_string()),
            other => {
                if let Some(path) = path_suffix(other, "--access-log") {
                    args.access_log = Some(path?);
                } else if !other.starts_with('-') {
                    args.paths.push(other.to_string());
                } else {
                    return Err(format!("unknown flag '{other}'"));
                }
            }
        }
    }
    Ok(args)
}

/// A command failure, split by exit code. `Runtime` exits 1 (missing
/// file, wrong schema, a fired alert); `Malformed`
/// exits 2 with the parser's line/column diagnostic — input that is not
/// JSON at all is a usage-class problem, like a mistyped flag; `Usage`
/// exits 2 with the usage text, for arguments that can never be valid
/// (a missing `--ne` or a degenerate `--nproc`, for instance).
enum CliError {
    Runtime(String),
    Malformed(String),
    Usage(String),
}

impl From<String> for CliError {
    fn from(e: String) -> CliError {
        CliError::Runtime(e)
    }
}

impl CliError {
    /// A replay-input failure on `path`: text that is not JSON at all
    /// is malformed input, valid JSON of the wrong schema or shape is a
    /// runtime error.
    fn load(path: &str, e: cubesfc_obs::LoadError) -> CliError {
        match e.context(path) {
            cubesfc_obs::LoadError::Syntax(m) => CliError::Malformed(m),
            cubesfc_obs::LoadError::Shape(m) => CliError::Runtime(m),
        }
    }

    /// Print the error and pick the exit code.
    fn exit(self) -> ExitCode {
        let (CliError::Runtime(e) | CliError::Malformed(e) | CliError::Usage(e)) = &self;
        eprintln!("error: {e}");
        match self {
            CliError::Runtime(_) => ExitCode::FAILURE,
            CliError::Malformed(_) => ExitCode::from(2),
            CliError::Usage(_) => usage(),
        }
    }
}

/// What a subcommand needs from the command line before it runs.
#[derive(Clone, Copy, PartialEq)]
enum Needs {
    /// No mesh: a default grid (`experiment`) or sizes per request (`serve`).
    Nothing,
    /// `--ne`.
    Ne,
    /// `--ne`, and `--nproc` in `1..=K`.
    Parts,
    /// The operands `analyze FILE`.
    Replay,
}

/// One row of the subcommand table: the name, what it needs, and the
/// function that makes its library call.
type Subcommand = (&'static str, Needs, fn(&Args) -> Result<(), CliError>);

/// Every subcommand, in `usage()`'s order.
const SUBCOMMANDS: [Subcommand; 8] = [
    ("partition", Needs::Parts, run_partition),
    ("report", Needs::Parts, run_report),
    ("render", Needs::Parts, run_render),
    ("info", Needs::Ne, run_info),
    ("experiment", Needs::Nothing, run_experiment),
    ("rebalance", Needs::Parts, run_rebalance),
    ("trace", Needs::Replay, run_trace_analyze),
    ("serve", Needs::Nothing, run_serve),
];

/// A name not in the table is checked like a mesh command, then fails.
const UNKNOWN: Subcommand = ("", Needs::Ne, |args| {
    Err(format!("unknown command '{}'", args.command).into())
});

/// That `args` holds what `needs` asks for; a usage error otherwise.
fn check(needs: Needs, args: &Args) -> Result<(), CliError> {
    let fail = |m: String| Err(CliError::Usage(m));
    if needs == Needs::Replay {
        if args.paths.len() != 2 || args.paths[0] != "analyze" {
            return fail("trace needs a subcommand: trace analyze FILE.json".into());
        }
        return Ok(());
    }
    if let Some(stray) = args.paths.first() {
        return fail(format!("unexpected argument '{stray}'"));
    }
    if args.ne == 0 && needs != Needs::Nothing {
        return fail("--ne is required".into());
    }
    // A processor count of zero, or more processors than elements, can
    // never describe a valid run for any method: reject it up front
    // rather than letting a backend fail late.
    let k = 6 * args.ne * args.ne;
    match needs {
        Needs::Parts if args.nproc == 0 => fail("--nproc must be at least 1".into()),
        Needs::Parts if args.nproc > k => fail(format!(
            "--nproc {} exceeds the element count K = {k} (Ne = {})",
            args.nproc, args.ne
        )),
        _ => Ok(()),
    }
}

/// The profile, trace and access-log outputs of one run, each resolved
/// once from its flag or its environment variable (the flag wins).
struct Observers {
    /// Print the profile table to stderr when the command finishes.
    profile: bool,
    /// Also write the profile as JSON here.
    profile_json: Option<String>,
    /// Write the Chrome trace here.
    trace: Option<String>,
    /// Write the `serve` access log here.
    access_log: Option<String>,
}

impl Observers {
    /// `CUBESFC_PROFILE`: empty or `0` leaves `--profile` alone,
    /// `1`/`true`/`table` print the table, `json:<path>` writes JSON
    /// *and* prints the table, and anything else is a usage error.
    /// `CUBESFC_TRACE` is a path when not empty. `CUBESFC_ACCESS_LOG`:
    /// empty or `0` disables, `1`/`true` use the default path, any other
    /// value is the path; only `serve` answers requests, so only it logs.
    fn resolve(args: &Args) -> Result<Observers, String> {
        let env = std::env::var("CUBESFC_PROFILE").unwrap_or_default();
        let (profile, profile_json) = match env.as_str() {
            "" | "0" => (args.profile, None),
            "1" | "true" | "table" => (true, None),
            other => match other.strip_prefix("json:") {
                Some(path) if !path.is_empty() => (true, Some(path.to_string())),
                _ => {
                    return Err(format!(
                        "CUBESFC_PROFILE={other:?} is invalid (expected '', '0', '1', \
                         'true', 'table', or 'json:<path>')"
                    ))
                }
            },
        };
        let trace = args.trace.clone().or_else(|| {
            std::env::var("CUBESFC_TRACE")
                .ok()
                .filter(|p| !p.is_empty())
        });
        let access_log = args.access_log.clone().or_else(|| {
            match std::env::var("CUBESFC_ACCESS_LOG")
                .unwrap_or_default()
                .as_str()
            {
                "" | "0" => None,
                "1" | "true" => Some(DEFAULT_ACCESS_LOG.to_string()),
                path => Some(path.to_string()),
            }
        });
        Ok(Observers {
            profile,
            profile_json,
            trace,
            access_log: access_log.filter(|_| args.command == "serve"),
        })
    }

    /// Switch recording on for every output there is.
    fn start(&self) {
        cubesfc_obs::set_enabled(self.profile);
        cubesfc_obs::set_trace_enabled(self.trace.is_some());
        cubesfc_obs::set_access_enabled(self.access_log.is_some());
    }

    /// Write every output; the error is the message after `error: `.
    fn export(&self) -> Result<(), String> {
        if self.profile {
            let snap = cubesfc_obs::export_snapshot();
            eprint!("{}", snap.render_table());
            if let Some(path) = &self.profile_json {
                std::fs::write(path, snap.to_json())
                    .map_err(|e| format!("profile export failed: {path}: {e}"))?;
            }
        }
        if let Some(path) = &self.trace {
            std::fs::write(path, cubesfc_obs::tracer().export_chrome())
                .map_err(|e| format!("trace export failed: {path}: {e}"))?;
        }
        if let Some(path) = &self.access_log {
            let log = cubesfc_obs::access_log();
            std::fs::write(path, log.export_ndjson())
                .map_err(|e| format!("access-log export failed: {path}: {e}"))?;
            let dropped = log.dropped();
            if dropped > 0 {
                eprintln!("access log: {dropped} record(s) shed (ring full); counts remain exact");
            }
        }
        Ok(())
    }
}

fn emit(path: &Option<String>, bytes: &[u8]) -> Result<(), CliError> {
    match path {
        None => std::io::stdout()
            .write_all(bytes)
            .map_err(|e| e.to_string().into()),
        Some(p) => std::fs::write(p, bytes).map_err(|e| format!("{p}: {e}").into()),
    }
}

/// Partition options with the multilevel partitioners seeded `seed`.
fn seeded(seed: u64) -> PartitionOptions {
    let mut opts = PartitionOptions::default();
    opts.graph_config.seed = seed;
    opts
}

/// Mesh size, curve schedule and the equal-share processor counts.
fn run_info(args: &Args) -> Result<(), CliError> {
    let mesh = CubedSphere::new(args.ne);
    println!("Ne          : {}", mesh.ne());
    println!("K           : {}", mesh.num_elems());
    match mesh.curve() {
        Some(c) => {
            let sched = cubesfc::Schedule::for_side(args.ne.max(2))
                .map(|s| s.to_string())
                .unwrap_or_else(|_| "trivial".into());
            println!("SFC         : yes ({sched})");
            println!("continuous  : {}", c.is_continuous(mesh.topology()));
        }
        None => println!("SFC         : no (Ne has a prime factor > 5)"),
    }
    let divisors: Vec<String> = (1..=mesh.num_elems())
        .filter(|p| mesh.num_elems().is_multiple_of(*p))
        .map(|p| p.to_string())
        .collect();
    println!("equal-share : {}", divisors.join(" "));
    Ok(())
}

/// The assignment, one `elem part` line per element. With a trace on,
/// a short parallel advection solve over it follows, so the trace shows
/// one timeline lane per virtual rank (plus the shared DSS lane).
fn run_partition(args: &Args) -> Result<(), CliError> {
    use cubesfc::seam::solver::AdvectionConfig;
    use cubesfc::seam::{gaussian_blob, run_parallel};

    let mesh = CubedSphere::new(args.ne);
    let p =
        partition(&mesh, args.method, args.nproc, &seeded(args.seed)).map_err(|e| e.to_string())?;
    if cubesfc_obs::trace_enabled() {
        let cfg = AdvectionConfig::stable_for(mesh.ne(), 4, 1);
        let ic = gaussian_blob([1.0, 0.0, 0.0], 0.5);
        let _ = run_parallel(mesh.topology(), &p, cfg, 2, &ic);
    }
    let mut out = String::new();
    for (e, part) in p.assignment().iter().enumerate() {
        out.push_str(&format!("{e} {part}\n"));
    }
    emit(&args.output, out.as_bytes())
}

/// A Table-2 row per method, every one on the same mesh and dual graph.
fn run_report(args: &Args) -> Result<(), CliError> {
    let bundle = MeshCache::new().bundle(args.ne);
    let opts = seeded(args.seed);
    let machine = MachineModel::ncar_p690();
    let cost = CostModel::seam_climate();
    println!("{}", PartitionReport::table_header());
    for m in PartitionMethod::ALL {
        match partition_with_graph(&bundle.mesh, &bundle.graph, m, args.nproc, &opts) {
            Ok(p) => {
                let r = PartitionReport::from_partition_with_graph(
                    &bundle.graph,
                    m,
                    &p,
                    &machine,
                    &cost,
                );
                println!("{}", r.table_row());
            }
            Err(e) => println!("{:<8} unavailable: {e}", m.label()),
        }
    }
    Ok(())
}

/// The partition drawn on the unfolded cube, as PPM or ASCII.
fn run_render(args: &Args) -> Result<(), CliError> {
    let mesh = CubedSphere::new(args.ne);
    let p =
        partition(&mesh, args.method, args.nproc, &seeded(args.seed)).map_err(|e| e.to_string())?;
    if args.ascii {
        emit(&args.output, render_partition_ascii(&mesh, &p).as_bytes())
    } else {
        emit(&args.output, &render_partition_ppm(&mesh, &p, 16))
    }
}

/// Run the (K, Nproc, method) experiment grid on the core budget and
/// print grouped Table-2 rows.
fn run_experiment(args: &Args) -> Result<(), CliError> {
    use cubesfc::{cells_for, paper_grid, resolve_jobs, set_jobs, ExperimentEngine, Resolution};

    let jobs = resolve_jobs(args.jobs);
    set_jobs(jobs);
    let cells = if args.ne != 0 {
        let res = Resolution::for_ne(args.ne, cubesfc::NCAR_P690_MAX_PROCS).ok_or(format!(
            "Ne={} is not in the paper's Table-1 family Ne = 2^n·3^m (n + m ≥ 1)",
            args.ne
        ))?;
        cells_for(&res, args.max_points)
    } else {
        paper_grid(args.max_points)
    };
    let engine = ExperimentEngine::new();
    let results = engine.run(&cells).map_err(|e| e.to_string())?;

    let mut out = String::new();
    let mut last = (0usize, 0usize);
    for r in &results {
        let key = (r.cell.ne, r.cell.nproc);
        if key != last {
            out.push_str(&format!(
                "\nNe={} K={} Nproc={}\n{}\n",
                r.cell.ne,
                6 * r.cell.ne * r.cell.ne,
                r.cell.nproc,
                PartitionReport::table_header()
            ));
            last = key;
        }
        out.push_str(&r.report.table_row());
        out.push('\n');
    }
    out.push_str(&format!(
        "\n{} cells over {} resolution(s), jobs={}\n",
        results.len(),
        engine.cache().len(),
        if jobs == 0 {
            "auto".to_string()
        } else {
            jobs.to_string()
        }
    ));
    emit(&args.output, out.as_bytes())
}

/// Drive a load trajectory through a rebalance policy and the method's
/// backend, printing the per-step table and optionally writing the JSON
/// report.
fn run_rebalance(args: &Args) -> Result<(), CliError> {
    let kinds = TrajectoryKind::parse(&args.trajectory, args.nproc, args.steps)
        .map_err(|e| format!("--trajectory: {e}"))?;
    let mut policy = RebalancePolicy::named(&args.policy).ok_or(format!(
        "unknown policy '{}' (expected threshold, periodic, or costbenefit)",
        args.policy
    ))?;
    if let (RebalancePolicy::Periodic { every }, Some(n)) = (&mut policy, args.every) {
        *every = n;
    }
    let bundle = MeshCache::new().bundle(args.ne);
    let model = LoadModel::overlay(&bundle.mesh, kinds);
    let config = SimConfig {
        steps: args.steps,
        nproc: args.nproc,
        machine: MachineModel::ncar_p690(),
        cost: CostModel::seam_climate(),
    };
    let report =
        cubesfc::dynamics::replay(&bundle, args.method, args.seed, &model, policy, &config)
            .map_err(|e| e.to_string())?;
    print!("{}", report.render_table());
    if let Some(path) = &args.json {
        std::fs::write(path, report.to_json()).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(())
}

/// Replay a `cubesfc-trace-v1` timeline into the wait-state
/// decomposition, critical path, imbalance attribution and counter-track
/// alerts; `Err` (exit 1) when an alert fired, unless `--report-only`.
fn run_trace_analyze(args: &Args) -> Result<(), CliError> {
    let path = &args.paths[1];
    // An unreadable file is a runtime error.
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let analysis =
        cubesfc_obs::load_doc(&text, analyze_doc).map_err(|e| CliError::load(path, e))?;
    print!("{}", analysis.render());
    if let Some(out) = &args.json {
        std::fs::write(out, analysis.to_json()).map_err(|e| format!("{out}: {e}"))?;
    }
    let fired = analysis.alerts_fired();
    if fired == 0 || args.report_only {
        return Ok(());
    }
    Err(format!("{fired} alert(s) fired in {path}").into())
}

/// Process-wide shutdown flag, set by the SIGINT/SIGTERM handlers and
/// polled by the `serve` main loop.
static SERVE_STOP: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Install SIGINT/SIGTERM handlers that flip [`SERVE_STOP`]. Uses the
/// raw libc `signal` entry point so the binary stays dependency-free;
/// the handler only does an async-signal-safe atomic store.
#[cfg(unix)]
fn install_shutdown_signals() {
    extern "C" fn on_signal(_sig: i32) {
        SERVE_STOP.store(true, std::sync::atomic::Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> isize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

#[cfg(not(unix))]
fn install_shutdown_signals() {
    // No portable zero-dependency handler here; the server still drains
    // correctly when stopped programmatically.
}

/// Run the partitioning service until SIGINT/SIGTERM, then drain.
fn run_serve(args: &Args) -> Result<(), CliError> {
    use cubesfc::serve::{ServeConfig, Server};
    use cubesfc::EngineBackend;
    use std::sync::Arc;

    let config = ServeConfig {
        addr: args.addr.clone(),
        workers: args.workers,
        queue_capacity: args.queue,
        cache_entries: args.cache_entries,
        deadline: std::time::Duration::from_millis(args.deadline_ms),
    };
    let backend = Arc::new(EngineBackend::new());
    let handle = Server::start(config, backend).map_err(|e| format!("bind {}: {e}", args.addr))?;
    println!(
        "cubesfc serve listening on http://{} (workers={}, queue={}, cache={}, deadline={}ms)",
        handle.local_addr(),
        args.workers,
        args.queue,
        args.cache_entries,
        args.deadline_ms
    );
    // The smoke tests scrape the address from a pipe: flush past the
    // block buffering that pipes get instead of line buffering.
    let _ = std::io::stdout().flush();

    install_shutdown_signals();
    while !SERVE_STOP.load(std::sync::atomic::Ordering::SeqCst) {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    eprintln!("shutdown requested: draining in-flight requests");
    let stats = handle.shutdown();
    eprintln!(
        "drained: accepted={} completed={} rejected={}",
        stats.accepted, stats.completed, stats.rejected
    );
    Ok(())
}

/// Parse, check the row's needs, resolve the observers, run the row's
/// command, and export what the observers recorded.
fn execute() -> Result<(), CliError> {
    let args = parse_args().map_err(CliError::Usage)?;
    let &(_, needs, run) = SUBCOMMANDS
        .iter()
        .find(|(name, ..)| *name == args.command)
        .unwrap_or(&UNKNOWN);
    check(needs, &args)?;
    let observers = Observers::resolve(&args).map_err(CliError::Usage)?;
    observers.start();
    let result = run(&args);
    observers.export()?;
    result
}

fn main() -> ExitCode {
    // `--version` is accepted anywhere on the command line, like
    // conventional CLIs, and short-circuits everything else.
    if std::env::args()
        .skip(1)
        .any(|a| a == "--version" || a == "-V")
    {
        println!("cubesfc {}", env!("CARGO_PKG_VERSION"));
        return ExitCode::SUCCESS;
    }
    match execute() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => e.exit(),
    }
}
