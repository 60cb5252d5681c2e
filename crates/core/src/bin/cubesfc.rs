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
use cubesfc::report::PartitionReport;
use cubesfc::viz::{render_partition_ascii, render_partition_ppm};
use cubesfc::{
    method_from_name, partition, CostModel, CubedSphere, MachineModel, PartitionMethod,
    PartitionOptions,
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

/// What to do with the profile when the command finishes.
struct ProfileSink {
    /// Print the rendered table to stderr.
    table: bool,
    /// Also write JSON here.
    json_path: Option<String>,
}

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
            "--access-log" => args.access_log = Some("cubesfc-access.ndjson".to_string()),
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
    match args.command.as_str() {
        "trace" => {
            if args.paths.len() != 2 || args.paths[0] != "analyze" {
                return Err("trace needs a subcommand: trace analyze FILE.json".into());
            }
        }
        _ => {
            if let Some(stray) = args.paths.first() {
                return Err(format!("unexpected argument '{stray}'"));
            }
            // `experiment` defaults to the whole Table-1 grid when no
            // resolution is named and `serve` takes its sizes from each
            // request; every other command needs a resolution.
            if args.ne == 0 && args.command != "experiment" && args.command != "serve" {
                return Err("--ne is required".into());
            }
        }
    }
    Ok(args)
}

/// Combine `--profile` and `CUBESFC_PROFILE` into one sink (or none).
///
/// The environment variable follows a strict contract: empty or `0`
/// disables, `1`/`true`/`table` print the table, `json:<path>` writes
/// JSON *and* prints the table. Anything else is a usage error.
fn profile_sink(flag: bool) -> Result<Option<ProfileSink>, String> {
    let env = std::env::var("CUBESFC_PROFILE").unwrap_or_default();
    let mut sink = if flag {
        Some(ProfileSink {
            table: true,
            json_path: None,
        })
    } else {
        None
    };
    match env.as_str() {
        "" | "0" => {}
        "1" | "true" | "table" => {
            sink = Some(ProfileSink {
                table: true,
                json_path: sink.and_then(|s| s.json_path),
            });
        }
        other => match other.strip_prefix("json:") {
            Some(path) if !path.is_empty() => {
                sink = Some(ProfileSink {
                    table: true,
                    json_path: Some(path.to_string()),
                });
            }
            _ => {
                return Err(format!(
                    "CUBESFC_PROFILE={other:?} is invalid (expected '', '0', '1', \
                     'true', 'table', or 'json:<path>')"
                ));
            }
        },
    }
    Ok(sink)
}

/// Combine `--trace` and `CUBESFC_TRACE` into the trace output path (or
/// none). The flag takes precedence over the environment variable.
fn trace_sink(flag: &Option<String>) -> Option<String> {
    if flag.is_some() {
        return flag.clone();
    }
    match std::env::var("CUBESFC_TRACE") {
        Ok(p) if !p.is_empty() => Some(p),
        _ => None,
    }
}

/// Combine `--access-log[=PATH]` and `CUBESFC_ACCESS_LOG` into the
/// access-log output path (or none). The flag wins; in the
/// environment, empty or `0` disables, `1`/`true` use the default
/// path, and any other value is the path.
fn access_sink(args: &Args) -> Option<String> {
    if args.access_log.is_some() {
        return args.access_log.clone();
    }
    match std::env::var("CUBESFC_ACCESS_LOG")
        .unwrap_or_default()
        .as_str()
    {
        "" | "0" => None,
        "1" | "true" => Some("cubesfc-access.ndjson".to_string()),
        path => Some(path.to_string()),
    }
}

/// Export the recorded access log as `cubesfc-access-v1` NDJSON.
fn write_access_log(path: &str) -> Result<(), String> {
    let log = cubesfc_obs::access_log();
    std::fs::write(path, log.export_ndjson()).map_err(|e| format!("{path}: {e}"))?;
    let dropped = log.dropped();
    if dropped > 0 {
        eprintln!("access log: {dropped} record(s) shed (ring full); counts remain exact");
    }
    Ok(())
}

fn write_profile(sink: &ProfileSink) -> Result<(), String> {
    let snap = cubesfc_obs::export_snapshot();
    if sink.table {
        eprint!("{}", snap.render_table());
    }
    if let Some(path) = &sink.json_path {
        std::fs::write(path, snap.to_json()).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(())
}

fn emit(path: &Option<String>, bytes: &[u8]) -> Result<(), String> {
    match path {
        None => std::io::stdout()
            .write_all(bytes)
            .map_err(|e| e.to_string()),
        Some(p) => std::fs::write(p, bytes).map_err(|e| format!("{p}: {e}")),
    }
}

/// A command failure, split by exit code. `Runtime` exits 1 (missing
/// file, wrong schema, a fired alert); `Malformed`
/// exits 2 with the parser's line/column diagnostic — input that is not
/// JSON at all is a usage-class problem, like a mistyped flag; `Usage`
/// exits 2 with the usage text, for argument combinations that can
/// never be valid (a degenerate `--nproc`, for instance).
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
}

/// Replay a `cubesfc-trace-v1` timeline into the wait-state
/// decomposition, critical path, imbalance attribution and counter-track
/// alerts; `Err` (exit 1) when an alert fired, unless `--report-only`.
fn run_trace_analyze(args: &Args) -> Result<(), CliError> {
    let path = &args.paths[1];
    // An unreadable file is a runtime error.
    let text =
        std::fs::read_to_string(path).map_err(|e| CliError::Runtime(format!("{path}: {e}")))?;
    let analysis =
        cubesfc_obs::load_doc(&text, analyze_doc).map_err(|e| CliError::load(path, e))?;
    print!("{}", analysis.render());
    if let Some(out) = &args.json {
        std::fs::write(out, analysis.to_json())
            .map_err(|e| CliError::Runtime(format!("{out}: {e}")))?;
    }
    let fired = analysis.alerts_fired();
    if fired == 0 || args.report_only {
        return Ok(());
    }
    Err(format!("{fired} alert(s) fired in {path}").into())
}

/// Run a short parallel advection solve over the computed partition so
/// the trace shows one timeline lane per virtual rank (plus the shared
/// DSS lane). Only invoked when tracing is enabled.
fn trace_mini_solve(mesh: &CubedSphere, part: &cubesfc::Partition) {
    use cubesfc::seam::solver::AdvectionConfig;
    use cubesfc::seam::{gaussian_blob, run_parallel};
    let cfg = AdvectionConfig::stable_for(mesh.ne(), 4, 1);
    let ic = gaussian_blob([1.0, 0.0, 0.0], 0.5);
    let _ = run_parallel(mesh.topology(), part, cfg, 2, &ic);
}

/// Run the (K, Nproc, method) experiment grid on the core budget and
/// print grouped Table-2 rows.
fn run_experiment(args: &Args) -> Result<(), String> {
    use cubesfc::{cells_for, paper_grid, resolve_jobs, set_jobs, ExperimentEngine, Resolution};

    let jobs = resolve_jobs(args.jobs);
    set_jobs(jobs);
    let cells = if args.ne != 0 {
        let res = Resolution::for_ne(args.ne, cubesfc::NCAR_P690_MAX_PROCS).ok_or(format!(
            "Ne={} admits no space-filling curve (a prime factor exceeds 3)",
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

/// Drive a load trajectory through a rebalance policy and backend,
/// printing the per-step table and optionally writing the JSON report.
fn run_rebalance_cmd(args: &Args) -> Result<(), String> {
    use cubesfc::balance::{
        run_rebalance, IncrementalSfc, LoadModel, RebalancePolicy, Repartitioner, SimConfig,
        TrajectoryKind,
    };
    use cubesfc::{MeshCache, MethodRepartitioner};

    let kinds = TrajectoryKind::parse(&args.trajectory, args.nproc, args.steps)
        .map_err(|e| format!("--trajectory: {e}"))?;
    let mut policy = RebalancePolicy::named(&args.policy).ok_or(format!(
        "unknown policy '{}' (expected threshold, periodic, or costbenefit)",
        args.policy
    ))?;
    if let (RebalancePolicy::Periodic { every }, Some(n)) = (&mut policy, args.every) {
        *every = n;
    }

    let cache = MeshCache::new();
    let bundle = cache.bundle(args.ne);
    let model = LoadModel::overlay(&bundle.mesh, kinds);
    let config = SimConfig {
        steps: args.steps,
        nproc: args.nproc,
        machine: MachineModel::ncar_p690(),
        cost: CostModel::seam_climate(),
    };

    // The SFC method rebalances incrementally on its fixed curve; the
    // graph methods recompute from scratch each trigger. Both start from
    // the same uniform-weight static partition of their own method.
    let mut opts = PartitionOptions::default();
    opts.graph_config.seed = args.seed;
    let initial =
        partition(&bundle.mesh, args.method, args.nproc, &opts).map_err(|e| e.to_string())?;
    let mut backend: Box<dyn Repartitioner> = match args.method {
        PartitionMethod::Sfc => Box::new(IncrementalSfc::new(
            bundle
                .mesh
                .curve_required()
                .map_err(|e| e.to_string())?
                .clone(),
        )),
        m => Box::new(MethodRepartitioner::new(bundle.clone(), m, args.seed).with_options(opts)),
    };

    let report = run_rebalance(
        &bundle.graph,
        &model,
        backend.as_mut(),
        policy,
        initial,
        &config,
    )
    .map_err(|e| e.to_string())?;

    print!("{}", report.render_table());
    if let Some(path) = &args.json {
        std::fs::write(path, report.to_json()).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(())
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
fn run_serve(args: &Args) -> Result<(), String> {
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

fn run(args: Args) -> Result<(), CliError> {
    if args.command == "trace" {
        return run_trace_analyze(&args);
    }
    if args.command == "serve" {
        return run_serve(&args).map_err(CliError::Runtime);
    }
    run_mesh_command(args)
}

fn run_mesh_command(args: Args) -> Result<(), CliError> {
    if args.command == "experiment" {
        return run_experiment(&args).map_err(CliError::Runtime);
    }
    // A processor count of zero, or more processors than elements, can
    // never describe a valid run for any method: reject it up front as
    // a usage error (exit 2) rather than letting a backend fail late.
    if matches!(
        args.command.as_str(),
        "partition" | "report" | "render" | "rebalance"
    ) {
        let k = 6 * args.ne * args.ne;
        if args.nproc == 0 {
            return Err(CliError::Usage("--nproc must be at least 1".into()));
        }
        if args.nproc > k {
            return Err(CliError::Usage(format!(
                "--nproc {} exceeds the element count K = {k} (Ne = {})",
                args.nproc, args.ne
            )));
        }
    }
    if args.command == "rebalance" {
        return run_rebalance_cmd(&args).map_err(CliError::Runtime);
    }
    run_static_command(args).map_err(CliError::Runtime)
}

fn run_static_command(args: Args) -> Result<(), String> {
    let mesh = CubedSphere::new(args.ne);
    let mut opts = PartitionOptions::default();
    opts.graph_config.seed = args.seed;

    match args.command.as_str() {
        "info" => {
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
        "partition" => {
            let p = partition(&mesh, args.method, args.nproc, &opts).map_err(|e| e.to_string())?;
            if cubesfc_obs::trace_enabled() {
                trace_mini_solve(&mesh, &p);
            }
            let mut out = String::new();
            for (e, part) in p.assignment().iter().enumerate() {
                out.push_str(&format!("{e} {part}\n"));
            }
            emit(&args.output, out.as_bytes())
        }
        "report" => {
            let machine = MachineModel::ncar_p690();
            let cost = CostModel::seam_climate();
            println!("{}", PartitionReport::table_header());
            for m in PartitionMethod::ALL {
                match PartitionReport::compute(&mesh, m, args.nproc, &machine, &cost) {
                    Ok(r) => println!("{}", r.table_row()),
                    Err(e) => println!("{:<8} unavailable: {e}", m.label()),
                }
            }
            Ok(())
        }
        "render" => {
            let p = partition(&mesh, args.method, args.nproc, &opts).map_err(|e| e.to_string())?;
            if args.ascii {
                emit(&args.output, render_partition_ascii(&mesh, &p).as_bytes())
            } else {
                emit(&args.output, &render_partition_ppm(&mesh, &p, 16))
            }
        }
        other => Err(format!("unknown command '{other}'")),
    }
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
    match parse_args() {
        Err(e) => {
            eprintln!("error: {e}");
            usage()
        }
        Ok(args) => {
            let sink = match profile_sink(args.profile) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: {e}");
                    return usage();
                }
            };
            let trace_path = trace_sink(&args.trace);
            // The access log is a serve-side artifact: one line per
            // HTTP request, exported when the server drains.
            let access_path = if args.command == "serve" {
                access_sink(&args)
            } else {
                None
            };
            if sink.is_some() {
                cubesfc_obs::set_enabled(true);
            }
            if access_path.is_some() {
                cubesfc_obs::set_access_enabled(true);
            }
            if trace_path.is_some() {
                cubesfc_obs::set_trace_enabled(true);
            }
            let result = run(args);
            if let Some(sink) = &sink {
                if let Err(e) = write_profile(sink) {
                    eprintln!("error: profile export failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
            if let Some(path) = &trace_path {
                let json = cubesfc_obs::tracer().export_chrome();
                if let Err(e) = std::fs::write(path, json) {
                    eprintln!("error: trace export failed: {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
            if let Some(path) = &access_path {
                if let Err(e) = write_access_log(path) {
                    eprintln!("error: access-log export failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
            match result {
                Ok(()) => ExitCode::SUCCESS,
                Err(CliError::Runtime(e)) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
                Err(CliError::Malformed(e)) => {
                    eprintln!("error: {e}");
                    ExitCode::from(2)
                }
                Err(CliError::Usage(e)) => {
                    eprintln!("error: {e}");
                    usage()
                }
            }
        }
    }
}
