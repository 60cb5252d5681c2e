//! The per-layer ledger: direct probes of each layer's public functions,
//! timed by the benchmark from outside, plus short sessions of the serve
//! and solver workloads for the counts only a live run has.
//!
//! Every value is a median over [`REPS`] repetitions in the unit of the
//! name's suffix. Mesh, slicing and report probes run at Ne=128 and 768
//! parts, where `big_sfc` spends its time; graph probes run on the
//! `(Ne, Nproc)` pairs of [`GRAPH_PAIRS`] from the paper grid.

use crate::client::Client;
use crate::inputs::{self, Sizes, BIG_SFC_SIZES, REBALANCE_NPROC};
use crate::spans::Recorder;
use crate::stats;
use crate::workloads::{serve, solver_step};
use cubesfc::balance::{IncrementalSfc, Repartitioner};
use cubesfc::graph::{
    kway, kway_volume, multilevel_bisect, partition_stats, raw_migration, recursive_bisection,
    split_order_weighted, CsrGraph, SplitMix64,
};
use cubesfc::report::PartitionReport;
use cubesfc::seam::{self, SerialSolver};
use cubesfc::serve::http::{read_request, Response};
use cubesfc::serve::{
    parse_partition_request, parse_rebalance_request, Backend, BackendError, BoundedQueue,
    Coalescer, LruCache, PartitionRequest, RebalanceStepRequest, ServeConfig, Server,
};
use cubesfc::{
    partition_curve, partition_curve_weighted, set_jobs, to_csr, CostModel, CubedSphere,
    EngineBackend, GlobalCurve, MachineModel, MeshCache, PartitionConfig, SfcCurve, Topology,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Name and unit of every per-layer metric, in ledger order. The `trace.*`
/// ones come from a workload's traced round, the rest from [`run`].
pub const PER_LAYER: [(&str, &str); 52] = [
    ("sfc.for_side_us", "us"),
    ("sfc.cells_per_s", "1/s"),
    ("mesh.topology_build_us", "us"),
    ("mesh.global_curve_build_us", "us"),
    ("mesh.new_us", "us"),
    ("mesh.dual_graph_us", "us"),
    ("graph.kway_us", "us"),
    ("graph.tv_us", "us"),
    ("graph.rb_us", "us"),
    ("graph.rb_jobs1_us", "us"),
    ("graph.join_speedup", "ratio"),
    ("graph.bisect_us", "us"),
    ("graph.split_weighted_us", "us"),
    ("graph.stats_us", "us"),
    ("core.slice_us", "us"),
    ("core.slice_weighted_us", "us"),
    ("core.report_us", "us"),
    ("core.mesh_cache_hit_ns", "ns"),
    ("core.backend_partition_us", "us"),
    ("core.backend_rebalance_us", "us"),
    ("core.body_bytes", "bytes"),
    ("seam.perfmodel_us", "us"),
    ("seam.serial_step_us", "us"),
    ("seam.compute_share", "ratio"),
    ("seam.comm_wait_us", "us"),
    ("balance.repartition_us", "us"),
    ("balance.migration_us", "us"),
    ("serve.read_request_us", "us"),
    ("serve.parse_partition_us", "us"),
    ("serve.parse_rebalance_us", "us"),
    ("serve.response_write_us", "us"),
    ("serve.lru_get_ns", "ns"),
    ("serve.lru_insert_ns", "ns"),
    ("serve.coalesce_leader_ns", "ns"),
    ("serve.queue_push_pop_ns", "ns"),
    ("serve.healthz_rtt_us", "us"),
    ("serve.hit_rtt_us", "us"),
    ("serve.transport_us", "us"),
    ("serve.connects_per_op", "ratio"),
    ("serve.hit_ratio", "ratio"),
    ("serve.coalesced_share", "ratio"),
    ("serve.drain_accepted", "count"),
    ("serve.drain_rejected", "count"),
    ("obs.span_disabled_ns", "ns"),
    ("obs.counter_disabled_ns", "ns"),
    ("trace.overhead_pct", "%"),
    ("trace.coverage", "ratio"),
    ("trace.self_share.mesh", "ratio"),
    ("trace.self_share.graph", "ratio"),
    ("trace.self_share.core", "ratio"),
    ("trace.self_share.seam", "ratio"),
    ("trace.self_share.serve", "ratio"),
];

/// Repetitions each probe's median is taken over.
const REPS: usize = 7;
/// Face size of the mesh, slicing and report probes.
const BIG_NE: usize = 128;
const BIG_NPROC: usize = 768;
/// `(Ne, Nproc)` pairs of the graph probes: one per curve family of the
/// paper grid, at the service keys' processor counts.
const GRAPH_PAIRS: [(usize, usize); 3] = [(8, 96), (9, 81), (18, 486)];
/// Round trips of the `/healthz` probe.
const HEALTHZ_REQUESTS: usize = 300;

/// Median over [`REPS`] of the nanoseconds one call of `f` takes, each
/// repetition timing `calls` calls in a row.
fn median_ns(calls: usize, mut f: impl FnMut()) -> f64 {
    let per_call: Vec<f64> = (0..REPS)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..calls {
                f();
            }
            started.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    stats::median(&per_call).expect("REPS > 0")
}

fn median_us(calls: usize, f: impl FnMut()) -> f64 {
    median_ns(calls, f) / 1e3
}

fn graphs() -> Vec<(CsrGraph, usize)> {
    GRAPH_PAIRS
        .iter()
        .map(|&(ne, nproc)| {
            let mesh = CubedSphere::new(ne);
            (to_csr(&mesh.dual_graph(Default::default())), nproc)
        })
        .collect()
}

fn sfc_mesh_graph(out: &mut BTreeMap<&'static str, f64>) {
    let for_side_us = median_us(1, || {
        for ne in BIG_SFC_SIZES {
            black_box(SfcCurve::for_side(black_box(ne)).expect("big_sfc sizes admit a curve"));
        }
    });
    let cells: usize = BIG_SFC_SIZES.iter().map(|ne| ne * ne).sum();
    out.insert("sfc.for_side_us", for_side_us);
    out.insert("sfc.cells_per_s", cells as f64 / (for_side_us / 1e6));

    out.insert(
        "mesh.topology_build_us",
        median_us(1, || {
            black_box(Topology::build(black_box(BIG_NE)));
        }),
    );
    out.insert(
        "mesh.global_curve_build_us",
        median_us(1, || {
            black_box(GlobalCurve::build(black_box(BIG_NE)).expect("128 = 2^7"));
        }),
    );
    out.insert(
        "mesh.new_us",
        median_us(1, || {
            black_box(CubedSphere::new(black_box(BIG_NE)));
        }),
    );
    let mesh = CubedSphere::new(BIG_NE);
    out.insert(
        "mesh.dual_graph_us",
        median_us(1, || {
            black_box(to_csr(&mesh.dual_graph(Default::default())));
        }),
    );

    let graphs = graphs();
    let over_pairs = |f: &dyn Fn(&CsrGraph, &PartitionConfig)| {
        median_us(1, || {
            for (g, nproc) in &graphs {
                f(g, &PartitionConfig::new(*nproc));
            }
        })
    };
    out.insert(
        "graph.kway_us",
        over_pairs(&|g, cfg| {
            black_box(kway(g, cfg));
        }),
    );
    out.insert(
        "graph.tv_us",
        over_pairs(&|g, cfg| {
            black_box(kway_volume(g, cfg));
        }),
    );
    let rb = |g: &CsrGraph, cfg: &PartitionConfig| {
        black_box(recursive_bisection(g, cfg));
    };
    let rb_us = over_pairs(&rb);
    // The plain single-thread baseline; the default budget is restored.
    set_jobs(1);
    let rb_jobs1_us = over_pairs(&rb);
    set_jobs(0);
    out.insert("graph.rb_us", rb_us);
    out.insert("graph.rb_jobs1_us", rb_jobs1_us);
    out.insert("graph.join_speedup", rb_jobs1_us / rb_us);
    let (k1944, _) = graphs.last().expect("GRAPH_PAIRS is not empty");
    out.insert(
        "graph.bisect_us",
        median_us(1, || {
            let mut rng = SplitMix64::new(0x5EED);
            black_box(multilevel_bisect(
                k1944,
                0.5,
                &PartitionConfig::new(2),
                &mut rng,
            ));
        }),
    );

    // Slicing, statistics, performance model and report at Ne=128.
    let curve = mesh.curve_required().expect("128 = 2^7");
    let graph = to_csr(&mesh.dual_graph(Default::default()));
    let weights = inputs::split_weights(inputs::DEFAULT_SEED)
        .pop()
        .expect("one vector per size");
    out.insert(
        "graph.split_weighted_us",
        median_us(1, || {
            black_box(
                split_order_weighted(
                    curve.len(),
                    |r| curve.elem_at(r).index(),
                    BIG_NPROC,
                    &weights,
                )
                .expect("valid weights"),
            );
        }),
    );
    out.insert(
        "core.slice_us",
        median_us(1, || {
            black_box(partition_curve(curve, BIG_NPROC).expect("768 <= K"));
        }),
    );
    out.insert(
        "core.slice_weighted_us",
        median_us(1, || {
            black_box(partition_curve_weighted(curve, BIG_NPROC, &weights).expect("valid"));
        }),
    );
    let partition = partition_curve(curve, BIG_NPROC).expect("768 <= K");
    let (machine, cost) = (MachineModel::ncar_p690(), CostModel::seam_climate());
    out.insert(
        "graph.stats_us",
        median_us(1, || {
            black_box(partition_stats(&graph, &partition));
        }),
    );
    out.insert(
        "seam.perfmodel_us",
        median_us(1, || {
            black_box(seam::evaluate(&graph, &partition, &machine, &cost));
        }),
    );
    out.insert(
        "core.report_us",
        median_us(1, || {
            black_box(PartitionReport::from_partition_with_graph(
                &graph,
                cubesfc::PartitionMethod::Sfc,
                &partition,
                &machine,
                &cost,
            ));
        }),
    );
}

fn core_seam_balance(seed: u64, out: &mut BTreeMap<&'static str, f64>) {
    let cache = MeshCache::new();
    cache.bundle(8);
    out.insert(
        "core.mesh_cache_hit_ns",
        median_ns(10_000, || {
            black_box(cache.bundle(black_box(8)));
        }),
    );

    // The backend, called directly with one serve_miss cycle's requests.
    let backend = EngineBackend::new();
    let keys = inputs::serve_keys();
    let mut next_seed = 1u64 << 40;
    let mut body_bytes = 0usize;
    out.insert(
        "core.backend_partition_us",
        median_us(1, || {
            body_bytes = 0;
            for key in &keys {
                next_seed += 1;
                let request = PartitionRequest {
                    ne: key.ne as u32,
                    nproc: key.nproc as u32,
                    method: key.method.to_string(),
                    seed: next_seed,
                    include_assignment: true,
                };
                body_bytes += backend.partition(&request).expect("valid request").len();
            }
        }) / keys.len() as f64,
    );
    out.insert("core.body_bytes", body_bytes as f64 / keys.len() as f64);
    let rebalances: Vec<RebalanceStepRequest> = cubesfc::table1()
        .iter()
        .zip(inputs::rebalance_weights(seed))
        .map(|(res, weights)| RebalanceStepRequest {
            ne: res.ne as u32,
            nproc: REBALANCE_NPROC as u32,
            seed: 0,
            weights,
        })
        .collect();
    out.insert(
        "core.backend_rebalance_us",
        median_us(1, || {
            for request in &rebalances {
                black_box(backend.rebalance_step(request).expect("valid request"));
            }
        }) / rebalances.len() as f64,
    );

    let mesh = CubedSphere::new(solver_step::NE);
    let mut solver = SerialSolver::new(mesh.topology(), solver_step::config());
    solver.set_initial(solver_step::initial_condition());
    out.insert("seam.serial_step_us", median_us(10, || solver.step()));

    let mesh = CubedSphere::new(16);
    let curve = mesh.curve_required().expect("16 = 2^4");
    let weights = &rebalances[2].weights;
    let mut sfc = IncrementalSfc::new(curve.clone());
    out.insert(
        "balance.repartition_us",
        median_us(20, || {
            black_box(sfc.repartition(0, weights, REBALANCE_NPROC).expect("valid"));
        }),
    );
    let before = partition_curve(curve, REBALANCE_NPROC).expect("64 <= K");
    let after = sfc.repartition(0, weights, REBALANCE_NPROC).expect("valid");
    out.insert(
        "balance.migration_us",
        median_us(20, || {
            black_box(raw_migration(&before, &after).expect("same size"));
        }),
    );

    assert!(
        !cubesfc::obs::enabled(),
        "the benchmark never switches obs on"
    );
    out.insert(
        "obs.span_disabled_ns",
        median_ns(100_000, || {
            black_box(cubesfc::obs::span(black_box("probe")));
        }),
    );
    out.insert(
        "obs.counter_disabled_ns",
        median_ns(100_000, || cubesfc::obs::counter_add(black_box("probe"), 1)),
    );
}

/// The CPU-side pieces of the serve path, one call each.
fn serve_pieces(seed: u64, out: &mut BTreeMap<&'static str, f64>) -> f64 {
    let keys = inputs::serve_keys();
    let key = keys[12]; // Ne=18, SFC: the largest assignment body
    let request_body = key.body(0);
    let wire = format!(
        "POST /v1/partition HTTP/1.1\r\nhost: cubesfc\r\ncontent-length: {}\r\n\r\n{request_body}",
        request_body.len()
    );
    let read_us = median_us(200, || {
        black_box(read_request(black_box(wire.as_bytes())).expect("well-formed"));
    });
    let parse_us = median_us(200, || {
        black_box(parse_partition_request(black_box(request_body.as_bytes())).expect("valid"));
    });
    let rebalance_body = inputs::rebalance_body(16, &inputs::rebalance_weights(seed)[2]);
    out.insert(
        "serve.parse_rebalance_us",
        median_us(20, || {
            black_box(
                parse_rebalance_request(black_box(rebalance_body.as_bytes())).expect("valid"),
            );
        }),
    );

    let request = parse_partition_request(request_body.as_bytes()).expect("valid");
    let reply_body = EngineBackend::new()
        .partition(&request)
        .expect("valid request");
    let mut sink = Vec::with_capacity(2 * reply_body.len());
    let write_us = median_us(200, || {
        sink.clear();
        Response::json(200, reply_body.clone())
            .with_header("x-cubesfc-cache", "hit")
            .with_header("x-cubesfc-request-id", "r000001")
            .write(&mut sink)
            .expect("a Vec never fails");
    });

    let request_of = |seed: u64| PartitionRequest {
        seed,
        ..request.clone()
    };
    let mut cache: LruCache<PartitionRequest, String> =
        LruCache::new(ServeConfig::default().cache_entries);
    cache.insert(request.clone(), reply_body.clone());
    let lru_get_ns = median_ns(10_000, || {
        black_box(cache.get(black_box(&request)).is_some());
    });
    // Inserts into a full cache, each evicting the least recently used.
    let mut next_seed = 0;
    for _ in 0..cache.capacity() {
        next_seed += 1;
        cache.insert(request_of(next_seed), String::new());
    }
    out.insert(
        "serve.lru_insert_ns",
        median_ns(1_000, || {
            next_seed += 1;
            black_box(cache.insert(request_of(next_seed), String::new()));
        }),
    );
    let coalescer: Coalescer<PartitionRequest, Result<String, BackendError>> = Coalescer::new();
    out.insert(
        "serve.coalesce_leader_ns",
        median_ns(10_000, || {
            black_box(
                coalescer.run(request.clone(), Some(Duration::from_secs(1)), || {
                    Ok(String::new())
                }),
            );
        }),
    );
    let queue: BoundedQueue<u64> = BoundedQueue::new(ServeConfig::default().queue_capacity);
    out.insert(
        "serve.queue_push_pop_ns",
        median_ns(10_000, || {
            queue.push(black_box(1)).expect("the queue is empty");
            black_box(queue.pop());
        }),
    );

    out.insert("serve.read_request_us", read_us);
    out.insert("serve.parse_partition_us", parse_us);
    out.insert("serve.response_write_us", write_us);
    out.insert("serve.lru_get_ns", lru_get_ns);
    read_us + parse_us + lru_get_ns / 1e3 + write_us
}

/// Median round trip of `GET /healthz`: the floor of the socket path.
fn healthz_rtt_us() -> f64 {
    let handle = Server::start(
        ServeConfig {
            workers: serve::SERVER_WORKERS,
            ..ServeConfig::default()
        },
        Arc::new(EngineBackend::new()),
    )
    .expect("bind an ephemeral localhost port");
    let mut client = Client::new(handle.local_addr());
    let mut rec = Recorder::disabled();
    let rtts: Vec<f64> = (0..HEALTHZ_REQUESTS)
        .filter_map(|_| {
            let started = Instant::now();
            let reply = client.request("GET", "/healthz", None, &mut rec).ok()?;
            (reply.status == 200).then(|| started.elapsed().as_secs_f64() * 1e6)
        })
        .collect();
    handle.shutdown();
    stats::latency(&rtts).map_or(f64::NAN, |l| l.p50)
}

/// Short sessions of the live workloads, for the counts only they have.
/// Returns how many of their ops failed.
fn sessions(
    seed: u64,
    sizes: Sizes,
    cpu_side_us: f64,
    out: &mut BTreeMap<&'static str, f64>,
) -> u64 {
    let p50 = |latencies: &[f64]| stats::latency(latencies).map_or(f64::NAN, |l| l.p50);
    out.insert("serve.healthz_rtt_us", healthz_rtt_us());

    let hit = serve::round(serve::Mode::Hit, seed, sizes, false, Instant::now());
    let hit_rtt_us = p50(&hit.latencies_us);
    out.insert("serve.hit_rtt_us", hit_rtt_us);
    // What is left of a hit after the CPU-side pieces: accept poll,
    // hand-off to a worker, connect and close.
    out.insert("serve.transport_us", hit_rtt_us - cpu_side_us);
    out.insert("serve.connects_per_op", hit.extra["connects_per_op"]);
    out.insert("serve.hit_ratio", hit.extra["hit_ratio"]);
    out.insert("serve.coalesced_share", hit.extra["coalesced_share"]);
    out.insert("serve.drain_accepted", hit.extra["drain_accepted"]);
    out.insert("serve.drain_rejected", hit.extra["drain_rejected"]);

    let solver = solver_step::round(sizes, false, Instant::now());
    out.insert("seam.compute_share", solver.extra["compute_share"]);
    out.insert("seam.comm_wait_us", solver.extra["comm_wait_us"]);
    for failure in hit.failures.iter().chain(&solver.failures) {
        eprintln!("probes: {failure}");
    }
    hit.failed + solver.failed
}

/// Run every probe; `sizes` are those of the short sessions. Returns the
/// ledger and how many session ops failed.
pub fn run(seed: u64, sizes: Sizes) -> (BTreeMap<&'static str, f64>, u64) {
    let mut out = BTreeMap::new();
    sfc_mesh_graph(&mut out);
    core_seam_balance(seed, &mut out);
    let cpu_side_us = serve_pieces(seed, &mut out);
    let failed = sessions(seed, sizes, cpu_side_us, &mut out);
    (out, failed)
}
