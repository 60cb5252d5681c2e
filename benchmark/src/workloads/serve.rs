//! `serve_hit` and `serve_miss`: requests over TCP against an in-process
//! `Server::start` (2 workers) backed by `EngineBackend`.
//!
//! The load is **closed-loop**: a job launcher blocks on the reply before
//! it can start its ranks, so each client sends its next request only
//! after the previous reply. There are at most `nproc` clients (2 on the
//! reference box), each with one request in flight and one connection.
//!
//! `serve_hit` draws from 16 keys primed in set-up, so every reply comes
//! from the result cache and the socket path is all there is. `serve_miss`
//! uses the same layer the other way round: every partition request
//! carries a seed no other request has (LRU insert, coalescer flight,
//! backend), and every fifth request is a rebalance step with a K-element
//! weight body (large-body parse; never cached).

use super::RoundResult;
use crate::client::{Client, Reply};
use crate::inputs::{self, MissRequest, ServeKey, Sizes, MISS_CYCLE, REBALANCE_NPROC};
use crate::procstat;
use crate::spans::{Recorder, Span};
use cubesfc::obs::{json_parse, JsonValue};
use cubesfc::serve::{ServeConfig, Server, SERVE_SCHEMA};
use cubesfc::{method_from_name, table1, EngineBackend};
use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::time::Instant;

pub const SERVER_WORKERS: usize = 2;
const MAX_CLIENTS: usize = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    Hit,
    Miss,
}

/// Closed-loop clients of a round: two, or one on a single-core box.
pub fn clients() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(MAX_CLIENTS))
}

/// What a reply to a template must look like.
#[derive(Clone, Debug)]
enum Expect {
    /// Byte-identical to the first body seen for this request, with
    /// exactly this `x-cubesfc-cache` header.
    Same {
        body: String,
        cache: Option<&'static str>,
    },
    /// A partition computed for this request alone: never a `hit`, and the
    /// body echoes the request up to the report.
    Fresh { prefix: String },
}

#[derive(Clone, Debug)]
struct Template {
    path: &'static str,
    body: Arc<str>,
    expect: Expect,
    shape: Shape,
}

/// What the reply's assignment (or part loads) must cover.
#[derive(Clone, Copy, Debug)]
struct Shape {
    k: usize,
    nproc: usize,
    /// Only the curve promises that no part is empty (see `paper_grid`).
    no_empty_part: bool,
}

impl Shape {
    fn of(key: &ServeKey) -> Shape {
        Shape {
            k: key.k(),
            nproc: key.nproc,
            no_empty_part: key.method == "sfc",
        }
    }

    fn rebalance(k: usize) -> Shape {
        Shape {
            k,
            nproc: REBALANCE_NPROC,
            no_empty_part: true,
        }
    }
}

fn fresh_prefix(key: &ServeKey, seed: u64) -> String {
    let label = method_from_name(key.method)
        .expect("serve keys use wire names")
        .label();
    format!(
        "{{\"schema\":\"{SERVE_SCHEMA}\",\"kind\":\"partition\",\"ne\":{},\"k\":{},\"nproc\":{},\
         \"method\":\"{label}\",\"seed\":{seed},\"report\":{{",
        key.ne,
        key.k(),
        key.nproc
    )
}

/// Check status, cache class and body of one reply.
fn check_reply(template: &Template, reply: &Reply) -> Result<(), String> {
    if reply.status != 200 {
        return Err(format!("status {}: {}", reply.status, reply.body));
    }
    let cache = reply.header("x-cubesfc-cache");
    match &template.expect {
        Expect::Same { body, cache: want } => {
            if cache != *want {
                return Err(format!("x-cubesfc-cache is {cache:?}, expected {want:?}"));
            }
            if reply.body != *body {
                return Err("body differs from the first one seen for this request".to_string());
            }
        }
        Expect::Fresh { prefix } => {
            if !matches!(cache, Some("miss" | "coalesced")) {
                return Err(format!(
                    "x-cubesfc-cache is {cache:?} on an uncacheable request"
                ));
            }
            if !reply.body.starts_with(prefix.as_str()) {
                return Err("body does not echo the request".to_string());
            }
        }
    }
    Ok(())
}

/// The text of the number that follows `key` in `body`.
fn number_after<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let rest = &body[body.find(key)? + key.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(&rest[..end])
}

/// `(edgecut, time_us)` from a partition reply's report.
fn quality(body: &str) -> Option<(u64, f64)> {
    Some((
        number_after(body, "\"edgecut\":")?.parse().ok()?,
        number_after(body, "\"time_us\":")?.parse().ok()?,
    ))
}

/// Parse a whole body: schema tag, and an assignment that covers `k`
/// elements with labels below `nproc` (or `nproc` part loads).
fn deep_check(body: &str, shape: Shape) -> Result<(), String> {
    let Shape { k, nproc, .. } = shape;
    let doc = json_parse(body)?;
    if doc.get("schema").and_then(JsonValue::as_str) != Some(SERVE_SCHEMA) {
        return Err("schema tag missing".to_string());
    }
    if let Some(loads) = doc.get("part_loads").and_then(JsonValue::as_arr) {
        return if loads.len() == nproc {
            Ok(())
        } else {
            Err(format!("{} part loads for {nproc} parts", loads.len()))
        };
    }
    let assignment = doc
        .get("assignment")
        .and_then(JsonValue::as_arr)
        .ok_or("no assignment in the body")?;
    let mut part_seen = vec![false; nproc];
    for label in assignment {
        match label.as_u64() {
            Some(p) if (p as usize) < nproc => part_seen[p as usize] = true,
            _ => return Err("assignment label out of range".to_string()),
        }
    }
    if assignment.len() != k {
        return Err(format!(
            "assignment covers {} of {k} elements",
            assignment.len()
        ));
    }
    if shape.no_empty_part && part_seen.contains(&false) {
        return Err("the curve left a part empty".to_string());
    }
    Ok(())
}

/// What one client thread brings back.
#[derive(Default)]
struct ClientOutcome {
    latencies_us: Vec<f64>,
    failures: Vec<String>,
    connects: u64,
    hits: u64,
    coalesced: u64,
    /// `(op index, edgecut, time_us)` of every fresh partition.
    fresh_quality: Vec<(usize, u64, f64)>,
    /// `(op index, body)` of the first cycle's fresh partitions.
    kept_bodies: Vec<(usize, String)>,
    spans: Vec<Span>,
}

/// Ids of client `c`'s spans start at `c * SPAN_ID_STRIDE`.
const SPAN_ID_STRIDE: u32 = 1 << 24;

/// Run `ops` (indices into `templates`) over the clients; client `c` takes
/// ops `c, c + clients, ...` in order. Returns the merged outcomes and the
/// wall seconds from the common start to the last reply.
fn run_clients(
    addr: SocketAddr,
    templates: &[Template],
    ops: &[usize],
    trace_epoch: Option<Instant>,
) -> (Vec<ClientOutcome>, f64, f64) {
    let clients = clients();
    let barrier = Barrier::new(clients + 1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut out = ClientOutcome::default();
                    let mut client = Client::new(addr);
                    let mut rec = match trace_epoch {
                        Some(epoch) => Recorder::enabled(epoch, c as u32 * SPAN_ID_STRIDE),
                        None => Recorder::disabled(),
                    };
                    barrier.wait();
                    for (i, &t) in ops.iter().enumerate().skip(c).step_by(clients) {
                        let template = &templates[t];
                        rec.set_op(i as u32);
                        let started = Instant::now();
                        let reply = rec.span("bench", "request", |rec| {
                            client.request("POST", template.path, Some(&template.body), rec)
                        });
                        out.latencies_us.push(started.elapsed().as_secs_f64() * 1e6);
                        let checked = reply
                            .map_err(|e| e.to_string())
                            .and_then(|reply| check_reply(template, &reply).map(|()| reply));
                        match checked {
                            Err(message) => out.failures.push(format!("op {i}: {message}")),
                            Ok(reply) => {
                                match reply.header("x-cubesfc-cache") {
                                    Some("hit") => out.hits += 1,
                                    Some("coalesced") => out.coalesced += 1,
                                    _ => {}
                                }
                                if matches!(template.expect, Expect::Fresh { .. }) {
                                    match quality(&reply.body) {
                                        Some((cut, us)) => out.fresh_quality.push((i, cut, us)),
                                        None => out
                                            .failures
                                            .push(format!("op {i}: no report in the body")),
                                    }
                                    if i < MISS_CYCLE {
                                        out.kept_bodies.push((i, reply.body));
                                    }
                                }
                            }
                        }
                    }
                    out.connects = client.connects();
                    out.spans = rec.into_spans();
                    out
                })
            })
            .collect();
        barrier.wait();
        let started = Instant::now();
        let cpu_before = procstat::cpu_ms();
        let outcomes = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (
            outcomes,
            started.elapsed().as_secs_f64(),
            procstat::cpu_ms() - cpu_before,
        )
    })
}

/// Send each priming request once and keep its body as the reference.
fn prime(
    addr: SocketAddr,
    requests: Vec<(&'static str, String, Shape)>,
    then_cache: Option<&'static str>,
    round: &mut RoundResult,
) -> Vec<Template> {
    let mut client = Client::new(addr);
    let mut rec = Recorder::disabled();
    requests
        .into_iter()
        .map(|(path, body, shape)| {
            let reference = match client.request("POST", path, Some(&body), &mut rec) {
                Ok(reply) if reply.status == 200 => reply.body,
                Ok(reply) => {
                    round.fail(format!("priming {path}: status {}", reply.status));
                    String::new()
                }
                Err(e) => {
                    round.fail(format!("priming {path}: {e}"));
                    String::new()
                }
            };
            if let Err(message) = deep_check(&reference, shape) {
                round.fail(format!("priming {path}: {message}"));
            }
            Template {
                path,
                body: body.into(),
                expect: Expect::Same {
                    body: reference,
                    cache: then_cache,
                },
                shape,
            }
        })
        .collect()
}

pub fn round(
    mode: Mode,
    seed: u64,
    sizes: Sizes,
    traced: bool,
    process_start: Instant,
) -> RoundResult {
    let mut round = RoundResult::default();
    let handle = Server::start(
        ServeConfig {
            workers: SERVER_WORKERS,
            ..ServeConfig::default()
        },
        Arc::new(EngineBackend::new()),
    )
    .expect("bind an ephemeral localhost port");
    let addr = handle.local_addr();
    let keys = inputs::serve_keys();

    // Templates, the timed op sequence and the warm-up sequence.
    let (templates, timed, warm_up): (Vec<Template>, Vec<usize>, Vec<usize>) = match mode {
        Mode::Hit => {
            let primed = keys
                .iter()
                .map(|key| ("/v1/partition", key.body(0), Shape::of(key)))
                .collect();
            let templates = prime(addr, primed, Some("hit"), &mut round);
            let timed = inputs::hit_sequence(seed, sizes.serve_hit_requests);
            let warm_up = timed[..timed.len() / 10].to_vec();
            (templates, timed, warm_up)
        }
        Mode::Miss => {
            // The rebalance references also build the four meshes.
            let weights = inputs::rebalance_weights(seed);
            let primed = table1()
                .iter()
                .zip(&weights)
                .map(|(res, w)| {
                    (
                        "/v1/rebalance/step",
                        inputs::rebalance_body(res.ne, w),
                        Shape::rebalance(res.k),
                    )
                })
                .collect();
            let rebalances = prime(addr, primed, None, &mut round);

            let timed_ops = sizes.serve_miss_cycles * MISS_CYCLE;
            let warm_ops = timed_ops / 10;
            let cycles = sizes.serve_miss_cycles + warm_ops.div_ceil(MISS_CYCLE);
            let templates: Vec<Template> = inputs::miss_sequence(seed, cycles)
                .into_iter()
                .map(|request| match request {
                    MissRequest::Partition { key, seed } => Template {
                        path: "/v1/partition",
                        body: keys[key].body(seed).into(),
                        expect: Expect::Fresh {
                            prefix: fresh_prefix(&keys[key], seed),
                        },
                        shape: Shape::of(&keys[key]),
                    },
                    MissRequest::Rebalance { resolution } => rebalances[resolution].clone(),
                })
                .collect();
            let timed = (0..timed_ops).collect();
            let warm_up = (timed_ops..timed_ops + warm_ops).collect();
            (templates, timed, warm_up)
        }
    };

    run_clients(addr, &templates, &warm_up, None);
    round.setup_s = process_start.elapsed().as_secs_f64();

    let (outcomes, wall_s, cpu_ms) =
        run_clients(addr, &templates, &timed, traced.then(Instant::now));
    round.timed_s = wall_s;
    round.cpu_ms = cpu_ms;
    round.attempted = timed.len() as u64;

    let (mut connects, mut hits, mut coalesced) = (0, 0, 0);
    let mut fresh_quality = Vec::new();
    for outcome in outcomes {
        connects += outcome.connects;
        hits += outcome.hits;
        coalesced += outcome.coalesced;
        round.latencies_us.extend(outcome.latencies_us);
        for message in outcome.failures {
            round.fail(message);
        }
        fresh_quality.extend(outcome.fresh_quality);
        for (i, body) in outcome.kept_bodies {
            if let Err(message) = deep_check(&body, templates[timed[i]].shape) {
                round.fail(format!("op {i}: {message}"));
            }
        }
        round.spans.extend(outcome.spans);
    }

    // Quality sums in op order, so the float sum does not depend on which
    // client happened to take which reply.
    match mode {
        Mode::Hit => {
            for template in &templates {
                if let Expect::Same { body, .. } = &template.expect {
                    match quality(body) {
                        Some(q) => fresh_quality.push((0, q.0, q.1)),
                        None => round.fail("a primed body has no report".to_string()),
                    }
                }
            }
        }
        Mode::Miss => fresh_quality.sort_by_key(|&(i, _, _)| i),
    }
    for (_, edgecut, time_us) in fresh_quality {
        round.edgecut_sum += edgecut;
        round.model_us_sum += time_us;
    }

    let drain = handle.shutdown();
    if drain.accepted != drain.completed || drain.rejected != 0 {
        round.fail(format!("drain is not clean: {drain:?}"));
    }
    let ops = timed.len() as f64;
    round.extra.insert("connects_per_op", connects as f64 / ops);
    round.extra.insert("hit_ratio", hits as f64 / ops);
    round
        .extra
        .insert("coalesced_share", coalesced as f64 / ops);
    round.extra.insert("drain_accepted", drain.accepted as f64);
    round.extra.insert("drain_rejected", drain.rejected as f64);
    round
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reply(cache: Option<&str>, body: &str) -> Reply {
        Reply {
            status: 200,
            headers: cache
                .map(|c| ("x-cubesfc-cache".to_string(), c.to_string()))
                .into_iter()
                .collect(),
            body: body.to_string(),
        }
    }

    fn shape(k: usize, nproc: usize, no_empty_part: bool) -> Shape {
        Shape {
            k,
            nproc,
            no_empty_part,
        }
    }

    fn template(expect: Expect) -> Template {
        Template {
            path: "/v1/partition",
            body: "".into(),
            expect,
            shape: shape(4, 2, true),
        }
    }

    #[test]
    fn a_miss_where_a_hit_is_expected_fails_and_so_does_the_reverse() {
        let primed = template(Expect::Same {
            body: "B".to_string(),
            cache: Some("hit"),
        });
        assert!(check_reply(&primed, &reply(Some("hit"), "B")).is_ok());
        assert!(check_reply(&primed, &reply(Some("miss"), "B")).is_err());
        assert!(check_reply(&primed, &reply(Some("hit"), "other")).is_err());

        let fresh = template(Expect::Fresh {
            prefix: "{\"seed\":7,".to_string(),
        });
        assert!(check_reply(&fresh, &reply(Some("miss"), "{\"seed\":7,\"x\":1}")).is_ok());
        assert!(check_reply(&fresh, &reply(Some("hit"), "{\"seed\":7,\"x\":1}")).is_err());
        assert!(check_reply(&fresh, &reply(None, "{\"seed\":7,\"x\":1}")).is_err());
        assert!(check_reply(&fresh, &reply(Some("miss"), "{\"seed\":8,\"x\":1}")).is_err());

        let mut refused = reply(Some("hit"), "B");
        refused.status = 429;
        assert!(check_reply(&primed, &refused).is_err());
    }

    #[test]
    fn quality_and_deep_check_read_a_real_shaped_body() {
        let body = format!(
            "{{\"schema\":\"{SERVE_SCHEMA}\",\"kind\":\"partition\",\"report\":{{\"edgecut\":12,\
             \"time_us\":3.5}},\"assignment\":[0,1,1,0]}}"
        );
        assert_eq!(quality(&body), Some((12, 3.5)));
        assert!(deep_check(&body, shape(4, 2, true)).is_ok());
        assert!(
            deep_check(&body, shape(5, 2, true)).is_err(),
            "one element short"
        );
        assert!(
            deep_check(&body, shape(4, 3, true)).is_err(),
            "part 2 is empty"
        );
        assert!(
            deep_check(&body, shape(4, 3, false)).is_ok(),
            "allowed off the curve"
        );
        assert!(
            deep_check(&body, shape(4, 1, false)).is_err(),
            "label out of range"
        );
        assert!(deep_check("{\"schema\":\"other\"}", shape(4, 2, true)).is_err());
        assert!(deep_check("not json", shape(4, 2, true)).is_err());
        let loads = format!("{{\"schema\":\"{SERVE_SCHEMA}\",\"part_loads\":[1.0,2.0]}}");
        assert!(deep_check(&loads, shape(4, 2, true)).is_ok());
        assert!(deep_check(&loads, shape(4, 3, true)).is_err());
    }
}
