//! Chrome Trace Event Format export for [`Tracer`] timelines.
//!
//! The output is the JSON Object Format of the Trace Event spec — an
//! object with a `traceEvents` array — loadable in Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing`. Each lane becomes
//! one thread row of a single process, named via `thread_name` metadata
//! events and ordered by `thread_sort_index`, so virtual ranks render
//! as adjacent timeline rows regardless of which OS thread simulated
//! them. Thread ids are assigned by *lane-name sort order*, not lane
//! registration order: registration order depends on thread scheduling,
//! while the sorted assignment makes Perfetto row order — and the
//! `tid` → lane mapping a replay tool reconstructs from the metadata —
//! stable across runs.
//!
//! Timestamps are microseconds (the spec's unit) with nanosecond
//! precision kept as three decimal places; formatting is integer-only,
//! so output is byte-stable for a given event stream.
//!
//! Counter samples export as `"ph":"C"` events whose `args` are the
//! track's values (shortest round-trip `f64`, `null` for NaN/±inf);
//! Perfetto draws one counter track per name and key.

use crate::events::EventKind;
use crate::json::{JsonScalar, JsonWriter, Layout};
use crate::Tracer;

/// Version tag written to every trace document (under `otherData`).
pub const TRACE_SCHEMA: &str = "cubesfc-trace-v1";

/// The process id all lanes share in the export.
const PID: u32 = 1;

/// Format nanoseconds as decimal microseconds (`12345` → `12.345`).
fn ts_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// One `M` (metadata) event carrying a single `args` member.
fn metadata(w: &mut JsonWriter, name: &str, tid: Option<usize>, arg: (&str, impl JsonScalar)) {
    w.begin_object().field("name", name).field("ph", "M");
    w.field("pid", PID);
    if let Some(tid) = tid {
        w.field("tid", tid);
    }
    w.map("args", [arg]).end_object();
}

impl Tracer {
    /// Export every recorded event as a Chrome Trace Event Format JSON
    /// document. Always valid JSON, even with zero events or lanes.
    pub fn export_chrome(&self) -> String {
        let lanes = self.lane_names();
        let events = self.events();
        // tid = position in lane-name sort order; `tid_of` maps the
        // registration-order lane id each event carries to its tid.
        let mut order: Vec<usize> = (0..lanes.len()).collect();
        order.sort_by(|&a, &b| lanes[a].cmp(&lanes[b]));
        let mut tid_of = vec![0u32; lanes.len()];
        for (tid, &lane_id) in order.iter().enumerate() {
            tid_of[lane_id] = tid as u32;
        }
        let mut w = JsonWriter::with_capacity(Layout::Compact, 1024 + events.len() * 96);
        w.begin_object().field("displayTimeUnit", "ms");
        w.key("otherData").begin_object();
        w.field("schema", TRACE_SCHEMA);
        w.field("droppedEvents", self.dropped_events()).end_object();
        w.key("traceEvents").begin_array();

        metadata(&mut w, "process_name", None, ("name", "cubesfc"));
        for (tid, &lane_id) in order.iter().enumerate() {
            metadata(&mut w, "thread_name", Some(tid), ("name", &lanes[lane_id]));
            metadata(&mut w, "thread_sort_index", Some(tid), ("sort_index", tid));
        }

        for ev in &events {
            let tid = tid_of[ev.lane as usize];
            w.begin_object();
            match ev.kind {
                EventKind::Begin => {
                    w.field("name", &ev.name).field("ph", "B");
                }
                EventKind::End => {
                    w.field("ph", "E");
                }
                EventKind::Instant => {
                    w.field("name", &ev.name).field("ph", "i").field("s", "t");
                }
                EventKind::Counter => {
                    w.field("name", &ev.name).field("ph", "C");
                }
            }
            w.field("pid", PID).field("tid", tid);
            w.key("ts").number(ts_us(ev.ts_ns));
            if ev.kind == EventKind::Counter {
                let values = ev.args.iter().map(|(k, v)| (k, f64::from_bits(*v)));
                w.map("args", values);
            } else if ev.kind != EventKind::End && !ev.args.is_empty() {
                w.map("args", ev.args.iter().map(|(k, v)| (k, v)));
            }
            w.end_object();
        }
        w.end_array().end_object().finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::parse;
    use crate::MockClock;
    use std::sync::Arc;

    #[test]
    fn ts_formats_nanoseconds_as_decimal_microseconds() {
        assert_eq!(ts_us(0), "0.000");
        assert_eq!(ts_us(999), "0.999");
        assert_eq!(ts_us(12_345), "12.345");
        assert_eq!(ts_us(1_000_000), "1000.000");
    }

    #[test]
    fn empty_tracer_exports_valid_object() {
        let doc = parse(&Tracer::new().export_chrome()).unwrap();
        let obj = doc.as_obj().unwrap();
        assert_eq!(
            obj["otherData"].get("schema").unwrap().as_str(),
            Some(TRACE_SCHEMA)
        );
        assert_eq!(
            obj["otherData"].get("droppedEvents").unwrap().as_u64(),
            Some(0)
        );
        // Only the process_name metadata event.
        assert_eq!(obj["traceEvents"].as_arr().unwrap().len(), 1);
    }

    #[test]
    fn export_has_named_sorted_lanes_and_balanced_slices() {
        let clock = Arc::new(MockClock::new());
        let tracer = Tracer::with_clock(clock.clone());
        let r0 = tracer.lane("rank 0");
        let r1 = tracer.lane("rank 1");
        r0.begin_with("compute", &[("elements", 7)]);
        clock.advance(1500);
        r0.end();
        r1.instant("send", &[("bytes", 64)]);

        let json = tracer.export_chrome();
        let doc = parse(&json).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();

        let names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("thread_name"))
            .map(|e| {
                e.get("args")
                    .unwrap()
                    .get("name")
                    .unwrap()
                    .as_str()
                    .unwrap()
            })
            .collect();
        assert_eq!(names, vec!["rank 0", "rank 1"]);

        let begins: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("B"))
            .collect();
        let ends = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("E"))
            .count();
        assert_eq!(begins.len(), 1);
        assert_eq!(ends, 1);
        assert_eq!(begins[0].get("name").unwrap().as_str(), Some("compute"));
        assert_eq!(
            begins[0]
                .get("args")
                .unwrap()
                .get("elements")
                .unwrap()
                .as_u64(),
            Some(7)
        );
        assert_eq!(begins[0].get("ts").unwrap().as_f64(), Some(0.0));

        let instant = events
            .iter()
            .find(|e| e.get("ph").and_then(|p| p.as_str()) == Some("i"))
            .unwrap();
        assert_eq!(instant.get("s").unwrap().as_str(), Some("t"));
        assert_eq!(instant.get("ts").unwrap().as_f64(), Some(1.5));
    }

    #[test]
    fn counters_export_as_ph_c_with_decoded_values() {
        let tracer = Tracer::with_clock(Arc::new(MockClock::new()));
        let lane = tracer.lane("steps");
        lane.counter_at("rebalance", 1_500, &[("lb", 0.25), ("inf", f64::INFINITY)]);
        let json = tracer.export_chrome();
        assert!(
            json.contains(
                r#"{"name":"rebalance","ph":"C","pid":1,"tid":0,"ts":1.500,"args":{"lb":0.25,"inf":null}}"#
            ),
            "{json}"
        );
        parse(&json).unwrap();
    }

    #[test]
    fn counter_tracks_export_byte_identically_across_runs() {
        let run = || {
            let clock = Arc::new(MockClock::new());
            let tracer = Tracer::with_clock(clock.clone());
            let lane = tracer.lane("steps");
            for step in 0..20u64 {
                clock.advance(1_000);
                let lb = 0.01 * step as f64;
                let mut ranks = vec![1.0; 8];
                ranks[(step % 8) as usize] = 1.0 + lb;
                lane.counter(
                    "rebalance",
                    &crate::counter_values(&[("lb_measured", lb)], &ranks),
                );
            }
            tracer.export_chrome()
        };
        let first = run();
        assert_eq!(first.matches(r#""ph":"C""#).count(), 20);
        assert_eq!(run(), first);

        // reset() restores a fresh export on the same tracer, too.
        let tracer = Tracer::with_clock(Arc::new(MockClock::new()));
        let lane = tracer.lane("steps");
        lane.counter("lane", &[("g", 1.0)]);
        let once = tracer.export_chrome();
        tracer.reset();
        assert_eq!(tracer.dropped_events(), 0);
        lane.counter("lane", &[("g", 1.0)]);
        assert_eq!(tracer.export_chrome(), once);
    }

    #[test]
    fn tids_follow_lane_name_order_not_registration_order() {
        let tracer = Tracer::with_clock(Arc::new(MockClock::new()));
        // Register out of name order, as racing rank threads would.
        let z = tracer.lane("rank 2");
        let a = tracer.lane("dss");
        let m = tracer.lane("rank 0");
        z.instant("on-z", &[]);
        a.instant("on-a", &[]);
        m.instant("on-m", &[]);

        let doc = parse(&tracer.export_chrome()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        // thread_name metadata appears in sorted name order with tids
        // 0, 1, 2 matching sort_index.
        let named: Vec<(u64, &str)> = events
            .iter()
            .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("thread_name"))
            .map(|e| {
                (
                    e.get("tid").unwrap().as_u64().unwrap(),
                    e.get("args")
                        .unwrap()
                        .get("name")
                        .unwrap()
                        .as_str()
                        .unwrap(),
                )
            })
            .collect();
        assert_eq!(named, vec![(0, "dss"), (1, "rank 0"), (2, "rank 2")]);
        // Events point at the sorted tids.
        let tid_for = |name: &str| {
            events
                .iter()
                .find(|e| e.get("name").and_then(|n| n.as_str()) == Some(name))
                .unwrap()
                .get("tid")
                .unwrap()
                .as_u64()
                .unwrap()
        };
        assert_eq!(tid_for("on-a"), 0);
        assert_eq!(tid_for("on-m"), 1);
        assert_eq!(tid_for("on-z"), 2);
    }

    #[test]
    fn export_reports_dropped_events() {
        let tracer = Tracer::with_clock_and_capacity(Arc::new(MockClock::new()), 2);
        let lane = tracer.lane("x");
        for _ in 0..5 {
            lane.instant("e", &[]);
        }
        let doc = parse(&tracer.export_chrome()).unwrap();
        assert_eq!(
            doc.get("otherData")
                .unwrap()
                .get("droppedEvents")
                .unwrap()
                .as_u64(),
            Some(3)
        );
    }

    #[test]
    fn names_are_escaped() {
        let tracer = Tracer::new();
        let lane = tracer.lane("rank \"0\"");
        lane.instant("a\nb", &[]);
        let json = tracer.export_chrome();
        parse(&json).unwrap();
        assert!(json.contains("rank \\\"0\\\""));
        assert!(json.contains("a\\nb"));
    }
}
