//! Point-in-time views of a registry's merged metrics.
//!
//! All maps are `BTreeMap` so iteration order — and therefore every
//! exporter's output — is stable across runs and shard merge orders.

use crate::json::{JsonWriter, Layout};
use crate::value::JsonValue;
use std::collections::BTreeMap;

/// Version tag written to every profile document.
pub const SCHEMA: &str = "cubesfc-profile-v1";

/// Aggregate statistics for one span path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanStat {
    pub count: u64,
    pub total_ns: u64,
    pub min_ns: u64,
    pub max_ns: u64,
}

impl SpanStat {
    pub(crate) fn new() -> SpanStat {
        SpanStat {
            count: 0,
            total_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }

    pub(crate) fn record(&mut self, elapsed_ns: u64) {
        self.count += 1;
        self.total_ns += elapsed_ns;
        self.min_ns = self.min_ns.min(elapsed_ns);
        self.max_ns = self.max_ns.max(elapsed_ns);
    }

    pub(crate) fn merge(&mut self, other: &SpanStat) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Mean duration in nanoseconds (0 when no samples).
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }
}

/// One occupied bucket of a log2 histogram: values in `lo..=hi`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Bucket {
    pub lo: u64,
    pub hi: u64,
    pub count: u64,
}

/// Merged view of a log2-bucket histogram.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    /// Occupied buckets only, in increasing value order.
    pub buckets: Vec<Bucket>,
}

impl HistogramSnapshot {
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }
}

/// Bucket index for a log2 histogram: 0 holds value 0, bucket `i >= 1`
/// holds values in `[2^(i-1), 2^i)` (the last bucket is clipped to u64).
pub(crate) const HIST_BUCKETS: usize = 65;

pub(crate) fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// The `lo..=hi` value range covered by bucket `i`.
pub(crate) fn bucket_range(i: usize) -> (u64, u64) {
    match i {
        0 => (0, 0),
        64 => (1u64 << 63, u64::MAX),
        _ => (1u64 << (i - 1), (1u64 << i) - 1),
    }
}

/// A merged, immutable view of every shard of a registry at one moment.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    pub timers: BTreeMap<String, SpanStat>,
    pub counters: BTreeMap<String, u64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    pub fn is_empty(&self) -> bool {
        self.timers.is_empty() && self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Serialize as a compact single-line `cubesfc-profile-v1` document:
    ///
    /// ```json
    /// {
    ///   "schema": "cubesfc-profile-v1",
    ///   "timers":     { "<path>": { "count": u, "total_ns": u, "min_ns": u,
    ///                               "max_ns": u, "mean_ns": u } },
    ///   "counters":   { "<name>": u },
    ///   "histograms": { "<name>": { "count": u, "sum": u, "mean": u,
    ///                               "buckets": [ { "lo": u, "hi": u, "count": u } ] } }
    /// }
    /// ```
    ///
    /// Keys come out in `BTreeMap` order and every number is an unsigned
    /// integer, so the bytes are stable for a given snapshot.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new(Layout::Compact);
        w.begin_object().field("schema", SCHEMA);
        w.key("timers").begin_object();
        for (path, t) in &self.timers {
            w.key(path).begin_object();
            w.field("count", t.count).field("total_ns", t.total_ns);
            w.field("min_ns", t.min_ns).field("max_ns", t.max_ns);
            w.field("mean_ns", t.mean_ns()).end_object();
        }
        w.end_object();
        w.map("counters", &self.counters);
        w.key("histograms").begin_object();
        for (name, h) in &self.histograms {
            w.key(name).begin_object();
            w.field("count", h.count).field("sum", h.sum);
            w.field("mean", h.mean()).key("buckets").begin_array();
            for b in &h.buckets {
                w.begin_object().field("lo", b.lo).field("hi", b.hi);
                w.field("count", b.count).end_object();
            }
            w.end_array().end_object();
        }
        w.end_object().end_object().finish()
    }

    /// Rebuild a snapshot from a parsed `cubesfc-profile-v1` document
    /// (the inverse of [`Snapshot::to_json`]; derived fields like
    /// `mean_ns` are ignored), so a document read back from a file or
    /// from `GET /metrics` is a snapshot again.
    pub fn from_json(doc: &JsonValue) -> Result<Snapshot, String> {
        doc.expect_schema(SCHEMA)?;
        let mut snap = Snapshot::default();
        for (path, t) in doc.req_obj("timers", "profile")? {
            let stat = SpanStat {
                count: t.req_u64("count", path)?,
                total_ns: t.req_u64("total_ns", path)?,
                min_ns: t.req_u64("min_ns", path)?,
                max_ns: t.req_u64("max_ns", path)?,
            };
            snap.timers.insert(path.clone(), stat);
        }
        for (name, v) in doc.req_obj("counters", "profile")? {
            let v = v
                .as_u64()
                .ok_or_else(|| format!("{name} is not an unsigned integer"))?;
            snap.counters.insert(name.clone(), v);
        }
        for (name, h) in doc.req_obj("histograms", "profile")? {
            let bucket = |b: &JsonValue| {
                Ok(Bucket {
                    lo: b.req_u64("lo", name)?,
                    hi: b.req_u64("hi", name)?,
                    count: b.req_u64("count", name)?,
                })
            };
            let hist = HistogramSnapshot {
                count: h.req_u64("count", name)?,
                sum: h.req_u64("sum", name)?,
                buckets: h
                    .req_arr("buckets", name)?
                    .iter()
                    .map(bucket)
                    .collect::<Result<_, String>>()?,
            };
            snap.histograms.insert(name.clone(), hist);
        }
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_stat_tracks_extremes_and_mean() {
        let mut s = SpanStat::new();
        s.record(10);
        s.record(30);
        s.record(20);
        assert_eq!(s.count, 3);
        assert_eq!(s.total_ns, 60);
        assert_eq!(s.min_ns, 10);
        assert_eq!(s.max_ns, 30);
        assert_eq!(s.mean_ns(), 20);
    }

    #[test]
    fn span_stat_merge_combines_shards() {
        let mut a = SpanStat::new();
        a.record(5);
        let mut b = SpanStat::new();
        b.record(100);
        b.record(7);
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert_eq!(a.total_ns, 112);
        assert_eq!(a.min_ns, 5);
        assert_eq!(a.max_ns, 100);
    }

    fn populated() -> Snapshot {
        let mut snap = Snapshot::default();
        let mut stat = SpanStat::new();
        stat.record(100);
        stat.record(300);
        snap.timers.insert("partition/coarsen".into(), stat);
        snap.counters.insert("dss/bytes".into(), 4096);
        snap.histograms.insert(
            "msg_size".into(),
            HistogramSnapshot {
                count: 2,
                sum: 3072,
                buckets: vec![Bucket {
                    lo: 1024,
                    hi: 2047,
                    count: 2,
                }],
            },
        );
        snap
    }

    #[test]
    fn empty_snapshot_is_valid_json_with_schema() {
        let json = Snapshot::default().to_json();
        crate::value::parse(&json).unwrap();
        assert!(json.starts_with("{\"schema\":\"cubesfc-profile-v1\""));
        assert!(json.contains("\"timers\":{}"));
        assert!(json.contains("\"counters\":{}"));
        assert!(json.contains("\"histograms\":{}"));
    }

    #[test]
    fn populated_snapshot_round_trips_structurally() {
        let json = populated().to_json();
        crate::value::parse(&json).unwrap();
        assert!(json.contains("\"partition/coarsen\":{\"count\":2,\"total_ns\":400"));
        assert!(json.contains("\"dss/bytes\":4096"));
        assert!(json.contains("\"buckets\":[{\"lo\":1024,\"hi\":2047,\"count\":2}]"));
    }

    #[test]
    fn from_json_round_trips_a_populated_snapshot() {
        let snap = populated();
        let doc = crate::value::parse(&snap.to_json()).unwrap();
        assert_eq!(Snapshot::from_json(&doc).unwrap(), snap);
        // And the empty document round-trips too.
        let doc = crate::value::parse(&Snapshot::default().to_json()).unwrap();
        assert!(Snapshot::from_json(&doc).unwrap().is_empty());
    }

    #[test]
    fn from_json_rejects_wrong_schema_and_shape() {
        let doc = crate::value::parse("{\"schema\":\"nope\"}").unwrap();
        assert!(Snapshot::from_json(&doc).unwrap_err().contains("schema"));
        let doc = crate::value::parse("{\"schema\":\"cubesfc-profile-v1\",\"timers\":{}}").unwrap();
        assert!(Snapshot::from_json(&doc).unwrap_err().contains("counters"));
        let doc = crate::value::parse(
            "{\"schema\":\"cubesfc-profile-v1\",\"timers\":{},\
             \"counters\":{\"c\":-1},\"histograms\":{}}",
        )
        .unwrap();
        assert!(Snapshot::from_json(&doc).is_err());
    }

    #[test]
    fn output_is_deterministic_and_sorted() {
        let mut snap = Snapshot::default();
        snap.counters.insert("zeta".into(), 1);
        snap.counters.insert("alpha".into(), 2);
        let a = snap.to_json();
        let b = snap.to_json();
        assert_eq!(a, b);
        assert!(a.find("alpha").unwrap() < a.find("zeta").unwrap());
    }

    #[test]
    fn log2_bucketing_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 0..HIST_BUCKETS {
            let (lo, hi) = bucket_range(i);
            assert_eq!(bucket_index(lo), i, "lo of bucket {i}");
            assert_eq!(bucket_index(hi), i, "hi of bucket {i}");
        }
    }
}
