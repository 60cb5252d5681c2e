//! Structured access logging: the `cubesfc-access-v1` NDJSON stream.
//!
//! One [`AccessRecord`] per served request — request ID, endpoint,
//! status, cache class, queue-wait and service microseconds, byte
//! counts, and a coarse outcome (`ok|rejected|deadline|error`). Records
//! live in a bounded [`Ring`] with an exact
//! dropped counter (the same drop-with-exact-count contract the event
//! buffers honor), so a busy server sheds old lines
//! instead of growing without bound.
//!
//! Serialization writes a fixed field order, so identical
//! records produce identical bytes: the stream is diffable modulo the
//! timing fields. The global log behind [`crate::access_record`] is
//! gated by a flag bit and costs one relaxed atomic load (and
//! allocates nothing) when off.

use crate::json::{JsonWriter, Layout};
use crate::value::{read_ndjson, JsonValue};
use std::collections::VecDeque;
use std::sync::Mutex;

/// Schema tag carried by every access-log NDJSON line.
pub const ACCESS_SCHEMA: &str = "cubesfc-access-v1";

/// Default bounded capacity of the global access log, in records.
pub(crate) const DEFAULT_ACCESS_CAPACITY: usize = 1 << 16;

/// One served request, as the access log saw it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AccessRecord {
    /// Monotonic line sequence number, assigned by the log.
    pub seq: u64,
    /// Request ID (client-supplied or server-generated), echoed to the
    /// client in the `x-cubesfc-request-id` response header.
    pub id: String,
    /// Endpoint label (`partition`, `metrics`, ...; `-` when the
    /// request was answered before it was read).
    pub endpoint: String,
    /// HTTP status of the response.
    pub status: u16,
    /// Cache class (`hit`, `miss`, `coalesced`; `-` when the endpoint
    /// has no cache).
    pub cache: String,
    /// Microseconds spent in the admission queue.
    pub queue_us: u64,
    /// Microseconds from dequeue to the response being written.
    pub service_us: u64,
    /// Request body bytes (0 when the request was never read).
    pub bytes_in: u64,
    /// Response body bytes.
    pub bytes_out: u64,
    /// Coarse outcome: `ok`, `rejected` (429), `deadline` (504), or
    /// `error` (any other 4xx/5xx).
    pub outcome: String,
}

impl AccessRecord {
    /// Serialize as one `cubesfc-access-v1` NDJSON line (no trailing
    /// newline). Field order is fixed, so identical records produce
    /// identical bytes.
    pub fn to_json_line(&self) -> String {
        let mut w = JsonWriter::with_capacity(Layout::Compact, 160);
        w.begin_object().field("schema", ACCESS_SCHEMA);
        w.field("seq", self.seq).field("id", &self.id);
        w.field("endpoint", &self.endpoint)
            .field("status", self.status);
        w.field("cache", &self.cache)
            .field("queue_us", self.queue_us);
        w.field("service_us", self.service_us);
        w.field("bytes_in", self.bytes_in)
            .field("bytes_out", self.bytes_out);
        w.field("outcome", &self.outcome).end_object().finish()
    }

    /// Rebuild a record from a parsed NDJSON line.
    pub fn from_json(doc: &JsonValue) -> Result<AccessRecord, String> {
        doc.expect_schema(ACCESS_SCHEMA)?;
        let text = |key| doc.req_str(key, "record").map(str::to_string);
        let uint = |key| doc.req_u64(key, "record");
        Ok(AccessRecord {
            seq: uint("seq")?,
            id: text("id")?,
            endpoint: text("endpoint")?,
            status: uint("status")?
                .try_into()
                .map_err(|_| "status out of range".to_string())?,
            cache: text("cache")?,
            queue_us: uint("queue_us")?,
            service_us: uint("service_us")?,
            bytes_in: uint("bytes_in")?,
            bytes_out: uint("bytes_out")?,
            outcome: text("outcome")?,
        })
    }
}

/// Parse a whole `cubesfc-access-v1` NDJSON stream (blank lines
/// ignored). Errors carry the 1-based line number.
pub fn parse_access(text: &str) -> Result<Vec<AccessRecord>, String> {
    read_ndjson(text, AccessRecord::from_json).map_err(|e| e.to_string())
}

struct AccessState {
    seq: u64,
    ring: Ring<AccessRecord>,
}

/// A bounded, drop-counting access log. Explicit instances always
/// record; the process-global one (see [`crate::access_record`]) is
/// gated behind the flag byte.
pub struct AccessLog {
    state: Mutex<AccessState>,
}

impl AccessLog {
    /// A log retaining at most `capacity` records (newest win).
    pub fn new(capacity: usize) -> AccessLog {
        AccessLog {
            state: Mutex::new(AccessState {
                seq: 0,
                ring: Ring::new(capacity),
            }),
        }
    }

    fn state(&self) -> std::sync::MutexGuard<'_, AccessState> {
        self.state.lock().expect("access log poisoned")
    }

    /// Append one record, assigning its sequence number. Returns the
    /// assigned `seq`.
    #[allow(clippy::too_many_arguments)]
    pub fn push(
        &self,
        id: &str,
        endpoint: &str,
        status: u16,
        cache: &str,
        queue_us: u64,
        service_us: u64,
        bytes_in: u64,
        bytes_out: u64,
        outcome: &str,
    ) -> u64 {
        let mut st = self.state();
        let seq = st.seq;
        st.seq += 1;
        st.ring.push(AccessRecord {
            seq,
            id: id.to_string(),
            endpoint: endpoint.to_string(),
            status,
            cache: cache.to_string(),
            queue_us,
            service_us,
            bytes_in,
            bytes_out,
            outcome: outcome.to_string(),
        });
        seq
    }

    /// Retained records, oldest first.
    pub fn records(&self) -> Vec<AccessRecord> {
        self.state().ring.iter().cloned().collect()
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.state().ring.len()
    }

    /// Whether the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.state().ring.is_empty()
    }

    /// Exact number of records evicted by the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.state().ring.dropped()
    }

    /// Export the retained window as `cubesfc-access-v1` NDJSON (one
    /// line per record, trailing newline).
    pub fn export_ndjson(&self) -> String {
        let st = self.state();
        st.ring.iter().map(|r| r.to_json_line() + "\n").collect()
    }

    /// Clear all records, the dropped counter, and the sequence.
    pub fn reset(&self) {
        let mut st = self.state();
        st.seq = 0;
        st.ring.clear();
    }
}

/// A fixed-capacity FIFO with an exact count of evicted entries.
#[derive(Clone, Debug)]
struct Ring<T> {
    buf: VecDeque<T>,
    capacity: usize,
    dropped: u64,
}

impl<T> Ring<T> {
    /// A ring holding at most `capacity` entries (at least 1).
    fn new(capacity: usize) -> Ring<T> {
        Ring {
            buf: VecDeque::with_capacity(capacity.max(1)),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    /// Append `item`; when full, the oldest entry is evicted, counted,
    /// and handed back.
    fn push(&mut self, item: T) -> Option<T> {
        let evicted = if self.buf.len() == self.capacity {
            self.dropped += 1;
            self.buf.pop_front()
        } else {
            None
        };
        self.buf.push_back(item);
        evicted
    }

    /// Entries oldest-first.
    fn iter(&self) -> impl Iterator<Item = &T> {
        self.buf.iter()
    }

    fn len(&self) -> usize {
        self.buf.len()
    }

    fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Exact number of entries evicted since creation (or last clear).
    fn dropped(&self) -> u64 {
        self.dropped
    }

    fn clear(&mut self) {
        self.buf.clear();
        self.dropped = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_push_under_capacity_drops_nothing() {
        let mut r = Ring::new(4);
        for i in 0..4 {
            assert!(r.push(i).is_none());
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 0);
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn ring_wraparound_counts_every_eviction_exactly() {
        let mut r = Ring::new(3);
        let mut evicted = Vec::new();
        for i in 0..10 {
            if let Some(e) = r.push(i) {
                evicted.push(e);
            }
        }
        // 10 pushes into capacity 3: exactly 7 evictions, oldest-first.
        assert_eq!(r.dropped(), 7);
        assert_eq!(evicted, vec![0, 1, 2, 3, 4, 5, 6]);
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), vec![7, 8, 9]);
        r.clear();
        assert_eq!(r.dropped(), 0);
        assert!(r.is_empty());
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut r = Ring::new(0);
        assert!(r.push(1).is_none());
        assert_eq!(r.push(2), Some(1));
        assert_eq!(r.len(), 1);
    }

    fn record(seq: u64) -> AccessRecord {
        AccessRecord {
            seq,
            id: format!("r{seq:06}"),
            endpoint: "partition".to_string(),
            status: 200,
            cache: "hit".to_string(),
            queue_us: 12,
            service_us: 340,
            bytes_in: 48,
            bytes_out: 96,
            outcome: "ok".to_string(),
        }
    }

    #[test]
    fn lines_round_trip_byte_for_byte() {
        let r = record(3);
        let line = r.to_json_line();
        let doc = crate::value::parse(&line).unwrap();
        let back = AccessRecord::from_json(&doc).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.to_json_line(), line);
        // Identical records are byte-identical: the stream is stable
        // modulo the timing fields.
        assert_eq!(record(3).to_json_line(), line);
    }

    #[test]
    fn line_has_fixed_field_order() {
        let line = record(0).to_json_line();
        assert_eq!(
            line,
            "{\"schema\":\"cubesfc-access-v1\",\"seq\":0,\"id\":\"r000000\",\
             \"endpoint\":\"partition\",\"status\":200,\"cache\":\"hit\",\
             \"queue_us\":12,\"service_us\":340,\"bytes_in\":48,\"bytes_out\":96,\
             \"outcome\":\"ok\"}"
        );
    }

    #[test]
    fn log_assigns_sequence_and_counts_drops_exactly() {
        let log = AccessLog::new(3);
        for i in 0..8u64 {
            let seq = log.push(&format!("c{i}"), "metrics", 200, "-", 1, 2, 0, 10, "ok");
            assert_eq!(seq, i);
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.dropped(), 5);
        let seqs: Vec<u64> = log.records().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![5, 6, 7]);
        let text = log.export_ndjson();
        assert_eq!(text.lines().count(), 3);
        let parsed = parse_access(&text).unwrap();
        assert_eq!(parsed, log.records());
        log.reset();
        assert!(log.is_empty());
        assert_eq!(log.dropped(), 0);
        assert_eq!(log.push("x", "-", 429, "-", 0, 0, 0, 0, "rejected"), 0);
    }

    #[test]
    fn malformed_streams_are_rejected_with_line_numbers() {
        assert!(parse_access("").unwrap().is_empty());
        let err = parse_access("{\"schema\":\"nope\"}").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        let good = record(0).to_json_line();
        let err = parse_access(&format!("{good}\nnot json\n")).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn hostile_ids_escape_cleanly() {
        let mut r = record(0);
        r.id = "weird \"id\"\nwith\\stuff".to_string();
        let line = r.to_json_line();
        let doc = crate::value::parse(&line).unwrap();
        assert_eq!(AccessRecord::from_json(&doc).unwrap(), r);
    }
}
