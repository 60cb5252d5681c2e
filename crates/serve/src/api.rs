//! Wire types for the `cubesfc-serve-v1` JSON API.
//!
//! The serve crate owns request *parsing and validation*; turning a
//! validated request into a partition is the job of a [`Backend`]
//! implementation supplied by the embedding crate (the core engine, or
//! a mock in tests). Keeping the wire layer backend-agnostic is what
//! lets `cubesfc` re-export this crate without a dependency cycle.
//!
//! [`Backend`]: crate::Backend

use cubesfc_obs::{json_parse_with_limits, JsonLimits, JsonValue, JsonWriter, Layout};

/// Schema identifier stamped on every response body.
pub const SERVE_SCHEMA: &str = "cubesfc-serve-v1";

/// Parse limits applied to request bodies: the transport already caps
/// bytes, so the JSON limit mainly enforces a shallow nesting depth —
/// no legitimate `cubesfc-serve-v1` body nests deeper than 8.
pub const BODY_JSON_LIMITS: JsonLimits = JsonLimits {
    max_bytes: crate::http::MAX_BODY_BYTES,
    max_depth: 32,
};

/// Largest accepted `ne`: a guardrail so one request cannot ask the
/// service to build an arbitrarily large mesh.
pub const MAX_NE: u64 = 512;
/// Largest accepted `nproc`.
pub const MAX_NPROC: u64 = 1_000_000;

/// A validated `POST /v1/partition` request.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PartitionRequest {
    /// Elements per cube-face edge.
    pub ne: u32,
    /// Number of partitions.
    pub nproc: u32,
    /// Partitioning method name (e.g. `sfc`, `kway`, `metis-like`).
    pub method: String,
    /// Seed for randomized methods.
    pub seed: u64,
    /// Whether to include the full per-element assignment vector.
    pub include_assignment: bool,
}

/// A validated `POST /v1/rebalance/step` request.
#[derive(Debug, Clone, PartialEq)]
pub struct RebalanceStepRequest {
    /// Elements per cube-face edge.
    pub ne: u32,
    /// Number of partitions.
    pub nproc: u32,
    /// Seed for the underlying curve construction.
    pub seed: u64,
    /// Per-element weights; empty means uniform.
    pub weights: Vec<f64>,
}

fn parse_body(body: &[u8]) -> Result<JsonValue, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not valid UTF-8".to_string())?;
    json_parse_with_limits(text, &BODY_JSON_LIMITS).map_err(|e| e.to_string())
}

fn require_u64(
    obj: &JsonValue,
    key: &str,
    min: u64,
    max: u64,
    default: Option<u64>,
) -> Result<u64, String> {
    let value = match obj.get(key) {
        Some(v) => v
            .as_u64()
            .ok_or_else(|| format!("field {key:?} must be a non-negative integer"))?,
        None => match default {
            Some(d) => return Ok(d),
            None => return Err(format!("missing required field {key:?}")),
        },
    };
    if value < min || value > max {
        return Err(format!(
            "field {key:?} must be in [{min}, {max}], got {value}"
        ));
    }
    Ok(value)
}

/// Parse and validate a `POST /v1/partition` body.
pub fn parse_partition_request(body: &[u8]) -> Result<PartitionRequest, String> {
    let root = parse_body(body)?;
    if root.as_obj().is_none() {
        return Err("request body must be a JSON object".to_string());
    }
    let ne = require_u64(&root, "ne", 1, MAX_NE, None)?;
    let nproc = require_u64(&root, "nproc", 1, MAX_NPROC, None)?;
    let seed = require_u64(&root, "seed", 0, u64::MAX, Some(0))?;
    let method = match root.get("method") {
        Some(v) => v.as_str().ok_or("field \"method\" must be a string")?,
        None => "sfc",
    }
    .to_string();
    let include_assignment = match root.get("include_assignment") {
        Some(v) => v
            .as_bool()
            .ok_or("field \"include_assignment\" must be a boolean")?,
        None => false,
    };
    Ok(PartitionRequest {
        ne: ne as u32,
        nproc: nproc as u32,
        method,
        seed,
        include_assignment,
    })
}

/// Parse and validate a `POST /v1/rebalance/step` body.
pub fn parse_rebalance_request(body: &[u8]) -> Result<RebalanceStepRequest, String> {
    let root = parse_body(body)?;
    if root.as_obj().is_none() {
        return Err("request body must be a JSON object".to_string());
    }
    let ne = require_u64(&root, "ne", 1, MAX_NE, None)?;
    let nproc = require_u64(&root, "nproc", 1, MAX_NPROC, None)?;
    let seed = require_u64(&root, "seed", 0, u64::MAX, Some(0))?;
    let weights = match root.get("weights") {
        None => Vec::new(),
        Some(v) => {
            let arr = v
                .as_arr()
                .ok_or_else(|| "field \"weights\" must be an array of numbers".to_string())?;
            let mut weights = Vec::with_capacity(arr.len());
            for (i, w) in arr.iter().enumerate() {
                let w = w
                    .as_f64()
                    .ok_or_else(|| format!("weights[{i}] is not a number"))?;
                if !w.is_finite() || w < 0.0 {
                    return Err(format!("weights[{i}] must be finite and non-negative"));
                }
                weights.push(w);
            }
            weights
        }
    };
    Ok(RebalanceStepRequest {
        ne: ne as u32,
        nproc: nproc as u32,
        seed,
        weights,
    })
}

/// A compact writer with the `cubesfc-serve-v1` envelope opened: every
/// response body starts `{"schema":"cubesfc-serve-v1",` and the caller
/// adds its members and closes the object.
pub fn body_writer(capacity: usize) -> JsonWriter {
    let mut w = JsonWriter::with_capacity(Layout::Compact, capacity);
    w.begin_object().field("schema", SERVE_SCHEMA);
    w
}

/// A body whose only member besides the schema tag is `"status"`.
pub fn status_body(status: &str) -> String {
    let mut w = body_writer(64);
    w.field("status", status).end_object().finish()
}

/// A `cubesfc-serve-v1` error body.
pub fn error_body(status: u16, message: &str) -> String {
    let mut w = body_writer(96 + message.len());
    w.key("error").begin_object().field("status", status);
    w.field("message", message)
        .end_object()
        .end_object()
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_request_round_trips() {
        let req = parse_partition_request(
            br#"{"ne": 16, "nproc": 8, "method": "kway", "seed": 3, "include_assignment": true}"#,
        )
        .unwrap();
        assert_eq!(req.ne, 16);
        assert_eq!(req.nproc, 8);
        assert_eq!(req.method, "kway");
        assert_eq!(req.seed, 3);
        assert!(req.include_assignment);
    }

    #[test]
    fn partition_request_defaults() {
        let req = parse_partition_request(br#"{"ne": 4, "nproc": 2}"#).unwrap();
        assert_eq!(req.method, "sfc");
        assert_eq!(req.seed, 0);
        assert!(!req.include_assignment);
    }

    #[test]
    fn partition_request_rejects_bad_inputs() {
        assert!(parse_partition_request(b"not json").is_err());
        assert!(parse_partition_request(b"[1,2,3]").is_err());
        assert!(parse_partition_request(br#"{"nproc": 2}"#).is_err());
        assert!(parse_partition_request(br#"{"ne": 0, "nproc": 2}"#).is_err());
        assert!(parse_partition_request(br#"{"ne": 99999, "nproc": 2}"#).is_err());
        assert!(parse_partition_request(br#"{"ne": 4, "nproc": 2, "method": 7}"#).is_err());
        let deep = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(parse_partition_request(deep.as_bytes()).is_err());
    }

    #[test]
    fn rebalance_request_parses_weights() {
        let req =
            parse_rebalance_request(br#"{"ne": 2, "nproc": 2, "weights": [1.0, 2.5, 3]}"#).unwrap();
        assert_eq!(req.weights, vec![1.0, 2.5, 3.0]);
        assert!(parse_rebalance_request(br#"{"ne": 2, "nproc": 2, "weights": [-1]}"#).is_err());
        assert!(parse_rebalance_request(br#"{"ne": 2, "nproc": 2, "weights": "x"}"#).is_err());
    }

    #[test]
    fn error_body_escapes_message() {
        let body = error_body(400, "bad \"field\"");
        assert!(body.contains("\\\"field\\\""));
        assert!(body.contains("\"status\":400"));
        assert!(body.contains(SERVE_SCHEMA));
    }
}
