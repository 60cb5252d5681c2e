//! Partitioning-as-a-service: the `cubesfc-serve-v1` HTTP subsystem.
//!
//! This crate implements the *service mechanics* — a zero-dependency
//! HTTP/1.1 front end with a fixed worker pool, bounded result cache,
//! in-flight request coalescing, admission control, per-request
//! deadlines, and graceful drain — while staying completely agnostic of
//! how a partition is actually computed. The embedding crate supplies a
//! [`Backend`]; `cubesfc` wires its experiment engine in and re-exports
//! this crate as `cubesfc::serve`, which is also why this crate must
//! not depend on the core (the dependency points the other way).
//!
//! Layering, bottom to top:
//!
//! - [`http`] — request/response wire format with hostile-input caps
//! - [`queue`] — bounded admission queue with close-and-drain semantics
//! - [`lru`] — bounded LRU result cache
//! - [`coalesce`] — single-flight table for identical concurrent work
//! - [`api`] — `cubesfc-serve-v1` request parsing and validation
//! - [`server`] — the accept loop, worker pool, and routing
//! - [`client`] — a minimal blocking HTTP client for tests and the
//!   load generator

#![warn(missing_docs)]

pub mod api;
pub mod client;
pub mod coalesce;
pub mod http;
pub mod lru;
pub mod queue;
pub mod server;

pub use api::{
    body_writer, error_body, parse_partition_request, parse_rebalance_request, status_body,
    PartitionRequest, RebalanceStepRequest, SERVE_SCHEMA,
};
pub use client::{
    request as http_request, request_with_headers as http_request_with_headers, ClientResponse,
};
pub use coalesce::{Coalescer, Outcome};
pub use lru::LruCache;
pub use queue::{BoundedQueue, PushError};
pub use server::{DrainStats, ServeConfig, Server, ServerHandle};

/// Why a backend refused or failed a request.
///
/// Cloneable so a single failure can fan out to every coalesced
/// follower of the same flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendError {
    /// The request was semantically invalid (e.g. `nproc` exceeds the
    /// element count); maps to HTTP 400.
    BadRequest(String),
    /// The computation failed; maps to HTTP 500.
    Internal(String),
}

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendError::BadRequest(m) => write!(f, "bad request: {m}"),
            BackendError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

/// The computation the service fronts. Implemented by the core engine
/// (`cubesfc::service::EngineBackend`) and by mocks in tests.
///
/// Implementations return the *response body JSON* directly (stamped
/// with [`SERVE_SCHEMA`]); the server owns status codes, caching, and
/// headers. Bodies must be deterministic functions of the request so
/// that cached and coalesced replies are indistinguishable from
/// computed ones.
pub trait Backend: Send + Sync {
    /// Compute a partition for `req`, returning the response body.
    fn partition(&self, req: &PartitionRequest) -> Result<String, BackendError>;
    /// Run one incremental rebalance step for `req`.
    fn rebalance_step(&self, req: &RebalanceStepRequest) -> Result<String, BackendError>;
}
