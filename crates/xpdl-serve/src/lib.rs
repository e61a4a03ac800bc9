//! xpdl-serve: a concurrent model-serving daemon for compiled XPDL models.
//!
//! This crate turns a compiled [`RuntimeModel`](xpdl_runtime::RuntimeModel)
//! into a network service: a multi-threaded TCP daemon speaking a
//! versioned JSON-lines protocol that exposes the full XPDLRT query
//! surface (`find`, `get_attr`, `elements_of_kind`, `num_cores`, the
//! energy estimators) plus serving-specific methods (`stats`, `reload`,
//! `shutdown`). See DESIGN.md §13 for the protocol grammar and the
//! failure-mode table.
//!
//! Architecture, bottom-up:
//!
//! - [`protocol`] — wire types: [`Request`]/[`Response`], the `S4xx`
//!   serving error codes, parser and serializers over the vendored JSON
//!   module (no serde).
//! - [`codec`] — the negotiated binary fast path: length-prefixed
//!   `[u32 len][u8 method][payload]` frames with per-connection interned
//!   string ids, entered by a `hello` handshake and falling back to
//!   JSON-lines in both directions (spec: `docs/WIRE.md`).
//! - [`snapshot`] — the epoch-based [`SnapshotRegistry`]: readers clone
//!   the current `Arc` snapshot and never wait on a reload's compile;
//!   the reload path compiles off to the side and swaps one pointer.
//! - [`stats`] — lock-free counters, a latency ring with on-demand
//!   percentiles, and the RAII [`InflightPermit`] admission gate.
//! - [`engine`] — the socket-free core: [`ModelSource`] (file, repository
//!   key, or in-memory), hot [`Engine::reload`] with content
//!   fingerprinting, and [`Engine::handle`] dispatching every protocol
//!   method. `xpdlc query` drives this directly; the daemon wraps it.
//! - [`server`] — the TCP layer: accept loop, one reader thread per
//!   connection that executes cheap methods inline in either encoding,
//!   a bounded worker pool for `sleep`/`reload`/`shutdown`, admission
//!   control before execution (`S420`), queue deadlines for pool
//!   methods (`S421`), and SIGTERM-driven clean shutdown.
//! - [`cluster`] — the fleet-aware client: routing table from
//!   `xpdl-registry`, per-request timeouts, automatic failover on
//!   connection errors and `S5xx`, and degradation to a local fallback
//!   engine when the whole cluster is unreachable (DESIGN.md §16).
//!
//! Observability: every request is wrapped in a `serve.request` tracing
//! span, queue wait and handler time are recorded into histograms, and
//! all counters register with the process-wide
//! `xpdl_obs::MetricsRegistry` — queryable over the
//! wire via the `metrics` method. See DESIGN.md §14.

#![deny(missing_docs)]

pub mod cluster;
pub mod codec;
pub mod engine;
pub mod protocol;
pub mod server;
pub mod shard;
pub mod snapshot;
pub mod stats;

pub use cluster::{ClusterClient, ClusterError, ClusterOptions, Route, Routed};
pub use codec::Encoding;
pub use engine::{Engine, EngineOptions, ModelSource};
pub use shard::{Rebalancer, ShardCompileFn, ShardManager};
pub use protocol::{
    codes, parse_request, parse_response, Method, Reply, Request, Response, ServeError,
    PROTOCOL_VERSION,
};
pub use server::{install_termination_handler, spawn_reload_thread, Server, ServerOptions};
pub use snapshot::{ServeSnapshot, SnapshotRegistry};
pub use stats::{InflightPermit, ServeStats, StatsSnapshot};
