//! The registry's versioned JSON-lines wire protocol (`S5xx` codes).
//!
//! Shape and framing mirror the serve protocol (DESIGN.md §13): one
//! newline-terminated JSON object per request and per response, with a
//! client-chosen correlation `id`:
//!
//! ```text
//! {"v":1,"id":3,"method":"register","params":{"node":"n1","addr":"10.0.0.7:7001",
//!  "epoch":4,"fingerprint":"00c0ffee","inflight":0,"ttl_ms":1500}}
//! {"v":1,"id":3,"ok":{"kind":"lease","generation":1,"ttl_ms":1500,"version":null}}
//! ```
//!
//! Unlike the strictly request/response serve wire, a registry
//! connection that has issued `subscribe` also receives unsolicited
//! **event lines** — push invalidations carrying no `id`:
//!
//! ```text
//! {"v":1,"event":{"kind":"invalidate","version":"fleet-v12"}}
//! ```
//!
//! Subscribers must therefore dispatch each incoming line on the
//! presence of `"event"` before treating it as a response; the
//! [`parse_event`] / [`parse_response`] pair makes that a two-probe
//! match. The full grammar is documented in DESIGN.md §16.
//!
//! Every method, reply and event is listed once, in the
//! [`wire_messages!`](crate::wire_messages) table below, which generates
//! the types and their JSON form; the envelope and each field type's
//! JSON form are in [`crate::wire`], shared with `xpdl-serve`.
//!
//! # Example
//!
//! ```
//! use xpdl_registry::protocol::{parse_request, Request, RegistryMethod};
//!
//! let req = Request { id: 3, method: RegistryMethod::Nodes };
//! assert_eq!(parse_request(&req.to_json()).unwrap(), req);
//! ```

use crate::ring::{parse_epoch_hex, RingInfo};
use crate::wire::{self, Dir, Envelope, Field, Obj, Raw};
use std::fmt;

/// The registry protocol version spoken by this build.
pub const PROTOCOL_VERSION: u64 = 1;

/// Stable error codes of the cluster/registry stage (`S5xx`), extending
/// the `P0xx`/`V1xx`/`E2xx`/`R3xx`/`S4xx` taxonomy. `S510` (node is
/// draining) is defined by the serve protocol — it is an error a *serve
/// node* returns, not the registry — but is listed in DESIGN.md §16
/// with the rest of the cluster codes.
pub mod codes {
    /// Request line is not valid registry-protocol JSON.
    pub const BAD_REQUEST: &str = "S500";
    /// Method name not part of this registry protocol version.
    pub const UNKNOWN_METHOD: &str = "S501";
    /// Method known, params missing or of the wrong type.
    pub const INVALID_PARAMS: &str = "S502";
    /// No live lease for the node (never registered, expired, or the
    /// registry restarted) — the node must re-register.
    pub const UNKNOWN_NODE: &str = "S503";
    /// Unsupported `"v"` field.
    pub const BAD_VERSION: &str = "S504";
    /// Request line exceeds the registry's size cap.
    pub const LINE_TOO_LONG: &str = "S505";
}

/// A structured registry error: stable `S5xx` code + message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegistryError {
    /// One of the [`codes`] constants.
    pub code: String,
    /// Human-readable detail.
    pub message: String,
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.code, self.message)
    }
}

impl std::error::Error for RegistryError {}

impl RegistryError {
    /// Build an error with an explicit code.
    pub fn new(code: &str, message: impl Into<String>) -> RegistryError {
        RegistryError { code: code.to_string(), message: message.into() }
    }

    /// The "re-register" signal sent to heartbeats without a live lease.
    pub fn unknown_node(node: &str) -> RegistryError {
        RegistryError::new(
            codes::UNKNOWN_NODE,
            format!("no live lease for node {node:?}; re-register"),
        )
    }
}

/// One registry request: correlation id + method with its parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: u64,
    /// What to do.
    pub method: RegistryMethod,
}

/// One registry response: echoed id + reply or structured error.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The request's correlation id (0 when the id was unreadable).
    pub id: u64,
    /// Outcome.
    pub result: Result<RegistryReply, RegistryError>,
}

impl Response {
    /// A success response.
    pub fn ok(id: u64, reply: RegistryReply) -> Response {
        Response { id, result: Ok(reply) }
    }

    /// An error response.
    pub fn err(id: u64, error: RegistryError) -> Response {
        Response { id, result: Err(error) }
    }
}

crate::wire_messages! {
    /// One live routing-table entry, as carried by the `nodes` reply.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct NodeEntry {
        /// Node identity.
        pub node: String,
        /// Address clients should connect to.
        pub addr: String,
        /// Snapshot epoch the node last reported.
        pub epoch: u64,
        /// Model fingerprint the node last reported.
        pub fingerprint: String,
        /// In-flight count the node last reported.
        pub inflight: u64,
        /// Lease generation (re-registrations increment it).
        pub generation: u64,
        /// Milliseconds since the lease was last renewed.
        pub age_ms: u64,
        /// The lease's granted TTL in milliseconds — `ttl_ms - age_ms` is
        /// the time left until the sweeper reaps it.
        pub ttl_ms: u64,
    }

    /// The `status` reply body: the operator's one-call cluster view.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub flat struct ClusterStatus {
        /// Live leases in node-id order (with deadlines via `ttl_ms`).
        pub nodes: Vec<NodeEntry>,
        /// The shard ring over that membership (`None` when empty).
        pub ring: Option<RingInfo>,
        /// The most recently announced model version, if any.
        pub version: Option<String>,
        /// Milliseconds since the registry started.
        pub uptime_ms: u64,
    }

    /// Every method of registry protocol version 1.
    #[derive(Debug, Clone, PartialEq)]
    pub enum RegistryMethod: Request {
        /// Liveness check.
        Ping "ping",
        /// Grant (or re-grant) a TTL lease for a serving node.
        Register "register" {
            /// The node's stable self-chosen identity.
            node: String,
            /// Address clients should connect to (`host:port`).
            addr: String,
            /// Snapshot epoch the node currently serves.
            epoch: u64,
            /// Model fingerprint (hex) the node currently serves.
            fingerprint: String,
            /// Requests in flight on the node right now.
            inflight: u64,
            /// Requested lease TTL in milliseconds.
            ttl_ms: u64,
        },
        /// Renew a lease and refresh the node's serving report.
        Heartbeat "heartbeat" {
            /// The node's identity.
            node: String,
            /// Snapshot epoch the node currently serves.
            epoch: u64,
            /// Model fingerprint (hex) the node currently serves.
            fingerprint: String,
            /// Requests in flight on the node right now.
            inflight: u64,
        },
        /// Drop a lease immediately (the node is draining).
        Deregister "deregister" {
            /// The node's identity.
            node: String,
        },
        /// The current routing table: all live leases.
        Nodes "nodes",
        /// Announce a new model version; pushed to every subscriber.
        Announce "announce" {
            /// Opaque version label (typically a model fingerprint).
            version: String,
        },
        /// Turn this connection into a push-invalidation subscriber.
        Subscribe "subscribe" {
            /// The subscribing node's identity (for logs/metrics).
            node: String,
        },
        /// Registry statistics.
        Stats "stats",
        /// Full cluster status: routing table with lease deadlines, the
        /// current shard ring, last announced version, uptime.
        Status "status",
    }

    /// The success payload of a registry response, tagged by `kind`.
    #[derive(Debug, Clone, PartialEq)]
    pub enum RegistryReply: Reply {
        /// `ping` succeeded.
        Pong "pong",
        /// `register` / `heartbeat` succeeded: the lease terms.
        Lease "lease" {
            /// Lease generation (restart detector).
            generation: u64,
            /// Granted TTL in milliseconds.
            ttl_ms: u64,
            /// The most recently announced model version, if any — lets a
            /// late-joining node catch up without waiting for a push.
            version: Option<String>,
            /// The current shard ring — lets the node recompute its shard
            /// set on every lease grant/renewal without a second round trip.
            ring: Option<RingInfo>,
        },
        /// `deregister` result.
        Deregistered "deregistered" {
            /// Whether the node held a lease to remove.
            removed: bool,
        },
        /// `nodes` result: the live routing table.
        Nodes "nodes" {
            /// Live leases in node-id order.
            nodes: Vec<NodeEntry>,
            /// The most recently announced model version, if any.
            version: Option<String>,
            /// The shard ring over that membership, so clients route
            /// shard-aware from the table they already fetch.
            ring: Option<RingInfo>,
        },
        /// `announce` result.
        Announced "announced" {
            /// Subscribers the invalidation was pushed to.
            subscribers: u64,
        },
        /// `subscribe` acknowledged; event lines follow on this connection.
        Subscribed "subscribed" {
            /// The most recently announced model version, if any.
            version: Option<String>,
        },
        /// `stats` result.
        Stats "stats" {
            /// Live leases right now.
            nodes: u64,
            /// Registrations granted since start.
            registers: u64,
            /// Heartbeats renewed since start.
            heartbeats: u64,
            /// Leases expired by the sweeper or lazy reaping since start.
            expirations: u64,
            /// Version announcements since start.
            announcements: u64,
            /// Milliseconds since the registry started.
            uptime_ms: u64,
        },
        /// `status` result.
        Status "status" (status: ClusterStatus),
    }

    /// An unsolicited push line sent to subscribed connections.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Event: Reply {
        /// A new model version was announced: reload now.
        Invalidate "invalidate" {
            /// The announced version label.
            version: String,
        },
        /// Cluster membership changed: this is the new shard ring. Every
        /// subscribed node recomputes its shard set and starts a rebalance.
        Ring "ring" {
            /// The ring over the new membership.
            ring: RingInfo,
        },
    }
}

/// Ring epochs are 64-bit hashes, but wire numbers are capped at 2^53 —
/// the epoch travels as a 16-digit hex string.
impl Field for RingInfo {
    fn write(&self, out: &mut String, k: &str) {
        wire::key(out, k);
        out.push('{');
        self.epoch_hex().write(out, "epoch");
        self.replication.write(out, "replication");
        self.vnodes.write(out, "vnodes");
        self.nodes.write(out, "nodes");
        out.push('}');
    }

    fn read(obj: &Obj<'_>, k: &str, dir: Dir) -> Result<RingInfo, String> {
        let r = obj.get(k).and_then(Raw::as_object).ok_or(format!("missing ring {k:?}"))?;
        let epoch = parse_epoch_hex(&String::read(&r, "epoch", dir)?)
            .ok_or("ring epoch is not 16-digit hex")?;
        let replication = u64::read(&r, "replication", dir)?;
        let vnodes = u64::read(&r, "vnodes", dir)?;
        Ok(RingInfo { epoch, replication, vnodes, nodes: Vec::read(&r, "nodes", dir)? })
    }
}

/// An optional ring is `null` when absent.
impl Field for Option<RingInfo> {
    fn write(&self, out: &mut String, k: &str) {
        match self {
            Some(ring) => ring.write(out, k),
            None => {
                wire::key(out, k);
                out.push_str("null");
            }
        }
    }

    fn read(obj: &Obj<'_>, k: &str, dir: Dir) -> Result<Option<RingInfo>, String> {
        match obj.get(k) {
            Some(v) if !v.is_null() => RingInfo::read(obj, k, dir).map(Some),
            _ => Ok(None),
        }
    }
}

const ENVELOPE: Envelope = Envelope {
    version: PROTOCOL_VERSION,
    name: "registry protocol",
    shard_key: false,
    bad_request: codes::BAD_REQUEST,
    unknown_method: codes::UNKNOWN_METHOD,
    invalid_params: codes::INVALID_PARAMS,
    bad_version: codes::BAD_VERSION,
};

impl Request {
    /// Serialize to one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        ENVELOPE.write_request(self.id, self.method.name(), None, |s| self.method.write_fields(s))
    }
}

impl Response {
    /// Serialize to one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        match &self.result {
            Ok(reply) => ENVELOPE.write_ok(self.id, reply.name(), |s| reply.write_fields(s)),
            Err(e) => ENVELOPE.write_error(self.id, &e.code, &e.message),
        }
    }
}

impl Event {
    /// Serialize to one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        ENVELOPE.write_event(self.name(), |s| self.write_fields(s))
    }
}

/// Parse one request line. On error, the recovered correlation id (if
/// any) rides along so the daemon can still address its error response.
pub fn parse_request(line: &str) -> Result<Request, (Option<u64>, RegistryError)> {
    ENVELOPE
        .parse_request(line, RegistryMethod::read_fields)
        .map(|p| Request { id: p.id, method: p.method })
        .map_err(|(id, code, message)| (id, RegistryError::new(code, message)))
}

/// Parse one response line (the client side of the wire).
pub fn parse_response(line: &str) -> Result<Response, String> {
    let (id, result) = ENVELOPE.parse_response(line, RegistryReply::read_fields)?;
    Ok(Response { id, result: result.map_err(|(code, message)| RegistryError { code, message }) })
}

/// Probe a line for an unsolicited push event. `Ok(None)` means the line
/// is not an event (likely a response — try [`parse_response`] next);
/// `Err` means it claimed to be an event but was malformed.
pub fn parse_event(line: &str) -> Result<Option<Event>, String> {
    ENVELOPE.parse_event(line, Event::read_fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        for method in [
            RegistryMethod::Ping,
            RegistryMethod::Nodes,
            RegistryMethod::Stats,
            RegistryMethod::Register {
                node: "n\"1\n".into(),
                addr: "127.0.0.1:7001".into(),
                epoch: 4,
                fingerprint: "00c0ffee".into(),
                inflight: 2,
                ttl_ms: 1500,
            },
            RegistryMethod::Heartbeat {
                node: "n1".into(),
                epoch: 5,
                fingerprint: "cafe".into(),
                inflight: 0,
            },
            RegistryMethod::Deregister { node: "n1".into() },
            RegistryMethod::Announce { version: "fleet-v12".into() },
            RegistryMethod::Subscribe { node: "n2".into() },
            RegistryMethod::Status,
        ] {
            let req = Request { id: 7, method };
            assert_eq!(parse_request(&req.to_json()).unwrap(), req);
        }
    }

    fn sample_entry() -> NodeEntry {
        NodeEntry {
            node: "n1".into(),
            addr: "127.0.0.1:7001".into(),
            epoch: 9,
            fingerprint: "beef".into(),
            inflight: 1,
            generation: 2,
            age_ms: 120,
            ttl_ms: 1500,
        }
    }

    fn sample_ring() -> RingInfo {
        RingInfo::compute(&["n1".to_string(), "n2".to_string()], 2, 32)
    }

    #[test]
    fn response_roundtrip() {
        for reply in [
            RegistryReply::Pong,
            RegistryReply::Lease { generation: 3, ttl_ms: 1500, version: None, ring: None },
            RegistryReply::Lease {
                generation: 1,
                ttl_ms: 500,
                version: Some("v2".into()),
                ring: Some(sample_ring()),
            },
            RegistryReply::Deregistered { removed: true },
            RegistryReply::Nodes { nodes: vec![], version: None, ring: None },
            RegistryReply::Nodes {
                nodes: vec![sample_entry()],
                version: Some("fleet-v12".into()),
                ring: Some(sample_ring()),
            },
            RegistryReply::Announced { subscribers: 3 },
            RegistryReply::Subscribed { version: Some("v1".into()) },
            RegistryReply::Stats {
                nodes: 3,
                registers: 5,
                heartbeats: 40,
                expirations: 2,
                announcements: 1,
                uptime_ms: 9000,
            },
            RegistryReply::Status(ClusterStatus {
                nodes: vec![sample_entry()],
                ring: Some(sample_ring()),
                version: None,
                uptime_ms: 42,
            }),
        ] {
            let resp = Response::ok(9, reply);
            assert_eq!(parse_response(&resp.to_json()).unwrap(), resp);
        }
        let err = Response::err(0, RegistryError::unknown_node("n9"));
        assert_eq!(parse_response(&err.to_json()).unwrap(), err);
    }

    #[test]
    fn event_roundtrip_and_response_probe() {
        let ev = Event::Invalidate { version: "fleet \"v12\"".into() };
        assert_eq!(parse_event(&ev.to_json()).unwrap(), Some(ev));
        let ev = Event::Ring { ring: sample_ring() };
        assert_eq!(parse_event(&ev.to_json()).unwrap(), Some(ev));
        // A response line probes as "not an event", never as an error.
        let resp = Response::ok(1, RegistryReply::Pong).to_json();
        assert_eq!(parse_event(&resp).unwrap(), None);
    }

    #[test]
    fn ring_epoch_survives_the_wire_unclamped() {
        // A full 64-bit epoch (> 2^53) must round-trip exactly — this is
        // why the epoch travels as hex, not a JSON number.
        let mut ring = sample_ring();
        ring.epoch = u64::MAX - 3;
        let resp =
            Response::ok(1, RegistryReply::Lease { generation: 1, ttl_ms: 100, version: None, ring: Some(ring.clone()) });
        match parse_response(&resp.to_json()).unwrap().result.unwrap() {
            RegistryReply::Lease { ring: Some(parsed), .. } => assert_eq!(parsed.epoch, u64::MAX - 3),
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn bad_version_and_unknown_method_rejected() {
        let (id, e) = parse_request("{\"v\":2,\"id\":4,\"method\":\"ping\"}").unwrap_err();
        assert_eq!(id, Some(4));
        assert_eq!(e.code, codes::BAD_VERSION);
        let (id, e) = parse_request("{\"v\":1,\"id\":1,\"method\":\"frobnicate\"}").unwrap_err();
        assert_eq!(id, Some(1));
        assert_eq!(e.code, codes::UNKNOWN_METHOD);
        let (_, e) = parse_request("{\"v\":1,\"id\":1,\"method\":\"register\"}").unwrap_err();
        assert_eq!(e.code, codes::INVALID_PARAMS);
        let (id, e) = parse_request("garbage").unwrap_err();
        assert_eq!(id, None);
        assert_eq!(e.code, codes::BAD_REQUEST);
    }
}
