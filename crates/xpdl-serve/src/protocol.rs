//! The versioned JSON-lines request/response protocol.
//!
//! One request per line, one response per line, both newline-terminated
//! JSON objects. Requests carry the protocol version, a client-chosen
//! correlation `id` (responses to pipelined requests may arrive out of
//! order), a method name, and a `params` object:
//!
//! ```text
//! {"v":1,"id":7,"method":"get_attr","params":{"ident":"gpu1","attr":"type"}}
//! ```
//!
//! Responses echo the id and carry exactly one of `ok` (a tagged reply
//! object) or `error` (a stable `S4xx` code plus message):
//!
//! ```text
//! {"v":1,"id":7,"ok":{"kind":"attr","value":"Nvidia_K20c"}}
//! {"v":1,"id":8,"error":{"code":"S411","message":"unknown method 'frobnicate'"}}
//! ```
//!
//! The full grammar is documented in DESIGN.md §13. Everything here is
//! pure data: [`Request`]/[`Response`] round-trip through
//! [`Request::to_json`]/[`parse_request`] and
//! [`Response::to_json`]/[`parse_response`] (property-tested), and the
//! same types are used by the daemon, the offline `xpdlc query` path and
//! the bench client — so every protocol method is exercisable without a
//! socket.
//!
//! Every method and reply is listed once, in the `serve_messages!`
//! table below: its variant, frozen binary frame code, wire name and
//! typed fields. The table is expanded twice — here by
//! [`xpdl_registry::wire_messages!`], which generates [`Method`],
//! [`Reply`], the records they carry and their JSON fields (the envelope
//! and each field kind's JSON form live in [`xpdl_registry::wire`],
//! shared with the registry daemon), and in [`codec`](crate::codec),
//! which generates the binary encoder, decoder and code tables. The
//! error codes are listed once as well, in `error_codes!`.
//!
//! # Example
//!
//! ```
//! use xpdl_serve::{parse_request, parse_response, Method, Reply, Request, Response};
//!
//! let req = Request::new(7, Method::GetAttr { ident: "gpu1".into(), attr: "type".into() });
//! assert_eq!(parse_request(&req.to_json()).unwrap(), req);
//!
//! let resp = Response::ok(7, Reply::Attr(Some("Nvidia_K20c".into())));
//! assert_eq!(parse_response(&resp.to_json()).unwrap(), resp);
//! ```
//!
//! # Hello negotiation
//!
//! JSON-lines is only the *default* encoding. A client may open with a
//! `hello` listing the encodings it speaks, most preferred first; the
//! server answers with the one it picked (in the pre-switch encoding) and
//! the connection then switches. `hello` must be the first request on the
//! connection; old servers answer it with `S411` and the client simply
//! stays on JSON-lines. The binary framing itself lives in
//! [`codec`](crate::codec) and is specified in `docs/WIRE.md`.
//!
//! ```
//! use xpdl_serve::codec::{negotiate, Encoding};
//! use xpdl_serve::{parse_request, parse_response, Method, Reply, Request, Response};
//!
//! // Client → server, as the first line on the connection:
//! let hello = Request::new(0, Method::Hello {
//!     encodings: vec!["binary".into(), "json".into()],
//! });
//! assert_eq!(
//!     hello.to_json(),
//!     r#"{"v":1,"id":0,"method":"hello","params":{"encodings":["binary","json"]}}"#,
//! );
//!
//! // Server side: pick the first mutually supported encoding.
//! let Method::Hello { encodings } = &parse_request(&hello.to_json()).unwrap().method else {
//!     unreachable!()
//! };
//! let chosen = negotiate(encodings).unwrap();
//! assert_eq!(chosen, Encoding::Binary);
//!
//! // Server → client, still on the old encoding; frames after this one
//! // are binary.
//! let ack = Response::ok(0, Reply::Hello { encoding: chosen.name().into() });
//! assert_eq!(ack.to_json(), r#"{"v":1,"id":0,"ok":{"kind":"hello","encoding":"binary"}}"#);
//!
//! // A client offering nothing the server speaks gets no switch.
//! assert_eq!(negotiate(&["msgpack".to_string()]), None);
//! ```

use crate::stats::StatsSnapshot;
use std::fmt;
use xpdl_obs::MetricsSnapshot;
use xpdl_registry::wire::Envelope;
use xpdl_registry::wire_messages;

/// The protocol version spoken by this build. Requests with any other
/// `"v"` are rejected with [`codes::BAD_VERSION`].
pub const PROTOCOL_VERSION: u64 = 1;

/// Generates [`codes`] and the `(code, name)` table `docs/WIRE.md` §7
/// mirrors, from one list.
macro_rules! error_codes {
    ($( $(#[$doc:meta])* $name:ident = $code:literal, )*) => {
        /// Stable error codes of the serving stage (`S4xx`), following the
        /// `P0xx`/`V1xx`/`E2xx`/`R3xx` taxonomy of the rest of the toolchain.
        pub mod codes {
            $( $(#[$doc])* pub const $name: &str = $code; )*
        }

        /// Every error code with its name, in declaration order.
        pub(crate) const ERROR_CODE_TABLE: &[(&str, &str)] = &[$( ($code, stringify!($name)), )*];
    };
}

error_codes! {
    /// Model file unreadable (I/O).
    MODEL_IO = "S400",
    /// Model file read but undecodable (carries the exact decode fault).
    MODEL_DECODE = "S401",
    /// Repository compile (resolve + elaborate) failed.
    COMPILE_FAILED = "S402",
    /// Request line is not valid protocol JSON.
    BAD_REQUEST = "S410",
    /// Method name not part of this protocol version.
    UNKNOWN_METHOD = "S411",
    /// Method known, params missing or of the wrong type.
    INVALID_PARAMS = "S412",
    /// Unsupported `"v"` field.
    BAD_VERSION = "S413",
    /// Request line exceeds the server's size cap.
    LINE_TOO_LONG = "S414",
    /// Malformed binary frame (truncated, trailing bytes, bad string
    /// ref, unknown method code). Framing is lost after this, so the
    /// server sends the error and closes the connection.
    BAD_FRAME = "S415",
    /// Load shed: the admission controller refused the request.
    OVERLOADED = "S420",
    /// The request sat in the queue past its deadline.
    DEADLINE_EXCEEDED = "S421",
    /// The server is draining for shutdown.
    SHUTTING_DOWN = "S422",
    /// Debug-only method (`sleep`) on a server without `allow_debug`.
    DEBUG_DISABLED = "S430",
    /// Remote `shutdown` on a server without `allow_remote_shutdown`.
    SHUTDOWN_DISABLED = "S431",
    /// A requested hot reload failed; the old snapshot stays live.
    RELOAD_FAILED = "S440",
    /// The node is draining (deregistered, finishing in-flight work):
    /// queries are refused so cluster clients fail over to a live node.
    /// `S51x` is the cluster-visible range — `ClusterClient` treats any
    /// `S5`-prefixed code as "try the next node".
    DRAINING = "S510",
    /// Sharded request for a model key this node does not own under the
    /// current ring. The message carries a routing hint (the owner node
    /// ids); being `S5`-prefixed, clients fail over to the next replica.
    NOT_OWNER = "S511",
}

/// A structured protocol error: stable code + human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeError {
    /// One of the [`codes`] constants.
    pub code: String,
    /// Human-readable detail.
    pub message: String,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.code, self.message)
    }
}

impl std::error::Error for ServeError {}

impl ServeError {
    /// Build an error with an explicit code.
    pub fn new(code: &str, message: impl Into<String>) -> ServeError {
        ServeError { code: code.to_string(), message: message.into() }
    }

    /// Convert into a toolchain diagnostic (for server-side logs).
    pub fn to_diagnostic(&self, path: &str) -> xpdl_core::Diagnostic {
        xpdl_core::Diagnostic::error(path, self.message.clone()).with_code(self.code.clone())
    }

    pub(crate) fn bad_frame(detail: impl fmt::Display) -> ServeError {
        ServeError::new(codes::BAD_FRAME, format!("malformed frame: {detail}"))
    }

    pub(crate) fn invalid_params(detail: impl fmt::Display) -> ServeError {
        ServeError::new(codes::INVALID_PARAMS, format!("invalid params: {detail}"))
    }

    pub(crate) fn overloaded(inflight: usize, max: usize) -> ServeError {
        ServeError::new(
            codes::OVERLOADED,
            format!("overloaded: {inflight} requests in flight (max {max}); retry later"),
        )
    }
}

/// One request: correlation id + method with its parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: u64,
    /// What to do.
    pub method: Method,
    /// The model key this query addresses, for sharded fleets (wire
    /// field `"shard"`). A sharded node answers from that key's snapshot
    /// — or `S511 NOT_OWNER` if the ring assigns the key elsewhere.
    /// `None` (the default) queries the node's own primary model.
    pub shard_key: Option<String>,
}

impl Request {
    /// A request against the node's primary model (no shard key).
    pub fn new(id: u64, method: Method) -> Request {
        Request { id, method, shard_key: None }
    }

    /// A request addressed to a sharded model key.
    pub fn for_shard(id: u64, method: Method, key: impl Into<String>) -> Request {
        Request { id, method, shard_key: Some(key.into()) }
    }
}

/// One response: echoed id + reply or structured error.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The request's correlation id (0 when the id was unreadable).
    pub id: u64,
    /// Outcome.
    pub result: Result<Reply, ServeError>,
}

impl Response {
    /// A success response.
    pub fn ok(id: u64, reply: Reply) -> Response {
        Response { id, result: Ok(reply) }
    }

    /// An error response.
    pub fn err(id: u64, error: ServeError) -> Response {
        Response { id, result: Err(error) }
    }
}

/// The serve message table, handed to the macro `$expand` (see the
/// module docs). Field types must be in scope wherever it is expanded.
macro_rules! serve_messages {
    ($expand:ident) => {
        $expand! {
            /// A found element, as returned by `find`.
            #[derive(Debug, Clone, PartialEq, Eq)]
            pub struct NodeInfo {
                /// Element kind/tag.
                pub kind: String,
                /// Identifier, if the element has one.
                pub ident: Option<String>,
                /// `type=` reference, if any.
                pub type_ref: Option<String> = "type",
                /// All attributes in document order.
                pub attrs: Vec<(String, String)>,
            }

            /// A transfer estimate, as returned by `estimate_transfer`.
            #[derive(Debug, Clone, PartialEq)]
            pub flat struct TransferInfo {
                /// Expected time, seconds.
                pub time_s: f64,
                /// Expected energy, joules.
                pub energy_j: f64,
                /// Bandwidth used for the estimate, bytes/second.
                pub bandwidth_bps: f64,
            }

            /// An accelerator-use estimate.
            #[derive(Debug, Clone, PartialEq)]
            pub flat struct AccelInfo {
                /// Total expected time, seconds.
                pub time_s: f64,
                /// Total expected energy, joules.
                pub energy_j: f64,
            }

            /// Every method of protocol version 1 — the full XPDLRT query surface
            /// plus server control.
            #[derive(Debug, Clone, PartialEq)]
            pub enum Method: Request {
                /// Liveness check.
                Ping = 0x01 "ping",
                /// Serving health: epoch, model fingerprint, in-flight count,
                /// draining flag. Cheaper than `stats` (no ring scan) and richer
                /// than inferring liveness from connect success — the registry and
                /// bench harness probe this.
                Health = 0x02 "health",
                /// Snapshot metadata: epoch, node count, source, fingerprint.
                ModelInfo = 0x03 "model_info",
                /// `xpdl_find`: look up an element by identifier.
                Find = 0x04 "find" {
                    /// Element identifier (`id=`/`name=`).
                    ident: String,
                },
                /// `xpdl_get_attr`: string attribute of a named element.
                GetAttr = 0x05 "get_attr" {
                    /// Element identifier.
                    ident: String,
                    /// Attribute key.
                    attr: String,
                },
                /// `xpdl_get_number`: numeric attribute of a named element.
                GetNumber = 0x06 "get_number" {
                    /// Element identifier.
                    ident: String,
                    /// Attribute key.
                    attr: String,
                },
                /// All elements of a kind (idents of the named ones + total count).
                ElementsOfKind = 0x07 "elements_of_kind" {
                    /// Element kind/tag.
                    kind: String,
                },
                /// Derived attribute: total core count.
                NumCores = 0x08 "num_cores",
                /// Derived attribute: CUDA-capable device count.
                NumCudaDevices = 0x09 "num_cuda_devices",
                /// Derived attribute: total in-line static power, watts.
                TotalStaticPower = 0x0a "total_static_power",
                /// Whether software whose type starts with `prefix` is installed.
                HasInstalled = 0x0b "has_installed" {
                    /// Type prefix to match (e.g. `CUBLAS`).
                    prefix: String,
                },
                /// Expected time/energy to move `bytes` over interconnect `link`.
                EstimateTransfer = 0x0c "estimate_transfer" {
                    /// Interconnect identifier.
                    link: String,
                    /// Payload size in bytes.
                    bytes: u64,
                },
                /// Expected cost of using the accelerator behind `link`.
                EstimateAcceleratorUse = 0x0d "estimate_accelerator_use" {
                    /// Interconnect identifier whose `tail` is the accelerator.
                    link: String,
                    /// Bytes shipped to the accelerator.
                    upload_bytes: u64,
                    /// Bytes shipped back.
                    download_bytes: u64,
                    /// Compute phase duration, seconds.
                    compute_s: f64,
                    /// Dynamic power drawn while computing, watts.
                    dynamic_power_w: f64,
                },
                /// Platform static energy over a duration, joules.
                EstimateStaticEnergy = 0x0e "estimate_static_energy" {
                    /// Duration, seconds.
                    duration_s: f64,
                },
                /// Server statistics (qps, latency percentiles, epoch, counters).
                Stats = 0x0f "stats",
                /// Full unified metrics-registry snapshot: every counter, gauge and
                /// histogram registered anywhere in the process (repository, disk
                /// cache, serving layer), aggregated by name.
                Metrics = 0x10 "metrics",
                /// Force a hot reload from the model source.
                Reload = 0x11 "reload",
                /// Ask the server to drain and exit (if enabled).
                Shutdown = 0x12 "shutdown",
                /// Debug-only: hold the connection for `ms` milliseconds
                /// (backpressure testing; rejected unless the server enables
                /// debug methods).
                Sleep = 0x13 "sleep" {
                    /// How long to sleep.
                    ms: u64,
                },
                /// This node's shard view: ring epoch, keys loaded and owned, keys
                /// still served during handoff. Peers poll this to ack ownership
                /// before a predecessor drops a shard.
                Shards = 0x14 "shards",
                /// Encoding negotiation. Must be the **first** request on a
                /// connection (`S412` otherwise): the client lists the wire encodings
                /// it speaks in preference order, the server answers
                /// [`Reply::Hello`] with the one it picked, and the connection
                /// switches to that encoding for every subsequent frame. A client
                /// that never sends `hello` stays on JSON-lines; a server that does
                /// not know the method answers `S411` and the client falls back to
                /// JSON-lines — both directions stay compatible. See `docs/WIRE.md`.
                Hello = 0x15 "hello" {
                    /// Encoding names the client supports, most preferred first
                    /// (`"binary"`, `"json"`).
                    encodings: Vec<String>,
                },
            }

            /// The success payload of a response, tagged by `kind` on the wire.
            #[derive(Debug, Clone, PartialEq)]
            pub enum Reply: Reply {
                /// `ping` succeeded.
                Pong = 0x01 "pong",
                /// `health` result: the node's liveness card.
                Health = 0x02 "health" {
                    /// Snapshot epoch currently served.
                    epoch: u64,
                    /// FNV-1a fingerprint of the served model, hex.
                    fingerprint: String,
                    /// Requests admitted and not yet answered.
                    inflight: u64,
                    /// Whether the node is draining (queries answer `S510`).
                    draining: bool,
                },
                /// Snapshot metadata.
                ModelInfo = 0x03 "model_info" {
                    /// Snapshot epoch (increments on every hot reload that swaps).
                    epoch: u64,
                    /// Node count of the runtime model.
                    nodes: u64,
                    /// Root element kind.
                    root_kind: String,
                    /// Root element identifier.
                    root_ident: Option<String>,
                    /// Human-readable model source description.
                    source: String,
                    /// FNV-1a fingerprint of the encoded model, hex.
                    fingerprint: String,
                },
                /// `find` result (`found: false` mirrors the paper's NULL).
                Node = 0x04 "node" (node: Option<NodeInfo>),
                /// `get_attr` result.
                Attr = 0x05 "attr" (value: Option<String>),
                /// `get_number` result.
                Number = 0x06 "number" (value: Option<f64>),
                /// `elements_of_kind` result.
                Idents = 0x07 "idents" {
                    /// Identifiers of the named matches, document order.
                    idents: Vec<String>,
                    /// Total matches including anonymous elements.
                    count: u64,
                },
                /// `num_cores` / `num_cuda_devices` result.
                Count = 0x08 "count" (value: u64),
                /// `total_static_power` result, watts.
                Power = 0x09 "power" (watts: f64),
                /// `has_installed` result.
                Flag = 0x0a "flag" (value: bool),
                /// `estimate_transfer` result (`None`: no such link / no bandwidth).
                Transfer = 0x0b "transfer" (estimate: Option<TransferInfo>),
                /// `estimate_accelerator_use` result.
                Accelerator = 0x0c "accelerator" (estimate: Option<AccelInfo>),
                /// `estimate_static_energy` result, joules.
                Energy = 0x0d "energy" (joules: f64),
                /// `stats` result.
                Stats = 0x0e "stats" (stats: StatsSnapshot),
                /// `metrics` result: the process-wide registry snapshot.
                Metrics = 0x0f "metrics" (metrics: MetricsSnapshot),
                /// `reload` result: the epoch now current, and whether it swapped.
                Reloaded = 0x10 "reloaded" {
                    /// Epoch after the reload.
                    epoch: u64,
                    /// `true` if a new snapshot was installed (content changed).
                    changed: bool,
                },
                /// `shutdown` acknowledged; the server drains after responding.
                ShuttingDown = 0x11 "shutting_down",
                /// `sleep` completed (debug builds of the protocol only).
                Slept = 0x12 "slept" {
                    /// How long the connection was held.
                    ms: u64,
                },
                /// `shards` result: this node's shard view.
                Shards = 0x13 "shards" {
                    /// Whether sharding is enabled on this node at all.
                    enabled: bool,
                    /// Ring epoch the node last applied, as 16-digit hex (`None`
                    /// before the first ring arrives).
                    ring_epoch: Option<String>,
                    /// Keys loaded and owned under the current ring (sorted).
                    owned: Vec<String>,
                    /// Keys no longer owned but still served pending successor
                    /// acknowledgement (sorted).
                    handoff: Vec<String>,
                },
                /// `hello` result: the encoding the server picked. The acknowledgement
                /// itself is sent in the connection's *current* encoding; every frame
                /// after it uses the chosen one.
                Hello = 0x14 "hello" {
                    /// The negotiated encoding name (`"binary"` or `"json"`).
                    encoding: String,
                },
            }
        }
    };
}
pub(crate) use serve_messages;

serve_messages!(wire_messages);

const ENVELOPE: Envelope = Envelope {
    version: PROTOCOL_VERSION,
    name: "protocol",
    shard_key: true,
    bad_request: codes::BAD_REQUEST,
    unknown_method: codes::UNKNOWN_METHOD,
    invalid_params: codes::INVALID_PARAMS,
    bad_version: codes::BAD_VERSION,
};

impl Request {
    /// Serialize to one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let method = &self.method;
        ENVELOPE.write_request(self.id, method.name(), self.shard_key.as_deref(), |s| {
            method.write_fields(s)
        })
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

/// Parse one request line. On error, the recovered correlation id (if
/// any) rides along so the server can still address its error response.
pub fn parse_request(line: &str) -> Result<Request, (Option<u64>, ServeError)> {
    ENVELOPE
        .parse_request(line, Method::read_fields)
        .map(|p| Request { id: p.id, method: p.method, shard_key: p.shard })
        .map_err(|(id, code, message)| (id, ServeError::new(code, message)))
}

/// Parse one response line (the client side of the wire).
pub fn parse_response(line: &str) -> Result<Response, String> {
    let (id, result) = ENVELOPE.parse_response(line, Reply::read_fields)?;
    Ok(Response { id, result: result.map_err(|(code, message)| ServeError { code, message }) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpdl_obs::HistogramSnapshot;

    #[test]
    fn request_roundtrip_simple() {
        for method in [
            Method::Ping,
            Method::Health,
            Method::NumCores,
            Method::Stats,
            Method::Metrics,
            Method::Reload,
            Method::Shutdown,
            Method::Find { ident: "gpu\"1\n".into() },
            Method::GetAttr { ident: "a".into(), attr: "b".into() },
            Method::EstimateTransfer { link: "l".into(), bytes: 1 << 52 },
            Method::EstimateStaticEnergy { duration_s: 1.5e-3 },
            Method::Sleep { ms: 25 },
            Method::Shards,
        ] {
            let req = Request::new(7, method);
            let parsed = parse_request(&req.to_json()).unwrap();
            assert_eq!(parsed, req);
        }
    }

    #[test]
    fn shard_key_rides_along_and_rejects_non_strings() {
        let req = Request::for_shard(9, Method::NumCores, "fleet/gpu\"7");
        let line = req.to_json();
        assert!(line.contains("\"shard\":"));
        assert_eq!(parse_request(&line).unwrap(), req);
        // Absent and null both mean "primary model".
        let bare = parse_request("{\"v\":1,\"id\":1,\"method\":\"ping\"}").unwrap();
        assert_eq!(bare.shard_key, None);
        let null =
            parse_request("{\"v\":1,\"id\":1,\"method\":\"ping\",\"shard\":null}").unwrap();
        assert_eq!(null.shard_key, None);
        let (id, e) =
            parse_request("{\"v\":1,\"id\":3,\"method\":\"ping\",\"shard\":42}").unwrap_err();
        assert_eq!(id, Some(3));
        assert_eq!(e.code, codes::BAD_REQUEST);
    }

    #[test]
    fn shards_reply_roundtrips() {
        for reply in [
            Reply::Shards {
                enabled: false,
                ring_epoch: None,
                owned: vec![],
                handoff: vec![],
            },
            Reply::Shards {
                enabled: true,
                ring_epoch: Some("00deadbeef00f00d".into()),
                owned: vec!["edge".into(), "hpc\"x".into()],
                handoff: vec!["mobile".into()],
            },
        ] {
            let resp = Response::ok(4, reply);
            assert_eq!(parse_response(&resp.to_json()).unwrap(), resp);
        }
    }

    #[test]
    fn response_roundtrip_simple() {
        for reply in [
            Reply::Pong,
            Reply::Health {
                epoch: 5,
                fingerprint: "00c0ffee".into(),
                inflight: 3,
                draining: true,
            },
            Reply::Attr(None),
            Reply::Attr(Some("K20c".into())),
            Reply::Number(Some(2.5)),
            Reply::Number(None),
            Reply::Count(2500),
            Reply::Flag(true),
            Reply::Flag(false),
            Reply::Reloaded { epoch: 3, changed: false },
            Reply::Node(Some(NodeInfo {
                kind: "device".into(),
                ident: Some("gpu1".into()),
                type_ref: None,
                attrs: vec![("a".into(), "b\"c".into())],
            })),
        ] {
            let resp = Response::ok(9, reply);
            assert_eq!(parse_response(&resp.to_json()).unwrap(), resp);
        }
        let err = Response::err(0, ServeError::new(codes::OVERLOADED, "busy"));
        assert_eq!(parse_response(&err.to_json()).unwrap(), err);
    }

    #[test]
    fn metrics_reply_roundtrips() {
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("serve.requests".into(), 41);
        snap.counters.insert("repo.cache.hits".into(), 7);
        snap.gauges.insert("serve.inflight".into(), 3);
        snap.histograms.insert(
            "serve.handler.time_us".into(),
            HistogramSnapshot { count: 5, sum: 900, buckets: vec![(6, 2), (8, 3)] },
        );
        let resp = Response::ok(11, Reply::Metrics(snap));
        assert_eq!(parse_response(&resp.to_json()).unwrap(), resp);

        // An empty registry still round-trips (all three maps empty).
        let empty = Response::ok(12, Reply::Metrics(MetricsSnapshot::default()));
        assert_eq!(parse_response(&empty.to_json()).unwrap(), empty);
    }

    #[test]
    fn bad_version_and_bad_json_rejected() {
        let (id, e) = parse_request("{\"v\":2,\"id\":4,\"method\":\"ping\"}").unwrap_err();
        assert_eq!(id, Some(4));
        assert_eq!(e.code, codes::BAD_VERSION);
        let (id, e) = parse_request("not json at all").unwrap_err();
        assert_eq!(id, None);
        assert_eq!(e.code, codes::BAD_REQUEST);
        let (id, e) = parse_request("{\"v\":1,\"id\":1,\"method\":\"nope\"}").unwrap_err();
        assert_eq!(id, Some(1));
        assert_eq!(e.code, codes::UNKNOWN_METHOD);
        let (_, e) = parse_request("{\"v\":1,\"id\":1,\"method\":\"find\"}").unwrap_err();
        assert_eq!(e.code, codes::INVALID_PARAMS);
    }

    #[test]
    fn id_recovered_even_when_method_bad() {
        let (id, _) =
            parse_request("{\"id\":123,\"v\":1,\"method\":\"sleep\",\"params\":{}}").unwrap_err();
        assert_eq!(id, Some(123));
    }
}
