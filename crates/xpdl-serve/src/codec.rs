//! The negotiated length-prefixed binary wire encoding ("binary", v1).
//!
//! JSON-lines (see [`protocol`](crate::protocol)) stays the default and
//! the compatibility floor; this module is the fast path a client opts
//! into with a `hello` request. After the switch, every message in both
//! directions is one frame:
//!
//! ```text
//! [u32 len][u8 method/kind][u64 id][payload…]
//! ```
//!
//! where `len` (little-endian, like every integer on this wire) counts the
//! bytes *after* itself. Strings travel as [`StrRef`]s: an inline blob, a
//! definition that also assigns the next dense id in the receiver's
//! per-connection table, or a bare id reference — so hot idents like
//! `"gpu1"` cost 5 bytes instead of re-sending the text. Request and
//! response directions keep **separate** tables, each driven by its
//! sender; neither is related to the served model's own string table,
//! which never leaves the server.
//!
//! The normative specification — frame grammar, negotiation state
//! machine, method/error-code tables, versioning rules — is
//! `docs/WIRE.md`; the `wire_spec` test diffs the tables there against
//! the constants here so spec and code cannot drift. Semantics are
//! defined by equivalence: decoding a binary frame must yield exactly
//! what parsing the JSON form of the same message yields (property-tested
//! per method in `tests/codec_prop.rs`).
//!
//! [`StrRef`]: self#string-references
//!
//! # String references
//!
//! A `StrRef` is a tag byte followed by:
//!
//! | tag | layout | meaning |
//! |-----|--------|---------|
//! | `0x00` | `[u32 len][bytes]` | inline UTF-8, not interned |
//! | `0x01` | `[u32 id]` | reference to an interned string |
//! | `0x02` | `[u32 id][u16 len][bytes]` | define: intern as `id`, use now |
//!
//! Ids are assigned densely by the sender (`id == table length` at define
//! time); tables cap at [`MAX_INTERNED`] entries per direction and only
//! strings of at most [`MAX_INTERN_LEN`] bytes are interned — longer or
//! overflow strings simply go inline forever.

use crate::protocol::{
    codes, AccelInfo, Method, NodeInfo, Reply, Request, Response, ServeError, TransferInfo,
};
use crate::stats::StatsSnapshot;
use std::collections::HashMap;
use std::io::{self, Read};
use xpdl_core::diag::json;

/// Wire encodings this build speaks, in the order the server prefers
/// them when several are offered.
pub const SUPPORTED_ENCODINGS: &[&str] = &[BINARY, JSON];

/// Wire name of the binary encoding.
pub const BINARY: &str = "binary";
/// Wire name of the JSON-lines encoding (the default).
pub const JSON: &str = "json";

/// Per-direction intern-table capacity. Once full, further strings go
/// inline; existing ids stay valid.
pub const MAX_INTERNED: usize = 4096;

/// Longest string (bytes) the encoder will intern. Longer strings are
/// always sent inline — interning pays off only for repeated short names.
pub const MAX_INTERN_LEN: usize = 64;

/// Sanity cap on response frames accepted by [`read_frame`] clients.
pub const MAX_RESPONSE_FRAME: usize = 16 * 1024 * 1024;

/// A negotiated connection encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Encoding {
    /// Newline-terminated JSON objects (the default; see `protocol`).
    Json,
    /// Length-prefixed binary frames (this module).
    Binary,
}

impl Encoding {
    /// The wire name used in `hello` negotiation.
    pub fn name(self) -> &'static str {
        match self {
            Encoding::Json => JSON,
            Encoding::Binary => BINARY,
        }
    }

    /// Parse a wire name.
    pub fn from_name(name: &str) -> Option<Encoding> {
        match name {
            JSON => Some(Encoding::Json),
            BINARY => Some(Encoding::Binary),
            _ => None,
        }
    }
}

/// Server-side negotiation: the first encoding in the client's
/// preference-ordered offer that this build supports, or `None` when
/// there is no overlap (the server then answers `S412` and the
/// connection stays on its current encoding).
pub fn negotiate<S: AsRef<str>>(offered: &[S]) -> Option<Encoding> {
    offered.iter().find_map(|name| Encoding::from_name(name.as_ref()))
}

/// The `hello` a binary-capable client opens with: binary preferred,
/// JSON accepted.
pub fn client_hello(id: u64) -> Request {
    Request::new(id, Method::Hello { encodings: vec![BINARY.to_string(), JSON.to_string()] })
}

// ---- method / reply code tables ----
//
// Codes are assigned in declaration order of the protocol enums and are
// frozen: a new method gets the next free code, a removed one leaves a
// hole. docs/WIRE.md carries the same tables; tests/wire_spec.rs diffs
// them against these constants.

/// `(wire name, frame code)` for every request method of protocol v1.
pub const METHOD_TABLE: &[(&str, u8)] = &[
    ("ping", 0x01),
    ("health", 0x02),
    ("model_info", 0x03),
    ("find", 0x04),
    ("get_attr", 0x05),
    ("get_number", 0x06),
    ("elements_of_kind", 0x07),
    ("num_cores", 0x08),
    ("num_cuda_devices", 0x09),
    ("total_static_power", 0x0a),
    ("has_installed", 0x0b),
    ("estimate_transfer", 0x0c),
    ("estimate_accelerator_use", 0x0d),
    ("estimate_static_energy", 0x0e),
    ("stats", 0x0f),
    ("metrics", 0x10),
    ("reload", 0x11),
    ("shutdown", 0x12),
    ("sleep", 0x13),
    ("shards", 0x14),
    ("hello", 0x15),
];

/// `(payload kind, frame code)` for every response of protocol v1.
/// `error` is `0x00`; success kinds follow in declaration order.
pub const REPLY_TABLE: &[(&str, u8)] = &[
    ("error", 0x00),
    ("pong", 0x01),
    ("health", 0x02),
    ("model_info", 0x03),
    ("node", 0x04),
    ("attr", 0x05),
    ("number", 0x06),
    ("idents", 0x07),
    ("count", 0x08),
    ("power", 0x09),
    ("flag", 0x0a),
    ("transfer", 0x0b),
    ("accelerator", 0x0c),
    ("energy", 0x0d),
    ("stats", 0x0e),
    ("metrics", 0x0f),
    ("reloaded", 0x10),
    ("shutting_down", 0x11),
    ("slept", 0x12),
    ("shards", 0x13),
    ("hello", 0x14),
];

/// Every stable error code of the serving stage, in `docs/WIRE.md` table
/// order (the `wire_spec` test keeps the two in lockstep).
pub const ERROR_CODE_TABLE: &[(&str, &str)] = &[
    (codes::MODEL_IO, "MODEL_IO"),
    (codes::MODEL_DECODE, "MODEL_DECODE"),
    (codes::COMPILE_FAILED, "COMPILE_FAILED"),
    (codes::BAD_REQUEST, "BAD_REQUEST"),
    (codes::UNKNOWN_METHOD, "UNKNOWN_METHOD"),
    (codes::INVALID_PARAMS, "INVALID_PARAMS"),
    (codes::BAD_VERSION, "BAD_VERSION"),
    (codes::LINE_TOO_LONG, "LINE_TOO_LONG"),
    (codes::BAD_FRAME, "BAD_FRAME"),
    (codes::OVERLOADED, "OVERLOADED"),
    (codes::DEADLINE_EXCEEDED, "DEADLINE_EXCEEDED"),
    (codes::SHUTTING_DOWN, "SHUTTING_DOWN"),
    (codes::DEBUG_DISABLED, "DEBUG_DISABLED"),
    (codes::SHUTDOWN_DISABLED, "SHUTDOWN_DISABLED"),
    (codes::RELOAD_FAILED, "RELOAD_FAILED"),
    (codes::DRAINING, "DRAINING"),
    (codes::NOT_OWNER, "NOT_OWNER"),
];

const M_PING: u8 = 0x01;
const M_HEALTH: u8 = 0x02;
const M_MODEL_INFO: u8 = 0x03;
const M_FIND: u8 = 0x04;
const M_GET_ATTR: u8 = 0x05;
const M_GET_NUMBER: u8 = 0x06;
const M_ELEMENTS_OF_KIND: u8 = 0x07;
const M_NUM_CORES: u8 = 0x08;
const M_NUM_CUDA_DEVICES: u8 = 0x09;
const M_TOTAL_STATIC_POWER: u8 = 0x0a;
const M_HAS_INSTALLED: u8 = 0x0b;
const M_ESTIMATE_TRANSFER: u8 = 0x0c;
const M_ESTIMATE_ACCELERATOR_USE: u8 = 0x0d;
const M_ESTIMATE_STATIC_ENERGY: u8 = 0x0e;
const M_STATS: u8 = 0x0f;
const M_METRICS: u8 = 0x10;
const M_RELOAD: u8 = 0x11;
const M_SHUTDOWN: u8 = 0x12;
const M_SLEEP: u8 = 0x13;
const M_SHARDS: u8 = 0x14;
const M_HELLO: u8 = 0x15;

const R_ERROR: u8 = 0x00;
const R_PONG: u8 = 0x01;
const R_HEALTH: u8 = 0x02;
const R_MODEL_INFO: u8 = 0x03;
const R_NODE: u8 = 0x04;
const R_ATTR: u8 = 0x05;
const R_NUMBER: u8 = 0x06;
const R_IDENTS: u8 = 0x07;
const R_COUNT: u8 = 0x08;
const R_POWER: u8 = 0x09;
const R_FLAG: u8 = 0x0a;
const R_TRANSFER: u8 = 0x0b;
const R_ACCELERATOR: u8 = 0x0c;
const R_ENERGY: u8 = 0x0d;
const R_STATS: u8 = 0x0e;
const R_METRICS: u8 = 0x0f;
const R_RELOADED: u8 = 0x10;
const R_SHUTTING_DOWN: u8 = 0x11;
const R_SLEPT: u8 = 0x12;
const R_SHARDS: u8 = 0x13;
const R_HELLO: u8 = 0x14;

const TAG_INLINE: u8 = 0x00;
const TAG_REF: u8 = 0x01;
const TAG_DEFINE: u8 = 0x02;

// ---- string tables ----

/// Sender half of one direction's intern table.
#[derive(Debug)]
pub struct StrEncoder {
    ids: HashMap<String, u32>,
    /// When set, never intern (used by worker threads that share a
    /// connection but not its table — inline frames are always valid).
    inline_only: bool,
}

impl StrEncoder {
    /// A fresh interning encoder (one per connection direction).
    pub fn new() -> StrEncoder {
        StrEncoder { ids: HashMap::new(), inline_only: false }
    }

    /// An encoder that sends every string inline. Stateless, so multiple
    /// threads may encode frames for one connection without sharing it.
    pub fn inline_only() -> StrEncoder {
        StrEncoder { ids: HashMap::new(), inline_only: true }
    }

    fn write(&mut self, out: &mut Vec<u8>, s: &str) {
        if let Some(&id) = self.ids.get(s) {
            out.push(TAG_REF);
            out.extend_from_slice(&id.to_le_bytes());
            return;
        }
        if !self.inline_only && s.len() <= MAX_INTERN_LEN && self.ids.len() < MAX_INTERNED {
            let id = self.ids.len() as u32;
            self.ids.insert(s.to_string(), id);
            out.push(TAG_DEFINE);
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&(s.len() as u16).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
            return;
        }
        out.push(TAG_INLINE);
        out.extend_from_slice(&(s.len() as u32).to_le_bytes());
        out.extend_from_slice(s.as_bytes());
    }
}

impl Default for StrEncoder {
    fn default() -> StrEncoder {
        StrEncoder::new()
    }
}

/// Receiver half of one direction's intern table.
#[derive(Debug, Default)]
pub struct StrDecoder {
    table: Vec<String>,
}

impl StrDecoder {
    /// A fresh decoder (one per connection direction).
    pub fn new() -> StrDecoder {
        StrDecoder { table: Vec::new() }
    }
}

// ---- cursor ----

enum DecodeErr {
    /// Structural frame fault: framing is unreliable, close after
    /// reporting `S415`.
    Frame(String),
    /// Well-framed but semantically invalid parameters: report `S412`
    /// and keep the connection (mirrors the JSON parser's taxonomy).
    Params(String),
}

type DResult<T> = Result<T, DecodeErr>;

fn frame_err<T>(msg: impl Into<String>) -> DResult<T> {
    Err(DecodeErr::Frame(msg.into()))
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &str) -> DResult<&'a [u8]> {
        if self.buf.len() - self.pos < n {
            return frame_err(format!("truncated frame reading {what}"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, what: &str) -> DResult<u8> {
        Ok(self.take(1, what)?[0])
    }

    fn u16(&mut self, what: &str) -> DResult<u16> {
        Ok(u16::from_le_bytes(self.take(2, what)?.try_into().expect("2 bytes")))
    }

    fn u32(&mut self, what: &str) -> DResult<u32> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self, what: &str) -> DResult<u64> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().expect("8 bytes")))
    }

    fn f64(&mut self, what: &str) -> DResult<f64> {
        Ok(f64::from_le_bytes(self.take(8, what)?.try_into().expect("8 bytes")))
    }

    fn bool(&mut self, what: &str) -> DResult<bool> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            b => frame_err(format!("bad bool byte {b:#04x} in {what}")),
        }
    }

    /// A u64 param constrained like the JSON path's u53 rule, so a value
    /// is valid on this wire iff it is valid on the JSON wire.
    fn u53(&mut self, what: &str) -> DResult<u64> {
        let v = self.u64(what)?;
        if v > (1u64 << 53) {
            return Err(DecodeErr::Params(format!("field {what:?} is not a u53 integer")));
        }
        Ok(v)
    }

    /// A float param constrained like the JSON path (finite only).
    fn finite_f64(&mut self, what: &str) -> DResult<f64> {
        let v = self.f64(what)?;
        if !v.is_finite() {
            return Err(DecodeErr::Params(format!("field {what:?} is not finite")));
        }
        Ok(v)
    }

    fn str_ref(&mut self, strings: &mut StrDecoder, what: &str) -> DResult<String> {
        let utf8 = |bytes: &[u8]| -> DResult<String> {
            String::from_utf8(bytes.to_vec())
                .map_err(|_| DecodeErr::Frame(format!("invalid UTF-8 in {what}")))
        };
        match self.u8(what)? {
            TAG_INLINE => {
                let len = self.u32(what)? as usize;
                utf8(self.take(len, what)?)
            }
            TAG_REF => {
                let id = self.u32(what)? as usize;
                strings
                    .table
                    .get(id)
                    .cloned()
                    .ok_or_else(|| DecodeErr::Frame(format!("undefined string id {id} in {what}")))
            }
            TAG_DEFINE => {
                let id = self.u32(what)? as usize;
                if id != strings.table.len() || id >= MAX_INTERNED {
                    return frame_err(format!("non-dense string define id {id} in {what}"));
                }
                let len = self.u16(what)? as usize;
                if len > MAX_INTERN_LEN {
                    return frame_err(format!("string define over {MAX_INTERN_LEN} bytes"));
                }
                let s = utf8(self.take(len, what)?)?;
                strings.table.push(s.clone());
                Ok(s)
            }
            tag => frame_err(format!("bad string tag {tag:#04x} in {what}")),
        }
    }

    fn opt_str_ref(&mut self, strings: &mut StrDecoder, what: &str) -> DResult<Option<String>> {
        if self.bool(what)? {
            Ok(Some(self.str_ref(strings, what)?))
        } else {
            Ok(None)
        }
    }

    fn finish(self, what: &str) -> DResult<()> {
        if self.pos != self.buf.len() {
            return frame_err(format!(
                "{} trailing bytes after {what}",
                self.buf.len() - self.pos
            ));
        }
        Ok(())
    }
}

fn write_opt_str(out: &mut Vec<u8>, strings: &mut StrEncoder, v: Option<&str>) {
    match v {
        Some(s) => {
            out.push(1);
            strings.write(out, s);
        }
        None => out.push(0),
    }
}

/// Prepend the `u32` length prefix to a finished frame body.
fn with_len_prefix(body: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + 4);
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

// ---- requests ----

/// The frame code of a request method (its [`METHOD_TABLE`] row).
pub fn method_code(method: &Method) -> u8 {
    match method {
        Method::Ping => M_PING,
        Method::Health => M_HEALTH,
        Method::ModelInfo => M_MODEL_INFO,
        Method::Find { .. } => M_FIND,
        Method::GetAttr { .. } => M_GET_ATTR,
        Method::GetNumber { .. } => M_GET_NUMBER,
        Method::ElementsOfKind { .. } => M_ELEMENTS_OF_KIND,
        Method::NumCores => M_NUM_CORES,
        Method::NumCudaDevices => M_NUM_CUDA_DEVICES,
        Method::TotalStaticPower => M_TOTAL_STATIC_POWER,
        Method::HasInstalled { .. } => M_HAS_INSTALLED,
        Method::EstimateTransfer { .. } => M_ESTIMATE_TRANSFER,
        Method::EstimateAcceleratorUse { .. } => M_ESTIMATE_ACCELERATOR_USE,
        Method::EstimateStaticEnergy { .. } => M_ESTIMATE_STATIC_ENERGY,
        Method::Stats => M_STATS,
        Method::Metrics => M_METRICS,
        Method::Reload => M_RELOAD,
        Method::Shutdown => M_SHUTDOWN,
        Method::Sleep { .. } => M_SLEEP,
        Method::Shards => M_SHARDS,
        Method::Hello { .. } => M_HELLO,
    }
}

/// Encode one request into a complete frame (length prefix included).
pub fn encode_request(req: &Request, strings: &mut StrEncoder) -> Vec<u8> {
    let mut b = Vec::with_capacity(32);
    b.push(method_code(&req.method));
    b.extend_from_slice(&req.id.to_le_bytes());
    write_opt_str(&mut b, strings, req.shard_key.as_deref());
    match &req.method {
        Method::Ping
        | Method::Health
        | Method::ModelInfo
        | Method::NumCores
        | Method::NumCudaDevices
        | Method::TotalStaticPower
        | Method::Stats
        | Method::Metrics
        | Method::Reload
        | Method::Shutdown
        | Method::Shards => {}
        Method::Find { ident } => strings.write(&mut b, ident),
        Method::GetAttr { ident, attr } | Method::GetNumber { ident, attr } => {
            strings.write(&mut b, ident);
            strings.write(&mut b, attr);
        }
        Method::ElementsOfKind { kind } => strings.write(&mut b, kind),
        Method::HasInstalled { prefix } => strings.write(&mut b, prefix),
        Method::EstimateTransfer { link, bytes } => {
            strings.write(&mut b, link);
            b.extend_from_slice(&bytes.to_le_bytes());
        }
        Method::EstimateAcceleratorUse {
            link,
            upload_bytes,
            download_bytes,
            compute_s,
            dynamic_power_w,
        } => {
            strings.write(&mut b, link);
            b.extend_from_slice(&upload_bytes.to_le_bytes());
            b.extend_from_slice(&download_bytes.to_le_bytes());
            b.extend_from_slice(&compute_s.to_le_bytes());
            b.extend_from_slice(&dynamic_power_w.to_le_bytes());
        }
        Method::EstimateStaticEnergy { duration_s } => {
            b.extend_from_slice(&duration_s.to_le_bytes());
        }
        Method::Sleep { ms } => b.extend_from_slice(&ms.to_le_bytes()),
        Method::Hello { encodings } => {
            b.extend_from_slice(&(encodings.len() as u16).to_le_bytes());
            for enc in encodings {
                strings.write(&mut b, enc);
            }
        }
    }
    with_len_prefix(b)
}

/// Decode one request frame body (everything after the length prefix).
///
/// Mirrors [`parse_request`](crate::parse_request): on failure the
/// recovered correlation id (readable whenever the fixed header arrived
/// intact) rides along so the server can address its error response.
/// Parameter-level faults map to `S412` exactly as on the JSON wire;
/// structural faults map to [`codes::BAD_FRAME`], after which the caller
/// must close the connection because framing is lost.
pub fn decode_request(
    body: &[u8],
    strings: &mut StrDecoder,
) -> Result<Request, (Option<u64>, ServeError)> {
    // Recover the id first for error addressing.
    let id = (body.len() >= 9).then(|| {
        u64::from_le_bytes(body[1..9].try_into().expect("8 bytes"))
    });
    let fail = |e: DecodeErr| match e {
        DecodeErr::Frame(msg) => (id, ServeError::bad_frame(msg)),
        DecodeErr::Params(msg) => (id, ServeError::invalid_params(msg)),
    };
    let mut c = Cursor::new(body);
    (|| -> DResult<Request> {
        let code = c.u8("method code")?;
        let id = c.u64("id")?;
        let shard_key = c.opt_str_ref(strings, "shard")?;
        let method = match code {
            M_PING => Method::Ping,
            M_HEALTH => Method::Health,
            M_MODEL_INFO => Method::ModelInfo,
            M_FIND => Method::Find { ident: c.str_ref(strings, "ident")? },
            M_GET_ATTR => Method::GetAttr {
                ident: c.str_ref(strings, "ident")?,
                attr: c.str_ref(strings, "attr")?,
            },
            M_GET_NUMBER => Method::GetNumber {
                ident: c.str_ref(strings, "ident")?,
                attr: c.str_ref(strings, "attr")?,
            },
            M_ELEMENTS_OF_KIND => {
                Method::ElementsOfKind { kind: c.str_ref(strings, "kind")? }
            }
            M_NUM_CORES => Method::NumCores,
            M_NUM_CUDA_DEVICES => Method::NumCudaDevices,
            M_TOTAL_STATIC_POWER => Method::TotalStaticPower,
            M_HAS_INSTALLED => Method::HasInstalled { prefix: c.str_ref(strings, "prefix")? },
            M_ESTIMATE_TRANSFER => Method::EstimateTransfer {
                link: c.str_ref(strings, "link")?,
                bytes: c.u53("bytes")?,
            },
            M_ESTIMATE_ACCELERATOR_USE => Method::EstimateAcceleratorUse {
                link: c.str_ref(strings, "link")?,
                upload_bytes: c.u53("upload_bytes")?,
                download_bytes: c.u53("download_bytes")?,
                compute_s: c.finite_f64("compute_s")?,
                dynamic_power_w: c.finite_f64("dynamic_power_w")?,
            },
            M_ESTIMATE_STATIC_ENERGY => {
                Method::EstimateStaticEnergy { duration_s: c.finite_f64("duration_s")? }
            }
            M_STATS => Method::Stats,
            M_METRICS => Method::Metrics,
            M_RELOAD => Method::Reload,
            M_SHUTDOWN => Method::Shutdown,
            M_SLEEP => Method::Sleep { ms: c.u53("ms")? },
            M_SHARDS => Method::Shards,
            M_HELLO => {
                let n = c.u16("encoding count")?;
                let mut encodings = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    encodings.push(c.str_ref(strings, "encoding")?);
                }
                Method::Hello { encodings }
            }
            other => return frame_err(format!("unknown method code {other:#04x}")),
        };
        c.finish("request")?;
        Ok(Request { id, method, shard_key })
    })()
    .map_err(fail)
}

// ---- responses ----

/// Encode one response into a complete frame (length prefix included).
///
/// Matches the JSON wire's value semantics: a non-finite `number` value
/// is sent as absent (JSON sends `null`), so both encodings decode to
/// the same `Reply`.
pub fn encode_response(resp: &Response, strings: &mut StrEncoder) -> Vec<u8> {
    let mut b = Vec::with_capacity(32);
    let reply = match &resp.result {
        Err(e) => {
            b.push(R_ERROR);
            b.extend_from_slice(&resp.id.to_le_bytes());
            strings.write(&mut b, &e.code);
            strings.write(&mut b, &e.message);
            return with_len_prefix(b);
        }
        Ok(reply) => reply,
    };
    b.push(match reply {
        Reply::Pong => R_PONG,
        Reply::Health { .. } => R_HEALTH,
        Reply::ModelInfo { .. } => R_MODEL_INFO,
        Reply::Node(_) => R_NODE,
        Reply::Attr(_) => R_ATTR,
        Reply::Number(_) => R_NUMBER,
        Reply::Idents { .. } => R_IDENTS,
        Reply::Count(_) => R_COUNT,
        Reply::Power(_) => R_POWER,
        Reply::Flag(_) => R_FLAG,
        Reply::Transfer(_) => R_TRANSFER,
        Reply::Accelerator(_) => R_ACCELERATOR,
        Reply::Energy(_) => R_ENERGY,
        Reply::Stats(_) => R_STATS,
        Reply::Metrics(_) => R_METRICS,
        Reply::Reloaded { .. } => R_RELOADED,
        Reply::ShuttingDown => R_SHUTTING_DOWN,
        Reply::Slept { .. } => R_SLEPT,
        Reply::Shards { .. } => R_SHARDS,
        Reply::Hello { .. } => R_HELLO,
    });
    b.extend_from_slice(&resp.id.to_le_bytes());
    match reply {
        Reply::Pong | Reply::ShuttingDown => {}
        Reply::Health { epoch, fingerprint, inflight, draining } => {
            b.extend_from_slice(&epoch.to_le_bytes());
            strings.write(&mut b, fingerprint);
            b.extend_from_slice(&inflight.to_le_bytes());
            b.push(*draining as u8);
        }
        Reply::ModelInfo { epoch, nodes, root_kind, root_ident, source, fingerprint } => {
            b.extend_from_slice(&epoch.to_le_bytes());
            b.extend_from_slice(&nodes.to_le_bytes());
            strings.write(&mut b, root_kind);
            write_opt_str(&mut b, strings, root_ident.as_deref());
            strings.write(&mut b, source);
            strings.write(&mut b, fingerprint);
        }
        Reply::Node(node) => match node {
            None => b.push(0),
            Some(n) => {
                b.push(1);
                strings.write(&mut b, &n.kind);
                write_opt_str(&mut b, strings, n.ident.as_deref());
                write_opt_str(&mut b, strings, n.type_ref.as_deref());
                b.extend_from_slice(&(n.attrs.len() as u16).to_le_bytes());
                for (k, v) in &n.attrs {
                    strings.write(&mut b, k);
                    strings.write(&mut b, v);
                }
            }
        },
        Reply::Attr(v) => write_opt_str(&mut b, strings, v.as_deref()),
        Reply::Number(v) => match v {
            Some(x) if x.is_finite() => {
                b.push(1);
                b.extend_from_slice(&x.to_le_bytes());
            }
            _ => b.push(0),
        },
        Reply::Idents { idents, count } => {
            b.extend_from_slice(&(idents.len() as u32).to_le_bytes());
            for id in idents {
                strings.write(&mut b, id);
            }
            b.extend_from_slice(&count.to_le_bytes());
        }
        Reply::Count(n) => b.extend_from_slice(&n.to_le_bytes()),
        Reply::Power(w) => b.extend_from_slice(&w.to_le_bytes()),
        Reply::Flag(v) => b.push(*v as u8),
        Reply::Transfer(t) => match t {
            None => b.push(0),
            Some(t) => {
                b.push(1);
                b.extend_from_slice(&t.time_s.to_le_bytes());
                b.extend_from_slice(&t.energy_j.to_le_bytes());
                b.extend_from_slice(&t.bandwidth_bps.to_le_bytes());
            }
        },
        Reply::Accelerator(a) => match a {
            None => b.push(0),
            Some(a) => {
                b.push(1);
                b.extend_from_slice(&a.time_s.to_le_bytes());
                b.extend_from_slice(&a.energy_j.to_le_bytes());
            }
        },
        Reply::Energy(j) => b.extend_from_slice(&j.to_le_bytes()),
        // Introspection payloads are deep maps that change shape with the
        // metrics registry; they ride as length-prefixed JSON (identical
        // bytes to the JSON wire's payload) rather than getting a bespoke
        // binary layout. Hot-path replies above never do this.
        Reply::Stats(st) => {
            let mut fields = String::from("{");
            st.fields_to_json(&mut fields);
            fields.push('}');
            b.extend_from_slice(&(fields.len() as u32).to_le_bytes());
            b.extend_from_slice(fields.as_bytes());
        }
        Reply::Metrics(m) => {
            let body = m.to_json();
            b.extend_from_slice(&(body.len() as u32).to_le_bytes());
            b.extend_from_slice(body.as_bytes());
        }
        Reply::Reloaded { epoch, changed } => {
            b.extend_from_slice(&epoch.to_le_bytes());
            b.push(*changed as u8);
        }
        Reply::Slept { ms } => b.extend_from_slice(&ms.to_le_bytes()),
        Reply::Shards { enabled, ring_epoch, owned, handoff } => {
            b.push(*enabled as u8);
            write_opt_str(&mut b, strings, ring_epoch.as_deref());
            for list in [owned, handoff] {
                b.extend_from_slice(&(list.len() as u32).to_le_bytes());
                for key in list {
                    strings.write(&mut b, key);
                }
            }
        }
        Reply::Hello { encoding } => strings.write(&mut b, encoding),
    }
    with_len_prefix(b)
}

/// Decode one response frame body (everything after the length prefix).
/// The client side of the wire; errors are descriptive strings like
/// [`parse_response`](crate::parse_response).
pub fn decode_response(body: &[u8], strings: &mut StrDecoder) -> Result<Response, String> {
    let mut c = Cursor::new(body);
    (|| -> DResult<Response> {
        let code = c.u8("reply code")?;
        let id = c.u64("id")?;
        if code == R_ERROR {
            let error = ServeError {
                code: c.str_ref(strings, "error code")?,
                message: c.str_ref(strings, "error message")?,
            };
            c.finish("error")?;
            return Ok(Response::err(id, error));
        }
        let reply = match code {
            R_PONG => Reply::Pong,
            R_HEALTH => Reply::Health {
                epoch: c.u64("epoch")?,
                fingerprint: c.str_ref(strings, "fingerprint")?,
                inflight: c.u64("inflight")?,
                draining: c.bool("draining")?,
            },
            R_MODEL_INFO => Reply::ModelInfo {
                epoch: c.u64("epoch")?,
                nodes: c.u64("nodes")?,
                root_kind: c.str_ref(strings, "root_kind")?,
                root_ident: c.opt_str_ref(strings, "root_ident")?,
                source: c.str_ref(strings, "source")?,
                fingerprint: c.str_ref(strings, "fingerprint")?,
            },
            R_NODE => Reply::Node(if c.bool("found")? {
                let kind = c.str_ref(strings, "kind")?;
                let ident = c.opt_str_ref(strings, "ident")?;
                let type_ref = c.opt_str_ref(strings, "type")?;
                let n = c.u16("attr count")?;
                let mut attrs = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    let k = c.str_ref(strings, "attr key")?;
                    let v = c.str_ref(strings, "attr value")?;
                    attrs.push((k, v));
                }
                Some(NodeInfo { kind, ident, type_ref, attrs })
            } else {
                None
            }),
            R_ATTR => Reply::Attr(c.opt_str_ref(strings, "value")?),
            R_NUMBER => Reply::Number(if c.bool("present")? {
                Some(c.f64("value")?)
            } else {
                None
            }),
            R_IDENTS => {
                let n = c.u32("ident count")?;
                let mut idents = Vec::with_capacity((n as usize).min(4096));
                for _ in 0..n {
                    idents.push(c.str_ref(strings, "ident")?);
                }
                Reply::Idents { idents, count: c.u64("count")? }
            }
            R_COUNT => Reply::Count(c.u64("value")?),
            R_POWER => Reply::Power(c.f64("watts")?),
            R_FLAG => Reply::Flag(c.bool("value")?),
            R_TRANSFER => Reply::Transfer(if c.bool("found")? {
                Some(TransferInfo {
                    time_s: c.f64("time_s")?,
                    energy_j: c.f64("energy_j")?,
                    bandwidth_bps: c.f64("bandwidth_bps")?,
                })
            } else {
                None
            }),
            R_ACCELERATOR => Reply::Accelerator(if c.bool("found")? {
                Some(AccelInfo { time_s: c.f64("time_s")?, energy_j: c.f64("energy_j")? })
            } else {
                None
            }),
            R_ENERGY => Reply::Energy(c.f64("joules")?),
            R_STATS => {
                let json_body = embedded_json(&mut c, "stats")?;
                Reply::Stats(
                    StatsSnapshot::parse(&json_body).map_err(DecodeErr::Frame)?,
                )
            }
            R_METRICS => {
                let json_body = embedded_json(&mut c, "metrics")?;
                let v = json::parse(&json_body).map_err(DecodeErr::Frame)?;
                let obj = v
                    .as_object()
                    .ok_or_else(|| DecodeErr::Frame("metrics is not an object".into()))?;
                Reply::Metrics(crate::protocol::parse_metrics(obj).map_err(DecodeErr::Frame)?)
            }
            R_RELOADED => {
                Reply::Reloaded { epoch: c.u64("epoch")?, changed: c.bool("changed")? }
            }
            R_SHUTTING_DOWN => Reply::ShuttingDown,
            R_SLEPT => Reply::Slept { ms: c.u64("ms")? },
            R_SHARDS => {
                let enabled = c.bool("enabled")?;
                let ring_epoch = c.opt_str_ref(strings, "ring_epoch")?;
                let mut lists = [Vec::new(), Vec::new()];
                for list in &mut lists {
                    let n = c.u32("shard key count")?;
                    for _ in 0..n {
                        list.push(c.str_ref(strings, "shard key")?);
                    }
                }
                let [owned, handoff] = lists;
                Reply::Shards { enabled, ring_epoch, owned, handoff }
            }
            R_HELLO => Reply::Hello { encoding: c.str_ref(strings, "encoding")? },
            other => return frame_err(format!("unknown reply code {other:#04x}")),
        };
        c.finish("response")?;
        Ok(Response::ok(id, reply))
    })()
    .map_err(|e| match e {
        DecodeErr::Frame(msg) | DecodeErr::Params(msg) => msg,
    })
}

fn embedded_json(c: &mut Cursor<'_>, what: &str) -> DResult<String> {
    let len = c.u32(what)? as usize;
    let bytes = c.take(len, what)?;
    String::from_utf8(bytes.to_vec())
        .map_err(|_| DecodeErr::Frame(format!("invalid UTF-8 in embedded {what} JSON")))
}

// ---- blocking frame I/O (client side) ----

/// Read one complete frame body from a blocking reader: the `u32` length
/// prefix, then exactly that many bytes. Returns `Ok(None)` on clean EOF
/// at a frame boundary; a frame longer than `cap` is an error.
pub fn read_frame(r: &mut impl Read, cap: usize) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        let n = r.read(&mut len_buf[got..])?;
        if n == 0 {
            if got == 0 {
                return Ok(None);
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "eof inside frame length prefix",
            ));
        }
        got += n;
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > cap {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds cap {cap}"),
        ));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok(Some(body))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: &Request) -> Request {
        let mut enc = StrEncoder::new();
        let mut dec = StrDecoder::new();
        let frame = encode_request(req, &mut enc);
        let len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
        assert_eq!(len, frame.len() - 4);
        decode_request(&frame[4..], &mut dec).expect("decodes")
    }

    #[test]
    fn request_roundtrip_and_interning() {
        let mut enc = StrEncoder::new();
        let mut dec = StrDecoder::new();
        let req = Request::for_shard(
            7,
            Method::GetAttr { ident: "gpu1".into(), attr: "type".into() },
            "fleet/a",
        );
        let first = encode_request(&req, &mut enc);
        let second = encode_request(&req, &mut enc);
        // Second frame references the interned strings: strictly smaller.
        assert!(second.len() < first.len(), "{} !< {}", second.len(), first.len());
        assert_eq!(decode_request(&first[4..], &mut dec).unwrap(), req);
        assert_eq!(decode_request(&second[4..], &mut dec).unwrap(), req);
    }

    #[test]
    fn hello_and_every_parameterless_method_roundtrip() {
        for method in [
            Method::Ping,
            Method::Health,
            Method::ModelInfo,
            Method::NumCores,
            Method::NumCudaDevices,
            Method::TotalStaticPower,
            Method::Stats,
            Method::Metrics,
            Method::Reload,
            Method::Shutdown,
            Method::Shards,
            Method::Hello { encodings: vec!["binary".into(), "json".into()] },
            Method::Sleep { ms: 12 },
            Method::EstimateTransfer { link: "pcie3".into(), bytes: 1 << 20 },
        ] {
            let req = Request::new(u64::MAX, method);
            assert_eq!(roundtrip_request(&req), req);
        }
    }

    #[test]
    fn structural_faults_are_bad_frame_param_faults_are_s412() {
        let mut dec = StrDecoder::new();
        // Unknown method code.
        let mut body = vec![0xee];
        body.extend_from_slice(&5u64.to_le_bytes());
        body.push(0); // no shard
        let (id, e) = decode_request(&body, &mut dec).unwrap_err();
        assert_eq!(id, Some(5));
        assert_eq!(e.code, codes::BAD_FRAME);

        // Oversized sleep ms: u53 violation → invalid params, id intact.
        let req = Request::new(9, Method::Sleep { ms: 3 });
        let mut frame = encode_request(&req, &mut StrEncoder::new());
        let ms_at = frame.len() - 8;
        frame[ms_at..].copy_from_slice(&u64::MAX.to_le_bytes());
        let (id, e) = decode_request(&frame[4..], &mut dec).unwrap_err();
        assert_eq!(id, Some(9));
        assert_eq!(e.code, codes::INVALID_PARAMS);

        // Truncation anywhere is a frame fault.
        let good = encode_request(&Request::new(1, Method::Find { ident: "x".into() }), &mut StrEncoder::new());
        let (_, e) = decode_request(&good[4..good.len() - 1], &mut StrDecoder::new()).unwrap_err();
        assert_eq!(e.code, codes::BAD_FRAME);
    }

    #[test]
    fn response_error_and_hello_roundtrip() {
        let mut enc = StrEncoder::new();
        let mut dec = StrDecoder::new();
        for resp in [
            Response::err(3, ServeError::new(codes::OVERLOADED, "busy")),
            Response::ok(4, Reply::Hello { encoding: "binary".into() }),
            Response::ok(5, Reply::Number(Some(2.5))),
            Response::ok(6, Reply::Number(Some(f64::INFINITY))), // → absent
        ] {
            let frame = encode_response(&resp, &mut enc);
            let got = decode_response(&frame[4..], &mut dec).unwrap();
            if resp.id == 6 {
                assert_eq!(got, Response::ok(6, Reply::Number(None)));
            } else {
                assert_eq!(got, resp);
            }
        }
    }

    #[test]
    fn negotiation_prefers_client_order() {
        assert_eq!(negotiate(&["binary", "json"]), Some(Encoding::Binary));
        assert_eq!(negotiate(&["json", "binary"]), Some(Encoding::Json));
        assert_eq!(negotiate(&["msgpack", "json"]), Some(Encoding::Json));
        assert_eq!(negotiate::<&str>(&[]), None);
        assert_eq!(negotiate(&["msgpack"]), None);
        assert_eq!(Encoding::from_name("binary"), Some(Encoding::Binary));
        assert_eq!(Encoding::Binary.name(), "binary");
    }

    #[test]
    fn read_frame_handles_eof_and_caps() {
        let mut enc = StrEncoder::new();
        let frame = encode_request(&client_hello(0), &mut enc);
        let mut r = io::Cursor::new(frame.clone());
        let body = read_frame(&mut r, 1024).unwrap().unwrap();
        assert_eq!(body.len(), frame.len() - 4);
        assert_eq!(read_frame(&mut r, 1024).unwrap(), None); // clean EOF
        let mut torn = io::Cursor::new(frame[..frame.len() - 2].to_vec());
        assert!(read_frame(&mut torn, 1024).is_err());
        let mut over = io::Cursor::new(frame.clone());
        assert!(read_frame(&mut over, 4).is_err());
    }

    #[test]
    fn tables_cover_every_enum_variant() {
        assert_eq!(METHOD_TABLE.len(), 21);
        assert_eq!(REPLY_TABLE.len(), 21);
        // Wire names in METHOD_TABLE are exactly Method::name() values.
        for (name, _) in METHOD_TABLE {
            assert!(
                crate::protocol::parse_request(&format!(
                    "{{\"v\":1,\"id\":1,\"method\":\"{name}\"}}"
                ))
                .map(|r| r.method.name() == *name)
                .unwrap_or_else(|(_, e)| e.code == codes::INVALID_PARAMS),
                "method {name} unknown to the JSON parser"
            );
        }
    }
}
