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
//! Nothing here is written per message. The protocol's message table
//! (`serve_messages!` in [`protocol`](crate::protocol)) is expanded a
//! second time by this module's `binary_codec!`, which generates the
//! frame codes, [`METHOD_TABLE`]/[`REPLY_TABLE`] and each variant's
//! encode and decode arm; every arm calls the `Bin` impl of its field's
//! type. A type's encoding depends only on the message direction: request
//! integers must be u53 and request floats finite, reply floats go as NaN
//! when non-finite, and a string list's count is a `u16` in requests and
//! a `u32` in replies (node attributes always `u16`).
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
    serve_messages, AccelInfo, Method, NodeInfo, Reply, Request, Response, ServeError, TransferInfo,
};
use crate::stats::StatsSnapshot;
use std::collections::HashMap;
use std::io::{self, Read};
use xpdl_obs::MetricsSnapshot;
use xpdl_registry::wire::{Dir, Obj, Record};

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
// Codes come from the message table and are frozen: a new method gets
// the next free code, a removed one leaves a hole. docs/WIRE.md carries
// the same tables; tests/wire_spec.rs diffs them against these constants.

/// `(wire name, frame code)` for every request method of protocol v1.
pub const METHOD_TABLE: &[(&str, u8)] = Method::CODES;

/// `(payload kind, frame code)` for every response of protocol v1.
/// `error` is `0x00`; success kinds follow in declaration order.
pub const REPLY_TABLE: &[(&str, u8)] = &with_error_row::<{ Reply::CODES.len() + 1 }>(Reply::CODES);

/// Every stable error code of the serving stage, in `docs/WIRE.md` table
/// order (the `wire_spec` test keeps the two in lockstep).
pub const ERROR_CODE_TABLE: &[(&str, &str)] = crate::protocol::ERROR_CODE_TABLE;

/// The frame code of an error response.
const ERROR: u8 = 0x00;

const fn with_error_row<const N: usize>(codes: &[(&'static str, u8)]) -> [(&'static str, u8); N] {
    let mut out = [("error", ERROR); N];
    let mut i = 0;
    while i < codes.len() {
        out[i + 1] = codes[i];
        i += 1;
    }
    out
}

const TAG_INLINE: u8 = 0x00;
const TAG_REF: u8 = 0x01;
const TAG_DEFINE: u8 = 0x02;

// ---- string tables ----

/// Sender half of one direction's intern table.
#[derive(Debug)]
pub struct StrEncoder {
    ids: HashMap<String, u32>,
    /// When set, never intern: a stateless sender (WIRE.md §4.3), whose
    /// inline frames are always valid.
    inline_only: bool,
}

impl StrEncoder {
    /// A fresh interning encoder (one per connection direction).
    pub fn new() -> StrEncoder {
        StrEncoder { ids: HashMap::new(), inline_only: false }
    }

    /// An encoder that sends every string inline. Stateless, so its
    /// frames are valid whatever the receiver's table holds.
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

    /// A list count: `u16` in requests, `u32` in replies.
    fn count(&mut self, what: &str, dir: Dir) -> DResult<usize> {
        Ok(match dir {
            Dir::Request => self.u16(what)? as usize,
            Dir::Reply => self.u32(what)? as usize,
        })
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

// ---- field types ----

/// A field type's binary form (see the module docs for the rules `dir`
/// selects).
trait Bin: Sized {
    fn put(&self, b: &mut Vec<u8>, s: &mut StrEncoder, dir: Dir);
    fn get(c: &mut Cursor<'_>, s: &mut StrDecoder, what: &str, dir: Dir) -> DResult<Self>;
}

impl Bin for String {
    #[inline]
    fn put(&self, b: &mut Vec<u8>, s: &mut StrEncoder, _: Dir) {
        s.write(b, self);
    }
    #[inline]
    fn get(c: &mut Cursor<'_>, s: &mut StrDecoder, what: &str, _: Dir) -> DResult<String> {
        c.str_ref(s, what)
    }
}

impl Bin for Option<String> {
    #[inline]
    fn put(&self, b: &mut Vec<u8>, s: &mut StrEncoder, dir: Dir) {
        self.is_some().put(b, s, dir);
        if let Some(v) = self {
            s.write(b, v);
        }
    }
    #[inline]
    fn get(c: &mut Cursor<'_>, s: &mut StrDecoder, what: &str, _: Dir) -> DResult<Option<String>> {
        Ok(if c.bool(what)? { Some(c.str_ref(s, what)?) } else { None })
    }
}

impl Bin for u64 {
    #[inline]
    fn put(&self, b: &mut Vec<u8>, _: &mut StrEncoder, _: Dir) {
        b.extend_from_slice(&self.to_le_bytes());
    }
    /// A request integer follows the JSON wire's u53 rule, so a value is
    /// valid on this wire iff it is valid on the JSON wire.
    #[inline]
    fn get(c: &mut Cursor<'_>, _: &mut StrDecoder, what: &str, dir: Dir) -> DResult<u64> {
        let v = c.u64(what)?;
        if dir == Dir::Request && v > (1u64 << 53) {
            return Err(DecodeErr::Params(format!("field {what:?} is not a u53 integer")));
        }
        Ok(v)
    }
}

impl Bin for f64 {
    /// A reply float that JSON would write as `null` goes as NaN.
    #[inline]
    fn put(&self, b: &mut Vec<u8>, _: &mut StrEncoder, dir: Dir) {
        let x = if dir == Dir::Reply && !self.is_finite() { f64::NAN } else { *self };
        b.extend_from_slice(&x.to_le_bytes());
    }
    #[inline]
    fn get(c: &mut Cursor<'_>, _: &mut StrDecoder, what: &str, dir: Dir) -> DResult<f64> {
        let v = c.f64(what)?;
        match dir {
            _ if v.is_finite() => Ok(v),
            Dir::Request => Err(DecodeErr::Params(format!("field {what:?} is not finite"))),
            Dir::Reply => Ok(f64::NAN),
        }
    }
}

impl Bin for bool {
    #[inline]
    fn put(&self, b: &mut Vec<u8>, _: &mut StrEncoder, _: Dir) {
        b.push(*self as u8);
    }
    #[inline]
    fn get(c: &mut Cursor<'_>, _: &mut StrDecoder, what: &str, _: Dir) -> DResult<bool> {
        c.bool(what)
    }
}

impl Bin for Vec<String> {
    #[inline]
    fn put(&self, b: &mut Vec<u8>, s: &mut StrEncoder, dir: Dir) {
        match dir {
            Dir::Request => b.extend_from_slice(&(self.len() as u16).to_le_bytes()),
            Dir::Reply => b.extend_from_slice(&(self.len() as u32).to_le_bytes()),
        }
        for v in self {
            s.write(b, v);
        }
    }
    #[inline]
    fn get(c: &mut Cursor<'_>, s: &mut StrDecoder, what: &str, dir: Dir) -> DResult<Vec<String>> {
        let n = c.count(what, dir)?;
        let mut out = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            out.push(c.str_ref(s, what)?);
        }
        Ok(out)
    }
}

/// The `number` reply's value: a non-finite value is sent as absent,
/// as JSON sends `null`.
impl Bin for Option<f64> {
    #[inline]
    fn put(&self, b: &mut Vec<u8>, _: &mut StrEncoder, _: Dir) {
        match self {
            Some(x) if x.is_finite() => {
                b.push(1);
                b.extend_from_slice(&x.to_le_bytes());
            }
            _ => b.push(0),
        }
    }
    #[inline]
    fn get(c: &mut Cursor<'_>, _: &mut StrDecoder, what: &str, _: Dir) -> DResult<Option<f64>> {
        Ok(if c.bool(what)? { Some(c.f64(what)?) } else { None })
    }
}

impl Bin for Vec<(String, String)> {
    #[inline]
    fn put(&self, b: &mut Vec<u8>, s: &mut StrEncoder, _: Dir) {
        b.extend_from_slice(&(self.len() as u16).to_le_bytes());
        for (k, v) in self {
            s.write(b, k);
            s.write(b, v);
        }
    }
    #[inline]
    fn get(c: &mut Cursor<'_>, s: &mut StrDecoder, what: &str, _: Dir) -> DResult<Self> {
        let n = c.u16(what)? as usize;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push((c.str_ref(s, what)?, c.str_ref(s, what)?));
        }
        Ok(out)
    }
}

/// Introspection payloads are deep maps that change shape with the
/// metrics registry; they ride as length-prefixed JSON (identical bytes
/// to the JSON wire's payload) rather than getting a bespoke binary
/// layout. Hot-path replies never do this.
macro_rules! embedded_json {
    ($($T:ty),*) => { $(
        impl Bin for $T {
            fn put(&self, b: &mut Vec<u8>, _: &mut StrEncoder, _: Dir) {
                let mut body = String::from("{");
                self.write_fields(&mut body);
                body.push('}');
                b.extend_from_slice(&(body.len() as u32).to_le_bytes());
                b.extend_from_slice(body.as_bytes());
            }
            fn get(c: &mut Cursor<'_>, _: &mut StrDecoder, what: &str, _: Dir) -> DResult<Self> {
                let len = c.u32(what)? as usize;
                let body = std::str::from_utf8(c.take(len, what)?)
                    .map_err(|_| DecodeErr::Frame(format!("invalid UTF-8 in embedded {what} JSON")))?;
                let obj = Obj::parse(body)
                    .map_err(DecodeErr::Frame)?
                    .ok_or_else(|| DecodeErr::Frame(format!("{what} is not an object")))?;
                <$T as Record>::read_fields(&obj).map_err(DecodeErr::Frame)
            }
        }
    )* };
}
embedded_json!(StatsSnapshot, MetricsSnapshot);

/// Expands the message table into binary codes and field codecs: a
/// record's fields go in order (an optional record behind a `found`
/// bool), and each enum gets `CODES`, `code()`, `put_fields` and
/// `get_fields`.
macro_rules! binary_codec {
    () => {};
    (
        @record $R:ident { $( $(#[$fm:meta])* $fvis:vis $f:ident : $FT:ty $(= $fkey:literal)? ),* $(,)? }
    ) => {
        impl Bin for $R {
            fn put(&self, b: &mut Vec<u8>, s: &mut StrEncoder, dir: Dir) {
                $( self.$f.put(b, s, dir); )*
            }
            fn get(c: &mut Cursor<'_>, s: &mut StrDecoder, _: &str, dir: Dir) -> DResult<Self> {
                Ok($R { $( $f: Bin::get(c, s, stringify!($f), dir)?, )* })
            }
        }

        impl Bin for Option<$R> {
            fn put(&self, b: &mut Vec<u8>, s: &mut StrEncoder, dir: Dir) {
                self.is_some().put(b, s, dir);
                if let Some(r) = self {
                    r.put(b, s, dir);
                }
            }
            fn get(c: &mut Cursor<'_>, s: &mut StrDecoder, what: &str, dir: Dir) -> DResult<Self> {
                Ok(if c.bool("found")? { Some(Bin::get(c, s, what, dir)?) } else { None })
            }
        }
    };
    ($(#[$m:meta])* $vis:vis $(flat)? struct $R:ident { $($body:tt)* } $($rest:tt)*) => {
        binary_codec!(@record $R { $($body)* });
        binary_codec!($($rest)*);
    };
    (
        $(#[$m:meta])* $vis:vis enum $E:ident : $dir:ident {
            $(
                $(#[$vm:meta])* $V:ident = $code:literal $name:literal
                $( { $( $(#[$fm:meta])* $f:ident : $FT:ty ),* $(,)? } )?
                $( ( $t:ident : $TT:ty ) )?
            ),* $(,)?
        }
        $($rest:tt)*
    ) => {
        impl $E {
            /// `(wire name, frame code)` of every variant.
            const CODES: &'static [(&'static str, u8)] = &[$( ($name, $code), )*];

            fn code(&self) -> u8 {
                match self {
                    $( Self::$V { .. } => $code, )*
                }
            }

            fn put_fields(&self, b: &mut Vec<u8>, s: &mut StrEncoder) {
                match self {
                    $( Self::$V $({ $($f),* })? $(($t))? => {
                        $($( $f.put(b, s, Dir::$dir); )*)?
                        $( $t.put(b, s, Dir::$dir); )?
                    } )*
                }
            }

            /// The variant with frame code `code`, read from `c`.
            fn get_fields(code: u8, c: &mut Cursor<'_>, s: &mut StrDecoder) -> DResult<Self> {
                let dir = Dir::$dir;
                Ok(match code {
                    $( $code => Self::$V
                        $({ $( $f: Bin::get(c, s, stringify!($f), dir)? ),* })?
                        $(( Bin::get(c, s, stringify!($t), dir)? ))?,
                    )*
                    _ => {
                        let what = if dir == Dir::Request { "method" } else { "reply" };
                        return frame_err(format!("unknown {what} code {code:#04x}"));
                    }
                })
            }
        }

        binary_codec!($($rest)*);
    };
}

serve_messages!(binary_codec);

/// One frame: length prefix, code, id, then whatever `body` appends.
fn frame(code: u8, id: u64, body: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut b = Vec::with_capacity(36);
    b.extend_from_slice(&[0; 4]);
    b.push(code);
    b.extend_from_slice(&id.to_le_bytes());
    body(&mut b);
    let len = (b.len() - 4) as u32;
    b[..4].copy_from_slice(&len.to_le_bytes());
    b
}

// ---- requests ----

/// The frame code of a request method (its [`METHOD_TABLE`] row).
pub fn method_code(method: &Method) -> u8 {
    method.code()
}

/// Encode one request into a complete frame (length prefix included).
pub fn encode_request(req: &Request, strings: &mut StrEncoder) -> Vec<u8> {
    frame(req.method.code(), req.id, |b| {
        req.shard_key.put(b, strings, Dir::Request);
        req.method.put_fields(b, strings);
    })
}

/// Decode one request frame body (everything after the length prefix).
///
/// Mirrors [`parse_request`](crate::parse_request): on failure the
/// recovered correlation id (readable whenever the fixed header arrived
/// intact) rides along so the server can address its error response.
/// Parameter-level faults map to `S412` exactly as on the JSON wire;
/// structural faults map to [`codes::BAD_FRAME`](crate::codes::BAD_FRAME),
/// after which the caller must close the connection because framing is
/// lost.
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
        let shard_key = Bin::get(&mut c, strings, "shard", Dir::Request)?;
        let method = Method::get_fields(code, &mut c, strings)?;
        c.finish("request")?;
        Ok(Request { id, method, shard_key })
    })()
    .map_err(fail)
}

// ---- responses ----

/// Encode one response into a complete frame (length prefix included).
///
/// Matches the JSON wire's value semantics: a non-finite `number` value
/// is sent as absent (JSON sends `null`) and any other non-finite reply
/// float as NaN (JSON's `null` reads back as NaN), so both encodings
/// decode to the same `Reply`.
pub fn encode_response(resp: &Response, strings: &mut StrEncoder) -> Vec<u8> {
    match &resp.result {
        Ok(reply) => frame(reply.code(), resp.id, |b| reply.put_fields(b, strings)),
        Err(e) => frame(ERROR, resp.id, |b| {
            strings.write(b, &e.code);
            strings.write(b, &e.message);
        }),
    }
}

/// Decode one response frame body (everything after the length prefix).
/// The client side of the wire; errors are descriptive strings like
/// [`parse_response`](crate::parse_response).
pub fn decode_response(body: &[u8], strings: &mut StrDecoder) -> Result<Response, String> {
    let mut c = Cursor::new(body);
    (|| -> DResult<Response> {
        let code = c.u8("reply code")?;
        let id = c.u64("id")?;
        let result = if code == ERROR {
            let code = c.str_ref(strings, "error code")?;
            Err(ServeError { code, message: c.str_ref(strings, "error message")? })
        } else {
            Ok(Reply::get_fields(code, &mut c, strings)?)
        };
        c.finish("response")?;
        Ok(Response { id, result })
    })()
    .map_err(|e| match e {
        DecodeErr::Frame(msg) | DecodeErr::Params(msg) => msg,
    })
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
    use crate::protocol::codes;

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
