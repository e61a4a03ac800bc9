//! The JSON side of both daemons' wire protocols: the envelope, and one
//! writer and one reader per field kind.
//!
//! Each daemon lists its messages once, in a [`wire_messages!`](crate::wire_messages)
//! table: every method, reply and event with its wire name and typed
//! fields (and, for `xpdl-serve`, its frozen binary frame code). The
//! table generates the message enums, their `name()`, and their JSON
//! fields through the [`Field`] impls here; `xpdl-serve` expands the same
//! table a second time into its binary codec.
//!
//! Reading builds no tree. [`Obj::parse`] checks the whole line with the
//! pull lexer [`json::Reader`] and keeps the object's members as keys
//! borrowed from the line and [`Raw`] value slices. Each [`Field::read`]
//! then decodes only its own member's slice, and reads a nested object
//! into members the same way. So a malformed value anywhere, even in a
//! member nobody reads, fails the line before its id is read, and a
//! string is copied once, into the field that owns it. docs/WIRE.md §2
//! lists the reading rules.
//!
//! A field's JSON form depends only on its Rust type and, for two types,
//! on the message [`Dir`]ection:
//!
//! | type | JSON | read rule |
//! |------|------|-----------|
//! | `String` | string | required |
//! | `Option<String>` | string or `null` | anything but a string reads as `None` |
//! | `u64` | number | request: a u53 integer; reply: truncated to `u64` |
//! | `f64` | number, `null` when non-finite | request: finite; reply: `null` reads as NaN |
//! | `bool` | `true`/`false` | required |
//! | `Vec<String>` | array of strings | required |
//! | `Option<f64>` | number, `null` when absent or non-finite | anything but a number reads as `None` |
//! | `Vec<(String, String)>` | array of `[key, value]` pairs | required |
//! | a [`Record`] | object, or its fields spread into the enclosing object when flat | required |
//! | `Option<` a [`Record`] `>` | `"found":false`, or `"found":true` and the record | required |
//! | `Vec<` a [`Record`] `>` | array of objects | required |

use std::borrow::Cow;
use std::fmt::Write as _;
use xpdl_core::diag::json::{self, Kind, Reader};
use xpdl_obs::{HistogramSnapshot, MetricsSnapshot};

/// A JSON object's members in source order: each key, borrowed from the
/// source unless it holds an escape, and its value's source text.
#[derive(Debug, Default)]
pub struct Obj<'a>(Vec<(Cow<'a, str>, Raw<'a>)>);

/// One value's source text, already checked by [`Obj::parse`]. The
/// accessors decode it on each call, and return `None` when it is of
/// another kind.
#[derive(Debug, Clone, Copy)]
pub struct Raw<'a>(&'a str);

impl<'a> Obj<'a> {
    /// Check the whole document `src` and read it as an object: `None`
    /// when it is valid JSON but not an object.
    pub fn parse(src: &'a str) -> Result<Option<Obj<'a>>, String> {
        let mut r = Reader::new(src);
        let obj = if r.peek()? == Kind::Object {
            Some(Obj::read(&mut r)?)
        } else {
            r.skip()?;
            None
        };
        r.finish()?;
        Ok(obj)
    }

    fn read(r: &mut Reader<'a>) -> Result<Obj<'a>, String> {
        let mut members = Vec::new();
        r.begin_object()?;
        while let Some(key) = r.next_key()? {
            members.push((key, Raw(r.skip()?)));
        }
        Ok(Obj(members))
    }

    /// The value of the first member named `key`.
    pub fn get(&self, key: &str) -> Option<Raw<'a>> {
        self.0.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }
}

/// The value at the cursor, read by `read` when it is of `kind`.
fn take<'a, T>(
    r: &mut Reader<'a>,
    kind: Kind,
    read: impl FnOnce(&mut Reader<'a>) -> Result<T, String>,
) -> Option<T> {
    (r.peek().ok()? == kind).then(|| read(r).ok()).flatten()
}

impl<'a> Raw<'a> {
    fn decode<T>(
        self,
        kind: Kind,
        read: impl FnOnce(&mut Reader<'a>) -> Result<T, String>,
    ) -> Option<T> {
        take(&mut Reader::new(self.0), kind, read)
    }

    /// The string, borrowed unless it holds an escape.
    pub fn as_str(self) -> Option<Cow<'a, str>> {
        self.decode(Kind::Str, Reader::str)
    }

    /// The number.
    pub fn as_number(self) -> Option<f64> {
        self.decode(Kind::Number, Reader::num)
    }

    /// `true` or `false`.
    pub fn as_bool(self) -> Option<bool> {
        self.decode(Kind::Bool, Reader::bool)
    }

    /// Whether this is `null`.
    pub fn is_null(self) -> bool {
        self.0 == "null"
    }

    /// The object's members.
    pub fn as_object(self) -> Option<Obj<'a>> {
        self.decode(Kind::Object, Obj::read)
    }

    /// A reader inside the array, before its first item.
    fn array(self) -> Option<Reader<'a>> {
        let mut r = Reader::new(self.0);
        take(&mut r, Kind::Array, Reader::begin_array)?;
        Some(r)
    }

    /// The array's items.
    pub fn items(self) -> Option<impl Iterator<Item = Raw<'a>>> {
        let mut r = self.array()?;
        Some(std::iter::from_fn(move || match r.next_item() {
            Ok(true) => r.skip().ok().map(Raw),
            _ => None,
        }))
    }
}

/// Which way a message travels. Requests are validated strictly (u53
/// integers, finite floats); replies and events are read leniently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// Client to daemon.
    Request,
    /// Daemon to client: replies and pushed events.
    Reply,
}

/// A value carried as one field of a JSON object.
pub trait Field: Sized {
    /// Append `"key":value` to an object under construction, preceded
    /// by a comma unless the object was just opened.
    fn write(&self, out: &mut String, key: &str);
    /// Read field `key` of `obj`.
    fn read(obj: &Obj<'_>, key: &str, dir: Dir) -> Result<Self, String>;
}

/// A struct carried as a JSON object. The table's `struct` items
/// implement it; a `flat struct` spreads its fields into the enclosing
/// object instead of nesting one under its key.
pub trait Record: Sized {
    /// Whether the fields sit in the enclosing object.
    const FLAT: bool;
    /// Append every field, as [`Field::write`] does.
    fn write_fields(&self, out: &mut String);
    /// Read every field from `obj`.
    fn read_fields(obj: &Obj<'_>) -> Result<Self, String>;
}

/// Append the comma that separates object members, unless the object
/// was just opened.
#[inline]
pub fn sep(out: &mut String) {
    if !out.ends_with('{') {
        out.push(',');
    }
}

/// Append `"key":`, preceded by [`sep`].
#[inline]
pub fn key(out: &mut String, key: &str) {
    sep(out);
    json::escape_into(out, key);
    out.push(':');
}

#[inline]
fn push_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{x}");
    } else {
        out.push_str("null");
    }
}

/// Array field `k`, each entry read from the array's reader by `item`,
/// which fails for an entry that is not `what`.
fn array<'a, T>(
    obj: &Obj<'a>,
    k: &str,
    what: &str,
    item: impl Fn(&mut Reader<'a>) -> Option<T>,
) -> Result<Vec<T>, String> {
    let mut r =
        obj.get(k).and_then(Raw::array).ok_or_else(|| format!("missing array field {k:?}"))?;
    let mut items = Vec::new();
    while r.next_item() == Ok(true) {
        items.push(item(&mut r).ok_or_else(|| format!("{k:?} entry is not {what}"))?);
    }
    Ok(items)
}

fn write_array<T>(out: &mut String, k: &str, items: &[T], item: impl Fn(&mut String, &T)) {
    key(out, k);
    out.push('[');
    for (i, v) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item(out, v);
    }
    out.push(']');
}

impl Field for String {
    #[inline]
    fn write(&self, out: &mut String, k: &str) {
        key(out, k);
        json::escape_into(out, self);
    }
    #[inline]
    fn read(obj: &Obj<'_>, k: &str, _: Dir) -> Result<String, String> {
        obj.get(k)
            .and_then(Raw::as_str)
            .map(Cow::into_owned)
            .ok_or_else(|| format!("missing string field {k:?}"))
    }
}

impl Field for Option<String> {
    #[inline]
    fn write(&self, out: &mut String, k: &str) {
        key(out, k);
        match self {
            Some(s) => json::escape_into(out, s),
            None => out.push_str("null"),
        }
    }
    #[inline]
    fn read(obj: &Obj<'_>, k: &str, _: Dir) -> Result<Option<String>, String> {
        Ok(obj.get(k).and_then(Raw::as_str).map(Cow::into_owned))
    }
}

impl Field for u64 {
    #[inline]
    fn write(&self, out: &mut String, k: &str) {
        key(out, k);
        let _ = write!(out, "{self}");
    }
    #[inline]
    fn read(obj: &Obj<'_>, k: &str, dir: Dir) -> Result<u64, String> {
        let n = obj.get(k).and_then(Raw::as_number);
        match dir {
            Dir::Reply => n.map(|n| n as u64).ok_or_else(|| format!("missing number {k:?}")),
            Dir::Request => {
                let n = n.ok_or_else(|| format!("missing numeric field {k:?}"))?;
                if n < 0.0 || n.fract() != 0.0 || n > (1u64 << 53) as f64 {
                    return Err(format!("field {k:?} is not a u53 integer"));
                }
                Ok(n as u64)
            }
        }
    }
}

impl Field for f64 {
    #[inline]
    fn write(&self, out: &mut String, k: &str) {
        key(out, k);
        push_f64(out, *self);
    }
    /// A reply reads the `null` a non-finite value was written as back
    /// as NaN, which is also what the binary encoding carries.
    #[inline]
    fn read(obj: &Obj<'_>, k: &str, dir: Dir) -> Result<f64, String> {
        let v = obj.get(k);
        match (dir, v.and_then(Raw::as_number)) {
            (Dir::Request, Some(n)) if n.is_finite() => Ok(n),
            (Dir::Request, _) => Err(format!("missing finite numeric field {k:?}")),
            (Dir::Reply, Some(n)) if n.is_finite() => Ok(n),
            (Dir::Reply, Some(_)) => Ok(f64::NAN),
            (Dir::Reply, None) if v.is_some_and(Raw::is_null) => Ok(f64::NAN),
            (Dir::Reply, None) => Err(format!("missing number {k:?}")),
        }
    }
}

impl Field for bool {
    #[inline]
    fn write(&self, out: &mut String, k: &str) {
        key(out, k);
        out.push_str(if *self { "true" } else { "false" });
    }
    #[inline]
    fn read(obj: &Obj<'_>, k: &str, _: Dir) -> Result<bool, String> {
        obj.get(k).and_then(Raw::as_bool).ok_or_else(|| format!("missing bool field {k:?}"))
    }
}

impl Field for Vec<String> {
    #[inline]
    fn write(&self, out: &mut String, k: &str) {
        write_array(out, k, self, |out, s| json::escape_into(out, s));
    }
    #[inline]
    fn read(obj: &Obj<'_>, k: &str, _: Dir) -> Result<Vec<String>, String> {
        array(obj, k, "a string", |r| take(r, Kind::Str, Reader::str).map(Cow::into_owned))
    }
}

/// The `number` reply's value: absent and non-finite both travel as
/// `null` and read back as `None`.
impl Field for Option<f64> {
    #[inline]
    fn write(&self, out: &mut String, k: &str) {
        key(out, k);
        push_f64(out, self.unwrap_or(f64::NAN));
    }
    #[inline]
    fn read(obj: &Obj<'_>, k: &str, _: Dir) -> Result<Option<f64>, String> {
        Ok(obj.get(k).and_then(Raw::as_number))
    }
}

impl Field for Vec<(String, String)> {
    #[inline]
    fn write(&self, out: &mut String, k: &str) {
        write_array(out, k, self, |out, (a, b)| {
            out.push('[');
            json::escape_into(out, a);
            out.push(',');
            json::escape_into(out, b);
            out.push(']');
        });
    }
    #[inline]
    fn read(obj: &Obj<'_>, k: &str, _: Dir) -> Result<Vec<(String, String)>, String> {
        array(obj, k, "a [key, value] pair", |r| {
            take(r, Kind::Array, Reader::begin_array)?;
            let mut next =
                || (r.next_item() == Ok(true)).then(|| take(r, Kind::Str, Reader::str)).flatten();
            let pair = (next()?.into_owned(), next()?.into_owned());
            (r.next_item() == Ok(false)).then_some(pair)
        })
    }
}

impl<R: Record> Field for R {
    #[inline]
    fn write(&self, out: &mut String, k: &str) {
        if R::FLAT {
            return self.write_fields(out);
        }
        key(out, k);
        out.push('{');
        self.write_fields(out);
        out.push('}');
    }
    #[inline]
    fn read(obj: &Obj<'_>, k: &str, _: Dir) -> Result<R, String> {
        if R::FLAT {
            return R::read_fields(obj);
        }
        R::read_fields(
            &obj.get(k)
                .and_then(Raw::as_object)
                .ok_or_else(|| format!("missing object field {k:?}"))?,
        )
    }
}

/// A record that may be missing, tagged by a `found` member.
impl<R: Record> Field for Option<R> {
    #[inline]
    fn write(&self, out: &mut String, k: &str) {
        self.is_some().write(out, "found");
        if let Some(r) = self {
            r.write(out, k);
        }
    }
    #[inline]
    fn read(obj: &Obj<'_>, k: &str, dir: Dir) -> Result<Option<R>, String> {
        Ok(if bool::read(obj, "found", dir)? { Some(R::read(obj, k, dir)?) } else { None })
    }
}

impl<R: Record> Field for Vec<R> {
    #[inline]
    fn write(&self, out: &mut String, k: &str) {
        write_array(out, k, self, |out, r| {
            out.push('{');
            r.write_fields(out);
            out.push('}');
        });
    }
    #[inline]
    fn read(obj: &Obj<'_>, k: &str, _: Dir) -> Result<Vec<R>, String> {
        array(obj, k, "an object", |r| take(r, Kind::Object, Obj::read))?
            .iter()
            .map(R::read_fields)
            .collect()
    }
}

/// The `metrics` payload: the snapshot's `counters`, `gauges` and
/// `histograms` objects, spread into the reply. It sits here rather
/// than in `xpdl-serve`, which sends it, because an impl must live in
/// the crate of the trait or of the type, and `MetricsSnapshot` is
/// `xpdl-obs`'s.
impl Record for MetricsSnapshot {
    const FLAT: bool = true;

    fn write_fields(&self, out: &mut String) {
        let body = self.to_json();
        sep(out);
        out.push_str(&body[1..body.len() - 1]);
    }

    fn read_fields(obj: &Obj<'_>) -> Result<MetricsSnapshot, String> {
        let entries = |k: &str| -> Result<Obj<'_>, String> {
            obj.get(k).and_then(Raw::as_object).ok_or(format!("missing object {k:?}"))
        };
        let int_map = |k: &str| -> Result<std::collections::BTreeMap<String, u64>, String> {
            entries(k)?
                .0
                .iter()
                .map(|(name, v)| {
                    let n = v.as_number().ok_or(format!("{k}.{name} is not a number"))?;
                    Ok((name.to_string(), n as u64))
                })
                .collect()
        };
        let mut histograms = std::collections::BTreeMap::new();
        for (name, v) in entries("histograms")?.0 {
            let h = v.as_object().ok_or(format!("histogram {name:?} is not an object"))?;
            let mut buckets = Vec::new();
            for pair in h
                .get("buckets")
                .and_then(Raw::items)
                .ok_or(format!("histogram {name:?} missing buckets"))?
            {
                let bc: Vec<Raw<'_>> = pair
                    .items()
                    .map(Iterator::collect)
                    .filter(|a: &Vec<_>| a.len() == 2)
                    .ok_or("bucket is not a pair")?;
                let idx = bc[0].as_number().ok_or("bucket index not a number")? as u64;
                let count = bc[1].as_number().ok_or("bucket count not a number")? as u64;
                buckets.push((idx.min(u8::MAX as u64) as u8, count));
            }
            let count = u64::read(&h, "count", Dir::Reply)?;
            let sum = u64::read(&h, "sum", Dir::Reply)?;
            histograms.insert(name.into_owned(), HistogramSnapshot { count, sum, buckets });
        }
        Ok(MetricsSnapshot {
            counters: int_map("counters")?,
            gauges: int_map("gauges")?,
            histograms,
        })
    }
}

// ---- envelope ----

/// What differs between the two daemons' envelopes.
#[derive(Debug)]
pub struct Envelope {
    /// The protocol version (`"v"`).
    pub version: u64,
    /// How the version error names the protocol.
    pub name: &'static str,
    /// Whether requests carry an optional `"shard"` string.
    pub shard_key: bool,
    /// Code for an unparseable envelope.
    pub bad_request: &'static str,
    /// Code for a method name not in the table.
    pub unknown_method: &'static str,
    /// Code for missing or mistyped params.
    pub invalid_params: &'static str,
    /// Code for a `"v"` other than [`Envelope::version`].
    pub bad_version: &'static str,
}

/// A request that failed to parse: the id if it was readable, an error
/// code and a message.
pub type RequestError = (Option<u64>, &'static str, String);

/// A parsed request envelope.
#[derive(Debug)]
pub struct Parsed<M> {
    /// Correlation id.
    pub id: u64,
    /// The method with its params.
    pub method: M,
    /// The `"shard"` key, when the envelope carries one.
    pub shard: Option<String>,
}

/// Message readers generated by the tables: the message named `name`
/// from the fields of `obj`, `None` when no message has that name.
pub type ReadFn<M> = fn(&str, &Obj<'_>) -> Result<Option<M>, String>;

impl Envelope {
    /// `{"v":..,"id":..,"method":..[,"shard":..][,"params":{..}]}`; the
    /// `params` object is left out when `params` writes no field.
    pub fn write_request(
        &self,
        id: u64,
        method: &str,
        shard: Option<&str>,
        params: impl FnOnce(&mut String),
    ) -> String {
        let mut s = String::with_capacity(96);
        let _ = write!(s, "{{\"v\":{},\"id\":{id},\"method\":", self.version);
        json::escape_into(&mut s, method);
        if let Some(shard) = shard {
            s.push_str(",\"shard\":");
            json::escape_into(&mut s, shard);
        }
        let mark = s.len();
        s.push_str(",\"params\":{");
        params(&mut s);
        if s.ends_with('{') {
            s.truncate(mark);
        } else {
            s.push('}');
        }
        s.push('}');
        s
    }

    /// `{"v":..,"id":..,"ok":{"kind":..<fields>}}`.
    pub fn write_ok(&self, id: u64, kind: &str, fields: impl FnOnce(&mut String)) -> String {
        self.write_tagged(Some(id), "ok", kind, fields)
    }

    /// `{"v":..,"event":{"kind":..<fields>}}`.
    pub fn write_event(&self, kind: &str, fields: impl FnOnce(&mut String)) -> String {
        self.write_tagged(None, "event", kind, fields)
    }

    fn write_tagged(
        &self,
        id: Option<u64>,
        tag: &str,
        kind: &str,
        fields: impl FnOnce(&mut String),
    ) -> String {
        let mut s = String::with_capacity(96);
        let _ = write!(s, "{{\"v\":{},", self.version);
        if let Some(id) = id {
            let _ = write!(s, "\"id\":{id},");
        }
        let _ = write!(s, "\"{tag}\":{{\"kind\":");
        json::escape_into(&mut s, kind);
        fields(&mut s);
        s.push_str("}}");
        s
    }

    /// `{"v":..,"id":..,"error":{"code":..,"message":..}}`.
    pub fn write_error(&self, id: u64, code: &str, message: &str) -> String {
        let mut s = String::with_capacity(96);
        let _ = write!(s, "{{\"v\":{},\"id\":{id},\"error\":{{\"code\":", self.version);
        json::escape_into(&mut s, code);
        s.push_str(",\"message\":");
        json::escape_into(&mut s, message);
        s.push_str("}}");
        s
    }

    /// Parse one request line. The checks run in a fixed order — JSON,
    /// id, version, method name, params object, method and params, shard
    /// key — and every failure after the id carries it.
    pub fn parse_request<M>(&self, line: &str, read: ReadFn<M>) -> Result<Parsed<M>, RequestError> {
        let bad = |id, detail: &str| (id, self.bad_request, format!("malformed request: {detail}"));
        let obj = Obj::parse(line)
            .map_err(|e| bad(None, &e))?
            .ok_or_else(|| bad(None, "request is not a JSON object"))?;
        let id = obj
            .get("id")
            .and_then(Raw::as_number)
            .filter(|n| *n >= 0.0 && n.fract() == 0.0)
            .map(|n| n as u64)
            .ok_or_else(|| bad(None, "missing or non-integer \"id\""))?;
        if obj.get("v").and_then(Raw::as_number) != Some(self.version as f64) {
            let msg = format!("unsupported {} version (want {})", self.name, self.version);
            return Err((Some(id), self.bad_version, msg));
        }
        let name = obj
            .get("method")
            .and_then(Raw::as_str)
            .ok_or_else(|| bad(Some(id), "missing \"method\""))?;
        let invalid =
            |detail: &str| (Some(id), self.invalid_params, format!("invalid params: {detail}"));
        let params = match obj.get("params") {
            None => Obj::default(),
            Some(p) => p.as_object().ok_or_else(|| invalid("\"params\" is not an object"))?,
        };
        let method = read(&name, &params)
            .map_err(|e| invalid(&e))?
            .ok_or_else(|| (Some(id), self.unknown_method, format!("unknown method {name:?}")))?;
        let shard = match obj.get("shard") {
            Some(v) if self.shard_key && !v.is_null() => Some(
                v.as_str().ok_or_else(|| bad(Some(id), "\"shard\" is not a string"))?.into_owned(),
            ),
            _ => None,
        };
        Ok(Parsed { id, method, shard })
    }

    /// Parse one response line into its id and either the reply or the
    /// error's `(code, message)`.
    #[allow(clippy::type_complexity)]
    pub fn parse_response<R>(
        &self,
        line: &str,
        read: ReadFn<R>,
    ) -> Result<(u64, Result<R, (String, String)>), String> {
        let obj = Obj::parse(line)?.ok_or("response is not a JSON object")?;
        let version = obj.get("v").and_then(Raw::as_number);
        if version != Some(self.version as f64) {
            return Err(format!("unsupported response version {version:?}"));
        }
        let id = obj
            .get("id")
            .and_then(Raw::as_number)
            .filter(|n| *n >= 0.0 && n.fract() == 0.0)
            .ok_or("missing response id")? as u64;
        if let Some(err) = obj.get("error") {
            let err = err.as_object().ok_or("error is not an object")?;
            let code = String::read(&err, "code", Dir::Reply)?;
            return Ok((id, Err((code, String::read(&err, "message", Dir::Reply)?))));
        }
        let ok =
            obj.get("ok").and_then(Raw::as_object).ok_or("response has neither ok nor error")?;
        Ok((id, Ok(read_tagged(&ok, "reply", read)?)))
    }

    /// Probe a line for a pushed event: `Ok(None)` when it has no
    /// `"event"` member.
    pub fn parse_event<E>(&self, line: &str, read: ReadFn<E>) -> Result<Option<E>, String> {
        let obj = Obj::parse(line)?.ok_or("event line is not a JSON object")?;
        let Some(ev) = obj.get("event") else {
            return Ok(None);
        };
        read_tagged(&ev.as_object().ok_or("\"event\" is not an object")?, "event", read).map(Some)
    }
}

/// Read a message tagged by its `"kind"` member.
fn read_tagged<T>(obj: &Obj<'_>, what: &str, read: ReadFn<T>) -> Result<T, String> {
    let kind = obj.get("kind").and_then(Raw::as_str).ok_or(format!("{what} has no kind tag"))?;
    read(&kind, obj)?.ok_or_else(|| format!("unknown {what} kind {kind:?}"))
}

/// One daemon's message table: records, then enums. Expands each item
/// into its Rust type and its JSON form.
///
/// ```text
/// /// docs                          // a record: a struct whose JSON is an object
/// #[derive(...)]
/// pub [flat] struct Name { /// docs
///                          pub field: Type [= "wire key"], ... }
///
/// /// docs                          // a message enum, read as Request or Reply
/// #[derive(...)]
/// pub enum Name: Request|Reply {
///     /// docs
///     Unit [= 0xNN] "wire_name",
///     Struct [= 0xNN] "wire_name" { /// docs
///                                   field: Type, ... },
///     Tuple [= 0xNN] "wire_name" (key: Type),
/// }
/// ```
///
/// Frame codes are ignored here; `xpdl-serve` expands the same table
/// into its binary codec, which reads them. A tuple variant's `key` is
/// its JSON member name; a flat record ignores it. Every enum gets
/// `name()`, `write_fields` (its fields as [`Field::write`] appends
/// them) and `read_fields` (a [`ReadFn`]).
#[macro_export]
macro_rules! wire_messages {
    () => {};
    (
        @record $flat:literal, $(#[$m:meta])* $vis:vis $R:ident {
            $( $(#[$fm:meta])* $fvis:vis $f:ident : $FT:ty $(= $fkey:literal)? ),* $(,)?
        }
    ) => {
        $(#[$m])*
        $vis struct $R { $( $(#[$fm])* $fvis $f: $FT, )* }

        impl $crate::wire::Record for $R {
            const FLAT: bool = $flat;
            fn write_fields(&self, out: &mut String) {
                $( $crate::wire::Field::write(&self.$f, out, [$($fkey,)? stringify!($f)][0]); )*
            }
            fn read_fields(obj: &$crate::wire::Obj<'_>) -> Result<Self, String> {
                Ok($R { $(
                    $f: $crate::wire::Field::read(
                        obj, [$($fkey,)? stringify!($f)][0], $crate::wire::Dir::Reply,
                    )?,
                )* })
            }
        }
    };
    (
        $(#[$m:meta])* $vis:vis struct $R:ident { $($body:tt)* } $($rest:tt)*
    ) => {
        $crate::wire_messages!(@record false, $(#[$m])* $vis $R { $($body)* });
        $crate::wire_messages!($($rest)*);
    };
    (
        $(#[$m:meta])* $vis:vis flat struct $R:ident { $($body:tt)* } $($rest:tt)*
    ) => {
        $crate::wire_messages!(@record true, $(#[$m])* $vis $R { $($body)* });
        $crate::wire_messages!($($rest)*);
    };
    (
        $(#[$m:meta])* $vis:vis enum $E:ident : $dir:ident {
            $(
                $(#[$vm:meta])* $V:ident $(= $code:literal)? $name:literal
                $( { $( $(#[$fm:meta])* $f:ident : $FT:ty ),* $(,)? } )?
                $( ( $t:ident : $TT:ty ) )?
            ),* $(,)?
        }
        $($rest:tt)*
    ) => {
        $(#[$m])*
        $vis enum $E {
            $( $(#[$vm])* $V $({ $( $(#[$fm])* $f: $FT ),* })? $(($TT))?, )*
        }

        impl $E {
            /// The wire name of this message.
            pub fn name(&self) -> &'static str {
                match self {
                    $( Self::$V { .. } => $name, )*
                }
            }

            /// Append this message's fields to a JSON object.
            pub(crate) fn write_fields(&self, out: &mut String) {
                match self {
                    $( Self::$V $({ $($f),* })? $(($t))? => {
                        $($( $crate::wire::Field::write($f, out, stringify!($f)); )*)?
                        $( $crate::wire::Field::write($t, out, stringify!($t)); )?
                    } )*
                }
            }

            /// The message named `name`, read from the fields of `obj`.
            pub(crate) fn read_fields(
                name: &str,
                obj: &$crate::wire::Obj<'_>,
            ) -> Result<Option<Self>, String> {
                let dir = $crate::wire::Dir::$dir;
                Ok(Some(match name {
                    $( $name => Self::$V
                        $({ $( $f: $crate::wire::Field::read(obj, stringify!($f), dir)? ),* })?
                        $(( $crate::wire::Field::read(obj, stringify!($t), dir)? ))?,
                    )*
                    _ => return Ok(None),
                }))
            }
        }

        $crate::wire_messages!($($rest)*);
    };
}
