//! Unified, source-located diagnostics for the whole toolchain.
//!
//! Every stage of the pipeline — parse, schema validation, repository
//! resolution, elaboration — reports findings as [`Diagnostic`]s on this
//! one type, so tools can accumulate problems across stages and present
//! them together instead of aborting at the first error. A diagnostic
//! carries:
//!
//! * a [`Severity`] class,
//! * a stable machine-readable `code` (see the taxonomy in DESIGN.md:
//!   `P0xx` parse, `V1xx` validation, `E2xx` elaboration, `R3xx`
//!   repository; empty for legacy/uncategorized findings),
//! * the slash-separated element `path` from the document root,
//! * an optional source [`Span`] (line:col provenance from `xpdl-xml`),
//! * the human-readable `message`, and free-form `notes`.
//!
//! [`DiagSink`] is the accumulator threaded through fail-soft runs: it
//! caps the number of retained errors (`--max-errors`) while still
//! counting everything, and [`diagnostics_to_json`] /
//! [`parse_diagnostics_json`] provide the stable machine-readable format
//! behind `xpdlc --diag-format=json`.

use std::fmt;
use xpdl_xml::{Pos, Span};

/// Severity of a diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational note (e.g. extensibility escape hatch in use).
    Info,
    /// Suspicious but permitted (unknown attribute, unknown tag).
    Warning,
    /// Violates the core metamodel or prevents elaboration.
    Error,
}

impl Severity {
    /// Parse the lowercase name used in the JSON format.
    pub fn parse(s: &str) -> Option<Severity> {
        match s {
            "info" => Some(Severity::Info),
            "warning" => Some(Severity::Warning),
            "error" => Some(Severity::Error),
            _ => None,
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Info => write!(f, "info"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One finding, from any pipeline stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Severity class.
    pub severity: Severity,
    /// Stable machine-readable code (`"V107"`); empty = uncategorized.
    pub code: String,
    /// Slash-separated element path from the root, e.g.
    /// `system[liu_gpu_server]/interconnects/interconnect[connection1]`.
    pub path: String,
    /// Source span in the originating descriptor, when known.
    pub span: Option<Span>,
    /// Human-readable message.
    pub message: String,
    /// Additional free-form notes (rendered one per line).
    pub notes: Vec<String>,
}

impl Diagnostic {
    fn new(severity: Severity, path: impl Into<String>, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            severity,
            code: String::new(),
            path: path.into(),
            span: None,
            message: message.into(),
            notes: Vec::new(),
        }
    }

    /// Construct an error.
    pub fn error(path: impl Into<String>, message: impl Into<String>) -> Diagnostic {
        Diagnostic::new(Severity::Error, path, message)
    }

    /// Construct a warning.
    pub fn warning(path: impl Into<String>, message: impl Into<String>) -> Diagnostic {
        Diagnostic::new(Severity::Warning, path, message)
    }

    /// Construct an info note.
    pub fn info(path: impl Into<String>, message: impl Into<String>) -> Diagnostic {
        Diagnostic::new(Severity::Info, path, message)
    }

    /// Builder: attach a stable code.
    pub fn with_code(mut self, code: impl Into<String>) -> Diagnostic {
        self.code = code.into();
        self
    }

    /// Builder: attach a source span. The all-default span (an element
    /// built programmatically, never parsed) counts as "no location".
    pub fn with_span(mut self, span: Span) -> Diagnostic {
        if span != Span::default() {
            self.span = Some(span);
        }
        self
    }

    /// Builder: append a note line.
    pub fn with_note(mut self, note: impl Into<String>) -> Diagnostic {
        self.notes.push(note.into());
        self
    }

    /// Whether this is an error.
    pub fn is_error(&self) -> bool {
        self.severity == Severity::Error
    }

    /// The start position, when located.
    pub fn pos(&self) -> Option<Pos> {
        self.span.map(|s| s.start)
    }

    /// Serialize this diagnostic as one stable JSON object.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(128);
        s.push_str("{\"severity\":");
        json_string(&mut s, &self.severity.to_string());
        s.push_str(",\"code\":");
        json_string(&mut s, &self.code);
        s.push_str(",\"path\":");
        json_string(&mut s, &self.path);
        s.push_str(",\"span\":");
        match self.span {
            None => s.push_str("null"),
            Some(sp) => {
                s.push_str(&format!(
                    "{{\"start\":{{\"offset\":{},\"line\":{},\"col\":{}}},\
                     \"end\":{{\"offset\":{},\"line\":{},\"col\":{}}}}}",
                    sp.start.offset, sp.start.line, sp.start.col,
                    sp.end.offset, sp.end.line, sp.end.col,
                ));
            }
        }
        s.push_str(",\"message\":");
        json_string(&mut s, &self.message);
        s.push_str(",\"notes\":[");
        for (i, n) in self.notes.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            json_string(&mut s, n);
        }
        s.push_str("]}");
        s
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.severity)?;
        if !self.code.is_empty() {
            write!(f, "[{}]", self.code)?;
        }
        write!(f, ": {}", self.path)?;
        if let Some(span) = self.span {
            write!(f, " ({})", span.start)?;
        }
        write!(f, ": {}", self.message)?;
        for note in &self.notes {
            write!(f, "\n  note: {note}")?;
        }
        Ok(())
    }
}

/// Summary helpers over a diagnostic list.
pub trait DiagnosticsExt {
    /// Count of errors.
    fn error_count(&self) -> usize;
    /// Count of warnings.
    fn warning_count(&self) -> usize;
    /// Whether the set is free of errors (warnings allowed).
    fn is_valid(&self) -> bool {
        self.error_count() == 0
    }
}

impl DiagnosticsExt for [Diagnostic] {
    fn error_count(&self) -> usize {
        self.iter().filter(|d| d.is_error()).count()
    }

    fn warning_count(&self) -> usize {
        self.iter().filter(|d| d.severity == Severity::Warning).count()
    }
}

/// Accumulator for fail-soft runs: collects diagnostics across stages and
/// caps the number of *retained* errors without losing the total count.
#[derive(Debug, Clone, Default)]
pub struct DiagSink {
    diags: Vec<Diagnostic>,
    /// Retain at most this many errors (0 = unlimited). Warnings and infos
    /// are never capped.
    max_errors: usize,
    /// Errors seen past the cap (counted, not retained).
    suppressed: usize,
}

impl DiagSink {
    /// An unbounded sink.
    pub fn new() -> DiagSink {
        DiagSink::default()
    }

    /// A sink retaining at most `max_errors` errors (0 = unlimited).
    pub fn with_max_errors(max_errors: usize) -> DiagSink {
        DiagSink { max_errors, ..DiagSink::default() }
    }

    /// Add one diagnostic, honoring the error cap.
    pub fn push(&mut self, d: Diagnostic) {
        if d.is_error() && self.saturated() {
            self.suppressed += 1;
            return;
        }
        self.diags.push(d);
    }

    /// Add many.
    pub fn extend(&mut self, diags: impl IntoIterator<Item = Diagnostic>) {
        for d in diags {
            self.push(d);
        }
    }

    /// Whether the error cap has been reached.
    pub fn saturated(&self) -> bool {
        self.max_errors > 0 && self.error_count() >= self.max_errors
    }

    /// Retained errors.
    pub fn error_count(&self) -> usize {
        self.diags.error_count()
    }

    /// Total errors seen, including suppressed ones.
    pub fn total_errors(&self) -> usize {
        self.error_count() + self.suppressed
    }

    /// Errors dropped by the cap.
    pub fn suppressed(&self) -> usize {
        self.suppressed
    }

    /// Retained warnings.
    pub fn warning_count(&self) -> usize {
        self.diags.warning_count()
    }

    /// No errors seen at all (warnings allowed).
    pub fn is_clean(&self) -> bool {
        self.total_errors() == 0
    }

    /// Retained diagnostics, in insertion order.
    pub fn as_slice(&self) -> &[Diagnostic] {
        &self.diags
    }

    /// Sort retained diagnostics by source position (unlocated last),
    /// breaking ties by path — the order `xpdlc` reports in.
    pub fn sort_by_location(&mut self) {
        self.diags.sort_by(|a, b| {
            let ka = a.span.map(|s| s.start.offset).unwrap_or(usize::MAX);
            let kb = b.span.map(|s| s.start.offset).unwrap_or(usize::MAX);
            ka.cmp(&kb).then_with(|| a.path.cmp(&b.path))
        });
    }

    /// Consume into the retained diagnostics.
    pub fn into_vec(self) -> Vec<Diagnostic> {
        self.diags
    }
}

/// Serialize a diagnostic list as the stable `--diag-format=json` document:
/// `{"version":1,"diagnostics":[…],"summary":{…}}`.
pub fn diagnostics_to_json(diags: &[Diagnostic]) -> String {
    let mut s = String::with_capacity(64 + diags.len() * 128);
    s.push_str("{\"version\":1,\"diagnostics\":[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&d.to_json());
    }
    let infos = diags.len() - diags.error_count() - diags.warning_count();
    s.push_str(&format!(
        "],\"summary\":{{\"errors\":{},\"warnings\":{},\"infos\":{}}}}}",
        diags.error_count(),
        diags.warning_count(),
        infos
    ));
    s
}

/// Parse a `--diag-format=json` document back into diagnostics. The
/// inverse of [`diagnostics_to_json`]: `parse(to_json(d)) == d`.
pub fn parse_diagnostics_json(src: &str) -> Result<Vec<Diagnostic>, String> {
    let value = json::parse(src)?;
    let obj = value.as_object().ok_or("top level is not an object")?;
    let list = json::get(obj, "diagnostics")
        .and_then(json::JsonValue::as_array)
        .ok_or("missing \"diagnostics\" array")?;
    list.iter().map(diagnostic_from_json).collect()
}

fn diagnostic_from_json(v: &json::JsonValue) -> Result<Diagnostic, String> {
    let obj = v.as_object().ok_or("diagnostic is not an object")?;
    let field = |k: &str| -> Result<String, String> {
        json::get(obj, k)
            .and_then(json::JsonValue::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("missing string field {k:?}"))
    };
    let severity =
        Severity::parse(&field("severity")?).ok_or_else(|| "bad severity".to_string())?;
    let span = match json::get(obj, "span") {
        None | Some(json::JsonValue::Null) => None,
        Some(sp) => Some(span_from_json(sp)?),
    };
    let notes = match json::get(obj, "notes").and_then(json::JsonValue::as_array) {
        None => Vec::new(),
        Some(items) => items
            .iter()
            .map(|n| n.as_str().map(str::to_string).ok_or_else(|| "non-string note".to_string()))
            .collect::<Result<_, _>>()?,
    };
    Ok(Diagnostic {
        severity,
        code: field("code")?,
        path: field("path")?,
        span,
        message: field("message")?,
        notes,
    })
}

fn span_from_json(v: &json::JsonValue) -> Result<Span, String> {
    let obj = v.as_object().ok_or("span is not an object")?;
    let pos = |k: &str| -> Result<Pos, String> {
        let p = json::get(obj, k)
            .and_then(json::JsonValue::as_object)
            .ok_or_else(|| format!("missing span position {k:?}"))?;
        let num = |f: &str| -> Result<f64, String> {
            json::get(p, f)
                .and_then(json::JsonValue::as_number)
                .ok_or_else(|| format!("missing span field {f:?}"))
        };
        Ok(Pos::new(num("offset")? as usize, num("line")? as u32, num("col")? as u32))
    };
    Ok(Span::new(pos("start")?, pos("end")?))
}

fn json_string(out: &mut String, s: &str) {
    json::escape_into(out, s);
}

/// A minimal JSON reader/writer — just enough for the diagnostics
/// format, both daemons' wire protocols and other small machine-readable
/// documents elsewhere in the workspace (e.g. the persistent model-cache
/// entry header), without an external serialization dependency (the
/// workspace builds offline; see DESIGN.md "Offline dependency shims").
///
/// All reading goes through one pull lexer, [`Reader`](json::Reader),
/// which looks at each byte once. [`parse`](json::parse) builds a
/// [`JsonValue`](json::JsonValue) tree from it; the wire codecs pull
/// their fields from it without building one. The reading rules (listed
/// for the wire in docs/WIRE.md §2):
///
/// - Whitespace is space, tab, `\n` and `\r`. Nothing may follow the
///   document but whitespace.
/// - A number is the longest run of `0-9+-.eE`, read by `str::parse` as
///   an `f64`: `+1`, `.5`, `1.` and `-0` read, `1e999` reads as infinity,
///   and an integer above 2^53 rounds.
/// - `\uXXXX` decodes one UTF-16 unit with `u32::from_str_radix` (which
///   also takes a leading `+`); a surrogate, paired or not, reads as
///   U+FFFD. Control characters may appear raw in a string.
/// - Nesting deeper than 64 arrays and objects is an error.
pub mod json {
    use std::borrow::Cow;

    /// A parsed JSON value.
    pub enum JsonValue {
        /// `null`.
        Null,
        /// `true`/`false`.
        Bool(bool),
        /// Any number (parsed as `f64`; integers beyond 2^53 lose
        /// precision — serialize those as strings instead).
        Number(f64),
        /// A string.
        Str(String),
        /// An array.
        Array(Vec<JsonValue>),
        /// An object, as insertion-ordered key/value pairs.
        Object(Vec<(String, JsonValue)>),
    }

    /// Append `s` to `out` as a quoted, escaped JSON string literal.
    pub fn escape_into(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
    }

    impl JsonValue {
        /// The string payload, if this is a string.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                JsonValue::Str(s) => Some(s),
                _ => None,
            }
        }

        /// The boolean payload, if this is `true` or `false`.
        pub fn as_bool(&self) -> Option<bool> {
            match self {
                JsonValue::Bool(b) => Some(*b),
                _ => None,
            }
        }

        /// The numeric payload, if this is a number.
        pub fn as_number(&self) -> Option<f64> {
            match self {
                JsonValue::Number(n) => Some(*n),
                _ => None,
            }
        }

        /// The items, if this is an array.
        pub fn as_array(&self) -> Option<&[JsonValue]> {
            match self {
                JsonValue::Array(a) => Some(a),
                _ => None,
            }
        }

        /// The key/value pairs, if this is an object.
        pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
            match self {
                JsonValue::Object(o) => Some(o),
                _ => None,
            }
        }
    }

    /// First value for `key` in an object's field list.
    pub fn get<'a>(obj: &'a [(String, JsonValue)], key: &str) -> Option<&'a JsonValue> {
        obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Parse a complete JSON document (no trailing content allowed).
    pub fn parse(src: &str) -> Result<JsonValue, String> {
        let mut r = Reader::new(src);
        let v = r.tree()?;
        r.finish()?;
        Ok(v)
    }

    const MAX_DEPTH: usize = 64;

    /// What the next value is, told by its first byte.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Kind {
        /// `null`.
        Null,
        /// `true` or `false`.
        Bool,
        /// A number: any first byte not claimed by another kind.
        Number,
        /// A string.
        Str,
        /// An array.
        Array,
        /// An object.
        Object,
    }

    /// A pull lexer over one JSON document.
    ///
    /// Each call reads the value at the cursor, or one step into or out
    /// of an array or object, and moves past it. After
    /// [`begin_array`](Reader::begin_array), call
    /// [`next_item`](Reader::next_item) before each item and read the
    /// item; it returns `false` once it has read the closing `]`. Objects
    /// go the same way with [`begin_object`](Reader::begin_object) and
    /// [`next_key`](Reader::next_key). A string without escapes comes
    /// back borrowed from the source, and [`skip`](Reader::skip) checks a
    /// value without building it. Errors carry the messages of
    /// [`parse`]; after one, the reader's position is unspecified.
    ///
    /// ```
    /// use xpdl_core::diag::json::{Kind, Reader};
    ///
    /// let mut r = Reader::new(r#"{"ids":["a","b\n"],"skip":{"x":[1]},"n":2}"#);
    /// let mut ids = Vec::new();
    /// r.begin_object()?;
    /// while let Some(key) = r.next_key()? {
    ///     match &*key {
    ///         "ids" => {
    ///             r.begin_array()?;
    ///             while r.next_item()? {
    ///                 ids.push(r.str()?);
    ///             }
    ///         }
    ///         "n" => assert_eq!(r.num()?, 2.0),
    ///         _ => assert_eq!(r.skip()?, r#"{"x":[1]}"#),
    ///     }
    /// }
    /// r.finish()?;
    /// assert_eq!(ids, ["a", "b\n"]);
    /// assert_eq!(Reader::new(" [] ").peek()?, Kind::Array);
    /// # Ok::<(), String>(())
    /// ```
    #[derive(Debug)]
    pub struct Reader<'a> {
        src: &'a str,
        pos: usize,
        /// Arrays and objects open around the cursor.
        depth: usize,
        /// Set by `begin_*` until the first `next_*`: no comma is due.
        first: bool,
    }

    impl<'a> Reader<'a> {
        /// A reader at the start of `src`.
        pub fn new(src: &'a str) -> Reader<'a> {
            Reader { src, pos: 0, depth: 0, first: false }
        }

        /// The kind of the value at the cursor, without reading it.
        pub fn peek(&mut self) -> Result<Kind, String> {
            Ok(match self.start()? {
                b'n' => Kind::Null,
                b't' | b'f' => Kind::Bool,
                b'"' => Kind::Str,
                b'[' => Kind::Array,
                b'{' => Kind::Object,
                _ => Kind::Number,
            })
        }

        /// Read `true` or `false`.
        pub fn bool(&mut self) -> Result<bool, String> {
            let t = self.start()? == b't';
            self.word(if t { "true" } else { "false" })?;
            Ok(t)
        }

        /// Read a number.
        pub fn num(&mut self) -> Result<f64, String> {
            self.start()?;
            let (b, from) = (self.src.as_bytes(), self.pos);
            while b.get(self.pos).is_some_and(|c| {
                c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E')
            }) {
                self.pos += 1;
            }
            self.src[from..self.pos].parse().map_err(|_| format!("bad number at byte {from}"))
        }

        /// Read a string; one without escapes is borrowed from the source.
        pub fn str(&mut self) -> Result<Cow<'a, str>, String> {
            self.start()?;
            self.read_str()
        }

        /// Step into the array at the cursor.
        pub fn begin_array(&mut self) -> Result<(), String> {
            self.open(b'[')
        }

        /// Move to the next item of the innermost open array: `false`
        /// after its closing `]`.
        pub fn next_item(&mut self) -> Result<bool, String> {
            self.more(b']')
        }

        /// Step into the object at the cursor.
        pub fn begin_object(&mut self) -> Result<(), String> {
            self.open(b'{')
        }

        /// Read the next key of the innermost open object, leaving the
        /// cursor at its value: `None` after the closing `}`.
        pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, String> {
            if !self.more(b'}')? {
                return Ok(None);
            }
            self.ws();
            let key = self.read_str()?;
            self.colon()?;
            Ok(Some(key))
        }

        /// Check the value at the cursor and step past it, returning its
        /// source text.
        pub fn skip(&mut self) -> Result<&'a str, String> {
            let kind = self.peek()?;
            let from = self.pos;
            match kind {
                Kind::Null => self.word("null")?,
                Kind::Bool => {
                    self.bool()?;
                }
                Kind::Number => {
                    self.num()?;
                }
                Kind::Str => {
                    self.scan_str()?;
                }
                Kind::Array => {
                    self.begin_array()?;
                    while self.next_item()? {
                        self.skip()?;
                    }
                }
                Kind::Object => {
                    self.begin_object()?;
                    while self.more(b'}')? {
                        self.ws();
                        self.scan_str()?;
                        self.colon()?;
                        self.skip()?;
                    }
                }
            }
            Ok(&self.src[from..self.pos])
        }

        /// Check that only whitespace is left.
        pub fn finish(&mut self) -> Result<(), String> {
            self.ws();
            if self.pos == self.src.len() {
                Ok(())
            } else {
                Err(format!("trailing content at byte {}", self.pos))
            }
        }

        /// Read the value at the cursor as a tree.
        fn tree(&mut self) -> Result<JsonValue, String> {
            Ok(match self.peek()? {
                Kind::Null => {
                    self.word("null")?;
                    JsonValue::Null
                }
                Kind::Bool => JsonValue::Bool(self.bool()?),
                Kind::Number => JsonValue::Number(self.num()?),
                Kind::Str => JsonValue::Str(self.str()?.into_owned()),
                Kind::Array => {
                    self.begin_array()?;
                    let mut items = Vec::new();
                    while self.next_item()? {
                        items.push(self.tree()?);
                    }
                    JsonValue::Array(items)
                }
                Kind::Object => {
                    self.begin_object()?;
                    let mut fields = Vec::new();
                    while let Some(k) = self.next_key()? {
                        fields.push((k.into_owned(), self.tree()?));
                    }
                    JsonValue::Object(fields)
                }
            })
        }

        /// Check the depth, skip whitespace and return the first byte of
        /// the value at the cursor.
        fn start(&mut self) -> Result<u8, String> {
            if self.depth > MAX_DEPTH {
                return Err("JSON nesting too deep".to_string());
            }
            self.ws();
            self.src
                .as_bytes()
                .get(self.pos)
                .copied()
                .ok_or_else(|| "unexpected end of JSON".to_string())
        }

        fn ws(&mut self) {
            while matches!(self.src.as_bytes().get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.pos += 1;
            }
        }

        fn word(&mut self, word: &str) -> Result<(), String> {
            if self.src.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                Ok(())
            } else {
                Err(format!("bad literal at byte {}", self.pos))
            }
        }

        fn open(&mut self, bracket: u8) -> Result<(), String> {
            if self.start()? != bracket {
                return Err(format!("expected '{}' at byte {}", bracket as char, self.pos));
            }
            self.pos += 1;
            self.depth += 1;
            self.first = true;
            Ok(())
        }

        /// Whether another item or member follows in the innermost open
        /// array or object; reads the comma, or the closing `close`.
        fn more(&mut self, close: u8) -> Result<bool, String> {
            self.ws();
            let first = std::mem::replace(&mut self.first, false);
            match self.src.as_bytes().get(self.pos) {
                Some(&c) if c == close => {
                    self.pos += 1;
                    self.depth -= 1;
                    Ok(false)
                }
                _ if first => Ok(true),
                Some(b',') => {
                    self.pos += 1;
                    Ok(true)
                }
                _ => Err(format!("expected ',' or '{}' at byte {}", close as char, self.pos)),
            }
        }

        fn colon(&mut self) -> Result<(), String> {
            self.ws();
            if self.src.as_bytes().get(self.pos) != Some(&b':') {
                return Err(format!("expected ':' at byte {}", self.pos));
            }
            self.pos += 1;
            Ok(())
        }

        /// Read the string at the cursor, decoding its escapes in a
        /// second pass over it when it has any.
        fn read_str(&mut self) -> Result<Cow<'a, str>, String> {
            let from = self.pos + 1;
            let escaped = self.scan_str()?;
            let (src, to) = (self.src, self.pos - 1);
            if !escaped {
                return Ok(Cow::Borrowed(&src[from..to]));
            }
            let mut out = String::with_capacity(to - from);
            let (mut i, mut run) = (from, from);
            while i < to {
                if src.as_bytes()[i] == b'\\' {
                    out.push_str(&src[run..i]);
                    out.push(escape(src.as_bytes(), &mut i)?);
                    run = i;
                } else {
                    i += 1;
                }
            }
            out.push_str(&src[run..to]);
            Ok(Cow::Owned(out))
        }

        /// Check the string at the cursor and step past it; `true` if it
        /// holds an escape.
        fn scan_str(&mut self) -> Result<bool, String> {
            let b = self.src.as_bytes();
            if b.get(self.pos) != Some(&b'"') {
                return Err(format!("expected string at byte {}", self.pos));
            }
            self.pos += 1;
            let mut escaped = false;
            loop {
                self.pos += b[self.pos..]
                    .iter()
                    .position(|&c| c == b'"' || c == b'\\')
                    .ok_or("unterminated string")?;
                if b[self.pos] == b'"' {
                    self.pos += 1;
                    return Ok(escaped);
                }
                escape(b, &mut self.pos)?;
                escaped = true;
            }
        }
    }

    /// Decode the escape whose backslash is at `b[*i]` and step past it.
    fn escape(b: &[u8], i: &mut usize) -> Result<char, String> {
        *i += 1;
        let c = match b.get(*i) {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                let hex = b
                    .get(*i + 1..*i + 5)
                    .and_then(|h| std::str::from_utf8(h).ok())
                    .and_then(|h| u32::from_str_radix(h, 16).ok())
                    .ok_or_else(|| format!("bad \\u escape at byte {i}"))?;
                *i += 4;
                char::from_u32(hex).unwrap_or('\u{fffd}')
            }
            _ => return Err(format!("bad escape at byte {i}")),
        };
        *i += 1;
        Ok(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_display_compat() {
        // The legacy (pre-span) rendering stays byte-identical.
        let e = Diagnostic::error("cpu[X]", "bad");
        assert!(e.is_error());
        assert_eq!(e.to_string(), "error: cpu[X]: bad");
        let w = Diagnostic::warning("p", "odd");
        assert!(!w.is_error());
        let i = Diagnostic::info("p", "note");
        assert_eq!(i.severity, Severity::Info);
    }

    #[test]
    fn display_with_code_span_and_notes() {
        let span = Span::new(Pos::new(10, 3, 4), Pos::new(20, 3, 14));
        let d = Diagnostic::error("system[s]/cache[L1]", "unrecognized unit \"XB\"")
            .with_code("V107")
            .with_span(span)
            .with_note("known size units include KB, KiB, MB");
        let s = d.to_string();
        assert_eq!(
            s,
            "error[V107]: system[s]/cache[L1] (3:4): unrecognized unit \"XB\"\n  \
             note: known size units include KB, KiB, MB"
        );
        assert_eq!(d.pos(), Some(Pos::new(10, 3, 4)));
    }

    #[test]
    fn default_span_counts_as_unlocated() {
        let d = Diagnostic::error("p", "m").with_span(Span::default());
        assert_eq!(d.span, None);
    }

    #[test]
    fn severity_ordering_and_parse() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
        assert_eq!(Severity::parse("error"), Some(Severity::Error));
        assert_eq!(Severity::parse("bogus"), None);
    }

    #[test]
    fn diagnostics_ext() {
        let list = [
            Diagnostic::warning("a", "w"),
            Diagnostic::error("b", "e"),
            Diagnostic::error("c", "e2"),
        ];
        assert_eq!(list.error_count(), 2);
        assert_eq!(list.warning_count(), 1);
        assert!(!list.is_valid());
        assert!(list[..1].is_valid());
    }

    #[test]
    fn sink_caps_errors_but_counts_all() {
        let mut sink = DiagSink::with_max_errors(2);
        for i in 0..5 {
            sink.push(Diagnostic::error("p", format!("e{i}")));
            sink.push(Diagnostic::warning("p", format!("w{i}")));
        }
        assert_eq!(sink.error_count(), 2);
        assert_eq!(sink.total_errors(), 5);
        assert_eq!(sink.suppressed(), 3);
        assert_eq!(sink.warning_count(), 5); // warnings never capped
        assert!(sink.saturated());
        assert!(!sink.is_clean());
    }

    #[test]
    fn sink_sorts_by_location() {
        let at = |off: usize| Span::at(Pos::new(off, 1, off as u32 + 1));
        let mut sink = DiagSink::new();
        sink.push(Diagnostic::error("z", "unlocated"));
        sink.push(Diagnostic::error("b", "late").with_span(at(30)));
        sink.push(Diagnostic::error("a", "early").with_span(at(3)));
        sink.sort_by_location();
        let msgs: Vec<&str> = sink.as_slice().iter().map(|d| d.message.as_str()).collect();
        assert_eq!(msgs, ["early", "late", "unlocated"]);
    }

    #[test]
    fn json_roundtrip_preserves_everything() {
        let span = Span::new(Pos::new(42, 7, 13), Pos::new(55, 7, 26));
        let diags = vec![
            Diagnostic::error("system[s]/device[g]", "unknown meta-model 'Ghost'")
                .with_code("E201")
                .with_span(span)
                .with_note("searched 12 repository keys")
                .with_note("did you mean \"Ghost2\"?"),
            Diagnostic::warning("system[s]", "odd \"quote\\backslash\"\nand newline"),
            Diagnostic::info("p", "unicode: héllo✓"),
        ];
        let json = diagnostics_to_json(&diags);
        let back = parse_diagnostics_json(&json).expect("parses");
        assert_eq!(back, diags);
    }

    #[test]
    fn json_summary_counts() {
        let diags =
            vec![Diagnostic::error("a", "e"), Diagnostic::warning("b", "w"), Diagnostic::info("c", "i")];
        let json = diagnostics_to_json(&diags);
        assert!(json.contains("\"summary\":{\"errors\":1,\"warnings\":1,\"infos\":1}"), "{json}");
        assert!(json.starts_with("{\"version\":1,"));
    }

    #[test]
    fn json_parser_rejects_garbage() {
        assert!(parse_diagnostics_json("").is_err());
        assert!(parse_diagnostics_json("[]").is_err());
        assert!(parse_diagnostics_json("{\"diagnostics\":[{]}").is_err());
        assert!(parse_diagnostics_json("{\"diagnostics\":[1]}").is_err());
        assert!(parse_diagnostics_json("{\"diagnostics\":[]} x").is_err());
    }

    #[test]
    fn json_parser_accepts_empty_list() {
        assert_eq!(parse_diagnostics_json(&diagnostics_to_json(&[])).unwrap(), vec![]);
    }
}
