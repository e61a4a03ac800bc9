//! The JSON pull lexer against the recursive-descent parser it replaced,
//! and linear-time bounds on large documents.
//!
//! `reference` is that parser word for word. The differential property
//! feeds both the same valid, junk, truncated, byte-flipped and deeply
//! nested documents, `\u` escapes good and bad, and the lenient numbers,
//! and requires the same verdict: equal values (NaN equal to NaN) or the
//! same error message. `Reader::skip`, the check-only path the wire
//! readers validate a line with, must reach the same verdict.

use proptest::prelude::*;
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use xpdl_core::diag::json::{self, JsonValue, Reader};

/// The parser `json::parse` used before the pull lexer, kept as the
/// oracle for the differential property.
mod reference {
    use xpdl_core::diag::json::JsonValue;

    /// Parse a complete JSON document (no trailing content allowed).
    pub fn parse(src: &str) -> Result<JsonValue, String> {
        let bytes = src.as_bytes();
        let mut i = 0usize;
        let v = value(bytes, &mut i, 0)?;
        skip_ws(bytes, &mut i);
        if i != bytes.len() {
            return Err(format!("trailing content at byte {i}"));
        }
        Ok(v)
    }

    const MAX_DEPTH: usize = 64;

    fn value(b: &[u8], i: &mut usize, depth: usize) -> Result<JsonValue, String> {
        if depth > MAX_DEPTH {
            return Err("JSON nesting too deep".to_string());
        }
        skip_ws(b, i);
        match b.get(*i) {
            None => Err("unexpected end of JSON".to_string()),
            Some(b'n') => lit(b, i, "null", JsonValue::Null),
            Some(b't') => lit(b, i, "true", JsonValue::Bool(true)),
            Some(b'f') => lit(b, i, "false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::Str(string(b, i)?)),
            Some(b'[') => {
                *i += 1;
                let mut items = Vec::new();
                skip_ws(b, i);
                if b.get(*i) == Some(&b']') {
                    *i += 1;
                    return Ok(JsonValue::Array(items));
                }
                loop {
                    items.push(value(b, i, depth + 1)?);
                    skip_ws(b, i);
                    match b.get(*i) {
                        Some(b',') => *i += 1,
                        Some(b']') => {
                            *i += 1;
                            return Ok(JsonValue::Array(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {i}")),
                    }
                }
            }
            Some(b'{') => {
                *i += 1;
                let mut fields = Vec::new();
                skip_ws(b, i);
                if b.get(*i) == Some(&b'}') {
                    *i += 1;
                    return Ok(JsonValue::Object(fields));
                }
                loop {
                    skip_ws(b, i);
                    let k = string(b, i)?;
                    skip_ws(b, i);
                    if b.get(*i) != Some(&b':') {
                        return Err(format!("expected ':' at byte {i}"));
                    }
                    *i += 1;
                    let v = value(b, i, depth + 1)?;
                    fields.push((k, v));
                    skip_ws(b, i);
                    match b.get(*i) {
                        Some(b',') => *i += 1,
                        Some(b'}') => {
                            *i += 1;
                            return Ok(JsonValue::Object(fields));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {i}")),
                    }
                }
            }
            Some(_) => number(b, i),
        }
    }

    fn lit(b: &[u8], i: &mut usize, word: &str, v: JsonValue) -> Result<JsonValue, String> {
        if b[*i..].starts_with(word.as_bytes()) {
            *i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {i}"))
        }
    }

    fn number(b: &[u8], i: &mut usize) -> Result<JsonValue, String> {
        let start = *i;
        while let Some(c) = b.get(*i) {
            if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E') {
                *i += 1;
            } else {
                break;
            }
        }
        std::str::from_utf8(&b[start..*i])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(JsonValue::Number)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(b: &[u8], i: &mut usize) -> Result<String, String> {
        if b.get(*i) != Some(&b'"') {
            return Err(format!("expected string at byte {i}"));
        }
        *i += 1;
        let mut out = String::new();
        loop {
            match b.get(*i) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    *i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *i += 1;
                    match b.get(*i) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = b
                                .get(*i + 1..*i + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {i}"))?;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            *i += 4;
                        }
                        _ => return Err(format!("bad escape at byte {i}")),
                    }
                    *i += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte sequences pass
                    // through unchanged).
                    let rest = std::str::from_utf8(&b[*i..])
                        .map_err(|_| "invalid UTF-8 in string".to_string())?;
                    let c = rest.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    *i += c.len_utf8();
                }
            }
        }
    }

    fn skip_ws(b: &[u8], i: &mut usize) {
        while matches!(b.get(*i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            *i += 1;
        }
    }
}

/// Equal trees; numbers compare by bits, and NaN equals NaN.
fn same(a: &JsonValue, b: &JsonValue) -> bool {
    match (a, b) {
        (JsonValue::Null, JsonValue::Null) => true,
        (JsonValue::Bool(x), JsonValue::Bool(y)) => x == y,
        (JsonValue::Number(x), JsonValue::Number(y)) => {
            x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
        }
        (JsonValue::Str(x), JsonValue::Str(y)) => x == y,
        (JsonValue::Array(x), JsonValue::Array(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(x, y)| same(x, y))
        }
        (JsonValue::Object(x), JsonValue::Object(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|((kx, x), (ky, y))| kx == ky && same(x, y))
        }
        _ => false,
    }
}

/// A tree as text, for failure messages.
fn show(v: &JsonValue) -> String {
    match v {
        JsonValue::Null => "null".into(),
        JsonValue::Bool(b) => b.to_string(),
        JsonValue::Number(n) => format!("{n:?}"),
        JsonValue::Str(s) => format!("{s:?}"),
        JsonValue::Array(items) => {
            format!("[{}]", items.iter().map(show).collect::<Vec<_>>().join(","))
        }
        JsonValue::Object(fields) => format!(
            "{{{}}}",
            fields.iter().map(|(k, v)| format!("{k:?}:{}", show(v))).collect::<Vec<_>>().join(",")
        ),
    }
}

/// One of `items`, uniformly.
fn pick<T: Clone + 'static>(items: &'static [T]) -> impl Strategy<Value = T> {
    (0..items.len()).prop_map(move |i| items[i].clone())
}

fn ws() -> impl Strategy<Value = &'static str> {
    pick(&["", "", "", " ", "\n", "\t", "\r\n "])
}

/// Numbers as the lexer reads them: printed floats (NaN and infinities
/// included) and integers, the lenient and the malformed forms, and
/// random runs of number bytes.
fn arb_number() -> impl Strategy<Value = String> {
    prop_oneof![
        any::<u64>().prop_map(|bits| format!("{}", f64::from_bits(bits))),
        any::<i64>().prop_map(|x| x.to_string()),
        pick(&[
            "+1",
            ".5",
            "1.",
            "1e999",
            "-0",
            "-1e-999",
            "1E+2",
            "007",
            "9007199254740993",
            "1e",
            "--1",
            "+",
            ".",
            "-",
            "1.2.3",
            "1e5e5",
            "0x10",
        ])
        .prop_map(str::to_string),
        "[0-9+.eE-]{1,8}",
    ]
}

/// String literals mixing plain text (multi-byte and raw control
/// characters included) with good escapes, surrogates paired and lone,
/// `\u` with bad or missing digits, and unknown escapes.
fn arb_string() -> impl Strategy<Value = String> {
    let piece = prop_oneof![
        "[a-z é✓😀]{0,4}",
        (0u8..0x20).prop_map(|c| char::from(c).to_string()),
        pick(&[
            "\\\"",
            "\\\\",
            "\\/",
            "\\b",
            "\\f",
            "\\n",
            "\\r",
            "\\t",
            "\\u00e9",
            "\\u00E9",
            "\\ud800",
            "\\udfff",
            "\\ud83d\\ude00",
            "\\u0000",
            "\\uffff",
            "\\u+041",
        ])
        .prop_map(str::to_string),
        "\\\\u[0-9a-fA-F+g é-]{0,4}",
        "\\\\[a-z0-9é]",
    ];
    proptest::collection::vec(piece, 0..5).prop_map(|p| format!("\"{}\"", p.concat()))
}

/// Documents that are mostly valid, with whitespace between tokens.
fn arb_doc() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        Just("null".to_string()),
        Just("true".to_string()),
        Just("false".to_string()),
        arb_number(),
        arb_number(),
        arb_string(),
        arb_string(),
    ];
    leaf.prop_recursive(4, 64, 6, |inner| {
        prop_oneof![
            proptest::collection::vec((ws(), inner.clone(), ws()), 0..6).prop_map(|items| {
                let items: Vec<String> =
                    items.into_iter().map(|(a, v, b)| format!("{a}{v}{b}")).collect();
                format!("[{}]", items.join(","))
            }),
            proptest::collection::vec((ws(), arb_string(), ws(), inner), 0..6).prop_map(
                |members| {
                    let members: Vec<String> =
                        members.into_iter().map(|(a, k, b, v)| format!("{a}{k}{b}:{v}")).collect();
                    format!("{{{}}}", members.join(","))
                }
            ),
        ]
    })
}

/// `n` arrays and objects (60 to 70) around one innermost value.
fn arb_nested() -> impl Strategy<Value = String> {
    (
        60usize..=70,
        proptest::collection::vec(any::<bool>(), 70),
        pick(&["", "1", "[]", "{}", "\"s\"", "[1", " "]),
    )
        .prop_map(|(n, objects, inner)| {
            let mut s = String::new();
            for &o in &objects[..n] {
                s.push_str(if o { "{\"k\":" } else { "[" });
            }
            s.push_str(inner);
            for &o in objects[..n].iter().rev() {
                s.push(if o { '}' } else { ']' });
            }
            s
        })
}

/// What a flipped character becomes: structural and lexical characters.
const FLIPS: &[char] = &['{', '}', '[', ']', '"', ',', ':', '\\', ' ', '0', 'e', '-', 'n', 'é'];

/// `doc` cut after its `at`-th character (modulo its length).
fn truncate(doc: &str, at: usize) -> String {
    doc.chars().take(at % (doc.chars().count() + 1)).collect()
}

/// `doc` with its `at`-th character (modulo its length) replaced by
/// `with`, or deleted when `with` is `None`.
fn flip(doc: &str, at: usize, with: Option<char>) -> String {
    let at = at % doc.chars().count().max(1);
    doc.chars().enumerate().filter_map(|(i, c)| if i == at { with } else { Some(c) }).collect()
}

/// `doc` with `c` inserted before its `at`-th character (modulo its
/// length plus one).
fn insert(doc: &str, at: usize, c: char) -> String {
    let mut chars: Vec<char> = doc.chars().collect();
    chars.insert(at % (chars.len() + 1), c);
    chars.into_iter().collect()
}

/// `doc` with a trailing comma before its `at`-th closing bracket (modulo
/// their count).
fn trailing_comma(doc: &str, at: usize) -> String {
    let closes: Vec<usize> = doc.match_indices([']', '}']).map(|(i, _)| i).collect();
    match closes.get(at % closes.len().max(1)) {
        Some(&i) => format!("{},{}", &doc[..i], &doc[i..]),
        None => doc.to_string(),
    }
}

/// Valid documents; truncated ones, ones with a character replaced,
/// deleted or inserted, and ones with a trailing comma; junk; deep
/// nesting; two documents in a row.
fn arb_input() -> impl Strategy<Value = String> {
    prop_oneof![
        (ws(), arb_doc(), ws()).prop_map(|(a, d, b)| format!("{a}{d}{b}")),
        (ws(), arb_doc(), ws()).prop_map(|(a, d, b)| format!("{a}{d}{b}")),
        (arb_doc(), any::<usize>()).prop_map(|(d, at)| truncate(&d, at)),
        (arb_doc(), any::<usize>(), pick(FLIPS)).prop_map(|(d, at, c)| flip(&d, at, Some(c))),
        (arb_doc(), any::<usize>()).prop_map(|(d, at)| flip(&d, at, None)),
        (arb_doc(), any::<usize>(), pick(FLIPS)).prop_map(|(d, at, c)| insert(&d, at, c)),
        (arb_doc(), any::<usize>()).prop_map(|(d, at)| trailing_comma(&d, at)),
        "[\\[\\]{}\",:0-9eE+.\\- \ntrufalsn\\\\é]{0,24}",
        arb_nested(),
        (arb_doc(), ws(), arb_doc()).prop_map(|(a, w, b)| format!("{a}{w}{b}")),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn json_reader_agrees_with_the_reference_parser(input in arb_input()) {
        let want = reference::parse(&input);
        match (&want, json::parse(&input)) {
            (Ok(a), Ok(b)) => prop_assert!(same(a, &b), "{input:?}: {} vs {}", show(a), show(&b)),
            (Err(a), Err(b)) => prop_assert_eq!(a, &b, "{:?}", input),
            (a, b) => prop_assert!(
                false,
                "{input:?}: reference {:?}, reader {:?}",
                a.as_ref().map(show),
                b.as_ref().map(show)
            ),
        }
        let mut r = Reader::new(&input);
        match (r.skip().and_then(|raw| r.finish().map(|()| raw)), &want) {
            (Ok(raw), Ok(_)) => prop_assert_eq!(raw, input.trim_matches([' ', '\t', '\n', '\r'])),
            (Err(a), Err(b)) => prop_assert_eq!(&a, b, "{:?}", input),
            (got, _) => prop_assert!(false, "{input:?}: skip {got:?}, reference {:?}", want.is_ok()),
        }
    }
}

/// Far above what a debug build needs for 1 MiB in linear time, far below
/// what the quadratic string loop took.
const BOUND: Duration = Duration::from_secs(2);

fn timed<T>(what: &str, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    let took = start.elapsed();
    assert!(took < BOUND, "{what} took {took:?} (bound {BOUND:?})");
    out
}

#[test]
fn json_reading_is_linear_in_an_array_of_short_strings() {
    const N: usize = 110_000;
    let mut doc = String::from("[");
    for i in 0..N {
        let _ = write!(doc, "{}\"id{i:06}\"", if i > 0 { "," } else { "" });
    }
    doc.push(']');
    assert!(doc.len() > 1 << 20);
    let tree = timed("json::parse", || json::parse(&doc).unwrap());
    assert_eq!(tree.as_array().map(<[_]>::len), Some(N));
    let last = timed("Reader", || {
        let mut r = Reader::new(&doc);
        let mut last = None;
        r.begin_array().unwrap();
        while r.next_item().unwrap() {
            last = Some(r.str().unwrap());
        }
        r.finish().unwrap();
        last
    });
    assert_eq!(last.as_deref(), Some("id109999"));
    assert_eq!(timed("Reader::skip", || Reader::new(&doc).skip().unwrap().len()), doc.len());
}

#[test]
fn json_reading_is_linear_in_one_long_string() {
    let text: String = (0..1 << 14).map(|i| format!("{i:062}\n")).collect();
    let mut doc = String::new();
    json::escape_into(&mut doc, &text);
    assert!(doc.len() > 1 << 20);
    let tree = timed("json::parse", || json::parse(&doc).unwrap());
    assert_eq!(tree.as_str(), Some(&text[..]));
    assert_eq!(timed("Reader", || Reader::new(&doc).str().unwrap()), text);
    assert_eq!(timed("Reader::skip", || Reader::new(&doc).skip().unwrap().len()), doc.len());
}
