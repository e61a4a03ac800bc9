//! The byte-level pull reader: the crate's one XML grammar.
//!
//! [`Reader`] walks a `&str` once, byte by byte, and yields [`Event`]s:
//! start tags (name, attributes as borrowed slices, whether the tag
//! self-closes), end tags, text, CDATA, comments and processing
//! instructions. It holds byte offsets only. A line and column are
//! counted when a span or an error is made, forward from the last
//! position counted, so making a span for every element and attribute
//! stays linear. [`crate::parse_with`] builds the DOM from the events;
//! other crates build their own trees from them without one.

use crate::error::{XmlError, XmlErrorKind, XmlResult};
use crate::escape;
use crate::pos::{Pos, Span};
use std::borrow::Cow;
use std::collections::HashSet;

/// Parser configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseOptions {
    /// Accept the paper-listing dialect (see crate docs): unquoted attribute
    /// values, value-only elements, and `...` elision markers.
    pub lenient: bool,
    /// Drop whitespace-only text nodes between elements and trim
    /// leading/trailing whitespace of remaining text nodes (default true;
    /// XPDL is data-oriented, indentation whitespace is never meaningful).
    pub trim_whitespace_nodes: bool,
    /// Keep comment nodes in the tree (default true).
    pub keep_comments: bool,
    /// Maximum element nesting depth, a guard against stack exhaustion on
    /// adversarial inputs.
    pub max_depth: usize,
}

impl Default for ParseOptions {
    fn default() -> Self {
        ParseOptions {
            lenient: false,
            trim_whitespace_nodes: true,
            keep_comments: true,
            max_depth: 256,
        }
    }
}

impl ParseOptions {
    /// Strict, standard-conforming mode (the default).
    pub fn strict() -> Self {
        Self::default()
    }

    /// Lenient mode accepting the paper-listing dialect.
    pub fn lenient() -> Self {
        ParseOptions { lenient: true, ..Self::default() }
    }
}

/// The name given to the synthetic attribute created for value-only elements
/// (`<compute_capability="3.0"/>`) in lenient mode.
pub const LENIENT_VALUE_ATTR: &str = "value";

/// A tag compares attribute names one by one up to this many attributes,
/// then switches to a keyed set, so the duplicate check stays linear.
const SCAN_LIMIT: usize = 8;

/// One attribute of the start tag read last, as written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attr<'a> {
    /// Attribute name.
    pub name: &'a str,
    /// The value as written: between the quotes, or the bare lenient token.
    pub raw: &'a str,
    /// Source span of the whole attribute.
    pub span: Span,
    /// Whether `raw` holds references (checked when the tag was read).
    escaped: bool,
}

impl<'a> Attr<'a> {
    /// The value with its references replaced; borrowed when it has none.
    pub fn value(&self) -> Cow<'a, str> {
        match self.escaped {
            true => escape::unescape_refs(self.raw).unwrap_or(Cow::Borrowed(self.raw)),
            false => Cow::Borrowed(self.raw),
        }
    }
}

/// What the reader found next. The attributes of a start tag are
/// [`Reader::attrs`] until the next start tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event<'a> {
    /// `<name …>`, or `<name …/>` when `empty` (no [`Event::End`] follows
    /// an empty tag). The span covers the tag.
    Start {
        /// Element name.
        name: &'a str,
        /// Whether the tag closes itself.
        empty: bool,
        /// Source span of the tag.
        span: Span,
    },
    /// The close tag of the innermost open element; the span covers the
    /// whole element, from the `<` of its start tag.
    End(Span),
    /// Character data with its references replaced. When the options trim
    /// whitespace it is trimmed, and whitespace-only runs are not reported.
    Text(Cow<'a, str>, Span),
    /// A CDATA section's raw content.
    CData(&'a str, Span),
    /// A comment's content, reported when the options keep comments.
    Comment(&'a str, Span),
    /// A processing instruction: its target and its trimmed data.
    Pi {
        /// The instruction's target name.
        target: &'a str,
        /// Everything after the target, trimmed.
        data: &'a str,
        /// Source span of the instruction.
        span: Span,
    },
}

/// Where the reader is in the document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Before the root element.
    Prolog,
    /// Inside the root element.
    Content,
    /// After the root element.
    Epilog,
    /// At the end, or after an error.
    Done,
}

/// A pull reader over one document.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    src: &'a str,
    /// Offset of the next unread byte.
    i: usize,
    opts: ParseOptions,
    state: State,
    /// Open elements, innermost last: name and the position of its `<`.
    open: Vec<(&'a str, Pos)>,
    /// The attributes of the start tag read last.
    attrs: Vec<Attr<'a>>,
    /// The last position counted.
    last: Pos,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `src` (after a byte-order mark, if any).
    pub fn new(src: &'a str, opts: ParseOptions) -> Reader<'a> {
        let i = if src.starts_with('\u{FEFF}') { '\u{FEFF}'.len_utf8() } else { 0 };
        Reader {
            src,
            i,
            opts,
            state: State::Prolog,
            open: Vec::with_capacity(16),
            attrs: Vec::with_capacity(SCAN_LIMIT),
            last: Pos::START,
        }
    }

    /// The next event, or `None` after the root element and what follows
    /// it. After an error the reader is done and returns `None`.
    pub fn next_event(&mut self) -> XmlResult<Option<Event<'a>>> {
        let ev = match self.state {
            State::Prolog => self.prolog().map(Some),
            State::Content => self.content().map(Some),
            State::Epilog => self.epilog(),
            State::Done => Ok(None),
        };
        if ev.is_err() {
            self.state = State::Done;
        }
        ev
    }

    /// The attributes of the start tag read last, in document order.
    pub fn attrs(&self) -> &[Attr<'a>] {
        &self.attrs
    }

    /// Comments, processing instructions and a DOCTYPE, then the root's
    /// start tag.
    fn prolog(&mut self) -> XmlResult<Event<'a>> {
        loop {
            self.skip_ws();
            if self.starts_with("<?") {
                return self.pi();
            } else if self.starts_with("<!--") {
                if let Some(c) = self.comment()? {
                    return Ok(c);
                }
            } else if self.starts_with("<!DOCTYPE") {
                // XPDL does not use DTDs; skip the declaration (no internal
                // subset support needed).
                self.take_until(">", "'>' ending DOCTYPE")?;
                self.i += 1;
            } else {
                break;
            }
        }
        if !self.starts_with("<") {
            return Err(self.error(XmlErrorKind::NoRootElement, self.i));
        }
        self.start_tag()
    }

    /// The next event inside the root element.
    fn content(&mut self) -> XmlResult<Event<'a>> {
        loop {
            let rest = &self.src.as_bytes()[self.i..];
            if rest.is_empty() {
                let name = self.open.last().map_or("", |o| o.0).to_string();
                return Err(self.error(XmlErrorKind::UnclosedElement { name }, self.i));
            } else if rest.starts_with(b"</") {
                return self.end_tag();
            } else if rest.starts_with(b"<!--") {
                if let Some(c) = self.comment()? {
                    return Ok(c);
                }
            } else if rest.starts_with(b"<![CDATA[") {
                return self.cdata();
            } else if rest.starts_with(b"<?") {
                return self.pi();
            } else if rest[0] == b'<' {
                return self.start_tag();
            } else if let Some(text) = self.text()? {
                return Ok(text);
            }
        }
    }

    /// Comments and processing instructions after the root element.
    fn epilog(&mut self) -> XmlResult<Option<Event<'a>>> {
        loop {
            self.skip_ws();
            if self.i == self.src.len() {
                self.state = State::Done;
                return Ok(None);
            } else if self.starts_with("<!--") {
                if let Some(c) = self.comment()? {
                    return Ok(Some(c));
                }
            } else if self.starts_with("<?") {
                return self.pi().map(Some);
            } else {
                return Err(self.error(XmlErrorKind::TrailingContent, self.i));
            }
        }
    }

    fn start_tag(&mut self) -> XmlResult<Event<'a>> {
        let start = self.i;
        if self.open.len() >= self.opts.max_depth {
            let what = "nesting deeper than max_depth";
            return Err(self.error(XmlErrorKind::StrictViolation { what }, start));
        }
        let start_pos = self.pos(start);
        self.i += 1;
        let name = self.name()?;
        self.attributes()?;
        let empty = self.starts_with("/>");
        if empty {
            self.i += 2;
        } else {
            self.expect(b'>', ">")?;
            self.open.push((name, start_pos));
        }
        self.state = if self.open.is_empty() { State::Epilog } else { State::Content };
        Ok(Event::Start { name, empty, span: Span::new(start_pos, self.pos(self.i)) })
    }

    fn end_tag(&mut self) -> XmlResult<Event<'a>> {
        self.i += 2;
        let close_at = self.i;
        let close = self.name()?;
        let (open, start) = self.open[self.open.len() - 1];
        if close != open {
            let kind = XmlErrorKind::MismatchedCloseTag {
                open: open.to_string(),
                close: close.to_string(),
            };
            return Err(self.error(kind, close_at));
        }
        self.skip_ws();
        self.expect(b'>', ">")?;
        self.open.pop();
        if self.open.is_empty() {
            self.state = State::Epilog;
        }
        Ok(Event::End(Span::new(start, self.pos(self.i))))
    }

    /// The attributes of a start tag, up to its `/`, `>` or the end of
    /// input.
    fn attributes(&mut self) -> XmlResult<()> {
        self.attrs.clear();
        // The names so far, once the tag has more than `SCAN_LIMIT`. Names
        // are input, so the set is keyed, as `HashSet`'s default is.
        let mut names: Option<HashSet<&'a str>> = None;
        // Set after a `...` elision marker so a glued attribute (`...unit=`)
        // is not rejected for missing whitespace.
        let mut after_elision = false;
        loop {
            let ws = self.skip_ws() + usize::from(std::mem::take(&mut after_elision));
            let start = self.i;
            match self.src.as_bytes().get(start) {
                None | Some(b'/' | b'>') => return Ok(()),
                Some(b'=') if self.opts.lenient && self.attrs.is_empty() => {
                    // Paper-listing dialect: `<compute_capability="3.0"/>`.
                    self.i += 1;
                    let value = self.value()?;
                    self.push_attr(LENIENT_VALUE_ATTR, value, start);
                    continue;
                }
                Some(b'.') if self.opts.lenient => {
                    // Elision marker `...` (possibly glued to a following
                    // attribute name, as in `...unit="MHz"`): skip the dots.
                    while self.src.as_bytes().get(self.i) == Some(&b'.') {
                        self.i += 1;
                    }
                    after_elision = true;
                    continue;
                }
                Some(_) if ws == 0 && !self.attrs.is_empty() => {
                    return Err(self.unexpected("whitespace before attribute"));
                }
                Some(_) => {}
            }
            let name = self.name()?;
            self.skip_ws();
            self.expect(b'=', "=")?;
            self.skip_ws();
            let value = self.value()?;
            let duplicate = match &mut names {
                Some(set) => !set.insert(name),
                None if self.attrs.len() < SCAN_LIMIT => self.attrs.iter().any(|a| a.name == name),
                None => {
                    let set = names.insert(self.attrs.iter().map(|a| a.name).collect());
                    !set.insert(name)
                }
            };
            if duplicate {
                let kind = XmlErrorKind::DuplicateAttribute { name: name.to_string() };
                return Err(self.error(kind, start));
            }
            self.push_attr(name, value, start);
        }
    }

    fn push_attr(&mut self, name: &'a str, (raw, escaped): (&'a str, bool), start: usize) {
        let span = Span::new(self.pos(start), self.pos(self.i));
        self.attrs.push(Attr { name, raw, span, escaped });
    }

    /// An attribute value as written, and whether it holds references:
    /// quoted, or in lenient mode a bare token. A quoted value's
    /// references are checked here, in document order, and replaced when
    /// [`Attr::value`] asks.
    fn value(&mut self) -> XmlResult<(&'a str, bool)> {
        let vstart = self.i;
        match self.peek() {
            Some(q @ ('"' | '\'')) => {
                let from = vstart + 1;
                let mut escaped = false;
                let len = self.src.as_bytes()[from..].iter().position(|&b| {
                    escaped |= b == b'&';
                    b == q as u8
                });
                let Some(len) = len else {
                    let expected = "closing attribute quote";
                    return Err(self.error(XmlErrorKind::UnexpectedEof { expected }, from));
                };
                let raw = &self.src[from..from + len];
                self.i = from + len + 1;
                if let Err((at, kind)) = if escaped { escape::check_refs(raw) } else { Ok(()) } {
                    // A bad reference is reported counting from the quote,
                    // not from the value's first character.
                    let pos = self.pos(vstart).advanced(&raw.as_bytes()[..at]);
                    return Err(XmlError::new(kind, pos));
                }
                Ok((raw, escaped))
            }
            Some(_) if self.opts.lenient => {
                // Unquoted value (`quantity=2`): take name-ish characters.
                let raw = self.take_while(|c| is_name_char(c) || c == '?' || c == '/');
                if raw.is_empty() {
                    let found = self.peek().unwrap_or('\0');
                    let kind = XmlErrorKind::UnexpectedChar { found, expected: "attribute value" };
                    return Err(self.error(kind, vstart));
                }
                // No `&` is a name character: a bare value has no references.
                Ok((raw, false))
            }
            Some(found) => {
                // Distinguish an unquoted value from a malformed token.
                let kind = if found.is_alphanumeric() || found == '?' {
                    XmlErrorKind::StrictViolation { what: "unquoted attribute value" }
                } else {
                    XmlErrorKind::UnexpectedChar { found, expected: "quoted attribute value" }
                };
                Err(self.error(kind, vstart))
            }
            None => {
                let kind = XmlErrorKind::UnexpectedEof { expected: "attribute value" };
                Err(self.error(kind, vstart))
            }
        }
    }

    /// A text run up to the next `<`; `None` when trimming leaves nothing.
    fn text(&mut self) -> XmlResult<Option<Event<'a>>> {
        let start = self.i;
        // Whether the run holds a reference, and whether it is all XML
        // whitespace (the indentation between tags, which trimming drops).
        let (mut refs, mut blank) = (false, true);
        let bytes = self.src.as_bytes();
        while let Some(&b) = bytes.get(self.i) {
            match b {
                b'<' => break,
                b' ' | b'\t' | b'\r' | b'\n' => {}
                b'&' => (refs, blank) = (true, false),
                _ => blank = false,
            }
            self.i += 1;
        }
        if blank && self.opts.trim_whitespace_nodes {
            return Ok(None);
        }
        let raw = &self.src[start..self.i];
        let mut text = match refs {
            false => Cow::Borrowed(raw),
            true => match escape::unescape_refs(raw) {
                Ok(text) => text,
                Err((at, kind)) => return Err(self.error(kind, start + at)),
            },
        };
        if self.opts.trim_whitespace_nodes {
            text = match text {
                Cow::Borrowed(t) => Cow::Borrowed(t.trim()),
                Cow::Owned(t) => Cow::Owned(t.trim().to_string()),
            };
        }
        if text.is_empty() {
            return Ok(None);
        }
        Ok(Some(Event::Text(text, self.span(start))))
    }

    fn pi(&mut self) -> XmlResult<Event<'a>> {
        let start = self.i;
        self.i += 2;
        let target = self.name().map_err(|e| XmlError::new(XmlErrorKind::MalformedPi, e.pos))?;
        let data = self.take_until("?>", "'?>' ending processing instruction")?.trim();
        self.i += 2;
        Ok(Event::Pi { target, data, span: self.span(start) })
    }

    /// A comment; `None` when the options drop comments.
    fn comment(&mut self) -> XmlResult<Option<Event<'a>>> {
        let start = self.i;
        self.i += 4;
        let text = self.take_until("-->", "'-->' ending comment")?;
        if !self.opts.lenient && text.contains("--") {
            return Err(self.error(XmlErrorKind::MalformedComment, start));
        }
        self.i += 3;
        Ok(self.opts.keep_comments.then(|| Event::Comment(text, self.span(start))))
    }

    fn cdata(&mut self) -> XmlResult<Event<'a>> {
        let start = self.i;
        self.i += 9;
        let text = self.take_until("]]>", "']]>' ending CDATA section")?;
        self.i += 3;
        Ok(Event::CData(text, self.span(start)))
    }

    // ----- scanning -----

    /// An XML name (`NameStartChar NameChar*`).
    fn name(&mut self) -> XmlResult<&'a str> {
        let start = self.i;
        match self.peek() {
            Some(c) if is_name_start(c) => self.i += c.len_utf8(),
            Some(found) => {
                let kind = XmlErrorKind::UnexpectedChar { found, expected: "name start character" };
                return Err(self.error(kind, start));
            }
            None => return Err(self.error(XmlErrorKind::UnexpectedEof { expected: "name" }, start)),
        }
        let bytes = self.src.as_bytes();
        loop {
            match bytes.get(self.i) {
                Some(&b) if b.is_ascii_alphanumeric() || matches!(b, b'_' | b':' | b'-' | b'.') => {
                    self.i += 1;
                }
                Some(b) if !b.is_ascii() => match self.peek() {
                    Some(c) if is_name_char(c) => self.i += c.len_utf8(),
                    _ => break,
                },
                _ => break,
            }
        }
        Ok(&self.src[start..self.i])
    }

    /// The next character, decoded only when it is not ASCII.
    #[inline]
    fn peek(&self) -> Option<char> {
        match *self.src.as_bytes().get(self.i)? {
            b if b.is_ascii() => Some(char::from(b)),
            _ => self.src[self.i..].chars().next(),
        }
    }

    #[inline]
    fn starts_with(&self, s: &str) -> bool {
        self.src.as_bytes()[self.i..].starts_with(s.as_bytes())
    }

    /// Skip XML whitespace; returns how many characters it skipped.
    #[inline]
    fn skip_ws(&mut self) -> usize {
        let start = self.i;
        let bytes = self.src.as_bytes();
        while matches!(bytes.get(self.i), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.i += 1;
        }
        self.i - start
    }

    fn take_while(&mut self, pred: impl Fn(char) -> bool) -> &'a str {
        let start = self.i;
        while let Some(c) = self.peek().filter(|&c| pred(c)) {
            self.i += c.len_utf8();
        }
        &self.src[start..self.i]
    }

    /// The input up to (not including) `delim`, or an end-of-input error
    /// naming `expected` at the current position.
    fn take_until(&mut self, delim: &str, expected: &'static str) -> XmlResult<&'a str> {
        let start = self.i;
        match self.src[start..].find(delim) {
            Some(len) => {
                self.i = start + len;
                Ok(&self.src[start..self.i])
            }
            None => Err(self.error(XmlErrorKind::UnexpectedEof { expected }, start)),
        }
    }

    fn expect(&mut self, b: u8, expected: &'static str) -> XmlResult<()> {
        if self.src.as_bytes().get(self.i) == Some(&b) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.unexpected(expected))
        }
    }

    // ----- positions and errors -----

    /// The position of byte `offset`, counted forward from the last one
    /// counted; from the start when `offset` lies before it, which only an
    /// error does.
    fn pos(&mut self, offset: usize) -> Pos {
        let from = if offset >= self.last.offset { self.last } else { Pos::START };
        self.last = from.advanced(&self.src.as_bytes()[from.offset..offset]);
        self.last
    }

    /// From `start` to the current offset.
    fn span(&mut self, start: usize) -> Span {
        Span::new(self.pos(start), self.pos(self.i))
    }

    fn error(&mut self, kind: XmlErrorKind, at: usize) -> XmlError {
        XmlError::new(kind, self.pos(at))
    }

    /// The character at the current offset is not `expected`.
    fn unexpected(&mut self, expected: &'static str) -> XmlError {
        let kind = match self.peek() {
            Some(found) => XmlErrorKind::UnexpectedChar { found, expected },
            None => XmlErrorKind::UnexpectedEof { expected },
        };
        self.error(kind, self.i)
    }
}

/// Whether `c` may start an XML name. XPDL names are ASCII-ish but we follow
/// the XML 1.0 production closely enough for practical documents.
fn is_name_start(c: char) -> bool {
    c.is_alphabetic() || c == '_' || c == ':'
}

/// Whether `c` may continue an XML name.
fn is_name_char(c: char) -> bool {
    is_name_start(c) || c.is_ascii_digit() || matches!(c, '-' | '.' | '\u{B7}')
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every event of `src`, rendered, or the error.
    fn events(src: &str, opts: ParseOptions) -> Result<Vec<String>, String> {
        let mut r = Reader::new(src, opts);
        let mut out = Vec::new();
        while let Some(ev) = r.next_event().map_err(|e| e.to_string())? {
            out.push(match ev {
                Event::Start { name, empty, span } => {
                    let attrs: Vec<String> = r
                        .attrs()
                        .iter()
                        .map(|a| format!(" {}={:?}@{}", a.name, a.value(), a.span))
                        .collect();
                    format!("<{name}{}{}>@{span}", attrs.concat(), if empty { "/" } else { "" })
                }
                other => format!("{other:?}"),
            });
        }
        Ok(out)
    }

    #[test]
    fn start_tags_carry_attributes_with_spans() {
        let got = events("<a x=\"1\"\n  y='&amp;'><b/></a>", ParseOptions::strict()).unwrap();
        assert_eq!(got[0], "<a x=\"1\"@1:4 y=\"&\"@2:3>@1:1");
        assert_eq!(got[1], "<b/>@2:13");
        assert!(
            got[2].starts_with("End(Span { start: Pos { offset: 0, line: 1, col: 1 }"),
            "{}",
            got[2]
        );
        assert_eq!(got.len(), 3);
    }

    #[test]
    fn values_borrow_unless_they_hold_references() {
        let mut r = Reader::new(r#"<a x="plain" y="a&lt;b"/>"#, ParseOptions::strict());
        r.next_event().unwrap();
        assert!(matches!(r.attrs()[0].value(), Cow::Borrowed("plain")));
        assert_eq!(r.attrs()[1].value(), "a<b");
        assert_eq!(r.attrs()[1].raw, "a&lt;b");
    }

    #[test]
    fn columns_count_characters_not_bytes() {
        let err = events("<é a=\"1\" b>", ParseOptions::strict()).unwrap_err();
        assert!(err.starts_with("1:11:"), "{err}");
    }

    #[test]
    fn a_bad_reference_in_a_value_counts_from_the_quote() {
        let err = events(r#"<a x="ab&bogus;"/>"#, ParseOptions::strict()).unwrap_err();
        assert!(err.starts_with("1:8:"), "{err}");
        let err = events("<a>\n ab&bogus;</a>", ParseOptions::strict()).unwrap_err();
        assert!(err.starts_with("2:4:"), "{err}");
    }

    #[test]
    fn the_reader_is_done_after_an_error() {
        let mut r = Reader::new("<a><b></a>", ParseOptions::strict());
        r.next_event().unwrap();
        r.next_event().unwrap();
        assert!(r.next_event().is_err());
        assert_eq!(r.next_event().unwrap(), None);
    }

    #[test]
    fn the_duplicate_check_switches_to_a_set_past_the_scan_limit() {
        for n in [SCAN_LIMIT - 1, SCAN_LIMIT, SCAN_LIMIT + 1, 3 * SCAN_LIMIT] {
            let attrs: String = (0..n).map(|i| format!(" a{i}=\"{i}\"")).collect();
            assert!(events(&format!("<e{attrs}/>"), ParseOptions::strict()).is_ok(), "{n}");
            for dup in [0, n - 1] {
                let src = format!("<e{attrs} a{dup}=\"x\"/>");
                let err = events(&src, ParseOptions::strict()).unwrap_err();
                let col = src.rfind(" a").unwrap() + 2;
                assert_eq!(err, format!("1:{col}: duplicate attribute \"a{dup}\""), "{n}");
            }
        }
    }

    #[test]
    fn dropped_comments_and_whitespace_send_no_events() {
        let opts = ParseOptions { keep_comments: false, ..ParseOptions::strict() };
        let got = events("<!-- c --><a> <!-- d -->\n </a><!-- e -->", opts).unwrap();
        assert_eq!(got.len(), 2, "{got:?}");
    }
}
