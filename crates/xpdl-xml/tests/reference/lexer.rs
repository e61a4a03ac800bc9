//! A position-tracking character cursor over the input text.
//!
//! The XML grammar is simple enough that the parser works directly on this
//! cursor rather than a separate token stream; "lexer" here provides the
//! low-level scanning primitives (peek/bump/eat/expect, name and whitespace
//! scanning) with precise positions for diagnostics.

use xpdl_xml::error::{XmlError, XmlErrorKind, XmlResult};
use xpdl_xml::pos::{Pos, Span};

/// Character cursor with line/column tracking.
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    src: &'a str,
    pos: Pos,
}

impl<'a> Cursor<'a> {
    /// Create a cursor at the start of `src`.
    pub fn new(src: &'a str) -> Self {
        Cursor { src, pos: Pos::START }
    }

    /// Current position.
    pub fn pos(&self) -> Pos {
        self.pos
    }

    /// Remaining unconsumed input.
    pub fn rest(&self) -> &'a str {
        &self.src[self.pos.offset..]
    }

    /// The full source text.
    pub fn source(&self) -> &'a str {
        self.src
    }

    /// Whether all input is consumed.
    pub fn is_eof(&self) -> bool {
        self.pos.offset >= self.src.len()
    }

    /// Peek at the next character without consuming.
    pub fn peek(&self) -> Option<char> {
        self.rest().chars().next()
    }

    /// Peek at the character after the next one.
    pub fn peek2(&self) -> Option<char> {
        let mut it = self.rest().chars();
        it.next();
        it.next()
    }

    /// Whether the remaining input starts with `s`.
    pub fn starts_with(&self, s: &str) -> bool {
        self.rest().starts_with(s)
    }

    /// Consume and return the next character.
    pub fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos.advance(c);
        Some(c)
    }

    /// Consume `s` if the input starts with it; returns whether it did.
    pub fn eat(&mut self, s: &str) -> bool {
        if self.starts_with(s) {
            for c in s.chars() {
                self.pos.advance(c);
            }
            true
        } else {
            false
        }
    }

    /// Consume `s` or fail with an `UnexpectedChar`/`UnexpectedEof` error.
    pub fn expect(&mut self, s: &'static str) -> XmlResult<()> {
        if self.eat(s) {
            Ok(())
        } else {
            Err(match self.peek() {
                Some(found) => {
                    XmlError::new(XmlErrorKind::UnexpectedChar { found, expected: s }, self.pos)
                }
                None => XmlError::new(XmlErrorKind::UnexpectedEof { expected: s }, self.pos),
            })
        }
    }

    /// Consume consecutive XML whitespace; returns how many chars were eaten.
    pub fn skip_ws(&mut self) -> usize {
        let mut n = 0;
        while matches!(self.peek(), Some(' ' | '\t' | '\r' | '\n')) {
            self.bump();
            n += 1;
        }
        n
    }

    /// Consume characters while `pred` holds; returns the consumed slice.
    pub fn take_while(&mut self, mut pred: impl FnMut(char) -> bool) -> &'a str {
        let start = self.pos.offset;
        while let Some(c) = self.peek() {
            if pred(c) {
                self.bump();
            } else {
                break;
            }
        }
        &self.src[start..self.pos.offset]
    }

    /// Consume input up to (but not including) the delimiter string.
    ///
    /// Returns the consumed slice, or an EOF error naming `expected` if the
    /// delimiter never occurs.
    pub fn take_until(&mut self, delim: &str, expected: &'static str) -> XmlResult<&'a str> {
        let start = self.pos.offset;
        match self.rest().find(delim) {
            Some(rel) => {
                let end = start + rel;
                while self.pos.offset < end {
                    self.bump();
                }
                Ok(&self.src[start..end])
            }
            None => Err(XmlError::new(XmlErrorKind::UnexpectedEof { expected }, self.pos)),
        }
    }

    /// Scan an XML name (`NameStartChar NameChar*`).
    pub fn scan_name(&mut self) -> XmlResult<(&'a str, Span)> {
        let start = self.pos;
        match self.peek() {
            Some(c) if is_name_start(c) => {
                self.bump();
            }
            Some(found) => {
                return Err(XmlError::new(
                    XmlErrorKind::UnexpectedChar { found, expected: "name start character" },
                    self.pos,
                ))
            }
            None => {
                return Err(XmlError::new(XmlErrorKind::UnexpectedEof { expected: "name" }, self.pos))
            }
        }
        let _ = self.take_while(is_name_char);
        let span = Span::new(start, self.pos);
        Ok((span.slice(self.src), span))
    }
}

/// Whether `c` may start an XML name. XPDL names are ASCII-ish but we follow
/// the XML 1.0 production closely enough for practical documents.
pub fn is_name_start(c: char) -> bool {
    c.is_alphabetic() || c == '_' || c == ':'
}

/// Whether `c` may continue an XML name.
pub fn is_name_char(c: char) -> bool {
    is_name_start(c) || c.is_ascii_digit() || matches!(c, '-' | '.' | '\u{B7}')
}

/// Validate a full string as an XML name.
pub fn is_valid_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if is_name_start(c) => {}
        _ => return false,
    }
    chars.all(is_name_char)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_and_peek() {
        let mut c = Cursor::new("ab");
        assert_eq!(c.peek(), Some('a'));
        assert_eq!(c.peek2(), Some('b'));
        assert_eq!(c.bump(), Some('a'));
        assert_eq!(c.bump(), Some('b'));
        assert_eq!(c.bump(), None);
        assert!(c.is_eof());
    }

    #[test]
    fn eat_and_expect() {
        let mut c = Cursor::new("<?xml");
        assert!(c.eat("<?"));
        assert!(!c.eat("<?"));
        c.expect("xml").unwrap();
        let err = c.expect(">").unwrap_err();
        assert!(matches!(err.kind, XmlErrorKind::UnexpectedEof { .. }));
    }

    #[test]
    fn skip_ws_counts() {
        let mut c = Cursor::new("  \t\n x");
        assert_eq!(c.skip_ws(), 5);
        assert_eq!(c.peek(), Some('x'));
        assert_eq!(c.pos().line, 2);
    }

    #[test]
    fn take_until_finds_delimiter() {
        let mut c = Cursor::new("hello-->rest");
        let got = c.take_until("-->", "comment end").unwrap();
        assert_eq!(got, "hello");
        assert!(c.starts_with("-->"));
    }

    #[test]
    fn take_until_eof_errors() {
        let mut c = Cursor::new("no delimiter");
        assert!(c.take_until("-->", "comment end").is_err());
    }

    #[test]
    fn scan_name_accepts_xpdl_style_names() {
        for name in ["cpu", "power_state_machine", "usb_2.0", "x86_MAX_CLOCK", "n-1", "a:b"] {
            let mut c = Cursor::new(name);
            let (got, _) = c.scan_name().unwrap();
            assert_eq!(got, name);
            assert!(is_valid_name(name), "{name}");
        }
    }

    #[test]
    fn scan_name_rejects_leading_digit() {
        let mut c = Cursor::new("1abc");
        assert!(c.scan_name().is_err());
        assert!(!is_valid_name("1abc"));
        assert!(!is_valid_name(""));
    }

    #[test]
    fn take_while_stops_at_predicate() {
        let mut c = Cursor::new("abc123");
        assert_eq!(c.take_while(|ch| ch.is_alphabetic()), "abc");
        assert_eq!(c.rest(), "123");
    }

    #[test]
    fn position_tracking_across_lines() {
        let mut c = Cursor::new("a\nbc");
        c.bump();
        c.bump();
        assert_eq!(c.pos().line, 2);
        assert_eq!(c.pos().col, 1);
        c.bump();
        assert_eq!(c.pos().col, 2);
    }
}
