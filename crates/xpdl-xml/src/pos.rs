//! Source positions and spans for diagnostics.

use std::fmt;

/// A position in the source text: byte offset plus 1-based line/column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Pos {
    /// Byte offset from the start of the input.
    pub offset: usize,
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number (in characters, not bytes).
    pub col: u32,
}

impl Pos {
    /// The position of the first character of the input.
    pub const START: Pos = Pos { offset: 0, line: 1, col: 1 };

    /// Construct a position.
    pub fn new(offset: usize, line: u32, col: u32) -> Self {
        Pos { offset, line, col }
    }

    /// Advance this position over one character.
    pub fn advance(&mut self, c: char) {
        self.offset += c.len_utf8();
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
    }
}

impl Pos {
    /// This position moved forward over `bytes` of UTF-8 text: a line per
    /// `\n`, a column per character. The same as [`Pos::advance`] over
    /// each character, without decoding them.
    pub(crate) fn advanced(mut self, bytes: &[u8]) -> Pos {
        for &b in bytes {
            if b == b'\n' {
                self.line += 1;
                self.col = 1;
            } else if (b as i8) >= -0x40 {
                // Not a continuation byte: a character starts here.
                self.col += 1;
            }
        }
        self.offset += bytes.len();
        self
    }
}

impl Default for Pos {
    fn default() -> Self {
        Pos::START
    }
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// A half-open span `[start, end)` in the source text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Span {
    /// Start position (inclusive).
    pub start: Pos,
    /// End position (exclusive).
    pub end: Pos,
}

impl Span {
    /// Construct a span from two positions.
    pub fn new(start: Pos, end: Pos) -> Self {
        Span { start, end }
    }

    /// A zero-width span at a single position.
    pub fn at(pos: Pos) -> Self {
        Span { start: pos, end: pos }
    }

    /// Byte length of the span.
    pub fn len(&self) -> usize {
        self.end.offset.saturating_sub(self.start.offset)
    }

    /// Whether the span covers no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The source text slice this span covers.
    pub fn slice<'a>(&self, src: &'a str) -> &'a str {
        &src[self.start.offset..self.end.offset]
    }

    /// The smallest span covering both `self` and `other`.
    pub fn merge(&self, other: Span) -> Span {
        let start = if self.start.offset <= other.start.offset { self.start } else { other.start };
        let end = if self.end.offset >= other.end.offset { self.end } else { other.end };
        Span { start, end }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_tracks_lines_and_columns() {
        let mut p = Pos::START;
        for c in "ab\ncd".chars() {
            p.advance(c);
        }
        assert_eq!(p.offset, 5);
        assert_eq!(p.line, 2);
        assert_eq!(p.col, 3);
    }

    #[test]
    fn advance_counts_multibyte_chars_as_one_column() {
        let mut p = Pos::START;
        p.advance('é');
        assert_eq!(p.offset, 2);
        assert_eq!(p.col, 2);
    }

    #[test]
    fn advanced_matches_advance_per_character() {
        for text in ["", "ab", "a\nbc", "é\n\nxé", "\n", "日本\r\nz\u{FEFF}"] {
            let mut p = Pos::new(3, 2, 4);
            for c in text.chars() {
                p.advance(c);
            }
            assert_eq!(Pos::new(3, 2, 4).advanced(text.as_bytes()), p, "{text:?}");
        }
    }

    #[test]
    fn span_slice_and_merge() {
        let src = "hello world";
        let a = Span::new(Pos::new(0, 1, 1), Pos::new(5, 1, 6));
        let b = Span::new(Pos::new(6, 1, 7), Pos::new(11, 1, 12));
        assert_eq!(a.slice(src), "hello");
        assert_eq!(b.slice(src), "world");
        let m = a.merge(b);
        assert_eq!(m.slice(src), "hello world");
        assert_eq!(m.len(), 11);
    }

    #[test]
    fn empty_span() {
        let s = Span::at(Pos::START);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Pos::new(3, 2, 4).to_string(), "2:4");
        assert_eq!(Span::at(Pos::new(3, 2, 4)).to_string(), "2:4");
    }
}
