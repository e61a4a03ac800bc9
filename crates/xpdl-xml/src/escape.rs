//! Entity escaping and unescaping for text and attribute values.

use crate::error::XmlErrorKind;
use std::borrow::Cow;

/// Escape a string for use as element text content.
///
/// Escapes `&`, `<` and `>` (the latter only strictly needed in `]]>` but we
/// always escape it for symmetry and safety).
pub fn escape_text(s: &str) -> Cow<'_, str> {
    escape_impl(s, false)
}

/// Escape a string for use inside a double-quoted attribute value.
pub fn escape_attr(s: &str) -> Cow<'_, str> {
    escape_impl(s, true)
}

fn escape_impl(s: &str, attr: bool) -> Cow<'_, str> {
    let needs = s.bytes().any(|b| {
        matches!(b, b'&' | b'<' | b'>') || (attr && matches!(b, b'"' | b'\n' | b'\t'))
    });
    if !needs {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len() + 8);
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' if attr => out.push_str("&quot;"),
            '\n' if attr => out.push_str("&#10;"),
            '\t' if attr => out.push_str("&#9;"),
            _ => out.push(c),
        }
    }
    Cow::Owned(out)
}

/// Resolve a single entity name (without `&` and `;`) to its character.
///
/// Only the five XML predefined entities are supported; XPDL documents do not
/// declare custom DTD entities.
pub fn resolve_entity(name: &str) -> Option<char> {
    match name {
        "amp" => Some('&'),
        "lt" => Some('<'),
        "gt" => Some('>'),
        "quot" => Some('"'),
        "apos" => Some('\''),
        _ => None,
    }
}

/// Resolve a character reference body (the part between `&#` and `;`),
/// e.g. `x41` or `65`.
pub fn resolve_char_ref(body: &str) -> Option<char> {
    let code = if let Some(hex) = body.strip_prefix('x').or_else(|| body.strip_prefix('X')) {
        u32::from_str_radix(hex, 16).ok()?
    } else {
        body.parse::<u32>().ok()?
    };
    let c = char::from_u32(code)?;
    // XML 1.0 forbids most control characters.
    if matches!(c, '\u{9}' | '\u{A}' | '\u{D}') || c >= '\u{20}' {
        Some(c)
    } else {
        None
    }
}

/// `s` with its entity and character references replaced (borrowed when
/// it has none), or the byte offset and kind of its first bad reference.
pub(crate) fn unescape_refs(s: &str) -> Result<Cow<'_, str>, (usize, XmlErrorKind)> {
    let Some(mut at) = s.find('&') else { return Ok(Cow::Borrowed(s)) };
    let mut out = String::with_capacity(s.len());
    let mut done = 0;
    loop {
        out.push_str(&s[done..at]);
        let (c, len) = reference(&s[at..]).map_err(|kind| (at, kind))?;
        out.push(c);
        done = at + len;
        match s[done..].find('&') {
            Some(next) => at = done + next,
            None => break,
        }
    }
    out.push_str(&s[done..]);
    Ok(Cow::Owned(out))
}

/// Check `s`'s references without replacing them: the byte offset and
/// kind of the first bad one.
pub(crate) fn check_refs(s: &str) -> Result<(), (usize, XmlErrorKind)> {
    let mut done = 0;
    while let Some(next) = s[done..].find('&') {
        let at = done + next;
        done = at + reference(&s[at..]).map_err(|kind| (at, kind))?.1;
    }
    Ok(())
}

/// The reference `s` starts with (`&name;` or `&#n;`): its character and
/// its length in bytes. It ends at the first `;` after the `&`.
fn reference(s: &str) -> Result<(char, usize), XmlErrorKind> {
    let Some(end) = s[1..].find(';') else {
        return Err(XmlErrorKind::UnexpectedEof { expected: "';' terminating entity reference" });
    };
    let body = &s[1..1 + end];
    let c = match body.strip_prefix('#') {
        Some(cr) => resolve_char_ref(cr)
            .ok_or_else(|| XmlErrorKind::InvalidCharRef { raw: body.to_string() })?,
        None => resolve_entity(body)
            .ok_or_else(|| XmlErrorKind::UnknownEntity { name: body.to_string() })?,
    };
    Ok((c, end + 2))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_text_passthrough_borrows() {
        let s = "plain text 123";
        assert!(matches!(escape_text(s), Cow::Borrowed(_)));
    }

    #[test]
    fn escape_text_special_chars() {
        assert_eq!(escape_text("a<b&c>d"), "a&lt;b&amp;c&gt;d");
    }

    #[test]
    fn escape_attr_quotes_and_whitespace() {
        assert_eq!(escape_attr("a\"b\nc\td"), "a&quot;b&#10;c&#9;d");
    }

    #[test]
    fn predefined_entities() {
        assert_eq!(resolve_entity("amp"), Some('&'));
        assert_eq!(resolve_entity("lt"), Some('<'));
        assert_eq!(resolve_entity("gt"), Some('>'));
        assert_eq!(resolve_entity("quot"), Some('"'));
        assert_eq!(resolve_entity("apos"), Some('\''));
        assert_eq!(resolve_entity("nbsp"), None);
    }

    #[test]
    fn char_refs_decimal_and_hex() {
        assert_eq!(resolve_char_ref("65"), Some('A'));
        assert_eq!(resolve_char_ref("x41"), Some('A'));
        assert_eq!(resolve_char_ref("X41"), Some('A'));
        assert_eq!(resolve_char_ref("x2014"), Some('—'));
    }

    #[test]
    fn char_refs_reject_invalid() {
        assert_eq!(resolve_char_ref("x110000"), None);
        assert_eq!(resolve_char_ref("1"), None); // control char U+0001
        assert_eq!(resolve_char_ref("zz"), None);
        assert_eq!(resolve_char_ref(""), None);
    }

    #[test]
    fn char_refs_allow_tab_lf_cr() {
        assert_eq!(resolve_char_ref("9"), Some('\t'));
        assert_eq!(resolve_char_ref("10"), Some('\n'));
        assert_eq!(resolve_char_ref("13"), Some('\r'));
    }

    #[test]
    fn unescape_mixed() {
        let got = unescape_refs("a&amp;b &#x41;&#66; &lt;x&gt;").unwrap();
        assert_eq!(got, "a&b AB <x>");
    }

    #[test]
    fn unescape_no_entities_borrows() {
        assert!(matches!(unescape_refs("abc").unwrap(), Cow::Borrowed(_)));
    }

    #[test]
    fn unescape_unknown_entity_errors_with_offset() {
        let err = unescape_refs("ab&bogus;").unwrap_err();
        assert_eq!(err, (2, XmlErrorKind::UnknownEntity { name: "bogus".into() }));
    }

    #[test]
    fn unescape_unterminated_entity_errors() {
        let err = unescape_refs("&amp").unwrap_err();
        assert!(matches!(err.1, XmlErrorKind::UnexpectedEof { .. }));
    }

    #[test]
    fn check_refs_finds_the_first_bad_reference() {
        assert_eq!(check_refs("a&amp;b&#x41;"), Ok(()));
        assert_eq!(
            check_refs("a&amp;b&#x41;&lt"),
            Err((13, XmlErrorKind::UnexpectedEof { expected: "';' terminating entity reference" }))
        );
        assert_eq!(
            check_refs("é&#1;"),
            Err((2, XmlErrorKind::InvalidCharRef { raw: "#1".into() }))
        );
    }

    #[test]
    fn escape_unescape_roundtrip() {
        let original = "x < y && y > \"z\" 'w'\n\tend";
        let esc = escape_attr(original);
        let back = unescape_refs(&esc).unwrap();
        assert_eq!(back, original);
    }
}
