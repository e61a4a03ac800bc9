//! `unescape` as `parse_with` used it before the pull reader, word for
//! word: the reference parser replaces references with it.

use std::borrow::Cow;
use xpdl_xml::error::{XmlError, XmlErrorKind, XmlResult};
use xpdl_xml::escape::{resolve_char_ref, resolve_entity};
use xpdl_xml::pos::Pos;

/// Unescape entity and character references in a string.
///
/// `pos` is the position of the start of `s`, used for error reporting.
pub fn unescape(s: &str, mut pos: Pos) -> XmlResult<Cow<'_, str>> {
    if !s.contains('&') {
        return Ok(Cow::Borrowed(s));
    }
    let mut out = String::with_capacity(s.len());
    let mut chars = s.char_indices().peekable();
    while let Some((i, c)) = chars.next() {
        if c != '&' {
            out.push(c);
            pos.advance(c);
            continue;
        }
        let err_pos = pos;
        // Find the terminating ';'.
        let rest = &s[i + 1..];
        let Some(end) = rest.find(';') else {
            return Err(XmlError::new(
                XmlErrorKind::UnexpectedEof { expected: "';' terminating entity reference" },
                err_pos,
            ));
        };
        let body = &rest[..end];
        let resolved = if let Some(cr) = body.strip_prefix('#') {
            resolve_char_ref(cr).ok_or_else(|| {
                XmlError::new(XmlErrorKind::InvalidCharRef { raw: body.to_string() }, err_pos)
            })?
        } else {
            resolve_entity(body).ok_or_else(|| {
                XmlError::new(XmlErrorKind::UnknownEntity { name: body.to_string() }, err_pos)
            })?
        };
        out.push(resolved);
        // Skip over the entity body and ';' in the iterator and position.
        pos.advance('&');
        for _ in 0..=body.chars().count() {
            if let Some((_, sc)) = chars.next() {
                pos.advance(sc);
            }
        }
    }
    Ok(Cow::Owned(out))
}
