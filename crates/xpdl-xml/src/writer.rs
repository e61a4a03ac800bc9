//! Serialization of the DOM back to XML text.

use crate::dom::{Document, Element, Node, NodeKind};
use crate::escape::{escape_attr, escape_text};
use std::fmt::Write;

/// Output formatting configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteOptions {
    /// Indentation string per nesting level; empty for compact output.
    pub indent: String,
    /// Emit an `<?xml version="1.0" encoding="UTF-8"?>` declaration if the
    /// document's prolog does not already contain one.
    pub declaration: bool,
    /// Emit comments.
    pub comments: bool,
}

impl Default for WriteOptions {
    fn default() -> Self {
        WriteOptions { indent: "  ".to_string(), declaration: false, comments: true }
    }
}

impl WriteOptions {
    /// Pretty-printed with two-space indent (the default).
    pub fn pretty() -> Self {
        Self::default()
    }

    /// Single-line output with no inter-element whitespace.
    pub fn compact() -> Self {
        WriteOptions { indent: String::new(), ..Self::default() }
    }
}

/// Serialize a whole document.
pub fn write_document(doc: &Document, opts: &WriteOptions) -> String {
    let mut out = String::new();
    let has_decl = doc
        .prolog
        .iter()
        .any(|n| matches!(&n.kind, NodeKind::Pi { target, .. } if target == "xml"));
    if opts.declaration && !has_decl {
        out.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>");
        newline(&mut out, opts);
    }
    for n in &doc.prolog {
        write_node(n, 0, opts, &mut out);
        newline(&mut out, opts);
    }
    write_elem_into(&doc.root, 0, opts, &mut out);
    for n in &doc.epilog {
        newline(&mut out, opts);
        write_node(n, 0, opts, &mut out);
    }
    out
}

/// Serialize a single element (and subtree).
pub fn write_element(elem: &Element, opts: &WriteOptions) -> String {
    let mut out = String::new();
    write_elem_into(elem, 0, opts, &mut out);
    out
}

fn newline(out: &mut String, opts: &WriteOptions) {
    if !opts.indent.is_empty() {
        out.push('\n');
    }
}

fn indent(out: &mut String, depth: usize, opts: &WriteOptions) {
    for _ in 0..depth {
        out.push_str(&opts.indent);
    }
}

fn write_elem_into(elem: &Element, depth: usize, opts: &WriteOptions, out: &mut String) {
    out.push('<');
    out.push_str(&elem.name);
    for a in &elem.attrs {
        let _ = write!(out, " {}=\"{}\"", a.name, escape_attr(&a.value));
    }
    let visible: Vec<&Node> = elem
        .children
        .iter()
        .filter(|n| opts.comments || !matches!(n.kind, NodeKind::Comment(_)))
        .collect();
    if visible.is_empty() {
        out.push_str("/>");
        return;
    }
    out.push('>');
    // Text-only content stays inline; mixed/element content gets indented.
    let text_only = visible
        .iter()
        .all(|n| matches!(n.kind, NodeKind::Text(_) | NodeKind::CData(_)));
    if text_only {
        for n in &visible {
            write_node(n, depth + 1, opts, out);
        }
    } else {
        for n in &visible {
            newline(out, opts);
            indent(out, depth + 1, opts);
            write_node(n, depth + 1, opts, out);
        }
        newline(out, opts);
        indent(out, depth, opts);
    }
    out.push_str("</");
    out.push_str(&elem.name);
    out.push('>');
}

fn write_node(node: &Node, depth: usize, opts: &WriteOptions, out: &mut String) {
    match &node.kind {
        NodeKind::Element(e) => write_elem_into(e, depth, opts, out),
        NodeKind::Text(t) => out.push_str(&escape_text(t)),
        NodeKind::CData(t) => {
            out.push_str("<![CDATA[");
            out.push_str(t);
            out.push_str("]]>");
        }
        NodeKind::Comment(c) => {
            out.push_str("<!--");
            out.push_str(c);
            out.push_str("-->");
        }
        NodeKind::Pi { target, data } => {
            out.push_str("<?");
            out.push_str(target);
            if !data.is_empty() {
                out.push(' ');
                out.push_str(data);
            }
            out.push_str("?>");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn compact_roundtrip() {
        let src = r#"<a x="1"><b>hi</b><c/></a>"#;
        let doc = parse(src).unwrap();
        assert_eq!(write_document(&doc, &WriteOptions::compact()), src);
    }

    #[test]
    fn pretty_output_indents() {
        let doc = parse("<a><b><c/></b></a>").unwrap();
        let out = write_document(&doc, &WriteOptions::pretty());
        assert_eq!(out, "<a>\n  <b>\n    <c/>\n  </b>\n</a>");
    }

    #[test]
    fn declaration_emitted_once() {
        let doc = parse("<a/>").unwrap();
        let out = write_document(
            &doc,
            &WriteOptions { declaration: true, ..WriteOptions::compact() },
        );
        assert!(out.starts_with("<?xml version=\"1.0\""));
        // Re-serializing a parsed declaration must not duplicate it.
        let doc2 = parse("<?xml version=\"1.0\"?><a/>").unwrap();
        let out2 = write_document(
            &doc2,
            &WriteOptions { declaration: true, ..WriteOptions::compact() },
        );
        assert_eq!(out2.matches("<?xml").count(), 1);
    }

    #[test]
    fn attr_values_escaped() {
        let e = Element::new("m").with_attr("expr", "a < b & c > \"d\"");
        let out = write_element(&e, &WriteOptions::compact());
        assert_eq!(out, r#"<m expr="a &lt; b &amp; c &gt; &quot;d&quot;"/>"#);
        let back = parse(&out).unwrap();
        assert_eq!(back.root().attr("expr"), Some("a < b & c > \"d\""));
    }

    #[test]
    fn text_escaped_and_roundtrips() {
        let e = Element::new("t").with_text("1 < 2 && 3 > 2");
        let out = write_element(&e, &WriteOptions::compact());
        let back = parse(&out).unwrap();
        assert_eq!(back.root().text(), "1 < 2 && 3 > 2");
    }

    #[test]
    fn comments_can_be_suppressed() {
        let doc = parse("<a><!-- note --><b/></a>").unwrap();
        let with = write_document(&doc, &WriteOptions::compact());
        assert!(with.contains("<!-- note -->"));
        let without = write_document(
            &doc,
            &WriteOptions { comments: false, ..WriteOptions::compact() },
        );
        assert!(!without.contains("note"));
    }

    #[test]
    fn cdata_roundtrip() {
        let src = "<a><![CDATA[raw < & > stuff]]></a>";
        let doc = parse(src).unwrap();
        assert_eq!(write_document(&doc, &WriteOptions::compact()), src);
    }

    #[test]
    fn pi_roundtrip() {
        let src = "<?xml version=\"1.0\"?><a/>";
        let doc = parse(src).unwrap();
        assert_eq!(write_document(&doc, &WriteOptions::compact()), src);
    }

    #[test]
    fn empty_element_self_closes() {
        let doc = parse("<a></a>").unwrap();
        assert_eq!(write_document(&doc, &WriteOptions::compact()), "<a/>");
    }

    #[test]
    fn text_only_content_stays_inline_when_pretty() {
        let doc = parse("<a><b>text</b></a>").unwrap();
        let out = write_document(&doc, &WriteOptions::pretty());
        assert!(out.contains("<b>text</b>"), "{out}");
    }
}
