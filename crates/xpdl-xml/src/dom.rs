//! An owned document object model for parsed XML.
//!
//! The tree is a plain owned structure (`Element` owns its children); XPDL
//! documents are small data sheets, so simplicity and cheap traversal beat a
//! slab/arena here.

use crate::error::XmlResult;
use crate::pos::Span;
use crate::reader::{Event, ParseOptions, Reader};
use std::fmt;

/// Parse a document in strict mode.
pub fn parse(input: &str) -> XmlResult<Document> {
    parse_with(input, ParseOptions::default())
}

/// Parse a document with explicit options: the DOM of a [`Reader`]'s
/// events.
pub fn parse_with(input: &str, opts: ParseOptions) -> XmlResult<Document> {
    let mut r = Reader::new(input, opts);
    let (mut prolog, mut root, mut epilog) = (Vec::new(), None, Vec::new());
    // Elements whose close tag is still to come, innermost last.
    let mut open: Vec<Element> = Vec::new();
    while let Some(ev) = r.next_event()? {
        let node = match ev {
            Event::Start { name, empty, span } => {
                let attrs = r.attrs().iter().map(|a| Attribute {
                    name: a.name.to_string(),
                    value: a.value().into_owned(),
                    span: a.span,
                });
                let e = Element {
                    name: name.to_string(),
                    attrs: attrs.collect(),
                    children: Vec::new(),
                    span,
                };
                if !empty {
                    open.push(e);
                    continue;
                }
                Node::element(e)
            }
            Event::End(span) => {
                let mut e = open.pop().expect("the reader closes only open elements");
                e.span = span;
                Node::element(e)
            }
            Event::Text(t, span) => Node { kind: NodeKind::Text(t.into_owned()), span },
            Event::CData(t, span) => Node { kind: NodeKind::CData(t.to_string()), span },
            Event::Comment(t, span) => Node { kind: NodeKind::Comment(t.to_string()), span },
            Event::Pi { target, data, span } => Node {
                kind: NodeKind::Pi { target: target.to_string(), data: data.to_string() },
                span,
            },
        };
        if let Some(parent) = open.last_mut() {
            parent.children.push(node);
        } else if let NodeKind::Element(e) = node.kind {
            root = Some(e);
        } else if root.is_none() {
            prolog.push(node);
        } else {
            epilog.push(node);
        }
    }
    let root = root.expect("the reader ends only after the root element");
    Ok(Document { prolog, root, epilog })
}

/// A parsed XML document: an optional prolog plus exactly one root element.
#[derive(Debug, Clone, PartialEq)]
pub struct Document {
    /// Nodes appearing before the root element (comments, PIs).
    pub prolog: Vec<Node>,
    /// The root element.
    pub root: Element,
    /// Nodes appearing after the root element (comments only).
    pub epilog: Vec<Node>,
}

impl Document {
    /// Create a document from a root element with empty prolog/epilog.
    pub fn from_root(root: Element) -> Self {
        Document { prolog: Vec::new(), root, epilog: Vec::new() }
    }

    /// The root element.
    pub fn root(&self) -> &Element {
        &self.root
    }

    /// Mutable access to the root element.
    pub fn root_mut(&mut self) -> &mut Element {
        &mut self.root
    }
}

/// One attribute: `name="value"` (value already unescaped).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    /// Attribute name.
    pub name: String,
    /// Unescaped attribute value.
    pub value: String,
    /// Source span of the whole attribute.
    pub span: Span,
}

impl Attribute {
    /// Construct an attribute with an empty span (for synthesized trees).
    pub fn new(name: impl Into<String>, value: impl Into<String>) -> Self {
        Attribute { name: name.into(), value: value.into(), span: Span::default() }
    }
}

/// An element node with attributes and children.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Element {
    /// Element (tag) name.
    pub name: String,
    /// Attributes in document order.
    pub attrs: Vec<Attribute>,
    /// Child nodes in document order.
    pub children: Vec<Node>,
    /// Source span from `<` of the open tag to `>` of the close tag.
    pub span: Span,
}

impl Element {
    /// Construct an empty element (for synthesized trees).
    pub fn new(name: impl Into<String>) -> Self {
        Element { name: name.into(), ..Default::default() }
    }

    /// Builder-style: add an attribute.
    pub fn with_attr(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.attrs.push(Attribute::new(name, value));
        self
    }

    /// Builder-style: add a child element.
    pub fn with_child(mut self, child: Element) -> Self {
        self.children.push(Node::element(child));
        self
    }

    /// Builder-style: add text content.
    pub fn with_text(mut self, text: impl Into<String>) -> Self {
        self.children.push(Node { kind: NodeKind::Text(text.into()), span: Span::default() });
        self
    }

    /// Element name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Look up an attribute value by name.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attrs.iter().find(|a| a.name == name).map(|a| a.value.as_str())
    }

    /// Whether the attribute exists.
    pub fn has_attr(&self, name: &str) -> bool {
        self.attr(name).is_some()
    }

    /// Set (insert or replace) an attribute value; returns the old value.
    pub fn set_attr(
        &mut self,
        name: impl Into<String>,
        value: impl Into<String>,
    ) -> Option<String> {
        let name = name.into();
        let value = value.into();
        if let Some(a) = self.attrs.iter_mut().find(|a| a.name == name) {
            Some(std::mem::replace(&mut a.value, value))
        } else {
            self.attrs.push(Attribute::new(name, value));
            None
        }
    }

    /// Remove an attribute; returns its value if it existed.
    pub fn remove_attr(&mut self, name: &str) -> Option<String> {
        let idx = self.attrs.iter().position(|a| a.name == name)?;
        Some(self.attrs.remove(idx).value)
    }

    /// Iterate over child elements (skipping text/comments).
    pub fn child_elements(&self) -> impl Iterator<Item = &Element> {
        self.children.iter().filter_map(Node::as_element)
    }

    /// Iterate mutably over child elements.
    pub fn child_elements_mut(&mut self) -> impl Iterator<Item = &mut Element> {
        self.children.iter_mut().filter_map(|n| match &mut n.kind {
            NodeKind::Element(e) => Some(e),
            _ => None,
        })
    }

    /// First child element with the given tag name.
    pub fn child(&self, name: &str) -> Option<&Element> {
        self.child_elements().find(|e| e.name == name)
    }

    /// All child elements with the given tag name.
    pub fn children_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Element> + 'a {
        self.child_elements().filter(move |e| e.name == name)
    }

    /// Concatenated text content of direct text/CDATA children, trimmed.
    pub fn text(&self) -> String {
        let mut out = String::new();
        for n in &self.children {
            match &n.kind {
                NodeKind::Text(t) | NodeKind::CData(t) => out.push_str(t),
                _ => {}
            }
        }
        out.trim().to_string()
    }

    /// Depth-first pre-order traversal over this element and all descendants.
    pub fn descendants(&self) -> Descendants<'_> {
        Descendants { stack: vec![self] }
    }

    /// Count of all descendant elements including self.
    pub fn subtree_size(&self) -> usize {
        self.descendants().count()
    }

    /// Append a child element.
    pub fn push_child(&mut self, child: Element) {
        self.children.push(Node::element(child));
    }
}

/// Depth-first pre-order iterator over elements.
pub struct Descendants<'a> {
    stack: Vec<&'a Element>,
}

impl<'a> Iterator for Descendants<'a> {
    type Item = &'a Element;

    fn next(&mut self) -> Option<Self::Item> {
        let e = self.stack.pop()?;
        // Push children in reverse so iteration is document order.
        for c in e.child_elements().collect::<Vec<_>>().into_iter().rev() {
            self.stack.push(c);
        }
        Some(e)
    }
}

/// A node in the tree.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// The node payload.
    pub kind: NodeKind,
    /// Source span.
    pub span: Span,
}

impl Node {
    /// Wrap an element as a node.
    pub fn element(e: Element) -> Self {
        let span = e.span;
        Node { kind: NodeKind::Element(e), span }
    }

    /// Borrow as an element if this node is one.
    pub fn as_element(&self) -> Option<&Element> {
        match &self.kind {
            NodeKind::Element(e) => Some(e),
            _ => None,
        }
    }

    /// Whether this node is ignorable whitespace-only text.
    pub fn is_whitespace(&self) -> bool {
        matches!(&self.kind, NodeKind::Text(t) if t.trim().is_empty())
    }
}

/// Node payload variants.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeKind {
    /// A nested element.
    Element(Element),
    /// Character data (already unescaped).
    Text(String),
    /// A CDATA section's raw content.
    CData(String),
    /// A comment's content (without `<!--` / `-->`).
    Comment(String),
    /// A processing instruction: target and data.
    Pi { target: String, data: String },
}

impl fmt::Display for Element {
    /// Compact single-line rendering, mainly for debugging and error text.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{}", self.name)?;
        for a in &self.attrs {
            write!(f, " {}=\"{}\"", a.name, a.value)?;
        }
        if self.children.is_empty() {
            write!(f, "/>")
        } else {
            write!(f, ">…</{}>", self.name)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Element {
        Element::new("cpu")
            .with_attr("name", "Xeon")
            .with_child(Element::new("core").with_attr("frequency", "2"))
            .with_child(Element::new("cache").with_attr("name", "L1"))
            .with_child(Element::new("cache").with_attr("name", "L2"))
    }

    #[test]
    fn attr_lookup() {
        let e = sample();
        assert_eq!(e.attr("name"), Some("Xeon"));
        assert_eq!(e.attr("missing"), None);
        assert!(e.has_attr("name"));
    }

    #[test]
    fn set_attr_replaces_and_inserts() {
        let mut e = sample();
        assert_eq!(e.set_attr("name", "Opteron"), Some("Xeon".to_string()));
        assert_eq!(e.set_attr("vendor", "Intel"), None);
        assert_eq!(e.attr("name"), Some("Opteron"));
        assert_eq!(e.attr("vendor"), Some("Intel"));
    }

    #[test]
    fn remove_attr() {
        let mut e = sample();
        assert_eq!(e.remove_attr("name"), Some("Xeon".to_string()));
        assert_eq!(e.remove_attr("name"), None);
        assert!(!e.has_attr("name"));
    }

    #[test]
    fn child_navigation() {
        let e = sample();
        assert_eq!(e.child_elements().count(), 3);
        assert_eq!(e.child("core").unwrap().attr("frequency"), Some("2"));
        assert_eq!(e.children_named("cache").count(), 2);
        assert!(e.child("gpu").is_none());
    }

    #[test]
    fn text_concatenates_and_trims() {
        let e = Element::new("p").with_text("  hello ").with_text("world  ");
        assert_eq!(e.text(), "hello world");
    }

    #[test]
    fn descendants_preorder_document_order() {
        let e = sample();
        let names: Vec<_> = e.descendants().map(|d| d.name().to_string()).collect();
        assert_eq!(names, ["cpu", "core", "cache", "cache"]);
        assert_eq!(e.subtree_size(), 4);
    }

    #[test]
    fn display_compact() {
        let leaf = Element::new("cache").with_attr("size", "32");
        assert_eq!(leaf.to_string(), "<cache size=\"32\"/>");
        let e = sample();
        assert!(e.to_string().starts_with("<cpu name=\"Xeon\">"));
    }

    #[test]
    fn whitespace_node_detection() {
        let ws = Node { kind: NodeKind::Text("  \n\t".into()), span: Span::default() };
        let txt = Node { kind: NodeKind::Text(" x ".into()), span: Span::default() };
        assert!(ws.is_whitespace());
        assert!(!txt.is_whitespace());
    }

    #[test]
    fn child_elements_mut_allows_edits() {
        let mut e = sample();
        for c in e.child_elements_mut() {
            c.set_attr("touched", "yes");
        }
        assert!(e.child_elements().all(|c| c.attr("touched") == Some("yes")));
    }
}

/// The DOM `parse` and `parse_with` build: nodes, attributes, text, the
/// lenient dialect, errors and the depth limit.
#[cfg(test)]
mod parse_tests {
    use super::*;
    use crate::error::XmlErrorKind;
    use crate::reader::LENIENT_VALUE_ATTR;

    #[test]
    fn minimal_document() {
        let doc = parse("<a/>").unwrap();
        assert_eq!(doc.root().name(), "a");
        assert!(doc.root().attrs.is_empty());
        assert!(doc.root().children.is_empty());
    }

    #[test]
    fn prolog_and_comments() {
        let doc = parse("<?xml version=\"1.0\"?><!-- hi --><a/><!-- bye -->").unwrap();
        assert_eq!(doc.prolog.len(), 2);
        assert_eq!(doc.epilog.len(), 1);
        assert!(matches!(&doc.prolog[0].kind, NodeKind::Pi { target, .. } if target == "xml"));
        assert!(matches!(&doc.prolog[1].kind, NodeKind::Comment(c) if c.trim() == "hi"));
    }

    #[test]
    fn attributes_parsed_in_order() {
        let doc = parse(r#"<m a="1" b='2' c="x &amp; y"/>"#).unwrap();
        let r = doc.root();
        assert_eq!(r.attrs.len(), 3);
        assert_eq!(r.attr("a"), Some("1"));
        assert_eq!(r.attr("b"), Some("2"));
        assert_eq!(r.attr("c"), Some("x & y"));
        assert_eq!(r.attrs[0].name, "a");
        assert_eq!(r.attrs[2].name, "c");
    }

    #[test]
    fn nested_elements_and_text() {
        let doc = parse("<a><b>hi</b><c/></a>").unwrap();
        let r = doc.root();
        assert_eq!(r.child_elements().count(), 2);
        assert_eq!(r.child("b").unwrap().text(), "hi");
    }

    #[test]
    fn cdata_preserved_verbatim() {
        let doc = parse("<a><![CDATA[x < y && z]]></a>").unwrap();
        assert_eq!(doc.root().text(), "x < y && z");
    }

    #[test]
    fn whitespace_nodes_dropped_by_default() {
        let doc = parse("<a>\n  <b/>\n</a>").unwrap();
        assert_eq!(doc.root().children.len(), 1);
        let opts = ParseOptions { trim_whitespace_nodes: false, ..Default::default() };
        let doc2 = parse_with("<a>\n  <b/>\n</a>", opts).unwrap();
        assert_eq!(doc2.root().children.len(), 3);
    }

    #[test]
    fn mismatched_close_tag() {
        let err = parse("<a><b></a></b>").unwrap_err();
        assert_eq!(
            err.kind,
            XmlErrorKind::MismatchedCloseTag { open: "b".into(), close: "a".into() }
        );
    }

    #[test]
    fn unclosed_element() {
        let err = parse("<a><b>").unwrap_err();
        assert!(matches!(err.kind, XmlErrorKind::UnclosedElement { .. }));
    }

    #[test]
    fn duplicate_attribute_rejected() {
        let err = parse(r#"<a x="1" x="2"/>"#).unwrap_err();
        assert_eq!(err.kind, XmlErrorKind::DuplicateAttribute { name: "x".into() });
    }

    #[test]
    fn trailing_content_rejected() {
        let err = parse("<a/>junk").unwrap_err();
        assert_eq!(err.kind, XmlErrorKind::TrailingContent);
    }

    #[test]
    fn no_root_rejected() {
        let err = parse("  <!-- only comments -->  ").unwrap_err();
        assert_eq!(err.kind, XmlErrorKind::NoRootElement);
    }

    #[test]
    fn doctype_skipped() {
        let doc = parse("<!DOCTYPE system><a/>").unwrap();
        assert_eq!(doc.root().name(), "a");
    }

    #[test]
    fn strict_rejects_unquoted_value() {
        let err = parse("<g quantity=2/>").unwrap_err();
        assert_eq!(err.kind, XmlErrorKind::StrictViolation { what: "unquoted attribute value" });
    }

    #[test]
    fn lenient_accepts_unquoted_value() {
        let doc = parse_lenient_str("<group prefix=\"core\" quantity=2><core/></group>");
        assert_eq!(doc.root().attr("quantity"), Some("2"));
    }

    #[test]
    fn lenient_accepts_value_only_element() {
        // Listing 8: <compute_capability="3.0" />
        let doc = parse_lenient_str(r#"<d><compute_capability="3.0" /></d>"#);
        let cc = doc.root().child("compute_capability").unwrap();
        assert_eq!(cc.attr(LENIENT_VALUE_ATTR), Some("3.0"));
    }

    #[test]
    fn lenient_skips_ellipsis_attr_markers() {
        // Listing 3: <channel name="down_link" ... />
        let doc = parse_lenient_str(r#"<i><channel name="down_link" ... /></i>"#);
        let ch = doc.root().child("channel").unwrap();
        assert_eq!(ch.attrs.len(), 1);
        // Listing 9: glued form `...unit="MHz"`.
        let doc2 = parse_lenient_str(r#"<param name="cfrq" frequency="706" ...unit="MHz"/>"#);
        assert_eq!(doc2.root().attr("unit"), Some("MHz"));
    }

    #[test]
    fn lenient_question_mark_placeholder_value() {
        let doc = parse_lenient_str(r#"<inst name="fmul" energy="?" energy_unit="pJ"/>"#);
        assert_eq!(doc.root().attr("energy"), Some("?"));
    }

    #[test]
    fn depth_limit_enforced() {
        let mut s = String::new();
        for _ in 0..100 {
            s.push_str("<a>");
        }
        s.push_str("<b/>");
        for _ in 0..100 {
            s.push_str("</a>");
        }
        let err =
            parse_with(&s, ParseOptions { max_depth: 50, ..Default::default() }).unwrap_err();
        assert!(matches!(err.kind, XmlErrorKind::StrictViolation { .. }));
        assert!(parse_with(&s, ParseOptions { max_depth: 150, ..Default::default() }).is_ok());
    }

    #[test]
    fn strict_rejects_double_dash_comment_lenient_allows() {
        assert!(parse("<a><!-- x -- y --></a>").is_err());
        assert!(parse_with("<a><!-- x -- y --></a>", ParseOptions::lenient()).is_ok());
    }

    #[test]
    fn spans_cover_elements() {
        let src = "<a><b/></a>";
        let doc = parse(src).unwrap();
        assert_eq!(doc.root().span.slice(src), src);
        let b = doc.root().child("b").unwrap();
        assert_eq!(b.span.slice(src), "<b/>");
    }

    #[test]
    fn close_tag_allows_trailing_ws() {
        let doc = parse("<a></a >").unwrap();
        assert_eq!(doc.root().name(), "a");
    }

    fn parse_lenient_str(s: &str) -> Document {
        parse_with(s, ParseOptions::lenient()).unwrap()
    }
}
