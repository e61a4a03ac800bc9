//! A self-contained XML 1.0 subset parser and writer, built for XPDL.
//!
//! The XPDL toolchain described in the paper uses Apache Xerces; this crate
//! is the equivalent substrate written from scratch so the workspace has no
//! external XML dependency. It supports the XML subset that platform
//! descriptors need:
//!
//! * prolog (`<?xml version="1.0" ...?>`), comments, CDATA sections,
//! * elements with attributes, text content, character and entity references,
//! * precise source positions on every node and error,
//! * a canonical writer / pretty printer whose output re-parses to the same
//!   document (round-trip property-tested).
//!
//! One byte-level pull [`Reader`] reads every document; [`parse_with`]
//! builds the DOM from its events, and other crates build their own trees
//! from them without a DOM.
//!
//! Two parsing modes are provided (see [`ParseOptions`]):
//!
//! * **strict** — well-formed XML only; the default.
//! * **lenient** — additionally accepts the small syntax liberties found in
//!   the paper's listings: unquoted attribute values (`quantity=2`),
//!   value-only elements (`<compute_capability="3.0"/>`), and elision
//!   markers (`...`) in attribute position, which are skipped.
//!
//! # Example
//!
//! ```
//! use xpdl_xml::{parse, Document};
//!
//! let doc = parse(r#"<cpu name="Xeon"><core frequency="2.0"/></cpu>"#).unwrap();
//! let root = doc.root();
//! assert_eq!(root.name(), "cpu");
//! assert_eq!(root.attr("name"), Some("Xeon"));
//! assert_eq!(root.child_elements().count(), 1);
//! ```

pub mod dom;
pub mod error;
pub mod escape;
pub mod pos;
pub mod reader;
pub mod writer;

pub use dom::{parse, parse_with, Attribute, Document, Element, Node, NodeKind};
pub use error::{XmlError, XmlErrorKind, XmlResult};
pub use pos::{Pos, Span};
pub use reader::{Attr, Event, ParseOptions, Reader};
pub use writer::{write_document, write_element, WriteOptions};

/// Convenience: parse in lenient mode (accepts the paper-listing dialect).
pub fn parse_lenient(input: &str) -> XmlResult<Document> {
    parse_with(input, ParseOptions::lenient())
}

#[cfg(test)]
mod smoke {
    use super::*;

    #[test]
    fn crate_level_roundtrip() {
        let src = r#"<system id="s"><cpu type="X"/><!-- c --><memory size="16" unit="GB"/></system>"#;
        let doc = parse(src).unwrap();
        let out = write_document(&doc, &WriteOptions::compact());
        let doc2 = parse(&out).unwrap();
        assert_eq!(doc.root().name(), doc2.root().name());
        assert_eq!(
            doc.root().child_elements().count(),
            doc2.root().child_elements().count()
        );
    }
}
