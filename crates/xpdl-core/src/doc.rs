//! Whole-document handling: parsing descriptor files and identifier indices.

use crate::builder::build;
use crate::diag::Diagnostic;
use crate::error::{CoreError, CoreResult};
use crate::model::{first_fault, XpdlElement};
use std::collections::BTreeMap;
use xpdl_xml::{write_element, ParseOptions, WriteOptions};

/// One parsed `.xpdl` descriptor.
#[derive(Debug, Clone, PartialEq)]
pub struct XpdlDocument {
    root: XpdlElement,
    /// The descriptor's origin (file path or repository URI), for messages.
    pub origin: String,
}

impl XpdlDocument {
    /// Wrap an already-built element tree.
    pub fn from_root(root: XpdlElement) -> XpdlDocument {
        XpdlDocument { root, origin: String::from("<memory>") }
    }

    /// Parse descriptor text. Lenient XML mode is used because the model
    /// library ships the paper's listings verbatim (see `xpdl_xml` docs).
    pub fn parse_str(src: &str) -> CoreResult<XpdlDocument> {
        Self::parse_named(src, "<string>")
    }

    /// Parse with strict XML conformance.
    pub fn parse_strict(src: &str) -> CoreResult<XpdlDocument> {
        Self::parse_checked(src, ParseOptions::strict(), "<string>")
    }

    /// Parse descriptor text, recording its origin.
    pub fn parse_named(src: &str, origin: &str) -> CoreResult<XpdlDocument> {
        Self::parse_checked(src, ParseOptions::lenient(), origin)
    }

    /// Parse descriptor text fail-soft: structural conversion faults (e.g.
    /// an element with both `name` and `id`) are reported as [`Diagnostic`]s
    /// with source spans instead of aborting, and a best-effort repaired
    /// document is returned alongside them. XML well-formedness errors are
    /// still fatal — without a tree there is nothing to recover.
    pub fn parse_named_lossy(
        src: &str,
        origin: &str,
    ) -> CoreResult<(XpdlDocument, Vec<Diagnostic>)> {
        let mut diags = Vec::new();
        let root = build(src, ParseOptions::lenient(), &mut diags)?;
        Ok((XpdlDocument { root, origin: origin.to_string() }, diags))
    }

    /// Parse, failing on the first structural fault as
    /// [`XpdlElement::from_xml`] does, but only once the whole text is
    /// well-formed XML.
    fn parse_checked(src: &str, opts: ParseOptions, origin: &str) -> CoreResult<XpdlDocument> {
        let mut diags = Vec::new();
        let root = build(src, opts, &mut diags)?;
        first_fault(diags)?;
        Ok(XpdlDocument { root, origin: origin.to_string() })
    }

    /// The root element.
    pub fn root(&self) -> &XpdlElement {
        &self.root
    }

    /// Mutable root access.
    pub fn root_mut(&mut self) -> &mut XpdlElement {
        &mut self.root
    }

    /// Consume into the root element.
    pub fn into_root(self) -> XpdlElement {
        self.root
    }

    /// The descriptor's repository key: the root's `name` (meta-model) or
    /// `id` (concrete model).
    pub fn key(&self) -> Option<&str> {
        self.root.ident()
    }

    /// Serialize back to pretty-printed XML.
    pub fn to_xml_string(&self) -> String {
        write_element(&self.root.to_xml(), &WriteOptions::pretty())
    }

    /// Build an index of every identifier in the document to its element
    /// path (indices from the root). Fails on duplicates, which the paper
    /// requires to be unique for reference non-ambiguity (§III-A).
    pub fn ident_index(&self) -> CoreResult<BTreeMap<String, Vec<usize>>> {
        let mut index = BTreeMap::new();
        index_into(&self.root, &mut Vec::new(), &mut index)?;
        Ok(index)
    }

    /// Look up an element by the path produced by [`Self::ident_index`].
    pub fn element_at(&self, path: &[usize]) -> Option<&XpdlElement> {
        let mut cur = &self.root;
        for &i in path {
            cur = cur.children.get(i)?;
        }
        Some(cur)
    }
}

fn index_into(
    e: &XpdlElement,
    path: &mut Vec<usize>,
    index: &mut BTreeMap<String, Vec<usize>>,
) -> CoreResult<()> {
    // `param`/`const`/`property` names are lexically scoped to their
    // element (two devices may both configure an `L1size`); they do not
    // participate in document-wide identifier uniqueness.
    let scoped = matches!(
        e.kind,
        crate::kind::ElementKind::Param
            | crate::kind::ElementKind::Const
            | crate::kind::ElementKind::Property
    );
    if let Some(ident) = e.ident().filter(|_| !scoped) {
        if index.insert(ident.to_string(), path.clone()).is_some() {
            return Err(CoreError::DuplicateIdentifier { ident: ident.to_string() });
        }
    }
    for (i, c) in e.children.iter().enumerate() {
        path.push(i);
        index_into(c, path, index)?;
        path.pop();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind::ElementKind;

    const GPU_SERVER: &str = r#"
      <system id="liu_gpu_server">
        <socket><cpu id="gpu_host" type="Intel_Xeon_E5_2630L"/></socket>
        <device id="gpu1" type="Nvidia_K20c"/>
        <interconnects>
          <interconnect id="connection1" type="pcie3" head="gpu_host" tail="gpu1"/>
        </interconnects>
      </system>"#;

    #[test]
    fn parse_listing7() {
        let doc = XpdlDocument::parse_str(GPU_SERVER).unwrap();
        assert_eq!(doc.key(), Some("liu_gpu_server"));
        assert_eq!(doc.root().kind, ElementKind::System);
        let ic = doc.root().find_kind(ElementKind::Interconnect).next().unwrap();
        assert_eq!(ic.attr("head"), Some("gpu_host"));
        assert_eq!(ic.attr("tail"), Some("gpu1"));
    }

    #[test]
    fn ident_index_and_paths() {
        let doc = XpdlDocument::parse_str(GPU_SERVER).unwrap();
        let idx = doc.ident_index().unwrap();
        assert_eq!(idx.len(), 4);
        let path = &idx["gpu1"];
        let e = doc.element_at(path).unwrap();
        assert_eq!(e.kind, ElementKind::Device);
        assert_eq!(doc.element_at(&idx["liu_gpu_server"]).unwrap().kind, ElementKind::System);
    }

    #[test]
    fn duplicate_identifier_detected() {
        let doc = XpdlDocument::parse_str(r#"<system id="s"><device id="d"/><device id="d"/></system>"#)
            .unwrap();
        assert!(matches!(
            doc.ident_index(),
            Err(CoreError::DuplicateIdentifier { .. })
        ));
    }

    #[test]
    fn strict_vs_lenient() {
        let dialect = r#"<group prefix="core" quantity=2><core/></group>"#;
        assert!(XpdlDocument::parse_strict(dialect).is_err());
        assert!(XpdlDocument::parse_str(dialect).is_ok());
    }

    #[test]
    fn serialization_roundtrip() {
        let doc = XpdlDocument::parse_str(GPU_SERVER).unwrap();
        let text = doc.to_xml_string();
        let again = XpdlDocument::parse_str(&text).unwrap();
        assert_eq!(doc.root(), again.root());
    }

    #[test]
    fn element_at_out_of_range_is_none() {
        let doc = XpdlDocument::parse_str("<system id=\"s\"/>").unwrap();
        assert!(doc.element_at(&[0]).is_none());
        assert!(doc.element_at(&[]).is_some());
    }

    #[test]
    fn parse_named_lossy_recovers_with_diagnostics() {
        let (doc, diags) = XpdlDocument::parse_named_lossy(
            r#"<system id="s"><cpu name="X" id="x"/></system>"#,
            "f.xpdl",
        )
        .unwrap();
        assert_eq!(doc.key(), Some("s"));
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "P001");
        // XML-level breakage is still fatal.
        assert!(XpdlDocument::parse_named_lossy("<system id=", "f.xpdl").is_err());
    }

    #[test]
    fn origin_recorded() {
        let doc = XpdlDocument::parse_named("<cpu name=\"X\"/>", "cpus/X.xpdl").unwrap();
        assert_eq!(doc.origin, "cpus/X.xpdl");
    }
}
