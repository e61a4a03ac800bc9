//! The typed XPDL element tree.

use crate::diag::Diagnostic;
use crate::error::{CoreError, CoreResult};
use crate::kind::ElementKind;
use crate::units::{Dimension, Quantity, Unit};
use crate::value::AttrValue;
use std::borrow::Cow;
use std::sync::Arc;
use xpdl_xml::{Attr, Attribute, Element, Span};

/// How an element is identified, following the paper's convention (§III-A):
/// `name` declares a meta-model (a reusable type), `id` declares a concrete
/// model (an instance); elements may also be anonymous.
///
/// Note that `name` doubles as a *local* name on nested components (the
/// caches `L1`/`L2`/`L3` in Listing 1, power states `P1`..`P3` in
/// Listing 13); whether a `name` is a repository-level meta-model key or a
/// local name is decided by context (top-level descriptor vs. nested child).
///
/// Identifiers are shared (`Arc<str>`): a copied element shares its
/// template's identifier instead of allocating its own.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Declared with `name=…`.
    Meta(Arc<str>),
    /// Declared with `id=…`.
    Instance(Arc<str>),
    /// No identifier.
    Anonymous,
}

impl ModelKind {
    /// The identifier string, if any.
    pub fn ident(&self) -> Option<&str> {
        match self {
            ModelKind::Meta(s) | ModelKind::Instance(s) => Some(s),
            ModelKind::Anonymous => None,
        }
    }
}

/// One element of an XPDL descriptor, with the identification attributes
/// (`name`, `id`, `type`, `extends`) lifted out and everything else kept as
/// ordered raw attribute pairs.
///
/// Equality compares content only; `span` is provenance and is ignored, so
/// a reparsed serialization compares equal to its source tree.
///
/// Every string but `text` is a shared, immutable `Arc<str>`, so cloning
/// an element (as elaboration does for each instance of a type or group
/// member) bumps reference counts instead of copying strings. `text` is
/// empty on almost every element, and an empty `String` clones for free.
#[derive(Debug, Clone)]
pub struct XpdlElement {
    /// The element's kind (tag).
    pub kind: ElementKind,
    /// Meta-model vs. instance identification.
    pub model_kind: ModelKind,
    /// The `type` attribute: a reference to a meta-model for hardware
    /// elements (`<cpu id="gpu_host" type="Intel_Xeon_E5_2630L"/>`), or a
    /// data-type name on `param` elements (`type="msize"`).
    pub type_ref: Option<Arc<str>>,
    /// The `extends` attribute, split on commas: supertypes for (multiple)
    /// inheritance (Listing 8: `extends="Nvidia_GPU"`).
    pub extends: Vec<Arc<str>>,
    /// All remaining attributes, raw, in document order.
    pub attrs: Vec<(Arc<str>, Arc<str>)>,
    /// Child elements in document order.
    pub children: Vec<XpdlElement>,
    /// Text content (constraint expressions may appear as text).
    pub text: String,
    /// Source span in the originating descriptor file.
    pub span: Span,
    /// Source spans of attributes as written (including the lifted
    /// `name`/`id`/`type`/`extends`), so diagnostics can point at the
    /// offending attribute rather than the whole element. Provenance only:
    /// like `span`, excluded from equality; empty on synthesized trees.
    /// Never changed after parsing, so copies share it; each name shares
    /// its attribute's `Arc`.
    pub attr_spans: Arc<[(Arc<str>, Span)]>,
}

impl XpdlElement {
    /// Create an empty element of a kind (used by builders and tests).
    pub fn new(kind: ElementKind) -> XpdlElement {
        XpdlElement {
            kind,
            model_kind: ModelKind::Anonymous,
            type_ref: None,
            extends: Vec::new(),
            attrs: Vec::new(),
            children: Vec::new(),
            text: String::new(),
            span: Span::default(),
            attr_spans: Arc::default(),
        }
    }

    /// Builder: set the meta-model name.
    pub fn with_name(mut self, name: impl Into<Arc<str>>) -> Self {
        self.model_kind = ModelKind::Meta(name.into());
        self
    }

    /// Builder: set the instance id.
    pub fn with_id(mut self, id: impl Into<Arc<str>>) -> Self {
        self.model_kind = ModelKind::Instance(id.into());
        self
    }

    /// Builder: set the `type` reference.
    pub fn with_type(mut self, ty: impl Into<Arc<str>>) -> Self {
        self.type_ref = Some(ty.into());
        self
    }

    /// Builder: add an attribute.
    pub fn with_attr(mut self, key: impl Into<Arc<str>>, value: impl Into<Arc<str>>) -> Self {
        self.attrs.push((key.into(), value.into()));
        self
    }

    /// Builder: add a child.
    pub fn with_child(mut self, child: XpdlElement) -> Self {
        self.children.push(child);
        self
    }

    /// Convert from a parsed XML element, failing fast on the first
    /// structural fault (an element carrying both `name` and `id`).
    pub fn from_xml(e: &Element) -> CoreResult<XpdlElement> {
        let mut diags = Vec::new();
        let converted = XpdlElement::from_xml_lossy(e, &mut diags);
        first_fault(diags)?;
        Ok(converted)
    }

    /// Convert from a parsed XML element without bailing: structural faults
    /// become [`Diagnostic`]s (with source spans) appended to `diags`, and
    /// conversion continues with a best-effort repair — an element carrying
    /// both `name` and `id` keeps the `name` (meta-model identity wins, as
    /// repositories key on it) and reports code `P001`.
    pub fn from_xml_lossy(e: &Element, diags: &mut Vec<Diagnostic>) -> XpdlElement {
        let mut out = XpdlElement::from_tag(e.name(), &e.attrs, &mut |s: &str| Arc::from(s), diags);
        out.children = e.child_elements().map(|c| XpdlElement::from_xml_lossy(c, diags)).collect();
        out.text = e.text();
        out.span = e.span;
        out
    }

    /// An element of tag `tag` with `attrs` as written, and no children,
    /// text or span yet: `name`/`id`/`type`/`extends` lifted, the rest kept
    /// in order, and every attribute's span recorded. Both `name` and `id`
    /// is `P001` (see [`Self::from_xml_lossy`]). `key` makes each attribute
    /// name's string.
    pub(crate) fn from_tag<A: Written>(
        tag: &str,
        attrs: &[A],
        key: &mut impl FnMut(&str) -> Arc<str>,
        diags: &mut Vec<Diagnostic>,
    ) -> XpdlElement {
        // The first `name`, `id`, `type` and `extends`, and how many
        // attributes carry one of those names.
        let (mut name, mut id, mut ty, mut ext, mut lifted) = (None, None, None, None, 0);
        for a in attrs {
            let first = match a.name() {
                "name" => &mut name,
                "id" => &mut id,
                "type" => &mut ty,
                "extends" => &mut ext,
                _ => continue,
            };
            first.get_or_insert(a);
            lifted += 1;
        }
        let model_kind = match (name, id) {
            (Some(n), Some(i)) => {
                let n = n.value();
                diags.push(
                    Diagnostic::error(
                        format!("{tag}[{n}]"),
                        format!(
                            "element <{tag}> declares both name and id; an element is either \
                             a meta-model (name) or an instance (id)"
                        ),
                    )
                    .with_code("P001")
                    .with_span(i.span())
                    .with_note("keeping name and ignoring id"),
                );
                ModelKind::Meta(Arc::from(&*n))
            }
            (Some(n), None) => ModelKind::Meta(Arc::from(&*n.value())),
            (None, Some(i)) => ModelKind::Instance(Arc::from(&*i.value())),
            (None, None) => ModelKind::Anonymous,
        };
        let extends = ext
            .map(|s| {
                s.value()
                    .split(',')
                    .map(str::trim)
                    .filter(|t| !t.is_empty() && *t != "...")
                    .map(Arc::from)
                    .collect()
            })
            .unwrap_or_default();
        let attr_spans: Arc<[(Arc<str>, Span)]> = if attrs.is_empty() {
            Arc::default()
        } else {
            attrs.iter().map(|a| (key(a.name()), a.span())).collect()
        };
        let mut plain = Vec::with_capacity(attrs.len() - lifted);
        for (a, (key, _)) in attrs.iter().zip(attr_spans.iter()) {
            if !matches!(a.name(), "name" | "id" | "type" | "extends") {
                plain.push((Arc::clone(key), Arc::from(&*a.value())));
            }
        }
        XpdlElement {
            kind: ElementKind::from_tag(tag),
            model_kind,
            type_ref: ty.map(|t| Arc::from(&*t.value())),
            extends,
            attrs: plain,
            children: Vec::new(),
            text: String::new(),
            span: Span::default(),
            attr_spans,
        }
    }

    /// Convert back to an XML element (canonical attribute order:
    /// `name`/`id`, `type`, `extends`, then the remaining attributes in
    /// document order).
    pub fn to_xml(&self) -> Element {
        let mut e = Element::new(self.kind.tag().to_string());
        match &self.model_kind {
            ModelKind::Meta(n) => {
                e.set_attr("name", n.to_string());
            }
            ModelKind::Instance(i) => {
                e.set_attr("id", i.to_string());
            }
            ModelKind::Anonymous => {}
        }
        if let Some(t) = &self.type_ref {
            e.set_attr("type", t.to_string());
        }
        if !self.extends.is_empty() {
            e.set_attr("extends", self.extends.join(", "));
        }
        for (k, v) in &self.attrs {
            e.set_attr(k.to_string(), v.to_string());
        }
        for c in &self.children {
            e.push_child(c.to_xml());
        }
        if !self.text.is_empty() {
            e = e.with_text(self.text.clone());
        }
        e
    }

    // ----- identification -----

    /// The meta-model name, if declared with `name=`.
    pub fn meta_name(&self) -> Option<&str> {
        match &self.model_kind {
            ModelKind::Meta(n) => Some(n),
            _ => None,
        }
    }

    /// The instance id, if declared with `id=`.
    pub fn instance_id(&self) -> Option<&str> {
        match &self.model_kind {
            ModelKind::Instance(i) => Some(i),
            _ => None,
        }
    }

    /// Either identifier.
    pub fn ident(&self) -> Option<&str> {
        self.model_kind.ident()
    }

    // ----- attribute access -----

    /// Raw attribute value.
    pub fn attr(&self, key: &str) -> Option<&str> {
        match key {
            "name" => self.meta_name(),
            "id" => self.instance_id(),
            "type" => self.type_ref.as_deref(),
            _ => self.attrs.iter().find(|(k, _)| &**k == key).map(|(_, v)| &**v),
        }
    }

    /// Set or replace an attribute (handles the lifted special attributes).
    pub fn set_attr(&mut self, key: &str, value: impl Into<Arc<str>>) {
        let value = value.into();
        match key {
            "name" => self.model_kind = ModelKind::Meta(value),
            "id" => self.model_kind = ModelKind::Instance(value),
            "type" => self.type_ref = Some(value),
            _ => {
                if let Some(slot) = self.attrs.iter_mut().find(|(k, _)| &**k == key) {
                    slot.1 = value;
                } else {
                    self.attrs.push((key.into(), value));
                }
            }
        }
    }

    /// Source span of an attribute as written in the descriptor, when the
    /// element was parsed (covers the lifted `name`/`id`/`type`/`extends`
    /// too). `None` on synthesized trees.
    pub fn attr_span(&self, key: &str) -> Option<Span> {
        self.attr_spans.iter().find(|(k, _)| &**k == key).map(|(_, s)| *s)
    }

    /// The best source span for a diagnostic about attribute `key`: the
    /// attribute's own span when recorded, else the element's.
    pub fn span_for_attr(&self, key: &str) -> Span {
        self.attr_span(key).unwrap_or(self.span)
    }

    /// Typed view of an attribute.
    pub fn value(&self, key: &str) -> Option<AttrValue> {
        self.attr(key).map(AttrValue::interpret)
    }

    /// Numeric attribute; `Ok(None)` when absent or `?`, error when present
    /// but non-numeric.
    pub fn number(&self, key: &str) -> CoreResult<Option<f64>> {
        match self.attr(key) {
            None => Ok(None),
            Some(raw) => match AttrValue::interpret(raw) {
                AttrValue::Number(n) => Ok(Some(n)),
                AttrValue::Unknown => Ok(None),
                _ => Err(CoreError::BadNumber { attr: key.to_string(), value: raw.to_string() }),
            },
        }
    }

    /// The unit attribute name for a metric, per the paper's convention:
    /// `<metric>_unit`, except the metric `size` whose unit is the bare
    /// `unit` attribute (§III-A).
    pub fn unit_attr_for(metric: &str) -> String {
        if metric == "size" {
            "unit".to_string()
        } else {
            format!("{metric}_unit")
        }
    }

    /// Whether attribute `key` is `metric`'s unit attribute
    /// ([`unit_attr_for`](Self::unit_attr_for)), checked without building
    /// its name.
    pub fn is_unit_attr(key: &str, metric: &str) -> bool {
        if metric == "size" {
            return key == "unit";
        }
        key.len() == metric.len() + 5 && key.starts_with(metric) && key.ends_with("_unit")
    }

    /// A metric as a [`Quantity`]: reads `<metric>` and its unit attribute.
    ///
    /// Returns `Ok(None)` when the metric is absent or `?`; a missing unit
    /// attribute yields a dimensionless quantity.
    pub fn quantity(&self, metric: &str) -> CoreResult<Option<Quantity>> {
        let Some(v) = self.number(metric)? else { return Ok(None) };
        let unit = self.attrs.iter().find(|(k, _)| Self::is_unit_attr(k, metric));
        Ok(Some(Quantity::parse(v, unit.map_or("", |(_, u)| u))?))
    }

    /// A metric in its dimension's base unit (`frequency="2"
    /// frequency_unit="GHz"` reads `(2e9, Frequency)`), as
    /// [`quantity`](Self::quantity) would give it but without building a
    /// [`Unit`]. `Ok(None)` when the metric is absent
    /// or `?`; an error when its number or unit does not parse, or when
    /// the value in base units is not finite.
    pub fn metric_base(&self, metric: &str) -> CoreResult<Option<(f64, Dimension)>> {
        let Some(v) = self.number(metric)? else { return Ok(None) };
        let unit = self.attrs.iter().find(|(k, _)| Self::is_unit_attr(k, metric));
        let (dimension, factor) = Unit::scale(unit.map_or("", |(_, u)| u))?;
        let base = v * factor;
        if !base.is_finite() {
            return Err(CoreError::NotFinite { attr: metric.to_string() });
        }
        Ok(Some((base, dimension)))
    }

    /// Whether the metric is present but marked `?` (to be microbenchmarked).
    pub fn is_unknown(&self, metric: &str) -> bool {
        self.attr(metric).map(str::trim) == Some("?")
    }

    // ----- navigation -----

    /// Direct children of a kind.
    pub fn children_of_kind<'a>(
        &'a self,
        kind: ElementKind,
    ) -> impl Iterator<Item = &'a XpdlElement> + 'a {
        self.children.iter().filter(move |c| c.kind == kind)
    }

    /// First direct child of a kind.
    pub fn child_of_kind(&self, kind: ElementKind) -> Option<&XpdlElement> {
        self.children.iter().find(|c| c.kind == kind)
    }

    /// Depth-first pre-order traversal including `self`.
    pub fn descendants(&self) -> Descendants<'_> {
        Descendants { stack: vec![self] }
    }

    /// All descendants (excluding self) of a kind, in document order.
    pub fn find_kind(&self, kind: ElementKind) -> impl Iterator<Item = &XpdlElement> {
        self.descendants().skip(1).filter(move |e| e.kind == kind)
    }

    /// Find a descendant (or self) by identifier.
    pub fn find_ident(&self, ident: &str) -> Option<&XpdlElement> {
        self.descendants().find(|e| e.ident() == Some(ident))
    }

    /// Total element count of the subtree.
    pub fn subtree_size(&self) -> usize {
        1 + self.children.iter().map(XpdlElement::subtree_size).sum::<usize>()
    }

    // ----- group convenience (paper §III-A) -----

    /// For `group` elements: the declared member count, if homogeneous.
    pub fn group_quantity(&self) -> CoreResult<Option<usize>> {
        let Some(raw) = self.attr("quantity") else { return Ok(None) };
        // Quantities may be parameter references (Listing 8:
        // quantity="num_SM"); those resolve during elaboration.
        match AttrValue::interpret(raw) {
            AttrValue::Number(n) if n.fract() == 0.0 && (0.0..1e9).contains(&n) => {
                Ok(Some(n as usize))
            }
            AttrValue::Number(_) => Err(CoreError::BadQuantity { value: raw.to_string() }),
            AttrValue::Str(_) => Ok(None),
            _ => Err(CoreError::BadQuantity { value: raw.to_string() }),
        }
    }

    /// For `group` elements: the id prefix used for automatic member ids.
    pub fn group_prefix(&self) -> Option<&str> {
        self.attr("prefix")
    }
}

/// The first error among conversion diagnostics, as a [`CoreError`].
pub(crate) fn first_fault(diags: Vec<Diagnostic>) -> CoreResult<()> {
    match diags.into_iter().find(Diagnostic::is_error) {
        Some(d) if d.code == "P001" => Err(CoreError::BothNameAndId {
            element: d.path.split('[').next().unwrap_or("").to_string(),
        }),
        Some(d) => Err(CoreError::Invalid { context: d.path, message: d.message }),
        None => Ok(()),
    }
}

/// An attribute as written: a DOM [`Attribute`] or a reader's [`Attr`].
pub(crate) trait Written {
    fn name(&self) -> &str;
    fn value(&self) -> Cow<'_, str>;
    fn span(&self) -> Span;
}

impl Written for Attribute {
    fn name(&self) -> &str {
        &self.name
    }

    fn value(&self) -> Cow<'_, str> {
        Cow::Borrowed(&self.value)
    }

    fn span(&self) -> Span {
        self.span
    }
}

impl Written for Attr<'_> {
    fn name(&self) -> &str {
        self.name
    }

    fn value(&self) -> Cow<'_, str> {
        Attr::value(self)
    }

    fn span(&self) -> Span {
        self.span
    }
}

impl PartialEq for XpdlElement {
    fn eq(&self, other: &Self) -> bool {
        self.kind == other.kind
            && self.model_kind == other.model_kind
            && self.type_ref == other.type_ref
            && self.extends == other.extends
            && self.attrs == other.attrs
            && self.text == other.text
            && self.children == other.children
    }
}

/// Depth-first pre-order iterator.
pub struct Descendants<'a> {
    stack: Vec<&'a XpdlElement>,
}

impl<'a> Iterator for Descendants<'a> {
    type Item = &'a XpdlElement;

    fn next(&mut self) -> Option<Self::Item> {
        let e = self.stack.pop()?;
        for c in e.children.iter().rev() {
            self.stack.push(c);
        }
        Some(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpdl_xml::parse_lenient;

    fn elem(src: &str) -> XpdlElement {
        let doc = parse_lenient(src).unwrap();
        XpdlElement::from_xml(doc.root()).unwrap()
    }

    #[test]
    fn listing1_shape() {
        let cpu = elem(
            r#"<cpu name="Intel_Xeon_E5_2630L">
                 <group prefix="core_group" quantity="2">
                   <group prefix="core" quantity="2">
                     <core frequency="2" frequency_unit="GHz"/>
                     <cache name="L1" size="32" unit="KiB"/>
                   </group>
                   <cache name="L2" size="256" unit="KiB"/>
                 </group>
                 <cache name="L3" size="15" unit="MiB"/>
                 <power_model type="power_model_E5_2630L"/>
               </cpu>"#,
        );
        assert_eq!(cpu.kind, ElementKind::Cpu);
        assert_eq!(cpu.meta_name(), Some("Intel_Xeon_E5_2630L"));
        let outer = cpu.child_of_kind(ElementKind::Group).unwrap();
        assert_eq!(outer.group_quantity().unwrap(), Some(2));
        assert_eq!(outer.group_prefix(), Some("core_group"));
        let caches: Vec<_> = cpu.find_kind(ElementKind::Cache).collect();
        assert_eq!(caches.len(), 3);
        assert_eq!(caches[2].attr("name"), Some("L3")); // routed via meta name
        assert_eq!(caches[2].meta_name(), Some("L3"));
        let l3 = caches[2].quantity("size").unwrap().unwrap();
        assert_eq!(l3.to_base(), 15.0 * 1024.0 * 1024.0);
        let pm = cpu.child_of_kind(ElementKind::PowerModel).unwrap();
        assert_eq!(pm.type_ref.as_deref(), Some("power_model_E5_2630L"));
    }

    #[test]
    fn instance_vs_meta() {
        let sys = elem(r#"<system id="myriad_server"><device id="mv153board" type="Movidius_MV153"/></system>"#);
        assert_eq!(sys.instance_id(), Some("myriad_server"));
        assert_eq!(sys.meta_name(), None);
        let dev = sys.child_of_kind(ElementKind::Device).unwrap();
        assert_eq!(dev.instance_id(), Some("mv153board"));
        assert_eq!(dev.type_ref.as_deref(), Some("Movidius_MV153"));
    }

    #[test]
    fn both_name_and_id_rejected() {
        let doc = parse_lenient(r#"<cpu name="a" id="b"/>"#).unwrap();
        let err = XpdlElement::from_xml(doc.root()).unwrap_err();
        assert!(matches!(err, CoreError::BothNameAndId { .. }));
    }

    #[test]
    fn extends_splits_multiple_inheritance() {
        let d = elem(r#"<device name="K20c" extends="Nvidia_Kepler, Pci_Device"/>"#);
        assert_eq!(d.extends, [Arc::from("Nvidia_Kepler"), Arc::from("Pci_Device")]);
    }

    #[test]
    fn frequency_quantity_via_convention() {
        let c = elem(r#"<core frequency="2" frequency_unit="GHz"/>"#);
        let f = c.quantity("frequency").unwrap().unwrap();
        assert_eq!(f.to_base(), 2e9);
    }

    #[test]
    fn static_power_unit_convention() {
        let m = elem(r#"<memory name="DDR3_16G" static_power="4" static_power_unit="W" size="16" unit="GB"/>"#);
        assert_eq!(m.quantity("static_power").unwrap().unwrap().to_base(), 4.0);
        assert_eq!(m.quantity("size").unwrap().unwrap().to_base(), 16e9);
        assert_eq!(m.type_ref, None);
    }

    #[test]
    fn unit_attr_matches_the_naming_convention() {
        for metric in ["size", "static_power", "frequency", "s", ""] {
            let name = XpdlElement::unit_attr_for(metric);
            assert!(XpdlElement::is_unit_attr(&name, metric), "{metric}");
            for other in [metric, "unit", "_unit", "size_unit", "static_power_units", "frequency_unit"] {
                let want = other == name;
                assert_eq!(XpdlElement::is_unit_attr(other, metric), want, "{metric} {other}");
            }
        }
    }

    #[test]
    fn unknown_metric_is_none_and_flagged() {
        let ch = elem(r#"<channel name="up_link" time_offset_per_message="?" time_offset_per_message_unit="ns"/>"#);
        assert_eq!(ch.quantity("time_offset_per_message").unwrap(), None);
        assert!(ch.is_unknown("time_offset_per_message"));
        assert!(!ch.is_unknown("name"));
    }

    #[test]
    fn bad_number_errors() {
        let e = elem(r#"<cache size="big" unit="KB"/>"#);
        assert!(matches!(e.number("size"), Err(CoreError::BadNumber { .. })));
    }

    #[test]
    fn group_quantity_parameter_reference_defers() {
        // Listing 8: quantity="num_SM" resolves at elaboration time.
        let g = elem(r#"<group name="SMs" quantity="num_SM"/>"#);
        assert_eq!(g.group_quantity().unwrap(), None);
        let bad = elem(r#"<group quantity="2.5"/>"#);
        assert!(bad.group_quantity().is_err());
    }

    #[test]
    fn to_xml_roundtrip() {
        let src = r#"<cpu name="X"><core frequency="2" frequency_unit="GHz"/><cache name="L1" size="32" unit="KiB"/></cpu>"#;
        let e = elem(src);
        let xml = e.to_xml();
        let back = XpdlElement::from_xml(&xml).unwrap();
        assert_eq!(e.kind, back.kind);
        assert_eq!(e.model_kind, back.model_kind);
        assert_eq!(e.children.len(), back.children.len());
        assert_eq!(e.attrs, back.attrs);
    }

    #[test]
    fn set_attr_handles_special_and_plain() {
        let mut e = XpdlElement::new(ElementKind::Cpu);
        e.set_attr("name", "A");
        assert_eq!(e.meta_name(), Some("A"));
        e.set_attr("id", "b");
        assert_eq!(e.instance_id(), Some("b"));
        e.set_attr("type", "T");
        assert_eq!(e.type_ref.as_deref(), Some("T"));
        e.set_attr("frequency", "2");
        e.set_attr("frequency", "3");
        assert_eq!(e.attr("frequency"), Some("3"));
        assert_eq!(e.attrs.len(), 1);
    }

    #[test]
    fn find_ident_searches_subtree() {
        let sys = elem(
            r#"<system id="s"><node><device id="gpu1" type="K20c"/></node></system>"#,
        );
        assert!(sys.find_ident("gpu1").is_some());
        assert!(sys.find_ident("gpu2").is_none());
        assert_eq!(sys.find_ident("s").unwrap().kind, ElementKind::System);
    }

    #[test]
    fn subtree_size_counts() {
        let sys = elem(r#"<system id="s"><node><socket><cpu type="X"/></socket></node></system>"#);
        assert_eq!(sys.subtree_size(), 4);
    }

    #[test]
    fn attr_spans_recorded_for_plain_and_lifted() {
        let src = "<cpu name=\"X\"\n     frequency=\"2\"/>";
        let e = elem(src);
        let name_span = e.attr_span("name").expect("name span");
        assert_eq!((name_span.start.line, name_span.start.col), (1, 6));
        let freq_span = e.attr_span("frequency").expect("frequency span");
        assert_eq!((freq_span.start.line, freq_span.start.col), (2, 6));
        assert_eq!(e.attr_span("missing"), None);
        // Fallback covers synthesized elements.
        assert_eq!(XpdlElement::new(ElementKind::Cpu).span_for_attr("x"), Span::default());
    }

    #[test]
    fn from_xml_lossy_repairs_both_name_and_id() {
        let doc = parse_lenient(r#"<cpu name="a" id="b"/>"#).unwrap();
        let mut diags = Vec::new();
        let e = XpdlElement::from_xml_lossy(doc.root(), &mut diags);
        assert_eq!(e.meta_name(), Some("a"));
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "P001");
        assert!(diags[0].is_error());
        assert!(diags[0].span.is_some());
    }

    #[test]
    fn attr_lookup_covers_lifted_attributes() {
        let e = elem(r#"<cpu name="X" type="Y" frequency="1"/>"#);
        assert_eq!(e.attr("name"), Some("X"));
        assert_eq!(e.attr("type"), Some("Y"));
        assert_eq!(e.attr("frequency"), Some("1"));
        assert_eq!(e.attr("id"), None);
    }
}
