//! The flat runtime model with navigation, getters and analyses.

use std::collections::{BTreeMap, HashMap};
use xpdl_core::units::Quantity;
use xpdl_core::{ModelKind, XpdlElement};

/// A node in the flat tree.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RtNode {
    /// Tag/kind string index.
    pub kind: u32,
    /// Identifier string index (`name` or `id`), if any.
    pub ident: Option<u32>,
    /// Whether `ident` came from `id` (instance) rather than `name`.
    pub is_instance: bool,
    /// `type=` string index.
    pub type_ref: Option<u32>,
    /// Attribute (key, value) string-index pairs in document order.
    pub attrs: Vec<(u32, u32)>,
    /// Child node indices.
    pub children: Vec<u32>,
    /// Parent node index (`None` for the root).
    pub parent: Option<u32>,
}

/// The loaded runtime model: immutable once built, with its query indexes
/// built in the one constructor that [`RuntimeModel::from_element`] and
/// [`crate::format::decode`] share.
#[derive(Debug, Clone)]
pub struct RuntimeModel {
    pub(crate) strings: Vec<String>,
    pub(crate) nodes: Vec<RtNode>,
    index: ModelIndex,
}

/// The query indexes of one [`RuntimeModel`], built once at load: the
/// identifier index, per-kind node lists, and the category-4 analyses.
#[derive(Debug, Clone, Default)]
pub struct ModelIndex {
    /// Identifier → node; the first occurrence in document order wins.
    ident: HashMap<String, u32>,
    /// Kind → every node of that kind (anonymous ones included), in
    /// document order.
    kinds: BTreeMap<String, Vec<u32>>,
    num_cores: usize,
    num_cuda_devices: usize,
    total_static_power_w: f64,
}

impl ModelIndex {
    /// Index a model: the identifier and kind indexes in one pass over its
    /// nodes, then the analyses. Reads only the model's tree, never its
    /// own index.
    pub fn compile(model: &RuntimeModel) -> ModelIndex {
        let mut ident = HashMap::new();
        // Group by interned kind id first: a vector index per node instead
        // of a string-keyed map lookup.
        let mut by_kind = vec![Vec::new(); model.strings.len()];
        for (idx, n) in model.nodes.iter().enumerate() {
            if let Some(id) = n.ident {
                ident.entry(model.strings[id as usize].clone()).or_insert(idx as u32);
            }
            by_kind[n.kind as usize].push(idx as u32);
        }
        let kinds: BTreeMap<String, Vec<u32>> = by_kind
            .into_iter()
            .enumerate()
            .filter(|(_, list)| !list.is_empty())
            .map(|(kind, list)| (model.strings[kind].clone(), list))
            .collect();
        let total_static_power_w = (0..model.nodes.len() as u32)
            .filter_map(|idx| NodeRef { model, idx }.quantity("static_power"))
            .map(|q| q.to_base())
            .sum();
        let of_kind = |kind: &str| kinds.get(kind).map_or(&[][..], Vec::as_slice);
        let num_cores = of_kind("core").len();
        let num_cuda_devices = of_kind("device")
            .iter()
            .filter(|&&idx| {
                NodeRef { model, idx }.descendants().into_iter().any(|n| {
                    n.kind() == "programming_model"
                        && n.type_ref().is_some_and(|t| t.contains("cuda"))
                })
            })
            .count();
        ModelIndex { ident, kinds, num_cores, num_cuda_devices, total_static_power_w }
    }
}

impl RuntimeModel {
    /// Build from an (elaborated) element tree.
    pub fn from_element(root: &XpdlElement) -> RuntimeModel {
        let mut b = Builder { strings: Vec::new(), interner: HashMap::new(), nodes: Vec::new() };
        b.add(root, None);
        RuntimeModel::new(b.strings, b.nodes)
    }

    /// The one constructor: takes a validated flat tree and indexes it.
    pub(crate) fn new(strings: Vec<String>, nodes: Vec<RtNode>) -> RuntimeModel {
        let mut model = RuntimeModel { strings, nodes, index: ModelIndex::default() };
        model.index = ModelIndex::compile(&model);
        model
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Node by flat index, if in range. Indices are stable for the
    /// lifetime of one model (document order, root at 0).
    pub fn node_at(&self, idx: u32) -> Option<NodeRef<'_>> {
        if (idx as usize) < self.nodes.len() {
            Some(NodeRef { model: self, idx })
        } else {
            None
        }
    }

    /// Whether the model is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The root node.
    pub fn root(&self) -> NodeRef<'_> {
        NodeRef { model: self, idx: 0 }
    }

    /// Find a node by identifier (category 2 of the query API).
    pub fn find(&self, ident: &str) -> Option<NodeRef<'_>> {
        self.index.ident.get(ident).map(|&idx| NodeRef { model: self, idx })
    }

    /// All nodes of a kind, in document order.
    pub fn nodes_of_kind(&self, kind: &str) -> impl ExactSizeIterator<Item = NodeRef<'_>> + '_ {
        let list = self.index.kinds.get(kind).map_or(&[][..], Vec::as_slice);
        list.iter().map(move |&idx| NodeRef { model: self, idx })
    }

    // ---- category 4: analysis functions for derived attributes ----

    /// Total number of cores.
    pub fn num_cores(&self) -> usize {
        self.index.num_cores
    }

    /// Number of CUDA-capable devices.
    pub fn num_cuda_devices(&self) -> usize {
        self.index.num_cuda_devices
    }

    /// Sum of in-line `static_power` metrics over the whole model, watts.
    pub fn total_static_power_w(&self) -> f64 {
        self.index.total_static_power_w
    }

    /// Whether any installed software entry matches a predicate — the
    /// conditional-composition availability check ("constraints on
    /// availability of specific libraries … in the target system").
    pub fn has_installed(&self, pred: impl Fn(&str) -> bool) -> bool {
        self.nodes_of_kind("installed").filter_map(|n| n.type_ref()).any(pred)
    }
}

/// Flattens an element tree. The interner is keyed by the tree's own
/// strings, so each distinct string is copied once, into `strings`, in
/// first-seen order.
struct Builder<'e> {
    strings: Vec<String>,
    interner: HashMap<&'e str, u32>,
    nodes: Vec<RtNode>,
}

impl<'e> Builder<'e> {
    fn intern(&mut self, s: &'e str) -> u32 {
        let next = self.strings.len() as u32;
        let i = *self.interner.entry(s).or_insert(next);
        if i == next {
            self.strings.push(s.to_string());
        }
        i
    }

    fn add(&mut self, e: &'e XpdlElement, parent: Option<u32>) -> u32 {
        let idx = self.nodes.len() as u32;
        let kind = self.intern(e.kind.tag());
        let (ident, is_instance) = match &e.model_kind {
            ModelKind::Meta(n) => (Some(self.intern(n)), false),
            ModelKind::Instance(i) => (Some(self.intern(i)), true),
            ModelKind::Anonymous => (None, false),
        };
        let type_ref = e.type_ref.as_deref().map(|t| self.intern(t));
        let attrs = e
            .attrs
            .iter()
            .map(|(k, v)| {
                let ki = self.intern(k);
                let vi = self.intern(v);
                (ki, vi)
            })
            .collect();
        self.nodes.push(RtNode {
            kind,
            ident,
            is_instance,
            type_ref,
            attrs,
            children: Vec::with_capacity(e.children.len()),
            parent,
        });
        for c in &e.children {
            let ci = self.add(c, Some(idx));
            self.nodes[idx as usize].children.push(ci);
        }
        idx
    }
}

/// A borrowed reference to one node — the object the generated getters of
/// the paper's C++ API correspond to.
#[derive(Debug, Clone, Copy)]
pub struct NodeRef<'m> {
    model: &'m RuntimeModel,
    idx: u32,
}

impl<'m> NodeRef<'m> {
    fn node(&self) -> &'m RtNode {
        &self.model.nodes[self.idx as usize]
    }

    fn s(&self, i: u32) -> &'m str {
        &self.model.strings[i as usize]
    }

    /// The node's index (stable within one model).
    pub fn index(&self) -> u32 {
        self.idx
    }

    /// Kind/tag string (`m.get_kind()`).
    pub fn kind(&self) -> &'m str {
        self.s(self.node().kind)
    }

    /// Identifier (`m.get_id()`), if any.
    pub fn ident(&self) -> Option<&'m str> {
        self.node().ident.map(|i| self.s(i))
    }

    /// Whether this is an instance (`id=`) rather than a meta name.
    pub fn is_instance(&self) -> bool {
        self.node().is_instance
    }

    /// `type=` reference.
    pub fn type_ref(&self) -> Option<&'m str> {
        self.node().type_ref.map(|i| self.s(i))
    }

    /// Attribute getter (`m.get_<attr>()`).
    pub fn attr(&self, key: &str) -> Option<&'m str> {
        let n = self.node();
        n.attrs
            .iter()
            .find(|(k, _)| self.s(*k) == key)
            .map(|(_, v)| self.s(*v))
    }

    /// All attributes in document order.
    pub fn attrs(&self) -> impl Iterator<Item = (&'m str, &'m str)> + '_ {
        self.node().attrs.iter().map(|(k, v)| (self.s(*k), self.s(*v)))
    }

    /// Numeric attribute.
    pub fn number(&self, key: &str) -> Option<f64> {
        self.attr(key)?.trim().parse().ok()
    }

    /// Metric with the `metric_unit` convention, as a typed quantity.
    pub fn quantity(&self, metric: &str) -> Option<Quantity> {
        let v = self.number(metric)?;
        let unit_attr = XpdlElement::unit_attr_for(metric);
        let unit = self.attr(&unit_attr).unwrap_or("");
        Quantity::parse(v, unit).ok()
    }

    /// Parent node (model browsing, category 2).
    pub fn parent(&self) -> Option<NodeRef<'m>> {
        self.node().parent.map(|p| NodeRef { model: self.model, idx: p })
    }

    /// Children in document order.
    pub fn children(&self) -> impl Iterator<Item = NodeRef<'m>> + '_ {
        self.node().children.iter().map(|&c| NodeRef { model: self.model, idx: c })
    }

    /// First child of a kind.
    pub fn child_of_kind(&self, kind: &str) -> Option<NodeRef<'m>> {
        self.children().find(|c| c.kind() == kind)
    }

    /// Depth-first descendants including self.
    pub fn descendants(&self) -> Vec<NodeRef<'m>> {
        let mut out = Vec::new();
        let mut stack = vec![self.idx];
        while let Some(i) = stack.pop() {
            out.push(NodeRef { model: self.model, idx: i });
            for &c in self.model.nodes[i as usize].children.iter().rev() {
                stack.push(c);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpdl_core::XpdlDocument;

    fn model() -> RuntimeModel {
        let doc = XpdlDocument::parse_str(
            r#"<system id="srv">
                 <cpu id="h" type="Xeon" static_power="15" static_power_unit="W">
                   <core id="c0" frequency="2" frequency_unit="GHz"/>
                   <core id="c1" frequency="2" frequency_unit="GHz"/>
                 </cpu>
                 <device id="gpu1" static_power="8" static_power_unit="W">
                   <programming_model type="cuda6.0,opencl"/>
                   <core id="sm0"/>
                 </device>
                 <software>
                   <installed type="CUBLAS_6.0" path="/opt/cublas"/>
                   <installed type="StarPU_1.0" path="/opt/starpu"/>
                 </software>
               </system>"#,
        )
        .unwrap();
        RuntimeModel::from_element(doc.root())
    }

    #[test]
    fn build_and_navigate() {
        let m = model();
        assert_eq!(m.root().kind(), "system");
        assert_eq!(m.root().ident(), Some("srv"));
        assert!(m.root().is_instance());
        let cpu = m.find("h").unwrap();
        assert_eq!(cpu.kind(), "cpu");
        assert_eq!(cpu.type_ref(), Some("Xeon"));
        assert_eq!(cpu.children().count(), 2);
        assert_eq!(cpu.parent().unwrap().ident(), Some("srv"));
        assert_eq!(m.root().parent().map(|p| p.index()), None);
    }

    #[test]
    fn getters_typed_and_raw() {
        let m = model();
        let c0 = m.find("c0").unwrap();
        assert_eq!(c0.attr("frequency"), Some("2"));
        assert_eq!(c0.number("frequency"), Some(2.0));
        assert_eq!(c0.quantity("frequency").unwrap().to_base(), 2e9);
        assert_eq!(c0.attr("missing"), None);
        assert_eq!(c0.attrs().count(), 2);
    }

    #[test]
    fn analysis_functions() {
        let m = model();
        assert_eq!(m.num_cores(), 3);
        assert_eq!(m.num_cuda_devices(), 1);
        assert_eq!(m.total_static_power_w(), 23.0);
    }

    #[test]
    fn installed_software_predicates() {
        let m = model();
        assert!(m.has_installed(|t| t.starts_with("CUBLAS")));
        assert!(m.has_installed(|t| t.contains("StarPU")));
        assert!(!m.has_installed(|t| t.contains("cusparse")));
    }

    #[test]
    fn nodes_of_kind_in_document_order() {
        let m = model();
        let ids: Vec<_> = m.nodes_of_kind("core").filter_map(|n| n.ident()).collect();
        assert_eq!(ids, ["c0", "c1", "sm0"]);
    }

    #[test]
    fn descendants_cover_subtree() {
        let m = model();
        let cpu = m.find("h").unwrap();
        let kinds: Vec<_> = cpu.descendants().iter().map(|n| n.kind()).collect();
        assert_eq!(kinds, ["cpu", "core", "core"]);
    }

    #[test]
    fn string_interning_dedups() {
        let m = model();
        let core_count = m.strings.iter().filter(|s| s.as_str() == "core").count();
        assert_eq!(core_count, 1);
        let ghz = m.strings.iter().filter(|s| s.as_str() == "GHz").count();
        assert_eq!(ghz, 1);
    }

    /// A model built from elements and its `decode(encode(..))` twin:
    /// the two ways a model reaches the one indexing constructor.
    fn both_builds(xml: &str) -> [RuntimeModel; 2] {
        let m = RuntimeModel::from_element(XpdlDocument::parse_str(xml).unwrap().root());
        let back = crate::format::decode(&crate::format::encode(&m)).unwrap();
        [m, back]
    }

    const SWEEP: &str = r#"<system id="srv">
         <cpu id="h" type="Xeon" static_power="15" static_power_unit="W">
           <core id="c0" frequency="2" frequency_unit="GHz"/>
           <core id="c1" frequency="2" frequency_unit="GHz"/>
         </cpu>
         <device id="gpu1" static_power="8" static_power_unit="W" note="NaN">
           <programming_model type="cuda6.0,opencl"/>
           <core id="sm0"/>
           <core/>
         </device>
         <device id="fpga" static_power="0.5" static_power_unit="W"/>
         <software>
           <installed type="CUBLAS_6.0" path="/opt/cublas"/>
           <installed type="StarPU_1.0" path="/opt/starpu"/>
         </software>
       </system>"#;

    #[test]
    fn kind_lists_equal_a_full_scan() {
        for m in both_builds(SWEEP) {
            // Every interned string is tried as a kind, plus one that is
            // not in the model at all.
            for kind in m.strings.iter().map(String::as_str).chain(["nope"]) {
                let indexed: Vec<u32> = m.nodes_of_kind(kind).map(|n| n.index()).collect();
                let scanned: Vec<u32> = (0..m.len() as u32)
                    .filter(|&i| m.node_at(i).unwrap().kind() == kind)
                    .collect();
                assert_eq!(indexed, scanned, "kind {kind}");
            }
            // The anonymous core is a member of its kind's list.
            assert_eq!(m.nodes_of_kind("core").len(), 4);
            assert_eq!(m.nodes_of_kind("core").filter(|n| n.ident().is_none()).count(), 1);
        }
    }

    #[test]
    fn duplicate_ident_resolves_to_first_occurrence() {
        let xml = r#"<system id="s"><cpu id="dup" type="A"/><cpu id="dup" type="B"/></system>"#;
        for m in both_builds(xml) {
            let first = m.find("dup").unwrap();
            assert_eq!(first.index(), 1);
            assert_eq!(first.type_ref(), Some("A"));
            assert!(m.find("nobody").is_none());
        }
    }

    #[test]
    fn nan_attribute_parses_through_number() {
        for m in both_builds(SWEEP) {
            let gpu = m.find("gpu1").unwrap();
            assert!(gpu.number("note").unwrap().is_nan());
            assert_eq!(gpu.number("static_power"), Some(8.0));
        }
    }

    #[test]
    fn analyses_match_between_builds() {
        let [m, back] = both_builds(SWEEP);
        for x in [&m, &back] {
            assert_eq!(x.num_cores(), 4);
            assert_eq!(x.num_cuda_devices(), 1);
            assert_eq!(x.total_static_power_w(), 23.5);
            assert!(x.has_installed(|t| t.starts_with("CUBLAS")));
            assert!(!x.has_installed(|t| t.contains("cusparse")));
        }
        assert_eq!(back.total_static_power_w().to_bits(), m.total_static_power_w().to_bits());
    }

    #[test]
    fn clone_preserves_content() {
        let m = model();
        let c = m.clone();
        assert_eq!(c.len(), m.len());
        assert_eq!(c.num_cores(), m.num_cores());
    }
}
