//! The flat runtime model with navigation, getters and analyses.
//!
//! Nodes are numbered in pre-order (document order, root at 0), so every
//! subtree is the index range `i..end`: the first child of node `i` is
//! `i + 1`, each later child starts where its previous sibling's subtree
//! ends, and no child list is stored. A model is a handful of flat
//! arrays — the string blob and its offsets, the node records, one shared
//! attribute array — plus the [`ModelIndex`], whatever its size, built on
//! the first query.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::ops::Range;
use std::sync::OnceLock;
use xpdl_core::units::Quantity;
use xpdl_core::{ModelKind, XpdlElement};

/// The "no index" sentinel of the `u32` fields of [`Node`].
pub(crate) const NONE: u32 = u32::MAX;

/// Interned strings: one UTF-8 blob and the offset where each string
/// starts, followed by a final end, so string `i` is
/// `blob[offsets[i]..offsets[i + 1]]`.
#[derive(Debug, Clone)]
pub(crate) struct Strings {
    blob: String,
    offsets: Vec<u32>,
}

impl Strings {
    /// An empty table with room for `n` strings.
    pub(crate) fn with_capacity(n: usize) -> Strings {
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        Strings { blob: String::new(), offsets }
    }

    /// Number of strings.
    pub(crate) fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total bytes of all strings.
    pub(crate) fn blob_len(&self) -> usize {
        self.blob.len()
    }

    /// Append a string; returns its id.
    pub(crate) fn push(&mut self, s: &str) -> u32 {
        let id = self.len() as u32;
        self.blob.push_str(s);
        self.offsets.push(self.blob.len() as u32);
        id
    }

    #[inline]
    fn range(&self, i: u32) -> Range<usize> {
        self.offsets[i as usize] as usize..self.offsets[i as usize + 1] as usize
    }

    /// String `i`.
    #[inline]
    fn get(&self, i: u32) -> &str {
        &self.blob[self.range(i)]
    }

    /// Whether string `i` is `text`: lengths first, bytes only on a tie.
    #[inline]
    fn eq(&self, i: u32, text: &str) -> bool {
        let r = self.range(i);
        r.len() == text.len() && &self.blob.as_bytes()[r] == text.as_bytes()
    }

    /// String `i` as bytes: comparing or copying these skips the `str`
    /// slicing checks.
    #[inline]
    pub(crate) fn bytes(&self, i: u32) -> &[u8] {
        &self.blob.as_bytes()[self.range(i)]
    }

    /// Every string, in id order.
    #[cfg(test)]
    pub(crate) fn iter(&self) -> impl Iterator<Item = &str> + '_ {
        (0..self.len() as u32).map(|i| self.get(i))
    }
}

/// One node record.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Node {
    /// Tag/kind string id.
    pub kind: u32,
    /// Identifier string id (`name` or `id`), or [`NONE`].
    pub ident: u32,
    /// `type=` string id, or [`NONE`].
    pub type_ref: u32,
    /// Parent node, or [`NONE`] for the root.
    pub parent: u32,
    /// One past the last node of this node's subtree.
    pub end: u32,
    /// This node's first entry in the shared attribute array; its
    /// attributes run up to the next node's first entry.
    pub first_attr: u32,
    /// Whether `ident` came from `id` (instance) rather than `name`.
    pub is_instance: bool,
}

/// The loaded runtime model: immutable once built. Its query indexes are
/// built on the first query, so a model that is only encoded (`xpdlc
/// build`) never builds them; [`crate::format::decode`] and
/// [`crate::XpdlHandle::from_model`] build them at once, so a loaded or
/// served model answers its first query without that wait.
#[derive(Debug, Clone)]
pub struct RuntimeModel {
    pub(crate) strings: Strings,
    /// Node records in pre-order.
    pub(crate) nodes: Vec<Node>,
    /// Attribute (key, value) string-id pairs of every node, in node order
    /// and document order within a node.
    pub(crate) attrs: Vec<(u32, u32)>,
    index: OnceLock<ModelIndex>,
}

/// The query indexes of one [`RuntimeModel`], built once: the
/// identifier and kind table, the per-kind node lists, the static-power
/// list and the category-4 analyses.
#[derive(Debug, Clone, Default)]
pub struct ModelIndex {
    /// Identifier or kind text → its first node and its kind's run.
    table: StrTable,
    /// Every node, grouped by kind, in document order within a kind.
    by_kind: Vec<u32>,
    /// `(node, watts)` for every node with an in-line `static_power`, in
    /// document order: a subtree's entries are one contiguous run.
    static_power: Vec<(u32, f64)>,
    num_cores: usize,
    num_cuda_devices: usize,
    total_static_power_w: f64,
}

impl ModelIndex {
    /// Index a model: the identifier and kind table, the per-kind lists
    /// (a counting sort of the nodes by kind), the static-power list, then
    /// the analyses. Reads only the model's tree, never its own index.
    pub fn compile(model: &RuntimeModel) -> ModelIndex {
        let (strings, nodes) = (&model.strings, &model.nodes);
        // Every string id used as an identifier or kind, mapped to its
        // text's slot (0 marks an id as used until the table assigns its
        // slot). A model may hold one text under several ids (a decoded
        // file need not deduplicate); those share a slot.
        let mut slot_of = vec![NONE; strings.len()];
        let mut used = Vec::new();
        for n in nodes {
            for id in [n.kind, n.ident] {
                if id != NONE && slot_of[id as usize] == NONE {
                    slot_of[id as usize] = 0;
                    used.push(id);
                }
            }
        }
        let mut table = StrTable::with_capacity(used.len());
        for id in used {
            slot_of[id as usize] = table.insert(strings, id) as u32;
        }
        // In document order: the first node per identifier, and a count
        // per kind, kept in `kind_end`.
        for (idx, n) in (0u32..).zip(nodes) {
            if n.ident != NONE {
                let first = &mut table.slots[slot_of[n.ident as usize] as usize].first_node;
                if *first == NONE {
                    *first = idx;
                }
            }
            table.slots[slot_of[n.kind as usize] as usize].kind_end += 1;
        }
        // Counts become runs; placing each node advances `kind_end` from
        // its run's start back to its end.
        let mut start = 0;
        for e in &mut table.slots {
            let count = e.kind_end;
            e.kind_start = start;
            e.kind_end = start;
            start += count;
        }
        let mut by_kind = vec![0u32; nodes.len()];
        for (idx, n) in (0u32..).zip(nodes) {
            let end = &mut table.slots[slot_of[n.kind as usize] as usize].kind_end;
            by_kind[*end as usize] = idx;
            *end += 1;
        }
        // A non-finite value is left out, as elaboration leaves it out of
        // its totals.
        let static_power: Vec<(u32, f64)> = (0..nodes.len() as u32)
            .filter_map(|idx| {
                NodeRef { model, idx }.quantity("static_power").map(|q| (idx, q.to_base()))
            })
            .filter(|(_, w)| w.is_finite())
            .collect();
        let mut index = ModelIndex {
            table,
            by_kind,
            total_static_power_w: static_power.iter().map(|&(_, w)| w).sum(),
            static_power,
            num_cores: 0,
            num_cuda_devices: 0,
        };
        index.num_cores = index.of_kind(strings, "core").len();
        index.num_cuda_devices = index
            .of_kind(strings, "device")
            .iter()
            .filter(|&&idx| {
                NodeRef { model, idx }.descendants().any(|n| {
                    n.kind() == "programming_model"
                        && n.type_ref().is_some_and(|t| t.contains("cuda"))
                })
            })
            .count();
        index
    }

    /// The first node (document order) with identifier `ident`.
    #[inline]
    fn first_node(&self, strings: &Strings, ident: &str) -> Option<u32> {
        self.table.get(strings, ident).map(|e| e.first_node).filter(|&n| n != NONE)
    }

    /// Every node of a kind, in document order.
    #[inline]
    fn of_kind(&self, strings: &Strings, kind: &str) -> &[u32] {
        match self.table.get(strings, kind) {
            Some(e) => &self.by_kind[e.kind_start as usize..e.kind_end as usize],
            None => &[],
        }
    }
}

/// One identifier or kind text in the [`StrTable`].
#[derive(Debug, Clone, Copy)]
struct Entry {
    /// A string id holding the text, or [`NONE`] for an empty slot.
    text: u32,
    /// The first node (document order) with this identifier, or [`NONE`].
    first_node: u32,
    /// This kind's nodes are `by_kind[kind_start..kind_end]`.
    kind_start: u32,
    kind_end: u32,
}

/// Text → [`Entry`]: open addressing with linear probing over a
/// power-of-two slot array at most half full. It hashes with std's
/// randomly keyed [`RandomState`], as `HashMap` does, because models
/// decoded from descriptor stores carry outside strings, and a fixed-key
/// hash would let a crafted descriptor force collisions.
#[derive(Debug, Clone, Default)]
struct StrTable {
    hasher: RandomState,
    slots: Vec<Entry>,
}

impl StrTable {
    fn with_capacity(n: usize) -> StrTable {
        let empty = Entry { text: NONE, first_node: NONE, kind_start: 0, kind_end: 0 };
        StrTable { hasher: RandomState::new(), slots: vec![empty; (2 * n).next_power_of_two()] }
    }

    /// The slot of string `id`'s text, claimed for `id` if the text is
    /// new.
    fn insert(&mut self, strings: &Strings, id: u32) -> usize {
        match self.probe(strings, strings.get(id)) {
            Ok(slot) => slot,
            Err(slot) => {
                self.slots[slot].text = id;
                slot
            }
        }
    }

    /// `Ok(slot)` holding `text`, or `Err(slot)`: the empty slot where it
    /// belongs.
    #[inline]
    fn probe(&self, strings: &Strings, text: &str) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = self.hasher.hash_one(text) as usize & mask;
        loop {
            match self.slots[slot].text {
                NONE => return Err(slot),
                id if strings.bytes(id) == text.as_bytes() => return Ok(slot),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    #[inline]
    fn get(&self, strings: &Strings, text: &str) -> Option<&Entry> {
        self.probe(strings, text).ok().map(|slot| &self.slots[slot])
    }
}

impl RuntimeModel {
    /// Build from an (elaborated) element tree.
    pub fn from_element(root: &XpdlElement) -> RuntimeModel {
        /// Nodes and attributes in `e`'s subtree.
        fn count(e: &XpdlElement) -> (usize, usize) {
            let own = (1, e.attrs.len());
            e.children.iter().map(count).fold(own, |(n, a), (cn, ca)| (n + cn, a + ca))
        }
        let (nodes, attrs) = count(root);
        let mut b = Builder {
            // Room for half as many addresses and texts as nodes, which
            // the tables round up to a power of two: the 2,260 nodes of
            // the CI fleet use 1,991 addresses and 1,476 texts, and fit.
            // More regrow.
            strings: Strings::with_capacity(nodes),
            by_addr: ByAddr::with_capacity(nodes / 2),
            by_text: HashMap::with_capacity(nodes / 2),
            nodes: Vec::with_capacity(nodes),
            attrs: Vec::with_capacity(attrs),
        };
        b.add(root, NONE);
        RuntimeModel::new(b.strings, b.nodes, b.attrs)
    }

    /// The one constructor: takes a validated pre-order tree.
    pub(crate) fn new(strings: Strings, nodes: Vec<Node>, attrs: Vec<(u32, u32)>) -> RuntimeModel {
        RuntimeModel { strings, nodes, attrs, index: OnceLock::new() }
    }

    /// The query indexes, built on the first call.
    pub(crate) fn index(&self) -> &ModelIndex {
        self.index.get_or_init(|| ModelIndex::compile(self))
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

    /// Find a node by identifier (category 2 of the query API); the first
    /// occurrence in document order wins.
    pub fn find(&self, ident: &str) -> Option<NodeRef<'_>> {
        let idx = self.index().first_node(&self.strings, ident)?;
        Some(NodeRef { model: self, idx })
    }

    /// All nodes of a kind, in document order.
    pub fn nodes_of_kind(&self, kind: &str) -> impl ExactSizeIterator<Item = NodeRef<'_>> + '_ {
        let nodes = self.index().of_kind(&self.strings, kind);
        nodes.iter().map(move |&idx| NodeRef { model: self, idx })
    }

    // ---- category 4: analysis functions for derived attributes ----

    /// Total number of cores.
    pub fn num_cores(&self) -> usize {
        self.index().num_cores
    }

    /// Number of CUDA-capable devices.
    pub fn num_cuda_devices(&self) -> usize {
        self.index().num_cuda_devices
    }

    /// Sum of in-line `static_power` metrics over the whole model, watts.
    pub fn total_static_power_w(&self) -> f64 {
        self.index().total_static_power_w
    }

    /// Whether any installed software entry matches a predicate — the
    /// conditional-composition availability check ("constraints on
    /// availability of specific libraries … in the target system").
    pub fn has_installed(&self, pred: impl Fn(&str) -> bool) -> bool {
        self.nodes_of_kind("installed").filter_map(|n| n.type_ref()).any(pred)
    }

    /// The children of node `idx`.
    pub(crate) fn child_indices(&self, idx: u32) -> ChildIndices<'_> {
        ChildIndices { nodes: &self.nodes, next: idx + 1, end: self.nodes[idx as usize].end }
    }

    /// Node `idx`'s entries in the shared attribute array.
    #[inline]
    pub(crate) fn attr_range(&self, idx: u32) -> Range<usize> {
        let i = idx as usize;
        let end = self.nodes.get(i + 1).map_or(self.attrs.len(), |n| n.first_attr as usize);
        self.nodes[i].first_attr as usize..end
    }
}

/// The children of one node: the first is the node after it, and each
/// next one starts where the previous one's subtree ends.
pub(crate) struct ChildIndices<'m> {
    nodes: &'m [Node],
    next: u32,
    end: u32,
}

impl Iterator for ChildIndices<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        let c = self.next;
        if c >= self.end {
            return None;
        }
        self.next = self.nodes[c as usize].end;
        Some(c)
    }
}

/// Flattens an element tree in pre-order. Each distinct string is copied
/// once, into the blob, in first-seen order (see [`Builder::intern`]).
struct Builder<'e> {
    strings: Strings,
    by_addr: ByAddr,
    by_text: HashMap<&'e str, u32>,
    nodes: Vec<Node>,
    attrs: Vec<(u32, u32)>,
}

impl<'e> Builder<'e> {
    /// The id of `s`'s text, in first-seen order. An elaborated tree
    /// shares its strings (`Arc<str>` identifiers and attributes,
    /// `&'static str` tags), so most strings are found by address; the
    /// text is hashed only the first time an address is seen.
    fn intern(&mut self, s: &'e str) -> u32 {
        let slot = match self.by_addr.find(s) {
            Ok(id) => return id,
            Err(slot) => slot,
        };
        let next = self.strings.len() as u32;
        let id = *self.by_text.entry(s).or_insert(next);
        if id == next {
            self.strings.push(s);
        }
        self.by_addr.fill(slot, s, id);
        id
    }

    fn add(&mut self, e: &'e XpdlElement, parent: u32) {
        let idx = self.nodes.len() as u32;
        let kind = self.intern(e.kind.tag());
        let (ident, is_instance) = match &e.model_kind {
            ModelKind::Meta(n) => (self.intern(n), false),
            ModelKind::Instance(i) => (self.intern(i), true),
            ModelKind::Anonymous => (NONE, false),
        };
        let type_ref = e.type_ref.as_deref().map_or(NONE, |t| self.intern(t));
        let first_attr = self.attrs.len() as u32;
        for (k, v) in &e.attrs {
            let pair = (self.intern(k), self.intern(v));
            self.attrs.push(pair);
        }
        self.nodes.push(Node { kind, ident, type_ref, parent, end: NONE, first_attr, is_instance });
        for c in &e.children {
            self.add(c, idx);
        }
        self.nodes[idx as usize].end = self.nodes.len() as u32;
    }
}

/// String id by address and length, for one [`RuntimeModel::from_element`]:
/// while the tree is borrowed, one address and length always hold the same
/// text. Open addressing with linear probing over a power-of-two slot
/// array at most half full. Addresses are not input, so a plain
/// multiplicative hash serves; the texts stay in the keyed map.
struct ByAddr {
    /// `(address, length, id)`; address 0, which no `&str` has, is empty.
    slots: Vec<(usize, usize, u32)>,
    len: usize,
}

impl ByAddr {
    /// Room for `n` addresses before the first doubling.
    fn with_capacity(n: usize) -> ByAddr {
        ByAddr { slots: vec![(0, 0, 0); (2 * n).next_power_of_two().max(16)], len: 0 }
    }

    /// `Ok(id)` of `s`, or `Err(slot)`: the empty slot where it belongs.
    #[inline]
    fn find(&self, s: &str) -> Result<u32, usize> {
        self.probe(s.as_ptr() as usize, s.len())
    }

    #[inline]
    fn probe(&self, addr: usize, len: usize) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        // Fibonacci hashing: the product's top bits, which every bit of the
        // address reaches (a heap address's low bits are all zero).
        let shift = 64 - self.slots.len().trailing_zeros();
        let mut slot = ((addr as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize;
        loop {
            match self.slots[slot] {
                (0, _, _) => return Err(slot),
                (a, l, id) if (a, l) == (addr, len) => return Ok(id),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Record `s`'s id in the empty slot [`Self::find`] returned, and
    /// double the slots when they are half full.
    fn fill(&mut self, slot: usize, s: &str, id: u32) {
        self.slots[slot] = (s.as_ptr() as usize, s.len(), id);
        self.len += 1;
        if 2 * self.len > self.slots.len() {
            let grown = vec![(0, 0, 0); 2 * self.slots.len()];
            let old = std::mem::replace(&mut self.slots, grown);
            for (addr, len, id) in old.into_iter().filter(|e| e.0 != 0) {
                if let Err(slot) = self.probe(addr, len) {
                    self.slots[slot] = (addr, len, id);
                }
            }
        }
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
    #[inline]
    fn node(&self) -> &'m Node {
        &self.model.nodes[self.idx as usize]
    }

    #[inline]
    fn s(&self, i: u32) -> Option<&'m str> {
        (i != NONE).then(|| self.model.strings.get(i))
    }

    fn at(&self, idx: u32) -> NodeRef<'m> {
        NodeRef { model: self.model, idx }
    }

    /// The node's index (stable within one model).
    pub fn index(&self) -> u32 {
        self.idx
    }

    /// Kind/tag string (`m.get_kind()`).
    pub fn kind(&self) -> &'m str {
        self.model.strings.get(self.node().kind)
    }

    /// Identifier (`m.get_id()`), if any.
    pub fn ident(&self) -> Option<&'m str> {
        self.s(self.node().ident)
    }

    /// Whether this is an instance (`id=`) rather than a meta name.
    pub fn is_instance(&self) -> bool {
        self.node().is_instance
    }

    /// `type=` reference.
    pub fn type_ref(&self) -> Option<&'m str> {
        self.s(self.node().type_ref)
    }

    #[inline]
    fn attr_ids(&self) -> &'m [(u32, u32)] {
        &self.model.attrs[self.model.attr_range(self.idx)]
    }

    /// Attribute getter (`m.get_<attr>()`).
    pub fn attr(&self, key: &str) -> Option<&'m str> {
        let strings = &self.model.strings;
        self.attr_ids()
            .iter()
            .find(|&&(k, _)| strings.eq(k, key))
            .map(|&(_, v)| strings.get(v))
    }

    /// All attributes in document order.
    pub fn attrs(&self) -> impl Iterator<Item = (&'m str, &'m str)> + '_ {
        let strings = &self.model.strings;
        self.attr_ids().iter().map(|&(k, v)| (strings.get(k), strings.get(v)))
    }

    /// Numeric attribute.
    pub fn number(&self, key: &str) -> Option<f64> {
        self.attr(key)?.trim().parse().ok()
    }

    /// Metric with the `metric_unit` convention, as a typed quantity.
    pub fn quantity(&self, metric: &str) -> Option<Quantity> {
        let v = self.number(metric)?;
        let strings = &self.model.strings;
        let unit = self
            .attr_ids()
            .iter()
            .find(|&&(k, _)| XpdlElement::is_unit_attr(strings.get(k), metric))
            .map_or("", |&(_, v)| strings.get(v));
        Quantity::parse(v, unit).ok()
    }

    /// Parent node (model browsing, category 2).
    pub fn parent(&self) -> Option<NodeRef<'m>> {
        let p = self.node().parent;
        (p != NONE).then(|| self.at(p))
    }

    /// Children in document order.
    pub fn children(&self) -> impl Iterator<Item = NodeRef<'m>> + '_ {
        self.model.child_indices(self.idx).map(|c| self.at(c))
    }

    /// First child of a kind.
    pub fn child_of_kind(&self, kind: &str) -> Option<NodeRef<'m>> {
        self.children().find(|c| c.kind() == kind)
    }

    /// Depth-first descendants including self: the index range of this
    /// node's subtree.
    pub fn descendants(&self) -> impl ExactSizeIterator<Item = NodeRef<'m>> {
        let model = self.model;
        (self.idx..self.node().end).map(move |idx| NodeRef { model, idx })
    }

    /// Sum of in-line `static_power` metrics over this node's subtree
    /// (itself included), watts — §III-D's hierarchical static power.
    /// It adds the subtree's entries in document order, as a walk would;
    /// a difference of prefix sums would round differently.
    pub fn subtree_static_power_w(&self) -> f64 {
        let list = &self.model.index().static_power;
        let end = self.node().end;
        let lo = list.partition_point(|&(n, _)| n < self.idx);
        let len = list[lo..].partition_point(|&(n, _)| n < end);
        list[lo..lo + len].iter().map(|&(_, w)| w).sum()
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
        let kinds: Vec<_> = cpu.descendants().map(|n| n.kind()).collect();
        assert_eq!(kinds, ["cpu", "core", "core"]);
    }

    #[test]
    fn string_interning_dedups() {
        let m = model();
        let core_count = m.strings.iter().filter(|&s| s == "core").count();
        assert_eq!(core_count, 1);
        let ghz = m.strings.iter().filter(|&s| s == "GHz").count();
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
            for kind in m.strings.iter().chain(["nope"]) {
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
