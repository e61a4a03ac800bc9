//! Effective meta-model computation: inheritance merging.

use crate::error::{ElabError, ElabResult};
use crate::linearize::{linearize, Hierarchy};
use std::collections::BTreeMap;
use std::rc::Rc;
use xpdl_core::{ElementKind, ModelKind, XpdlElement};
use xpdl_repo::ResolvedSet;

/// An index of meta-model definitions (by `name`) over a resolved set,
/// with memoized *effective* (inheritance-merged) forms.
///
/// Definitions are borrowed from the set; each effective form is merged
/// once per name and shared by every lookup.
pub struct MetaTable<'a> {
    defs: BTreeMap<&'a str, &'a XpdlElement>,
    effective: BTreeMap<&'a str, Rc<XpdlElement>>,
}

impl<'a> MetaTable<'a> {
    /// Build the definition index from a resolved set.
    ///
    /// Document roots take precedence; in-line definitions (named elements
    /// nested inside another descriptor, paper §III-A "Embedded
    /// definition") register only if no root claims the name.
    pub fn new(set: &'a ResolvedSet) -> MetaTable<'a> {
        let mut defs: BTreeMap<&'a str, &'a XpdlElement> = BTreeMap::new();
        // Pass 1: roots.
        for (_, doc) in set.documents() {
            if let Some(name) = doc.root().meta_name() {
                defs.entry(name).or_insert(doc.root());
            }
        }
        // Pass 2: inline definitions.
        for (_, doc) in set.documents() {
            for e in doc.root().descendants().skip(1) {
                if let Some(name) = e.meta_name() {
                    defs.entry(name).or_insert(e);
                }
            }
        }
        MetaTable { defs, effective: BTreeMap::new() }
    }

    /// Whether a meta-model with this name is known.
    pub fn contains(&self, name: &str) -> bool {
        self.defs.contains_key(name)
    }

    /// Number of known definitions.
    pub fn len(&self) -> usize {
        self.defs.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }

    /// The raw (unmerged) definition.
    pub fn raw(&self, name: &str) -> Option<&'a XpdlElement> {
        self.defs.get(name).copied()
    }

    /// The effective definition: the raw definition with all inherited
    /// attributes and children merged in, following the C3 linearization.
    /// Merged on the first lookup of a name; later lookups share it.
    pub fn effective(&mut self, name: &str) -> ElabResult<Option<Rc<XpdlElement>>> {
        if let Some(done) = self.effective.get(name) {
            return Ok(Some(Rc::clone(done)));
        }
        let Some((&key, &def)) = self.defs.get_key_value(name) else { return Ok(None) };
        let order = linearize(name, self)?;
        let mut result = def.clone();
        result.extends.clear();
        for ancestor in order.iter().skip(1) {
            if let Some(base) = self.defs.get(ancestor.as_str()) {
                merge_into(&mut result, base);
            }
        }
        let result = Rc::new(result);
        self.effective.insert(key, Rc::clone(&result));
        Ok(Some(result))
    }
}

impl Hierarchy for MetaTable<'_> {
    fn supers(&self, name: &str) -> Vec<String> {
        let Some(def) = self.defs.get(name) else { return Vec::new() };
        def.extends.iter().map(|s| s.to_string()).collect()
    }
}

/// Merge `base` (a supertype or referenced meta-model) into `derived`.
///
/// Rules (paper: "the inheriting type may overscribe attribute values"):
///
/// * attributes: `derived` keeps its values; missing ones copy from `base`;
/// * `param`/`const` children merge by name at attribute level, so a
///   derived `<param name="num_SM" value="13"/>` completes (not replaces)
///   the base's `<param name="num_SM" type="integer"/>`;
/// * identified children (same kind + same `name`/`id`) merge recursively;
/// * anonymous base children are appended unless the derived element
///   already has any child of the same kind (which then counts as the
///   override — the paper's K20c "uses one fixed configuration that
///   overrides the generic scenario inherited from the metamodel");
/// * `type_ref` copies when the derived element has none.
pub fn merge_into(derived: &mut XpdlElement, base: &XpdlElement) {
    for (k, v) in &base.attrs {
        if derived.attr(k).is_none() {
            derived.attrs.push((k.clone(), v.clone()));
        }
    }
    if derived.type_ref.is_none() {
        derived.type_ref = base.type_ref.clone();
    }
    if derived.text.is_empty() {
        derived.text = base.text.clone();
    }
    for bc in &base.children {
        match merge_target(derived, bc) {
            MergeTarget::Into(idx) => merge_into(&mut derived.children[idx], bc),
            MergeTarget::Append => derived.children.push(bc.clone()),
            MergeTarget::Skip => {}
        }
    }
}

enum MergeTarget {
    Into(usize),
    Append,
    Skip,
}

fn merge_target(derived: &XpdlElement, base_child: &XpdlElement) -> MergeTarget {
    let is_param_like =
        matches!(base_child.kind, ElementKind::Param | ElementKind::Const);
    if let Some(ident) = base_child.ident() {
        if let Some(idx) = derived
            .children
            .iter()
            .position(|c| c.kind == base_child.kind && c.ident() == Some(ident))
        {
            return MergeTarget::Into(idx);
        }
        // Identified child not overridden: inherit it.
        return MergeTarget::Append;
    }
    // Anonymous base child: inherit only if the derived element has no
    // children of this kind at all (same-kind children are the override).
    if is_param_like || derived.children.iter().all(|c| c.kind != base_child.kind) {
        MergeTarget::Append
    } else {
        MergeTarget::Skip
    }
}

/// Instantiate a `type=` reference: merge the effective meta-model into an
/// instance element. The instance keeps its `id`; the meta `name` is not
/// copied onto the instance ([`merge_into`] never touches `model_kind`).
pub fn instantiate(instance: &mut XpdlElement, meta: &XpdlElement) {
    merge_into(instance, meta);
}

/// Instantiate by name through the table, erroring on unknown types when
/// `strict` is set.
pub fn instantiate_ref(
    instance: &mut XpdlElement,
    table: &mut MetaTable<'_>,
    strict: bool,
) -> ElabResult<bool> {
    if !xpdl_repo::repository::type_is_model_ref(&instance.kind) {
        return Ok(false);
    }
    let Some(ty) = instance.type_ref.as_deref() else { return Ok(false) };
    match table.effective(ty)? {
        Some(meta) => {
            instantiate(instance, &meta);
            Ok(true)
        }
        None if strict => Err(ElabError::UnknownType {
            name: ty.to_string(),
            referrer: match &instance.model_kind {
                ModelKind::Instance(id) => format!("{}[{}]", instance.kind.tag(), id),
                ModelKind::Meta(n) => format!("{}[{}]", instance.kind.tag(), n),
                ModelKind::Anonymous => instance.kind.tag().to_string(),
            },
        }),
        None => Ok(false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpdl_repo::{MemoryStore, Repository};

    fn resolved(entries: &[(&str, &str)]) -> ResolvedSet {
        let mut m = MemoryStore::new();
        for (k, v) in entries {
            m.insert(*k, *v);
        }
        let repo = Repository::new().with_store(m);
        repo.resolve_recursive(entries[0].0).unwrap()
    }

    fn kepler_set() -> ResolvedSet {
        resolved(&[
            (
                "Nvidia_K20c",
                r#"<device name="Nvidia_K20c" extends="Nvidia_Kepler" compute_capability="3.5">
                     <param name="num_SM" value="13"/>
                     <param name="coresperSM" value="192"/>
                     <param name="cfrq" frequency="706" unit="MHz"/>
                     <param name="gmsz" size="5" unit="GB"/>
                   </device>"#,
            ),
            (
                "Nvidia_Kepler",
                r#"<device name="Nvidia_Kepler" extends="Nvidia_GPU" compute_capability="3.0">
                     <const name="shmtotalsize" size="64" unit="KB"/>
                     <param name="L1size" configurable="true" type="msize" range="16, 32, 48" unit="KB"/>
                     <param name="shmsize" configurable="true" type="msize" range="16, 32, 48" unit="KB"/>
                     <param name="num_SM" type="integer"/>
                     <param name="coresperSM" type="integer"/>
                     <param name="cfrq" type="frequency"/>
                     <param name="gmsz" type="msize"/>
                     <constraints><constraint expr="L1size + shmsize == shmtotalsize"/></constraints>
                     <group name="SMs" quantity="num_SM">
                       <group name="SM">
                         <group quantity="coresperSM"><core frequency="cfrq"/></group>
                         <cache name="L1" size="L1size"/>
                         <memory name="shm" size="shmsize"/>
                       </group>
                     </group>
                     <memory name="global" size="gmsz"/>
                     <programming_model type="cuda6.0,opencl"/>
                   </device>"#,
            ),
            ("Nvidia_GPU", r#"<device name="Nvidia_GPU" role="worker" vendor="NVIDIA"/>"#),
        ])
    }

    #[test]
    fn table_indexes_roots_and_inline_defs() {
        let set = resolved(&[(
            "sys",
            r#"<system id="sys"><cpu name="Xeon1"><core/></cpu><socket><cpu id="h" type="Xeon1"/></socket></system>"#,
        )]);
        let t = MetaTable::new(&set);
        assert!(t.contains("Xeon1"));
        assert!(!t.contains("sys")); // ids are not meta names
        assert_eq!(t.raw("Xeon1").unwrap().kind, ElementKind::Cpu);
    }

    #[test]
    fn k20c_effective_inherits_and_overrides() {
        let set = kepler_set();
        let mut t = MetaTable::new(&set);
        let eff = t.effective("Nvidia_K20c").unwrap().unwrap();
        // Overridden attribute (paper: K20c overwrites compute_capability).
        assert_eq!(eff.attr("compute_capability"), Some("3.5"));
        // Inherited attribute from the grand-supertype.
        assert_eq!(eff.attr("role"), Some("worker"));
        assert_eq!(eff.attr("vendor"), Some("NVIDIA"));
        // Param merge: K20c's value + Kepler's declared type.
        let num_sm = eff
            .children
            .iter()
            .find(|c| c.kind == ElementKind::Param && c.meta_name() == Some("num_SM"))
            .unwrap();
        assert_eq!(num_sm.attr("value"), Some("13"));
        assert_eq!(num_sm.type_ref.as_deref(), Some("integer"));
        // Structure (group SMs) inherited.
        assert!(eff
            .children
            .iter()
            .any(|c| c.kind == ElementKind::Group && c.meta_name() == Some("SMs")));
        // Constraints inherited.
        assert!(eff.children.iter().any(|c| c.kind == ElementKind::Constraints));
        // extends cleared on the effective form.
        assert!(eff.extends.is_empty());
    }

    #[test]
    fn effective_is_memoized_and_stable() {
        let set = kepler_set();
        let mut t = MetaTable::new(&set);
        let a = t.effective("Nvidia_K20c").unwrap().unwrap();
        let b = t.effective("Nvidia_K20c").unwrap().unwrap();
        assert_eq!(a, b);
        // One merge per name: both lookups share one allocation.
        assert!(Rc::ptr_eq(&a, &b));
    }

    #[test]
    fn unknown_type_strict_vs_lenient() {
        let set = kepler_set();
        let mut t = MetaTable::new(&set);
        let mut inst = XpdlElement::new(ElementKind::Device).with_id("g").with_type("Ghost");
        assert!(matches!(
            instantiate_ref(&mut inst, &mut t, true),
            Err(ElabError::UnknownType { .. })
        ));
        assert!(!instantiate_ref(&mut inst, &mut t, false).unwrap());
    }

    #[test]
    fn instantiate_keeps_instance_id() {
        let set = kepler_set();
        let mut t = MetaTable::new(&set);
        let mut inst = XpdlElement::new(ElementKind::Device)
            .with_id("gpu1")
            .with_type("Nvidia_K20c")
            .with_child(
                XpdlElement::new(ElementKind::Param)
                    .with_name("L1size")
                    .with_attr("size", "32")
                    .with_attr("unit", "KB"),
            );
        assert!(instantiate_ref(&mut inst, &mut t, true).unwrap());
        assert_eq!(inst.instance_id(), Some("gpu1"));
        assert_eq!(inst.meta_name(), None);
        // Fixed configuration overrides the inherited configurable param…
        let l1 = inst
            .children
            .iter()
            .find(|c| c.kind == ElementKind::Param && c.meta_name() == Some("L1size"))
            .unwrap();
        assert_eq!(l1.attr("size"), Some("32"));
        // …while the declared range is still merged in from the meta.
        assert_eq!(l1.attr("range"), Some("16, 32, 48"));
        // And inherited attributes arrive.
        assert_eq!(inst.attr("role"), Some("worker"));
    }

    #[test]
    fn anonymous_children_not_duplicated_when_overridden() {
        let base = XpdlElement::new(ElementKind::Cpu)
            .with_name("Base")
            .with_child(XpdlElement::new(ElementKind::Core).with_attr("frequency", "1"));
        let mut derived = XpdlElement::new(ElementKind::Cpu)
            .with_name("Derived")
            .with_child(XpdlElement::new(ElementKind::Core).with_attr("frequency", "2"));
        merge_into(&mut derived, &base);
        let cores: Vec<_> =
            derived.children.iter().filter(|c| c.kind == ElementKind::Core).collect();
        assert_eq!(cores.len(), 1);
        assert_eq!(cores[0].attr("frequency"), Some("2"));
    }

    #[test]
    fn anonymous_children_inherited_when_absent() {
        let base = XpdlElement::new(ElementKind::Cpu)
            .with_name("Base")
            .with_child(XpdlElement::new(ElementKind::Core).with_attr("frequency", "1"));
        let mut derived = XpdlElement::new(ElementKind::Cpu).with_name("Derived");
        merge_into(&mut derived, &base);
        assert_eq!(derived.children.len(), 1);
    }

    #[test]
    fn identified_children_merge_recursively() {
        let base = XpdlElement::new(ElementKind::Cpu).with_name("Base").with_child(
            XpdlElement::new(ElementKind::Cache)
                .with_name("L1")
                .with_attr("size", "32")
                .with_attr("unit", "KiB")
                .with_attr("replacement", "LRU"),
        );
        let mut derived = XpdlElement::new(ElementKind::Cpu).with_name("Derived").with_child(
            XpdlElement::new(ElementKind::Cache).with_name("L1").with_attr("size", "64"),
        );
        merge_into(&mut derived, &base);
        let l1 = derived.children.iter().find(|c| c.meta_name() == Some("L1")).unwrap();
        assert_eq!(l1.attr("size"), Some("64")); // override wins
        assert_eq!(l1.attr("replacement"), Some("LRU")); // base fills gaps
        assert_eq!(derived.children.len(), 1);
    }
}
