//! The elaboration walker: type instantiation, parameter substitution and
//! group expansion.

use crate::constraints::{check_constraints, check_param_ranges};
use crate::elaborate::ElabOptions;
use crate::error::{ElabError, ElabResult};
use crate::inherit::{instantiate_ref, MetaTable};
use crate::scope::Scope;
use crate::stamp::MemberIds;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use xpdl_core::{ElementKind, ModelKind, XpdlElement};
use xpdl_schema::Diagnostic;

/// Attributes whose values are names/references, never parameter
/// substitution targets.
const NON_SUBSTITUTABLE: &[&str] = &[
    "name", "id", "type", "extends", "prefix", "head", "tail", "expr", "switchoffCondition",
    "mb", "instruction_set", "command", "path", "file", "cflags", "lflags", "role", "endian",
    "replacement", "write_policy", "range", "configurable", "enableSwitchOff", "power_domain",
];

/// The consumed-definition set of an expander that has not started.
static NO_DEFS: BTreeSet<&str> = BTreeSet::new();

/// Walk state.
pub struct Expander<'t, 'a> {
    table: &'t mut MetaTable<'a>,
    opts: ElabOptions,
    produced: usize,
    depth: usize,
    /// Display path of the element being expanded (`system[s]/cpu[h]`):
    /// one segment is appended on entering an element and truncated on
    /// leaving it, so a path is copied only into what reports it.
    path: String,
    /// The member qualifier, kept like `path`, and the ids made from it.
    ids: MemberIds,
    /// The unit attribute of each metric a parameter was substituted into
    /// (`frequency` → `frequency_unit`), built once per metric name.
    unit_attrs: BTreeMap<Arc<str>, Arc<str>>,
    /// Diagnostics collected during expansion (constraint violations,
    /// unbound parameters, …).
    pub diags: Vec<Diagnostic>,
    /// Paths of elements poisoned in keep-going mode (empty in fail-fast
    /// mode, where the first such error aborts instead).
    pub poisoned: Vec<String>,
    /// Meta names consumed as inline definitions (dropped from the tree).
    consumed_defs: &'t BTreeSet<&'t str>,
}

impl<'t, 'a> Expander<'t, 'a> {
    /// Create an expander over a meta table, with the pipeline's budgets
    /// and modes.
    pub fn new(table: &'t mut MetaTable<'a>, opts: &ElabOptions) -> Expander<'t, 'a> {
        Expander {
            table,
            opts: opts.clone(),
            produced: 0,
            depth: 0,
            path: String::new(),
            ids: MemberIds::default(),
            unit_attrs: BTreeMap::new(),
            diags: Vec::new(),
            poisoned: Vec::new(),
            consumed_defs: &NO_DEFS,
        }
    }

    /// Expand a root element. `referenced_types` lists meta names that are
    /// referenced via `type=` anywhere in the originating document; inline
    /// definitions of those names are consumed (they described a type, not
    /// a physical component).
    pub fn expand_root(
        &mut self,
        root: &XpdlElement,
        referenced_types: &'t BTreeSet<&'t str>,
    ) -> ElabResult<XpdlElement> {
        self.consumed_defs = referenced_types;
        self.path.clear();
        self.ids.reset();
        let mut scope = Scope::new();
        self.expand_element(root.clone(), &mut scope, false)
    }

    fn budget(&mut self) -> ElabResult<()> {
        self.produced += 1;
        if self.produced > self.opts.max_elements {
            return Err(ElabError::TooLarge {
                produced: self.produced,
                limit: self.opts.max_elements,
            });
        }
        Ok(())
    }

    /// Append `e`'s segment (`kind[ident]`, or `kind` when anonymous) to
    /// the path; returns the length to truncate back to on leaving `e`.
    fn enter(&mut self, e: &XpdlElement) -> usize {
        let mark = self.path.len();
        if mark > 0 {
            self.path.push('/');
        }
        self.path.push_str(e.kind.tag());
        if let Some(id) = e.ident() {
            self.path.push('[');
            self.path.push_str(id);
            self.path.push(']');
        }
        mark
    }

    /// Mark `e` poisoned: record the error as a diagnostic (anchored at the
    /// most precise span available), tag the element with
    /// `poisoned="true"`, and remember its path (the current one). The
    /// caller must not recurse into the returned element — its subtree is
    /// quarantined.
    fn poison(&mut self, mut e: XpdlElement, err: &ElabError) -> XpdlElement {
        let span = match err {
            ElabError::UnknownType { .. } | ElabError::Linearization { .. } => {
                e.span_for_attr("type")
            }
            ElabError::UnresolvedQuantity { .. } => e.span_for_attr("quantity"),
            _ => e.span,
        };
        self.diags.push(
            err.to_diagnostic(&self.path)
                .with_span(span)
                .with_note("subtree quarantined; sibling elaboration continues"),
        );
        e.set_attr("poisoned", "true");
        self.poisoned.push(self.path.clone());
        e
    }

    fn expand_element(
        &mut self,
        e: XpdlElement,
        scope: &mut Scope,
        in_power_domain: bool,
    ) -> ElabResult<XpdlElement> {
        let mark = self.enter(&e);
        self.depth += 1;
        let result = if self.depth > self.opts.max_depth {
            let err = ElabError::TooDeep { path: self.path.clone(), limit: self.opts.max_depth };
            if self.opts.keep_going {
                Ok(self.poison(e, &err))
            } else {
                Err(err)
            }
        } else {
            self.expand_element_inner(e, scope, in_power_domain)
        };
        self.depth -= 1;
        self.path.truncate(mark);
        result
    }

    fn expand_element_inner(
        &mut self,
        mut e: XpdlElement,
        scope: &mut Scope,
        in_power_domain: bool,
    ) -> ElabResult<XpdlElement> {
        self.budget()?;
        // 1. Resolve the `type=` reference into the element. Inside a
        //    power domain, `type=` names the domain's component types/ids
        //    (Listing 12) — never a meta-model to instantiate.
        let in_power_domain = in_power_domain || e.kind == ElementKind::PowerDomain;
        if !in_power_domain {
            self.ids.check_merge(&e);
            if let Err(err) = instantiate_ref(&mut e, self.table, self.opts.strict_types) {
                // Unknown types, broken inheritance (cyclic or
                // non-linearizable `extends`) and malformed meta-models are
                // recoverable in keep-going mode: the reference simply
                // cannot be expanded, so the element is kept as written but
                // poisoned and its subtree skipped.
                if self.opts.keep_going {
                    return Ok(self.poison(e, &err));
                }
                return Err(err);
            }
        }

        // 2. Open a scope frame and bind this element's params/consts.
        scope.push();
        let unbound = scope.bind_element_params(&e);
        for name in &unbound {
            self.diags.push(
                Diagnostic::warning(
                    &self.path,
                    format!("parameter '{name}' is declared but never bound"),
                )
                .with_code("E208")
                .with_span(e.span),
            );
        }

        // 3. Substitute bound parameter names in attribute values
        //    (Listing 8: `<core frequency="cfrq"/>`, `size="L1size"`).
        self.substitute(&mut e, scope);

        // 4. Constraint and range checking in the current scope.
        check_constraints(&e, scope, &self.path, &mut self.diags);
        check_param_ranges(&e, scope, &self.path, &mut self.diags);

        // 5. Children: drop consumed inline definitions, expand groups,
        //    recurse into the rest.
        let children = std::mem::take(&mut e.children);
        e.children.reserve(children.len());
        for child in children {
            if let Some(name) = child.meta_name() {
                if self.consumed_defs.contains(name) && child.kind.is_hardware() {
                    // An inline type definition; it was already indexed in
                    // the MetaTable and is not a physical component.
                    continue;
                }
            }
            if child.kind == ElementKind::Group {
                self.expand_group(child, &mut e, scope, in_power_domain)?;
            } else {
                let expanded = self.expand_element(child, scope, in_power_domain)?;
                e.children.push(expanded);
            }
        }
        scope.pop();
        Ok(e)
    }

    /// Replace each attribute value that names a bound parameter with the
    /// parameter's text, and add the parameter's unit under the metric's
    /// unit attribute unless the element already has one.
    fn substitute(&mut self, e: &mut XpdlElement, scope: &Scope) {
        // Unit attributes pushed here are never substitution targets.
        for i in 0..e.attrs.len() {
            let (k, v) = &e.attrs[i];
            if NON_SUBSTITUTABLE.contains(&&**k) || k.ends_with("_unit") || &**k == "unit" {
                continue;
            }
            let Some(pv) = scope.get(v) else { continue };
            let metric = Arc::clone(k);
            e.attrs[i].1 = Arc::clone(pv.text());
            if pv.unit().is_empty() {
                continue;
            }
            let unit_attr = match self.unit_attrs.get(&metric) {
                Some(name) => Arc::clone(name),
                None => {
                    let name: Arc<str> = XpdlElement::unit_attr_for(&metric).into();
                    self.unit_attrs.insert(metric, Arc::clone(&name));
                    name
                }
            };
            if e.attrs.iter().all(|(k, _)| *k != unit_attr) {
                e.attrs.push((unit_attr, Arc::clone(pv.unit())));
            }
        }
    }

    /// Expand a `group` child into `parent`'s children.
    fn expand_group(
        &mut self,
        mut group: XpdlElement,
        parent: &mut XpdlElement,
        scope: &mut Scope,
        in_power_domain: bool,
    ) -> ElabResult<()> {
        // Resolve the quantity, possibly through a parameter (Listing 8:
        // quantity="num_SM").
        let quantity: Option<usize> = match group.attr("quantity") {
            None => None,
            Some(raw) => match scope.resolve_numeric(raw) {
                Some(n) if n >= 0.0 && n.fract() == 0.0 => Some(n as usize),
                _ => {
                    let mark = self.enter(&group);
                    let err = ElabError::UnresolvedQuantity {
                        group: self.path.clone(),
                        raw: raw.to_string(),
                    };
                    let result = if self.opts.keep_going {
                        // The member count is unknowable, so no member can
                        // be produced: poison the group and move on.
                        parent.children.push(self.poison(group, &err));
                        Ok(())
                    } else {
                        Err(err)
                    };
                    self.path.truncate(mark);
                    return result;
                }
            },
        };

        let Some(n) = quantity else {
            // Ungrouped `group` (Listing 11 `<group id="cpu1">`): keep the
            // element, expand its content in place.
            let expanded = self.expand_element(group, scope, in_power_domain)?;
            parent.children.push(expanded);
            return Ok(());
        };

        let mut content = std::mem::take(&mut group.children);
        let prefix = group.group_prefix().unwrap_or("member");
        // Single-element content: each member *is* that element, with the
        // generated id (paper: "identifiers … assigned as core0, core1,
        // core2 and core3"). Multi-element content keeps a group wrapper
        // per member so siblings stay associated (core + its private L1).
        let single = content.len() == 1 && content[0].kind != ElementKind::Group;
        // The member's own ids (and intra-member references) get qualified
        // so expanded copies stay globally unique.
        let qualified = if single { &content[0].children[..] } else { &content[..] };
        let local = local_instance_ids(qualified);
        // Anonymous hardware parts get a member-qualified id; same-kind
        // siblings get an occurrence suffix (`cache0`, `cache1`).
        let part_ids = if single { Vec::new() } else { anonymous_part_ids(&content) };
        let member = Member { single, local: &local, part_ids: &part_ids, prefix };

        // Member 0 is expanded. If it added no diagnostic and no id
        // comparison in it could come out differently in another member,
        // the others are stamped from it (see `crate::stamp`); otherwise
        // each is expanded too, and the last one takes the content itself.
        let first_at = parent.children.len();
        let first = (n > 1).then(|| (self.ids.open_first(prefix), self.diags.len(), self.produced));
        let mut next = 0;
        if n > 0 {
            let m0 =
                self.expand_member(&mut content, &member, 0, n == 1, scope, in_power_domain)?;
            parent.children.push(m0);
            next = 1;
        }
        if let Some((first, diags, produced)) = first {
            if self.ids.close_first(first) && self.diags.len() == diags {
                let size = self.produced - produced;
                for i in 1..n {
                    // The count a one-by-one expansion stops at.
                    self.produced += size;
                    if self.produced > self.opts.max_elements {
                        let limit = self.opts.max_elements;
                        return Err(ElabError::TooLarge { produced: limit + 1, limit });
                    }
                    let stamped = self.ids.stamp(first, &parent.children[first_at], prefix, i);
                    parent.children.push(stamped);
                }
                next = n;
            }
            self.ids.release();
        }
        for i in next..n {
            let last = i + 1 == n;
            let m = self.expand_member(&mut content, &member, i, last, scope, in_power_domain)?;
            parent.children.push(m);
        }
        Ok(())
    }

    /// Expand member `i` of a group from a copy of its content, or from
    /// the content itself for the `last` member.
    fn expand_member(
        &mut self,
        content: &mut Vec<XpdlElement>,
        member: &Member<'_>,
        i: usize,
        last: bool,
        scope: &mut Scope,
        in_power_domain: bool,
    ) -> ElabResult<XpdlElement> {
        let mark = self.ids.enter(member.prefix, i);
        if member.single {
            let mut m = if last { content.pop().expect("one element") } else { content[0].clone() };
            if m.ident().is_none() {
                m.model_kind = ModelKind::Instance(self.ids.member_id());
            }
            self.ids.qualify(&mut m.children, member.local);
            let expanded = self.expand_element(m, scope, in_power_domain)?;
            self.ids.leave(mark);
            return Ok(expanded);
        }
        let mut wrapper = XpdlElement::new(ElementKind::Group);
        wrapper.model_kind = ModelKind::Instance(self.ids.member_id());
        wrapper.children.reserve(content.len());
        let path_mark = self.enter(&wrapper);
        scope.push();
        for (slot, part_id) in content.iter_mut().zip(member.part_ids) {
            let mut c = if last {
                std::mem::replace(slot, XpdlElement::new(ElementKind::Group))
            } else {
                slot.clone()
            };
            self.ids.qualify(std::slice::from_mut(&mut c), member.local);
            if c.kind == ElementKind::Group {
                self.expand_group(c, &mut wrapper, scope, in_power_domain)?;
                continue;
            }
            if let Some(occurrence) = part_id {
                c.model_kind = ModelKind::Instance(self.ids.part_id(c.kind.tag(), *occurrence));
            }
            let expanded = self.expand_element(c, scope, in_power_domain)?;
            wrapper.children.push(expanded);
        }
        scope.pop();
        self.path.truncate(path_mark);
        self.ids.leave(mark);
        Ok(wrapper)
    }
}

/// What every member of one group is expanded with.
struct Member<'g> {
    /// The content is one non-group element, which each member is.
    single: bool,
    /// The explicit instance ids a member copy qualifies.
    local: &'g BTreeSet<Arc<str>>,
    /// Per content element, [`anonymous_part_ids`] (empty when `single`).
    part_ids: &'g [Option<Option<usize>>],
    prefix: &'g str,
}

/// For each element of a group's content: `None` unless it is an
/// anonymous hardware part, which gets a member-local id from its kind
/// tag; then `Some` of its occurrence among the content's anonymous parts
/// of that kind, when there is more than one (`cache0`, `cache1`), or
/// `Some(None)` for the tag alone.
fn anonymous_part_ids(content: &[XpdlElement]) -> Vec<Option<Option<usize>>> {
    let anonymous = |c: &XpdlElement| c.ident().is_none() && c.kind.is_hardware();
    content
        .iter()
        .enumerate()
        .map(|(i, c)| {
            if !anonymous(c) {
                return None;
            }
            let same_kind = |x: &&XpdlElement| x.kind == c.kind && x.ident().is_none();
            let total = content.iter().filter(same_kind).count();
            let occurrence = content[..i].iter().filter(same_kind).count();
            Some((total > 1).then_some(occurrence))
        })
        .collect()
}

/// The explicit instance ids declared inside a group's content: the ids a
/// member copy qualifies. The set shares the content's strings.
fn local_instance_ids(content: &[XpdlElement]) -> BTreeSet<Arc<str>> {
    let mut local = BTreeSet::new();
    for e in content {
        collect_instance_ids(e, &mut local);
    }
    local
}

fn collect_instance_ids(e: &XpdlElement, out: &mut BTreeSet<Arc<str>>) {
    if let ModelKind::Instance(id) = &e.model_kind {
        out.insert(Arc::clone(id));
    }
    for c in &e.children {
        collect_instance_ids(c, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpdl_repo::{MemoryStore, Repository, ResolvedSet};

    fn resolved(entries: &[(&str, &str)]) -> ResolvedSet {
        let mut m = MemoryStore::new();
        for (k, v) in entries {
            m.insert(*k, *v);
        }
        Repository::new().with_store(m).resolve_recursive(entries[0].0).unwrap()
    }

    fn expand(entries: &[(&str, &str)]) -> (XpdlElement, Vec<Diagnostic>) {
        let set = resolved(entries);
        let mut table = MetaTable::new(&set);
        let refs: BTreeSet<&str> = set
            .documents()
            .flat_map(|(_, d)| xpdl_repo::repository::references_of(d.root()))
            .collect();
        let mut ex = Expander::new(&mut table, &ElabOptions::default());
        let root = ex.expand_root(set.root().root(), &refs).unwrap();
        (root, ex.diags.clone())
    }

    #[test]
    fn flat_group_expands_with_ids() {
        let (root, _) = expand(&[(
            "c",
            r#"<cpu name="c"><group prefix="core" quantity="4"><core frequency="2" frequency_unit="GHz"/></group></cpu>"#,
        )]);
        let cores: Vec<_> = root.find_kind(ElementKind::Core).collect();
        assert_eq!(cores.len(), 4);
        let ids: Vec<_> = cores.iter().map(|c| c.instance_id().unwrap()).collect();
        assert_eq!(ids, ["core0", "core1", "core2", "core3"]);
        // The members share one allocation for each copied value.
        let frequency = attr_arc(cores[0], "frequency");
        assert!(cores.iter().all(|c| Arc::ptr_eq(attr_arc(c, "frequency"), frequency)));
    }

    /// The shared string behind a plain attribute.
    fn attr_arc<'e>(e: &'e XpdlElement, key: &str) -> &'e Arc<str> {
        &e.attrs.iter().find(|(k, _)| &**k == key).expect(key).1
    }

    /// Listing 1 without its power model, which names another document.
    const LISTING_1: &str = r#"<cpu name="Intel_Xeon_E5_2630L">
                 <group prefix="core_group" quantity="2">
                   <group prefix="core" quantity="2">
                     <core frequency="2" frequency_unit="GHz"/>
                     <cache name="L1" size="32" unit="KiB"/>
                   </group>
                   <cache name="L2" size="256" unit="KiB"/>
                 </group>
                 <cache name="L3" size="15" unit="MiB"/>
               </cpu>"#;

    #[test]
    fn listing1_nested_groups() {
        let (root, _) = expand(&[("Intel_Xeon_E5_2630L", LISTING_1)]);
        // 4 cores, 4 private L1s, 2 L2s, 1 L3.
        assert_eq!(root.find_kind(ElementKind::Core).count(), 4);
        let caches: Vec<_> = root.find_kind(ElementKind::Cache).collect();
        let l1 = caches.iter().filter(|c| c.attr("name") == Some("L1")).count();
        let l2 = caches.iter().filter(|c| c.attr("name") == Some("L2")).count();
        let l3 = caches.iter().filter(|c| c.attr("name") == Some("L3")).count();
        assert_eq!((l1, l2, l3), (4, 2, 1));
        // Nested member ids are qualified for uniqueness: the member
        // wrappers carry `core_group0.core0` …, and each anonymous core
        // inside carries the wrapper-qualified id.
        let group_ids: BTreeSet<_> = root
            .find_kind(ElementKind::Group)
            .filter_map(|g| g.instance_id().map(str::to_string))
            .collect();
        assert!(group_ids.contains("core_group0"), "{group_ids:?}");
        assert!(group_ids.contains("core_group0.core0"), "{group_ids:?}");
        assert!(group_ids.contains("core_group1.core1"), "{group_ids:?}");
        let core_ids: BTreeSet<_> = root
            .find_kind(ElementKind::Core)
            .filter_map(|c| c.instance_id().map(str::to_string))
            .collect();
        assert_eq!(core_ids.len(), 4, "{core_ids:?}");
        assert!(core_ids.contains("core_group0.core0.core"), "{core_ids:?}");
    }

    #[test]
    fn listing1_members_share_the_template_strings() {
        let set = resolved(&[("Intel_Xeon_E5_2630L", LISTING_1)]);
        let refs = BTreeSet::new();
        let mut table = MetaTable::new(&set);
        let mut ex = Expander::new(&mut table, &ElabOptions::default());
        let root = ex.expand_root(set.root().root(), &refs).unwrap();
        let is_l1 = |c: &&XpdlElement| c.attr("name") == Some("L1");
        let template = set.root().root();
        let frequency = attr_arc(template.find_kind(ElementKind::Core).next().unwrap(), "frequency");
        let size = attr_arc(template.find_kind(ElementKind::Cache).find(is_l1).unwrap(), "size");
        // Every member copy holds the definition's allocation, not a copy.
        let cores: Vec<_> = root.find_kind(ElementKind::Core).collect();
        let l1s: Vec<_> = root.find_kind(ElementKind::Cache).filter(is_l1).collect();
        assert_eq!((cores.len(), l1s.len()), (4, 4));
        assert!(cores.iter().all(|c| Arc::ptr_eq(attr_arc(c, "frequency"), frequency)));
        assert!(l1s.iter().all(|c| Arc::ptr_eq(attr_arc(c, "size"), size)));
    }

    #[test]
    fn substituted_numbers_print_without_a_trailing_zero() {
        // (bound value as written, attribute text after substitution)
        let cases = [
            ("706", "706"),
            ("1.6", "1.6"),
            ("0.5", "0.5"),
            ("-3", "-3"),
            ("1e15", "1000000000000000"),
            ("1e16", "10000000000000000"),
            ("2.5e-7", "0.00000025"),
        ];
        let mut src = String::from(r#"<device name="d">"#);
        for (i, (value, _)) in cases.iter().enumerate() {
            src.push_str(&format!(r#"<param name="p{i}" value="{value}"/>"#));
        }
        for i in 0..cases.len() {
            src.push_str(&format!(r#"<core id="c{i}" frequency="p{i}"/>"#));
        }
        src.push_str("</device>");
        let (root, _) = expand(&[("d", &src)]);
        for (i, (value, text)) in cases.iter().enumerate() {
            let core = root.find_ident(&format!("c{i}")).unwrap();
            assert_eq!(core.attr("frequency"), Some(*text), "bound to {value}");
        }
    }

    #[test]
    fn group_quantity_from_parameter() {
        let (root, _) = expand(&[(
            "d",
            r#"<device name="d">
                 <param name="num_SM" value="3"/>
                 <group prefix="sm" quantity="num_SM"><core/></group>
               </device>"#,
        )]);
        assert_eq!(root.find_kind(ElementKind::Core).count(), 3);
    }

    #[test]
    fn unresolved_quantity_errors() {
        let set = resolved(&[(
            "d",
            r#"<device name="d"><group quantity="nope"><core/></group></device>"#,
        )]);
        let mut table = MetaTable::new(&set);
        let mut ex = Expander::new(&mut table, &ElabOptions::default());
        let err = ex.expand_root(set.root().root(), &BTreeSet::new()).unwrap_err();
        assert!(matches!(err, ElabError::UnresolvedQuantity { .. }), "{err}");
    }

    #[test]
    fn parameter_substitution_in_attributes() {
        let (root, _) = expand(&[(
            "d",
            r#"<device name="d">
                 <param name="cfrq" frequency="706" unit="MHz"/>
                 <core frequency="cfrq"/>
               </device>"#,
        )]);
        let core = root.find_kind(ElementKind::Core).next().unwrap();
        assert_eq!(core.attr("frequency"), Some("706"));
        assert_eq!(core.attr("frequency_unit"), Some("MHz"));
    }

    #[test]
    fn type_instantiation_pulls_structure() {
        let (root, _) = expand(&[
            (
                "srv",
                r#"<system id="srv"><socket><cpu id="h" type="Xeon1"/></socket></system>"#,
            ),
            (
                "Xeon1",
                r#"<cpu name="Xeon1"><group prefix="core" quantity="2"><core frequency="2" frequency_unit="GHz"/></group></cpu>"#,
            ),
        ]);
        assert_eq!(root.find_kind(ElementKind::Core).count(), 2);
        let cpu = root.find_kind(ElementKind::Cpu).next().unwrap();
        assert_eq!(cpu.instance_id(), Some("h"));
    }

    #[test]
    fn inline_definitions_consumed() {
        let (root, _) = expand(&[(
            "srv",
            r#"<system id="srv">
                 <cpu name="Xeon1"><core/></cpu>
                 <socket><cpu id="h" type="Xeon1"/></socket>
               </system>"#,
        )]);
        // Only the instantiated cpu remains; the inline definition is gone.
        let cpus: Vec<_> = root.find_kind(ElementKind::Cpu).collect();
        assert_eq!(cpus.len(), 1);
        assert_eq!(cpus[0].instance_id(), Some("h"));
        assert_eq!(cpus[0].children.len(), 1);
    }

    #[test]
    fn kepler_full_expansion_with_config() {
        let (root, diags) = expand(&[
            (
                "gpu1_system",
                r#"<system id="gpu1_system">
                     <device id="gpu1" type="Nvidia_K20c">
                       <param name="L1size" size="16" unit="KB"/>
                       <param name="shmsize" size="48" unit="KB"/>
                     </device>
                   </system>"#,
            ),
            (
                "Nvidia_K20c",
                r#"<device name="Nvidia_K20c" extends="Nvidia_Kepler">
                     <param name="num_SM" value="2"/>
                     <param name="coresperSM" value="3"/>
                     <param name="cfrq" frequency="706" unit="MHz"/>
                     <param name="gmsz" size="5" unit="GB"/>
                   </device>"#,
            ),
            (
                "Nvidia_Kepler",
                r#"<device name="Nvidia_Kepler">
                     <const name="shmtotalsize" size="64" unit="KB"/>
                     <param name="L1size" configurable="true" range="16, 32, 48" unit="KB"/>
                     <param name="shmsize" configurable="true" range="16, 32, 48" unit="KB"/>
                     <param name="num_SM"/>
                     <param name="coresperSM"/>
                     <param name="cfrq"/>
                     <param name="gmsz"/>
                     <constraints><constraint expr="L1size + shmsize == shmtotalsize"/></constraints>
                     <group prefix="SM" quantity="num_SM">
                       <group quantity="coresperSM"><core frequency="cfrq"/></group>
                       <cache name="L1" size="L1size"/>
                       <memory name="shm" size="shmsize"/>
                     </group>
                     <memory name="global" size="gmsz"/>
                   </device>"#,
            ),
        ]);
        assert!(diags.iter().all(|d| !d.is_error()), "{diags:?}");
        // 2 SMs × 3 cores.
        assert_eq!(root.find_kind(ElementKind::Core).count(), 6);
        // Each SM has its L1 with the configured size, substituted.
        let l1s: Vec<_> = root
            .find_kind(ElementKind::Cache)
            .filter(|c| c.attr("name") == Some("L1"))
            .collect();
        assert_eq!(l1s.len(), 2);
        assert_eq!(l1s[0].attr("size"), Some("16"));
        assert_eq!(l1s[0].attr("unit"), Some("KB"));
        // Global memory got gmsz.
        let gm = root
            .find_kind(ElementKind::Memory)
            .find(|m| m.attr("name") == Some("global"))
            .unwrap();
        assert_eq!(gm.attr("size"), Some("5"));
    }

    #[test]
    fn constraint_violation_diagnosed_not_fatal() {
        let (_, diags) = expand(&[(
            "d",
            r#"<device name="d">
                 <const name="total" value="64"/>
                 <param name="a" value="16"/>
                 <param name="b" value="16"/>
                 <constraints><constraint expr="a + b == total"/></constraints>
               </device>"#,
        )]);
        assert!(diags.iter().any(|d| d.is_error() && d.message.contains("violated")), "{diags:?}");
    }

    #[test]
    fn budget_enforced() {
        let set = resolved(&[(
            "d",
            r#"<device name="d"><group prefix="x" quantity="100"><core/></group></device>"#,
        )]);
        let mut table = MetaTable::new(&set);
        let mut ex =
            Expander::new(&mut table, &ElabOptions { max_elements: 10, ..Default::default() });
        let err = ex.expand_root(set.root().root(), &BTreeSet::new()).unwrap_err();
        assert!(matches!(err, ElabError::TooLarge { .. }));
    }

    fn expand_keep_going(entries: &[(&str, &str)]) -> (XpdlElement, Vec<Diagnostic>, Vec<String>) {
        let mut m = MemoryStore::new();
        for (k, v) in entries {
            m.insert(*k, *v);
        }
        let set = Repository::new()
            .with_store(m)
            .resolve_with(
                entries[0].0,
                &xpdl_repo::ResolveOptions { allow_missing: true, ..Default::default() },
            )
            .unwrap();
        let mut table = MetaTable::new(&set);
        let refs: BTreeSet<&str> = set
            .documents()
            .flat_map(|(_, d)| xpdl_repo::repository::references_of(d.root()))
            .collect();
        let opts = ElabOptions { keep_going: true, ..Default::default() };
        let mut ex = Expander::new(&mut table, &opts);
        let root = ex.expand_root(set.root().root(), &refs).unwrap();
        (root, ex.diags.clone(), ex.poisoned.clone())
    }

    #[test]
    fn keep_going_poisons_unknown_type_and_continues() {
        let (root, diags, poisoned) = expand_keep_going(&[(
            "srv",
            r#"<system id="srv">
                 <device id="bad" type="Ghost"><core/></device>
                 <device id="ok"><core/><core/></device>
               </system>"#,
        )]);
        // The sibling device still elaborated fully.
        let ok = root.find_ident("ok").unwrap();
        assert_eq!(ok.children_of_kind(ElementKind::Core).count(), 2);
        // The bad device is present, poisoned, and its subtree untouched
        // (quarantined: the inner <core/> was not expanded/budgeted).
        let bad = root.find_ident("bad").unwrap();
        assert_eq!(bad.attr("poisoned"), Some("true"));
        assert!(ok.attr("poisoned").is_none());
        assert_eq!(poisoned, ["system[srv]/device[bad]"]);
        let errs: Vec<_> = diags.iter().filter(|d| d.is_error()).collect();
        assert_eq!(errs.len(), 1);
        assert_eq!(errs[0].code, "E201");
        assert!(errs[0].span.is_some(), "span should point at the type attribute");
    }

    #[test]
    fn keep_going_poisons_unresolved_quantity() {
        let (root, diags, poisoned) = expand_keep_going(&[(
            "d",
            r#"<device name="d">
                 <group quantity="nope"><core/></group>
                 <core id="solo"/>
               </device>"#,
        )]);
        assert!(root.find_ident("solo").is_some());
        let g = root.find_kind(ElementKind::Group).next().unwrap();
        assert_eq!(g.attr("poisoned"), Some("true"));
        assert_eq!(poisoned.len(), 1);
        assert!(diags.iter().any(|d| d.code == "E203"), "{diags:?}");
    }

    #[test]
    fn keep_going_breaks_type_reference_cycles() {
        // A's meta-model contains a child of type B, and B of type A:
        // expansion would recurse forever. Fail-fast errors with TooDeep;
        // keep-going poisons at the depth limit and terminates.
        let entries: &[(&str, &str)] = &[
            ("s", r#"<system id="s"><device id="root" type="A"/></system>"#),
            ("A", r#"<device name="A"><device type="B"/></device>"#),
            ("B", r#"<device name="B"><device type="A"/></device>"#),
        ];
        let set = resolved(entries);
        let refs: BTreeSet<&str> = set
            .documents()
            .flat_map(|(_, d)| xpdl_repo::repository::references_of(d.root()))
            .collect();
        // Fail-fast: clean TooDeep error, no stack overflow.
        let mut table = MetaTable::new(&set);
        let mut ex = Expander::new(
            &mut table,
            &ElabOptions { max_depth: 32, ..Default::default() },
        );
        let err = ex.expand_root(set.root().root(), &refs).unwrap_err();
        assert!(matches!(err, ElabError::TooDeep { .. }), "{err}");
        // Keep-going: poisons the element at the limit and returns a tree.
        let mut table = MetaTable::new(&set);
        let mut ex = Expander::new(
            &mut table,
            &ElabOptions { max_depth: 32, keep_going: true, ..Default::default() },
        );
        let root = ex.expand_root(set.root().root(), &refs).unwrap();
        assert_eq!(root.kind, ElementKind::System);
        assert!(ex.diags.iter().any(|d| d.code == "E212"), "{:?}", ex.diags);
        assert!(!ex.poisoned.is_empty());
    }

    #[test]
    fn too_large_stays_fatal_even_keep_going() {
        let set = resolved(&[(
            "d",
            r#"<device name="d"><group prefix="x" quantity="100"><core/></group></device>"#,
        )]);
        let mut table = MetaTable::new(&set);
        let mut ex = Expander::new(
            &mut table,
            &ElabOptions { max_elements: 10, keep_going: true, ..Default::default() },
        );
        let err = ex.expand_root(set.root().root(), &BTreeSet::new()).unwrap_err();
        assert!(matches!(err, ElabError::TooLarge { .. }));
    }

    #[test]
    fn ungrouped_group_kept() {
        let (root, _) = expand(&[(
            "s",
            r#"<system id="s"><group id="cpu1"><socket><cpu id="PE0" type="X"/></socket></group><cpu name="X"/></system>"#,
        )]);
        let g = root.find_kind(ElementKind::Group).next().unwrap();
        assert_eq!(g.instance_id(), Some("cpu1"));
    }
}
