//! The elaboration walker: type instantiation, parameter substitution and
//! group expansion.

use xpdl_elab::constraints::{check_constraints, check_param_ranges};
use xpdl_elab::elaborate::ElabOptions;
use xpdl_elab::error::{ElabError, ElabResult};
use xpdl_elab::inherit::{instantiate_ref, MetaTable};
use xpdl_elab::scope::Scope;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
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
    /// Id qualifier of the group member being expanded (`n0.c1.`), kept
    /// like `path`: a member appends `<prefix><i>.` and truncates it on
    /// leaving, so only the ids made from it allocate.
    qualifier: String,
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
            qualifier: String::new(),
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
        self.qualifier.clear();
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

    /// Expand a `group` child into `parent`'s children. Each member gets
    /// its own copy of the group's content; the last member takes the
    /// original.
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
        if content.len() == 1 && content[0].kind != ElementKind::Group {
            // The member's own ids (and intra-member references) get
            // qualified so expanded copies stay globally unique.
            let local = local_instance_ids(&content[0].children);
            for i in 0..n {
                let mut member = if i + 1 == n {
                    content.pop().expect("one element")
                } else {
                    content[0].clone()
                };
                let mark = self.enter_member(prefix, i);
                if member.ident().is_none() {
                    member.model_kind = ModelKind::Instance(self.member_id());
                }
                qualify_member_ids(&mut member.children, &mut self.qualifier, &local);
                let expanded = self.expand_element(member, scope, in_power_domain)?;
                self.qualifier.truncate(mark);
                parent.children.push(expanded);
            }
            return Ok(());
        }

        // Anonymous hardware parts get a member-qualified id; same-kind
        // siblings get an occurrence suffix (`cache0`, `cache1`).
        let part_ids = anonymous_part_ids(&content);
        let local = local_instance_ids(&content);
        for i in 0..n {
            let last = i + 1 == n;
            let mark = self.enter_member(prefix, i);
            let mut wrapper = XpdlElement::new(ElementKind::Group);
            wrapper.model_kind = ModelKind::Instance(self.member_id());
            wrapper.children.reserve(content.len());
            let path_mark = self.enter(&wrapper);
            scope.push();
            // Members are copied one at a time; the last member moves the
            // content instead.
            for (slot, part_id) in content.iter_mut().zip(&part_ids) {
                let mut c = if last {
                    std::mem::replace(slot, XpdlElement::new(ElementKind::Group))
                } else {
                    slot.clone()
                };
                qualify_member_ids(std::slice::from_mut(&mut c), &mut self.qualifier, &local);
                if c.kind == ElementKind::Group {
                    self.expand_group(c, &mut wrapper, scope, in_power_domain)?;
                    continue;
                }
                if let Some(occurrence) = part_id {
                    let part_mark = self.qualifier.len();
                    self.qualifier.push_str(c.kind.tag());
                    if let Some(k) = occurrence {
                        write!(self.qualifier, "{k}").expect("write to String");
                    }
                    c.model_kind = ModelKind::Instance(self.qualifier.as_str().into());
                    self.qualifier.truncate(part_mark);
                }
                let expanded = self.expand_element(c, scope, in_power_domain)?;
                wrapper.children.push(expanded);
            }
            scope.pop();
            self.path.truncate(path_mark);
            self.qualifier.truncate(mark);
            parent.children.push(wrapper);
        }
        Ok(())
    }

    /// Append member `i`'s qualifier segment (`<prefix><i>.`); returns the
    /// length to truncate back to on leaving the member.
    fn enter_member(&mut self, prefix: &str, i: usize) -> usize {
        let mark = self.qualifier.len();
        write!(self.qualifier, "{prefix}{i}.").expect("write to String");
        mark
    }

    /// The id of the member being expanded: its qualifier without the
    /// final dot, in one allocation.
    fn member_id(&self) -> Arc<str> {
        self.qualifier[..self.qualifier.len() - 1].into()
    }
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

/// Qualify the `local` instance ids of a copied member subtree with the
/// member qualifier, and rewrite intra-member `head`/`tail` references to
/// match. Without this, Listing 11's node template (`<device id="gpu1">`,
/// `<interconnect head="cpu1" tail="gpu1">`) would produce four colliding
/// `gpu1`s across `n0..n3`. `qualifier` is left as it was given.
fn qualify_member_ids(
    subtree: &mut [XpdlElement],
    qualifier: &mut String,
    local: &BTreeSet<Arc<str>>,
) {
    if local.is_empty() {
        return;
    }
    for e in subtree.iter_mut() {
        rewrite_ids(e, qualifier, local);
    }
}

fn collect_instance_ids(e: &XpdlElement, out: &mut BTreeSet<Arc<str>>) {
    if let ModelKind::Instance(id) = &e.model_kind {
        out.insert(Arc::clone(id));
    }
    for c in &e.children {
        collect_instance_ids(c, out);
    }
}

fn rewrite_ids(e: &mut XpdlElement, qualifier: &mut String, local: &BTreeSet<Arc<str>>) {
    if let ModelKind::Instance(id) = &e.model_kind {
        if local.contains(id) {
            e.model_kind = ModelKind::Instance(qualified(qualifier, id));
        }
    }
    for (k, v) in &mut e.attrs {
        if matches!(&**k, "head" | "tail") && local.contains(v) {
            *v = qualified(qualifier, v);
        }
    }
    for c in &mut e.children {
        rewrite_ids(c, qualifier, local);
    }
}

/// `qualifier` followed by `id`, in one allocation; `qualifier` is left as
/// it was given.
fn qualified(qualifier: &mut String, id: &str) -> Arc<str> {
    let mark = qualifier.len();
    qualifier.push_str(id);
    let out = Arc::from(qualifier.as_str());
    qualifier.truncate(mark);
    out
}
