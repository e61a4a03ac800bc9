//! The validation walker.
//!
//! Every diagnostic carries a stable `V1xx` code and, when the element was
//! parsed from text, the source span of the offending attribute (falling
//! back to the element's own span) — see DESIGN.md "Diagnostics & graceful
//! degradation" for the taxonomy.

use crate::diag::Diagnostic;
use crate::schema::{AttrDomain, ChildPolicy, ElementSpec, Schema};
use std::collections::HashMap;
use xpdl_core::units::Unit;
use xpdl_core::value::AttrValue;
use xpdl_core::{XpdlDocument, XpdlElement};
use xpdl_expr::parse_expr;

/// Validate a whole document against a schema.
pub fn validate_document(doc: &XpdlDocument, schema: &Schema) -> Vec<Diagnostic> {
    let mut sp = xpdl_obs::trace::span("schema.validate");
    let mut diags = Vec::new();
    walk(doc.root(), schema, &path_segment(doc.root()), &mut diags);
    // Identifier uniqueness is a document-level rule (paper §III-A).
    if let Err(e) = doc.ident_index() {
        diags.push(
            Diagnostic::error(path_segment(doc.root()), e.to_string())
                .with_code("V130")
                .with_span(doc.root().span),
        );
    }
    sp.record_attr("diagnostics", diags.len());
    diags
}

/// Validate a single element subtree.
pub fn validate_element(elem: &XpdlElement, schema: &Schema) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    walk(elem, schema, &path_segment(elem), &mut diags);
    diags
}

/// Whether a string looks like a parameter identifier.
fn is_ident_like(s: &str) -> bool {
    let mut chars = s.chars();
    matches!(chars.next(), Some(c) if c.is_alphabetic() || c == '_')
        && chars.all(|c| c.is_alphanumeric() || c == '_')
}

fn path_segment(e: &XpdlElement) -> String {
    match e.ident() {
        Some(id) => format!("{}[{}]", e.kind.tag(), id),
        None => e.kind.tag().to_string(),
    }
}

fn walk(e: &XpdlElement, schema: &Schema, path: &str, diags: &mut Vec<Diagnostic>) {
    match schema.spec(e.kind.tag()) {
        Some(spec) => check_element(e, spec, schema, path, diags),
        None => {
            // Unknown tags are the extensibility escape hatch: warn only.
            diags.push(
                Diagnostic::warning(
                    path,
                    format!("element <{}> is not in the core metamodel", e.kind.tag()),
                )
                .with_code("V121")
                .with_span(e.span),
            );
        }
    }
    for c in &e.children {
        let child_path = format!("{path}/{}", path_segment(c));
        walk(c, schema, &child_path, diags);
    }
}

/// Past a few attributes, the position in `e.attr_spans` of the first
/// span recorded under each name, which [`XpdlElement::span_for_attr`]
/// would scan for; with it, validating an element is linear in its
/// attributes.
fn attr_span_index(e: &XpdlElement) -> Option<HashMap<&str, usize>> {
    // Up to this many attributes a scan is cheaper than a map.
    const SCAN: usize = 16;
    (e.attr_spans.len() > SCAN).then(|| {
        let mut index = HashMap::with_capacity(e.attr_spans.len());
        for (i, (name, _)) in e.attr_spans.iter().enumerate() {
            index.entry(&**name).or_insert(i);
        }
        index
    })
}

fn check_element(
    e: &XpdlElement,
    spec: &ElementSpec,
    _schema: &Schema,
    path: &str,
    diags: &mut Vec<Diagnostic>,
) {
    // Identification rules.
    if e.meta_name().is_some() && !spec.allow_name {
        diags.push(
            Diagnostic::error(path, format!("<{}> may not carry 'name'", spec.tag))
                .with_code("V101")
                .with_span(e.span_for_attr("name")),
        );
    }
    if e.instance_id().is_some() && !spec.allow_id {
        diags.push(
            Diagnostic::error(path, format!("<{}> may not carry 'id'", spec.tag))
                .with_code("V101")
                .with_span(e.span_for_attr("id")),
        );
    }
    if e.type_ref.is_some() && !spec.allow_type {
        diags.push(
            Diagnostic::error(path, format!("<{}> may not carry 'type'", spec.tag))
                .with_code("V101")
                .with_span(e.span_for_attr("type")),
        );
    }
    if !e.extends.is_empty() && !spec.allow_extends {
        diags.push(
            Diagnostic::error(path, format!("<{}> may not carry 'extends'", spec.tag))
                .with_code("V101")
                .with_span(e.span_for_attr("extends")),
        );
    }

    // Required attributes.
    for a in spec.attrs.iter().filter(|a| a.required) {
        if e.attr(a.name).is_none() {
            diags.push(
                Diagnostic::error(
                    path,
                    format!("<{}> is missing required attribute '{}'", spec.tag, a.name),
                )
                .with_code("V102")
                .with_span(e.span),
            );
        }
    }

    // Attribute domains.
    let index = attr_span_index(e);
    let span_of = |key: &str| match &index {
        Some(index) => index.get(key).map_or(e.span, |&i| e.attr_spans[i].1),
        None => e.span_for_attr(key),
    };
    for (key, raw) in &e.attrs {
        let span = span_of(key);
        let Some(a) = spec.attr(key) else {
            diags.push(
                Diagnostic::info(
                    path,
                    format!("attribute '{key}' is not in the core metamodel for <{}>", spec.tag),
                )
                .with_code("V120")
                .with_span(span),
            );
            continue;
        };
        let value = AttrValue::interpret(raw);
        if value.is_unknown() {
            if !a.allow_unknown {
                diags.push(
                    Diagnostic::error(
                        path,
                        format!("attribute '{key}' does not admit the '?' placeholder"),
                    )
                    .with_code("V103")
                    .with_span(span),
                );
            }
            continue;
        }
        match &a.domain {
            AttrDomain::Any | AttrDomain::IdentRef => {}
            AttrDomain::Number => {
                if value.as_number().is_none() {
                    diags.push(
                        Diagnostic::error(
                            path,
                            format!("attribute '{key}' must be numeric, got {raw:?}"),
                        )
                        .with_code("V104")
                        .with_span(span),
                    );
                }
            }
            AttrDomain::CountOrParam => match value {
                AttrValue::Number(n) if n >= 0.0 && n.fract() == 0.0 => {}
                AttrValue::Str(_) => {} // parameter reference, bound at elaboration
                _ => diags.push(
                    Diagnostic::error(
                        path,
                        format!("attribute '{key}' must be a non-negative integer or parameter name, got {raw:?}"),
                    )
                    .with_code("V105")
                    .with_span(span),
                ),
            },
            AttrDomain::Metric(dim) => {
                // Meta-models may bind metrics to parameter names
                // (Listing 8: `size="L1size"`, `frequency="cfrq"`) — those
                // resolve at elaboration time.
                let is_param_ref =
                    matches!(&value, AttrValue::Str(s) if is_ident_like(s));
                if is_param_ref {
                    // Defer to elaboration.
                } else if value.as_number().is_none() {
                    diags.push(
                        Diagnostic::error(
                            path,
                            format!("metric '{key}' must be numeric, '?' or a parameter name, got {raw:?}"),
                        )
                        .with_code("V106")
                        .with_span(span),
                    );
                } else {
                    let unit_attr = XpdlElement::unit_attr_for(key);
                    if let Some(unit_raw) = e.attr(&unit_attr) {
                        match Unit::parse(unit_raw) {
                            Ok(u) if u.dimension != *dim => diags.push(
                                Diagnostic::error(
                                    path,
                                    format!(
                                        "unit {unit_raw:?} of '{key}' has dimension {}, expected {dim}",
                                        u.dimension
                                    ),
                                )
                                .with_code("V107")
                                .with_span(e.span_for_attr(&unit_attr)),
                            ),
                            Ok(_) => {}
                            // Parse failures are reported once, by the
                            // UnitStr domain of the unit attribute itself.
                            Err(_) => {}
                        }
                    }
                }
            }
            AttrDomain::Enum(allowed) => {
                if !allowed.contains(&raw.trim()) {
                    diags.push(
                        Diagnostic::error(
                            path,
                            format!("attribute '{key}' must be one of {allowed:?}, got {raw:?}"),
                        )
                        .with_code("V109")
                        .with_span(span),
                    );
                }
            }
            AttrDomain::Expr => {
                if let Err(err) = parse_expr(raw) {
                    diags.push(
                        Diagnostic::error(
                            path,
                            format!("attribute '{key}' is not a valid expression: {err}"),
                        )
                        .with_code("V110")
                        .with_span(span),
                    );
                }
            }
            AttrDomain::Bool => {
                if !matches!(raw.trim(), "true" | "false") {
                    diags.push(
                        Diagnostic::error(
                            path,
                            format!("attribute '{key}' must be true/false, got {raw:?}"),
                        )
                        .with_code("V111")
                        .with_span(span),
                    );
                }
            }
            AttrDomain::UnitStr => {
                if let Err(err) = Unit::parse(raw) {
                    diags.push(
                        Diagnostic::error(path, err.to_string())
                            .with_code("V108")
                            .with_span(span),
                    );
                }
            }
        }
    }

    // Child policy.
    match &spec.children {
        ChildPolicy::Any => {}
        ChildPolicy::None => {
            for c in &e.children {
                diags.push(
                    Diagnostic::warning(
                        path,
                        format!("<{}> is a leaf in the core metamodel but contains <{}>", spec.tag, c.kind.tag()),
                    )
                    .with_code("V123")
                    .with_span(c.span),
                );
            }
        }
        ChildPolicy::Listed(allowed) => {
            for c in &e.children {
                if !allowed.contains(&c.kind.tag()) {
                    diags.push(
                        Diagnostic::warning(
                            path,
                            format!("<{}> is not an expected child of <{}>", c.kind.tag(), spec.tag),
                        )
                        .with_code("V122")
                        .with_span(c.span),
                    );
                }
            }
        }
    }
    for required in spec.required_children {
        if !e.children.iter().any(|c| c.kind.tag() == *required) {
            diags.push(
                Diagnostic::error(
                    path,
                    format!("<{}> requires at least one <{required}> child", spec.tag),
                )
                .with_code("V124")
                .with_span(e.span),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::DiagnosticsExt;
    use crate::schema::Schema;

    fn validate(src: &str) -> Vec<Diagnostic> {
        let doc = XpdlDocument::parse_str(src).unwrap();
        validate_document(&doc, &Schema::core())
    }

    fn errors(src: &str) -> Vec<Diagnostic> {
        validate(src).into_iter().filter(Diagnostic::is_error).collect()
    }

    #[test]
    fn listing2_memory_valid() {
        let d = errors(r#"<memory name="DDR3_16G" type="DDR3" size="16" unit="GB" static_power="4" static_power_unit="W"/>"#);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn listing13_power_state_machine_valid() {
        let d = errors(
            r#"<power_state_machine name="m1" power_domain="xyCPU_core_pd">
                 <power_states>
                   <power_state name="P1" frequency="1.2" frequency_unit="GHz" power="20" power_unit="W"/>
                   <power_state name="P2" frequency="1.6" frequency_unit="GHz" power="28" power_unit="W"/>
                 </power_states>
                 <transitions>
                   <transition head="P2" tail="P1" time="1" time_unit="us" energy="2" energy_unit="nJ"/>
                 </transitions>
               </power_state_machine>"#,
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn transition_missing_head_is_error() {
        let d = errors(
            r#"<power_state_machine name="m">
                 <power_states><power_state name="P1"/></power_states>
                 <transitions><transition tail="P1"/></transitions>
               </power_state_machine>"#,
        );
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("head"));
        assert_eq!(d[0].code, "V102");
    }

    #[test]
    fn psm_requires_power_states() {
        let d = errors(r#"<power_state_machine name="m"><transitions/></power_state_machine>"#);
        assert!(d.iter().any(|x| x.message.contains("power_states")), "{d:?}");
    }

    #[test]
    fn wrong_unit_dimension_is_error() {
        let d = errors(r#"<cache name="L1" size="32" unit="GHz"/>"#);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("dimension"), "{}", d[0].message);
        assert_eq!(d[0].code, "V107");
    }

    #[test]
    fn bad_unit_string_is_error() {
        let d = errors(r#"<core frequency="2" frequency_unit="XHz"/>"#);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, "V108");
    }

    #[test]
    fn unknown_placeholder_allowed_only_where_declared() {
        // energy on channel is microbenchmarkable.
        assert!(errors(r#"<channel name="up" energy_per_byte="?" energy_per_byte_unit="pJ"/>"#)
            .is_empty());
        // sets on cache is not.
        let d = errors(r#"<cache name="L1" sets="?"/>"#);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("placeholder"));
    }

    #[test]
    fn enum_domain_enforced() {
        let d = errors(r#"<cache name="L1" replacement="MRU"/>"#);
        assert_eq!(d.len(), 1);
        assert!(errors(r#"<cache name="L1" replacement="LRU"/>"#).is_empty());
    }

    #[test]
    fn bad_constraint_expression_is_error() {
        let d = errors(r#"<constraints><constraint expr="a + == b"/></constraints>"#);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("expression"));
        assert!(errors(r#"<constraints><constraint expr="L1size + shmsize == shmtotalsize"/></constraints>"#).is_empty());
    }

    #[test]
    fn switchoff_condition_validates_as_expression() {
        assert!(errors(r#"<power_domain name="CMX_pd" switchoffCondition="Shave_pds off"/>"#)
            .is_empty());
        let d = errors(r#"<power_domain name="p" switchoffCondition="1 ++"/>"#);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn unknown_tag_warns_not_errors() {
        let diags = validate(r#"<device name="d"><fpga name="f"/></device>"#);
        assert!(diags.is_valid());
        assert!(diags.iter().any(|d| d.severity == crate::Severity::Warning));
    }

    #[test]
    fn unknown_attr_is_info() {
        let diags = validate(r#"<cache name="L1" banked="yes"/>"#);
        assert!(diags.is_valid());
        assert!(diags.iter().any(|d| d.severity == crate::Severity::Info));
    }

    #[test]
    fn unexpected_child_warns() {
        let diags = validate(r#"<cache name="L1"><core/></cache>"#);
        assert!(diags.is_valid());
        assert!(diags.iter().any(|d| d.message.contains("leaf")));
    }

    #[test]
    fn duplicate_ids_error_at_document_level() {
        let d = errors(r#"<system id="s"><device id="x"/><device id="x"/></system>"#);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("duplicate"));
        assert_eq!(d[0].code, "V130");
    }

    #[test]
    fn group_quantity_domain() {
        assert!(errors(r#"<group prefix="core" quantity="4"><core/></group>"#).is_empty());
        assert!(errors(r#"<group quantity="num_SM"><core/></group>"#).is_empty());
        let d = errors(r#"<group quantity="-1"><core/></group>"#);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn role_enum_on_cpu() {
        assert!(errors(r#"<cpu id="h" type="X" role="master"/>"#).is_empty());
        let d = errors(r#"<cpu id="h" type="X" role="boss"/>"#);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn paths_name_the_offending_element() {
        let diags = errors(
            r#"<system id="s"><node><cache name="L1" size="32" unit="XB"/></node></system>"#,
        );
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].path, "system[s]/node/cache[L1]");
    }

    #[test]
    fn diagnostics_point_at_source_lines() {
        // The bad unit sits on line 3 of the descriptor; the diagnostic's
        // span must say so (attribute-precise, not element-start).
        let src = "<system id=\"s\">\n  <node>\n    <cache name=\"L1\" size=\"32\" unit=\"XB\"/>\n  </node>\n</system>";
        let diags = errors(src);
        assert_eq!(diags.len(), 1);
        let span = diags[0].span.expect("span recorded");
        assert_eq!(span.start.line, 3);
        assert!(span.start.col > 20, "column should point at the unit attribute, got {}", span.start.col);
        assert!(diags[0].to_string().contains("(3:"), "{}", diags[0]);
    }
}
