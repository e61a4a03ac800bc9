//! Constraint and parameter-range checking during elaboration.

use crate::scope::{Scope, ScopeEnv};
use xpdl_core::value::AttrValue;
use xpdl_core::{ElementKind, XpdlElement};
use xpdl_expr::{eval_str, ExprError, Value};
use xpdl_schema::Diagnostic;

/// Evaluate the `constraints/constraint` children of an element in the
/// current scope. Violations are errors; constraints over unbound
/// parameters are warnings (they re-check once a configuration binds them).
pub fn check_constraints(
    e: &XpdlElement,
    scope: &Scope,
    path: &str,
    diags: &mut Vec<Diagnostic>,
) {
    for cs in e.children_of_kind(ElementKind::Constraints) {
        for c in cs.children_of_kind(ElementKind::Constraint) {
            let span = c.attr_span("expr").unwrap_or(c.span);
            let Some(expr) =
                c.attr("expr").or_else(|| (!c.text.is_empty()).then_some(c.text.as_str()))
            else {
                diags.push(
                    Diagnostic::error(path, "constraint without 'expr'")
                        .with_code("E205")
                        .with_span(c.span),
                );
                continue;
            };
            let env = ScopeEnv::new(scope);
            match eval_str(expr, &env) {
                Ok(Value::Bool(true)) => {}
                Ok(Value::Bool(false)) => diags.push(
                    Diagnostic::error(path, format!("constraint violated: {expr}"))
                        .with_code("E204")
                        .with_span(span),
                ),
                Ok(other) => diags.push(
                    Diagnostic::warning(
                        path,
                        format!("constraint {expr:?} evaluated to non-boolean {other}"),
                    )
                    .with_code("E206")
                    .with_span(span),
                ),
                Err(ExprError::UnknownVariable(v)) => diags.push(
                    Diagnostic::warning(
                        path,
                        format!("constraint {expr:?} deferred: parameter '{v}' not bound"),
                    )
                    .with_code("E207")
                    .with_span(span),
                ),
                Err(err) => diags.push(
                    Diagnostic::error(
                        path,
                        format!("constraint {expr:?} failed to evaluate: {err}"),
                    )
                    .with_code("E205")
                    .with_span(span),
                ),
            }
        }
    }
}

/// Check configurable parameters with a declared `range` against their
/// bound value (Listing 8/10: `L1size` ∈ {16, 32, 48} KB).
pub fn check_param_ranges(
    e: &XpdlElement,
    scope: &Scope,
    path: &str,
    diags: &mut Vec<Diagnostic>,
) {
    for p in e.children_of_kind(ElementKind::Param) {
        let Some(name) = p.meta_name() else { continue };
        let Some(range_raw) = p.attr("range") else { continue };
        let Some(bound) = scope.get(name) else { continue };
        let range_span = p.attr_span("range").unwrap_or(p.span);
        let Some(allowed) = AttrValue::interpret(range_raw).as_number_list() else {
            diags.push(
                Diagnostic::warning(
                    path,
                    format!("parameter '{name}': non-numeric range {range_raw:?}"),
                )
                .with_code("E209")
                .with_span(range_span),
            );
            continue;
        };
        // Range entries are written in the param's own declared unit, so
        // compare raw magnitudes.
        if !allowed.iter().any(|a| (a - bound.value()).abs() < 1e-9) {
            diags.push(
                Diagnostic::error(
                    path,
                    format!(
                        "parameter '{name}' = {} is outside its configurable range {range_raw}",
                        bound.value()
                    ),
                )
                .with_code("E209")
                .with_span(range_span),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scope::ParamValue;
    use xpdl_core::XpdlDocument;

    fn parse(src: &str) -> XpdlElement {
        XpdlDocument::parse_str(src).unwrap().into_root()
    }

    fn scope(bindings: &[(&str, f64, &str)]) -> Scope {
        let mut s = Scope::new();
        for (n, v, u) in bindings {
            s.bind(n.to_string(), ParamValue::with_unit(*v, *u));
        }
        s
    }

    #[test]
    fn satisfied_constraint_silent() {
        let e = parse(
            r#"<d name="d"><constraints><constraint expr="a + b == c"/></constraints></d>"#,
        );
        let s = scope(&[("a", 16.0, "KB"), ("b", 48.0, "KB"), ("c", 64.0, "KB")]);
        let mut diags = Vec::new();
        check_constraints(&e, &s, "d", &mut diags);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn violated_constraint_is_error() {
        let e = parse(
            r#"<d name="d"><constraints><constraint expr="a + b == c"/></constraints></d>"#,
        );
        let s = scope(&[("a", 32.0, "KB"), ("b", 48.0, "KB"), ("c", 64.0, "KB")]);
        let mut diags = Vec::new();
        check_constraints(&e, &s, "d", &mut diags);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].is_error());
        assert!(diags[0].message.contains("violated"));
    }

    #[test]
    fn mixed_units_constraint_normalizes() {
        // 1 MiB == 1024 KiB.
        let e = parse(r#"<d name="d"><constraints><constraint expr="a == b"/></constraints></d>"#);
        let s = scope(&[("a", 1.0, "MiB"), ("b", 1024.0, "KiB")]);
        let mut diags = Vec::new();
        check_constraints(&e, &s, "d", &mut diags);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn unbound_parameter_defers_with_warning() {
        let e = parse(r#"<d name="d"><constraints><constraint expr="a == 1"/></constraints></d>"#);
        let s = Scope::new();
        let mut diags = Vec::new();
        check_constraints(&e, &s, "d", &mut diags);
        assert_eq!(diags.len(), 1);
        assert!(!diags[0].is_error());
        assert!(diags[0].message.contains("deferred"));
    }

    #[test]
    fn non_boolean_constraint_warns() {
        let e = parse(r#"<d name="d"><constraints><constraint expr="1 + 1"/></constraints></d>"#);
        let mut diags = Vec::new();
        check_constraints(&e, &Scope::new(), "d", &mut diags);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("non-boolean"));
    }

    #[test]
    fn constraint_text_body_supported() {
        let e = parse(r#"<d name="d"><constraints><constraint>a == 1</constraint></constraints></d>"#);
        let s = scope(&[("a", 1.0, "")]);
        let mut diags = Vec::new();
        check_constraints(&e, &s, "d", &mut diags);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn range_check_accepts_and_rejects() {
        let e = parse(
            r#"<d name="d"><param name="L1size" configurable="true" range="16, 32, 48" unit="KB"/></d>"#,
        );
        let ok = scope(&[("L1size", 32.0, "KB")]);
        let mut diags = Vec::new();
        check_param_ranges(&e, &ok, "d", &mut diags);
        assert!(diags.is_empty());
        let bad = scope(&[("L1size", 64.0, "KB")]);
        check_param_ranges(&e, &bad, "d", &mut diags);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].is_error());
        assert!(diags[0].message.contains("outside"));
    }

    #[test]
    fn unbound_range_param_ignored() {
        let e = parse(r#"<d name="d"><param name="x" range="1, 2"/></d>"#);
        let mut diags = Vec::new();
        check_param_ranges(&e, &Scope::new(), "d", &mut diags);
        assert!(diags.is_empty());
    }
}
