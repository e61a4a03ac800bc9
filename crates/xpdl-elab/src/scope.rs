//! Lexical parameter scopes built from `const` and `param` elements.

use std::collections::BTreeMap;
use std::sync::Arc;
use xpdl_core::units::{Quantity, Unit};
use xpdl_core::value::AttrValue;
use xpdl_core::{ElementKind, ModelKind, XpdlElement};
use xpdl_expr::{DomainState, Env, Value};

/// A bound parameter/constant value.
///
/// Its unit and its substituted text are shared strings made once, when
/// the value is made, so substituting the parameter into an attribute
/// costs one `Arc` clone. The fields are private because `text` must stay
/// the formatting of `value`.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamValue {
    value: f64,
    unit: Arc<str>,
    text: Arc<str>,
}

impl ParamValue {
    /// A dimensionless value.
    pub fn number(value: f64) -> ParamValue {
        ParamValue::with_unit(value, Arc::<str>::default())
    }

    /// With a unit.
    pub fn with_unit(value: f64, unit: impl Into<Arc<str>>) -> ParamValue {
        ParamValue { value, unit: unit.into(), text: fmt_num(value).into() }
    }

    /// Magnitude as written.
    pub fn value(&self) -> f64 {
        self.value
    }

    /// Unit string as written (empty = dimensionless).
    pub fn unit(&self) -> &Arc<str> {
        &self.unit
    }

    /// The attribute text a substitution writes: the value without a
    /// trailing `.0` (`706`, `1.6`, `0.00000025`).
    pub fn text(&self) -> &Arc<str> {
        &self.text
    }

    /// The value normalized to its dimension's base unit (falls back to the
    /// raw value if the unit string does not parse).
    pub fn to_base(&self) -> f64 {
        Quantity::parse(self.value, &self.unit).map(|q| q.to_base()).unwrap_or(self.value)
    }

    /// As a typed quantity.
    pub fn quantity(&self) -> Option<Quantity> {
        Quantity::parse(self.value, &self.unit).ok()
    }
}

/// A chain of lexically nested parameter bindings.
///
/// Scopes stack as elaboration descends the element tree: inner bindings
/// shadow outer ones, mirroring the hierarchical scoping the paper uses for
/// memory sharing ("the sharing of memory is given implicitly by the
/// hierarchical scoping in XPDL").
///
/// Frames key on the parameter's shared name, so binding one copies no
/// string.
#[derive(Debug, Clone, Default)]
pub struct Scope {
    frames: Vec<BTreeMap<Arc<str>, ParamValue>>,
}

impl Scope {
    /// An empty scope with one root frame.
    pub fn new() -> Scope {
        Scope { frames: vec![BTreeMap::new()] }
    }

    /// Enter a nested frame.
    pub fn push(&mut self) {
        self.frames.push(BTreeMap::new());
    }

    /// Leave the innermost frame. Popping the root frame is a no-op.
    pub fn pop(&mut self) {
        if self.frames.len() > 1 {
            self.frames.pop();
        }
    }

    /// Bind a value in the innermost frame.
    pub fn bind(&mut self, name: impl Into<Arc<str>>, value: ParamValue) {
        self.frames.last_mut().expect("the root frame is pushed in new() and never popped").insert(name.into(), value);
    }

    /// Look up a binding, innermost first.
    pub fn get(&self, name: &str) -> Option<&ParamValue> {
        self.frames.iter().rev().find_map(|f| f.get(name))
    }

    /// Whether a name is bound.
    pub fn contains(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Current nesting depth (1 = only root frame).
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// Bind the `const` and `param` children of an element into the current
    /// frame. Returns the names declared without a value.
    ///
    /// Value extraction follows the listings: `value=` (Listing 9
    /// `num_SM`), `size=`+`unit=` (`gmsz`), `frequency=`+(`frequency_unit`
    /// or `unit`) (`cfrq`).
    pub fn bind_element_params(&mut self, e: &XpdlElement) -> Vec<String> {
        let mut unbound = Vec::new();
        for child in &e.children {
            if !matches!(child.kind, ElementKind::Param | ElementKind::Const) {
                continue;
            }
            let ModelKind::Meta(name) = &child.model_kind else { continue };
            match extract_param_value(child) {
                Some(v) => self.bind(Arc::clone(name), v),
                None => {
                    if !self.contains(name) {
                        unbound.push(name.to_string());
                    }
                }
            }
        }
        unbound
    }

    /// Resolve a raw attribute value to a magnitude: a number stays a
    /// number, a bound parameter name becomes its value, anything else is
    /// `None`.
    pub fn resolve_numeric(&self, raw: &str) -> Option<f64> {
        match AttrValue::interpret(raw) {
            AttrValue::Number(n) => Some(n),
            AttrValue::Str(s) => self.get(&s).map(ParamValue::value),
            _ => None,
        }
    }
}

/// Extract a param/const element's value, if bound.
///
/// The unit shares the element's attribute string, and so does the text
/// when the value is written the way a substitution would print it.
pub fn extract_param_value(e: &XpdlElement) -> Option<ParamValue> {
    for metric in ["value", "size", "frequency", "power", "energy", "time"] {
        let Some(raw) = attr_where(e, |k| k == metric) else { continue };
        let AttrValue::Number(n) = AttrValue::interpret(raw) else { continue };
        // Unit lookup: the metric's own `<metric>_unit` first, then the
        // bare `unit` attribute (Listing 9 writes `frequency="706"
        // unit="MHz"`). Only a unit that parses is kept; otherwise the raw
        // magnitude stands alone.
        let unit = attr_where(e, |k| k.strip_suffix("_unit") == Some(metric))
            .or_else(|| attr_where(e, |k| k == "unit"))
            .filter(|u| Unit::parse(u).is_ok())
            .cloned()
            .unwrap_or_default();
        let text = fmt_num(n);
        let text = if *text == **raw { Arc::clone(raw) } else { text.into() };
        return Some(ParamValue { value: n, unit, text });
    }
    None
}

/// The value of `e`'s first plain attribute whose name satisfies `pick`.
fn attr_where(e: &XpdlElement, pick: impl Fn(&str) -> bool) -> Option<&Arc<str>> {
    e.attrs.iter().find(|(k, _)| pick(k)).map(|(_, v)| v)
}

/// Number formatting matching attribute conventions (no trailing `.0`).
pub(crate) fn fmt_num(n: f64) -> String {
    if n.fract() == 0.0 && n.abs() < 1e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

/// Expression-evaluation environment over a scope (unit-normalized).
pub struct ScopeEnv<'a> {
    /// The scope to read bindings from.
    pub scope: &'a Scope,
    /// Optional power-domain states for `on`/`off` predicates.
    pub states: BTreeMap<String, DomainState>,
}

impl<'a> ScopeEnv<'a> {
    /// Wrap a scope with no domain states.
    pub fn new(scope: &'a Scope) -> ScopeEnv<'a> {
        ScopeEnv { scope, states: BTreeMap::new() }
    }
}

impl Env for ScopeEnv<'_> {
    fn lookup(&self, name: &str) -> Option<Value> {
        self.scope.get(name).map(|p| Value::Number(p.to_base()))
    }

    fn domain_state(&self, name: &str) -> Option<DomainState> {
        self.states.get(name).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpdl_core::XpdlDocument;
    use xpdl_expr::eval_str;

    fn parse(src: &str) -> XpdlElement {
        XpdlDocument::parse_str(src).unwrap().into_root()
    }

    #[test]
    fn shadowing_and_depth() {
        let mut s = Scope::new();
        s.bind("x", ParamValue::number(1.0));
        s.push();
        s.bind("x", ParamValue::number(2.0));
        assert_eq!(s.get("x").unwrap().value(), 2.0);
        assert_eq!(s.depth(), 2);
        s.pop();
        assert_eq!(s.get("x").unwrap().value(), 1.0);
        assert!(!s.contains("y"));
    }

    #[test]
    fn pop_never_removes_root() {
        let mut s = Scope::new();
        s.pop();
        assert_eq!(s.depth(), 1);
    }

    #[test]
    fn listing9_param_forms() {
        let dev = parse(
            r#"<device name="K20c">
                 <param name="num_SM" value="13"/>
                 <param name="coresperSM" value="192"/>
                 <param name="cfrq" frequency="706" unit="MHz"/>
                 <param name="gmsz" size="5" unit="GB"/>
               </device>"#,
        );
        let mut s = Scope::new();
        let unbound = s.bind_element_params(&dev);
        assert!(unbound.is_empty());
        assert_eq!(s.get("num_SM").unwrap().value(), 13.0);
        assert_eq!(s.get("cfrq").unwrap().to_base(), 706e6);
        assert_eq!(s.get("gmsz").unwrap().to_base(), 5e9);
    }

    #[test]
    fn declared_but_unbound_params_reported() {
        let dev = parse(
            r#"<device name="Kepler">
                 <param name="num_SM" type="integer"/>
                 <param name="gmsz" type="msize"/>
               </device>"#,
        );
        let mut s = Scope::new();
        let unbound = s.bind_element_params(&dev);
        assert_eq!(unbound, vec!["num_SM", "gmsz"]);
        assert!(!s.contains("num_SM"));
    }

    #[test]
    fn const_binds_like_param() {
        // Listing 8: <const name="shmtotalsize" size="64" unit="KB"/>.
        let dev = parse(r#"<device name="d"><const name="shmtotalsize" size="64" unit="KB"/></device>"#);
        let mut s = Scope::new();
        s.bind_element_params(&dev);
        assert_eq!(s.get("shmtotalsize").unwrap().to_base(), 64_000.0);
    }

    #[test]
    fn resolve_numeric_literal_and_param() {
        let mut s = Scope::new();
        s.bind("cfrq", ParamValue::with_unit(706.0, "MHz"));
        assert_eq!(s.resolve_numeric("42"), Some(42.0));
        assert_eq!(s.resolve_numeric("cfrq"), Some(706.0));
        assert!(s.resolve_numeric("missing").is_none());
        assert!(s.resolve_numeric("?").is_none());
    }

    #[test]
    fn scope_env_evaluates_kepler_constraint() {
        let mut s = Scope::new();
        s.bind("L1size", ParamValue::with_unit(16.0, "KB"));
        s.bind("shmsize", ParamValue::with_unit(48.0, "KB"));
        s.bind("shmtotalsize", ParamValue::with_unit(64.0, "KB"));
        let env = ScopeEnv::new(&s);
        let v = eval_str("L1size + shmsize == shmtotalsize", &env).unwrap();
        assert_eq!(v, Value::Bool(true));
    }

    #[test]
    fn scope_env_mixed_units_normalize() {
        let mut s = Scope::new();
        s.bind("a", ParamValue::with_unit(1.0, "MiB"));
        s.bind("b", ParamValue::with_unit(1024.0, "KiB"));
        let env = ScopeEnv::new(&s);
        assert_eq!(eval_str("a == b", &env).unwrap(), Value::Bool(true));
    }

    #[test]
    fn bad_unit_on_param_falls_back_to_raw() {
        let dev = parse(r#"<device name="d"><param name="p" value="3" unit="XYZ"/></device>"#);
        let mut s = Scope::new();
        s.bind_element_params(&dev);
        assert_eq!(s.get("p").unwrap().to_base(), 3.0);
    }
}
