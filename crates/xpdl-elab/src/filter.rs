//! The configurable filtering stage of the §IV toolchain: "filters out
//! uninteresting values … the filtering rules for uninteresting values and
//! static analysis / model elicitation rules can be tailored".
//!
//! A filter decides, per element kind and attribute name, what survives
//! into the runtime data structure. The built-in profile keeps everything
//! relevant for performance/energy optimization and drops documentation-ish
//! noise; callers tailor it with keep/drop rules.

use xpdl_core::{ElementKind, XpdlElement};

/// A tailored filter over attributes and elements.
#[derive(Debug, Clone, Default)]
pub struct ModelFilter {
    drop_attrs: Vec<String>,
    keep_only_attrs: Option<Vec<String>>,
    drop_kinds: Vec<ElementKind>,
    /// Drop attributes whose value is still `?` (not microbenchmarked).
    pub drop_unknown_values: bool,
}

impl ModelFilter {
    /// Keep everything (the identity filter).
    pub fn keep_all() -> ModelFilter {
        ModelFilter::default()
    }

    /// The default deployment profile: drops generator/provenance noise
    /// (`cflags`, `lflags`, `file`, `command`, `path` of microbenchmarks —
    /// build-host details that mean nothing at run time) and whole
    /// `microbenchmarks` subtrees, which only matter before deployment.
    pub fn deployment() -> ModelFilter {
        ModelFilter {
            drop_attrs: ["cflags", "lflags", "file", "command"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            drop_kinds: vec![ElementKind::Microbenchmarks],
            ..ModelFilter::default()
        }
    }

    /// Tailor: drop an attribute everywhere.
    pub fn drop_attr(mut self, name: impl Into<String>) -> ModelFilter {
        self.drop_attrs.push(name.into());
        self
    }

    /// Tailor: keep only these attributes (plus identification attributes,
    /// which always survive).
    pub fn keep_only(mut self, names: &[&str]) -> ModelFilter {
        self.keep_only_attrs = Some(names.iter().map(|s| s.to_string()).collect());
        self
    }

    /// Tailor: drop a whole element kind.
    pub fn drop_kind(mut self, kind: ElementKind) -> ModelFilter {
        self.drop_kinds.push(kind);
        self
    }

    /// Tailor: also drop `?` placeholders.
    pub fn drop_unknowns(mut self) -> ModelFilter {
        self.drop_unknown_values = true;
        self
    }

    /// Apply in place; returns (elements dropped, attributes dropped).
    pub fn apply(&self, root: &mut XpdlElement) -> (usize, usize) {
        let mut dropped = (0, 0);
        self.apply_inner(root, &mut dropped);
        dropped
    }

    fn apply_inner(&self, e: &mut XpdlElement, dropped: &mut (usize, usize)) {
        let before = e.children.len();
        e.children.retain(|c| !self.drop_kinds.contains(&c.kind));
        dropped.0 += before - e.children.len();

        let attrs_before = e.attrs.len();
        e.attrs.retain(|(k, v)| {
            let k: &str = k;
            if self.drop_attrs.iter().any(|d| d == k) {
                return false;
            }
            if self.drop_unknown_values && v.trim() == "?" {
                return false;
            }
            if let Some(keep) = &self.keep_only_attrs {
                // Unit attributes follow their metric.
                let metric = k.strip_suffix("_unit").unwrap_or(k);
                return keep.iter().any(|kk| kk == metric || kk == k)
                    || k == "unit" && keep.iter().any(|kk| kk == "size");
            }
            true
        });
        dropped.1 += attrs_before - e.attrs.len();

        for c in &mut e.children {
            self.apply_inner(c, dropped);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpdl_core::XpdlDocument;

    fn model() -> XpdlElement {
        XpdlDocument::parse_str(
            r#"<system id="s">
                 <cpu id="c" frequency="2" frequency_unit="GHz" static_power="?" static_power_unit="W">
                   <cache name="L1" size="32" unit="KiB" replacement="LRU"/>
                 </cpu>
                 <microbenchmarks id="mb" path="/src" command="run.sh">
                   <microbenchmark id="m1" type="fadd" file="fadd.c" cflags="-O0"/>
                 </microbenchmarks>
               </system>"#,
        )
        .unwrap()
        .into_root()
    }

    #[test]
    fn keep_all_is_identity() {
        let mut m = model();
        let orig = m.clone();
        assert_eq!(ModelFilter::keep_all().apply(&mut m), (0, 0));
        assert_eq!(m, orig);
    }

    #[test]
    fn deployment_profile_drops_benchmark_noise() {
        let mut m = model();
        let (elems, _attrs) = ModelFilter::deployment().apply(&mut m);
        assert_eq!(elems, 1, "the microbenchmarks subtree");
        assert!(m.find_ident("mb").is_none());
        // Hardware metrics untouched.
        assert_eq!(m.find_ident("c").unwrap().attr("frequency"), Some("2"));
    }

    #[test]
    fn drop_unknowns_removes_question_marks() {
        let mut m = model();
        ModelFilter::keep_all().drop_unknowns().apply(&mut m);
        let cpu = m.find_ident("c").unwrap();
        assert_eq!(cpu.attr("static_power"), None);
        assert_eq!(cpu.attr("static_power_unit"), Some("W"), "unit is not a '?' value");
        assert_eq!(cpu.attr("frequency"), Some("2"));
    }

    #[test]
    fn keep_only_retains_metric_with_unit() {
        let mut m = model();
        ModelFilter::keep_all().keep_only(&["size"]).apply(&mut m);
        let l1 = m.find_ident("c").unwrap().children.first().unwrap().clone();
        assert_eq!(l1.attr("size"), Some("32"));
        assert_eq!(l1.attr("unit"), Some("KiB"));
        assert_eq!(l1.attr("replacement"), None);
        // Identification attributes always survive (they are not in attrs).
        assert_eq!(l1.meta_name(), Some("L1"));
    }

    #[test]
    fn drop_attr_everywhere() {
        let mut m = model();
        ModelFilter::keep_all().drop_attr("replacement").apply(&mut m);
        assert!(m.descendants().all(|e| e.attr("replacement").is_none()));
    }

    #[test]
    fn drop_kind_counts() {
        let mut m = model();
        let (elems, _) =
            ModelFilter::keep_all().drop_kind(ElementKind::Cache).apply(&mut m);
        assert_eq!(elems, 1);
        assert_eq!(m.find_kind(ElementKind::Cache).count(), 0);
    }
}
