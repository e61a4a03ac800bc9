//! Synthesized (derived) attributes — the attribute-grammar engine of
//! paper §III-D.
//!
//! "Synthesized attributes can be calculated by applying a rule combining
//! attribute values of the node's children in the model tree, such as
//! adding up static power values over the direct hardware subcomponents."
//! The engine is configurable ("the filtering rules … and static analysis /
//! model elicitation rules can be tailored", §IV): built-in rules cover the
//! aggregates the paper names; callers register their own.

use crate::scope::fmt_num;
use std::collections::BTreeMap;
use xpdl_core::units::{Dimension, Quantity, Unit};
use xpdl_core::{ElementKind, XpdlElement};

/// How a rule folds over a subtree.
#[derive(Clone)]
pub enum Fold {
    /// Sum a metric (with the given dimension) over all elements of the
    /// subtree that define it in-line.
    SumMetric {
        /// The metric attribute name.
        metric: &'static str,
        /// Expected dimension (for unit normalization).
        dimension: Dimension,
    },
    /// Count elements matching a predicate.
    Count(fn(&XpdlElement) -> bool),
    /// Arbitrary function over the subtree root.
    Custom(fn(&XpdlElement) -> f64),
}

/// One derived-attribute rule.
#[derive(Clone)]
pub struct Rule {
    /// The derived attribute's name (e.g. `total_static_power`).
    pub name: &'static str,
    /// The fold computing it.
    pub fold: Fold,
    /// Unit symbol of the result (empty = dimensionless count).
    pub unit: &'static str,
}

/// A set of rules, applied together.
#[derive(Clone, Default)]
pub struct RuleSet {
    rules: Vec<Rule>,
}

impl RuleSet {
    /// Empty rule set.
    pub fn new() -> RuleSet {
        RuleSet::default()
    }

    /// The built-in rules matching the analyses the paper names:
    /// total static power, core count, CUDA-device count, cache capacity,
    /// and memory capacity.
    pub fn builtin() -> RuleSet {
        let mut rs = RuleSet::new();
        rs.register(Rule {
            name: "total_static_power",
            fold: Fold::SumMetric { metric: "static_power", dimension: Dimension::Power },
            unit: "W",
        });
        rs.register(Rule {
            name: "num_cores",
            fold: Fold::Count(|e| e.kind == ElementKind::Core),
            unit: "",
        });
        rs.register(Rule {
            name: "num_cuda_devices",
            fold: Fold::Count(|e| {
                e.kind == ElementKind::Device
                    && e.descendants().any(|d| {
                        d.kind == ElementKind::ProgrammingModel
                            && d.type_ref.as_deref().is_some_and(|t| t.contains("cuda"))
                    })
            }),
            unit: "",
        });
        rs.register(Rule {
            name: "total_cache_size",
            fold: Fold::SumMetric { metric: "size", dimension: Dimension::Size },
            unit: "B",
        });
        rs
    }

    /// Register a rule.
    pub fn register(&mut self, rule: Rule) -> &mut Self {
        self.rules.push(rule);
        self
    }

    /// Registered rules.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Evaluate every rule on a subtree root; returns `rule name → value`.
    pub fn evaluate(&self, root: &XpdlElement) -> BTreeMap<&'static str, Quantity> {
        let mut out = BTreeMap::new();
        for rule in &self.rules {
            let value = match &rule.fold {
                Fold::SumMetric { metric, dimension } => sum_metric(root, metric, *dimension),
                Fold::Count(pred) => root.descendants().filter(|e| pred(e)).count() as f64,
                Fold::Custom(f) => f(root),
            };
            let unit = Unit::parse(rule.unit).unwrap_or(Unit::base(Dimension::Dimensionless));
            out.insert(rule.name, Quantity::new(value, unit));
        }
        out
    }

    /// Evaluate the rules and write each result onto the element as a
    /// `derived_<name>` attribute (in the rule's unit).
    pub fn annotate(&self, root: &mut XpdlElement) {
        // `total_cache_size` must only fold over cache elements, so Sum
        // rules filter by the metric's carrier kind where applicable; see
        // `sum_metric`.
        let results = self.evaluate(root);
        for (name, q) in results {
            root.set_attr(format!("derived_{name}").as_str(), fmt_num(q.value));
            if !q.unit.symbol.is_empty() {
                root.set_attr(
                    XpdlElement::unit_attr_for(&format!("derived_{name}")).as_str(),
                    q.unit.symbol.clone(),
                );
            }
        }
    }
}

/// Sum a metric over every element of a subtree that defines it, with unit
/// normalization to the dimension's base unit. A value that does not
/// parse or is not finite is left out (elaboration reports the latter).
///
/// For the metric `size` only cache elements contribute (the natural
/// reading of "total cache size"); every other metric sums over all kinds.
fn sum_metric(root: &XpdlElement, metric: &str, dimension: Dimension) -> f64 {
    let mut total = 0.0;
    for e in root.descendants() {
        if metric == "size" && e.kind != ElementKind::Cache {
            continue;
        }
        if let Ok(Some((base, dim))) = e.metric_base(metric) {
            if dim == dimension || dim == Dimension::Dimensionless {
                total += base;
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpdl_core::XpdlDocument;

    fn parse(src: &str) -> XpdlElement {
        XpdlDocument::parse_str(src).unwrap().into_root()
    }

    fn node() -> XpdlElement {
        parse(
            r#"<node id="n0">
                 <cpu id="c" static_power="10" static_power_unit="W">
                   <core id="core0"/><core id="core1"/>
                   <cache name="L1" size="32" unit="KiB"/>
                   <cache name="L2" size="256" unit="KiB"/>
                 </cpu>
                 <memory id="m" size="16" unit="GB" static_power="4" static_power_unit="W"/>
                 <device id="gpu1">
                   <programming_model type="cuda6.0,opencl"/>
                   <core id="sm0c0"/>
                 </device>
               </node>"#,
        )
    }

    #[test]
    fn builtin_static_power_sums_watts() {
        let rs = RuleSet::builtin();
        let out = rs.evaluate(&node());
        assert_eq!(out["total_static_power"].value, 14.0);
        assert_eq!(out["total_static_power"].unit.symbol, "W");
    }

    #[test]
    fn builtin_core_count() {
        let out = RuleSet::builtin().evaluate(&node());
        assert_eq!(out["num_cores"].value, 3.0);
    }

    #[test]
    fn builtin_cuda_device_count() {
        let out = RuleSet::builtin().evaluate(&node());
        assert_eq!(out["num_cuda_devices"].value, 1.0);
        let no_cuda = parse(r#"<node id="n"><device id="d"><programming_model type="opencl"/></device></node>"#);
        assert_eq!(RuleSet::builtin().evaluate(&no_cuda)["num_cuda_devices"].value, 0.0);
    }

    #[test]
    fn cache_size_sums_only_caches() {
        // 32 KiB + 256 KiB, not the 16 GB DRAM.
        let out = RuleSet::builtin().evaluate(&node());
        assert_eq!(out["total_cache_size"].to_base(), (32.0 + 256.0) * 1024.0);
    }

    #[test]
    fn mixed_units_normalize_in_sum() {
        let e = parse(
            r#"<node id="n">
                 <cpu id="a" static_power="2" static_power_unit="W"/>
                 <cpu id="b" static_power="500" static_power_unit="mW"/>
               </node>"#,
        );
        let out = RuleSet::builtin().evaluate(&e);
        assert!((out["total_static_power"].value - 2.5).abs() < 1e-12);
    }

    #[test]
    fn custom_rule_registration() {
        let mut rs = RuleSet::new();
        rs.register(Rule {
            name: "num_memories",
            fold: Fold::Count(|e| e.kind == ElementKind::Memory),
            unit: "",
        });
        let out = rs.evaluate(&node());
        assert_eq!(out["num_memories"].value, 1.0);
        assert_eq!(rs.rules().len(), 1);
    }

    #[test]
    fn custom_fold_function() {
        let mut rs = RuleSet::new();
        rs.register(Rule {
            name: "subtree_elements",
            fold: Fold::Custom(|e| e.subtree_size() as f64),
            unit: "",
        });
        let out = rs.evaluate(&node());
        assert_eq!(out["subtree_elements"].value, node().subtree_size() as f64);
    }

    #[test]
    fn annotate_writes_derived_attributes() {
        let mut n = node();
        RuleSet::builtin().annotate(&mut n);
        assert_eq!(n.attr("derived_num_cores"), Some("3"));
        assert_eq!(n.attr("derived_total_static_power"), Some("14"));
        assert_eq!(n.attr("derived_total_static_power_unit"), Some("W"));
    }

    #[test]
    fn unknown_metric_values_skip() {
        let e = parse(r#"<node id="n"><cpu id="c" static_power="?" static_power_unit="W"/></node>"#);
        let out = RuleSet::builtin().evaluate(&e);
        assert_eq!(out["total_static_power"].value, 0.0);
    }
}
