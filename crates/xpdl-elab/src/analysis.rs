//! Static model analyses.
//!
//! The flagship analysis is the paper's bandwidth downgrade (§IV): "…
//! performs static analysis of the model (for instance, downgrading
//! bandwidth of interconnections where applicable as the effective
//! bandwidth should be determined by the slowest hardware components
//! involved in a communication link)".

use xpdl_core::units::{Dimension, Quantity};
use xpdl_core::{CoreError, ElementKind, XpdlElement};
use xpdl_schema::Diagnostic;

/// Result of analyzing one interconnect instance.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkAnalysis {
    /// The interconnect's id.
    pub id: String,
    /// Head endpoint id.
    pub head: Option<String>,
    /// Tail endpoint id.
    pub tail: Option<String>,
    /// Effective bandwidth in B/s (minimum over all contributing caps),
    /// `None` when nothing declares a bandwidth.
    pub effective_bandwidth: Option<f64>,
    /// Which element contributed the limiting cap.
    pub limited_by: Option<String>,
}

/// Run the bandwidth-downgrade analysis over an elaborated model.
///
/// For every `interconnect` instance the effective bandwidth is the minimum
/// of: its own `max_bandwidth`, each of its channels' `max_bandwidth`, and
/// the `max_bandwidth` caps of the head/tail endpoint elements (if those
/// declare one). The result is annotated on the interconnect as
/// `effective_bandwidth` (+`_unit`) and returned for reporting.
pub fn bandwidth_downgrade(
    root: &mut XpdlElement,
    diags: &mut Vec<Diagnostic>,
) -> Vec<LinkAnalysis> {
    let tree: &XpdlElement = root;
    let mut plans: Vec<LinkAnalysis> = Vec::new();
    for ic in tree.find_kind(ElementKind::Interconnect) {
        let Some(id) = ic.instance_id() else { continue };
        let head = ic.attr("head").map(str::to_string);
        let tail = ic.attr("tail").map(str::to_string);
        let mut caps: Vec<(f64, String)> = Vec::new();
        if let Some(own) = bandwidth_of(ic) {
            caps.push((own, format!("interconnect[{id}]")));
        }
        for ch in ic.children_of_kind(ElementKind::Channel) {
            if let Some(b) = bandwidth_of(ch) {
                let cname = ch.ident().unwrap_or("channel");
                caps.push((b, format!("channel[{cname}]")));
            }
        }
        for ep in [&head, &tail].into_iter().flatten() {
            match tree.find_ident(ep) {
                Some(e) => {
                    if let Some(b) = bandwidth_of(e) {
                        caps.push((b, format!("{}[{ep}]", e.kind.tag())));
                    }
                }
                None => diags.push(
                    Diagnostic::error(
                        format!("interconnect[{id}]"),
                        format!("endpoint '{ep}' does not exist in the model"),
                    )
                    .with_code("E213")
                    .with_span(ic.span),
                ),
            }
        }
        // total_cmp, not partial_cmp: `max_bandwidth="NaN"` parses as a
        // number, and untrusted descriptors must not panic the analysis.
        let min = caps.iter().min_by(|a, b| a.0.total_cmp(&b.0)).cloned();
        plans.push(LinkAnalysis {
            id: id.to_string(),
            head,
            tail,
            effective_bandwidth: min.as_ref().map(|m| m.0),
            limited_by: min.map(|m| m.1),
        });
    }
    // Annotate each analysed interconnect itself: the same pre-order walk
    // meets them in the same order, so plan k belongs to the k-th one.
    fn annotate<'p>(e: &mut XpdlElement, plans: &mut impl Iterator<Item = &'p LinkAnalysis>) {
        for c in &mut e.children {
            if c.kind == ElementKind::Interconnect && c.instance_id().is_some() {
                let plan = plans.next().expect("one plan per analysed interconnect");
                if let Some(bw) = plan.effective_bandwidth {
                    c.set_attr("effective_bandwidth", format!("{bw}"));
                    c.set_attr("effective_bandwidth_unit", "B/s");
                }
            }
            annotate(c, plans);
        }
    }
    annotate(root, &mut plans.iter());
    plans
}

/// Read an element's `max_bandwidth` in B/s.
fn bandwidth_of(e: &XpdlElement) -> Option<f64> {
    match e.quantity("max_bandwidth") {
        Ok(Some(q)) if q.dimension() == Dimension::Bandwidth => Some(q.to_base()),
        Ok(Some(q)) if q.dimension() == Dimension::Dimensionless => Some(q.to_base()),
        _ => None,
    }
}

/// Summed static power of the default power domain (everything not inside
/// an explicit `power_domain`), attributed to the node per §III-A: "its
/// static energy share will be derived and associated with the node".
///
/// Pushes an `E215` error onto `diags` for each value a metric sum reads
/// that is not finite: `static_power` on any element and `size` on a
/// cache (the built-in `derived_*` totals). The error names the element's
/// path and the attribute; every sum leaves the value out.
pub fn default_domain_static_power(root: &XpdlElement, diags: &mut Vec<Diagnostic>) -> Quantity {
    fn walk<'e>(
        e: &'e XpdlElement,
        inside_domain: bool,
        stack: &mut Vec<&'e XpdlElement>,
        total: &mut f64,
        diags: &mut Vec<Diagnostic>,
    ) {
        stack.push(e);
        let inside = inside_domain || e.kind == ElementKind::PowerDomain;
        let metrics: &[&str] = if e.kind == ElementKind::Cache {
            &["static_power", "size"]
        } else {
            &["static_power"]
        };
        for &metric in metrics {
            match e.metric_base(metric) {
                Ok(Some((watts, _))) if metric == "static_power" && !inside => *total += watts,
                Err(err @ CoreError::NotFinite { .. }) => diags.push(
                    Diagnostic::error(path_of(stack), err.to_string())
                        .with_code("E215")
                        .with_span(e.span_for_attr(metric))
                        .with_note("left out of the default-domain power and the derived totals"),
                ),
                _ => {}
            }
        }
        for c in &e.children {
            walk(c, inside, stack, total, diags);
        }
        stack.pop();
    }
    let mut total = 0.0;
    walk(root, false, &mut Vec::new(), &mut total, diags);
    // Provably in-domain: "W" is a literal from the static unit table, so
    // parse cannot fail for any descriptor content.
    Quantity::parse(total, "W").expect("literal unit \"W\" is always parseable")
}

/// The display path of the last element of `stack`, whose ancestors are
/// the rest: `system[s]/socket/cpu[h]`, as elaboration names elements.
fn path_of(stack: &[&XpdlElement]) -> String {
    let mut path = String::new();
    for e in stack {
        if !path.is_empty() {
            path.push('/');
        }
        path.push_str(e.kind.tag());
        if let Some(id) = e.ident() {
            path.push('[');
            path.push_str(id);
            path.push(']');
        }
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpdl_core::XpdlDocument;

    fn parse(src: &str) -> XpdlElement {
        XpdlDocument::parse_str(src).unwrap().into_root()
    }

    #[test]
    fn downgrade_takes_slowest_component() {
        let mut root = parse(
            r#"<system id="s">
                 <cpu id="h" max_bandwidth="10" max_bandwidth_unit="GB/s"/>
                 <device id="g" max_bandwidth="4" max_bandwidth_unit="GB/s"/>
                 <interconnects>
                   <interconnect id="c1" head="h" tail="g" max_bandwidth="6" max_bandwidth_unit="GB/s"/>
                 </interconnects>
               </system>"#,
        );
        let mut diags = Vec::new();
        let links = bandwidth_downgrade(&mut root, &mut diags);
        assert!(diags.is_empty());
        assert_eq!(links.len(), 1);
        assert_eq!(links[0].effective_bandwidth, Some(4e9));
        assert_eq!(links[0].limited_by.as_deref(), Some("device[g]"));
        let ic = root.find_ident("c1").unwrap();
        assert_eq!(ic.attr("effective_bandwidth"), Some("4000000000"));
    }

    #[test]
    fn channels_contribute_caps() {
        let mut root = parse(
            r#"<system id="s">
                 <cpu id="h"/><device id="g"/>
                 <interconnects>
                   <interconnect id="c1" head="h" tail="g">
                     <channel name="up_link" max_bandwidth="6" max_bandwidth_unit="GiB/s"/>
                     <channel name="down_link" max_bandwidth="3" max_bandwidth_unit="GiB/s"/>
                   </interconnect>
                 </interconnects>
               </system>"#,
        );
        let mut diags = Vec::new();
        let links = bandwidth_downgrade(&mut root, &mut diags);
        assert_eq!(links[0].effective_bandwidth, Some(3.0 * 1024.0 * 1024.0 * 1024.0));
        assert_eq!(links[0].limited_by.as_deref(), Some("channel[down_link]"));
    }

    #[test]
    fn missing_endpoint_is_error() {
        let mut root = parse(
            r#"<system id="s">
                 <cpu id="h"/>
                 <interconnects><interconnect id="c1" head="h" tail="ghost"/></interconnects>
               </system>"#,
        );
        let mut diags = Vec::new();
        bandwidth_downgrade(&mut root, &mut diags);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("ghost"));
    }

    #[test]
    fn no_bandwidth_declared_yields_none() {
        let mut root = parse(
            r#"<system id="s">
                 <cpu id="h"/><device id="g"/>
                 <interconnects><interconnect id="c1" head="h" tail="g"/></interconnects>
               </system>"#,
        );
        let mut diags = Vec::new();
        let links = bandwidth_downgrade(&mut root, &mut diags);
        assert_eq!(links[0].effective_bandwidth, None);
        assert!(root.find_ident("c1").unwrap().attr("effective_bandwidth").is_none());
    }

    #[test]
    fn annotation_lands_on_the_analysed_interconnect() {
        // A memory declared first shares the interconnect's id: the
        // annotation must still go to the interconnect, not the memory.
        let mut root = parse(
            r#"<system id="s">
                 <memory id="l" size="1" unit="GB"/>
                 <cpu id="a"/><device id="b"/>
                 <interconnects>
                   <interconnect id="l" head="a" tail="b" max_bandwidth="6" max_bandwidth_unit="GB/s"/>
                 </interconnects>
               </system>"#,
        );
        let mut diags = Vec::new();
        let links = bandwidth_downgrade(&mut root, &mut diags);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(links[0].effective_bandwidth, Some(6e9));
        let mem = root.children_of_kind(ElementKind::Memory).next().unwrap();
        assert!(mem.attr("effective_bandwidth").is_none());
        let ic = root.find_kind(ElementKind::Interconnect).next().unwrap();
        assert_eq!(ic.attr("effective_bandwidth"), Some("6000000000"));
        assert_eq!(ic.attr("effective_bandwidth_unit"), Some("B/s"));
    }

    #[test]
    fn default_domain_power_excludes_explicit_domains() {
        let root = parse(
            r#"<system id="s">
                 <cpu id="c" static_power="10" static_power_unit="W"/>
                 <power_domains name="pds">
                   <power_domain name="pd1">
                     <memory type="CMX" static_power="3" static_power_unit="W"/>
                   </power_domain>
                 </power_domains>
                 <memory id="m" static_power="4" static_power_unit="W"/>
               </system>"#,
        );
        let mut diags = Vec::new();
        let q = default_domain_static_power(&root, &mut diags);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(q.value, 14.0);
    }

    #[test]
    fn non_finite_metrics_are_reported_and_left_out_of_every_sum() {
        let root = parse(
            r#"<system id="s">
                 <cpu id="c" static_power="NaN" static_power_unit="W">
                   <cache id="L1" size="inf" unit="KiB"/>
                   <cache id="L2" size="1" unit="KiB"/>
                 </cpu>
                 <memory id="m" static_power="4" static_power_unit="W"/>
               </system>"#,
        );
        let mut diags = Vec::new();
        assert_eq!(default_domain_static_power(&root, &mut diags).value, 4.0);
        let found: Vec<_> =
            diags.iter().map(|d| (d.code.as_str(), d.path.as_str(), d.message.as_str())).collect();
        assert_eq!(
            found,
            [
                ("E215", "system[s]/cpu[c]", r#"attribute "static_power" is not a finite number"#),
                (
                    "E215",
                    "system[s]/cpu[c]/cache[L1]",
                    r#"attribute "size" is not a finite number"#
                ),
            ]
        );
        let totals = crate::synth::RuleSet::builtin().evaluate(&root);
        assert_eq!(totals["total_static_power"].value, 4.0);
        assert_eq!(totals["total_cache_size"].value, 1024.0);
    }
}
