//! Structural diffing of XPDL models.
//!
//! The distributed repository story (vendor sites publishing descriptor
//! updates) needs a way to see *what changed* between two versions of a
//! model. The diff is structural and identity-aware: children are matched
//! by (kind, identifier) rather than position, so reordering is not a
//! change, and every entry carries the element path it applies to.

use crate::model::XpdlElement;
use std::fmt;

/// One difference between two models.
#[derive(Debug, Clone, PartialEq)]
pub enum DiffEntry {
    /// An element present only in the new model.
    ElementAdded {
        /// Path of the added element.
        path: String,
    },
    /// An element present only in the old model.
    ElementRemoved {
        /// Path of the removed element.
        path: String,
    },
    /// An attribute changed value.
    AttrChanged {
        /// Element path.
        path: String,
        /// Attribute name.
        attr: String,
        /// Old value.
        old: String,
        /// New value.
        new: String,
    },
    /// An attribute present only in the new model.
    AttrAdded {
        /// Element path.
        path: String,
        /// Attribute name.
        attr: String,
        /// Its value.
        value: String,
    },
    /// An attribute present only in the old model.
    AttrRemoved {
        /// Element path.
        path: String,
        /// Attribute name.
        attr: String,
        /// Its old value.
        value: String,
    },
}

impl fmt::Display for DiffEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiffEntry::ElementAdded { path } => write!(f, "+ {path}"),
            DiffEntry::ElementRemoved { path } => write!(f, "- {path}"),
            DiffEntry::AttrChanged { path, attr, old, new } => {
                write!(f, "~ {path} @{attr}: {old:?} -> {new:?}")
            }
            DiffEntry::AttrAdded { path, attr, value } => {
                write!(f, "+ {path} @{attr} = {value:?}")
            }
            DiffEntry::AttrRemoved { path, attr, value } => {
                write!(f, "- {path} @{attr} (was {value:?})")
            }
        }
    }
}

/// Compute the structural diff from `old` to `new`.
pub fn diff_models(old: &XpdlElement, new: &XpdlElement) -> Vec<DiffEntry> {
    let mut out = Vec::new();
    diff_inner(old, new, &segment(new), &mut out);
    out
}

fn segment(e: &XpdlElement) -> String {
    match e.ident() {
        Some(id) => format!("{}[{}]", e.kind.tag(), id),
        None => e.kind.tag().to_string(),
    }
}

/// Matching key for children: kind + identifier, with an occurrence index
/// for anonymous same-kind siblings.
fn child_keys(e: &XpdlElement) -> Vec<(String, &XpdlElement)> {
    let mut anon_counts: std::collections::BTreeMap<&str, usize> = Default::default();
    e.children
        .iter()
        .map(|c| {
            let key = match c.ident() {
                Some(id) => format!("{}#{id}", c.kind.tag()),
                None => {
                    let n = anon_counts.entry(c.kind.tag()).or_insert(0);
                    let key = format!("{}~{n}", c.kind.tag());
                    *n += 1;
                    key
                }
            };
            (key, c)
        })
        .collect()
}

fn diff_inner(old: &XpdlElement, new: &XpdlElement, path: &str, out: &mut Vec<DiffEntry>) {
    // Attributes, including the lifted `type`.
    let attrs = |e: &XpdlElement| -> Vec<(String, String)> {
        let mut v: Vec<(String, String)> =
            e.attrs.iter().map(|(k, val)| (k.to_string(), val.to_string())).collect();
        if let Some(t) = &e.type_ref {
            v.push(("type".to_string(), t.to_string()));
        }
        if !e.extends.is_empty() {
            v.push(("extends".to_string(), e.extends.join(", ")));
        }
        v
    };
    let old_attrs = attrs(old);
    let new_attrs = attrs(new);
    for (k, ov) in &old_attrs {
        match new_attrs.iter().find(|(nk, _)| nk == k) {
            Some((_, nv)) if nv != ov => out.push(DiffEntry::AttrChanged {
                path: path.to_string(),
                attr: k.clone(),
                old: ov.clone(),
                new: nv.clone(),
            }),
            Some(_) => {}
            None => out.push(DiffEntry::AttrRemoved {
                path: path.to_string(),
                attr: k.clone(),
                value: ov.clone(),
            }),
        }
    }
    for (k, nv) in &new_attrs {
        if !old_attrs.iter().any(|(ok, _)| ok == k) {
            out.push(DiffEntry::AttrAdded {
                path: path.to_string(),
                attr: k.clone(),
                value: nv.clone(),
            });
        }
    }
    // Children matched by key.
    let old_kids = child_keys(old);
    let new_kids = child_keys(new);
    for (key, oc) in &old_kids {
        match new_kids.iter().find(|(nk, _)| nk == key) {
            Some((_, nc)) => {
                let child_path = format!("{path}/{}", segment(nc));
                diff_inner(oc, nc, &child_path, out);
            }
            None => out.push(DiffEntry::ElementRemoved {
                path: format!("{path}/{}", segment(oc)),
            }),
        }
    }
    for (key, nc) in &new_kids {
        if !old_kids.iter().any(|(ok, _)| ok == key) {
            out.push(DiffEntry::ElementAdded { path: format!("{path}/{}", segment(nc)) });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc::XpdlDocument;

    fn parse(src: &str) -> XpdlElement {
        XpdlDocument::parse_str(src).unwrap().into_root()
    }

    #[test]
    fn identical_models_diff_empty() {
        let a = parse(r#"<cpu name="X"><core frequency="2"/><cache name="L1" size="32"/></cpu>"#);
        assert!(diff_models(&a, &a.clone()).is_empty());
    }

    #[test]
    fn reordering_identified_children_is_not_a_change() {
        let a = parse(r#"<cpu name="X"><cache name="L1"/><cache name="L2"/></cpu>"#);
        let b = parse(r#"<cpu name="X"><cache name="L2"/><cache name="L1"/></cpu>"#);
        assert!(diff_models(&a, &b).is_empty());
    }

    #[test]
    fn attribute_change_added_removed() {
        let a = parse(r#"<cache name="L1" size="32" unit="KiB" sets="4"/>"#);
        let b = parse(r#"<cache name="L1" size="64" unit="KiB" replacement="LRU"/>"#);
        let d = diff_models(&a, &b);
        assert!(d.contains(&DiffEntry::AttrChanged {
            path: "cache[L1]".into(),
            attr: "size".into(),
            old: "32".into(),
            new: "64".into()
        }));
        assert!(d.iter().any(|e| matches!(e, DiffEntry::AttrRemoved { attr, .. } if attr == "sets")));
        assert!(d.iter().any(|e| matches!(e, DiffEntry::AttrAdded { attr, .. } if attr == "replacement")));
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn element_added_and_removed() {
        let a = parse(r#"<cpu name="X"><cache name="L1"/></cpu>"#);
        let b = parse(r#"<cpu name="X"><cache name="L2"/></cpu>"#);
        let d = diff_models(&a, &b);
        assert_eq!(
            d,
            vec![
                DiffEntry::ElementRemoved { path: "cpu[X]/cache[L1]".into() },
                DiffEntry::ElementAdded { path: "cpu[X]/cache[L2]".into() },
            ]
        );
    }

    #[test]
    fn nested_changes_carry_full_paths() {
        let a = parse(r#"<system id="s"><node><cpu id="c" frequency="2"/></node></system>"#);
        let b = parse(r#"<system id="s"><node><cpu id="c" frequency="3"/></node></system>"#);
        let d = diff_models(&a, &b);
        assert_eq!(d.len(), 1);
        assert_eq!(
            d[0].to_string(),
            "~ system[s]/node/cpu[c] @frequency: \"2\" -> \"3\""
        );
    }

    #[test]
    fn type_and_extends_participate() {
        let a = parse(r#"<device name="D" extends="GPU" type="T1"/>"#);
        let b = parse(r#"<device name="D" extends="GPU, Pci" type="T2"/>"#);
        let d = diff_models(&a, &b);
        assert!(d.iter().any(|e| matches!(e, DiffEntry::AttrChanged { attr, .. } if attr == "type")));
        assert!(d.iter().any(|e| matches!(e, DiffEntry::AttrChanged { attr, .. } if attr == "extends")));
    }

    #[test]
    fn anonymous_siblings_match_by_occurrence() {
        let a = parse(r#"<cpu name="X"><core frequency="1"/><core frequency="2"/></cpu>"#);
        let b = parse(r#"<cpu name="X"><core frequency="1"/><core frequency="9"/></cpu>"#);
        let d = diff_models(&a, &b);
        assert_eq!(d.len(), 1);
        assert!(matches!(&d[0], DiffEntry::AttrChanged { old, new, .. } if old == "2" && new == "9"));
    }

    #[test]
    fn vendor_update_scenario() {
        // A vendor bumps the K20c descriptor: new driver requirement and a
        // corrected memory size.
        let old = parse(
            r#"<device name="Nvidia_K20c" extends="Nvidia_Kepler">
                 <param name="gmsz" size="5" unit="GB"/>
               </device>"#,
        );
        let new = parse(
            r#"<device name="Nvidia_K20c" extends="Nvidia_Kepler" min_driver="331.62">
                 <param name="gmsz" size="4.8" unit="GB"/>
               </device>"#,
        );
        let d = diff_models(&old, &new);
        let rendered: Vec<String> = d.iter().map(|e| e.to_string()).collect();
        assert_eq!(rendered.len(), 2, "{rendered:?}");
        assert!(rendered.iter().any(|r| r.contains("@min_driver")));
        assert!(rendered.iter().any(|r| r.contains("@size") && r.contains("4.8")));
    }
}
