//! The elaboration pipeline.

use crate::analysis::{bandwidth_downgrade, default_domain_static_power, LinkAnalysis};
use crate::error::ElabResult;
use crate::expand::Expander;
use crate::inherit::MetaTable;
use crate::synth::RuleSet;
use std::collections::BTreeSet;
use xpdl_core::units::Quantity;
use xpdl_core::{ElementKind, XpdlElement};
use xpdl_obs::trace;
use xpdl_repo::repository::references_of;
use xpdl_repo::ResolvedSet;
use xpdl_schema::Diagnostic;

/// Pipeline options; the expansion walk ([`Expander`]) reads them too.
#[derive(Debug, Clone)]
pub struct ElabOptions {
    /// Error on `type=` references to unknown meta-models (default true).
    pub strict_types: bool,
    /// Upper bound on produced elements (guards runaway quantities).
    pub max_elements: usize,
    /// Upper bound on expansion nesting depth (guards type-reference
    /// cycles, which would otherwise recurse until stack overflow long
    /// before exhausting the element budget).
    pub max_depth: usize,
    /// Fail-soft mode (default false): instead of aborting on the first
    /// elaboration error, mark the failing element *poisoned* (attribute
    /// `poisoned="true"`), quarantine its subtree (no recursion into it),
    /// record a diagnostic, and keep elaborating siblings and ancestors.
    /// Resource-exhaustion errors ([`ElabError::TooLarge`](crate::ElabError::TooLarge))
    /// stay fatal in both modes.
    pub keep_going: bool,
}

impl Default for ElabOptions {
    fn default() -> Self {
        ElabOptions { strict_types: true, max_elements: 1_000_000, max_depth: 256, keep_going: false }
    }
}

/// The composed, fully-expanded model — the paper's "intermediate
/// representation of the composed model" (§IV).
#[derive(Debug, Clone)]
pub struct Elaborated {
    /// The expanded instance tree.
    pub root: XpdlElement,
    /// Diagnostics gathered during elaboration (constraint violations,
    /// unbound parameters, endpoint errors, …).
    pub diagnostics: Vec<Diagnostic>,
    /// Per-interconnect bandwidth analysis results.
    pub links: Vec<LinkAnalysis>,
    /// Total static power of the default power domain.
    pub default_domain_power: Quantity,
    /// Paths of elements poisoned during keep-going elaboration (marked
    /// `poisoned="true"` in the tree, subtree unexpanded). Empty in
    /// fail-fast mode or on a clean run.
    pub poisoned: Vec<String>,
}

impl Elaborated {
    /// Whether elaboration produced no error diagnostics.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.iter().all(|d| !d.is_error())
    }

    /// Count *physical* elements of a kind in the expanded tree.
    ///
    /// Subtrees under `power_model` / `power_domains` are skipped: the
    /// cores and memories listed there are component references
    /// (Listing 12's `<core type="Leon"/>`), not additional hardware.
    pub fn count_kind(&self, kind: ElementKind) -> usize {
        fn walk(e: &XpdlElement, kind: &ElementKind, n: &mut usize) {
            if matches!(e.kind, ElementKind::PowerModel | ElementKind::PowerDomains) {
                return;
            }
            if e.kind == *kind {
                *n += 1;
            }
            for c in &e.children {
                walk(c, kind, n);
            }
        }
        let mut n = 0;
        walk(&self.root, &kind, &mut n);
        n
    }

    /// Find an element by identifier.
    pub fn find(&self, ident: &str) -> Option<&XpdlElement> {
        self.root.find_ident(ident)
    }
}

/// Elaborate a resolved set with default options.
pub fn elaborate(set: &ResolvedSet) -> ElabResult<Elaborated> {
    elaborate_with(set, &ElabOptions::default())
}

/// Elaborate with options.
pub fn elaborate_with(set: &ResolvedSet, opts: &ElabOptions) -> ElabResult<Elaborated> {
    let mut sp = trace::span("elab.elaborate");
    sp.record_attr("docs", set.documents().count());
    let (mut table, referenced) = {
        let _isp = trace::span("elab.inherit");
        let table = MetaTable::new(set);
        // Types referenced anywhere in the closure: inline definitions of
        // these names are consumed rather than kept as physical components.
        let referenced: BTreeSet<&str> = set
            .documents()
            .flat_map(|(_, d)| references_of(d.root()))
            .collect();
        (table, referenced)
    };
    let mut expander = Expander::new(&mut table, opts);
    let mut root = {
        let _xsp = trace::span("elab.expand");
        expander.expand_root(set.root().root(), &referenced)?
    };
    let mut diagnostics = std::mem::take(&mut expander.diags);
    let poisoned = std::mem::take(&mut expander.poisoned);
    for key in &set.missing {
        diagnostics.push(
            Diagnostic::warning(
                root_path(&root),
                format!("unresolved reference '{key}' (allow_missing)"),
            )
            .with_code("E214"),
        );
    }
    let links = {
        let _asp = trace::span("elab.analyze");
        bandwidth_downgrade(&mut root, &mut diagnostics)
    };
    {
        let _ssp = trace::span("elab.synthesize");
        RuleSet::builtin().annotate(&mut root);
    }
    let default_domain_power = default_domain_static_power(&root, &mut diagnostics);
    sp.record_attr("diagnostics", diagnostics.len());
    Ok(Elaborated { root, diagnostics, links, default_domain_power, poisoned })
}

fn root_path(root: &XpdlElement) -> String {
    match root.ident() {
        Some(id) => format!("{}[{}]", root.kind.tag(), id),
        None => root.kind.tag().to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpdl_repo::{MemoryStore, Repository, ResolveOptions};

    fn resolved(entries: &[(&str, &str)]) -> ResolvedSet {
        let mut m = MemoryStore::new();
        for (k, v) in entries {
            m.insert(*k, *v);
        }
        Repository::new().with_store(m).resolve_recursive(entries[0].0).unwrap()
    }

    /// The paper's GPU server (Listings 7–10) with small SM counts so the
    /// expansion stays readable.
    fn gpu_server() -> ResolvedSet {
        resolved(&[
            (
                "liu_gpu_server",
                r#"<system id="liu_gpu_server">
                     <socket><cpu id="gpu_host" type="Intel_Xeon_E5_2630L"/></socket>
                     <device id="gpu1" type="Nvidia_K20c">
                       <param name="L1size" size="32" unit="KB"/>
                       <param name="shmsize" size="32" unit="KB"/>
                     </device>
                     <interconnects>
                       <interconnect id="connection1" type="pcie3" head="gpu_host" tail="gpu1"/>
                     </interconnects>
                   </system>"#,
            ),
            (
                "Intel_Xeon_E5_2630L",
                r#"<cpu name="Intel_Xeon_E5_2630L" static_power="15" static_power_unit="W" max_bandwidth="12" max_bandwidth_unit="GB/s">
                     <group prefix="core_group" quantity="2">
                       <group prefix="core" quantity="2">
                         <core frequency="2" frequency_unit="GHz"/>
                         <cache name="L1" size="32" unit="KiB"/>
                       </group>
                       <cache name="L2" size="256" unit="KiB"/>
                     </group>
                     <cache name="L3" size="15" unit="MiB"/>
                   </cpu>"#,
            ),
            (
                "Nvidia_K20c",
                r#"<device name="Nvidia_K20c" extends="Nvidia_Kepler">
                     <param name="num_SM" value="2"/>
                     <param name="coresperSM" value="4"/>
                     <param name="cfrq" frequency="706" unit="MHz"/>
                     <param name="gmsz" size="5" unit="GB"/>
                   </device>"#,
            ),
            (
                "Nvidia_Kepler",
                r#"<device name="Nvidia_Kepler" extends="Nvidia_GPU">
                     <const name="shmtotalsize" size="64" unit="KB"/>
                     <param name="L1size" configurable="true" range="16, 32, 48" unit="KB"/>
                     <param name="shmsize" configurable="true" range="16, 32, 48" unit="KB"/>
                     <param name="num_SM"/><param name="coresperSM"/>
                     <param name="cfrq"/><param name="gmsz"/>
                     <constraints><constraint expr="L1size + shmsize == shmtotalsize"/></constraints>
                     <group prefix="SM" quantity="num_SM">
                       <group quantity="coresperSM"><core frequency="cfrq"/></group>
                       <cache name="L1" size="L1size"/>
                       <memory name="shm" size="shmsize"/>
                     </group>
                     <memory name="global" size="gmsz" static_power="8" static_power_unit="W"/>
                     <programming_model type="cuda6.0,opencl"/>
                   </device>"#,
            ),
            ("Nvidia_GPU", r#"<device name="Nvidia_GPU" role="worker"/>"#),
            (
                "pcie3",
                r#"<interconnect name="pcie3">
                     <channel name="up_link" max_bandwidth="6" max_bandwidth_unit="GiB/s" energy_per_byte="8" energy_per_byte_unit="pJ"/>
                     <channel name="down_link" max_bandwidth="6" max_bandwidth_unit="GiB/s" energy_per_byte="8" energy_per_byte_unit="pJ"/>
                   </interconnect>"#,
            ),
        ])
    }

    #[test]
    fn gpu_server_elaborates_clean() {
        let model = elaborate(&gpu_server()).unwrap();
        assert!(model.is_clean(), "{:?}", model.diagnostics);
        // 4 host cores + 2 SMs × 4 GPU cores.
        assert_eq!(model.count_kind(ElementKind::Core), 12);
        // The host CPU is fully instantiated.
        let host = model.find("gpu_host").unwrap();
        assert_eq!(host.kind, ElementKind::Cpu);
        assert!(host.subtree_size() > 5);
        // GPU role arrives from the inheritance root.
        assert_eq!(model.find("gpu1").unwrap().attr("role"), Some("worker"));
    }

    #[test]
    fn kepler_constraint_checked_against_configuration() {
        // 32+32 == 64 holds → clean. Change shmsize to 48 → violation.
        let model = elaborate(&gpu_server()).unwrap();
        assert!(model.is_clean());

        let set = resolved(&[
            (
                "bad",
                r#"<system id="bad">
                     <device id="g" type="K">
                       <param name="a" size="48" unit="KB"/>
                     </device>
                   </system>"#,
            ),
            (
                "K",
                r#"<device name="K">
                     <const name="t" size="64" unit="KB"/>
                     <param name="a" unit="KB"/>
                     <param name="b" size="32" unit="KB"/>
                     <constraints><constraint expr="a + b == t"/></constraints>
                   </device>"#,
            ),
        ]);
        let model = elaborate(&set).unwrap();
        assert!(!model.is_clean());
        assert!(model
            .diagnostics
            .iter()
            .any(|d| d.is_error() && d.message.contains("violated")));
    }

    #[test]
    fn bandwidth_downgrade_annotates_link() {
        let model = elaborate(&gpu_server()).unwrap();
        assert_eq!(model.links.len(), 1);
        let link = &model.links[0];
        assert_eq!(link.id, "connection1");
        // min(12 GB/s host cap, 6 GiB/s channels) = 6 GiB/s.
        assert_eq!(link.effective_bandwidth, Some(6.0 * 1024f64.powi(3)));
        let ic = model.find("connection1").unwrap();
        assert!(ic.attr("effective_bandwidth").is_some());
    }

    #[test]
    fn synthesized_attributes_on_root() {
        let model = elaborate(&gpu_server()).unwrap();
        assert_eq!(model.root.attr("derived_num_cores"), Some("12"));
        assert_eq!(model.root.attr("derived_num_cuda_devices"), Some("1"));
        // 15 W host + 8 W GPU global memory.
        assert_eq!(model.root.attr("derived_total_static_power"), Some("23"));
        assert_eq!(model.default_domain_power.value, 23.0);
    }

    #[test]
    fn keep_going_returns_partial_model_with_all_errors() {
        let mut m = MemoryStore::new();
        m.insert(
            "s",
            r#"<system id="s">
                 <device id="a" type="GhostA"/>
                 <device id="b" type="GhostB"/>
                 <device id="c"><core/></device>
               </system>"#,
        );
        let set = Repository::new()
            .with_store(m)
            .resolve_with("s", &ResolveOptions { allow_missing: true, ..Default::default() })
            .unwrap();
        // Fail-fast: first unknown type aborts.
        assert!(elaborate(&set).is_err());
        // Keep-going: both failures reported, healthy sibling elaborated.
        let model = elaborate_with(
            &set,
            &ElabOptions { keep_going: true, ..Default::default() },
        )
        .unwrap();
        assert!(!model.is_clean());
        let errs: Vec<_> =
            model.diagnostics.iter().filter(|d| d.is_error()).collect();
        assert_eq!(errs.len(), 2, "{errs:?}");
        assert_eq!(model.poisoned.len(), 2);
        assert!(model.find("c").is_some());
        assert_eq!(model.find("a").unwrap().attr("poisoned"), Some("true"));
    }

    #[test]
    fn keep_going_diagnostic_paths_are_exact() {
        // Wrapper members, single-element members nested in them, an
        // ungrouped group, a poisoned group and a poisoned type.
        let mut m = MemoryStore::new();
        m.insert(
            "s",
            r#"<system id="s">
                 <group prefix="n" quantity="2">
                   <node>
                     <const name="t" value="1"/>
                     <constraints><constraint expr="t == 2"/></constraints>
                     <group prefix="c" quantity="2"><core><param name="unset"/></core></group>
                   </node>
                   <memory/>
                 </group>
                 <group id="g1"><device id="d"><param name="u2"/></device></group>
                 <group prefix="bad" quantity="nope"><core/></group>
                 <device id="x" type="Ghost"/>
               </system>"#,
        );
        let set = Repository::new()
            .with_store(m)
            .resolve_with("s", &ResolveOptions { allow_missing: true, ..Default::default() })
            .unwrap();
        let model =
            elaborate_with(&set, &ElabOptions { keep_going: true, ..Default::default() }).unwrap();
        let got: Vec<(&str, &str)> =
            model.diagnostics.iter().map(|d| (d.code.as_str(), d.path.as_str())).collect();
        assert_eq!(
            got,
            [
                ("E204", "system[s]/group[n0]/node[n0.node]"),
                ("E208", "system[s]/group[n0]/node[n0.node]/core[n0.c0]"),
                ("E208", "system[s]/group[n0]/node[n0.node]/core[n0.c1]"),
                ("E204", "system[s]/group[n1]/node[n1.node]"),
                ("E208", "system[s]/group[n1]/node[n1.node]/core[n1.c0]"),
                ("E208", "system[s]/group[n1]/node[n1.node]/core[n1.c1]"),
                ("E208", "system[s]/group[g1]/device[d]"),
                ("E203", "system[s]/group"),
                ("E201", "system[s]/device[x]"),
                ("E214", "system[s]"),
            ]
        );
        assert_eq!(model.poisoned, ["system[s]/group", "system[s]/device[x]"]);
    }

    #[test]
    fn nan_bandwidth_does_not_panic_analysis() {
        // f64::parse accepts "NaN"; the bandwidth minimum must not panic.
        let set = resolved(&[(
            "s",
            r#"<system id="s">
                 <device id="a" max_bandwidth="NaN" max_bandwidth_unit="GB/s"/>
                 <device id="b"/>
                 <interconnects>
                   <interconnect id="l" head="a" tail="b" max_bandwidth="NaN" max_bandwidth_unit="GB/s"/>
                 </interconnects>
               </system>"#,
        )]);
        let model = elaborate(&set).unwrap();
        assert_eq!(model.links.len(), 1);
    }

    #[test]
    fn missing_types_surface_as_warnings_when_allowed() {
        let mut m = MemoryStore::new();
        m.insert("sys", r#"<system id="sys"><device id="d" type="Ghost"/></system>"#);
        let repo = Repository::new().with_store(m);
        let set = repo
            .resolve_with("sys", &ResolveOptions { allow_missing: true, ..Default::default() })
            .unwrap();
        let model = elaborate_with(
            &set,
            &ElabOptions { strict_types: false, ..Default::default() },
        )
        .unwrap();
        assert!(model.is_clean());
        assert!(model
            .diagnostics
            .iter()
            .any(|d| d.message.contains("Ghost")));
    }
}
