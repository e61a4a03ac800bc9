//! The stamping expander against the expander it replaced, which expanded
//! every group member from scratch.
//!
//! `reference` is that expander word for word, only its imports changed.
//! Both run on the same resolved sets: generated fleets over seeds and
//! shapes (placeholders pinned or not, poisoned families in keep-going
//! mode, element budgets that run out anywhere), every model-library
//! root, the paper's listings, and crafted groups that stress stamping
//! (quantities 0 and 1, nested groups with `head`/`tail` references, a
//! diagnostic in the first member, budgets and depth limits reached
//! inside a member, a type whose explicit id looks generated, ids that
//! another member would match differently). Both must build the same
//! tree, spans and attribute spans included (`XpdlElement`'s `==` skips
//! them), with the same diagnostics and poisoned paths, or fail with the
//! same error.

#[path = "reference/expand.rs"]
mod reference;

use proptest::prelude::*;
use std::collections::BTreeSet;
use xpdl_core::XpdlElement;
use xpdl_elab::expand::Expander;
use xpdl_elab::inherit::MetaTable;
use xpdl_elab::{ElabError, ElabOptions};
use xpdl_fleetgen::{generate, FleetShape};
use xpdl_repo::repository::references_of;
use xpdl_repo::{MemoryStore, Repository, ResolveOptions, ResolvedSet};
use xpdl_schema::Diagnostic;

/// A tree with its diagnostics and poisoned paths, or the error.
type Outcome = Result<(XpdlElement, Vec<Diagnostic>, Vec<String>), ElabError>;

fn resolve(store: MemoryStore, key: &str) -> ResolvedSet {
    let opts = ResolveOptions { allow_missing: true, ..Default::default() };
    Repository::new().with_store(store).resolve_with(key, &opts).expect("the input resolves")
}

fn store(docs: &[(&str, &str)]) -> MemoryStore {
    let mut m = MemoryStore::new();
    for (k, v) in docs {
        m.insert(*k, *v);
    }
    m
}

/// Expand `set`'s root with the stamping expander and with the reference.
fn both(set: &ResolvedSet, opts: &ElabOptions) -> (Outcome, Outcome) {
    let refs: BTreeSet<&str> = set.documents().flat_map(|(_, d)| references_of(d.root())).collect();
    let mut table = MetaTable::new(set);
    let mut ex = Expander::new(&mut table, opts);
    let new = ex.expand_root(set.root().root(), &refs).map(|t| (t, ex.diags, ex.poisoned));
    let mut table = MetaTable::new(set);
    let mut ex = reference::Expander::new(&mut table, opts);
    let old = ex.expand_root(set.root().root(), &refs).map(|t| (t, ex.diags, ex.poisoned));
    (new, old)
}

/// The first node where two trees differ, `==`'s fields and the spans it
/// skips alike; `at` names the node.
fn same_tree(a: &XpdlElement, b: &XpdlElement, at: &str) -> Result<(), String> {
    let own = |e: &XpdlElement| {
        let ids = (e.kind.clone(), e.model_kind.clone(), e.type_ref.clone());
        (ids, e.extends.clone(), e.attrs.clone())
    };
    if own(a) != own(b) || a.text != b.text || a.children.len() != b.children.len() {
        let (n, rn) = (a.children.len(), b.children.len());
        return Err(format!("{at}: {:?}, {n} children vs reference {:?}, {rn}", own(a), own(b)));
    }
    if a.span != b.span || a.attr_spans[..] != b.attr_spans[..] {
        let (spans, reference) = ((a.span, &a.attr_spans), (b.span, &b.attr_spans));
        return Err(format!("{at}: spans {spans:?} vs reference {reference:?}"));
    }
    for (i, (ca, cb)) in a.children.iter().zip(&b.children).enumerate() {
        same_tree(ca, cb, &format!("{at}/{i}:{}", ca.kind.tag()))?;
    }
    Ok(())
}

/// Why the two outcomes differ, if they do.
fn differ(new: &Outcome, old: &Outcome) -> Option<String> {
    match (new, old) {
        (Ok((t, d, p)), Ok((rt, rd, rp))) => {
            if let Err(e) = same_tree(t, rt, t.kind.tag()) {
                return Some(e);
            }
            if d != rd {
                return Some(format!("diagnostics differ:\n{d:#?}\nvs reference\n{rd:#?}"));
            }
            (p != rp).then(|| format!("poisoned differ: {p:?} vs reference {rp:?}"))
        }
        (Err(e), Err(re)) => (e != re).then(|| format!("errors differ: {e:?} vs reference {re:?}")),
        (Ok(_), Err(re)) => Some(format!("expanded, the reference failed: {re:?}")),
        (Err(e), Ok(_)) => Some(format!("failed: {e:?}, the reference expanded")),
    }
}

fn check(what: &str, set: &ResolvedSet, opts: &ElabOptions) -> Result<(), String> {
    let (new, old) = both(set, opts);
    match differ(&new, &old) {
        Some(why) => Err(format!("{what} ({opts:?}): {why}")),
        None => Ok(()),
    }
}

fn modes() -> [ElabOptions; 2] {
    [ElabOptions::default(), ElabOptions { keep_going: true, ..Default::default() }]
}

fn fleet_set(seed: u64, spec: &str, victims: usize) -> ResolvedSet {
    let fleet = generate(seed, &FleetShape::parse(spec).expect("the spec parses"));
    let fleet = if victims > 0 { fleet.poisoned(victims) } else { fleet };
    resolve(fleet.store(), fleet.system_key())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fleets_expand_as_the_reference_does(
        seed in 0u64..1_000_000,
        nodes in 1usize..12,
        depth in 1usize..6,
        chain in 0usize..6,
        width in 1usize..4,
        unknown in prop_oneof![Just("unknown=0.5"), Just("unknown=0.3"), Just("pinned=2")],
        victims in 0usize..3,
        budget in 1usize..4_000,
    ) {
        let spec = format!("nodes={nodes},depth={depth},chain={chain},width={width},{unknown}");
        let set = fleet_set(seed, &spec, victims);
        for opts in modes() {
            prop_assert_eq!(check(&spec, &set, &opts), Ok(()));
            let tight = ElabOptions { max_elements: budget, ..opts };
            prop_assert_eq!(check(&spec, &set, &tight), Ok(()));
        }
    }
}

#[test]
fn ci_and_bench_fleets_expand_as_the_reference_does() {
    for seed in [42, 2027] {
        let set = fleet_set(seed, "nodes=32,depth=8,chain=12,width=10,unknown=0.3", 0);
        for opts in modes() {
            check(&format!("fleet seed {seed}"), &set, &opts).unwrap();
        }
    }
}

#[test]
fn library_roots_expand_as_the_reference_does() {
    for (key, _) in xpdl_models::library::LIBRARY {
        let set = resolve(store(xpdl_models::library::LIBRARY), key);
        for opts in modes() {
            check(key, &set, &opts).unwrap();
        }
    }
}

#[test]
fn listings_expand_as_the_reference_does() {
    for (name, src) in xpdl_models::listings::ALL_LISTINGS {
        let mut m = store(xpdl_models::library::LIBRARY);
        m.insert("listing", *src);
        let set = resolve(m, "listing");
        for opts in modes() {
            check(name, &set, &opts).unwrap();
        }
    }
}

/// Crafted inputs: a name and the documents, the root's first.
const CRAFTED: &[(&str, &[(&str, &str)])] = &[
    (
        "quantities 0 and 1",
        &[(
            "s",
            r#"<system id="s"><group prefix="z" quantity="0"><core/></group>
                 <group prefix="o" quantity="1"><core id="x"/><cache/><link head="x"/></group>
                 <group prefix="p" quantity="1"><core/></group></system>"#,
        )],
    ),
    (
        // Listing 11's shape, with a nested quantity group whose ids the
        // outer member qualifies first (`n0.c1.n0.x`).
        "nested groups with head/tail",
        &[(
            "s",
            r#"<system id="s"><cluster>
                 <group prefix="n" quantity="3"><node>
                   <group id="cpu1"><socket><cpu id="PE0"/></socket></group>
                   <group prefix="c" quantity="2">
                     <core id="x"/><cache id="y"/><cache/>
                     <interconnect id="l" head="x" tail="y"/>
                     <interconnect id="up" head="x" tail="gpu1"/>
                     <group prefix="u" quantity="2"><core id="z"/><link head="z" tail="x"/></group>
                   </group>
                   <device id="gpu1"/>
                   <interconnects><interconnect id="conn1" head="cpu1" tail="gpu1"/></interconnects>
                 </node></group>
                 <interconnects><interconnect id="conn3" head="n1" tail="n2"/></interconnects>
               </cluster></system>"#,
        )],
    ),
    (
        "three levels of wrappers",
        &[(
            "s",
            r#"<system id="s"><group prefix="a" quantity="2"><group prefix="b" quantity="3">
                 <group prefix="c" quantity="2"><core id="k"/><cache head="k"/></group>
                 <memory id="m" tail="k"/></group><cache/></group></system>"#,
        )],
    ),
    (
        "unknown type in the first member",
        &[(
            "s",
            r#"<system id="s"><group prefix="n" quantity="3"><node>
                 <device id="d" type="Ghost"/><core/></node></group></system>"#,
        )],
    ),
    (
        "constraint violated and parameter unbound in every member",
        &[
            (
                "s",
                r#"<system id="s"><group prefix="n" quantity="3"><device type="K"/><core/></group>
                     <group prefix="w" quantity="2"><device type="U"/></group></system>"#,
            ),
            (
                "K",
                r#"<device name="K"><const name="a" value="1"/>
                     <constraints><constraint expr="a == 2"/></constraints></device>"#,
            ),
            ("U", r#"<device name="U"><param name="free"/></device>"#),
        ],
    ),
    (
        "type with an id that looks generated",
        &[
            (
                "s",
                r#"<system id="s"><group prefix="n" quantity="3"><node type="T"/></group></system>"#,
            ),
            (
                "T",
                r#"<node name="T"><core id="n0.x"/><core id="n1.x"/>
                     <interconnect head="n0.x" tail="n1.x"/></node>"#,
            ),
        ],
    ),
    (
        // Member 1's qualified `x` is `n1.x`, which the type's core
        // matches; member 0's is `n0.x`, which it does not.
        "type child matched by another member's id",
        &[
            (
                "s",
                r#"<system id="s"><group prefix="n" quantity="3">
                     <device type="T"><core id="x"/></device><cache/></group></system>"#,
            ),
            ("T", r#"<device name="T"><core id="n1.x" frequency="2"/><memory/></device>"#),
        ],
    ),
    (
        // `head="n1.x"` is a local id of the inner group in member 1 only.
        "reference matched by another member's id",
        &[(
            "s",
            r#"<system id="s"><group prefix="n" quantity="3"><node>
                 <group prefix="c" quantity="2"><core id="x"/><link id="l" head="n1.x"/></group>
               </node></group></system>"#,
        )],
    ),
];

#[test]
fn crafted_groups_expand_as_the_reference_does() {
    for (name, docs) in CRAFTED {
        let set = resolve(store(docs), docs[0].0);
        for opts in modes() {
            check(name, &set, &opts).unwrap();
            let strict = ElabOptions { strict_types: false, ..opts.clone() };
            check(name, &set, &strict).unwrap();
        }
    }
}

/// Every element budget from 1 to past the tree's size, and every depth
/// limit from 1 to past its depth, so each runs out inside every member.
#[test]
fn budgets_and_depths_run_out_anywhere() {
    fn depth(e: &XpdlElement) -> usize {
        1 + e.children.iter().map(depth).max().unwrap_or(0)
    }
    let inputs = [CRAFTED[1].1, CRAFTED[2].1, CRAFTED[4].1];
    for docs in inputs {
        let set = resolve(store(docs), docs[0].0);
        let (Ok((tree, _, _)), _) = both(&set, &ElabOptions::default()) else {
            panic!("{} expands", docs[0].0)
        };
        for opts in modes() {
            for max_elements in 1..=tree.subtree_size() + 1 {
                check("budget", &set, &ElabOptions { max_elements, ..opts.clone() }).unwrap();
            }
            for max_depth in 1..=depth(&tree) + 1 {
                check("depth", &set, &ElabOptions { max_depth, ..opts.clone() }).unwrap();
            }
        }
    }
}
