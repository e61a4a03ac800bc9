//! `XpdlDocument`'s tree, built straight from the XML reader's events,
//! against `XpdlElement::from_xml_lossy` of the reader's DOM, and
//! linear-time bounds on large documents.
//!
//! The differential property runs `parse_named`, `parse_named_lossy` and
//! `parse_strict` on the model library, the paper's listings and a
//! generated fleet, whole, truncated, with a character replaced or
//! deleted, or with fragments spliced in (text and CDATA beside child
//! elements, comments, references, both `name` and `id` on one element).
//! Each must give the tree the DOM path gives, spans and attribute spans
//! included (the tree's `==` ignores them), with the same diagnostics, or
//! the same error. `xml_reader.rs` in `xpdl-xml` holds the reader's DOM
//! to the parser it replaced.

use proptest::prelude::*;
use std::fmt::Write as _;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use xpdl_core::{CoreError, CoreResult, Diagnostic, XpdlDocument, XpdlElement};
use xpdl_fleetgen::FleetShape;
use xpdl_xml::{parse_with, ParseOptions};

/// The library, the listings and a generated fleet.
fn corpus() -> &'static [String] {
    static CORPUS: OnceLock<Vec<String>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let shape = FleetShape::parse("nodes=6,depth=3,chain=3,width=3,unknown=0.3").unwrap();
        let fleet = xpdl_fleetgen::generate(42, &shape);
        xpdl_models::library::LIBRARY
            .iter()
            .chain(xpdl_models::listings::ALL_LISTINGS)
            .map(|(_, src)| src.to_string())
            .chain(fleet.docs().iter().map(|(_, d)| d.clone()))
            .collect()
    })
}

/// Whether two trees are equal, spans and attribute spans included, and
/// `b`'s attributes share their names' `Arc`s with its attribute spans.
fn same(a: &XpdlElement, b: &XpdlElement) -> bool {
    let shared =
        b.attrs.iter().all(|(k, _)| b.attr_spans.iter().any(|(name, _)| Arc::ptr_eq(name, k)));
    a == b
        && shared
        && a.span == b.span
        && a.attr_spans == b.attr_spans
        && a.children.iter().zip(&b.children).all(|(a, b)| same(a, b))
}

/// The three constructors against the DOM path on `src`: `from_xml` of
/// `parse_with`'s root for the two that fail fast (what they were), and
/// `from_xml_lossy` of it for `parse_named_lossy`.
fn agree(src: &str) -> Result<(), String> {
    let (strict, lenient) = (ParseOptions::strict(), ParseOptions::lenient());
    let fail_fast = |opts| -> CoreResult<(XpdlElement, Vec<Diagnostic>)> {
        Ok((XpdlElement::from_xml(parse_with(src, opts)?.root())?, Vec::new()))
    };
    let lossy = || -> CoreResult<(XpdlElement, Vec<Diagnostic>)> {
        let mut diags = Vec::new();
        let root = XpdlElement::from_xml_lossy(parse_with(src, lenient)?.root(), &mut diags);
        Ok((root, diags))
    };
    let checks = [
        (
            "parse_named",
            XpdlDocument::parse_named(src, "o").map(|d| (d.into_root(), Vec::new())),
            fail_fast(lenient),
        ),
        (
            "parse_strict",
            XpdlDocument::parse_strict(src).map(|d| (d.into_root(), Vec::new())),
            fail_fast(strict),
        ),
        (
            "parse_named_lossy",
            XpdlDocument::parse_named_lossy(src, "o").map(|(d, diags)| (d.into_root(), diags)),
            lossy(),
        ),
    ];
    for (what, built, dom) in checks {
        let ok = match (&built, &dom) {
            (Ok((a, da)), Ok((b, db))) => same(b, a) && da == db,
            (Err(a), Err(b)) => a == b,
            _ => false,
        };
        if !ok {
            return Err(format!("{what} on {src:?}:\n built {built:?}\n DOM   {dom:?}"));
        }
    }
    Ok(())
}

/// One of `items`, uniformly.
fn pick<T: Clone + 'static>(items: &'static [T]) -> impl Strategy<Value = T> {
    (0..items.len()).prop_map(move |i| items[i].clone())
}

/// What a replaced character becomes.
const FLIPS: &[char] =
    &['<', '>', '/', '"', '=', '&', ';', '!', '?', '-', ']', ' ', '\n', 'x', 'é'];

/// Fragments spliced in: text and CDATA beside elements, both `name` and
/// `id`, lifted attributes, references, comments and PIs.
const FRAGMENTS: &[&str] = &[
    " name=\"n\" id=\"i\"",
    " id=\"i\" name=\"n\"",
    "<cpu name=\"p\" id=\"q\"/>",
    "<core name=\"p\" id=\"q\"> t <cache id=\"r\" name=\"s\"/></core>",
    " extends=\"A, ..., B\"",
    " type=\"T&amp;U\"",
    " v=\"a&lt;b\"",
    " quantity=2",
    " ...unit=\"MHz\"",
    "text",
    " spaced  text ",
    "&amp;&#65;",
    "&bogus;",
    "<![CDATA[ raw <x> ]]>",
    "<![CDATA[]]>",
    "<!-- c -->",
    "<?pi d?>",
    "<x/>",
    "</x>",
    "\u{A0}",
];

/// `doc` cut after its `at`-th character (modulo its length).
fn truncate(doc: &str, at: usize) -> String {
    doc.chars().take(at % (doc.chars().count() + 1)).collect()
}

/// `doc` with its `at`-th character (modulo its length) replaced by
/// `with`, or deleted when `with` is `None`.
fn flip(doc: &str, at: usize, with: Option<char>) -> String {
    let at = at % doc.chars().count().max(1);
    doc.chars().enumerate().filter_map(|(i, c)| if i == at { with } else { Some(c) }).collect()
}

/// `doc` with `s` inserted before its `at`-th character (modulo its
/// length plus one).
fn insert(doc: &str, at: usize, s: &str) -> String {
    let chars: Vec<char> = doc.chars().collect();
    let at = at % (chars.len() + 1);
    chars[..at].iter().copied().chain(s.chars()).chain(chars[at..].iter().copied()).collect()
}

fn arb_doc() -> impl Strategy<Value = &'static str> {
    (0..corpus().len()).prop_map(|i| corpus()[i].as_str())
}

/// Corpus documents, whole, damaged or with fragments spliced in, and
/// a fragment before damage further on.
fn arb_input() -> impl Strategy<Value = String> {
    prop_oneof![
        arb_doc().prop_map(str::to_string),
        (arb_doc(), any::<usize>()).prop_map(|(d, at)| truncate(d, at)),
        (arb_doc(), any::<usize>(), pick(FLIPS)).prop_map(|(d, at, c)| flip(d, at, Some(c))),
        (arb_doc(), any::<usize>()).prop_map(|(d, at)| flip(d, at, None)),
        (arb_doc(), any::<usize>(), pick(FRAGMENTS)).prop_map(|(d, at, s)| insert(d, at, s)),
        (arb_doc(), proptest::collection::vec((any::<usize>(), pick(FRAGMENTS)), 2..5))
            .prop_map(|(d, f)| f.into_iter().fold(d.to_string(), |d, (at, s)| insert(&d, at, s))),
        (arb_doc(), any::<usize>(), pick(FRAGMENTS), any::<usize>()).prop_map(|(d, at, s, cut)| {
            let d = insert(d, at, s);
            let n = d.chars().count();
            truncate(&d, at % (n + 1) + cut % (n + 1 - at % (n + 1)))
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn the_built_tree_is_the_dom_paths_tree(input in arb_input()) {
        if let Err(e) = agree(&input) {
            prop_assert!(false, "{}", e);
        }
    }
}

#[test]
fn an_xml_error_after_both_name_and_id_wins() {
    let src = "<system id=\"s\"><cpu name=\"a\" id=\"b\"/><oops</system>";
    agree(src).unwrap();
    let err = XpdlDocument::parse_named(src, "o").unwrap_err();
    assert!(matches!(err, CoreError::Xml(_)), "{err:?}");
    let ok = "<system id=\"s\"><cpu name=\"a\" id=\"b\"/><cpu name=\"c\" id=\"d\"/></system>";
    agree(ok).unwrap();
    let (_, diags) = XpdlDocument::parse_named_lossy(ok, "o").unwrap();
    let at: Vec<_> = diags.iter().map(|d| (d.code.as_str(), d.span.unwrap().start.col)).collect();
    assert_eq!(at, [("P001", 30), ("P001", 52)]);
}

#[test]
fn text_is_the_trimmed_text_and_cdata_of_the_element_itself() {
    let src = "<constraint> a &lt; <![CDATA[ b < c ]]><x>no</x> d </constraint>";
    agree(src).unwrap();
    assert_eq!(XpdlDocument::parse_named(src, "o").unwrap().root().text, "a < b < c d");
}

#[test]
fn every_seventh_truncation_of_the_corpus_agrees() {
    for doc in corpus() {
        let cut: Vec<usize> = doc.char_indices().map(|(i, _)| i).chain([doc.len()]).collect();
        for &end in cut.iter().step_by(7) {
            agree(&doc[..end]).unwrap_or_else(|e| panic!("{e}"));
        }
    }
}

/// Far above what a debug build needs for 1 MiB in linear time, far below
/// what the quadratic duplicate-attribute check took.
const BOUND: Duration = Duration::from_secs(2);

fn timed<T>(what: &str, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    let took = start.elapsed();
    assert!(took < BOUND, "{what} took {took:?} (bound {BOUND:?})");
    out
}

#[test]
fn parse_named_is_linear_in_the_attributes_of_one_element() {
    let mut doc = String::from("<system id=\"s\"");
    for i in 0..100_000 {
        let _ = write!(doc, " a{i:06}=\"x\"");
    }
    doc.push_str("/>");
    assert!(doc.len() > 1 << 20);
    let parsed = timed("parse_named", || XpdlDocument::parse_named(&doc, "big").unwrap());
    assert_eq!(parsed.root().attrs.len(), 100_000);
    assert_eq!(parsed.root().attr_spans.len(), 100_001);
}

#[test]
fn parse_named_is_linear_in_sibling_elements() {
    let mut doc = String::from("<system id=\"s\">\n");
    for i in 0..20_000 {
        let _ = writeln!(doc, "  <cache id=\"c{i:06}\" size=\"32\" unit=\"KiB\" sets=\"8\"/>");
    }
    doc.push_str("</system>\n");
    assert!(doc.len() > 1 << 20);
    let parsed = timed("parse_named", || XpdlDocument::parse_named(&doc, "wide").unwrap());
    assert_eq!(parsed.root().children.len(), 20_000);
    let last = parsed.root().children.last().unwrap();
    assert_eq!((last.span.start.line, last.span.start.col), (20_001, 3));
}
