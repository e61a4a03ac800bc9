//! The pull reader against the recursive-descent parser it replaced, and
//! linear-time bounds on large documents.
//!
//! `reference` is that parser word for word. The differential property
//! feeds both the same documents: the model library, the paper's listings
//! and a generated fleet, whole, truncated, with a character replaced,
//! deleted or inserted, or with a fragment spliced in (references good and
//! bad, CDATA, comments, PIs, a DOCTYPE, a BOM, the lenient dialect), and
//! short junk. Each runs in strict or lenient mode, with or without
//! whitespace trimming and comments, under a depth limit from none to the
//! default. Both must build the same DOM (the derived `==` compares every
//! span) or fail with the same `XmlError`: kind, `expected` text and
//! line:col.

mod reference;

use proptest::prelude::*;
use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::{Duration, Instant};
use xpdl_fleetgen::FleetShape;
use xpdl_xml::{parse_with, Document, ParseOptions, XmlResult};

/// The library, the listings and two generated fleets.
fn corpus() -> &'static [String] {
    static CORPUS: OnceLock<Vec<String>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let mut docs: Vec<String> = xpdl_models::library::LIBRARY
            .iter()
            .chain(xpdl_models::listings::ALL_LISTINGS)
            .map(|(_, src)| src.to_string())
            .collect();
        for (seed, shape) in [(42, "nodes=6,depth=3,chain=3,width=3,unknown=0.3"), (7, "nodes=4")] {
            let shape = FleetShape::parse(shape).expect("the shape parses");
            docs.extend(
                xpdl_fleetgen::generate(seed, &shape).docs().iter().map(|(_, d)| d.clone()),
            );
        }
        docs
    })
}

/// Both parsers' verdicts on `input`, required equal.
fn agree(input: &str, opts: ParseOptions) -> Result<(), String> {
    let want: XmlResult<Document> = reference::parser::parse_with(input, opts);
    let got = parse_with(input, opts);
    if got == want {
        return Ok(());
    }
    Err(format!("{input:?} under {opts:?}:\n reference {want:?}\n reader    {got:?}"))
}

/// One of `items`, uniformly.
fn pick<T: Clone + 'static>(items: &'static [T]) -> impl Strategy<Value = T> {
    (0..items.len()).prop_map(move |i| items[i].clone())
}

fn arb_options() -> impl Strategy<Value = ParseOptions> {
    (any::<bool>(), any::<bool>(), any::<bool>(), pick(&[0usize, 1, 2, 3, 5, 8, 256, 256]))
        .prop_map(|(lenient, trim, comments, max_depth)| ParseOptions {
            lenient,
            trim_whitespace_nodes: trim,
            keep_comments: comments,
            max_depth,
        })
}

/// What a replaced character becomes: markup and lexical characters.
const FLIPS: &[char] = &[
    '<', '>', '/', '"', '\'', '=', '&', ';', '#', '!', '?', '-', '[', ']', '.', ' ', '\n', '\t',
    'x', '1', 'é', '日',
];

/// Fragments spliced into a document.
const FRAGMENTS: &[&str] = &[
    "&amp;",
    "&lt;&gt;&quot;&apos;",
    "&#65;",
    "&#x41;",
    "&#X2014;",
    "&#x110000;",
    "&#1;",
    "&#;",
    "&#xZZ;",
    "&bogus;",
    "&amp",
    "&",
    "&a b;",
    "<![CDATA[ x < y && z ]]>",
    "<![CDATA[",
    "]]>",
    "<!-- c -->",
    "<!-- a -- b -->",
    "<!--",
    "-->",
    "<?pi some data ?>",
    "<?pi",
    "<? x?>",
    "<?1x?>",
    "?>",
    "<!DOCTYPE system>",
    "<!DOCTYPE",
    "\u{FEFF}",
    " ... ",
    "...",
    " ...unit=\"MHz\"",
    " quantity=2",
    " x=y/",
    " a=",
    " =\"v\"",
    "=\"v\"",
    "=v",
    " value=\"w\"",
    " a=\"1\" a=\"2\"",
    " b='q'",
    "x=\"1\"",
    "</x>",
    "<x>",
    "<x/>",
    "</>",
    "< x/>",
    "<x></x >",
    "\r\n",
    "\u{A0}",
    "é",
    "日本",
];

/// Prefixes put before a whole document.
const PROLOGS: &[&str] = &[
    "\u{FEFF}",
    "<?xml version=\"1.0\"?>\n",
    "<!DOCTYPE system>\n",
    "<!-- lead -->\n",
    "\u{FEFF}<?xml version=\"1.0\"?><!-- c --><!DOCTYPE s>",
    "  \n",
    "junk",
    "<!DOCTYPE",
];

/// Suffixes put after a whole document.
const EPILOGS: &[&str] = &["\n<!-- tail -->\n", "<?pi x?>", " trailing", "<a/>", "\n", "</x>"];

/// `doc`'s characters.
fn chars(doc: &str) -> Vec<char> {
    doc.chars().collect()
}

/// `doc` cut after its `at`-th character (modulo its length).
fn truncate(doc: &str, at: usize) -> String {
    let c = chars(doc);
    c[..at % (c.len() + 1)].iter().collect()
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
    let c = chars(doc);
    let at = at % (c.len() + 1);
    let mut out: String = c[..at].iter().collect();
    out.push_str(s);
    out.extend(&c[at..]);
    out
}

fn arb_doc() -> impl Strategy<Value = &'static str> {
    (0..corpus().len()).prop_map(|i| corpus()[i].as_str())
}

/// Corpus documents, whole and damaged, and junk.
fn arb_input() -> impl Strategy<Value = String> {
    prop_oneof![
        arb_doc().prop_map(str::to_string),
        (pick(PROLOGS), arb_doc(), pick(EPILOGS)).prop_map(|(p, d, e)| format!("{p}{d}{e}")),
        (arb_doc(), any::<usize>()).prop_map(|(d, at)| truncate(d, at)),
        (arb_doc(), any::<usize>(), pick(FLIPS)).prop_map(|(d, at, c)| flip(d, at, Some(c))),
        (arb_doc(), any::<usize>()).prop_map(|(d, at)| flip(d, at, None)),
        (arb_doc(), any::<usize>(), pick(FRAGMENTS)).prop_map(|(d, at, s)| insert(d, at, s)),
        (arb_doc(), any::<usize>(), pick(FRAGMENTS), any::<usize>(), pick(FRAGMENTS))
            .prop_map(|(d, a, s, b, t)| insert(&insert(d, a, s), b, t)),
        "[<>/=\"' a-c&;#x0-9!?\\[\\]\\-.é\n]{0,40}",
        proptest::collection::vec(pick(FRAGMENTS), 0..8)
            .prop_map(|f| format!("<r>{}</r>", f.concat())),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    #[test]
    fn the_reader_builds_the_reference_parsers_dom(input in arb_input(), opts in arb_options()) {
        if let Err(e) = agree(&input, opts) {
            prop_assert!(false, "{}", e);
        }
    }
}

#[test]
fn every_seventh_truncation_of_the_corpus_agrees() {
    for doc in corpus() {
        let cut: Vec<usize> = doc.char_indices().map(|(i, _)| i).chain([doc.len()]).collect();
        for &end in cut.iter().step_by(7) {
            for opts in [ParseOptions::strict(), ParseOptions::lenient()] {
                agree(&doc[..end], opts).unwrap_or_else(|e| panic!("{e}"));
            }
        }
    }
}

#[test]
fn nesting_at_and_past_the_depth_limit_agrees() {
    for depth in [1, 2, 3, 9, 10, 11] {
        let doc = format!("{}<leaf/>{}", "<a>".repeat(depth), "</a>".repeat(depth));
        for max_depth in [0, 1, depth, depth + 1, 10] {
            let opts = ParseOptions { max_depth, ..ParseOptions::lenient() };
            agree(&doc, opts).unwrap_or_else(|e| panic!("{e}"));
            agree(&doc[..doc.len() - 3], opts).unwrap_or_else(|e| panic!("{e}"));
        }
    }
}

/// Far above what a debug build needs for 1 MiB in linear time, far below
/// what the quadratic duplicate check took.
const BOUND: Duration = Duration::from_secs(2);

fn timed<T>(what: &str, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    let took = start.elapsed();
    assert!(took < BOUND, "{what} took {took:?} (bound {BOUND:?})");
    out
}

/// One element with `n` attributes, over 1 MiB for 100,000.
pub fn many_attributes(n: usize) -> String {
    let mut doc = String::from("<system id=\"s\"");
    for i in 0..n {
        let _ = write!(doc, " a{i:06}=\"x\"");
    }
    doc.push_str("/>");
    doc
}

/// `n` sibling elements under one root, over 1 MiB for 20,000.
pub fn many_siblings(n: usize) -> String {
    let mut doc = String::from("<system id=\"s\">\n");
    for i in 0..n {
        let _ = writeln!(doc, "  <cache id=\"c{i:06}\" size=\"32\" unit=\"KiB\" sets=\"8\"/>");
    }
    doc.push_str("</system>\n");
    doc
}

#[test]
fn reading_is_linear_in_the_attributes_of_one_element() {
    let doc = many_attributes(100_000);
    assert!(doc.len() > 1 << 20);
    let dom = timed("parse_with", || parse_with(&doc, ParseOptions::lenient()).unwrap());
    assert_eq!(dom.root().attrs.len(), 100_001);
    let dup = format!("{} a099999=\"y\"/>", &doc[..doc.len() - 2]);
    let err =
        timed("parse_with (duplicate)", || parse_with(&dup, ParseOptions::lenient()).unwrap_err());
    assert_eq!(err.to_string(), format!("1:{}: duplicate attribute \"a099999\"", doc.len()));
}

#[test]
fn reading_is_linear_in_sibling_elements() {
    let doc = many_siblings(20_000);
    assert!(doc.len() > 1 << 20);
    let dom = timed("parse_with", || parse_with(&doc, ParseOptions::lenient()).unwrap());
    assert_eq!(dom.root().child_elements().count(), 20_000);
    let last = dom.root().child_elements().last().unwrap();
    assert_eq!((last.span.start.line, last.span.start.col), (20_001, 3));
}
