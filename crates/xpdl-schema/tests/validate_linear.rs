//! Validation time is linear in the attributes of one element: each
//! attribute's span is found through an index built once per element, not
//! by a scan of the element's spans per attribute.

use std::fmt::Write as _;
use std::time::{Duration, Instant};
use xpdl_core::XpdlDocument;
use xpdl_schema::{validate_document, Schema};

/// Far above what a debug build needs for 1 MiB in linear time, far below
/// what a scan per attribute took.
const BOUND: Duration = Duration::from_secs(2);

fn timed<T>(what: &str, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    let took = start.elapsed();
    assert!(took < BOUND, "{what} took {took:?} (bound {BOUND:?})");
    out
}

#[test]
fn validation_is_linear_in_the_attributes_of_one_element() {
    let mut doc = String::from("<system id=\"s\"");
    for i in 0..100_000 {
        let _ = write!(doc, " a{i:06}=\"x\"");
    }
    doc.push_str("/>");
    assert!(doc.len() > 1 << 20);
    let parsed = XpdlDocument::parse_named(&doc, "big").unwrap();
    let schema = Schema::core();
    let diags = timed("validate_document", || validate_document(&parsed, &schema));
    // One "not in the core metamodel" info per attribute, each at the
    // attribute's own span.
    assert_eq!(diags.iter().filter(|d| d.code == "V120").count(), 100_000);
    let last = diags.iter().rfind(|d| d.code == "V120").unwrap();
    assert!(last.message.contains("'a099999'"), "{}", last.message);
    assert_eq!(last.span, Some(parsed.root().span_for_attr("a099999")));
    assert_ne!(last.span, Some(parsed.root().span));
}
