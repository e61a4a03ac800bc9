//! The typed element tree built straight from the XML reader's events,
//! with no DOM in between: the load path of [`crate::XpdlDocument`].

use crate::diag::Diagnostic;
use crate::model::XpdlElement;
use std::sync::Arc;
use xpdl_xml::{Event, ParseOptions, Reader, XmlResult};

/// Read `src` into an element tree: the tree that
/// [`XpdlElement::from_xml_lossy`] makes of `xpdl_xml::parse_with(src,
/// opts)`'s root, with the same diagnostics appended to `diags`. An XML
/// error anywhere in `src` is the result, whatever was appended before it.
pub(crate) fn build(
    src: &str,
    opts: ParseOptions,
    diags: &mut Vec<Diagnostic>,
) -> XmlResult<XpdlElement> {
    let mut r = Reader::new(src, opts);
    // Open elements, and finished ones whose parent is still open, in
    // document order: an element's children follow it, so closing it
    // moves them into it and leaves it in place for its own parent.
    let mut stack: Vec<XpdlElement> = Vec::with_capacity(16);
    // Where each open element is in `stack`, innermost last.
    let mut open: Vec<usize> = Vec::with_capacity(16);
    let mut names = Names::new();
    let mut key = |s: &str| names.get(s);
    while let Some(ev) = r.next_event()? {
        match ev {
            Event::Start { name, empty, span } => {
                let mut e = XpdlElement::from_tag(name, r.attrs(), &mut key, diags);
                e.span = span;
                if !empty {
                    open.push(stack.len());
                }
                stack.push(e);
            }
            Event::End(span) => {
                let at = open.pop().expect("the reader closes only open elements");
                let children = stack.drain(at + 1..).collect();
                let e = &mut stack[at];
                e.children = children;
                e.span = span;
                // The trimmed concatenation, as `Element::text` makes it.
                let text = e.text.trim();
                if text.len() != e.text.len() {
                    e.text = text.to_string();
                }
            }
            Event::Text(t, _) => text_of(&mut stack, &open).push_str(&t),
            Event::CData(t, _) => text_of(&mut stack, &open).push_str(t),
            Event::Comment(..) | Event::Pi { .. } => {}
        }
    }
    Ok(stack.pop().expect("the reader ends only after the root element"))
}

/// The text of the innermost open element (text is only read inside one).
fn text_of<'s>(stack: &'s mut [XpdlElement], open: &[usize]) -> &'s mut String {
    &mut stack[open[open.len() - 1]].text
}

/// The attribute names one document has made, so a repeated name shares
/// one allocation. Direct-mapped on a name's length and end bytes: a
/// lookup compares one candidate, and a miss allocates as if there were no
/// table, so names made to collide only lose their sharing.
struct Names([Option<Arc<str>>; 64]);

impl Names {
    fn new() -> Names {
        Names([const { None }; 64])
    }

    fn get(&mut self, s: &str) -> Arc<str> {
        let b = s.as_bytes();
        let ends = match b {
            [first, .., last] => usize::from(*first) * 7 + usize::from(*last),
            [only] => usize::from(*only) * 8,
            [] => 0,
        };
        match &mut self.0[(b.len() * 31 + ends) % 64] {
            Some(name) if **name == *s => Arc::clone(name),
            slot => Arc::clone(slot.insert(Arc::from(s))),
        }
    }
}
