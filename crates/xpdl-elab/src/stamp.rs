//! Group-member ids, and members stamped from the first one.
//!
//! A group member's expansion depends on its index only through the ids
//! it generates (its own id, its parts' ids, its qualified explicit ids
//! and their `head`/`tail` references, and every id its nested groups
//! generate) and through the paths its diagnostics name. Once the first
//! member has expanded without a diagnostic, member `i` is therefore a
//! copy of it whose generated ids are re-qualified from `<prefix>0` to
//! `<prefix><i>`; [`MemberIds::stamp`] makes that copy.
//!
//! Which ids to re-qualify is decided by address, not by text: a
//! [`MemberIds`] keeps a ledger of every id `Arc` it makes while a first
//! member is open, so an explicit id that merely starts with `n0.` stays
//! as written. The ledger holds the `Arc`s, so no address in it can be
//! freed and reused by another string while it is consulted.
//!
//! Two id comparisons during expansion could still come out differently
//! in another member: a type's merge matches the instance's children by
//! id, and a group matches `head`/`tail` values against the ids of its
//! content. A merge into children that hold generated ids, or a lookup of
//! a written id that looks generated (`n1.x`), *taints* every open first
//! member ([`MemberIds::check_merge`], `MemberIds::check_written`). A
//! tainted group expands its members one by one, as does a group whose
//! first member added a diagnostic.

use std::collections::{BTreeSet, HashMap};
use std::fmt::Write as _;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;
use xpdl_core::{ModelKind, XpdlElement};

/// A shared string's address: the ledger's key.
fn addr(s: &Arc<str>) -> usize {
    Arc::as_ptr(s) as *const u8 as usize
}

/// Hashes a ledger key, an address. Addresses are not input, so a
/// multiplicative (Fibonacci) hash serves; folding its high half into the
/// low one spreads a heap address's zero low bits.
#[derive(Default)]
struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let n = bytes.iter().fold(self.0, |h, &b| h.rotate_left(8) ^ u64::from(b));
        self.write_usize(n as usize);
    }

    fn write_usize(&mut self, n: usize) {
        let h = (n as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }
}

type ByAddr<V> = HashMap<usize, V, BuildHasherDefault<AddrHasher>>;

/// An id made while a first member was open.
struct Made {
    /// The id itself, held so that its address names no other string.
    id: Arc<str>,
    /// When it was made: it belongs to every first member opened before.
    seq: usize,
    /// When the id qualifies another made id (`n0.c1.` + `n0.x`): where
    /// that tail starts, and the tail itself.
    tail: Option<(usize, Arc<str>)>,
}

/// A group's first member while it is expanded and its group stamped.
#[derive(Clone, Copy)]
pub(crate) struct FirstMember {
    /// The ledger's `seq` when it opened.
    seq: usize,
    /// The length of its stem, `<qualifier><prefix>0`.
    stem: usize,
    /// The taint count when it opened.
    taints: usize,
}

/// The member qualifier and the ledger of the ids made from it.
#[derive(Default)]
pub(crate) struct MemberIds {
    /// Id qualifier of the group member being expanded (`n0.c1.`): a
    /// member appends `<prefix><i>.` and truncates it on leaving, so only
    /// the ids made from it allocate.
    qualifier: String,
    /// Every id made while a first member is open, by address.
    made: ByAddr<Made>,
    next_seq: usize,
    /// First members open now.
    open: usize,
    /// Length of the outermost open first member's `<qualifier><prefix>`:
    /// every id generated inside it starts with that base and a number.
    base: usize,
    /// Bumped by an id comparison that another member could decide
    /// differently; a first member that saw a bump is not stamped.
    taints: usize,
    /// Where a re-qualified id is put together.
    buf: String,
}

impl MemberIds {
    /// Forget the qualifier (a new root).
    pub(crate) fn reset(&mut self) {
        self.qualifier.clear();
    }

    /// Append member `i`'s qualifier segment (`<prefix><i>.`); returns the
    /// length to [`leave`](Self::leave) back to.
    pub(crate) fn enter(&mut self, prefix: &str, i: usize) -> usize {
        let mark = self.qualifier.len();
        write!(self.qualifier, "{prefix}{i}.").expect("write to String");
        mark
    }

    /// Leave the member entered at `mark`.
    pub(crate) fn leave(&mut self, mark: usize) {
        self.qualifier.truncate(mark);
    }

    /// The id of the member being expanded: its qualifier without the
    /// final dot, in one allocation.
    pub(crate) fn member_id(&mut self) -> Arc<str> {
        let id: Arc<str> = self.qualifier[..self.qualifier.len() - 1].into();
        self.record(&id, None);
        id
    }

    /// The member-local id of an anonymous part: the qualifier, the part's
    /// kind tag and its occurrence among same-kind parts, if numbered.
    pub(crate) fn part_id(&mut self, tag: &str, occurrence: Option<usize>) -> Arc<str> {
        let mark = self.qualifier.len();
        self.qualifier.push_str(tag);
        if let Some(k) = occurrence {
            write!(self.qualifier, "{k}").expect("write to String");
        }
        let id: Arc<str> = self.qualifier.as_str().into();
        self.qualifier.truncate(mark);
        self.record(&id, None);
        id
    }

    /// Qualify the `local` instance ids of a copied member subtree with the
    /// member qualifier, and rewrite intra-member `head`/`tail` references
    /// to match. Without this, Listing 11's node template (`<device
    /// id="gpu1">`, `<interconnect head="cpu1" tail="gpu1">`) would
    /// produce four colliding `gpu1`s across `n0..n3`.
    pub(crate) fn qualify(&mut self, subtree: &mut [XpdlElement], local: &BTreeSet<Arc<str>>) {
        if local.is_empty() {
            return;
        }
        for e in subtree.iter_mut() {
            self.rewrite(e, local);
        }
    }

    fn rewrite(&mut self, e: &mut XpdlElement, local: &BTreeSet<Arc<str>>) {
        if let ModelKind::Instance(id) = &e.model_kind {
            self.check_written(id);
            if local.contains(id) {
                e.model_kind = ModelKind::Instance(self.qualified(id));
            }
        }
        for (k, v) in &mut e.attrs {
            if matches!(&**k, "head" | "tail") {
                self.check_written(v);
                if local.contains(v) {
                    *v = self.qualified(v);
                }
            }
        }
        for c in &mut e.children {
            self.rewrite(c, local);
        }
    }

    /// Taint the open first members if `id`, which a group's local-id
    /// lookups compare, was written rather than made and looks generated
    /// (the outermost open base, digits and a dot): a generated id could
    /// equal it in another member, and a lookup come out differently.
    fn check_written(&mut self, id: &Arc<str>) {
        if self.open > 0
            && !self.made.contains_key(&addr(id))
            && looks_generated(id, &self.qualifier[..self.base])
        {
            self.taints += 1;
        }
    }

    /// The qualifier followed by `id`, in one allocation.
    fn qualified(&mut self, id: &Arc<str>) -> Arc<str> {
        let mark = self.qualifier.len();
        self.qualifier.push_str(id);
        let out: Arc<str> = self.qualifier.as_str().into();
        self.qualifier.truncate(mark);
        let tail = self.made.contains_key(&addr(id)).then(|| (mark, Arc::clone(id)));
        self.record(&out, tail);
        out
    }

    /// Enter `id` in the ledger if a first member is open.
    fn record(&mut self, id: &Arc<str>, tail: Option<(usize, Arc<str>)>) {
        if self.open == 0 {
            return;
        }
        self.made.insert(addr(id), Made { id: Arc::clone(id), seq: self.next_seq, tail });
        self.next_seq += 1;
    }

    /// Open the first member of a group with `prefix`, before
    /// [`enter`](Self::enter)ing it.
    pub(crate) fn open_first(&mut self, prefix: &str) -> FirstMember {
        let base = self.qualifier.len() + prefix.len();
        if self.open == 0 {
            self.base = base;
        }
        self.open += 1;
        FirstMember { seq: self.next_seq, stem: base + 1, taints: self.taints }
    }

    /// Close a first member after leaving it: whether no id comparison
    /// inside it could differ in another member.
    pub(crate) fn close_first(&mut self, first: FirstMember) -> bool {
        self.open -= 1;
        self.taints == first.taints
    }

    /// Done with a group's first member and its stamps: the ledger is
    /// emptied once no first member is open.
    pub(crate) fn release(&mut self) {
        if self.open == 0 {
            self.made.clear();
        }
    }

    /// Taint the open first members if `e`, about to be merged with its
    /// type, has a generated id below it: the merge matches children by
    /// id, and another member's id could match a different child.
    pub(crate) fn check_merge(&mut self, e: &XpdlElement) {
        fn generated(e: &XpdlElement, made: &ByAddr<Made>) -> bool {
            e.children.iter().any(|c| {
                matches!(&c.model_kind, ModelKind::Instance(id) if made.contains_key(&addr(id)))
                    || generated(c, made)
            })
        }
        if self.open > 0 && e.type_ref.is_some() && generated(e, &self.made) {
            self.taints += 1;
        }
    }

    /// A copy of a group's expanded first member as member `i`: every id
    /// the first member made is re-qualified for member `i`, and every
    /// other string is shared.
    pub(crate) fn stamp(
        &mut self,
        first: FirstMember,
        member: &XpdlElement,
        prefix: &str,
        i: usize,
    ) -> XpdlElement {
        let mark = self.enter(prefix, i);
        let copy = self.copy(member, first);
        self.leave(mark);
        copy
    }

    fn copy(&mut self, e: &XpdlElement, first: FirstMember) -> XpdlElement {
        let model_kind = match &e.model_kind {
            ModelKind::Instance(id) => {
                ModelKind::Instance(self.requalified(id, first).unwrap_or_else(|| Arc::clone(id)))
            }
            other => other.clone(),
        };
        let mut attrs = e.attrs.clone();
        for (k, v) in &mut attrs {
            if matches!(&**k, "head" | "tail") {
                if let Some(q) = self.requalified(v, first) {
                    *v = q;
                }
            }
        }
        XpdlElement {
            kind: e.kind.clone(),
            model_kind,
            type_ref: e.type_ref.clone(),
            extends: e.extends.clone(),
            attrs,
            children: e.children.iter().map(|c| self.copy(c, first)).collect(),
            text: e.text.clone(),
            span: e.span,
            attr_spans: Arc::clone(&e.attr_spans),
        }
    }

    /// `id` for the member the qualifier names, if `first` made it: the
    /// member's stem, then `id` past the first member's stem, with a made
    /// tail re-qualified in turn.
    fn requalified(&mut self, id: &Arc<str>, first: FirstMember) -> Option<Arc<str>> {
        let tail = match self.made.get(&addr(id)) {
            Some(made) if made.seq >= first.seq => {
                debug_assert!(Arc::ptr_eq(&made.id, id));
                made.tail.clone()
            }
            _ => return None,
        };
        let (cut, tail) = match tail {
            Some((at, t)) => (at, Some(self.requalified(&t, first).unwrap_or(t))),
            None => (id.len(), None),
        };
        let stem = self.qualifier.len() - 1;
        self.buf.clear();
        self.buf.push_str(&self.qualifier[..stem]);
        self.buf.push_str(&id[first.stem..cut]);
        self.buf.push_str(tail.as_deref().unwrap_or(""));
        let out: Arc<str> = self.buf.as_str().into();
        let at = stem + cut - first.stem;
        self.record(&out, tail.map(|t| (at, t)));
        Some(out)
    }
}

/// Whether a written id contains `base`, digits and a dot, as every id
/// generated inside a member of the group `base` names does.
fn looks_generated(id: &str, base: &str) -> bool {
    id.match_indices(base).any(|(at, _)| {
        let rest = &id.as_bytes()[at + base.len()..];
        let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
        digits > 0 && rest.get(digits) == Some(&b'.')
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_looking_ids() {
        assert!(looks_generated("n0.x", "n"));
        assert!(looks_generated("a.n12.x", "n"));
        assert!(!looks_generated("conn1", "n"));
        assert!(!looks_generated("n0", "n"));
        assert!(!looks_generated("gpu1", "n"));
        assert!(looks_generated("f0n3.cpu", "f0n"));
    }
}
