//! The versioned binary runtime-model file format.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic      8 bytes  "XPDLRT\x01\x00"  (name + version)
//! n_strings  u32
//! strings    n_strings × (u32 length, UTF-8 bytes)
//! n_nodes    u32
//! nodes      n_nodes × node record
//! node record:
//!   kind u32 | flags u8 | [ident u32] | [type_ref u32]
//!   n_attrs u16, n_attrs × (u32, u32)
//!   n_children u32, n_children × u32
//!   parent u32 (u32::MAX = none)
//! flags: bit0 = has ident, bit1 = is_instance, bit2 = has type_ref
//! ```
//!
//! # The pre-order contract
//!
//! Node records come in pre-order: node 0 is the one root (parent
//! `u32::MAX`), a node's first child is the next record, and each later
//! child follows its previous sibling's whole subtree. [`decode`] checks
//! this with a stack of open nodes: each record must be the next listed
//! child of the innermost node still expecting one and name it as its
//! parent, and every listed child must arrive. Anything else — a cycle, a
//! shared or orphaned node, a second root, a child list out of order — is
//! [`FormatError::BadNodeRef`]. Only [`encode`] writes this format, and it
//! has always written pre-order; the check makes the contract explicit.
//!
//! It is what lets the loaded [`RuntimeModel`] drop the child lists: a
//! subtree is the index range from its node to its end, so `decode` fills
//! the model's flat arrays directly and `encode` derives each child list
//! from the subtree ends, writing the same bytes.

use crate::model::{Node, RuntimeModel, Strings, NONE};
use bytes::{Buf, BufMut, Bytes};
use std::fmt;
use std::ops::Range;

/// The 8-byte magic: name + format version 1.
pub const MAGIC: &[u8; 8] = b"XPDLRT\x01\x00";

/// Decoding errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FormatError {
    /// Wrong magic bytes (not a runtime-model file).
    BadMagic,
    /// Unsupported version byte.
    BadVersion(u8),
    /// Buffer ended mid-record.
    Truncated,
    /// A string index points outside the string table.
    BadStringRef(u32),
    /// A child/parent index points outside the node table, or a child
    /// link is not a forward tree edge (a cycle or a shared child).
    BadNodeRef(u32),
    /// A string is not valid UTF-8.
    BadUtf8,
    /// The file contains no nodes.
    Empty,
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatError::BadMagic => write!(f, "not an XPDL runtime model (bad magic)"),
            FormatError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            FormatError::Truncated => write!(f, "file truncated"),
            FormatError::BadStringRef(i) => write!(f, "string index {i} out of range"),
            FormatError::BadNodeRef(i) => write!(f, "bad node reference {i}"),
            FormatError::BadUtf8 => write!(f, "invalid UTF-8 in string table"),
            FormatError::Empty => write!(f, "model contains no nodes"),
        }
    }
}

impl std::error::Error for FormatError {}

/// Why a runtime-model file could not be loaded.
///
/// [`load_file`] used to flatten decode faults into `std::io::Error`,
/// discarding which [`FormatError`] actually fired; servers that reload
/// models need the distinction (an unreadable file and a corrupt file
/// call for different operator responses), so loading now has its own
/// error enum that keeps both sides intact.
#[derive(Debug)]
pub enum LoadError {
    /// The file could not be read at all.
    Io(std::io::Error),
    /// The bytes were read but are not a valid runtime model.
    Format(FormatError),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "cannot read runtime model: {e}"),
            LoadError::Format(e) => write!(f, "cannot decode runtime model: {e}"),
        }
    }
}

impl std::error::Error for LoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LoadError::Io(e) => Some(e),
            LoadError::Format(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for LoadError {
    fn from(e: std::io::Error) -> LoadError {
        LoadError::Io(e)
    }
}

impl From<FormatError> for LoadError {
    fn from(e: FormatError) -> LoadError {
        LoadError::Format(e)
    }
}

impl LoadError {
    /// The stable diagnostic code: `S400` for I/O failures, `S401` for
    /// decode failures (the `S4xx` namespace is the serving stage — see
    /// DESIGN.md's code taxonomy).
    pub fn code(&self) -> &'static str {
        match self {
            LoadError::Io(_) => "S400",
            LoadError::Format(_) => "S401",
        }
    }

    /// Convert into a toolchain diagnostic, attributed to `path`.
    pub fn to_diagnostic(&self, path: &str) -> xpdl_core::Diagnostic {
        let d = xpdl_core::Diagnostic::error(path, self.to_string()).with_code(self.code());
        match self {
            LoadError::Io(_) => d,
            LoadError::Format(e) => d.with_note(format!("decode fault: {e}")),
        }
    }
}

/// Encode a model to bytes.
pub fn encode(model: &RuntimeModel) -> Bytes {
    let (strings, nodes, attrs) = (&model.strings, &model.nodes, &model.attrs);
    // An upper bound, so the buffer never grows: a node record is at most
    // 23 bytes plus its attributes, and all child lists together hold
    // one entry per non-root node.
    let cap = 16 + 4 * strings.len() + strings.blob_len() + 27 * nodes.len() + 8 * attrs.len();
    let mut buf = Vec::with_capacity(cap);
    buf.put_slice(MAGIC);
    buf.put_u32_le(strings.len() as u32);
    for i in 0..strings.len() as u32 {
        let s = strings.bytes(i);
        buf.put_u32_le(s.len() as u32);
        buf.put_slice(s);
    }
    buf.put_u32_le(nodes.len() as u32);
    for (idx, n) in (0u32..).zip(nodes) {
        buf.put_u32_le(n.kind);
        let mut flags = 0u8;
        if n.ident != NONE {
            flags |= 1;
        }
        if n.is_instance {
            flags |= 2;
        }
        if n.type_ref != NONE {
            flags |= 4;
        }
        buf.put_u8(flags);
        if n.ident != NONE {
            buf.put_u32_le(n.ident);
        }
        if n.type_ref != NONE {
            buf.put_u32_le(n.type_ref);
        }
        let node_attrs = &attrs[model.attr_range(idx)];
        buf.put_u16_le(node_attrs.len() as u16);
        for &(k, v) in node_attrs {
            // The key, then the value, each little-endian: one write.
            buf.put_u64_le(u64::from(k) | u64::from(v) << 32);
        }
        // The child list in one pass over the subtree ends: write a
        // placeholder count, then patch it.
        let count_at = buf.len();
        buf.put_u32_le(0);
        let mut count = 0u32;
        for c in model.child_indices(idx) {
            buf.put_u32_le(c);
            count += 1;
        }
        buf[count_at..count_at + 4].copy_from_slice(&count.to_le_bytes());
        buf.put_u32_le(n.parent);
    }
    Bytes::from(buf)
}

/// Decode a model from bytes, validating all cross-references and that
/// the nodes form one tree in pre-order.
pub fn decode(mut data: &[u8]) -> Result<RuntimeModel, FormatError> {
    if data.len() < 8 {
        return Err(FormatError::BadMagic);
    }
    if data[..6] != MAGIC[..6] {
        return Err(FormatError::BadMagic);
    }
    // The 7th byte of MAGIC is the version (\x01); the 8th is reserved
    // and must be zero (a non-zero value is a corrupted header, not a
    // future version we could be lenient about).
    let version = data[6];
    if version != 1 {
        return Err(FormatError::BadVersion(version));
    }
    if data[7] != 0 {
        return Err(FormatError::BadMagic);
    }
    data.advance(8);

    // Counts come from the file: bound each preallocation by the bytes
    // left, at the smallest record size (4 per string, 15 per node).
    let n_strings = read_u32(&mut data)? as usize;
    let mut strings = Strings::with_capacity(n_strings.min(data.remaining() / 4));
    for _ in 0..n_strings {
        let len = read_u32(&mut data)? as usize;
        if data.remaining() < len {
            return Err(FormatError::Truncated);
        }
        strings.push(std::str::from_utf8(&data[..len]).map_err(|_| FormatError::BadUtf8)?);
        data.advance(len);
    }

    let n_nodes = read_u32(&mut data)? as usize;
    if n_nodes == 0 {
        return Err(FormatError::Empty);
    }
    let check_str = |i: u32| -> Result<u32, FormatError> {
        if (i as usize) < n_strings {
            Ok(i)
        } else {
            Err(FormatError::BadStringRef(i))
        }
    };
    let mut nodes: Vec<Node> = Vec::with_capacity(n_nodes.min(data.remaining() / 15));
    let mut attrs = Vec::new();
    // The listed children of every node read so far, and the open nodes
    // (innermost last), each with the range of its listed children still
    // to be matched. In pre-order, the next node read must be the next
    // listed child of the innermost node that still expects one.
    let mut kids: Vec<u32> = Vec::new();
    let mut open: Vec<(u32, Range<usize>)> = Vec::new();
    for i in 0..n_nodes as u32 {
        let kind = check_str(read_u32(&mut data)?)?;
        let flags = read_u8(&mut data)?;
        let ident = if flags & 1 != 0 { check_str(read_u32(&mut data)?)? } else { NONE };
        let type_ref = if flags & 4 != 0 { check_str(read_u32(&mut data)?)? } else { NONE };
        let first_attr = attrs.len() as u32;
        for _ in 0..read_u16(&mut data)? {
            let k = check_str(read_u32(&mut data)?)?;
            let v = check_str(read_u32(&mut data)?)?;
            attrs.push((k, v));
        }
        let kids_start = kids.len();
        for _ in 0..read_u32(&mut data)? {
            kids.push(read_u32(&mut data)?);
        }
        let parent = read_u32(&mut data)?;
        // Every open node with no child left to match ends here.
        while let Some((p, pending)) = open.last() {
            if !pending.is_empty() {
                break;
            }
            nodes[*p as usize].end = i;
            open.pop();
        }
        match open.last_mut() {
            None if i == 0 => {
                if parent != NONE {
                    return Err(FormatError::BadNodeRef(parent));
                }
            }
            // A second root, or a node no open node lists.
            None => return Err(FormatError::BadNodeRef(i)),
            Some((p, pending)) => {
                let expected = kids[pending.start];
                if expected != i {
                    return Err(FormatError::BadNodeRef(expected));
                }
                if parent != *p {
                    return Err(FormatError::BadNodeRef(i));
                }
                pending.start += 1;
            }
        }
        nodes.push(Node {
            kind,
            ident,
            type_ref,
            parent,
            end: NONE,
            first_attr,
            is_instance: flags & 2 != 0,
        });
        open.push((i, kids_start..kids.len()));
    }
    // The nodes are exhausted: a child still expected is missing.
    while let Some((p, pending)) = open.pop() {
        if !pending.is_empty() {
            return Err(FormatError::BadNodeRef(kids[pending.start]));
        }
        nodes[p as usize].end = n_nodes as u32;
    }
    // A decoded model is about to be queried: index it now.
    let model = RuntimeModel::new(strings, nodes, attrs);
    model.index();
    Ok(model)
}

/// Write a model to a file.
pub fn save_file(model: &RuntimeModel, path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, encode(model))
}

/// Load a model from a file (`xpdl_init`'s workhorse).
pub fn load_file(path: &std::path::Path) -> Result<RuntimeModel, LoadError> {
    let data = std::fs::read(path)?;
    Ok(decode(&data)?)
}

fn read_u32(data: &mut &[u8]) -> Result<u32, FormatError> {
    if data.remaining() < 4 {
        return Err(FormatError::Truncated);
    }
    Ok(data.get_u32_le())
}

fn read_u16(data: &mut &[u8]) -> Result<u16, FormatError> {
    if data.remaining() < 2 {
        return Err(FormatError::Truncated);
    }
    Ok(data.get_u16_le())
}

fn read_u8(data: &mut &[u8]) -> Result<u8, FormatError> {
    if data.remaining() < 1 {
        return Err(FormatError::Truncated);
    }
    Ok(data.get_u8())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, HashMap};
    use xpdl_core::units::Quantity;
    use xpdl_core::{ModelKind, XpdlDocument, XpdlElement};

    fn model() -> RuntimeModel {
        let doc = XpdlDocument::parse_str(
            r#"<system id="s">
                 <cpu id="h" type="Xeon" static_power="15" static_power_unit="W">
                   <core id="c0" frequency="2" frequency_unit="GHz"/>
                 </cpu>
               </system>"#,
        )
        .unwrap();
        RuntimeModel::from_element(doc.root())
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let m = model();
        let bytes = encode(&m);
        let back = decode(&bytes).unwrap();
        assert_eq!(back.len(), m.len());
        assert_eq!(back.root().ident(), Some("s"));
        let c0 = back.find("c0").unwrap();
        assert_eq!(c0.quantity("frequency").unwrap().to_base(), 2e9);
        assert_eq!(c0.parent().unwrap().type_ref(), Some("Xeon"));
    }

    #[test]
    fn magic_and_version_checked() {
        let m = model();
        let bytes = encode(&m);
        assert_eq!(&bytes[..8], MAGIC);
        let mut corrupt = bytes.to_vec();
        corrupt[0] = b'Y';
        assert_eq!(decode(&corrupt).unwrap_err(), FormatError::BadMagic);
        let mut v2 = bytes.to_vec();
        v2[6] = 2;
        assert_eq!(decode(&v2).unwrap_err(), FormatError::BadVersion(2));
    }

    #[test]
    fn truncation_detected_at_every_length() {
        let bytes = encode(&model());
        for cut in [0, 4, 7, 8, 12, bytes.len() / 2, bytes.len() - 1] {
            let err = decode(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, FormatError::Truncated | FormatError::BadMagic),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn bad_string_ref_detected() {
        let m = model();
        let mut bytes = encode(&m).to_vec();
        // The first node record's kind index lives right after the string
        // table; smash it to a huge value.
        // Find offset: 8 magic + 4 count + strings…
        let mut off = 12;
        for s in m.strings.iter() {
            off += 4 + s.len();
        }
        off += 4; // node count
        bytes[off..off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode(&bytes).unwrap_err(), FormatError::BadStringRef(_)));
    }

    #[test]
    fn empty_model_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&0u32.to_le_bytes()); // no strings
        buf.extend_from_slice(&0u32.to_le_bytes()); // no nodes
        assert_eq!(decode(&buf).unwrap_err(), FormatError::Empty);
    }

    /// A string table of one kind and the given `(children, parent)`
    /// node records, all of that kind, with no attributes.
    fn raw_model(nodes: &[(&[u32], Option<u32>)]) -> Vec<u8> {
        let mut buf = MAGIC.to_vec();
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&4u32.to_le_bytes());
        buf.extend_from_slice(b"node");
        buf.extend_from_slice(&(nodes.len() as u32).to_le_bytes());
        for (children, parent) in nodes {
            buf.extend_from_slice(&0u32.to_le_bytes()); // kind
            buf.push(0); // flags
            buf.extend_from_slice(&0u16.to_le_bytes()); // attrs
            buf.extend_from_slice(&(children.len() as u32).to_le_bytes());
            for c in *children {
                buf.extend_from_slice(&c.to_le_bytes());
            }
            buf.extend_from_slice(&parent.unwrap_or(u32::MAX).to_le_bytes());
        }
        buf
    }

    #[test]
    fn cyclic_trees_rejected() {
        assert_eq!(decode(&raw_model(&[(&[1], None), (&[], Some(0))])).unwrap().len(), 2);
        // A root that lists itself as its child.
        let self_loop = raw_model(&[(&[0], None)]);
        assert_eq!(decode(&self_loop).unwrap_err(), FormatError::BadNodeRef(0));
        // A child that lists its parent as its own child.
        let back_edge = raw_model(&[(&[1], None), (&[0], Some(0))]);
        assert_eq!(decode(&back_edge).unwrap_err(), FormatError::BadNodeRef(0));
        // A child whose parent field names another node.
        let orphan = raw_model(&[(&[1], None), (&[], None)]);
        assert_eq!(decode(&orphan).unwrap_err(), FormatError::BadNodeRef(1));
    }

    #[test]
    fn trees_not_in_pre_order_rejected() {
        let pre_order = raw_model(&[(&[1, 3], None), (&[2], Some(0)), (&[], Some(1)), (&[], Some(0))]);
        assert_eq!(decode(&pre_order).unwrap().len(), 4);
        let bad: [&[(&[u32], Option<u32>)]; 5] = [
            // A root whose parent field names its own child.
            &[(&[1], Some(1)), (&[], Some(0))],
            // An orphan that no parent lists.
            &[(&[1], None), (&[], Some(0)), (&[], Some(0))],
            // A second root.
            &[(&[1], None), (&[], Some(0)), (&[], None)],
            // A child order that is not pre-order.
            &[(&[1, 2], None), (&[3], Some(0)), (&[], Some(0)), (&[], Some(1))],
            // Siblings listed out of order, with consistent parent fields.
            &[(&[2, 1], None), (&[], Some(0)), (&[], Some(0))],
        ];
        for nodes in bad {
            let err = decode(&raw_model(nodes)).unwrap_err();
            assert!(matches!(err, FormatError::BadNodeRef(_)), "{nodes:?}: {err:?}");
        }
    }

    #[test]
    fn file_save_load() {
        let dir = std::env::temp_dir().join(format!("xpdl_rt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.xpdlrt");
        let m = model();
        save_file(&m, &path).unwrap();
        let back = load_file(&path).unwrap();
        assert_eq!(back.len(), m.len());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_file_propagates_decode_errors() {
        let dir = std::env::temp_dir().join(format!("xpdl_rt_bad_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("junk.xpdlrt");
        std::fs::write(&path, b"not a model").unwrap();
        assert!(load_file(&path).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn encoding_is_compact() {
        // String interning should keep the binary smaller than the XML.
        let xml = r#"<system id="s"><cpu id="h" type="Xeon" static_power="15" static_power_unit="W"><core id="c0" frequency="2" frequency_unit="GHz"/></cpu></system>"#;
        let m = model();
        let bytes = encode(&m);
        assert!(bytes.len() < xml.len() * 2, "{} vs {}", bytes.len(), xml.len());
    }

    mod roundtrip_properties {
        use super::*;
        use proptest::prelude::*;

        /// One generated element: kind, ident, attributes, and how many
        /// open elements to close after it.
        type NodeScript = (String, String, Vec<(String, String)>, usize);

        /// Build well-formed XML from a flat node script: each entry
        /// opens an element (kind, ident, attributes), then closes `pops`
        /// of the currently open elements, so arbitrary tree shapes
        /// emerge from flat generated data. With `unique_idents` each
        /// ident gets its entry's index as a suffix; without, idents are
        /// used as given (so they may repeat) and an empty one leaves the
        /// element anonymous.
        fn random_model_xml(nodes: &[NodeScript], unique_idents: bool) -> String {
            let mut xml = String::from("<system id=\"root\">");
            let mut stack: Vec<String> = Vec::new();
            for (i, (kind, ident, attrs, pops)) in nodes.iter().enumerate() {
                if unique_idents {
                    xml.push_str(&format!("<{kind} id=\"{ident}_{i}\""));
                } else if ident.is_empty() {
                    xml.push_str(&format!("<{kind}"));
                } else {
                    xml.push_str(&format!("<{kind} id=\"{ident}\""));
                }
                let mut seen = std::collections::BTreeSet::new();
                for (k, v) in attrs {
                    // Dodge the reserved names (a second `id` would be a
                    // duplicate-attribute parse error) and duplicates
                    // within this element.
                    if matches!(k.as_str(), "id" | "name" | "type" | "extends") {
                        continue;
                    }
                    if seen.insert(k.clone()) {
                        xml.push_str(&format!(" {k}=\"{v}\""));
                    }
                }
                xml.push('>');
                stack.push(kind.clone());
                for _ in 0..(*pops).min(stack.len()) {
                    let k = stack.pop().unwrap();
                    xml.push_str(&format!("</{k}>"));
                }
            }
            while let Some(k) = stack.pop() {
                xml.push_str(&format!("</{k}>"));
            }
            xml.push_str("</system>");
            xml
        }

        proptest! {
            /// encode → decode is the identity (witnessed by re-encoding
            /// to the exact same bytes) for arbitrary model trees.
            #[test]
            fn encode_decode_identity(
                nodes in proptest::collection::vec(
                    (
                        "[a-z]{2,6}",
                        "[a-z][a-z0-9_]{0,5}",
                        proptest::collection::vec(("[a-z]{2,5}", "[a-z0-9]{1,5}"), 0..4),
                        0usize..3,
                    ),
                    1..32,
                ),
            ) {
                let xml = random_model_xml(&nodes, true);
                let doc = XpdlDocument::parse_str(&xml)
                    .unwrap_or_else(|e| panic!("generated XML must parse: {e}\n{xml}"));
                let m = RuntimeModel::from_element(doc.root());
                let bytes = encode(&m);
                let back = decode(&bytes).unwrap();
                prop_assert_eq!(back.len(), m.len());
                prop_assert_eq!(back.root().ident(), m.root().ident());
                // Byte-identical re-encode proves every field survived.
                prop_assert_eq!(encode(&back).as_ref(), bytes.as_ref());
            }

            /// Both build paths of random trees, with repeated idents and
            /// anonymous nodes, agree node by node with the source tree.
            #[test]
            fn flat_model_matches_tree_walk(
                nodes in proptest::collection::vec(
                    (
                        prop_oneof![Just("core".to_string()), Just("device".to_string()), "[a-c]{2}"],
                        "[a-c]?",
                        proptest::collection::vec(
                            (
                                prop_oneof![
                                    Just("static_power".to_string()),
                                    Just("static_power_unit".to_string()),
                                    "[a-z]{2,5}",
                                ],
                                prop_oneof![
                                    "[0-9]{1,3}",
                                    "[0-9]{1,2}\\.[0-9]{1,3}",
                                    Just("mW".to_string()),
                                    Just("kW".to_string()),
                                ],
                            ),
                            0..4,
                        ),
                        0usize..3,
                    ),
                    1..48,
                ),
            ) {
                let xml = random_model_xml(&nodes, false);
                let doc = XpdlDocument::parse_str(&xml)
                    .unwrap_or_else(|e| panic!("generated XML must parse: {e}\n{xml}"));
                let m = RuntimeModel::from_element(doc.root());
                check_against_tree(&m, doc.root());
                check_against_tree(&decode(&encode(&m)).unwrap(), doc.root());
            }

            /// Corrupting any byte of the magic/version header is
            /// rejected with a structured error, never a panic.
            #[test]
            fn corrupted_magic_rejected(idx in 0usize..8, flip in 1u8..=255) {
                let mut bytes = encode(&model()).to_vec();
                bytes[idx] ^= flip;
                let err = decode(&bytes).unwrap_err();
                prop_assert!(
                    matches!(
                        err,
                        FormatError::BadMagic | FormatError::BadVersion(_)
                    ),
                    "unexpected error {:?}",
                    err
                );
            }

            /// Every strict prefix of a valid encoding is rejected.
            #[test]
            fn truncated_buffers_rejected(frac in 0.0f64..1.0) {
                let bytes = encode(&model());
                let cut = ((bytes.len() - 1) as f64 * frac) as usize;
                let err = decode(&bytes[..cut]).unwrap_err();
                prop_assert!(
                    matches!(err, FormatError::Truncated | FormatError::BadMagic),
                    "cut {} of {}: {:?}",
                    cut,
                    bytes.len(),
                    err
                );
            }
        }
    }

    /// Checks every node of `m` against a pre-order walk of `root`, the
    /// tree it was built from, and the model's indexes against scans.
    fn check_against_tree(m: &RuntimeModel, root: &XpdlElement) {
        let mut next = 0;
        let mut power = Vec::new();
        walk(m, root, None, &mut next, &mut power);
        assert_eq!(next as usize, m.len());
        assert_eq!(m.total_static_power_w().to_bits(), power.iter().sum::<f64>().to_bits());
        let mut first: HashMap<&str, u32> = HashMap::new();
        let mut kinds: BTreeMap<&str, Vec<u32>> = BTreeMap::new();
        for idx in 0..m.len() as u32 {
            let n = m.node_at(idx).unwrap();
            if let Some(id) = n.ident() {
                first.entry(id).or_insert(idx);
            }
            kinds.entry(n.kind()).or_default().push(idx);
        }
        for (id, idx) in &first {
            assert_eq!(m.find(id).map(|n| n.index()), Some(*idx), "find {id}");
        }
        assert!(m.find("no such ident").is_none());
        for (kind, scanned) in &kinds {
            let listed = m.nodes_of_kind(kind);
            assert_eq!(listed.len(), scanned.len(), "kind {kind}");
            assert!(listed.map(|n| n.index()).eq(scanned.iter().copied()), "kind {kind}");
        }
        assert_eq!(m.nodes_of_kind("no such kind").len(), 0);
        assert_eq!(m.num_cores(), kinds.get("core").map_or(0, Vec::len));
        let cuda = root
            .descendants()
            .filter(|e| e.kind.tag() == "device")
            .filter(|d| {
                d.descendants().any(|e| {
                    e.kind.tag() == "programming_model"
                        && e.type_ref.as_deref().is_some_and(|t| t.contains("cuda"))
                })
            })
            .count();
        assert_eq!(m.num_cuda_devices(), cuda);
    }

    /// Checks node `*next` against `e`, then `e`'s subtree, in pre-order;
    /// appends the subtree's `static_power` values to `power` in document
    /// order, and checks the node's subtree sum against theirs.
    fn walk(
        m: &RuntimeModel,
        e: &XpdlElement,
        parent: Option<u32>,
        next: &mut u32,
        power: &mut Vec<f64>,
    ) {
        let idx = *next;
        *next += 1;
        let n = m.node_at(idx).expect("node in range");
        assert_eq!(n.kind(), e.kind.tag(), "node {idx}");
        assert_eq!(n.ident(), e.ident(), "node {idx}");
        assert_eq!(n.is_instance(), matches!(e.model_kind, ModelKind::Instance(_)));
        assert_eq!(n.type_ref(), e.type_ref.as_deref(), "node {idx}");
        assert!(n.attrs().eq(e.attrs.iter().map(|(k, v)| (&**k, &**v))));
        assert_eq!(n.parent().map(|p| p.index()), parent, "node {idx}");
        let own = power.len();
        let watts = e.attr("static_power").and_then(|v| v.trim().parse::<f64>().ok());
        let unit = e.attr("static_power_unit").unwrap_or("");
        if let Some(q) = watts.and_then(|v| Quantity::parse(v, unit).ok()) {
            power.push(q.to_base());
        }
        let mut children = Vec::new();
        for c in &e.children {
            children.push(*next);
            walk(m, c, Some(idx), next, power);
        }
        assert!(n.children().map(|c| c.index()).eq(children), "node {idx}");
        assert_eq!(n.descendants().len(), (*next - idx) as usize);
        assert!(n.descendants().map(|d| d.index()).eq(idx..*next), "node {idx}");
        let want: f64 = power[own..].iter().sum();
        assert_eq!(n.subtree_static_power_w().to_bits(), want.to_bits(), "node {idx}");
    }

    #[test]
    fn library_models_match_tree_walk() {
        for key in ["liu_gpu_server", "XScluster", "myriad_server"] {
            let elaborated = xpdl_models::loader::elaborate_system(key).unwrap();
            let m = RuntimeModel::from_element(&elaborated.root);
            check_against_tree(&m, &elaborated.root);
            check_against_tree(&decode(&encode(&m)).unwrap(), &elaborated.root);
        }
    }

    #[test]
    fn fuzz_decode_never_panics() {
        // Deterministic pseudo-random corruption.
        let bytes = encode(&model()).to_vec();
        let mut seed = 0x1234_5678_u64;
        for _ in 0..500 {
            let mut corrupted = bytes.clone();
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let pos = (seed >> 32) as usize % corrupted.len();
            corrupted[pos] ^= (seed & 0xFF) as u8;
            let _ = decode(&corrupted); // Ok or Err, never panic
        }
    }
}
