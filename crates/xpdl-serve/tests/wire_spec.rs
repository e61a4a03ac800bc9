//! `docs/WIRE.md` is normative: §5 (method codes), §6 (reply codes) and
//! §7 (error codes) must match the constants in `xpdl_serve::codec`
//! byte-for-byte, in order. This test parses the markdown tables out of
//! the spec and diffs them against the code, so neither can drift
//! without CI noticing.

use xpdl_serve::codec::{ERROR_CODE_TABLE, METHOD_TABLE, REPLY_TABLE};

fn spec() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/WIRE.md");
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("the wire spec must exist at {path}: {e}"))
}

/// The body of the `## `-level section whose heading contains `title`,
/// up to the next `## ` heading.
fn section(doc: &str, title: &str) -> String {
    let mut grabbing = false;
    let mut out = String::new();
    for line in doc.lines() {
        if let Some(heading) = line.strip_prefix("## ") {
            if grabbing {
                break;
            }
            grabbing = heading.contains(title);
            continue;
        }
        if grabbing {
            out.push_str(line);
            out.push('\n');
        }
    }
    assert!(!out.is_empty(), "WIRE.md has no section titled like {title:?}");
    out
}

/// The first two backtick-quoted cells of every data row in the
/// section's table. Header and separator rows carry no backticked first
/// cell, so filtering on `| \`` keeps exactly the data rows.
fn table_rows(section: &str) -> Vec<(String, String)> {
    let mut rows = Vec::new();
    for line in section.lines() {
        let Some(rest) = line.trim().strip_prefix("| `") else { continue };
        let mut cells = rest.split('|').map(str::trim);
        let first = cells.next().expect("split yields at least one cell");
        let second = cells.next().unwrap_or_else(|| panic!("one-column table row: {line:?}"));
        let unquote = |cell: &str| -> String {
            let cell = cell.strip_suffix('`').unwrap_or(cell);
            let cell = cell.strip_prefix('`').unwrap_or(cell);
            cell.to_string()
        };
        rows.push((unquote(first), unquote(second)));
    }
    assert!(!rows.is_empty(), "section contains no table rows");
    rows
}

fn parse_code(cell: &str) -> u8 {
    let hex = cell.strip_prefix("0x").unwrap_or_else(|| panic!("code cell {cell:?} is not 0xNN"));
    u8::from_str_radix(hex, 16).unwrap_or_else(|e| panic!("code cell {cell:?}: {e}"))
}

#[test]
fn method_codes_match_the_spec() {
    let doc = spec();
    let rows = table_rows(&section(&doc, "Method codes"));
    let from_spec: Vec<(String, u8)> =
        rows.iter().map(|(code, name)| (name.clone(), parse_code(code))).collect();
    let from_code: Vec<(String, u8)> =
        METHOD_TABLE.iter().map(|(name, code)| (name.to_string(), *code)).collect();
    assert_eq!(from_spec, from_code, "docs/WIRE.md §5 vs codec::METHOD_TABLE");
}

#[test]
fn reply_codes_match_the_spec() {
    let doc = spec();
    let rows = table_rows(&section(&doc, "Reply codes"));
    let from_spec: Vec<(String, u8)> =
        rows.iter().map(|(code, name)| (name.clone(), parse_code(code))).collect();
    let from_code: Vec<(String, u8)> =
        REPLY_TABLE.iter().map(|(name, code)| (name.to_string(), *code)).collect();
    assert_eq!(from_spec, from_code, "docs/WIRE.md §6 vs codec::REPLY_TABLE");
}

#[test]
fn error_codes_match_the_spec() {
    let doc = spec();
    let rows = table_rows(&section(&doc, "Error codes"));
    let from_code: Vec<(String, String)> = ERROR_CODE_TABLE
        .iter()
        .map(|(code, name)| (code.to_string(), name.to_string()))
        .collect();
    assert_eq!(rows, from_code, "docs/WIRE.md §7 vs codec::ERROR_CODE_TABLE");
}

#[test]
fn spec_documents_the_negotiation_contract() {
    // Prose sanity floor: the load-bearing rules named by tests and
    // clients must at least be mentioned. (Tables above are exact; for
    // prose we only pin the anchors.)
    let doc = spec();
    for needle in [
        "hello",
        "S412",
        "S415",
        "first request",
        "little-endian",
        "binary2",
        "MAX_RESPONSE_FRAME",
        "order of receipt",
    ] {
        assert!(doc.contains(needle), "WIRE.md lost its {needle:?} anchor");
    }
}
