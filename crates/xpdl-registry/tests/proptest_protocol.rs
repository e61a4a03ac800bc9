//! Property tests for the registry wire protocol: every representable
//! request, response and event survives a serialize → parse round trip,
//! and junk, truncated and type-confused lines never panic
//! `parse_request`, `parse_response` or `parse_event`. A rejected request
//! carries an `S50x` code, and its id whenever the line had a readable
//! one.

use proptest::prelude::*;
use xpdl_core::diag::json::{self, JsonValue};
use xpdl_registry::protocol::{
    parse_event, parse_request, parse_response, Event, Request, Response,
};
use xpdl_registry::{
    ClusterStatus, NodeEntry, RegistryError, RegistryMethod, RegistryReply, RingInfo,
};

/// Printable ASCII including quotes, backslashes and braces.
fn arb_text() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[ -~]{0,12}").unwrap()
}

fn arb_u53() -> impl Strategy<Value = u64> {
    0u64..(1u64 << 53)
}

fn arb_method() -> impl Strategy<Value = RegistryMethod> {
    prop_oneof![
        Just(RegistryMethod::Ping),
        Just(RegistryMethod::Nodes),
        Just(RegistryMethod::Stats),
        Just(RegistryMethod::Status),
        (arb_text(), arb_text(), arb_u53(), arb_text(), arb_u53(), arb_u53()).prop_map(
            |(node, addr, epoch, fingerprint, inflight, ttl_ms)| {
                RegistryMethod::Register { node, addr, epoch, fingerprint, inflight, ttl_ms }
            }
        ),
        (arb_text(), arb_u53(), arb_text(), arb_u53()).prop_map(
            |(node, epoch, fingerprint, inflight)| RegistryMethod::Heartbeat {
                node,
                epoch,
                fingerprint,
                inflight,
            }
        ),
        arb_text().prop_map(|node| RegistryMethod::Deregister { node }),
        arb_text().prop_map(|version| RegistryMethod::Announce { version }),
        arb_text().prop_map(|node| RegistryMethod::Subscribe { node }),
    ]
}

fn arb_request() -> impl Strategy<Value = Request> {
    (arb_u53(), arb_method()).prop_map(|(id, method)| Request { id, method })
}

/// Any 64-bit epoch: the ring carries it as hex, not as a JSON number.
fn arb_ring() -> impl Strategy<Value = RingInfo> {
    (any::<u64>(), arb_u53(), arb_u53(), proptest::collection::vec(arb_text(), 0..4)).prop_map(
        |(epoch, replication, vnodes, nodes)| RingInfo { epoch, replication, vnodes, nodes },
    )
}

fn arb_entry() -> impl Strategy<Value = NodeEntry> {
    ((arb_text(), arb_text(), arb_u53(), arb_text()), (arb_u53(), arb_u53(), arb_u53(), arb_u53()))
        .prop_map(|((node, addr, epoch, fingerprint), (inflight, generation, age_ms, ttl_ms))| {
            NodeEntry { node, addr, epoch, fingerprint, inflight, generation, age_ms, ttl_ms }
        })
}

fn arb_reply() -> impl Strategy<Value = RegistryReply> {
    let entries = || proptest::collection::vec(arb_entry(), 0..3);
    let version = || proptest::option::of(arb_text());
    let ring = || proptest::option::of(arb_ring());
    prop_oneof![
        Just(RegistryReply::Pong),
        (arb_u53(), arb_u53(), version(), ring()).prop_map(
            |(generation, ttl_ms, version, ring)| {
                RegistryReply::Lease { generation, ttl_ms, version, ring }
            }
        ),
        any::<bool>().prop_map(|removed| RegistryReply::Deregistered { removed }),
        (entries(), version(), ring()).prop_map(|(nodes, version, ring)| RegistryReply::Nodes {
            nodes,
            version,
            ring
        }),
        arb_u53().prop_map(|subscribers| RegistryReply::Announced { subscribers }),
        version().prop_map(|version| RegistryReply::Subscribed { version }),
        (arb_u53(), arb_u53(), arb_u53(), arb_u53(), arb_u53(), arb_u53()).prop_map(
            |(nodes, registers, heartbeats, expirations, announcements, uptime_ms)| {
                RegistryReply::Stats {
                    nodes,
                    registers,
                    heartbeats,
                    expirations,
                    announcements,
                    uptime_ms,
                }
            }
        ),
        (entries(), ring(), version(), arb_u53()).prop_map(|(nodes, ring, version, uptime_ms)| {
            RegistryReply::Status(ClusterStatus { nodes, ring, version, uptime_ms })
        }),
    ]
}

fn arb_response() -> impl Strategy<Value = Response> {
    (
        arb_u53(),
        prop_oneof![
            arb_reply().prop_map(Ok),
            ("S5[0-9]{2}", arb_text())
                .prop_map(|(code, message)| Err(RegistryError::new(&code, message))),
        ],
    )
        .prop_map(|(id, result)| Response { id, result })
}

fn arb_event() -> impl Strategy<Value = Event> {
    prop_oneof![
        arb_text().prop_map(|version| Event::Invalidate { version }),
        arb_ring().prop_map(|ring| Event::Ring { ring }),
    ]
}

/// The id `parse_request` can recover from `line`: a non-negative
/// integer `"id"` in a line that is a JSON object.
fn readable_id(line: &str) -> Option<u64> {
    let v = json::parse(line).ok()?;
    let n = json::get(v.as_object()?, "id")?.as_number()?;
    (n >= 0.0 && n.fract() == 0.0).then_some(n as u64)
}

/// `parse_request` either accepts `line` or rejects it with an `S50x`
/// code and the readable id.
fn check_request_verdict(line: &str) {
    if let Err((id, e)) = parse_request(line) {
        assert!(e.code.starts_with("S50"), "{line:?}: code {}", e.code);
        assert_eq!(id, readable_id(line), "{line:?}: {e}");
    }
}

/// Replacement values for a type-confused member.
const CONFUSIONS: &[&str] = &[
    "null",
    "true",
    "-1",
    "1.5",
    "9007199254740993",
    "1e999",
    "\"text\"",
    "[]",
    "{}",
    "[\"a\",1]",
];

fn write_json(v: &JsonValue, out: &mut String) {
    match v {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        JsonValue::Number(n) => out.push_str(&format!("{n}")),
        JsonValue::Str(s) => json::escape_into(out, s),
        JsonValue::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json(item, out);
            }
            out.push(']');
        }
        JsonValue::Object(fields) => {
            out.push('{');
            for (i, (k, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json::escape_into(out, k);
                out.push(':');
                write_json(item, out);
            }
            out.push('}');
        }
    }
}

/// Replace the `n`-th object member of `v`, counted depth first over
/// every nested object, with the JSON text `with`.
fn replace_member(v: &mut JsonValue, n: &mut usize, with: &str) -> bool {
    match v {
        JsonValue::Object(fields) => fields.iter_mut().any(|(_, child)| {
            if *n == 0 {
                *child = json::parse(with).expect("replacement parses");
                return true;
            }
            *n -= 1;
            replace_member(child, n, with)
        }),
        JsonValue::Array(items) => items.iter_mut().any(|child| replace_member(child, n, with)),
        _ => false,
    }
}

/// `line` with one member's value replaced (unchanged when `pick` is
/// past the last member).
fn confuse(line: &str, mut pick: usize, with: &str) -> String {
    let mut tree = json::parse(line).expect("a serialized line parses");
    replace_member(&mut tree, &mut pick, with);
    let mut out = String::new();
    write_json(&tree, &mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn requests_roundtrip(req in arb_request()) {
        let line = req.to_json();
        prop_assert!(!line.contains('\n'), "framing: {line:?}");
        prop_assert_eq!(parse_request(&line).map_err(|(_, e)| e.to_string())?, req);
    }

    #[test]
    fn responses_roundtrip(resp in arb_response()) {
        let line = resp.to_json();
        prop_assert!(!line.contains('\n'), "framing: {line:?}");
        prop_assert_eq!(parse_response(&line)?, resp);
        prop_assert_eq!(parse_event(&line)?, None, "a response is not an event");
    }

    #[test]
    fn events_roundtrip(ev in arb_event()) {
        let line = ev.to_json();
        prop_assert!(!line.contains('\n'), "framing: {line:?}");
        prop_assert_eq!(parse_event(&line)?, Some(ev));
    }

    #[test]
    fn junk_never_panics(line in "[ -~]{0,80}") {
        check_request_verdict(&line);
        let _ = parse_response(&line);
        let _ = parse_event(&line);
    }

    #[test]
    fn near_protocol_junk_never_panics(
        id in arb_u53(),
        method in "[a-z_]{0,12}",
        params in "[ -~]{0,30}",
    ) {
        let line = format!("{{\"v\":1,\"id\":{id},\"method\":\"{method}\",\"params\":{params}}}");
        check_request_verdict(&line);
        let _ = parse_response(&line);
        let _ = parse_event(&line);
    }

    /// Every strict prefix of a valid line is rejected, never a panic.
    #[test]
    fn truncated_lines_are_rejected(
        req in arb_request(),
        resp in arb_response(),
        ev in arb_event(),
        cut in 0u32..1_000_000,
    ) {
        let (req, resp, ev) = (req.to_json(), resp.to_json(), ev.to_json());
        // Serialized lines are ASCII, so every cut is a char boundary.
        let prefix = |line: &str| line[..cut as usize % line.len()].to_string();
        let req = prefix(&req);
        check_request_verdict(&req);
        prop_assert!(parse_request(&req).is_err());
        prop_assert!(parse_response(&prefix(&resp)).is_err());
        prop_assert!(parse_event(&prefix(&ev)).is_err());
    }

    /// A valid line with one member's value swapped for another JSON
    /// type never panics a parser, and a rejected request keeps its id.
    #[test]
    fn type_confused_fields_never_panic(
        req in arb_request(),
        resp in arb_response(),
        ev in arb_event(),
        pick in 0usize..24,
        with in 0usize..CONFUSIONS.len(),
    ) {
        let with = CONFUSIONS[with];
        check_request_verdict(&confuse(&req.to_json(), pick, with));
        let _ = parse_response(&confuse(&resp.to_json(), pick, with));
        let _ = parse_event(&confuse(&ev.to_json(), pick, with));
    }
}
