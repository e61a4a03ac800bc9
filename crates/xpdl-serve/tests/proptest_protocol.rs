//! Property tests for the wire protocol: every representable request and
//! response survives a serialize → parse round trip byte-exactly at the
//! data level, and arbitrary junk lines never panic the parsers.

use proptest::prelude::*;
use xpdl_obs::{HistogramSnapshot, MetricsSnapshot};
use xpdl_serve::protocol::{AccelInfo, NodeInfo, TransferInfo};
use xpdl_serve::{parse_request, parse_response, Method, Reply, Request, Response, ServeError};

/// Printable ASCII including quotes, backslashes and braces — the
/// characters most likely to break hand-rolled JSON escaping.
fn arb_text() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[ -~]{0,20}").unwrap()
}

/// A request float: the parser rejects a non-finite one with `S412`.
fn arb_f64() -> impl Strategy<Value = f64> {
    -1e12f64..1e12
}

/// A reply float, non-finite values included.
fn arb_reply_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        -1e12f64..1e12,
        -1e12f64..1e12,
        -1e12f64..1e12,
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(f64::NAN),
    ]
}

/// What a reply reads back as: a non-finite float is written as `null`,
/// which reads as NaN, or as absent for the `number` value.
fn read_back(reply: Reply) -> Reply {
    let nan = |x: f64| if x.is_finite() { x } else { f64::NAN };
    match reply {
        Reply::Power(w) => Reply::Power(nan(w)),
        Reply::Energy(j) => Reply::Energy(nan(j)),
        Reply::Number(v) => Reply::Number(v.filter(|x| x.is_finite())),
        Reply::Transfer(t) => Reply::Transfer(t.map(|t| TransferInfo {
            time_s: nan(t.time_s),
            energy_j: nan(t.energy_j),
            bandwidth_bps: nan(t.bandwidth_bps),
        })),
        Reply::Accelerator(a) => Reply::Accelerator(
            a.map(|a| AccelInfo { time_s: nan(a.time_s), energy_j: nan(a.energy_j) }),
        ),
        other => other,
    }
}

fn arb_u53() -> impl Strategy<Value = u64> {
    0u64..(1u64 << 53)
}

fn arb_method() -> impl Strategy<Value = Method> {
    prop_oneof![
        Just(Method::Ping),
        Just(Method::ModelInfo),
        Just(Method::NumCores),
        Just(Method::NumCudaDevices),
        Just(Method::TotalStaticPower),
        Just(Method::Stats),
        Just(Method::Metrics),
        Just(Method::Reload),
        Just(Method::Shutdown),
        arb_text().prop_map(|ident| Method::Find { ident }),
        (arb_text(), arb_text()).prop_map(|(ident, attr)| Method::GetAttr { ident, attr }),
        (arb_text(), arb_text()).prop_map(|(ident, attr)| Method::GetNumber { ident, attr }),
        arb_text().prop_map(|kind| Method::ElementsOfKind { kind }),
        arb_text().prop_map(|prefix| Method::HasInstalled { prefix }),
        (arb_text(), arb_u53()).prop_map(|(link, bytes)| Method::EstimateTransfer { link, bytes }),
        (arb_text(), arb_u53(), arb_u53(), arb_f64(), arb_f64()).prop_map(
            |(link, upload_bytes, download_bytes, compute_s, dynamic_power_w)| {
                Method::EstimateAcceleratorUse {
                    link,
                    upload_bytes,
                    download_bytes,
                    compute_s,
                    dynamic_power_w,
                }
            }
        ),
        arb_f64().prop_map(|duration_s| Method::EstimateStaticEnergy { duration_s }),
        arb_u53().prop_map(|ms| Method::Sleep { ms }),
    ]
}

/// Metric names as they appear in practice: dotted lowercase segments,
/// plus whatever arb_text throws in (escaping must hold for any name).
fn arb_metric_name() -> impl Strategy<Value = String> {
    prop_oneof![proptest::string::string_regex("[a-z_.]{1,24}").unwrap(), arb_text()]
}

fn arb_metrics() -> impl Strategy<Value = MetricsSnapshot> {
    let hist = (arb_u53(), arb_u53(), proptest::collection::vec((0u8..=64, arb_u53()), 0..4))
        .prop_map(|(count, sum, buckets)| HistogramSnapshot { count, sum, buckets });
    (
        proptest::collection::btree_map(arb_metric_name(), arb_u53(), 0..4),
        proptest::collection::btree_map(arb_metric_name(), arb_u53(), 0..4),
        proptest::collection::btree_map(arb_metric_name(), hist, 0..3),
    )
        .prop_map(|(counters, gauges, histograms)| MetricsSnapshot { counters, gauges, histograms })
}

fn arb_reply() -> impl Strategy<Value = Reply> {
    prop_oneof![
        Just(Reply::Pong),
        arb_metrics().prop_map(Reply::Metrics),
        Just(Reply::ShuttingDown),
        arb_u53().prop_map(Reply::Count),
        arb_reply_f64().prop_map(Reply::Power),
        arb_reply_f64().prop_map(Reply::Energy),
        proptest::option::of(arb_text()).prop_map(Reply::Attr),
        proptest::option::of(arb_reply_f64()).prop_map(Reply::Number),
        (arb_u53(), proptest::collection::vec(arb_text(), 0..4))
            .prop_map(|(count, idents)| Reply::Idents { idents, count }),
        (arb_u53(), any::<bool>()).prop_map(|(epoch, changed)| Reply::Reloaded { epoch, changed }),
        arb_u53().prop_map(|ms| Reply::Slept { ms }),
        any::<bool>().prop_map(Reply::Flag),
        proptest::option::of((arb_reply_f64(), arb_reply_f64(), arb_reply_f64())).prop_map(|t| {
            Reply::Transfer(t.map(|(time_s, energy_j, bandwidth_bps)| TransferInfo {
                time_s,
                energy_j,
                bandwidth_bps,
            }))
        }),
        proptest::option::of((arb_reply_f64(), arb_reply_f64())).prop_map(|t| {
            Reply::Accelerator(t.map(|(time_s, energy_j)| AccelInfo { time_s, energy_j }))
        }),
        (
            arb_text(),
            proptest::option::of(arb_text()),
            proptest::option::of(arb_text()),
            proptest::collection::vec((arb_text(), arb_text()), 0..4)
        )
            .prop_map(|(kind, ident, type_ref, attrs)| {
                Reply::Node(Some(NodeInfo { kind, ident, type_ref, attrs }))
            }),
        Just(Reply::Node(None)),
        (arb_u53(), arb_u53(), arb_text(), proptest::option::of(arb_text()), arb_text()).prop_map(
            |(epoch, nodes, root_kind, root_ident, source)| Reply::ModelInfo {
                epoch,
                nodes,
                root_kind,
                root_ident,
                source,
                fingerprint: format!("{epoch:016x}"),
            }
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn request_roundtrips(id in arb_u53(), method in arb_method()) {
        let req = Request::new(id, method);
        let line = req.to_json();
        prop_assert!(!line.contains('\n'), "framing: {line:?}");
        let back = parse_request(&line).map_err(|(_, e)| e.to_string())?;
        prop_assert_eq!(back, req);
    }

    #[test]
    fn ok_response_roundtrips(id in arb_u53(), reply in arb_reply()) {
        let resp = Response::ok(id, reply.clone());
        let line = resp.to_json();
        prop_assert!(!line.contains('\n'), "framing: {line:?}");
        let back = parse_response(&line).map_err(|e| e.to_string())?;
        // Debug text compares NaN equal to NaN, which `==` does not.
        let want = Response::ok(id, read_back(reply));
        prop_assert_eq!(format!("{back:?}"), format!("{want:?}"));
    }

    #[test]
    fn error_response_roundtrips(id in arb_u53(), code in "[A-Z][0-9]{3}", message in arb_text()) {
        let resp = Response::err(id, ServeError { code, message });
        let back = parse_response(&resp.to_json()).map_err(|e| e.to_string())?;
        prop_assert_eq!(back, resp);
    }

    #[test]
    fn junk_never_panics_request_parser(line in "[ -~]{0,80}") {
        let _ = parse_request(&line);
    }

    #[test]
    fn junk_never_panics_response_parser(line in "[ -~]{0,80}") {
        let _ = parse_response(&line);
    }

    #[test]
    fn near_protocol_junk_is_rejected_not_panicking(
        id in arb_u53(),
        method in "[a-z_]{0,16}",
        garbage in "[ -~]{0,30}",
    ) {
        // Lines that look almost right: valid JSON envelope, arbitrary
        // method names and param bodies.
        let line = format!(
            "{{\"v\":1,\"id\":{id},\"method\":\"{method}\",\"params\":{{\"x\":\"{}\"}}}}",
            garbage.replace(['\\', '"'], "")
        );
        match parse_request(&line) {
            Ok(req) => prop_assert_eq!(req.id, id),
            Err((recovered, err)) => {
                // The parser must still have recovered the id for
                // addressed error responses, and coded the failure.
                prop_assert_eq!(recovered, Some(id));
                prop_assert!(err.code.starts_with("S4"), "{}", err);
            }
        }
    }
}

/// An `idents` reply with 60,000 names (~0.9 MB) parses in linear time:
/// far under the bound even in a debug build, where the quadratic string
/// loop of the old JSON parser took tens of seconds.
#[test]
fn parse_response_is_linear_in_a_large_idents_reply() {
    let idents: Vec<String> = (0..60_000).map(|i| format!("core_{i:07}")).collect();
    let resp = Response::ok(7, Reply::Idents { count: idents.len() as u64, idents });
    let line = resp.to_json();
    assert!(line.len() > 800_000);
    let start = std::time::Instant::now();
    let parsed = parse_response(&line).unwrap();
    let took = start.elapsed();
    assert!(took < std::time::Duration::from_secs(2), "parse_response took {took:?}");
    assert_eq!(parsed, resp);
}
