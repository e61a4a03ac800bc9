//! Property tests for the binary wire encoding (`docs/WIRE.md` §4–§6).
//!
//! The binary codec has no semantics of its own: it is specified by
//! equivalence with the JSON wire. So the core property here is a
//! three-way agreement per message — `decode(encode(m))`, the original
//! `m`, and the JSON round trip of `m` must all be the same value. On
//! top of that, junk and truncated frames must be rejected without
//! panicking, and interned re-encodings must stay equivalent (and get
//! smaller).

use proptest::prelude::*;
use xpdl_serve::codec::{
    decode_request, decode_response, encode_request, encode_response, StrDecoder, StrEncoder,
};
use xpdl_serve::protocol::{AccelInfo, NodeInfo, TransferInfo};
use xpdl_serve::{parse_request, parse_response, Method, Reply, Request, Response, ServeError};

/// Printable ASCII including quotes, backslashes and braces — hostile
/// to JSON escaping, neutral to the binary codec; equivalence must hold
/// for both.
fn arb_text() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[ -~]{0,20}").unwrap()
}

/// A request float: both wires reject a non-finite one with `S412`.
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

/// What a response reads back as over either wire: a non-finite reply
/// float becomes NaN, and a non-finite `number` value becomes absent.
fn read_back(resp: &Response) -> Response {
    let nan = |x: f64| if x.is_finite() { x } else { f64::NAN };
    let reply = match resp.result.clone() {
        Ok(Reply::Power(w)) => Reply::Power(nan(w)),
        Ok(Reply::Energy(j)) => Reply::Energy(nan(j)),
        Ok(Reply::Number(v)) => Reply::Number(v.filter(|x| x.is_finite())),
        Ok(Reply::Transfer(t)) => Reply::Transfer(t.map(|t| TransferInfo {
            time_s: nan(t.time_s),
            energy_j: nan(t.energy_j),
            bandwidth_bps: nan(t.bandwidth_bps),
        })),
        Ok(Reply::Accelerator(a)) => Reply::Accelerator(
            a.map(|a| AccelInfo { time_s: nan(a.time_s), energy_j: nan(a.energy_j) }),
        ),
        Ok(other) => other,
        Err(e) => return Response::err(resp.id, e),
    };
    Response::ok(resp.id, reply)
}

/// Equality that holds NaN equal to NaN: compare the debug text.
fn same(a: &Response, b: &Response) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

fn arb_u53() -> impl Strategy<Value = u64> {
    0u64..(1u64 << 53)
}

fn arb_method() -> impl Strategy<Value = Method> {
    prop_oneof![
        Just(Method::Ping),
        Just(Method::Health),
        Just(Method::ModelInfo),
        Just(Method::NumCores),
        Just(Method::NumCudaDevices),
        Just(Method::TotalStaticPower),
        Just(Method::Stats),
        Just(Method::Metrics),
        Just(Method::Reload),
        Just(Method::Shutdown),
        Just(Method::Shards),
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
        proptest::collection::vec(arb_text(), 0..4)
            .prop_map(|encodings| Method::Hello { encodings }),
    ]
}

fn arb_request() -> impl Strategy<Value = Request> {
    (arb_u53(), arb_method(), proptest::option::of(arb_text())).prop_map(
        |(id, method, shard_key)| {
            let mut req = Request::new(id, method);
            req.shard_key = shard_key;
            req
        },
    )
}

fn arb_reply() -> impl Strategy<Value = Reply> {
    prop_oneof![
        Just(Reply::Pong),
        Just(Reply::ShuttingDown),
        arb_u53().prop_map(Reply::Count),
        arb_reply_f64().prop_map(Reply::Power),
        arb_reply_f64().prop_map(Reply::Energy),
        any::<bool>().prop_map(Reply::Flag),
        proptest::option::of(arb_text()).prop_map(Reply::Attr),
        proptest::option::of(arb_reply_f64()).prop_map(Reply::Number),
        (arb_u53(), proptest::collection::vec(arb_text(), 0..4))
            .prop_map(|(count, idents)| Reply::Idents { idents, count }),
        (arb_u53(), any::<bool>()).prop_map(|(epoch, changed)| Reply::Reloaded { epoch, changed }),
        arb_u53().prop_map(|ms| Reply::Slept { ms }),
        (arb_u53(), arb_text(), arb_u53(), any::<bool>()).prop_map(
            |(epoch, fingerprint, inflight, draining)| Reply::Health {
                epoch,
                fingerprint,
                inflight,
                draining,
            }
        ),
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
        (
            any::<bool>(),
            proptest::option::of(arb_text()),
            proptest::collection::vec(arb_text(), 0..4),
            proptest::collection::vec(arb_text(), 0..4)
        )
            .prop_map(|(enabled, ring_epoch, owned, handoff)| Reply::Shards {
                enabled,
                ring_epoch,
                owned,
                handoff,
            }),
        arb_text().prop_map(|encoding| Reply::Hello { encoding }),
    ]
}

fn arb_response() -> impl Strategy<Value = Response> {
    (
        arb_u53(),
        prop_oneof![
            arb_reply().prop_map(Ok),
            ("S[0-9]{3}", arb_text())
                .prop_map(|(code, message)| Err(ServeError::new(&code, message))),
        ],
    )
        .prop_map(|(id, result)| match result {
            Ok(reply) => Response::ok(id, reply),
            Err(e) => Response::err(id, e),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Binary and JSON are the same protocol: the binary round trip of a
    /// request equals both the original and the JSON round trip.
    #[test]
    fn request_binary_json_equivalence(req in arb_request()) {
        let frame = encode_request(&req, &mut StrEncoder::new());
        prop_assert!(frame.len() >= 4);
        let declared = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
        prop_assert_eq!(declared, frame.len() - 4, "length prefix covers the body exactly");

        let via_binary = decode_request(&frame[4..], &mut StrDecoder::new())
            .map_err(|(_, e)| e.message).unwrap();
        prop_assert_eq!(&via_binary, &req);

        let via_json = parse_request(&req.to_json()).unwrap();
        prop_assert_eq!(&via_binary, &via_json);
    }

    /// Same agreement for responses, including error responses and
    /// non-finite reply floats.
    #[test]
    fn response_binary_json_equivalence(resp in arb_response()) {
        let frame = encode_response(&resp, &mut StrEncoder::new());
        let via_binary = decode_response(&frame[4..], &mut StrDecoder::new()).unwrap();
        prop_assert!(same(&via_binary, &read_back(&resp)), "{via_binary:?} vs {resp:?}");

        let via_json = parse_response(&resp.to_json()).unwrap();
        prop_assert!(same(&via_binary, &via_json), "{via_binary:?} vs {via_json:?}");
    }

    /// The stateless (inline-only) encoder WIRE.md §4.3 allows must be
    /// wire-equivalent to the interning one.
    #[test]
    fn inline_only_encoder_is_equivalent(resp in arb_response()) {
        let frame = encode_response(&resp, &mut StrEncoder::inline_only());
        let decoded = decode_response(&frame[4..], &mut StrDecoder::new()).unwrap();
        prop_assert!(same(&decoded, &read_back(&resp)), "{decoded:?} vs {resp:?}");
    }

    /// A persistent table pays off: re-encoding the same request against
    /// a warm encoder never grows the frame, and a warm decoder still
    /// reads every copy back correctly.
    #[test]
    fn interning_stays_equivalent_and_never_grows(req in arb_request()) {
        let mut enc = StrEncoder::new();
        let mut dec = StrDecoder::new();
        let first = encode_request(&req, &mut enc);
        let second = encode_request(&req, &mut enc);
        prop_assert!(second.len() <= first.len(), "warm re-encode grew: {} -> {}", first.len(), second.len());
        for frame in [first, second] {
            let decoded = decode_request(&frame[4..], &mut dec)
                .map_err(|(_, e)| e.message).unwrap();
            prop_assert_eq!(&decoded, &req);
        }
    }

    /// Arbitrary junk frame bodies never panic either decoder.
    #[test]
    fn junk_frames_never_panic(body in proptest::collection::vec(any::<u8>(), 0..200)) {
        let _ = decode_request(&body, &mut StrDecoder::new());
        let _ = decode_response(&body, &mut StrDecoder::new());
    }

    /// Near-valid junk: a valid request frame with one byte flipped is
    /// either rejected cleanly or decodes to *some* request — never a
    /// panic, and frame faults carry the BAD_FRAME taxonomy.
    #[test]
    fn flipped_bytes_never_panic(req in arb_request(), pos in 0u32..1_000_000, bit in 0u8..8) {
        let mut frame = encode_request(&req, &mut StrEncoder::new());
        let body_len = frame.len() - 4; // request bodies are never empty
        let i = 4 + pos as usize % body_len;
        frame[i] ^= 1 << bit;
        if let Err((_, e)) = decode_request(&frame[4..], &mut StrDecoder::new()) {
            prop_assert!(
                e.code == xpdl_serve::codes::BAD_FRAME
                    || e.code == xpdl_serve::codes::INVALID_PARAMS,
                "unexpected error taxonomy {}: {}", e.code, e.message
            );
        }
    }

    /// Every strict prefix of a valid frame body is rejected as
    /// truncated — never a panic, never a bogus success.
    #[test]
    fn truncated_frames_are_rejected(req in arb_request(), cut in 0u32..1_000_000) {
        let frame = encode_request(&req, &mut StrEncoder::new());
        let body = &frame[4..];
        let keep = cut as usize % body.len(); // 0..len-1: always a strict prefix
        let err = decode_request(&body[..keep], &mut StrDecoder::new());
        prop_assert!(err.is_err(), "decoded a truncated frame");
    }

    /// Truncation of a response frame is likewise a clean error.
    #[test]
    fn truncated_responses_are_rejected(resp in arb_response(), cut in 0u32..1_000_000) {
        let frame = encode_response(&resp, &mut StrEncoder::new());
        let body = &frame[4..];
        let keep = cut as usize % body.len();
        prop_assert!(decode_response(&body[..keep], &mut StrDecoder::new()).is_err());
    }

    /// The recovered correlation id on a decode failure matches the id
    /// that was actually on the wire (whenever the header survived).
    #[test]
    fn error_paths_recover_the_request_id(req in arb_request()) {
        let frame = encode_request(&req, &mut StrEncoder::new());
        let mut body = frame[4..].to_vec();
        body.push(0xff); // trailing byte: structural fault, header intact
        match decode_request(&body, &mut StrDecoder::new()) {
            Err((Some(id), e)) => {
                prop_assert_eq!(id, req.id);
                prop_assert_eq!(e.code.as_str(), xpdl_serve::codes::BAD_FRAME);
            }
            other => prop_assert!(false, "expected id-carrying frame fault, got {other:?}"),
        }
    }
}
