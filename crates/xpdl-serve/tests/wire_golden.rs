//! Golden pin of every wire byte both daemons produce, and of how their
//! parsers classify malformed input.
//!
//! A deterministic corpus is rendered to text — each serve request and
//! response as its JSON line and as binary frames from an interning and
//! an inline-only encoder, each registry request, response and event as
//! its JSON line, and for every malformed input the recovered id and
//! error code (or, where the parser returns no code, whether it failed).
//! The text must equal `tests/golden/wire.txt` line for line.
//!
//! The golden file records what the code produced when the test was
//! added; it is not regenerated to make a change pass. A mismatch writes
//! the rendered text next to the test binaries (`wire.actual` under
//! `CARGO_TARGET_TMPDIR`) and names the first differing line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use xpdl_obs::{HistogramSnapshot, MetricsSnapshot};
use xpdl_registry::protocol as reg;
use xpdl_registry::{ClusterStatus, NodeEntry, RegistryMethod, RegistryReply, RingInfo};
use xpdl_serve::codec::{
    decode_request, decode_response, encode_request, encode_response, StrDecoder, StrEncoder,
};
use xpdl_serve::protocol::{AccelInfo, NodeInfo, TransferInfo};
use xpdl_serve::{
    parse_request, parse_response, Method, Reply, Request, Response, ServeError, StatsSnapshot,
};

/// Escapes, a control character, non-ASCII text and a quote.
const HOSTILE: &str = "gpu\"1\\\n\t\u{1}é/";

/// Longer than `MAX_INTERN_LEN`, so it always travels inline.
fn long_text() -> String {
    "x".repeat(70)
}

fn serve_requests() -> Vec<Request> {
    let methods = vec![
        Method::Ping,
        Method::Health,
        Method::ModelInfo,
        Method::Find { ident: "gpu1".into() },
        Method::Find { ident: HOSTILE.into() },
        Method::GetAttr { ident: "gpu1".into(), attr: "type".into() },
        Method::GetNumber { ident: "gpu1".into(), attr: "max_bandwidth".into() },
        Method::ElementsOfKind { kind: "core".into() },
        Method::NumCores,
        Method::NumCudaDevices,
        Method::TotalStaticPower,
        Method::HasInstalled { prefix: "CUBLAS".into() },
        Method::EstimateTransfer { link: "connection1".into(), bytes: 1 << 20 },
        Method::EstimateTransfer { link: String::new(), bytes: 1 << 53 },
        Method::EstimateAcceleratorUse {
            link: "connection1".into(),
            upload_bytes: 1024,
            download_bytes: 2048,
            compute_s: 0.5,
            dynamic_power_w: 25.0,
        },
        Method::EstimateAcceleratorUse {
            link: long_text(),
            upload_bytes: 0,
            download_bytes: 1 << 53,
            compute_s: -0.0,
            dynamic_power_w: 1e-300,
        },
        Method::EstimateStaticEnergy { duration_s: 2.5 },
        Method::EstimateStaticEnergy { duration_s: 1e308 },
        Method::EstimateStaticEnergy { duration_s: f64::INFINITY },
        Method::Stats,
        Method::Metrics,
        Method::Reload,
        Method::Shutdown,
        Method::Sleep { ms: 25 },
        Method::Shards,
        Method::Hello { encodings: vec!["binary".into(), "json".into()] },
        Method::Hello { encodings: vec![] },
    ];
    methods
        .into_iter()
        .enumerate()
        .map(|(n, method)| {
            let id = [0, 7, u64::MAX - 2, 1 << 53][n % 4] + n as u64 % 3;
            match n % 5 {
                1 => Request::for_shard(id, method, "fleet/gpu\"7"),
                3 => Request::for_shard(id, method, long_text()),
                _ => Request::new(id, method),
            }
        })
        .collect()
}

fn stats_snapshot() -> StatsSnapshot {
    StatsSnapshot {
        epoch: 3,
        uptime_ms: 12_000,
        requests: 4_100,
        errors: 7,
        shed: 2,
        deadline_exceeded: 1,
        rejected: 3,
        reloads: 2,
        reload_failures: 1,
        connections: 9,
        health_checks: 5,
        inflight: 1,
        qps: 341.6666666666667,
        p50_us: 12,
        p90_us: 40,
        p99_us: 180,
        max_us: 912,
        reject_p99_us: 64,
    }
}

fn metrics_snapshot() -> MetricsSnapshot {
    let mut m = MetricsSnapshot::default();
    m.counters.insert("serve.requests".into(), 41);
    m.counters.insert("weird \"name\"".into(), 1);
    m.gauges.insert("serve.inflight".into(), 3);
    m.histograms.insert(
        "serve.handler.time_us".into(),
        HistogramSnapshot { count: 5, sum: 900, buckets: vec![(6, 2), (8, 3)] },
    );
    m
}

fn serve_responses() -> Vec<Response> {
    let node = NodeInfo {
        kind: "device".into(),
        ident: Some("gpu1".into()),
        type_ref: Some("Nvidia_K20c".into()),
        attrs: vec![("id".into(), "gpu1".into()), ("type".into(), HOSTILE.into())],
    };
    let bare = NodeInfo { kind: "core".into(), ident: None, type_ref: None, attrs: vec![] };
    let replies = vec![
        Reply::Pong,
        Reply::Health { epoch: 5, fingerprint: "00c0ffee".into(), inflight: 3, draining: true },
        Reply::Health { epoch: 0, fingerprint: String::new(), inflight: 0, draining: false },
        Reply::ModelInfo {
            epoch: 7,
            nodes: 2604,
            root_kind: "system".into(),
            root_ident: Some("liu_gpu_server".into()),
            source: "file:/m \"x\".xpdlrt".into(),
            fingerprint: "00000000deadbeef".into(),
        },
        Reply::ModelInfo {
            epoch: 1 << 53,
            nodes: 1,
            root_kind: "system".into(),
            root_ident: None,
            source: long_text(),
            fingerprint: "00000000deadbeef".into(),
        },
        Reply::Node(None),
        Reply::Node(Some(node)),
        Reply::Node(Some(bare)),
        Reply::Attr(None),
        Reply::Attr(Some("Nvidia_K20c".into())),
        Reply::Attr(Some(HOSTILE.into())),
        Reply::Number(Some(2.5)),
        Reply::Number(Some(-0.0)),
        Reply::Number(Some(f64::INFINITY)),
        Reply::Number(None),
        Reply::Idents { idents: vec![], count: 0 },
        Reply::Idents { idents: vec!["gpu1".into(), "gpu1".into(), HOSTILE.into()], count: 5 },
        Reply::Count(2500),
        Reply::Power(27.0),
        Reply::Power(1e-7),
        Reply::Flag(true),
        Reply::Flag(false),
        Reply::Transfer(None),
        Reply::Transfer(Some(TransferInfo { time_s: 1.5e-3, energy_j: 0.25, bandwidth_bps: 6e9 })),
        Reply::Accelerator(None),
        Reply::Accelerator(Some(AccelInfo { time_s: 0.1, energy_j: 12.5 })),
        Reply::Energy(67.5),
        Reply::Energy(1e300),
        Reply::Stats(stats_snapshot()),
        Reply::Metrics(metrics_snapshot()),
        Reply::Metrics(MetricsSnapshot::default()),
        Reply::Reloaded { epoch: 3, changed: false },
        Reply::Reloaded { epoch: 4, changed: true },
        Reply::ShuttingDown,
        Reply::Slept { ms: 25 },
        Reply::Shards { enabled: false, ring_epoch: None, owned: vec![], handoff: vec![] },
        Reply::Shards {
            enabled: true,
            ring_epoch: Some("00deadbeef00f00d".into()),
            owned: vec!["edge".into(), "hpc\"x".into()],
            handoff: vec!["mobile".into()],
        },
        Reply::Hello { encoding: "binary".into() },
    ];
    let mut out: Vec<Response> =
        replies.into_iter().enumerate().map(|(n, r)| Response::ok(n as u64 * 3, r)).collect();
    out.push(Response::err(9, ServeError::new("S412", "invalid params: \"x\"\n")));
    out.push(Response::err(0, ServeError::new("S410", "malformed request: bad")));
    out.push(Response::err(u64::MAX, ServeError::new("S511", long_text())));
    out
}

fn ring(epoch: u64) -> RingInfo {
    let mut r = RingInfo::compute(&["n1".to_string(), "n\"2".to_string()], 2, 32);
    r.epoch = epoch;
    r
}

fn entry(node: &str) -> NodeEntry {
    NodeEntry {
        node: node.into(),
        addr: "127.0.0.1:7001".into(),
        epoch: 9,
        fingerprint: "beef".into(),
        inflight: 1,
        generation: 2,
        age_ms: 120,
        ttl_ms: 1500,
    }
}

fn registry_requests() -> Vec<reg::Request> {
    [
        RegistryMethod::Ping,
        RegistryMethod::Register {
            node: "n\"1\n".into(),
            addr: "127.0.0.1:7001".into(),
            epoch: 4,
            fingerprint: "00c0ffee".into(),
            inflight: 2,
            ttl_ms: 1500,
        },
        RegistryMethod::Heartbeat {
            node: "n1".into(),
            epoch: 1 << 53,
            fingerprint: "cafe".into(),
            inflight: 0,
        },
        RegistryMethod::Deregister { node: "n1".into() },
        RegistryMethod::Nodes,
        RegistryMethod::Announce { version: "fleet-v12".into() },
        RegistryMethod::Subscribe { node: HOSTILE.into() },
        RegistryMethod::Stats,
        RegistryMethod::Status,
    ]
    .into_iter()
    .enumerate()
    .map(|(n, method)| reg::Request { id: n as u64 * 11, method })
    .collect()
}

fn registry_responses() -> Vec<reg::Response> {
    let replies = vec![
        RegistryReply::Pong,
        RegistryReply::Lease { generation: 3, ttl_ms: 1500, version: None, ring: None },
        RegistryReply::Lease {
            generation: 1,
            ttl_ms: 500,
            version: Some("v2".into()),
            ring: Some(ring(u64::MAX - 3)),
        },
        RegistryReply::Deregistered { removed: true },
        RegistryReply::Deregistered { removed: false },
        RegistryReply::Nodes { nodes: vec![], version: None, ring: None },
        RegistryReply::Nodes {
            nodes: vec![entry("n1"), entry(HOSTILE)],
            version: Some("fleet-v12".into()),
            ring: Some(ring(0x00c0ffee)),
        },
        RegistryReply::Announced { subscribers: 3 },
        RegistryReply::Subscribed { version: Some("v1".into()) },
        RegistryReply::Subscribed { version: None },
        RegistryReply::Stats {
            nodes: 3,
            registers: 5,
            heartbeats: 40,
            expirations: 2,
            announcements: 1,
            uptime_ms: 9000,
        },
        RegistryReply::Status(ClusterStatus {
            nodes: vec![entry("n1")],
            ring: Some(ring(7)),
            version: None,
            uptime_ms: 42,
        }),
        RegistryReply::Status(ClusterStatus {
            nodes: vec![],
            ring: None,
            version: Some("v\"3".into()),
            uptime_ms: 0,
        }),
    ];
    let mut out: Vec<reg::Response> =
        replies.into_iter().enumerate().map(|(n, r)| reg::Response::ok(n as u64, r)).collect();
    out.push(reg::Response::err(0, reg::RegistryError::unknown_node("n9")));
    out
}

fn registry_events() -> Vec<reg::Event> {
    vec![
        reg::Event::Invalidate { version: "fleet \"v12\"".into() },
        reg::Event::Invalidate { version: String::new() },
        reg::Event::Ring { ring: ring(u64::MAX - 3) },
    ]
}

/// Serve request lines that are not valid requests, or only just are.
const SERVE_BAD_REQUESTS: &[&str] = &[
    "",
    "not json at all",
    "[1,2]",
    "{}",
    "{\"v\":1}",
    "{\"v\":1,\"id\":-1,\"method\":\"ping\"}",
    "{\"v\":1,\"id\":1.5,\"method\":\"ping\"}",
    "{\"v\":1,\"id\":\"7\",\"method\":\"ping\"}",
    "{\"v\":2,\"id\":4,\"method\":\"ping\"}",
    "{\"id\":4,\"method\":\"ping\"}",
    "{\"v\":\"1\",\"id\":4,\"method\":\"ping\"}",
    "{\"v\":1,\"id\":5}",
    "{\"v\":1,\"id\":5,\"method\":7}",
    "{\"v\":1,\"id\":6,\"method\":\"frobnicate\"}",
    "{\"v\":1,\"id\":6,\"method\":\"frobnicate\",\"params\":[]}",
    "{\"v\":1,\"id\":6,\"method\":\"frobnicate\",\"shard\":3}",
    "{\"v\":1,\"id\":7,\"method\":\"find\"}",
    "{\"v\":1,\"id\":7,\"method\":\"find\",\"params\":{\"ident\":3}}",
    "{\"v\":1,\"id\":7,\"method\":\"find\",\"params\":null}",
    "{\"v\":1,\"id\":7,\"method\":\"find\",\"params\":{\"ident\":\"a\",\"junk\":[1]}}",
    "{\"v\":1,\"id\":8,\"method\":\"get_attr\",\"params\":{\"ident\":\"a\"}}",
    "{\"v\":1,\"id\":9,\"method\":\"estimate_transfer\",\"params\":{\"link\":\"l\",\"bytes\":-1}}",
    "{\"v\":1,\"id\":9,\"method\":\"estimate_transfer\",\"params\":{\"link\":\"l\",\"bytes\":1.5}}",
    "{\"v\":1,\"id\":9,\"method\":\"estimate_transfer\",\"params\":{\"link\":\"l\",\"bytes\":9007199254740994}}",
    "{\"v\":1,\"id\":9,\"method\":\"estimate_transfer\",\"params\":{\"link\":\"l\",\"bytes\":9007199254740992}}",
    "{\"v\":1,\"id\":9,\"method\":\"estimate_transfer\",\"params\":{\"link\":\"l\",\"bytes\":\"12\"}}",
    "{\"v\":1,\"id\":9,\"method\":\"estimate_transfer\",\"params\":{\"bytes\":12}}",
    "{\"v\":1,\"id\":10,\"method\":\"sleep\",\"params\":{\"ms\":1e300}}",
    "{\"v\":1,\"id\":10,\"method\":\"sleep\",\"params\":{}}",
    "{\"v\":1,\"id\":11,\"method\":\"estimate_static_energy\",\"params\":{\"duration_s\":null}}",
    "{\"v\":1,\"id\":11,\"method\":\"estimate_static_energy\",\"params\":{\"duration_s\":\"1\"}}",
    "{\"v\":1,\"id\":11,\"method\":\"estimate_static_energy\",\"params\":{\"duration_s\":1e999}}",
    "{\"v\":1,\"id\":12,\"method\":\"estimate_accelerator_use\",\"params\":{\"link\":\"l\",\"upload_bytes\":1,\"download_bytes\":2,\"compute_s\":0.5}}",
    "{\"v\":1,\"id\":13,\"method\":\"hello\"}",
    "{\"v\":1,\"id\":13,\"method\":\"hello\",\"params\":{\"encodings\":\"binary\"}}",
    "{\"v\":1,\"id\":13,\"method\":\"hello\",\"params\":{\"encodings\":[\"binary\",1]}}",
    "{\"v\":1,\"id\":14,\"method\":\"ping\",\"shard\":42}",
    "{\"v\":1,\"id\":14,\"method\":\"ping\",\"shard\":null}",
    "{\"v\":1,\"id\":14,\"method\":\"find\",\"shard\":42}",
    "{\"v\":1,\"id\":9007199254740993,\"method\":\"ping\"}",
    "{\"v\":1,\"id\":1,\"method\":\"ping\"} x",
    "{\"v\":1,\"id\":3,\"method\":\"pi",
    "{\"v\":1,\"id\":1,\"id\":2,\"method\":\"ping\",\"method\":\"nope\"}",
    "{\"v\":1,\"id\":15,\"method\":\"ping\",\"params\":{\"x\":[[[[{}]]]]},\"extra\":true}",
    "{\"v\":1,\"id\":16,\"method\":\"find\",\"params\":{\"ident\":\"\\u00e9\\ud800\"}}",
];

/// Serve response lines that must fail to parse.
const SERVE_BAD_RESPONSES: &[&str] = &[
    "x",
    "{\"v\":2,\"id\":1,\"ok\":{\"kind\":\"pong\"}}",
    "{\"v\":1,\"ok\":{\"kind\":\"pong\"}}",
    "{\"v\":1,\"id\":1}",
    "{\"v\":1,\"id\":1,\"ok\":{}}",
    "{\"v\":1,\"id\":1,\"ok\":{\"kind\":\"nope\"}}",
    "{\"v\":1,\"id\":1,\"ok\":{\"kind\":\"count\"}}",
    "{\"v\":1,\"id\":1,\"ok\":{\"kind\":\"flag\",\"value\":1}}",
    "{\"v\":1,\"id\":1,\"ok\":{\"kind\":\"node\",\"found\":true}}",
    "{\"v\":1,\"id\":1,\"ok\":{\"kind\":\"transfer\"}}",
    "{\"v\":1,\"id\":1,\"ok\":{\"kind\":\"idents\",\"idents\":[1],\"count\":1}}",
    "{\"v\":1,\"id\":1,\"error\":{\"message\":\"m\"}}",
    "{\"v\":1,\"id\":1,\"error\":\"S410\"}",
];

/// Registry request lines that are not valid requests, or only just are.
const REGISTRY_BAD_REQUESTS: &[&str] = &[
    "garbage",
    "[]",
    "{\"v\":1,\"method\":\"ping\"}",
    "{\"v\":2,\"id\":4,\"method\":\"ping\"}",
    "{\"v\":1,\"id\":4}",
    "{\"v\":1,\"id\":1,\"method\":\"frobnicate\"}",
    "{\"v\":1,\"id\":1,\"method\":\"register\"}",
    "{\"v\":1,\"id\":1,\"method\":\"register\",\"params\":3}",
    "{\"v\":1,\"id\":2,\"method\":\"register\",\"params\":{\"node\":\"n\",\"addr\":\"a\",\"epoch\":1,\"fingerprint\":\"f\",\"inflight\":0,\"ttl_ms\":-1}}",
    "{\"v\":1,\"id\":2,\"method\":\"register\",\"params\":{\"node\":\"n\",\"addr\":\"a\",\"epoch\":9007199254740994,\"fingerprint\":\"f\",\"inflight\":0,\"ttl_ms\":1}}",
    "{\"v\":1,\"id\":2,\"method\":\"register\",\"params\":{\"node\":\"n\",\"addr\":\"a\",\"epoch\":1,\"fingerprint\":\"f\",\"inflight\":0,\"ttl_ms\":1}}",
    "{\"v\":1,\"id\":3,\"method\":\"heartbeat\",\"params\":{\"node\":5}}",
    "{\"v\":1,\"id\":3,\"method\":\"announce\",\"params\":{}}",
    "{\"v\":1,\"id\":3,\"method\":\"subscribe\",\"params\":{\"node\":\"n\"},\"shard\":1}",
];

/// Registry response lines that must fail to parse.
const REGISTRY_BAD_RESPONSES: &[&str] = &[
    "garbage",
    "{\"v\":1,\"id\":1,\"ok\":{\"kind\":\"lease\"}}",
    "{\"v\":1,\"id\":1,\"ok\":{\"kind\":\"lease\",\"generation\":1,\"ttl_ms\":1,\"ring\":5}}",
    "{\"v\":1,\"id\":1,\"ok\":{\"kind\":\"lease\",\"generation\":1,\"ttl_ms\":1,\"ring\":{\"epoch\":\"zz\",\"replication\":1,\"vnodes\":1,\"nodes\":[]}}}",
    "{\"v\":1,\"id\":1,\"ok\":{\"kind\":\"nodes\",\"nodes\":[{}]}}",
    "{\"v\":1,\"id\":1,\"ok\":{\"kind\":\"deregistered\"}}",
    "{\"v\":1,\"id\":1,\"ok\":{\"kind\":\"unknown\"}}",
];

/// Lines probed as registry push events.
const REGISTRY_EVENT_PROBES: &[&str] = &[
    "garbage",
    "[]",
    "{\"v\":1,\"id\":1,\"ok\":{\"kind\":\"pong\"}}",
    "{\"v\":1,\"event\":7}",
    "{\"v\":1,\"event\":{}}",
    "{\"v\":1,\"event\":{\"kind\":\"meteor\"}}",
    "{\"v\":1,\"event\":{\"kind\":\"invalidate\"}}",
    "{\"v\":1,\"event\":{\"kind\":\"ring\"}}",
    "{\"v\":1,\"event\":{\"kind\":\"ring\",\"ring\":{\"epoch\":\"12\",\"replication\":2,\"vnodes\":4,\"nodes\":[\"a\"]}}}",
];

fn with_header(code: u8, id: u64, rest: &[u8]) -> Vec<u8> {
    let mut b = vec![code];
    b.extend_from_slice(&id.to_le_bytes());
    b.extend_from_slice(rest);
    b
}

/// Binary request bodies (after the length prefix) that are malformed.
fn binary_bad_requests() -> Vec<Vec<u8>> {
    let f64s = |x: f64| x.to_le_bytes().to_vec();
    let mut energy_inf = vec![0u8];
    energy_inf.extend(f64s(f64::INFINITY));
    let mut energy_nan = vec![0u8];
    energy_nan.extend(f64s(f64::NAN));
    let mut sleep_big = vec![0u8];
    sleep_big.extend(((1u64 << 53) + 1).to_le_bytes());
    let mut find_bad_utf8 = vec![0u8, 0x00];
    find_bad_utf8.extend(2u32.to_le_bytes());
    find_bad_utf8.extend([0xff, 0xfe]);
    let mut find_undefined_ref = vec![0u8, 0x01];
    find_undefined_ref.extend(3u32.to_le_bytes());
    let mut find_sparse_define = vec![0u8, 0x02];
    find_sparse_define.extend(5u32.to_le_bytes());
    find_sparse_define.extend(1u16.to_le_bytes());
    find_sparse_define.push(b'a');
    let mut find_long_define = vec![0u8, 0x02];
    find_long_define.extend(0u32.to_le_bytes());
    find_long_define.extend(65u16.to_le_bytes());
    find_long_define.extend([b'a'; 65]);
    let mut find_truncated = vec![0u8, 0x00];
    find_truncated.extend(10u32.to_le_bytes());
    find_truncated.extend(b"abc");
    let mut hello_truncated = vec![0u8];
    hello_truncated.extend(3u16.to_le_bytes());
    hello_truncated.extend([0x00, 1, 0, 0, 0, b'j']);
    let mut ping_trailing = vec![0u8];
    ping_trailing.push(0xaa);
    vec![
        vec![],
        vec![0x01],
        with_header(0x01, 5, &[])[..8].to_vec(),
        with_header(0x01, 5, &[]),
        with_header(0xee, 5, &[0]),
        with_header(0x00, 5, &[0]),
        with_header(0x16, 5, &[0]),
        with_header(0x01, 6, &[2]),
        with_header(0x01, 6, &[1, 0x07]),
        with_header(0x01, 7, &ping_trailing),
        with_header(0x0e, 8, &energy_inf),
        with_header(0x0e, 8, &energy_nan),
        with_header(0x0e, 8, &[0, 1, 2]),
        with_header(0x13, 9, &sleep_big),
        with_header(0x04, 10, &find_bad_utf8),
        with_header(0x04, 10, &find_undefined_ref),
        with_header(0x04, 10, &find_sparse_define),
        with_header(0x04, 10, &find_long_define),
        with_header(0x04, 10, &find_truncated),
        with_header(0x15, 11, &hello_truncated),
    ]
}

/// Binary response bodies that must fail to decode.
fn binary_bad_responses() -> Vec<Vec<u8>> {
    vec![
        vec![],
        vec![0x01, 0, 0],
        with_header(0x7f, 1, &[]),
        with_header(0x02, 1, &[0, 0]),
        with_header(0x0a, 1, &[2]),
        with_header(0x0b, 1, &[3]),
        with_header(0x01, 1, &[0]),
        with_header(0x00, 1, &[0x00, 1, 0, 0, 0]),
        with_header(0x0e, 1, &[2, 0, 0, 0, b'{', b'}']),
        with_header(0x0f, 1, &[2, 0, 0, 0, b'[', b']']),
    ]
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn render() -> String {
    let mut out = String::new();
    let o = &mut out;

    // Serve requests: JSON lines, then frames from one interning encoder
    // (so repeated strings become references) and from a stateless one.
    let mut interning = StrEncoder::new();
    for req in serve_requests() {
        writeln!(o, "serve.request.json {}", req.to_json()).unwrap();
        writeln!(o, "serve.request.bin {}", hex(&encode_request(&req, &mut interning))).unwrap();
        let inline = encode_request(&req, &mut StrEncoder::inline_only());
        writeln!(o, "serve.request.bin_inline {}", hex(&inline)).unwrap();
    }
    let mut interning = StrEncoder::new();
    for resp in serve_responses() {
        writeln!(o, "serve.response.json {}", resp.to_json()).unwrap();
        writeln!(o, "serve.response.bin {}", hex(&encode_response(&resp, &mut interning)))
            .unwrap();
        let inline = encode_response(&resp, &mut StrEncoder::inline_only());
        writeln!(o, "serve.response.bin_inline {}", hex(&inline)).unwrap();
    }
    for req in registry_requests() {
        writeln!(o, "registry.request.json {}", req.to_json()).unwrap();
    }
    for resp in registry_responses() {
        writeln!(o, "registry.response.json {}", resp.to_json()).unwrap();
    }
    for ev in registry_events() {
        writeln!(o, "registry.event.json {}", ev.to_json()).unwrap();
    }

    // Malformed input: the recovered id and the error code, or the
    // re-serialized request when the line was accepted.
    for line in SERVE_BAD_REQUESTS {
        let verdict = match parse_request(line) {
            Ok(req) => format!("ok {}", req.to_json()),
            Err((id, e)) => format!("err id={id:?} code={}", e.code),
        };
        writeln!(o, "serve.parse_request {line:?} -> {verdict}").unwrap();
    }
    for line in SERVE_BAD_RESPONSES {
        let verdict = if parse_response(line).is_ok() { "ok" } else { "err" };
        writeln!(o, "serve.parse_response {line:?} -> {verdict}").unwrap();
    }
    for body in binary_bad_requests() {
        let verdict = match decode_request(&body, &mut StrDecoder::new()) {
            Ok(req) => format!("ok {}", req.to_json()),
            Err((id, e)) => format!("err id={id:?} code={}", e.code),
        };
        writeln!(o, "serve.decode_request {} -> {verdict}", hex(&body)).unwrap();
    }
    for body in binary_bad_responses() {
        let verdict = if decode_response(&body, &mut StrDecoder::new()).is_ok() { "ok" } else { "err" };
        writeln!(o, "serve.decode_response {} -> {verdict}", hex(&body)).unwrap();
    }
    for line in REGISTRY_BAD_REQUESTS {
        let verdict = match reg::parse_request(line) {
            Ok(req) => format!("ok {}", req.to_json()),
            Err((id, e)) => format!("err id={id:?} code={}", e.code),
        };
        writeln!(o, "registry.parse_request {line:?} -> {verdict}").unwrap();
    }
    for line in REGISTRY_BAD_RESPONSES {
        let verdict = if reg::parse_response(line).is_ok() { "ok" } else { "err" };
        writeln!(o, "registry.parse_response {line:?} -> {verdict}").unwrap();
    }
    for line in REGISTRY_EVENT_PROBES {
        let verdict = match reg::parse_event(line) {
            Ok(Some(ev)) => format!("event {}", ev.to_json()),
            Ok(None) => "not an event".to_string(),
            Err(_) => "err".to_string(),
        };
        writeln!(o, "registry.parse_event {line:?} -> {verdict}").unwrap();
    }
    out
}

#[test]
fn wire_bytes_and_error_codes_match_the_golden_file() {
    let actual = render();
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/wire.txt");
    let actual_path = concat!(env!("CARGO_TARGET_TMPDIR"), "/wire.actual");
    let golden = std::fs::read_to_string(golden_path).unwrap_or_default();
    if actual == golden {
        return;
    }
    std::fs::write(actual_path, &actual).expect("write the rendered corpus");
    let diff = actual
        .lines()
        .zip(golden.lines())
        .enumerate()
        .find(|(_, (a, g))| a != g)
        .map(|(n, (a, g))| format!("line {}:\n  golden: {g}\n  actual: {a}", n + 1))
        .unwrap_or_else(|| {
            format!("line counts differ: golden {}, actual {}", golden.lines().count(), actual.lines().count())
        });
    panic!("wire output differs from {golden_path} (rendered text in {actual_path})\n{diff}");
}

#[test]
fn corpus_covers_every_message_kind() {
    let names = |v: Vec<String>| v.into_iter().collect::<std::collections::BTreeSet<_>>();
    let methods = names(serve_requests().iter().map(|r| r.method.name().to_string()).collect());
    assert_eq!(methods.len(), xpdl_serve::codec::METHOD_TABLE.len(), "serve methods");
    let kinds: BTreeMap<String, ()> = serve_responses()
        .iter()
        .filter_map(|r| r.result.as_ref().ok())
        .map(|r| {
            let json = Response::ok(0, r.clone()).to_json();
            let kind = json.split("\"kind\":\"").nth(1).unwrap().split('"').next().unwrap();
            (kind.to_string(), ())
        })
        .collect();
    // Every reply kind plus `error`.
    assert_eq!(kinds.len() + 1, xpdl_serve::codec::REPLY_TABLE.len(), "serve replies");
    let registry = names(registry_requests().iter().map(|r| r.method.name().to_string()).collect());
    assert_eq!(registry.len(), 9, "registry methods");
}
