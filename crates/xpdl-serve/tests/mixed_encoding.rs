//! End-to-end tests of encoding negotiation (`docs/WIRE.md` §3) and of
//! JSON and binary clients sharing one server: answer parity across
//! encodings, the hello-first rule, graceful refusals, and the frame
//! fault taxonomy (S412 keeps the connection, S414/S415 close it).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;
use xpdl_registry::server::MAX_LINE_BYTES;
use xpdl_runtime::RuntimeModel;
use xpdl_serve::codec::{self, StrDecoder, StrEncoder};
use xpdl_serve::{
    codes, parse_response, Engine, EngineOptions, Method, ModelSource, Reply, Request, Response,
    Server, ServerOptions,
};

fn gpu_server_model() -> RuntimeModel {
    let model = xpdl_models::loader::elaborate_system("liu_gpu_server").expect("compose fixture");
    RuntimeModel::from_element(&model.root)
}

fn start_server(server_opts: ServerOptions) -> Server {
    let engine = Arc::new(
        Engine::new(ModelSource::Fixed(Box::new(gpu_server_model())), EngineOptions::default())
            .expect("engine boots"),
    );
    Server::start(engine, "127.0.0.1:0", server_opts).expect("server binds")
}

/// A JSON-lines client that can switch itself to binary mid-connection,
/// exactly as the spec's negotiation ladder describes.
struct TestClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    enc: StrEncoder,
    dec: StrDecoder,
}

impl TestClient {
    fn connect(server: &Server) -> TestClient {
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(Duration::from_secs(20))).ok();
        let writer = stream.try_clone().expect("clone");
        TestClient {
            writer,
            reader: BufReader::new(stream),
            enc: StrEncoder::new(),
            dec: StrDecoder::new(),
        }
    }

    fn call_json_raw(&mut self, line: &str) -> Response {
        self.writer.write_all(line.as_bytes()).expect("send");
        self.writer.write_all(b"\n").expect("send");
        let mut resp = String::new();
        self.reader.read_line(&mut resp).expect("recv");
        assert!(!resp.is_empty(), "server closed the connection unexpectedly");
        parse_response(resp.trim()).expect("parseable response")
    }

    fn call_json(&mut self, req: &Request) -> Response {
        self.call_json_raw(&req.to_json())
    }

    /// Negotiate binary; panics if the server chooses anything else.
    fn switch_to_binary(&mut self) {
        let ack = self.call_json(&codec::client_hello(0));
        match ack.result {
            Ok(Reply::Hello { encoding }) if encoding == codec::BINARY => {}
            other => panic!("expected binary hello ack, got {other:?}"),
        }
    }

    fn send_binary(&mut self, req: &Request) {
        let frame = codec::encode_request(req, &mut self.enc);
        self.writer.write_all(&frame).expect("send frame");
    }

    fn recv_binary(&mut self) -> Option<Response> {
        let body = codec::read_frame(&mut self.reader, codec::MAX_RESPONSE_FRAME)
            .expect("read frame")?;
        Some(codec::decode_response(&body, &mut self.dec).expect("decodable response"))
    }

    fn call_binary(&mut self, req: &Request) -> Response {
        self.send_binary(req);
        self.recv_binary().expect("server closed the connection unexpectedly")
    }

    /// Assert the server has closed this connection: poke it with a ping
    /// frame and require EOF or a reset (writing into the closed socket
    /// may elicit an RST that clobbers the clean FIN).
    fn assert_closed(&mut self) {
        let frame = codec::encode_request(&Request::new(0, Method::Ping), &mut self.enc);
        let _ = self.writer.write_all(&frame);
        match codec::read_frame(&mut self.reader, codec::MAX_RESPONSE_FRAME) {
            Ok(None) => {}
            Err(e) if matches!(
                e.kind(),
                std::io::ErrorKind::ConnectionReset
                    | std::io::ErrorKind::UnexpectedEof
                    | std::io::ErrorKind::BrokenPipe
            ) => {}
            other => panic!("expected a closed connection, got {other:?}"),
        }
    }
}

/// The query mix both clients run for the parity test, covering interned
/// strings, optionals, floats, and the embedded-JSON payloads. The last
/// two overflow to an infinite energy (27 W × 1e308 s, and a 1e308 W
/// compute phase), which both encodings must read back as NaN.
fn parity_mix() -> Vec<Method> {
    vec![
        Method::Ping,
        Method::NumCores,
        Method::NumCudaDevices,
        Method::TotalStaticPower,
        Method::ModelInfo,
        Method::Health,
        Method::Find { ident: "gpu1".into() },
        Method::Find { ident: "ghost".into() },
        Method::GetAttr { ident: "gpu1".into(), attr: "id".into() },
        Method::GetNumber { ident: "connection1".into(), attr: "max_bandwidth".into() },
        Method::ElementsOfKind { kind: "core".into() },
        Method::HasInstalled { prefix: "cuda".into() },
        Method::EstimateTransfer { link: "connection1".into(), bytes: 1 << 20 },
        Method::EstimateStaticEnergy { duration_s: 2.5 },
        Method::EstimateAcceleratorUse {
            link: "connection1".into(),
            upload_bytes: 1 << 20,
            download_bytes: 1 << 10,
            compute_s: 0.5,
            dynamic_power_w: 25.0,
        },
        Method::Shards,
        Method::Metrics,
        Method::EstimateStaticEnergy { duration_s: 1e308 },
        Method::EstimateAcceleratorUse {
            link: "connection1".into(),
            upload_bytes: 1 << 20,
            download_bytes: 1 << 10,
            compute_s: 1e308,
            dynamic_power_w: 1e308,
        },
    ]
}

#[test]
fn binary_answers_match_json_answers() {
    let server = start_server(ServerOptions::default());
    let mut json = TestClient::connect(&server);
    let mut binary = TestClient::connect(&server);
    binary.switch_to_binary();

    // Warm-up: the per-method latency histograms register lazily on
    // first use, so let `metrics` see itself before comparing shapes.
    let _ = json.call_json(&Request::new(1, Method::Metrics));

    let mut nan_replies = 0;
    for (n, method) in parity_mix().into_iter().enumerate() {
        let id = 1000 + n as u64;
        let via_json = json.call_json(&Request::new(id, method.clone()));
        let via_binary = binary.call_binary(&Request::new(id, method.clone()));
        assert_eq!(via_json.id, id);
        assert_eq!(via_binary.id, id);
        match (&method, via_json.result, via_binary.result) {
            // Metrics counters move between the two calls (each call is
            // itself counted); compare shape, not values. Only the
            // daemon's own `serve.` instruments: the registry is
            // process-wide, and other tests in this binary add `repo.`
            // instruments to it while they build their fixtures.
            (Method::Metrics, Ok(Reply::Metrics(a)), Ok(Reply::Metrics(b))) => {
                let serve = |k: &&String| k.starts_with("serve.");
                let keys = |m: &xpdl_obs::MetricsSnapshot| {
                    (
                        m.counters.keys().filter(serve).cloned().collect::<Vec<_>>(),
                        m.histograms.keys().filter(serve).cloned().collect::<Vec<_>>(),
                    )
                };
                assert_eq!(keys(&a), keys(&b), "metrics shape for {method:?}");
            }
            // Debug text compares NaN equal to NaN, which `==` does not.
            (_, j, b) => {
                let (j, b) = (format!("{j:?}"), format!("{b:?}"));
                assert_eq!(j, b, "parity for {method:?}");
                nan_replies += usize::from(j.contains("NaN"));
            }
        }
    }
    assert_eq!(nan_replies, 2, "both overflowing estimates reach the wire as NaN");
}

#[test]
fn repeated_binary_calls_reuse_the_intern_tables() {
    let server = start_server(ServerOptions::default());
    let mut client = TestClient::connect(&server);
    client.switch_to_binary();

    // Same idents every time: after the first exchange both direction
    // tables are warm, and every answer must still be right.
    let warm = client.call_binary(&Request::new(
        1,
        Method::GetAttr { ident: "gpu1".into(), attr: "id".into() },
    ));
    let expected = warm.result.expect("attr reply");
    for id in 2..50u64 {
        let resp = client.call_binary(&Request::new(
            id,
            Method::GetAttr { ident: "gpu1".into(), attr: "id".into() },
        ));
        assert_eq!(resp.id, id);
        assert_eq!(resp.result.expect("attr reply"), expected);
    }
}

#[test]
fn hello_after_traffic_is_rejected_and_connection_survives() {
    let server = start_server(ServerOptions::default());
    let mut client = TestClient::connect(&server);

    let resp = client.call_json(&Request::new(1, Method::Ping));
    assert_eq!(resp.result.unwrap(), Reply::Pong);

    // Rule 1 (docs/WIRE.md §3.2): hello is only a negotiation when it is
    // the first message on the connection.
    let resp = client.call_json(&codec::client_hello(2));
    let err = resp.result.unwrap_err();
    assert_eq!(err.code, codes::INVALID_PARAMS);

    // Still JSON, still usable.
    let resp = client.call_json(&Request::new(3, Method::Ping));
    assert_eq!(resp.result.unwrap(), Reply::Pong);
}

#[test]
fn unparsed_garbage_counts_as_traffic_for_the_hello_rule() {
    let server = start_server(ServerOptions::default());
    let mut client = TestClient::connect(&server);

    let resp = client.call_json_raw("not json at all");
    assert_eq!(resp.result.unwrap_err().code, codes::BAD_REQUEST);

    let resp = client.call_json(&codec::client_hello(1));
    assert_eq!(resp.result.unwrap_err().code, codes::INVALID_PARAMS);
}

#[test]
fn hello_with_no_overlap_keeps_json_alive() {
    let server = start_server(ServerOptions::default());
    let mut client = TestClient::connect(&server);

    let offer = Request::new(1, Method::Hello { encodings: vec!["cbor".into(), "xml".into()] });
    let resp = client.call_json(&offer);
    assert_eq!(resp.result.unwrap_err().code, codes::INVALID_PARAMS);

    let resp = client.call_json(&Request::new(2, Method::Ping));
    assert_eq!(resp.result.unwrap(), Reply::Pong);
}

#[test]
fn hello_preferring_json_acks_json_and_stays_json() {
    let server = start_server(ServerOptions::default());
    let mut client = TestClient::connect(&server);

    let offer = Request::new(1, Method::Hello { encodings: vec!["json".into(), "binary".into()] });
    let resp = client.call_json(&offer);
    assert_eq!(resp.result.unwrap(), Reply::Hello { encoding: codec::JSON.into() });

    let resp = client.call_json(&Request::new(2, Method::Ping));
    assert_eq!(resp.result.unwrap(), Reply::Pong);
}

#[test]
fn invalid_params_keeps_the_binary_connection_open() {
    let server = start_server(ServerOptions::default());
    let mut client = TestClient::connect(&server);
    client.switch_to_binary();

    // bytes over 2^53 violates the u53 rule: S412, connection survives.
    let mut bad = Request::new(7, Method::EstimateTransfer { link: "connection1".into(), bytes: 0 });
    let mut frame = codec::encode_request(&bad, &mut client.enc);
    // Patch the trailing 8-byte `bytes` field to u64::MAX in place.
    let n = frame.len();
    frame[n - 8..].copy_from_slice(&u64::MAX.to_le_bytes());
    client.writer.write_all(&frame).expect("send frame");
    let resp = client.recv_binary().expect("connection stays open");
    assert_eq!(resp.id, 7);
    assert_eq!(resp.result.unwrap_err().code, codes::INVALID_PARAMS);

    bad.id = 8;
    let resp = client.call_binary(&bad);
    assert_eq!(resp.id, 8);
    assert!(matches!(resp.result, Ok(Reply::Transfer(_))), "connection no longer serves");
}

#[test]
fn structural_frame_faults_close_the_connection_with_s415() {
    let server = start_server(ServerOptions::default());
    let mut client = TestClient::connect(&server);
    client.switch_to_binary();

    // Unknown method code 0xff with an intact header: addressable fault.
    let mut body = vec![0xffu8];
    body.extend_from_slice(&99u64.to_le_bytes());
    body.push(0); // no shard key
    let mut frame = (body.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&body);
    client.writer.write_all(&frame).expect("send frame");

    let resp = client.recv_binary().expect("error frame before close");
    assert_eq!(resp.id, 99);
    assert_eq!(resp.result.unwrap_err().code, codes::BAD_FRAME);

    // Framing is unreliable after a structural fault: server closes.
    client.assert_closed();
}

#[test]
fn oversize_frames_are_rejected_with_s414_and_closed() {
    let server = start_server(ServerOptions::default());
    let mut client = TestClient::connect(&server);
    client.switch_to_binary();

    // Declare a body one byte over the 64 KiB cap; the server must refuse
    // on the declared length alone, without waiting for the bytes.
    let len = MAX_LINE_BYTES as u32 + 1;
    client.writer.write_all(&len.to_le_bytes()).expect("send prefix");
    let resp = client.recv_binary().expect("error frame before close");
    assert_eq!(resp.result.unwrap_err().code, codes::LINE_TOO_LONG);
    client.assert_closed();
}

#[test]
fn mixed_clients_hammer_one_server_without_cross_talk() {
    let server = Arc::new(start_server(ServerOptions::default()));
    let mut handles = Vec::new();
    for worker in 0..4u64 {
        let server = Arc::clone(&server);
        handles.push(std::thread::spawn(move || {
            let mut client = TestClient::connect(&server);
            let binary = worker % 2 == 0;
            if binary {
                client.switch_to_binary();
            }
            for n in 0..200u64 {
                let id = worker * 1_000_000 + n;
                let req = Request::new(id, Method::NumCores);
                let resp =
                    if binary { client.call_binary(&req) } else { client.call_json(&req) };
                assert_eq!(resp.id, id, "response correlation broke");
                match resp.result {
                    Ok(Reply::Count(_)) => {}
                    other => panic!("worker {worker} call {n}: {other:?}"),
                }
            }
        }));
    }
    for h in handles {
        h.join().expect("client thread");
    }
}
