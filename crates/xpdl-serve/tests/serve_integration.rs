//! End-to-end tests of the TCP daemon: correctness against the direct
//! query API, protocol error handling, backpressure, reply order, hot
//! reload under live traffic, and clean remote shutdown.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xpdl_registry::server::MAX_LINE_BYTES;
use xpdl_runtime::{RuntimeModel, XpdlHandle};
use xpdl_serve::codec::{StrDecoder, StrEncoder};
use xpdl_serve::server::WRITE_TIMEOUT;
use xpdl_serve::{
    codec, codes, parse_response, Engine, EngineOptions, Method, ModelSource, Reply, Request,
    Server, ServerOptions,
};

/// The paper's GPU server model (Listing 7 lineage): 2500 cores, one
/// CUDA device, `connection1` interconnect.
fn gpu_server_model() -> RuntimeModel {
    let model = xpdl_models::loader::elaborate_system("liu_gpu_server").expect("compose fixture");
    RuntimeModel::from_element(&model.root)
}

fn start_server(engine_opts: EngineOptions, server_opts: ServerOptions) -> Server {
    let engine = Arc::new(
        Engine::new(ModelSource::Fixed(Box::new(gpu_server_model())), engine_opts)
            .expect("engine boots"),
    );
    Server::start(engine, "127.0.0.1:0", server_opts).expect("server binds")
}

/// A tiny blocking client: send one line, read one line.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(server: &Server) -> Client {
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream.set_nodelay(true).ok();
        let writer = stream.try_clone().expect("clone");
        Client { writer, reader: BufReader::new(stream) }
    }

    fn send(&mut self, line: &str) {
        self.writer.write_all(line.as_bytes()).expect("send");
        self.writer.write_all(b"\n").expect("send");
    }

    fn recv(&mut self) -> xpdl_serve::Response {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("recv");
        parse_response(line.trim()).expect("parseable response")
    }

    fn call(&mut self, line: &str) -> xpdl_serve::Response {
        self.send(line);
        self.recv()
    }
}

/// Run `f` on its own thread and fail if it outlives `limit`, so a
/// missing wake fails the test instead of hanging it.
fn within(limit: Duration, f: impl FnOnce() + Send + 'static) {
    let t = std::thread::spawn(f);
    let start = Instant::now();
    while !t.is_finished() {
        assert!(start.elapsed() < limit, "still blocked after {limit:?}");
        std::thread::sleep(Duration::from_millis(5));
    }
    t.join().unwrap();
}

#[test]
fn tcp_answers_match_the_direct_query_api() {
    let server = start_server(EngineOptions::default(), ServerOptions::default());
    let direct = XpdlHandle::from_model(gpu_server_model());
    let mut client = Client::connect(&server);

    let resp = client.call(r#"{"v":1,"id":1,"method":"num_cores"}"#);
    assert_eq!(resp.result.unwrap(), Reply::Count(direct.num_cores() as u64));

    let resp = client.call(r#"{"v":1,"id":2,"method":"num_cuda_devices"}"#);
    assert_eq!(resp.result.unwrap(), Reply::Count(direct.num_cuda_devices() as u64));

    let resp = client.call(r#"{"v":1,"id":3,"method":"get_attr","params":{"ident":"gpu1","attr":"id"}}"#);
    assert_eq!(
        resp.result.unwrap(),
        Reply::Attr(direct.get_attr("gpu1", "id").map(str::to_string))
    );

    let resp = client.call(
        r#"{"v":1,"id":4,"method":"estimate_transfer","params":{"link":"connection1","bytes":1048576}}"#,
    );
    let direct_est =
        xpdl_runtime::estimate_transfer(direct.model(), "connection1", 1 << 20).expect("estimate");
    match resp.result.unwrap() {
        Reply::Transfer(Some(t)) => {
            assert!((t.time_s - direct_est.time_s).abs() < 1e-12);
            assert!((t.bandwidth_bps - direct_est.bandwidth_bps).abs() < 1e-3);
        }
        other => panic!("expected a transfer estimate, got {other:?}"),
    }

    let resp = client.call(r#"{"v":1,"id":5,"method":"find","params":{"ident":"ghost"}}"#);
    assert_eq!(resp.result.unwrap(), Reply::Node(None));
}

#[test]
fn protocol_errors_keep_the_connection_alive() {
    let server = start_server(EngineOptions::default(), ServerOptions::default());
    let mut client = Client::connect(&server);

    // S410: not even JSON.
    let resp = client.call("this is not json");
    assert_eq!(resp.result.unwrap_err().code, codes::BAD_REQUEST);

    // S411: unknown method, id still echoed.
    let resp = client.call(r#"{"v":1,"id":42,"method":"frobnicate"}"#);
    assert_eq!(resp.id, 42);
    assert_eq!(resp.result.unwrap_err().code, codes::UNKNOWN_METHOD);

    // S413: wrong protocol version.
    let resp = client.call(r#"{"v":99,"id":43,"method":"ping"}"#);
    assert_eq!(resp.id, 43);
    assert_eq!(resp.result.unwrap_err().code, codes::BAD_VERSION);

    // S412: method known, params bad.
    let resp = client.call(r#"{"v":1,"id":44,"method":"find","params":{}}"#);
    assert_eq!(resp.result.unwrap_err().code, codes::INVALID_PARAMS);

    // ...and the same connection still answers real queries.
    let resp = client.call(r#"{"v":1,"id":45,"method":"ping"}"#);
    assert_eq!(resp.id, 45);
    assert_eq!(resp.result.unwrap(), Reply::Pong);
}

#[test]
fn overload_sheds_instead_of_queueing() {
    let server = start_server(
        EngineOptions { allow_debug: true, allow_shutdown: true },
        ServerOptions { max_inflight: 2 },
    );

    // Two debug sleeps occupy both permits. They go out on two
    // connections, since one connection runs its requests in turn.
    let mut sleepers = [Client::connect(&server), Client::connect(&server)];
    sleepers[0].send(r#"{"v":1,"id":1,"method":"sleep","params":{"ms":600}}"#);
    sleepers[1].send(r#"{"v":1,"id":2,"method":"sleep","params":{"ms":600}}"#);

    // Give the reader threads a moment to admit both.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while server.engine().stats().inflight.get() < 2 {
        assert!(std::time::Instant::now() < deadline, "sleeps never admitted");
        std::thread::sleep(Duration::from_millis(5));
    }

    // The third concurrent request is shed with S420, not queued.
    let mut victim = Client::connect(&server);
    let resp = victim.call(r#"{"v":1,"id":3,"method":"ping"}"#);
    let err = resp.result.unwrap_err();
    assert_eq!(err.code, codes::OVERLOADED);
    assert_eq!(resp.id, 3);
    assert!(err.message.contains("overloaded"), "{err}");

    // After the sleeps drain, admission reopens.
    for sleeper in &mut sleepers {
        assert_eq!(sleeper.recv().result.unwrap(), Reply::Slept { ms: 600 });
    }
    let resp = victim.call(r#"{"v":1,"id":4,"method":"ping"}"#);
    assert_eq!(resp.result.unwrap(), Reply::Pong);
    assert!(server.engine().stats().shed.get() >= 1);
}

#[test]
fn replies_leave_in_receipt_order() {
    let server = start_server(
        EngineOptions { allow_debug: true, allow_shutdown: true },
        ServerOptions::default(),
    );
    let sleep = Request::new(1, Method::Sleep { ms: 300 });
    let ping = Request::new(2, Method::Ping);
    let expected = [(1, Reply::Slept { ms: 300 }), (2, Reply::Pong)];

    // JSON: both lines in one write, so the ping is waiting to be read
    // while the sleep runs; its reply must still come second.
    let mut json = Client::connect(&server);
    json.send(&format!("{}\n{}", sleep.to_json(), ping.to_json()));
    let replies = [json.recv(), json.recv()].map(|r| (r.id, r.result.unwrap()));
    assert_eq!(replies, expected, "JSON replies overtook each other");

    // Binary: the same pair as two frames after the hello.
    let mut binary = Client::connect(&server);
    let ack = binary.call(&codec::client_hello(3).to_json());
    assert_eq!(ack.result.unwrap(), Reply::Hello { encoding: codec::BINARY.to_string() });
    let mut strings = StrEncoder::new();
    let mut frames = codec::encode_request(&sleep, &mut strings);
    frames.extend(codec::encode_request(&ping, &mut strings));
    binary.writer.write_all(&frames).expect("send");
    let mut strings = StrDecoder::new();
    let mut recv = || {
        let body = codec::read_frame(&mut binary.reader, codec::MAX_RESPONSE_FRAME)
            .expect("recv")
            .expect("a reply frame");
        let resp = codec::decode_response(&body, &mut strings).expect("a valid frame");
        (resp.id, resp.result.unwrap())
    };
    let replies = [recv(), recv()];
    assert_eq!(replies, expected, "binary replies overtook each other");
}

#[test]
fn hot_reload_swaps_under_live_traffic_without_errors() {
    use xpdl_core::XpdlDocument;
    let dir = std::env::temp_dir().join(format!("xpdl_serve_it_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("m.xpdlrt");
    let build = |cores: usize| {
        let mut xml = format!("<system id=\"s\" expect_cores=\"{cores}\"><cpu id=\"c\">");
        for i in 0..cores {
            xml.push_str(&format!("<core id=\"k{i}\"/>"));
        }
        xml.push_str("</cpu></system>");
        RuntimeModel::from_element(XpdlDocument::parse_str(&xml).unwrap().root())
    };
    xpdl_runtime::format::save_file(&build(2), &path).unwrap();

    let engine = Arc::new(
        Engine::new(ModelSource::File(path.clone()), EngineOptions::default()).unwrap(),
    );
    let server =
        Server::start(Arc::clone(&engine), "127.0.0.1:0", ServerOptions::default()).unwrap();

    // Client threads stream queries; every answer must be internally
    // consistent (num_cores equals the served model's own declaration).
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let clients: Vec<_> = (0..4)
        .map(|_| {
            let stop = Arc::clone(&stop);
            let addr = server.local_addr();
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).unwrap();
                stream.set_nodelay(true).ok();
                let mut writer = stream.try_clone().unwrap();
                let mut reader = BufReader::new(stream);
                let mut line = String::new();
                let mut n = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Acquire) {
                    writer.write_all(b"{\"v\":1,\"id\":1,\"method\":\"num_cores\"}\n").unwrap();
                    line.clear();
                    reader.read_line(&mut line).unwrap();
                    let resp = parse_response(line.trim()).unwrap();
                    match resp.result.expect("queries never fail during reloads") {
                        Reply::Count(c) => {
                            assert!(c == 2 || c == 5, "impossible core count {c}")
                        }
                        other => panic!("{other:?}"),
                    }
                    n += 1;
                }
                n
            })
        })
        .collect();

    // Flip the model file back and forth, forcing real swaps.
    let mut expected_epoch = 0;
    for round in 0..10 {
        let cores = if round % 2 == 0 { 5 } else { 2 };
        let tmp = dir.join("m.next");
        xpdl_runtime::format::save_file(&build(cores), &tmp).unwrap();
        std::fs::rename(&tmp, &path).unwrap();
        let (epoch, changed) = engine.reload().expect("reload");
        assert!(changed, "round {round} should swap");
        expected_epoch += 1;
        assert_eq!(epoch, expected_epoch);
        std::thread::sleep(Duration::from_millis(20));
    }
    stop.store(true, std::sync::atomic::Ordering::Release);
    let total: u64 = clients.into_iter().map(|c| c.join().expect("client panicked")).sum();
    assert!(total > 0, "clients never got a query through");
    assert_eq!(engine.stats().errors.get(), 0);
    assert_eq!(engine.registry().current_epoch(), 10);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn remote_shutdown_drains_cleanly() {
    let server = start_server(
        EngineOptions { allow_debug: false, allow_shutdown: true },
        ServerOptions::default(),
    );
    // One idle connection per encoding, each with its reader blocked in
    // `read`: the protocol `shutdown` alone must wake them and the
    // accept loop.
    let mut idle_json = Client::connect(&server);
    assert_eq!(idle_json.call(r#"{"v":1,"id":1,"method":"ping"}"#).result.unwrap(), Reply::Pong);
    let mut idle_binary = Client::connect(&server);
    let ack = idle_binary.call(&codec::client_hello(1).to_json());
    assert_eq!(ack.result.unwrap(), Reply::Hello { encoding: codec::BINARY.to_string() });
    let mut client = Client::connect(&server);
    let resp = client.call(r#"{"v":1,"id":1,"method":"shutdown"}"#);
    assert_eq!(resp.result.unwrap(), Reply::ShuttingDown);
    assert!(server.stopping());
    within(Duration::from_secs(5), move || server.join());
    let mut rest = Vec::new();
    assert_eq!(idle_json.reader.read_to_end(&mut rest).unwrap(), 0);
    assert_eq!(idle_binary.reader.read_to_end(&mut rest).unwrap(), 0);
}

#[test]
fn a_client_that_stops_reading_is_disconnected() {
    let server = start_server(EngineOptions::default(), ServerOptions::default());
    // Pipeline requests with large replies and never read one: the
    // daemon's writes to this socket stall once the buffers fill.
    let stalled = TcpStream::connect(server.local_addr()).expect("connect");
    stalled.set_write_timeout(Some(Duration::from_secs(20))).unwrap();
    let started = Instant::now();
    let flood = std::thread::spawn(move || {
        let req = concat!(
            r#"{"v":1,"id":1,"method":"elements_of_kind","params":{"kind":"core"}}"#,
            "\n"
        );
        loop {
            if let Err(e) = (&stalled).write_all(req.as_bytes()) {
                return e.kind();
            }
        }
    });
    // Meanwhile a second client keeps getting answers.
    let mut other = Client::connect(&server);
    while !flood.is_finished() {
        assert!(started.elapsed() < Duration::from_secs(30), "flood never ended");
        assert_eq!(other.call(r#"{"v":1,"id":2,"method":"ping"}"#).result.unwrap(), Reply::Pong);
        std::thread::sleep(Duration::from_millis(10));
    }
    let kind = flood.join().unwrap();
    assert!(
        !matches!(kind, ErrorKind::WouldBlock | ErrorKind::TimedOut),
        "the stalled client was never disconnected"
    );
    // The timeout restarts whenever a write makes progress, and a
    // stalled peer's kernel still absorbs a little now and then, so a
    // reply can wait out a few timeouts before one passes with none.
    let limit = WRITE_TIMEOUT * 4 + Duration::from_secs(5);
    assert!(started.elapsed() < limit, "disconnected after {:?}", started.elapsed());
    assert_eq!(other.call(r#"{"v":1,"id":3,"method":"ping"}"#).result.unwrap(), Reply::Pong);
    server.shutdown();
    within(Duration::from_secs(5), move || server.join());
}

#[test]
fn shutdown_is_refused_when_disabled() {
    let server = start_server(
        EngineOptions { allow_debug: false, allow_shutdown: false },
        ServerOptions::default(),
    );
    let mut client = Client::connect(&server);
    let resp = client.call(r#"{"v":1,"id":1,"method":"shutdown"}"#);
    assert_eq!(resp.result.unwrap_err().code, codes::SHUTDOWN_DISABLED);
    assert!(!server.stopping());
    // Still serving.
    let resp = client.call(r#"{"v":1,"id":2,"method":"ping"}"#);
    assert_eq!(resp.result.unwrap(), Reply::Pong);
}

#[test]
fn oversized_lines_are_rejected_with_s414() {
    let server = start_server(EngineOptions::default(), ServerOptions::default());
    let mut client = Client::connect(&server);
    // A `find` request padded to `len` bytes, newline excluded.
    let find = |len: usize| {
        let frame = r#"{"v":1,"id":1,"method":"find","params":{"ident":""}}"#;
        let ident = "x".repeat(len - frame.len());
        format!(r#"{{"v":1,"id":1,"method":"find","params":{{"ident":"{ident}"}}}}"#)
    };
    // The cap is 64 KiB: a line of exactly that is served...
    let resp = client.call(&find(MAX_LINE_BYTES));
    assert_eq!(resp.result.unwrap(), Reply::Node(None));
    // ...and one byte more is refused.
    let resp = client.call(&find(MAX_LINE_BYTES + 1));
    assert_eq!(resp.result.unwrap_err().code, codes::LINE_TOO_LONG);
}
