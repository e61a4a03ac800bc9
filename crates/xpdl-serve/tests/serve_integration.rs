//! End-to-end tests of the TCP daemon: correctness against the direct
//! query API, protocol error handling, backpressure, queue deadlines,
//! hot reload under live traffic, and clean remote shutdown.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;
use xpdl_runtime::{RuntimeModel, XpdlHandle};
use xpdl_serve::{
    codes, parse_response, Engine, EngineOptions, ModelSource, Reply, Server, ServerOptions,
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
        ServerOptions { workers: 2, max_inflight: 2, deadline: None, ..Default::default() },
    );

    // Two debug sleeps occupy both permits (and both workers).
    let mut sleeper = Client::connect(&server);
    sleeper.send(r#"{"v":1,"id":1,"method":"sleep","params":{"ms":600}}"#);
    sleeper.send(r#"{"v":1,"id":2,"method":"sleep","params":{"ms":600}}"#);

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
    assert_eq!(sleeper.recv().result.unwrap(), Reply::Slept { ms: 600 });
    assert_eq!(sleeper.recv().result.unwrap(), Reply::Slept { ms: 600 });
    let resp = victim.call(r#"{"v":1,"id":4,"method":"ping"}"#);
    assert_eq!(resp.result.unwrap(), Reply::Pong);
    assert!(server.engine().stats().shed.get() >= 1);
}

#[test]
fn queued_requests_past_their_deadline_get_s421() {
    let server = start_server(
        EngineOptions { allow_debug: true, allow_shutdown: true },
        ServerOptions {
            workers: 1,
            max_inflight: 64,
            deadline: Some(Duration::from_millis(100)),
            ..Default::default()
        },
    );
    let mut client = Client::connect(&server);
    // One sleep monopolizes the only worker; the second sleep sits in
    // the queue past its 100ms deadline. (Cheap methods run inline on
    // the reader thread and never queue, so only pool methods expire.)
    client.send(r#"{"v":1,"id":1,"method":"sleep","params":{"ms":500}}"#);
    client.send(r#"{"v":1,"id":2,"method":"sleep","params":{"ms":1}}"#);
    let mut by_id = std::collections::BTreeMap::new();
    for _ in 0..2 {
        let resp = client.recv();
        by_id.insert(resp.id, resp.result);
    }
    assert_eq!(by_id.remove(&1).unwrap().unwrap(), Reply::Slept { ms: 500 });
    let err = by_id.remove(&2).unwrap().unwrap_err();
    assert_eq!(err.code, codes::DEADLINE_EXCEEDED);
    assert_eq!(
        server.engine().stats().deadline_exceeded.get(),
        1
    );
}

#[test]
fn json_cheap_calls_do_not_queue_behind_the_pool() {
    let server = start_server(
        EngineOptions { allow_debug: true, allow_shutdown: true },
        ServerOptions { workers: 1, ..Default::default() },
    );
    let mut client = Client::connect(&server);
    // The sleep occupies the only worker; the ping behind it on the same
    // JSON connection runs inline and must be answered first.
    client.send(r#"{"v":1,"id":1,"method":"sleep","params":{"ms":300}}"#);
    client.send(r#"{"v":1,"id":2,"method":"ping"}"#);
    let first = client.recv();
    assert_eq!(first.id, 2, "ping waited behind the sleep");
    assert_eq!(first.result.unwrap(), Reply::Pong);
    let second = client.recv();
    assert_eq!(second.id, 1);
    assert_eq!(second.result.unwrap(), Reply::Slept { ms: 300 });
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
    let mut client = Client::connect(&server);
    let resp = client.call(r#"{"v":1,"id":1,"method":"shutdown"}"#);
    assert_eq!(resp.result.unwrap(), Reply::ShuttingDown);
    assert!(server.stopping());
    server.join(); // must terminate, not hang
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
    let server = start_server(
        EngineOptions::default(),
        ServerOptions { max_line_bytes: 256, ..Default::default() },
    );
    let mut client = Client::connect(&server);
    let huge = format!(
        r#"{{"v":1,"id":1,"method":"find","params":{{"ident":"{}"}}}}"#,
        "x".repeat(1024)
    );
    let resp = client.call(&huge);
    assert_eq!(resp.result.unwrap_err().code, codes::LINE_TOO_LONG);
}
