//! The serve reader's two-phase wait (DESIGN.md §13): a reader whose
//! connection is its daemon's only active one polls for the next request
//! for up to `SPIN_BUDGET` before it blocks, and readers of a daemon with
//! several active connections never spin. The `serve.read.spin_*`
//! counters (per engine here, so tests running side by side stay exact)
//! show which phase each wait took.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use xpdl_runtime::RuntimeModel;
use xpdl_serve::codec::{self, StrDecoder, StrEncoder};
use xpdl_serve::server::SPIN_BUDGET;
use xpdl_serve::{
    Engine, EngineOptions, Method, ModelSource, Reply, Request, Response, ServeStats, Server,
    ServerOptions,
};

fn start_server() -> Server {
    let model = xpdl_models::loader::elaborate_system("liu_gpu_server").expect("compose fixture");
    let model = RuntimeModel::from_element(&model.root);
    let engine = Arc::new(
        Engine::new(ModelSource::Fixed(Box::new(model)), EngineOptions::default())
            .expect("engine boots"),
    );
    Server::start(engine, "127.0.0.1:0", ServerOptions::default()).expect("server binds")
}

/// Whether this host lets readers spin: `poll(2)` is declared for the
/// target and there are at least two CPUs.
fn spins() -> bool {
    cfg!(any(target_os = "linux", target_os = "macos"))
        && std::thread::available_parallelism().map_or(1, |n| n.get()) >= 2
}

/// A closed-loop binary client, as a runtime system asking getters.
struct BinClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    enc: StrEncoder,
    dec: StrDecoder,
}

impl BinClient {
    fn connect(addr: SocketAddr) -> BinClient {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream.set_read_timeout(Some(Duration::from_secs(20))).expect("read timeout");
        let mut client = BinClient {
            writer: stream.try_clone().expect("clone"),
            reader: BufReader::new(stream),
            enc: StrEncoder::new(),
            dec: StrDecoder::new(),
        };
        let hello = format!("{}\n", codec::client_hello(0).to_json());
        client.writer.write_all(hello.as_bytes()).expect("send hello");
        let mut ack = String::new();
        client.reader.read_line(&mut ack).expect("hello ack");
        assert!(ack.contains(codec::BINARY), "binary not negotiated: {ack}");
        client
    }

    fn call(&mut self, req: &Request) -> std::io::Result<Response> {
        self.writer.write_all(&codec::encode_request(req, &mut self.enc))?;
        let body = codec::read_frame(&mut self.reader, codec::MAX_RESPONSE_FRAME)?
            .ok_or(std::io::ErrorKind::UnexpectedEof)?;
        Ok(codec::decode_response(&body, &mut self.dec).expect("decodable response"))
    }
}

/// The getters and estimators of the benchmark's query mix, with fixed
/// arguments.
fn mix() -> Vec<Method> {
    vec![
        Method::NumCores,
        Method::NumCudaDevices,
        Method::TotalStaticPower,
        Method::ModelInfo,
        Method::Find { ident: "gpu1".into() },
        Method::Find { ident: "ghost".into() },
        Method::GetAttr { ident: "gpu1".into(), attr: "id".into() },
        Method::GetNumber { ident: "connection1".into(), attr: "max_bandwidth".into() },
        Method::HasInstalled { prefix: "cuda".into() },
        Method::EstimateTransfer { link: "connection1".into(), bytes: 1 << 20 },
        Method::EstimateAcceleratorUse {
            link: "connection1".into(),
            upload_bytes: 1 << 20,
            download_bytes: 1 << 10,
            compute_s: 0.5,
            dynamic_power_w: 25.0,
        },
        Method::EstimateStaticEnergy { duration_s: 2.5 },
        Method::ElementsOfKind { kind: "interconnect".into() },
    ]
}

/// `calls` closed-loop calls over the mix on a fresh binary connection,
/// from when `start` opens.
fn run_client(addr: SocketAddr, calls: u64, start: &Barrier) {
    let mut client = BinClient::connect(addr);
    start.wait();
    let mix = mix();
    for id in 1..=calls {
        let req = Request::new(id, mix[id as usize % mix.len()].clone());
        client.call(&req).expect("reply");
    }
}

/// `(caught, expired, skipped)`.
fn counters(stats: &ServeStats) -> (u64, u64, u64) {
    (stats.spin_caught.get(), stats.spin_expired.get(), stats.spin_skipped.get())
}

/// Poll `f` until it holds or `limit` passes; whether it held.
fn eventually(limit: Duration, f: impl Fn() -> bool) -> bool {
    let end = Instant::now() + limit;
    while !f() {
        if Instant::now() > end {
            return false;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    true
}

#[test]
fn a_lone_connection_spins_and_answers_as_the_engine_does() {
    let server = start_server();
    let mut client = BinClient::connect(server.local_addr());
    let mix = mix();
    for id in 1..=2_000u64 {
        let req = Request::new(id, mix[id as usize % mix.len()].clone());
        let got = client.call(&req).expect("reply");
        assert_eq!(got, server.engine().handle(&req), "request {id}");
    }
    let (caught, expired, skipped) = counters(server.engine().stats());
    if spins() {
        assert!(caught > 0, "no spin caught a request: {caught}/{expired}/{skipped}");
        assert_eq!(skipped, 0, "a lone connection's reader skipped its spin");
    } else {
        assert_eq!(caught + expired, 0, "a reader spun on a host that forbids it");
    }
    // The counters are on the `metrics` surface; `stats` keeps its layout.
    match server.engine().handle(&Request::new(1, Method::Metrics)).result {
        Ok(Reply::Metrics(snap)) => {
            for name in ["caught", "expired", "skipped"] {
                let name = format!("serve.read.spin_{name}");
                assert!(snap.counters.contains_key(&name), "{name} missing from metrics");
            }
        }
        other => panic!("metrics: {other:?}"),
    }
}

#[test]
fn concurrent_connections_skip_the_spin() {
    let server = start_server();
    let start = Barrier::new(2);
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| run_client(server.local_addr(), 2_000, &start));
        }
    });
    // A reader hands its skipped waits over once per gate window and
    // when its connection ends.
    let stats = server.engine().stats();
    assert!(
        eventually(Duration::from_secs(5), || stats.spin_skipped.get() > 0),
        "no wait skipped its spin: {:?}",
        counters(stats)
    );
}

#[test]
fn a_silent_client_costs_one_budget_then_its_reader_blocks() {
    let server = start_server();
    let stats = server.engine().stats();
    let mut client = BinClient::connect(server.local_addr());
    client.call(&Request::new(1, Method::NumCores)).expect("reply");
    // Three waits: before the hello, before the request (each may catch
    // its message or expire first), and after the reply, which the
    // silent client lets expire.
    let spun = if spins() { 3 } else { 0 };
    let settled = || {
        let (caught, expired, _) = counters(stats);
        caught + expired == spun && (expired >= 1 || !spins())
    };
    assert!(eventually(Duration::from_secs(5), settled), "{:?}", counters(stats));
    let settled_at = counters(stats);
    std::thread::sleep(SPIN_BUDGET * 2_000);
    assert_eq!(counters(stats), settled_at, "the reader kept spinning on a silent client");
    // Still served: the blocked read wakes for the next request.
    client.call(&Request::new(2, Method::NumCores)).expect("reply after silence");
}

#[test]
fn shutdown_ends_a_spinning_reader_at_once() {
    let server = start_server();
    let engine = Arc::clone(server.engine());
    let calls = Arc::new(AtomicU64::new(0));
    let client = {
        let (addr, calls) = (server.local_addr(), Arc::clone(&calls));
        std::thread::spawn(move || {
            let mut client = BinClient::connect(addr);
            // Runs until the server stops answering.
            while client.call(&Request::new(0, Method::NumCores)).is_ok() {
                calls.fetch_add(1, Ordering::Relaxed);
            }
        })
    };
    let progress = eventually(Duration::from_secs(10), || calls.load(Ordering::Relaxed) >= 200);
    assert!(progress, "the client made no progress");
    let t = Instant::now();
    server.shutdown();
    server.join();
    let took = t.elapsed();
    assert!(took < Duration::from_secs(2), "shutdown took {took:?}");
    client.join().expect("client thread");
    let (caught, expired, _) = counters(engine.stats());
    assert_eq!(caught + expired > 0, spins(), "{caught}/{expired}");
}

#[test]
fn two_servers_keep_separate_gates() {
    let busy = start_server();
    let lone = start_server();
    let start = Barrier::new(3);
    std::thread::scope(|s| {
        for addr in [busy.local_addr(), busy.local_addr(), lone.local_addr()] {
            let start = &start;
            s.spawn(move || run_client(addr, 1_000, start));
        }
    });
    let (busy_engine, lone_engine) = (Arc::clone(busy.engine()), Arc::clone(lone.engine()));
    // Joining every reader hands over its skipped waits.
    for server in [busy, lone] {
        server.shutdown();
        server.join();
    }
    let (caught, expired, skipped) = counters(lone_engine.stats());
    if spins() {
        // The busy daemon's two connections never closed the lone one's gate.
        assert_eq!(skipped, 0, "the lone daemon skipped: {caught}/{expired}/{skipped}");
        assert!(caught + expired > 0, "the lone daemon never spun");
    } else {
        assert_eq!(caught + expired, 0);
    }
    assert!(busy_engine.stats().spin_skipped.get() > 0, "{:?}", counters(busy_engine.stats()));
}
