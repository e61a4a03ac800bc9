//! The registry daemon: accept loop, per-connection handlers, lease
//! sweeper, and subscriber push.
//!
//! This is the only registry code that reads the clock or writes to a
//! socket. The state machine ([`RegistryState`]) takes `now` and returns
//! the event its change produced; one mutex holds that state together
//! with the push list, and every push is written before the mutex is
//! released. A state change and its push are therefore one step, and
//! subscribers see events in the order the state produced them.
//!
//! Thread model: registry operations are table mutations measured in
//! nanoseconds, so there is no worker pool — each connection gets one
//! thread that reads a request, executes it inline and writes the reply.
//! Once a connection subscribes, its socket has a second producer: the
//! thread handling an `announce` or a membership change writes the push
//! straight to it. The `subscribe` ack is written under the registry's
//! mutex before the connection joins the push list, so it precedes every
//! push. Replies and pushes share the connection's write mutex, so lines
//! never tear, and every write times out after 50 ms: a subscriber that
//! stops reading is shut down and dropped from the push list instead of
//! stalling the registry. A sweeper thread parks until the first lease
//! is due to expire ([`RegistryState::next_expiry`]) and expires it
//! then, so a SIGKILLed node leaves the routing table as its TTL runs
//! out even though it never said goodbye. A `register`, the only change
//! that can bring that instant forward, unparks the sweeper; with no
//! leases it parks with no timeout.
//!
//! All socket I/O blocks, and stopping wakes it rather than a timer:
//! [`wake_accept`] unblocks the listener, and [`accept_loop`] then shuts
//! down the read half of every live connection, whose blocked `read`
//! returns EOF. The serve daemon runs the same accept loop.
//!
//! All instruments register under `registry.*` in the global
//! [`xpdl_obs`] metrics registry, and every handled request opens a
//! `registry.request` span (free when tracing is disabled).

use crate::protocol::{
    codes, parse_request, Event, RegistryError, RegistryMethod, RegistryReply, Request, Response,
};
use crate::ring::{DEFAULT_REPLICATION, DEFAULT_VNODES};
use crate::state::RegistryState;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};
use xpdl_obs::{Counter, Gauge, MetricsRegistry};

/// How long one reply or push may block on a peer that stopped reading
/// before that connection is shut down. A ring push runs inside another
/// node's `register` or `heartbeat` call, and every other request waits
/// for the registry's lock while it is written, so this sits well under
/// the agent's 250 ms I/O floor (DESIGN.md §16).
const WRITE_TIMEOUT: Duration = Duration::from_millis(50);

/// Longest accepted request line in bytes, in both daemons: `S505`
/// beyond it here, `S414` in the serve daemon, which also caps binary
/// frame bodies with it.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// A connection's write half. Every reply — and, in the registry, every
/// push — is written through this lock, so lines and frames never tear.
pub type WriteHalf = Arc<parking_lot::Mutex<TcpStream>>;

/// The shard ring [`RegistryServer::start`] computes over the live
/// membership.
#[derive(Debug, Clone)]
pub struct RegistryOptions {
    /// Replication factor of the shard ring computed over the live
    /// membership: every model key is owned by this many nodes.
    pub replication: usize,
    /// Virtual points per node in the shard ring.
    pub vnodes: usize,
}

impl Default for RegistryOptions {
    fn default() -> Self {
        RegistryOptions { replication: DEFAULT_REPLICATION, vnodes: DEFAULT_VNODES }
    }
}

/// `registry.*` instruments, registered into the process-wide metrics
/// surface (DESIGN.md §14).
#[derive(Debug, Clone)]
pub struct RegistryStats {
    /// Registrations granted (including re-registrations).
    pub registers: Arc<Counter>,
    /// Heartbeats renewed.
    pub heartbeats: Arc<Counter>,
    /// Leases expired (sweeper or lazy reaping).
    pub expirations: Arc<Counter>,
    /// Explicit deregistrations.
    pub deregisters: Arc<Counter>,
    /// Version announcements.
    pub announcements: Arc<Counter>,
    /// Push events delivered to subscribers.
    pub pushes: Arc<Counter>,
    /// Connections accepted.
    pub connections: Arc<Counter>,
    /// Requests answered with a protocol-level error.
    pub errors: Arc<Counter>,
    /// Shard-ring epoch changes (membership edits that moved ownership).
    pub ring_changes: Arc<Counter>,
    /// Live leases right now.
    pub nodes: Arc<Gauge>,
}

impl Default for RegistryStats {
    fn default() -> Self {
        RegistryStats::new()
    }
}

impl RegistryStats {
    /// Fresh instruments registered under the `registry.*` names.
    pub fn new() -> RegistryStats {
        let reg = MetricsRegistry::global();
        RegistryStats {
            registers: reg.counter("registry.registers"),
            heartbeats: reg.counter("registry.heartbeats"),
            expirations: reg.counter("registry.expirations"),
            deregisters: reg.counter("registry.deregisters"),
            announcements: reg.counter("registry.announcements"),
            pushes: reg.counter("registry.pushes"),
            connections: reg.counter("registry.connections"),
            errors: reg.counter("registry.errors"),
            ring_changes: reg.counter("registry.ring_changes"),
            nodes: reg.gauge("registry.nodes"),
        }
    }
}

/// The registry's one lock: the state machine and the connections
/// subscribed to its pushes. A state change and the push it produced
/// happen under one acquisition, so pushes leave in state order.
struct Registry {
    state: RegistryState,
    subscribers: Vec<WriteHalf>,
}

impl Registry {
    /// Execute one request at the current time, push the event it
    /// produced, and return the reply for the caller to write once the
    /// lock is released. A `subscribe` is answered here instead, on
    /// `conn` (the calling connection's write half), and only then does
    /// `conn` join the push list: no push can reach a subscriber before
    /// its ack, so the version the ack echoes is never older than a push
    /// the subscriber reads. It returns `None`.
    fn dispatch(&mut self, request: &Request, conn: &WriteHalf) -> Option<Response> {
        // Read under the lock, so the state never sees time run backwards.
        let (mut result, event) = self.state.dispatch(Instant::now(), &request.method);
        if let Some(event) = event {
            let delivered = self.push(&event);
            if let Ok(RegistryReply::Announced { subscribers }) = &mut result {
                *subscribers = delivered;
            }
        }
        if result.is_err() {
            self.state.stats().errors.inc();
        }
        let response = Response { id: request.id, result };
        if let RegistryMethod::Subscribe { .. } = request.method {
            if write_line(conn, response.to_json()) {
                self.subscribers.push(Arc::clone(conn));
            }
            return None;
        }
        Some(response)
    }

    /// One sweeper pass at the current time. Returns when the next lease
    /// expires (`None` with no leases).
    fn sweep(&mut self) -> Option<Instant> {
        if let (_, Some(event)) = self.state.sweep(Instant::now()) {
            self.push(&event);
        }
        self.state.next_expiry()
    }

    /// Write `event` to every subscriber and return how many it reached.
    /// A subscriber whose write fails or times out has had its socket
    /// shut down and leaves the list; its agent reconnects and catches up
    /// from the version echoed on `subscribe` and from its next lease.
    fn push(&mut self, event: &Event) -> u64 {
        let mut line = event.to_json();
        line.push('\n');
        self.subscribers.retain(|conn| write_or_shutdown(conn, line.as_bytes()));
        let delivered = self.subscribers.len() as u64;
        self.state.stats().pushes.add(delivered);
        delivered
    }
}

/// A running registry daemon. Dropping it (or [`RegistryServer::shutdown`]
/// then [`RegistryServer::join`]) stops all threads.
pub struct RegistryServer {
    registry: Arc<parking_lot::Mutex<Registry>>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for RegistryServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RegistryServer")
            .field("addr", &self.addr)
            .field("threads", &self.threads.len())
            .finish()
    }
}

impl RegistryServer {
    /// Bind `addr` and start the daemon. Returns once the listener is
    /// accepting; serving continues on background threads.
    pub fn start(addr: &str, options: RegistryOptions) -> std::io::Result<RegistryServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;

        let state = RegistryState::new(options, Instant::now());
        let stats = state.stats().clone();
        let registry = Registry { state, subscribers: Vec::new() };
        let registry = Arc::new(parking_lot::Mutex::new(registry));
        let stop = Arc::new(AtomicBool::new(false));

        let sweeper = {
            let registry = Arc::clone(&registry);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("xpdl-registry-sweep".to_string())
                .spawn(move || {
                    // Park until the next lease is due; `register` and
                    // `shutdown` unpark this thread.
                    while !stop.load(Ordering::Acquire) {
                        let due = registry.lock().sweep();
                        match due {
                            Some(due) => std::thread::park_timeout(
                                due.saturating_duration_since(Instant::now()),
                            ),
                            None => std::thread::park(),
                        }
                    }
                })
                .expect("spawn sweeper")
        };
        let wake_sweeper = sweeper.thread().clone();
        let mut threads = vec![sweeper];

        {
            let registry = Arc::clone(&registry);
            let stop = Arc::clone(&stop);
            threads.push(
                std::thread::Builder::new()
                    .name("xpdl-registry-accept".to_string())
                    .spawn(move || {
                        accept_loop(
                            &listener,
                            "xpdl-registry-conn",
                            WRITE_TIMEOUT,
                            || stop.load(Ordering::Acquire),
                            move |stream, conn| {
                                stats.connections.inc();
                                connection_loop(stream, &conn, &registry, &stats, &wake_sweeper);
                            },
                        )
                    })
                    .expect("spawn accept loop"),
            );
        }

        Ok(RegistryServer { registry, addr: local, stop, threads })
    }

    /// The address actually bound (resolves `:0` to the real port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of leases live right now.
    pub fn live_nodes(&self) -> usize {
        self.registry.lock().state.live_nodes(Instant::now())
    }

    /// Ask all daemon threads to wind down, waking the ones that block.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Release);
        for t in &self.threads {
            t.thread().unpark();
        }
        wake_accept(self.addr);
    }

    /// Whether shutdown has been requested.
    pub fn stopping(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// Block until every daemon thread has exited.
    pub fn join(mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for RegistryServer {
    fn drop(&mut self) {
        if self.threads.is_empty() {
            return; // already joined
        }
        self.shutdown();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// The accept loop both daemons run (the serve daemon reuses it).
///
/// Blocks in `accept` and checks `stopping()` each time one returns;
/// [`wake_accept`] makes one return. Each accepted socket gets
/// `TCP_NODELAY` and `write_timeout`, and `serve(read_half, write_half)`
/// runs it on a thread named `name`. On exit, the read half of every
/// live connection is shut down — its blocked `read` returns EOF while
/// writes, and so in-flight replies, still go through — and every
/// connection thread is joined.
pub fn accept_loop<F>(
    listener: &TcpListener,
    name: &str,
    write_timeout: Duration,
    stopping: impl Fn() -> bool,
    serve: F,
) where
    F: Fn(TcpStream, WriteHalf) + Clone + Send + 'static,
{
    // Weak, so a finished connection's socket closes when its last
    // user lets go instead of waiting for this loop to prune it.
    let mut live: Vec<(Weak<parking_lot::Mutex<TcpStream>>, std::thread::JoinHandle<()>)> =
        Vec::new();
    for stream in listener.incoming() {
        if stopping() {
            break;
        }
        // A failed accept (a peer that reset while queued, fd pressure)
        // is retried.
        let Ok(stream) = stream else { continue };
        let Ok(write_half) = stream.try_clone() else { continue };
        // Replies are small and latency-bound; without this, Nagle +
        // delayed ACK adds ~40ms per round trip.
        let _ = stream.set_nodelay(true);
        let _ = stream.set_write_timeout(Some(write_timeout));
        let conn: WriteHalf = Arc::new(parking_lot::Mutex::new(write_half));
        live.retain(|(_, t)| !t.is_finished());
        let weak = Arc::downgrade(&conn);
        let serve = serve.clone();
        let thread = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || serve(stream, conn))
            .expect("spawn connection");
        live.push((weak, thread));
    }
    for (conn, _) in &live {
        if let Some(conn) = conn.upgrade() {
            let _ = conn.lock().shutdown(Shutdown::Read);
        }
    }
    for (_, t) in live {
        let _ = t.join();
    }
}

/// Make a blocked [`accept_loop`] on `addr` return by connecting to it
/// once. An unspecified bind address (`0.0.0.0`, `::`) is reached over
/// loopback.
pub fn wake_accept(mut addr: SocketAddr) {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
}

/// Write one whole reply or event under `conn`'s lock. A write that
/// fails or times out shuts the socket down, so the peer sees EOF rather
/// than a torn line or frame, and every later write fails fast. Returns
/// whether the bytes went out.
pub fn write_or_shutdown(conn: &WriteHalf, bytes: &[u8]) -> bool {
    let mut stream = conn.lock();
    let ok = stream.write_all(bytes).is_ok();
    if !ok {
        let _ = stream.shutdown(Shutdown::Both);
    }
    ok
}

/// Serve one connection — read a request, execute it, write the reply —
/// until the peer leaves, a write fails, or framing is lost. A
/// `register` may bring the next expiry forward, so it unparks `sweeper`.
fn connection_loop(
    stream: TcpStream,
    conn: &WriteHalf,
    registry: &parking_lot::Mutex<Registry>,
    stats: &RegistryStats,
    sweeper: &std::thread::Thread,
) {
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    loop {
        line.clear();
        match (&mut reader).take(MAX_LINE_BYTES as u64 + 1).read_until(b'\n', &mut line) {
            Ok(_) if line.ends_with(b"\n") => {}
            Ok(_) if line.len() > MAX_LINE_BYTES => {
                stats.errors.inc();
                let err = RegistryError::new(
                    codes::LINE_TOO_LONG,
                    format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                );
                write_line(conn, Response::err(0, err).to_json());
                break; // framing is lost; drop the connection
            }
            // EOF (a dangling partial line drops with it) or a dead socket.
            _ => break,
        }
        let text = String::from_utf8_lossy(&line);
        let trimmed = text.trim();
        if trimmed.is_empty() {
            continue;
        }
        let response = match parse_request(trimmed) {
            Ok(request) => {
                let mut span = xpdl_obs::span("registry.request");
                span.record_attr("method", request.method.name());
                let Some(response) = registry.lock().dispatch(&request, conn) else {
                    continue; // a subscribe, answered under the lock
                };
                if let RegistryMethod::Register { .. } = request.method {
                    sweeper.unpark();
                }
                response
            }
            Err((id, e)) => {
                stats.errors.inc();
                Response::err(id.unwrap_or(0), e)
            }
        };
        if !write_line(conn, response.to_json()) {
            break;
        }
    }
    // The push list may still hold `conn`: shut the socket down so a
    // subscriber's agent sees EOF now; the next push prunes the entry.
    let _ = reader.get_ref().shutdown(Shutdown::Both);
}

/// [`write_or_shutdown`] for one JSON line.
fn write_line(conn: &WriteHalf, mut json: String) -> bool {
    json.push('\n');
    write_or_shutdown(conn, json.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{parse_event, parse_response};
    use crate::ring::RingInfo;

    /// A client connection to a running daemon that sorts what it reads
    /// into replies and pushed events.
    struct Peer {
        writer: TcpStream,
        reader: BufReader<TcpStream>,
    }

    impl Peer {
        fn connect(addr: SocketAddr) -> Peer {
            let stream = TcpStream::connect(addr).unwrap();
            stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            Peer { writer: stream.try_clone().unwrap(), reader: BufReader::new(stream) }
        }

        /// Send one request and read until its reply, handing every event
        /// read on the way to `on_event`. Every line must parse whole.
        fn call(
            &mut self,
            id: u64,
            method: RegistryMethod,
            mut on_event: impl FnMut(Event),
        ) -> Response {
            let mut req = Request { id, method }.to_json();
            req.push('\n');
            self.writer.write_all(req.as_bytes()).unwrap();
            loop {
                let mut line = String::new();
                assert!(self.reader.read_line(&mut line).unwrap() > 0, "daemon hung up");
                let line = line.trim();
                match parse_event(line) {
                    Ok(Some(event)) => on_event(event),
                    Ok(None) => {
                        let resp = parse_response(line)
                            .unwrap_or_else(|e| panic!("torn line {line:?}: {e}"));
                        assert_eq!(resp.id, id, "reply to the wrong request");
                        return resp;
                    }
                    Err(e) => panic!("torn line {line:?}: {e}"),
                }
            }
        }

        /// Read the next line, which must be a pushed event.
        fn next_event(&mut self) -> Event {
            let mut line = String::new();
            self.reader.read_line(&mut line).unwrap();
            parse_event(line.trim()).unwrap().expect("an event line")
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

    fn no_push(e: Event) {
        panic!("unexpected push {e:?}")
    }

    fn register(node: &str) -> RegistryMethod {
        RegistryMethod::Register {
            node: node.into(),
            addr: "127.0.0.1:7001".into(),
            epoch: 0,
            fingerprint: "f".into(),
            inflight: 0,
            ttl_ms: 60_000,
        }
    }

    #[test]
    fn announce_pushes_to_subscribers_and_prunes_dead() {
        let server = RegistryServer::start("127.0.0.1:0", RegistryOptions::default()).unwrap();
        let addr = server.local_addr();
        let mut live = Peer::connect(addr);
        live.call(1, RegistryMethod::Subscribe { node: "n1".into() }, no_push);
        // A subscriber whose connection has ended: its handler shut the
        // socket down, so the next push fails and prunes it. Reading the
        // handler's EOF proves the socket is down before the announce.
        let mut dead = Peer::connect(addr);
        dead.call(1, RegistryMethod::Subscribe { node: "n2".into() }, no_push);
        dead.writer.shutdown(Shutdown::Write).unwrap();
        assert_eq!(dead.reader.read_line(&mut String::new()).unwrap(), 0);
        let mut caller = Peer::connect(addr);
        match caller.call(1, RegistryMethod::Announce { version: "v7".into() }, no_push).result {
            Ok(RegistryReply::Announced { subscribers }) => assert_eq!(subscribers, 1),
            other => panic!("unexpected reply {other:?}"),
        }
        assert_eq!(live.next_event(), Event::Invalidate { version: "v7".into() });
        // Late subscribers catch up via the version echoed on subscribe.
        let mut late = Peer::connect(addr);
        match late.call(1, RegistryMethod::Subscribe { node: "n3".into() }, no_push).result {
            Ok(RegistryReply::Subscribed { version }) => assert_eq!(version.as_deref(), Some("v7")),
            other => panic!("unexpected reply {other:?}"),
        }
        server.shutdown();
        server.join();
    }

    /// A fresh subscriber races a burst of announces on another
    /// connection, round after round, and the first line it reads must be
    /// its ack. A push that overtook the ack would reach the agent before
    /// the ack's version, which is then the older one.
    #[test]
    fn subscribe_ack_precedes_every_push() {
        const ROUNDS: u64 = 4_000;
        const BURST: u64 = 8;
        let server = RegistryServer::start("127.0.0.1:0", RegistryOptions::default()).unwrap();
        let addr = server.local_addr();
        let rounds = Arc::new(std::sync::Barrier::new(2));
        let announcer = {
            let rounds = Arc::clone(&rounds);
            std::thread::spawn(move || {
                let mut peer = Peer::connect(addr);
                // A burst of announces per round keeps pushes going out
                // while the subscribe is handled.
                let burst: String = (0..BURST)
                    .map(|i| {
                        let version = format!("v{i}");
                        Request { id: i, method: RegistryMethod::Announce { version } }.to_json()
                            + "\n"
                    })
                    .collect();
                for _ in 0..ROUNDS {
                    rounds.wait();
                    peer.writer.write_all(burst.as_bytes()).unwrap();
                    for _ in 0..BURST {
                        peer.reader.read_line(&mut String::new()).unwrap();
                    }
                    rounds.wait();
                }
            })
        };
        let mut overtaken = 0;
        for _ in 0..ROUNDS {
            let mut sub = Peer::connect(addr);
            // A round trip first, so the connection's handler is running.
            sub.call(0, RegistryMethod::Ping, no_push);
            let subscribe = RegistryMethod::Subscribe { node: "s".into() };
            let req = Request { id: 1, method: subscribe }.to_json() + "\n";
            rounds.wait();
            sub.writer.write_all(req.as_bytes()).unwrap();
            let mut line = String::new();
            sub.reader.read_line(&mut line).unwrap();
            if parse_event(line.trim()).unwrap().is_some() {
                overtaken += 1;
            }
            rounds.wait();
        }
        announcer.join().unwrap();
        assert_eq!(overtaken, 0, "a push came before the ack in {overtaken} of {ROUNDS} rounds");
        server.shutdown();
        server.join();
    }

    /// Membership changes race on several connections, and after each
    /// round the last ring the subscriber read must be the one `status`
    /// reports. A push is written under the lock that made its change,
    /// so no change's ring can overtake a later one's.
    #[test]
    fn pushes_leave_in_state_order() {
        const THREADS: usize = 4;
        const ROUNDS: u64 = 500;
        let server = RegistryServer::start("127.0.0.1:0", RegistryOptions::default()).unwrap();
        let addr = server.local_addr();
        let mut sub = Peer::connect(addr);
        let mut last: Option<RingInfo> = None;
        sub.call(1, RegistryMethod::Subscribe { node: "sub".into() }, no_push);
        // An anchor keeps the fleet non-empty, so every change has a ring.
        sub.call(2, register("anchor"), |e| {
            if let Event::Ring { ring } = e {
                last = Some(ring)
            }
        });
        let rounds = Arc::new(std::sync::Barrier::new(THREADS + 1));
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let rounds = Arc::clone(&rounds);
                std::thread::spawn(move || {
                    let mut peer = Peer::connect(addr);
                    let node = format!("w{t}");
                    for round in 0..ROUNDS {
                        rounds.wait();
                        peer.call(2 * round, register(&node), no_push);
                        let deregister = RegistryMethod::Deregister { node: node.clone() };
                        peer.call(2 * round + 1, deregister, no_push);
                        rounds.wait();
                    }
                })
            })
            .collect();
        let mut stale = 0;
        for round in 0..ROUNDS {
            rounds.wait();
            rounds.wait();
            // Each push is written before the reply to the change that
            // made it, so all of this round's precede the status reply.
            let resp = sub.call(3 + round, RegistryMethod::Status, |e| {
                if let Event::Ring { ring } = e {
                    last = Some(ring)
                }
            });
            match resp.result {
                Ok(RegistryReply::Status(st)) => stale += usize::from(st.ring != last),
                other => panic!("unexpected reply {other:?}"),
            }
        }
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(stale, 0, "{stale} of {ROUNDS} rounds ended on a stale ring");
        server.shutdown();
        server.join();
    }

    #[test]
    fn tcp_end_to_end_register_and_nodes() {
        let server = RegistryServer::start("127.0.0.1:0", RegistryOptions::default()).unwrap();
        let mut peer = Peer::connect(server.local_addr());
        let no_events = |e: Event| panic!("unexpected push {e:?}");
        let resp = peer.call(
            1,
            RegistryMethod::Register {
                node: "n1".into(),
                addr: "127.0.0.1:7001".into(),
                epoch: 0,
                fingerprint: "f".into(),
                inflight: 0,
                ttl_ms: 100,
            },
            no_events,
        );
        assert!(matches!(resp.result, Ok(RegistryReply::Lease { generation: 1, .. })));
        match peer.call(2, RegistryMethod::Nodes, no_events).result {
            Ok(RegistryReply::Nodes { nodes, .. }) => assert_eq!(nodes.len(), 1),
            other => panic!("unexpected {other:?}"),
        }
        // Let the lease expire; the sweeper empties the routing table.
        std::thread::sleep(Duration::from_millis(250));
        match peer.call(3, RegistryMethod::Nodes, no_events).result {
            Ok(RegistryReply::Nodes { nodes, .. }) => assert!(nodes.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
        server.shutdown();
        server.join();
    }

    /// With no leases the sweeper parks with no timeout, and after the
    /// anchor's 60 s lease it parks for a minute: only the `register`
    /// unparking it gets the short lease swept, and its ring is pushed
    /// as the lease runs out, with no request to trigger it.
    #[test]
    fn a_short_lease_is_swept_as_it_runs_out() {
        let server = RegistryServer::start("127.0.0.1:0", RegistryOptions::default()).unwrap();
        let mut sub = Peer::connect(server.local_addr());
        sub.call(1, RegistryMethod::Subscribe { node: "sub".into() }, no_push);
        sub.call(2, register("anchor"), |_| {});
        let doomed = RegistryMethod::Register {
            node: "doomed".into(),
            addr: "127.0.0.1:7002".into(),
            epoch: 0,
            fingerprint: "f".into(),
            inflight: 0,
            ttl_ms: 100,
        };
        let registered = Instant::now();
        sub.call(3, doomed, |_| {});
        match sub.next_event() {
            Event::Ring { ring } => assert_eq!(ring.nodes, ["anchor".to_string()]),
            other => panic!("unexpected push {other:?}"),
        }
        let took = registered.elapsed();
        assert!(took >= Duration::from_millis(100), "swept after {took:?}, before the TTL");
        assert!(took < Duration::from_secs(1), "swept {took:?} after a 100 ms lease");
        server.shutdown();
        server.join();
    }

    #[test]
    fn concurrent_pushes_and_replies_arrive_whole() {
        const ANNOUNCERS: usize = 4;
        const PER_ANNOUNCER: usize = 200;
        let server = RegistryServer::start("127.0.0.1:0", RegistryOptions::default()).unwrap();
        let addr = server.local_addr();
        let mut sub = Peer::connect(addr);
        let mut seen = std::collections::HashSet::new();
        let mut record = |e: Event| match e {
            Event::Invalidate { version } => assert!(seen.insert(version), "pushed twice"),
            other => panic!("unexpected event {other:?}"),
        };
        let resp = sub.call(1, RegistryMethod::Subscribe { node: "sub".into() }, &mut record);
        assert!(matches!(resp.result, Ok(RegistryReply::Subscribed { version: None })));
        let start = Arc::new(std::sync::Barrier::new(ANNOUNCERS + 1));
        let announcers: Vec<_> = (0..ANNOUNCERS)
            .map(|t| {
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    let mut peer = Peer::connect(addr);
                    start.wait();
                    for i in 0..PER_ANNOUNCER {
                        let version = format!("t{t}-{i}");
                        let resp = peer.call(i as u64, RegistryMethod::Announce { version }, |e| {
                            panic!("announcer got a push {e:?}")
                        });
                        assert!(matches!(
                            resp.result,
                            Ok(RegistryReply::Announced { subscribers: 1 })
                        ));
                    }
                })
            })
            .collect();
        start.wait();
        // The subscriber's own calls interleave with the pushes on its
        // socket.
        let mut id = 2;
        while !announcers.iter().all(|a| a.is_finished()) {
            let resp = sub.call(id, RegistryMethod::Nodes, &mut record);
            assert!(matches!(resp.result, Ok(RegistryReply::Nodes { .. })));
            id += 1;
        }
        for a in announcers {
            a.join().unwrap();
        }
        // Each push is written before its announce is answered, so every
        // one precedes this reply.
        sub.call(id, RegistryMethod::Ping, &mut record);
        assert_eq!(seen.len(), ANNOUNCERS * PER_ANNOUNCER);
        server.shutdown();
        server.join();
    }

    #[test]
    fn a_subscriber_that_stops_reading_is_dropped() {
        let server = RegistryServer::start("127.0.0.1:0", RegistryOptions::default()).unwrap();
        let addr = server.local_addr();
        let mut stalled = Peer::connect(addr);
        stalled.call(1, RegistryMethod::Subscribe { node: "stalled".into() }, |_| {});
        // From here on the stalled client only writes: it pipelines
        // requests and never reads a reply or a push. The timeout restarts
        // whenever a write makes progress, and a stalled peer's kernel
        // still absorbs a little now and then, so allow a few.
        let limit = WRITE_TIMEOUT * 4 + Duration::from_secs(5);
        let started = Instant::now();
        let mut writer = stalled.writer.try_clone().unwrap();
        writer.set_write_timeout(Some(Duration::from_secs(20))).unwrap();
        let flood = std::thread::spawn(move || loop {
            if let Err(e) = writer.write_all(b"{\"v\":1,\"id\":2,\"method\":\"status\"}\n") {
                return e.kind();
            }
        });
        // A second client keeps getting answers, and its announces stop
        // counting the stalled subscriber once the daemon drops it.
        let mut other = Peer::connect(addr);
        let version = "x".repeat(16 * 1024);
        let mut id = 0;
        loop {
            id += 1;
            let announce = RegistryMethod::Announce { version: version.clone() };
            match other.call(id, announce, |_| {}).result {
                Ok(RegistryReply::Announced { subscribers: 0 }) => break,
                Ok(RegistryReply::Announced { subscribers: 1 }) => {}
                other => panic!("unexpected {other:?}"),
            }
            assert!(started.elapsed() < limit, "stalled subscriber kept");
        }
        let kind = flood.join().unwrap();
        assert!(
            !matches!(kind, std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut),
            "the stalled client was never disconnected"
        );
        assert!(started.elapsed() < limit, "disconnected after {:?}", started.elapsed());
        assert!(matches!(
            other.call(id + 1, RegistryMethod::Ping, |_| {}).result,
            Ok(RegistryReply::Pong)
        ));
        within(Duration::from_secs(5), move || {
            server.shutdown();
            server.join();
        });
    }

    #[test]
    fn join_wakes_an_idle_subscriber_with_eof() {
        let server = RegistryServer::start("127.0.0.1:0", RegistryOptions::default()).unwrap();
        let mut idle = Peer::connect(server.local_addr());
        let resp = idle.call(1, RegistryMethod::Subscribe { node: "idle".into() }, |_| {});
        assert!(matches!(resp.result, Ok(RegistryReply::Subscribed { .. })));
        within(Duration::from_secs(5), move || {
            server.shutdown();
            server.join();
        });
        let mut line = String::new();
        assert_eq!(idle.reader.read_line(&mut line).unwrap(), 0, "expected EOF, read {line:?}");
    }
}
