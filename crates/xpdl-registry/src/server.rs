//! The registry daemon: accept loop, per-connection handlers, lease
//! sweeper, and subscriber push.
//!
//! Thread model: registry operations are table mutations measured in
//! nanoseconds, so there is no worker pool — each connection gets one
//! thread that reads a request, executes it inline and writes the reply.
//! Once a connection subscribes, its socket has a second producer: the
//! thread handling an `announce` or a membership change writes the push
//! straight to it. Replies and pushes share the connection's write
//! mutex, so lines never tear, and every write times out after 50 ms: a
//! subscriber that stops reading is shut down and dropped from the push
//! list instead of stalling the pusher. A sweeper thread expires stale
//! leases every [`RegistryOptions::sweep_interval`], so a SIGKILLed node
//! disappears from the routing table within `ttl + sweep_interval` even
//! though it never said goodbye.
//!
//! All socket I/O blocks, and stopping wakes it rather than a timer:
//! [`wake_accept`] unblocks the listener, and [`accept_loop`] then shuts
//! down the read half of every live connection, whose blocked `read`
//! returns EOF. The serve daemon runs the same accept loop.
//!
//! All instruments register under `registry.*` in the global
//! [`xpdl_obs`] metrics registry, and every handled request opens a
//! `registry.request` span (free when tracing is disabled).

use crate::lease::{HeartbeatOutcome, LeaseTable, NodeReport};
use crate::protocol::{
    codes, parse_request, ClusterStatus, Event, NodeEntry, RegistryError, RegistryMethod,
    RegistryReply, Request, Response,
};
use crate::ring::{RingInfo, DEFAULT_REPLICATION, DEFAULT_VNODES};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};
use xpdl_obs::{Counter, Gauge, MetricsRegistry};

/// How long one reply or push may block on a peer that stopped reading
/// before that connection is shut down. A ring push runs inside another
/// node's `register` or `heartbeat` call, so this sits well under the
/// agent's 250 ms I/O floor (DESIGN.md §16).
const WRITE_TIMEOUT: Duration = Duration::from_millis(50);

/// A connection's write half. Every reply — and, in the registry, every
/// push — is written through this lock, so lines and frames never tear.
pub type WriteHalf = Arc<parking_lot::Mutex<TcpStream>>;

/// Tuning knobs for [`RegistryServer::start`].
#[derive(Debug, Clone)]
pub struct RegistryOptions {
    /// How often the sweeper scans for expired leases.
    pub sweep_interval: Duration,
    /// Lower clamp on requested lease TTLs.
    pub min_ttl: Duration,
    /// Upper clamp on requested lease TTLs.
    pub max_ttl: Duration,
    /// Longest accepted request line in bytes (`S505` beyond).
    pub max_line_bytes: usize,
    /// Replication factor of the shard ring computed over the live
    /// membership: every model key is owned by this many nodes.
    pub replication: usize,
    /// Virtual points per node in the shard ring.
    pub vnodes: usize,
}

impl Default for RegistryOptions {
    fn default() -> Self {
        RegistryOptions {
            sweep_interval: Duration::from_millis(100),
            min_ttl: Duration::from_millis(50),
            max_ttl: Duration::from_secs(60),
            max_line_bytes: 64 * 1024,
            replication: DEFAULT_REPLICATION,
            vnodes: DEFAULT_VNODES,
        }
    }
}

/// `registry.*` instruments, registered into the process-wide metrics
/// surface (DESIGN.md §14).
#[derive(Debug)]
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

/// Shared daemon state: the lease table, the last announced version,
/// and the push-subscriber fan-out list.
///
/// Public so in-process harnesses (scenario_bench, tests) can drive the
/// same state machine the TCP daemon serves.
pub struct RegistryState {
    table: parking_lot::Mutex<LeaseTable>,
    version: parking_lot::Mutex<Option<String>>,
    subscribers: parking_lot::Mutex<Vec<(String, WriteHalf)>>,
    /// Epoch of the last ring published (None before the first member).
    ring_epoch: parking_lot::Mutex<Option<u64>>,
    stats: RegistryStats,
    started: Instant,
    options: RegistryOptions,
}

impl std::fmt::Debug for RegistryState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RegistryState").field("nodes", &self.table.lock().len()).finish()
    }
}

impl RegistryState {
    /// Fresh state with the given options.
    pub fn new(options: RegistryOptions) -> RegistryState {
        RegistryState {
            table: parking_lot::Mutex::new(LeaseTable::new()),
            version: parking_lot::Mutex::new(None),
            subscribers: parking_lot::Mutex::new(Vec::new()),
            ring_epoch: parking_lot::Mutex::new(None),
            stats: RegistryStats::new(),
            started: Instant::now(),
            options,
        }
    }

    /// The daemon's instruments.
    pub fn stats(&self) -> &RegistryStats {
        &self.stats
    }

    /// Execute one method against the state. `conn` is the calling
    /// connection's write half — only `subscribe` uses it, adding it to
    /// the push list.
    pub fn dispatch(
        &self,
        method: &RegistryMethod,
        conn: &WriteHalf,
    ) -> Result<RegistryReply, RegistryError> {
        let mut span = xpdl_obs::span("registry.request");
        span.record_attr("method", method.name());
        let now = Instant::now();
        match method {
            RegistryMethod::Ping => Ok(RegistryReply::Pong),
            RegistryMethod::Register { node, addr, epoch, fingerprint, inflight, ttl_ms } => {
                let ttl = Duration::from_millis(*ttl_ms)
                    .clamp(self.options.min_ttl, self.options.max_ttl);
                let report =
                    NodeReport { epoch: *epoch, fingerprint: fingerprint.clone(), inflight: *inflight };
                let (generation, members) = {
                    let mut table = self.table.lock();
                    let generation = table.register(node, addr, &report, ttl, now);
                    self.stats.registers.inc();
                    self.stats.nodes.set(table.live(now).len() as u64);
                    (generation, Self::live_ids(&table, now))
                };
                let ring = self.ring_of(members);
                self.publish_ring(&ring);
                Ok(RegistryReply::Lease {
                    generation,
                    ttl_ms: ttl.as_millis() as u64,
                    version: self.version.lock().clone(),
                    ring,
                })
            }
            RegistryMethod::Heartbeat { node, epoch, fingerprint, inflight } => {
                let report =
                    NodeReport { epoch: *epoch, fingerprint: fingerprint.clone(), inflight: *inflight };
                let mut table = self.table.lock();
                match table.heartbeat(node, &report, now) {
                    HeartbeatOutcome::Renewed { generation } => {
                        self.stats.heartbeats.inc();
                        let ttl_ms = table
                            .get(node)
                            .map(|l| l.ttl.as_millis() as u64)
                            .unwrap_or(0);
                        let members = Self::live_ids(&table, now);
                        drop(table);
                        Ok(RegistryReply::Lease {
                            generation,
                            ttl_ms,
                            version: self.version.lock().clone(),
                            ring: self.ring_of(members),
                        })
                    }
                    HeartbeatOutcome::Unknown => {
                        // The lease died between sweeps and was lazily
                        // reaped by the heartbeat itself.
                        self.stats.expirations.inc();
                        self.stats.nodes.set(table.live(now).len() as u64);
                        let members = Self::live_ids(&table, now);
                        drop(table);
                        self.publish_ring(&self.ring_of(members));
                        Err(RegistryError::unknown_node(node))
                    }
                }
            }
            RegistryMethod::Deregister { node } => {
                let (removed, members) = {
                    let mut table = self.table.lock();
                    let removed = table.deregister(node);
                    if removed {
                        self.stats.deregisters.inc();
                    }
                    self.stats.nodes.set(table.live(now).len() as u64);
                    (removed, Self::live_ids(&table, now))
                };
                if removed {
                    self.publish_ring(&self.ring_of(members));
                }
                Ok(RegistryReply::Deregistered { removed })
            }
            RegistryMethod::Nodes => {
                let (nodes, members) = {
                    let table = self.table.lock();
                    (Self::entries(&table, now), Self::live_ids(&table, now))
                };
                Ok(RegistryReply::Nodes {
                    nodes,
                    version: self.version.lock().clone(),
                    ring: self.ring_of(members),
                })
            }
            RegistryMethod::Announce { version } => {
                // An empty version would poison the subscribe catch-up
                // (late subscribers would "catch up" to nothing) — the
                // calibration publisher must always name the new epoch.
                if version.is_empty() {
                    return Err(RegistryError::new(
                        codes::INVALID_PARAMS,
                        "announce requires a non-empty version",
                    ));
                }
                *self.version.lock() = Some(version.clone());
                self.stats.announcements.inc();
                let delivered = self.push(&Event::Invalidate { version: version.clone() });
                Ok(RegistryReply::Announced { subscribers: delivered })
            }
            RegistryMethod::Subscribe { node } => {
                self.subscribers.lock().push((node.clone(), Arc::clone(conn)));
                Ok(RegistryReply::Subscribed { version: self.version.lock().clone() })
            }
            RegistryMethod::Stats => {
                let table = self.table.lock();
                Ok(RegistryReply::Stats {
                    nodes: table.live(now).len() as u64,
                    registers: self.stats.registers.get(),
                    heartbeats: self.stats.heartbeats.get(),
                    expirations: self.stats.expirations.get(),
                    announcements: self.stats.announcements.get(),
                    uptime_ms: self.started.elapsed().as_millis() as u64,
                })
            }
            RegistryMethod::Status => {
                let (nodes, members) = {
                    let table = self.table.lock();
                    (Self::entries(&table, now), Self::live_ids(&table, now))
                };
                Ok(RegistryReply::Status(ClusterStatus {
                    nodes,
                    ring: self.ring_of(members),
                    version: self.version.lock().clone(),
                    uptime_ms: self.started.elapsed().as_millis() as u64,
                }))
            }
        }
    }

    fn live_ids(table: &LeaseTable, now: Instant) -> Vec<String> {
        table.live(now).into_iter().map(|l| l.node.clone()).collect()
    }

    fn entries(table: &LeaseTable, now: Instant) -> Vec<NodeEntry> {
        table
            .live(now)
            .into_iter()
            .map(|l| NodeEntry {
                node: l.node.clone(),
                addr: l.addr.clone(),
                epoch: l.epoch,
                fingerprint: l.fingerprint.clone(),
                inflight: l.inflight,
                generation: l.generation,
                age_ms: l.age_ms(now),
                ttl_ms: l.ttl.as_millis() as u64,
            })
            .collect()
    }

    /// The ring over a member set (`None` for an empty fleet).
    fn ring_of(&self, members: Vec<String>) -> Option<RingInfo> {
        if members.is_empty() {
            None
        } else {
            Some(RingInfo::compute(&members, self.options.replication, self.options.vnodes))
        }
    }

    /// The current shard ring over the live membership.
    pub fn current_ring(&self) -> Option<RingInfo> {
        let now = Instant::now();
        let members = Self::live_ids(&self.table.lock(), now);
        self.ring_of(members)
    }

    /// Push a `ring` event to every subscriber iff the epoch moved since
    /// the last publication. Callers must NOT hold the table lock (the
    /// subscriber lock is always taken without it, same as `announce`).
    fn publish_ring(&self, ring: &Option<RingInfo>) {
        let epoch = ring.as_ref().map(|r| r.epoch);
        {
            let mut last = self.ring_epoch.lock();
            if *last == epoch {
                return;
            }
            *last = epoch;
        }
        self.stats.ring_changes.inc();
        if let Some(ring) = ring {
            self.push(&Event::Ring { ring: ring.clone() });
        }
    }

    /// Write `event` to every subscriber and return how many it reached.
    /// A subscriber whose write fails or times out has had its socket
    /// shut down and leaves the list; its agent reconnects and catches up
    /// from the version echoed on `subscribe` and from its next lease.
    fn push(&self, event: &Event) -> u64 {
        let mut line = event.to_json();
        line.push('\n');
        let mut subs = self.subscribers.lock();
        subs.retain(|(_, conn)| write_or_shutdown(conn, line.as_bytes()));
        let delivered = subs.len() as u64;
        self.stats.pushes.add(delivered);
        delivered
    }

    /// One sweeper pass: expire stale leases at `now`. Returns the
    /// expired node ids. An expiry shrinks the membership, so the new
    /// shard ring is pushed to subscribers — this is what starts the
    /// self-healing rebalance after a SIGKILL.
    pub fn sweep(&self, now: Instant) -> Vec<String> {
        let (dead, members) = {
            let mut table = self.table.lock();
            let dead = table.sweep(now);
            if !dead.is_empty() {
                self.stats.expirations.add(dead.len() as u64);
            }
            self.stats.nodes.set(table.live(now).len() as u64);
            (dead, Self::live_ids(&table, now))
        };
        if !dead.is_empty() {
            self.publish_ring(&self.ring_of(members));
        }
        dead
    }

    /// Number of live leases right now.
    pub fn live_nodes(&self) -> usize {
        self.table.lock().live(Instant::now()).len()
    }
}

/// A running registry daemon. Dropping it (or [`RegistryServer::shutdown`]
/// then [`RegistryServer::join`]) stops all threads.
pub struct RegistryServer {
    state: Arc<RegistryState>,
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

        let state = Arc::new(RegistryState::new(options.clone()));
        let stop = Arc::new(AtomicBool::new(false));
        let mut threads = Vec::new();

        {
            let state = Arc::clone(&state);
            let stop = Arc::clone(&stop);
            let interval = options.sweep_interval;
            threads.push(
                std::thread::Builder::new()
                    .name("xpdl-registry-sweep".to_string())
                    .spawn(move || {
                        // `shutdown` unparks this thread, so stopping
                        // never waits out a sweep interval.
                        while !stop.load(Ordering::Acquire) {
                            std::thread::park_timeout(interval);
                            state.sweep(Instant::now());
                        }
                    })
                    .expect("spawn sweeper"),
            );
        }

        {
            let state = Arc::clone(&state);
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
                                state.stats.connections.inc();
                                connection_loop(stream, &conn, &state);
                            },
                        )
                    })
                    .expect("spawn accept loop"),
            );
        }

        Ok(RegistryServer { state, addr: local, stop, threads })
    }

    /// The address actually bound (resolves `:0` to the real port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared daemon state (for in-process harnesses and tests).
    pub fn state(&self) -> &Arc<RegistryState> {
        &self.state
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
/// until the peer leaves, a write fails, or framing is lost.
fn connection_loop(stream: TcpStream, conn: &WriteHalf, state: &RegistryState) {
    let cap = state.options.max_line_bytes;
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    loop {
        line.clear();
        match (&mut reader).take(cap as u64 + 1).read_until(b'\n', &mut line) {
            Ok(_) if line.ends_with(b"\n") => {}
            Ok(_) if line.len() > cap => {
                state.stats.errors.inc();
                let err = RegistryError::new(
                    codes::LINE_TOO_LONG,
                    format!("request line exceeds {cap} bytes"),
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
            Ok(Request { id, method }) => match state.dispatch(&method, conn) {
                Ok(reply) => Response::ok(id, reply),
                Err(e) => {
                    state.stats.errors.inc();
                    Response::err(id, e)
                }
            },
            Err((id, e)) => {
                state.stats.errors.inc();
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

    /// A connected loopback pair: the daemon-side write half `dispatch`
    /// takes, and the peer reading whatever is pushed to it.
    fn socket_pair() -> (WriteHalf, BufReader<TcpStream>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        peer.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let (daemon_side, _) = listener.accept().unwrap();
        (Arc::new(parking_lot::Mutex::new(daemon_side)), BufReader::new(peer))
    }

    fn next_event(peer: &mut BufReader<TcpStream>) -> Event {
        let mut line = String::new();
        peer.read_line(&mut line).unwrap();
        parse_event(line.trim()).unwrap().expect("an event line")
    }

    fn register(state: &RegistryState, node: &str, addr: &str, ttl_ms: u64) -> RegistryReply {
        let (conn, _peer) = socket_pair();
        state
            .dispatch(
                &RegistryMethod::Register {
                    node: node.into(),
                    addr: addr.into(),
                    epoch: 1,
                    fingerprint: "f".into(),
                    inflight: 0,
                    ttl_ms,
                },
                &conn,
            )
            .unwrap()
    }

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
    fn register_heartbeat_nodes_deregister() {
        let state = RegistryState::new(RegistryOptions::default());
        let (conn, _peer) = socket_pair();
        let lease = register(&state, "n1", "127.0.0.1:7001", 1000);
        assert!(matches!(lease, RegistryReply::Lease { generation: 1, ttl_ms: 1000, .. }));
        let hb = state
            .dispatch(
                &RegistryMethod::Heartbeat {
                    node: "n1".into(),
                    epoch: 2,
                    fingerprint: "g".into(),
                    inflight: 3,
                },
                &conn,
            )
            .unwrap();
        assert!(matches!(hb, RegistryReply::Lease { generation: 1, .. }));
        match state.dispatch(&RegistryMethod::Nodes, &conn).unwrap() {
            RegistryReply::Nodes { nodes, .. } => {
                assert_eq!(nodes.len(), 1);
                assert_eq!(nodes[0].epoch, 2);
                assert_eq!(nodes[0].inflight, 3);
            }
            other => panic!("unexpected reply {other:?}"),
        }
        match state.dispatch(&RegistryMethod::Deregister { node: "n1".into() }, &conn) {
            Ok(RegistryReply::Deregistered { removed }) => assert!(removed),
            other => panic!("unexpected reply {other:?}"),
        }
        assert_eq!(state.live_nodes(), 0);
    }

    #[test]
    fn heartbeat_without_lease_is_unknown_node() {
        let state = RegistryState::new(RegistryOptions::default());
        let (conn, _peer) = socket_pair();
        let err = state
            .dispatch(
                &RegistryMethod::Heartbeat {
                    node: "ghost".into(),
                    epoch: 0,
                    fingerprint: String::new(),
                    inflight: 0,
                },
                &conn,
            )
            .unwrap_err();
        assert_eq!(err.code, codes::UNKNOWN_NODE);
    }

    #[test]
    fn ttl_clamped_to_options() {
        let state = RegistryState::new(RegistryOptions {
            min_ttl: Duration::from_millis(100),
            max_ttl: Duration::from_millis(1000),
            ..RegistryOptions::default()
        });
        match register(&state, "n1", "a", 5) {
            RegistryReply::Lease { ttl_ms, .. } => assert_eq!(ttl_ms, 100),
            other => panic!("unexpected reply {other:?}"),
        }
        match register(&state, "n2", "b", 90_000) {
            RegistryReply::Lease { ttl_ms, .. } => assert_eq!(ttl_ms, 1000),
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn announce_pushes_to_subscribers_and_prunes_dead() {
        let state = RegistryState::new(RegistryOptions::default());
        let (live, mut live_peer) = socket_pair();
        state.dispatch(&RegistryMethod::Subscribe { node: "n1".into() }, &live).unwrap();
        // A subscriber whose connection has ended: its handler shut the
        // socket down, so the next push fails and prunes it.
        let (dead, _dead_peer) = socket_pair();
        state.dispatch(&RegistryMethod::Subscribe { node: "n2".into() }, &dead).unwrap();
        dead.lock().shutdown(Shutdown::Both).unwrap();
        let (caller, _caller_peer) = socket_pair();
        match state.dispatch(&RegistryMethod::Announce { version: "v7".into() }, &caller).unwrap()
        {
            RegistryReply::Announced { subscribers } => assert_eq!(subscribers, 1),
            other => panic!("unexpected reply {other:?}"),
        }
        assert_eq!(next_event(&mut live_peer), Event::Invalidate { version: "v7".into() });
        // Late subscribers catch up via the version echoed on subscribe.
        let (late, _late_peer) = socket_pair();
        match state.dispatch(&RegistryMethod::Subscribe { node: "n3".into() }, &late).unwrap() {
            RegistryReply::Subscribed { version } => assert_eq!(version.as_deref(), Some("v7")),
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn empty_announce_rejected_without_touching_state() {
        let state = RegistryState::new(RegistryOptions::default());
        let (conn, _peer) = socket_pair();
        state.dispatch(&RegistryMethod::Announce { version: "v1".into() }, &conn).unwrap();
        let err = state
            .dispatch(&RegistryMethod::Announce { version: String::new() }, &conn)
            .unwrap_err();
        assert_eq!(err.code, codes::INVALID_PARAMS);
        // The last good version survives for subscriber catch-up.
        match state.dispatch(&RegistryMethod::Subscribe { node: "n9".into() }, &conn).unwrap() {
            RegistryReply::Subscribed { version } => assert_eq!(version.as_deref(), Some("v1")),
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn lease_and_status_carry_the_ring_and_membership_changes_push_it() {
        let state = RegistryState::new(RegistryOptions::default());
        let (watcher, mut peer) = socket_pair();
        state.dispatch(&RegistryMethod::Subscribe { node: "watcher".into() }, &watcher).unwrap();
        match register(&state, "n1", "a", 1000) {
            RegistryReply::Lease { ring: Some(r), .. } => {
                assert_eq!(r.nodes, vec!["n1".to_string()]);
                assert_eq!(r.replication, DEFAULT_REPLICATION as u64);
            }
            other => panic!("unexpected reply {other:?}"),
        }
        // First member → a ring event.
        assert!(matches!(next_event(&mut peer), Event::Ring { .. }));
        register(&state, "n2", "b", 1000);
        match next_event(&mut peer) {
            Event::Ring { ring } => {
                assert_eq!(ring.nodes, vec!["n1".to_string(), "n2".to_string()])
            }
            other => panic!("unexpected event {other:?}"),
        }
        // Re-registering an existing member does not move the ring, so
        // the next event on the wire is the deregistration's.
        register(&state, "n2", "b", 1000);
        state.dispatch(&RegistryMethod::Deregister { node: "n2".into() }, &watcher).unwrap();
        match next_event(&mut peer) {
            Event::Ring { ring } => assert_eq!(ring.nodes, vec!["n1".to_string()]),
            other => panic!("unexpected event {other:?}"),
        }
        // `status` reports the table with lease deadlines plus the ring.
        match state.dispatch(&RegistryMethod::Status, &watcher).unwrap() {
            RegistryReply::Status(st) => {
                assert_eq!(st.nodes.len(), 1);
                assert_eq!(st.nodes[0].ttl_ms, 1000);
                assert_eq!(st.ring.unwrap().nodes, vec!["n1".to_string()]);
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn sweep_expiry_publishes_the_new_ring() {
        let state = RegistryState::new(RegistryOptions::default());
        register(&state, "doomed", "a", 100);
        register(&state, "survivor", "b", 60_000);
        let (watcher, mut peer) = socket_pair();
        state.dispatch(&RegistryMethod::Subscribe { node: "watcher".into() }, &watcher).unwrap();
        let dead = state.sweep(Instant::now() + Duration::from_millis(200));
        assert_eq!(dead, vec!["doomed".to_string()]);
        match next_event(&mut peer) {
            Event::Ring { ring } => assert_eq!(ring.nodes, vec!["survivor".to_string()]),
            other => panic!("unexpected event {other:?}"),
        }
        assert_eq!(state.current_ring().unwrap().nodes, vec!["survivor".to_string()]);
    }

    #[test]
    fn tcp_end_to_end_register_and_nodes() {
        let server = RegistryServer::start(
            "127.0.0.1:0",
            RegistryOptions { sweep_interval: Duration::from_millis(20), ..Default::default() },
        )
        .unwrap();
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
