//! Registry clients: one-shot RPC ([`RegistryClient`]) and the node-side
//! membership loop ([`NodeAgent`]).
//!
//! The agent is what a serving node runs: it registers, heartbeats at
//! `ttl/3`, and keeps a subscriber connection open for push
//! invalidations. Both loops self-heal — a connection error or an
//! `S503` (unknown node: the lease expired, or the registry restarted
//! and forgot everything) sends the agent back to the register state,
//! with bounded exponential backoff and deterministic jitter via
//! [`xpdl_repo::RetryPolicy`]. A registry restart therefore needs no
//! operator action: surviving nodes re-register within one heartbeat
//! interval plus backoff.
//!
//! The agent never polls: its loops park toward their next deadline,
//! and stopping unparks them and shuts down the subscriber's socket.
//!
//! The agent deliberately knows nothing about serving: it reports
//! through a health callback and signals invalidations through an
//! `on_invalidate` callback, so this crate never depends on
//! `xpdl-serve` (the dependency points the other way).
//!
//! [`dial`] and [`call_line`] are how every cluster client — the
//! registry client, the agent's subscriber, serve's `ClusterClient` and
//! shard probes, and the bench clients — opens a connection.

use crate::lease::NodeReport;
use crate::protocol::{
    codes, parse_event, parse_response, ClusterStatus, Event, RegistryError, RegistryMethod,
    RegistryReply, Request,
};
use crate::ring::RingInfo;
use parking_lot::Mutex;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use xpdl_repo::RetryPolicy;

/// Connect to `addr` with `connect_timeout`, then set `TCP_NODELAY` and
/// `io_timeout` as both the read and the write timeout. Every error
/// keeps its kind and reads `"{addr}: {step}: {cause}"`, the step being
/// `resolve`, `connect` or `socket options`.
pub fn dial(
    addr: &str,
    connect_timeout: Duration,
    io_timeout: Duration,
) -> std::io::Result<TcpStream> {
    let sockaddr = addr
        .to_socket_addrs()
        .map_err(|e| annotate(addr, "resolve", e))?
        .next()
        .ok_or_else(|| {
            std::io::Error::new(ErrorKind::AddrNotAvailable, format!("{addr}: resolve: no address"))
        })?;
    let stream = TcpStream::connect_timeout(&sockaddr, connect_timeout)
        .map_err(|e| annotate(addr, "connect", e))?;
    // Requests are one small line each; without this, Nagle plus the
    // peer's delayed ACK can hold a write for ~40 ms.
    stream
        .set_nodelay(true)
        .and_then(|_| stream.set_read_timeout(Some(io_timeout)))
        .and_then(|_| stream.set_write_timeout(Some(io_timeout)))
        .map_err(|e| annotate(addr, "socket options", e))?;
    Ok(stream)
}

/// One JSON-lines round trip on a fresh connection: [`dial`], write
/// `line` and its `\n` in one `write_all`, read one reply line and
/// return it with trailing whitespace (the line ending) removed. EOF
/// before the reply is an `UnexpectedEof` error; errors name the
/// address and the step (`send`, `read`) like [`dial`]'s.
pub fn call_line(
    addr: &str,
    line: &str,
    connect_timeout: Duration,
    io_timeout: Duration,
) -> std::io::Result<String> {
    let stream = dial(addr, connect_timeout, io_timeout)?;
    let mut buf = String::with_capacity(line.len() + 1);
    buf.push_str(line);
    buf.push('\n');
    (&stream).write_all(buf.as_bytes()).map_err(|e| annotate(addr, "send", e))?;
    buf.clear();
    match BufReader::new(&stream).read_line(&mut buf) {
        Ok(0) => Err(std::io::Error::new(
            ErrorKind::UnexpectedEof,
            format!("{addr}: read: connection closed before the reply"),
        )),
        Ok(_) => {
            buf.truncate(buf.trim_end().len());
            Ok(buf)
        }
        Err(e) => Err(annotate(addr, "read", e)),
    }
}

fn annotate(addr: &str, step: &str, e: std::io::Error) -> std::io::Error {
    std::io::Error::new(e.kind(), format!("{addr}: {step}: {e}"))
}

/// Why a registry call failed, from the caller's side of the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// Could not connect, or the connection broke mid-call.
    Io(String),
    /// The registry answered with a structured `S5xx` error.
    Registry(RegistryError),
    /// The registry answered something this client cannot parse.
    Malformed(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "registry i/o: {e}"),
            ClientError::Registry(e) => write!(f, "registry error: {e}"),
            ClientError::Malformed(e) => write!(f, "malformed registry reply: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl ClientError {
    /// Whether this failure means the lease is gone and the node must
    /// re-register (as opposed to a transient I/O blip that a heartbeat
    /// retry can ride out — though re-registering is always safe).
    pub fn needs_reregister(&self) -> bool {
        matches!(self, ClientError::Registry(e) if e.code == codes::UNKNOWN_NODE)
    }
}

/// What [`RegistryClient::nodes`] returns: the live routing table, the
/// last announced model version (if any), and the shard ring computed
/// over the table (if the registry is ring-enabled).
pub type NodesView = (Vec<crate::protocol::NodeEntry>, Option<String>, Option<RingInfo>);

/// A blocking one-connection-per-call registry RPC client with hard
/// connect and read timeouts. Registry calls are rare (heartbeats,
/// routing-table refreshes), so connection reuse buys nothing and a
/// fresh connection per call means a half-dead socket can never wedge
/// the caller.
#[derive(Debug, Clone)]
pub struct RegistryClient {
    addr: String,
    connect_timeout: Duration,
    io_timeout: Duration,
    next_id: Arc<AtomicU64>,
}

impl RegistryClient {
    /// A client for the registry at `addr` with default timeouts
    /// (500 ms connect, 2 s read/write).
    pub fn new(addr: impl Into<String>) -> RegistryClient {
        RegistryClient::with_timeouts(
            addr,
            Duration::from_millis(500),
            Duration::from_millis(2000),
        )
    }

    /// A client with explicit connect and read/write timeouts.
    pub fn with_timeouts(
        addr: impl Into<String>,
        connect_timeout: Duration,
        io_timeout: Duration,
    ) -> RegistryClient {
        RegistryClient {
            addr: addr.into(),
            connect_timeout,
            io_timeout,
            next_id: Arc::new(AtomicU64::new(1)),
        }
    }

    /// The registry address this client talks to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Execute one method: connect, send, read one response, done.
    pub fn call(&self, method: RegistryMethod) -> Result<RegistryReply, ClientError> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let req = Request { id, method }.to_json();
        let line = call_line(&self.addr, &req, self.connect_timeout, self.io_timeout)
            .map_err(|e| ClientError::Io(e.to_string()))?;
        let resp = parse_response(&line).map_err(ClientError::Malformed)?;
        resp.result.map_err(ClientError::Registry)
    }

    /// Fetch the live routing table plus the shard ring over it.
    pub fn nodes(&self) -> Result<NodesView, ClientError> {
        match self.call(RegistryMethod::Nodes)? {
            RegistryReply::Nodes { nodes, version, ring } => Ok((nodes, version, ring)),
            other => Err(ClientError::Malformed(format!("expected nodes reply, got {other:?}"))),
        }
    }

    /// Fetch the full cluster status (routing table with lease
    /// deadlines, ring, last version, uptime).
    pub fn status(&self) -> Result<ClusterStatus, ClientError> {
        match self.call(RegistryMethod::Status)? {
            RegistryReply::Status(status) => Ok(status),
            other => Err(ClientError::Malformed(format!("expected status reply, got {other:?}"))),
        }
    }

    /// Announce a model version to the cluster.
    pub fn announce(&self, version: &str) -> Result<u64, ClientError> {
        match self.call(RegistryMethod::Announce { version: version.to_string() })? {
            RegistryReply::Announced { subscribers } => Ok(subscribers),
            other => {
                Err(ClientError::Malformed(format!("expected announced reply, got {other:?}")))
            }
        }
    }
}

/// How a [`NodeAgent`] identifies and times itself.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Registry address (`host:port`).
    pub registry_addr: String,
    /// This node's stable identity.
    pub node: String,
    /// The address this node advertises for client traffic.
    pub advertise_addr: String,
    /// Requested lease TTL.
    pub ttl: Duration,
    /// Backoff policy for re-register/reconnect attempts.
    pub retry: RetryPolicy,
}

impl NodeConfig {
    /// A config with the default TTL (1500 ms) and retry policy.
    pub fn new(
        registry_addr: impl Into<String>,
        node: impl Into<String>,
        advertise_addr: impl Into<String>,
    ) -> NodeConfig {
        NodeConfig {
            registry_addr: registry_addr.into(),
            node: node.into(),
            advertise_addr: advertise_addr.into(),
            ttl: Duration::from_millis(1500),
            retry: RetryPolicy { max_delay: Duration::from_millis(500), ..RetryPolicy::default() },
        }
    }
}

/// Reports the node's current serving state to the membership loop.
pub type HealthFn = Arc<dyn Fn() -> NodeReport + Send + Sync>;
/// Called with the announced version on every push invalidation.
pub type InvalidateFn = Arc<dyn Fn(&str) + Send + Sync>;
/// Called with the new shard ring whenever its epoch changes — from a
/// `ring` push event or from the ring echoed on a lease grant/renewal.
pub type RingFn = Arc<dyn Fn(&RingInfo) + Send + Sync>;

/// The node-side membership loop: register, heartbeat, subscribe,
/// self-heal. See the module docs for the state machine.
pub struct NodeAgent {
    cfg: NodeConfig,
    client: RegistryClient,
    stop: Arc<AtomicBool>,
    registered: Arc<AtomicBool>,
    /// The subscriber's live connection, shut down to stop it.
    subscription: Arc<Mutex<Option<Arc<TcpStream>>>>,
    threads: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for NodeAgent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeAgent")
            .field("node", &self.cfg.node)
            .field("registry", &self.cfg.registry_addr)
            .finish()
    }
}

impl NodeAgent {
    /// Start the membership loop. Returns immediately; registration and
    /// subscription proceed (and retry) on background threads.
    pub fn start(cfg: NodeConfig, health: HealthFn, on_invalidate: InvalidateFn) -> NodeAgent {
        NodeAgent::start_with_ring(cfg, health, on_invalidate, None)
    }

    /// [`start`](Self::start) plus a shard-ring callback. The callback
    /// fires (deduplicated by ring epoch) from both channels a node can
    /// learn the ring on: the lease echoed by register/heartbeat and
    /// push `ring` events on the subscriber connection.
    pub fn start_with_ring(
        cfg: NodeConfig,
        health: HealthFn,
        on_invalidate: InvalidateFn,
        on_ring: Option<RingFn>,
    ) -> NodeAgent {
        let client = RegistryClient::with_timeouts(
            cfg.registry_addr.clone(),
            Duration::from_millis(500),
            // Heartbeats must fail well inside the TTL so a slow registry
            // read cannot silently eat the lease.
            (cfg.ttl / 2).max(Duration::from_millis(250)),
        );
        let stop = Arc::new(AtomicBool::new(false));
        let registered = Arc::new(AtomicBool::new(false));
        let subscription = Arc::new(Mutex::new(None));
        // Shared across both loops: rings arrive on the heartbeat reply
        // AND the subscribe stream, and the consumer contract is that
        // `on_ring` never fires twice for the same epoch.
        let last_ring = Arc::new(Mutex::new(None::<u64>));
        let mut threads = Vec::new();

        {
            let cfg = cfg.clone();
            let client = client.clone();
            let stop = Arc::clone(&stop);
            let registered = Arc::clone(&registered);
            let health = Arc::clone(&health);
            let on_ring = on_ring.clone();
            let last_ring = Arc::clone(&last_ring);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("xpdl-agent-hb-{}", cfg.node))
                    .spawn(move || {
                        heartbeat_loop(
                            &cfg,
                            &client,
                            &stop,
                            &registered,
                            &health,
                            &on_ring,
                            &last_ring,
                        )
                    })
                    .expect("spawn heartbeat loop"),
            );
        }
        {
            let cfg = cfg.clone();
            let client = client.clone();
            let stop = Arc::clone(&stop);
            let subscription = Arc::clone(&subscription);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("xpdl-agent-sub-{}", cfg.node))
                    .spawn(move || {
                        let sub = Subscriber {
                            cfg: &cfg,
                            client: &client,
                            stop: &stop,
                            socket: &subscription,
                            on_invalidate: &on_invalidate,
                            on_ring: &on_ring,
                            last_ring: &last_ring,
                        };
                        sub.run()
                    })
                    .expect("spawn subscribe loop"),
            );
        }

        NodeAgent { cfg, client, stop, registered, subscription, threads }
    }

    /// Whether the node currently holds (as far as it knows) a live lease.
    pub fn is_registered(&self) -> bool {
        self.registered.load(Ordering::Acquire)
    }

    /// This agent's configuration.
    pub fn config(&self) -> &NodeConfig {
        &self.cfg
    }

    /// Deregister from the registry **now**, before any local teardown.
    /// This is the drain ordering fix: call it while the listener is
    /// still accepting, so the routing table never points at a closed
    /// port. Best-effort — an unreachable registry only means the lease
    /// dies by TTL instead.
    pub fn deregister(&self) -> Result<bool, ClientError> {
        self.registered.store(false, Ordering::Release);
        match self.client.call(RegistryMethod::Deregister { node: self.cfg.node.clone() })? {
            RegistryReply::Deregistered { removed } => Ok(removed),
            other => {
                Err(ClientError::Malformed(format!("expected deregistered reply, got {other:?}")))
            }
        }
    }

    /// Graceful stop: stop the loops, then deregister (best-effort).
    /// Stopping first means no heartbeat still in flight can put the
    /// node back after it left.
    pub fn shutdown(mut self) {
        self.stop_threads();
        let _ = self.deregister();
    }

    /// Hard stop **without** deregistering: the loops die, the lease
    /// stays, and the registry must discover the death by TTL expiry —
    /// exactly what a SIGKILL looks like. For chaos tests.
    pub fn abort(mut self) {
        self.stop_threads();
    }

    /// Raise the stop flag, wake both loops — unpark the parked ones,
    /// shut down the socket the subscriber reads — and join them.
    fn stop_threads(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(socket) = &*self.subscription.lock() {
            let _ = socket.shutdown(Shutdown::Both);
        }
        for t in &self.threads {
            t.thread().unpark();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for NodeAgent {
    fn drop(&mut self) {
        self.stop_threads();
    }
}

/// Park until `deadline` or until stop is raised (whoever raises it
/// unparks this thread). Returns whether the agent is still running.
fn park_until(stop: &AtomicBool, deadline: Instant) -> bool {
    while !stop.load(Ordering::Acquire) {
        let now = Instant::now();
        if now >= deadline {
            return true;
        }
        std::thread::park_timeout(deadline - now);
    }
    false
}

/// Fire `on_ring` iff the ring's epoch differs from the last one the
/// agent delivered. The dedup state is shared between the heartbeat
/// and subscribe loops (both can see the same ring — one via the
/// lease reply, one via the push stream), and the callback runs under
/// the lock so deliveries are also serialized: consumers never see
/// the same epoch twice or two rings interleaved.
fn notify_ring(on_ring: &Option<RingFn>, last: &Mutex<Option<u64>>, ring: &RingInfo) {
    if let Some(cb) = on_ring {
        let mut last = last.lock();
        if *last != Some(ring.epoch) {
            *last = Some(ring.epoch);
            cb(ring);
        }
    }
}

fn heartbeat_loop(
    cfg: &NodeConfig,
    client: &RegistryClient,
    stop: &AtomicBool,
    registered: &AtomicBool,
    health: &HealthFn,
    on_ring: &Option<RingFn>,
    last_ring: &Mutex<Option<u64>>,
) {
    let interval = (cfg.ttl / 3).max(Duration::from_millis(10));
    let mut attempt: u32 = 0;
    while !stop.load(Ordering::Acquire) {
        if !registered.load(Ordering::Acquire) {
            let report = health();
            let res = client.call(RegistryMethod::Register {
                node: cfg.node.clone(),
                addr: cfg.advertise_addr.clone(),
                epoch: report.epoch,
                fingerprint: report.fingerprint.clone(),
                inflight: report.inflight,
                ttl_ms: cfg.ttl.as_millis() as u64,
            });
            match res {
                Ok(reply) => {
                    registered.store(true, Ordering::Release);
                    attempt = 0;
                    if let RegistryReply::Lease { ring: Some(ring), .. } = &reply {
                        notify_ring(on_ring, last_ring, ring);
                    }
                }
                Err(_) => {
                    // Registry down: back off (bounded, jittered) and try
                    // again. The node keeps serving from its snapshot.
                    attempt = attempt.saturating_add(1);
                    let delay = cfg.retry.delay_after(&cfg.node, attempt.min(16));
                    if !park_until(stop, Instant::now() + delay) {
                        return;
                    }
                    continue;
                }
            }
        }
        if !park_until(stop, Instant::now() + interval) {
            return;
        }
        let report = health();
        let res = client.call(RegistryMethod::Heartbeat {
            node: cfg.node.clone(),
            epoch: report.epoch,
            fingerprint: report.fingerprint.clone(),
            inflight: report.inflight,
        });
        match res {
            Ok(RegistryReply::Lease { ring: Some(ring), .. }) => {
                notify_ring(on_ring, last_ring, &ring);
            }
            Ok(_) => {}
            Err(_) => {
                // Lease gone (S503) or registry unreachable: next iteration
                // re-registers. Re-registering is always safe (idempotent,
                // generation-bumping), so both cases take the same path.
                registered.store(false, Ordering::Release);
            }
        }
    }
}

/// The subscriber thread's state: one connection at a time, blocked in
/// `read_line` with no read timeout between pushes. [`NodeAgent`]'s stop
/// shuts down the socket published in `socket`, so the read returns.
struct Subscriber<'a> {
    cfg: &'a NodeConfig,
    client: &'a RegistryClient,
    stop: &'a AtomicBool,
    socket: &'a Mutex<Option<Arc<TcpStream>>>,
    on_invalidate: &'a InvalidateFn,
    on_ring: &'a Option<RingFn>,
    last_ring: &'a Mutex<Option<u64>>,
}

impl Subscriber<'_> {
    /// Reconnect until stopped. A connection that ends before the
    /// registry acked `subscribe` is a failed attempt and backs off, so
    /// a registry that accepts and hangs up is not redialled in a hot
    /// loop; one that ends after the ack is redialled at once.
    fn run(&self) {
        let mut last_version: Option<String> = None;
        let mut attempt: u32 = 0;
        while !self.stop.load(Ordering::Acquire) {
            let acked = self.session(&mut last_version);
            *self.socket.lock() = None;
            if acked {
                attempt = 0;
                continue;
            }
            attempt = attempt.saturating_add(1);
            let delay = self.cfg.retry.delay_after(&self.cfg.node, attempt.min(16));
            if !park_until(self.stop, Instant::now() + delay) {
                return;
            }
        }
    }

    /// One connection: dial, subscribe, deliver pushes until the stream
    /// ends. Returns whether the registry acked the subscription.
    fn session(&self, last_version: &mut Option<String>) -> bool {
        let client = self.client;
        let Ok(stream) = dial(&client.addr, client.connect_timeout, client.io_timeout) else {
            return false;
        };
        let stream = Arc::new(stream);
        *self.socket.lock() = Some(Arc::clone(&stream));
        // A stop raised before the socket was published found nothing to
        // shut down; it is seen here instead.
        if self.stop.load(Ordering::Acquire) {
            return false;
        }
        let subscribe = RegistryMethod::Subscribe { node: self.cfg.node.clone() };
        let mut line = Request { id: 1, method: subscribe }.to_json();
        line.push('\n');
        // No read timeout: pushes are rare, and stop wakes the read.
        if stream.set_read_timeout(None).is_err()
            || (&*stream).write_all(line.as_bytes()).is_err()
        {
            return false;
        }
        let mut deliver = |version: String| {
            if last_version.as_deref() != Some(version.as_str()) {
                (self.on_invalidate)(&version);
                *last_version = Some(version);
            }
        };
        let mut reader = BufReader::new(&*stream);
        let mut acked = false;
        loop {
            line.clear();
            if !matches!(reader.read_line(&mut line), Ok(n) if n > 0) {
                return acked; // EOF, reset, or shut down by stop
            }
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            match parse_event(trimmed) {
                Ok(Some(Event::Invalidate { version })) => deliver(version),
                Ok(Some(Event::Ring { ring })) => notify_ring(self.on_ring, self.last_ring, &ring),
                // Not an event: the subscribe ack, which echoes the last
                // announced version so a node that was disconnected (a
                // registry restart) catches up.
                Ok(None) => match parse_response(trimmed).map(|r| r.result) {
                    Ok(Ok(RegistryReply::Subscribed { version })) => {
                        acked = true;
                        if let Some(v) = version {
                            deliver(v);
                        }
                    }
                    _ => return acked, // refused, or out of sync
                },
                Err(_) => return acked, // stream out of sync
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{RegistryOptions, RegistryServer};
    use std::sync::atomic::AtomicU64 as TestCounter;

    fn test_server() -> RegistryServer {
        RegistryServer::start("127.0.0.1:0", RegistryOptions::default()).unwrap()
    }

    fn wait_until(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
        let start = std::time::Instant::now();
        while start.elapsed() < deadline {
            if cond() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        cond()
    }

    #[test]
    fn agent_registers_heartbeats_and_survives_registry_restart() {
        let server = test_server();
        let addr = server.local_addr().to_string();
        let mut cfg = NodeConfig::new(addr.clone(), "n1", "127.0.0.1:7001");
        cfg.ttl = Duration::from_millis(200);
        let invalidations = Arc::new(TestCounter::new(0));
        let inv = Arc::clone(&invalidations);
        let agent = NodeAgent::start(
            cfg,
            Arc::new(|| NodeReport { epoch: 7, fingerprint: "f".into(), inflight: 0 }),
            Arc::new(move |_v| {
                inv.fetch_add(1, Ordering::Relaxed);
            }),
        );
        let client = RegistryClient::new(addr.clone());
        assert!(wait_until(Duration::from_secs(5), || {
            client.nodes().map(|(n, _, _)| n.len() == 1).unwrap_or(false)
        }));
        // Push an invalidation through the subscriber connection.
        assert!(wait_until(Duration::from_secs(5), || {
            client.announce("v1").map(|subs| subs >= 1).unwrap_or(false)
        }));
        assert!(wait_until(Duration::from_secs(5), || {
            invalidations.load(Ordering::Relaxed) >= 1
        }));

        // Kill the registry and restart on the same port: the agent must
        // re-register without help.
        let concrete = server.local_addr();
        server.shutdown();
        server.join();
        // Rebind the same concrete port (retry covers TIME_WAIT hiccups).
        let mut server2 = None;
        assert!(wait_until(Duration::from_secs(5), || {
            match RegistryServer::start(&concrete.to_string(), RegistryOptions::default()) {
                Ok(s) => {
                    server2 = Some(s);
                    true
                }
                Err(_) => false,
            }
        }));
        let server2 = server2.unwrap();
        assert!(
            wait_until(Duration::from_secs(10), || {
                client.nodes().map(|(n, _, _)| n.len() == 1).unwrap_or(false)
            }),
            "agent did not re-register after registry restart"
        );
        agent.shutdown();
        assert!(wait_until(Duration::from_secs(5), || {
            client.nodes().map(|(n, _, _)| n.is_empty()).unwrap_or(false)
        }));
        server2.shutdown();
        server2.join();
    }

    #[test]
    fn agent_sees_ring_changes_from_lease_and_push() {
        let server = test_server();
        let addr = server.local_addr().to_string();
        let mut cfg = NodeConfig::new(addr.clone(), "r1", "127.0.0.1:7003");
        cfg.ttl = Duration::from_millis(200);
        let rings: Arc<parking_lot::Mutex<Vec<crate::ring::RingInfo>>> =
            Arc::new(parking_lot::Mutex::new(Vec::new()));
        let sink = Arc::clone(&rings);
        let agent = NodeAgent::start_with_ring(
            cfg,
            Arc::new(NodeReport::default),
            Arc::new(|_| {}),
            Some(Arc::new(move |ring: &crate::ring::RingInfo| {
                sink.lock().push(ring.clone());
            })),
        );
        // Registration itself produces the first ring (just this node).
        assert!(wait_until(Duration::from_secs(5), || !rings.lock().is_empty()));
        assert_eq!(rings.lock()[0].nodes, vec!["r1".to_string()]);
        // A second member joins out-of-band: the agent must learn the new
        // ring (via push event or the next heartbeat's lease echo).
        let client = RegistryClient::new(addr);
        client
            .call(RegistryMethod::Register {
                node: "r2".into(),
                addr: "127.0.0.1:7004".into(),
                epoch: 0,
                fingerprint: "f".into(),
                inflight: 0,
                ttl_ms: 60_000,
            })
            .unwrap();
        assert!(wait_until(Duration::from_secs(5), || {
            rings.lock().last().map(|r| r.nodes.len() == 2).unwrap_or(false)
        }));
        // Epoch-deduplicated: every delivered ring differs from its
        // predecessor.
        let seen = rings.lock();
        for pair in seen.windows(2) {
            assert_ne!(pair[0].epoch, pair[1].epoch);
        }
        drop(seen);
        agent.shutdown();
        server.shutdown();
        server.join();
    }

    #[test]
    fn dial_sets_nodelay_and_both_timeouts() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let io = Duration::from_millis(700);
        let stream = dial(&addr, Duration::from_millis(300), io).unwrap();
        assert!(stream.nodelay().unwrap(), "Nagle left on");
        assert_eq!(stream.read_timeout().unwrap(), Some(io));
        assert_eq!(stream.write_timeout().unwrap(), Some(io));
    }

    #[test]
    fn dial_and_call_line_errors_name_the_address_and_the_step() {
        let (connect, io) = (Duration::from_millis(300), Duration::from_millis(500));
        let err = dial("not-an-address", connect, io).unwrap_err();
        assert!(err.to_string().starts_with("not-an-address: resolve: "), "{err}");
        // Port 1 on loopback: nothing listens, the connect is refused.
        let err = dial("127.0.0.1:1", connect, io).unwrap_err();
        assert!(err.to_string().starts_with("127.0.0.1:1: connect: "), "{err}");
        let err = call_line("127.0.0.1:1", "{}", connect, io).unwrap_err();
        assert!(err.to_string().starts_with("127.0.0.1:1: connect: "), "{err}");

        // A peer that reads the request and hangs up without a reply.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let closer = std::thread::spawn(move || {
            let (s, _) = listener.accept().unwrap();
            let mut line = String::new();
            BufReader::new(&s).read_line(&mut line).unwrap();
            line
        });
        let err = call_line(&addr, r#"{"v":1}"#, connect, io).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof, "{err}");
        assert!(err.to_string().starts_with(&format!("{addr}: read: ")), "{err}");
        assert_eq!(closer.join().unwrap(), "{\"v\":1}\n");
    }

    #[test]
    fn subscriber_backs_off_until_the_registry_acks() {
        // A "registry" that accepts, reads one line and hangs up without
        // answering. Every subscribe attempt fails before the ack, so the
        // subscriber must back off instead of redialling in a hot loop.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let subscribes = Arc::new(TestCounter::new(0));
        let done = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let subscribes = Arc::clone(&subscribes);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                for s in listener.incoming() {
                    if done.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(s) = s else { continue };
                    let mut line = String::new();
                    let _ = BufReader::new(&s).read_line(&mut line);
                    if line.contains(r#""method":"subscribe""#) {
                        subscribes.fetch_add(1, Ordering::Relaxed);
                    }
                }
            })
        };
        let agent = NodeAgent::start(
            NodeConfig::new(addr.to_string(), "storm", "127.0.0.1:7005"),
            Arc::new(NodeReport::default),
            Arc::new(|_| {}),
        );
        std::thread::sleep(Duration::from_secs(1));
        agent.abort();
        let seen = subscribes.load(Ordering::Relaxed);
        done.store(true, Ordering::Release);
        crate::server::wake_accept(addr);
        acceptor.join().unwrap();
        assert!((1..=20).contains(&seen), "{seen} subscribe connections in 1 s");
    }

    #[test]
    fn idle_agents_stop_within_50ms() {
        let server = test_server();
        let addr = server.local_addr().to_string();
        let invalidated = Arc::new(TestCounter::new(0));
        let agents: Vec<NodeAgent> = (0..10)
            .map(|i| {
                let inv = Arc::clone(&invalidated);
                let advertise = format!("127.0.0.1:{}", 7100 + i);
                NodeAgent::start(
                    NodeConfig::new(addr.clone(), format!("idle{i}"), advertise),
                    Arc::new(NodeReport::default),
                    Arc::new(move |_| {
                        inv.fetch_add(1, Ordering::Relaxed);
                    }),
                )
            })
            .collect();
        let client = RegistryClient::new(addr);
        assert!(wait_until(Duration::from_secs(5), || {
            client.nodes().map(|(n, _, _)| n.len() == agents.len()).unwrap_or(false)
        }));
        // One announce reaches every agent only once all ten subscribers
        // hold the ack; each then goes back to its blocking read.
        assert!(wait_until(Duration::from_secs(5), || {
            client.announce("v1").map(|subs| subs == 10).unwrap_or(false)
        }));
        assert!(wait_until(Duration::from_secs(5), || {
            invalidated.load(Ordering::Relaxed) == 10
        }));
        std::thread::sleep(Duration::from_millis(50));
        for (i, agent) in agents.into_iter().enumerate() {
            let started = Instant::now();
            let how = if i % 2 == 0 {
                agent.abort();
                "abort"
            } else {
                agent.shutdown();
                "shutdown"
            };
            let took = started.elapsed();
            assert!(took < Duration::from_millis(50), "{how}() of agent {i} took {took:?}");
        }
        assert!(wait_until(Duration::from_secs(5), || {
            client.nodes().map(|(n, _, _)| n.len() == 5).unwrap_or(false)
        }));
        server.shutdown();
        server.join();
    }

    #[test]
    fn aborted_agent_expires_by_ttl() {
        let server = test_server();
        let addr = server.local_addr().to_string();
        let mut cfg = NodeConfig::new(addr.clone(), "doomed", "127.0.0.1:7002");
        cfg.ttl = Duration::from_millis(150);
        let agent = NodeAgent::start(
            cfg,
            Arc::new(NodeReport::default),
            Arc::new(|_| {}),
        );
        let client = RegistryClient::new(addr);
        assert!(wait_until(Duration::from_secs(5), || {
            client.nodes().map(|(n, _, _)| n.len() == 1).unwrap_or(false)
        }));
        // abort() = SIGKILL semantics: no deregister. The lease must die
        // by TTL, within 2×TTL of the abort.
        agent.abort();
        let gone = wait_until(Duration::from_millis(300), || {
            client.nodes().map(|(n, _, _)| n.is_empty()).unwrap_or(false)
        });
        assert!(gone, "lease outlived 2x ttl after abort");
        server.shutdown();
        server.join();
    }
}
