//! The fleet-aware client: routing, failover, degradation.
//!
//! [`ClusterClient`] is what an application links instead of a raw
//! socket when the model is served by a fleet. Each call walks the
//! degradation ladder (DESIGN.md §16):
//!
//! 1. **Registry routing** — fetch the live node table from
//!    `xpdl-registry` (cached up to
//!    [`ClusterOptions::table_max_age`]), round-robin across nodes.
//!    On sharded fleets, [`ClusterClient::call_for_key`] hashes the
//!    model key on the same ring the registry published and tries the
//!    key's owner replicas first, in ring order — a non-owner answers
//!    `S511 NOT_OWNER`, which fails over like any other `S5xx`.
//! 2. **Failover** — a connect/read timeout, broken connection, or any
//!    `S5xx` reply (draining node, lease races) moves the request to
//!    the next live node and forces a table refresh. Retries are
//!    bounded by the [`RetryPolicy`] with deterministic jitter.
//! 3. **Stale routing table** — if the registry itself is unreachable,
//!    the last-known table keeps routing (nodes usually outlive a
//!    registry restart).
//! 4. **Local fallback** — when no node answers at all, an optional
//!    local [`Engine`] serves the query from whatever it can compile —
//!    typically a repository stack over the disk cache with
//!    `Freshness::StaleOk`, so an isolated client still answers from
//!    its warm-start tier.
//!
//! Every node attempt is one JSON-lines round trip on a fresh
//! connection ([`call_line`]), with hard connect and read timeouts: a
//! hung node costs one timeout, never a wedged caller. The client never
//! sends `hello`. A connection that carries one request has nothing to
//! spread a negotiation over, and against one node the binary path (a
//! pipelined `hello`, then a frame) was never faster than plain JSON,
//! even on the 2,500-name `elements_of_kind` reply (DESIGN.md §19).
//! Counters register under `serve.cluster.*`.

use crate::engine::Engine;
use crate::protocol::{parse_response, Method, Reply, Request, ServeError};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xpdl_obs::{Counter, MetricsRegistry};
use xpdl_registry::client::call_line;
use xpdl_registry::{HashRing, NodeEntry, RegistryClient};
use xpdl_repo::RetryPolicy;

/// Tuning knobs for [`ClusterClient`].
#[derive(Debug, Clone)]
pub struct ClusterOptions {
    /// Per-request TCP connect timeout.
    pub connect_timeout: Duration,
    /// Per-request read/write timeout.
    pub io_timeout: Duration,
    /// How long a fetched routing table keeps routing before the next
    /// call refreshes it (failures always force a refresh).
    pub table_max_age: Duration,
    /// Attempt budget and backoff between failover rounds.
    pub retry: RetryPolicy,
}

impl Default for ClusterOptions {
    fn default() -> Self {
        ClusterOptions {
            connect_timeout: Duration::from_millis(300),
            io_timeout: Duration::from_millis(2000),
            table_max_age: Duration::from_millis(500),
            retry: RetryPolicy {
                max_attempts: 4,
                base_delay: Duration::from_millis(5),
                max_delay: Duration::from_millis(100),
                ..RetryPolicy::default()
            },
        }
    }
}

/// Where a call was ultimately answered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Route {
    /// Served by the fleet node at this address.
    Node(String),
    /// Served by the local fallback engine (the cluster was unreachable).
    Fallback,
}

/// A successful cluster call: the reply plus how it got there.
#[derive(Debug, Clone, PartialEq)]
pub struct Routed {
    /// The protocol reply.
    pub reply: Reply,
    /// Which node (or the fallback) answered.
    pub route: Route,
    /// Total node attempts made, including the successful one. 1 means
    /// no failover happened.
    pub attempts: u32,
}

/// Why a cluster call failed for good.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterError {
    /// Every route — registry, cached table, fallback — was exhausted.
    NoLiveNodes {
        /// The last transport-level failure seen.
        detail: String,
        /// Node attempts made before giving up.
        attempts: u32,
    },
    /// A node answered with a non-failover protocol error (bad params,
    /// unknown method, ...) — retrying elsewhere cannot change it.
    Serve(ServeError),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::NoLiveNodes { detail, attempts } => {
                write!(f, "no live nodes after {attempts} attempts: {detail}")
            }
            ClusterError::Serve(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ClusterError {}

struct CachedTable {
    nodes: Vec<NodeEntry>,
    ring: Option<HashRing>,
    fetched_at: Instant,
}

/// A failover-aware client for a fleet of `xpdl-serve` nodes.
pub struct ClusterClient {
    registry: RegistryClient,
    options: ClusterOptions,
    table: parking_lot::Mutex<Option<CachedTable>>,
    cursor: AtomicUsize,
    next_id: AtomicU64,
    fallback: Option<Arc<Engine>>,
    requests: Arc<Counter>,
    failovers: Arc<Counter>,
    refreshes: Arc<Counter>,
    degraded: Arc<Counter>,
    exhausted: Arc<Counter>,
}

impl std::fmt::Debug for ClusterClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterClient")
            .field("registry", &self.registry.addr())
            .field("fallback", &self.fallback.is_some())
            .finish()
    }
}

impl ClusterClient {
    /// A client routing through the registry at `registry_addr`.
    pub fn new(registry_addr: impl Into<String>, options: ClusterOptions) -> ClusterClient {
        let reg = MetricsRegistry::global();
        ClusterClient {
            registry: RegistryClient::with_timeouts(
                registry_addr,
                options.connect_timeout,
                options.io_timeout,
            ),
            options,
            table: parking_lot::Mutex::new(None),
            cursor: AtomicUsize::new(0),
            next_id: AtomicU64::new(1),
            fallback: None,
            requests: reg.counter("serve.cluster.requests"),
            failovers: reg.counter("serve.cluster.failovers"),
            refreshes: reg.counter("serve.cluster.refreshes"),
            degraded: reg.counter("serve.cluster.degraded"),
            exhausted: reg.counter("serve.cluster.exhausted"),
        }
    }

    /// Attach a local fallback engine — the bottom of the degradation
    /// ladder. Build it from a repository stack over the disk cache with
    /// `Freshness::StaleOk` (or `OfflineOnly`) so an isolated client
    /// serves possibly-stale answers instead of failing.
    pub fn with_fallback(mut self, engine: Arc<Engine>) -> ClusterClient {
        self.fallback = Some(engine);
        self
    }

    /// The current routing table (refreshing if stale), for inspection.
    pub fn nodes(&self) -> Vec<NodeEntry> {
        self.routing_table(false).0
    }

    /// The shard ring the registry last published, if the fleet has one.
    pub fn ring(&self) -> Option<HashRing> {
        self.routing_table(false).1
    }

    /// Execute one method somewhere in the fleet. See the module docs
    /// for the exact ladder.
    pub fn call(&self, method: Method) -> Result<Routed, ClusterError> {
        self.call_inner(method, None)
    }

    /// Execute one method against the owners of a sharded model key.
    ///
    /// The key is hashed on the registry's ring; its `R` owner replicas
    /// are tried first in ring order, then every other node (a handoff
    /// predecessor may still hold the key), then the normal degradation
    /// ladder. The request carries the key so an owner answers from
    /// that shard's snapshot and a non-owner replies `S511 NOT_OWNER`
    /// (failover-able like any `S5xx`). Without a ring this behaves
    /// like [`call`](Self::call) with the key attached.
    pub fn call_for_key(&self, shard_key: &str, method: Method) -> Result<Routed, ClusterError> {
        self.call_inner(method, Some(shard_key))
    }

    fn call_inner(&self, method: Method, shard_key: Option<&str>) -> Result<Routed, ClusterError> {
        self.requests.inc();
        let key = method.name();
        let rounds = self.options.retry.max_attempts.max(1);
        let mut attempts: u32 = 0;
        let mut last_detail = String::from("routing table is empty");
        let mut force_refresh = false;
        for round in 1..=rounds {
            let (nodes, ring) = self.routing_table(force_refresh);
            force_refresh = true; // any failure below invalidates routing
            // One try per distinct node this round: the shard's owner
            // replicas first (ring order), then the rest starting after
            // the last-used slot (round robin).
            for idx in self.node_order(&nodes, ring.as_ref(), shard_key) {
                let node = &nodes[idx];
                attempts += 1;
                match self.call_node(&node.addr, &method, shard_key) {
                    Ok(reply) => {
                        return Ok(Routed { reply, route: Route::Node(node.addr.clone()), attempts })
                    }
                    Err(NodeError::Transport(detail)) => {
                        self.failovers.inc();
                        last_detail = detail; // names the address already
                    }
                    Err(NodeError::Failover(e)) => {
                        // S5xx: the node is draining or cluster-unhappy;
                        // the answer may exist on the next node.
                        self.failovers.inc();
                        last_detail = format!("{}: {e}", node.addr);
                    }
                    Err(NodeError::Fatal(e)) => return Err(ClusterError::Serve(e)),
                }
            }
            if round < rounds {
                self.options.retry.sleep_after(key, round);
            }
        }
        // Ladder bottom: the local fallback engine, if any.
        if let Some(engine) = &self.fallback {
            self.degraded.inc();
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            let resp =
                engine.handle(&Request { id, method, shard_key: shard_key.map(str::to_string) });
            return match resp.result {
                Ok(reply) => Ok(Routed { reply, route: Route::Fallback, attempts }),
                Err(e) => Err(ClusterError::Serve(e)),
            };
        }
        self.exhausted.inc();
        Err(ClusterError::NoLiveNodes { detail: last_detail, attempts })
    }

    /// Owner replicas first (ring order), then everyone else starting
    /// after the round-robin cursor. Without a ring or a shard key this
    /// degenerates to plain round robin.
    fn node_order(&self, nodes: &[NodeEntry], ring: Option<&HashRing>, key: Option<&str>) -> Vec<usize> {
        let mut order: Vec<usize> = Vec::with_capacity(nodes.len());
        if let (Some(ring), Some(key)) = (ring, key) {
            for owner in ring.replicas(key) {
                if let Some(i) = nodes.iter().position(|n| n.node == owner) {
                    if !order.contains(&i) {
                        order.push(i);
                    }
                }
            }
        }
        if !nodes.is_empty() {
            let start = self.cursor.fetch_add(1, Ordering::Relaxed);
            for k in 0..nodes.len() {
                let i = (start.wrapping_add(k)) % nodes.len();
                if !order.contains(&i) {
                    order.push(i);
                }
            }
        }
        order
    }

    /// Fetch (or reuse) the routing table and its shard ring. On any
    /// registry failure — unreachable, or reachable but erroring (e.g.
    /// `S503` mid-rotation) — the last-known table keeps routing: one
    /// failed refresh per call, then rung 3, never a retry spin.
    fn routing_table(&self, force_refresh: bool) -> (Vec<NodeEntry>, Option<HashRing>) {
        {
            let cache = self.table.lock();
            if let Some(t) = cache.as_ref() {
                if !force_refresh
                    && !t.nodes.is_empty()
                    && t.fetched_at.elapsed() <= self.options.table_max_age
                {
                    return (t.nodes.clone(), t.ring.clone());
                }
            }
        }
        match self.registry.nodes() {
            Ok((nodes, _version, ring)) => {
                self.refreshes.inc();
                let ring = ring.map(|r| r.ring());
                let mut cache = self.table.lock();
                *cache = Some(CachedTable {
                    nodes: nodes.clone(),
                    ring: ring.clone(),
                    fetched_at: Instant::now(),
                });
                (nodes, ring)
            }
            Err(_) => {
                // Registry down or unhappy: route on whatever we knew last.
                let cache = self.table.lock();
                cache.as_ref().map(|t| (t.nodes.clone(), t.ring.clone())).unwrap_or_default()
            }
        }
    }

    /// One JSON-lines round trip to the node at `addr`, classified for
    /// the ladder: transport failures and `S5xx` fail over, any other
    /// error reply is the same answer on every node.
    fn call_node(
        &self,
        addr: &str,
        method: &Method,
        shard_key: Option<&str>,
    ) -> Result<Reply, NodeError> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let req = Request { id, method: method.clone(), shard_key: shard_key.map(str::to_string) };
        let (connect, io) = (self.options.connect_timeout, self.options.io_timeout);
        let line = call_line(addr, &req.to_json(), connect, io)
            .map_err(|e| NodeError::Transport(e.to_string()))?;
        let resp = parse_response(&line)
            .map_err(|e| NodeError::Transport(format!("{addr}: malformed reply: {e}")))?;
        match resp.result {
            Ok(reply) => Ok(reply),
            Err(e) if e.code.starts_with("S5") => Err(NodeError::Failover(e)),
            Err(e) => Err(NodeError::Fatal(e)),
        }
    }
}

enum NodeError {
    /// Connect/read/write failed or timed out: try the next node.
    Transport(String),
    /// The node answered an `S5xx`: try the next node.
    Failover(ServeError),
    /// A definitive protocol error: retrying elsewhere cannot help.
    Fatal(ServeError),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineOptions, ModelSource};
    use crate::server::{Server, ServerOptions};
    use xpdl_registry::{RegistryMethod, RegistryOptions, RegistryServer};
    use xpdl_runtime::RuntimeModel;

    fn fixed_engine(cores: usize) -> Arc<Engine> {
        let mut xml = String::from(r#"<system id="s"><cpu id="c">"#);
        for i in 0..cores {
            xml.push_str(&format!(r#"<core id="k{i}"/>"#));
        }
        xml.push_str("</cpu></system>");
        let doc = xpdl_core::XpdlDocument::parse_str(&xml).unwrap();
        let model = RuntimeModel::from_element(doc.root());
        Arc::new(
            Engine::new(ModelSource::Fixed(Box::new(model)), EngineOptions::default()).unwrap(),
        )
    }

    fn start_node(engine: Arc<Engine>) -> Server {
        Server::start(engine, "127.0.0.1:0", ServerOptions::default()).unwrap()
    }

    fn register(reg_addr: &str, node: &str, addr: &str, ttl_ms: u64) {
        let client = RegistryClient::new(reg_addr.to_string());
        client
            .call(RegistryMethod::Register {
                node: node.into(),
                addr: addr.into(),
                epoch: 0,
                fingerprint: "f".into(),
                inflight: 0,
                ttl_ms,
            })
            .unwrap();
    }

    fn registry() -> RegistryServer {
        RegistryServer::start("127.0.0.1:0", RegistryOptions::default()).unwrap()
    }

    #[test]
    fn routes_round_robin_and_fails_over_on_dead_node() {
        let reg = registry();
        let reg_addr = reg.local_addr().to_string();
        let a = start_node(fixed_engine(2));
        let b = start_node(fixed_engine(2));
        register(&reg_addr, "a", &a.local_addr().to_string(), 60_000);
        register(&reg_addr, "b", &b.local_addr().to_string(), 60_000);
        let client = ClusterClient::new(reg_addr.clone(), ClusterOptions::default());
        for _ in 0..4 {
            let routed = client.call(Method::NumCores).unwrap();
            assert_eq!(routed.reply, Reply::Count(2));
            assert_eq!(routed.attempts, 1);
        }
        // Kill node b but leave its (long-ttl) lease in the table: calls
        // landing on the dead address must fail over to node a.
        let b_addr = b.local_addr().to_string();
        b.shutdown();
        b.join();
        for _ in 0..4 {
            let routed = client.call(Method::NumCores).unwrap();
            assert_eq!(routed.reply, Reply::Count(2));
            assert!(matches!(&routed.route, Route::Node(addr) if *addr != b_addr));
        }
        reg.shutdown();
        reg.join();
    }

    #[test]
    fn draining_node_is_skipped_via_s510() {
        let reg = registry();
        let reg_addr = reg.local_addr().to_string();
        let draining = fixed_engine(2);
        let healthy = fixed_engine(2);
        let a = start_node(Arc::clone(&draining));
        let b = start_node(healthy);
        register(&reg_addr, "a", &a.local_addr().to_string(), 60_000);
        register(&reg_addr, "b", &b.local_addr().to_string(), 60_000);
        draining.set_draining(true);
        let b_addr = b.local_addr().to_string();
        let client = ClusterClient::new(reg_addr, ClusterOptions::default());
        for _ in 0..4 {
            let routed = client.call(Method::NumCores).unwrap();
            assert_eq!(routed.reply, Reply::Count(2));
            assert_eq!(routed.route, Route::Node(b_addr.clone()));
        }
        reg.shutdown();
        reg.join();
    }

    #[test]
    fn degrades_to_local_fallback_when_everything_is_down() {
        // Registry address nobody listens on; no nodes; fallback engine.
        let client = ClusterClient::new(
            "127.0.0.1:1", // reserved port, connection refused instantly
            ClusterOptions {
                retry: RetryPolicy { max_attempts: 2, ..RetryPolicy::default() },
                ..ClusterOptions::default()
            },
        )
        .with_fallback(fixed_engine(3));
        let routed = client.call(Method::NumCores).unwrap();
        assert_eq!(routed.reply, Reply::Count(3));
        assert_eq!(routed.route, Route::Fallback);
    }

    #[test]
    fn no_nodes_and_no_fallback_is_an_explicit_error() {
        let client = ClusterClient::new(
            "127.0.0.1:1",
            ClusterOptions {
                retry: RetryPolicy { max_attempts: 2, ..RetryPolicy::default() },
                ..ClusterOptions::default()
            },
        );
        match client.call(Method::Ping) {
            Err(ClusterError::NoLiveNodes { .. }) => {}
            other => panic!("expected NoLiveNodes, got {other:?}"),
        }
    }

    #[test]
    fn stale_table_rung_survives_a_registry_that_errors_mid_rotation() {
        // Partial registry outage: the registry stays reachable but
        // answers every `nodes` after the first with S503 (e.g. it is
        // mid-rotation and does not know our generation). The client
        // must refresh once per call, fall back to the cached table,
        // and keep routing — not spin against the registry.
        use std::io::{BufRead as _, BufReader, Write as _};
        use std::net::TcpListener;
        use xpdl_registry::{
            protocol::codes as reg_codes, RegistryError, RegistryReply,
            Response as RegistryResponse,
        };

        let node = start_node(fixed_engine(2));
        let node_addr = node.local_addr().to_string();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let fake_addr = listener.local_addr().unwrap().to_string();
        let served = Arc::new(AtomicUsize::new(0));
        let served_in_thread = Arc::clone(&served);
        let fake = std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { break };
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut line = String::new();
                if reader.read_line(&mut line).unwrap_or(0) == 0 {
                    continue;
                }
                let n = served_in_thread.fetch_add(1, Ordering::SeqCst);
                let resp = if n == 0 {
                    RegistryResponse::ok(
                        1,
                        RegistryReply::Nodes {
                            nodes: vec![NodeEntry {
                                node: "a".into(),
                                addr: node_addr.clone(),
                                epoch: 0,
                                fingerprint: "f".into(),
                                inflight: 0,
                                generation: 1,
                                age_ms: 0,
                                ttl_ms: 60_000,
                            }],
                            version: None,
                            ring: None,
                        },
                    )
                } else {
                    RegistryResponse::err(
                        1,
                        RegistryError::new(reg_codes::UNKNOWN_NODE, "unknown generation"),
                    )
                };
                let mut w = stream;
                let _ = w.write_all(resp.to_json().as_bytes()).and_then(|_| w.write_all(b"\n"));
                if n >= 8 {
                    break; // runaway guard: a spinning client would get here
                }
            }
        });

        let client = ClusterClient::new(
            fake_addr,
            ClusterOptions {
                table_max_age: Duration::ZERO, // every call wants a refresh
                ..ClusterOptions::default()
            },
        );
        // First call: real table fetched and cached.
        let routed = client.call(Method::NumCores).unwrap();
        assert_eq!(routed.reply, Reply::Count(2));
        assert_eq!(routed.attempts, 1);
        // Registry now answers S503. Each call refreshes exactly once,
        // falls to the cached table, and still routes in one attempt.
        for _ in 0..3 {
            let routed = client.call(Method::NumCores).unwrap();
            assert_eq!(routed.reply, Reply::Count(2));
            assert_eq!(routed.attempts, 1);
        }
        // 1 good fetch + exactly one failed refresh per degraded call.
        assert_eq!(served.load(Ordering::SeqCst), 4);
        drop(client);
        node.shutdown();
        node.join();
        drop(fake); // detach: the acceptor exits with the process
    }

    #[test]
    fn shard_key_routes_to_ring_owners_first() {
        let reg = registry();
        let reg_addr = reg.local_addr().to_string();
        let a = start_node(fixed_engine(2));
        let b = start_node(fixed_engine(2));
        register(&reg_addr, "a", &a.local_addr().to_string(), 60_000);
        register(&reg_addr, "b", &b.local_addr().to_string(), 60_000);
        let client = ClusterClient::new(reg_addr, ClusterOptions::default());
        let ring = client.ring().expect("registry publishes a ring");
        // R=2 over two nodes: both own every key, primary first. The
        // client must hit the primary owner on attempt 1 every time,
        // regardless of the round-robin cursor.
        for key in ["edge", "hpc", "mobile", "rack-42"] {
            let primary = ring.replicas(key)[0].to_string();
            let expect = if primary == "a" { &a } else { &b };
            let expect_addr = expect.local_addr().to_string();
            for _ in 0..3 {
                let routed = client.call_for_key(key, Method::NumCores).unwrap();
                assert_eq!(routed.reply, Reply::Count(2));
                assert_eq!(routed.attempts, 1);
                assert_eq!(routed.route, Route::Node(expect_addr.clone()));
            }
        }
        reg.shutdown();
        reg.join();
    }

    #[test]
    fn fatal_errors_do_not_fail_over() {
        let reg = registry();
        let reg_addr = reg.local_addr().to_string();
        let a = start_node(fixed_engine(1));
        register(&reg_addr, "a", &a.local_addr().to_string(), 60_000);
        let client = ClusterClient::new(reg_addr, ClusterOptions::default());
        // `sleep` is a debug method, disabled by default: S430, fatal.
        match client.call(Method::Sleep { ms: 1 }) {
            Err(ClusterError::Serve(e)) => assert_eq!(e.code, crate::protocol::codes::DEBUG_DISABLED),
            other => panic!("expected fatal serve error, got {other:?}"),
        }
        reg.shutdown();
        reg.join();
    }
}
