//! Shard ownership and self-healing rebalance for sharded fleets.
//!
//! A sharded node serves many model keys instead of one. Which keys is
//! decided by the consistent-hash ring the registry publishes
//! ([`xpdl_registry::RingInfo`]): every key in the node's *universe*
//! (typically the model-library key list) is owned by the ring's `R`
//! replicas, and this node loads exactly the keys it owns.
//!
//! [`ShardManager`] holds the per-key snapshots and the ownership state
//! machine (DESIGN.md §17):
//!
//! * **owned** — assigned by the ring and loaded: served directly.
//! * **pull** — assigned but not loaded yet (membership just changed):
//!   [`ShardManager::snapshot_for`] compiles on demand, so a key is
//!   answerable the moment ownership lands, and
//!   [`ShardManager::rebalance_step`] pre-compiles the rest. When the
//!   compile function is repository-backed, the disk cache is the warm
//!   tier — a pull after a restart is a cache read, not a re-fetch.
//! * **handoff** — no longer assigned but still loaded: kept servable
//!   until *every* live successor on the ring acks ownership over the
//!   `shards` protocol method; only then is the local copy dropped.
//!   An unreachable successor means the key is simply held longer —
//!   releasing early is the only unsafe direction.
//! * **not owned** — never loaded here: answered with `S511 NOT_OWNER`
//!   plus a routing hint naming the owners, which shard-aware clients
//!   treat as failover and others surface verbatim.
//!
//! [`Rebalancer`] is the background half: a thread that runs the
//! rebalance step on every ring change (kicked by the node agent's ring
//! callback), and again after a fixed 100 ms only while a pass leaves
//! work pending. Otherwise it parks with no timeout.

use crate::protocol::{codes, parse_response, Method, Reply, Request, ServeError};
use crate::snapshot::ServeSnapshot;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use xpdl_obs::{Counter, MetricsRegistry};
use xpdl_registry::client::call_line;
use xpdl_registry::{HashRing, RegistryClient, RingInfo};
use xpdl_runtime::RuntimeModel;

/// Connect timeout of a handoff probe (`shards` on a successor).
const PROBE_CONNECT_TIMEOUT: Duration = Duration::from_millis(300);
/// Read/write timeout of a handoff probe.
const PROBE_IO_TIMEOUT: Duration = Duration::from_millis(1000);
/// How long the [`Rebalancer`] waits before it retries a pass that left
/// work pending: a successor that has not loaded a handoff key yet, an
/// unreachable peer or registry, or an owned key that failed to compile.
const RETRY_DELAY: Duration = Duration::from_millis(100);

/// Compile one shard key into a model (plus a source description).
/// Repository-backed in production (resolve + elaborate through the
/// store stack, so retries/disk-cache/offline semantics all apply),
/// synthetic in tests.
pub type ShardCompileFn =
    Box<dyn Fn(&str) -> Result<(RuntimeModel, String), ServeError> + Send + Sync>;

struct ShardTable {
    /// The last ring applied (`None` until the registry publishes one).
    ring: Option<HashRing>,
    /// Loaded snapshots by key: owned keys plus handoff survivors.
    loaded: BTreeMap<String, Arc<ServeSnapshot>>,
    /// Keys lost to a ring change but still served pending successor
    /// acknowledgement.
    handoff: BTreeSet<String>,
}

/// Per-node shard state: which keys this node owns, serves, and is
/// handing off. Shared between the engine (request path), the node
/// agent's ring callback, and the [`Rebalancer`] thread.
pub struct ShardManager {
    node: String,
    universe: Vec<String>,
    compile: ShardCompileFn,
    table: parking_lot::Mutex<ShardTable>,
    ring_applies: Arc<Counter>,
    pulls: Arc<Counter>,
    drops: Arc<Counter>,
    not_owner: Arc<Counter>,
    probe_failures: Arc<Counter>,
}

impl std::fmt::Debug for ShardManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let t = self.table.lock();
        f.debug_struct("ShardManager")
            .field("node", &self.node)
            .field("universe", &self.universe.len())
            .field("ring_epoch", &t.ring.as_ref().map(|r| format!("{:016x}", r.epoch())))
            .field("loaded", &t.loaded.len())
            .field("handoff", &t.handoff.len())
            .finish()
    }
}

impl ShardManager {
    /// A manager for `node`, sharding `universe` keys, compiling each
    /// through `compile`. No ring yet: until the registry publishes one,
    /// every compilable key is served (a standalone sharded node is just
    /// a multi-model server).
    pub fn new(
        node: impl Into<String>,
        universe: Vec<String>,
        compile: ShardCompileFn,
    ) -> ShardManager {
        let reg = MetricsRegistry::global();
        ShardManager {
            node: node.into(),
            universe,
            compile,
            table: parking_lot::Mutex::new(ShardTable {
                ring: None,
                loaded: BTreeMap::new(),
                handoff: BTreeSet::new(),
            }),
            ring_applies: reg.counter("serve.shard.ring_applies"),
            pulls: reg.counter("serve.shard.pulls"),
            drops: reg.counter("serve.shard.drops"),
            not_owner: reg.counter("serve.shard.not_owner"),
            probe_failures: reg.counter("serve.shard.probe_failures"),
        }
    }

    /// This node's identity on the ring.
    pub fn node(&self) -> &str {
        &self.node
    }

    /// The shard-key universe this fleet partitions.
    pub fn universe(&self) -> &[String] {
        &self.universe
    }

    /// Whether `key` may be answered here under the current ring:
    /// owned, in handoff, or no ring published yet.
    fn servable(t: &ShardTable, node: &str, key: &str) -> bool {
        match &t.ring {
            None => true,
            Some(ring) => ring.owns(node, key) || t.handoff.contains(key),
        }
    }

    /// The snapshot for `key`, compiling it on demand the first time —
    /// which is what keeps every key answerable *during* a rebalance: a
    /// freshly-owned key that the pull has not reached yet is simply
    /// compiled inline. Non-owned keys get `S511` with the owner list as
    /// a routing hint.
    pub fn snapshot_for(&self, key: &str) -> Result<Arc<ServeSnapshot>, ServeError> {
        {
            let t = self.table.lock();
            if !Self::servable(&t, &self.node, key) {
                self.not_owner.inc();
                let owners =
                    t.ring.as_ref().map(|r| r.replicas(key).join(",")).unwrap_or_default();
                return Err(ServeError::new(
                    codes::NOT_OWNER,
                    format!("shard {key:?} is not owned by this node; owners={owners}"),
                ));
            }
            if let Some(snap) = t.loaded.get(key) {
                return Ok(Arc::clone(snap));
            }
        }
        // Compile outside the lock (can be slow); a concurrent compile
        // of the same key is a benign double-build — first insert wins.
        let (model, desc) = (self.compile)(key)?;
        let snap = Arc::new(ServeSnapshot::initial(model, desc));
        let mut t = self.table.lock();
        if Self::servable(&t, &self.node, key) {
            let entry = t.loaded.entry(key.to_string()).or_insert_with(|| Arc::clone(&snap));
            Ok(Arc::clone(entry))
        } else {
            // The ring moved away mid-compile: answer this request from
            // the fresh snapshot but do not cache a key we don't own.
            Ok(snap)
        }
    }

    /// Apply a ring published by the registry. Newly-owned keys become
    /// pull work (compiled lazily on first request or eagerly by the
    /// next [`rebalance_step`](Self::rebalance_step)); lost keys move to
    /// handoff and *stay servable*. Idempotent per epoch. Returns
    /// whether the ring actually changed.
    pub fn apply_ring(&self, info: &RingInfo) -> bool {
        let ring = info.ring();
        let mut t = self.table.lock();
        if t.ring.as_ref().map(HashRing::epoch) == Some(ring.epoch()) {
            return false;
        }
        let lost: Vec<String> = t
            .loaded
            .keys()
            .filter(|k| !ring.owns(&self.node, k))
            .cloned()
            .collect();
        t.handoff.extend(lost);
        // Keys owned again (a flapping node, a reverted ring) leave
        // handoff; they are just owned-and-loaded.
        let node = self.node.clone();
        t.handoff.retain(|k| !ring.owns(&node, k));
        t.ring = Some(ring);
        self.ring_applies.inc();
        true
    }

    /// Keys assigned to this node by the current ring (empty until a
    /// ring is published).
    pub fn owned_keys(&self) -> Vec<String> {
        let t = self.table.lock();
        match &t.ring {
            None => Vec::new(),
            Some(ring) => self
                .universe
                .iter()
                .filter(|k| ring.owns(&self.node, k))
                .cloned()
                .collect(),
        }
    }

    /// One self-healing pass: pull every owned-but-unloaded key, then
    /// drop each handoff key whose successors *all* acked ownership.
    /// `peers` maps node ids to serve addresses (from the registry's
    /// routing table). Returns `(pulled, dropped)`.
    ///
    /// Safety direction: any doubt — an owner missing from `peers`,
    /// unreachable, or not yet serving the key — keeps the key held.
    /// Holding too long costs memory; dropping too early loses the last
    /// replica.
    pub fn rebalance_step(&self, peers: &[(String, String)]) -> (usize, usize) {
        let mut pulled = 0;
        for key in self.owned_keys() {
            let have = {
                let t = self.table.lock();
                t.loaded.contains_key(&key)
            };
            if have {
                continue;
            }
            // Compile failures are retried on the next pass (and the
            // request path still compiles on demand): self-healing, not
            // fail-fast.
            if let Ok((model, desc)) = (self.compile)(&key) {
                let snap = Arc::new(ServeSnapshot::initial(model, desc));
                let mut t = self.table.lock();
                if Self::servable(&t, &self.node, &key) {
                    t.loaded.entry(key).or_insert(snap);
                    pulled += 1;
                    self.pulls.inc();
                }
            }
        }
        let (ring, handoff) = {
            let t = self.table.lock();
            (t.ring.clone(), t.handoff.iter().cloned().collect::<Vec<_>>())
        };
        let Some(ring) = ring else { return (pulled, 0) };
        let mut dropped = 0;
        'keys: for key in handoff {
            let owners: Vec<String> =
                ring.replicas(&key).into_iter().map(str::to_string).collect();
            if owners.is_empty() {
                continue;
            }
            for owner in &owners {
                let Some((_, addr)) = peers.iter().find(|(n, _)| n == owner) else {
                    continue 'keys; // owner not in the table yet: hold
                };
                if !Self::peer_serves(addr, &key) {
                    self.probe_failures.inc();
                    continue 'keys;
                }
            }
            let mut t = self.table.lock();
            // Re-check under the lock: a newer ring may have made the
            // key owned again, in which case it must not be dropped.
            let still_lost =
                t.ring.as_ref().map(|r| !r.owns(&self.node, &key)).unwrap_or(false);
            if still_lost && t.handoff.remove(&key) {
                t.loaded.remove(&key);
                dropped += 1;
                self.drops.inc();
            }
        }
        (pulled, dropped)
    }

    /// Whether a rebalance pass has work left: a handoff key no successor
    /// has acked yet, or an owned key not loaded yet.
    fn pending(&self) -> bool {
        let t = self.table.lock();
        let unloaded = |ring: &HashRing| {
            self.universe.iter().any(|k| ring.owns(&self.node, k) && !t.loaded.contains_key(k))
        };
        !t.handoff.is_empty() || t.ring.as_ref().is_some_and(unloaded)
    }

    /// Ask the peer at `addr` whether it currently serves `key` (lists
    /// it as owned-and-loaded in its `shards` reply). Any failure reads
    /// as "no", which holds the key.
    fn peer_serves(addr: &str, key: &str) -> bool {
        let req = Request::new(1, Method::Shards).to_json();
        let Ok(line) = call_line(addr, &req, PROBE_CONNECT_TIMEOUT, PROBE_IO_TIMEOUT) else {
            return false;
        };
        matches!(
            parse_response(&line).map(|r| r.result),
            Ok(Ok(Reply::Shards { owned, .. })) if owned.iter().any(|k| k == key)
        )
    }

    /// The `shards` reply body: ring epoch, owned-and-loaded keys, and
    /// handoff keys — what peers poll to ack ownership transfer and what
    /// the chaos suite counts replicas with.
    pub fn shard_info(&self) -> Reply {
        let t = self.table.lock();
        let owned = t
            .loaded
            .keys()
            .filter(|k| match &t.ring {
                None => true,
                Some(ring) => ring.owns(&self.node, k),
            })
            .cloned()
            .collect();
        Reply::Shards {
            enabled: true,
            ring_epoch: t.ring.as_ref().map(|r| format!("{:016x}", r.epoch())),
            owned,
            handoff: t.handoff.iter().cloned().collect(),
        }
    }
}

/// The background rebalance thread: runs
/// [`ShardManager::rebalance_step`] with peer addresses from the
/// registry whenever [`kick`](Rebalancer::kick)ed (the node agent's ring
/// callback), and 100 ms after a pass that left work pending. With
/// nothing pending it parks until the next kick.
pub struct Rebalancer {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Rebalancer {
    /// Spawn the thread. Its first pass runs on the first
    /// [`kick`](Rebalancer::kick).
    pub fn spawn(mgr: Arc<ShardManager>, registry: RegistryClient) -> Rebalancer {
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("xpdl-rebalance".to_string())
            .spawn(move || {
                let mut pending = false;
                loop {
                    // A kick or a stop unparks; a kick that lands during
                    // a pass makes this park return at once.
                    if pending {
                        std::thread::park_timeout(RETRY_DELAY);
                    } else {
                        std::thread::park();
                    }
                    if thread_stop.load(Ordering::Acquire) {
                        return;
                    }
                    // Peers come from the routing table; a registry
                    // hiccup just means this pass probes nobody and the
                    // handoff keys stay held until the retry.
                    let peers: Vec<(String, String)> = registry
                        .nodes()
                        .map(|(nodes, _, _)| {
                            nodes.into_iter().map(|n| (n.node, n.addr)).collect()
                        })
                        .unwrap_or_default();
                    mgr.rebalance_step(&peers);
                    pending = mgr.pending();
                }
            })
            .expect("spawn rebalancer thread");
        Rebalancer { stop, handle: Some(handle) }
    }

    /// Wake the thread for an immediate pass (call on every ring change).
    pub fn kick(&self) {
        if let Some(h) = &self.handle {
            h.thread().unpark();
        }
    }
}

impl Drop for Rebalancer {
    /// Stop the thread and wait for it to exit.
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            h.thread().unpark();
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineOptions, ModelSource};
    use crate::server::{Server, ServerOptions};
    use xpdl_core::XpdlDocument;
    use xpdl_registry::{RegistryMethod, RegistryOptions, RegistryServer, RingInfo};

    /// A compile function producing a distinct tiny model per key.
    fn toy_compile() -> ShardCompileFn {
        Box::new(|key: &str| {
            let cores = (key.len() % 7) + 1;
            let mut xml = format!(r#"<system id="s_{}"><cpu id="c">"#, key.len());
            for i in 0..cores {
                xml.push_str(&format!(r#"<core id="k{i}"/>"#));
            }
            xml.push_str("</cpu></system>");
            let doc = XpdlDocument::parse_str(&xml).unwrap();
            Ok((xpdl_runtime::RuntimeModel::from_element(doc.root()), format!("toy:{key}")))
        })
    }

    fn universe() -> Vec<String> {
        ["edge", "hpc", "mobile", "rack", "iot", "lab"].map(String::from).to_vec()
    }

    fn ring(nodes: &[&str]) -> RingInfo {
        RingInfo::compute(
            &nodes.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
            2,
            32,
        )
    }

    #[test]
    fn no_ring_serves_everything_on_demand() {
        let mgr = ShardManager::new("n1", universe(), toy_compile());
        let snap = mgr.snapshot_for("edge").unwrap();
        assert_eq!(snap.source, "toy:edge");
        // Cached: same Arc comes back.
        assert!(Arc::ptr_eq(&snap, &mgr.snapshot_for("edge").unwrap()));
        match mgr.shard_info() {
            Reply::Shards { enabled, ring_epoch, owned, handoff } => {
                assert!(enabled);
                assert_eq!(ring_epoch, None);
                assert_eq!(owned, ["edge"]);
                assert!(handoff.is_empty());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn non_owned_keys_get_s511_with_a_routing_hint() {
        let mgr = ShardManager::new("n1", universe(), toy_compile());
        let info = ring(&["n1", "n2", "n3"]);
        assert!(mgr.apply_ring(&info));
        assert!(!mgr.apply_ring(&info), "same epoch must be a no-op");
        let r = info.ring();
        for key in universe() {
            if r.owns("n1", &key) {
                assert!(mgr.snapshot_for(&key).is_ok(), "{key}");
            } else {
                let err = mgr.snapshot_for(&key).unwrap_err();
                assert_eq!(err.code, codes::NOT_OWNER);
                for owner in r.replicas(&key) {
                    assert!(err.message.contains(owner), "{} hint missing {owner}", err.message);
                }
            }
        }
    }

    #[test]
    fn lost_keys_stay_servable_until_a_successor_acks() {
        // n1 alone owns everything; then n2 joins and takes some keys.
        let mgr = ShardManager::new("n1", universe(), toy_compile());
        mgr.apply_ring(&ring(&["n1"]));
        assert_eq!(mgr.rebalance_step(&[]).0, universe().len());
        mgr.apply_ring(&ring(&["n1", "n2", "n3"]));
        let r = ring(&["n1", "n2", "n3"]).ring();
        let lost: Vec<String> =
            universe().into_iter().filter(|k| !r.owns("n1", k)).collect();
        assert!(!lost.is_empty(), "with R=2 over 3 nodes some keys must move");
        // Handoff keys still answer queries...
        for key in &lost {
            assert!(mgr.snapshot_for(key).is_ok(), "{key} must stay servable in handoff");
        }
        // ...and survive a rebalance pass whose successors are absent.
        let (_, dropped) = mgr.rebalance_step(&[]);
        assert_eq!(dropped, 0, "no successor ack, nothing may drop");
        for key in &lost {
            assert!(mgr.snapshot_for(key).is_ok());
        }

        // Stand up real successors that own and serve the lost keys.
        let mut peers: Vec<(String, String)> = Vec::new();
        let mut servers = Vec::new();
        for peer in ["n2", "n3"] {
            let (peer_mgr, server) = successor(peer);
            peer_mgr.rebalance_step(&[]);
            peers.push((peer.to_string(), server.local_addr().to_string()));
            servers.push(server);
        }
        let (_, dropped) = mgr.rebalance_step(&peers);
        assert_eq!(dropped, lost.len(), "every acked handoff key is released");
        for key in &lost {
            let err = mgr.snapshot_for(key).unwrap_err();
            assert_eq!(err.code, codes::NOT_OWNER);
        }
        for s in servers {
            s.shutdown();
            s.join();
        }
    }

    /// A serving node `peer` on the three-node ring that has not loaded
    /// any of its keys yet: its `shards` reply lists none until
    /// `rebalance_step` pulls them.
    fn successor(peer: &str) -> (Arc<ShardManager>, Server) {
        let peer_mgr = Arc::new(ShardManager::new(peer, universe(), toy_compile()));
        peer_mgr.apply_ring(&ring(&["n1", "n2", "n3"]));
        let seed = toy_compile()("seed").unwrap();
        let engine = Arc::new(
            Engine::new(ModelSource::Fixed(Box::new(seed.0)), EngineOptions::default()).unwrap(),
        );
        engine.set_shard_manager(Arc::clone(&peer_mgr));
        let server =
            Server::start(engine, "127.0.0.1:0", ServerOptions::default()).unwrap();
        (peer_mgr, server)
    }

    fn handoff_keys(mgr: &ShardManager) -> Vec<String> {
        match mgr.shard_info() {
            Reply::Shards { handoff, .. } => handoff,
            other => panic!("{other:?}"),
        }
    }

    fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(std::time::Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// One kick, then successors that start serving only after the first
    /// pass: the pass leaves the handoff keys held, and the rebalancer
    /// retries on its own until it drops them.
    #[test]
    fn rebalancer_retries_held_handoff_keys_without_a_kick() {
        let registry =
            RegistryServer::start("127.0.0.1:0", RegistryOptions::default()).unwrap();
        let mgr = Arc::new(ShardManager::new("n1", universe(), toy_compile()));
        mgr.apply_ring(&ring(&["n1"]));
        mgr.rebalance_step(&[]);
        mgr.apply_ring(&ring(&["n1", "n2", "n3"]));
        let lost = handoff_keys(&mgr);
        assert!(!lost.is_empty(), "with R=2 over 3 nodes some keys must move");
        let client = RegistryClient::new(registry.local_addr().to_string());
        let successors: Vec<_> = ["n2", "n3"]
            .into_iter()
            .map(|peer| {
                let (peer_mgr, server) = successor(peer);
                client
                    .call(RegistryMethod::Register {
                        node: peer.into(),
                        addr: server.local_addr().to_string(),
                        epoch: 0,
                        fingerprint: "f".into(),
                        inflight: 0,
                        ttl_ms: 60_000,
                    })
                    .unwrap();
                (peer_mgr, server)
            })
            .collect();
        let failures = mgr.probe_failures.get();
        let rebalancer = Rebalancer::spawn(Arc::clone(&mgr), client);
        rebalancer.kick();
        // The first pass probes each lost key once, finds its first owner
        // not serving it, and holds it.
        wait_until("the first pass's probes", || {
            mgr.probe_failures.get() >= failures + lost.len() as u64
        });
        assert_eq!(handoff_keys(&mgr), lost);
        for (peer_mgr, _) in &successors {
            peer_mgr.rebalance_step(&[]);
        }
        wait_until("the held keys to drop", || handoff_keys(&mgr).is_empty());
        for key in &lost {
            assert_eq!(mgr.snapshot_for(key).unwrap_err().code, codes::NOT_OWNER);
        }
        assert!(!mgr.pending());
        drop(rebalancer);
        for (_, server) in successors {
            server.shutdown();
            server.join();
        }
        registry.shutdown();
        registry.join();
    }

    #[test]
    fn reverted_ring_reclaims_handoff_keys() {
        let mgr = ShardManager::new("n1", universe(), toy_compile());
        mgr.apply_ring(&ring(&["n1"]));
        mgr.rebalance_step(&[]);
        mgr.apply_ring(&ring(&["n1", "n2", "n3"]));
        // The other nodes vanish again before any successor acked.
        mgr.apply_ring(&ring(&["n1"]));
        match mgr.shard_info() {
            Reply::Shards { owned, handoff, .. } => {
                assert_eq!(owned.len(), universe().len());
                assert!(handoff.is_empty(), "owned-again keys must leave handoff");
            }
            other => panic!("{other:?}"),
        }
    }
}
