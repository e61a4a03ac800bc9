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
//! [`Rebalancer`] is the background half: a thread that re-runs the
//! rebalance step on every ring change (kicked by the node agent's ring
//! callback) and on a slow periodic tick as a safety net.

use crate::protocol::{codes, parse_response, Method, Reply, Request, ServeError};
use crate::snapshot::ServeSnapshot;
use std::collections::{BTreeMap, BTreeSet};
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
/// callback) and on a periodic safety-net tick.
pub struct Rebalancer {
    state: Arc<(std::sync::Mutex<RebalanceSignal>, std::sync::Condvar)>,
    handle: Option<std::thread::JoinHandle<()>>,
}

#[derive(Default)]
struct RebalanceSignal {
    stop: bool,
    kicked: bool,
}

impl Rebalancer {
    /// Spawn the thread. `interval` is the safety-net tick — rebalance
    /// work normally starts within milliseconds of a ring push via
    /// [`kick`](Rebalancer::kick).
    pub fn spawn(
        mgr: Arc<ShardManager>,
        registry: RegistryClient,
        interval: Duration,
    ) -> Rebalancer {
        let state = Arc::new((
            std::sync::Mutex::new(RebalanceSignal::default()),
            std::sync::Condvar::new(),
        ));
        let thread_state = Arc::clone(&state);
        let handle = std::thread::Builder::new()
            .name("xpdl-rebalance".to_string())
            .spawn(move || {
                let (lock, cvar) = &*thread_state;
                loop {
                    {
                        let mut sig = lock.lock().unwrap();
                        if !sig.stop && !sig.kicked {
                            sig = cvar.wait_timeout(sig, interval).unwrap().0;
                        }
                        if sig.stop {
                            return;
                        }
                        sig.kicked = false;
                    }
                    // Peers come from the routing table; a registry
                    // hiccup just means this pass probes nobody and the
                    // next tick retries — handoff keys stay held.
                    let peers: Vec<(String, String)> = registry
                        .nodes()
                        .map(|(nodes, _, _)| {
                            nodes.into_iter().map(|n| (n.node, n.addr)).collect()
                        })
                        .unwrap_or_default();
                    let _ = mgr.rebalance_step(&peers);
                }
            })
            .expect("spawn rebalancer thread");
        Rebalancer { state, handle: Some(handle) }
    }

    /// Wake the thread for an immediate pass (call on every ring change).
    pub fn kick(&self) {
        let (lock, cvar) = &*self.state;
        lock.lock().unwrap().kicked = true;
        cvar.notify_one();
    }

    /// Stop the thread and wait for it to exit.
    pub fn shutdown(self) {
        // Drop does the work; this name documents intent at call sites.
    }
}

impl Drop for Rebalancer {
    fn drop(&mut self) {
        let (lock, cvar) = &*self.state;
        lock.lock().unwrap().stop = true;
        cvar.notify_one();
        if let Some(h) = self.handle.take() {
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
    use xpdl_registry::RingInfo;

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
            let peer_mgr = Arc::new(ShardManager::new(peer, universe(), toy_compile()));
            peer_mgr.apply_ring(&ring(&["n1", "n2", "n3"]));
            peer_mgr.rebalance_step(&[]);
            let seed = toy_compile()("seed").unwrap();
            let engine = Arc::new(
                Engine::new(ModelSource::Fixed(Box::new(seed.0)), EngineOptions::default())
                    .unwrap(),
            );
            engine.set_shard_manager(Arc::clone(&peer_mgr));
            let server =
                Server::start(Arc::clone(&engine), "127.0.0.1:0", ServerOptions::default())
                    .unwrap();
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
