//! The registry's state machine: the lease table, the last announced
//! version and the epoch of the last published shard ring.
//!
//! [`RegistryState`] reads no clock, takes no lock and writes to no
//! socket. Every call takes `now` from its caller, and a call that
//! changes what subscribers must know returns the one [`Event`] to push
//! to them. The daemon ([`RegistryServer`](crate::server::RegistryServer))
//! reads the clock, keeps the push list and writes each event under the
//! same lock as the state, so pushes leave in the order the state
//! produced them. Tests drive this same state in virtual time, with no
//! socket or sleep (`tests/schedule.rs`).

use crate::lease::{HeartbeatOutcome, LeaseTable, NodeReport};
use crate::protocol::{
    codes, ClusterStatus, Event, NodeEntry, RegistryError, RegistryMethod, RegistryReply,
};
use crate::ring::RingInfo;
use crate::server::{RegistryOptions, RegistryStats};
use std::time::{Duration, Instant};

/// Shortest lease a `register` is granted, whatever TTL it asks for.
const MIN_TTL: Duration = Duration::from_millis(50);
/// Longest lease a `register` is granted, whatever TTL it asks for.
const MAX_TTL: Duration = Duration::from_secs(60);

/// The registry's membership, version and ring bookkeeping.
#[derive(Debug)]
pub struct RegistryState {
    table: LeaseTable,
    /// The last announced version, echoed on `subscribe` and on leases.
    version: Option<String>,
    /// Epoch of the last ring published (None before the first member
    /// and while the fleet is empty).
    ring_epoch: Option<u64>,
    stats: RegistryStats,
    started: Instant,
    options: RegistryOptions,
}

impl RegistryState {
    /// Fresh state with the given options, started at `now`.
    pub fn new(options: RegistryOptions, now: Instant) -> RegistryState {
        RegistryState {
            table: LeaseTable::new(),
            version: None,
            ring_epoch: None,
            stats: RegistryStats::new(),
            started: now,
            options,
        }
    }

    /// The state's instruments.
    pub fn stats(&self) -> &RegistryStats {
        &self.stats
    }

    /// Execute one method at `now`. Returns the reply and the event, if
    /// any, that every subscriber must now be sent. The caller keeps the
    /// push list: `subscribe` only echoes the version, and `announce`
    /// answers `subscribers: 0` for the caller to replace with the number
    /// of pushes that went out.
    pub fn dispatch(
        &mut self,
        now: Instant,
        method: &RegistryMethod,
    ) -> (Result<RegistryReply, RegistryError>, Option<Event>) {
        match method {
            RegistryMethod::Ping => (Ok(RegistryReply::Pong), None),
            RegistryMethod::Register { node, addr, epoch, fingerprint, inflight, ttl_ms } => {
                let ttl = Duration::from_millis(*ttl_ms).clamp(MIN_TTL, MAX_TTL);
                let report = NodeReport {
                    epoch: *epoch,
                    fingerprint: fingerprint.clone(),
                    inflight: *inflight,
                };
                let generation = self.table.register(node, addr, &report, ttl, now);
                self.stats.registers.inc();
                let event = self.membership_changed(now);
                (Ok(self.lease(generation, ttl, now)), event)
            }
            RegistryMethod::Heartbeat { node, epoch, fingerprint, inflight } => {
                let report = NodeReport {
                    epoch: *epoch,
                    fingerprint: fingerprint.clone(),
                    inflight: *inflight,
                };
                match self.table.heartbeat(node, &report, now) {
                    HeartbeatOutcome::Renewed { generation } => {
                        self.stats.heartbeats.inc();
                        let ttl = self.table.get(node).map_or(Duration::ZERO, |l| l.ttl);
                        (Ok(self.lease(generation, ttl, now)), None)
                    }
                    outcome => {
                        // Only a lease the heartbeat itself reaped (it
                        // died between sweeps) is an expiry; a node with
                        // no lease has nothing to expire.
                        if outcome == HeartbeatOutcome::Expired {
                            self.stats.expirations.inc();
                        }
                        (Err(RegistryError::unknown_node(node)), self.membership_changed(now))
                    }
                }
            }
            RegistryMethod::Deregister { node } => {
                let removed = self.table.deregister(node);
                if removed {
                    self.stats.deregisters.inc();
                }
                (Ok(RegistryReply::Deregistered { removed }), self.membership_changed(now))
            }
            RegistryMethod::Nodes => {
                let reply = RegistryReply::Nodes {
                    nodes: self.entries(now),
                    version: self.version.clone(),
                    ring: self.ring(now),
                };
                (Ok(reply), None)
            }
            RegistryMethod::Announce { version } => {
                // An empty version would poison the subscribe catch-up
                // (late subscribers would "catch up" to nothing) — the
                // calibration publisher must always name the new epoch.
                if version.is_empty() {
                    let err = RegistryError::new(
                        codes::INVALID_PARAMS,
                        "announce requires a non-empty version",
                    );
                    return (Err(err), None);
                }
                self.version = Some(version.clone());
                self.stats.announcements.inc();
                let event = Event::Invalidate { version: version.clone() };
                (Ok(RegistryReply::Announced { subscribers: 0 }), Some(event))
            }
            RegistryMethod::Subscribe { .. } => {
                (Ok(RegistryReply::Subscribed { version: self.version.clone() }), None)
            }
            RegistryMethod::Stats => {
                let reply = RegistryReply::Stats {
                    nodes: self.live_nodes(now) as u64,
                    registers: self.stats.registers.get(),
                    heartbeats: self.stats.heartbeats.get(),
                    expirations: self.stats.expirations.get(),
                    announcements: self.stats.announcements.get(),
                    uptime_ms: self.uptime_ms(now),
                };
                (Ok(reply), None)
            }
            RegistryMethod::Status => {
                let reply = RegistryReply::Status(ClusterStatus {
                    nodes: self.entries(now),
                    ring: self.ring(now),
                    version: self.version.clone(),
                    uptime_ms: self.uptime_ms(now),
                });
                (Ok(reply), None)
            }
        }
    }

    /// One sweeper pass: expire the leases stale at `now`. Returns the
    /// expired node ids and, if the ring moved, the `ring` event to push
    /// — this is what starts the self-healing rebalance after a SIGKILL.
    pub fn sweep(&mut self, now: Instant) -> (Vec<String>, Option<Event>) {
        let dead = self.table.sweep(now);
        self.stats.expirations.add(dead.len() as u64);
        let event = self.membership_changed(now);
        (dead, event)
    }

    /// The first instant at which some lease is no longer live, which is
    /// when the next sweep has work (`None` with no leases).
    pub fn next_expiry(&self) -> Option<Instant> {
        self.table.next_expiry()
    }

    /// Number of leases live at `now`.
    pub fn live_nodes(&self, now: Instant) -> usize {
        self.table.live(now).len()
    }

    /// The shard ring over the members live at `now` (`None` for an
    /// empty fleet).
    pub fn ring(&self, now: Instant) -> Option<RingInfo> {
        let members: Vec<String> = self.table.live(now).iter().map(|l| l.node.clone()).collect();
        (!members.is_empty())
            .then(|| RingInfo::compute(&members, self.options.replication, self.options.vnodes))
    }

    /// After a membership edit: refresh the live-node gauge, and return a
    /// `ring` event iff the ring's epoch moved since the last one
    /// published. Leases that expired unswept leave the ring here too.
    /// An empty fleet moves the epoch but has no ring to push.
    fn membership_changed(&mut self, now: Instant) -> Option<Event> {
        self.stats.nodes.set(self.live_nodes(now) as u64);
        let ring = self.ring(now);
        let epoch = ring.as_ref().map(|r| r.epoch);
        if self.ring_epoch == epoch {
            return None;
        }
        self.ring_epoch = epoch;
        self.stats.ring_changes.inc();
        ring.map(|ring| Event::Ring { ring })
    }

    fn lease(&self, generation: u64, ttl: Duration, now: Instant) -> RegistryReply {
        RegistryReply::Lease {
            generation,
            ttl_ms: ttl.as_millis() as u64,
            version: self.version.clone(),
            ring: self.ring(now),
        }
    }

    fn entries(&self, now: Instant) -> Vec<NodeEntry> {
        self.table
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

    fn uptime_ms(&self, now: Instant) -> u64 {
        now.saturating_duration_since(self.started).as_millis() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::DEFAULT_REPLICATION;

    fn register(
        state: &mut RegistryState,
        now: Instant,
        node: &str,
        ttl_ms: u64,
    ) -> (RegistryReply, Option<Event>) {
        let method = RegistryMethod::Register {
            node: node.into(),
            addr: "127.0.0.1:7001".into(),
            epoch: 1,
            fingerprint: "f".into(),
            inflight: 0,
            ttl_ms,
        };
        let (reply, event) = state.dispatch(now, &method);
        (reply.unwrap(), event)
    }

    fn ring_nodes(event: Option<Event>) -> Vec<String> {
        match event {
            Some(Event::Ring { ring }) => ring.nodes,
            other => panic!("expected a ring event, got {other:?}"),
        }
    }

    #[test]
    fn register_heartbeat_nodes_deregister() {
        let t0 = Instant::now();
        let mut state = RegistryState::new(RegistryOptions::default(), t0);
        let (lease, _) = register(&mut state, t0, "n1", 1000);
        assert!(matches!(lease, RegistryReply::Lease { generation: 1, ttl_ms: 1000, .. }));
        let now = t0 + Duration::from_millis(300);
        let heartbeat = RegistryMethod::Heartbeat {
            node: "n1".into(),
            epoch: 2,
            fingerprint: "g".into(),
            inflight: 3,
        };
        let (hb, _) = state.dispatch(now, &heartbeat);
        assert!(matches!(hb.unwrap(), RegistryReply::Lease { generation: 1, .. }));
        match state.dispatch(now, &RegistryMethod::Nodes).0.unwrap() {
            RegistryReply::Nodes { nodes, .. } => {
                assert_eq!(nodes.len(), 1);
                assert_eq!(nodes[0].epoch, 2);
                assert_eq!(nodes[0].inflight, 3);
            }
            other => panic!("unexpected reply {other:?}"),
        }
        match state.dispatch(now, &RegistryMethod::Deregister { node: "n1".into() }).0 {
            Ok(RegistryReply::Deregistered { removed }) => assert!(removed),
            other => panic!("unexpected reply {other:?}"),
        }
        assert_eq!(state.live_nodes(now), 0);
    }

    #[test]
    fn heartbeat_without_lease_is_unknown_node() {
        let t0 = Instant::now();
        let mut state = RegistryState::new(RegistryOptions::default(), t0);
        let heartbeat = RegistryMethod::Heartbeat {
            node: "ghost".into(),
            epoch: 0,
            fingerprint: String::new(),
            inflight: 0,
        };
        let err = state.dispatch(t0, &heartbeat).0.unwrap_err();
        assert_eq!(err.code, codes::UNKNOWN_NODE);
        // A node that held no lease has nothing to expire.
        assert_eq!(state.stats().expirations.get(), 0);
    }

    #[test]
    fn ttl_clamped_to_constants() {
        let t0 = Instant::now();
        let mut state = RegistryState::new(RegistryOptions::default(), t0);
        match register(&mut state, t0, "n1", 5).0 {
            RegistryReply::Lease { ttl_ms, .. } => assert_eq!(ttl_ms, 50),
            other => panic!("unexpected reply {other:?}"),
        }
        match register(&mut state, t0, "n2", 90_000).0 {
            RegistryReply::Lease { ttl_ms, .. } => assert_eq!(ttl_ms, 60_000),
            other => panic!("unexpected reply {other:?}"),
        }
        // A requested TTL between the bounds is granted as asked.
        match register(&mut state, t0, "n3", 1_500).0 {
            RegistryReply::Lease { ttl_ms, .. } => assert_eq!(ttl_ms, 1_500),
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn empty_announce_rejected_without_touching_state() {
        let t0 = Instant::now();
        let mut state = RegistryState::new(RegistryOptions::default(), t0);
        state.dispatch(t0, &RegistryMethod::Announce { version: "v1".into() }).0.unwrap();
        let (err, event) = state.dispatch(t0, &RegistryMethod::Announce { version: String::new() });
        assert_eq!(err.unwrap_err().code, codes::INVALID_PARAMS);
        assert_eq!(event, None);
        // The last good version survives for subscriber catch-up.
        match state.dispatch(t0, &RegistryMethod::Subscribe { node: "n9".into() }).0.unwrap() {
            RegistryReply::Subscribed { version } => assert_eq!(version.as_deref(), Some("v1")),
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn lease_and_status_carry_the_ring_and_membership_changes_push_it() {
        let t0 = Instant::now();
        let mut state = RegistryState::new(RegistryOptions::default(), t0);
        let (lease, event) = register(&mut state, t0, "n1", 1000);
        match lease {
            RegistryReply::Lease { ring: Some(r), .. } => {
                assert_eq!(r.nodes, vec!["n1".to_string()]);
                assert_eq!(r.replication, DEFAULT_REPLICATION as u64);
            }
            other => panic!("unexpected reply {other:?}"),
        }
        // First member → a ring event.
        assert_eq!(ring_nodes(event), vec!["n1".to_string()]);
        let (_, event) = register(&mut state, t0, "n2", 1000);
        assert_eq!(ring_nodes(event), vec!["n1".to_string(), "n2".to_string()]);
        // Re-registering an existing member does not move the ring, so
        // the next event is the deregistration's.
        assert_eq!(register(&mut state, t0, "n2", 1000).1, None);
        let (_, event) = state.dispatch(t0, &RegistryMethod::Deregister { node: "n2".into() });
        assert_eq!(ring_nodes(event), vec!["n1".to_string()]);
        // `status` reports the table with lease deadlines plus the ring.
        match state.dispatch(t0, &RegistryMethod::Status).0.unwrap() {
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
        let t0 = Instant::now();
        let mut state = RegistryState::new(RegistryOptions::default(), t0);
        register(&mut state, t0, "doomed", 100);
        register(&mut state, t0, "survivor", 60_000);
        let later = t0 + Duration::from_millis(200);
        let (dead, event) = state.sweep(later);
        assert_eq!(dead, vec!["doomed".to_string()]);
        assert_eq!(ring_nodes(event), vec!["survivor".to_string()]);
        assert_eq!(state.ring(later).unwrap().nodes, vec!["survivor".to_string()]);
    }
}
