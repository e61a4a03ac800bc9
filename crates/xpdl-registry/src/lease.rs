//! TTL lease table: clock-free monotonic membership accounting.
//!
//! Every serving node holds exactly one [`Lease`], granted on `register`
//! and renewed by each `heartbeat`. Expiry is computed against a caller
//! supplied [`Instant`] — never against wall-clock time — so a host
//! clock step (NTP slew, VM suspend) can neither prematurely expire a
//! healthy node nor keep a dead one alive, and tests can drive the
//! whole state machine with synthetic instants.
//!
//! Lease state machine (DESIGN.md §16):
//!
//! ```text
//!            register                heartbeat (age <= ttl)
//!   (absent) ────────► LIVE ◄──────────────────────────┐
//!      ▲                │ │                             │
//!      │                │ └─────────────────────────────┘
//!      │   deregister   │
//!      ├────────────────┤
//!      │                │ sweep/heartbeat with age > ttl
//!      └────────────────┴──► EXPIRED (removed; that heartbeat and
//!                             later ones answer S503 → node
//!                             re-registers)
//! ```
//!
//! A heartbeat arriving *exactly* at the TTL boundary (`age == ttl`)
//! renews: the lease contract is "valid through ttl", not "valid below
//! ttl", so a node heartbeating at precisely its deadline never flaps.
//! Duplicate registration of a live node id is a renewal-with-replace
//! (the newer registration wins — it carries the node's current address
//! and epoch after a restart), and re-registration after expiry is a
//! plain registration: the table never remembers expired tenants.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One node's membership record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lease {
    /// The node's self-chosen stable identity.
    pub node: String,
    /// Address clients should connect to (`host:port`).
    pub addr: String,
    /// Snapshot epoch the node last reported.
    pub epoch: u64,
    /// Model fingerprint (hex) the node last reported.
    pub fingerprint: String,
    /// In-flight request count the node last reported.
    pub inflight: u64,
    /// How many times this lease was granted (1 on first register,
    /// incremented by every re-registration — a restart detector).
    pub generation: u64,
    /// When the lease was last granted or renewed.
    pub renewed_at: Instant,
    /// Per-lease time-to-live.
    pub ttl: Duration,
}

impl Lease {
    /// Whether the lease is still valid at `now`. The boundary is
    /// inclusive: `age == ttl` is alive (see module docs).
    pub fn is_live(&self, now: Instant) -> bool {
        now.saturating_duration_since(self.renewed_at) <= self.ttl
    }

    /// Milliseconds since the last renewal (0 if `now` predates it).
    pub fn age_ms(&self, now: Instant) -> u64 {
        now.saturating_duration_since(self.renewed_at).as_millis() as u64
    }
}

/// What a heartbeat carries: the node's live serving state.
#[derive(Debug, Clone, Default)]
pub struct NodeReport {
    /// Snapshot epoch currently served.
    pub epoch: u64,
    /// Model fingerprint (hex) currently served.
    pub fingerprint: String,
    /// Requests in flight right now.
    pub inflight: u64,
}

/// Outcome of a [`LeaseTable::heartbeat`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HeartbeatOutcome {
    /// Lease renewed; carries the current generation.
    Renewed {
        /// Generation of the renewed lease.
        generation: u64,
    },
    /// The lease had expired and the sweeper had not removed it yet: this
    /// heartbeat removed it, and the node must re-register.
    Expired,
    /// No lease for this node (never registered, deregistered, already
    /// swept, or the registry restarted) — the node must re-register.
    Unknown,
}

/// The registry's membership state: node id → live lease.
///
/// Purely in-memory and deliberately forgetful: a registry restart
/// empties it, and nodes rebuild it through their heartbeat loops
/// (heartbeat → `Unknown` → re-register). All mutation takes `now` from
/// the caller, so the table itself never reads a clock.
#[derive(Debug, Default)]
pub struct LeaseTable {
    leases: BTreeMap<String, Lease>,
    /// Generations survive a node's expiry (but not a registry restart)
    /// so re-registration after a missed TTL is visibly generation+1.
    generations: BTreeMap<String, u64>,
}

impl LeaseTable {
    /// An empty table.
    pub fn new() -> LeaseTable {
        LeaseTable::default()
    }

    /// Grant (or re-grant) a lease. Duplicate registration of a live
    /// node replaces its address/report and bumps the generation — the
    /// newest registration is authoritative.
    pub fn register(
        &mut self,
        node: &str,
        addr: &str,
        report: &NodeReport,
        ttl: Duration,
        now: Instant,
    ) -> u64 {
        let generation = self.generations.entry(node.to_string()).or_insert(0);
        *generation += 1;
        let generation = *generation;
        self.leases.insert(
            node.to_string(),
            Lease {
                node: node.to_string(),
                addr: addr.to_string(),
                epoch: report.epoch,
                fingerprint: report.fingerprint.clone(),
                inflight: report.inflight,
                generation,
                renewed_at: now,
                ttl,
            },
        );
        generation
    }

    /// Renew a lease. A heartbeat landing exactly on the TTL boundary
    /// renews; one past it finds the lease expired (removed here if the
    /// sweeper has not gotten to it yet) and is told to re-register.
    pub fn heartbeat(&mut self, node: &str, report: &NodeReport, now: Instant) -> HeartbeatOutcome {
        match self.leases.get_mut(node) {
            Some(lease) if lease.is_live(now) => {
                lease.renewed_at = now;
                lease.epoch = report.epoch;
                lease.fingerprint = report.fingerprint.clone();
                lease.inflight = report.inflight;
                HeartbeatOutcome::Renewed { generation: lease.generation }
            }
            Some(_) => {
                // Lazily reap: the lease died between sweeps.
                self.leases.remove(node);
                HeartbeatOutcome::Expired
            }
            None => HeartbeatOutcome::Unknown,
        }
    }

    /// Drop a lease immediately (the node is draining). Returns whether
    /// the node was present.
    pub fn deregister(&mut self, node: &str) -> bool {
        self.leases.remove(node).is_some()
    }

    /// Remove every lease whose TTL has elapsed at `now`, returning the
    /// expired node ids (for metrics and logs).
    pub fn sweep(&mut self, now: Instant) -> Vec<String> {
        let dead: Vec<String> = self
            .leases
            .values()
            .filter(|l| !l.is_live(now))
            .map(|l| l.node.clone())
            .collect();
        for node in &dead {
            self.leases.remove(node);
        }
        dead
    }

    /// The first instant at which some lease is no longer live: the
    /// earliest deadline plus one nanosecond, as a lease is live through
    /// its deadline. `None` for an empty table.
    pub fn next_expiry(&self) -> Option<Instant> {
        self.leases.values().map(|l| l.renewed_at + l.ttl + Duration::from_nanos(1)).min()
    }

    /// Live leases at `now`, in node-id order. Leases that expired since
    /// the last sweep are filtered (but not removed — `sweep` owns that).
    pub fn live(&self, now: Instant) -> Vec<&Lease> {
        self.leases.values().filter(|l| l.is_live(now)).collect()
    }

    /// The lease for `node`, live or not.
    pub fn get(&self, node: &str) -> Option<&Lease> {
        self.leases.get(node)
    }

    /// Number of leases in the table (including not-yet-swept expired).
    pub fn len(&self) -> usize {
        self.leases.len()
    }

    /// Whether the table holds no leases at all.
    pub fn is_empty(&self) -> bool {
        self.leases.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TTL: Duration = Duration::from_millis(500);

    fn report(epoch: u64) -> NodeReport {
        NodeReport { epoch, fingerprint: format!("{epoch:016x}"), inflight: 0 }
    }

    #[test]
    fn register_then_live_until_ttl() {
        let mut t = LeaseTable::new();
        let t0 = Instant::now();
        assert_eq!(t.register("n1", "127.0.0.1:1", &report(0), TTL, t0), 1);
        assert_eq!(t.live(t0).len(), 1);
        assert_eq!(t.live(t0 + TTL).len(), 1, "inclusive boundary: age == ttl is live");
        assert_eq!(t.live(t0 + TTL + Duration::from_millis(1)).len(), 0);
    }

    #[test]
    fn heartbeat_exactly_at_ttl_renews() {
        let mut t = LeaseTable::new();
        let t0 = Instant::now();
        t.register("n1", "a", &report(0), TTL, t0);
        // The heartbeat lands exactly on the deadline: still a renewal.
        let at_ttl = t0 + TTL;
        assert_eq!(
            t.heartbeat("n1", &report(1), at_ttl),
            HeartbeatOutcome::Renewed { generation: 1 }
        );
        // And the renewal restarts the clock from the heartbeat instant.
        assert_eq!(t.live(at_ttl + TTL).len(), 1);
        assert_eq!(t.live(at_ttl + TTL + Duration::from_millis(1)).len(), 0);
        // One nanosecond past the deadline is expired.
        let mut t2 = LeaseTable::new();
        t2.register("n1", "a", &report(0), TTL, t0);
        assert_eq!(
            t2.heartbeat("n1", &report(1), t0 + TTL + Duration::from_nanos(1)),
            HeartbeatOutcome::Expired
        );
    }

    #[test]
    fn heartbeat_updates_the_node_report() {
        let mut t = LeaseTable::new();
        let t0 = Instant::now();
        t.register("n1", "a", &report(3), TTL, t0);
        let hb = NodeReport { epoch: 4, fingerprint: "cafe".into(), inflight: 7 };
        t.heartbeat("n1", &hb, t0 + Duration::from_millis(10));
        let lease = t.get("n1").unwrap();
        assert_eq!(lease.epoch, 4);
        assert_eq!(lease.fingerprint, "cafe");
        assert_eq!(lease.inflight, 7);
    }

    #[test]
    fn duplicate_registration_replaces_and_bumps_generation() {
        let mut t = LeaseTable::new();
        let t0 = Instant::now();
        assert_eq!(t.register("n1", "127.0.0.1:1", &report(5), TTL, t0), 1);
        // The same node id registers again while live (e.g. a fast
        // restart before the old lease expired): newest wins.
        let g = t.register("n1", "127.0.0.1:2", &report(0), TTL, t0 + Duration::from_millis(10));
        assert_eq!(g, 2);
        assert_eq!(t.len(), 1, "one lease per node id, ever");
        let lease = t.get("n1").unwrap();
        assert_eq!(lease.addr, "127.0.0.1:2");
        assert_eq!(lease.epoch, 0, "the fresh registration's report is authoritative");
        assert_eq!(lease.generation, 2);
    }

    #[test]
    fn reregistration_after_expiry_starts_a_new_generation() {
        let mut t = LeaseTable::new();
        let t0 = Instant::now();
        t.register("n1", "a", &report(0), TTL, t0);
        let late = t0 + TTL * 3;
        assert_eq!(t.sweep(late), vec!["n1".to_string()]);
        assert!(t.is_empty());
        // Heartbeat after expiry: told to re-register, not resurrected.
        assert_eq!(t.heartbeat("n1", &report(0), late), HeartbeatOutcome::Unknown);
        // Re-registration works and is visibly generation 2.
        assert_eq!(t.register("n1", "a", &report(0), TTL, late), 2);
        assert_eq!(t.live(late).len(), 1);
    }

    #[test]
    fn heartbeat_on_expired_lease_reaps_lazily() {
        let mut t = LeaseTable::new();
        let t0 = Instant::now();
        t.register("n1", "a", &report(0), TTL, t0);
        // No sweep has run; the stale lease is still in the table.
        assert_eq!(t.len(), 1);
        let late = t0 + TTL * 2;
        assert_eq!(t.heartbeat("n1", &report(0), late), HeartbeatOutcome::Expired);
        assert_eq!(t.len(), 0, "the dead lease is removed on contact");
        // The next heartbeat finds nothing to reap.
        assert_eq!(t.heartbeat("n1", &report(0), late), HeartbeatOutcome::Unknown);
    }

    #[test]
    fn sweep_only_removes_expired() {
        let mut t = LeaseTable::new();
        let t0 = Instant::now();
        t.register("old", "a", &report(0), TTL, t0);
        t.register("new", "b", &report(0), TTL, t0 + TTL);
        let dead = t.sweep(t0 + TTL + Duration::from_millis(1));
        assert_eq!(dead, vec!["old".to_string()]);
        assert_eq!(t.live(t0 + TTL + Duration::from_millis(1)).len(), 1);
    }

    #[test]
    fn deregister_is_immediate() {
        let mut t = LeaseTable::new();
        let t0 = Instant::now();
        t.register("n1", "a", &report(0), TTL, t0);
        assert!(t.deregister("n1"));
        assert!(!t.deregister("n1"));
        assert!(t.live(t0).is_empty());
    }
}
