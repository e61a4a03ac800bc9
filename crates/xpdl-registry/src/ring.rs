//! Deterministic consistent-hash ring over the live membership.
//!
//! The ring is the single source of truth for *which nodes own which
//! model keys*. It is computed — independently and identically — by the
//! registry (from its lease table), by every serving node (from the
//! ring pushed in lease replies and `ring` events), and by every
//! [`ClusterClient`](../../xpdl_serve/cluster) (from the node table it
//! already fetches for routing). Determinism is the whole point: three
//! processes that agree on the member list and the two ring parameters
//! agree byte-for-byte on ownership, with no coordination round.
//!
//! Construction (DESIGN.md §17):
//!
//! * Each member contributes [`vnodes`](HashRing) virtual points; point
//!   `i` of node `n` hashes `"{n}#{i}"` with FNV-1a.
//! * Points are sorted by `(hash, node)` — the node id tiebreak makes
//!   hash collisions (astronomically unlikely but cheap to handle)
//!   deterministic too.
//! * A key's owners are the first [`replication`](HashRing) *distinct*
//!   nodes at or clockwise of `fnv1a(key)`.
//!
//! The **ring epoch** is itself an FNV-1a hash of the canonical
//! membership + parameters, so it survives registry restarts: a new
//! registry process that sees the same members publishes the same
//! epoch, and nobody rebalances. Epochs travel on the wire as 16-digit
//! hex strings (JSON numbers are capped at 2^53 by the parser).

// FNV-1a comes from the disk cache, which the serve tier's model
// fingerprints use too: one hash for the cache, serve and registry tiers.
use xpdl_repo::diskcache::fnv1a64;

/// Default replication factor: every key is owned by this many nodes.
pub const DEFAULT_REPLICATION: usize = 2;

/// Default virtual points per node. 32 keeps the largest/smallest
/// ownership arc within ~2x of each other for small fleets while the
/// ring stays a few hundred points.
pub const DEFAULT_VNODES: usize = 32;

/// Ring position of a key or virtual point: FNV-1a pushed through a
/// splitmix64-style finalizer. Raw FNV of short strings ("n1#7") leaves
/// the high bits — which decide ring order — strongly correlated, so
/// vnodes of one member clump together and ownership skews badly; the
/// finalizer's avalanche spreads them uniformly.
fn position(bytes: &[u8]) -> u64 {
    let mut h = fnv1a64(bytes);
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^= h >> 31;
    h
}

/// The wire-level description of a ring: everything a peer needs to
/// rebuild [`HashRing`] locally and byte-identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RingInfo {
    /// Content hash of `(replication, vnodes, members)` — two processes
    /// that agree on the membership agree on the epoch.
    pub epoch: u64,
    /// Replication factor the ring was computed with.
    pub replication: u64,
    /// Virtual points per node the ring was computed with.
    pub vnodes: u64,
    /// Sorted, deduplicated member node ids.
    pub nodes: Vec<String>,
}

impl RingInfo {
    /// Compute the ring description for a member list. `nodes` is
    /// sorted and deduplicated; order of the input does not matter.
    pub fn compute(nodes: &[String], replication: usize, vnodes: usize) -> RingInfo {
        let mut members: Vec<String> = nodes.to_vec();
        members.sort();
        members.dedup();
        let epoch = ring_epoch(&members, replication, vnodes);
        RingInfo {
            epoch,
            replication: replication as u64,
            vnodes: vnodes as u64,
            nodes: members,
        }
    }

    /// The epoch as it appears on the wire: 16 lowercase hex digits.
    pub fn epoch_hex(&self) -> String {
        format!("{:016x}", self.epoch)
    }

    /// Materialize the lookup structure.
    pub fn ring(&self) -> HashRing {
        HashRing::build(&self.nodes, self.replication as usize, self.vnodes as usize)
    }
}

/// Parse a 16-digit hex ring epoch (the wire form). Returns `None` for
/// anything that is not plain hex.
pub fn parse_epoch_hex(s: &str) -> Option<u64> {
    if s.is_empty() || s.len() > 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

fn ring_epoch(sorted_nodes: &[String], replication: usize, vnodes: usize) -> u64 {
    let mut canon = format!("ring|r={replication}|v={vnodes}");
    for n in sorted_nodes {
        canon.push('|');
        canon.push_str(n);
    }
    fnv1a64(canon.as_bytes())
}

/// The materialized consistent-hash ring: an ordered point list plus
/// the member table, ready for `O(log points)` owner lookups.
#[derive(Debug, Clone)]
pub struct HashRing {
    nodes: Vec<String>,
    replication: usize,
    vnodes: usize,
    /// `(point hash, index into nodes)`, sorted by `(hash, index)`.
    points: Vec<(u64, u32)>,
    epoch: u64,
}

impl HashRing {
    /// Build a ring from a member list. Members are sorted and
    /// deduplicated first, so any permutation of the same set produces
    /// an identical ring.
    pub fn build(nodes: &[String], replication: usize, vnodes: usize) -> HashRing {
        let mut members: Vec<String> = nodes.to_vec();
        members.sort();
        members.dedup();
        let vnodes = vnodes.max(1);
        let mut points = Vec::with_capacity(members.len() * vnodes);
        for (idx, node) in members.iter().enumerate() {
            for v in 0..vnodes {
                let h = position(format!("{node}#{v}").as_bytes());
                points.push((h, idx as u32));
            }
        }
        points.sort();
        let epoch = ring_epoch(&members, replication, vnodes);
        HashRing { nodes: members, replication: replication.max(1), vnodes, points, epoch }
    }

    /// The content-addressed ring epoch (see module docs).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Sorted member node ids.
    pub fn nodes(&self) -> &[String] {
        &self.nodes
    }

    /// Replication factor this ring answers [`replicas`](Self::replicas) with.
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// True when the ring has no members (every lookup returns empty).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The owner replicas for `key`, in ring (preference) order: the
    /// first `min(replication, members)` distinct nodes at or clockwise
    /// of the key's hash. The first entry is the *primary*.
    pub fn replicas(&self, key: &str) -> Vec<&str> {
        if self.points.is_empty() {
            return Vec::new();
        }
        let want = self.replication.min(self.nodes.len());
        let h = position(key.as_bytes());
        let start = self.points.partition_point(|&(p, _)| p < h);
        let mut owners: Vec<&str> = Vec::with_capacity(want);
        let mut seen = vec![false; self.nodes.len()];
        for i in 0..self.points.len() {
            let (_, idx) = self.points[(start + i) % self.points.len()];
            if !seen[idx as usize] {
                seen[idx as usize] = true;
                owners.push(self.nodes[idx as usize].as_str());
                if owners.len() == want {
                    break;
                }
            }
        }
        owners
    }

    /// True when `node` is one of the owner replicas of `key`.
    pub fn owns(&self, node: &str, key: &str) -> bool {
        self.replicas(key).contains(&node)
    }

    /// Canonical text dump: one header line plus one line per point.
    /// Two processes that agree on the membership produce byte-identical
    /// output — CI diffs this across separate invocations.
    pub fn describe(&self) -> String {
        let mut out = format!(
            "ring epoch={:016x} replication={} vnodes={} members={}\n",
            self.epoch,
            self.replication,
            self.vnodes,
            self.nodes.len()
        );
        for &(h, idx) in &self.points {
            out.push_str(&format!("{h:016x} {}\n", self.nodes[idx as usize]));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn identical_membership_means_identical_ring() {
        let a = HashRing::build(&ids(&["n1", "n2", "n3"]), 2, 32);
        let b = HashRing::build(&ids(&["n3", "n1", "n2", "n2"]), 2, 32);
        assert_eq!(a.epoch(), b.epoch());
        assert_eq!(a.describe(), b.describe());
        for key in ["liu_gpu_server", "amd_epyc_9654", "x", ""] {
            assert_eq!(a.replicas(key), b.replicas(key));
        }
    }

    #[test]
    fn epoch_changes_with_membership_and_params() {
        let base = RingInfo::compute(&ids(&["a", "b", "c"]), 2, 32);
        assert_ne!(base.epoch, RingInfo::compute(&ids(&["a", "b"]), 2, 32).epoch);
        assert_ne!(base.epoch, RingInfo::compute(&ids(&["a", "b", "c"]), 3, 32).epoch);
        assert_ne!(base.epoch, RingInfo::compute(&ids(&["a", "b", "c"]), 2, 16).epoch);
        assert_eq!(base.epoch, RingInfo::compute(&ids(&["c", "b", "a"]), 2, 32).epoch);
    }

    #[test]
    fn replicas_are_distinct_and_bounded() {
        let ring = HashRing::build(&ids(&["a", "b", "c"]), 2, 32);
        for i in 0..200 {
            let key = format!("model-{i}");
            let owners = ring.replicas(&key);
            assert_eq!(owners.len(), 2, "key {key}");
            assert_ne!(owners[0], owners[1], "key {key}");
        }
        // Replication above member count clamps to member count.
        let wide = HashRing::build(&ids(&["a", "b"]), 5, 8);
        assert_eq!(wide.replicas("k").len(), 2);
    }

    #[test]
    fn single_node_owns_everything() {
        let ring = HashRing::build(&ids(&["only"]), 2, 32);
        for i in 0..50 {
            assert_eq!(ring.replicas(&format!("k{i}")), vec!["only"]);
            assert!(ring.owns("only", &format!("k{i}")));
        }
    }

    #[test]
    fn empty_ring_returns_no_owners() {
        let ring = HashRing::build(&[], 2, 32);
        assert!(ring.is_empty());
        assert!(ring.replicas("anything").is_empty());
        assert!(!ring.owns("a", "anything"));
    }

    #[test]
    fn removing_a_node_only_moves_its_keys() {
        // Consistent hashing's defining property: keys not owned by the
        // removed node keep their full replica set.
        let before = HashRing::build(&ids(&["a", "b", "c", "d"]), 2, 32);
        let after = HashRing::build(&ids(&["a", "b", "d"]), 2, 32);
        let mut moved = 0usize;
        let total = 400;
        for i in 0..total {
            let key = format!("model-{i}");
            let old: Vec<&str> = before.replicas(&key);
            let new: Vec<&str> = after.replicas(&key);
            if old.contains(&"c") {
                moved += 1;
                // Surviving owner keeps the key.
                for n in &old {
                    if *n != "c" {
                        assert!(new.contains(n), "survivor {n} lost key {key}");
                    }
                }
            } else {
                assert_eq!(old, new, "unaffected key {key} moved");
            }
        }
        // ~2/4 of keys touch node c with R=2; sanity-check it is not 0
        // and not everything.
        assert!(moved > 0 && moved < total);
    }

    #[test]
    fn distribution_is_roughly_balanced() {
        let ring = HashRing::build(&ids(&["a", "b", "c"]), 1, DEFAULT_VNODES);
        let mut counts = std::collections::BTreeMap::new();
        for i in 0..3000 {
            let key = format!("model-{i}");
            *counts.entry(ring.replicas(&key)[0].to_string()).or_insert(0usize) += 1;
        }
        for (node, count) in &counts {
            assert!(
                *count > 3000 / 3 / 4,
                "node {node} owns only {count} of 3000 primaries"
            );
        }
    }

    #[test]
    fn epoch_hex_round_trips() {
        let info = RingInfo::compute(&ids(&["a", "b"]), 2, 32);
        assert_eq!(parse_epoch_hex(&info.epoch_hex()), Some(info.epoch));
        assert_eq!(parse_epoch_hex(""), None);
        assert_eq!(parse_epoch_hex("zz"), None);
        assert_eq!(parse_epoch_hex("00000000000000000"), None); // 17 digits
        assert_eq!(parse_epoch_hex("ff"), Some(255));
    }

    #[test]
    fn ring_info_materializes_the_same_ring() {
        let info = RingInfo::compute(&ids(&["a", "b", "c"]), 2, 32);
        let ring = info.ring();
        assert_eq!(ring.epoch(), info.epoch);
        assert_eq!(ring.nodes(), info.nodes.as_slice());
    }
}
