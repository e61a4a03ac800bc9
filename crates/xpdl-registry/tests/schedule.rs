//! Seeded schedules over the registry's state machine in virtual time.
//!
//! Each seed drives one [`RegistryState`] through random register,
//! heartbeat, deregister, nodes, status, announce, subscribe, stats and
//! sweep steps, moving a virtual clock forward between them (often to a
//! lease's exact deadline or one millisecond past it). One more step
//! moves the clock to the state's next expiry, which is where the
//! daemon's sweeper wakes, and sweeps there. A small reference model
//! predicts every reply, and after every step the test checks:
//!
//! - `nodes` and `status` list exactly the leases renewed within their
//!   TTL, each with `age_ms <= ttl_ms`;
//! - a heartbeat more than TTL after the last renewal answers `S503`,
//!   and one within it (the boundary included) renews;
//! - every registration's generation is higher than the node's earlier
//!   ones;
//! - `stats` counts every registration, renewal, expiry (a sweep's, or
//!   a heartbeat's that found its lease past the deadline) and
//!   announcement, and nothing else: a heartbeat from a node with no
//!   lease expires nothing;
//! - the next expiry is one nanosecond past the earliest deadline of
//!   the leases not yet removed, and there is none without leases; one
//!   nanosecond before it every lease is still live, and a sweep there
//!   expires exactly the leases that are due;
//! - after every register, deregister, reaping heartbeat and sweep, the
//!   last ring event is the ring over the live members, and two ring
//!   events in a row never share an epoch (an empty fleet has no ring to
//!   push, so the ring after it may repeat the one before it);
//! - the same seed replays the same transcript, whatever the base
//!   instant.
//!
//! A failure names its seed; `run(seed, base)` replays it exactly.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use xpdl_registry::protocol::codes;
use xpdl_registry::{
    Event, NodeEntry, RegistryError, RegistryMethod, RegistryOptions, RegistryReply, RegistryState,
    RingInfo, DEFAULT_REPLICATION, DEFAULT_VNODES,
};

const SEEDS: u64 = 300;
const STEPS: usize = 300;
const NODES: [&str; 4] = ["n0", "n1", "n2", "n3"];
/// Requested TTLs in ms; the defaults clamp them to 50 ms – 60 s.
const TTLS: [u64; 6] = [10, 50, 80, 120, 200, 100_000];

/// SplitMix64, so the schedule needs no dependency.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}

macro_rules! check {
    ($cond:expr, $($msg:tt)+) => {
        if !$cond {
            return Err(format!($($msg)+));
        }
    };
}

/// What the model expects of one lease (times in virtual ms).
struct Lease {
    renewed: u64,
    ttl: u64,
    generation: u64,
}

/// The reference model: the leases granted and not yet removed, the
/// highest generation each node was granted, the announced version and
/// the ring events seen.
#[derive(Default)]
struct Model {
    leases: BTreeMap<String, Lease>,
    generations: BTreeMap<String, u64>,
    version: Option<String>,
    last_ring: Option<RingInfo>,
    /// Whether the fleet was empty at a membership change since the last
    /// ring event.
    emptied: bool,
    /// How often the schedule reached each edge: a heartbeat exactly at
    /// the deadline, a heartbeat past it, a sweep that expired a lease,
    /// a re-registration, and a next expiry still ahead of the clock.
    edges: [u64; 5],
    /// What `stats` must report: registrations, renewals, expirations
    /// and announcements.
    counts: [u64; 4],
}

/// The ring the registry must compute over `members` (none when empty).
fn ring_over(members: &[String]) -> Option<RingInfo> {
    (!members.is_empty()).then(|| RingInfo::compute(members, DEFAULT_REPLICATION, DEFAULT_VNODES))
}

impl Model {
    fn live(&self, now: u64) -> Vec<String> {
        let live = self.leases.iter().filter(|(_, l)| now - l.renewed <= l.ttl);
        live.map(|(node, _)| node.clone()).collect()
    }

    fn check_entries(&self, now: u64, nodes: &[NodeEntry]) -> Result<(), String> {
        let listed: Vec<&str> = nodes.iter().map(|e| e.node.as_str()).collect();
        let live = self.live(now);
        check!(listed == live, "listed {listed:?}, but the live leases are {live:?}");
        for e in nodes {
            let l = &self.leases[&e.node];
            check!(
                e.age_ms == now - l.renewed && e.age_ms <= e.ttl_ms,
                "{} is {} ms old against a {} ms TTL (renewed at {})",
                e.node,
                e.age_ms,
                e.ttl_ms,
                l.renewed
            );
            check!(
                e.ttl_ms == l.ttl && e.generation == l.generation,
                "{} lists ttl {} generation {}, granted ttl {} generation {}",
                e.node,
                e.ttl_ms,
                e.generation,
                l.ttl,
                l.generation
            );
        }
        Ok(())
    }

    fn check_stats(
        &self,
        now: u64,
        reply: Result<RegistryReply, RegistryError>,
    ) -> Result<(), String> {
        let Ok(RegistryReply::Stats {
            nodes,
            registers,
            heartbeats,
            expirations,
            announcements,
            uptime_ms,
        }) = reply
        else {
            return Err(format!("stats answered {reply:?}"));
        };
        let counts = [registers, heartbeats, expirations, announcements];
        check!(
            counts == self.counts,
            "registers, renewals, expirations, announcements read {counts:?}, expected {:?}",
            self.counts
        );
        let live = self.live(now).len() as u64;
        check!(nodes == live && uptime_ms == now, "{nodes} nodes at {uptime_ms} ms");
        Ok(())
    }

    /// After a membership change: the event, if any, must be the ring
    /// over the live members with a new epoch, and the last ring event
    /// must now be that ring.
    fn check_ring(&mut self, now: u64, event: Option<Event>) -> Result<(), String> {
        let live = self.live(now);
        let ring = ring_over(&live);
        match event {
            None => {}
            Some(Event::Ring { ring: pushed }) => {
                check!(Some(&pushed) == ring.as_ref(), "pushed {pushed:?} over live {live:?}");
                if let (Some(last), false) = (&self.last_ring, self.emptied) {
                    check!(last.epoch != pushed.epoch, "two ring events in a row share an epoch");
                }
                self.last_ring = Some(pushed);
                self.emptied = false;
            }
            Some(other) => return Err(format!("unexpected event {other:?}")),
        }
        match ring {
            None => self.emptied = true,
            Some(ring) => check!(
                self.last_ring.as_ref() == Some(&ring),
                "the last ring event {:?} is not the ring over live {live:?}",
                self.last_ring.as_ref().map(|r| &r.nodes)
            ),
        }
        Ok(())
    }
}

/// Run one seeded schedule from `base` and return its transcript and
/// how often it reached each edge.
fn run(seed: u64, base: Instant) -> Result<(Vec<String>, [u64; 5]), String> {
    let mut rng = Rng(seed);
    let mut state = RegistryState::new(RegistryOptions::default(), base);
    let mut model = Model::default();
    let mut transcript = Vec::new();
    let mut now = 0u64;
    for step in 0..STEPS {
        // Move the virtual clock: a little, not at all, or to a lease's
        // exact deadline or just past it.
        let target = rng.pick(&NODES).to_string();
        match (rng.below(4), model.leases.get(&target)) {
            (0, _) => {}
            (1, Some(l)) => now = now.max(l.renewed + l.ttl),
            (2, Some(l)) => now = now.max(l.renewed + l.ttl + 1),
            _ => now += rng.below(40),
        }
        let at = base + Duration::from_millis(now);
        let node = rng.pick(&NODES).to_string();
        let head = format!("#{step} t={now}ms");
        let line = match rng.below(18) {
            0..=3 => {
                let ttl_ms = *rng.pick(&TTLS);
                let method = RegistryMethod::Register {
                    node: node.clone(),
                    addr: format!("10.0.0.{step}:7000"),
                    epoch: rng.below(3),
                    fingerprint: "f".into(),
                    inflight: 0,
                    ttl_ms,
                };
                let (reply, event) = state.dispatch(at, &method);
                let line = format!("{head} {method:?} -> {reply:?} {event:?}");
                let ttl = ttl_ms.clamp(50, 60_000);
                let earlier = model.generations.get(&node).copied().unwrap_or(0);
                let Ok(RegistryReply::Lease { generation, ttl_ms, version, .. }) = reply else {
                    return Err(line);
                };
                check!(generation > earlier, "{line}: generation {generation} after {earlier}");
                model.edges[3] += u64::from(earlier > 0);
                model.counts[0] += 1;
                check!(ttl_ms == ttl && version == model.version, "{line}");
                model.generations.insert(node.clone(), generation);
                model.leases.insert(node, Lease { renewed: now, ttl, generation });
                model.check_ring(now, event).map_err(|e| format!("{line}: {e}"))?;
                line
            }
            4..=7 => {
                let method = RegistryMethod::Heartbeat {
                    node: node.clone(),
                    epoch: 1,
                    fingerprint: "f".into(),
                    inflight: rng.below(4),
                };
                let (reply, event) = state.dispatch(at, &method);
                let line = format!("{head} {method:?} -> {reply:?} {event:?}");
                let lease = model.leases.get_mut(&node).filter(|l| now - l.renewed <= l.ttl);
                match (lease, reply) {
                    (Some(l), Ok(RegistryReply::Lease { generation, ttl_ms, .. })) => {
                        check!(generation == l.generation && ttl_ms == l.ttl, "{line}");
                        check!(event.is_none(), "a renewal pushed {event:?}");
                        model.edges[0] += u64::from(now - l.renewed == l.ttl);
                        model.counts[1] += 1;
                        l.renewed = now;
                    }
                    (None, Err(e)) if e.code == codes::UNKNOWN_NODE => {
                        // Past its deadline and not yet swept: reaped.
                        let reaped = u64::from(model.leases.remove(&node).is_some());
                        model.edges[1] += reaped;
                        model.counts[2] += reaped;
                        model.check_ring(now, event).map_err(|e| format!("{line}: {e}"))?;
                    }
                    (lease, _) => {
                        let expected = if lease.is_some() { "a renewal" } else { "S503" };
                        return Err(format!("{line}: expected {expected}"));
                    }
                }
                line
            }
            8 | 9 => {
                let method = RegistryMethod::Deregister { node: node.clone() };
                let (reply, event) = state.dispatch(at, &method);
                let line = format!("{head} {method:?} -> {reply:?} {event:?}");
                let removed = model.leases.remove(&node).is_some();
                let reply = reply.as_ref().ok();
                check!(reply == Some(&RegistryReply::Deregistered { removed }), "{line}");
                model.check_ring(now, event).map_err(|e| format!("{line}: {e}"))?;
                line
            }
            10 => {
                let (reply, event) = state.dispatch(at, &RegistryMethod::Nodes);
                let line = format!("{head} nodes -> {reply:?} {event:?}");
                let Ok(RegistryReply::Nodes { nodes, version, ring }) = reply else {
                    return Err(line);
                };
                model.check_entries(now, &nodes).map_err(|e| format!("{line}: {e}"))?;
                check!(version == model.version && event.is_none(), "{line}");
                check!(ring == ring_over(&model.live(now)), "{line}: ring");
                line
            }
            11 => {
                let (reply, event) = state.dispatch(at, &RegistryMethod::Status);
                let line = format!("{head} status -> {reply:?} {event:?}");
                let Ok(RegistryReply::Status(st)) = reply else { return Err(line) };
                model.check_entries(now, &st.nodes).map_err(|e| format!("{line}: {e}"))?;
                check!(st.version == model.version && st.uptime_ms == now, "{line}");
                check!(st.ring == ring_over(&model.live(now)) && event.is_none(), "{line}: ring");
                line
            }
            12 | 13 => {
                let version = if rng.below(4) == 0 { String::new() } else { format!("v{step}") };
                let method = RegistryMethod::Announce { version: version.clone() };
                let (reply, event) = state.dispatch(at, &method);
                let line = format!("{head} {method:?} -> {reply:?} {event:?}");
                if version.is_empty() {
                    let code = reply.err().map(|e| e.code);
                    let code_ok = code.as_deref() == Some(codes::INVALID_PARAMS);
                    check!(code_ok && event.is_none(), "{line}");
                } else {
                    let announced =
                        matches!(reply, Ok(RegistryReply::Announced { subscribers: 0 }));
                    let pushed = event == Some(Event::Invalidate { version: version.clone() });
                    check!(announced && pushed, "{line}");
                    model.version = Some(version);
                    model.counts[3] += 1;
                }
                line
            }
            14 => {
                let method = RegistryMethod::Subscribe { node };
                let (reply, event) = state.dispatch(at, &method);
                let line = format!("{head} {method:?} -> {reply:?} {event:?}");
                let expected = RegistryReply::Subscribed { version: model.version.clone() };
                check!(reply.as_ref() == Ok(&expected) && event.is_none(), "{line}");
                line
            }
            15 => {
                let (reply, event) = state.dispatch(at, &RegistryMethod::Stats);
                let line = format!("{head} stats -> {reply:?} {event:?}");
                check!(event.is_none(), "{line}");
                model.check_stats(now, reply).map_err(|e| format!("{line}: {e}"))?;
                line
            }
            16 => {
                let deadline = model.leases.values().map(|l| l.renewed + l.ttl).min();
                match (state.next_expiry(), deadline) {
                    (None, None) => format!("{head} next_expiry -> None"),
                    (Some(next), Some(deadline)) => {
                        let head = format!("{head} next_expiry -> {:?},", next - base);
                        let just_past =
                            base + Duration::from_millis(deadline) + Duration::from_nanos(1);
                        check!(next == just_past, "{head} the earliest deadline is {deadline} ms");
                        let live = state.live_nodes(next - Duration::from_nanos(1));
                        let leases = model.leases.len();
                        check!(live == leases, "{head} {live} of {leases} leases live 1 ns earlier");
                        // The clock never runs backwards: a deadline that
                        // already passed is swept now.
                        model.edges[4] += u64::from(next > at);
                        now = now.max(deadline + 1);
                        sweep(&mut state, &mut model, base, now, next.max(at), &head)?
                    }
                    (next, _) => {
                        let next = next.map(|t| t - base);
                        return Err(format!("{head} next_expiry -> {next:?}, deadline {deadline:?}"));
                    }
                }
            }
            _ => sweep(&mut state, &mut model, base, now, at, &head)?,
        };
        let at = base + Duration::from_millis(now);
        // Whatever the step, `status` now lists exactly the live leases,
        // and `stats` counts exactly what happened.
        let Ok(RegistryReply::Status(st)) = state.dispatch(at, &RegistryMethod::Status).0 else {
            return Err(format!("{line}: status failed"));
        };
        model.check_entries(now, &st.nodes).map_err(|e| format!("{line}: status: {e}"))?;
        check!(state.live_nodes(at) == st.nodes.len(), "{line}: live count");
        let stats = state.dispatch(at, &RegistryMethod::Stats).0;
        model.check_stats(now, stats).map_err(|e| format!("{line}: stats: {e}"))?;
        transcript.push(line);
    }
    Ok((transcript, model.edges))
}

/// Sweep at `at`, which the model's clock reads as `now` ms: exactly the
/// leases past their deadline expire, and the ring follows.
fn sweep(
    state: &mut RegistryState,
    model: &mut Model,
    base: Instant,
    now: u64,
    at: Instant,
    head: &str,
) -> Result<String, String> {
    let (dead, event) = state.sweep(at);
    let line = format!("{head} sweep -> {dead:?} {event:?}");
    let expected: Vec<String> = model
        .leases
        .iter()
        .filter(|(_, l)| base + Duration::from_millis(l.renewed + l.ttl) < at)
        .map(|(n, _)| n.clone())
        .collect();
    check!(dead == expected, "{line}: expected {expected:?} to expire");
    model.edges[2] += u64::from(!dead.is_empty());
    model.counts[2] += dead.len() as u64;
    model.leases.retain(|n, _| !dead.contains(n));
    model.check_ring(now, event).map_err(|e| format!("{line}: {e}"))?;
    Ok(line)
}

#[test]
fn seeded_schedules_keep_the_lease_and_ring_invariants() {
    let base = Instant::now();
    let shifted = base + Duration::from_secs(3600);
    let mut edges = [0u64; 5];
    for seed in 0..SEEDS {
        let first = run(seed, base).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let again = run(seed, shifted).unwrap_or_else(|e| panic!("seed {seed} (replay): {e}"));
        assert!(first == again, "seed {seed} replayed a different transcript");
        edges.iter_mut().zip(first.1).for_each(|(total, n)| *total += n);
    }
    // A schedule that never reaches an edge cannot check it.
    assert!(edges.iter().all(|&n| n >= SEEDS / 10), "edges reached: {edges:?}");
}
