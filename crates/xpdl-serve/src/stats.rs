//! Server statistics: registry-backed counters and a latency ring.
//!
//! Counters and gauges are [`xpdl_obs`] instruments owned by the
//! [`ServeStats`] and registered into the process-wide
//! `xpdl_obs::MetricsRegistry` under `serve.*` names
//! (DESIGN.md §14), so the daemon reports through the same surface as the
//! repository and cache layers. Served latencies additionally go into a
//! fixed-size ring of `AtomicU64` microsecond samples (writers claim
//! slots with a wrapping cursor, so concurrent connections never contend
//! on a lock); percentiles are exact nearest-rank samples
//! ([`xpdl_obs::metrics::percentile`]) over a sorted copy of the ring — an
//! O(ring) cost paid only by the `stats` method, never by queries.
//!
//! Only requests a handler ran leave a sample. Requests answered before
//! any handler ran — shed by admission control (`S420`), undecodable, a
//! late `hello` — are counted by `ServeStats::record_unhandled` with no
//! latency at all: a shed storm or a stream of garbage answering in ~0µs
//! must not drag the percentiles down while the requests that actually
//! ran are slow.

use crate::protocol::ServeError;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use xpdl_obs::metrics::percentile;
use xpdl_obs::{Counter, Gauge, Histogram, MetricsRegistry};
use xpdl_registry::wire::{self, Obj, Raw, Record};

/// Number of latency samples retained (a power of two).
const RING: usize = 2048;

/// Live counters of one serving process.
#[derive(Debug)]
pub struct ServeStats {
    started: Instant,
    /// Requests answered, error replies included (requests refused
    /// before a handler too).
    pub requests: Arc<Counter>,
    /// Requests answered with a protocol-level error.
    pub errors: Arc<Counter>,
    /// Requests refused by admission control (`S420`).
    pub shed: Arc<Counter>,
    /// Hot reloads that installed a new snapshot.
    pub reloads: Arc<Counter>,
    /// Hot reload attempts that failed (old snapshot stayed live).
    pub reload_failures: Arc<Counter>,
    /// Connections accepted since start.
    pub connections: Arc<Counter>,
    /// `health` probes answered (registry agents, bench harness).
    pub health_checks: Arc<Counter>,
    /// Requests currently admitted and not yet answered.
    pub inflight: Arc<Gauge>,
    /// Handler execution time, µs.
    pub handler_time_us: Arc<Histogram>,
    /// Reader waits whose spin saw the next request (or the end of the
    /// connection) arrive before the budget ran out. This and the next
    /// two counters are in the `metrics` reply only: the `stats`
    /// payload's layout is frozen (WIRE.md §9).
    pub spin_caught: Arc<Counter>,
    /// Reader waits whose spin ended without that, on the budget or
    /// because another connection read a request, and then blocked.
    pub spin_expired: Arc<Counter>,
    /// Reader waits that blocked without spinning. A reader adds these
    /// at most once per gate window and when its connection ends, so the
    /// count trails by up to a window's worth of waits.
    pub spin_skipped: Arc<Counter>,
    latency_us: Box<[AtomicU64]>,
    cursor: AtomicUsize,
}

impl Default for ServeStats {
    fn default() -> Self {
        ServeStats::new()
    }
}

impl ServeStats {
    /// Fresh, zeroed stats anchored at "now", registered under the
    /// `serve.*` metric names.
    pub fn new() -> ServeStats {
        let reg = MetricsRegistry::global();
        ServeStats {
            started: Instant::now(),
            requests: reg.counter("serve.requests"),
            errors: reg.counter("serve.errors"),
            shed: reg.counter("serve.shed"),
            reloads: reg.counter("serve.reloads"),
            reload_failures: reg.counter("serve.reload_failures"),
            connections: reg.counter("serve.connections"),
            health_checks: reg.counter("serve.health_checks"),
            inflight: reg.gauge("serve.inflight"),
            handler_time_us: reg.histogram("serve.handler.time_us"),
            spin_caught: reg.counter("serve.read.spin_caught"),
            spin_expired: reg.counter("serve.read.spin_expired"),
            spin_skipped: reg.counter("serve.read.spin_skipped"),
            latency_us: (0..RING).map(|_| AtomicU64::new(u64::MAX)).collect(),
            cursor: AtomicUsize::new(0),
        }
    }

    /// Record one handled request and its latency.
    pub fn record(&self, latency_us: u64, is_error: bool) {
        self.requests.inc();
        if is_error {
            self.errors.inc();
        }
        let slot = self.cursor.fetch_add(1, Ordering::Relaxed) & (RING - 1);
        // u64::MAX marks "never written"; clamp real samples below it.
        self.latency_us[slot].store(latency_us.min(u64::MAX - 1), Ordering::Relaxed);
    }

    /// Record one request answered with an error before any handler ran
    /// (shed, undecodable, a late `hello`): counted in `requests`/
    /// `errors`, with no latency sample.
    pub(crate) fn record_unhandled(&self) {
        self.requests.inc();
        self.errors.inc();
    }

    /// Point-in-time snapshot (percentiles over the retained ring).
    pub fn snapshot(&self, epoch: u64) -> StatsSnapshot {
        let mut samples: Vec<u64> = self
            .latency_us
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .filter(|&v| v != u64::MAX)
            .collect();
        samples.sort_unstable();
        let uptime = self.started.elapsed();
        let requests = self.requests.get();
        let uptime_s = uptime.as_secs_f64().max(1e-9);
        let shed = self.shed.get();
        StatsSnapshot {
            epoch,
            uptime_ms: uptime.as_millis() as u64,
            requests,
            errors: self.errors.get(),
            shed,
            deadline_exceeded: 0,
            rejected: shed,
            reloads: self.reloads.get(),
            reload_failures: self.reload_failures.get(),
            connections: self.connections.get(),
            health_checks: self.health_checks.get(),
            inflight: self.inflight.get(),
            qps: requests as f64 / uptime_s,
            p50_us: percentile(&samples, 0.50),
            p90_us: percentile(&samples, 0.90),
            p99_us: percentile(&samples, 0.99),
            max_us: samples.last().copied().unwrap_or(0),
            reject_p99_us: 0,
        }
    }
}

/// A point-in-time view of [`ServeStats`], as carried by the `stats`
/// protocol reply and by `BENCH_serve.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsSnapshot {
    /// Snapshot epoch currently being served.
    pub epoch: u64,
    /// Milliseconds since the server started.
    pub uptime_ms: u64,
    /// Requests answered (including error replies).
    pub requests: u64,
    /// Requests answered with an error.
    pub errors: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Requests expired in a queue. This server has none, so it sends 0;
    /// the field stays for the wire (WIRE.md §9).
    pub deadline_exceeded: u64,
    /// Requests refused before a handler by admission control, kept out
    /// of the served percentiles. This server sends `shed` here.
    pub rejected: u64,
    /// Hot reloads that swapped the snapshot.
    pub reloads: u64,
    /// Failed reload attempts.
    pub reload_failures: u64,
    /// Connections accepted.
    pub connections: u64,
    /// `health` probes answered.
    pub health_checks: u64,
    /// Requests in flight right now.
    pub inflight: u64,
    /// Mean requests/second over the whole uptime.
    pub qps: f64,
    /// Median handler latency over the retained ring, microseconds: the
    /// nearest-rank sample. Served requests only.
    pub p50_us: u64,
    /// 90th-percentile latency, microseconds.
    pub p90_us: u64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: u64,
    /// Worst retained latency, microseconds.
    pub max_us: u64,
    /// 99th-percentile age of rejected requests, microseconds. Every
    /// reject here is an `S420` at the door, so this server sends 0.
    pub reject_p99_us: u64,
}

impl StatsSnapshot {
    /// Standalone JSON object (used by `BENCH_serve.json`).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        self.write_fields(&mut s);
        s.push('}');
        s
    }

    /// Parse a standalone snapshot object (the `to_json` inverse).
    pub fn parse(src: &str) -> Result<StatsSnapshot, String> {
        StatsSnapshot::read_fields(&Obj::parse(src)?.ok_or("stats is not an object")?)
    }
}

/// The `stats` reply: the snapshot's fields spread into the reply object.
impl Record for StatsSnapshot {
    const FLAT: bool = true;

    fn write_fields(&self, out: &mut String) {
        let qps = if self.qps.is_finite() { self.qps } else { 0.0 };
        wire::sep(out);
        out.push_str(&format!(
            "\"epoch\":{},\"uptime_ms\":{},\"requests\":{},\"errors\":{},\"shed\":{},\
             \"deadline_exceeded\":{},\"rejected\":{},\"reloads\":{},\"reload_failures\":{},\
             \"connections\":{},\"health_checks\":{},\"inflight\":{},\"qps\":{},\"p50_us\":{},\
             \"p90_us\":{},\"p99_us\":{},\"max_us\":{},\"reject_p99_us\":{}",
            self.epoch,
            self.uptime_ms,
            self.requests,
            self.errors,
            self.shed,
            self.deadline_exceeded,
            self.rejected,
            self.reloads,
            self.reload_failures,
            self.connections,
            self.health_checks,
            self.inflight,
            qps,
            self.p50_us,
            self.p90_us,
            self.p99_us,
            self.max_us,
            self.reject_p99_us,
        ));
    }

    fn read_fields(obj: &Obj<'_>) -> Result<StatsSnapshot, String> {
        let int = |k: &str| -> Result<u64, String> {
            obj.get(k)
                .and_then(Raw::as_number)
                .map(|n| n as u64)
                .ok_or(format!("missing stats field {k:?}"))
        };
        // `rejected`/`reject_p99_us`/`health_checks` default to 0 so
        // snapshots emitted by older servers still parse.
        let opt_int =
            |k: &str| -> u64 { obj.get(k).and_then(Raw::as_number).map(|n| n as u64).unwrap_or(0) };
        Ok(StatsSnapshot {
            epoch: int("epoch")?,
            uptime_ms: int("uptime_ms")?,
            requests: int("requests")?,
            errors: int("errors")?,
            shed: int("shed")?,
            deadline_exceeded: int("deadline_exceeded")?,
            rejected: opt_int("rejected"),
            reloads: int("reloads")?,
            reload_failures: int("reload_failures")?,
            connections: int("connections")?,
            health_checks: opt_int("health_checks"),
            inflight: int("inflight")?,
            qps: obj.get("qps").and_then(Raw::as_number).ok_or("missing stats field \"qps\"")?,
            p50_us: int("p50_us")?,
            p90_us: int("p90_us")?,
            p99_us: int("p99_us")?,
            max_us: int("max_us")?,
            reject_p99_us: opt_int("reject_p99_us"),
        })
    }
}

/// An RAII in-flight permit: increments the gauge on admission, decrements
/// when the request finishes (however it finishes).
#[derive(Debug)]
pub struct InflightPermit<'s> {
    stats: &'s ServeStats,
}

impl<'s> InflightPermit<'s> {
    /// Try to admit one request under `max` concurrent; on refusal the
    /// caller sheds with `S420` (overloaded).
    pub fn try_acquire(stats: &'s ServeStats, max: usize) -> Result<InflightPermit<'s>, ServeError> {
        match stats.inflight.try_inc_below(max as u64) {
            Ok(_) => Ok(InflightPermit { stats }),
            Err(cur) => {
                stats.shed.inc();
                Err(ServeError::overloaded(cur as usize, max))
            }
        }
    }
}

impl Drop for InflightPermit<'_> {
    fn drop(&mut self) {
        self.stats.inflight.dec();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::codes;

    #[test]
    fn record_and_percentiles() {
        let s = ServeStats::new();
        for i in 1..=100u64 {
            s.record(i, i % 10 == 0);
        }
        let snap = s.snapshot(3);
        assert_eq!(snap.epoch, 3);
        assert_eq!(snap.requests, 100);
        assert_eq!(snap.errors, 10);
        assert_eq!(snap.max_us, 100);
        assert!((49..=51).contains(&snap.p50_us), "{}", snap.p50_us);
        assert!((98..=100).contains(&snap.p99_us), "{}", snap.p99_us);
        assert!(snap.qps > 0.0);
    }

    #[test]
    fn ring_wraps_without_losing_recent_window() {
        let s = ServeStats::new();
        for _ in 0..(RING * 2) {
            s.record(7, false);
        }
        let snap = s.snapshot(0);
        assert_eq!(snap.requests, (RING * 2) as u64);
        assert_eq!(snap.p50_us, 7);
        assert_eq!(snap.max_us, 7);
    }

    #[test]
    fn rejects_stay_out_of_served_percentiles() {
        let s = ServeStats::new();
        // A steady stream of genuinely slow served requests...
        for _ in 0..100 {
            s.record(5_000, false);
        }
        // ...and a shed storm of instant rejects (the old bug recorded
        // these as 0µs samples in the same ring, dragging p99 to 0).
        let _held = InflightPermit::try_acquire(&s, 1).unwrap();
        for _ in 0..10_000 {
            InflightPermit::try_acquire(&s, 1).unwrap_err();
            s.record_unhandled();
        }
        let snap = s.snapshot(0);
        assert_eq!(snap.p50_us, 5_000, "served percentiles unpolluted");
        assert_eq!(snap.p99_us, 5_000);
        assert_eq!(snap.shed, 10_000);
        assert_eq!(snap.rejected, snap.shed);
        assert_eq!(snap.requests, 10_100);
        assert_eq!(snap.errors, 10_000);
        // No queue: nothing expires and no reject waits.
        assert_eq!(snap.deadline_exceeded, 0);
        assert_eq!(snap.reject_p99_us, 0);
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let s = ServeStats::new();
        s.record(42, false);
        s.record_unhandled();
        s.shed.add(3);
        let snap = s.snapshot(9);
        let back = StatsSnapshot::parse(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn snapshot_without_reject_fields_still_parses() {
        // A stats object from a pre-observability server.
        let legacy = "{\"epoch\":1,\"uptime_ms\":2,\"requests\":3,\"errors\":0,\"shed\":0,\
                      \"deadline_exceeded\":0,\"reloads\":0,\"reload_failures\":0,\
                      \"connections\":1,\"inflight\":0,\"qps\":1.5,\"p50_us\":10,\
                      \"p90_us\":20,\"p99_us\":30,\"max_us\":40}";
        let snap = StatsSnapshot::parse(legacy).unwrap();
        assert_eq!(snap.rejected, 0);
        assert_eq!(snap.reject_p99_us, 0);
        assert_eq!(snap.health_checks, 0);
        assert_eq!(snap.requests, 3);
    }

    #[test]
    fn inflight_permits_shed_over_limit() {
        let s = ServeStats::new();
        let p1 = InflightPermit::try_acquire(&s, 2).unwrap();
        let p2 = InflightPermit::try_acquire(&s, 2).unwrap();
        let refused = InflightPermit::try_acquire(&s, 2).unwrap_err();
        assert_eq!(refused.code, codes::OVERLOADED);
        assert_eq!(s.shed.get(), 1);
        drop(p1);
        let _p3 = InflightPermit::try_acquire(&s, 2).unwrap();
        drop(p2);
        assert_eq!(s.inflight.get(), 1);
    }

    #[test]
    fn empty_ring_percentiles_are_zero() {
        let snap = ServeStats::new().snapshot(0);
        assert_eq!(snap.p50_us, 0);
        assert_eq!(snap.max_us, 0);
        assert_eq!(snap.requests, 0);
        assert_eq!(snap.reject_p99_us, 0);
    }

    #[test]
    fn stats_register_into_the_global_metrics_surface() {
        let s = ServeStats::new();
        s.record(10, false);
        s.handler_time_us.record(5);
        let snap = MetricsRegistry::global().snapshot();
        assert!(snap.counters["serve.requests"] >= 1, "{snap:?}");
        assert!(snap.histograms.contains_key("serve.handler.time_us"));
        assert!(snap.gauges.contains_key("serve.inflight"));
    }
}
