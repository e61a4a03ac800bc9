//! Counters, gauges, log2-bucket histograms, the unified registry, and
//! the one percentile rule for raw samples.
//!
//! Instruments are cheap lock-free atomics owned by the subsystem that
//! bumps them (`Arc<Counter>` etc.); the [`MetricsRegistry`] holds only
//! `Weak` references under stable dotted names (`repo.fetch.attempts`,
//! `serve.handler.time_us`, …). Several instances may register the same
//! name — a process with three `Repository` instances has three
//! `repo.fetch.attempts` counters — and a [`MetricsSnapshot`] sums them.
//! Instruments whose owners dropped are pruned at snapshot time.
//!
//! Two ways to a percentile, by what is held:
//!
//! - Raw samples (the serve `stats` ring, bench records): [`percentile`],
//!   the exact nearest-rank sample.
//! - A [`Histogram`] (constant memory, no samples kept): read it with
//!   [`Histogram::snapshot`], then [`HistogramSnapshot::quantile`], an
//!   estimate interpolated inside one log2 bucket.
//!
//! ```
//! use xpdl_obs::metrics::{Counter, MetricsRegistry};
//! use std::sync::Arc;
//!
//! let registry = MetricsRegistry::new();
//! let hits = Arc::new(Counter::new());
//! registry.register_counter("demo.hits", &hits);
//! hits.inc();
//! hits.add(2);
//! assert_eq!(registry.snapshot().counters["demo.hits"], 3);
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};

/// Number of histogram buckets: one for zero plus one per power of two.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Nearest-rank percentile of ascending `sorted` samples: the
/// ⌈`q`·n⌉-th smallest (at least the first), or 0 when there are none.
/// Always a value that was measured, never an interpolation.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len();
    if n == 0 {
        return 0;
    }
    // The epsilon keeps 0.99 · 1000 at rank 990 despite binary rounding.
    let rank = ((q.clamp(0.0, 1.0) * n as f64 - 1e-9).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Monotonic event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Add one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Instantaneous level (queue depth, in-flight requests, …).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A zeroed gauge.
    pub fn new() -> Gauge {
        Gauge(AtomicU64::new(0))
    }

    /// Set the level outright.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raise the level by one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Lower the level by one (release ordering: pairs with admission).
    pub fn dec(&self) {
        self.0.fetch_sub(1, Ordering::Release);
    }

    /// Current level.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Atomically raise the level by one only while it is below `limit`.
    /// Returns the pre-increment level on success, or `Err(level)` when
    /// the gauge is at or over the limit — the admission-control
    /// primitive behind the serve daemon's in-flight cap.
    pub fn try_inc_below(&self, limit: u64) -> Result<u64, u64> {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            if cur >= limit {
                return Err(cur);
            }
            match self.0.compare_exchange_weak(cur, cur + 1, Ordering::AcqRel, Ordering::Relaxed) {
                Ok(prev) => return Ok(prev),
                Err(actual) => cur = actual,
            }
        }
    }
}

/// Fixed log2-bucket histogram of `u64` samples.
///
/// Bucket 0 holds exact zeros; bucket `i ≥ 1` holds samples in
/// `[2^(i-1), 2^i - 1]`. Recording is two relaxed `fetch_add`s plus a
/// `leading_zeros` — no locks, no allocation, constant memory.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// The bucket index a value falls into.
    pub fn bucket_index(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// Inclusive `[lo, hi]` range of values covered by bucket `i`.
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        match i {
            0 => (0, 0),
            64 => (1 << 63, u64::MAX),
            _ => (1 << (i - 1), (1 << i) - 1),
        }
    }

    /// Record one sample.
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.buckets[Histogram::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Copy out the count, the sum and every non-empty bucket.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            buckets: (0..HISTOGRAM_BUCKETS)
                .map(|i| (i as u8, self.buckets[i].load(Ordering::Relaxed)))
                .filter(|&(_, c)| c > 0)
                .collect(),
        }
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

#[derive(Debug)]
enum Instrument {
    Counter(Weak<Counter>),
    Gauge(Weak<Gauge>),
    Histogram(Weak<Histogram>),
}

impl Instrument {
    fn is_dead(&self) -> bool {
        match self {
            Instrument::Counter(w) => w.strong_count() == 0,
            Instrument::Gauge(w) => w.strong_count() == 0,
            Instrument::Histogram(w) => w.strong_count() == 0,
        }
    }
}

/// The unified name → instrument registry.
///
/// Subsystems own their instruments (`Arc`) and register weak references
/// here; [`MetricsRegistry::snapshot`] aggregates whatever is still
/// alive. The process-wide instance is [`MetricsRegistry::global`].
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<BTreeMap<String, Vec<Instrument>>>,
}

impl MetricsRegistry {
    /// An empty registry (tests; production code uses [`global`](Self::global)).
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The process-wide registry.
    pub fn global() -> &'static MetricsRegistry {
        static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
        GLOBAL.get_or_init(MetricsRegistry::new)
    }

    fn push(&self, name: &str, instrument: Instrument) {
        let mut map = self.inner.lock().expect("metrics registry poisoned");
        let entry = map.entry(name.to_string()).or_default();
        entry.retain(|i| !i.is_dead());
        entry.push(instrument);
    }

    /// Register an existing counter under `name`.
    pub fn register_counter(&self, name: &str, c: &Arc<Counter>) {
        self.push(name, Instrument::Counter(Arc::downgrade(c)));
    }

    /// Register an existing gauge under `name`.
    pub fn register_gauge(&self, name: &str, g: &Arc<Gauge>) {
        self.push(name, Instrument::Gauge(Arc::downgrade(g)));
    }

    /// Register an existing histogram under `name`.
    pub fn register_histogram(&self, name: &str, h: &Arc<Histogram>) {
        self.push(name, Instrument::Histogram(Arc::downgrade(h)));
    }

    /// Create and register a counter in one step.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let c = Arc::new(Counter::new());
        self.register_counter(name, &c);
        c
    }

    /// Create and register a gauge in one step.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let g = Arc::new(Gauge::new());
        self.register_gauge(name, &g);
        g
    }

    /// Create and register a histogram in one step.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let h = Arc::new(Histogram::new());
        self.register_histogram(name, &h);
        h
    }

    /// Aggregate every live instrument into a snapshot, pruning dead
    /// registrations. Same-name instruments of the same kind are summed
    /// (counters, gauges) or merged bucket-wise (histograms).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut map = self.inner.lock().expect("metrics registry poisoned");
        let mut snap = MetricsSnapshot::default();
        map.retain(|name, instruments| {
            instruments.retain(|i| !i.is_dead());
            for i in instruments.iter() {
                match i {
                    Instrument::Counter(w) => {
                        if let Some(c) = w.upgrade() {
                            *snap.counters.entry(name.clone()).or_insert(0) += c.get();
                        }
                    }
                    Instrument::Gauge(w) => {
                        if let Some(g) = w.upgrade() {
                            *snap.gauges.entry(name.clone()).or_insert(0) += g.get();
                        }
                    }
                    Instrument::Histogram(w) => {
                        if let Some(h) = w.upgrade() {
                            snap.histograms.entry(name.clone()).or_default().merge(h.snapshot());
                        }
                    }
                }
            }
            !instruments.is_empty()
        });
        snap
    }
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// Aggregated view of one histogram (possibly merged across instances).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// `(bucket_index, count)` pairs for every non-empty bucket,
    /// ascending by index.
    pub buckets: Vec<(u8, u64)>,
}

impl HistogramSnapshot {
    fn merge(&mut self, other: HistogramSnapshot) {
        self.count += other.count;
        self.sum += other.sum;
        let mut merged: BTreeMap<u8, u64> = self.buckets.drain(..).collect();
        for (i, c) in other.buckets {
            *merged.entry(i).or_insert(0) += c;
        }
        self.buckets = merged.into_iter().collect();
    }

    /// Estimated quantile `q` in `[0, 1]` (0 when empty).
    ///
    /// Samples are assumed spread uniformly across their bucket's value
    /// range, and the rank is placed proportionally within it: the error
    /// is at most half a bucket, and the `(u8 index, count)` wire format
    /// needs nothing more. Where raw samples exist, use [`percentile`].
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for &(i, c) in &self.buckets {
            if seen + c >= rank {
                let (lo, hi) = Histogram::bucket_bounds(i as usize);
                // The rank-th sample is the `into`-th of `c` samples in
                // this bucket; treat each as the midpoint of its 1/c
                // slice of the bucket's range.
                let into = rank - seen;
                let frac = (into as f64 - 0.5) / c as f64;
                return lo + (((hi - lo) as f64) * frac).round() as u64;
            }
            seen += c;
        }
        self.buckets.last().map(|&(i, _)| Histogram::bucket_bounds(i as usize).1).unwrap_or(0)
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Point-in-time aggregation of every registered instrument.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge levels by name (summed across instances).
    pub gauges: BTreeMap<String, u64>,
    /// Histogram aggregates by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Serialize as a JSON object:
    /// `{"counters":{...},"gauges":{...},"histograms":{"n":{"count":..,"sum":..,"buckets":[[i,c],..]}}}`.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{}\":{}", crate::esc(k), v));
        }
        s.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{}\":{}", crate::esc(k), v));
        }
        s.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{}\":{{\"count\":{},\"sum\":{},\"buckets\":[", crate::esc(k), h.count, h.sum));
            for (j, (b, c)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                s.push_str(&format!("[{b},{c}]"));
            }
            s.push_str("]}");
        }
        s.push_str("}}");
        s
    }
}

impl fmt::Display for MetricsSnapshot {
    /// One aligned line per instrument; histograms show count, mean, and
    /// interpolated quantile estimates.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let width = self
            .counters
            .keys()
            .chain(self.gauges.keys())
            .chain(self.histograms.keys())
            .map(String::len)
            .max()
            .unwrap_or(0);
        for (k, v) in &self.counters {
            writeln!(f, "{k:<width$}  {v}")?;
        }
        for (k, v) in &self.gauges {
            writeln!(f, "{k:<width$}  {v} (gauge)")?;
        }
        for (k, h) in &self.histograms {
            writeln!(
                f,
                "{k:<width$}  count={} mean={:.1} p50~{} p99~{}",
                h.count,
                h.mean(),
                h.quantile(0.50),
                h.quantile(0.99),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_exact_powers_of_two() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(1023), 10);
        assert_eq!(Histogram::bucket_index(1024), 11);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        // Every value lands inside its bucket's inclusive bounds, and
        // adjacent buckets tile the u64 range with no gap or overlap.
        for v in [0u64, 1, 2, 3, 7, 8, 255, 256, 1 << 40, u64::MAX] {
            let i = Histogram::bucket_index(v);
            let (lo, hi) = Histogram::bucket_bounds(i);
            assert!(lo <= v && v <= hi, "{v} outside bucket {i} [{lo},{hi}]");
        }
        for i in 1..HISTOGRAM_BUCKETS {
            let (lo, _) = Histogram::bucket_bounds(i);
            let (_, prev_hi) = Histogram::bucket_bounds(i - 1);
            assert_eq!(lo, prev_hi + 1, "bucket {i} does not abut bucket {}", i - 1);
        }
    }

    #[test]
    fn nearest_rank_picks_a_measured_sample() {
        assert_eq!(percentile(&[], 0.5), 0);
        let five = [1u64, 2, 3, 100, 1000];
        assert_eq!(percentile(&five, 0.0), 1);
        assert_eq!(percentile(&five, 0.5), 3);
        assert_eq!(percentile(&five, 0.9), 1000);
        assert_eq!(percentile(&five, 0.99), 1000);
        let thousand: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&thousand, 0.5), 500);
        assert_eq!(percentile(&thousand, 0.99), 990);
        assert_eq!(percentile(&thousand, 1.0), 1000);
    }

    #[test]
    fn histogram_snapshot_lists_nonempty_buckets() {
        let h = Histogram::new();
        for v in [0u64, 1, 5, 5, 5, 100, 1000] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!((snap.count, snap.sum), (7, 1116));
        // 0; 1; 5,5,5 in [4,7]; 100 in [64,127]; 1000 in [512,1023].
        assert_eq!(snap.buckets, [(0, 1), (1, 1), (3, 3), (7, 1), (10, 1)]);
        assert!((4..=7).contains(&snap.quantile(0.5)));
        assert!((512..=1023).contains(&snap.quantile(0.99)));
        assert_eq!(snap.quantile(0.0), 0);
        // Same-name instruments merge bucket-wise in a registry snapshot.
        let reg = MetricsRegistry::new();
        let (a, b) = (reg.histogram("t"), reg.histogram("t"));
        a.record(5);
        b.record(6);
        b.record(1000);
        let merged = &reg.snapshot().histograms["t"];
        assert_eq!((merged.count, merged.sum), (3, 1011));
        assert_eq!(merged.buckets, [(3, 2), (10, 1)]);
    }

    #[test]
    fn interpolated_quantile_stays_inside_the_bucket() {
        // 1000 samples uniform over [30000, 60000): they straddle the
        // [16384,32767] and [32768,65535] buckets. Interpolation must
        // land near the true median of ~45000 (within half a bucket).
        let h = Histogram::new();
        for k in 0..1000u64 {
            h.record(30_000 + k * 30);
        }
        let snap = h.snapshot();
        let p50 = snap.quantile(0.50);
        assert!((40_000..=52_000).contains(&p50), "interpolated p50 {p50}");
        // Monotone in q, and the extremes stay inside the data's buckets.
        let p10 = snap.quantile(0.10);
        let p99 = snap.quantile(0.99);
        assert!(p10 <= p50 && p50 <= p99, "{p10} {p50} {p99}");
        assert!(p10 >= 16_384 && p99 <= 65_535);
        // A single-sample bucket reports its midpoint, not its ceiling.
        let one = Histogram::new();
        one.record(40_000);
        let est = one.snapshot().quantile(0.50);
        assert!((32_768..=65_535).contains(&est) && est != 65_535, "{est}");
        // Empty and zero-only histograms stay at 0.
        assert_eq!(HistogramSnapshot::default().quantile(0.5), 0);
        let z = Histogram::new();
        z.record(0);
        assert_eq!(z.snapshot().quantile(0.99), 0);
    }

    #[test]
    fn registry_sums_same_name_instances_and_prunes_dead() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x.hits");
        let b = reg.counter("x.hits");
        a.add(2);
        b.add(3);
        assert_eq!(reg.snapshot().counters["x.hits"], 5);
        drop(b);
        assert_eq!(reg.snapshot().counters["x.hits"], 2, "dead instance pruned");
        drop(a);
        let snap = reg.snapshot();
        assert!(!snap.counters.contains_key("x.hits"));
    }

    #[test]
    fn gauge_admission_respects_the_limit() {
        let g = Gauge::new();
        assert_eq!(g.try_inc_below(2), Ok(0));
        assert_eq!(g.try_inc_below(2), Ok(1));
        assert_eq!(g.try_inc_below(2), Err(2));
        g.dec();
        assert_eq!(g.try_inc_below(2), Ok(1));
        assert_eq!(g.get(), 2);
    }

    #[test]
    fn snapshot_json_is_wellformed_and_ordered() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("b.count");
        c.inc();
        let g = reg.gauge("a.level");
        g.set(4);
        let h = reg.histogram("c.lat_us");
        h.record(3);
        h.record(300);
        let snap = reg.snapshot();
        let json = snap.to_json();
        assert!(json.starts_with("{\"counters\":{\"b.count\":1}"), "{json}");
        assert!(json.contains("\"gauges\":{\"a.level\":4}"), "{json}");
        assert!(json.contains("\"c.lat_us\":{\"count\":2,\"sum\":303,\"buckets\":[[2,1],[9,1]]}"), "{json}");
        let text = snap.to_string();
        assert!(text.contains("b.count"), "{text}");
        // 300 is the only sample in its bucket [256,511]: interpolation
        // reports the bucket midpoint 256 + 0.5·255 ≈ 384, not 511.
        assert!(text.contains("p99~384"), "{text}");
    }
}
