//! Deterministic fault injection for model stores.
//!
//! [`FaultInjectingStore`] wraps any [`ModelStore`] and makes it
//! misbehave at configurable rates: refuse service, time out, or hand
//! back corrupted XML. It exists so the resilience machinery
//! ([`RetryPolicy`](crate::RetryPolicy), negative cache, parallel
//! prefetch) can be *proven* against a hostile remote instead of only
//! against happy-path in-memory stores.
//!
//! Failures are **deterministic**: the decision for a given fetch is a
//! pure function of `(seed, key, per-key attempt number)`. Two
//! consequences matter for tests:
//!
//! * the same seed always produces the same failure script, so an
//!   integration test asserting "resolution survives 30% faults" cannot
//!   flake;
//! * the decision does not depend on thread interleaving — parallel
//!   resolvers may load keys in any order, but the n-th fetch *of a
//!   particular key* always gets the same verdict.

use crate::hash::{fnv1a64_seeded, fraction, mix64};
use crate::store::{ModelStore, StoreError};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// The payload handed back for an injected corruption. Guaranteed to be
/// rejected by the XML parser (`<<` cannot begin well-formed content).
pub const CORRUPTED_PAYLOAD: &str = "<xpdl><<injected-corruption>></xpdl>";

/// Rates and seed for a [`FaultInjectingStore`].
///
/// The three rates partition the unit interval; their sum must be ≤ 1.
/// The remainder is the probability of an honest pass-through.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Probability a fetch returns [`StoreError::Unavailable`].
    pub fail_rate: f64,
    /// Probability a fetch returns [`StoreError::Timeout`].
    pub timeout_rate: f64,
    /// Probability a *successful* fetch is replaced by
    /// [`CORRUPTED_PAYLOAD`]. Missing keys are never corrupted — absence
    /// stays an authoritative miss, so `NotFound` semantics survive
    /// fault injection.
    pub corrupt_rate: f64,
    /// Probability a *successful* fetch is torn: only a prefix of the
    /// real payload is delivered, as if a partial write (or a connection
    /// cut mid-transfer) were observed. Like corruption, tearing never
    /// applies to missing keys. The cut point is deterministic per
    /// `(seed, key, attempt)`, so crash-during-write scenarios replay
    /// exactly.
    pub torn_rate: f64,
    /// Seed for the deterministic fault script.
    pub seed: u64,
    /// Real wall-clock sleep before an injected timeout is reported.
    /// Zero by default so tests stay fast; benchmarks may opt in.
    pub timeout_sleep: Duration,
}

impl FaultConfig {
    /// Only hard failures (`Unavailable`) at `fail_rate`, seeded.
    pub fn failures(fail_rate: f64, seed: u64) -> FaultConfig {
        FaultConfig::new(fail_rate, 0.0, 0.0, seed)
    }

    /// Only torn (partial) payloads at `torn_rate`, seeded — the
    /// crash-during-write simulation mode.
    pub fn torn_writes(torn_rate: f64, seed: u64) -> FaultConfig {
        FaultConfig::new(0.0, 0.0, 0.0, seed).with_torn_rate(torn_rate)
    }

    /// Full configuration; panics if any rate is outside `[0, 1]` or the
    /// rates sum past 1.
    pub fn new(fail_rate: f64, timeout_rate: f64, corrupt_rate: f64, seed: u64) -> FaultConfig {
        for (name, r) in
            [("fail", fail_rate), ("timeout", timeout_rate), ("corrupt", corrupt_rate)]
        {
            assert!((0.0..=1.0).contains(&r), "{name}_rate {r} outside [0, 1]");
        }
        let sum = fail_rate + timeout_rate + corrupt_rate;
        assert!(sum <= 1.0 + 1e-9, "fault rates sum to {sum} > 1");
        FaultConfig {
            fail_rate,
            timeout_rate,
            corrupt_rate,
            torn_rate: 0.0,
            seed,
            timeout_sleep: Duration::ZERO,
        }
    }

    /// Builder: add a torn-write rate on top of the existing rates;
    /// panics if the combined rates leave the unit interval.
    pub fn with_torn_rate(mut self, torn_rate: f64) -> FaultConfig {
        assert!((0.0..=1.0).contains(&torn_rate), "torn_rate {torn_rate} outside [0, 1]");
        let sum = self.fail_rate + self.timeout_rate + self.corrupt_rate + torn_rate;
        assert!(sum <= 1.0 + 1e-9, "fault rates sum to {sum} > 1");
        self.torn_rate = torn_rate;
        self
    }
}

/// Deterministically tear `payload`: keep a prefix whose length depends
/// only on `(payload, fraction)`, cut back to a char boundary. The cut
/// lands strictly inside the payload, so a well-formed XPDL document
/// always loses (at least) its root close tag and fails to parse.
pub fn tear_payload(payload: &str, fraction: f64) -> String {
    if payload.is_empty() {
        return String::new();
    }
    // Map the unit fraction to [0, len): always a strict prefix.
    let mut cut = ((payload.len() as f64) * fraction) as usize;
    cut = cut.min(payload.len() - 1);
    while cut > 0 && !payload.is_char_boundary(cut) {
        cut -= 1;
    }
    payload[..cut].to_string()
}

/// Counters for what the injector actually did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Fetches rejected with `Unavailable`.
    pub injected_unavailable: u64,
    /// Fetches rejected with `Timeout`.
    pub injected_timeouts: u64,
    /// Fetches whose payload was replaced with garbage.
    pub injected_corruptions: u64,
    /// Fetches whose payload was torn to a strict prefix.
    pub injected_torn: u64,
    /// Fetches passed through untouched.
    pub passed_through: u64,
}

impl FaultStats {
    /// Total faults of any class.
    pub fn total_injected(&self) -> u64 {
        self.injected_unavailable
            + self.injected_timeouts
            + self.injected_corruptions
            + self.injected_torn
    }
}

/// A [`ModelStore`] wrapper that injects faults per [`FaultConfig`].
#[derive(Debug)]
pub struct FaultInjectingStore<S: ModelStore> {
    inner: S,
    config: FaultConfig,
    /// Per-key fetch counters driving the deterministic fault script.
    attempts: Mutex<BTreeMap<String, u64>>,
    unavailable: AtomicU64,
    timeouts: AtomicU64,
    corruptions: AtomicU64,
    torn: AtomicU64,
    passed: AtomicU64,
}

impl<S: ModelStore> FaultInjectingStore<S> {
    /// Wrap `inner` with the given fault configuration.
    pub fn new(inner: S, config: FaultConfig) -> FaultInjectingStore<S> {
        FaultInjectingStore {
            inner,
            config,
            attempts: Mutex::new(BTreeMap::new()),
            unavailable: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            corruptions: AtomicU64::new(0),
            torn: AtomicU64::new(0),
            passed: AtomicU64::new(0),
        }
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The active configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Snapshot of injected-fault counters (Relaxed loads; exact once
    /// the fetching threads have been joined).
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            injected_unavailable: self.unavailable.load(Ordering::Relaxed),
            injected_timeouts: self.timeouts.load(Ordering::Relaxed),
            injected_corruptions: self.corruptions.load(Ordering::Relaxed),
            injected_torn: self.torn.load(Ordering::Relaxed),
            passed_through: self.passed.load(Ordering::Relaxed),
        }
    }

    /// Next attempt number for `key` (1-based, monotonically increasing).
    fn next_attempt(&self, key: &str) -> u64 {
        let mut map = self.attempts.lock();
        let n = map.entry(key.to_string()).or_insert(0);
        *n += 1;
        *n
    }

    /// Uniform fraction in `[0, 1)` from `(seed, key, attempt)`.
    ///
    /// FNV-1a over the key folds in the seed, then a SplitMix64
    /// finalizer scrambles the attempt number so consecutive attempts on
    /// one key decorrelate. Stable across platforms and runs, unlike
    /// `std`'s `DefaultHasher`.
    fn unit_fraction(&self, key: &str, attempt: u64) -> f64 {
        let h = fnv1a64_seeded(self.config.seed, &[key.as_bytes()]);
        fraction(mix64(h ^ attempt.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
    }
}

impl<S: ModelStore> ModelStore for FaultInjectingStore<S> {
    fn try_fetch(&self, key: &str) -> Result<Option<String>, StoreError> {
        let attempt = self.next_attempt(key);
        let u = self.unit_fraction(key, attempt);
        let c = &self.config;
        if u < c.fail_rate {
            bump(&self.unavailable);
            return Err(StoreError::Unavailable {
                detail: format!("injected fault for '{key}' (fetch #{attempt})"),
            });
        }
        if u < c.fail_rate + c.timeout_rate {
            if !c.timeout_sleep.is_zero() {
                std::thread::sleep(c.timeout_sleep);
            }
            bump(&self.timeouts);
            return Err(StoreError::Timeout { waited_ms: c.timeout_sleep.as_millis() as u64 });
        }
        let payload = self.inner.try_fetch(key)?;
        if payload.is_some() && u < c.fail_rate + c.timeout_rate + c.corrupt_rate {
            bump(&self.corruptions);
            return Ok(Some(CORRUPTED_PAYLOAD.to_string()));
        }
        if let Some(full) = &payload {
            if u < c.fail_rate + c.timeout_rate + c.corrupt_rate + c.torn_rate {
                bump(&self.torn);
                // Re-scale u into the torn band so the cut point varies
                // per (seed, key, attempt) but stays deterministic.
                let band = (u - c.fail_rate - c.timeout_rate - c.corrupt_rate) / c.torn_rate;
                return Ok(Some(tear_payload(full, band)));
            }
        }
        bump(&self.passed);
        Ok(payload)
    }

    fn keys(&self) -> Vec<String> {
        self.inner.keys()
    }

    fn describe(&self) -> String {
        let c = &self.config;
        format!(
            "fault-injecting (fail {:.0}%, timeout {:.0}%, corrupt {:.0}%, torn {:.0}%, seed {}) over {}",
            c.fail_rate * 100.0,
            c.timeout_rate * 100.0,
            c.corrupt_rate * 100.0,
            c.torn_rate * 100.0,
            c.seed,
            self.inner.describe()
        )
    }
}

/// Relaxed increment; see `metrics.rs` for the ordering rationale.
fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemoryStore;

    fn store() -> MemoryStore {
        let mut s = MemoryStore::new();
        s.insert("CpuA", "<cpu name=\"CpuA\"/>");
        s.insert("CpuB", "<cpu name=\"CpuB\"/>");
        s
    }

    #[test]
    fn zero_rates_pass_everything_through() {
        let f = FaultInjectingStore::new(store(), FaultConfig::failures(0.0, 1));
        for _ in 0..20 {
            assert!(f.try_fetch("CpuA").unwrap().is_some());
        }
        assert!(f.try_fetch("nope").unwrap().is_none());
        let stats = f.stats();
        assert_eq!(stats.total_injected(), 0);
        assert_eq!(stats.passed_through, 21);
    }

    #[test]
    fn full_fail_rate_rejects_everything() {
        let f = FaultInjectingStore::new(store(), FaultConfig::failures(1.0, 2));
        for _ in 0..5 {
            assert!(matches!(
                f.try_fetch("CpuA"),
                Err(StoreError::Unavailable { .. })
            ));
        }
        assert_eq!(f.stats().injected_unavailable, 5);
    }

    #[test]
    fn fault_script_is_deterministic_per_key_and_attempt() {
        let script = |seed: u64| -> Vec<bool> {
            let f = FaultInjectingStore::new(store(), FaultConfig::failures(0.5, seed));
            (0..32).map(|_| f.try_fetch("CpuA").is_err()).collect()
        };
        assert_eq!(script(42), script(42));
        assert_ne!(script(42), script(43), "different seeds should differ");
    }

    #[test]
    fn observed_failure_rate_tracks_configured_rate() {
        let f = FaultInjectingStore::new(store(), FaultConfig::failures(0.3, 7));
        let n = 2000;
        let failures = (0..n).filter(|_| f.try_fetch("CpuA").is_err()).count();
        let rate = failures as f64 / n as f64;
        assert!((0.25..0.35).contains(&rate), "observed {rate}");
    }

    #[test]
    fn corruption_only_applies_to_present_keys() {
        let cfg = FaultConfig::new(0.0, 0.0, 1.0, 3);
        let f = FaultInjectingStore::new(store(), cfg);
        assert_eq!(f.try_fetch("CpuA").unwrap().unwrap(), CORRUPTED_PAYLOAD);
        // An absent key stays an authoritative miss, never garbage.
        assert!(f.try_fetch("missing").unwrap().is_none());
        assert_eq!(f.stats().injected_corruptions, 1);
    }

    #[test]
    fn corrupted_payload_is_rejected_by_parser() {
        assert!(xpdl_xml::parse(CORRUPTED_PAYLOAD).is_err());
    }

    #[test]
    fn timeout_class_reports_timeout_error() {
        let cfg = FaultConfig::new(0.0, 1.0, 0.0, 4);
        let f = FaultInjectingStore::new(store(), cfg);
        assert!(matches!(f.try_fetch("CpuA"), Err(StoreError::Timeout { .. })));
        assert_eq!(f.stats().injected_timeouts, 1);
    }

    #[test]
    #[should_panic(expected = "sum")]
    fn rates_past_one_are_rejected() {
        FaultConfig::new(0.6, 0.3, 0.3, 0);
    }

    #[test]
    #[should_panic(expected = "sum")]
    fn torn_rate_past_one_combined_is_rejected() {
        let _ = FaultConfig::new(0.6, 0.0, 0.3, 0).with_torn_rate(0.3);
    }

    #[test]
    fn torn_mode_serves_a_strict_prefix_that_fails_to_parse() {
        let f = FaultInjectingStore::new(store(), FaultConfig::torn_writes(1.0, 5));
        let torn = f.try_fetch("CpuA").unwrap().unwrap();
        let full = store().try_fetch("CpuA").unwrap().unwrap();
        assert!(torn.len() < full.len(), "torn {torn:?} vs full {full:?}");
        assert!(full.starts_with(&torn), "torn payload must be a prefix");
        assert!(xpdl_xml::parse(&torn).is_err(), "torn XML must be rejected: {torn:?}");
        assert_eq!(f.stats().injected_torn, 1);
        // Missing keys stay authoritative misses, never torn garbage.
        assert!(f.try_fetch("missing").unwrap().is_none());
    }

    #[test]
    fn torn_script_is_deterministic() {
        let script = |seed: u64| -> Vec<String> {
            let f = FaultInjectingStore::new(store(), FaultConfig::torn_writes(0.5, seed));
            (0..16).map(|_| f.try_fetch("CpuA").unwrap().unwrap_or_default()).collect()
        };
        assert_eq!(script(9), script(9));
        assert_ne!(script(9), script(10));
    }

    #[test]
    fn tear_payload_respects_char_boundaries() {
        let s = "<cpu name=\"héllo✓\"/>";
        for i in 0..=10 {
            let frac = i as f64 / 10.0;
            let torn = tear_payload(s, frac);
            assert!(s.starts_with(&torn));
            assert!(torn.len() < s.len(), "cut must be strict at frac {frac}");
        }
        assert_eq!(tear_payload("", 0.5), "");
    }

    #[test]
    fn keys_and_describe_delegate() {
        let f = FaultInjectingStore::new(store(), FaultConfig::failures(0.3, 0));
        assert_eq!(f.keys(), vec!["CpuA", "CpuB"]);
        let d = f.describe();
        assert!(d.contains("fault-injecting"), "{d}");
        assert!(d.contains("memory store"), "{d}");
    }

    #[test]
    fn fault_script_hash_is_pinned() {
        // Computed before the script hash moved onto the shared FNV-1a
        // (`crate::hash`): a change here rewrites every seeded fault
        // script.
        let frac = |seed: u64, key: &str, attempt: u64| {
            FaultInjectingStore::new(store(), FaultConfig::failures(0.5, seed))
                .unit_fraction(key, attempt)
                .to_bits()
        };
        assert_eq!(frac(0, "CpuA", 1), 4_604_846_917_422_355_975);
        assert_eq!(frac(42, "liu_gpu_server", 3), 4_606_589_357_330_890_035);
        assert_eq!(frac(u64::MAX, "", 9), 4_604_170_037_062_829_880);
    }
}
