//! Retry policies for distributed descriptor fetches.
//!
//! The paper's repository is distributed — descriptors "may, ideally, even
//! be provided for download e.g. at hardware manufacturer web sites" — and
//! vendor sites fail, time out, and serve truncated responses. A
//! [`RetryPolicy`] tells the [`Repository`](crate::Repository) how to
//! handle each failure class:
//!
//! * **transient store errors** (every [`StoreError`](crate::StoreError)
//!   class) are always retried up to [`RetryPolicy::max_attempts`];
//! * **corrupted payloads** (fetched text that fails to parse) are
//!   re-fetched when [`RetryPolicy::retry_parse_errors`] is set — a flaky
//!   mirror can serve garbage once and the real descriptor on the next
//!   attempt;
//! * **authoritative misses** (a store answering "no such key") are never
//!   retried: absence is a definitive answer, and confirmed-missing keys
//!   go to the repository's negative cache.
//!
//! Between attempts the policy sleeps an exponentially growing, jittered
//! delay. Jitter is *deterministic* — derived from the policy seed, the
//! key, and the attempt number — so a seeded test run backs off exactly
//! the same way every time.

use crate::hash::{fnv1a64_seeded, fraction};
use std::time::Duration;

/// When (and how fast) the repository retries a failed fetch.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per store, including the first (1 = no retries).
    pub max_attempts: u32,
    /// Delay before the first retry.
    pub base_delay: Duration,
    /// Upper bound on any single delay.
    pub max_delay: Duration,
    /// Multiplier applied to the delay after every failed attempt.
    pub backoff: f64,
    /// Jitter fraction in `[0, 1]`: each delay is scaled by a
    /// deterministic factor in `[1 - jitter/2, 1 + jitter/2]`.
    pub jitter: f64,
    /// Re-fetch when the payload arrived but failed to parse (corruption
    /// in transit). A descriptor that is *persistently* malformed still
    /// surfaces as a parse error after `max_attempts`.
    pub retry_parse_errors: bool,
    /// Seed for the deterministic jitter.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(25),
            backoff: 2.0,
            jitter: 0.5,
            retry_parse_errors: true,
            seed: 0x5EED_CAFE,
        }
    }
}

impl RetryPolicy {
    /// No retries at all: every failure surfaces immediately.
    pub fn none() -> RetryPolicy {
        RetryPolicy { max_attempts: 1, retry_parse_errors: false, ..RetryPolicy::default() }
    }

    /// Default policy with a different attempt budget.
    pub fn with_max_attempts(max_attempts: u32) -> RetryPolicy {
        RetryPolicy { max_attempts: max_attempts.max(1), ..RetryPolicy::default() }
    }

    /// Whether a store error on attempt `attempt` (1-based) warrants
    /// another try. Every [`StoreError`](crate::StoreError) class is
    /// transient, so only the attempt budget gates it.
    pub fn should_retry_store_error(&self, attempt: u32) -> bool {
        attempt < self.max_attempts
    }

    /// Whether a parse failure on attempt `attempt` warrants a re-fetch.
    pub fn should_retry_parse_error(&self, attempt: u32) -> bool {
        self.retry_parse_errors && attempt < self.max_attempts
    }

    /// The backoff delay after failed attempt `attempt` (1-based), with
    /// deterministic jitter derived from `(seed, key, attempt)`.
    pub fn delay_after(&self, key: &str, attempt: u32) -> Duration {
        let exp = self.backoff.max(1.0).powi(attempt.saturating_sub(1).min(16) as i32);
        let raw = self.base_delay.as_secs_f64() * exp;
        let capped = raw.min(self.max_delay.as_secs_f64());
        let jitter = self.jitter.clamp(0.0, 1.0);
        let h = fnv1a64_seeded(self.seed, &[key.as_bytes(), &attempt.to_le_bytes()]);
        let factor = 1.0 + jitter * (fraction(h) - 0.5);
        Duration::from_secs_f64(capped * factor)
    }

    /// Sleep out the backoff for failed attempt `attempt` on `key`.
    pub fn sleep_after(&self, key: &str, attempt: u32) {
        let d = self.delay_after(key, attempt);
        if !d.is_zero() {
            std::thread::sleep(d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_retries_transients_and_parses() {
        let p = RetryPolicy::default();
        assert!(p.should_retry_store_error(1));
        assert!(p.should_retry_store_error(3));
        assert!(!p.should_retry_store_error(4));
        assert!(p.should_retry_parse_error(1));
        assert!(!p.should_retry_parse_error(4));
    }

    #[test]
    fn none_policy_never_retries() {
        let p = RetryPolicy::none();
        assert!(!p.should_retry_store_error(1));
        assert!(!p.should_retry_parse_error(1));
    }

    #[test]
    fn delays_grow_and_cap() {
        let p = RetryPolicy { jitter: 0.0, ..RetryPolicy::default() };
        let d1 = p.delay_after("k", 1);
        let d2 = p.delay_after("k", 2);
        let d3 = p.delay_after("k", 3);
        assert!(d1 < d2 && d2 < d3, "{d1:?} {d2:?} {d3:?}");
        let huge = p.delay_after("k", 12);
        assert!(huge <= p.max_delay, "{huge:?}");
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let p = RetryPolicy::default();
        assert_eq!(p.delay_after("Nvidia_K20c", 2), p.delay_after("Nvidia_K20c", 2));
        let plain = RetryPolicy { jitter: 0.0, ..p.clone() }.delay_after("x", 2);
        let jittered = p.delay_after("x", 2);
        let lo = plain.as_secs_f64() * 0.75;
        let hi = plain.as_secs_f64() * 1.25;
        assert!((lo..=hi).contains(&jittered.as_secs_f64()), "{jittered:?} vs {plain:?}");
    }

    #[test]
    fn jitter_hash_is_pinned() {
        // Computed before the jitter hash moved onto the shared FNV-1a
        // (`crate::hash`): a change here reshuffles every seeded retry
        // schedule.
        // Second-scale delays keep the jitter fraction's bits visible in
        // the nanosecond count.
        let delay = |seed: u64, key: &str, attempt: u32| {
            let p = RetryPolicy {
                base_delay: Duration::from_secs(1000),
                max_delay: Duration::from_secs(1 << 30),
                jitter: 1.0,
                seed,
                ..RetryPolicy::default()
            };
            p.delay_after(key, attempt).as_nanos()
        };
        assert_eq!(delay(0, "Nvidia_K20c", 1), 561_125_855_727);
        assert_eq!(delay(0x5EED_CAFE, "liu_gpu_server", 2), 1_286_715_266_372);
        assert_eq!(delay(u64::MAX, "", 7), 92_703_008_905_904);
    }
}
