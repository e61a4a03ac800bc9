//! A tiny deterministic PRNG (SplitMix64) so generated fleets are
//! byte-identical for a given seed across platforms and runs — the
//! vendored `rand` shim is for tests; fleet generation must never drift
//! with a dependency update.

use xpdl_repo::hash::{fraction, mix64};

/// SplitMix64: 64 bits of state, passes BigCrush, two multiplications per
/// draw. Good enough to decorrelate descriptor content; never used where
/// cryptographic quality matters.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Seed the generator. A zero seed is fine — the finalizer scrambles it.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.0)
    }

    /// Uniform draw in `[lo, hi]` (inclusive). `lo > hi` is a programmer
    /// error and panics in debug builds via the subtraction.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        fraction(self.next_u64())
    }

    /// Bernoulli draw with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_a_seed() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let c: Vec<u64> = {
            let mut r = SplitMix64::new(43);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a, c);
    }

    #[test]
    fn range_is_inclusive_and_in_bounds() {
        let mut r = SplitMix64::new(7);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..512 {
            let v = r.range(2, 4);
            assert!((2..=4).contains(&v));
            seen_lo |= v == 2;
            seen_hi |= v == 4;
        }
        assert!(seen_lo && seen_hi);
    }
}
