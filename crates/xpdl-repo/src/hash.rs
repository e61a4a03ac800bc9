//! The one seeded hash behind every deterministic script in the toolchain.
//!
//! FNV-1a checksums the disk cache's entries and fingerprints runtime
//! models; seeded, it drives the fault scripts, the retry jitter and the
//! simulated crash truncation. SplitMix64's finalizer scrambles a hash
//! whose high bits are correlated (the registry's ring positions, a fault
//! script's attempt number), and [`fraction`] turns 64 bits into a uniform
//! draw. None depends on a platform, a run or `std`'s `DefaultHasher`.

/// FNV-1a over `bytes`. Stable across platforms and runs.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_seeded(0, &[bytes])
}

/// FNV-1a over the concatenation of `parts`, starting from the offset
/// basis XORed with `seed`. Seed 0 is plain [`fnv1a64`].
pub(crate) fn fnv1a64_seeded(seed: u64, parts: &[&[u8]]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64 ^ seed;
    for b in parts.iter().flat_map(|p| p.iter()) {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01B3);
    }
    h
}

/// SplitMix64's output finalizer: every input bit reaches every output bit.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The top 53 bits of `h` as a uniform fraction in `[0, 1)`.
pub fn fraction(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_is_stable() {
        assert_eq!(fnv1a64(b""), 0xCBF2_9CE4_8422_2325);
        assert_ne!(fnv1a64(b"a"), fnv1a64(b"b"));
        // Known FNV-1a test vector.
        assert_eq!(fnv1a64(b"a"), 0xAF63_DC4C_8601_EC8C);
    }

    #[test]
    fn fraction_spans_the_unit_interval() {
        assert_eq!(fraction(0), 0.0);
        assert!(fraction(u64::MAX) < 1.0);
        assert_eq!(fraction(1 << 63), 0.5);
    }
}
