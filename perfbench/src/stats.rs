//! Exact order statistics over raw samples.
//!
//! Every percentile the benchmark reports is a nearest-rank value over the
//! complete list of samples it measured, never an estimate from buckets.
//! A percentile is reported only when at least [`MIN_BEYOND`] samples lie
//! above it, so a "p99" is never just the maximum of a short run.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` (in `(0, 1]`) among `n`
/// samples: the smallest rank whose share of samples reaches `p`.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps 0.99 * 1000 at rank 990 despite binary rounding.
    ((p * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of ascending `sorted` samples, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let r = rank(n, p);
    (n - r >= MIN_BEYOND).then(|| sorted[r - 1])
}

/// The fewest samples for which [`percentile`] reports `p`.
pub fn min_samples(p: f64) -> usize {
    (1..)
        .find(|&n| n - rank(n, p) >= MIN_BEYOND)
        .expect("some count qualifies")
}

/// Lower median of a small set of per-window or per-repetition values
/// (no [`MIN_BEYOND`] rule: these are already aggregates).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v.get(v.len().saturating_sub(1) / 2)
        .copied()
        .unwrap_or(f64::NAN)
}

/// A growing list of raw samples of one quantity.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// Record one sample.
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    /// Append every sample of `other`.
    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    /// Nearest-rank percentile, `None` under the [`MIN_BEYOND`] rule.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        percentile(&v, p)
    }

    /// The raw samples in recording order.
    pub fn values(&self) -> &[f64] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_a_real_sample() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(100.0));
        assert_eq!(percentile(&v, 0.9), Some(180.0));
        // 0.9025 × 200 = 180.5 rounds up to rank 181, not an interpolated
        // 180.5.
        assert_eq!(percentile(&v, 0.9025), Some(181.0));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // Rank 99 of 100 leaves one sample beyond: not reportable.
        assert_eq!(percentile(&v, 0.99), None);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn min_samples_matches_the_rule() {
        assert_eq!(min_samples(0.5), 20);
        assert_eq!(min_samples(0.9), 100);
        assert_eq!(min_samples(0.99), 1000);
        for p in [0.5, 0.9, 0.99] {
            let n = min_samples(p);
            let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
            assert!(percentile(&v, p).is_some());
            assert!(percentile(&v[1..], p).is_none());
        }
    }

    #[test]
    fn median_of_windows() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }
}
