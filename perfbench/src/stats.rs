//! The benchmark's own statistics: median, nearest-rank percentiles and
//! the tail rule.

/// Median of `values` (mean of the two middle values for an even count).
/// Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples:
/// `ceil(p / 100 * n)`, clamped to `1..=n`.
fn rank(p: f64, n: usize) -> usize {
    // Percentiles are given to at most two decimals; scaling to integer
    // hundredths of a percent keeps `ceil` exact (0.9 * 100 is not).
    let hundredths = (p * 100.0).round() as u128;
    let r = (hundredths * n as u128).div_ceil(10_000) as usize;
    r.clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of an ascending `sorted`
/// slice. Returns 0 for an empty slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[rank(p, sorted.len()) - 1]
}

/// Samples strictly above the nearest-rank percentile `p` of `n`.
pub fn samples_above(p: f64, n: usize) -> usize {
    n - rank(p, n)
}

/// Fewest samples a reported tail percentile must leave above it.
pub const TAIL_MIN_ABOVE: usize = 10;

/// Fallback tail percentiles, highest first.
const LADDER: [f64; 7] = [99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The tail rule: percentile `preferred` when it leaves at least
/// [`TAIL_MIN_ABOVE`] samples above it; otherwise (a run too short for
/// it) the highest ladder percentile that does. Returns the percentile
/// and its value; `None` when even the median leaves fewer (under 20
/// samples).
pub fn tail(sorted: &[u64], preferred: f64) -> Option<(f64, u64)> {
    std::iter::once(preferred)
        .chain(LADDER)
        .find(|&p| samples_above(p, sorted.len()) >= TAIL_MIN_ABOVE)
        .map(|p| (p, percentile(sorted, p)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 90.0), 90);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 99.9), 100);
        assert_eq!(percentile(&v, 100.0), 100);
        // 0.9 * 10 must rank 9, not 10 through float error.
        let ten: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&ten, 90.0), 9);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn tail_leaves_at_least_ten_samples_above() {
        for preferred in [99.0, 98.0, 90.0] {
            for n in 20..5000usize {
                let v: Vec<u64> = (0..n as u64).collect();
                let (p, value) = tail(&v, preferred).expect("20+ samples have a tail");
                let above = v.iter().filter(|&&x| x > value).count();
                assert!(above >= TAIL_MIN_ABOVE, "n={n}: p{p} leaves {above}");
                if p == preferred {
                    continue;
                }
                // Fallback: neither the preferred percentile nor a higher
                // ladder step would also qualify.
                assert!(samples_above(preferred, n) < TAIL_MIN_ABOVE, "n={n}");
                if let Some(&higher) = LADDER.iter().take_while(|&&q| q > p).last() {
                    assert!(
                        samples_above(higher, n) < TAIL_MIN_ABOVE,
                        "n={n}: p{higher} also fits"
                    );
                }
            }
        }
    }

    #[test]
    fn tail_keeps_the_preferred_percentile_while_it_fits() {
        let v = |n: u64| (0..n).collect::<Vec<_>>();
        // A faster or slower run keeps its percentile...
        assert_eq!(tail(&v(500), 98.0).map(|t| t.0), Some(98.0));
        assert_eq!(tail(&v(1500), 98.0).map(|t| t.0), Some(98.0));
        assert_eq!(tail(&v(9999), 99.0).map(|t| t.0), Some(99.0));
        assert_eq!(tail(&v(100_000), 99.0).map(|t| t.0), Some(99.0));
        assert_eq!(tail(&v(100), 90.0).map(|t| t.0), Some(90.0));
        // ...and one too short for it falls back to the ladder.
        assert_eq!(tail(&v(499), 98.0).map(|t| t.0), Some(95.0));
        assert_eq!(tail(&v(999), 99.0).map(|t| t.0), Some(95.0));
        assert_eq!(tail(&v(99), 90.0).map(|t| t.0), Some(75.0));
        assert_eq!(tail(&v(20), 99.0).map(|t| t.0), Some(50.0));
        assert_eq!(tail(&v(19), 99.0), None);
    }
}
