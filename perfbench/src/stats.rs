//! Percentiles by the benchmark's reporting rule.
//!
//! A timing is reported as its median and as the highest percentile that
//! still has at least [`MIN_BEYOND`] samples beyond it, together with the
//! sample count, so that a tail figure is never read off a handful of
//! samples.

/// Samples a reported tail percentile must have beyond it.
pub const MIN_BEYOND: usize = 10;

/// Percentiles the tail rule picks from, highest first.
pub const TAIL_CANDIDATES: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// One percentile of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The percentile, in `(0, 100]`.
    pub pct: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Samples strictly beyond it in rank.
    pub beyond: usize,
    /// All samples.
    pub n: usize,
}

/// Nearest-rank percentile of `sorted` (ascending). `None` when empty.
pub fn percentile(sorted: &[f64], pct: f64) -> Option<Quantile> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    // The epsilon keeps binary rounding of `pct` (99.9) from adding a rank.
    let rank = (pct / 100.0 * n as f64 - 1e-9).ceil().clamp(1.0, n as f64) as usize;
    Some(Quantile {
        pct,
        value: sorted[rank - 1],
        beyond: n - rank,
        n,
    })
}

/// The named percentile, or an error naming the shortfall when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn supported(sorted: &[f64], pct: f64) -> Result<Quantile, String> {
    match percentile(sorted, pct) {
        Some(q) if q.beyond >= MIN_BEYOND => Ok(q),
        Some(q) => Err(format!(
            "p{pct} has {} samples beyond it of {} (needs {MIN_BEYOND})",
            q.beyond, q.n
        )),
        None => Err(format!("p{pct} of an empty sample set")),
    }
}

/// The highest of [`TAIL_CANDIDATES`] with at least [`MIN_BEYOND`]
/// samples beyond it.
pub fn tail(sorted: &[f64]) -> Option<Quantile> {
    TAIL_CANDIDATES
        .iter()
        .filter_map(|&p| percentile(sorted, p))
        .find(|q| q.beyond >= MIN_BEYOND)
}

/// Sorts a copy of `values` ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle pair for even counts); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `p50=… pNN=… (n=…, …beyond)` for a human-readable report line.
pub fn describe(sorted: &[f64]) -> String {
    match (percentile(sorted, 50.0), tail(sorted)) {
        (Some(p50), Some(t)) => format!(
            "p50={:.4} p{}={:.4} (n={}, {} beyond p{})",
            p50.value, t.pct, t.value, t.n, t.beyond, t.pct
        ),
        (Some(p50), None) => format!("p50={:.4} (n={}, no supported tail)", p50.value, p50.n),
        _ => "no samples".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_counts_samples_beyond() {
        let q = percentile(&ramp(101), 90.0).unwrap();
        assert_eq!((q.value, q.beyond, q.n), (91.0, 10, 101));
        let q = percentile(&ramp(100), 90.0).unwrap();
        assert_eq!((q.value, q.beyond), (90.0, 10));
        let q = percentile(&ramp(1), 99.0).unwrap();
        assert_eq!((q.value, q.beyond), (1.0, 0));
        assert!(percentile(&[], 50.0).is_none());
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        // 99 samples: p90 leaves 9 beyond, so the rule falls back to p50.
        assert_eq!(tail(&ramp(99)).unwrap().pct, 50.0);
        assert_eq!(tail(&ramp(100)).unwrap().pct, 90.0);
        assert_eq!(tail(&ramp(999)).unwrap().pct, 90.0);
        let q = tail(&ramp(1000)).unwrap();
        assert_eq!((q.pct, q.beyond, q.n), (99.0, 10, 1000));
        assert_eq!(tail(&ramp(10_000)).unwrap().pct, 99.9);
        // Fewer than 20 samples: not even the median has 10 beyond it.
        assert!(tail(&ramp(19)).is_none());
        assert_eq!(tail(&ramp(20)).unwrap().pct, 50.0);
    }

    #[test]
    fn supported_refuses_thin_tails_and_describe_prints_counts() {
        assert!(supported(&ramp(99), 90.0).is_err());
        assert_eq!(supported(&ramp(100), 90.0).unwrap().value, 90.0);
        let line = describe(&ramp(1000));
        assert!(line.contains("p99=990.0000"), "{line}");
        assert!(line.contains("n=1000, 10 beyond p99"), "{line}");
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
