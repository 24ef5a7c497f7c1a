//! Order statistics and the metric-name rule every reported name obeys.

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of the samples at or below it. `p` is clamped to `[0, 100]`; an empty
/// slice gives NaN.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p.clamp(0.0, 100.0) / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Median; the mean of the two middle samples for an even count, NaN for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
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

/// `total / count`, or 0 when nothing was counted.
pub fn ratio(total: f64, count: f64) -> f64 {
    if count > 0.0 {
        total / count
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // Order of the input does not matter.
        let rev: Vec<f64> = v.iter().rev().copied().collect();
        assert_eq!(percentile(&rev, 99.0), 99.0);
        // 1,671 ticks: p99 is rank 1,655, leaving 16 samples beyond it.
        let ticks: Vec<f64> = (1..=1671).map(f64::from).collect();
        let p99 = percentile(&ticks, 99.0);
        assert_eq!(p99, 1655.0);
        assert!(ticks.iter().filter(|t| **t > p99).count() >= 10);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn medians_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(10.0, 4.0), 2.5);
        assert_eq!(ratio(10.0, 0.0), 0.0);
    }
}
