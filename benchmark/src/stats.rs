//! Order statistics used by every metric: medians, percentiles that
//! refuse to over-read small samples, and the quartile spread the
//! repeat check compares against a metric's bound.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice: a metric without samples is a harness bug.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Samples a percentile needs strictly beyond it before it may be reported
/// (choosing-metrics: "the highest percentile that has at least ten
/// samples beyond it").
pub const SAMPLES_BEYOND: usize = 10;

/// The `p`-th percentile (nearest rank), or `None` when fewer than
/// [`SAMPLES_BEYOND`] samples lie strictly above that rank — a p90 of 40
/// samples would be read off four values, so it is refused.
pub fn percentile(values: &[f64], p: u32) -> Option<f64> {
    assert!((1..100).contains(&p), "percentile must be in 1..100");
    let n = values.len();
    let rank = (n * p as usize).div_ceil(100).max(1);
    if n < rank + SAMPLES_BEYOND {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// First and third quartile by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method), which is what
/// the acceptance driver uses.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |q: usize| {
        let pos = q * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median: the steadiness
/// figure each end-to-end metric must keep inside its bound.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// Geometric mean of strictly positive ratios.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of no samples");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90), Some(90.0));
        // 99 samples: rank 90, only nine beyond.
        assert_eq!(percentile(&v[..99], 90), None);
        assert_eq!(percentile(&v[..40], 90), None);
        // The median of 21 samples has exactly ten beyond it.
        assert_eq!(percentile(&v[..21], 50), Some(11.0));
        assert_eq!(percentile(&v[..20], 50), Some(10.0));
        assert_eq!(percentile(&v[..19], 50), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), (1.0, 4.0));
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[0.5, 2.0]) - 1.0).abs() < 1e-12);
        assert!((geomean(&[0.25, 0.25]) - 0.25).abs() < 1e-12);
    }
}
