//! Order statistics: medians, quartiles and tail percentiles.

/// The median of `values` (the mean of the middle pair for even counts).
///
/// # Panics
/// Panics on an empty slice or a NaN sample.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First and third quartiles, placed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// places them, so the spreads printed by `--repeat` are the ones an
/// outside checker computes. A single sample is its own quartiles.
///
/// # Panics
/// Panics on an empty slice or a NaN sample.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let data = sorted(values);
    let ld = data.len();
    if ld == 1 {
        return (data[0], data[0]);
    }
    let n = 4i64;
    let m = ld as i64 + 1;
    let cut = |i: i64| {
        let j = (i * m / n).clamp(1, ld as i64 - 1);
        // Negative for tiny samples: Python then extrapolates too.
        let delta = (i * m - j * n) as f64;
        let j = j as usize;
        (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
    };
    (cut(1), cut(3))
}

/// The tail percentiles a report may quote, highest first.
const TAIL_PERCENTILES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// The highest percentile in [`TAIL_PERCENTILES`] that leaves at least
/// ten of `n` samples beyond it, or `None` when even p75 does not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_PERCENTILES
        .into_iter()
        .find(|p| n as f64 * (100.0 - p) / 100.0 >= 10.0 - 1e-9)
}

/// The nearest-rank `p`-th percentile of `values`.
///
/// # Panics
/// Panics on an empty slice, a NaN sample or `p` outside `0..=100`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    let sorted = sorted(values);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "order statistic of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        // statistics.quantiles([5, 1, 3, 2, 4], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0, 2.0, 4.0]), (1.5, 4.5));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(39), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 50.0), 50.0);
        assert_eq!(percentile(&hundred, 99.0), 99.0);
        assert_eq!(percentile(&hundred, 100.0), 100.0);
        assert_eq!(percentile(&hundred, 0.0), 1.0);
        assert_eq!(percentile(&[4.0], 95.0), 4.0);
    }
}
