//! Order statistics used by the benchmark's reports.

/// Nearest-rank percentile of ascending `sorted` samples: the smallest
/// sample with at least `pct` percent of all samples at or below it.
///
/// Integer arithmetic keeps the rank exact (`0.9 * n` in floating point
/// can land one rank high).  At 100 samples, `pct = 90` picks the 90th
/// sample and leaves ten beyond it, the fewest a tail percentile may rest
/// on.
///
/// # Panics
///
/// Panics on an empty slice or `pct` above 100.
pub fn percentile(sorted: &[u64], pct: u64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(pct <= 100, "percentile {pct} out of range");
    let n = sorted.len() as u64;
    let rank = (pct * n).div_ceil(100).max(1);
    sorted[(rank - 1) as usize]
}

/// Quartiles of `values` by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so the noise mode reports the
/// same spread as a script reading the results would.
///
/// # Panics
///
/// Panics with fewer than two values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let m = data.len() + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, data.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let mid = data.len() / 2;
    if data.len() % 2 == 1 {
        data[mid]
    } else {
        (data[mid - 1] + data[mid]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was measured (keeps reports finite).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_of_100_samples_leaves_ten_beyond() {
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&samples, 90), 90);
        assert_eq!(samples.iter().filter(|&&s| s > 90).count(), 10);
        assert_eq!(percentile(&samples, 50), 50);
        assert_eq!(percentile(&samples, 100), 100);
        assert_eq!(percentile(&samples, 0), 1);
    }

    #[test]
    fn percentile_rank_is_exact_for_whole_rounds() {
        // 31 pairs x 1000 rounds: p90 must sit at rank 27,900, not one
        // above it through floating-point rounding.
        let samples: Vec<u64> = (1..=31_000).collect();
        assert_eq!(percentile(&samples, 90), 27_900);
        assert_eq!(percentile(&samples, 50), 15_500);
        assert_eq!(percentile(&[7], 90), 7);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn median_and_ratio() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
