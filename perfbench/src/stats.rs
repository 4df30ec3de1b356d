//! Percentiles under the ten-beyond rule, and plain medians.

/// A percentile is reported only when at least this many samples lie
/// beyond it, so one outlier cannot set it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank position (1-based) of the `pct`-th percentile among `n`
/// samples: the smallest rank with at least `pct`% of samples at or below
/// it. Integer arithmetic, so `p90` of 100 samples is rank 90 exactly.
fn rank(n: usize, pct: usize) -> usize {
    (pct * n).div_ceil(100).max(1)
}

/// Samples strictly beyond the `pct`-th percentile of `n` samples.
pub fn beyond(n: usize, pct: usize) -> usize {
    n - rank(n, pct).min(n)
}

/// The fewest samples for which the `pct`-th percentile has
/// [`MIN_BEYOND`] samples beyond it.
pub fn min_samples(pct: usize) -> usize {
    (1..)
        .find(|&n| beyond(n, pct) >= MIN_BEYOND)
        .expect("unbounded search")
}

/// The `pct`-th nearest-rank percentile, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], pct: usize) -> Option<f64> {
    let n = samples.len();
    if n == 0 || beyond(n, pct) < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(n, pct) - 1])
}

/// The median (mean of the two middle values for an even count); `NaN`
/// for an empty slice. Used for repeated probes and set-up repetitions,
/// which are too few for the ten-beyond rule.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// Mean and sample standard deviation.
pub fn mean_sigma(values: &[f64]) -> (f64, f64) {
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_beyond_rule_sets_the_minimum_sample_count() {
        assert_eq!(min_samples(50), 20);
        assert_eq!(min_samples(90), 100);
        let s: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&s, 90), None, "99 samples leave 9 beyond p90");
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 90), Some(90.0));
        assert_eq!(percentile(&s[..19], 50), None);
        assert_eq!(percentile(&s[..20], 50), Some(10.0));
    }

    #[test]
    fn percentile_is_nearest_rank_on_unsorted_input() {
        let mut s: Vec<f64> = (1..=200).map(f64::from).collect();
        s.reverse();
        assert_eq!(percentile(&s, 50), Some(100.0));
        assert_eq!(percentile(&s, 90), Some(180.0));
        // 101 samples: rank ceil(90.9) = 91, ten beyond.
        let s: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&s, 90), Some(91.0));
        assert_eq!(beyond(101, 90), 10);
    }

    #[test]
    fn median_and_moments() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        let (m, s) = mean_sigma(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m, 2.5);
        assert!((s - (5.0f64 / 3.0).sqrt()).abs() < 1e-15);
    }
}
