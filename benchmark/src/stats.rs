//! The benchmark's arithmetic: the steady-state cut, the quantile rule,
//! and medians.

/// A tail quantile is reported only with at least this many samples
/// strictly beyond it; with fewer it would be the maximum, not a tail.
pub const MIN_BEYOND: usize = 10;

/// The steady-state window of a run's per-step times: every step after
/// the first epoch (the paper's §5 measure leaves the first epoch out).
pub fn steady(steps: &[f64], steps_per_epoch: usize) -> &[f64] {
    &steps[steps_per_epoch.min(steps.len())..]
}

/// 0-based nearest-rank index of quantile `permille`/1000 among `n`
/// sorted samples.
fn rank(n: usize, permille: usize) -> usize {
    (n * permille).div_ceil(1000).max(1) - 1
}

/// How many of `n` sorted samples lie strictly beyond the `permille`
/// nearest-rank quantile.
pub fn beyond(n: usize, permille: usize) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, permille)
    }
}

/// The `permille`/1000 nearest-rank quantile of `values`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn quantile(values: &[f64], permille: usize) -> Option<f64> {
    if beyond(values.len(), permille) < MIN_BEYOND {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), permille)])
}

/// Median (mean of the middle pair for an even count); 0 for no values.
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

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_cut_drops_exactly_the_first_epoch() {
        let steps: Vec<f64> = (0..12).map(f64::from).collect();
        assert_eq!(steady(&steps, 4), &steps[4..]);
        assert_eq!(steady(&steps, 4)[0], 4.0);
        // A run shorter than one epoch has no steady steps.
        assert!(steady(&steps[..3], 4).is_empty());
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let ramp = |n: usize| (1..=n).map(|v| v as f64).collect::<Vec<_>>();
        assert_eq!(beyond(100, 900), 10);
        assert_eq!(beyond(99, 900), 9);
        assert_eq!(quantile(&ramp(99), 900), None);
        assert_eq!(quantile(&ramp(100), 900), Some(90.0));
        // The median of 20 samples has 10 beyond it; of 19, only 9.
        assert_eq!(quantile(&ramp(20), 500), Some(10.0));
        assert_eq!(quantile(&ramp(19), 500), None);
        // p99 would need a thousand steps.
        assert_eq!(quantile(&ramp(999), 990), None);
        assert_eq!(quantile(&ramp(1000), 990), Some(990.0));
    }

    #[test]
    fn quantile_ignores_input_order() {
        let mut v: Vec<f64> = (1..=200).map(|v| v as f64).collect();
        v.reverse();
        assert_eq!(quantile(&v, 900), Some(180.0));
        assert_eq!(quantile(&v, 500), Some(100.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
