//! Order statistics and the log-log fit the benchmark reports.

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Python's `statistics.quantiles(values, n=4)` (the default
/// "exclusive" method): the three cut points `[q1, median, q3]`,
/// interpolated at 1-based positions `(len + 1) · i / 4`, with the
/// same clamping (and so the same extrapolation on tiny samples).
///
/// # Panics
///
/// Panics if `values` is empty.
#[must_use]
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld == 1 {
        return [v[0]; 3];
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        #[allow(clippy::cast_precision_loss)]
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    [cut(1), cut(2), cut(3)]
}

/// The median (the middle cut of [`quartiles`]).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// Nearest-rank `q`-quantile of `values`: the smallest sample with at
/// least a `q` share of the samples at or below it.
///
/// # Panics
///
/// Panics if `values` is empty.
#[must_use]
fn nearest_rank(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), q).clamp(1, v.len()) - 1]
}

/// [`nearest_rank`], or `None` when fewer than [`MIN_BEYOND`] samples
/// lie beyond it, so a reported tail always has ten samples behind it.
#[must_use]
pub fn tail_percentile(values: &[f64], q: f64) -> Option<f64> {
    let r = rank(values.len(), q);
    (r >= 1 && values.len() - r.min(values.len()) >= MIN_BEYOND).then(|| nearest_rank(values, q))
}

/// The 1-based nearest rank of the `q`-quantile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )]
    let r = (q * n as f64).ceil() as usize;
    r
}

/// Least-squares slope of `ln y` against `ln x` shared by several
/// groups, each with its own intercept (the pooled within-group slope).
/// Points with a non-positive coordinate are dropped. `None` when no
/// group keeps two distinct `x`.
#[must_use]
pub fn loglog_slope(groups: &[Vec<(f64, f64)>]) -> Option<f64> {
    let (mut sxx, mut sxy) = (0.0, 0.0);
    for points in groups {
        let pts: Vec<(f64, f64)> = points
            .iter()
            .filter(|(x, y)| *x > 0.0 && *y > 0.0)
            .map(|(x, y)| (x.ln(), y.ln()))
            .collect();
        if pts.is_empty() {
            continue;
        }
        #[allow(clippy::cast_precision_loss)]
        let n = pts.len() as f64;
        let mx = pts.iter().map(|p| p.0).sum::<f64>() / n;
        let my = pts.iter().map(|p| p.1).sum::<f64>() / n;
        sxx += pts.iter().map(|p| (p.0 - mx).powi(2)).sum::<f64>();
        sxy += pts.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum::<f64>();
    }
    (sxx > 1e-12).then(|| sxy / sxx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // A single sample is every quantile.
        assert_eq!(quartiles(&[7.0]), [7.0, 7.0, 7.0]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // Nearest rank 90 of 100: samples 91..=100 lie beyond it.
        assert_eq!(tail_percentile(&v, 0.9), Some(90.0));
        assert_eq!(tail_percentile(&v[..99], 0.9), None);
        // The median only needs twenty samples.
        assert_eq!(tail_percentile(&v[..20], 0.5), Some(10.0));
        assert_eq!(tail_percentile(&v[..19], 0.5), None);
        assert_eq!(tail_percentile(&[], 0.5), None);
        // Without the rule: the 10th percentile of 25 samples is the 3rd.
        assert_eq!(nearest_rank(&v[..25], 0.1), 3.0);
        assert_eq!(nearest_rank(&[4.0, 2.0], 0.1), 2.0);
        // Order does not matter.
        let mut rev = v.clone();
        rev.reverse();
        assert_eq!(tail_percentile(&rev, 0.9), Some(90.0));
    }

    #[test]
    fn loglog_slope_recovers_known_exponents() {
        let quad: Vec<(f64, f64)> = [4.0, 16.0, 64.0, 256.0]
            .iter()
            .map(|&x| (x, 3.0 * x * x))
            .collect();
        assert!((loglog_slope(std::slice::from_ref(&quad)).unwrap() - 2.0).abs() < 1e-9);
        let lin: Vec<(f64, f64)> = (1..=8)
            .map(|i| (f64::from(i), 0.5 * f64::from(i)))
            .collect();
        assert!((loglog_slope(&[lin]).unwrap() - 1.0).abs() < 1e-9);
        // Two families with the same exponent and very different
        // constants: pooling them naively would flatten the slope.
        let cheap: Vec<(f64, f64)> = [100.0, 1000.0, 10000.0]
            .iter()
            .map(|&x| (x, 1e-6 * x * x))
            .collect();
        assert!((loglog_slope(&[quad, cheap]).unwrap() - 2.0).abs() < 1e-9);
        // One distinct x per group (or nothing usable) has no slope.
        assert_eq!(
            loglog_slope(&[vec![(5.0, 1.0), (5.0, 2.0)], vec![(7.0, 1.0)]]),
            None
        );
        assert_eq!(loglog_slope(&[vec![(0.0, 1.0), (4.0, 0.0)]]), None);
    }
}
