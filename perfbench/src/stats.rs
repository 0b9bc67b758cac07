//! Order statistics over per-repetition samples.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics if `xs` is empty or holds a NaN.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The `p` quantile of `xs` (0 <= p <= 1), interpolated linearly
/// between the order statistics around position `p * (n - 1)` (NumPy's
/// default rule): 0 gives the minimum, 0.5 the median, 1 the maximum.
///
/// # Panics
///
/// Panics if `xs` is empty or holds a NaN, or if `p` is outside [0, 1].
#[must_use]
pub fn quantile(xs: &[f64], p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "quantile {p} outside [0, 1]");
    let s = sorted(xs);
    let pos = p * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// First and third quartile by the same rule as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
/// the spread printed here is the spread a reader recomputes from the
/// printed samples.
///
/// # Panics
///
/// Panics if `xs` is empty or holds a NaN.
#[must_use]
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    let ld = s.len();
    if ld == 1 {
        return (s[0], s[0]);
    }
    let n = 4usize;
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        // Exact integer position: `delta / n` of the way from s[j-1] to s[j].
        let delta = (i * m) as f64 - (j * n) as f64;
        (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64
    };
    (q(1), q(3))
}

/// Interquartile range as a share of the median (0 for a zero median).
#[must_use]
pub fn relative_spread(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    let med = median(xs);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med
    }
}

/// Geometric mean of strictly positive values.
///
/// # Panics
///
/// Panics if `xs` is empty.
#[must_use]
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geometric mean of nothing");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    assert!(!xs.is_empty(), "order statistic of no samples");
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    s
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
    fn quantile_interpolates_between_order_statistics() {
        let xs: Vec<f64> = (1..=11).rev().map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 0.1), 2.0);
        assert_eq!(quantile(&xs, 0.5), median(&xs));
        assert_eq!(quantile(&xs, 1.0), 11.0);
        // numpy.quantile([1, 2, 3, 4], 0.1) == 1.3
        assert!((quantile(&[4.0, 3.0, 2.0, 1.0], 0.1) - 1.3).abs() < 1e-12);
        assert_eq!(quantile(&[5.0], 0.1), 5.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_spread(&xs) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(relative_spread(&[2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
    }
}
