//! Order statistics, computed the way Python's `statistics` module
//! computes them so that numbers printed here match a reader's check.

/// Median (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let s = sorted(values);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile, by the "exclusive" method
/// of `statistics.quantiles(values, n=4)`.
///
/// # Panics
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of no values");
    let s = sorted(values);
    let ld = s.len() as i64;
    if ld == 1 {
        return [s[0]; 3];
    }
    let n = 4i64;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, q) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = i * m - j * n;
        *q = (s[(j - 1) as usize] * (n - delta) as f64 + s[j as usize] * delta as f64) / n as f64;
    }
    out
}

/// Nearest-rank percentile: the smallest sample with at least a share
/// `q` of the samples at or below it, so that `n·(1 − q)` lie beyond it.
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no values");
    let s = sorted(values);
    // The slack keeps a product such as 0.9 · 100 from rounding up a rank.
    let rank = (q * s.len() as f64 - 1e-9).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Distance between the quartiles as a share of the median's magnitude.
pub fn relative_spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    let m = median(values).abs();
    if m == 0.0 {
        if q3 == q1 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (q3 - q1) / m
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_statistics() {
        // statistics.median / statistics.quantiles(v, n=4) on the same data.
        let v = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0];
        assert_eq!(median(&v), 3.5);
        assert_eq!(quartiles(&v), [1.75, 3.5, 5.25]);
        let odd = [10.0, 20.0, 30.0];
        assert_eq!(quartiles(&odd), [10.0, 20.0, 30.0]);
        let two = [1.0, 2.0];
        assert_eq!(quartiles(&two), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 0.75), 75.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
    }

    #[test]
    fn spread_is_relative_to_the_median() {
        let v = [90.0, 100.0, 100.0, 110.0];
        let [q1, _, q3] = quartiles(&v);
        assert!((relative_spread(&v) - (q3 - q1) / 100.0).abs() < 1e-12);
        assert_eq!(relative_spread(&[0.0, 0.0]), 0.0);
    }
}
