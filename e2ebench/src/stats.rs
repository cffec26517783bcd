//! Order statistics: the nearest-rank percentile the run reports, and the
//! median and quartiles (`statistics.quantiles(values, n=4)`, exclusive
//! method) that `compare` uses across runs.

/// Sorts a copy of `values`, treating NaN as a programming error.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("benchmark samples are never NaN"));
    v
}

/// The 1-based nearest rank of percentile `p` (0 < p ≤ 100) among `n`
/// samples: `ceil(p/100 · n)`.
pub fn nearest_rank(p: f64, n: usize) -> usize {
    (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// The nearest-rank percentile `p` of `values`, or `None` when empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    Some(sorted(values)[nearest_rank(p, values.len()) - 1])
}

/// How many of `n` samples lie above the nearest-rank percentile `p`: a
/// tail percentile is worth reporting only when this is at least ten.
pub fn samples_beyond(p: f64, n: usize) -> usize {
    if n == 0 {
        return 0;
    }
    n - nearest_rank(p, n)
}

/// The median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartile as Python's `statistics.quantiles(values,
/// n=4)` computes them (the default, exclusive method, which extrapolates
/// for fewer than three values). A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        1 => Some((v[0], v[0])),
        _ => {
            let m = n as i64 + 1;
            let cut = |i: i64| {
                let j = (i * m / 4).clamp(1, n as i64 - 1);
                let delta = (i * m - j * 4) as f64;
                let j = j as usize;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            Some((cut(1), cut(3)))
        }
    }
}

/// The interquartile range as a share of the median.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile_and_tail_count() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 50.0), Some(50.0));
        assert_eq!(percentile(&values, 90.0), Some(90.0));
        assert_eq!(percentile(&values, 95.0), Some(95.0));
        assert_eq!(samples_beyond(90.0, 100), 10);
        assert_eq!(samples_beyond(95.0, 100), 5);
        assert_eq!(samples_beyond(90.0, 0), 0);
        // Nearest rank never interpolates: p50 of four values is the 2nd.
        assert_eq!(percentile(&[4.0, 1.0, 3.0, 2.0], 50.0), Some(2.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        // statistics.quantiles([3, 1, 2, 5, 4], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 5.0, 4.0]), Some((1.5, 4.5)));
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), Some(2.5));
        assert_eq!(relative_spread(&values), Some((8.25 - 2.75) / 5.5));
    }
}
