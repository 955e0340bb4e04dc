//! Percentiles and quartiles.
//!
//! A latency percentile is reported only when at least [`BEYOND`] samples
//! lie above it (nearest-rank), so a p90 needs 100 samples and a median 20;
//! fewer and the number would be one or two outliers.  Quartiles follow
//! Python's `statistics.quantiles(values, n=4)` (the "exclusive" method),
//! the definition run-to-run spreads are judged by.

/// Samples that must lie above a reported percentile.
pub const BEYOND: usize = 10;

/// Samples a run needs before its p90 can be reported.
pub const P90_SAMPLES: usize = BEYOND * 10;

/// The nearest-rank `p`-quantile (`0 < p <= 1`) of `values`, or `None` when
/// fewer than [`BEYOND`] samples lie beyond it.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len().max(1));
    if sorted.len() < rank + BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// The nearest-rank `p`-quantile without the [`BEYOND`] rule, for internal
/// decisions on small samples (never reported as a metric).
pub fn rank_value(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The middle value (mean of the two middle values for even counts), as
/// Python's `statistics.median`.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First and third quartiles as `statistics.quantiles(values, n=4)`
/// computes them (needs at least two values).
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len() as i64;
    let cut = |i: i64| {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        (data[j as usize - 1] * (4.0 - delta) + data[j as usize] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Mean, or NaN for no values.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank_with_ten_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.5), Some(50.0));
        assert_eq!(percentile(&hundred, 0.9), Some(90.0));
        // p99 has only one sample beyond it.
        assert_eq!(percentile(&hundred, 0.99), None);
        // A median needs twenty samples; a p90 a hundred.
        let nineteen: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(percentile(&nineteen, 0.5), None);
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&twenty, 0.5), Some(10.0));
        let ninety_nine: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&ninety_nine, 0.9), None);
        assert_eq!(percentile(&[], 0.5), None);
        // Order of the input does not matter.
        let mut shuffled = hundred.clone();
        shuffled.reverse();
        assert_eq!(percentile(&shuffled, 0.9), Some(90.0));
        assert_eq!(rank_value(&[3.0, 1.0, 2.0], 0.9), 3.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 4.5));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
    }
}
