//! Small statistics helpers: mean, standard deviation and the percentile-rank
//! normalisation used by `normalizeScore` in Algorithm 1.
//!
//! The paper explains that raw generality scores tend to be much smaller than
//! raw precision scores (especially as explanations grow wider), so before
//! combining the two with the 0.8/0.2 weighting it replaces each raw score by
//! its *percentile rank* among the candidate predicates of the current
//! iteration.

/// Arithmetic mean; 0.0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Sample standard deviation (n-1 denominator); 0.0 for fewer than two
/// values.
pub fn stddev(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    let var = values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / (values.len() - 1) as f64;
    var.sqrt()
}

/// Replaces every value with its percentile rank in `[0, 1]` among the input
/// values (mid-rank for ties).  A single value maps to 1.0; an empty input
/// yields an empty output.
///
/// This is the `normalizeScore` transformation of Algorithm 1: the absolute
/// magnitudes of precision and generality stop mattering, only how a
/// candidate ranks against the other candidates of the same iteration.
pub fn percentile_ranks(values: &[f64]) -> Vec<f64> {
    let n = values.len();
    if n == 0 {
        return Vec::new();
    }
    if n == 1 {
        return vec![1.0];
    }
    values
        .iter()
        .map(|&v| {
            let below = values.iter().filter(|&&o| o < v).count() as f64;
            let equal = values
                .iter()
                .filter(|&&o| (o - v).abs() <= f64::EPSILON)
                .count() as f64;
            // Mid-rank for ties, scaled to [0, 1].
            (below + 0.5 * equal) / n as f64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_stddev_basics() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(stddev(&[5.0]), 0.0);
        assert!((stddev(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]) - 2.138089935).abs() < 1e-6);
    }

    #[test]
    fn percentile_ranks_preserve_order() {
        let ranks = percentile_ranks(&[0.9, 0.1, 0.5]);
        assert!(ranks[0] > ranks[2] && ranks[2] > ranks[1]);
        assert!(ranks.iter().all(|r| (0.0..=1.0).contains(r)));
    }

    #[test]
    fn percentile_ranks_handle_ties() {
        let ranks = percentile_ranks(&[0.5, 0.5, 0.5, 0.5]);
        assert!(ranks.iter().all(|&r| (r - 0.5).abs() < 1e-12));
    }

    #[test]
    fn percentile_ranks_edge_cases() {
        assert!(percentile_ranks(&[]).is_empty());
        assert_eq!(percentile_ranks(&[0.3]), vec![1.0]);
    }

    #[test]
    fn normalisation_equalises_scales() {
        // Precision-like scores near 1.0 and generality-like scores near 0.01
        // become comparable after rank normalisation.
        let precisions = [0.99, 0.95, 0.90];
        let generalities = [0.01, 0.02, 0.03];
        let p_ranks = percentile_ranks(&precisions);
        let g_ranks = percentile_ranks(&generalities);
        // The best generality now scores as high as the best precision.
        let best_p = p_ranks.iter().cloned().fold(f64::MIN, f64::max);
        let best_g = g_ranks.iter().cloned().fold(f64::MIN, f64::max);
        assert!((best_p - best_g).abs() < 1e-12);
    }
}
