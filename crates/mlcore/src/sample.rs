//! Balanced sampling of training examples (Section 4.3 of the paper).
//!
//! PerfXplain samples the training pairs related to the current query both to
//! keep explanation generation fast and to balance the number of pairs that
//! performed *as observed* against the pairs that performed *as expected*.
//! A training example labelled `observed` is kept with probability
//! `m / (2 * |observed|)` and an example labelled `expected` with probability
//! `m / (2 * |expected|)`, so the expected sample size is `m` with roughly
//! `m/2` examples of each class.

use rand::rngs::StdRng;
use rand::RngExt;
use rand::SeedableRng;

/// Summary statistics of a drawn sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BalanceStats {
    /// Number of positive (observed) examples in the sample.
    pub positive: usize,
    /// Number of negative (expected) examples in the sample.
    pub negative: usize,
}

impl BalanceStats {
    /// Total sample size.
    pub fn total(&self) -> usize {
        self.positive + self.negative
    }
}

/// Draws a balanced sample over `labels` (where `true` = performed as
/// observed) targeting `target_size` examples in expectation.
///
/// Returns the selected indices (in their original order) together with the
/// achieved class counts.  When one of the classes is empty, only the other
/// class is sampled — the caller decides whether that is acceptable.  When a
/// class has at most `target_size / 2` members, every member of that class is
/// kept (the keep probability saturates at 1).
pub fn balanced_sample(
    labels: &[bool],
    target_size: usize,
    seed: u64,
) -> (Vec<usize>, BalanceStats) {
    let positives = labels.iter().filter(|&&l| l).count();
    let negatives = labels.len() - positives;
    let half = target_size as f64 / 2.0;
    let p_pos = if positives == 0 {
        0.0
    } else {
        (half / positives as f64).min(1.0)
    };
    let p_neg = if negatives == 0 {
        0.0
    } else {
        (half / negatives as f64).min(1.0)
    };

    let mut rng = StdRng::seed_from_u64(seed);
    let mut selected = Vec::with_capacity(target_size.min(labels.len()));
    let mut stats = BalanceStats {
        positive: 0,
        negative: 0,
    };
    for (i, &label) in labels.iter().enumerate() {
        let keep_probability = if label { p_pos } else { p_neg };
        if keep_probability >= 1.0 || rng.random::<f64>() < keep_probability {
            if label {
                stats.positive += 1;
            } else {
                stats.negative += 1;
            }
            selected.push(i);
        }
    }
    (selected, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels(positive: usize, negative: usize) -> Vec<bool> {
        let mut v = vec![true; positive];
        v.extend(vec![false; negative]);
        v
    }

    #[test]
    fn heavily_skewed_input_becomes_roughly_balanced() {
        let labels = labels(9_900, 100);
        let (selected, stats) = balanced_sample(&labels, 2_000, 1);
        // All 100 negatives should be kept (keep probability saturates at 1).
        assert_eq!(stats.negative, 100);
        // Expected positives ~= 1000; allow generous slack for randomness.
        assert!(stats.positive > 800 && stats.positive < 1_200, "{stats:?}");
        assert_eq!(selected.len(), stats.total());
        // Indices must be unique and sorted since we scan in order.
        assert!(selected.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn sample_size_close_to_target_for_balanced_input() {
        let labels = labels(5_000, 5_000);
        let (_, stats) = balanced_sample(&labels, 2_000, 7);
        let total = stats.total() as f64;
        assert!((total - 2_000.0).abs() < 300.0, "total = {total}");
        assert!((stats.positive as f64 / total - 0.5).abs() < 0.1);
    }

    #[test]
    fn small_classes_are_fully_kept() {
        let labels = labels(10, 12);
        let (selected, stats) = balanced_sample(&labels, 2_000, 3);
        assert_eq!(stats.positive, 10);
        assert_eq!(stats.negative, 12);
        assert_eq!(selected.len(), 22);
    }

    #[test]
    fn empty_class_yields_single_class_sample() {
        let labels = labels(50, 0);
        let (_, stats) = balanced_sample(&labels, 20, 9);
        assert_eq!(stats.negative, 0);
        assert!(stats.positive > 0);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let labels = labels(1_000, 1_000);
        let (a, _) = balanced_sample(&labels, 200, 42);
        let (b, _) = balanced_sample(&labels, 200, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_input_is_fine() {
        let (selected, stats) = balanced_sample(&[], 100, 0);
        assert!(selected.is_empty());
        assert_eq!(stats.total(), 0);
    }
}
