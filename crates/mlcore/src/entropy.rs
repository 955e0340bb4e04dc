//! Entropy and information gain.
//!
//! Algorithm 1 of the paper selects, for every feature, the predicate with
//! the highest *information gain*, defined as `H(P) - H(P | φ)` where `P` is
//! the current set of training pairs and `φ` is the candidate predicate.  The
//! conditional entropy is the size-weighted average of the entropies of the
//! two partitions that `φ` induces (the pairs that satisfy it and the pairs
//! that do not), exactly as in C4.5.

/// Binary entropy of a class distribution with positive fraction `p`
/// (in bits).  `H(0) = H(1) = 0` by convention.
pub fn binary_entropy(p: f64) -> f64 {
    if !(0.0..=1.0).contains(&p) {
        panic!("binary_entropy: p = {p} is outside [0, 1]");
    }
    if p <= 0.0 || p >= 1.0 {
        return 0.0;
    }
    -(p * p.log2() + (1.0 - p) * (1.0 - p).log2())
}

/// Entropy (in bits) of a set with `positive` positive and `negative`
/// negative members.  Empty sets have zero entropy.
pub fn entropy_of_counts(positive: usize, negative: usize) -> f64 {
    let n = positive + negative;
    if n == 0 {
        return 0.0;
    }
    binary_entropy(positive as f64 / n as f64)
}

/// Class counts of a partition cell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CellCounts {
    /// Number of positive (label = true) instances in the cell.
    pub positive: usize,
    /// Number of negative (label = false) instances in the cell.
    pub negative: usize,
}

impl CellCounts {
    /// Total number of instances in the cell.
    pub fn total(&self) -> usize {
        self.positive + self.negative
    }

    /// Entropy of the cell.
    pub fn entropy(&self) -> f64 {
        entropy_of_counts(self.positive, self.negative)
    }

    /// Counts one instance with the given label.
    pub fn record(&mut self, label: bool) {
        if label {
            self.positive += 1;
        } else {
            self.negative += 1;
        }
    }

    /// Element-wise sum — running prefix counts in the split sweep.
    pub fn plus(self, other: CellCounts) -> CellCounts {
        CellCounts {
            positive: self.positive + other.positive,
            negative: self.negative + other.negative,
        }
    }

    /// Element-wise difference; `other` must be a sub-cell of `self` (the
    /// sweep only ever subtracts a prefix from its own total).
    pub fn minus(self, other: CellCounts) -> CellCounts {
        CellCounts {
            positive: self.positive - other.positive,
            negative: self.negative - other.negative,
        }
    }
}

/// Information gain of splitting a set into the two cells `inside` (instances
/// satisfying the predicate) and `outside` (instances not satisfying it).
///
/// Returns 0.0 when the overall set is empty.
pub fn information_gain(inside: CellCounts, outside: CellCounts) -> f64 {
    GainScorer::new(inside.plus(outside)).gain(inside)
}

/// The information gain of any split of one set, with the set's own
/// entropy computed once instead of per split.  [`information_gain`] is
/// one scorer's one split, so both give the same bits.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GainScorer {
    total: CellCounts,
    parent: f64,
}

impl GainScorer {
    pub(crate) fn new(total: CellCounts) -> Self {
        GainScorer {
            total,
            parent: total.entropy(),
        }
    }

    /// The gain of splitting the set into `inside` and the rest.
    pub(crate) fn gain(&self, inside: CellCounts) -> f64 {
        let total = self.total.total();
        if total == 0 {
            return 0.0;
        }
        let outside = self.total.minus(inside);
        let weighted = (inside.total() as f64 / total as f64) * inside.entropy()
            + (outside.total() as f64 / total as f64) * outside.entropy();
        // Clamp tiny negative values caused by floating-point rounding.
        (self.parent - weighted).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entropy_extremes_are_zero() {
        assert_eq!(binary_entropy(0.0), 0.0);
        assert_eq!(binary_entropy(1.0), 0.0);
    }

    #[test]
    fn entropy_is_maximal_at_half() {
        assert!((binary_entropy(0.5) - 1.0).abs() < 1e-12);
        assert!(binary_entropy(0.3) < 1.0);
        assert!(binary_entropy(0.3) > 0.0);
    }

    #[test]
    fn entropy_is_symmetric() {
        for p in [0.1, 0.25, 0.4] {
            assert!((binary_entropy(p) - binary_entropy(1.0 - p)).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn entropy_rejects_out_of_range() {
        binary_entropy(1.5);
    }

    #[test]
    fn paper_example_figure2() {
        // Figure 2 of the paper: 10 examples, 6 positive => H ~= 0.97.
        let h = entropy_of_counts(6, 4);
        assert!((h - 0.9709505944546686).abs() < 1e-9);

        // Predicate A separates perfectly except one mixed side: grey side
        // holds all 6 positives and 0 negatives, white side 0/4 => gain = H.
        let gain_perfect = information_gain(
            CellCounts {
                positive: 6,
                negative: 0,
            },
            CellCounts {
                positive: 0,
                negative: 4,
            },
        );
        assert!((gain_perfect - h).abs() < 1e-9);

        // Predicate B splits without changing the class mixture => gain 0.
        let gain_useless = information_gain(
            CellCounts {
                positive: 3,
                negative: 2,
            },
            CellCounts {
                positive: 3,
                negative: 2,
            },
        );
        assert!(gain_useless.abs() < 1e-9);
    }

    #[test]
    fn gain_of_empty_set_is_zero() {
        assert_eq!(
            information_gain(CellCounts::default(), CellCounts::default()),
            0.0
        );
    }

    #[test]
    fn gain_is_never_negative() {
        let combos = [
            (
                CellCounts {
                    positive: 1,
                    negative: 5,
                },
                CellCounts {
                    positive: 5,
                    negative: 1,
                },
            ),
            (
                CellCounts {
                    positive: 2,
                    negative: 2,
                },
                CellCounts {
                    positive: 2,
                    negative: 2,
                },
            ),
            (
                CellCounts {
                    positive: 0,
                    negative: 7,
                },
                CellCounts {
                    positive: 7,
                    negative: 0,
                },
            ),
        ];
        for (a, b) in combos {
            assert!(information_gain(a, b) >= 0.0);
        }
    }
}
