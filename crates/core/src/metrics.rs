//! Explanation-quality metrics: relevance, precision and generality
//! (Definitions 4–6 of the paper).
//!
//! All three metrics are conditional probabilities estimated over the pairs
//! of the log that are *related* to the query (they satisfy the despite
//! clause and either the observed or the expected clause):
//!
//! * `Rel(E)  = P(exp | des' ∧ des)`
//! * `Pr(E)   = P(obs | bec ∧ des' ∧ des)`
//! * `Gen(E)  = P(bec | des' ∧ des)`
//!
//! Precision and generality correspond to the data-mining notions of
//! confidence and support of the because clause within the context of the
//! despite clause.
//!
//! The pairs are an [`EncodedTraining`] sample: rows of its columnar view
//! with their labels.  Each clause is compiled once against the view
//! ([`CompiledPredicate`], the evaluator that classified the pairs when they
//! were drawn) and evaluated per pair under the sample's similarity band,
//! without building a pair-feature map.  Its semantics are
//! `Predicate::eval`'s over the pairs' full feature maps, with the one
//! caveat of nominal interning (see the crate docs): two values PXQL
//! equates across types but whose canonical texts differ (`Bool(true)` and
//! the string `"true"`) in one nominal column compare unequal.

use crate::columnar::CompiledPredicate;
use crate::explanation::Explanation;
use crate::training::EncodedTraining;
use pxql::Predicate;

/// A conditional probability estimate together with the number of pairs that
/// satisfied the condition (its support).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricEstimate {
    /// The estimated probability, or `None` when no pair satisfied the
    /// condition.
    pub value: Option<f64>,
    /// How many pairs satisfied the condition.
    pub support: usize,
}

impl MetricEstimate {
    /// The estimate, or `default` when undefined.
    pub fn unwrap_or(&self, default: f64) -> f64 {
        self.value.unwrap_or(default)
    }

    /// `hits` out of `satisfied` pairs.
    fn of(hits: usize, satisfied: usize) -> Self {
        MetricEstimate {
            value: (satisfied > 0).then(|| hits as f64 / satisfied as f64),
            support: satisfied,
        }
    }
}

/// The labels of the sampled pairs of `training` that satisfy `condition`.
fn labels_satisfying<'t>(
    training: &'t EncodedTraining<'_>,
    condition: &Predicate,
) -> impl Iterator<Item = bool> + 't {
    let compiled = CompiledPredicate::compile(condition, &training.view);
    training
        .pairs
        .iter()
        .zip(training.labels.iter())
        .filter(move |&(&(left, right), _)| {
            compiled.eval(&training.view, left, right, training.sim_threshold)
        })
        .map(|(_, &observed)| observed)
}

/// Estimates `P(target | condition)` over the related pairs of `training`,
/// where the target is "performed as observed" (`target_observed = true`)
/// or "performed as expected" (`false`).
pub fn conditional_probability(
    training: &EncodedTraining<'_>,
    condition: &Predicate,
    target_observed: bool,
) -> MetricEstimate {
    let mut satisfied = 0usize;
    let mut hits = 0usize;
    for observed in labels_satisfying(training, condition) {
        satisfied += 1;
        hits += usize::from(observed == target_observed);
    }
    MetricEstimate::of(hits, satisfied)
}

/// Relevance of an explanation: `P(exp | des' ∧ des)`.  The user's `des`
/// clause is already folded into the construction of `training` (only
/// related pairs are present), so only `des'` needs to be applied here.
pub fn relevance(training: &EncodedTraining<'_>, despite_extension: &Predicate) -> MetricEstimate {
    conditional_probability(training, despite_extension, false)
}

/// Precision of an explanation: `P(obs | bec ∧ des' ∧ des)`.
pub fn precision(training: &EncodedTraining<'_>, explanation: &Explanation) -> MetricEstimate {
    let condition = explanation.despite.conjoin(&explanation.because);
    conditional_probability(training, &condition, true)
}

/// Generality of an explanation: `P(bec | des' ∧ des)`.
pub fn generality(training: &EncodedTraining<'_>, explanation: &Explanation) -> MetricEstimate {
    let in_context = labels_satisfying(training, &explanation.despite).count();
    let condition = explanation.despite.conjoin(&explanation.because);
    let satisfied = labels_satisfying(training, &condition).count();
    MetricEstimate::of(satisfied, in_context)
}

/// All three metrics of an explanation at once.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExplanationQuality {
    /// `Rel(E)`.
    pub relevance: MetricEstimate,
    /// `Pr(E)`.
    pub precision: MetricEstimate,
    /// `Gen(E)`.
    pub generality: MetricEstimate,
}

/// Scores an explanation on a set of related pairs.
pub fn assess(training: &EncodedTraining<'_>, explanation: &Explanation) -> ExplanationQuality {
    ExplanationQuality {
        relevance: relevance(training, &explanation.despite),
        precision: precision(training, explanation),
        generality: generality(training, explanation),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columnar::ColumnarLog;
    use crate::query::PairLabel;
    use crate::record::{ExecutionKind, ExecutionLog, ExecutionRecord};
    use crate::training::RelatedPair;
    use pxql::Atom;
    use std::sync::Arc;

    /// Six pairs, 3 observed / 3 expected, as twelve jobs: pair `i` is
    /// rows `2i` and `2i + 1`.  `blocksize_isSame = T` holds for all
    /// observed pairs and one expected pair, and both jobs of a pair share
    /// their `numinstances`.
    fn log() -> ExecutionLog {
        let entries = [
            (true, 150.0),
            (true, 120.0),
            (true, 100.0),
            (true, 150.0),
            (false, 10.0),
            (false, 20.0),
        ];
        let mut log = ExecutionLog::new();
        for (i, (same_block, instances)) in entries.into_iter().enumerate() {
            for (side, blocksize) in [(0, 64.0), (1, if same_block { 64.0 } else { 128.0 })] {
                log.push(
                    ExecutionRecord::job(format!("job_{i}_{side}"))
                        .with_feature("blocksize", blocksize)
                        .with_feature("numinstances", instances),
                );
            }
        }
        log.rebuild_catalogs();
        log
    }

    /// The six pairs of [`log`] as a sample: the first three performed as
    /// observed.
    fn set(log: &ExecutionLog) -> EncodedTraining<'_> {
        let view = Arc::new(ColumnarLog::build(log, ExecutionKind::Job));
        let pairs: Vec<RelatedPair> = (0..6)
            .map(|i| RelatedPair {
                left: 2 * i,
                right: 2 * i + 1,
                label: if i < 3 {
                    PairLabel::Observed
                } else {
                    PairLabel::Expected
                },
            })
            .collect();
        EncodedTraining::of_related(log, view, pairs.iter(), pairs.len(), 0.1)
    }

    #[test]
    fn precision_counts_only_condition_satisfying_pairs() {
        let log = log();
        let set = set(&log);
        let expl = Explanation::because_only(Predicate::from_atoms(vec![Atom::eq(
            "blocksize_isSame",
            true,
        )]));
        let p = precision(&set, &expl);
        // 4 pairs satisfy the because clause; 3 of them are observed.
        assert_eq!(p.support, 4);
        assert!((p.unwrap_or(0.0) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn generality_is_support_within_context() {
        let log = log();
        let set = set(&log);
        let expl = Explanation::new(
            Predicate::from_atoms(vec![Atom::new("numinstances", pxql::Op::Ge, 100i64)]),
            Predicate::from_atoms(vec![Atom::eq("blocksize_isSame", true)]),
        );
        let g = generality(&set, &expl);
        // 4 pairs satisfy the despite clause (instances >= 100); all of them
        // also satisfy the because clause.
        assert_eq!(g.support, 4);
        assert!((g.unwrap_or(0.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn relevance_measures_expected_fraction() {
        let log = log();
        let set = set(&log);
        // Restricting to small clusters makes "expected" behaviour dominant.
        let despite = Predicate::from_atoms(vec![Atom::new("numinstances", pxql::Op::Lt, 100i64)]);
        let r = relevance(&set, &despite);
        assert_eq!(r.support, 2);
        assert!((r.unwrap_or(0.0) - 1.0).abs() < 1e-12);

        // The empty despite clause has the base-rate relevance of 0.5.
        let empty = relevance(&set, &Predicate::always_true());
        assert!((empty.unwrap_or(0.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_condition_support_yields_none() {
        let log = log();
        let set = set(&log);
        let impossible = Predicate::from_atoms(vec![Atom::eq("blocksize_isSame", "MAYBE")]);
        let estimate = conditional_probability(&set, &impossible, true);
        assert_eq!(estimate.support, 0);
        assert_eq!(estimate.value, None);
        assert_eq!(estimate.unwrap_or(0.3), 0.3);
    }

    #[test]
    fn assess_bundles_all_metrics() {
        let log = log();
        let set = set(&log);
        let expl = Explanation::because_only(Predicate::from_atoms(vec![Atom::eq(
            "blocksize_isSame",
            true,
        )]));
        let quality = assess(&set, &expl);
        assert!(quality.precision.value.is_some());
        assert!(quality.generality.value.is_some());
        assert!(quality.relevance.value.is_some());
        // With an empty despite clause relevance is the base rate.
        assert!((quality.relevance.unwrap_or(0.0) - 0.5).abs() < 1e-12);
    }
}
