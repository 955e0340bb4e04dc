//! The SimButDiff baseline (Section 5.2, Algorithm 2 of the paper).
//!
//! Unlike RuleOfThumb this technique does look at the query: it finds the
//! training pairs that are *similar* to the pair of interest with respect to
//! their `isSame` features, and then asks, for every `isSame` feature, a
//! what-if question: among similar pairs that *disagree* with the pair of
//! interest on this feature, what fraction performed as expected?  Features
//! with the highest fractions form the explanation, phrased as
//! `f_isSame = <the pair of interest's value>`.

use crate::config::ExplainConfig;
use crate::error::Result;
use crate::explanation::Explanation;
use crate::pairs::{PairCatalog, PairExample, PairFeatureGroup};
use crate::query::BoundQuery;
use crate::record::ExecutionLog;
use crate::training::{prepare_training_set, TrainingSet};
use pxql::{Atom, Predicate, Value};

/// The SimButDiff explanation generator.
#[derive(Debug, Clone, Default)]
pub struct SimButDiff {
    config: ExplainConfig,
}

/// The what-if score of one `isSame` feature.
#[derive(Debug, Clone, PartialEq)]
pub struct WhatIfScore {
    /// The `isSame` pair-feature name.
    pub feature: String,
    /// Number of similar pairs disagreeing with the pair of interest on the
    /// feature.
    pub disagreeing: usize,
    /// Among those, the number that performed as expected.
    pub expected: usize,
}

impl WhatIfScore {
    /// The fraction `expected / disagreeing` (0 when nothing disagrees).
    pub fn score(&self) -> f64 {
        if self.disagreeing == 0 {
            0.0
        } else {
            self.expected as f64 / self.disagreeing as f64
        }
    }
}

impl SimButDiff {
    /// Creates the baseline with the given configuration.
    pub fn new(config: ExplainConfig) -> Self {
        SimButDiff { config }
    }

    /// The `isSame` feature names of the log's catalog for the query's kind,
    /// excluding the ones derived from the query's own performance metric.
    fn is_same_features(&self, log: &ExecutionLog, query: &BoundQuery) -> Vec<String> {
        let excluded = crate::query::excluded_raw_features(query, &self.config);
        PairCatalog::from_raw(log.catalog(query.kind))
            .defs()
            .iter()
            .filter(|d| d.group == PairFeatureGroup::IsSame)
            .filter(|d| !excluded.iter().any(|x| x == &d.raw))
            .map(|d| d.name.clone())
            .collect()
    }

    /// Number of `isSame` features on which two pairs agree (missing values
    /// on both sides count as agreement, mirroring Algorithm 2's use of the
    /// reduced representation).
    fn agreement(poi: &PairExample, other: &PairExample, features: &[String]) -> usize {
        features
            .iter()
            .filter(|f| {
                let a = poi.feature(f);
                let b = other.feature(f);
                if a.is_null() && b.is_null() {
                    true
                } else {
                    a.pxql_eq(&b)
                }
            })
            .count()
    }

    /// Computes the per-feature what-if scores over the training pairs that
    /// are similar to the pair of interest.
    pub fn what_if_scores(
        &self,
        poi: &PairExample,
        set: &TrainingSet,
        is_same_features: &[String],
    ) -> Vec<WhatIfScore> {
        let threshold =
            (self.config.simbutdiff_similarity * is_same_features.len() as f64).ceil() as usize;
        let similar: Vec<(&PairExample, bool)> = set
            .iter()
            .filter(|(example, _)| Self::agreement(poi, example, is_same_features) >= threshold)
            .collect();

        let mut scores = Vec::with_capacity(is_same_features.len());
        for feature in is_same_features {
            let poi_value = poi.feature(feature);
            let mut disagreeing = 0usize;
            let mut expected = 0usize;
            for (example, observed) in &similar {
                let value = example.feature(feature);
                let agrees = if poi_value.is_null() && value.is_null() {
                    true
                } else {
                    poi_value.pxql_eq(&value)
                };
                if !agrees {
                    disagreeing += 1;
                    if !observed {
                        expected += 1;
                    }
                }
            }
            scores.push(WhatIfScore {
                feature: feature.clone(),
                disagreeing,
                expected,
            });
        }
        scores.sort_by(|a, b| {
            b.score()
                .partial_cmp(&a.score())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(b.disagreeing.cmp(&a.disagreeing))
        });
        scores
    }

    /// Generates the explanation for a query.
    pub fn explain(&self, log: &ExecutionLog, query: &BoundQuery) -> Result<Explanation> {
        let poi = query.pair_of_interest(log, self.config.sim_threshold)?;
        let is_same_features = self.is_same_features(log, query);

        // Algorithm 2 line 1: the training examples related to the query.
        // The balanced sample keeps the what-if fractions meaningful while
        // bounding the cost on large logs.
        let set = prepare_training_set(log, query, &self.config)?;

        let scores = self.what_if_scores(&poi, &set, &is_same_features);
        let atoms: Vec<Atom> = scores
            .iter()
            .filter(|s| s.disagreeing > 0)
            .take(self.config.width)
            .map(|s| {
                let value = poi.feature(&s.feature);
                Atom {
                    feature: s.feature.clone(),
                    op: pxql::Op::Eq,
                    constant: if value.is_null() { Value::Null } else { value },
                }
            })
            .collect();
        Ok(Explanation::because_only(Predicate::from_atoms(atoms)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::ExecutionRecord;
    use pxql::parse_query;

    /// Jobs whose duration depends only on the number of instances; the
    /// pair of interest agrees on numinstances (and so has the same
    /// runtime), and similar pairs that *disagree* on numinstances mostly
    /// perform "as expected" (different runtimes).
    fn log() -> ExecutionLog {
        let mut log = ExecutionLog::new();
        for i in 0..36 {
            let instances = [2.0, 8.0, 16.0][i % 3];
            log.push(
                ExecutionRecord::job(format!("job_{i}"))
                    .with_feature("numinstances", instances)
                    .with_feature("inputsize", 1.0e9)
                    .with_feature("pigscript", "simple-filter.pig")
                    .with_feature("duration", 1000.0 / instances + (i % 2) as f64),
            );
        }
        log.rebuild_catalogs();
        log
    }

    fn query() -> BoundQuery {
        // Why did these two jobs have the same duration? (they ran on the
        // same number of instances)
        let q =
            parse_query("OBSERVED duration_compare = SIM\nEXPECTED duration_compare = GT").unwrap();
        BoundQuery::new(q, "job_0", "job_3")
    }

    /// The test log has only three usable raw features, so the paper's 0.9
    /// similarity threshold would forbid any disagreement; a lower threshold
    /// plays the role 0.9 plays on the 36/64-feature logs of the paper.
    fn test_config() -> ExplainConfig {
        ExplainConfig {
            simbutdiff_similarity: 0.6,
            ..ExplainConfig::default()
        }
    }

    #[test]
    fn what_if_analysis_finds_numinstances() {
        let baseline = SimButDiff::new(test_config().with_width(1));
        let explanation = baseline.explain(&log(), &query()).unwrap();
        assert_eq!(explanation.width(), 1);
        let atom = &explanation.because.atoms()[0];
        assert_eq!(atom.feature, "numinstances_isSame");
        // The pair of interest agrees on the instance count, so the
        // explanation states that fact.
        assert_eq!(atom.constant, Value::Bool(true));
    }

    #[test]
    fn scores_order_by_expected_fraction() {
        let log = log();
        let q = query();
        let config = test_config();
        let baseline = SimButDiff::new(config.clone());
        let poi = q.pair_of_interest(&log, config.sim_threshold).unwrap();
        let set = crate::training::prepare_training_set(&log, &q, &config).unwrap();
        let features = baseline.is_same_features(&log, &q);
        let scores = baseline.what_if_scores(&poi, &set, &features);
        assert!(!scores.is_empty());
        // Scores are sorted in descending order.
        for window in scores.windows(2) {
            assert!(window[0].score() >= window[1].score() - 1e-12);
        }
        // numinstances has the strongest what-if effect.
        assert_eq!(scores[0].feature, "numinstances_isSame");
        assert!(scores[0].score() > 0.5);
    }

    #[test]
    fn explanation_is_applicable_to_the_pair_of_interest() {
        let log = log();
        let q = query();
        let baseline = SimButDiff::new(test_config().with_width(3));
        let explanation = baseline.explain(&log, &q).unwrap();
        let poi = q.pair_of_interest(&log, 0.1).unwrap();
        assert!(explanation.is_applicable(&poi));
    }
}
