//! The RuleOfThumb baseline (Section 5.1 of the paper).
//!
//! The technique works in two stages:
//!
//! 1. **Offline**: identify the raw features that have a high impact on
//!    runtime *in general*, independently of any query.  The paper uses the
//!    Relief feature-estimation technique because it copes with numeric and
//!    nominal attributes and with missing values.  We label each execution
//!    by whether its duration is above the median and rank the remaining
//!    raw features with Relief.
//! 2. **Per query**: return the top-`w` important features on which the two
//!    executions of interest *disagree*, as a conjunction of
//!    `f_isSame = F` predicates.
//!
//! The technique ignores the query's clauses entirely, which is exactly why
//! it fails on queries whose answer is not "an important feature differs".

use crate::config::ExplainConfig;
use crate::error::Result;
use crate::explanation::Explanation;
use crate::features::{FeatureKind, DURATION_FEATURE};
use crate::pairs::is_same_name;
use crate::query::BoundQuery;
use crate::record::ExecutionLog;
use mlcore::{relief_weights, AttrValue, Attribute, ColumnBuilder, Dataset, ReliefConfig};
use pxql::{Atom, Predicate, Value};

/// The RuleOfThumb explanation generator.
#[derive(Debug, Clone, Default)]
pub struct RuleOfThumb {
    config: ExplainConfig,
}

/// A raw feature together with its Relief importance.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedFeature {
    /// Raw feature name.
    pub name: String,
    /// Relief weight (higher is more important).
    pub weight: f64,
}

impl RuleOfThumb {
    /// Creates the baseline with the given configuration.
    pub fn new(config: ExplainConfig) -> Self {
        RuleOfThumb { config }
    }

    /// Ranks the raw features of the log by their general impact on
    /// duration.  This corresponds to the offline stage of the technique and
    /// can be reused across queries.
    pub fn rank_features(&self, log: &ExecutionLog, query: &BoundQuery) -> Vec<RankedFeature> {
        let catalog = log.catalog(query.kind);
        let records: Vec<_> = log.of_kind(query.kind).collect();
        if records.len() < 2 {
            return Vec::new();
        }

        // Median duration defines the binary label.  NaN durations are
        // treated as missing (they would otherwise poison the sort and the
        // median), matching the trainers' NaN-as-missing rule.
        let mut durations: Vec<f64> = records
            .iter()
            .filter_map(|r| r.duration())
            .filter(|d| !d.is_nan())
            .collect();
        durations.sort_by(|a, b| a.partial_cmp(b).expect("NaN durations were filtered"));
        if durations.is_empty() {
            return Vec::new();
        }
        let median = durations[durations.len() / 2];

        // One attribute per raw feature except the duration itself.
        let feature_names: Vec<&str> = catalog.names().filter(|n| *n != DURATION_FEATURE).collect();
        let mut attributes: Vec<Attribute> = feature_names
            .iter()
            .map(|name| match catalog.kind(name) {
                Some(FeatureKind::Numeric) => Attribute::numeric(*name),
                _ => Attribute::nominal(*name),
            })
            .collect();
        let columns = (feature_names.iter().zip(&mut attributes))
            .map(|(name, attribute)| {
                let mut column = ColumnBuilder::with_capacity(records.len());
                for record in &records {
                    column.push(match record.feature(name) {
                        Value::Num(v) => AttrValue::Num(v),
                        Value::Null => AttrValue::Missing,
                        other => AttrValue::Nom(attribute.dictionary.intern(&other.to_string())),
                    });
                }
                column.finish()
            })
            .collect();
        let labels = records
            .iter()
            .map(|record| record.duration().map(|d| d > median).unwrap_or(false))
            .collect();
        let dataset = Dataset::from_columns(attributes, columns, labels);

        let weights = relief_weights(
            &dataset,
            ReliefConfig {
                iterations: self.config.relief_iterations,
                seed: self.config.seed,
            },
        );
        let mut ranked: Vec<RankedFeature> = feature_names
            .iter()
            .zip(weights)
            .map(|(name, weight)| RankedFeature {
                name: (*name).to_string(),
                weight,
            })
            .collect();
        ranked.sort_by(|a, b| {
            b.weight
                .partial_cmp(&a.weight)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        ranked
    }

    /// Generates the explanation for a query: the top-`width` important
    /// features the pair of interest disagrees on.
    pub fn explain(&self, log: &ExecutionLog, query: &BoundQuery) -> Result<Explanation> {
        let poi = query.pair_of_interest(log, self.config.sim_threshold)?;
        let ranked = self.rank_features(log, query);

        let mut atoms = Vec::new();
        for feature in &ranked {
            if atoms.len() >= self.config.width {
                break;
            }
            let is_same = poi.feature(&is_same_name(&feature.name));
            if is_same == Value::Bool(false) {
                atoms.push(Atom::eq(is_same_name(&feature.name), false));
            }
        }
        Ok(Explanation::because_only(Predicate::from_atoms(atoms)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::ExecutionRecord;
    use pxql::parse_query;

    /// Duration is driven entirely by `inputsize`; `iosortfactor` is noise.
    fn log() -> ExecutionLog {
        let mut log = ExecutionLog::new();
        for i in 0..40 {
            let input = if i % 2 == 0 { 1.0e9 } else { 4.0e9 };
            log.push(
                ExecutionRecord::job(format!("job_{i}"))
                    .with_feature("inputsize", input)
                    .with_feature("iosortfactor", (10 + (i % 7)) as f64)
                    .with_feature("numinstances", 8.0)
                    .with_feature("duration", input / 1.0e7 + (i % 3) as f64),
            );
        }
        log.rebuild_catalogs();
        log
    }

    fn query() -> BoundQuery {
        let q =
            parse_query("OBSERVED duration_compare = GT\nEXPECTED duration_compare = SIM").unwrap();
        BoundQuery::new(q, "job_1", "job_0")
    }

    #[test]
    fn inputsize_is_ranked_most_important() {
        let baseline = RuleOfThumb::new(ExplainConfig::default());
        let ranked = baseline.rank_features(&log(), &query());
        assert!(!ranked.is_empty());
        assert_eq!(ranked[0].name, "inputsize", "ranking: {ranked:?}");
        // The duration itself must not be ranked.
        assert!(ranked.iter().all(|f| f.name != DURATION_FEATURE));
    }

    #[test]
    fn explanation_points_at_differing_important_features() {
        let baseline = RuleOfThumb::new(ExplainConfig::default().with_width(2));
        let explanation = baseline.explain(&log(), &query()).unwrap();
        // The pair of interest agrees on numinstances, so only differing
        // features can appear, and inputsize_isSame = F must be among them.
        assert!(explanation
            .because
            .atoms()
            .iter()
            .any(|a| a.feature == "inputsize_isSame"));
        for atom in explanation.because.atoms() {
            assert!(atom.feature.ends_with("_isSame"));
            assert_eq!(atom.constant, Value::Bool(false));
            assert_ne!(atom.feature, "numinstances_isSame");
        }
    }

    #[test]
    fn empty_log_produces_empty_ranking() {
        let baseline = RuleOfThumb::new(ExplainConfig::default());
        let empty = ExecutionLog::new();
        assert!(baseline.rank_features(&empty, &query()).is_empty());
    }
}
