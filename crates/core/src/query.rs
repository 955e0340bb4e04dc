//! Binding PXQL queries to an execution log and classifying pairs.

use crate::error::{CoreError, Result};
use crate::pairs::{compute_selected_pair_features, PairExample};
use crate::record::{ExecutionKind, ExecutionLog};
use pxql::{FeatureSource, PairBinding, PxqlQuery};
use serde::{Deserialize, Serialize};

/// How a pair of executions relates to a query (Definitions 7–9 of the
/// paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PairLabel {
    /// The pair satisfies `des ∧ obs`: it *performed as observed*.
    Observed,
    /// The pair satisfies `des ∧ exp`: it *performed as expected*.
    Expected,
    /// The pair does not satisfy `des ∧ (obs ∨ exp)`: it is unrelated to the
    /// query and is not used for training.
    Unrelated,
}

impl PairLabel {
    /// Whether the pair is related to the query (observed or expected).
    pub fn is_related(&self) -> bool {
        !matches!(self, PairLabel::Unrelated)
    }
}

/// A PXQL query bound to a concrete pair of executions in a log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BoundQuery {
    /// The parsed query (despite / observed / expected clauses).
    pub query: PxqlQuery,
    /// Job or task query.
    pub kind: ExecutionKind,
    /// Identifier of the first execution of the pair of interest.
    pub left_id: String,
    /// Identifier of the second execution of the pair of interest.
    pub right_id: String,
}

impl BoundQuery {
    /// Binds a query to explicit identifiers.
    pub fn new(query: PxqlQuery, left_id: impl Into<String>, right_id: impl Into<String>) -> Self {
        let kind = ExecutionKind::from(query.subject);
        BoundQuery {
            query,
            kind,
            left_id: left_id.into(),
            right_id: right_id.into(),
        }
    }

    /// Binds a query using the literal identifiers of its `WHERE` clause.
    pub fn from_query(query: PxqlQuery) -> Result<Self> {
        let left = match &query.left_binding {
            PairBinding::Literal(id) => id.clone(),
            PairBinding::Placeholder => return Err(CoreError::Pxql(
                "the first execution's identifier is a placeholder; supply it with BoundQuery::new"
                    .to_string(),
            )),
        };
        let right = match &query.right_binding {
            PairBinding::Literal(id) => id.clone(),
            PairBinding::Placeholder => {
                return Err(CoreError::Pxql(
                    "the second execution's identifier is a placeholder; supply it with BoundQuery::new"
                        .to_string(),
                ))
            }
        };
        Ok(BoundQuery::new(query, left, right))
    }

    /// The pair-feature names mentioned by the query's three clauses.
    pub fn mentioned_features(&self) -> Vec<&str> {
        let mut names = Vec::new();
        for predicate in [
            &self.query.despite,
            &self.query.observed,
            &self.query.expected,
        ] {
            for name in predicate.features() {
                if !names.contains(&name) {
                    names.push(name);
                }
            }
        }
        names
    }

    /// Classifies a pair from its (possibly partial) pair features.
    pub fn classify<S: FeatureSource>(&self, features: &S) -> PairLabel {
        if !self.query.despite.eval(features) {
            return PairLabel::Unrelated;
        }
        if self.query.expected.eval(features) {
            return PairLabel::Expected;
        }
        if self.query.observed.eval(features) {
            return PairLabel::Observed;
        }
        PairLabel::Unrelated
    }

    /// Builds the pair of interest from the log, checking that both
    /// executions exist and have the right kind.
    pub fn pair_of_interest(&self, log: &ExecutionLog, sim_threshold: f64) -> Result<PairExample> {
        let left = log.require(&self.left_id, self.kind)?;
        let right = log.require(&self.right_id, self.kind)?;
        Ok(PairExample::build(
            log.catalog(self.kind),
            left,
            right,
            sim_threshold,
        ))
    }

    /// Verifies the semantic preconditions of Definition 1: the pair of
    /// interest satisfies `des` and `obs` but not `exp`.  Both executions
    /// are found through the log's id index, and only the pair features the
    /// three clauses mention are computed.
    pub fn verify_preconditions(&self, log: &ExecutionLog, sim_threshold: f64) -> Result<()> {
        let left = log.require(&self.left_id, self.kind)?;
        let right = log.require(&self.right_id, self.kind)?;
        let pair = compute_selected_pair_features(
            log.catalog(self.kind),
            left,
            right,
            sim_threshold,
            &self.mentioned_features(),
        );
        if !self.query.despite.eval(&pair) {
            return Err(CoreError::QueryPreconditionViolated(format!(
                "the pair of interest does not satisfy the DESPITE clause ({})",
                self.query.despite
            )));
        }
        if !self.query.observed.eval(&pair) {
            return Err(CoreError::QueryPreconditionViolated(format!(
                "the pair of interest does not satisfy the OBSERVED clause ({})",
                self.query.observed
            )));
        }
        if self.query.expected.eval(&pair) {
            return Err(CoreError::QueryPreconditionViolated(format!(
                "the pair of interest satisfies the EXPECTED clause ({}), so there is nothing to explain",
                self.query.expected
            )));
        }
        Ok(())
    }

    /// Classifies a candidate pair of records from the log, computing only
    /// the pair features the query mentions.
    pub fn classify_records(
        &self,
        log: &ExecutionLog,
        left: &crate::record::ExecutionRecord,
        right: &crate::record::ExecutionRecord,
        sim_threshold: f64,
    ) -> PairLabel {
        let needed = self.mentioned_features();
        let features = compute_selected_pair_features(
            log.catalog(self.kind),
            left,
            right,
            sim_threshold,
            &needed,
        );
        self.classify(&features)
    }
}

/// The raw features that must never appear in generated explanation clauses
/// for this query: the raw features behind the pair features mentioned in
/// the OBSERVED/EXPECTED clauses (explaining the performance metric with
/// itself would be circular) plus any exclusions configured by the caller.
pub fn excluded_raw_features(
    query: &BoundQuery,
    config: &crate::config::ExplainConfig,
) -> Vec<String> {
    let mut excluded = config.excluded_raw_features.clone();
    for predicate in [&query.query.observed, &query.query.expected] {
        for feature in predicate.features() {
            let (raw, _) = crate::pairs::parse_pair_feature(feature);
            if !excluded.iter().any(|e| e == raw) {
                excluded.push(raw.to_string());
            }
        }
    }
    excluded
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columnar::ColumnarLog;
    use crate::pairs::DEFAULT_SIM_THRESHOLD;
    use crate::record::ExecutionRecord;
    use pxql::parse_query;

    fn log() -> ExecutionLog {
        let mut log = ExecutionLog::new();
        for (id, input, duration) in [
            ("job_big", 32.0e9, 1800.0),
            ("job_small", 1.0e9, 1750.0),
            ("job_fast", 1.0e9, 300.0),
        ] {
            log.push(
                ExecutionRecord::job(id)
                    .with_feature("inputsize", input)
                    .with_feature("numinstances", 8.0)
                    .with_feature("duration", duration),
            );
        }
        log.rebuild_catalogs();
        log
    }

    fn query() -> PxqlQuery {
        parse_query(
            "DESPITE inputsize_compare = GT\n\
             OBSERVED duration_compare = SIM\n\
             EXPECTED duration_compare = GT",
        )
        .unwrap()
    }

    #[test]
    fn binding_and_preconditions() {
        let log = log();
        let bound = BoundQuery::new(query(), "job_big", "job_small");
        bound
            .verify_preconditions(&log, DEFAULT_SIM_THRESHOLD)
            .unwrap();
        let pair = bound.pair_of_interest(&log, DEFAULT_SIM_THRESHOLD).unwrap();
        assert_eq!(pair.left_id, "job_big");

        // Swapping the pair violates the despite clause.
        let swapped = BoundQuery::new(query(), "job_small", "job_big");
        assert!(matches!(
            swapped.verify_preconditions(&log, DEFAULT_SIM_THRESHOLD),
            Err(CoreError::QueryPreconditionViolated(_))
        ));

        // An unknown id fails.
        let unknown = BoundQuery::new(query(), "job_big", "job_nope");
        assert!(matches!(
            unknown.verify_preconditions(&log, DEFAULT_SIM_THRESHOLD),
            Err(CoreError::UnknownExecution(_))
        ));
    }

    /// On a job-only log the one precondition check resolves the pair of
    /// interest through the log's id index, and the view finds the same
    /// records: a found pair, an unknown id, and an id re-ingested with a
    /// new duration (the later record wins).
    #[test]
    fn the_view_index_check_equals_the_log_scan_on_a_one_kind_log() {
        let mut log = log();
        let check = |log: &ExecutionLog, left: &str, right: &str| {
            let bound = BoundQuery::new(query(), left, right);
            let view = ColumnarLog::build(log, ExecutionKind::Job);
            for id in [left, right] {
                let scanned = log.records().iter().rposition(|r| r.id == id);
                let row = view.row_of(log, id);
                assert_eq!(row.map(|row| view.position(row)), scanned, "{id}");
            }
            bound.verify_preconditions(log, DEFAULT_SIM_THRESHOLD)
        };
        assert!(check(&log, "job_big", "job_small").is_ok());
        assert!(matches!(
            check(&log, "job_big", "job_nope"),
            Err(CoreError::UnknownExecution(_))
        ));
        // job_big comes back much slower: the pair now performs as expected.
        log.append(vec![ExecutionRecord::job("job_big")
            .with_feature("inputsize", 32.0e9)
            .with_feature("numinstances", 8.0)
            .with_feature("duration", 9000.0)]);
        assert!(matches!(
            check(&log, "job_big", "job_small"),
            Err(CoreError::QueryPreconditionViolated(_))
        ));
    }

    /// A later task reusing a job's id shadows the job: the log's one id
    /// index resolves the id to the task, so the precondition check reports
    /// the kind mismatch and the job view does not find the id either.
    #[test]
    fn a_task_reusing_a_job_id_is_a_kind_mismatch_on_both_paths() {
        let mut log = log();
        log.append(vec![
            ExecutionRecord::task("job_small", "job_big").with_feature("duration", 5.0)
        ]);
        let bound = BoundQuery::new(query(), "job_big", "job_small");
        let view = ColumnarLog::build(&log, ExecutionKind::Job);
        assert!(view.row_of(&log, "job_small").is_none());
        let result = bound.verify_preconditions(&log, DEFAULT_SIM_THRESHOLD);
        assert!(
            matches!(result, Err(CoreError::KindMismatch { .. })),
            "{result:?}"
        );
    }

    #[test]
    fn from_query_requires_literals() {
        let q = query();
        assert!(BoundQuery::from_query(q.clone()).is_err());
        let q = q.with_pair("job_big", "job_small");
        let bound = BoundQuery::from_query(q).unwrap();
        assert_eq!(bound.left_id, "job_big");
        assert_eq!(bound.kind, ExecutionKind::Job);
    }

    #[test]
    fn classification_of_candidate_pairs() {
        let log = log();
        let bound = BoundQuery::new(query(), "job_big", "job_small");
        let big = log.get("job_big").unwrap();
        let small = log.get("job_small").unwrap();
        let fast = log.get("job_fast").unwrap();

        // big vs small: larger input, similar duration -> observed.
        assert_eq!(
            bound.classify_records(&log, big, small, DEFAULT_SIM_THRESHOLD),
            PairLabel::Observed
        );
        // big vs fast: larger input, much slower -> expected.
        assert_eq!(
            bound.classify_records(&log, big, fast, DEFAULT_SIM_THRESHOLD),
            PairLabel::Expected
        );
        // small vs fast: same input size (SIM, not GT) -> unrelated.
        assert_eq!(
            bound.classify_records(&log, small, fast, DEFAULT_SIM_THRESHOLD),
            PairLabel::Unrelated
        );
        assert!(PairLabel::Observed.is_related());
        assert!(!PairLabel::Unrelated.is_related());
    }

    #[test]
    fn mentioned_features_are_deduplicated() {
        let bound = BoundQuery::new(query(), "a", "b");
        let features = bound.mentioned_features();
        assert_eq!(features, vec!["inputsize_compare", "duration_compare"]);
    }

    #[test]
    fn excluded_features_cover_the_query_target() {
        let bound = BoundQuery::new(query(), "a", "b");
        let mut config = crate::config::ExplainConfig::default();
        config.excluded_raw_features.push("start_time".to_string());
        let excluded = excluded_raw_features(&bound, &config);
        assert!(excluded.contains(&"duration".to_string()));
        assert!(excluded.contains(&"start_time".to_string()));
        // The despite clause's feature (inputsize) is *not* excluded.
        assert!(!excluded.contains(&"inputsize".to_string()));
    }
}
