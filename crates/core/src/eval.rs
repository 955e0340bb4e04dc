//! Evaluation harness primitives (Section 6.1 of the paper).
//!
//! The paper evaluates every technique with repeated two-fold cross
//! validation: the log of job executions is split into a training log and a
//! test log by assigning each *job* (together with its tasks) to the
//! training side with 50% probability; an explanation is generated from the
//! training log and its precision/relevance/generality are measured over the
//! test log.  The pair of interest is added to the training log so that the
//! query remains answerable.
//!
//! This module provides the split, out-of-sample metric estimation (on
//! related pairs of the test log) and a [`Technique`] dispatcher; the
//! experiment loops that regenerate the paper's figures live in the
//! benchmark crate.  The test log's related pairs stay encoded: every one
//! of them, unsampled, as rows of one columnar view of the test log, which
//! [`crate::metrics`] scores without building pair-feature maps.

use crate::baselines::{RuleOfThumb, SimButDiff};
use crate::columnar::ColumnarLog;
use crate::config::ExplainConfig;
use crate::error::Result;
use crate::explain::PerfXplain;
use crate::explanation::Explanation;
use crate::metrics::{self, ExplanationQuality};
use crate::query::BoundQuery;
use crate::record::{ExecutionKind, ExecutionLog};
use crate::training::{collect_related_pairs_in, EncodedTraining};
use rand::rngs::StdRng;
use rand::RngExt;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// The three explanation-generation techniques compared in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Technique {
    /// The PerfXplain algorithm (Algorithm 1).
    PerfXplain,
    /// The RuleOfThumb baseline (Section 5.1).
    RuleOfThumb,
    /// The SimButDiff baseline (Section 5.2, Algorithm 2).
    SimButDiff,
}

impl Technique {
    /// All techniques, in the order the paper's figures list them.
    pub fn all() -> [Technique; 3] {
        [
            Technique::PerfXplain,
            Technique::RuleOfThumb,
            Technique::SimButDiff,
        ]
    }
}

impl fmt::Display for Technique {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Technique::PerfXplain => write!(f, "PerfXplain"),
            Technique::RuleOfThumb => write!(f, "RuleOfThumb"),
            Technique::SimButDiff => write!(f, "SimButDiff"),
        }
    }
}

/// Generates an explanation with the chosen technique.
pub fn generate_explanation(
    technique: Technique,
    log: &ExecutionLog,
    query: &BoundQuery,
    config: &ExplainConfig,
) -> Result<Explanation> {
    match technique {
        Technique::PerfXplain => PerfXplain::new(config.clone()).explain(log, query),
        Technique::RuleOfThumb => RuleOfThumb::new(config.clone()).explain(log, query),
        Technique::SimButDiff => SimButDiff::new(config.clone()).explain(log, query),
    }
}

/// Splits the log into a training log and a test log.
///
/// Every job is assigned to the training log with probability
/// `train_fraction`; its tasks follow it.  The executions of the query's
/// pair of interest are always kept in the training log (and also remain in
/// the test log so that test pairs exist even for very small logs).
pub fn split_log(
    log: &ExecutionLog,
    query: &BoundQuery,
    train_fraction: f64,
    seed: u64,
) -> (ExecutionLog, ExecutionLog) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut train_jobs: Vec<&str> = Vec::new();
    let mut test_jobs: Vec<&str> = Vec::new();
    for job in log.jobs() {
        if rng.random::<f64>() < train_fraction {
            train_jobs.push(&job.id);
        } else {
            test_jobs.push(&job.id);
        }
    }

    // The jobs owning the pair of interest must be available for training.
    let poi_jobs: Vec<String> = [&query.left_id, &query.right_id]
        .iter()
        .filter_map(|id| {
            log.get(id).map(|record| match record.kind {
                ExecutionKind::Job => record.id.clone(),
                ExecutionKind::Task => record
                    .parent_job
                    .clone()
                    .unwrap_or_else(|| record.id.clone()),
            })
        })
        .collect();
    for job in &poi_jobs {
        if !train_jobs.contains(&job.as_str()) {
            train_jobs.push(job);
        }
    }

    let train = log.restrict_to_jobs(&train_jobs);
    let mut test = log.restrict_to_jobs(&test_jobs);
    // Keep the pair of interest visible in the test log too, so that
    // explanations can be assessed even when the split put its jobs in
    // training.
    for job in &poi_jobs {
        if !test_jobs.contains(&job.as_str()) {
            let extra = log.restrict_to_jobs(&[job.as_str()]);
            test.extend(extra);
        }
    }
    (train, test)
}

/// Every related pair of a log (typically the *test* log), unsampled and in
/// encoded form, for metric estimation.
pub fn related_pairs_for_evaluation<'a>(
    log: &'a ExecutionLog,
    query: &BoundQuery,
    config: &ExplainConfig,
) -> EncodedTraining<'a> {
    let view = Arc::new(ColumnarLog::build_auto(log, query.kind));
    let related = collect_related_pairs_in(&view, query, log, config);
    EncodedTraining::of_related(
        log,
        view,
        related.iter(),
        related.len(),
        config.sim_threshold,
    )
}

/// Result of evaluating one explanation on a test log.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvaluationResult {
    /// Quality metrics measured over the related pairs of the test log.
    pub quality: ExplanationQuality,
    /// Number of related test pairs the metrics were estimated from.
    pub related_pairs: usize,
}

/// Evaluates an explanation's relevance, precision and generality over the
/// related pairs of `test_log`.
pub fn evaluate_on_log(
    explanation: &Explanation,
    test_log: &ExecutionLog,
    query: &BoundQuery,
    config: &ExplainConfig,
) -> EvaluationResult {
    let set = related_pairs_for_evaluation(test_log, query, config);
    EvaluationResult {
        quality: metrics::assess(&set, explanation),
        related_pairs: set.len(),
    }
}

/// Mean and standard deviation of a series of repeated measurements.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Aggregate {
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub stddev: f64,
    /// Number of measurements that produced a defined value.
    pub samples: usize,
}

impl Aggregate {
    /// Aggregates the defined values of a series.
    pub fn from_values(values: &[Option<f64>]) -> Aggregate {
        let defined: Vec<f64> = values.iter().flatten().copied().collect();
        Aggregate {
            mean: mlcore::mean(&defined),
            stddev: mlcore::stddev(&defined),
            samples: defined.len(),
        }
    }
}

/// Runs one train/test round: split, generate with the technique, evaluate
/// on the test side.  Returns `None` when the training log does not contain
/// enough related pairs for the technique to learn from.
pub fn train_test_round(
    technique: Technique,
    log: &ExecutionLog,
    query: &BoundQuery,
    config: &ExplainConfig,
    train_fraction: f64,
    seed: u64,
) -> Option<(Explanation, EvaluationResult)> {
    let (train, test) = split_log(log, query, train_fraction, seed);
    let explanation = generate_explanation(technique, &train, query, config).ok()?;
    let evaluation = evaluate_on_log(&explanation, &test, query, config);
    Some((explanation, evaluation))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::ExecutionRecord;
    use pxql::parse_query;

    fn log() -> ExecutionLog {
        let mut log = ExecutionLog::new();
        for i in 0..40 {
            let big_blocks = i % 2 == 0;
            let input: f64 = if i % 4 < 2 { 32.0e9 } else { 1.0e9 };
            let duration = if big_blocks { 600.0 } else { input / 5.0e7 };
            let job_id = format!("job_{i}");
            log.push(
                ExecutionRecord::job(&job_id)
                    .with_feature("inputsize", input)
                    .with_feature("blocksize", if big_blocks { 1024.0 } else { 64.0 })
                    .with_feature("duration", duration),
            );
            log.push(
                ExecutionRecord::task(format!("task_{i}_m_0"), &job_id)
                    .with_feature("jobid", job_id.as_str())
                    .with_feature("duration", duration / 4.0),
            );
        }
        log.rebuild_catalogs();
        log
    }

    fn query() -> BoundQuery {
        let q = parse_query(
            "DESPITE inputsize_compare = GT\n\
             OBSERVED duration_compare = SIM\n\
             EXPECTED duration_compare = GT",
        )
        .unwrap();
        BoundQuery::new(q, "job_0", "job_2")
    }

    #[test]
    fn split_keeps_tasks_with_their_jobs_and_poi_in_training() {
        let log = log();
        let query = query();
        let (train, test) = split_log(&log, &query, 0.5, 7);
        assert!(train.jobs().count() > 0);
        assert!(test.jobs().count() > 0);
        // The pair of interest is always available for training.
        assert!(train.get("job_0").is_some());
        assert!(train.get("job_2").is_some());
        // Tasks follow their jobs.
        for task in train.tasks() {
            let parent = task.parent_job.as_deref().unwrap();
            assert!(train.get(parent).is_some());
        }
        for task in test.tasks() {
            let parent = task.parent_job.as_deref().unwrap();
            assert!(test.get(parent).is_some());
        }
    }

    #[test]
    fn split_fractions_roughly_respected() {
        let log = log();
        let query = query();
        let (train_small, _) = split_log(&log, &query, 0.1, 3);
        let (train_large, _) = split_log(&log, &query, 0.9, 3);
        assert!(train_small.jobs().count() < train_large.jobs().count());
    }

    #[test]
    fn evaluation_measures_on_test_pairs() {
        let log = log();
        let query = query();
        let config = ExplainConfig::default().with_seed(5);
        let explanation =
            generate_explanation(Technique::PerfXplain, &log, &query, &config).unwrap();
        let result = evaluate_on_log(&explanation, &log, &query, &config);
        assert!(result.related_pairs > 0);
        assert!(result.quality.precision.value.is_some());
    }

    #[test]
    fn all_techniques_produce_explanations_in_a_round() {
        let log = log();
        let query = query();
        let config = ExplainConfig::default().with_width(2).with_seed(1);
        for technique in Technique::all() {
            let round = train_test_round(technique, &log, &query, &config, 0.5, 11);
            let (explanation, evaluation) =
                round.unwrap_or_else(|| panic!("{technique} failed to produce an explanation"));
            assert!(explanation.width() <= 2, "{technique} width too large");
            assert!(evaluation.related_pairs > 0);
        }
    }

    #[test]
    fn aggregate_ignores_undefined_values() {
        let agg = Aggregate::from_values(&[Some(0.8), None, Some(0.6)]);
        assert_eq!(agg.samples, 2);
        assert!((agg.mean - 0.7).abs() < 1e-12);
        assert!(agg.stddev > 0.0);
        let empty = Aggregate::from_values(&[None, None]);
        assert_eq!(empty.samples, 0);
        assert_eq!(empty.mean, 0.0);
    }

    #[test]
    fn technique_display_names() {
        assert_eq!(Technique::PerfXplain.to_string(), "PerfXplain");
        assert_eq!(Technique::all().len(), 3);
    }
}
