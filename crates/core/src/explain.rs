//! The PerfXplain explanation-generation algorithm (Algorithm 1 of the
//! paper).
//!
//! Given a bound PXQL query and an execution log, the generator
//!
//! 1. collects the pairs related to the query and draws a class-balanced
//!    sample of them (`crate::training`),
//! 2. grows the because clause greedily, one atomic predicate at a time: for
//!    every feature it finds the candidate predicate with the highest
//!    information gain that *holds for the pair of interest*
//!    (applicability), then scores the per-feature winners by a
//!    percentile-normalised weighted average of precision and generality
//!    (`w = 0.8`) and appends the best one,
//! 3. optionally generates a despite-clause extension with the exact same
//!    machinery, except that the target class is "performed as expected"
//!    (maximising relevance instead of precision).

use crate::bridge::DatasetBridge;
use crate::cancel::CancelToken;
use crate::columnar::ColumnarLog;
use crate::config::ExplainConfig;
use crate::error::Result;
use crate::explanation::Explanation;
use crate::pairs::{PairCatalog, PairExample};
use crate::query::BoundQuery;
use crate::record::ExecutionLog;
use crate::service::XplainService;
use crate::training::{
    prepare_encoded_training_cancellable, prepare_encoded_training_in, EncodedTraining, TrainingSet,
};
use mlcore::{best_split_for_attribute_filtered, percentile_ranks, SplitCandidate};
use pxql::{Atom, Predicate};
use std::sync::Arc;

/// The PerfXplain explanation generator.
#[derive(Debug, Clone, Default)]
pub struct PerfXplain {
    config: ExplainConfig,
}

impl PerfXplain {
    /// Creates a generator with the given configuration.
    pub fn new(config: ExplainConfig) -> Self {
        PerfXplain { config }
    }

    /// Creates a generator with the paper's default configuration.
    pub fn with_defaults() -> Self {
        PerfXplain::default()
    }

    /// The generator's configuration.
    pub fn config(&self) -> &ExplainConfig {
        &self.config
    }

    /// The pair-feature catalog available at the configured feature level.
    fn pair_catalog(&self, log: &ExecutionLog, query: &BoundQuery) -> PairCatalog {
        PairCatalog::from_raw(log.catalog(query.kind))
            .restrict_to_groups(self.config.feature_level.allowed_groups())
    }

    /// Encodes the split-search dataset straight from an encoded training
    /// set (one pass, no pair-feature maps).
    fn encode_bridge(&self, training: &EncodedTraining<'_>, query: &BoundQuery) -> DatasetBridge {
        let catalog = self.pair_catalog(training.log(), query);
        let excluded = crate::query::excluded_raw_features(query, &self.config);
        let poi = training
            .poi_rows(query)
            .expect("pair-of-interest rows exist after verify_preconditions");
        DatasetBridge::encode_from_view(
            training,
            poi,
            &catalog,
            &excluded,
            self.config.sim_threshold,
        )
    }

    /// Generates an explanation for the query: a because clause of the
    /// configured width, in the context of the user's own despite clause.
    ///
    /// This is the stateless convenience API: it answers through a
    /// single-shot [`XplainService`], so the service and this method share
    /// exactly one code path ([`PerfXplain::explain_in`]).  Applications
    /// posing repeated queries against the same log should hold a
    /// long-lived [`XplainService`] instead, which caches the columnar
    /// encoding across calls.
    pub fn explain(&self, log: &ExecutionLog, query: &BoundQuery) -> Result<Explanation> {
        XplainService::answer_once(self, log, query, false).map(|outcome| outcome.explanation)
    }

    /// Like [`PerfXplain::explain`], but against an already-encoded columnar
    /// view of the log — the zero-re-encoding path every cached
    /// [`XplainService`] query goes through.
    pub fn explain_in(
        &self,
        log: &ExecutionLog,
        view: Arc<ColumnarLog>,
        query: &BoundQuery,
    ) -> Result<Explanation> {
        self.explain_with_training(log, view, query, false, false, &CancelToken::never(), None)
            .map(|(explanation, _, _)| explanation)
    }

    /// The shared explanation pipeline: verify, train, grow the because
    /// clause (optionally extending the despite clause first), and hand the
    /// final training set back so callers (assessment, despite metrics) can
    /// reuse it instead of re-enumerating the pairs.  Callers that already
    /// verified the query's preconditions (the single-shot service pass
    /// checks them *before* paying for an encoding) pass
    /// `preconditions_verified = true` to skip the re-check — precondition
    /// verification derives the full pair-feature map of the pair of
    /// interest, which is not free.
    ///
    /// `cancel` is checked cooperatively at the pipeline's phase boundaries
    /// — before work starts, per batch of the pair enumeration, and per
    /// clause-growing iteration — so a networked caller's deadline or abort
    /// surfaces as [`CoreError::Cancelled`](crate::CoreError::Cancelled) /
    /// [`CoreError::DeadlineExceeded`](crate::CoreError::DeadlineExceeded)
    /// within one phase of firing.
    ///
    /// `cost_probe`, when given, fires exactly once with the actual related
    /// pair count right after the first pair enumeration — the moment the
    /// real workload becomes known — so admission control can refine the
    /// request's charged cost mid-flight.
    #[allow(clippy::too_many_arguments)] // internal seam: service + stateless engine share it
    pub(crate) fn explain_with_training<'a>(
        &self,
        log: &'a ExecutionLog,
        view: Arc<ColumnarLog>,
        query: &BoundQuery,
        extend_despite: bool,
        preconditions_verified: bool,
        cancel: &CancelToken,
        cost_probe: Option<&crate::service::CostProbe>,
    ) -> Result<(Explanation, BoundQuery, EncodedTraining<'a>)> {
        cancel.check()?;
        if !preconditions_verified {
            query.verify_preconditions(log, self.config.sim_threshold)?;
        }
        let training =
            prepare_encoded_training_cancellable(log, view.clone(), query, &self.config, cancel)?;
        if let Some(probe) = cost_probe {
            probe.fire(training.related_pairs as u64);
        }

        if extend_despite {
            // Relevance of the empty extension over the sample: the fraction
            // of pairs that performed as expected.  Below the threshold the
            // despite clause is extended and the training set regenerated in
            // the narrower context — on the same view, which only changes
            // the compiled predicates, not the encoding.
            let base_relevance = training.num_expected() as f64 / training.len().max(1) as f64;
            if base_relevance < self.config.relevance_threshold {
                let bridge = self.encode_bridge(&training, query);
                let extension = self.generate_clause_cancellable(
                    &bridge,
                    false,
                    self.config.despite_width,
                    cancel,
                )?;
                let mut extended = query.clone();
                extended.query = extended
                    .query
                    .clone()
                    .with_despite(query.query.despite.conjoin(&extension));
                let extended_training = prepare_encoded_training_cancellable(
                    log,
                    view,
                    &extended,
                    &self.config,
                    cancel,
                )?;
                let extended_bridge = self.encode_bridge(&extended_training, &extended);
                let because = self.generate_clause_cancellable(
                    &extended_bridge,
                    true,
                    self.config.width,
                    cancel,
                )?;
                return Ok((
                    Explanation::new(extension, because),
                    extended,
                    extended_training,
                ));
            }
        }

        let bridge = self.encode_bridge(&training, query);
        let because = self.generate_clause_cancellable(&bridge, true, self.config.width, cancel)?;
        Ok((Explanation::because_only(because), query.clone(), training))
    }

    /// Generates a despite-clause extension `des'` for the query using the
    /// same algorithm with relevance as the target (Section 4.2, "Generating
    /// the des' clause").
    pub fn generate_despite(&self, log: &ExecutionLog, query: &BoundQuery) -> Result<Predicate> {
        let view = Arc::new(ColumnarLog::build_auto(log, query.kind));
        self.generate_despite_in(log, view, query)
    }

    /// Like [`PerfXplain::generate_despite`], but against an
    /// already-encoded columnar view.
    pub fn generate_despite_in(
        &self,
        log: &ExecutionLog,
        view: Arc<ColumnarLog>,
        query: &BoundQuery,
    ) -> Result<Predicate> {
        query.verify_preconditions(log, self.config.sim_threshold)?;
        let training = prepare_encoded_training_in(log, view, query, &self.config)?;
        let bridge = self.encode_bridge(&training, query);
        Ok(self.generate_clause_from_bridge(&bridge, false, self.config.despite_width))
    }

    /// Generates a full explanation, automatically extending the despite
    /// clause when the user's clause scores below the configured relevance
    /// threshold, and then generating the because clause in the context of
    /// the extended clause.
    ///
    /// Returns the explanation together with the (possibly extended) query
    /// that was ultimately explained.  Like [`PerfXplain::explain`], this is
    /// a single-shot [`XplainService`] call under the hood.
    pub fn explain_full(
        &self,
        log: &ExecutionLog,
        query: &BoundQuery,
    ) -> Result<(Explanation, BoundQuery)> {
        XplainService::answer_once(self, log, query, true)
            .map(|outcome| (outcome.explanation, outcome.query))
    }

    /// Like [`PerfXplain::explain_full`], but against an already-encoded
    /// columnar view of the log.
    pub fn explain_full_in(
        &self,
        log: &ExecutionLog,
        view: Arc<ColumnarLog>,
        query: &BoundQuery,
    ) -> Result<(Explanation, BoundQuery)> {
        self.explain_with_training(log, view, query, true, false, &CancelToken::never(), None)
            .map(|(explanation, effective, _)| (explanation, effective))
    }

    /// Generates the because clause from an already-materialised training
    /// set (the map-based path; the engine's own entry points encode from
    /// the columnar view instead).
    pub fn because_from_training(
        &self,
        set: &TrainingSet,
        poi: &PairExample,
        log: &ExecutionLog,
        query: &BoundQuery,
    ) -> Predicate {
        self.generate_clause(set, poi, log, query, true, self.config.width)
    }

    /// Generates a despite-clause extension from an already-materialised
    /// training set.
    pub fn despite_from_training(
        &self,
        set: &TrainingSet,
        poi: &PairExample,
        log: &ExecutionLog,
        query: &BoundQuery,
    ) -> Predicate {
        self.generate_clause(set, poi, log, query, false, self.config.despite_width)
    }

    /// Map-based clause generation: encodes the training set through
    /// [`DatasetBridge::build`] and runs the shared greedy loop.
    fn generate_clause(
        &self,
        set: &TrainingSet,
        poi: &PairExample,
        log: &ExecutionLog,
        query: &BoundQuery,
        target_observed: bool,
        width: usize,
    ) -> Predicate {
        if set.is_empty() || width == 0 {
            return Predicate::always_true();
        }
        let catalog = self.pair_catalog(log, query);
        let excluded = crate::query::excluded_raw_features(query, &self.config);
        let bridge = DatasetBridge::build(set, poi, &catalog, &excluded);
        self.generate_clause_from_bridge(&bridge, target_observed, width)
    }

    /// The greedy clause-growing loop shared by because and despite
    /// generation (lines 5–17 of Algorithm 1).  `target_observed` selects
    /// the class whose probability the clause maximises: `true` for the
    /// because clause (precision), `false` for the despite clause
    /// (relevance).
    fn generate_clause_from_bridge(
        &self,
        bridge: &DatasetBridge,
        target_observed: bool,
        width: usize,
    ) -> Predicate {
        self.generate_clause_cancellable(bridge, target_observed, width, &CancelToken::never())
            .expect("the never token cannot cancel clause generation")
    }

    /// [`PerfXplain::generate_clause_from_bridge`] with a cancellation
    /// check per clause-growing iteration (each iteration sweeps every
    /// attribute over the surviving pairs — the natural batch size).
    fn generate_clause_cancellable(
        &self,
        bridge: &DatasetBridge,
        target_observed: bool,
        width: usize,
        cancel: &CancelToken,
    ) -> Result<Predicate> {
        let dataset = bridge.dataset();
        if dataset.is_empty() || width == 0 {
            return Ok(Predicate::always_true());
        }

        let mut atoms: Vec<Atom> = Vec::new();
        let mut current: Vec<usize> = (0..dataset.len()).collect();

        for _ in 0..width {
            cancel.check()?;
            if current.is_empty() {
                break;
            }
            // Line 5 of Algorithm 1: the best (applicable) predicate for
            // every feature.  Each attribute's search is an independent
            // single-sort sweep with the applicability filter threaded
            // through it, so on large nodes the per-attribute searches fan
            // out over the shared worker pool; results are collected in
            // attribute order either way, keeping the scored candidate list
            // (and therefore the percentile normalisation below)
            // bit-identical to the serial loop.
            let attrs: Vec<usize> = (0..bridge.num_attributes())
                .filter(|&attr| {
                    !bridge.poi_value(attr).is_missing()
                        && !atoms.iter().any(|a| a.feature == bridge.attr_name(attr))
                })
                .collect();
            let search = |attr: usize| {
                let poi_value = bridge.poi_value(attr);
                best_split_for_attribute_filtered(dataset, &current, attr, |atom| {
                    atom.matches_value(poi_value)
                })
                .map(|candidate| (attr, candidate))
            };
            let per_chunk: Vec<Vec<(usize, SplitCandidate)>> = crate::pool::shared()
                .map_chunks_gated(&attrs, current.len().saturating_mul(attrs.len()), |chunk| {
                    chunk.iter().filter_map(|&attr| search(attr)).collect()
                });
            let candidates: Vec<(usize, SplitCandidate)> =
                per_chunk.into_iter().flatten().collect();
            if candidates.is_empty() {
                break;
            }

            // Lines 6–14: precision and generality of every candidate over
            // the pairs satisfying the clause built so far, percentile
            // normalisation, weighted score.
            let precisions: Vec<f64> = candidates
                .iter()
                .map(|(_, c)| {
                    let total = c.inside.total() as f64;
                    let hits = if target_observed {
                        c.inside.positive as f64
                    } else {
                        c.inside.negative as f64
                    };
                    if total == 0.0 {
                        0.0
                    } else {
                        hits / total
                    }
                })
                .collect();
            let generalities: Vec<f64> = candidates
                .iter()
                .map(|(_, c)| c.inside.total() as f64 / current.len() as f64)
                .collect();
            let (precision_scores, generality_scores) = if self.config.normalize_scores {
                (
                    percentile_ranks(&precisions),
                    percentile_ranks(&generalities),
                )
            } else {
                (precisions.clone(), generalities.clone())
            };

            let w = self.config.precision_weight;
            let mut best_index = 0usize;
            let mut best_score = f64::MIN;
            for i in 0..candidates.len() {
                let score = w * precision_scores[i] + (1.0 - w) * generality_scores[i];
                let better = score > best_score + 1e-12
                    || ((score - best_score).abs() <= 1e-12
                        && precisions[i] > precisions[best_index]);
                if better {
                    best_score = score;
                    best_index = i;
                }
            }

            // Lines 15–17: extend the clause and keep only the pairs that
            // satisfy it.
            let (_, winner) = &candidates[best_index];
            let atom = bridge.atom_to_pxql(&winner.atom);
            current.retain(|&row| winner.atom.matches_row(dataset, row));
            atoms.push(atom);
        }

        Ok(Predicate::from_atoms(atoms))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;
    use crate::query::BoundQuery;
    use crate::record::ExecutionRecord;
    use crate::training::prepare_training_set;
    use pxql::{parse_query, Value};

    /// A synthetic log reproducing the motivating scenario: pairs where one
    /// job reads much more data than the other have similar durations
    /// exactly when the block size is large and the cluster is big.
    fn block_size_log(n: usize) -> ExecutionLog {
        let mut log = ExecutionLog::new();
        for i in 0..n {
            let big_blocks = i % 2 == 0;
            let big_cluster = i % 3 != 0;
            let input: f64 = if i % 4 < 2 { 32.0e9 } else { 1.0e9 };
            let blocksize = if big_blocks { 1024.0 } else { 64.0 };
            let instances = if big_cluster { 150.0 } else { 4.0 };
            // Jobs bottlenecked by per-block time when blocks are large and
            // the cluster has spare capacity; otherwise runtime scales with
            // input size and inversely with the cluster size.
            let duration = if big_blocks && big_cluster {
                600.0
            } else {
                input / (instances * 2.0e7)
            };
            log.push(
                ExecutionRecord::job(format!("job_{i}"))
                    .with_feature("inputsize", input)
                    .with_feature("blocksize", blocksize)
                    .with_feature("numinstances", instances)
                    .with_feature("iosortfactor", 10.0 + (i % 3) as f64)
                    .with_feature("duration", duration),
            );
        }
        log.rebuild_catalogs();
        log
    }

    fn same_duration_query(log: &ExecutionLog) -> BoundQuery {
        // Find a pair of interest: larger input, similar duration.
        let q = parse_query(
            "DESPITE inputsize_compare = GT\n\
             OBSERVED duration_compare = SIM\n\
             EXPECTED duration_compare = GT",
        )
        .unwrap();
        // job_4 (32 GB, big blocks, big cluster, 600 s) vs job_2 (1 GB, big
        // blocks, big cluster, 600 s).
        let _ = log;
        BoundQuery::new(q, "job_4", "job_2")
    }

    #[test]
    fn finds_the_block_size_explanation() {
        let log = block_size_log(40);
        let query = same_duration_query(&log);
        let engine = PerfXplain::new(ExplainConfig::default().with_width(2).with_seed(3));
        let explanation = engine.explain(&log, &query).unwrap();

        // The because clause must be applicable to the pair of interest.
        let poi = query.verify_preconditions(&log, 0.1).unwrap();
        assert!(explanation.is_applicable(&poi));
        assert!(explanation.width() >= 1);

        // The explanation should be about the block size and/or the cluster
        // size — the two features that actually drive the behaviour — and
        // must never mention the duration itself.
        let mentioned: Vec<&str> = explanation.because.features();
        assert!(
            mentioned.iter().all(|f| !f.starts_with("duration")),
            "circular explanation: {mentioned:?}"
        );
        assert!(
            mentioned
                .iter()
                .any(|f| f.starts_with("blocksize") || f.starts_with("numinstances")),
            "unexpected explanation: {}",
            explanation.because
        );
    }

    #[test]
    fn explanation_has_high_precision_on_training_pairs() {
        let log = block_size_log(40);
        let query = same_duration_query(&log);
        let config = ExplainConfig::default().with_width(3).with_seed(1);
        let engine = PerfXplain::new(config.clone());
        let explanation = engine.explain(&log, &query).unwrap();

        let set = prepare_training_set(&log, &query, &config).unwrap();
        let quality = metrics::assess(&set, &explanation);
        assert!(
            quality.precision.unwrap_or(0.0) > 0.9,
            "precision = {:?}",
            quality.precision
        );
        assert!(quality.generality.unwrap_or(0.0) > 0.0);
    }

    #[test]
    fn width_zero_yields_trivial_clause() {
        let log = block_size_log(24);
        let query = same_duration_query(&log);
        let engine = PerfXplain::new(ExplainConfig::default().with_width(0));
        let explanation = engine.explain(&log, &query).unwrap();
        assert!(explanation.because.is_trivial());
    }

    #[test]
    fn wider_explanations_beat_the_empty_explanation() {
        let log = block_size_log(40);
        let query = same_duration_query(&log);
        let config = ExplainConfig::default().with_seed(5);
        let set = prepare_training_set(&log, &query, &config).unwrap();

        // Precision of the empty explanation is the base rate P(obs | des).
        let baseline = metrics::precision(&set, &Explanation::default()).unwrap_or(0.0);
        for width in 1..=3 {
            let engine = PerfXplain::new(config.clone().with_width(width));
            let explanation = engine.explain(&log, &query).unwrap();
            let precision = metrics::precision(&set, &explanation).unwrap_or(0.0);
            assert!(
                precision >= baseline,
                "width-{width} precision {precision} fell below the base rate {baseline}"
            );
        }
    }

    #[test]
    fn generated_despite_clause_raises_relevance() {
        let log = block_size_log(40);
        // Under-specified query: no despite clause at all.
        let q = parse_query(
            "OBSERVED duration_compare = SIM\n\
             EXPECTED duration_compare = GT",
        )
        .unwrap();
        let query = BoundQuery::new(q, "job_4", "job_2");
        let config = ExplainConfig::default().with_seed(11);
        let engine = PerfXplain::new(config.clone());

        let set = prepare_training_set(&log, &query, &config).unwrap();
        let baseline = metrics::relevance(&set, &Predicate::always_true()).unwrap_or(0.0);
        let despite = engine.generate_despite(&log, &query).unwrap();
        let improved = metrics::relevance(&set, &despite).unwrap_or(0.0);
        assert!(
            improved >= baseline,
            "relevance did not improve: {baseline} -> {improved}"
        );
        // The generated clause must hold for the pair of interest.
        let poi = query.verify_preconditions(&log, 0.1).unwrap();
        assert!(despite.eval(&poi));
    }

    #[test]
    fn explain_full_extends_underspecified_queries() {
        let log = block_size_log(40);
        let q = parse_query(
            "OBSERVED duration_compare = SIM\n\
             EXPECTED duration_compare = GT",
        )
        .unwrap();
        let query = BoundQuery::new(q, "job_4", "job_2");
        let engine = PerfXplain::new(ExplainConfig::default().with_seed(13));
        let (explanation, extended) = engine.explain_full(&log, &query).unwrap();
        // The base rate of "expected" pairs is well below the threshold, so
        // a despite extension must have been generated and folded in.
        assert!(!explanation.despite.is_trivial());
        assert!(extended.query.despite.width() >= explanation.despite.width());
        let poi = query.verify_preconditions(&log, 0.1).unwrap();
        assert!(explanation.is_applicable(&poi));
    }

    #[test]
    fn level1_features_restrict_the_vocabulary() {
        let log = block_size_log(40);
        let query = same_duration_query(&log);
        let engine = PerfXplain::new(
            ExplainConfig::default()
                .with_feature_level(crate::levels::FeatureLevel::Level1)
                .with_width(3),
        );
        let explanation = engine.explain(&log, &query).unwrap();
        for atom in explanation.because.atoms() {
            assert!(
                atom.feature.ends_with("_isSame"),
                "level-1 explanation used {}",
                atom.feature
            );
            assert!(matches!(atom.constant, Value::Bool(_) | Value::Str(_)));
        }
    }

    #[test]
    fn precondition_violations_are_reported() {
        let log = block_size_log(24);
        // job_2 vs job_0 violates the despite clause (inputsize LT, not GT).
        let q = parse_query(
            "DESPITE inputsize_compare = GT\n\
             OBSERVED duration_compare = SIM\n\
             EXPECTED duration_compare = GT",
        )
        .unwrap();
        let query = BoundQuery::new(q, "job_2", "job_0");
        let engine = PerfXplain::with_defaults();
        assert!(engine.explain(&log, &query).is_err());
    }
}
