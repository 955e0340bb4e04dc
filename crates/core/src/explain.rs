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

use crate::bridge::{DatasetBridge, SharedDataset};
use crate::cancel::CancelToken;
use crate::columnar::ColumnarLog;
use crate::config::ExplainConfig;
use crate::error::Result;
use crate::explanation::Explanation;
use crate::pairs::PairCatalog;
use crate::query::BoundQuery;
use crate::record::ExecutionLog;
use crate::service::XplainService;
use crate::training::{
    prepare_encoded_training_in, prepare_encoded_training_memoized, Drawn, EncodedTraining,
    SampleMemo,
};
use mlcore::{percentile_ranks, RowMask, SplitCandidate};
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

    /// The split-search bridge of a training set for the query's pair of
    /// interest.  The sample's encoded dataset is `cached` on a memo hit;
    /// otherwise it is encoded straight from the view (one pass, no
    /// pair-feature maps) and, with a memo, inserted with the sample.
    /// Either way only the pair's row is encoded per request.
    fn bridge_for(
        &self,
        training: &EncodedTraining<'_>,
        cached: Option<Arc<SharedDataset>>,
        query: &BoundQuery,
        memo: Option<&SampleMemo>,
    ) -> DatasetBridge {
        let shared = cached.unwrap_or_else(|| {
            let catalog = self.pair_catalog(training.log(), query);
            let excluded = crate::query::excluded_raw_features(query, &self.config);
            let shared = Arc::new(SharedDataset::from_view(
                training,
                &catalog,
                &excluded,
                self.config.sim_threshold,
            ));
            if let Some(memo) = memo {
                memo.insert(query, &self.config, training, &shared);
            }
            shared
        });
        let poi = training
            .poi_rows(query)
            .expect("pair-of-interest rows exist after verify_preconditions");
        DatasetBridge::for_pair(shared, &training.view, poi, self.config.sim_threshold)
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
        query.verify_preconditions(log, self.config.sim_threshold)?;
        self.explain_with_training(log, view, query, false, None, &CancelToken::never(), None)
            .map(|(explanation, _, _, _)| explanation)
    }

    /// The shared explanation pipeline for a query whose preconditions the
    /// caller has verified: train, grow the because clause (optionally
    /// extending the despite clause first), and hand the final training set
    /// back so callers (assessment, despite metrics) can reuse it instead
    /// of re-enumerating the pairs.
    ///
    /// Both enumerations go through `memo` when one is given: the served
    /// path passes its cached view's sample memo, the stateless paths pass
    /// `None` and always enumerate.  The returned flag is `true` when no
    /// enumeration ran, every training set having come from the memo.
    ///
    /// `cancel` is checked cooperatively at the pipeline's phase boundaries
    /// — before each enumeration, per batch of the pair enumeration, and
    /// per clause-growing iteration — so a networked caller's deadline or
    /// abort surfaces as [`CoreError::Cancelled`](crate::CoreError::Cancelled)
    /// / [`CoreError::DeadlineExceeded`](crate::CoreError::DeadlineExceeded)
    /// within one phase of firing.
    ///
    /// `cost_probe`, when given, fires exactly once with the actual related
    /// pair count right after the first training set is drawn — the moment
    /// the real workload becomes known, memoized or not — so admission
    /// control can refine the request's charged cost mid-flight.
    #[allow(clippy::too_many_arguments)] // internal seam: service + stateless engine share it
    pub(crate) fn explain_with_training<'a>(
        &self,
        log: &'a ExecutionLog,
        view: Arc<ColumnarLog>,
        query: &BoundQuery,
        extend_despite: bool,
        memo: Option<&SampleMemo>,
        cancel: &CancelToken,
        cost_probe: Option<&crate::service::CostProbe>,
    ) -> Result<(Explanation, BoundQuery, EncodedTraining<'a>, bool)> {
        let Drawn { training, dataset } = prepare_encoded_training_memoized(
            log,
            view.clone(),
            query,
            &self.config,
            cancel,
            memo,
        )?;
        if let Some(probe) = cost_probe {
            probe.fire(training.related_pairs as u64);
        }
        let mut sample_reused = dataset.is_some();

        // Relevance of the empty extension over the sample: the fraction of
        // pairs that performed as expected.  Below the threshold the
        // despite clause is extended and the training set regenerated in
        // the narrower context — on the same view, which only changes the
        // compiled predicates, not the encoding.
        let base_relevance = training.num_expected() as f64 / training.len().max(1) as f64;
        let bridge = self.bridge_for(&training, dataset, query, memo);
        if extend_despite && base_relevance < self.config.relevance_threshold {
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
            let Drawn {
                training: extended_training,
                dataset,
            } = prepare_encoded_training_memoized(
                log,
                view,
                &extended,
                &self.config,
                cancel,
                memo,
            )?;
            sample_reused &= dataset.is_some();
            let extended_bridge = self.bridge_for(&extended_training, dataset, &extended, memo);
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
                sample_reused,
            ));
        }

        let because = self.generate_clause_cancellable(&bridge, true, self.config.width, cancel)?;
        Ok((
            Explanation::because_only(because),
            query.clone(),
            training,
            sample_reused,
        ))
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
        let bridge = self.bridge_for(&training, None, query, None);
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
        query.verify_preconditions(log, self.config.sim_threshold)?;
        self.explain_with_training(log, view, query, true, None, &CancelToken::never(), None)
            .map(|(explanation, effective, _, _)| (explanation, effective))
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
            // every feature.  Each attribute's search is independent, so on
            // large nodes the per-attribute searches fan out over the
            // shared worker pool; results are collected in attribute order
            // either way, keeping the scored candidate list (and therefore
            // the percentile normalisation below) bit-identical to the
            // serial loop.  Every search starts from the attribute's
            // summary over every row, which the bridge shares with every
            // pair asked against the same sample.  The first iteration
            // searches every row, so there the search is the summary's
            // replay under the applicability filter.  A later one searches
            // the rows satisfying the clause so far: their mask and class
            // counts are built once, and each attribute's search scores
            // only what the pair of interest satisfies over them (one pass
            // of a nominal column, or a walk of a numeric one's kept sort),
            // with no sort and no new summary.
            let first = atoms.is_empty();
            let attrs: Vec<usize> = (0..bridge.num_attributes())
                .filter(|&attr| {
                    !bridge.poi_value(attr).is_missing()
                        && !atoms.iter().any(|a| a.feature == bridge.attr_name(attr))
                })
                .collect();
            let mask = (!first).then(|| RowMask::new(dataset, &current));
            let search = |attr: usize| {
                let summary = bridge.summary(attr);
                let value = bridge.poi_value(attr);
                match &mask {
                    None => summary.best_applicable_to(value),
                    Some(mask) => summary.best_applicable_within(dataset, mask, value),
                }
                .map(|candidate| (attr, candidate))
            };
            let work = if first {
                attrs.iter().map(|&attr| bridge.summary_work(attr)).sum()
            } else {
                dataset.len().saturating_mul(attrs.len())
            };
            let per_chunk: Vec<Vec<(usize, SplitCandidate)>> = crate::pool::shared()
                .map_chunks_gated(&attrs, work, |chunk| {
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
            winner.atom.retain_matching(dataset, &mut current);
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
    use crate::training::prepare_encoded_training;
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
        let poi = query.pair_of_interest(&log, 0.1).unwrap();
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

        let set = prepare_encoded_training(&log, &query, &config).unwrap();
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
        let set = prepare_encoded_training(&log, &query, &config).unwrap();

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

        let set = prepare_encoded_training(&log, &query, &config).unwrap();
        let baseline = metrics::relevance(&set, &Predicate::always_true()).unwrap_or(0.0);
        let despite = engine.generate_despite(&log, &query).unwrap();
        let improved = metrics::relevance(&set, &despite).unwrap_or(0.0);
        assert!(
            improved >= baseline,
            "relevance did not improve: {baseline} -> {improved}"
        );
        // The generated clause must hold for the pair of interest.
        let poi = query.pair_of_interest(&log, 0.1).unwrap();
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
        let poi = query.pair_of_interest(&log, 0.1).unwrap();
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

    /// A log whose durations follow two nominal features, with ties and
    /// `Bool(true)` beside `"T"`, so grown clauses pick nominal atoms.
    fn nominal_log(seed: u64) -> ExecutionLog {
        let scripts = [
            Value::str("a.pig"),
            Value::str("b.pig"),
            Value::Bool(true),
            Value::str("T"),
            Value::str("c.pig"),
        ];
        let hosts = ["h1", "h2", "h3", "h4"];
        let mut log = ExecutionLog::new();
        for i in 0..36u64 {
            let h = (seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i.wrapping_mul(0xBF58_476D)) >> 7;
            let script = scripts[(h % 5) as usize].clone();
            let host = hosts[((h >> 5) % 4) as usize];
            let input = [1.0e9, 4.0e9, 32.0e9][((h >> 9) % 3) as usize];
            let plateau = host == "h1" || matches!(script, Value::Bool(true));
            let duration = if plateau {
                600.0
            } else {
                input / 5.0e7 + (h % 7) as f64
            };
            let mut record = ExecutionRecord::job(format!("job_{i}"))
                .with_feature("inputsize", input)
                .with_feature("host", host)
                .with_feature("duration", duration);
            record.set_feature("pigscript", script);
            log.push(record);
        }
        log.rebuild_catalogs();
        log
    }

    /// Renumbering every attribute's nominal ids by a random bijection —
    /// in the cells, the pair's row and the originals — changes no grown
    /// clause: nothing orders by id.
    #[test]
    fn the_grown_clause_does_not_depend_on_nominal_ids() {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;

        let templates = [
            "DESPITE inputsize_compare = GT\n\
             OBSERVED duration_compare = SIM\n\
             EXPECTED duration_compare = GT",
            "DESPITE pigscript_isSame = T AND inputsize_compare = GT\n\
             OBSERVED duration_compare = SIM\n\
             EXPECTED duration_compare = GT",
        ];
        let mut nominal_atoms = 0;
        for seed in 0..24u64 {
            let log = nominal_log(seed);
            let engine = PerfXplain::new(ExplainConfig::default().with_seed(seed));
            let view = Arc::new(ColumnarLog::build(&log, crate::record::ExecutionKind::Job));
            for text in templates {
                let template = parse_query(text).unwrap();
                let Some(bound) = pair_of_interest_for(&log, &template, seed) else {
                    continue;
                };
                let Ok(training) =
                    prepare_encoded_training_in(&log, view.clone(), &bound, engine.config())
                else {
                    continue;
                };
                let bridge = engine.bridge_for(&training, None, &bound, None);
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let permutations: Vec<Vec<u32>> = bridge
                    .dataset()
                    .attributes()
                    .iter()
                    .map(|attribute| {
                        let mut ids: Vec<u32> = (0..attribute.dictionary.len() as u32).collect();
                        ids.shuffle(&mut rng);
                        ids
                    })
                    .collect();
                let renumbered = bridge.renumbered(|attr, id| permutations[attr][id as usize]);
                for target_observed in [true, false] {
                    let clause = engine.generate_clause_from_bridge(&bridge, target_observed, 3);
                    let again = engine.generate_clause_from_bridge(&renumbered, target_observed, 3);
                    assert_eq!(clause, again, "seed {seed}, {bound:?}");
                    nominal_atoms += clause
                        .atoms()
                        .iter()
                        .filter(|atom| !matches!(atom.constant, Value::Num(_)))
                        .count();
                }
            }
        }
        assert!(nominal_atoms > 0, "no clause tested a nominal atom");
    }

    /// The first pair of `log`, searched from an offset fixed by `seed`,
    /// for which `template`'s preconditions hold.
    fn pair_of_interest_for(
        log: &ExecutionLog,
        template: &pxql::PxqlQuery,
        seed: u64,
    ) -> Option<BoundQuery> {
        let n = log.jobs().count();
        (0..n * n)
            .map(|k| (seed as usize * 37 + k) % (n * n))
            .filter(|k| k / n != k % n)
            .map(|k| {
                BoundQuery::new(
                    template.clone(),
                    format!("job_{}", k / n),
                    format!("job_{}", k % n),
                )
            })
            .find(|bound| bound.verify_preconditions(log, 0.1).is_ok())
    }

    /// Clauses grown from the bridge encoded straight from the view equal
    /// those grown from the reference bridge over the sampled pairs'
    /// feature maps ([`DatasetBridge::build`]), because clause and despite
    /// extension alike, and the engine's entry points return them.  They
    /// are compared as text: where `Bool(true)` and `"T"` share one view
    /// id, the view renders a nominal constant as the first of them in its
    /// column, the maps as the pair's own value.
    #[test]
    fn encoded_explanations_match_the_map_based_path() {
        let templates = [
            "DESPITE inputsize_compare = GT\n\
             OBSERVED duration_compare = SIM\n\
             EXPECTED duration_compare = GT",
            "DESPITE pigscript_isSame = T\n\
             OBSERVED duration_compare = GT\n\
             EXPECTED duration_compare = SIM",
            "OBSERVED duration_compare = SIM\n\
             EXPECTED duration_compare = GT",
        ];
        let mut compared = 0;
        for seed in 0..16u64 {
            let mut config = ExplainConfig::default()
                .with_seed(seed)
                .with_sample_size(400);
            config.max_candidate_pairs = usize::MAX;
            let engine = PerfXplain::new(config.clone());
            for log in [nominal_log(seed), block_size_log(24 + seed as usize)] {
                for text in templates {
                    let template = parse_query(text).unwrap();
                    let Some(bound) = pair_of_interest_for(&log, &template, seed) else {
                        continue;
                    };
                    let Ok(training) = prepare_encoded_training(&log, &bound, &config) else {
                        continue;
                    };
                    let poi = bound.pair_of_interest(&log, config.sim_threshold).unwrap();
                    let catalog = engine.pair_catalog(&log, &bound);
                    let excluded = crate::query::excluded_raw_features(&bound, &config);
                    let by_maps = DatasetBridge::build(&training, &poi, &catalog, &excluded);
                    let by_view = engine.bridge_for(&training, None, &bound, None);
                    let grow = |bridge: &DatasetBridge, target_observed, width| {
                        engine
                            .generate_clause_from_bridge(bridge, target_observed, width)
                            .to_string()
                    };

                    let because = grow(&by_maps, true, config.width);
                    assert_eq!(grow(&by_view, true, config.width), because, "{bound:?}");
                    let explained = engine.explain(&log, &bound).unwrap();
                    assert_eq!(explained.because.to_string(), because);
                    let despite = grow(&by_maps, false, config.despite_width);
                    assert_eq!(grow(&by_view, false, config.despite_width), despite);
                    let generated = engine.generate_despite(&log, &bound).unwrap();
                    assert_eq!(generated.to_string(), despite);
                    compared += 1;
                }
            }
        }
        assert!(compared >= 16, "only {compared} queries compared");
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
