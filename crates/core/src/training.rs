//! Construction of training examples from the execution log.
//!
//! `constructTrainingExamples` (line 1 of Algorithm 1) turns the log into
//! the set of pairs *related* to the query: pairs that satisfy the despite
//! clause and either the observed or the expected clause.  The pairs that
//! performed as observed become positive examples, the pairs that performed
//! as expected become negative ones.  `sample` (line 2) then draws a
//! class-balanced sample so that explanation generation stays fast and is
//! not misled by skewed class frequencies.
//!
//! Enumerating every ordered pair of a large log is quadratic, so the
//! builder applies two optimisations that do not change the result
//! semantics:
//!
//! * **Blocking** — when the despite clause contains `f_isSame = T` for a
//!   nominal raw feature (e.g. `jobid_isSame = T` for task queries), only
//!   pairs within the same group can possibly be related, so only those are
//!   enumerated.  Rows are grouped in one counting pass keyed by the cell's
//!   global dictionary id, never by a decoded string; only the distinct ids
//!   are then sorted, by their canonical PXQL text.  Text order is kept
//!   because the group order fixes every candidate's ordinal, and the cap
//!   below decides by ordinal: reordering the groups would change which
//!   candidates the cap keeps.
//! * **Capping** — if the candidate space is still larger than
//!   `max_candidate_pairs`, a deterministic subset is kept, decided by a
//!   stateless per-candidate hash so that enumeration order (and therefore
//!   parallelism) cannot change the outcome.  Candidates are numbered
//!   `0, 1, …` in enumeration order: groups in text order, then the
//!   left-hand row by position in its group, then the right-hand row by
//!   position, skipping the left.  Candidate `k` of `total` is kept iff
//!   `u < max_candidate_pairs / total`, where `u` is the top 53 bits of
//!   SplitMix64(`seed ^ 0xC0FFEE ^ k`) scaled into `[0, 1)`.
//!
//! The enumeration itself is **streaming**: candidates are classified
//! against a [`CompiledQuery`] as they are produced, so memory stays
//! proportional to the *related* pairs (bounded by the cap), never to the
//! O(n²) candidate space.  On multi-core machines the outer record loop
//! fans out over the shared worker pool
//! ([`WorkerPool::map_chunks_gated`](crate::pool::WorkerPool::map_chunks_gated))
//! once the plan enumerates [`MIN_FAN_OUT_WORK`](crate::pool::MIN_FAN_OUT_WORK)
//! candidates, blocked or not; smaller scans, and every scan on one CPU,
//! run inline.  Results are bit-identical either way.
//!
//! The sample depends on the query's three clauses and the configuration,
//! never on the pair of interest: that enters Algorithm 1 only at line 5,
//! where a candidate predicate must hold for it.  So one template asked
//! about many pairs needs one training set, and one encoding of it.  A
//! cached view of [`XplainService`](crate::service::XplainService) keeps a
//! `SampleMemo` of the samples drawn over it, and the served path fetches
//! its training set through `prepare_encoded_training_memoized`: a hit
//! hands back the same pairs, labels and related-pair count a fresh
//! enumeration would, without enumerating or copying, together with the
//! sample's encoded dataset (`SharedDataset`) once a request has stored
//! it.  The stateless paths pass no memo: they always enumerate and
//! featurize, and store nothing.

use crate::bridge::SharedDataset;
use crate::cancel::CancelToken;
use crate::columnar::{ColumnarLog, CompiledQuery};
use crate::config::ExplainConfig;
use crate::error::{CoreError, Result};
use crate::features::FeatureKind;
use crate::pairs::{parse_pair_feature, PairExample, PairFeatureGroup};
use crate::query::{BoundQuery, PairLabel};
use crate::record::{ExecutionLog, ExecutionRecord};
use mlcore::{balanced_sample, AttrValue, NominalDictionary};
use pxql::{Op, Predicate, Value};
use rand::rngs::StdRng;
use rand::RngExt;
use rand::SeedableRng;
use std::ops::Range;
use std::sync::{Arc, Mutex};

/// A class-balanced, fully materialised set of training pairs.
#[derive(Debug, Clone, Default)]
pub struct TrainingSet {
    /// The training pairs with their full pair-feature maps.
    pub examples: Vec<PairExample>,
    /// `true` for pairs that performed as observed (positive class).
    pub labels: Vec<bool>,
}

impl TrainingSet {
    /// Number of training pairs.
    pub fn len(&self) -> usize {
        self.examples.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.examples.is_empty()
    }

    /// Number of pairs that performed as observed.
    pub fn num_observed(&self) -> usize {
        self.labels.iter().filter(|&&l| l).count()
    }

    /// Number of pairs that performed as expected.
    pub fn num_expected(&self) -> usize {
        self.len() - self.num_observed()
    }

    /// Iterates over `(example, performed_as_observed)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&PairExample, bool)> {
        self.examples.iter().zip(self.labels.iter().copied())
    }
}

/// A related candidate pair before materialisation: indices into the record
/// list plus its label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RelatedPair {
    /// Index of the first execution in the per-kind record list.
    pub left: usize,
    /// Index of the second execution.
    pub right: usize,
    /// Observed or expected.
    pub label: PairLabel,
}

/// Finds a blocking key in the despite clause: a `f_isSame = T` atom whose
/// raw feature is nominal.  Pairs disagreeing on that raw feature can never
/// satisfy the despite clause, so enumeration can be restricted to groups of
/// records sharing the raw value.
fn blocking_feature<'a>(query: &'a BoundQuery, log: &ExecutionLog) -> Option<&'a str> {
    let catalog = log.catalog(query.kind);
    for atom in query.query.despite.atoms() {
        if atom.op != Op::Eq {
            continue;
        }
        let wants_true = match &atom.constant {
            Value::Bool(b) => *b,
            Value::Str(s) => s.eq_ignore_ascii_case("T") || s.eq_ignore_ascii_case("true"),
            _ => false,
        };
        if !wants_true {
            continue;
        }
        let (raw, group) = parse_pair_feature(&atom.feature);
        if group == PairFeatureGroup::IsSame && catalog.kind(raw) == Some(FeatureKind::Nominal) {
            return Some(raw);
        }
    }
    None
}

/// The candidate enumeration plan: the rows arranged group after group,
/// where the candidates are the ordered pairs within each group.  An
/// unblocked query is one group of every row, `0..n`.
///
/// Candidates are numbered by their *ordinal* in enumeration order: groups
/// in plan order, then the left-hand row by its position in the group, then
/// the right-hand row by position, skipping the left.  The cap decides per
/// ordinal, so the group order is part of the result.
struct CandidatePlan {
    /// Row indices, group after group; rows ascend within a group.
    rows: Vec<usize>,
    /// Each group's span of `rows`, in enumeration order.
    groups: Vec<Range<usize>>,
}

/// Number of candidates in `groups`: the ordered pairs within each group.
fn candidates_in(groups: &[Range<usize>]) -> u64 {
    groups
        .iter()
        .map(|g| (g.len() as u64) * (g.len().saturating_sub(1) as u64))
        .sum()
}

impl CandidatePlan {
    /// Builds the plan for a query over a view, applying blocking when the
    /// despite clause allows it.
    fn build(view: &ColumnarLog, query: &BoundQuery, log: &ExecutionLog) -> CandidatePlan {
        let n = view.num_rows();
        match blocking_feature(query, log).and_then(|feature| view.column_of(feature)) {
            Some(col) => CandidatePlan::blocked(view, col),
            None => CandidatePlan {
                rows: (0..n).collect(),
                groups: vec![Range { start: 0, end: n }],
            },
        }
    }

    /// Groups the rows by their cell in the blocking column `col`, ordered
    /// by the cell's canonical PXQL text — the order of the map-based path,
    /// which keyed a `BTreeMap<String, _>` by `Value::to_string()`.  Rows
    /// with a missing cell can never satisfy `f_isSame = T` and are dropped.
    ///
    /// The grouping is a counting sort over group keys, never a string per
    /// row: a nominal cell's key is its global dictionary id, one pass
    /// reads the keys, the rows are counted per key, and only the distinct
    /// keys are sorted by their text.  The dictionary is keyed by that same
    /// text, so equal texts share an id.  A numeric cell (possible when
    /// records were pushed under a stale catalog) takes the id of the
    /// dictionary entry with its text, or else an extra key shared by every
    /// numeric cell with that text.
    fn blocked(view: &ColumnarLog, col: usize) -> CandidatePlan {
        use std::fmt::Write as _;
        let dictionary = view.dictionary(col);
        let mut numeric = NominalDictionary::new();
        let mut text = String::new();
        let keys: Vec<Option<u32>> = (0..view.num_rows())
            .map(|row| match view.cell(row, col) {
                AttrValue::Missing => None,
                AttrValue::Nom(id) => Some(id),
                AttrValue::Num(v) => {
                    text.clear();
                    write!(text, "{}", Value::Num(v))
                        .expect("formatting into a String cannot fail");
                    Some(match dictionary.get(&text) {
                        Some(id) => id,
                        None => dictionary.len() as u32 + numeric.intern(&text),
                    })
                }
            })
            .collect();
        let key_text = |key: usize| {
            match key.checked_sub(dictionary.len()) {
                None => dictionary.resolve(key as u32),
                Some(extra) => numeric.resolve(extra as u32),
            }
            .expect("every group key names an interned text")
        };

        let mut counts = vec![0usize; dictionary.len() + numeric.len()];
        for &key in keys.iter().flatten() {
            counts[key as usize] += 1;
        }
        let mut order: Vec<usize> = (0..counts.len()).filter(|&key| counts[key] > 0).collect();
        order.sort_unstable_by(|&a, &b| key_text(a).cmp(key_text(b)));

        // Lay the groups out in text order; `next[key]` is the slot the
        // key's next row goes to, so rows ascend within each group.
        let mut next = vec![0usize; counts.len()];
        let mut groups = Vec::with_capacity(order.len());
        let mut start = 0;
        for key in order {
            next[key] = start;
            groups.push(start..start + counts[key]);
            start += counts[key];
        }
        let mut rows = vec![0usize; start];
        for (row, key) in keys.into_iter().enumerate() {
            if let Some(key) = key {
                let slot = &mut next[key as usize];
                rows[*slot] = row;
                *slot += 1;
            }
        }
        CandidatePlan { rows, groups }
    }

    /// Total number of candidates the plan enumerates.
    fn total(&self) -> u64 {
        candidates_in(&self.groups)
    }

    /// Classifies, in enumeration order, the candidates whose left-hand row
    /// sits at `positions` of the plan's row order, appending the related
    /// pairs to `out`.  The serial scan is one call over every position and
    /// each fan-out chunk one call over its span, so both run this loop.
    /// The cancellation token is checked every [`CANCEL_CHECK_ROWS`]
    /// left-hand rows.
    fn scan(
        &self,
        positions: Range<usize>,
        view: &ColumnarLog,
        compiled: &CompiledQuery,
        keep: Option<(u64, f64)>,
        cancel: &CancelToken,
        out: &mut Vec<RelatedPair>,
    ) -> Result<()> {
        if positions.is_empty() {
            return Ok(());
        }
        // The group holding the first position, and `base`: the ordinal of
        // that position's first candidate.
        let mut g = self
            .groups
            .partition_point(|group| group.end <= positions.start);
        let first = &self.groups[g];
        let mut base = candidates_in(&self.groups[..g])
            + (positions.start - first.start) as u64 * (first.len() as u64 - 1);
        for (index, position) in positions.enumerate() {
            if index % CANCEL_CHECK_ROWS == 0 {
                cancel.check()?;
            }
            while self.groups[g].end <= position {
                g += 1;
            }
            let members = &self.rows[self.groups[g].clone()];
            let at = position - self.groups[g].start;
            let left = members[at];
            let others = members[..at].iter().chain(&members[at + 1..]);
            for (offset, &right) in others.enumerate() {
                if let Some((seed_mix, probability)) = keep {
                    if unit_f64(mix64(seed_mix ^ (base + offset as u64))) >= probability {
                        continue;
                    }
                }
                let label = compiled.classify(view, left, right);
                if label.is_related() {
                    out.push(RelatedPair { left, right, label });
                }
            }
            base += members.len() as u64 - 1;
        }
        Ok(())
    }
}

/// SplitMix64 finaliser: a stateless, well-mixed hash of a candidate
/// ordinal, used for order-independent capping decisions.
fn mix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a hash to a uniform f64 in [0, 1).
fn unit_f64(hash: u64) -> f64 {
    (hash >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Left-hand rows scanned between two cancellation checks.  One left-hand
/// row classifies up to n candidates, so at 512 rows the check amortises to
/// well under a nanosecond per candidate while an expired deadline still
/// stops a large enumeration within milliseconds.
const CANCEL_CHECK_ROWS: usize = 512;

/// Enumerates and classifies the related pairs of an encoded view without
/// materialising the candidate space: memory stays proportional to the
/// related pairs (bounded by `max_candidate_pairs`), never O(n²).
pub fn collect_related_pairs_in(
    view: &ColumnarLog,
    query: &BoundQuery,
    log: &ExecutionLog,
    config: &ExplainConfig,
) -> Vec<RelatedPair> {
    collect_related_pairs_cancellable(view, query, log, config, &CancelToken::never())
        .expect("the never token cannot cancel the enumeration")
}

/// [`collect_related_pairs_in`] with a cooperative cancellation token,
/// checked every `CANCEL_CHECK_ROWS` left-hand rows (per pool chunk when
/// the scan fans out).  On cancellation the partial result is discarded and
/// the token's error comes back.
pub fn collect_related_pairs_cancellable(
    view: &ColumnarLog,
    query: &BoundQuery,
    log: &ExecutionLog,
    config: &ExplainConfig,
    cancel: &CancelToken,
) -> Result<Vec<RelatedPair>> {
    cancel.check()?;
    if view.num_rows() < 2 {
        return Ok(Vec::new());
    }
    let compiled = CompiledQuery::compile(query, view, config.sim_threshold);
    let plan = CandidatePlan::build(view, query, log);
    let total = plan.total();
    let keep = (total > config.max_candidate_pairs as u64).then(|| {
        (
            config.seed ^ 0xC0FFEE,
            config.max_candidate_pairs as f64 / total as f64,
        )
    });

    // One contiguous span of positions per pool thread; the chunks come
    // back in span order, so the concatenation is the serial scan's output.
    let pool = crate::pool::shared();
    let positions = plan.rows.len();
    let step = positions.div_ceil(pool.threads()).max(1);
    let spans: Vec<Range<usize>> = (0..positions)
        .step_by(step)
        .map(|start| start..(start + step).min(positions))
        .collect();
    let work = usize::try_from(total).unwrap_or(usize::MAX);
    let mut chunks = pool
        .map_chunks_gated(&spans, work, |spans| {
            let mut out = Vec::new();
            for span in spans {
                plan.scan(span.clone(), view, &compiled, keep, cancel, &mut out)?;
            }
            Ok::<_, CoreError>(out)
        })
        .into_iter();
    let mut related = chunks.next().expect("a fan-out returns a chunk")?;
    for chunk in chunks {
        related.extend(chunk?);
    }
    Ok(related)
}

/// Enumerates and classifies the pairs of the log that are related to the
/// query.  Returns the per-kind record list alongside the related pairs so
/// that callers can materialise features later.
///
/// This encodes a fresh columnar view of the log; callers that already hold
/// a [`ColumnarLog`] should use [`collect_related_pairs_in`] to avoid the
/// re-encoding.
pub fn collect_related_pairs<'a>(
    log: &'a ExecutionLog,
    query: &BoundQuery,
    config: &ExplainConfig,
) -> (Vec<&'a ExecutionRecord>, Vec<RelatedPair>) {
    let view = ColumnarLog::build_auto(log, query.kind);
    let related = collect_related_pairs_in(&view, query, log, config);
    // The view encodes `of_kind` records in iteration order, so the borrowed
    // record list aligns with the pair indices.
    (log.of_kind(query.kind).collect(), related)
}

/// Draws the class-balanced (or ablation uniform) sample over the related
/// pairs, returning the selected indices into `related`.
fn sample_related(related: &[RelatedPair], config: &ExplainConfig) -> Result<Vec<usize>> {
    let observed = related
        .iter()
        .filter(|p| p.label == PairLabel::Observed)
        .count();
    let expected = related.len() - observed;
    if observed == 0 || expected == 0 {
        return Err(CoreError::NotEnoughTrainingPairs { observed, expected });
    }

    let labels: Vec<bool> = related
        .iter()
        .map(|p| p.label == PairLabel::Observed)
        .collect();
    let selected: Vec<usize> = if config.balanced_sampling {
        balanced_sample(&labels, config.sample_size, config.seed).0
    } else {
        // Ablation: a uniform sample of the related pairs, keeping the
        // original class skew.
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0xBA1A);
        let keep = (config.sample_size as f64 / labels.len() as f64).min(1.0);
        (0..labels.len())
            .filter(|_| keep >= 1.0 || rng.random::<f64>() < keep)
            .collect()
    };
    Ok(selected)
}

/// Draws the balanced sample of Section 4.3 and materialises the full pair
/// features of the selected pairs.
pub fn build_training_set(
    log: &ExecutionLog,
    query: &BoundQuery,
    records: &[&ExecutionRecord],
    related: &[RelatedPair],
    config: &ExplainConfig,
) -> Result<TrainingSet> {
    let selected = sample_related(related, config)?;
    let catalog = log.catalog(query.kind);
    let mut set = TrainingSet::default();
    for index in selected {
        let pair = &related[index];
        set.examples.push(PairExample::build(
            catalog,
            records[pair.left],
            records[pair.right],
            config.sim_threshold,
        ));
        set.labels.push(pair.label == PairLabel::Observed);
    }
    if set.num_observed() == 0 || set.num_expected() == 0 {
        return Err(CoreError::NotEnoughTrainingPairs {
            observed: set.num_observed(),
            expected: set.num_expected(),
        });
    }
    Ok(set)
}

/// Convenience: enumerate, classify, sample and materialise in one call.
pub fn prepare_training_set(
    log: &ExecutionLog,
    query: &BoundQuery,
    config: &ExplainConfig,
) -> Result<TrainingSet> {
    let (records, related) = collect_related_pairs(log, query, config);
    build_training_set(log, query, &records, &related, config)
}

/// A sampled training set kept in encoded (row index) form: the columnar
/// view plus the sampled `(left row, right row)` pairs and their labels.
/// The explanation engine consumes this directly — pair features of the
/// sampled pairs are encoded straight into the split-search dataset, and
/// [`PairExample`]s are only materialised at the API boundary.
///
/// The view is held behind an [`Arc`] so that a cached encoding (e.g. one
/// owned by [`XplainService`](crate::service::XplainService)) can feed many
/// training sets — across repeated queries and across threads — without
/// ever being rebuilt or copied.
#[derive(Debug, Clone)]
pub struct EncodedTraining<'a> {
    log: &'a ExecutionLog,
    /// The columnar encoded view the pairs index into.
    pub view: Arc<ColumnarLog>,
    /// Sampled `(left, right)` row pairs, in selection order.
    pub pairs: Arc<[(usize, usize)]>,
    /// `true` for pairs that performed as observed.
    pub labels: Arc<[bool]>,
    /// Total related pairs found by the enumeration, before sampling — the
    /// actual (not estimated) candidate workload, used to refine admission
    /// costs after the fact.
    pub related_pairs: usize,
}

impl<'a> EncodedTraining<'a> {
    /// Number of sampled pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the sample is empty.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Number of pairs that performed as observed.
    pub fn num_observed(&self) -> usize {
        self.labels.iter().filter(|&&l| l).count()
    }

    /// Number of pairs that performed as expected.
    pub fn num_expected(&self) -> usize {
        self.len() - self.num_observed()
    }

    /// The log this training set was drawn from.
    pub fn log(&self) -> &'a ExecutionLog {
        self.log
    }

    /// Rows of the query's pair of interest in the encoded view, or `None`
    /// when either execution id is absent from the view.  Always `Some` for
    /// a query that passed `verify_preconditions` against the same log
    /// generation.
    pub fn poi_rows(&self, query: &BoundQuery) -> Option<(usize, usize)> {
        Some((
            self.view.row_of(&query.left_id)?,
            self.view.row_of(&query.right_id)?,
        ))
    }

    /// Materialises the sampled pairs as [`PairExample`]s (the API /
    /// narration boundary representation).
    pub fn materialise(&self, sim_threshold: f64) -> TrainingSet {
        let catalog = self.log.catalog(self.view.kind());
        let record = |row| &self.log.records()[self.view.position(row)];
        let mut set = TrainingSet::default();
        for (&(left, right), &label) in self.pairs.iter().zip(self.labels.iter()) {
            set.examples.push(PairExample::build(
                catalog,
                record(left),
                record(right),
                sim_threshold,
            ));
            set.labels.push(label);
        }
        set
    }
}

/// Enumerates, classifies and samples the related pairs of the log, keeping
/// everything in encoded form.  One encoding pass over the log, no pair
/// feature maps.
pub fn prepare_encoded_training<'a>(
    log: &'a ExecutionLog,
    query: &BoundQuery,
    config: &ExplainConfig,
) -> Result<EncodedTraining<'a>> {
    let view = Arc::new(ColumnarLog::build_auto(log, query.kind));
    prepare_encoded_training_in(log, view, query, config)
}

/// Like [`prepare_encoded_training`], but reuses an already-encoded view —
/// the zero-re-encoding path for repeated queries over the same log (the
/// despite-extension pass of `explain_full`, and every query answered by a
/// [`XplainService`](crate::service::XplainService) cache hit).
pub fn prepare_encoded_training_in<'a>(
    log: &'a ExecutionLog,
    view: Arc<ColumnarLog>,
    query: &BoundQuery,
    config: &ExplainConfig,
) -> Result<EncodedTraining<'a>> {
    prepare_encoded_training_cancellable(log, view, query, config, &CancelToken::never())
}

/// [`prepare_encoded_training_in`] with a cooperative cancellation token
/// threaded into the pair enumeration (the dominant cost of training-set
/// construction on large logs).
pub fn prepare_encoded_training_cancellable<'a>(
    log: &'a ExecutionLog,
    view: Arc<ColumnarLog>,
    query: &BoundQuery,
    config: &ExplainConfig,
    cancel: &CancelToken,
) -> Result<EncodedTraining<'a>> {
    let related = collect_related_pairs_cancellable(&view, query, log, config, cancel)?;
    let related_pairs = related.len();
    let selected = sample_related(&related, config)?;
    let mut pairs = Vec::with_capacity(selected.len());
    let mut labels = Vec::with_capacity(selected.len());
    for index in selected {
        let pair = &related[index];
        pairs.push((pair.left, pair.right));
        labels.push(pair.label == PairLabel::Observed);
    }
    let observed = labels.iter().filter(|&&l| l).count();
    if observed == 0 || observed == labels.len() {
        return Err(CoreError::NotEnoughTrainingPairs {
            observed,
            expected: labels.len() - observed,
        });
    }
    Ok(EncodedTraining {
        log,
        view,
        pairs: pairs.into(),
        labels: labels.into(),
        related_pairs,
    })
}

/// Most sampled pairs one [`SampleMemo`] holds, about 4.5 MB of rows and
/// labels.  A larger sample is not stored.
const MEMO_MAX_PAIRS: usize = 1 << 18;

/// Most bytes of encoded datasets ([`SharedDataset::bytes`], summaries
/// included) one [`SampleMemo`] holds.  A blocked-log dataset takes about
/// 1 MB, a paper-grid one 5–6 MB, so the bound keeps each kind's base
/// template and a few despite-extended ones.  A larger dataset is not
/// stored.
const MEMO_MAX_DATASET_BYTES: usize = 32 << 20;

/// The training sets drawn over one cached view, least recently used
/// first.  Every entry was drawn at the view's one log generation, so the
/// memo lives exactly as long as that generation's cache entry.
///
/// An entry also keeps the sample's encoded dataset once a request has
/// featurized it, so later requests under the key encode only their pair
/// of interest.  Samples and datasets have separate bounds: over
/// [`MEMO_MAX_PAIRS`] sampled pairs whole entries go, least recently used
/// first; over [`MEMO_MAX_DATASET_BYTES`] only datasets go, in the same
/// order, and their entries keep the samples.  The next hit on such an
/// entry featurizes from the sample again and stores the result.
#[derive(Debug)]
pub(crate) struct SampleMemo {
    entries: Mutex<Vec<MemoEntry>>,
    /// [`MEMO_MAX_DATASET_BYTES`]; the tests shrink it.
    dataset_bound: usize,
}

impl Default for SampleMemo {
    fn default() -> Self {
        SampleMemo {
            entries: Mutex::default(),
            dataset_bound: MEMO_MAX_DATASET_BYTES,
        }
    }
}

/// One memoized sample with its key: the three clauses and the whole
/// configuration, compared with `==`.  Equal keys classify every candidate
/// identically; a `NaN` anywhere in the key only causes a miss.
#[derive(Debug)]
struct MemoEntry {
    despite: Predicate,
    observed: Predicate,
    expected: Predicate,
    config: ExplainConfig,
    sample: Sample,
    dataset: Option<Arc<SharedDataset>>,
}

/// A drawn sample: the `(left, right)` rows, their labels and the related
/// pairs it was drawn from.  Cloning shares the rows and labels.
#[derive(Debug, Clone)]
struct Sample {
    pairs: Arc<[(usize, usize)]>,
    labels: Arc<[bool]>,
    related_pairs: usize,
}

impl MemoEntry {
    fn matches(&self, query: &BoundQuery, config: &ExplainConfig) -> bool {
        self.despite == query.query.despite
            && self.observed == query.query.observed
            && self.expected == query.query.expected
            && self.config == *config
    }
}

/// Drops the least recently used entries' datasets until the datasets
/// left fit in `bound` bytes, returning the dropped ones so the caller
/// frees them after releasing the lock.
fn shed_datasets(entries: &mut [MemoEntry], bound: usize) -> Vec<Arc<SharedDataset>> {
    // Each size is read once: a request may be adding summaries to a
    // dataset meanwhile, and its size only grows.
    let sizes: Vec<usize> = entries
        .iter()
        .map(|e| e.dataset.as_ref().map_or(0, |d| d.bytes()))
        .collect();
    let mut held: usize = sizes.iter().sum();
    let mut dropped = Vec::new();
    for (entry, size) in entries.iter_mut().zip(sizes) {
        if held <= bound {
            break;
        }
        if let Some(dataset) = entry.dataset.take() {
            held -= size;
            dropped.push(dataset);
        }
    }
    dropped
}

impl SampleMemo {
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.entries
            .lock()
            .expect("sample memo lock poisoned")
            .is_empty()
    }

    /// The memoized sample for the key, and its dataset when one is held,
    /// marked most recently used.  Datasets whose summaries grew since the
    /// last call are shed to the bound first.
    fn get(
        &self,
        query: &BoundQuery,
        config: &ExplainConfig,
    ) -> Option<(Sample, Option<Arc<SharedDataset>>)> {
        let mut entries = self.entries.lock().expect("sample memo lock poisoned");
        let at = entries.iter().position(|e| e.matches(query, config))?;
        let entry = entries.remove(at);
        entries.push(entry);
        let dropped = shed_datasets(&mut entries, self.dataset_bound);
        let entry = entries.last().expect("just pushed");
        let found = (entry.sample.clone(), entry.dataset.clone());
        drop(entries);
        drop(dropped);
        Some(found)
    }

    /// Stores a freshly drawn sample unless its key is already present (a
    /// racing miss inserted it first) or it exceeds [`MEMO_MAX_PAIRS`],
    /// then evicts least recently used entries down to the bound.
    fn insert(&self, query: &BoundQuery, config: &ExplainConfig, training: &EncodedTraining<'_>) {
        if training.len() > MEMO_MAX_PAIRS {
            return;
        }
        let mut entries = self.entries.lock().expect("sample memo lock poisoned");
        if entries.iter().any(|e| e.matches(query, config)) {
            return;
        }
        entries.push(MemoEntry {
            despite: query.query.despite.clone(),
            observed: query.query.observed.clone(),
            expected: query.query.expected.clone(),
            config: config.clone(),
            sample: Sample {
                pairs: training.pairs.clone(),
                labels: training.labels.clone(),
                related_pairs: training.related_pairs,
            },
            dataset: None,
        });
        let mut held: usize = entries.iter().map(|e| e.sample.pairs.len()).sum();
        let mut evicted = Vec::new();
        while held > MEMO_MAX_PAIRS {
            let entry = entries.remove(0);
            held -= entry.sample.pairs.len();
            evicted.push(entry);
        }
        drop(entries);
        drop(evicted);
    }

    /// Keeps `dataset`, encoded from the key's memoized sample, beside it,
    /// unless the entry is gone, already holds one (a racing request
    /// stored it first), or the dataset alone exceeds
    /// [`MEMO_MAX_DATASET_BYTES`]; then sheds least recently used datasets
    /// down to the bound.
    pub(crate) fn store_dataset(
        &self,
        query: &BoundQuery,
        config: &ExplainConfig,
        dataset: &Arc<SharedDataset>,
    ) {
        if dataset.bytes() > self.dataset_bound {
            return;
        }
        let mut entries = self.entries.lock().expect("sample memo lock poisoned");
        let Some(entry) = entries.iter_mut().find(|e| e.matches(query, config)) else {
            return;
        };
        if entry.dataset.is_some() {
            return;
        }
        entry.dataset = Some(Arc::clone(dataset));
        let dropped = shed_datasets(&mut entries, self.dataset_bound);
        drop(entries);
        drop(dropped);
    }
}

/// A training set drawn through [`prepare_encoded_training_memoized`]:
/// the sample, whether it came from the memo, and the memo's encoded
/// dataset of it when one was held.
#[derive(Debug)]
pub(crate) struct Drawn<'a> {
    pub(crate) training: EncodedTraining<'a>,
    pub(crate) reused: bool,
    pub(crate) dataset: Option<Arc<SharedDataset>>,
}

/// [`prepare_encoded_training_cancellable`] through a view's sample memo.
/// A hit returns the memoized sample, and its encoded dataset when the
/// memo holds one, without enumerating or copying; a miss enumerates with
/// no lock held and stores the sample.  Errors are never stored.  Without
/// a memo this is exactly [`prepare_encoded_training_cancellable`].
///
/// The memo must belong to `view`'s cache entry, whose rows the stored
/// pairs index, and `log` must be the generation that entry was built at.
pub(crate) fn prepare_encoded_training_memoized<'a>(
    log: &'a ExecutionLog,
    view: Arc<ColumnarLog>,
    query: &BoundQuery,
    config: &ExplainConfig,
    cancel: &CancelToken,
    memo: Option<&SampleMemo>,
) -> Result<Drawn<'a>> {
    let fresh = |training| Drawn {
        training,
        reused: false,
        dataset: None,
    };
    let Some(memo) = memo else {
        return prepare_encoded_training_cancellable(log, view, query, config, cancel).map(fresh);
    };
    if let Some((sample, dataset)) = memo.get(query, config) {
        cancel.check()?;
        let training = EncodedTraining {
            log,
            view,
            pairs: sample.pairs,
            labels: sample.labels,
            related_pairs: sample.related_pairs,
        };
        return Ok(Drawn {
            training,
            reused: true,
            dataset,
        });
    }
    let training = prepare_encoded_training_cancellable(log, view, query, config, cancel)?;
    memo.insert(query, config, &training);
    Ok(fresh(training))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{ExecutionKind, ExecutionRecord};
    use pxql::parse_query;

    /// A synthetic log where half the job pairs with larger input have the
    /// same duration (because block size is large) and half behave as
    /// expected (bigger input takes longer).
    fn synthetic_log() -> ExecutionLog {
        let mut log = ExecutionLog::new();
        for i in 0..30 {
            let big_blocks = i % 2 == 0;
            let input = if i % 3 == 0 { 32.0e9 } else { 1.0e9 };
            // Jobs with big blocks finish in ~600s regardless of input size;
            // small-block jobs scale with input.
            let duration = if big_blocks { 600.0 } else { input / 5.0e7 };
            log.push(
                ExecutionRecord::job(format!("job_{i}"))
                    .with_feature("inputsize", input)
                    .with_feature("blocksize", if big_blocks { 1024.0 } else { 64.0 })
                    .with_feature("pigscript", if i % 5 == 0 { "a.pig" } else { "b.pig" })
                    .with_feature("duration", duration),
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
        BoundQuery::new(q, "job_0", "job_1")
    }

    #[test]
    fn related_pairs_have_both_labels() {
        let log = synthetic_log();
        let config = ExplainConfig::default();
        let (records, related) = collect_related_pairs(&log, &query(), &config);
        assert_eq!(records.len(), 30);
        assert!(!related.is_empty());
        assert!(related.iter().any(|p| p.label == PairLabel::Observed));
        assert!(related.iter().any(|p| p.label == PairLabel::Expected));
        // Only pairs with strictly greater input size are related.
        for pair in &related {
            let left = records[pair.left].feature("inputsize").as_num().unwrap();
            let right = records[pair.right].feature("inputsize").as_num().unwrap();
            assert!(left > right);
        }
    }

    #[test]
    fn training_set_is_materialised_and_balanced() {
        let log = synthetic_log();
        let config = ExplainConfig::default().with_sample_size(60);
        let set = prepare_training_set(&log, &query(), &config).unwrap();
        assert!(!set.is_empty());
        assert!(set.num_observed() > 0);
        assert!(set.num_expected() > 0);
        // Full pair features are available.
        assert!(set.examples[0].features.contains_key("blocksize_isSame"));
        assert!(set.examples[0].features.contains_key("blocksize_compare"));
        assert_eq!(set.iter().count(), set.len());
    }

    #[test]
    fn capping_limits_candidate_pairs() {
        let log = synthetic_log();
        let config = ExplainConfig {
            max_candidate_pairs: 50,
            ..ExplainConfig::default()
        };
        let (_, related) = collect_related_pairs(&log, &query(), &config);
        // 30 jobs -> 870 ordered pairs before capping; far fewer after.
        assert!(related.len() <= 60, "related = {}", related.len());
    }

    #[test]
    fn blocking_restricts_to_matching_groups() {
        let log = synthetic_log();
        let q = parse_query(
            "DESPITE pigscript_isSame = T\n\
             OBSERVED duration_compare = GT\n\
             EXPECTED duration_compare = SIM",
        )
        .unwrap();
        let bound = BoundQuery::new(q, "job_0", "job_5");
        assert_eq!(blocking_feature(&bound, &log), Some("pigscript"));
        let config = ExplainConfig::default();
        let (records, related) = collect_related_pairs(&log, &bound, &config);
        for pair in &related {
            assert_eq!(
                records[pair.left].feature("pigscript"),
                records[pair.right].feature("pigscript")
            );
        }
    }

    #[test]
    fn single_class_fails_with_descriptive_error() {
        // All jobs identical: no pair can perform "as observed".
        let mut log = ExecutionLog::new();
        for i in 0..5 {
            log.push(
                ExecutionRecord::job(format!("job_{i}"))
                    .with_feature("inputsize", 1.0e9)
                    .with_feature("duration", 100.0),
            );
        }
        log.rebuild_catalogs();
        let err = prepare_training_set(&log, &query(), &ExplainConfig::default()).unwrap_err();
        assert!(matches!(err, CoreError::NotEnoughTrainingPairs { .. }));
    }

    /// A fan-out chunk starts its scan at an arbitrary position, mid-group
    /// included.  Two scans split at any position must return exactly the
    /// one whole scan, so each chunk recovers the ordinals the cap keys on.
    #[test]
    fn a_scan_split_at_any_position_matches_the_whole_scan() {
        let log = synthetic_log();
        let q = parse_query(
            "DESPITE pigscript_isSame = T AND inputsize_compare = GT\n\
             OBSERVED duration_compare = SIM\n\
             EXPECTED duration_compare = GT",
        )
        .unwrap();
        let blocked = BoundQuery::new(q, "job_0", "job_1");
        let view = ColumnarLog::build(&log, ExecutionKind::Job);
        let cancel = CancelToken::never();
        for bound in [blocked, query()] {
            let plan = CandidatePlan::build(&view, &bound, &log);
            let compiled = CompiledQuery::compile(&bound, &view, 0.1);
            let keep = Some((7, 0.6));
            let len = plan.rows.len();
            let mut whole = Vec::new();
            plan.scan(0..len, &view, &compiled, keep, &cancel, &mut whole)
                .unwrap();
            assert!(!whole.is_empty());
            for cut in 0..=len {
                let mut split = Vec::new();
                for span in [0..cut, cut..len] {
                    plan.scan(span, &view, &compiled, keep, &cancel, &mut split)
                        .unwrap();
                }
                assert_eq!(split, whole, "split at position {cut}");
            }
        }
    }

    #[test]
    fn tiny_log_yields_no_pairs() {
        let mut log = ExecutionLog::new();
        log.push(ExecutionRecord::job("only").with_feature("duration", 1.0));
        log.rebuild_catalogs();
        let (_, related) = collect_related_pairs(&log, &query(), &ExplainConfig::default());
        assert!(related.is_empty());
    }

    /// A cancelled enumeration stores nothing; the next draw misses and
    /// stores, and the one after returns the same sample from the memo.
    #[test]
    fn the_memo_stores_drawn_samples_and_never_errors() {
        let log = synthetic_log();
        let view = Arc::new(ColumnarLog::build(&log, ExecutionKind::Job));
        let config = ExplainConfig::default();
        let memo = SampleMemo::default();
        let draw = |cancel: &CancelToken| {
            prepare_encoded_training_memoized(
                &log,
                view.clone(),
                &query(),
                &config,
                cancel,
                Some(&memo),
            )
        };
        let cancelled = CancelToken::new();
        cancelled.cancel();
        assert_eq!(draw(&cancelled).unwrap_err(), CoreError::Cancelled);
        assert!(memo.is_empty());

        let fresh = draw(&CancelToken::never()).unwrap();
        assert!(!fresh.reused);
        let memoized = draw(&CancelToken::never()).unwrap();
        assert!(memoized.reused);
        let (fresh, memoized) = (fresh.training, memoized.training);
        assert_eq!(memoized.pairs, fresh.pairs);
        assert_eq!(memoized.labels, fresh.labels);
        assert_eq!(memoized.related_pairs, fresh.related_pairs);
        // A hit still honours a fired token.
        assert_eq!(draw(&cancelled).unwrap_err(), CoreError::Cancelled);
    }

    /// The memo holds at most `MEMO_MAX_PAIRS` sampled pairs, evicting the
    /// least recently used sample first, and never stores a larger one.
    #[test]
    fn the_memo_is_an_lru_bounded_by_sampled_pairs() {
        let log = synthetic_log();
        let view = Arc::new(ColumnarLog::build(&log, ExecutionKind::Job));
        let sample = |pairs: usize| EncodedTraining {
            log: &log,
            view: view.clone(),
            pairs: vec![(0, 1); pairs].into(),
            labels: vec![true; pairs].into(),
            related_pairs: pairs,
        };
        let seeded = |seed: u64| ExplainConfig::default().with_seed(seed);
        let memo = SampleMemo::default();
        let quarter = MEMO_MAX_PAIRS / 4;
        for seed in 0..4 {
            memo.insert(&query(), &seeded(seed), &sample(quarter));
        }
        // Full, not over: every sample is held.  Touching seed 0 makes
        // seed 1 the least recently used.
        assert!((0..4).all(|seed| memo.get(&query(), &seeded(seed)).is_some()));
        assert!(memo.get(&query(), &seeded(0)).is_some());
        memo.insert(&query(), &seeded(4), &sample(quarter));
        assert!(memo.get(&query(), &seeded(1)).is_none());
        for seed in [0, 2, 3, 4] {
            assert!(memo.get(&query(), &seeded(seed)).is_some(), "seed {seed}");
        }
        memo.insert(&query(), &seeded(5), &sample(MEMO_MAX_PAIRS + 1));
        assert!(memo.get(&query(), &seeded(5)).is_none());
        assert!(memo.get(&query(), &seeded(4)).is_some());
    }

    /// The encoded dataset of `query`'s sample under `config`.
    fn shared_dataset<'a>(
        log: &'a ExecutionLog,
        view: &Arc<ColumnarLog>,
        config: &ExplainConfig,
    ) -> (EncodedTraining<'a>, Arc<SharedDataset>) {
        let training = prepare_encoded_training_in(log, view.clone(), &query(), config).unwrap();
        let catalog = crate::pairs::PairCatalog::from_raw(log.catalog(ExecutionKind::Job));
        let excluded = crate::query::excluded_raw_features(&query(), config);
        let dataset = SharedDataset::from_view(&training, &catalog, &excluded, 0.1);
        (training, Arc::new(dataset))
    }

    /// Over the dataset bound, datasets go least recently used first and
    /// their samples stay; a dataset larger than the bound is not stored.
    #[test]
    fn the_memo_sheds_least_recently_used_datasets_and_keeps_their_samples() {
        let log = synthetic_log();
        let view = Arc::new(ColumnarLog::build(&log, ExecutionKind::Job));
        let seeded = |seed: u64| ExplainConfig::default().with_seed(seed);
        let drawn: Vec<_> = (0..4)
            .map(|seed| shared_dataset(&log, &view, &seeded(seed)))
            .collect();
        let largest = drawn.iter().map(|(_, d)| d.bytes()).max().unwrap();
        let smallest = drawn.iter().map(|(_, d)| d.bytes()).min().unwrap();
        // Room for two datasets of any size, never three.
        assert!(
            3 * smallest > 2 * largest,
            "datasets differ too much in size"
        );
        let memo = SampleMemo {
            dataset_bound: 2 * largest,
            ..SampleMemo::default()
        };
        let has_dataset = |seed: u64| {
            let (_, dataset) = memo.get(&query(), &seeded(seed)).expect("sample kept");
            dataset.is_some()
        };
        for (seed, (training, dataset)) in drawn.iter().enumerate().take(3) {
            memo.insert(&query(), &seeded(seed as u64), training);
            memo.store_dataset(&query(), &seeded(seed as u64), dataset);
        }
        // Seed 0's dataset, the least recently used, went; its sample did
        // not.  Touching seed 1, then seed 0 (a hit that featurizes again
        // and stores), leaves seed 2's dataset the least recently used.
        assert!(has_dataset(1));
        assert!(!has_dataset(0));
        memo.store_dataset(&query(), &seeded(0), &drawn[0].1);
        assert!(has_dataset(1));
        assert!(has_dataset(0));
        assert!(!has_dataset(2));
        // A dataset larger than the bound is not stored.
        let small = SampleMemo {
            dataset_bound: smallest - 1,
            ..SampleMemo::default()
        };
        small.insert(&query(), &seeded(3), &drawn[3].0);
        small.store_dataset(&query(), &seeded(3), &drawn[3].1);
        let (_, dataset) = small.get(&query(), &seeded(3)).expect("sample kept");
        assert!(dataset.is_none());
    }

    /// A hit whose dataset was shed featurizes from the memoized sample
    /// again, stores the result, and answers exactly as the stateless
    /// engine does.
    #[test]
    fn a_hit_whose_dataset_was_shed_featurizes_again_and_answers_the_same() {
        use crate::explain::PerfXplain;

        let log = synthetic_log();
        let view = Arc::new(ColumnarLog::build(&log, ExecutionKind::Job));
        let engine = PerfXplain::new(ExplainConfig::default());
        let (_, one) = shared_dataset(&log, &view, engine.config());
        // Room for one template's dataset, not two.
        let memo = SampleMemo {
            dataset_bound: one.bytes() * 3 / 2,
            ..SampleMemo::default()
        };
        let pairs = [("job_0", "job_1"), ("job_3", "job_1"), ("job_6", "job_7")];
        let templates = [query(), {
            let q = parse_query(
                "DESPITE inputsize_compare = GT\n\
                 OBSERVED duration_compare = GT\n\
                 EXPECTED duration_compare = SIM",
            )
            .unwrap();
            BoundQuery::new(q, "job_0", "job_1")
        }];
        let never = CancelToken::never();
        for round in 0..3 {
            for template in &templates {
                for (left, right) in pairs {
                    let bound = BoundQuery::new(template.query.clone(), left, right);
                    let Ok(_) = bound.verify_preconditions(&log, 0.1) else {
                        continue;
                    };
                    let served = engine.explain_with_training(
                        &log,
                        view.clone(),
                        &bound,
                        false,
                        Some(&memo),
                        &never,
                        None,
                    );
                    let fresh = engine.explain(&log, &bound);
                    match (served, fresh) {
                        (Ok((explanation, _, _, reused)), Ok(expected)) => {
                            assert_eq!(explanation, expected);
                            assert_eq!(reused, round > 0 || (left, right) != pairs[0]);
                        }
                        (Err(a), Err(b)) => assert_eq!(a, b),
                        other => panic!("served and fresh diverge: {other:?}"),
                    }
                    // The dataset is held again after every request.
                    let (_, dataset) = memo.get(&bound, engine.config()).expect("sample kept");
                    assert!(dataset.is_some());
                }
            }
        }
    }
}
