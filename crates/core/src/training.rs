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
//! `SampleMemo` of the templates answered over it, and the served path
//! fetches its training set through `prepare_encoded_training_memoized`: a
//! hit hands back the same pairs, labels and related-pair count a fresh
//! enumeration would, without enumerating or copying, together with the
//! sample's encoded dataset (`SharedDataset`), stored with the sample by
//! the request that first featurized it.  The stateless paths pass no
//! memo: they always enumerate and featurize, and store nothing.
//!
//! A sample has one form, [`EncodedTraining`]: view rows, labels and the
//! similarity band they were classified under.  The split-search
//! featurize, the quality metrics ([`crate::metrics`]), SimButDiff and the
//! evaluation harness ([`crate::eval`]) all read those rows, and none
//! builds a pair-feature map.

use crate::bridge::SharedDataset;
use crate::cancel::CancelToken;
use crate::columnar::{ColumnarLog, CompiledQuery};
use crate::config::ExplainConfig;
use crate::error::{CoreError, Result};
use crate::features::FeatureKind;
use crate::pairs::{parse_pair_feature, PairFeatureGroup};
use crate::query::{BoundQuery, PairLabel};
use crate::record::ExecutionLog;
use mlcore::{balanced_sample, AttrValue, NominalDictionary};
use pxql::{Op, Predicate, Value};
use rand::rngs::StdRng;
use rand::RngExt;
use rand::SeedableRng;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A related candidate pair before materialisation: rows of the columnar
/// view (the kind's records in log order) plus its label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RelatedPair {
    /// Row of the first execution in the view.
    pub left: usize,
    /// Row of the second execution.
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

/// A sampled training set in encoded (row index) form: the columnar view
/// plus the sampled `(left row, right row)` pairs, their labels and the
/// similarity band they were drawn under (see the module docs).
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
    /// The similarity band of the `compare` features the pairs were
    /// classified under (the drawing configuration's `sim_threshold`).
    pub sim_threshold: f64,
}

impl<'a> EncodedTraining<'a> {
    /// The training set of `pairs` of `view`, drawn from `log` out of
    /// `related_pairs` related pairs under `sim_threshold`, in the order
    /// given.
    pub(crate) fn of_related<'p>(
        log: &'a ExecutionLog,
        view: Arc<ColumnarLog>,
        pairs: impl ExactSizeIterator<Item = &'p RelatedPair>,
        related_pairs: usize,
        sim_threshold: f64,
    ) -> Self {
        let mut rows = Vec::with_capacity(pairs.len());
        let mut labels = Vec::with_capacity(pairs.len());
        for pair in pairs {
            rows.push((pair.left, pair.right));
            labels.push(pair.label == PairLabel::Observed);
        }
        EncodedTraining {
            log,
            view,
            pairs: rows.into(),
            labels: labels.into(),
            related_pairs,
            sim_threshold,
        }
    }

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
            self.view.row_of(self.log, &query.left_id)?,
            self.view.row_of(self.log, &query.right_id)?,
        ))
    }

    /// The same sample under the similarity band `sim_threshold`: the
    /// view, rows and labels are shared (`Arc` clones) and no pair-feature
    /// map is built.
    pub fn materialise(&self, sim_threshold: f64) -> EncodedTraining<'a> {
        EncodedTraining {
            sim_threshold,
            ..self.clone()
        }
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
    let selected = sample_related(&related, config)?;
    let training = EncodedTraining::of_related(
        log,
        view,
        selected.iter().map(|&index| &related[index]),
        related.len(),
        config.sim_threshold,
    );
    let observed = training.num_observed();
    if observed == 0 || observed == training.len() {
        return Err(CoreError::NotEnoughTrainingPairs {
            observed,
            expected: training.len() - observed,
        });
    }
    Ok(training)
}

/// Most bytes one [`SampleMemo`] holds: every entry's encoded dataset
/// ([`SharedDataset::bytes`], summaries included) plus its sampled rows and
/// labels.  The datasets are column-major with 4- or 8-byte cells and
/// nothing stored for a column no sampled pair holds: a 2,000-pair
/// paper-grid dataset takes about 1 MB for the job query and 1.7 MB for
/// the task query, summaries included, and its sample about 34 KB
/// (pxbench's `paper_mix`, seed 301: 25 job entries in 23.7 MB, 12 task
/// entries in 20.5 MB).  So the bound holds every template the paper's
/// grid is asked about, base and despite-extended alike.  A larger entry is
/// not stored.
const MEMO_MAX_BYTES: usize = 32 << 20;

/// The templates answered over one cached view, least recently used first:
/// each entry is a drawn sample with its encoded dataset, stored once a
/// request has featurized it, so later requests under the key encode only
/// their pair of interest.  Every entry was drawn at the view's one log
/// generation, so the memo lives exactly as long as that generation's
/// cache entry.  Over [`MEMO_MAX_BYTES`] whole entries go, least recently
/// used first.
#[derive(Debug)]
pub(crate) struct SampleMemo {
    entries: Mutex<Vec<MemoEntry>>,
    /// [`MEMO_MAX_BYTES`]; the tests shrink it.
    bound: usize,
    /// Entries stored since the memo was created.
    stores: AtomicU64,
}

impl Default for SampleMemo {
    fn default() -> Self {
        SampleMemo {
            entries: Mutex::default(),
            bound: MEMO_MAX_BYTES,
            stores: AtomicU64::new(0),
        }
    }
}

/// What a [`SampleMemo`] holds, read by [`SampleMemo::gauges`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct MemoGauges {
    /// Entries held.
    pub(crate) entries: u64,
    /// Their bytes, as charged against the bound.
    pub(crate) bytes: u64,
    /// Entries stored since the memo was created.
    pub(crate) stores: u64,
}

/// One memoized template with its key: the three clauses and the whole
/// configuration, compared with `==`.  Equal keys classify every candidate
/// identically; a `NaN` anywhere in the key only causes a miss.
#[derive(Debug)]
struct MemoEntry {
    despite: Predicate,
    observed: Predicate,
    expected: Predicate,
    config: ExplainConfig,
    sample: Sample,
    dataset: Arc<SharedDataset>,
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

    /// The bytes charged against the bound: the dataset as it stands now
    /// and the sample's rows and labels.
    fn bytes(&self) -> usize {
        let sample = &self.sample;
        self.dataset.bytes()
            + std::mem::size_of_val(&*sample.pairs)
            + std::mem::size_of_val(&*sample.labels)
    }
}

/// Removes the least recently used entries until the rest fit in `bound`
/// bytes, returning them so the caller frees them after releasing the lock.
fn evict(entries: &mut Vec<MemoEntry>, bound: usize) -> Vec<MemoEntry> {
    // Each size is read once: a request may be adding summaries to a
    // dataset meanwhile, and its size only grows.
    let sizes: Vec<usize> = entries.iter().map(MemoEntry::bytes).collect();
    let mut held: usize = sizes.iter().sum();
    let mut over = 0;
    while held > bound {
        held -= sizes[over];
        over += 1;
    }
    entries.drain(..over).collect()
}

impl SampleMemo {
    /// The entries held now, their bytes, and how many were stored.
    pub(crate) fn gauges(&self) -> MemoGauges {
        let entries = self.entries.lock().expect("sample memo lock poisoned");
        MemoGauges {
            entries: entries.len() as u64,
            bytes: entries.iter().map(|e| e.bytes() as u64).sum(),
            stores: self.stores.load(Ordering::Relaxed),
        }
    }

    /// An empty memo holding at most `bound` bytes.
    #[cfg(test)]
    pub(crate) fn with_bound(bound: usize) -> Self {
        SampleMemo {
            bound,
            ..SampleMemo::default()
        }
    }

    /// The memoized sample for the key and its dataset, marked most
    /// recently used.  Entries whose summaries grew since the last call are
    /// evicted to the bound first.
    fn get(
        &self,
        query: &BoundQuery,
        config: &ExplainConfig,
    ) -> Option<(Sample, Arc<SharedDataset>)> {
        let mut entries = self.entries.lock().expect("sample memo lock poisoned");
        let at = entries.iter().position(|e| e.matches(query, config))?;
        let entry = entries.remove(at);
        let found = (entry.sample.clone(), Arc::clone(&entry.dataset));
        entries.push(entry);
        let evicted = evict(&mut entries, self.bound);
        drop(entries);
        drop(evicted);
        Some(found)
    }

    /// Stores a freshly drawn sample with `dataset`, its encoding, unless
    /// the key is already present (a racing miss inserted it first) or the
    /// entry alone exceeds the bound; then evicts least recently used
    /// entries down to the bound.
    pub(crate) fn insert(
        &self,
        query: &BoundQuery,
        config: &ExplainConfig,
        training: &EncodedTraining<'_>,
        dataset: &Arc<SharedDataset>,
    ) {
        let entry = MemoEntry {
            despite: query.query.despite.clone(),
            observed: query.query.observed.clone(),
            expected: query.query.expected.clone(),
            config: config.clone(),
            sample: Sample {
                pairs: training.pairs.clone(),
                labels: training.labels.clone(),
                related_pairs: training.related_pairs,
            },
            dataset: Arc::clone(dataset),
        };
        if entry.bytes() > self.bound {
            return;
        }
        let mut entries = self.entries.lock().expect("sample memo lock poisoned");
        if entries.iter().any(|e| e.matches(query, config)) {
            return;
        }
        entries.push(entry);
        self.stores.fetch_add(1, Ordering::Relaxed);
        let evicted = evict(&mut entries, self.bound);
        drop(entries);
        drop(evicted);
    }
}

/// A training set drawn through [`prepare_encoded_training_memoized`],
/// with the memo's encoded dataset of it on a hit (`None` on a miss).
#[derive(Debug)]
pub(crate) struct Drawn<'a> {
    pub(crate) training: EncodedTraining<'a>,
    pub(crate) dataset: Option<Arc<SharedDataset>>,
}

/// [`prepare_encoded_training_cancellable`] through a view's sample memo.
/// A hit returns the memoized sample and its encoded dataset without
/// enumerating or copying; a miss enumerates with no lock held and stores
/// nothing: the caller inserts the sample once it has featurized it
/// ([`SampleMemo::insert`]).  Without a memo this is exactly
/// [`prepare_encoded_training_cancellable`].
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
    if let Some((sample, dataset)) = memo.and_then(|memo| memo.get(query, config)) {
        cancel.check()?;
        let training = EncodedTraining {
            log,
            view,
            pairs: sample.pairs,
            labels: sample.labels,
            related_pairs: sample.related_pairs,
            sim_threshold: config.sim_threshold,
        };
        return Ok(Drawn {
            training,
            dataset: Some(dataset),
        });
    }
    let training = prepare_encoded_training_cancellable(log, view, query, config, cancel)?;
    Ok(Drawn {
        training,
        dataset: None,
    })
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

    /// The related pairs of `query` over a built view of `log`, with the
    /// records the view's rows index.
    fn related_pairs<'a>(
        log: &'a ExecutionLog,
        query: &BoundQuery,
        config: &ExplainConfig,
    ) -> (Vec<&'a ExecutionRecord>, Vec<RelatedPair>) {
        let view = ColumnarLog::build(log, query.kind);
        let records = (0..view.num_rows())
            .map(|row| &log.records()[view.position(row)])
            .collect();
        (records, collect_related_pairs_in(&view, query, log, config))
    }

    #[test]
    fn related_pairs_have_both_labels() {
        let log = synthetic_log();
        let config = ExplainConfig::default();
        let (records, related) = related_pairs(&log, &query(), &config);
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
        let set = prepare_encoded_training(&log, &query(), &config).unwrap();
        assert!(!set.is_empty());
        assert!(set.num_observed() > 0);
        assert!(set.num_expected() > 0);
        assert_eq!(set.labels.len(), set.len());
        assert_eq!(set.sim_threshold, config.sim_threshold);
        // The same sample under another band shares every row.
        let rebanded = set.materialise(0.3);
        assert_eq!(rebanded.sim_threshold, 0.3);
        assert!(Arc::ptr_eq(&rebanded.pairs, &set.pairs));
        assert!(Arc::ptr_eq(&rebanded.labels, &set.labels));
    }

    #[test]
    fn capping_limits_candidate_pairs() {
        let log = synthetic_log();
        let config = ExplainConfig {
            max_candidate_pairs: 50,
            ..ExplainConfig::default()
        };
        let (_, related) = related_pairs(&log, &query(), &config);
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
        let (records, related) = related_pairs(&log, &bound, &config);
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
        let err = prepare_encoded_training(&log, &query(), &ExplainConfig::default()).unwrap_err();
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
        let (_, related) = related_pairs(&log, &query(), &ExplainConfig::default());
        assert!(related.is_empty());
    }

    /// The encoded dataset of `training`, a sample of `query()`.
    fn encode(training: &EncodedTraining<'_>, config: &ExplainConfig) -> Arc<SharedDataset> {
        let catalog =
            crate::pairs::PairCatalog::from_raw(training.log().catalog(ExecutionKind::Job));
        let excluded = crate::query::excluded_raw_features(&query(), config);
        Arc::new(SharedDataset::from_view(training, &catalog, &excluded, 0.1))
    }

    /// `query()`'s sample under `config` and its encoded dataset.
    fn shared_dataset<'a>(
        log: &'a ExecutionLog,
        view: &Arc<ColumnarLog>,
        config: &ExplainConfig,
    ) -> (EncodedTraining<'a>, Arc<SharedDataset>) {
        let training = prepare_encoded_training_in(log, view.clone(), &query(), config).unwrap();
        let dataset = encode(&training, config);
        (training, dataset)
    }

    /// The bytes an entry of `training` and `dataset` is charged.
    fn entry_bytes(training: &EncodedTraining<'_>, dataset: &SharedDataset) -> usize {
        dataset.bytes() + training.len() * std::mem::size_of::<(usize, usize)>() + training.len()
    }

    /// A draw stores nothing, cancelled or not.  Once the drawn sample is
    /// inserted with its dataset, the next draw is a hit with the same
    /// rows, labels and related-pair count, and the same dataset.
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
        assert_eq!(memo.gauges(), MemoGauges::default());

        let fresh = draw(&CancelToken::never()).unwrap();
        assert!(fresh.dataset.is_none());
        assert_eq!(memo.gauges(), MemoGauges::default());
        let dataset = encode(&fresh.training, &config);
        memo.insert(&query(), &config, &fresh.training, &dataset);
        let memoized = draw(&CancelToken::never()).unwrap();
        assert!(Arc::ptr_eq(&memoized.dataset.expect("a hit"), &dataset));
        let (fresh, memoized) = (fresh.training, memoized.training);
        assert_eq!(memoized.pairs, fresh.pairs);
        assert_eq!(memoized.labels, fresh.labels);
        assert_eq!(memoized.related_pairs, fresh.related_pairs);
        // A hit still honours a fired token.
        assert_eq!(draw(&cancelled).unwrap_err(), CoreError::Cancelled);
    }

    /// Over the bound whole entries go, least recently used first, and
    /// touching an entry protects it.  A dataset that grows summaries
    /// after it is stored counts on the next read.  An entry larger than
    /// the bound is not stored.
    #[test]
    fn the_memo_is_an_lru_bounded_by_bytes() {
        let log = synthetic_log();
        let view = Arc::new(ColumnarLog::build(&log, ExecutionKind::Job));
        let seeded = |seed: u64| ExplainConfig::default().with_seed(seed);
        let drawn: Vec<_> = (0..4)
            .map(|seed| shared_dataset(&log, &view, &seeded(seed)))
            .collect();
        let sizes: Vec<usize> = drawn.iter().map(|(t, d)| entry_bytes(t, d)).collect();
        let largest = *sizes.iter().max().unwrap();
        let smallest = *sizes.iter().min().unwrap();
        // Room for two entries of any size, never three.
        assert!(
            3 * smallest > 2 * largest,
            "entries differ too much in size"
        );
        let memo = SampleMemo::with_bound(2 * largest);
        let held = |seed: u64| memo.get(&query(), &seeded(seed)).is_some();
        let insert = |seed: usize| {
            let (training, dataset) = &drawn[seed];
            memo.insert(&query(), &seeded(seed as u64), training, dataset);
        };
        for seed in 0..3 {
            insert(seed);
        }
        // Seed 0, the least recently used, went.  Touching seed 1 makes
        // seed 2 the least recently used, so inserting seed 0 again
        // evicts seed 2.
        assert!(!held(0));
        assert!(held(1));
        insert(0);
        assert!(held(1));
        assert!(held(0));
        assert!(!held(2));
        // Seed 1's summaries grow its entry past the room left beside
        // seed 0's: reading seed 1 evicts seed 0, the least recently used.
        let (training, dataset) = &drawn[1];
        let poi = training.poi_rows(&query()).unwrap();
        let bridge = crate::bridge::DatasetBridge::for_pair(dataset.clone(), &view, poi, 0.1);
        for attr in 0..bridge.num_attributes() {
            bridge.summary(attr);
        }
        assert!(sizes[0] + entry_bytes(training, dataset) > 2 * largest);
        assert!(held(1));
        assert_eq!(memo.gauges().entries, 1);
        assert!(!held(0));
        // An entry larger than the bound is not stored.
        let small = SampleMemo::with_bound(smallest - 1);
        let (training, dataset) = &drawn[3];
        small.insert(&query(), &seeded(3), training, dataset);
        assert!(small.get(&query(), &seeded(3)).is_none());
        assert_eq!(small.gauges(), MemoGauges::default());
    }

    /// The gauges count the entries held, their bytes (datasets and
    /// samples) and every store: a template is stored once however often
    /// it is inserted, and an evicted template is stored again by the
    /// insert after its next draw.
    #[test]
    fn the_memo_gauges_count_held_datasets_and_every_store() {
        let log = synthetic_log();
        let view = Arc::new(ColumnarLog::build(&log, ExecutionKind::Job));
        let seeded = |seed: u64| ExplainConfig::default().with_seed(seed);
        let drawn: Vec<_> = (0..2)
            .map(|seed| shared_dataset(&log, &view, &seeded(seed)))
            .collect();
        let bytes: Vec<u64> = drawn
            .iter()
            .map(|(t, d)| entry_bytes(t, d) as u64)
            .collect();
        // Room for either entry, not both.
        let memo = SampleMemo::with_bound(*bytes.iter().max().unwrap() as usize);
        let insert = |seed: usize| {
            let (training, dataset) = &drawn[seed];
            memo.insert(&query(), &seeded(seed as u64), training, dataset);
        };
        let gauges = |entries, bytes, stores| MemoGauges {
            entries,
            bytes,
            stores,
        };
        assert_eq!(memo.gauges(), gauges(0, 0, 0));
        for _ in 0..2 {
            insert(0);
        }
        assert_eq!(memo.gauges(), gauges(1, bytes[0], 1));
        // Seed 1's entry evicts seed 0's, the least recently used.
        insert(1);
        assert_eq!(memo.gauges(), gauges(1, bytes[1], 2));
        // Seed 0's next draw misses, and its insert stores it again.
        assert!(memo.get(&query(), &seeded(0)).is_none());
        insert(0);
        assert_eq!(memo.gauges(), gauges(1, bytes[0], 3));
    }

    /// Under a bound that holds one template, two templates asked in turn
    /// evict each other: each template's first request of a round draws
    /// and featurizes again, the rest hit, every answer is exactly the
    /// stateless engine's, and the entry is held after every request.
    #[test]
    fn an_evicted_template_draws_again_and_answers_the_same() {
        use crate::explain::PerfXplain;

        let log = synthetic_log();
        let view = Arc::new(ColumnarLog::build(&log, ExecutionKind::Job));
        let never = CancelToken::never();
        let serve = |engine: &PerfXplain, bound: &BoundQuery, memo: &SampleMemo| {
            engine.explain_with_training(&log, view.clone(), bound, false, Some(memo), &never, None)
        };
        // Two templates: the same clauses under two seeds.
        let engines = [0, 1].map(|seed| PerfXplain::new(ExplainConfig::default().with_seed(seed)));
        let q = parse_query(
            "DESPITE inputsize_compare = GT\n\
             OBSERVED duration_compare = GT\n\
             EXPECTED duration_compare = SIM",
        )
        .unwrap();
        let asked: Vec<BoundQuery> = [("job_0", "job_1"), ("job_3", "job_1"), ("job_6", "job_7")]
            .into_iter()
            .map(|(left, right)| BoundQuery::new(q.clone(), left, right))
            .collect();
        for bound in &asked {
            bound.verify_preconditions(&log, 0.1).unwrap();
        }
        // Room for either template's entry, all its summaries included,
        // not both.
        let sizes = engines.iter().map(|engine| {
            let alone = SampleMemo::default();
            for bound in &asked {
                serve(engine, bound, &alone).unwrap();
            }
            alone.gauges().bytes as usize
        });
        let memo = SampleMemo::with_bound(sizes.max().unwrap());
        for _round in 0..3 {
            for engine in &engines {
                for (at, bound) in asked.iter().enumerate() {
                    let (explanation, _, _, reused) = serve(engine, bound, &memo).unwrap();
                    assert_eq!(explanation, engine.explain(&log, bound).unwrap());
                    assert_eq!(reused, at > 0);
                    assert!(memo.get(bound, engine.config()).is_some());
                }
            }
        }
        assert_eq!(memo.gauges().stores, 6);
    }
}
