//! Hand-rolled machine-learning primitives used by PerfXplain.
//!
//! The PerfXplain explanation-generation algorithm (Algorithm 1 in the paper)
//! is *related to* decision-tree learning but is not a decision tree: it only
//! borrows the notion of information gain for choosing the best predicate per
//! feature, and then ranks the per-feature predicates by a weighted,
//! percentile-normalised combination of precision and generality.  The two
//! baselines additionally need Relief-style feature importance
//! (RuleOfThumb) and a balanced sampler (Section 4.3 of the paper).
//!
//! This crate provides exactly those primitives, with no external ML
//! dependencies:
//!
//! * [`dataset`] — a small dataset abstraction over mixed numeric/nominal
//!   attributes with missing values and binary labels, with typed
//!   contiguous column snapshots ([`Dataset::column_cells`]) for
//!   attribute-major consumers.
//! * [`hash`] — a vendored FxHash-style hasher ([`FxHashMap`]) for the hot
//!   lookup maps (dictionary interning, column/row indexes, the nominal
//!   candidate dedup of the split search); deterministic and several times
//!   cheaper per short-key lookup than std's SipHash.
//! * [`codec`] — length-prefixed little-endian binary encoding primitives
//!   ([`ByteWriter`] / [`ByteReader`]) plus the bit-level compression
//!   layer: LSB-first bit-packing ([`ByteWriter::put_packed`]), presence
//!   bitmaps and the frame-of-reference / delta / raw numeric stream codec
//!   ([`codec::encode_f64_stream`]).  [`ColumnStore::encode_binary`] and
//!   [`ColumnStore::decode_binary`] persist compressed column segments in
//!   this form so the snapshot store's cold start never touches serde-JSON.
//! * [`entropy`] — binary entropy, entropy of count vectors and information
//!   gain of a boolean partition.
//! * [`split`] — C4.5-style best-split search per attribute (threshold
//!   candidates for numeric attributes, equality tests for nominal ones).
//! * [`relief`] — the Relief feature-estimation algorithm
//!   (Robnik-Šikonja & Kononenko) adapted for mixed attributes and missing
//!   values, used by the RuleOfThumb baseline.
//! * [`sample`] — the balanced sampling procedure of Section 4.3.
//! * [`pool`] — the bounded, long-lived [`WorkerPool`] behind every
//!   parallel loop of the workspace and the network server: a fixed set of
//!   worker threads over a shared job queue, a scoped
//!   [`WorkerPool::map_chunks`] whose waiting caller runs its own queued
//!   chunks, with one size rule
//!   ([`WorkerPool::map_chunks_gated`]), and a process-wide
//!   [`pool::shared`] instance sized to the hardware.
//! * [`shard`] — fan-out sizing: [`shard::hardware_threads`] and the
//!   [`shard::MAX_FANOUT`] ceiling (`perfxplain-core` re-exports it as
//!   `perfxplain_core::shard`).
//! * [`stats`] — means, standard deviations and the percentile-rank
//!   normalisation used by `normalizeScore` in Algorithm 1.
//! * [`failpoints`] — deterministic fault injection behind the
//!   off-by-default `failpoints` cargo feature: named sites in the
//!   persistence, pool and server paths ask [`failpoints::trigger`]
//!   whether to fail; disabled, the call inlines to `None` and costs
//!   nothing.
//! * `oracle` (tests only) — the retained naive split finder and Relief,
//!   the equivalence oracles for everything below.
//!
//! # Performance
//!
//! The trainer is **O(n log n) per (node, attribute)** end to end:
//!
//! * **Split search is a single-sort sweep** ([`split`]).  Per attribute the
//!   present values are sorted once; every `<=`/`>` mid-point threshold and
//!   every `=` candidate is then scored in O(1) from running prefix
//!   [`entropy::CellCounts`] (`<=` partitions are prefixes of the sorted
//!   order, `>` their complements, `=` the tolerance band around one
//!   value).  The naive evaluator rescanned all n instances for each of the
//!   ~3·distinct candidates — O(d·n), quadratic on continuous features such
//!   as runtimes.  The sweep visits candidates in the identical order under
//!   the identical comparison, so the winning [`SplitCandidate`] is
//!   bit-identical (proptested against `oracle`).  The sweep is two
//!   steps: a [`SplitSummary`] scores every candidate independently of
//!   the applicability filter of PerfXplain's greedy loop, and a replay
//!   offers the candidates the filter admits.  A summary kept for many
//!   filters makes each later search a replay: no sort, no gain.
//!   Nominal candidates dedup through an [`FxHashMap`] (first-seen order
//!   preserved) instead of a linear scan, and equality candidates that
//!   duplicate an adjacent mid-point's partition are suppressed outright.
//! * **Relief is columnar and parallel** ([`relief`]).  Distance scans run
//!   attribute-major over typed contiguous columns
//!   ([`dataset::ColumnCells`]) with the kind and normalisation span
//!   resolved once per column — no per-cell enum dispatch — and the `m`
//!   sampled instances fan out over the shared [`pool`] once the scan
//!   reaches [`pool::MIN_FAN_OUT_WORK`] cells, with weight updates applied
//!   in sample order so the weights are bit-identical to the row-at-a-time
//!   scan (also proptested against `oracle`).
//! * **NaN is missing.**  A NaN feature cell used to panic the split
//!   search's sort (and with it the whole query service); NaN now behaves
//!   exactly like [`AttrValue::Missing`] in candidate generation, the
//!   sweep, [`Dataset::numeric_range`] and the Relief `diff`.
//! * **Column segments compress on disk and share in memory.**  The v2
//!   segment format written by [`ColumnStore::encode_binary`] lays each
//!   column out as
//!
//!   ```text
//!   ┌──────────────────┬──────────┬───────────────┬─────────────────────┐
//!   │ presence bitmap  │ kind tag │ [kind bitmap] │ packed sub-streams  │
//!   │ ⌈rows/8⌉ bytes   │ 1 byte   │ (mixed only)  │ nominal ids + nums  │
//!   └──────────────────┴──────────┴───────────────┴─────────────────────┘
//!   ```
//!
//!   Dictionary ids bit-pack at ⌈log₂(dict len)⌉ bits (a constant column
//!   costs zero bits per cell); numerics whose values are exactly
//!   representable integers take frame-of-reference or delta coding at the
//!   offset width, whichever is smaller; everything else — NaN, ±inf,
//!   −0.0, fractions, full-range magnitudes — falls back to raw 8-byte
//!   bit patterns, so decoding is bit-exact by construction and the
//!   fallback never costs more than the old fixed-width form.  Missing
//!   cells cost one presence bit instead of a tag byte.  Decoded columns
//!   land in [`columnar::ColumnData`] (`Arc<[AttrValue]>`) buffers, which
//!   `ColumnStore::merge_segments` adopts without copying when a single
//!   segment is merged — the snapshot open path hands the decoded buffers
//!   straight to the query views.

pub mod codec;
pub mod columnar;
pub mod dataset;
pub mod entropy;
pub mod failpoints;
pub mod hash;
#[cfg(any(test, feature = "oracle"))]
pub mod oracle;
pub mod pool;
pub mod relief;
pub mod sample;
pub mod shard;
pub mod split;
pub mod stats;

pub use codec::{
    bits_needed, decode_f64_stream, encode_f64_stream, ByteReader, ByteWriter, CodecError,
    CodecResult,
};
pub use columnar::{ColumnData, ColumnStore, MergedStore};
pub use dataset::{
    AttrKind, AttrValue, Attribute, ColumnCells, Dataset, NominalDictionary, NO_NOMINAL,
};
pub use entropy::{binary_entropy, entropy_of_counts, information_gain};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use pool::WorkerPool;
pub use relief::{relief_weights, ReliefConfig};
pub use sample::{balanced_sample, BalanceStats};
pub use split::{
    best_split_for_attribute, best_split_for_attribute_filtered, SplitCandidate, SplitSummary,
    TestAtom, TestConstant, TestOp,
};
pub use stats::{mean, percentile_ranks, stddev};
