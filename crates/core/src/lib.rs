//! PerfXplain: explain the relative performance of MapReduce jobs and tasks.
//!
//! This crate is a faithful reproduction of the system described in
//! *"PerfXplain: Debugging MapReduce Job Performance"* (Khoussainova,
//! Balazinska, Suciu — VLDB 2012).  Given
//!
//! * an **execution log** of past MapReduce job and task executions, each
//!   represented as a flat vector of features (configuration parameters,
//!   data characteristics, Hadoop counters, averaged Ganglia metrics and the
//!   runtime itself), and
//! * a **PXQL query** identifying a pair of executions and stating what was
//!   observed and what was expected,
//!
//! it produces an **explanation**: a pair of predicates over *pair features*
//! (a despite clause and a because clause) chosen to be applicable to the
//! pair of interest, precise, general and relevant.
//!
//! # Quick example
//!
//! An investigation is a *session*: many PXQL queries against one log.  The
//! [`XplainService`] is the entry point built for that — it owns the log,
//! caches its columnar encoding per `(generation, kind)`, and answers each
//! [`QueryRequest`] (parse + bind + explain + narrate + assess) in one
//! call, concurrently if asked ([`XplainService::par_explain_batch`]):
//!
//! ```
//! use perfxplain_core::{ExecutionLog, ExecutionRecord, QueryRequest, XplainService};
//!
//! // A miniature execution log: jobs with big blocks finish in ~600 s
//! // regardless of their input size.
//! let mut log = ExecutionLog::new();
//! for i in 0..30 {
//!     let big_blocks = i % 2 == 0;
//!     let input: f64 = if i % 4 < 2 { 32.0e9 } else { 1.0e9 };
//!     let duration = if big_blocks { 600.0 } else { input / 5.0e7 };
//!     log.push(
//!         ExecutionRecord::job(format!("job_{i}"))
//!             .with_feature("inputsize", input)
//!             .with_feature("blocksize", if big_blocks { 1024.0 } else { 64.0 })
//!             .with_feature("duration", duration),
//!     );
//! }
//! log.rebuild_catalogs();
//!
//! // "Despite reading much more data, job_0 was not slower than job_2. Why?"
//! let service = XplainService::new(log);
//! let request = QueryRequest::text(
//!     "DESPITE inputsize_compare = GT\n\
//!      OBSERVED duration_compare = SIM\n\
//!      EXPECTED duration_compare = GT",
//! )
//! .with_pair("job_0", "job_2");
//!
//! let outcome = service.explain(&request).unwrap();
//! assert!(outcome.explanation.width() >= 1);
//! println!("{}", outcome.explanation);
//!
//! // Repeats (any pair, any query of the same kind) reuse the cached
//! // encoding; mutations bump the log's generation and invalidate it.
//! assert!(service.explain(&request).unwrap().view_reused);
//! service.with_log_mut(|log| log.rebuild_catalogs());
//! assert!(!service.explain(&request).unwrap().view_reused);
//! ```
//!
//! For one-off questions the stateless [`PerfXplain`] engine
//! (`engine.explain(&log, &bound)`) remains available; it is a thin wrapper
//! over a single-shot pass through the same [`service`] code path.
//!
//! # Performance
//!
//! Explanation generation is dominated by two costs: encoding the log into
//! its columnar view, and classifying O(n²) candidate pairs against the
//! query.  The pipeline attacks both with a **sharded, columnar, streaming,
//! zero-re-encoding hot path** ([`columnar`], [`training`], [`bridge`],
//! [`record`]), and getting *to* that hot path — and staying on it while
//! new executions stream in — is a **six-tier story**:
//!
//! | tier | start state | cost |
//! |---|---|---|
//! | cold JSON ingest | raw bundles or a JSON log | parse + catalog inference + full columnar encode |
//! | snapshot open | a [`snapshot`] directory | read + fingerprint-verify + decode binary columns; **no parsing, no re-encode** |
//! | warm service cache | a running [`XplainService`] | `Arc` clone of the cached view; zero work |
//! | live append | a running service ingesting | O(tail) splice of the fresh records into the cached view's **append tail**; base columns `Arc`-shared untouched |
//! | durable append | a service with the journal enabled | one checksummed frame written to `journal.bin` before the ack, fsynced per [`FsyncPolicy`]; replayed through the delta path on restart |
//! | networked serving | a `perfxplain-server` front-end | one admission-time [`estimate_cost`](service::XplainService::estimate_cost) per request; queries share the warm cache |
//!
//! A deployment pays tier 1 once per *source* change (and, with
//! incremental [`snapshot::sync`], only for the shards whose source
//! actually changed), tier 2 once per process start, and tier 3 on every
//! query; tier 4 keeps the cache warm *through* ingest — an
//! [`XplainService::append`](service::XplainService::append) never costs a
//! re-encode, only an O(tail) delta refresh on the next query; tier 5
//! makes those acks *mean* something across a crash — with
//! [`enable_journal`](service::XplainService::enable_journal) every append
//! is framed and checksummed into a write-ahead journal before it is
//! acknowledged ([`AppendOutcome::durable`](service::AppendOutcome)
//! reports whether the frame was fsynced first), and a restart replays the
//! journal tail through the same delta path, so recovery resumes warm;
//! tier 6 wraps the warm service in a wire protocol so many remote
//! debugging sessions share one log — each request is admitted against a
//! concurrent cost budget computed from its compiled-plan statistics
//! ([`CostEstimate`], no view built, no features
//! scanned), refunds the estimate/actual difference mid-flight once the
//! measured related-pair count is known
//! ([`CostProbe`],
//! [`CostEstimate::refined_units`](service::CostEstimate::refined_units)),
//! and carries a [`CancelToken`] deadline the
//! enumeration and clause loops observe at phase boundaries, so a serving
//! process stays bounded in both memory and per-request latency.
//!
//! 1. **Ingest sharded.** `hadoop_logs::collect_bundles_sharded` parses
//!    history/conf/Ganglia bundles into one shard log per job of the shared
//!    worker pool, and [`ExecutionLog::from_shards`] assembles them without
//!    re-scanning them (shard catalogs merged by
//!    [`FeatureCatalog::merge`]), exactly equivalent to the serial
//!    push-and-rebuild path.
//! 2. **Encode sharded, once.** [`ColumnarLog`] turns the per-kind records
//!    into per-feature columns: numeric cells inline, nominal cells
//!    interned by canonical PXQL text (formatted into a reused scratch
//!    buffer — no per-cell allocation) with the original [`pxql::Value`]
//!    retained per id.
//!    [`build_sharded`](columnar::ColumnarLog::build_sharded) splits the
//!    row space into contiguous segments, encodes each with a **local**
//!    dictionary as one job of the shared worker pool, and merges the
//!    segments by dictionary remapping
//!    ([`mlcore::ColumnStore::merge_segments`]) into a view **bit-identical**
//!    to the single-shot build;
//!    [`build_auto`](columnar::ColumnarLog::build_auto) picks the shard
//!    count by the pool's size rule (one per pool thread at ≥
//!    [`pool::MIN_FAN_OUT_WORK`] record-feature cells), and the
//!    [`XplainService`] builds its cached per-`(generation, kind)` views
//!    through it automatically.  A view holds only what only it can: the
//!    encoded cells, each row's position in [`ExecutionLog::records`], the
//!    originals and the column kinds.  The log stays the one owner of every
//!    record and keeps the one id index (id → last position, a std
//!    `HashMap` because ids arrive over the wire): [`ExecutionLog::get`] is
//!    one lookup, and a view's `row_of` looks the id's position up there,
//!    then binary-searches its ascending positions.  A view is valid with
//!    the log it was built from, or with any log that has only been
//!    appended to since; the service keeps that contract through its
//!    generations and rewrite watermarks (step 9).  Views are `Arc`-shared,
//!    so every query — including the despite-extension pass and whole
//!    concurrent batches — runs with zero re-encoding.  Hot lookup maps
//!    over internal keys (dictionary interning, column names,
//!    `PairCatalog`) use a vendored deterministic [`mlcore::FxHashMap`]
//!    instead of SipHash.
//! 3. **Compile the query.** [`CompiledQuery`]
//!    resolves every clause atom to a `(column index, pair-feature group)`
//!    pair and pre-analyses its constant (`compare` atoms become a 3-entry
//!    truth table), so classifying one candidate pair is a handful of
//!    integer/float comparisons — no allocation, no string hashing, no
//!    `BTreeMap`.
//! 4. **Stream the enumeration, on the pool.**
//!    [`collect_related_pairs_in`] never materialises the candidate space:
//!    blocking groups and the deterministic cap (a stateless per-ordinal
//!    hash, so enumeration order and parallelism cannot change the outcome)
//!    are applied while streaming, and memory stays proportional to the
//!    *related* pairs.  The blocking groups are built from the encoded
//!    column, not decoded values: one counting pass keys each row by its
//!    global dictionary id, and only the distinct ids are sorted, by their
//!    canonical text.  The text order is kept on purpose: the group order
//!    fixes every candidate's ordinal, which is what the cap keys on.  An
//!    unblocked query is the same plan with one group of every row, so
//!    both enumerate through one loop.  On multi-core machines the outer
//!    record loop fans out over the shared worker pool once the plan
//!    enumerates [`pool::MIN_FAN_OUT_WORK`] candidates; below that, and on
//!    one CPU, it runs inline on the caller.  Results are bit-identical
//!    either way.
//! 5. **Reuse the sample and its encoding.** Algorithm 1 draws its
//!    training set from the query's three clauses alone; the pair of
//!    interest only filters the candidate predicates.  So each cached view
//!    of the [`XplainService`] memoizes the samples
//!    drawn over it, keyed by the clauses and the request's effective
//!    [`ExplainConfig`]: asking one template about another pair skips the
//!    enumeration, the cap and the balanced sample, and hands the clause
//!    loop the same pairs, labels and related-pair count
//!    ([`QueryOutcome::sample_reused`](service::QueryOutcome::sample_reused))
//!    without copying them.  An entry is stored once its first request has
//!    featurized it: the sample with its encoded split-search dataset
//!    (step 6) and the first clause iteration's per-attribute summaries
//!    (step 7), so a hit encodes only the pair of interest's row and
//!    replays the summaries.  The memo lives exactly as long as its log
//!    generation; it holds at most 32 MiB of entries per view, datasets
//!    and samples together, and evicts whole entries, least recently used
//!    first.  The stateless paths run the same routines and store
//!    nothing.  Every path finds the pair of interest
//!    through the log's id index.
//! 6. **Encode the sample directly.**
//!    [`DatasetBridge::encode_from_view`](bridge::DatasetBridge::encode_from_view)
//!    derives the pair features of the sampled training pairs straight from
//!    the columns into the split-search [`mlcore::Dataset`], one attribute
//!    at a time into that attribute's column: `u32` ids, `f64`s, or nothing
//!    for a pair feature no sampled pair holds, so a 2,000-pair paper-grid
//!    job dataset takes about 1 MB, not 5.2.  A
//!    nominal cell is interned from its encoded key — the `isSame` or
//!    `compare` outcome, the base cell's view dictionary id, or the diff
//!    cell's ordered id pair — through a per-attribute cache, so its
//!    canonical text is built and hashed only the first time the key
//!    appears in a sample (174 distinct keys among 323k cells on the
//!    paper log's job query); the dataset dictionary still assigns every
//!    id.  The sampled rows are interned first; the pair of interest is
//!    then resolved against the finished dictionaries, and a winning
//!    nominal constant renders as the pair's own value.  The sample has
//!    one form, [`EncodedTraining`] (view rows, labels and the similarity
//!    band), and no path builds a pair-feature map from it: the quality
//!    metrics ([`metrics`]) and the evaluation harness ([`eval`]) evaluate
//!    PXQL on the same rows through the [`CompiledPredicate`]s that
//!    classified them, each clause compiled once per sample, and the
//!    SimButDiff baseline reads `isSame` from the rows' cells.  A
//!    [`PairExample`] map is built only for one pair of interest
//!    ([`BoundQuery::pair_of_interest`]: RuleOfThumb and
//!    [`Explanation::is_applicable`] checks).
//! 7. **Train in O(n log n).**  The per-feature predicate search of
//!    Algorithm 1 ([`mlcore::best_split_for_attribute_filtered`]) is a
//!    single-sort sweep: values sorted once per (node, attribute), every
//!    candidate threshold/equality scored in O(1) from running prefix
//!    counts — the naive evaluator rescanned all rows per candidate,
//!    O(d·n), quadratic on continuous features.  The sweep is a
//!    [`mlcore::SplitSummary`] of every candidate with its counts and gain,
//!    replayed under the applicability filter (the pair of interest must
//!    satisfy every emitted predicate).  The first iteration searches every
//!    sampled row, so its summaries are kept with the encoded sample and a
//!    repeated template replays them: one lookup per nominal attribute, one
//!    comparison per candidate on a numeric one, no sort and no gain.  The
//!    per-attribute searches of the greedy clause loop ([`PerfXplain`]) fan
//!    out over the shared worker pool on large nodes, and Relief
//!    ([`mlcore::relief_weights`], behind the RuleOfThumb baseline) scans
//!    the dataset's own typed columns attribute-major, with its sampled
//!    instances fanned out the same way.  Every search and the clause
//!    loop's row filter read one attribute's contiguous column.  The pre-sweep trainer is retained
//!    as `mlcore::oracle` (tests only) and the winners are
//!    proptest-proven bit-identical to it.
//! 8. **Persist the encoded form, compressed.** The [`snapshot`] store
//!    writes each shard as a length-prefixed binary segment file (format
//!    v2) under a manifest of FxHash content fingerprints, per-shard
//!    catalogs and per-shard byte accounting
//!    ([`SnapshotManifest::usage`](snapshot::SnapshotManifest::usage)):
//!
//!    ```text
//!    magic ─ version ─┬─ records block: id, kind, parent, exceptions
//!                     ├─ job columns:  schema + per-column compressed cells
//!                     └─ task columns: presence bitmap ─ kind tag
//!                                      ─ bit-packed dictionary ids
//!                                      ─ FoR/delta/raw numeric stream
//!    ```
//!
//!    Columns compress via [`mlcore::ColumnStore::encode_binary`]
//!    (dictionary ids at ⌈log₂(dict len)⌉ bits, integral numerics
//!    frame-of-reference/delta coded, a raw fallback that keeps NaN/±inf/
//!    −0.0 bit-exact), and the records block stores **only** the features
//!    the columns cannot reproduce bit-exactly (`Null` values,
//!    canonical-text collisions) — everything else is read back from the
//!    columns on open, which is where the ≥2× on-disk shrink comes from.
//!    The open builds each record's feature slice once, from its segment
//!    row plus its exceptions, under one shared name per feature.
//!    A cold start ([`snapshot::open`] →
//!    [`Snapshot::into_views`](snapshot::Snapshot::into_views), or
//!    [`XplainService::open_snapshot`](service::XplainService::open_snapshot)
//!    for a pre-warmed service) loads segments on concurrent threads,
//!    stitches them with the same dictionary-remapping merge as the
//!    sharded encode — bit-identical to encoding from scratch — and
//!    **moves** each shard's records into the log and the decoded
//!    `Arc`-backed column buffers into the views (adopting them outright
//!    for single-segment snapshots).  No record is copied, so peak open
//!    memory is approximately the log plus the views' columns, not a
//!    multiple of them.
//!    Incremental re-ingest ([`snapshot::sync`]) fingerprints each shard's
//!    source and re-encodes only the dirty shards; a changed global
//!    catalog re-encodes everything from on-disk records, still never
//!    re-parsing the source.  Full writes ([`snapshot::persist`]) and
//!    incremental ones commit through one routine, and the strict open,
//!    the salvage open, [`snapshot::verify`] and `sync`'s reuse check read
//!    segments through one per-shard loader.
//! 9. **Append live, refresh by delta.**
//!    [`XplainService::append`](service::XplainService::append) extends the
//!    served log *without* invalidating the cached views: the next query
//!    encodes the kind's records past the length the view covers into a
//!    small **append-tail segment**
//!    ([`ColumnarLog::with_appended`](columnar::ColumnarLog::with_appended):
//!    the current tail and the fresh segment go through the same
//!    [`mlcore::ColumnStore::merge_segments`] as a build) and keeps only
//!    their log positions — dictionaries extend in place, the base columns
//!    and positions stay `Arc`-shared byte for byte, and the refresh costs
//!    O(tail) cells instead of O(log).  Per-kind **rewrite
//!    watermarks** ([`ExecutionLog::rewrite_generation`]) keep the shortcut
//!    sound: an append whose batch changes the catalog, and every
//!    non-append mutation ([`XplainService::with_log_mut`]), move the
//!    watermark and force a full rebuild.  An id resolves through the log's
//!    index to its last record, so a re-ingested id finds its tail row
//!    exactly as a rebuild would; queries see base and tail as one view,
//!    and a tail that outgrows the default [`CompactionPolicy`] folds back
//!    into its base
//!    ([`ColumnarLog::compacted`](columnar::ColumnarLog::compacted): the
//!    base and the tail through the same merge, whose remap of the tail
//!    must be the identity; positions concatenated, originals kept, no
//!    record touched) on the shared worker pool in the background.  [`XplainService::checkpoint`](service::XplainService::checkpoint)
//!    persists the live tail as one incremental snapshot shard
//!    ([`snapshot::sync_append`], [`ShardInput::Keep`] for the clean
//!    prefix) — a checkpoint while serving, no stop-the-world re-encode.
//!    [`ViewCacheStats`] counts delta refreshes vs full rebuilds vs
//!    compactions
//!    ([`XplainService::view_stats`](service::XplainService::view_stats)).
//! 10. **Recover in layers, cheapest remedy first.** Transient IO errors
//!     (interrupted, would-block, timed-out) are absorbed *in place*: every
//!     snapshot and journal file operation runs through one IO helper that
//!     retries with bounded exponential backoff before surfacing
//!     [`CoreError::SnapshotIo`], and
//!     [`SyncReport::io_retries`](snapshot::SyncReport::io_retries) counts
//!     what was absorbed.  A store the strict [`snapshot::open`] rejects as
//!     corrupt is *salvaged* next ([`snapshot::open_salvage`],
//!     [`XplainService::open_snapshot_salvage`](service::XplainService::open_snapshot_salvage)):
//!     every shard fingerprint-verifies independently, damaged segments are
//!     **quarantined** — renamed aside, never deleted — and the healthy
//!     shards keep serving as a
//!     [`PartialSnapshot`] while a targeted
//!     [`snapshot::sync`] re-encodes *only* the quarantined shards from
//!     source.  A salvage that quarantined nothing equals a strict open,
//!     checkpoint lineage included; after a quarantine the served log no
//!     longer lines up with the manifest, so it has no lineage until a
//!     checkpoint rewrites the store in full.  A full re-ingest is the **last resort**, reserved for
//!     stores salvage cannot read at all: an unusable manifest, or a v1
//!     store reporting [`CoreError::SnapshotVersionSkew`].
//!     [`snapshot::verify`] audits every fingerprint read-only (CLI
//!     `perfxplain snapshot verify`), and under `--features failpoints`
//!     every one of these IO sites carries a named fault-injection point
//!     the chaos suite drives.
//! 11. **Journal acknowledged appends; replay them on restart.** The
//!     write-ahead journal
//!     ([`XplainService::enable_journal`](service::XplainService::enable_journal))
//!     closes the durability gap between checkpoints: every append writes a
//!     length-prefixed, checksum-framed record batch to `journal.bin` in
//!     the snapshot directory *before* the ack, fsynced per
//!     [`FsyncPolicy`] (`Always` / `EveryN` /
//!     `OnCheckpoint`), and [`AppendOutcome::durable`](service::AppendOutcome)
//!     — surfaced on the wire as the append response's `durable` flag —
//!     says whether *this* ack survives a crash.  On open the journal is
//!     replayed after the manifest by one routine,
//!     [`JournalReplay::apply`](snapshot::JournalReplay::apply), which both
//!     service opens (strict and salvage) and the CLI's `snapshot open`
//!     call: frames record the log position they were acked at, so
//!     already-checkpointed frames skip and a positional gap stops the
//!     replay; a torn or bit-rotted tail **truncates at the last valid
//!     frame** (typed, never a panic, never a count-sized allocation), and
//!     the service splices the replayed batches through the same
//!     [`with_appended`](columnar::ColumnarLog::with_appended) delta path
//!     as live appends — the restarted service answers its first query
//!     warm, tail already in the views.  The service keeps the journal and
//!     its **checkpoint lineage** (the directory the log was last opened
//!     from or written to, with only appends since: the rows its manifest
//!     covers and the frames replayed at open) in one value behind one
//!     mutex, taken before the log.  [`XplainService::checkpoint`] and
//!     [`XplainService::persist`](service::XplainService::persist) run one
//!     write routine that rotates the journal atomically (fresh journal
//!     staged before the manifest rename, reset only after the commit), so
//!     journal bytes only ever describe the tail beyond the snapshot.
//!     [`verify_journal`] audits frame checksums read-only alongside [`snapshot::verify`],
//!     [`JournalStats`] (bytes, frames appended /
//!     replayed / truncated, fsyncs, last rotation generation) feeds the
//!     server's `status` probe.  The journal's write / fsync / replay
//!     operations run through the store's IO helper (transient retry and
//!     failpoints), and its frames encode records with the segment files'
//!     record codec, every feature kept.  The invariant is proven both ways: a
//!     crash-prefix proptest damages the journal at arbitrary byte offsets
//!     and asserts exactly the acked prefix recovers, and the CI
//!     crash-recovery smoke SIGKILLs a journaled server mid-storm and
//!     asserts zero acked-durable records lost.
//!
//! **Invariants.** The columnar path produces the same related-pair set,
//! labels, dataset, explanations, quality metrics and SimButDiff scores as
//! evaluating PXQL over every pair's full feature map would:
//! `compute_pair_features` with `Predicate::eval` is the reference, and
//! [`DatasetBridge::build`](bridge::DatasetBridge::build) the reference
//! featurize over it, kept for the tests to compare against; the sharded
//! ingest/encode paths produce logs and views bit-identical to their
//! single-shot counterparts for every shard count; and a persisted
//! snapshot reopens to the same log and bit-identical views
//! (`open(persist(log)).into_views() ≡ build_sharded(log, ..)`), with
//! one-dirty-shard syncs re-encoding exactly one segment; and the
//! delta-maintained live views are equivalent to never having cached at
//! all — under arbitrary interleavings of appends (catalog-preserving and
//! catalog-changing), non-append mutations, tail compactions and queries,
//! the view the service serves is bit-identical to a from-scratch
//! `build_sharded` of the log at that moment, and the answers match a
//! stateless engine's.  Build, refresh and fold are one merge, so those
//! equivalences hold for all three through one routine.  The log's id
//! index names the last record of every id after every constructor and
//! mutation, and a view of either kind resolves an id to that record's
//! row, or to none when the record is of the other kind.
//! `tests/properties.rs` proves all of these on randomized logs, queries
//! and shard counts, and `tests/snapshot_store.rs` pins the corruption
//! taxonomy (truncation, fingerprint mismatch, version skew → typed
//! [`CoreError`]s), that every corruption is salvageable (lenient open
//! quarantines exactly the damaged shard and serves the rest) and
//! manifest-order authority.  Nominal
//! interning is keyed by canonical text, so two raw values that differ
//! textually but compare equal under PXQL's cross-type rules (`Bool(true)`
//! vs the string `"true"`) diverge — canonical log producers never mix
//! value types within a feature.  When the candidate space exceeds
//! `max_candidate_pairs` the subsample differs from the seed
//! implementation's (hash-based vs sequential RNG), but is equally
//! deterministic for a fixed seed.
//!
//! pxbench (`BENCHMARK.json`; its own workspace under `pxbench/`) measures
//! served latency, set-up time and memory over four seeded workloads with
//! repeated runs and fixed bounds, and its traced runs time each layer.
//! `cargo bench --bench scale_1m` records the two 1M-record points it does
//! not reach in `BENCH_scale_1m.json`: the cold open (JSON re-parse vs
//! snapshot open, with the open's peak memory) and the delta refresh under
//! appends.  CI additionally runs the release-mode `smoke` scenarios under
//! wall-clock ceilings: the sharded 100k ingest+query round trip, the
//! snapshot persist → reopen → query round trip checked outcome-equal to
//! the in-memory path, the blocked 100k explain (cold + warm) on a
//! trainer-heavy log, the networked serving contract, the
//! append-while-serving loop (every batch must refresh by delta, with the
//! mean refresh under a fixed fraction of one full re-encode) and the
//! SIGKILL + journal replay round trip.

pub mod baselines;
pub mod bridge;
pub mod cancel;
pub mod columnar;
pub mod config;
pub mod error;
pub mod eval;
pub mod explain;
pub mod explanation;
pub mod features;
pub mod levels;
pub mod metrics;
pub mod narrate;
pub mod pairs;
pub mod query;
pub mod record;
pub mod service;
pub mod snapshot;
pub mod training;

// The worker pool lives in `mlcore` (so the split search and Relief fan out
// on it too): every parallel loop shares `pool::shared()`, and servers
// build their own for requests.  `shard` holds its sizing
// (`hardware_threads`, `MAX_FANOUT`) under its historical path.
pub use mlcore::pool;
pub use mlcore::shard;

// The fault-injection registry (a no-op unless the `failpoints` feature is
// on) is re-exported so the chaos suite and the server crate script the
// same sites the snapshot store triggers.
pub use mlcore::failpoints;

pub use baselines::{RuleOfThumb, SimButDiff};
pub use cancel::CancelToken;
pub use columnar::{ColumnarLog, CompiledPredicate, CompiledQuery};
pub use config::ExplainConfig;
pub use error::{CoreError, Result};
pub use eval::{
    evaluate_on_log, generate_explanation, split_log, train_test_round, Aggregate,
    EvaluationResult, Technique,
};
pub use explain::PerfXplain;
pub use explanation::Explanation;
pub use features::{FeatureCatalog, FeatureDef, FeatureKind, DURATION_FEATURE};
pub use levels::FeatureLevel;
pub use metrics::{assess, generality, precision, relevance, ExplanationQuality, MetricEstimate};
pub use narrate::narrate;
pub use pairs::{
    compute_pair_features, PairCatalog, PairExample, PairFeatureGroup, DEFAULT_SIM_THRESHOLD,
};
pub use query::{BoundQuery, PairLabel};
pub use record::{ExecutionKind, ExecutionLog, ExecutionRecord};
pub use service::{
    AppendOutcome, CompactionPolicy, CostEstimate, CostProbe, QueryInput, QueryOutcome,
    QueryRequest, ViewCacheStats, XplainService,
};
pub use snapshot::{
    verify_journal, FsyncPolicy, JournalHealth, JournalStats, PartialSnapshot, RecordShard,
    ShardDamage, ShardEntry, ShardHealth, ShardInput, Snapshot, SnapshotManifest, SnapshotShard,
    SnapshotUsage, SnapshotViews, SyncReport, SNAPSHOT_VERSION,
};
pub use training::{
    collect_related_pairs_in, prepare_encoded_training, prepare_encoded_training_in,
    EncodedTraining,
};

// Re-export the query language so that downstream users only need one
// dependency.
pub use pxql;
