//! PerfXplain — explain the relative performance of MapReduce jobs and
//! tasks.
//!
//! This is the facade crate of the workspace: it re-exports the public API
//! of every component so that applications (and the examples and integration
//! tests of this repository) only need a single dependency.
//!
//! | component | crate | what it provides |
//! |---|---|---|
//! | explanation engine | [`perfxplain_core`] | execution-log data model, PXQL binding, pair features, metrics, Algorithm 1, baselines, evaluation harness |
//! | query language | [`pxql`] | values, predicates, parser for PXQL |
//! | ML primitives | [`mlcore`] | entropy, C4.5-style splits, Relief, balanced sampling |
//! | cluster simulator | [`mrsim`] | discrete-event MapReduce cluster with a Ganglia-style monitor |
//! | log substrate | [`hadoop_logs`] | Hadoop job-history / job.xml / Ganglia dump writer, parser and feature collector |
//! | workloads | [`workload`] | Excite-like data generator, the Table-2 grid, sweep driver and the paper's two queries |
//! | network front-end | [`server`] | non-blocking TCP event loop, line-delimited JSON protocol, cost-based admission control |
//!
//! # Quickstart
//!
//! Debugging sessions are interactive: a user poses *many* PXQL queries
//! against the *same* execution log.  The [`XplainService`] is the
//! long-lived entry point for that — it caches the log's columnar encoding
//! per (generation, kind) and serves every query (concurrently, if you
//! like) from the cached view:
//!
//! ```no_run
//! use perfxplain::prelude::*;
//!
//! // 1. Produce an execution log (here: simulate a small parameter sweep and
//! //    collect the Hadoop/Ganglia logs it leaves behind).
//! let log = build_execution_log(LogPreset::Tiny, 42);
//!
//! // 2. Pose a PXQL query about a pair of executions.
//! let binding = why_slower_despite_same_num_instances(&log).expect("pair of interest");
//!
//! // 3. Stand up the query service and ask.  One call parses, binds,
//! //    explains, narrates and scores; repeated queries reuse the cached
//! //    columnar view instead of re-encoding the log.
//! let service = XplainService::new(log);
//! let outcome = service
//!     .explain(&QueryRequest::bound(binding.bound).with_narration())
//!     .unwrap();
//! println!("{}", outcome.explanation);
//! println!("{}", outcome.narration.unwrap());
//!
//! // New executions append while serving: cached views splice them into an
//! // O(tail) append segment instead of re-encoding the log.  Any other
//! // mutation bumps the generation and invalidates the cached views
//! // wholesale — stale answers are impossible either way.  The returned
//! // outcome says whether the append was fsynced to the write-ahead
//! // journal before the ack (`durable` — always false here, where no
//! // journal is enabled).
//! let outcome = service.append(vec![ExecutionRecord::job("job_new")]).unwrap();
//! assert!(!outcome.durable);
//! service.with_log_mut(|log| log.rebuild_catalogs());
//! ```
//!
//! For one-off questions the stateless [`PerfXplain`] engine is still
//! available (`engine.explain(&log, &bound)`); it is a thin wrapper over a
//! single-shot service pass, so both APIs share one code path.
//!
//! # Scaling to large logs
//!
//! Million-record logs load and encode as **shards**, end to end, the
//! encoded form **persists**, and a served log stays **live**: how much an
//! operation costs depends on which tier it begins from.
//!
//! * **Cold JSON/bundle ingest** — the expensive tier, paid once per
//!   source change.  `hadoop_logs::collect_bundles_sharded(&bundles,
//!   shards)` parses job log bundles as jobs of the shared worker pool
//!   ([`mlcore::pool::shared`]) and merges the per-shard logs
//!   ([`ExecutionLog::from_shards`]) into a log identical to a serial
//!   ingest; the columnar view encodes
//!   per shard with local dictionaries and merges by dictionary remapping
//!   ([`ColumnarLog::build_sharded`](perfxplain_core::ColumnarLog::build_sharded)),
//!   bit-identical to the single-shot build, auto-enabled by the
//!   [`XplainService`] once a log holds
//!   [`MIN_FAN_OUT_WORK`](mlcore::pool::MIN_FAN_OUT_WORK) record-feature
//!   cells on a multi-core host.
//! * **Snapshot open** — the normal cold start.  [`snapshot::persist`]
//!   (or [`XplainService::persist`]) writes each shard's records *and its
//!   encoded column segments* as fingerprinted binary segment files;
//!   [`XplainService::open_snapshot`] rehydrates a **warm** service from
//!   them — fingerprints verified, views assembled by the same
//!   dictionary-remapping merge, no JSON, no re-encoding — so the first
//!   query hits a cached view.  Re-ingest is **incremental**
//!   ([`snapshot::sync`], CLI `perfxplain ingest --bundles <dir>
//!   --snapshot <dir>`): shards whose source fingerprint still matches the
//!   manifest are neither re-parsed nor re-encoded.  Recovery from damage
//!   is **layered**, cheapest remedy first: transient IO errors are
//!   absorbed in place by bounded-backoff retry (counted in
//!   [`SyncReport::io_retries`]); a store that fails the strict open is
//!   *salvaged* ([`snapshot::open_salvage`],
//!   [`XplainService::open_snapshot_salvage`]) — damaged segments are
//!   quarantined (renamed aside, never deleted) and the healthy shards
//!   keep serving while a targeted [`snapshot::sync`] re-encodes only the
//!   quarantined shards from source; a full re-ingest is the **last
//!   resort**, reserved for stores salvage cannot read at all (unusable
//!   manifest, version skew).  [`snapshot::verify`] (CLI `perfxplain
//!   snapshot verify`) checks every fingerprint read-only.
//! * **Warm service cache** — every later query `Arc`-shares the cached
//!   view per (log generation, kind); pair enumeration fans out over the
//!   shared worker pool on large views when more than one CPU is
//!   available, with bit-identical results either way.
//! * **Live appends** — new executions stream into a *serving* process
//!   without ever paying a re-encode.
//!   [`XplainService::append`](perfxplain_core::XplainService::append)
//!   extends the log and keeps the cached views alive: the next query
//!   splices the fresh records into a small **append-tail segment** of the
//!   cached view (dictionaries extended in place, base columns `Arc`-shared
//!   untouched), so the refresh costs O(tail), not O(log) — 50×+ cheaper
//!   than a rebuild at n = 100k, and growing with the log.  Per-kind
//!   *rewrite watermarks* keep the shortcut sound: appends that change the
//!   catalog, and every non-append mutation
//!   ([`XplainService::with_log_mut`]), move the watermark and force a full
//!   rebuild — proptest-proven bit-identical to a from-scratch encode under
//!   arbitrary interleavings.  Oversized tails fold back into their base in
//!   the background under a configurable
//!   [`CompactionPolicy`](perfxplain_core::CompactionPolicy), and
//!   [`XplainService::checkpoint`] persists the live tail as an incremental
//!   snapshot shard ([`snapshot::sync_append`]) — a checkpoint without a
//!   stop-the-world re-encode (CLI `perfxplain serve --checkpoint <dir>`).
//!   Over the wire, a `"target": "append"` request (CLI `perfxplain
//!   append`) does the same against a remote server.
//! * **Durable appends** — a snapshot directory can additionally carry a
//!   **write-ahead append journal**
//!   ([`XplainService::enable_journal`](perfxplain_core::XplainService::enable_journal),
//!   CLI `perfxplain serve --checkpoint <dir> --fsync <policy>`): every
//!   append first writes a length-prefixed, fingerprint-checksummed record
//!   frame to `journal.bin` and only then acknowledges, with the fsync
//!   cadence set by [`FsyncPolicy`] — `always` (every ack durable),
//!   `every:n` (amortized), or `oncheckpoint` (journal written, fsync
//!   deferred; within ~10% of un-journaled throughput).  The wire append
//!   response carries the `durable` verdict per batch.  On restart,
//!   [`XplainService::open_snapshot`] replays the journal after the
//!   manifest — torn or corrupt tails are **truncated at the last valid
//!   frame**, never an error, and the replayed records splice through the
//!   same delta path as live appends, so the service comes back warm with
//!   its tail already in the views.  `checkpoint` and `persist` rotate the
//!   journal atomically (new journal staged before the manifest rename,
//!   reset only after the commit), so the journal only ever describes the
//!   tail beyond the snapshot on disk.  [`verify_journal`] (CLI
//!   `perfxplain snapshot verify`) audits the frame checksums read-only,
//!   and the `status` probe reports journal bytes, frame counts, fsyncs
//!   and the last rotation generation.  Graceful shutdown (SIGINT/SIGTERM
//!   or a `shutdown` admin frame) drains in-flight requests under a
//!   bounded deadline, then takes a final checkpoint and journal fsync.
//! * **Networked serving** — [`server::spawn`] (CLI `perfxplain serve`)
//!   puts a line-delimited JSON protocol in front of a warm service: a
//!   single non-blocking event loop owns every connection while queries run
//!   on a bounded worker pool behind **cost-based admission control** —
//!   each request's cost is estimated from its compiled plan
//!   ([`XplainService::estimate_cost`]), charged against a configurable
//!   concurrent budget, queued FIFO (bounded) when the budget is held, and
//!   shed with typed `429` responses beyond that, so many concurrent
//!   debugging sessions share one log under bounded memory.  Once a query's
//!   view is built and the *actual* related-pair count is known, the charge
//!   is **refined mid-flight**: the estimate/actual difference is refunded
//!   to the budget ([`server::ChargeHandle`]), unblocking queued work early;
//!   the cumulative refund shows up in the `status` probe alongside the
//!   live-view delta stats
//!   ([`ViewCacheStats`](perfxplain_core::ViewCacheStats)).
//!
//! Every IO and dispatch layer above carries named fault-injection sites
//! ([`failpoints`], compiled in only under `--features failpoints`): the
//! chaos suite (`tests/chaos.rs`) drives random fault schedules through
//! persist/sync/open, the journal, the worker pool and the server sockets,
//! asserting the store is always openable or salvageable and that salvage
//! plus a targeted sync converges to the same views as a clean full
//! ingest.  The durability invariant is proven both ways: a crash-prefix
//! proptest truncates or bit-flips the journal at arbitrary byte offsets
//! and asserts exactly the frames before the damage are recovered, and the
//! CI crash-recovery smoke SIGKILLs a journaled server mid-append-storm
//! and asserts zero acked-durable records lost on restart.

pub use perfxplain_core::{
    assess, compute_pair_features, evaluate_on_log, generality, generate_explanation, narrate,
    precision, prepare_training_set, relevance, split_log, train_test_round, verify_journal,
    Aggregate, BoundQuery, CoreError, EvaluationResult, ExecutionKind, ExecutionLog,
    ExecutionRecord, ExplainConfig, Explanation, ExplanationQuality, FeatureCatalog, FeatureDef,
    FeatureKind, FeatureLevel, FsyncPolicy, JournalHealth, JournalStats, MetricEstimate,
    PairCatalog, PairExample, PairFeatureGroup, PairLabel, PartialSnapshot, PerfXplain, QueryInput,
    QueryOutcome, QueryRequest, RecordShard, RuleOfThumb, ShardDamage, ShardEntry, ShardHealth,
    ShardInput, SimButDiff, Snapshot, SnapshotManifest, SnapshotShard, SnapshotUsage,
    SnapshotViews, SyncReport, Technique, TrainingSet, XplainService, DEFAULT_SIM_THRESHOLD,
    DURATION_FEATURE, SNAPSHOT_VERSION,
};

// The fault-injection registry (a no-op unless the `failpoints` feature is
// armed) — re-exported so the chaos suite controls every crate's sites
// through one path.
pub use perfxplain_core::failpoints;
pub use perfxplain_core::shard;
pub use perfxplain_core::snapshot;

pub use hadoop_logs;
pub use mlcore;
pub use mrsim;
pub use pxql;
pub use workload;

pub use perfxplain_server as server;

/// Everything most applications need, importable with a single `use`.
pub mod prelude {
    pub use crate::{
        BoundQuery, ExecutionLog, ExecutionRecord, ExplainConfig, Explanation, FeatureLevel,
        PairLabel, PerfXplain, QueryOutcome, QueryRequest, RuleOfThumb, SimButDiff, Technique,
        XplainService,
    };
    pub use hadoop_logs::{
        collect_bundles, collect_bundles_sharded, collect_traces, JobLogBundle, LogCollector,
    };
    pub use mrsim::{Cluster, ClusterSpec, JobSpec, PigScript};
    pub use pxql::{parse_predicate, parse_query, Predicate, Value};
    pub use workload::{
        build_execution_log, why_last_task_faster, why_slower_despite_same_num_instances, GridSpec,
        LogPreset, SweepOptions,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_exposes_the_main_types() {
        use crate::prelude::*;
        // Purely a compile-time check that the re-exports resolve.
        let _ = ExplainConfig::default();
        let _ = ClusterSpec::default();
        let _ = LogPreset::Tiny;
        let _ = Technique::all();
    }
}
