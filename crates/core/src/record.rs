//! Execution records and the execution log.
//!
//! The log of past MapReduce executions is the only input PerfXplain needs
//! besides the query: each record is one job or one task execution with its
//! flat feature vector and its duration (Section 3.1 of the paper,
//! `Job(JobID, feature1, …, featurek, duration)` and
//! `Task(TaskID, JobID, feature1, …, featurel, duration)`).

use crate::error::{CoreError, Result};
use crate::features::{FeatureCatalog, DURATION_FEATURE};
use pxql::{FeatureSource, SubjectKind, Value};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// Whether a record describes a job or a task execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ExecutionKind {
    /// A MapReduce job.
    Job,
    /// A MapReduce task.
    Task,
}

impl From<SubjectKind> for ExecutionKind {
    fn from(kind: SubjectKind) -> Self {
        match kind {
            SubjectKind::Jobs => ExecutionKind::Job,
            SubjectKind::Tasks => ExecutionKind::Task,
        }
    }
}

impl ExecutionKind {
    /// Human-readable name.
    pub fn as_str(&self) -> &'static str {
        match self {
            ExecutionKind::Job => "job",
            ExecutionKind::Task => "task",
        }
    }
}

/// One job or task execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutionRecord {
    /// Unique identifier (`job_…` or `task_…`).
    pub id: String,
    /// Job or task.
    pub kind: ExecutionKind,
    /// For tasks: the job they belong to.
    pub parent_job: Option<String>,
    /// Raw feature values (the catalog gives their kinds).
    pub features: BTreeMap<String, Value>,
}

impl ExecutionRecord {
    /// Creates a job record.
    pub fn job(id: impl Into<String>) -> Self {
        ExecutionRecord {
            id: id.into(),
            kind: ExecutionKind::Job,
            parent_job: None,
            features: BTreeMap::new(),
        }
    }

    /// Creates a task record belonging to `parent_job`.
    pub fn task(id: impl Into<String>, parent_job: impl Into<String>) -> Self {
        ExecutionRecord {
            id: id.into(),
            kind: ExecutionKind::Task,
            parent_job: Some(parent_job.into()),
            features: BTreeMap::new(),
        }
    }

    /// Sets a feature value (builder style).
    pub fn with_feature(mut self, name: impl Into<String>, value: impl Into<Value>) -> Self {
        self.features.insert(name.into(), value.into());
        self
    }

    /// Sets a feature value.
    pub fn set_feature(&mut self, name: impl Into<String>, value: impl Into<Value>) {
        self.features.insert(name.into(), value.into());
    }

    /// Reads a feature value (missing features read as `Null`).
    pub fn feature(&self, name: &str) -> Value {
        self.features.get(name).cloned().unwrap_or(Value::Null)
    }

    /// The execution duration in seconds (the `duration` feature), if set.
    pub fn duration(&self) -> Option<f64> {
        self.features.get(DURATION_FEATURE).and_then(Value::as_num)
    }
}

impl FeatureSource for ExecutionRecord {
    fn feature(&self, name: &str) -> Option<Value> {
        self.features.get(name).cloned()
    }
}

/// A log of past executions: jobs, their tasks and the raw feature catalog.
///
/// Every mutation bumps a monotonically increasing **generation counter**
/// ([`ExecutionLog::generation`]).  Long-lived consumers that cache derived
/// views of the log — most notably
/// [`XplainService`](crate::service::XplainService)'s columnar views — key
/// their caches by the generation, so a mutated log can never be observed
/// through a stale view.  The counter is bookkeeping, not content: two logs
/// with identical records compare equal regardless of their generations, and
/// the counter is not serialized (a freshly loaded log starts counting
/// anew).
/// In addition to the generation, the log tracks a per-kind **rewrite
/// watermark** ([`ExecutionLog::rewrite_generation`]): the last generation
/// at which anything *other than a pure record append* happened to that
/// kind — a record replaced, a catalog re-inferred to a different schema, a
/// wholesale reload.  A cached view built at generation `g` can be brought
/// up to date by encoding only the appended tail iff
/// `g >= rewrite_generation(kind)`; otherwise the world changed under it
/// and only a full rebuild is sound.
///
/// The log also keeps the one **id index** of its records: each id maps to
/// the position of the last record carrying it, so [`ExecutionLog::get`]
/// and [`ExecutionLog::require`] are one hash lookup and a columnar view
/// resolves an id through it ([`ColumnarLog::row_of`]).  Every constructor
/// and mutation maintains it; a log assembled from parts (a JSON load, a
/// snapshot open, [`ExecutionLog::from_shards`]) builds it once, sized for
/// every record.  It is a std `HashMap`, not an Fx one, because ids arrive
/// over the wire.
///
/// [`ColumnarLog::row_of`]: crate::columnar::ColumnarLog::row_of
#[derive(Debug, Clone, Default)]
pub struct ExecutionLog {
    job_catalog: FeatureCatalog,
    task_catalog: FeatureCatalog,
    records: Vec<ExecutionRecord>,
    generation: u64,
    rewrite: [u64; 2],
    /// Records per kind (indexed by [`kind_index`]), maintained by every
    /// mutation so delta consumers can tell in O(1) whether a kind has any
    /// fresh tail at all — the per-kind bookkeeping that keeps interleaved
    /// job/task append storms from scanning (or re-encoding) the kind that
    /// did not change.
    kind_rows: [usize; 2],
    /// Record id → position of the last record with that id.  Boxed keys
    /// take 16 bytes per table slot where a `String` takes 24.
    ids: HashMap<Box<str>, usize>,
}

/// Infers the job and the task catalog of `records`, one pass per kind.
pub(crate) fn infer_catalogs(records: &[ExecutionRecord]) -> (FeatureCatalog, FeatureCatalog) {
    let of_kind = |kind: ExecutionKind| {
        records
            .iter()
            .filter(move |r| r.kind == kind)
            .map(|r| &r.features)
    };
    (
        FeatureCatalog::infer(of_kind(ExecutionKind::Job)),
        FeatureCatalog::infer(of_kind(ExecutionKind::Task)),
    )
}

/// Index into per-kind bookkeeping arrays.
fn kind_index(kind: ExecutionKind) -> usize {
    match kind {
        ExecutionKind::Job => 0,
        ExecutionKind::Task => 1,
    }
}

impl PartialEq for ExecutionLog {
    fn eq(&self, other: &Self) -> bool {
        // The generation is mutation bookkeeping, not log content.
        self.job_catalog == other.job_catalog
            && self.task_catalog == other.task_catalog
            && self.records == other.records
    }
}

impl Serialize for ExecutionLog {
    fn serialize(&self) -> serde::Content {
        // The generation counter is in-memory bookkeeping and stays out of
        // the JSON representation.
        serde::Content::Map(vec![
            ("job_catalog".to_string(), self.job_catalog.serialize()),
            ("task_catalog".to_string(), self.task_catalog.serialize()),
            ("records".to_string(), self.records.serialize()),
        ])
    }
}

impl Deserialize for ExecutionLog {
    fn deserialize(content: &serde::Content) -> std::result::Result<Self, serde::DeError> {
        let entries = content
            .as_map()
            .ok_or_else(|| serde::DeError::expected("map", "ExecutionLog"))?;
        let mut log = ExecutionLog {
            job_catalog: Deserialize::deserialize(serde::Content::field(entries, "job_catalog"))?,
            task_catalog: Deserialize::deserialize(serde::Content::field(entries, "task_catalog"))?,
            records: Deserialize::deserialize(serde::Content::field(entries, "records"))?,
            ..ExecutionLog::default()
        };
        log.index_from(0);
        Ok(log)
    }
}

impl ExecutionLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        ExecutionLog::default()
    }

    /// The log's generation: a counter bumped by every mutation (`push`,
    /// `extend`, `rebuild_catalogs`, …).  Cache keys derived from a log must
    /// include the generation so that stale derived state is never served.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The last generation at which `kind`'s records or catalog changed in
    /// a way a cached view cannot absorb by encoding the appended tail.
    /// See the type docs: a view built at generation `g` may take the delta
    /// path iff `g >= rewrite_generation(kind)`.
    pub fn rewrite_generation(&self, kind: ExecutionKind) -> u64 {
        self.rewrite[kind_index(kind)]
    }

    /// Number of records of `kind`, maintained incrementally (O(1)).  A
    /// cached view holding this many rows of the kind is content-complete
    /// regardless of how many records of the *other* kind were appended
    /// since — the check that lets mixed-kind append storms skip the
    /// untouched kind entirely.
    pub fn rows_of_kind(&self, kind: ExecutionKind) -> usize {
        self.kind_rows[kind_index(kind)]
    }

    /// Counts the records from position `from` on per kind and enters
    /// their ids in the id index: the bookkeeping every path that adds
    /// records runs once they are in place.  Catalogs, generation and
    /// watermarks are the caller's.
    fn index_from(&mut self, from: usize) {
        self.ids.reserve(self.records.len() - from);
        for (at, record) in self.records.iter().enumerate().skip(from) {
            self.kind_rows[kind_index(record.kind)] += 1;
            self.ids.insert(record.id.as_str().into(), at);
        }
    }

    /// Marks the current generation as a rewrite for both kinds (the
    /// conservative default for every mutation that is not a pure append).
    fn mark_rewrite(&mut self) {
        self.rewrite = [self.generation; 2];
    }

    /// Adds a record.
    pub fn push(&mut self, record: ExecutionRecord) {
        self.records.push(record);
        self.index_from(self.records.len() - 1);
        self.generation += 1;
        // `push` does not maintain the catalogs, so cached views of the
        // record's kind cannot trust the schema until `rebuild_catalogs`;
        // treat it as a rewrite (use `append` for watermark-clean ingest).
        self.mark_rewrite();
    }

    /// Appends a batch of records while keeping the catalogs exact — the
    /// watermark-clean ingest path.  Per kind, the batch's features are
    /// inferred and merged into the existing catalog
    /// ([`FeatureCatalog::merge`] is proven equivalent to a joint
    /// re-inference); when the merge leaves the catalog unchanged the
    /// kind's rewrite watermark stays put, so cached views refresh by
    /// encoding only this tail.  A batch that *does* change a catalog
    /// (new feature, kind promotion) bumps that kind's watermark: the
    /// schema moved, and views of that kind must rebuild.
    ///
    /// Returns the new generation.
    pub fn append(&mut self, records: Vec<ExecutionRecord>) -> u64 {
        self.generation += 1;
        for kind in [ExecutionKind::Job, ExecutionKind::Task] {
            let mut fresh = records
                .iter()
                .filter(|r| r.kind == kind)
                .map(|r| &r.features)
                .peekable();
            if fresh.peek().is_none() {
                continue;
            }
            let batch = FeatureCatalog::infer(fresh);
            let current = match kind {
                ExecutionKind::Job => &mut self.job_catalog,
                ExecutionKind::Task => &mut self.task_catalog,
            };
            let mut merged = current.clone();
            merged.merge(&batch);
            if merged != *current {
                *current = merged;
                self.rewrite[kind_index(kind)] = self.generation;
            }
        }
        let from = self.records.len();
        self.records.extend(records);
        self.index_from(from);
        self.generation
    }

    /// Adds every record of `other` to this log.
    pub fn extend(&mut self, other: ExecutionLog) {
        let from = self.records.len();
        self.records.extend(other.records);
        self.index_from(from);
        self.rebuild_catalogs();
    }

    /// Crate-internal: assembles one log from shards given as records plus
    /// the job and task catalogs already known for them (the snapshot store
    /// persists per-shard catalogs, so reopening must not pay a
    /// re-inference scan).  Records are concatenated in shard order and the
    /// catalogs merged, and the id index is built once, sized for every
    /// record.  The caller guarantees each shard's catalogs reflect its
    /// records.
    pub(crate) fn from_parts(
        shards: Vec<(Vec<ExecutionRecord>, FeatureCatalog, FeatureCatalog)>,
    ) -> ExecutionLog {
        let mut out = ExecutionLog::new();
        out.records
            .reserve(shards.iter().map(|(records, _, _)| records.len()).sum());
        for (records, job_catalog, task_catalog) in shards {
            out.job_catalog.merge(&job_catalog);
            out.task_catalog.merge(&task_catalog);
            out.records.extend(records);
        }
        out.index_from(0);
        out.generation = 1;
        out.rewrite = [1, 1];
        out
    }

    /// Assembles one log from independently ingested shards: records are
    /// concatenated in shard order and the per-shard catalogs are merged
    /// ([`FeatureCatalog::merge`]), so the result equals pushing every
    /// record serially and calling [`ExecutionLog::rebuild_catalogs`] —
    /// without re-scanning any shard.
    ///
    /// Each shard's catalogs must reflect its records (as produced by
    /// `rebuild_catalogs` or any collector); stale shard catalogs propagate
    /// into the merged log.
    pub fn from_shards(shards: Vec<ExecutionLog>) -> ExecutionLog {
        ExecutionLog::from_parts(
            shards
                .into_iter()
                .map(|shard| (shard.records, shard.job_catalog, shard.task_catalog))
                .collect(),
        )
    }

    /// Recomputes the job and task feature catalogs from the stored
    /// records.  Call after bulk loading records.
    pub fn rebuild_catalogs(&mut self) {
        self.generation += 1;
        self.mark_rewrite();
        (self.job_catalog, self.task_catalog) = infer_catalogs(&self.records);
    }

    /// The catalog of job features.
    pub fn job_catalog(&self) -> &FeatureCatalog {
        &self.job_catalog
    }

    /// The catalog of task features.
    pub fn task_catalog(&self) -> &FeatureCatalog {
        &self.task_catalog
    }

    /// The catalog for a given execution kind.
    pub fn catalog(&self, kind: ExecutionKind) -> &FeatureCatalog {
        match kind {
            ExecutionKind::Job => &self.job_catalog,
            ExecutionKind::Task => &self.task_catalog,
        }
    }

    /// All records.
    pub fn records(&self) -> &[ExecutionRecord] {
        &self.records
    }

    /// Number of records (jobs + tasks).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The job records.
    pub fn jobs(&self) -> impl Iterator<Item = &ExecutionRecord> {
        self.records.iter().filter(|r| r.kind == ExecutionKind::Job)
    }

    /// The task records.
    pub fn tasks(&self) -> impl Iterator<Item = &ExecutionRecord> {
        self.records
            .iter()
            .filter(|r| r.kind == ExecutionKind::Task)
    }

    /// Records of the given kind.
    pub fn of_kind(&self, kind: ExecutionKind) -> impl Iterator<Item = &ExecutionRecord> {
        self.records.iter().filter(move |r| r.kind == kind)
    }

    /// The tasks that belong to a given job.
    pub fn tasks_of_job<'a>(
        &'a self,
        job_id: &'a str,
    ) -> impl Iterator<Item = &'a ExecutionRecord> {
        self.records.iter().filter(move |r| {
            r.kind == ExecutionKind::Task && r.parent_job.as_deref() == Some(job_id)
        })
    }

    /// Looks up a record by identifier through the id index, one hash
    /// lookup.  When several records share the id (a re-ingested
    /// execution), the **last** one wins, whatever its kind.  A columnar
    /// view resolves an id to the same record, so a query's precondition
    /// check and its explanation read the same record.
    pub fn get(&self, id: &str) -> Option<&ExecutionRecord> {
        self.position_of(id).map(|at| &self.records[at])
    }

    /// The position in [`ExecutionLog::records`] of the last record with
    /// the given id.
    pub(crate) fn position_of(&self, id: &str) -> Option<usize> {
        self.ids.get(id).copied()
    }

    /// Looks up a record by identifier, failing with a descriptive error.
    pub fn require(&self, id: &str, kind: ExecutionKind) -> Result<&ExecutionRecord> {
        let record = self
            .get(id)
            .ok_or_else(|| CoreError::UnknownExecution(id.to_string()))?;
        if record.kind != kind {
            return Err(CoreError::KindMismatch {
                expected: kind.as_str().to_string(),
                found: record.kind.as_str().to_string(),
            });
        }
        Ok(record)
    }

    /// Builds a new log containing only records selected by `keep` (tasks of
    /// dropped jobs are dropped as well unless `keep` retains them).
    pub fn filter(&self, keep: impl Fn(&ExecutionRecord) -> bool) -> ExecutionLog {
        let mut out = ExecutionLog::new();
        for record in &self.records {
            if keep(record) {
                out.push(record.clone());
            }
        }
        out.rebuild_catalogs();
        out
    }

    /// Builds a new log containing the given jobs and all of their tasks.
    pub fn restrict_to_jobs(&self, job_ids: &[&str]) -> ExecutionLog {
        self.filter(|r| match r.kind {
            ExecutionKind::Job => job_ids.contains(&r.id.as_str()),
            ExecutionKind::Task => r
                .parent_job
                .as_deref()
                .map(|j| job_ids.contains(&j))
                .unwrap_or(false),
        })
    }

    /// Serializes the log to JSON.
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string_pretty(self).map_err(|e| CoreError::Serialization(e.to_string()))
    }

    /// Loads a log from JSON produced by [`ExecutionLog::to_json`].
    pub fn from_json(json: &str) -> Result<ExecutionLog> {
        let mut log: ExecutionLog =
            serde_json::from_str(json).map_err(|e| CoreError::Serialization(e.to_string()))?;
        log.rebuild_catalogs();
        Ok(log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FeatureKind;

    fn sample_log() -> ExecutionLog {
        let mut log = ExecutionLog::new();
        log.push(
            ExecutionRecord::job("job_1")
                .with_feature("inputsize", 1024i64)
                .with_feature("pigscript", "simple-filter.pig")
                .with_feature(DURATION_FEATURE, 120.0),
        );
        log.push(
            ExecutionRecord::job("job_2")
                .with_feature("inputsize", 2048i64)
                .with_feature("pigscript", "simple-groupby.pig")
                .with_feature(DURATION_FEATURE, 240.0),
        );
        log.push(
            ExecutionRecord::task("task_1_m_0", "job_1")
                .with_feature("tasktype", "MAP")
                .with_feature(DURATION_FEATURE, 30.0),
        );
        log.rebuild_catalogs();
        log
    }

    #[test]
    fn catalogs_are_split_by_kind() {
        let log = sample_log();
        assert!(log.job_catalog().get("inputsize").is_some());
        assert!(log.job_catalog().get("tasktype").is_none());
        assert!(log.task_catalog().get("tasktype").is_some());
        assert_eq!(log.jobs().count(), 2);
        assert_eq!(log.tasks().count(), 1);
        assert_eq!(log.of_kind(ExecutionKind::Job).count(), 2);
    }

    #[test]
    fn lookup_and_require() {
        let mut log = sample_log();
        assert!(log.get("job_1").is_some());
        assert!(log.get("job_99").is_none());
        assert!(log.require("job_1", ExecutionKind::Job).is_ok());
        assert!(matches!(
            log.require("job_99", ExecutionKind::Job),
            Err(CoreError::UnknownExecution(_))
        ));
        assert!(matches!(
            log.require("task_1_m_0", ExecutionKind::Job),
            Err(CoreError::KindMismatch { .. })
        ));

        // A re-ingested id resolves to its last record.
        log.append(vec![
            ExecutionRecord::job("job_1").with_feature(DURATION_FEATURE, 999.0)
        ]);
        assert_eq!(log.get("job_1").unwrap().duration(), Some(999.0));
        let required = log.require("job_1", ExecutionKind::Job).unwrap();
        assert_eq!(required.duration(), Some(999.0));
    }

    #[test]
    fn durations_and_features() {
        let log = sample_log();
        let job = log.get("job_1").unwrap();
        assert_eq!(job.duration(), Some(120.0));
        assert_eq!(job.feature("inputsize"), Value::Num(1024.0));
        assert_eq!(job.feature("missing"), Value::Null);
        assert_eq!(FeatureSource::feature(job, "missing"), None);
    }

    #[test]
    fn tasks_of_job_and_restrict() {
        let log = sample_log();
        assert_eq!(log.tasks_of_job("job_1").count(), 1);
        assert_eq!(log.tasks_of_job("job_2").count(), 0);
        let restricted = log.restrict_to_jobs(&["job_2"]);
        assert_eq!(restricted.jobs().count(), 1);
        assert_eq!(restricted.tasks().count(), 0);
        let only_tasks = log.filter(|r| r.kind == ExecutionKind::Task);
        assert_eq!(only_tasks.len(), 1);
    }

    #[test]
    fn json_round_trip() {
        let log = sample_log();
        let json = log.to_json().unwrap();
        let back = ExecutionLog::from_json(&json).unwrap();
        assert_eq!(log, back);
        assert!(ExecutionLog::from_json("{not json").is_err());
    }

    #[test]
    fn per_kind_row_counts_track_every_mutation_path() {
        let mut log = sample_log();
        assert_eq!(log.rows_of_kind(ExecutionKind::Job), 2);
        assert_eq!(log.rows_of_kind(ExecutionKind::Task), 1);

        log.append(vec![
            ExecutionRecord::task("task_1_m_1", "job_1").with_feature(DURATION_FEATURE, 31.0)
        ]);
        assert_eq!(log.rows_of_kind(ExecutionKind::Job), 2);
        assert_eq!(log.rows_of_kind(ExecutionKind::Task), 2);

        let mut extra = ExecutionLog::new();
        extra.push(ExecutionRecord::job("job_3").with_feature(DURATION_FEATURE, 9.0));
        log.extend(extra);
        assert_eq!(log.rows_of_kind(ExecutionKind::Job), 3);

        log.push(ExecutionRecord::task("task_3_m_0", "job_3").with_feature(DURATION_FEATURE, 2.0));
        assert_eq!(log.rows_of_kind(ExecutionKind::Task), 3);

        let merged = ExecutionLog::from_shards(vec![log.clone(), sample_log()]);
        assert_eq!(merged.rows_of_kind(ExecutionKind::Job), 5);
        assert_eq!(merged.rows_of_kind(ExecutionKind::Task), 4);

        let filtered = log.filter(|r| r.kind == ExecutionKind::Task);
        assert_eq!(filtered.rows_of_kind(ExecutionKind::Job), 0);
        assert_eq!(filtered.rows_of_kind(ExecutionKind::Task), 3);

        let back = ExecutionLog::from_json(&log.to_json().unwrap()).unwrap();
        assert_eq!(back.rows_of_kind(ExecutionKind::Job), 3);
        assert_eq!(back.rows_of_kind(ExecutionKind::Task), 3);
    }

    #[test]
    fn generation_bumps_on_every_mutation() {
        let mut log = ExecutionLog::new();
        assert_eq!(log.generation(), 0);
        log.push(ExecutionRecord::job("job_1").with_feature("inputsize", 1i64));
        let after_push = log.generation();
        assert!(after_push > 0);
        log.rebuild_catalogs();
        let after_rebuild = log.generation();
        assert!(after_rebuild > after_push);
        let mut other = ExecutionLog::new();
        other.push(ExecutionRecord::job("job_2"));
        log.extend(other);
        assert!(log.generation() > after_rebuild);
    }

    #[test]
    fn equality_and_serialization_ignore_the_generation() {
        let log = sample_log();
        let mut touched = log.clone();
        touched.rebuild_catalogs();
        assert_ne!(log.generation(), touched.generation());
        assert_eq!(log, touched);

        // The counter is not part of the JSON representation.
        let json = log.to_json().unwrap();
        assert!(!json.contains("generation"));
    }

    #[test]
    fn append_keeps_catalogs_exact_without_bumping_the_watermark() {
        let mut log = sample_log();
        let clean = log.generation();
        assert!(log.rewrite_generation(ExecutionKind::Job) <= clean);
        let job_watermark = log.rewrite_generation(ExecutionKind::Job);
        let task_watermark = log.rewrite_generation(ExecutionKind::Task);

        // A batch whose features the catalog already knows: content must
        // equal the push + rebuild path, but the watermark must not move.
        let batch = vec![
            ExecutionRecord::job("job_3")
                .with_feature("inputsize", 4096i64)
                .with_feature("pigscript", "simple-join.pig")
                .with_feature(DURATION_FEATURE, 60.0),
            ExecutionRecord::task("task_3_m_0", "job_3")
                .with_feature("tasktype", "REDUCE")
                .with_feature(DURATION_FEATURE, 10.0),
        ];
        let mut serial = log.clone();
        for record in batch.clone() {
            serial.push(record);
        }
        serial.rebuild_catalogs();

        let generation = log.append(batch);
        assert!(generation > clean);
        assert_eq!(log, serial, "append diverged from push + rebuild");
        assert_eq!(log.rewrite_generation(ExecutionKind::Job), job_watermark);
        assert_eq!(log.rewrite_generation(ExecutionKind::Task), task_watermark);
    }

    #[test]
    fn append_with_a_new_feature_bumps_only_that_kinds_watermark() {
        let mut log = sample_log();
        let task_watermark = log.rewrite_generation(ExecutionKind::Task);
        let generation = log.append(vec![
            ExecutionRecord::job("job_3").with_feature("brand_new", 1i64)
        ]);
        assert_eq!(log.rewrite_generation(ExecutionKind::Job), generation);
        assert_eq!(log.rewrite_generation(ExecutionKind::Task), task_watermark);
        assert!(log.job_catalog().get("brand_new").is_some());

        // And the merged catalog equals a full re-inference.
        let mut rebuilt = log.clone();
        rebuilt.rebuild_catalogs();
        assert_eq!(log, rebuilt);
    }

    #[test]
    fn non_append_mutations_raise_the_watermark() {
        let mut log = sample_log();
        log.push(ExecutionRecord::job("job_9"));
        assert_eq!(log.rewrite_generation(ExecutionKind::Job), log.generation());
        assert_eq!(
            log.rewrite_generation(ExecutionKind::Task),
            log.generation()
        );
    }

    #[test]
    fn extend_merges_and_rebuilds() {
        let mut log = sample_log();
        let mut other = ExecutionLog::new();
        other.push(ExecutionRecord::job("job_3").with_feature("newfeature", 1i64));
        log.extend(other);
        assert_eq!(log.jobs().count(), 3);
        assert!(log.job_catalog().get("newfeature").is_some());
    }

    /// Batches of records spread over shards, with shard-local features and
    /// a feature whose kind only resolves to numeric in a later shard.
    fn shard_batches() -> Vec<Vec<ExecutionRecord>> {
        vec![
            vec![
                ExecutionRecord::job("job_a")
                    .with_feature("inputsize", 1.0e9)
                    .with_feature("mixed", Value::Null)
                    .with_feature(DURATION_FEATURE, 100.0),
                ExecutionRecord::task("task_a_m_0", "job_a").with_feature("tasktype", "MAP"),
            ],
            vec![ExecutionRecord::job("job_b")
                .with_feature("inputsize", 2.0e9)
                .with_feature("mixed", 7.0)
                .with_feature("only_b", "nominal")],
            vec![ExecutionRecord::job("job_c").with_feature(DURATION_FEATURE, 50.0)],
        ]
    }

    #[test]
    fn from_shards_equals_the_serial_ingest() {
        let batches = shard_batches();
        let mut serial = ExecutionLog::new();
        for record in batches.iter().flatten() {
            serial.push(record.clone());
        }
        serial.rebuild_catalogs();

        let shards: Vec<ExecutionLog> = batches
            .into_iter()
            .map(|batch| {
                let mut shard = ExecutionLog::new();
                for record in batch {
                    shard.push(record);
                }
                shard.rebuild_catalogs();
                shard
            })
            .collect();
        let merged = ExecutionLog::from_shards(shards);
        assert_eq!(merged, serial);
        assert_eq!(
            merged.job_catalog().kind("mixed"),
            Some(FeatureKind::Numeric)
        );
        assert!(merged.generation() > 0);
    }
}
