//! Persistent segmented snapshot store for execution logs.
//!
//! A PerfXplain deployment ingests logs rarely and queries them constantly,
//! but until this module existed every cold start re-parsed the full JSON
//! log and re-encoded every columnar segment from scratch.  The snapshot
//! store turns that around: the *encoded* form — per-shard binary column
//! segments plus the records that produced them — is what lives on disk,
//! and a cold start reads it straight back into the sharded pipeline.
//!
//! On disk a store is one **segment file** per shard (length-prefixed
//! binary, format v2: the shard's records slimmed down to id/kind/parent
//! plus *exception* features, and its compressed job and task column
//! segments with local dictionaries, via
//! [`mlcore::ColumnStore::encode_binary`]), a JSON **manifest** tying the
//! shards together — per-shard content fingerprints (FxHash, reusing
//! [`mlcore::hash`]), per-shard feature catalogs, per-shard byte accounting
//! ([`SnapshotManifest::usage`]), the merged global catalogs and the source
//! log's generation — and, while a service journals its appends, the
//! **append journal** `journal.bin` ([`Journal`]).  Feature values are
//! **not** written twice: on open a record's features are built in one
//! step from its row of the column segments, and only the cells the
//! columns cannot reproduce bit-exactly (a `Null` value, a canonical-text
//! collision) ride along as explicit exceptions.  Journal frames use the
//! same record codec with every feature kept, since there are no columns
//! to rebuild from.  The records decoded from one segment file, or from
//! one journal, share one copy of each feature name; the log they enter
//! shares names across shards.
//!
//! Each job of the store has one implementation:
//!
//! * **One commit routine** writes every manifest.  [`persist`] and
//!   [`persist_shards`] run it with no old manifest (a full write: every
//!   shard encoded, the directory created first); [`sync`] and
//!   [`sync_append`] run it against the committed manifest, reusing shards
//!   by position.  It merges the shard catalogs in input order, encodes
//!   the fresh shards on the shared worker pool ([`crate::pool::shared`]),
//!   writes their content-addressed segment files, commits the manifest by
//!   write-then-rename and removes the segments and journal the commit made
//!   stale.  Shards a [`sync`] reuses ([`ShardInput::Unchanged`], whose
//!   source fingerprint still matches, or [`ShardInput::Keep`]) are
//!   content-fingerprint-verified but never decoded, re-parsed or
//!   re-encoded — unless the merged feature catalog changed (a new shard
//!   introduced a feature, or a feature's kind flipped), in which case
//!   every segment's schema is stale and the reused shards re-encode from
//!   their on-disk records, still without touching the original source.
//! * **One per-shard loader** reads segment files as jobs of the shared
//!   worker pool, checks each file's bytes against the fingerprint the
//!   manifest records, and — where the caller needs the records — decodes
//!   it and checks its schema against the manifest.  [`open`] decodes every
//!   shard and fails on the first damaged one in manifest order;
//!   [`open_salvage`] decodes every shard and keeps going; [`verify`]
//!   checks fingerprints only; [`sync`] checks the shards it reuses.
//!   [`Snapshot::into_views`] consumes an opened snapshot into a
//!   [`SnapshotViews`] — the reassembled [`ExecutionLog`] plus both
//!   [`ColumnarLog`] views — with the decoded `Arc`-backed column buffers
//!   **moved, not copied**, into the views (single-segment snapshots adopt
//!   them outright); the views are **bit-identical** to
//!   [`ColumnarLog::build_sharded`] over the original log, and the log
//!   equals [`ExecutionLog::from_shards`] over the stored shard catalogs,
//!   **in manifest order** regardless of how the files are laid out on
//!   disk.
//! * **One replay routine**, [`JournalReplay::apply`], decides which
//!   journal frames apply to a log opened from the store: frames the
//!   manifest already covers are skipped, a positional gap stops the
//!   replay, and the rest are appended, their records moved into the log.
//!   Both service opens and the CLI's `snapshot open` run it over what
//!   [`read_journal`] recovered.
//! * **One IO helper** runs every file operation of the store and the
//!   journal: it fires the operation's named [`mlcore::failpoints`] site
//!   (`snapshot.manifest.read`, `snapshot.segment.write`, `journal.fsync`,
//!   …; cleanup, the journal's truncations and its reopen have none),
//!   retries transient errors and maps the final one to
//!   [`CoreError::SnapshotIo`], which best-effort cleanup (orphan
//!   segments, the stale journal, an abandoned rotation) ignores.
//!
//! Corruption — truncated files, flipped bytes, edited manifests, version
//! skew — surfaces as typed [`CoreError`]s ([`CoreError::SnapshotCorrupt`],
//! [`CoreError::SnapshotVersionSkew`], [`CoreError::SnapshotIo`]), never a
//! panic.  Recovery is **layered, cheapest first**:
//!
//! 1. **Transient-IO retry.** The IO helper classifies each error's
//!    `io::ErrorKind`: `Interrupted` / `WouldBlock` / `TimedOut` retry in
//!    place with bounded exponential backoff and deterministic jitter
//!    (`NotFound`, `InvalidData` and every other deterministic outcome
//!    never retry), and the retry count surfaces in
//!    [`SyncReport::io_retries`] so operators can see a flaky disk.
//! 2. **Salvage, then targeted re-encode.** [`open_salvage`] verifies
//!    every shard *independently*, renames damaged segment files aside
//!    (`quarantine-…`, never deleted — forensics survive), and returns a
//!    [`PartialSnapshot`] of the healthy shards plus a [`ShardDamage`]
//!    report.  [`sync`] with the damaged shards as [`ShardInput::Fresh`]
//!    and the rest [`ShardInput::Unchanged`] then re-encodes *only* what
//!    was damaged — one flipped byte costs one shard re-encode, not a
//!    full re-ingest.  [`verify`] is the read-only health check behind
//!    `perfxplain snapshot verify`.
//! 3. **Full re-ingest** ([`persist_shards`] overwrites whatever was
//!    there) remains the last resort, needed only when the manifest
//!    itself is unreadable or version-skewed, or the source no longer
//!    matches the stored shard layout.
//!
//! The failpoint sites let the chaos suite (`tests/chaos.rs`,
//! `--features failpoints`) inject faults at any IO operation, plus the
//! segment decode (`snapshot.segment.decode`), and prove the layering
//! above actually holds.

use crate::columnar::{encode_segment, positions_of, ColumnarLog, EncodedSegment};
use crate::error::{CoreError, Result};
use crate::features::{FeatureCatalog, FeatureKind};
use crate::record::{infer_catalogs, ExecutionKind, ExecutionLog, ExecutionRecord, FeatureNames};
use mlcore::{AttrValue, ByteReader, ByteWriter, CodecError, ColumnStore, FxHashMap, FxHasher};
use pxql::Value;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::hash::Hasher;
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Version of the snapshot format this build reads and writes.
///
/// Version 2 compresses column segments (bit-packed dictionary ids,
/// frame-of-reference/delta numerics, presence bitmaps) and slims the
/// records block down to exceptions.  Opening a v1 store reports
/// [`CoreError::SnapshotVersionSkew`] naming a full re-ingest as the
/// recovery path — v1 is not read.
pub const SNAPSHOT_VERSION: u32 = 2;

/// File name of the manifest inside a snapshot directory.
pub const MANIFEST_FILE: &str = "manifest.json";

/// Magic prefix of every segment file.
const SEGMENT_MAGIC: &[u8; 8] = b"PXSNPSG\0";

/// Nesting bound for decoded [`Value::Pair`]s: real pair features nest one
/// level; a corrupt file must not recurse the decoder off the stack.
const MAX_VALUE_DEPTH: u32 = 32;

// ---------------------------------------------------------------------------
// Fingerprints
// ---------------------------------------------------------------------------

/// Content fingerprint of a byte slice (deterministic FxHash-64).
pub fn fingerprint_bytes(bytes: &[u8]) -> u64 {
    let mut hasher = FxHasher::default();
    hasher.write(bytes);
    hasher.finish()
}

/// Fingerprint of a sequence of text parts (e.g. the files of a job log
/// bundle).  Each part's length is mixed in before its bytes, so part
/// boundaries matter: `["ab", "c"]` and `["a", "bc"]` differ.
pub fn fingerprint_texts<'a>(parts: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut hasher = FxHasher::default();
    for part in parts {
        hasher.write_u64(part.len() as u64);
        hasher.write(part.as_bytes());
    }
    hasher.finish()
}

/// Combines per-item fingerprints (e.g. one per bundle) into one shard
/// fingerprint, order-sensitively.
pub fn combine_fingerprints(parts: impl IntoIterator<Item = u64>) -> u64 {
    let mut hasher = FxHasher::default();
    for part in parts {
        hasher.write_u64(part);
    }
    hasher.finish()
}

// ---------------------------------------------------------------------------
// Transient-IO retry
// ---------------------------------------------------------------------------

/// Attempts per file operation (the first try included).
const IO_RETRY_ATTEMPTS: u32 = 4;

/// Backoff before retry `k` is `IO_RETRY_BASE_DELAY_US << k` microseconds
/// plus deterministic jitter of at most half that — worst case well under a
/// millisecond across all attempts, so a genuinely stuck disk still fails
/// fast with its typed error.
const IO_RETRY_BASE_DELAY_US: u64 = 50;

/// IO error kinds worth retrying: OS-level hiccups that routinely succeed
/// on the next attempt.  `NotFound`, `InvalidData`, permission errors and
/// every other deterministic outcome must surface immediately.
fn transient_io(kind: std::io::ErrorKind) -> bool {
    matches!(
        kind,
        std::io::ErrorKind::Interrupted
            | std::io::ErrorKind::WouldBlock
            | std::io::ErrorKind::TimedOut
    )
}

/// Runs `op`, retrying transient IO errors with bounded exponential backoff
/// and deterministic jitter (derived from the running retry count — no
/// clock, no RNG, so chaos runs replay exactly).  Each retry increments the
/// shared counter that [`SyncReport::io_retries`] reports.
fn with_io_retry<T>(
    retries: &AtomicU64,
    mut op: impl FnMut() -> std::io::Result<T>,
) -> std::io::Result<T> {
    let mut attempt = 0u32;
    loop {
        match op() {
            Ok(value) => return Ok(value),
            Err(err) if transient_io(err.kind()) && attempt + 1 < IO_RETRY_ATTEMPTS => {
                let total = retries.fetch_add(1, Ordering::Relaxed);
                let backoff = IO_RETRY_BASE_DELAY_US << attempt;
                let jitter = total
                    .wrapping_add(u64::from(attempt) + 1)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    >> 32;
                let jitter = jitter % (backoff / 2 + 1);
                std::thread::sleep(std::time::Duration::from_micros(backoff + jitter));
                attempt += 1;
            }
            Err(err) => return Err(err),
        }
    }
}

fn io_error(path: &Path, err: std::io::Error) -> CoreError {
    CoreError::SnapshotIo {
        path: path.display().to_string(),
        message: err.to_string(),
    }
}

/// Runs one file operation of the store or the journal: fires the
/// failpoint `site` before each attempt (`None` for the operations that
/// have no site), retries transient errors ([`with_io_retry`]) and maps the
/// final error to [`CoreError::SnapshotIo`] naming `path`.
fn io_op<T>(
    site: Option<&str>,
    path: &Path,
    retries: &AtomicU64,
    mut op: impl FnMut() -> std::io::Result<T>,
) -> Result<T> {
    with_io_retry(retries, || {
        if let Some(site) = site {
            if let Some(failure) = mlcore::failpoints::trigger(site) {
                return Err(failure.into_io_error(site));
            }
        }
        op()
    })
    .map_err(|e| io_error(path, e))
}

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

/// One shard of the snapshot, as recorded in the manifest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardEntry {
    /// Segment file name, relative to the snapshot directory.
    pub file: String,
    /// Records stored in the shard (jobs + tasks).
    pub rows: u64,
    /// FxHash-64 over the segment file's bytes; verified on every open.
    pub fingerprint: u64,
    /// Fingerprint of the shard's *source* (e.g. raw bundle bytes), set by
    /// ingest so a later incremental [`sync`] can skip unchanged shards
    /// without reading anything.  `None` when the snapshot was persisted
    /// from an in-memory log.
    pub source_fingerprint: Option<u64>,
    /// Total bytes of the segment file on disk.
    pub bytes: u64,
    /// Bytes of the compressed job columns block (length prefix included).
    pub job_bytes: u64,
    /// Bytes of the compressed task columns block (length prefix included).
    pub task_bytes: u64,
    /// Bytes an equivalent v1 segment file (uncompressed fixed-width cells,
    /// full per-record feature maps) would occupy — the denominator of
    /// [`SnapshotUsage::compression_ratio`], computed arithmetically at
    /// encode time, never written.
    pub raw_bytes: u64,
    /// The shard's own job-feature catalog (what
    /// [`FeatureCatalog::infer`] saw in this shard alone); merged in
    /// manifest order to rebuild the global catalog.
    pub job_catalog: FeatureCatalog,
    /// The shard's own task-feature catalog.
    pub task_catalog: FeatureCatalog,
}

/// The manifest tying a snapshot directory together.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SnapshotManifest {
    /// Snapshot format version ([`SNAPSHOT_VERSION`]).
    pub version: u32,
    /// Generation of the source log at persist time (provenance only; a
    /// reopened log starts counting anew, like the JSON path).
    pub generation: u64,
    /// The merged global job catalog every job segment is encoded against.
    pub job_catalog: FeatureCatalog,
    /// The merged global task catalog every task segment is encoded against.
    pub task_catalog: FeatureCatalog,
    /// The shards, in ingest order.  **This order is authoritative**: open
    /// assembles records, catalogs and column segments in manifest order,
    /// whatever order the files come off the directory in.
    pub shards: Vec<ShardEntry>,
}

/// On-disk byte accounting of a snapshot, summed over its shards
/// ([`SnapshotManifest::usage`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotUsage {
    /// Total segment-file bytes (manifest excluded).
    pub total_bytes: u64,
    /// Bytes of the records blocks (ids, parents, exception features) plus
    /// the fixed per-file header.
    pub records_bytes: u64,
    /// Bytes of the compressed job columns blocks.
    pub job_bytes: u64,
    /// Bytes of the compressed task columns blocks.
    pub task_bytes: u64,
    /// Bytes the same data would occupy in the v1 raw fixed-width format.
    pub raw_bytes: u64,
}

impl SnapshotUsage {
    /// How many raw fixed-width bytes each stored byte stands for
    /// (`raw_bytes / total_bytes`; 1.0 for an empty store).
    pub fn compression_ratio(&self) -> f64 {
        if self.total_bytes == 0 {
            1.0
        } else {
            self.raw_bytes as f64 / self.total_bytes as f64
        }
    }
}

/// Probe used to read the version field before the full manifest parse, so
/// a future-format manifest reports version skew instead of a parse error.
#[derive(Debug, Serialize, Deserialize)]
struct ManifestVersionProbe {
    version: u64,
}

impl SnapshotManifest {
    /// The global catalog for one execution kind.
    pub fn catalog(&self, kind: ExecutionKind) -> &FeatureCatalog {
        match kind {
            ExecutionKind::Job => &self.job_catalog,
            ExecutionKind::Task => &self.task_catalog,
        }
    }

    /// Total records across all shards.
    pub fn rows(&self) -> usize {
        self.shards.iter().map(|s| s.rows as usize).sum()
    }

    /// On-disk byte accounting summed across all shards.
    pub fn usage(&self) -> SnapshotUsage {
        let mut usage = SnapshotUsage::default();
        for shard in &self.shards {
            usage.total_bytes += shard.bytes;
            usage.job_bytes += shard.job_bytes;
            usage.task_bytes += shard.task_bytes;
            usage.raw_bytes += shard.raw_bytes;
        }
        usage.records_bytes = usage
            .total_bytes
            .saturating_sub(usage.job_bytes + usage.task_bytes);
        usage
    }

    /// Loads and validates the manifest of a snapshot directory.
    pub fn load(dir: &Path) -> Result<SnapshotManifest> {
        Self::load_with_retries(dir, &AtomicU64::new(0))
    }

    /// [`SnapshotManifest::load`] with the caller's retry counter threaded
    /// through the transient-IO retry wrapper.
    fn load_with_retries(dir: &Path, retries: &AtomicU64) -> Result<SnapshotManifest> {
        let path = dir.join(MANIFEST_FILE);
        let text = io_op(Some("snapshot.manifest.read"), &path, retries, || {
            std::fs::read_to_string(&path)
        })?;
        let corrupt = |message: String| CoreError::SnapshotCorrupt {
            path: path.display().to_string(),
            message,
        };
        let probe: ManifestVersionProbe = serde_json::from_str(&text)
            .map_err(|e| corrupt(format!("manifest is not valid JSON: {e}")))?;
        if probe.version != u64::from(SNAPSHOT_VERSION) {
            return Err(CoreError::SnapshotVersionSkew {
                found: probe.version.min(u64::from(u32::MAX)) as u32,
                supported: SNAPSHOT_VERSION,
            });
        }
        let manifest: SnapshotManifest = serde_json::from_str(&text)
            .map_err(|e| corrupt(format!("manifest does not parse: {e}")))?;
        if manifest.shards.is_empty() {
            return Err(corrupt("manifest lists no shards".to_string()));
        }
        for entry in &manifest.shards {
            // Segment files live flat inside the snapshot directory; a
            // manifest must not be able to point reads elsewhere.
            if entry.file.contains('/') || entry.file.contains('\\') || entry.file.contains("..") {
                return Err(corrupt(format!(
                    "segment file name '{}' escapes the snapshot directory",
                    entry.file
                )));
            }
        }
        Ok(manifest)
    }

    /// Writes the manifest into `dir` (write-then-rename, so a crash never
    /// leaves a half-written manifest behind).
    fn save(&self, dir: &Path, retries: &AtomicU64) -> Result<()> {
        let json = serde_json::to_string_pretty(self)
            .map_err(|e| CoreError::Serialization(e.to_string()))?;
        let tmp = dir.join(format!("{MANIFEST_FILE}.tmp"));
        let path = dir.join(MANIFEST_FILE);
        io_op(Some("snapshot.manifest.write"), &tmp, retries, || {
            std::fs::write(&tmp, json.as_bytes())
        })?;
        io_op(Some("snapshot.manifest.rename"), &path, retries, || {
            std::fs::rename(&tmp, &path)
        })
    }
}

// ---------------------------------------------------------------------------
// Value / record / catalog codecs
// ---------------------------------------------------------------------------

fn encode_value(writer: &mut ByteWriter, value: &Value) {
    match value {
        Value::Null => writer.put_u8(0),
        Value::Bool(b) => {
            writer.put_u8(1);
            writer.put_u8(u8::from(*b));
        }
        Value::Num(v) => {
            writer.put_u8(2);
            writer.put_f64(*v);
        }
        Value::Str(s) => {
            writer.put_u8(3);
            writer.put_str(s);
        }
        Value::Pair(a, b) => {
            writer.put_u8(4);
            encode_value(writer, a);
            encode_value(writer, b);
        }
    }
}

fn decode_value(reader: &mut ByteReader<'_>, depth: u32) -> std::result::Result<Value, CodecError> {
    if depth > MAX_VALUE_DEPTH {
        return Err(CodecError::Invalid(format!(
            "value nesting exceeds {MAX_VALUE_DEPTH}"
        )));
    }
    Ok(match reader.get_u8()? {
        0 => Value::Null,
        1 => Value::Bool(reader.get_u8()? != 0),
        2 => Value::Num(reader.get_f64()?),
        3 => Value::Str(reader.get_str()?.to_string()),
        4 => {
            let a = decode_value(reader, depth + 1)?;
            let b = decode_value(reader, depth + 1)?;
            Value::pair(a, b)
        }
        tag => return Err(CodecError::Invalid(format!("unknown value tag {tag}"))),
    })
}

/// `true` iff two values are indistinguishable down to the bit level
/// (numbers compare by `to_bits`, so NaN payloads and `-0.0` count).  This
/// is the test for whether a feature can be *omitted* from the records
/// block and rebuilt from the column segments on open.
fn values_identical(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Null, Value::Null) => true,
        (Value::Bool(x), Value::Bool(y)) => x == y,
        (Value::Num(x), Value::Num(y)) => x.to_bits() == y.to_bits(),
        (Value::Str(x), Value::Str(y)) => x == y,
        (Value::Pair(a1, b1), Value::Pair(a2, b2)) => {
            values_identical(a1, a2) && values_identical(b1, b2)
        }
        _ => false,
    }
}

/// What the column segment at `(row, col)` would rebuild for a feature,
/// compared against the record's actual `value` — without cloning the
/// original.  `None` column (not in the catalog) and `Missing` cells
/// rebuild nothing.
fn column_reconstructs(
    segment: &EncodedSegment,
    row: usize,
    col: Option<usize>,
    value: &Value,
) -> bool {
    let Some(col) = col else { return false };
    match segment.store.value(row, col) {
        AttrValue::Missing => false,
        AttrValue::Num(v) => matches!(value, Value::Num(o) if o.to_bits() == v.to_bits()),
        AttrValue::Nom(id) => values_identical(&segment.originals[col][id as usize], value),
    }
}

/// Writes one record as identity plus features.  With `columns` — the
/// column segment of the record's kind, its column index by feature name
/// and the record's row in it (segment files) — the record is slimmed down
/// to exceptions: features the column segment reproduces bit-exactly are
/// *not* written, they are rebuilt from the columns on open.  Without
/// (journal frames) every feature is kept.
fn encode_record(
    writer: &mut ByteWriter,
    record: &ExecutionRecord,
    columns: Option<(&EncodedSegment, &FxHashMap<&str, usize>, usize)>,
) {
    writer.put_str(&record.id);
    writer.put_u8(match record.kind {
        ExecutionKind::Job => 0,
        ExecutionKind::Task => 1,
    });
    match &record.parent_job {
        None => writer.put_u8(0),
        Some(parent) => {
            writer.put_u8(1);
            writer.put_str(parent);
        }
    }
    let exceptions: Vec<(&str, &Value)> = record
        .features()
        .filter(|(name, value)| {
            columns.is_none_or(|(segment, columns_by_name, row)| {
                let col = columns_by_name.get(name).copied();
                !column_reconstructs(segment, row, col, value)
            })
        })
        .collect();
    writer.put_u32(exceptions.len() as u32);
    for (name, value) in exceptions {
        writer.put_str(name);
        encode_value(writer, value);
    }
}

/// A record as [`encode_record`] wrote it: its identity and the features
/// stored with it.
struct StoredRecord {
    id: String,
    kind: ExecutionKind,
    parent_job: Option<String>,
    features: Vec<(Arc<str>, Value)>,
}

/// Reads one record written by [`encode_record`]: its identity and the
/// features stored with it — every feature of a journal record, only the
/// exceptions of a segment record — with each name taken from `names`.
/// [`rebuild_record`] makes the record.
fn decode_record(
    reader: &mut ByteReader<'_>,
    names: &mut FeatureNames,
) -> std::result::Result<StoredRecord, CodecError> {
    let id = reader.get_str()?.to_string();
    let kind = match reader.get_u8()? {
        0 => ExecutionKind::Job,
        1 => ExecutionKind::Task,
        tag => {
            return Err(CodecError::Invalid(format!(
                "unknown record kind tag {tag} on '{id}'"
            )))
        }
    };
    let parent_job = match reader.get_u8()? {
        0 => None,
        1 => Some(reader.get_str()?.to_string()),
        tag => {
            return Err(CodecError::Invalid(format!(
                "unknown parent tag {tag} on '{id}'"
            )))
        }
    };
    let count = reader.get_u32()? as usize;
    let mut features = Vec::with_capacity(count.min(reader.remaining()));
    for _ in 0..count {
        let name = names.share(reader.get_str()?);
        features.push((name, decode_value(reader, 0)?));
    }
    Ok(StoredRecord {
        id,
        kind,
        parent_job,
        features,
    })
}

/// Builds a decoded record in one step.  A journal record (`columns` is
/// `None`) has every feature stored.  A segment record also takes every
/// present cell of its row of the column segment, under the column's
/// shared name (`columns` holds the segment, one name per column and the
/// row); a stored exception overrides its column's cell.
fn rebuild_record(
    stored: StoredRecord,
    columns: Option<(&EncodedSegment, &[Arc<str>], usize)>,
) -> ExecutionRecord {
    let StoredRecord {
        id,
        kind,
        parent_job,
        features: exceptions,
    } = stored;
    let Some((segment, names, row)) = columns else {
        return ExecutionRecord::from_pairs(id, kind, parent_job, exceptions);
    };
    let mut features = Vec::with_capacity(names.len() + exceptions.len());
    for (col, name) in names.iter().enumerate() {
        let value = match segment.store.value(row, col) {
            AttrValue::Missing => continue,
            AttrValue::Num(v) => Value::Num(v),
            AttrValue::Nom(id) => segment.originals[col][id as usize].clone(),
        };
        features.push((Arc::clone(name), value));
    }
    // `from_pairs` keeps the later of two pairs with one name.
    features.extend(exceptions);
    ExecutionRecord::from_pairs(id, kind, parent_job, features)
}

fn encode_columns(writer: &mut ByteWriter, segment: &EncodedSegment) {
    segment.store.encode_binary(writer);
    for column in &segment.originals {
        writer.put_u32(column.len() as u32);
        for value in column {
            encode_value(writer, value);
        }
    }
}

fn decode_columns(reader: &mut ByteReader<'_>) -> std::result::Result<EncodedSegment, CodecError> {
    let store = ColumnStore::decode_binary(reader)?;
    let mut originals = Vec::with_capacity(store.num_columns());
    for col in 0..store.num_columns() {
        let count = reader.get_u32()? as usize;
        // `cell_eq_const` and `decode` index the originals by dictionary
        // id, so the two must line up exactly or lookups would panic.
        if count != store.attribute(col).dictionary.len() {
            return Err(CodecError::Invalid(format!(
                "column '{}' stores {count} original value(s) for {} dictionary entries",
                store.attribute(col).name,
                store.attribute(col).dictionary.len()
            )));
        }
        let mut column = Vec::with_capacity(count.min(reader.remaining()));
        for _ in 0..count {
            column.push(decode_value(reader, 0)?);
        }
        originals.push(column);
    }
    Ok(EncodedSegment { store, originals })
}

// ---------------------------------------------------------------------------
// Segment files
// ---------------------------------------------------------------------------

/// One fully loaded shard of a snapshot: the records plus the encoded
/// column segments (local dictionaries) of both execution kinds.
#[derive(Debug, Clone)]
pub struct SnapshotShard {
    records: Vec<ExecutionRecord>,
    job: EncodedSegment,
    task: EncodedSegment,
    job_catalog: FeatureCatalog,
    task_catalog: FeatureCatalog,
}

impl SnapshotShard {
    /// The shard's records, in ingest order.
    pub fn records(&self) -> &[ExecutionRecord] {
        &self.records
    }

    /// The shard-local catalog of one kind.
    pub fn catalog(&self, kind: ExecutionKind) -> &FeatureCatalog {
        match kind {
            ExecutionKind::Job => &self.job_catalog,
            ExecutionKind::Task => &self.task_catalog,
        }
    }
}

/// Per-block byte accounting of one encoded shard file (block length
/// prefixes included), plus the arithmetic size of its v1 equivalent.
struct ShardSizes {
    total: u64,
    job: u64,
    task: u64,
    raw: u64,
}

/// Byte cost of one value in the v1 encoding ([`encode_value`] is
/// unchanged since v1, so this mirrors it exactly).
fn v1_value_bytes(value: &Value) -> u64 {
    match value {
        Value::Null => 1,
        Value::Bool(_) => 2,
        Value::Num(_) => 9,
        Value::Str(s) => 5 + s.len() as u64,
        Value::Pair(a, b) => 1 + v1_value_bytes(a) + v1_value_bytes(b),
    }
}

/// Exact size of the segment file v1 would have written for the same shard:
/// full per-record feature maps and one tag byte (+ fixed-width payload)
/// per cell.  Computed arithmetically — nothing is encoded.
fn v1_equivalent_bytes(
    records: &[ExecutionRecord],
    job: &EncodedSegment,
    task: &EncodedSegment,
) -> u64 {
    // Magic + version + three block length prefixes + the record count.
    let mut total = (SEGMENT_MAGIC.len() + 4 + 3 * 8 + 8) as u64;
    for record in records {
        total += 4 + record.id.len() as u64 + 1;
        total += match &record.parent_job {
            None => 1,
            Some(parent) => 5 + parent.len() as u64,
        };
        total += 4;
        for (name, value) in record.features() {
            total += 4 + name.len() as u64 + v1_value_bytes(value);
        }
    }
    for segment in [job, task] {
        let store = &segment.store;
        total += 4 + 8;
        for attribute in store.attributes() {
            total += 4 + attribute.name.len() as u64 + 1 + 4;
            for (_, value) in attribute.dictionary.iter() {
                total += 4 + value.len() as u64;
            }
        }
        for col in 0..store.num_columns() {
            for cell in store.column(col) {
                total += match cell {
                    AttrValue::Missing => 1,
                    AttrValue::Num(_) => 9,
                    AttrValue::Nom(_) => 5,
                };
            }
        }
        for column in &segment.originals {
            total += 4;
            for value in column {
                total += v1_value_bytes(value);
            }
        }
    }
    total
}

/// Column index per feature name, in the order [`encode_segment`] lays
/// columns out (catalog order).
fn columns_by_name(catalog: &FeatureCatalog) -> FxHashMap<&str, usize> {
    catalog
        .defs()
        .iter()
        .enumerate()
        .map(|(col, def)| (def.name.as_str(), col))
        .collect()
}

/// Encodes one shard into its segment file bytes, with byte accounting.
fn encode_shard_file(
    records: &[ExecutionRecord],
    job_catalog: &FeatureCatalog,
    task_catalog: &FeatureCatalog,
) -> (Vec<u8>, ShardSizes) {
    let jobs = positions_of(records, ExecutionKind::Job, 0);
    let tasks = positions_of(records, ExecutionKind::Task, 0);
    let job_segment = encode_segment(job_catalog, records, &jobs);
    let task_segment = encode_segment(task_catalog, records, &tasks);
    let job_columns = columns_by_name(job_catalog);
    let task_columns = columns_by_name(task_catalog);

    let mut writer = ByteWriter::with_capacity(records.len() * 16 + 1024);
    writer.put_raw(SEGMENT_MAGIC);
    writer.put_u32(SNAPSHOT_VERSION);
    writer.put_block(|w| {
        w.put_u64(records.len() as u64);
        let mut job_at = 0usize;
        let mut task_at = 0usize;
        for record in records {
            let (segment, columns, at) = match record.kind {
                ExecutionKind::Job => (&job_segment, &job_columns, &mut job_at),
                ExecutionKind::Task => (&task_segment, &task_columns, &mut task_at),
            };
            let row = *at;
            *at += 1;
            encode_record(w, record, Some((segment, columns, row)));
        }
    });
    let job_start = writer.len() as u64;
    writer.put_block(|w| encode_columns(w, &job_segment));
    let task_start = writer.len() as u64;
    writer.put_block(|w| encode_columns(w, &task_segment));
    let total = writer.len() as u64;
    let sizes = ShardSizes {
        total,
        job: task_start - job_start,
        task: total - task_start,
        raw: v1_equivalent_bytes(records, &job_segment, &task_segment),
    };
    (writer.into_bytes(), sizes)
}

/// Decodes a segment file (everything after fingerprint verification).
/// Its records share one copy of each feature name: a column's name is
/// taken once, for every cell of the column.
fn decode_shard_file(bytes: &[u8]) -> std::result::Result<ShardPayload, CodecError> {
    let mut names = FeatureNames::default();
    let mut reader = ByteReader::new(bytes);
    let magic = reader.take(SEGMENT_MAGIC.len())?;
    if magic != SEGMENT_MAGIC {
        return Err(CodecError::Invalid(
            "not a snapshot segment file (bad magic)".to_string(),
        ));
    }
    let version = reader.get_u32()?;
    if version != SNAPSHOT_VERSION {
        return Err(CodecError::Invalid(format!(
            "segment format version {version} (supported: {SNAPSHOT_VERSION})"
        )));
    }
    let mut records_block = reader.get_block()?;
    let count = records_block.get_count()?;
    let mut stored = Vec::with_capacity(count.min(records_block.remaining()));
    for _ in 0..count {
        stored.push(decode_record(&mut records_block, &mut names)?);
    }
    let job = decode_columns(&mut reader.get_block()?)?;
    let task = decode_columns(&mut reader.get_block()?)?;

    // The records are rebuilt by walking each record's segment row, so
    // the row counts must line up *before* any cell access.  A zero-column
    // store (the records of this kind carry no features at all) cannot know
    // its row count — `ColumnStore::from_columns` derives rows from the
    // first column — and contributes nothing; the in-memory encode produces
    // the same zero-row store for such logs, so views still assemble
    // bit-identically.
    for (kind, segment) in [(ExecutionKind::Job, &job), (ExecutionKind::Task, &task)] {
        let expected = stored.iter().filter(|r| r.kind == kind).count();
        if segment.store.num_columns() > 0 && segment.store.num_rows() != expected {
            return Err(CodecError::Invalid(format!(
                "{} segment encodes {} row(s) for {expected} {} record(s)",
                kind.as_str(),
                segment.store.num_rows(),
                kind.as_str()
            )));
        }
    }
    let column_names = |segment: &EncodedSegment, names: &mut FeatureNames| -> Vec<Arc<str>> {
        segment
            .store
            .attributes()
            .iter()
            .map(|attribute| names.share(&attribute.name))
            .collect()
    };
    let job_names = column_names(&job, &mut names);
    let task_names = column_names(&task, &mut names);
    let mut job_at = 0usize;
    let mut task_at = 0usize;
    let records = stored
        .into_iter()
        .map(|record| {
            let (segment, names, at) = match record.kind {
                ExecutionKind::Job => (&job, &job_names, &mut job_at),
                ExecutionKind::Task => (&task, &task_names, &mut task_at),
            };
            let row = *at;
            *at += 1;
            rebuild_record(record, Some((segment, names, row)))
        })
        .collect();
    Ok(ShardPayload { records, job, task })
}

/// The decoded body of a segment file (catalogs live in the manifest).
struct ShardPayload {
    records: Vec<ExecutionRecord>,
    job: EncodedSegment,
    task: EncodedSegment,
}

/// Reads one segment file and checks its bytes against the fingerprint the
/// manifest records for it.
fn read_segment(dir: &Path, entry: &ShardEntry, retries: &AtomicU64) -> Result<Vec<u8>> {
    let path = dir.join(&entry.file);
    let bytes = io_op(Some("snapshot.segment.read"), &path, retries, || {
        std::fs::read(&path)
    })?;
    let found = fingerprint_bytes(&bytes);
    if found != entry.fingerprint {
        return Err(CoreError::SnapshotCorrupt {
            path: path.display().to_string(),
            message: format!(
                "fingerprint mismatch: manifest records {:016x}, file hashes to {found:016x}",
                entry.fingerprint
            ),
        });
    }
    Ok(bytes)
}

/// Decodes one fingerprint-verified segment file and checks it against its
/// manifest entry and the manifest's global catalogs.
fn decode_shard(
    dir: &Path,
    manifest: &SnapshotManifest,
    entry: &ShardEntry,
    bytes: &[u8],
) -> Result<SnapshotShard> {
    let corrupt = |message: String| CoreError::SnapshotCorrupt {
        path: dir.join(&entry.file).display().to_string(),
        message,
    };
    if let Some(failure) = mlcore::failpoints::trigger("snapshot.segment.decode") {
        return Err(corrupt(
            failure.into_io_error("snapshot.segment.decode").to_string(),
        ));
    }
    let payload = decode_shard_file(bytes).map_err(|e| corrupt(e.to_string()))?;
    if payload.records.len() as u64 != entry.rows {
        return Err(corrupt(format!(
            "manifest records {} row(s), segment holds {}",
            entry.rows,
            payload.records.len()
        )));
    }
    for (kind, segment) in [
        (ExecutionKind::Job, &payload.job),
        (ExecutionKind::Task, &payload.task),
    ] {
        verify_segment_schema(segment, manifest.catalog(kind), kind).map_err(corrupt)?;
    }
    Ok(SnapshotShard {
        records: payload.records,
        job: payload.job,
        task: payload.task,
        job_catalog: entry.job_catalog.clone(),
        task_catalog: entry.task_catalog.clone(),
    })
}

/// The per-shard loader behind [`open`], [`open_salvage`], [`verify`] and
/// the reuse check of [`sync`]: reads the segment files at the manifest
/// positions `indices` as jobs of the shared worker pool
/// ([`crate::pool::shared`]), verifies each file's fingerprint
/// ([`read_segment`]) and passes the verified bytes to `finish` — a decode,
/// or nothing for a fingerprint-only check.  Results come back in `indices`
/// order.  With `strict` each job stops at its first failure: the caller
/// fails with the first one in manifest order, so the shards after it need
/// not be read.
fn load_shards<T: Send>(
    dir: &Path,
    manifest: &SnapshotManifest,
    indices: &[usize],
    strict: bool,
    retries: &AtomicU64,
    finish: impl Fn(&ShardEntry, &[u8]) -> Result<T> + Sync,
) -> Vec<(usize, Result<T>)> {
    let pool = crate::pool::shared();
    pool.map_chunks(indices, pool.threads(), |chunk| {
        let mut loaded = Vec::with_capacity(chunk.len());
        for &index in chunk {
            let entry = &manifest.shards[index];
            let result = read_segment(dir, entry, retries).and_then(|bytes| finish(entry, &bytes));
            let failed = result.is_err();
            loaded.push((index, result));
            if strict && failed {
                break;
            }
        }
        loaded
    })
    .into_iter()
    .flatten()
    .collect()
}

/// A stored segment's schema must match the manifest's global catalog
/// column for column — this is what catches a manifest whose catalogs were
/// edited out from under the segment files.
fn verify_segment_schema(
    segment: &EncodedSegment,
    catalog: &FeatureCatalog,
    kind: ExecutionKind,
) -> std::result::Result<(), String> {
    let attributes = segment.store.attributes();
    if attributes.len() != catalog.len() {
        return Err(format!(
            "{} segment has {} column(s), the manifest catalog {}",
            kind.as_str(),
            attributes.len(),
            catalog.len()
        ));
    }
    for (attribute, def) in attributes.iter().zip(catalog.defs()) {
        let kinds_match = match def.kind {
            FeatureKind::Numeric => attribute.kind == mlcore::AttrKind::Numeric,
            FeatureKind::Nominal => attribute.kind == mlcore::AttrKind::Nominal,
        };
        if attribute.name != def.name || !kinds_match {
            return Err(format!(
                "{} segment column '{}' does not match manifest feature '{}' ({})",
                kind.as_str(),
                attribute.name,
                def.name,
                def.kind
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Snapshot (the loaded store)
// ---------------------------------------------------------------------------

/// A fully loaded, fingerprint-verified snapshot.
#[derive(Debug, Clone)]
pub struct Snapshot {
    manifest: SnapshotManifest,
    shards: Vec<SnapshotShard>,
}

impl Snapshot {
    /// The manifest the snapshot was opened with.
    pub fn manifest(&self) -> &SnapshotManifest {
        &self.manifest
    }

    /// The loaded shards, in manifest order.
    pub fn shards(&self) -> &[SnapshotShard] {
        &self.shards
    }

    /// The merged global catalog of one kind.
    pub fn catalog(&self, kind: ExecutionKind) -> &FeatureCatalog {
        self.manifest.catalog(kind)
    }

    /// Total records across all shards.
    pub fn num_rows(&self) -> usize {
        self.shards.iter().map(|s| s.records.len()).sum()
    }

    /// Reassembles the [`ExecutionLog`]: records concatenated and shard
    /// catalogs merged **in manifest order** ([`ExecutionLog::from_shards`]),
    /// which equals a serial ingest of the same records.
    pub fn to_log(&self) -> ExecutionLog {
        ExecutionLog::from_parts(
            self.shards
                .iter()
                .map(|shard| {
                    (
                        shard.records.clone(),
                        shard.job_catalog.clone(),
                        shard.task_catalog.clone(),
                    )
                })
                .collect(),
        )
    }

    /// Consumes the snapshot into the reassembled log plus both columnar
    /// views without re-encoding a cell or copying a record: each shard's
    /// records move into the log, and the per-shard segments are stitched
    /// together over it by the same dictionary-remapping merge as
    /// [`ColumnarLog::build_sharded`].  The `Arc`-backed column buffers
    /// decoded off disk are the ones the views end up holding (adopted
    /// outright for single-segment snapshots), so peak memory during a
    /// cold open is approximately the log plus the final views' columns.
    ///
    /// The log equals [`Snapshot::to_log`]; the views are bit-identical to
    /// encoding that log from scratch, for any shard count the snapshot was
    /// written with (proptested in `tests/properties.rs`).
    pub fn into_views(self) -> SnapshotViews {
        let Snapshot { manifest, shards } = self;
        let mut parts = Vec::with_capacity(shards.len());
        let mut job_segments = Vec::with_capacity(shards.len());
        let mut task_segments = Vec::with_capacity(shards.len());
        for shard in shards {
            parts.push((shard.records, shard.job_catalog, shard.task_catalog));
            job_segments.push(shard.job);
            task_segments.push(shard.task);
        }
        let log = ExecutionLog::from_parts(parts);
        let view = |kind, segments| {
            let positions = positions_of(log.records(), kind, 0);
            ColumnarLog::assemble(kind, manifest.catalog(kind), positions, segments)
        };
        let job = view(ExecutionKind::Job, job_segments);
        let task = view(ExecutionKind::Task, task_segments);
        SnapshotViews { log, job, task }
    }
}

/// A snapshot consumed into its queryable parts ([`Snapshot::into_views`]):
/// the reassembled log and the two columnar views, sharing no redundant
/// copies of the column data.
#[derive(Debug, Clone)]
pub struct SnapshotViews {
    /// The reassembled execution log (records + merged catalogs).
    pub log: ExecutionLog,
    /// The job view, bit-identical to `ColumnarLog::build` over `log`.
    pub job: ColumnarLog,
    /// The task view, bit-identical to `ColumnarLog::build` over `log`.
    pub task: ColumnarLog,
}

/// Opens a snapshot directory: manifest first, then every segment file
/// loaded, fingerprint-verified and decoded as jobs of the shared worker
/// pool ([`crate::pool::shared`]), assembled in manifest order.  Fails with
/// the first damaged shard in manifest order.
pub fn open(dir: &Path) -> Result<Snapshot> {
    let retries = AtomicU64::new(0);
    let manifest = SnapshotManifest::load_with_retries(dir, &retries)?;
    let all: Vec<usize> = (0..manifest.shards.len()).collect();
    let shards = load_shards(dir, &manifest, &all, true, &retries, |entry, bytes| {
        decode_shard(dir, &manifest, entry, bytes)
    })
    .into_iter()
    .map(|(_, shard)| shard)
    .collect::<Result<Vec<SnapshotShard>>>()?;

    // The manifest's global catalogs must be exactly the merge of the
    // per-shard catalogs — otherwise `to_log` and the stored segments
    // would disagree about the schema.
    let mut job_catalog = FeatureCatalog::new();
    let mut task_catalog = FeatureCatalog::new();
    for shard in &shards {
        job_catalog.merge(&shard.job_catalog);
        task_catalog.merge(&shard.task_catalog);
    }
    if job_catalog != manifest.job_catalog || task_catalog != manifest.task_catalog {
        return Err(CoreError::SnapshotCorrupt {
            path: dir.join(MANIFEST_FILE).display().to_string(),
            message: "global catalogs are not the merge of the per-shard catalogs".to_string(),
        });
    }
    Ok(Snapshot { manifest, shards })
}

// ---------------------------------------------------------------------------
// Salvage opens and health checks
// ---------------------------------------------------------------------------

/// What happened to one shard that failed verification during
/// [`open_salvage`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShardDamage {
    /// The shard's position in the manifest.
    pub index: usize,
    /// The segment file the manifest references.
    pub file: String,
    /// Where the damaged file was renamed to (`quarantine-…`, same
    /// directory), or `None` when the file was missing or the rename
    /// itself failed — it is never deleted either way.
    pub quarantined_as: Option<String>,
    /// Why the shard failed verification.
    pub error: CoreError,
    /// The shard's recorded source fingerprint, so the caller can map the
    /// damage back to the source it must re-parse.
    pub source_fingerprint: Option<u64>,
    /// Rows the manifest records for the shard.
    pub rows: u64,
}

/// The result of a lenient [`open_salvage`]: every shard that verified,
/// plus a damage report for every shard that did not.
///
/// The healthy side behaves like a pruned [`Snapshot`]
/// ([`PartialSnapshot::into_snapshot`]); the damaged side is exactly what a
/// targeted [`sync`] needs to re-encode — each [`ShardDamage`] carries the
/// manifest index and source fingerprint, so the caller re-parses *only*
/// those sources and passes everything else as [`ShardInput::Unchanged`].
#[derive(Debug, Clone)]
pub struct PartialSnapshot {
    manifest: SnapshotManifest,
    healthy: Vec<(usize, SnapshotShard)>,
    quarantined: Vec<ShardDamage>,
    io_retries: u64,
}

impl PartialSnapshot {
    /// The full on-disk manifest, damaged entries included.
    pub fn manifest(&self) -> &SnapshotManifest {
        &self.manifest
    }

    /// Damage reports, in manifest order.
    pub fn quarantined(&self) -> &[ShardDamage] {
        &self.quarantined
    }

    /// Manifest indices of the damaged shards, ascending.
    pub fn damaged_indices(&self) -> Vec<usize> {
        self.quarantined.iter().map(|d| d.index).collect()
    }

    /// How many shards verified clean.
    pub fn healthy_shards(&self) -> usize {
        self.healthy.len()
    }

    /// Rows across the healthy shards only.
    pub fn num_rows(&self) -> usize {
        self.healthy
            .iter()
            .map(|(_, shard)| shard.records.len())
            .sum()
    }

    /// Transient-IO retries performed during the salvage open.
    pub fn io_retries(&self) -> u64 {
        self.io_retries
    }

    /// Consumes the partial snapshot into a [`Snapshot`] over the healthy
    /// shards only (manifest pruned to their entries, in manifest order).
    /// The global catalogs are kept as stored — the segments were encoded
    /// and verified against them — so a feature that only ever appeared in
    /// a damaged shard still names a (now empty) column in the views.
    pub fn into_snapshot(self) -> Snapshot {
        let PartialSnapshot {
            mut manifest,
            healthy,
            ..
        } = self;
        let keep: std::collections::BTreeSet<usize> =
            healthy.iter().map(|(index, _)| *index).collect();
        manifest.shards = manifest
            .shards
            .into_iter()
            .enumerate()
            .filter(|(index, _)| keep.contains(index))
            .map(|(_, entry)| entry)
            .collect();
        Snapshot {
            manifest,
            shards: healthy.into_iter().map(|(_, shard)| shard).collect(),
        }
    }
}

/// Lenient [`open`]: verifies every shard independently instead of failing
/// on the first bad one, renames damaged segment files aside
/// (`quarantine-<original name>`, never deleted) and reports them in a
/// [`PartialSnapshot`] next to the healthy shards.
///
/// The manifest itself must still load cleanly — a store whose *manifest*
/// is unreadable, corrupt or version-skewed has nothing to salvage shards
/// against, and the error says so; the recovery path for that case remains
/// a full re-ingest.
pub fn open_salvage(dir: &Path) -> Result<PartialSnapshot> {
    let retries = AtomicU64::new(0);
    let manifest = SnapshotManifest::load_with_retries(dir, &retries)?;
    let all: Vec<usize> = (0..manifest.shards.len()).collect();
    let loaded = load_shards(dir, &manifest, &all, false, &retries, |entry, bytes| {
        decode_shard(dir, &manifest, entry, bytes)
    });

    let mut healthy = Vec::with_capacity(loaded.len());
    let mut quarantined = Vec::new();
    for (index, result) in loaded {
        let entry = &manifest.shards[index];
        match result {
            Ok(shard) => healthy.push((index, shard)),
            Err(error) => {
                let from = dir.join(&entry.file);
                let quarantine_name = format!("quarantine-{}", entry.file);
                let to = dir.join(&quarantine_name);
                // Best-effort: the damage report stands even if the rename
                // fails (e.g. the file is simply missing).
                let quarantined_as = if from.exists() {
                    io_op(Some("snapshot.segment.quarantine"), &to, &retries, || {
                        std::fs::rename(&from, &to)
                    })
                    .ok()
                    .map(|()| quarantine_name)
                } else {
                    None
                };
                quarantined.push(ShardDamage {
                    index,
                    file: entry.file.clone(),
                    quarantined_as,
                    error,
                    source_fingerprint: entry.source_fingerprint,
                    rows: entry.rows,
                });
            }
        }
    }
    Ok(PartialSnapshot {
        manifest,
        healthy,
        quarantined,
        io_retries: retries.load(Ordering::Relaxed),
    })
}

/// One shard's health as reported by [`verify`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShardHealth {
    /// The shard's position in the manifest.
    pub index: usize,
    /// The segment file the manifest references.
    pub file: String,
    /// Rows the manifest records for the shard.
    pub rows: u64,
    /// `None` when the segment's bytes fingerprint-match the manifest;
    /// otherwise why they do not.
    pub error: Option<CoreError>,
}

impl ShardHealth {
    /// Whether the shard verified clean.
    pub fn is_healthy(&self) -> bool {
        self.error.is_none()
    }
}

/// Read-only health check: fingerprint-verifies every segment file against
/// the manifest without decoding anything or building views, and without
/// touching the store (no quarantine, no rewrite).  Returns one
/// [`ShardHealth`] per shard in manifest order; fails outright only when
/// the manifest itself is unusable.
pub fn verify(dir: &Path) -> Result<Vec<ShardHealth>> {
    let retries = AtomicU64::new(0);
    let manifest = SnapshotManifest::load_with_retries(dir, &retries)?;
    let all: Vec<usize> = (0..manifest.shards.len()).collect();
    Ok(
        load_shards(dir, &manifest, &all, false, &retries, |_, _| Ok(()))
            .into_iter()
            .map(|(index, checked)| {
                let entry = &manifest.shards[index];
                ShardHealth {
                    index,
                    file: entry.file.clone(),
                    rows: entry.rows,
                    error: checked.err(),
                }
            })
            .collect(),
    )
}

// ---------------------------------------------------------------------------
// Persist
// ---------------------------------------------------------------------------

/// One shard of records headed for a snapshot, with the fingerprint of the
/// source it was parsed from (when there is one).
#[derive(Debug, Clone)]
pub struct RecordShard {
    /// The shard's records, in ingest order.
    pub records: Vec<ExecutionRecord>,
    /// Fingerprint of the raw source behind these records (e.g. bundle
    /// file bytes), recorded in the manifest so a later [`sync`] can skip
    /// the shard when the source has not changed.
    pub source_fingerprint: Option<u64>,
}

/// What a [`persist`] / [`persist_shards`] / [`sync`] call did.
#[derive(Debug, Clone)]
pub struct SyncReport {
    /// The manifest that now describes the snapshot directory.
    pub manifest: SnapshotManifest,
    /// Total records across all shards.
    pub rows: usize,
    /// Shards whose segments were (re-)encoded and written.
    pub shards_encoded: usize,
    /// Shards served from disk untouched (source fingerprint matched and
    /// the global catalog was stable).
    pub shards_reused: usize,
    /// Whether the merged global catalog changed, forcing every segment to
    /// re-encode from its on-disk records ([`sync`] only).
    pub catalog_changed: bool,
    /// Wall-clock seconds spent encoding segments (CPU).
    pub encode_seconds: f64,
    /// Wall-clock seconds spent writing files and the manifest (I/O).
    pub write_seconds: f64,
    /// Transient IO errors (`Interrupted` / `WouldBlock` / `TimedOut`)
    /// absorbed by in-place retry during this operation.  Persistently
    /// non-zero numbers mean the storage under the snapshot directory is
    /// flaky even though the operation succeeded.
    pub io_retries: u64,
}

/// Persists a log as `num_shards` contiguous segments (at least one, even
/// for an empty log).  Overwrites whatever snapshot was in `dir`.
pub fn persist(log: &ExecutionLog, dir: &Path, num_shards: usize) -> Result<SyncReport> {
    let records = log.records();
    let chunk_size = records.len().div_ceil(num_shards.max(1)).max(1);
    let shards = records
        .chunks(chunk_size)
        .map(|chunk| ShardRef::Fresh(chunk, None))
        .collect();
    commit(dir, None, shards, log.generation(), AtomicU64::new(0))
}

/// Persists explicit record shards (e.g. one per bundle batch, so the shard
/// boundaries — and therefore the source fingerprints — are stable across
/// re-ingests).  Overwrites whatever snapshot was in `dir`; this is also
/// the recovery path when [`open`] or [`sync`] report corruption.
pub fn persist_shards(dir: &Path, shards: Vec<RecordShard>) -> Result<SyncReport> {
    let inputs = shards
        .iter()
        .map(|shard| ShardRef::Fresh(&shard.records, shard.source_fingerprint))
        .collect();
    commit(dir, None, inputs, 1, AtomicU64::new(0))
}

/// Segment file names embed the content fingerprint, so a re-encoded shard
/// gets a *new* file and the previously committed one is never overwritten
/// in place: a crash between segment writes and the manifest's atomic
/// write-then-rename leaves — at worst — unreferenced new files behind,
/// never a manifest pointing at bytes it does not describe.
fn segment_file_name(index: usize, fingerprint: u64) -> String {
    format!("segment-{index:04}-{fingerprint:016x}.bin")
}

/// Best-effort removal of `segment-*.bin` files the committed manifest no
/// longer references: superseded versions of re-encoded shards, shards
/// dropped by a shrinking re-ingest, and leftovers of crashed writes.
/// Failures are ignored — an orphan costs disk, never correctness.
fn remove_orphan_segments(dir: &Path, manifest: &SnapshotManifest, retries: &AtomicU64) {
    let referenced: std::collections::BTreeSet<&str> =
        manifest.shards.iter().map(|s| s.file.as_str()).collect();
    let Ok(listing) = io_op(None, dir, retries, || std::fs::read_dir(dir)) else {
        return;
    };
    for entry in listing.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if name.starts_with("segment-") && name.ends_with(".bin") && !referenced.contains(name) {
            let path = entry.path();
            let _ = io_op(None, &path, retries, || std::fs::remove_file(&path));
        }
    }
}

// ---------------------------------------------------------------------------
// Incremental sync
// ---------------------------------------------------------------------------

/// One shard of input to an incremental [`sync`].
#[derive(Debug, Clone)]
pub enum ShardInput {
    /// The shard's source still fingerprints to this value (matching the
    /// manifest): reuse the stored segment without re-parsing or
    /// re-encoding anything.
    Unchanged {
        /// Fingerprint of the (unchanged) source; must equal the
        /// manifest's recorded `source_fingerprint` for this position.
        source_fingerprint: u64,
    },
    /// The shard's source changed (or is new): these are its freshly
    /// parsed records.
    Fresh(RecordShard),
    /// Keep the shard at this position exactly as the manifest records it,
    /// with no source-fingerprint bookkeeping — unlike
    /// [`ShardInput::Unchanged`], this works for shards persisted without a
    /// source fingerprint (e.g. by [`persist`]).  The segment's *content*
    /// fingerprint is still verified.  This is the checkpoint path: a
    /// serving process appending a tail shard ([`sync_append`]) keeps every
    /// existing shard by position without knowing how it was ingested.
    Keep,
}

/// A [`ShardInput`] as [`commit`] reads it: a fresh shard's records (with
/// their source fingerprint) are borrowed, so a persist or checkpoint
/// encodes straight from the log's own records.
#[derive(Clone, Copy)]
enum ShardRef<'a> {
    Fresh(&'a [ExecutionRecord], Option<u64>),
    Unchanged(u64),
    Keep,
}

impl<'a> From<&'a ShardInput> for ShardRef<'a> {
    fn from(input: &'a ShardInput) -> Self {
        match input {
            ShardInput::Fresh(shard) => ShardRef::Fresh(&shard.records, shard.source_fingerprint),
            ShardInput::Unchanged { source_fingerprint } => {
                ShardRef::Unchanged(*source_fingerprint)
            }
            ShardInput::Keep => ShardRef::Keep,
        }
    }
}

/// Incrementally re-ingests into an existing snapshot: shards marked
/// [`ShardInput::Unchanged`] keep their on-disk segments (verified by
/// fingerprint bookkeeping — the reused entries carry their recorded
/// content fingerprints forward, and the files are not rewritten), while
/// fresh shards are encoded and written.  If the merged feature catalog
/// changes, every stored segment's schema is stale and all shards re-encode
/// from their on-disk records — the original source is still not touched.
///
/// Fails with a typed error when `dir` holds no (or a corrupt or
/// version-skewed) snapshot, or when an `Unchanged` shard's fingerprint
/// does not match the manifest; the recovery path is a full
/// [`persist_shards`] with every shard fresh.
pub fn sync(dir: &Path, inputs: Vec<ShardInput>) -> Result<SyncReport> {
    let retries = AtomicU64::new(0);
    let old = SnapshotManifest::load_with_retries(dir, &retries)?;
    // An emptied source is a full rewrite down to one empty shard.
    if inputs.is_empty() {
        return persist_shards(dir, Vec::new());
    }
    let inputs = inputs.iter().map(ShardRef::from).collect();
    commit(dir, Some(&old), inputs, 1, retries)
}

/// Persists `tail` — the records appended since the snapshot in `dir` was
/// last written — as **one additional incremental shard**, keeping every
/// existing shard verbatim ([`ShardInput::Keep`]).  This is the live-tail
/// checkpoint: a serving process that has only appended since its last
/// [`persist`] encodes O(tail) records instead of re-encoding the world.
/// When the tail introduces features the stored catalog has never seen the
/// schema moved, and [`sync`] transparently re-encodes every segment from
/// its on-disk records — slower, still correct, still no source re-parse.
/// `generation` is the served log's generation, recorded in the manifest
/// like [`persist`] records it.
///
/// An empty tail degenerates to a keep-everything sync: the stored
/// segments are fingerprint-verified and the manifest rewritten, nothing
/// re-encoded.
pub fn sync_append(dir: &Path, tail: &[ExecutionRecord], generation: u64) -> Result<SyncReport> {
    // One manifest read serves both the shard count and the commit.
    let retries = AtomicU64::new(0);
    let old = SnapshotManifest::load_with_retries(dir, &retries)?;
    let mut inputs = vec![ShardRef::Keep; old.shards.len()];
    if !tail.is_empty() {
        inputs.push(ShardRef::Fresh(tail, None));
    }
    commit(dir, Some(&old), inputs, generation, retries)
}

/// The one commit routine behind [`persist`], [`persist_shards`], [`sync`]
/// and [`sync_append`].  `old` is the committed manifest the inputs refer
/// to by position, or `None` for a full write, where every input is
/// fresh and the directory is created first.
///
/// Validates every reuse claim, merges the shard catalogs in input order,
/// verifies every reused segment through the loader (decoding its records
/// when the merged catalog moved, so it can re-encode), encodes and writes
/// the new segment files, commits the manifest recording `generation`, and
/// removes the segments and the journal the commit made stale.
fn commit(
    dir: &Path,
    old: Option<&SnapshotManifest>,
    mut inputs: Vec<ShardRef<'_>>,
    generation: u64,
    retries: AtomicU64,
) -> Result<SyncReport> {
    let pool = crate::pool::shared();
    // A zero-shard manifest would be unreadable (`load` rejects it).
    if inputs.is_empty() {
        inputs.push(ShardRef::Fresh(&[], None));
    }
    let old_shards = old.map_or(&[][..], |old| old.shards.as_slice());

    // Validate every reuse claim against the manifest before doing work.
    let manifest_path = || dir.join(MANIFEST_FILE).display().to_string();
    for (i, input) in inputs.iter().enumerate() {
        match *input {
            ShardRef::Unchanged(source_fingerprint) => {
                let recorded = old_shards.get(i).and_then(|e| e.source_fingerprint);
                if recorded != Some(source_fingerprint) {
                    return Err(CoreError::SnapshotCorrupt {
                        path: manifest_path(),
                        message: format!(
                            "shard {i} cannot be reused: manifest records source fingerprint \
                             {recorded:?}, caller observed {source_fingerprint:016x}"
                        ),
                    });
                }
            }
            ShardRef::Keep if old_shards.get(i).is_none() => {
                return Err(CoreError::SnapshotCorrupt {
                    path: manifest_path(),
                    message: format!(
                        "shard {i} cannot be kept: the manifest records only {} shards",
                        old_shards.len()
                    ),
                });
            }
            _ => {}
        }
    }

    // Per-shard catalogs: inference for fresh shards, the stored entries
    // for reused ones; then the global merge in input order.
    let inferred: Vec<Option<(FeatureCatalog, FeatureCatalog)>> = pool
        .map_chunks(&inputs, pool.threads(), |chunk| {
            chunk
                .iter()
                .map(|input| match *input {
                    ShardRef::Fresh(records, _) => Some(infer_catalogs(records)),
                    ShardRef::Unchanged(_) | ShardRef::Keep => None,
                })
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();
    let mut job_catalog = FeatureCatalog::new();
    let mut task_catalog = FeatureCatalog::new();
    let entry_catalogs: Vec<(FeatureCatalog, FeatureCatalog)> = inferred
        .into_iter()
        .enumerate()
        .map(|(i, local)| {
            let local = local.unwrap_or_else(|| {
                let entry = &old_shards[i];
                (entry.job_catalog.clone(), entry.task_catalog.clone())
            });
            job_catalog.merge(&local.0);
            task_catalog.merge(&local.1);
            local
        })
        .collect();
    let catalog_changed =
        old.is_some_and(|old| job_catalog != old.job_catalog || task_catalog != old.task_catalog);

    // Reused segments are still *served from disk* afterwards, so their
    // content must be good: the loader fingerprint-verifies each one, so a
    // corrupted store fails this commit with a typed error instead of
    // surfacing at the next open.  When the schema moved, their records
    // must also come off disk so the segments can re-encode against the
    // new catalog.
    let mut reloaded: Vec<Option<Vec<ExecutionRecord>>> = inputs.iter().map(|_| None).collect();
    if let Some(old) = old {
        let reused: Vec<usize> = (0..inputs.len())
            .filter(|&i| !matches!(inputs[i], ShardRef::Fresh(..)))
            .collect();
        let loaded = load_shards(dir, old, &reused, true, &retries, |entry, bytes| {
            if catalog_changed {
                decode_shard(dir, old, entry, bytes).map(|shard| Some(shard.records))
            } else {
                Ok(None)
            }
        });
        for (i, records) in loaded {
            reloaded[i] = records?;
        }
    }

    // Encode what needs encoding: the fresh shards, and the reused ones
    // when the schema moved.
    let encode_started = Instant::now();
    let jobs: Vec<(usize, &[ExecutionRecord])> = inputs
        .iter()
        .zip(&reloaded)
        .enumerate()
        .filter_map(|(i, (input, reloaded))| match *input {
            ShardRef::Fresh(records, _) => Some((i, records)),
            ShardRef::Unchanged(_) | ShardRef::Keep => {
                reloaded.as_deref().map(|records| (i, records))
            }
        })
        .collect();
    let mut encoded: BTreeMap<usize, (Vec<u8>, ShardSizes)> = pool
        .map_chunks(&jobs, pool.threads(), |chunk| {
            chunk
                .iter()
                .map(|&(i, records)| (i, encode_shard_file(records, &job_catalog, &task_catalog)))
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();
    let encode_seconds = encode_started.elapsed().as_secs_f64();

    // Write the new segment files and assemble the new manifest.
    let write_started = Instant::now();
    if old.is_none() {
        io_op(Some("snapshot.dir.create"), dir, &retries, || {
            std::fs::create_dir_all(dir)
        })?;
    }
    let mut entries = Vec::with_capacity(inputs.len());
    let mut shards_reused = 0usize;
    for (i, (input, (job_local, task_local))) in inputs.iter().zip(entry_catalogs).enumerate() {
        let Some((bytes, sizes)) = encoded.remove(&i) else {
            // Reused as stored: the claim validated above means the entry,
            // source fingerprint included, carries over unchanged.
            shards_reused += 1;
            entries.push(old_shards[i].clone());
            continue;
        };
        let (rows, source_fingerprint) = match *input {
            ShardRef::Fresh(records, source_fingerprint) => {
                (records.len() as u64, source_fingerprint)
            }
            // Re-encoded after a schema move: the same records (the loader
            // checked their count) from the same source.
            ShardRef::Unchanged(_) | ShardRef::Keep => {
                (old_shards[i].rows, old_shards[i].source_fingerprint)
            }
        };
        let fingerprint = fingerprint_bytes(&bytes);
        let file = segment_file_name(i, fingerprint);
        let path = dir.join(&file);
        io_op(Some("snapshot.segment.write"), &path, &retries, || {
            std::fs::write(&path, &bytes)
        })?;
        entries.push(ShardEntry {
            file,
            rows,
            fingerprint,
            source_fingerprint,
            bytes: sizes.total,
            job_bytes: sizes.job,
            task_bytes: sizes.task,
            raw_bytes: sizes.raw,
            job_catalog: job_local,
            task_catalog: task_local,
        });
    }
    let manifest = SnapshotManifest {
        version: SNAPSHOT_VERSION,
        generation,
        job_catalog,
        task_catalog,
        shards: entries,
    };
    manifest.save(dir, &retries)?;
    remove_orphan_segments(dir, &manifest, &retries);
    remove_stale_journal(dir, &retries);
    let write_seconds = write_started.elapsed().as_secs_f64();

    Ok(SyncReport {
        rows: manifest.rows(),
        shards_encoded: inputs.len() - shards_reused,
        shards_reused,
        catalog_changed,
        encode_seconds,
        write_seconds,
        io_retries: retries.load(Ordering::Relaxed),
        manifest,
    })
}

// ---------------------------------------------------------------------------
// Append journal (write-ahead durability for the live tail)
// ---------------------------------------------------------------------------

/// File name of the append journal inside a snapshot directory.
pub const JOURNAL_FILE: &str = "journal.bin";

/// Scratch name the next journal generation is staged under during
/// checkpoint rotation ([`Journal::begin_rotation`]).
const JOURNAL_TMP_FILE: &str = "journal.bin.tmp";

/// Magic prefix of the journal file.
const JOURNAL_MAGIC: &[u8; 8] = b"PXSNPJL\0";

/// Bytes of the journal header: magic plus format version.
const JOURNAL_HEADER_BYTES: u64 = (8 + 4) as u64;

/// When journal writes are flushed to stable storage — the knob that trades
/// append latency for the size of the crash window.
///
/// An append is reported **durable** exactly when its frame was fsynced
/// before the acknowledgement: every append under [`FsyncPolicy::Always`],
/// every n-th under [`FsyncPolicy::EveryN`], and none under
/// [`FsyncPolicy::OnCheckpoint`] (those become durable at the next
/// checkpoint or explicit journal sync).  Even non-durable frames are
/// *written*, so only an OS-level crash — not a process crash — can lose
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync after every appended frame; every acknowledged append is
    /// durable.
    Always,
    /// fsync once per `n` appended frames; at most `n - 1` acknowledged
    /// appends ride in the OS page cache.
    EveryN(u64),
    /// fsync only at checkpoint rotation (and explicit journal syncs); a
    /// process crash loses nothing, an OS crash can lose the un-checkpointed
    /// tail.
    OnCheckpoint,
}

impl fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsyncPolicy::Always => write!(f, "always"),
            FsyncPolicy::EveryN(n) => write!(f, "every:{n}"),
            FsyncPolicy::OnCheckpoint => write!(f, "oncheckpoint"),
        }
    }
}

impl std::str::FromStr for FsyncPolicy {
    type Err = String;

    /// Parses `always`, `oncheckpoint` (also `checkpoint`), or `every:<n>`
    /// (also `every=<n>` / `every<n>`, n ≥ 1).
    fn from_str(text: &str) -> std::result::Result<FsyncPolicy, String> {
        let lower = text.trim().to_ascii_lowercase();
        match lower.as_str() {
            "always" => return Ok(FsyncPolicy::Always),
            "oncheckpoint" | "on-checkpoint" | "checkpoint" => {
                return Ok(FsyncPolicy::OnCheckpoint)
            }
            _ => {}
        }
        if let Some(rest) = lower.strip_prefix("every") {
            let digits = rest.trim_start_matches([':', '=']);
            if let Ok(n) = digits.parse::<u64>() {
                if n >= 1 {
                    return Ok(FsyncPolicy::EveryN(n));
                }
            }
        }
        Err(format!(
            "unknown fsync policy '{text}' (expected always, every:<n> or oncheckpoint)"
        ))
    }
}

/// Cumulative journal counters, surfaced by the status probe and
/// `snapshot verify`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Bytes of the current journal file (header included).
    pub bytes: u64,
    /// Frames written since the journal was enabled (rotations included).
    pub frames_appended: u64,
    /// Frames replayed into the log when the store was opened.
    pub frames_replayed: u64,
    /// Torn- or corrupt-tail truncations performed on open (0 or 1).
    pub frames_truncated: u64,
    /// fsyncs issued since the journal was enabled.
    pub fsyncs: u64,
    /// Manifest generation of the last checkpoint rotation (0 before the
    /// first).
    pub last_rotation_generation: u64,
}

/// One acknowledged append batch recovered from the journal.
#[derive(Debug, Clone)]
pub struct JournalBatch {
    /// Rows the log held when the batch was acknowledged — the replay
    /// position: a frame applies only when the recovering log has exactly
    /// this many rows, which makes replay idempotent across checkpoint
    /// rotation crash windows.
    pub start_rows: u64,
    /// The acknowledged records, in append order.
    pub records: Vec<ExecutionRecord>,
}

/// What [`read_journal`] recovered from a journal file.
#[derive(Debug, Clone, Default)]
pub struct JournalReplay {
    /// The decoded frames, in journal order.
    pub batches: Vec<JournalBatch>,
    /// Valid journal bytes (header included) after tail truncation.
    pub bytes: u64,
    /// 1 when a torn or corrupt tail was cut off, else 0.
    pub frames_truncated: u64,
    /// Transient-IO retries absorbed while reading.
    pub io_retries: u64,
}

/// Read-only journal health, as audited by [`verify_journal`].
#[derive(Debug, Clone, Default)]
pub struct JournalHealth {
    /// Whether a journal file exists in the directory.
    pub present: bool,
    /// Total bytes of the journal file on disk.
    pub bytes: u64,
    /// Frames whose checksums verified clean.
    pub frames: u64,
    /// Records across the clean frames.
    pub records: u64,
    /// Why the tail (or the whole file) failed verification, when it did.
    pub damage: Option<String>,
}

impl JournalHealth {
    /// `true` when the journal is absent or verified clean end to end.
    pub fn is_healthy(&self) -> bool {
        self.damage.is_none()
    }
}

fn journal_header_bytes() -> Vec<u8> {
    let mut writer = ByteWriter::with_capacity(JOURNAL_HEADER_BYTES as usize);
    writer.put_raw(JOURNAL_MAGIC);
    writer.put_u32(SNAPSHOT_VERSION);
    writer.into_bytes()
}

/// Encodes one append batch as a self-verifying journal frame.
fn encode_journal_frame(start_rows: u64, records: &[ExecutionRecord]) -> Vec<u8> {
    let mut writer = ByteWriter::with_capacity(records.len() * 96 + 32);
    writer.put_checksummed_block(|w| {
        w.put_u64(start_rows);
        w.put_u64(records.len() as u64);
        for record in records {
            encode_record(w, record, None);
        }
    });
    writer.into_bytes()
}

/// Decodes one journal frame, taking every feature name from `names`.
fn decode_journal_frame(
    reader: &mut ByteReader<'_>,
    names: &mut FeatureNames,
) -> std::result::Result<JournalBatch, CodecError> {
    let mut block = reader.get_checksummed_block()?;
    let start_rows = block.get_u64()?;
    let count = block.get_count()?;
    let mut records = Vec::with_capacity(count.min(block.remaining()));
    for _ in 0..count {
        records.push(rebuild_record(decode_record(&mut block, names)?, None));
    }
    if !block.is_exhausted() {
        return Err(CodecError::Invalid(
            "trailing bytes inside a journal frame".to_string(),
        ));
    }
    Ok(JournalBatch {
        start_rows,
        records,
    })
}

/// One pass over a journal file: its clean frames in order and where
/// validity ends.
struct JournalScan {
    batches: Vec<JournalBatch>,
    /// Bytes of the file on disk.
    file_bytes: u64,
    /// Bytes (from the start of the file) covered by the header plus every
    /// clean frame; anything beyond is torn or corrupt.
    valid_bytes: u64,
    damage: Option<String>,
}

/// Reads the journal in `dir` (`None` when the store has none) and decodes
/// its clean frames in order.  Only the read can fail — damage is data, not
/// an error.
fn scan_journal(dir: &Path, retries: &AtomicU64) -> Result<Option<JournalScan>> {
    let path = dir.join(JOURNAL_FILE);
    if !path.exists() {
        return Ok(None);
    }
    let bytes = io_op(Some("journal.replay"), &path, retries, || {
        std::fs::read(&path)
    })?;
    let mut scan = JournalScan {
        batches: Vec::new(),
        file_bytes: bytes.len() as u64,
        valid_bytes: 0,
        damage: None,
    };
    if bytes.is_empty() {
        // An empty file is a journal that never got its header — nothing
        // was ever acknowledged against it, so it is vacuously clean.
        return Ok(Some(scan));
    }
    let mut reader = ByteReader::new(&bytes);
    let header_ok = matches!(reader.take(JOURNAL_MAGIC.len()), Ok(magic) if magic == JOURNAL_MAGIC)
        && matches!(reader.get_u32(), Ok(version) if version == SNAPSHOT_VERSION);
    if !header_ok {
        scan.damage = Some("not a journal file (bad magic or version)".to_string());
        return Ok(Some(scan));
    }
    scan.valid_bytes = JOURNAL_HEADER_BYTES;
    // The frames' records share one copy of each feature name.
    let mut names = FeatureNames::default();
    while !reader.is_exhausted() {
        match decode_journal_frame(&mut reader, &mut names) {
            Ok(batch) => {
                scan.batches.push(batch);
                scan.valid_bytes = (bytes.len() - reader.remaining()) as u64;
            }
            Err(err) => {
                scan.damage = Some(format!(
                    "frame {} at byte {}: {err}",
                    scan.batches.len(),
                    scan.valid_bytes
                ));
                break;
            }
        }
    }
    Ok(Some(scan))
}

/// Reads the journal in `dir` for replay: decodes every clean frame and
/// **truncates the file at the last valid frame** when the tail is torn or
/// corrupt (a crash mid-write is the expected way for a journal to end —
/// it is recovery, not an error).  A missing journal replays nothing.
/// [`JournalReplay::apply`] then applies the batches to the log opened
/// from the same directory.
pub fn read_journal(dir: &Path) -> Result<JournalReplay> {
    let retries = AtomicU64::new(0);
    let Some(scan) = scan_journal(dir, &retries)? else {
        return Ok(JournalReplay::default());
    };
    let mut frames_truncated = 0;
    if scan.valid_bytes < scan.file_bytes {
        frames_truncated = 1;
        let path = dir.join(JOURNAL_FILE);
        io_op(None, &path, &retries, || {
            let file = std::fs::OpenOptions::new().write(true).open(&path)?;
            file.set_len(scan.valid_bytes)
        })?;
    }
    Ok(JournalReplay {
        batches: scan.batches,
        bytes: scan.valid_bytes,
        frames_truncated,
        io_retries: retries.load(Ordering::Relaxed),
    })
}

impl JournalReplay {
    /// Applies the recovered batches to `log`, the log just opened from the
    /// journal's directory, positionally: a batch belongs at
    /// [`JournalBatch::start_rows`].  A batch `log` already covers is
    /// skipped (a crash landed between a checkpoint's manifest commit and
    /// its journal rotation), so replay stays idempotent; a positional gap
    /// stops the replay, since splicing records against the wrong base is
    /// worse than losing them (a salvage that quarantined a shard shifts
    /// every later position); every other batch is appended, its records
    /// moved into the log, not cloned.  The batches are consumed.
    ///
    /// Returns how many frames `log` now covers, skipped ones included.
    pub fn apply(&mut self, log: &mut ExecutionLog) -> u64 {
        let mut frames = 0;
        for batch in std::mem::take(&mut self.batches) {
            let start = batch.start_rows as usize;
            if start.saturating_add(batch.records.len()) <= log.len() {
                frames += 1;
                continue;
            }
            if start != log.len() {
                break;
            }
            log.append(batch.records);
            frames += 1;
        }
        frames
    }
}

/// Read-only journal audit for `snapshot verify`: decodes every frame
/// checksum without truncating or touching the file.  A missing journal is
/// healthy (the store simply has no live tail).
pub fn verify_journal(dir: &Path) -> Result<JournalHealth> {
    let Some(scan) = scan_journal(dir, &AtomicU64::new(0))? else {
        return Ok(JournalHealth::default());
    };
    Ok(JournalHealth {
        present: true,
        bytes: scan.file_bytes,
        frames: scan.batches.len() as u64,
        records: scan.batches.iter().map(|b| b.records.len() as u64).sum(),
        damage: scan.damage,
    })
}

/// The write side of the append journal: an open handle positioned after
/// the last valid frame, the fsync policy, and the cumulative counters.
///
/// Lifecycle: [`Journal::create`] (fresh store or no replay — whatever was
/// in the file is discarded) or [`Journal::resume`] (after
/// [`read_journal`]); [`Journal::append_batch`] per acknowledged append;
/// [`Journal::begin_rotation`] **before** the checkpoint's manifest commit
/// and [`Journal::commit_rotation`] after it — the same crash-ordering
/// discipline as content-addressed segments: at every instant either the
/// old journal covers the un-checkpointed tail or the manifest does.
#[derive(Debug)]
pub struct Journal {
    dir: PathBuf,
    path: PathBuf,
    file: std::fs::File,
    policy: FsyncPolicy,
    retries: AtomicU64,
    bytes: u64,
    frames_appended: u64,
    frames_replayed: u64,
    frames_truncated: u64,
    fsyncs: u64,
    unsynced_frames: u64,
    last_rotation_generation: u64,
    /// Set when a failed append could not be scrubbed off the file: an
    /// unacknowledged frame sits at the acked cursor, so any further
    /// frame this journal wrote could be shadowed by it on replay.  The
    /// owner must stop journaling ([`Journal::is_broken`]).
    broken: bool,
}

impl Journal {
    /// Creates (or resets) the journal in `dir` with a fresh header.  Use
    /// this when the in-memory log was *not* recovered from this journal —
    /// stale frames from an unrelated history must never replay.
    pub fn create(dir: &Path, policy: FsyncPolicy) -> Result<Journal> {
        Journal::open_impl(dir, policy, true, 0, 0)
    }

    /// Opens the journal after a [`read_journal`] pass, positioned after
    /// the last valid frame, seeding the replay counters with how many
    /// frames the caller actually applied.
    pub fn resume(
        dir: &Path,
        policy: FsyncPolicy,
        replay: &JournalReplay,
        frames_replayed: u64,
    ) -> Result<Journal> {
        let journal =
            Journal::open_impl(dir, policy, false, frames_replayed, replay.frames_truncated)?;
        journal
            .retries
            .fetch_add(replay.io_retries, Ordering::Relaxed);
        Ok(journal)
    }

    fn open_impl(
        dir: &Path,
        policy: FsyncPolicy,
        reset: bool,
        frames_replayed: u64,
        frames_truncated: u64,
    ) -> Result<Journal> {
        let retries = AtomicU64::new(0);
        io_op(Some("snapshot.dir.create"), dir, &retries, || {
            std::fs::create_dir_all(dir)
        })?;
        let path = dir.join(JOURNAL_FILE);
        let file = io_op(Some("journal.write"), &path, &retries, || {
            std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(false)
                .open(&path)
        })?;
        let len = io_op(None, &path, &retries, || file.metadata())?.len();
        let mut journal = Journal {
            dir: dir.to_path_buf(),
            path,
            file,
            policy,
            retries,
            bytes: len,
            frames_appended: 0,
            frames_replayed,
            frames_truncated,
            fsyncs: 0,
            unsynced_frames: 0,
            last_rotation_generation: 0,
            broken: false,
        };
        if reset || len < JOURNAL_HEADER_BYTES {
            journal.write_at(0, &journal_header_bytes())?;
            let file = &journal.file;
            io_op(None, &journal.path, &journal.retries, || {
                file.set_len(JOURNAL_HEADER_BYTES)
            })?;
            journal.bytes = JOURNAL_HEADER_BYTES;
        }
        Ok(journal)
    }

    /// The snapshot directory this journal lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The journal's fsync policy.
    pub fn policy(&self) -> FsyncPolicy {
        self.policy
    }

    /// Cumulative counters for the status probe.
    pub fn stats(&self) -> JournalStats {
        JournalStats {
            bytes: self.bytes,
            frames_appended: self.frames_appended,
            frames_replayed: self.frames_replayed,
            frames_truncated: self.frames_truncated,
            fsyncs: self.fsyncs,
            last_rotation_generation: self.last_rotation_generation,
        }
    }

    /// Transient-IO retries absorbed by journal operations so far.
    pub fn io_retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Writes `bytes` at `offset`, seeking first so a retried attempt
    /// never duplicates a partial write.
    fn write_at(&mut self, offset: u64, bytes: &[u8]) -> Result<()> {
        let file = &mut self.file;
        io_op(Some("journal.write"), &self.path, &self.retries, || {
            file.seek(SeekFrom::Start(offset))?;
            file.write_all(bytes)
        })
    }

    fn fsync_now(&mut self) -> Result<()> {
        let file = &self.file;
        io_op(Some("journal.fsync"), &self.path, &self.retries, || {
            file.sync_data()
        })?;
        self.fsyncs += 1;
        self.unsynced_frames = 0;
        Ok(())
    }

    /// Appends one acknowledged batch as a frame and applies the fsync
    /// policy.  Returns whether the batch is **durable** (fsynced before
    /// the acknowledgement).  On error nothing must be acknowledged — the
    /// caller aborts the in-memory append, and the frame is scrubbed back
    /// off the file so it can never replay in place of a *later* acked
    /// frame at the same position (if even the scrub fails the journal
    /// reports [`Journal::is_broken`] and must be deactivated).
    pub fn append_batch(&mut self, start_rows: u64, records: &[ExecutionRecord]) -> Result<bool> {
        if self.broken {
            return Err(io_error(
                &self.path,
                std::io::Error::other(
                    "journal is broken: a failed append left an unacknowledged frame \
                     that could not be scrubbed",
                ),
            ));
        }
        let frame = encode_journal_frame(start_rows, records);
        let pre_bytes = self.bytes;
        let pre_appended = self.frames_appended;
        let pre_unsynced = self.unsynced_frames;
        let result = self.append_frame(&frame);
        if result.is_err() {
            // The frame (whole or torn) may be on disk but was never
            // acknowledged.  Truncate back to the pre-frame offset and
            // restore the counters: the journal stays active and the next
            // acked frame lands at the same position this one vacated.
            // If the truncate itself fails, an unacknowledged frame is
            // stuck at the acked cursor and would shadow whatever acked
            // frame is written there next — mark the journal broken so
            // the owner stops journaling instead of desyncing replay.
            self.bytes = pre_bytes;
            self.frames_appended = pre_appended;
            self.unsynced_frames = pre_unsynced;
            let file = &self.file;
            if io_op(None, &self.path, &self.retries, || file.set_len(pre_bytes)).is_err() {
                self.broken = true;
            }
        }
        result
    }

    /// Whether a failed append left an unacknowledged frame on disk that
    /// could not be scrubbed — the journal must not be used for further
    /// appends (see [`Journal::append_batch`]).
    pub fn is_broken(&self) -> bool {
        self.broken
    }

    fn append_frame(&mut self, frame: &[u8]) -> Result<bool> {
        self.write_at(self.bytes, frame)?;
        self.bytes += frame.len() as u64;
        self.frames_appended += 1;
        self.unsynced_frames += 1;
        match self.policy {
            FsyncPolicy::Always => {
                self.fsync_now()?;
                Ok(true)
            }
            FsyncPolicy::EveryN(n) => {
                if self.unsynced_frames >= n.max(1) {
                    self.fsync_now()?;
                    Ok(true)
                } else {
                    Ok(false)
                }
            }
            FsyncPolicy::OnCheckpoint => Ok(false),
        }
    }

    /// Flushes any unsynced frames to stable storage (no-op when none are
    /// pending).
    pub fn sync(&mut self) -> Result<()> {
        if self.unsynced_frames == 0 {
            return Ok(());
        }
        self.fsync_now()
    }

    /// Stage the next journal generation (`journal.bin.tmp`, fresh header)
    /// **before** the checkpoint commits its manifest, so a crash in
    /// between still finds the old journal covering the old manifest's
    /// tail.
    pub fn begin_rotation(&mut self) -> Result<()> {
        let tmp = self.dir.join(JOURNAL_TMP_FILE);
        let header = journal_header_bytes();
        io_op(Some("journal.write"), &tmp, &self.retries, || {
            std::fs::write(&tmp, &header)
        })
    }

    /// Completes a rotation after the manifest committed: the staged
    /// journal replaces the old one and the handle moves over to it.
    /// `generation` is the manifest generation the checkpoint wrote.
    pub fn commit_rotation(&mut self, generation: u64) -> Result<()> {
        let tmp = self.dir.join(JOURNAL_TMP_FILE);
        let path = &self.path;
        io_op(Some("journal.write"), path, &self.retries, || {
            std::fs::rename(&tmp, path)
        })?;
        self.file = io_op(None, path, &self.retries, || {
            std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .open(path)
        })?;
        self.bytes = JOURNAL_HEADER_BYTES;
        self.unsynced_frames = 0;
        self.last_rotation_generation = generation;
        // The swap discarded the old file wholesale, and with it any
        // unacknowledged frame a failed scrub left behind.
        self.broken = false;
        Ok(())
    }

    /// Abandons a staged rotation (the checkpoint between
    /// [`Journal::begin_rotation`] and [`Journal::commit_rotation`]
    /// failed): best-effort removal of the scratch file; the old journal
    /// stays authoritative.
    pub fn abort_rotation(&mut self) {
        let tmp = self.dir.join(JOURNAL_TMP_FILE);
        let _ = io_op(None, &tmp, &self.retries, || std::fs::remove_file(&tmp));
    }
}

/// Best-effort removal of the journal once a manifest commit has made its
/// frames redundant: every committed write either re-described the world
/// (full persist — replaying old frames would splice unrelated history) or
/// absorbed the journaled tail into a segment.  A journaling service
/// rotates right after ([`Journal::commit_rotation`] renames the staged
/// `journal.bin.tmp` into place — which is why the scratch file is left
/// alone here).
fn remove_stale_journal(dir: &Path, retries: &AtomicU64) {
    let path = dir.join(JOURNAL_FILE);
    let _ = io_op(None, &path, retries, || std::fs::remove_file(&path));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::ExecutionRecord;

    fn test_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("pxsnap_unit_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_log() -> ExecutionLog {
        let mut log = ExecutionLog::new();
        for i in 0..10 {
            log.push(
                ExecutionRecord::job(format!("job_{i}"))
                    .with_feature("inputsize", (i as f64) * 1.0e9)
                    .with_feature("pigscript", format!("script_{}.pig", i % 3))
                    .with_feature("duration", 100.0 + i as f64),
            );
            log.push(
                ExecutionRecord::task(format!("task_{i}"), format!("job_{i}"))
                    .with_feature("tasktype", if i % 2 == 0 { "MAP" } else { "REDUCE" })
                    .with_feature("duration", 10.0 + i as f64),
            );
        }
        log.rebuild_catalogs();
        log
    }

    #[test]
    fn fingerprints_are_deterministic_and_part_sensitive() {
        assert_eq!(fingerprint_bytes(b"abc"), fingerprint_bytes(b"abc"));
        assert_ne!(fingerprint_bytes(b"abc"), fingerprint_bytes(b"abd"));
        assert_ne!(
            fingerprint_texts(["ab", "c"]),
            fingerprint_texts(["a", "bc"])
        );
        assert_eq!(
            fingerprint_texts(["history", "conf"]),
            fingerprint_texts(["history", "conf"])
        );
    }

    #[test]
    fn persist_open_round_trips_log_and_views() {
        let log = sample_log();
        let dir = test_dir("roundtrip");
        for shards in [1usize, 3, 7, 64] {
            let report = persist(&log, &dir, shards).unwrap();
            assert_eq!(report.rows, log.len());
            assert_eq!(report.shards_reused, 0);
            assert!(report.manifest.shards.len() <= shards.max(1));

            let snapshot = open(&dir).unwrap();
            assert_eq!(snapshot.num_rows(), log.len());
            assert_eq!(snapshot.to_log(), log);
            let views = snapshot.into_views();
            assert_eq!(views.job, ColumnarLog::build(&log, ExecutionKind::Job));
            assert_eq!(views.task, ColumnarLog::build(&log, ExecutionKind::Task));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_logs_snapshot_cleanly() {
        let dir = test_dir("empty");
        let log = ExecutionLog::new();
        persist(&log, &dir, 4).unwrap();
        let snapshot = open(&dir).unwrap();
        assert_eq!(snapshot.num_rows(), 0);
        assert_eq!(snapshot.to_log(), log);
        assert_eq!(snapshot.into_views().job.num_rows(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sync_reuses_clean_shards_and_reencodes_dirty_ones() {
        let log = sample_log();
        let records = log.records();
        let shards: Vec<RecordShard> = records
            .chunks(4)
            .enumerate()
            .map(|(i, chunk)| RecordShard {
                records: chunk.to_vec(),
                source_fingerprint: Some(1000 + i as u64),
            })
            .collect();
        let count = shards.len();
        let dir = test_dir("sync");
        persist_shards(&dir, shards.clone()).unwrap();
        let before = SnapshotManifest::load(&dir).unwrap();

        // Dirty exactly shard 1: a numeric feature value changes (catalog
        // stays stable).
        let mut dirty = shards[1].clone();
        dirty.records[0].set_feature("duration", 9999.0);
        dirty.source_fingerprint = Some(777);
        let inputs: Vec<ShardInput> = shards
            .iter()
            .enumerate()
            .map(|(i, shard)| {
                if i == 1 {
                    ShardInput::Fresh(dirty.clone())
                } else {
                    ShardInput::Unchanged {
                        source_fingerprint: shard.source_fingerprint.unwrap(),
                    }
                }
            })
            .collect();
        let report = sync(&dir, inputs).unwrap();
        assert_eq!(report.shards_encoded, 1);
        assert_eq!(report.shards_reused, count - 1);
        assert!(!report.catalog_changed);
        // Fingerprint bookkeeping: every clean shard's entry is carried
        // forward bit-for-bit; the dirty shard's fingerprint moved.
        for (i, (old_entry, new_entry)) in before
            .shards
            .iter()
            .zip(&report.manifest.shards)
            .enumerate()
        {
            if i == 1 {
                assert_ne!(old_entry.fingerprint, new_entry.fingerprint);
                assert_eq!(new_entry.source_fingerprint, Some(777));
            } else {
                assert_eq!(old_entry.fingerprint, new_entry.fingerprint);
            }
        }

        // The synced snapshot equals a from-scratch ingest of the same
        // records.
        let mut expected = ExecutionLog::new();
        for (i, shard) in shards.iter().enumerate() {
            let source = if i == 1 { &dirty } else { shard };
            for record in &source.records {
                expected.push(record.clone());
            }
        }
        expected.rebuild_catalogs();
        let snapshot = open(&dir).unwrap();
        assert_eq!(snapshot.to_log(), expected);
        assert_eq!(
            snapshot.into_views().job,
            ColumnarLog::build(&expected, ExecutionKind::Job)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sync_append_keeps_base_shards_and_adds_a_tail() {
        let dir = test_dir("sync_append");
        let log = sample_log();
        // `persist` records no source fingerprints — exactly the situation
        // `ShardInput::Keep` exists for.
        persist(&log, &dir, 3).unwrap();
        let base_shards = SnapshotManifest::load(&dir).unwrap().shards.len();

        // A tail whose features the stored catalog already knows: every
        // base shard is kept verbatim, only the tail is encoded.
        let tail = vec![
            ExecutionRecord::job("job_tail")
                .with_feature("inputsize", 5.0e9)
                .with_feature("pigscript", "script_0.pig")
                .with_feature("duration", 111.0),
            ExecutionRecord::task("task_tail", "job_tail")
                .with_feature("tasktype", "MAP")
                .with_feature("duration", 11.0),
        ];
        let before = SnapshotManifest::load(&dir).unwrap();
        let report = sync_append(&dir, &tail, 12).unwrap();
        assert_eq!(report.manifest.generation, 12);
        assert_eq!(report.shards_encoded, 1);
        assert_eq!(report.shards_reused, base_shards);
        assert!(!report.catalog_changed);
        assert_eq!(report.rows, log.len() + tail.len());
        for (old_entry, new_entry) in before.shards.iter().zip(&report.manifest.shards) {
            assert_eq!(old_entry.fingerprint, new_entry.fingerprint);
        }

        // The appended store equals a from-scratch ingest.
        let mut expected = log.clone();
        for record in &tail {
            expected.push(record.clone());
        }
        expected.rebuild_catalogs();
        assert_eq!(open(&dir).unwrap().to_log(), expected);

        // An empty tail is a keep-everything no-op sync.
        let idle = sync_append(&dir, &[], 12).unwrap();
        assert_eq!(idle.shards_encoded, 0);
        assert_eq!(idle.shards_reused, base_shards + 1);

        // A tail that moves the schema re-encodes every segment from its
        // on-disk records — slower, still correct.
        let oddball = vec![ExecutionRecord::job("job_new_schema")
            .with_feature("inputsize", 1.0e9)
            .with_feature("pigscript", "script_9.pig")
            .with_feature("brand_new_knob", 3.0)
            .with_feature("duration", 5.0)];
        let report = sync_append(&dir, &oddball, 13).unwrap();
        assert!(report.catalog_changed);
        assert_eq!(report.shards_reused, 0);
        assert_eq!(report.shards_encoded, base_shards + 2);
        for record in &oddball {
            expected.push(record.clone());
        }
        expected.rebuild_catalogs();
        assert_eq!(open(&dir).unwrap().to_log(), expected);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sync_reencodes_everything_when_the_catalog_moves() {
        let log = sample_log();
        let shards: Vec<RecordShard> = log
            .records()
            .chunks(5)
            .enumerate()
            .map(|(i, chunk)| RecordShard {
                records: chunk.to_vec(),
                source_fingerprint: Some(i as u64),
            })
            .collect();
        let count = shards.len();
        let dir = test_dir("catalog_move");
        persist_shards(&dir, shards.clone()).unwrap();

        // The dirty shard introduces a brand-new feature: every segment's
        // schema is stale now.
        let mut dirty = shards[0].clone();
        dirty.records[0].set_feature("brand_new_metric", 42.0);
        dirty.source_fingerprint = Some(555);
        let mut inputs: Vec<ShardInput> = vec![ShardInput::Fresh(dirty.clone())];
        for shard in &shards[1..] {
            inputs.push(ShardInput::Unchanged {
                source_fingerprint: shard.source_fingerprint.unwrap(),
            });
        }
        let report = sync(&dir, inputs).unwrap();
        assert!(report.catalog_changed);
        assert_eq!(report.shards_encoded, count);
        assert_eq!(report.shards_reused, 0);

        let mut expected = ExecutionLog::new();
        for record in dirty
            .records
            .iter()
            .chain(shards[1..].iter().flat_map(|s| s.records.iter()))
        {
            expected.push(record.clone());
        }
        expected.rebuild_catalogs();
        let snapshot = open(&dir).unwrap();
        assert_eq!(snapshot.to_log(), expected);
        assert!(snapshot
            .catalog(ExecutionKind::Job)
            .get("brand_new_metric")
            .is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sync_rejects_stale_reuse_claims() {
        let dir = test_dir("stale_claim");
        persist_shards(
            &dir,
            vec![RecordShard {
                records: sample_log().records().to_vec(),
                source_fingerprint: Some(1),
            }],
        )
        .unwrap();
        let err = sync(
            &dir,
            vec![ShardInput::Unchanged {
                source_fingerprint: 2,
            }],
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::SnapshotCorrupt { .. }), "{err}");
        // And a reuse claim past the manifest's shard count.
        let err = sync(
            &dir,
            vec![
                ShardInput::Unchanged {
                    source_fingerprint: 1,
                },
                ShardInput::Unchanged {
                    source_fingerprint: 1,
                },
            ],
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::SnapshotCorrupt { .. }), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Records of one kind with no features at all yield an empty catalog
    /// and therefore a zero-column (row-count-less) store; a snapshot of
    /// such a log must still round-trip — this was a live bug where the
    /// row-count cross-check misreported healthy files as corrupt.
    #[test]
    fn featureless_records_round_trip() {
        let mut log = ExecutionLog::new();
        log.push(ExecutionRecord::job("job_0").with_feature("duration", 1.0));
        log.push(ExecutionRecord::task("task_0", "job_0"));
        log.push(ExecutionRecord::task("task_1", "job_0"));
        log.rebuild_catalogs();
        let dir = test_dir("featureless");
        persist(&log, &dir, 2).unwrap();
        let snap = open(&dir).unwrap();
        assert_eq!(snap.to_log(), log);
        let task = snap.into_views().task;
        assert_eq!(task.num_rows(), 2);
        assert_eq!(task, ColumnarLog::build(&log, ExecutionKind::Task));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shrinking_reingests_leave_no_orphan_segments() {
        let log = sample_log();
        let dir = test_dir("shrink");
        persist(&log, &dir, 8).unwrap();
        let wide = SnapshotManifest::load(&dir).unwrap().shards.len();
        assert!(wide > 2);
        let report = persist(&log, &dir, 2).unwrap();
        let on_disk: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.unwrap().file_name().into_string().ok())
            .filter(|name| name.starts_with("segment-"))
            .collect();
        // Only the committed manifest's segments remain; every wide-layout
        // file was cleaned up after the manifest rename.
        assert_eq!(on_disk.len(), report.manifest.shards.len());
        for entry in &report.manifest.shards {
            assert!(on_disk.contains(&entry.file), "missing {}", entry.file);
        }
        assert_eq!(open(&dir).unwrap().to_log(), log);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn syncing_an_emptied_source_yields_an_openable_empty_snapshot() {
        let dir = test_dir("empty_sync");
        persist(&sample_log(), &dir, 3).unwrap();
        let report = sync(&dir, Vec::new()).unwrap();
        assert_eq!(report.rows, 0);
        // One padded empty shard, never a zero-shard manifest `load`
        // would reject.
        assert_eq!(report.manifest.shards.len(), 1);
        let snap = open(&dir).unwrap();
        assert_eq!(snap.num_rows(), 0);
        assert_eq!(snap.to_log(), ExecutionLog::new());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn opening_nothing_is_an_io_error() {
        let dir = test_dir("missing");
        assert!(matches!(open(&dir), Err(CoreError::SnapshotIo { .. })));
    }

    #[test]
    fn usage_accounts_for_every_on_disk_byte() {
        let log = sample_log();
        let dir = test_dir("usage");
        let report = persist(&log, &dir, 3).unwrap();
        let usage = report.manifest.usage();
        let on_disk: u64 = report
            .manifest
            .shards
            .iter()
            .map(|entry| std::fs::metadata(dir.join(&entry.file)).unwrap().len())
            .sum();
        assert_eq!(usage.total_bytes, on_disk);
        assert_eq!(
            usage.total_bytes,
            usage.records_bytes + usage.job_bytes + usage.task_bytes
        );
        // The v1 equivalent is strictly larger: the whole point of v2.
        assert!(
            usage.raw_bytes > usage.total_bytes,
            "raw {} vs stored {}",
            usage.raw_bytes,
            usage.total_bytes
        );
        assert!(usage.compression_ratio() > 1.0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Null features and NaN numerics are exactly what the columns cannot
    /// reproduce — they must ride the exception path and come back
    /// bit-identical.
    #[test]
    fn exceptional_values_round_trip_bit_exactly() {
        let mut log = ExecutionLog::new();
        log.push(
            ExecutionRecord::job("job_0")
                .with_feature("duration", f64::NAN)
                .with_feature("inputsize", -0.0)
                .with_feature("reducers", Value::Null),
        );
        log.push(
            ExecutionRecord::job("job_1")
                .with_feature("duration", 2.0)
                .with_feature("inputsize", f64::NEG_INFINITY),
        );
        log.rebuild_catalogs();
        let dir = test_dir("exceptions");
        persist(&log, &dir, 1).unwrap();
        let reopened = open(&dir).unwrap().to_log();
        for (original, decoded) in log.records().iter().zip(reopened.records()) {
            assert_eq!(original.id, decoded.id);
            assert_eq!(original.features().len(), decoded.features().len());
            for (name, value) in original.features() {
                let got = decoded.feature_ref(name).unwrap();
                assert!(
                    values_identical(value, got),
                    "feature '{name}': {value:?} vs {got:?}"
                );
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Shards of `sample_log`, four records each, with stable source
    /// fingerprints — the layout the salvage tests damage and repair.
    fn fingerprinted_shards() -> Vec<RecordShard> {
        sample_log()
            .records()
            .chunks(4)
            .enumerate()
            .map(|(i, chunk)| RecordShard {
                records: chunk.to_vec(),
                source_fingerprint: Some(2000 + i as u64),
            })
            .collect()
    }

    fn flip_byte(path: &std::path::Path, offset: usize) {
        let mut bytes = std::fs::read(path).unwrap();
        bytes[offset] ^= 0xff;
        std::fs::write(path, bytes).unwrap();
    }

    #[test]
    fn salvage_quarantines_damage_and_keeps_healthy_shards() {
        let shards = fingerprinted_shards();
        let dir = test_dir("salvage");
        let report = persist_shards(&dir, shards.clone()).unwrap();
        assert!(report.manifest.shards.len() >= 3);
        let victim = report.manifest.shards[1].file.clone();
        flip_byte(&dir.join(&victim), 12);

        // Strict open refuses; salvage returns everything else.
        assert!(matches!(open(&dir), Err(CoreError::SnapshotCorrupt { .. })));
        let partial = open_salvage(&dir).unwrap();
        assert_eq!(partial.healthy_shards(), report.manifest.shards.len() - 1);
        assert_eq!(partial.damaged_indices(), vec![1]);
        let damage = &partial.quarantined()[0];
        assert_eq!(damage.file, victim);
        assert_eq!(damage.source_fingerprint, Some(2001));
        assert!(matches!(damage.error, CoreError::SnapshotCorrupt { .. }));
        // The damaged file is renamed aside, never deleted.
        let quarantine_name = damage.quarantined_as.clone().unwrap();
        assert_eq!(quarantine_name, format!("quarantine-{victim}"));
        assert!(dir.join(&quarantine_name).exists());
        assert!(!dir.join(&victim).exists());

        // The healthy side carries exactly the undamaged records.
        let healthy_log = partial.into_snapshot().to_log();
        let expected: Vec<&ExecutionRecord> = shards
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 1)
            .flat_map(|(_, shard)| shard.records.iter())
            .collect();
        assert_eq!(healthy_log.records().len(), expected.len());
        for (got, want) in healthy_log.records().iter().zip(expected) {
            assert_eq!(got.id, want.id);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn salvage_then_targeted_sync_reencodes_only_the_damaged_shard() {
        let shards = fingerprinted_shards();
        let count = shards.len();
        let dir = test_dir("salvage_sync");
        let report = persist_shards(&dir, shards.clone()).unwrap();
        let victim = report.manifest.shards[2].file.clone();
        flip_byte(&dir.join(&victim), 20);

        let partial = open_salvage(&dir).unwrap();
        assert_eq!(partial.damaged_indices(), vec![2]);

        // Re-parse only the damaged shard "from source"; everything else is
        // an unchanged claim.
        let damaged: std::collections::BTreeSet<usize> =
            partial.damaged_indices().into_iter().collect();
        let inputs: Vec<ShardInput> = shards
            .iter()
            .enumerate()
            .map(|(i, shard)| {
                if damaged.contains(&i) {
                    ShardInput::Fresh(shard.clone())
                } else {
                    ShardInput::Unchanged {
                        source_fingerprint: shard.source_fingerprint.unwrap(),
                    }
                }
            })
            .collect();
        let repaired = sync(&dir, inputs).unwrap();
        assert_eq!(repaired.shards_encoded, 1, "only the damaged shard");
        assert_eq!(repaired.shards_reused, count - 1);
        assert!(!repaired.catalog_changed);

        // The repaired store equals a clean full ingest, bit for bit.
        let clean_dir = test_dir("salvage_sync_clean");
        let clean = persist_shards(&clean_dir, shards).unwrap();
        assert_eq!(repaired.manifest, clean.manifest);
        assert_eq!(
            open(&dir).unwrap().into_views().job,
            open(&clean_dir).unwrap().into_views().job
        );
        // The quarantined file survives the repair.
        assert!(dir.join(format!("quarantine-{victim}")).exists());
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&clean_dir).unwrap();
    }

    #[test]
    fn salvage_with_an_unusable_manifest_fails_typed() {
        let dir = test_dir("salvage_manifest");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(MANIFEST_FILE), r#"{"version": 1}"#).unwrap();
        assert!(matches!(
            open_salvage(&dir),
            Err(CoreError::SnapshotVersionSkew { .. })
        ));
        std::fs::write(dir.join(MANIFEST_FILE), "not json").unwrap();
        assert!(matches!(
            open_salvage(&dir),
            Err(CoreError::SnapshotCorrupt { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verify_reports_per_shard_health_without_mutating_the_store() {
        let dir = test_dir("verify");
        let report = persist_shards(&dir, fingerprinted_shards()).unwrap();
        let healthy = verify(&dir).unwrap();
        assert_eq!(healthy.len(), report.manifest.shards.len());
        assert!(healthy.iter().all(ShardHealth::is_healthy));

        let victim = report.manifest.shards[0].file.clone();
        flip_byte(&dir.join(&victim), 9);
        let checked = verify(&dir).unwrap();
        assert!(!checked[0].is_healthy());
        assert!(matches!(
            checked[0].error,
            Some(CoreError::SnapshotCorrupt { .. })
        ));
        assert!(checked[1..].iter().all(ShardHealth::is_healthy));
        // Read-only: the damaged file is still in place under its original
        // name (verify never quarantines), and a salvage still finds it.
        assert!(dir.join(&victim).exists());
        assert_eq!(open_salvage(&dir).unwrap().damaged_indices(), vec![0]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn clean_operations_report_zero_io_retries() {
        let dir = test_dir("retries");
        let report = persist(&sample_log(), &dir, 2).unwrap();
        assert_eq!(report.io_retries, 0);
        assert_eq!(open_salvage(&dir).unwrap().io_retries(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn transient_kinds_retry_and_hard_kinds_do_not() {
        for kind in [
            std::io::ErrorKind::Interrupted,
            std::io::ErrorKind::WouldBlock,
            std::io::ErrorKind::TimedOut,
        ] {
            assert!(transient_io(kind), "{kind:?} must retry");
            let retries = AtomicU64::new(0);
            let mut failures = 2;
            let result: std::io::Result<u32> = with_io_retry(&retries, || {
                if failures > 0 {
                    failures -= 1;
                    Err(std::io::Error::new(kind, "flaky"))
                } else {
                    Ok(7)
                }
            });
            assert_eq!(result.unwrap(), 7);
            assert_eq!(retries.load(Ordering::Relaxed), 2);
            // A persistent transient error still fails after the bound.
            let retries = AtomicU64::new(0);
            let result: std::io::Result<u32> =
                with_io_retry(&retries, || Err(std::io::Error::new(kind, "stuck")));
            assert_eq!(result.unwrap_err().kind(), kind);
            assert_eq!(
                retries.load(Ordering::Relaxed),
                u64::from(IO_RETRY_ATTEMPTS) - 1
            );
        }
        for kind in [
            std::io::ErrorKind::NotFound,
            std::io::ErrorKind::InvalidData,
            std::io::ErrorKind::PermissionDenied,
        ] {
            assert!(!transient_io(kind), "{kind:?} must not retry");
            let retries = AtomicU64::new(0);
            let result: std::io::Result<u32> =
                with_io_retry(&retries, || Err(std::io::Error::new(kind, "hard")));
            assert_eq!(result.unwrap_err().kind(), kind);
            assert_eq!(retries.load(Ordering::Relaxed), 0);
        }
    }

    #[test]
    fn v1_manifests_report_version_skew_naming_reingest() {
        let dir = test_dir("v1_skew");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(MANIFEST_FILE), r#"{"version": 1}"#).unwrap();
        let err = open(&dir).unwrap_err();
        match &err {
            CoreError::SnapshotVersionSkew { found, supported } => {
                assert_eq!(*found, 1);
                assert_eq!(*supported, SNAPSHOT_VERSION);
            }
            other => panic!("expected version skew, got {other:?}"),
        }
        assert!(err.to_string().contains("re-ingest"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn journal_batch(tag: u64, count: usize) -> Vec<ExecutionRecord> {
        (0..count)
            .map(|i| {
                ExecutionRecord::job(format!("job_{tag}_{i}"))
                    .with_feature("inputsize", (tag * 100 + i as u64) as f64)
                    .with_feature("pigscript", format!("script_{tag}.pig"))
            })
            .collect()
    }

    #[test]
    fn journal_frames_round_trip_through_create_append_read() {
        let dir = test_dir("journal_roundtrip");
        let mut journal = Journal::create(&dir, FsyncPolicy::Always).unwrap();
        let batches: Vec<Vec<ExecutionRecord>> = (0..4).map(|tag| journal_batch(tag, 3)).collect();
        let mut rows = 10u64; // pretend the manifest already holds 10 rows
        for batch in &batches {
            let durable = journal.append_batch(rows, batch).unwrap();
            assert!(durable, "Always must ack durable");
            rows += batch.len() as u64;
        }
        let stats = journal.stats();
        assert_eq!(stats.frames_appended, 4);
        assert_eq!(stats.fsyncs, 4);
        assert!(stats.bytes > JOURNAL_HEADER_BYTES);
        drop(journal);

        let replay = read_journal(&dir).unwrap();
        assert_eq!(replay.frames_truncated, 0);
        assert_eq!(replay.batches.len(), 4);
        let mut expected_rows = 10u64;
        for (batch, expected) in replay.batches.iter().zip(&batches) {
            assert_eq!(batch.start_rows, expected_rows);
            assert_eq!(&batch.records, expected);
            expected_rows += expected.len() as u64;
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn journal_replay_skips_covered_frames_and_stops_at_a_gap() {
        let mut log = ExecutionLog::new();
        log.append(journal_batch(0, 3));
        let frame = |start_rows, tag| JournalBatch {
            start_rows,
            records: journal_batch(tag, 2),
        };
        let mut replay = JournalReplay {
            // Covered by the log, then two in place, then a gap: the frame
            // after the gap would fit the log's length but must not apply.
            batches: vec![
                frame(1, 1),
                frame(3, 2),
                frame(5, 3),
                frame(9, 4),
                frame(7, 5),
            ],
            ..JournalReplay::default()
        };
        assert_eq!(replay.apply(&mut log), 3);
        assert!(replay.batches.is_empty());
        let mut expected = ExecutionLog::new();
        for tag in [0, 2, 3] {
            expected.append(journal_batch(tag, if tag == 0 { 3 } else { 2 }));
        }
        assert_eq!(log, expected);
    }

    #[test]
    fn fsync_policies_control_the_durable_flag() {
        let dir = test_dir("journal_policies");
        let mut journal = Journal::create(&dir, FsyncPolicy::EveryN(3)).unwrap();
        assert!(!journal.append_batch(0, &journal_batch(0, 1)).unwrap());
        assert!(!journal.append_batch(1, &journal_batch(1, 1)).unwrap());
        assert!(journal.append_batch(2, &journal_batch(2, 1)).unwrap());
        assert_eq!(journal.stats().fsyncs, 1);

        let mut journal = Journal::create(&dir, FsyncPolicy::OnCheckpoint).unwrap();
        assert!(!journal.append_batch(0, &journal_batch(0, 1)).unwrap());
        assert_eq!(journal.stats().fsyncs, 0);
        journal.sync().unwrap();
        assert_eq!(journal.stats().fsyncs, 1);
        journal.sync().unwrap(); // nothing pending: no extra fsync
        assert_eq!(journal.stats().fsyncs, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_and_corrupt_tails_truncate_to_the_last_valid_frame() {
        let dir = test_dir("journal_torn");
        let path = dir.join(JOURNAL_FILE);
        let mut journal = Journal::create(&dir, FsyncPolicy::Always).unwrap();
        journal.append_batch(0, &journal_batch(0, 2)).unwrap();
        let good_bytes = journal.stats().bytes;
        journal.append_batch(2, &journal_batch(1, 2)).unwrap();
        drop(journal);

        // Torn tail: cut the second frame short.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..(good_bytes as usize + 5)]).unwrap();
        let replay = read_journal(&dir).unwrap();
        assert_eq!(replay.frames_truncated, 1);
        assert_eq!(replay.batches.len(), 1);
        assert_eq!(replay.bytes, good_bytes);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), good_bytes);

        // Corrupt tail: restore, flip a byte inside the second frame.
        let mut flipped = full.clone();
        let at = good_bytes as usize + 20;
        flipped[at] ^= 0x40;
        std::fs::write(&path, &flipped).unwrap();
        let replay = read_journal(&dir).unwrap();
        assert_eq!(replay.frames_truncated, 1);
        assert_eq!(replay.batches.len(), 1);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), good_bytes);

        // A clobbered header is fully damaged: nothing replays.
        std::fs::write(&path, b"garbage").unwrap();
        let replay = read_journal(&dir).unwrap();
        assert_eq!(replay.frames_truncated, 1);
        assert!(replay.batches.is_empty());
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);

        // A missing journal replays nothing and is not damage.
        std::fs::remove_file(&path).unwrap();
        let replay = read_journal(&dir).unwrap();
        assert_eq!(replay.frames_truncated, 0);
        assert!(replay.batches.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verify_journal_reports_damage_without_truncating() {
        let dir = test_dir("journal_verify");
        let path = dir.join(JOURNAL_FILE);
        assert!(!verify_journal(&dir).unwrap().present);

        let mut journal = Journal::create(&dir, FsyncPolicy::Always).unwrap();
        journal.append_batch(0, &journal_batch(0, 2)).unwrap();
        journal.append_batch(2, &journal_batch(1, 3)).unwrap();
        drop(journal);
        let health = verify_journal(&dir).unwrap();
        assert!(health.present && health.is_healthy());
        assert_eq!(health.frames, 2);
        assert_eq!(health.records, 5);

        let full = std::fs::read(&path).unwrap();
        let mut flipped = full.clone();
        let last = flipped.len() - 3;
        flipped[last] ^= 0x01;
        std::fs::write(&path, &flipped).unwrap();
        let health = verify_journal(&dir).unwrap();
        assert!(!health.is_healthy());
        assert_eq!(health.frames, 1);
        // Read-only: the file is untouched.
        assert_eq!(std::fs::read(&path).unwrap(), flipped);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_stages_then_swaps_and_resets_bytes() {
        let dir = test_dir("journal_rotation");
        let mut journal = Journal::create(&dir, FsyncPolicy::Always).unwrap();
        journal.append_batch(0, &journal_batch(0, 2)).unwrap();
        journal.begin_rotation().unwrap();
        // Old journal still replayable while the next one is staged.
        assert_eq!(read_journal(&dir).unwrap().batches.len(), 1);
        assert!(dir.join(JOURNAL_TMP_FILE).exists());
        journal.commit_rotation(7).unwrap();
        assert!(!dir.join(JOURNAL_TMP_FILE).exists());
        let stats = journal.stats();
        assert_eq!(stats.bytes, JOURNAL_HEADER_BYTES);
        assert_eq!(stats.last_rotation_generation, 7);
        assert!(read_journal(&dir).unwrap().batches.is_empty());
        // Appends land in the rotated journal.
        journal.append_batch(2, &journal_batch(9, 1)).unwrap();
        drop(journal);
        let replay = read_journal(&dir).unwrap();
        assert_eq!(replay.batches.len(), 1);
        assert_eq!(replay.batches[0].start_rows, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn create_resets_and_resume_continues() {
        let dir = test_dir("journal_resume");
        let mut journal = Journal::create(&dir, FsyncPolicy::Always).unwrap();
        journal.append_batch(0, &journal_batch(0, 2)).unwrap();
        drop(journal);

        // Resume picks up after the surviving frames.
        let replay = read_journal(&dir).unwrap();
        let mut journal = Journal::resume(&dir, FsyncPolicy::Always, &replay, 1).unwrap();
        assert_eq!(journal.stats().frames_replayed, 1);
        journal.append_batch(2, &journal_batch(1, 1)).unwrap();
        drop(journal);
        assert_eq!(read_journal(&dir).unwrap().batches.len(), 2);

        // Create discards whatever was there.
        let journal = Journal::create(&dir, FsyncPolicy::Always).unwrap();
        drop(journal);
        assert!(read_journal(&dir).unwrap().batches.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn full_persists_drop_stale_journals() {
        let dir = test_dir("journal_stale");
        let log = sample_log();
        persist(&log, &dir, 2).unwrap();
        let mut journal = Journal::create(&dir, FsyncPolicy::Always).unwrap();
        journal
            .append_batch(log.len() as u64, &journal_batch(0, 2))
            .unwrap();
        drop(journal);
        assert!(dir.join(JOURNAL_FILE).exists());
        // A full rewrite re-describes the world: the journal must not
        // survive to replay unrelated history.
        persist(&log, &dir, 2).unwrap();
        assert!(!dir.join(JOURNAL_FILE).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsync_policies_parse_and_display() {
        use std::str::FromStr;
        assert_eq!(
            FsyncPolicy::from_str("always").unwrap(),
            FsyncPolicy::Always
        );
        assert_eq!(
            FsyncPolicy::from_str("every:8").unwrap(),
            FsyncPolicy::EveryN(8)
        );
        assert_eq!(
            FsyncPolicy::from_str("every=3").unwrap(),
            FsyncPolicy::EveryN(3)
        );
        assert_eq!(
            FsyncPolicy::from_str("oncheckpoint").unwrap(),
            FsyncPolicy::OnCheckpoint
        );
        assert_eq!(
            FsyncPolicy::from_str("checkpoint").unwrap(),
            FsyncPolicy::OnCheckpoint
        );
        assert!(FsyncPolicy::from_str("every:0").is_err());
        assert!(FsyncPolicy::from_str("sometimes").is_err());
        assert_eq!(FsyncPolicy::EveryN(8).to_string(), "every:8");
        assert_eq!(FsyncPolicy::Always.to_string(), "always");
    }
}
