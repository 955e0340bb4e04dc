//! Chaos suite: drives the deterministic fault-injection registry
//! ([`perfxplain::failpoints`]) through the snapshot store, the worker pool
//! and the server's socket paths, and asserts the robustness invariants the
//! recovery story promises:
//!
//! * transient IO faults are absorbed in place and counted
//!   ([`SyncReport::io_retries`]), permanent ones surface typed errors
//!   without a retry storm;
//! * whatever faults strike, the store is always openable or salvageable —
//!   and salvage plus a *targeted* sync (re-encoding only the quarantined
//!   shards) converges to views bit-identical to a clean full ingest;
//! * a panicking pool job is requeued, never lost, so `map_chunks` latches
//!   always settle;
//! * a server connection rides through transient socket faults and hard
//!   accept faults only skip one tick.
//!
//! Compiled only under `--features failpoints`.  The registry is
//! process-global, so every test serializes on [`serial`] and disarms the
//! registry on entry; each test also asserts it finished under the CI
//! chaos-smoke ceiling of 30 s.

#![cfg(feature = "failpoints")]

use perfxplain::failpoints::{self, Action};
use perfxplain::server::{spawn, Client, SchedulerConfig, ServerConfig, WireRequest};
use perfxplain::snapshot::{self, RecordShard, ShardInput, SnapshotViews};
use perfxplain::{
    CoreError, ExecutionKind, ExecutionLog, ExecutionRecord, FsyncPolicy, XplainService,
};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::io::ErrorKind;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// The failpoint registry is process-global: chaos tests must not
/// interleave, and a panicking test must not wedge the rest.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Every chaos test must finish comfortably inside the CI chaos-smoke
/// wall-clock ceiling.
const CEILING: Duration = Duration::from_secs(30);

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pxchaos_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Three explicit record shards (jobs + tasks, stable source fingerprints)
/// so targeted syncs can pass damaged shards as [`ShardInput::Fresh`] and
/// the rest as [`ShardInput::Unchanged`].
fn chaos_shards() -> Vec<RecordShard> {
    (0..3)
        .map(|shard| {
            let mut records = Vec::new();
            for i in 0..12usize {
                let id = shard * 12 + i;
                let big_blocks = id % 2 == 0;
                let input: f64 = if id % 4 < 2 { 32.0e9 } else { 1.0e9 };
                let duration = if big_blocks { 600.0 } else { input / 5.0e7 };
                records.push(
                    ExecutionRecord::job(format!("job_{id}"))
                        .with_feature("inputsize", input)
                        .with_feature("blocksize", if big_blocks { 1024.0 } else { 64.0 })
                        .with_feature("duration", duration),
                );
                if id % 3 == 0 {
                    records.push(
                        ExecutionRecord::task(format!("task_{id}"), format!("job_{id}"))
                            .with_feature("tasktype", if id % 2 == 0 { "MAP" } else { "REDUCE" })
                            .with_feature("duration", duration / 10.0),
                    );
                }
            }
            RecordShard {
                records,
                source_fingerprint: Some(0xC0FF_EE00 + shard as u64),
            }
        })
        .collect()
}

fn small_log(n: usize) -> ExecutionLog {
    let mut log = ExecutionLog::new();
    for i in 0..n {
        let big_blocks = i % 2 == 0;
        let input = [1.0e9, 4.0e9, 32.0e9][i % 3];
        let duration = if big_blocks {
            600.0 + (i % 13) as f64
        } else {
            input / 5.0e7 + (i % 7) as f64
        };
        log.push(
            ExecutionRecord::job(format!("job_{i}"))
                .with_feature("inputsize", input)
                .with_feature("blocksize", if big_blocks { 1024.0 } else { 64.0 })
                .with_feature("pigscript", ["a.pig", "b.pig"][i % 2])
                .with_feature("duration", duration),
        );
    }
    log.rebuild_catalogs();
    log
}

// ---------------------------------------------------------------------------
// Transient vs permanent IO faults
// ---------------------------------------------------------------------------

#[test]
fn transient_io_faults_are_absorbed_and_counted() {
    let _guard = serial();
    let start = Instant::now();
    failpoints::disarm_all();
    let dir = test_dir("transient");
    let shards = chaos_shards();
    let rows: usize = shards.iter().map(|s| s.records.len()).sum();

    // Once-then-succeed transients on every write-side site: the persist
    // rides through and the report counts what was absorbed.
    failpoints::script(
        "snapshot.segment.write",
        &[
            Action::IoError(ErrorKind::Interrupted),
            Action::IoError(ErrorKind::TimedOut),
        ],
    );
    failpoints::script(
        "snapshot.manifest.write",
        &[Action::IoError(ErrorKind::WouldBlock)],
    );
    failpoints::script(
        "snapshot.manifest.rename",
        &[Action::IoError(ErrorKind::Interrupted)],
    );
    let report = snapshot::persist_shards(&dir, shards).expect("transient write faults absorbed");
    assert_eq!(report.rows, rows);
    assert!(
        report.io_retries >= 4,
        "4 injected transients, counted {} retries",
        report.io_retries
    );
    failpoints::disarm_all();

    // Same on the read side: a strict open retries through the hiccups.
    failpoints::script(
        "snapshot.manifest.read",
        &[Action::IoError(ErrorKind::Interrupted)],
    );
    failpoints::script(
        "snapshot.segment.read",
        &[Action::IoError(ErrorKind::TimedOut)],
    );
    let snap = snapshot::open(&dir).expect("transient read faults absorbed");
    assert_eq!(snap.num_rows(), rows);

    failpoints::disarm_all();
    assert!(start.elapsed() < CEILING);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn permanent_io_faults_surface_typed_errors_without_a_retry_storm() {
    let _guard = serial();
    let start = Instant::now();
    failpoints::disarm_all();
    let dir = test_dir("permanent");
    snapshot::persist_shards(&dir, chaos_shards()).unwrap();

    // NotFound is never worth retrying: one trigger per shard, typed error.
    failpoints::always(
        "snapshot.segment.read",
        Action::IoError(ErrorKind::NotFound),
    );
    match snapshot::open(&dir) {
        Err(CoreError::SnapshotIo { .. }) => {}
        other => panic!("expected SnapshotIo, got {other:?}"),
    }
    let hits = failpoints::hits("snapshot.segment.read");
    assert!(
        (1..=3).contains(&hits),
        "non-transient kinds must not retry: at most one trigger per shard, saw {hits}"
    );

    // A transient kind that never clears exhausts the bounded retry budget
    // and still surfaces the typed error — no infinite loop.
    failpoints::disarm_all();
    failpoints::always(
        "snapshot.manifest.read",
        Action::IoError(ErrorKind::Interrupted),
    );
    match snapshot::open(&dir) {
        Err(CoreError::SnapshotIo { .. }) => {}
        other => panic!("expected SnapshotIo, got {other:?}"),
    }

    failpoints::disarm_all();
    assert!(start.elapsed() < CEILING);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn injected_decode_corruption_is_quarantined_and_restorable() {
    let _guard = serial();
    let start = Instant::now();
    failpoints::disarm_all();
    let dir = test_dir("decode_corrupt");
    let shards = chaos_shards();
    let rows: usize = shards.iter().map(|s| s.records.len()).sum();
    snapshot::persist_shards(&dir, shards).unwrap();

    // One injected decode failure: the strict open reports corruption...
    failpoints::script("snapshot.segment.decode", &[Action::Corrupt]);
    match snapshot::open(&dir) {
        Err(CoreError::SnapshotCorrupt { .. }) => {}
        other => panic!("expected SnapshotCorrupt, got {other:?}"),
    }

    // ...and a salvage open quarantines exactly the shard it struck while
    // the other two keep serving.
    failpoints::script("snapshot.segment.decode", &[Action::Corrupt]);
    let partial = snapshot::open_salvage(&dir).expect("salvageable");
    assert_eq!(partial.quarantined().len(), 1);
    assert_eq!(partial.healthy_shards(), 2);
    let damage = &partial.quarantined()[0];
    let quarantined_as = damage.quarantined_as.clone().expect("renamed aside");

    // The fault was injected — the bytes on disk were always fine.  The
    // quarantine preserved them, so putting the file back fully restores
    // the store once the fault clears.
    failpoints::disarm_all();
    std::fs::rename(dir.join(&quarantined_as), dir.join(&damage.file)).unwrap();
    let snap = snapshot::open(&dir).expect("restored store opens strictly");
    assert_eq!(snap.num_rows(), rows);

    assert!(start.elapsed() < CEILING);
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------------
// Salvage + targeted sync convergence
// ---------------------------------------------------------------------------

#[test]
fn salvage_plus_targeted_sync_converges_to_a_clean_ingest() {
    let _guard = serial();
    let start = Instant::now();
    failpoints::disarm_all();
    let clean_dir = test_dir("converge_clean");
    let hurt_dir = test_dir("converge_hurt");
    let shards = chaos_shards();
    snapshot::persist_shards(&clean_dir, shards.clone()).unwrap();
    snapshot::persist_shards(&hurt_dir, shards.clone()).unwrap();

    // Real on-disk damage: flip a byte in the middle shard's segment.
    let manifest = snapshot::SnapshotManifest::load(&hurt_dir).unwrap();
    let victim = hurt_dir.join(&manifest.shards[1].file);
    let mut bytes = std::fs::read(&victim).unwrap();
    let at = bytes.len() / 2;
    bytes[at] ^= 0xff;
    std::fs::write(&victim, &bytes).unwrap();

    assert!(
        snapshot::open(&hurt_dir).is_err(),
        "strict open must refuse"
    );
    let partial = snapshot::open_salvage(&hurt_dir).expect("salvageable");
    assert_eq!(partial.damaged_indices(), vec![1]);
    assert_eq!(partial.healthy_shards(), 2);
    let quarantine = hurt_dir.join(
        partial.quarantined()[0]
            .quarantined_as
            .as_deref()
            .expect("renamed aside"),
    );
    assert_eq!(
        std::fs::read(&quarantine).unwrap(),
        bytes,
        "quarantine preserves the damaged bytes for post-mortems"
    );

    // Targeted sync: only the quarantined shard is re-encoded from source.
    let damaged: BTreeSet<usize> = partial.damaged_indices().into_iter().collect();
    let inputs: Vec<ShardInput> = shards
        .iter()
        .enumerate()
        .map(|(index, shard)| {
            if damaged.contains(&index) {
                ShardInput::Fresh(shard.clone())
            } else {
                ShardInput::Unchanged {
                    source_fingerprint: shard.source_fingerprint.unwrap(),
                }
            }
        })
        .collect();
    let report = snapshot::sync(&hurt_dir, inputs).expect("targeted sync succeeds");
    assert_eq!(report.shards_encoded, 1, "exactly the damage re-encodes");
    assert_eq!(report.shards_reused, 2);
    assert!(!report.catalog_changed);
    assert!(
        quarantine.exists(),
        "sync must never delete quarantine files"
    );

    // The healed store is bit-identical to the never-damaged one.
    let clean: SnapshotViews = snapshot::open(&clean_dir).unwrap().into_views();
    let healed: SnapshotViews = snapshot::open(&hurt_dir).unwrap().into_views();
    assert_eq!(healed.log, clean.log);
    assert_eq!(healed.job, clean.job);
    assert_eq!(healed.task, clean.task);

    assert!(start.elapsed() < CEILING);
    std::fs::remove_dir_all(&clean_dir).unwrap();
    std::fs::remove_dir_all(&hurt_dir).unwrap();
}

/// Faults a real disk could produce: transient hiccups, hard failures and
/// corruption.  No `Panic` here — the snapshot sites run inside worker-pool
/// jobs whose panics re-raise in the caller, so an injected panic is a test
/// abort, not an error path (the pool's panic recovery has its own test
/// below).  The storm also strikes the pool's own `pool.job` site; struck
/// jobs are requeued, so it only delays the fan-outs.
const STORM: &[Action] = &[
    Action::IoError(ErrorKind::Interrupted),
    Action::IoError(ErrorKind::TimedOut),
    Action::IoError(ErrorKind::WouldBlock),
    Action::IoError(ErrorKind::PermissionDenied),
    Action::Corrupt,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The invariant at the heart of the suite: under a seeded random
    /// fault schedule striking every IO site, whatever happens to a
    /// persist → open interleaving, the store is always openable,
    /// salvageable, or (when not even a manifest survived) re-ingestable —
    /// and every recovery converges to views bit-identical to a clean
    /// full ingest.
    #[test]
    fn random_fault_schedules_never_leave_the_store_unrecoverable(
        seed in 0u64..u64::MAX,
        permille in 30u32..280,
    ) {
            let _guard = serial();
            let start = Instant::now();
            failpoints::disarm_all();
            let tag = format!("storm_{seed}_{permille}");
            let clean_dir = test_dir(&format!("{tag}_clean"));
            let hurt_dir = test_dir(&format!("{tag}_hurt"));
            let shards = chaos_shards();

            // The reference: a clean ingest with no faults armed.
            snapshot::persist_shards(&clean_dir, shards.clone()).unwrap();
            let clean = snapshot::open(&clean_dir).unwrap().into_views();

            // The storm rages through persist AND the subsequent open.
            failpoints::arm_seeded(seed, permille as u16, STORM);
            let _ = snapshot::persist_shards(&hurt_dir, shards.clone());
            let healed: SnapshotViews = match snapshot::open(&hurt_dir) {
                // The storm missed (or only transients struck): full store.
                Ok(snap) => snap.into_views(),
                Err(_) => match snapshot::open_salvage(&hurt_dir) {
                    Ok(partial) => {
                        // The storm passes; re-encode exactly the damage.
                        failpoints::disarm_all();
                        let damaged: BTreeSet<usize> =
                            partial.damaged_indices().into_iter().collect();
                        let inputs: Vec<ShardInput> = shards
                            .iter()
                            .enumerate()
                            .map(|(index, shard)| {
                                if damaged.contains(&index) {
                                    ShardInput::Fresh(shard.clone())
                                } else {
                                    ShardInput::Unchanged {
                                        source_fingerprint: shard.source_fingerprint.unwrap(),
                                    }
                                }
                            })
                            .collect();
                        let report =
                            snapshot::sync(&hurt_dir, inputs).expect("targeted sync succeeds");
                        prop_assert!(
                            report.catalog_changed
                                || report.shards_encoded == damaged.len(),
                            "re-encoded {} shards for {} damaged",
                            report.shards_encoded,
                            damaged.len()
                        );
                        snapshot::open(&hurt_dir).expect("healed store opens").into_views()
                    }
                    Err(_) => {
                        // Not even a manifest to salvage against (the storm
                        // killed the persist before its atomic commit, or is
                        // still raging over the manifest): the last resort.
                        failpoints::disarm_all();
                        snapshot::persist_shards(&hurt_dir, shards.clone())
                            .expect("full re-ingest succeeds once the storm passes");
                        snapshot::open(&hurt_dir).expect("re-ingested store opens").into_views()
                    }
                },
            };
            failpoints::disarm_all();

            prop_assert_eq!(&healed.log, &clean.log);
            prop_assert_eq!(&healed.job, &clean.job);
            prop_assert_eq!(&healed.task, &clean.task);

            std::fs::remove_dir_all(&clean_dir).unwrap();
            std::fs::remove_dir_all(&hurt_dir).unwrap();
            prop_assert!(start.elapsed() < CEILING);
    }
}

// ---------------------------------------------------------------------------
// Journal crash-prefix recovery
// ---------------------------------------------------------------------------

/// The base snapshot for the journal tests: jobs *and* tasks, so both
/// columnar views are cached on reopen and a replayed tail splices into
/// them instead of triggering a from-scratch build.
fn journal_base_log() -> ExecutionLog {
    let mut log = small_log(16);
    for i in 0..4 {
        log.push(
            ExecutionRecord::task(format!("base_task_{i}"), format!("job_{i}"))
                .with_feature("tasktype", if i % 2 == 0 { "MAP" } else { "REDUCE" })
                .with_feature("duration", 5.0 + i as f64),
        );
    }
    log.rebuild_catalogs();
    log
}

/// One journaled append batch: a couple of jobs plus a task, with unique
/// ids per `(batch, row)` so recovered logs compare exactly.
fn journal_batch(batch: usize, rows: usize) -> Vec<ExecutionRecord> {
    (0..rows)
        .flat_map(|row| {
            let id = batch * 100 + row;
            let job = ExecutionRecord::job(format!("jl_job_{id}"))
                .with_feature("inputsize", 1.0e9 + id as f64)
                .with_feature("blocksize", if id % 2 == 0 { 1024.0 } else { 64.0 })
                .with_feature("duration", 60.0 + id as f64);
            let task = ExecutionRecord::task(format!("jl_task_{id}"), format!("jl_job_{id}"))
                .with_feature("tasktype", if id % 2 == 0 { "MAP" } else { "REDUCE" })
                .with_feature("duration", 6.0 + id as f64);
            [job, task]
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The durability invariant, attacked from the disk side: persist a
    /// base snapshot, journal K batches under `fsync = Always` (every one
    /// acked durable), then crash the journal at an arbitrary byte — cut
    /// it off (torn tail) or flip the byte (bit rot).  The reopen must
    /// never panic or error, must recover exactly the batches whose frames
    /// lie entirely before the damage, and must serve views bit-identical
    /// to a from-scratch build of the surviving records — warm, with no
    /// full rebuild.
    #[test]
    fn crash_prefixes_of_the_journal_recover_exactly_the_acked_frames(
        batches in 1usize..5,
        rows in 1usize..4,
        permille in 0u32..1001,
        flip_coin in 0u32..2,
    ) {
        let flip = flip_coin == 1;
        let _guard = serial();
        let start = Instant::now();
        failpoints::disarm_all();
        let tag = format!("jprefix_{batches}_{rows}_{permille}_{flip}");
        let dir = test_dir(&tag);

        let service = XplainService::new(journal_base_log());
        service.persist(&dir).expect("base persist");
        service
            .enable_journal(&dir, FsyncPolicy::Always)
            .expect("journal anchors on the persisted dir");

        // Append K batches; under Always every single ack is durable, and
        // the journal byte size after each ack marks that frame's end.
        let mut frame_ends = Vec::new();
        for batch in 0..batches {
            let outcome = service.append(journal_batch(batch, rows)).expect("append");
            prop_assert!(outcome.durable, "fsync=Always must ack durable");
            frame_ends.push(service.journal_stats().expect("journal enabled").bytes);
        }
        drop(service);

        // Crash: damage the journal at an arbitrary byte offset.
        let journal_path = dir.join(snapshot::JOURNAL_FILE);
        let len = std::fs::metadata(&journal_path).unwrap().len();
        let at = len * u64::from(permille) / 1000;
        if flip {
            let mut bytes = std::fs::read(&journal_path).unwrap();
            let at = (at.min(len.saturating_sub(1))) as usize;
            bytes[at] ^= 0xff;
            std::fs::write(&journal_path, &bytes).unwrap();
        } else {
            let file = std::fs::OpenOptions::new()
                .write(true)
                .open(&journal_path)
                .unwrap();
            file.set_len(at).unwrap();
        }
        // Frames whose bytes all lie strictly before the damage survive;
        // a flip at `at` wounds the frame containing that byte.
        let damage_at = if flip {
            at.min(len.saturating_sub(1))
        } else {
            at
        };
        let surviving = frame_ends.iter().filter(|end| **end <= damage_at).count();

        // The reopen replays the surviving prefix — typed truncation, no
        // panic, no error.
        let reopened = XplainService::open_snapshot(&dir).expect("crash-damaged reopen");
        let mut expected_log = journal_base_log();
        for batch in 0..surviving {
            expected_log.append(journal_batch(batch, rows));
        }
        let expected = XplainService::new(expected_log.clone());
        prop_assert_eq!(reopened.snapshot(), expected_log);
        let (recovered_job, scratch_job) =
            (reopened.view(ExecutionKind::Job), expected.view(ExecutionKind::Job));
        prop_assert_eq!(recovered_job.as_ref(), scratch_job.as_ref());
        let (recovered_task, scratch_task) =
            (reopened.view(ExecutionKind::Task), expected.view(ExecutionKind::Task));
        prop_assert_eq!(recovered_task.as_ref(), scratch_task.as_ref());
        // The replayed tail was spliced through the delta path: serving
        // the views above never paid a from-scratch rebuild.
        prop_assert_eq!(reopened.view_stats().full_rebuilds, 0);

        std::fs::remove_dir_all(&dir).unwrap();
        prop_assert!(start.elapsed() < CEILING);
    }
}

/// A failed fsync must not desync the journal: the unacknowledged frame is
/// scrubbed back off the file, the journal stays live, and the next acked
/// frame lands at the position the failed one vacated — so a crash replay
/// recovers exactly the acked batches, never resurrects the failed one,
/// and never skips an acked frame written after the fault.
#[test]
fn failed_fsync_rolls_the_frame_back_and_later_acked_frames_replay() {
    let _guard = serial();
    let start = Instant::now();
    failpoints::disarm_all();
    let dir = test_dir("jfsync_rollback");

    let service = XplainService::new(journal_base_log());
    service.persist(&dir).expect("base persist");
    service
        .enable_journal(&dir, FsyncPolicy::Always)
        .expect("journal anchors on the persisted dir");

    let first = service.append(journal_batch(0, 2)).expect("first append");
    assert!(first.durable);
    let bytes_after_first = service.journal_stats().expect("journal enabled").bytes;

    // A hard (non-transient) fsync fault: the append errors, nothing is
    // acknowledged, and the frame is rolled back off the file.
    failpoints::script(
        "journal.fsync",
        &[Action::IoError(ErrorKind::PermissionDenied)],
    );
    service
        .append(journal_batch(1, 2))
        .expect_err("fsync fault must fail the append");
    failpoints::disarm_all();
    let stats = service.journal_stats().expect("journal stays active");
    assert_eq!(
        stats.bytes, bytes_after_first,
        "the unacknowledged frame must be scrubbed off the journal"
    );

    // The journal is still live: the next batch acks durable into the
    // vacated position.
    let third = service
        .append(journal_batch(2, 2))
        .expect("appends keep working after the fault");
    assert!(third.durable);
    drop(service);

    // Crash replay recovers exactly the acked batches: batch 1 (failed,
    // never acked) must not resurrect, batch 2 (acked durable after the
    // fault) must not be shadowed or dropped.
    let reopened = XplainService::open_snapshot(&dir).expect("reopen");
    let mut expected = journal_base_log();
    expected.append(journal_batch(0, 2));
    expected.append(journal_batch(2, 2));
    assert_eq!(reopened.snapshot(), expected);

    std::fs::remove_dir_all(&dir).unwrap();
    assert!(start.elapsed() < CEILING);
}

/// A checkpoint whose journal-rotation swap fails *after* the manifest
/// committed must deactivate journaling: the commit already unlinked the
/// old `journal.bin`, so a handle stuck on the old inode would keep acking
/// "durable" frames recovery could never find.
#[test]
fn failed_rotation_swap_deactivates_journaling_instead_of_lying() {
    let _guard = serial();
    let start = Instant::now();
    failpoints::disarm_all();
    let dir = test_dir("jrotate_swap");

    let service = XplainService::new(journal_base_log());
    service.persist(&dir).expect("base persist");
    service
        .enable_journal(&dir, FsyncPolicy::Always)
        .expect("journal anchors on the persisted dir");
    service.append(journal_batch(0, 2)).expect("append");

    // `journal.write` fires once in begin_rotation (staging the next
    // generation: pass) and once in commit_rotation (the rename after the
    // manifest committed: fail hard).
    failpoints::script(
        "journal.write",
        &[Action::Pass, Action::IoError(ErrorKind::PermissionDenied)],
    );
    service
        .checkpoint(&dir)
        .expect_err("the failed swap must surface");
    failpoints::disarm_all();

    // Journaling deactivated: appends keep working but no longer claim a
    // durability they cannot deliver.
    assert!(service.journal_stats().is_none());
    let outcome = service
        .append(journal_batch(1, 2))
        .expect("appends continue un-journaled");
    assert!(!outcome.durable);

    // And the committed checkpoint is intact on disk.
    let reopened = XplainService::open_snapshot(&dir).expect("reopen");
    let mut expected = journal_base_log();
    expected.append(journal_batch(0, 2));
    assert_eq!(reopened.snapshot(), expected);

    std::fs::remove_dir_all(&dir).unwrap();
    assert!(start.elapsed() < CEILING);
}

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

#[test]
fn panicking_pool_jobs_are_requeued_and_latches_settle() {
    let _guard = serial();
    let start = Instant::now();
    failpoints::disarm_all();
    let pool = perfxplain::mlcore::pool::WorkerPool::new(2);

    // Three injected panics strike three dequeues; the struck jobs are
    // requeued, so every chunk still lands and the latch settles.
    failpoints::script("pool.job", &[Action::Panic, Action::Panic, Action::Panic]);
    let items: Vec<u64> = (0..64).collect();
    let sums = pool.map_chunks(&items, 8, |chunk| chunk.iter().sum::<u64>());
    assert_eq!(sums.len(), 8);
    assert_eq!(sums.iter().sum::<u64>(), 64 * 63 / 2);
    assert!(
        failpoints::hits("pool.job") >= 8 + 3,
        "8 jobs plus 3 requeued retries, saw {}",
        failpoints::hits("pool.job")
    );

    // The pool is fully serviceable afterwards — no worker died.
    let again = pool.map_chunks(&items, 4, |chunk| chunk.len());
    assert_eq!(again.iter().sum::<usize>(), 64);

    failpoints::disarm_all();
    assert!(start.elapsed() < CEILING);
}

// ---------------------------------------------------------------------------
// Server sockets
// ---------------------------------------------------------------------------

#[test]
fn server_connections_ride_through_transient_socket_faults() {
    let _guard = serial();
    let start = Instant::now();
    failpoints::disarm_all();
    let service = Arc::new(XplainService::new(small_log(200)));
    let handle = spawn(
        Arc::clone(&service),
        ServerConfig {
            scheduler: SchedulerConfig::default(),
            workers: 2,
            default_timeout: Some(Duration::from_secs(60)),
            ..ServerConfig::default()
        },
    )
    .expect("server binds");
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).expect("client connects");

    // A transient read fault leaves the frame in the socket buffer and a
    // transient write fault leaves the response queued: the next poll tick
    // completes both and the client never notices.
    failpoints::script("server.read", &[Action::IoError(ErrorKind::Interrupted)]);
    failpoints::script("server.write", &[Action::IoError(ErrorKind::WouldBlock)]);
    let probe = WireRequest {
        id: Some(1),
        target: Some("status".to_string()),
        ..WireRequest::default()
    };
    let status = client.call(&probe).expect("answered through the faults");
    assert!(status.is_ok(), "{status:?}");
    assert_eq!(status.queue_depth, Some(0));
    assert!(failpoints::hits("server.read") >= 1);
    assert!(failpoints::hits("server.write") >= 1);

    // A hard accept fault skips one tick of accepts; the listener stays
    // readable, so the very next tick lets the connection in.
    failpoints::script(
        "server.accept",
        &[Action::IoError(ErrorKind::ConnectionAborted)],
    );
    let mut second = Client::connect(&addr).expect("second client connects");
    let probe2 = WireRequest {
        id: Some(2),
        target: Some("status".to_string()),
        ..WireRequest::default()
    };
    let status2 = second.call(&probe2).expect("accepted on the next tick");
    assert!(status2.is_ok(), "{status2:?}");
    assert!(failpoints::hits("server.accept") >= 1);

    // And the first connection is still alive.
    let status3 = client.call(&probe).expect("original connection survives");
    assert!(status3.is_ok(), "{status3:?}");

    failpoints::disarm_all();
    drop(handle);
    assert!(start.elapsed() < CEILING);
}

// ---------------------------------------------------------------------------
// Wiring audit
// ---------------------------------------------------------------------------

/// Every documented snapshot site actually fires during a persist →
/// journal → corrupt → salvage round trip — a site that silently un-wires
/// would turn the rest of this suite into a no-op.
#[test]
fn every_snapshot_failpoint_site_is_wired() {
    let _guard = serial();
    let start = Instant::now();
    failpoints::disarm_all();
    let dir = test_dir("wired");
    snapshot::persist_shards(&dir, chaos_shards()).unwrap();
    snapshot::open(&dir).unwrap();

    // Exercise the journal sites: an fsynced append (journal.write +
    // journal.fsync), a checkpoint rotation (journal.write), and a reopen
    // that replays the journal (journal.replay).
    let service = XplainService::open_snapshot(&dir).unwrap();
    service.enable_journal(&dir, FsyncPolicy::Always).unwrap();
    service.append(journal_batch(0, 1)).unwrap();
    service.checkpoint(&dir).unwrap();
    drop(service);
    XplainService::open_snapshot(&dir).unwrap();

    // Damage one segment so the salvage path (and its quarantine rename)
    // runs too.
    let manifest = snapshot::SnapshotManifest::load(&dir).unwrap();
    let victim = dir.join(&manifest.shards[0].file);
    let mut bytes = std::fs::read(&victim).unwrap();
    bytes[0] ^= 0xff;
    std::fs::write(&victim, &bytes).unwrap();
    snapshot::open_salvage(&dir).unwrap();

    let hit: BTreeSet<String> = failpoints::sites_hit()
        .into_iter()
        .map(|(site, _)| site)
        .collect();
    for site in [
        "snapshot.dir.create",
        "snapshot.manifest.write",
        "snapshot.manifest.rename",
        "snapshot.manifest.read",
        "snapshot.segment.write",
        "snapshot.segment.read",
        "snapshot.segment.decode",
        "snapshot.segment.quarantine",
        "journal.write",
        "journal.fsync",
        "journal.replay",
    ] {
        assert!(hit.contains(site), "failpoint '{site}' never triggered");
    }

    failpoints::disarm_all();
    assert!(start.elapsed() < CEILING);
    std::fs::remove_dir_all(&dir).unwrap();
}
