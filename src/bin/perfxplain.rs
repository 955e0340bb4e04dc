//! The PerfXplain command-line tool.
//!
//! ```text
//! perfxplain simulate --preset small --seed 42 --out log.json
//!     Run the Table-2 workload sweep on the simulated cluster, collect the
//!     Hadoop/Ganglia logs and store the resulting execution log as JSON.
//!
//! perfxplain ingest --bundles <dir> [--out log.json] [--shards N]
//!                   [--snapshot <dir>]
//!     Ingest a directory of on-disk job log bundles (one directory per job
//!     containing job_history.log, job.xml, ganglia.csv) into an execution
//!     log.  Bundles are split into shards parsed on concurrent threads
//!     (default: one shard per core) and merged into a log identical to a
//!     serial ingest.  With --snapshot the result is persisted as a
//!     segmented binary snapshot, **incrementally**: each shard's bundles
//!     are fingerprinted and shards whose fingerprint still matches the
//!     snapshot's manifest are neither re-parsed nor re-encoded — only the
//!     dirty shards are.  Reports rows ingested, shards parsed vs skipped,
//!     and wall-clock per phase (parse / encode / persist).
//!
//! perfxplain snapshot save --log log.json --snapshot <dir> [--shards N]
//!     Convert a JSON execution log into a segmented binary snapshot
//!     (per-shard column segments + fingerprinted manifest).
//!
//! perfxplain snapshot open --snapshot <dir> [--out log.json]
//!     Open a snapshot: verify every shard fingerprint, reassemble the log
//!     and both columnar views from the stored binary columns (no JSON, no
//!     re-encode), replay the append journal's un-checkpointed tail, print
//!     per-phase timings; optionally write the log back out as JSON.
//!
//! perfxplain snapshot verify --snapshot <dir>
//!     Fingerprint-check every segment without building any views: print
//!     per-shard health, audit the append journal's frame checksums when
//!     one is present, and exit non-zero if any shard or the journal is
//!     damaged.  Never modifies the store — quarantining happens only on
//!     salvage opens, torn-tail truncation only on real opens.
//!
//! perfxplain inspect --log log.json
//!     Summarise an execution log: jobs, tasks, features, durations.
//!
//! perfxplain queries --log log.json
//!     Find the paper's two canonical queries (WhyLastTaskFaster,
//!     WhySlowerDespiteSameNumInstances) in the log and print them together
//!     with their pairs of interest.
//!
//! perfxplain explain --log log.json --query query.pxql [--left ID --right ID]
//!                    [--width N] [--auto-despite] [--narrate] [--compare]
//!     Answer a PXQL query: generate an explanation (optionally extending
//!     the despite clause automatically), print it, score it, and optionally
//!     narrate it in plain English or compare against the baselines.
//!
//! perfxplain batch --log log.json --queries queries.pxqlb
//!                  [--width N] [--auto-despite] [--narrate] [--par]
//!     Answer a whole file of PXQL queries (one per line, `#` comments and
//!     blank lines ignored; each line needs literal WHERE bindings) through
//!     one long-lived XplainService, printing per-query timing so the
//!     columnar-view reuse is visible.  `--par` answers the batch across
//!     threads instead of serially.
//!
//! perfxplain serve --log log.json | --snapshot <dir>
//!                  [--addr HOST:PORT] [--workers N] [--budget UNITS]
//!                  [--queue N] [--session-inflight N] [--session-pending N]
//!                  [--timeout-ms MS] [--width N] [--checkpoint <dir>]
//!                  [--fsync always|every:N|oncheckpoint] [--drain-ms MS]
//!                  [--allow-remote-shutdown]
//!     Serve the log over the line-delimited JSON protocol: a non-blocking
//!     TCP event loop in front of a bounded worker pool with cost-based
//!     admission control (requests whose estimated cost does not fit the
//!     concurrent budget queue in a bounded FIFO; beyond that, load is shed
//!     with typed 429 responses).  `--timeout-ms 0` disables the default
//!     per-request deadline.  With --checkpoint the server persists the
//!     served log to a snapshot directory whenever records have been
//!     appended since the last checkpoint — incrementally: clean base
//!     shards are kept as-is and only the live tail is encoded, so a
//!     serving process checkpoints without a stop-the-world re-encode.
//!     With --fsync the checkpoint directory additionally carries a
//!     write-ahead append journal: every wire append is framed and
//!     checksummed into journal.bin before it is acknowledged, so a crash
//!     between checkpoints loses nothing that was acked durable.  On
//!     SIGINT/SIGTERM (or a `shutdown` admin frame) the server drains
//!     gracefully — stops accepting, finishes in-flight requests within
//!     --drain-ms (default 5000), then takes a final checkpoint and fsyncs
//!     the journal before exiting.  The `shutdown` frame is honored only
//!     from loopback connections unless --allow-remote-shutdown is set.
//!
//! perfxplain append --addr HOST:PORT --log records.json
//!     Append the records of a JSON execution log to a *running* server
//!     over the wire.  The server extends its log in place and
//!     delta-maintains the cached columnar views (the next query pays an
//!     O(tail) refresh, not a rebuild), so serving continues uninterrupted.
//!     Reports whether the whole drive was acknowledged durable (fsynced
//!     into the server's append journal before each ack).
//!
//! perfxplain load --addr HOST:PORT --left ID --right ID
//!                 [--connections N] [--requests N] [--query FILE.pxql]
//!                 [--query-text "..."] [--timeout-ms MS]
//!     Drive a workload against a running server, closed loop per
//!     connection: N concurrent connections each sending its next request
//!     for the given pair once the previous reply arrives, reporting qps,
//!     p50/p99 latency and how much load was shed.
//! ```
//!
//! The query file contains a PXQL query; if its `WHERE` clause uses `?`
//! placeholders the pair of interest must be supplied with `--left`/`--right`.

use perfxplain::prelude::*;
use perfxplain::{
    assess, generate_explanation, prepare_encoded_training, BoundQuery, ExecutionLog, QueryRequest,
    XplainService,
};
use std::collections::BTreeMap;
use std::process::exit;
use std::time::Instant;

fn fail(message: &str) -> ! {
    eprintln!("error: {message}");
    exit(1);
}

/// Minimal `--flag value` / `--switch` argument parser.
struct Args {
    values: BTreeMap<String, String>,
    switches: Vec<String>,
}

impl Args {
    fn parse(raw: &[String]) -> Self {
        let mut values = BTreeMap::new();
        let mut switches = Vec::new();
        let mut i = 0;
        while i < raw.len() {
            let arg = &raw[i];
            if let Some(name) = arg.strip_prefix("--") {
                let takes_value = matches!(
                    name,
                    "preset"
                        | "seed"
                        | "out"
                        | "log"
                        | "query"
                        | "query-text"
                        | "queries"
                        | "left"
                        | "right"
                        | "width"
                        | "bundles"
                        | "shards"
                        | "snapshot"
                        | "addr"
                        | "workers"
                        | "budget"
                        | "queue"
                        | "session-inflight"
                        | "session-pending"
                        | "timeout-ms"
                        | "connections"
                        | "requests"
                        | "checkpoint"
                        | "fsync"
                        | "drain-ms"
                );
                if takes_value {
                    let value = raw.get(i + 1).unwrap_or_else(|| {
                        fail(&format!("--{name} expects a value"));
                    });
                    values.insert(name.to_string(), value.clone());
                    i += 1;
                } else {
                    switches.push(name.to_string());
                }
            } else {
                fail(&format!("unexpected argument '{arg}'"));
            }
            i += 1;
        }
        Args { values, switches }
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }
}

fn load_log(args: &Args) -> ExecutionLog {
    let path = args
        .get("log")
        .unwrap_or_else(|| fail("--log <file.json> is required"));
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    ExecutionLog::from_json(&text).unwrap_or_else(|e| fail(&format!("cannot parse {path}: {e}")))
}

fn preset_from(args: &Args) -> LogPreset {
    match args.get("preset").unwrap_or("small") {
        "tiny" => LogPreset::Tiny,
        "small" => LogPreset::Small,
        "paper" => LogPreset::PaperGrid,
        other => fail(&format!(
            "unknown preset '{other}' (expected tiny|small|paper)"
        )),
    }
}

fn seed_from(args: &Args) -> u64 {
    args.get("seed")
        .map(|s| {
            s.parse()
                .unwrap_or_else(|_| fail("--seed expects a number"))
        })
        .unwrap_or(42)
}

fn cmd_simulate(args: &Args) {
    let preset = preset_from(args);
    let seed = seed_from(args);
    let out = args.get("out").unwrap_or("perfxplain-log.json");
    eprintln!("simulating the {preset:?} workload (seed {seed})...");
    let log = build_execution_log(preset, seed);
    let json = log.to_json().unwrap_or_else(|e| fail(&e.to_string()));
    std::fs::write(out, json).unwrap_or_else(|e| fail(&format!("cannot write {out}: {e}")));
    println!(
        "wrote {} jobs and {} tasks to {out}",
        log.jobs().count(),
        log.tasks().count()
    );
}

/// Formats a duration in milliseconds for the per-phase ingest report.
fn ms(seconds: f64) -> String {
    format!("{:.1} ms", seconds * 1e3)
}

/// Formats a byte count with a binary-prefix unit for the size report.
fn size(bytes: u64) -> String {
    const UNITS: [&str; 4] = ["B", "KiB", "MiB", "GiB"];
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit + 1 < UNITS.len() {
        value /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{value:.1} {}", UNITS[unit])
    }
}

/// Prints the on-disk byte accounting of a snapshot: bytes per block kind
/// and the overall compression ratio against the raw fixed-width (v1)
/// encoding of the same data.
fn report_snapshot_size(manifest: &perfxplain::SnapshotManifest) {
    let usage = manifest.usage();
    println!(
        "  size    : {:>10}  (records {}, job columns {}, task columns {}; {:.2}x vs raw)",
        size(usage.total_bytes),
        size(usage.records_bytes),
        size(usage.job_bytes),
        size(usage.task_bytes),
        usage.compression_ratio()
    );
}

fn shards_from(args: &Args) -> Option<usize> {
    args.get("shards").map(|raw| {
        raw.parse::<usize>()
            .ok()
            .filter(|&s| s >= 1)
            .unwrap_or_else(|| fail("--shards expects a positive number"))
    })
}

fn cmd_ingest(args: &Args) {
    let root = args
        .get("bundles")
        .unwrap_or_else(|| fail("--bundles <dir> is required"));
    let bundles = JobLogBundle::read_all(std::path::Path::new(root))
        .unwrap_or_else(|e| fail(&format!("cannot read bundles under {root}: {e}")));
    if bundles.is_empty() {
        fail(&format!("{root} contains no job log bundles"));
    }
    match args.get("snapshot") {
        Some(dir) => ingest_into_snapshot(args, &bundles, std::path::Path::new(dir)),
        None => ingest_to_json(args, &bundles),
    }
}

/// The legacy path: parse every bundle (sharded) and write the log as JSON.
fn ingest_to_json(args: &Args, bundles: &[JobLogBundle]) {
    let out = args.get("out").unwrap_or("perfxplain-log.json");
    let shards = shards_from(args).unwrap_or_else(perfxplain::shard::hardware_threads);
    eprintln!(
        "ingesting {} bundles across {shards} shard(s)...",
        bundles.len()
    );
    let parse_started = Instant::now();
    let log = collect_bundles_sharded(bundles, shards)
        .unwrap_or_else(|e| fail(&format!("cannot parse bundles: {e}")));
    let parse_secs = parse_started.elapsed().as_secs_f64();

    let persist_started = Instant::now();
    let json = log.to_json().unwrap_or_else(|e| fail(&e.to_string()));
    std::fs::write(out, json).unwrap_or_else(|e| fail(&format!("cannot write {out}: {e}")));
    let persist_secs = persist_started.elapsed().as_secs_f64();

    println!(
        "  parse   : {:>10}  ({shards} shard(s) parsed)",
        ms(parse_secs)
    );
    println!("  persist : {:>10}  (JSON {out})", ms(persist_secs));
    println!(
        "ingested {} rows ({} jobs, {} tasks) into {out}",
        log.len(),
        log.jobs().count(),
        log.tasks().count()
    );
}

/// The snapshot path: fingerprint each shard of bundles, parse only the
/// shards the snapshot does not already hold, and re-encode only those.
fn ingest_into_snapshot(args: &Args, bundles: &[JobLogBundle], dir: &std::path::Path) {
    use perfxplain::snapshot::{self, RecordShard, ShardInput, SnapshotManifest, SyncReport};

    // Shard count: an explicit --shards wins; otherwise stick to the
    // existing snapshot's layout so fingerprints stay comparable; a fresh
    // directory defaults to one shard per core.
    let existing = match SnapshotManifest::load(dir) {
        Ok(manifest) => Some(manifest),
        // No manifest at all — a fresh directory, nothing to warn about.
        Err(perfxplain::CoreError::SnapshotIo { .. }) => None,
        // Version skew or corruption: the store exists but cannot be
        // reused incrementally.  Warn and fall back to a full re-ingest
        // over the same directory instead of dying.
        Err(err) => {
            eprintln!("warning: existing snapshot is unusable ({err}); re-ingesting everything");
            None
        }
    };
    let shards = shards_from(args)
        .or_else(|| existing.as_ref().map(|m| m.shards.len()))
        .unwrap_or_else(perfxplain::shard::hardware_threads)
        .max(1);
    let chunk_size = bundles.len().div_ceil(shards).max(1);
    let chunks: Vec<&[JobLogBundle]> = bundles.chunks(chunk_size).collect();
    let fingerprints: Vec<u64> = chunks
        .iter()
        .map(|chunk| snapshot::combine_fingerprints(chunk.iter().map(JobLogBundle::fingerprint)))
        .collect();

    // Decide per shard: reuse or parse.  A usable manifest must match the
    // chunk layout; otherwise everything is parsed fresh.
    let reusable = existing
        .as_ref()
        .map(|m| m.shards.len() == chunks.len())
        .unwrap_or(false);
    eprintln!(
        "ingesting {} bundles across {} shard(s) into snapshot {}...",
        bundles.len(),
        chunks.len(),
        dir.display()
    );

    let parse_started = Instant::now();
    // Parses the dirty shards on the shared worker pool (one chunk per
    // pool thread) and interleaves the results with the
    // clean shards' reuse claims.  `damaged` adds shard indices that must
    // be re-parsed regardless of their source fingerprint (the salvage
    // path: their on-disk segments are quarantined).
    let build_inputs =
        |parse_all: bool, damaged: &[usize]| -> Result<(Vec<ShardInput>, usize), String> {
            let dirty: Vec<usize> = (0..chunks.len())
                .filter(|&i| {
                    parse_all
                        || !reusable
                        || damaged.contains(&i)
                        || existing.as_ref().unwrap().shards[i].source_fingerprint
                            != Some(fingerprints[i])
                })
                .collect();
            type ParsedShard = (usize, Vec<perfxplain::ExecutionRecord>);
            let pool = perfxplain::mlcore::pool::shared();
            let parsed: Result<Vec<Vec<ParsedShard>>, String> = pool
                .map_chunks(&dirty, pool.threads(), |group| {
                    group
                        .iter()
                        .map(|&i| {
                            perfxplain::prelude::collect_bundles(chunks[i])
                                .map(|log| (i, log.records().to_vec()))
                                .map_err(|e| e.to_string())
                        })
                        .collect()
                })
                .into_iter()
                .collect();
            let mut parsed: BTreeMap<usize, Vec<perfxplain::ExecutionRecord>> =
                parsed?.into_iter().flatten().collect();
            let inputs = (0..chunks.len())
                .map(|i| match parsed.remove(&i) {
                    Some(records) => ShardInput::Fresh(RecordShard {
                        records,
                        source_fingerprint: Some(fingerprints[i]),
                    }),
                    None => ShardInput::Unchanged {
                        source_fingerprint: fingerprints[i],
                    },
                })
                .collect();
            Ok((inputs, dirty.len()))
        };

    // Full (non-incremental) write: every input is Fresh by construction.
    let persist_all = |inputs: Vec<ShardInput>| -> SyncReport {
        let shards: Vec<RecordShard> = inputs
            .into_iter()
            .map(|input| match input {
                ShardInput::Fresh(shard) => shard,
                ShardInput::Unchanged { .. } | ShardInput::Keep => {
                    unreachable!("full parse is all fresh")
                }
            })
            .collect();
        snapshot::persist_shards(dir, shards).unwrap_or_else(|e| fail(&e.to_string()))
    };

    let (inputs, mut shards_parsed) = build_inputs(!reusable, &[])
        .unwrap_or_else(|e| fail(&format!("cannot parse bundles: {e}")));
    let mut parse_secs = parse_started.elapsed().as_secs_f64();

    // Re-parses and re-syncs after a failure, parsing the union of the
    // fingerprint-dirty shards and `damaged`; `parse_all` rebuilds from
    // scratch.  Returns None when the retried sync also fails.
    let resync = |parse_all: bool,
                  damaged: &[usize],
                  shards_parsed: &mut usize,
                  parse_secs: &mut f64|
     -> Option<SyncReport> {
        let reparse_started = Instant::now();
        let (inputs, parsed) = build_inputs(parse_all, damaged)
            .unwrap_or_else(|e| fail(&format!("cannot parse bundles: {e}")));
        *shards_parsed = parsed;
        *parse_secs += reparse_started.elapsed().as_secs_f64();
        if parse_all {
            Some(persist_all(inputs))
        } else {
            snapshot::sync(dir, inputs).ok()
        }
    };

    let report: SyncReport = if reusable {
        match snapshot::sync(dir, inputs) {
            Ok(report) => report,
            Err(err) => {
                // Recovery is layered (see perfxplain::snapshot): salvage
                // the store first — quarantine the damaged segments and
                // re-parse *only* the shards they covered — and fall back
                // to a full re-ingest over the same directory only when
                // even salvage cannot tell which shards are healthy.
                let salvaged = snapshot::open_salvage(dir)
                    .ok()
                    .filter(|partial| !partial.damaged_indices().is_empty())
                    .and_then(|partial| {
                        let damaged = partial.damaged_indices();
                        eprintln!(
                            "warning: incremental sync failed ({err}); quarantined {} damaged \
                             shard(s), re-encoding only those",
                            damaged.len()
                        );
                        drop(partial);
                        resync(false, &damaged, &mut shards_parsed, &mut parse_secs)
                    });
                match salvaged {
                    Some(report) => report,
                    None => {
                        eprintln!(
                            "warning: incremental sync failed ({err}); re-ingesting everything"
                        );
                        resync(true, &[], &mut shards_parsed, &mut parse_secs)
                            .expect("full persist cannot fail to sync")
                    }
                }
            }
        }
    } else {
        persist_all(inputs)
    };

    println!(
        "  parse   : {:>10}  ({shards_parsed} shard(s) parsed, {} clean skipped)",
        ms(parse_secs),
        chunks.len() - shards_parsed
    );
    println!(
        "  encode  : {:>10}  ({} segment(s) re-encoded{})",
        ms(report.encode_seconds),
        report.shards_encoded,
        if report.catalog_changed {
            ", catalog changed"
        } else {
            ""
        }
    );
    println!(
        "  persist : {:>10}  (snapshot {}, {} shard(s))",
        ms(report.write_seconds),
        dir.display(),
        report.manifest.shards.len()
    );
    report_snapshot_size(&report.manifest);
    println!(
        "ingested {} rows: {} shard(s) re-encoded, {} served from disk",
        report.rows, report.shards_encoded, report.shards_reused
    );

    // An explicit --out alongside --snapshot also writes the JSON form.
    if let Some(out) = args.get("out") {
        let log = snapshot::open(dir)
            .unwrap_or_else(|e| fail(&e.to_string()))
            .to_log();
        let json = log.to_json().unwrap_or_else(|e| fail(&e.to_string()));
        std::fs::write(out, json).unwrap_or_else(|e| fail(&format!("cannot write {out}: {e}")));
        println!("also wrote the JSON form to {out}");
    }
}

/// `snapshot save` / `snapshot open`.
fn cmd_snapshot(action: &str, args: &Args) {
    use perfxplain::{snapshot, ExecutionKind};

    let dir = args
        .get("snapshot")
        .map(std::path::Path::new)
        .unwrap_or_else(|| fail("--snapshot <dir> is required"));
    match action {
        "save" => {
            let log = load_log(args);
            let shards = shards_from(args).unwrap_or_else(perfxplain::shard::hardware_threads);
            let report =
                snapshot::persist(&log, dir, shards).unwrap_or_else(|e| fail(&e.to_string()));
            println!(
                "  encode  : {:>10}  ({} segment(s))",
                ms(report.encode_seconds),
                report.shards_encoded
            );
            println!(
                "  persist : {:>10}  (snapshot {})",
                ms(report.write_seconds),
                dir.display()
            );
            report_snapshot_size(&report.manifest);
            println!(
                "saved {} rows as {} shard(s) under {}",
                report.rows,
                report.manifest.shards.len(),
                dir.display()
            );
        }
        "open" => {
            let open_started = Instant::now();
            let snap = snapshot::open(dir).unwrap_or_else(|e| fail(&e.to_string()));
            let open_secs = open_started.elapsed().as_secs_f64();
            let shard_count = snap.shards().len();
            let usage_manifest = snap.manifest().clone();

            let assemble_started = Instant::now();
            let perfxplain::SnapshotViews {
                mut log,
                job: job_view,
                task: task_view,
            } = snap.into_views();
            let assemble_secs = assemble_started.elapsed().as_secs_f64();

            // Replay the append journal, if one is present: acked batches
            // the last checkpoint missed belong to the log the user asked
            // to open, exactly as a restarted service replays them.
            let mut replay = snapshot::read_journal(dir).unwrap_or_else(|e| fail(&e.to_string()));
            let checkpointed_rows = log.len();
            replay.apply(&mut log);
            let replayed_rows = log.len() - checkpointed_rows;

            println!(
                "  open    : {:>10}  ({} shard(s), fingerprints verified)",
                ms(open_secs),
                shard_count
            );
            println!(
                "  views   : {:>10}  (columns adopted from the decoded segments, no copy)",
                ms(assemble_secs)
            );
            if replayed_rows > 0 {
                println!(
                    "  journal : {} acked row(s) replayed past the last checkpoint{}",
                    replayed_rows,
                    if replay.frames_truncated > 0 {
                        " (torn tail truncated)"
                    } else {
                        ""
                    }
                );
            }
            report_snapshot_size(&usage_manifest);
            // Per-kind counts come from the replayed log, not the decoded
            // views — journal rows are part of the opened log even though
            // the snapshot's cached views predate them.
            debug_assert!(job_view.num_rows() <= log.rows_of_kind(ExecutionKind::Job));
            debug_assert!(task_view.num_rows() <= log.rows_of_kind(ExecutionKind::Task));
            println!(
                "opened {} rows ({} jobs / {} job features, {} tasks / {} task features)",
                log.len(),
                log.rows_of_kind(ExecutionKind::Job),
                log.job_catalog().len(),
                log.rows_of_kind(ExecutionKind::Task),
                log.task_catalog().len()
            );
            if let Some(out) = args.get("out") {
                let json = log.to_json().unwrap_or_else(|e| fail(&e.to_string()));
                std::fs::write(out, json)
                    .unwrap_or_else(|e| fail(&format!("cannot write {out}: {e}")));
                println!("wrote the JSON form to {out}");
            }
        }
        "verify" => {
            let verify_started = Instant::now();
            let health = snapshot::verify(dir).unwrap_or_else(|e| fail(&e.to_string()));
            let verify_secs = verify_started.elapsed().as_secs_f64();
            let mut damaged = 0usize;
            for shard in &health {
                match &shard.error {
                    None => println!(
                        "  shard {:>3}: ok       {} ({} rows)",
                        shard.index, shard.file, shard.rows
                    ),
                    Some(err) => {
                        damaged += 1;
                        println!(
                            "  shard {:>3}: DAMAGED  {} ({err})",
                            shard.index, shard.file
                        );
                    }
                }
            }
            // The append journal rides along in the same directory; audit
            // its frame checksums too (read-only — truncation of a torn
            // tail happens only on a real open).
            let journal = perfxplain::verify_journal(dir).unwrap_or_else(|e| fail(&e.to_string()));
            let journal_damaged = !journal.is_healthy();
            if journal.present {
                match &journal.damage {
                    None => println!(
                        "  journal  : ok       {} byte(s), {} frame(s), {} record(s)",
                        journal.bytes, journal.frames, journal.records
                    ),
                    Some(damage) => println!(
                        "  journal  : DAMAGED  {} clean frame(s) then: {damage}",
                        journal.frames
                    ),
                }
            } else {
                println!("  journal  : absent   (snapshot runs unjournaled)");
            }
            println!(
                "  verify  : {:>10}  ({} shard(s), fingerprints checked, no views built)",
                ms(verify_secs),
                health.len()
            );
            if damaged > 0 || journal_damaged {
                if damaged > 0 {
                    eprintln!(
                        "{damaged} of {} shard(s) damaged; a salvage open would quarantine them",
                        health.len()
                    );
                }
                if journal_damaged {
                    eprintln!(
                        "the append journal is damaged; an open would truncate it to the last \
                         clean frame"
                    );
                }
                exit(1);
            }
            println!("all {} shard(s) healthy", health.len());
        }
        other => fail(&format!(
            "unknown snapshot action '{other}' (save|open|verify)"
        )),
    }
}

fn cmd_inspect(args: &Args) {
    let log = load_log(args);
    let durations: Vec<f64> = log.jobs().filter_map(|j| j.duration()).collect();
    let mean = if durations.is_empty() {
        0.0
    } else {
        durations.iter().sum::<f64>() / durations.len() as f64
    };
    println!("jobs          : {}", log.jobs().count());
    println!("tasks         : {}", log.tasks().count());
    println!("job features  : {}", log.job_catalog().len());
    println!("task features : {}", log.task_catalog().len());
    println!("mean job time : {mean:.1} s");
    let mut scripts: BTreeMap<String, usize> = BTreeMap::new();
    for job in log.jobs() {
        let script = job
            .feature("pigscript")
            .as_str()
            .unwrap_or("unknown")
            .to_string();
        *scripts.entry(script).or_default() += 1;
    }
    for (script, count) in scripts {
        println!("  {script}: {count} jobs");
    }
}

fn cmd_queries(args: &Args) {
    let log = load_log(args);
    match why_slower_despite_same_num_instances(&log) {
        Some(binding) => println!(
            "{}:\n{}\n",
            binding.name,
            binding.bound.query.clone().with_pair(
                binding.bound.left_id.clone(),
                binding.bound.right_id.clone()
            )
        ),
        None => {
            println!("WhySlowerDespiteSameNumInstances: no suitable pair of jobs in this log\n")
        }
    }
    match why_last_task_faster(&log) {
        Some(binding) => println!(
            "{}:\n{}",
            binding.name,
            binding.bound.query.clone().with_pair(
                binding.bound.left_id.clone(),
                binding.bound.right_id.clone()
            )
        ),
        None => println!("WhyLastTaskFaster: no suitable pair of tasks in this log"),
    }
}

fn config_from(args: &Args) -> ExplainConfig {
    let mut config = ExplainConfig::default();
    if let Some(width) = args.get("width") {
        config.width = width
            .parse()
            .unwrap_or_else(|_| fail("--width expects a number"));
    }
    config
}

fn cmd_explain(args: &Args) {
    let log = load_log(args);
    let query_text = if let Some(path) = args.get("query") {
        std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(&format!("cannot read query file {path}: {e}")))
    } else if let Some(text) = args.get("query-text") {
        text.to_string()
    } else {
        fail("--query <file> or --query-text \"...\" is required");
    };

    // The query is parsed here only so that `--compare` can rebuild the
    // user's *original* bound query later; the service call itself replaces
    // the old parse → bind → explain → assess → narrate choreography.
    let parsed = parse_query(&query_text).unwrap_or_else(|e| fail(&format!("invalid PXQL: {e}")));
    let config = config_from(args);
    let mut request = QueryRequest::parsed(parsed.clone()).with_assessment();
    if let (Some(left), Some(right)) = (args.get("left"), args.get("right")) {
        request = request.with_pair(left, right);
    } else if matches!(parsed.left_binding, pxql::PairBinding::Placeholder)
        || matches!(parsed.right_binding, pxql::PairBinding::Placeholder)
    {
        fail("the query uses '?' placeholders; pass --left and --right");
    }
    if args.has("auto-despite") {
        request = request.with_despite_extension();
    }
    if args.has("narrate") {
        request = request.with_narration();
    }

    let service = XplainService::with_config(log, config.clone());
    let outcome = service
        .explain(&request)
        .unwrap_or_else(|e| fail(&e.to_string()));

    println!("{}\n", outcome.explanation);
    if let Some(narration) = &outcome.narration {
        println!("{narration}\n");
    }
    let quality = outcome.quality.expect("assessment was requested");
    println!(
        "quality over the related pairs: precision {:.2}, generality {:.2}, relevance {:.2}",
        quality.precision.unwrap_or(f64::NAN),
        quality.generality.unwrap_or(f64::NAN),
        quality.relevance.unwrap_or(f64::NAN)
    );

    if args.has("compare") {
        // Baselines answer the user's original query (not the
        // despite-extended one), scored over its related pairs; the pair of
        // interest is the one the service resolved.
        let bound = BoundQuery::new(
            parsed,
            outcome.query.left_id.clone(),
            outcome.query.right_id.clone(),
        );
        service.with_log(|log| {
            let related = prepare_encoded_training(log, &bound, &config)
                .unwrap_or_else(|e| fail(&e.to_string()));
            println!("\nbaselines:");
            for technique in [Technique::RuleOfThumb, Technique::SimButDiff] {
                match generate_explanation(technique, log, &bound, &config) {
                    Ok(explanation) => {
                        let quality = assess(&related, &explanation);
                        println!(
                            "  {technique:<12} precision {:.2}, generality {:.2}  ({})",
                            quality.precision.unwrap_or(f64::NAN),
                            quality.generality.unwrap_or(f64::NAN),
                            explanation.because
                        );
                    }
                    Err(err) => println!("  {technique:<12} failed: {err}"),
                }
            }
        });
    }
}

/// Answers a file of PXQL queries through one long-lived service, printing
/// per-query timing so the columnar-view reuse is visible.
fn cmd_batch(args: &Args) {
    let log = load_log(args);
    let path = args
        .get("queries")
        .unwrap_or_else(|| fail("--queries <file.pxqlb> is required"));
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&format!("cannot read query file {path}: {e}")));

    let mut requests: Vec<(usize, QueryRequest)> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut request = QueryRequest::text(line);
        if args.has("auto-despite") {
            request = request.with_despite_extension();
        }
        if args.has("narrate") {
            request = request.with_narration();
        }
        requests.push((lineno + 1, request));
    }
    if requests.is_empty() {
        fail(&format!("{path} contains no queries"));
    }

    let service = XplainService::with_config(log, config_from(args));
    println!(
        "answering {} queries over {} executions...\n",
        requests.len(),
        service.with_log(|log| log.len())
    );

    let mut reused = 0usize;
    let started = Instant::now();
    if args.has("par") {
        let batch: Vec<QueryRequest> = requests.iter().map(|(_, r)| r.clone()).collect();
        let outcomes = service.par_explain_batch(&batch);
        let elapsed = started.elapsed();
        for ((lineno, _), outcome) in requests.iter().zip(outcomes) {
            reused += print_batch_outcome(*lineno, &outcome, None);
        }
        println!(
            "\n{} queries in {:.1} ms across threads ({} answered from the cached view)",
            requests.len(),
            elapsed.as_secs_f64() * 1e3,
            reused
        );
    } else {
        for (lineno, request) in &requests {
            let query_started = Instant::now();
            let outcome = service.explain(request);
            reused += print_batch_outcome(*lineno, &outcome, Some(query_started.elapsed()));
        }
        println!(
            "\n{} queries in {:.1} ms ({} answered from the cached view)",
            requests.len(),
            started.elapsed().as_secs_f64() * 1e3,
            reused
        );
    }
}

/// Prints one batch result line; returns 1 when the cached view was reused.
fn print_batch_outcome(
    lineno: usize,
    outcome: &Result<perfxplain::QueryOutcome, perfxplain::CoreError>,
    elapsed: Option<std::time::Duration>,
) -> usize {
    let timing = elapsed
        .map(|e| format!("{:>8.2} ms  ", e.as_secs_f64() * 1e3))
        .unwrap_or_default();
    match outcome {
        Ok(outcome) => {
            let origin = if outcome.view_reused {
                "cached view"
            } else {
                "view built"
            };
            println!(
                "line {lineno:>4}: {timing}[{origin}] {} vs {}: {}",
                outcome.query.left_id, outcome.query.right_id, outcome.explanation.because
            );
            if let Some(narration) = &outcome.narration {
                println!("            {narration}");
            }
            usize::from(outcome.view_reused)
        }
        Err(err) => {
            println!("line {lineno:>4}: {timing}failed: {err}");
            0
        }
    }
}

/// Parses a numeric flag, failing with a consistent message.
fn numeric_flag<T: std::str::FromStr>(args: &Args, name: &str) -> Option<T> {
    args.get(name).map(|raw| {
        raw.parse::<T>()
            .unwrap_or_else(|_| fail(&format!("--{name} expects a number")))
    })
}

/// Set by the SIGINT/SIGTERM handler; polled by the serve loop.
static SHUTDOWN_REQUESTED: std::sync::atomic::AtomicBool =
    std::sync::atomic::AtomicBool::new(false);

/// Minimal async-signal-safe handler: one relaxed store, nothing else.
extern "C" fn on_shutdown_signal(_signum: i32) {
    SHUTDOWN_REQUESTED.store(true, std::sync::atomic::Ordering::Relaxed);
}

/// Routes SIGINT and SIGTERM to [`on_shutdown_signal`] via libc's `signal`,
/// so `Ctrl-C` and `kill` drain the server instead of dropping in-flight
/// work.  Best-effort: on failure the process just keeps the default
/// (immediate-exit) disposition, which the journal already tolerates.
fn install_shutdown_handler() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = on_shutdown_signal as extern "C" fn(i32) as *const () as usize;
    unsafe {
        signal(SIGINT, handler);
        signal(SIGTERM, handler);
    }
}

/// Serves the log over the network protocol until killed or drained.
fn cmd_serve(args: &Args) {
    use perfxplain::server::{spawn, QueryCost, SchedulerConfig, ServerConfig};
    use perfxplain::{CoreError, FsyncPolicy};
    use std::sync::Arc;

    let explain_config = config_from(args);
    let service = match (args.get("snapshot"), args.get("log")) {
        (Some(dir), _) => {
            let path = std::path::Path::new(dir);
            match XplainService::open_snapshot_with_config(path, explain_config.clone()) {
                Ok(service) => service,
                // Serve what survives rather than refusing to start: the
                // salvage open quarantines damaged segments and builds the
                // service from the healthy shards.
                Err(err) => {
                    eprintln!("warning: cannot open snapshot {dir} strictly ({err}); salvaging");
                    let (service, damage) =
                        XplainService::open_snapshot_salvage_with_config(path, explain_config)
                            .unwrap_or_else(|e| {
                                fail(&format!("cannot salvage snapshot {dir}: {e}"))
                            });
                    for shard in &damage {
                        eprintln!(
                            "warning: quarantined shard {} ({}): {}",
                            shard.index, shard.file, shard.error
                        );
                    }
                    eprintln!(
                        "warning: serving without {} damaged shard(s); re-ingest to repair",
                        damage.len()
                    );
                    service
                }
            }
        }
        (None, Some(_)) => XplainService::with_config(load_log(args), explain_config),
        (None, None) => fail("--log <file.json> or --snapshot <dir> is required"),
    };

    let defaults = SchedulerConfig::default();
    let scheduler = SchedulerConfig {
        budget: numeric_flag(args, "budget")
            .map(QueryCost)
            .unwrap_or(defaults.budget),
        queue_capacity: numeric_flag(args, "queue").unwrap_or(defaults.queue_capacity),
        max_inflight_per_session: numeric_flag(args, "session-inflight")
            .unwrap_or(defaults.max_inflight_per_session),
        max_pending_per_session: numeric_flag(args, "session-pending")
            .unwrap_or(defaults.max_pending_per_session),
    };
    let mut config = ServerConfig {
        addr: args.get("addr").unwrap_or("127.0.0.1:7433").to_string(),
        scheduler,
        ..ServerConfig::default()
    };
    if let Some(workers) = numeric_flag::<usize>(args, "workers") {
        config.workers = workers.max(1);
    }
    if let Some(timeout_ms) = numeric_flag::<u64>(args, "timeout-ms") {
        config.default_timeout =
            (timeout_ms > 0).then(|| std::time::Duration::from_millis(timeout_ms));
    }
    if let Some(drain_ms) = numeric_flag::<u64>(args, "drain-ms") {
        config.drain_timeout = std::time::Duration::from_millis(drain_ms);
    }
    // Off by default: the shutdown admin frame is otherwise a remote
    // denial-of-service on a query/append-only protocol.
    config.allow_remote_shutdown = args.has("allow-remote-shutdown");

    let rows = service.with_log(|log| log.len());
    let checkpoint_dir = args.get("checkpoint").map(std::path::PathBuf::from);
    let fsync_policy = args.get("fsync").map(|raw| {
        raw.parse::<FsyncPolicy>()
            .unwrap_or_else(|e| fail(&format!("--fsync: {e}")))
    });
    if let Some(policy) = fsync_policy {
        let dir = checkpoint_dir.as_deref().unwrap_or_else(|| {
            fail("--fsync requires --checkpoint <dir> (the journal lives there)")
        });
        // The journal needs checkpoint lineage in its directory: a snapshot
        // open from the same dir already has it, a salvage open that
        // quarantined a shard or a --log start does not — establish it
        // with one checkpoint.
        if let Err(err) = service.enable_journal(dir, policy) {
            match err {
                CoreError::JournalNotAnchored { .. } => {
                    let report = service
                        .checkpoint(dir)
                        .unwrap_or_else(|e| fail(&format!("cannot anchor the journal: {e}")));
                    println!(
                        "checkpointed {} rows to {} to anchor the append journal",
                        report.rows,
                        dir.display()
                    );
                    service
                        .enable_journal(dir, policy)
                        .unwrap_or_else(|e| fail(&format!("cannot enable the journal: {e}")));
                }
                other => fail(&format!("cannot enable the journal: {other}")),
            }
        }
        println!(
            "append journal enabled in {} (fsync policy: {policy})",
            dir.display()
        );
    }
    install_shutdown_handler();
    let service = Arc::new(service);
    let handle =
        spawn(Arc::clone(&service), config.clone()).unwrap_or_else(|e| fail(&e.to_string()));
    println!(
        "serving {rows} executions on {} ({} worker(s), budget {} unit(s), queue {}, \
         per-session {} running / {} pending)",
        handle.addr(),
        config.workers,
        config.scheduler.budget.units(),
        config.scheduler.queue_capacity,
        config.scheduler.max_inflight_per_session,
        config.scheduler.max_pending_per_session,
    );
    // The handle owns the event loop; park this thread polling for a
    // shutdown signal (or a `shutdown` admin frame, which finishes the
    // event loop on its own), reporting counters every ten seconds so
    // operators see the shape of the load, and checkpointing the live tail
    // when appends landed.
    let mut last = handle.stats();
    let mut checkpointed_generation = service.generation();
    let report_every = std::time::Duration::from_secs(10);
    let mut next_report = Instant::now() + report_every;
    loop {
        std::thread::sleep(std::time::Duration::from_millis(200));
        if SHUTDOWN_REQUESTED.load(std::sync::atomic::Ordering::Relaxed) || handle.is_finished() {
            break;
        }
        if Instant::now() < next_report {
            continue;
        }
        next_report = Instant::now() + report_every;
        let stats = handle.stats();
        if stats != last {
            println!(
                "sessions {}  requests {}  answered {}  appends {}  shed {}  expired {}  errors {}",
                stats.sessions_accepted,
                stats.requests,
                stats.answered,
                stats.appends,
                stats.shed,
                stats.expired,
                stats.errors
            );
            last = stats;
        }
        if let Some(dir) = &checkpoint_dir {
            let generation = service.generation();
            if generation != checkpointed_generation {
                match service.checkpoint(dir) {
                    Ok(report) => {
                        checkpointed_generation = generation;
                        println!(
                            "checkpointed {} rows to {} ({} shard(s) encoded, {} kept)",
                            report.rows,
                            dir.display(),
                            report.shards_encoded,
                            report.shards_reused
                        );
                    }
                    Err(err) => eprintln!("warning: checkpoint to {} failed: {err}", dir.display()),
                }
            }
        }
    }

    // Graceful exit: stop accepting, let in-flight and queued requests
    // finish within the drain deadline, then make the served state durable
    // — one final checkpoint if anything was appended, and a journal fsync
    // so even an OnCheckpoint policy leaves no unsynced frames behind.
    println!(
        "shutting down: draining in-flight requests (up to {} ms)...",
        config.drain_timeout.as_millis()
    );
    let stats = handle.drain();
    println!(
        "drained; final counters: sessions {}  requests {}  answered {}  appends {}  \
         shed {}  expired {}  errors {}",
        stats.sessions_accepted,
        stats.requests,
        stats.answered,
        stats.appends,
        stats.shed,
        stats.expired,
        stats.errors
    );
    if let Some(dir) = &checkpoint_dir {
        if service.generation() != checkpointed_generation {
            match service.checkpoint(dir) {
                Ok(report) => println!(
                    "final checkpoint: {} rows to {} ({} shard(s) encoded, {} kept)",
                    report.rows,
                    dir.display(),
                    report.shards_encoded,
                    report.shards_reused
                ),
                Err(err) => eprintln!(
                    "warning: final checkpoint to {} failed: {err}",
                    dir.display()
                ),
            }
        }
    }
    match service.sync_journal() {
        Ok(()) => {
            if let Some(stats) = service.journal_stats() {
                println!(
                    "journal synced: {} bytes, {} frame(s) appended, {} fsync(s)",
                    stats.bytes, stats.frames_appended, stats.fsyncs
                );
            }
        }
        Err(err) => eprintln!("warning: final journal sync failed: {err}"),
    }
}

/// Appends the records of a JSON execution log to a running server.
fn cmd_append(args: &Args) {
    use perfxplain::server::{Client, ServerConfig};

    let addr = args
        .get("addr")
        .unwrap_or_else(|| fail("--addr HOST:PORT is required"));
    let log = load_log(args);
    if log.is_empty() {
        fail("the records file contains no executions");
    }
    let mut client =
        Client::connect(addr).unwrap_or_else(|e| fail(&format!("cannot connect to {addr}: {e}")));
    let started = Instant::now();
    // Batch to the server's frame cap: a multi-megabyte log streams as
    // many append requests over the one connection instead of one
    // oversized frame the server would reject.
    let ack = client
        .append_batched(log.records(), ServerConfig::default().max_frame_bytes)
        .unwrap_or_else(|e| fail(&format!("append failed: {e}")));
    println!(
        "appended {} record(s) in {:.1} ms; served log is now at generation {} ({})",
        ack.appended,
        started.elapsed().as_secs_f64() * 1e3,
        ack.generation,
        if ack.durable {
            "durable: every batch fsynced to the server's journal before its ack"
        } else {
            "not durable: the server journals lazily or not at all"
        }
    );
}

/// Drives a many-client workload, closed loop per connection, against a
/// running server.
fn cmd_load(args: &Args) {
    use perfxplain::server::{run_load, WireRequest};

    let addr = args
        .get("addr")
        .unwrap_or_else(|| fail("--addr HOST:PORT is required"));
    let (left, right) = match (args.get("left"), args.get("right")) {
        (Some(left), Some(right)) => (left.to_string(), right.to_string()),
        _ => fail("--left and --right execution ids are required"),
    };
    let connections: usize = numeric_flag(args, "connections").unwrap_or(4);
    let requests: usize = numeric_flag(args, "requests").unwrap_or(16);
    let timeout_ms: Option<u64> = numeric_flag(args, "timeout-ms");
    let query_text = if let Some(path) = args.get("query") {
        Some(
            std::fs::read_to_string(path)
                .unwrap_or_else(|e| fail(&format!("cannot read query file {path}: {e}"))),
        )
    } else {
        args.get("query-text").map(str::to_string)
    };

    println!(
        "driving {connections} connection(s) x {requests} request(s) against {addr} \
         for pair {left} vs {right}..."
    );
    let report = run_load(addr, connections, requests, |connection, sequence| {
        let mut request: WireRequest = perfxplain::server::default_request(&left, &right);
        if let Some(text) = &query_text {
            request.query = Some(text.clone());
        }
        request.id = Some((connection * requests + sequence) as u64);
        request.timeout_ms = timeout_ms;
        request
    })
    .unwrap_or_else(|e| fail(&format!("load drive failed: {e}")));

    println!(
        "sent {}  ok {}  shed {}  deadline {}  errors {}  transport {}",
        report.sent,
        report.ok,
        report.shed,
        report.deadline,
        report.errors,
        report.transport_errors
    );
    println!(
        "{:.1} qps over {:.1} ms; latency p50 {:.2} ms, p99 {:.2} ms",
        report.qps,
        report.elapsed.as_secs_f64() * 1e3,
        report.p50_ms,
        report.p99_ms
    );
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    const USAGE: &str =
        "usage: perfxplain <simulate|ingest|snapshot|inspect|queries|explain|batch|serve|append|load> [options]";
    let Some((command, rest)) = raw.split_first() else {
        eprintln!("{USAGE}");
        eprintln!("       see the module documentation at the top of src/bin/perfxplain.rs");
        exit(2);
    };
    match command.as_str() {
        "simulate" => cmd_simulate(&Args::parse(rest)),
        "ingest" => cmd_ingest(&Args::parse(rest)),
        "snapshot" => {
            let Some((action, rest)) = rest.split_first() else {
                fail("usage: perfxplain snapshot <save|open|verify> [options]");
            };
            cmd_snapshot(action, &Args::parse(rest));
        }
        "inspect" => cmd_inspect(&Args::parse(rest)),
        "queries" => cmd_queries(&Args::parse(rest)),
        "explain" => cmd_explain(&Args::parse(rest)),
        "batch" => cmd_batch(&Args::parse(rest)),
        "serve" => cmd_serve(&Args::parse(rest)),
        "append" => cmd_append(&Args::parse(rest)),
        "load" => cmd_load(&Args::parse(rest)),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
        }
        other => fail(&format!("unknown command '{other}'")),
    }
}
