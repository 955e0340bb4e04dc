//! Release-mode smokes: each scenario drives one tier of the system end to
//! end and exits non-zero on a broken contract or a blown wall-clock
//! ceiling.
//!
//! ```text
//! cargo run --release -p perfxplain-bench --bin smoke -- <scenario>
//! ```
//!
//! A watchdog thread ends the process with status 1 once the scenario runs
//! past its ceiling (30 s; 120 s for `crash-recovery`), timed from the
//! scenario's start, log generation included.  So a hung event loop, a
//! deadlock or a quadratic path fails at the ceiling instead of occupying a
//! CI runner until the job times out.  An unknown scenario name exits 2 and
//! lists the names.
//!
//! * `ingest` — ingests a synthetic 100k-record log through the sharded
//!   path (shard logs built as jobs of the shared worker pool and merged
//!   by `ExecutionLog::from_shards`, then the sharded columnar encode,
//!   checked bit-identical to the single-shot build) and answers one
//!   blocked query.  Encode-path complexity regressions overshoot the
//!   ceiling by orders of magnitude at n = 100k.
//! * `snapshot` — persists a synthetic 100k-record log as a segmented
//!   binary snapshot and asserts the compressed v2 encoding stays at or
//!   under 60% of the raw fixed-width (v1) equivalent of the same data.  It
//!   then reopens it as a warm [`XplainService`] (fingerprints verified,
//!   columnar views assembled from the stored segments without
//!   re-encoding), answers one blocked query from the pre-warmed view and
//!   asserts the outcome equals the in-memory service's.
//! * `explain` — answers one despite-blocked query, cold then warm, over a
//!   100k-record log whose training dataset carries high-cardinality
//!   continuous features: the shape where the pre-sweep trainer's O(d·n)
//!   candidate rescans dominated per-query latency.  The warm query must
//!   reuse both the cached view and the memoized training sample, so it
//!   times featurize and the clause loop alone.
//! * `serve` — spawns the PXQL network front-end on loopback and drives it
//!   with concurrent connections through the load driver (closed loop per
//!   connection): every sized-to-fit request must be answered, the
//!   explanation served over the wire must match the in-process
//!   [`XplainService`] atom for atom, a request sized beyond the whole
//!   admission budget must shed with a typed 429, and a malformed frame
//!   must get a typed 400 without killing the connection.  Every answered
//!   request asks one template, so the `status` frame must then report one
//!   memo entry, stored once.
//! * `live-ingest` — serves a 100k-record blocked log and drives an
//!   append-while-querying loop: every batch must refresh the cached view
//!   through the O(tail) delta splice (never a full rebuild), queries must
//!   see pairs that live entirely in the appended tail, and the mean delta
//!   refresh must stay under a fixed fraction of one full re-encode.
//! * `crash-recovery` — proves the durability contract against a real
//!   process death.  It persists a base snapshot, re-executes this binary
//!   as a journaled server (`fsync = Always`), drives an append storm over
//!   loopback recording every record acked durable, and SIGKILLs the server
//!   mid-storm.  It then reopens the same directory and asserts zero
//!   acked-durable records lost, the first query answered warm from the
//!   replayed journal tail (no full view rebuild), and a clean journal
//!   audit.
//!
//! Scratch directories are removed and the child server is killed when
//! their guards drop, so a failed check leaves neither behind.  The child
//! also exits when its parent does, so a blown ceiling leaves only the
//! scratch directory.

use perfxplain_bench::{
    blocked_log, blocked_log_with_group_metrics, two_regime_job, two_regime_log, BLOCKED_QUERY,
};
use perfxplain_core::columnar::ColumnarLog;
use perfxplain_core::{
    shard, snapshot, verify_journal, ExecutionKind, ExecutionLog, ExecutionRecord, ExplainConfig,
    FsyncPolicy, QueryRequest, XplainService,
};
use perfxplain_server::{
    default_request, run_load, spawn, Client, QueryCost, SchedulerConfig, ServerConfig, WireRequest,
};
use std::collections::BTreeSet;
use std::io::{BufRead, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Log size of the 100k-row scenarios.
const N: usize = 100_000;
/// Records per pigscript blocking group of [`blocked_log`].
const GROUP_SIZE: usize = 10;
/// The hidden mode `crash-recovery` re-executes this binary in, followed by
/// the snapshot directory to serve.
const CHILD_SERVE: &str = "--child-serve";

/// Each scenario's name on the command line, its wall-clock ceiling in
/// seconds and its body.
const SCENARIOS: [(&str, u64, fn()); 6] = [
    ("ingest", 30, ingest),
    ("snapshot", 30, snapshot_round_trip),
    ("explain", 30, explain),
    ("serve", 30, serve),
    ("live-ingest", 30, live_ingest),
    ("crash-recovery", 120, crash_recovery),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [mode, dir] = args.as_slice() {
        if mode == CHILD_SERVE {
            child_serve(Path::new(dir));
        }
    }
    let Some(&(name, ceiling_secs, run)) = SCENARIOS
        .iter()
        .find(|(name, ..)| args.len() == 1 && args[0] == *name)
    else {
        let names: Vec<&str> = SCENARIOS.iter().map(|(name, ..)| *name).collect();
        eprintln!("usage: smoke <scenario>; scenarios: {}", names.join(", "));
        std::process::exit(2);
    };

    let ceiling = Duration::from_secs(ceiling_secs);
    std::thread::spawn(move || {
        std::thread::sleep(ceiling);
        eprintln!("smoke {name} exceeded its {} s ceiling", ceiling.as_secs());
        std::process::exit(1);
    });
    let started = Instant::now();
    run();
    let elapsed = started.elapsed();
    assert!(
        elapsed < ceiling,
        "smoke {name} took {:.1} s (ceiling {} s)",
        elapsed.as_secs_f64(),
        ceiling.as_secs()
    );
    println!("smoke {name} passed in {:.1} s", elapsed.as_secs_f64());
}

/// The canonical despite-blocked query over [`blocked_log`], asked about
/// two big-block members of the first group.
fn blocked_request() -> QueryRequest {
    QueryRequest::text(BLOCKED_QUERY).with_pair("job_2", "job_0")
}

/// The server's canned query over [`two_regime_log`], in process.
fn canned_request() -> QueryRequest {
    let text = default_request("job_2", "job_0")
        .query
        .expect("canonical query text");
    QueryRequest::text(text).with_pair("job_2", "job_0")
}

/// At least 4 shards even on narrow machines, so the merge path is always
/// exercised.
fn shards() -> usize {
    shard::hardware_threads().max(4)
}

/// A scratch directory under the system temp dir, removed when dropped.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(label: &str) -> Self {
        let path = std::env::temp_dir().join(format!("px_smoke_{label}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("scratch dir");
        ScratchDir(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The journaled child server of `crash-recovery`, killed and reaped when
/// dropped.
struct ChildServer(Child);

impl Drop for ChildServer {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// `ingest`: sharded ingest and encode of the blocked log, then one query.
fn ingest() {
    let shards = shards();
    let source = blocked_log(N, GROUP_SIZE, 1);

    let started = Instant::now();
    // One shard log per pool job, merged in shard order, as the sharded
    // bundle collector does.
    let shard_logs =
        perfxplain_core::pool::shared().map_chunks(source.records(), shards, |chunk| {
            let mut shard = ExecutionLog::new();
            shard.append(chunk.to_vec());
            shard
        });
    let log = ExecutionLog::from_shards(shard_logs);
    let ingested = started.elapsed();
    drop(source);
    assert_eq!(log.len(), N, "ingest lost records");

    let sharded = ColumnarLog::build_sharded(&log, ExecutionKind::Job, shards);
    let encoded = started.elapsed();
    assert_eq!(sharded.num_rows(), N);
    assert_eq!(
        sharded,
        ColumnarLog::build_sharded(&log, ExecutionKind::Job, 1),
        "sharded encode diverged from the single-shot build"
    );

    // The service's cached view is built through the same auto-sharded path.
    let service = XplainService::new(log);
    let outcome = service
        .explain(&blocked_request())
        .expect("the smoke query must be answerable");
    assert!(
        outcome.explanation.width() >= 1,
        "the smoke query produced an empty explanation"
    );
    println!(
        "ingest: {N} records, {shards} shard(s): ingest {:.0} ms, encode {:.0} ms, \
         query answered at {:.0} ms (because: {})",
        ingested.as_secs_f64() * 1e3,
        (encoded - ingested).as_secs_f64() * 1e3,
        started.elapsed().as_secs_f64() * 1e3,
        outcome.explanation.because,
    );
}

/// `snapshot`: persist, reopen warm, and answer exactly as in memory.
fn snapshot_round_trip() {
    let log = blocked_log(N, GROUP_SIZE, 1);
    let request = blocked_request();
    // The in-memory reference answer, from a separate service.
    let expected = XplainService::new(log.clone())
        .explain(&request)
        .expect("the smoke query must be answerable in memory");
    let dir = ScratchDir::new("snapshot");
    let shards = shards();

    let started = Instant::now();
    // Per-shard compressed binary segments and a fingerprinted manifest.
    // The compression is the point of the v2 format.
    let report = snapshot::persist(&log, dir.path(), shards).expect("snapshot persists");
    let persisted = started.elapsed();
    assert_eq!(report.rows, N, "persist lost records");
    let usage = report.manifest.usage();
    assert!(
        usage.total_bytes * 10 <= usage.raw_bytes * 6,
        "snapshot is {} bytes, over 60% of the {}-byte raw equivalent",
        usage.total_bytes,
        usage.raw_bytes
    );

    let reopened = XplainService::open_snapshot(dir.path()).expect("snapshot opens");
    let opened = started.elapsed();
    let outcome = reopened
        .explain(&request)
        .expect("the smoke query must be answerable from the snapshot");
    assert!(
        outcome.view_reused,
        "the rehydrated service should serve its first query from the snapshot-built view"
    );
    assert_eq!(
        outcome.explanation, expected.explanation,
        "snapshot-served explanation diverged from the in-memory path"
    );
    assert_eq!(outcome.query, expected.query);
    let answered = started.elapsed();

    std::fs::remove_dir_all(dir.path()).expect("snapshot dir cleans up");
    println!(
        "snapshot: {N} records, {} shard(s), {} bytes ({:.2}x vs raw): persist {:.0} ms \
         (encode {:.0} ms, write {:.0} ms), reopen {:.0} ms, query answered at {:.0} ms \
         (because: {})",
        report.manifest.shards.len(),
        usage.total_bytes,
        usage.compression_ratio(),
        persisted.as_secs_f64() * 1e3,
        report.encode_seconds * 1e3,
        report.write_seconds * 1e3,
        (opened - persisted).as_secs_f64() * 1e3,
        answered.as_secs_f64() * 1e3,
        outcome.explanation.because,
    );
}

/// `explain`: one trainer-heavy blocked query, cold then warm.
fn explain() {
    // Numeric group-level metrics (one distinct value per group, shared by
    // within-group pairs) become continuous base features of the training
    // dataset, so the split search sweeps thousands of candidate thresholds
    // per attribute.
    const GROUP_METRICS: usize = 3;
    let service = XplainService::new(blocked_log_with_group_metrics(
        N,
        GROUP_SIZE,
        1,
        GROUP_METRICS,
    ));
    let request = blocked_request();

    // The first query builds the cached columnar view, then trains.
    let started = Instant::now();
    let first = service
        .explain(&request)
        .expect("the smoke query must be answerable");
    let first_ms = started.elapsed().as_secs_f64() * 1e3;
    assert!(
        first.explanation.width() >= 1,
        "the smoke query produced an empty explanation"
    );
    assert!(!first.view_reused, "the first query cannot hit the cache");

    let started = Instant::now();
    let warm = service
        .explain(&request)
        .expect("the warm smoke query must be answerable");
    let warm_ms = started.elapsed().as_secs_f64() * 1e3;
    assert!(warm.view_reused, "the warm query missed the view cache");
    assert!(warm.sample_reused, "the warm query missed the sample memo");
    assert_eq!(
        warm.explanation, first.explanation,
        "the warm query diverged from the cold one"
    );
    println!(
        "explain: {N} records, groups of {GROUP_SIZE}, {GROUP_METRICS} group metrics: first \
         query {first_ms:.0} ms (view build + train), warm query {warm_ms:.0} ms (because: {})",
        first.explanation.because,
    );
}

/// `serve`: the wire answers like the process, sheds and survives abuse.
fn serve() {
    /// Large enough that a query does real enumeration and training work.
    const JOBS: usize = 600;
    const CONNECTIONS: usize = 4;
    const REQUESTS_PER_CONNECTION: usize = 8;

    let service = Arc::new(XplainService::new(two_regime_log(JOBS)));
    let request = canned_request();
    // Size the budget from the same estimator the server charges with:
    // three default-cost requests fit concurrently, so the drive below
    // queues under load but never sheds, while a deliberately huge request
    // can never be admitted.
    let default_cost = QueryCost::from(
        &service
            .estimate_cost(&request)
            .expect("the smoke query is estimable"),
    );
    let budget = default_cost + default_cost + default_cost;
    let config = ServerConfig {
        workers: 2,
        scheduler: SchedulerConfig {
            budget,
            queue_capacity: 64,
            max_inflight_per_session: 2,
            max_pending_per_session: 16,
        },
        ..ServerConfig::default()
    };
    let handle = spawn(Arc::clone(&service), config).expect("server binds on loopback");
    let addr = handle.addr().to_string();
    println!(
        "serve: {JOBS} records on {addr} (budget {} units)",
        budget.units()
    );

    let expected = service
        .explain(&request)
        .expect("the smoke query is answerable in-process");
    let expected_atoms: Vec<String> = expected
        .explanation
        .because
        .atoms()
        .iter()
        .map(|a| a.to_string())
        .collect();

    // The networked answer matches the in-process one.
    let mut client = Client::connect(&addr).expect("client connects");
    let over_wire = client
        .call(&default_request("job_2", "job_0"))
        .expect("wire response");
    assert!(over_wire.is_ok(), "wire request failed: {over_wire:?}");
    assert_eq!(
        over_wire.because.as_deref(),
        Some(&expected_atoms[..]),
        "the served explanation diverged from the in-process service"
    );
    println!(
        "wire answer matches in-process: {}",
        expected_atoms.join(" AND ")
    );

    // A request sized beyond the whole budget sheds, typed.
    let mut huge = default_request("job_2", "job_0");
    huge.sample_size = Some(1_000_000_000);
    let shed = client.call(&huge).expect("shed response");
    assert_eq!(shed.code, 429, "oversized request not shed: {shed:?}");
    assert_eq!(shed.error.as_deref(), Some("cost_exceeds_budget"));
    println!(
        "oversized request shed: {}",
        shed.message.as_deref().unwrap_or("")
    );

    // A malformed frame gets a typed error, and the connection lives.
    client.send_raw("definitely not json\n").expect("send raw");
    let bad = client.recv().expect("bad-frame response");
    assert_eq!(bad.code, 400);
    assert_eq!(bad.error.as_deref(), Some("bad_frame"));
    let again = client
        .call(&default_request("job_2", "job_0"))
        .expect("response after abuse");
    assert!(
        again.is_ok(),
        "connection died after a bad frame: {again:?}"
    );

    // The concurrent drive, closed loop per connection, completes all-ok.
    let report = run_load(&addr, CONNECTIONS, REQUESTS_PER_CONNECTION, |c, s| {
        let mut request = default_request("job_2", "job_0");
        request.id = Some((c * REQUESTS_PER_CONNECTION + s) as u64);
        request
    })
    .expect("load drive completes");
    assert_eq!(
        report.ok, report.sent,
        "the sized-to-fit drive shed or failed requests: {report:?}"
    );
    assert_eq!(report.transport_errors, 0, "{report:?}");

    // The in-process request and every wire request asked one template
    // (the oversized one was shed before it ran), so the view's memo holds
    // one entry, stored once, however the connections raced.
    let status = client
        .call(&WireRequest {
            target: Some("status".to_string()),
            ..WireRequest::default()
        })
        .expect("status answered");
    assert_eq!(
        (status.memo_datasets, status.memo_dataset_stores),
        (Some(1), Some(1)),
        "one template must hold one memo entry: {status:?}"
    );

    let stats = handle.stats();
    println!(
        "drive: {} requests over {CONNECTIONS} connections, {:.1} qps, p50 {:.1} ms, \
         p99 {:.1} ms",
        report.sent, report.qps, report.p50_ms, report.p99_ms
    );
    println!(
        "server counters: {} sessions, {} requests, {} answered, {} shed, {} errors",
        stats.sessions_accepted, stats.requests, stats.answered, stats.shed, stats.errors
    );
    assert!(
        stats.shed >= 1,
        "the oversized request should appear in shed counters"
    );
    assert!(stats.answered >= report.ok + 2);
}

/// `live-ingest`: appends stay on the O(tail) delta path while serving.
fn live_ingest() {
    const BATCH: usize = 64;
    const ROUNDS: usize = 8;
    /// The mean delta refresh must stay under this fraction of one full
    /// re-encode.  Measured around 1/50 at n = 100k; a refresh that costs a
    /// quarter of a rebuild means the O(tail) path has regressed toward
    /// O(log).
    const MAX_REFRESH_FRACTION: f64 = 0.25;

    // The base log and every append batch come from one generator call, so
    // the appended records carry exactly the served catalog's feature names
    // and the batches stay on the delta path.
    let all = blocked_log(N + BATCH * ROUNDS, GROUP_SIZE, 1)
        .records()
        .to_vec();
    let mut log = ExecutionLog::new();
    for record in &all[..N] {
        log.push(record.clone());
    }
    log.rebuild_catalogs();
    let service = XplainService::with_config(log, ExplainConfig::default().with_sample_size(200));

    // The warm query pays the scenario's one and only full view build.
    service
        .explain(&blocked_request())
        .expect("the warm smoke query must be answerable");

    // Baseline: the full re-encode a non-delta cache would pay per append.
    let snapshot = service.snapshot();
    let started = Instant::now();
    let rebuilt = ColumnarLog::build_auto(&snapshot, ExecutionKind::Job);
    let full_rebuild_secs = started.elapsed().as_secs_f64();
    assert_eq!(rebuilt.num_rows(), N);
    drop((snapshot, rebuilt));

    let mut refresh_secs = 0.0;
    for round in 0..ROUNDS {
        let from = N + round * BATCH;
        service
            .append(all[from..from + BATCH].to_vec())
            .expect("append failed");

        let started = Instant::now();
        let view = service.view(ExecutionKind::Job);
        refresh_secs += started.elapsed().as_secs_f64();
        assert_eq!(view.num_rows(), from + BATCH, "append lost records");
        assert!(view.tail_rows() > 0, "append fell off the delta path");

        // A pair that lives entirely in the freshly appended tail: members
        // 0 and 2 of the first complete group this round added.
        let base = from.div_ceil(GROUP_SIZE) * GROUP_SIZE;
        let outcome = service
            .explain(
                &QueryRequest::text(BLOCKED_QUERY)
                    .with_pair(format!("job_{}", base + 2), format!("job_{base}")),
            )
            .expect("the appended-pair smoke query must be answerable");
        assert!(
            outcome.explanation.width() >= 1,
            "the appended-pair query produced an empty explanation"
        );
    }

    let stats = service.view_stats();
    assert_eq!(
        stats.full_rebuilds, 1,
        "an append forced a full rebuild: {stats:?}"
    );
    assert_eq!(
        stats.tail_rows as usize,
        BATCH * ROUNDS,
        "the cached tail does not hold the appended rows: {stats:?}"
    );
    let mean_refresh_secs = refresh_secs / ROUNDS as f64;
    println!(
        "live-ingest: {N} records + {ROUNDS}x{BATCH} appended: full rebuild {:.0} ms, \
         mean delta refresh {:.2} ms ({:.0}x), {} delta refreshes / {} full rebuild",
        full_rebuild_secs * 1e3,
        mean_refresh_secs * 1e3,
        full_rebuild_secs / mean_refresh_secs.max(1e-9),
        stats.delta_refreshes,
        stats.full_rebuilds,
    );
    assert!(
        mean_refresh_secs < full_rebuild_secs * MAX_REFRESH_FRACTION,
        "mean delta refresh {:.1} ms is over {MAX_REFRESH_FRACTION} of a full rebuild \
         ({:.1} ms): the O(tail) path regressed",
        mean_refresh_secs * 1e3,
        full_rebuild_secs * 1e3,
    );
}

/// Rows of the `crash-recovery` base snapshot's job view.
const CRASH_BASE_JOBS: usize = 400;
/// Records per append batch of the storm.
const STORM_BATCH: usize = 16;
/// Batches acknowledged before the parent pulls the trigger.
const BATCHES_BEFORE_KILL: usize = 20;

/// [`two_regime_log`] plus a task for every fourth job, so both columnar
/// views exist in the base snapshot (a kind absent from the base could not
/// be served warm after replay).
fn crash_base_log() -> ExecutionLog {
    let mut log = ExecutionLog::new();
    for i in 0..CRASH_BASE_JOBS {
        let job = two_regime_job(i);
        let duration = job.feature("duration").as_num().expect("numeric duration");
        log.push(job);
        if i.is_multiple_of(4) {
            log.push(
                ExecutionRecord::task(format!("task_{i}"), format!("job_{i}"))
                    .with_feature(
                        "tasktype",
                        if i.is_multiple_of(2) { "MAP" } else { "REDUCE" },
                    )
                    .with_feature("duration", duration / 10.0),
            );
        }
    }
    log.rebuild_catalogs();
    log
}

/// One storm batch, ids unique per `(batch, row)` so the parent can check
/// the recovered log record by record.
fn storm_batch(batch: usize) -> Vec<ExecutionRecord> {
    (0..STORM_BATCH)
        .map(|row| {
            let id = batch * STORM_BATCH + row;
            ExecutionRecord::job(format!("storm_job_{id}"))
                .with_feature("inputsize", 2.0e9 + id as f64)
                .with_feature(
                    "blocksize",
                    if id.is_multiple_of(2) { 1024.0 } else { 64.0 },
                )
                .with_feature("pigscript", ["a.pig", "b.pig"][id % 2])
                .with_feature("duration", 120.0 + id as f64)
        })
        .collect()
}

/// The hidden child mode of `crash-recovery`: serve the snapshot in `dir`
/// with an `Always`-fsynced journal until killed, or until the parent exits
/// and closes the child's stdin.  Prints the bound address on stdout.
fn child_serve(dir: &Path) -> ! {
    let service = XplainService::open_snapshot(dir).expect("child: snapshot opens");
    service
        .enable_journal(dir, FsyncPolicy::Always)
        .expect("child: journal enables");
    let handle = spawn(
        Arc::new(service),
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("child: server binds");
    // The parent parses this line; everything else goes to stderr.
    println!("ADDR {}", handle.addr());
    std::io::stdout().flush().expect("child: stdout flush");
    let _ = std::io::stdin().read_to_end(&mut Vec::new());
    std::process::exit(0);
}

/// `crash-recovery`: no record acked durable is lost to a SIGKILL.
fn crash_recovery() {
    let dir = ScratchDir::new("crash");
    let base = crash_base_log();
    let base_len = base.len();
    XplainService::new(base)
        .persist(dir.path())
        .expect("base persist");
    println!(
        "crash-recovery: persisted {base_len} base rows to {}",
        dir.path().display()
    );

    // Re-exec as the journaled server and wait for its address.
    let exe = std::env::current_exe().expect("current_exe");
    let mut child = ChildServer(
        Command::new(exe)
            .arg(CHILD_SERVE)
            .arg(dir.path())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("child spawns"),
    );
    let addr = {
        let stdout = child.0.stdout.take().expect("child stdout piped");
        let mut lines = std::io::BufReader::new(stdout).lines();
        loop {
            let line = lines
                .next()
                .expect("child exited before printing its address")
                .expect("child stdout readable");
            if let Some(addr) = line.strip_prefix("ADDR ") {
                break addr.to_string();
            }
        }
    };
    println!("child serving on {addr}");

    // The storm: append batches over the wire, recording every id the
    // server acked durable, and SIGKILL the child mid-storm — more batches
    // were queued than will ever be acknowledged.
    let mut client = Client::connect(&addr).expect("client connects");
    let mut acked: BTreeSet<String> = BTreeSet::new();
    let mut batch = 0usize;
    loop {
        if batch == BATCHES_BEFORE_KILL {
            child.0.kill().expect("SIGKILL delivered");
        }
        let records = storm_batch(batch);
        match client.append(&records) {
            Ok(response) if response.is_ok() => {
                assert_eq!(
                    response.durable,
                    Some(true),
                    "fsync=Always must ack durable: {response:?}"
                );
                acked.extend(records.iter().map(|record| record.id.clone()));
            }
            // The kill landed: the connection dies mid-request.  Anything
            // un-acked is allowed to be lost; anything acked is not.
            Ok(response) => panic!("append rejected: {response:?}"),
            Err(_) if batch >= BATCHES_BEFORE_KILL => break,
            Err(err) => panic!("transport failed before the kill: {err}"),
        }
        batch += 1;
    }
    child.0.wait().expect("child reaped");
    println!(
        "killed the server mid-storm: {} record(s) acked durable across {} batch(es)",
        acked.len(),
        batch.min(BATCHES_BEFORE_KILL + 1)
    );
    assert!(
        acked.len() >= BATCHES_BEFORE_KILL * STORM_BATCH,
        "the storm never got going: only {} acks",
        acked.len()
    );

    // Restart from the same directory: the journal replays the acked tail.
    let reopened = XplainService::open_snapshot(dir.path()).expect("post-crash reopen");
    let recovered: BTreeSet<String> = reopened.with_log(|log| {
        log.records()
            .iter()
            .map(|record| record.id.clone())
            .collect()
    });
    let lost: Vec<&String> = acked.difference(&recovered).collect();
    assert!(
        lost.is_empty(),
        "{} acked-durable record(s) lost after SIGKILL: {lost:?}",
        lost.len()
    );
    let recovered_rows = reopened.with_log(|log| log.len());
    println!(
        "recovered {recovered_rows} rows ({} journaled); zero acked-durable records lost",
        recovered_rows - base_len
    );

    // The replayed tail was spliced through the delta path: the first query
    // must be answered warm, with no from-scratch view rebuild.
    reopened
        .explain(&canned_request())
        .expect("post-crash query");
    let stats = reopened.view_stats();
    assert_eq!(stats.full_rebuilds, 0, "the reopen was not warm: {stats:?}");
    assert!(
        reopened.view(ExecutionKind::Job).tail_rows() > 0,
        "the replayed tail should sit in the view's append tail"
    );
    println!(
        "first query served warm: 0 full rebuilds, {} tail row(s) spliced",
        stats.tail_rows
    );

    // The journal itself reports healthy after the crash (the torn last
    // frame, if any, was truncated by the reopen).
    let health = verify_journal(dir.path()).expect("journal audit");
    assert!(
        health.present && health.is_healthy(),
        "journal damaged: {health:?}"
    );
}
