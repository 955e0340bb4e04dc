//! The 1M-record points pxbench does not reach: the cold open of a 1M-record
//! log and the delta refresh of a served 1M-record log under appends.
//!
//! * `cold_open` — time to a queryable job view from JSON (parse, catalog
//!   rebuild, full re-encode) against opening a segmented binary snapshot
//!   (read, fingerprint-verify, decode, adopt the stored columns).  The
//!   open's peak and retained resident bytes come from a freshly spawned
//!   probe process: this process's high-water mark was already raised by
//!   the JSON path, so an in-process reading would say nothing about the
//!   open.
//! * `delta_refresh` — a served blocked log takes [`ROUNDS`] append batches;
//!   each refreshes the cached view through the O(tail) delta splice and
//!   answers one query.  The baseline is the full re-encode a non-delta
//!   cache would pay after every append.
//!
//! The bench pins itself to one CPU before anything is timed, as pxbench
//! does, so its numbers compare from run to run and host to host; the open
//! probe inherits the pin.
//!
//! Each scenario runs one untimed warm-up, then [`TRIALS`] trials.
//! `BENCH_scale_1m.json` at the workspace root records the median, min and
//! max of every measurement, with the trial count, the git revision and the
//! hardware thread count.  Run with `cargo bench --bench scale_1m`; on a
//! 2-vCPU host it ran about two minutes with a peak of ~4.5 GB resident.

use perfxplain_bench::{blocked_log, two_regime_log, BLOCKED_QUERY};
use perfxplain_core::columnar::ColumnarLog;
use perfxplain_core::{
    shard, snapshot, ExecutionKind, ExecutionLog, ExplainConfig, QueryRequest, XplainService,
};
use serde::Serialize;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// Records in both scenarios' logs.
const N: usize = 1_000_000;
/// Timed trials per scenario, after one untimed warm-up.  Odd, so the
/// median is one trial's value.
const TRIALS: usize = 3;
/// Records per append batch of `delta_refresh`.
const BATCH: usize = 64;
/// Append, refresh and query rounds of one `delta_refresh` trial.
const ROUNDS: usize = 8;
/// Records per pigscript blocking group of the served log.
const GROUP_SIZE: usize = 10;
/// Environment variable that switches this binary into the open probe; its
/// value is the snapshot directory to open.
const OPEN_PROBE_ENV: &str = "PXBENCH_OPEN_PROBE";
/// The workspace root, wherever `cargo bench` runs the binary from.
const WORKSPACE_ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

/// Median, min and max of one measurement over the timed trials.
#[derive(Debug, Serialize)]
struct Spread {
    median: f64,
    min: f64,
    max: f64,
}

impl Spread {
    fn of(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Spread {
            median: values[values.len() / 2],
            min: values[0],
            max: values[values.len() - 1],
        }
    }
}

#[derive(Debug, Serialize)]
struct ColdOpen {
    /// Size of the log's JSON text, bytes.
    json_bytes: u64,
    /// Size of the snapshot directory (segments and manifest), bytes.
    snapshot_bytes: u64,
    /// `ExecutionLog::from_json` + `ColumnarLog::build_auto`, ms.
    json_parse_ms: Spread,
    /// `snapshot::open` + `Snapshot::into_views`, ms.
    snapshot_open_ms: Spread,
    /// The probe's VmHWM over its pre-open VmRSS, bytes.
    peak_open_bytes: Spread,
    /// The probe's VmRSS after the open over its pre-open VmRSS, bytes.
    /// Peak ≈ resident means the open allocates no transient copies.
    open_resident_bytes: Spread,
}

#[derive(Debug, Serialize)]
struct DeltaRefresh {
    batch: usize,
    rounds: usize,
    /// From-scratch re-encode of the served log, ms.
    full_rebuild_ms: Spread,
    /// Mean view refresh after an append batch (the delta splice), ms.
    delta_refresh_ms: Spread,
    /// Mean `XplainService::append` of one batch, ms.
    append_ms: Spread,
    /// Mean query against the freshly refreshed view, ms.
    query_ms: Spread,
}

#[derive(Debug, Serialize)]
struct Report {
    n: usize,
    trials: usize,
    git_rev: String,
    hardware_threads: usize,
    cold_open: ColdOpen,
    delta_refresh: DeltaRefresh,
}

/// Runs `trial` once untimed, then [`TRIALS`] times, and summarises each of
/// its `K` measurements over the timed trials.
fn measure<const K: usize>(mut trial: impl FnMut() -> [f64; K]) -> [Spread; K] {
    trial();
    let runs: Vec<[f64; K]> = (0..TRIALS).map(|_| trial()).collect();
    std::array::from_fn(|k| Spread::of(runs.iter().map(|run| run[k]).collect()))
}

fn ms_since(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

fn cold_open() -> ColdOpen {
    let log = two_regime_log(N);
    let json = log.to_json().expect("log serializes");
    let dir = std::env::temp_dir().join(format!("px_scale_1m_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    snapshot::persist(&log, &dir, shard::hardware_threads()).expect("snapshot persists");
    drop(log);
    let snapshot_bytes = std::fs::read_dir(&dir)
        .expect("snapshot dir lists")
        .map(|entry| entry.expect("entry").metadata().expect("metadata").len())
        .sum();

    let [json_parse_ms, snapshot_open_ms, peak_open_bytes, open_resident_bytes] = measure(|| {
        let started = Instant::now();
        let parsed = ExecutionLog::from_json(&json).expect("JSON parses");
        let view = ColumnarLog::build_auto(&parsed, ExecutionKind::Job);
        let json_parse_ms = ms_since(started);
        assert_eq!(view.num_rows(), N);
        drop((parsed, view));

        let (peak, resident) = open_probe(&dir);

        let started = Instant::now();
        let views = snapshot::open(&dir).expect("snapshot opens").into_views();
        let snapshot_open_ms = ms_since(started);
        assert_eq!(views.job.num_rows(), N);
        assert_eq!(views.log.len(), N);
        [json_parse_ms, snapshot_open_ms, peak, resident]
    });
    std::fs::remove_dir_all(&dir).expect("snapshot dir cleans up");
    ColdOpen {
        json_bytes: json.len() as u64,
        snapshot_bytes,
        json_parse_ms,
        snapshot_open_ms,
        peak_open_bytes,
        open_resident_bytes,
    }
}

/// Re-runs this binary as the open probe against `dir`; returns the open's
/// peak and resident bytes.
fn open_probe(dir: &Path) -> (f64, f64) {
    let output = Command::new(std::env::current_exe().expect("current_exe"))
        .env(OPEN_PROBE_ENV, dir)
        .output()
        .expect("open probe runs");
    assert!(
        output.status.success(),
        "open probe failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let report = String::from_utf8_lossy(&output.stdout);
    let fields: Vec<u64> = report
        .split_whitespace()
        .map(|field| field.parse().expect("numeric probe field"))
        .collect();
    let [peak, resident, rows] = fields[..] else {
        panic!("malformed probe report {report:?}");
    };
    assert_eq!(rows as usize, N, "the open probe saw a different row count");
    (peak as f64, resident as f64)
}

/// The probe: opens the snapshot, adopts the views, and prints
/// `peak_bytes resident_bytes rows`, measured from a fresh address space.
fn run_open_probe(dir: &Path) {
    // Resets the peak-RSS watermark (VmHWM) to the current RSS.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    let baseline = proc_status_bytes("VmRSS:");
    let views = snapshot::open(dir).expect("snapshot opens").into_views();
    let peak = proc_status_bytes("VmHWM:").saturating_sub(baseline);
    let resident = proc_status_bytes("VmRSS:").saturating_sub(baseline);
    println!("{peak} {resident} {}", views.log.len());
}

/// A `/proc/self/status` size field in bytes (0 where /proc is unavailable).
fn proc_status_bytes(field: &str) -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find(|line| line.starts_with(field))
        .and_then(|line| line.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .unwrap_or(0)
}

fn delta_refresh() -> DeltaRefresh {
    let [full_rebuild_ms, delta_refresh_ms, append_ms, query_ms] = measure(|| {
        // One generator call covers the base log and every append batch, so
        // the batches carry the served catalog's feature names and stay on
        // the delta path.
        let mut records = blocked_log(N + BATCH * ROUNDS, GROUP_SIZE, 2)
            .records()
            .to_vec();
        let tail = records.split_off(N);
        let mut log = ExecutionLog::new();
        for record in records {
            log.push(record);
        }
        log.rebuild_catalogs();
        let service =
            XplainService::with_config(log, ExplainConfig::default().with_sample_size(200));
        let request = QueryRequest::text(BLOCKED_QUERY).with_pair("job_2", "job_0");
        // The first query pays the trial's one full view build.
        service.explain(&request).expect("warm query succeeds");

        let log = service.snapshot();
        let started = Instant::now();
        let rebuilt = ColumnarLog::build_auto(&log, ExecutionKind::Job);
        let full_rebuild_ms = ms_since(started);
        assert_eq!(rebuilt.num_rows(), N);
        drop((log, rebuilt));

        let (mut append_ms, mut refresh_ms, mut query_ms) = (0.0, 0.0, 0.0);
        for (round, batch) in tail.chunks(BATCH).enumerate() {
            let batch = batch.to_vec();
            let started = Instant::now();
            service.append(batch).expect("append succeeds");
            append_ms += ms_since(started);

            let started = Instant::now();
            let view = service.view(ExecutionKind::Job);
            refresh_ms += ms_since(started);
            assert_eq!(view.num_rows(), N + (round + 1) * BATCH);
            assert!(view.tail_rows() > 0, "append fell off the delta path");

            let started = Instant::now();
            service.explain(&request).expect("query succeeds");
            query_ms += ms_since(started);
        }
        let stats = service.view_stats();
        assert_eq!(
            stats.full_rebuilds, 1,
            "an append forced a full rebuild: {stats:?}"
        );
        let rounds = ROUNDS as f64;
        [
            full_rebuild_ms,
            refresh_ms / rounds,
            append_ms / rounds,
            query_ms / rounds,
        ]
    });
    DeltaRefresh {
        batch: BATCH,
        rounds: ROUNDS,
        full_rebuild_ms,
        delta_refresh_ms,
        append_ms,
        query_ms,
    }
}

/// `git rev-parse HEAD` of the workspace, or "unknown".
fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(WORKSPACE_ROOT)
        .output()
        .ok()
        .filter(|output| output.status.success())
        .map(|output| String::from_utf8_lossy(&output.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Pins the calling thread, and so every thread and child process it starts
/// afterwards, to the highest-numbered CPU it may run on, with the same
/// affinity calls as pxbench.  The worker pool and the parallel phases size
/// themselves from the affinity mask, so the bench then runs as on a
/// one-core host.  Returns the CPU, or `None` where affinity cannot be set.
fn pin_to_one_cpu() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
            fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
        }
        let mut mask = [0u64; 16];
        let size = std::mem::size_of_val(&mask);
        // SAFETY: both calls read or write exactly `size` bytes of a buffer
        // of that size; pid 0 is the calling thread.
        if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
            return None;
        }
        let cpu = (0..size * 8)
            .rev()
            .find(|&c| (mask[c / 64] >> (c % 64)) & 1 == 1)?;
        let mut one = [0u64; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: as above.
        if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
            return None;
        }
        Some(cpu)
    }
    #[cfg(not(target_os = "linux"))]
    None
}

fn main() {
    if let Ok(dir) = std::env::var(OPEN_PROBE_ENV) {
        run_open_probe(Path::new(&dir));
        return;
    }
    match pin_to_one_cpu() {
        Some(cpu) => println!("pinned to CPU {cpu}"),
        None => println!("could not pin to one CPU; timing unpinned"),
    }

    let cold_open = cold_open();
    println!(
        "cold_open n = {N}: JSON {:.0} ms ({} B) vs snapshot {:.0} ms ({} B); open peak {:.0} B, \
         resident {:.0} B (medians of {TRIALS})",
        cold_open.json_parse_ms.median,
        cold_open.json_bytes,
        cold_open.snapshot_open_ms.median,
        cold_open.snapshot_bytes,
        cold_open.peak_open_bytes.median,
        cold_open.open_resident_bytes.median,
    );
    let delta_refresh = delta_refresh();
    println!(
        "delta_refresh n = {N}, {ROUNDS}x{BATCH} appended: full rebuild {:.0} ms vs delta \
         refresh {:.2} ms, append {:.2} ms, query {:.1} ms (medians of {TRIALS})",
        delta_refresh.full_rebuild_ms.median,
        delta_refresh.delta_refresh_ms.median,
        delta_refresh.append_ms.median,
        delta_refresh.query_ms.median,
    );

    let report = Report {
        n: N,
        trials: TRIALS,
        git_rev: git_rev(),
        hardware_threads: shard::hardware_threads(),
        cold_open,
        delta_refresh,
    };
    let path = Path::new(WORKSPACE_ROOT).join("BENCH_scale_1m.json");
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&path, json + "\n").expect("BENCH_scale_1m.json written");
    println!("wrote {}", path.display());
}
