//! `pxbench`: one seeded command for PerfXplain's served explain latency,
//! live ingest, restart and explanation quality, with a traced per-layer
//! run.
//!
//! ```text
//! pxbench run --workload <name> --seed <u64> [--seconds <s>] [--trace 0|1] [--spans <file>]
//! pxbench check <runs-a> <runs-b> [--spec <BENCHMARK.json>]
//! ```
//!
//! `run` pins itself to one CPU, builds the workload's inputs from the
//! seed, sets the program up, drives it for `--seconds` over real loopback
//! sockets (an in-process `perfxplain_server::spawn`; restarts go through
//! `XplainService::open_snapshot`), checks every answer it checks against
//! in-process `XplainService::explain`, prints each metric by name with its
//! unit, and ends with one JSON line: `{"correct", "attempted", "failed",
//! "metrics"}`.  It exits 1 if a correctness check failed.  `--trace 0`
//! reports the end-to-end metrics; `--trace 1` runs the same workload, then
//! times every layer through its public functions and reports the per-layer
//! metrics instead, prints self time per layer, and writes its spans as JSON
//! lines (`--spans`, default `.bench_work/spans/<workload>-<seed>.jsonl`).
//! The workloads and the metric names and units are read from
//! `BENCHMARK.json` in the working directory; a run that measures a metric
//! the file does not name is incorrect.
//!
//! `check` applies each end-to-end metric's `BENCHMARK.json` bound to two
//! sets of runs (directories holding one sub-directory per workload, one
//! file of captured standard output per run) and reports median and
//! quartiles per metric and workload; it exits 1 if any metric of set B is
//! worse than set A's by more than its bound, or if either set spreads wider
//! than the bound.  Traced runs in the sets also hold explanation quality to
//! bound 0, seed by seed (see `check.rs`).
//!
//! # One core, and the host's speed
//!
//! The benchmark is written for a small guest on a shared host.  Two things
//! there move latency more than any regression worth catching, and the
//! benchmark takes both out:
//!
//! * Whether a second vCPU is free: a query that fans out over two threads
//!   ran 67 ms with it and 114 ms without, minutes apart.  A run therefore
//!   pins itself, and every thread and child process it starts, to one CPU
//!   (`cpu::pin_to_one`); the program sizes its pools from the affinity
//!   mask, so it runs as on a one-core host — the box the ROADMAP measures
//!   on.  No parallel speed-up is measured.  The CPU is the one the guest
//!   does not deliver disk interrupts to: on that one, every journal
//!   fsync's completion work landed in the query after it.
//! * How fast that one core runs, which still drifts by 20–50% over
//!   minutes.  Every request's latency is scaled by a benchmark-owned
//!   reference kernel timed next to it on the same core (`calibrate.rs`):
//!   the end-to-end `request_*_scaled_ms` are latencies on a core as fast
//!   as the one the benchmark was written on.  The raw latencies and the
//!   kernel's own time are printed beside them and reported as
//!   `server.request_*_ms` and `loadgen.calibration_ms`.
//!
//! # Workloads
//!
//! | workload | load | layers it stresses |
//! |---|---|---|
//! | `serve_blocked` | 100k-record blocked log; one analyst in a closed loop over seeded pairs; traced runs add an open-loop ladder at 2.5/5/7.5/10 req/s (25–100% of one core's closed-loop capacity when written) for `slo_qps` | pair enumeration (~80% of a query) |
//! | `paper_mix` | the paper's 540-job grid (`LogPreset::PaperGrid`, ~12.7k tasks) from the seeded simulator sweep; one analyst in a closed loop asks the job query about two pairs, then the task query about one, with `auto_despite` and `narrate`, 36 distinct requests | featurize, clause growth; enumeration is small — the bypass case |
//! | `ingest_live` | 30k base log, journal `fsync=always`; every 100 ms a writer appends 96 records and reads its own write, every fourth round a reader then asks about the base log on its own connection, a checkpoint every 5 s | journal, delta splice, compaction, checkpoint stalls |
//! | `restart_150k` | a 150k-row snapshot plus a 20k-record journal tail never checkpointed; reopen, serve, ask about the tail, wait for the background fold, ask 13 more, repeat | snapshot read, verify, decode; journal replay |
//!
//! Every workload's load comes from one client at a time, or from requests
//! spaced so that they do not queue behind one another: on one core,
//! requests that overlap share it, and how often they overlap would set
//! the latency more than the program does.
//!
//! The end-to-end metrics are the same four for every workload:
//! `setup_s` (time to become ready to serve — median of nine set-ups, or
//! of every reopen for `restart_150k`; not scaled), `request_p50_scaled_ms`
//! and `request_p90_scaled_ms` (served latency of the workload's
//! user-facing request, scaled as above: every closed-loop query of
//! `serve_blocked` and `paper_mix` after three of warm-up, every query of
//! `restart_150k` after its reopen's first, and on `ingest_live` an append
//! plus the query that reads it back, timed from sending the append), and
//! `peak_rss_mb` (VmHWM over becoming ready to serve: the watermark is
//! reset just before the first set-up, or before the first reopen for
//! `restart_150k`).  Memory while serving is `server.peak_rss_mb` in the
//! traced run: on `ingest_live` it jumps by one or two view copies
//! depending on whether queries race a delta refresh, too bimodal to
//! bound.  Open-loop requests are timed from when they were due.  A
//! percentile is reported only with at least ten samples beyond it.
//! Workload-specific numbers (append ack and reader latency, first query
//! after a restart and the wait for the fold, `slo_qps`, answer quality)
//! are printed by name beside them; their per-layer counterparts are in
//! the traced run.  Answer quality — the paper's precision, generality and
//! relevance, which a request gets by asking for `assess` — is computed in
//! process for every distinct `paper_mix` request in traced runs only: it
//! would double the cost of each request and so halve the samples a run
//! can take.  It depends on which pairs a seed asks about, so it varies
//! from seed to seed too much for an end-to-end bound; it is exact for a
//! seed, and `check` holds it to bound 0 seed by seed.
//!
//! # Measurements and findings when the benchmark was written
//!
//! On a 2-vCPU KVM guest (`nproc` = 2, Intel Xeon family 6 model 143,
//! 16 GB), release build, one CPU as above; raw milliseconds from traced
//! runs (the reference kernel took ~3.3 ms in them).  `MEASUREMENTS.md`
//! has the run-to-run spreads.
//!
//! * `serve_blocked`: a warm in-process query takes ~90–100 ms, of which
//!   pair enumeration (`training`) is ~76–82 ms, featurize (`bridge`)
//!   ~11 ms, precondition checks ~3–4 ms and clause growth ~4–5 ms.  One
//!   core answers ~10 req/s in a closed loop, hence the ladder.  The
//!   served latency equals the in-process one to within a few ms either
//!   way (`server.overhead_ms` −6 to +4 ms across workloads): the ~6–21 ms
//!   gap measured earlier with the program on two threads does not appear
//!   on one.
//! * `paper_mix` splits differently: of ~80–125 ms in process, featurize
//!   takes ~55–74 ms over 164 pair attributes, enumeration and clause
//!   growth ~20 ms each.  "Enumeration dominates" holds only for the
//!   synthetic log.  Assessing an answer would add ~150–200 ms
//!   (materialising the final training set as pair-feature maps) — more
//!   than the rest of the request.
//! * Relief and `DecisionTree::fit` are not on the query path: clauses grow
//!   through `best_split_for_attribute_filtered`, and Relief runs only
//!   behind the RuleOfThumb baseline.  `BENCH_pairs.json`'s
//!   `explain_latency` still reports `relief_ms` and `tree_ms` as query
//!   phases; pxbench times only functions the served path runs.
//! * `restart_150k`: a reopen takes ~0.4–0.45 s.  Timed one call at a
//!   time, decode takes ~320–480 ms, `into_views` ~225–345 ms (it clones
//!   every record into the views), verify ~7–9 ms and journal replay
//!   ~70–105 ms — more than the whole reopen, so the phases cost more
//!   apart than inside `open_snapshot`.  The first query after a reopen
//!   takes ~1.5–2× a warm one: it runs beside the background fold of the
//!   replayed 20k-row tail, which takes ~200 ms more to finish.  A 1M-row
//!   store peaked at ~2.9 GB RSS and took ~25 s to build per run, hence
//!   150k rows.
//! * `ingest_live`: an append is acknowledged in ~3 ms over the wire but
//!   takes ~1.1 ms in process with `fsync=always`: the ack waits on the
//!   event loop and JSON decoding more than on the disk.  The read after
//!   it grows from ~60 to ~95 ms as the append tail grows towards the
//!   8192-row compaction limit (delta refresh ~13 ms), and drops back
//!   after the fold.  A checkpoint takes ~15–45 ms.

mod calibrate;
mod check;
mod gen;
mod layers;
mod stats;
mod trace;
mod wire;
mod workloads;

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Where `run` finds the spec: the working directory, the root of the
/// repository.
const SPEC: &str = "BENCHMARK.json";

/// `BENCHMARK.json`: the workloads and the metric names, units and bounds.
/// The binary reads it at start-up, so the file is the one list of both.
#[derive(Debug, Deserialize)]
pub struct Spec {
    pub workloads: Vec<SpecWorkload>,
    pub end_to_end: Vec<SpecMetric>,
    pub per_layer: Vec<SpecMetric>,
}

#[derive(Debug, Deserialize)]
pub struct SpecWorkload {
    pub name: String,
}

#[derive(Debug, Deserialize)]
pub struct SpecMetric {
    pub name: String,
    pub unit: String,
    pub better: String,
    /// End-to-end metrics only; per-layer metrics carry no bound.
    pub bound: Option<f64>,
}

impl Spec {
    pub fn load(path: &str) -> Result<Spec, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
    }
}

/// What one run found.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness failures; any makes the run incorrect.
    pub problems: Vec<String>,
    pub end_to_end: BTreeMap<&'static str, f64>,
    pub layers: BTreeMap<&'static str, f64>,
    /// Further human-readable lines (workload-specific numbers).
    pub notes: Vec<String>,
}

impl Report {
    pub fn problem(&mut self, message: impl Into<String>) {
        self.problems.push(message.into());
    }

    pub fn note(&mut self, name: &str, value: f64, unit: &str) {
        self.notes.push(format!("{name:<28} {value:>12.4} {unit}"));
    }

    /// Counts answered requests; a non-ok response is a failure.
    pub fn tally(&mut self, samples: &[wire::Sample]) {
        self.attempted += samples.len() as u64;
        for sample in samples.iter().filter(|s| !s.response.is_ok()) {
            self.failed += 1;
            self.problem(format!(
                "request {} failed: {} {}",
                sample.index,
                sample.response.code,
                sample.response.message.as_deref().unwrap_or("")
            ));
        }
    }
}

/// Per-run settings.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory inside the working directory, removed at exit.
    pub work: PathBuf,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Metric {
    pub value: f64,
    pub unit: String,
}

/// The result line: exactly these four keys.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, Metric>,
}

fn usage() -> ! {
    eprintln!(
        "usage: pxbench run --workload <name> --seed <u64> [--seconds <s>] [--trace 0|1] [--spans <file>]\n       \
         pxbench check <runs-a> <runs-b> [--spec <BENCHMARK.json>]\n\
         (run from the directory holding BENCHMARK.json, which names the workloads)"
    );
    std::process::exit(2)
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).map(|i| {
        args.get(i + 1)
            .map(String::as_str)
            .unwrap_or_else(|| usage())
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => {
            if args.len() < 3 {
                usage();
            }
            let spec =
                Spec::load(flag(&args, "--spec").unwrap_or(SPEC)).unwrap_or_else(|e| fail(&e));
            let pass = check::run(&spec, &args[1], &args[2]).unwrap_or_else(|e| fail(&e));
            std::process::exit(if pass { 0 } else { 1 })
        }
        Some(workloads::PREPARE_RESTART) => workloads::prepare_restart_main(&args[1..]),
        Some("run") => run(&args[1..]),
        _ => usage(),
    }
}

fn run(args: &[String]) {
    let spec = Spec::load(SPEC).unwrap_or_else(|e| fail(&e));
    let workload = flag(args, "--workload").unwrap_or_else(|| usage());
    if !spec.workloads.iter().any(|w| w.name == workload) {
        usage();
    }
    let seed: u64 = flag(args, "--seed")
        .unwrap_or_else(|| usage())
        .parse()
        .unwrap_or_else(|_| usage());
    let seconds: f64 = flag(args, "--seconds")
        .map_or(Ok(16.0), str::parse)
        .unwrap_or_else(|_| usage());
    if !(seconds.is_finite() && seconds > 0.0) {
        usage();
    }
    let trace = match flag(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        _ => usage(),
    };
    let work = PathBuf::from(".bench_work").join(format!("{workload}-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        fail(&format!("cannot create {}: {e}", work.display()));
    }
    let ctx = Ctx {
        seed,
        seconds,
        trace,
        work: work.clone(),
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = cpu::pin_to_one().map_or_else(|| "unpinned".to_string(), |c| c.to_string());
    println!(
        "pxbench {workload} seed={seed} seconds={seconds} trace={} nproc={nproc} cpu={cpu}",
        trace as u8
    );

    let mut tracer = trace::Tracer::default();
    let outcome = workloads::run(workload, &ctx, &mut tracer);
    let _ = std::fs::remove_dir_all(&work);
    let report = outcome.unwrap_or_else(|e| fail(&format!("{workload} could not run: {e}")));

    for line in &report.notes {
        println!("{line}");
    }
    if trace {
        println!("self time per layer (ms, over all traced spans):");
        for (layer, (count, ms)) in tracer.self_time_by_layer() {
            println!("  {layer:<24} {count:>6} spans {ms:>12.3}");
        }
        let path = flag(args, "--spans").map_or_else(
            || PathBuf::from(".bench_work/spans").join(format!("{workload}-{seed}.jsonl")),
            PathBuf::from,
        );
        match tracer.write_jsonl(&path) {
            Ok(()) => println!(
                "spans: {} written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => fail(&format!("cannot write spans to {}: {e}", path.display())),
        }
    }
    for problem in &report.problems {
        eprintln!("check failed: {problem}");
    }

    let mut correct = report.problems.is_empty();
    let named = |name: &str| {
        spec.end_to_end
            .iter()
            .chain(&spec.per_layer)
            .any(|m| m.name == name)
    };
    for name in report.end_to_end.keys().chain(report.layers.keys()) {
        if !named(name) {
            eprintln!("check failed: metric {name} is not in {SPEC}");
            correct = false;
        }
    }
    let (wanted, values) = if trace {
        (&spec.per_layer, &report.layers)
    } else {
        (&spec.end_to_end, &report.end_to_end)
    };
    let mut metrics = BTreeMap::new();
    for metric in wanted {
        let (name, unit) = (metric.name.as_str(), metric.unit.as_str());
        let value = match values.get(name) {
            Some(value) => *value,
            // A layer the workload does not run did no work.
            None if trace => 0.0,
            None => f64::NAN,
        };
        if !value.is_finite() {
            eprintln!("check failed: metric {name} was not measured");
            correct = false;
            continue;
        }
        println!("{name:<34} {value:>12.4} {unit}");
        metrics.insert(
            name.to_string(),
            Metric {
                value,
                unit: unit.to_string(),
            },
        );
    }
    let result = RunResult {
        correct,
        attempted: report.attempted.max(1),
        failed: report.failed,
        metrics,
    };
    println!(
        "{}",
        serde_json::to_string(&result).expect("finite metrics serialize")
    );
    std::process::exit(if correct { 0 } else { 1 });
}

/// Exits without a result: the run could not be made.
fn fail(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2)
}

/// The one CPU a run is measured on.
pub mod cpu {
    /// Pins the calling thread — and so every thread and child process it
    /// starts afterwards — to one CPU it may run on, and returns that CPU
    /// (`None` where affinity cannot be set).  The program sizes its worker
    /// pool, server workers and parallel phases from the affinity mask, so
    /// it then runs as on a one-core host.  The CPU is the one that has
    /// handled the fewest block-device completions (the highest-numbered
    /// on a tie): the guest delivers a disk's interrupts to one CPU, and
    /// on that CPU every fsync's completion work would interrupt the
    /// queries measured after it.
    pub fn pin_to_one() -> Option<usize> {
        #[cfg(target_os = "linux")]
        {
            extern "C" {
                fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
                fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
            }
            let mut mask = [0u64; 16];
            let size = std::mem::size_of_val(&mask);
            // SAFETY: both calls read or write exactly `size` bytes of a
            // buffer of that size; pid 0 is the calling thread.
            if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
                return None;
            }
            let block = block_softirqs();
            let cpu = (0..size * 8)
                .rev()
                .filter(|&c| (mask[c / 64] >> (c % 64)) & 1 == 1)
                .min_by_key(|&c| block.get(c).copied().unwrap_or(0))?;
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

    /// Block-device softirqs handled per CPU since boot (empty where
    /// `/proc/softirqs` cannot be read).
    fn block_softirqs() -> Vec<u64> {
        let text = std::fs::read_to_string("/proc/softirqs").unwrap_or_default();
        text.lines()
            .find_map(|line| line.trim_start().strip_prefix("BLOCK:"))
            .map(|counts| {
                counts
                    .split_whitespace()
                    .map(|n| n.parse().unwrap_or(0))
                    .collect()
            })
            .unwrap_or_default()
    }
}

/// Kernel peak-RSS watermark: reset after input generation so the metric
/// covers set-up and serving.
pub mod rss {
    /// Resets VmHWM to the current RSS (best effort).  The heap the input
    /// generators freed is handed back to the kernel first: the allocator
    /// would otherwise keep it resident, and the watermark would start from
    /// it (the paper-grid simulator leaves ~240 MB freed but resident, three
    /// times what setting the service up on its log allocates).
    pub fn reset_peak() {
        #[cfg(all(target_os = "linux", target_env = "gnu"))]
        {
            extern "C" {
                fn malloc_trim(pad: usize) -> i32;
            }
            // SAFETY: glibc's malloc_trim only releases free heap pages; it
            // touches no live allocation.
            unsafe {
                malloc_trim(0);
            }
        }
        let _ = std::fs::write("/proc/self/clear_refs", "5");
    }

    /// VmHWM in MiB (NaN where /proc is unavailable).
    pub fn peak_mb() -> f64 {
        std::fs::read_to_string("/proc/self/status")
            .ok()
            .and_then(|status| {
                status
                    .lines()
                    .find(|l| l.starts_with("VmHWM:"))
                    .and_then(|l| l.split_whitespace().nth(1))
                    .and_then(|kb| kb.parse::<f64>().ok())
            })
            .map_or(f64::NAN, |kb| kb / 1024.0)
    }
}
