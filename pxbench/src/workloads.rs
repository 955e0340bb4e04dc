//! The four workloads.  Each builds its inputs from the seed, sets the
//! program up (timed, untraced), drives it for `--seconds`, checks its
//! answers, and in traced runs decomposes a seeded sample of its requests
//! layer by layer afterwards — after the measured phase, so the traced
//! run's served latencies (`trace.request_*`) differ from an untraced run's
//! only by the span bookkeeping.

use crate::calibrate::{self, Calibration};
use crate::gen::{self, Pair, Rng, BLOCKED_QUERY, GROUP, JOB_QUERY, TASK_QUERY};
use crate::layers::{check_served, decompose, Answer, Ask, Layers};
use crate::stats::{mean, median, percentile, rank_value, P90_SAMPLES};
use crate::trace::Tracer;
use crate::wire::{self, Sample};
use crate::{rss, Ctx, Report};
use perfxplain_core::snapshot;
use perfxplain_core::{
    CompactionPolicy, ExecutionKind, ExecutionLog, FsyncPolicy, ViewCacheStats, XplainService,
};
use perfxplain_server::{spawn, Client, QueryCost, SchedulerConfig, ServerConfig, ServerHandle};
use std::sync::Arc;
use std::time::{Duration, Instant};

type Result<T> = std::result::Result<T, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

pub fn run(workload: &str, ctx: &Ctx, tracer: &mut Tracer) -> Result<Report> {
    match workload {
        "serve_blocked" => serve_blocked(ctx, tracer),
        "paper_mix" => paper_mix(ctx, tracer),
        "ingest_live" => ingest_live(ctx, tracer),
        "restart_150k" => restart(ctx, tracer),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Set-ups per in-memory workload; `setup_s` is their median.
const SETUPS: usize = 9;

/// A service ready to serve, and its server.
type Served = (Arc<XplainService>, ServerHandle);

/// What [`timed_setups`] measured.
struct Setup {
    /// Median set-up time, s.
    seconds: f64,
    /// VmHWM over the first set-up, MB.
    peak_mb: f64,
    /// The last set-up.
    served: Served,
}

/// Runs `make` `SETUPS` times and keeps the last service and server.
///
/// The first set-up takes the generated log itself, with the peak-RSS
/// watermark reset just before it: its peak is one service's memory, with
/// no other copy of the log alive, as in a server that has just started.
/// Later set-ups would read higher, because the allocator keeps the heap
/// the set-ups before them freed.  Each later set-up gets a copy of the log,
/// taken outside the timed region from the service before it; that service
/// is dropped before the set-up starts.
fn timed_setups(
    log: ExecutionLog,
    mut make: impl FnMut(usize, ExecutionLog) -> Result<Served>,
) -> Result<Setup> {
    let mut times = Vec::new();
    let mut peak_mb = f64::NAN;
    let mut input = Some(log);
    let mut last: Option<Served> = None;
    rss::reset_peak();
    for i in 0..SETUPS {
        if let Some((service, _)) = &last {
            input = Some(service.with_log(|log| log.clone()));
        }
        drop(last.take());
        let log = input.take().expect("every set-up has its log");
        let started = Instant::now();
        let made = make(i, log)?;
        times.push(started.elapsed().as_secs_f64());
        if i == 0 {
            peak_mb = rss::peak_mb();
        }
        last = Some(made);
    }
    Ok(Setup {
        seconds: median(&times),
        peak_mb,
        served: last.expect("SETUPS > 0"),
    })
}

/// A server sized so that every query of `asks` fits, one per worker runs
/// at a time, and nothing is shed: the queue absorbs any backlog.
fn serve(service: &Arc<XplainService>, asks: &[Ask]) -> Result<ServerHandle> {
    let workers = perfxplain_core::shard::hardware_threads();
    let mut units = 1;
    for ask in asks {
        units = units.max(service.estimate_cost(&ask.request()).map_err(err)?.units());
    }
    spawn(
        Arc::clone(service),
        ServerConfig {
            workers,
            scheduler: SchedulerConfig {
                budget: QueryCost(units * workers as u64),
                queue_capacity: 4096,
                max_inflight_per_session: workers,
                max_pending_per_session: 4096,
            },
            ..ServerConfig::default()
        },
    )
    .map_err(err)
}

fn latencies(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(Sample::latency_ms).collect()
}

/// Records the request latencies: `request_p50_scaled_ms` /
/// `request_p90_scaled_ms` (and their traced twins) from `raw[i]` scaled
/// by `kernel_ms[i]`, the calibration kernel's time next to it; the raw
/// percentiles and the run's median kernel time go to `server.*` and
/// `loadgen.calibration_ms`.
fn request_metrics(report: &mut Report, ctx: &Ctx, raw: &[f64], kernel_ms: &[f64]) {
    let scaled = calibrate::scale(raw, kernel_ms);
    let (p50, p90) = (percentile(&scaled, 0.5), percentile(&scaled, 0.9));
    if p90.is_none() {
        report.problem(format!(
            "only {} request samples; a p90 needs {P90_SAMPLES}",
            raw.len()
        ));
    }
    let (p50, p90) = (p50.unwrap_or(f64::NAN), p90.unwrap_or(f64::NAN));
    let (raw50, raw90) = (rank_value(raw, 0.5), rank_value(raw, 0.9));
    let calibration = median(kernel_ms);
    report.note("request_samples", raw.len() as f64, "count");
    report.note("request_p50_ms", raw50, "ms");
    report.note("request_p90_ms", raw90, "ms");
    report.note("calibration_ms", calibration, "ms");
    report.end_to_end.insert("request_p50_scaled_ms", p50);
    report.end_to_end.insert("request_p90_scaled_ms", p90);
    report.layers.insert("server.request_p50_ms", raw50);
    report.layers.insert("server.request_p90_ms", raw90);
    report.layers.insert("loadgen.calibration_ms", calibration);
    if ctx.trace {
        report.layers.insert("trace.request_p50_scaled_ms", p50);
        report.layers.insert("trace.request_p90_scaled_ms", p90);
    }
}

fn note_latency(report: &mut Report, name: &str, values: &[f64]) {
    if let Some(p50) = percentile(values, 0.5) {
        report.note(&format!("{name}_p50_ms"), p50, "ms");
    }
    if let Some(p90) = percentile(values, 0.9) {
        report.note(&format!("{name}_p90_ms"), p90, "ms");
    }
}

/// Folds decomposed requests into the per-layer medians, and sets the
/// served latency of the same requests against their in-process time.
fn layer_metrics(report: &mut Report, decomposed: &[(Layers, f64)]) {
    if decomposed.is_empty() {
        return;
    }
    let of =
        |f: fn(&Layers) -> f64| median(&decomposed.iter().map(|(l, _)| f(l)).collect::<Vec<_>>());
    let rows = [
        ("pxql.parse_ms", of(|l| l.parse_ms)),
        ("query.verify_ms", of(|l| l.verify_ms)),
        ("service.view_ms", of(|l| l.view_ms)),
        ("training.enumerate_ms", of(|l| l.enumerate_ms)),
        ("training.related_pairs", of(|l| l.related_pairs)),
        (
            "training.sampled_over_related",
            of(|l| l.sampled / l.related_pairs.max(1.0)),
        ),
        ("bridge.featurize_ms", of(|l| l.featurize_ms)),
        ("bridge.attributes", of(|l| l.attributes)),
        ("explain.clause_ms", of(|l| l.clause_ms)),
        ("metrics.assess_ms", of(|l| l.assess_ms)),
        ("narrate.narrate_ms", of(|l| l.narrate_ms)),
        ("trace.coverage", of(|l| l.coverage)),
    ];
    for (name, value) in rows {
        report.layers.insert(name, value);
    }
    let overhead: Vec<f64> = decomposed
        .iter()
        .map(|(l, wire_ms)| wire_ms - l.in_process_ms)
        .collect();
    report
        .layers
        .insert("server.overhead_ms", median(&overhead));
    report.note("in_process_request_ms", of(|l| l.in_process_ms), "ms");
}

/// Scheduler counters from the status probe, plus admission estimate over
/// refined charge for the answered requests.
fn scheduler_metrics(report: &mut Report, addr: &str, estimates: &[(u64, &Sample)]) -> Result<()> {
    let status = wire::status(addr).map_err(err)?;
    let counters = [
        ("scheduler.admitted", status.admitted),
        ("scheduler.shed", status.shed),
        ("scheduler.expired", status.expired),
        ("scheduler.refunded_units", status.refunded_units),
    ];
    for (name, value) in counters {
        report.layers.insert(name, value.unwrap_or(0) as f64);
    }
    let ratios: Vec<f64> = estimates
        .iter()
        .filter_map(|(units, s)| {
            s.response
                .cost_units
                .map(|c| *units as f64 / c.max(1) as f64)
        })
        .collect();
    if !ratios.is_empty() {
        report
            .layers
            .insert("scheduler.estimate_over_refined", median(&ratios));
    }
    Ok(())
}

/// View-cache counters since `warm` (the set-up's own builds excluded).
/// Set-up leaves every view a workload queries warm, so any full rebuild
/// afterwards is a failure: appends must stay on the delta path.
fn view_counters(report: &mut Report, service: &XplainService, warm: ViewCacheStats) {
    let now = service.view_stats();
    let rebuilds = now.full_rebuilds - warm.full_rebuilds;
    if rebuilds > 0 {
        report.problem(format!("{rebuilds} full view rebuilds after set-up"));
    }
    let counters = [
        (
            "service.delta_refreshes",
            now.delta_refreshes - warm.delta_refreshes,
        ),
        ("service.full_rebuilds", rebuilds),
        ("service.compactions", now.compactions - warm.compactions),
    ];
    for (name, value) in counters {
        report.layers.insert(name, value as f64);
    }
}

fn view_hit_ratio(samples: &[Sample]) -> f64 {
    let hits = samples
        .iter()
        .filter(|s| s.response.view_reused == Some(true))
        .count();
    hits as f64 / samples.len().max(1) as f64
}

// ---------------------------------------------------------------------------
// serve_blocked
// ---------------------------------------------------------------------------

const BLOCKED_ROWS: usize = 100_000;

/// Distinct pairs of interest a `serve_blocked` run asks about in turn.
const BLOCKED_ASKS: usize = 1000;

/// Requests a closed loop sends before the ones it times: the first
/// queries after set-up fault in pages the later ones find resident.
const WARMUP: usize = 3;

/// The traced run's open-loop rate ladder (req/s): about 25/50/75/100% of
/// the closed-loop capacity of one core when the benchmark was written,
/// `RUNG_SECONDS` per rung.
const LADDER: [f64; 4] = [2.5, 5.0, 7.5, 10.0];
const RUNG_SECONDS: f64 = 4.0;

/// A rung meets the objective when its p90 stays within this.
const SLO_P90_MS: f64 = 200.0;

/// Served answers re-checked in process, per workload run.
const CHECKED: usize = 8;

/// Requests decomposed layer by layer in traced runs.
const DECOMPOSED: usize = 12;

fn serve_blocked(ctx: &Ctx, tracer: &mut Tracer) -> Result<Report> {
    let mut report = Report::default();
    let log = gen::blocked_log(ctx.seed, BLOCKED_ROWS);
    let asks: Vec<Ask> = gen::blocked_pairs(ctx.seed, 0, BLOCKED_ROWS / GROUP, BLOCKED_ASKS)
        .into_iter()
        .map(|p| Ask::plain(BLOCKED_QUERY, p))
        .collect();
    let ask_of = |sample: &Sample| &asks[sample.index % asks.len()];

    let setup = timed_setups(log, |_, log| {
        let service = Arc::new(XplainService::new(log));
        service.view(ExecutionKind::Job);
        let server = serve(&service, &asks[..1])?;
        Ok((service, server))
    })?;
    let (service, server) = setup.served;
    report.end_to_end.insert("setup_s", setup.seconds);
    report.end_to_end.insert("peak_rss_mb", setup.peak_mb);
    let addr = server.addr().to_string();
    let warm = service.view_stats();

    // One analyst at a time: each query is sent when the last answer is in.
    let requests: Vec<_> = asks.iter().map(Ask::wire).collect();
    let mut calibration = Calibration::default();
    let samples = wire::closed_loop(
        &addr,
        &requests,
        WARMUP,
        ctx.seconds,
        P90_SAMPLES + 10,
        &mut calibration,
    )
    .map_err(err)?;
    report.tally(&samples);
    let measured = &samples[WARMUP..];
    request_metrics(
        &mut report,
        ctx,
        &latencies(measured),
        &calibration.times_ms()[WARMUP..],
    );
    report.layers.insert("server.peak_rss_mb", rss::peak_mb());
    report
        .layers
        .insert("service.view_hit_ratio", view_hit_ratio(&samples));
    view_counters(&mut report, &service, warm);

    // Re-check a seeded sample in process.
    let mut rng = Rng::stream(ctx.seed, 0xc4ec, 0);
    for _ in 0..CHECKED {
        let sample = &measured[rng.below(measured.len())];
        if let Err(problem) = check_served(&service, ask_of(sample), &sample.response) {
            report.problem(problem);
        }
    }

    if ctx.trace {
        // Independent analysts: the open-loop ladder, after the measured
        // phase, over pairs the closed loop did not ask about.
        let mut offset = samples.len();
        let mut all = Vec::new();
        for rate in LADDER {
            let requests: Vec<(Duration, _)> = wire::schedule(rate, RUNG_SECONDS)
                .into_iter()
                .enumerate()
                .map(|(i, due)| (due, requests[(offset + i) % asks.len()].clone()))
                .collect();
            let start = Instant::now() + Duration::from_millis(20);
            let mut rung = wire::open_loop(&addr, start, &requests, 1).map_err(err)?;
            for sample in &mut rung {
                sample.index += offset;
            }
            offset += rung.len();
            report.tally(&rung);
            let lat = latencies(&rung);
            let lags: Vec<f64> = rung.iter().map(Sample::lag_ms).collect();
            let quarter = rung.len() / 4;
            let growing = quarter > 0
                && median(&lat[lat.len() - quarter..]) > 2.0 * median(&lat[..quarter]) + 25.0;
            let meets = rank_value(&lat, 0.9) <= SLO_P90_MS
                && rung.iter().all(|s| s.response.is_ok())
                && !growing
                && rank_value(&lags, 0.9) <= 25.0;
            report.notes.push(format!(
                "rung {rate:>4.1} req/s: n={:<4} p50 {:>8.2} ms  p90 {:>8.2} ms  lag p90 {:>6.2} ms  {}",
                rung.len(),
                rank_value(&lat, 0.5),
                rank_value(&lat, 0.9),
                rank_value(&lags, 0.9),
                if meets {
                    "meets the objective"
                } else {
                    "misses the objective"
                }
            ));
            if meets {
                report.layers.insert("server.slo_qps", rate);
            }
            all.extend(rung);
        }
        let slo = report.layers.get("server.slo_qps").copied().unwrap_or(0.0);
        report.note("slo_qps", slo, "1/s");
        report.layers.insert(
            "loadgen.lag_p90_ms",
            rank_value(&all.iter().map(Sample::lag_ms).collect::<Vec<_>>(), 0.9),
        );

        let estimate = service
            .estimate_cost(&asks[0].request())
            .map_err(err)?
            .units();
        let estimates: Vec<(u64, &Sample)> = measured.iter().map(|s| (estimate, s)).collect();
        scheduler_metrics(&mut report, &addr, &estimates)?;
        let snapshot = service.snapshot();
        let mut client = Client::connect(&addr).map_err(err)?;
        let mut decomposed = Vec::new();
        for i in 0..DECOMPOSED {
            let ask = ask_of(&measured[rng.below(measured.len())]);
            let served = wire::call(&mut client, i, &ask.wire()).map_err(err)?;
            let layers = decompose(&service, &snapshot, ask, false, tracer, i as u64)?;
            decomposed.push((layers, served.latency_ms()));
        }
        layer_metrics(&mut report, &decomposed);
    }
    server.shutdown();
    Ok(report)
}

// ---------------------------------------------------------------------------
// paper_mix
// ---------------------------------------------------------------------------

/// Turns per run.  In each turn the analyst asks the job query about two
/// pairs and the task query about one.  The task query costs more on
/// average, so the 2:1 mix lets one analyst (no self-contention) reach the
/// hundred-odd answers a p90 needs within the run.  The distinct requests
/// average out how much any one pair costs: with few, a seed's dearest
/// pairs set the p90 of its run.
const TURNS: usize = 12;

fn paper_ask(query: &'static str, pair: Pair) -> Ask {
    Ask {
        auto_despite: true,
        narrate: true,
        ..Ask::plain(query, pair)
    }
}

fn paper_mix(ctx: &Ctx, tracer: &mut Tracer) -> Result<Report> {
    let mut report = Report::default();
    let log = workload::build_execution_log(workload::LogPreset::PaperGrid, ctx.seed);
    // Spare candidates, for the pairs the engine cannot answer.
    let (jobs, tasks) = gen::paper_pairs(&log, ctx.seed, 4 * TURNS);
    let (Some(job_pair), Some(task_pair)) = (jobs.first(), tasks.first()) else {
        return Err("the paper log holds no pair of interest".to_string());
    };
    // The cost estimate depends on the query kind, not on the pair, so one
    // ask of each kind sizes the server for all of them.
    let kinds = [
        paper_ask(JOB_QUERY, job_pair.clone()),
        paper_ask(TASK_QUERY, task_pair.clone()),
    ];

    let setup = timed_setups(log, |_, log| {
        let service = Arc::new(XplainService::new(log));
        service.view(ExecutionKind::Job);
        service.view(ExecutionKind::Task);
        let server = serve(&service, &kinds)?;
        Ok((service, server))
    })?;
    let (service, server) = setup.served;
    report.end_to_end.insert("setup_s", setup.seconds);
    report.end_to_end.insert("peak_rss_mb", setup.peak_mb);

    // Reference answers, in process, once per distinct request; a pair the
    // engine cannot answer (too few training pairs) is not asked.
    let answerable = |query: &'static str, pairs: Vec<Pair>, want: usize| {
        pairs
            .into_iter()
            .filter_map(|pair| {
                let ask = paper_ask(query, pair);
                let outcome = service.explain(&ask.request()).ok()?;
                Some((ask, Answer::of_outcome(&outcome)))
            })
            .take(want)
            .collect::<Vec<_>>()
    };
    let job = answerable(JOB_QUERY, jobs, 2 * TURNS);
    let task = answerable(TASK_QUERY, tasks, TURNS);
    if job.len() < 2 * TURNS || task.len() < TURNS {
        return Err("the paper log holds too few answerable pairs of interest".to_string());
    }
    let (asks, expected): (Vec<Ask>, Vec<Answer>) = (0..TURNS)
        .flat_map(|t| [job[2 * t].clone(), job[2 * t + 1].clone(), task[t].clone()])
        .unzip();
    let addr = server.addr().to_string();
    let warm = service.view_stats();

    // Closed loop: the analyst asks, reads the answer, asks the next; the
    // run lasts `--seconds`, longer only if a p90 with ten samples beyond
    // it needs more requests.
    let requests: Vec<_> = asks.iter().map(Ask::wire).collect();
    let mut calibration = Calibration::default();
    let samples = wire::closed_loop(
        &addr,
        &requests,
        WARMUP,
        ctx.seconds,
        P90_SAMPLES + 10,
        &mut calibration,
    )
    .map_err(err)?;
    report.tally(&samples);
    request_metrics(
        &mut report,
        ctx,
        &latencies(&samples[WARMUP..]),
        &calibration.times_ms()[WARMUP..],
    );
    report.layers.insert("server.peak_rss_mb", rss::peak_mb());
    report
        .layers
        .insert("service.view_hit_ratio", view_hit_ratio(&samples));
    view_counters(&mut report, &service, warm);

    // Every served answer must equal the in-process one.
    let mismatched: Vec<&Sample> = samples
        .iter()
        .filter(|s| Answer::of_wire(&s.response) != expected[s.index % asks.len()])
        .collect();
    if let Some(first) = mismatched.first() {
        let which = first.index % asks.len();
        report.problem(format!(
            "{} served answers differ from in-process; the first, for {:?}: served {:?}, in-process {:?}",
            mismatched.len(),
            asks[which],
            Answer::of_wire(&first.response),
            expected[which]
        ));
    }
    report.note("distinct_requests", asks.len() as f64, "count");

    if ctx.trace {
        let estimates: Vec<u64> = asks
            .iter()
            .map(|a| service.estimate_cost(&a.request()).map(|e| e.units()))
            .collect::<std::result::Result<_, _>>()
            .map_err(err)?;
        let pairs: Vec<(u64, &Sample)> = samples
            .iter()
            .map(|s| (estimates[s.index % asks.len()], s))
            .collect();
        scheduler_metrics(&mut report, &addr, &pairs)?;
        let snapshot = service.snapshot();
        let mut client = Client::connect(&addr).map_err(err)?;
        let mut decomposed = Vec::new();
        let mut quality = Vec::new();
        for (i, ask) in asks.iter().enumerate() {
            let served = wire::call(&mut client, i, &ask.wire()).map_err(err)?;
            let layers = decompose(&service, &snapshot, ask, true, tracer, i as u64)?;
            decomposed.push((layers, served.latency_ms()));
            // The paper's quality measures, as the product computes them
            // for a request that asks for its answer to be assessed.
            let assessed = service
                .explain(&ask.request().with_assessment())
                .map_err(err)?;
            quality.push(Answer::of_outcome(&assessed).quality);
        }
        layer_metrics(&mut report, &decomposed);
        let names = [
            "metrics.precision",
            "metrics.generality",
            "metrics.relevance",
        ];
        for (i, name) in names.into_iter().enumerate() {
            let value = mean(&quality.iter().filter_map(|q| q[i]).collect::<Vec<_>>());
            report.note(&name["metrics.".len()..], value, "ratio");
            report.layers.insert(name, value);
        }
    }
    server.shutdown();
    Ok(report)
}

// ---------------------------------------------------------------------------
// ingest_live
// ---------------------------------------------------------------------------

const INGEST_ROWS: usize = 30_000;
/// 96 records every 100 ms, so the tail passes the 8192-row compaction
/// limit within the run.  A round (calibration kernel, append ack, the
/// read-your-write query) fits its period on one core; one with the
/// reader's query may run over, and the next starts as soon as it ends.
/// Many short rounds put a run's p90 among ordinary rounds rather than
/// among the few a checkpoint or a compaction slowed.
const BATCH: usize = 96;
const ROUND: Duration = Duration::from_millis(100);
/// The reader asks about the base log once every this many rounds, after
/// the writer's read: on one core, a reader running beside the writer
/// would share the core with it, and with the calibration kernel.
const READER_EVERY: usize = 4;
const CHECKPOINT_EVERY: Duration = Duration::from_secs(5);
/// Rounds run before the timed ones (the journal file's first growth).
const WARMUP_ROUNDS: usize = 2;

/// The read-your-write pair inside appended batch `round`: two big-block
/// jobs of the first group that lies wholly inside the batch.
fn ryw_ask(seed: u64, round: usize) -> Ask {
    let start = INGEST_ROWS + round * BATCH;
    let group = start.div_ceil(GROUP);
    let mut rng = Rng::stream(seed, 0x0072_7977, round as u64);
    Ask::plain(BLOCKED_QUERY, gen::blocked_pair_in(&mut rng, group))
}

fn append_request(seed: u64, round: usize) -> Result<perfxplain_server::WireRequest> {
    let start = INGEST_ROWS + round * BATCH;
    let records = gen::blocked_records(seed, start..start + BATCH);
    Ok(perfxplain_server::WireRequest {
        target: Some("append".to_string()),
        records: Some(serde_json::to_string(&records).map_err(err)?),
        ..Default::default()
    })
}

/// One writer round: the append, the read-your-write query, and the ack's
/// generation.
struct Round {
    append: Sample,
    read: Sample,
    ack_generation: u64,
}

impl Round {
    fn visible_ms(&self) -> f64 {
        (self.read.done - self.append.sent).as_secs_f64() * 1e3
    }
}

fn ingest_live(ctx: &Ctx, tracer: &mut Tracer) -> Result<Report> {
    let mut report = Report::default();
    let log = gen::blocked_log(ctx.seed, INGEST_ROWS);
    let rounds = WARMUP_ROUNDS
        + ((ctx.seconds / ROUND.as_secs_f64()).floor() as usize).max(P90_SAMPLES + 10);
    let appends: Vec<_> = (0..rounds)
        .map(|r| append_request(ctx.seed, r))
        .collect::<Result<_>>()?;
    let reader_asks: Vec<Ask> = gen::blocked_pairs(
        ctx.seed,
        1,
        INGEST_ROWS / GROUP,
        rounds.div_ceil(READER_EVERY),
    )
    .into_iter()
    .map(|p| Ask::plain(BLOCKED_QUERY, p))
    .collect();

    let store = |i: usize| ctx.work.join(format!("store-{i}"));
    let setup = timed_setups(log, |i, log| {
        let dir = store(i);
        let service = Arc::new(XplainService::new(log));
        service.persist(&dir).map_err(err)?;
        service
            .enable_journal(&dir, FsyncPolicy::Always)
            .map_err(err)?;
        service.view(ExecutionKind::Job);
        let server = serve(&service, &reader_asks[..1])?;
        Ok((service, server))
    })?;
    for i in 0..SETUPS - 1 {
        let _ = std::fs::remove_dir_all(store(i));
    }
    let dir = store(SETUPS - 1);
    let (service, server) = setup.served;
    report.end_to_end.insert("setup_s", setup.seconds);
    report.end_to_end.insert("peak_rss_mb", setup.peak_mb);
    let addr = server.addr().to_string();
    let warm = service.view_stats();

    let start = Instant::now() + Duration::from_millis(20);
    type Clients = (Vec<Round>, Vec<Sample>, Calibration);
    let (clients, checkpoints) = std::thread::scope(|scope| {
        let clients = scope.spawn(|| -> std::io::Result<Clients> {
            let mut writer = Client::connect(&addr)?;
            let mut reader = Client::connect(&addr)?;
            let mut calibration = Calibration::default();
            let mut done = Vec::with_capacity(rounds);
            let mut reads = Vec::with_capacity(reader_asks.len());
            for (round, append) in appends.iter().enumerate() {
                let due = start + ROUND * round as u32;
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                // The server is idle at the start of a round.
                calibration.sample();
                let append_sample = wire::call(&mut writer, round, append)?;
                let ack_generation = append_sample.response.generation.unwrap_or(0);
                let read = wire::call(&mut writer, round, &ryw_ask(ctx.seed, round).wire())?;
                done.push(Round {
                    append: append_sample,
                    read,
                    ack_generation,
                });
                if round % READER_EVERY == 0 {
                    let index = round / READER_EVERY;
                    reads.push(wire::call(&mut reader, index, &reader_asks[index].wire())?);
                }
            }
            Ok((done, reads, calibration))
        });
        // The serving host checkpoints periodically while the clients run.
        let mut checkpoints = Vec::new();
        let mut due = start + CHECKPOINT_EVERY;
        while !clients.is_finished() {
            if Instant::now() >= due {
                let began = Instant::now();
                let outcome = service.checkpoint(&dir);
                checkpoints.push((began.elapsed().as_secs_f64() * 1e3, outcome.map(|_| ())));
                due += CHECKPOINT_EVERY;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        (clients.join().expect("client thread panicked"), checkpoints)
    });
    let (writer, reader, calibration) = clients.map_err(err)?;

    let appended: Vec<Sample> = writer.iter().map(|r| r.append.clone()).collect();
    let reads: Vec<Sample> = writer.iter().map(|r| r.read.clone()).collect();
    report.tally(&appended);
    report.tally(&reads);
    report.tally(&reader);
    for round in &writer {
        if round.append.response.durable != Some(true) {
            report.problem(format!(
                "append {} was not acknowledged durable",
                round.append.index
            ));
        }
        if round.read.response.generation.unwrap_or(0) < round.ack_generation {
            report.problem(format!(
                "read-your-write query {} answered at generation {:?}, before its append ({})",
                round.read.index, round.read.response.generation, round.ack_generation
            ));
        }
    }
    for (ms, outcome) in &checkpoints {
        if let Err(e) = outcome {
            report.problem(format!("checkpoint failed after {ms:.1} ms: {e}"));
        }
    }
    let visible: Vec<f64> = writer[WARMUP_ROUNDS..]
        .iter()
        .map(Round::visible_ms)
        .collect();
    // The user-facing request of live ingest: an append and the query that
    // reads it back, timed from sending the append (journal, delta splice
    // and query all on the path).
    request_metrics(
        &mut report,
        ctx,
        &visible,
        &calibration.times_ms()[WARMUP_ROUNDS..],
    );
    report.layers.insert("server.peak_rss_mb", rss::peak_mb());
    let append_ms: Vec<f64> = appended
        .iter()
        .map(|s| (s.done - s.sent).as_secs_f64() * 1e3)
        .collect();
    note_latency(&mut report, "append", &append_ms);
    note_latency(&mut report, "reader", &latencies(&reader));
    let checkpoint_ms: Vec<f64> = checkpoints.iter().map(|(ms, _)| *ms).collect();
    report.note("checkpoints", checkpoint_ms.len() as f64, "count");
    if !checkpoint_ms.is_empty() {
        report.note("checkpoint_max_ms", rank_value(&checkpoint_ms, 1.0), "ms");
    }

    // The log holds exactly the acknowledged rows, and no append forced a
    // rebuild of the warm view.
    let rows = service.with_log(|log| log.len());
    let acked: u64 = appended.iter().filter_map(|s| s.response.appended).sum();
    if rows as u64 != INGEST_ROWS as u64 + acked {
        report.problem(format!(
            "log holds {rows} rows, {} acknowledged",
            INGEST_ROWS as u64 + acked
        ));
    }
    view_counters(&mut report, &service, warm);
    report.note("compactions", report.layers["service.compactions"], "count");
    let all: Vec<Sample> = [reads.clone(), reader.clone()].concat();
    report
        .layers
        .insert("service.view_hit_ratio", view_hit_ratio(&all));
    if let (Some(p50), Some(p90)) = (percentile(&append_ms, 0.5), percentile(&append_ms, 0.9)) {
        report.layers.insert("server.append_p50_ms", p50);
        report.layers.insert("server.append_p90_ms", p90);
    }
    if !checkpoint_ms.is_empty() {
        report
            .layers
            .insert("snapshot.checkpoint_ms", median(&checkpoint_ms));
    }

    // With the log quiet, re-ask a seeded sample over the wire and in
    // process at the same generation.
    let mut rng = Rng::stream(ctx.seed, 0xc4ec, 1);
    let mut client = Client::connect(&addr).map_err(err)?;
    for i in 0..CHECKED {
        let ask = if i % 2 == 0 {
            reader_asks[rng.below(reader_asks.len())].clone()
        } else {
            ryw_ask(ctx.seed, rng.below(rounds.max(1)))
        };
        let served = client.call(&ask.wire()).map_err(err)?;
        if let Err(problem) = check_served(&service, &ask, &served) {
            report.problem(problem);
        }
    }

    if ctx.trace {
        let estimate = service
            .estimate_cost(&reader_asks[0].request())
            .map_err(err)?
            .units();
        let estimates: Vec<(u64, &Sample)> = reader.iter().map(|s| (estimate, s)).collect();
        scheduler_metrics(&mut report, &addr, &estimates)?;
        // In-process appends with the journal on, each followed by the view
        // refresh and the read-your-write query it enables.
        let mut append_times = Vec::new();
        let mut refresh_times = Vec::new();
        let fsyncs_before = service.journal_stats().map_or(0, |j| j.fsyncs);
        let mut decomposed = Vec::new();
        let extra = 6;
        for k in 0..extra {
            let round = rounds + k;
            let begin = INGEST_ROWS + round * BATCH;
            let records = gen::blocked_records(ctx.seed, begin..begin + BATCH);
            let (outcome, id) = tracer.time("snapshot.journal_append", None, k as u64, || {
                service.append(records)
            });
            outcome.map_err(err)?;
            append_times.push(tracer.span(id).duration_ms());
            let (_, id) = tracer.time("service.view_refresh", None, k as u64, || {
                service.view(ExecutionKind::Job)
            });
            refresh_times.push(tracer.span(id).duration_ms());
            // Served and in-process answers of the same read, both on the
            // refreshed view.
            let ask = ryw_ask(ctx.seed, round);
            let served = wire::call(&mut client, k, &ask.wire()).map_err(err)?;
            let snapshot = service.snapshot();
            let layers = decompose(&service, &snapshot, &ask, false, tracer, k as u64)?;
            decomposed.push((layers, served.latency_ms()));
        }
        let fsyncs = service.journal_stats().map_or(0, |j| j.fsyncs) - fsyncs_before;
        layer_metrics(&mut report, &decomposed);
        report
            .layers
            .insert("snapshot.journal_append_ms", median(&append_times));
        report
            .layers
            .insert("snapshot.fsyncs_per_append", fsyncs as f64 / extra as f64);
        report
            .layers
            .insert("service.view_ms", median(&refresh_times));
    }
    server.shutdown();
    Ok(report)
}

// ---------------------------------------------------------------------------
// restart_150k
// ---------------------------------------------------------------------------

const RESTART_ROWS: usize = 150_000;
const TAIL: usize = 20_000;
const TAIL_BATCH: usize = 500;
/// Warm queries sent after each reopen's first query: nine reopens give
/// the hundred-odd samples a p90 needs.
const WARM_QUERIES: usize = 13;
/// Reopens per run at least; `setup_s` is their median.
const MIN_REOPENS: usize = 9;
/// The longest wait for the background fold after a reopen.
const FOLD_WAIT: Duration = Duration::from_secs(5);

/// Internal sub-command that builds the restart store in a child process,
/// so the measuring process starts without the generator's memory.
pub const PREPARE_RESTART: &str = "prepare-restart";

/// `pxbench prepare-restart <dir> <seed>`: persist the base log, then
/// append the journal tail through the journal and never checkpoint it.
pub fn prepare_restart_main(args: &[String]) -> ! {
    let outcome = (|| -> Result<()> {
        let [dir, seed] = args else {
            return Err("usage: prepare-restart <dir> <seed>".to_string());
        };
        let seed: u64 = seed.parse().map_err(err)?;
        let dir = std::path::Path::new(dir);
        let service = XplainService::new(gen::blocked_log(seed, RESTART_ROWS));
        service.persist(dir).map_err(err)?;
        service
            .enable_journal(dir, FsyncPolicy::OnCheckpoint)
            .map_err(err)?;
        for start in (RESTART_ROWS..RESTART_ROWS + TAIL).step_by(TAIL_BATCH) {
            service
                .append(gen::blocked_records(seed, start..start + TAIL_BATCH))
                .map_err(err)?;
        }
        service.sync_journal().map_err(err)
    })();
    match outcome {
        Ok(()) => std::process::exit(0),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1)
        }
    }
}

fn dir_bytes(dir: &std::path::Path) -> Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(err)? {
        total += entry.map_err(err)?.metadata().map_err(err)?.len();
    }
    Ok(total)
}

fn restart(ctx: &Ctx, tracer: &mut Tracer) -> Result<Report> {
    let mut report = Report::default();
    let dir = ctx.work.join("store");
    let status = std::process::Command::new(std::env::current_exe().map_err(err)?)
        .args([
            PREPARE_RESTART,
            &dir.display().to_string(),
            &ctx.seed.to_string(),
        ])
        .status()
        .map_err(err)?;
    if !status.success() {
        return Err(format!("preparing the restart store failed ({status})"));
    }
    let acked = RESTART_ROWS + TAIL;
    report.layers.insert(
        "snapshot.bytes_per_row",
        dir_bytes(&dir)? as f64 / acked as f64,
    );
    let groups = acked / GROUP;
    let tail_groups = RESTART_ROWS / GROUP..groups;
    rss::reset_peak();

    let mut rng = Rng::stream(ctx.seed, 0x7265_7374, 0);
    let mut reopen_s = Vec::new();
    let mut first_ms = Vec::new();
    let mut fold_ms = Vec::new();
    let fold_limit = CompactionPolicy::default().tail_limit as u64;
    let mut warm_ms = Vec::new();
    let mut calibration = Calibration::default();
    let mut samples: Vec<Sample> = Vec::new();
    let mut asked: Vec<Ask> = Vec::new();
    let started = Instant::now();
    let mut last = None;
    while reopen_s.len() < MIN_REOPENS
        || started.elapsed().as_secs_f64() < ctx.seconds
        || warm_ms.len() < P90_SAMPLES + 10
    {
        drop(last.take());
        // The first query asks about records that only the journal holds.
        let group = tail_groups.start + rng.below(tail_groups.len());
        let first = Ask::plain(BLOCKED_QUERY, gen::blocked_pair_in(&mut rng, group));
        let began = Instant::now();
        let service = Arc::new(XplainService::open_snapshot(&dir).map_err(err)?);
        let server = serve(&service, std::slice::from_ref(&first))?;
        reopen_s.push(began.elapsed().as_secs_f64());
        if reopen_s.len() == 1 {
            // Later reopens in this one process also pay for what the
            // allocator kept from earlier ones; a restarted server opens once.
            report.end_to_end.insert("peak_rss_mb", rss::peak_mb());
        }
        let rows = service.with_log(|log| log.len());
        if rows != acked {
            report.problem(format!(
                "reopen recovered {rows} rows, {acked} were acknowledged"
            ));
        }
        let mut client = Client::connect(&server.addr().to_string()).map_err(err)?;
        let index = samples.len();
        let sample = wire::call(&mut client, index, &first.wire()).map_err(err)?;
        if sample.response.view_reused != Some(true) {
            report.problem(format!(
                "first query after reopen {} missed the warm view",
                reopen_s.len()
            ));
        }
        first_ms.push(sample.latency_ms());
        samples.push(sample);
        asked.push(first);
        // The replayed tail sits in an append segment past the compaction
        // limit, so the first query scheduled a background fold.  On one
        // core it would slow the next queries; they are asked once it is
        // done, and the wait is reported on its own.
        let folding = Instant::now();
        while service.view_stats().tail_rows >= fold_limit && folding.elapsed() < FOLD_WAIT {
            std::thread::sleep(Duration::from_millis(1));
        }
        fold_ms.push(folding.elapsed().as_secs_f64() * 1e3);
        for _ in 0..WARM_QUERIES {
            let group = rng.below(groups);
            let ask = Ask::plain(BLOCKED_QUERY, gen::blocked_pair_in(&mut rng, group));
            let index = samples.len();
            let sample = wire::call(&mut client, index, &ask.wire()).map_err(err)?;
            calibration.sample();
            warm_ms.push(sample.latency_ms());
            samples.push(sample);
            asked.push(ask);
        }
        // Re-check this reopen's first answer and one warm answer.
        let warm = index + 1 + rng.below(WARM_QUERIES);
        for i in [index, warm] {
            if let Err(problem) = check_served(&service, &asked[i], &samples[i].response) {
                report.problem(problem);
            }
        }
        // A reopened service starts from zero; its replay splices by delta.
        view_counters(&mut report, &service, ViewCacheStats::default());
        server.shutdown();
        last = Some(service);
    }
    report.layers.insert("server.peak_rss_mb", rss::peak_mb());
    report.tally(&samples);
    report.end_to_end.insert("setup_s", median(&reopen_s));
    // The first query after each reopen is reported on its own: mixed in,
    // one slow sample in thirteen would sit right at the p90.
    request_metrics(&mut report, ctx, &warm_ms, calibration.times_ms());
    report.note("reopens", reopen_s.len() as f64, "count");
    report.note("first_query_ms", median(&first_ms), "ms");
    report.note("fold_wait_ms", median(&fold_ms), "ms");
    report
        .layers
        .insert("server.first_query_ms", median(&first_ms));
    report
        .layers
        .insert("service.view_hit_ratio", view_hit_ratio(&samples));
    report.note(
        "store_bytes_per_row",
        report.layers["snapshot.bytes_per_row"],
        "B/row",
    );

    if ctx.trace {
        let service = last.take().expect("at least one reopen");
        let server = serve(&service, &asked[..1])?;
        let addr = server.addr().to_string();
        let mut client = Client::connect(&addr).map_err(err)?;
        let snapshot = service.snapshot();
        let mut decomposed = Vec::new();
        let mut estimates = Vec::new();
        let mut served = Vec::new();
        for i in 0..8 {
            // The first reopen's warm queries.
            let ask = &asked[1 + i];
            let sample = wire::call(&mut client, i, &ask.wire()).map_err(err)?;
            estimates.push(service.estimate_cost(&ask.request()).map_err(err)?.units());
            decomposed.push((
                decompose(&service, &snapshot, ask, false, tracer, i as u64)?,
                sample.latency_ms(),
            ));
            served.push(sample);
        }
        let pairs: Vec<(u64, &Sample)> = estimates.iter().copied().zip(&served).collect();
        scheduler_metrics(&mut report, &addr, &pairs)?;
        layer_metrics(&mut report, &decomposed);
        server.shutdown();
        drop((service, snapshot));

        // The open path, layer by layer.  Replay is timed directly — the
        // journal read plus the delta splice it feeds, on a copy of the
        // store without its journal — because `open_snapshot` minus its
        // other phases is smaller than their run-to-run noise.
        let plain = ctx.work.join("store-plain");
        std::fs::create_dir_all(&plain).map_err(err)?;
        for entry in std::fs::read_dir(&dir).map_err(err)? {
            let path = entry.map_err(err)?.path();
            if path
                .file_name()
                .is_some_and(|n| n != snapshot::JOURNAL_FILE)
            {
                std::fs::copy(&path, plain.join(path.file_name().expect("a file name")))
                    .map_err(err)?;
            }
        }
        let (mut verify, mut decode, mut into_views, mut replay) = (vec![], vec![], vec![], vec![]);
        for round in 0..3u64 {
            let ms = |tracer: &Tracer, id| tracer.span(id).duration_ms();
            let (health, v) =
                tracer.time("snapshot.verify", None, round, || snapshot::verify(&dir));
            if health.map_err(err)?.iter().any(|h| !h.is_healthy()) {
                report.problem("snapshot verify found a damaged shard");
            }
            let (opened, o) = tracer.time("snapshot.open", None, round, || snapshot::open(&dir));
            let opened = opened.map_err(err)?;
            let (views, iv) =
                tracer.time("snapshot.into_views", None, round, || opened.into_views());
            drop(views);
            verify.push(ms(tracer, v));
            decode.push(ms(tracer, o) - ms(tracer, v));
            into_views.push(ms(tracer, iv));

            let base = XplainService::open_snapshot(&plain).map_err(err)?;
            let (journal, read) = tracer.time("snapshot.read_journal", None, round, || {
                snapshot::read_journal(&dir)
            });
            let tail: Vec<_> = journal
                .map_err(err)?
                .batches
                .into_iter()
                .flat_map(|batch| batch.records)
                .collect();
            let (spliced, splice) = tracer.time("service.replay_splice", None, round, || {
                base.append(tail).map(|_| base.view(ExecutionKind::Job))
            });
            if spliced.map_err(err)?.num_rows() != acked {
                report.problem("the replayed journal tail does not restore every acknowledged row");
            }
            replay.push(ms(tracer, read) + ms(tracer, splice));
        }
        for (name, values) in [
            ("snapshot.verify_ms", verify),
            ("snapshot.decode_ms", decode),
            ("snapshot.into_views_ms", into_views),
            ("service.replay_ms", replay),
        ] {
            report.layers.insert(name, median(&values));
        }
    }
    Ok(report)
}
