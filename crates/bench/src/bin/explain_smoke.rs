//! Release-mode smoke test of per-query explanation latency.
//!
//! Drives one despite-blocked PXQL query over a 100k-record log whose
//! training dataset carries high-cardinality continuous base features (one
//! distinct value per blocking group) — the regime where the pre-sweep
//! trainer's O(d·n) candidate rescans dominated per-query latency.  Fails
//! (non-zero exit) if encode + first query + a warm repeat exceed a
//! wall-clock ceiling, so a complexity regression on the split sweep, the
//! columnar Relief or the greedy clause loop fails CI instead of silently
//! slowing every query down.
//!
//! Run with `cargo run --release -p perfxplain-bench --bin explain_smoke`.

use perfxplain_bench::{blocked_log_with_group_metrics, BLOCKED_QUERY};
use perfxplain_core::{QueryRequest, XplainService};
use std::time::Instant;

/// Log size of the smoke run.
const N: usize = 100_000;
/// Records per pigscript blocking group.
const GROUP_SIZE: usize = 10;
/// Numeric group-level metrics (one distinct value per group, shared by
/// within-group pairs): these become continuous base features of the
/// training dataset, so the split search sweeps thousands of candidate
/// thresholds per attribute.
const GROUP_METRICS: usize = 3;
/// Wall-clock ceiling for encode + two answered queries.  Measured time on
/// one core is a few seconds; the naive trainer overshoots by an order of
/// magnitude on this shape, and a quadratic regression by far more.
const CEILING_SECS: f64 = 30.0;

fn main() {
    let log = blocked_log_with_group_metrics(N, GROUP_SIZE, 1, GROUP_METRICS);
    let service = XplainService::new(log);
    let request = QueryRequest::text(BLOCKED_QUERY).with_pair("job_2", "job_0");

    let started = Instant::now();
    // First query: builds the cached columnar view, then trains.
    let first = service
        .explain(&request)
        .expect("the smoke query must be answerable");
    let first_ms = started.elapsed().as_secs_f64() * 1e3;
    assert!(
        first.explanation.width() >= 1,
        "the smoke query produced an empty explanation"
    );
    assert!(!first.view_reused, "the first query cannot hit the cache");

    // Warm repeat: the cached view and the memoized training sample, so
    // this times featurize and the clause loop alone.
    let warm_started = Instant::now();
    let warm = service
        .explain(&request)
        .expect("the warm smoke query must be answerable");
    let warm_ms = warm_started.elapsed().as_secs_f64() * 1e3;
    assert!(warm.view_reused, "the warm query missed the view cache");
    assert!(warm.sample_reused, "the warm query missed the sample memo");
    assert_eq!(
        warm.explanation, first.explanation,
        "the warm query diverged from the cold one"
    );

    let total = started.elapsed();
    println!(
        "explain_smoke: {} records, groups of {}, {} group metrics: first query {:.0} ms \
         (view build + train), warm query {:.0} ms (because: {})",
        N, GROUP_SIZE, GROUP_METRICS, first_ms, warm_ms, first.explanation.because,
    );
    assert!(
        total.as_secs_f64() < CEILING_SECS,
        "explain smoke took {:.1} s (ceiling {CEILING_SECS} s): the trainer regressed",
        total.as_secs_f64()
    );
}
