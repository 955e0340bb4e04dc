//! Quickstart: build an execution log, stand up the query service, ask
//! PXQL queries, print the explanations.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```

use perfxplain::prelude::*;
use std::time::Instant;

fn main() {
    // 1. A log of past executions.  In a real deployment this comes from the
    //    Hadoop job-history and Ganglia dumps of your cluster; here we
    //    simulate a small parameter sweep (the Table-2 grid of the paper,
    //    reduced) and collect the logs it produces.
    println!("building the execution log (simulated sweep)...");
    let log = build_execution_log(LogPreset::Tiny, 42);
    println!(
        "  {} jobs, {} tasks, {} job features, {} task features\n",
        log.jobs().count(),
        log.tasks().count(),
        log.job_catalog().len(),
        log.task_catalog().len()
    );

    // 2. A performance question about a pair of jobs, in PXQL:
    //    "Despite running the same script on the same number of instances,
    //     J1 was much slower than J2.  I expected similar durations.  Why?"
    let binding = why_slower_despite_same_num_instances(&log)
        .expect("the log contains a pair of jobs with this behaviour");
    println!("query ({}):\n{}\n", binding.name, binding.bound.query);
    let slow = log.get(&binding.bound.left_id).unwrap();
    let fast = log.get(&binding.bound.right_id).unwrap();
    println!(
        "pair of interest: {} ({:.0} s) vs {} ({:.0} s)\n",
        slow.id,
        slow.duration().unwrap_or(0.0),
        fast.id,
        fast.duration().unwrap_or(0.0)
    );

    // 3. Stand up the query service and ask.  One call parses/binds the
    //    query, generates the explanation, narrates it in plain English and
    //    scores it over the related pairs (Definitions 4-6 of the paper).
    let service = XplainService::new(log);
    let request = QueryRequest::bound(binding.bound.clone())
        .with_narration()
        .with_assessment();
    let started = Instant::now();
    let outcome = service.explain(&request).expect("explanation succeeds");
    let first_query = started.elapsed();
    println!("explanation:\n{}\n", outcome.explanation);
    println!(
        "in plain English: {}\n",
        outcome.narration.as_deref().unwrap_or_default()
    );
    let quality = outcome.quality.expect("assessment was requested");
    println!(
        "quality over the related pairs: precision {:.2}, generality {:.2}, relevance {:.2}",
        quality.precision.unwrap_or(f64::NAN),
        quality.generality.unwrap_or(f64::NAN),
        quality.relevance.unwrap_or(f64::NAN),
    );

    // 4. The session continues: follow-up queries reuse the cached columnar
    //    view of the log instead of re-encoding it (on logs of real size
    //    that is the dominant cost), and a repeated query template reuses
    //    its memoized training sample as well.
    let started = Instant::now();
    let repeat = service.explain(&request).expect("explanation succeeds");
    let second_query = started.elapsed();
    assert!(repeat.view_reused);
    assert_eq!(repeat.explanation, outcome.explanation);
    println!(
        "\nfirst query (encodes the log): {:.1} ms; follow-up (cached view): {:.1} ms",
        first_query.as_secs_f64() * 1e3,
        second_query.as_secs_f64() * 1e3,
    );
}
