//! Task-level debugging: why was the last map task of a job faster than its
//! siblings?
//!
//! This is the paper's *WhyLastTaskFaster* query (and, as the authors note,
//! the puzzle they themselves hit while collecting their data).  The example
//! also demonstrates PerfXplain's handling of *under-specified* queries: the
//! user first asks without any DESPITE clause and PerfXplain generates one
//! automatically (Section 6.4), then produces the because clause within that
//! context.
//!
//! Run with `cargo run --release --example task_skew_investigation`.

use perfxplain::prelude::*;
use perfxplain::{prepare_encoded_training, relevance, BoundQuery};
use pxql::Predicate;

fn main() {
    println!("building the execution log (simulated sweep)...");
    let log = build_execution_log(LogPreset::Tiny, 7);
    println!(
        "  {} jobs / {} tasks\n",
        log.jobs().count(),
        log.tasks().count()
    );

    // The well-specified query, as in Section 6.2 of the paper.
    let binding = why_last_task_faster(&log).expect("the last-task pattern exists in the log");
    let fast = log.get(&binding.bound.left_id).unwrap();
    let slow = log.get(&binding.bound.right_id).unwrap();
    println!(
        "pair of interest (same job, same instance, similar input):\n  {} finished in {:.1} s\n  {} finished in {:.1} s\n",
        fast.id,
        fast.duration().unwrap_or(0.0),
        slow.id,
        slow.duration().unwrap_or(0.0)
    );

    let config = ExplainConfig::default();
    let engine = PerfXplain::new(config.clone());

    println!("--- well-specified query -------------------------------------");
    println!("{}\n", binding.bound.query);
    let explanation = engine.explain(&log, &binding.bound).expect("explanation");
    println!("explanation:\n{explanation}\n");

    // The under-specified variant: drop the DESPITE clause entirely and let
    // PerfXplain recover it.
    println!("--- under-specified query (no DESPITE clause) -----------------");
    let underspecified = BoundQuery::new(
        parse_query(
            "FOR T1, T2 WHERE T1.TaskID = ? AND T2.TaskID = ?\n\
             OBSERVED duration_compare = LT\n\
             EXPECTED duration_compare = SIM",
        )
        .unwrap(),
        &binding.bound.left_id,
        &binding.bound.right_id,
    );
    let related = prepare_encoded_training(&log, &underspecified, &config).expect("related pairs");
    let relevance_before = relevance(&related, &Predicate::always_true()).unwrap_or(0.0);

    let (full, extended_query) = engine
        .explain_full(&log, &underspecified)
        .expect("explanation with generated despite clause");
    let relevance_after = relevance(&related, &full.despite).unwrap_or(0.0);

    println!("generated DESPITE clause: {}", full.despite);
    println!("extended query despite  : {}", extended_query.query.despite);
    println!(
        "relevance: {relevance_before:.2} with the empty despite clause -> {relevance_after:.2} with the generated one\n"
    );
    println!("full explanation:\n{full}");
}
