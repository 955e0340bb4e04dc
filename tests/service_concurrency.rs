//! Concurrency tests of the [`XplainService`]: many threads, one cached
//! columnar view per execution kind, bit-identical answers.

use perfxplain::prelude::*;
use perfxplain::QueryInput;

/// The paper's two canonical queries over a simulated Tiny sweep, repeated
/// so the batch exercises both the job view and the task view.
fn canonical_requests(log: &ExecutionLog, repeats: usize) -> Vec<QueryRequest> {
    let job_query = why_slower_despite_same_num_instances(log)
        .expect("the sweep contains the slower-despite-same-instances pattern");
    let task_query =
        why_last_task_faster(log).expect("the sweep contains the last-task-faster pattern");
    let mut requests = Vec::new();
    for _ in 0..repeats {
        requests.push(QueryRequest::bound(job_query.bound.clone()).with_narration());
        requests.push(QueryRequest::bound(task_query.bound.clone()).with_narration());
    }
    requests
}

#[test]
fn par_explain_batch_is_bit_identical_to_the_serial_path() {
    let log = build_execution_log(LogPreset::Tiny, 42);
    let service = XplainService::new(log.clone());
    // 8 requests alternating between the two canonical queries: with ≥4
    // cores this drives ≥4 worker threads over the two shared views.
    let requests = canonical_requests(&log, 4);

    let serial: Vec<QueryOutcome> = requests
        .iter()
        .map(|request| service.explain(request).expect("serial query succeeds"))
        .collect();
    let parallel = service.par_explain_batch(&requests);

    assert_eq!(parallel.len(), serial.len());
    for (serial, parallel) in serial.iter().zip(&parallel) {
        let parallel = parallel.as_ref().expect("parallel query succeeds");
        assert_eq!(serial.explanation, parallel.explanation);
        assert_eq!(serial.query, parallel.query);
        assert_eq!(serial.narration, parallel.narration);
        assert_eq!(serial.generation, parallel.generation);
    }
    // One cached view per kind serves the whole batch.
    assert_eq!(service.cached_view_count(), 2);

    // The serial service answers also match the stateless engine, so the
    // whole stack (engine == serial service == parallel service) agrees.
    let engine = PerfXplain::with_defaults();
    for (request, outcome) in requests.iter().zip(&serial) {
        let QueryInput::Bound(bound) = &request.query else {
            panic!("requests are bound");
        };
        assert_eq!(engine.explain(&log, bound).unwrap(), outcome.explanation);
    }
}

/// On a multi-core host the service encodes the cached views of a large
/// log through the sharded path on the shared worker pool.  The encode must
/// stay bit-identical to the single-shot build, and a parallel batch
/// answered from the sharded view must match the serial answers.
#[test]
fn sharded_encode_under_par_explain_batch_is_bit_identical() {
    use perfxplain::ExecutionKind;
    use perfxplain_core::columnar::ColumnarLog;

    // A blocked log far past the pool's size rule: small per-script groups
    // keep the candidate space tractable while the row count makes
    // `build_auto` shard on a multi-core host.
    let n = 8_320;
    let group_size = 8;
    let log = perfxplain_bench::blocked_log(n, group_size, 0);

    // The explicitly sharded encode is bit-identical to the single-shot
    // encode (and to whatever build_auto picked for this machine).
    let single = ColumnarLog::build_sharded(&log, ExecutionKind::Job, 1);
    for shards in [2, 4, 8] {
        assert_eq!(
            ColumnarLog::build_sharded(&log, ExecutionKind::Job, shards),
            single,
            "{shards} shards diverge"
        );
    }
    assert_eq!(ColumnarLog::build_auto(&log, ExecutionKind::Job), single);

    // Batch answers off the (auto-sharded) cached view match the serial
    // path answer for answer.
    let service = XplainService::new(log);
    let requests: Vec<QueryRequest> = (0..6)
        .map(|q| {
            let base = q * group_size;
            QueryRequest::text(perfxplain_bench::BLOCKED_QUERY)
                .with_pair(format!("job_{}", base + 2), format!("job_{base}"))
        })
        .collect();
    let serial: Vec<QueryOutcome> = requests
        .iter()
        .map(|request| service.explain(request).expect("serial query succeeds"))
        .collect();
    let parallel = service.par_explain_batch(&requests);
    for (serial, parallel) in serial.iter().zip(&parallel) {
        let parallel = parallel.as_ref().expect("parallel query succeeds");
        assert_eq!(serial.explanation, parallel.explanation);
        assert_eq!(serial.query, parallel.query);
    }
    assert_eq!(service.cached_view_count(), 1);
}

#[test]
fn external_threads_share_one_service_and_agree() {
    let log = build_execution_log(LogPreset::Tiny, 7);
    let service = XplainService::new(log);
    let requests = canonical_requests(&service.snapshot(), 1);
    let expected: Vec<Explanation> = requests
        .iter()
        .map(|r| service.explain(r).expect("query succeeds").explanation)
        .collect();

    // ≥4 OS threads hammer the same service; every answer must be
    // bit-identical to the serial one.
    std::thread::scope(|scope| {
        for worker in 0..4 {
            let (service, requests, expected) = (&service, &requests, &expected);
            scope.spawn(move || {
                for _ in 0..3 {
                    let outcomes = service.par_explain_batch(requests);
                    for (outcome, expected) in outcomes.iter().zip(expected) {
                        let outcome = outcome.as_ref().expect("batch query succeeds");
                        assert_eq!(
                            &outcome.explanation, expected,
                            "worker {worker} diverged from the serial answer"
                        );
                        assert!(outcome.view_reused, "warm queries must hit the view cache");
                    }
                }
            });
        }
    });
    assert_eq!(service.cached_view_count(), 2);
}

/// Batches that fan out while holding the log's read lock must not stall a
/// concurrent writer, nor be stalled by it.  Every query here reaches the
/// pool's size rule (58k candidates, a clause loop of ~2k pairs × 28
/// attributes), so on a multi-core host each answer fans out on the shared
/// pool from inside a batch chunk that holds a read guard, while more batch
/// chunks than pool threads wait in the queue and a writer keeps queueing
/// behind those guards: plain appends, and rewrites whose
/// `extend_parallel` fans out under the write guard.  A waiter that ran
/// another batch's chunk would take a second guard on the log it already
/// holds, behind the queued writer or under its own write guard, and
/// deadlock.  The threads are detached, so a deadlock fails the bounded
/// waits below instead of hanging the test.
#[test]
fn batches_and_a_writer_finish_together() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    let group_size = 8;
    let service = Arc::new(XplainService::new(perfxplain_bench::blocked_log(
        8_320, group_size, 0,
    )));
    let requests: Vec<QueryRequest> = (0..8)
        .map(|q| {
            let base = q * group_size;
            QueryRequest::text(perfxplain_bench::BLOCKED_QUERY)
                .with_pair(format!("job_{}", base + 2), format!("job_{base}"))
        })
        .collect();
    let readers = 4;
    let writing = Arc::new(AtomicBool::new(true));
    let (done, finished) = mpsc::channel();
    for reader in 0..readers {
        let (service, requests, done) = (Arc::clone(&service), requests.clone(), done.clone());
        std::thread::spawn(move || {
            for _ in 0..2 {
                for outcome in service.par_explain_batch(&requests) {
                    outcome.expect("batch query succeeds");
                }
            }
            done.send(format!("reader {reader}")).unwrap();
        });
    }
    {
        let (service, writing) = (Arc::clone(&service), Arc::clone(&writing));
        std::thread::spawn(move || {
            let mut written = 0usize;
            while writing.load(Ordering::SeqCst) {
                let record = ExecutionRecord::job(format!("extra_{written}"))
                    .with_feature("pigscript", format!("extra_{written}.pig"))
                    .with_feature("inputsize", 1.0e9)
                    .with_feature("blocksize", 64.0)
                    .with_feature("duration", 20.0);
                if written.is_multiple_of(2) {
                    service.append(vec![record]).expect("append succeeds");
                } else {
                    service.with_log_mut(|log| log.extend_parallel(vec![vec![record]]));
                }
                written += 1;
            }
            done.send("writer".to_string()).unwrap();
        });
    }

    let deadline = Duration::from_secs(120);
    for _ in 0..readers {
        finished
            .recv_timeout(deadline)
            .expect("a batch thread deadlocked against the writer");
    }
    writing.store(false, Ordering::SeqCst);
    assert_eq!(
        finished.recv_timeout(deadline).as_deref(),
        Ok("writer"),
        "the writer deadlocked against the batches"
    );
}
