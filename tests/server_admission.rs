//! Admission-control integration tests over real TCP connections.
//!
//! Every test spawns the network front-end ([`perfxplain::server::spawn`])
//! on a loopback port with deliberately tight [`SchedulerConfig`] limits and
//! drives it with raw protocol clients: queue-full shedding, per-session
//! fairness under a hog connection, deadline expiry both mid-queue and
//! mid-execution, and malformed-frame handling.  The server must answer
//! every frame with a typed response — none of these scenarios may panic or
//! kill a connection that behaved.

use perfxplain::server::{
    spawn, BeforeQuery, Client, QueryCost, SchedulerConfig, ServerConfig, ServerHandle, WireRequest,
};
use perfxplain::{ExecutionLog, ExecutionRecord, QueryRequest, XplainService};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// The canonical query over [`synthetic_log`] pairs: job_2 reads far more
/// input than job_0 yet takes about as long.
const QUERY: &str = "DESPITE inputsize_compare = GT\n\
                     OBSERVED duration_compare = SIM\n\
                     EXPECTED duration_compare = GT";

/// A log shaped like the paper's workload: even-indexed jobs are big-block
/// plateaued runs (similar durations at very different input sizes), so the
/// candidate space is rich in related pairs and training has real work.
fn synthetic_log(n: usize) -> ExecutionLog {
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
                .with_feature("numinstances", [2.0, 8.0, 16.0][(i / 2) % 3])
                .with_feature("iosortfactor", 10.0 + (i % 3) as f64)
                .with_feature("pigscript", ["a.pig", "b.pig"][i % 2])
                .with_feature("duration", duration),
        );
    }
    log.rebuild_catalogs();
    log
}

/// A valid request for the pair of interest; `sample_size` scales how much
/// training work (and therefore wall time and admission cost) it carries.
fn request(id: u64, sample_size: u64) -> WireRequest {
    WireRequest {
        id: Some(id),
        query: Some(QUERY.to_string()),
        left: Some("job_2".to_string()),
        right: Some("job_0".to_string()),
        sample_size: Some(sample_size),
        ..WireRequest::default()
    }
}

/// The admission cost of [`request`] at `sample_size`, from the same
/// estimator the server charges with.
fn cost_of(service: &XplainService, sample_size: usize) -> QueryCost {
    let probe = QueryRequest::text(QUERY)
        .with_pair("job_2", "job_0")
        .with_config(service.config().clone().with_sample_size(sample_size));
    QueryCost::from(&service.estimate_cost(&probe).expect("estimable"))
}

/// Spawns a server over a fresh `n`-record log.
fn serve(n: usize, scheduler: SchedulerConfig) -> (ServerHandle, Arc<XplainService>) {
    serve_with(n, scheduler, None)
}

fn serve_with(
    n: usize,
    scheduler: SchedulerConfig,
    before_query: Option<BeforeQuery>,
) -> (ServerHandle, Arc<XplainService>) {
    let service = Arc::new(XplainService::new(synthetic_log(n)));
    let config = ServerConfig {
        scheduler,
        workers: 2,
        default_timeout: Some(Duration::from_secs(60)),
        before_query,
        ..ServerConfig::default()
    };
    let handle = spawn(Arc::clone(&service), config).expect("server binds");
    (handle, service)
}

/// Spawns a server whose worker parks request `held` before running it,
/// until the returned [`Gate`] is released or dropped.  The parked request
/// keeps its admission charge for as long as the test needs, however fast
/// this machine would have answered it.
fn serve_gated(
    n: usize,
    scheduler: SchedulerConfig,
    held: u64,
) -> (ServerHandle, Arc<XplainService>, Gate) {
    let gate = Gate(Arc::default());
    let state = Arc::clone(&gate.0);
    let hook = BeforeQuery::new(move |id| {
        if id == Some(held) {
            let mut s = state.0.lock().unwrap();
            s.parked = true;
            state.1.notify_all();
            while !s.released {
                s = state.1.wait(s).unwrap();
            }
        }
    });
    let (handle, service) = serve_with(n, scheduler, Some(hook));
    (handle, service, gate)
}

#[derive(Default)]
struct GateState {
    parked: bool,
    released: bool,
}

/// The test's end of [`serve_gated`]'s park; dropping it releases.
struct Gate(Arc<(Mutex<GateState>, Condvar)>);

impl Gate {
    /// Blocks until the held request is parked on its worker: admitted,
    /// charged and not yet running.
    fn wait_until_parked(&self) {
        let (lock, changed) = &*self.0;
        let (state, timeout) = changed
            .wait_timeout_while(lock.lock().unwrap(), Duration::from_secs(60), |s| !s.parked)
            .unwrap();
        assert!(
            state.parked && !timeout.timed_out(),
            "the held request never ran"
        );
    }

    fn release(&self) {
        self.0 .0.lock().unwrap().released = true;
        self.0 .1.notify_all();
    }
}

impl Drop for Gate {
    fn drop(&mut self) {
        self.release();
    }
}

/// Polls `done` until it holds, failing the test after a minute.
fn wait_for(what: &str, done: impl Fn() -> bool) {
    let started = Instant::now();
    while !done() {
        assert!(
            started.elapsed() < Duration::from_secs(60),
            "timed out: {what}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn connect(handle: &ServerHandle) -> Client {
    Client::connect(&handle.addr().to_string()).expect("client connects")
}

/// A big-sample request: the costliest to admit, and (hundreds of ms of
/// enumeration and training on this log) the slowest to answer.  The
/// queue tests hold the budget with a parked request ([`serve_gated`]),
/// not with its slowness.
const SLOW_SAMPLE: u64 = 20_000;
const FAST_SAMPLE: u64 = 50;

#[test]
fn queue_full_sheds_with_typed_rejections() {
    // Budget fits exactly one slow request and the queue holds one more;
    // everything beyond that must shed with 429 shed_queue_full.
    let service = XplainService::new(synthetic_log(1200));
    let slow_cost = cost_of(&service, SLOW_SAMPLE as usize);
    drop(service);
    let (handle, _service, gate) = serve_gated(
        1200,
        SchedulerConfig {
            budget: slow_cost,
            queue_capacity: 1,
            max_inflight_per_session: 4,
            max_pending_per_session: 16,
        },
        1,
    );

    // Hold the budget with a request parked on its worker.
    let mut holder = connect(&handle);
    holder.send(&request(1, SLOW_SAMPLE)).expect("send");
    gate.wait_until_parked();

    // Flood from distinct connections: one queues, the rest shed.  Every
    // flood request meets the held budget (the holder plus all four are
    // admitted or shed); only then is the holder let go.
    let mut shed = 0;
    let mut queued_or_ok = 0;
    let mut floods: Vec<Client> = (0..4).map(|_| connect(&handle)).collect();
    for (i, client) in floods.iter_mut().enumerate() {
        client
            .send(&request(10 + i as u64, SLOW_SAMPLE))
            .expect("send");
    }
    wait_for("every flood request admitted or shed", || {
        let stats = handle.stats();
        stats.admitted + stats.shed > floods.len() as u64
    });
    gate.release();
    for client in &mut floods {
        let response = client.recv().expect("response");
        if response.is_shed() {
            assert_eq!(response.error.as_deref(), Some("shed_queue_full"));
            shed += 1;
        } else {
            queued_or_ok += 1;
        }
    }
    assert!(
        shed >= 3,
        "expected at least 3 of 4 flood requests shed, got {shed} (answered {queued_or_ok})"
    );
    let held = holder.recv().expect("holder answered");
    assert!(
        held.is_ok(),
        "the admitted request still succeeds: {held:?}"
    );
}

#[test]
fn oversized_cost_requests_are_rejected_outright() {
    let service = XplainService::new(synthetic_log(600));
    let normal_cost = cost_of(&service, FAST_SAMPLE as usize);
    let huge_cost = cost_of(&service, 1_000_000);
    assert!(huge_cost > normal_cost);
    drop(service);
    // Budget admits normal requests but can never admit the huge one.
    let (handle, _service) = serve(
        600,
        SchedulerConfig {
            budget: normal_cost + normal_cost,
            ..SchedulerConfig::default()
        },
    );
    let mut client = connect(&handle);

    let shed = client.call(&request(1, 1_000_000)).expect("response");
    assert_eq!(shed.code, 429);
    assert_eq!(shed.error.as_deref(), Some("cost_exceeds_budget"));

    // The same connection still gets normal requests answered.
    let ok = client.call(&request(2, FAST_SAMPLE)).expect("response");
    assert!(ok.is_ok(), "normal request after a shed: {ok:?}");
    assert!(ok.cost_units.unwrap_or(0) > 0);
}

#[test]
fn hog_connection_cannot_starve_other_sessions() {
    // The hog pipelines a backlog but may only run one request at a time,
    // and its first one stays parked; the victim's single request must
    // pass the whole backlog.
    let (handle, _service, gate) = serve_gated(
        1200,
        SchedulerConfig {
            budget: QueryCost(u64::MAX / 2),
            queue_capacity: 64,
            max_inflight_per_session: 1,
            max_pending_per_session: 16,
        },
        0,
    );
    let mut hog = connect(&handle);
    const HOG_BACKLOG: u64 = 4;
    for i in 0..HOG_BACKLOG {
        hog.send(&request(i, SLOW_SAMPLE)).expect("send");
    }
    gate.wait_until_parked();

    let mut victim = connect(&handle);
    let response = victim.call(&request(100, FAST_SAMPLE)).expect("response");
    assert!(response.is_ok(), "victim starved: {response:?}");
    // The victim is the only request answered: the hog's first request is
    // parked and the rest of its backlog waits behind it.
    assert_eq!(handle.stats().answered, 1);

    gate.release();
    for _ in 0..HOG_BACKLOG {
        let response = hog.recv().expect("hog response");
        assert!(response.is_ok(), "hog request failed: {response:?}");
    }
}

#[test]
fn deadlines_expire_mid_queue_with_a_typed_timeout() {
    // Budget fits one slow request; a queued request with a short deadline
    // must be shed by the periodic sweep, not left to rot.
    let service = XplainService::new(synthetic_log(1200));
    let slow_cost = cost_of(&service, SLOW_SAMPLE as usize);
    drop(service);
    let (handle, _service, gate) = serve_gated(
        1200,
        SchedulerConfig {
            budget: slow_cost,
            queue_capacity: 8,
            ..SchedulerConfig::default()
        },
        1,
    );
    let mut holder = connect(&handle);
    holder.send(&request(1, SLOW_SAMPLE)).expect("send");
    gate.wait_until_parked();

    let mut waiter = connect(&handle);
    let mut doomed = request(2, SLOW_SAMPLE);
    doomed.timeout_ms = Some(30);
    let started = Instant::now();
    let response = waiter.call(&doomed).expect("response");
    assert_eq!(
        response.code, 408,
        "expected a queued-deadline expiry: {response:?}"
    );
    assert_eq!(response.error.as_deref(), Some("deadline"));
    assert!(
        response.message.as_deref().unwrap_or("").contains("queued"),
        "expiry should name the queue: {response:?}"
    );
    // The expiry came from the sweep while the budget was still held — the
    // holder only runs once released.
    assert!(started.elapsed() < Duration::from_secs(5));
    gate.release();
    assert!(holder.recv().expect("holder answered").is_ok());
    assert!(handle.stats().expired >= 1);
}

#[test]
fn deadlines_expire_mid_execution_through_the_cancel_token() {
    // Plenty of budget: the request is admitted and starts running, then
    // the enumeration's cancellation checks trip its 1 ms deadline.
    let (handle, _service) = serve(1200, SchedulerConfig::default());
    let mut client = connect(&handle);
    let mut doomed = request(1, SLOW_SAMPLE);
    doomed.timeout_ms = Some(1);
    let response = client.call(&doomed).expect("response");
    assert_eq!(
        response.code, 408,
        "expected an in-flight expiry: {response:?}"
    );
    assert_eq!(response.error.as_deref(), Some("deadline"));
    assert!(
        !response.message.as_deref().unwrap_or("").contains("queued"),
        "deadline tripped in-flight, not in the queue: {response:?}"
    );

    // The connection survives and a later, patient request succeeds.
    let ok = client.call(&request(2, FAST_SAMPLE)).expect("response");
    assert!(ok.is_ok(), "{ok:?}");
}

#[test]
fn malformed_frames_get_typed_errors_without_killing_the_connection() {
    let (handle, _service) = serve(200, SchedulerConfig::default());
    let mut client = connect(&handle);

    client.send_raw("this is not json\n").expect("send");
    let response = client.recv().expect("response");
    assert_eq!(response.code, 400);
    assert_eq!(response.error.as_deref(), Some("bad_frame"));

    client.send_raw("{\"id\": 7}\n").expect("send");
    let response = client.recv().expect("response");
    assert_eq!(response.code, 400);
    assert_eq!(response.error.as_deref(), Some("bad_frame"));
    assert_eq!(response.id, Some(7), "the id still echoes when parseable");

    // Blank lines are ignored, not answered.
    client.send_raw("\n\n").expect("send");

    // Unknown executions and bad PXQL are typed, not fatal.
    let mut unknown = request(8, FAST_SAMPLE);
    unknown.left = Some("no_such_job".to_string());
    let response = client.call(&unknown).expect("response");
    assert_eq!(response.code, 404);
    assert_eq!(response.error.as_deref(), Some("unknown_execution"));

    let mut bad_query = request(9, FAST_SAMPLE);
    bad_query.query = Some("OBSERVE duration ~~~".to_string());
    let response = client.call(&bad_query).expect("response");
    assert_eq!(response.code, 400);
    assert_eq!(response.error.as_deref(), Some("pxql"));

    // After all that abuse the connection still answers real queries.
    let ok = client.call(&request(10, FAST_SAMPLE)).expect("response");
    assert!(ok.is_ok(), "{ok:?}");
    assert!(handle.stats().requests >= 5);
}

#[test]
fn status_probes_answer_immediately_with_counters() {
    let budget = QueryCost(4096);
    let (handle, service) = serve(
        600,
        SchedulerConfig {
            budget,
            ..SchedulerConfig::default()
        },
    );
    let mut client = connect(&handle);

    // A fresh server: zero counters, empty queue, full budget free.
    let probe = WireRequest {
        id: Some(1),
        target: Some("status".to_string()),
        ..WireRequest::default()
    };
    let status = client.call(&probe).expect("status answered");
    assert!(status.is_ok(), "{status:?}");
    assert_eq!(status.id, Some(1));
    assert_eq!(status.generation, Some(service.generation()));
    assert!(status.uptime_ms.is_some());
    assert_eq!(status.admitted, Some(0));
    assert_eq!(status.shed, Some(0));
    assert_eq!(status.expired, Some(0));
    assert_eq!(status.cancelled, Some(0));
    assert_eq!(status.queue_depth, Some(0));
    assert_eq!(status.budget_in_use, Some(0));
    assert_eq!(status.budget_total, Some(budget.units()));
    // A probe is not a query: nothing was admitted or answered for it.
    assert_eq!(handle.stats().admitted, 0);

    // After a real query the admitted counter moves.
    let ok = client.call(&request(2, FAST_SAMPLE)).expect("response");
    assert!(ok.is_ok(), "{ok:?}");
    let status = client.call(&probe).expect("status answered");
    assert_eq!(status.admitted, Some(1));

    // Unknown targets are typed protocol errors, not dead connections.
    let bogus = WireRequest {
        id: Some(3),
        target: Some("metrics".to_string()),
        ..WireRequest::default()
    };
    let response = client.call(&bogus).expect("response");
    assert_eq!(response.code, 400);
    assert_eq!(response.error.as_deref(), Some("bad_frame"));
    let ok = client.call(&request(4, FAST_SAMPLE)).expect("response");
    assert!(ok.is_ok(), "{ok:?}");
}

#[test]
fn appends_over_the_wire_refresh_views_by_delta() {
    let (handle, service) = serve(600, SchedulerConfig::default());
    let mut client = connect(&handle);
    let admitted_units = cost_of(&service, FAST_SAMPLE as usize).units();

    // Warm the view with a query; its charge is refined down to the
    // measured related-pair work once the view is built.
    let ok = client.call(&request(1, FAST_SAMPLE)).expect("response");
    assert!(ok.is_ok(), "{ok:?}");
    let related = ok.related_pairs.expect("measured work reported");
    assert!(related > 0);
    let charged = ok.cost_units.expect("refined charge reported");
    assert!(charged <= admitted_units);

    let probe = WireRequest {
        id: Some(2),
        target: Some("status".to_string()),
        ..WireRequest::default()
    };
    let status = client.call(&probe).expect("status");
    assert_eq!(status.base_rows, Some(600));
    assert_eq!(status.tail_rows, Some(0));
    assert_eq!(status.full_rebuilds, Some(1));
    assert_eq!(status.delta_refreshes, Some(0));
    // The estimate/actual difference came back to the budget mid-flight.
    assert_eq!(status.refunded_units, Some(admitted_units - charged));

    // Append a batch over the wire: acknowledged inline with the new
    // generation, no view work yet.
    let fresh: Vec<ExecutionRecord> = (600..606)
        .map(|i| {
            ExecutionRecord::job(format!("job_{i}"))
                .with_feature("inputsize", 4.0e9)
                .with_feature("blocksize", 1024.0)
                .with_feature("numinstances", 8.0)
                .with_feature("iosortfactor", 10.0)
                .with_feature("pigscript", "a.pig")
                .with_feature("duration", 600.0 + (i % 13) as f64)
        })
        .collect();
    let generation_before = service.generation();
    let ack = client.append(&fresh).expect("append acknowledged");
    assert!(ack.is_ok(), "{ack:?}");
    assert_eq!(ack.appended, Some(6));
    assert!(ack.generation.expect("generation echoes") > generation_before);

    // The next query pays an O(tail) delta refresh, not a full rebuild,
    // and can explain a pair involving an appended record.
    let mut over_tail = request(3, FAST_SAMPLE);
    over_tail.left = Some("job_602".to_string());
    let ok = client.call(&over_tail).expect("response");
    assert!(ok.is_ok(), "query over an appended record: {ok:?}");
    let status = client.call(&probe).expect("status");
    assert_eq!(status.base_rows, Some(600));
    assert_eq!(status.tail_rows, Some(6));
    assert_eq!(status.delta_refreshes, Some(1));
    assert_eq!(status.full_rebuilds, Some(1));

    // Malformed batches are typed protocol errors, not dead connections.
    let bad = WireRequest {
        id: Some(5),
        target: Some("append".to_string()),
        records: Some("not a json array".to_string()),
        ..WireRequest::default()
    };
    let response = client.call(&bad).expect("response");
    assert_eq!(response.code, 400);
    assert_eq!(response.error.as_deref(), Some("bad_frame"));
    let missing = WireRequest {
        id: Some(6),
        target: Some("append".to_string()),
        ..WireRequest::default()
    };
    let response = client.call(&missing).expect("response");
    assert_eq!(response.code, 400);
    assert_eq!(response.error.as_deref(), Some("bad_frame"));
    let ok = client.call(&request(7, FAST_SAMPLE)).expect("response");
    assert!(ok.is_ok(), "connection survives bad appends: {ok:?}");
}

#[test]
fn networked_answers_match_the_in_process_service() {
    let (handle, service) = serve(600, SchedulerConfig::default());
    let mut wire_request = request(1, FAST_SAMPLE);
    wire_request.assess = Some(true);
    let mut client = connect(&handle);
    let over_wire = client.call(&wire_request).expect("response");
    assert!(over_wire.is_ok(), "{over_wire:?}");

    let in_process = service
        .explain(
            &QueryRequest::text(QUERY)
                .with_pair("job_2", "job_0")
                .with_config(
                    service
                        .config()
                        .clone()
                        .with_sample_size(FAST_SAMPLE as usize),
                )
                .with_assessment(),
        )
        .expect("in-process explain succeeds");
    let atoms: Vec<String> = in_process
        .explanation
        .because
        .atoms()
        .iter()
        .map(|a| a.to_string())
        .collect();
    assert_eq!(over_wire.because.as_deref(), Some(&atoms[..]));
    assert_eq!(over_wire.generation, Some(in_process.generation));
    let quality = in_process.quality.expect("assessment ran");
    assert_eq!(over_wire.precision, quality.precision.value);
}
