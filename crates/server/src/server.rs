//! The non-blocking TCP event loop.
//!
//! One thread owns the listener and every connection, all in non-blocking
//! mode: it accepts, reads frames, hands parsed requests to the
//! [`Scheduler`], receives finished responses over an mpsc channel from
//! the pool workers, and flushes write buffers — no thread per connection,
//! no tokio.  Worker threads never touch sockets; the event loop never
//! touches queries.  Per-connection memory is bounded in both directions:
//! a line longer than [`ServerConfig::max_frame_bytes`] gets a typed error
//! and the connection is dropped, and a client that stops reading while
//! more than [`ServerConfig::max_write_buffer`] bytes of responses are
//! pending is disconnected (slow-consumer shedding) rather than buffered
//! without bound.

use crate::cost::QueryCost;
use crate::protocol::{
    self, WireRequest, WireResponse, ERR_BAD_FRAME, ERR_COST_EXCEEDS_BUDGET, ERR_DEADLINE,
    ERR_SESSION_LIMIT, ERR_SHED_QUEUE_FULL,
};
use crate::scheduler::{ChargeHandle, Rejection, Scheduler, SchedulerConfig};
use perfxplain_core::pool::WorkerPool;
use perfxplain_core::{CancelToken, CostProbe, ExecutionRecord, QueryRequest, XplainService};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Server configuration: where to listen and how much concurrent work to
/// accept.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 to let the OS pick (the bound address is on
    /// the [`ServerHandle`]).
    pub addr: String,
    /// Worker threads answering queries (the pool bound).
    pub workers: usize,
    /// Admission-control limits (budget, queue, per-session caps).
    pub scheduler: SchedulerConfig,
    /// Deadline applied to requests that don't carry their own
    /// `timeout_ms`; `None` means no default deadline.
    pub default_timeout: Option<Duration>,
    /// Maximum request-line length in bytes; longer frames get a typed
    /// error and the connection is closed.
    pub max_frame_bytes: usize,
    /// Maximum buffered response bytes per connection before the client is
    /// treated as a slow consumer and dropped.
    pub max_write_buffer: usize,
    /// How long a graceful shutdown ([`ServerHandle::drain`] or the
    /// `shutdown` admin frame) waits for queued and in-flight requests to
    /// finish before the loop exits anyway.
    pub drain_timeout: Duration,
    /// Accept the `shutdown` admin frame from non-loopback peers.  Off by
    /// default: on an otherwise query/append-only protocol, letting any
    /// reachable client drain and terminate the process is a remote
    /// denial-of-service.  Loopback connections may always shut the
    /// server down (that is how the CLI's own tooling does it).
    pub allow_remote_shutdown: bool,
    /// Test seam: called on the worker with the request's wire id just
    /// before an admitted query runs, while it holds its budget.  `None`
    /// by default; neither the CLI nor the wire can set it.
    pub before_query: Option<BeforeQuery>,
}

/// A callback a worker runs before it answers an admitted query
/// ([`ServerConfig::before_query`]): a test can park the worker there to
/// hold the budget for as long as it needs, whatever the query costs.
#[derive(Clone)]
pub struct BeforeQuery(Arc<dyn Fn(Option<u64>) + Send + Sync>);

impl BeforeQuery {
    /// Wraps a callback invoked with the request's wire id.
    pub fn new(f: impl Fn(Option<u64>) + Send + Sync + 'static) -> Self {
        BeforeQuery(Arc::new(f))
    }
}

impl std::fmt::Debug for BeforeQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("BeforeQuery(..)")
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: perfxplain_core::shard::hardware_threads(),
            scheduler: SchedulerConfig::default(),
            default_timeout: Some(Duration::from_secs(30)),
            max_frame_bytes: 1 << 20,
            max_write_buffer: 4 << 20,
            drain_timeout: Duration::from_secs(5),
            allow_remote_shutdown: false,
            before_query: None,
        }
    }
}

/// Monotonic counters kept by the event loop, readable from any thread.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections accepted.
    pub sessions_accepted: AtomicU64,
    /// Frames received (parseable or not).
    pub requests: AtomicU64,
    /// Requests admitted by the scheduler (dispatched or queued).
    pub admitted: AtomicU64,
    /// Success responses sent.
    pub answered: AtomicU64,
    /// Typed error responses other than admission rejections and
    /// cancellations.
    pub errors: AtomicU64,
    /// Admission rejections (queue full / cost / session limit).
    pub shed: AtomicU64,
    /// Requests whose deadline passed while queued.
    pub expired: AtomicU64,
    /// Requests cancelled (or past deadline) mid-execution.
    pub cancelled: AtomicU64,
    /// Budget units refunded mid-flight after queries measured their
    /// actual related-pair work below the admission estimate.
    pub refunded_units: AtomicU64,
    /// Record batches appended over the wire.
    pub appends: AtomicU64,
}

/// A point-in-time copy of [`ServerStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Connections accepted.
    pub sessions_accepted: u64,
    /// Frames received.
    pub requests: u64,
    /// Requests admitted by the scheduler.
    pub admitted: u64,
    /// Success responses sent.
    pub answered: u64,
    /// Non-admission, non-cancellation typed errors sent.
    pub errors: u64,
    /// Admission rejections sent.
    pub shed: u64,
    /// Queued-deadline expirations sent.
    pub expired: u64,
    /// Mid-execution cancellations/deadline hits sent.
    pub cancelled: u64,
    /// Budget units refunded mid-flight.
    pub refunded_units: u64,
    /// Record batches appended over the wire.
    pub appends: u64,
}

impl ServerStats {
    fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            sessions_accepted: self.sessions_accepted.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            admitted: self.admitted.load(Ordering::Relaxed),
            answered: self.answered.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            refunded_units: self.refunded_units.load(Ordering::Relaxed),
            appends: self.appends.load(Ordering::Relaxed),
        }
    }
}

/// A running server: the bound address, live counters, and shutdown.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    drain: Arc<AtomicBool>,
    stats: Arc<ServerStats>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Stops the event loop and joins it.  In-flight queries finish on the
    /// pool but their responses are not delivered.
    pub fn shutdown(mut self) -> StatsSnapshot {
        self.stop();
        self.stats.snapshot()
    }

    /// Gracefully shuts down: stop accepting connections, let queued and
    /// in-flight requests finish (bounded by
    /// [`ServerConfig::drain_timeout`]), flush their responses, then stop.
    /// Blocks until the loop exits.  The `shutdown` admin frame triggers
    /// the same path from the wire.
    pub fn drain(mut self) -> StatsSnapshot {
        self.drain.store(true, Ordering::Relaxed);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
        self.stats.snapshot()
    }

    /// Whether the event loop has exited (e.g. a client sent the
    /// `shutdown` admin frame and the drain completed).
    pub fn is_finished(&self) -> bool {
        self.join.as_ref().is_none_or(|join| join.is_finished())
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One client connection's event-loop state.
struct Session {
    stream: TcpStream,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    /// Close after the write buffer drains (protocol violation already
    /// answered with a typed error).
    close_after_flush: bool,
    /// Whether the peer connected over a loopback address — admin frames
    /// like `shutdown` are restricted to loopback unless
    /// [`ServerConfig::allow_remote_shutdown`] opts out.
    peer_loopback: bool,
}

/// Binds the listener and spawns the event-loop thread.  Returns as soon as
/// the port is bound, so callers can connect immediately.
pub fn spawn(service: Arc<XplainService>, config: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let drain = Arc::new(AtomicBool::new(false));
    let stats = Arc::new(ServerStats::default());
    let loop_shutdown = Arc::clone(&shutdown);
    let loop_drain = Arc::clone(&drain);
    let loop_stats = Arc::clone(&stats);
    let join = std::thread::Builder::new()
        .name("pxserve-loop".to_string())
        .spawn(move || {
            event_loop(
                listener,
                service,
                config,
                &loop_shutdown,
                &loop_drain,
                &loop_stats,
            )
        })?;
    Ok(ServerHandle {
        addr,
        shutdown,
        drain,
        stats,
        join: Some(join),
    })
}

fn event_loop(
    listener: TcpListener,
    service: Arc<XplainService>,
    config: ServerConfig,
    shutdown: &AtomicBool,
    drain: &Arc<AtomicBool>,
    stats: &Arc<ServerStats>,
) {
    let pool = Arc::new(WorkerPool::new(config.workers));
    let scheduler = Scheduler::new(pool, config.scheduler.clone());
    // Pool workers send finished response lines here; only the event loop
    // writes to sockets.
    let (completions_tx, completions_rx) = mpsc::channel::<(u64, String)>();
    let mut sessions: HashMap<u64, Session> = HashMap::new();
    let mut next_session = 1u64;
    let started = Instant::now();
    let mut last_sweep = Instant::now();
    let mut drain_deadline: Option<Instant> = None;

    while !shutdown.load(Ordering::Relaxed) {
        let mut progressed = false;
        let draining = drain.load(Ordering::Relaxed);
        if draining && drain_deadline.is_none() {
            drain_deadline = Some(Instant::now() + config.drain_timeout);
        }

        // Accept every pending connection (a draining server stops
        // accepting — existing sessions are served to completion).  The
        // "server.accept" failpoint models a transiently failing accept(2):
        // any injected fault skips this tick's accepts (pending connections
        // stay in the backlog and are picked up next time around).
        if !draining {
            loop {
                if perfxplain_core::failpoints::trigger("server.accept").is_some() {
                    break;
                }
                match listener.accept() {
                    Ok((stream, peer)) => {
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        let _ = stream.set_nodelay(true);
                        sessions.insert(
                            next_session,
                            Session {
                                stream,
                                read_buf: Vec::new(),
                                write_buf: Vec::new(),
                                close_after_flush: false,
                                peer_loopback: peer.ip().is_loopback(),
                            },
                        );
                        next_session += 1;
                        stats.sessions_accepted.fetch_add(1, Ordering::Relaxed);
                        progressed = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(_) => break,
                }
            }
        }

        // Read frames from every session.
        let mut closed: Vec<u64> = Vec::new();
        for (&id, session) in sessions.iter_mut() {
            if session.close_after_flush {
                continue;
            }
            match read_available(&mut session.stream, &mut session.read_buf) {
                ReadOutcome::Closed => {
                    closed.push(id);
                    continue;
                }
                ReadOutcome::Progress => progressed = true,
                ReadOutcome::Idle => {}
            }
            if session.read_buf.len() > config.max_frame_bytes && !session.read_buf.contains(&b'\n')
            {
                let response = WireResponse::error(
                    None,
                    400,
                    ERR_BAD_FRAME,
                    format!("request line exceeds {} bytes", config.max_frame_bytes),
                );
                session
                    .write_buf
                    .extend_from_slice(protocol::encode_response_line(&response).as_bytes());
                session.close_after_flush = true;
                stats.errors.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            while let Some(newline) = session.read_buf.iter().position(|&b| b == b'\n') {
                let frame: Vec<u8> = session.read_buf.drain(..=newline).collect();
                let frame = trim_frame(&frame);
                if frame.is_empty() {
                    continue;
                }
                progressed = true;
                stats.requests.fetch_add(1, Ordering::Relaxed);
                if let Some(immediate) = handle_frame(
                    id,
                    frame,
                    &service,
                    &scheduler,
                    &completions_tx,
                    stats,
                    &config,
                    started,
                    drain,
                    session.peer_loopback,
                ) {
                    session
                        .write_buf
                        .extend_from_slice(protocol::encode_response_line(&immediate).as_bytes());
                }
            }
        }

        // Collect finished responses from the workers.
        while let Ok((session_id, line)) = completions_rx.try_recv() {
            progressed = true;
            if let Some(session) = sessions.get_mut(&session_id) {
                session.write_buf.extend_from_slice(line.as_bytes());
            }
        }

        // Flush write buffers; enforce the slow-consumer bound.
        for (&id, session) in sessions.iter_mut() {
            if session.write_buf.len() > config.max_write_buffer {
                closed.push(id);
                continue;
            }
            if session.write_buf.is_empty() {
                continue;
            }
            // The "server.write" failpoint models a transiently failing
            // send(2): a transient kind leaves the buffer for the next
            // flush, anything else closes the connection like a real
            // write error would.
            if let Some(failure) = perfxplain_core::failpoints::trigger("server.write") {
                match failure.into_io_error("server.write").kind() {
                    ErrorKind::WouldBlock | ErrorKind::Interrupted | ErrorKind::TimedOut => {}
                    _ => closed.push(id),
                }
                continue;
            }
            match session.stream.write(&session.write_buf) {
                Ok(0) => closed.push(id),
                Ok(written) => {
                    session.write_buf.drain(..written);
                    progressed = true;
                    if session.write_buf.is_empty() && session.close_after_flush {
                        closed.push(id);
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => closed.push(id),
            }
        }

        for id in closed {
            if sessions.remove(&id).is_some() {
                scheduler.session_closed(id);
            }
        }

        // Time out queued requests even when no completion drains the
        // queue.
        if last_sweep.elapsed() >= Duration::from_millis(5) {
            if scheduler.sweep_expired() > 0 {
                progressed = true;
            }
            last_sweep = Instant::now();
        }

        // A draining loop exits once nothing is queued, running, or
        // buffered — or once the bounded drain deadline passes.
        if draining {
            let sched = scheduler.stats();
            let idle = sched.queued == 0
                && sched.inflight.units() == 0
                && sessions.values().all(|s| s.write_buf.is_empty());
            if idle || drain_deadline.is_some_and(|deadline| Instant::now() >= deadline) {
                break;
            }
        }

        if !progressed {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    // Final flush: a worker may have finished between this tick's
    // completion sweep and the idle check — give already-computed
    // responses a short, bounded window to reach their sockets.
    if drain.load(Ordering::Relaxed) && !shutdown.load(Ordering::Relaxed) {
        let deadline = Instant::now() + Duration::from_millis(250);
        loop {
            while let Ok((session_id, line)) = completions_rx.try_recv() {
                if let Some(session) = sessions.get_mut(&session_id) {
                    session.write_buf.extend_from_slice(line.as_bytes());
                }
            }
            let mut pending = false;
            for session in sessions.values_mut() {
                if session.write_buf.is_empty() {
                    continue;
                }
                match session.stream.write(&session.write_buf) {
                    Ok(written) if written > 0 => {
                        session.write_buf.drain(..written);
                    }
                    _ => {}
                }
                pending |= !session.write_buf.is_empty();
            }
            if (!pending && scheduler.stats().inflight.units() == 0) || Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

enum ReadOutcome {
    Progress,
    Idle,
    Closed,
}

fn read_available(stream: &mut TcpStream, buf: &mut Vec<u8>) -> ReadOutcome {
    let mut chunk = [0u8; 16 * 1024];
    let mut outcome = ReadOutcome::Idle;
    loop {
        // The "server.read" failpoint models a transiently failing
        // recv(2): transient kinds defer to the next tick (bytes stay in
        // the socket buffer), anything else drops the connection like a
        // real read error would.
        if let Some(failure) = perfxplain_core::failpoints::trigger("server.read") {
            match failure.into_io_error("server.read").kind() {
                ErrorKind::WouldBlock | ErrorKind::Interrupted | ErrorKind::TimedOut => {
                    return outcome
                }
                _ => return ReadOutcome::Closed,
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => return ReadOutcome::Closed,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                outcome = ReadOutcome::Progress;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return outcome,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return ReadOutcome::Closed,
        }
    }
}

fn trim_frame(frame: &[u8]) -> &[u8] {
    let mut frame = frame;
    while let [rest @ .., last] = frame {
        if *last == b'\n' || *last == b'\r' || last.is_ascii_whitespace() {
            frame = rest;
        } else {
            break;
        }
    }
    frame
}

/// Parses one frame and either submits it to the scheduler (response will
/// arrive via the completion channel) or returns an immediate response
/// (status probes, parse errors, admission rejections, estimation
/// failures).
#[allow(clippy::too_many_arguments)]
fn handle_frame(
    session_id: u64,
    frame: &[u8],
    service: &Arc<XplainService>,
    scheduler: &Arc<Scheduler>,
    completions: &mpsc::Sender<(u64, String)>,
    stats: &Arc<ServerStats>,
    config: &ServerConfig,
    started: Instant,
    drain: &Arc<AtomicBool>,
    peer_loopback: bool,
) -> Option<WireResponse> {
    let wire = match protocol::decode_request(frame) {
        Ok(wire) => wire,
        Err(e) => {
            stats.errors.fetch_add(1, Ordering::Relaxed);
            return Some(WireResponse::error(
                None,
                400,
                ERR_BAD_FRAME,
                format!("unparseable request: {e}"),
            ));
        }
    };
    let id = wire.id;
    // Status probes are answered by the event loop itself: no admission
    // charge, no worker, no view — they must keep working while the query
    // path is saturated or shedding.
    match wire.target.as_deref() {
        None => {}
        Some("status") => {
            let sched = scheduler.stats();
            let snapshot = stats.snapshot();
            let views = service.view_stats();
            let journal = service.journal_stats();
            return Some(WireResponse {
                id,
                status: "ok".to_string(),
                code: 200,
                generation: Some(service.generation()),
                uptime_ms: Some(started.elapsed().as_millis() as u64),
                admitted: Some(snapshot.admitted),
                shed: Some(snapshot.shed),
                expired: Some(snapshot.expired),
                cancelled: Some(snapshot.cancelled),
                queue_depth: Some(sched.queued as u64),
                budget_in_use: Some(sched.inflight.units()),
                budget_total: Some(config.scheduler.budget.units()),
                refunded_units: Some(snapshot.refunded_units),
                base_rows: Some(views.base_rows),
                tail_rows: Some(views.tail_rows),
                delta_refreshes: Some(views.delta_refreshes),
                full_rebuilds: Some(views.full_rebuilds),
                compactions: Some(views.compactions),
                last_compaction_unix_ms: Some(views.last_compaction_unix_ms),
                memo_datasets: Some(views.memo_datasets),
                memo_dataset_bytes: Some(views.memo_dataset_bytes),
                memo_dataset_stores: Some(views.memo_dataset_stores),
                journal_bytes: journal.map(|j| j.bytes),
                journal_frames_appended: journal.map(|j| j.frames_appended),
                journal_frames_replayed: journal.map(|j| j.frames_replayed),
                journal_frames_truncated: journal.map(|j| j.frames_truncated),
                journal_fsyncs: journal.map(|j| j.fsyncs),
                journal_last_rotation_generation: journal.map(|j| j.last_rotation_generation),
                ..WireResponse::default()
            });
        }
        // The shutdown admin frame starts a graceful drain: this response
        // is acknowledged first (it flushes during the drain), the
        // listener stops accepting, queued and in-flight requests finish
        // under the bounded drain deadline, and the loop exits — the host
        // process (see the CLI's `serve`) then runs its final checkpoint
        // and journal fsync.  Only loopback peers may use it unless the
        // server opted into remote shutdown.
        Some("shutdown") => {
            if !peer_loopback && !config.allow_remote_shutdown {
                stats.errors.fetch_add(1, Ordering::Relaxed);
                return Some(WireResponse::error(
                    id,
                    403,
                    protocol::ERR_FORBIDDEN,
                    "shutdown is restricted to loopback connections \
                     (enable allow_remote_shutdown to accept it remotely)",
                ));
            }
            drain.store(true, Ordering::Relaxed);
            return Some(WireResponse {
                id,
                status: "ok".to_string(),
                code: 200,
                message: Some("draining: no new connections; in-flight requests finish".into()),
                ..WireResponse::default()
            });
        }
        // Appends are handled inline by the event loop too: the hand-off
        // into the log is a short lock-and-extend (no view is rebuilt — the
        // next query pays the O(tail) delta refresh), so routing them
        // through admission control would cost more than the work itself.
        Some("append") => {
            let Some(records_json) = wire.records.as_deref() else {
                stats.errors.fetch_add(1, Ordering::Relaxed);
                return Some(WireResponse::error(
                    id,
                    400,
                    ERR_BAD_FRAME,
                    "append request has no \"records\" field",
                ));
            };
            let records: Vec<ExecutionRecord> = match serde_json::from_str(records_json) {
                Ok(records) => records,
                Err(e) => {
                    stats.errors.fetch_add(1, Ordering::Relaxed);
                    return Some(WireResponse::error(
                        id,
                        400,
                        ERR_BAD_FRAME,
                        format!("unparseable \"records\" array: {e}"),
                    ));
                }
            };
            // Journal-first: a journaling service only acks after the
            // batch is framed on disk, and `durable` tells the client
            // whether it was fsynced under the journal's policy.
            let outcome = match service.append(records) {
                Ok(outcome) => outcome,
                Err(e) => {
                    stats.errors.fetch_add(1, Ordering::Relaxed);
                    return Some(WireResponse::from_core_error(id, &e));
                }
            };
            stats.appends.fetch_add(1, Ordering::Relaxed);
            return Some(WireResponse {
                id,
                status: "ok".to_string(),
                code: 200,
                generation: Some(outcome.generation),
                appended: Some(outcome.appended as u64),
                durable: Some(outcome.durable),
                ..WireResponse::default()
            });
        }
        Some(other) => {
            stats.errors.fetch_add(1, Ordering::Relaxed);
            return Some(WireResponse::error(
                id,
                400,
                ERR_BAD_FRAME,
                format!(
                    "unknown target '{other}' (omit it for a query, or use \"status\" / \
                     \"append\" / \"shutdown\")"
                ),
            ));
        }
    }
    let Some(query_text) = wire.query.clone() else {
        stats.errors.fetch_add(1, Ordering::Relaxed);
        return Some(WireResponse::error(
            id,
            400,
            ERR_BAD_FRAME,
            "request has no \"query\" field",
        ));
    };

    let deadline = wire
        .timeout_ms
        .map(Duration::from_millis)
        .or(config.default_timeout)
        .map(|timeout| Instant::now() + timeout);
    let request = build_query_request(&query_text, &wire, service, deadline);

    // Admission-time cost estimate from the plan statistics: no view is
    // built, no log features are scanned.
    let estimate = match service.estimate_cost(&request) {
        Ok(estimate) => estimate,
        Err(e) => {
            stats.errors.fetch_add(1, Ordering::Relaxed);
            return Some(WireResponse::from_core_error(id, &e));
        }
    };
    let cost = crate::cost::QueryCost::from(&estimate);

    let run = {
        let service = Arc::clone(service);
        let completions = completions.clone();
        let stats = Arc::clone(stats);
        let before_query = config.before_query.clone();
        move |charge: ChargeHandle| {
            if let Some(hook) = &before_query {
                (hook.0)(id);
            }
            // Once the view is built and the actual related-pair count is
            // measured, re-price the query and hand the estimate/actual
            // difference back to the scheduler so queued requests stop
            // waiting on budget this query will never use.
            let probe_stats = Arc::clone(&stats);
            let request = request.with_cost_probe(CostProbe::new(move |related_pairs| {
                let refined = QueryCost(estimate.refined_units(related_pairs));
                let refunded = charge.refund_to(refined);
                if refunded > 0 {
                    probe_stats
                        .refunded_units
                        .fetch_add(refunded, Ordering::Relaxed);
                }
            }));
            let response = match service.explain(&request) {
                Ok(outcome) => {
                    stats.answered.fetch_add(1, Ordering::Relaxed);
                    let refined = estimate
                        .units()
                        .min(estimate.refined_units(outcome.related_pairs));
                    WireResponse::ok(id, &outcome, refined)
                }
                Err(e) => {
                    // Mid-execution cancellations and deadline hits are
                    // accounted separately from real errors: they describe
                    // the client's patience, not the server's health.
                    let counter = match &e {
                        perfxplain_core::CoreError::Cancelled
                        | perfxplain_core::CoreError::DeadlineExceeded => &stats.cancelled,
                        _ => &stats.errors,
                    };
                    counter.fetch_add(1, Ordering::Relaxed);
                    WireResponse::from_core_error(id, &e)
                }
            };
            let _ = completions.send((session_id, protocol::encode_response_line(&response)));
        }
    };
    let on_expire = {
        let completions = completions.clone();
        let stats = Arc::clone(stats);
        // Counted here, not by the event loop's sweep: a completion, a
        // refund or an admission drains the queue too, and expires whatever
        // entry it finds past its deadline.
        move || {
            stats.expired.fetch_add(1, Ordering::Relaxed);
            let response = WireResponse::error(
                id,
                408,
                ERR_DEADLINE,
                "deadline passed while the request was queued",
            );
            let _ = completions.send((session_id, protocol::encode_response_line(&response)));
        }
    };

    match scheduler.submit(session_id, cost, deadline, run, on_expire) {
        Ok(()) => {
            stats.admitted.fetch_add(1, Ordering::Relaxed);
            None
        }
        Err(rejection) => {
            stats.shed.fetch_add(1, Ordering::Relaxed);
            let response = match rejection {
                Rejection::QueueFull { queued, capacity } => WireResponse::error(
                    id,
                    429,
                    ERR_SHED_QUEUE_FULL,
                    format!("admission queue full ({queued}/{capacity}); retry later"),
                ),
                Rejection::CostExceedsBudget { cost, budget } => WireResponse::error(
                    id,
                    429,
                    ERR_COST_EXCEEDS_BUDGET,
                    format!(
                        "estimated cost {} exceeds the server budget {}",
                        cost.units(),
                        budget.units()
                    ),
                ),
                Rejection::SessionLimit { pending, cap } => WireResponse::error(
                    id,
                    429,
                    ERR_SESSION_LIMIT,
                    format!("session has {pending}/{cap} requests pending"),
                ),
            };
            Some(response)
        }
    }
}

/// Maps the wire request onto a [`QueryRequest`]: PXQL text, pair, config
/// overrides, flags, and the deadline-bearing cancel token.
fn build_query_request(
    query_text: &str,
    wire: &WireRequest,
    service: &XplainService,
    deadline: Option<Instant>,
) -> QueryRequest {
    let mut request = QueryRequest::text(query_text);
    if let (Some(left), Some(right)) = (&wire.left, &wire.right) {
        request = request.with_pair(left.clone(), right.clone());
    }
    if wire.width.is_some() || wire.sample_size.is_some() {
        let mut config = service.config().clone();
        if let Some(width) = wire.width {
            config = config.with_width(width as usize);
        }
        if let Some(sample_size) = wire.sample_size {
            config = config.with_sample_size(sample_size as usize);
        }
        request = request.with_config(config);
    }
    if wire.auto_despite.unwrap_or(false) {
        request = request.with_despite_extension();
    }
    if wire.narrate.unwrap_or(false) {
        request = request.with_narration();
    }
    if wire.assess.unwrap_or(false) {
        request = request.with_assessment();
    }
    if let Some(deadline) = deadline {
        request = request.with_cancel(CancelToken::with_deadline(deadline));
    }
    request
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfxplain_core::ExecutionLog;

    /// The `shutdown` admin frame is loopback-only by default: a remote
    /// peer gets a typed 403 and the drain flag stays clear, while a
    /// loopback peer — or a remote one once the server opted into
    /// `allow_remote_shutdown` — starts the drain.
    #[test]
    fn shutdown_frame_is_gated_to_loopback_unless_opted_in() {
        let service = Arc::new(XplainService::new(ExecutionLog::new()));
        let pool = Arc::new(WorkerPool::new(1));
        let scheduler = Scheduler::new(pool, SchedulerConfig::default());
        let (completions, _responses) = mpsc::channel();
        let stats = Arc::new(ServerStats::default());
        let config = ServerConfig::default();
        let drain = Arc::new(AtomicBool::new(false));
        let started = Instant::now();
        let frame = br#"{"id":1,"target":"shutdown"}"#;
        let call = |config: &ServerConfig, peer_loopback: bool| {
            handle_frame(
                1,
                frame,
                &service,
                &scheduler,
                &completions,
                &stats,
                config,
                started,
                &drain,
                peer_loopback,
            )
            .expect("shutdown is answered immediately")
        };

        // Remote peer, default config: refused, the server keeps serving.
        let refused = call(&config, false);
        assert_eq!(refused.code, 403);
        assert_eq!(refused.error.as_deref(), Some(protocol::ERR_FORBIDDEN));
        assert!(!drain.load(Ordering::Relaxed));

        // Loopback peer: honored.
        let honored = call(&config, true);
        assert_eq!(honored.code, 200);
        assert!(drain.load(Ordering::Relaxed));

        // Remote peer on a server that opted into remote shutdown.
        drain.store(false, Ordering::Relaxed);
        let opted = ServerConfig {
            allow_remote_shutdown: true,
            ..ServerConfig::default()
        };
        let honored = call(&opted, false);
        assert_eq!(honored.code, 200);
        assert!(drain.load(Ordering::Relaxed));
    }
}
