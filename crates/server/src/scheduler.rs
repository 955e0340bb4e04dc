//! Cost-based admission control in front of the worker pool.
//!
//! Every request arrives with a [`QueryCost`] (from the compiled plan's
//! statistics,
//! [`XplainService::estimate_cost`](perfxplain_core::XplainService::estimate_cost))
//! and is either **admitted** — its cost charged against the configured
//! concurrent budget and its job handed to the bounded [`WorkerPool`] —
//! **queued** in a bounded FIFO when the budget is exhausted, or
//! **rejected** with a typed [`Rejection`] that the protocol layer turns
//! into a `429`-style response.  The invariants:
//!
//! * the summed cost of in-flight jobs never exceeds
//!   [`SchedulerConfig::budget`] (a single job costing more than the whole
//!   budget is rejected outright — it could never run);
//! * the queue never holds more than [`SchedulerConfig::queue_capacity`]
//!   entries — beyond that, load is shed, not buffered;
//! * dispatch is FIFO with one exception: an entry whose *session* is
//!   already at its in-flight cap is skipped (not dropped), so one
//!   pipelining connection cannot park the whole queue behind its own
//!   backlog — the per-session fairness rule;
//! * an entry whose deadline passes while queued is shed with its
//!   `on_expire` callback, both when a completion drains the queue and on
//!   the event loop's periodic [`Scheduler::sweep_expired`] tick.
//!
//! The scheduler owns no threads of its own: jobs run on the pool, and all
//! callbacks (`on_expire`, rejections at submit) run outside the state
//! lock.

use crate::cost::QueryCost;
use perfxplain_core::pool::WorkerPool;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Admission-control limits.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Maximum summed cost of concurrently executing jobs.
    pub budget: QueryCost,
    /// Maximum queued (admitted-but-waiting) requests before shedding.
    pub queue_capacity: usize,
    /// Maximum concurrently *executing* requests per session; further
    /// requests from the session wait in queue while others pass them.
    pub max_inflight_per_session: usize,
    /// Maximum in-flight + queued requests per session; beyond it the
    /// session's submissions are rejected with [`Rejection::SessionLimit`].
    pub max_pending_per_session: usize,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            budget: QueryCost(4096),
            queue_capacity: 64,
            max_inflight_per_session: 4,
            max_pending_per_session: 16,
        }
    }
}

/// Why a submission was refused.  Every variant is shed load, not an
/// internal failure; clients may retry (except `CostExceedsBudget`, which
/// is permanent at this server configuration).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejection {
    /// The admission queue is at capacity.
    QueueFull {
        /// Entries currently queued.
        queued: usize,
        /// The configured capacity.
        capacity: usize,
    },
    /// The job alone costs more than the entire budget.
    CostExceedsBudget {
        /// The job's estimated cost.
        cost: QueryCost,
        /// The configured budget.
        budget: QueryCost,
    },
    /// The session is at its pending-request cap.
    SessionLimit {
        /// The session's in-flight + queued requests.
        pending: usize,
        /// The configured cap.
        cap: usize,
    },
}

/// An admitted job.  It receives a [`ChargeHandle`] so it can *refine* its
/// own admission charge mid-flight once the actual work is measured.
type Job = Box<dyn FnOnce(ChargeHandle) + Send + 'static>;
type ExpireJob = Box<dyn FnOnce() + Send + 'static>;

/// A running job's live admission charge.
///
/// Admission charges the *estimate* — a conservative upper bound from the
/// compiled plan.  Once the job has enumerated its actual work (e.g. the
/// real related-pair count), it can [`refund_to`](ChargeHandle::refund_to)
/// the lower measured cost: the difference returns to the budget
/// immediately and queued requests the freed budget now covers dispatch
/// without waiting for this job to finish.  The charge can only go down —
/// raising it could retroactively overdraw the budget.  Whatever charge is
/// held when the job returns is released by the completion wrapper.
pub struct ChargeHandle {
    scheduler: Arc<Scheduler>,
    /// Units currently held, shared with the completion wrapper so a
    /// refund is never double-released.
    charge: Arc<AtomicU64>,
}

impl ChargeHandle {
    /// The units this job currently holds against the budget.
    pub fn held(&self) -> QueryCost {
        QueryCost(self.charge.load(Ordering::SeqCst))
    }

    /// Lowers the held charge to `refined` (no-op unless it is lower),
    /// returning the freed budget to the scheduler and dispatching queued
    /// work it now covers.  Returns the units refunded.
    ///
    /// Only the job's own thread calls this, so the load–store pair on the
    /// charge cell is race-free; the per-session in-flight *count* is
    /// untouched (it counts jobs, not cost).
    pub fn refund_to(&self, refined: QueryCost) -> u64 {
        let current = self.charge.load(Ordering::SeqCst);
        if refined.0 >= current {
            return 0;
        }
        let delta = current - refined.0;
        self.charge.store(refined.0, Ordering::SeqCst);
        let (dispatch, expired) = {
            let mut state = self
                .scheduler
                .state
                .lock()
                .expect("scheduler lock poisoned");
            state.inflight -= QueryCost(delta);
            self.scheduler.drain_locked(&mut state)
        };
        self.scheduler.run_drained(dispatch, expired);
        delta
    }
}

impl std::fmt::Debug for ChargeHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChargeHandle")
            .field("held", &self.held())
            .finish()
    }
}

struct QueuedEntry {
    session: u64,
    cost: QueryCost,
    deadline: Option<Instant>,
    run: Job,
    on_expire: ExpireJob,
}

#[derive(Default)]
struct State {
    inflight: QueryCost,
    inflight_by_session: HashMap<u64, usize>,
    queued_by_session: HashMap<u64, usize>,
    queue: VecDeque<QueuedEntry>,
    expired_total: u64,
}

impl State {
    fn pending(&self, session: u64) -> usize {
        self.inflight_by_session.get(&session).copied().unwrap_or(0)
            + self.queued_by_session.get(&session).copied().unwrap_or(0)
    }

    fn session_at_inflight_cap(&self, session: u64, cap: usize) -> bool {
        self.inflight_by_session.get(&session).copied().unwrap_or(0) >= cap
    }

    fn charge(&mut self, session: u64, cost: QueryCost) {
        self.inflight += cost;
        *self.inflight_by_session.entry(session).or_insert(0) += 1;
    }

    fn release(&mut self, session: u64, cost: QueryCost) {
        self.inflight -= cost;
        if let Some(count) = self.inflight_by_session.get_mut(&session) {
            *count = count.saturating_sub(1);
            if *count == 0 {
                self.inflight_by_session.remove(&session);
            }
        }
    }

    fn drop_queued_count(&mut self, session: u64) {
        if let Some(count) = self.queued_by_session.get_mut(&session) {
            *count = count.saturating_sub(1);
            if *count == 0 {
                self.queued_by_session.remove(&session);
            }
        }
    }
}

/// Counters exposed for observability and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Summed cost of currently executing jobs.
    pub inflight: QueryCost,
    /// Currently executing jobs.
    pub running: usize,
    /// Currently queued jobs.
    pub queued: usize,
    /// Total queued entries shed because their deadline passed.
    pub expired_total: u64,
}

/// The cost-gated scheduler.  Shared as `Arc<Scheduler>` between the event
/// loop (submissions, sweeps) and the pool workers (completions).
pub struct Scheduler {
    pool: Arc<WorkerPool>,
    config: SchedulerConfig,
    state: Mutex<State>,
}

impl Scheduler {
    /// Creates a scheduler dispatching onto `pool`.
    pub fn new(pool: Arc<WorkerPool>, config: SchedulerConfig) -> Arc<Scheduler> {
        Arc::new(Scheduler {
            pool,
            config,
            state: Mutex::new(State::default()),
        })
    }

    /// The configured limits.
    pub fn config(&self) -> &SchedulerConfig {
        &self.config
    }

    /// The pool this scheduler dispatches onto.
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// Current counters.
    pub fn stats(&self) -> SchedulerStats {
        let state = self.state.lock().expect("scheduler lock poisoned");
        SchedulerStats {
            inflight: state.inflight,
            running: state.inflight_by_session.values().sum(),
            queued: state.queue.len(),
            expired_total: state.expired_total,
        }
    }

    /// Submits a job for session `session` at cost `cost`.  On admission
    /// the job starts on the pool (immediately, or after queueing behind
    /// the budget); `on_expire` fires instead if `deadline` passes while
    /// the job is still queued.  A [`Rejection`] means neither callback
    /// will ever run — the caller responds to the client directly.
    pub fn submit(
        self: &Arc<Self>,
        session: u64,
        cost: QueryCost,
        deadline: Option<Instant>,
        run: impl FnOnce(ChargeHandle) + Send + 'static,
        on_expire: impl FnOnce() + Send + 'static,
    ) -> Result<(), Rejection> {
        if cost > self.config.budget {
            return Err(Rejection::CostExceedsBudget {
                cost,
                budget: self.config.budget,
            });
        }
        let run: Job = Box::new(run);
        let on_expire: ExpireJob = Box::new(on_expire);
        let (dispatch_now, drained) = {
            let mut state = self.state.lock().expect("scheduler lock poisoned");
            let pending = state.pending(session);
            if pending >= self.config.max_pending_per_session {
                return Err(Rejection::SessionLimit {
                    pending,
                    cap: self.config.max_pending_per_session,
                });
            }
            // FIFO: a newcomer may only bypass the queue when nothing is
            // waiting in it.
            let fits = state.inflight + cost <= self.config.budget
                && !state.session_at_inflight_cap(session, self.config.max_inflight_per_session);
            let can_run = state.queue.is_empty() && fits;
            if can_run {
                state.charge(session, cost);
                (Some(run), None)
            } else {
                if state.queue.len() >= self.config.queue_capacity {
                    return Err(Rejection::QueueFull {
                        queued: state.queue.len(),
                        capacity: self.config.queue_capacity,
                    });
                }
                state.queue.push_back(QueuedEntry {
                    session,
                    cost,
                    deadline,
                    run,
                    on_expire,
                });
                *state.queued_by_session.entry(session).or_insert(0) += 1;
                // A newcomer that fits the budget and its session cap was
                // queued only because the queue was non-empty — and the
                // entries ahead of it may all be blocked by *their*
                // sessions' in-flight caps.  Drain so it dispatches without
                // waiting for the next completion or sweep.  When the
                // newcomer itself cannot run, nothing has changed since the
                // last drain, so skip it (this also keeps already-expired
                // entries queued for the sweep to account for).
                let drained = fits.then(|| self.drain_locked(&mut state));
                (None, drained)
            }
        };
        if let Some(run) = dispatch_now {
            self.spawn(session, cost, run);
        }
        if let Some((dispatch, expired)) = drained {
            self.run_drained(dispatch, expired);
        }
        Ok(())
    }

    /// Wraps a job so completion releases its *remaining* charge and drains
    /// the queue, then hands it to the pool.  The charge starts at the
    /// admitted cost and may be lowered mid-flight through the job's
    /// [`ChargeHandle`]; whatever is left in the shared cell when the job
    /// returns is released here, so a refund is never double-counted.  The
    /// release runs even if the job panics — a panicking query must not
    /// leak budget.
    fn spawn(self: &Arc<Self>, session: u64, cost: QueryCost, run: Job) {
        let scheduler = Arc::clone(self);
        self.pool.execute(move || {
            let charge = Arc::new(AtomicU64::new(cost.0));
            let handle = ChargeHandle {
                scheduler: Arc::clone(&scheduler),
                charge: Arc::clone(&charge),
            };
            let _ = catch_unwind(AssertUnwindSafe(move || run(handle)));
            scheduler.complete(session, QueryCost(charge.load(Ordering::SeqCst)));
        });
    }

    /// Releases a finished job's cost and dispatches every queue entry the
    /// freed budget now covers (skipping — not dropping — entries whose
    /// session is at its in-flight cap, and shedding entries whose deadline
    /// passed).
    fn complete(self: &Arc<Self>, session: u64, cost: QueryCost) {
        let (dispatch, expired) = {
            let mut state = self.state.lock().expect("scheduler lock poisoned");
            state.release(session, cost);
            self.drain_locked(&mut state)
        };
        self.run_drained(dispatch, expired);
    }

    /// Sheds every queued entry whose deadline has passed.  Called
    /// periodically by the event loop so queued requests time out even when
    /// no completion happens to drain the queue.  Returns how many were
    /// shed.
    pub fn sweep_expired(self: &Arc<Self>) -> usize {
        let (dispatch, expired) = {
            let mut state = self.state.lock().expect("scheduler lock poisoned");
            self.drain_locked(&mut state)
        };
        let count = expired.len();
        self.run_drained(dispatch, expired);
        count
    }

    /// Drops queued entries of a closed session (their responses have
    /// nowhere to go); in-flight jobs finish normally and release their
    /// cost on completion.
    pub fn session_closed(self: &Arc<Self>, session: u64) {
        let mut state = self.state.lock().expect("scheduler lock poisoned");
        state.queue.retain(|entry| entry.session != session);
        state.queued_by_session.remove(&session);
    }

    /// Scans the queue under the lock: expired entries out, dispatchable
    /// entries charged and collected.  An entry that does not fit the
    /// remaining budget stops the scan (strict FIFO — cheap latecomers
    /// must not starve an expensive queue head); an entry blocked only by
    /// its session's in-flight cap is skipped.
    fn drain_locked(&self, state: &mut State) -> (Vec<(u64, QueryCost, Job)>, Vec<ExpireJob>) {
        let now = Instant::now();
        let mut dispatch = Vec::new();
        let mut expired = Vec::new();
        let mut index = 0;
        while index < state.queue.len() {
            let entry = &state.queue[index];
            if entry.deadline.is_some_and(|deadline| now >= deadline) {
                let entry = state.queue.remove(index).expect("index in bounds");
                state.drop_queued_count(entry.session);
                state.expired_total += 1;
                expired.push(entry.on_expire);
                continue;
            }
            if state.inflight + entry.cost > self.config.budget {
                break;
            }
            if state.session_at_inflight_cap(entry.session, self.config.max_inflight_per_session) {
                index += 1;
                continue;
            }
            let entry = state.queue.remove(index).expect("index in bounds");
            state.drop_queued_count(entry.session);
            state.charge(entry.session, entry.cost);
            dispatch.push((entry.session, entry.cost, entry.run));
        }
        (dispatch, expired)
    }

    /// Runs the results of a drain outside the lock.
    fn run_drained(
        self: &Arc<Self>,
        dispatch: Vec<(u64, QueryCost, Job)>,
        expired: Vec<ExpireJob>,
    ) {
        for on_expire in expired {
            let _ = catch_unwind(AssertUnwindSafe(on_expire));
        }
        for (session, cost, run) in dispatch {
            self.spawn(session, cost, run);
        }
    }
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("Scheduler")
            .field("config", &self.config)
            .field("stats", &stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    fn scheduler(config: SchedulerConfig) -> Arc<Scheduler> {
        Scheduler::new(Arc::new(WorkerPool::new(2)), config)
    }

    /// Submits a job that blocks until `release` receives, so tests can
    /// hold budget deterministically.
    fn blocking_job(
        sched: &Arc<Scheduler>,
        session: u64,
        cost: u64,
    ) -> (mpsc::Sender<()>, mpsc::Receiver<()>) {
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        sched
            .submit(
                session,
                QueryCost(cost),
                None,
                move |_| {
                    let _ = started_tx.send(());
                    let _ = release_rx.recv();
                },
                || {},
            )
            .expect("submission admitted");
        (release_tx, started_rx)
    }

    #[test]
    fn budget_bounds_concurrent_cost() {
        let sched = scheduler(SchedulerConfig {
            budget: QueryCost(10),
            ..SchedulerConfig::default()
        });
        let (release_a, started_a) = blocking_job(&sched, 1, 6);
        started_a.recv_timeout(Duration::from_secs(5)).unwrap();
        // 6 + 6 > 10: the second job must queue, not run.
        let (release_b, started_b) = blocking_job(&sched, 2, 6);
        assert!(started_b.recv_timeout(Duration::from_millis(100)).is_err());
        assert_eq!(sched.stats().queued, 1);
        assert_eq!(sched.stats().inflight, QueryCost(6));
        // Completion frees the budget and dispatches the queued job.
        release_a.send(()).unwrap();
        started_b.recv_timeout(Duration::from_secs(5)).unwrap();
        release_b.send(()).unwrap();
        while sched.stats().inflight != QueryCost(0) {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn oversized_jobs_are_rejected_outright() {
        let sched = scheduler(SchedulerConfig {
            budget: QueryCost(10),
            ..SchedulerConfig::default()
        });
        let err = sched
            .submit(1, QueryCost(11), None, |_| {}, || {})
            .unwrap_err();
        assert_eq!(
            err,
            Rejection::CostExceedsBudget {
                cost: QueryCost(11),
                budget: QueryCost(10),
            }
        );
    }

    #[test]
    fn full_queue_sheds() {
        let sched = scheduler(SchedulerConfig {
            budget: QueryCost(5),
            queue_capacity: 2,
            max_pending_per_session: 100,
            ..SchedulerConfig::default()
        });
        let (release, started) = blocking_job(&sched, 1, 5);
        started.recv_timeout(Duration::from_secs(5)).unwrap();
        // Budget is held: the next two queue, the third sheds.
        for session in 2..4 {
            sched
                .submit(session, QueryCost(1), None, |_| {}, || {})
                .expect("queued");
        }
        let err = sched
            .submit(4, QueryCost(1), None, |_| {}, || {})
            .unwrap_err();
        assert_eq!(
            err,
            Rejection::QueueFull {
                queued: 2,
                capacity: 2,
            }
        );
        release.send(()).unwrap();
    }

    #[test]
    fn session_inflight_cap_lets_other_sessions_pass() {
        // One worker-sized budget per job; the hog session may run at most
        // one job at a time, so its queued backlog must not block the
        // victim queued behind it.
        let sched = scheduler(SchedulerConfig {
            budget: QueryCost(100),
            queue_capacity: 32,
            max_inflight_per_session: 1,
            max_pending_per_session: 32,
        });
        let hog_done = Arc::new(AtomicUsize::new(0));
        let (hog_release, hog_started) = blocking_job(&sched, 1, 1);
        hog_started.recv_timeout(Duration::from_secs(5)).unwrap();
        // The hog pipelines a backlog; all of it queues behind its own cap.
        for _ in 0..4 {
            let hog_done = Arc::clone(&hog_done);
            sched
                .submit(
                    1,
                    QueryCost(1),
                    None,
                    move |_| {
                        hog_done.fetch_add(1, Ordering::SeqCst);
                    },
                    || {},
                )
                .expect("hog backlog queues");
        }
        assert_eq!(sched.stats().queued, 4);
        // The victim arrives after the hog's backlog but passes it: its
        // session is under cap and the budget has room.
        let (victim_tx, victim_rx) = mpsc::channel::<()>();
        sched
            .submit(
                2,
                QueryCost(1),
                None,
                move |_| {
                    let _ = victim_tx.send(());
                },
                || {},
            )
            .expect("victim admitted");
        victim_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("victim served while the hog's backlog waits");
        assert_eq!(hog_done.load(Ordering::SeqCst), 0);
        // Once the hog's running job finishes its backlog drains serially.
        hog_release.send(()).unwrap();
        while hog_done.load(Ordering::SeqCst) < 4 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn session_pending_cap_rejects_floods() {
        let sched = scheduler(SchedulerConfig {
            budget: QueryCost(1),
            queue_capacity: 100,
            max_inflight_per_session: 1,
            max_pending_per_session: 3,
        });
        let (release, started) = blocking_job(&sched, 1, 1);
        started.recv_timeout(Duration::from_secs(5)).unwrap();
        for _ in 0..2 {
            sched.submit(1, QueryCost(1), None, |_| {}, || {}).unwrap();
        }
        let err = sched
            .submit(1, QueryCost(1), None, |_| {}, || {})
            .unwrap_err();
        assert_eq!(err, Rejection::SessionLimit { pending: 3, cap: 3 });
        // Another session is unaffected by the flooder's cap.
        sched.submit(2, QueryCost(1), None, |_| {}, || {}).unwrap();
        release.send(()).unwrap();
    }

    #[test]
    fn queued_entries_expire_on_sweep_and_on_drain() {
        let sched = scheduler(SchedulerConfig {
            budget: QueryCost(1),
            queue_capacity: 10,
            ..SchedulerConfig::default()
        });
        let (release, started) = blocking_job(&sched, 1, 1);
        started.recv_timeout(Duration::from_secs(5)).unwrap();
        let expired = Arc::new(AtomicUsize::new(0));
        let ran = Arc::new(AtomicUsize::new(0));
        let already_past = Instant::now() - Duration::from_millis(1);
        for _ in 0..2 {
            let expired = Arc::clone(&expired);
            let ran = Arc::clone(&ran);
            sched
                .submit(
                    2,
                    QueryCost(1),
                    Some(already_past),
                    move |_| {
                        ran.fetch_add(1, Ordering::SeqCst);
                    },
                    move || {
                        expired.fetch_add(1, Ordering::SeqCst);
                    },
                )
                .expect("queued despite expired deadline");
        }
        // The periodic sweep sheds both expired entries at once.
        let swept = sched.sweep_expired();
        assert_eq!(swept, 2);
        assert_eq!(expired.load(Ordering::SeqCst), 2);
        assert_eq!(ran.load(Ordering::SeqCst), 0);
        assert_eq!(sched.stats().expired_total, 2);

        // Mid-queue expiry on the completion-drain path too.
        let expired_b = Arc::clone(&expired);
        sched
            .submit(
                2,
                QueryCost(1),
                Some(already_past),
                |_| {},
                move || {
                    expired_b.fetch_add(1, Ordering::SeqCst);
                },
            )
            .unwrap();
        release.send(()).unwrap();
        while expired.load(Ordering::SeqCst) < 3 {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(ran.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn closed_sessions_drop_their_queue_entries() {
        let sched = scheduler(SchedulerConfig {
            budget: QueryCost(1),
            queue_capacity: 10,
            ..SchedulerConfig::default()
        });
        let (release, started) = blocking_job(&sched, 1, 1);
        started.recv_timeout(Duration::from_secs(5)).unwrap();
        let ran = Arc::new(AtomicUsize::new(0));
        for session in [2u64, 3, 2] {
            let ran = Arc::clone(&ran);
            sched
                .submit(
                    session,
                    QueryCost(1),
                    None,
                    move |_| {
                        ran.fetch_add(1, Ordering::SeqCst);
                    },
                    || {},
                )
                .unwrap();
        }
        sched.session_closed(2);
        assert_eq!(sched.stats().queued, 1);
        release.send(()).unwrap();
        // Only session 3's entry survives to run.
        while ran.load(Ordering::SeqCst) < 1 {
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(ran.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn panicking_jobs_release_their_budget() {
        let sched = scheduler(SchedulerConfig {
            budget: QueryCost(2),
            ..SchedulerConfig::default()
        });
        sched
            .submit(1, QueryCost(2), None, |_| panic!("query exploded"), || {})
            .unwrap();
        // The full budget must come back, or this submission never runs.
        let (tx, rx) = mpsc::channel::<()>();
        for _ in 0..200 {
            if sched.stats().inflight == QueryCost(0) {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        sched
            .submit(
                1,
                QueryCost(2),
                None,
                move |_| {
                    let _ = tx.send(());
                },
                || {},
            )
            .unwrap();
        rx.recv_timeout(Duration::from_secs(5))
            .expect("budget leaked by a panicking job");
    }

    #[test]
    fn mid_flight_refunds_free_budget_for_queued_jobs() {
        let sched = scheduler(SchedulerConfig {
            budget: QueryCost(10),
            ..SchedulerConfig::default()
        });
        // A job admitted at cost 9 that will refund down to 2 mid-flight.
        let (refund_tx, refund_rx) = mpsc::channel::<()>();
        let (finish_tx, finish_rx) = mpsc::channel::<()>();
        let (refunded_tx, refunded_rx) = mpsc::channel::<u64>();
        sched
            .submit(
                1,
                QueryCost(9),
                None,
                move |charge: ChargeHandle| {
                    assert_eq!(charge.held(), QueryCost(9));
                    let _ = refund_rx.recv();
                    let freed = charge.refund_to(QueryCost(2));
                    assert_eq!(charge.held(), QueryCost(2));
                    // Raising the charge back up is refused.
                    assert_eq!(charge.refund_to(QueryCost(5)), 0);
                    let _ = refunded_tx.send(freed);
                    let _ = finish_rx.recv();
                },
                || {},
            )
            .unwrap();
        // A 6-unit job from another session does not fit behind 9/10.
        let (queued_tx, queued_rx) = mpsc::channel::<()>();
        sched
            .submit(
                2,
                QueryCost(6),
                None,
                move |_| {
                    let _ = queued_tx.send(());
                },
                || {},
            )
            .unwrap();
        assert!(queued_rx.recv_timeout(Duration::from_millis(100)).is_err());
        assert_eq!(sched.stats().queued, 1);
        // The refund drops in-flight cost to 2, which dispatches the queued
        // job while the refunding job is still running.
        refund_tx.send(()).unwrap();
        assert_eq!(refunded_rx.recv_timeout(Duration::from_secs(5)).unwrap(), 7);
        queued_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("refund did not release budget to the queue");
        // Completion releases only the refined charge — nothing leaks and
        // nothing is double-released.
        finish_tx.send(()).unwrap();
        for _ in 0..500 {
            if sched.stats().inflight == QueryCost(0) {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(sched.stats().inflight, QueryCost(0));
    }
}
