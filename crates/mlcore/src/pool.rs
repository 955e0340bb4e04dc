//! The worker pool behind every parallel loop: long-lived threads consuming
//! queued jobs.
//!
//! The process-wide [`shared`] pool, one worker per hardware thread, runs
//! every CPU fan-out of the workspace: pair enumeration, the per-feature
//! split searches, Relief, sharded encodes, snapshot IO, the bundle
//! collectors, batch ingest, the simulator sweep and batch explains, plus
//! background compaction.  Nothing else spawns threads per call.  A server
//! with an explicit concurrency bound builds its own [`WorkerPool`], whose
//! size is the bound its admission controller charges against.
//!
//! * [`WorkerPool::execute`] enqueues an owned (`'static`) job — the shape
//!   network request handlers take, each job owning its `Arc`s.
//! * [`WorkerPool::map_chunks`] fans a *borrowed* slice out over the pool's
//!   threads and blocks until every chunk is done.  While it waits, the
//!   calling thread **helps with its own call**: it takes its call's
//!   still-queued chunks off the queue and runs them inline, so a
//!   saturated — or nested — pool can never deadlock a `map_chunks`
//!   caller, and a pool of `t` threads gives batch work `t+1` active lanes.
//! * [`WorkerPool::map_chunks_gated`] is `map_chunks` under the size rule
//!   below, for loops whose work depends on the input.
//!
//! # When a fan-out runs inline
//!
//! A call runs `f` inline on the caller unless the pool has more than one
//! thread; a gated call also needs its work to reach [`MIN_FAN_OUT_WORK`]
//! inner-loop steps (cells scanned, candidate pairs classified), and runs
//! `f` once over the whole slice otherwise.  Calls that fan out over whole
//! shards, bundles or configurations skip the work test and ask for an
//! explicit chunk count, which a one-thread pool keeps: it runs `f` inline
//! once per chunk, so such a call returns the same chunks on every host.
//! A two-chunk pool fan-out costs a few microseconds per call (3.6–4.5 µs
//! on a 2-vCPU Xeon guest, against 84–90 µs for spawning two scoped
//! threads there), so the threshold sits at the smallest input worth
//! splitting at all.  On a one-thread pool — one hardware thread, or a
//! process pinned to one CPU — nothing is ever queued by a fan-out, and
//! results never depend on the side of the rule a call takes.
//!
//! Workers start with the first queued job, not with the pool, so on one
//! CPU the shared pool gets a thread only for its first `execute` job.  A
//! worker already idling there would be woken by that job — say a
//! compaction queued by a snapshot open's journal replay — and preempt the
//! caller, sharing its one CPU with the fold before the open returns.
//!
//! # Failure handling
//!
//! A job that panics is caught at the worker (the pool survives; `execute`
//! jobs are fire-and-forget, so their panics are swallowed after the catch),
//! and `map_chunks` re-raises the first chunk panic, with its original
//! payload, in the caller once every chunk has settled — the same contract
//! as `std::thread::scope`.  Poisoned locks are *recovered*, never
//! propagated: a panic that lands while one of the pool's mutexes is held
//! cannot corrupt the queue (every critical section is a single
//! push/pop/counter step), so treating poison as fatal would only convert
//! one bad job into a dead process-wide [`shared`] pool.  Under
//! `--features failpoints` the `"pool.job"` site injects worker faults
//! between pop and run; faulted jobs are requeued, never dropped.
//!
//! The queue is intentionally unbounded: the pool's callers bound it.  The
//! server charges every job against a concurrent-cost budget *before*
//! submitting (its bounded admission queue is the real backpressure), and
//! `map_chunks` enqueues at most one job per chunk of a slice the caller
//! already holds.
//!
//! # Why a waiter helps only its own call
//!
//! A waiting `map_chunks` caller never runs another caller's job, queued
//! ahead of its chunks or not.  The caller may hold a lock that job needs:
//! `XplainService` answers a query — and fans its enumeration and clause
//! loop out here — under its log's read guard, and a chunk of a concurrent
//! batch explain takes that guard again, which blocks behind a queued
//! writer and deadlocks both threads.  Nor does a served request run a
//! queued background compaction inline before its own answer returns.
//! Workers, idle at the bottom of their stacks, take whatever job is at
//! the head of the queue.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// The size rule of [`WorkerPool::map_chunks_gated`]: a gated call whose
/// work is below this many inner-loop steps runs inline.
pub const MIN_FAN_OUT_WORK: usize = 1 << 14;

/// An enqueued job.  Jobs are type-erased closures; `map_chunks` erases the
/// *lifetime* too (see the safety argument there).
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Locks `mutex`, recovering from poisoning instead of panicking.
///
/// Every critical section in this module is a handful of queue or counter
/// operations that leave the data consistent even if a panic lands mid-hold
/// (there are no multi-step invariants spanning an unwind point), so the
/// poison flag carries no information the pool needs — and propagating it
/// would turn one panicking job into a dead pool for every *other* caller
/// of the process-wide [`shared`] singleton.
fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poison| poison.into_inner())
}

/// A queued job, tagged with the `map_chunks` call it is a chunk of (`None`
/// for an `execute` job) so that call's waiter can find it.
struct Queued {
    call: Option<usize>,
    job: Job,
}

/// Shared pool state: the job queue plus the shutdown flag, under one lock
/// so workers can wait on a single condvar.
struct PoolState {
    queue: VecDeque<Queued>,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Signalled when a job is enqueued or shutdown begins.
    work_ready: Condvar,
    /// Source of the ids that tag each `map_chunks` call's chunks.
    next_call: AtomicUsize,
}

impl PoolShared {
    fn push(&self, queued: Queued) {
        lock_recover(&self.state).queue.push_back(queued);
        self.work_ready.notify_one();
    }

    /// Takes the first still-queued chunk of `call` off the queue, wherever
    /// it sits.
    fn take_chunk_of(&self, call: usize) -> Option<Queued> {
        let mut state = lock_recover(&self.state);
        let position = state
            .queue
            .iter()
            .position(|queued| queued.call == Some(call))?;
        state.queue.remove(position)
    }

    /// Runs one dequeued job, for a worker and a helping waiter alike.
    ///
    /// The "pool.job" failpoint models a worker blowing up *around* a job
    /// rather than inside it: an injected fault (or `Panic` action) is
    /// caught here and the never-run job is pushed back for the next pop,
    /// so a chunk job's completion latch still counts down eventually —
    /// jobs are retried, never lost.  Scripted once-then-succeed schedules
    /// therefore converge; an `Always` panic would spin, which is the chaos
    /// harness's problem, not the pool's.
    fn run(&self, queued: Queued) {
        #[cfg(feature = "failpoints")]
        {
            let faulted = catch_unwind(AssertUnwindSafe(|| {
                if let Some(failure) = crate::failpoints::trigger("pool.job") {
                    std::panic::panic_any(failure.into_io_error("pool.job").to_string());
                }
            }))
            .is_err();
            if faulted {
                self.push(queued);
                return;
            }
        }
        // A panicking job must not take the worker (and with it the whole
        // pool's capacity) down, nor abort a helping waiter: its own chunks
        // park their panics in their slots, and `execute` jobs are
        // fire-and-forget.
        let _ = catch_unwind(AssertUnwindSafe(queued.job));
    }
}

/// A fixed-size pool of worker threads consuming a shared job queue.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    threads: usize,
    /// Spawned with the first queued job (see `push`).
    workers: OnceLock<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .field("queued", &self.queued())
            .finish()
    }
}

impl WorkerPool {
    /// Creates a pool of `threads` workers (clamped to `1..=`
    /// [`MAX_FANOUT`](crate::shard::MAX_FANOUT) — thread counts reach this
    /// constructor from server configuration, i.e. user input).
    pub fn new(threads: usize) -> WorkerPool {
        WorkerPool {
            shared: Arc::new(PoolShared {
                state: Mutex::new(PoolState {
                    queue: VecDeque::new(),
                    shutdown: false,
                }),
                work_ready: Condvar::new(),
                next_call: AtomicUsize::new(0),
            }),
            threads: threads.clamp(1, crate::shard::MAX_FANOUT),
            workers: OnceLock::new(),
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of jobs currently queued (not yet picked up by a worker).
    pub fn queued(&self) -> usize {
        lock_recover(&self.shared.state).queue.len()
    }

    /// Enqueues an owned job.  Jobs run in FIFO order across the pool's
    /// workers; a panicking job is caught at the worker and does not take
    /// the pool down.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        self.push(Queued {
            call: None,
            job: Box::new(job),
        });
    }

    /// Queues a job, spawning the workers with the first one, so a pool
    /// whose fan-outs all run inline (any pool on one CPU) has no thread
    /// until its first `execute` job.
    fn push(&self, queued: Queued) {
        self.workers.get_or_init(|| {
            (0..self.threads)
                .map(|index| {
                    let shared = Arc::clone(&self.shared);
                    std::thread::Builder::new()
                        .name(format!("pxworker-{index}"))
                        .spawn(move || worker_loop(&shared))
                        .expect("worker thread spawns")
                })
                .collect()
        });
        self.shared.push(queued);
    }

    /// Runs `f` over up to `chunks` contiguous chunks of `items` (clamped
    /// to [`MAX_FANOUT`](crate::shard::MAX_FANOUT)) on the pool's workers
    /// and returns the per-chunk results in chunk order.  With `chunks <= 1`
    /// or fewer than two items, `f` runs inline on the caller, once, over
    /// the whole slice; a one-thread pool runs it inline once per chunk.
    ///
    /// The calling thread helps while it waits: it runs its own call's
    /// chunks that no worker has taken yet, and never another caller's
    /// job.  So calling this from inside a pool job — or on a pool whose
    /// workers are all busy — makes progress instead of deadlocking, and a
    /// caller holding a lock runs nothing but its own chunks under it.  If
    /// any chunk panics, the panic is re-raised here after all chunks have
    /// settled.
    pub fn map_chunks<T, R>(
        &self,
        items: &[T],
        chunks: usize,
        f: impl Fn(&[T]) -> R + Sync,
    ) -> Vec<R>
    where
        T: Sync,
        R: Send,
    {
        if chunks <= 1 || items.len() <= 1 {
            return vec![f(items)];
        }
        let chunk_size = items
            .len()
            .div_ceil(chunks.min(crate::shard::MAX_FANOUT))
            .max(1);
        if self.threads() <= 1 {
            return items.chunks(chunk_size).map(f).collect();
        }
        let chunk_slices: Vec<&[T]> = items.chunks(chunk_size).collect();
        let slots: Vec<Mutex<Option<std::thread::Result<R>>>> =
            chunk_slices.iter().map(|_| Mutex::new(None)).collect();
        let latch = Latch::new(chunk_slices.len());
        let call = self.shared.next_call.fetch_add(1, Ordering::Relaxed);

        let f = &f;
        for (slot, chunk) in slots.iter().zip(&chunk_slices) {
            let latch = &latch;
            let task = move || {
                // The latch must count down even if `f` panics, or the
                // caller below would wait forever; the payload is parked in
                // the slot and re-raised by the caller.
                let outcome = catch_unwind(AssertUnwindSafe(|| f(chunk)));
                *lock_recover(slot) = Some(outcome);
                latch.count_down();
            };
            // SAFETY: `task` borrows `f`, `slots`, `chunk_slices` and
            // `latch`, all of which outlive this function call, and the
            // latch wait below does not return until every submitted task
            // has run to completion (the count-down is unconditional, even
            // on panic).  No borrowed task can therefore outlive its
            // borrows; erasing the lifetime to enqueue it alongside owned
            // jobs is sound — the exact argument scoped thread APIs make.
            let erased: Job = unsafe {
                std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(Box::new(task))
            };
            self.push(Queued {
                call: Some(call),
                job: erased,
            });
        }

        // Help while waiting, with this call's own chunks only (see the
        // module docs), so a saturated or nested pool still makes progress.
        // A panicking job must not abort the wait, or borrowed tasks could
        // outlive `f`; `run` catches it.  The wait is a poll because an
        // injected `pool.job` fault can put a chunk back on the queue.
        while !latch.is_done() {
            match self.shared.take_chunk_of(call) {
                Some(chunk) => self.shared.run(chunk),
                None => latch.wait_a_moment(),
            }
        }

        slots
            .into_iter()
            .map(|slot| {
                let outcome = slot
                    .into_inner()
                    .unwrap_or_else(|poison| poison.into_inner())
                    .expect("latch released with an empty chunk slot");
                outcome.unwrap_or_else(|payload| resume_unwind(payload))
            })
            .collect()
    }

    /// [`map_chunks`](Self::map_chunks) under the size rule: one chunk per
    /// pool thread when `work` — the call's inner-loop steps, such as cells
    /// scanned or candidate pairs classified — reaches
    /// [`MIN_FAN_OUT_WORK`], and `f` inline over the whole slice otherwise.
    /// The per-chunk results come back in chunk order, so their
    /// concatenation is the same on both sides of the rule.
    pub fn map_chunks_gated<T, R>(
        &self,
        items: &[T],
        work: usize,
        f: impl Fn(&[T]) -> R + Sync,
    ) -> Vec<R>
    where
        T: Sync,
        R: Send,
    {
        let chunks = if work >= MIN_FAN_OUT_WORK {
            self.threads()
        } else {
            1
        };
        self.map_chunks(items, chunks, f)
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut state = lock_recover(&self.shared.state);
            state.shutdown = true;
        }
        self.shared.work_ready.notify_all();
        for worker in self.workers.take().into_iter().flatten() {
            let _ = worker.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let queued = {
            let mut state = lock_recover(&shared.state);
            loop {
                if let Some(queued) = state.queue.pop_front() {
                    break queued;
                }
                if state.shutdown {
                    return;
                }
                state = shared
                    .work_ready
                    .wait(state)
                    .unwrap_or_else(|poison| poison.into_inner());
            }
        };
        shared.run(queued);
    }
}

/// A completion latch: `map_chunks` waits on it while the pool runs the
/// chunks.
struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
}

impl Latch {
    fn new(count: usize) -> Latch {
        Latch {
            remaining: Mutex::new(count),
            done: Condvar::new(),
        }
    }

    fn count_down(&self) {
        let mut remaining = lock_recover(&self.remaining);
        *remaining -= 1;
        if *remaining == 0 {
            self.done.notify_all();
        }
    }

    fn is_done(&self) -> bool {
        *lock_recover(&self.remaining) == 0
    }

    /// Waits briefly for the latch; the caller re-checks the queue for its
    /// own chunks between waits.
    fn wait_a_moment(&self) {
        let remaining = lock_recover(&self.remaining);
        if *remaining > 0 {
            let _ = self
                .done
                .wait_timeout(remaining, Duration::from_millis(1))
                .unwrap_or_else(|poison| poison.into_inner());
        }
    }
}

/// The process-wide shared pool: one worker per hardware thread, created on
/// first use.  Every parallel loop of the workspace fans out through this
/// pool; servers with an explicit concurrency bound create their own
/// [`WorkerPool`] for requests.
pub fn shared() -> &'static WorkerPool {
    static SHARED: OnceLock<WorkerPool> = OnceLock::new();
    SHARED.get_or_init(|| WorkerPool::new(crate::shard::hardware_threads()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn executes_owned_jobs() {
        let pool = WorkerPool::new(2);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..64 {
            let counter = Arc::clone(&counter);
            pool.execute(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(pool); // joins workers; all queued jobs ran first or were dropped?
                    // Drop drains nothing: shutdown only stops workers once the queue is
                    // empty (workers pop before checking the flag), so every job ran.
        assert_eq!(counter.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn map_chunks_matches_the_scoped_fanout() {
        let pool = WorkerPool::new(3);
        let items: Vec<usize> = (0..1000).collect();
        let sum = |chunk: &[usize]| chunk.iter().sum::<usize>();
        for chunks in [1, 2, 3, 7, 100] {
            let serial: Vec<usize> = if chunks == 1 {
                vec![sum(&items)]
            } else {
                items
                    .chunks(items.len().div_ceil(chunks))
                    .map(sum)
                    .collect()
            };
            assert_eq!(
                pool.map_chunks(&items, chunks, sum),
                serial,
                "{chunks} chunks diverge"
            );
            let echoed: Vec<usize> = pool.map_chunks(&items, chunks, <[usize]>::to_vec).concat();
            assert_eq!(echoed, items);
        }
    }

    #[test]
    fn map_chunks_runs_inline_on_degenerate_inputs() {
        let pool = WorkerPool::new(2);
        let empty: Vec<usize> = Vec::new();
        assert_eq!(pool.map_chunks(&empty, 8, <[usize]>::len), vec![0]);
        assert_eq!(pool.map_chunks(&[7usize], 8, <[usize]>::len), vec![1]);
    }

    #[test]
    fn absurd_chunk_counts_are_clamped() {
        let pool = WorkerPool::new(2);
        let items: Vec<usize> = (0..10_000).collect();
        let results = pool.map_chunks(&items, usize::MAX, <[usize]>::to_vec);
        assert!(results.len() <= crate::shard::MAX_FANOUT);
        assert_eq!(results.concat(), items);
    }

    #[test]
    fn gated_fanout_is_order_preserving_on_both_sides_of_the_gate() {
        let items: Vec<usize> = (0..500).collect();
        let double = |chunk: &[usize]| chunk.iter().map(|&x| x * 2).collect::<Vec<_>>();
        let expected: Vec<usize> = items.iter().map(|&x| x * 2).collect();

        // Below the rule: one inline call; at it: one chunk per thread.
        // Same concatenation either way.
        let pool = WorkerPool::new(2);
        let below = pool.map_chunks_gated(&items, MIN_FAN_OUT_WORK - 1, double);
        assert_eq!(below.len(), 1);
        assert_eq!(below.concat(), expected);
        let above = pool.map_chunks_gated(&items, MIN_FAN_OUT_WORK, double);
        assert_eq!(above.len(), 2);
        assert_eq!(above.concat(), expected);

        // A one-thread pool (one CPU) runs a gated `f` exactly once, over
        // the whole slice, however large the work.
        let single = WorkerPool::new(1);
        let calls = AtomicUsize::new(0);
        let counted = |chunk: &[usize]| {
            calls.fetch_add(1, Ordering::SeqCst);
            double(chunk)
        };
        assert_eq!(
            single.map_chunks_gated(&items, usize::MAX, counted),
            vec![expected.clone()]
        );
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        // An explicit chunk count is kept: `f` runs inline once per chunk.
        let chunked = single.map_chunks(&items, 8, counted);
        assert_eq!(chunked.len(), 8);
        assert_eq!(chunked.concat(), expected);
        assert_eq!(calls.load(Ordering::SeqCst), 1 + 8);
        // Inline calls queue nothing, so the pool has not started a thread.
        assert!(single.workers.get().is_none());
    }

    #[test]
    fn nested_map_chunks_does_not_deadlock() {
        // Every chunk of the outer call runs another map_chunks on the SAME
        // pool; with both workers blocked in nested waits, only
        // caller-helping can make progress.
        let pool = WorkerPool::new(2);
        let items: Vec<usize> = (0..100).collect();
        let total: usize = pool
            .map_chunks(&items, 4, |chunk| {
                pool.map_chunks(chunk, 2, |inner| inner.iter().sum::<usize>())
                    .into_iter()
                    .sum::<usize>()
            })
            .into_iter()
            .sum();
        assert_eq!(total, items.iter().sum::<usize>());
    }

    #[test]
    fn a_waiter_runs_only_its_own_chunks() {
        let pool = WorkerPool::new(2);
        // Park both workers, then queue a job of another caller behind them.
        let started = Arc::new(std::sync::Barrier::new(3));
        let (release, parked) = std::sync::mpsc::channel::<()>();
        let parked = Arc::new(Mutex::new(parked));
        for _ in 0..2 {
            let (started, parked) = (Arc::clone(&started), Arc::clone(&parked));
            pool.execute(move || {
                started.wait();
                let _ = lock_recover(&parked).recv();
            });
        }
        started.wait();
        let foreign = Arc::new(Mutex::new(None));
        let foreign_in = Arc::clone(&foreign);
        pool.execute(move || {
            *lock_recover(&foreign_in) = Some(std::thread::current().id());
        });

        // With no worker free, the caller runs all of its own chunks, and
        // leaves the foreign job, queued ahead of them, where it is.
        let items: Vec<usize> = (0..100).collect();
        let sums = pool.map_chunks(&items, 4, |chunk| chunk.iter().sum::<usize>());
        assert_eq!(sums.iter().sum::<usize>(), items.iter().sum::<usize>());
        assert_eq!(*lock_recover(&foreign), None);
        assert_eq!(pool.queued(), 1);

        // Released, a worker runs it.
        drop(release);
        drop(pool);
        let ran_on = lock_recover(&foreign).expect("a worker ran the foreign job");
        assert_ne!(ran_on, std::thread::current().id());
    }

    #[test]
    fn map_chunks_propagates_chunk_panics_after_settling() {
        let pool = WorkerPool::new(2);
        let items: Vec<usize> = (0..10).collect();
        let ran = Arc::new(AtomicUsize::new(0));
        let ran_in = Arc::clone(&ran);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            pool.map_chunks(&items, 5, |chunk| {
                ran_in.fetch_add(1, Ordering::SeqCst);
                if chunk[0] == 4 {
                    panic!("chunk exploded");
                }
                chunk.len()
            })
        }));
        // The chunk's own payload is re-raised, not a generic one.
        let payload = outcome.expect_err("the chunk panic propagates");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"chunk exploded"));
        // Every chunk settled before the panic was re-raised.
        assert_eq!(ran.load(Ordering::SeqCst), 5);
        // The pool survives and keeps working.
        assert_eq!(pool.map_chunks(&items, 2, <[usize]>::len), vec![5, 5]);
    }

    #[test]
    fn panicking_execute_jobs_do_not_kill_workers() {
        let pool = WorkerPool::new(1);
        pool.execute(|| panic!("fire-and-forget panic"));
        let counter = Arc::new(AtomicUsize::new(0));
        let counter_in = Arc::clone(&counter);
        pool.execute(move || {
            counter_in.fetch_add(1, Ordering::SeqCst);
        });
        // The pool's single worker must still be alive to run the second
        // job; map_chunks would also pass since the caller helps, so poll
        // the counter instead.
        for _ in 0..1000 {
            if counter.load(Ordering::SeqCst) == 1 {
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        panic!("worker died after a panicking job");
    }

    #[test]
    fn pool_survives_a_poisoned_lock() {
        let pool = WorkerPool::new(2);
        // Poison the queue lock the hard way: panic while holding it.
        let shared = Arc::clone(&pool.shared);
        let _ = std::thread::spawn(move || {
            let _guard = shared.state.lock().unwrap();
            panic!("poison the pool lock");
        })
        .join();
        assert!(pool.shared.state.is_poisoned());
        // Every entry point recovers instead of propagating the poison.
        assert_eq!(pool.queued(), 0);
        let items: Vec<usize> = (0..100).collect();
        let total: usize = pool
            .map_chunks(&items, 4, |chunk| chunk.iter().sum::<usize>())
            .into_iter()
            .sum();
        assert_eq!(total, items.iter().sum::<usize>());
        let counter = Arc::new(AtomicUsize::new(0));
        let counter_in = Arc::clone(&counter);
        pool.execute(move || {
            counter_in.fetch_add(1, Ordering::SeqCst);
        });
        drop(pool); // joins workers; the queued job ran first.
        assert_eq!(counter.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn shared_pool_is_a_singleton() {
        let a = shared() as *const WorkerPool;
        let b = shared() as *const WorkerPool;
        assert_eq!(a, b);
        assert_eq!(
            shared().threads(),
            crate::shard::hardware_threads().min(crate::shard::MAX_FANOUT)
        );
    }
}
