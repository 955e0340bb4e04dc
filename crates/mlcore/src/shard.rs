//! Fan-out sizing shared by the worker pools.
//!
//! Every parallel loop runs on a [`WorkerPool`](crate::pool::WorkerPool)
//! (see [`crate::pool`]); this module only answers how wide a pool may be.
//! It lives in `mlcore` — the lowest crate of the workspace — and
//! `perfxplain-core` re-exports it as `perfxplain_core::shard`.

/// Hard ceiling on concurrent worker threads and on the chunks of one
/// fan-out, regardless of the requested count.  Counts reach the pool from
/// user input (the CLI's `--shards`, a server's `workers`) and from public
/// APIs, and an unbounded count would abort the process on thread-spawn
/// failure under resource exhaustion.  256 is far above any real core
/// count while keeping the worst case harmless.
pub const MAX_FANOUT: usize = 256;

/// The machine's available hardware parallelism (1 when unknown).
///
/// Each call re-reads the process's CPU affinity and cgroup quota, so hot
/// paths read the fixed width of [`crate::pool::shared`] instead.
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}
