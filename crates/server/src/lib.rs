//! PXQL network front-end: a non-blocking TCP server with cost-based
//! admission control.
//!
//! The [`XplainService`](perfxplain_core::XplainService) is `Sync` with
//! cached columnar views; this crate puts a wire protocol in front of it so
//! many clients can pose PXQL queries against one served log:
//!
//! * [`server`] — a single-threaded **non-blocking event loop** over std
//!   `TcpListener` (no async runtime): it owns every socket, frames the
//!   protocol, and never executes a query.
//! * [`scheduler`] — **cost-based admission control** in front of a
//!   bounded [`WorkerPool`](perfxplain_core::pool::WorkerPool): each
//!   request's cost is estimated from its compiled plan
//!   ([`XplainService::estimate_cost`](perfxplain_core::XplainService::estimate_cost))
//!   and charged against a configurable concurrent budget, with a bounded
//!   FIFO queue, per-session fairness caps, queued-deadline expiry, and
//!   typed `429` load shedding when the queue is full.
//! * [`protocol`] — the line-delimited JSON codec ([`WireRequest`] /
//!   [`WireResponse`]).
//! * [`client`] — a blocking client plus the many-client load driver
//!   (closed loop per connection) behind the `smoke serve` scenario.
//!
//! # Protocol reference
//!
//! The protocol is line-delimited JSON over TCP: the client writes one JSON
//! object per line, the server answers one JSON object per line.  Requests
//! may be pipelined; responses carry the request's `id` and may complete
//! out of order (admission decisions return immediately, query answers
//! return when a worker finishes).
//!
//! Request fields (all optional except `query`):
//!
//! ```text
//! {"id": 1,                         // echoed on the response
//!  "query": "DESPITE inputsize_compare = GT\nOBSERVED ...",
//!  "left": "job_0", "right": "job_2",   // pair of interest
//!  "width": 3, "sample_size": 2000,     // per-request config overrides
//!  "auto_despite": false,               // Section 6.4 despite extension
//!  "narrate": false, "assess": false,   // narration / quality scoring
//!  "timeout_ms": 5000}                  // per-request deadline
//! ```
//!
//! Success response (`status: "ok"`, code 200): `because` / `despite` as
//! rendered atom strings, optional `narration`, optional `precision` /
//! `generality` / `relevance`, plus `generation`, `view_reused`,
//! `sample_reused` (the training sample came from the cached view's memo,
//! so no pairs were enumerated), `related_pairs` (the measured training
//! work) and `cost_units` — the admission charge *refined* down to the
//! measured work: queries are admitted on the candidate-space upper bound,
//! then refund the estimate/actual difference to the budget mid-flight
//! once the view is built ([`ChargeHandle`]).  A
//! memoized sample reports the related-pair count it was drawn from, so
//! `related_pairs` and `cost_units` do not depend on `sample_reused`.
//!
//! A request with `"target": "append"` carries a `records` field — a JSON
//! array of execution records, encoded as a string — and appends them to
//! the served log without restarting it.  The event loop answers inline
//! with the log's new `generation` and the `appended` count; cached
//! columnar views are *delta-maintained*
//! ([`XplainService::append`](perfxplain_core::XplainService::append)), so
//! the next query pays an O(tail) view refresh rather than a full
//! re-encode.  [`Client::append`] wraps the encoding.
//!
//! A request with `"target": "status"` (and no `query`) is a **status
//! probe**: the event loop answers it immediately — no admission charge,
//! no worker — so it keeps working while the query path is saturated.
//! The response carries `uptime_ms`, the served log `generation`, the
//! `admitted` / `shed` / `expired` / `cancelled` counters, the current
//! `queue_depth`, `budget_in_use` / `budget_total` in cost units, the
//! cumulative `refunded_units`, the live-view delta stats
//! (`base_rows` / `tail_rows` / `delta_refreshes` / `full_rebuilds` /
//! `compactions` / `last_compaction_unix_ms`), and the cached views' memo
//! gauges: `memo_datasets` and `memo_dataset_bytes` (the entries held now,
//! each a sample with its encoded dataset, and their bytes) and
//! `memo_dataset_stores` (entries stored since the views were cached; it
//! stops growing once every asked template stays resident).
//!
//! Error responses (`status: "error"`) carry an HTTP-style `code`, a
//! machine-readable `error` kind and a human-readable `message`:
//!
//! | code | kind                   | meaning                                   |
//! |------|------------------------|-------------------------------------------|
//! | 400  | `bad_frame`            | unparseable JSON / missing query / oversized line |
//! | 400  | `pxql`                 | PXQL parse or bind failure                |
//! | 404  | `unknown_execution`    | pair id not in the served log             |
//! | 408  | `deadline`             | deadline passed (queued or mid-execution) |
//! | 422  | `precondition`         | query preconditions / not enough pairs    |
//! | 429  | `shed_queue_full`      | admission queue full — retry later        |
//! | 429  | `cost_exceeds_budget`  | plan cost above the whole server budget   |
//! | 429  | `session_limit`        | too many pending requests on this session |
//! | 499  | `cancelled`            | request cancelled                         |
//! | 500  | `internal`             | unexpected server-side failure            |
//!
//! A malformed frame never kills the connection (the server answers with
//! `bad_frame` and keeps reading), with one exception: a line longer than
//! [`ServerConfig::max_frame_bytes`] is answered and then the connection is
//! closed, because the rest of the oversized line cannot be re-framed.
//!
//! Under `--features failpoints` the event loop's socket paths carry the
//! `"server.accept"` / `"server.read"` / `"server.write"` fault-injection
//! sites (see [`perfxplain_core::failpoints`]): injected transient kinds
//! defer the operation to the next tick, anything else behaves like the
//! corresponding real socket error.  All three inline to no-ops when the
//! feature is off.
//!
//! # Quickstart
//!
//! ```no_run
//! use perfxplain_core::{ExecutionLog, XplainService};
//! use perfxplain_server::{spawn, Client, ServerConfig, WireRequest};
//! use std::sync::Arc;
//!
//! let service = Arc::new(XplainService::new(ExecutionLog::new()));
//! let handle = spawn(service, ServerConfig::default()).unwrap();
//! let mut client = Client::connect(&handle.addr().to_string()).unwrap();
//! let response = client
//!     .call(&WireRequest {
//!         query: Some("OBSERVED duration_compare = SIM\n\
//!                      EXPECTED duration_compare = GT".to_string()),
//!         left: Some("job_0".to_string()),
//!         right: Some("job_1".to_string()),
//!         ..WireRequest::default()
//!     })
//!     .unwrap();
//! println!("{:?} {:?}", response.code, response.because);
//! ```

pub mod client;
pub mod cost;
pub mod protocol;
pub mod scheduler;
pub mod server;

pub use client::{default_request, run_load, AppendAck, Client, LoadReport};
pub use cost::QueryCost;
pub use protocol::{WireRequest, WireResponse};
pub use scheduler::{ChargeHandle, Rejection, Scheduler, SchedulerConfig, SchedulerStats};
pub use server::{spawn, BeforeQuery, ServerConfig, ServerHandle, ServerStats, StatsSnapshot};
