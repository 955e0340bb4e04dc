//! Hadoop-style job-history logs, job configuration files and Ganglia dumps:
//! writer, parser and the feature collector that turns them into a
//! PerfXplain execution log.
//!
//! The paper's PerfXplain prototype extracts "all details it can from the
//! MapReduce log file" plus Ganglia system metrics and records 36 features
//! per job and 64 per task.  This crate reproduces that pipeline end to end
//! against the simulator in `perfxplain-sim`:
//!
//! 1. [`history`] renders a simulated [`mrsim::JobTrace`] into the Hadoop
//!    1.x job-history line format (`Job JOBID="…" …`, `MapAttempt …`,
//!    `ReduceAttempt …` records with `COUNTERS="{…}"` strings) and
//!    [`conf`] renders the job configuration XML (`dfs.block.size`,
//!    `mapred.reduce.tasks`, `io.sort.factor`, …).
//! 2. [`parser`] parses those text artefacts back into structured events —
//!    this is the "hand-rolled Hadoop log parsing" the reproduction calls
//!    for; nothing is smuggled through the simulator's in-memory structs.
//! 3. [`ganglia`] writes and parses the monitoring dump (one CSV row per
//!    instance, metric and five-second tick) and computes windowed averages.
//! 4. [`collector`] joins history, configuration and monitoring data into
//!    [`perfxplain_core::ExecutionRecord`]s — roughly 40 features per job
//!    and 60+ per task — and assembles the [`perfxplain_core::ExecutionLog`]
//!    that PerfXplain learns from.

pub mod bundle;
pub mod collector;
pub mod conf;
pub mod counters;
pub mod ganglia;
pub mod history;
pub mod parser;

pub use bundle::JobLogBundle;
pub use collector::{collect_bundles, collect_bundles_sharded, collect_traces, LogCollector};
pub use conf::{parse_job_conf, render_job_conf};
pub use ganglia::{parse_ganglia_csv, render_ganglia_csv, windowed_average};
pub use history::render_job_history;
pub use parser::{parse_job_history, HistoryEvent, ParsedJob, ParsedTaskAttempt};
