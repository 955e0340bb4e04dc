//! Raw execution traces produced by the simulator.
//!
//! A [`JobTrace`] captures everything Hadoop and Ganglia would have recorded
//! about one job execution: configuration, per-task attempt timings and
//! counters, job-level counters and the monitoring samples of every instance
//! while the job ran.  The `perfxplain-logs` crate renders traces into
//! Hadoop-style history files and parses them back; PerfXplain itself never
//! looks at traces directly.

use crate::config::{ClusterSpec, JobSpec};
use crate::ganglia::GangliaSample;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Map or reduce task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TaskKind {
    /// A map task.
    Map,
    /// A reduce task.
    Reduce,
}

impl TaskKind {
    /// The uppercase string Hadoop uses in history files.
    pub fn as_history_str(&self) -> &'static str {
        match self {
            TaskKind::Map => "MAP",
            TaskKind::Reduce => "REDUCE",
        }
    }

    /// The single-letter code used inside task identifiers (`m` / `r`).
    pub fn id_code(&self) -> char {
        match self {
            TaskKind::Map => 'm',
            TaskKind::Reduce => 'r',
        }
    }
}

/// One task attempt (the simulator models exactly one successful attempt per
/// task: no speculative execution, no failures).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskTrace {
    /// Task identifier, e.g. `task_202601010101_0004_m_000007`.
    pub task_id: String,
    /// Attempt identifier, e.g. `attempt_202601010101_0004_m_000007_0`.
    pub attempt_id: String,
    /// Map or reduce.
    pub kind: TaskKind,
    /// Index of the instance the task ran on.
    pub instance: usize,
    /// Hostname of that instance (the Hadoop `tracker_name`).
    pub tracker_name: String,
    /// Simulated start time in seconds.
    pub start_time: f64,
    /// Simulated finish time in seconds.
    pub finish_time: f64,
    /// For reduce tasks: when the shuffle phase finished.
    pub shuffle_finish_time: Option<f64>,
    /// For reduce tasks: when the merge/sort phase finished.
    pub sort_finish_time: Option<f64>,
    /// Number of tasks (including this one) running on the instance when the
    /// task started; drives the contention multiplier and the load metrics.
    pub concurrency: usize,
    /// Hadoop-style counters (`HDFS_BYTES_READ`, `MAP_OUTPUT_RECORDS`, …).
    pub counters: BTreeMap<String, u64>,
}

impl TaskTrace {
    /// Task duration in seconds.
    pub fn duration(&self) -> f64 {
        self.finish_time - self.start_time
    }

    /// Convenience accessor for a counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// A full simulated job execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobTrace {
    /// Job identifier, e.g. `job_202601010101_0004`.
    pub job_id: String,
    /// Job name (the Pig script plus a sequence number).
    pub job_name: String,
    /// The cluster the job ran on.
    pub cluster: ClusterSpec,
    /// The job configuration.
    pub spec: JobSpec,
    /// Submit time in seconds.
    pub submit_time: f64,
    /// Launch time in seconds (after job setup).
    pub launch_time: f64,
    /// Finish time in seconds.
    pub finish_time: f64,
    /// Per-task traces (maps first, then reduces).
    pub tasks: Vec<TaskTrace>,
    /// Job-level counters (sums of the task counters plus job totals).
    pub counters: BTreeMap<String, u64>,
    /// Ganglia samples covering the job's execution window.
    pub ganglia: Vec<GangliaSample>,
}

impl JobTrace {
    /// End-to-end duration (submit to finish) in seconds — the quantity the
    /// paper's `duration` feature records for jobs.
    pub fn duration(&self) -> f64 {
        self.finish_time - self.submit_time
    }

    /// The map tasks of the job.
    pub fn map_tasks(&self) -> impl Iterator<Item = &TaskTrace> {
        self.tasks.iter().filter(|t| t.kind == TaskKind::Map)
    }

    /// The reduce tasks of the job.
    pub fn reduce_tasks(&self) -> impl Iterator<Item = &TaskTrace> {
        self.tasks.iter().filter(|t| t.kind == TaskKind::Reduce)
    }

    /// Convenience accessor for a job-level counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// Standard Hadoop counter names emitted by the simulator.
pub mod counters {
    /// Bytes read from HDFS.
    pub const HDFS_BYTES_READ: &str = "HDFS_BYTES_READ";
    /// Bytes written to HDFS.
    pub const HDFS_BYTES_WRITTEN: &str = "HDFS_BYTES_WRITTEN";
    /// Bytes read from local disk (spills, merges).
    pub const FILE_BYTES_READ: &str = "FILE_BYTES_READ";
    /// Bytes written to local disk (spills, merges).
    pub const FILE_BYTES_WRITTEN: &str = "FILE_BYTES_WRITTEN";
    /// Records consumed by map tasks.
    pub const MAP_INPUT_RECORDS: &str = "MAP_INPUT_RECORDS";
    /// Bytes consumed by map tasks.
    pub const MAP_INPUT_BYTES: &str = "MAP_INPUT_BYTES";
    /// Records produced by map tasks.
    pub const MAP_OUTPUT_RECORDS: &str = "MAP_OUTPUT_RECORDS";
    /// Bytes produced by map tasks.
    pub const MAP_OUTPUT_BYTES: &str = "MAP_OUTPUT_BYTES";
    /// Records shuffled into reduce tasks.
    pub const REDUCE_INPUT_RECORDS: &str = "REDUCE_INPUT_RECORDS";
    /// Distinct keys seen by reduce tasks.
    pub const REDUCE_INPUT_GROUPS: &str = "REDUCE_INPUT_GROUPS";
    /// Records produced by reduce tasks.
    pub const REDUCE_OUTPUT_RECORDS: &str = "REDUCE_OUTPUT_RECORDS";
    /// Bytes shuffled.
    pub const REDUCE_SHUFFLE_BYTES: &str = "REDUCE_SHUFFLE_BYTES";
    /// Records spilled to disk.
    pub const SPILLED_RECORDS: &str = "SPILLED_RECORDS";
    /// Combined (map-side aggregated) input records.
    pub const COMBINE_INPUT_RECORDS: &str = "COMBINE_INPUT_RECORDS";
    /// Combined output records.
    pub const COMBINE_OUTPUT_RECORDS: &str = "COMBINE_OUTPUT_RECORDS";
    /// Total launched map tasks.
    pub const TOTAL_LAUNCHED_MAPS: &str = "TOTAL_LAUNCHED_MAPS";
    /// Total launched reduce tasks.
    pub const TOTAL_LAUNCHED_REDUCES: &str = "TOTAL_LAUNCHED_REDUCES";
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_trace() -> JobTrace {
        let task = TaskTrace {
            task_id: "task_1_m_000000".into(),
            attempt_id: "attempt_1_m_000000_0".into(),
            kind: TaskKind::Map,
            instance: 0,
            tracker_name: "tracker_host0".into(),
            start_time: 10.0,
            finish_time: 35.0,
            shuffle_finish_time: None,
            sort_finish_time: None,
            concurrency: 2,
            counters: BTreeMap::from([(counters::MAP_INPUT_RECORDS.to_string(), 100u64)]),
        };
        JobTrace {
            job_id: "job_1".into(),
            job_name: "simple-filter.pig-1".into(),
            cluster: ClusterSpec::default(),
            spec: JobSpec::default(),
            submit_time: 0.0,
            launch_time: 5.0,
            finish_time: 60.0,
            tasks: vec![task],
            counters: BTreeMap::from([(counters::TOTAL_LAUNCHED_MAPS.to_string(), 1u64)]),
            ganglia: Vec::new(),
        }
    }

    #[test]
    fn durations_and_counters() {
        let trace = tiny_trace();
        assert_eq!(trace.duration(), 60.0);
        assert_eq!(trace.tasks[0].duration(), 25.0);
        assert_eq!(trace.counter(counters::TOTAL_LAUNCHED_MAPS), 1);
        assert_eq!(trace.counter("NOPE"), 0);
        assert_eq!(trace.tasks[0].counter(counters::MAP_INPUT_RECORDS), 100);
        assert_eq!(trace.map_tasks().count(), 1);
        assert_eq!(trace.reduce_tasks().count(), 0);
    }

    #[test]
    fn task_kind_codes() {
        assert_eq!(TaskKind::Map.as_history_str(), "MAP");
        assert_eq!(TaskKind::Reduce.id_code(), 'r');
    }

    #[test]
    fn serde_round_trip() {
        let trace = tiny_trace();
        let json = serde_json::to_string(&trace).unwrap();
        let back: JobTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(trace, back);
    }
}
