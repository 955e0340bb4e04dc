//! The feature collector: from raw log artefacts to a PerfXplain execution
//! log.
//!
//! For every job bundle the collector parses the history file, the
//! configuration XML and the Ganglia dump, then emits
//!
//! * one job record with configuration parameters, data characteristics,
//!   job-level Hadoop counters and job-averaged Ganglia metrics
//!   (≈ 40 features — the paper records 36), and
//! * one task record per attempt with the task's timing, counters, placement
//!   and task-window-averaged Ganglia metrics plus the configuration of the
//!   job it belongs to (≈ 60 features — the paper records 64).

use crate::bundle::JobLogBundle;
use crate::conf::{keys, parse_job_conf};
use crate::ganglia::{parse_ganglia_csv, windowed_average_or_nearest, MetricRow};
use crate::parser::{parse_job_history, HistoryParseError, ParsedJob, ParsedTaskAttempt};
use mrsim::JobTrace;
use perfxplain_core::{ExecutionLog, ExecutionRecord, DURATION_FEATURE};
use pxql::Value;
use std::collections::BTreeMap;

/// Ganglia metrics averaged into job records (prefixed `avg_`).
pub const JOB_GANGLIA_METRICS: &[&str] = &[
    "cpu_user",
    "cpu_system",
    "cpu_idle",
    "cpu_wio",
    "load_one",
    "load_five",
    "load_fifteen",
    "proc_run",
    "proc_total",
    "mem_free",
    "bytes_in",
    "bytes_out",
    "pkts_in",
    "pkts_out",
];

/// Ganglia metrics averaged into task records (prefixed `avg_`).  Tasks keep
/// the full metric set, as the paper's prototype does.
pub const TASK_GANGLIA_METRICS: &[&str] = &[
    "boottime",
    "cpu_num",
    "cpu_speed",
    "cpu_user",
    "cpu_system",
    "cpu_idle",
    "cpu_wio",
    "load_one",
    "load_five",
    "load_fifteen",
    "proc_run",
    "proc_total",
    "mem_free",
    "mem_cached",
    "mem_buffers",
    "swap_free",
    "bytes_in",
    "bytes_out",
    "pkts_in",
    "pkts_out",
    "disk_free",
];

/// Hadoop counters copied (lower-cased) onto job records.
const JOB_COUNTERS: &[&str] = &[
    "HDFS_BYTES_READ",
    "HDFS_BYTES_WRITTEN",
    "FILE_BYTES_READ",
    "FILE_BYTES_WRITTEN",
    "MAP_INPUT_RECORDS",
    "MAP_INPUT_BYTES",
    "MAP_OUTPUT_RECORDS",
    "MAP_OUTPUT_BYTES",
    "REDUCE_INPUT_RECORDS",
    "REDUCE_INPUT_GROUPS",
    "REDUCE_OUTPUT_RECORDS",
    "REDUCE_SHUFFLE_BYTES",
    "SPILLED_RECORDS",
    "TOTAL_LAUNCHED_MAPS",
    "TOTAL_LAUNCHED_REDUCES",
];

/// Hadoop counters copied (lower-cased) onto task records.
const TASK_COUNTERS: &[&str] = &[
    "HDFS_BYTES_READ",
    "HDFS_BYTES_WRITTEN",
    "FILE_BYTES_READ",
    "FILE_BYTES_WRITTEN",
    "MAP_INPUT_RECORDS",
    "MAP_INPUT_BYTES",
    "MAP_OUTPUT_RECORDS",
    "MAP_OUTPUT_BYTES",
    "REDUCE_INPUT_RECORDS",
    "REDUCE_INPUT_GROUPS",
    "REDUCE_OUTPUT_RECORDS",
    "REDUCE_SHUFFLE_BYTES",
    "SPILLED_RECORDS",
    "COMBINE_INPUT_RECORDS",
    "COMBINE_OUTPUT_RECORDS",
];

/// The feature collector.  A bundle with an empty Ganglia dump (a
/// deployment without cluster monitoring) yields records without the
/// monitoring averages.
#[derive(Debug, Clone, Default)]
pub struct LogCollector;

impl LogCollector {
    /// Creates a collector.
    pub fn new() -> Self {
        LogCollector
    }

    /// Collects one bundle into job + task records appended to `log`.
    pub fn collect_bundle(
        &self,
        bundle: &JobLogBundle,
        log: &mut ExecutionLog,
    ) -> Result<(), HistoryParseError> {
        let job = parse_job_history(&bundle.history)?;
        let conf = parse_job_conf(&bundle.conf_xml);
        let rows = parse_ganglia_csv(&bundle.ganglia_csv);

        log.push(self.job_record(&job, &conf, &rows));
        for attempt in &job.attempts {
            log.push(self.task_record(&job, attempt, &conf, &rows));
        }
        Ok(())
    }

    fn conf_num(conf: &BTreeMap<String, String>, key: &str) -> Value {
        conf.get(key)
            .and_then(|v| v.parse::<f64>().ok())
            .map(Value::Num)
            .unwrap_or(Value::Null)
    }

    fn conf_str(conf: &BTreeMap<String, String>, key: &str) -> Value {
        conf.get(key)
            .map(|v| Value::Str(v.clone()))
            .unwrap_or(Value::Null)
    }

    fn job_record(
        &self,
        job: &ParsedJob,
        conf: &BTreeMap<String, String>,
        rows: &[MetricRow],
    ) -> ExecutionRecord {
        let mut record = ExecutionRecord::job(&job.job_id);
        record.set_feature("jobname", job.job_name.as_str());
        record.set_feature("pigscript", Self::conf_str(conf, keys::PIG_SCRIPT));
        record.set_feature("numinstances", Self::conf_num(conf, keys::NUM_INSTANCES));
        record.set_feature("blocksize", Self::conf_num(conf, keys::BLOCK_SIZE));
        record.set_feature("numreducetasks", Self::conf_num(conf, keys::REDUCE_TASKS));
        record.set_feature(
            "reducetasksfactor",
            Self::conf_num(conf, keys::REDUCE_TASKS_FACTOR),
        );
        record.set_feature("iosortfactor", Self::conf_num(conf, keys::IO_SORT_FACTOR));
        record.set_feature("inputsize", Self::conf_num(conf, keys::INPUT_BYTES));
        record.set_feature("inputrecords", Self::conf_num(conf, keys::INPUT_RECORDS));
        record.set_feature("mapslots", Self::conf_num(conf, keys::MAP_SLOTS));
        record.set_feature("reduceslots", Self::conf_num(conf, keys::REDUCE_SLOTS));
        record.set_feature("nummaptasks", job.total_maps as f64);
        record.set_feature("submit_time", job.submit_time);
        record.set_feature("launch_time", job.launch_time);
        record.set_feature("finish_time", job.finish_time);
        record.set_feature(DURATION_FEATURE, job.duration());

        for counter in JOB_COUNTERS {
            if let Some(&value) = job.counters.get(*counter) {
                record.set_feature(counter.to_ascii_lowercase(), value as f64);
            }
        }

        if !rows.is_empty() {
            // Average every metric across the tasks of the job (each task
            // contributes the average over its own window on its own host),
            // exactly how the paper percolates monitoring data up to jobs.
            let mut sums: BTreeMap<&str, (f64, usize)> = BTreeMap::new();
            for attempt in &job.attempts {
                let averages = windowed_average_or_nearest(
                    rows,
                    &attempt.hostname,
                    attempt.start_time,
                    attempt.finish_time,
                );
                for metric in JOB_GANGLIA_METRICS {
                    if let Some(&value) = averages.get(*metric) {
                        let entry = sums.entry(metric).or_insert((0.0, 0));
                        entry.0 += value;
                        entry.1 += 1;
                    }
                }
            }
            for (metric, (sum, count)) in sums {
                if count > 0 {
                    record.set_feature(format!("avg_{metric}"), sum / count as f64);
                }
            }
        }
        record
    }

    fn task_record(
        &self,
        job: &ParsedJob,
        attempt: &ParsedTaskAttempt,
        conf: &BTreeMap<String, String>,
        rows: &[MetricRow],
    ) -> ExecutionRecord {
        let mut record = ExecutionRecord::task(&attempt.task_id, &job.job_id);
        record.set_feature("jobid", job.job_id.as_str());
        record.set_feature("tasktype", attempt.task_type.as_str());
        record.set_feature("tracker_name", attempt.tracker_name.as_str());
        record.set_feature("hostname", attempt.hostname.as_str());
        record.set_feature("start_time", attempt.start_time);
        record.set_feature("finish_time", attempt.finish_time);
        record.set_feature(DURATION_FEATURE, attempt.duration());

        if let Some(shuffle) = attempt.shuffle_finished {
            record.set_feature("shuffletime", shuffle - attempt.start_time);
        }
        if let (Some(shuffle), Some(sort)) = (attempt.shuffle_finished, attempt.sort_finished) {
            record.set_feature("sorttime", sort - shuffle);
        }
        if let Some(sort) = attempt.sort_finished {
            record.set_feature("taskfinishtime", attempt.finish_time - sort);
        }

        // The amount of data the task processed: HDFS input for map tasks,
        // shuffled bytes for reduce tasks.  The task-level PXQL queries of
        // the paper compare tasks on this `inputsize` feature.
        let inputsize = if attempt.is_map() {
            attempt.counters.get("HDFS_BYTES_READ").copied()
        } else {
            attempt.counters.get("REDUCE_SHUFFLE_BYTES").copied()
        };
        if let Some(bytes) = inputsize {
            record.set_feature("inputsize", bytes as f64);
        }

        for counter in TASK_COUNTERS {
            if let Some(&value) = attempt.counters.get(*counter) {
                record.set_feature(counter.to_ascii_lowercase(), value as f64);
            }
        }

        // Configuration of the owning job.
        record.set_feature("pigscript", Self::conf_str(conf, keys::PIG_SCRIPT));
        record.set_feature("numinstances", Self::conf_num(conf, keys::NUM_INSTANCES));
        record.set_feature("blocksize", Self::conf_num(conf, keys::BLOCK_SIZE));
        record.set_feature("iosortfactor", Self::conf_num(conf, keys::IO_SORT_FACTOR));
        record.set_feature("numreducetasks", Self::conf_num(conf, keys::REDUCE_TASKS));

        if !rows.is_empty() {
            let averages = windowed_average_or_nearest(
                rows,
                &attempt.hostname,
                attempt.start_time,
                attempt.finish_time,
            );
            for metric in TASK_GANGLIA_METRICS {
                if let Some(&value) = averages.get(*metric) {
                    record.set_feature(format!("avg_{metric}"), value);
                }
            }
        }
        record
    }
}

/// Collects a set of bundles into a fresh execution log.
pub fn collect_bundles(bundles: &[JobLogBundle]) -> Result<ExecutionLog, HistoryParseError> {
    let collector = LogCollector::new();
    let mut log = ExecutionLog::new();
    for bundle in bundles {
        collector.collect_bundle(bundle, &mut log)?;
    }
    log.rebuild_catalogs();
    Ok(log)
}

/// Collects a set of bundles by splitting them into up to `num_shards`
/// contiguous batches parsed as jobs of the shared worker pool (history +
/// configuration + Ganglia parsing is CPU-bound), each batch becoming an
/// [`ExecutionLog`] shard merged via [`ExecutionLog::from_shards`].  The
/// resulting log — record order, catalogs and all — equals
/// [`collect_bundles`] over the same bundles; any parse error is surfaced,
/// the earliest-shard one first.
pub fn collect_bundles_sharded(
    bundles: &[JobLogBundle],
    num_shards: usize,
) -> Result<ExecutionLog, HistoryParseError> {
    if num_shards <= 1 || bundles.len() <= 1 {
        return collect_bundles(bundles);
    }
    let shards: Result<Vec<ExecutionLog>, HistoryParseError> = perfxplain_core::pool::shared()
        .map_chunks(bundles, num_shards, |chunk| {
            let collector = LogCollector::new();
            let mut shard = ExecutionLog::new();
            for bundle in chunk {
                collector.collect_bundle(bundle, &mut shard)?;
            }
            shard.rebuild_catalogs();
            Ok(shard)
        })
        .into_iter()
        .collect();
    Ok(ExecutionLog::from_shards(shards?))
}

/// Renders simulated traces to their textual log bundles and collects them.
/// This is the honest end-to-end path: everything PerfXplain sees has gone
/// through the Hadoop log text formats and back.
pub fn collect_traces(traces: &[JobTrace]) -> Result<ExecutionLog, HistoryParseError> {
    let bundles: Vec<JobLogBundle> = traces.iter().map(JobLogBundle::from_trace).collect();
    collect_bundles(&bundles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrsim::{Cluster, ClusterSpec, JobSpec, PigScript, GB, MB};
    use perfxplain_core::ExecutionKind;

    fn traces() -> Vec<JobTrace> {
        let mut traces = Vec::new();
        for (i, instances) in [2usize, 4, 8].into_iter().enumerate() {
            let mut cluster = Cluster::new(ClusterSpec::with_instances(instances), 100 + i as u64);
            traces.push(cluster.run_job(JobSpec {
                name: format!("collector-test-{i}"),
                script: if i % 2 == 0 {
                    PigScript::SimpleFilter
                } else {
                    PigScript::SimpleGroupBy
                },
                input_bytes: GB + i as u64 * 300 * MB,
                input_records: 10_000_000,
                dfs_block_size: 256 * MB,
                reduce_tasks_factor: 1.0,
                io_sort_factor: 10,
                submit_time: 0.0,
            }));
        }
        traces
    }

    #[test]
    fn collects_jobs_and_tasks_with_rich_features() {
        let traces = traces();
        let log = collect_traces(&traces).unwrap();
        assert_eq!(log.jobs().count(), 3);
        let total_tasks: usize = traces.iter().map(|t| t.tasks.len()).sum();
        assert_eq!(log.tasks().count(), total_tasks);

        // Job features: configuration, counters, monitoring averages.
        let job_catalog = log.job_catalog();
        for feature in [
            "pigscript",
            "numinstances",
            "blocksize",
            "iosortfactor",
            "inputsize",
            "nummaptasks",
            "hdfs_bytes_read",
            "map_output_records",
            "avg_cpu_user",
            "avg_load_five",
            "duration",
        ] {
            assert!(
                job_catalog.get(feature).is_some(),
                "missing job feature {feature}"
            );
        }
        assert!(
            job_catalog.len() >= 36,
            "only {} job features",
            job_catalog.len()
        );

        // Task features.
        let task_catalog = log.task_catalog();
        for feature in [
            "jobid",
            "tasktype",
            "tracker_name",
            "hostname",
            "inputsize",
            "map_input_records",
            "avg_load_one",
            "avg_bytes_in",
            "duration",
        ] {
            assert!(
                task_catalog.get(feature).is_some(),
                "missing task feature {feature}"
            );
        }
        assert!(
            task_catalog.len() >= 40,
            "only {} task features",
            task_catalog.len()
        );
    }

    #[test]
    fn job_features_match_the_simulated_configuration() {
        let traces = traces();
        let log = collect_traces(&traces).unwrap();
        let job = log.get(&traces[0].job_id).unwrap();
        assert_eq!(job.kind, ExecutionKind::Job);
        assert_eq!(
            job.feature("pigscript"),
            Value::Str("simple-filter.pig".to_string())
        );
        assert_eq!(job.feature("numinstances"), Value::Num(2.0));
        assert_eq!(
            job.feature("blocksize"),
            Value::Num(traces[0].spec.dfs_block_size as f64)
        );
        // Duration survives the millisecond round trip to within 2 ms.
        let duration = job.duration().unwrap();
        assert!((duration - traces[0].duration()).abs() < 0.002);
    }

    #[test]
    fn task_records_point_at_their_job_and_have_monitoring_data() {
        let traces = traces();
        let log = collect_traces(&traces).unwrap();
        let trace = &traces[2];
        let task = &trace.tasks[0];
        let record = log.get(&task.task_id).unwrap();
        assert_eq!(record.kind, ExecutionKind::Task);
        assert_eq!(record.parent_job.as_deref(), Some(trace.job_id.as_str()));
        assert_eq!(record.feature("jobid"), Value::Str(trace.job_id.clone()));
        // The monitoring averages reflect actual load: cpu_user within 0..100.
        let cpu = record.feature("avg_cpu_user").as_num().unwrap();
        assert!((0.0..=100.0).contains(&cpu));
        assert!(record.feature("avg_load_five").as_num().unwrap() >= 0.0);
    }

    #[test]
    fn collector_without_ganglia_omits_averages() {
        let traces = traces();
        let collector = LogCollector::new();
        let mut log = ExecutionLog::new();
        for trace in &traces {
            let mut bundle = JobLogBundle::from_trace(trace);
            bundle.ganglia_csv = String::new();
            collector.collect_bundle(&bundle, &mut log).unwrap();
        }
        log.rebuild_catalogs();
        assert!(log.job_catalog().get("avg_cpu_user").is_none());
        assert!(log.job_catalog().get("blocksize").is_some());
    }

    #[test]
    fn corrupt_history_is_an_error() {
        let traces = traces();
        let mut bundle = JobLogBundle::from_trace(&traces[0]);
        bundle.history = "Job KEY=unquoted .".to_string();
        assert!(collect_bundles(&[bundle]).is_err());
    }

    #[test]
    fn sharded_collection_equals_the_serial_path() {
        let traces = traces();
        let bundles: Vec<JobLogBundle> = traces.iter().map(JobLogBundle::from_trace).collect();
        let serial = collect_bundles(&bundles).unwrap();
        for shards in [1, 2, 3, 8] {
            assert_eq!(
                collect_bundles_sharded(&bundles, shards).unwrap(),
                serial,
                "{shards} shards diverge"
            );
        }
    }

    #[test]
    fn sharded_collection_surfaces_parse_errors() {
        let traces = traces();
        let mut bundles: Vec<JobLogBundle> = traces.iter().map(JobLogBundle::from_trace).collect();
        bundles[2].history = "Job KEY=unquoted .".to_string();
        assert!(collect_bundles_sharded(&bundles, 3).is_err());
    }
}
