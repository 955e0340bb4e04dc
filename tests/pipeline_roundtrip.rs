//! Integration tests of the substrate pipeline: simulator traces → textual
//! Hadoop/Ganglia artefacts → (filesystem) → parser → collector — serial,
//! sharded, and through the CLI `ingest` command.

use perfxplain::hadoop_logs::{
    collect_bundles, collect_bundles_sharded, collect_traces, parse_job_history, JobLogBundle,
};
use perfxplain::mrsim::{Cluster, ClusterSpec, JobSpec, JobTrace, PigScript, GB, MB};
use perfxplain::pxql::Value;
use std::fs;

fn sample_traces() -> Vec<JobTrace> {
    let mut traces = Vec::new();
    for (i, (instances, script, copies)) in [
        (2usize, PigScript::SimpleFilter, 30u64),
        (8, PigScript::SimpleGroupBy, 30),
        (16, PigScript::SimpleFilter, 60),
    ]
    .into_iter()
    .enumerate()
    {
        let mut cluster = Cluster::new(ClusterSpec::with_instances(instances), 7_000 + i as u64);
        traces.push(cluster.run_job(JobSpec {
            name: format!("pipeline-{i}"),
            script,
            input_bytes: (1.3 * GB as f64 * copies as f64 / 30.0) as u64,
            input_records: 13_000_000 * copies / 30,
            dfs_block_size: 256 * MB,
            reduce_tasks_factor: 1.5,
            io_sort_factor: 50,
            submit_time: 0.0,
        }));
    }
    traces
}

#[test]
fn text_artifacts_parse_back_to_the_same_structure() {
    for trace in sample_traces() {
        let bundle = JobLogBundle::from_trace(&trace);
        let parsed = parse_job_history(&bundle.history).expect("history parses");
        assert_eq!(parsed.job_id, trace.job_id);
        assert_eq!(parsed.attempts.len(), trace.tasks.len());
        assert_eq!(parsed.counters, trace.counters);
        assert!((parsed.duration() - trace.duration()).abs() < 0.005);
    }
}

#[test]
fn filesystem_round_trip_produces_identical_execution_logs() {
    let traces = sample_traces();
    let bundles: Vec<JobLogBundle> = traces.iter().map(JobLogBundle::from_trace).collect();

    // Write all bundles to a temporary directory, read them back, collect.
    let root = std::env::temp_dir().join(format!("perfxplain-pipeline-it-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    fs::create_dir_all(&root).unwrap();
    for bundle in &bundles {
        bundle.write_to_dir(&root).unwrap();
    }
    let reread = JobLogBundle::read_all(&root).unwrap();
    let _ = fs::remove_dir_all(&root);

    let direct = collect_traces(&traces).unwrap();
    let via_disk = collect_bundles(&reread).unwrap();
    assert_eq!(direct.jobs().count(), via_disk.jobs().count());
    assert_eq!(direct.tasks().count(), via_disk.tasks().count());
    for job in direct.jobs() {
        let other = via_disk
            .get(&job.id)
            .expect("job present after disk round trip");
        assert!(
            job.features().eq(other.features()),
            "features differ for {}",
            job.id
        );
    }
}

/// The CLI `ingest` command (and the sharded collector underneath it)
/// produces, from on-disk bundles, exactly the log a serial collection
/// builds in memory.
#[test]
fn cli_ingest_matches_the_serial_collection() {
    let traces = sample_traces();
    let bundles: Vec<JobLogBundle> = traces.iter().map(JobLogBundle::from_trace).collect();
    let serial = collect_bundles(&bundles).unwrap();
    assert_eq!(collect_bundles_sharded(&bundles, 3).unwrap(), serial);

    let root = std::env::temp_dir().join(format!("perfxplain-ingest-it-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    fs::create_dir_all(&root).unwrap();
    for bundle in &bundles {
        bundle.write_to_dir(&root).unwrap();
    }
    let out = root.join("ingested.json");

    let status = std::process::Command::new(env!("CARGO_BIN_EXE_perfxplain"))
        .args([
            "ingest",
            "--bundles",
            root.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
            "--shards",
            "3",
        ])
        .status()
        .expect("the perfxplain binary runs");
    assert!(status.success(), "ingest exited with {status}");

    let ingested = perfxplain::ExecutionLog::from_json(&fs::read_to_string(&out).unwrap()).unwrap();
    let _ = fs::remove_dir_all(&root);
    // JSON round-tripping is lossless for logs, so the CLI output must load
    // back equal to the serial in-memory collection.
    assert_eq!(ingested, serial);
}

#[test]
fn collected_features_reflect_simulated_configuration_and_load() {
    let traces = sample_traces();
    let log = collect_traces(&traces).unwrap();

    for trace in &traces {
        let job = log.get(&trace.job_id).unwrap();
        assert_eq!(
            job.feature("numinstances"),
            Value::Num(trace.cluster.num_instances as f64)
        );
        assert_eq!(
            job.feature("pigscript"),
            Value::Str(trace.spec.script.file_name().to_string())
        );
        assert_eq!(
            job.feature("nummaptasks"),
            Value::Num(trace.map_tasks().count() as f64)
        );
        // Map task counters percolate into job counters.
        let expected_input: u64 = trace
            .map_tasks()
            .map(|t| t.counter("MAP_INPUT_BYTES"))
            .sum();
        assert_eq!(
            job.feature("map_input_bytes"),
            Value::Num(expected_input as f64)
        );
    }

    // Task records carry monitoring averages consistent with contention:
    // tasks that ran alongside another task saw more running processes than
    // tasks that ran alone.
    let mut alone = Vec::new();
    let mut contended = Vec::new();
    for trace in &traces {
        for task in &trace.tasks {
            let record = log.get(&task.task_id).unwrap();
            if let Some(load) = record.feature("avg_proc_run").as_num() {
                if task.concurrency == 1 {
                    alone.push(load);
                } else {
                    contended.push(load);
                }
            }
        }
    }
    if !alone.is_empty() && !contended.is_empty() {
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&contended) > mean(&alone),
            "contended tasks should show higher process counts ({} vs {})",
            mean(&contended),
            mean(&alone)
        );
    }
}

#[test]
fn corrupted_history_files_are_rejected_not_misparsed() {
    let trace = &sample_traces()[0];
    let mut bundle = JobLogBundle::from_trace(trace);
    bundle.history = bundle.history.replace("FINISH_TIME=\"", "FINISH_TIME=");
    assert!(collect_bundles(&[bundle]).is_err());
}
