//! The two PXQL queries of the paper's evaluation (Section 6.2), bound to
//! pairs of interest found in a given execution log.
//!
//! 1. **WhyLastTaskFaster** — a task-level query: despite belonging to the
//!    same job, reading a similar amount of data and running on the same
//!    instance, task T1 finished much faster than task T2; the user expected
//!    similar durations.
//! 2. **WhySlowerDespiteSameNumInstances** — a job-level query: despite
//!    running the same Pig script on the same number of instances, job J1
//!    was much slower than job J2; the user expected similar durations.
//!
//! The binding helpers scan the log for the pair of interest with the
//! clearest instance of the phenomenon (largest runtime gap satisfying the
//! despite clause), which is exactly how the authors stumbled over the
//! "last task faster" pattern while collecting their data.

use perfxplain_core::{BoundQuery, ExecutionLog, ExecutionRecord, DEFAULT_SIM_THRESHOLD};
use pxql::parse_query;

/// A named, bound PXQL query ready to be explained.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryBinding {
    /// Short name used in reports (e.g. `WhyLastTaskFaster`).
    pub name: &'static str,
    /// The bound query.
    pub bound: BoundQuery,
}

fn similar(a: f64, b: f64) -> bool {
    let scale = a.abs().max(b.abs());
    scale == 0.0 || (a - b).abs() <= DEFAULT_SIM_THRESHOLD * scale
}

fn num(record: &ExecutionRecord, feature: &str) -> Option<f64> {
    record.feature(feature).as_num()
}

fn text(record: &ExecutionRecord, feature: &str) -> Option<String> {
    record.feature(feature).as_str().map(str::to_string)
}

/// Builds the *WhyLastTaskFaster* query over the tasks of `log`.
///
/// ```text
/// FOR T1, T2
/// DESPITE jobid_isSame = T ∧ inputsize_compare = SIM ∧ hostname_isSame = T
/// OBSERVED duration_compare = LT
/// EXPECTED duration_compare = SIM
/// ```
///
/// Returns `None` when no pair of tasks in the log exhibits the pattern.
pub fn why_last_task_faster(log: &ExecutionLog) -> Option<QueryBinding> {
    let query = parse_query(
        "FOR T1, T2 WHERE T1.TaskID = ? AND T2.TaskID = ?\n\
         DESPITE jobid_isSame = T AND inputsize_compare = SIM AND hostname_isSame = T\n\
         OBSERVED duration_compare = LT\n\
         EXPECTED duration_compare = SIM",
    )
    .expect("well-formed query");

    // Find, within one job and one host, the pair with the largest runtime
    // gap between tasks that read a similar amount of data.
    let mut best: Option<(f64, String, String)> = None;
    for job in log.jobs() {
        // The paper's scenario is about *map* tasks of the same job: the
        // final map task of a wave runs alone and finishes faster.  Restrict
        // the pair-of-interest search accordingly (the PXQL despite clause
        // itself stays exactly as in the paper).
        let tasks: Vec<&ExecutionRecord> = log
            .tasks_of_job(&job.id)
            .filter(|t| t.feature("tasktype").as_str() == Some("MAP"))
            .collect();
        for fast in &tasks {
            for slow in &tasks {
                if fast.id == slow.id {
                    continue;
                }
                let (Some(host_a), Some(host_b)) = (text(fast, "hostname"), text(slow, "hostname"))
                else {
                    continue;
                };
                if host_a != host_b {
                    continue;
                }
                let (Some(in_a), Some(in_b)) = (num(fast, "inputsize"), num(slow, "inputsize"))
                else {
                    continue;
                };
                if !similar(in_a, in_b) {
                    continue;
                }
                let (Some(d_fast), Some(d_slow)) = (fast.duration(), slow.duration()) else {
                    continue;
                };
                // Observed: the first task is much faster (duration LT).
                if similar(d_fast, d_slow) || d_fast >= d_slow {
                    continue;
                }
                let gap = d_slow / d_fast.max(1e-9);
                if best.as_ref().map(|(g, _, _)| gap > *g).unwrap_or(true) {
                    best = Some((gap, fast.id.clone(), slow.id.clone()));
                }
            }
        }
    }
    best.map(|(_, fast, slow)| QueryBinding {
        name: "WhyLastTaskFaster",
        bound: BoundQuery::new(query, fast, slow),
    })
}

/// Builds the *WhySlowerDespiteSameNumInstances* query over the jobs of
/// `log`.
///
/// ```text
/// FOR J1, J2
/// DESPITE numinstances_isSame = T ∧ pigscript_isSame = T
/// OBSERVED duration_compare = GT
/// EXPECTED duration_compare = SIM
/// ```
pub fn why_slower_despite_same_num_instances(log: &ExecutionLog) -> Option<QueryBinding> {
    let query = parse_query(
        "FOR J1, J2 WHERE J1.JobID = ? AND J2.JobID = ?\n\
         DESPITE numinstances_isSame = T AND pigscript_isSame = T\n\
         OBSERVED duration_compare = GT\n\
         EXPECTED duration_compare = SIM",
    )
    .expect("well-formed query");

    let jobs: Vec<&ExecutionRecord> = log.jobs().collect();
    let mut best: Option<(f64, String, String)> = None;
    for slow in &jobs {
        for fast in &jobs {
            if slow.id == fast.id {
                continue;
            }
            let (Some(inst_a), Some(inst_b)) =
                (num(slow, "numinstances"), num(fast, "numinstances"))
            else {
                continue;
            };
            if inst_a != inst_b {
                continue;
            }
            let (Some(script_a), Some(script_b)) =
                (text(slow, "pigscript"), text(fast, "pigscript"))
            else {
                continue;
            };
            if script_a != script_b {
                continue;
            }
            let (Some(d_slow), Some(d_fast)) = (slow.duration(), fast.duration()) else {
                continue;
            };
            if similar(d_slow, d_fast) || d_slow <= d_fast {
                continue;
            }
            let gap = d_slow / d_fast.max(1e-9);
            if best.as_ref().map(|(g, _, _)| gap > *g).unwrap_or(true) {
                best = Some((gap, slow.id.clone(), fast.id.clone()));
            }
        }
    }
    best.map(|(_, slow, fast)| QueryBinding {
        name: "WhySlowerDespiteSameNumInstances",
        bound: BoundQuery::new(query, slow, fast),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::{build_execution_log, LogPreset};

    fn tiny_log() -> ExecutionLog {
        build_execution_log(LogPreset::Tiny, 42)
    }

    #[test]
    fn task_query_finds_a_valid_pair_of_interest() {
        let log = tiny_log();
        let binding = why_last_task_faster(&log).expect("the last-task pattern exists");
        assert_eq!(binding.name, "WhyLastTaskFaster");
        // The pair of interest satisfies the query's semantic preconditions.
        binding
            .bound
            .verify_preconditions(&log, DEFAULT_SIM_THRESHOLD)
            .expect("preconditions hold");
        assert_ne!(binding.bound.left_id, binding.bound.right_id);
    }

    #[test]
    fn job_query_finds_a_valid_pair_of_interest() {
        let log = tiny_log();
        let binding = why_slower_despite_same_num_instances(&log).expect("a slower job exists");
        assert_eq!(binding.name, "WhySlowerDespiteSameNumInstances");
        binding
            .bound
            .verify_preconditions(&log, DEFAULT_SIM_THRESHOLD)
            .expect("preconditions hold");
        // Both ends are jobs with the same instance count and script.
        let left = log.get(&binding.bound.left_id).unwrap();
        let right = log.get(&binding.bound.right_id).unwrap();
        assert_eq!(left.feature("numinstances"), right.feature("numinstances"));
        assert_eq!(left.feature("pigscript"), right.feature("pigscript"));
        assert!(left.duration().unwrap() > right.duration().unwrap());
    }

    #[test]
    fn empty_log_yields_no_binding() {
        let log = ExecutionLog::new();
        assert!(why_last_task_faster(&log).is_none());
        assert!(why_slower_despite_same_num_instances(&log).is_none());
    }
}
