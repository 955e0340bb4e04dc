//! Seeded input generators.
//!
//! Every input a workload feeds the program — the execution logs, the
//! records appended while serving, and the pairs of interest the queries
//! ask about — is a pure function of the run's `--seed`, so one seed always
//! yields byte-identical inputs.  The seed changes values and which pairs
//! are asked about, never the shape of the work: group sizes, feature sets,
//! record counts and query texts are fixed per workload.

use perfxplain_core::{pxql, BoundQuery, ExecutionLog, ExecutionRecord, DEFAULT_SIM_THRESHOLD};
use std::collections::HashSet;

/// SplitMix64: a tiny, seedable, statistically solid generator.  Streams
/// derived with [`Rng::stream`] make record `i` a pure function of
/// `(seed, i)`, so appended records can be generated lazily.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent generator for one numbered stream of `seed`.
    pub fn stream(seed: u64, salt: u64, index: u64) -> Self {
        let mut base = Rng(seed ^ salt.rotate_left(17));
        let mixed = base.next_u64() ^ index.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        Rng(Rng(mixed).next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

const RECORD_SALT: u64 = 0x7265_636f_7264;
const GROUP_SALT: u64 = 0x0067_726f_7570;
const PAIR_SALT: u64 = 0x7061_6972;

/// A pair of interest: (left id, right id).
pub type Pair = (String, String);

/// Jobs per blocking group (one Pig script each) in the blocked log.
pub const GROUP: usize = 10;

/// The despite-blocked query over the blocked log, shared with the
/// repository's other benches: candidate pairs are restricted to one
/// script's group, so enumeration is O(n · GROUP).
pub use perfxplain_bench::synthetic::BLOCKED_QUERY;

/// The paper's job-level query, WhySlowerDespiteSameNumInstances.
pub const JOB_QUERY: &str = "FOR J1, J2 WHERE J1.JobID = ? AND J2.JobID = ?\n\
                             DESPITE numinstances_isSame = T AND pigscript_isSame = T\n\
                             OBSERVED duration_compare = GT\n\
                             EXPECTED duration_compare = SIM";

/// The paper's task-level query, WhyLastTaskFaster.
pub const TASK_QUERY: &str = "FOR T1, T2 WHERE T1.TaskID = ? AND T2.TaskID = ?\n\
                              DESPITE jobid_isSame = T AND inputsize_compare = SIM \
                              AND hostname_isSame = T\n\
                              OBSERVED duration_compare = LT\n\
                              EXPECTED duration_compare = SIM";

/// Record `i` of the blocked log: the seeded counterpart of record `i` of
/// `perfxplain_bench::synthetic::blocked_log_with_group_metrics(n, GROUP,
/// 1, 3)`, whose values are fixed.  Same features, same shape: job `i` runs
/// script `i / GROUP`; within a group, even positions use big blocks and
/// plateau near 600 s (observed pairs), odd positions scale with their
/// input (expected pairs).  Three group-level numeric metrics are constant
/// within a group, which gives the training dataset high-cardinality
/// continuous features.  The seed jitters every value, so no two seeds ask
/// the engine the same numbers.
pub fn blocked_record(seed: u64, i: usize) -> ExecutionRecord {
    let position = i % GROUP;
    let group = i / GROUP;
    let mut rng = Rng::stream(seed, RECORD_SALT, i as u64);
    let mut group_rng = Rng::stream(seed, GROUP_SALT, group as u64);
    let big_blocks = position.is_multiple_of(2);
    let input = (1 + position) as f64 * 1.0e9 * (0.98 + 0.04 * rng.unit());
    let duration = if big_blocks {
        600.0 * (0.99 + 0.02 * rng.unit())
    } else {
        input / 5.0e7 * (0.99 + 0.02 * rng.unit())
    };
    let mut record = ExecutionRecord::job(format!("job_{i}"))
        .with_feature("pigscript", format!("script_{group}.pig"))
        .with_feature("inputsize", input.round())
        .with_feature("blocksize", if big_blocks { 1024.0 } else { 64.0 })
        .with_feature("duration", duration)
        .with_feature("metric_00", (rng.unit() * 1000.0).round());
    for g in 0..3 {
        record.set_feature(
            format!("groupmetric_{g:02}"),
            (group_rng.unit() * 1.0e4).round() / 100.0,
        );
    }
    record
}

/// Records `range` of the blocked log.
pub fn blocked_records(seed: u64, range: std::ops::Range<usize>) -> Vec<ExecutionRecord> {
    range.map(|i| blocked_record(seed, i)).collect()
}

/// The first `n` records of the blocked log, catalogs built.
pub fn blocked_log(seed: u64, n: usize) -> ExecutionLog {
    let mut log = ExecutionLog::new();
    for record in blocked_records(seed, 0..n) {
        log.push(record);
    }
    log.rebuild_catalogs();
    log
}

/// A pair of interest for [`BLOCKED_QUERY`] inside `group`: two big-block
/// jobs whose inputs differ by at least 20% and whose durations are
/// similar, so the preconditions hold by construction.
pub fn blocked_pair_in(rng: &mut Rng, group: usize) -> Pair {
    let left = 2 + 2 * rng.below(4);
    let right = 2 * rng.below(left / 2);
    let base = group * GROUP;
    (
        format!("job_{}", base + left),
        format!("job_{}", base + right),
    )
}

/// `count` distinct seeded pairs of interest over the first `groups`
/// groups of the blocked log.
pub fn blocked_pairs(seed: u64, salt: u64, groups: usize, count: usize) -> Vec<Pair> {
    let mut rng = Rng::stream(seed, PAIR_SALT ^ salt, 0);
    let mut seen = HashSet::new();
    let mut pairs = Vec::with_capacity(count);
    while pairs.len() < count {
        let group = rng.below(groups);
        let pair = blocked_pair_in(&mut rng, group);
        if seen.insert(pair.clone()) {
            pairs.push(pair);
        }
    }
    pairs
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

/// Ordered job pairs matching [`JOB_QUERY`]'s semantics: same instance
/// count and script, left clearly slower than right.
fn job_candidates(log: &ExecutionLog) -> Vec<Pair> {
    let jobs: Vec<&ExecutionRecord> = log.jobs().collect();
    let mut out = Vec::new();
    for slow in &jobs {
        for fast in &jobs {
            let same = slow.id != fast.id
                && num(slow, "numinstances").is_some()
                && num(slow, "numinstances") == num(fast, "numinstances")
                && text(slow, "pigscript").is_some()
                && text(slow, "pigscript") == text(fast, "pigscript");
            if !same {
                continue;
            }
            if let (Some(s), Some(f)) = (slow.duration(), fast.duration()) {
                if s > f && !similar(s, f) {
                    out.push((slow.id.clone(), fast.id.clone()));
                }
            }
        }
    }
    out
}

/// Ordered task pairs matching [`TASK_QUERY`]'s semantics: map tasks of
/// one job on one host with similar input, left clearly faster.
fn task_candidates(log: &ExecutionLog) -> Vec<Pair> {
    let mut out = Vec::new();
    for job in log.jobs() {
        let tasks: Vec<&ExecutionRecord> = log
            .tasks_of_job(&job.id)
            .filter(|t| t.feature("tasktype").as_str() == Some("MAP"))
            .collect();
        for fast in &tasks {
            for slow in &tasks {
                let same = fast.id != slow.id
                    && text(fast, "hostname").is_some()
                    && text(fast, "hostname") == text(slow, "hostname");
                if !same {
                    continue;
                }
                let (Some(a), Some(b)) = (num(fast, "inputsize"), num(slow, "inputsize")) else {
                    continue;
                };
                let (Some(d_fast), Some(d_slow)) = (fast.duration(), slow.duration()) else {
                    continue;
                };
                if similar(a, b) && d_fast < d_slow && !similar(d_fast, d_slow) {
                    out.push((fast.id.clone(), slow.id.clone()));
                }
            }
        }
    }
    out
}

/// Seeded pairs of interest for the two paper queries over `log`, in the
/// order an analyst asks them, each verified against the query's
/// preconditions.  Returns `(job pairs, task pairs)`, each of length at
/// most `count` (fewer only if the log holds fewer valid pairs).
pub fn paper_pairs(log: &ExecutionLog, seed: u64, count: usize) -> (Vec<Pair>, Vec<Pair>) {
    let mut rng = Rng::stream(seed, PAIR_SALT, 1);
    let mut pick = |query: &str, mut candidates: Vec<Pair>| {
        rng.shuffle(&mut candidates);
        let parsed = pxql::parse_query(query).expect("the paper query parses");
        candidates
            .into_iter()
            .filter(|(left, right)| {
                BoundQuery::new(parsed.clone(), left.clone(), right.clone())
                    .verify_preconditions(log, DEFAULT_SIM_THRESHOLD)
                    .is_ok()
            })
            .take(count)
            .collect::<Vec<_>>()
    };
    let jobs = pick(JOB_QUERY, job_candidates(log));
    let tasks = pick(TASK_QUERY, task_candidates(log));
    (jobs, tasks)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(log: &ExecutionLog) -> Vec<String> {
        log.records().iter().map(|r| format!("{r:?}")).collect()
    }

    #[test]
    fn same_seed_gives_identical_inputs() {
        assert_eq!(ids(&blocked_log(7, 200)), ids(&blocked_log(7, 200)));
        assert_eq!(blocked_pairs(7, 0, 20, 10), blocked_pairs(7, 0, 20, 10));
        // Lazily generated appended records equal a longer log's tail.
        assert_eq!(
            format!("{:?}", blocked_records(7, 190..200)),
            format!("{:?}", &blocked_log(7, 200).records()[190..200])
        );
    }

    #[test]
    fn different_seed_changes_values_and_pairs_but_not_shape() {
        let (a, b) = (blocked_log(1, 200), blocked_log(2, 200));
        assert_ne!(ids(&a), ids(&b));
        assert_eq!(a.len(), b.len());
        assert_eq!(a.job_catalog(), b.job_catalog());
        let (pa, pb) = (blocked_pairs(1, 0, 20, 10), blocked_pairs(2, 0, 20, 10));
        assert_ne!(pa, pb);
        assert_eq!(pa.len(), pb.len());
        let distinct: HashSet<_> = pa.iter().collect();
        assert_eq!(distinct.len(), pa.len());
    }

    #[test]
    fn blocked_log_has_the_shape_of_the_shared_generator() {
        let shared = perfxplain_bench::synthetic::blocked_log_with_group_metrics(200, GROUP, 1, 3);
        let seeded = blocked_log(7, 200);
        assert_eq!(seeded.job_catalog(), shared.job_catalog());
        for i in [0, 13, 199] {
            let id = format!("job_{i}");
            let (a, b) = (seeded.get(&id).unwrap(), shared.get(&id).unwrap());
            for feature in ["pigscript", "blocksize"] {
                assert_eq!(a.feature(feature), b.feature(feature));
            }
        }
    }

    #[test]
    fn blocked_pairs_satisfy_the_query_preconditions() {
        let query = pxql::parse_query(BLOCKED_QUERY).unwrap();
        for seed in [1, 2, 3] {
            let log = blocked_log(seed, 300);
            for (left, right) in blocked_pairs(seed, 0, 30, 20) {
                BoundQuery::new(query.clone(), left, right)
                    .verify_preconditions(&log, DEFAULT_SIM_THRESHOLD)
                    .expect("blocked pairs hold by construction");
            }
        }
    }

    #[test]
    fn paper_pairs_are_seeded_and_verified() {
        let log = workload::build_execution_log(workload::LogPreset::Tiny, 3);
        let (jobs, tasks) = paper_pairs(&log, 5, 3);
        assert_eq!((jobs.clone(), tasks.clone()), paper_pairs(&log, 5, 3));
        assert!(!jobs.is_empty() && !tasks.is_empty());
    }
}
