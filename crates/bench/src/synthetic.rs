//! Shared synthetic workloads.
//!
//! The blocked debugging-session log drives the `smoke` binary's 100k-row
//! scenarios, the `scale_1m` bench, pxbench's workloads and the integration
//! tests; the two-regime log drives the `smoke` binary's serving and
//! crash-recovery scenarios.  One generator per shape, so their consumers
//! can never drift apart.

use perfxplain_core::{ExecutionLog, ExecutionRecord};

/// A log shaped like an interactive debugging session's: a nominal
/// `pigscript` that the canonical queries block on (one script per
/// `group_size` consecutive jobs, giving small per-script candidate
/// groups), plus `extra_features` counter/Ganglia-style numeric columns to
/// widen the records.  Within each script group, big-block jobs plateau at
/// ~600 s (observed pairs) while small-block jobs scale with their input
/// (expected pairs), so the canonical despite-blocked query is answerable
/// for every group.
pub fn blocked_log(n: usize, group_size: usize, extra_features: usize) -> ExecutionLog {
    blocked_log_with_group_metrics(n, group_size, extra_features, 0)
}

/// [`blocked_log`] plus `group_metrics` **numeric group-level** features:
/// continuous values constant within a blocking group and distinct across
/// groups.  Within-group training pairs agree on them, so the split-search
/// dataset gains high-cardinality numeric *base* features — one distinct
/// value per sampled group — which is exactly the regime where candidate
/// threshold search dominates per-query explanation latency (O(d·n) for the
/// naive evaluator, O(n log n) for the sweep).  The `smoke explain` scenario
/// and the trainer cross-check of `tests/properties.rs` both drive this
/// shape.
pub fn blocked_log_with_group_metrics(
    n: usize,
    group_size: usize,
    extra_features: usize,
    group_metrics: usize,
) -> ExecutionLog {
    let mut log = ExecutionLog::new();
    for i in 0..n {
        let position = i % group_size;
        let group = i / group_size;
        let big_blocks = position.is_multiple_of(2);
        let input = (1 + position) as f64 * 1.0e9;
        let duration = if big_blocks {
            600.0 + (i % 7) as f64
        } else {
            input / 5.0e7 + (i % 5) as f64
        };
        let mut record = ExecutionRecord::job(format!("job_{i}"))
            .with_feature("pigscript", format!("script_{group}.pig"))
            .with_feature("inputsize", input)
            .with_feature("blocksize", if big_blocks { 1024.0 } else { 64.0 })
            .with_feature("duration", duration);
        for w in 0..extra_features {
            record.set_feature(format!("metric_{w:02}"), ((i * 31 + w * 7) % 997) as f64);
        }
        for g in 0..group_metrics {
            record.set_feature(
                format!("groupmetric_{g:02}"),
                (group * 31 + g * 7) as f64 * 0.37,
            );
        }
        log.push(record);
    }
    log.rebuild_catalogs();
    log
}

/// The canonical despite-blocked PXQL query text over [`blocked_log`]
/// (pair of interest supplied separately: members 0 and 2 of any group are
/// big-block jobs — larger input, plateaued duration).
pub const BLOCKED_QUERY: &str = "DESPITE pigscript_isSame = T AND inputsize_compare = GT\n\
                                 OBSERVED duration_compare = SIM\n\
                                 EXPECTED duration_compare = GT";

/// Job `i` of [`two_regime_log`].
pub fn two_regime_job(i: usize) -> ExecutionRecord {
    let big_blocks = i.is_multiple_of(2);
    let input = [1.0e9, 4.0e9, 32.0e9][i % 3];
    let duration = if big_blocks {
        600.0 + (i % 13) as f64
    } else {
        input / 5.0e7 + (i % 7) as f64
    };
    ExecutionRecord::job(format!("job_{i}"))
        .with_feature("inputsize", input)
        .with_feature("blocksize", if big_blocks { 1024.0 } else { 64.0 })
        .with_feature("numinstances", [2.0, 8.0, 16.0][(i / 2) % 3])
        .with_feature("pigscript", ["a.pig", "b.pig"][i % 2])
        .with_feature("duration", duration)
}

/// A log with two duration regimes driven by block size: even-indexed jobs
/// are big-block runs that plateau near 600 s, odd-indexed ones scale with
/// their input.  So `job_2` reads far more input than `job_0` at a similar
/// duration: a pair of interest for the canned query of
/// `perfxplain_server::default_request`.
pub fn two_regime_log(n: usize) -> ExecutionLog {
    let mut log = ExecutionLog::new();
    for i in 0..n {
        log.push(two_regime_job(i));
    }
    log.rebuild_catalogs();
    log
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocked_log_groups_and_widens_as_asked() {
        let log = blocked_log(25, 5, 3);
        assert_eq!(log.jobs().count(), 25);
        // 4 base features + 3 metrics.
        assert_eq!(log.job_catalog().len(), 7);
        let first = log.get("job_0").unwrap();
        let grouped = log.get("job_4").unwrap();
        let next_group = log.get("job_5").unwrap();
        assert_eq!(first.feature("pigscript"), grouped.feature("pigscript"));
        assert_ne!(first.feature("pigscript"), next_group.feature("pigscript"));
    }

    #[test]
    fn group_metrics_are_constant_within_and_distinct_across_groups() {
        let log = blocked_log_with_group_metrics(20, 5, 0, 2);
        assert_eq!(log.job_catalog().len(), 6);
        let first = log.get("job_0").unwrap();
        let grouped = log.get("job_4").unwrap();
        let next_group = log.get("job_5").unwrap();
        for g in ["groupmetric_00", "groupmetric_01"] {
            assert_eq!(first.feature(g), grouped.feature(g));
            assert_ne!(first.feature(g), next_group.feature(g));
        }
    }
}
