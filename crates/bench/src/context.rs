//! The shared experiment context: an execution log, the paper's two bound
//! queries and the evaluation configuration.

use perfxplain_core::ExecutionLog;
use perfxplain_core::ExplainConfig;
use workload::{
    build_execution_log, why_last_task_faster, why_slower_despite_same_num_instances, LogPreset,
    QueryBinding,
};

/// Everything the experiments need.
#[derive(Debug, Clone)]
pub struct ExperimentContext {
    /// The execution log (simulated sweep, collected through the Hadoop log
    /// substrate).
    pub log: ExecutionLog,
    /// The *WhySlowerDespiteSameNumInstances* query, bound to a pair of
    /// interest in `log`.
    pub job_query: QueryBinding,
    /// The *WhyLastTaskFaster* query, bound to a pair of interest in `log`.
    pub task_query: QueryBinding,
    /// Base explanation-engine configuration (per-run seeds are derived from
    /// it).
    pub config: ExplainConfig,
    /// Number of repeated train/test rounds per experiment point.
    pub runs: usize,
    /// Explanation widths evaluated by the width sweeps.
    pub widths: Vec<usize>,
}

impl ExperimentContext {
    /// Prepares a context from a workload preset.
    ///
    /// # Panics
    /// Panics when the generated log does not exhibit the two phenomena the
    /// queries ask about — which does not happen for the shipped presets and
    /// seeds.
    pub fn prepare(preset: LogPreset, seed: u64, runs: usize) -> Self {
        let log = build_execution_log(preset, seed);
        let job_query = why_slower_despite_same_num_instances(&log)
            .expect("the sweep contains a slower job with the same instance count and script");
        let task_query =
            why_last_task_faster(&log).expect("the sweep contains the last-task-faster pattern");
        ExperimentContext {
            log,
            job_query,
            task_query,
            config: ExplainConfig::default(),
            runs,
            widths: (0..=5).collect(),
        }
    }

    /// A deliberately small context used by the unit tests: tiny log, three
    /// repetitions, smaller training samples.
    pub fn quick(seed: u64) -> Self {
        let mut ctx = ExperimentContext::prepare(LogPreset::Tiny, seed, 3);
        ctx.config = ctx.config.with_sample_size(400);
        ctx.widths = (0..=3).collect();
        ctx
    }

    /// Maximum width evaluated by the width sweeps.
    pub fn max_width(&self) -> usize {
        self.widths.iter().copied().max().unwrap_or(0)
    }

    /// The per-run seed for round `run`.
    pub fn run_seed(&self, run: usize) -> u64 {
        self.config
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(run as u64 + 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_context_is_usable() {
        let ctx = ExperimentContext::quick(5);
        assert!(ctx.log.jobs().count() > 10);
        assert_eq!(ctx.runs, 3);
        assert_eq!(ctx.max_width(), 3);
        assert_ne!(ctx.run_seed(0), ctx.run_seed(1));
        assert_eq!(ctx.job_query.name, "WhySlowerDespiteSameNumInstances");
        assert_eq!(ctx.task_query.name, "WhyLastTaskFaster");
    }
}
