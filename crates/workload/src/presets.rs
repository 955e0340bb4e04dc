//! Ready-made execution logs of different sizes.
//!
//! Tests, examples and benchmarks all need "a log of past executions" to
//! work with; these presets package the sweep driver into three sizes:
//!
//! * [`LogPreset::Tiny`] — a handful of jobs, for unit/integration tests;
//! * [`LogPreset::Small`] — the reduced grid, the default for examples and
//!   the benchmark harness (comparable coverage to the paper's grid, fewer
//!   redundant points);
//! * [`LogPreset::PaperGrid`] — the full 540-configuration grid of Table 2.

use crate::grid::{run_sweep, GridSpec, SweepOptions, SweepResult};
use perfxplain_core::ExecutionLog;
use serde::{Deserialize, Serialize};

/// Which log to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LogPreset {
    /// ~24 jobs; seconds to build even in debug builds.
    Tiny,
    /// ~96 jobs covering every grid dimension.
    Small,
    /// The full Table-2 grid (540 jobs).
    PaperGrid,
}

impl LogPreset {
    /// The grid and stride behind the preset.
    pub fn plan(&self) -> (GridSpec, usize) {
        match self {
            LogPreset::Tiny => (GridSpec::reduced(), 4),
            LogPreset::Small => (GridSpec::reduced(), 1),
            LogPreset::PaperGrid => (GridSpec::paper_table2(), 1),
        }
    }

    /// Number of jobs the preset produces.
    pub fn num_jobs(&self) -> usize {
        let (grid, stride) = self.plan();
        grid.len().div_ceil(stride)
    }
}

/// Runs the sweep behind a preset and returns the raw result (traces +
/// configurations), for callers that need the simulator-level detail.
pub fn run_preset(preset: LogPreset, seed: u64) -> SweepResult {
    let (grid, stride) = preset.plan();
    let options = SweepOptions::default().with_seed(seed).with_stride(stride);
    run_sweep(&grid, &options)
}

/// Builds the execution log of a preset (sweep → Hadoop logs → collector).
pub fn build_execution_log(preset: LogPreset, seed: u64) -> ExecutionLog {
    run_preset(preset, seed).execution_log()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_sizes_are_ordered() {
        assert!(LogPreset::Tiny.num_jobs() < LogPreset::Small.num_jobs());
        assert!(LogPreset::Small.num_jobs() < LogPreset::PaperGrid.num_jobs());
        assert_eq!(LogPreset::PaperGrid.num_jobs(), 540);
    }

    #[test]
    fn tiny_preset_builds_a_usable_log() {
        let log = build_execution_log(LogPreset::Tiny, 7);
        assert_eq!(log.jobs().count(), LogPreset::Tiny.num_jobs());
        assert!(log.tasks().count() > log.jobs().count());
        assert!(log.job_catalog().get("blocksize").is_some());
        assert!(log.task_catalog().get("hostname").is_some());
    }

    #[test]
    fn different_seeds_give_different_runtimes() {
        let a = build_execution_log(LogPreset::Tiny, 1);
        let b = build_execution_log(LogPreset::Tiny, 2);
        let d =
            |log: &ExecutionLog| -> f64 { log.jobs().filter_map(|j| j.duration()).sum::<f64>() };
        assert_ne!(d(&a), d(&b));
    }
}
