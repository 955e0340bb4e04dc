//! The Table-2 parameter grid and the sweep driver.
//!
//! Table 2 of the paper lists the varied parameters and their values:
//!
//! | parameter            | values                                  |
//! |-----------------------|-----------------------------------------|
//! | number of instances   | 1, 2, 4, 8, 16                          |
//! | input file size       | 1.3 GB, 2.6 GB (30 or 60 copies)        |
//! | DFS block size        | 64 MB, 256 MB, 1024 MB                  |
//! | reduce tasks factor   | 1.0, 1.5, 2.0                           |
//! | IO sort factor        | 10, 50, 100                             |
//! | Pig script            | simple-filter.pig, simple-groupby.pig   |
//!
//! A full sweep is 540 configurations; [`SweepOptions`] allows deterministic
//! sub-sampling for tests and fast benchmark runs.  Every configuration runs
//! one job on its own simulated cluster (as in the paper, where each
//! configuration is a separate EC2 cluster + job submission).

use crate::excite::{ExciteLog, ExciteSpec};
use hadoop_logs::collect_traces;
use mrsim::{Cluster, ClusterSpec, JobSpec, JobTrace, PigScript, GB, MB};
use perfxplain_core::ExecutionLog;
use serde::{Deserialize, Serialize};

/// The paper's base input: 30 copies of the Excite sample ≈ 1.3 GB.
pub const BYTES_PER_30_COPIES: u64 = (1.3 * GB as f64) as u64;

/// One point of the parameter grid.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JobConfiguration {
    /// Number of cluster instances.
    pub instances: usize,
    /// Number of concatenated copies of the Excite base file (30 or 60).
    pub input_copies: usize,
    /// DFS block size in bytes.
    pub block_size: u64,
    /// Reduce tasks factor.
    pub reduce_tasks_factor: f64,
    /// `io.sort.factor`.
    pub io_sort_factor: u32,
    /// Pig script.
    pub script: PigScript,
}

impl JobConfiguration {
    /// Total input bytes of this configuration (1.3 GB per 30 copies, as in
    /// the paper).
    pub fn input_bytes(&self) -> u64 {
        (BYTES_PER_30_COPIES as f64 * self.input_copies as f64 / 30.0) as u64
    }

    /// Builds the simulator job spec, deriving record counts from the
    /// Excite data profile.
    pub fn job_spec(&self, excite: &ExciteLog) -> JobSpec {
        let avg_record_bytes = (excite.bytes as f64 / excite.records.max(1) as f64).max(1.0);
        let input_bytes = self.input_bytes();
        JobSpec {
            name: format!(
                "{}-{}copies-{}inst",
                self.script.file_name(),
                self.input_copies,
                self.instances
            ),
            script: self.script,
            input_bytes,
            input_records: (input_bytes as f64 / avg_record_bytes) as u64,
            dfs_block_size: self.block_size,
            reduce_tasks_factor: self.reduce_tasks_factor,
            io_sort_factor: self.io_sort_factor,
            submit_time: 0.0,
        }
    }
}

/// The grid of values to sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridSpec {
    /// Instance counts.
    pub instances: Vec<usize>,
    /// Input sizes expressed as Excite-file copy counts.
    pub input_copies: Vec<usize>,
    /// Block sizes in bytes.
    pub block_sizes: Vec<u64>,
    /// Reduce tasks factors.
    pub reduce_tasks_factors: Vec<f64>,
    /// IO sort factors.
    pub io_sort_factors: Vec<u32>,
    /// Pig scripts.
    pub scripts: Vec<PigScript>,
}

impl Default for GridSpec {
    fn default() -> Self {
        GridSpec::paper_table2()
    }
}

impl GridSpec {
    /// The exact grid of Table 2.
    pub fn paper_table2() -> Self {
        GridSpec {
            instances: vec![1, 2, 4, 8, 16],
            input_copies: vec![30, 60],
            block_sizes: vec![64 * MB, 256 * MB, 1024 * MB],
            reduce_tasks_factors: vec![1.0, 1.5, 2.0],
            io_sort_factors: vec![10, 50, 100],
            scripts: vec![PigScript::SimpleFilter, PigScript::SimpleGroupBy],
        }
    }

    /// A reduced grid that keeps every dimension but fewer values per
    /// dimension; used by tests and quick benchmark runs.
    pub fn reduced() -> Self {
        GridSpec {
            instances: vec![2, 8, 16],
            input_copies: vec![30, 60],
            block_sizes: vec![64 * MB, 1024 * MB],
            reduce_tasks_factors: vec![1.0, 2.0],
            io_sort_factors: vec![10, 100],
            scripts: vec![PigScript::SimpleFilter, PigScript::SimpleGroupBy],
        }
    }

    /// Number of configurations in the grid.
    pub fn len(&self) -> usize {
        self.instances.len()
            * self.input_copies.len()
            * self.block_sizes.len()
            * self.reduce_tasks_factors.len()
            * self.io_sort_factors.len()
            * self.scripts.len()
    }

    /// Whether the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enumerates every configuration of the grid, in deterministic order.
    pub fn configurations(&self) -> Vec<JobConfiguration> {
        let mut configs = Vec::with_capacity(self.len());
        for &script in &self.scripts {
            for &instances in &self.instances {
                for &input_copies in &self.input_copies {
                    for &block_size in &self.block_sizes {
                        for &reduce_tasks_factor in &self.reduce_tasks_factors {
                            for &io_sort_factor in &self.io_sort_factors {
                                configs.push(JobConfiguration {
                                    instances,
                                    input_copies,
                                    block_size,
                                    reduce_tasks_factor,
                                    io_sort_factor,
                                    script,
                                });
                            }
                        }
                    }
                }
            }
        }
        configs
    }
}

/// Options of a sweep run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepOptions {
    /// Seed for the simulated clusters (each configuration derives its own
    /// sub-seed) and for sub-sampling.
    pub seed: u64,
    /// Keep every `stride`-th configuration (1 = keep all).  Striding keeps
    /// the sample spread evenly over the grid, unlike a random subset.
    pub stride: usize,
    /// The Excite data profile used to derive record counts.
    pub excite: ExciteSpec,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            seed: 0x5EEDED,
            stride: 1,
            excite: ExciteSpec::default(),
        }
    }
}

impl SweepOptions {
    /// Builder-style setter for the stride.
    pub fn with_stride(mut self, stride: usize) -> Self {
        self.stride = stride.max(1);
        self
    }

    /// Builder-style setter for the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// The output of a sweep: the configurations that ran and their traces.
#[derive(Debug)]
pub struct SweepResult {
    /// Configurations in the order they were run.
    pub configurations: Vec<JobConfiguration>,
    /// One trace per configuration.
    pub traces: Vec<JobTrace>,
}

impl SweepResult {
    /// Collects the traces into a PerfXplain execution log via the Hadoop
    /// log text formats (write + parse), i.e. the full substrate path.
    pub fn execution_log(&self) -> ExecutionLog {
        collect_traces(&self.traces).expect("simulated logs always parse")
    }
}

fn run_configuration(
    config: &JobConfiguration,
    index: usize,
    options: &SweepOptions,
    excite: &ExciteLog,
) -> JobTrace {
    let spec = ClusterSpec::with_instances(config.instances);
    // Every configuration gets its own cluster and deterministic sub-seed.
    let seed = options
        .seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index as u64);
    let mut cluster = Cluster::new(spec, seed);
    cluster.run_job(config.job_spec(excite))
}

/// Runs the sweep over `grid` with the given options.
pub fn run_sweep(grid: &GridSpec, options: &SweepOptions) -> SweepResult {
    let excite = options.excite.generate();
    let configurations: Vec<JobConfiguration> = grid
        .configurations()
        .into_iter()
        .step_by(options.stride.max(1))
        .collect();

    // One pool job per configuration (the pool clamps the job count), so
    // the shared queue balances configurations of very different cost; the
    // traces come back in configuration order, so the output is
    // deterministic.  On one CPU the sweep runs inline, one configuration
    // after another.
    let indexed: Vec<(usize, &JobConfiguration)> = configurations.iter().enumerate().collect();
    let traces: Vec<JobTrace> = perfxplain_core::pool::shared()
        .map_chunks(&indexed, indexed.len(), |chunk| {
            chunk
                .iter()
                .map(|&(i, c)| run_configuration(c, i, options, &excite))
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();

    SweepResult {
        configurations,
        traces,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_grid_has_540_configurations() {
        let grid = GridSpec::paper_table2();
        assert_eq!(grid.len(), 540);
        assert_eq!(grid.configurations().len(), 540);
        assert!(!grid.is_empty());
    }

    #[test]
    fn configurations_cover_all_values() {
        let grid = GridSpec::paper_table2();
        let configs = grid.configurations();
        for &instances in &grid.instances {
            assert!(configs.iter().any(|c| c.instances == instances));
        }
        for &bs in &grid.block_sizes {
            assert!(configs.iter().any(|c| c.block_size == bs));
        }
        for &script in &grid.scripts {
            assert!(configs.iter().any(|c| c.script == script));
        }
    }

    #[test]
    fn input_bytes_match_the_paper() {
        let config = JobConfiguration {
            instances: 8,
            input_copies: 30,
            block_size: 64 * MB,
            reduce_tasks_factor: 1.0,
            io_sort_factor: 10,
            script: PigScript::SimpleFilter,
        };
        let gb = config.input_bytes() as f64 / GB as f64;
        assert!((gb - 1.3).abs() < 0.01);
        let double = JobConfiguration {
            input_copies: 60,
            ..config
        };
        assert_eq!(double.input_bytes(), 2 * config.input_bytes());
    }

    #[test]
    fn sweep_runs_and_produces_an_execution_log() {
        let grid = GridSpec::reduced();
        let options = SweepOptions::default().with_stride(8);
        let result = run_sweep(&grid, &options);
        assert!(!result.traces.is_empty());
        assert_eq!(result.traces.len(), result.configurations.len());
        let log = result.execution_log();
        assert_eq!(log.jobs().count(), result.traces.len());
        assert!(log.tasks().count() > result.traces.len());
    }

    #[test]
    fn sweep_is_deterministic_and_parallelism_invariant() {
        let grid = GridSpec::reduced();
        let options = SweepOptions::default().with_stride(16);
        let parallel = run_sweep(&grid, &options);
        // The serial reference: every kept configuration run in order on
        // the calling thread.
        let configurations: Vec<JobConfiguration> =
            grid.configurations().into_iter().step_by(16).collect();
        let excite = options.excite.generate();
        let serial: Vec<JobTrace> = configurations
            .iter()
            .enumerate()
            .map(|(i, c)| run_configuration(c, i, &options, &excite))
            .collect();
        assert_eq!(parallel.configurations, configurations);
        let serial_durations: Vec<f64> = serial.iter().map(|t| t.duration()).collect();
        let parallel_durations: Vec<f64> = parallel.traces.iter().map(|t| t.duration()).collect();
        assert_eq!(serial_durations, parallel_durations);
    }

    #[test]
    fn stride_reduces_the_number_of_runs() {
        let grid = GridSpec::reduced();
        let all = grid.configurations().len();
        let strided = run_sweep(&grid, &SweepOptions::default().with_stride(10));
        assert_eq!(strided.traces.len(), all.div_ceil(10));
    }
}
