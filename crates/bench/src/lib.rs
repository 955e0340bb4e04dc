//! The benchmark and reproduction harness.
//!
//! Every table and figure of the paper's evaluation (Section 6) has a
//! corresponding experiment function here, and the `reproduce` binary
//! prints the regenerated tables and series
//! (`cargo run --release -p perfxplain-bench --bin reproduce -- <experiment>`):
//!
//! | paper artefact | experiment | `reproduce` experiment |
//! |---|---|---|
//! | Table 2 (parameter grid) | [`experiments::table2_summary`] | `table2` |
//! | Table 3 (despite-clause relevance before/after) | [`experiments::despite_relevance`] | `table3` |
//! | Figure 3(a) precision vs width, WhyLastTaskFaster | [`experiments::precision_vs_width`] | `fig3a` |
//! | Figure 3(b) precision vs width, WhySlowerDespiteSameNumInstances | [`experiments::precision_vs_width`] | `fig3b` |
//! | Figure 3(c) different-job log | [`experiments::different_job_log`] | `fig3c` |
//! | Figure 3(d) precision vs log size | [`experiments::log_size_sweep`] | `fig3d` |
//! | Figure 4(a) relevance of generated despite clauses | [`experiments::despite_relevance`] | `fig4a` |
//! | Figure 4(b) precision/generality trade-off | [`experiments::precision_vs_width`] | `fig4b` |
//! | Figure 4(c) feature levels | [`experiments::feature_levels`] | `fig4c` |
//! | design-choice ablations (beyond the paper) | [`experiments::ablations`] | `ablations` |
//!
//! `reproduce all` runs every experiment in turn.  Absolute numbers differ
//! from the paper (its substrate was EC2, ours is a simulator), but the
//! comparisons the paper draws — which technique wins, how precision
//! reacts to width, log size and feature level, how much a generated
//! despite clause lifts relevance — are what `reproduce` prints.

pub mod context;
pub mod experiments;
pub mod synthetic;
pub mod table;

pub use context::ExperimentContext;
pub use experiments::{
    AblationResult, DespiteRelevance, LevelSeries, LogSizeSeries, RelevancePoint, TechniqueSeries,
    WidthPoint,
};
pub use synthetic::{
    blocked_log, blocked_log_with_group_metrics, two_regime_job, two_regime_log, BLOCKED_QUERY,
};
pub use table::{fmt_aggregate, render_table};
