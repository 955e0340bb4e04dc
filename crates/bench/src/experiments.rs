//! The experiments behind every table and figure of the paper's evaluation,
//! plus the design-choice ablations.
//!
//! All experiments follow the paper's methodology (Section 6.1): the log is
//! split into a training log and a test log by assigning each job (and its
//! tasks) to the training side with a given probability, explanations are
//! generated from the training log only, and their quality metrics are
//! measured over the related pairs of the test log.  Every experiment point
//! is repeated `runs` times with different split/sampling seeds and reported
//! as mean ± standard deviation.

use crate::context::ExperimentContext;
use perfxplain_core::eval::{related_pairs_for_evaluation, split_log};
use perfxplain_core::{
    generate_explanation, metrics, Aggregate, BoundQuery, ExecutionLog, ExplainConfig, Explanation,
    FeatureLevel, PerfXplain, Technique, TrainingSet,
};
use pxql::{parse_query, Predicate};
use workload::QueryBinding;

// ---------------------------------------------------------------------------
// Shared result types
// ---------------------------------------------------------------------------

/// Precision and generality of a technique at one explanation width.
#[derive(Debug, Clone, PartialEq)]
pub struct WidthPoint {
    /// Explanation width (number of atomic predicates in the because
    /// clause).
    pub width: usize,
    /// Precision over the test log's related pairs.
    pub precision: Aggregate,
    /// Generality over the test log's related pairs.
    pub generality: Aggregate,
}

/// A per-technique series of width points (one line of Figure 3(a)/(b)/(c)
/// or one point cloud of Figure 4(b)).
#[derive(Debug, Clone, PartialEq)]
pub struct TechniqueSeries {
    /// The technique.
    pub technique: Technique,
    /// One point per requested width.
    pub points: Vec<WidthPoint>,
}

/// Relevance of a generated despite clause at one width (Figure 4(a)).
#[derive(Debug, Clone, PartialEq)]
pub struct RelevancePoint {
    /// Despite-clause width.
    pub width: usize,
    /// Relevance over the test log's related pairs.
    pub relevance: Aggregate,
}

/// Table 3 + Figure 4(a): relevance before and after PerfXplain generates a
/// despite clause for an under-specified query.
#[derive(Debug, Clone, PartialEq)]
pub struct DespiteRelevance {
    /// Query name.
    pub query: String,
    /// Relevance of the empty despite clause.
    pub before: Aggregate,
    /// Relevance of the generated width-3 despite clause.
    pub after: Aggregate,
    /// Relevance for every width (Figure 4(a)).
    pub series: Vec<RelevancePoint>,
}

/// One technique's precision as a function of the training-log fraction
/// (Figure 3(d)).
#[derive(Debug, Clone, PartialEq)]
pub struct LogSizeSeries {
    /// The technique.
    pub technique: Technique,
    /// `(training fraction, width-3 precision)` points.
    pub points: Vec<(f64, Aggregate)>,
}

/// PerfXplain's precision per width for one feature level (Figure 4(c)).
#[derive(Debug, Clone, PartialEq)]
pub struct LevelSeries {
    /// The feature level.
    pub level: FeatureLevel,
    /// One point per width.
    pub points: Vec<WidthPoint>,
}

/// One row of the ablation study.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationResult {
    /// Human-readable name of the variant.
    pub name: String,
    /// Width-3 precision on the test log.
    pub precision: Aggregate,
    /// Width-3 generality on the test log.
    pub generality: Aggregate,
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

/// `(width, precision, generality)` measurements of one explanation across
/// the requested widths in one train/test round.
type RunMeasurements = Vec<(usize, Option<f64>, Option<f64>)>;

fn evaluate_widths(
    test_set: &TrainingSet,
    explanation: &Explanation,
    widths: &[usize],
) -> RunMeasurements {
    widths
        .iter()
        .map(|&width| {
            let truncated = explanation.truncated(width);
            let precision = metrics::precision(test_set, &truncated).value;
            let generality = metrics::generality(test_set, &truncated).value;
            (width, precision, generality)
        })
        .collect()
}

fn aggregate_series(widths: &[usize], raw: &[RunMeasurements]) -> Vec<WidthPoint> {
    widths
        .iter()
        .enumerate()
        .map(|(i, &width)| {
            let precisions: Vec<Option<f64>> = raw.iter().map(|run| run[i].1).collect();
            let generalities: Vec<Option<f64>> = raw.iter().map(|run| run[i].2).collect();
            WidthPoint {
                width,
                precision: Aggregate::from_values(&precisions),
                generality: Aggregate::from_values(&generalities),
            }
        })
        .collect()
}

/// Generates (with one technique, on one training log) and evaluates (on one
/// test set) across the requested widths; `None` when the technique could
/// not learn from this split.
fn one_round(
    technique: Technique,
    train: &ExecutionLog,
    test_set: &TrainingSet,
    query: &BoundQuery,
    config: &ExplainConfig,
    widths: &[usize],
) -> Option<RunMeasurements> {
    let explanation = generate_explanation(technique, train, query, config).ok()?;
    Some(evaluate_widths(test_set, &explanation, widths))
}

// ---------------------------------------------------------------------------
// Figures 3(a), 3(b), 4(b): precision (and generality) vs width
// ---------------------------------------------------------------------------

/// Regenerates the data behind Figures 3(a)/3(b) (precision vs width for the
/// three techniques) and, since generality is recorded alongside, Figure
/// 4(b) (the precision/generality trade-off).
pub fn precision_vs_width(ctx: &ExperimentContext, binding: &QueryBinding) -> Vec<TechniqueSeries> {
    let max_width = ctx.max_width();
    let mut per_technique: Vec<(Technique, Vec<RunMeasurements>)> = Technique::all()
        .into_iter()
        .map(|t| (t, Vec::new()))
        .collect();

    for run in 0..ctx.runs {
        let seed = ctx.run_seed(run);
        let (train, test) = split_log(&ctx.log, &binding.bound, 0.5, seed);
        let test_set = related_pairs_for_evaluation(&test, &binding.bound, &ctx.config);
        if test_set.is_empty() {
            continue;
        }
        let config = ctx.config.clone().with_width(max_width).with_seed(seed);
        for (technique, results) in &mut per_technique {
            if let Some(round) = one_round(
                *technique,
                &train,
                &test_set,
                &binding.bound,
                &config,
                &ctx.widths,
            ) {
                results.push(round);
            }
        }
    }

    per_technique
        .into_iter()
        .map(|(technique, raw)| TechniqueSeries {
            technique,
            points: aggregate_series(&ctx.widths, &raw),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Table 3 and Figure 4(a): generated despite clauses
// ---------------------------------------------------------------------------

/// Strips the despite clause of a bound query (the "under-specified" form of
/// Section 6.4).
fn underspecified(binding: &QueryBinding) -> BoundQuery {
    let mut bound = binding.bound.clone();
    bound.query = bound.query.with_despite(Predicate::always_true());
    bound
}

/// Regenerates Table 3 and one curve of Figure 4(a) for a query: the
/// relevance of the empty despite clause vs PerfXplain-generated clauses of
/// increasing width.
pub fn despite_relevance(ctx: &ExperimentContext, binding: &QueryBinding) -> DespiteRelevance {
    let query = underspecified(binding);
    let max_width = ctx.max_width();

    let mut per_width: Vec<Vec<Option<f64>>> = vec![Vec::new(); ctx.widths.len()];
    for run in 0..ctx.runs {
        let seed = ctx.run_seed(run);
        let (train, test) = split_log(&ctx.log, &query, 0.5, seed);
        let test_set = related_pairs_for_evaluation(&test, &query, &ctx.config);
        if test_set.is_empty() {
            continue;
        }
        let mut config = ctx.config.clone().with_seed(seed);
        config.despite_width = max_width;
        let engine = PerfXplain::new(config);
        let Ok(despite) = engine.generate_despite(&train, &query) else {
            continue;
        };
        for (i, &width) in ctx.widths.iter().enumerate() {
            let clause = despite.truncated(width);
            per_width[i].push(metrics::relevance(&test_set, &clause).value);
        }
    }

    let series: Vec<RelevancePoint> = ctx
        .widths
        .iter()
        .enumerate()
        .map(|(i, &width)| RelevancePoint {
            width,
            relevance: Aggregate::from_values(&per_width[i]),
        })
        .collect();
    let before = series
        .iter()
        .find(|p| p.width == 0)
        .map(|p| p.relevance)
        .unwrap_or_default();
    let after = series
        .iter()
        .find(|p| p.width == 3.min(max_width))
        .map(|p| p.relevance)
        .unwrap_or_default();
    DespiteRelevance {
        query: binding.name.to_string(),
        before,
        after,
        series,
    }
}

// ---------------------------------------------------------------------------
// Figure 3(c): explaining a pair of jobs unlike anything in the log
// ---------------------------------------------------------------------------

/// Regenerates Figure 3(c): the training log contains only
/// `simple-groupby.pig` jobs (plus the pair of interest, which runs
/// `simple-filter.pig`), and explanations are evaluated over the filter
/// jobs.
pub fn different_job_log(ctx: &ExperimentContext) -> Vec<TechniqueSeries> {
    let filter_script = "simple-filter.pig";
    let filter_job_ids: Vec<&str> = ctx
        .log
        .jobs()
        .filter(|j| j.feature("pigscript").as_str() == Some(filter_script))
        .map(|j| j.id.as_str())
        .collect();
    let groupby_job_ids: Vec<&str> = ctx
        .log
        .jobs()
        .filter(|j| j.feature("pigscript").as_str() != Some(filter_script))
        .map(|j| j.id.as_str())
        .collect();

    let filter_log = ctx.log.restrict_to_jobs(&filter_job_ids);
    let binding = workload::why_slower_despite_same_num_instances(&filter_log)
        .expect("filter jobs exhibit the slower-job pattern");

    // Training log: every groupby job plus the two filter jobs of interest.
    let mut train_ids = groupby_job_ids.clone();
    train_ids.push(&binding.bound.left_id);
    train_ids.push(&binding.bound.right_id);
    let train = ctx.log.restrict_to_jobs(&train_ids);
    // Evaluation log: all filter jobs (as in Section 6.5).
    let test_set = related_pairs_for_evaluation(&filter_log, &binding.bound, &ctx.config);

    let max_width = ctx.max_width();
    let mut out = Vec::new();
    for technique in Technique::all() {
        let mut raw = Vec::new();
        for run in 0..ctx.runs {
            let config = ctx
                .config
                .clone()
                .with_width(max_width)
                .with_seed(ctx.run_seed(run));
            if let Some(round) = one_round(
                technique,
                &train,
                &test_set,
                &binding.bound,
                &config,
                &ctx.widths,
            ) {
                raw.push(round);
            }
        }
        out.push(TechniqueSeries {
            technique,
            points: aggregate_series(&ctx.widths, &raw),
        });
    }
    out
}

// ---------------------------------------------------------------------------
// Figure 3(d): varying the log size
// ---------------------------------------------------------------------------

/// Regenerates Figure 3(d): width-3 precision of every technique when only a
/// fraction of the jobs is available for training.
pub fn log_size_sweep(
    ctx: &ExperimentContext,
    binding: &QueryBinding,
    fractions: &[f64],
) -> Vec<LogSizeSeries> {
    let width = 3usize;
    let mut out: Vec<LogSizeSeries> = Technique::all()
        .into_iter()
        .map(|technique| LogSizeSeries {
            technique,
            points: Vec::new(),
        })
        .collect();

    for &fraction in fractions {
        let mut per_technique: Vec<Vec<Option<f64>>> = vec![Vec::new(); Technique::all().len()];
        for run in 0..ctx.runs {
            let seed = ctx.run_seed(run) ^ (fraction * 1000.0) as u64;
            let (train, test) = split_log(&ctx.log, &binding.bound, fraction, seed);
            let test_set = related_pairs_for_evaluation(&test, &binding.bound, &ctx.config);
            if test_set.is_empty() {
                continue;
            }
            let config = ctx.config.clone().with_width(width).with_seed(seed);
            for (t_idx, technique) in Technique::all().into_iter().enumerate() {
                let value = generate_explanation(technique, &train, &binding.bound, &config)
                    .ok()
                    .and_then(|e| metrics::precision(&test_set, &e).value);
                per_technique[t_idx].push(value);
            }
        }
        for (t_idx, series) in out.iter_mut().enumerate() {
            series
                .points
                .push((fraction, Aggregate::from_values(&per_technique[t_idx])));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Figure 4(c): feature levels
// ---------------------------------------------------------------------------

/// Regenerates Figure 4(c): PerfXplain's precision per width when the
/// feature vocabulary is restricted to level 1 / 2 / 3.
pub fn feature_levels(ctx: &ExperimentContext, binding: &QueryBinding) -> Vec<LevelSeries> {
    let max_width = ctx.max_width();
    FeatureLevel::all()
        .into_iter()
        .map(|level| {
            let mut raw = Vec::new();
            for run in 0..ctx.runs {
                let seed = ctx.run_seed(run);
                let (train, test) = split_log(&ctx.log, &binding.bound, 0.5, seed);
                let test_set = related_pairs_for_evaluation(&test, &binding.bound, &ctx.config);
                if test_set.is_empty() {
                    continue;
                }
                let config = ctx
                    .config
                    .clone()
                    .with_width(max_width)
                    .with_feature_level(level)
                    .with_seed(seed);
                if let Some(round) = one_round(
                    Technique::PerfXplain,
                    &train,
                    &test_set,
                    &binding.bound,
                    &config,
                    &ctx.widths,
                ) {
                    raw.push(round);
                }
            }
            LevelSeries {
                level,
                points: aggregate_series(&ctx.widths, &raw),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Table 2: the parameter grid and the collected log
// ---------------------------------------------------------------------------

/// The parameter rows of Table 2 (name, values) plus a summary of the
/// collected log: per script and instance count, the number of jobs and
/// their mean duration for each input size.
pub fn table2_summary(ctx: &ExperimentContext) -> (Vec<Vec<String>>, Vec<Vec<String>>) {
    let grid = workload::GridSpec::paper_table2();
    let parameters = vec![
        vec![
            "Number of instances".to_string(),
            grid.instances
                .iter()
                .map(usize::to_string)
                .collect::<Vec<_>>()
                .join(", "),
        ],
        vec![
            "Input file size".to_string(),
            "1.3 GB, 2.6 GB (30 / 60 Excite copies)".to_string(),
        ],
        vec![
            "DFS block size".to_string(),
            "64 MB, 256 MB, 1024 MB".to_string(),
        ],
        vec![
            "Reduce tasks factor".to_string(),
            grid.reduce_tasks_factors
                .iter()
                .map(f64::to_string)
                .collect::<Vec<_>>()
                .join(", "),
        ],
        vec![
            "IO sort factor".to_string(),
            grid.io_sort_factors
                .iter()
                .map(u32::to_string)
                .collect::<Vec<_>>()
                .join(", "),
        ],
        vec![
            "Pig script".to_string(),
            "simple-filter.pig, simple-groupby.pig".to_string(),
        ],
    ];

    // Measured summary of the log actually collected for this context.
    let mut groups: std::collections::BTreeMap<(String, u64), Vec<f64>> =
        std::collections::BTreeMap::new();
    for job in ctx.log.jobs() {
        let script = job
            .feature("pigscript")
            .as_str()
            .unwrap_or("unknown")
            .to_string();
        let instances = job.feature("numinstances").as_num().unwrap_or(0.0) as u64;
        if let Some(duration) = job.duration() {
            groups
                .entry((script, instances))
                .or_default()
                .push(duration);
        }
    }
    let measured = groups
        .into_iter()
        .map(|((script, instances), durations)| {
            let mean = durations.iter().sum::<f64>() / durations.len() as f64;
            let max = durations.iter().cloned().fold(f64::MIN, f64::max);
            let min = durations.iter().cloned().fold(f64::MAX, f64::min);
            vec![
                script,
                instances.to_string(),
                durations.len().to_string(),
                format!("{mean:.0}"),
                format!("{min:.0}"),
                format!("{max:.0}"),
            ]
        })
        .collect();
    (parameters, measured)
}

// ---------------------------------------------------------------------------
// Ablations (beyond the paper)
// ---------------------------------------------------------------------------

/// Ablation study over the design choices Section 4.2/4.3 motivates: score
/// normalisation, the precision/generality weight, balanced sampling and the
/// sample size.  All variants are evaluated at width 3 on the job query.
pub fn ablations(ctx: &ExperimentContext, binding: &QueryBinding) -> Vec<AblationResult> {
    let variants: Vec<(String, ExplainConfig)> = vec![
        (
            "PerfXplain (paper defaults)".to_string(),
            ctx.config.clone(),
        ),
        (
            "no score normalisation".to_string(),
            ctx.config.clone().with_normalize_scores(false),
        ),
        (
            "uniform (unbalanced) sampling".to_string(),
            ctx.config.clone().with_balanced_sampling(false),
        ),
        (
            "precision weight w = 1.0".to_string(),
            ctx.config.clone().with_precision_weight(1.0),
        ),
        (
            "precision weight w = 0.5".to_string(),
            ctx.config.clone().with_precision_weight(0.5),
        ),
        (
            "sample size 200".to_string(),
            ctx.config.clone().with_sample_size(200),
        ),
    ];

    variants
        .into_iter()
        .map(|(name, base_config)| {
            let mut precisions = Vec::new();
            let mut generalities = Vec::new();
            for run in 0..ctx.runs {
                let seed = ctx.run_seed(run);
                let (train, test) = split_log(&ctx.log, &binding.bound, 0.5, seed);
                let test_set = related_pairs_for_evaluation(&test, &binding.bound, &ctx.config);
                if test_set.is_empty() {
                    continue;
                }
                let config = base_config.clone().with_width(3).with_seed(seed);
                match generate_explanation(Technique::PerfXplain, &train, &binding.bound, &config) {
                    Ok(explanation) => {
                        precisions.push(metrics::precision(&test_set, &explanation).value);
                        generalities.push(metrics::generality(&test_set, &explanation).value);
                    }
                    Err(_) => {
                        precisions.push(None);
                        generalities.push(None);
                    }
                }
            }
            AblationResult {
                name,
                precision: Aggregate::from_values(&precisions),
                generality: Aggregate::from_values(&generalities),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Sanity helper used by benches and the reproduce binary
// ---------------------------------------------------------------------------

/// Parses one of the paper's two query templates; used by benches that need
/// a query without a workload-provided binding.
pub fn paper_query_template(task_level: bool) -> BoundQuery {
    let text = if task_level {
        "FOR T1, T2 WHERE T1.TaskID = ? AND T2.TaskID = ?\n\
         DESPITE jobid_isSame = T AND inputsize_compare = SIM AND hostname_isSame = T\n\
         OBSERVED duration_compare = LT\n\
         EXPECTED duration_compare = SIM"
    } else {
        "FOR J1, J2 WHERE J1.JobID = ? AND J2.JobID = ?\n\
         DESPITE numinstances_isSame = T AND pigscript_isSame = T\n\
         OBSERVED duration_compare = GT\n\
         EXPECTED duration_compare = SIM"
    };
    BoundQuery::new(parse_query(text).expect("template parses"), "?", "?")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_ctx() -> ExperimentContext {
        let mut ctx = ExperimentContext::quick(3);
        ctx.runs = 2;
        ctx.widths = vec![0, 1, 2];
        ctx
    }

    #[test]
    fn precision_vs_width_produces_all_series() {
        let ctx = quick_ctx();
        let series = precision_vs_width(&ctx, &ctx.job_query);
        assert_eq!(series.len(), 3);
        for s in &series {
            assert_eq!(s.points.len(), 3);
            for p in &s.points {
                if let Some(samples) = Some(p.precision.samples) {
                    if samples > 0 {
                        assert!((0.0..=1.0).contains(&p.precision.mean));
                    }
                }
            }
        }
        // PerfXplain produces measurements on at least one split.
        let px = series
            .iter()
            .find(|s| s.technique == Technique::PerfXplain)
            .unwrap();
        assert!(px.points.iter().any(|p| p.precision.samples > 0));
    }

    #[test]
    fn despite_relevance_produces_well_formed_series() {
        // The improvement itself (Table 3 / Figure 4(a)) only materialises
        // on properly sized logs — `reproduce table3` prints it; on the
        // tiny test log we check the structure and metric bounds.
        let ctx = quick_ctx();
        let result = despite_relevance(&ctx, &ctx.job_query);
        assert_eq!(result.series.len(), ctx.widths.len());
        for point in &result.series {
            if point.relevance.samples > 0 {
                assert!((0.0..=1.0).contains(&point.relevance.mean));
            }
        }
        assert_eq!(result.query, "WhySlowerDespiteSameNumInstances");
    }

    #[test]
    fn log_size_sweep_covers_all_fractions() {
        let ctx = quick_ctx();
        let series = log_size_sweep(&ctx, &ctx.job_query, &[0.3, 0.6]);
        assert_eq!(series.len(), 3);
        for s in &series {
            assert_eq!(s.points.len(), 2);
        }
    }

    #[test]
    fn table2_summary_reports_every_script() {
        let ctx = quick_ctx();
        let (parameters, measured) = table2_summary(&ctx);
        assert_eq!(parameters.len(), 6);
        assert!(measured
            .iter()
            .any(|row| row[0].contains("simple-filter.pig")));
        assert!(measured
            .iter()
            .any(|row| row[0].contains("simple-groupby.pig")));
    }

    #[test]
    fn query_templates_parse() {
        assert_eq!(paper_query_template(true).query.despite.width(), 3);
        assert_eq!(paper_query_template(false).query.despite.width(), 2);
    }
}
