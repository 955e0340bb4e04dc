//! `pxbench check <runs-a> <runs-b>`: applies each end-to-end metric's
//! `BENCHMARK.json` bound to two sets of runs.
//!
//! A set of runs is a directory with one sub-directory per workload, each
//! holding one file per run: the run's captured standard output, whose first
//! line names its seed and whose last line is its result.  For every
//! workload and end-to-end metric the report gives each set's median,
//! quartiles and spread (the quartile distance as a share of the median),
//! and how far B's median moved from A's in the metric's "worse" direction.
//! A metric fails when B is worse by more than its bound, or when either
//! set's spread exceeds the bound (the two sets cannot then be told apart).
//!
//! Explanation quality (precision, generality, relevance) is a per-layer
//! metric, reported by traced runs, and deterministic for a seed: for every
//! seed both sets ran traced, B's value may not be worse than A's at all
//! (bound 0).  A set of traced runs without a seed in common with the other
//! set leaves quality unresolved.  The other per-layer metrics are listed
//! without a bound, and each `trace.*` metric is set against its untraced
//! counterpart in the other set as the tracing overhead.

use crate::stats::{median, quartiles};
use crate::{RunResult, Spec};
use std::collections::BTreeMap;
use std::path::Path;

/// Per-layer metrics held to bound 0, seed by seed.
pub const QUALITY: [&str; 3] = [
    "metrics.precision",
    "metrics.generality",
    "metrics.relevance",
];

/// Metric → values over a set's runs of one workload.
type Values = BTreeMap<String, Vec<f64>>;

#[derive(Debug, Default)]
struct Workload {
    values: Values,
    /// Seed → quality metric → values of that seed's traced runs.
    by_seed: BTreeMap<u64, Values>,
}

/// The seed a run's first line names (`pxbench <workload> seed=<n> ...`).
fn seed_of(output: &str) -> Option<u64> {
    output
        .lines()
        .next()?
        .split_whitespace()
        .find_map(|word| word.strip_prefix("seed="))?
        .parse()
        .ok()
}

fn load(dir: &str) -> Result<(BTreeMap<String, Workload>, usize), String> {
    let mut runs = BTreeMap::<String, Workload>::new();
    let mut incorrect = 0;
    let read = |p: &Path| std::fs::read_dir(p).map_err(|e| format!("{}: {e}", p.display()));
    for workload in read(Path::new(dir))? {
        let workload = workload.map_err(|e| e.to_string())?.path();
        if !workload.is_dir() {
            continue;
        }
        let name = workload
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        for run in read(&workload)? {
            let run = run.map_err(|e| e.to_string())?.path();
            let text =
                std::fs::read_to_string(&run).map_err(|e| format!("{}: {e}", run.display()))?;
            let last = text
                .lines()
                .rev()
                .find(|l| !l.trim().is_empty())
                .unwrap_or("");
            let result: RunResult = serde_json::from_str(last)
                .map_err(|e| format!("{}: last line is not a result: {e}", run.display()))?;
            if !result.correct {
                incorrect += 1;
            }
            let seed = seed_of(&text);
            let entry = runs.entry(name.clone()).or_default();
            for (metric, value) in result.metrics {
                if let (Some(seed), true) = (seed, QUALITY.contains(&metric.as_str())) {
                    let of_seed = entry.by_seed.entry(seed).or_default();
                    of_seed.entry(metric.clone()).or_default().push(value.value);
                }
                entry.values.entry(metric).or_default().push(value.value);
            }
        }
    }
    Ok((runs, incorrect))
}

fn spread(values: &[f64]) -> (f64, f64, f64, f64) {
    let mid = median(values);
    let (q1, q3) = if values.len() >= 2 {
        quartiles(values)
    } else {
        (mid, mid)
    };
    (mid, q1, q3, (q3 - q1) / mid.abs().max(f64::MIN_POSITIVE))
}

/// How much worse `b` is than `a` as a share of `a` (negative: better).
pub fn worse_by(a: f64, b: f64, better: &str) -> f64 {
    let worse = if better == "higher" { a - b } else { b - a };
    worse / a.abs().max(f64::MIN_POSITIVE)
}

/// The verdict on one bounded metric: B worse than A by more than `bound`,
/// or either set's spread too wide to tell the two apart.
pub fn verdict(worse: f64, spread_a: f64, spread_b: f64, bound: f64) -> &'static str {
    if worse > bound {
        "REGRESSED"
    } else if spread_a > bound || spread_b > bound {
        "UNRESOLVED"
    } else {
        "ok"
    }
}

/// The quality verdict of one workload: the largest worsening over the
/// seeds both sets ran, or `None` without a seed in common.
fn quality_worse(a: &Workload, b: &Workload, metric: &str, better: &str) -> Option<(f64, usize)> {
    let mut worst: Option<(f64, usize)> = None;
    for (seed, values_a) in &a.by_seed {
        let (Some(va), Some(vb)) = (
            values_a.get(metric),
            b.by_seed.get(seed).and_then(|v| v.get(metric)),
        ) else {
            continue;
        };
        let worse = worse_by(median(va), median(vb), better);
        let (max, seeds) = worst.unwrap_or((f64::NEG_INFINITY, 0));
        worst = Some((max.max(worse), seeds + 1));
    }
    worst
}

/// Prints the comparison; `Ok(true)` when every metric holds its bound.
pub fn run(spec: &Spec, dir_a: &str, dir_b: &str) -> Result<bool, String> {
    let (a, incorrect_a) = load(dir_a)?;
    let (b, incorrect_b) = load(dir_b)?;
    let mut pass = incorrect_a == 0 && incorrect_b == 0;
    println!("incorrect runs: A {incorrect_a}, B {incorrect_b}");
    println!(
        "{:<14} {:<16} {:>4} {:>12} {:>12} {:>12} {:>8} {:>4} {:>12} {:>12} {:>12} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "n_a", "median_a", "q1_a", "q3_a", "spread", "n_b", "median_b", "q1_b", "q3_b",
        "spread", "worse", "bound"
    );
    for (workload, runs_a) in &a {
        let Some(runs_b) = b.get(workload) else {
            println!("{workload:<14} missing from B");
            pass = false;
            continue;
        };
        let (metrics_a, metrics_b) = (&runs_a.values, &runs_b.values);
        for metric in &spec.end_to_end {
            let (Some(va), Some(vb)) = (metrics_a.get(&metric.name), metrics_b.get(&metric.name))
            else {
                continue;
            };
            let bound = metric.bound.unwrap_or(0.0);
            let (ma, q1a, q3a, sa) = spread(va);
            let (mb, q1b, q3b, sb) = spread(vb);
            let worse = worse_by(ma, mb, &metric.better);
            let verdict = verdict(worse, sa, sb, bound);
            if verdict != "ok" {
                pass = false;
            }
            println!(
                "{workload:<14} {:<16} {:>4} {ma:>12.4} {q1a:>12.4} {q3a:>12.4} {sa:>8.4} {:>4} {mb:>12.4} {q1b:>12.4} {q3b:>12.4} {sb:>8.4} {worse:>8.4} {bound:>6.3}  {verdict} ({})",
                metric.name,
                va.len(),
                vb.len(),
                metric.unit
            );
        }
        let traced = !runs_a.by_seed.is_empty() || !runs_b.by_seed.is_empty();
        let quality = spec
            .per_layer
            .iter()
            .filter(|m| traced && QUALITY.contains(&m.name.as_str()));
        for metric in quality {
            let line = match quality_worse(runs_a, runs_b, &metric.name, &metric.better) {
                Some((worse, seeds)) => {
                    let verdict = verdict(worse, 0.0, 0.0, 0.0);
                    if verdict != "ok" {
                        pass = false;
                    }
                    format!("worse {worse:>8.4} over {seeds} common seeds, bound 0  {verdict}")
                }
                None => {
                    pass = false;
                    "no traced seed in common  UNRESOLVED".to_string()
                }
            };
            println!("{workload:<14} {:<32} {line}", metric.name);
        }
        // The other per-layer (traced) metrics carry no bound: list them, and
        // set the traced end-to-end numbers against the other set's
        // untraced ones.
        for (metric, vb) in metrics_b.iter().filter(|(m, _)| m.contains('.')) {
            let (mb, q1b, q3b, sb) = spread(vb);
            let overhead = metric
                .strip_prefix("trace.")
                .and_then(|plain| metrics_a.get(plain))
                .map(|va| format!("  tracing overhead {:+.4}", mb - median(va)))
                .unwrap_or_default();
            println!(
                "{workload:<14} {metric:<32} n={:<3} median {mb:>12.4} q1 {q1b:>12.4} q3 {q3b:>12.4} spread {sb:>8.4}{overhead}",
                vb.len()
            );
        }
    }
    println!("{}", if pass { "PASS" } else { "FAIL" });
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_follows_the_better_direction() {
        assert!((worse_by(100.0, 110.0, "lower") - 0.1).abs() < 1e-12);
        assert!((worse_by(100.0, 110.0, "higher") + 0.1).abs() < 1e-12);
        assert!((worse_by(10.0, 9.0, "higher") - 0.1).abs() < 1e-12);
    }

    #[test]
    fn spread_is_the_quartile_distance_over_the_median() {
        let (mid, q1, q3, s) = spread(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((mid, q1, q3), (3.0, 1.5, 4.5));
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn every_bounded_metric_follows_one_rule() {
        assert_eq!(verdict(0.30, 0.1, 0.1, 0.25), "REGRESSED");
        assert_eq!(verdict(0.0, 0.1, 0.35, 0.25), "UNRESOLVED");
        assert_eq!(verdict(0.10, 0.2, 0.2, 0.25), "ok");
        // Bound 0: any worsening regresses, an equal value holds.
        assert_eq!(verdict(1e-9, 0.0, 0.0, 0.0), "REGRESSED");
        assert_eq!(verdict(0.0, 0.0, 0.0, 0.0), "ok");
    }

    #[test]
    fn quality_is_compared_seed_by_seed() {
        let set = |runs: &[(u64, f64)]| {
            let mut w = Workload::default();
            for &(seed, v) in runs {
                let of_seed = w.by_seed.entry(seed).or_default();
                of_seed.entry(QUALITY[0].to_string()).or_default().push(v);
            }
            w
        };
        let a = set(&[(1, 0.8), (2, 0.6)]);
        // Seed 3 has no counterpart in A and is not compared.
        let same = set(&[(1, 0.8), (2, 0.6), (3, 0.1)]);
        assert_eq!(
            quality_worse(&a, &same, QUALITY[0], "higher"),
            Some((0.0, 2))
        );
        let dropped = set(&[(1, 0.8), (2, 0.3)]);
        assert_eq!(
            quality_worse(&a, &dropped, QUALITY[0], "higher"),
            Some((0.5, 2))
        );
        assert_eq!(
            quality_worse(&a, &set(&[(9, 0.9)]), QUALITY[0], "higher"),
            None
        );
        assert_eq!(
            seed_of("pxbench paper_mix seed=42 seconds=16\n{}"),
            Some(42)
        );
    }
}
