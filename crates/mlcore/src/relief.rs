//! The Relief feature-estimation algorithm.
//!
//! The RuleOfThumb baseline (Section 5.1 of the paper) ranks features by how
//! much impact they have on job runtime "in general"; the paper uses the
//! Relief technique (Robnik-Šikonja & Kononenko) because it handles numeric
//! and nominal attributes as well as missing values.
//!
//! This is the classic two-class Relief: for `m` randomly sampled instances,
//! find the nearest *hit* (same class) and nearest *miss* (other class) and
//! update each attribute weight by `diff(a, x, miss)/m - diff(a, x, hit)/m`,
//! where `diff` is the per-attribute distance contribution.  Missing values
//! — including NaN cells, which the trainers treat as missing — are handled
//! by assigning a neutral difference of `0.5`, a common simplification of
//! Kononenko's probabilistic treatment.
//!
//! # Columnar, parallel scan
//!
//! The distance scans run **attribute-major** over contiguous typed column
//! slices ([`Dataset::column_cells`]): per attribute the kernel is a flat
//! `f64`/`u32` loop with the attribute kind and normalisation span resolved
//! once — no per-cell enum dispatch — and the per-instance distances
//! accumulate in attribute order, so every sum is bit-identical to the
//! row-at-a-time scan it replaced (`oracle::relief_weights`, the
//! retained test oracle).  The `m` sampled instances are independent, so on
//! multi-core machines they fan out over the shared worker pool
//! ([`WorkerPool::map_chunks_gated`](crate::pool::WorkerPool::map_chunks_gated))
//! once the scan reaches [`MIN_FAN_OUT_WORK`](crate::pool::MIN_FAN_OUT_WORK)
//! (sample × instance × attribute) distance cells; weight updates are
//! applied serially in sample order afterwards, keeping the result
//! independent of the fan-out.

use crate::dataset::{AttrKind, AttrValue, ColumnCells, Dataset, NO_NOMINAL};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Configuration of the Relief run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReliefConfig {
    /// Number of sampled instances (`m`).  Clamped to the dataset size.
    pub iterations: usize,
    /// Seed for the instance sampler, for reproducible rankings.
    pub seed: u64,
}

impl Default for ReliefConfig {
    fn default() -> Self {
        ReliefConfig {
            iterations: 250,
            seed: 0x5eed,
        }
    }
}

/// NaN cells are missing values to the trainers.
fn normalize(value: AttrValue) -> AttrValue {
    match value {
        AttrValue::Num(x) if x.is_nan() => AttrValue::Missing,
        other => other,
    }
}

/// Per-attribute difference in `[0, 1]`.  Shared by the mixed-column
/// fallback here and by the naive oracle, so the two implementations can
/// only diverge in structure, never in cell arithmetic.
pub(crate) fn diff(kind: AttrKind, a: AttrValue, b: AttrValue, range: Option<(f64, f64)>) -> f64 {
    match (normalize(a), normalize(b)) {
        (AttrValue::Missing, _) | (_, AttrValue::Missing) => 0.5,
        (AttrValue::Num(x), AttrValue::Num(y)) => match kind {
            AttrKind::Numeric => {
                let (lo, hi) = range.unwrap_or((0.0, 0.0));
                let span = hi - lo;
                if span <= f64::EPSILON {
                    0.0
                } else {
                    ((x - y).abs() / span).min(1.0)
                }
            }
            AttrKind::Nominal => {
                if (x - y).abs() <= f64::EPSILON {
                    0.0
                } else {
                    1.0
                }
            }
        },
        (AttrValue::Nom(x), AttrValue::Nom(y)) if x == y => 0.0,
        (AttrValue::Nom(_), AttrValue::Nom(_)) => 1.0,
        // Mixed storage kinds should not happen for a well-formed dataset;
        // treat them as maximally different.
        _ => 1.0,
    }
}

/// Adds attribute `a`'s contribution against instance `i` to every entry of
/// `dist` — the tight, dispatch-free inner loop of the columnar scan.  The
/// arithmetic mirrors [`diff`] arm for arm.
fn accumulate_column(
    dist: &mut [f64],
    column: &ColumnCells,
    kind: AttrKind,
    span: f64,
    range: Option<(f64, f64)>,
    i: usize,
) {
    match column {
        ColumnCells::Numeric(cells) => {
            let vi = cells[i];
            if vi.is_nan() {
                for d in dist.iter_mut() {
                    *d += 0.5;
                }
                return;
            }
            match kind {
                AttrKind::Numeric if span <= f64::EPSILON => {
                    for (d, &vj) in dist.iter_mut().zip(cells) {
                        *d += if vj.is_nan() { 0.5 } else { 0.0 };
                    }
                }
                AttrKind::Numeric => {
                    for (d, &vj) in dist.iter_mut().zip(cells) {
                        *d += if vj.is_nan() {
                            0.5
                        } else {
                            ((vi - vj).abs() / span).min(1.0)
                        };
                    }
                }
                AttrKind::Nominal => {
                    for (d, &vj) in dist.iter_mut().zip(cells) {
                        *d += if vj.is_nan() {
                            0.5
                        } else if (vi - vj).abs() <= f64::EPSILON {
                            0.0
                        } else {
                            1.0
                        };
                    }
                }
            }
        }
        ColumnCells::Nominal(cells) => {
            let ci = cells[i];
            if ci == NO_NOMINAL {
                for d in dist.iter_mut() {
                    *d += 0.5;
                }
                return;
            }
            for (d, &cj) in dist.iter_mut().zip(cells) {
                *d += if cj == NO_NOMINAL {
                    0.5
                } else if cj == ci {
                    0.0
                } else {
                    1.0
                };
            }
        }
        ColumnCells::Mixed(cells) => {
            let vi = cells[i];
            for (d, &vj) in dist.iter_mut().zip(cells) {
                *d += diff(kind, vi, vj, range);
            }
        }
    }
}

/// The scalar form of [`accumulate_column`], used for the weight updates of
/// the selected neighbours.
fn column_diff(
    column: &ColumnCells,
    kind: AttrKind,
    range: Option<(f64, f64)>,
    i: usize,
    j: usize,
) -> f64 {
    match column {
        ColumnCells::Numeric(cells) => diff(kind, num_cell(cells[i]), num_cell(cells[j]), range),
        ColumnCells::Nominal(cells) => diff(kind, nom_cell(cells[i]), nom_cell(cells[j]), range),
        ColumnCells::Mixed(cells) => diff(kind, cells[i], cells[j], range),
    }
}

fn num_cell(v: f64) -> AttrValue {
    if v.is_nan() {
        AttrValue::Missing
    } else {
        AttrValue::Num(v)
    }
}

fn nom_cell(id: u32) -> AttrValue {
    if id == NO_NOMINAL {
        AttrValue::Missing
    } else {
        AttrValue::Nom(id)
    }
}

/// Finds the nearest hit and miss of instance `i` over the typed columns.
/// `dist` is the caller's scratch buffer, reused across instances.
/// Distances accumulate attribute-major in schema order, so every per-pair
/// sum is bit-identical to the row-at-a-time scan; the selection keeps the
/// first strict minimum per class, also exactly as before.
#[allow(clippy::too_many_arguments)]
fn nearest_hit_miss(
    columns: &[ColumnCells],
    kinds: &[AttrKind],
    spans: &[f64],
    ranges: &[Option<(f64, f64)>],
    labels: &[bool],
    dist: &mut Vec<f64>,
    i: usize,
) -> Option<(usize, usize)> {
    let n = labels.len();
    dist.clear();
    dist.resize(n, 0.0);
    for (a, column) in columns.iter().enumerate() {
        accumulate_column(dist, column, kinds[a], spans[a], ranges[a], i);
    }

    let mut nearest_hit: Option<(usize, f64)> = None;
    let mut nearest_miss: Option<(usize, f64)> = None;
    for (j, (&d, &label)) in dist.iter().zip(labels).enumerate() {
        if j == i {
            continue;
        }
        let slot = if label == labels[i] {
            &mut nearest_hit
        } else {
            &mut nearest_miss
        };
        let closer = match slot {
            None => true,
            Some((_, best)) => d < *best,
        };
        if closer {
            *slot = Some((j, d));
        }
    }
    match (nearest_hit, nearest_miss) {
        (Some((hit, _)), Some((miss, _))) => Some((hit, miss)),
        _ => None,
    }
}

/// Runs Relief and returns one weight per attribute (same order as the
/// dataset schema).  Higher weights indicate more relevant attributes.
///
/// Returns a vector of zeros when the dataset has fewer than two instances or
/// only a single class.
pub fn relief_weights(data: &Dataset, config: ReliefConfig) -> Vec<f64> {
    let n = data.len();
    let k = data.num_attributes();
    let mut weights = vec![0.0; k];
    if n < 2 {
        return weights;
    }
    let positives = data.num_positive();
    if positives == 0 || positives == n {
        return weights;
    }

    // Resolved once per run: ranges/spans, attribute kinds, and the typed
    // contiguous columns the kernels scan.
    let ranges: Vec<Option<(f64, f64)>> = (0..k).map(|a| data.numeric_range(a)).collect();
    let spans: Vec<f64> = ranges
        .iter()
        .map(|r| r.map_or(0.0, |(lo, hi)| hi - lo))
        .collect();
    let kinds: Vec<AttrKind> = data.attributes().iter().map(|a| a.kind).collect();
    let columns: Vec<ColumnCells> = (0..k).map(|a| data.column_cells(a)).collect();
    let labels = data.labels();

    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(config.seed);
    order.shuffle(&mut rng);
    let m = config.iterations.clamp(1, n);
    let sampled = &order[..m];

    // The O(m·n·attrs) part: nearest hit/miss per sampled instance,
    // independent across instances, fanned out on large runs.
    let scan_chunk = |chunk: &[usize]| -> Vec<Option<(usize, usize)>> {
        let mut dist: Vec<f64> = Vec::new();
        chunk
            .iter()
            .map(|&i| nearest_hit_miss(&columns, &kinds, &spans, &ranges, labels, &mut dist, i))
            .collect()
    };
    let neighbours: Vec<Option<(usize, usize)>> = crate::pool::shared()
        .map_chunks_gated(
            sampled,
            m.saturating_mul(n).saturating_mul(k.max(1)),
            scan_chunk,
        )
        .concat();

    // Weight updates in sample order: bit-identical to the serial loop no
    // matter how the scan above was chunked.
    for (&i, neighbour) in sampled.iter().zip(&neighbours) {
        let Some((hit, miss)) = *neighbour else {
            continue;
        };
        for (a, weight) in weights.iter_mut().enumerate() {
            let d_hit = column_diff(&columns[a], kinds[a], ranges[a], i, hit);
            let d_miss = column_diff(&columns[a], kinds[a], ranges[a], i, miss);
            *weight += (d_miss - d_hit) / m as f64;
        }
    }
    weights
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Attribute;
    use rand::RngExt;

    /// Builds a dataset where attribute 0 fully determines the label,
    /// attribute 1 is random noise and attribute 2 is constant.
    fn informative_dataset(seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ds = Dataset::new(vec![
            Attribute::numeric("signal"),
            Attribute::numeric("noise"),
            Attribute::numeric("constant"),
        ]);
        for _ in 0..120 {
            let signal: f64 = rng.random_range(0.0..1.0);
            let noise: f64 = rng.random_range(0.0..1.0);
            ds.push(
                vec![
                    AttrValue::Num(signal),
                    AttrValue::Num(noise),
                    AttrValue::Num(42.0),
                ],
                signal > 0.5,
            );
        }
        ds
    }

    #[test]
    fn signal_outranks_noise_and_constant() {
        let ds = informative_dataset(7);
        let weights = relief_weights(&ds, ReliefConfig::default());
        assert!(weights[0] > weights[1], "weights: {weights:?}");
        assert!(weights[0] > weights[2], "weights: {weights:?}");
    }

    #[test]
    fn nominal_signal_is_detected() {
        let mut ds = Dataset::new(vec![
            Attribute::nominal("script"),
            Attribute::nominal("junk"),
        ]);
        let filter = ds.attribute_mut(0).dictionary.intern("filter.pig");
        let group = ds.attribute_mut(0).dictionary.intern("groupby.pig");
        let junk_a = ds.attribute_mut(1).dictionary.intern("a");
        let junk_b = ds.attribute_mut(1).dictionary.intern("b");
        for i in 0..60 {
            let script = if i % 2 == 0 { filter } else { group };
            let junk = if i % 3 == 0 { junk_a } else { junk_b };
            ds.push(
                vec![AttrValue::Nom(script), AttrValue::Nom(junk)],
                script == filter,
            );
        }
        let weights = relief_weights(&ds, ReliefConfig::default());
        assert!(weights[0] > weights[1], "weights: {weights:?}");
    }

    #[test]
    fn degenerate_datasets_return_zero_weights() {
        let mut single_class = Dataset::new(vec![Attribute::numeric("x")]);
        for i in 0..5 {
            single_class.push(vec![AttrValue::Num(i as f64)], true);
        }
        assert_eq!(
            relief_weights(&single_class, ReliefConfig::default()),
            vec![0.0]
        );

        let tiny = Dataset::new(vec![Attribute::numeric("x")]);
        assert_eq!(relief_weights(&tiny, ReliefConfig::default()), vec![0.0]);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let ds = informative_dataset(11);
        let a = relief_weights(
            &ds,
            ReliefConfig {
                iterations: 60,
                seed: 3,
            },
        );
        let b = relief_weights(
            &ds,
            ReliefConfig {
                iterations: 60,
                seed: 3,
            },
        );
        assert_eq!(a, b);
    }

    #[test]
    fn missing_values_do_not_panic() {
        let mut ds = Dataset::new(vec![Attribute::numeric("x"), Attribute::numeric("y")]);
        for i in 0..30 {
            let x = if i % 5 == 0 {
                AttrValue::Missing
            } else {
                AttrValue::Num(i as f64)
            };
            ds.push(vec![x, AttrValue::Num((i % 2) as f64)], i % 2 == 0);
        }
        let weights = relief_weights(&ds, ReliefConfig::default());
        assert_eq!(weights.len(), 2);
        assert!(weights.iter().all(|w| w.is_finite()));
    }

    #[test]
    fn nan_cells_behave_exactly_like_missing() {
        let make = |nan: bool| {
            let mut ds = Dataset::new(vec![Attribute::numeric("x"), Attribute::numeric("y")]);
            for i in 0..40 {
                let x = if i % 5 == 0 {
                    if nan {
                        AttrValue::Num(f64::NAN)
                    } else {
                        AttrValue::Missing
                    }
                } else {
                    AttrValue::Num(i as f64)
                };
                ds.push(vec![x, AttrValue::Num((i % 3) as f64)], i % 2 == 0);
            }
            ds
        };
        let with_nan = relief_weights(&make(true), ReliefConfig::default());
        let with_missing = relief_weights(&make(false), ReliefConfig::default());
        assert_eq!(with_nan, with_missing);
        assert!(with_nan.iter().all(|w| w.is_finite()));
    }

    #[test]
    fn columnar_weights_match_the_naive_oracle() {
        // Numeric-only, nominal-only and mixed datasets, with missing
        // cells: the columnar attribute-major scan must be bit-identical
        // to the retained row-at-a-time oracle.
        let mut mixed = Dataset::new(vec![
            Attribute::numeric("size"),
            Attribute::nominal("script"),
            Attribute::numeric("noise"),
        ]);
        let a = mixed.attribute_mut(1).dictionary.intern("a.pig");
        let b = mixed.attribute_mut(1).dictionary.intern("b.pig");
        for i in 0..50 {
            let size = if i % 7 == 0 {
                AttrValue::Missing
            } else {
                AttrValue::Num((i % 11) as f64)
            };
            let script = if i % 2 == 0 {
                AttrValue::Nom(a)
            } else {
                AttrValue::Nom(b)
            };
            mixed.push(
                vec![size, script, AttrValue::Num((i % 5) as f64)],
                i % 3 == 0,
            );
        }
        for config in [
            ReliefConfig::default(),
            ReliefConfig {
                iterations: 7,
                seed: 99,
            },
        ] {
            assert_eq!(
                relief_weights(&mixed, config),
                crate::oracle::relief_weights(&mixed, config),
            );
        }
        let informative = informative_dataset(23);
        assert_eq!(
            relief_weights(&informative, ReliefConfig::default()),
            crate::oracle::relief_weights(&informative, ReliefConfig::default()),
        );
    }
}
