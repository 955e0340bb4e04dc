//! The retained naive trainers — the test oracles for the sweep-based split
//! finder ([`crate::split`]) and the columnar Relief ([`crate::relief`]).
//!
//! Everything here is the pre-sweep implementation, kept verbatim (modulo
//! the shared NaN-as-missing rule): candidate atoms are materialised
//! explicitly and every candidate rescans all instances
//! ([`evaluate_atom`]), i.e. O(d·n) per attribute; Relief scans row-at-a-time
//! through per-cell enum dispatch.  The production sweep must return
//! bit-identical winners — `tests/properties.rs` (workspace root) and the
//! unit tests of [`crate::split`] prove that on randomized datasets and on
//! a 1,908-row training set of the blocked synthetic log.
//!
//! Compiled only for this crate's own tests (`cfg(test)`) or under the
//! off-by-default `oracle` feature; never part of a production build.

use crate::dataset::{AttrKind, AttrValue, Dataset};
use crate::entropy::{information_gain, CellCounts};
use crate::relief::{diff, ReliefConfig};
use crate::split::{SplitCandidate, TestAtom, TestConstant, TestOp};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Scores one atom by rescanning every instance — the O(n) inner loop the
/// sweep eliminated.
fn evaluate_atom(data: &Dataset, indices: &[usize], atom: TestAtom) -> SplitCandidate {
    let mut inside = CellCounts::default();
    let mut outside = CellCounts::default();
    for &i in indices {
        let cell = if atom.matches_row(data, i) {
            &mut inside
        } else {
            &mut outside
        };
        cell.record(data.label(i));
    }
    SplitCandidate {
        atom,
        gain: information_gain(inside, outside),
        inside,
        outside,
    }
}

/// The naive per-attribute search: materialise every candidate atom, score
/// each with [`evaluate_atom`], keep the best under the shared comparison.
pub fn best_split_for_attribute_filtered(
    data: &Dataset,
    indices: &[usize],
    attribute: usize,
    allow: impl Fn(&TestAtom) -> bool,
) -> Option<SplitCandidate> {
    let kind = data.attributes()[attribute].kind;
    let mut candidates: Vec<TestAtom> = Vec::new();

    match kind {
        AttrKind::Nominal => {
            let mut seen: Vec<u32> = Vec::new();
            for &i in indices {
                if let AttrValue::Nom(v) = data.value(i, attribute) {
                    if !seen.contains(&v) {
                        seen.push(v);
                    }
                }
            }
            for v in seen {
                candidates.push(TestAtom {
                    attribute,
                    op: TestOp::Eq,
                    constant: TestConstant::Nom(v),
                });
            }
        }
        AttrKind::Numeric => {
            let mut values: Vec<f64> = indices
                .iter()
                .filter_map(|&i| data.value(i, attribute).as_num())
                .filter(|v| !v.is_nan())
                .collect();
            values.sort_by(|a, b| a.partial_cmp(b).expect("NaN values were filtered"));
            values.dedup();
            for window in values.windows(2) {
                let threshold = (window[0] + window[1]) / 2.0;
                candidates.push(TestAtom {
                    attribute,
                    op: TestOp::Le,
                    constant: TestConstant::Num(threshold),
                });
                candidates.push(TestAtom {
                    attribute,
                    op: TestOp::Gt,
                    constant: TestConstant::Num(threshold),
                });
            }
            for v in values {
                // Mirrors the sweep: ±inf orders normally but gets no
                // equality candidate (the relative tolerance degenerates,
                // inverting the predicate).
                if v.is_finite() {
                    candidates.push(TestAtom {
                        attribute,
                        op: TestOp::Eq,
                        constant: TestConstant::Num(v),
                    });
                }
            }
        }
    }

    let mut best: Option<SplitCandidate> = None;
    for atom in candidates {
        if !allow(&atom) {
            continue;
        }
        let candidate = evaluate_atom(data, indices, atom);
        if candidate.inside.total() == 0 {
            continue;
        }
        let better = match &best {
            None => true,
            Some(b) => {
                candidate.gain > b.gain + 1e-12
                    || ((candidate.gain - b.gain).abs() <= 1e-12
                        && candidate.inside.total() > b.inside.total())
            }
        };
        if better {
            best = Some(candidate);
        }
    }
    best
}

/// Unfiltered form of [`best_split_for_attribute_filtered`].
pub fn best_split_for_attribute(
    data: &Dataset,
    indices: &[usize],
    attribute: usize,
) -> Option<SplitCandidate> {
    best_split_for_attribute_filtered(data, indices, attribute, |_| true)
}

/// Per-pair distance: the row-at-a-time scan through per-cell dispatch the
/// columnar Relief replaced.
fn distance(data: &Dataset, ranges: &[Option<(f64, f64)>], i: usize, j: usize) -> f64 {
    let mut total = 0.0;
    for (a, attr) in data.attributes().iter().enumerate() {
        total += diff(attr.kind, data.value(i, a), data.value(j, a), ranges[a]);
    }
    total
}

/// The naive Relief: for each sampled instance, a full O(n·attrs) distance
/// scan for the nearest hit and miss.  Must return weights bit-identical to
/// [`crate::relief::relief_weights`].
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

    let ranges: Vec<Option<(f64, f64)>> = (0..k).map(|a| data.numeric_range(a)).collect();

    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(config.seed);
    order.shuffle(&mut rng);
    let m = config.iterations.clamp(1, n);

    for &i in order.iter().take(m) {
        let mut nearest_hit: Option<(usize, f64)> = None;
        let mut nearest_miss: Option<(usize, f64)> = None;
        for j in 0..n {
            if j == i {
                continue;
            }
            let d = distance(data, &ranges, i, j);
            let slot = if data.label(j) == data.label(i) {
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
        let (Some((hit, _)), Some((miss, _))) = (nearest_hit, nearest_miss) else {
            continue;
        };
        for (a, attr) in data.attributes().iter().enumerate() {
            let d_hit = diff(attr.kind, data.value(i, a), data.value(hit, a), ranges[a]);
            let d_miss = diff(attr.kind, data.value(i, a), data.value(miss, a), ranges[a]);
            weights[a] += (d_miss - d_hit) / m as f64;
        }
    }
    weights
}
