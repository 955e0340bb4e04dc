//! Per-attribute best-predicate (split) search.
//!
//! For a given attribute the search considers atomic tests of the form
//! `attribute op constant`:
//!
//! * nominal attributes: equality with each observed dictionary value
//!   (`= v`), as in the paper ("for nominal attributes, the only operator it
//!   considers is equality");
//! * numeric attributes: `<= t` and `> t` for C4.5-style candidate thresholds
//!   (mid-points between consecutive distinct observed values), plus equality
//!   with each distinct value so that explanations such as
//!   `numinstances <= 12` and `blocksize = 256MB` can both be produced.
//!
//! Instances with a missing value for the attribute never satisfy a test on
//! that attribute; they count toward the "outside" partition, mirroring how
//! PerfXplain treats non-applicable comparison features.  NaN feature values
//! are treated as missing: they satisfy no comparison and contribute no
//! candidate.
//!
//! # The sweep
//!
//! The search is a **single-sort sweep**: the present values are sorted once
//! (O(n log n)), and every candidate test is then scored in O(1) from running
//! prefix [`CellCounts`] — `<= t` partitions are prefixes of the sorted
//! order, `> t` partitions are their complements, and `= v` partitions are
//! the (almost always single-value) band of distinct values within the
//! equality tolerance of `v`.  Total cost per (node, attribute) is
//! O(n log n + d) for d candidate tests, where the naive evaluator rescanned
//! all n instances per candidate, i.e. O(d·n) — quadratic on continuous
//! attributes such as runtimes, where d grows with n.
//!
//! The sweep visits candidates in the exact order the naive evaluator did
//! (all `<= / >` thresholds in ascending order, then all equalities in
//! ascending order) and applies the same better-than comparison, so the
//! winning [`SplitCandidate`] — gain, counts and tie-breaks included — is
//! bit-identical.  The retained naive implementation
//! ([`crate::oracle`], compiled for tests only) is the proptest oracle for
//! that equivalence.

use crate::dataset::{AttrKind, AttrValue, Dataset};
use crate::entropy::{information_gain, CellCounts};
use crate::hash::FxHashMap;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Operator of an atomic test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TestOp {
    /// Equality (numeric or nominal).
    Eq,
    /// `<=` on a numeric attribute.
    Le,
    /// `>` on a numeric attribute.
    Gt,
}

impl fmt::Display for TestOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TestOp::Eq => write!(f, "="),
            TestOp::Le => write!(f, "<="),
            TestOp::Gt => write!(f, ">"),
        }
    }
}

/// The constant of an atomic test.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TestConstant {
    /// Numeric threshold or value.
    Num(f64),
    /// Interned nominal value.
    Nom(u32),
}

/// An atomic test `attribute op constant`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TestAtom {
    /// Index of the attribute in the dataset schema.
    pub attribute: usize,
    /// Operator.
    pub op: TestOp,
    /// Constant.
    pub constant: TestConstant,
}

impl TestAtom {
    /// Evaluates the test on a single value of the attribute.
    /// Missing values never satisfy a test.
    pub fn matches_value(&self, value: AttrValue) -> bool {
        match (self.op, self.constant, value) {
            (_, _, AttrValue::Missing) => false,
            (TestOp::Eq, TestConstant::Num(c), AttrValue::Num(v)) => {
                (v - c).abs() <= f64::EPSILON * c.abs().max(1.0)
            }
            (TestOp::Le, TestConstant::Num(c), AttrValue::Num(v)) => v <= c,
            (TestOp::Gt, TestConstant::Num(c), AttrValue::Num(v)) => v > c,
            (TestOp::Eq, TestConstant::Nom(c), AttrValue::Nom(v)) => v == c,
            // Type mismatches (e.g. numeric test against a nominal value)
            // never match; they indicate schema drift, not an error.
            _ => false,
        }
    }

    /// Evaluates the test on row `i` of `data`.
    pub fn matches_row(&self, data: &Dataset, i: usize) -> bool {
        self.matches_value(data.value(i, self.attribute))
    }

    /// Renders the test against a dataset schema (resolving nominal values).
    pub fn display<'a>(&'a self, data: &'a Dataset) -> TestAtomDisplay<'a> {
        TestAtomDisplay { atom: self, data }
    }
}

/// Helper for rendering a [`TestAtom`] with resolved attribute and value
/// names.
pub struct TestAtomDisplay<'a> {
    atom: &'a TestAtom,
    data: &'a Dataset,
}

impl fmt::Display for TestAtomDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let attr = &self.data.attributes()[self.atom.attribute];
        write!(f, "{} {} ", attr.name, self.atom.op)?;
        match self.atom.constant {
            TestConstant::Num(v) => write!(f, "{v}"),
            TestConstant::Nom(id) => {
                write!(f, "{}", attr.dictionary.resolve(id).unwrap_or("<unknown>"))
            }
        }
    }
}

/// A candidate split: the best atomic test found for one attribute together
/// with its information gain and the partition counts it induces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitCandidate {
    /// The winning test.
    pub atom: TestAtom,
    /// Information gain of the test over the considered instances.
    pub gain: f64,
    /// Counts of instances satisfying the test.
    pub inside: CellCounts,
    /// Counts of instances not satisfying the test (including missing).
    pub outside: CellCounts,
}

/// The running winner of the candidate visit order.  Replacement requires a
/// gain strictly above `best + 1e-12`, or a within-tolerance tie broken by a
/// strictly larger inside partition — the exact comparison the naive
/// evaluator applied, so the sweep's winner (ties included) is bit-identical
/// to the oracle's.
struct RunningBest {
    best: Option<SplitCandidate>,
}

impl RunningBest {
    fn new() -> Self {
        RunningBest { best: None }
    }

    /// Scores one candidate partition and keeps it if it beats the running
    /// best.  A vacuous test (matching nothing) can never be part of an
    /// applicable explanation and is skipped.
    fn offer(&mut self, atom: TestAtom, inside: CellCounts, outside: CellCounts) {
        if inside.total() == 0 {
            return;
        }
        let gain = information_gain(inside, outside);
        let better = match &self.best {
            None => true,
            Some(b) => {
                gain > b.gain + 1e-12
                    || ((gain - b.gain).abs() <= 1e-12 && inside.total() > b.inside.total())
            }
        };
        if better {
            self.best = Some(SplitCandidate {
                atom,
                gain,
                inside,
                outside,
            });
        }
    }
}

/// The contiguous range of distinct sorted values matching an equality test
/// centered on the finite value `distinct[i]`, found with the exact
/// [`TestAtom::matches_value`] predicate (the band is contiguous because f64
/// subtraction is monotone in its first operand, and a finite center always
/// matches itself: `|c - c| = 0 <= eps`).  The band is almost always
/// `[i, i]`; it widens only when adjacent distinct values sit within the
/// equality tolerance.
fn eq_band(distinct: &[f64], i: usize, atom: &TestAtom) -> (usize, usize) {
    let matches = |v: f64| atom.matches_value(AttrValue::Num(v));
    let mut lo = i;
    while lo > 0 && matches(distinct[lo - 1]) {
        lo -= 1;
    }
    let mut hi = i;
    while hi + 1 < distinct.len() && matches(distinct[hi + 1]) {
        hi += 1;
    }
    (lo, hi)
}

/// The numeric sweep: sort the present values once, then score every
/// threshold and equality candidate in O(1) from prefix counts.
fn sweep_numeric(
    data: &Dataset,
    indices: &[usize],
    attribute: usize,
    allow: &impl Fn(&TestAtom) -> bool,
) -> Option<SplitCandidate> {
    // One pass: class counts over every instance (missing, NaN and
    // type-mismatched cells satisfy no numeric test — they are permanent
    // "outside" members) plus the present `(value, label)` pairs.
    let mut total = CellCounts::default();
    let mut values: Vec<(f64, bool)> = Vec::with_capacity(indices.len());
    for &i in indices {
        let label = data.label(i);
        total.record(label);
        if let AttrValue::Num(v) = data.value(i, attribute) {
            if !v.is_nan() {
                values.push((v, label));
            }
        }
    }
    if values.is_empty() {
        return None;
    }
    // The single sort.  Stable, so values comparing equal (-0.0 vs 0.0)
    // keep index order and the distinct list retains the first-seen
    // representative — the same constant the naive sort+dedup kept.
    values.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("NaN values were filtered"));

    // Distinct values with per-value class counts and running prefix
    // counts: `prefix[j]` covers `distinct[..j]`.
    let mut distinct: Vec<f64> = Vec::new();
    let mut cells: Vec<CellCounts> = Vec::new();
    for &(v, label) in &values {
        if distinct.last().is_none_or(|&last| last != v) {
            distinct.push(v);
            cells.push(CellCounts::default());
        }
        cells.last_mut().expect("just pushed").record(label);
    }
    let k = distinct.len();
    let mut prefix: Vec<CellCounts> = Vec::with_capacity(k + 1);
    prefix.push(CellCounts::default());
    for cell in &cells {
        prefix.push(prefix.last().copied().expect("seeded").plus(*cell));
    }
    let present = prefix[k];

    let mut best = RunningBest::new();

    // Phase 1: the mid-point thresholds, in ascending order (the naive
    // candidate order).  Mid-points are non-decreasing, so one pointer
    // (`below` = number of distinct values <= current threshold) advances
    // monotonically across the whole phase.
    let mut below = 0usize;
    // Bookkeeping for the redundant-equality suppression in phase 2: the
    // prefix length of the first `<=` partition and the suffix start of the
    // last `>` partition, recorded only when that twin was actually scored
    // (allowed and non-vacuous).
    let mut first_le_prefix = None;
    let mut last_gt_suffix = None;
    for i in 0..k.saturating_sub(1) {
        let threshold = (distinct[i] + distinct[i + 1]) / 2.0;
        if threshold.is_nan() {
            // Only adjacent -inf/+inf values produce a NaN mid-point; both
            // tests on it are vacuous (nothing compares against NaN), so
            // the naive evaluator skipped them too.
            continue;
        }
        while below < k && distinct[below] <= threshold {
            below += 1;
        }
        let le = TestAtom {
            attribute,
            op: TestOp::Le,
            constant: TestConstant::Num(threshold),
        };
        if allow(&le) {
            if i == 0 {
                // Never vacuous: the mid-point is >= distinct[0].
                first_le_prefix = Some(below);
            }
            best.offer(le, prefix[below], total.minus(prefix[below]));
        }
        let gt = TestAtom {
            attribute,
            op: TestOp::Gt,
            constant: TestConstant::Num(threshold),
        };
        if allow(&gt) {
            if i == k - 2 && below < k {
                // `below == k` would make the `>` side vacuous (the
                // mid-point rounded up onto the last value): not a twin.
                last_gt_suffix = Some(below);
            }
            let inside = present.minus(prefix[below]);
            best.offer(gt, inside, total.minus(inside));
        }
    }

    // Phase 2: the equality candidates, in ascending order.  Non-finite
    // values take part in the ordering (every `Le`/`Gt` above treats them
    // normally) but produce no equality candidate: the relative tolerance
    // degenerates on ±inf (`eps = inf`, so `= inf` would match every
    // *finite* value and not inf itself — an inverted predicate no
    // explanation should ever state).
    for i in 0..k {
        if !distinct[i].is_finite() {
            continue;
        }
        let atom = TestAtom {
            attribute,
            op: TestOp::Eq,
            constant: TestConstant::Num(distinct[i]),
        };
        let (lo, hi) = eq_band(&distinct, i, &atom);
        // Redundant-equality suppression: an `=` candidate whose inside
        // rows are exactly those of an already-scored adjacent mid-point
        // (`<=` over the same leading band, or `>` over the same trailing
        // band) carries the identical gain and counts, so under the
        // strictly-better replacement rule it can never displace anything
        // its twin could not — skip it without scoring.
        if (lo == 0 && first_le_prefix == Some(hi + 1))
            || (hi + 1 == k && last_gt_suffix == Some(lo))
        {
            continue;
        }
        if allow(&atom) {
            let inside = prefix[hi + 1].minus(prefix[lo]);
            best.offer(atom, inside, total.minus(inside));
        }
    }
    best.best
}

/// The nominal sweep: one counting pass (FxHash-deduplicated, first-seen
/// candidate order preserved), then O(1) scoring per distinct value.
fn sweep_nominal(
    data: &Dataset,
    indices: &[usize],
    attribute: usize,
    allow: &impl Fn(&TestAtom) -> bool,
) -> Option<SplitCandidate> {
    let mut total = CellCounts::default();
    let mut order: Vec<u32> = Vec::new();
    let mut counts: FxHashMap<u32, CellCounts> = FxHashMap::default();
    for &i in indices {
        let label = data.label(i);
        total.record(label);
        if let AttrValue::Nom(v) = data.value(i, attribute) {
            match counts.get_mut(&v) {
                Some(cell) => cell.record(label),
                None => {
                    let mut cell = CellCounts::default();
                    cell.record(label);
                    counts.insert(v, cell);
                    order.push(v);
                }
            }
        }
    }
    let mut best = RunningBest::new();
    for v in order {
        let atom = TestAtom {
            attribute,
            op: TestOp::Eq,
            constant: TestConstant::Nom(v),
        };
        if allow(&atom) {
            let inside = *counts.get(&v).expect("counted above");
            best.offer(atom, inside, total.minus(inside));
        }
    }
    best.best
}

/// Finds the atomic test on `attribute` with the highest information gain
/// over the instances listed in `indices`.
///
/// Returns `None` when the attribute has no observed (non-missing, non-NaN)
/// values among the instances, or when every candidate test is vacuous or
/// filtered out.
pub fn best_split_for_attribute(
    data: &Dataset,
    indices: &[usize],
    attribute: usize,
) -> Option<SplitCandidate> {
    best_split_for_attribute_filtered(data, indices, attribute, |_| true)
}

/// Like [`best_split_for_attribute`] but only considers candidate tests
/// accepted by `allow`.
///
/// PerfXplain uses the filter to enforce *applicability*: an explanation must
/// hold for the pair of interest, so only tests that the pair of interest
/// satisfies are eligible.  The filter is threaded through the sweep itself,
/// so the greedy explanation loop pays O(n log n + d) per attribute exactly
/// like the unfiltered tree search.
pub fn best_split_for_attribute_filtered(
    data: &Dataset,
    indices: &[usize],
    attribute: usize,
    allow: impl Fn(&TestAtom) -> bool,
) -> Option<SplitCandidate> {
    match data.attributes()[attribute].kind {
        AttrKind::Nominal => sweep_nominal(data, indices, attribute, &allow),
        AttrKind::Numeric => sweep_numeric(data, indices, attribute, &allow),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Attribute;

    fn numeric_dataset() -> Dataset {
        // label = x > 5
        let mut ds = Dataset::new(vec![Attribute::numeric("x"), Attribute::numeric("noise")]);
        for i in 0..10 {
            let x = i as f64;
            ds.push(
                vec![AttrValue::Num(x), AttrValue::Num((i % 3) as f64)],
                x > 5.0,
            );
        }
        ds
    }

    fn nominal_dataset() -> Dataset {
        let mut ds = Dataset::new(vec![Attribute::nominal("color")]);
        let red = ds.attribute_mut(0).dictionary.intern("red");
        let blue = ds.attribute_mut(0).dictionary.intern("blue");
        for _ in 0..5 {
            ds.push(vec![AttrValue::Nom(red)], true);
            ds.push(vec![AttrValue::Nom(blue)], false);
        }
        ds
    }

    fn all_indices(ds: &Dataset) -> Vec<usize> {
        (0..ds.len()).collect()
    }

    #[test]
    fn numeric_threshold_is_found() {
        let ds = numeric_dataset();
        let idx = all_indices(&ds);
        let split = best_split_for_attribute(&ds, &idx, 0).expect("split");
        // The perfect threshold lies between 5 and 6.
        match (split.atom.op, split.atom.constant) {
            (TestOp::Gt, TestConstant::Num(t)) => assert!((t - 5.5).abs() < 1e-9),
            (TestOp::Le, TestConstant::Num(t)) => assert!((t - 5.5).abs() < 1e-9),
            other => panic!("unexpected winning atom {other:?}"),
        }
        assert!(split.gain > 0.9);
    }

    #[test]
    fn noise_attribute_has_lower_gain() {
        let ds = numeric_dataset();
        let idx = all_indices(&ds);
        let informative = best_split_for_attribute(&ds, &idx, 0).unwrap();
        let noisy = best_split_for_attribute(&ds, &idx, 1).unwrap();
        assert!(informative.gain > noisy.gain);
    }

    #[test]
    fn nominal_equality_is_found() {
        let ds = nominal_dataset();
        let idx = all_indices(&ds);
        let split = best_split_for_attribute(&ds, &idx, 0).expect("split");
        assert_eq!(split.atom.op, TestOp::Eq);
        assert!(split.gain > 0.99);
        assert_eq!(split.inside.total(), 5);
    }

    #[test]
    fn missing_values_do_not_match() {
        let atom = TestAtom {
            attribute: 0,
            op: TestOp::Le,
            constant: TestConstant::Num(10.0),
        };
        assert!(!atom.matches_value(AttrValue::Missing));
        assert!(atom.matches_value(AttrValue::Num(3.0)));
        assert!(!atom.matches_value(AttrValue::Num(30.0)));
    }

    #[test]
    fn attribute_with_only_missing_values_yields_none() {
        let mut ds = Dataset::new(vec![Attribute::numeric("x")]);
        ds.push(vec![AttrValue::Missing], true);
        ds.push(vec![AttrValue::Missing], false);
        assert!(best_split_for_attribute(&ds, &[0, 1], 0).is_none());
    }

    #[test]
    fn nan_values_are_treated_as_missing() {
        // Once upon a time a single NaN cell panicked the whole service;
        // now NaN behaves exactly like Missing: no candidate is built from
        // it and no test matches it.
        let mut with_nan = Dataset::new(vec![Attribute::numeric("x")]);
        let mut with_missing = Dataset::new(vec![Attribute::numeric("x")]);
        for i in 0..12 {
            let label = i >= 6;
            if i % 4 == 0 {
                with_nan.push(vec![AttrValue::Num(f64::NAN)], label);
                with_missing.push(vec![AttrValue::Missing], label);
            } else {
                with_nan.push(vec![AttrValue::Num(i as f64)], label);
                with_missing.push(vec![AttrValue::Num(i as f64)], label);
            }
        }
        let idx = all_indices(&with_nan);
        let a = best_split_for_attribute(&with_nan, &idx, 0).expect("split");
        let b = best_split_for_attribute(&with_missing, &idx, 0).expect("split");
        assert_eq!(a, b);

        // A column of nothing but NaN yields no candidate at all.
        let mut all_nan = Dataset::new(vec![Attribute::numeric("x")]);
        all_nan.push(vec![AttrValue::Num(f64::NAN)], true);
        all_nan.push(vec![AttrValue::Num(f64::NAN)], false);
        assert!(best_split_for_attribute(&all_nan, &[0, 1], 0).is_none());
    }

    #[test]
    fn infinite_values_produce_no_equality_candidate() {
        // `= inf` degenerates (eps = inf): it would match every *finite*
        // value and not inf itself — an inverted predicate.  With the
        // search restricted to equality tests, the perfectly-separating
        // (but inverted) Eq(inf) must not be offered; a finite equality
        // wins instead, and its partition agrees with its own atom.
        let mut ds = Dataset::new(vec![Attribute::numeric("x")]);
        ds.push(vec![AttrValue::Num(1.0)], false);
        ds.push(vec![AttrValue::Num(2.0)], true);
        ds.push(vec![AttrValue::Num(f64::INFINITY)], true);
        ds.push(vec![AttrValue::Num(f64::NEG_INFINITY)], false);
        let idx = all_indices(&ds);
        let split = best_split_for_attribute_filtered(&ds, &idx, 0, |atom| atom.op == TestOp::Eq)
            .expect("a finite equality candidate exists");
        match split.atom.constant {
            TestConstant::Num(c) => assert!(c.is_finite(), "non-finite Eq constant {c}"),
            other => panic!("unexpected constant {other:?}"),
        }
        let inside = idx
            .iter()
            .filter(|&&i| split.atom.matches_row(&ds, i))
            .count();
        assert_eq!(inside, split.inside.total());
        // The ordering tests still see the infinite values: an unrestricted
        // search separates the classes perfectly with a threshold.
        let unrestricted = best_split_for_attribute(&ds, &idx, 0).unwrap();
        assert!(unrestricted.gain > 0.99);
    }

    #[test]
    fn subset_of_indices_is_respected() {
        let ds = numeric_dataset();
        // Only positives considered: any non-vacuous split has zero gain.
        let idx: Vec<usize> = (6..10).collect();
        let split = best_split_for_attribute(&ds, &idx, 0).unwrap();
        assert!(split.gain.abs() < 1e-9);
        assert_eq!(split.inside.total() + split.outside.total(), 4);
    }

    #[test]
    fn filtered_search_respects_the_filter() {
        let ds = numeric_dataset();
        let idx = all_indices(&ds);
        // Only allow equality tests; the perfect threshold split is excluded.
        let split = best_split_for_attribute_filtered(&ds, &idx, 0, |atom| atom.op == TestOp::Eq)
            .expect("split");
        assert_eq!(split.atom.op, TestOp::Eq);
        let unrestricted = best_split_for_attribute(&ds, &idx, 0).unwrap();
        assert!(unrestricted.gain >= split.gain);
        // A filter that rejects everything yields no candidate.
        assert!(best_split_for_attribute_filtered(&ds, &idx, 0, |_| false).is_none());
    }

    #[test]
    fn sweep_matches_the_naive_oracle_on_crafted_cases() {
        // Hand-picked shapes: ties, duplicate runs, missing values, NaN,
        // negative zero, a subset of indices and an equality-only filter.
        let mut ds = Dataset::new(vec![Attribute::numeric("x")]);
        let values = [
            3.0,
            1.0,
            3.0,
            -0.0,
            0.0,
            7.5,
            f64::NAN,
            1.0,
            3.0,
            -2.0,
            7.5,
            7.5,
        ];
        for (i, &v) in values.iter().enumerate() {
            ds.push(vec![AttrValue::Num(v)], i % 3 != 0);
        }
        ds.push(vec![AttrValue::Missing], true);
        let idx = all_indices(&ds);
        assert_eq!(
            best_split_for_attribute(&ds, &idx, 0),
            crate::oracle::best_split_for_attribute(&ds, &idx, 0),
        );
        let subset: Vec<usize> = idx.iter().copied().filter(|i| i % 2 == 0).collect();
        assert_eq!(
            best_split_for_attribute(&ds, &subset, 0),
            crate::oracle::best_split_for_attribute(&ds, &subset, 0),
        );
        let allow = |atom: &TestAtom| atom.matches_value(AttrValue::Num(3.0));
        assert_eq!(
            best_split_for_attribute_filtered(&ds, &idx, 0, allow),
            crate::oracle::best_split_for_attribute_filtered(&ds, &idx, 0, allow),
        );
    }

    #[test]
    fn display_renders_names() {
        let ds = nominal_dataset();
        let idx = all_indices(&ds);
        let split = best_split_for_attribute(&ds, &idx, 0).unwrap();
        let text = format!("{}", split.atom.display(&ds));
        assert!(text.starts_with("color = "));
    }
}
