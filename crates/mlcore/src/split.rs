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
//! (`oracle`, compiled for tests only) is the proptest oracle for
//! that equivalence.
//!
//! # Summary and replay
//!
//! The sweep runs in two steps, and only the second sees the filter:
//!
//! * [`SplitSummary::new`] is the part that does not depend on it: the
//!   sort, the prefix counts, and every candidate in visit order with its
//!   inside counts and its information gain (a numeric attribute's
//!   thresholds and equalities, a nominal attribute's first-seen ids).
//! * [`SplitSummary::replay`] offers the candidates the filter admits, in
//!   visit order, under the same replacement rule.  It does not take a
//!   prefix maximum: the rule's 1e-12 tie tolerance is not transitive, so
//!   only the sequential offer reproduces the winner.  It also reproduces
//!   the redundant-equality suppression, which skips an equality only when
//!   its `<=` or `>` twin passed the filter.
//!
//! [`best_split_for_attribute_filtered`] is one summary replayed once.  A
//! caller that searches one set of instances under many filters keeps the
//! summary: PerfXplain's clause loop keeps each attribute's summary over a
//! training sample and replays it for every pair of interest, so a search
//! costs one lookup on a nominal attribute
//! ([`SplitSummary::best_applicable_to`]) and one comparison per candidate
//! on a numeric one, with no sort and no gain computed.

use crate::dataset::{AttrKind, AttrValue, Dataset};
use crate::entropy::{CellCounts, GainScorer};
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

/// One scored candidate partition of a [`SplitSummary`]: the instances
/// satisfying the test and the information gain of splitting there.  An
/// empty `inside` marks a vacuous test, which is never offered.
#[derive(Debug, Clone, Copy)]
struct Scored {
    inside: CellCounts,
    gain: f64,
}

/// The running winner of the candidate visit order.  Replacement requires a
/// gain strictly above `best + 1e-12`, or a within-tolerance tie broken by a
/// strictly larger inside partition — the exact comparison the naive
/// evaluator applied, so the sweep's winner (ties included) is bit-identical
/// to the oracle's.
struct RunningBest {
    total: CellCounts,
    best: Option<SplitCandidate>,
}

impl RunningBest {
    fn new(total: CellCounts) -> Self {
        RunningBest { total, best: None }
    }

    /// Keeps one scored candidate if it beats the running best.  A vacuous
    /// test (matching nothing) can never be part of an applicable
    /// explanation and is skipped.
    fn offer(&mut self, atom: TestAtom, scored: Scored) {
        let Scored { inside, gain } = scored;
        if inside.total() == 0 {
            return;
        }
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
                outside: self.total.minus(inside),
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

/// A mid-point threshold of a numeric summary with its `<=` and `>`
/// partitions.
#[derive(Debug, Clone, Copy)]
struct Threshold {
    value: f64,
    le: Scored,
    /// Vacuous when the mid-point rounded up onto the last value.
    gt: Scored,
    /// The mid-point between the two smallest values: its `<=`, once
    /// offered, makes a leading equality band with the same rows redundant.
    first: bool,
    /// The mid-point between the two largest values, with a non-vacuous
    /// `>`: once offered, it makes a trailing equality band redundant.
    last: bool,
}

/// An equality candidate of a numeric summary.
#[derive(Debug, Clone, Copy)]
struct Equality {
    value: f64,
    eq: Scored,
    /// The band's rows are exactly the first threshold's `<=` rows.
    twin_of_first_le: bool,
    /// The band's rows are exactly the last threshold's `>` rows.
    twin_of_last_gt: bool,
}

/// An equality candidate of a nominal summary.
#[derive(Debug, Clone, Copy)]
struct NominalValue {
    id: u32,
    eq: Scored,
}

#[derive(Debug, Clone)]
enum Candidates {
    Numeric {
        thresholds: Vec<Threshold>,
        equalities: Vec<Equality>,
    },
    Nominal {
        /// In first-seen order.
        values: Vec<NominalValue>,
        /// Each id's index in `values`.
        position: FxHashMap<u32, usize>,
    },
}

/// The half of one attribute's sweep that does not depend on the filter:
/// every candidate test over the given instances, in the sweep's visit
/// order, with its inside counts and its information gain (see the module
/// docs).  [`SplitSummary::replay`] is the other half.
#[derive(Debug, Clone)]
pub struct SplitSummary {
    attribute: usize,
    total: CellCounts,
    candidates: Candidates,
}

impl SplitSummary {
    /// Summarises `attribute` over the instances listed in `indices`.
    pub fn new(data: &Dataset, indices: &[usize], attribute: usize) -> Self {
        match data.attributes()[attribute].kind {
            AttrKind::Nominal => summarize_nominal(data, indices, attribute),
            AttrKind::Numeric => summarize_numeric(data, indices, attribute),
        }
    }

    /// The best candidate test accepted by `allow`: the summary's
    /// candidates offered in the sweep's order, with the sweep's
    /// redundant-equality suppression, under the sweep's replacement rule.
    /// `None` when nothing non-vacuous passes the filter.
    pub fn replay(&self, allow: impl Fn(&TestAtom) -> bool) -> Option<SplitCandidate> {
        let mut best = RunningBest::new(self.total);
        match &self.candidates {
            Candidates::Numeric {
                thresholds,
                equalities,
            } => {
                // Whether the suppressing twins were offered: an equality
                // is skipped only when its twin passed the filter.
                let mut first_le = false;
                let mut last_gt = false;
                for t in thresholds {
                    let le = self.atom(TestOp::Le, TestConstant::Num(t.value));
                    if allow(&le) {
                        first_le |= t.first;
                        best.offer(le, t.le);
                    }
                    let gt = self.atom(TestOp::Gt, TestConstant::Num(t.value));
                    if allow(&gt) {
                        last_gt |= t.last;
                        best.offer(gt, t.gt);
                    }
                }
                for e in equalities {
                    if (e.twin_of_first_le && first_le) || (e.twin_of_last_gt && last_gt) {
                        continue;
                    }
                    let atom = self.atom(TestOp::Eq, TestConstant::Num(e.value));
                    if allow(&atom) {
                        best.offer(atom, e.eq);
                    }
                }
            }
            Candidates::Nominal { values, .. } => {
                for v in values {
                    let atom = self.atom(TestOp::Eq, TestConstant::Nom(v.id));
                    if allow(&atom) {
                        best.offer(atom, v.eq);
                    }
                }
            }
        }
        best.best
    }

    /// [`SplitSummary::replay`] under the applicability filter of `value`:
    /// only tests that `value` satisfies.  A nominal attribute admits only
    /// `value`'s own id, so this is one lookup; a numeric one compares
    /// `value` against every candidate.
    pub fn best_applicable_to(&self, value: AttrValue) -> Option<SplitCandidate> {
        match (&self.candidates, value) {
            (Candidates::Nominal { values, position }, AttrValue::Nom(id)) => {
                let v = values[*position.get(&id)?];
                let mut best = RunningBest::new(self.total);
                best.offer(self.atom(TestOp::Eq, TestConstant::Nom(id)), v.eq);
                best.best
            }
            (Candidates::Numeric { .. }, AttrValue::Num(_)) => {
                self.replay(|atom| atom.matches_value(value))
            }
            // No numeric test matches a nominal or missing value, and no
            // nominal test a numeric or missing one.
            _ => None,
        }
    }

    /// The filter checks a replay under the applicability filter makes:
    /// the fan-out size of a search over cached summaries.
    pub fn replay_work(&self) -> usize {
        match &self.candidates {
            Candidates::Numeric {
                thresholds,
                equalities,
            } => 2 * thresholds.len() + equalities.len(),
            Candidates::Nominal { .. } => 1,
        }
    }

    /// Bytes the summary holds on the heap.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        match &self.candidates {
            Candidates::Numeric {
                thresholds,
                equalities,
            } => {
                thresholds.capacity() * size_of::<Threshold>()
                    + equalities.capacity() * size_of::<Equality>()
            }
            Candidates::Nominal { values, position } => {
                values.capacity() * size_of::<NominalValue>()
                    + position.capacity() * (size_of::<(u32, usize)>() + 1)
            }
        }
    }

    fn atom(&self, op: TestOp, constant: TestConstant) -> TestAtom {
        TestAtom {
            attribute: self.attribute,
            op,
            constant,
        }
    }
}

/// The numeric summary: sort the present values once, then score every
/// threshold and equality candidate in O(1) from prefix counts.
fn summarize_numeric(data: &Dataset, indices: &[usize], attribute: usize) -> SplitSummary {
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
    let scorer = GainScorer::new(total);
    let scored = |inside: CellCounts| Scored {
        inside,
        gain: scorer.gain(inside),
    };

    // The mid-point thresholds, in ascending order (the naive candidate
    // order).  Mid-points are non-decreasing, so one pointer (`below` =
    // number of distinct values <= current threshold) advances
    // monotonically across the whole phase.
    let mut thresholds = Vec::with_capacity(k.saturating_sub(1));
    let mut below = 0usize;
    // The prefix length of the first `<=` partition and the suffix start
    // of the last non-vacuous `>` partition, for the equality twins.
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
        let le = scored(prefix[below]);
        let gt_inside = present.minus(prefix[below]);
        let gt = if gt_inside.total() == 0 {
            Scored {
                inside: gt_inside,
                gain: 0.0,
            }
        } else if present == total {
            // With every instance present, `>` is `<=` with the sides
            // swapped, and the gain's sum of the two sides commutes
            // exactly.
            Scored {
                inside: gt_inside,
                gain: le.gain,
            }
        } else {
            scored(gt_inside)
        };
        let first = i == 0;
        // `below == k` would make the `>` side vacuous (the mid-point
        // rounded up onto the last value): not a twin.
        let last = i == k - 2 && below < k;
        if first {
            first_le_prefix = Some(below);
        }
        if last {
            last_gt_suffix = Some(below);
        }
        thresholds.push(Threshold {
            value: threshold,
            le,
            gt,
            first,
            last,
        });
    }

    // The equality candidates, in ascending order.  Non-finite values take
    // part in the ordering (every `Le`/`Gt` above treats them normally) but
    // produce no equality candidate: the relative tolerance degenerates on
    // ±inf (`eps = inf`, so `= inf` would match every *finite* value and
    // not inf itself — an inverted predicate no explanation should ever
    // state).
    let mut equalities = Vec::new();
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
        // rows are exactly those of an adjacent mid-point (`<=` over the
        // same leading band, or `>` over the same trailing band) carries
        // the identical gain and counts, so under the strictly-better
        // replacement rule it can never displace anything its twin could
        // not.  A replay skips it when its twin was offered.
        equalities.push(Equality {
            value: distinct[i],
            eq: scored(prefix[hi + 1].minus(prefix[lo])),
            twin_of_first_le: lo == 0 && first_le_prefix == Some(hi + 1),
            twin_of_last_gt: hi + 1 == k && last_gt_suffix == Some(lo),
        });
    }
    SplitSummary {
        attribute,
        total,
        candidates: Candidates::Numeric {
            thresholds,
            equalities,
        },
    }
}

/// The nominal summary: one counting pass (FxHash-deduplicated, first-seen
/// candidate order preserved), then O(1) scoring per distinct value.
fn summarize_nominal(data: &Dataset, indices: &[usize], attribute: usize) -> SplitSummary {
    let mut total = CellCounts::default();
    let mut values: Vec<NominalValue> = Vec::new();
    let mut position: FxHashMap<u32, usize> = FxHashMap::default();
    for &i in indices {
        let label = data.label(i);
        total.record(label);
        if let AttrValue::Nom(id) = data.value(i, attribute) {
            let at = *position.entry(id).or_insert_with(|| {
                values.push(NominalValue {
                    id,
                    eq: Scored {
                        inside: CellCounts::default(),
                        gain: 0.0,
                    },
                });
                values.len() - 1
            });
            values[at].eq.inside.record(label);
        }
    }
    let scorer = GainScorer::new(total);
    for v in &mut values {
        v.eq.gain = scorer.gain(v.eq.inside);
    }
    SplitSummary {
        attribute,
        total,
        candidates: Candidates::Nominal { values, position },
    }
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
/// accepted by `allow`: a [`SplitSummary`] replayed under the filter.
///
/// PerfXplain uses the filter to enforce *applicability*: an explanation must
/// hold for the pair of interest, so only tests that the pair of interest
/// satisfies are eligible.
pub fn best_split_for_attribute_filtered(
    data: &Dataset,
    indices: &[usize],
    attribute: usize,
    allow: impl Fn(&TestAtom) -> bool,
) -> Option<SplitCandidate> {
    SplitSummary::new(data, indices, attribute).replay(allow)
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

    /// A filter admitting a pseudo-random half of the candidate tests,
    /// fixed by `seed` and the atom.
    fn coin(seed: u64) -> impl Fn(&TestAtom) -> bool {
        move |atom: &TestAtom| {
            let bits = match atom.constant {
                TestConstant::Num(v) => v.to_bits(),
                TestConstant::Nom(id) => id as u64,
            };
            let mut z =
                (seed ^ bits ^ ((atom.op as u64) << 61)).wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) & 1 == 0
        }
    }

    /// One summary replayed under many filters gives, for each, the naive
    /// oracle's filtered search — over ±inf and NaN, -0.0 beside 0.0,
    /// adjacent values within the equality tolerance, and the first and
    /// last thresholds' redundant-equality twins, whether the filter admits
    /// the twin or not.  Under an applicability filter, the one-lookup
    /// replay agrees too.
    #[test]
    fn one_summary_replays_like_a_fresh_sweep_under_every_filter() {
        let twins = [1.0, 2.0, 2.0, 3.0, 4.0, 4.0];
        let edges = [
            f64::NEG_INFINITY,
            -0.0,
            0.0,
            1.0,
            1.0 + f64::EPSILON,
            1.0 + 2.0 * f64::EPSILON,
            7.5,
            f64::NAN,
            f64::INFINITY,
            -0.0,
            7.5,
        ];
        let mut cases: Vec<(Dataset, Vec<AttrValue>)> = Vec::new();
        for values in [&twins[..], &edges[..]] {
            for labels in [0b1010_1100_1011u32, 0b0110_0101_0110] {
                let mut ds = Dataset::new(vec![Attribute::numeric("x")]);
                for (i, &v) in values.iter().enumerate() {
                    ds.push(vec![AttrValue::Num(v)], (labels >> i) & 1 == 1);
                }
                // A missing cell makes `>` differ from `<=` swapped.
                if labels & 1 == 0 {
                    ds.push(vec![AttrValue::Missing], true);
                }
                let mut probes: Vec<AttrValue> =
                    values.iter().map(|&v| AttrValue::Num(v)).collect();
                probes.extend([AttrValue::Missing, AttrValue::Nom(0), AttrValue::Num(2.5)]);
                cases.push((ds, probes));
            }
        }
        let mut nominal = nominal_dataset();
        let green = nominal.attribute_mut(0).dictionary.intern("green");
        nominal.push(vec![AttrValue::Nom(green)], true);
        nominal.push(vec![AttrValue::Missing], false);
        nominal.push(vec![AttrValue::Num(1.0)], false);
        let probes = vec![
            AttrValue::Nom(0),
            AttrValue::Nom(green),
            AttrValue::Nom(9),
            AttrValue::Num(1.0),
            AttrValue::Missing,
        ];
        cases.push((nominal, probes));

        for (ds, probes) in &cases {
            let idx = all_indices(ds);
            let summary = SplitSummary::new(ds, &idx, 0);
            let oracle = |allow: &dyn Fn(&TestAtom) -> bool| {
                crate::oracle::best_split_for_attribute_filtered(ds, &idx, 0, allow)
            };
            let fixed: [fn(&TestAtom) -> bool; 6] = [
                |_| true,
                |_| false,
                |a| a.op == TestOp::Eq,
                |a| a.op != TestOp::Eq,
                |a| a.op != TestOp::Le,
                |a| a.op != TestOp::Gt,
            ];
            for allow in fixed {
                assert_eq!(summary.replay(allow), oracle(&allow));
            }
            for seed in 0..64 {
                let allow = coin(seed);
                assert_eq!(summary.replay(&allow), oracle(&allow), "coin {seed}");
            }
            for &probe in probes {
                let allow = |atom: &TestAtom| atom.matches_value(probe);
                let expected = oracle(&allow);
                assert_eq!(summary.replay(allow), expected, "probe {probe:?}");
                assert_eq!(
                    summary.best_applicable_to(probe),
                    expected,
                    "probe {probe:?}"
                );
            }
        }
    }
}
