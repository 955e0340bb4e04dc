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
//!   thresholds and equalities, a nominal attribute's first-seen ids).  A
//!   numeric summary also keeps its sort: the summarised rows with a value,
//!   ascending (ties in row order), as `u32` row numbers.
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
//!
//! # Searching a subset of the summarised rows
//!
//! The clause loop's later iterations search the rows that satisfy the
//! clause so far, each under one pair of interest's applicability filter.
//! [`SplitSummary::best_applicable_within`] answers that from the summary
//! over every row and a [`RowMask`] of the subset (its class of each row
//! and its class counts, built once per iteration), with no sort and no
//! new summary, in the spirit of SLIQ's presorted attribute lists (Mehta,
//! Agrawal and Rissanen, EDBT 1996):
//!
//! * nominal: only the pair's own id can be applicable, so one pass over
//!   the id column counts the subset's rows holding it;
//! * numeric: the kept sort, filtered by the mask, is the stable sort of
//!   the subset (the subset ascends by row, so ties and the first-seen of
//!   `-0.0` and `0.0` agree), and only the candidates the pair's value
//!   satisfies are scored: the `<=` side of a threshold at or above it,
//!   the `>` side of one below it, and the equalities it matches.  They
//!   are offered in the replay's order with its twin suppression.
//!
//! The winner is the one `SplitSummary::new` over the subset replayed by
//! `best_applicable_to` returns, bit for bit, which the proptests check.

use crate::dataset::{AttrKind, AttrValue, ColumnCells, Dataset, NO_NOMINAL};
use crate::entropy::{CellCounts, GainScorer};
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
    /// Missing values never satisfy a test.  Type mismatches (e.g. a
    /// numeric test against a nominal value) never match either; they
    /// indicate schema drift, not an error.
    pub fn matches_value(&self, value: AttrValue) -> bool {
        match value {
            AttrValue::Missing => false,
            AttrValue::Num(v) => self.matches_num(v),
            AttrValue::Nom(id) => self.matches_nom(id),
        }
    }

    /// The test on a numeric cell; NaN, like a missing cell, matches
    /// nothing.
    fn matches_num(&self, v: f64) -> bool {
        match (self.op, self.constant) {
            (TestOp::Eq, TestConstant::Num(c)) => (v - c).abs() <= f64::EPSILON * c.abs().max(1.0),
            (TestOp::Le, TestConstant::Num(c)) => v <= c,
            (TestOp::Gt, TestConstant::Num(c)) => v > c,
            _ => false,
        }
    }

    /// The test on a nominal cell; the missing id [`NO_NOMINAL`] matches
    /// nothing.
    fn matches_nom(&self, id: u32) -> bool {
        self.op == TestOp::Eq && self.constant == TestConstant::Nom(id) && id != NO_NOMINAL
    }

    /// Evaluates the test on row `i` of `data`.
    pub fn matches_row(&self, data: &Dataset, i: usize) -> bool {
        self.matches_value(data.value(i, self.attribute))
    }

    /// Keeps the rows of `rows` that satisfy the test, in order: one scan
    /// of the attribute's typed column.
    pub fn retain_matching(&self, data: &Dataset, rows: &mut Vec<usize>) {
        match data.column(self.attribute) {
            ColumnCells::Absent => rows.clear(),
            ColumnCells::Numeric(cells) => rows.retain(|&i| self.matches_num(cells[i])),
            ColumnCells::Nominal(ids) => rows.retain(|&i| self.matches_nom(ids[i])),
            ColumnCells::Mixed(cells) => rows.retain(|&i| self.matches_value(cells[i])),
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
        /// The summarised rows with a value, ascending by value, ties in
        /// row order: the sweep's stable sort.
        order: Vec<u32>,
    },
    Nominal {
        /// In first-seen order.
        values: Vec<NominalValue>,
        /// Indexed by id: the id's index in `values`, [`UNSEEN`] where the
        /// id holds no row.  As long as the largest id seen.
        position: Vec<u32>,
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
                ..
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
                let at = *position.get(id as usize)?;
                let v = *values.get(at as usize)?;
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
                ..
            } => 2 * thresholds.len() + equalities.len(),
            Candidates::Nominal { .. } => 1,
        }
    }

    /// [`SplitSummary::best_applicable_to`] over the subset of the
    /// summarised rows that `mask` admits: the candidate
    /// `SplitSummary::new` over that subset would give, found without a
    /// sort or a new summary (see the module docs).  The summary must cover
    /// every row the mask admits, as one over every row of `data` does.
    pub fn best_applicable_within(
        &self,
        data: &Dataset,
        mask: &RowMask,
        value: AttrValue,
    ) -> Option<SplitCandidate> {
        let mut best = RunningBest::new(mask.total);
        match (&self.candidates, value) {
            (Candidates::Nominal { position, .. }, AttrValue::Nom(id)) => {
                // No row holds the id (the missing id included), so no
                // admitted one does.
                if position.get(id as usize).is_none_or(|&at| at == UNSEEN) {
                    return None;
                }
                let inside = mask.count_nominal(data.column(self.attribute), id);
                if inside.total() > 0 {
                    let gain = mask.scorer.gain(inside);
                    best.offer(
                        self.atom(TestOp::Eq, TestConstant::Nom(id)),
                        Scored { inside, gain },
                    );
                }
            }
            (Candidates::Numeric { order, .. }, AttrValue::Num(v)) if !v.is_nan() => {
                let (distinct, prefix) = match data.column(self.attribute) {
                    ColumnCells::Numeric(cells) => mask.sorted_within(order, |row| cells[row]),
                    ColumnCells::Mixed(cells) => mask.sorted_within(order, |row| {
                        cells[row]
                            .as_num()
                            .expect("the sort holds numeric cells only")
                    }),
                    ColumnCells::Absent | ColumnCells::Nominal(_) => return None,
                };
                self.offer_applicable(&mut best, mask, &distinct, &prefix, v);
            }
            // No numeric test matches a nominal, missing or NaN value, and
            // no nominal test a numeric or missing one.
            _ => {}
        }
        best.best
    }

    /// Offers, in the replay's order, the candidates over the subset whose
    /// distinct values and prefix counts are `distinct` and `prefix` that
    /// the finite or infinite `value` satisfies: what
    /// `summarize_numeric` over the subset builds, replayed by
    /// `best_applicable_to`, with only the offered candidates scored.
    fn offer_applicable(
        &self,
        best: &mut RunningBest,
        mask: &RowMask,
        distinct: &[f64],
        prefix: &[CellCounts],
        value: f64,
    ) {
        let k = distinct.len();
        let total = mask.total;
        let present = prefix[k];
        // The thresholds, ascending.  `value` is not NaN, so it satisfies
        // exactly one side of each: `<=` where it is at most the
        // threshold, `>` where it is above.
        let mut below = 0usize;
        let mut first_le_prefix = None;
        let mut last_gt_suffix = None;
        let mut first_le = false;
        let mut last_gt = false;
        for i in 0..k.saturating_sub(1) {
            let threshold = (distinct[i] + distinct[i + 1]) / 2.0;
            if threshold.is_nan() {
                continue;
            }
            while below < k && distinct[below] <= threshold {
                below += 1;
            }
            let first = i == 0;
            let last = i == k - 2 && below < k;
            if first {
                first_le_prefix = Some(below);
            }
            if last {
                last_gt_suffix = Some(below);
            }
            let le_inside = prefix[below];
            if value <= threshold {
                first_le |= first;
                let atom = self.atom(TestOp::Le, TestConstant::Num(threshold));
                best.offer(
                    atom,
                    Scored {
                        inside: le_inside,
                        gain: mask.scorer.gain(le_inside),
                    },
                );
            } else {
                last_gt |= last;
                let inside = present.minus(le_inside);
                if inside.total() > 0 {
                    // The summary's `>` gain: with every admitted row
                    // present, the `<=` side's.
                    let gain = mask
                        .scorer
                        .gain(if present == total { le_inside } else { inside });
                    let atom = self.atom(TestOp::Gt, TestConstant::Num(threshold));
                    best.offer(atom, Scored { inside, gain });
                }
            }
        }
        // The finite equalities `value` matches, ascending, less those
        // whose offered twin makes them redundant.
        for i in 0..k {
            if !distinct[i].is_finite() {
                continue;
            }
            let atom = self.atom(TestOp::Eq, TestConstant::Num(distinct[i]));
            if !atom.matches_num(value) {
                continue;
            }
            let (lo, hi) = eq_band(distinct, i, &atom);
            let twin_of_first_le = lo == 0 && first_le_prefix == Some(hi + 1);
            let twin_of_last_gt = hi + 1 == k && last_gt_suffix == Some(lo);
            if (twin_of_first_le && first_le) || (twin_of_last_gt && last_gt) {
                continue;
            }
            let inside = prefix[hi + 1].minus(prefix[lo]);
            best.offer(
                atom,
                Scored {
                    inside,
                    gain: mask.scorer.gain(inside),
                },
            );
        }
    }

    /// Bytes the summary holds on the heap, a numeric summary's kept sort
    /// included.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        match &self.candidates {
            Candidates::Numeric {
                thresholds,
                equalities,
                order,
            } => {
                thresholds.capacity() * size_of::<Threshold>()
                    + equalities.capacity() * size_of::<Equality>()
                    + order.capacity() * size_of::<u32>()
            }
            Candidates::Nominal { values, position } => {
                values.capacity() * size_of::<NominalValue>()
                    + position.capacity() * size_of::<u32>()
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

/// The class counts of the instances listed in `indices`.
fn class_counts(labels: &[bool], indices: &[usize]) -> CellCounts {
    let mut total = CellCounts::default();
    for &i in indices {
        total.record(labels[i]);
    }
    total
}

/// A [`RowMask`] class: the row is in the subset with a positive label.
const POSITIVE: u8 = 1;
/// A [`RowMask`] class: the row is in the subset with a negative label.
const NEGATIVE: u8 = 2;

/// A subset of a dataset's rows as [`SplitSummary::best_applicable_within`]
/// reads it: one byte per row of the dataset, holding its positive and
/// negative membership bits (neither outside the subset), and the subset's
/// class counts with their entropy.  Build it once per set of rows and
/// search every attribute under it.
#[derive(Debug)]
pub struct RowMask {
    classes: Vec<u8>,
    total: CellCounts,
    scorer: GainScorer,
}

impl RowMask {
    /// The mask of the rows of `data` listed in `rows`.
    pub fn new(data: &Dataset, rows: &[usize]) -> Self {
        let labels = data.labels();
        let mut classes = vec![0u8; data.len()];
        for &row in rows {
            classes[row] = if labels[row] { POSITIVE } else { NEGATIVE };
        }
        let total = class_counts(labels, rows);
        RowMask {
            classes,
            total,
            scorer: GainScorer::new(total),
        }
    }

    /// The class counts of the subset's rows whose cell of `column` is the
    /// nominal `id`: one pass over the whole column.
    fn count_nominal(&self, column: &ColumnCells, id: u32) -> CellCounts {
        let (mut positive, mut negative) = (0usize, 0usize);
        match column {
            ColumnCells::Nominal(ids) => {
                // Branch-free: a matching cell keeps its row's class bits.
                for (&cell, &class) in ids.iter().zip(&self.classes) {
                    let hit = class & ((cell == id) as u8).wrapping_neg();
                    positive += (hit & POSITIVE) as usize;
                    negative += (hit >> 1) as usize;
                }
            }
            ColumnCells::Mixed(cells) => {
                for (&cell, &class) in cells.iter().zip(&self.classes) {
                    if cell == AttrValue::Nom(id) {
                        positive += (class & POSITIVE) as usize;
                        negative += (class >> 1) as usize;
                    }
                }
            }
            ColumnCells::Absent | ColumnCells::Numeric(_) => {}
        }
        CellCounts { positive, negative }
    }

    /// Walks a numeric summary's kept sort `order` under the mask: the
    /// subset's distinct values ascending, each the first admitted row's
    /// value of its run of equal values, and `prefix`, where `prefix[j]`
    /// counts the admitted rows of `distinct[..j]`.  `value(row)` reads
    /// the row's cell.
    fn sorted_within(
        &self,
        order: &[u32],
        value: impl Fn(usize) -> f64,
    ) -> (Vec<f64>, Vec<CellCounts>) {
        let mut distinct: Vec<f64> = Vec::new();
        let mut prefix = vec![CellCounts::default()];
        let mut running = CellCounts::default();
        for &row in order {
            let row = row as usize;
            let class = self.classes[row];
            if class == 0 {
                continue;
            }
            let v = value(row);
            if distinct.last() != Some(&v) {
                if !distinct.is_empty() {
                    prefix.push(running);
                }
                distinct.push(v);
            }
            running.record(class == POSITIVE);
        }
        if !distinct.is_empty() {
            prefix.push(running);
        }
        (distinct, prefix)
    }
}

/// The numeric summary: sort the present values once, then score every
/// threshold and equality candidate in O(1) from prefix counts.
fn summarize_numeric(data: &Dataset, indices: &[usize], attribute: usize) -> SplitSummary {
    // Class counts over every instance (missing, NaN and type-mismatched
    // cells satisfy no numeric test — they are permanent "outside"
    // members), then the present `(value, label)` pairs from the typed
    // column.
    let labels = data.labels();
    let total = class_counts(labels, indices);
    let row = |i: usize| u32::try_from(i).expect("a summarised row fits in u32");
    let mut values: Vec<(f64, u32)> = match data.column(attribute) {
        ColumnCells::Numeric(cells) => indices.iter().map(|&i| (cells[i], row(i))).collect(),
        ColumnCells::Mixed(cells) => indices
            .iter()
            .filter_map(|&i| Some((cells[i].as_num()?, row(i))))
            .collect(),
        ColumnCells::Absent | ColumnCells::Nominal(_) => Vec::new(),
    };
    values.retain(|(v, _)| !v.is_nan());
    // The single sort.  Stable, so values comparing equal (-0.0 vs 0.0)
    // keep index order and the distinct list retains the first-seen
    // representative — the same constant the naive sort+dedup kept.
    values.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("NaN values were filtered"));

    // Distinct values with per-value class counts and running prefix
    // counts: `prefix[j]` covers `distinct[..j]`.
    let mut distinct: Vec<f64> = Vec::new();
    let mut cells: Vec<CellCounts> = Vec::new();
    for &(v, row) in &values {
        if distinct.last().is_none_or(|&last| last != v) {
            distinct.push(v);
            cells.push(CellCounts::default());
        }
        cells
            .last_mut()
            .expect("just pushed")
            .record(labels[row as usize]);
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
            order: values.iter().map(|&(_, row)| row).collect(),
        },
    }
}

/// The position of an id no summarized row holds.
const UNSEEN: u32 = u32::MAX;

/// The nominal summary: one counting pass into a dense array indexed by id
/// (first-seen candidate order preserved), then O(1) scoring per distinct
/// value.  The array grows to the largest id the rows hold, so ids should
/// be dictionary ids, as every [`AttrValue::Nom`] is.
fn summarize_nominal(data: &Dataset, indices: &[usize], attribute: usize) -> SplitSummary {
    let labels = data.labels();
    let total = class_counts(labels, indices);
    let mut values: Vec<NominalValue> = Vec::new();
    let mut position: Vec<u32> = Vec::new();
    let mut record = |id: u32, label: bool| {
        let slot = id as usize;
        if slot >= position.len() {
            position.resize(slot + 1, UNSEEN);
        }
        if position[slot] == UNSEEN {
            position[slot] = values.len() as u32;
            values.push(NominalValue {
                id,
                eq: Scored {
                    inside: CellCounts::default(),
                    gain: 0.0,
                },
            });
        }
        values[position[slot] as usize].eq.inside.record(label);
    };
    match data.column(attribute) {
        ColumnCells::Nominal(ids) => {
            for &i in indices {
                if ids[i] != NO_NOMINAL {
                    record(ids[i], labels[i]);
                }
            }
        }
        ColumnCells::Mixed(cells) => {
            for &i in indices {
                if let AttrValue::Nom(id) = cells[i] {
                    record(id, labels[i]);
                }
            }
        }
        ColumnCells::Absent | ColumnCells::Numeric(_) => {}
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

    /// Over every subset of twelve rows (the `edges` values beside
    /// nominal ids, and a missing row), the masked search of the summary
    /// over all of them gives, for every probe, what a fresh summary of
    /// the subset gives, `-0.0` told from `0.0`: with `-0.0` at rows 1 and
    /// 9 and `0.0` at row 2, which of them leads the subset's zeros decides
    /// the sign of an `= 0` constant.
    #[test]
    fn a_masked_search_equals_a_fresh_summary_of_every_subset() {
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
        let mut ds = Dataset::new(vec![Attribute::numeric("x"), Attribute::nominal("c")]);
        let ids = [0, 1, 0, 2, 1, 0, 0, 3, 1, 2, 0];
        for (i, (&v, &id)) in edges.iter().zip(&ids).enumerate() {
            ds.push(
                vec![AttrValue::Num(v), AttrValue::Nom(id)],
                (i * 7) % 3 != 0,
            );
        }
        ds.push(vec![AttrValue::Missing, AttrValue::Missing], true);
        let all = all_indices(&ds);
        let summaries = [0, 1].map(|attr| SplitSummary::new(&ds, &all, attr));
        let mut probes: Vec<AttrValue> = edges.iter().map(|&v| AttrValue::Num(v)).collect();
        probes.extend([AttrValue::Num(2.5), AttrValue::Missing]);
        probes.extend([0, 1, 2, 3, 4, NO_NOMINAL].map(AttrValue::Nom));
        for bits in 0u32..1 << ds.len() {
            let rows: Vec<usize> = all
                .iter()
                .copied()
                .filter(|&i| bits >> i & 1 == 1)
                .collect();
            let mask = RowMask::new(&ds, &rows);
            assert_eq!(mask.total, class_counts(ds.labels(), &rows));
            for (attr, summary) in summaries.iter().enumerate() {
                let fresh = SplitSummary::new(&ds, &rows, attr);
                for &probe in &probes {
                    assert_eq!(
                        format!("{:?}", summary.best_applicable_within(&ds, &mask, probe)),
                        format!("{:?}", fresh.best_applicable_to(probe)),
                        "rows {rows:?}, attribute {attr}, probe {probe:?}"
                    );
                }
            }
        }
    }

    /// A numeric summary charges its kept sort, four bytes per summarised
    /// row with a value (missing and NaN rows are not sorted), beside its
    /// candidates; a nominal summary keeps no sort.
    #[test]
    fn a_numeric_summary_charges_its_kept_sort() {
        let summary_bytes = |copies: usize| {
            let mut ds = Dataset::new(vec![Attribute::numeric("x"), Attribute::nominal("c")]);
            let red = ds.attribute_mut(1).dictionary.intern("red");
            for copy in 0..copies {
                for v in 1..=5 {
                    ds.push(
                        vec![AttrValue::Num(v as f64), AttrValue::Nom(red)],
                        copy % 2 == 0,
                    );
                }
            }
            ds.push(vec![AttrValue::Missing, AttrValue::Missing], true);
            ds.push(vec![AttrValue::Num(f64::NAN), AttrValue::Missing], false);
            let idx = all_indices(&ds);
            [0, 1].map(|attr| SplitSummary::new(&ds, &idx, attr).heap_bytes())
        };
        let (once, thrice) = (summary_bytes(1), summary_bytes(3));
        // The same five distinct values: only the sort grows, by ten rows.
        assert_eq!(thrice[0] - once[0], 10 * std::mem::size_of::<u32>());
        assert_eq!(thrice[1], once[1]);
    }
}
