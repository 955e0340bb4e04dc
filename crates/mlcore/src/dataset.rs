//! A small, self-contained dataset abstraction.
//!
//! PerfXplain training examples are pairs of job (or task) executions encoded
//! as a fixed-width vector of mixed numeric/nominal features with missing
//! values, plus a binary label: did the pair perform *as observed* (positive)
//! or *as expected* (negative).  This module provides that representation in
//! a form the split search and Relief can share.

use crate::hash::FxHashMap;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The kind of an attribute (column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AttrKind {
    /// Real-valued attribute; ordered comparisons are meaningful.
    Numeric,
    /// Categorical attribute; only equality is meaningful.  Values are
    /// interned into a per-attribute [`NominalDictionary`].
    Nominal,
}

impl fmt::Display for AttrKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrKind::Numeric => write!(f, "numeric"),
            AttrKind::Nominal => write!(f, "nominal"),
        }
    }
}

/// A single cell value.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AttrValue {
    /// The value is unknown / not applicable for this instance.
    Missing,
    /// A numeric value.
    Num(f64),
    /// An interned nominal value (index into the attribute's dictionary).
    Nom(u32),
}

impl AttrValue {
    /// Returns `true` if the value is [`AttrValue::Missing`].
    pub fn is_missing(&self) -> bool {
        matches!(self, AttrValue::Missing)
    }

    /// Returns the numeric payload, if any.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            AttrValue::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the nominal payload, if any.
    pub fn as_nom(&self) -> Option<u32> {
        match self {
            AttrValue::Nom(v) => Some(*v),
            _ => None,
        }
    }
}

/// Per-attribute dictionary interning nominal string values.  Lookups go
/// through an [`FxHashMap`]: interning is on the log-encoding hot path.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct NominalDictionary {
    values: Vec<String>,
    index: FxHashMap<String, u32>,
}

impl NominalDictionary {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `value`, returning its stable index.
    pub fn intern(&mut self, value: &str) -> u32 {
        if let Some(&id) = self.index.get(value) {
            return id;
        }
        let id = self.values.len() as u32;
        self.values.push(value.to_string());
        self.index.insert(value.to_string(), id);
        id
    }

    /// Looks up the index of an already-interned value.
    pub fn get(&self, value: &str) -> Option<u32> {
        self.index.get(value).copied()
    }

    /// Resolves an index back to its string.
    pub fn resolve(&self, id: u32) -> Option<&str> {
        self.values.get(id as usize).map(String::as_str)
    }

    /// Number of distinct interned values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the dictionary has no values.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterates over `(index, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        self.values
            .iter()
            .enumerate()
            .map(|(i, v)| (i as u32, v.as_str()))
    }
}

/// Schema entry for one attribute.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Attribute {
    /// Attribute name (e.g. `inputsize_compare`).
    pub name: String,
    /// Attribute kind.
    pub kind: AttrKind,
    /// Dictionary for nominal attributes; empty for numeric ones.
    pub dictionary: NominalDictionary,
}

impl Attribute {
    /// Creates a numeric attribute.
    pub fn numeric(name: impl Into<String>) -> Self {
        Attribute {
            name: name.into(),
            kind: AttrKind::Numeric,
            dictionary: NominalDictionary::new(),
        }
    }

    /// Creates a nominal attribute with an empty dictionary.
    pub fn nominal(name: impl Into<String>) -> Self {
        Attribute {
            name: name.into(),
            kind: AttrKind::Nominal,
            dictionary: NominalDictionary::new(),
        }
    }
}

/// A labeled dataset with a fixed schema.
///
/// Rows are instances; `labels[i]` is `true` for positive instances (in
/// PerfXplain: pairs that performed *as observed*).  Attribute lookup by
/// name goes through a precomputed index.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    attributes: Vec<Attribute>,
    rows: Vec<Vec<AttrValue>>,
    labels: Vec<bool>,
    name_index: FxHashMap<String, usize>,
}

impl Dataset {
    /// Creates an empty dataset with the given schema.
    pub fn new(attributes: Vec<Attribute>) -> Self {
        let name_index = attributes
            .iter()
            .enumerate()
            .map(|(i, a)| (a.name.clone(), i))
            .collect();
        Dataset {
            attributes,
            rows: Vec::new(),
            labels: Vec::new(),
            name_index,
        }
    }

    /// The schema.
    pub fn attributes(&self) -> &[Attribute] {
        &self.attributes
    }

    /// Mutable access to an attribute (used to intern nominal values while
    /// loading).
    pub fn attribute_mut(&mut self, index: usize) -> &mut Attribute {
        &mut self.attributes[index]
    }

    /// Index of the attribute named `name`, if present (O(1)).
    pub fn attribute_index(&self, name: &str) -> Option<usize> {
        self.name_index.get(name).copied()
    }

    /// Number of attributes.
    pub fn num_attributes(&self) -> usize {
        self.attributes.len()
    }

    /// Number of instances.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the dataset has no instances.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Appends an instance.
    ///
    /// # Panics
    /// Panics if the row width does not match the schema.
    pub fn push(&mut self, row: Vec<AttrValue>, label: bool) {
        assert_eq!(
            row.len(),
            self.attributes.len(),
            "row width {} does not match schema width {}",
            row.len(),
            self.attributes.len()
        );
        self.rows.push(row);
        self.labels.push(label);
    }

    /// The `i`-th instance.
    pub fn row(&self, i: usize) -> &[AttrValue] {
        &self.rows[i]
    }

    /// The `i`-th label.
    pub fn label(&self, i: usize) -> bool {
        self.labels[i]
    }

    /// All labels.
    pub fn labels(&self) -> &[bool] {
        &self.labels
    }

    /// Value of attribute `attr` for instance `i`.
    pub fn value(&self, i: usize, attr: usize) -> AttrValue {
        self.rows[i][attr]
    }

    /// Number of positive instances.
    pub fn num_positive(&self) -> usize {
        self.labels.iter().filter(|&&l| l).count()
    }

    /// Fraction of positive instances; 0.0 for an empty dataset.
    pub fn positive_fraction(&self) -> f64 {
        if self.labels.is_empty() {
            0.0
        } else {
            self.num_positive() as f64 / self.labels.len() as f64
        }
    }

    /// Builds a new dataset containing only the instances whose indices are
    /// listed in `indices` (schema and dictionaries are shared by clone).
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        let mut out = Dataset::new(self.attributes.clone());
        for &i in indices {
            out.push(self.rows[i].clone(), self.labels[i]);
        }
        out
    }

    /// Builds a new dataset keeping only the attributes whose indices are in
    /// `attr_indices` (in that order).
    pub fn project(&self, attr_indices: &[usize]) -> Dataset {
        let attributes = attr_indices
            .iter()
            .map(|&a| self.attributes[a].clone())
            .collect();
        let mut out = Dataset::new(attributes);
        for (row, &label) in self.rows.iter().zip(self.labels.iter()) {
            let projected = attr_indices.iter().map(|&a| row[a]).collect();
            out.push(projected, label);
        }
        out
    }

    /// Iterates over `(row, label)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&[AttrValue], bool)> {
        self.rows
            .iter()
            .map(Vec::as_slice)
            .zip(self.labels.iter().copied())
    }

    /// Per-attribute observed numeric range `(min, max)`, ignoring missing
    /// values and NaN (which the trainers treat as missing — a single NaN
    /// cell must not poison the range every Relief `diff` normalises by).
    /// Returns `None` when no numeric value was observed.
    pub fn numeric_range(&self, attr: usize) -> Option<(f64, f64)> {
        let mut range: Option<(f64, f64)> = None;
        for row in &self.rows {
            if let AttrValue::Num(v) = row[attr] {
                if v.is_nan() {
                    continue;
                }
                range = Some(match range {
                    None => (v, v),
                    Some((lo, hi)) => (lo.min(v), hi.max(v)),
                });
            }
        }
        range
    }

    /// Materialises attribute `attr` as a contiguous, typed column — the
    /// attribute-major form the columnar Relief scans without per-cell enum
    /// dispatch.  Rows are stored row-major, so this is one O(n) gather per
    /// attribute, paid once per training run.
    pub fn column_cells(&self, attr: usize) -> ColumnCells {
        let mut has_num = false;
        let mut has_nom = false;
        for row in &self.rows {
            match row[attr] {
                // NaN is treated as missing throughout the trainers.
                AttrValue::Num(v) => has_num |= !v.is_nan(),
                // An interned id colliding with the missing sentinel would
                // corrupt the nominal encoding; fall back to raw cells.
                AttrValue::Nom(id) => {
                    if id == NO_NOMINAL {
                        return ColumnCells::Mixed(self.rows.iter().map(|r| r[attr]).collect());
                    }
                    has_nom = true;
                }
                AttrValue::Missing => {}
            }
        }
        match (has_num, has_nom) {
            (true, true) => ColumnCells::Mixed(self.rows.iter().map(|r| r[attr]).collect()),
            (false, true) => ColumnCells::Nominal(
                self.rows
                    .iter()
                    .map(|r| r[attr].as_nom().unwrap_or(NO_NOMINAL))
                    .collect(),
            ),
            // A column with no nominal cells (numeric, all-missing or
            // empty) packs densest as f64 with NaN for missing.
            _ => ColumnCells::Numeric(
                self.rows
                    .iter()
                    .map(|r| r[attr].as_num().unwrap_or(f64::NAN))
                    .collect(),
            ),
        }
    }
}

/// Sentinel id marking a missing cell in [`ColumnCells::Nominal`].
pub const NO_NOMINAL: u32 = u32::MAX;

/// A contiguous, typed snapshot of one attribute's cells
/// ([`Dataset::column_cells`]).
///
/// Homogeneous columns — the overwhelmingly common case — come back as flat
/// `f64`/`u32` vectors so per-cell consumers (the Relief distance kernels)
/// can run tight, dispatch-free loops; a column mixing numeric and nominal
/// cells (schema drift, e.g. a catalog-numeric feature that some record
/// carries as a string) falls back to the raw cells.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnCells {
    /// Every non-missing cell is numeric; missing (and NaN, which the
    /// trainers treat as missing) is encoded as NaN.
    Numeric(Vec<f64>),
    /// Every non-missing cell is nominal; missing is encoded as
    /// [`NO_NOMINAL`].
    Nominal(Vec<u32>),
    /// Mixed numeric/nominal cells, kept as-is.
    Mixed(Vec<AttrValue>),
}

impl Serialize for Dataset {
    fn serialize(&self) -> serde::Content {
        serde::Content::Map(vec![
            ("attributes".to_string(), self.attributes.serialize()),
            ("rows".to_string(), self.rows.serialize()),
            ("labels".to_string(), self.labels.serialize()),
        ])
    }
}

impl Deserialize for Dataset {
    fn deserialize(content: &serde::Content) -> Result<Self, serde::DeError> {
        let entries = content
            .as_map()
            .ok_or_else(|| serde::DeError::expected("map", "Dataset"))?;
        let attributes: Vec<Attribute> =
            Deserialize::deserialize(serde::Content::field(entries, "attributes"))?;
        let mut dataset = Dataset::new(attributes);
        dataset.rows = Deserialize::deserialize(serde::Content::field(entries, "rows"))?;
        dataset.labels = Deserialize::deserialize(serde::Content::field(entries, "labels"))?;
        Ok(dataset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        let mut ds = Dataset::new(vec![Attribute::numeric("x"), Attribute::nominal("color")]);
        let red = ds.attribute_mut(1).dictionary.intern("red");
        let blue = ds.attribute_mut(1).dictionary.intern("blue");
        ds.push(vec![AttrValue::Num(1.0), AttrValue::Nom(red)], true);
        ds.push(vec![AttrValue::Num(2.0), AttrValue::Nom(blue)], false);
        ds.push(vec![AttrValue::Missing, AttrValue::Nom(red)], true);
        ds
    }

    #[test]
    fn dictionary_interns_stably() {
        let mut d = NominalDictionary::new();
        let a = d.intern("a");
        let b = d.intern("b");
        assert_eq!(d.intern("a"), a);
        assert_ne!(a, b);
        assert_eq!(d.resolve(a), Some("a"));
        assert_eq!(d.get("b"), Some(b));
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn dataset_basic_accessors() {
        let ds = toy();
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.num_attributes(), 2);
        assert_eq!(ds.num_positive(), 2);
        assert!((ds.positive_fraction() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(ds.attribute_index("color"), Some(1));
        assert_eq!(ds.attribute_index("nope"), None);
        assert_eq!(ds.value(0, 0), AttrValue::Num(1.0));
        assert!(ds.value(2, 0).is_missing());
    }

    #[test]
    fn subset_and_project() {
        let ds = toy();
        let sub = ds.subset(&[0, 2]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.num_positive(), 2);

        let proj = ds.project(&[1]);
        assert_eq!(proj.num_attributes(), 1);
        assert_eq!(proj.attributes()[0].name, "color");
        assert_eq!(proj.len(), 3);
    }

    #[test]
    fn numeric_range_ignores_missing() {
        let ds = toy();
        assert_eq!(ds.numeric_range(0), Some((1.0, 2.0)));
        assert_eq!(ds.numeric_range(1), None);
    }

    #[test]
    fn numeric_range_skips_nan() {
        let mut ds = Dataset::new(vec![Attribute::numeric("x")]);
        ds.push(vec![AttrValue::Num(f64::NAN)], true);
        ds.push(vec![AttrValue::Num(3.0)], false);
        ds.push(vec![AttrValue::Num(7.0)], true);
        assert_eq!(ds.numeric_range(0), Some((3.0, 7.0)));

        let mut all_nan = Dataset::new(vec![Attribute::numeric("x")]);
        all_nan.push(vec![AttrValue::Num(f64::NAN)], true);
        assert_eq!(all_nan.numeric_range(0), None);
    }

    #[test]
    fn column_cells_pick_typed_representations() {
        let ds = toy();
        // Numeric column: missing encoded as NaN.
        match ds.column_cells(0) {
            ColumnCells::Numeric(cells) => {
                assert_eq!(cells.len(), 3);
                assert_eq!(cells[0], 1.0);
                assert!(cells[2].is_nan());
            }
            other => panic!("expected a numeric column, got {other:?}"),
        }
        // Nominal column: ids verbatim.
        match ds.column_cells(1) {
            ColumnCells::Nominal(cells) => assert_eq!(cells, vec![0, 1, 0]),
            other => panic!("expected a nominal column, got {other:?}"),
        }
        // A NaN cell does not force a numeric column to Mixed.
        let mut with_nan = Dataset::new(vec![Attribute::numeric("x")]);
        with_nan.push(vec![AttrValue::Num(f64::NAN)], true);
        with_nan.push(vec![AttrValue::Num(2.0)], false);
        assert!(matches!(with_nan.column_cells(0), ColumnCells::Numeric(_)));
        // Mixed numeric/nominal cells fall back to raw cells.
        let mut mixed = Dataset::new(vec![Attribute::nominal("x")]);
        let id = mixed.attribute_mut(0).dictionary.intern("a");
        mixed.push(vec![AttrValue::Nom(id)], true);
        mixed.push(vec![AttrValue::Num(2.0)], false);
        assert!(matches!(mixed.column_cells(0), ColumnCells::Mixed(_)));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn push_rejects_wrong_width() {
        let mut ds = toy();
        ds.push(vec![AttrValue::Num(1.0)], true);
    }

    #[test]
    fn positive_fraction_of_empty_is_zero() {
        let ds = Dataset::new(vec![Attribute::numeric("x")]);
        assert_eq!(ds.positive_fraction(), 0.0);
        assert!(ds.is_empty());
    }
}
