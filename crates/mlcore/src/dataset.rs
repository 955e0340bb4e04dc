//! The labeled dataset the split search and Relief share.
//!
//! PerfXplain training examples are pairs of job (or task) executions encoded
//! as a fixed-width vector of mixed numeric/nominal features with missing
//! values, plus a binary label: did the pair perform *as observed* (positive)
//! or *as expected* (negative).
//!
//! # Column-major storage
//!
//! Every reader scans one attribute over many instances: a split summary
//! sorts or counts one attribute, Relief adds up one attribute's distances,
//! the clause loop keeps the rows one test admits.  So a [`Dataset`] stores
//! one typed column per attribute, not one row per instance, and each
//! column ([`ColumnCells`]) takes the narrowest shape that holds its cells:
//!
//! * nominal `u32` ids, with [`NO_NOMINAL`] for missing (4 bytes a cell);
//! * numeric `f64`, with NaN for missing (8 bytes a cell);
//! * raw [`AttrValue`]s, only for a column that mixes both (16 bytes);
//! * nothing at all, for a column with no present cell.
//!
//! A [`ColumnBuilder`] picks the shape as the cells arrive, widening it when
//! a cell does not fit.  NaN is missing to every trainer, and it is also the
//! storage rule: a NaN cell is stored as missing in every shape and reads
//! back as [`AttrValue::Missing`], and so does the reserved id
//! [`NO_NOMINAL`].

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

/// Sentinel id marking a missing cell in [`ColumnCells::Nominal`].  The id
/// is reserved: a cell holding it reads back as [`AttrValue::Missing`].
pub const NO_NOMINAL: u32 = u32::MAX;

/// One attribute's cells, stored in the narrowest shape that holds them
/// (see the module docs).  Every shape reads a missing cell back as
/// [`AttrValue::Missing`] through [`ColumnCells::get`].
#[derive(Debug, Clone, Default, PartialEq)]
pub enum ColumnCells {
    /// No cell is present: the column stores nothing.
    #[default]
    Absent,
    /// Every present cell is numeric; missing is encoded as NaN.
    Numeric(Vec<f64>),
    /// Every present cell is nominal; missing is encoded as
    /// [`NO_NOMINAL`].
    Nominal(Vec<u32>),
    /// Numeric and nominal cells side by side (schema drift, e.g. a
    /// catalog-numeric feature that some record carries as a string).  In a
    /// [`Dataset`], no cell is NaN or [`NO_NOMINAL`]: those are stored as
    /// [`AttrValue::Missing`].
    Mixed(Vec<AttrValue>),
}

impl ColumnCells {
    /// Cell `i`.  An absent column reads every index as missing.
    pub fn get(&self, i: usize) -> AttrValue {
        match self {
            ColumnCells::Absent => AttrValue::Missing,
            ColumnCells::Numeric(cells) => match cells[i] {
                v if v.is_nan() => AttrValue::Missing,
                v => AttrValue::Num(v),
            },
            ColumnCells::Nominal(cells) => match cells[i] {
                NO_NOMINAL => AttrValue::Missing,
                id => AttrValue::Nom(id),
            },
            ColumnCells::Mixed(cells) => cells[i],
        }
    }

    /// The number of cells, or `None` for an absent column, which stores
    /// none.
    fn stored_len(&self) -> Option<usize> {
        match self {
            ColumnCells::Absent => None,
            ColumnCells::Numeric(cells) => Some(cells.len()),
            ColumnCells::Nominal(cells) => Some(cells.len()),
            ColumnCells::Mixed(cells) => Some(cells.len()),
        }
    }

    /// Bytes the cells take on the heap, by capacity.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        match self {
            ColumnCells::Absent => 0,
            ColumnCells::Numeric(cells) => cells.capacity() * size_of::<f64>(),
            ColumnCells::Nominal(cells) => cells.capacity() * size_of::<u32>(),
            ColumnCells::Mixed(cells) => cells.capacity() * size_of::<AttrValue>(),
        }
    }

    /// Appends `cell` as cell `len`, widening the shape first when the
    /// cell does not fit it.  `capacity` sizes a widened column.
    fn push(&mut self, len: usize, capacity: usize, cell: AttrValue) {
        match (&mut *self, normalized(cell)) {
            (ColumnCells::Absent, AttrValue::Missing) => {}
            (ColumnCells::Numeric(cells), AttrValue::Missing) => cells.push(f64::NAN),
            (ColumnCells::Numeric(cells), AttrValue::Num(v)) => cells.push(v),
            (ColumnCells::Nominal(cells), AttrValue::Missing) => cells.push(NO_NOMINAL),
            (ColumnCells::Nominal(cells), AttrValue::Nom(id)) => cells.push(id),
            (ColumnCells::Mixed(cells), cell) => cells.push(cell),
            (_, cell) => {
                let capacity = capacity.max(len + 1);
                *self = match (std::mem::take(self), cell) {
                    (ColumnCells::Absent, AttrValue::Num(_)) => {
                        let mut cells = Vec::with_capacity(capacity);
                        cells.resize(len, f64::NAN);
                        ColumnCells::Numeric(cells)
                    }
                    (ColumnCells::Absent, _) => {
                        let mut cells = Vec::with_capacity(capacity);
                        cells.resize(len, NO_NOMINAL);
                        ColumnCells::Nominal(cells)
                    }
                    (old, _) => {
                        let mut cells = Vec::with_capacity(capacity);
                        cells.extend((0..len).map(|i| old.get(i)));
                        ColumnCells::Mixed(cells)
                    }
                };
                self.push(len, capacity, cell);
            }
        }
    }
}

/// `cell` with NaN and the reserved [`NO_NOMINAL`] id read as missing.
fn normalized(cell: AttrValue) -> AttrValue {
    match cell {
        AttrValue::Num(v) if v.is_nan() => AttrValue::Missing,
        AttrValue::Nom(NO_NOMINAL) => AttrValue::Missing,
        cell => cell,
    }
}

/// Collects one attribute's cells in instance order into a
/// [`ColumnCells`] of the narrowest shape: absent until a cell is
/// present, numeric or nominal after that, mixed once both kinds are.
#[derive(Debug, Clone, Default)]
pub struct ColumnBuilder {
    cells: ColumnCells,
    len: usize,
    capacity: usize,
}

impl ColumnBuilder {
    /// A builder whose column, once it holds a present cell, has room for
    /// `capacity` cells.
    pub fn with_capacity(capacity: usize) -> Self {
        ColumnBuilder {
            capacity,
            ..ColumnBuilder::default()
        }
    }

    /// Appends the next instance's cell.
    pub fn push(&mut self, cell: AttrValue) {
        self.cells.push(self.len, self.capacity, cell);
        self.len += 1;
    }

    /// The finished column.
    pub fn finish(self) -> ColumnCells {
        self.cells
    }
}

/// A labeled dataset with a fixed schema, stored column by column (see the
/// module docs).
///
/// Instances are numbered `0..len()`; `labels[i]` is `true` for positive
/// instances (in PerfXplain: pairs that performed *as observed*).
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    attributes: Vec<Attribute>,
    columns: Vec<ColumnCells>,
    labels: Vec<bool>,
}

impl Dataset {
    /// Creates an empty dataset with the given schema.
    pub fn new(attributes: Vec<Attribute>) -> Self {
        Dataset {
            columns: vec![ColumnCells::Absent; attributes.len()],
            attributes,
            labels: Vec::new(),
        }
    }

    /// A dataset of already built columns, one per attribute, each holding
    /// one cell per label (or absent).  A mixed column's NaN and
    /// [`NO_NOMINAL`] cells are stored as missing.
    ///
    /// # Panics
    /// Panics if the column count does not match the schema, or a column's
    /// length does not match the labels.
    pub fn from_columns(
        attributes: Vec<Attribute>,
        mut columns: Vec<ColumnCells>,
        labels: Vec<bool>,
    ) -> Self {
        assert_eq!(
            columns.len(),
            attributes.len(),
            "{} columns do not match schema width {}",
            columns.len(),
            attributes.len()
        );
        for (attribute, column) in attributes.iter().zip(&mut columns) {
            let len = column.stored_len().unwrap_or(labels.len());
            assert_eq!(
                len,
                labels.len(),
                "column {} holds {len} cells for {} labels",
                attribute.name,
                labels.len()
            );
            if let ColumnCells::Mixed(cells) = column {
                for cell in cells {
                    *cell = normalized(*cell);
                }
            }
        }
        Dataset {
            attributes,
            columns,
            labels,
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

    /// Number of attributes.
    pub fn num_attributes(&self) -> usize {
        self.attributes.len()
    }

    /// Number of instances.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset has no instances.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Appends an instance, each cell to its attribute's column.  Builders
    /// that know every instance up front fill whole columns instead
    /// ([`ColumnBuilder`], [`Dataset::from_columns`]).
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
        let len = self.labels.len();
        for (column, cell) in self.columns.iter_mut().zip(row) {
            column.push(len, 0, cell);
        }
        self.labels.push(label);
    }

    /// The `i`-th label.
    pub fn label(&self, i: usize) -> bool {
        self.labels[i]
    }

    /// All labels.
    pub fn labels(&self) -> &[bool] {
        &self.labels
    }

    /// Attribute `attr`'s column.
    pub fn column(&self, attr: usize) -> &ColumnCells {
        &self.columns[attr]
    }

    /// Value of attribute `attr` for instance `i`; NaN reads as missing.
    ///
    /// # Panics
    /// Panics if `i` is not an instance.
    pub fn value(&self, i: usize, attr: usize) -> AttrValue {
        assert!(i < self.len(), "instance {i} of {}", self.len());
        self.columns[attr].get(i)
    }

    /// Number of positive instances.
    pub fn num_positive(&self) -> usize {
        self.labels.iter().filter(|&&l| l).count()
    }

    /// Bytes the cells and labels take on the heap, by capacity (the
    /// attributes' dictionaries are not counted).
    pub fn heap_bytes(&self) -> usize {
        self.labels.capacity() * std::mem::size_of::<bool>()
            + self.columns.capacity() * std::mem::size_of::<ColumnCells>()
            + self
                .columns
                .iter()
                .map(ColumnCells::heap_bytes)
                .sum::<usize>()
    }

    /// Per-attribute observed numeric range `(min, max)`, ignoring missing
    /// values (NaN included: a single NaN cell must not poison the range
    /// every Relief `diff` normalises by).  Returns `None` when no numeric
    /// value was observed.
    pub fn numeric_range(&self, attr: usize) -> Option<(f64, f64)> {
        let widen = |range: Option<(f64, f64)>, v: f64| {
            Some(match range {
                None => (v, v),
                Some((lo, hi)) => (lo.min(v), hi.max(v)),
            })
        };
        match &self.columns[attr] {
            ColumnCells::Numeric(cells) => cells
                .iter()
                .filter(|v| !v.is_nan())
                .fold(None, |range, &v| widen(range, v)),
            ColumnCells::Mixed(cells) => {
                cells.iter().filter_map(AttrValue::as_num).fold(None, widen)
            }
            ColumnCells::Absent | ColumnCells::Nominal(_) => None,
        }
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
        assert_eq!(ds.value(0, 0), AttrValue::Num(1.0));
        assert!(ds.value(2, 0).is_missing());
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
        match ds.column(0) {
            ColumnCells::Numeric(cells) => {
                assert_eq!(cells.len(), 3);
                assert_eq!(cells[0], 1.0);
                assert!(cells[2].is_nan());
            }
            other => panic!("expected a numeric column, got {other:?}"),
        }
        // Nominal column: ids verbatim.
        match ds.column(1) {
            ColumnCells::Nominal(cells) => assert_eq!(cells, &vec![0, 1, 0]),
            other => panic!("expected a nominal column, got {other:?}"),
        }
        // A NaN cell does not force a numeric column to Mixed, and reads
        // back as missing.
        let mut with_nan = Dataset::new(vec![Attribute::numeric("x")]);
        with_nan.push(vec![AttrValue::Num(f64::NAN)], true);
        with_nan.push(vec![AttrValue::Num(2.0)], false);
        assert!(matches!(with_nan.column(0), ColumnCells::Numeric(_)));
        assert_eq!(with_nan.value(0, 0), AttrValue::Missing);
        assert_eq!(with_nan.value(1, 0), AttrValue::Num(2.0));
        // Mixed numeric/nominal cells fall back to raw cells, the ones
        // before the widening included.
        let mut mixed = Dataset::new(vec![Attribute::nominal("x")]);
        let id = mixed.attribute_mut(0).dictionary.intern("a");
        mixed.push(vec![AttrValue::Missing], false);
        mixed.push(vec![AttrValue::Nom(id)], true);
        mixed.push(vec![AttrValue::Num(2.0)], false);
        mixed.push(vec![AttrValue::Num(f64::NAN)], false);
        assert_eq!(
            mixed.column(0),
            &ColumnCells::Mixed(vec![
                AttrValue::Missing,
                AttrValue::Nom(id),
                AttrValue::Num(2.0),
                AttrValue::Missing,
            ])
        );
        // No present cell, NaN and the reserved id included: absent.
        let mut absent = Dataset::new(vec![Attribute::nominal("x")]);
        for cell in [
            AttrValue::Missing,
            AttrValue::Num(f64::NAN),
            AttrValue::Nom(NO_NOMINAL),
        ] {
            absent.push(vec![cell], true);
        }
        assert_eq!(absent.column(0), &ColumnCells::Absent);
        assert!((0..3).all(|i| absent.value(i, 0).is_missing()));
    }

    /// Each shape charges its cells' bytes: nothing for an absent column,
    /// 4 a row for a nominal one, 8 for a numeric one, 16 for a mixed one,
    /// plus one per label and the column's own header.
    #[test]
    fn heap_bytes_charge_each_shape_its_cells() {
        let rows = 100;
        let shaped = |cell: &dyn Fn(usize) -> AttrValue| {
            let mut column = ColumnBuilder::with_capacity(rows);
            (0..rows).for_each(|i| column.push(cell(i)));
            let labels = (0..rows).map(|i| i % 2 == 0).collect();
            Dataset::from_columns(vec![Attribute::numeric("x")], vec![column.finish()], labels)
        };
        let cells = |ds: &Dataset| ds.heap_bytes() - rows - std::mem::size_of::<ColumnCells>();

        let absent = shaped(&|i| {
            if i % 2 == 0 {
                AttrValue::Missing
            } else {
                AttrValue::Num(f64::NAN)
            }
        });
        assert_eq!(absent.column(0), &ColumnCells::Absent);
        assert_eq!(cells(&absent), 0);

        let nominal = shaped(&|i| match i % 3 {
            0 => AttrValue::Missing,
            _ => AttrValue::Nom(i as u32 % 5),
        });
        assert!(matches!(nominal.column(0), ColumnCells::Nominal(_)));
        assert_eq!(cells(&nominal), 4 * rows);

        // The first present cell arrives late: the cells before it are
        // filled as missing, NaN reads back as missing.
        let numeric = shaped(&|i| match i {
            0..=9 => AttrValue::Missing,
            10 => AttrValue::Num(f64::NAN),
            _ => AttrValue::Num(i as f64),
        });
        assert!(matches!(numeric.column(0), ColumnCells::Numeric(_)));
        assert_eq!(cells(&numeric), 8 * rows);
        assert!((0..=10).all(|i| numeric.value(i, 0).is_missing()));
        assert_eq!(numeric.value(11, 0), AttrValue::Num(11.0));

        let mixed = shaped(&|i| match i % 2 {
            0 => AttrValue::Nom(1),
            _ => AttrValue::Num(i as f64),
        });
        assert!(matches!(mixed.column(0), ColumnCells::Mixed(_)));
        assert_eq!(cells(&mixed), 16 * rows);
    }

    #[test]
    #[should_panic(expected = "holds 2 cells for 3 labels")]
    fn from_columns_rejects_a_short_column() {
        Dataset::from_columns(
            vec![Attribute::numeric("x")],
            vec![ColumnCells::Numeric(vec![1.0, 2.0])],
            vec![true, false, true],
        );
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn push_rejects_wrong_width() {
        let mut ds = toy();
        ds.push(vec![AttrValue::Num(1.0)], true);
    }
}
