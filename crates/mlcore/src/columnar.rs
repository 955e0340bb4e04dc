//! Column-major storage for encoded feature columns.
//!
//! The PerfXplain hot path classifies *pairs* of rows, so the natural data
//! layout is one contiguous column per raw feature: each cell is an
//! [`AttrValue`] (numeric, interned nominal, or missing) and each nominal
//! column carries the interning dictionary of its
//! [`Attribute`].  A [`ColumnStore`] is built
//! once per log and then read millions of times without further allocation;
//! the dataset the split search consumes is encoded straight from these
//! columns.
//!
//! # Segments
//!
//! Large logs are encoded as **segments**: each shard of the row space is
//! encoded independently into its own `ColumnStore` — same schema, but a
//! *local* dictionary per attribute — and [`ColumnStore::merge_segments`]
//! stitches the shards back into one global store by remapping every local
//! dictionary id onto a merged global dictionary.  Because each local
//! dictionary interns values in first-occurrence order and segments are
//! merged in row order, the merged store is **bit-identical** to encoding
//! all rows in one pass: same ids, same cells, same dictionary order.

use crate::codec::{
    bits_needed, decode_f64_stream, encode_f64_stream, ByteReader, ByteWriter, CodecError,
    CodecResult,
};
use crate::dataset::{AttrKind, AttrValue, Attribute};
use crate::hash::FxHashMap;
use std::ops::Deref;
use std::sync::Arc;

/// Kind tags describing the present cells of one encoded column.
const KINDS_NUM: u8 = 0;
const KINDS_NOM: u8 = 1;
const KINDS_MIXED: u8 = 2;

/// One immutable, reference-counted column of cells.
///
/// Cloning a `ColumnData` — and therefore a [`ColumnStore`] — shares the
/// underlying buffer instead of copying it.  This is what lets the snapshot
/// open path hand freshly decoded columns to a view without a memcpy: the
/// decoder builds each column once, and every later consumer adopts the
/// same `Arc`-backed buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnData(Arc<[AttrValue]>);

impl ColumnData {
    /// The cells, as a slice.
    pub fn as_slice(&self) -> &[AttrValue] {
        &self.0
    }
}

impl Deref for ColumnData {
    type Target = [AttrValue];

    fn deref(&self) -> &[AttrValue] {
        &self.0
    }
}

impl From<Vec<AttrValue>> for ColumnData {
    fn from(cells: Vec<AttrValue>) -> Self {
        ColumnData(cells.into())
    }
}

/// An immutable column-major table of encoded feature values.
#[derive(Debug, Clone, Default)]
pub struct ColumnStore {
    attributes: Vec<Attribute>,
    columns: Vec<ColumnData>,
    index: FxHashMap<String, usize>,
    rows: usize,
}

impl PartialEq for ColumnStore {
    fn eq(&self, other: &Self) -> bool {
        // The name index and row count are derived from the columns.
        self.attributes == other.attributes && self.columns == other.columns
    }
}

/// The result of merging per-shard segment stores: the global store plus the
/// per-segment, per-column dictionary remap tables
/// (`remaps[segment][column][local_id]` = global id) so callers can remap
/// any side data they keyed by local ids.
#[derive(Debug, Clone)]
pub struct MergedStore {
    /// The merged global store.
    pub store: ColumnStore,
    /// `remaps[segment][column][local_id]` = global dictionary id.
    pub remaps: Vec<Vec<Vec<u32>>>,
}

/// The result of splicing a tail segment onto a base store: the combined
/// store plus the tail's per-column dictionary remap tables
/// (`remaps[column][local_id]` = global id) so callers can remap side data
/// keyed by the tail's local ids.
#[derive(Debug, Clone)]
pub struct SplicedStore {
    /// The combined store (base rows first, then the remapped tail rows).
    pub store: ColumnStore,
    /// `remaps[column][local_id]` = global dictionary id.
    pub remaps: Vec<Vec<u32>>,
}

impl ColumnStore {
    /// Builds a store from per-attribute columns.
    ///
    /// # Panics
    /// Panics when the number of columns does not match the number of
    /// attributes or when the columns are ragged.
    pub fn from_columns(attributes: Vec<Attribute>, columns: Vec<Vec<AttrValue>>) -> Self {
        ColumnStore::from_column_data(attributes, columns.into_iter().map(Into::into).collect())
    }

    /// Builds a store from already-shared columns, adopting the `Arc`
    /// buffers without copying any cells.
    ///
    /// # Panics
    /// Panics when the number of columns does not match the number of
    /// attributes or when the columns are ragged.
    pub fn from_column_data(attributes: Vec<Attribute>, columns: Vec<ColumnData>) -> Self {
        assert_eq!(
            attributes.len(),
            columns.len(),
            "attribute/column count mismatch"
        );
        let rows = columns.first().map(|c| c.len()).unwrap_or(0);
        for (attribute, column) in attributes.iter().zip(&columns) {
            assert_eq!(
                column.len(),
                rows,
                "ragged column {} ({} rows, expected {rows})",
                attribute.name,
                column.len()
            );
        }
        let index = attributes
            .iter()
            .enumerate()
            .map(|(i, a)| (a.name.clone(), i))
            .collect();
        ColumnStore {
            attributes,
            columns,
            index,
            rows,
        }
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.attributes.len()
    }

    /// The schema.
    pub fn attributes(&self) -> &[Attribute] {
        &self.attributes
    }

    /// The attribute of column `col`.
    pub fn attribute(&self, col: usize) -> &Attribute {
        &self.attributes[col]
    }

    /// Index of the column named `name`.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }

    /// The cells of column `col`.
    pub fn column(&self, col: usize) -> &[AttrValue] {
        &self.columns[col]
    }

    /// The cell at (`row`, `col`).
    #[inline]
    pub fn value(&self, row: usize, col: usize) -> AttrValue {
        self.columns[col][row]
    }

    /// Merges independently encoded segment stores into one global store.
    ///
    /// Every segment must share the schema of the first (same attribute
    /// names and kinds, in the same order); dictionaries are local to each
    /// segment.  The merged store concatenates the segments' rows in order
    /// and rebuilds one global dictionary per attribute by interning each
    /// segment's dictionary values in segment order — which is exactly
    /// first-occurrence order over the concatenated rows, so the result is
    /// bit-identical to a single-pass encoding.
    ///
    /// # Panics
    /// Panics when `segments` is empty or the schemas disagree.
    pub fn merge_segments(mut segments: Vec<ColumnStore>) -> MergedStore {
        assert!(!segments.is_empty(), "merge_segments needs >= 1 segment");

        // A single segment already *is* the merged store: adopt its
        // `Arc`-shared columns and dictionaries outright (the remap is the
        // identity) instead of copying every cell.  This is the zero-copy
        // fast path of the snapshot open: a snapshot persisted as one shard
        // per kind hands its decoded buffers straight to the view.
        if segments.len() == 1 {
            let store = segments.pop().expect("length checked above");
            let remaps = vec![store
                .attributes
                .iter()
                .map(|a| (0..a.dictionary.len() as u32).collect())
                .collect()];
            return MergedStore { store, remaps };
        }

        let num_columns = segments[0].num_columns();
        for segment in &segments[1..] {
            assert_eq!(
                segment.num_columns(),
                num_columns,
                "segment schema width mismatch"
            );
            for (first, this) in segments[0].attributes.iter().zip(&segment.attributes) {
                assert_eq!(first.name, this.name, "segment attribute name mismatch");
                assert_eq!(
                    first.kind, this.kind,
                    "segment attribute kind mismatch on {}",
                    first.name
                );
            }
        }

        // Global attributes: the shared schema with fresh dictionaries.
        // Note that even numeric attributes can carry dictionary entries
        // (mixed-type columns intern their non-numeric cells), so every
        // attribute's dictionary is merged, not just the nominal ones.
        let mut attributes: Vec<Attribute> = segments[0]
            .attributes
            .iter()
            .map(|a| Attribute {
                name: a.name.clone(),
                kind: a.kind,
                dictionary: Default::default(),
            })
            .collect();
        let mut remaps: Vec<Vec<Vec<u32>>> = Vec::with_capacity(segments.len());
        for segment in &segments {
            let mut segment_remap = Vec::with_capacity(num_columns);
            for (col, attribute) in segment.attributes.iter().enumerate() {
                let global = &mut attributes[col].dictionary;
                let remap: Vec<u32> = attribute
                    .dictionary
                    .iter()
                    .map(|(_, value)| global.intern(value))
                    .collect();
                segment_remap.push(remap);
            }
            remaps.push(segment_remap);
        }

        // Concatenate cells, consuming segments one at a time so each
        // segment's buffers are freed as soon as its rows are copied: peak
        // memory is the merged columns plus one segment, not 2× the total.
        let rows: usize = segments.iter().map(|s| s.rows).sum();
        let mut columns: Vec<Vec<AttrValue>> =
            (0..num_columns).map(|_| Vec::with_capacity(rows)).collect();
        for (segment, segment_remap) in segments.into_iter().zip(&remaps) {
            for (col, column) in segment.columns.iter().enumerate() {
                let remap = &segment_remap[col];
                columns[col].extend(column.iter().map(|cell| match cell {
                    AttrValue::Nom(id) => AttrValue::Nom(remap[*id as usize]),
                    other => *other,
                }));
            }
        }

        MergedStore {
            store: ColumnStore::from_columns(attributes, columns),
            remaps,
        }
    }

    /// Splices a freshly encoded tail segment onto this store's dictionary
    /// space: the result carries this store's dictionaries **extended in
    /// place** with the tail's values (first-occurrence order preserved, so
    /// existing ids never move) and the tail's cells remapped onto those
    /// extended dictionaries.  This is the delta-maintenance primitive: the
    /// base store's columns and ids stay valid untouched, and only the
    /// O(tail) cells plus the O(new values) dictionary entries are produced.
    ///
    /// The spliced store's rows are this store's rows followed by the
    /// tail's rows; because the tail's local dictionaries intern in
    /// first-occurrence order and are appended after every base value, the
    /// result is bit-identical to encoding all rows in one pass.
    ///
    /// # Panics
    /// Panics when the tail's schema (attribute names and kinds, in order)
    /// differs from this store's.
    pub fn splice_tail(&self, tail: &ColumnStore) -> SplicedStore {
        assert_eq!(
            tail.num_columns(),
            self.num_columns(),
            "tail schema width mismatch"
        );
        for (base, this) in self.attributes.iter().zip(&tail.attributes) {
            assert_eq!(base.name, this.name, "tail attribute name mismatch");
            assert_eq!(
                base.kind, this.kind,
                "tail attribute kind mismatch on {}",
                base.name
            );
        }
        let mut attributes = self.attributes.clone();
        let mut remaps: Vec<Vec<u32>> = Vec::with_capacity(self.num_columns());
        for (col, attribute) in tail.attributes.iter().enumerate() {
            let global = &mut attributes[col].dictionary;
            remaps.push(
                attribute
                    .dictionary
                    .iter()
                    .map(|(_, value)| global.intern(value))
                    .collect(),
            );
        }
        let columns: Vec<Vec<AttrValue>> = (0..self.num_columns())
            .map(|col| {
                let remap = &remaps[col];
                let mut cells = Vec::with_capacity(self.rows + tail.rows);
                cells.extend_from_slice(&self.columns[col]);
                cells.extend(tail.columns[col].iter().map(|cell| match cell {
                    AttrValue::Nom(id) => AttrValue::Nom(remap[*id as usize]),
                    other => *other,
                }));
                cells
            })
            .collect();
        SplicedStore {
            store: ColumnStore::from_columns(attributes, columns),
            remaps,
        }
    }

    /// Concatenates two stores whose cells are already encoded against one
    /// shared dictionary space: `front`'s dictionaries must be a prefix of
    /// `back`'s (the invariant [`ColumnStore::splice_tail`] maintains), and
    /// the result adopts `back`'s attributes — the full dictionaries —
    /// with the cell streams concatenated verbatim.  This is the tail
    /// compaction step: fold an oversized tail into the base without
    /// re-interning a single value.
    ///
    /// # Panics
    /// Panics when the schemas disagree or `front`'s dictionaries are not a
    /// prefix of `back`'s.
    pub fn concat_encoded(front: &ColumnStore, back: &ColumnStore) -> ColumnStore {
        assert_eq!(
            front.num_columns(),
            back.num_columns(),
            "concat schema width mismatch"
        );
        for (a, b) in front.attributes.iter().zip(&back.attributes) {
            assert_eq!(a.name, b.name, "concat attribute name mismatch");
            assert_eq!(
                a.kind, b.kind,
                "concat attribute kind mismatch on {}",
                a.name
            );
            assert!(
                a.dictionary.len() <= b.dictionary.len()
                    && a.dictionary
                        .iter()
                        .all(|(id, value)| b.dictionary.resolve(id) == Some(value)),
                "front dictionary is not a prefix of back's on {}",
                a.name
            );
        }
        let columns: Vec<Vec<AttrValue>> = (0..front.num_columns())
            .map(|col| {
                let mut cells = Vec::with_capacity(front.rows + back.rows);
                cells.extend_from_slice(&front.columns[col]);
                cells.extend_from_slice(&back.columns[col]);
                cells
            })
            .collect();
        ColumnStore::from_columns(back.attributes.clone(), columns)
    }

    /// Appends the store's binary encoding (the compressed v2 column
    /// format) to `writer`.
    ///
    /// The format is column-major and self-delimiting: schema first (per
    /// attribute: name, kind, dictionary values in intern order), then one
    /// compressed cell stream per column:
    ///
    /// ```text
    /// presence bitmap   ⌈rows/8⌉ bytes, bit r set = row r has a value
    /// kind tag          1 byte: all-numeric / all-nominal / mixed
    /// [kind bitmap]     mixed only: ⌈present/8⌉ bytes, bit = nominal
    /// [nominal ids]     if any: width byte (⌈log₂ dict len⌉) + packed ids
    /// [numeric stream]  if any: FoR / delta / raw, whichever is smallest
    /// ```
    ///
    /// Missing cells cost one bitmap bit; dictionary ids cost
    /// ⌈log₂(dict len)⌉ bits; integral numerics cost their
    /// frame-of-reference (or delta) width; incompressible numerics fall
    /// back to their raw 8-byte bit patterns.  No text formatting and no
    /// per-cell allocation on either side — this is the on-disk form the
    /// snapshot store serves cold starts from, bypassing serde-JSON
    /// entirely.  Decode with [`ColumnStore::decode_binary`].
    pub fn encode_binary(&self, writer: &mut ByteWriter) {
        writer.put_u32(self.attributes.len() as u32);
        writer.put_u64(self.rows as u64);
        for attribute in &self.attributes {
            writer.put_str(&attribute.name);
            writer.put_u8(match attribute.kind {
                AttrKind::Numeric => 0,
                AttrKind::Nominal => 1,
            });
            writer.put_u32(attribute.dictionary.len() as u32);
            for (_, value) in attribute.dictionary.iter() {
                writer.put_str(value);
            }
        }
        for (attribute, column) in self.attributes.iter().zip(&self.columns) {
            encode_column(writer, attribute, column);
        }
    }

    /// Decodes a store previously written by [`ColumnStore::encode_binary`].
    ///
    /// Every read is checked: truncated input (including a presence bitmap
    /// shorter than the row count), invalid kind tags, impossible bit
    /// widths, duplicate dictionary entries and out-of-range nominal ids
    /// all return a typed [`CodecError`] — corrupt snapshot files must
    /// never panic the process that opens them, and no allocation is sized
    /// by an unverified count.  The decoded store is bit-identical to the
    /// encoded one (dictionary ids are re-interned in stored order, NaN
    /// and `-0.0` cells keep their exact bit patterns), and its columns
    /// land directly in fresh [`ColumnData`] buffers ready for zero-copy
    /// sharing.
    pub fn decode_binary(reader: &mut ByteReader<'_>) -> CodecResult<ColumnStore> {
        let num_columns = reader.get_u32()? as usize;
        let rows = reader.get_u64()? as usize;
        // Corrupt counts must fail at the first checked read, not via an
        // attempted count-sized allocation: every column needs at least one
        // byte of schema and one presence bitmap bit per cell.
        if num_columns > reader.remaining() {
            return Err(CodecError::Invalid(format!(
                "column count {num_columns} exceeds the {} remaining byte(s)",
                reader.remaining()
            )));
        }
        if num_columns > 0 && rows.div_ceil(8) > reader.remaining() {
            return Err(CodecError::Invalid(format!(
                "row count {rows} exceeds the {} remaining byte(s)",
                reader.remaining()
            )));
        }
        let mut attributes = Vec::with_capacity(num_columns);
        for _ in 0..num_columns {
            let name = reader.get_str()?.to_string();
            let kind = match reader.get_u8()? {
                0 => AttrKind::Numeric,
                1 => AttrKind::Nominal,
                tag => {
                    return Err(CodecError::Invalid(format!(
                        "unknown attribute kind tag {tag} on column '{name}'"
                    )))
                }
            };
            let mut attribute = match kind {
                AttrKind::Numeric => Attribute::numeric(name),
                AttrKind::Nominal => Attribute::nominal(name),
            };
            let dict_len = reader.get_u32()? as usize;
            for expected in 0..dict_len {
                let value = reader.get_str()?;
                let id = attribute.dictionary.intern(value) as usize;
                if id != expected {
                    return Err(CodecError::Invalid(format!(
                        "duplicate dictionary entry '{value}' on column '{}'",
                        attribute.name
                    )));
                }
            }
            attributes.push(attribute);
        }
        let mut columns = Vec::with_capacity(num_columns);
        for attribute in &attributes {
            columns.push(decode_column(reader, attribute, rows)?.into());
        }
        Ok(ColumnStore::from_column_data(attributes, columns))
    }
}

/// Encodes one column as presence bitmap + kind split + packed sub-streams
/// (see [`ColumnStore::encode_binary`] for the layout).
fn encode_column(writer: &mut ByteWriter, attribute: &Attribute, cells: &[AttrValue]) {
    let presence: Vec<bool> = cells.iter().map(|cell| !cell.is_missing()).collect();
    writer.put_bitmap(&presence);

    // Split the present cells into the nominal-id and numeric sub-streams,
    // remembering which was which for mixed columns.
    let mut ids: Vec<u64> = Vec::new();
    let mut nums: Vec<f64> = Vec::new();
    let mut kinds: Vec<bool> = Vec::new();
    for cell in cells {
        match cell {
            AttrValue::Missing => {}
            AttrValue::Num(v) => {
                nums.push(*v);
                kinds.push(false);
            }
            AttrValue::Nom(id) => {
                ids.push(*id as u64);
                kinds.push(true);
            }
        }
    }
    let kind_tag = if ids.is_empty() {
        KINDS_NUM
    } else if nums.is_empty() {
        KINDS_NOM
    } else {
        KINDS_MIXED
    };
    writer.put_u8(kind_tag);
    if kind_tag == KINDS_MIXED {
        writer.put_bitmap(&kinds);
    }
    if !ids.is_empty() {
        // Ids are packed at the dictionary's canonical width; the width
        // byte is redundant with the dictionary length, which is exactly
        // what lets the decoder reject a tampered width outright.
        let width = bits_needed(attribute.dictionary.len().saturating_sub(1) as u64);
        writer.put_u8(width as u8);
        writer.put_packed(&ids, width);
    }
    if !nums.is_empty() {
        encode_f64_stream(writer, &nums);
    }
}

/// Decodes one column written by [`encode_column`].  The `rows` bound was
/// validated against the input length by the caller, and every allocation
/// below happens only after the bytes backing it were actually consumed.
fn decode_column(
    reader: &mut ByteReader<'_>,
    attribute: &Attribute,
    rows: usize,
) -> CodecResult<Vec<AttrValue>> {
    let presence = reader.get_bitmap(rows)?;
    let present = presence.iter().filter(|&&bit| bit).count();
    let kind_tag = reader.get_u8()?;
    let kinds: Option<Vec<bool>> = match kind_tag {
        KINDS_NUM | KINDS_NOM => None,
        KINDS_MIXED => Some(reader.get_bitmap(present)?),
        tag => {
            return Err(CodecError::Invalid(format!(
                "unknown column kind tag {tag} on column '{}'",
                attribute.name
            )))
        }
    };
    let nom_count = match kind_tag {
        KINDS_NUM => 0,
        KINDS_NOM => present,
        _ => kinds
            .as_ref()
            .map(|k| k.iter().filter(|&&bit| bit).count())
            .unwrap_or(0),
    };
    let num_count = present - nom_count;

    let ids = if nom_count > 0 {
        let dict_len = attribute.dictionary.len();
        if dict_len == 0 {
            return Err(CodecError::Invalid(format!(
                "nominal cells with an empty dictionary on column '{}'",
                attribute.name
            )));
        }
        let expected = bits_needed((dict_len - 1) as u64);
        let width = reader.get_u8()? as u32;
        if width != expected {
            return Err(CodecError::Invalid(format!(
                "impossible bit width {width} on column '{}' \
                 ({dict_len} dictionary entries pack at {expected} bit(s))",
                attribute.name
            )));
        }
        let ids = reader.get_packed(nom_count, width)?;
        for &id in &ids {
            if id as usize >= dict_len {
                return Err(CodecError::Invalid(format!(
                    "nominal id {id} out of range on column '{}' \
                     (dictionary has {dict_len} entries)",
                    attribute.name
                )));
            }
        }
        ids
    } else {
        Vec::new()
    };
    let nums = if num_count > 0 {
        decode_f64_stream(reader, num_count)?
    } else {
        Vec::new()
    };

    // Reassemble the cells by walking the bitmaps and pulling from the two
    // sub-streams in order.
    let mut cells = Vec::with_capacity(rows);
    let mut nom_at = 0usize;
    let mut num_at = 0usize;
    let mut present_at = 0usize;
    for &bit in &presence {
        if !bit {
            cells.push(AttrValue::Missing);
            continue;
        }
        let is_nominal = match kind_tag {
            KINDS_NUM => false,
            KINDS_NOM => true,
            _ => kinds.as_ref().expect("mixed columns carry a kind bitmap")[present_at],
        };
        present_at += 1;
        if is_nominal {
            cells.push(AttrValue::Nom(ids[nom_at] as u32));
            nom_at += 1;
        } else {
            cells.push(AttrValue::Num(nums[num_at]));
            num_at += 1;
        }
    }
    Ok(cells)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::AttrKind;

    fn store() -> ColumnStore {
        let mut script = Attribute::nominal("script");
        let filter = script.dictionary.intern("filter.pig");
        let group = script.dictionary.intern("group.pig");
        ColumnStore::from_columns(
            vec![Attribute::numeric("size"), script],
            vec![
                vec![AttrValue::Num(1.0), AttrValue::Missing, AttrValue::Num(3.0)],
                vec![
                    AttrValue::Nom(filter),
                    AttrValue::Nom(group),
                    AttrValue::Nom(filter),
                ],
            ],
        )
    }

    #[test]
    fn accessors_expose_cells_and_schema() {
        let store = store();
        assert_eq!(store.num_rows(), 3);
        assert_eq!(store.num_columns(), 2);
        assert_eq!(store.column_index("script"), Some(1));
        assert_eq!(store.column_index("nope"), None);
        assert_eq!(store.value(0, 0), AttrValue::Num(1.0));
        assert!(store.value(1, 0).is_missing());
        assert_eq!(store.attribute(1).kind, AttrKind::Nominal);
        assert_eq!(store.attribute(1).dictionary.resolve(0), Some("filter.pig"));
        assert_eq!(store.column(0).len(), 3);
    }

    #[test]
    fn empty_store_is_fine() {
        let store = ColumnStore::from_columns(vec![], vec![]);
        assert_eq!(store.num_rows(), 0);
        assert_eq!(store.num_columns(), 0);
    }

    #[test]
    #[should_panic(expected = "ragged column")]
    fn ragged_columns_are_rejected() {
        ColumnStore::from_columns(
            vec![Attribute::numeric("a"), Attribute::numeric("b")],
            vec![vec![AttrValue::Num(1.0)], vec![]],
        );
    }

    /// Encodes `values` into a one-column store with a local dictionary.
    fn nominal_segment(values: &[&str]) -> ColumnStore {
        let mut attribute = Attribute::nominal("script");
        let column = values
            .iter()
            .map(|v| AttrValue::Nom(attribute.dictionary.intern(v)))
            .collect();
        ColumnStore::from_columns(vec![attribute], vec![column])
    }

    #[test]
    fn merged_segments_are_bit_identical_to_a_single_pass() {
        // Shards with overlapping and disjoint dictionary entries, in
        // orders that differ from the global first-occurrence order.
        let all = ["b", "a", "b", "c", "a", "d", "e", "c"];
        let single = nominal_segment(&all);
        for split in 1..all.len() {
            let merged = ColumnStore::merge_segments(vec![
                nominal_segment(&all[..split]),
                nominal_segment(&all[split..]),
            ]);
            assert_eq!(merged.store, single, "split at {split} diverges");
            assert_eq!(merged.remaps.len(), 2);
        }
    }

    #[test]
    fn merge_remaps_local_ids_onto_the_global_dictionary() {
        let merged = ColumnStore::merge_segments(vec![
            nominal_segment(&["x", "y"]),
            nominal_segment(&["y", "z"]),
        ]);
        let dictionary = &merged.store.attribute(0).dictionary;
        assert_eq!(dictionary.resolve(0), Some("x"));
        assert_eq!(dictionary.resolve(1), Some("y"));
        assert_eq!(dictionary.resolve(2), Some("z"));
        // Segment 1's local ids 0 ("y") and 1 ("z") map to global 1 and 2.
        assert_eq!(merged.remaps[1][0], vec![1, 2]);
        assert_eq!(merged.store.value(2, 0), AttrValue::Nom(1));
        assert_eq!(merged.store.value(3, 0), AttrValue::Nom(2));
    }

    #[test]
    fn merging_one_segment_is_the_identity() {
        let store = store();
        let merged = ColumnStore::merge_segments(vec![store.clone()]);
        assert_eq!(merged.store, store);
    }

    #[test]
    fn splice_tail_extends_dictionaries_in_place() {
        // Base interns "b", "a"; the tail's local dictionary ("a", "c")
        // must remap onto {b:0, a:1, c:2} without moving base ids.
        let base = nominal_segment(&["b", "a", "b"]);
        let tail = nominal_segment(&["a", "c", "a"]);
        let spliced = base.splice_tail(&tail);
        let single = nominal_segment(&["b", "a", "b", "a", "c", "a"]);
        assert_eq!(spliced.store, single);
        assert_eq!(spliced.remaps[0], vec![1, 2]);
        // Base ids are untouched: "b" is still 0, "a" still 1.
        let dictionary = &spliced.store.attribute(0).dictionary;
        assert_eq!(dictionary.resolve(0), Some("b"));
        assert_eq!(dictionary.resolve(1), Some("a"));
        assert_eq!(dictionary.resolve(2), Some("c"));
    }

    #[test]
    fn splice_tail_onto_an_empty_base_adopts_the_tail() {
        let empty = {
            let attribute = Attribute::nominal("script");
            ColumnStore::from_columns(vec![attribute], vec![vec![]])
        };
        let tail = nominal_segment(&["x", "y", "x"]);
        let spliced = empty.splice_tail(&tail);
        assert_eq!(spliced.store, tail);
        assert_eq!(spliced.remaps[0], vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "tail attribute name mismatch")]
    fn splice_tail_rejects_mismatched_schemas() {
        let base = ColumnStore::from_columns(vec![Attribute::numeric("a")], vec![vec![]]);
        let tail = ColumnStore::from_columns(vec![Attribute::numeric("b")], vec![vec![]]);
        base.splice_tail(&tail);
    }

    #[test]
    fn concat_encoded_folds_a_spliced_tail_into_the_base() {
        let base = nominal_segment(&["b", "a"]);
        let tail = {
            // Encode the tail against the base's dictionary space via
            // splice onto an empty store carrying the base dictionaries.
            let empty = ColumnStore::from_columns(base.attributes().to_vec(), vec![vec![]]);
            empty.splice_tail(&nominal_segment(&["a", "c"])).store
        };
        let folded = ColumnStore::concat_encoded(&base, &tail);
        assert_eq!(folded, nominal_segment(&["b", "a", "a", "c"]));
    }

    #[test]
    #[should_panic(expected = "not a prefix")]
    fn concat_encoded_rejects_diverged_dictionaries() {
        let front = nominal_segment(&["a", "b"]);
        let back = nominal_segment(&["b", "a"]);
        ColumnStore::concat_encoded(&front, &back);
    }

    #[test]
    #[should_panic(expected = "segment attribute name mismatch")]
    fn merge_rejects_mismatched_schemas() {
        ColumnStore::merge_segments(vec![
            ColumnStore::from_columns(vec![Attribute::numeric("a")], vec![vec![]]),
            ColumnStore::from_columns(vec![Attribute::numeric("b")], vec![vec![]]),
        ]);
    }

    #[test]
    fn binary_codec_round_trips_bit_identically() {
        for store in [store(), ColumnStore::from_columns(vec![], vec![])] {
            let mut writer = ByteWriter::new();
            store.encode_binary(&mut writer);
            let bytes = writer.into_bytes();
            let mut reader = ByteReader::new(&bytes);
            let decoded = ColumnStore::decode_binary(&mut reader).unwrap();
            assert!(reader.is_exhausted());
            assert_eq!(decoded, store);
            // The derived state is rebuilt too, not just the PartialEq
            // surface.
            assert_eq!(decoded.num_rows(), store.num_rows());
            for (col, attribute) in store.attributes().iter().enumerate() {
                assert_eq!(decoded.column_index(&attribute.name), Some(col));
            }
        }
    }

    #[test]
    fn binary_decode_rejects_any_truncation() {
        let mut writer = ByteWriter::new();
        store().encode_binary(&mut writer);
        let bytes = writer.into_bytes();
        for cut in 0..bytes.len() {
            let mut reader = ByteReader::new(&bytes[..cut]);
            assert!(
                ColumnStore::decode_binary(&mut reader).is_err(),
                "truncation at byte {cut} was not detected"
            );
        }
    }

    #[test]
    fn binary_decode_rejects_structural_corruption() {
        let mut writer = ByteWriter::new();
        store().encode_binary(&mut writer);
        let bytes = writer.into_bytes();

        // A bogus attribute-kind tag right after the first column name.
        let mut corrupt = bytes.clone();
        // Header: u32 columns + u64 rows + u32 name len + "size".
        let kind_at = 4 + 8 + 4 + 4;
        corrupt[kind_at] = 7;
        let mut reader = ByteReader::new(&corrupt);
        assert!(matches!(
            ColumnStore::decode_binary(&mut reader),
            Err(CodecError::Invalid(_))
        ));

        // An impossible bit width: the last column ("script", 2-entry
        // dictionary) ends with width byte + one packed byte, so the width
        // sits at len-2.  Its only legal value is 1.
        let mut corrupt = bytes.clone();
        let len = corrupt.len();
        corrupt[len - 2] = 63;
        let mut reader = ByteReader::new(&corrupt);
        match ColumnStore::decode_binary(&mut reader) {
            Err(CodecError::Invalid(message)) => {
                assert!(message.contains("impossible bit width"), "{message}")
            }
            other => panic!("expected an invalid-width error, got {other:?}"),
        }

        // An absurd row count fails fast instead of allocating: every
        // column carries at least a ceil(rows/8)-byte presence bitmap.
        let mut corrupt = bytes;
        corrupt[4..12].copy_from_slice(&u64::MAX.to_le_bytes());
        let mut reader = ByteReader::new(&corrupt);
        assert!(matches!(
            ColumnStore::decode_binary(&mut reader),
            Err(CodecError::Invalid(_))
        ));
    }

    #[test]
    fn binary_decode_rejects_out_of_range_packed_ids() {
        // Four 2-bit ids over a 3-entry dictionary pack into one byte
        // (the last byte of the encoding); forcing it to 0xFF yields ids
        // of 3, one past the dictionary.
        let store = nominal_segment(&["a", "b", "c", "a"]);
        let mut writer = ByteWriter::new();
        store.encode_binary(&mut writer);
        let mut corrupt = writer.into_bytes();
        let len = corrupt.len();
        assert_eq!(corrupt[len - 1], 0b0010_0100);
        corrupt[len - 1] = 0xFF;
        let mut reader = ByteReader::new(&corrupt);
        match ColumnStore::decode_binary(&mut reader) {
            Err(CodecError::Invalid(message)) => {
                assert!(message.contains("out of range"), "{message}")
            }
            other => panic!("expected an out-of-range error, got {other:?}"),
        }
    }

    #[test]
    fn binary_decode_rejects_short_presence_bitmap() {
        // 20 all-missing rows need a 3-byte presence bitmap; cutting into
        // it must surface as truncation, not a bad reassembly.
        let store = ColumnStore::from_columns(
            vec![Attribute::numeric("size")],
            vec![vec![AttrValue::Missing; 20]],
        );
        let mut writer = ByteWriter::new();
        store.encode_binary(&mut writer);
        let bytes = writer.into_bytes();
        let mut reader = ByteReader::new(&bytes[..bytes.len() - 2]);
        assert!(matches!(
            ColumnStore::decode_binary(&mut reader),
            Err(CodecError::Truncated { .. })
        ));
    }

    #[test]
    fn binary_codec_round_trips_adversarial_cells_bit_exactly() {
        // NaN, infinities, -0.0 and extreme magnitudes must survive with
        // their exact bit patterns (PartialEq treats NaN as unequal, so
        // compare via to_bits).  The mixed column also forces the
        // kind-bitmap path, and the constant nominal column a zero-bit
        // dictionary width.
        let mut constant = Attribute::nominal("constant");
        let only = constant.dictionary.intern("only");
        let mut mixed = Attribute::nominal("mixed");
        let tag = mixed.dictionary.intern("tag");
        let store = ColumnStore::from_columns(
            vec![Attribute::numeric("value"), constant, mixed],
            vec![
                vec![
                    AttrValue::Num(f64::NAN),
                    AttrValue::Num(f64::INFINITY),
                    AttrValue::Num(f64::NEG_INFINITY),
                    AttrValue::Num(-0.0),
                    AttrValue::Num(f64::MAX),
                    AttrValue::Num(f64::MIN_POSITIVE),
                ],
                vec![AttrValue::Nom(only); 6],
                vec![
                    AttrValue::Nom(tag),
                    AttrValue::Num(2.5),
                    AttrValue::Missing,
                    AttrValue::Nom(tag),
                    AttrValue::Num(-7.0),
                    AttrValue::Missing,
                ],
            ],
        );
        let mut writer = ByteWriter::new();
        store.encode_binary(&mut writer);
        let bytes = writer.into_bytes();
        let mut reader = ByteReader::new(&bytes);
        let decoded = ColumnStore::decode_binary(&mut reader).unwrap();
        assert!(reader.is_exhausted());
        for col in 0..store.num_columns() {
            for row in 0..store.num_rows() {
                match (store.value(row, col), decoded.value(row, col)) {
                    (AttrValue::Num(a), AttrValue::Num(b)) => {
                        assert_eq!(a.to_bits(), b.to_bits(), "cell ({row}, {col})")
                    }
                    (a, b) => assert_eq!(a, b, "cell ({row}, {col})"),
                }
            }
        }
    }

    #[test]
    fn binary_codec_round_trips_all_missing_and_empty_columns() {
        for store in [
            ColumnStore::from_columns(
                vec![Attribute::numeric("a"), Attribute::nominal("b")],
                vec![vec![AttrValue::Missing; 9], vec![AttrValue::Missing; 9]],
            ),
            ColumnStore::from_columns(
                vec![Attribute::numeric("a"), Attribute::nominal("b")],
                vec![vec![], vec![]],
            ),
        ] {
            let mut writer = ByteWriter::new();
            store.encode_binary(&mut writer);
            let bytes = writer.into_bytes();
            let mut reader = ByteReader::new(&bytes);
            let decoded = ColumnStore::decode_binary(&mut reader).unwrap();
            assert!(reader.is_exhausted());
            assert_eq!(decoded, store);
        }
    }
}
