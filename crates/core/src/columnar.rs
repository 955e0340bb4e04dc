//! Columnar encoded view of an execution log and query compilation.
//!
//! The training pipeline classifies O(n²) candidate pairs of executions.
//! The original implementation rebuilt a `BTreeMap<String, Value>` of pair
//! features — with `format!`-built keys — for every single pair.  This
//! module replaces that hot path with a **columnar, zero-re-encoding**
//! design:
//!
//! * [`ColumnarLog`] encodes the per-kind records of an [`ExecutionLog`]
//!   once into per-feature columns ([`mlcore::ColumnStore`]): numeric cells
//!   are stored inline, nominal cells are interned against a per-column
//!   dictionary keyed by the value's canonical PXQL text, and the original
//!   [`Value`] behind every interned id is retained for lossless decoding.
//! * [`CompiledQuery`] resolves a [`BoundQuery`]'s three clauses against the
//!   columns once — feature names are parsed into `(column index, pair
//!   feature group)` pairs and constants are pre-analysed — so classifying
//!   a candidate pair is a handful of integer/float comparisons with **no
//!   allocation and no string hashing**.  The quality metrics score an
//!   explanation over a drawn sample through the same
//!   [`CompiledPredicate`]s.
//!
//! Semantics match the map-based path (`compute_selected_pair_features` +
//! `BoundQuery::classify`) exactly, with one documented exception: two raw
//! nominal values that differ textually but compare equal under PXQL's
//! cross-type rules (e.g. `Bool(true)` vs the string `"true"`) intern to
//! different ids and therefore compare unequal here.  Canonical log
//! producers never mix value types within a feature, and `T`/`F` strings —
//! the forms the paper's queries use — share their canonical text with the
//! booleans they denote.

use crate::features::{FeatureCatalog, FeatureKind};
use crate::pairs::{compare_index, parse_pair_feature, PairFeatureGroup, COMPARE_VALUES};
use crate::query::{BoundQuery, PairLabel};
use crate::record::{ExecutionKind, ExecutionLog, ExecutionRecord};
use mlcore::{AttrValue, Attribute, ColumnStore, NominalDictionary};
use pxql::{Op, Predicate, Value};
use std::sync::Arc;

/// The columnar encoded view of the records of one execution kind.
///
/// A view holds only what only it can: the encoded cells, each row's
/// position in [`ExecutionLog::records`] ([`ColumnarLog::position`]), the
/// original [`Value`] behind every interned id, and each column's catalog
/// kind.  The [`ExecutionLog`] stays the only owner of its records and
/// keeps the one id index: [`ColumnarLog::row_of`] looks the id's position
/// up in the log, then binary-searches the view's ascending positions.  A
/// view is valid with the log it was built from, or with any log that has
/// only been appended to since (a clone at the same generation included),
/// because appends never move a record.  Any other mutation invalidates
/// it.  [`XplainService`](crate::service::XplainService) keeps that
/// contract with its per-generation cache and the log's rewrite watermarks
/// ([`ExecutionLog::rewrite_generation`]), so it can share one immutable
/// view behind an `Arc` among many concurrent queries.
///
/// One merge ([`ColumnStore::merge_segments`]: the first segment's
/// dictionaries are the global prefix, later segments are interned onto
/// them and remapped) builds, refreshes and folds a view:
///
/// * **Build.** Large logs are encoded **sharded**
///   ([`ColumnarLog::build_sharded`]): the row space is split into
///   contiguous segments, each encoded independently (local dictionaries)
///   as one job of the shared worker pool, and the merge yields a view
///   bit-identical to the single-shot encode.
/// * **Refresh.** A view is stored in two chunks: an immutable **base**
///   behind an `Arc` (everything encoded by the last full build or
///   compaction) and a small **tail** holding rows appended since.
///   [`ColumnarLog::with_appended`] encodes only the fresh records, merges
///   them onto the current tail (dictionaries extend in place, base ids
///   never move) and *shares* the base chunk with its predecessor — the
///   delta-maintenance path
///   [`XplainService`](crate::service::XplainService) refreshes cached
///   views through.
/// * **Fold.** [`ColumnarLog::compacted`] merges the base and the tail
///   into a fresh base.  The tail is already encoded against the base's
///   dictionaries extended, so its remap is the identity and no original
///   changes.
///
/// All three are bit-identical to a from-scratch build (proptested in
/// `tests/properties.rs`).
#[derive(Debug, Clone)]
pub struct ColumnarLog {
    kind: ExecutionKind,
    /// The immutable base chunk, shared across delta generations.
    base: Arc<ViewBase>,
    /// Log positions of the rows appended since the base was built, in row
    /// order (ascending, and above every base position).
    tail_positions: Vec<usize>,
    /// The tail's cells, encoded against the **global** dictionaries (the
    /// base dictionaries extended in place — base ids are a prefix).  The
    /// attributes here are the view's authoritative schema even when the
    /// tail has no rows.
    tail_store: ColumnStore,
    /// Per column: the original `Value` behind each interned nominal id
    /// (global ids, covering base and tail).
    originals: Vec<Vec<Value>>,
    /// Catalog kind per column.
    kinds: Vec<FeatureKind>,
}

/// The immutable base chunk of a [`ColumnarLog`]: the encoded columns and
/// the log positions (ascending) of the records they encode.  Shared via
/// `Arc` so a delta refresh never copies a base cell.
#[derive(Debug)]
struct ViewBase {
    store: ColumnStore,
    positions: Vec<usize>,
}

impl PartialEq for ColumnarLog {
    fn eq(&self, other: &Self) -> bool {
        // Logical-content equality, independent of the base/tail split: a
        // flat build and a delta-maintained view with the same rows,
        // positions, dictionaries and ids compare equal.
        if self.kind != other.kind
            || self.kinds != other.kinds
            || self.originals != other.originals
            || self.num_rows() != other.num_rows()
            || self.tail_store.attributes() != other.tail_store.attributes()
        {
            return false;
        }
        let columns = self.kinds.len();
        for row in 0..self.num_rows() {
            if self.position(row) != other.position(row) {
                return false;
            }
            for col in 0..columns {
                if self.cell(row, col) != other.cell(row, col) {
                    return false;
                }
            }
        }
        true
    }
}

/// One independently encoded shard: a local [`ColumnStore`] (own
/// dictionaries) plus the original `Value` behind each local nominal id.
/// Also the unit the snapshot store persists per shard and per kind
/// ([`crate::snapshot`]), which is why it is crate-visible.
#[derive(Debug, Clone)]
pub(crate) struct EncodedSegment {
    pub(crate) store: ColumnStore,
    pub(crate) originals: Vec<Vec<Value>>,
}

/// Positions in `records`, from `from` on, of the records of `kind`.
pub(crate) fn positions_of(
    records: &[ExecutionRecord],
    kind: ExecutionKind,
    from: usize,
) -> Vec<usize> {
    (from..records.len())
        .filter(|&at| records[at].kind == kind)
        .collect()
}

/// Encodes the records at `positions` of `records`, in that order, against
/// the shared catalog.  Cells are stored by *value* type: numeric values
/// inline, everything else interned by canonical text, so mixed-type
/// features keep the exact comparison semantics of the map-based path.
/// Records are read one at a time, every column's cell of a record before
/// the next record, so each record's features are fetched from memory once.
pub(crate) fn encode_segment(
    catalog: &FeatureCatalog,
    records: &[ExecutionRecord],
    positions: &[usize],
) -> EncodedSegment {
    use std::fmt::Write as _;
    let mut attributes: Vec<Attribute> = catalog
        .defs()
        .iter()
        .map(|def| match def.kind {
            FeatureKind::Numeric => Attribute::numeric(def.name.clone()),
            FeatureKind::Nominal => Attribute::nominal(def.name.clone()),
        })
        .collect();
    let mut columns: Vec<Vec<AttrValue>> = catalog
        .defs()
        .iter()
        .map(|_| Vec::with_capacity(positions.len()))
        .collect();
    let mut originals: Vec<Vec<Value>> = vec![Vec::new(); catalog.len()];
    // Canonical-text scratch buffer, reused across cells: interning must not
    // cost one heap allocation per record.
    let mut text = String::new();
    for &at in positions {
        let record = &records[at];
        for (col, def) in catalog.defs().iter().enumerate() {
            let cell = match record.feature_ref(&def.name) {
                None | Some(Value::Null) => AttrValue::Missing,
                Some(Value::Num(v)) => AttrValue::Num(*v),
                Some(value) => {
                    text.clear();
                    write!(text, "{value}").expect("formatting into a String cannot fail");
                    let id = attributes[col].dictionary.intern(&text);
                    if id as usize == originals[col].len() {
                        originals[col].push(value.clone());
                    }
                    AttrValue::Nom(id)
                }
            };
            columns[col].push(cell);
        }
    }
    EncodedSegment {
        store: ColumnStore::from_columns(attributes, columns),
        originals,
    }
}

/// Merges segments and their originals ([`ColumnStore::merge_segments`]):
/// segment 0's originals are the global prefix, and each later segment
/// contributes the originals of the values it introduced.  For a build the
/// original kept per global id is the one seen at its first occurrence,
/// exactly as the single-pass encode keeps it; for a refresh segment 0 is
/// the view's tail with the view's originals.
fn merge(segments: Vec<EncodedSegment>) -> EncodedSegment {
    let mut stores = Vec::with_capacity(segments.len());
    let mut locals = Vec::with_capacity(segments.len());
    for segment in segments {
        stores.push(segment.store);
        locals.push(segment.originals);
    }
    let merged = ColumnStore::merge_segments(stores);
    let mut locals = locals.into_iter();
    let mut originals = locals.next().expect("merge_segments checked the count");
    for (segment, remap) in locals.zip(&merged.remaps[1..]) {
        for ((global, column_locals), remap) in originals.iter_mut().zip(segment).zip(remap) {
            // Local ids were assigned in intern order, so the global ids a
            // segment introduces appear in ascending order here: a value is
            // new globally exactly when its global id equals the current
            // originals length.
            for (value, &id) in column_locals.into_iter().zip(remap) {
                if id as usize == global.len() {
                    global.push(value);
                }
            }
        }
    }
    EncodedSegment {
        store: merged.store,
        originals,
    }
}

/// A zero-row store carrying `store`'s schema and dictionaries — the empty
/// tail of a freshly built (or compacted) view.
fn empty_like(store: &ColumnStore) -> ColumnStore {
    ColumnStore::from_columns(
        store.attributes().to_vec(),
        vec![Vec::new(); store.num_columns()],
    )
}

impl ColumnarLog {
    /// Encodes the records of `kind` in one pass (equivalent to
    /// [`ColumnarLog::build_sharded`] with one shard).
    pub fn build(log: &ExecutionLog, kind: ExecutionKind) -> Self {
        ColumnarLog::build_sharded(log, kind, 1)
    }

    /// Encodes the records of `kind`, sharded by the shared worker pool's
    /// size rule: one segment per pool thread once the log holds
    /// [`MIN_FAN_OUT_WORK`](crate::pool::MIN_FAN_OUT_WORK) record-feature
    /// cells, single-shot below that or on one CPU.  The produced view is
    /// always bit-identical to [`ColumnarLog::build`].
    pub fn build_auto(log: &ExecutionLog, kind: ExecutionKind) -> Self {
        let positions = positions_of(log.records(), kind, 0);
        let catalog = log.catalog(kind);
        let work = positions.len().saturating_mul(catalog.len());
        let segments = crate::pool::shared().map_chunks_gated(&positions, work, |chunk| {
            encode_segment(catalog, log.records(), chunk)
        });
        ColumnarLog::assemble(kind, catalog, positions, segments)
    }

    /// Encodes the records of `kind` as up to `num_shards` contiguous
    /// segments, run as jobs of the shared worker pool, then merges the
    /// segments by dictionary remapping.  Bit-identical to
    /// [`ColumnarLog::build`] for every shard count (a shard count above the
    /// row count simply yields fewer, smaller segments).
    pub fn build_sharded(log: &ExecutionLog, kind: ExecutionKind, num_shards: usize) -> Self {
        let positions = positions_of(log.records(), kind, 0);
        let catalog = log.catalog(kind);
        let segments = crate::pool::shared().map_chunks(&positions, num_shards, |chunk| {
            encode_segment(catalog, log.records(), chunk)
        });
        ColumnarLog::assemble(kind, catalog, positions, segments)
    }

    /// Wraps a flat single-chunk encoding as a base with an empty tail.
    fn from_encoded(
        kind: ExecutionKind,
        positions: Vec<usize>,
        store: ColumnStore,
        originals: Vec<Vec<Value>>,
        kinds: Vec<FeatureKind>,
    ) -> Self {
        let tail_store = empty_like(&store);
        ColumnarLog {
            kind,
            base: Arc::new(ViewBase { store, positions }),
            tail_positions: Vec::new(),
            tail_store,
            originals,
            kinds,
        }
    }

    /// Returns the view extended by the records of its kind in
    /// `log.records()[from..]`, in **O(tail)**: only those records are
    /// encoded (local dictionaries) and merged onto the current tail with
    /// the global dictionaries extended in place, and the base chunk is
    /// shared with `self` — not a base cell is copied.  The result is
    /// bit-identical to rebuilding the view over `log` from scratch.
    ///
    /// `log` must be the view's log with records appended since, and
    /// `from` the log length the view covers.  The appends must have kept
    /// the kind's catalog: a batch that changes it (new feature, kind
    /// promotion) changes the schema, and the caller must fall back to a
    /// full rebuild (the service gates this on
    /// [`ExecutionLog::rewrite_generation`]).
    pub fn with_appended(&self, log: &ExecutionLog, from: usize) -> Self {
        let catalog = log.catalog(self.kind);
        debug_assert!(
            catalog.defs().iter().map(|def| def.name.as_str()).eq(self
                .tail_store
                .attributes()
                .iter()
                .map(|a| a.name.as_str())),
            "with_appended called with a catalog that does not match the view schema"
        );
        let fresh = positions_of(log.records(), self.kind, from);
        if fresh.is_empty() {
            return self.clone();
        }
        let tail = EncodedSegment {
            store: self.tail_store.clone(),
            originals: self.originals.clone(),
        };
        let merged = merge(vec![tail, encode_segment(catalog, log.records(), &fresh)]);
        let mut tail_positions = self.tail_positions.clone();
        tail_positions.extend(fresh);
        ColumnarLog {
            kind: self.kind,
            base: Arc::clone(&self.base),
            tail_positions,
            tail_store: merged.store,
            originals: merged.originals,
            kinds: self.kinds.clone(),
        }
    }

    /// Folds the tail into a fresh base chunk and returns the compacted
    /// view with an empty tail: the base and the tail are merged
    /// ([`ColumnStore::merge_segments`]) and their positions concatenated.
    /// The tail is encoded against the base's dictionaries extended in
    /// place, so its remap is the identity and the originals stay as they
    /// are.  A no-op clone when the tail is already empty.
    ///
    /// # Panics
    /// Panics when the base's dictionaries are not a prefix of the tail's.
    pub fn compacted(&self) -> Self {
        if self.tail_positions.is_empty() {
            return self.clone();
        }
        let merged =
            ColumnStore::merge_segments(vec![self.base.store.clone(), self.tail_store.clone()]);
        for (col, remap) in merged.remaps[1].iter().enumerate() {
            assert!(
                remap
                    .iter()
                    .enumerate()
                    .all(|(id, &global)| global as usize == id),
                "base dictionary is not a prefix of the tail's on {}",
                self.tail_store.attribute(col).name
            );
        }
        let mut positions = self.base.positions.clone();
        positions.extend(&self.tail_positions);
        ColumnarLog::from_encoded(
            self.kind,
            positions,
            merged.store,
            self.originals.clone(),
            self.kinds.clone(),
        )
    }

    /// Stitches segments encoding the records at `positions` against
    /// `catalog` into a view by dictionary remapping, with the column
    /// buffers adopted from the segments — a single segment's `Arc` columns
    /// are moved, not copied.  This is the merge behind
    /// [`ColumnarLog::build_sharded`] and the one path from a loaded
    /// snapshot to its views,
    /// [`Snapshot::into_views`](crate::snapshot::Snapshot::into_views): a
    /// service rehydrated via
    /// [`XplainService::open_snapshot`](crate::service::XplainService::open_snapshot)
    /// serves its first query from the stored columns without re-encoding.
    pub(crate) fn assemble(
        kind: ExecutionKind,
        catalog: &FeatureCatalog,
        positions: Vec<usize>,
        segments: Vec<EncodedSegment>,
    ) -> Self {
        let merged = merge(segments);
        let kinds = catalog.defs().iter().map(|def| def.kind).collect();
        ColumnarLog::from_encoded(kind, positions, merged.store, merged.originals, kinds)
    }

    /// The execution kind this view encodes.
    pub fn kind(&self) -> ExecutionKind {
        self.kind
    }

    /// The position in [`ExecutionLog::records`] of the record at `row`:
    /// rows are the log's records of the view's kind, in log order.
    #[inline]
    pub fn position(&self, row: usize) -> usize {
        let base_rows = self.base_rows();
        if row < base_rows {
            self.base.positions[row]
        } else {
            self.tail_positions[row - base_rows]
        }
    }

    /// Number of rows (records of the view's kind).
    ///
    /// Always counted over the positions, never over the column stores: a
    /// view with an empty catalog has zero columns, and a zero-column
    /// [`ColumnStore`] reports zero rows regardless of the record count.
    pub fn num_rows(&self) -> usize {
        self.base_rows() + self.tail_rows()
    }

    /// Rows in the immutable base chunk.
    pub fn base_rows(&self) -> usize {
        self.base.positions.len()
    }

    /// Rows in the appended tail (encoded since the last full build or
    /// compaction).
    pub fn tail_rows(&self) -> usize {
        self.tail_positions.len()
    }

    /// Whether this view shares its base chunk with `other` (the delta
    /// refresh contract: no base cell was copied between them).
    pub fn shares_base_with(&self, other: &ColumnarLog) -> bool {
        Arc::ptr_eq(&self.base, &other.base)
    }

    /// Row of the record with the given id: the record
    /// [`ExecutionLog::get`] finds, through the log's id index, then a
    /// binary search of the view's ascending positions.  `None` when no
    /// record has the id, when the last one is of the other kind, or when
    /// the view does not cover it yet.  `log` is the log the view indexes.
    pub fn row_of(&self, log: &ExecutionLog, id: &str) -> Option<usize> {
        let at = log.position_of(id)?;
        match self.base.positions.binary_search(&at) {
            Ok(row) => Some(row),
            Err(_) => self
                .tail_positions
                .binary_search(&at)
                .ok()
                .map(|row| self.base_rows() + row),
        }
    }

    /// Column index of a raw feature.
    pub fn column_of(&self, feature: &str) -> Option<usize> {
        self.tail_store.column_index(feature)
    }

    /// Catalog kind of column `col`.
    pub fn column_kind(&self, col: usize) -> FeatureKind {
        self.kinds[col]
    }

    /// The cell at (`row`, `col`).
    #[inline]
    pub fn cell(&self, row: usize, col: usize) -> AttrValue {
        let base_rows = self.base_rows();
        if row < base_rows {
            self.base.store.value(row, col)
        } else {
            self.tail_store.value(row - base_rows, col)
        }
    }

    /// PXQL equality of two cells of the same column (`pxql_eq` semantics:
    /// numeric tolerance, exact nominal identity, missing never equal).
    #[inline]
    pub fn cells_equal(&self, a: AttrValue, b: AttrValue) -> bool {
        match (a, b) {
            (AttrValue::Num(x), AttrValue::Num(y)) => Value::Num(x).pxql_eq(&Value::Num(y)),
            (AttrValue::Nom(p), AttrValue::Nom(q)) => p == q,
            _ => false,
        }
    }

    /// PXQL equality of a cell against a constant, without allocating.
    #[inline]
    pub fn cell_eq_const(&self, col: usize, cell: AttrValue, constant: &Value) -> bool {
        match cell {
            AttrValue::Missing => false,
            AttrValue::Num(v) => Value::Num(v).pxql_eq(constant),
            AttrValue::Nom(id) => self.originals[col][id as usize].pxql_eq(constant),
        }
    }

    /// Decodes a cell back into the original [`Value`].
    pub fn decode(&self, col: usize, cell: AttrValue) -> Value {
        match cell {
            AttrValue::Missing => Value::Null,
            AttrValue::Num(v) => Value::Num(v),
            AttrValue::Nom(id) => self.originals[col][id as usize].clone(),
        }
    }

    /// Borrows the original value behind an interned id of column `col`.
    pub fn original(&self, col: usize, id: u32) -> &Value {
        &self.originals[col][id as usize]
    }

    /// The global dictionary of column `col`: the canonical PXQL text of
    /// every interned id, base and tail.
    pub(crate) fn dictionary(&self, col: usize) -> &NominalDictionary {
        &self.tail_store.attribute(col).dictionary
    }
}

/// One pre-resolved atomic predicate over a pair of rows.
#[derive(Debug, Clone)]
enum CompiledAtom {
    /// The atom can never hold (unknown raw feature, inapplicable group, a
    /// `Null` constant, or a constant no derived value can equal).
    Never,
    /// `f_isSame op constant`.
    IsSame { col: usize, op: Op, constant: Value },
    /// `f_compare op constant`, pre-evaluated for the three outcomes
    /// (indexed LT, SIM, GT).
    Compare { col: usize, truth: [bool; 3] },
    /// `f_diff op constant`.
    Diff { col: usize, op: Op, constant: Value },
    /// Base feature `f op constant` (holds only when the pair agrees on f).
    Base { col: usize, op: Op, constant: Value },
}

impl CompiledAtom {
    fn compile(feature: &str, op: Op, constant: &Value, view: &ColumnarLog) -> Self {
        let (raw, group) = parse_pair_feature(feature);
        // A `Null` constant fails every operator, `!=` included
        // ([`Op::apply`]).
        let Some(col) = view.column_of(raw).filter(|_| !constant.is_null()) else {
            return CompiledAtom::Never;
        };
        match group {
            PairFeatureGroup::IsSame => CompiledAtom::IsSame {
                col,
                op,
                constant: constant.clone(),
            },
            PairFeatureGroup::Compare => {
                if view.column_kind(col) != FeatureKind::Numeric {
                    return CompiledAtom::Never;
                }
                // Pre-apply the operator to the three possible outcomes.
                let truth = COMPARE_VALUES.map(|outcome| op.apply(&Value::str(outcome), constant));
                if truth.iter().all(|t| !t) {
                    CompiledAtom::Never
                } else {
                    CompiledAtom::Compare { col, truth }
                }
            }
            PairFeatureGroup::Diff => {
                if view.column_kind(col) != FeatureKind::Nominal {
                    return CompiledAtom::Never;
                }
                CompiledAtom::Diff {
                    col,
                    op,
                    constant: constant.clone(),
                }
            }
            PairFeatureGroup::Base => CompiledAtom::Base {
                col,
                op,
                constant: constant.clone(),
            },
        }
    }

    /// Evaluates the atom for the ordered pair of rows (`left`, `right`).
    #[inline]
    fn eval(&self, view: &ColumnarLog, left: usize, right: usize, sim: f64) -> bool {
        match self {
            CompiledAtom::Never => false,
            CompiledAtom::IsSame { col, op, constant } => {
                let l = view.cell(left, *col);
                let r = view.cell(right, *col);
                if l.is_missing() || r.is_missing() {
                    return false;
                }
                op.apply(&Value::Bool(view.cells_equal(l, r)), constant)
            }
            CompiledAtom::Compare { col, truth } => {
                match (view.cell(left, *col), view.cell(right, *col)) {
                    (AttrValue::Num(l), AttrValue::Num(r)) => truth[compare_index(l, r, sim)],
                    _ => false,
                }
            }
            CompiledAtom::Diff { col, op, constant } => {
                let l = view.cell(left, *col);
                let r = view.cell(right, *col);
                if l.is_missing() || r.is_missing() || view.cells_equal(l, r) {
                    return false;
                }
                // The derived value is the pair (l, r); only equality-family
                // operators can hold on pairs.
                let equal = match constant {
                    Value::Pair(a, b) => {
                        view.cell_eq_const(*col, l, a) && view.cell_eq_const(*col, r, b)
                    }
                    _ => false,
                };
                match op {
                    Op::Eq => equal,
                    Op::Ne => !equal,
                    _ => false,
                }
            }
            CompiledAtom::Base { col, op, constant } => {
                let l = view.cell(left, *col);
                let r = view.cell(right, *col);
                if l.is_missing() || r.is_missing() || !view.cells_equal(l, r) {
                    return false;
                }
                match l {
                    AttrValue::Num(v) => op.apply(&Value::Num(v), constant),
                    AttrValue::Nom(id) => op.apply(view.original(*col, id), constant),
                    AttrValue::Missing => false,
                }
            }
        }
    }
}

/// A conjunction of compiled atoms.
#[derive(Debug, Clone, Default)]
pub struct CompiledPredicate {
    atoms: Vec<CompiledAtom>,
}

impl CompiledPredicate {
    /// Compiles a predicate against a view.
    pub fn compile(predicate: &Predicate, view: &ColumnarLog) -> Self {
        CompiledPredicate {
            atoms: predicate
                .atoms()
                .iter()
                .map(|a| CompiledAtom::compile(&a.feature, a.op, &a.constant, view))
                .collect(),
        }
    }

    /// Evaluates the conjunction for the ordered pair (`left`, `right`).
    #[inline]
    pub fn eval(&self, view: &ColumnarLog, left: usize, right: usize, sim: f64) -> bool {
        self.atoms
            .iter()
            .all(|atom| atom.eval(view, left, right, sim))
    }
}

/// A [`BoundQuery`] compiled against a [`ColumnarLog`]: classification of a
/// candidate pair costs a few comparisons and zero allocations.
#[derive(Debug, Clone)]
pub struct CompiledQuery {
    despite: CompiledPredicate,
    observed: CompiledPredicate,
    expected: CompiledPredicate,
    sim_threshold: f64,
}

impl CompiledQuery {
    /// Compiles the query's three clauses.
    pub fn compile(query: &BoundQuery, view: &ColumnarLog, sim_threshold: f64) -> Self {
        CompiledQuery {
            despite: CompiledPredicate::compile(&query.query.despite, view),
            observed: CompiledPredicate::compile(&query.query.observed, view),
            expected: CompiledPredicate::compile(&query.query.expected, view),
            sim_threshold,
        }
    }

    /// Classifies the ordered pair (`left`, `right`), mirroring
    /// [`BoundQuery::classify`] (expected takes precedence over observed).
    #[inline]
    pub fn classify(&self, view: &ColumnarLog, left: usize, right: usize) -> PairLabel {
        let sim = self.sim_threshold;
        if !self.despite.eval(view, left, right, sim) {
            return PairLabel::Unrelated;
        }
        if self.expected.eval(view, left, right, sim) {
            return PairLabel::Expected;
        }
        if self.observed.eval(view, left, right, sim) {
            return PairLabel::Observed;
        }
        PairLabel::Unrelated
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExplainConfig;
    use crate::pairs::compute_pair_features;
    use crate::record::ExecutionRecord;
    use pxql::parse_query;

    fn log() -> ExecutionLog {
        let mut log = ExecutionLog::new();
        for (id, input, script, duration) in [
            ("job_a", 32.0e9, "filter.pig", 1800.0),
            ("job_b", 1.0e9, "group.pig", 1750.0),
            ("job_c", 1.0e9, "filter.pig", 300.0),
            ("job_d", 8.0e9, "group.pig", 900.0),
        ] {
            log.push(
                ExecutionRecord::job(id)
                    .with_feature("inputsize", input)
                    .with_feature("pigscript", script)
                    .with_feature("duration", duration),
            );
        }
        // A record with a missing feature.
        log.push(ExecutionRecord::job("job_e").with_feature("duration", 100.0));
        log.rebuild_catalogs();
        log
    }

    #[test]
    fn view_encodes_and_decodes_losslessly() {
        let log = log();
        let view = ColumnarLog::build(&log, ExecutionKind::Job);
        assert_eq!(view.num_rows(), 5);
        assert_eq!(view.kind(), ExecutionKind::Job);
        let script_col = view.column_of("pigscript").unwrap();
        for row in 0..view.num_rows() {
            let record = &log.records()[view.position(row)];
            let decoded = view.decode(script_col, view.cell(row, script_col));
            assert_eq!(decoded, record.feature("pigscript"));
        }
        assert_eq!(view.row_of(&log, "job_c"), Some(2));
        assert_eq!(view.row_of(&log, "job_zz"), None);
        assert_eq!(view.column_of("nope"), None);
    }

    #[test]
    fn compiled_classification_matches_the_map_based_path() {
        let log = log();
        let view = ColumnarLog::build(&log, ExecutionKind::Job);
        let config = ExplainConfig::default();
        let q = parse_query(
            "DESPITE inputsize_compare = GT\n\
             OBSERVED duration_compare = SIM\n\
             EXPECTED duration_compare = GT",
        )
        .unwrap();
        let query = BoundQuery::new(q, "job_a", "job_b");
        let compiled = CompiledQuery::compile(&query, &view, config.sim_threshold);
        let records: Vec<_> = (0..view.num_rows())
            .map(|row| &log.records()[view.position(row)])
            .collect();
        for i in 0..records.len() {
            for j in 0..records.len() {
                if i == j {
                    continue;
                }
                let expected =
                    query.classify_records(&log, records[i], records[j], config.sim_threshold);
                assert_eq!(
                    compiled.classify(&view, i, j),
                    expected,
                    "divergence on ({}, {})",
                    records[i].id,
                    records[j].id
                );
            }
        }
    }

    #[test]
    fn compiled_atoms_cover_all_groups() {
        let log = log();
        let view = ColumnarLog::build(&log, ExecutionKind::Job);
        let config = ExplainConfig::default();
        let catalog = log.job_catalog();
        // Every pair feature of every pair: the compiled atom must agree
        // with evaluation over the full pair-feature map.
        let records: Vec<_> = (0..view.num_rows())
            .map(|row| &log.records()[view.position(row)])
            .collect();
        for i in 0..records.len() {
            for j in 0..records.len() {
                if i == j {
                    continue;
                }
                let features =
                    compute_pair_features(catalog, records[i], records[j], config.sim_threshold);
                for (name, value) in &features {
                    let atom = pxql::Atom::new(name.clone(), Op::Eq, value.clone());
                    let by_map = atom.eval(&features);
                    let compiled =
                        CompiledPredicate::compile(&Predicate::from_atoms(vec![atom]), &view);
                    assert_eq!(
                        compiled.eval(&view, i, j, config.sim_threshold),
                        by_map,
                        "feature {name} = {value} on ({i}, {j})"
                    );
                }
            }
        }
    }

    #[test]
    fn unknown_features_never_hold() {
        let log = log();
        let view = ColumnarLog::build(&log, ExecutionKind::Job);
        let predicate = Predicate::from_atoms(vec![pxql::Atom::eq("ghost_compare", "GT")]);
        let compiled = CompiledPredicate::compile(&predicate, &view);
        assert!(!compiled.eval(&view, 0, 1, 0.1));
    }

    #[test]
    fn sharded_build_is_bit_identical_for_every_shard_count() {
        let log = log();
        let single = ColumnarLog::build(&log, ExecutionKind::Job);
        for shards in [1, 2, 3, 4, 5, 64] {
            let sharded = ColumnarLog::build_sharded(&log, ExecutionKind::Job, shards);
            assert_eq!(sharded, single, "{shards} shards diverge");
            assert_eq!(sharded.row_of(&log, "job_c"), single.row_of(&log, "job_c"));
        }
        assert_eq!(ColumnarLog::build_auto(&log, ExecutionKind::Job), single);
    }

    #[test]
    fn sharded_build_handles_empty_and_tiny_logs() {
        let empty = ExecutionLog::new();
        let view = ColumnarLog::build_sharded(&empty, ExecutionKind::Job, 8);
        assert_eq!(view.num_rows(), 0);

        let mut one = ExecutionLog::new();
        one.push(ExecutionRecord::job("solo").with_feature("duration", 1.0));
        one.rebuild_catalogs();
        let sharded = ColumnarLog::build_sharded(&one, ExecutionKind::Job, 8);
        assert_eq!(sharded, ColumnarLog::build(&one, ExecutionKind::Job));
    }

    #[test]
    fn with_appended_is_bit_identical_and_shares_the_base() {
        let mut log = log();
        let view = ColumnarLog::build(&log, ExecutionKind::Job);
        assert_eq!(view.tail_rows(), 0);

        // Append a batch mixing known and brand-new nominal values.
        let covered = log.len();
        for record in [
            ExecutionRecord::job("job_f")
                .with_feature("inputsize", 2.0e9)
                .with_feature("pigscript", "filter.pig")
                .with_feature("duration", 400.0),
            ExecutionRecord::job("job_g")
                .with_feature("inputsize", 4.0e9)
                .with_feature("pigscript", "join.pig")
                .with_feature("duration", 999.0),
        ] {
            log.append(vec![record]);
        }
        let delta = view.with_appended(&log, covered);
        assert!(delta.shares_base_with(&view));
        assert_eq!(delta.base_rows(), view.num_rows());
        assert_eq!(delta.tail_rows(), 2);
        assert_eq!(delta.row_of(&log, "job_g"), Some(6));

        let full = ColumnarLog::build(&log, ExecutionKind::Job);
        assert_eq!(delta, full, "delta view diverges from a full rebuild");

        // A second delta on top of the first still shares the original base.
        let covered = log.len();
        log.append(vec![
            ExecutionRecord::job("job_h").with_feature("pigscript", "join.pig")
        ]);
        let stacked = delta.with_appended(&log, covered);
        assert!(stacked.shares_base_with(&view));
        assert_eq!(stacked.tail_rows(), 3);
        assert_eq!(stacked, ColumnarLog::build(&log, ExecutionKind::Job));
    }

    #[test]
    fn compacted_folds_the_tail_without_changing_content() {
        let mut log = log();
        let view = ColumnarLog::build(&log, ExecutionKind::Job);
        let covered = log.len();
        log.append(vec![ExecutionRecord::job("job_f")
            .with_feature("pigscript", "join.pig")
            .with_feature("duration", 5.0)]);
        let delta = view.with_appended(&log, covered);
        let compacted = delta.compacted();
        assert_eq!(compacted.tail_rows(), 0);
        assert_eq!(compacted.base_rows(), delta.num_rows());
        assert!(!compacted.shares_base_with(&delta));
        assert_eq!(compacted, delta);
        // Compacting an empty tail is the identity (base shared, no copy).
        assert!(view.compacted().shares_base_with(&view));
        assert_eq!(view.compacted(), view);
    }

    #[test]
    fn appended_duplicate_ids_shadow_base_rows() {
        let mut log = log();
        let view = ColumnarLog::build(&log, ExecutionKind::Job);
        assert_eq!(view.row_of(&log, "job_c"), Some(2));
        let covered = log.len();
        log.append(vec![
            ExecutionRecord::job("job_c").with_feature("duration", 123.0)
        ]);
        let delta = view.with_appended(&log, covered);
        assert_eq!(delta.row_of(&log, "job_c"), Some(5));
    }

    /// A tail whose dictionary is not the base's extended in place cannot
    /// be folded: its remap onto the base would not be the identity, and
    /// the kept originals would no longer match the ids.
    #[test]
    #[should_panic(expected = "not a prefix")]
    fn concat_encoded_rejects_diverged_dictionaries() {
        let mut log = ExecutionLog::new();
        for (id, script) in [
            ("job_a", "a"),
            ("job_b", "b"),
            ("job_c", "b"),
            ("job_d", "a"),
        ] {
            log.push(ExecutionRecord::job(id).with_feature("pigscript", script));
        }
        log.rebuild_catalogs();
        let catalog = log.job_catalog();
        // The base interns "a", "b"; the tail, encoded on its own, "b", "a".
        let front = encode_segment(catalog, log.records(), &[0, 1]);
        let back = encode_segment(catalog, log.records(), &[2, 3]);
        let mut view = ColumnarLog::from_encoded(
            ExecutionKind::Job,
            vec![0, 1],
            front.store,
            front.originals,
            vec![FeatureKind::Nominal],
        );
        view.tail_positions = vec![2, 3];
        view.tail_store = back.store;
        view.compacted();
    }

    /// Shards whose nominal dictionaries are disjoint (every script name is
    /// unique to its shard) still merge into the single-shot id assignment.
    #[test]
    fn sharded_build_merges_disjoint_dictionaries() {
        let mut log = ExecutionLog::new();
        for i in 0..20 {
            log.push(
                ExecutionRecord::job(format!("job_{i}"))
                    .with_feature("pigscript", format!("script_{i}.pig"))
                    .with_feature("duration", 10.0 * i as f64),
            );
        }
        log.rebuild_catalogs();
        let single = ColumnarLog::build(&log, ExecutionKind::Job);
        for shards in [2, 4, 7, 20] {
            assert_eq!(
                ColumnarLog::build_sharded(&log, ExecutionKind::Job, shards),
                single
            );
        }
    }
}
