//! Bridge between the pair-feature representation (PXQL [`Value`]s) and the
//! columnar dataset representation `mlcore` uses for split search.
//!
//! A bridge has two parts.  The shared part (`SharedDataset`) depends on
//! the training sample alone: the attribute schema (one attribute per
//! allowed pair feature), the column-major dataset of the sampled pairs
//! ([`mlcore::Dataset`]: one typed column per attribute) with its
//! interning dictionaries, the mapping from interned ids back to the
//! *original* `Value`s (so that learned tests can be turned back into PXQL
//! atoms, including `diff` features whose values are pairs), and each
//! attribute's [`SplitSummary`] over every row, built the first time a
//! search asks for it.  The per-pair part is the pair of interest's row,
//! which Algorithm 1 needs to enforce applicability.  Every pair of
//! interest asked under one template draws the same sample, so the served
//! path keeps the shared part beside the memoized sample
//! (`crate::training`) and a repeated template encodes only the pair's
//! row.
//!
//! # Attribute-major featurize
//!
//! Both constructors fill the dataset one attribute at a time: every
//! sampled pair's cell of one pair feature, in sample order, goes straight
//! into that attribute's column ([`mlcore::ColumnBuilder`]), which comes
//! out as `u32` ids, `f64`s, or nothing at all when no sampled pair holds
//! the feature (every `f_diff` of a numeric `f`, every `f_compare` of a
//! nominal one, and the base feature of a metric no two sampled runs
//! share: 58 to 59 of 164 attributes on the paper log's job query).  Each
//! attribute's dictionary and key cache see only that attribute's cells,
//! in sample order either way, so every id and original is the one a
//! pair-at-a-time encoding assigns.  `SharedDataset::bytes` charges the
//! columns' real capacities: a 1,949-pair job dataset of the paper grid
//! (pxbench's `paper_mix`, seed 301) takes 1.04 MB before its summaries,
//! where 16-byte cells in a heap row per pair took 5.2 MB.  Featurizing
//! attribute by attribute is no slower: 10.2–11.4 ms for it against
//! 10.9–12.7 ms a pair at a time (best of 20, two runs each).
//!
//! # Interning order and the pair of interest
//!
//! Both constructors intern the sampled rows first, in sample order.  The
//! pair of interest is then resolved against the finished dictionaries by
//! its cells' canonical text, without interning: a value the sample never
//! holds gets the id one past the dictionary's end, which matches no row
//! and so yields no candidate.  Nothing orders by id — nominal candidates
//! are offered in first-seen row order, and ties break by gain, then by
//! inside size, then by offer order — so where the pair's values land
//! changes no explanation.
//!
//! The original kept behind an id is the first sampled value with its
//! text, which can differ from the pair's own value: `Bool(true)` and
//! `"T"` share one text, and so do `Num(0)` and `Num(-0)` in a nominal
//! column.  The applicability filter admits only the pair's own id, so a
//! winning nominal atom's constant is always the pair's value, and
//! [`DatasetBridge::atom_to_pxql`] renders it from the pair's own `Value`.
//! Explanations are then equal as `Value`s, not just as text, whichever
//! pair first filled the shared part.
//!
//! # Interning from encoded keys
//!
//! A nominal cell is keyed in the dataset by its value's canonical PXQL
//! text.  Building, formatting and hashing that text for every cell of a
//! sample is what used to dominate [`DatasetBridge::encode_from_view`],
//! yet a sample repeats very few distinct cells: 174 distinct nominal keys
//! among 323k cells on the paper log's job query, 1,380 among 386k on its
//! task query, and 1,810 among 55k on the 100k-row blocked log (pxbench's
//! `paper_mix` and `serve_blocked`, seed 21).  So each attribute keeps a
//! small cache from an *encoded key* — one that fixes the cell's text
//! without building it — to the dataset id that interning the text
//! returned:
//!
//! * `isSame` outcome (2 slots): the text is `T` or `F`;
//! * `compare` outcome (3 slots): the text is `LT`, `SIM` or `GT`;
//! * the base cell's view dictionary id: the view interned the column by
//!   the same canonical text, so one id is one text;
//! * the diff cell's ordered (left id, right id) pair: the text is
//!   `(left, right)`, so the order matters.
//!
//! A hit costs an array index or one [`FxHashMap`] probe.  A miss — the
//! first time a key appears, or a numeric cell in a nominal column, which
//! has no view id and so is never cached — builds the same `Value` the map
//! path would and interns it through `Interner::intern`, the one place ids
//! and originals are assigned.  The dictionary stays the authority, so the
//! dataset is identical by construction to the one the reference
//! [`DatasetBridge::build`] encodes from the sampled pairs' feature maps.

use crate::columnar::ColumnarLog;
use crate::features::FeatureKind;
use crate::pairs::{
    compare_index, compute_pair_features, PairCatalog, PairExample, PairFeatureDef,
    PairFeatureGroup, COMPARE_VALUES,
};
use crate::training::EncodedTraining;
use mlcore::{
    AttrKind, AttrValue, Attribute, ColumnBuilder, ColumnCells, Dataset, FxHashMap,
    NominalDictionary, SplitSummary, TestAtom, TestConstant, TestOp,
};
use pxql::{Atom, Op, Value};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// The columnar view of a training set plus the pair of interest.
#[derive(Debug, Clone)]
pub struct DatasetBridge {
    shared: Arc<SharedDataset>,
    poi_row: Vec<AttrValue>,
    /// For every attribute, the pair of interest's own value behind its
    /// nominal cell (`Null` where the cell is numeric or missing).
    poi_values: Vec<Value>,
}

/// The part of a [`DatasetBridge`] that depends on the training sample
/// alone, shared by every pair of interest asked against that sample.
#[derive(Debug)]
pub(crate) struct SharedDataset {
    dataset: Dataset,
    /// The pair feature behind each attribute.
    defs: Vec<PairFeatureDef>,
    /// For every attribute, the original `Value` behind each interned
    /// nominal id (empty for numeric attributes).
    originals: Vec<Vec<Value>>,
    /// Each attribute's summary over every row, built on first use.
    summaries: Vec<OnceLock<SplitSummary>>,
    /// Heap bytes of everything but the summaries.
    base_bytes: usize,
    /// Heap bytes of the summaries built so far.
    summary_bytes: AtomicUsize,
}

impl DatasetBridge {
    /// The reference featurize: builds every sampled pair's full
    /// pair-feature map ([`compute_pair_features`] under the sample's
    /// similarity band) and encodes the maps, then resolves `poi`, the pair
    /// of interest's map.  The engine never calls it;
    /// [`DatasetBridge::encode_from_view`] must produce the same bridge,
    /// which the proptests check against this.
    ///
    /// * `catalog` — the pair features to expose as attributes (already
    ///   restricted to the configured feature level);
    /// * `excluded_raw` — raw features whose derived pair features must not
    ///   appear in explanations (the query's own performance metric plus any
    ///   user-configured exclusions).
    pub fn build(
        training: &EncodedTraining<'_>,
        poi: &PairExample,
        catalog: &PairCatalog,
        excluded_raw: &[String],
    ) -> Self {
        let log = training.log();
        let raw = log.catalog(training.view.kind());
        let record = |row| &log.records()[training.view.position(row)];
        let examples: Vec<_> = (training.pairs.iter())
            .map(|&(l, r)| compute_pair_features(raw, record(l), record(r), training.sim_threshold))
            .collect();
        let defs = included_defs(catalog, excluded_raw);
        let mut interner = Interner::new(defs.len());
        let columns = (defs.iter().enumerate())
            .map(|(attr, def)| {
                let mut column = ColumnBuilder::with_capacity(examples.len());
                for features in &examples {
                    column.push(encode_value(
                        def.kind,
                        features.get(&def.name).cloned().unwrap_or(Value::Null),
                        |value| interner.intern(attr, value),
                    ));
                }
                column.finish()
            })
            .collect();
        let shared = Arc::new(SharedDataset::new(
            columns,
            training.labels.to_vec(),
            defs,
            interner,
        ));
        Self::with_poi(shared, |shared, attr, def, own| {
            encode_value(def.kind, poi.feature(&def.name), |value| {
                shared.resolve(attr, value, own)
            })
        })
    }

    /// Builds the bridge straight from an encoded training set: pair
    /// features of the sampled pairs are derived from the columnar view and
    /// interned into the dataset in a single pass — no pair-feature maps,
    /// and a nominal cell's text is built only the first time its encoded
    /// key appears (see the module docs).  Produces the bridge the
    /// reference [`DatasetBridge::build`] does.
    ///
    /// `poi` is the pair of interest as `(left row, right row)` indices into
    /// the view.
    pub fn encode_from_view(
        training: &EncodedTraining<'_>,
        poi: (usize, usize),
        catalog: &PairCatalog,
        excluded_raw: &[String],
        sim_threshold: f64,
    ) -> Self {
        let shared = SharedDataset::from_view(training, catalog, excluded_raw, sim_threshold);
        Self::for_pair(Arc::new(shared), &training.view, poi, sim_threshold)
    }

    /// The bridge of the pair of interest at rows `poi` of `view` over an
    /// already encoded sample: only the pair's row is encoded.  `view`
    /// must hold the records the sample was encoded from, in the same row
    /// order, and `sim_threshold` must be the one it was encoded with.
    pub(crate) fn for_pair(
        shared: Arc<SharedDataset>,
        view: &ColumnarLog,
        poi: (usize, usize),
        sim_threshold: f64,
    ) -> Self {
        Self::with_poi(shared, |shared, attr, def, own| {
            let col = view.column_of(&def.raw);
            encode_pair_cell(view, def, col, poi, sim_threshold, |_, value| {
                shared.resolve(attr, value(), own)
            })
        })
    }

    /// The bridge of `shared` for the pair of interest whose cell of each
    /// attribute `encode(shared, attr, def, own)` returns, keeping the
    /// pair's own value behind a nominal cell in `own`.
    fn with_poi(
        shared: Arc<SharedDataset>,
        mut encode: impl FnMut(&SharedDataset, usize, &PairFeatureDef, &mut Value) -> AttrValue,
    ) -> Self {
        let mut poi_values = vec![Value::Null; shared.defs.len()];
        let poi_row = (shared.defs.iter().enumerate())
            .map(|(attr, def)| encode(&shared, attr, def, &mut poi_values[attr]))
            .collect();
        DatasetBridge {
            shared,
            poi_row,
            poi_values,
        }
    }

    /// The columnar dataset (one row per training pair).
    pub fn dataset(&self) -> &Dataset {
        &self.shared.dataset
    }

    /// Number of attributes exposed to the split search.
    pub fn num_attributes(&self) -> usize {
        self.shared.defs.len()
    }

    /// Name of attribute `index`.
    pub fn attr_name(&self, index: usize) -> &str {
        &self.shared.defs[index].name
    }

    /// The pair of interest's value for attribute `index`.
    pub fn poi_value(&self, index: usize) -> AttrValue {
        self.poi_row[index]
    }

    /// Attribute `attr`'s summary over every row of the dataset, built the
    /// first time any bridge over this sample asks for it.
    pub(crate) fn summary(&self, attr: usize) -> &SplitSummary {
        self.shared.summary(attr)
    }

    /// The work of searching attribute `attr` over every row: a replay of
    /// its summary once built, else a sweep of every row.
    pub(crate) fn summary_work(&self, attr: usize) -> usize {
        match self.shared.summaries[attr].get() {
            Some(summary) => summary.replay_work(),
            None => self.shared.dataset.len(),
        }
    }

    /// Converts a learned test back into a PXQL atom, resolving interned
    /// nominal ids to their original values.  The pair of interest's own
    /// id renders as the pair's own value (see the module docs).
    pub fn atom_to_pxql(&self, atom: &TestAtom) -> Atom {
        let feature = self.attr_name(atom.attribute).to_string();
        let (op, constant) = match (atom.op, atom.constant) {
            (TestOp::Eq, TestConstant::Num(v)) => (Op::Eq, Value::Num(v)),
            (TestOp::Le, TestConstant::Num(v)) => (Op::Le, Value::Num(v)),
            (TestOp::Gt, TestConstant::Num(v)) => (Op::Gt, Value::Num(v)),
            (_, TestConstant::Nom(id)) => (
                Op::Eq,
                if self.poi_row[atom.attribute] == AttrValue::Nom(id) {
                    self.poi_values[atom.attribute].clone()
                } else {
                    self.shared.originals[atom.attribute]
                        .get(id as usize)
                        .cloned()
                        .unwrap_or(Value::Null)
                },
            ),
        };
        Atom {
            feature,
            op,
            constant,
        }
    }
}

impl SharedDataset {
    /// Encodes the sampled pairs of `training`: the one featurize routine
    /// behind both the served path and the stateless one.  See
    /// [`DatasetBridge::encode_from_view`].
    pub(crate) fn from_view(
        training: &EncodedTraining<'_>,
        catalog: &PairCatalog,
        excluded_raw: &[String],
        sim_threshold: f64,
    ) -> Self {
        let view = &training.view;
        let defs = included_defs(catalog, excluded_raw);
        let mut interner = Interner::new(defs.len());
        let columns = (defs.iter().enumerate())
            .map(|(attr, def)| {
                let col = view.column_of(&def.raw);
                let mut cache = KeyCache::default();
                let mut column = ColumnBuilder::with_capacity(training.pairs.len());
                for &pair in training.pairs.iter() {
                    column.push(encode_pair_cell(
                        view,
                        def,
                        col,
                        pair,
                        sim_threshold,
                        |key, value| {
                            let slot = match key {
                                CellKey::Slot(k) => cache.slot(k),
                                CellKey::Pair(l, r) => cache.pair(l, r),
                                CellKey::Uncached => return interner.intern(attr, value()),
                            };
                            *slot.get_or_insert_with(|| interner.intern(attr, value()))
                        },
                    ));
                }
                column.finish()
            })
            .collect();
        SharedDataset::new(columns, training.labels.to_vec(), defs, interner)
    }

    /// The shared part over the encoded `columns` of the sampled pairs
    /// labelled `labels`, whose dictionaries are `interner`'s.
    fn new(
        columns: Vec<ColumnCells>,
        labels: Vec<bool>,
        defs: Vec<PairFeatureDef>,
        interner: Interner,
    ) -> Self {
        let attributes = (defs.iter().zip(interner.dictionaries))
            .map(|(def, dictionary)| Attribute {
                name: def.name.clone(),
                kind: match def.kind {
                    FeatureKind::Numeric => AttrKind::Numeric,
                    FeatureKind::Nominal => AttrKind::Nominal,
                },
                dictionary,
            })
            .collect();
        let dataset = Dataset::from_columns(attributes, columns, labels);
        // The cells' and labels' capacities, plus per nominal id its text
        // (stored twice by the dictionary), the dictionary's entries and
        // the original.
        let nominal_bytes: usize = dataset
            .attributes()
            .iter()
            .flat_map(|attribute| attribute.dictionary.iter())
            .map(|(_, text)| 2 * text.len() + 64 + std::mem::size_of::<Value>())
            .sum();
        SharedDataset {
            base_bytes: dataset.heap_bytes() + nominal_bytes,
            summaries: defs.iter().map(|_| OnceLock::new()).collect(),
            dataset,
            defs,
            originals: interner.originals,
            summary_bytes: AtomicUsize::new(0),
        }
    }

    /// Heap bytes held: the dataset, its dictionaries and originals, and
    /// the summaries built so far (an estimate; the memo bounds it).
    pub(crate) fn bytes(&self) -> usize {
        self.base_bytes + self.summary_bytes.load(Ordering::Relaxed)
    }

    fn summary(&self, attr: usize) -> &SplitSummary {
        self.summaries[attr].get_or_init(|| {
            let rows: Vec<usize> = (0..self.dataset.len()).collect();
            let summary = SplitSummary::new(&self.dataset, &rows, attr);
            self.summary_bytes
                .fetch_add(summary.heap_bytes(), Ordering::Relaxed);
            summary
        })
    }

    /// The id of `value`'s text in attribute `attr`'s dictionary without
    /// interning it — one past the end when the sample never holds it —
    /// keeping `value` in `own`.
    fn resolve(&self, attr: usize, value: Value, own: &mut Value) -> u32 {
        let dictionary = &self.dataset.attributes()[attr].dictionary;
        let id = dictionary
            .get(&value.to_string())
            .unwrap_or(dictionary.len() as u32);
        *own = value;
        id
    }
}

/// The catalog's pair features minus those derived from `excluded_raw`, in
/// attribute order.
fn included_defs(catalog: &PairCatalog, excluded_raw: &[String]) -> Vec<PairFeatureDef> {
    catalog
        .defs()
        .iter()
        .filter(|d| !excluded_raw.iter().any(|x| x == &d.raw))
        .cloned()
        .collect()
}

/// The sampled rows' nominal dictionaries and originals while they are
/// encoded.
struct Interner {
    dictionaries: Vec<NominalDictionary>,
    originals: Vec<Vec<Value>>,
}

impl Interner {
    fn new(attributes: usize) -> Self {
        Interner {
            dictionaries: vec![NominalDictionary::new(); attributes],
            originals: vec![Vec::new(); attributes],
        }
    }

    /// Interns `value` into attribute `attr`'s dictionary, keyed by its
    /// canonical text, and returns its id; the first value seen with a text
    /// is kept as the original behind the id.  Every nominal id and
    /// original of a dataset is assigned here.
    fn intern(&mut self, attr: usize, value: Value) -> u32 {
        let id = self.dictionaries[attr].intern(&value.to_string());
        if id as usize == self.originals[attr].len() {
            self.originals[attr].push(value);
        }
        id
    }
}

/// Encodes one pair-feature value into the dataset representation; a
/// nominal value becomes the id `nominal` gives it.  A nominal value that
/// PXQL does not equate with itself (a `diff` pair with a NaN side) is
/// missing: no equality test on it could hold for the pair it came from.
fn encode_value(kind: FeatureKind, value: Value, nominal: impl FnOnce(Value) -> u32) -> AttrValue {
    match (&value, kind) {
        (Value::Null, _) => AttrValue::Missing,
        (Value::Num(v), FeatureKind::Numeric) => AttrValue::Num(*v),
        _ if !value.pxql_eq(&value) => AttrValue::Missing,
        // Everything else is treated as a nominal symbol keyed by its
        // canonical text form.
        _ => AttrValue::Nom(nominal(value)),
    }
}

/// The encoded key that fixes a nominal cell's text (see the module docs).
#[derive(Clone, Copy)]
enum CellKey {
    /// An `isSame` or `compare` outcome, or a base cell's view id.
    Slot(usize),
    /// A diff cell's ordered (left, right) view ids.
    Pair(u32, u32),
    /// A numeric cell in a nominal column, which has no view id.
    Uncached,
}

/// Derives and encodes the pair feature `def` of the rows `(left, right)`
/// straight from the columnar view, exactly as [`encode_value`] would
/// encode the materialised value.  A nominal cell becomes the id `nominal`
/// gives it, from its encoded key and a closure that builds its value: the
/// sampled rows intern through a [`KeyCache`], the pair of interest only
/// looks up.
fn encode_pair_cell(
    view: &ColumnarLog,
    def: &PairFeatureDef,
    col: Option<usize>,
    (left, right): (usize, usize),
    sim_threshold: f64,
    mut nominal: impl FnMut(CellKey, &dyn Fn() -> Value) -> u32,
) -> AttrValue {
    let Some(col) = col else {
        return AttrValue::Missing;
    };
    let l = view.cell(left, col);
    let r = view.cell(right, col);
    let missing = l.is_missing() || r.is_missing();
    let id = match def.group {
        PairFeatureGroup::IsSame => {
            if missing {
                return AttrValue::Missing;
            }
            let same = view.cells_equal(l, r);
            nominal(CellKey::Slot(same as usize), &|| Value::Bool(same))
        }
        PairFeatureGroup::Compare => match (view.column_kind(col), l, r) {
            (FeatureKind::Numeric, AttrValue::Num(lv), AttrValue::Num(rv)) => {
                let outcome = compare_index(lv, rv, sim_threshold);
                nominal(CellKey::Slot(outcome), &|| {
                    Value::str(COMPARE_VALUES[outcome])
                })
            }
            _ => return AttrValue::Missing,
        },
        PairFeatureGroup::Diff => {
            // A side PXQL does not equate with itself (a NaN number) makes
            // the pair missing, as in `encode_value`.
            if view.column_kind(col) != FeatureKind::Nominal
                || missing
                || view.cells_equal(l, r)
                || !view.cells_equal(l, l)
                || !view.cells_equal(r, r)
            {
                return AttrValue::Missing;
            }
            let key = match (l, r) {
                (AttrValue::Nom(lid), AttrValue::Nom(rid)) => CellKey::Pair(lid, rid),
                _ => CellKey::Uncached,
            };
            nominal(key, &|| {
                Value::pair(view.decode(col, l), view.decode(col, r))
            })
        }
        PairFeatureGroup::Base => {
            if missing || !view.cells_equal(l, r) {
                return AttrValue::Missing;
            }
            match (l, def.kind) {
                (AttrValue::Num(v), FeatureKind::Numeric) => return AttrValue::Num(v),
                (AttrValue::Nom(id), _) => {
                    nominal(CellKey::Slot(id as usize), &|| view.decode(col, l))
                }
                _ => nominal(CellKey::Uncached, &|| view.decode(col, l)),
            }
        }
    };
    AttrValue::Nom(id)
}

#[cfg(test)]
impl DatasetBridge {
    /// The same bridge with every attribute's nominal ids renumbered by
    /// the bijection `new_id(attr, id)` of `0..dictionary len`: in the
    /// cells, the dictionaries, the originals and the pair's row.  The
    /// summaries start empty.
    pub(crate) fn renumbered(&self, new_id: impl Fn(usize, u32) -> u32) -> DatasetBridge {
        let old = &self.shared;
        let mut interner = Interner::new(old.defs.len());
        for (attr, attribute) in old.dataset.attributes().iter().enumerate() {
            let mut by_new_id: Vec<(u32, &str, &Value)> = attribute
                .dictionary
                .iter()
                .map(|(id, text)| (new_id(attr, id), text, &old.originals[attr][id as usize]))
                .collect();
            by_new_id.sort_by_key(|&(id, _, _)| id);
            for (id, text, original) in by_new_id {
                assert_eq!(
                    interner.dictionaries[attr].intern(text),
                    id,
                    "not a bijection"
                );
                interner.originals[attr].push(original.clone());
            }
        }
        let renumber = |attr: usize, cell: AttrValue| match cell {
            AttrValue::Nom(id) if (id as usize) < old.originals[attr].len() => {
                AttrValue::Nom(new_id(attr, id))
            }
            other => other,
        };
        let columns = (0..old.defs.len())
            .map(|attr| {
                let mut column = ColumnBuilder::default();
                for row in 0..old.dataset.len() {
                    column.push(renumber(attr, old.dataset.value(row, attr)));
                }
                column.finish()
            })
            .collect();
        let labels = old.dataset.labels().to_vec();
        DatasetBridge {
            shared: Arc::new(SharedDataset::new(
                columns,
                labels,
                old.defs.clone(),
                interner,
            )),
            poi_row: (self.poi_row.iter().enumerate())
                .map(|(attr, &cell)| renumber(attr, cell))
                .collect(),
            poi_values: self.poi_values.clone(),
        }
    }
}

/// One attribute's map from encoded key to the dataset id its text
/// interned to (see the module docs); `None` until the key is first seen.
#[derive(Default)]
struct KeyCache {
    /// By `isSame` outcome (`F` = 0, `T` = 1), by `compare` outcome (its
    /// index in [`COMPARE_VALUES`]) or by the base cell's view dictionary
    /// id — the attribute's group says which.
    slots: Vec<Option<u32>>,
    /// By the diff cell's (left id, right id) view dictionary ids, in that
    /// order.
    pairs: FxHashMap<(u32, u32), Option<u32>>,
}

impl KeyCache {
    fn slot(&mut self, key: usize) -> &mut Option<u32> {
        if key >= self.slots.len() {
            self.slots.resize(key + 1, None);
        }
        &mut self.slots[key]
    }

    fn pair(&mut self, left: u32, right: u32) -> &mut Option<u32> {
        self.pairs.entry((left, right)).or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::PairLabel;
    use crate::record::{ExecutionKind, ExecutionLog, ExecutionRecord};
    use crate::training::RelatedPair;
    use mlcore::{TestAtom, TestConstant, TestOp};

    fn setup() -> (DatasetBridge, PairCatalog) {
        let job = |id: &str, size: f64, script: &str, duration: f64| {
            ExecutionRecord::job(id)
                .with_feature("inputsize", size)
                .with_feature("pigscript", script)
                .with_feature("duration", duration)
        };
        let mut log = ExecutionLog::new();
        log.push(job("a", 2.0e9, "filter.pig", 100.0));
        log.push(job("b", 1.0e9, "group.pig", 100.0));
        log.push(job("c", 2.0e9, "filter.pig", 300.0));
        log.rebuild_catalogs();
        let catalog = PairCatalog::from_raw(log.job_catalog());

        let view = Arc::new(ColumnarLog::build(&log, ExecutionKind::Job));
        let pairs: Vec<RelatedPair> = [(0, 1, true), (0, 2, false), (1, 2, true)]
            .into_iter()
            .map(|(left, right, observed)| RelatedPair {
                left,
                right,
                label: if observed {
                    PairLabel::Observed
                } else {
                    PairLabel::Expected
                },
            })
            .collect();
        let training = EncodedTraining::of_related(&log, view, pairs.iter(), pairs.len(), 0.1);
        let (a, b) = (log.get("a").unwrap(), log.get("b").unwrap());
        let poi = PairExample::build(log.job_catalog(), a, b, 0.1);
        let bridge = DatasetBridge::build(&training, &poi, &catalog, &["duration".to_string()]);
        (bridge, catalog)
    }

    #[test]
    fn excluded_raw_features_are_absent() {
        let (bridge, catalog) = setup();
        // duration contributes 4 pair features that must all be gone.
        assert_eq!(bridge.num_attributes(), catalog.len() - 4);
        assert!(!(0..bridge.num_attributes()).any(|i| bridge.attr_name(i).starts_with("duration")));
        assert_eq!(bridge.dataset().len(), 3);
    }

    #[test]
    fn nominal_atoms_round_trip_to_pxql() {
        let (bridge, _) = setup();
        let attr = (0..bridge.num_attributes())
            .find(|&i| bridge.attr_name(i) == "pigscript_diff")
            .unwrap();
        // The first sampled pair is the pair of interest (a, b), which
        // disagrees on the script, so id 0 holds its diff value.
        let atom = TestAtom {
            attribute: attr,
            op: TestOp::Eq,
            constant: TestConstant::Nom(0),
        };
        let pxql_atom = bridge.atom_to_pxql(&atom);
        assert_eq!(pxql_atom.feature, "pigscript_diff");
        assert_eq!(
            pxql_atom.constant,
            Value::pair(Value::str("filter.pig"), Value::str("group.pig"))
        );
    }

    #[test]
    fn numeric_atoms_round_trip_to_pxql() {
        let (bridge, _) = setup();
        let attr = (0..bridge.num_attributes())
            .find(|&i| bridge.attr_name(i) == "inputsize")
            .unwrap();
        let atom = TestAtom {
            attribute: attr,
            op: TestOp::Gt,
            constant: TestConstant::Num(1.5e9),
        };
        let pxql_atom = bridge.atom_to_pxql(&atom);
        assert_eq!(pxql_atom.op, Op::Gt);
        assert_eq!(pxql_atom.constant, Value::Num(1.5e9));
    }

    #[test]
    fn poi_row_is_available_for_applicability_checks() {
        let (bridge, _) = setup();
        let is_same_attr = (0..bridge.num_attributes())
            .find(|&i| bridge.attr_name(i) == "pigscript_isSame")
            .unwrap();
        // The pair of interest disagrees on the script, so its isSame value
        // is the interned form of `F`, not missing.
        assert!(!matches!(
            bridge.poi_value(is_same_attr),
            AttrValue::Missing
        ));
    }
}
