//! Bridge between the pair-feature representation (PXQL [`Value`]s) and the
//! columnar dataset representation `mlcore` uses for split search.
//!
//! The bridge owns the attribute schema (one attribute per allowed pair
//! feature), the interning dictionaries for nominal values, the mapping from
//! interned ids back to the *original* `Value`s (so that learned tests can
//! be turned back into PXQL atoms, including `diff` features whose values
//! are pairs), and the pair-of-interest's row, which Algorithm 1 needs to
//! enforce applicability.
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
//! path would and interns it through `DatasetBridge::intern`, the one
//! place ids and originals are assigned.  The dictionary stays the
//! authority, so the dataset is identical to [`DatasetBridge::build`]'s
//! over the materialised training set by construction.

use crate::columnar::ColumnarLog;
use crate::features::FeatureKind;
use crate::pairs::{
    compare_index, PairCatalog, PairExample, PairFeatureDef, PairFeatureGroup, COMPARE_VALUES,
};
use crate::training::{EncodedTraining, TrainingSet};
use mlcore::{AttrValue, Attribute, Dataset, FxHashMap, TestAtom, TestConstant, TestOp};
use pxql::{Atom, Op, Value};

/// The columnar view of a training set plus the pair of interest.
#[derive(Debug, Clone)]
pub struct DatasetBridge {
    dataset: Dataset,
    attr_names: Vec<String>,
    /// For every attribute, the original `Value` behind each interned
    /// nominal id (empty for numeric attributes).
    originals: Vec<Vec<Value>>,
    poi_row: Vec<AttrValue>,
}

impl DatasetBridge {
    /// Builds the bridge from a training set.
    ///
    /// * `catalog` — the pair features to expose as attributes (already
    ///   restricted to the configured feature level);
    /// * `excluded_raw` — raw features whose derived pair features must not
    ///   appear in explanations (the query's own performance metric plus any
    ///   user-configured exclusions);
    /// * `poi` — the pair of interest, interned alongside the training pairs
    ///   so applicability can be checked per candidate test.
    pub fn build(
        set: &TrainingSet,
        poi: &PairExample,
        catalog: &PairCatalog,
        excluded_raw: &[String],
    ) -> Self {
        let (mut bridge, defs) = Self::empty(catalog, excluded_raw);
        let encode_row = |bridge: &mut Self, pair: &PairExample| -> Vec<AttrValue> {
            defs.iter()
                .enumerate()
                .map(|(i, def)| bridge.encode_value(i, def.kind, pair.feature(&def.name)))
                .collect()
        };

        // Intern the pair of interest first so that its values always exist
        // in the dictionaries (candidate equality tests can then target
        // them).
        bridge.poi_row = encode_row(&mut bridge, poi);
        for (example, label) in set.iter() {
            let row = encode_row(&mut bridge, example);
            bridge.dataset.push(row, label);
        }
        bridge
    }

    /// Builds the bridge straight from an encoded training set: pair
    /// features of the sampled pairs are derived from the columnar view and
    /// interned into the dataset in a single pass — no intermediate
    /// `PairExample` maps, and a nominal cell's text is built only the
    /// first time its encoded key appears (see the module docs).  Produces
    /// a dataset identical to [`DatasetBridge::build`] over the
    /// materialised training set.
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
        let view = &training.view;
        let (mut bridge, defs) = Self::empty(catalog, excluded_raw);
        // Resolve every attribute's raw-feature column once, not per cell.
        let columns: Vec<Option<usize>> = defs.iter().map(|d| view.column_of(&d.raw)).collect();
        let mut caches: Vec<KeyCache> = defs.iter().map(|_| KeyCache::default()).collect();

        let mut encode_row = |bridge: &mut Self, left: usize, right: usize| -> Vec<AttrValue> {
            defs.iter()
                .zip(&columns)
                .zip(&mut caches)
                .enumerate()
                .map(|(i, ((def, &col), cache))| {
                    bridge.encode_pair_cell(view, def, col, left, right, sim_threshold, i, cache)
                })
                .collect()
        };

        // Intern the pair of interest first (same order as `build`) so that
        // its values always exist in the dictionaries.
        bridge.poi_row = encode_row(&mut bridge, poi.0, poi.1);
        for (&(left, right), &label) in training.pairs.iter().zip(&training.labels) {
            let row = encode_row(&mut bridge, left, right);
            bridge.dataset.push(row, label);
        }
        bridge
    }

    /// The columnar dataset (one row per training pair).
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// Number of attributes exposed to the split search.
    pub fn num_attributes(&self) -> usize {
        self.attr_names.len()
    }

    /// Name of attribute `index`.
    pub fn attr_name(&self, index: usize) -> &str {
        &self.attr_names[index]
    }

    /// The pair of interest's value for attribute `index`.
    pub fn poi_value(&self, index: usize) -> AttrValue {
        self.poi_row[index]
    }

    /// Converts a learned test back into a PXQL atom, resolving interned
    /// nominal ids to their original values.
    pub fn atom_to_pxql(&self, atom: &TestAtom) -> Atom {
        let feature = self.attr_names[atom.attribute].clone();
        let (op, constant) = match (atom.op, atom.constant) {
            (TestOp::Eq, TestConstant::Num(v)) => (Op::Eq, Value::Num(v)),
            (TestOp::Le, TestConstant::Num(v)) => (Op::Le, Value::Num(v)),
            (TestOp::Gt, TestConstant::Num(v)) => (Op::Gt, Value::Num(v)),
            (_, TestConstant::Nom(id)) => (
                Op::Eq,
                self.originals[atom.attribute]
                    .get(id as usize)
                    .cloned()
                    .unwrap_or(Value::Null),
            ),
        };
        Atom {
            feature,
            op,
            constant,
        }
    }
}

impl DatasetBridge {
    /// An empty bridge over the catalog's pair features minus those derived
    /// from `excluded_raw`, plus those features' definitions in attribute
    /// order.
    fn empty<'c>(
        catalog: &'c PairCatalog,
        excluded_raw: &[String],
    ) -> (Self, Vec<&'c PairFeatureDef>) {
        let defs: Vec<&PairFeatureDef> = catalog
            .defs()
            .iter()
            .filter(|d| !excluded_raw.iter().any(|x| x == &d.raw))
            .collect();
        let attributes: Vec<Attribute> = defs
            .iter()
            .map(|d| match d.kind {
                FeatureKind::Numeric => Attribute::numeric(d.name.clone()),
                FeatureKind::Nominal => Attribute::nominal(d.name.clone()),
            })
            .collect();
        let bridge = DatasetBridge {
            dataset: Dataset::new(attributes),
            attr_names: defs.iter().map(|d| d.name.clone()).collect(),
            originals: vec![Vec::new(); defs.len()],
            poi_row: Vec::new(),
        };
        (bridge, defs)
    }

    /// Interns `value` into attribute `attr`'s dictionary, keyed by its
    /// canonical text, and returns its id; the first value seen with a text
    /// is kept as the original behind the id.  Every nominal id and
    /// original of the bridge is assigned here.
    fn intern(&mut self, attr: usize, value: Value) -> u32 {
        let id = self
            .dataset
            .attribute_mut(attr)
            .dictionary
            .intern(&value.to_string());
        if id as usize == self.originals[attr].len() {
            self.originals[attr].push(value);
        }
        id
    }

    /// [`DatasetBridge::intern`] behind a cache entry: builds the value
    /// only when the entry's key has not been interned yet.
    fn intern_cached(
        &mut self,
        attr: usize,
        cached: &mut Option<u32>,
        value: impl FnOnce() -> Value,
    ) -> AttrValue {
        AttrValue::Nom(*cached.get_or_insert_with(|| self.intern(attr, value())))
    }

    /// Encodes one pair-feature value into the dataset representation,
    /// interning nominal values and remembering their originals.
    fn encode_value(&mut self, attr: usize, kind: FeatureKind, value: Value) -> AttrValue {
        match (&value, kind) {
            (Value::Null, _) => AttrValue::Missing,
            (Value::Num(v), FeatureKind::Numeric) => AttrValue::Num(*v),
            // Everything else is treated as a nominal symbol keyed by its
            // canonical text form.
            _ => AttrValue::Nom(self.intern(attr, value)),
        }
    }

    /// Derives and encodes one pair-feature cell straight from the columnar
    /// view, interning nominal values exactly as
    /// [`DatasetBridge::encode_value`] would have for the materialised
    /// value; `cache` is attribute `attr`'s encoded-key cache.
    #[allow(clippy::too_many_arguments)]
    fn encode_pair_cell(
        &mut self,
        view: &ColumnarLog,
        def: &PairFeatureDef,
        col: Option<usize>,
        left: usize,
        right: usize,
        sim_threshold: f64,
        attr: usize,
        cache: &mut KeyCache,
    ) -> AttrValue {
        let Some(col) = col else {
            return AttrValue::Missing;
        };
        let l = view.cell(left, col);
        let r = view.cell(right, col);
        let missing = l.is_missing() || r.is_missing();
        match def.group {
            PairFeatureGroup::IsSame => {
                if missing {
                    AttrValue::Missing
                } else {
                    let same = view.cells_equal(l, r);
                    self.intern_cached(attr, cache.slot(same as usize), || Value::Bool(same))
                }
            }
            PairFeatureGroup::Compare => match (view.column_kind(col), l, r) {
                (FeatureKind::Numeric, AttrValue::Num(lv), AttrValue::Num(rv)) => {
                    let outcome = compare_index(lv, rv, sim_threshold);
                    self.intern_cached(attr, cache.slot(outcome), || {
                        Value::str(COMPARE_VALUES[outcome])
                    })
                }
                _ => AttrValue::Missing,
            },
            PairFeatureGroup::Diff => {
                if view.column_kind(col) == FeatureKind::Nominal
                    && !missing
                    && !view.cells_equal(l, r)
                {
                    let value = || Value::pair(view.decode(col, l), view.decode(col, r));
                    match (l, r) {
                        (AttrValue::Nom(lid), AttrValue::Nom(rid)) => {
                            self.intern_cached(attr, cache.pair(lid, rid), value)
                        }
                        _ => AttrValue::Nom(self.intern(attr, value())),
                    }
                } else {
                    AttrValue::Missing
                }
            }
            PairFeatureGroup::Base => {
                if missing || !view.cells_equal(l, r) {
                    return AttrValue::Missing;
                }
                match (l, def.kind) {
                    (AttrValue::Num(v), FeatureKind::Numeric) => AttrValue::Num(v),
                    (AttrValue::Nom(id), _) => {
                        self.intern_cached(attr, cache.slot(id as usize), || view.decode(col, l))
                    }
                    _ => AttrValue::Nom(self.intern(attr, view.decode(col, l))),
                }
            }
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
    use crate::features::{FeatureCatalog, FeatureDef};
    use crate::pairs::{compute_pair_features, PairCatalog};
    use crate::record::ExecutionRecord;
    use mlcore::{TestAtom, TestConstant, TestOp};

    fn setup() -> (DatasetBridge, PairCatalog) {
        let raw = FeatureCatalog::from_defs(vec![
            FeatureDef::numeric("inputsize"),
            FeatureDef::nominal("pigscript"),
            FeatureDef::numeric("duration"),
        ]);
        let catalog = PairCatalog::from_raw(&raw);

        let job = |id: &str, size: f64, script: &str, duration: f64| {
            ExecutionRecord::job(id)
                .with_feature("inputsize", size)
                .with_feature("pigscript", script)
                .with_feature("duration", duration)
        };
        let a = job("a", 2.0e9, "filter.pig", 100.0);
        let b = job("b", 1.0e9, "group.pig", 100.0);
        let c = job("c", 2.0e9, "filter.pig", 300.0);

        let mut set = TrainingSet::default();
        for (left, right, label) in [(&a, &b, true), (&a, &c, false), (&b, &c, true)] {
            set.examples.push(PairExample {
                left_id: left.id.clone(),
                right_id: right.id.clone(),
                features: compute_pair_features(&raw, left, right, 0.1),
            });
            set.labels.push(label);
        }
        let poi = set.examples[0].clone();
        let bridge = DatasetBridge::build(&set, &poi, &catalog, &["duration".to_string()]);
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
        // The pair of interest (a, b) disagrees on the script, so its diff
        // value is interned; id 0 belongs to it.
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
